"""Tree-structured performance predictor for candidate architectures.

Source leaves map to learned embeddings; commutative and unary operators
use Child-Sum tree cells while ordered operators (Gate3, Sub, Div) use
N-ary cells with per-position weights. The architecture is canonicalized
(a canonical tree, as the generator emits it, is read as it is) and read
unrolled one timestep, so the representation of h_{t-1}/c_{t-1} reflects
the cell's own graph.

Each cell's gate matrices are stacked into one i|o|u|f block (per child
position for an N-ary cell); a one-child Child-Sum group adds its stacked
bias once and runs one sigmoid over the block. A `SubtreeMemo` hash-conses
the subtrees of the trees it is given, groups the distinct ones by
(height, label) and caps its own size; the encoder runs each new group as
array math, level by level, in one tape node (in the manner of TensorFlow
Fold's dynamic batching): `fit` encodes a whole minibatch in one call
through a fresh memo, and `score` one candidate per call. `score_many`
passes one memo to each of its `score` calls, so that each candidate
encodes only the subtrees that no earlier candidate of the call had.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import engine as en
from .dsl import (
    Architecture,
    ArchNode,
    OpKind,
    canonicalize,
    node_at_index,
    parse,
)
from .evaluator import FAILURE_PPL, ArchPerfRecord

H_TM2 = "h_tm2"
C_TM2 = "c_tm2"

# the sources in enum order, then the recurrent leaves one timestep further
# back, which stand for h_tm1 and c_tm1 inside an unrolled copy
LEAF_LABELS = [op.value for op in OpKind if op.is_source] + [H_TM2, C_TM2]
# each kind's label, read by a plain lookup (`OpKind.value` is a descriptor
# call), and the labels inside an unrolled copy
_LABEL = {op: op.value for op in OpKind}
_BACK = {**_LABEL, OpKind.HM1: H_TM2, OpKind.CM1: C_TM2}


# the cap on the regression target, a log-perplexity: an ok record's
# validation loss is clipped to it, and any other record gets it
METRIC_CAP = math.log(FAILURE_PPL)

# the most rows a shared subtree memo holds before it is cleared: H and C
# take 16 MB each at hidden 128
MEMO_ROWS = 1 << 14


@dataclass
class RankerConfig:
    hidden: int = 128
    batch_size: int = 16
    learning_rate: float = 1e-3
    l2: float = 1e-4
    head_dropout: float = 0.2
    unroll: bool = True
    epochs: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("hidden", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"RankerConfig.{name} must be >= 1, got {getattr(self, name)}")
        if self.l2 < 0:
            raise ValueError(f"RankerConfig.l2 must be >= 0, got {self.l2}")
        if not self.learning_rate > 0:
            raise ValueError(f"RankerConfig.learning_rate must be > 0, got {self.learning_rate}")
        if not 0 <= self.head_dropout < 1:
            raise ValueError(f"RankerConfig.head_dropout must be in [0, 1), got {self.head_dropout}")


class SubtreeMemo:
    """Subtrees encoded so far, and the one owner of their tables: `intern`
    writes ``ids``, ``heights`` and ``row``, and `rows` grows ``H`` and
    ``C``, whose rows `Ranker._encode` fills.

    ``ids`` maps a subtree's key, its label and its children's ids, to its
    id, and ``heights`` and ``row`` give each id's height and row of ``H``
    and ``C`` (a call's new ids and new rows are the same range, in another
    order). A memo that `score_many` shares across its candidates serves
    one parameter version under `no_grad`.
    """

    def __init__(self, hidden: int = 0) -> None:
        self.ids: dict[tuple, int] = {}
        self.heights: list[int] = []
        self.row: dict[int, int] = {}
        self.H = np.empty((0, hidden))
        self.C = np.empty((0, hidden))

    def intern(
        self, archs: Sequence[Architecture], unroll: bool
    ) -> tuple[int, list[tuple[str, np.ndarray]], list[int]]:
        """Hash-cons the subtrees of the trees as the encoder reads them and
        group the distinct ones that the memo lacks by (height, label),
        lowest height first.

        With `unroll` a tree is read one timestep unrolled: at its top level
        an h_tm1 leaf reads as the tree's root and a c_tm1 leaf as its c_t
        tap (as itself if the tree has no tap), each read as a copy, in which
        h_tm1 and c_tm1 are the h_tm2 and c_tm2 leaves. A subtree is keyed by
        its label and its children's keys, so each distinct subtree is one
        row, numbered group after group in first-seen depth-first order,
        after the memo's rows. A node object is walked once per reading: once
        in each tree's own reading, and once as a copy for all trees, since a
        copy's reading depends only on the node (c_t variants share one root
        object, so the tree's own reading cannot be cached by node alone).
        A memo that already held rows and would pass `MEMO_ROWS` forgets
        them all (keeping its arrays) and interns the trees again. Returns
        the first new row, each new group's label and child rows [members,
        arity] (arity 0 for a leaf), and the trees' root rows.
        """
        ids, heights, row = self.ids, self.heights, self.row
        first = len(heights)
        fresh: list[tuple] = []  # the keys new to the memo, in first-seen order

        def key_id(label: str, kids: tuple[int, ...] = ()) -> int:
            key = (label, kids)
            i = ids.get(key)
            if i is None:
                i = ids[key] = len(heights)
                heights.append(max([heights[k] for k in kids], default=-1) + 1)
                fresh.append(key)
            return i

        def walk(node: ArchNode, seen: dict[int, int], leaf) -> int:
            # `seen` holds one reading's ids by node object (the trees keep
            # every node alive), and `leaf` gives a source leaf's id in that
            # reading
            i = seen.get(id(node))
            if i is None:
                kids = node.children
                i = seen[id(node)] = (
                    key_id(_LABEL[node.op], tuple([walk(c, seen, leaf) for c in kids]))
                    if kids else leaf(node.op))
            return i

        copies: dict[int, int] = {}

        def back(op: OpKind) -> int:
            return key_id(_BACK[op])

        roots = []
        for arch in archs:
            subs = {}  # a source leaf -> the node read as a copy in its place
            if unroll:
                subs[OpKind.HM1] = arch.root
                if arch.ct_node is not None:
                    subs[OpKind.CM1] = node_at_index(arch.root, arch.ct_node)

            def own(op: OpKind) -> int:
                return walk(subs[op], copies, back) if op in subs else key_id(_LABEL[op])

            roots.append(walk(arch.root, {}, own))
        if first and len(heights) > MEMO_ROWS:
            for table in (ids, heights, row):
                table.clear()
            return self.intern(archs, unroll)

        members: dict[tuple[int, str], list[tuple]] = {}
        for key in fresh:
            members.setdefault((heights[ids[key]], key[0]), []).append(key)
        groups = []
        for hl in sorted(members):
            keys = members[hl]
            kids = np.array([[row[k] for k in key[1]] for key in keys], dtype=np.intp)
            groups.append((hl[1], kids.reshape(len(keys), -1)))
            for key in keys:
                row[ids[key]] = len(row)
        return first, groups, [row[i] for i in roots]

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """H and C over every interned subtree, as views of arrays grown
        (at most doubled, up to `MEMO_ROWS`) to hold them."""
        n = len(self.heights)
        if len(self.H) < n:
            size = max(n, min(2 * len(self.H), MEMO_ROWS))
            for name in ("H", "C"):
                old = getattr(self, name)
                new = np.empty((size, old.shape[1]))
                new[:len(old)] = old
                setattr(self, name, new)
        return self.H[:n], self.C[:n]


class Ranker:
    """TreeLSTM regression model over architecture trees."""

    def __init__(self, cfg: Optional[RankerConfig] = None):
        self.cfg = cfg or RankerConfig()
        h = self.cfg.hidden
        rng = np.random.default_rng(self.cfg.seed)
        self.params: list[en.Parameter] = []

        def par(name, shape, weight=True):
            # a weight's rows are drawn in order, each of fan-in shape[-1]
            data = (en.init_mm_weight(rng, math.prod(shape[:-1]), shape[-1]).reshape(shape)
                    if weight else np.zeros(shape))
            p = en.Parameter(data, name)
            self.params.append(p)
            return p

        self.leaf_emb = {
            lab: par(f"leaf_{lab}", (1, h)) for lab in LEAF_LABELS
        }
        for lab in LEAF_LABELS:
            self.leaf_emb[lab].data[...] = rng.uniform(-0.1, 0.1, size=(1, h))

        # gate blocks stacked i|o|u|f: a Child-Sum cell is (U [4h, h], b [4h]);
        # an N-ary cell is (U [arity, 4h, h], bf [arity, h], b [3h]), one
        # block per child position
        self.cells: dict[str, tuple[en.Parameter, ...]] = {}
        for op in OpKind:
            if op.is_source:
                continue
            name = op.value
            if op.order_sensitive:
                self.cells[name] = (par(f"{name}_U", (op.arity, 4 * h, h)),
                                    par(f"{name}_bf", (op.arity, h), False),
                                    par(f"{name}_b", (3 * h,), False))
            else:
                self.cells[name] = (par(f"{name}_U", (4 * h, h)),
                                    par(f"{name}_b", (4 * h,), False))
        self.head_w = par("head_W", (1, h))
        self.head_b = par("head_b", (1,), False)
        self._rng = rng
        self._trees: dict[str, Architecture] = {}  # canonical tree by record text

    # -- encoding ----------------------------------------------------------

    def _encode(self, archs: Sequence[Architecture], memo: SubtreeMemo) -> en.Tensor:
        """Root states h [len(archs), hidden] of the trees, as one tape node.

        The subtrees that `memo` lacks are interned (`SubtreeMemo.intern`)
        and encoded into its rows; those it holds are read from it. Each
        (height, label) group runs its cell as array math, lowest height
        first: one product of its children's h with the stacked gate block
        per child position gives every child's i|o|u|f terms; i, o and u
        take their sum (for a Child-Sum cell, U applied to the children's
        summed h). Each group writes its c and h into the memo's rows. A
        memo that outlives the call must serve one parameter version under
        `no_grad`, as `score_many`'s does.
        The reverse pass walks the groups top down, scatter-adds the
        children's gradients (a child can appear twice under one parent, or
        under two parents) and returns one gradient term per parameter.
        """
        h = self.cfg.hidden
        r1, groups, roots = memo.intern(archs, self.cfg.unroll)
        H, C = memo.rows()
        saved = []  # per group, what its reverse pass needs
        for label, kids in groups:
            r0, r1 = r1, r1 + len(kids)
            if not kids.shape[1]:
                H[r0:r1] = self.leaf_emb[label].data
                C[r0:r1] = 0.0
                saved.append((r0, r1, label, None))
                continue
            U, *bias = (p.data for p in self.cells[label])
            kh = H[kids.T]  # [arity, n, h], the children by position
            kc = C[kids.T]
            if U.ndim == 2 and len(kh) == 1:
                # one child: its stacked bias added once, one sigmoid over
                # i|o|u|f (the u block's is unused)
                z = kh[0] @ U.T + bias[0]
                s = en.sigmoid_fwd(z)[0]
                io, f = s[:, :2 * h], s[None, :, 3 * h:]
                u = en.tanh_fwd(z[:, 2 * h:3 * h])[0]
            else:
                if U.ndim == 2:  # one product for all children
                    zp = (kh.reshape(-1, h) @ U.T).reshape(*kh.shape[:2], -1)
                else:
                    zp = kh @ U.transpose(0, 2, 1)
                z = zp[0, :, :3 * h]
                for j in range(1, len(zp)):
                    z = z + zp[j, :, :3 * h]
                z = z + bias[-1][:3 * h]
                # a Child-Sum cell's forget bias is b[3h:], an N-ary cell's bf
                zf = zp[:, :, 3 * h:] + (bias[0][3 * h:] if len(bias) == 1 else bias[0][:, None])
                io = en.sigmoid_fwd(z[:, :2 * h])[0]
                u = en.tanh_fwd(z[:, 2 * h:])[0]
                f = en.sigmoid_fwd(zf)[0]
            c = np.multiply(io[:, :h], u, out=C[r0:r1])
            for fc in f * kc:
                c += fc
            tc = en.tanh_fwd(c)[0]
            np.multiply(io[:, h:], tc, out=H[r0:r1])
            saved.append((r0, r1, label, (kids, kh, kc, io, u, f, tc)))

        def backward(g):
            gH = np.zeros_like(H)
            gC = np.zeros_like(C)
            np.add.at(gH, roots, g)
            grads: dict[str, np.ndarray] = {}  # by parameter name
            terms: dict[str, list] = {}  # label -> [(d zp, kh)] of its groups
            for r0, r1, label, s in reversed(saved):
                gh, gc = gH[r0:r1], gC[r0:r1]
                if s is None:  # hash-consed, so one group per leaf label
                    grads[self.leaf_emb[label].name] = gh
                    continue
                kids, kh, kc, io, u, f, tc = s
                dc = gc + en.tanh_bwd(gh * io[:, h:], None, tc)[0]
                gzp = np.empty((len(kh), r1 - r0, 4 * h))
                gzp[:, :, :h] = dc * u
                gzp[:, :, h:2 * h] = gh * tc
                gzp[:, :, :2 * h] = en.sigmoid_bwd(gzp[:, :, :2 * h], None, io)[0]
                gzp[:, :, 2 * h:3 * h] = en.tanh_bwd(dc * io[:, :h], None, u)[0]
                gzp[:, :, 3 * h:] = en.sigmoid_bwd(dc * kc, None, f)[0]
                np.add.at(gH, kids.T, gzp @ self.cells[label][0].data)
                np.add.at(gC, kids.T, dc * f)
                terms.setdefault(label, []).append((gzp, kh))
            for label, parts in terms.items():
                gzp, kh = (np.concatenate(p, axis=1) for p in zip(*parts))
                U, *bias = self.cells[label]
                gb = gzp[0, :, :3 * h].sum(0)  # one i|o|u bias term per node
                gbf = gzp[:, :, 3 * h:].sum(1)
                if len(bias) == 1:
                    grads[U.name] = gzp.reshape(-1, 4 * h).T @ kh.reshape(-1, h)
                    grads[bias[0].name] = np.concatenate([gb, gbf.sum(0)])
                else:
                    grads[U.name] = gzp.transpose(0, 2, 1) @ kh
                    grads[bias[0].name] = gbf
                    grads[bias[1].name] = gb
            return [grads.get(p.name) for p in self.params]

        return en.Tensor(H[roots], tuple(self.params), backward)

    def _eval_tree(self, arch: Architecture) -> Architecture:
        return canonicalize(arch)

    def _predict(
        self, *archs: Architecture, train: bool, memo: Optional[SubtreeMemo] = None
    ) -> en.Tensor:
        """Predicted metric [len(archs), 1] of the canonical trees, encoded
        through `memo` (a fresh one by default)."""
        if memo is None:
            memo = SubtreeMemo(self.cfg.hidden)
        hroot = en.dropout(self._encode(archs, memo), self.cfg.head_dropout, self._rng, train)
        return en.linear(hroot, self.head_w, self.head_b)

    def score(self, arch: Architecture, memo: Optional[SubtreeMemo] = None) -> float:
        with en.no_grad():
            return self._predict(self._eval_tree(arch), train=False, memo=memo).data.item()

    def score_many(self, archs: Sequence[Architecture]) -> np.ndarray:
        """`score` of each candidate, through one subtree memo for the
        call: the candidates of a search step share most of their subtrees."""
        memo = SubtreeMemo(self.cfg.hidden)
        return np.array([self.score(a, memo) for a in archs])

    # -- training ----------------------------------------------------------

    def target_for(self, rec: ArchPerfRecord) -> float:
        if rec.status == "ok":
            return min(rec.valid_metric, METRIC_CAP)
        return METRIC_CAP

    def fit(
        self,
        records: Sequence[ArchPerfRecord],
        rng: Optional[np.random.Generator] = None,
    ) -> list[float]:
        """Weighted MSE regression on architecture-performance pairs. Each
        record text is parsed once per ranker: a search that refits on its
        growing store parses only the new records."""
        if not records:
            raise ValueError("need at least one record")
        if rng is None:
            rng = np.random.default_rng(self.cfg.seed + 1)
        trees = []
        for rec in records:
            tree = self._trees.get(rec.dsl)
            if tree is None:
                tree = self._trees[rec.dsl] = self._eval_tree(parse(rec.dsl))
            trees.append(tree)
        targets = np.array([self.target_for(rec) for rec in records])
        # better (lower) metrics sampled more often: weight ~ 1/rank
        order = np.argsort(np.argsort(targets))
        weights = 1.0 / (order + 1.0)
        weights = weights / weights.sum()

        opt = en.Optimizer(
            self.params,
            en.OptimizerConfig(
                kind="adam", learning_rate=self.cfg.learning_rate, l2=self.cfg.l2
            ),
        )
        curve: list[float] = []
        n = len(records)
        bs = min(self.cfg.batch_size, n)
        for _ in range(self.cfg.epochs):
            idx = rng.choice(n, size=bs, replace=True, p=weights)
            pred = self._predict(*(trees[i] for i in idx), train=True)
            diff = en.sub(pred, en.Tensor(targets[idx, None]))
            loss = en.mul(en.tsum(en.mul(diff, diff)), en.Tensor(1.0 / bs))
            loss.backward()
            if not opt.step():
                break
            curve.append(float(loss.data))
        return curve

    def bootstrap_ct_embeddings(self) -> None:
        """Seed the t-2 leaf vectors from the trained t-1 vectors."""
        self.leaf_emb[H_TM2].data[...] = self.leaf_emb[OpKind.HM1.value].data
        self.leaf_emb[C_TM2].data[...] = self.leaf_emb[OpKind.CM1.value].data


def select(
    ranker: Ranker,
    candidates: Sequence[Architecture],
    k_top: int,
    k_sampled: int,
    temperature: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> list[Architecture]:
    """k_top best-predicted plus k_sampled drawn without replacement from
    the remainder with probability proportional to softmax(-score/T)."""
    if rng is None:
        rng = np.random.default_rng(0)
    cands = list(candidates)
    if len(cands) <= k_top + k_sampled:
        return cands
    scores = ranker.score_many(cands)
    order = np.argsort(scores, kind="stable")
    top = [cands[i] for i in order[:k_top]]
    rest = order[k_top:]
    if k_sampled == 0:
        return top
    logits = -scores[rest] / max(temperature, 1e-12)
    picked_idx: list[int] = []
    avail = list(range(len(rest)))
    for _ in range(min(k_sampled, len(avail))):
        # renormalize in log space each draw so tiny temperatures stay
        # stable after the dominant entry has been removed
        l = logits[avail]
        p_norm = np.exp(l - l.max())
        p_norm /= p_norm.sum()
        choice = avail[rng.choice(len(avail), p=p_norm)]
        picked_idx.append(choice)
        avail.remove(choice)
    return top + [cands[rest[i]] for i in picked_idx]
