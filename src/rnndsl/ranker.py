"""Tree-structured performance predictor for candidate architectures.

Source leaves map to learned embeddings; commutative and unary operators
use Child-Sum tree cells while ordered operators (Gate3, Sub, Div) use
N-ary cells with per-position weights. Before encoding, the architecture
is canonicalized and unrolled one timestep so the representation of
h_{t-1}/c_{t-1} reflects the cell's own graph.
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
    subtree_uses,
)
from .evaluator import ArchPerfRecord

H_TM2 = "h_tm2"
C_TM2 = "c_tm2"

LEAF_LABELS = [
    OpKind.X.value,
    OpKind.XM1.value,
    OpKind.HM1.value,
    OpKind.CM1.value,
    OpKind.POSENC.value,
    H_TM2,
    C_TM2,
]

@dataclass(frozen=True)
class EvalNode:
    """Architecture-like tree fed to the encoder (labels, not OpKinds)."""

    label: str
    children: tuple["EvalNode", ...] = ()

    def operator_count(self) -> int:
        me = 0 if not self.children and self.label in LEAF_LABELS else 1
        return me + sum(c.operator_count() for c in self.children)

    def labels(self) -> set[str]:
        out = {self.label}
        for c in self.children:
            out |= c.labels()
        return out


def _to_eval(n: ArchNode, leaves: dict[OpKind, EvalNode]) -> EvalNode:
    """Copy of n with OpKinds as labels; a source in `leaves` becomes its
    value there."""
    if n.op.is_source:
        return leaves.get(n.op) or EvalNode(n.op.value)
    return EvalNode(n.op.value, tuple(_to_eval(c, leaves) for c in n.children))


# the recurrent leaves one timestep further back (x leaves are not shifted)
_SHIFTED = {OpKind.HM1: EvalNode(H_TM2), OpKind.CM1: EvalNode(C_TM2)}


def unroll_once(arch: Architecture) -> EvalNode:
    """Replace each h_tm1 leaf by the h_t tree and each c_tm1 leaf by the
    c_t subtree, relabeling the recurrent leaves inside the copies."""
    uses_c = subtree_uses(arch.root, OpKind.CM1)
    if uses_c and arch.ct_node is None:
        raise ValueError("cannot unroll: c_tm1 used without a c_t tap")
    leaves = {OpKind.HM1: _to_eval(arch.root, _SHIFTED)}
    if uses_c:
        leaves[OpKind.CM1] = _to_eval(node_at_index(arch.root, arch.ct_node), _SHIFTED)
    return _to_eval(arch.root, leaves)


@dataclass
class RankerConfig:
    hidden: int = 128
    batch_size: int = 16
    learning_rate: float = 1e-3
    l2: float = 1e-4
    head_dropout: float = 0.2
    unroll: bool = True
    epochs: int = 200
    metric_cap: float = math.log(500.0)  # clipped log-perplexity target
    seed: int = 0


class Ranker:
    """TreeLSTM regression model over architecture trees."""

    def __init__(self, cfg: Optional[RankerConfig] = None):
        self.cfg = cfg or RankerConfig()
        h = self.cfg.hidden
        rng = np.random.default_rng(self.cfg.seed)
        self.params: list[en.Parameter] = []

        def par(name, shape):
            if len(shape) == 2:
                data = en.init_mm_weight(rng, shape[0], shape[1])
            else:
                data = np.zeros(shape)
            p = en.Parameter(data, name)
            self.params.append(p)
            return p

        self.leaf_emb = {
            lab: par(f"leaf_{lab}", (1, h)) for lab in LEAF_LABELS
        }
        for lab in LEAF_LABELS:
            self.leaf_emb[lab].data[...] = rng.uniform(-0.1, 0.1, size=(1, h))

        self.cells: dict[str, dict[str, en.Parameter]] = {}
        for op in OpKind:
            if op.is_source:
                continue
            name = op.value
            cell: dict[str, en.Parameter] = {}
            if op.order_sensitive:
                for j in range(op.arity):
                    for g in ("i", "o", "u", "f"):
                        cell[f"U{g}{j}"] = par(f"{name}_U{g}{j}", (h, h))
                    cell[f"bf{j}"] = par(f"{name}_bf{j}", (h,))
                for g in ("i", "o", "u"):
                    cell[f"b{g}"] = par(f"{name}_b{g}", (h,))
            else:
                for g in ("i", "o", "u", "f"):
                    cell[f"U{g}"] = par(f"{name}_U{g}", (h, h))
                    cell[f"b{g}"] = par(f"{name}_b{g}", (h,))
            self.cells[name] = cell
        self.head_w = par("head_W", (1, h))
        self.head_b = par("head_b", (1,))
        self._rng = rng

    # -- encoding ----------------------------------------------------------

    def _cell(
        self, label: str, kids: list[tuple[en.Tensor, en.Tensor]]
    ) -> tuple[en.Tensor, en.Tensor]:
        """(h, c) of one node from its children's (h, c); a leaf has none."""
        if not kids:
            if label not in self.leaf_emb:
                raise KeyError(f"no embedding for leaf {label!r}")
            emb = self.leaf_emb[label]
            return emb, en.Tensor(np.zeros_like(emb.data))
        if label not in self.cells:
            raise KeyError(f"no tree cell for operator {label!r}")
        cell = self.cells[label]

        if OpKind(label).order_sensitive:
            zi = zo = zu = None
            for j, (hk, _) in enumerate(kids):
                ti = en.linear(hk, cell[f"Ui{j}"])
                to = en.linear(hk, cell[f"Uo{j}"])
                tu = en.linear(hk, cell[f"Uu{j}"])
                zi = ti if zi is None else en.add(zi, ti)
                zo = to if zo is None else en.add(zo, to)
                zu = tu if zu is None else en.add(zu, tu)
            i = en.sigmoid(en.add(zi, cell["bi"]))
            o = en.sigmoid(en.add(zo, cell["bo"]))
            u = en.tanh(en.add(zu, cell["bu"]))
            c = en.mul(i, u)
            for j, (hk, ck) in enumerate(kids):
                fj = en.sigmoid(
                    en.add(en.linear(hk, cell[f"Uf{j}"]), cell[f"bf{j}"])
                )
                c = en.add(c, en.mul(fj, ck))
        else:
            hsum = kids[0][0]
            for hk, _ in kids[1:]:
                hsum = en.add(hsum, hk)
            i = en.sigmoid(en.add(en.linear(hsum, cell["Ui"]), cell["bi"]))
            o = en.sigmoid(en.add(en.linear(hsum, cell["Uo"]), cell["bo"]))
            u = en.tanh(en.add(en.linear(hsum, cell["Uu"]), cell["bu"]))
            c = en.mul(i, u)
            for hk, ck in kids:
                fk = en.sigmoid(en.add(en.linear(hk, cell["Uf"]), cell["bf"]))
                c = en.add(c, en.mul(fk, ck))
        hout = en.mul(o, en.tanh(c))
        return hout, c

    def _encode(
        self, node: EvalNode, memo: dict[tuple, tuple]
    ) -> tuple[int, en.Tensor, en.Tensor]:
        """(key id, h, c) of a subtree, encoding each distinct subtree once.

        The memo maps a subtree's value (its label and its children's key
        ids) to its key id and (h, c). With a tape, a shared subtree is one
        tape node whose gradient sums over the places it appears.
        """
        kids = [self._encode(c, memo) for c in node.children]
        key = (node.label, *[k[0] for k in kids])
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = (len(memo), *self._cell(node.label, [k[1:] for k in kids]))
        return hit

    def _eval_tree(self, arch: Architecture) -> EvalNode:
        arch = canonicalize(arch)
        if self.cfg.unroll:
            return unroll_once(arch)
        return _to_eval(arch.root, {})

    def _predict(self, tree: EvalNode, train: bool) -> en.Tensor:
        # the memo lives for this one tree, so its size is bounded by it
        _, hroot, _ = self._encode(tree, {})
        hroot = en.dropout(hroot, self.cfg.head_dropout, self._rng, train)
        return en.add(en.linear(hroot, self.head_w), self.head_b)

    def score(self, arch: Architecture) -> float:
        with en.no_grad():
            return self._predict(self._eval_tree(arch), train=False).data.item()

    def score_many(self, archs: Sequence[Architecture]) -> np.ndarray:
        return np.array([self.score(a) for a in archs])

    # -- training ----------------------------------------------------------

    def target_for(self, rec: ArchPerfRecord) -> float:
        cap = self.cfg.metric_cap
        if rec.status == "ok" and rec.valid_metric is not None:
            return min(rec.valid_metric, cap)
        return cap

    def fit(
        self,
        records: Sequence[ArchPerfRecord],
        epochs: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> list[float]:
        """Weighted MSE regression on architecture-performance pairs."""
        if not records:
            raise ValueError("need at least one record")
        if rng is None:
            rng = np.random.default_rng(self.cfg.seed + 1)
        from .dsl import parse

        trees = []
        targets = []
        for rec in records:
            trees.append(self._eval_tree(parse(rec.dsl)))
            targets.append(self.target_for(rec))
        targets = np.array(targets)
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
        n_epochs = self.cfg.epochs if epochs is None else epochs
        curve: list[float] = []
        n = len(records)
        bs = min(self.cfg.batch_size, n)
        for _ in range(n_epochs):
            idx = rng.choice(n, size=bs, replace=True, p=weights)
            losses = []
            for i in idx:
                pred = self._predict(trees[i], train=True)
                diff = en.sub(pred, en.Tensor([[targets[i]]]))
                losses.append(en.mul(diff, diff))
            total = losses[0]
            for l in losses[1:]:
                total = en.add(total, l)
            loss = en.mul(en.tsum(total), en.Tensor(1.0 / bs))
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
