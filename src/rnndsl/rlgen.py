"""Incremental architecture construction with a REINFORCE-trained policy.

A partial tree with empty slots is encoded bottom-up by a shared LSTM
(state reset between nodes); the leftmost empty slot carries a target
token. An action head (linear, ReLU, LSTM carried across the steps of an
episode, linear, softmax) scores the next operator or source, sampled
with a multinomial under an epsilon-greedy scheme.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import engine as en
from .dsl import (
    Architecture,
    OpKind,
    canonicalize,  # noqa: F401  (the benchmark tracer wraps rlgen.canonicalize)
    from_preorder,
    tree_height,
    vocabulary,
)

EMPTY_TOKEN = "empty"
TARGET_TOKEN = "target"


@dataclass
class RLConfig:
    width: int = 32
    epsilon: float = 0.05
    max_depth: int = 11
    max_nodes: int = 21
    extended_dsl: bool = False
    allow_cm1: bool = True
    learning_rate: float = 0.01
    normalize_advantage: bool = False
    entropy_weight: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("width", "max_depth", "max_nodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"RLConfig.{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.epsilon <= 1:
            raise ValueError(f"RLConfig.epsilon must be in [0, 1], got {self.epsilon}")
        if not self.learning_rate > 0:
            raise ValueError(f"RLConfig.learning_rate must be > 0, got {self.learning_rate}")


# decay of the running-mean reward baseline, per episode of an update
BASELINE_DECAY = 0.9


@dataclass
class RewardConfig:
    # affine map from task loss into the formula's input range
    rescale_gain: float = 111.0
    rescale_bias: float = -2.2


def reward(cfg: RewardConfig, loss: Optional[float], status: str = "ok") -> float:
    """Soft-exponential reward of the rescaled loss; a failure gets 0."""
    if status != "ok" or loss is None or not math.isfinite(loss):
        return 0.0
    rescaled = cfg.rescale_gain * loss + cfg.rescale_bias
    x = 140.0 - rescaled
    return 0.2 * x + 4.0 ** (0.3815 * x - 50.0)


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------

def prior_depth(arch: Architecture) -> bool:
    """Whether the operator nodes on the longest root-to-leaf path number
    between 3 and 11."""
    root = arch.root
    return 3 <= (0 if root.op.is_source else tree_height(root) + 1) <= 11


def prior_satisfaction(arch: Architecture) -> list[bool]:
    """The six priors: the depth bound; x_t, h_tm1, MM and an activation all
    present; no child repeating its parent's operator; no activation
    directly over an activation; three distinct Gate3 children; every MM
    over a source. One walk of the tree decides the last five."""
    kinds: set[OpKind] = set()
    repeated = stacked = gate_alike = mm_deep = False
    stack = [arch.root]
    while stack:
        n = stack.pop()
        op = n.op
        kinds.add(op)
        kids = n.children
        if not kids:
            continue
        activation = op.is_activation
        for c in kids:
            repeated |= c.op is op
            stacked |= activation and c.op.is_activation
        if op is OpKind.GATE3:
            a, b, g = kids
            gate_alike |= a == b or a == g or b == g
        elif op is OpKind.MM:
            mm_deep |= not kids[0].op.is_source
        stack += kids
    return [
        prior_depth(arch),
        {OpKind.X, OpKind.HM1, OpKind.MM} <= kinds and any(k.is_activation for k in kinds),
        not repeated,
        not stacked,
        not gate_alike,
        not mm_deep,
    ]


# ---------------------------------------------------------------------------
# partial trees
# ---------------------------------------------------------------------------

@dataclass
class PartialArch:
    """A tree grown in preorder, children left to right: the actions so far
    and the depths of the open slots, the leftmost (the target) last. The
    filled nodes come first in the tree's preorder, the open slots after
    them."""

    actions: list[OpKind] = field(default_factory=list)
    open_depths: list[int] = field(default_factory=lambda: [0])
    operator_count: int = 0  # filled slots holding an operator

    @property
    def complete(self) -> bool:
        return not self.open_depths

    @property
    def target_depth(self) -> int:
        return self.open_depths[-1]

    def fill(self, kind: OpKind) -> None:
        depth = self.open_depths.pop()
        self.open_depths += [depth + 1] * kind.arity
        self.operator_count += not kind.is_source
        self.actions.append(kind)

    def to_architecture(self) -> Architecture:
        if not self.complete:
            raise ValueError("partial tree still has empty slots")
        return Architecture(from_preorder(self.actions))


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------

def draw_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """``rng.choice(len(probs), p=probs / probs.sum())`` by choice's own
    arithmetic, without its checks and conversions: the same index from the
    same one double, and `ValueError` where choice raises it, on NaN."""
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    if not math.isfinite(cdf[-1]):
        raise ValueError("probabilities contain NaN")
    return int(cdf.searchsorted(rng.random(), side="right"))


class Memo:
    """One update window: the encoder's states by value, and the policy
    steps its episodes took, recorded for one reverse pass over them all.

    ``keys`` maps the key of an encoder prefix to its step and ``hc`` holds
    each step's packed [1, 2w] state (`Policy.encode_partial`); a token's
    step keeps the product through which later steps read it, so they do
    not recompute it. The memo also holds the open path of the partial tree
    it encoded last, so that the next action of that tree costs lookups
    along the path only. With gradients on, each encoder step that ``keys``
    missed is recorded in ``enc`` and each head step in ``head``, with the
    chosen log-probability and the entropy; an episode is a range of head
    steps (`Episode.rows`), and `reinforce_loss` turns the records into a
    tape node. A memo serves one parameter version in one grad mode: it
    must not outlive a parameter change or a change of grad mode.
    """

    def __init__(self) -> None:
        self.keys: dict = {}
        self.hc: list[np.ndarray] = []
        # per token step: its h times the encoder weight that later steps
        # read it through, W for a leaf (an input) and U for an operator (a
        # prefix)
        self.products: dict[int, np.ndarray] = {}
        # the partial tree encoded last, how many of its actions are folded
        # into ``path``, and its open path: per ancestor of the target, root
        # first, [step of the prefix (the token and the finished children),
        # open children]
        self.tree: Optional[PartialArch] = None
        self.folded = 0
        self.path: list[list[int]] = []
        # per encoder step: its input (a step whose h it reads, or -1 -
        # token index), previous step (-1: the zero state) and what
        # `lstm_gates` saved; and its dependency level
        self.enc: list[tuple] = []
        self.levels: list[int] = []
        # per head step: its encoder step, previous head step (-1: the zero
        # state), action index, chosen action, lin1 output, LSTM input and
        # state, what `lstm_fwd` saved, next state, log-probabilities, entropy
        self.head: list[tuple] = []
        self.policy: Optional[Policy] = None  # the policy that recorded the steps


class Policy:
    def __init__(self, cfg: Optional[RLConfig] = None):
        self.cfg = cfg or RLConfig()
        w = self.cfg.width
        rng = np.random.default_rng(self.cfg.seed)
        ops, srcs = vocabulary(self.cfg.extended_dsl, self.cfg.allow_cm1)
        self.actions = ops + srcs
        self._sources = np.array([a.is_source for a in self.actions])
        self._operators = ~self._sources
        self.params: list[en.Parameter] = []

        def par(name, shape, zero=False):
            data = np.zeros(shape) if zero else en.init_mm_weight(rng, *shape)
            p = en.Parameter(data, name)
            self.params.append(p)
            return p

        self.tokens = [k.value for k in OpKind] + [EMPTY_TOKEN, TARGET_TOKEN]
        # the encoder input of a node's first step, by its operator or slot
        # token: -1 - the token's row (`_memo_step`), and its child count
        self._token_input = {
            t: (-1 - j, t.arity if isinstance(t, OpKind) else 0)
            for j, t in enumerate([*OpKind, EMPTY_TOKEN, TARGET_TOKEN])
        }
        # one row per token, in ``tokens`` order
        self.tok_emb = par("tok_emb", (len(self.tokens), w))
        # fused i|f|o|u gate blocks: one [4w x w] matrix per input
        self.enc = {
            "W": par("enc_W", (4 * w, w)),
            "U": par("enc_U", (4 * w, w)),
            "b": par("enc_b", (4 * w,), zero=True),
        }
        self.lin1_w = par("lin1_W", (w, w))
        self.lin1_b = par("lin1_b", (w,), zero=True)
        self.head = {
            "W": par("head_W", (4 * w, w)),
            "U": par("head_U", (4 * w, w)),
            "b": par("head_b", (4 * w,), zero=True),
        }
        self.lin2_w = par("lin2_W", (len(self.actions), w))
        self.lin2_b = par("lin2_b", (len(self.actions),), zero=True)
        self.baseline: Optional[float] = None  # running-mean reward; None before an update
        # the packed state before a node's first step and before an
        # episode's first action. Read-only.
        self._zero = np.zeros((1, 2 * w))
        self._zero.flags.writeable = False
        # the legal-action mask and its additive score row (0 where legal,
        # -1e9 where not), by whether operators and sources are allowed:
        # the mask depends on nothing else. Read-only.
        self._legal = {}
        for ops_ok, srcs_ok in itertools.product((False, True), repeat=2):
            mask = (self._operators & ops_ok) | (self._sources & srcs_ok)
            self._legal[ops_ok, srcs_ok] = mask, np.where(mask, 0.0, -1e9)[None, :]

    # -- encoder -----------------------------------------------------------

    def head_start(self) -> tuple[np.ndarray, int]:
        """The action head's state before an episode's first action: the
        policy's read-only packed [1, 2w] zero state, and no previous head
        step."""
        return self._zero, -1

    def _memo_step(self, memo: Memo, key, src: int, prev: int) -> int:
        """One encoder step that ``memo`` does not hold yet; returns the
        step. ``src`` is a step whose hidden state is the input, or -1 -
        the row of a token; ``prev`` -1 is the zero state of a node's
        first step. A product that ``memo.products`` keeps is not
        recomputed."""
        w, enc = self.cfg.width, self.enc
        hc, products = memo.hc, memo.products
        if src < 0:
            xW = self.tok_emb.data[[-1 - src]] @ enc["W"].data.T
        elif (xW := products.get(src)) is None:
            xW = hc[src][:, :w] @ enc["W"].data.T
        state = hc[prev] if prev >= 0 else self._zero
        if (hU := products.get(prev)) is None:
            hU = state[:, :w] @ enc["U"].data.T
        out, saved = en.lstm_gates(xW, hU, state, enc["b"].data)
        step = memo.keys[key] = len(hc)
        hc.append(out)
        if en.grad_enabled():
            levels = memo.levels
            memo.enc.append((src, prev, *saved))
            levels.append(1 + max(levels[src] if src >= 0 else -1,
                                  levels[prev] if prev >= 0 else -1))
        return step

    def _token_step(self, memo: Memo, kind) -> int:
        """The step of a node's token alone (an operator, a source or a slot
        token), keyed by its input (`_memo_step`). A new one keeps the
        product that later steps read it through."""
        token, arity = self._token_input[kind]
        step = memo.keys.get(token)
        if step is None:
            step = self._memo_step(memo, token, token, -1)
            weight = self.enc["U" if arity else "W"].data
            memo.products[step] = memo.hc[step][:, :self.cfg.width] @ weight.T
        return step

    def _combine(self, memo: Memo, prefix: int, kid: int) -> int:
        """The step after the prefix step ``prefix`` reads the state of the
        child step ``kid``."""
        key = (prefix, kid)
        step = memo.keys.get(key)
        return self._memo_step(memo, key, kid, prefix) if step is None else step

    def encode_partial(self, p: PartialArch, memo: Memo) -> int:
        """The memo step whose hidden state, ``memo.hc[step][:, :w]``,
        encodes the partial tree: the shared LSTM over [token, child
        states] per node, state reset per node, over its actions, then its
        open slots in preorder, the first the target and the rest empty.

        The state after a node's token and its first j children depends only
        on the token, those children's steps and the parameters, so ``memo``
        holds it by (token) or (step of the previous prefix, step of child
        j), across episodes when the caller shares it. The memo also keeps
        the tree's open path (`Memo.path`). The actions filled since the
        last call are folded into it (an operator opens a node; a source
        finishes its slot and each ancestor whose last slot it was), then
        the target and the trailing empty slots are folded up it; so an
        action looks up O(depth) keys and misses the steps a walk of the
        whole tree would, in the same order. On a memo that holds another
        tree's path, the path is rebuilt from the actions."""
        if p.complete:
            raise ValueError("a complete tree has no target to encode")
        if memo.tree is not p:
            memo.tree, memo.folded, memo.path = p, 0, []
        path = memo.path
        for kind in p.actions[memo.folded:]:
            step = self._token_step(memo, kind)
            if kind.arity:
                path.append([step, kind.arity])
                continue
            while path:
                top = path[-1]
                top[0] = self._combine(memo, top[0], step)
                top[1] -= 1
                if top[1]:
                    break
                step = path.pop()[0]
        memo.folded = len(p.actions)
        step = self._token_step(memo, TARGET_TOKEN)
        for prefix, n_open in reversed(path):
            step = self._combine(memo, prefix, step)
            for _ in range(n_open - 1):
                step = self._combine(memo, step, self._token_step(memo, EMPTY_TOKEN))
        return step

    # -- action selection --------------------------------------------------

    def legal_actions(self, p: PartialArch) -> tuple[np.ndarray, np.ndarray]:
        """Boolean mask over the action space for the current target and its
        additive score row; one of the four pairs the policy builds once, so
        read-only."""
        depth = p.target_depth
        operators_ok = depth < self.cfg.max_depth and p.operator_count < self.cfg.max_nodes
        # h_t itself must be an operator
        return self._legal[operators_ok, depth > 0]

    def action_logprobs(
        self, p: PartialArch, head_state: np.ndarray, memo: Memo
    ) -> tuple[np.ndarray, np.ndarray, tuple]:
        """Log-probabilities [1, A] over the action space, the legal-action
        mask and the head step: the encoder step it reads, the lin1 output,
        the LSTM input, its saved values and the next packed [1, 2w] state."""
        w = self.cfg.width
        enc_step = self.encode_partial(p, memo)
        a1 = memo.hc[enc_step][:, :w] @ self.lin1_w.data.T
        a1 += self.lin1_b.data
        x = en.relu_fwd(a1)[0]
        head_state, saved = en.lstm_fwd(
            x, head_state, self.head["W"].data, self.head["U"].data, self.head["b"].data
        )
        scores = head_state[:, :w] @ self.lin2_w.data.T
        scores += self.lin2_b.data
        mask, masked = self.legal_actions(p)
        scores += masked
        scores -= scores.max(axis=-1, keepdims=True)
        logp = scores - np.log(np.exp(scores).sum(axis=-1, keepdims=True))
        return logp, mask, (enc_step, a1, x, saved, head_state)

    def next_action(
        self,
        p: PartialArch,
        head: tuple[np.ndarray, int],
        memo: Memo,
        epsilon: float,
        rng: np.random.Generator,
        forced: Optional[OpKind] = None,
    ) -> tuple[OpKind, tuple[np.ndarray, int]]:
        """Draw (or force) one action. ``head`` is the head's packed state
        and its step in ``memo`` (`head_start`); returns the action and the
        next head. A draw is `draw_index`. With gradients on, the head step
        is recorded in ``memo`` with the chosen log-probability and the
        entropy of the distribution; the loss's entropy weight decides
        whether the entropy gets a gradient (`_window_backward`)."""
        head_state, prev = head
        logp, mask, (enc_step, a1, x, saved, head_state) = self.action_logprobs(
            p, head_state, memo
        )
        probs = np.exp(logp[0])
        if forced is not None:
            idx = self.actions.index(forced)
            if not mask[idx]:
                raise ValueError(f"forced action {forced} is illegal here")
        elif epsilon > 0 and rng.random() < epsilon:
            legal = np.flatnonzero(mask)
            idx = int(legal[rng.integers(len(legal))])
        else:
            idx = draw_index(probs, rng)
        if not en.grad_enabled():
            return self.actions[idx], (head_state, -1)
        # entropy of the masked distribution; exp(-1e9) underflows to
        # exactly zero, so illegal entries contribute nothing
        entropy = -float((probs * logp[0]).sum())
        memo.policy = self
        memo.head.append((enc_step, prev, 0 if prev < 0 else memo.head[prev][2] + 1, idx,
                          a1, x, head[0], *saved, head_state, logp, entropy))
        return self.actions[idx], (head_state, len(memo.head) - 1)

    # -- reverse pass ------------------------------------------------------

    def _window_backward(
        self, hc: list, enc: list, levels: list, head: list, g: np.ndarray
    ) -> list[Optional[np.ndarray]]:
        """One gradient per parameter from g [head steps, 2], the gradients
        of each head step's chosen log-probability and entropy, given a
        memo's ``hc``, ``enc``, ``levels`` and ``head`` records.

        The head steps run first, one action index at a time, last first;
        then the encoder steps, one dependency level at a time, highest
        first. Each level's steps are stacked into [n, ·] arrays, and their
        gradients are scatter-added into the steps they read (a step can be
        read by several later steps, across episodes). Parameters are read
        as they are now, as the per-op tape read them.
        """
        w = self.cfg.width
        grads: dict[str, np.ndarray] = {}

        def add(p: en.Parameter, gp: np.ndarray) -> None:
            # every term is a fresh array, so the first is summed into in place
            if p.name in grads:
                grads[p.name] += gp
            else:
                grads[p.name] = gp

        def by_level(of_row) -> list[np.ndarray]:
            """Row indices grouped by level, highest level first."""
            of_row = np.asarray(of_row)
            order = np.argsort(-of_row, kind="stable")
            return np.split(order, np.flatnonzero(np.diff(of_row[order])) + 1)

        n_steps = len(hc)
        n_tok = len(self.tokens)
        # rows: each encoder step's h gradient, each token row's, then a dump
        # row for the -1 (zero state) index
        g_h = np.zeros((n_steps + n_tok + 1, w))
        g_c = np.zeros((n_steps + 1, w))
        HC = np.concatenate(hc)
        (enc_step, prev, level, idx, a1, x, hc_in, ifo, u, th, hc_out,
         logp, _) = zip(*head)
        enc_step, prev, idx = np.array(enc_step), np.array(prev), np.array(idx)
        a1, x, hc_in, hc_out, logp = (np.concatenate(v) for v in (a1, x, hc_in, hc_out, logp))
        saved = [np.concatenate(v) for v in (ifo, u, th)]
        probs = np.exp(logp)
        g_head = np.zeros((len(idx) + 1, 2 * w))
        entropy_on = g[:, 1].any()
        W1, W2 = self.lin1_w.data, self.lin2_w.data
        head_params = tuple(self.head[k].data for k in "WUb")
        lin1_g, lin2_g = [], []
        for rows in by_level(level):
            n = len(rows)
            gl = np.zeros((n, len(self.actions)))
            gl[np.arange(n), idx[rows]] = g[rows, 0]
            if entropy_on:
                ge = -g[rows, 1:2] * probs[rows]
                gl += ge + ge * logp[rows]
            gs = gl - probs[rows] * gl.sum(axis=-1, keepdims=True)
            lin2_g.append(gs)
            go = g_head[rows]
            go[:, :w] += gs @ W2
            gx, ghc, gW, gU, gb = en.lstm_bwd(
                go, (x[rows], hc_in[rows], *head_params), [s[rows] for s in saved]
            )
            for k, gp in zip("WUb", (gW, gU, gb)):
                add(self.head[k], gp)
            np.add.at(g_head, prev[rows], ghc)
            ga = en.relu_bwd(gx, (a1[rows],), None)[0]
            lin1_g.append(ga)
            np.add.at(g_h, enc_step[rows], ga @ W1)
        order = np.concatenate(by_level(level))
        gs = np.concatenate(lin2_g)
        add(self.lin2_w, gs.T @ hc_out[order, :w])
        add(self.lin2_b, gs.sum(axis=0))
        ga = np.concatenate(lin1_g)
        add(self.lin1_w, ga.T @ HC[enc_step[order], :w])
        add(self.lin1_b, ga.sum(axis=0))

        src, prev, ifo, u, th = zip(*enc)
        src, prev = np.array(src), np.array(prev)
        # a token input -1 - j reads row n_steps + j
        src = np.where(src >= 0, src, n_steps - 1 - src)
        inputs = np.concatenate([HC[:, :w], self.tok_emb.data])
        states = np.concatenate([HC, np.zeros((1, 2 * w))])
        saved = [np.concatenate(v) for v in (ifo, u, th)]
        enc_params = tuple(self.enc[k].data for k in "WUb")
        for rows in by_level(levels):
            go = np.concatenate([g_h[rows], g_c[rows]], axis=1)
            gx, ghc, gW, gU, gb = en.lstm_bwd(
                go, (inputs[src[rows]], states[prev[rows]], *enc_params),
                [s[rows] for s in saved],
            )
            for k, gp in zip("WUb", (gW, gU, gb)):
                add(self.enc[k], gp)
            np.add.at(g_h, src[rows], gx)
            np.add.at(g_h, prev[rows], ghc[:, :w])
            np.add.at(g_c, prev[rows], ghc[:, w:])
        # a token no step read keeps a zero row
        grads[self.tok_emb.name] = g_h[n_steps:n_steps + n_tok]
        return [grads.get(p.name) for p in self.params]


@dataclass
class Episode:
    arch: Architecture
    actions: list[OpKind]
    memo: Memo  # its update window
    rows: range  # its head steps in the window; none without gradients
    reward: Optional[float] = None

    def logp_sum(self) -> en.Tensor:
        """The chosen actions' log-probabilities summed, [1, 1]: the
        REINFORCE loss of this episode alone at advantage -1."""
        return reinforce_loss(self.memo.policy, [self], [-1.0], 0.0)


def generate_episode(
    policy: Policy,
    rng: np.random.Generator,
    epsilon: Optional[float] = None,
    forced_actions: Optional[Sequence[OpKind]] = None,
    memo: Optional[Memo] = None,
) -> Episode:
    """Roll out one architecture; with forced_actions, re-score a tree.

    ``memo`` holds the encoder's states by value and the partial tree's
    open path (`Policy.encode_partial`), and is the rollout's only cache:
    each action folds the last action and then the target into the path,
    so it looks up keys along the path only, and only the path to the
    filled slot and to the new target costs steps. It is also the update
    window: with gradients on, the episode's head steps are appended to it
    as the episode's rows (`Memo`), and the rollout itself builds no tape
    node. ``None`` means a fresh memo for this episode.
    """
    eps = policy.cfg.epsilon if epsilon is None else epsilon
    p = PartialArch()
    head = policy.head_start()
    memo = Memo() if memo is None else memo
    first = len(memo.head)
    while not p.complete:
        forced = forced_actions[len(p.actions)] if forced_actions is not None else None
        act, head = policy.next_action(p, head, memo, eps, rng, forced)
        p.fill(act)
    return Episode(p.to_architecture(), p.actions, memo, range(first, len(memo.head)))


def sample_architecture(
    policy: Policy, rng: np.random.Generator, epsilon: float = 0.0
) -> Architecture:
    """One rolled-out architecture; no tape is built, since only the tree
    is kept."""
    with en.no_grad():
        return generate_episode(policy, rng, epsilon=epsilon).arch


def reinforce_loss(
    policy: Policy, episodes: Sequence[Episode], advs: Sequence[float], beta: float
) -> en.Tensor:
    """The REINFORCE loss, [1, 1]: the mean over episodes of -adv times the
    summed log-probabilities, minus ``beta`` times the summed entropies.

    The episodes must share one update window (one memo). The loss is one
    node over the policy's parameters that weights each head step's chosen
    log-probability and entropy by their gradient, (1/N) * -adv and
    -(1/N) * beta, the products a chain of scalar nodes per episode would
    form, so the bits are the same; its backward pass is
    `Policy._window_backward` of those weights."""
    memo = episodes[0].memo
    if any(e.memo is not memo for e in episodes):
        raise ValueError("episodes of one update must share one update window (memo)")
    if not all(e.rows for e in episodes):
        raise ValueError("episode was rolled out without gradients")
    steps = list(memo.hc), list(memo.enc), list(memo.levels), list(memo.head)
    values = np.array([(s[-2][0, s[3]], s[-1]) for s in memo.head])
    weights = np.zeros_like(values)
    scale = 1.0 / len(episodes)
    for e, adv in zip(episodes, advs):
        weights[e.rows, 0] += scale * -float(adv)
        if beta > 0:
            weights[e.rows, 1] += -scale * beta
    return en.Tensor((values * weights).sum().reshape(1, 1), tuple(policy.params),
                     lambda g: policy._window_backward(*steps, g * weights))


def reinforce_update(
    policy: Policy,
    episodes: Sequence[Episode],
    opt: en.Optimizer,
    entropy_weight: Optional[float] = None,
) -> bool:
    """One policy-gradient ascent step over a batch of rewarded episodes,
    with the entropy bonus weighted by ``entropy_weight`` (by default the
    config's).

    Returns the optimizer step's verdict: False when the gradients or the
    updated parameters went non-finite."""
    assert all(e.reward is not None for e in episodes)
    rewards = np.array([e.reward for e in episodes])
    if policy.cfg.normalize_advantage and len(episodes) > 1:
        advs = (rewards - rewards.mean()) / (rewards.std() + 1e-8)
    else:
        base = float(rewards.mean()) if policy.baseline is None else policy.baseline
        advs = rewards - base
    beta = policy.cfg.entropy_weight if entropy_weight is None else entropy_weight
    reinforce_loss(policy, episodes, advs, beta).backward()
    stepped = opt.step()
    # running-mean baseline over recent rewards
    d = BASELINE_DECAY
    for e in episodes:
        if policy.baseline is None:
            policy.baseline = e.reward
        else:
            policy.baseline = d * policy.baseline + (1 - d) * e.reward
    return stepped


@dataclass
class PretrainResult:
    episodes_run: int
    baseline_rate: float  # untrained full-satisfaction rate
    final_rate: float  # moving full-satisfaction rate at stop
    rate_history: list[float]


def measure_satisfaction(policy: Policy, rng: np.random.Generator, n: int = 200) -> float:
    """The share of ``n`` sampled architectures that satisfy every prior."""
    ok = 0
    with en.no_grad():
        memo = Memo()
        for _ in range(n):
            arch = generate_episode(policy, rng, epsilon=0.0, memo=memo).arch
            ok += all(prior_satisfaction(arch))
    return ok / n


PRETRAIN_BATCH = 10  # rolled-out episodes per update
PRETRAIN_WINDOW = 500  # episodes in the moving full-satisfaction rate
PRETRAIN_STOP_RATE = 0.95  # the moving rate that stops pre-training
PRETRAIN_REPLAYS = 3  # replayed episodes per update, at most
PRETRAIN_REPLAY_CAPACITY = 200  # satisfying action sequences kept for replay
PRETRAIN_ANNEAL_FRACTION = 0.6  # budget share over which the entropy bonus anneals to 0


def pretrain_priors(
    policy: Policy,
    budget: int = 15000,
    rng: Optional[np.random.Generator] = None,
) -> PretrainResult:
    """Train the policy to satisfy the structural priors.

    Episodes are generated by the policy and rewarded by the fraction of
    priors their architecture satisfies; no cell training is involved.
    Stops when the full-satisfaction rate over the last `PRETRAIN_WINDOW`
    episodes reaches `PRETRAIN_STOP_RATE`, or at ``budget`` episodes.

    The raw fraction reward is a sparse signal, so three variance-reduction
    devices are layered on top: batch advantage normalization (enabled via
    ``RLConfig.normalize_advantage``), an entropy bonus annealed linearly to
    zero over `PRETRAIN_ANNEAL_FRACTION` of the budget (starting from
    ``RLConfig.entropy_weight``), and self-imitation replay — action
    sequences of the policy's own fully satisfying episodes are kept in a
    bounded buffer, and up to `PRETRAIN_REPLAYS` of them are re-scored
    under the current policy and added to each update batch.
    """
    if rng is None:
        rng = np.random.default_rng(policy.cfg.seed + 17)
    baseline_rate = measure_satisfaction(policy, rng, n=200)
    opt = en.Optimizer(
        policy.params,
        en.OptimizerConfig(kind="adam", learning_rate=policy.cfg.learning_rate),
    )
    buffer: deque[list[OpKind]] = deque(maxlen=PRETRAIN_REPLAY_CAPACITY)
    recent: deque[bool] = deque(maxlen=PRETRAIN_WINDOW)
    history: list[float] = []
    batch: list[Episode] = []
    run = 0
    memo = Memo()  # one per update window: its episodes, replays and update
    while run < budget:
        # the annealed entropy weight; an update takes its batch's last episode's
        beta = policy.cfg.entropy_weight * max(
            0.0, 1.0 - run / (PRETRAIN_ANNEAL_FRACTION * budget)
        )
        ep = generate_episode(policy, rng, epsilon=0.0, memo=memo)
        sat = prior_satisfaction(ep.arch)
        ep.reward = sum(sat) / len(sat)
        batch.append(ep)
        recent.append(all(sat))
        if all(sat):
            buffer.append(list(ep.actions))
        run += 1
        if len(batch) >= PRETRAIN_BATCH:
            for _ in range(min(PRETRAIN_REPLAYS, len(buffer))):
                acts = buffer[int(rng.integers(len(buffer)))]
                rep = generate_episode(policy, rng, epsilon=0.0, forced_actions=acts,
                                       memo=memo)
                rep.reward = 1.0
                batch.append(rep)
            reinforce_update(policy, batch, opt, entropy_weight=beta)
            batch, memo = [], Memo()
            rate = sum(recent) / len(recent)
            history.append(rate)
            if len(recent) >= PRETRAIN_WINDOW and rate >= PRETRAIN_STOP_RATE:
                break
    final = sum(recent) / len(recent) if recent else 0.0
    return PretrainResult(run, baseline_rate, final, history)
