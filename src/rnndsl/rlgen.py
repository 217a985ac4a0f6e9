"""Incremental architecture construction with a REINFORCE-trained policy.

A partial tree with empty slots is encoded bottom-up by a shared LSTM
(state reset between nodes); the leftmost empty slot carries a target
token. An action head (linear, ReLU, LSTM carried across the steps of an
episode, linear, softmax) scores the next operator or source, sampled
with a multinomial under an epsilon-greedy scheme.
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
    CORE_OPERATORS,
    CORE_SOURCES,
    EXTENDED_OPERATORS,
    EXTENDED_SOURCES,
    OpKind,
    canonicalize,  # noqa: F401  (the benchmark tracer wraps rlgen.canonicalize)
    tree_height,
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
    baseline_decay: float = 0.9
    use_baseline: bool = True
    normalize_advantage: bool = False
    entropy_weight: float = 0.0
    seed: int = 0

    def action_space(self) -> list[OpKind]:
        ops = list(EXTENDED_OPERATORS if self.extended_dsl else CORE_OPERATORS)
        srcs = list(EXTENDED_SOURCES if self.extended_dsl else CORE_SOURCES)
        if not self.allow_cm1:
            srcs.remove(OpKind.CM1)
        return ops + srcs


@dataclass
class RewardConfig:
    a: float = 0.2
    base_offset: float = 140.0
    exp_base: float = 4.0
    exp_scale: float = 0.3815
    exp_shift: float = 50.0
    # affine map from task loss into the formula's input range
    rescale_gain: float = 111.0
    rescale_bias: float = -2.2
    failure_reward: float = 0.0


def reward(cfg: RewardConfig, loss: Optional[float], status: str = "ok") -> float:
    """Soft-exponential reward; failures get the flat failure reward."""
    if status != "ok" or loss is None or not math.isfinite(loss):
        return cfg.failure_reward
    rescaled = cfg.rescale_gain * loss + cfg.rescale_bias
    x = cfg.base_offset - rescaled
    return cfg.a * x + cfg.exp_base ** (cfg.exp_scale * x - cfg.exp_shift)


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------

def _depth_nodes(root: ArchNode) -> int:
    """Operator nodes on the longest root-to-leaf path."""
    return tree_height(root) + 1 if not root.op.is_source else 0


def prior_depth(arch: Architecture, lo: int = 3, hi: int = 11) -> bool:
    return lo <= _depth_nodes(arch.root) <= hi


def prior_components(arch: Architecture) -> bool:
    ops = [n.op for n in arch.root.walk()]
    return (
        OpKind.X in ops
        and OpKind.HM1 in ops
        and OpKind.MM in ops
        and any(o.is_activation for o in ops)
    )


def prior_no_repeated_child(arch: Architecture) -> bool:
    return all(
        c.op is not n.op
        for n in arch.root.walk()
        if not n.op.is_source
        for c in n.children
    )


def prior_no_stacked_activation(arch: Architecture) -> bool:
    return all(
        not (n.op.is_activation and c.op.is_activation)
        for n in arch.root.walk()
        for c in n.children
    )


def prior_gate_inputs_distinct(arch: Architecture) -> bool:
    from .dsl import render_node

    for n in arch.root.walk():
        if n.op is OpKind.GATE3:
            r = [render_node(c) for c in n.children]
            if len(set(r)) != 3:
                return False
    return True


def prior_mm_on_source(arch: Architecture) -> bool:
    return all(
        n.children[0].op.is_source
        for n in arch.root.walk()
        if n.op is OpKind.MM
    )


PRIORS = (
    prior_depth,
    prior_components,
    prior_no_repeated_child,
    prior_no_stacked_activation,
    prior_gate_inputs_distinct,
    prior_mm_on_source,
)


def prior_satisfaction(arch: Architecture) -> list[bool]:
    return [p(arch) for p in PRIORS]


# ---------------------------------------------------------------------------
# partial trees
# ---------------------------------------------------------------------------

class PartialNode:
    __slots__ = ("op", "children", "parent")

    def __init__(self, op: Optional[OpKind] = None, parent: Optional["PartialNode"] = None):
        self.op = op
        self.children: list[PartialNode] = []
        self.parent = parent

    def to_arch_node(self) -> ArchNode:
        assert self.op is not None
        return ArchNode(self.op, tuple(c.to_arch_node() for c in self.children))


@dataclass
class PartialArch:
    root: PartialNode
    open_slots: list[tuple[PartialNode, int]]  # leftmost-first (node, depth)
    operator_count: int = 0  # filled slots holding an operator

    @classmethod
    def empty(cls) -> "PartialArch":
        root = PartialNode()
        return cls(root=root, open_slots=[(root, 0)])

    @property
    def complete(self) -> bool:
        return not self.open_slots

    @property
    def target(self) -> Optional[PartialNode]:
        return self.open_slots[0][0] if self.open_slots else None

    @property
    def target_depth(self) -> int:
        return self.open_slots[0][1]

    def fill(self, kind: OpKind) -> PartialNode:
        node, depth = self.open_slots.pop(0)
        node.op = kind
        kids = [PartialNode(parent=node) for _ in range(kind.arity)]
        node.children = kids
        self.open_slots[:0] = [(k, depth + 1) for k in kids]
        self.operator_count += not kind.is_source
        return node

    def to_architecture(self) -> Architecture:
        if not self.complete:
            raise ValueError("partial tree still has empty slots")
        return Architecture(self.root.to_arch_node())


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------

class Policy:
    def __init__(self, cfg: Optional[RLConfig] = None):
        self.cfg = cfg or RLConfig()
        w = self.cfg.width
        rng = np.random.default_rng(self.cfg.seed)
        self.actions = self.cfg.action_space()
        self._sources = np.array([a.is_source for a in self.actions])
        self._operators = ~self._sources
        self.params: list[en.Parameter] = []

        def par(name, shape, zero=False):
            data = (
                np.zeros(shape)
                if zero
                else en.init_mm_weight(rng, shape[0], shape[1])
                if len(shape) == 2
                else rng.uniform(-0.1, 0.1, size=shape)
            )
            p = en.Parameter(data, name)
            self.params.append(p)
            return p

        tokens = [k.value for k in OpKind] + [EMPTY_TOKEN, TARGET_TOKEN]
        self.tok_emb = {t: par(f"tok_{t}", (1, w)) for t in tokens}
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
        self.baseline = 0.0
        self._baseline_seen = False

    # -- encoder -----------------------------------------------------------

    def _lstm(self, gates, x, hc):
        """One packed-state LSTM step; returns [1, 2w] hidden|cell."""
        return en.lstm_cell(x, hc, gates["W"], gates["U"], gates["b"])

    def _zero(self) -> en.Tensor:
        return en.Tensor(np.zeros((1, self.cfg.width)))

    def _packed_zero(self) -> en.Tensor:
        return en.Tensor(np.zeros((1, 2 * self.cfg.width)))

    def _node_token(self, node: PartialNode, target: Optional[PartialNode]) -> str:
        if node.op is not None:
            return node.op.value
        return TARGET_TOKEN if node is target else EMPTY_TOKEN

    def _memo_step(self, memo: dict, key, x: en.Tensor, hc: en.Tensor) -> tuple:
        """One encoder step, memoized by the key of its prefix: returns the
        step's interned key, its packed state and its hidden state."""
        entry = memo.get(key)
        if entry is None:
            hc = self._lstm(self.enc, x, hc)
            entry = memo[key] = (len(memo), hc, en.slice_last(hc, 0, self.cfg.width))
        return entry

    def _node_state(
        self, node: PartialNode, target: Optional[PartialNode], cache: dict, memo: dict
    ) -> tuple[int, en.Tensor]:
        """A node's key and state: the shared LSTM over [token, child states],
        state reset per node. The state after the token and the first j
        children depends only on the token, those children's keys and the
        parameters, so ``memo`` holds it by (token) or (key of the previous
        prefix, key of child j), across episodes when the caller shares it.
        ``cache`` holds each node's (key, state) by ``id`` until the episode
        invalidates the node."""
        if id(node) in cache:
            return cache[id(node)]
        token = self._node_token(node, target)
        key, hc, h = self._memo_step(memo, token, self.tok_emb[token], self._packed_zero())
        for child in node.children:
            child_key, child_h = self._node_state(child, target, cache, memo)
            key, hc, h = self._memo_step(memo, (key, child_key), child_h, hc)
        cache[id(node)] = key, h
        return key, h

    def encode_partial(
        self, p: PartialArch, cache: Optional[dict] = None, memo: Optional[dict] = None
    ) -> en.Tensor:
        if not p.complete and p.target is None:
            raise ValueError("partial tree without a target slot")
        return self._node_state(
            p.root, p.target, {} if cache is None else cache, {} if memo is None else memo
        )[1]

    # -- action selection --------------------------------------------------

    def legal_actions(self, p: PartialArch) -> np.ndarray:
        """Boolean mask over the action space for the current target."""
        depth = p.target_depth
        operators_ok = depth < self.cfg.max_depth and p.operator_count < self.cfg.max_nodes
        # h_t itself must be an operator
        return (self._operators & operators_ok) | (self._sources & (depth > 0))

    def action_logprobs(
        self,
        p: PartialArch,
        head_state: tuple[en.Tensor, en.Tensor],
        cache: Optional[dict] = None,
        memo: Optional[dict] = None,
    ) -> tuple[en.Tensor, tuple[en.Tensor, en.Tensor], np.ndarray]:
        enc = self.encode_partial(p, cache, memo)
        x = en.relu(en.add(en.linear(enc, self.lin1_w), self.lin1_b))
        w = self.cfg.width
        hc = self._lstm(self.head, x, en.concat(list(head_state)))
        h = en.slice_last(hc, 0, w)
        c = en.slice_last(hc, w, 2 * w)
        scores = en.add(en.linear(h, self.lin2_w), self.lin2_b)
        mask = self.legal_actions(p)
        masked = en.add(scores, en.Tensor(np.where(mask, 0.0, -1e9)[None, :]))
        logp = en.log_softmax(masked)
        return logp, (h, c), mask

    def next_action(
        self,
        p: PartialArch,
        head_state: tuple[en.Tensor, en.Tensor],
        epsilon: float,
        rng: np.random.Generator,
        forced: Optional[OpKind] = None,
        cache: Optional[dict] = None,
        memo: Optional[dict] = None,
    ) -> tuple[OpKind, en.Tensor, en.Tensor, tuple[en.Tensor, en.Tensor]]:
        logp, new_state, mask = self.action_logprobs(p, head_state, cache, memo)
        if forced is not None:
            idx = self.actions.index(forced)
            if not mask[idx]:
                raise ValueError(f"forced action {forced} is illegal here")
        elif epsilon > 0 and rng.random() < epsilon:
            legal = np.flatnonzero(mask)
            idx = int(legal[rng.integers(len(legal))])
        else:
            probs = np.exp(logp.data[0])
            probs = probs / probs.sum()
            idx = int(rng.choice(len(probs), p=probs))
        chosen_logp = en.slice_last(logp, idx, idx + 1)
        if self.cfg.entropy_weight > 0:
            # differentiable entropy of the masked distribution; exp(-1e9)
            # underflows to exactly zero, so illegal entries contribute nothing
            entropy = en.mul(en.tsum(en.mul(en.exp(logp), logp)), en.Tensor(-1.0))
        else:
            # the bonus is off: a graph-free constant keeps updates cheap
            entropy = en.Tensor(0.0)
        return self.actions[idx], chosen_logp, entropy, new_state


@dataclass
class Episode:
    arch: Architecture
    actions: list[OpKind]
    logps: list[en.Tensor]
    entropies: list[en.Tensor]
    reward: Optional[float] = None

    def logp_sum(self) -> en.Tensor:
        total = self.logps[0]
        for l in self.logps[1:]:
            total = en.add(total, l)
        return total

    def entropy_sum(self) -> en.Tensor:
        total = self.entropies[0]
        for e in self.entropies[1:]:
            total = en.add(total, e)
        return total


def generate_episode(
    policy: Policy,
    rng: np.random.Generator,
    epsilon: Optional[float] = None,
    forced_actions: Optional[Sequence[OpKind]] = None,
    memo: Optional[dict] = None,
) -> Episode:
    """Roll out one architecture; with forced_actions, re-score a tree.

    ``memo`` holds the encoder's states by value (``Policy._node_state``);
    ``None`` means a fresh memo for this episode. Episodes that share a memo
    share tape nodes, so a memo serves one parameter version in one grad
    mode: it must not outlive a parameter change or a change of grad mode.
    """
    eps = policy.cfg.epsilon if epsilon is None else epsilon
    p = PartialArch.empty()
    head_state = (policy._zero(), policy._zero())
    actions: list[OpKind] = []
    logps: list[en.Tensor] = []
    entropies: list[en.Tensor] = []
    cache: dict[int, tuple[int, en.Tensor]] = {}
    memo = {} if memo is None else memo

    def invalidate(node: Optional[PartialNode]) -> None:
        while node is not None:
            cache.pop(id(node), None)
            node = node.parent

    i = 0
    while not p.complete:
        forced = forced_actions[i] if forced_actions is not None else None
        act, logp, ent, head_state = policy.next_action(
            p, head_state, eps, rng, forced, cache, memo
        )
        filled = p.fill(act)
        invalidate(filled)  # its token changed from target to the operator
        invalidate(p.target)  # the next slot's token changed to target
        actions.append(act)
        logps.append(logp)
        entropies.append(ent)
        i += 1
    return Episode(
        arch=p.to_architecture(), actions=actions, logps=logps, entropies=entropies
    )


def sample_architecture(
    policy: Policy, rng: np.random.Generator, epsilon: float = 0.0
) -> Architecture:
    """One rolled-out architecture; no tape is built, since only the tree
    is kept."""
    with en.no_grad():
        return generate_episode(policy, rng, epsilon=epsilon).arch


def reinforce_update(
    policy: Policy,
    episodes: Sequence[Episode],
    opt: en.Optimizer,
) -> bool:
    """One policy-gradient ascent step over a batch of rewarded episodes.

    Returns False (batch skipped) when gradients went non-finite."""
    assert all(e.reward is not None for e in episodes)
    rewards = np.array([e.reward for e in episodes])
    if policy.cfg.normalize_advantage and len(episodes) > 1:
        advs = (rewards - rewards.mean()) / (rewards.std() + 1e-8)
    elif policy.cfg.use_baseline:
        base = policy.baseline if policy._baseline_seen else float(rewards.mean())
        advs = rewards - base
    else:
        advs = rewards
    beta = policy.cfg.entropy_weight
    total = None
    for e, adv in zip(episodes, advs):
        term = en.mul(e.logp_sum(), en.Tensor(-float(adv)))
        if beta > 0:
            term = en.sub(term, en.mul(e.entropy_sum(), en.Tensor(beta)))
        total = term if total is None else en.add(total, term)
    loss = en.mul(en.tsum(total), en.Tensor(1.0 / len(episodes)))
    loss.backward()
    finite = all(
        p.grad is None or np.all(np.isfinite(p.grad)) for p in policy.params
    )
    if finite:
        opt.step()
    else:
        opt.zero_grad()
    # running-mean baseline over recent rewards
    d = policy.cfg.baseline_decay
    for e in episodes:
        if policy._baseline_seen:
            policy.baseline = d * policy.baseline + (1 - d) * e.reward
        else:
            policy.baseline = e.reward
            policy._baseline_seen = True
    return finite


@dataclass
class PretrainResult:
    episodes_run: int
    baseline_rate: float  # untrained full-satisfaction rate
    final_rate: float  # moving full-satisfaction rate at stop
    rate_history: list[float]


def measure_satisfaction(
    policy: Policy, rng: np.random.Generator, n: int = 200, epsilon: float = 0.0
) -> float:
    ok = 0
    memo: dict = {}
    with en.no_grad():
        for _ in range(n):
            arch = generate_episode(policy, rng, epsilon=epsilon, memo=memo).arch
            ok += all(prior_satisfaction(arch))
    return ok / n


def pretrain_priors(
    policy: Policy,
    budget: int = 15000,
    batch_size: int = 10,
    window: int = 500,
    stop_rate: float = 0.95,
    n_replay: int = 3,
    replay_capacity: int = 200,
    anneal_fraction: float = 0.6,
    rng: Optional[np.random.Generator] = None,
) -> PretrainResult:
    """Train the policy to satisfy the structural priors.

    Episodes are generated by the policy and rewarded by the fraction of
    priors their architecture satisfies; no cell training is involved.
    Stops when the full-satisfaction rate over the last ``window`` episodes
    reaches ``stop_rate``, or at ``budget`` episodes.

    The raw fraction reward is a sparse signal, so three variance-reduction
    devices are layered on top: batch advantage normalization (enabled via
    ``RLConfig.normalize_advantage``), an entropy bonus annealed linearly to
    zero over ``anneal_fraction`` of the budget (starting from
    ``RLConfig.entropy_weight``), and self-imitation replay — action
    sequences of the policy's own fully satisfying episodes are kept in a
    bounded buffer, and up to ``n_replay`` of them are re-scored under the
    current policy and added to each update batch.
    """
    if rng is None:
        rng = np.random.default_rng(policy.cfg.seed + 17)
    baseline_rate = measure_satisfaction(policy, rng, n=200)
    opt = en.Optimizer(
        policy.params,
        en.OptimizerConfig(kind="adam", learning_rate=policy.cfg.learning_rate),
    )
    buffer: list[list[int]] = []
    recent: list[bool] = []
    history: list[float] = []
    batch: list[Episode] = []
    run = 0
    base_entropy = policy.cfg.entropy_weight
    memo: dict = {}  # one per update window: its episodes, replays and update
    try:
        while run < budget:
            policy.cfg.entropy_weight = base_entropy * max(
                0.0, 1.0 - run / (anneal_fraction * budget)
            )
            ep = generate_episode(policy, rng, epsilon=0.0, memo=memo)
            sat = prior_satisfaction(ep.arch)
            ep.reward = sum(sat) / len(sat)
            batch.append(ep)
            recent.append(all(sat))
            if len(recent) > window:
                recent.pop(0)
            if all(sat):
                buffer.append(list(ep.actions))
                if len(buffer) > replay_capacity:
                    buffer.pop(0)
            run += 1
            if len(batch) >= batch_size:
                for _ in range(min(n_replay, len(buffer))):
                    acts = buffer[int(rng.integers(len(buffer)))]
                    rep = generate_episode(
                        policy, rng, epsilon=0.0, forced_actions=acts, memo=memo
                    )
                    rep.reward = 1.0
                    batch.append(rep)
                reinforce_update(policy, batch, opt)
                batch, memo = [], {}
                rate = sum(recent) / len(recent)
                history.append(rate)
                if len(recent) >= window and rate >= stop_rate:
                    break
    finally:
        policy.cfg.entropy_weight = base_entropy
    final = sum(recent) / len(recent) if recent else 0.0
    return PretrainResult(run, baseline_rate, final, history)
