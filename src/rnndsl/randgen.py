"""Random candidate generation with restriction filtering.

Trees grow from the output h_t downward, filling child slots left to
right; a source leaf is forced whenever the height bound would otherwise
be exceeded. The restriction rules are checked while a tree is drawn, a
tree is abandoned at its first violation, and only a tree that passes
them is built. Emitted candidates are canonical, admissible,
deduplicated, and expanded into one candidate per valid c_t tap.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional

import numpy as np

from .dsl import (
    Architecture,
    OpKind,
    canonicalize,
    enumerate_ct_taps,
    from_preorder,
    render,
    structural_violations,
    subtree_uses,
    vocabulary,
)


@dataclass
class GenConfig:
    max_nodes: int = 21
    max_height: int = 8
    extended_dsl: bool = False
    seed: int = 0
    allow_cm1: bool = True

    def __post_init__(self) -> None:
        for name in ("max_nodes", "max_height"):
            if getattr(self, name) < 1:
                raise ValueError(f"GenConfig.{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class RestrictionReport:
    violations: tuple[str, ...]

    @property
    def admissible(self) -> bool:
        return not self.violations


def arch_id(arch: Architecture) -> str:
    """Stable identifier: hash of the canonical render."""
    text = render(canonicalize(arch))
    return hashlib.sha1(text.encode()).hexdigest()[:12]


# one table per depth: cumulative weights, the last index, and per index
# the kind, its one-hot bit and its children's (depth, banned bits) slots,
# last child first
_Level = tuple[list[float], int, list[OpKind], list[int], list[tuple[tuple[int, int], ...]]]
# the levels and max_nodes
_DrawPlan = tuple[list[_Level], int]

_BIT = {k: 1 << i for i, k in enumerate(OpKind)}
# every cell reads x_t and h_tm1 (missing_x, missing_h); a lone source leaf
# at the root reads at most one of them, so it fails here too (bare_source)
_REQUIRED_BITS = _BIT[OpKind.X] | _BIT[OpKind.HM1]


def _child_slots(op: OpKind, depth: int) -> tuple[tuple[int, int], ...]:
    """The slots of ``op``'s children, pushed last first. A child may not
    repeat its parent's operator (stacked_identical), and Gate3's third
    child must be a Sigmoid (gate_not_sigmoid)."""
    slots = [(depth, _BIT[op]) for _ in range(op.arity)]
    if op is OpKind.GATE3:
        slots[2] = (depth, ~_BIT[OpKind.SIGMOID])
    return tuple(reversed(slots))


def _draw_plan(cfg: GenConfig) -> _DrawPlan:
    """Draw tables built once per batch, so that a draw does no enum
    lookups: every kind above the height bound, sources only at it, each
    drawn with equal probability. No operator is drawn at depth >=
    max_height, so the height rule holds by construction."""
    ops, srcs = vocabulary(cfg.extended_dsl, cfg.allow_cm1)
    tables = ops + srcs, srcs
    levels = []
    for depth in range(max(cfg.max_height, 0) + 1):
        kinds = tables[depth >= cfg.max_height]
        levels.append((
            list(np.cumsum(np.ones(len(kinds)) / len(kinds))),
            len(kinds) - 1,
            kinds,
            [_BIT[k] for k in kinds],
            [_child_slots(k, depth + 1) for k in kinds],
        ))
    return levels, cfg.max_nodes


def _draw_raw(plan: _DrawPlan, uniform: Callable[[], float]) -> tuple[list[OpKind], bool]:
    """Draw one raw trial: the kinds it drew in preorder, and whether they
    make a tree that passes the restriction rules.

    Inverse-CDF sampling over precomputed cumulative weights, one
    ``uniform()`` per node in preorder, children left to right. The rules
    are checked as each node is drawn: its slot's banned kinds and the
    operator count. The trial stops at its first violation, so a failing
    trial's kinds are a prefix of its tree; a whole tree is then checked
    for the required sources. The verdict is `check_restrictions`'s."""
    levels, max_nodes = plan
    bisect_left = bisect.bisect_left
    drawn: list[OpKind] = []
    append = drawn.append
    stack = [(0, 0)]
    pop = stack.pop
    ops = 0
    leaves = 0
    while stack:
        depth, banned = pop()
        cum, last, kinds, bits, slots = levels[depth]
        i = bisect_left(cum, uniform())
        if i > last:
            i = last
        append(kinds[i])
        bit = bits[i]
        if bit & banned:
            return drawn, False
        kids = slots[i]
        if kids:
            ops += 1
            if ops > max_nodes:
                return drawn, False
            stack += kids
        else:
            leaves |= bit
    return drawn, (leaves & _REQUIRED_BITS) == _REQUIRED_BITS


def check_restrictions(arch: Architecture, cfg: GenConfig) -> RestrictionReport:
    flags = structural_violations(arch, max_nodes=cfg.max_nodes, max_height=cfg.max_height)
    return RestrictionReport(tuple(flags))


def expand_ct_variants(arch: Architecture) -> list[Architecture]:
    """One candidate per valid c_t tap; [arch] when c_tm1 is unused."""
    if not subtree_uses(arch.root, OpKind.CM1):
        return [arch]
    return enumerate_ct_taps(arch)


RAW_DRAWS_PER_CANDIDATE = 100
UNIFORMS_PER_BLOCK = 1024


def generate_batch(
    cfg: GenConfig,
    n: int,
    seen: Optional[set[str]] = None,
    rng: Optional[np.random.Generator] = None,
) -> list[Architecture]:
    """Collect up to n admissible, c_t-expanded, deduplicated candidates
    from at most RAW_DRAWS_PER_CANDIDATE * n raw trials.

    The trials are i.i.d. and each stops at its first violation
    (`_draw_raw`). Their uniforms are taken from blocks of
    ``rng.random(UNIFORMS_PER_BLOCK)``; on return the generator is put
    back and advanced by the uniforms used, so it ends where one
    ``rng.random()`` per drawn node would leave it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    seen = set(seen or ())
    out: list[Architecture] = []
    budget = RAW_DRAWS_PER_CANDIDATE * n
    plan = _draw_plan(cfg)
    start = rng.bit_generator.state
    uniform = chain.from_iterable(
        iter(lambda: rng.random(UNIFORMS_PER_BLOCK).tolist(), None)).__next__
    used = 0
    while len(out) < n and budget > 0:
        budget -= 1
        # restriction flags are invariant under canonicalization, so the
        # draw's verdict on the raw tree admits the canonical one
        drawn, passed = _draw_raw(plan, uniform)
        used += len(drawn)
        if not passed:
            continue
        cand = canonicalize(Architecture(from_preorder(drawn)))
        for variant in expand_ct_variants(cand):
            vid = arch_id(variant)
            if vid in seen:
                continue
            seen.add(vid)
            out.append(variant)
            if len(out) >= n:
                break
    # the blocks drew past the last uniform used; rng.random(k) advances
    # any bit generator as k calls of rng.random() do, so redrawing `used`
    # doubles from the start state lands exactly there
    rng.bit_generator.state = start
    while used:
        k = min(used, UNIFORMS_PER_BLOCK)
        rng.random(k)
        used -= k
    return out
