"""Random candidate generation with restriction filtering.

Trees grow from the output h_t downward, filling child slots left to
right; a source leaf is forced whenever the height bound would otherwise
be exceeded. Emitted candidates are canonical, admissible, deduplicated,
and expanded into one candidate per valid c_t tap.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dsl import (
    Architecture,
    ArchNode,
    CORE_OPERATORS,
    CORE_SOURCES,
    EXTENDED_OPERATORS,
    EXTENDED_SOURCES,
    OpKind,
    canonicalize,
    enumerate_ct_taps,
    render,
    structural_violations,
    subtree_uses,
)


@dataclass
class GenConfig:
    max_nodes: int = 21
    max_height: int = 8
    extended_dsl: bool = False
    operator_weights: Optional[dict[OpKind, float]] = None
    seed: int = 0
    require_sources: tuple[OpKind, ...] = (OpKind.X, OpKind.HM1)
    allow_cm1: bool = True

    def __post_init__(self) -> None:
        for name in ("max_nodes", "max_height"):
            if getattr(self, name) < 1:
                raise ValueError(f"GenConfig.{name} must be >= 1, got {getattr(self, name)}")

    def operators(self) -> list[OpKind]:
        return list(EXTENDED_OPERATORS if self.extended_dsl else CORE_OPERATORS)

    def sources(self) -> list[OpKind]:
        srcs = list(EXTENDED_SOURCES if self.extended_dsl else CORE_SOURCES)
        if not self.allow_cm1:
            srcs.remove(OpKind.CM1)
        return srcs


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


def _weights_for(cfg: GenConfig, kinds: list[OpKind]) -> np.ndarray:
    table = cfg.operator_weights or {}
    w = np.array([max(0.0, table.get(k, 1.0)) for k in kinds])
    if w.sum() <= 0:
        raise ValueError("no positive weight among allowed choices")
    return w / w.sum()


_DrawTable = tuple[list[float], list[OpKind], list[int], list[Optional[ArchNode]]]


def _draw_table(cfg: GenConfig, kinds: list[OpKind]) -> _DrawTable:
    """Cumulative weights, kinds, arities and one shared leaf node per
    source (None for an operator), indexed by draw position; built once
    per batch so that a draw does no enum lookups."""
    return (
        list(np.cumsum(_weights_for(cfg, kinds))),
        kinds,
        [k.arity for k in kinds],
        [ArchNode(k) if k.is_source else None for k in kinds],
    )


def _draw_tables(cfg: GenConfig) -> tuple[_DrawTable, _DrawTable]:
    """(every kind, sources only): the choices above and at the height bound."""
    srcs = cfg.sources()
    return _draw_table(cfg, cfg.operators() + srcs), _draw_table(cfg, srcs)


def _grow_raw(
    cfg: GenConfig,
    rng: np.random.Generator,
    every: _DrawTable,
    sources: _DrawTable,
) -> ArchNode:
    # inverse-CDF sampling over precomputed cumulative weights, one
    # rng.random() per node in preorder; children are drawn left to right
    random = rng.random
    bisect_left = bisect.bisect_left
    max_height = cfg.max_height

    def draw(depth: int) -> ArchNode:
        cum, kinds, arities, leaves = sources if depth >= max_height else every
        idx = bisect_left(cum, random())
        if idx >= len(kinds):
            idx = len(kinds) - 1
        arity = arities[idx]
        if arity == 0:
            return leaves[idx]
        depth += 1
        return ArchNode(kinds[idx], tuple([draw(depth) for _ in range(arity)]))

    return draw(0)


def check_restrictions(arch: Architecture, cfg: GenConfig) -> RestrictionReport:
    flags = structural_violations(
        arch,
        max_nodes=cfg.max_nodes,
        max_height=cfg.max_height,
        require_sources=cfg.require_sources,
    )
    return RestrictionReport(tuple(flags))


def expand_ct_variants(arch: Architecture) -> list[Architecture]:
    """One candidate per valid c_t tap; [arch] when c_tm1 is unused."""
    if not subtree_uses(arch.root, OpKind.CM1):
        return [arch]
    return enumerate_ct_taps(arch)


RAW_DRAWS_PER_CANDIDATE = 100


def generate_batch(
    cfg: GenConfig,
    n: int,
    seen: Optional[set[str]] = None,
    rng: Optional[np.random.Generator] = None,
) -> list[Architecture]:
    """Collect up to n admissible, c_t-expanded, deduplicated candidates
    from at most RAW_DRAWS_PER_CANDIDATE * n raw trees."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    seen = set(seen or ())
    out: list[Architecture] = []
    budget = RAW_DRAWS_PER_CANDIDATE * n
    every, sources = _draw_tables(cfg)
    while len(out) < n and budget > 0:
        budget -= 1
        # restriction flags are invariant under canonicalization, so the
        # (frequently rejected) raw tree is checked before the more
        # expensive canonical pass
        raw = Architecture(_grow_raw(cfg, rng, every, sources))
        if not check_restrictions(raw, cfg).admissible:
            continue
        cand = canonicalize(raw)
        for variant in expand_ct_variants(cand):
            # variants are already canonical: hash the render directly
            vid = hashlib.sha1(render(variant).encode()).hexdigest()[:12]
            if vid in seen:
                continue
            seen.add(vid)
            out.append(variant)
            if len(out) >= n:
                break
    return out
