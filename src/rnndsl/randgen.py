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


def _cumulative(cfg: GenConfig, kinds: list[OpKind]) -> list[float]:
    return list(np.cumsum(_weights_for(cfg, kinds)))


def _grow_raw(
    cfg: GenConfig,
    rng: np.random.Generator,
    all_kinds: list[OpKind],
    cum_all: list[float],
    srcs: list[OpKind],
    cum_src: list[float],
) -> ArchNode:
    # inverse-CDF sampling over precomputed cumulative weights; far
    # cheaper per node than building a probability vector every draw
    def draw(depth: int) -> ArchNode:
        if depth >= cfg.max_height:
            kinds, cum = srcs, cum_src
        else:
            kinds, cum = all_kinds, cum_all
        idx = min(bisect.bisect_left(cum, rng.random()), len(kinds) - 1)
        kind = kinds[idx]
        children = tuple(draw(depth + 1) for _ in range(kind.arity))
        return ArchNode(kind, children)

    return draw(0)


def grow_random(cfg: GenConfig, rng: Optional[np.random.Generator] = None) -> Architecture:
    """Draw one tree root-first; result is canonical but unfiltered."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    ops = cfg.operators()
    srcs = cfg.sources()
    all_kinds = ops + srcs
    root = _grow_raw(
        cfg, rng, all_kinds, _cumulative(cfg, all_kinds), srcs, _cumulative(cfg, srcs)
    )
    return canonicalize(Architecture(root))


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


def generate_batch(
    cfg: GenConfig,
    n: int,
    seen: Optional[set[str]] = None,
    rng: Optional[np.random.Generator] = None,
) -> list[Architecture]:
    """Collect up to n admissible, c_t-expanded, deduplicated candidates."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    seen = set(seen or ())
    out: list[Architecture] = []
    budget = 100 * n
    ops = cfg.operators()
    srcs = cfg.sources()
    all_kinds = ops + srcs
    cum_all = _cumulative(cfg, all_kinds)
    cum_src = _cumulative(cfg, srcs)
    while len(out) < n and budget > 0:
        budget -= 1
        # restriction flags are invariant under canonicalization, so the
        # (frequently rejected) raw tree is checked before the more
        # expensive canonical pass
        raw = Architecture(
            _grow_raw(cfg, rng, all_kinds, cum_all, srcs, cum_src)
        )
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
