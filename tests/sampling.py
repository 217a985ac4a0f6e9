"""The reference sampler and a distribution-equivalence harness.

The reference sampler is the generator as it was before raw trials
stopped at their first violation: every raw tree is drawn to its end, one
``rng.random()`` per node, whether or not it passes. Tests that use the
generator only as a source of random trees draw from it, so that their
pins do not depend on the generator's stream.

The harness compares the admitted trees of two samplers: one outcome per
admitted raw trial (before dedup and c_t expansion), summarised per
operator as the count of that operator in the tree (0, 1, 2, 3+). Each
operator's 2 x 4 table goes to `scipy.stats.chi2_contingency`, and the
smallest p-value is Bonferroni-corrected over the operators. Outcomes per
node or per c_t variant would not be independent.

Run as a script to repeat the null and power runs:

    PYTHONPATH=src python tests/sampling.py --pairs 20 --seeds 10
"""

import argparse
import bisect
import hashlib
import time
from contextlib import contextmanager

import numpy as np

from rnndsl import randgen
from rnndsl.dsl import Architecture, OpKind, from_preorder, render, vocabulary
from rnndsl.randgen import GenConfig, check_restrictions, expand_ct_variants


def reference_draw(plan, rng):
    """One raw tree drawn to its end: its kinds in preorder, and whether it
    passes the restriction rules. A tree that fails is still drawn whole,
    unchecked after its first violation."""
    levels, max_nodes = plan
    required = randgen._REQUIRED_BITS
    random = rng.random
    drawn = []
    stack = [(0, 0)]
    ops = 0
    leaves = 0
    while stack:
        depth, banned = stack.pop()
        cum, last, kinds, bits, slots = levels[depth]
        i = min(bisect.bisect_left(cum, random()), last)
        drawn.append(kinds[i])
        bit = bits[i]
        stack += slots[i]
        if slots[i]:
            ops += 1
        else:
            leaves |= bit
        if bit & banned or ops > max_nodes:
            break
    else:
        return drawn, (leaves & required) == required
    while stack:
        cum, last, kinds, _, slots = levels[stack.pop()[0]]
        i = min(bisect.bisect_left(cum, random()), last)
        drawn.append(kinds[i])
        stack += slots[i]
    return drawn, False


def reference_batch(cfg, n, rng):
    """`randgen.generate_batch` with every raw tree drawn to its end."""
    seen, out = set(), []
    budget = randgen.RAW_DRAWS_PER_CANDIDATE * n
    plan = randgen._draw_plan(cfg)
    while len(out) < n and budget > 0:
        budget -= 1
        drawn, passed = reference_draw(plan, rng)
        if not passed:
            continue
        raw = Architecture(from_preorder(drawn))
        if not check_restrictions(raw, cfg).admissible:
            continue
        for variant in expand_ct_variants(randgen.canonicalize(raw)):
            vid = hashlib.sha1(render(variant).encode()).hexdigest()[:12]
            if vid in seen:
                continue
            seen.add(vid)
            out.append(variant)
            if len(out) >= n:
                break
    return out


def reference_architectures(n, seed=0, **cfg_overrides):
    """`conftest.random_architectures` drawn by the reference sampler."""
    cfg = GenConfig(seed=seed, **cfg_overrides)
    return reference_batch(cfg, n, rng=np.random.default_rng(seed))


@contextmanager
def recording_admitted():
    """Collect each raw tree a batch admits, as `randgen.canonicalize`
    receives it: one per admitted trial, before dedup and c_t expansion."""
    trees = []
    canonicalize = randgen.canonicalize

    def record(arch):
        trees.append(arch)
        return canonicalize(arch)

    randgen.canonicalize = record
    try:
        yield trees
    finally:
        randgen.canonicalize = canonicalize


def admitted_trees(batch, cfg, n, seed):
    """The first n trees admitted by ``batch(cfg, n, rng=...)``. With
    ``cfg.allow_cm1`` off, each admitted tree adds at most one candidate,
    so a batch of n admits at least n trees unless its budget runs out."""
    assert not cfg.allow_cm1
    with recording_admitted() as trees:
        batch(cfg, n, rng=np.random.default_rng(seed))
    assert len(trees) >= n, f"{len(trees)} admitted trees for {n}"
    return trees[:n]


def count_table(trees, ops):
    """Per operator, each tree's count of it bucketed 0, 1, 2, 3+:
    an array [operator, bucket] of tree counts."""
    index = {op: k for k, op in enumerate(ops)}
    table = np.zeros((len(ops), 4), dtype=np.int64)
    for arch in trees:
        counts = [0] * len(ops)
        for node in arch.root.walk():
            k = index.get(node.op)
            if k is not None:
                counts[k] += 1
        for k, c in enumerate(counts):
            table[k, min(c, 3)] += 1
    return table


def pooled(table, least=5.0):
    """A [2, k] table with its rarest column merged into a neighbour, the
    smaller one, until every expected count is at least ``least``."""
    cols = list(table.T)
    scale = table.sum(axis=1).min() / table.sum()
    while len(cols) > 1:
        j = min(range(len(cols)), key=lambda j: cols[j].sum())
        if cols[j].sum() * scale >= least:
            break
        if j == len(cols) - 1 or (j > 0 and cols[j - 1].sum() < cols[j + 1].sum()):
            k = j - 1
        else:
            k = j + 1
        cols[k] = cols[k] + cols[j]
        del cols[j]
    return np.array(cols).T


def compare(ref_trees, cand_trees, ops):
    """The Bonferroni-corrected p-value that the two samples of trees share
    their per-operator count distributions."""
    from scipy.stats import chi2_contingency

    ref, cand = count_table(ref_trees, ops), count_table(cand_trees, ops)
    ps = [1.0]
    for k in range(len(ops)):
        table = pooled(np.array([ref[k], cand[k]]))
        if table.shape[1] > 1:
            ps.append(float(chi2_contingency(table).pvalue))
    return min(1.0, min(ps) * len(ops))


HARNESS_CFG = GenConfig(allow_cm1=False)
HARNESS_TREES = 5000


def planted(batch, factor, op=OpKind.MM):
    """``batch`` drawing one operator with ``factor`` times the weight of
    each other kind, wherever it may be drawn: its draw plan's cumulative
    weights are replaced for the call."""
    draw_plan = randgen._draw_plan

    def biased_plan(cfg):
        levels, max_nodes = draw_plan(cfg)
        biased = []
        for _, last, kinds, bits, slots in levels:
            w = np.array([factor if k is op else 1.0 for k in kinds])
            biased.append((list(np.cumsum(w / w.sum())), last, kinds, bits, slots))
        return biased, max_nodes

    def biased_batch(cfg, n, rng):
        randgen._draw_plan = biased_plan
        try:
            return batch(cfg, n, rng=rng)
        finally:
            randgen._draw_plan = draw_plan

    return biased_batch


def harness_p(ref_batch, ref_cfg, ref_seed, cand_batch, cand_cfg, cand_seed,
              n=HARNESS_TREES):
    """`compare` of n admitted trees of each batch function, each with its
    config and rng seed, over the reference config's operators."""
    ops = vocabulary(ref_cfg.extended_dsl, ref_cfg.allow_cm1)[0]
    ref = admitted_trees(ref_batch, ref_cfg, n, ref_seed)
    cand = admitted_trees(cand_batch, cand_cfg, n, cand_seed)
    return compare(ref, cand, ops)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=20,
                        help="null seed pairs of the early-abort generator")
    parser.add_argument("--seeds", type=int, default=10,
                        help="seeds of each planted bias against the reference")
    parser.add_argument("--factors", type=float, nargs="*", default=[1.5, 1.1])
    args = parser.parse_args()
    batch, cfg = randgen.generate_batch, HARNESS_CFG
    t = time.perf_counter()
    p = harness_p(reference_batch, cfg, 1, batch, cfg, 2)
    print(f"early abort against the reference: p={p:.4f} ({time.perf_counter() - t:.1f} s)")
    nulls = [harness_p(batch, cfg, 100 + 2 * i, batch, cfg, 101 + 2 * i)
             for i in range(args.pairs)]
    print(f"null, {args.pairs} seed pairs: {sum(p < 0.01 for p in nulls)} rejected at 0.01; "
          f"p = {' '.join(f'{p:.3f}' for p in nulls)}")
    for factor in args.factors:
        ps = [harness_p(reference_batch, cfg, 200 + s, planted(batch, factor), cfg, 300 + s)
              for s in range(args.seeds)]
        print(f"MM x{factor}, {args.seeds} seeds: {sum(p < 0.01 for p in ps)} rejected at 0.01; "
              f"p = {' '.join(f'{p:.2g}' for p in ps)}")


if __name__ == "__main__":
    main()
