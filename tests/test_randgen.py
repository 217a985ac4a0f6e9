"""Random candidate generation, restrictions, dedup, c_t expansion."""

import bisect
import hashlib
import time

import numpy as np
import pytest

from rnndsl import randgen
from rnndsl.dsl import (
    CORE_OPERATORS,
    CORE_SOURCES,
    EXTENDED_OPERATORS,
    EXTENDED_SOURCES,
    Architecture,
    ArchNode,
    OpKind,
    analyze,
    builtin,
    canonicalize,
    from_preorder,
    parse,
    render,
    vocabulary,
)
from rnndsl.randgen import (
    GenConfig,
    arch_id,
    check_restrictions,
    expand_ct_variants,
    generate_batch,
)
from sampling import (
    HARNESS_CFG,
    harness_p,
    planted,
    reference_batch,
    reference_draw,
)

EXAMPLE_21 = "Mult(Sigmoid(MM(x_t)),Tanh(Add(MM(h_tm1),Mult(MM(c_tm1),MM(x_t)))))"


def grow_raw(cfg, rng):
    """One raw draw, root-first and unfiltered: built whole by the
    reference sampler whether or not it passes the draw's rules."""
    drawn, _ = reference_draw(randgen._draw_plan(cfg), rng)
    return Architecture(from_preorder(drawn))


def oracle_tables(cfg):
    """(every kind, sources only), each as cumulative weights, kinds and
    arities: the tables of the recursive grower, each kind equally likely."""

    def table(kinds):
        w = np.ones(len(kinds))
        return list(np.cumsum(w / w.sum())), kinds, [k.arity for k in kinds]

    ops, srcs = vocabulary(cfg.extended_dsl, cfg.allow_cm1)
    return table(ops + srcs), table(srcs)


def oracle_grow(cfg, rng, every, sources):
    """The recursive grower: one rng.random() per node in preorder,
    children left to right, sources only at depth >= max_height, and every
    tree built whole."""

    def draw(depth):
        cum, kinds, arities = sources if depth >= cfg.max_height else every
        idx = min(bisect.bisect_left(cum, rng.random()), len(kinds) - 1)
        kids = tuple([draw(depth + 1) for _ in range(arities[idx])])
        return ArchNode(kinds[idx], kids)

    return draw(0)


class Violation(Exception):
    pass


def oracle_trial(cfg, rng, every, sources):
    """The recursive grower stopped at its first violation: a node that
    repeats its parent's operator, a Gate3 whose third child is not a
    Sigmoid, or one operator more than max_nodes. Returns the kinds drawn
    in preorder, and the tree, or None when the trial stopped."""
    drawn, ops = [], 0

    def draw(depth, parent, slot):
        nonlocal ops
        cum, kinds, arities = sources if depth >= cfg.max_height else every
        idx = min(bisect.bisect_left(cum, rng.random()), len(kinds) - 1)
        kind = kinds[idx]
        drawn.append(kind)
        gate = parent is OpKind.GATE3 and slot == 2
        ops += arities[idx] > 0
        if kind is parent or (gate and kind is not OpKind.SIGMOID) or ops > cfg.max_nodes:
            raise Violation
        return ArchNode(kind, tuple([draw(depth + 1, kind, j) for j in range(arities[idx])]))

    try:
        return drawn, draw(0, None, 0)
    except Violation:
        return drawn, None


def oracle_batch(cfg, n, rng):
    """`generate_batch` on one rng.random() per node: each trial grown by
    `oracle_trial`, a whole tree checked by `check_restrictions`."""
    tables = oracle_tables(cfg)
    seen, out = set(), []
    budget = randgen.RAW_DRAWS_PER_CANDIDATE * n
    while len(out) < n and budget > 0:
        budget -= 1
        _, tree = oracle_trial(cfg, rng, *tables)
        if tree is None or not check_restrictions(Architecture(tree), cfg).admissible:
            continue
        for variant in expand_ct_variants(canonicalize(Architecture(tree))):
            vid = arch_id(variant)
            if vid not in seen:
                seen.add(vid)
                out.append(variant)
                if len(out) >= n:
                    break
    return out


class TestGrowRandom:
    def test_max_height_zero_gives_leaf(self):
        # configs refuse a height bound below 1; growth itself forces a
        # source wherever the bound is reached, the root included
        cfg = GenConfig(seed=1)
        cfg.max_height = 0
        arch = grow_raw(cfg, np.random.default_rng(1))
        assert arch.root.op.is_source

    @pytest.mark.parametrize("field", ["max_nodes", "max_height"])
    def test_bounds_below_one_refused(self, field):
        with pytest.raises(ValueError, match=f"GenConfig.{field} must be >= 1, got 0"):
            GenConfig(**{field: 0})

    def test_height_bound_respected(self):
        cfg = GenConfig(max_height=4, seed=2)
        rng = np.random.default_rng(2)
        for _ in range(300):
            arch = grow_raw(cfg, rng)
            assert analyze(arch).height <= 4

    def test_deterministic_sequence(self):
        cfg = GenConfig(seed=3)
        a = [render(grow_raw(cfg, np.random.default_rng(3))) for _ in range(5)]
        b = [render(grow_raw(cfg, np.random.default_rng(3))) for _ in range(5)]
        assert a == b


class TestCheckRestrictions:
    def test_gru_clean(self):
        assert check_restrictions(builtin("gru"), GenConfig()).admissible

    def test_stacked_mm(self):
        rep = check_restrictions(
            parse("Tanh(Add(MM(MM(x_t)),MM(h_tm1)))"), GenConfig()
        )
        assert "stacked_identical" in rep.violations

    def test_gate_not_sigmoid(self):
        rep = check_restrictions(
            parse("Gate3(x_t,h_tm1,Tanh(MM(x_t)))"), GenConfig()
        )
        assert "gate_not_sigmoid" in rep.violations

    def test_missing_required_sources(self):
        rep = check_restrictions(parse("Tanh(MM(x_t))"), GenConfig())
        assert "missing_h" in rep.violations
        rep = check_restrictions(parse("Tanh(MM(h_tm1))"), GenConfig())
        assert "missing_x" in rep.violations

    def test_size_violation(self):
        rep = check_restrictions(builtin("gru"), GenConfig(max_nodes=5))
        assert "too_big" in rep.violations


class TestExpandCtVariants:
    def test_example_three_variants(self):
        variants = expand_ct_variants(parse(EXAMPLE_21))
        assert len(variants) == 3
        assert len({v.ct_node for v in variants}) == 3

    def test_no_cm1_identity(self):
        arch = builtin("tanh_rnn")
        assert expand_ct_variants(arch) == [arch]

    def test_cm1_without_valid_tap_empty(self):
        assert expand_ct_variants(parse("Tanh(MM(c_tm1))")) == []


class TestGenerateBatch:
    def test_distinct_ids(self):
        batch = generate_batch(GenConfig(seed=5), 100)
        ids = [arch_id(a) for a in batch]
        assert len(batch) == 100
        assert len(set(ids)) == 100

    def test_seen_excluded(self):
        cfg = GenConfig(seed=6)
        first = generate_batch(cfg, 50, rng=np.random.default_rng(6))
        seen = {arch_id(a) for a in first}
        second = generate_batch(cfg, 50, seen=seen, rng=np.random.default_rng(6))
        assert seen.isdisjoint({arch_id(a) for a in second})

    def test_core_dsl_excludes_extended(self):
        extended = set(EXTENDED_OPERATORS + EXTENDED_SOURCES) - set(CORE_OPERATORS + CORE_SOURCES)
        for arch in generate_batch(GenConfig(seed=7, extended_dsl=False), 200):
            assert not ({n.op for n in arch.root.walk()} & extended)

    def test_all_admissible(self):
        cfg = GenConfig(seed=8)
        for arch in generate_batch(cfg, 500):
            assert check_restrictions(arch, cfg).admissible

    @pytest.mark.parametrize("required", [(OpKind.X,), (OpKind.HM1,)])
    def test_no_bare_source_root(self, required):
        # a one-leaf tree reads at most one of the required x_t and h_tm1,
        # so it is refused and never drawn
        (leaf,) = required
        lone = Architecture(ArchNode(leaf, ()))
        assert "bare_source" in check_restrictions(lone, GenConfig()).violations
        cfg = GenConfig(seed=1)
        batch = generate_batch(cfg, 300, rng=np.random.default_rng(1))
        assert len(batch) == 300
        assert not [render(a) for a in batch if a.root.op.is_source]

    def test_id_stable_under_recanonicalization(self):
        from rnndsl.dsl import canonicalize

        for arch in generate_batch(GenConfig(seed=9), 50):
            assert arch_id(arch) == arch_id(canonicalize(arch))


TIGHT = {"max_nodes": 6, "max_height": 3}

# (GenConfig fields, rng seed): the TestOnePassMatchesMultiWalk corpora (core
# and extended DSL at its default and tight bounds, rng 11 and 12), then the
# grammar without c_tm1
AGREEMENT = [
    ({}, 11),
    (TIGHT, 11),
    ({"extended_dsl": True}, 12),
    ({"extended_dsl": True, **TIGHT}, 12),
    ({"allow_cm1": False}, 13),
]


class TestDrawMatchesOracle:
    """`_draw_raw` checks the restriction rules while it draws and stops at
    the first violation. Its kinds and the generator state after it must
    be the early-abort grower's; its kinds must be a prefix of the tree the
    reference sampler draws whole from the same state; and its verdict must
    be `check_restrictions` of that whole tree."""

    @pytest.mark.parametrize("fields,seed", AGREEMENT)
    def test_verdict_tree_and_state(self, fields, seed):
        cfg = GenConfig(**fields)
        plan, tables = randgen._draw_plan(cfg), oracle_tables(cfg)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        whole, grown = np.random.default_rng(), np.random.default_rng()
        passed_count = stopped = 0
        for _ in range(2500):
            whole.bit_generator.state = grown.bit_generator.state = rng.bit_generator.state
            drawn, passed = randgen._draw_raw(plan, rng.random)
            want, tree = oracle_trial(cfg, ref, *tables)
            assert drawn == want
            assert rng.bit_generator.state == ref.bit_generator.state
            full, _ = reference_draw(plan, whole)
            arch = Architecture(from_preorder(full))
            assert arch.root == oracle_grow(cfg, grown, *tables)
            assert full[:len(drawn)] == drawn
            assert passed == check_restrictions(arch, cfg).admissible, render(arch)
            if tree is not None:
                assert tree == arch.root
            passed_count += passed
            stopped += tree is None
        assert 0 < passed_count < 2500
        assert stopped > 0

    @pytest.mark.parametrize("fields,seed", [({}, 0), ({}, 1), ({}, 2),
                                             ({"extended_dsl": True, **TIGHT}, 12)])
    def test_batch_matches_oracle(self, fields, seed):
        cfg = GenConfig(seed=seed, **fields)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert generate_batch(cfg, 150, rng=rng) == oracle_batch(cfg, 150, ref)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestBlockLoop:
    """`generate_batch` takes its uniforms in blocks and then rewinds the
    generator to the last one used: the candidates and the end state must
    be the scalar oracle's whatever the block size and the bit generator,
    also when the budget runs out."""

    @pytest.mark.parametrize("block", [1, 7, 1024])
    def test_any_block_size(self, monkeypatch, block):
        monkeypatch.setattr(randgen, "UNIFORMS_PER_BLOCK", block)
        cfg = GenConfig(seed=3, **TIGHT)
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        assert generate_batch(cfg, 40, rng=rng) == oracle_batch(cfg, 40, ref)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_shortfall_once_the_budget_is_spent(self):
        # one operator over x_t and h_tm1 makes two distinct candidates
        cfg = GenConfig(max_nodes=1, max_height=1, allow_cm1=False, seed=4)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        batch = generate_batch(cfg, 5, rng=rng)
        assert len(batch) == 2
        assert batch == oracle_batch(cfg, 5, ref)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("bits", [np.random.MT19937, np.random.Philox, np.random.SFC64])
    def test_other_bit_generators(self, bits):
        cfg = GenConfig(seed=5)
        rng, ref = np.random.Generator(bits(5)), np.random.Generator(bits(5))
        ref.random(3)
        rng.random(3)  # a start that is not at a block or word boundary
        assert generate_batch(cfg, 60, rng=rng) == oracle_batch(cfg, 60, ref)
        assert plain(rng.bit_generator.state) == plain(ref.bit_generator.state)
        assert rng.random() == ref.random()


def plain(state):
    """A bit generator state with its arrays as lists, comparable by ==."""
    if isinstance(state, dict):
        return {k: plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


class TestDrawStream:
    """The generator's output, its raw-trial count and the generator state
    after it are pinned; a change of stream must be shown equal in
    distribution by TestSameDistribution and re-pinned."""

    def test_pinned_ids_and_raw_tree_count(self, monkeypatch):
        draws = 0
        draw = randgen._draw_raw

        def counted(plan, uniform):
            nonlocal draws
            draws += 1
            return draw(plan, uniform)

        monkeypatch.setattr(randgen, "_draw_raw", counted)
        rng = np.random.default_rng((0, 2))
        batch = generate_batch(GenConfig(seed=0), 300, rng=rng)
        ids = "\n".join(arch_id(a) for a in batch)
        assert len(batch) == 300
        assert hashlib.sha256(ids.encode()).hexdigest() == (
            "c08d2122f5b776f0d706c1b7b2e8bb4aeea58e538690812a02ed6da0f7ce22c4"
        )
        # one draw per raw trial
        assert draws == 11574
        assert rng.bit_generator.state["state"] == {
            "state": 257210658529060456648091866646820565810,
            "inc": 19681440599402660950022900364292316661,
        }

    def test_reference_keeps_the_old_stream(self):
        # the reference sampler is the generator before trials stopped at
        # their first violation: the old pins of TestDrawStream
        rng = np.random.default_rng((0, 2))
        batch = reference_batch(GenConfig(seed=0), 300, rng=rng)
        ids = "\n".join(arch_id(a) for a in batch)
        assert hashlib.sha256(ids.encode()).hexdigest() == (
            "020397fabd04021c580f0fc5f4b1d57b7ebd806f272195d0349aa08ca0cf08b4"
        )
        assert rng.bit_generator.state["state"] == {
            "state": 106480907708026234580090072675587569328,
            "inc": 19681440599402660950022900364292316661,
        }


class TestSameDistribution:
    """The chi-square harness of tests/sampling.py on 5,000 admitted trees
    per side (`python tests/sampling.py` repeats its null and power runs)."""

    def test_early_abort_matches_reference(self):
        start = time.perf_counter()
        p = harness_p(reference_batch, HARNESS_CFG, 1, generate_batch, HARNESS_CFG, 2)
        assert p >= 0.01
        assert time.perf_counter() - start < 20.0

    def test_planted_bias_rejected(self):
        start = time.perf_counter()
        p = harness_p(reference_batch, HARNESS_CFG, 1, planted(generate_batch, 1.5),
                      HARNESS_CFG, 2)
        assert p < 0.01
        assert time.perf_counter() - start < 20.0
