"""Tree-encoder performance predictor: unrolling, fitting, selection."""

import copy
import hashlib
import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.stats import spearmanr

import rnndsl.engine as en
from rnndsl.dsl import (
    Architecture,
    ArchNode,
    OpKind,
    analyze,
    builtin,
    builtin_names,
    canonicalize,
    node_at_index,
    parse,
    render,
)
from rnndsl.evaluator import ArchPerfRecord
from rnndsl.randgen import GenConfig, generate_batch
from rnndsl.ranker import (
    C_TM2,
    H_TM2,
    LEAF_LABELS,
    Ranker,
    RankerConfig,
    SubtreeMemo,
    select,
)
from conftest import random_architectures


@dataclass(frozen=True)
class Node:
    """A labelled tree: an architecture as the encoder reads it, built out
    explicitly (labels, not OpKinds)."""

    label: str
    children: tuple["Node", ...] = ()


def relabeled(n, leaves):
    """Copy of n with OpKinds as labels; a source in `leaves` becomes its
    value there."""
    if n.op.is_source:
        return leaves.get(n.op) or Node(n.op.value)
    return Node(n.op.value, tuple(relabeled(c, leaves) for c in n.children))


# the recurrent leaves one timestep further back (x leaves are not shifted)
SHIFTED = {OpKind.HM1: Node(H_TM2), OpKind.CM1: Node(C_TM2)}


def unroll_once(arch):
    """Replace each h_tm1 leaf by the h_t tree and each c_tm1 leaf by the
    c_t subtree (a c_tm1 leaf stays itself if there is no tap), relabeling
    the recurrent leaves inside the copies: the reference for the reading
    `levels` interns."""
    leaves = {OpKind.HM1: relabeled(arch.root, SHIFTED)}
    if arch.ct_node is not None:
        leaves[OpKind.CM1] = relabeled(node_at_index(arch.root, arch.ct_node), SHIFTED)
    return relabeled(arch.root, leaves)


def reference_tree(arch, unroll):
    return unroll_once(arch) if unroll else relabeled(arch.root, {})


def operator_count(node):
    """Operator nodes of an encoder tree, counting each place a subtree appears."""
    me = 0 if not node.children and node.label in LEAF_LABELS else 1
    return me + sum(operator_count(c) for c in node.children)


def labels(node):
    out = {node.label}
    for c in node.children:
        out |= labels(c)
    return out


def record_for(arch, metric, status="ok"):
    from rnndsl.randgen import arch_id

    return ArchPerfRecord(
        id=arch_id(arch),
        dsl=render(arch),
        ct_node=arch.ct_node,
        source="random",
        task="copy_memory",
        status=status,
        valid_metric=metric,
        test_metric=None,
        epochs_run=3,
        wall_seconds=0.0,
        batch_index=0,
        timestamp="1970-01-01T00:00:00Z",
    )


def tiny_ranker(**overrides):
    base = dict(hidden=24, epochs=60, seed=0)
    base.update(overrides)
    return Ranker(RankerConfig(**base))


class TestUnrollOnce:
    def test_tanh_rnn_shape(self):
        tree = unroll_once(builtin("tanh_rnn"))
        assert operator_count(tree) == 8  # 4 + one h-substituted copy of 4
        found = labels(tree)
        assert H_TM2 in found
        assert OpKind.HM1.value not in found

    def test_no_recurrent_leaves_remain(self):
        for arch in random_architectures(30, seed=1, allow_cm1=True):
            found = labels(unroll_once(arch))
            assert OpKind.HM1.value not in found
            assert OpKind.CM1.value not in found

    def test_no_recurrence_unchanged(self):
        arch = parse("Tanh(Add(MM(x_t),MM(x_tm1)))")
        tree = unroll_once(arch)
        assert operator_count(tree) == analyze(arch).node_count

    def test_counting_law(self):
        for arch in random_architectures(30, seed=2, allow_cm1=True):
            n = analyze(arch).node_count
            n_h = sum(1 for m in arch.root.walk() if m.op is OpKind.HM1)
            n_c = sum(1 for m in arch.root.walk() if m.op is OpKind.CM1)
            if n_c:
                from rnndsl.dsl import node_at_index

                sub = node_at_index(arch.root, arch.ct_node)
                ct_size = sum(1 for m in sub.walk() if not m.op.is_source)
            else:
                ct_size = 0
            expect = n + n_h * n + n_c * ct_size
            assert operator_count(unroll_once(arch)) == expect

    def test_cm1_without_tap_read_as_itself(self):
        # there is no c_t to put in; inside the h_t copy it is still c_tm2
        arch = parse("Tanh(Add(MM(h_tm1),MM(c_tm1)))")
        assert arch.ct_node is None
        tree = unroll_once(arch)
        assert operator_count(tree) == 8
        assert labels(tree) == {"Tanh", "Add", "MM", OpKind.CM1.value, H_TM2, C_TM2}
        assert_levels_match([arch], unroll=True)


class TestScore:
    def test_canonical_invariance(self):
        r = tiny_ranker()
        a = parse("Tanh(Add(MM(x_t),MM(h_tm1)))")
        b = parse("Tanh(Add(MM(h_tm1),MM(x_t)))")
        assert r.score(a) == r.score(b)

    def test_ordered_children_differ(self):
        r = tiny_ranker()
        a = parse("Sub(Tanh(MM(x_t)),Sigmoid(MM(h_tm1)))")
        b = parse("Sub(Sigmoid(MM(h_tm1)),Tanh(MM(x_t)))")
        assert r.score(a) != r.score(b)

    def test_fresh_params_finite(self):
        r = tiny_ranker()
        for arch in random_architectures(10, seed=3):
            assert math.isfinite(r.score(arch))

    def test_deterministic(self):
        r = tiny_ranker()
        arch = builtin("gru")
        assert r.score(arch) == r.score(arch)


def cell_per_node(ranker, label, kids):
    """(h, c) of one node from its children's (h, c), one Tensor op per gate,
    over slices of the stacked gate blocks: the per-node oracle of the
    level-batched `Ranker._encode`."""
    if not kids:
        emb = ranker.leaf_emb[label]
        return emb, en.Tensor(np.zeros_like(emb.data))
    h = ranker.cfg.hidden
    gate = {g: slice(k * h, (k + 1) * h) for k, g in enumerate("iouf")}
    if OpKind(label).order_sensitive:
        U, bf, b = ranker.cells[label]
        zi = zo = zu = None
        for j, (hk, _) in enumerate(kids):
            ti = en.linear(hk, en.take(U, (j, gate["i"])))
            to = en.linear(hk, en.take(U, (j, gate["o"])))
            tu = en.linear(hk, en.take(U, (j, gate["u"])))
            zi = ti if zi is None else en.add(zi, ti)
            zo = to if zo is None else en.add(zo, to)
            zu = tu if zu is None else en.add(zu, tu)
        i = en.sigmoid(en.add(zi, en.take(b, gate["i"])))
        o = en.sigmoid(en.add(zo, en.take(b, gate["o"])))
        u = en.tanh(en.add(zu, en.take(b, gate["u"])))
        c = en.mul(i, u)
        for j, (hk, ck) in enumerate(kids):
            fj = en.sigmoid(en.add(en.linear(hk, en.take(U, (j, gate["f"]))), en.take(bf, j)))
            c = en.add(c, en.mul(fj, ck))
    else:
        U, b = ranker.cells[label]
        hsum = kids[0][0]
        for hk, _ in kids[1:]:
            hsum = en.add(hsum, hk)

        def gate_of(x, g):
            return en.add(en.linear(x, en.take(U, gate[g])), en.take(b, gate[g]))

        i = en.sigmoid(gate_of(hsum, "i"))
        o = en.sigmoid(gate_of(hsum, "o"))
        u = en.tanh(gate_of(hsum, "u"))
        c = en.mul(i, u)
        for hk, ck in kids:
            c = en.add(c, en.mul(en.sigmoid(gate_of(hk, "f")), ck))
    return en.mul(o, en.tanh(c)), c


def encode_per_node(ranker, archs, memo=None):
    """Root states of the trees with every node of their explicit reading
    (`reference_tree`) encoded on its own; the memo is not read."""

    def encode(node):
        return cell_per_node(ranker, node.label, [encode(c) for c in node.children])

    trees = [reference_tree(a, ranker.cfg.unroll) for a in archs]
    return en.concat([encode(t)[0] for t in trees], axis=0)


# every operator and source label, with two identical children under Add
# and under Sub; c_tm1 has no tap, so unrolled it reads c_tm1 and c_tm2
ALL_LABELS = parse(
    "Gate3(Add(Tanh(x_t),Tanh(x_t)),Sub(LayerNorm(h_tm1),LayerNorm(h_tm1)),"
    "Mult(Div(Sin(MM(x_tm1)),Cos(c_tm1)),Sigmoid(ReLU(SeLU(posenc)))))")


def levels(archs, unroll):
    """The groups and root rows that a fresh memo interns."""
    _, groups, roots = SubtreeMemo().intern(archs, unroll)
    return groups, roots


def levels_unmemoized(trees):
    """`levels` over explicit trees, walking every place a node appears:
    the reference for the rows `levels` interns."""
    ids, heights = {}, []

    def intern(node):
        key = (node.label, tuple(map(intern, node.children)))
        if key not in ids:
            ids[key] = len(heights)
            heights.append(max([heights[k] for k in key[1]], default=-1) + 1)
        return ids[key]

    roots = [intern(t) for t in trees]
    members = {}
    for key, i in ids.items():
        members.setdefault((heights[i], key[0]), []).append(key)
    row, groups = {}, []
    for hl in sorted(members):
        keys = members[hl]
        kids = np.array([[row[k] for k in key[1]] for key in keys], dtype=np.intp)
        groups.append((hl[1], kids.reshape(len(keys), -1)))
        for key in keys:
            row[ids[key]] = len(row)
    return groups, [row[i] for i in roots]


def assert_levels_match(archs, unroll):
    """`levels` returns exactly the labels, child rows and root rows of
    the explicit reading of the trees."""
    groups, roots = levels(archs, unroll)
    want_groups, want_roots = levels_unmemoized([reference_tree(a, unroll) for a in archs])
    assert roots == want_roots
    assert [label for label, _ in groups] == [label for label, _ in want_groups]
    for (_, kids), (_, want) in zip(groups, want_groups):
        np.testing.assert_array_equal(kids, want)


class CountedNode(ArchNode):
    """An ArchNode that counts how often its children are read."""

    def __getattribute__(self, name):
        if name == "children":
            d = object.__getattribute__(self, "__dict__")
            d["reads"] = d.get("reads", 0) + 1
        return object.__getattribute__(self, name)


def counted_copy(arch):
    """A copy of the architecture built of CountedNodes; returns it and its
    node objects, their counts at 0."""
    made = []

    def copy(n):
        made.append(CountedNode(n.op, tuple(copy(c) for c in n.children)))
        return made[-1]

    out = Architecture(copy(arch.root), arch.ct_node)
    for n in made:
        n.reads = 0
    return out, made


def generated_candidates():
    """300 extended-DSL candidates, most with a c_t tap; the c_t variants of
    one raw tree share its root object."""
    cands = generate_batch(GenConfig(seed=3, extended_dsl=True), 300,
                           rng=np.random.default_rng(3))
    assert len(cands) == 300 and sum(a.ct_node is not None for a in cands) >= 200
    return cands


class TestEncodeOnce:
    def test_scores_match_per_node_encoding(self, monkeypatch):
        r = tiny_ranker(hidden=8)
        cands = generate_batch(GenConfig(seed=4), 100, rng=np.random.default_rng(4))
        assert sum(a.ct_node is not None for a in cands) >= 10
        cands += [builtin(name) for name in builtin_names()]
        got = r.score_many(cands)
        monkeypatch.setattr(Ranker, "_encode", encode_per_node)
        np.testing.assert_allclose(got, r.score_many(cands), rtol=0, atol=1e-12)

    def test_fit_matches_per_node_fit(self, monkeypatch):
        # batching a minibatch's trees only reorders float sums
        cands = random_architectures(20, seed=11, allow_cm1=True)
        cands += [builtin(name) for name in builtin_names()]
        metrics = np.random.default_rng(11).uniform(0.5, 3.0, len(cands))
        records = [record_for(a, m) for a, m in zip(cands, metrics)]

        def fitted():
            r = tiny_ranker(hidden=8, epochs=25)
            return r.fit(records), r.score_many(cands)

        curve, scores = fitted()
        monkeypatch.setattr(Ranker, "_encode", encode_per_node)
        want_curve, want_scores = fitted()
        assert len(curve) == len(want_curve) == 25
        np.testing.assert_allclose(curve, want_curve, rtol=0, atol=1e-12)
        np.testing.assert_allclose(scores, want_scores, rtol=0, atol=1e-12)

    def test_one_score_call_per_candidate(self, monkeypatch):
        r = tiny_ranker(hidden=4)
        cands = [builtin(name) for name in builtin_names()]
        calls = []
        score = Ranker.score

        def counted(self, arch, memo=None):
            calls.append(arch)
            return score(self, arch, memo)

        monkeypatch.setattr(Ranker, "score", counted)
        r.score_many(cands)
        assert calls == cands

    def test_gru_repeated_subtrees_encoded_once(self):
        arch = canonicalize(builtin("gru"))
        groups, roots = levels([arch], True)
        rows = sum(len(kids) for _, kids in groups if kids.shape[1])
        # the h_t copy put in for each h_tm1 leaf is encoded once
        assert 0 < rows < operator_count(unroll_once(arch))
        # a minibatch that repeats the tree encodes the same rows
        assert levels([arch, arch], True)[1] == roots * 2
        assert sum(len(kids) for _, kids in levels([arch, arch], True)[0]) == sum(
            len(kids) for _, kids in groups)

    @pytest.mark.parametrize("unroll", [True, False])
    def test_levels_match_explicit_unroll(self, unroll):
        builtins = [builtin(name) for name in builtin_names()]
        cands = generated_candidates()
        variants = next(cands[i:i + 2] for i in range(len(cands) - 1)
                        if cands[i].root is cands[i + 1].root)
        assert variants[0].ct_node != variants[1].ct_node
        canonical = [canonicalize(a) for a in builtins + cands]
        # one candidate per call, as `score` encodes, all in one call, as
        # `fit`, the raw candidates (c_t variants share a root object), a
        # minibatch that repeats one tree, and two variants on one root
        for batch in ([[a] for a in canonical] + [canonical, cands]
                      + [[canonical[0], canonical[7], canonical[0]], variants]):
            assert_levels_match(batch, unroll)

    def test_levels_walk_each_node_object_once(self):
        # once in the tree's own reading, once as a copy (every candidate
        # reads h_tm1) and, with a tap, once to find the tap
        for arch in generated_candidates()[:60]:
            counted, nodes = counted_copy(canonicalize(arch))
            levels([counted], True)
            assert {n.reads for n in nodes} == {2 + (arch.ct_node is not None)}

    def test_groups_by_height_and_label(self):
        for unroll in (True, False):
            groups, roots = levels([ALL_LABELS], unroll)
            tree = reference_tree(ALL_LABELS, unroll)
            assert {label for label, _ in groups} == labels(tree)
            # every child row is a row of an earlier group
            start = 0
            for _, kids in groups:
                assert kids.size == 0 or kids.max() < start
                start += len(kids)
            assert roots == [start - 1]

    def test_fresh_parameters_pinned(self):
        # the stacked blocks hold the numbers of the per-gate parameters
        r = Ranker(RankerConfig(hidden=8, seed=0))
        digest = hashlib.sha256(b"".join(p.data.tobytes() for p in r.params))
        assert digest.hexdigest() == (
            "3ed9dc72811d2dc87a36c674078673c9a4f42cb74a3863e3e1d859710276e261")


def fitted_ranker(**overrides):
    """A tiny ranker fitted on builtins and random trees."""
    archs = random_architectures(20, seed=12, allow_cm1=True)
    archs += [builtin(name) for name in builtin_names()]
    metrics = np.random.default_rng(12).uniform(0.5, 3.0, len(archs))
    r = tiny_ranker(**overrides)
    r.fit([record_for(a, m) for a, m in zip(archs, metrics)])
    return r


class TestSubtreeMemo:
    """`score_many` shares one subtree memo across its `score` calls."""

    @pytest.mark.parametrize("fitted", [False, True])
    def test_matches_per_candidate_and_per_node(self, monkeypatch, fitted):
        # the c_t variants of one raw tree share its root object
        r = fitted_ranker(hidden=8, epochs=10) if fitted else tiny_ranker(hidden=8)
        cands = generated_candidates()
        got = r.score_many(cands)
        alone = [r.score(a) for a in cands]
        np.testing.assert_allclose(got, alone, rtol=0, atol=1e-12)
        monkeypatch.setattr(Ranker, "_encode", encode_per_node)
        np.testing.assert_allclose(got, r.score_many(cands), rtol=0, atol=1e-12)

    def test_encodes_each_distinct_subtree_once(self, monkeypatch):
        r = tiny_ranker(hidden=4)
        cands = generated_candidates()
        intern = SubtreeMemo.intern
        encoded = []

        def counted(self, *args):
            first, groups, roots = intern(self, *args)
            encoded.append(sum(len(kids) for _, kids in groups))
            return first, groups, roots

        monkeypatch.setattr(SubtreeMemo, "intern", counted)
        r.score_many(cands)
        monkeypatch.undo()
        groups, _ = levels([r._eval_tree(a) for a in cands], True)
        assert len(encoded) == len(cands)
        assert sum(encoded) == sum(len(kids) for _, kids in groups)
        alone = sum(sum(len(kids) for _, kids in levels([r._eval_tree(a)], True)[0])
                    for a in cands)
        assert sum(encoded) < alone / 2

    def test_memo_dropped_on_return_and_raise(self, monkeypatch):
        r = tiny_ranker(hidden=8, epochs=10)
        cands = generated_candidates()[:60]
        r.score_many(cands)
        assert not any(isinstance(v, SubtreeMemo) for v in vars(r).values())
        eval_tree = Ranker._eval_tree
        seen = []

        def third_raises(self, arch):
            seen.append(arch)
            if len(seen) == 3:
                raise RuntimeError("third candidate")
            return eval_tree(self, arch)

        monkeypatch.setattr(Ranker, "_eval_tree", third_raises)
        with pytest.raises(RuntimeError, match="third candidate"):
            r.score_many(cands)
        monkeypatch.undo()
        assert not any(isinstance(v, SubtreeMemo) for v in vars(r).values())
        # no row encoded before the fit is read after it
        archs = random_architectures(10, seed=13)
        r.fit([record_for(a, float(i)) for i, a in enumerate(archs)])
        fresh = tiny_ranker(hidden=8, epochs=10)
        for p, q in zip(fresh.params, r.params):
            p.data[...] = q.data
        assert [r.score(a) for a in cands] == [fresh.score(a) for a in cands]
        np.testing.assert_array_equal(r.score_many(cands), fresh.score_many(cands))

    def test_memo_cleared_at_row_cap(self, monkeypatch):
        import rnndsl.ranker as ranker_mod

        cap = 150
        monkeypatch.setattr(ranker_mod, "MEMO_ROWS", cap)
        r = tiny_ranker(hidden=4)
        cands = generated_candidates()[:120]
        score = Ranker.score
        held = []  # rows and allocated rows after each candidate

        def watched(self, arch, memo=None):
            out = score(self, arch, memo)
            held.append((len(memo.heights), len(memo.H)))
            return out

        monkeypatch.setattr(Ranker, "score", watched)
        got = r.score_many(cands)
        monkeypatch.undo()
        rows = [n for n, _ in held]
        assert max(rows) <= cap and max(size for _, size in held) <= cap
        assert sum(b < a for a, b in zip(rows, rows[1:])) >= 3
        np.testing.assert_allclose(got, [r.score(a) for a in cands], rtol=0, atol=1e-12)


class TestFit:
    def test_memorizes_single_record(self):
        r = tiny_ranker(epochs=400, head_dropout=0.0)
        rec = record_for(builtin("tanh_rnn"), 2.5)
        r.fit([rec])
        assert abs(r.score(builtin("tanh_rnn")) - 2.5) < 0.05

    def test_no_records_refused(self):
        r = tiny_ranker()
        before = [p.data.copy() for p in r.params]
        with pytest.raises(ValueError, match="^need at least one record$"):
            r.fit([])
        assert [p.data.tobytes() for p in r.params] == [b.tobytes() for b in before]

    def test_failure_target_capped(self):
        r = tiny_ranker()
        rec = record_for(builtin("tanh_rnn"), None, status="diverged")
        assert r.target_for(rec) == pytest.approx(math.log(500.0))

    def test_synthetic_learnability(self):
        # target: a fixed statistic of the tree (operator count)
        archs = random_architectures(120, seed=4)
        records = [
            record_for(a, analyze(a).node_count / 4.0) for a in archs
        ]
        train, test = records[:90], records[90:]
        r = tiny_ranker(hidden=32, epochs=400, head_dropout=0.0, unroll=False)
        r.fit(train)
        preds = [r.score(parse(rec.dsl)) for rec in test]
        truth = [rec.valid_metric for rec in test]
        rho = spearmanr(preds, truth).statistic
        assert rho >= 0.8

    def test_non_finite_gradient_keeps_parameters_finite(self):
        r = tiny_ranker()
        before = [p.data.copy() for p in r.params]
        recs = [record_for(builtin(n), math.nan) for n in ("gru", "lstm")]
        assert r.fit(recs) == []  # the first step is refused and the fit stops
        assert all(np.isfinite(p.data).all() for p in r.params)
        assert [p.data.tobytes() for p in r.params] == [b.tobytes() for b in before]

    def test_refit_parses_only_new_records(self, monkeypatch):
        """A second fit on a store grown by k records parses k texts, and
        its curve and parameters equal those of a copy of the ranker that
        holds no parsed tree and parses every record."""
        import rnndsl.ranker as ranker_mod

        parse_text = ranker_mod.parse
        parsed = []

        def counted(text):
            parsed.append(text)
            return parse_text(text)

        monkeypatch.setattr(ranker_mod, "parse", counted)
        records = [record_for(a, analyze(a).node_count / 4.0)
                   for a in random_architectures(30, seed=5)]
        r = tiny_ranker(epochs=20)
        r.fit(records[:20], rng=np.random.default_rng(1))
        assert len(parsed) == 20
        uncached = copy.deepcopy(r)
        uncached._trees.clear()
        curve = r.fit(records, rng=np.random.default_rng(2))
        assert parsed[20:] == [rec.dsl for rec in records[20:]]
        assert uncached.fit(records, rng=np.random.default_rng(2)) == curve
        assert len(parsed) == 60
        assert [p.data.tobytes() for p in r.params] == [p.data.tobytes() for p in uncached.params]

    def test_bootstrap_ct_embeddings(self):
        r = tiny_ranker()
        r.leaf_emb[OpKind.HM1.value].data[...] = 7.0
        r.leaf_emb[OpKind.CM1.value].data[...] = -3.0
        r.bootstrap_ct_embeddings()
        np.testing.assert_array_equal(r.leaf_emb[H_TM2].data, 7.0)
        np.testing.assert_array_equal(r.leaf_emb[C_TM2].data, -3.0)


class TestSelect:
    def test_returns_all_when_few(self):
        r = tiny_ranker()
        cands = random_architectures(5, seed=5)
        assert select(r, cands, k_top=8, k_sampled=2) == cands

    def test_top_k_are_argmin(self):
        r = tiny_ranker()
        cands = random_architectures(40, seed=6)
        scores = r.score_many(cands)
        out = select(r, cands, k_top=8, k_sampled=2,
                     rng=np.random.default_rng(0))
        assert len(out) == 10
        top_ids = {render(a) for a in out[:8]}
        best_ids = {render(cands[i]) for i in np.argsort(scores)[:8]}
        assert top_ids == best_ids

    def test_no_replacement(self):
        r = tiny_ranker()
        cands = random_architectures(30, seed=7)
        out = select(r, cands, k_top=5, k_sampled=5,
                     rng=np.random.default_rng(1))
        ids = [render(a) for a in out]
        assert len(ids) == len(set(ids))

    def test_zero_temperature_limit(self):
        r = tiny_ranker()
        cands = random_architectures(30, seed=8)
        scores = r.score_many(cands)
        out = select(r, cands, k_top=4, k_sampled=4, temperature=1e-6,
                     rng=np.random.default_rng(2))
        expect = {render(cands[i]) for i in np.argsort(scores)[:8]}
        assert {render(a) for a in out} == expect

    def test_k_sampled_zero(self):
        r = tiny_ranker()
        cands = random_architectures(20, seed=9)
        out = select(r, cands, k_top=6, k_sampled=0)
        assert len(out) == 6


class TestGradient:
    def test_encode_and_regress_loss(self):
        r = tiny_ranker(hidden=6, head_dropout=0.0)
        arch = parse("Gate3(Tanh(MM(x_t)),Sub(h_tm1,x_t),Sigmoid(MM(h_tm1)))")
        tree = r._eval_tree(arch)

        def loss():
            pred = r._predict(tree, train=False)
            diff = en.sub(pred, en.Tensor([[1.5]]))
            return en.tsum(en.mul(diff, diff))

        assert en.gradient_check(loss, r.params) < 1e-4

    def test_all_labels_shared_children_and_repeated_trees(self):
        ops = {op.value for op in OpKind if not op.is_source}
        # unrolled, every leaf label but h_tm1; as it is, every source
        for unroll, leaves in ((True, set(LEAF_LABELS) - {OpKind.HM1.value}),
                               (False, set(LEAF_LABELS) - {H_TM2, C_TM2})):
            assert labels(reference_tree(ALL_LABELS, unroll)) == ops | leaves
            r = tiny_ranker(hidden=3, head_dropout=0.0, unroll=unroll)
            trees = [ALL_LABELS, r._eval_tree(builtin("gru")), ALL_LABELS]
            targets = en.Tensor([[1.5], [0.2], [-0.7]])

            def loss():
                diff = en.sub(r._predict(*trees, train=False), targets)
                return en.tsum(en.mul(diff, diff))

            assert en.gradient_check(loss, r.params) < 1e-4
