"""Expression-tree DSL: grammar, canonical ordering, analysis, builtins."""

import dataclasses
import itertools

import numpy as np
import pytest

from rnndsl import dsl
from rnndsl.dsl import (
    Architecture,
    ArchNode,
    CORE_OPERATORS,
    CORE_SOURCES,
    EXTENDED_OPERATORS,
    EXTENDED_SOURCES,
    OpKind,
    ParseError,
    analyze,
    builtin,
    builtin_names,
    canonicalize,
    enumerate_ct_taps,
    from_preorder,
    node_at_index,
    numbered_operator_nodes,
    operator_count,
    parse,
    render,
    structural_violations,
    subtree_uses,
    tree_height,
)
from rnndsl.randgen import GenConfig, _draw_plan, arch_id, expand_ct_variants
from conftest import count_canon, generated_candidates
from sampling import reference_draw

EXAMPLE_21 = "Mult(Sigmoid(MM(x_t)),Tanh(Add(MM(h_tm1),Mult(MM(c_tm1),MM(x_t)))))"


def random_tree(rng, max_depth=5, extended=True, p_source=0.35):
    ops = EXTENDED_OPERATORS if extended else CORE_OPERATORS
    srcs = EXTENDED_SOURCES if extended else CORE_SOURCES

    def grow(depth):
        if depth >= max_depth or rng.random() < p_source:
            return ArchNode(srcs[rng.integers(len(srcs))])
        op = ops[rng.integers(len(ops))]
        return ArchNode(op, tuple(grow(depth + 1) for _ in range(op.arity)))

    root = grow(0)
    if root.op.is_source:
        root = ArchNode(OpKind.TANH, (root,))
    return Architecture(root)


class TestOpKind:
    def test_arities(self):
        unary = [OpKind.MM, OpKind.SIGMOID, OpKind.TANH, OpKind.RELU,
                 OpKind.SIN, OpKind.COS, OpKind.LAYERNORM, OpKind.SELU]
        for op in unary:
            assert op.arity == 1
        for op in (OpKind.ADD, OpKind.MULT, OpKind.SUB, OpKind.DIV):
            assert op.arity == 2
        assert OpKind.GATE3.arity == 3
        for op in (OpKind.X, OpKind.XM1, OpKind.HM1, OpKind.CM1, OpKind.POSENC):
            assert op.arity == 0 and op.is_source

    def test_flag_sets_exact(self):
        assert {o for o in OpKind if o.commutative} == {OpKind.ADD, OpKind.MULT}
        assert {o for o in OpKind if o.order_sensitive} == {
            OpKind.GATE3, OpKind.SUB, OpKind.DIV
        }
        extended = set(EXTENDED_OPERATORS + EXTENDED_SOURCES) - set(CORE_OPERATORS + CORE_SOURCES)
        assert extended == {
            OpKind.SUB, OpKind.DIV, OpKind.SIN, OpKind.COS,
            OpKind.POSENC, OpKind.LAYERNORM, OpKind.SELU,
        }

    def test_child_count_enforced(self):
        with pytest.raises(ValueError):
            ArchNode(OpKind.ADD, (ArchNode(OpKind.X),))


class TestParse:
    def test_basic_tree(self):
        arch = parse("Tanh(Add(MM(x_t),MM(h_tm1)))")
        info = analyze(arch)
        assert info.node_count == 4
        assert info.height == 2
        assert arch.ct_node is None

    def test_single_leaf(self):
        arch = parse("x_t")
        assert arch.root.op is OpKind.X
        assert analyze(arch).node_count == 0

    def test_whitespace_insensitive(self):
        a = parse(" Tanh( Add( MM( x_t ) , MM( h_tm1 ) ) ) ")
        b = parse("Tanh(Add(MM(x_t),MM(h_tm1)))")
        assert a == b

    def test_ct_suffix(self):
        arch = parse(EXAMPLE_21 + "|6")
        assert arch.ct_node == 6

    def test_inline_ct_marker(self):
        plain = parse(EXAMPLE_21 + "|6")
        inline = parse(
            "Mult(Sigmoid(MM(x_t)),Tanh(@ct(Add(MM(h_tm1),"
            "Mult(MM(c_tm1),MM(x_t))))))"
        )
        assert inline.ct_node == plain.ct_node

    def test_var_aliases(self):
        assert parse("Tanh(MM(Var('x')))") == parse("Tanh(MM(x_t))")
        assert parse("Tanh(MM(Var('hm1')))") == parse("Tanh(MM(h_tm1))")

    def test_typeset_aliases(self):
        assert parse("Tanh(MM($h_{t-1}$))") == parse("Tanh(MM(h_tm1))")

    @pytest.mark.parametrize("text,message,pos", [
        pytest.param("Tanh( #)", "unexpected character '#'", 6, id="character"),
        pytest.param("Tanh x_t", "expected '(', got 'x_t'", 5, id="punct"),
        pytest.param("Tanh(x_t", "expected ')', got 'end of input'", 8, id="punct_at_end"),
        pytest.param("Add(x_t,h_tm1)|x", "expected node number after '|'", 15, id="suffix"),
        pytest.param("Add(x_t,h_tm1)|", "expected node number after '|'", 15,
                     id="suffix_at_end"),
        pytest.param("x_t h_tm1", "unexpected trailing input 'h_tm1'", 4, id="trailing"),
        pytest.param("Tanh(Add(@ct(Add(x_t,c_tm1)),@ct(Mult(c_tm1,x_t))))",
                     "multiple @ct markers", 29, id="two_markers"),
        pytest.param("Tanh(@ct(Add(@ct(Add(x_t,c_tm1)),c_tm1)))",
                     "multiple @ct markers", 13, id="nested_markers"),
        pytest.param("Tanh(@ct(Add(x_t,c_tm1)))|1",
                     "both @ct marker and |n suffix given", 25, id="marker_and_suffix"),
        pytest.param("Tanh(MM(c_tm1))|9", "ct node index 9 out of range 1..2", 16,
                     id="ct_out_of_range"),
        pytest.param("Add(Tanh(MM(x_t)),MM(c_tm1))|2",
                     "ct subtree at node 2 does not use c_tm1", 29, id="suffix_without_cm1"),
        pytest.param("Add(@ct(Tanh(MM(x_t))),MM(c_tm1))",
                     "ct subtree at node 2 does not use c_tm1", 4, id="marker_without_cm1"),
        pytest.param("Tanh(", "unexpected end of input", 5, id="end_of_input"),
        pytest.param("Tanh(@foo(Add(x_t,h_tm1)))", "expected 'ct' after '@'", 6,
                     id="marker_name"),
        pytest.param("Tanh(@", "expected 'ct' after '@'", 6, id="marker_at_end"),
        pytest.param("Tanh(@ct(x_t))", "@ct must wrap an operator node", 5,
                     id="marker_on_source"),
        pytest.param("Tanh(,)", "unexpected token ','", 5, id="token"),
        pytest.param("Var('3')", "expected source name inside Var('...')", 5, id="var_name"),
        pytest.param("Tanh(Var('foo'))", "unknown source 'foo'", 10, id="var_source"),
        pytest.param("Tanh($q$)", "unknown source 'q'", 5, id="typeset_source"),
        pytest.param("Bogus(x_t)", "unknown token 'Bogus'", 0, id="operator"),
        pytest.param("Add(x_t)", "Add takes 2 arguments, got 1", 0, id="arity"),
    ])
    def test_error_message_and_position(self, text, message, pos):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"{message} (at position {pos})"
        assert info.value.pos == pos

    @pytest.mark.parametrize("text", [EXAMPLE_21 + "|6", "Tanh(@ct(Add(x_t,c_tm1)))",
                                      "Tanh(MM(Var('hm1')))"])
    def test_each_position_scanned_once(self, monkeypatch, text):
        scanned = []
        token_re = dsl._TOKEN_RE

        class Counted:
            def match(self, s, pos):
                scanned.append(pos)
                return token_re.match(s, pos)

        monkeypatch.setattr(dsl, "_TOKEN_RE", Counted())
        parse(text)
        assert sorted(scanned) == sorted(set(scanned))

    def test_ct_out_of_range(self):
        with pytest.raises(ParseError):
            parse("Tanh(MM(c_tm1))|9")

    def test_ct_without_cm1_in_subtree(self):
        with pytest.raises(ParseError):
            parse("Add(Tanh(MM(x_t)),MM(c_tm1))|2")


class TestRender:
    def test_leaf(self):
        assert render(parse("x_t")) == "x_t"

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            arch = random_tree(rng)
            taps = enumerate_ct_taps(arch)
            if taps and rng.random() < 0.5:
                arch = taps[rng.integers(len(taps))]
            assert parse(render(arch)) == arch

    def test_ct_suffix_rendered(self):
        arch = parse(EXAMPLE_21 + "|4")
        assert render(arch).endswith("|4")


class TestCanonicalize:
    def test_commutative_orderings_coincide(self):
        a = parse("Add(x_t,h_tm1)")
        b = parse("Add(h_tm1,x_t)")
        assert render(canonicalize(a)) == render(canonicalize(b))

    def test_order_sensitive_untouched(self):
        arch = parse("Sub(x_t,h_tm1)")
        assert render(canonicalize(arch)) == "Sub(x_t,h_tm1)"

    def test_gate3_values_sorted_gate_fixed(self):
        a = parse("Gate3(x_t,h_tm1,Sigmoid(MM(x_t)))")
        b = parse("Gate3(h_tm1,x_t,Sigmoid(MM(x_t)))")
        ca, cb = canonicalize(a), canonicalize(b)
        assert render(ca) == render(cb)
        assert ca.root.children[2].op is OpKind.SIGMOID

    def test_tanh_rnn_canonical_form(self):
        arch = canonicalize(builtin("tanh_rnn"))
        assert render(arch) == "Tanh(Add(MM(h_tm1),MM(x_t)))"

    def test_idempotent_random(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            arch = random_tree(rng)
            once = canonicalize(arch)
            assert canonicalize(once) == once

    def test_brute_force_permutations_small_trees(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 60:
            arch = random_tree(rng, max_depth=3)
            if analyze(arch).node_count > 8:
                continue
            reference = render(canonicalize(arch))
            for permuted in _commutative_permutations(arch.root):
                assert render(canonicalize(Architecture(permuted))) == reference
            checked += 1

    def test_ct_node_remapped(self):
        arch = parse(EXAMPLE_21 + "|6")
        canon = canonicalize(arch)
        original_tap = node_at_index(arch.root, arch.ct_node)
        new_tap = node_at_index(canon.root, canon.ct_node)
        assert render(Architecture(new_tap)) == render(
            canonicalize(Architecture(original_tap))
        )


def _commutative_permutations(node):
    if node.op.is_source:
        yield node
        return
    child_options = [list(_commutative_permutations(c)) for c in node.children]
    for combo in itertools.product(*child_options):
        if node.op.commutative:
            for perm in itertools.permutations(combo):
                yield ArchNode(node.op, tuple(perm))
        else:
            yield ArchNode(node.op, tuple(combo))


class TestAnalyze:
    def test_leaf(self):
        info = analyze(parse("x_t"))
        assert info.node_count == 0 and info.height == 0

    def test_tanh_rnn(self):
        info = analyze(builtin("tanh_rnn"))
        assert info.node_count == 4
        assert info.height == 2
        assert info.sources_used == frozenset({OpKind.X, OpKind.HM1})

    def test_gru_pinned_counts(self):
        # counted by hand from the published listing: 14 operator nodes
        info = analyze(builtin("gru"))
        assert info.node_count == 14
        assert info.height == 6

    def test_stable_under_canonicalization(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            arch = random_tree(rng)
            a, b = analyze(arch), analyze(canonicalize(arch))
            assert (a.node_count, a.height, a.sources_used) == (
                b.node_count, b.height, b.sources_used
            )


def canonical_trees():
    """Generated candidates (canonical as drawn), the builtins and the trees
    of parsed record texts, each canonicalized."""
    cands = generated_candidates()
    parsed = [parse(render(a)) for a in cands[::10]]
    return cands + [canonicalize(a) for a in parsed + [builtin(n) for n in builtin_names()]]


class TestCanonicalMark:
    """A root that `canonicalize` built keeps its canonical text; nothing
    else carries it."""

    def test_canonical_tree_is_not_walked_again(self, monkeypatch):
        trees = canonical_trees()
        fresh = [canonicalize(parse(render(t))) for t in trees]
        visited = count_canon(monkeypatch)
        for t, want in zip(trees, fresh):
            assert canonicalize(t) is t
            assert (arch_id(t), render(t)) == (arch_id(want), render(want))
            assert render(t) == render(Architecture(from_preorder(
                [n.op for n in t.root.walk()]), t.ct_node))
        assert visited == []

    def test_ct_variants_of_a_canonical_tree_are_canonical(self, monkeypatch):
        # each canonical root once, without its tap
        roots = {id(t.root): t.root for t in canonical_trees()}.values()
        variants = [v for root in roots for v in expand_ct_variants(Architecture(root))
                    if v.ct_node is not None]
        assert len(variants) > 100
        fresh = [canonicalize(parse(render(v))) for v in variants]
        visited = count_canon(monkeypatch)
        for v, want in zip(variants, fresh):
            assert canonicalize(v) is v
            assert v == want and render(v) == render(want)
        assert visited == []

    def test_built_and_replaced_trees_are_not_marked(self, monkeypatch):
        trees = canonical_trees()
        for t in trees:
            root = t.root
            assert root._canonical_text is not None
            # only the root carries the mark
            assert all(n._canonical_text is None for n in list(root.walk())[1:])
            kinds = [n.op for n in root.walk()]
            unmarked = [parse(render(t)).root, from_preorder(kinds), dataclasses.replace(root)]
            for other in unmarked:
                assert other == root and other._canonical_text is None
        visited = count_canon(monkeypatch)
        for t in trees[:20]:
            assert canonicalize(Architecture(dataclasses.replace(t.root), t.ct_node)) == t
        assert len(visited) == sum(len(list(t.root.walk())) for t in trees[:20])

    def test_mark_not_in_eq_hash_or_repr(self):
        assert "_canonical_text" not in {f.name for f in dataclasses.fields(ArchNode)}
        for t in canonical_trees():
            twin = Architecture(from_preorder([n.op for n in t.root.walk()]), t.ct_node)
            assert twin.root._canonical_text is None
            assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t)
            assert twin.root == t.root and hash(twin.root) == hash(t.root)
            assert repr(twin.root) == repr(t.root)


class TestEnumerateCtTaps:
    def test_example_three_taps(self):
        taps = enumerate_ct_taps(parse(EXAMPLE_21))
        assert len(taps) == 3
        tapped_ops = [node_at_index(t.root, t.ct_node).op for t in taps]
        assert tapped_ops == [OpKind.MULT, OpKind.ADD, OpKind.TANH]
        indices = [t.ct_node for t in taps]
        assert indices == sorted(indices)

    def test_no_cm1_empty(self):
        assert enumerate_ct_taps(builtin("tanh_rnn")) == []

    def test_minimum_size_rule(self):
        assert enumerate_ct_taps(parse("Tanh(MM(c_tm1))")) == []

    def test_taps_always_valid(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            arch = random_tree(rng)
            for tap in enumerate_ct_taps(arch):
                sub = node_at_index(tap.root, tap.ct_node)
                assert tap.ct_node != len(
                    [n for n in tap.root.walk() if not n.op.is_source]
                ) or sub is not tap.root
                assert analyze(Architecture(sub)).node_count >= 3


class TestBuiltins:
    def test_names(self):
        assert set(builtin_names()) == {"tanh_rnn", "gru", "lstm", "mgu", "bc3"}

    def test_unknown(self):
        with pytest.raises(ValueError):
            builtin("elman")

    def test_tanh_rnn(self):
        assert builtin("tanh_rnn") == parse("Tanh(Add(MM(x_t),MM(h_tm1)))")

    def test_bc3_ct_is_tanh(self):
        bc3 = builtin("bc3")
        assert bc3.ct_node is not None
        assert node_at_index(bc3.root, bc3.ct_node).op is OpKind.TANH
        assert analyze(bc3).node_count == 18

    def test_builtins_round_trip(self):
        for name in builtin_names():
            arch = builtin(name)
            assert parse(render(arch)) == arch

    @pytest.mark.parametrize("name,text,ident,ct_node", [
        ("tanh_rnn", "Tanh(Add(MM(x_t),MM(h_tm1)))", "0fdb79d40c79", None),
        ("gru", "Gate3(Tanh(Add(MM(x_t),Mult(MM(h_tm1),Sigmoid(Add(MM(h_tm1),MM(x_t)))))),"
                "h_tm1,Sigmoid(Add(MM(h_tm1),MM(x_t))))", "678b2edf89fc", None),
        ("lstm", "Mult(Sigmoid(Add(MM(x_t),MM(h_tm1))),Tanh(Add(Mult(Sigmoid(Add(MM(x_t),"
                 "MM(h_tm1))),c_tm1),Mult(Sigmoid(Add(MM(x_t),MM(h_tm1))),Tanh(Add(MM(x_t),"
                 "MM(h_tm1)))))))|18", "b8f6f333050e", 18),
        ("mgu", "Gate3(Tanh(Add(MM(x_t),MM(Mult(Sigmoid(Add(MM(h_tm1),MM(x_t))),h_tm1)))),"
                "h_tm1,Sigmoid(Add(MM(h_tm1),MM(x_t))))", "37a5ffbec647", None),
        ("bc3", "Gate3(Tanh(Gate3(MM(x_t),Mult(MM(Mult(MM(c_tm1),MM(x_t))),MM(x_t)),"
                "Sigmoid(Add(MM(x_t),MM(h_tm1))))),h_tm1,Sigmoid(Add(MM(x_t),MM(h_tm1))))|16",
         "fb2969648a4c", 16),
    ])
    def test_builtins_pinned(self, name, text, ident, ct_node):
        arch = builtin(name)
        assert render(arch) == text
        assert arch_id(arch) == ident
        assert arch.ct_node == ct_node


class TestStructuralViolations:
    def test_clean_gru(self):
        assert structural_violations(builtin("gru")) == []

    def test_stacked_identical(self):
        flags = structural_violations(parse("Tanh(MM(MM(x_t)))"))
        assert "stacked_identical" in flags

    def test_gate_not_sigmoid(self):
        flags = structural_violations(
            parse("Gate3(x_t,h_tm1,Tanh(MM(x_t)))")
        )
        assert "gate_not_sigmoid" in flags

    def test_missing_sources(self):
        flags = structural_violations(parse("Tanh(MM(x_t))"))
        assert "missing_h" in flags
        flags = structural_violations(parse("Tanh(MM(h_tm1))"))
        assert "missing_x" in flags


def multi_walk_violations(arch, max_nodes, max_height):
    """The former checker, one tree walk per rule, kept as the oracle."""
    flags = []
    root = arch.root
    sources = {n.op for n in root.walk() if n.op.is_source}
    if OpKind.X not in sources:
        flags.append("missing_x")
    if OpKind.HM1 not in sources:
        flags.append("missing_h")
    for n in root.walk():
        if n.op is OpKind.GATE3 and n.children[2].op is not OpKind.SIGMOID:
            if "gate_not_sigmoid" not in flags:
                flags.append("gate_not_sigmoid")
        for c in n.children:
            if not n.op.is_source and c.op is n.op:
                if "stacked_identical" not in flags:
                    flags.append("stacked_identical")
    if root.op.is_source:
        flags.append("bare_source")
    if operator_count(root) > max_nodes:
        flags.append("too_big")
    if tree_height(root) > max_height:
        flags.append("too_tall")
    if arch.ct_node is not None:
        tap = node_at_index(root, arch.ct_node)
        if not subtree_uses(tap, OpKind.CM1):
            flags.append("ct_without_cm1")
        if tap is root or operator_count(tap) < 3:
            flags.append("trivial_ct")
    return flags


class TestOnePassMatchesMultiWalk:
    # (max_nodes, max_height): the defaults, then bounds tight enough that
    # too_big and too_tall fire on raw trees
    LIMITS = [(21, 8), (6, 3)]

    @pytest.mark.parametrize("extended", [False, True])
    def test_same_flags_in_same_order(self, extended):
        cfg = GenConfig(extended_dsl=extended)
        rng = np.random.default_rng(11 + extended)
        plan = _draw_plan(cfg)
        seen_flags = set()
        n_taps = 0
        for _ in range(2500):
            arch = Architecture(from_preorder(reference_draw(plan, rng)[0]))
            variants = [arch]
            if subtree_uses(arch.root, OpKind.CM1):
                variants += enumerate_ct_taps(arch)
                # every operator node of a small tree too, so the c_t
                # flags fire
                n = len(numbered_operator_nodes(arch.root))
                if n <= 12:
                    variants += [Architecture(arch.root, i) for i in range(1, n + 1)]
            n_taps += len(variants) - 1
            for v in variants:
                for limits in self.LIMITS:
                    want = multi_walk_violations(v, *limits)
                    assert structural_violations(v, *limits) == want
                    seen_flags.update(want)
        assert n_taps > 1000
        assert seen_flags == {
            "missing_x", "missing_h", "gate_not_sigmoid",
            "stacked_identical", "bare_source", "too_big", "too_tall", "ct_without_cm1",
            "trivial_ct",
        }

    def test_gate_and_stacking_flags_keep_tree_order(self):
        gate_first = parse("Gate3(MM(MM(x_t)),h_tm1,Tanh(x_t))")
        stack_first = parse("Add(MM(MM(x_t)),Gate3(x_t,h_tm1,Tanh(h_tm1)))")
        for arch, want in [
            (gate_first, ["gate_not_sigmoid", "stacked_identical"]),
            (stack_first, ["stacked_identical", "gate_not_sigmoid"]),
        ]:
            assert structural_violations(arch) == want
            assert multi_walk_violations(arch, 21, 8) == want


def test_tree_height_counts_operator_edges():
    assert tree_height(parse("Tanh(Add(MM(x_t),MM(h_tm1)))").root) == 2
    assert tree_height(parse("x_t").root) == 0
