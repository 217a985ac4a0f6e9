"""Graph compiler: fusion, oracle equivalence, stepping, divergence."""

import numpy as np
import pytest

import rnndsl.engine as en
from rnndsl.compiler import (
    CompileError,
    DivergenceError,
    compile,
    count_source_mm_instructions,
    initial_state,
    run_sequence,
    step,
)
from rnndsl.dsl import (
    Architecture,
    OpKind,
    builtin,
    canonicalize,
    canonicalize_with_map,
    index_of_node,
    numbered_operator_nodes,
    parse,
)
from conftest import random_architectures

H, D = 6, 4


def _rand_xs(rng, n, batch=2, dim=D):
    return [en.Tensor(rng.standard_normal((batch, dim)) * 0.5) for _ in range(n)]


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _mm_params(prog, index):
    names = prog.params_for_node_index(index)
    w = prog.params[names[0]].data
    b = prog.params[names[1]].data
    return w, b


class TestCompileBasics:
    def test_bare_source_refused(self):
        with pytest.raises(CompileError):
            compile(parse("x_t"), D, H)

    def test_cm1_without_tap_refused(self):
        with pytest.raises(CompileError):
            compile(parse("Tanh(Add(MM(x_t),MM(c_tm1)))"), D, H)

    def test_zero_weights_give_zero_output(self, rng):
        prog = compile(builtin("tanh_rnn"), D, H, rng=rng)
        for p in prog.parameters():
            p.data[...] = 0.0
        h, _ = step(prog, en.Tensor(rng.standard_normal((3, D))), initial_state(prog, 3))
        np.testing.assert_array_equal(h.data, np.zeros((3, H)))

    def test_deterministic_trace(self, rng):
        xs = _rand_xs(rng, 10)
        prog = compile(builtin("gru"), D, H, rng=np.random.default_rng(5))
        _, _, t1 = run_sequence(prog, xs, collect_trace=True)
        _, _, t2 = run_sequence(prog, xs, collect_trace=True)
        np.testing.assert_array_equal(t1, t2)

    def test_length_one_equals_single_step(self, rng):
        prog = compile(builtin("tanh_rnn"), D, H, rng=rng)
        x = en.Tensor(np.random.default_rng(1).standard_normal((2, D)))
        outs, _, _ = run_sequence(prog, [x])
        h, _ = step(prog, x, initial_state(prog, 2))
        np.testing.assert_array_equal(outs[0].data, h.data)

    def test_posenc_table_shared_per_width_and_read_only(self):
        arch = parse("Add(Tanh(MM(x_t)),Mult(posenc,Tanh(MM(h_tm1))))")
        a = compile(arch, H, H, rng=np.random.default_rng(1))
        b = compile(arch, H, H, rng=np.random.default_rng(2))
        assert a.posenc_table is b.posenc_table
        assert not a.posenc_table.flags.writeable
        assert compile(builtin("gru"), D, H).posenc_table is None


class TestFusion:
    def test_lstm_fuses_to_two_source_mms(self):
        prog = compile(builtin("lstm"), D, H, fuse=True)
        assert count_source_mm_instructions(prog) == 2

    def test_fused_groups_cover_x_and_h(self):
        prog = compile(builtin("lstm"), D, H, fuse=True)
        assert set(prog.fused_groups) == {OpKind.X, OpKind.HM1}
        assert len(prog.fused_groups[OpKind.X]) == 4
        assert len(prog.fused_groups[OpKind.HM1]) == 4

    @pytest.mark.parametrize("name", ["gru", "lstm", "bc3"])
    def test_fused_unfused_agree_builtins(self, name, rng):
        self._check_fusion(builtin(name), rng)

    def test_fused_unfused_agree_random(self):
        # equal input and hidden widths so elementwise mixes of x_t with
        # hidden-width values stay shape-compatible, as in the evaluator
        rng = np.random.default_rng(31)
        for arch in random_architectures(25, seed=31, allow_cm1=True):
            self._check_fusion(arch, rng, dim=H)

    @staticmethod
    def _check_fusion(arch, rng, dim=D):
        fused = compile(arch, dim, H, fuse=True, rng=np.random.default_rng(9))
        plain = compile(arch, dim, H, fuse=False, rng=np.random.default_rng(9))
        for name, p in fused.params.items():
            plain.params[name].data[...] = p.data
        xs = _rand_xs(rng, 50, dim=dim)
        with en.no_grad():
            a, _, _ = run_sequence(fused, xs)
            b, _, _ = run_sequence(plain, xs)
        worst = max(np.abs(x.data - y.data).max() for x, y in zip(a, b))
        assert worst < 1e-10


class TestOracles:
    def test_gru_matches_hand_written(self, rng):
        """The compiled published GRU listing against a direct transcription
        of the standard GRU equations with shared weights."""
        arch = builtin("gru")
        prog = compile(arch, D, H, rng=np.random.default_rng(2))
        # node indices in the compiled (canonical) tree
        root = prog.arch.root
        update_gate = root.children[2]          # sigmoid z
        cand = root.children[0]                 # Tanh candidate
        add_c = cand.children[0]
        mm_xc = next(n for n in add_c.children if n.op is OpKind.MM)
        gated = next(n for n in add_c.children if n.op is OpKind.MULT)
        mm_hc = gated.children[0]
        reset = gated.children[1]
        add_r = reset.children[0]
        mm_hr = next(
            n for n in add_r.children if n.children[0].op is OpKind.HM1
        )
        mm_xr = next(
            n for n in add_r.children if n.children[0].op is OpKind.X
        )
        add_z = update_gate.children[0]
        mm_hz = next(n for n in add_z.children if n.children[0].op is OpKind.HM1)
        mm_xz = next(n for n in add_z.children if n.children[0].op is OpKind.X)

        def params(node):
            return _mm_params(prog, index_of_node(root, node))

        wxc, bxc = params(mm_xc)
        whc, bhc = params(mm_hc)
        whr, bhr = params(mm_hr)
        wxr, bxr = params(mm_xr)
        whz, bhz = params(mm_hz)
        wxz, bxz = params(mm_xz)

        for _ in range(100):
            x = rng.standard_normal((1, D))
            h = rng.standard_normal((1, H))
            z = _sigmoid(x @ wxz.T + bxz + h @ whz.T + bhz)
            r = _sigmoid(x @ wxr.T + bxr + h @ whr.T + bhr)
            cand_v = np.tanh(x @ wxc.T + bxc + r * (h @ whc.T + bhc))
            expect = z * cand_v + (1 - z) * h
            st = initial_state(prog, 1)
            st.h = en.Tensor(h)
            got, _ = step(prog, en.Tensor(x), st)
            assert np.abs(got.data - expect).max() < 1e-10

    def test_bc3_matches_equations(self, rng):
        """BC3 against explicit numpy update equations.

        Canonical tree:
          h_t = Gate3(c_t, h_tm1, sig2)          with Gate3(a,b,g) = g*a+(1-g)*b
          c_t = Tanh(Gate3(MMc(x), r, sig1))     (the |16 memory tap)
          r   = Mult(MMd(Mult(MMe(c_tm1), MMf(x))), MMg(x))
          sig1 = Sigmoid(MMh(x) + MMi(h)),  sig2 = Sigmoid(MMa(x) + MMb(h))
        """
        arch = builtin("bc3")
        prog = compile(arch, D, H, rng=np.random.default_rng(3))
        root = prog.arch.root

        def mm_of(node, src):
            return next(
                n for n in node.walk()
                if n.op is OpKind.MM and n.children[0].op is src
            )

        def params(node):
            return _mm_params(prog, index_of_node(root, node))

        tanh_branch = root.children[0]
        sig2 = root.children[2]
        inner_gate = tanh_branch.children[0]
        mm_c = inner_gate.children[0]
        mult = inner_gate.children[1]
        mm_d = mult.children[0]
        mm_e, mm_f = mm_d.children[0].children
        mm_g = mult.children[1]
        sig1 = inner_gate.children[2]

        wa, ba = params(mm_of(sig2, OpKind.X))
        wb, bb = params(mm_of(sig2, OpKind.HM1))
        wc, bc = params(mm_c)
        wd, bd = params(mm_d)
        we, be = params(mm_e)
        wf, bf = params(mm_f)
        wg, bg = params(mm_g)
        wh_, bh_ = params(mm_of(sig1, OpKind.X))
        wi, bi = params(mm_of(sig1, OpKind.HM1))

        for _ in range(100):
            x = rng.standard_normal((1, D))
            h = rng.standard_normal((1, H))
            c = rng.standard_normal((1, H))
            g1 = _sigmoid(x @ wh_.T + bh_ + h @ wi.T + bi)
            m = (c @ we.T + be) * (x @ wf.T + bf)
            r = (m @ wd.T + bd) * (x @ wg.T + bg)
            ct = np.tanh(g1 * (x @ wc.T + bc) + (1 - g1) * r)
            g2 = _sigmoid(x @ wa.T + ba + h @ wb.T + bb)
            expect_h = g2 * ct + (1 - g2) * h

            st = initial_state(prog, 1)
            st.h = en.Tensor(h)
            st.c = en.Tensor(c)
            got, new_st = step(prog, en.Tensor(x), st)
            assert np.abs(got.data - expect_h).max() < 1e-10
            assert np.abs(new_st.c.data - ct).max() < 1e-10


class TestCanonicalizationTransparency:
    def test_outputs_match_with_mapped_params(self):
        # equal widths: random candidates may mix x-derived and h-derived
        # operands elementwise, which only compiles when input == hidden
        rng = np.random.default_rng(41)
        for arch in random_architectures(15, seed=41):
            prog_a = compile(arch, H, H, rng=np.random.default_rng(6))
            new_root, mapping, new_ct = canonicalize_with_map(arch)
            canon = Architecture(new_root, new_ct)
            prog_b = compile(canon, H, H, rng=np.random.default_rng(7))
            # copy parameters across, matching nodes by original identity
            for old_node in numbered_operator_nodes(arch.root):
                if id(old_node) not in mapping:
                    continue
                old_idx = index_of_node(arch.root, old_node)
                new_idx = index_of_node(new_root, mapping[id(old_node)])
                old_names = prog_a.params_for_node_index(old_idx)
                new_names = prog_b.params_for_node_index(new_idx)
                for on, nn in zip(old_names, new_names):
                    prog_b.params[nn].data[...] = prog_a.params[on].data
            xs = _rand_xs(rng, 10, dim=H)
            with en.no_grad():
                a, _, _ = run_sequence(prog_a, xs)
                b, _, _ = run_sequence(prog_b, xs)
            worst = max(np.abs(x.data - y.data).max() for x, y in zip(a, b))
            assert worst < 1e-10


class TestDivergence:
    # Sub of a source from itself is exactly zero (two MM nodes over the
    # same source carry independent parameters, so their difference is not)
    def test_exact_zero_denominator(self):
        arch = parse("Div(Tanh(MM(x_t)),Sub(h_tm1,h_tm1))")
        prog = compile(arch, D, H, rng=np.random.default_rng(8))
        x = en.Tensor(np.random.default_rng(9).standard_normal((1, D)))
        with pytest.raises(DivergenceError):
            run_sequence(prog, [x])

    def test_divergence_carries_timestep(self, rng):
        arch = parse("Div(Tanh(MM(x_t)),Sub(h_tm1,h_tm1))")
        prog = compile(arch, D, H, rng=np.random.default_rng(8))
        xs = _rand_xs(rng, 3, batch=1)
        with pytest.raises(DivergenceError) as err:
            run_sequence(prog, xs)
        div = next(i for i, ins in enumerate(prog.instructions) if ins.op is OpKind.DIV)
        assert err.value.timestep == 0
        assert str(err.value) == f"zero denominator in Div at instruction {div}"


class TestGradientsEndToEnd:
    @pytest.mark.parametrize("name", ["tanh_rnn", "gru", "bc3"])
    def test_builtin_cells(self, name):
        rng = np.random.default_rng(51)
        prog = compile(builtin(name), 3, 3, rng=rng)
        xs = _rand_xs(rng, 3, batch=1, dim=3)

        def loss():
            outs, _, _ = run_sequence(prog, xs)
            total = en.tsum(outs[0])
            for h in outs[1:]:
                total = en.add(total, en.tsum(h))
            return total

        assert en.gradient_check(loss, prog.parameters()) < 1e-4

    def test_posenc_bound_to_timestep(self, rng):
        arch = parse("Add(Tanh(MM(x_t)),Mult(posenc,Tanh(MM(h_tm1))))")
        prog = compile(arch, H, H, rng=rng)
        xs = _rand_xs(rng, 4, dim=H)
        outs, _, _ = run_sequence(prog, xs)
        assert len(outs) == 4


# every instruction kind and operator in one cell: fused MM groups over
# x_t (3), h_tm1 (2), x_tm1 (2) and posenc (1), an unfused MM of a Tanh,
# and a LayerNorm c_t tap read back through c_tm1
_CT = "LayerNorm(Add(Mult(Sigmoid(Add(MM(x_t),MM(h_tm1))),c_tm1),SeLU(MM(Tanh(MM(x_tm1))))))"
EVERY_OP = (
    f"Gate3(Cos(@ct({_CT})),Div(Sin(MM(posenc)),Add(Sigmoid(MM(x_tm1)),ReLU(MM(x_t)))),"
    "Sigmoid(Sub(MM(h_tm1),MM(x_t))))"
)


class TestEveryOperatorStep:
    @staticmethod
    def _prog():
        return compile(parse(EVERY_OP), H, H, rng=np.random.default_rng(61))

    def test_covers_every_kind(self):
        prog = self._prog()
        kinds = {ins.kind for ins in prog.instructions}
        assert kinds == {"fused_mm", "mm", "unary", "binary", "gate3", "layernorm"}
        ops = {ins.op for ins in prog.instructions}
        assert {OpKind.LAYERNORM, OpKind.DIV, OpKind.SELU, OpKind.SIN, OpKind.COS,
                OpKind.RELU, OpKind.GATE3} <= ops
        assert set(prog.fused_groups) == {OpKind.X, OpKind.HM1, OpKind.XM1, OpKind.POSENC}
        assert prog.ct_slot is not None

    def test_gradients_of_parameters_inputs_and_state(self):
        prog = self._prog()
        rng = np.random.default_rng(62)

        def param(name, shape):
            return en.Parameter(rng.standard_normal(shape) * 0.5, name)

        xs = [param(f"x{t}", (2, H)) for t in range(3)]
        h0, c0, xp0 = param("h0", (2, H)), param("c0", (2, H)), param("xp0", (2, H))

        def loss():
            st = initial_state(prog, 2)
            st.h, st.c, st.x_prev = h0, c0, xp0
            outs, last, _ = run_sequence(prog, xs, init=st)
            total = en.tsum(last.c)
            for h in outs:
                total = en.add(total, en.tsum(h))
            return total

        checked = prog.parameters() + xs + [h0, c0, xp0]
        assert en.gradient_check(loss, checked) < 1e-4

    def test_one_step_is_at_most_three_tensors(self, monkeypatch):
        prog = self._prog()
        state = initial_state(prog, 2)
        x = en.Tensor(np.random.default_rng(63).standard_normal((2, H)))
        made = []
        init = en.Tensor.__init__

        def counting(obj, *args, **kwargs):
            made.append(obj)
            init(obj, *args, **kwargs)

        monkeypatch.setattr(en.Tensor, "__init__", counting)
        h, new_state = step(prog, x, state)
        assert len(made) <= 3
        assert h in made and new_state.c in made
