"""Graph compiler: fusion, oracle equivalence, stepping, divergence."""

import contextlib
import gc
import linecache
import traceback
import warnings

import numpy as np
import pytest

import rnndsl.compiler as compiler
import rnndsl.engine as en
import rnndsl.evaluator as ev
from rnndsl.compiler import (
    POSENC_ROWS,
    SLOT_CM1,
    SLOT_HM1,
    SLOT_POSENC,
    SLOT_X,
    SLOT_XM1,
    CellState,
    CompileError,
    DivergenceError,
    compile,
    count_source_mm_instructions,
    initial_state,
    run_sequence,
    run_steps,
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
    render,
)
from rnndsl.randgen import arch_id
from conftest import random_architectures
from sampling import reference_architectures

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

    def test_root_ct_tap_refused(self):
        # the parser takes the tap (a stored record must still load)
        arch = parse("Tanh(Add(MM(x_t),MM(c_tm1)))|4")
        assert numbered_operator_nodes(arch.root)[arch.ct_node - 1] is arch.root
        with pytest.raises(CompileError, match="^c_t tap must differ from the root$"):
            compile(arch, D, H)

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

    @pytest.mark.parametrize("rows", [0, 1, 5])
    def test_rows_not_whole_timesteps_refused(self, rows):
        prog = compile(builtin("tanh_rnn"), D, H)
        x = en.Tensor(np.ones((rows, D)))
        with pytest.raises(ValueError, match=f"^{rows} input rows are not T >= 1 batches of 2$"):
            run_steps(prog, x, initial_state(prog, 2))

    def test_empty_sequence_refused(self):
        with pytest.raises(ValueError, match="^empty sequence$"):
            run_sequence(compile(builtin("tanh_rnn"), D, H), [])

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
        fused = {ins.inputs[0]: len(ins.outputs) for ins in prog.instructions if ins.fused}
        assert fused == {SLOT_X: 4, SLOT_HM1: 4}

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

    # Mult of two MMs of 1e200 overflows; the Sigmoid over it is finite,
    # and the Div after it has an exactly zero denominator
    OVERFLOW = "Div(Sigmoid(Mult(MM(x_t),MM(x_t))),Sub(h_tm1,h_tm1))"

    def test_intermediate_overflow_named_before_later_div(self):
        prog = compile(parse(self.OVERFLOW), D, H, rng=np.random.default_rng(8))
        mult = next(i for i, ins in enumerate(prog.instructions) if ins.op is OpKind.MULT)
        x = en.Tensor(np.full((2, D), 1e200))
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            step(prog, x, initial_state(prog, 2))
        assert str(err.value) == f"non-finite value at instruction {mult} (Mult)"
        assert err.value.timestep == 0

    def test_overflow_timestep_with_finite_root(self):
        # the root stays finite, so only the check of every instruction sees it
        prog = compile(parse("Sigmoid(Add(Mult(MM(x_t),MM(x_t)),MM(h_tm1)))"), D, H,
                       rng=np.random.default_rng(8))
        mult = next(i for i, ins in enumerate(prog.instructions) if ins.op is OpKind.MULT)
        xs = _rand_xs(np.random.default_rng(9), 4)
        xs[2] = en.Tensor(np.full((2, D), 1e200))
        expected = f"non-finite value at instruction {mult} (Mult)"
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as err:
                run_steps(prog, en.concat(xs, axis=0), initial_state(prog, 2))
            assert (str(err.value), err.value.timestep) == (expected, 2)
            state = initial_state(prog, 2)
            with pytest.raises(DivergenceError) as err:
                for x in xs:
                    _, state = step(prog, x, state)
            assert (str(err.value), err.value.timestep) == (expected, 2)

    def test_train_and_score_reports_overflow_as_diverged(self, monkeypatch):
        raised = []

        def spy(*args):
            try:
                return run_steps(*args)
            except DivergenceError as e:
                raised.append(e)
                raise

        # inputs of 1e200 at every timestep
        monkeypatch.setattr(en, "init_embedding",
                            lambda rng, vocab, dim: np.full((vocab, dim), 1e200))
        monkeypatch.setattr(ev, "run_steps", spy)
        task = ev.make_task(ev.TaskSpec(kind="copy_memory", batch_size=4, train_size=8,
                                        valid_size=4, test_size=4))
        rec = ev.train_and_score(parse(self.OVERFLOW), task,
                                 ev.TrainConfig(epochs=1, hidden_size=D, failure_check_epoch=1))
        prog = compile(parse(self.OVERFLOW), D, D)
        mult = next(i for i, ins in enumerate(prog.instructions) if ins.op is OpKind.MULT)
        assert rec.status == "diverged"
        assert [(str(e), e.timestep) for e in raised] == [
            (f"non-finite value at instruction {mult} (Mult)", 0)
        ]

    def test_overflow_outside_errstate_is_divergence(self):
        # a later instruction's overflow warning must not replace the error
        prog = compile(parse(self.OVERFLOW), D, H, rng=np.random.default_rng(8))
        mult = next(i for i, ins in enumerate(prog.instructions) if ins.op is OpKind.MULT)
        x = en.Tensor(np.full((2, D), 1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                run_steps(prog, x, initial_state(prog, 2))
        assert str(err.value) == f"non-finite value at instruction {mult} (Mult)"


# op -> (forward, backward) array kernels, as in engine: forward(*inputs,
# *params) returns the value and what backward(g, inputs, saved) needs to
# give one gradient per input and parameter
_KERNELS = {
    OpKind.SIGMOID: (en.sigmoid_fwd, en.sigmoid_bwd),
    OpKind.TANH: (en.tanh_fwd, en.tanh_bwd),
    OpKind.RELU: (en.relu_fwd, en.relu_bwd),
    OpKind.SIN: (en.sin_fwd, en.sin_bwd),
    OpKind.COS: (en.cos_fwd, en.cos_bwd),
    OpKind.SELU: (en.selu_fwd, en.selu_bwd),
    OpKind.DIV: (en.safe_div_fwd, en.safe_div_bwd),
    OpKind.GATE3: (en.gate3_fwd, en.gate3_bwd),
    OpKind.LAYERNORM: (en.layer_norm_fwd, en.layer_norm_bwd),
    OpKind.ADD: (lambda a, b: (a + b, None), lambda g, ab, _: (g, g)),
    OpKind.SUB: (lambda a, b: (a - b, None), lambda g, ab, _: (g, -g)),
    OpKind.MULT: (lambda a, b: (a * b, None), lambda g, ab, _: (g * ab[1], g * ab[0])),
    OpKind.MM: (
        lambda x, w, b: (x @ w.T + b, None),
        lambda g, xwb, _: (g @ xwb[1], g.T @ xwb[0], g.sum(axis=0)),
    ),
}


def n_slots(prog):
    """The program's value slots: the sources' and one per instruction
    output, numbered from 0."""
    return 1 + max(o for ins in prog.instructions for o in ins.outputs)


def run_steps_interpreted(prog, x, state):
    """`run_steps` as an interpreter of the instruction list: a per-call plan
    of kernels and arrays run at every timestep, and a BPTT backward pass
    over the plan in reverse. The generated code must match it bit for bit."""
    hid, instrs, ct_slot = prog.hidden_size, prog.instructions, prog.ct_slot
    slots = n_slots(prog)
    if state.c is None and ct_slot is not None:
        for i, ins in enumerate(instrs):
            if SLOT_CM1 in ins.inputs:
                raise DivergenceError(f"instruction {i} reads an unwritten slot")
    batch = state.h.data.shape[0]
    steps = x.data.shape[0] // batch
    plan = []
    for ins in instrs:
        arrays = [prog.params[p].data for p in ins.params]
        if ins.fused:
            arrays = [np.concatenate(arrays[0::2], axis=0), np.concatenate(arrays[1::2], axis=0)]
        plan.append((_KERNELS[ins.op][0], ins.inputs, arrays, ins.outputs, ins.fused,
                     ins.op is OpKind.DIV))

    def raise_first_nonfinite(results, k):
        for i, res in enumerate(results):
            if not np.isfinite(res).all():
                raise DivergenceError(
                    f"non-finite value at instruction {i} ({instrs[i].op.value})",
                    timestep=state.t + k,
                )

    xx = np.concatenate([state.x_prev.data, x.data], axis=0)
    saving = en.grad_enabled()
    tape = []
    out = np.empty(((steps + (ct_slot is not None)) * batch, hid))
    h, c = state.h.data, None if state.c is None else state.c.data
    with np.errstate(all="ignore"):
        for k in range(steps):
            vals = [None] * slots
            vals[:4] = xx[(k + 1) * batch:(k + 2) * batch], xx[k * batch:(k + 1) * batch], h, c
            if prog.posenc_table is not None:
                row = prog.posenc_table[min(state.t + k, POSENC_ROWS - 1)]
                vals[SLOT_POSENC] = np.broadcast_to(row, (batch, hid)).copy()
            results = []
            for fwd, inputs, arrays, outputs, fused, is_div in plan:
                args = [vals[s] for s in inputs] + arrays
                if is_div and (args[1] == 0.0).any():
                    raise_first_nonfinite(results, k)
                    raise DivergenceError(
                        f"zero denominator in Div at instruction {len(results)}",
                        timestep=state.t + k,
                    )
                res, aux = fwd(*args)
                if fused:
                    for j, s in enumerate(outputs):
                        vals[s] = res[:, j * hid:(j + 1) * hid]
                else:
                    vals[outputs[0]] = res
                results.append(res)
                if saving:
                    tape.append((args, aux))
            if not np.isfinite(np.concatenate(results, axis=1)).all():
                raise_first_nonfinite(results, k)
            h = out[k * batch:(k + 1) * batch] = vals[prog.root_slot]
            if ct_slot is not None:
                c = vals[ct_slot]
    if ct_slot is not None:
        out[steps * batch:] = c

    def backward(g):
        rplan = [(i, _KERNELS[ins.op][1], ins.inputs, ins.outputs, ins.fused,
                  ins.op is OpKind.LAYERNORM) for i, ins in enumerate(instrs)][::-1]
        g_xx = np.zeros_like(xx)
        g_h, g_c = None, None if ct_slot is None else g[steps * batch:]
        acc = [None] * len(instrs)
        saved = iter(reversed(tape))
        for k in range(steps - 1, -1, -1):
            grads = [None] * slots
            rows = g[k * batch:(k + 1) * batch]
            grads[prog.root_slot] = rows if g_h is None else rows + g_h
            if ct_slot is not None:
                grads[ct_slot] = g_c
            for i, bwd, inputs, outputs, fused, is_ln in rplan:
                go = (np.concatenate([grads[s] for s in outputs], axis=1) if fused
                      else grads[outputs[0]])
                grads_in = bwd(go, *next(saved))
                for s, gs in zip(inputs, grads_in):
                    prev = grads[s]
                    grads[s] = gs if prev is None else prev + gs
                gps = grads_in[len(inputs):]
                if not gps:
                    continue
                if is_ln:
                    gps = [gp.sum(axis=0) for gp in gps]
                if acc[i] is None:
                    acc[i] = list(gps)
                else:
                    for a, b in zip(acc[i], gps):
                        a += b
            for slot, block in ((SLOT_X, k + 1), (SLOT_XM1, k)):
                if grads[slot] is not None:
                    g_xx[block * batch:(block + 1) * batch] += grads[slot]
            g_h, g_c = grads[SLOT_HM1], grads[SLOT_CM1]
        param_grads = {}
        for ins, gps in zip(instrs, acc):
            if gps is None:
                continue
            if ins.fused:
                gps = [gp[j * hid:(j + 1) * hid] for j in range(len(ins.outputs)) for gp in gps]
            param_grads.update(zip(ins.params, gps))
        return [g_xx[batch:], g_xx[:batch], g_h, g_c][:len(parents)] + [
            param_grads.get(name) for name in prog.params
        ]

    parents = tuple(t for t in (x, state.x_prev, state.h, state.c) if t is not None)
    node = en.Tensor(out, parents + tuple(prog.params.values()), backward)
    hs = node if ct_slot is None else en.take(node, slice(0, steps * batch))
    last = slice((steps - 1) * batch, steps * batch)
    return hs, CellState(
        h=hs if steps == 1 else en.take(hs, last),
        c=state.c if ct_slot is None else en.take(node, slice(steps * batch, None)),
        x_prev=x if steps == 1 else en.take(x, last),
        t=state.t + steps,
    )


def run_checked_per_instruction(prog, x, state):
    """The forward of `run_steps` with the finiteness of every instruction's
    output checked as soon as it is made, and a Div's zero denominator
    before it runs. Returns the h rows, [T*B, hidden_size]."""
    hid, batch = prog.hidden_size, state.h.data.shape[0]
    xx = np.concatenate([state.x_prev.data, x], axis=0)
    h, c = state.h.data, None if state.c is None else state.c.data
    hs = []
    for k in range(x.shape[0] // batch):
        vals = [None] * n_slots(prog)
        vals[:4] = xx[(k + 1) * batch:(k + 2) * batch], xx[k * batch:(k + 1) * batch], h, c
        if prog.posenc_table is not None:
            row = prog.posenc_table[min(state.t + k, POSENC_ROWS - 1)]
            vals[SLOT_POSENC] = np.broadcast_to(row, (batch, hid)).copy()
        for i, ins in enumerate(prog.instructions):
            args = [vals[s] for s in ins.inputs]
            params = [prog.params[p].data for p in ins.params]
            if ins.fused:
                params = [np.concatenate(params[0::2]), np.concatenate(params[1::2])]
            if ins.op is OpKind.DIV and (args[1] == 0.0).any():
                raise DivergenceError(f"zero denominator in Div at instruction {i}",
                                      timestep=state.t + k)
            res, _ = _KERNELS[ins.op][0](*args, *params)
            for j, s in enumerate(ins.outputs):
                vals[s] = res[:, j * hid:(j + 1) * hid]
            if not np.isfinite(res).all():
                raise DivergenceError(f"non-finite value at instruction {i} ({ins.op.value})",
                                      timestep=state.t + k)
        h = vals[prog.root_slot]
        hs.append(h)
        if prog.ct_slot is not None:
            c = vals[prog.ct_slot]
    return np.concatenate(hs)


class TestFirstDivergence:
    """`run_steps` checks finiteness once per timestep; it must name the
    same instruction and timestep as checking after every instruction."""

    @staticmethod
    def outcome(run):
        try:
            return run(), None
        except DivergenceError as e:
            return None, (str(e), e.timestep)

    def test_same_error_as_per_instruction_check(self):
        T, B = 4, 2
        cells = (reference_architectures(100, seed=61, allow_cm1=True)
                 + reference_architectures(100, seed=62, extended_dsl=True))
        rng = np.random.default_rng(63)
        seen = {"none": 0, "non-finite": 0, "zero": 0}
        ops, posenc = set(), 0
        for n, arch in enumerate(cells):
            prog = compile(arch, H, H, rng=np.random.default_rng(n))
            ops |= {ins.op for ins in prog.instructions}
            posenc += prog.posenc_table is not None
            x = rng.standard_normal((T * B, H))
            # from a random timestep on, plant huge inputs or exact zeros, or
            # both in different rows (a zero x_t row makes an MM of it exactly
            # zero where h and c are zero too, as at timestep 0)
            k, plant = rng.integers(T), rng.choice(4, p=[0.1, 0.4, 0.2, 0.3])
            huge = rng.choice([1e200, -1e200, 1e308])
            rows = x[k * B:].reshape(-1, B, H)
            if plant == 1:
                rows[:, rng.integers(B)] = huge
            elif plant == 2:
                rows[:] = 0.0
            elif plant == 3:
                rows[:, 0], rows[:, 1] = huge, 0.0
            with np.errstate(all="ignore"):
                want, want_err = self.outcome(
                    lambda: run_checked_per_instruction(prog, x, initial_state(prog, B)))
            for mode in (en.no_grad, contextlib.nullcontext):
                with mode():
                    got, got_err = self.outcome(
                        lambda: run_steps(prog, en.Tensor(x), initial_state(prog, B))[0].data)
                assert got_err == want_err, (render(arch), plant, k)
                if want_err is None:
                    np.testing.assert_array_equal(got, want)
            kind = "none" if want_err is None else (
                "zero" if want_err[0].startswith("zero") else "non-finite")
            seen[kind] += 1
        assert {OpKind.DIV, OpKind.LAYERNORM} <= ops and posenc
        assert sum(a.ct_node is not None for a in cells) >= 20
        assert min(seen.values()) >= 20, seen


class TestRunSteps:
    """One tape node over T timesteps against T chained `step` calls: the
    same terms are added in the same order, so the results agree bit for bit."""

    def test_matches_chained_steps_on_random_cells(self):
        T, B = 4, 3
        for n, arch in enumerate(random_architectures(50, seed=41, allow_cm1=True)):
            prog = compile(arch, H, H, rng=np.random.default_rng(n))
            srng = np.random.default_rng(100 + n)
            x = en.Parameter(srng.standard_normal((T * B, H)) * 0.5, "x")
            h0 = en.Parameter(srng.standard_normal((B, H)) * 0.5, "h0")
            c0 = en.Parameter(srng.standard_normal((B, H)) * 0.5, "c0")
            xp0 = en.Parameter(srng.standard_normal((B, H)) * 0.5, "xp0")
            w_h = en.Tensor(srng.standard_normal((T * B, H)))
            w_c = en.Tensor(srng.standard_normal((B, H)))
            leaves = prog.parameters() + [x, h0, c0, xp0]

            def run(chained):
                for p in leaves:
                    p.zero_grad()
                state = initial_state(prog, B)
                state.h, state.x_prev = h0, xp0
                if state.c is not None:
                    state.c = c0
                if chained:
                    hs = []
                    for t in range(T):
                        h, state = step(prog, en.take(x, slice(t * B, (t + 1) * B)), state)
                        hs.append(h)
                    hs = en.concat(hs, axis=0)
                else:
                    hs, state = run_steps(prog, x, state)
                loss = en.tsum(en.mul(hs, w_h))
                if state.c is not None:
                    loss = en.add(loss, en.tsum(en.mul(state.c, w_c)))
                loss.backward()
                c = None if state.c is None else state.c.data
                return hs.data, c, {p.name: p.grad for p in leaves}

            hs_a, c_a, g_a = run(chained=False)
            hs_b, c_b, g_b = run(chained=True)
            np.testing.assert_array_equal(hs_a, hs_b)
            if c_a is not None:
                np.testing.assert_array_equal(c_a, c_b)
            for name, ga in g_a.items():
                if ga is None:  # c0 of a cell without a c_t tap
                    assert g_b[name] is None, name
                else:
                    np.testing.assert_array_equal(ga, g_b[name], err_msg=name)


def same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


# fused groups over posenc and c_tm1, and a c_t tap that is a fused output
FUSED = ("Tanh(Add(Mult(MM(posenc),MM(x_t)),Mult(MM(posenc),MM(h_tm1))))",
         "Tanh(Add(@ct(MM(c_tm1)),Mult(MM(c_tm1),Add(MM(x_t),Mult(MM(x_t),MM(h_tm1))))))")


class TestGeneratedMatchesInterpreter:
    """The generated timestep code against the instruction interpreter it
    replaced: outputs, final state and every gradient, bit for bit."""

    @staticmethod
    def run(runner, prog, seed, T=3, B=2, t0=0):
        rng = np.random.default_rng(seed)
        x = en.Parameter(rng.standard_normal((T * B, prog.input_size)) * 0.5, "x")
        h0 = en.Parameter(rng.standard_normal((B, prog.hidden_size)) * 0.5, "h0")
        c0 = en.Parameter(rng.standard_normal((B, prog.hidden_size)) * 0.5, "c0")
        xp0 = en.Parameter(rng.standard_normal((B, prog.input_size)) * 0.5, "xp0")
        w_h = en.Tensor(rng.standard_normal((T * B, prog.hidden_size)))
        w_c = en.Tensor(rng.standard_normal((B, prog.hidden_size)))
        leaves = prog.parameters() + [x, h0, c0, xp0]
        for p in leaves:
            p.zero_grad()
        state = CellState(h=h0, c=c0 if prog.ct_slot is not None else None, x_prev=xp0, t=t0)
        try:
            hs, state = runner(prog, x, state)
        except DivergenceError as e:
            return (str(e), e.timestep)
        got = [hs.data, state.h.data, state.x_prev.data, state.t]
        if state.c is not None:
            got.append(state.c.data)
        if en.grad_enabled():
            loss = en.tsum(en.mul(hs, w_h))
            if state.c is not None:
                loss = en.add(loss, en.tsum(en.mul(state.c, w_c)))
            loss.backward()
            got += [p.grad for p in leaves]
        return got

    def check(self, prog, seed, **kw):
        for mode in (contextlib.nullcontext, en.no_grad):
            with mode():
                want = self.run(run_steps_interpreted, prog, seed, **kw)
                got = self.run(run_steps, prog, seed, **kw)
            if isinstance(want, tuple):  # a divergence: the same message and timestep
                assert got == want
                continue
            assert len(got) == len(want)
            for a, b in zip(got, want):  # arrays, the final t, and None for an unread c0
                assert same_bits(a, b) if isinstance(b, np.ndarray) else a == b

    def test_random_cells_fused_and_not(self):
        cells = (random_architectures(100, seed=71, allow_cm1=True)
                 + random_architectures(100, seed=72, extended_dsl=True)
                 + [builtin(n) for n in ("gru", "lstm", "bc3", "mgu", "tanh_rnn")]
                 + [parse(a) for a in (EVERY_OP, *FUSED)])
        ops, posenc, ct, fused, seen = set(), 0, 0, 0, 0
        for n, arch in enumerate(cells):
            for fuse in (True, False):
                prog = compile(arch, H, H, fuse=fuse, rng=np.random.default_rng(n))
                ops |= {ins.op for ins in prog.instructions}
                posenc += prog.posenc_table is not None
                ct += prog.ct_slot is not None
                fused += any(ins.fused for ins in prog.instructions)
                self.check(prog, seed=1000 + n, T=3 + n % 3, t0=n % 2 * (POSENC_ROWS - 2))
                seen += 1
        assert seen >= 400 and ops == {k for k in OpKind if not k.is_source}
        assert posenc >= 20 and ct >= 40 and fused >= 7

    def test_two_compiles_and_replaced_arrays(self):
        """Each of two live compiles of one architecture binds its own
        program's arrays, also after they are replaced."""
        rng = np.random.default_rng(3)
        progs = [compile(builtin("lstm"), H, H, rng=rng) for _ in range(2)]
        for _ in range(2):
            for prog in progs:
                self.check(prog, seed=4)
                for p in prog.parameters():
                    p.data = p.data * 1.5


class TestGeneratedSource:
    @pytest.mark.parametrize("kernel", ["tanh_fwd", "tanh_bwd"])
    def test_traceback_shows_the_generated_line(self, kernel, monkeypatch):
        arch = builtin("tanh_rnn")
        prog = compile(arch, D, H)

        def boom(*args):
            raise ZeroDivisionError("planted")

        monkeypatch.setattr(en, kernel, boom)
        x = en.Parameter(np.ones((4, D)), "x")
        with pytest.raises(ZeroDivisionError) as err:
            en.tsum(run_steps(prog, x, initial_state(prog, 2))[0]).backward()
        frame = next(f for f in traceback.extract_tb(err.tb)
                     if f.filename == f"<cell:{arch_id(arch)}>")
        assert frame.name == ("forward" if kernel.endswith("fwd") else "backward")
        assert f"en.{kernel}(" in frame.line
        assert frame.line == prog.source.splitlines()[frame.lineno - 1].strip()
        assert frame.line in "".join(traceback.format_exception(err.value))

    def test_lines_leave_linecache_with_the_program(self):
        gc.collect()  # programs of this id that earlier tests left in cycles
        arch = parse(FUSED[0])
        prog = compile(arch, H, H)
        name = f"<cell:{arch_id(arch)}>"
        prog.bind
        assert linecache.getline(name, 1) == "def bind(P):\n"
        del prog
        assert name not in linecache.cache

    def test_sixteen_batches_generate_the_source_once(self, monkeypatch):
        made = []
        source = compiler._timestep_source

        def counting(prog):
            made.append(prog)
            return source(prog)

        monkeypatch.setattr(compiler, "_timestep_source", counting)
        task = ev.make_task(ev.TaskSpec(kind="copy_memory", batch_size=4, train_size=64,
                                        valid_size=4, test_size=4))
        assert len(task.train) == 16
        rec = ev.train_and_score(builtin("gru"), task, ev.TrainConfig(epochs=1, hidden_size=D,
                                                                         failure_check_epoch=1))
        assert rec.status == "ok" and len(made) == 1


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
        ops = {ins.op for ins in prog.instructions}
        assert ops == {k for k in OpKind if not k.is_source}
        # posenc feeds one MM, a plain one; MM(Tanh(...)) reads no source
        fused = {ins.inputs[0]: len(ins.outputs) for ins in prog.instructions if ins.fused}
        assert fused == {SLOT_X: 3, SLOT_HM1: 2, SLOT_XM1: 2}
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
