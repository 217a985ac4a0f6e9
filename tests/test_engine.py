"""Numeric engine: primitives, gradients, optimizers, checkpoints."""

import math
import re
import struct

import numpy as np
import pytest

import rnndsl.engine as en


def check(f, params, tol=1e-6):
    assert en.gradient_check(f, params) < tol


class TestPrimitiveValues:
    def test_sigmoid_tanh_analytic(self):
        assert float(en.sigmoid(en.Tensor([0.0])).data[0]) == 0.5
        assert float(en.tanh(en.Tensor([0.0])).data[0]) == 0.0

    def test_sub_self_is_zero(self):
        a = en.Tensor([1.5, -2.0, 3.0])
        np.testing.assert_array_equal(en.sub(a, a).data, np.zeros(3))

    def test_gate3_equal_mix(self):
        x = en.Tensor([2.0])
        y = en.Tensor([4.0])
        f = en.Tensor([0.5])
        np.testing.assert_allclose(en.gate3(x, y, f).data, [3.0])

    def test_safe_div_clamps_near_zero(self):
        out = en.safe_div(en.Tensor([1.0]), en.Tensor([1e-12]))
        np.testing.assert_allclose(out.data, [1e7])
        out = en.safe_div(en.Tensor([1.0]), en.Tensor([-1e-12]))
        np.testing.assert_allclose(out.data, [-1e7])

    def test_selu_constants(self):
        assert en.SELU_LAMBDA == pytest.approx(1.0507009873554805)
        assert en.SELU_ALPHA == pytest.approx(1.6732632423543772)
        x = en.Tensor([1.0])
        np.testing.assert_allclose(en.selu(x).data, [en.SELU_LAMBDA])

    def test_layer_norm_standardizes(self):
        x = en.Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
        g = en.Tensor(np.ones(4))
        b = en.Tensor(np.zeros(4))
        out = en.layer_norm(x, g, b).data
        assert abs(out.mean()) < 1e-12
        assert out.std() == pytest.approx(1.0, abs=1e-4)

    def test_positional_encoding(self):
        table = en.positional_encoding_table(64, 8)
        assert table.shape == (64, 8)
        np.testing.assert_allclose(table[0, 0::2], 0.0, atol=1e-12)
        np.testing.assert_allclose(table[0, 1::2], 1.0, atol=1e-12)
        assert table[3, 0] == pytest.approx(math.sin(3.0))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            en.add(en.Tensor(np.zeros((2, 3))), en.Tensor(np.zeros((2, 4))))


class TestGradients:
    def test_mm(self, rng):
        w = en.Parameter(rng.standard_normal((4, 3)), "W")
        b = en.Parameter(rng.standard_normal(4), "b")
        x = en.Tensor(rng.standard_normal((2, 3)))
        check(lambda: en.tsum(en.linear(x, w, b)), [w, b])

    def test_gate3_with_sigmoid_gate(self, rng):
        a = en.Parameter(rng.standard_normal((2, 4)), "a")
        b = en.Parameter(rng.standard_normal((2, 4)), "b")
        c = en.Parameter(rng.standard_normal((2, 4)), "c")
        check(lambda: en.tsum(en.gate3(a, b, en.sigmoid(c))), [a, b, c])

    @pytest.mark.parametrize(
        "fn", [en.sigmoid, en.tanh, en.relu, en.sin, en.cos, en.selu, en.exp]
    )
    def test_unary(self, fn, rng):
        # offset away from ReLU's kink at zero
        p = en.Parameter(rng.standard_normal((3, 5)) + 2.0, "p")
        check(lambda: en.tsum(fn(p)), [p])

    def test_layer_norm(self, rng):
        x = en.Parameter(rng.standard_normal((2, 6)), "x")
        g = en.Parameter(np.ones(6), "g")
        b = en.Parameter(np.zeros(6), "b")
        check(lambda: en.tsum(en.layer_norm(x, g, b)), [x, g, b], tol=1e-4)

    def test_safe_div_away_from_guard(self, rng):
        a = en.Parameter(rng.standard_normal((2, 4)), "a")
        b = en.Parameter(rng.standard_normal((2, 4)) + 3.0, "b")
        check(lambda: en.tsum(en.safe_div(a, b)), [a, b])

    def test_softmax_cross_entropy(self, rng):
        logits = en.Parameter(rng.standard_normal((4, 6)), "logits")
        targets = np.array([0, 3, 5, 2])
        check(lambda: en.cross_entropy(logits, targets), [logits])

    def test_embedding(self, rng):
        table = en.Parameter(rng.standard_normal((9, 4)), "emb")
        ids = np.array([1, 1, 8, 0])
        check(lambda: en.tsum(en.embedding(table, ids)), [table])

    def test_concat_slice(self, rng):
        a = en.Parameter(rng.standard_normal((2, 3)), "a")
        b = en.Parameter(rng.standard_normal((2, 5)), "b")

        def f():
            joined = en.concat([a, b])
            return en.tsum(en.mul(en.take(joined, (..., slice(2, 6))),
                                  en.take(joined, (..., slice(1, 5)))))

        check(f, [a, b])

    def test_lstm_kernels(self, rng):
        w = 5
        inputs = [rng.standard_normal(s) for s in ((2, 3), (2, 2 * w), (4 * w, 3), (4 * w, w), 4 * w)]
        weights = rng.standard_normal((2, 2 * w))

        def loss(*arrays):
            return float((en.lstm_fwd(*arrays)[0] * weights).sum())

        _, saved = en.lstm_fwd(*inputs)
        grads = en.lstm_bwd(weights, inputs, saved)
        for arr, grad in zip(inputs, grads):
            assert grad.shape == arr.shape
            flat = arr.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + 1e-6
                hi = loss(*inputs)
                flat[k] = orig - 1e-6
                lo = loss(*inputs)
                flat[k] = orig
                assert grad.reshape(-1)[k] == pytest.approx((hi - lo) / 2e-6, abs=1e-6)

    def test_lstm_fwd_matches_gate_ops(self, rng):
        w = 5
        x = en.Tensor(rng.standard_normal((2, 3)))
        hc = en.Tensor(rng.standard_normal((2, 2 * w)))
        W = en.Tensor(rng.standard_normal((4 * w, 3)))
        U = en.Tensor(rng.standard_normal((4 * w, w)))
        b = en.Tensor(rng.standard_normal(4 * w))

        def block(t, k):
            return en.take(t, (..., slice(k * w, (k + 1) * w)))

        z = en.add(en.add(en.linear(x, W), en.linear(block(hc, 0), U)), b)
        i, f, o = (en.sigmoid(block(z, k)) for k in range(3))
        u = en.tanh(block(z, 3))
        c2 = en.add(en.mul(f, block(hc, 1)), en.mul(i, u))
        h2 = en.mul(o, en.tanh(c2))
        fused = en.lstm_fwd(x.data, hc.data, W.data, U.data, b.data)[0]
        np.testing.assert_array_equal(fused[:, :w], h2.data)
        np.testing.assert_array_equal(fused[:, w:], c2.data)

    def test_constant_has_zero_error(self):
        p = en.Parameter(np.ones(3), "p")
        assert en.gradient_check(lambda: en.Tensor(np.array(1.0)), [p]) == 0.0

    def test_non_finite_gradient_reported(self):
        p = en.Parameter(np.full(2, 1000.0), "p")  # exp overflows to inf

        def f():
            return en.tsum(en.exp(p))

        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            en.gradient_check(f, [p])


class TestUnaryKernels:
    """A forward kernel saves only what it already has; the backward kernel
    derives the local derivative with the formula the forward pass used to
    apply, so gradients keep their bits."""

    OLD_DERIVATIVES = {
        "sigmoid": lambda x, y: y * (1.0 - y),
        "tanh": lambda x, y: 1.0 - y * y,
        "relu": lambda x, y: (x > 0).astype(np.float64),
        "sin": lambda x, y: np.cos(x),
        "cos": lambda x, y: -np.sin(x),
        "exp": lambda x, y: y,
        "selu": lambda x, y: en.SELU_LAMBDA * np.where(
            x > 0, 1.0, en.SELU_ALPHA * np.exp(np.minimum(x, 0.0))),
    }

    @pytest.mark.parametrize("name", sorted(OLD_DERIVATIVES))
    def test_saved_values_and_gradient_bits(self, name, rng):
        x = rng.standard_normal((3, 4)) * 2.0
        g = rng.standard_normal((3, 4))
        out, saved = getattr(en, f"{name}_fwd")(x)
        if name in ("sigmoid", "tanh", "exp"):
            assert saved is out
        elif name == "selu":
            assert saved[0].dtype == bool and saved[1].shape == x.shape
        else:
            assert saved is None
        (grad,) = getattr(en, f"{name}_bwd")(g, (x,), saved)
        np.testing.assert_array_equal(grad, g * self.OLD_DERIVATIVES[name](x, out))


def embedding_grads_per_timestep(table, ids, g):
    """The table's gradients of a [T, B] lookup, last timestep first, each
    built in its own zero table: the reference for `en.embedding`."""
    b = ids.shape[1]
    for t in range(len(ids) - 1, -1, -1):
        full = np.zeros_like(table)
        np.add.at(full, ids[t], g[t * b:(t + 1) * b])
        yield full


class TestEmbeddingBackward:
    # ids repeat within a timestep and across timesteps; g holds signed zeros
    IDS = np.array([[1, 1, 4], [4, 0, 1], [6, 6, 6], [1, 2, 1], [3, 3, 0]])

    def _g(self, rng):
        g = rng.standard_normal((self.IDS.size, 5))
        g[::4, 1] = -0.0
        return g

    def test_tables_match_per_timestep_construction(self, rng):
        table = en.Parameter(rng.standard_normal((7, 5)), "emb")
        g = self._g(rng)
        got = list(en.embedding(table, self.IDS)._backward(g))
        want = list(embedding_grads_per_timestep(table.data, self.IDS, g))
        assert len(got) == len(self.IDS)
        assert [a.tobytes() for a in got] == [w.tobytes() for w in want]

    def test_parameter_gradient_bits(self, rng):
        table = en.Parameter(rng.standard_normal((7, 5)), "emb")
        g = self._g(rng)
        en.tsum(en.mul(en.embedding(table, self.IDS), en.Tensor(g))).backward()
        want = None
        for full in embedding_grads_per_timestep(table.data, self.IDS, g):
            want = full.copy() if want is None else want + full
        assert table.grad.tobytes() == want.tobytes()


class TestNoGrad:
    def test_no_graph_built(self):
        p = en.Parameter(np.ones((2, 2)), "p")
        with en.no_grad():
            out = en.mul(p, p)
        assert out._parents == ()

    def test_restored(self):
        with en.no_grad():
            pass
        assert en.grad_enabled()


class TestAccumulate:
    def test_first_gradient_is_copied_not_aliased(self):
        g = np.array([[1.0, 2.0]])
        a = en.Parameter(np.zeros((1, 2)), "a")
        b = en.Parameter(np.zeros((1, 2)), "b")
        a.accumulate(g)
        b.accumulate(g)
        a.grad += 5.0
        assert b.grad.tolist() == [[1.0, 2.0]]
        assert g.tolist() == [[1.0, 2.0]]

    def test_first_gradient_broadcasts_to_data_shape(self):
        t = en.Parameter(np.zeros((3, 2)), "t")
        t.accumulate(np.array([1.0, -2.0]))
        assert t.grad.shape == (3, 2)
        assert t.grad.tolist() == [[1.0, -2.0]] * 3
        t.accumulate(np.ones((3, 2)))
        assert t.grad.tolist() == [[2.0, -1.0]] * 3


class TestGradientsOnlyOnParameters:
    """Inner gradients live for one backward call; only parameters keep one."""

    def test_second_backward_through_a_node_counts_once(self):
        p = en.Parameter(np.array([1.0]), "p")
        x = en.mul(p, en.Tensor(2.0))
        en.mul(x, en.Tensor(3.0)).backward()
        assert p.grad.tolist() == [6.0]
        p.zero_grad()
        en.mul(x, en.Tensor(4.0)).backward()
        assert p.grad.tolist() == [8.0]

    def test_shared_node_gives_each_loss_its_own_gradient(self):
        p = en.Parameter(np.array([0.5, -1.0]), "p")
        shared = en.tanh(en.mul(p, p))
        losses = [en.tsum(en.mul(shared, en.Tensor(c))) for c in (1.0, -3.0)]
        separate = []
        for loss in losses:
            p.zero_grad()
            loss.backward()
            separate.append(p.grad.copy())
        dshared = 2.0 * p.data * (1.0 - np.tanh(p.data ** 2) ** 2)
        np.testing.assert_allclose(separate[0], dshared, rtol=1e-12)
        np.testing.assert_allclose(separate[1], -3.0 * dshared, rtol=1e-12)
        # backpropagated one after the other without zeroing, they add up
        p.zero_grad()
        for loss in losses:
            loss.backward()
        np.testing.assert_allclose(p.grad, separate[0] + separate[1], rtol=1e-12)

    def test_tensor_leaf_holds_no_gradient(self):
        p = en.Parameter(np.ones((2, 3)), "p")
        x = en.Tensor(np.full((2, 3), 2.0))
        inner = en.mul(p, x)
        loss = en.tsum(inner)
        loss.backward()
        np.testing.assert_array_equal(p.grad, x.data)
        for t in (x, inner, loss):
            assert not hasattr(t, "grad")

    def test_broadcast_parent_gets_summed_gradient(self):
        b = en.Parameter(np.zeros(3), "b")
        x = en.Tensor(np.ones((4, 3)))
        en.tsum(en.add(x, b)).backward()
        assert b.grad.tolist() == [4.0, 4.0, 4.0]


class TestOptimizer:
    def test_sgd_one_step(self):
        p = en.Parameter(np.array([1.0]), "w")
        p.accumulate(np.array([1.0]))
        opt = en.Optimizer([p], en.OptimizerConfig(kind="sgd", learning_rate=0.1))
        assert opt.step()
        np.testing.assert_allclose(p.data, [0.9])

    def test_clip_value(self):
        p = en.Parameter(np.array([1.0]), "w")
        p.accumulate(np.array([1.0]))
        opt = en.Optimizer(
            [p],
            en.OptimizerConfig(kind="sgd", learning_rate=1.0, clip_value=0.075),
        )
        opt.step()
        np.testing.assert_allclose(p.data, [1.0 - 0.075])

    @pytest.mark.parametrize("field", ["clip_value"])
    @pytest.mark.parametrize("bound", [0.0, -1.0])
    def test_clip_bound_not_above_zero_refused(self, field, bound):
        # a clip value of 0 zeroes every gradient
        with pytest.raises(ValueError, match=f"OptimizerConfig.{field} must be > 0, got {bound}"):
            en.OptimizerConfig(**{field: bound})

    def test_adam_first_step_closed_form(self):
        p = en.Parameter(np.array([0.0]), "w")
        p.accumulate(np.array([1.0]))
        cfg = en.OptimizerConfig(kind="adam", learning_rate=0.001)
        opt = en.Optimizer([p], cfg)
        opt.step()
        # bias-corrected m̂ = v̂ = 1 on the first step
        expected = -cfg.learning_rate * 1.0 / (1.0 + en.ADAM_EPS)
        np.testing.assert_allclose(p.data, [expected], rtol=1e-12)

    def test_divergence_signalled(self):
        p = en.Parameter(np.array([1.0]), "w")
        p.accumulate(np.array([np.inf]))
        opt = en.Optimizer([p], en.OptimizerConfig(kind="sgd", learning_rate=1.0))
        assert not opt.step()

    @pytest.mark.parametrize("cfg", [
        en.OptimizerConfig(kind="sgd", learning_rate=0.1, clip_value=0.5),
        en.OptimizerConfig(kind="adam", learning_rate=0.01),
    ], ids=["sgd-clip-value", "adam"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_refuses_the_step(self, cfg, bad):
        rng = np.random.default_rng(0)
        params = [en.Parameter(rng.normal(size=s), f"p{i}") for i, s in enumerate([(3, 2), (4,)])]
        opt = en.Optimizer(params, cfg)
        for p in params:
            p.accumulate(rng.normal(size=p.shape))
        assert opt.step()
        before = ([p.data.copy() for p in params], {k: m.copy() for k, m in opt._m.items()},
                  {k: v.copy() for k, v in opt._v.items()}, opt._t)
        for p in params:
            p.accumulate(rng.normal(size=p.shape))
        params[1].grad[2] = bad
        # clip_value turns an infinite gradient into a finite one
        refused = not (bad == np.inf and cfg.clip_value is not None)
        assert opt.step() is not refused
        if refused:
            assert [p.data.tobytes() for p in params] == [d.tobytes() for d in before[0]]
            assert {k: m.tobytes() for k, m in opt._m.items()} == \
                {k: m.tobytes() for k, m in before[1].items()}
            assert {k: v.tobytes() for k, v in opt._v.items()} == \
                {k: v.tobytes() for k, v in before[2].items()}
            assert opt._t == before[3]
        assert all(p.grad is None for p in params)

    def test_grads_zeroed_after_step(self):
        p = en.Parameter(np.array([1.0]), "w")
        p.accumulate(np.array([1.0]))
        opt = en.Optimizer([p], en.OptimizerConfig(kind="sgd", learning_rate=0.1))
        opt.step()
        assert p.grad is None or not np.any(p.grad)

    @pytest.mark.parametrize("cfg", [
        en.OptimizerConfig(kind="adam", learning_rate=0.01, l2=1e-2, clip_value=0.5),
        en.OptimizerConfig(kind="adam", learning_rate=0.003),
        en.OptimizerConfig(kind="sgd", learning_rate=0.1, l2=1e-3, clip_value=0.5),
    ], ids=["adam-l2-clip-value", "adam", "sgd"])
    def test_in_place_step_matches_formula_bit_for_bit(self, cfg):
        rng = np.random.default_rng(0)
        shapes = [(3, 4), (5,), (2, 3, 2), (1,)]
        params = [en.Parameter(rng.normal(size=s), f"p{i}") for i, s in enumerate(shapes)]
        want = [p.data.copy() for p in params]
        m = [np.zeros_like(w) for w in want]
        v = [np.zeros_like(w) for w in want]
        opt = en.Optimizer(params, cfg)
        for t in range(1, 11):
            grads = [rng.normal(size=w.shape) if i != (t % len(want)) else None
                     for i, w in enumerate(want)]
            for p, g in zip(params, grads):
                if g is not None:
                    p.accumulate(g)
            assert opt.step()
            # the update before it ran in place, as the oracle
            grads = [g for g in grads if g is not None]
            if cfg.clip_value is not None:
                grads = [np.clip(g, -cfg.clip_value, cfg.clip_value) for g in grads]
            grads = iter(grads)
            for i, w in enumerate(want):
                g = next(grads) if i != (t % len(want)) else np.zeros_like(w)
                if cfg.l2:
                    g = g + cfg.l2 * w
                if cfg.kind == "sgd":
                    w -= cfg.learning_rate * g
                    continue
                m[i][...] = en.ADAM_BETA1 * m[i] + (1 - en.ADAM_BETA1) * g
                v[i][...] = en.ADAM_BETA2 * v[i] + (1 - en.ADAM_BETA2) * g * g
                mhat = m[i] / (1 - en.ADAM_BETA1 ** t)
                vhat = v[i] / (1 - en.ADAM_BETA2 ** t)
                w -= cfg.learning_rate * mhat / (np.sqrt(vhat) + en.ADAM_EPS)
            for p, w in zip(params, want):
                assert p.grad is None
                assert p.data.tobytes() == w.tobytes()


class TestDropout:
    def test_eval_identity(self, rng):
        x = en.Tensor(rng.standard_normal((5, 5)))
        out = en.dropout(x, 0.5, rng, train=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_train_mean_preserving(self):
        rng = np.random.default_rng(3)
        x = en.Tensor(np.ones((200, 500)))
        out = en.dropout(x, 0.2, rng, train=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.01)


def checkpoint_bytes(header: bytes) -> bytes:
    """A checkpoint whose header is the given bytes, with no payload."""
    return b"RNDL\x01\x00" + struct.pack("<Q", len(header)) + header


class TestCheckpoints:
    def test_array_round_trip(self, tmp_path, rng):
        arrays = {
            "a": rng.standard_normal((3, 4)),
            "b": rng.standard_normal(7),
        }
        path = tmp_path / "ckpt.bin"
        en.save_arrays(path, arrays)
        loaded = en.load_arrays(path)
        assert set(loaded) == {"a", "b"}
        for k in arrays:
            np.testing.assert_array_equal(loaded[k], arrays[k])

    def test_param_round_trip(self, tmp_path, rng):
        ps = [en.Parameter(rng.standard_normal((2, 2)), f"p{i}") for i in range(3)]
        path = tmp_path / "params.bin"
        en.save_params(path, ps)
        qs = [en.Parameter(np.zeros((2, 2)), f"p{i}") for i in range(3)]
        en.load_params(path, qs)
        for p, q in zip(ps, qs):
            np.testing.assert_array_equal(p.data, q.data)

    def test_magic_header(self, tmp_path):
        path = tmp_path / "c.bin"
        en.save_arrays(path, {"x": np.zeros(1)})
        with open(path, "rb") as fh:
            assert fh.read(6) == b"RNDL\x01\x00"

    def test_missing_parameter_leaves_others_untouched(self, tmp_path):
        path = tmp_path / "one.bin"
        en.save_arrays(path, {"p0": np.ones((2, 2))})
        qs = [en.Parameter(np.zeros((2, 2)), f"p{i}") for i in range(2)]
        with pytest.raises(ValueError) as exc:
            en.load_params(path, qs)
        assert str(exc.value) == f"{path}: checkpoint missing parameter p1"
        np.testing.assert_array_equal(qs[0].data, np.zeros((2, 2)))

    def test_truncated_payload_names_parameter_and_byte(self, tmp_path, rng):
        path = tmp_path / "cut.bin"
        en.save_arrays(path, {"a": rng.standard_normal(3), "b": rng.standard_normal(4)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match=rf"'b' .* ends at byte {len(blob) - 8}"):
            en.load_arrays(path)

    def test_truncated_header_gives_byte(self, tmp_path):
        path = tmp_path / "cut.bin"
        en.save_arrays(path, {"a": np.zeros(3)})
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ValueError, match="truncated at byte 20"):
            en.load_arrays(path)

    @pytest.mark.parametrize("blob,message", [
        (b"RNDX\x01\x00" + bytes(8), r"not a rnndsl checkpoint: no b'RNDL\\x01\\x00' at byte 0$"),
        (b"RNDL\x01\x00\x05\x00\x00", "truncated at byte 9, inside the header length$"),
        (checkpoint_bytes(b"{not json"), "malformed header at byte 14: Expecting property name"),
        (checkpoint_bytes(b"[1, 2]"), "malformed header at byte 14: 'list' object has no "
                                      "attribute 'items'$"),
        (checkpoint_bytes(b'{"p0": {"offset": 0}}'), "malformed header at byte 14: 'shape'$"),
        (checkpoint_bytes(b'{"p0": {"shape": [-2, 2], "offset": 0}}'),
         "malformed header at byte 14: negative size$"),
    ], ids=["not-a-checkpoint", "cut-header-length", "header-not-json", "header-a-list",
            "meta-without-shape", "negative-size"])
    def test_refused_at_its_byte_with_no_parameter_changed(self, tmp_path, blob, message):
        path = tmp_path / "bad.bin"
        path.write_bytes(blob)
        qs = [en.Parameter(np.full((2, 2), 3.0), "p0")]
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            en.load_params(path, qs)
        np.testing.assert_array_equal(qs[0].data, np.full((2, 2), 3.0))

    def test_shape_mismatch_leaves_every_parameter_untouched(self, tmp_path):
        path = tmp_path / "shapes.bin"
        en.save_arrays(path, {"p0": np.ones((2, 2)), "p1": np.ones(3)})
        qs = [en.Parameter(np.zeros((2, 2)), "p0"), en.Parameter(np.zeros(2), "p1")]
        with pytest.raises(ValueError) as exc:
            en.load_params(path, qs)
        assert str(exc.value) == f"{path}: shape mismatch for p1: checkpoint (3,), parameter (2,)"
        assert not any(q.data.any() for q in qs)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        path = tmp_path / "c.bin"
        en.save_arrays(path, {"x": np.arange(3.0)})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            en.save_arrays(path, {"x": np.arange(3.0), "y": np.array(["not", "numbers"])})
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["c.bin"]


class TestInit:
    def test_mm_weight_range(self, rng):
        w = en.init_mm_weight(rng, 32, 8)
        bound = 1 / math.sqrt(8)
        assert w.shape == (32, 8)
        assert (np.abs(w) <= bound).all()

    def test_embedding_range(self, rng):
        e = en.init_embedding(rng, 11, 5)
        assert (np.abs(e) <= 0.04).all()
