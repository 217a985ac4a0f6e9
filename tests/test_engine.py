"""Numeric engine: primitives, gradients, optimizers, checkpoints."""

import math

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
            return en.tsum(en.mul(en.slice_last(joined, 2, 6),
                                  en.slice_last(joined, 1, 5)))

        check(f, [a, b])

    def test_lstm_cell(self, rng):
        x = en.Parameter(rng.standard_normal((2, 3)), "x")
        hc = en.Parameter(rng.standard_normal((2, 10)), "hc")
        W = en.Parameter(rng.standard_normal((20, 3)), "W")
        U = en.Parameter(rng.standard_normal((20, 5)), "U")
        b = en.Parameter(rng.standard_normal(20), "b")
        check(lambda: en.tsum(en.lstm_cell(x, hc, W, U, b)), [x, hc, W, U, b])

    def test_lstm_cell_matches_step(self, rng):
        w = 5
        x = en.Tensor(rng.standard_normal((2, 3)))
        hc = en.Tensor(rng.standard_normal((2, 2 * w)))
        W = en.Tensor(rng.standard_normal((4 * w, 3)))
        U = en.Tensor(rng.standard_normal((4 * w, w)))
        b = en.Tensor(rng.standard_normal(4 * w))
        h = en.slice_last(hc, 0, w)
        c = en.slice_last(hc, w, 2 * w)
        z = en.add(en.add(en.linear(x, W), en.linear(h, U)), b)
        i = en.sigmoid(en.slice_last(z, 0, w))
        f = en.sigmoid(en.slice_last(z, w, 2 * w))
        o = en.sigmoid(en.slice_last(z, 2 * w, 3 * w))
        u = en.tanh(en.slice_last(z, 3 * w, 4 * w))
        c2 = en.add(en.mul(f, c), en.mul(i, u))
        h2 = en.mul(o, en.tanh(c2))
        fused = en.lstm_cell(x, hc, W, U, b).data
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

    def test_adam_first_step_closed_form(self):
        p = en.Parameter(np.array([0.0]), "w")
        p.accumulate(np.array([1.0]))
        cfg = en.OptimizerConfig(kind="adam", learning_rate=0.001)
        opt = en.Optimizer([p], cfg)
        opt.step()
        # bias-corrected m̂ = v̂ = 1 on the first step
        expected = -cfg.learning_rate * 1.0 / (1.0 + cfg.eps)
        np.testing.assert_allclose(p.data, [expected], rtol=1e-12)

    def test_divergence_signalled(self):
        p = en.Parameter(np.array([1.0]), "w")
        p.accumulate(np.array([np.inf]))
        opt = en.Optimizer([p], en.OptimizerConfig(kind="sgd", learning_rate=1.0))
        assert not opt.step()

    def test_grads_zeroed_after_step(self):
        p = en.Parameter(np.array([1.0]), "w")
        p.accumulate(np.array([1.0]))
        opt = en.Optimizer([p], en.OptimizerConfig(kind="sgd", learning_rate=0.1))
        opt.step()
        assert p.grad is None or not np.any(p.grad)


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
        with pytest.raises(KeyError, match="p1"):
            en.load_params(path, qs)
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
