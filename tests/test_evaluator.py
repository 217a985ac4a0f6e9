"""Task construction and candidate training / failure classification."""

import hashlib
import math

import numpy as np
import pytest

import rnndsl.engine as en
import rnndsl.evaluator as ev
from rnndsl.compiler import DivergenceError, initial_state, step
from rnndsl.dsl import builtin, parse
from rnndsl.evaluator import (
    COPY_DELAY,
    COPY_LEN,
    COPY_SYMBOLS,
    ArchPerfRecord,
    SequenceModel,
    TaskSpec,
    TrainConfig,
    make_task,
    train_and_score,
)


def small_copy_task(seed=1):
    return make_task(
        TaskSpec(
            kind="copy_memory",
            seed=seed,
            batch_size=16,
            train_size=64,
            valid_size=32,
            test_size=32,
        )
    )


def quick_cfg(**overrides):
    base = dict(epochs=2, hidden_size=12, failure_check_epoch=1, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestMakeTask:
    def test_copy_memory_deterministic(self):
        a = make_task(TaskSpec(kind="copy_memory", seed=1))
        b = make_task(TaskSpec(kind="copy_memory", seed=1))
        for (xa, ya), (xb, yb) in zip(a.train, b.train):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    def test_copy_memory_shapes(self):
        task = small_copy_task()
        length = COPY_LEN + COPY_DELAY + 1 + COPY_LEN
        for x, y in task.train:
            assert x.shape[1] == length
            assert task.vocab_size == COPY_SYMBOLS + 2

    def test_char_lm_vocab_covers_corpus(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("abcabcabc" * 300)
        task = make_task(
            TaskSpec(
                kind="char_lm",
                corpus_path=str(corpus),
                batch_size=4,
                train_size=1600,
                valid_size=500,
                test_size=500,
            )
        )
        assert task.vocab_size <= 3

    @pytest.mark.parametrize("corpus_path", [None, ""], ids=["none", "empty"])
    def test_char_lm_without_corpus_refused(self, corpus_path):
        with pytest.raises(ValueError, match=r"^TaskSpec.kind 'char_lm' needs a corpus_path$"):
            TaskSpec(kind="char_lm", corpus_path=corpus_path)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_task(TaskSpec(kind="word_lm"))

    def test_empty_corpus(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        with pytest.raises(ValueError):
            make_task(TaskSpec(kind="char_lm", corpus_path=str(empty)))


class TestTrainConfig:
    def test_epoch_ordering_enforced(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, failure_check_epoch=3)


class TestTrainAndScore:
    def test_tanh_rnn_beats_marginal_baseline(self):
        task = small_copy_task()
        rec = train_and_score(builtin("tanh_rnn"), task, quick_cfg(epochs=10))
        assert rec.status == "ok"
        # the entropy of the training targets' marginal distribution
        counts = sum(np.bincount(y.reshape(-1), minlength=task.vocab_size)
                     for _, y in task.train)
        p = counts[counts > 0] / counts.sum()
        assert rec.valid_metric < float(-(p * np.log(p)).sum())

    def test_forced_singularity_diverges(self):
        task = small_copy_task()
        rec = train_and_score(
            parse("Div(h_tm1,Sub(h_tm1,h_tm1))"), task, quick_cfg()
        )
        assert rec.status == "diverged"

    def test_zero_epoch_budget_times_out(self):
        task = small_copy_task()
        rec = train_and_score(builtin("tanh_rnn"), task, quick_cfg(epochs=0))
        assert rec.status == "timeout"
        assert rec.epochs_run == 0

    def test_invalid_architecture_recorded(self):
        task = small_copy_task()
        rec = train_and_score(
            parse("Tanh(Add(MM(x_t),MM(c_tm1)))"), task, quick_cfg()
        )
        assert rec.status == "invalid"

    def test_determinism_bitwise(self):
        task = small_copy_task()
        a = train_and_score(builtin("tanh_rnn"), task, quick_cfg())
        b = train_and_score(builtin("tanh_rnn"), task, quick_cfg())
        assert a.to_json() == b.to_json()

    def test_every_evaluation_yields_record(self):
        task = small_copy_task()
        cells = [
            "Tanh(Add(MM(x_t),MM(h_tm1)))",
            "Div(h_tm1,Sub(h_tm1,h_tm1))",
            "Tanh(Add(MM(x_t),MM(c_tm1)))",
        ]
        records = [train_and_score(parse(c), task, quick_cfg()) for c in cells]
        assert len(records) == 3
        assert all(isinstance(r, ArchPerfRecord) for r in records)

    def test_record_json_round_trip(self):
        task = small_copy_task()
        rec = train_and_score(builtin("tanh_rnn"), task, quick_cfg())
        assert ArchPerfRecord.from_json(rec.to_json()) == rec

    def test_failure_threshold(self, monkeypatch):
        monkeypatch.setattr(ev, "FAILURE_PPL", 1.0 + 1e-9)
        rec = train_and_score(builtin("tanh_rnn"), small_copy_task(), quick_cfg())
        assert rec.status == "failed_threshold"

    def test_ok_metric_is_log_perplexity(self):
        task = small_copy_task()
        rec = train_and_score(builtin("tanh_rnn"), task, quick_cfg())
        assert rec.valid_metric is not None
        assert 0.0 < rec.valid_metric < math.log(500.0)


class TestDivergenceExits:
    """Each way a divergence ends `train_and_score`'s training loop, and a
    test pass that diverges after it."""

    @staticmethod
    def steps_taken(monkeypatch):
        """The result of every optimizer step from now on."""
        taken = []
        step = en.Optimizer.step

        def watched(self):
            taken.append(step(self))
            return taken[-1]

        monkeypatch.setattr(en.Optimizer, "step", watched)
        return taken

    @staticmethod
    def nth_call_replaced(monkeypatch, name, n, replace):
        """SequenceModel.<name>'s n-th call (from 1) returns replace(model,
        *args) instead."""
        calls = []
        method = getattr(SequenceModel, name)

        def nth(self, *args):
            calls.append(args)
            return replace(self, *args) if len(calls) == n else method(self, *args)

        monkeypatch.setattr(SequenceModel, name, nth)

    def test_overflowing_update(self, monkeypatch):
        # lr * (g + l2 * p) overflows in the first step
        taken = self.steps_taken(monkeypatch)
        cfg = quick_cfg(optimizer=en.OptimizerConfig(kind="sgd", learning_rate=1e300, l2=1e10))
        rec = train_and_score(builtin("tanh_rnn"), small_copy_task(), cfg)
        assert (rec.status, rec.epochs_run, rec.valid_metric) == ("diverged", 0, None)
        assert taken == [False]

    def test_huge_learning_rate(self, monkeypatch):
        # the first step is finite; the loss of the next batch is not
        taken = self.steps_taken(monkeypatch)
        cfg = quick_cfg(optimizer=en.OptimizerConfig(kind="sgd", learning_rate=1e300))
        rec = train_and_score(builtin("tanh_rnn"), small_copy_task(), cfg)
        assert (rec.status, rec.epochs_run, rec.valid_metric) == ("diverged", 0, None)
        assert taken == [True]

    def test_non_finite_training_loss(self, monkeypatch):
        task = small_copy_task()
        # the first batch of the second epoch
        self.nth_call_replaced(monkeypatch, "loss", len(task.train) + 1,
                               lambda model, x, y: en.Tensor(np.array(math.inf)))
        rec = train_and_score(builtin("tanh_rnn"), task, quick_cfg())
        assert (rec.status, rec.epochs_run, rec.valid_metric) == ("diverged", 1, None)

    def test_non_finite_validation_loss(self, monkeypatch):
        # the second epoch's validation pass
        self.nth_call_replaced(monkeypatch, "mean_loss", 2, lambda model, batches: math.nan)
        rec = train_and_score(builtin("tanh_rnn"), small_copy_task(), quick_cfg())
        assert (rec.status, rec.epochs_run, rec.valid_metric) == ("diverged", 2, None)

    def test_diverging_test_pass_is_ok_without_test_metric(self, monkeypatch):
        task = small_copy_task()
        want = train_and_score(builtin("tanh_rnn"), task, quick_cfg())
        assert want.status == "ok" and want.test_metric is not None

        def diverges(model, batches):
            assert batches is task.test
            raise DivergenceError("test pass")

        # two validation passes, then the test pass
        self.nth_call_replaced(monkeypatch, "mean_loss", 3, diverges)
        rec = train_and_score(builtin("tanh_rnn"), task, quick_cfg())
        assert rec.status == "ok" and rec.test_metric is None
        assert (rec.valid_metric, rec.epochs_run) == (want.valid_metric, want.epochs_run)


class TestSequenceModelLoss:
    """One output head and one cross-entropy over every timestep of a batch."""

    def _model(self, hidden=3):
        task = small_copy_task()
        model = SequenceModel(builtin("gru"), task.vocab_size, hidden, np.random.default_rng(5))
        x, y = task.train[0]
        return model, x, y

    def test_gradient_check(self):
        model, x, y = self._model()
        x, y = x[:2, :6], y[:2, :6]

        def loss():
            return model.loss(x, y)

        assert en.gradient_check(loss, model.params) < 1e-4

    def test_value_is_mean_of_per_timestep_cross_entropies(self):
        model, x, y = self._model(hidden=5)
        loss = model.loss(x, y)
        loss.backward()
        got = {q.name: q.grad for q in model.params}
        for q in model.params:
            q.zero_grad()

        # oracle: per timestep an embedding lookup, a step of the cell, the
        # tied head and a cross-entropy; the loss is their mean
        batch, seq = x.shape
        state = initial_state(model.cell, batch)
        total = None
        for t in range(seq):
            h = en.embedding(model.emb, x[:, t])
            h, state = step(model.cell, h, state)
            ce = en.cross_entropy(en.linear(h, model.emb, model.out_b), y[:, t])
            total = ce if total is None else en.add(total, ce)
        oracle = en.mul(total, en.Tensor(1.0 / seq))
        assert abs(float(loss.data) - float(oracle.data)) < 1e-12
        oracle.backward()
        for q in model.params:
            np.testing.assert_allclose(got[q.name], q.grad, rtol=0, atol=1e-12,
                                       err_msg=q.name)

    def test_desk_gru_evaluation_tensor_count(self, monkeypatch):
        task = make_task(TaskSpec(kind="copy_memory", seed=3, batch_size=16,
                                  train_size=128, valid_size=64, test_size=64))
        cfg = TrainConfig(epochs=2, hidden_size=16, failure_check_epoch=1, seed=0)
        made = [0]
        init = en.Tensor.__init__

        def counting(obj, *args, **kwargs):
            made[0] += 1
            init(obj, *args, **kwargs)

        monkeypatch.setattr(en.Tensor, "__init__", counting)
        rec = train_and_score(builtin("gru"), task, cfg)
        assert rec.status == "ok"
        assert made[0] <= 200


# (valid_metric, test_metric) of each builtin on the desk copy-memory task
# (task seed 3, batch 16, 128/64/64 sequences; 2 epochs at hidden size 16,
# failure check after epoch 1, seed 0), pinned so that a change to the cell
# step's arithmetic shows
PINNED_BUILTIN_METRICS = {
    "bc3": (1.0836203573432086, 1.0847853455498921),
    "gru": (1.0454133234168306, 1.0472423622748286),
    "lstm": (1.0640338558821876, 1.0655508607277246),
    "mgu": (1.007139548601577, 1.0098644765530191),
    "tanh_rnn": (1.0146898160410898, 1.0181528070879022),
}


class TestPinnedBuiltinMetrics:
    @pytest.mark.parametrize("name", sorted(PINNED_BUILTIN_METRICS))
    def test_desk_metrics_reproduced(self, name):
        task = make_task(TaskSpec(kind="copy_memory", seed=3, batch_size=16,
                                  train_size=128, valid_size=64, test_size=64))
        cfg = TrainConfig(epochs=2, hidden_size=16, failure_check_epoch=1, seed=0)
        rec = train_and_score(builtin(name), task, cfg)
        valid, test = PINNED_BUILTIN_METRICS[name]
        assert rec.status == "ok"
        assert abs(rec.valid_metric - valid) < 1e-10
        assert abs(rec.test_metric - test) < 1e-10


def desk_task_and_cfg():
    task = make_task(TaskSpec(kind="copy_memory", seed=3, batch_size=16,
                              train_size=128, valid_size=64, test_size=64))
    return task, TrainConfig(epochs=2, hidden_size=16, failure_check_epoch=1, seed=0)


class TestPinnedTrainingBits:
    """sha256 pins of whole records and of parameter gradients, so that any
    change to the order of a float sum in training shows."""

    def test_desk_records_pinned(self):
        from rnndsl.dsl import builtin_names
        from rnndsl.randgen import GenConfig
        from sampling import reference_batch

        task, cfg = desk_task_and_cfg()
        archs = [builtin(name) for name in builtin_names()]
        archs += reference_batch(GenConfig(seed=0), 10, rng=np.random.default_rng((0, 3)))
        archs += reference_batch(GenConfig(seed=0, extended_dsl=True), 10,
                                 rng=np.random.default_rng((0, 4)))
        recs = [train_and_score(a, task, cfg) for a in archs]
        assert {r.status for r in recs} == {"ok", "diverged"}
        digest = hashlib.sha256("\n".join(r.to_json() for r in recs).encode())
        assert digest.hexdigest() == (
            "568577773eb1f9c0932dd0839d055fb3ee9820d857369403c2d89ebec4ba516f")

    @pytest.mark.parametrize("arch, pinned", [
        # fused MMs and a c_t tap
        (builtin("lstm"),
         "90fa16d3003d95d5d6b04ef790da1ff1840eb834b0a7f2bb0cf5242a54127111"),
        # LayerNorm gain and bias gradients are summed over rows, then time
        (parse("LayerNorm(Add(Tanh(LayerNorm(MM(x_t))),MM(h_tm1)))"),
         "f39312fc1764f62edf6d145cfc450bd30742fa62c9b979a9e39f16c5f4678e39"),
    ])
    def test_one_batch_gradients_pinned(self, arch, pinned):
        task, _ = desk_task_and_cfg()
        model = SequenceModel(arch, task.vocab_size, 16, np.random.default_rng(0))
        x, y = task.train[0]
        model.loss(x, y).backward()
        digest = hashlib.sha256()
        for p in model.params:
            digest.update(p.name.encode())
            digest.update(p.grad.tobytes())
        assert digest.hexdigest() == pinned
