"""Task construction and candidate training / failure classification."""

import math

import numpy as np
import pytest

from rnndsl.dsl import builtin, parse
from rnndsl.evaluator import (
    ArchPerfRecord,
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
        spec = task.spec
        length = spec.copy_len + spec.delay + 1 + spec.copy_len
        for x, y in task.train:
            assert x.shape[1] == length
            assert task.vocab_size == spec.n_symbols + 2

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

    def test_synthetic_char_lm(self):
        task = make_task(TaskSpec(kind="char_lm", seed=2))
        assert task.vocab_size >= 3
        assert task.train and task.valid

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
        assert rec.valid_metric < task.baseline_loss

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

    def test_failure_threshold(self):
        task = small_copy_task()
        rec = train_and_score(
            builtin("tanh_rnn"),
            task,
            quick_cfg(failure_ppl_threshold=1.0 + 1e-9),
        )
        assert rec.status == "failed_threshold"

    def test_ok_metric_is_log_perplexity(self):
        task = small_copy_task()
        rec = train_and_score(builtin("tanh_rnn"), task, quick_cfg())
        assert rec.valid_metric is not None
        assert 0.0 < rec.valid_metric < math.log(500.0)


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
