"""Search orchestration: record store, loops, reports, config loading."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import rnndsl.rlgen as rlgen
import rnndsl.search as search
from rnndsl.dsl import builtin, canonicalize, parse, render
from rnndsl.evaluator import ArchPerfRecord, TaskSpec, TrainConfig, make_task
from rnndsl.randgen import GenConfig, arch_id, expand_ct_variants
from rnndsl.ranker import Ranker, RankerConfig
from rnndsl.rlgen import Policy, RLConfig
from rnndsl.search import (
    OPERATOR_COLUMNS,
    RecordStore,
    SearchConfig,
    StoreError,
    hidden_dump,
    load_config,
    ops_over_time,
    run_random_search,
    run_rl_search,
    search_curve,
    write_csv,
)
from conftest import assert_resumes_at_every_cut, count_canon


def make_record(arch, metric, status="ok", batch=0, source="random"):
    return ArchPerfRecord(
        id=arch_id(arch),
        dsl=render(arch),
        ct_node=arch.ct_node,
        source=source,
        task="copy_memory",
        status=status,
        valid_metric=metric,
        test_metric=None,
        epochs_run=1,
        wall_seconds=0.0,
        batch_index=batch,
        timestamp="1970-01-01T00:00:00Z",
    )


def tiny_task():
    return make_task(
        TaskSpec(
            kind="copy_memory",
            seed=1,
            batch_size=16,
            train_size=64,
            valid_size=32,
            test_size=32,
        )
    )


def tiny_train():
    return TrainConfig(epochs=2, hidden_size=10, failure_check_epoch=1, seed=0)


class TestSearchConfig:
    def test_mode_validated(self):
        with pytest.raises(ValueError):
            SearchConfig(mode="grid")

    def test_selection_cannot_exceed_pool(self):
        with pytest.raises(ValueError):
            SearchConfig(candidates_per_step=10, k_top=28, k_sampled=4)

    @pytest.mark.parametrize("field,value,least", [("k_top", -3, 0), ("k_sampled", -1, 0)])
    def test_counts_below_least_refused(self, field, value, least):
        with pytest.raises(ValueError, match=f"SearchConfig.{field} must be >= {least}, got {value}"):
            SearchConfig(**{field: value})

    def test_zero_top_picks_allowed(self):
        # a uniform arm picks by sampling alone
        assert SearchConfig(k_top=0, k_sampled=10).k_top == 0


class TestRecordStore:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        store = RecordStore(path)
        store.append(make_record(builtin("tanh_rnn"), 1.0))
        store.append(make_record(builtin("gru"), 0.9))
        loaded = RecordStore.load(path)
        assert loaded.records == store.records

    def test_duplicate_append_rejected(self):
        store = RecordStore()
        store.append(make_record(builtin("gru"), 0.9))
        with pytest.raises(StoreError):
            store.append(make_record(builtin("gru"), 0.8))

    def test_duplicate_line_reports_lineno(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        rec = make_record(builtin("gru"), 0.9)
        path.write_text(rec.to_json() + "\n" + rec.to_json() + "\n")
        with pytest.raises(StoreError, match="dup.jsonl:2"):
            RecordStore.load(str(path))

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = make_record(builtin("gru"), 0.9)
        path.write_text(rec.to_json() + "\nnot json at all\n")
        with pytest.raises(StoreError, match="bad.jsonl:2"):
            RecordStore.load(str(path))

    def test_torn_last_line_left_out_then_cut_on_append(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        recs = [make_record(builtin(n), 1.0) for n in ("tanh_rnn", "gru", "lstm")]
        whole = "".join(r.to_json() + "\n" for r in recs[:2])
        torn = whole + recs[2].to_json()[:40]
        path.write_text(torn)
        store = RecordStore.load(str(path))
        assert store.records == recs[:2]
        assert path.read_text() == torn  # loading never writes
        store.append(recs[2])
        assert path.read_text() == whole + recs[2].to_json() + "\n"
        assert RecordStore.load(str(path)).records == recs

    def test_unterminated_whole_last_line_kept(self, tmp_path):
        path = tmp_path / "nonl.jsonl"
        recs = [make_record(builtin(n), 1.0) for n in ("tanh_rnn", "gru", "lstm")]
        path.write_text(recs[0].to_json() + "\n" + recs[1].to_json())
        store = RecordStore.load(str(path))
        assert store.records == recs[:2]
        store.append(recs[2])
        assert path.read_text() == "".join(r.to_json() + "\n" for r in recs)

    def test_terminated_malformed_last_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = make_record(builtin("gru"), 0.9)
        path.write_text(rec.to_json() + "\n" + rec.to_json()[:40] + "\n")
        with pytest.raises(StoreError, match="bad.jsonl:2"):
            RecordStore.load(str(path))

    @pytest.mark.parametrize(
        "field,value", [("valid_metric", "NaN"), ("epochs_run", True), ("ct_node", 1.5)]
    )
    def test_wrong_field_type_reports_lineno(self, tmp_path, field, value):
        path = tmp_path / "typed.jsonl"
        rec = make_record(builtin("gru"), 0.9)
        bad = json.loads(make_record(builtin("lstm"), 0.8).to_json())
        bad[field] = value
        path.write_text(rec.to_json() + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(StoreError, match=f"typed.jsonl:2: .*{field}"):
            RecordStore.load(str(path))

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ArchPerfRecord)])
    @pytest.mark.parametrize("value", [True, "wrong type", math.nan, math.inf, -math.inf],
                             ids=["bool", "wrong-type", "nan", "inf", "-inf"])
    def test_every_field_refuses_bools_wrong_types_and_non_finite(self, tmp_path, field, value):
        path = tmp_path / "typed.jsonl"
        good = make_record(builtin("gru"), 0.9)
        bad = json.loads(make_record(builtin("lstm"), 0.8).to_json())
        if value == "wrong type":
            value = 7 if isinstance(bad[field], str) else "7"
        bad[field] = value
        path.write_text(good.to_json() + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(StoreError, match=f"typed.jsonl:2: malformed record: record.{field}: "):
            RecordStore.load(str(path))

    @pytest.mark.parametrize("change,why", [
        ({"status": "exploded"}, "record status must be one of"),
        ({"valid_metric": None}, "an ok record needs a valid_metric"),
        ({"source": "oracle"}, r"record source must be one of \['random', 'rl', 'seed', 'human'\], "
                               "got 'oracle'"),
        ({"task": "word_lm"}, r"record task must be one of \['copy_memory', 'char_lm'\], "
                              "got 'word_lm'"),
    ], ids=["unknown-status", "ok-without-metric", "unknown-source", "unknown-task"])
    def test_record_no_run_writes_refused(self, tmp_path, change, why):
        good = make_record(builtin("gru"), 0.9)
        bad = json.dumps({**json.loads(make_record(builtin("lstm"), 0.8).to_json()), **change})
        path = tmp_path / "odd.jsonl"
        path.write_text(good.to_json() + "\n" + bad + "\n")
        with pytest.raises(StoreError, match=f"odd.jsonl:2: malformed record: {why}"):
            RecordStore.load(str(path))
        # without its newline the same line is a torn append
        path.write_text(good.to_json() + "\n" + bad)
        assert RecordStore.load(str(path)).records == [good]
        with pytest.raises(ValueError, match=why):
            ArchPerfRecord.from_json(bad)

    def test_int_metric_kept_as_int(self, tmp_path):
        path = tmp_path / "int.jsonl"
        rec = make_record(builtin("gru"), 1)
        path.write_text(rec.to_json() + "\n")
        loaded = RecordStore.load(str(path)).records[0]
        assert loaded == rec and type(loaded.valid_metric) is int

    def test_missing_field_reports_lineno(self, tmp_path):
        path = tmp_path / "short.jsonl"
        bad = json.loads(make_record(builtin("gru"), 0.9).to_json())
        del bad["status"]
        path.write_text(json.dumps(bad) + "\n")
        with pytest.raises(StoreError, match="short.jsonl:1: malformed record: .*status"):
            RecordStore.load(str(path))

    def test_missing_file_is_empty_store(self, tmp_path):
        store = RecordStore.load(str(tmp_path / "absent.jsonl"))
        assert len(store) == 0

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        rec = make_record(builtin("gru"), 0.9)
        path.write_text("\n" + rec.to_json() + "\n\n")
        assert len(RecordStore.load(str(path))) == 1

    def test_best_ignores_failures(self):
        store = RecordStore()
        store.append(make_record(builtin("gru"), 0.9))
        store.append(make_record(builtin("lstm"), None, status="diverged"))
        store.append(make_record(builtin("tanh_rnn"), 1.2))
        assert store.best().valid_metric == 0.9

    def test_valid_ht_count_excludes_ct_and_failures(self):
        store = RecordStore()
        store.append(make_record(builtin("tanh_rnn"), 1.0))  # ok, no tap
        store.append(make_record(builtin("lstm"), 0.8))  # ok, has tap
        store.append(make_record(builtin("gru"), None, status="timeout"))
        assert store.valid_ht_count() == 1


class TestRLBatchComposition:
    def test_three_good_one_fail_deferred_fail(self, monkeypatch):
        """Script [good,fail,fail,good,good]: the update batch holds the
        three goods plus one failure; the second failure stays pending."""
        script = [(1.0, True), (0.0, False), (0.0, False), (1.0, True), (1.0, True)]
        calls = {"i": 0}
        batches = []

        def fake_result(ep, task, train_cfg, reward_cfg, store, run, batch_index):
            r, good = script[calls["i"]]
            calls["i"] += 1
            return r, good, 1

        def fake_update(policy, batch, opt):
            batches.append([e.reward for e in batch])
            return True

        monkeypatch.setattr(search, "_episode_result", fake_result)
        monkeypatch.setattr(rlgen, "reinforce_update", fake_update)
        cfg = SearchConfig(mode="rl", max_evaluations=5, seed_baselines=())
        policy = Policy(RLConfig(width=8, seed=0))
        result = run_rl_search(cfg, task=None, policy=policy, train_cfg=None)
        assert len(batches) == 1
        assert sorted(batches[0], reverse=True) == [1.0, 1.0, 1.0, 0.0]
        assert result.batches_applied == 1
        assert result.relaxed_batches == 0

    def test_starvation_relaxes_composition(self, monkeypatch):
        def fake_result(ep, task, train_cfg, reward_cfg, store, run, batch_index):
            return 0.0, False, 1  # failures only: rule never satisfiable

        batches = []

        def fake_update(policy, batch, opt):
            batches.append(len(batch))
            return True

        monkeypatch.setattr(search, "_episode_result", fake_result)
        monkeypatch.setattr(rlgen, "reinforce_update", fake_update)
        monkeypatch.setattr(search, "STARVATION_LIMIT", 4)
        cfg = SearchConfig(mode="rl", max_evaluations=8, seed_baselines=())
        policy = Policy(RLConfig(width=8, seed=0))
        result = run_rl_search(cfg, task=None, policy=policy, train_cfg=None)
        assert result.relaxed_batches == 2
        assert batches == [4, 4]

    def test_stops_at_max_evaluations(self, monkeypatch):
        def fake_result(ep, task, train_cfg, reward_cfg, store, run, batch_index):
            return 0.5, True, 1

        monkeypatch.setattr(search, "_episode_result", fake_result)
        monkeypatch.setattr(rlgen, "reinforce_update", lambda p, b, o: True)
        cfg = SearchConfig(mode="rl", max_evaluations=7, seed_baselines=())
        policy = Policy(RLConfig(width=8, seed=0))
        result = run_rl_search(cfg, task=None, policy=policy, train_cfg=None)
        assert len(result.episode_rewards) == 7

    def test_idle_episodes_stop_the_search(self, monkeypatch):
        def fake_result(ep, task, train_cfg, reward_cfg, store, run, batch_index):
            return 0.5, True, 0  # every tree already evaluated

        monkeypatch.setattr(search, "_episode_result", fake_result)
        monkeypatch.setattr(rlgen, "reinforce_update", lambda p, b, o: True)
        cfg = SearchConfig(mode="rl", max_evaluations=7, seed_baselines=())
        policy = Policy(RLConfig(width=8, seed=0))
        with pytest.raises(ValueError, match=(
            f"{search.IDLE_EPISODES_LIMIT} consecutive episodes .* "
            r"\(0 evaluations done\)"
        )):
            run_rl_search(cfg, task=None, policy=policy, train_cfg=None)

    def test_episode_tree_canonicalized_once(self, monkeypatch):
        # canonical order swaps the Add's children, so the taps are numbered
        # in another order than in the drawn tree
        raw = parse("Add(Tanh(Mult(MM(c_tm1),MM(x_t))),Sigmoid(Mult(MM(c_tm1),MM(h_tm1))))")
        want = [canonicalize(v) for v in expand_ct_variants(raw)]
        taps = [a.ct_node for a in want]
        assert len(taps) == 4 and taps != sorted(taps)
        visited = count_canon(monkeypatch)
        run = RecordStore()
        _, _, dispatched = search._episode_result(
            SimpleNamespace(arch=raw), tiny_task(), tiny_train(), rlgen.RewardConfig(),
            RecordStore(), run, 1)
        assert dispatched == 4
        assert sum(n is raw.root for n in visited) == 1
        assert len(visited) == len(list(raw.root.walk()))
        # the records keep the drawn tree's tap order
        assert [(r.id, r.ct_node) for r in run.records] == [(arch_id(a), a.ct_node) for a in want]

    def test_desk_store_pinned(self, tmp_path):
        """The first 24 evaluations of the acceptance-09 RL search, byte
        for byte: a change to the rollouts, the update windows or the
        update must leave them in place."""
        task = make_task(TaskSpec(kind="copy_memory", seed=3, batch_size=16,
                                  train_size=128, valid_size=64, test_size=64))
        train = TrainConfig(epochs=2, hidden_size=16, failure_check_epoch=1)
        policy = Policy(RLConfig(width=16, seed=0, learning_rate=0.01,
                                 normalize_advantage=True))
        path = tmp_path / "rl.jsonl"
        cfg = SearchConfig(mode="rl", max_evaluations=24, seed=0, seed_baselines=())
        run_rl_search(cfg, task, policy, train, store=RecordStore(str(path)))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "c29a34f5ec80b3a3f3fede92cf27a7ba447be22cc3c9368f87d92cf550809c71"
        )


class TestReports:
    def _store(self):
        store = RecordStore()
        store.append(make_record(builtin("tanh_rnn"), 1.2, batch=0))
        store.append(make_record(builtin("gru"), 0.9, batch=1))
        store.append(make_record(builtin("mgu"), None, status="diverged", batch=1))
        store.append(make_record(builtin("lstm"), 0.8, batch=2))
        return store

    def test_ops_rows_sum_to_one(self):
        rows = ops_over_time(self._store())
        assert len(rows) == 3
        for row in rows:
            total = sum(row[c] for c in OPERATOR_COLUMNS)
            assert abs(total - 1.0) < 1e-9

    def test_search_curve_monotone(self):
        rows = search_curve(self._store())
        assert len(rows) == 4
        bests = [r["best_so_far"] for r in rows if r["best_so_far"] is not None]
        assert all(a >= b for a, b in zip(bests, bests[1:]))
        assert rows[-1]["best_so_far"] == 0.8

    def test_search_curve_batch_means(self):
        rows = search_curve(self._store())
        batch1 = [r for r in rows if r["batch"] == 1]
        # the diverged record contributes no metric to the batch mean
        assert all(r["batch_mean_metric"] == pytest.approx(0.9) for r in batch1)

    def test_hidden_dump_row_per_timestep(self):
        rows = hidden_dump(render(builtin("gru")), seq_len=16, hidden_size=8)
        assert len(rows) == 16
        assert all(len(r) == 9 for r in rows)  # t + 8 hidden columns

    def test_hidden_dump_deterministic(self):
        a = hidden_dump(render(builtin("gru")), seed=5)
        b = hidden_dump(render(builtin("gru")), seed=5)
        assert a == b

    def test_write_csv_round_trip(self, tmp_path):
        import csv

        path = str(tmp_path / "out.csv")
        rows = ops_over_time(self._store())
        write_csv(rows, path)
        with open(path) as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == len(rows)
        assert set(back[0].keys()) == set(str(k) for k in rows[0].keys())

    def test_write_csv_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], str(tmp_path / "x.csv"))


class TestRandomSearch:
    def _run(self, tmp_path, name):
        cfg = SearchConfig(
            candidates_per_step=40,
            k_top=2,
            k_sampled=1,
            max_steps=2,
            seed=0,
        )
        gen_cfg = GenConfig(seed=0, max_height=4)
        ranker_cfg = RankerConfig(hidden=8, epochs=5, seed=0)
        store = RecordStore(str(tmp_path / name))
        return run_random_search(
            cfg, tiny_task(), gen_cfg, tiny_train(), ranker_cfg, store
        )

    def test_seeds_baseline_and_evaluates(self, tmp_path):
        store, best = self._run(tmp_path, "a.jsonl")
        assert store.records[0].source == "seed"
        assert store.records[0].id == arch_id(builtin("tanh_rnn"))
        assert len(store) > 1
        ids = [r.id for r in store.records]
        assert len(ids) == len(set(ids))

    def test_step_without_new_candidate_stops_the_search(self, tmp_path):
        # one-operator trees with both required sources run out after step 2
        cfg = SearchConfig(candidates_per_step=5, k_top=1, k_sampled=0,
                           max_steps=5, seed=0, seed_baselines=())
        store = RecordStore(str(tmp_path / "r.jsonl"))
        with pytest.raises(ValueError, match="random search step 3 admitted no new "
                                             "candidate in 500 raw draws"):
            run_random_search(cfg, tiny_task(), GenConfig(seed=0, max_nodes=1),
                              tiny_train(), RankerConfig(hidden=4, epochs=1), store)
        assert [r.batch_index for r in store.records] == [1, 2]

    def test_byte_identical_replay(self, tmp_path):
        self._run(tmp_path, "a.jsonl")
        self._run(tmp_path, "b.jsonl")
        a = (tmp_path / "a.jsonl").read_bytes()
        b = (tmp_path / "b.jsonl").read_bytes()
        assert a == b

    def test_ct_gate_closed_early(self, tmp_path):
        # far below CT_ENABLE_AFTER: no candidate may carry a memory tap
        store, _ = self._run(tmp_path, "c.jsonl")
        assert all(r.ct_node is None for r in store.records)

    def test_ct_gate_opens(self, tmp_path, monkeypatch):
        # the seed baseline and step 1's three evaluations reach
        # CT_ENABLE_AFTER=3 valid h_t-only records, so c_t opens at step 2
        draws, bootstraps = [], []
        draw, bootstrap = search.generate_batch, Ranker.bootstrap_ct_embeddings

        def drawn(gen_cfg, *args, **kwargs):
            draws.append(gen_cfg.allow_cm1)
            return draw(gen_cfg, *args, **kwargs)

        def bootstrapped(ranker):
            bootstraps.append(ranker)
            return bootstrap(ranker)

        monkeypatch.setattr(search, "generate_batch", drawn)
        monkeypatch.setattr(Ranker, "bootstrap_ct_embeddings", bootstrapped)
        monkeypatch.setattr(search, "CT_ENABLE_AFTER", 3)
        cfg = SearchConfig(candidates_per_step=60, k_top=2, k_sampled=1, max_steps=4, seed=0)

        def run(name):
            store = RecordStore(str(tmp_path / name))
            run_random_search(cfg, tiny_task(), GenConfig(seed=0),
                              TrainConfig(epochs=2, hidden_size=8,
                                          failure_check_epoch=1, seed=0),
                              RankerConfig(hidden=8, epochs=20, seed=0), store)
            return store

        store = run("a.jsonl")
        assert draws == [False, True, True, True]
        assert len(bootstraps) == 1
        tapped = [r.batch_index for r in store.records if r.ct_node is not None]
        assert tapped == [2, 3, 3, 3, 4]
        run("b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


class TestResume:
    """A search resumed from its store cut at any line, with half of the
    next line torn off, writes the uncut run's store byte for byte and
    trains only the records the cut lost."""

    @staticmethod
    def _random_best(store):
        cfg = SearchConfig(candidates_per_step=60, k_top=2, k_sampled=1,
                           max_steps=3, seed=0)
        return run_random_search(cfg, tiny_task(), GenConfig(seed=0),
                                 TrainConfig(epochs=2, hidden_size=8, failure_check_epoch=1),
                                 RankerConfig(hidden=8, epochs=20, seed=0), store)[1]

    @staticmethod
    def _rl_best(store):
        cfg = SearchConfig(mode="rl", max_evaluations=16, seed=0)
        return run_rl_search(cfg, tiny_task(), Policy(RLConfig(width=4, seed=0)),
                             TrainConfig(epochs=1, hidden_size=8, failure_check_epoch=1),
                             store=store).best

    @staticmethod
    def _trained(search, path):
        store = RecordStore.load(path)
        loaded = len(store)
        search(store)
        return len(store) - loaded

    def _random(self, path):
        return self._trained(self._random_best, path)

    def _rl(self, path):
        return self._trained(self._rl_best, path)

    def test_random_search(self, tmp_path):
        lines = assert_resumes_at_every_cut(self._random, tmp_path)
        assert len(lines) == 10

    def test_rl_search_with_seed_baseline(self, tmp_path):
        lines = assert_resumes_at_every_cut(self._rl, tmp_path)
        recs = [ArchPerfRecord.from_json(line.decode()) for line in lines]
        # the baseline is trained first and is not one of the 16 evaluations
        assert (recs[0].id, recs[0].source, recs[0].batch_index) == (
            arch_id(builtin("tanh_rnn")), "seed", 0)
        assert all(r.source == "rl" for r in recs[1:]) and len(recs) - 1 >= 16

    def test_record_from_another_run_steers_nothing(self, tmp_path):
        fresh = tmp_path / "fresh.jsonl"
        self._random(str(fresh))
        # an ok h_t-only record better than any: the old search state would
        # have fitted the ranker to it and counted it toward the c_t gate
        foreign = make_record(builtin("gru"), 0.01, source="human").to_json() + "\n"
        assert arch_id(builtin("gru")) not in fresh.read_text()
        path = tmp_path / "mixed.jsonl"
        path.write_text(foreign)
        assert self._random(str(path)) == 10
        assert path.read_bytes() == foreign.encode() + fresh.read_bytes()

    @pytest.mark.parametrize("search", ["_random_best", "_rl_best"])
    def test_best_is_the_runs_own(self, tmp_path, search):
        fresh = getattr(self, search)(RecordStore())
        # an ok record of another run on file, better than any the run trains
        foreign = make_record(builtin("gru"), 0.01, source="human")
        store = RecordStore()
        store.append(foreign)
        best = getattr(self, search)(store)
        assert best.id != foreign.id and best.to_json() == fresh.to_json()

    @pytest.mark.parametrize("loop", ["_random_best", "_rl_best"])
    def test_store_of_another_task_refused(self, monkeypatch, loop):
        def never(*args, **kwargs):
            raise AssertionError("trained before the refusal")

        monkeypatch.setattr(search, "train_and_score", never)
        foreign = dataclasses.replace(make_record(builtin("gru"), 0.01), task="char_lm")
        store = RecordStore()
        store.append(foreign)
        with pytest.raises(StoreError) as err:
            getattr(self, loop)(store)
        assert str(err.value) == f"{foreign.id}: a char_lm record in a store used for copy_memory"
        assert store.records == [foreign]


class TestLoadConfig:
    def test_defaults_and_sections(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "search": {"max_steps": 2},
            "gen": {"max_nodes": 15, "allow_cm1": False},
            "train": {"optimizer": {"kind": "adam", "learning_rate": 0.01}},
        }))
        cfg = load_config(str(path))
        assert cfg["search"].max_steps == 2
        assert cfg["search"].k_top == 28  # untouched default
        assert (cfg["gen"].max_nodes, cfg["gen"].allow_cm1) == (15, False)
        assert cfg["gen"].max_height == 8  # untouched default
        assert cfg["train"].optimizer.kind == "adam"
        assert cfg["task"].kind  # every section materializes

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"searches": {}}))
        with pytest.raises(ValueError, match="unknown config sections"):
            load_config(str(path))

    def test_boundary_values_accepted(self, tmp_path):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({
            "search": {"temperature": 0, "k_sampled": 0},
            "gen": {"max_nodes": 1, "max_height": 1},
            "rl": {"epsilon": 0},
            "train": {"epochs": 0, "failure_check_epoch": 0},
        }))
        cfg = load_config(str(path))
        assert cfg["search"].temperature == 0 and cfg["rl"].epsilon == 0
        assert cfg["train"].epochs == 0
        assert (cfg["gen"].max_nodes, cfg["gen"].max_height) == (1, 1)

    def test_owned_fields_take_the_given_values(self):
        cfg = load_config(None, {"seed": ("--seed", 7), "mode": ("the mode", "rl")})
        assert cfg["search"].mode == "rl"
        assert {key: getattr(c, "seed", 7) for key, c in cfg.items()} == dict.fromkeys(cfg, 7)

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        example = readme.split("### Configuration", 1)[1].split("```json", 1)[1]
        path = tmp_path / "readme.json"
        path.write_text(example.split("```", 1)[0])
        # as `rnndsl search` loads it: the command line owns the seeds and the mode
        cfg = load_config(str(path), {"seed": ("--seed", 0), "mode": ("the argument", "rl")})
        assert (cfg["gen"].max_nodes, cfg["gen"].max_height) == (15, 6)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({"search": {"max_step": 3}}))
        with pytest.raises(ValueError, match="SearchConfig"):
            load_config(str(path))
