"""Command-line behavior: output, exit codes, equivalence with the API."""

import csv
import json
import math
from dataclasses import fields, is_dataclass
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np
import pytest

import rnndsl.engine as en
from rnndsl.cli import main
from rnndsl.dsl import OpKind, analyze, builtin, canonicalize, parse, render
from rnndsl.evaluator import ArchPerfRecord, TaskSpec, TrainConfig, make_task
from rnndsl.randgen import GenConfig, arch_id
from rnndsl.ranker import RankerConfig
from rnndsl.search import (
    CONFIG_SECTIONS,
    RecordStore,
    SearchConfig,
    hidden_dump,
    run_random_search,
)
from conftest import torn_cut

TANH_RNN = "Tanh(Add(MM(x_t),MM(h_tm1)))"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out) if out.strip() else None, err


class TestParse:
    def test_plain_output(self, capsys):
        code, out, _ = run_cli(capsys, "parse", TANH_RNN)
        assert code == 0
        assert out.strip() == TANH_RNN

    def test_json_matches_analysis(self, capsys):
        code, payload, _ = run_json(capsys, "parse", TANH_RNN)
        info = analyze(parse(TANH_RNN))
        assert code == 0
        assert payload["node_count"] == info.node_count == 4
        assert payload["height"] == info.height == 2
        assert payload["id"] == arch_id(parse(TANH_RNN))
        assert payload["sources"] == ["h_tm1", "x_t"]

    def test_canonical_flag(self, capsys):
        _, out, _ = run_cli(capsys, "parse", TANH_RNN, "--canonical")
        assert out.strip() == render(canonicalize(parse(TANH_RNN)))

    def test_parse_error_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "parse", "Tanh(")
        assert code == 1
        assert "error[ParseError]" in err

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["parse"])
        assert exc.value.code == 2

    def test_global_flags_before_subcommand(self, capsys):
        code, payload, _ = run_json(capsys, "parse", TANH_RNN)
        code2, out2, _ = run_cli(capsys, "--json", "parse", TANH_RNN)
        assert code == code2 == 0
        assert json.loads(out2) == payload


class TestCells:
    def test_list_contains_known_cells(self, capsys):
        code, payload, _ = run_json(capsys, "cells", "list")
        assert code == 0
        for name in ("tanh_rnn", "gru", "lstm", "bc3", "mgu"):
            assert name in payload["cells"]

    def test_show_matches_builtin(self, capsys):
        code, out, _ = run_cli(capsys, "cells", "show", "gru")
        assert code == 0
        assert out.strip() == render(builtin("gru"))

    def test_unknown_cell_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "cells", "show", "transformer")
        assert code == 1
        assert "error[" in err


class TestCompile:
    def test_reports_counts(self, capsys):
        code, payload, _ = run_json(
            capsys, "compile", render(builtin("lstm")), "--hidden", "6",
            "--input", "4",
        )
        assert code == 0
        assert payload["fused_source_mms"] == 2
        assert payload["instructions"] > 0

    def test_check_grad_passes(self, capsys):
        code, payload, _ = run_json(
            capsys, "compile", TANH_RNN, "--hidden", "5", "--input", "3",
            "--check-grad",
        )
        assert code == 0
        assert payload["max_rel_grad_error"] < 1e-4

    def test_compile_error_exit_1(self, capsys):
        # x-width and hidden-width operands mixed elementwise
        code, _, err = run_cli(
            capsys, "compile", "Add(x_t,h_tm1)", "--hidden", "6", "--input", "4"
        )
        assert code == 1
        assert "error[CompileError]" in err

    @pytest.mark.parametrize("hidden,input_,message", [
        ("0", "3", "hidden_size must be >= 1, got 0"),
        ("-2", "3", "hidden_size must be >= 1, got -2"),
        ("3", "0", "input_size must be >= 1, got 0"),
        ("3", "-1", "input_size must be >= 1, got -1"),
    ])
    def test_size_below_one_refused(self, capsys, hidden, input_, message):
        code, out, err = run_cli(
            capsys, "compile", TANH_RNN, "--hidden", hidden, "--input", input_
        )
        assert code == 1
        assert out == ""
        assert err == f"error[CompileError]: {message}\n"


class TestEval:
    def _config(self, tmp_path, **sections):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "task": {"batch_size": 16, "train_size": 64,
                     "valid_size": 32, "test_size": 32},
            "train": {"epochs": 1, "hidden_size": 8, "failure_check_epoch": 1},
            **sections,
        }))
        return str(path)

    def test_eval_writes_record(self, capsys, tmp_path):
        out = str(tmp_path / "records.jsonl")
        code, payload, _ = run_json(
            capsys, "eval", TANH_RNN, "--task", "copy_memory",
            "--config", self._config(tmp_path), "--out", out,
        )
        assert code == 0
        assert payload["source"] == "human"
        store = RecordStore.load(out)
        assert len(store) == 1
        assert store.records[0].id == payload["id"]

    def test_malformed_store_fails_before_training(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "records.jsonl"
        out.write_text("{not json\n")

        def never(*args, **kwargs):
            raise AssertionError("train_and_score called before the store was loaded")

        monkeypatch.setattr("rnndsl.cli.train_and_score", never)
        code, _, err = run_cli(
            capsys, "eval", TANH_RNN, "--task", "copy_memory",
            "--config", self._config(tmp_path), "--out", str(out),
        )
        assert code == 1
        assert "StoreError" in err

    def test_zero_epochs_is_timeout_not_crash(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "task": {"batch_size": 16, "train_size": 64,
                     "valid_size": 32, "test_size": 32},
            "train": {"epochs": 0, "hidden_size": 8, "failure_check_epoch": 0},
        }))
        code, payload, _ = run_json(
            capsys, "eval", TANH_RNN, "--task", "copy_memory",
            "--config", str(path),
        )
        assert code == 0
        assert payload["status"] == "timeout"

    def test_char_lm_without_corpus_refused(self, capsys, tmp_path):
        out = tmp_path / "records.jsonl"
        code, stdout, err = run_cli(capsys, "eval", TANH_RNN, "--task", "char_lm",
                                    "--config", self._config(tmp_path), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == "error[ValueError]: TaskSpec.kind 'char_lm' needs a corpus_path\n"
        assert not out.exists()

    def test_tapless_c_tm1_record_can_be_ranked_not_dumped(self, capsys, tmp_path):
        # c_tm1 without a c_t tap compiles to no cell: a well-formed invalid
        # record, which the ranker reads with c_tm1 as a leaf of its own
        cfg = self._config(tmp_path, ranker={"hidden": 8, "epochs": 5})
        out = str(tmp_path / "records.jsonl")
        code, payload, _ = run_json(capsys, "eval", "Tanh(Add(MM(x_t),MM(c_tm1)))",
                                    "--task", "copy_memory", "--config", cfg, "--out", out)
        assert code == 0 and payload["status"] == "invalid" and payload["ct_node"] is None
        code, _, err = run_cli(capsys, "report", "hidden-dump", "--records", out,
                               "--out", str(tmp_path / "hidden.csv"))
        assert code == 1
        assert err == "error[ValueError]: store has no successful record to dump\n"
        run_cli(capsys, "eval", TANH_RNN, "--task", "copy_memory", "--config", cfg,
                "--out", out)
        code, text, err = run_cli(capsys, "rank", "fit", "--records", out, "--config", cfg)
        assert code == 0, err
        assert text.startswith("fit on 2 records; loss ")
        code, payload, err = run_json(capsys, "rank", "score", "--records", out,
                                      "--config", cfg, "--dsl", "MM(c_tm1)")
        assert code == 0, err
        assert math.isfinite(payload["score"])

    def test_root_ct_tap_is_an_invalid_record_that_ranks(self, capsys, tmp_path):
        # a tap at the root compiles to no cell; the parser keeps it, so the
        # record loads and the ranker fits on it
        cfg = self._config(tmp_path, ranker={"hidden": 8, "epochs": 5})
        out = str(tmp_path / "records.jsonl")
        code, payload, _ = run_json(capsys, "eval", "Tanh(Add(MM(x_t),MM(c_tm1)))|4",
                                    "--task", "copy_memory", "--config", cfg, "--out", out)
        assert code == 0 and (payload["status"], payload["ct_node"]) == ("invalid", 4)
        assert RecordStore.load(out).records[0].dsl == "Tanh(Add(MM(c_tm1),MM(x_t)))|4"
        code, text, err = run_cli(capsys, "rank", "fit", "--records", out, "--config", cfg)
        assert code == 0, err
        assert text.startswith("fit on 1 records; loss ")

    @pytest.mark.parametrize("change", [{"status": "exploded"}, {"valid_metric": None}],
                             ids=["unknown-status", "ok-without-metric"])
    def test_record_no_run_writes_refused(self, capsys, tmp_path, change):
        cfg = self._config(tmp_path, ranker={"hidden": 8, "epochs": 5})
        out = tmp_path / "records.jsonl"
        run_cli(capsys, "eval", TANH_RNN, "--task", "copy_memory", "--config", cfg,
                "--out", str(out))
        good = out.read_text()
        out.write_text(good + json.dumps({**json.loads(good), "id": "0" * 12, **change}) + "\n")
        for argv in (("rank", "fit", "--config", cfg),
                     ("report", "search-curve", "--out", str(tmp_path / "curve.csv"))):
            code, text, err = run_cli(capsys, *argv, "--records", str(out))
            assert code == 1 and text == ""
            assert err.startswith(f"error[StoreError]: {out}:2: malformed record: ")

    def test_seed_env_fallback(self, capsys, tmp_path, monkeypatch):
        cfg = self._config(tmp_path)
        monkeypatch.setenv("ARCHDSL_SEED", "5")
        _, a, _ = run_json(capsys, "eval", TANH_RNN, "--task", "copy_memory",
                           "--config", cfg)
        monkeypatch.delenv("ARCHDSL_SEED")
        _, b, _ = run_json(capsys, "eval", TANH_RNN, "--task", "copy_memory",
                           "--config", cfg, "--seed", "5")
        assert a == b


class TestSearchAndReport:
    def _config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "search": {"candidates_per_step": 30, "k_top": 2, "k_sampled": 1,
                       "max_steps": 1},
            "gen": {"max_height": 4},
            "task": {"batch_size": 16, "train_size": 64,
                     "valid_size": 32, "test_size": 32},
            "train": {"epochs": 1, "hidden_size": 8, "failure_check_epoch": 1},
            "ranker": {"hidden": 8, "epochs": 5},
        }))
        return str(path)

    def test_random_search_then_reports(self, capsys, tmp_path):
        cfg = self._config(tmp_path)
        out = str(tmp_path / "records.jsonl")
        code, payload, _ = run_json(
            capsys, "search", "random", "--config", cfg, "--out", out
        )
        assert code == 0
        assert payload["records"] >= 1
        for kind, csv_name in (
            ("ops-over-time", "ops.csv"),
            ("search-curve", "curve.csv"),
            ("hidden-dump", "hidden.csv"),
        ):
            csv_path = str(tmp_path / csv_name)
            code, rep, _ = run_json(
                capsys, "report", kind, "--records", out, "--out", csv_path
            )
            assert code == 0
            assert rep["rows"] >= 1
        # the hidden dump is of the best record's cell
        with open(tmp_path / "hidden.csv", newline="") as fh:
            dumped = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        assert dumped == hidden_dump(RecordStore.load(out).best().dsl, seed=0)

    def test_rl_search(self, capsys, tmp_path):
        cfg = tmp_path / "rl.json"
        cfg.write_text(json.dumps({
            "search": {"max_evaluations": 3, "seed_baselines": []},
            "train": {"epochs": 1, "hidden_size": 4, "failure_check_epoch": 1},
            "rl": {"width": 16, "normalize_advantage": True, "entropy_weight": 0.03,
                   "epsilon": 0.0, "learning_rate": 0.01},
            "task": {"kind": "copy_memory", "batch_size": 8, "train_size": 16,
                     "valid_size": 8, "test_size": 8},
        }))
        out = tmp_path / "records.jsonl"
        code, payload, err = run_json(capsys, "search", "rl", "--config", str(cfg),
                                      "--out", str(out))
        assert code == 0, err
        lines = out.read_text().splitlines()
        assert payload["records"] == payload["trained"] == len(lines) >= 1
        assert {"batches", "relaxed_batches"} <= payload.keys()
        assert len(RecordStore.load(str(out))) == len(lines)

    def test_search_deterministic(self, capsys, tmp_path):
        cfg = self._config(tmp_path)
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        run_json(capsys, "search", "random", "--config", cfg, "--out", a)
        run_json(capsys, "search", "random", "--config", cfg, "--out", b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_file_seeds_run_the_desk_search(self, capsys, tmp_path):
        """With neither --seed nor ARCHDSL_SEED the file's seeds hold: the
        acceptance-09 random search (task seed 3, the other seeds 0) run
        from a file writes the bytes of the library call on those configs."""
        doc = {
            "search": {"candidates_per_step": 500, "k_top": 8, "k_sampled": 2,
                       "max_steps": 5},
            "task": {"kind": "copy_memory", "seed": 3, "batch_size": 16,
                     "train_size": 128, "valid_size": 64, "test_size": 64},
            "train": {"epochs": 2, "hidden_size": 16, "failure_check_epoch": 1},
            "ranker": {"hidden": 16, "epochs": 30},
        }
        cfg = tmp_path / "desk.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "cli.jsonl"
        code, _, err = run_cli(capsys, "search", "random", "--config", str(cfg),
                               "--out", str(out))
        assert code == 0, err
        direct = tmp_path / "direct.jsonl"
        run_random_search(
            SearchConfig(candidates_per_step=500, k_top=8, k_sampled=2, max_steps=5, seed=0),
            make_task(TaskSpec(kind="copy_memory", seed=3, batch_size=16, train_size=128,
                               valid_size=64, test_size=64)),
            GenConfig(seed=0), TrainConfig(epochs=2, hidden_size=16, failure_check_epoch=1),
            RankerConfig(hidden=16, epochs=30, seed=0), RecordStore(str(direct)),
        )
        assert out.read_bytes() == direct.read_bytes()

    def test_resumed_search_reports_what_it_trained(self, capsys, tmp_path):
        cfg = self._config(tmp_path)
        whole_path = tmp_path / "whole.jsonl"
        _, payload, _ = run_json(capsys, "search", "random", "--config", cfg,
                                 "--out", str(whole_path))
        whole = whole_path.read_bytes()
        lines = whole.splitlines(keepends=True)
        assert payload["trained"] == payload["records"] == len(lines) == 4
        out = tmp_path / "cut.jsonl"
        out.write_bytes(torn_cut(lines, 1))
        _, payload, _ = run_json(capsys, "search", "random", "--config", cfg,
                                 "--out", str(out))
        assert (payload["records"], payload["trained"]) == (4, 3)
        assert out.read_bytes() == whole
        code, text, _ = run_cli(capsys, "search", "random", "--config", cfg,
                                "--out", str(out))
        assert code == 0 and text.startswith("4 records, 0 trained; best: ")
        assert out.read_bytes() == whole

    def test_rank_fit_and_score(self, capsys, tmp_path):
        cfg = self._config(tmp_path)
        out = str(tmp_path / "records.jsonl")
        run_json(capsys, "search", "random", "--config", cfg, "--out", out)
        model = str(tmp_path / "ranker.ckpt")
        code, payload, _ = run_json(
            capsys, "rank", "fit", "--records", out, "--config", cfg,
            "--model", model,
        )
        assert code == 0
        code, payload, _ = run_json(
            capsys, "rank", "score", "--records", out, "--config", cfg,
            "--model", model, "--dsl", TANH_RNN,
        )
        assert code == 0
        assert isinstance(payload["score"], float)

    def test_rank_refuses_empty_store_and_score_without_dsl(self, capsys, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "records.jsonl"
        model = tmp_path / "ranker.ckpt"
        for action in ("fit", "score"):
            code, text, err = run_cli(capsys, "rank", action, "--records", str(out),
                                      "--config", cfg, "--model", str(model))
            assert (code, text, err) == (1, "", f"error[ValueError]: no records in {out}\n")
        run_cli(capsys, "eval", TANH_RNN, "--task", "copy_memory", "--config", cfg,
                "--out", str(out))
        code, text, err = run_cli(capsys, "rank", "score", "--records", str(out),
                                  "--config", cfg, "--model", str(model))
        assert (code, text, err) == (1, "", "error[ValueError]: rank score requires --dsl\n")
        assert not model.exists()

    def test_rank_score_refuses_per_gate_checkpoint(self, capsys, tmp_path):
        import rnndsl.engine as en

        cfg = self._config(tmp_path)
        out = str(tmp_path / "records.jsonl")
        run_json(capsys, "search", "random", "--config", cfg, "--out", out)
        model = str(tmp_path / "ranker.ckpt")
        run_json(capsys, "rank", "fit", "--records", out, "--config", cfg, "--model", model)
        # rewrite it in the layout with one matrix and one bias per gate
        arrays = {}
        for name, arr in en.load_arrays(model).items():
            cell, _, part = name.rpartition("_")
            if part == "U" and arr.ndim == 2:
                for g, block in zip("iouf", np.split(arr, 4)):
                    arrays[f"{cell}_U{g}"] = block
            else:
                arrays[name] = arr
        en.save_arrays(model, arrays)
        code, _, err = run_cli(
            capsys, "rank", "score", "--records", out, "--config", cfg,
            "--model", model, "--dsl", TANH_RNN,
        )
        assert code == 1
        assert "checkpoint missing parameter" in err

    def test_report_missing_store_is_empty_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "report", "search-curve",
            "--records", str(tmp_path / "none.jsonl"),
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "error[" in err


class TestRemovedOptions:
    """The evaluator thread pool and the config fields nothing read are
    refused rather than ignored."""

    def test_workers_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["search", "random", "--workers", "2",
                  "--out", str(tmp_path / "r.jsonl")])
        assert exc.value.code == 2
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize(
        "section,name,cls",
        [("search", "parallel_workers", "SearchConfig"),
         ("search", "wall_clock_budget", "SearchConfig"),
         ("search", "deterministic", "SearchConfig"),
         ("search", "warm_start_ranker", "SearchConfig"),
         ("train", "wall_clock_budget", "TrainConfig"),
         ("train", "decay_on_no_improve", "TrainConfig"),
         ("rl", "min_depth", "RLConfig"),
         ("train", "lr_decay_factor", "TrainConfig"),
         ("train", "dropout", "TrainConfig"),
         ("train", "n_layers", "TrainConfig"),
         ("train", "tie_embeddings", "TrainConfig"),
         ("train", "failure_ppl_threshold", "TrainConfig"),
         ("ranker", "metric_cap", "RankerConfig"),
         ("reward", "a", "RewardConfig"),
         ("reward", "base_offset", "RewardConfig"),
         ("reward", "exp_base", "RewardConfig"),
         ("reward", "exp_scale", "RewardConfig"),
         ("reward", "exp_shift", "RewardConfig"),
         ("reward", "failure_reward", "RewardConfig"),
         ("rl", "baseline_decay", "RLConfig"),
         ("rl", "use_baseline", "RLConfig"),
         ("task", "n_symbols", "TaskSpec"),
         ("task", "copy_len", "TaskSpec"),
         ("task", "delay", "TaskSpec"),
         ("train.optimizer", "beta1", "OptimizerConfig"),
         ("train.optimizer", "beta2", "OptimizerConfig"),
         ("train.optimizer", "eps", "OptimizerConfig"),
         ("train.optimizer", "clip_norm", "OptimizerConfig"),
         ("gen", "operator_weights", "GenConfig"),
         ("gen", "require_sources", "GenConfig"),
         ("search", "min_good", "SearchConfig"),
         ("search", "max_failing", "SearchConfig"),
         ("search", "min_batch", "SearchConfig"),
         ("search", "starvation_limit", "SearchConfig"),
         ("search", "ct_enable_after", "SearchConfig")],
    )
    def test_removed_config_field_exit_1(self, capsys, tmp_path, section, name, cls):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(nest(section, name, 2)))
        code, _, err = run_cli(
            capsys, "search", "random", "--config", str(cfg),
            "--out", str(tmp_path / "r.jsonl"),
        )
        assert code == 1
        assert f"unknown {cls} fields: ['{name}']" in err


class TestHopelessGenerator:
    def test_max_nodes_below_one_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": {"max_nodes": -1}}))
        out = tmp_path / "r.jsonl"
        code, stdout, err = run_cli(
            capsys, "search", "random", "--config", str(cfg), "--out", str(out),
        )
        assert code == 1
        assert stdout == ""
        assert err.splitlines() == ["error[ValueError]: GenConfig.max_nodes must be >= 1, got -1"]
        assert not out.exists()


class TestRefusedBeforeWork:
    """A store of another task, an output in a directory that does not
    exist: refused with exit 1 before anything trains or fits."""

    TASK = {"task": {"batch_size": 16, "train_size": 64, "valid_size": 32, "test_size": 32},
            "train": {"epochs": 1, "hidden_size": 8, "failure_check_epoch": 1},
            "search": {"candidates_per_step": 30, "k_top": 2, "k_sampled": 1, "max_steps": 1,
                       "max_evaluations": 3}}
    COMMANDS = {"eval": ("eval", TANH_RNN, "--task", "copy_memory"),
                "random": ("search", "random"), "rl": ("search", "rl")}

    @pytest.fixture
    def no_work(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("work started before the refusal")

        for target in ("rnndsl.cli.train_and_score", "rnndsl.search.train_and_score",
                       "rnndsl.cli.pretrain_priors", "rnndsl.ranker.Ranker.fit"):
            monkeypatch.setattr(target, never)

    def config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.TASK))
        return str(path)

    @pytest.mark.parametrize("command", ["eval", "random", "rl"])
    def test_store_of_another_task(self, capsys, tmp_path, no_work, command):
        out = tmp_path / "r.jsonl"
        own = make_record("gru", "copy_memory")
        other = make_record("tanh_rnn", "char_lm")
        out.write_text(own.to_json() + "\n" + other.to_json() + "\n")
        before = out.read_bytes()
        code, stdout, err = run_cli(capsys, *self.COMMANDS[command], "--config",
                                    self.config(tmp_path), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == f"error[StoreError]: {out}:2: a char_lm record in a store used for copy_memory\n"
        assert out.read_bytes() == before

    @pytest.mark.parametrize("command", ["eval", "random", "rl", "rank-fit"])
    def test_output_in_a_missing_directory(self, capsys, tmp_path, no_work, command):
        target = tmp_path / "nodir" / "x"
        if command == "rank-fit":
            records = tmp_path / "r.jsonl"
            records.write_text(make_record("gru", "copy_memory").to_json() + "\n")
            argv = ("rank", "fit", "--records", str(records), "--model", str(target))
        else:
            argv = (*self.COMMANDS[command], "--out", str(target))
        code, stdout, err = run_cli(capsys, *argv, "--config", self.config(tmp_path))
        assert (code, stdout) == (1, "")
        assert err == f"error[StoreError]: {target}: no directory {target.parent}\n"
        assert not target.parent.exists()


def make_record(cell, task):
    """An ok record of a builtin cell on ``task``."""
    arch = builtin(cell)
    return ArchPerfRecord(id=arch_id(arch), dsl=render(arch), ct_node=arch.ct_node,
                          source="human", task=task, status="ok", valid_metric=0.001,
                          test_metric=0.001, epochs_run=1, wall_seconds=0.0, batch_index=0,
                          timestamp="1970-01-01T00:00:00Z")


def test_key_error_is_a_bug_not_bad_input(monkeypatch):
    # no library path raises a KeyError on purpose: one shows a traceback
    def broken(args):
        raise KeyError("planted")

    monkeypatch.setattr("rnndsl.cli.cmd_parse", broken)
    with pytest.raises(KeyError, match="planted"):
        main(["parse", TANH_RNN])


class TestBadTaskSize:
    @pytest.mark.parametrize("field,value,least", [
        ("batch_size", 0, 1), ("train_size", 0, 1), ("valid_size", 0, 1),
        ("test_size", -1, 0), ("seq_len", 1, 2),
    ])
    def test_refused_before_any_work(self, capsys, tmp_path, field, value, least):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": {field: value}}))
        out = tmp_path / "r.jsonl"
        code, stdout, err = run_cli(
            capsys, "search", "random", "--config", str(cfg), "--out", str(out),
        )
        assert code == 1
        assert stdout == ""
        assert err.splitlines() == [
            f"error[ValueError]: TaskSpec.{field} must be >= {least}, got {value}"
        ]
        assert not out.exists()


def wrong_values(tp):
    """JSON values whose type is wrong for the field annotation ``tp``."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:  # Optional[X]: null is right, the rest of X's wrong values stay
        return [v for v in wrong_values(args[0]) if v is not None]
    if origin is tuple:
        return ["x_t", [7], [True]]
    if origin is dict:
        return [["Tanh"], {"Tanh": "2"}, {"Tanh": True}, {"Tan": 1.0}]
    if is_dataclass(tp):
        return [3, {"nope": 1}, {"learning_rate": "1"}]
    return {int: ["3", True, 2.5, None], float: ["1", False, None, [1.0]],
            bool: [1, "true", None], str: [1, False, None, ["x"]]}[tp]


# knobs made constants, with the annotation each had: a file that still
# sets one is refused as an unknown field, whatever the value
REMOVED_FIELDS = [("train", "TrainConfig", "n_layers", int),
                  ("train", "TrainConfig", "tie_embeddings", bool),
                  ("train", "TrainConfig", "failure_ppl_threshold", float),
                  ("train.optimizer", "OptimizerConfig", "clip_norm", Optional[float]),
                  ("gen", "GenConfig", "operator_weights", Optional[dict[OpKind, float]]),
                  ("gen", "GenConfig", "require_sources", tuple[OpKind, ...]),
                  *[("search", "SearchConfig", name, int) for name in (
                      "ct_enable_after", "min_good", "max_failing", "min_batch",
                      "starvation_limit")]]


def config_field_cases():
    """(where, name, value, the start of the refusal) for each wrong value of
    each config field, and for each value of a removed field."""
    classes = [(key, cls) for key, cls in CONFIG_SECTIONS.items()]
    classes.append(("train.optimizer", en.OptimizerConfig))
    for where, cls in classes:
        for name, tp in get_type_hints(cls).items():
            for value in wrong_values(tp):
                yield pytest.param(where, name, value, f"{where}.{name}",
                                   id=f"{where}.{name}={value!r}")
    for where, cls_name, name, tp in REMOVED_FIELDS:
        for value in wrong_values(tp):
            yield pytest.param(where, name, value,
                               f"{where}: unknown {cls_name} fields: ['{name}']\n",
                               id=f"{where}.{name}={value!r}")


def nest(where, name, value):
    """The config document that sets ``where.name`` to ``value``."""
    doc = {name: value}
    for key in reversed(where.split(".")):
        doc = {key: doc}
    return doc


class TestConfigRefusedAtLoad:
    """Every config value of the wrong type or range is refused before any
    work: exit 1, one error line naming the field, no --out file."""

    def refused(self, capsys, tmp_path, doc, mode="random", *flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "r.jsonl"
        code, stdout, err = run_cli(
            capsys, "search", mode, "--config", str(cfg), "--out", str(out), *flags,
        )
        assert code == 1
        assert stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith("error[")
        assert "Traceback" not in err
        assert not out.exists()
        return err

    def test_every_section_field_is_covered(self):
        cases = {(p.values[0], p.values[1]) for p in config_field_cases()}
        for key, cls in CONFIG_SECTIONS.items():
            assert {(key, f.name) for f in fields(cls)} <= cases
        assert {("train.optimizer", f.name) for f in fields(en.OptimizerConfig)} <= cases

    @pytest.mark.parametrize("where,name,value,refusal", config_field_cases())
    def test_wrong_type(self, capsys, tmp_path, where, name, value, refusal):
        err = self.refused(capsys, tmp_path, nest(where, name, value))
        assert err.startswith(f"error[ValueError]: {refusal}")

    @pytest.mark.parametrize("section,name,value,message", [
        ("ranker", "hidden", 0, "RankerConfig.hidden must be >= 1, got 0"),
        ("ranker", "epochs", -5, "RankerConfig.epochs must be >= 1, got -5"),
        ("rl", "width", 0, "RLConfig.width must be >= 1, got 0"),
        ("rl", "epsilon", 2.0, "RLConfig.epsilon must be in [0, 1], got 2.0"),
        ("rl", "epsilon", -0.5, "RLConfig.epsilon must be in [0, 1], got -0.5"),
        ("search", "temperature", -1.0, "SearchConfig.temperature must be >= 0, got -1.0"),
        ("search", "max_steps", 0, "SearchConfig.max_steps must be >= 1, got 0"),
        ("search", "max_evaluations", 0, "SearchConfig.max_evaluations must be >= 1, got 0"),
        ("ranker", "head_dropout", math.nan, "ranker.head_dropout: expected a finite number"),
        ("train.optimizer", "learning_rate", math.inf,
         "train.optimizer.learning_rate: expected a finite number"),
        ("train.optimizer", "kind", "rmsprop",
         "OptimizerConfig.kind must be 'sgd' or 'adam', got 'rmsprop'"),
        ("train.optimizer", "learning_rate", 0, "OptimizerConfig.learning_rate must be > 0, got 0"),
        ("ranker", "learning_rate", 0, "RankerConfig.learning_rate must be > 0, got 0"),
        ("rl", "learning_rate", -0.01, "RLConfig.learning_rate must be > 0, got -0.01"),
        ("search", "seed_baselines", ["gru", "elman"],
         "SearchConfig.seed_baselines must be among ['bc3', 'gru', 'lstm', 'mgu', 'tanh_rnn'], "
         "got ['elman']"),
        ("train", "hidden_size", 0, "TrainConfig.hidden_size must be >= 1, got 0"),
        ("train", "hidden_size", -3, "TrainConfig.hidden_size must be >= 1, got -3"),
        ("ranker", "batch_size", 0, "RankerConfig.batch_size must be >= 1, got 0"),
        ("ranker", "head_dropout", 1.0, "RankerConfig.head_dropout must be in [0, 1), got 1.0"),
        ("ranker", "head_dropout", -0.1,
         "RankerConfig.head_dropout must be in [0, 1), got -0.1"),
        ("rl", "max_depth", 0, "RLConfig.max_depth must be >= 1, got 0"),
        ("rl", "max_nodes", 0, "RLConfig.max_nodes must be >= 1, got 0"),
        ("train.optimizer", "clip_value", 0.0, "OptimizerConfig.clip_value must be > 0, got 0.0"),
        ("train.optimizer", "l2", -5.0, "OptimizerConfig.l2 must be >= 0, got -5.0"),
        ("ranker", "l2", -1.0, "RankerConfig.l2 must be >= 0, got -1.0"),
        ("search", "k_top", -3, "SearchConfig.k_top must be >= 0, got -3"),
        ("search", "k_sampled", -1, "SearchConfig.k_sampled must be >= 0, got -1"),
        ("task", "kind", "bogus",
         "TaskSpec.kind must be one of ['copy_memory', 'char_lm'], got 'bogus'"),
    ])
    def test_out_of_range(self, capsys, tmp_path, section, name, value, message):
        err = self.refused(capsys, tmp_path, nest(section, name, value))
        assert err.startswith(f"error[ValueError]: {message}")

    def test_no_candidates_per_step_refused_before_the_seed_baseline(self, capsys, tmp_path):
        # no picks, so k_top + k_sampled does not exceed the 0 candidates
        doc = {"search": {"candidates_per_step": 0, "k_top": 0, "k_sampled": 0}}
        err = self.refused(capsys, tmp_path, doc)
        assert err == "error[ValueError]: SearchConfig.candidates_per_step must be >= 1, got 0\n"

    def test_unknown_task_kind_refused_by_rank_fit(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": {"kind": "bogus"}}))
        records = tmp_path / "r.jsonl"
        code, stdout, err = run_cli(capsys, "rank", "fit", "--records", str(records),
                                    "--config", str(cfg))
        assert (code, stdout) == (1, "")
        assert err == ("error[ValueError]: TaskSpec.kind must be one of "
                       "['copy_memory', 'char_lm'], got 'bogus'\n")
        assert not records.exists()

    @pytest.mark.parametrize("doc", [[{"task": {}}], "task", 3, None])
    def test_document_not_an_object(self, capsys, tmp_path, doc):
        err = self.refused(capsys, tmp_path, doc)
        assert err == f"error[ValueError]: config: expected an object, got {type(doc).__name__}\n"

    @pytest.mark.parametrize("section", ["search", "gen", "train", "ranker", "rl", "task"])
    def test_seed_is_owned_by_the_seed_flag(self, capsys, tmp_path, section):
        err = self.refused(capsys, tmp_path, {section: {"seed": 5}}, "random", "--seed", "2")
        assert err.startswith(f"error[ValueError]: {section}.seed is set by --seed")

    def test_seed_is_owned_by_the_seed_variable(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ARCHDSL_SEED", "2")
        err = self.refused(capsys, tmp_path, {"task": {"seed": 5}})
        assert err.startswith("error[ValueError]: task.seed is set by --seed (or ARCHDSL_SEED)")

    @pytest.mark.parametrize("mode", ["random", "rl"])
    def test_mode_is_owned_by_the_search_argument(self, capsys, tmp_path, mode):
        err = self.refused(capsys, tmp_path, {"search": {"mode": "rl"}}, mode)
        assert err.startswith("error[ValueError]: search.mode is set by the random|rl argument")

    def test_reward_has_no_seed(self, capsys, tmp_path):
        err = self.refused(capsys, tmp_path, {"reward": {"seed": 5}})
        assert "reward: unknown RewardConfig fields: ['seed']" in err
