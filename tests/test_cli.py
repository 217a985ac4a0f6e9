"""Command-line behavior: output, exit codes, equivalence with the API."""

import json

import numpy as np
import pytest

from rnndsl.cli import main
from rnndsl.dsl import analyze, builtin, canonicalize, parse, render
from rnndsl.randgen import arch_id
from rnndsl.search import RecordStore

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


class TestEval:
    def _config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "task": {"batch_size": 16, "train_size": 64,
                     "valid_size": 32, "test_size": 32},
            "train": {"epochs": 1, "hidden_size": 8, "failure_check_epoch": 1},
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

    def test_search_deterministic(self, capsys, tmp_path):
        cfg = self._config(tmp_path)
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        run_json(capsys, "search", "random", "--config", cfg, "--out", a)
        run_json(capsys, "search", "random", "--config", cfg, "--out", b)
        assert open(a, "rb").read() == open(b, "rb").read()

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
         ("train", "wall_clock_budget", "TrainConfig"),
         ("rl", "min_depth", "RLConfig")],
    )
    def test_removed_config_field_exit_1(self, capsys, tmp_path, section, name, cls):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {name: 2}}))
        code, _, err = run_cli(
            capsys, "search", "random", "--config", str(cfg),
            "--out", str(tmp_path / "r.jsonl"),
        )
        assert code == 1
        assert f"unknown {cls} fields: ['{name}']" in err
