"""Tests of the benchmark itself: every metric prints with its unit, and the
output checks count a corrupted record or a wrong pick as failed.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from rnndsl.dsl import builtin, render  # noqa: E402
from rnndsl.evaluator import ArchPerfRecord  # noqa: E402
from rnndsl.randgen import GenConfig, arch_id, generate_batch  # noqa: E402
from rnndsl.search import RecordStore  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = next(line.split() for line in lines if line.split()[0] == m["name"])
        assert printed[2] == m["unit"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(str(tmp_path), "desk-rl", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _record(arch, **overrides):
    fields = dict(id=arch_id(arch), dsl=render(arch), ct_node=arch.ct_node,
                  source="random", task="copy_memory", status="ok", valid_metric=1.0,
                  test_metric=None, epochs_run=1, wall_seconds=0.0, batch_index=0,
                  timestamp="1970-01-01T00:00:00Z")
    fields.update(overrides)
    return json.dumps(fields, sort_keys=True)


@pytest.mark.parametrize("corruption", [
    {"id": "0123456789ab"},
    {"valid_metric": "NaN"},
    {"valid_metric": float("inf")},
    {"status": "exploded"},
])
def test_corrupted_record_counts_as_failed(tmp_path, corruption):
    archs = [builtin(n) for n in ("tanh_rnn", "gru", "lstm")]
    lines = [_record(archs[0]), _record(archs[1], **corruption), _record(archs[2])]
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    n, problems = workloads.check_store(str(path))
    assert n == 3 and len(problems) == 1

    store = RecordStore(str(path))
    watch = workloads.Stopwatch(reference=False)
    watch.ops = [(0, 1)] * 3  # three evaluations
    rnd = workloads.DeskRL(0, True, str(tmp_path)).check(
        (0, None, None, store), (watch, {}))
    assert rnd.ops == 3 and rnd.failed == 1


def test_intact_store_passes(tmp_path):
    path = tmp_path / "records.jsonl"
    store = RecordStore(str(path))
    for name in ("tanh_rnn", "gru", "lstm", "mgu", "bc3"):
        arch = builtin(name)
        store.append(ArchPerfRecord(**json.loads(_record(arch))))
    assert workloads.check_store(str(path)) == (5, [])


def test_wrong_pick_counts_as_failed():
    cfg = GenConfig(seed=0)
    cands = generate_batch(cfg, 12, rng=np.random.default_rng(0))
    scores = [float(i) for i in range(12)]
    right = cands[:4] + cands[6:8]
    assert workloads.check_selection(cands, scores, right, 4, 2, cfg, set()) == []
    wrong = cands[1:5] + cands[6:8]
    assert len(workloads.check_selection(cands, scores, wrong, 4, 2, cfg, set())) == 6
    repeated = cands[:4] + cands[6:7] * 2
    assert len(workloads.check_selection(cands, scores, repeated, 4, 2, cfg, set())) == 6


def test_stopwatch_times_stretches_at_the_reference_speed():
    watch = workloads.Stopwatch(reference=False)
    watch.marks = [0.0, 1.0, 3.0, 4.0]
    # reference chunks twice the nominal time: the host runs at half speed
    watch.refs = [(i, 2 * workloads.REF_CHUNK_S) for i in range(workloads.REF_NEAREST)]
    assert watch.stretches() == [1.0, 2.0, 1.0]
    assert watch.adjusted() == pytest.approx([0.5, 1.0, 0.5])
    assert watch.speed() == pytest.approx(0.5)


def test_stopwatch_leaves_reference_chunks_out():
    watch = workloads.Stopwatch()
    watch.mark()  # runs the first reference chunk
    watch.mark()
    assert len(watch.refs) == 1
    assert watch.stretches()[0] < watch.refs[0][1]
