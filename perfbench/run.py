"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload desk-rl --seed 0 --seconds 40 --trace 0

With --trace 0 the run repeats rounds of the workload, each in a fresh
interpreter started after the previous one has ended, until the next round
would end past --seconds (at least MIN_ROUNDS). Marks at the entry and exit
of chosen calls cut a round into stretches of a few milliseconds, and a
fixed reference computation runs between stretches; each stretch is timed
at the reference speed (workloads.Stopwatch), which takes out most of the
host's slow phases. It prints the end-to-end metrics of BENCHMARK.json. With --trace 1 it alternates untraced and traced rounds in
one process, prints the per-layer metrics, and writes the spans of the
traced rounds to .perfbench_out/. The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

import os
import sys
import time

T_START = time.perf_counter()  # span times are relative to this
# one BLAS thread, set before numpy is first imported
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
import uuid  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4
WORKLOAD_NAMES = ("desk-rl", "pretrain", "paper-rank")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for testing the benchmark itself")
    # run one round in this interpreter and print it; used by the run itself
    p.add_argument("--round", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def import_library():
    """Import rnndsl from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "rnndsl", "__init__.py")):
        sys.exit(f"run.py: no rnndsl package under {SRC}")
    sys.path.insert(0, SRC)
    import rnndsl

    if os.path.dirname(os.path.dirname(os.path.abspath(rnndsl.__file__))) != SRC:
        sys.exit(f"run.py: rnndsl imported from {rnndsl.__file__}, not {SRC}")


def calibrate() -> float:
    """Seconds for a fixed CPU-bound loop: a host-noise record, never used to
    rescale a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def environment(calibration_s: float) -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "loadavg": list(os.getloadavg()),
        "calibration_s": calibration_s,
    }


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it at a
    workload's minimum operation count; fixed per workload so runs compare."""
    return max(50, min(99, int(100 * (1 - 10 / max(n, 1)))))


def round_seed(seed: int, r: int) -> int:
    return 1000 * seed + r


def round_main(args, wl) -> int:
    """One round, in its own interpreter: set up, run, check, and print the
    round's figures at the reference speed as one JSON line."""
    import workloads

    state = wl.setup(round_seed(args.seed, args.round))
    ready = time.perf_counter()
    watch = workloads.Stopwatch()
    watch.mark()
    out = wl.run(state, watch)
    watch.mark()
    rnd = wl.check(state, out)
    adjusted = watch.adjusted()
    print(json.dumps({
        "ready": ready, "speed": watch.speed(), "wall_s": sum(adjusted),
        "start_speed": watch.speed(workloads.REF_NEAREST),
        "raw_wall_s": watch.marks[-1] - watch.marks[0],
        "op_s": [sum(adjusted[a:b]) for a, b in watch.ops],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": rnd.ops, "failed": rnd.failed, "digest": rnd.digest, "notes": rnd.notes}))
    return 0


def run_round(args, r: int) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--round", str(r)] + (["--tiny"] if args.tiny else [])
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"round {r} exited {proc.returncode}:\n{proc.stderr}")
    rnd = json.loads(proc.stdout.strip().splitlines()[-1])
    rnd["raw_setup_s"] = rnd["ready"] - t0  # interpreter start, imports, set-up
    rnd["duration_s"] = time.perf_counter() - t0
    return rnd


def timed_run(args, wl) -> tuple[dict, dict, int, int]:
    rounds: list[dict] = []
    failed = attempted = 0
    t_loop = time.perf_counter()
    while True:
        try:
            rnd = run_round(args, len(rounds))
        except Exception:
            traceback.print_exc()
            failed += 1
            attempted += 1
            break
        rounds.append(rnd)
        attempted += rnd["ops"]
        failed += rnd["failed"]
        for problem in rnd["notes"].get("problems", []):
            print(f"round {len(rounds) - 1}: {problem}", file=sys.stderr)
        elapsed = time.perf_counter() - t_loop
        longest = max(r["duration_s"] for r in rounds)
        if len(rounds) >= MIN_ROUNDS and elapsed + longest > args.seconds:
            break
    if not rounds:
        return {}, {}, attempted, failed
    walls = [r["wall_s"] for r in rounds]
    op_ms = [1e3 * x for r in rounds for x in r["op_s"]]
    q = tail_percentile(wl.ops_per_round * MIN_ROUNDS)
    metrics = {
        "setup_s": (statistics.median(r["raw_setup_s"] * r["start_speed"] for r in rounds), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "ops_per_s": (sum(r["ops"] for r in rounds) / sum(walls), "1/s"),
        "op_ms.p50": (float(np.percentile(op_ms, 50)), "ms"),
        "op_ms.tail": (float(np.percentile(op_ms, q)), "ms"),
    }
    # every run has the first MIN_ROUNDS rounds, so this digest repeats per seed
    digest = hashlib.sha256("".join(r["digest"] for r in rounds[:MIN_ROUNDS]).encode())
    info = {
        "rounds": len(rounds), "records_sha256": digest.hexdigest(),
        "notes": rounds[0]["notes"], "op_ms.tail": {"percentile": q, "samples": len(op_ms)},
        "wall_s_per_round": walls,
        # the same figures as the clock read them, before the speed adjustment
        "unadjusted": {"wall_s": statistics.median(r["raw_wall_s"] for r in rounds),
                       "setup_s": statistics.median(r["raw_setup_s"] for r in rounds)},
        "host_speed": statistics.median(r["speed"] for r in rounds),
    }
    return metrics, info, attempted, failed


def traced_run(args, wl, run_id: str) -> tuple[dict, dict, int, int]:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    walls = {False: [], True: []}  # traced? -> round wall seconds, in pair order
    durations: list[float] = []
    failed = attempted = rounds = 0
    t_loop = time.perf_counter()
    while True:
        # rounds come in pairs that differ only by tracing; which of the two
        # goes first alternates from pair to pair
        pair, second = divmod(rounds, 2)
        traced = second != pair % 2
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            seed = round_seed(args.seed, pair)
            state = tracer.call(tracing.SETUP, wl.setup, seed) if traced else wl.setup(seed)
            watch = workloads.Stopwatch(reference=False)
            t1 = time.perf_counter()
            out = (tracer.call(tracing.ROUND, wl.run, state, watch) if traced
                   else wl.run(state, watch))
            t2 = time.perf_counter()
            rnd = wl.check(state, out)
        except Exception:
            traceback.print_exc()
            failed += 1
            attempted += 1
            break
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        durations.append(t2 - t0)
        walls[traced].append(t2 - t1)
        attempted += rnd.ops
        failed += rnd.failed
        elapsed = time.perf_counter() - t_loop
        # a traced run stops only after a complete pair
        if (rounds >= MIN_TRACED_ROUNDS and rounds % 2 == 0
                and elapsed + max(durations) > args.seconds):
            break
    untraced, traced_walls = walls[False], walls[True]
    if not traced_walls:
        return {}, {}, attempted, failed
    layer = tracer.layer_metrics(len(traced_walls))
    layer.update(tracing.builtin_probe(workloads.desk_task(args.seed, args.tiny),
                                       workloads.desk_train(args.seed, args.tiny)))
    ratios = [t / u - 1 for u, t in zip(untraced, traced_walls)]
    # means, like the per-round layer values, so busy_s / wall is a share
    layer["trace.untraced_wall_s"] = statistics.mean(untraced)
    layer["trace.traced_wall_s"] = statistics.mean(traced_walls)
    layer["trace.overhead_share"] = statistics.median(ratios)
    one_sign = len(ratios) > 1 and (min(ratios) > 0 or max(ratios) < 0)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")
    tracer.write(spans_path, args.workload, run_id, T_START)
    info = {
        "rounds": rounds,
        "trace_overhead": {
            "pairs": ratios,
            "label": "resolved" if one_sign else "unresolved: pairs disagree in sign"},
        "spans": os.path.relpath(spans_path, ROOT),
    }
    metrics = {name: (layer[name], unit) for name, unit in tracing.PER_LAYER.items()}
    return metrics, info, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, OUT_DIR)
    if args.round is not None:
        return round_main(args, wl)
    wl.make_inputs()
    run_id = uuid.uuid4().hex[:12]
    env = environment(calibrate())
    run = traced_run if args.trace else timed_run
    metrics, info, attempted, failed = (
        run(args, wl, run_id) if args.trace else run(args, wl))
    if not metrics:
        return 1
    info.update({"workload": args.workload, "seed": args.seed, "run": run_id,
                 "op": wl.op, "failed_share": failed / attempted, "env": env,
                 "threads": threading.active_count()})
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
