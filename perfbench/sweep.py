"""Run workloads over several seeds, one fresh process per run, and report
each end-to-end metric's median, quartiles and spread against its bound.

    python3 perfbench/sweep.py --workloads desk-rl,pretrain --seeds 0-9

Runs are untraced and last run_seconds from BENCHMARK.json. The spread is
the distance between the first and third quartile as a share of the median;
a steady metric, setup_s included, stays below a third of its bound. Runs
go one at a time, so they never compete for a core.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    info = next(json.loads(line[5:]) for line in lines if line.startswith("info "))
    return json.loads(lines[-1]), info


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="0-9")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        digests: dict[int, set[str]] = {}
        failed = attempted = 0
        for seed in seed_list(args.seeds):
            result, info = run_once(workload, seed, bench["run_seconds"])
            failed += result["failed"]
            attempted += result["attempted"]
            digests.setdefault(seed, set()).add(info["records_sha256"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            shown = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
            print(f"{workload} seed {seed}: rounds {info['rounds']} "
                  f"records_sha256 {info['records_sha256'][:12]} "
                  f"calibration {info['env']['calibration_s']:.3f}s "
                  f"host speed {info['host_speed']:.3f} "
                  f"correct {result['correct']} {shown}", flush=True)
        print(f"== {workload}: failed {failed} of {attempted}; "
              f"records_sha256 repeat per seed: "
              f"{all(len(d) == 1 for d in digests.values())}")
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            ok = spread < bound / 3
            steady &= ok
            print(f"  {name:40s} median {med:14.6f} q1 {q1:14.6f} q3 {q3:14.6f} "
                  f"spread {spread:7.4f} bound {bound} {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
