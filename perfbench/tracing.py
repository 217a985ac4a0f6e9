"""Spans and counters at the library's module boundaries, recorded from the
benchmark's own files by wrapping module attributes; nothing in the library
is edited.

A name imported with ``from x import f`` is a separate attribute of the
importing module, so each such binding is wrapped where it is called from.
Spans stay in memory and are written as JSONL when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import ExitStack
from typing import Callable, Optional

import numpy as np

from rnndsl import compiler, dsl, evaluator, randgen, rlgen, search
from rnndsl import engine as en
from rnndsl import ranker as ranker_mod
from rnndsl.dsl import builtin, builtin_names
from workloads import STATUSES, wrapped

# span name -> the attributes that bind it (owner, attribute)
SPANS = {
    "randgen.generate_batch": [(randgen, "generate_batch")],
    "dsl.canonicalize": [(m, "canonicalize") for m in (dsl, randgen, evaluator,
                                                       ranker_mod, rlgen)],
    "randgen.arch_id": [(randgen, "arch_id"), (search, "arch_id"), (evaluator, "arch_id")],
    "ranker.fit": [(ranker_mod.Ranker, "fit")],
    "ranker.score_many": [(ranker_mod.Ranker, "score_many")],
    "ranker.select": [(ranker_mod, "select")],
    "compiler.compile": [(evaluator, "compile")],
    "compiler.step": [(evaluator, "step")],
    "engine.backward": [(en.Tensor, "backward")],
    "engine.optimizer_step": [(en.Optimizer, "step")],
    "evaluator.train_and_score": [(search, "train_and_score")],
    "rlgen.generate_episode": [(rlgen, "generate_episode"), (search, "generate_episode")],
    "rlgen.reinforce_update": [(rlgen, "reinforce_update")],
    "search.store_append": [(search.RecordStore, "append")],
    "search.store_load": [(search.RecordStore, "load")],
}
ROUND = "search.round"
SETUP = "bench.setup"
# engine.backward time is charged to the nearest of these enclosing spans
BACKWARD_OWNERS = {"evaluator.train_and_score": "evaluator", "ranker.fit": "ranker",
                   "rlgen.reinforce_update": "rlgen"}
BUILTINS = builtin_names()

_LAYER_NAMES = (
    [f"randgen.generate_batch.{k}" for k in ("calls", "busy_s")]
    + ["randgen.raw_trees", "randgen.raw_per_admitted", "randgen.shortfall"]
    + [f"{n}.{k}" for n in ("dsl.canonicalize", "randgen.arch_id") for k in ("calls", "busy_s")]
    + ["ranker.fit.calls", "ranker.fit.busy_s", "ranker.fit_epoch_ms",
       "ranker.score_us_per_cand", "ranker.select.busy_s"]
    + [f"{n}.{k}" for n in ("compiler.compile", "compiler.step") for k in ("calls", "busy_s")]
    + [f"engine.backward.{o}.busy_s" for o in ("evaluator", "ranker", "rlgen")]
    + ["engine.optimizer_step.calls", "engine.optimizer_step.busy_s",
       "engine.tensors_per_eval"]
    + [f"evaluator.train_and_score.{k}" for k in ("calls", "busy_s", "self_s")]
    + [f"evaluator.status.{s}" for s in STATUSES] + ["evaluator.ok_share"]
    + [f"rlgen.{n}.{k}" for n in ("generate_episode", "reinforce_update")
       for k in ("calls", "busy_s")]
    + ["rlgen.update_skipped"]
    + ["search.store_append.calls", "search.store_append.busy_s",
       "search.store_load.busy_s", "search.self_s"]
    + [f"evaluator.builtin.{b}.ms" for b in BUILTINS]
    + [f"compiler.step.{b}.{k}" for b in BUILTINS for k in ("fwd_us", "fwdbwd_us")]
    + ["trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_share"]
)


def _unit(name: str) -> str:
    for suffix, unit in ((".busy_s", "s"), (".self_s", "s"), ("_wall_s", "s"),
                         (".ms", "ms"), ("_ms", "ms"), ("_us", "us"),
                         ("_us_per_cand", "us"), ("_share", "share"),
                         ("_per_admitted", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


# per-layer metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {name: _unit(name) for name in _LAYER_NAMES}


class Tracer:
    """Wraps the boundaries in SPANS while installed. Each span is
    (id, name, start, end, parent id, child seconds, tensors created)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.tensors = 0
        self._stack: list[list] = []  # [span id, child seconds, tensors at entry]
        self._next_id = 0
        self._installed = ExitStack()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        def wrapper(*args, **kwargs):
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [self._next_id, 0.0, self.tensors]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append((frame[0], name, t0, t1, parent, frame[1],
                                   self.tensors - frame[2]))
                if self._stack:
                    self._stack[-1][1] += t1 - t0
            if after is not None:
                after(out, args, kwargs)
            return out

        return wrapper

    def call(self, name: str, fn: Callable, *args):
        """Run fn(*args) as a root span (a round or a set-up)."""
        return self.span(name, fn)(*args)

    # -- counters hooked to span results -------------------------------------

    def _generated(self, out, args, kwargs) -> None:
        n = kwargs["n"] if "n" in kwargs else args[1]
        self.counts["admitted"] += len(out)
        self.counts["shortfall"] += n - len(out)

    def _evaluated(self, rec, args, kwargs) -> None:
        self.counts[f"status.{rec.status}"] += 1

    def _updated(self, ok, args, kwargs) -> None:
        self.counts["update_skipped"] += not ok

    def _scored(self, out, args, kwargs) -> None:
        self.counts["scored"] += len(out)

    def _counted(self, key: str, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        self._installed.enter_context(wrapped(owner, attr, make))

    def install(self) -> None:
        after = {"randgen.generate_batch": self._generated,
                 "evaluator.train_and_score": self._evaluated,
                 "rlgen.reinforce_update": self._updated,
                 "ranker.score_many": self._scored}
        for name, sites in SPANS.items():
            for owner, attr in sites:
                self._patch(owner, attr,
                            lambda fn, name=name: self.span(name, fn, after.get(name)))
        self._patch(randgen, "check_restrictions",
                    lambda fn: self._counted("raw_trees", fn))

        def count_tensor(init):
            def counted(obj, *args, **kwargs):
                self.tensors += 1
                init(obj, *args, **kwargs)

            return counted

        self._patch(en.Tensor, "__init__", count_tensor)

    def uninstall(self) -> None:
        self._installed.close()

    # -- output ----------------------------------------------------------------

    def write(self, path: str, workload: str, run_id: str, t_origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, child, tensors in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": t0 - t_origin,
                    "end": t1 - t_origin, "parent": parent, "self_s": t1 - t0 - child,
                    "tensors": tensors, "workload": workload, "run": run_id}) + "\n")

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per traced round: calls, busy and self seconds at each boundary,
        the counters, and engine time charged to its enclosing layer."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        self_s: Counter = Counter()
        tensors_in_eval = 0
        by_id = {s[0]: s for s in self.spans}
        for sid, name, t0, t1, parent, child, tensors in self.spans:
            calls[name] += 1
            busy[name] += t1 - t0
            self_s[name] += t1 - t0 - child
            if name == "evaluator.train_and_score":
                tensors_in_eval += tensors
            if name in ("engine.backward", "engine.optimizer_step"):
                p = parent
                while p is not None and by_id[p][1] not in BACKWARD_OWNERS:
                    p = by_id[p][4]
                owner = BACKWARD_OWNERS[by_id[p][1]] if p is not None else "other"
                busy[f"{name}.{owner}"] += t1 - t0
                calls[f"{name}.{owner}"] += 1
        c = self.counts
        evals = calls["evaluator.train_and_score"]
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
        for owner in BACKWARD_OWNERS.values():
            out[f"engine.backward.{owner}.busy_s"] = busy[f"engine.backward.{owner}"]
        out["evaluator.train_and_score.self_s"] = self_s["evaluator.train_and_score"]
        out["search.self_s"] = self_s[ROUND]
        out["randgen.raw_trees"] = c["raw_trees"]
        out["randgen.shortfall"] = c["shortfall"]
        out["ranker.fit_epoch_ms"] = 1e3 * busy["ranker.fit"] / max(
            calls["engine.optimizer_step.ranker"], 1)
        for s in STATUSES:
            out[f"evaluator.status.{s}"] = c[f"status.{s}"]
        out["rlgen.update_skipped"] = c["update_skipped"]
        # per round: every count and time above is a total over traced rounds
        out = {k: v / rounds for k, v in out.items()}
        # ratios need no division by rounds
        out["randgen.raw_per_admitted"] = c["raw_trees"] / max(c["admitted"], 1)
        out["ranker.score_us_per_cand"] = 1e6 * busy["ranker.score_many"] / max(c["scored"], 1)
        out["engine.tensors_per_eval"] = tensors_in_eval / max(evals, 1)
        out["evaluator.ok_share"] = c["status.ok"] / max(evals, 1)
        return out


def builtin_probe(task, train_cfg, repeats: int = 3, steps: int = 50) -> dict[str, float]:
    """train_and_score of each builtin cell on the desk task, and one compiled
    step at desk size, forward alone and forward plus backward (medians)."""
    out = {}
    h = train_cfg.hidden_size
    batch = task.spec.batch_size
    for name in BUILTINS:
        arch = builtin(name)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            evaluator.train_and_score(arch, task, train_cfg)
            times.append(time.perf_counter() - t0)
        out[f"evaluator.builtin.{name}.ms"] = 1e3 * float(np.median(times))

        rng = np.random.default_rng(0)
        prog = compiler.compile(arch, h, h, fuse=True, rng=rng)
        state = compiler.initial_state(prog, batch)
        x = en.Tensor(rng.standard_normal((batch, h)))
        fwd, fwdbwd = [], []
        for _ in range(steps):
            t0 = time.perf_counter()
            compiler.step(prog, x, state)
            fwd.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            h_t, _ = compiler.step(prog, x, state)
            en.tsum(h_t).backward()
            fwdbwd.append(time.perf_counter() - t0)
        out[f"compiler.step.{name}.fwd_us"] = 1e6 * float(np.median(fwd))
        out[f"compiler.step.{name}.fwdbwd_us"] = 1e6 * float(np.median(fwdbwd))
    return out
