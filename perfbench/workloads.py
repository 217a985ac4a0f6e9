"""The benchmark workloads: inputs made from the seed, set-up, one timed
round through the library's public entry points, and the checks on each
round's outputs.

Round r of a run with seed s has the round seed 1000 * s + r; round seed 0
is the acceptance-08/09 configuration. Where the workload allows it, the
round seed changes only inputs that leave the amount of work alone (task
data, initial weights, the order of fitting, the sampled picks), so that
rounds and runs time the same program on the same amount of work: on
desk-rl the architectures the search samples, and on paper-rank the stored
and the generated architectures, are those of the acceptance seeds. On
pretrain the round seed draws the episodes themselves, because the policy's
samples are all the work there is.
"""

from __future__ import annotations

import bisect
import hashlib
import inspect
import json
import math
import os
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from rnndsl import engine as en
from rnndsl import randgen, rlgen, search
from rnndsl import ranker as ranker_mod
from rnndsl.dsl import analyze, operator_count, parse, render, tree_height
from rnndsl.evaluator import ArchPerfRecord, Task, TaskSpec, TrainConfig, make_task
from rnndsl.randgen import GenConfig, arch_id, check_restrictions
from rnndsl.ranker import RankerConfig
from rnndsl.rlgen import Policy, RewardConfig, RLConfig
from rnndsl.search import RecordStore, SearchConfig

STATUSES = ("ok", "diverged", "failed_threshold", "invalid", "timeout")


@contextmanager
def wrapped(owner, attr: str, make: Callable[[Callable], Callable]):
    """Replace owner.attr by make(original) and put the original back on
    exit. A classmethod stays a classmethod; wrap methods on the class."""
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))
    try:
        yield
    finally:
        setattr(owner, attr, raw)


# A shared virtual machine can slow every program down by up to about 1.6x
# for tens of seconds to minutes at a time, through no cause inside the guest
# (measured on a 2-vCPU KVM guest; see README.md). A fixed reference
# computation, run between a round's stretches every REF_EVERY_S, slows down
# with it; each stretch is converted to the time it would have taken at the
# speed at which one reference chunk takes REF_CHUNK_S. The reference code is
# the benchmark's own and stays the same from commit to commit, so a slower
# library still reads slower.
REF_CHUNK_S = 400e-6
REF_EVERY_S = 0.02
REF_NEAREST = 5  # reference chunks, nearest in time, whose median sets a stretch's speed
_REF_A = np.random.default_rng(0).standard_normal((16, 16))
_REF_B = 0.1 * np.random.default_rng(1).standard_normal((16, 16))


class _RefNode:
    __slots__ = ("value", "parents", "grad")

    def __init__(self, value, parents) -> None:
        self.value = value
        self.parents = parents
        self.grad = None


def reference_chunk() -> float:
    """A fixed mix of interpreter work and small numpy calls, like the
    library's: an integer loop, then a small graph built and walked back."""
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    x = _RefNode(_REF_A, ())
    nodes = []
    for _ in range(12):
        y = _RefNode(np.tanh(x.value @ _REF_B), (x,))
        x = _RefNode(y.value * 0.5 + _REF_A, (y, x))
        nodes += [y, x]
    g = np.ones_like(_REF_A)
    for node in reversed(nodes):
        node.grad = g
        g = g * 0.9 + node.value.sum() * 1e-3
    return acc + float(g[0, 0])


class Stopwatch:
    """Marks the time at the entry and exit of chosen calls during a round.
    The marks cut the round into short stretches that come in the same order
    in every repeat of the round; ops holds the first and last mark of each
    operation. With reference on, a reference chunk runs at a mark whenever
    REF_EVERY_S has passed since the last one; its time is left out of every
    stretch."""

    def __init__(self, reference: bool = True) -> None:
        self.marks: list[float] = []
        self.ops: list[tuple[int, int]] = []
        self.refs: list[tuple[int, float]] = []  # (marks before it, seconds)
        self.reference = reference
        self._skipped = 0.0  # seconds spent in reference chunks
        self._last_ref = -math.inf

    def mark(self) -> None:
        self.marks.append(time.perf_counter() - self._skipped)
        if self.reference and time.perf_counter() - self._last_ref > REF_EVERY_S:
            self._reference()

    def _reference(self) -> None:
        t0 = time.perf_counter()
        reference_chunk()
        t1 = time.perf_counter()
        self.refs.append((len(self.marks), t1 - t0))
        self._skipped += t1 - t0
        self._last_ref = t1

    def stretches(self) -> list[float]:
        return [b - a for a, b in zip(self.marks, self.marks[1:])]

    def speed(self, first: Optional[int] = None) -> float:
        """The host's median speed over the round, or over its first
        reference chunks: nominal over measured reference chunk time."""
        return REF_CHUNK_S / float(np.median([t for _, t in self.refs[:first]]))

    def adjusted(self) -> list[float]:
        """Each stretch at the reference speed, set by the median of the
        REF_NEAREST reference chunks nearest to it in the round."""
        at = [m for m, _ in self.refs]
        times = np.array([t for _, t in self.refs])
        out = []
        for j, dt in enumerate(self.stretches()):
            # stretch j lies between marks j and j + 1
            mid = bisect.bisect_right(at, j + 1)
            lo = max(0, min(mid - REF_NEAREST // 2, len(at) - REF_NEAREST))
            out.append(dt * REF_CHUNK_S / float(np.median(times[lo:lo + REF_NEAREST])))
        return out

    def at(self, owner, attr: str, op: bool = False, kept: Optional[list] = None,
           keep: Callable = lambda out: out):
        """Mark every call of owner.attr while the context is open; with op,
        each call is an operation. kept collects keep(result) of each call
        for checking after the round."""

        def make(fn):
            def marked(*args, **kwargs):
                first = len(self.marks)
                self.mark()
                out = fn(*args, **kwargs)
                self.mark()
                if op:
                    self.ops.append((first, len(self.marks) - 1))
                if kept is not None:
                    kept.append(keep(out))
                return out

            return marked

        return wrapped(owner, attr, make)


@dataclass
class Round:
    """What one timed round did and how many of its operations failed."""

    ops: int
    failed: int
    digest: str
    watch: Stopwatch
    notes: dict = field(default_factory=dict)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def record_problem(line: str, seen: set[str]) -> Optional[str]:
    """Why one JSONL store line is not a valid record, or None if it is."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError:
        return "not JSON"
    if not isinstance(rec, dict):
        return "not an object"
    rid = rec.get("id")
    if not isinstance(rid, str):
        return "no string id"
    if rid in seen:
        return f"duplicate id {rid}"
    seen.add(rid)
    try:
        arch = parse(rec["dsl"])
    except (KeyError, TypeError, ValueError):
        return f"{rid}: dsl does not parse"
    if arch_id(arch) != rid:
        return f"{rid}: dsl re-parses to {arch_id(arch)}"
    status = rec.get("status")
    if status not in STATUSES:
        return f"{rid}: unknown status {status!r}"
    metric = rec.get("valid_metric")
    if status == "ok" and (
        isinstance(metric, bool)
        or not isinstance(metric, (int, float))
        or not math.isfinite(metric)
    ):
        return f"{rid}: ok record without a finite valid_metric"
    return None


def check_store(path: str) -> tuple[int, list[str]]:
    """Validate every record of a JSONL store: (records, problems)."""
    seen: set[str] = set()
    problems = []
    n = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            n += 1
            why = record_problem(line, seen)
            if why is not None:
                problems.append(f"{path}:{lineno}: {why}")
    return n, problems


def check_selection(cands, scores, picks, k_top: int, k_sampled: int,
                    cfg: GenConfig, store_ids: set[str]) -> list[str]:
    """Problems with one selection step; one entry per failed candidate."""
    problems = []
    ids = [arch_id(a) for a in cands]
    seen: set[str] = set()
    for a, cid in zip(cands, ids):
        if cid in seen or cid in store_ids:
            problems.append(f"{cid}: duplicate candidate")
        elif not check_restrictions(a, cfg).admissible:
            problems.append(f"{cid}: inadmissible candidate")
        seen.add(cid)
    if len(scores) != len(cands) or not all(math.isfinite(s) for s in scores):
        problems.append("scores missing or not finite")
        return problems
    pick_ids = [arch_id(a) for a in picks]
    lowest = [ids[i] for i in np.argsort(scores, kind="stable")[:k_top]]
    if (len(pick_ids) != k_top + k_sampled or len(set(pick_ids)) != len(pick_ids)
            or pick_ids[:k_top] != lowest or not set(pick_ids) <= seen):
        problems.extend(f"{pid}: wrong pick" for pid in pick_ids)
    return problems


# ---------------------------------------------------------------------------
# desk-scale inputs (acceptance 09 at seed 0)
# ---------------------------------------------------------------------------

def desk_task(seed: int, tiny: bool) -> Task:
    if tiny:
        return make_task(TaskSpec(kind="copy_memory", seed=3 + seed, batch_size=8,
                                  train_size=16, valid_size=8, test_size=8))
    return make_task(TaskSpec(kind="copy_memory", seed=3 + seed, batch_size=16,
                              train_size=128, valid_size=64, test_size=64))


def desk_train(seed: int, tiny: bool) -> TrainConfig:
    return TrainConfig(epochs=1 if tiny else 2, hidden_size=4 if tiny else 16,
                       failure_check_epoch=1, seed=seed)


class Workload:
    """One workload: run() is the timed part of a round, check() turns its
    output into a Round outside the timed part. Each round has its own round
    seed; the run's seed sets the inputs written once by make_inputs()."""

    name = ""
    op = ""  # what one operation is, for ops_per_s and op_ms.*
    sizes: dict[str, dict] = {}  # knobs for full and tiny runs

    def __init__(self, seed: int, tiny: bool, out_dir: str):
        self.seed = seed
        self.tiny = tiny
        self.k = self.sizes["tiny" if tiny else "full"]
        self.out_dir = out_dir

    @property
    def ops_per_round(self) -> int:
        """Lower bound on operations per round; fixes the tail percentile."""
        return self.k["ops"]

    def make_inputs(self) -> None:
        """Write any input file the workload reads; not timed."""

    def setup(self, seed: int):
        """Everything a round with this round seed needs before it starts."""
        raise NotImplementedError

    def run(self, state, watch: Stopwatch):
        """The round, marked on watch; returns what check() needs."""
        raise NotImplementedError

    def check(self, state, out) -> Round:
        raise NotImplementedError

    def _path(self, suffix: str) -> str:
        return os.path.join(self.out_dir, f"{self.name}-s{self.seed}{suffix}")


class DeskRL(Workload):
    """The acceptance-09 RL search, cut at a fixed number of evaluations,
    appending to a JSONL store on disk. The round seed draws the task data
    and the cells' initial weights; the search itself keeps the acceptance
    seed, so every round samples and trains the same architectures."""

    name = "desk-rl"
    op = "evaluation"
    sizes = {"full": dict(width=16, evals=24, ops=24), "tiny": dict(width=4, evals=3, ops=3)}

    def setup(self, seed: int):
        policy = Policy(RLConfig(width=self.k["width"], seed=0,
                                 learning_rate=0.01, normalize_advantage=True))
        path = self._path(".jsonl")
        if os.path.exists(path):
            os.remove(path)
        return seed, desk_task(seed, self.tiny), policy, RecordStore(path)

    def run(self, state, watch: Stopwatch):
        s, task, policy, store = state
        cfg = SearchConfig(mode="rl", max_evaluations=self.k["evals"], seed=0,
                           seed_baselines=())
        with ExitStack() as marking:
            marking.enter_context(watch.at(search, "train_and_score", op=True))
            for owner, attr in ((en.Optimizer, "step"), (search, "generate_episode"),
                                (search.RecordStore, "append")):
                marking.enter_context(watch.at(owner, attr))
            result = search.run_rl_search(cfg, task, policy, desk_train(s, self.tiny),
                                          RewardConfig(), store)
        return watch, {"episodes": len(result.episode_rewards),
                       "batches_applied": result.batches_applied}

    def check(self, state, out) -> Round:
        store = state[-1]
        watch, notes = out
        n, problems = check_store(store.path)
        # every evaluation appends exactly one record
        failed = len(problems) + abs(n - len(watch.ops))
        notes["problems"] = problems[:5]
        with open(store.path, "rb") as fh:
            digest = _sha256(fh.read())
        return Round(len(watch.ops), failed, digest, watch, notes)


class Pretrain(Workload):
    """Priors pre-training (acceptance 08) cut to a fixed episode budget,
    with the episodes drawn from rng 60 + round seed. Each call first rolls
    out 200 episodes to measure the untrained rate; the budget keeps training
    episodes and REINFORCE updates the larger part of the round. An operation
    is one training step: a batch of 10 episodes, the replayed ones and the
    update they feed. The episodes are the work here, so rounds differ in
    size; a run's figures are medians and totals over its rounds."""

    name = "pretrain"
    op = "REINFORCE step"
    sizes = {"full": dict(width=16, budget=300, ops=30),
             "tiny": dict(width=4, budget=10, ops=1)}

    def setup(self, seed: int):
        return seed, Policy(RLConfig(width=self.k["width"], seed=0, learning_rate=0.01,
                                     epsilon=0.0, normalize_advantage=True,
                                     entropy_weight=0.03))

    def run(self, state, watch: Stopwatch):
        s, policy = state
        archs: list = []
        with watch.at(rlgen, "measure_satisfaction", op=True), \
                watch.at(rlgen, "generate_episode", kept=archs, keep=lambda ep: ep.arch), \
                watch.at(rlgen, "reinforce_update", op=True), \
                watch.at(en.Tensor, "backward"):
            res = rlgen.pretrain_priors(policy, budget=self.k["budget"],
                                        rng=np.random.default_rng(60 + s))
        # a step runs from the end of the measuring rollouts or of the
        # previous update to the end of its own update
        ends = [last for _, last in watch.ops]
        watch.ops = list(zip(ends, ends[1:]))
        return watch, archs, res

    def check(self, state, out) -> Round:
        _, policy = state
        watch, archs, res = out
        # every episode is a complete tree inside the policy's size limits
        cfg = policy.cfg
        failed = sum(
            1 for arch in archs
            if arch.root.op.is_source or operator_count(arch.root) > cfg.max_nodes
            or tree_height(arch.root) >= cfg.max_depth
        )
        rates = [res.baseline_rate, res.final_rate, *res.rate_history]
        if not all(0.0 <= r <= 1.0 for r in rates):
            failed += 1
        params = hashlib.sha256()
        for p in policy.params:
            params.update(p.data.tobytes())
        body = json.dumps({"episodes_run": res.episodes_run, "rates": rates,
                           "archs": [render(a) for a in archs],
                           "params": params.hexdigest()})
        notes = {"episodes_run": res.episodes_run, "final_rate": res.final_rate,
                 "baseline_rate": res.baseline_rate}
        return Round(len(watch.ops), failed, _sha256(body.encode()), watch, notes)


class PaperRank(Workload):
    """One selection step at the paper's knobs: fit a hidden-128 ranker on a
    store read from disk, generate candidates with the default generator,
    score them all and pick 28 + 4. The stored architectures (seed 50, as in
    acceptance 06) and the candidates (generator seed 0) are the same in
    every round; the run's seed draws the stored metrics' noise, and the
    round seed the ranker's initial weights, the order of fitting and the
    sampled picks."""

    name = "paper-rank"
    op = "candidate"
    sizes = {
        "full": dict(records=200, hidden=128, epochs=10, ops=300, k_top=28, k_sampled=4),
        "tiny": dict(records=12, hidden=4, epochs=2, ops=40, k_top=4, k_sampled=2),
    }
    GEN = GenConfig(seed=0)

    def make_inputs(self) -> None:
        archs = randgen.generate_batch(GenConfig(seed=50), self.k["records"],
                                       rng=np.random.default_rng(50))
        noise = np.random.default_rng(self.seed).normal(0.0, 0.5, len(archs))
        path = self._path("-inputs.jsonl")
        if os.path.exists(path):
            os.remove(path)
        store = RecordStore(path)
        for a, e in zip(archs, noise):
            # the acceptance-06 target, node count / 4, plus seeded noise
            store.append(ArchPerfRecord(
                id=arch_id(a), dsl=render(a), ct_node=a.ct_node, source="random",
                task="copy_memory", status="ok",
                valid_metric=analyze(a).node_count / 4.0 + float(e), test_metric=None,
                epochs_run=1, wall_seconds=0.0, batch_index=0,
                timestamp="1970-01-01T00:00:00Z"))

    def setup(self, seed: int):
        store = RecordStore.load(self._path("-inputs.jsonl"))
        ranker = ranker_mod.Ranker(RankerConfig(hidden=self.k["hidden"],
                                                epochs=self.k["epochs"], seed=seed))
        return seed, store, ranker

    def run(self, state, watch: Stopwatch):
        s, store, ranker = state
        k = self.k
        scores: list[float] = []
        with watch.at(ranker_mod.Ranker, "score", True, scores), \
                watch.at(ranker_mod.Ranker, "_predict"), watch.at(en.Tensor, "backward"), \
                watch.at(randgen, "canonicalize"):
            ranker.fit(store.records, rng=np.random.default_rng((s, 1)))
            cands = randgen.generate_batch(self.GEN, k["ops"], seen=set(store.by_id),
                                           rng=np.random.default_rng((0, 2)))
            picks = ranker_mod.select(ranker, cands, k["k_top"], k["k_sampled"], 1.0,
                                      np.random.default_rng((s, 3)))
        return watch, scores, cands, picks

    def check(self, state, out) -> Round:
        _, store, _ = state
        watch, scores, cands, picks = out
        k = self.k
        problems = check_selection(cands, scores, picks, k["k_top"], k["k_sampled"],
                                   self.GEN, set(store.by_id))
        shortfall = k["ops"] - len(cands)
        problems += [f"generated {len(cands)} of {k['ops']}"] * shortfall
        body = json.dumps({"cands": [arch_id(a) for a in cands],
                           "picks": [arch_id(a) for a in picks],
                           "scores": [repr(x) for x in scores]})
        return Round(k["ops"], len(problems), _sha256(body.encode()), watch,
                     {"problems": problems[:5]})


WORKLOADS = {w.name: w for w in (DeskRL, Pretrain, PaperRank)}
