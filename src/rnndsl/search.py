"""Search loops over the candidate space, plus the record store and reports.

Two loops are provided: random generation filtered through the learned
ranking function, and REINFORCE episodes with batch-composition rules.
Every evaluation appends exactly one JSONL record to an append-only
store; with fixed seeds, reruns are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from . import engine as en
from . import rlgen
from .compiler import compile, run_sequence
from .dsl import Architecture, OpKind, builtin, parse
from .evaluator import ArchPerfRecord, Task, TaskSpec, TrainConfig, train_and_score
from .randgen import GenConfig, arch_id, expand_ct_variants, generate_batch
from .ranker import Ranker, RankerConfig, select
from .rlgen import (
    Episode,
    Policy,
    RewardConfig,
    RLConfig,
    generate_episode,
    reward,
)

FAILING_STATUSES = ("diverged", "failed_threshold", "invalid", "timeout")


@dataclass
class SearchConfig:
    mode: str = "random_rank"  # or "rl"
    candidates_per_step: int = 50_000
    k_top: int = 28
    k_sampled: int = 4
    ct_enable_after: int = 750
    # rl batch composition
    min_good: int = 3
    max_failing: int = 1
    min_batch: int = 4
    starvation_limit: int = 25  # evaluations without a legal batch
    # stop criteria
    max_steps: int = 5
    max_evaluations: int = 200  # rl mode
    # ranking
    warm_start_ranker: bool = True
    temperature: float = 1.0
    seed_baselines: tuple[str, ...] = ("tanh_rnn",)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("random_rank", "rl"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.k_top + self.k_sampled > self.candidates_per_step:
            raise ValueError("k_top + k_sampled must not exceed candidates_per_step")
        if self.min_good + self.max_failing > self.min_batch:
            raise ValueError("min_good + max_failing must not exceed min_batch")


# ---------------------------------------------------------------------------
# record store
# ---------------------------------------------------------------------------

class StoreError(Exception):
    pass


class RecordStore:
    """Append-only JSONL file with an in-memory index by canonical id.

    A final line without its newline that does not parse is a torn write
    from an interrupted append: `load` leaves it out, and the first
    `append` after that load cuts it off before writing."""

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.records: list[ArchPerfRecord] = []
        self.by_id: dict[str, ArchPerfRecord] = {}
        # (byte length to keep, bytes to add) before the next append writes
        self._repair: Optional[tuple[int, bytes]] = None

    @classmethod
    def load(cls, path: str) -> "RecordStore":
        store = cls(path)
        if not os.path.exists(path):
            return store
        end = 0
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                start, end = end, end + len(raw)
                if not raw.strip():
                    continue
                try:
                    rec = ArchPerfRecord.from_json(raw.decode("utf-8"))
                except (ValueError, TypeError) as exc:
                    if not raw.endswith(b"\n"):
                        store._repair = (start, b"")
                        break
                    raise StoreError(f"{path}:{lineno}: malformed record: {exc}")
                if rec.id in store.by_id:
                    raise StoreError(f"{path}:{lineno}: duplicate id {rec.id}")
                store.records.append(rec)
                store.by_id[rec.id] = rec
            else:  # no torn line; a parsed last line may still lack its newline
                if end and not raw.endswith(b"\n"):
                    store._repair = (end, b"\n")
        return store

    def __contains__(self, rec_id: str) -> bool:
        return rec_id in self.by_id

    def __len__(self) -> int:
        return len(self.records)

    def append(self, rec: ArchPerfRecord) -> None:
        if rec.id in self.by_id:
            raise StoreError(f"duplicate id {rec.id} rejected")
        if self.path is not None:
            with open(self.path, "ab") as fh:
                if self._repair is not None:
                    keep, prefix = self._repair
                    fh.truncate(keep)
                    fh.write(prefix)
                    self._repair = None
                fh.write((rec.to_json() + "\n").encode("utf-8"))
                fh.flush()
        self.records.append(rec)
        self.by_id[rec.id] = rec

    def best(self) -> Optional[ArchPerfRecord]:
        ok = [r for r in self.records if r.status == "ok" and r.valid_metric is not None]
        if not ok:
            return None
        return min(ok, key=lambda r: r.valid_metric)

    def valid_ht_count(self) -> int:
        """Evaluated architectures with no c_t tap and status ok."""
        return sum(1 for r in self.records if r.status == "ok" and r.ct_node is None)


# ---------------------------------------------------------------------------
# shared evaluation plumbing
# ---------------------------------------------------------------------------

def _evaluate(
    arch: Architecture, store: RecordStore, task: Task, train_cfg: TrainConfig,
    source: str, batch_index: int,
) -> ArchPerfRecord:
    """The stored record of `arch`, or else train it and append its record."""
    rec = store.by_id.get(arch_id(arch))
    if rec is None:
        rec = train_and_score(
            arch, task, train_cfg, source=source, batch_index=batch_index
        )
        store.append(rec)
    return rec


def _seed_baselines(
    store: RecordStore, cfg: SearchConfig, task: Task, train_cfg: TrainConfig
) -> None:
    for name in cfg.seed_baselines:
        _evaluate(builtin(name), store, task, train_cfg, "seed", 0)


# ---------------------------------------------------------------------------
# random search directed by the ranking function
# ---------------------------------------------------------------------------

def run_random_search(
    cfg: SearchConfig,
    task: Task,
    gen_cfg: GenConfig,
    train_cfg: TrainConfig,
    ranker_cfg: Optional[RankerConfig] = None,
    store: Optional[RecordStore] = None,
) -> tuple[RecordStore, Optional[ArchPerfRecord]]:
    if store is None:
        store = RecordStore()
    rng = np.random.default_rng(cfg.seed)
    _seed_baselines(store, cfg, task, train_cfg)
    ranker = Ranker(ranker_cfg)
    ct_bootstrapped = False

    for step in range(1, cfg.max_steps + 1):
        ct_open = gen_cfg.allow_cm1 and store.valid_ht_count() >= cfg.ct_enable_after
        step_gen = replace(gen_cfg, allow_cm1=ct_open)
        cands = generate_batch(
            step_gen, cfg.candidates_per_step, seen=set(store.by_id), rng=rng
        )
        if not cands:
            continue
        if store.records:
            if not cfg.warm_start_ranker:
                ranker = Ranker(ranker_cfg)
            if ct_open and not ct_bootstrapped:
                ranker.bootstrap_ct_embeddings()
                ct_bootstrapped = True
            ranker.fit(store.records, rng=rng)
            chosen = select(
                ranker, cands, cfg.k_top, cfg.k_sampled, cfg.temperature, rng
            )
        else:
            take = min(len(cands), cfg.k_top + cfg.k_sampled)
            idx = rng.choice(len(cands), size=take, replace=False)
            chosen = [cands[i] for i in idx]
        for arch in chosen:
            _evaluate(arch, store, task, train_cfg, "random", step)
    return store, store.best()


# ---------------------------------------------------------------------------
# reinforcement-learning search
# ---------------------------------------------------------------------------

@dataclass
class RLSearchResult:
    store: RecordStore
    best: Optional[ArchPerfRecord]
    episode_rewards: list[float]
    batches_applied: int
    relaxed_batches: int


def _episode_result(
    ep: Episode,
    task: Task,
    train_cfg: TrainConfig,
    reward_cfg: RewardConfig,
    store: RecordStore,
    batch_index: int,
) -> tuple[float, bool, int]:
    """Evaluate every c_t placement of the episode's architecture.

    Returns (reward, is_good, evaluations_dispatched); results already in
    the store are reused without dispatching."""
    variants = expand_ct_variants(ep.arch)
    if not variants:
        # uses c_tm1 but offers no valid tap node: nothing to evaluate
        return reward(reward_cfg, None, "invalid"), False, 0
    before = len(store)
    results = [
        _evaluate(v, store, task, train_cfg, "rl", batch_index) for v in variants
    ]
    best_rec = min(
        results,
        key=lambda r: r.valid_metric
        if r.status == "ok" and r.valid_metric is not None
        else math.inf,
    )
    good = best_rec.status == "ok"
    loss = best_rec.valid_metric if good else None
    return reward(reward_cfg, loss, best_rec.status), good, len(store) - before


def run_rl_search(
    cfg: SearchConfig,
    task: Task,
    policy: Policy,
    train_cfg: TrainConfig,
    reward_cfg: Optional[RewardConfig] = None,
    store: Optional[RecordStore] = None,
) -> RLSearchResult:
    if store is None:
        store = RecordStore()
    if reward_cfg is None:
        reward_cfg = RewardConfig()
    rng = np.random.default_rng(cfg.seed)
    opt = en.Optimizer(
        policy.params,
        en.OptimizerConfig(kind="adam", learning_rate=policy.cfg.learning_rate),
    )

    good_pending: list[Episode] = []
    fail_pending: list[Episode] = []
    rewards_seen: list[float] = []
    evaluations = 0
    batches = 0
    relaxed = 0
    since_update = 0

    while evaluations < cfg.max_evaluations:
        ep = generate_episode(policy, rng)
        r, good, dispatched = _episode_result(
            ep, task, train_cfg, reward_cfg, store, batches
        )
        ep.reward = r
        rewards_seen.append(r)
        evaluations += dispatched
        since_update += 1
        (good_pending if good else fail_pending).append(ep)

        batch: list[Episode] = []
        n_fail = min(len(fail_pending), cfg.max_failing)
        if (
            len(good_pending) >= cfg.min_good
            and len(good_pending) + n_fail >= cfg.min_batch
        ):
            batch = good_pending + fail_pending[:n_fail]
            good_pending = []
            fail_pending = fail_pending[n_fail:]
        elif since_update >= cfg.starvation_limit and (good_pending or fail_pending):
            # composition rule unsatisfiable for too long: accept what we have
            batch = good_pending + fail_pending
            good_pending, fail_pending = [], []
            relaxed += 1
        if batch:
            if rlgen.reinforce_update(policy, batch, opt):
                batches += 1
            since_update = 0
    return RLSearchResult(store, store.best(), rewards_seen, batches, relaxed)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

OPERATOR_COLUMNS = [op.value for op in OpKind if not op.is_source]


def ops_over_time(store: RecordStore) -> list[dict]:
    """Per batch, each operator's share of all operator occurrences."""
    by_batch: dict[int, list[ArchPerfRecord]] = {}
    for rec in store.records:
        by_batch.setdefault(rec.batch_index, []).append(rec)
    rows = []
    for batch in sorted(by_batch):
        counts = {c: 0 for c in OPERATOR_COLUMNS}
        total = 0
        for rec in by_batch[batch]:
            for node in parse(rec.dsl).root.walk():
                if not node.op.is_source:
                    counts[node.op.value] += 1
                    total += 1
        row = {"batch": batch}
        for c in OPERATOR_COLUMNS:
            row[c] = counts[c] / total if total else 0.0
        rows.append(row)
    return rows


def search_curve(store: RecordStore) -> list[dict]:
    """Per-evaluation best-so-far metric plus the per-batch mean metric."""
    batch_means: dict[int, float] = {}
    by_batch: dict[int, list[float]] = {}
    for rec in store.records:
        if rec.status == "ok" and rec.valid_metric is not None:
            by_batch.setdefault(rec.batch_index, []).append(rec.valid_metric)
    for b, vals in by_batch.items():
        batch_means[b] = float(np.mean(vals))
    rows = []
    best = math.inf
    for i, rec in enumerate(store.records):
        if rec.status == "ok" and rec.valid_metric is not None:
            best = min(best, rec.valid_metric)
        rows.append(
            {
                "index": i,
                "id": rec.id,
                "batch": rec.batch_index,
                "status": rec.status,
                "valid_metric": rec.valid_metric,
                "best_so_far": None if math.isinf(best) else best,
                "batch_mean_metric": batch_means.get(rec.batch_index),
            }
        )
    return rows


def hidden_dump(
    dsl: str,
    seq_len: int = 16,
    hidden_size: int = 8,
    input_size: int = 8,
    seed: int = 0,
) -> list[dict]:
    """Per-timestep hidden vector of one rollout on random inputs."""
    rng = np.random.default_rng(seed)
    prog = compile(parse(dsl), input_size, hidden_size, rng=rng)
    xs = [rng.standard_normal((1, input_size)) for _ in range(seq_len)]
    with en.no_grad():
        _, _, trace = run_sequence(prog, xs, collect_trace=True)
    return [
        {"t": t, **{f"h{j}": float(v) for j, v in enumerate(h)}}
        for t, h in enumerate(trace)
    ]


def write_csv(rows: list[dict], path: str) -> None:
    if not rows:
        raise ValueError("no rows to write")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def report(store: Optional[RecordStore], kind: str, **args) -> list[dict]:
    if kind == "ops_over_time":
        assert store is not None
        return ops_over_time(store)
    if kind == "search_curve":
        assert store is not None
        return search_curve(store)
    if kind == "hidden_dump":
        if "dsl" not in args and store is not None:
            best = store.best()
            if best is None:
                raise ValueError("store has no successful record to dump")
            args["dsl"] = best.dsl
        return hidden_dump(**args)
    raise ValueError(f"unknown report kind {kind!r}")


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

CONFIG_SECTIONS = {
    "search": SearchConfig,
    "gen": GenConfig,
    "train": TrainConfig,
    "ranker": RankerConfig,
    "reward": RewardConfig,
    "rl": RLConfig,
    "task": TaskSpec,
}


def _build_dataclass(cls, data: dict):
    names = {f.name for f in fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    kwargs = dict(data)
    if cls is TrainConfig and isinstance(kwargs.get("optimizer"), dict):
        kwargs["optimizer"] = _build_dataclass(en.OptimizerConfig, kwargs["optimizer"])
    if cls is GenConfig and isinstance(kwargs.get("operator_weights"), dict):
        kwargs["operator_weights"] = {
            OpKind(k): float(v) for k, v in kwargs["operator_weights"].items()
        }
    if cls is GenConfig and "require_sources" in kwargs:
        kwargs["require_sources"] = tuple(
            OpKind(s) for s in kwargs["require_sources"]
        )
    if cls is SearchConfig and "seed_baselines" in kwargs:
        kwargs["seed_baselines"] = tuple(kwargs["seed_baselines"])
    return cls(**kwargs)


def load_config(path: Optional[str] = None) -> dict:
    """One JSON document with optional sections; defaults fill the rest
    (every section, given no path)."""
    data = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    unknown = set(data) - set(CONFIG_SECTIONS)
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")
    out = {}
    for key, cls in CONFIG_SECTIONS.items():
        out[key] = _build_dataclass(cls, data.get(key, {}))
    return out
