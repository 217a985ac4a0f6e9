"""Search loops over the candidate space, plus the record store and reports.

Two loops are provided: random generation filtered through the learned
ranking function, and REINFORCE episodes with batch-composition rules.
Every evaluation appends exactly one JSONL record to an append-only
store; with fixed seeds, reruns are byte-identical, and a search resumed
from a cut store writes the bytes of the uncut run.
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
from .dsl import Architecture, OpKind, builtin, builtin_names, canonicalize_all, parse
from .evaluator import ArchPerfRecord, Task, TaskSpec, TrainConfig, from_dict, train_and_score
from .randgen import (
    RAW_DRAWS_PER_CANDIDATE,
    GenConfig,
    arch_id,
    expand_ct_variants,
    generate_batch,
)
from .ranker import Ranker, RankerConfig, select
from .rlgen import (
    Episode,
    Memo,
    Policy,
    RewardConfig,
    RLConfig,
    generate_episode,
    reward,
)


@dataclass
class SearchConfig:
    mode: str = "random_rank"  # or "rl"
    candidates_per_step: int = 50_000
    k_top: int = 28
    k_sampled: int = 4
    # stop criteria
    max_steps: int = 5
    # rl mode, checked before each episode; an episode trains every c_t
    # placement of its tree, so the last one can overshoot the bound
    max_evaluations: int = 200
    # ranking
    temperature: float = 1.0
    seed_baselines: tuple[str, ...] = ("tanh_rnn",)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("random_rank", "rl"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        # k_top 0 picks only by sampling
        for name, least in (("candidates_per_step", 1), ("k_top", 0), ("k_sampled", 0),
                            ("temperature", 0), ("max_steps", 1), ("max_evaluations", 1)):
            if getattr(self, name) < least:
                raise ValueError(
                    f"SearchConfig.{name} must be >= {least}, got {getattr(self, name)}")
        if self.k_top + self.k_sampled > self.candidates_per_step:
            raise ValueError("k_top + k_sampled must not exceed candidates_per_step")
        unknown = [n for n in self.seed_baselines if n not in builtin_names()]
        if unknown:
            raise ValueError(
                f"SearchConfig.seed_baselines must be among {builtin_names()}, got {unknown}")


# ---------------------------------------------------------------------------
# record store
# ---------------------------------------------------------------------------

class StoreError(Exception):
    pass


def require_directory(path: str) -> None:
    """Refuse a file to be written whose directory does not exist, before
    the work that would write it."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise StoreError(f"{path}: no directory {directory}")


class RecordStore:
    """Append-only JSONL file with an in-memory index by canonical id.

    A final line without its newline that does not parse is a torn write
    from an interrupted append: `load` leaves it out, and the first
    `append` after that load cuts it off before writing."""

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.records: list[ArchPerfRecord] = []
        self.by_id: dict[str, ArchPerfRecord] = {}
        self.lines: dict[str, int] = {}  # the line of each record `load` read
        # (byte length to keep, bytes to add) before the next append writes
        self._repair: Optional[tuple[int, bytes]] = None

    @classmethod
    def load(cls, path: str) -> "RecordStore":
        store = cls(path)
        if not os.path.exists(path):
            require_directory(path)
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
                store.lines[rec.id] = lineno
            else:  # no torn line; a parsed last line may still lack its newline
                if end and not raw.endswith(b"\n"):
                    store._repair = (end, b"\n")
        return store

    def check_task(self, task: Optional[Task] = None) -> None:
        """Refuse a store that holds a record of a task other than `task`
        (by default, other than its first record's): its metric does not
        compare, yet a run would reuse it by id as its own, a ranker would
        fit on it and a report would mix it in."""
        if not self.records:
            return
        name = self.records[0].task if task is None else task.name
        for rec in self.records:
            if rec.task != name:
                where = f"{self.path}:{self.lines[rec.id]}" if rec.id in self.lines else rec.id
                raise StoreError(f"{where}: a {rec.task} record in a store used for {name}")

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
        ok = [r for r in self.records if r.status == "ok"]
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
    archs: list[Architecture], store: RecordStore, run: RecordStore, task: Task,
    train_cfg: TrainConfig, source: str, batch_index: int,
) -> list[ArchPerfRecord]:
    """The records of `archs`, in order. `run` holds the records this run
    evaluated and is the search state; `store` is the log on file and a
    cache by id. A record in the run is reused, one only on file is
    replayed into the run without training, and any other arch is trained,
    appended to `store` and added to the run. Each root object is
    canonicalized once (`canonicalize_all`), and the trees are trained
    canonical."""
    archs = canonicalize_all(archs)
    ids = [arch_id(arch) for arch in archs]
    for arch, rec_id in zip(archs, ids):
        if rec_id not in run:
            if rec_id not in store:
                store.append(train_and_score(arch, task, train_cfg, source=source,
                                             batch_index=batch_index))
            run.append(store.by_id[rec_id])
    return [run.by_id[rec_id] for rec_id in ids]


# ---------------------------------------------------------------------------
# random search directed by the ranking function
# ---------------------------------------------------------------------------

# random search draws c_tm1 only once the run holds this many ok records
# without a c_t tap
CT_ENABLE_AFTER = 750


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
    store.check_task(task)
    run = RecordStore()
    rng = np.random.default_rng(cfg.seed)
    _evaluate([builtin(name) for name in cfg.seed_baselines], store, run, task,
              train_cfg, "seed", 0)
    ranker = Ranker(ranker_cfg)
    ct_bootstrapped = False

    for step in range(1, cfg.max_steps + 1):
        ct_open = gen_cfg.allow_cm1 and run.valid_ht_count() >= CT_ENABLE_AFTER
        step_gen = replace(gen_cfg, allow_cm1=ct_open)
        cands = generate_batch(
            step_gen, cfg.candidates_per_step, seen=set(run.by_id), rng=rng
        )
        if not cands:
            raise ValueError(
                f"random search step {step} admitted no new candidate in "
                f"{RAW_DRAWS_PER_CANDIDATE * cfg.candidates_per_step} raw draws"
            )
        if run.records:
            if ct_open and not ct_bootstrapped:
                ranker.bootstrap_ct_embeddings()
                ct_bootstrapped = True
            ranker.fit(run.records, rng=rng)
            chosen = select(
                ranker, cands, cfg.k_top, cfg.k_sampled, cfg.temperature, rng
            )
        else:
            take = min(len(cands), cfg.k_top + cfg.k_sampled)
            idx = rng.choice(len(cands), size=take, replace=False)
            chosen = [cands[i] for i in idx]
        _evaluate(chosen, store, run, task, train_cfg, "random", step)
    return store, run.best()


# ---------------------------------------------------------------------------
# reinforcement-learning search
# ---------------------------------------------------------------------------

# The batch rule: an update waits for MIN_GOOD good episodes, takes at
# most MAX_FAILING failures with them, and needs MIN_BATCH episodes in
# all; failures beyond that wait for a later batch. After STARVATION_LIMIT
# episodes without an update, whatever is pending forms a relaxed batch.
MIN_GOOD = 3
MAX_FAILING = 1
MIN_BATCH = 4
STARVATION_LIMIT = 25
# consecutive episodes that dispatch no evaluation before the RL search
# gives up: each tree it drew was in the run or offered nothing to evaluate
IDLE_EPISODES_LIMIT = 100


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
    run: RecordStore,
    batch_index: int,
) -> tuple[float, bool, int]:
    """Evaluate every c_t placement of the episode's architecture.

    Returns (reward, is_good, evaluations_dispatched); results already in
    the run are reused without dispatching."""
    variants = expand_ct_variants(ep.arch)
    if not variants:
        # uses c_tm1 but offers no valid tap node: nothing to evaluate
        return reward(reward_cfg, None, "invalid"), False, 0
    before = len(run)
    results = _evaluate(variants, store, run, task, train_cfg, "rl", batch_index)
    best_rec = min(
        results,
        key=lambda r: r.valid_metric if r.status == "ok" else math.inf,
    )
    good = best_rec.status == "ok"
    loss = best_rec.valid_metric if good else None
    return reward(reward_cfg, loss, best_rec.status), good, len(run) - before


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
    store.check_task(task)
    if reward_cfg is None:
        reward_cfg = RewardConfig()
    run = RecordStore()
    # outside max_evaluations, which counts the episodes' evaluations
    _evaluate([builtin(name) for name in cfg.seed_baselines], store, run, task,
              train_cfg, "seed", 0)
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
    idle = 0
    memo = Memo()  # one per update window, as in `rlgen.pretrain_priors`

    while evaluations < cfg.max_evaluations:
        ep = generate_episode(policy, rng, memo=memo)
        r, good, dispatched = _episode_result(
            ep, task, train_cfg, reward_cfg, store, run, batches
        )
        ep.reward = r
        rewards_seen.append(r)
        evaluations += dispatched
        since_update += 1
        idle = 0 if dispatched else idle + 1
        if idle >= IDLE_EPISODES_LIMIT:
            raise ValueError(
                f"RL search: {idle} consecutive episodes dispatched no new "
                f"evaluation ({evaluations} evaluations done)"
            )
        (good_pending if good else fail_pending).append(ep)

        batch: list[Episode] = []
        n_fail = min(len(fail_pending), MAX_FAILING)
        if len(good_pending) >= MIN_GOOD and len(good_pending) + n_fail >= MIN_BATCH:
            batch = good_pending + fail_pending[:n_fail]
            good_pending = []
            fail_pending = fail_pending[n_fail:]
        elif since_update >= STARVATION_LIMIT and (good_pending or fail_pending):
            # composition rule unsatisfiable for too long: accept what we have
            batch = good_pending + fail_pending
            good_pending, fail_pending = [], []
            relaxed += 1
        if batch:
            if rlgen.reinforce_update(policy, batch, opt):
                batches += 1
            since_update = 0
            # failures carried past the update are re-scored into the next
            # window with their actions forced, which draws nothing from rng
            memo = Memo()
            for i, old in enumerate(fail_pending):
                fail_pending[i] = generate_episode(
                    policy, rng, forced_actions=old.actions, memo=memo
                )
                fail_pending[i].reward = old.reward
    return RLSearchResult(store, run.best(), rewards_seen, batches, relaxed)


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
        if rec.status == "ok":
            by_batch.setdefault(rec.batch_index, []).append(rec.valid_metric)
    for b, vals in by_batch.items():
        batch_means[b] = float(np.mean(vals))
    rows = []
    best = math.inf
    for i, rec in enumerate(store.records):
        if rec.status == "ok":
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
    seed: int = 0,
) -> list[dict]:
    """Per-timestep hidden vector of one rollout on random inputs of width 8."""
    rng = np.random.default_rng(seed)
    prog = compile(parse(dsl), 8, hidden_size, rng=rng)
    xs = [en.Tensor(rng.standard_normal((1, 8))) for _ in range(seq_len)]
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


def load_config(path: Optional[str] = None, owned: Optional[dict] = None) -> dict:
    """One JSON document with optional sections; defaults fill the rest
    (every section, given no path). ``owned`` maps a field name to (the
    command-line argument that sets it, its value): every section with that
    field takes the value, and a file that sets it is refused."""
    data = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config: expected an object, got {type(data).__name__}")
    unknown = set(data) - set(CONFIG_SECTIONS)
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")
    out = {}
    for key, cls in CONFIG_SECTIONS.items():
        section = data.get(key, {})
        for name, (owner, value) in (owned or {}).items():
            if isinstance(section, dict) and name in {f.name for f in fields(cls)}:
                if name in section:
                    raise ValueError(f"{key}.{name} is set by {owner}, not by the config file")
                section = {**section, name: value}
        out[key] = from_dict(cls, section, key)
    return out
