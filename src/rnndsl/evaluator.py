"""Train compiled candidate cells on desk-scale sequence tasks.

Two tasks are provided: character-level language modeling over a corpus
file and a copy-memory task. Every evaluation, whether it succeeds,
diverges, times out, or trips the perplexity cutoff, produces exactly one
ArchPerfRecord.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Callable, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import engine as en
from .compiler import (
    CompileError,
    DivergenceError,
    compile,
    initial_state,
    run_steps,
    step,  # noqa: F401  (the benchmark tracer wraps evaluator.step)
)
from .dsl import Architecture, canonicalize, render
from .randgen import arch_id

EPOCH_TIMESTAMP = "1970-01-01T00:00:00Z"

# copy_memory shape: symbols to copy from, sequence length to copy, and
# blanks between the copied symbols and the marker that asks for them
COPY_SYMBOLS = 6
COPY_LEN = 3
COPY_DELAY = 5
# the learning rate is divided by this after an epoch that does not
# improve the best validation loss
LR_DECAY_FACTOR = 4.0
# the perplexity cutoff: a cell whose validation perplexity is above it at
# TrainConfig.failure_check_epoch is dropped as failed_threshold
FAILURE_PPL = 500.0
# the tasks `make_task` builds, and the sources a record can come from
TASK_KINDS = ("copy_memory", "char_lm")
SOURCES = ("random", "rl", "seed", "human")


@dataclass
class TaskSpec:
    kind: str = "copy_memory"  # one of TASK_KINDS
    corpus_path: Optional[str] = None  # char_lm's text
    seed: int = 0
    batch_size: int = 32
    seq_len: int = 12  # BPTT window
    # char_lm: token counts per split; copy_memory: sequence counts
    train_size: int = 512
    valid_size: int = 128
    test_size: int = 128

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ValueError(f"TaskSpec.kind must be one of {list(TASK_KINDS)}, got {self.kind!r}")
        if self.kind == "char_lm" and not self.corpus_path:
            raise ValueError("TaskSpec.kind 'char_lm' needs a corpus_path")
        for name, least in (("batch_size", 1), ("seq_len", 2), ("train_size", 1),
                            ("valid_size", 1), ("test_size", 0)):
            if getattr(self, name) < least:
                raise ValueError(
                    f"TaskSpec.{name} must be >= {least}, got {getattr(self, name)}")


@dataclass
class Task:
    spec: TaskSpec
    vocab_size: int
    train: list[tuple[np.ndarray, np.ndarray]]
    valid: list[tuple[np.ndarray, np.ndarray]]
    test: list[tuple[np.ndarray, np.ndarray]]

    @property
    def name(self) -> str:
        return self.spec.kind


def _copy_batches(
    spec: TaskSpec, rng: np.random.Generator, n_seqs: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    blank = COPY_SYMBOLS
    marker = COPY_SYMBOLS + 1
    k, d = COPY_LEN, COPY_DELAY
    length = k + d + 1 + k
    batches = []
    for start in range(0, n_seqs, spec.batch_size):
        b = min(spec.batch_size, n_seqs - start)
        syms = rng.integers(0, COPY_SYMBOLS, size=(b, k))
        x = np.full((b, length), blank, dtype=np.int64)
        y = np.full((b, length), blank, dtype=np.int64)
        x[:, :k] = syms
        x[:, k + d] = marker
        y[:, k + d + 1:] = syms
        batches.append((x, y))
    return batches


def _lm_batches(
    ids: np.ndarray, batch_size: int, seq_len: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    n = (len(ids) - 1) // batch_size * batch_size
    if n < batch_size:
        raise ValueError("corpus too small for the requested batch size")
    x = ids[:n].reshape(batch_size, -1)
    y = ids[1:n + 1].reshape(batch_size, -1)
    batches = []
    for start in range(0, x.shape[1], seq_len):
        xe = x[:, start:start + seq_len]
        ye = y[:, start:start + seq_len]
        if xe.shape[1] >= 2:
            batches.append((xe, ye))
    return batches


def make_task(spec: TaskSpec) -> Task:
    if spec.kind == "copy_memory":
        rng = np.random.default_rng(spec.seed)
        vocab = COPY_SYMBOLS + 2
        train = _copy_batches(spec, rng, spec.train_size)
        valid = _copy_batches(spec, rng, spec.valid_size)
        test = _copy_batches(spec, rng, spec.test_size)
    else:  # char_lm
        with open(spec.corpus_path, encoding="utf-8") as fh:
            text = fh.read()
        if not text:
            raise ValueError("empty corpus")
        chars = sorted(set(text))
        vocab = len(chars)
        lookup = {c: i for i, c in enumerate(chars)}
        ids = np.array([lookup[c] for c in text], dtype=np.int64)
        a = spec.train_size
        b = a + spec.valid_size
        train = _lm_batches(ids[:a], spec.batch_size, spec.seq_len)
        valid = _lm_batches(ids[a:b], spec.batch_size, spec.seq_len)
        test = _lm_batches(ids[b:], spec.batch_size, spec.seq_len)
    if not train or not valid:
        raise ValueError("task splits produced no batches")
    return Task(spec=spec, vocab_size=vocab, train=train, valid=valid, test=test)


@dataclass
class TrainConfig:
    epochs: int = 3
    optimizer: en.OptimizerConfig = field(
        default_factory=lambda: en.OptimizerConfig(
            kind="sgd", learning_rate=1.0, clip_value=0.075
        )
    )
    hidden_size: int = 24
    failure_check_epoch: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs and not (self.epochs >= self.failure_check_epoch >= 1):
            raise ValueError("need epochs >= failure_check_epoch >= 1")
        if self.hidden_size < 1:
            raise ValueError(f"TrainConfig.hidden_size must be >= 1, got {self.hidden_size}")


# the statuses `train_and_score` gives a record
STATUSES = ("ok", "diverged", "failed_threshold", "invalid", "timeout")


@dataclass
class ArchPerfRecord:
    id: str
    dsl: str
    ct_node: Optional[int]
    source: str  # one of SOURCES
    task: str  # one of TASK_KINDS
    status: str  # one of STATUSES
    valid_metric: Optional[float]
    test_metric: Optional[float]
    epochs_run: int
    wall_seconds: float
    batch_index: int
    timestamp: str

    def __post_init__(self) -> None:
        for name, allowed in (("status", STATUSES), ("source", SOURCES), ("task", TASK_KINDS)):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"record {name} must be one of {list(allowed)}, got {value!r}")
        if self.status == "ok" and self.valid_metric is None:
            raise ValueError("an ok record needs a valid_metric")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "ArchPerfRecord":
        return from_dict(cls, json.loads(line), "record")


def from_dict(cls, data, where: str):
    """The dataclass ``cls`` from a JSON object, each value read by its
    field's annotation; a wrong one is a ValueError naming ``where.field``."""
    if not isinstance(data, dict):
        raise _wrong(where, "an object", data)
    readers = _readers(cls)
    unknown = data.keys() - readers.keys()
    if unknown:
        raise ValueError(f"{where}: unknown {cls.__name__} fields: {sorted(unknown)}")
    return cls(**{k: readers[k](v, f"{where}.{k}") for k, v in data.items()})


@functools.cache
def _readers(cls) -> dict[str, Callable[[object, str], object]]:
    return {name: _reader(tp) for name, tp in get_type_hints(cls).items()}


# what a JSON value of each type is checked for; booleans are never
# numbers, and an int is accepted as a float, unconverted
_PLAIN = {int: ("an integer", int), float: ("a finite number", (int, float)),
          bool: ("true or false", bool), str: ("a string", str),
          tuple: ("a list", list)}


def _reader(tp) -> Callable[[object, str], object]:
    """A function (value, where) that checks a JSON value against the
    annotation ``tp``: Optional, tuple[X, ...] from a list, a nested
    dataclass from an object, or a plain type."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:  # Optional[X]
        inner = _reader(args[0])
        return lambda v, w: None if v is None else inner(v, w)
    if is_dataclass(tp):
        return functools.partial(from_dict, tp)
    expected, accepted = _PLAIN[origin or tp]

    def plain(v, w):
        if isinstance(v, bool) is not (accepted is bool) or not isinstance(v, accepted) or (
                isinstance(v, float) and not math.isfinite(v)):
            raise _wrong(w, expected, v)
        return v
    if origin is tuple:
        item = _reader(args[0])
        return lambda v, w: tuple(item(x, f"{w}[{i}]") for i, x in enumerate(plain(v, w)))
    return plain


def _wrong(where: str, expected: str, v) -> ValueError:
    return ValueError(f"{where}: expected {expected}, got {type(v).__name__} {v!r}")


class SequenceModel:
    """Embedding, one compiled cell, and a softmax head tied to the
    embedding (Press & Wolf 2017)."""

    def __init__(
        self,
        arch: Architecture,
        vocab_size: int,
        hidden_size: int,
        rng: np.random.Generator,
    ):
        self.emb = en.Parameter(en.init_embedding(rng, vocab_size, hidden_size), "emb")
        self.cell = compile(arch, hidden_size, hidden_size, fuse=True, rng=rng)
        self.params: list[en.Parameter] = [self.emb]
        # the cell's names take an "l0_" prefix, which the pinned gradient
        # digests hash
        for p in self.cell.parameters():
            p.name = f"l0_{p.name}"
            self.params.append(p)
        self.out_b = en.Parameter(np.zeros(vocab_size), "out_b")
        self.params.append(self.out_b)

    def logits(self, x_ids: np.ndarray) -> en.Tensor:
        """The head's logits at every timestep, rows in time-major order;
        the cell runs over the whole sequence as one tape node."""
        h = en.embedding(self.emb, x_ids.T)
        h, _ = run_steps(self.cell, h, initial_state(self.cell, x_ids.shape[0]))
        return en.linear(h, self.emb, self.out_b)

    def loss(self, x_ids: np.ndarray, y_ids: np.ndarray) -> en.Tensor:
        logits = self.logits(x_ids)
        return en.cross_entropy(logits, y_ids.T.reshape(-1))

    def mean_loss(self, batches) -> float:
        """The mean of the batches' losses. Batches of one sequence length
        run as one batch; each loss still averages its own batch's rows, in
        time-major order."""
        vals = [0.0] * len(batches)
        with en.no_grad():
            for seq in dict.fromkeys(x.shape[1] for x, _ in batches):
                group = [i for i, (x, _) in enumerate(batches) if x.shape[1] == seq]
                x_ids = np.concatenate([batches[i][0] for i in group])
                z = self.logits(x_ids).data.reshape(seq, len(x_ids), -1)
                start = 0
                for i in group:
                    x, y = batches[i]
                    rows = z[:, start:start + len(x)].reshape(-1, z.shape[-1])
                    vals[i] = float(en.cross_entropy(en.Tensor(rows), y.T.reshape(-1)).data)
                    start += len(x)
        return float(np.mean(vals))


def train_and_score(
    arch: Architecture,
    task: Task,
    cfg: TrainConfig,
    source: str = "random",
    batch_index: int = 0,
) -> ArchPerfRecord:
    """Train a model around the cell and emit one performance record."""
    arch = canonicalize(arch)

    def record(status, valid_metric=None, test_metric=None, epochs_run=0):
        # no clock readings, so a rerun writes the same bytes
        return ArchPerfRecord(
            id=arch_id(arch),
            dsl=render(arch),
            ct_node=arch.ct_node,
            source=source,
            task=task.name,
            status=status,
            valid_metric=valid_metric,
            test_metric=test_metric,
            epochs_run=epochs_run,
            wall_seconds=0.0,
            batch_index=batch_index,
            timestamp=EPOCH_TIMESTAMP,
        )

    try:
        model = SequenceModel(
            arch, task.vocab_size, cfg.hidden_size, np.random.default_rng(cfg.seed)
        )
    except (CompileError, ValueError):
        return record("invalid")

    if cfg.epochs == 0:
        return record("timeout", epochs_run=0)

    opt = en.Optimizer(model.params, cfg.optimizer)
    best_valid = math.inf
    epochs_run = 0
    loss_cap = math.log(FAILURE_PPL)

    with np.errstate(all="ignore"):
        try:
            for epoch in range(1, cfg.epochs + 1):
                for x, y in task.train:
                    loss = model.loss(x, y)
                    if not np.isfinite(loss.data):
                        raise DivergenceError("non-finite training loss")
                    loss.backward()
                    if not opt.step():
                        raise DivergenceError("non-finite parameters after the step")
                epochs_run = epoch
                valid = model.mean_loss(task.valid)
                if not np.isfinite(valid):
                    raise DivergenceError("non-finite validation loss")
                if epoch == cfg.failure_check_epoch and valid > loss_cap:
                    return record(
                        "failed_threshold", valid_metric=valid, epochs_run=epochs_run
                    )
                if valid < best_valid:
                    best_valid = valid
                else:
                    opt.lr /= LR_DECAY_FACTOR
        except DivergenceError:
            return record("diverged", epochs_run=epochs_run)

        try:
            test = model.mean_loss(task.test) if task.test else None
        except DivergenceError:
            test = None
    return record("ok", valid_metric=best_valid, test_metric=test, epochs_run=epochs_run)
