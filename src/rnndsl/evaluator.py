"""Train compiled candidate cells on desk-scale sequence tasks.

Two tasks are provided: character-level language modeling over a corpus
(or a synthetic one) and a copy-memory task. Every evaluation, whether it
succeeds, diverges, times out, or trips the perplexity cutoff, produces
exactly one ArchPerfRecord.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from . import engine as en
from .compiler import (
    CompileError,
    DivergenceError,
    compile,
    initial_state,
    step,
)
from .dsl import Architecture, canonicalize, render
from .randgen import arch_id

EPOCH_TIMESTAMP = "1970-01-01T00:00:00Z"


@dataclass
class TaskSpec:
    kind: str = "copy_memory"  # or "char_lm"
    corpus_path: Optional[str] = None
    seed: int = 0
    batch_size: int = 32
    seq_len: int = 12  # BPTT window
    # char_lm: token counts per split; copy_memory: sequence counts
    train_size: int = 512
    valid_size: int = 128
    test_size: int = 128
    # copy_memory shape
    n_symbols: int = 6
    copy_len: int = 3
    delay: int = 5


@dataclass
class Task:
    spec: TaskSpec
    vocab_size: int
    train: list[tuple[np.ndarray, np.ndarray]]
    valid: list[tuple[np.ndarray, np.ndarray]]
    test: list[tuple[np.ndarray, np.ndarray]]
    baseline_loss: float  # entropy of the marginal target distribution

    @property
    def name(self) -> str:
        return self.spec.kind


def _copy_batches(
    spec: TaskSpec, rng: np.random.Generator, n_seqs: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    blank = spec.n_symbols
    marker = spec.n_symbols + 1
    k, d = spec.copy_len, spec.delay
    length = k + d + 1 + k
    batches = []
    for start in range(0, n_seqs, spec.batch_size):
        b = min(spec.batch_size, n_seqs - start)
        syms = rng.integers(0, spec.n_symbols, size=(b, k))
        x = np.full((b, length), blank, dtype=np.int64)
        y = np.full((b, length), blank, dtype=np.int64)
        x[:, :k] = syms
        x[:, k + d] = marker
        y[:, k + d + 1:] = syms
        batches.append((x, y))
    return batches


def _synthetic_corpus(rng: np.random.Generator, n_tokens: int) -> str:
    # structured pseudo-text a small recurrent model can learn
    words = ["ab", "abc", "bca", "cab", "aabb", "cc"]
    out: list[str] = []
    total = 0
    while total < n_tokens:
        w = words[rng.integers(0, len(words))]
        out.append(w + " ")
        total += len(w) + 1
    return "".join(out)[:n_tokens]


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


def _marginal_entropy(batches: list[tuple[np.ndarray, np.ndarray]], vocab: int) -> float:
    counts = np.zeros(vocab)
    for _, y in batches:
        counts += np.bincount(y.reshape(-1), minlength=vocab)
    p = counts / counts.sum()
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def make_task(spec: TaskSpec) -> Task:
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "copy_memory":
        vocab = spec.n_symbols + 2
        train = _copy_batches(spec, rng, spec.train_size)
        valid = _copy_batches(spec, rng, spec.valid_size)
        test = _copy_batches(spec, rng, spec.test_size)
    elif spec.kind == "char_lm":
        if spec.corpus_path:
            with open(spec.corpus_path, encoding="utf-8") as fh:
                text = fh.read()
            if not text:
                raise ValueError("empty corpus")
        else:
            total = spec.train_size + spec.valid_size + spec.test_size
            text = _synthetic_corpus(rng, total)
        chars = sorted(set(text))
        vocab = len(chars)
        lookup = {c: i for i, c in enumerate(chars)}
        ids = np.array([lookup[c] for c in text], dtype=np.int64)
        a = spec.train_size
        b = a + spec.valid_size
        train = _lm_batches(ids[:a], spec.batch_size, spec.seq_len)
        valid = _lm_batches(ids[a:b], spec.batch_size, spec.seq_len)
        test = _lm_batches(ids[b:], spec.batch_size, spec.seq_len)
    else:
        raise ValueError(f"unknown task kind {spec.kind!r}")
    if not train or not valid:
        raise ValueError("task splits produced no batches")
    return Task(
        spec=spec,
        vocab_size=vocab,
        train=train,
        valid=valid,
        test=test,
        baseline_loss=_marginal_entropy(train, vocab),
    )


@dataclass
class TrainConfig:
    epochs: int = 3
    optimizer: en.OptimizerConfig = field(
        default_factory=lambda: en.OptimizerConfig(
            kind="sgd", learning_rate=1.0, clip_value=0.075
        )
    )
    lr_decay_factor: float = 4.0
    decay_on_no_improve: bool = True
    dropout: float = 0.0
    tie_embeddings: bool = True
    hidden_size: int = 24
    n_layers: int = 1
    failure_ppl_threshold: float = 500.0
    failure_check_epoch: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs and not (self.epochs >= self.failure_check_epoch >= 1):
            raise ValueError("need epochs >= failure_check_epoch >= 1")


@dataclass
class ArchPerfRecord:
    id: str
    dsl: str
    ct_node: Optional[int]
    source: str  # random | rl | seed | human
    task: str
    status: str  # ok | diverged | failed_threshold | invalid | timeout
    valid_metric: Optional[float]
    test_metric: Optional[float]
    epochs_run: int
    wall_seconds: float
    batch_index: int
    timestamp: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "ArchPerfRecord":
        data = json.loads(line)
        if not isinstance(data, dict):
            raise TypeError("a record must be a JSON object")
        for name, value in data.items():
            allowed = _RECORD_FIELD_TYPES.get(name, object)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise TypeError(f"field {name!r} holds {type(value).__name__} {value!r}")
        return cls(**data)


# the JSON value types each record field accepts; booleans are never numbers
_NUMBER = (int, float)
_RECORD_FIELD_TYPES = {
    "id": str,
    "dsl": str,
    "ct_node": (int, type(None)),
    "source": str,
    "task": str,
    "status": str,
    "valid_metric": (*_NUMBER, type(None)),
    "test_metric": (*_NUMBER, type(None)),
    "epochs_run": int,
    "wall_seconds": _NUMBER,
    "batch_index": int,
    "timestamp": str,
}


class SequenceModel:
    """Embedding, stacked compiled cells, and a (tied) softmax head."""

    def __init__(
        self,
        arch: Architecture,
        vocab_size: int,
        hidden_size: int,
        n_layers: int,
        tie_embeddings: bool,
        rng: np.random.Generator,
    ):
        self.hidden_size = hidden_size
        self.tie = tie_embeddings
        self.emb = en.Parameter(en.init_embedding(rng, vocab_size, hidden_size), "emb")
        self.layers = [
            compile(arch, hidden_size, hidden_size, fuse=True, rng=rng)
            for _ in range(n_layers)
        ]
        self.params: list[en.Parameter] = [self.emb]
        for i, layer in enumerate(self.layers):
            for p in layer.parameters():
                p.name = f"l{i}_{p.name}"
                self.params.append(p)
        self.out_b = en.Parameter(np.zeros(vocab_size), "out_b")
        self.params.append(self.out_b)
        if not tie_embeddings:
            self.out_w = en.Parameter(
                en.init_mm_weight(rng, vocab_size, hidden_size), "out_W"
            )
            self.params.append(self.out_w)

    def loss(
        self,
        x_ids: np.ndarray,
        y_ids: np.ndarray,
        dropout: float,
        rng: np.random.Generator,
        train: bool,
    ) -> en.Tensor:
        batch, seq = x_ids.shape
        states = [initial_state(layer, batch) for layer in self.layers]
        hs = []
        for t in range(seq):
            h = en.embedding(self.emb, x_ids[:, t])
            h = en.dropout(h, dropout, rng, train)
            for li, layer in enumerate(self.layers):
                h, states[li] = step(layer, h, states[li])
                h = en.dropout(h, dropout, rng, train)
            hs.append(h)
        # one head over every timestep's top-layer h, rows in time-major order
        logits = en.linear(
            en.concat(hs, axis=0), self.emb if self.tie else self.out_w, self.out_b
        )
        return en.cross_entropy(logits, y_ids.T.reshape(-1))

    def mean_loss(self, batches, rng: np.random.Generator) -> float:
        with en.no_grad():
            vals = [
                float(self.loss(x, y, 0.0, rng, train=False).data)
                for x, y in batches
            ]
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

    rng = np.random.default_rng(cfg.seed)
    try:
        model = SequenceModel(
            arch,
            task.vocab_size,
            cfg.hidden_size,
            cfg.n_layers,
            cfg.tie_embeddings,
            rng,
        )
    except (CompileError, ValueError):
        return record("invalid")

    if cfg.epochs == 0:
        return record("timeout", epochs_run=0)

    opt = en.Optimizer(model.params, cfg.optimizer)
    best_valid = math.inf
    epochs_run = 0
    loss_cap = math.log(cfg.failure_ppl_threshold)

    with np.errstate(all="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            for x, y in task.train:
                try:
                    loss = model.loss(x, y, cfg.dropout, rng, train=True)
                except DivergenceError:
                    return record("diverged", epochs_run=epochs_run)
                if not np.isfinite(loss.data):
                    return record("diverged", epochs_run=epochs_run)
                loss.backward()
                if not opt.step():
                    return record("diverged", epochs_run=epochs_run)
            epochs_run = epoch
            try:
                valid = model.mean_loss(task.valid, rng)
            except DivergenceError:
                return record("diverged", epochs_run=epochs_run)
            if not np.isfinite(valid):
                return record("diverged", epochs_run=epochs_run)
            if epoch == cfg.failure_check_epoch and valid > loss_cap:
                return record(
                    "failed_threshold", valid_metric=valid, epochs_run=epochs_run
                )
            if valid < best_valid:
                best_valid = valid
            elif cfg.decay_on_no_improve:
                opt.lr /= cfg.lr_decay_factor

        try:
            test = model.mean_loss(task.test, rng) if task.test else None
        except DivergenceError:
            test = None
    return record("ok", valid_metric=best_valid, test_metric=test, epochs_run=epochs_run)
