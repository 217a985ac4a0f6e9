"""Dense-tensor engine with reverse-mode differentiation.

Everything is double precision. A Tensor wraps a numpy array plus the
closure that maps its gradient to one gradient per parent; `backward()`
runs the tape in reverse topological order. Only a Parameter holds a
gradient: the inner gradients live for one `backward()` call, and those
that reach other leaves are dropped. Gradient construction can be
switched off with `no_grad()` for cheap inference.

Each cell operator's math lives in one array kernel here (`sigmoid_fwd`,
`safe_div_bwd`, ...). The Tensor primitives are thin wrappers over them,
and a compiled cell's generated timestep functions call them by name: one
layer over a whole sequence (`compiler.run_steps`) is one tape node whose
backward pass calls the generated backward function for the timesteps in
reverse (`compiler.step` is the one-timestep case). The fused LSTM step
has a kernel pair too (`lstm_fwd`, `lstm_bwd`). `lstm_fwd` is its two
products, x @ W.T and h @ U.T, then a gate kernel (`lstm_gates`) that
computes the gates in place and writes the packed hidden|cell state into
one output array; the policy's encoder calls the gate kernel directly
with products it keeps for its token steps. The policy rolls out on
arrays with these kernels and records its steps, and the REINFORCE loss
of an update window (`rlgen.reinforce_loss`) is one tape node whose
backward pass runs over the stacked steps; an episode's log-probability
sum is that loss for the episode alone.
A fused node (a cell layer, the ranker's tree encoder, a REINFORCE loss)
lists the parameters it reads among its parents and returns their
gradients like any other parent's, so only `backward()` adds into a
Parameter (`Parameter.accumulate`).
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772
LAYERNORM_EPS = 1e-5
SAFE_DIV_EPS = 1e-7

_grad_enabled = True


@contextmanager
def no_grad():
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    __slots__ = ("data", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self._parents: tuple[Tensor, ...] = parents if _grad_enabled else ()
        # maps this tensor's gradient, without writing into it, to one
        # gradient (or None) per parent, in the parent's shape or in the
        # shape the parent was broadcast to
        self._backward: Optional[Callable[[np.ndarray], Sequence]] = (
            backward if _grad_enabled else None
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def backward(self) -> None:
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            t, done = stack.pop()
            if done:
                topo.append(t)
                continue
            if id(t) in seen:
                continue
            seen.add(id(t))
            stack.append((t, True))
            for p in t._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        # inner gradients by id, each complete before its tensor is reached
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for t in reversed(topo):
            if t._backward is None:
                continue
            g = grads.pop(id(t), None)
            if g is None:
                continue
            for p, gp in zip(t._parents, t._backward(g)):
                if gp is None:
                    continue
                if gp.shape != p.data.shape:
                    gp = _unbroadcast(gp, p.data.shape)
                if isinstance(p, Parameter):
                    p.accumulate(gp)
                elif p._backward is not None:
                    prev = grads.get(id(p))
                    grads[id(p)] = gp if prev is None else prev + gp

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class Parameter(Tensor):
    """A leaf that holds the gradient `Tensor.backward` adds into it."""

    __slots__ = ("name", "grad")

    def __init__(self, data, name: str):
        super().__init__(data)
        self.name = name
        self.grad: Optional[np.ndarray] = None

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a fresh copy in data's shape: g may be broadcast, and the same
            # g may be handed to another tensor as well
            grad = np.empty_like(self.data)
            grad[...] = g
            self.grad = grad
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.shape})"


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape`, the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# array kernels of the cell operators: `<op>_fwd(*inputs)` returns the value
# and what the backward pass needs beyond the inputs: what the forward pass
# already has (its output, or SELU's mask and exponential), so that a pass
# without gradients does no extra work;
# `<op>_bwd(g, inputs, saved)` derives the local derivative and returns one
# gradient per input. The Tensor primitives below, the compiled cell
# (compiler.run_steps), the ranker and the policy all use them.
# ---------------------------------------------------------------------------

def sigmoid_fwd(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return s, s


def sigmoid_bwd(g, inputs, s):
    return (g * (s * (1.0 - s)),)


def tanh_fwd(x):
    t = np.tanh(x)
    return t, t


def tanh_bwd(g, inputs, t):
    return (g * (1.0 - t * t),)


def relu_fwd(x):
    return np.maximum(x, 0.0), None


def relu_bwd(g, inputs, saved):
    return (g * (inputs[0] > 0).astype(np.float64),)


def sin_fwd(x):
    return np.sin(x), None


def sin_bwd(g, inputs, saved):
    return (g * np.cos(inputs[0]),)


def cos_fwd(x):
    return np.cos(x), None


def cos_bwd(g, inputs, saved):
    return (g * -np.sin(inputs[0]),)


def exp_fwd(x):
    e = np.exp(x)
    return e, e


def exp_bwd(g, inputs, e):
    return (g * e,)


def selu_fwd(x):
    pos = x > 0
    e = np.exp(np.minimum(x, 0.0))
    return SELU_LAMBDA * np.where(pos, x, SELU_ALPHA * (e - 1.0)), (pos, e)


def selu_bwd(g, inputs, saved):
    pos, e = saved
    return (g * (SELU_LAMBDA * np.where(pos, 1.0, SELU_ALPHA * e)),)


def safe_div_fwd(a, b):
    """a / b with |b| clamped to at least SAFE_DIV_EPS; saves the denominator."""
    sign = np.where(b >= 0, 1.0, -1.0)
    denom = sign * np.maximum(np.abs(b), SAFE_DIV_EPS)
    return a / denom, denom


def safe_div_bwd(g, inputs, denom):
    a, b = inputs
    # no gradient reaches b inside the clamped band
    return g / denom, np.where(np.abs(b) < SAFE_DIV_EPS, 0.0, -g * a / (denom * denom))


def gate3_fwd(x, y, f):
    """f*x + (1-f)*y; saves 1-f."""
    one_minus_f = 1.0 - f
    return f * x + one_minus_f * y, one_minus_f


def gate3_bwd(g, inputs, one_minus_f):
    x, y, f = inputs
    return g * f, g * one_minus_f, g * x - g * y


def layer_norm_fwd(x, gain, bias):
    """Per-row normalization over the last axis; saves xhat and 1/std."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = xc * inv
    return xhat * gain + bias, (xhat, inv)


def layer_norm_bwd(g, inputs, saved):
    """Gradients for x, gain and bias; the last two are per row."""
    xhat, inv = saved
    gx_hat = g * inputs[1]
    gx = inv * (
        gx_hat
        - gx_hat.mean(axis=-1, keepdims=True)
        - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
    )
    return gx, g * xhat, g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    return Tensor(out_data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    return Tensor(out_data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    return Tensor(out_data, (a, b), lambda g: (g * b.data, g * a.data))


def _kernel_op(fwd, bwd, *inputs: Tensor) -> Tensor:
    """One tape node over an array kernel pair."""
    arrays = [t.data for t in inputs]
    out_data, saved = fwd(*arrays)
    return Tensor(out_data, inputs, lambda g: bwd(g, arrays, saved))


def safe_div(a: Tensor, b: Tensor) -> Tensor:
    """a / b with |denominator| clamped away from zero."""
    return _kernel_op(safe_div_fwd, safe_div_bwd, a, b)


def gate3(x: Tensor, y: Tensor, f: Tensor) -> Tensor:
    """f*x + (1-f)*y."""
    return _kernel_op(gate3_fwd, gate3_bwd, x, y, f)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization over the last axis with learned gain/bias."""
    return _kernel_op(layer_norm_fwd, layer_norm_bwd, x, gain, bias)


def _unary_op(fwd, bwd):
    """The Tensor primitive over a unary kernel pair."""

    def op(x: Tensor) -> Tensor:
        return _kernel_op(fwd, bwd, x)

    # tracebacks, profiles and test ids name the op, not the wrapper
    op.__name__ = op.__qualname__ = fwd.__name__[: -len("_fwd")]
    return op


sigmoid = _unary_op(sigmoid_fwd, sigmoid_bwd)
tanh = _unary_op(tanh_fwd, tanh_bwd)
relu = _unary_op(relu_fwd, relu_bwd)
sin = _unary_op(sin_fwd, sin_bwd)
cos = _unary_op(cos_fwd, cos_bwd)
exp = _unary_op(exp_fwd, exp_bwd)
selu = _unary_op(selu_fwd, selu_bwd)


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """x [B, in] @ w.T [in, out] (+ b): the MM primitive."""
    out_data = x.data @ w.data.T
    if b is not None:
        out_data = out_data + b.data

    def bw(g):
        return g @ w.data, g.T @ x.data, g

    parents = (x, w) if b is None else (x, w, b)
    return Tensor(out_data, parents, bw)


def lstm_fwd(x, hc, W, U, b):
    """Fused LSTM step from a packed hidden|cell state.

    ``x`` [B, w_in] is the input, ``hc`` [B, 2w] packs the previous hidden
    state in columns [0, w) and the cell state in [w, 2w); ``W`` [4w, w_in],
    ``U`` [4w, w], and ``b`` [4w] parameterize the i|f|o|u gate blocks.
    Returns the packed next state [B, 2w] and what `lstm_bwd` needs: the
    i|f|o gates [B, 3w], u and the tanh of the new cell state.
    """
    w = hc.shape[1] // 2
    return lstm_gates(x @ W.T, hc[:, :w] @ U.T, hc, b)


def lstm_gates(xW, hU, hc, b):
    """`lstm_fwd` from its two products, ``xW`` = x @ W.T and ``hU`` =
    h @ U.T [B, 4w], so that a caller can reuse a product it keeps.

    The same operations in the same order, so the same bits: z = (xW + hU)
    + b, the gates 1 / (1 + exp(-z)) and tanh in place in z, the cell state
    f * c + i * u and the hidden state o * tanh(c2) written into the packed
    output. The saved gates are views of z.
    """
    w = hc.shape[1] // 2
    z = xW + hU
    z += b
    ifo, u = z[:, : 3 * w], z[:, 3 * w :]
    np.negative(ifo, out=ifo)
    np.exp(ifo, out=ifo)
    ifo += 1.0
    np.divide(1.0, ifo, out=ifo)
    np.tanh(u, out=u)
    out = np.empty(hc.shape)
    c2 = out[:, w:]
    np.multiply(ifo[:, w : 2 * w], hc[:, w:], out=c2)
    c2 += ifo[:, :w] * u
    th = np.tanh(c2)
    np.multiply(ifo[:, 2 * w :], th, out=out[:, :w])
    return out, (ifo, u, th)


def lstm_bwd(g, inputs, saved):
    """Gradients of x, hc, W, U and b for g [B, 2w]; the parameter
    gradients are summed over the B rows."""
    x, hc, W, U, b = inputs
    ifo, u, th = saved
    w = hc.shape[1] // 2
    i, f, o = ifo[:, :w], ifo[:, w : 2 * w], ifo[:, 2 * w :]
    gh = g[:, :w]
    dc2 = g[:, w:] + gh * o * (1.0 - th * th)
    gz = np.empty((len(g), 4 * w))
    gz[:, :w] = dc2 * u * i * (1.0 - i)
    gz[:, w : 2 * w] = dc2 * hc[:, w:] * f * (1.0 - f)
    gz[:, 2 * w : 3 * w] = gh * th * o * (1.0 - o)
    gz[:, 3 * w :] = dc2 * i * (1.0 - u * u)
    return (gz @ W, np.concatenate([gz @ U, dc2 * f], axis=1),
            gz.T @ x, gz.T @ hc[:, :w], gz.sum(axis=0))


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood; targets are integer class ids [B]."""
    targets = np.asarray(targets, dtype=np.int64)
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    n = targets.shape[0]
    loss = -logp[np.arange(n), targets].mean()

    def bw(g):
        grad = np.exp(logp)
        grad[np.arange(n), targets] -= 1.0
        return (g * grad / n,)

    return Tensor(loss, (logits,), bw)


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offs = np.cumsum([0] + sizes)

    def bw(g):
        idx = [slice(None)] * g.ndim
        ax = axis if axis >= 0 else g.ndim + axis
        for a, b in zip(offs[:-1], offs[1:]):
            idx[ax] = slice(a, b)
            yield g[tuple(idx)]

    return Tensor(out_data, tuple(parts), bw)


def take(x: Tensor, index) -> Tensor:
    """x.data[index] for a basic (slicing) index; zero gradient elsewhere."""

    def bw(g):
        full = np.zeros_like(x.data)
        full[index] = g
        return (full,)

    return Tensor(x.data[index], (x,), bw)


def tsum(x: Tensor) -> Tensor:
    out_data = np.asarray(x.data.sum())
    return Tensor(out_data, (x,), lambda g: (np.broadcast_to(g, x.data.shape),))


def dropout(x: Tensor, p: float, rng: np.random.Generator, train: bool) -> Tensor:
    """Inverted dropout: identity in eval mode, E[out] = x in train mode."""
    if not train or p <= 0.0:
        return x
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    return mul(x, Tensor(mask))


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Rows of `table` at `ids`. Ids [T, B] give time-major rows [T*B, dim],
    and the table receives one gradient per timestep, the last first, as it
    would from T lookups of [B] ids read by a recurrence."""
    ids = np.asarray(ids, dtype=np.int64).reshape(-1, np.shape(ids)[-1])
    out_data = table.data[ids.reshape(-1)]

    def bw(g):
        full = np.zeros((len(ids),) + table.data.shape, table.data.dtype)
        np.add.at(full, (np.arange(len(ids)).repeat(ids.shape[1]), ids.reshape(-1)), g)
        return full[::-1]

    return Tensor(out_data, (table,) * len(ids), bw)


def positional_encoding_table(max_len: int, dim: int) -> np.ndarray:
    """Sinusoidal timestep encoding, [max_len, dim]."""
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * (i // 2)) / dim)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def init_mm_weight(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(in_dim)
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


def init_embedding(rng: np.random.Generator, vocab: int, dim: int) -> np.ndarray:
    return rng.uniform(-0.04, 0.04, size=(vocab, dim))


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

# Adam's moment decay rates and the term that keeps its denominator nonzero
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerConfig:
    kind: str = "sgd"  # or "adam"
    learning_rate: float = 1.0
    l2: float = 0.0
    clip_value: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"OptimizerConfig.kind must be 'sgd' or 'adam', got {self.kind!r}")
        # a clip of 0 zeroes every gradient, and training would still end
        # with an ok record
        for name in ("learning_rate", "clip_value"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"OptimizerConfig.{name} must be > 0, got {value}")
        # a negative weight decay makes the weights grow
        if self.l2 < 0:
            raise ValueError(f"OptimizerConfig.l2 must be >= 0, got {self.l2}")


class Optimizer:
    """SGD / Adam with element-wise gradient value clipping applied before
    the update.

    `step` returns False, signalling divergence to the caller, when a
    clipped gradient is non-finite, and then leaves the parameters, the
    moments and the step count as they were; it also returns False when
    the update itself made a parameter non-finite.
    """

    def __init__(self, params: Sequence[Parameter], cfg: OptimizerConfig):
        self.params = list(params)
        self.cfg = cfg
        self.lr = cfg.learning_rate
        self._m = {p.name: np.zeros_like(p.data) for p in self.params}
        self._v = {p.name: np.zeros_like(p.data) for p in self.params}
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def _clip(self) -> None:
        c = self.cfg.clip_value
        if c is not None:
            for p in self.params:
                if p.grad is not None:
                    np.clip(p.grad, -c, c, out=p.grad)

    def step(self) -> bool:
        """One update, in place: the gradient, m, v and the parameter are
        overwritten with the same operations, in the same order, as
        m = beta1*m + (1-beta1)*g; v = beta2*v + (1-beta2)*g*g;
        p -= lr*mhat / (sqrt(vhat) + eps)."""
        cfg = self.cfg
        self._clip()
        if not all(np.isfinite(p.grad).all() for p in self.params if p.grad is not None):
            self.zero_grad()
            return False
        self._t += 1
        ok = True
        m_corr = 1 - ADAM_BETA1 ** self._t
        v_corr = 1 - ADAM_BETA2 ** self._t
        for p in self.params:
            # the gradient is dropped after the step, so the step may overwrite it
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if cfg.l2:
                g += cfg.l2 * p.data
            if cfg.kind == "sgd":
                g *= self.lr
                p.data -= g
            else:
                m = self._m[p.name]
                v = self._v[p.name]
                m *= ADAM_BETA1
                m += (1 - ADAM_BETA1) * g
                gg = (1 - ADAM_BETA2) * g
                gg *= g
                v *= ADAM_BETA2
                v += gg
                step = np.divide(m, m_corr, out=g)
                step *= self.lr
                denom = np.divide(v, v_corr, out=gg)
                np.sqrt(denom, out=denom)
                denom += ADAM_EPS
                step /= denom
                p.data -= step
            if not np.all(np.isfinite(p.data)):
                ok = False
        self.zero_grad()
        return ok


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def gradient_check(
    f: Callable[[], Tensor],
    params: Sequence[Parameter],
) -> float:
    """Max relative error between reverse-mode and central differences.

    `f` must be a deterministic scalar function of `params` (re-evaluable).
    """
    step = 1e-5
    for p in params:
        p.zero_grad()
    out = f()
    out.backward()
    analytic = {p.name: (np.array(p.grad) if p.grad is not None
                         else np.zeros_like(p.data)) for p in params}
    worst = 0.0
    for p in params:
        if not np.all(np.isfinite(analytic[p.name])):
            raise FloatingPointError(f"non-finite gradient for {p.name}")
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(f().data)
            flat[i] = orig - step
            lo = float(f().data)
            flat[i] = orig
            fd = (hi - lo) / (2 * step)
            ad = analytic[p.name].reshape(-1)[i]
            err = abs(ad - fd) / max(1.0, abs(ad), abs(fd))
            worst = max(worst, err)
    for p in params:
        p.zero_grad()
    return worst


# ---------------------------------------------------------------------------
# checkpoints: JSON header + little-endian float64 payload
# ---------------------------------------------------------------------------

_MAGIC = b"RNDL\x01\x00"


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write a checkpoint atomically: a failed save leaves `path` as it was."""
    header = {}
    offset = 0
    for name, arr in arrays.items():
        header[name] = {"shape": list(arr.shape), "offset": offset}
        offset += arr.size * 8
    hbytes = json.dumps(header, sort_keys=True).encode()
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<Q", len(hbytes)))
            fh.write(hbytes)
            for arr in arrays.values():
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read a checkpoint; truncation or a malformed header is a ValueError
    that gives the byte offset in the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(_MAGIC):
        raise ValueError(f"{path}: not a rnndsl checkpoint: no {_MAGIC!r} at byte 0")
    pos = len(_MAGIC)
    if len(blob) < pos + 8:
        raise ValueError(f"{path}: truncated at byte {len(blob)}, inside the header length")
    (hlen,) = struct.unpack_from("<Q", blob, pos)
    pos += 8
    if len(blob) < pos + hlen:
        raise ValueError(
            f"{path}: truncated at byte {len(blob)}, inside the {hlen}-byte "
            f"header that starts at byte {pos}"
        )
    try:
        header = json.loads(blob[pos:pos + hlen].decode())
        metas = {
            name: (tuple(int(n) for n in meta["shape"]), int(meta["offset"]))
            for name, meta in header.items()
        }
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed header at byte {pos}: {exc}") from None
    if any(min(shape, default=0) < 0 or off < 0 for shape, off in metas.values()):
        raise ValueError(f"{path}: malformed header at byte {pos}: negative size")
    pos += hlen
    out = {}
    for name, (shape, offset) in metas.items():
        size = math.prod(shape)
        start = pos + offset
        end = start + size * 8
        if end > len(blob):
            raise ValueError(
                f"{path}: parameter {name!r} needs bytes {start}..{end} "
                f"but the file ends at byte {len(blob)}"
            )
        arr = np.frombuffer(blob, dtype="<f8", count=size, offset=start)
        out[name] = arr.reshape(shape).astype(np.float64)
    return out


def save_params(path, params: Sequence[Parameter]) -> None:
    save_arrays(path, {p.name: p.data for p in params})


def load_params(path, params: Sequence[Parameter]) -> None:
    """Assign every parameter from a checkpoint, or none of them."""
    arrays = load_arrays(path)
    for p in params:
        if p.name not in arrays:
            raise ValueError(f"{path}: checkpoint missing parameter {p.name}")
        if arrays[p.name].shape != p.data.shape:
            raise ValueError(
                f"{path}: shape mismatch for {p.name}: checkpoint "
                f"{arrays[p.name].shape}, parameter {p.data.shape}"
            )
    for p in params:
        p.data[...] = arrays[p.name]
