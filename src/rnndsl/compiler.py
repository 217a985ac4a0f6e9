"""Compile architecture trees into executable recurrent cell programs.

A CellProgram is a parameter table plus a topologically ordered list of
instructions over value slots. Matrix multiplications applied directly to
the same source leaf can be fused into one wide multiplication whose
output is sliced back apart.

A program runs as generated Python, one line per instruction: a forward and
a backward timestep function that call the engine's operator kernels (see
`_timestep_source`); tracebacks show its lines under `<cell:ARCH_ID>`.
"""

from __future__ import annotations

import builtins
import functools
import linecache
import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import engine as en
from .dsl import Architecture, ArchNode, OpKind, node_at_index, numbered_operator_nodes, subtree_uses
from .randgen import arch_id


class CompileError(ValueError):
    pass


class DivergenceError(RuntimeError):
    def __init__(self, message: str, timestep: Optional[int] = None):
        super().__init__(message)
        self.timestep = timestep


# slots 0..4 are reserved for the per-step sources
SLOT_X = 0
SLOT_XM1 = 1
SLOT_HM1 = 2
SLOT_CM1 = 3
SLOT_POSENC = 4
# timesteps past the end of the positional-encoding table reuse its last row
POSENC_ROWS = 2048
_SOURCE_SLOTS = {
    OpKind.X: SLOT_X,
    OpKind.XM1: SLOT_XM1,
    OpKind.HM1: SLOT_HM1,
    OpKind.CM1: SLOT_CM1,
    OpKind.POSENC: SLOT_POSENC,
}


@functools.lru_cache(maxsize=None)
def _posenc_table(hidden_size: int) -> np.ndarray:
    """The positional-encoding table of one width, built once and read-only."""
    table = en.positional_encoding_table(POSENC_ROWS, hidden_size)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class Instr:
    op: OpKind
    inputs: tuple[int, ...]
    params: tuple[str, ...]  # an MM's W, b; a fused MM's W, b per output
    outputs: tuple[int, ...]  # more than one only for a fused MM

    @property
    def fused(self) -> bool:
        return len(self.outputs) > 1


@dataclass
class CellProgram:
    arch: Architecture
    instructions: list[Instr]
    params: dict[str, en.Parameter]
    root_slot: int
    ct_slot: Optional[int]
    hidden_size: int
    input_size: int
    posenc_table: Optional[np.ndarray]  # None when the cell never reads posenc
    source: str = ""  # the generated timestep code, once `bind` is built

    @functools.cached_property
    def bind(self) -> Callable:
        """The generated `bind(params)` of this program, built on first use."""
        self.source = _timestep_source(self)
        return _timestep_bind(self.arch, self.source)

    def parameters(self) -> list[en.Parameter]:
        return list(self.params.values())

    def params_for_node_index(self, index: int) -> tuple[str, ...]:
        """The names of node ``index``'s parameters, `n{index}_*`, in the
        order they were allocated; () for a node without any."""
        return tuple(name for name in self.params if name.startswith(f"n{index}_"))


@dataclass
class CellState:
    h: en.Tensor
    c: Optional[en.Tensor]
    x_prev: en.Tensor
    t: int = 0


def initial_state(prog: CellProgram, batch: int) -> CellState:
    h = en.Tensor(np.zeros((batch, prog.hidden_size)))
    c = (
        en.Tensor(np.zeros((batch, prog.hidden_size)))
        if prog.ct_slot is not None
        else None
    )
    x_prev = en.Tensor(np.zeros((batch, prog.input_size)))
    return CellState(h=h, c=c, x_prev=x_prev, t=0)


def compile(
    arch: Architecture,
    input_size: int,
    hidden_size: int,
    fuse: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> CellProgram:
    """Allocate parameters and build the per-timestep instruction list."""
    for name, size in (("input_size", input_size), ("hidden_size", hidden_size)):
        if size < 1:
            raise CompileError(f"{name} must be >= 1, got {size}")
    root = arch.root
    if root.op.is_source:
        raise CompileError("root is a bare source leaf: no recurrence to compile")
    if subtree_uses(root, OpKind.CM1) and arch.ct_node is None:
        raise CompileError("architecture uses c_tm1 but has no c_t tap")
    if rng is None:
        rng = np.random.default_rng(0)

    numbered = numbered_operator_nodes(root)
    index_of = {id(n): i + 1 for i, n in enumerate(numbered)}

    # widths per node: x-like sources carry input_size, everything else hidden
    def width(n: ArchNode) -> int:
        if n.op in (OpKind.X, OpKind.XM1):
            return input_size
        if n.op.is_source:
            return hidden_size
        if n.op is OpKind.MM:
            return hidden_size
        ws = {width(c) for c in n.children}
        if len(ws) != 1:
            raise CompileError(
                f"{n.op.value} mixes operands of widths {sorted(ws)}; "
                "elementwise operands must agree"
            )
        return ws.pop()

    width(root)  # raises on inconsistency

    params: dict[str, en.Parameter] = {}

    def alloc_mm(idx: int, in_dim: int) -> tuple[str, str]:
        wname, bname = f"n{idx}_W", f"n{idx}_b"
        params[wname] = en.Parameter(
            en.init_mm_weight(rng, hidden_size, in_dim), wname
        )
        params[bname] = en.Parameter(np.zeros(hidden_size), bname)
        return wname, bname

    slot_of: dict[int, int] = {}
    next_slot = len(_SOURCE_SLOTS)
    instrs: list[Instr] = []

    # identify fusable MM nodes: MM whose only child is a source leaf
    fusable: dict[OpKind, list[ArchNode]] = {}
    if fuse:
        for n in numbered:
            if n.op is OpKind.MM and n.children[0].op.is_source:
                fusable.setdefault(n.children[0].op, []).append(n)

    def emit(n: ArchNode) -> int:
        nonlocal next_slot
        if n.op.is_source:
            return _SOURCE_SLOTS[n.op]
        key = id(n)
        if key in slot_of:
            return slot_of[key]
        idx = index_of[key]

        if fuse and n.op is OpKind.MM and n.children[0].op.is_source:
            src_kind = n.children[0].op
            group = fusable[src_kind]
            # one wide MM for the whole group, outputs sliced per node; it
            # gives every member a slot, so no member gets here again
            names: list[str] = []
            outs: list[int] = []
            in_dim = input_size if src_kind in (OpKind.X, OpKind.XM1) else hidden_size
            for m in group:
                midx = index_of[id(m)]
                w, b = alloc_mm(midx, in_dim)
                names += [w, b]
                slot_of[id(m)] = next_slot
                outs.append(next_slot)
                next_slot += 1
            instrs.append(
                Instr(OpKind.MM, (_SOURCE_SLOTS[src_kind],), tuple(names), tuple(outs))
            )
            return slot_of[key]

        child_slots = tuple(emit(c) for c in n.children)
        out = next_slot
        next_slot += 1
        slot_of[key] = out

        names: tuple[str, ...] = ()
        if n.op is OpKind.MM:
            names = alloc_mm(idx, width(n.children[0]))
        elif n.op is OpKind.LAYERNORM:
            names = (f"n{idx}_g", f"n{idx}_b")
            dim = width(n)
            params[names[0]] = en.Parameter(np.ones(dim), names[0])
            params[names[1]] = en.Parameter(np.zeros(dim), names[1])
        instrs.append(Instr(n.op, child_slots, names, (out,)))
        return out

    root_slot = emit(root)
    ct_slot = None
    if arch.ct_node is not None:
        tap = node_at_index(root, arch.ct_node)
        ct_slot = emit(tap)
        if ct_slot == root_slot:
            raise CompileError("c_t tap must differ from the root")

    return CellProgram(
        arch=arch,
        instructions=instrs,
        params=params,
        root_slot=root_slot,
        ct_slot=ct_slot,
        hidden_size=hidden_size,
        input_size=input_size,
        posenc_table=(
            _posenc_table(hidden_size) if subtree_uses(root, OpKind.POSENC) else None
        ),
    )


# the forward kernel of each operator not written inline; its backward kernel
# is the engine's `<name>_bwd`
_FWD_KERNELS = {
    OpKind.SIGMOID: en.sigmoid_fwd, OpKind.TANH: en.tanh_fwd, OpKind.RELU: en.relu_fwd,
    OpKind.SIN: en.sin_fwd, OpKind.COS: en.cos_fwd, OpKind.SELU: en.selu_fwd,
    OpKind.DIV: en.safe_div_fwd, OpKind.GATE3: en.gate3_fwd, OpKind.LAYERNORM: en.layer_norm_fwd,
}
# the operators written inline: the value, and each input's gradient from g
_INLINE = {
    OpKind.ADD: ("{0} + {1}", ("{g}", "{g}")),
    OpKind.SUB: ("{0} - {1}", ("{g}", "-{g}")),
    OpKind.MULT: ("{0} * {1}", ("{g} * {1}", "{g} * {0}")),
}
_SOURCE_NAMES = tuple(kind.value for kind in _SOURCE_SLOTS)  # x_t, x_tm1, ... by slot


def _timestep_source(prog: CellProgram) -> str:
    """The source of `bind(P)`. It binds the arrays of the parameter table `P`
    (a fused group's concatenated into one wide MM whose outputs are column
    blocks) and returns `forward(t, x_t, x_tm1, h_tm1, c_tm1, posenc)`
    -> (h_t, c_t, saved); `backward(first, g_root, g_c, saved, sum_x_t,
    sum_x_tm1)` -> the h_tm1 and c_tm1 gradients, adding the x gradients into
    the given rows and each parameter-gradient term into its sum over time
    (assigned when `first`); and `param_grads()` -> one sum per parameter."""
    hid, instrs = prog.hidden_size, prog.instructions

    def v(s: int) -> str:
        return _SOURCE_NAMES[s] if s < len(_SOURCE_NAMES) else f"v{s}"

    head = [f"OPS = {tuple(ins.op.value for ins in instrs)!r}"]
    fwd, results, saved = [], [], []
    for i, ins in enumerate(instrs):
        args, ps = [v(s) for s in ins.inputs], [f"P[{p!r}].data" for p in ins.params]
        out = f"r{i}" if ins.fused else v(ins.outputs[0])
        if ins.op is OpKind.MM:
            head.append(f"W{i}, b{i} = " + (
                f"np.concatenate([{', '.join(ps[0::2])}]), np.concatenate([{', '.join(ps[1::2])}])"
                if ins.fused else f"{ps[0]}, {ps[1]}"))
            fwd.append(f"{out} = {args[0]} @ W{i}.T + b{i}")
            if ins.fused:
                fwd.append(", ".join(map(v, ins.outputs)) + " = " + ", ".join(
                    f"{out}[:, {j * hid}:{(j + 1) * hid}]" for j in range(len(ins.outputs))))
            saved.append(args[0])
        elif ins.op in _INLINE:
            fwd.append(f"{out} = " + _INLINE[ins.op][0].format(*args))
            saved += args if ins.op is OpKind.MULT else []
        else:
            if ins.op is OpKind.DIV:  # an exact singularity; the clamp guards near-zero values
                fwd += [f"if ({args[1]} == 0.0).any():",
                        f"    diverged(t, [{', '.join(results)}], OPS, div={i})"]
            if ins.op is OpKind.LAYERNORM:
                head.append(f"G{i}, B{i} = {ps[0]}, {ps[1]}")
            ln = [f"G{i}", f"B{i}"] * (ins.op is OpKind.LAYERNORM)
            fwd.append(f"{out}, a{i} = en.{_FWD_KERNELS[ins.op].__name__}({', '.join(args + ln)})")
            saved += args + [f"a{i}"]
        results.append(out)
    saved = ", ".join(dict.fromkeys(saved))
    fwd += [f"out = [{', '.join(results)}]",
            "if not np.isfinite(np.concatenate(out, axis=1)).all():",
            "    diverged(t, out, OPS)",
            f"return {v(prog.root_slot)}, {prog.ct_slot and v(prog.ct_slot)}, [{saved}]"]

    grad = {prog.root_slot: "g_root"}  # slot -> its gradient, once it has one
    bwd, terms, acc = [f"[{saved}] = saved"], [], {}  # acc: parameter -> its summed term

    def add(s: int, e: str) -> None:
        if s == SLOT_POSENC:  # a constant
            return
        name = f"g_{v(s)}"
        if s in grad:
            e = f"{name} + {e}"
        elif s == prog.ct_slot:  # after the c_t tap's own gradient
            e = f"{e} if g_c is None else g_c + {e}"
        grad[s] = name
        bwd.append(f"{name} = {e}")

    for i, ins in reversed(list(enumerate(instrs))):
        args, g = [v(s) for s in ins.inputs], grad[ins.outputs[0]]
        if ins.fused:
            g = f"g{i}"
            bwd.append(f"{g} = np.concatenate([{', '.join(grad[s] for s in ins.outputs)}], axis=1)")
        new = []
        if ins.op is OpKind.MM:
            add(ins.inputs[0], f"{g} @ W{i}")
            new = [f"{g}.T @ {args[0]}", f"{g}.sum(axis=0)"]
        elif ins.op in _INLINE:
            for s, e in zip(ins.inputs, _INLINE[ins.op][1]):
                add(s, e.format(*args, g=g))
        else:
            ln = [f"G{i}", f"B{i}"] * (ins.op is OpKind.LAYERNORM)
            d = [f"d{i}_{j}" for j in range(len(args + ln))]
            bwd.append(f"{', '.join(d)}, = en.{_FWD_KERNELS[ins.op].__name__[:-3]}bwd("
                       f"{g}, ({', '.join(args + ln)},), a{i})")
            for s, e in zip(ins.inputs, d):
                add(s, e)
            new = [f"{e}.sum(axis=0)" for e in d[len(args):]]  # per-row gain and bias
        for j, name in enumerate(ins.params):  # row block k of a fused term is node k's
            acc[name] = f"A{len(terms) + j % 2}" + (
                f"[{j // 2 * hid}:{(j // 2 + 1) * hid}]" if ins.fused else "")
        terms += new
    if terms:  # the last timestep's terms are fresh arrays: assigned, then added to in place
        a = [f"A{j}" for j in range(len(terms))]
        head.append(" = ".join(a) + " = None")
        bwd = [f"nonlocal {', '.join(a)}", *bwd,
               "if first:", *(f"    {x} = {e}" for x, e in zip(a, terms)),
               "else:", *(f"    {x} += {e}" for x, e in zip(a, terms))]
    bwd += [f"sum_{v(s)} += {grad[s]}" for s in (SLOT_X, SLOT_XM1) if s in grad]
    bwd.append(f"return {grad.get(SLOT_HM1)}, {grad.get(SLOT_CM1)}")
    return "\n".join(
        ["def bind(P):"] + [f"    {line}" for line in head]
        + ["    def forward(t, x_t, x_tm1, h_tm1, c_tm1, posenc):"]
        + [f"        {line}" for line in fwd]
        + ["    def backward(first, g_root, g_c, saved, sum_x_t, sum_x_tm1):"]
        + [f"        {line}" for line in bwd]
        + ["    def param_grads():", f"        return [{', '.join(acc[p] for p in prog.params)}]",
           "    return forward, backward, param_grads", ""])


def _diverged(t: int, results: list, ops: tuple, div: Optional[int] = None) -> None:
    """Raise for the first non-finite result; else for the Div at `div`, if given."""
    for i, res in enumerate(results):
        if not np.isfinite(res).all():
            raise DivergenceError(f"non-finite value at instruction {i} ({ops[i]})", timestep=t)
    if div is not None:
        raise DivergenceError(f"zero denominator in Div at instruction {div}", timestep=t)


def _timestep_bind(arch: Architecture, source: str) -> Callable:
    name, n = f"<cell:{arch_id(arch)}>", 1
    while name in linecache.cache:  # live code of another program of this id
        n += 1
        name = f"<cell:{arch_id(arch)}#{n}>"
    code = builtins.compile(source, name, "exec")
    linecache.cache[name] = (len(source), None, source.splitlines(True), name)
    weakref.finalize(code, linecache.cache.pop, name, None)
    # CODE keeps the lines in linecache while the program holds `bind`
    namespace = {"np": np, "en": en, "diverged": _diverged, "CODE": code}
    exec(code, namespace)
    return namespace.pop("bind")  # no cycle through its globals: freed with the program


def run_steps(
    prog: CellProgram, x: en.Tensor, state: CellState
) -> tuple[en.Tensor, CellState]:
    """Run the cell over T timesteps from `state` as one tape node.

    `x` holds the inputs time-major, [T*B, input_size] for the batch B of
    `state`. Returns every h_t, [T*B, hidden_size] in the same order, and
    the final state. Each timestep is one call of the program's generated
    forward function (`CellProgram.bind`, source in `prog.source`, file name
    `<cell:ARCH_ID>` in tracebacks), on plain arrays under
    `np.errstate(all="ignore")`: finiteness is checked once per timestep,
    over all the instructions' outputs together, and a failure names the
    first instruction whose output is not finite (a Div with an exactly
    zero denominator names an earlier such instruction first). The
    backward pass calls the generated backward function for the timesteps
    in reverse, carries the h, c and x_tm1 gradients between them, sums
    each instruction's parameter gradients over time in place and returns
    one term per parameter, after the inputs' gradients. With a c_t tap the
    node packs the h rows and then the final c rows.
    """
    hid, ct_slot = prog.hidden_size, prog.ct_slot
    if state.c is None and ct_slot is not None:
        for i, ins in enumerate(prog.instructions):
            if SLOT_CM1 in ins.inputs:
                raise DivergenceError(f"instruction {i} reads an unwritten slot")
    batch = state.h.data.shape[0]
    steps = x.data.shape[0] // batch
    if steps < 1 or steps * batch != x.data.shape[0]:
        raise ValueError(f"{x.data.shape[0]} input rows are not T >= 1 batches of {batch}")
    # bound per call: an optimizer step may have replaced the arrays
    forward, backward_step, param_grads = prog.bind(prog.params)
    # x_tm1 of the first timestep, then each timestep's x_t, one block each
    xx = np.concatenate([state.x_prev.data, x.data], axis=0)
    xs = xx.reshape(steps + 1, batch, -1)
    saving, t0 = en.grad_enabled(), state.t
    tape = []  # per timestep, what its backward needs
    out = np.empty(((steps + (ct_slot is not None)) * batch, hid))
    outs = out.reshape(-1, batch, hid)
    h, c, pe = state.h.data, None if state.c is None else state.c.data, None
    with np.errstate(all="ignore"):
        for k in range(steps):
            if prog.posenc_table is not None:
                row = prog.posenc_table[min(t0 + k, POSENC_ROWS - 1)]
                pe = np.broadcast_to(row, (batch, hid)).copy()
            h, c, saved = forward(t0 + k, xs[k + 1], xs[k], h, c, pe)
            outs[k] = h
            if saving:
                tape.append(saved)
    if ct_slot is not None:
        outs[steps] = c

    def backward(g: np.ndarray) -> list[Optional[np.ndarray]]:
        """Returns the gradients of x, the initial state and the parameters."""
        g_xx = np.zeros_like(xx)
        gs, g_xs = g.reshape(-1, batch, hid), g_xx.reshape(xs.shape)
        g_h, g_c = None, None if ct_slot is None else gs[steps]
        for k in range(steps - 1, -1, -1):
            g_h, g_c = backward_step(k == steps - 1, gs[k] if g_h is None else gs[k] + g_h, g_c,
                                     tape[k], g_xs[k + 1], g_xs[k])
        return [g_xx[batch:], g_xx[:batch], g_h, g_c][:len(parents)] + param_grads()

    parents = tuple(t for t in (x, state.x_prev, state.h, state.c) if t is not None)
    node = en.Tensor(out, parents + tuple(prog.params.values()), backward)
    hs = node if ct_slot is None else en.take(node, slice(0, steps * batch))
    last = slice((steps - 1) * batch, steps * batch)
    return hs, CellState(
        h=hs if steps == 1 else en.take(hs, last),
        c=state.c if ct_slot is None else en.take(node, slice(steps * batch, None)),
        x_prev=x if steps == 1 else en.take(x, last),
        t=state.t + steps,
    )


def step(prog: CellProgram, x_t: en.Tensor, state: CellState) -> tuple[en.Tensor, CellState]:
    """One timestep, the T=1 case of `run_steps`: returns h_t and the new state."""
    return run_steps(prog, x_t, state)


def run_sequence(
    prog: CellProgram,
    xs: Sequence[en.Tensor],
    init: Optional[CellState] = None,
    collect_trace: bool = False,
) -> tuple[list[en.Tensor], CellState, Optional[np.ndarray]]:
    """`run_steps` over a list of inputs; optionally collect the hidden trace
    (each timestep's first row)."""
    if len(xs) == 0:
        raise ValueError("empty sequence")
    batch = xs[0].data.shape[0]
    state = init if init is not None else initial_state(prog, batch)
    hs, state = run_steps(prog, en.concat(list(xs), axis=0), state)
    outputs = [en.take(hs, slice(t * batch, (t + 1) * batch)) for t in range(len(xs))]
    return outputs, state, (hs.data[::batch].copy() if collect_trace else None)


def count_source_mm_instructions(prog: CellProgram) -> int:
    """MM instructions consuming a source slot (fused groups count once)."""
    return sum(
        ins.op is OpKind.MM and ins.inputs[0] < len(_SOURCE_SLOTS) for ins in prog.instructions
    )
