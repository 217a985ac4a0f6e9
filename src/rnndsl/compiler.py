"""Compile architecture trees into executable recurrent cell programs.

A CellProgram is a parameter table plus a topologically ordered list of
instructions over value slots. Matrix multiplications applied directly to
the same source leaf can be fused into one wide multiplication whose
output is sliced back apart.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import engine as en
from .dsl import Architecture, ArchNode, OpKind, node_at_index, numbered_operator_nodes, subtree_uses


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
    kind: str  # "mm", "fused_mm", "unary", "binary", "gate3", "layernorm"
    op: Optional[OpKind]
    inputs: tuple[int, ...]
    params: tuple[str, ...]
    outputs: tuple[int, ...]


@dataclass
class CellProgram:
    arch: Architecture
    instructions: list[Instr]
    params: dict[str, en.Parameter]
    root_slot: int
    ct_slot: Optional[int]
    hidden_size: int
    input_size: int
    n_slots: int
    fused_groups: dict[OpKind, list[int]]  # source leaf -> fused node indices
    posenc_table: Optional[np.ndarray]  # None when the cell never reads posenc
    node_param_names: dict[int, tuple[str, ...]]  # node number -> param names

    def parameters(self) -> list[en.Parameter]:
        return list(self.params.values())

    def uses_source(self, kind: OpKind) -> bool:
        return subtree_uses(self.arch.root, kind)

    def params_for_node_index(self, index: int) -> tuple[str, ...]:
        return self.node_param_names.get(index, ())


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
        if prog.ct_slot is not None or prog.uses_source(OpKind.CM1)
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
    node_param_names: dict[int, tuple[str, ...]] = {}

    def alloc_mm(idx: int, in_dim: int) -> tuple[str, str]:
        wname, bname = f"n{idx}_W", f"n{idx}_b"
        params[wname] = en.Parameter(
            en.init_mm_weight(rng, hidden_size, in_dim), wname
        )
        params[bname] = en.Parameter(np.zeros(hidden_size), bname)
        node_param_names[idx] = (wname, bname)
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

    fused_emitted: set[int] = set()
    fused_groups: dict[OpKind, list[int]] = {}

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
            if id(group[0]) not in fused_emitted:
                # one wide MM for the whole group, outputs sliced per node
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
                    fused_emitted.add(id(m))
                instrs.append(
                    Instr(
                        "fused_mm",
                        OpKind.MM,
                        (_SOURCE_SLOTS[src_kind],),
                        tuple(names),
                        tuple(outs),
                    )
                )
                fused_groups[src_kind] = [index_of[id(m)] for m in group]
            return slot_of[key]

        child_slots = tuple(emit(c) for c in n.children)
        out = next_slot
        next_slot += 1
        slot_of[key] = out

        if n.op is OpKind.MM:
            in_dim = width(n.children[0])
            w, b = alloc_mm(idx, in_dim)
            instrs.append(Instr("mm", OpKind.MM, child_slots, (w, b), (out,)))
        elif n.op is OpKind.LAYERNORM:
            gname, bname = f"n{idx}_g", f"n{idx}_b"
            dim = width(n)
            params[gname] = en.Parameter(np.ones(dim), gname)
            params[bname] = en.Parameter(np.zeros(dim), bname)
            node_param_names[idx] = (gname, bname)
            instrs.append(Instr("layernorm", n.op, child_slots, (gname, bname), (out,)))
        elif n.op.arity == 1:
            instrs.append(Instr("unary", n.op, child_slots, (), (out,)))
        elif n.op.arity == 2:
            instrs.append(Instr("binary", n.op, child_slots, (), (out,)))
        else:
            instrs.append(Instr("gate3", n.op, child_slots, (), (out,)))
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
        n_slots=next_slot,
        fused_groups=fused_groups,
        posenc_table=(
            _posenc_table(hidden_size) if subtree_uses(root, OpKind.POSENC) else None
        ),
        node_param_names=node_param_names,
    )


# op -> (forward, backward) array kernels, as in engine: forward(*inputs,
# *params) returns the value and what backward(g, inputs, saved) needs to
# give one gradient per input and parameter
_KERNELS = {
    OpKind.SIGMOID: (en.sigmoid_fwd, en.unary_bwd),
    OpKind.TANH: (en.tanh_fwd, en.unary_bwd),
    OpKind.RELU: (en.relu_fwd, en.unary_bwd),
    OpKind.SIN: (en.sin_fwd, en.unary_bwd),
    OpKind.COS: (en.cos_fwd, en.unary_bwd),
    OpKind.SELU: (en.selu_fwd, en.unary_bwd),
    OpKind.DIV: (en.safe_div_fwd, en.safe_div_bwd),
    OpKind.GATE3: (en.gate3_fwd, en.gate3_bwd),
    OpKind.LAYERNORM: (en.layer_norm_fwd, en.layer_norm_bwd),
    OpKind.ADD: (lambda a, b: (a + b, None), lambda g, ab, _: (g, g)),
    OpKind.SUB: (lambda a, b: (a - b, None), lambda g, ab, _: (g, -g)),
    OpKind.MULT: (lambda a, b: (a * b, None), lambda g, ab, _: (g * ab[1], g * ab[0])),
    OpKind.MM: (
        lambda x, w, b: (x @ w.T + b, None),
        lambda g, xwb, _: (g @ xwb[1], g.T @ xwb[0], g.sum(axis=0)),
    ),
}


def step(
    prog: CellProgram, x_t: en.Tensor, state: CellState
) -> tuple[en.Tensor, CellState]:
    """One timestep: returns h_t and the advanced state.

    The instructions run on plain arrays, and the whole step is one tape
    node whose backward pass walks them in reverse. With a c_t tap that
    node packs h|c, and h_t and c_t are its two halves.
    """
    hid = prog.hidden_size
    instrs = prog.instructions
    params = prog.params
    if state.c is None and prog.ct_slot is not None:
        for i, ins in enumerate(instrs):
            if SLOT_CM1 in ins.inputs:
                raise DivergenceError(f"instruction {i} reads an unwritten slot")
    sources = (x_t, state.x_prev, state.h, state.c)
    vals: list[Optional[np.ndarray]] = [None] * prog.n_slots
    for slot, src in enumerate(sources):
        vals[slot] = src.data if src is not None else None
    if prog.posenc_table is not None:
        row = prog.posenc_table[min(state.t, POSENC_ROWS - 1)]
        vals[SLOT_POSENC] = np.broadcast_to(row, (x_t.data.shape[0], hid)).copy()

    def args_of(ins: Instr) -> list[np.ndarray]:
        return [vals[s] for s in ins.inputs] + [params[p].data for p in ins.params]

    saved: list = [None] * len(instrs)  # what each instruction's backward needs
    for i, ins in enumerate(instrs):
        if ins.kind == "fused_mm":
            # one wide MM for the group; each node's output is a column block
            w = np.concatenate([params[p].data for p in ins.params[0::2]], axis=0)
            b = np.concatenate([params[p].data for p in ins.params[1::2]], axis=0)
            out = vals[ins.inputs[0]] @ w.T + b
            saved[i] = w
            for j, s in enumerate(ins.outputs):
                vals[s] = out[..., j * hid:(j + 1) * hid]
        else:
            args = args_of(ins)
            if ins.op is OpKind.DIV and (args[1] == 0.0).any():
                # exact singularity; the clamp only guards near-zero values
                raise DivergenceError(
                    f"zero denominator in Div at instruction {i}", timestep=state.t
                )
            out, saved[i] = _KERNELS[ins.op][0](*args)
            vals[ins.outputs[0]] = out
        if not np.isfinite(out).all():
            raise DivergenceError(
                f"non-finite value at instruction {i} ({ins.kind})", timestep=state.t
            )

    def backward(g: np.ndarray) -> list[Optional[np.ndarray]]:
        """Adds into the parameters' gradients and returns the sources'."""
        grads: list[Optional[np.ndarray]] = [None] * prog.n_slots

        def add(slot: int, grad: np.ndarray) -> None:
            prev = grads[slot]
            grads[slot] = grad if prev is None else prev + grad

        if prog.ct_slot is None:
            grads[prog.root_slot] = g
        else:
            grads[prog.root_slot] = g[..., :hid]
            grads[prog.ct_slot] = g[..., hid:]
        for i in range(len(instrs) - 1, -1, -1):
            ins = instrs[i]
            if ins.kind == "fused_mm":
                outs = [grads[s] for s in ins.outputs]
                if all(go is None for go in outs):
                    continue
                x = vals[ins.inputs[0]]
                g_out = np.zeros((x.shape[0], hid * len(outs)))
                for j, go in enumerate(outs):
                    if go is not None:
                        g_out[..., j * hid:(j + 1) * hid] = go
                add(ins.inputs[0], g_out @ saved[i])
                g_w, g_b = g_out.T @ x, g_out.sum(axis=0)
                for j, (wname, bname) in enumerate(zip(ins.params[0::2], ins.params[1::2])):
                    rows = slice(j * hid, (j + 1) * hid)
                    params[wname].accumulate(g_w[rows])
                    params[bname].accumulate(g_b[rows])
                continue
            go = grads[ins.outputs[0]]
            if go is None:
                continue
            grads_in = _KERNELS[ins.op][1](go, args_of(ins), saved[i])
            for s, gs in zip(ins.inputs, grads_in):
                add(s, gs)
            for name, gp in zip(ins.params, grads_in[len(ins.inputs):]):
                p = params[name]
                p.accumulate(gp.sum(axis=0) if gp.ndim > p.data.ndim else gp)
        return [grad for src, grad in zip(sources, grads) if src is not None]

    parents = tuple(t for t in sources if t is not None)
    if prog.ct_slot is None:
        h_t = en.Tensor(vals[prog.root_slot], parents, backward)
        c_t = state.c
    else:
        packed = en.Tensor(
            np.concatenate([vals[prog.root_slot], vals[prog.ct_slot]], axis=-1),
            parents,
            backward,
        )
        h_t = en.slice_last(packed, 0, hid)
        c_t = en.slice_last(packed, hid, 2 * hid)
    return h_t, CellState(h=h_t, c=c_t, x_prev=x_t, t=state.t + 1)


def run_sequence(
    prog: CellProgram,
    xs: Sequence[en.Tensor],
    init: Optional[CellState] = None,
    collect_trace: bool = False,
) -> tuple[list[en.Tensor], CellState, Optional[np.ndarray]]:
    """Fold `step` over a sequence; optionally collect the hidden trace."""
    if len(xs) == 0:
        raise ValueError("empty sequence")
    state = init if init is not None else initial_state(prog, xs[0].data.shape[0])
    outputs: list[en.Tensor] = []
    trace: list[np.ndarray] = []
    for t, x in enumerate(xs):
        try:
            h, state = step(prog, x, state)
        except DivergenceError as e:
            raise DivergenceError(str(e), timestep=t) from None
        outputs.append(h)
        if collect_trace:
            trace.append(h.data[0].copy())
    return outputs, state, (np.asarray(trace) if collect_trace else None)


def count_source_mm_instructions(prog: CellProgram) -> int:
    """MM instructions consuming a source slot (fused groups count once)."""
    n = 0
    for ins in prog.instructions:
        if ins.kind == "fused_mm":
            n += 1
        elif ins.kind == "mm" and ins.inputs[0] < len(_SOURCE_SLOTS):
            n += 1
    return n
