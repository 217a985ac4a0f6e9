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
    n_slots: int
    posenc_table: Optional[np.ndarray]  # None when the cell never reads posenc
    node_param_names: dict[int, tuple[str, ...]]  # node number -> param names

    def parameters(self) -> list[en.Parameter]:
        return list(self.params.values())

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
            node_param_names[idx] = names
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
        n_slots=next_slot,
        posenc_table=(
            _posenc_table(hidden_size) if subtree_uses(root, OpKind.POSENC) else None
        ),
        node_param_names=node_param_names,
    )


# op -> (forward, backward) array kernels, as in engine: forward(*inputs,
# *params) returns the value and what backward(g, inputs, saved) needs to
# give one gradient per input and parameter
_KERNELS = {
    OpKind.SIGMOID: (en.sigmoid_fwd, en.sigmoid_bwd),
    OpKind.TANH: (en.tanh_fwd, en.tanh_bwd),
    OpKind.RELU: (en.relu_fwd, en.relu_bwd),
    OpKind.SIN: (en.sin_fwd, en.sin_bwd),
    OpKind.COS: (en.cos_fwd, en.cos_bwd),
    OpKind.SELU: (en.selu_fwd, en.selu_bwd),
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


def run_steps(
    prog: CellProgram, x: en.Tensor, state: CellState
) -> tuple[en.Tensor, CellState]:
    """Run the cell over T timesteps from `state` as one tape node.

    `x` holds the inputs time-major, [T*B, input_size] for the batch B of
    `state`. Returns every h_t, [T*B, hidden_size] in the same order, and
    the final state. The instructions run on plain arrays, under
    `np.errstate(all="ignore")`: finiteness is checked once per timestep,
    over all the instructions' outputs together, and a failure names the
    first instruction whose output is not finite (a Div with an exactly
    zero denominator names an earlier such instruction first). The
    backward pass walks timesteps and instructions in reverse, carries the
    h, c and x_tm1 gradients between timesteps, sums each instruction's
    parameter gradients over time in place and returns one term per
    parameter, after the inputs' gradients. With a c_t tap the node packs
    the h rows and then the final c rows.
    """
    hid, instrs, ct_slot = prog.hidden_size, prog.instructions, prog.ct_slot
    if state.c is None and ct_slot is not None:
        for i, ins in enumerate(instrs):
            if SLOT_CM1 in ins.inputs:
                raise DivergenceError(f"instruction {i} reads an unwritten slot")
    batch = state.h.data.shape[0]
    steps = x.data.shape[0] // batch
    if steps < 1 or steps * batch != x.data.shape[0]:
        raise ValueError(f"{x.data.shape[0]} input rows are not T >= 1 batches of {batch}")
    # per instruction: its forward kernel, input slots, parameter arrays (a
    # fused group's concatenated into one wide MM whose outputs are column
    # blocks), output slots, whether it is fused and whether it is a Div
    plan = []
    for ins in instrs:
        arrays = [prog.params[p].data for p in ins.params]
        if ins.fused:
            arrays = [np.concatenate(arrays[0::2], axis=0), np.concatenate(arrays[1::2], axis=0)]
        plan.append((_KERNELS[ins.op][0], ins.inputs, arrays, ins.outputs, ins.fused,
                     ins.op is OpKind.DIV))

    def raise_first_nonfinite(results: list[np.ndarray], k: int) -> None:
        """Raise for the first non-finite output among `results`, if any."""
        for i, res in enumerate(results):
            if not np.isfinite(res).all():
                raise DivergenceError(
                    f"non-finite value at instruction {i} ({instrs[i].op.value})",
                    timestep=state.t + k,
                )

    # x_tm1 of the first timestep, then each timestep's x_t
    xx = np.concatenate([state.x_prev.data, x.data], axis=0)
    saving = en.grad_enabled()
    tape = []  # per timestep and instruction, in run order: its arguments, what its backward needs
    out = np.empty(((steps + (ct_slot is not None)) * batch, hid))
    h, c = state.h.data, None if state.c is None else state.c.data
    with np.errstate(all="ignore"):
        for k in range(steps):
            vals: list[Optional[np.ndarray]] = [None] * prog.n_slots
            vals[:4] = xx[(k + 1) * batch:(k + 2) * batch], xx[k * batch:(k + 1) * batch], h, c
            if prog.posenc_table is not None:
                row = prog.posenc_table[min(state.t + k, POSENC_ROWS - 1)]
                vals[SLOT_POSENC] = np.broadcast_to(row, (batch, hid)).copy()
            results = []
            for fwd, inputs, arrays, outputs, fused, is_div in plan:
                args = [vals[s] for s in inputs] + arrays
                if is_div and (args[1] == 0.0).any():
                    # exact singularity; the clamp only guards near-zero values
                    raise_first_nonfinite(results, k)
                    raise DivergenceError(
                        f"zero denominator in Div at instruction {len(results)}",
                        timestep=state.t + k,
                    )
                res, aux = fwd(*args)
                if fused:
                    for j, s in enumerate(outputs):
                        vals[s] = res[:, j * hid:(j + 1) * hid]
                else:
                    vals[outputs[0]] = res
                results.append(res)
                if saving:
                    tape.append((args, aux))
            if not np.isfinite(np.concatenate(results, axis=1)).all():
                raise_first_nonfinite(results, k)
            h = out[k * batch:(k + 1) * batch] = vals[prog.root_slot]
            if ct_slot is not None:
                c = vals[ct_slot]
    if ct_slot is not None:
        out[steps * batch:] = c

    def backward(g: np.ndarray) -> list[Optional[np.ndarray]]:
        """Returns the gradients of x, the initial state and the parameters."""
        # per instruction, last first: its index, backward kernel, input and
        # output slots, whether it is fused and whether it is a LayerNorm
        rplan = [(i, _KERNELS[ins.op][1], ins.inputs, ins.outputs, ins.fused,
                  ins.op is OpKind.LAYERNORM) for i, ins in enumerate(instrs)][::-1]
        g_xx = np.zeros_like(xx)
        g_h, g_c = None, None if ct_slot is None else g[steps * batch:]
        # per instruction, its parameter gradients summed over time
        acc: list[Optional[list[np.ndarray]]] = [None] * len(instrs)
        saved = iter(reversed(tape))
        for k in range(steps - 1, -1, -1):
            grads: list[Optional[np.ndarray]] = [None] * prog.n_slots
            rows = g[k * batch:(k + 1) * batch]
            grads[prog.root_slot] = rows if g_h is None else rows + g_h
            if ct_slot is not None:
                grads[ct_slot] = g_c
            for i, bwd, inputs, outputs, fused, is_ln in rplan:
                # every instruction feeds the root, so each output has a gradient
                go = (np.concatenate([grads[s] for s in outputs], axis=1) if fused
                      else grads[outputs[0]])
                grads_in = bwd(go, *next(saved))
                for s, gs in zip(inputs, grads_in):
                    prev = grads[s]
                    grads[s] = gs if prev is None else prev + gs
                gps = grads_in[len(inputs):]
                if not gps:
                    continue
                if is_ln:  # per-row gain and bias gradients
                    gps = [gp.sum(axis=0) for gp in gps]
                if acc[i] is None:
                    # the last timestep's terms (an MM's products and bias sum,
                    # a LayerNorm's sums) are fresh arrays, so the loop owns
                    # them and adds each earlier timestep's terms in place
                    acc[i] = list(gps)
                else:
                    for a, b in zip(acc[i], gps):
                        a += b
            for slot, block in ((SLOT_X, k + 1), (SLOT_XM1, k)):
                if grads[slot] is not None:
                    g_xx[block * batch:(block + 1) * batch] += grads[slot]
            g_h, g_c = grads[SLOT_HM1], grads[SLOT_CM1]
        param_grads = {}
        for ins, gps in zip(instrs, acc):
            if gps is None:
                continue
            if ins.fused:  # row block j is the group's j-th node's
                gps = [gp[j * hid:(j + 1) * hid] for j in range(len(ins.outputs)) for gp in gps]
            param_grads.update(zip(ins.params, gps))
        return [g_xx[batch:], g_xx[:batch], g_h, g_c][:len(parents)] + [
            param_grads.get(name) for name in prog.params
        ]

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
