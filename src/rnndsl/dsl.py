"""Expression-tree DSL for recurrent cell architectures.

A cell is a tree of operators over source leaves producing h_t, with an
optional internal node tapped as the long-term memory c_t. Trees are
immutable; every operation here is a pure function. A root that
`canonicalize` built keeps its canonical text, so a canonical tree is
canonicalized, rendered and identified without another walk.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence


class OpKind(Enum):
    # unary
    MM = "MM"
    SIGMOID = "Sigmoid"
    TANH = "Tanh"
    RELU = "ReLU"
    SIN = "Sin"
    COS = "Cos"
    LAYERNORM = "LayerNorm"
    SELU = "SeLU"
    # binary
    ADD = "Add"
    MULT = "Mult"
    SUB = "Sub"
    DIV = "Div"
    # ternary
    GATE3 = "Gate3"
    # source leaves
    X = "x_t"
    XM1 = "x_tm1"
    HM1 = "h_tm1"
    CM1 = "c_tm1"
    POSENC = "posenc"

    # members are singletons compared by identity; Enum.__hash__ is a
    # Python-level call, and every arity lookup hashes a member
    __hash__ = object.__hash__

    @property
    def arity(self) -> int:
        return _ARITY[self]

    @property
    def is_source(self) -> bool:
        return _ARITY[self] == 0

    @property
    def commutative(self) -> bool:
        return self in (OpKind.ADD, OpKind.MULT)

    @property
    def order_sensitive(self) -> bool:
        return self in (OpKind.GATE3, OpKind.SUB, OpKind.DIV)

    @property
    def is_activation(self) -> bool:
        return self in (
            OpKind.SIGMOID,
            OpKind.TANH,
            OpKind.RELU,
            OpKind.SIN,
            OpKind.COS,
            OpKind.SELU,
        )


_ARITY = {
    OpKind.MM: 1,
    OpKind.SIGMOID: 1,
    OpKind.TANH: 1,
    OpKind.RELU: 1,
    OpKind.SIN: 1,
    OpKind.COS: 1,
    OpKind.LAYERNORM: 1,
    OpKind.SELU: 1,
    OpKind.ADD: 2,
    OpKind.MULT: 2,
    OpKind.SUB: 2,
    OpKind.DIV: 2,
    OpKind.GATE3: 3,
    OpKind.X: 0,
    OpKind.XM1: 0,
    OpKind.HM1: 0,
    OpKind.CM1: 0,
    OpKind.POSENC: 0,
}

CORE_OPERATORS = [
    OpKind.MM,
    OpKind.SIGMOID,
    OpKind.TANH,
    OpKind.RELU,
    OpKind.ADD,
    OpKind.MULT,
    OpKind.GATE3,
]

EXTENDED_OPERATORS = CORE_OPERATORS + [
    OpKind.SUB,
    OpKind.DIV,
    OpKind.SIN,
    OpKind.COS,
    OpKind.LAYERNORM,
    OpKind.SELU,
]

CORE_SOURCES = [OpKind.X, OpKind.XM1, OpKind.HM1, OpKind.CM1]
EXTENDED_SOURCES = CORE_SOURCES + [OpKind.POSENC]


def vocabulary(extended: bool, allow_cm1: bool) -> tuple[list[OpKind], list[OpKind]]:
    """The operators and the sources a generator may choose, in a fixed
    order (the random draw's tables, the policy's action space)."""
    ops = list(EXTENDED_OPERATORS if extended else CORE_OPERATORS)
    srcs = list(EXTENDED_SOURCES if extended else CORE_SOURCES)
    if not allow_cm1:
        srcs.remove(OpKind.CM1)
    return ops, srcs


@dataclass(frozen=True)
class ArchNode:
    op: OpKind
    children: tuple["ArchNode", ...] = ()
    # the rendered text of a root that `canonicalize` built, else None; a
    # class attribute, not a field, so it takes no part in ==, hash, repr or
    # dataclasses.replace
    _canonical_text = None

    def __post_init__(self) -> None:
        if len(self.children) != self.op.arity:
            raise ValueError(
                f"{self.op.value} takes {self.op.arity} children, "
                f"got {len(self.children)}"
            )

    def walk(self) -> Iterator["ArchNode"]:
        """Preorder traversal over every node including leaves."""
        yield self
        for c in self.children:
            yield from c.walk()


@dataclass(frozen=True)
class Architecture:
    root: ArchNode
    ct_node: Optional[int] = None


def from_preorder(kinds: Sequence[OpKind]) -> ArchNode:
    """The tree whose kinds in preorder, children left to right, are
    ``kinds``: the order both generators fill slots in. Built from the last
    node back."""
    stack: list[ArchNode] = []
    for op in reversed(kinds):
        arity = op.arity
        if arity:
            kids = tuple(stack[:-arity - 1:-1])
            del stack[-arity:]
            stack.append(ArchNode(op, kids))
        else:
            stack.append(ArchNode(op))
    return stack[0]


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# Node numbering
#
# Operator nodes only; levels ordered from the deepest level toward the
# root, left to right within a level, starting at 1. The root always gets
# the largest number.
# ---------------------------------------------------------------------------

def numbered_operator_nodes(root: ArchNode) -> list[ArchNode]:
    """Operator nodes in numbering order; node i has number i + 1."""
    entries: list[tuple[int, int, ArchNode]] = []
    seq = 0

    def visit(n: ArchNode, depth: int) -> None:
        nonlocal seq
        if not n.op.is_source:
            entries.append((depth, seq, n))
            seq += 1
        for c in n.children:
            visit(c, depth + 1)

    visit(root, 0)
    entries.sort(key=lambda e: (-e[0], e[1]))
    return [n for _, _, n in entries]


def node_at_index(root: ArchNode, index: int) -> ArchNode:
    nodes = numbered_operator_nodes(root)
    if not 1 <= index <= len(nodes):
        raise ValueError(f"node index {index} out of range 1..{len(nodes)}")
    return nodes[index - 1]


def index_of_node(root: ArchNode, target: ArchNode) -> int:
    """Number of `target` within `root`, matching by object identity."""
    for i, n in enumerate(numbered_operator_nodes(root), start=1):
        if n is target:
            return i
    raise ValueError("node is not part of the tree")


def subtree_uses(n: ArchNode, op: OpKind) -> bool:
    return any(m.op is op for m in n.walk())


def operator_count(n: ArchNode) -> int:
    return sum(1 for m in n.walk() if not m.op.is_source)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_SOURCE_ALIASES = {
    "x_t": OpKind.X,
    "x": OpKind.X,
    "x_tm1": OpKind.XM1,
    "xm1": OpKind.XM1,
    "x_t-1": OpKind.XM1,
    "x_{t-1}": OpKind.XM1,
    "h_tm1": OpKind.HM1,
    "hm1": OpKind.HM1,
    "h_t-1": OpKind.HM1,
    "h_{t-1}": OpKind.HM1,
    "c_tm1": OpKind.CM1,
    "cm1": OpKind.CM1,
    "c_t-1": OpKind.CM1,
    "c_{t-1}": OpKind.CM1,
    "posenc": OpKind.POSENC,
    "fixed_posenc": OpKind.POSENC,
}

_OPERATORS_BY_NAME = {
    k.value: k for k in OpKind if not k.is_source
}

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<dollar>\$[^$]*\$)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<int>[0-9]+)
      | (?P<punct>[(),|@'])
    )""",
    re.VERBOSE,
)


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        # the token at pos and the position after it, once scanned
        self._ahead: Optional[tuple[Optional[tuple[str, str, int]], int]] = None

    def _scan(self) -> tuple[Optional[tuple[str, str, int]], int]:
        m = _TOKEN_RE.match(self.text, self.pos)
        if m is None:
            rest = self.text[self.pos:].lstrip()
            if not rest:
                return None, self.pos
            raise ParseError(
                f"unexpected character {rest[0]!r}", len(self.text) - len(rest))
        kind = m.lastgroup
        assert kind is not None
        return (kind, m.group(kind), m.start(kind)), m.end()

    def peek(self) -> Optional[tuple[str, str, int]]:
        if self._ahead is None:
            self._ahead = self._scan()
        return self._ahead[0]

    def next(self) -> Optional[tuple[str, str, int]]:
        tok, self.pos = self._ahead or self._scan()
        self._ahead = None
        return tok

    def expect_punct(self, ch: str) -> None:
        tok = self.next()
        if tok is None or tok[0] != "punct" or tok[1] != ch:
            pos = tok[2] if tok else len(self.text)
            got = tok[1] if tok else "end of input"
            raise ParseError(f"expected {ch!r}, got {got!r}", pos)


def _source_from_alias(name: str, pos: int) -> OpKind:
    key = name.strip()
    kind = _SOURCE_ALIASES.get(key) or _SOURCE_ALIASES.get(key.lower())
    if kind is None:
        raise ParseError(f"unknown source {name!r}", pos)
    return kind


def parse(text: str) -> Architecture:
    """Parse a DSL string into an Architecture.

    Accepts the canonical grammar plus `Var('hm1')`-style and `$h_{t-1}$`
    typeset aliases. A `|n` suffix or a single inline `@ct(...)` marker
    selects the c_t node.
    """
    tz = _Tokenizer(text)
    ct_marked: list[tuple[ArchNode, int]] = []  # each marked node, its '@' position
    root = _parse_node(tz, ct_marked)
    ct_index: Optional[int] = None
    tok = tz.peek()
    if tok is not None and tok[0] == "punct" and tok[1] == "|":
        tz.next()
        num = tz.next()
        if num is None or num[0] != "int":
            raise ParseError(
                "expected node number after '|'", num[2] if num else len(text))
        ct_index = int(num[1])
        ct_pos = num[2]
    trailing = tz.peek()
    if trailing is not None:
        raise ParseError(f"unexpected trailing input {trailing[1]!r}", trailing[2])

    if len(ct_marked) > 1:
        raise ParseError("multiple @ct markers", sorted(p for _, p in ct_marked)[1])
    if ct_marked:
        if ct_index is not None:
            raise ParseError("both @ct marker and |n suffix given", tok[2])
        tap, ct_pos = ct_marked[0]
        ct_index = index_of_node(root, tap)

    if ct_index is not None:
        nodes = numbered_operator_nodes(root)
        if not 1 <= ct_index <= len(nodes):
            raise ParseError(
                f"ct node index {ct_index} out of range 1..{len(nodes)}", ct_pos
            )
        if not subtree_uses(nodes[ct_index - 1], OpKind.CM1):
            raise ParseError(
                f"ct subtree at node {ct_index} does not use c_tm1", ct_pos
            )
    return Architecture(root, ct_index)


def _parse_node(tz: _Tokenizer, ct_marked: list[tuple[ArchNode, int]]) -> ArchNode:
    tok = tz.next()
    if tok is None:
        raise ParseError("unexpected end of input", len(tz.text))
    kind, value, pos = tok

    if kind == "punct" and value == "@":
        name = tz.next()
        if name is None or name[1] != "ct":
            raise ParseError("expected 'ct' after '@'", name[2] if name else len(tz.text))
        tz.expect_punct("(")
        inner = _parse_node(tz, ct_marked)
        tz.expect_punct(")")
        if inner.op.is_source:
            raise ParseError("@ct must wrap an operator node", pos)
        ct_marked.append((inner, pos))
        return inner

    if kind == "dollar":
        return ArchNode(_source_from_alias(value.strip("$").replace("\\", ""), pos))

    if kind != "name":
        raise ParseError(f"unexpected token {value!r}", pos)

    if value == "Var":
        tz.expect_punct("(")
        tz.expect_punct("'")
        inner_name = tz.next()
        if inner_name is None or inner_name[0] != "name":
            raise ParseError(
                "expected source name inside Var('...')",
                inner_name[2] if inner_name else len(tz.text))
        tz.expect_punct("'")
        tz.expect_punct(")")
        return ArchNode(_source_from_alias(inner_name[1], inner_name[2]))

    if value in _SOURCE_ALIASES:
        return ArchNode(_SOURCE_ALIASES[value])

    op = _OPERATORS_BY_NAME.get(value)
    if op is None:
        raise ParseError(f"unknown token {value!r}", pos)

    tz.expect_punct("(")
    children = [_parse_node(tz, ct_marked)]
    while True:
        tok = tz.peek()
        if tok is not None and tok[0] == "punct" and tok[1] == ",":
            tz.next()
            # tolerate a trailing comma before ')' (the GRU listing has one)
            nxt = tz.peek()
            if nxt is not None and nxt[0] == "punct" and nxt[1] == ")":
                break
            children.append(_parse_node(tz, ct_marked))
        else:
            break
    tz.expect_punct(")")
    if len(children) != op.arity:
        raise ParseError(
            f"{op.value} takes {op.arity} arguments, got {len(children)}", pos
        )
    return ArchNode(op, tuple(children))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_node(n: ArchNode) -> str:
    if n.op.is_source:
        return n.op.value
    return f"{n.op.value}({','.join(render_node(c) for c in n.children)})"


def render(arch: Architecture) -> str:
    text = arch.root._canonical_text
    if text is None:
        text = render_node(arch.root)
    if arch.ct_node is not None:
        text += f"|{arch.ct_node}"
    return text


# ---------------------------------------------------------------------------
# Canonicalization
#
# The root that canonicalization builds keeps its rendered text. A tree with
# such a root is canonical, whatever its c_t tap: the canonical order is a
# fixed point, so the tap keeps its number. Only `canonicalize_with_map`
# sets the text.
# ---------------------------------------------------------------------------

def _canon(n: ArchNode, mapping: dict[int, ArchNode]) -> tuple[ArchNode, str]:
    # carries each subtree's rendered text upward so sort keys are built
    # once per node instead of re-rendering inside every comparison
    pairs = [_canon(c, mapping) for c in n.children]
    if n.op.commutative:
        pairs.sort(key=lambda p: p[1])
    elif n.op is OpKind.GATE3:
        # the gate input stays in place; the two mixed values may be sorted
        pairs[:2] = sorted(pairs[:2], key=lambda p: p[1])
    new = ArchNode(n.op, tuple(p[0] for p in pairs))
    mapping[id(n)] = new
    if n.op.is_source:
        text = n.op.value
    else:
        text = f"{n.op.value}({','.join(p[1] for p in pairs)})"
    return new, text


def _tap(arch: Architecture, new_root: ArchNode, mapping: dict[int, ArchNode]) -> Optional[int]:
    if arch.ct_node is None:
        return None
    return index_of_node(new_root, mapping[id(node_at_index(arch.root, arch.ct_node))])


def canonicalize(arch: Architecture) -> Architecture:
    """Sort commutative children (and Gate3's two values) by rendered text.
    A tree that is canonical already is returned as it is."""
    if arch.root._canonical_text is not None:
        return arch
    new_root, _, new_ct = canonicalize_with_map(arch)
    return Architecture(new_root, new_ct)


def canonicalize_all(archs: Sequence[Architecture]) -> list[Architecture]:
    """`canonicalize` of each tree, walking each root object once: the c_t
    variants of one tree share its root."""
    walked: dict[int, tuple[ArchNode, dict[int, ArchNode]]] = {}
    out = []
    for arch in archs:
        if arch.root._canonical_text is None:
            key = id(arch.root)
            if key not in walked:
                walked[key] = canonicalize_with_map(Architecture(arch.root))[:2]
            new_root, mapping = walked[key]
            arch = Architecture(new_root, _tap(arch, new_root, mapping))
        out.append(arch)
    return out


def canonicalize_with_map(
    arch: Architecture,
) -> tuple[ArchNode, dict[int, ArchNode], Optional[int]]:
    """Canonicalize, also returning the old-id -> new-node mapping. The new
    root keeps its text."""
    mapping: dict[int, ArchNode] = {}
    new_root, text = _canon(arch.root, mapping)
    object.__setattr__(new_root, "_canonical_text", text)
    return new_root, mapping, _tap(arch, new_root, mapping)


# ---------------------------------------------------------------------------
# Analysis and structural checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArchAnalysis:
    node_count: int
    height: int
    sources_used: frozenset[OpKind]
    uses_ct: bool
    validity_flags: tuple[str, ...]


def tree_height(root: ArchNode) -> int:
    """Longest root-to-leaf path counted in operator edges."""
    best = 0

    def visit(n: ArchNode, depth: int) -> None:
        nonlocal best
        if not n.op.is_source:
            best = max(best, depth)
        for c in n.children:
            visit(c, depth + 1)

    visit(root, 0)
    return best


# the sources every cell must read, and the flag of each one missing
_MISSING = {OpKind.X: "missing_x", OpKind.HM1: "missing_h"}


def structural_violations(
    arch: Architecture,
    max_nodes: int = 21,
    max_height: int = 8,
) -> list[str]:
    """Named restriction violations; empty means admissible.

    One preorder pass collects the leaf sources, the first gate and
    stacking violations in the order they occur, the operator count and
    the height.
    """
    root = arch.root
    sources: set[OpKind] = set()
    found: list[str] = []  # gate_not_sigmoid / stacked_identical, first seen first
    ops = 0
    height = 0
    stack = [(root, 0)]
    while stack:
        n, depth = stack.pop()
        kids = n.children
        if not kids:
            sources.add(n.op)
            continue
        ops += 1
        if depth > height:
            height = depth
        op = n.op
        if (
            op is OpKind.GATE3
            and kids[2].op is not OpKind.SIGMOID
            and "gate_not_sigmoid" not in found
        ):
            found.append("gate_not_sigmoid")
        if "stacked_identical" not in found:
            for c in kids:
                if c.op is op:
                    found.append("stacked_identical")
                    break
        depth += 1
        stack.extend([(c, depth) for c in reversed(kids)])
    flags = [flag for req, flag in _MISSING.items() if req not in sources]
    flags += found
    if not root.children:
        flags.append("bare_source")
    if ops > max_nodes:
        flags.append("too_big")
    if height > max_height:
        flags.append("too_tall")
    if arch.ct_node is not None:
        tap = node_at_index(root, arch.ct_node)
        if not subtree_uses(tap, OpKind.CM1):
            flags.append("ct_without_cm1")
        if tap is root or operator_count(tap) < 3:
            flags.append("trivial_ct")
    return flags


def analyze(arch: Architecture) -> ArchAnalysis:
    root = arch.root
    return ArchAnalysis(
        node_count=operator_count(root),
        height=tree_height(root),
        sources_used=frozenset(n.op for n in root.walk() if n.op.is_source),
        uses_ct=subtree_uses(root, OpKind.CM1),
        validity_flags=tuple(structural_violations(arch)),
    )


def enumerate_ct_taps(arch: Architecture) -> list[Architecture]:
    """All c_t variants of a tap-free architecture, ascending node index.

    A valid tap is an internal node other than the root whose subtree
    contains c_tm1 and has at least 3 operator nodes.
    """
    if arch.ct_node is not None:
        raise ValueError("architecture already has a c_t tap")
    if not subtree_uses(arch.root, OpKind.CM1):
        return []
    out = []
    for idx, n in enumerate(numbered_operator_nodes(arch.root), start=1):
        if n is arch.root:
            continue
        if subtree_uses(n, OpKind.CM1) and operator_count(n) >= 3:
            out.append(Architecture(arch.root, idx))
    return out


# ---------------------------------------------------------------------------
# Built-in cells, as DSL text; `@ct(...)` marks the node tapped as c_t
# ---------------------------------------------------------------------------

_BUILTINS = {
    "tanh_rnn": "Tanh(Add(MM(x_t),MM(h_tm1)))",
    "gru": """
        Gate3(Tanh(Add(MM(x_t),Mult(MM(h_tm1),Sigmoid(Add(MM(h_tm1),MM(x_t)))))),
              h_tm1,
              Sigmoid(Add(MM(h_tm1),MM(x_t))))""",
    "lstm": """
        Mult(Sigmoid(Add(MM(x_t),MM(h_tm1))),
             Tanh(@ct(Add(Mult(Sigmoid(Add(MM(x_t),MM(h_tm1))),c_tm1),
                          Mult(Sigmoid(Add(MM(x_t),MM(h_tm1))),Tanh(Add(MM(x_t),MM(h_tm1))))))))""",
    "mgu": """
        Gate3(Tanh(Add(MM(x_t),MM(Mult(Sigmoid(Add(MM(h_tm1),MM(x_t))),h_tm1)))),
              h_tm1,
              Sigmoid(Add(MM(h_tm1),MM(x_t))))""",
    "bc3": """
        Gate3(@ct(Tanh(Gate3(MM(x_t),
                             Mult(MM(Mult(MM(c_tm1),MM(x_t))),MM(x_t)),
                             Sigmoid(Add(MM(x_t),MM(h_tm1)))))),
              h_tm1,
              Sigmoid(Add(MM(x_t),MM(h_tm1))))""",
}


def builtin(name: str) -> Architecture:
    """Named standard cell (tanh_rnn, gru, lstm, mgu, bc3) as a DSL tree."""
    try:
        text = _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown cell {name!r}; choose from {sorted(_BUILTINS)}"
        ) from None
    return parse(text)


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)
