"""No helper that only a unit test calls: every module-level function and
class of the package is named somewhere in the package or the benchmark
outside its own definition, or is held by the acceptance gate. No config
field that the package never reads."""

import ast
import re
from dataclasses import fields
from pathlib import Path

from rnndsl.engine import OptimizerConfig
from rnndsl.search import CONFIG_SECTIONS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rnndsl"

# module.name -> the acceptance test that calls it, and nothing else does
ACCEPTANCE_ONLY = {
    "engine.safe_div": "TestAcceptance04Gradients",
    "engine.gate3": "TestAcceptance04Gradients",
    "engine.layer_norm": "TestAcceptance04Gradients",
    "rlgen.sample_architecture": "TestAcceptance08Pretraining",
}


def unreferenced_definitions() -> set[str]:
    """module.name of each top-level def or class whose name appears, as a
    word, nowhere in src/rnndsl/ or perfbench/ outside its definition."""
    texts = {p: p.read_text() for p in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]}
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = texts[path].splitlines(keepends=True)
        for node in ast.parse(texts[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            rest = [t for p, t in texts.items() if p != path]
            rest.append("".join(lines[:start - 1] + lines[node.end_lineno:]))
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(t) for t in rest):
                found.add(f"{path.stem}.{node.name}")
    return found


def test_no_helper_only_a_unit_test_calls():
    assert unreferenced_definitions() == set(ACCEPTANCE_ONLY)


def test_acceptance_holds_each_allowed_name():
    gate = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    classes = {n.name: ast.unparse(n) for n in gate.body if isinstance(n, ast.ClassDef)}
    for qualified, holder in ACCEPTANCE_ONLY.items():
        name = qualified.split(".")[1]
        assert re.search(rf"\b{name}\b", classes[holder]), qualified


def unread_config_fields() -> set[str]:
    """Class.field of each field of a config section or of OptimizerConfig
    that src/rnndsl/ reads as `.field` nowhere outside its class body."""
    texts = {p: p.read_text() for p in PACKAGE.glob("*.py")}
    found = set()
    for cls in [*CONFIG_SECTIONS.values(), OptimizerConfig]:
        path = PACKAGE / f"{cls.__module__.rsplit('.', 1)[1]}.py"
        lines = texts[path].splitlines(keepends=True)
        node = next(n for n in ast.parse(texts[path]).body
                    if isinstance(n, ast.ClassDef) and n.name == cls.__name__)
        start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        rest = [t for p, t in texts.items() if p != path]
        rest.append("".join(lines[:start - 1] + lines[node.end_lineno:]))
        for f in fields(cls):
            read = re.compile(rf"\.{f.name}\b")
            if not any(read.search(t) for t in rest):
                found.add(f"{cls.__name__}.{f.name}")
    return found


def test_every_config_field_is_read():
    assert unread_config_fields() == set()
