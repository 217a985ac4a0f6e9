"""No helper that only a unit test calls: every module-level function and
class of the package, and every method of a package class, is named
somewhere in the package or the benchmark outside its own definition, and
every module-level name bound to a callable by assignment is used, bare in
its own module or qualified by its module elsewhere; the rest are held by
the acceptance gate. No config field that the package never reads."""

import ast
import importlib
import re
from dataclasses import fields, make_dataclass
from pathlib import Path

from rnndsl.engine import OptimizerConfig
from rnndsl.search import CONFIG_SECTIONS, SearchConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rnndsl"

# module.name or module.Class.method -> the acceptance test that calls it,
# and nothing else does
ACCEPTANCE_ONLY = {
    "compiler.CellProgram.params_for_node_index": "TestAcceptance03Canonicalization",
    "engine.safe_div": "TestAcceptance04Gradients",
    "engine.gate3": "TestAcceptance04Gradients",
    "engine.layer_norm": "TestAcceptance04Gradients",
    "engine.sigmoid": "TestAcceptance04Gradients",
    "engine.tanh": "TestAcceptance04Gradients",
    "engine.relu": "TestAcceptance04Gradients",
    "engine.sin": "TestAcceptance04Gradients",
    "engine.cos": "TestAcceptance04Gradients",
    "engine.exp": "TestAcceptance04Gradients",
    "engine.selu": "TestAcceptance04Gradients",
    "rlgen.sample_architecture": "TestAcceptance08Pretraining",
    "rlgen.Episode.logp_sum": "TestAcceptance04Gradients",
}


def assigned_callable(node: ast.stmt, module) -> str | None:
    """The name a top-level `name = ...` binds, if it is bound to a callable."""
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    if len(targets) == 1 and isinstance(targets[0], ast.Name):
        if callable(getattr(module, targets[0].id, None)):
            return targets[0].id
    return None


def imported_from(text: str, stem: str) -> set[str]:
    """The names a file imports from the package module ``stem``."""
    return {a.name for n in ast.walk(ast.parse(text)) if isinstance(n, ast.ImportFrom)
            and (n.module or "").rsplit(".", 1)[-1] == stem for a in n.names}


def read_names(tree: ast.Module, skip: ast.stmt) -> set[str]:
    """The bare names a module reads outside the top-level statement ``skip``."""
    return {n.id for stmt in tree.body if stmt is not skip for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def named_elsewhere(node: ast.stmt, lines: list[str], rest: list[str]) -> bool:
    """Whether the name ``node`` defines appears, as a word, in ``rest`` or
    in its own file's ``lines`` outside the definition."""
    start = min([node.lineno] + [d.lineno for d in node.decorator_list])
    own = "".join(lines[:start - 1] + lines[node.end_lineno:])
    word = re.compile(rf"\b{re.escape(node.name)}\b")
    return any(word.search(t) for t in [*rest, own])


def unreferenced_definitions() -> set[str]:
    """module.name of each top-level def or class whose name appears, as a
    word, nowhere in src/rnndsl/ or perfbench/ outside its definition, and
    module.Class.name of each such method (dunders aside); and module.name
    of each top-level name bound to a callable by assignment that its own
    module's code does not read outside the binding (`np.tanh` is not a
    read of `tanh`, nor is a comment), and that no other file imports or
    reads as `<module or its alias>.name`."""
    texts = {p: p.read_text() for p in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]}
    everything = "\n".join(texts.values())
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"rnndsl.{path.stem}")
        lines = texts[path].splitlines(keepends=True)
        rest = [t for p, t in texts.items() if p != path]
        tree = ast.parse(texts[path])
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                found.update(
                    f"{path.stem}.{node.name}.{m.name}" for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not m.name.startswith("__") and not named_elsewhere(m, lines, rest))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                used = named_elsewhere(node, lines, rest)
            elif (name := assigned_callable(node, module)) is not None:
                aliases = {path.stem, *re.findall(rf"\b{path.stem}\s+as\s+(\w+)", everything)}
                qualified = re.compile(rf"\b(?:{'|'.join(aliases)})\.{re.escape(name)}\b")
                used = (name in read_names(tree, node)
                        or any(qualified.search(t) or name in imported_from(t, path.stem)
                               for t in rest))
            else:
                continue
            if not used:
                found.add(f"{path.stem}.{name}")
    return found


def test_no_helper_only_a_unit_test_calls():
    assert unreferenced_definitions() == set(ACCEPTANCE_ONLY)


def test_acceptance_holds_each_allowed_name():
    gate = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    classes = {n.name: ast.unparse(n) for n in gate.body if isinstance(n, ast.ClassDef)}
    for qualified, holder in ACCEPTANCE_ONLY.items():
        name = qualified.rsplit(".", 1)[1]
        assert re.search(rf"\b{name}\b", classes[holder]), qualified


# Class.field -> why a field that the package never reads stays a field
UNREAD_BUT_CONSTRUCTED = {
    "SearchConfig.mode": "acceptance 09 and perfbench construct SearchConfig(mode=...); "
                         "the search loops do not read it",
}


def unread_config_fields(texts=None, classes=None) -> set[str]:
    """Class.field of each field of a config section or of OptimizerConfig
    (or of ``classes``) that src/rnndsl/ (or ``texts``, path -> source)
    reads as `.field` nowhere outside its class body. `args.field` is an
    argparse attribute, not a read of the field."""
    texts = texts or {p: p.read_text() for p in PACKAGE.glob("*.py")}
    found = set()
    for cls in classes or [*CONFIG_SECTIONS.values(), OptimizerConfig]:
        path = PACKAGE / f"{cls.__module__.rsplit('.', 1)[1]}.py"
        lines = texts[path].splitlines(keepends=True)
        node = next(n for n in ast.parse(texts[path]).body
                    if isinstance(n, ast.ClassDef) and n.name == cls.__name__)
        start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        rest = [t for p, t in texts.items() if p != path]
        rest.append("".join(lines[:start - 1] + lines[node.end_lineno:]))
        for f in fields(cls):
            read = re.compile(rf"(?<!\bargs)\.{f.name}\b")
            if not any(read.search(t) for t in rest):
                found.add(f"{cls.__name__}.{f.name}")
    return found


def test_every_config_field_is_read():
    assert unread_config_fields() == set(UNREAD_BUT_CONSTRUCTED)


def test_an_argparse_attribute_is_not_a_read():
    """A field that cli.py reads only as `args.<name>` fails the guard, and
    passes once something reads it as `<config>.<name>`."""
    planted = make_dataclass("SearchConfig", [("planted_knob", int, 0)], bases=(SearchConfig,),
                             namespace={"__module__": SearchConfig.__module__})
    texts = {p: p.read_text() for p in PACKAGE.glob("*.py")}
    texts[PACKAGE / "cli.py"] += "\nknob = args.planted_knob\n"
    assert "SearchConfig.planted_knob" in unread_config_fields(texts, [planted])
    texts[PACKAGE / "cli.py"] += "knob = cfg.planted_knob\n"
    assert "SearchConfig.planted_knob" not in unread_config_fields(texts, [planted])
