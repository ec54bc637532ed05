"""Every name `src/` defines is used by `src/` itself or by the benchmark's
tracer, and every name the tracer wraps exists.

A module-level name, or a public method, that neither `src/` nor
`bench/tracer.py` mentions except where it is defined (or in `__all__`) is
code that only tests call: the reference implementations tests compare
against belong in `tests/`, and anything else is dead. Dunder names are
exempt, since the language calls them.

`csvrows.read_rows` is the one csv reader: no module of `src/` parses csv
with `csv.reader` or `csv.DictReader`.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gridshock"
TRACER = ROOT / "bench" / "tracer.py"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _assigned_names(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) for each module-level name and each public method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        else:
            found.extend((name, node.lineno) for name in _assigned_names(node))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (item.name, item.lineno)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
            )
    return [(name, line) for name, line in found if not _is_dunder(name)]


def _uses(tree: ast.Module) -> set[str]:
    """Names read anywhere in a module. Definitions, imports and `__all__`
    entries are not reads."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def unused_names() -> list[str]:
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    # the benchmark's tracer reads results (`total_shed_mw`, `status`,
    # `a_ub`) and counts as a caller
    tracer = ast.parse(TRACER.read_text(), filename=str(TRACER))
    used = set().union(_uses(tracer), *(_uses(tree) for tree in trees.values()))
    return [
        f"{path.name}:{line}: {name}"
        for path, tree in trees.items()
        for name, line in _definitions(tree)
        if name not in used
    ]


def test_every_src_name_has_a_src_caller():
    unused = unused_names()
    assert not unused, "defined in src/ but used only by tests (or not at all):\n" + "\n".join(unused)


def duplicated_constants() -> list[str]:
    """Module-level constants (upper-case names, private ones included)
    assigned in more than one module of `src/`."""
    modules: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            for name in _assigned_names(node):
                if name.lstrip("_").isupper():
                    modules.setdefault(name, []).append(path.name)
    return [
        f"{name}: {', '.join(paths)}"
        for name, paths in sorted(modules.items())
        if len(paths) > 1
    ]


def test_each_constant_is_defined_once():
    # a constant copied into a second module can drift from the first;
    # import it from the module that defines it instead
    duplicated = duplicated_constants()
    assert not duplicated, "constants assigned in more than one module:\n" + "\n".join(duplicated)


def test_every_traced_name_exists():
    # bench/tracer.py patches these names at run time; a rename in src/
    # would otherwise surface only when a traced benchmark runs
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    missing = [
        f"{module}.{attribute}"
        for module, attribute, _ in tracer.WRAPPED
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert not missing, "bench/tracer.py wraps names src/ does not define: " + ", ".join(missing)


def stale_exports() -> list[str]:
    """`__all__` entries that their module does not define."""
    stale = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"gridshock.{path.stem}")
        stale.extend(
            f"{path.name}: {name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        )
    return stale


def test_every_export_is_defined():
    # a name deleted from a module must leave its __all__ too, or
    # `from gridshock.<module> import *` fails
    stale = stale_exports()
    assert not stale, "__all__ names what the module does not define:\n" + "\n".join(stale)


def csv_readers() -> list[str]:
    """Each use of `csv.reader` or `csv.DictReader` in `src/`, attribute or import."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [node.attr] if node.value.id == "csv" else []
            elif isinstance(node, ast.ImportFrom) and node.module == "csv":
                names = [alias.name for alias in node.names]
            else:
                continue
            found.extend(f"{path.name}:{node.lineno} csv.{name}" for name in names if name in ("reader", "DictReader"))
    return found


def test_one_csv_grammar():
    # every fixed-column table goes through read_rows, so that a quoted
    # field or a line of blanks is refused alike in each of them
    found = csv_readers()
    assert not found, "src/ parses csv outside csvrows.read_rows:\n" + "\n".join(found)
