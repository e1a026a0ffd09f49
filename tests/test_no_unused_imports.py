"""No package module, test module or golden generator imports a name it
never uses.

An import left behind by a refactor keeps a dead dependency between
modules and hides that a route is gone.  The scan reads the source: a name
counts as used when it is read anywhere in the module, including inside an
annotation written as a string (``witness: "tuple[Resolution, Resolution]"``).
``__init__.py`` is exempt, since its imports are the package's exports
(``tests/test_api_surface.py`` holds those), and so is ``from __future__``.
The tests are scanned too: a check migrated to a new call leaves its old
imports behind in the test, where nothing else would notice them.
"""
import ast
from pathlib import Path

import tracemet

SOURCES = sorted(
    path for path in Path(tracemet.__file__).parent.glob("*.py") if path.name != "__init__.py"
)
TESTS = Path(__file__).resolve().parent
TEST_SOURCES = sorted(TESTS.glob("*.py")) + [TESTS / "golden" / "generate.py"]


def imported(tree: ast.AST) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.AST) -> list[ast.AST]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            found += [arg.annotation for arg in every if arg is not None and arg.annotation]
            if node.returns is not None:
                found.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return found


def used(tree: ast.AST) -> set[str]:
    """Every name the module reads, string annotations parsed."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= used(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    names = used(tree)
    return [f"{name} (line {line})" for name, line in imported(tree).items() if name not in names]


def test_sources_found():
    assert {"cli.py", "metrics.py", "traces.py", "transport.py"} <= {p.name for p in SOURCES}
    names = {p.name for p in TEST_SOURCES}
    assert {"conftest.py", "oracles.py", "test_hausdorff_kernel.py", "generate.py"} <= names


def test_no_module_imports_a_name_it_never_uses():
    offenders = {
        f"{path.parent.name}/{path.name}": names
        for path in SOURCES + TEST_SOURCES
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_scan_finds_leftovers_and_reads_string_annotations():
    source = '''
from __future__ import annotations
import math
import os.path
from typing import Callable, NamedTuple
from .resolutions import Resolution
from .transport import on_common_denominator as scale

class Result:
    witness: "tuple[Resolution, Resolution]"

def f(xs: list, key: Callable) -> int:
    return math.lcm(*xs) + len(os.path.sep)
'''
    assert unused_imports(source) == ["NamedTuple (line 5)", "scale (line 7)"]
