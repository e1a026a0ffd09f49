"""No function of the package calls itself.

Deep systems must not hit Python's recursion limit: a chain of n states has
resolutions of depth n, and every walk over processes or resolution nodes
keeps its own stack instead.  The scan reads the source, so it covers nested
functions and methods (``self.f()`` inside ``f``) too; a call through
``super()`` reaches another class's method and is not counted.
"""
import ast
from pathlib import Path

import tracemet

SOURCES = sorted(Path(tracemet.__file__).parent.glob("*.py"))


def is_super(node: ast.AST) -> bool:
    """``super()``: a call on it reaches another class's method."""
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "super"


def self_calls(tree: ast.AST) -> list[str]:
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name):
                name = callee.id
            elif isinstance(callee, ast.Attribute) and not is_super(callee.value):
                name = callee.attr
            else:
                continue
            if name == func.name:
                found.append(f"{func.name} (line {node.lineno})")
    return found


def test_sources_found():
    assert {"core.py", "resolutions.py", "traces.py"} <= {path.name for path in SOURCES}


def test_no_function_calls_itself():
    offenders = {
        path.name: calls for path in SOURCES if (calls := self_calls(ast.parse(path.read_text())))
    }
    assert offenders == {}


def test_scan_finds_nested_and_method_recursion():
    source = """
def outer(xs):
    def walk(x):
        return [walk(y) for y in x]
    return walk(xs)

class Tree(Base):
    def __init__(self, kids):
        super().__init__()
        self.kids = kids

    def size(self):
        return 1 + sum(kid.size() for kid in self.kids)

def flat(xs):
    return len(xs)
"""
    assert [call.split()[0] for call in self_calls(ast.parse(source))] == ["walk", "size"]
