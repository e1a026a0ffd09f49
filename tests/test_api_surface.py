"""The package is its commands and its documented API.

Every function ``tracemet`` exports is read by another module of the
package or shown as ``tm.<name>`` in README's Library section.  An export
that reaches neither has no caller but the tests, and belongs in
``tests/oracles.py``.  The Library block itself must run.
"""
import ast
import inspect
import re
from pathlib import Path

import tracemet as tm

PACKAGE = Path(tm.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def imported_names(path: Path) -> set[str]:
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_exported_function_is_read_or_shown():
    exported = imported_names(PACKAGE / "__init__.py")
    functions = {name for name in exported if inspect.isfunction(getattr(tm, name))}
    read = set().union(
        *(imported_names(path) for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    )
    shown = set(re.findall(r"\btm\.(\w+)", library_section()))
    assert sorted(functions - read - shown) == []


def test_library_block_runs():
    block = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    exec(compile(block, f"{README} (Library)", "exec"), {})
