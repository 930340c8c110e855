"""The public API: every exported name is used by the program, the
benchmark or the acceptance criteria, not only by unit tests."""

import ast
from pathlib import Path

import pencillab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pencillab"
BENCH = ROOT / "perfbench"


def _used_names(path: Path, strings: bool) -> set:
    """Names that the file loads, imports or reads as an attribute; with
    strings, also its string constants (the benchmark's tracer wraps
    functions by name). A def or class does not use its own name."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            used.add(node.value)
    return used


def test_every_export_is_used():
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            used |= _used_names(path, strings=False)
    for path in sorted(BENCH.glob("*.py")):
        used |= _used_names(path, strings=True)
    used |= _used_names(ROOT / "tests" / "test_acceptance.py", strings=False)
    unused = sorted(set(pencillab.__all__) - used)
    assert unused == [], f"exported but unused: {unused}"
