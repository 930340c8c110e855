"""The public API: every exported name, every public name a module defines
and every public method or property of its classes is used by the program,
the benchmark or the acceptance criteria, not only by unit tests; every
argument check raises a UsageError; importing the package loads neither
scipy.stats nor scipy.optimize."""

import ast
import json
import os
import subprocess
import sys
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


def _public_names(path: Path) -> set:
    """Non-underscore names the module defines at its top level: defs,
    classes and assignment targets, not the names it imports."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for target in node.targets
                      for t in ast.walk(target) if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def test_every_export_is_used():
    used, public = set(), set(pencillab.__all__)
    for path in sorted(PACKAGE.glob("*.py")):
        public |= _public_names(path)
        if path.name != "__init__.py":
            used |= _used_names(path, strings=False)
    for path in sorted(BENCH.glob("*.py")):
        used |= _used_names(path, strings=True)
    used |= _used_names(ROOT / "tests" / "test_acceptance.py", strings=False)
    unused = sorted(public - used)
    assert unused == [], f"public but unused: {unused}"


def _attributes_read(path: Path, strings: bool) -> set:
    """Names the file reads as an attribute (x.name); with strings, also its
    string constants."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            used.add(node.value)
    return used


def test_every_public_member_is_used():
    # a method or property is reached as an attribute: by the program, the
    # benchmark (whose tracer also names what it reads) or the acceptance
    # criteria; dataclass fields are data, not members
    members, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        used |= _attributes_read(path, strings=False)
        members |= {f"{path.stem}.{node.name}.{item.name}"
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.ClassDef) for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")}
    for path in sorted(BENCH.glob("*.py")):
        used |= _attributes_read(path, strings=True)
    used |= _attributes_read(ROOT / "tests" / "test_acceptance.py",
                             strings=False)
    unused = sorted(m for m in members if m.rsplit(".", 1)[1] not in used)
    assert unused == [], f"public but unused: {unused}"


def test_argument_checks_raise_usage_errors():
    # a bare ValueError would reach the command line without its field
    bare = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                bare.append(f"{path.name}:{node.lineno}")
    assert bare == [], f"raise ValueError at {bare}"


IMPORT_PROBE = """
import json, sys
import pencillab, pencillab.cli
heavy = sorted(m for m in sys.modules
               if m.split(".")[:2] in (["scipy", "stats"], ["scipy", "optimize"],
                                       ["scipy", "linalg"]))
import scipy.optimize
print(json.dumps({"heavy": heavy,
                  "optimize": pencillab.regularity.optimize is scipy.optimize}))
"""


def test_import_loads_neither_scipy_stats_nor_optimize():
    # a fresh interpreter, so modules the test session loaded do not count;
    # regularity.optimize resolves to scipy.optimize on first access, which
    # is what the benchmark's tracer wraps. scipy.linalg is held out too:
    # importing it adds 5-6 MB of resident memory to a transport run
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    probe = json.loads(out.stdout)
    assert probe["heavy"] == []
    assert probe["optimize"] is True
