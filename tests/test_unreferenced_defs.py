"""Every function and class in certctrl is used somewhere in certctrl.

A definition whose name never appears in the package's modules as a name,
an attribute or an import alias is code that only tests can reach; it is
deleted rather than kept.  The exceptions are the names the benchmark's
tracer wraps (perfbench/tracing.py), which must exist while it names them,
and `policy_from_text`, the documented reader of the policy text files
that `evt-min` writes (README).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import certctrl  # noqa: E402
from perfbench.tracing import LOCATED_CHECK, TRACED  # noqa: E402

PACKAGE = Path(certctrl.__file__).resolve().parent
ALLOWED = {fn for _, fn in TRACED} | {meth for _, meth in LOCATED_CHECK} | {"policy_from_text"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_referenced_in_the_package():
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(n for n in (node.name, node.asname) if n)
    unused = sorted(
        f"{name} ({where})" for name, where in defined.items()
        if not _is_dunder(name) and name not in used and name not in ALLOWED
    )
    assert not unused, f"defined but never referenced in certctrl: {', '.join(unused)}"


def _loads(module: str, other: str) -> bool:
    """Whether importing certctrl.<module> in a new interpreter loads certctrl.<other>."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p))
    code = f"import sys, certctrl.{module}; print('certctrl.{other}' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


def test_trajectories_does_not_load_the_selector():
    assert not _loads("trajectories", "selector")


def test_forms_does_not_load_stability():
    # forms owns the polynomial kernel and the comparators: core <- forms <- stability
    assert not _loads("forms", "stability")
