"""Every module of the package uses every name it imports, and importing
the package loads numpy only."""

import ast
import os
from pathlib import Path
import subprocess
import sys

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chi2qec"
# __init__.py may import names only to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """{bound name: line} for every import statement in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used_names(tree):
    """Names read anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            args = node.args
            annotations.extend(
                a.annotation
                for a in args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg]
                if a is not None
            )
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted(
        (line, name) for name, line in _imported_names(tree).items() if name not in used
    )


def test_scanner_finds_unused_and_keeps_used():
    source = (
        "import os\n"
        "import scipy.sparse as sp\n"
        "from typing import List, Tuple\n"
        "def f(x: 'List[int]') -> int:\n"
        "    return sp.eye(len(x))\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "Tuple")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_importing_every_module_loads_no_scipy():
    # A fresh interpreter, so modules other tests imported do not count.
    names = ["chi2qec"] + ["chi2qec." + p.stem for p in MODULES]
    code = (
        "import importlib, sys\n"
        "for name in %r: importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n" % names
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert len(names) == 9
    assert out.stdout.strip() == "[]"
