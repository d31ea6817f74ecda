"""Every module of the package uses every name it imports, importing the
package loads numpy only and builds no generator matrices, `report all`
checks its JSON without jsonschema, and no run loads numpy.ma."""

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


def _loaded_in_fresh_interpreter(code, package):
    """Run `code` in a fresh interpreter, so modules other tests imported do
    not count, and return the `package` modules it left loaded."""
    code += ("\nprint(sorted(m for m in sys.modules if m.split('.')[0] == %r))\n"
             % package)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_importing_every_module_loads_no_scipy():
    names = ["chi2qec"] + ["chi2qec." + p.stem for p in MODULES]
    code = ("import importlib, sys\n"
            "for name in %r: importlib.import_module(name)" % names)
    assert len(names) == 10
    assert _loaded_in_fresh_interpreter(code, "scipy") == "[]"


def test_importing_builds_no_generator_matrices():
    names = ["chi2qec"] + ["chi2qec." + p.stem for p in MODULES]
    code = ("import importlib, sys\n"
            "for name in %r: importlib.import_module(name)\n"
            "from chi2qec import gates\n"
            "assert gates._generator_matrices.cache_info().currsize == 0" % names)
    _loaded_in_fresh_interpreter(code, "chi2qec")


def test_report_all_validates_its_json_without_jsonschema():
    code = ("import contextlib, io, sys\n"
            "from chi2qec import cli, schema\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['report', 'all']) == 1\n"  # the red gate identities
            "assert schema.report_schema.cache_info().currsize == 1")
    assert _loaded_in_fresh_interpreter(code, "jsonschema") == "[]"


def _numpy_modules_after(code):
    return ast.literal_eval(_loaded_in_fresh_interpreter(code, "numpy"))


def test_np_unique_loads_numpy_ma():
    # numpy.ma is imported on np.unique's first call, and adds about 1.4 MB
    # to a run's peak memory; this is what the next test guards against.
    assert "numpy.ma" in _numpy_modules_after("import sys\nimport numpy as np\nnp.unique([1])")


def test_report_all_and_kl_check_load_no_numpy_ma():
    code = ("import contextlib, io, sys\n"
            "from chi2qec import cli, fock\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['report', 'all']) == 1\n"  # the red gate identities
            "    assert cli.main(['kl-check', 'bc', '--N', '5', '--errors', 'xi5']) == 0\n"
            "basis = fock.enumerate_truncated_space(fock.three_mode_layout(2))\n"
            "fock.adjoint(fock.ladder(0, 'lower', basis))")
    assert "numpy.ma" not in _numpy_modules_after(code)
