"""Every module of the package uses every name it imports, every
module-level def the package does not reference is a recorded exception,
no module reads another's underscore names but the one size limit,
importing the package loads numpy only and builds no generator matrices,
`report all` checks its JSON without jsonschema, and no run loads
numpy.ma."""

import ast
import json
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


# Module-level functions and classes of the package that no module of it
# references, each with the reason it stays.
UNREFERENCED = {
    "codes.mean_photons_per_mode": "paper property: per-mode photon numbers, tested",
    "gates.cnot3_12": "paper gate: the printed qutrit CNOT, tested unitary",
    "gates.cz_gate": "paper gate: the logical CZ as a dense matrix (verify_gates reads "
                     "its 81 phases), tested against the dense product",
    "gates.lambda_s_gate": "paper gate: Lambda(S) on embedded qubits, tested",
}


def _per_layer_references():
    """(module, function) pairs that BENCHMARK.json's per-layer metrics name."""
    doc = json.loads((PACKAGE.parents[1] / "BENCHMARK.json").read_text())
    return {tuple(metric["name"].split(".")[:2]) for metric in doc["per_layer"]}


def unreferenced_defs(sources, external=()):
    """Sorted "module.name" of the module-level defs and classes in
    `sources` ({module: source} of one package) that no module references.

    A reference is a name read in the defining module outside the def
    itself, a `from .module import name`, or `alias.name` for a module
    imported as `from . import module as alias`; the (module, name) pairs in
    `external` count as referenced too.
    """
    defined, referenced = set(), set(external)
    for module, source in sources.items():
        tree = ast.parse(source)
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        referenced.add((node.module, alias.name))
        for statement in tree.body:
            own = None
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                own = statement.name
                defined.add((module, own))
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and node.id != own:
                    referenced.add((module, node.id))
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in aliases):
                    referenced.add((aliases[node.value.id], node.attr))
    return sorted("%s.%s" % pair for pair in defined - referenced)


def test_dead_surface_scan_flags_a_new_unreferenced_def():
    sources = {
        "a": ("def used():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Imported:\n    pass\n"
              "class ByAlias:\n    pass\n"
              "def traced():\n    pass\n"
              "def unused():\n    return used()\n"),
        "b": "from . import a as a_mod\nfrom .a import Imported\nX = a_mod.ByAlias\n",
    }
    assert unreferenced_defs(sources, {("a", "traced")}) == ["a.recursive", "a.unused"]


def test_every_unreferenced_def_has_a_recorded_reason():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_defs(sources, _per_layer_references()) == sorted(UNREFERENCED)


# The one underscore name a module may read from another: the size limit.
SHARED_PRIVATE = ["fock._check_size"]


def private_reads(sources, package="chi2qec"):
    """Sorted "reader: module.name" for every underscore name a module of
    `sources` ({module: source} of one package) reads from another one, by
    `from .module import _name` (or `from package.module import _name`) or
    as `alias._name` for a module imported as `from . import module as
    alias`."""
    out = set()
    for reader, source in sources.items():
        tree = ast.parse(source)
        aliases = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module if node.level == 1 else None
            if node.level == 0 and (node.module or "").startswith(package + "."):
                module = node.module[len(package) + 1:]
            for alias in node.names:
                if node.level == 1 and node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                elif module is not None and alias.name.startswith("_"):
                    out.add((reader, module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and node.attr.startswith("_")):
                out.add((reader, aliases[node.value.id], node.attr))
    return sorted("%s: %s.%s" % read for read in out)


def test_private_read_scan_flags_reads_across_modules():
    sources = {
        "a": "def _own():\n    pass\n_own()\n",
        "b": ("from .a import _own, public\n"
              "from chi2qec.c import _absolute\n"
              "from . import a as a_mod, c\n"
              "x = a_mod._hidden, a_mod.shown, c._z\n"),
        "c": "from .fock import _check_size\nimport os\nos._exit\n",
    }
    assert private_reads(sources) == [
        "b: a._hidden", "b: a._own", "b: c._absolute", "b: c._z", "c: fock._check_size"]


def test_no_module_reads_another_modules_private_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert sorted({read.split(": ")[1] for read in private_reads(sources)}) == SHARED_PRIVATE


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
            "assert gates._generator_matrices.cache_info().currsize == 0\n"
            "assert gates._generator_closed_form.cache_info().currsize == 0" % names)
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
            "from chi2qec import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['report', 'all']) == 1\n"  # the red gate identities
            "    assert cli.main(['kl-check', 'bc', '--N', '5', '--errors', 'xi5']) == 0")
    assert "numpy.ma" not in _numpy_modules_after(code)


def test_the_seeded_draws_load_no_numpy_random():
    # numpy.random and the secrets, hmac and _hashlib modules it imports add
    # about 5 MB to the resident memory of an import of every module; the
    # seeded draws read random.Random instead.
    names = ["chi2qec"] + ["chi2qec." + p.stem for p in MODULES]
    code = ("import contextlib, importlib, io, sys\n"
            "for name in %r: importlib.import_module(name)\n"
            "from chi2qec import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['report', 'all']) == 1\n"  # the red gate identities
            "    assert cli.main(['recover', 'eecc', '--N', '2', '--error', 'a_s']) == 0"
            % names)
    assert len(names) == 10
    assert "numpy.random" not in _numpy_modules_after(code)
