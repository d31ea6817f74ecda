"""Codes, bases and error sets are built once per process and shared.

Every cache in `src/` is on the allow-list of `process_caches`, whose
`clear` empties them all.  A job prints the same bytes whether its objects
are built anew or shared, every check still runs on a shared object, and a
shared object cannot be edited.
"""

import ast
import contextlib
import dataclasses
import io
import json
import pathlib

import pytest

import process_caches
from chi2qec import cli, fock
from chi2qec.codes import build, build_bc, build_pcc, build_two_mode_bc
from chi2qec.errors import ad_product_set, kl_check, lowest_order_loss_kraus, xi_set
from chi2qec.fock import enumerate_irreducible_subspace

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "chi2qec"
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
JOBS = sorted(json.loads((BENCH / "expected.json").read_text())["jobs"])

_CACHE_FACTORIES = {"cache", "lru_cache", "cached_property"}


class _CacheSites(ast.NodeVisitor):
    """Names "<module>.<scope>" each place that mentions a functools cache
    factory: a decorator counts for the definition it decorates, and a
    module-level assignment for its target."""

    def __init__(self, module):
        self.scope, self.found = [module], []

    def _enter(self, name, node):
        self.scope.append(name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        self._enter(node.name, node)

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Assign(self, node):
        if len(self.scope) == 1 and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            self._enter(node.targets[0].id, node)
        else:
            self.generic_visit(node)

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id == "functools" \
                and node.attr in _CACHE_FACTORIES:
            self.found.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id in _CACHE_FACTORIES:
            self.found.append(".".join(self.scope))


def _cache_sites():
    found = []
    for path in sorted(SRC.glob("*.py")):
        sites = _CacheSites(path.stem)
        sites.visit(ast.parse(path.read_text()))
        found += sites.found
    return found


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_every_cache_in_src_is_on_the_allow_list():
    assert sorted(_cache_sites()) == sorted(process_caches.ALLOWED)
    assert all(reason for _, reason in process_caches.ALLOWED.values())


def test_the_scan_finds_each_kind_of_cache():
    source = ("import functools\n"
              "from functools import lru_cache\n"
              "class A:\n"
              "    @functools.cached_property\n"
              "    def b(self): pass\n"
              "@lru_cache(maxsize=None)\n"
              "def c(): pass\n"
              "def d(f):\n"
              "    return functools.cache(f)\n"
              "e = functools.cache(d)\n")
    sites = _CacheSites("m")
    sites.visit(ast.parse(source))
    assert sites.found == ["m.A.b", "m.c", "m.d", "m.e"]


def test_clear_empties_every_cache_the_allow_list_names():
    _run(["report", "all"])
    holders = process_caches.holders()
    named = {h for names, _ in process_caches.ALLOWED.values() for h in names}
    assert set(holders) == named
    assert all(holders[h].cache_info().currsize for h in named)  # report all fills each
    process_caches.clear()
    assert [h for h in named if holders[h].cache_info().currsize] == []


@pytest.mark.parametrize("job", JOBS)
def test_a_job_prints_the_same_on_shared_and_on_new_objects(job):
    argv = job.split()
    first = _run(argv)
    assert _run(argv) == first
    process_caches.clear()
    assert _run(argv) == first


def test_each_builder_returns_one_spec_per_N():
    spec = build_bc(2)
    assert build_bc(2) is spec and build("BC", 2) is spec
    assert build_pcc(3) is build("pcc", 3) and build_two_mode_bc(2) is build("bc2mode", 2)
    mutant = dataclasses.replace(spec, weights=[{(0, 0, 3): 2, (2, 2, 1): 2}, spec.weights[1]])
    assert build_bc(2) is spec and mutant is not spec
    assert enumerate_irreducible_subspace(2, groups=2) is enumerate_irreducible_subspace(2, 2)
    process_caches.clear()
    assert build_bc(2) is not spec and build_bc(2) == spec


def test_a_weights_mutant_gets_its_own_error_set():
    spec = build_bc(2)
    assert kl_check(spec, xi_set(2, spec)).verdict
    # Same support, other weights: the zero codeword is no longer binomial.
    mutant = dataclasses.replace(spec, weights=[{(0, 0, 3): 2, (2, 2, 1): 2}, spec.weights[1]])
    report = kl_check(mutant, xi_set(2, mutant))
    assert not report.verdict
    assert report.max_distortion_residual == pytest.approx(1.75)
    assert kl_check(spec, xi_set(2, spec)).verdict


def test_each_call_returns_a_new_list_of_the_shared_operators():
    spec = build_pcc(2)
    for make in (lambda: xi_set(1, spec), lambda: lowest_order_loss_kraus(0.01, spec),
                 lambda: ad_product_set(0.01, 1, spec)):
        first, second = make(), make()
        assert first is not second
        assert all(a is b for a, b in zip(first, second, strict=True))


def test_shared_objects_cannot_be_edited():
    spec = build_pcc(3)
    with pytest.raises(TypeError):
        spec.parameters["N"] = 4
    with pytest.raises(TypeError):
        spec.weights[0][(1, 1, 1, 1, 1, 1)] = 2
    errors = xi_set(1, spec) + lowest_order_loss_kraus(0.01, spec) + ad_product_set(0.01, 1, spec)
    for e in errors:
        for array in (e.operator.rows, e.operator.coeffs):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.label = "E"
    with pytest.raises(ValueError, match="read-only"):
        enumerate_irreducible_subspace(2).occupations[0, 0] = 1


@pytest.mark.parametrize("argv,limit,message", [
    (["kl-check", "pcc", "--N", "3", "--errors", "xi2"], 10,
     "error: xi_2 on PCC would stack 31605 image entries, over the limit of 10\n"),
    (["kl-check", "bc2mode", "--N", "2", "--errors", "ad", "--order", "2"], 10,
     "error: order-0 damping on BC2mode would stack 40 image entries, over the limit of 10\n"),
], ids=["xi2", "ad"])
def test_a_cached_error_set_is_still_size_checked(monkeypatch, argv, limit, message):
    assert _run(argv)[0] in (0, 1)
    monkeypatch.setattr(fock, "_MAX_TRUNCATED_DIM", limit)
    assert _run(argv) == (2, "", message)


def test_a_cached_loss_family_still_checks_gamma():
    argv = ["kl-check", "pcc", "--N", "2", "--errors", "lowest-order", "--gamma"]
    assert _run(argv + ["0.2"])[0] == 0
    code, out, err = _run(argv + ["0.25"])
    assert (code, out) == (2, "")
    assert err.startswith("error: gamma must satisfy 0 <= gamma < 1/4")
    with pytest.raises(ValueError, match="gamma must satisfy 0 <= gamma < 1"):
        ad_product_set(1.0, 1, build_pcc(2))
