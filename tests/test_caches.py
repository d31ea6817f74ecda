"""Codes, bases, error sets and the other fixed structures a verdict
reads (synthesis operator sets, BC symmetry factors, theorem 4's grid, the
CZ phases, recovery pipelines) are built once per process and shared.

`fock.shared` is the one place `src/` makes a process cache, each use of
it and each `cached_property` is on the allow-list of `process_caches`,
whose `clear` empties them all, and every cache holder is a plain
function.  A job prints the same bytes whether its objects are built anew
or shared, every check still runs on a shared object, a mutant gets its
own verdict, and a shared object cannot be edited: every array a cache
holds is read-only.
"""

import ast
import contextlib
import dataclasses
import gc
import inspect
import io
import json
import pathlib
import types

import numpy as np
import pytest

import process_caches
from chi2qec import bounds, cli, fock, gates, syndromes
from chi2qec import errors as errors_mod
from chi2qec.codes import build, build_bc, build_eecc, build_pcc, build_two_mode_bc
from chi2qec.errors import ad_product_set, kl_check, lowest_order_loss_kraus, xi_set
from chi2qec.fock import enumerate_irreducible_subspace
from chi2qec.symmetry import bc_symmetry_operator

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "chi2qec"
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
JOBS = sorted(json.loads((BENCH / "expected.json").read_text())["jobs"])

_FUNCTOOLS_CACHES = {"cache", "lru_cache"}
_CACHE_FACTORIES = _FUNCTOOLS_CACHES | {"cached_property", "shared"}


class _CacheSites(ast.NodeVisitor):
    """Names "<module>.<scope>" each place that mentions a cache factory
    (`functools`' or `fock.shared`): a decorator counts for the definition
    it decorates, and a module-level assignment for its target."""

    def __init__(self, module, factories=_CACHE_FACTORIES):
        self.scope, self.found, self.factories = [module], [], factories

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
        if isinstance(node.value, ast.Name) and node.value.id in ("functools", "fock") \
                and node.attr in self.factories:
            self.found.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id in self.factories:
            self.found.append(".".join(self.scope))


def _cache_sites(factories=_CACHE_FACTORIES):
    found = []
    for path in sorted(SRC.glob("*.py")):
        sites = _CacheSites(path.stem, factories)
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


def test_only_the_helper_makes_a_functools_cache():
    assert _cache_sites(_FUNCTOOLS_CACHES) == ["fock.shared"]


def test_every_cache_holder_is_a_plain_function():
    # A plain function is what the benchmark's span tracer wraps.
    holders = process_caches.holders()
    assert {"bounds.corrupted_dimension", "schema.report_schema"} <= set(holders)
    assert [name for name, value in holders.items() if not inspect.isfunction(value)] == []


def test_the_scan_finds_each_kind_of_cache():
    source = ("import functools\n"
              "from functools import lru_cache\n"
              "from . import fock\n"
              "from .fock import shared\n"
              "class A:\n"
              "    @functools.cached_property\n"
              "    def b(self): pass\n"
              "@lru_cache(maxsize=None)\n"
              "def c(): pass\n"
              "def d(f):\n"
              "    return functools.cache(f)\n"
              "e = functools.cache(d)\n"
              "@shared\n"
              "def f(): pass\n"
              "g = fock.shared(f)\n")
    sites = _CacheSites("m")
    sites.visit(ast.parse(source))
    assert sites.found == ["m.A.b", "m.c", "m.d", "m.e", "m.f", "m.g"]
    sites = _CacheSites("m", _FUNCTOOLS_CACHES)
    sites.visit(ast.parse(source))
    assert sites.found == ["m.c", "m.d", "m.e"]


def test_clear_empties_every_cache_the_allow_list_names():
    _run(["report", "all"])
    _run(["synth", "bc", "--N", "2"])  # report all reads no BC symmetry factors
    holders = process_caches.holders()
    named = {h for names, _ in process_caches.ALLOWED.values() for h in names}
    assert set(holders) == named
    assert [h for h in named if not holders[h].cache_info().currsize] == []  # the two fill each
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


def _synth_rows(monkeypatch, spec, code, N):
    """The JSON result rows of `synth <code> --N <N>` on `spec`."""
    monkeypatch.setattr(cli, "build", lambda name, n: spec)
    status, out, _ = _run(["synth", code, "--N", str(N)])
    monkeypatch.undo()
    return status, json.loads(out)["results"]


def _bc3_mutants(spec):
    zero, one = spec.weights
    # |2,2,3>'s weight moved onto |1,1,4>, and |0,0,5> traded with |1,1,4>.
    moved = [{k: w for k, w in zero.items() if k != (2, 2, 3)},
             {**one, (1, 1, 4): one[(1, 1, 4)] + zero[(2, 2, 3)]}]
    traded = [{**{k: w for k, w in zero.items() if k != (0, 0, 5)}, (1, 1, 4): zero[(0, 0, 5)]},
              {**{k: w for k, w in one.items() if k != (1, 1, 4)}, (0, 0, 5): one[(1, 1, 4)]}]
    return [("orthonormal codewords", dataclasses.replace(spec, weights=moved)),
            ("Pi_s|k~> = (-1)^k |k~>", dataclasses.replace(spec, weights=traded))]


def _pcc3_flipped(spec):
    quartet = {(a, a, 2 - a, b, b, 2 - b): 1 for a, b in ((2, 1), (1, 2), (0, 1), (1, 0))}
    return dataclasses.replace(spec, denominator=4, weights=[quartet] + [
        {k: 2 * w for k, w in word.items()} for word in spec.weights[1:]])


def test_a_mutant_of_a_cached_spec_gets_its_own_synthesis_verdict(monkeypatch):
    bc, pcc = build_bc(3), build_pcc(3)
    exact = _run(["synth", "bc", "--N", "3"])
    assert exact[0] == 0 and _run(["synth", "pcc", "--N", "3"])[0] == 0
    cases = [(mutant, "bc", "S w = w unproven; fails " + fact) for fact, mutant in _bc3_mutants(bc)]
    cases.append((_pcc3_flipped(pcc), "pcc",
                  "Pi_s1 Pi_s2 does not fix codeword 0; dim 3 = L 3"))
    for mutant, code, detail in cases:
        status, (words, check) = _synth_rows(monkeypatch, mutant, code, 3)
        assert status == 1 and words["detail"] == mutant.to_json() != build(code, 3).to_json()
        assert check == {"name": "synthesis_%s_N3" % code, "passed": False, "detail": detail}
    assert _run(["synth", "bc", "--N", "3"]) == exact


def test_one_recover_job_lists_the_lowered_basis_once(monkeypatch):
    calls, closure = [], fock.shift_closure
    for module in (fock, syndromes):
        monkeypatch.setattr(module, "shift_closure",
                            lambda kets, shifts: calls.append(1) or closure(kets, shifts))
    argv = ["recover", "eecc", "--N", "2", "--error", "a_s", "--trials", "10"]
    process_caches.clear()
    first = _run(argv)
    assert first[0] == 0 and len(calls) == 1
    assert _run(argv) == first and len(calls) == 1  # the pipeline is shared


def test_every_damping_order_shares_one_down_closed_basis(monkeypatch):
    built, init = [], fock.BasisIndex.__init__
    monkeypatch.setattr(fock.BasisIndex, "__init__",
                        lambda self, states: init(self, states) or built.append(self.states))
    process_caches.clear()
    status = _run(["kl-check", "bc2mode", "--N", "2", "--errors", "ad", "--order", "3"])[0]
    assert status == 1  # the joint damping set fails KL, as documented
    down_closed = errors_mod._damping_basis(build_two_mode_bc(2)).states
    assert len(down_closed) == 10 and built.count(down_closed) == 1


def test_each_call_returns_a_new_list_of_the_shared_operators():
    spec = build_pcc(2)
    for make in (lambda: xi_set(1, spec), lambda: lowest_order_loss_kraus(0.01, spec),
                 lambda: ad_product_set(0.01, 1, spec)):
        first, second = make(), make()
        assert first is not second
        assert all(a is b for a, b in zip(first, second, strict=True))


def _cannot_write(*arrays):
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = array[(0,) * array.ndim]


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
    basis = fock.enumerate_truncated_space(fock.two_mode_layout(2))
    rows, coeffs = np.arange(basis.dimension), np.ones(basis.dimension, dtype=complex)
    for op in (fock.ladder(0, "lower", basis), fock.LinearOperator(basis, rows, coeffs)):
        _cannot_write(op.rows, op.coeffs)  # built outside any cache, read-only by its type
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.coeffs = coeffs
    assert rows.flags.writeable and coeffs.flags.writeable  # the operator holds its own copies
    ops = cli.pcc_operator_set(3)[1] + cli.eecc_operator_set(2)[1]
    factors = bc_symmetry_operator(build_bc(2))
    for op in ops + (factors.parity, factors.inversion):
        _cannot_write(op.rows, op.phases)
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.modulus = 1
    with pytest.raises(AttributeError):
        cli.pcc_operator_set(3)[1].append(ops[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        factors.denominator = 1
    with pytest.raises(TypeError):
        factors.codewords[0][0] = 1
    pipeline = syndromes._recovery_pipeline(build_eecc(2), "a_s")
    with pytest.raises(dataclasses.FrozenInstanceError):
        pipeline.gates = ()
    _cannot_write(bounds.min_n_grid(), gates._cz_phases(), pipeline.rows,
                  pipeline.lower.rows, pipeline.lower.coeffs,
                  pipeline.restore.rows, pipeline.restore.coeffs, *pipeline.gates)


def test_a_shared_spec_hands_out_read_only_codewords():
    states = build_pcc(2).logical_states
    assert type(states) is tuple and build_pcc(2).logical_states is states
    for psi in states:
        _cannot_write(psi.amplitudes)
        with pytest.raises(dataclasses.FrozenInstanceError):
            psi.amplitudes = psi.amplitudes.copy()
    assert [len(psi.support()) for psi in states] == [2, 2]


def _cached_values(holder):
    """What an unbounded functools cache holds: functools gives no handle on
    its dict, so it is found among the objects the wrapper refers to."""
    wrapper = holder.cache_clear.__self__
    assert wrapper.cache_parameters()["maxsize"] is None
    caches = [r for r in gc.get_referents(wrapper) if type(r) is dict and r is not wrapper.__dict__]
    assert len(caches) == 1
    return list(caches[0].values())


def _arrays(value, seen):
    """Every ndarray reached from `value` through tuples, lists, mappings
    and the attributes of chi2qec objects."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
        return
    if isinstance(value, (dict, types.MappingProxyType)):
        value = list(value.values())
    elif type(value).__module__.startswith("chi2qec."):
        value = list(getattr(value, "__dict__", {}).values())
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item, seen)


def test_every_array_a_cache_holds_is_read_only():
    process_caches.clear()
    for job in JOBS:  # every job of `jobs.universe()`, `report all` at each seed among them
        _run(job.split())
    seen, writable, reached = set(), [], 0
    holders = process_caches.holders()
    for names, _ in process_caches.ALLOWED.values():
        for name in names:
            for value in _cached_values(holders[name]):
                for array in _arrays(value, seen):
                    reached += 1
                    if array.flags.writeable:
                        writable.append((name, array.shape))
    assert reached > 100 and writable == []


def test_the_walk_reaches_the_arrays_inside_a_cached_error_set():
    ops = errors_mod._xi_operators(1, build_pcc(2))
    assert any(value is ops for value in _cached_values(errors_mod._xi_operators))
    found = [id(array) for array in _arrays(ops, set())]
    assert id(ops[1].operator.coeffs) in found
    assert id(ops[1].operator.domain.occupations) in found


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
