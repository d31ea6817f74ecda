"""The package surface the benchmark reads from outside: the span tracer's
work counters and the functions BENCHMARK.json's per-layer metrics name.

A deletion that breaks them would pass every other test here and fail only
a traced benchmark run or the benchmark's own suite.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

from chi2qec import cli
from chi2qec.codes import build_pcc
from chi2qec.errors import kl_check, xi_set
from chi2qec.symmetry import joint_unity_eigenspace

ROOT = Path(__file__).resolve().parents[1]
# Per-layer metrics the benchmark computes itself rather than from a span.
NOT_SPANS = {"cli.output_bytes_changed", "trace.overhead_s", "process.cpu_s"}


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_a_kl_check_and_a_commutation_stack():
    # They read CodeSpec.logical_states with StateVector.support,
    # LinearOperator.matrix and SymmetryOperator.operator.
    counters = _tracer().COUNTERS
    code = build_pcc(2)
    errors = xi_set(1, code)
    counts = counters["errors.kl_check"]((code, errors), {}, kl_check(code, errors))
    # 13 operators on the 40-ket xi_1 basis, two codewords; every ket is
    # some error's image of a codeword ket.
    assert counts == {"basis_states": 40, "gram_cols": 26, "touched_states": 40}
    ops = cli.pcc_operator_set(3)[1]
    rows = counters["symmetry.joint_unity_eigenspace"]((ops,), {}, joint_unity_eigenspace(ops))
    assert rows == {"stacked_rows": 7 * 9}


def test_every_per_layer_metric_names_a_package_function():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in spec["per_layer"] if metric["name"] not in NOT_SPANS]
    assert "fock.apply.calls" in names and "fock.embed.calls" in names
    for name in names:
        module, function, _ = name.split(".")
        assert inspect.isfunction(
            getattr(importlib.import_module("chi2qec." + module), function, None)), name
