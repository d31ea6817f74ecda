"""No chi2qec command factorizes a matrix.

`gates verify`, the published `recover` pipelines and criterion 7
exponentiate the generators in closed form and invert X_P by its
transpose; the canonical recovery of criterion 6 orthonormalises the error
sectors by pivoted Cholesky in plain numpy.  With every numpy.linalg
factorization made to raise, each of them, `report all` and every job the
benchmark can run prints the same bytes and exits with the same code as it
does unpatched.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

import process_caches
from chi2qec import cli

FACTORIZATIONS = ("eigh", "eig", "eigvalsh", "eigvals", "inv", "solve", "svd", "pinv",
                  "lstsq", "det", "slogdet", "cholesky", "qr")
FORMATS = ("json", "csv", "text")

JOBS = [["--format", fmt, "gates", "verify"] for fmt in FORMATS] + [
    ["recover", code, "--N", n, "--error", error]
    for code, n, errors in (("pcc", "3", ("a_s1", "a_p1")), ("eecc", "2", ("a_s", "a_p")))
    for error in errors
] + [["--format", fmt, "--seed", seed, "report", "all"]
     for seed in ("2026", "2029") for fmt in FORMATS]


def _bench_jobs():
    path = Path(__file__).resolve().parents[1] / "bench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("bench_jobs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Factorized(Exception):
    """Raised in place of a numpy.linalg factorization."""


def _forbid_factorizations(monkeypatch):
    def refuse(name):
        def raiser(*args, **kwargs):
            raise Factorized("numpy.linalg.%s" % name)
        return raiser

    for name in FACTORIZATIONS:
        monkeypatch.setattr(np.linalg, name, refuse(name))
    # Drop every process cache, so the patched run builds all of it anew.
    process_caches.clear()


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("argv", JOBS, ids=" ".join)
def test_job_runs_unchanged_with_every_factorization_refused(argv, monkeypatch):
    want = _run(argv)
    _forbid_factorizations(monkeypatch)
    assert _run(argv) == want


@pytest.mark.parametrize("workload", ["report-all", "kl-scale", "small-checks"])
def test_benchmark_jobs_run_unchanged_with_every_factorization_refused(workload, monkeypatch):
    argvs = _bench_jobs().universe()[workload]
    want = [_run(argv) for argv in argvs]
    _forbid_factorizations(monkeypatch)
    assert [_run(argv) for argv in argvs] == want


def test_criterion_6_runs_unchanged_with_every_factorization_refused(monkeypatch):
    want = cli.criterion_recovery()
    _forbid_factorizations(monkeypatch)
    assert cli.criterion_recovery() == want


def test_criterion_7_runs_unchanged_with_every_factorization_refused(monkeypatch):
    want = cli.criterion_gates()
    _forbid_factorizations(monkeypatch)
    assert cli.criterion_gates() == want
