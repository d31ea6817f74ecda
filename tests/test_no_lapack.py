"""The chi(2) gate checks factorize no matrix.

`gates verify`, the published `recover` pipelines and criterion 7
exponentiate the generators in closed form and invert X_P by its
transpose.  With every numpy.linalg factorization made to raise, each
prints the same bytes and exits with the same code as it does unpatched.
"""

import contextlib
import io

import numpy as np
import pytest

from chi2qec import cli, gates

FACTORIZATIONS = ("eigh", "eig", "eigvalsh", "inv", "solve", "svd", "pinv", "lstsq", "det")

JOBS = [["--format", fmt, "gates", "verify"] for fmt in ("json", "csv", "text")] + [
    ["recover", code, "--N", n, "--error", error]
    for code, n, errors in (("pcc", "3", ("a_s1", "a_p1")), ("eecc", "2", ("a_s", "a_p")))
    for error in errors
]


class Factorized(Exception):
    """Raised in place of a numpy.linalg factorization."""


def _forbid_factorizations(monkeypatch):
    def refuse(name):
        def raiser(*args, **kwargs):
            raise Factorized("numpy.linalg.%s" % name)
        return raiser

    for name in FACTORIZATIONS:
        monkeypatch.setattr(np.linalg, name, refuse(name))
    # Drop what gates has cached, so the patched run builds all of it anew.
    for value in vars(gates).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


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


def test_criterion_7_runs_unchanged_with_every_factorization_refused(monkeypatch):
    want = cli.criterion_gates()
    _forbid_factorizations(monkeypatch)
    assert cli.criterion_gates() == want
