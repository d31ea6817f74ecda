"""Every benchmark job still prints what `bench/expected.json` recorded.

Each job runs through `cli.main` with its standard output captured, as the
benchmark's child interpreter runs it, and its exit code, its
`[check, passed]` list and the SHA-256 of its output are compared with the
recorded ones.  The file is only read.
"""

import contextlib
import importlib.util
import io
import json
import pathlib

import pytest

from chi2qec import cli

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# Their alpha values moved in the last digits when the operators moved onto
# the codewords' closure bases; verdicts and exit codes are unchanged, and
# the digests are re-recorded with the next change to the benchmark.
STALE_DIGESTS = {
    "kl-check pcc --N 4 --errors xi1",
    "kl-check pcc --N 4 --errors xi2",
    "kl-check bc --N 3 --errors xi3",
    "kl-check bc --N 4 --errors xi4",
    "kl-check bc --N 5 --errors xi5",
    "kl-check eecc --N 4 --errors xi1",
    "kl-check eecc --N 4 --errors xi2",
}


def _load_verdicts():
    spec = importlib.util.spec_from_file_location("bench_verdicts", BENCH / "verdicts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


verdicts = _load_verdicts()
EXPECTED = json.loads((BENCH / "expected.json").read_text())["jobs"]


def test_stale_digests_are_recorded_jobs():
    assert STALE_DIGESTS <= set(EXPECTED)


@pytest.mark.parametrize("job", sorted(EXPECTED))
def test_job_output_matches_the_record(job):
    argv = job.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    want = EXPECTED[job]
    stdout = out.getvalue()
    assert code == want["exit"]
    assert verdicts.extract_checks(stdout, verdicts.job_format(argv)) == want["checks"]
    if job not in STALE_DIGESTS:
        assert verdicts.digest(stdout) == want["sha256"]
