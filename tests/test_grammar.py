"""Every argv the CLI grammar admits ends in a verdict or a usage error.

Arguments are drawn from the parser's grammar: every subcommand and code,
N <= 6, each error family, flags in and out of range, and the global flags
before and after the subcommand.  `main` must return 0, 1 or 2 without
raising; exit 2 prints nothing to stdout and an `error:` line to stderr;
exit 1 prints a failed row, and exit 0 prints none.
"""

import contextlib
import io
import json
import os
import re

from hypothesis import HealthCheck, given, settings, strategies as st

from chi2qec import cli

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
CONFIG = os.path.join(TESTS_DIR, "data", "text_seed7.cfg")

CODES = ("pcc", "eecc", "bc", "bc2mode")

# Values in range are listed twice, so that more of the drawn argvs reach
# a verdict; the rest must be usage errors.
N = st.sampled_from(["-1", "0", "1"] + 2 * ["2", "3", "4", "5", "6"])
GLOBAL_FLAGS = 2 * [
    ["--tolerance", "1e-9"], ["--tolerance", "1e-3"], ["--tolerance", "1e-30"],
    ["--seed", "0"], ["--seed", "-3"], ["--format", "json"], ["--format", "csv"],
    ["--format", "text"], ["--config", CONFIG],
] + [
    ["--tolerance", "0"], ["--tolerance", "-1"], ["--tolerance", "nan"],
    ["--tolerance", "inf"], ["--seed", "x"], ["--format", "yaml"],
    ["--config", TESTS_DIR], ["--config", os.path.join(TESTS_DIR, "no-such.cfg")],
]


def _flags(pairs, max_size):
    return st.lists(st.sampled_from(pairs), max_size=max_size).map(
        lambda chosen: [x for pair in chosen for x in pair])


GLOBAL = _flags(GLOBAL_FLAGS, 1)

SYNTH = st.tuples(st.sampled_from(CODES), N).map(
    lambda t: ["synth", t[0], "--N", t[1]])

KL_CHECK = st.tuples(
    st.sampled_from(CODES), N,
    st.sampled_from(["xi0", "xi1", "xi2", "xi3", "lowest-order", "ad", "ad",
                     "xi", "xi-1", "xiz", "none"]),
    _flags([["--gamma", v] for v in ("0.01", "0.5", "0", "1", "-0.1", "2", "nan")]
           + [["--order", v] for v in ("-1", "0", "1", "2")], 1),
).map(lambda t: ["kl-check", t[0], "--N", t[1], "--errors", t[2]] + t[3])

SYNDROMES = st.tuples(
    st.sampled_from(CODES), N,
    _flags([["--order", v] for v in ("-1", "0", "1", "2", "7")], 1),
).map(lambda t: ["syndromes", t[0], "--N", t[1]] + t[2])

RECOVER = st.tuples(
    st.sampled_from(("pcc", "eecc", "bc")), st.sampled_from(["2", "3"]),
    st.sampled_from(["none", "a_s", "a_p", "a_s1", "a_p1", "bogus"]),
    _flags([["--trials", v] for v in ("1", "3", "0", "-2")], 1),
).map(lambda t: ["recover", t[0], "--N", t[1], "--error", t[2]] + t[3])

BOUNDS = st.tuples(
    st.sampled_from([[], ["theorems"], ["rotation"], ["loss"], ["bogus"]]),
    st.sampled_from([[], ["--sweep"]]),
    _flags([[flag, v] for flag in ("--n", "--q", "--b", "--k", "--t")
            for v in ("-1", "0", "1", "2", "3", "64")], 2),
).map(lambda t: ["bounds"] + t[0] + t[1] + t[2])

FIXED = st.sampled_from([["gates", "verify"], ["gates", "bogus"], ["report", "all"],
                         ["report"], ["bogus"], []])

# `report all` runs every criterion (about a second), so the fixed commands
# are drawn only as often as one of the parameterized subcommands.
COMMAND = st.one_of(SYNTH, KL_CHECK, KL_CHECK, SYNDROMES, RECOVER, BOUNDS, FIXED)

ARGV = st.tuples(GLOBAL, COMMAND, GLOBAL).map(lambda t: t[0] + t[1] + t[2])


def _rows(stdout, fmt):
    """(name, passed) of each printed check row; a CSV syndrome table has
    none."""
    if fmt == "json":
        return [(r["name"], r["passed"]) for r in json.loads(stdout)["results"]]
    lines = stdout.splitlines()
    if fmt == "csv":
        if not lines or lines[0] != "name,passed,detail":
            return []
        return [(name, passed == "True")
                for name, passed, _ in (line.split(",", 2) for line in lines[1:])]
    assert lines[-1] in ("overall: PASS", "overall: FAIL")
    # A row is "<name padded to 45> PASS|FAIL  <detail>"; names may hold spaces.
    rows = [re.match(r"(.+?) +(PASS|FAIL)(  |$)", line).groups() for line in lines[:-1]]
    return [(name, verdict == "PASS") for name, verdict, _ in rows]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ARGV)
def test_every_argv_ends_in_a_verdict_or_a_usage_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert any("error:" in line for line in err.getvalue().splitlines())
        return
    fmt = cli.resolve_config(cli.build_parser().parse_args(argv)).format
    failed = [name for name, passed in _rows(out.getvalue(), fmt) if not passed]
    if code == 1:
        assert failed
    else:
        assert not failed
