"""Verdict extraction from CLI output, and comparison with the expected file.

The expected-verdict file maps each job (its argv joined by spaces) to the
exit code, the ordered list of `[check name, passed]` pairs and the SHA-256
of its standard output, all recorded from a reference commit by
`record.py`.  A job fails when it raised, exited 2, or its exit code or any
verdict differs from the file; a verdict that turns green fails just like
one that turns red.  A differing output digest is counted separately and is
not a failure.
"""

import hashlib
import json
import re

_FAILING_LIST = re.compile(r"^failing: (.+)$")


def job_key(argv):
    return " ".join(argv)


def job_format(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--format":
            return value
    return "json"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def extract_checks(stdout, fmt):
    """Ordered `[name, passed]` pairs, plus the overall verdict, from one
    job's standard output in the given format.

    A check whose detail is `failing: a, b, ...` (the gate-identity
    criterion of `report all`) also yields `[check/a, False]` per listed
    name, so a change in which identities fail is seen even where the
    check's own verdict stays the same.
    """
    if fmt == "json":
        doc = json.loads(stdout)
        pairs = []
        for r in doc["results"]:
            pairs.append([r["name"], bool(r["passed"])])
            match = _FAILING_LIST.match(str(r.get("detail", "")))
            if match:
                pairs.extend([r["name"] + "/" + name, False]
                             for name in match.group(1).split(", "))
        pairs.append(["overall", bool(doc["passed"])])
        return pairs
    lines = stdout.splitlines()
    if fmt == "csv":
        if not lines or lines[0] != "name,passed,detail":
            return []  # a syndrome table carries no verdicts
        return [[name, passed == "True"]
                for name, passed, _ in (line.split(",", 2) for line in lines[1:])]
    pairs = []
    for line in lines:
        name, verdict = line.split()[:2]
        pairs.append([name.rstrip(":"), verdict == "PASS"])
    return pairs


def compare(result, expected):
    """Return (failure reason or None, output changed) for one job result."""
    key = job_key(result["argv"])
    want = expected.get(key)
    if result["error"] is not None:
        return result["error"], False
    if result["exit"] == 2:
        return "usage error (exit 2): %s" % result["stderr"].strip(), False
    if want is None:
        return "no expected verdict for %r" % key, False
    if result["exit"] != want["exit"]:
        return "exit %s, expected %s" % (result["exit"], want["exit"]), False
    if result["checks"] != want["checks"]:
        got = dict(map(tuple, result["checks"]))
        diff = [name for name, passed in want["checks"] if got.get(name) != passed]
        return "verdicts differ: %s" % (diff or "check list changed"), False
    return None, result["sha256"] != want["sha256"]
