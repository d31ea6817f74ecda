"""Job lists of the benchmark workloads.

A job is the argv of one `chi2qec` CLI call.  Every workload is a closed
loop with one client: the child interpreter runs a pass's jobs one at a
time, each after the previous one returned.  The benchmark seed fixes the
order of the jobs, their output formats and the `--seed` given to
`report all`; the program sees only the resulting argv lists.
"""

import random

FORMATS = ("json", "csv", "text")

# `report all` receives one of these seeds.  The pool is finite so that the
# expected-verdict file can hold the exact output digest of every job the
# benchmark can generate.
REPORT_SEEDS = tuple(range(2026, 2034))

# Big enclosing product spaces with tiny codeword support: the operator
# algebra in `fock` and `errors` does nearly all of the work.  PCC corrects
# single errors only, so its xi2 checks are expected to FAIL.
KL_SCALE = (
    [["kl-check", "pcc", "--N", str(n), "--errors", "xi1"] for n in (2, 3, 4)]
    + [["kl-check", "pcc", "--N", str(n), "--errors", "xi2"] for n in (3, 4)]
    + [["kl-check", "bc", "--N", str(n), "--errors", "xi%d" % n] for n in range(2, 6)]
    + [["kl-check", "eecc", "--N", str(n), "--errors", "xi1"] for n in (2, 3, 4)]
    + [["kl-check", "eecc", "--N", str(n), "--errors", "xi2"] for n in (3, 4)]
)

# Cheap jobs where per-job fixed cost, symmetry synthesis, gates, bounds and
# output rendering dominate.  `synth pcc --N >= 4` stays out: its correct
# verdict is still open.  `gates verify` and `kl-check bc2mode ... ad` are
# expected to FAIL.
SMALL_CYCLE = (
    [["synth", "pcc", "--N", str(n)] for n in (2, 3)]
    + [["synth", "eecc", "--N", str(n)] for n in range(2, 7)]
    + [["synth", "bc", "--N", str(n)] for n in range(1, 7)]
    + [["synth", "bc2mode", "--N", "2"]]
    + [["syndromes", code, "--N", str(n)]
       for code, n in (("pcc", 3), ("eecc", 2), ("bc", 2), ("bc", 3))]
    + [["gates", "verify"],
       ["bounds", "theorems"],
       ["bounds", "rotation", "--sweep"],
       ["bounds", "loss", "--n", "2", "--q", "3", "--b", "3"],
       ["bounds", "rotation", "--n", "5", "--q", "2", "--b", "2"]]
    + [["kl-check", "eecc", "--N", str(n), "--errors", "xi1"] for n in (2, 3)]
    + [["kl-check", code, "--N", str(n), "--errors", "lowest-order"]
       for code, n in (("pcc", 2), ("pcc", 3), ("eecc", 2), ("eecc", 3))]
    + [["kl-check", "bc2mode", "--N", "2", "--errors", "ad", "--order", "3"],
       ["recover", "eecc", "--N", "2", "--error", "a_s", "--trials", "10"]]
)
SMALL_CYCLES_PER_PASS = 10


def report_all(seed):
    return [["--seed", str(REPORT_SEEDS[seed % len(REPORT_SEEDS)]), "report", "all"]]


def kl_scale(seed):
    jobs = [list(argv) for argv in KL_SCALE]
    random.Random(seed).shuffle(jobs)
    return jobs


def small_checks(seed):
    rng = random.Random(seed)
    jobs = []
    for cycle in range(SMALL_CYCLES_PER_PASS):
        order = list(range(len(SMALL_CYCLE)))
        rng.shuffle(order)
        for i in order:
            fmt = FORMATS[(i + cycle + seed) % len(FORMATS)]
            jobs.append(["--format", fmt] + SMALL_CYCLE[i])
    return jobs


WORKLOADS = {
    "report-all": report_all,
    "kl-scale": kl_scale,
    "small-checks": small_checks,
}


def universe():
    """Every distinct job any workload can generate, grouped by workload."""
    return {
        "report-all": [report_all(s)[0] for s in range(len(REPORT_SEEDS))],
        "kl-scale": [list(argv) for argv in KL_SCALE],
        "small-checks": [["--format", fmt] + argv
                         for argv in SMALL_CYCLE for fmt in FORMATS],
    }
