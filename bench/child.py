"""Child interpreter of the benchmark: one pass in a fresh process.

Reads one JSON request on stdin:

    {"src": <directory holding the chi2qec package>,
     "jobs": [argv, ...],
     "probe_interval_s": <seconds between speed probes, or null for none>,
     "spans": <path to write spans to, or null for an untraced pass>}

It imports chi2qec and its eight submodules (numpy and scipy come with
them) and times that as `setup_s`.  With `spans` set it then installs the
tracer.  It runs the jobs one at a time through `cli.main`, each with its
standard output captured, and writes one JSON object to standard output:
setup time, the pass's wall and CPU time summed over the jobs, peak
resident memory, the environment, and per job its exit code, any
exception, the verdicts read from its output and the output's digest.
A SpeedProbe runs while it imports and while it runs the jobs; the output
holds each phase's probe summary.
"""

import contextlib
import ctypes
import importlib
import io
import json
import os
import platform
import resource
import signal
import sys
import time
import traceback

import verdicts

SUBMODULES = ("bounds", "cli", "codes", "errors", "fock", "gates", "symmetry",
              "syndromes")


class SpeedProbe:
    """Measures how fast the machine runs Python code now.

    While the context is open, a SIGALRM handler runs every `interval_s` of
    wall time (never, if `interval_s` is None).  It scans a buffer larger
    than the L2 cache, untimed, so that every probe starts from the same
    cache state whatever the program left there.  Then it times LOOKUPS
    dict lookups of tuple keys in scattered order, the kind of work chi2qec
    spends most of its time on, and appends that time to `samples`.
    `spent_s` is the handler's whole time, to be taken off the program's
    time.  The loop allocates no containers, so it never starts a garbage
    collection of the program's objects, and it holds the interpreter lock
    throughout, so a job running in another thread (`report all` runs its
    criteria in a thread pool) waits for it instead of running alongside.
    Matrix operations would release the lock and let the probe's time
    depend on that thread.
    """

    TABLE_SIZE = 1 << 15
    LOOKUPS = 1000
    EVICT_BYTES = 4 << 20

    def __init__(self, interval_s):
        keys = [(i, i ^ 0x5A5A) for i in range(self.TABLE_SIZE)]
        self._table = dict.fromkeys(keys, 3)
        self._keys = [keys[j * 40503 % self.TABLE_SIZE] for j in range(self.LOOKUPS)]
        self._evict = bytearray(self.EVICT_BYTES)
        self.interval_s = interval_s
        self.samples = []
        self.spent_s = 0.0

    def measure(self):
        start = time.perf_counter()
        self._evict.find(b"\1")
        timed = time.perf_counter()
        table, total = self._table, 0
        for key in self._keys:
            total += table[key] * key[0] % 7
        end = time.perf_counter()
        self.samples.append(end - timed)
        self.spent_s += end - start

    def summary(self):
        """Mean probe time (None without samples), sample count, time spent."""
        mean = sum(self.samples) / len(self.samples) if self.samples else None
        return {"probe_s": mean, "probes": len(self.samples), "probe_spent_s": self.spent_s}

    def __enter__(self):
        self.samples, self.spent_s = [], 0.0
        if self.interval_s:
            self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.measure())
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        if self.interval_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


def blas_threads():
    """Thread count reported by the OpenBLAS this process loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment():
    import numpy
    import scipy

    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "CHI2QEC_THREADS")},
    }


def run_job(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as exc:  # a job that raises is a failed job, not a failed pass
        error = "raised " + traceback.format_exception_only(type(exc), exc)[-1].strip()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    stdout = out.getvalue()
    checks = None
    if code in (0, 1):
        try:
            checks = verdicts.extract_checks(stdout, verdicts.job_format(argv))
        except (ValueError, KeyError, TypeError) as exc:
            error = "unparsable output: %r" % exc
    return {"argv": argv, "exit": code, "error": error, "checks": checks,
            "sha256": verdicts.digest(stdout), "stderr": err.getvalue()[-500:],
            "wall_s": wall, "cpu_s": cpu}


def main():
    request = json.load(sys.stdin)
    src = os.path.abspath(request["src"])
    sys.path.insert(0, src)
    probe = SpeedProbe(request["probe_interval_s"])
    with probe:
        start = time.perf_counter()
        package = importlib.import_module("chi2qec")
        modules = [importlib.import_module("chi2qec." + name) for name in SUBMODULES]
        setup_s = time.perf_counter() - start
    setup_probe = probe.summary()
    if not os.path.abspath(package.__file__).startswith(src + os.sep):
        raise SystemExit("chi2qec was imported from %s, not %s" % (package.__file__, src))

    tracer = None
    if request["spans"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, modules)
    cli = sys.modules["chi2qec.cli"]
    with probe:
        results = [run_job(cli, argv) for argv in request["jobs"]]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(request["spans"])
    json.dump({
        "setup_s": setup_s,
        "setup_probe": setup_probe,
        "probe": probe.summary(),
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
        "results": results,
    }, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
