"""chi2qec benchmark: time to verified verdicts, end to end and per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see jobs.py) are lists of CLI
jobs.  A pass runs one workload's jobs one at a time through
`chi2qec.cli.main` in a fresh child interpreter (child.py), and every job's
exit code and verdicts are checked against bench/expected.json.

`--trace 0` first starts SETUP_SAMPLES children that only import chi2qec,
then runs as many passes as fill about S seconds (at least one) and reports
medians over them:

    wall_s       wall time of a pass's jobs, after import, at the reference
                 speed (below)
    setup_s      time for a fresh interpreter to import chi2qec and its
                 submodules, numpy and scipy included, at the reference
                 speed; every child, pass or import-only, gives a sample
    peak_rss_mb  peak resident memory of the child; it includes the speed
                 probe's table and buffer, about 10 MB

The machine these figures come from is a few cores of a shared host whose
speed for the same code drifts by a factor of up to 1.5 within minutes.
So each child runs a speed probe (child.SpeedProbe) every PROBE_INTERVAL_S
of wall time while it imports and while it runs jobs: a fixed loop of
dict lookups whose time follows the machine's current speed.  A time at
the reference speed is the measured time, less the probe's own time,
times PROBE_REF_S over the probe's mean time in that child and phase: the
time the same work takes when the probe takes PROBE_REF_S.  The unscaled
medians (wall, process CPU of all threads, set-up) and the probe's median
are printed on the `raw medians` line and kept in .bench_out/.  Every child runs with PYTHONHASHSEED=0, so
string hashing, and with it the layout of dicts and sets, is the same in
every pass.

`--trace 1` runs one untraced and one traced pass, without the probe.  The
traced pass wraps every public function of chi2qec's modules (tracer.py)
and writes its spans to .bench_out/; the per-layer metrics listed in
BENCHMARK.json are read from them.  Names are `<module>.<function>.<field>`
with field `calls`, `self_s` (inclusive time minus child spans), `s`
(inclusive time) or a work count; `trace.overhead_s` is traced minus
untraced wall time, `process.cpu_s` is the untraced pass's process CPU
time (user + sys, all threads, BLAS threads included), and
`cli.output_bytes_changed` counts jobs whose output differs byte for byte
from the recorded one.

The last line of standard output is one JSON object with `correct`,
`attempted` (jobs run), `failed` (jobs whose verdict differs from the
expected file, that raised or that exited 2) and `metrics`.  The run's
environment, per-pass figures and failures also go to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import tracer
import verdicts

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 0.001


def run_child(job_list, spans=None, timeout=CHILD_TIMEOUT_S, probe_interval_s=None):
    """Run one pass of `job_list` in a fresh interpreter and return its report."""
    env = dict(os.environ)
    env.pop("CHI2QEC_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    request = {"src": str(SRC), "jobs": job_list, "probe_interval_s": probe_interval_s,
               "spans": str(spans) if spans else None}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py")], input=json.dumps(request),
        capture_output=True, text=True, timeout=timeout, cwd=ROOT, env=env)
    if proc.returncode != 0:
        raise RuntimeError("child exited %d: %s"
                           % (proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.splitlines()[-1])


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, child_env):
    return dict(child_env,
                nproc=os.cpu_count(),
                affinity=len(os.sched_getaffinity(0)),
                cpu=cpu_model(),
                commit=commit(),
                src_sha256=source_digest(),
                workload=args.workload,
                seed=args.seed,
                CHI2QEC_THREADS=os.environ.get("CHI2QEC_THREADS"))


def at_reference_speed(seconds, probe):
    """`seconds` of program time, less the probe's own time, scaled to the
    speed at which a probe takes PROBE_REF_S."""
    return (seconds - probe["probe_spent_s"]) * PROBE_REF_S / probe["probe_s"]


def timed_run(job_list, seconds):
    setup = [run_child([], probe_interval_s=PROBE_INTERVAL_S)
             for _ in range(SETUP_SAMPLES)]
    start = time.perf_counter()
    passes = [run_child(job_list, probe_interval_s=PROBE_INTERVAL_S)]
    count = max(1, round(seconds / (time.perf_counter() - start)))
    passes += [run_child(job_list, probe_interval_s=PROBE_INTERVAL_S)
               for _ in range(count - 1)]
    for p in passes:
        p["wall_ref_s"] = at_reference_speed(p["wall_s"], p["probe"])
    # Every child imports chi2qec, so each one gives a set-up sample.
    children = setup + passes
    metrics = {
        "wall_s": statistics.median(p["wall_ref_s"] for p in passes),
        "setup_s": statistics.median(at_reference_speed(c["setup_s"], c["setup_probe"])
                                     for c in children),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    raw = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "probe_s": statistics.median(p["probe"]["probe_s"] for p in passes),
    }
    return passes, metrics, {"raw": raw,
                             "setup": [{k: c[k] for k in ("setup_s", "setup_probe")}
                                       for c in children]}


def traced_run(job_list, names, spans_path):
    plain = run_child(job_list)
    traced = run_child(job_list, spans=spans_path)
    summary = tracer.summarize(tracer.load(spans_path))
    metrics = {"trace.overhead_s": traced["wall_s"] - plain["wall_s"],
               "process.cpu_s": plain["cpu_s"]}
    for name in names:
        if name not in metrics and name != "cli.output_bytes_changed":
            function, field = name.rsplit(".", 1)
            metrics[name] = summary.get(function, {}).get(field, 0)
    return [plain, traced], metrics, {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, raise SystemExit so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "chi2qec" / "__init__.py").is_file():
        print("error: chi2qec sources not found under %s" % SRC, file=sys.stderr)
        return 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    expected = json.loads((BENCH / "expected.json").read_text())["jobs"]
    job_list = jobs.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        passes, metrics, extra = traced_run(job_list, units, OUT / ("spans-%s.jsonl" % tag))
    else:
        passes, metrics, extra = timed_run(job_list, args.seconds)

    failures, changed = [], 0
    for result in (r for p in passes for r in p["results"]):
        reason, differs = verdicts.compare(result, expected)
        if reason:
            failures.append({"job": verdicts.job_key(result["argv"]), "reason": reason})
        changed += differs
    if args.trace:
        metrics["cli.output_bytes_changed"] = changed
    attempted = sum(len(p["results"]) for p in passes)
    env = environment(args, passes[0]["env"])

    record = {"env": env, "metrics": metrics, "jobs": attempted,
              "jobs_failed": len(failures), "output_bytes_changed": changed,
              "failures": failures, **extra,
              "passes": [{k: p.get(k) for k in ("setup_s", "wall_s", "cpu_s", "wall_ref_s",
                                                 "peak_rss_mb", "probe")}
                         for p in passes]}
    (OUT / ("result-%s.json" % tag)).write_text(json.dumps(record, indent=1) + "\n")

    print("env %s" % json.dumps(env, sort_keys=True))
    print("workload %s seed %d passes %d jobs %d jobs_failed %d output_bytes_changed %d"
          % (args.workload, args.seed, len(passes), attempted, len(failures), changed))
    if "raw" in extra:
        print("raw medians %s" % json.dumps(extra["raw"], sort_keys=True))
    for failure in failures[:20]:
        print("FAILED %(job)s: %(reason)s" % failure)
    for name, unit in units.items():
        print("%-44s %.6g %s" % (name, metrics[name], unit))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
