"""Record bench/expected.json from the sources in src/.

    python3 bench/record.py

Runs every job any workload can generate (jobs.universe) and stores, per
job, its exit code, its `[check, passed]` verdicts and the SHA-256 of its
output.  Record only at a commit whose verdicts are the reference: the
benchmark counts every later difference in exit code or verdict as a
failed job.
"""

import json
import sys

import jobs
import run
import verdicts


def main():
    entries = {}
    for workload, job_list in jobs.universe().items():
        child = run.run_child(job_list, timeout=None)
        for result in child["results"]:
            key = verdicts.job_key(result["argv"])
            if result["error"] is not None or result["exit"] not in (0, 1):
                sys.exit("%s: %s exit %s %s" % (workload, key, result["exit"],
                                                result["error"] or result["stderr"]))
            entries[key] = {"exit": result["exit"], "checks": result["checks"],
                            "sha256": result["sha256"]}
        print("%s: %d jobs recorded" % (workload, len(job_list)))
    doc = {"recorded_from": run.commit() or run.source_digest(), "jobs": entries}
    (run.BENCH / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
