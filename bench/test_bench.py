"""Tests of the benchmark harness.  They are not part of the tier-1 suite:

    python3 -m pytest bench -q
"""

import copy
import importlib
import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import verdicts  # noqa: E402

EXPECTED = json.loads((run.BENCH / "expected.json").read_text())["jobs"]


def failures(child, expected=EXPECTED):
    return [reason for reason, _ in (verdicts.compare(r, expected)
                                     for r in child["results"]) if reason]


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_tiny_run_of_each_workload_passes_the_verdict_check(workload):
    child = run.run_child(jobs.WORKLOADS[workload](7)[:3])
    assert len(child["results"]) >= 1
    assert failures(child) == []
    assert all(not verdicts.compare(r, EXPECTED)[1] for r in child["results"])


def test_probed_pass_scales_its_time_by_the_probe():
    child = run.run_child([["--format", "json", "bounds", "theorems"]] * 3,
                          probe_interval_s=0.01)
    for phase in (child["setup_probe"], child["probe"]):
        assert phase["probes"] > 0 and phase["probe_s"] > 0
        assert 0 < phase["probe_spent_s"] < child["setup_s"] + child["wall_s"]
    probe = dict(child["probe"], probe_s=run.PROBE_REF_S / 2)
    assert run.at_reference_speed(child["wall_s"], probe) == pytest.approx(
        2 * (child["wall_s"] - probe["probe_spent_s"]))
    assert failures(child) == []


def test_every_generated_job_has_an_expected_verdict():
    for name, make in jobs.WORKLOADS.items():
        for seed in range(12):
            for argv in make(seed):
                assert verdicts.job_key(argv) in EXPECTED, (name, seed, argv)


def test_expected_file_keeps_the_documented_red_results():
    red_identities = ["XP_two_factor", "Hprime_full", "H_chain_full", "H_chain_code_block"]
    for seed in jobs.REPORT_SEEDS:
        entry = EXPECTED["--seed %d report all" % seed]
        assert entry["exit"] == 1
        failed = [name for name, passed in entry["checks"] if not passed]
        assert failed == ["7_gate_identities"] + [
            "7_gate_identities/" + name for name in red_identities] + ["overall"]
    gates = EXPECTED["--format json gates verify"]
    assert gates["exit"] == 1
    assert sorted(n for n, p in gates["checks"] if not p) == sorted(red_identities + ["overall"])
    for key in ("kl-check pcc --N 3 --errors xi2", "kl-check pcc --N 4 --errors xi2",
                "--format json kl-check bc2mode --N 2 --errors ad --order 3"):
        assert EXPECTED[key]["exit"] == 1


def test_tampered_expected_verdict_is_caught():
    child = run.run_child([["--format", "json", "gates", "verify"]])
    result = child["results"][0]
    assert verdicts.compare(result, EXPECTED) == (None, False)
    key = verdicts.job_key(result["argv"])

    green = copy.deepcopy(EXPECTED)
    red = next(pair for pair in green[key]["checks"] if not pair[1])
    red[1] = True  # the expected file now claims a red identity is green
    assert failures(child, green)

    flipped_exit = copy.deepcopy(EXPECTED)
    flipped_exit[key]["exit"] = 0
    assert failures(child, flipped_exit)

    other_output = copy.deepcopy(EXPECTED)
    other_output[key]["sha256"] = "0" * 64
    assert verdicts.compare(result, other_output) == (None, True)


def test_raising_and_usage_error_jobs_are_failed_jobs():
    child = run.run_child([
        ["kl-check", "pcc", "--N", "6", "--errors", "xi9"],  # TruncationOverflow
        ["synth", "nope", "--N", "2"],
        ["--format", "json", "gates", "verify"],
    ])
    raised, usage, fine = (verdicts.compare(r, EXPECTED)[0] for r in child["results"])
    assert raised.startswith("raised") and "TruncationOverflow" in raised
    assert usage.startswith("usage error")
    assert fine is None


def test_install_rebinds_every_copy_and_links_parents():
    inner = types.ModuleType("pkg.inner")
    exec("def leaf(x):\n    return x + 1\n", inner.__dict__)
    outer = types.ModuleType("pkg.outer")
    outer.leaf = inner.leaf
    exec("def top(x):\n    return leaf(x) * 2\n", outer.__dict__)
    outer.TABLE = [outer.top]
    outer.BY_NAME = {"leaf": inner.leaf}

    t = tracer.Tracer()
    assert tracer.install(t, [inner, outer]) == 2
    assert outer.TABLE[0] is outer.top and outer.BY_NAME["leaf"] is inner.leaf
    assert outer.TABLE[0](1) == 4
    assert outer.BY_NAME["leaf"](1) == 2
    summary = tracer.summarize(json.loads(json.dumps(t.spans)))
    assert summary["outer.top"]["calls"] == 1
    assert summary["inner.leaf"]["calls"] == 2
    top_id, leaf_parent = t.spans[1][0], t.spans[0][1]
    assert leaf_parent == top_id
    assert summary["outer.top"]["self_s"] <= summary["outer.top"]["s"]


def test_traced_pass_reaches_functions_imported_by_name(tmp_path):
    spans = tmp_path / "spans.jsonl"
    run.run_child([["kl-check", "bc", "--N", "2", "--errors", "xi2"]], spans=spans)
    summary = tracer.summarize(tracer.load(spans))
    assert summary["cli.main"]["calls"] == 1
    assert summary["errors.kl_check"]["calls"] == 1  # imported into cli
    assert summary["errors.xi_set"]["operators"] > 1
    assert summary["fock.ladder"]["calls"] > 0  # imported into errors
    assert 0 < summary["errors.kl_check"]["support_frac"] < 1
    for entry in summary.values():
        assert -1e-6 <= entry["self_s"] <= entry["s"] + 1e-9


def test_per_layer_names_resolve_to_functions():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SRC))
    for metric in spec["per_layer"]:
        if metric["name"] in ("cli.output_bytes_changed", "trace.overhead_s", "process.cpu_s"):
            continue
        module, name, _ = metric["name"].split(".")
        assert hasattr(importlib.import_module("chi2qec." + module), name), metric
