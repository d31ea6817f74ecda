"""Command-line front end: config resolution, output formats, exit codes."""

import dataclasses
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import process_caches
from chi2qec import cli
from chi2qec import errors as errors_mod
from chi2qec import fock
from chi2qec import symmetry as symmetry_mod
from chi2qec import syndromes as syndromes_mod
from chi2qec.codes import build_bc, build_eecc, build_pcc
from chi2qec.cli import (
    RunConfig,
    criterion_two_mode_bc,
    emit,
    load_config_file,
    main,
    resolve_config,
)
from chi2qec.schema import SchemaViolation, report_schema

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(tolerance=0)
    with pytest.raises(ValueError):
        RunConfig(format="yaml")
    with pytest.raises(dataclasses.FrozenInstanceError):
        RunConfig().seed = 7


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("# comment\nseed = 7\nformat=text  # trailing\n\n")
    assert load_config_file(str(path)) == {"seed": "7", "format": "text"}
    bad = tmp_path / "bad"
    bad.write_text("seed 7\n")
    with pytest.raises(ValueError):
        load_config_file(str(bad))


def test_resolve_config_precedence(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("seed=7\ntolerance=1e-6\n")

    class Args:
        config = str(path)
        tolerance = 1e-8  # flag overrides file
        seed = None
        format = None

    cfg = resolve_config(Args())
    assert cfg.seed == 7
    assert cfg.tolerance == 1e-8


@pytest.mark.parametrize("line,flag,message", [
    ("tolerance=-1", ["--tolerance", "1e-6"], "tolerance must be finite and positive, got -1.0"),
    ("seed=-3", ["--seed", "7"], "expected non-negative integer"),
    ("format=yaml", ["--format", "json"], "format must be json, csv or text"),
    # The file's first bad value is named, before any flag's.
    ("tolerance=0\nseed=-3", ["--seed", "-5"], "tolerance must be finite and positive, got 0.0"),
])
def test_an_invalid_config_value_is_refused_where_a_flag_overrides_it(
        capsys, tmp_path, line, flag, message):
    path = tmp_path / "cfg"
    path.write_text(line + "\n")
    assert main(["--config", str(path)] + flag + ["bounds", "loss"]) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)


def test_flags_are_checked_in_field_order(capsys):
    assert main(["--seed", "-1", "--tolerance", "0", "bounds", "loss"]) == 2
    assert capsys.readouterr().err == "error: tolerance must be finite and positive, got 0.0\n"


@pytest.mark.parametrize("with_file,built", [(False, 1), (True, 2)])
def test_a_job_builds_one_run_config_and_one_more_for_its_file(
        monkeypatch, tmp_path, with_file, built):
    path = tmp_path / "cfg"
    path.write_text("seed=7\nformat=csv\n")
    checks, check = [], RunConfig.__post_init__
    monkeypatch.setattr(RunConfig, "__post_init__", lambda self: checks.append(1) or check(self))
    argv = ["--tolerance", "1e-6", "--format", "text", "bounds", "loss"]
    cfg = resolve_config(cli._parser().parse_args((["--config", str(path)] if with_file else [])
                                                  + argv))
    assert (cfg.tolerance, cfg.seed, cfg.format) == (1e-6, 7 if with_file else 2026, "text")
    assert len(checks) == built


def test_resolve_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("speed=7\n")

    class Args:
        config = str(path)

    with pytest.raises(ValueError):
        resolve_config(Args())


@pytest.mark.parametrize("argv", [
    ["kl-check", "pcc", "--N", "3", "--errors", "xi2"],  # inf passed a set PCC cannot correct
    ["kl-check", "bc", "--N", "2", "--errors", "xi2"],  # nan gave a silent FAIL
    ["report", "all"],  # inf crashed inside numpy
])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("route", ["flag", "config"])
def test_tolerance_must_be_finite(capsys, tmp_path, route, value, argv):
    if route == "flag":
        given = ["--tolerance=" + value]  # argparse reads a bare "-inf" as a flag
    else:
        path = tmp_path / "cfg"
        path.write_text("tolerance=%s\n" % value)
        given = ["--config", str(path)]
    assert main(given + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tolerance must be finite and positive" in captured.err


@pytest.mark.parametrize("line", ["threads=2", "headroom=1"])
def test_removed_config_keys_are_usage_errors(capsys, tmp_path, line):
    path = tmp_path / "cfg"
    path.write_text(line + "\n")
    assert main(["--config", str(path), "bounds", "theorems"]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_report_all_seeds_recovery_draws_with_run_seed(capsys, monkeypatch):
    seeds = []
    real = random.Random

    def spy(seed=None):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(cli.random, "Random", spy)
    main(["--seed", "7", "report", "all"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["seed"] == 7
    assert seeds == [7]


def test_two_mode_bc_criterion_names_its_tolerance():
    default = criterion_two_mode_bc()
    assert default["passed"]
    assert default["detail"] == "per-configuration KL residuals < 1e-9"


@pytest.mark.parametrize("criterion", [cli.criterion_bc_kl_and_moments,
                                       cli.criterion_two_mode_bc,
                                       cli.criterion_recovery])
def test_criteria_fail_below_floating_point_resolution(criterion):
    # Each passes at the default tolerance (tests/test_acceptance.py).
    assert not criterion(RunConfig(tolerance=1e-30))["passed"]


@pytest.mark.parametrize("tolerance", [1.6, 2, 9.5, 1e300])
def test_recovery_criterion_passes_at_a_loose_tolerance(tolerance):
    # BC N=2 corrects xi2 at every tolerance its KL check passes: the rank
    # cut of alpha is relative to alpha's scale, not the run's tolerance.
    record = cli.criterion_recovery(RunConfig(tolerance=tolerance))
    assert record["passed"], record


def test_bc_moment_cross_check_fails_on_a_wrong_exact_sum(monkeypatch):
    real = cli.bc_moment_numerator

    def off_by_one(code, h, g, m, side, kind):
        # Both codewords move alike, so only the float cross-check can see it.
        N = code.parameters["N"]
        return real(code, h, g, m, side, kind) + ((N, kind, h, g, m) == (4, "gain", 1, 0, 2))

    monkeypatch.setattr(cli, "bc_moment_numerator", off_by_one)
    record = cli.criterion_bc_kl_and_moments()
    assert not record["passed"]
    assert record["detail"] == "brute force N=4 gain h=1 g=0 m=2"


def _is_gain_set(errors):
    return all(e.label.startswith("adag_") for e in errors)


def test_kl_alpha_gain_check_is_one_kl_check_of_xi1_gains(monkeypatch):
    calls = []
    real = cli.kl_check

    def spy(code, errors, tol):
        calls.append((code.name, code.parameters["N"], [e.label for e in errors], tol))
        return real(code, errors, tol)

    monkeypatch.setattr(cli, "kl_check", spy)
    assert cli.criterion_kl_alpha() == {"name": "1_kl_alpha_matrices", "passed": True,
                                        "detail": "alpha values exact to 1e-12"}
    gain_calls = [c for c in calls if any(label.startswith("adag_") for label in c[2])]
    # xi_set lists monomials by exponent tuple: (0, 0, 1) first.
    assert gain_calls == [("EECC", 2, ["adag_p", "adag_i", "adag_s"], 1e-12)]


@pytest.mark.parametrize("shift", [2e-12, 2e-12j])
def test_kl_alpha_gain_check_fails_on_a_shifted_gain_gram(monkeypatch, shift):
    real = cli.kl_check

    def shifted(code, errors, tol):
        rep = real(code, errors, tol)
        if _is_gain_set(errors):
            rep.alpha = rep.alpha + shift
        return rep

    monkeypatch.setattr(cli, "kl_check", shifted)
    record = cli.criterion_kl_alpha()
    assert not record["passed"]
    assert record["detail"] == "EECC gain alpha != 2 I"


def test_kl_alpha_gain_check_fails_on_a_failed_gain_verdict(monkeypatch):
    real = cli.kl_check

    def failing(code, errors, tol):
        rep = real(code, errors, tol)
        return dataclasses.replace(rep, verdict=rep.verdict and not _is_gain_set(errors))

    monkeypatch.setattr(cli, "kl_check", failing)
    record = cli.criterion_kl_alpha()
    assert not record["passed"]
    assert record["detail"] == "EECC gain KL fails"


def test_bc_moment_loop_builds_no_basis_or_operator(monkeypatch):
    counts = {"basis": 0, "operator": 0}
    basis_init = fock.BasisIndex.__init__
    operator_post_init = fock.LinearOperator.__post_init__

    def count_basis(self, states):
        counts["basis"] += 1
        basis_init(self, states)

    def count_operator(self):
        counts["operator"] += 1
        operator_post_init(self)

    monkeypatch.setattr(fock.BasisIndex, "__init__", count_basis)
    monkeypatch.setattr(fock.LinearOperator, "__post_init__", count_operator)
    process_caches.clear()  # each count starts from nothing built
    assert cli.criterion_bc_kl_and_moments()["passed"]
    in_criterion = dict(counts)
    counts.update(basis=0, operator=0)
    process_caches.clear()
    # What the criterion builds outside its moment loop: the KL checks and
    # one code per N.
    for N, max_m in ((2, 2), (3, 3)):
        spec = build_bc(N)
        for m in range(max_m + 1):
            errors_mod.kl_check(spec, errors_mod.xi_set(m, spec))
    for N in range(2, 7):
        build_bc(N)
    assert in_criterion == counts


@pytest.mark.parametrize("tolerance", ["1e-30", "1e-16", "0.09", "0.5"])
def test_synthesis_reads_no_tolerance(capsys, tolerance):
    default = cli.criterion_symmetry_synthesis()
    assert default["passed"]
    assert cli.criterion_symmetry_synthesis(RunConfig(tolerance=float(tolerance))) == default
    for argv in (["synth", "pcc", "--N", "2"], ["synth", "eecc", "--N", "3"]):
        assert main(argv) == 0
        want = json.loads(capsys.readouterr().out)
        assert main(["--tolerance", tolerance] + argv) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["config"].pop("tolerance") == float(tolerance)
        want["config"].pop("tolerance")
        assert got == want


def test_synthesis_needs_no_svd(monkeypatch, capsys):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for code in ("pcc", "eecc"):
        for N in (2, 3):
            assert main(["synth", code, "--N", str(N)]) == 0
            capsys.readouterr()
    assert main(["report", "all"]) == 1  # the documented gate identities
    symmetry = json.loads(capsys.readouterr().out)["results"][1]
    assert symmetry == {"name": "2_symmetry_synthesis", "passed": True,
                        "detail": "projector distance < 1e-8, flow 9->5->3"}


@pytest.mark.parametrize("limit,refused", [(882, False), (881, True)])
def test_synth_refuses_a_commutation_stack_over_the_limit_before_building_it(
        monkeypatch, capsys, limit, refused):
    # PCC N=3 has 7 operators on 9 kets: its commutation check stacks
    # 2 * 7^2 * 9 = 882 entries, which a limit of 882 allows and 881 refuses.
    monkeypatch.setattr(fock, "_MAX_TRUNCATED_DIM", limit)
    stacks, stack = [], np.stack
    monkeypatch.setattr(np, "stack", lambda arrays, **kw: stacks.append(1) or stack(arrays, **kw))
    assert main(["--format", "csv", "synth", "pcc", "--N", "3"]) == (2 if refused else 0)
    out = capsys.readouterr()
    if refused:
        assert (out.out, stacks) == ("", [])
        assert out.err == ("error: commutation check of 7 operators on 9 kets would stack "
                           "882 entries, over the limit of 881\n")
    else:
        assert out.out.splitlines()[-1] == ("synthesis_pcc_N3,True,orthonormal codewords fixed "
                                            "by every operator; dim 3 = L 3")
        assert stacks == [1]


def test_pcc_n100_synthesis_reads_orbits_in_little_memory():
    # Dense orbit vectors would hold 2,550 x 10,000 complex amplitudes (408 MB).
    tracemalloc.start()
    try:
        row = cli.synthesis_check(build_pcc(100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row == {"name": "synthesis_pcc_N100", "passed": False,
                   "detail": "orthonormal codewords fixed by every operator; dim 2550 != L 100"}
    assert peak < 64e6


def test_eecc_n2000_synth_holds_no_dense_codeword():
    # A dense codeword per logical state would hold 2000 x 3999 complex
    # amplitudes (128 MB).
    spec = build_eecc(2000)
    tracemalloc.start()
    try:
        spec.to_json()
        row = cli.synthesis_check(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row["passed"]
    assert peak < 16e6


def test_synthesis_indexes_codewords_in_the_operators_basis(monkeypatch):
    spec = build_pcc(3)
    monkeypatch.setattr(type(spec), "basis", property(lambda self: pytest.fail("basis listed")))
    assert cli.synthesis_check(spec)["passed"]
    # |1,0,1> is outside H_2, so the support is not in the operators' basis.
    stray = dataclasses.replace(spec, weights=[{(1, 0, 1, 1, 1, 1): 2}, *spec.weights[1:]])
    with pytest.raises(fock.MissingBasisState, match=r"\(1, 0, 1, 1, 1, 1\)"):
        cli.synthesis_check(stray)


_BC_EXACT = ("S w = w exactly: orthonormal codewords; V|+/-> = +/-|+/->; "
             "Pi_s|k~> = (-1)^k |k~>")


@pytest.mark.parametrize("N", list(range(1, 61)) + [515])
def test_synth_bc_fixes_both_codewords_exactly(capsys, N):
    # N=515 is the largest BC whose weights fit a float.
    assert main(["--format", "csv", "synth", "bc", "--N", str(N)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "synthesis_bc_N%d,True,%s" % (N, _BC_EXACT)


def test_bc_symmetry_row_names_each_broken_fact(monkeypatch):
    spec = build_bc(3)  # |0~> on |0,0,5>, |2,2,3>, |4,4,1>; |1~> on the odd kets
    zero, one = spec.weights
    assert cli.synthesis_check(spec) == {"name": "synthesis_bc_N3", "passed": True,
                                         "detail": _BC_EXACT}
    # |2,2,3>'s weight moved onto |1,1,4>: the norms become 6/16 and 26/16.
    moved = [{k: w for k, w in zero.items() if k != (2, 2, 3)},
             {**one, (1, 1, 4): one[(1, 1, 4)] + zero[(2, 2, 3)]}]
    # |0,0,5> and |1,1,4> traded between the codewords with their weights:
    # still orthonormal, but each codeword holds a ket of the wrong parity.
    traded = [{**{k: w for k, w in zero.items() if k != (0, 0, 5)}, (1, 1, 4): zero[(0, 0, 5)]},
              {**{k: w for k, w in one.items() if k != (1, 1, 4)}, (0, 0, 5): one[(1, 1, 4)]}]
    for weights, fact in ((moved, "orthonormal codewords"),
                          (traded, "Pi_s|k~> = (-1)^k |k~>")):
        row = cli.synthesis_check(dataclasses.replace(spec, weights=weights))
        assert row == {"name": "synthesis_bc_N3", "passed": False,
                       "detail": "S w = w unproven; fails " + fact}
    # An inversion that fixes |0,0,5> and |5,5,0> leaves |-> unflipped.
    factored = cli.bc_symmetry_operator(spec)
    identity = symmetry_mod.SymmetryOperator("I", spec.basis, np.arange(6), np.zeros(6), 1)
    monkeypatch.setattr(cli, "bc_symmetry_operator",
                        lambda _: dataclasses.replace(factored, inversion=identity))
    assert cli.synthesis_check(spec)["detail"] == "S w = w unproven; fails V|+/-> = +/-|+/->"


def test_emit_formats():
    cfg = RunConfig()
    results = [{"name": "x", "passed": True, "detail": "a,b"}]
    doc = json.loads(emit(cfg, "synth", True, results))
    assert doc["tool"] == "chi2qec" and doc["passed"] is True
    csv = emit(RunConfig(format="csv"), "synth", True, results)
    assert csv.splitlines() == ["name,passed,detail", "x,True,a;b"]
    assert emit(RunConfig(format="csv"), "synth", True, []) == ""
    text = emit(RunConfig(format="text"), "synth", False, results)
    assert text.endswith("overall: FAIL")


def test_main_synth_exit_zero(capsys):
    assert main(["synth", "eecc", "--N", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "synth"
    assert doc["passed"] is True


def test_main_accepts_global_flags_after_subcommand(capsys):
    assert main(["synth", "eecc", "--N", "2", "--format", "text"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


# The --help text of the top level and of each subcommand, as printed at
# 80 columns; the global flags are declared once, for both.
with open(os.path.join(TESTS_DIR, "data", "help.json")) as fh:
    HELP = json.load(fh)


@pytest.mark.parametrize("argv", sorted(HELP))
def test_help_text_is_unchanged(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv.split()) == 0
    assert capsys.readouterr() == (HELP[argv], "")


def test_main_is_deterministic_for_fixed_seed(capsys):
    args = ["--seed", "7", "recover", "eecc", "--N", "2",
            "--error", "a_s", "--trials", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_main_recover_rejects_trials_below_one(capsys, trials):
    args = ["recover", "eecc", "--N", "2", "--error", "a_s", "--trials", trials]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--trials must be >= 1" in captured.err


@pytest.mark.parametrize("argv", [["recover", "eecc", "--N", "2", "--error", "a_s"],
                                  ["report", "all"],
                                  ["synth", "eecc", "--N", "2"],
                                  ["kl-check", "bc", "--N", "2", "--errors", "xi1"],
                                  ["gates", "verify"],
                                  ["bounds", "theorems"],
                                  ["syndromes", "pcc", "--N", "3"]])
def test_a_negative_seed_is_a_usage_error(capsys, argv):
    # random.Random would take -3 as the seed 3.
    assert main(["--seed", "-3"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected non-negative integer\n"


def test_a_negative_seed_in_a_config_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "cfg"
    path.write_text("seed = -3\n")
    assert main(["--config", str(path), "synth", "eecc", "--N", "2"]) == 2
    assert capsys.readouterr() == ("", "error: expected non-negative integer\n")
    with pytest.raises(ValueError, match="expected non-negative integer"):
        RunConfig(seed=-1)


def test_main_gates_exit_one(capsys):
    # The documented failing decompositions make the gates verdict red.
    assert main(["gates", "verify"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False


def test_main_usage_errors(capsys, tmp_path):
    assert main(["synth", "nope", "--N", "2"]) == 2
    assert main(["bounds", "loss", "--n", "0"]) == 2
    missing = str(tmp_path / "absent")
    assert main(["--config", missing, "bounds", "theorems"]) == 2
    capsys.readouterr()


def test_main_bounds_and_sweep(capsys):
    assert main(["bounds", "theorems"]) == 0
    capsys.readouterr()
    assert main(["bounds", "rotation", "--sweep", "--b", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert any(r["name"] == "min_n_q6" and "min_n=3" in r["detail"]
               for r in doc["results"])


def test_main_syndromes_csv(capsys):
    assert main(["--format", "csv", "syndromes", "eecc", "--N", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "error_label,p,q"
    assert len(lines) == 7
    assert any(line.startswith("a_s,1 1 0,2") for line in lines)


def test_main_kl_check(capsys):
    assert main(["kl-check", "bc", "--N", "2", "--errors", "xi1"]) == 0
    capsys.readouterr()


def test_kl_check_json_alpha_is_the_report_alpha(capsys):
    assert main(["kl-check", "bc", "--N", "2", "--errors", "xi1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    row = doc["results"][0]
    assert doc["passed"] is True and row["passed"] is True
    spec = build_bc(2)
    errs = errors_mod.xi_set(1, spec)
    assert row["detail"].endswith("labels %s" % [e.label for e in errs])
    assert errs[0].label == "I"
    alpha = errors_mod.kl_check(spec, errs).alpha
    # K x K [re, im] pairs; float.__repr__ round-trips, so they are alpha
    # bit for bit.
    parsed = np.array(row["alpha"])
    assert parsed.shape == (len(errs), len(errs), 2)
    assert np.array_equal(parsed.view(complex)[..., 0], alpha)
    assert np.array_equal(np.signbit(parsed[..., 0]), np.signbit(alpha.real))
    assert np.array_equal(np.signbit(parsed[..., 1]), np.signbit(alpha.imag))


@pytest.mark.parametrize("choice", [
    "xi1_0", "xi+1", "xi01", "xi00", "xi_1", "xi", "xi-1", "xi 1", " xi1", "xi1 ",
    "xi\u0661", "XI1", "xi1.0",
])
def test_malformed_xi_choice_is_a_usage_error(capsys, choice):
    assert main(["kl-check", "eecc", "--N", "2", "--errors", choice]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: unknown error family %r: expected xi0, xi<m> with m a number"
        " without a leading zero, lowest-order or ad\n" % choice)


def test_config_file_drives_output_format(capsys, tmp_path):
    path = tmp_path / "cfg"
    path.write_text("format=text\nseed=3\n")
    assert main(["--config", str(path), "bounds", "theorems"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_report_json_validates_against_schema():
    # `emit` checks every JSON document before it renders it.
    cfg = RunConfig()
    text = emit(cfg, "bounds", True, [{"name": "x", "passed": True}])
    assert json.loads(text)["results"] == [{"name": "x", "passed": True}]
    with pytest.raises(SchemaViolation, match=r"^\$\.results\[0\]: missing required keys"):
        emit(cfg, "bounds", True, [{"passed": True}])


def test_every_json_document_is_checked_before_it_is_printed(capsys, monkeypatch):
    # A schema that admits only `report` documents rejects a synth document.
    schema = dict(report_schema())
    schema["properties"] = dict(schema["properties"], command={"const": "report"})
    monkeypatch.setattr(cli, "report_schema", lambda: schema)
    with pytest.raises(SchemaViolation, match=r"^\$\.command: 'synth' is not 'report'"):
        main(["synth", "bc", "--N", "2"])
    assert capsys.readouterr().out == ""


def test_invalid_report_raises_before_it_is_printed(capsys, monkeypatch):
    # The check needs no jsonschema: importing it would fail here.
    monkeypatch.setitem(sys.modules, "jsonschema", None)
    monkeypatch.setattr(cli, "CRITERIA", [lambda config: {"passed": True}])
    with pytest.raises(SchemaViolation, match=r"^\$\.results\[0\]: missing required keys \['name'\]"):
        main(["report", "all"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv,message", [
    (["recover", "pcc", "--N", "2", "--error", "none"], "supports qutrit PCC"),
    (["recover", "eecc", "--N", "5", "--error", "none"], "supports qutrit PCC"),
    (["syndromes", "bc", "--N", "2", "--order", "0"], "orders 1..2, got 0"),
    (["syndromes", "bc", "--N", "2", "--order", "7"], "orders 1..2, got 7"),
    (["syndromes", "pcc", "--N", "3", "--order", "2"], "no monitored order"),
    (["kl-check", "bc2mode", "--N", "2", "--errors", "ad", "--order", "-1"],
     "--order must be >= 0"),
    (["kl-check", "bc", "--N", "2", "--errors", "xi1", "--gamma", "0.1"],
     "--gamma does not apply to --errors xi1"),
    (["kl-check", "bc", "--N", "2", "--errors", "xi1", "--order", "2"],
     "--order does not apply to --errors xi1"),
    (["kl-check", "pcc", "--N", "2", "--errors", "lowest-order", "--order", "2"],
     "--order does not apply to --errors lowest-order"),
    (["bounds", "theorems", "--n", "5"], "--n does not apply to bounds theorems"),
    (["bounds", "--sweep"], "--sweep does not apply to bounds theorems"),
    (["bounds", "rotation", "--sweep", "--q", "9", "--n", "3"],
     "--n does not apply to bounds rotation --sweep"),
    (["bounds", "loss", "--t", "4"], "--t does not apply to bounds loss"),
    (["bounds", "loss", "--sweep"], "--sweep does not apply to bounds loss"),
    (["bounds", "rotation", "--sweep", "--k", "200"],
     "error: no n <= 64 works for q=2 b=2 k=200 t=1"),
    (["syndromes", "bc", "--N", "1"],
     "error: BC N=1 has no syndrome table: its pBC modulus 2N-1 = 1 is below 2"),
    (["kl-check", "pcc", "--N", "6", "--errors", "xi9"],
     "error: xi_9 on PCC would stack 1526001120 image entries"),
    (["kl-check", "bc", "--N", "30", "--errors", "xi30"],
     "error: xi_30 on BC would stack 173735280 image entries"),
    (["kl-check", "pcc", "--N", "12", "--errors", "ad"],
     "error: order-0 damping on PCC would stack 12549264 image entries"),
    (["--config", TESTS_DIR, "synth", "bc", "--N", "2"], "error: [Errno 21] Is a directory"),
    (["synth", "bc", "--N", "600"],
     "error: BC N=600: codeword weights are too large for float amplitudes"),
    (["kl-check", "bc", "--N", "600", "--errors", "xi1"],
     "error: BC N=600: codeword weights are too large for float amplitudes"),
    (["syndromes", "bc", "--N", "600"],
     "error: BC N=600: codeword weights are too large for float amplitudes"),
    (["synth", "bc2mode", "--N", "600"],
     "error: BC2mode N=600: codeword weights are too large for float amplitudes"),
    (["synth", "pcc", "--N", "143"],  # the smallest PCC over the stack limit
     "error: commutation check of 7 operators on 20449 kets would stack 2004002 entries, "
     "over the limit of 2000000"),
    (["kl-check", "pcc", "--N", "2", "--errors", "ad", "--order", "-1"],
     "error: --order must be >= 0, got -1"),
    (["synth", "bc", "--N", "516"],
     "error: BC N=516: codeword weights are too large for float amplitudes"),
    # Past 1/4 (PCC N=2 holds up to 4 photons on a ket) E_0 vanishes or the
    # family stops resolving the identity: no channel to give a verdict on.
    (["kl-check", "pcc", "--N", "2", "--errors", "lowest-order", "--gamma", "0.5"],
     "error: gamma must satisfy 0 <= gamma < 1/4: 4 is the largest photon total "
     "among the PCC support kets"),
    (["kl-check", "pcc", "--N", "2", "--errors", "lowest-order", "--gamma", "0.34"],
     "error: gamma must satisfy 0 <= gamma < 1/4"),
    # Unquoted: the message is a ValueError's, not a KeyError's repr.
    (["recover", "pcc", "--N", "3", "--error", "a_i1"],
     "error: unsupported PCC error 'a_i1': expected a_s1, a_p1 or none\n"),
    (["recover", "eecc", "--N", "2", "--error", "a_i"],
     "error: unsupported EECC error 'a_i': expected a_s, a_p or none\n"),
    # Outside 0 <= gamma < 1, NaN included, damping is refused.
    (["kl-check", "bc2mode", "--N", "2", "--errors", "ad", "--gamma", "nan"],
     "error: gamma must satisfy 0 <= gamma < 1\n"),
    (["kl-check", "bc2mode", "--N", "2", "--errors", "ad", "--gamma", "1"],
     "error: gamma must satisfy 0 <= gamma < 1\n"),
])
def test_main_rejects_unsupported_inputs(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_lowest_order_gamma_just_below_the_channel_limit_runs(capsys):
    argv = ["--format", "csv", "kl-check", "pcc", "--N", "2", "--errors", "lowest-order"]
    assert main(argv + ["--gamma", "0.249"]) == 0
    assert "kl_PCC_N2_lowest-order,True," in capsys.readouterr().out


def test_main_recover_none_on_supported_code(capsys):
    assert main(["recover", "pcc", "--N", "3", "--error", "none"]) == 0
    capsys.readouterr()


def test_main_syndromes_bc_single_order(capsys):
    assert main(["syndromes", "bc", "--N", "2", "--order", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][-1]["detail"] == "12 rows"  # 18 for all orders


@pytest.mark.parametrize("argv,message", [
    (["syndromes", "bc", "--N", "31"],
     "error: the BC N=31 syndrome table of 11966 errors on 62 support kets would stack "
     "2225676 entries, over the limit of 2000000\n"),
    (["syndromes", "bc", "--N", "515"],
     "error: the BC N=515 syndrome table of 46062630 errors on 1030 support kets would "
     "stack 142333526700 entries, over the limit of 2000000\n"),
    (["syndromes", "bc", "--N", "515", "--order", "30"],
     "error: the BC N=515 syndrome table of 992 errors on 1030 support kets would stack "
     "3065280 entries, over the limit of 2000000\n"),
])
def test_syndromes_bc_refuses_an_oversized_table_before_listing_it(monkeypatch, capsys,
                                                                   argv, message):
    # The (cases, support kets, modes) array of moved kets is counted first:
    # BC N=31 would stack 2 * (C(34, 3) - 1) * 62 * 3 entries.
    listed = []
    compositions = syndromes_mod.compositions
    monkeypatch.setattr(syndromes_mod, "compositions",
                        lambda *a: listed.append(1) or compositions(*a))
    assert main(argv) == 2
    assert capsys.readouterr() == ("", message)
    assert listed == []


@pytest.mark.parametrize("argv,rows", [
    (["syndromes", "bc", "--N", "30"], 10910),  # 1963800 entries: the largest N that runs
    (["syndromes", "bc", "--N", "515", "--order", "1"], 6),
])
def test_syndromes_bc_just_under_the_size_limit_runs(capsys, argv, rows):
    assert main(["--format", "csv"] + argv) == 0
    assert capsys.readouterr().out.count("\n") == 1 + rows


def test_recover_refuses_trials_over_the_size_limit_before_drawing(monkeypatch, capsys):
    # PCC N=3 a_s1 holds each trial on 15 kets: 133,333 trials stack
    # 1,999,995 entries and 133,334 trials are over the limit.
    monkeypatch.setattr(cli, "random_logical_states",
                        lambda *a: pytest.fail("states drawn"))
    argv = ["recover", "pcc", "--N", "3", "--error", "a_s1", "--trials", "133334"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: recovery of 133334 trials on 15 kets would "
                                   "stack 2000010 entries, over the limit of 2000000\n")
    monkeypatch.undo()
    for trials in ([], ["--trials", "10"]):  # the default 100 and the benchmark's 10
        argv = ["--format", "csv", "recover", "eecc", "--N", "2", "--error", "a_s"] + trials
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith(
            "over %s trials\n" % (trials[1] if trials else 100))


def test_main_syndromes_bc_past_operator_size_limit(capsys):
    # The xi_12 operators are too large to build (TruncationOverflow); the
    # table needs none of them.
    assert main(["syndromes", "bc", "--N", "12"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][-1] == {"name": "syndromes_distinct", "passed": True,
                                  "detail": "908 rows"}


@pytest.mark.parametrize("argv,flags", [
    (["kl-check", "pcc", "--N", "2", "--errors", "lowest-order"], ["--gamma", "0.01"]),
    (["kl-check", "bc2mode", "--N", "2", "--errors", "ad"],
     ["--gamma", "0.01", "--order", "1"]),
])
def test_main_kl_check_defaults_equal_explicit_flags(capsys, argv, flags):
    code = main(argv)
    default = capsys.readouterr().out
    assert main(argv + flags) == code
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("argv,flags", [
    (["bounds", "rotation"], ["--n", "1", "--q", "2", "--b", "2", "--k", "1", "--t", "1"]),
    (["bounds", "rotation", "--sweep"], ["--b", "2", "--k", "1", "--t", "1"]),
    (["bounds", "loss"], ["--n", "1", "--q", "2", "--b", "2", "--k", "1"]),
])
def test_bounds_defaults_equal_explicit_flags(capsys, argv, flags):
    code = main(argv)
    default = capsys.readouterr().out
    assert main(argv + flags) == code
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("code", ["pcc", "eecc", "bc"])
def test_main_kl_check_damping_on_three_mode_codes(capsys, code):
    # Every mode is damped.  Exact damping is correctable only to first
    # order in gamma, so at N=2 each of these codes FAILs.
    n_modes = {"pcc": 6, "eecc": 3, "bc": 3}[code]
    assert main(["kl-check", code, "--N", "2", "--errors", "ad"]) == 1
    result = json.loads(capsys.readouterr().out)["results"][0]
    assert len(result["alpha"]) == 1 + n_modes  # order 0, then one loss per mode
    for mode in range(n_modes):
        assert "A_%d(1)" % mode in result["detail"]


# Guards against the capped product spaces coming back.


def test_kl_check_stays_on_the_codeword_support(capsys):
    tracemalloc.start()
    try:
        assert main(["kl-check", "pcc", "--N", "4", "--errors", "xi2"]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 20e6  # a 46,656-state product space peaked at 346 MB


@pytest.mark.parametrize("errors", ["xi9", "xi100"])
def test_oversized_error_set_is_refused_before_it_is_built(capsys, errors):
    start = time.perf_counter()
    assert main(["kl-check", "pcc", "--N", "6", "--errors", errors]) == 2
    assert time.perf_counter() - start < 1.0
    assert "would stack" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["bounds", "rotation", "--n", "1000000000", "--q", "3", "--b", "2", "--t", "1000000000"],
     "error: the rotation bound at n=1000000000 q=3 b=2 k=1 t=1000000000 would form "
     "integers of up to 2500000004500000001 bits in all, over the limit of 2000000\n"),
    (["bounds", "loss", "--n", "100000000", "--q", "3", "--b", "2", "--k", "100000000"],
     "error: the loss bound at n=100000000 q=3 b=2 k=100000000 would form integers of "
     "up to 500000029 bits in all, over the limit of 2000000\n"),
    (["bounds", "rotation", "--sweep", "--k", "1000000000"],
     "error: the rotation bound at n=1 q=2 b=2 k=1000000000 t=1 would form integers of "
     "up to 1000000003 bits in all, over the limit of 2000000\n"),
])
def test_oversized_bound_is_refused_before_any_power_is_formed(capsys, argv, message):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("which,flag", [("rotation", "--n"), ("rotation", "--k"), ("loss", "--k")])
def test_a_bound_past_float_range_is_refused_not_raised(capsys, which, flag):
    # The sizing is integer arithmetic, so 10^400 cannot overflow a float.
    assert main(["bounds", which, flag, str(10 ** 400)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: the %s bound at " % which)
    assert err.endswith(" bits in all, over the limit of 2000000\n")


def test_a_bound_past_n_terms_sums_only_n_terms(capsys):
    # C(n, j) = 0 for j > n, so t = 10^9 costs what t = n does.
    start = time.perf_counter()
    assert main(["--format", "csv", "bounds", "rotation", "--n", "5", "--t", "1000000000"]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "rotation_bound,False,BoundQuery(n=5; q=2; b=2; k=1; t=1000000000)")


def test_oversized_damping_set_is_refused_before_it_is_built(capsys):
    # Every mode of PCC N=20 damped: about 3e7 closure kets.
    start = time.perf_counter()
    assert main(["kl-check", "pcc", "--N", "20", "--errors", "ad"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "damping on PCC" in capsys.readouterr().err


def test_oversized_damping_order_is_refused_before_lower_orders_are_built(
        capsys, monkeypatch):
    # Orders 0-2 of PCC N=6 fit and order 3 does not; every order's size is
    # checked before any damping operator is built.
    calls = []
    monkeypatch.setattr(errors_mod, "shift_operator",
                        lambda *args: calls.append(args))
    assert main(["kl-check", "pcc", "--N", "6", "--errors", "ad", "--order", "3"]) == 2
    assert calls == []
    assert capsys.readouterr().err == (
        "error: order-3 damping on PCC would stack 4609920 image entries,"
        " over the limit of 2000000\n")


def test_damping_labels_run_in_ascending_order(capsys):
    assert main(["kl-check", "bc2mode", "--N", "2", "--errors", "ad", "--order", "2"]) == 1
    detail = json.loads(capsys.readouterr().out)["results"][0]["detail"]
    assert detail.endswith(
        "labels ['A_0(0) A_1(0)', 'A_0(0) A_1(1)', 'A_0(1) A_1(0)',"
        " 'A_0(0) A_1(2)', 'A_0(1) A_1(1)', 'A_0(2) A_1(0)']")


# The parser is built once per process and reused by every `main` call.

_PARSER_REUSE_CALLS = [
    ["--tolerance", "1e-6", "bounds", "rotation", "--n", "5"],  # global flag before ...
    ["bounds", "rotation", "--n", "5", "--tolerance", "1e-6"],  # ... and after the subcommand
    ["bounds", "rotation", "--n", "5"],  # without it: the default tolerance again
    ["--format", "text", "bounds", "loss", "--N", "2"],  # usage error
    ["--help"],
    ["bounds", "--help"],
    ["--format", "csv", "bounds", "theorems", "--q", "3"],  # flag theorems does not read
    ["--format", "csv", "bounds", "loss", "--n", "2", "--q", "3", "--b", "3"],
]


def _outcomes(capsys, calls):
    out = []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


def test_reused_parser_leaks_no_state_between_calls(capsys, monkeypatch):
    reused = _outcomes(capsys, _PARSER_REUSE_CALLS)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser per call
    assert reused == _outcomes(capsys, _PARSER_REUSE_CALLS)
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0, 0, 2, 0]
    tolerances = [json.loads(out)["config"]["tolerance"] for _, out, _ in reused[:3]]
    assert tolerances == [1e-6, 1e-6, 1e-9]


def _child_env():
    """The environment of a child interpreter that imports this chi2qec."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_parser_is_not_built_at_import():
    code = ("import chi2qec.cli as cli; print(cli._parser.cache_info().currsize); "
            "cli.main(['bounds', 'loss']); print(cli._parser.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_child_env(), check=True).stdout
    assert out.split()[0] == "0" and out.split()[-1] == "1"


@pytest.mark.parametrize("argv", [
    ["synth", "pcc", "--N", "4"],
    ["syndromes", "bc", "--N", "12"],
    ["--format", "csv", "syndromes", "bc", "--N", "12"],  # cmd_syndromes prints it
])
def test_a_closed_stdout_ends_the_run_quietly_with_the_sigpipe_status(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run([sys.executable, "-m", "chi2qec.cli"] + argv,
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=_child_env(), timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")
