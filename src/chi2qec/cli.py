"""Command-line front end producing reproducible verification reports.

Exit codes: 0 all verdicts pass, 1 verification failure, 2 usage error.
Reports are deterministic for a fixed seed and config; JSON output
validates against the bundled report.schema.json.
"""

import argparse
import functools
from dataclasses import dataclass, replace
from fractions import Fraction
import json
import math
import sys
from typing import Dict, List, Optional

import numpy as np

from . import bounds as bounds_mod
from . import codes as codes_mod
from . import errors as errors_mod
from . import gates as gates_mod
from . import symmetry as symmetry_mod
from .codes import build, build_bc, build_eecc, build_pcc, build_two_mode_bc
from .errors import (
    KLViolation,
    ad_product_set,
    bc_moment_numerator,
    bc_moment_sum,
    canonical_recovery,
    enclosing_basis,
    kl_check,
    lowest_order_loss_kraus,
    recovery_fidelity,
    xi_set,
)
from .fock import (
    apply,
    compose,
    embed,
    enumerate_irreducible_subspace,
    inner_product,
    ladder,
)
from .symmetry import (
    bc_symmetry_operator,
    inversion_operator,
    inversion_operator_all_groups,
    joint_unity_eigenspace,
    projector_distance,
    swap_operator,
    z_pair_operator,
)
from .syndromes import (
    full_recovery,
    random_logical_coefficients,
    random_logical_states,
    syndrome_table,
    to_csv,
)


@dataclass(frozen=True)
class RunConfig:
    tolerance: float = 1e-9
    seed: int = 2026
    format: str = "json"

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be finite and positive, got %r"
                             % self.tolerance)
        if self.format not in ("json", "csv", "text"):
            raise ValueError("format must be json, csv or text")


def load_config_file(path: str) -> Dict[str, str]:
    """key=value per line; '#' starts a comment; blank lines ignored."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected key=value" % (path, lineno))
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def resolve_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        raw = load_config_file(args.config)
        casts = {"tolerance": float, "seed": int, "format": str}
        unknown = set(raw) - set(casts)
        if unknown:
            raise ValueError("unknown config keys: %s" % sorted(unknown))
        cfg = replace(cfg, **{k: casts[k](v) for k, v in raw.items()})
    for attr in ("tolerance", "seed", "format"):
        value = getattr(args, attr, None)
        if value is not None:
            cfg = replace(cfg, **{attr: value})
    return cfg


def emit(config: RunConfig, command: str, passed: bool, results: List[Dict]) -> str:
    if config.format == "json":
        doc = {
            "tool": "chi2qec",
            "command": command,
            "config": {
                "tolerance": config.tolerance,
                "seed": config.seed,
                "format": config.format,
                # Required by report.schema.json; criteria run on one thread.
                "threads": 1,
            },
            "passed": passed,
            "results": results,
        }
        return json.dumps(doc, indent=2, sort_keys=True)
    if config.format == "csv":
        if not results:
            return ""
        lines = ["name,passed,detail"]
        for r in results:
            detail = str(r.get("detail", "")).replace(",", ";")
            lines.append("%s,%s,%s" % (r["name"], r["passed"], detail))
        return "\n".join(lines)
    lines = []
    for r in results:
        lines.append("%-45s %s  %s" % (r["name"],
                                       "PASS" if r["passed"] else "FAIL",
                                       r.get("detail", "")))
    lines.append("overall: %s" % ("PASS" if passed else "FAIL"))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Symmetry-synthesis operator sets (cross-checks for synth).


def pcc_operator_set(N: int):
    """Commuting symmetries whose joint unity eigenspace is the pair code.

    For odd N the set includes the cross-qudit signal-parity product
    Pi_s1 Pi_s2 (a true symmetry of the odd-N codewords, whose pair labels
    n and N-1-n share parity); without it the swap-symmetric combination
    of the cross terms |n>|n'> + |n'>|n> (n != n') survives and the joint
    eigenspace is one dimension too large.
    """
    basis = enumerate_irreducible_subspace(N - 1, groups=2)
    ops = []
    for group in (1, 2):
        ops.append(z_pair_operator(N, "sp", group, basis))
        ops.append(z_pair_operator(N, "ip", group, basis))
    ops.append(inversion_operator_all_groups(N - 1, basis))
    ops.append(swap_operator(basis))
    if N % 2 == 1:
        pi1 = symmetry_mod.signal_parity_operator(basis, group=1).operator
        pi2 = symmetry_mod.signal_parity_operator(basis, group=2).operator
        ops.append(symmetry_mod.SymmetryOperator("Pi_s1 Pi_s2", compose(pi1, pi2)))
    return basis, ops


def eecc_operator_set(N: int):
    basis = enumerate_irreducible_subspace(2 * N - 2, groups=1)
    return basis, [inversion_operator(2 * N - 2, 1, basis)]


_SYNTHESIS_SETS = {"pcc": (build_pcc, pcc_operator_set),
                   "eecc": (build_eecc, eecc_operator_set)}


def synthesis_check(code_name: str, N: int, tol: float) -> Dict:
    """Closed-form codewords versus joint unity eigenspace (PCC, EECC) or
    symmetry-eigenvalue check (BC)."""
    name = "synthesis_%s_N%d" % (code_name, N)
    if code_name in _SYNTHESIS_SETS:
        builder, operator_set = _SYNTHESIS_SETS[code_name]
        spec = builder(N)
        _, ops = operator_set(N)
        synth = joint_unity_eigenspace(ops, tol)
        dist = projector_distance(spec.logical_states, synth)
        return {"name": name, "passed": dist < 1e-8,
                "detail": "projector distance %.2e, dim %d" % (dist, len(synth))}
    if code_name == "bc":
        spec = build_bc(N)
        S = bc_symmetry_operator(N, spec.basis)
        # S w sums S's columns left to right, so the printed residuals
        # do not depend on the BLAS build's summation order.
        dev = max(
            float(np.linalg.norm(sum(S[:, j] * a for j, a in enumerate(w.amplitudes))
                                 - w.amplitudes))
            for w in spec.logical_states
        )
        return {"name": name, "passed": dev < 1e-8,
                "detail": "max ||S w - w|| = %.2e" % dev}
    return {"name": name, "passed": True,
            "detail": "no symmetry cross-check for this family"}


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (passed, results).


def cmd_synth(args, config: RunConfig):
    spec = build(args.code, args.N)
    check = synthesis_check(args.code.lower(), args.N, config.tolerance)
    results = [
        {"name": "codewords_%s_N%d" % (spec.name, args.N), "passed": True,
         "detail": spec.to_json()},
        check,
    ]
    return check["passed"], results


def _error_set_for(args, spec):
    choice = args.errors
    reads = {"lowest-order": ("gamma",), "ad": ("gamma", "order")}.get(choice, ())
    for flag in ("gamma", "order"):
        if getattr(args, flag) is not None and flag not in reads:
            raise ValueError("--%s does not apply to --errors %s" % (flag, choice))
    gamma = 0.01 if args.gamma is None else args.gamma
    if choice == "lowest-order":
        return lowest_order_loss_kraus(gamma, spec)
    if choice.startswith("xi"):
        m = int(choice[2:])
        return xi_set(m, spec)
    if choice == "ad":
        order = 1 if args.order is None else args.order
        out = []
        for m in range(order + 1):
            out.extend(ad_product_set(gamma, m, spec))
        return out
    raise ValueError("unknown error family %r" % choice)


def cmd_kl_check(args, config: RunConfig):
    spec = build(args.code, args.N)
    errs = _error_set_for(args, spec)
    report = kl_check(spec, errs, config.tolerance)
    results = [{
        "name": "kl_%s_N%d_%s" % (spec.name, args.N, args.errors),
        "passed": report.verdict,
        "detail": "offdiag %.3e distortion %.3e labels %s" % (
            report.max_offdiag_residual, report.max_distortion_residual,
            report.labels),
        "alpha": report.to_json_dict()["alpha"],
    }]
    return report.verdict, results


def cmd_syndromes(args, config: RunConfig):
    spec = build(args.code, args.N)
    table = syndrome_table(spec, monitored_order=args.order)
    pairs = [(r.p, r.q) for r in table]
    distinct = len(set(pairs)) == len(pairs)
    if config.format == "csv":
        print(to_csv(table), end="")
        return distinct, []
    results = [{"name": "row_%s" % r.error_label, "passed": True,
                "detail": "p=%s q=%s" % (list(r.p), list(r.q))} for r in table]
    results.append({"name": "syndromes_distinct", "passed": distinct,
                    "detail": "%d rows" % len(table)})
    return distinct, results


def cmd_recover(args, config: RunConfig):
    if args.trials < 1:
        raise ValueError("--trials must be >= 1, got %d" % args.trials)
    spec = build(args.code, args.N)
    rng = np.random.default_rng(config.seed)
    states = random_logical_states(spec, rng, args.trials)
    _, fids = full_recovery(spec, args.error, states)
    worst = min(1.0, float(fids.min()))
    passed = worst >= 1 - 1e-10
    results = [{
        "name": "recover_%s_N%d_%s" % (spec.name, args.N, args.error),
        "passed": passed,
        "detail": "min fidelity %.12f over %d trials" % (worst, args.trials),
    }]
    return passed, results


def _gate_rows() -> List[Dict]:
    return [
        {"name": c["name"], "passed": c["passed"],
         "detail": "decomposition=%s max_deviation=%.3e" % (
             c["decomposition"], c["max_deviation"])}
        for c in gates_mod.verify_gates()
    ]


def cmd_gates(args, config: RunConfig):
    rows = _gate_rows()
    return all(r["passed"] for r in rows), rows


def _bound_rows() -> List[Dict]:
    """Bound theorem rows, then the N=2 PCC and EECC loss-bound saturation."""
    rows = bounds_mod.theorem_checks()
    for spec in (build_pcc(2), build_eecc(2)):
        rep = bounds_mod.saturation_report(spec)
        rows.append({"name": "saturation_%s" % rep["code"],
                     "passed": rep["saturates"], "detail": rep["detail"]})
    return rows


_BOUND_DEFAULTS = {"n": 1, "q": 2, "b": 2, "k": 1, "t": 1}


def _bound_flags(args, mode: str, reads):
    """Values of the flags a bounds mode reads, defaulted; any other flag
    that was given is a usage error."""
    for flag in ("sweep",) + tuple(_BOUND_DEFAULTS):
        if getattr(args, flag) is not None and flag not in reads:
            raise ValueError("--%s does not apply to bounds %s" % (flag, mode))
    return [_BOUND_DEFAULTS[f] if getattr(args, f) is None else getattr(args, f)
            for f in reads if f != "sweep"]


def cmd_bounds(args, config: RunConfig):
    which = args.which
    if which == "theorems":
        _bound_flags(args, which, ())
        rows = _bound_rows()
        return all(r["passed"] for r in rows), rows
    if which == "rotation" and args.sweep:
        b, k, t = _bound_flags(args, "rotation --sweep", ("sweep", "b", "k", "t"))
        results = []
        for q in range(2, 17):
            n = bounds_mod.min_n(q, b, k, t)
            results.append({"name": "min_n_q%d" % q, "passed": True,
                            "detail": "min_n=%d rate=%.4f" % (
                                n, bounds_mod.code_rate(n, q, b, k))})
        return True, results
    if which == "rotation":
        query = bounds_mod.BoundQuery(*_bound_flags(args, which, ("n", "q", "b", "k", "t")))
        ok = bounds_mod.rotation_bound_holds(query)
        return ok, [{"name": "rotation_bound", "passed": ok,
                     "detail": str(query)}]
    if which == "loss":
        n, q, b, k = _bound_flags(args, which, ("n", "q", "b", "k"))
        ok = bounds_mod.loss_bound_holds(n, q, b, k)
        return ok, [{"name": "loss_bound", "passed": ok,
                     "detail": "(1+3n)b^k <= (4q-3)^n at n=%d q=%d b=%d k=%d"
                               % (n, q, b, k)}]
    raise ValueError("unknown bounds mode %r" % which)


# ---------------------------------------------------------------------------
# Acceptance-criteria runners used by `report all`.  Each takes the run's
# config: --seed and --tolerance drive the seeded draws and the KL and
# eigenspace tolerances, while the published precision thresholds stay fixed.


def _check(name: str, failures: List[str], ok_detail: str,
           limit: Optional[int] = None) -> Dict:
    """Report row that passes when nothing failed; its detail joins the
    first `limit` failures (all when None), or is `ok_detail`."""
    return {"name": name, "passed": not failures,
            "detail": "; ".join(failures[:limit]) or ok_detail}


def criterion_kl_alpha(config: RunConfig = RunConfig()) -> Dict:
    failures = []
    cases = [
        (build_pcc(2), 3.0, 0.5), (build_pcc(3), 6.0, 1.0), (build_eecc(2), 3.0, 1.0),
    ]
    for gamma in (0.01, 0.1):
        for spec, total, per_mode in cases:
            rep = kl_check(spec, lowest_order_loss_kraus(gamma, spec), tol=1e-12)
            if not rep.verdict:
                failures.append("%s gamma=%g KL fails" % (spec.name, gamma))
            a = rep.alpha
            if abs(a[0, 0] - (1 - total * gamma)) > 1e-12:
                failures.append("%s alpha_00" % spec.name)
            for u in range(1, a.shape[0]):
                if abs(a[u, u] - per_mode * gamma) > 1e-12:
                    failures.append("%s alpha_%d%d" % (spec.name, u, u))
            off = a - np.diag(np.diag(a))
            if np.max(np.abs(off)) > 1e-12:
                failures.append("%s alpha offdiag" % spec.name)
    # Gain condition for the EECC: <a~| a_h a_j^dag |b~> = 2 delta_hj delta_ab.
    spec = build_eecc(2)
    basis = enclosing_basis(spec, errors_mod._unit_shifts(3, 1))
    words = [embed(w, basis) for w in spec.logical_states]
    for h in range(3):
        for j in range(3):
            raise_h = ladder(h, "raise", basis)
            raise_j = ladder(j, "raise", basis)
            for a, wa in enumerate(words):
                for b, wb in enumerate(words):
                    # <a~| a_h a_j^dag |b~> = <a_h^dag a~, a_j^dag b~>
                    val = inner_product(apply(raise_h, wa), apply(raise_j, wb))
                    expected = 2.0 if (h == j and a == b) else 0.0
                    if abs(val - expected) > 1e-12:
                        failures.append("gain <%d|a_%d a_%d^dag|%d>" % (a, h, j, b))
    return _check("1_kl_alpha_matrices", failures, "alpha values exact to 1e-12")


def criterion_symmetry_synthesis(config: RunConfig = RunConfig()) -> Dict:
    tol = config.tolerance
    failures = []
    try:
        for code, N in (("pcc", 3), ("pcc", 2), ("eecc", 2)):
            res = synthesis_check(code, N, tol)
            if not res["passed"]:
                failures.append(res["name"])
        # Dimension flow 9 -> 5 -> 3 for the two-qutrit construction.
        basis, full_ops = pcc_operator_set(3)
        z_ops = [z_pair_operator(3, pair, g, basis) for g in (1, 2) for pair in ("sp", "ip")]
        v_op = inversion_operator_all_groups(2, basis)
        dims = (
            len(joint_unity_eigenspace(z_ops, tol)),
            len(joint_unity_eigenspace(z_ops + [v_op], tol)),
            len(joint_unity_eigenspace(full_ops, tol)),
        )
        if dims != (9, 5, 3):
            failures.append("dimension flow %s != (9, 5, 3)" % (dims,))
    except symmetry_mod.EmptyEigenspace as exc:  # tol below what the SVD resolves
        failures.append(str(exc))
    return _check("2_symmetry_synthesis", failures,
                  "projector distance < 1e-8, flow 9->5->3")


def criterion_bc_kl_and_moments(config: RunConfig = RunConfig()) -> Dict:
    failures = []
    for N, max_m in ((2, 2), (3, 3)):
        spec = build_bc(N)
        for m in range(max_m + 1):
            rep = kl_check(spec, xi_set(m, spec), tol=config.tolerance)
            if not rep.verdict:
                failures.append("BC N=%d xi_%d (offdiag %.1e distortion %.1e)"
                                % (N, m, rep.max_offdiag_residual,
                                   rep.max_distortion_residual))
    for N in range(2, 7):
        spec = build_bc(N)
        for kind in ("loss", "gain", "dephasing"):
            for m in range(1, N + 1):
                top = m - 1 if kind == "dephasing" else m
                for h in range(top + 1):
                    for g in range(top - h + 1):
                        z = bc_moment_numerator(N, h, g, m, "zero", kind)
                        o = bc_moment_numerator(N, h, g, m, "one", kind)
                        if z != o:
                            failures.append("moment N=%d %s h=%d g=%d m=%d"
                                            % (N, kind, h, g, m))
                        if kind == "dephasing":
                            exps = (h, g, m - 1 - h - g)
                        else:
                            exps = (h, g, m - h - g)
                        basis = enclosing_basis(spec, [errors_mod._shift(exps, kind)])
                        op = errors_mod._monomial(basis, exps, kind)
                        img = apply(op, embed(spec.logical_states[0], basis))
                        brute = inner_product(img, img)
                        exact = float(bc_moment_sum(N, h, g, m, "zero", kind))
                        if abs(brute - exact) > 1e-9 * max(1.0, exact):
                            failures.append("brute force N=%d %s h=%d g=%d m=%d"
                                            % (N, kind, h, g, m))
    return _check("3_bc_kl_and_moment_identities", failures,
                  "KL and exact moment identities hold for N <= 6", limit=5)


def criterion_two_mode_bc(config: RunConfig = RunConfig()) -> Dict:
    """Each monitored amplitude-damping configuration A_s(h)A_p(m-h) is
    correctable on its own: its (diagonal) E^dag E has equal logical
    expectations and no cross-logical element.  The joint set over h of a
    given order fails Knill-Laflamme at order gamma (images of the two
    codewords collide), so correction requires the parity measurement that
    identifies (h, m-h); pairs of configurations with the same signal-loss
    parity do pass jointly, with off-diagonal Hermitian alpha."""
    tol = config.tolerance
    failures = []
    for N in (2, 3):
        spec = build_two_mode_bc(N)
        for gamma in (0.01, 0.05):
            for m in range(1, N + 1):
                singles = ad_product_set(gamma, m, spec)
                for err in singles:
                    rep = kl_check(spec, [err], tol=tol)
                    if not rep.verdict:
                        failures.append("N=%d gamma=%g %s offdiag %.1e"
                                        % (N, gamma, err.label,
                                           rep.max_offdiag_residual))
                same_parity = singles[::2]
                if len(same_parity) > 1:
                    rep = kl_check(spec, same_parity, tol=tol)
                    if not rep.verdict:
                        failures.append("N=%d gamma=%g m=%d same-parity set"
                                        % (N, gamma, m))
    return _check("4_two_mode_bc_amplitude_damping", failures,
                  "per-configuration KL residuals < %s"
                  % np.format_float_scientific(tol, exp_digits=1, trim="-"),
                  limit=4)


def expected_syndrome_rows(groups: int):
    """(label, p, q) rows of the PCC (groups=2) or EECC (groups=1) syndrome
    table: p flips the hit group's two parities that contain the hit mode,
    q is that group's net photon change mod 3."""
    flips = {"s": (1, 1, 0), "i": (1, 0, 1), "p": (0, 1, 1)}
    rows = []
    for prefix, q_delta in (("a", 2), ("adag", 1)):
        for group in range(1, groups + 1):
            for mode in ("s", "i", "p"):
                p = [0] * (3 * groups)
                p[3 * (group - 1):3 * group] = flips[mode]
                q = [0] * groups
                q[group - 1] = q_delta
                tag = mode + ("%d" % group if groups > 1 else "")
                rows.append(("%s_%s" % (prefix, tag), tuple(p), tuple(q)))
    return rows


def criterion_syndrome_tables(config: RunConfig = RunConfig()) -> Dict:
    failures = []
    for spec, expected in ((build_pcc(3), expected_syndrome_rows(2)),
                           (build_eecc(2), expected_syndrome_rows(1))):
        table = syndrome_table(spec)
        got = {r.error_label: (r.p, r.q) for r in table}
        for label, p, q in expected:
            if label not in got:
                failures.append("%s missing row %s" % (spec.name, label))
            elif got[label] != (p, q):
                failures.append("%s row %s: got %s expected %s"
                                % (spec.name, label, got[label], (p, q)))
        pairs = [(r.p, r.q) for r in table]
        if len(set(pairs)) != len(pairs):
            failures.append("%s has colliding (p, q) pairs" % spec.name)
        if len(table) != len(expected):
            failures.append("%s has %d rows, expected %d"
                            % (spec.name, len(table), len(expected)))
    return _check("5_syndrome_tables", failures,
                  "12-row and 6-row tables match; (p,q) distinct", limit=4)


def criterion_recovery(config: RunConfig = RunConfig()) -> Dict:
    trials = 100
    failures = []
    rng = np.random.default_rng(config.seed)
    for spec, labels in ((build_pcc(3), ("a_s1", "a_p1")),
                         (build_eecc(2), ("a_s", "a_p"))):
        for label in labels:
            states = random_logical_states(spec, rng, trials)
            _, fids = full_recovery(spec, label, states)
            worst = min(1.0, float(fids.min()))
            if worst < 1 - 1e-10:
                failures.append("%s %s min fidelity %.2e below 1"
                                % (spec.name, label, 1 - worst))
    spec = build_bc(2)
    errs = xi_set(2, spec)
    try:
        recov = canonical_recovery(spec, errs, tol=config.tolerance)
    except KLViolation as exc:  # the error set fails KL at the run's tolerance
        failures.append("canonical BC N=2: %s" % exc)
    else:
        for err in errs:
            coeffs = random_logical_coefficients(rng, len(spec.logical_states), trials)
            worst = min(1.0, float(recovery_fidelity(spec, recov, err, coeffs).min()))
            if worst < 1 - 1e-10:
                failures.append("canonical BC N=2 error %s fidelity deficit %.2e"
                                % (err.label, 1 - worst))
    return _check("6_recovery_fidelity", failures,
                  "unit fidelity over %d seeded trials per case" % trials, limit=4)


def criterion_gates(config: RunConfig = RunConfig()) -> Dict:
    failed = [r["name"] for r in _gate_rows() if not r["passed"]]
    return _check("7_gate_identities",
                  ["failing: " + ", ".join(failed)] if failed else [],
                  "all decompositions match up to global phase")


def criterion_bounds(config: RunConfig = RunConfig()) -> Dict:
    failures = []
    if bounds_mod.min_n(3, 2, 1, 1) != 4:
        failures.append("qutrit-qubit min_n != 4")
    failures += [r["name"] for r in _bound_rows() if not r["passed"]]
    for spec, n_sat in ((build_pcc(2), 2), (build_eecc(2), 1)):
        if spec.parameters["n"] != n_sat:
            failures.append("saturation %s at n=%d" % (spec.name, spec.parameters["n"]))
    return _check("8_hamming_bounds", failures, "all exact-integer bound checks hold")


def criterion_metadata(config: RunConfig = RunConfig()) -> Dict:
    failures = []
    for N in range(2, 7):
        if codes_mod.code_rate(build_pcc(N)) != 0.5:
            failures.append("PCC N=%d rate" % N)
        if build_pcc(N).total_photons != 3 * (N - 1):
            failures.append("PCC N=%d photons" % N)
        if build_eecc(N).total_photons != 3 * (N - 1):
            failures.append("EECC N=%d photons" % N)
        if build_bc(N).total_photons != Fraction(3 * (2 * N - 1), 2):
            failures.append("BC N=%d photons" % N)
        if abs(codes_mod.code_rate(build_bc(N)) - 1 / math.log2(2 * N)) > 1e-15:
            failures.append("BC N=%d rate" % N)
    if abs(codes_mod.code_rate(build_eecc(2)) - 1 / math.log2(3)) > 1e-15:
        failures.append("EECC N=2 rate")
    return _check("9_rates_and_photon_numbers", failures, "rates and photon totals exact")


CRITERIA = [
    criterion_kl_alpha,
    criterion_symmetry_synthesis,
    criterion_bc_kl_and_moments,
    criterion_two_mode_bc,
    criterion_syndrome_tables,
    criterion_recovery,
    criterion_gates,
    criterion_bounds,
    criterion_metadata,
]


def cmd_report(args, config: RunConfig):
    results = [criterion(config) for criterion in CRITERIA]
    return all(r["passed"] for r in results), results


def validate_report_json(text: str) -> None:
    """Validate a JSON report against the bundled schema (needs jsonschema)."""
    import importlib.resources

    import jsonschema

    schema = json.loads(
        importlib.resources.files("chi2qec").joinpath("report.schema.json").read_text()
    )
    jsonschema.validate(json.loads(text), schema)


def build_parser() -> argparse.ArgumentParser:
    # Global options are accepted both before and after the subcommand;
    # the post-subcommand copies use SUPPRESS so they only override when
    # actually given.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="key=value config file")
    common.add_argument("--tolerance", type=float, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="chi2qec",
        description="Verification suite for three-wave-mixing bosonic codes.",
    )
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--tolerance", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--format", choices=("json", "csv", "text"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="build codewords and cross-check symmetries")
    p.add_argument("code", choices=("pcc", "eecc", "bc", "bc2mode"))
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("kl-check", parents=[common], help="Knill-Laflamme verification")
    p.add_argument("code", choices=("pcc", "eecc", "bc", "bc2mode"))
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--errors", required=True,
                   help="xi<m> (e.g. xi2), lowest-order, or ad")
    p.add_argument("--gamma", type=float, help="lowest-order and ad only (default 0.01)")
    p.add_argument("--order", type=int, help="ad only (default 1)")
    p.set_defaults(func=cmd_kl_check)

    p = sub.add_parser("syndromes", parents=[common], help="syndrome tables")
    p.add_argument("code", choices=("pcc", "eecc", "bc"))
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(func=cmd_syndromes)

    p = sub.add_parser("recover", parents=[common], help="full recovery over random trials")
    p.add_argument("code", choices=("pcc", "eecc"))
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--error", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("gates", parents=[common], help="gate decomposition identities")
    p.add_argument("action", choices=("verify",))
    p.set_defaults(func=cmd_gates)

    p = sub.add_parser("bounds", parents=[common], help="quantum Hamming bounds")
    p.add_argument("which", nargs="?", default="theorems",
                   choices=("theorems", "rotation", "loss"))
    # Each mode reads its own flags (defaults n=1 q=2 b=2 k=1 t=1):
    # rotation n q b k t, rotation --sweep b k t, loss n q b k, theorems none.
    for flag in _BOUND_DEFAULTS:
        p.add_argument("--" + flag, type=int)
    p.add_argument("--sweep", action="store_true", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("report", parents=[common], help="full reproduction matrix")
    p.add_argument("what", choices=("all",))
    p.set_defaults(func=cmd_report)

    return parser


# Built on the first `main` call, not at import, and reused after that; it
# binds the `cmd_*` handlers as they are at that first call.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = resolve_config(args)
        passed, results = args.func(args, config)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    text = emit(config, args.command, passed, results)
    if text:
        print(text)
    if config.format == "json" and args.command == "report":
        try:
            validate_report_json(text)
        except ImportError:
            pass
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
