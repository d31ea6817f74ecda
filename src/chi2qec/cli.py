"""Command-line front end producing reproducible verification reports.

Exit codes: 0 all verdicts pass, 1 verification failure, 2 usage error
(an error set too large to build is one), 141 when the reader closes
standard output before the output is written (`chi2qec ... | head -1`):
the rest is dropped, with no traceback, and the status is the one a
SIGPIPE kill gives in the shell.  Reports are deterministic for a
fixed seed and config.  Every JSON document is checked against the bundled
report.schema.json (see `schema`) before it is printed; an invalid document
raises SchemaViolation and nothing is printed.  A valid one is printed with
the bytes of `json.dumps(doc, indent=2, sort_keys=True)`, a complex array
(kl-check's alpha) as nested `[re, im]` lists.
"""

import argparse
from dataclasses import dataclass
from fractions import Fraction
import json
import math
import os
import random
import re
import sys
from typing import Dict, List, Optional

import numpy as np

from . import bounds as bounds_mod
from . import codes as codes_mod
from . import gates as gates_mod
from . import symmetry as symmetry_mod
from .codes import CodeSpec, build, build_bc, build_eecc, build_pcc, build_two_mode_bc
from .errors import (
    KLViolation,
    ad_product_set,
    bc_moment_numerator,
    canonical_recovery,
    check_ad_set_size,
    kl_check,
    lowest_order_loss_kraus,
    monomial_factors,
    recovery_fidelity,
    xi_set,
)
from .fock import (
    _check_size,
    TruncationOverflow,
    enumerate_irreducible_subspace,
    monomial_action,
    shared,
)
from .schema import check_schema, report_schema
from .symmetry import (
    bc_symmetry_operator,
    inversion_operator,
    inversion_operator_all_groups,
    joint_unity_eigenspace,
    swap_operator,
    z_pair_operator,
)
from .syndromes import (
    check_recovery,
    full_recovery,
    random_logical_coefficients,
    random_logical_states,
    syndrome_table,
    to_csv,
)

# A recovered state passes when its fidelity with the input is at least this.
RECOVERY_FIDELITY_BAR = 1 - 1e-10


@dataclass(frozen=True)
class RunConfig:
    tolerance: float = 1e-9
    seed: int = 2026
    format: str = "json"

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be finite and positive, got %r"
                             % self.tolerance)
        if self.seed < 0:  # random.Random would take -3 as the seed 3
            raise ValueError("expected non-negative integer")
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
    """The job's one RunConfig: defaults, then the --config file's values,
    then the flags.  A file is checked on its own first, so an invalid value
    in it is refused even where a flag overrides it."""
    values = {}
    if getattr(args, "config", None):
        raw = load_config_file(args.config)
        casts = {"tolerance": float, "seed": int, "format": str}
        unknown = set(raw) - set(casts)
        if unknown:
            raise ValueError("unknown config keys: %s" % sorted(unknown))
        values = {k: casts[k](v) for k, v in raw.items()}
        RunConfig(**values)
    for attr in ("tolerance", "seed", "format"):
        value = getattr(args, attr, None)
        if value is not None:
            values[attr] = value
    return RunConfig(**values)


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
        check_schema(doc, report_schema())
        return _json_text(doc)
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


def _json_text(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` of a value nested at
    `indent`, for documents whose object keys are strings; a complex ndarray
    is written as nested `[re, im]` lists."""
    if isinstance(value, np.ndarray) and np.iscomplexobj(value):
        return _complex_array_text(value, indent)
    inner = indent + "  "
    if isinstance(value, dict) and value:
        return "{\n%s\n%s}" % (",\n".join(
            "%s%s: %s" % (inner, json.dumps(key), _json_text(value[key], inner))
            for key in sorted(value)), indent)
    if isinstance(value, (list, tuple)) and value:
        return "[\n%s\n%s]" % (",\n".join(
            inner + _json_text(item, inner) for item in value), indent)
    return json.dumps(value)


def _complex_array_text(array: np.ndarray, indent: str) -> str:
    """A finite, nonempty array is written by one %-format of a template of
    its shape, `%r` of a float being the float.__repr__ that json writes.
    Any other goes through json one float at a time, which writes NaN and
    Infinity."""
    pairs = np.stack([array.real, array.imag], axis=-1)
    if not (pairs.size and np.isfinite(pairs).all()):
        return _json_text(pairs.tolist(), indent)
    template = "%r"
    for depth in reversed(range(pairs.ndim)):
        outer = indent + "  " * depth
        item = outer + "  " + template
        template = "[\n%s\n%s]" % (",\n".join([item] * pairs.shape[depth]), outer)
    return template % tuple(pairs.ravel().tolist())


# ---------------------------------------------------------------------------
# Symmetry-synthesis operator sets (cross-checks for synth).


@shared
def pcc_operator_set(N: int):
    """Commuting symmetries whose joint unity eigenspace is the pair code,
    as (basis, operator tuple), shared per N.

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
        pi1 = symmetry_mod.signal_parity_operator(basis, group=1)
        pi2 = symmetry_mod.signal_parity_operator(basis, group=2)
        ops.append(symmetry_mod.compose("Pi_s1 Pi_s2", pi1, pi2))
    return basis, tuple(ops)


@shared
def eecc_operator_set(N: int):
    """The EECC's one symmetry, the inversion of H_{2N-2}, as (basis,
    operator tuple), shared per N."""
    basis = enumerate_irreducible_subspace(2 * N - 2, groups=1)
    return basis, (inversion_operator(2 * N - 2, 1, basis),)


_SYNTHESIS_SETS = {"pcc": pcc_operator_set, "eecc": eecc_operator_set}


_BC_SYMMETRY_FACTS = ("orthonormal codewords", "V|+/-> = +/-|+/->",
                      "Pi_s|k~> = (-1)^k |k~>")


def _orthonormal(words: List[Dict], denominator: int) -> bool:
    """Disjoint supports, and each codeword's weights sum to the denominator."""
    return (len(set().union(*words)) == sum(map(len, words))
            and all(sum(word.values()) == denominator for word in words))


def _bc_symmetry_broken_facts(S: symmetry_mod.BCSymmetry) -> List[str]:
    """The facts behind S|k~> = |k~> that fail, read from integers.
    Orthonormal codewords let U_BS^dagger map codeword k to its |+/->; V
    swapping the two kets of |+/-> with phase 0 flips |-> only; and Pi_s
    taking each ket of codeword k to one of equal weight times (-1)^k
    undoes it."""
    ends = list(S.ends)
    rows, phases = S.parity.rows.tolist(), S.parity.phases.tolist()
    holds = (
        _orthonormal(S.codewords, S.denominator),
        S.inversion.rows[ends].tolist() == ends[::-1]
        and S.inversion.phases[ends].tolist() == [0, 0],
        all(word.get(rows[j]) == w and 2 * phases[j] == k * S.parity.modulus
            for k, word in enumerate(S.codewords) for j, w in word.items()),
    )
    return [fact for fact, ok in zip(_BC_SYMMETRY_FACTS, holds) if not ok]


def synthesis_check(spec: CodeSpec) -> Dict:
    """Closed-form codewords versus joint unity eigenspace (PCC, EECC) or
    the exact facts by which the symmetry fixes each codeword (BC).  The
    PCC/EECC projectors are equal exactly when the codewords are orthonormal,
    every operator fixes every one (phase 0 and w[rows[j]] == w[j] on each
    support ket j) and there is one fixed orbit per codeword."""
    code, N = spec.name.lower(), spec.parameters["N"]
    name = "synthesis_%s_N%d" % (code, N)
    if code in _SYNTHESIS_SETS:
        _, ops = _SYNTHESIS_SETS[code](N)
        dim, L = len(joint_unity_eigenspace(ops)), len(spec.weights)
        words = [{ops[0].basis.index_of(k): w for k, w in word.items()} for word in spec.weights]
        fails = [] if _orthonormal(words, spec.denominator) else ["codewords are not orthonormal"]
        fails += ["%s does not fix codeword %d" % (op.name, k) for op in ops
                  for k, word in enumerate(words)
                  if any(op.phases[j] or word.get(op.rows[j]) != w for j, w in word.items())]
        fixed = fails[0] if fails else "orthonormal codewords fixed by every operator"
        return {"name": name, "passed": not fails and dim == L,
                "detail": "%s; dim %d %s L %d" % (fixed, dim, "!=" if dim != L else "=", L)}
    if code == "bc":
        broken = _bc_symmetry_broken_facts(bc_symmetry_operator(spec))
        detail = ("S w = w unproven; fails " + "; ".join(broken) if broken
                  else "S w = w exactly: " + "; ".join(_BC_SYMMETRY_FACTS))
        return {"name": name, "passed": not broken, "detail": detail}
    return {"name": name, "passed": True,
            "detail": "no symmetry cross-check for this family"}


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (passed, results).


def cmd_synth(args, config: RunConfig):
    spec = build(args.code, args.N)
    check = synthesis_check(spec)
    results = [
        {"name": "codewords_%s_N%d" % (spec.name, args.N), "passed": True,
         "detail": spec.to_json()},
        check,
    ]
    return check["passed"], results


# xi0, or xi and a number without a leading zero: the row name repeats the
# choice, so each m is accepted in one spelling only.
_XI_CHOICE = re.compile(r"xi(0|[1-9][0-9]*)")


def _error_set_for(args, spec):
    choice = args.errors
    reads = {"lowest-order": ("gamma",), "ad": ("gamma", "order")}.get(choice, ())
    for flag in ("gamma", "order"):
        if getattr(args, flag) is not None and flag not in reads:
            raise ValueError("--%s does not apply to --errors %s" % (flag, choice))
    gamma = 0.01 if args.gamma is None else args.gamma
    if choice == "lowest-order":
        return lowest_order_loss_kraus(gamma, spec)
    xi = _XI_CHOICE.fullmatch(choice)
    if xi:
        return xi_set(int(xi.group(1)), spec)
    if choice == "ad":
        order = 1 if args.order is None else args.order
        if order < 0:
            raise ValueError("--order must be >= 0, got %d" % order)
        # Every order's size is checked before any set is built, so an
        # oversized order is refused, by the name of the lowest such order,
        # without building the orders below it.
        for m in range(order + 1):
            check_ad_set_size(m, spec)
        return [e for m in range(order + 1) for e in ad_product_set(gamma, m, spec)]
    raise ValueError("unknown error family %r: expected xi0, xi<m> with m a "
                     "number without a leading zero, lowest-order or ad" % choice)


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
        "alpha": report.alpha,
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
    check_recovery(spec, args.error)
    kets = spec.basis.dimension
    _check_size(kets * args.trials, "recovery of %d trials on %d kets would stack %d entries"
                % (args.trials, kets, kets * args.trials))
    states = random_logical_states(spec, random.Random(config.seed), args.trials)
    _, fids = full_recovery(spec, args.error, states)
    worst = min(1.0, float(fids.min()))
    passed = worst >= RECOVERY_FIDELITY_BAR
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
    return bounds_mod.theorem_checks() + [
        bounds_mod.saturation_report(spec) for spec in (build_pcc(2), build_eecc(2))]


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
# config: --seed and --tolerance drive the seeded draws and the KL
# tolerances, while the published precision thresholds stay fixed.


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
    # Gain condition for the EECC: <a~| a_h a_j^dag |b~> = 2 delta_hj delta_ab,
    # the KL Gram of xi_1's three gain monomials with alpha = 2 I.
    spec = build_eecc(2)
    gains = [e for e in xi_set(1, spec) if e.label.startswith("adag_")]
    rep = kl_check(spec, gains, tol=1e-12)
    if not rep.verdict:
        failures.append("EECC gain KL fails")
    if np.max(np.abs(rep.alpha - 2 * np.eye(len(gains)))) > 1e-12:
        failures.append("EECC gain alpha != 2 I")
    return _check("1_kl_alpha_matrices", failures, "alpha values exact to 1e-12")


def criterion_symmetry_synthesis(config: RunConfig = RunConfig()) -> Dict:
    failures = []
    for code, N in (("pcc", 3), ("pcc", 2), ("eecc", 2)):
        res = synthesis_check(build(code, N))
        if not res["passed"]:
            failures.append(res["name"])
    # Dimension flow 9 -> 5 -> 3 for the two-qutrit construction: the four Z
    # pairs, then the inversion, then the swap and the parity product.
    _, full_ops = pcc_operator_set(3)
    dims = tuple(len(joint_unity_eigenspace(full_ops[:k])) for k in (4, 5, len(full_ops)))
    if dims != (9, 5, 3):
        failures.append("dimension flow %s != (9, 5, 3)" % (dims,))
    # The published 1e-8 threshold, met exactly: equal projectors are at distance 0.
    return _check("2_symmetry_synthesis", failures,
                  "projector distance < 1e-8, flow 9->5->3")


def criterion_bc_kl_and_moments(config: RunConfig = RunConfig()) -> Dict:
    """The BC corrects m-photon loss, m-photon gain and (m-1)th-order
    dephasing for every m <= N: KL on xi_m for N=2 (m <= 2) and N=3
    (m <= 3); for N=2..6, each monomial E's moment <w|E^dag E|w> is one
    exact integer sum for both codewords and matches, within 1e-9 times
    max(1, moment), the float sum_j |c_j w_j|^2 over the zero codeword's
    support kets j, c_j being E's coefficient on ket j (`monomial_action`).
    E moves every ket by one fixed shift, so distinct kets have distinct
    images and ||E w||^2 is exactly that sum."""
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
        zero = spec.amplitudes[0]
        occupations, word = np.array(list(zero)), np.array(list(zero.values()))
        for kind in ("loss", "gain", "dephasing"):
            for m in range(1, N + 1):
                top = m - 1 if kind == "dephasing" else m
                for h in range(top + 1):
                    for g in range(top - h + 1):
                        z = bc_moment_numerator(spec, h, g, m, "zero", kind)
                        o = bc_moment_numerator(spec, h, g, m, "one", kind)
                        if z != o:
                            failures.append("moment N=%d %s h=%d g=%d m=%d"
                                            % (N, kind, h, g, m))
                        exps = (h, g, top - h - g)
                        img = monomial_action(monomial_factors(exps, kind),
                                              occupations)[0] * word
                        brute = np.vdot(img, img).real
                        exact = float(Fraction(z, spec.denominator))
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
    rng = random.Random(config.seed)
    for spec, labels in ((build_pcc(3), ("a_s1", "a_p1")),
                         (build_eecc(2), ("a_s", "a_p"))):
        for label in labels:
            states = random_logical_states(spec, rng, trials)
            _, fids = full_recovery(spec, label, states)
            worst = min(1.0, float(fids.min()))
            if worst < RECOVERY_FIDELITY_BAR:
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
            coeffs = random_logical_coefficients(rng, len(spec.weights), trials)
            worst = min(1.0, float(recovery_fidelity(spec, recov, err, coeffs).min()))
            if worst < RECOVERY_FIDELITY_BAR:
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
    def rate(spec):
        return bounds_mod.code_rate(*(spec.parameters[x] for x in "nqbk"))

    failures = []
    for N in range(2, 9):
        pcc, bc = build_pcc(N), build_bc(N)
        if rate(pcc) != 0.5:
            failures.append("PCC N=%d rate" % N)
        # Every codeword's exact mean photon number equals the published total.
        for spec, total in ((pcc, 3 * (N - 1)), (build_eecc(N), 3 * (N - 1)),
                            (bc, Fraction(3 * (2 * N - 1), 2))):
            if any(mean != total for mean in codes_mod.mean_total_photons(spec)):
                failures.append("%s N=%d photons" % (spec.name, N))
        if abs(rate(bc) - 1 / math.log2(2 * N)) > 1e-15:
            failures.append("BC N=%d rate" % N)
    if abs(rate(build_eecc(2)) - 1 / math.log2(3)) > 1e-15:
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


def build_parser() -> argparse.ArgumentParser:
    # Global options are accepted both before and after the subcommand;
    # every copy uses SUPPRESS, so a later one overrides only when given.
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
        parents=[common],
    )
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
_parser = shared(build_parser)


def main(argv=None) -> int:
    try:
        status = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # Later writes, and the flush at exit, go to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return status


def _run(argv) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = resolve_config(args)
        passed, results = args.func(args, config)
    except BrokenPipeError:  # cmd_syndromes prints its CSV table itself
        raise
    except (ValueError, KeyError, OSError, TruncationOverflow) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    text = emit(config, args.command, passed, results)
    if text:
        print(text)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
