"""Error-operator families and Knill-Laflamme verification.

kl_check implements the general correctability criterion
P E_u^dag E_v P = alpha_uv P with Hermitian (not necessarily diagonal)
alpha.  For photon-loss/gain sets the off-diagonal alpha entries vanish
automatically (photon-number bookkeeping); for dephasing sets they are
allowed, which is exactly the projection-correctability relaxation.
"""

from dataclasses import dataclass
import itertools
import math
from typing import List, Sequence

import numpy as np

from .codes import CodeSpec
from .fock import (
    _check_size,
    BasisIndex,
    DimensionMismatch,
    LinearOperator,
    ModeLayout,
    compose,
    ladder,
    monomial_operator,
)

DEFAULT_KL_TOL = 1e-9


class KLViolation(RuntimeError):
    """Recovery requested for an error set that fails the KL condition."""


@dataclass
class ErrorOperator:
    label: str
    operator: LinearOperator


@dataclass
class KLReport:
    labels: List[str]
    alpha: np.ndarray
    max_offdiag_residual: float
    max_distortion_residual: float
    verdict: bool


def _mode_tag(layout: ModeLayout, mode: int) -> str:
    label, group = layout.modes[mode]
    short = {"signal": "s", "idler": "i", "pump": "p"}[label]
    return short if layout.n_groups == 1 else "%s%d" % (short, group)


def _closure(kets, shifts) -> BasisIndex:
    """`kets` and every nonnegative ket + shift, in lexicographic order."""
    kets = list(kets)
    out = set(kets)
    for shift in shifts:
        for ket in kets:
            moved = tuple(n + d for n, d in zip(ket, shift))
            if min(moved) >= 0:
                out.add(moved)
    return BasisIndex(sorted(out))


def _support(code: CodeSpec):
    """Kets with a nonzero amplitude in some codeword, sorted (basis order)."""
    return sorted(set().union(*code.weights))


def _unit_shifts(modes: int, sign: int):
    """One photon more (sign 1) or fewer (sign -1) in each single mode."""
    return [tuple(sign * int(i == mode) for i in range(modes)) for mode in range(modes)]


def enclosing_basis(code: CodeSpec, shifts) -> BasisIndex:
    """The codewords' support plus every nonnegative ket + shift, sorted.

    An operator that moves photon numbers by one of `shifts` maps every
    codeword into this basis, so error images need no larger space.  The
    lexicographic order keeps image rows in the relative order a capped
    product space gives them.
    """
    return _closure(_support(code), shifts)


_FACTOR_OF_KIND = {"loss": "lower", "gain": "raise", "dephasing": "number"}


def _factors(exponents, kind):
    """A monomial's factors: mode 0's act first, then mode 1's, and so on."""
    factor = _FACTOR_OF_KIND[kind]
    return [(mode, factor) for mode, power in enumerate(exponents) for _ in range(power)]


def _shift(exponents, kind):
    """Photon-number change of a loss, gain or dephasing monomial."""
    sign = {"loss": -1, "gain": 1, "dephasing": 0}[kind]
    return tuple(sign * p for p in exponents)


def _monomial_label(layout, exponents, kind) -> str:
    stem = {"loss": "a_%s", "gain": "adag_%s", "dephasing": "n_%s"}[kind]
    parts = []
    for mode, power in enumerate(exponents):
        if power == 0:
            continue
        term = stem % _mode_tag(layout, mode)
        if power > 1:
            term += "^%d" % power
        parts.append(term)
    return " ".join(parts) if parts else "I"


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _xi_basis(m: int, code: CodeSpec) -> BasisIndex:
    """Enclosing basis of xi_m on `code`, after the size check.

    The check counts, before any shift is listed, the image entries a KL
    check of the whole set would stack: K*L image columns over at most
    (support kets) * (distinct shifts) rows.
    """
    nm = code.layout.n_modes
    loss = math.comb(m + nm - 1, nm - 1) if m else 0
    operators = 1 + 2 * loss + (math.comb(m + nm - 2, nm - 1) if m >= 2 else 0)
    rows = len(_support(code)) * (1 + 2 * loss)
    entries = operators * len(code.weights) * rows
    _check_size(entries, "xi_%d on %s would stack %d image entries" % (m, code.name, entries))
    return enclosing_basis(
        code, [_shift(e, kind) for e in _compositions(m, nm) for kind in ("loss", "gain")]
    )


def xi_set(m: int, code: CodeSpec) -> List[ErrorOperator]:
    """Order-m error set: all loss monomials of total degree m, their
    adjoints (gain), and dephasing monomials of total degree m-1, plus the
    identity.  Degree-0 dephasing coincides with the identity and is
    deduplicated.  The operators act on the code's xi_m enclosing basis."""
    if m < 0:
        raise ValueError("m must be >= 0")
    basis = _xi_basis(m, code)
    layout = code.layout
    ops = [ErrorOperator("I", LinearOperator.identity(basis))]
    families = [("loss", m), ("gain", m)] if m else []
    if m >= 2:
        families.append(("dephasing", m - 1))
    for kind, degree in families:
        ops += [ErrorOperator(_monomial_label(layout, e, kind),
                              monomial_operator(_factors(e, kind), basis))
                for e in _compositions(degree, layout.n_modes)]
    return ops


def lowest_order_loss_kraus(gamma: float, code: CodeSpec) -> List[ErrorOperator]:
    """Lowest-order photon-loss Kraus family: E_l = sqrt(gamma) a_l per mode
    and the no-jump operator E_0 = (I - gamma sum_l n_l)^(1/2), on the
    code's support and its single-loss images.

    E_0 agrees with the first-order expansion I - sum gamma n_l/2 at the
    order the family is valid to, and makes sum E^dag E = I exact on the
    code's support and its images for gamma below 1/(largest photon total on
    a support ket); a larger gamma is refused, as E_0 would not be real.
    """
    basis = enclosing_basis(code, _unit_shifts(code.layout.n_modes, -1))
    totals = basis.occupations.sum(axis=1)
    top = totals.max()  # a support ket's: each single-loss image holds one photon fewer
    if not (0 <= gamma and gamma * top < 1):
        raise ValueError("gamma must satisfy 0 <= gamma < 1/%d: %d is the largest photon "
                         "total among the %s support kets" % (top, top, code.name))
    diag = np.sqrt(1.0 - gamma * totals.astype(float))
    out = [ErrorOperator("E_0", LinearOperator.diagonal(basis, diag))]
    if gamma > 0:
        for mode in range(code.layout.n_modes):
            a = ladder(mode, "lower", basis)
            op = LinearOperator(basis, a.rows, math.sqrt(gamma) * a.coeffs)
            out.append(ErrorOperator("sqrt(gamma) a_%s" % _mode_tag(code.layout, mode), op))
    return out


def amplitude_damping_kraus(
    gamma: float, m: int, mode: int, basis: BasisIndex
) -> ErrorOperator:
    """A(m) = sum_{n>=m} sqrt(C(n,m)) gamma^{m/2} (1-gamma)^{(n-m)/2} |n-m><n|
    on one mode of `basis`; a column whose target is not in the basis is
    left empty.  On a basis that holds every ket below each of its kets on
    that mode, summing A(m)^dag A(m) over m resolves the identity exactly."""
    if not 0 <= gamma < 1:
        raise ValueError("gamma must satisfy 0 <= gamma < 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    rows = np.full(basis.dimension, -1, dtype=np.int64)
    coeffs = np.zeros(basis.dimension)
    for j, s in enumerate(basis.states):
        n = s[mode]
        target = s[:mode] + (n - m,) + s[mode + 1:]
        if n < m or target not in basis:
            continue
        rows[j] = basis.index_of(target)
        coeffs[j] = math.sqrt(math.comb(n, m)) * gamma ** (m / 2.0) * (1 - gamma) ** (
            (n - m) / 2.0
        )
    return ErrorOperator("A_%d(mode %d)" % (m, mode), LinearOperator(basis, rows, coeffs))


def check_ad_set_size(m: int, code: CodeSpec) -> None:
    """Refuse, with TruncationOverflow, an order-m damping set whose KL
    check would stack image entries over the size limit: K*L image columns
    over the support kets and every ket below them."""
    nm = code.layout.n_modes
    rows = sum(math.prod(n + 1 for n in ket) for ket in _support(code))
    operators = math.comb(m + nm - 1, nm - 1)
    entries = operators * len(code.weights) * rows
    _check_size(entries, "order-%d damping on %s would stack %d image entries"
                % (m, code.name, entries))


def ad_product_set(gamma: float, m: int, code: CodeSpec) -> List[ErrorOperator]:
    """All products of per-mode amplitude-damping Kraus operators with total
    loss order m over every mode of the code.

    Damping only lowers photon numbers, so the operators act on the code's
    support and every ket below a support ket: one basis for every order m,
    on which the products of all orders resolve the identity.  As for xi_m,
    an oversized set is refused (`check_ad_set_size`) before anything is
    built.
    """
    check_ad_set_size(m, code)
    nm = code.layout.n_modes
    support = _support(code)
    basis = BasisIndex(sorted({
        below for ket in support
        for below in itertools.product(*(range(n + 1) for n in ket))
    }))
    out = []
    for exps in _compositions(m, nm):
        op = LinearOperator.identity(basis)
        for mode, k in enumerate(exps):
            op = compose(amplitude_damping_kraus(gamma, k, mode, basis).operator, op)
        label = " ".join("A_%d(%d)" % (mode, k) for mode, k in enumerate(exps))
        out.append(ErrorOperator(label, op))
    return out


def kl_check(
    code: CodeSpec, errors: Sequence[ErrorOperator], tol: float = DEFAULT_KL_TOL
) -> KLReport:
    """Evaluate <a~|E_u^dag E_v|b~> for all error pairs and logical pairs.

    alpha_uv is the mean of the logical-diagonal entries; the verdict is
    true iff (i) every a != b entry vanishes within tol and (ii) every
    logical-diagonal entry matches alpha_uv within tol.
    """
    if not errors:
        raise ValueError("kl_check needs at least one error operator")
    basis = errors[0].operator.domain
    for e in errors:
        if e.operator.domain != basis:
            raise ValueError("error operators must share a basis")
    words = code.block(basis)
    # Columns [e0 w0, e0 w1, ..., e1 w0, ...]: each error applied to the block.
    images = np.hstack([e.operator.apply(words) for e in errors])
    K = len(errors)
    L = words.shape[1]
    gram = images.conjugate().transpose() @ images  # (K*L) x (K*L)
    M = gram.reshape(K, L, K, L).transpose(0, 2, 1, 3)  # [u, v, a, b]

    alpha = M.trace(axis1=2, axis2=3) / L
    diag = np.einsum("uvaa->uva", M)
    off = M.copy()
    for a in range(L):
        off[:, :, a, a] = 0.0
    max_off = float(np.max(np.abs(off))) if off.size else 0.0
    max_dist = float(np.max(np.abs(diag - alpha[:, :, None])))
    return KLReport(
        labels=[e.label for e in errors],
        alpha=alpha,
        max_offdiag_residual=max_off,
        max_distortion_residual=max_dist,
        verdict=bool(max_off <= tol and max_dist <= tol),
    )


# ---------------------------------------------------------------------------
# Exact binomial-code moment sums.


def _falling(n: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= n - t
        if out == 0:
            return 0
    return out


def _rising(n: int, k: int) -> int:
    out = 1
    for t in range(1, k + 1):
        out *= n + t
    return out


def bc_moment_numerator(code: CodeSpec, h: int, g: int, m: int, side: str,
                        kind: str) -> int:
    """Exact integer 4^{N-1} <side| E^dag E |side> for the binomial code
    `code` (a `build_bc` result), summed over the codeword's integer
    weights; the moment is this over `code.denominator`.

    kind "loss": E = a_s^h a_i^g a_p^{m-h-g} (0 <= h+g <= m <= N);
    kind "gain": the adjoint monomial of the same exponents;
    kind "dephasing": E = n_s^h n_i^g n_p^{m-1-h-g} (h+g <= m-1).
    """
    if side not in ("zero", "one"):
        raise ValueError("side must be 'zero' or 'one'")
    if kind not in ("loss", "gain", "dephasing"):
        raise ValueError("unknown kind %r" % kind)
    if h < 0 or g < 0 or m < 0:
        raise ValueError("negative exponent")
    if kind == "dephasing":
        if m < 1 or h + g > m - 1:
            raise ValueError("dephasing requires 1 <= m and h+g <= m-1")
        lp = m - 1 - h - g
    else:
        if h + g > m or m > code.parameters["N"]:
            raise ValueError("require h+g <= m <= N")
        lp = m - h - g
    total = 0
    for (ns, ni, npump), w in code.weights[("zero", "one").index(side)].items():
        if kind == "loss":
            term = _falling(ns, h) * _falling(ni, g) * _falling(npump, lp)
        elif kind == "gain":
            term = _rising(ns, h) * _rising(ni, g) * _rising(npump, lp)
        else:
            term = ns ** (2 * h) * ni ** (2 * g) * npump ** (2 * lp)
        total += w * term
    return total


# ---------------------------------------------------------------------------
# Canonical recovery.


def canonical_recovery(
    code: CodeSpec, errors: Sequence[ErrorOperator], tol: float = DEFAULT_KL_TOL
) -> List[np.ndarray]:
    """Standard KL recovery: diagonalize alpha, orthonormalize the error
    subspaces and return the projector-conjugated isometries as Kraus
    matrices on the errors' basis.  Requires the error set to pass
    kl_check."""
    report = kl_check(code, errors, tol)
    if not report.verdict:
        raise KLViolation(
            "error set fails KL (offdiag %.3e, distortion %.3e)"
            % (report.max_offdiag_residual, report.max_distortion_residual)
        )
    basis = errors[0].operator.domain
    W = code.block(basis)  # dim x L isometry onto the code space
    alpha = (report.alpha + report.alpha.conjugate().transpose()) / 2
    evals, U = np.linalg.eigh(alpha)
    kraus = []
    for k in range(len(errors)):
        d = evals[k]
        if d <= tol:
            continue
        # F_k restricted to the code space: dim x L.
        FkW = sum(
            U[u, k] * errors[u].operator.apply(W) for u in range(len(errors))
        )
        Vk = FkW / math.sqrt(d)  # isometry from code space into error sector
        kraus.append(W @ Vk.conjugate().transpose())  # error sector back to code space
    return kraus


def recovery_fidelity(
    code: CodeSpec,
    recovery: Sequence[np.ndarray],
    error: ErrorOperator,
    coeffs: np.ndarray,
) -> np.ndarray:
    """Channel fidelity of error-then-recovery on each column of an L x T
    block of logical amplitudes; returns the T fidelities.  The recovery
    Kraus matrices act on the error's basis."""
    basis = error.operator.domain
    words = code.block(basis)
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 2 or coeffs.shape[0] != words.shape[1]:
        raise DimensionMismatch(
            "coefficient block shape %r needs %d rows" % (coeffs.shape, words.shape[1])
        )
    psi = words @ coeffs
    psi = psi / np.linalg.norm(psi, axis=0)
    corrupted = error.operator.apply(psi)
    nc = np.linalg.norm(corrupted, axis=0)
    if np.any(nc == 0):
        raise ValueError("error annihilates a state of the block")
    corrupted /= nc
    fid_sq = sum(
        np.abs(np.sum(psi.conjugate() * (R @ corrupted), axis=0)) ** 2
        for R in recovery
    )
    return np.sqrt(np.minimum(fid_sq, 1.0))
