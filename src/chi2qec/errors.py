"""Error-operator families and Knill-Laflamme verification.

kl_check implements the general correctability criterion
P E_u^dag E_v P = alpha_uv P with Hermitian (not necessarily diagonal)
alpha.  For photon-loss/gain sets the off-diagonal alpha entries vanish
automatically (photon-number bookkeeping); for dephasing sets they are
allowed, which is exactly the projection-correctability relaxation.

Every loss, gain, dephasing and damping operator is built by one kernel,
`fock.shift_operator`: one photon-number shift, one coefficient per ket.

Each error set is shared per code value and m or gamma (`fock` states
the rule): `xi_set`, `lowest_order_loss_kraus` and `ad_product_set` run
their size and argument checks on every call, then return a new list of
the shared operators.  The damping sets of every order and gamma on one
code act on one shared down-closed basis.
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
    monomial_operator,
    shared,
    shift_closure,
    shift_operator,
    unit_shifts,
)

DEFAULT_KL_TOL = 1e-9


class KLViolation(RuntimeError):
    """Recovery requested for an error set that fails the KL condition."""


@dataclass(frozen=True)
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


def _support(code: CodeSpec):
    """Kets with a nonzero amplitude in some codeword, sorted (basis order)."""
    return sorted(set().union(*code.weights))


def enclosing_basis(code: CodeSpec, shifts) -> BasisIndex:
    """The codewords' support plus every nonnegative ket + shift, sorted.

    An operator that moves photon numbers by one of `shifts` maps every
    codeword into this basis, so error images need no larger space.  The
    lexicographic order keeps image rows in the relative order a capped
    product space gives them.
    """
    return shift_closure(_support(code), shifts)


_FACTOR_OF_KIND = {"loss": "lower", "gain": "raise", "dephasing": "number"}


def monomial_factors(exponents, kind):
    """A monomial's factors: mode 0's act first, then mode 1's, and so on."""
    factor = _FACTOR_OF_KIND[kind]
    return [(mode, factor) for mode, power in enumerate(exponents) for _ in range(power)]


def monomial_shift(exponents, kind):
    """Photon-number change of a loss, gain or dephasing monomial."""
    sign = {"loss": -1, "gain": 1, "dephasing": 0}[kind]
    return tuple(sign * p for p in exponents)


def monomial_label(layout, exponents, kind) -> str:
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


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def _check_xi_size(m: int, code: CodeSpec) -> None:
    """Refuse, with TruncationOverflow, an xi_m whose KL check would stack
    image entries over the size limit, counted before any shift is listed:
    K*L image columns over at most (support kets) * (distinct shifts) rows.
    """
    nm = code.layout.n_modes
    loss = math.comb(m + nm - 1, nm - 1) if m else 0
    operators = 1 + 2 * loss + (math.comb(m + nm - 2, nm - 1) if m >= 2 else 0)
    rows = len(_support(code)) * (1 + 2 * loss)
    entries = operators * len(code.weights) * rows
    _check_size(entries, "xi_%d on %s would stack %d image entries" % (m, code.name, entries))


def _xi_basis(m: int, code: CodeSpec) -> BasisIndex:
    """Enclosing basis of xi_m on `code`."""
    nm = code.layout.n_modes
    return enclosing_basis(
        code, [monomial_shift(e, kind) for e in compositions(m, nm) for kind in ("loss", "gain")]
    )


def xi_set(m: int, code: CodeSpec) -> List[ErrorOperator]:
    """Order-m error set: all loss monomials of total degree m, their
    adjoints (gain), and dephasing monomials of total degree m-1, plus the
    identity.  Degree-0 dephasing coincides with the identity and is
    deduplicated.  The operators act on the code's xi_m enclosing basis."""
    if m < 0:
        raise ValueError("m must be >= 0")
    _check_xi_size(m, code)
    return list(_xi_operators(m, code))


@shared
def _xi_operators(m: int, code: CodeSpec) -> tuple:
    basis = _xi_basis(m, code)
    layout = code.layout
    ops = [ErrorOperator("I", LinearOperator.identity(basis))]
    families = [("loss", m), ("gain", m)] if m else []
    if m >= 2:
        families.append(("dephasing", m - 1))
    for kind, degree in families:
        ops += [ErrorOperator(monomial_label(layout, e, kind),
                              monomial_operator(monomial_factors(e, kind), basis))
                for e in compositions(degree, layout.n_modes)]
    return tuple(ops)


def lowest_order_loss_kraus(gamma: float, code: CodeSpec) -> List[ErrorOperator]:
    """Lowest-order photon-loss Kraus family: E_l = sqrt(gamma) a_l per mode
    and the no-jump operator E_0 = (I - gamma sum_l n_l)^(1/2), on the
    code's support and its single-loss images.

    E_0 agrees with the first-order expansion I - sum gamma n_l/2 at the
    order the family is valid to, and makes sum E^dag E = I exact on the
    code's support and its images for gamma below 1/(largest photon total on
    a support ket); a larger gamma is refused, as E_0 would not be real.
    """
    top = max(map(sum, _support(code)))
    if not (0 <= gamma and gamma * top < 1):
        raise ValueError("gamma must satisfy 0 <= gamma < 1/%d: %d is the largest photon "
                         "total among the %s support kets" % (top, top, code.name))
    return list(_loss_kraus(gamma, code))


@shared
def _loss_kraus(gamma: float, code: CodeSpec) -> tuple:
    lowered = unit_shifts(code.layout.n_modes, -1)
    basis = enclosing_basis(code, lowered)
    diag = np.sqrt(1.0 - gamma * basis.occupations.sum(axis=1).astype(float))
    out = [ErrorOperator("E_0", LinearOperator.diagonal(basis, diag))]
    if gamma > 0:
        for mode, shift in enumerate(lowered):
            coeff = math.sqrt(gamma) * np.sqrt(basis.occupations[:, mode])
            out.append(ErrorOperator("sqrt(gamma) a_%s" % _mode_tag(code.layout, mode),
                                     shift_operator(basis, coeff, shift)))
    return tuple(out)


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
    """All products A_k0(0) A_k1(1) ... of per-mode damping Kraus operators,
    A_k(l) = sum_n sqrt(C(n,k)) gamma^{k/2} (1-gamma)^{(n-k)/2} |n-k><n| on
    mode l, with total loss order k0 + k1 + ... = m.

    Damping only lowers photon numbers, so the operators act on the code's
    support and every ket below a support ket: one basis for every order m,
    on which the products of all orders resolve the identity.  Each product
    is one `shift_operator` whose coefficient multiplies the per-mode
    factors, mode 0 first.  As for xi_m, an oversized set is refused
    (`check_ad_set_size`) before anything is built.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    check_ad_set_size(m, code)
    if not 0 <= gamma < 1:
        raise ValueError("gamma must satisfy 0 <= gamma < 1")
    return list(_damping_products(gamma, m, code))


@shared
def _damping_basis(code: CodeSpec) -> BasisIndex:
    """The code's support and every ket below a support ket: the one basis
    of every damping order and gamma on `code`."""
    return BasisIndex(sorted({
        below for ket in _support(code)
        for below in itertools.product(*(range(n + 1) for n in ket))
    }))


@shared
def _damping_products(gamma: float, m: int, code: CodeSpec) -> tuple:
    basis = _damping_basis(code)
    occupations = basis.occupations
    # factor[k][n]: A_k's coefficient on |n>, zero for n < k.
    factor = [np.array([math.sqrt(math.comb(n, k)) * gamma ** (k / 2.0)
                        * (1 - gamma) ** ((n - k) / 2.0) if n >= k else 0.0
                        for n in range(int(occupations.max()) + 1)])
              for k in range(m + 1)]
    out = []
    for exps in compositions(m, code.layout.n_modes):
        coeff = 1.0
        for mode, k in enumerate(exps):
            coeff = coeff * factor[k][occupations[:, mode]]
        label = " ".join("A_%d(%d)" % (mode, k) for mode, k in enumerate(exps))
        out.append(ErrorOperator(label, shift_operator(basis, coeff, monomial_shift(exps, "loss"))))
    return tuple(out)


def _gram_blocks(errors: Sequence[ErrorOperator], words: np.ndarray):
    """The diagonal blocks G_aa of the error images' Gram, as an L x K x K
    array, and the largest modulus in any a != b block.

    The images are one dim x K slab per codeword (column u of slab a is
    E_u w_a), and each K x K block G_ab = slab_a^dag slab_b is one product:
    an a != b block gives its largest modulus and is dropped.
    """
    K = len(errors)
    L = words.shape[1]
    slabs = np.empty((L, words.shape[0], K), dtype=complex)  # [a, row, u]
    for u, e in enumerate(errors):
        slabs[:, :, u] = e.operator.apply(words).transpose()
    diag = np.empty((L, K, K), dtype=complex)  # [a, u, v]
    peaks = []
    for a in range(L):
        bra = slabs[a].conjugate().transpose()
        for b in range(L):
            if a == b:
                np.matmul(bra, slabs[b], out=diag[a])
            else:
                peaks.append(np.abs(bra @ slabs[b]).max())
    return diag, float(np.max(peaks)) if peaks else 0.0


def kl_check(
    code: CodeSpec, errors: Sequence[ErrorOperator], tol: float = DEFAULT_KL_TOL
) -> KLReport:
    """Evaluate <a~|E_u^dag E_v|b~> for all error pairs and logical pairs.

    alpha_uv is the mean of the logical-diagonal entries; the verdict is
    true iff (i) every a != b entry vanishes within tol and (ii) every
    logical-diagonal entry matches alpha_uv within tol.

    The Gram is formed one K x K codeword-pair block at a time
    (`_gram_blocks`), so at most the K*L images, one conjugated dim x K
    slab of them, the L diagonal blocks and one more block are held at
    once, never the (KL) x (KL) Gram.
    """
    if not errors:
        raise ValueError("kl_check needs at least one error operator")
    basis = errors[0].operator.domain
    for e in errors:
        if e.operator.domain != basis:
            raise ValueError("error operators must share a basis")
    diag, max_off = _gram_blocks(errors, code.block(basis))
    alpha = diag[0].copy()
    for block in diag[1:]:
        alpha += block  # left to right in codeword order, as a trace sums
    alpha /= len(diag)
    max_dist = float(np.max(np.abs(diag - alpha)))
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


def _alpha_range_basis(alpha: np.ndarray, tol: float) -> np.ndarray:
    """K x r columns C with C^dag alpha C = I_r that span the range of the
    Hermitian positive semidefinite `alpha`, by pivoted Cholesky: Gram-Schmidt
    of the errors under alpha, in order of largest residual.

    Step r takes the error p with the largest residual d and stops when
    d <= tol; otherwise c = (e_p - C conj(L[p, :r])) / sqrt(d) is column r of
    C, L[:, r] = alpha c, and |L[:, r]|^2 comes off the residuals.
    """
    K = alpha.shape[0]
    C = np.zeros((K, K), dtype=complex)
    L = np.zeros((K, K), dtype=complex)
    residual = alpha.diagonal().real.copy()
    r = 0
    while r < K:
        p = int(np.argmax(residual))
        d = residual[p]
        if d <= tol:
            break
        c = -(C[:, :r] @ L[p, :r].conjugate())
        c[p] += 1.0
        c /= math.sqrt(d)
        C[:, r] = c
        L[:, r] = alpha @ c
        residual -= np.abs(L[:, r]) ** 2
        r += 1
    return C[:, :r]


def canonical_recovery(
    code: CodeSpec, errors: Sequence[ErrorOperator], tol: float = DEFAULT_KL_TOL
) -> List[np.ndarray]:
    """Standard KL recovery (Knill and Laflamme, PRA 55, 900 (1997)) as Kraus
    matrices on the errors' basis.  Requires the error set to pass kl_check.

    `tol` bounds the KL residuals only.  The columns C of
    `_alpha_range_basis`, with residuals cut at K * eps * max diag(alpha)
    (the relative cut of numpy's `matrix_rank`), give the error sectors
    F_k = sum_u C[u, k] E_u, orthonormal on the code space (F_k^dag F_l =
    delta_kl P there) and spanning every error's image; Kraus k maps sector
    k back onto the code space, W (F_k W)^dag.  The sectors are
    Gram-Schmidt of the errors under alpha rather than alpha's eigenvectors:
    both span the same space, so the channel is the same, and no matrix is
    factorized.
    """
    report = kl_check(code, errors, tol)
    if not report.verdict:
        raise KLViolation(
            "error set fails KL (offdiag %.3e, distortion %.3e)"
            % (report.max_offdiag_residual, report.max_distortion_residual)
        )
    basis = errors[0].operator.domain
    W = code.block(basis)  # dim x L isometry onto the code space
    alpha = (report.alpha + report.alpha.conjugate().transpose()) / 2
    cut = alpha.shape[0] * np.finfo(float).eps * float(alpha.diagonal().real.max())
    C = _alpha_range_basis(alpha, cut)
    kraus = []
    for k in range(C.shape[1]):
        # F_k restricted to the code space: dim x L, an isometry into sector k.
        FkW = sum(
            C[u, k] * errors[u].operator.apply(W) for u in range(len(errors))
        )
        kraus.append(W @ FkW.conjugate().transpose())  # error sector back to code space
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
