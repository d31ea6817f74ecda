"""Error families, Knill-Laflamme checks and canonical recovery."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chi2qec.codes import build_bc, build_eecc, build_pcc, build_two_mode_bc
from chi2qec.errors import (
    DEFAULT_KL_TOL,
    ErrorOperator,
    _alpha_range_basis,
    _compositions,
    KLViolation,
    ad_product_set,
    amplitude_damping_kraus,
    bc_moment_numerator,
    canonical_recovery,
    enclosing_basis,
    kl_check,
    lowest_order_loss_kraus,
    recovery_fidelity,
    xi_set,
)
from chi2qec.fock import (
    BasisIndex,
    DimensionMismatch,
    LinearOperator,
    apply,
    compose,
    embed,
    enumerate_truncated_space,
    two_mode_layout,
)
from chi2qec.syndromes import random_logical_coefficients


@pytest.mark.parametrize("m,size", [(0, 1), (1, 7), (2, 16), (3, 27)])
def test_xi_set_sizes_three_modes(m, size):
    ops = xi_set(m, build_bc(2))
    assert len(ops) == size
    assert len({e.label for e in ops}) == size


def test_xi_set_rejects_negative_order():
    with pytest.raises(ValueError):
        xi_set(-1, build_bc(2))


def test_enclosing_basis_is_the_sorted_closure_of_the_support():
    spec = build_eecc(2)  # support (0,0,2), (1,1,1), (2,2,0)
    basis = enclosing_basis(spec, [(-1, 0, 0), (0, 0, 1)])
    assert basis.states == ((0, 0, 2), (0, 0, 3), (0, 1, 1), (1, 1, 1), (1, 1, 2),
                            (1, 2, 0), (2, 2, 0), (2, 2, 1))
    assert enclosing_basis(spec, []).states == spec.basis.states


@pytest.mark.parametrize("spec_builder", [build_pcc, build_eecc])
def test_lowest_order_kraus_complete_on_code_basis(spec_builder):
    spec = spec_builder(2)
    kraus = lowest_order_loss_kraus(0.05, spec)
    total = sum(e.operator.dense().conjugate().T @ e.operator.dense() for e in kraus)
    rows = [kraus[0].operator.domain.index_of(s) for s in spec.basis.states]
    assert np.max(np.abs(total[np.ix_(rows, rows)] - np.eye(len(rows)))) < 1e-12


def test_lowest_order_kraus_rejects_bad_gamma():
    with pytest.raises(ValueError):
        lowest_order_loss_kraus(1.0, build_bc(2))


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 0.9))
def test_amplitude_damping_resolves_identity(gamma):
    spec = build_two_mode_bc(2)  # every ket below a codeword ket: n_s + n_p <= 3
    sets = [ad_product_set(gamma, m, spec) for m in range(0, 7)]
    basis = sets[0][0].operator.domain
    assert basis.states == tuple(s for s in enumerate_truncated_space(spec.layout).states
                                 if sum(s) <= 3)
    total = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for errs in sets:
        for e in errs:
            assert e.operator.domain == basis
            total += e.operator.dense().conjugate().T @ e.operator.dense()
    assert np.max(np.abs(total - np.eye(basis.dimension))) < 1e-12


def test_amplitude_damping_matrix_element():
    basis = enumerate_truncated_space(two_mode_layout(3))
    gamma = 0.04
    A1 = amplitude_damping_kraus(gamma, 1, 0, basis)
    src = basis.index_of((3, 0))
    dst = basis.index_of((2, 0))
    expected = math.sqrt(3) * math.sqrt(gamma) * (1 - gamma)
    assert A1.operator.dense()[dst, src] == pytest.approx(expected)


def test_kl_check_xi1_binomial_qubit():
    spec = build_bc(2)
    rep = kl_check(spec, xi_set(1, spec), tol=1e-9)
    assert rep.verdict
    # alpha is Hermitian and the identity row is normalized.
    assert np.allclose(rep.alpha, rep.alpha.conjugate().transpose(), atol=1e-12)
    assert rep.alpha[0, 0] == pytest.approx(1.0)


def _single_gram_kl(images, K, L):
    """alpha and both residuals from the whole (KL) x (KL) Gram of the image
    columns [e0 w0, e0 w1, ..., e1 w0, ...]."""
    M = (images.conjugate().transpose() @ images).reshape(K, L, K, L).transpose(0, 2, 1, 3)
    alpha = M.trace(axis1=2, axis2=3) / L
    off = M.copy()
    for a in range(L):
        off[:, :, a, a] = 0.0
    dist = np.einsum("uvaa->uva", M) - alpha[:, :, None]
    return alpha, float(np.max(np.abs(off))), float(np.max(np.abs(dist)))


def _per_column_kl(code, errors):
    """alpha and both residuals from one error image per codeword and error,
    each a separate `apply` on one vector, through the single Gram."""
    basis = errors[0].operator.domain
    words = [embed(psi, basis) for psi in code.logical_states]
    images = np.column_stack(
        [apply(e.operator, w).amplitudes for e in errors for w in words])
    return _single_gram_kl(images, len(errors), len(words))


# The kl-check jobs of the benchmark's kl-scale workload.
KL_SCALE_CASES = (
    [(build_pcc, n, 1) for n in (2, 3, 4)] + [(build_pcc, n, 2) for n in (3, 4)]
    + [(build_bc, n, n) for n in range(2, 6)]
    + [(build_eecc, n, 1) for n in (2, 3, 4)] + [(build_eecc, n, 2) for n in (3, 4)]
)


def _damping_sets(kind):
    """Criterion 4's bc2mode damping sets at gamma 0.01 and 0.05 and every
    order 1..N: each configuration alone, the same-parity sets, or the
    joint set of an order."""
    def sets(spec):
        out = []
        for gamma in (0.01, 0.05):
            for order in range(1, spec.parameters["N"] + 1):
                joint = ad_product_set(gamma, order, spec)
                out += {"singles": [[e] for e in joint],
                        "same-parity": [joint[::2]] if len(joint) > 2 else [],
                        "joint": [joint]}[kind]
        return out
    return sets


def _lowest_order_sets(spec):
    return [lowest_order_loss_kraus(0.01, spec)]


def _damping_up_to_order_2(spec):
    """`kl-check --errors ad --order 2`: damping of orders 0, 1 and 2."""
    return [[e for m in range(3) for e in ad_product_set(0.01, m, spec)]]


# Beyond kl-scale: the lowest-order families, criterion 4's damping sets,
# PCC N=5 xi2, and damping to order 2 on PCC and BC N=2, which fails KL
# in the a != b blocks.
KL_BLOCK_CASES = KL_SCALE_CASES + (
    [pytest.param(b, n, _lowest_order_sets, id="%s-%d-lowest-order" % (b.__name__, n))
     for b in (build_pcc, build_eecc) for n in (2, 3)]
    + [pytest.param(build_two_mode_bc, n, _damping_sets(kind),
                    id="build_two_mode_bc-%d-ad-%s" % (n, kind))
       for n in (2, 3) for kind in ("singles", "same-parity", "joint")]
    + [(build_pcc, 5, 2)]
    + [pytest.param(b, 2, _damping_up_to_order_2, id="%s-2-ad-order-2" % b.__name__)
       for b in (build_pcc, build_bc)]
)


@pytest.mark.parametrize("builder,N,m", KL_BLOCK_CASES)
def test_block_applied_kl_check_matches_the_per_column_path(builder, N, m):
    spec = builder(N)
    sets = [xi_set(m, spec)] if isinstance(m, int) else m(spec)
    assert sets
    for errs in sets:
        rep = kl_check(spec, errs)
        alpha, max_off, max_dist = _per_column_kl(spec, errs)
        if len(errs) == 1:
            # A 1 x 1 block is a dot product, not the Gram's matrix product,
            # so it agrees to rounding only.
            scale = 1e-15 * np.max(np.abs(alpha))
            assert np.max(np.abs(rep.alpha - alpha)) <= scale
            assert abs(rep.max_offdiag_residual - max_off) <= scale
            assert abs(rep.max_distortion_residual - max_dist) <= scale
            continue
        assert np.array_equal(rep.alpha, alpha)
        assert np.array_equal(np.signbit(rep.alpha.real), np.signbit(alpha.real))
        assert np.array_equal(np.signbit(rep.alpha.imag), np.signbit(alpha.imag))
        assert rep.max_offdiag_residual == max_off
        assert rep.max_distortion_residual == max_dist


@pytest.mark.parametrize("builder", [build_pcc, build_bc])
def test_damping_to_order_2_fails_kl_in_a_cross_codeword_block(builder):
    # The test above holds max_off to the single Gram bit for bit; here an
    # a != b block is what decides the verdict.
    spec = builder(2)
    rep = kl_check(spec, _damping_up_to_order_2(spec)[0])
    assert not rep.verdict
    assert rep.max_offdiag_residual > 1e-4 > rep.max_distortion_residual


@st.composite
def _random_ket_maps(draw):
    """A dim x L block of complex codewords and K complex weighted ket maps
    on `dim` one-mode kets, some columns left empty."""
    dim = draw(st.integers(1, 40))
    K = draw(st.integers(1, 10))
    L = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    basis = BasisIndex([(n,) for n in range(dim)])
    words = rng.normal(size=(dim, L)) + 1j * rng.normal(size=(dim, L))
    errors = [ErrorOperator("E%d" % u, LinearOperator(
        basis, rng.integers(-1, dim, size=dim),
        rng.normal(size=dim) + 1j * rng.normal(size=dim))) for u in range(K)]
    return words, errors


class _Words:
    """A code as kl_check reads it: only its codeword block."""

    def __init__(self, words):
        self.words = words

    def block(self, basis):
        return self.words


@settings(max_examples=60, deadline=None)
@given(_random_ket_maps())
def test_block_applied_kl_check_matches_the_single_gram_on_complex_ket_maps(case):
    words, errors = case
    K, L = len(errors), words.shape[1]
    images = np.column_stack([e.operator.apply(words[:, a]) for e in errors for a in range(L)])
    alpha, max_off, max_dist = _single_gram_kl(images, K, L)
    rep = kl_check(_Words(words), errors)
    scale = 1e-14 * max(1.0, float(np.max(np.abs(images))) ** 2 * words.shape[0])
    assert rep.alpha.shape == (K, K)
    assert np.max(np.abs(rep.alpha - alpha)) <= scale
    assert abs(rep.max_offdiag_residual - max_off) <= scale
    assert abs(rep.max_distortion_residual - max_dist) <= scale


@pytest.mark.parametrize("N", [3, 4])
def test_kl_check_holds_no_full_gram(N):
    # The least a single Gram product must hold: the images, their conjugate
    # and the (KL) x (KL) Gram.  The codeword-pair blocks stay well below it.
    spec = build_pcc(N)
    errs = xi_set(2, spec)
    kl_check(spec, errs)
    dim, K, L = errs[0].operator.domain.dimension, len(errs), len(spec.weights)
    tracemalloc.start()
    try:
        kl_check(spec, errs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * dim * K * L * 16 + (K * L) ** 2 * 16


@pytest.mark.parametrize("N", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["loss", "gain", "dephasing"])
def test_bc_moments_agree_between_codewords(N, kind):
    code = build_bc(N)
    for m in range(1, N + 1):
        top = m - 1 if kind == "dephasing" else m
        for h in range(top + 1):
            for g in range(top - h + 1):
                z = bc_moment_numerator(code, h, g, m, "zero", kind)
                o = bc_moment_numerator(code, h, g, m, "one", kind)
                assert z == o


def test_bc_moment_explicit_value():
    # N=2 signal loss: <0~| a_s^dag a_s |0~> = 3/4 * 2 = 3/2.
    code = build_bc(2)
    for side in ("zero", "one"):
        numerator = bc_moment_numerator(code, 1, 0, 1, side, "loss")
        assert Fraction(numerator, code.denominator) == Fraction(3, 2)


def test_bc_moment_argument_validation():
    code = build_bc(2)
    with pytest.raises(ValueError):
        bc_moment_numerator(code, 0, 0, 3, "zero", "loss")  # m > N
    with pytest.raises(ValueError):
        bc_moment_numerator(code, 1, 1, 1, "zero", "dephasing")  # h+g > m-1
    with pytest.raises(ValueError):
        bc_moment_numerator(code, 0, 0, 1, "left", "loss")
    with pytest.raises(ValueError):
        bc_moment_numerator(code, 0, 0, 1, "zero", "twirl")


def test_canonical_recovery_unit_fidelity():
    spec = build_bc(2)
    errs = xi_set(1, spec)
    recov = canonical_recovery(spec, errs, tol=1e-9)
    rng = np.random.default_rng(11)
    for err in errs:
        for _ in range(5):
            coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
            coeffs /= np.linalg.norm(coeffs)
            fid = recovery_fidelity(spec, recov, err, coeffs[:, None])
            assert fid[0] == pytest.approx(1.0, abs=1e-10)


# Codes and the error sets they correct, with the rank of alpha on each.
RECOVERY_CASES = [
    (build_bc, 2, 1, 7), (build_bc, 2, 2, 14), (build_bc, 3, 3, 23), (build_bc, 4, 4, 34),
    (build_pcc, 2, 1, 13), (build_pcc, 3, 1, 13), (build_eecc, 2, 1, 7), (build_eecc, 3, 1, 7),
]


def _assert_orthonormal_range_basis(alpha, C):
    scale = 1e-12 * np.max(np.abs(alpha))
    assert np.max(np.abs(C.conjugate().T @ alpha @ C - np.eye(C.shape[1]))) <= scale
    # alpha C C^dag alpha = alpha: the columns span the whole range.
    assert np.max(np.abs(alpha @ C @ C.conjugate().T @ alpha - alpha)) <= scale


@pytest.mark.parametrize("builder,N,m,rank", RECOVERY_CASES)
def test_alpha_range_basis_is_orthonormal_under_alpha_and_spans_its_range(builder, N, m, rank):
    spec = builder(N)
    alpha = kl_check(spec, xi_set(m, spec)).alpha
    alpha = (alpha + alpha.conjugate().T) / 2  # as canonical_recovery symmetrises it
    C = _alpha_range_basis(alpha, DEFAULT_KL_TOL)
    _assert_orthonormal_range_basis(alpha, C)
    # The rank is the count of eigenvalues the eigensolver puts above the cut.
    assert C.shape == (alpha.shape[0], rank)
    assert int(np.sum(np.linalg.eigvalsh(alpha) > DEFAULT_KL_TOL)) == rank


def test_alpha_range_basis_of_a_rank_deficient_alpha():
    rng = np.random.default_rng(5)
    B = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    alpha = B @ B.conjugate().T  # rank 3 of 6
    C = _alpha_range_basis(alpha, DEFAULT_KL_TOL)
    assert C.shape == (6, 3)
    _assert_orthonormal_range_basis(alpha, C)


@pytest.mark.parametrize("alpha", [np.zeros((4, 4)), 1e-10 * np.eye(4),
                                   np.diag([1e-12, -1e-12, DEFAULT_KL_TOL])])
def test_alpha_range_basis_is_empty_when_every_residual_is_below_the_cut(alpha):
    assert _alpha_range_basis(alpha, DEFAULT_KL_TOL).shape == (alpha.shape[0], 0)


@pytest.mark.parametrize("builder,N,m,rank", RECOVERY_CASES)
def test_canonical_recovery_corrects_every_error_of_the_set(builder, N, m, rank):
    spec = builder(N)
    errs = xi_set(m, spec)
    recov = canonical_recovery(spec, errs)
    assert len(recov) == rank
    coeffs = random_logical_coefficients(random.Random(N + 10 * m), len(spec.weights), 20)
    for err in errs:
        assert recovery_fidelity(spec, recov, err, coeffs).min() >= 1 - 1e-10, err.label


@pytest.mark.parametrize("builder,N,m,rank", RECOVERY_CASES)
def test_canonical_recovery_rank_does_not_follow_the_kl_tolerance(builder, N, m, rank):
    # tol bounds the KL residuals only: a rank cut at 2 itself would drop
    # pivots of every case here but BC N=3 and N=4.
    spec = builder(N)
    assert len(canonical_recovery(spec, xi_set(m, spec), tol=2)) == rank


def _reference_recovery_fidelity(code, recovery, error, logical_amplitudes):
    """One logical state at a time, as the fidelity was computed per trial."""
    basis = error.operator.domain
    words = [embed(psi, basis).amplitudes for psi in code.logical_states]
    psi = sum(c * w for c, w in zip(logical_amplitudes, words))
    psi = psi / np.linalg.norm(psi)
    corrupted = error.operator.dense() @ psi
    corrupted /= np.linalg.norm(corrupted)
    fid_sq = sum(abs(np.vdot(psi, R @ corrupted)) ** 2 for R in recovery)
    return math.sqrt(min(fid_sq, 1.0))


def _codeword_weighted_error(spec, basis, w0, w1):
    """Weight w0 on the kets of |0~> and w1 on those of |1~>: the codewords
    have disjoint supports, so on the code space this is w0 |0~><0~| +
    w1 |1~><1~|.  Outside the KL set, it shrinks logical states by
    different amounts."""
    zero, one = (embed(psi, basis).amplitudes for psi in spec.logical_states)
    assert not np.any(zero * one)
    weights = w0 * (zero != 0) + w1 * (one != 0)
    return ErrorOperator("W", LinearOperator.diagonal(basis, weights))


def test_batched_recovery_fidelity_matches_per_state_loop():
    spec = build_bc(2)
    errs = xi_set(2, spec)
    recov = canonical_recovery(spec, errs, tol=1e-9)
    coeffs = random_logical_coefficients(random.Random(23), 2, 30)
    skew = _codeword_weighted_error(spec, errs[0].operator.domain, 0.5, 1.0)
    for err in errs + [skew]:
        fids = recovery_fidelity(spec, recov, err, coeffs)
        assert fids.shape == (30,)
        for t in range(30):
            want = _reference_recovery_fidelity(spec, recov, err, coeffs[:, t])
            assert abs(fids[t] - want) <= 1e-12


def test_recovery_fidelity_rejects_annihilated_column_and_bad_shape():
    spec = build_bc(2)
    errs = xi_set(1, spec)
    recov = canonical_recovery(spec, errs, tol=1e-9)
    keep_one = _codeword_weighted_error(spec, errs[0].operator.domain, 0.0, 1.0)
    recovery_fidelity(spec, recov, keep_one, np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        recovery_fidelity(spec, recov, keep_one, np.eye(2))
    with pytest.raises(DimensionMismatch):
        recovery_fidelity(spec, recov, errs[0], np.array([1.0, 0.0]))


def test_canonical_recovery_rejects_uncorrectable_set():
    spec = build_two_mode_bc(2)
    joint = ad_product_set(0.01, 1, spec)
    with pytest.raises(KLViolation):
        canonical_recovery(spec, joint, tol=1e-9)


def test_two_mode_joint_set_fails_kl_at_first_order():
    # A_s(1) and A_p(1) map opposite codewords onto the same ket |1,1>,
    # so the joint first-order set has an order-gamma cross-logical element.
    spec = build_two_mode_bc(2)
    gamma = 0.01
    rep = kl_check(spec, ad_product_set(gamma, 1, spec), tol=1e-9)
    assert not rep.verdict
    expected = 3 * gamma * (1 - gamma) ** 2 / 2
    assert rep.max_offdiag_residual == pytest.approx(expected, rel=1e-9)


# Reference engine: ket-by-ket action on the codewords' amplitude maps, the
# per-state ladder composition with no enclosing basis at all.


def _ket_action(factors, ket):
    """(coefficient, target) of a monomial on one ket; None if annihilated."""
    n = list(ket)
    coeff = 1.0
    for mode, kind in factors:
        if kind == "lower":
            if n[mode] == 0:
                return None
            coeff = math.sqrt(n[mode]) * coeff
            n[mode] -= 1
        elif kind == "raise":
            coeff = math.sqrt(n[mode] + 1) * coeff
            n[mode] += 1
        else:
            coeff = n[mode] * coeff
    return coeff, tuple(n)


def _damping_action(gamma, drops, modes, ket):
    """(coefficient, target) of a product of per-mode damping operators."""
    n = list(ket)
    coeff = 1.0
    for mode, k in zip(modes, drops):
        if n[mode] < k:
            return None
        coeff *= (math.sqrt(math.comb(n[mode], k)) * gamma ** (k / 2.0)
                  * (1 - gamma) ** ((n[mode] - k) / 2.0))
        n[mode] -= k
    return coeff, tuple(n)


def _monomial_action(exps, kind, scale=1.0):
    factors = [(mode, kind) for mode, p in enumerate(exps) for _ in range(p)]

    def act(ket):
        hit = _ket_action(factors, ket)
        return hit and (scale * hit[0], hit[1])
    return act


def _xi_actions(m, modes):
    acts = [lambda ket: (1.0, ket)]
    if m >= 1:
        acts += [_monomial_action(e, kind) for kind in ("lower", "raise")
                 for e in _compositions(m, modes)]
    if m >= 2:
        acts += [_monomial_action(e, "number") for e in _compositions(m - 1, modes)]
    return acts


def _reference_kl(code, actions, tol=1e-9):
    """(verdict, alpha) of the KL condition from ket-by-ket images."""
    words = [dict(psi.support(0.0)) for psi in code.logical_states]
    images = []
    for act in actions:
        for word in words:
            image = {}
            for ket, amp in word.items():
                hit = act(ket)
                if hit is not None:
                    image[hit[1]] = image.get(hit[1], 0.0) + hit[0] * amp
            images.append(image)
    K, L = len(actions), len(words)
    gram = np.array([[sum(np.conj(x[k]) * y[k] for k in x.keys() & y.keys())
                      for y in images] for x in images], dtype=complex)
    M = gram.reshape(K, L, K, L).transpose(0, 2, 1, 3)
    alpha = M.trace(axis1=2, axis2=3) / L
    off = M.copy()
    for a in range(L):
        off[:, :, a, a] = 0.0
    dist = np.max(np.abs(np.einsum("uvaa->uva", M) - alpha[:, :, None]))
    return bool(np.max(np.abs(off)) <= tol and dist <= tol), alpha


def _assert_matches_reference(spec, errors, actions):
    rep = kl_check(spec, errors, tol=1e-9)
    verdict, alpha = _reference_kl(spec, actions)
    assert rep.verdict == verdict
    scale = max(1.0, float(np.max(np.abs(alpha))))
    assert np.max(np.abs(rep.alpha - alpha)) <= 1e-14 * scale


_SWEEP = ([(build_pcc, N, 1) for N in range(2, 7)]
          + [(build_eecc, N, 1) for N in range(2, 7)]
          + [(b, N, 2) for b in (build_pcc, build_eecc) for N in (3, 4)]
          + [(build_bc, N, m) for N in range(1, 6) for m in range(1, N + 1)])


@pytest.mark.parametrize("builder,N,m", _SWEEP,
                         ids=["%s-N%d-xi%d" % (b.__name__[6:], N, m) for b, N, m in _SWEEP])
def test_xi_sets_on_closures_match_the_reference_engine(builder, N, m):
    spec = builder(N)
    _assert_matches_reference(spec, xi_set(m, spec), _xi_actions(m, spec.layout.n_modes))


@pytest.mark.parametrize("builder,N", [(build_pcc, 2), (build_pcc, 3), (build_eecc, 2),
                                       (build_eecc, 3), (build_bc, 2)])
def test_lowest_order_kraus_matches_the_reference_engine(builder, N):
    spec = builder(N)
    gamma = 0.05
    nm = spec.layout.n_modes
    actions = [lambda ket: (math.sqrt(max(1.0 - gamma * sum(ket), 0.0)), ket)]
    actions += [_monomial_action([int(i == mode) for i in range(nm)], "lower",
                                 math.sqrt(gamma)) for mode in range(nm)]
    _assert_matches_reference(spec, lowest_order_loss_kraus(gamma, spec), actions)


def _ad_family(gamma, order, spec):
    modes = range(spec.layout.n_modes)
    errs, actions = [], []
    for m in range(order + 1):
        errs += ad_product_set(gamma, m, spec)
        actions += [lambda ket, d=drops: _damping_action(gamma, d, modes, ket)
                    for drops in _compositions(m, len(modes))]
    return errs, actions


@pytest.mark.parametrize("N,order", [(2, 1), (2, 3), (3, 2)])
def test_two_mode_damping_matches_the_reference_engine(N, order):
    spec = build_two_mode_bc(N)
    _assert_matches_reference(spec, *_ad_family(0.05, order, spec))


def _product_space_ad_set(gamma, order, spec):
    """The damping family on the code's capped product space."""
    modes = range(spec.layout.n_modes)
    basis = enumerate_truncated_space(spec.layout)
    out = []
    for m in range(order + 1):
        for drops in _compositions(m, len(modes)):
            op = LinearOperator.identity(basis)
            for mode, k in zip(modes, drops):
                op = compose(amplitude_damping_kraus(gamma, k, mode, basis).operator, op)
            out.append(ErrorOperator(str(drops), op))
    return out


@pytest.mark.parametrize("builder,N", [(build_pcc, 2), (build_pcc, 3), (build_eecc, 2),
                                       (build_eecc, 3), (build_bc, 2), (build_bc, 3)])
def test_damping_on_three_mode_codes_matches_the_product_space(builder, N):
    spec = builder(N)
    errs, actions = _ad_family(0.01, 2, spec)
    rep = kl_check(spec, errs, tol=1e-9)
    ref = kl_check(spec, _product_space_ad_set(0.01, 2, spec), tol=1e-9)
    assert rep.verdict == ref.verdict
    scale = max(1.0, float(np.max(np.abs(ref.alpha))))
    assert np.max(np.abs(rep.alpha - ref.alpha)) <= 1e-14 * scale
    _assert_matches_reference(spec, errs, actions)
