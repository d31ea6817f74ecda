"""Error families, Knill-Laflamme checks and canonical recovery."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chi2qec.codes import build_bc, build_eecc, build_pcc, build_two_mode_bc
from chi2qec.errors import (
    ErrorOperator,
    KLViolation,
    ad_product_set,
    amplitude_damping_kraus,
    bc_moment_numerator,
    bc_moment_sum,
    canonical_recovery,
    enclosing_basis,
    kl_check,
    loss_kraus_completeness_residual,
    lowest_order_loss_kraus,
    recovery_fidelity,
    xi_set,
)
from chi2qec.fock import (
    DimensionMismatch,
    LinearOperator,
    TruncationOverflow,
    adjoint,
    embed,
    enumerate_truncated_space,
    three_mode_layout,
    two_mode_layout,
)
from chi2qec.syndromes import random_logical_coefficients


@pytest.mark.parametrize("m,size", [(0, 1), (1, 7), (2, 16), (3, 27)])
def test_xi_set_sizes_three_modes(m, size):
    layout = three_mode_layout(3)
    ops = xi_set(m, layout)
    assert len(ops) == size
    assert len({e.label for e in ops}) == size


def test_xi_set_rejects_negative_order():
    with pytest.raises(ValueError):
        xi_set(-1, three_mode_layout(2))


@pytest.mark.parametrize("spec_builder", [build_pcc, build_eecc])
def test_lowest_order_kraus_complete_on_code_basis(spec_builder):
    spec = spec_builder(2)
    basis = enclosing_basis(spec.layout, headroom=0)
    kraus = lowest_order_loss_kraus(0.05, spec.layout, basis)
    assert loss_kraus_completeness_residual(kraus, spec.basis) < 1e-12


def test_lowest_order_kraus_rejects_bad_gamma():
    with pytest.raises(ValueError):
        lowest_order_loss_kraus(1.0, three_mode_layout(2))


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 0.9))
def test_amplitude_damping_resolves_identity(gamma):
    layout = two_mode_layout(3)
    basis = enumerate_truncated_space(layout)
    total = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for m in range(0, 7):
        for e in ad_product_set(gamma, m, basis, (0, 1)):
            total += adjoint(e.operator).matrix.dot(e.operator.matrix).toarray()
    assert np.max(np.abs(total - np.eye(basis.dimension))) < 1e-12


def test_amplitude_damping_matrix_element():
    basis = enumerate_truncated_space(two_mode_layout(3))
    gamma = 0.04
    A1 = amplitude_damping_kraus(gamma, 1, 0, basis)
    src = basis.index_of((3, 0))
    dst = basis.index_of((2, 0))
    expected = math.sqrt(3) * math.sqrt(gamma) * (1 - gamma)
    assert A1.operator.matrix[dst, src] == pytest.approx(expected)


def test_kl_check_xi1_binomial_qubit():
    spec = build_bc(2)
    rep = kl_check(spec, xi_set(1, spec.layout), tol=1e-9)
    assert rep.verdict
    # alpha is Hermitian and the identity row is normalized.
    assert np.allclose(rep.alpha, rep.alpha.conjugate().transpose(), atol=1e-12)
    assert rep.alpha[0, 0] == pytest.approx(1.0)


def test_kl_check_requires_gain_headroom():
    spec = build_bc(2)
    tight = enumerate_truncated_space(spec.layout)
    with pytest.raises(TruncationOverflow):
        kl_check(spec, xi_set(1, spec.layout, basis=tight))


def test_kl_report_json():
    spec = build_bc(2)
    rep = kl_check(spec, xi_set(1, spec.layout))
    doc = rep.to_json_dict()
    assert doc["verdict"] is True
    assert doc["labels"][0] == "I"
    assert len(doc["alpha"]) == len(doc["labels"])


@pytest.mark.parametrize("N", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["loss", "gain", "dephasing"])
def test_bc_moments_agree_between_codewords(N, kind):
    for m in range(1, N + 1):
        top = m - 1 if kind == "dephasing" else m
        for h in range(top + 1):
            for g in range(top - h + 1):
                z = bc_moment_numerator(N, h, g, m, "zero", kind)
                o = bc_moment_numerator(N, h, g, m, "one", kind)
                assert z == o


def test_bc_moment_explicit_value():
    # N=2 signal loss: <0~| a_s^dag a_s |0~> = 3/4 * 2 = 3/2.
    assert bc_moment_sum(2, 1, 0, 1, "zero", "loss") == Fraction(3, 2)
    assert bc_moment_sum(2, 1, 0, 1, "one", "loss") == Fraction(3, 2)


def test_bc_moment_argument_validation():
    with pytest.raises(ValueError):
        bc_moment_numerator(2, 0, 0, 3, "zero", "loss")  # m > N
    with pytest.raises(ValueError):
        bc_moment_numerator(2, 1, 1, 1, "zero", "dephasing")  # h+g > m-1
    with pytest.raises(ValueError):
        bc_moment_numerator(2, 0, 0, 1, "left", "loss")
    with pytest.raises(ValueError):
        bc_moment_numerator(2, 0, 0, 1, "zero", "twirl")


def test_canonical_recovery_unit_fidelity():
    spec = build_bc(2)
    errs = xi_set(1, spec.layout)
    recov = canonical_recovery(spec, errs, tol=1e-9)
    rng = np.random.default_rng(11)
    for err in errs:
        for _ in range(5):
            coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
            coeffs /= np.linalg.norm(coeffs)
            fid = recovery_fidelity(spec, recov, err, coeffs[:, None])
            assert fid[0] == pytest.approx(1.0, abs=1e-10)


def _reference_recovery_fidelity(code, recovery, error, logical_amplitudes):
    """One logical state at a time, as the fidelity was computed per trial."""
    basis = recovery[0].domain
    words = [embed(psi, basis).amplitudes for psi in code.logical_states]
    psi = sum(c * w for c, w in zip(logical_amplitudes, words))
    psi = psi / np.linalg.norm(psi)
    corrupted = error.operator.matrix.dot(psi)
    corrupted /= np.linalg.norm(corrupted)
    fid_sq = sum(abs(np.vdot(psi, R.matrix.dot(corrupted))) ** 2 for R in recovery)
    return math.sqrt(min(fid_sq, 1.0))


def _codeword_weighted_error(spec, basis, w0, w1):
    """w0 |0~><0~| + w1 |1~><1~|: outside the KL set, it shrinks logical
    states by different amounts."""
    zero, one = (embed(psi, basis).amplitudes for psi in spec.logical_states)
    mat = w0 * np.outer(zero, zero.conj()) + w1 * np.outer(one, one.conj())
    return ErrorOperator("W", LinearOperator.from_dense(basis, basis, mat), 0, "kraus")


def test_batched_recovery_fidelity_matches_per_state_loop():
    spec = build_bc(2)
    errs = xi_set(2, spec.layout)
    recov = canonical_recovery(spec, errs, tol=1e-9)
    coeffs = random_logical_coefficients(np.random.default_rng(23), 2, 30)
    skew = _codeword_weighted_error(spec, recov[0].domain, 0.5, 1.0)
    for err in errs + [skew]:
        fids = recovery_fidelity(spec, recov, err, coeffs)
        assert fids.shape == (30,)
        for t in range(30):
            want = _reference_recovery_fidelity(spec, recov, err, coeffs[:, t])
            assert abs(fids[t] - want) <= 1e-12


def test_recovery_fidelity_rejects_annihilated_column_and_bad_shape():
    spec = build_bc(2)
    errs = xi_set(1, spec.layout)
    recov = canonical_recovery(spec, errs, tol=1e-9)
    keep_one = _codeword_weighted_error(spec, recov[0].domain, 0.0, 1.0)
    recovery_fidelity(spec, recov, keep_one, np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        recovery_fidelity(spec, recov, keep_one, np.eye(2))
    with pytest.raises(DimensionMismatch):
        recovery_fidelity(spec, recov, errs[0], np.array([1.0, 0.0]))


def test_canonical_recovery_rejects_uncorrectable_set():
    spec = build_two_mode_bc(2)
    joint = ad_product_set(0.01, 1, spec.basis, (0, 1))
    with pytest.raises(KLViolation):
        canonical_recovery(spec, joint, tol=1e-9)


def test_two_mode_joint_set_fails_kl_at_first_order():
    # A_s(1) and A_p(1) map opposite codewords onto the same ket |1,1>,
    # so the joint first-order set has an order-gamma cross-logical element.
    spec = build_two_mode_bc(2)
    gamma = 0.01
    rep = kl_check(spec, ad_product_set(gamma, 1, spec.basis, (0, 1)), tol=1e-9)
    assert not rep.verdict
    expected = 3 * gamma * (1 - gamma) ** 2 / 2
    assert rep.max_offdiag_residual == pytest.approx(expected, rel=1e-9)
