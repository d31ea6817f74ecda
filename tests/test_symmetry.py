"""Symmetry operators and joint unity-eigenspace synthesis."""

import math

import numpy as np
import pytest

from chi2qec.cli import pcc_operator_set
from chi2qec.fock import (
    LinearOperator,
    StateVector,
    TruncationOverflow,
    apply,
    compose,
    enumerate_irreducible_subspace,
)
from chi2qec.symmetry import (
    EmptyEigenspace,
    NonCommutingOperators,
    SymmetryOperator,
    bc_symmetry_operator,
    inversion_operator,
    inversion_operator_all_groups,
    joint_unity_eigenspace,
    projector_distance,
    pseudo_beamsplitter,
    signal_parity_operator,
    subspace_projector,
    swap_operator,
    z_pair_operator,
)


@pytest.mark.parametrize("M", [2, 3, 4, 5])
@pytest.mark.parametrize("pair", ["sp", "ip"])
def test_z_pair_is_unity_on_irreducible_subspace(M, pair):
    basis = enumerate_irreducible_subspace(M - 1)
    op = z_pair_operator(M, pair, 1, basis)
    # 1 + n_a + n_b = 1 + n + (M-1-n) = M, so every diagonal phase is 1.
    diag = op.operator.dense().diagonal()
    assert np.allclose(diag, 1.0)
    assert op.unitarity_defect() < 1e-12


def test_z_pair_rejects_unknown_pair():
    basis = enumerate_irreducible_subspace(1)
    with pytest.raises(ValueError):
        z_pair_operator(2, "si", 1, basis)


def test_inversion_action_and_involution():
    basis = enumerate_irreducible_subspace(2)
    V = inversion_operator(2, 1, basis)
    psi = StateVector.from_terms(basis, {(0, 0, 2): 1.0})
    out = apply(V.operator, psi)
    assert out.support() == [((2, 2, 0), 1.0 + 0.0j)]
    sq = compose(V.operator, V.operator)
    assert np.allclose(sq.dense(), np.eye(3))


def test_inversion_rejects_wrong_subspace():
    basis = enumerate_irreducible_subspace(2)
    with pytest.raises(ValueError):
        inversion_operator(3, 1, basis)


def test_swap_operator_exchanges_groups():
    basis = enumerate_irreducible_subspace(1, groups=2)
    X = swap_operator(basis)
    psi = StateVector.from_terms(basis, {(0, 0, 1, 1, 1, 0): 1.0})
    out = apply(X.operator, psi)
    assert out.support() == [((1, 1, 0, 0, 0, 1), 1.0 + 0.0j)]
    with pytest.raises(ValueError):
        swap_operator(enumerate_irreducible_subspace(1))


def test_signal_parity_diagonal():
    basis = enumerate_irreducible_subspace(3)
    pi = signal_parity_operator(basis)
    diag = pi.operator.dense().diagonal()
    assert np.allclose(diag, [(-1.0) ** n for n in range(4)])


@pytest.mark.parametrize("N", [1, 2, 3])
def test_pseudo_beamsplitter_is_unitary(N):
    basis = enumerate_irreducible_subspace(2 * N - 1)
    ubs = pseudo_beamsplitter(N, basis)
    assert np.max(np.abs(ubs.conjugate().transpose() @ ubs - np.eye(2 * N))) < 1e-10


def test_pseudo_beamsplitter_maps_plus_to_codeword():
    # N=2: U_BS (|0,0,3>+|3,3,0>)/sqrt2 = (|0,0,3> + sqrt3 |2,2,1>)/2.
    basis = enumerate_irreducible_subspace(3)
    ubs = pseudo_beamsplitter(2, basis)
    plus = StateVector.from_terms(
        basis, {(0, 0, 3): 1 / math.sqrt(2), (3, 3, 0): 1 / math.sqrt(2)}
    )
    out = ubs @ plus.amplitudes
    expected = StateVector.from_terms(
        basis, {(0, 0, 3): 0.5, (2, 2, 1): math.sqrt(3) / 2}
    )
    assert np.allclose(out, expected.amplitudes)


@pytest.mark.parametrize("N", [2, 3])
def test_bc_symmetry_fixes_codewords(N):
    from chi2qec.codes import build_bc

    spec = build_bc(N)
    S = bc_symmetry_operator(N, spec.basis)
    for w in spec.logical_states:
        assert np.allclose(S @ w.amplitudes, w.amplitudes, atol=1e-10)


def test_joint_unity_eigenspace_of_inversion():
    basis = enumerate_irreducible_subspace(2)
    V = inversion_operator(2, 1, basis)
    vecs = joint_unity_eigenspace([V])
    # V fixes |111> and (|002>+|220>)/sqrt2.
    assert len(vecs) == 2
    P = subspace_projector(vecs)
    assert np.allclose(P @ P, P)
    fixed = StateVector.from_terms(basis, {(1, 1, 1): 1.0})
    assert np.allclose(P @ fixed.amplitudes, fixed.amplitudes)


def test_joint_unity_eigenspace_of_identity_is_full():
    basis = enumerate_irreducible_subspace(2)
    I = SymmetryOperator("I", LinearOperator.identity(basis))
    assert len(joint_unity_eigenspace([I])) == 3


def test_non_commuting_operators_rejected():
    basis = enumerate_irreducible_subspace(2)
    phases = np.exp(2j * np.pi * np.array([s[0] for s in basis.states]) / 3)
    Z = SymmetryOperator("Z_s", LinearOperator.diagonal(basis, phases))
    V = inversion_operator(2, 1, basis)
    with pytest.raises(NonCommutingOperators):
        joint_unity_eigenspace([Z, V])


def test_empty_eigenspace_raises():
    basis = enumerate_irreducible_subspace(1)
    minus = SymmetryOperator("-I", LinearOperator.diagonal(basis, -np.ones(2)))
    with pytest.raises(EmptyEigenspace):
        joint_unity_eigenspace([minus])


@pytest.mark.parametrize("tol,kept", [(0.09, 1), (0.5, 0)])
def test_gauge_that_keeps_too_few_vectors_raises(tol, kept):
    # The inversion's unity eigenspace on H_4 is 3-dimensional; the gauge
    # drops projections whose norm is at most 10 tol.
    basis = enumerate_irreducible_subspace(4)
    V = inversion_operator(4, 1, basis)
    assert len(joint_unity_eigenspace([V], tol=0.01)) == 3
    with pytest.raises(EmptyEigenspace, match="^canonical gauge kept %d of 3 joint "
                       "unity eigenvectors at tol=%g$" % (kept, tol)):
        joint_unity_eigenspace([V], tol=tol)


def test_projector_distance_and_gauge_stability():
    basis = enumerate_irreducible_subspace(2)
    V = inversion_operator(2, 1, basis)
    a = joint_unity_eigenspace([V])
    b = joint_unity_eigenspace([V], tol=1e-11)
    assert projector_distance(a, b) < 1e-10
    # Deterministic canonical gauge: identical amplitude vectors.
    for x, y in zip(a, b):
        assert np.allclose(x.amplitudes, y.amplitudes)


def test_inversion_all_groups():
    basis = enumerate_irreducible_subspace(1, groups=2)
    V = inversion_operator_all_groups(1, basis)
    psi = StateVector.from_terms(basis, {(0, 0, 1, 1, 1, 0): 1.0})
    out = apply(V.operator, psi)
    assert out.support() == [((1, 1, 0, 0, 0, 1), 1.0 + 0.0j)]


def test_oversized_eigenspace_is_refused_before_any_operator_is_densified(monkeypatch):
    # 7 operators on the 625 kets of PCC N=25: 2,734,375 dense entries.
    _, ops = pcc_operator_set(25)
    monkeypatch.setattr(LinearOperator, "dense", lambda self: pytest.fail("densified"))
    with pytest.raises(TruncationOverflow, match="7 dense operators on 625 kets"):
        joint_unity_eigenspace(ops)
