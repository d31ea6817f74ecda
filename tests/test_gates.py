"""Generator algebra and gate-decomposition identities.

The four decomposition checks documented as failing in gates.verify_gates
are asserted here with their actual verdicts; the acceptance suite asserts
the printed identities themselves.
"""

import numpy as np
import pytest

from chi2qec.fock import enumerate_irreducible_subspace
from chi2qec.gates import (
    SQRT2,
    _generator_eigh,
    _three_wave_operator,
    canonical_to_v,
    cnot2_21,
    cnot2p_12,
    cnot2pp_12,
    cnot3_12,
    cz_gate,
    equal_up_to_global_phase,
    evolve,
    generator,
    hadamard_gate,
    hprime_gate,
    lambda21_h,
    lambda21_h_bar,
    lambda_s_gate,
    pair_basis,
    printed_generator_matrix,
    v_to_canonical,
    verify_gates,
    xp_gate,
)

RED_IDENTITIES = {
    "XP_two_factor",
    "Hprime_full",
    "H_chain_full",
    "H_chain_code_block",
}


@pytest.mark.parametrize("k", range(3, 8))
def test_commutator_construction_matches_printed_matrices(k):
    assert np.allclose(generator(k), printed_generator_matrix(k), atol=1e-12)


@pytest.mark.parametrize("k", range(1, 8))
def test_generators_are_hermitian(k):
    M = generator(k)
    assert np.allclose(M, M.conjugate().transpose(), atol=1e-12)


def _fresh_generators():
    """G1..G7 recomputed from A, with the same operations as `generator`."""
    def comm(a, b):
        return a @ b - b @ a

    A = _three_wave_operator()
    g1 = 0.5j * (A - A.conjugate().transpose())
    g2 = 0.5 * (A + A.conjugate().transpose())
    g3 = 1j * comm(g1, g2)
    g4 = 1j * comm(g3, g1)
    g5 = 1j * comm(g3, g2)
    g6 = (1j * comm(g1, g4) + 1j * comm(g5, g2)) / (4 * SQRT2)
    g7 = 1j * comm(g2, g4) / (2 * SQRT2)
    return [g1, g2, g3, g4, g5, g6, g7]


@pytest.mark.parametrize("k", range(1, 8))
def test_cached_generator_has_the_bits_of_a_fresh_build(k):
    assert np.array_equal(generator(k), _fresh_generators()[k - 1])


def test_cached_generator_matrix_is_read_only():
    M = generator(6)
    with pytest.raises(ValueError):
        M[0, 0] = 1.0
    assert np.array_equal(generator(6), _fresh_generators()[5])


def test_cached_generator_eighs_are_read_only():
    for k in range(1, 8):
        for part in _generator_eigh(k):
            with pytest.raises(ValueError):
                part[0] = 1.0


@pytest.mark.parametrize("k", range(1, 8))
def test_evolve_factor_has_the_bits_of_a_fresh_eigh(k):
    evals, vecs = np.linalg.eigh(_fresh_generators()[k - 1])
    angle = 0.7
    fresh = (vecs * np.exp(1j * angle * evals)) @ vecs.conjugate().transpose()
    assert evolve([(k, angle)]).tobytes() == (np.eye(3, dtype=complex) @ fresh).tobytes()


def test_verify_gates_twice_in_a_row_gives_equal_records():
    assert verify_gates() == verify_gates()


def test_cz_gate_matches_the_per_ket_diagonal_reference():
    # CZ22 as a dense diagonal, read ket by ket: omega^{jk} from the digits
    # of the two code blocks' second qutrits.
    digit = {(1, 1, 1): 0, (0, 0, 2): 1, (2, 2, 0): 2}
    omega = np.exp(2j * np.pi / 3)
    basis = enumerate_irreducible_subspace(2, groups=4)  # pair_basis() x pair_basis()
    cz22 = np.diag([omega ** (digit[st[3:6]] * digit[st[9:12]]) for st in basis.states])
    FF = np.kron(cnot2pp_12(), cnot2pp_12())
    assert np.array_equal(cz_gate(), FF.conjugate().transpose() @ cz22 @ FF)


def test_generator_index_validation():
    with pytest.raises(ValueError):
        generator(0)
    for k in (0, 8):
        with pytest.raises(ValueError):
            evolve([(k, 1.0)])
    with pytest.raises(ValueError):
        printed_generator_matrix(2)


def test_basis_conversion_round_trip():
    M = np.arange(9, dtype=complex).reshape(3, 3)
    assert np.allclose(canonical_to_v(v_to_canonical(M)), M)


def test_equal_up_to_global_phase():
    U = xp_gate()
    ok, theta, dev = equal_up_to_global_phase(1j * U, U)
    assert ok
    assert theta == pytest.approx(np.pi / 2)
    assert dev < 1e-12
    ok, _, _ = equal_up_to_global_phase(U, hprime_gate())
    assert not ok
    with pytest.raises(ValueError):
        equal_up_to_global_phase(U, np.eye(9))


def test_xp_single_factor_is_exact():
    ok, _, dev = equal_up_to_global_phase(
        evolve([(7, np.pi / 3)]), xp_gate()
    )
    assert ok and dev < 1e-10


def test_hadamard_conjugation_is_exact():
    xp = xp_gate()
    hp = hprime_gate()
    ok, _, dev = equal_up_to_global_phase(
        np.linalg.inv(xp) @ hp @ xp, hadamard_gate()
    )
    assert ok and dev < 1e-10


def test_g6_exponential_acts_as_sigma_x_on_lower_block():
    # e^{i 2pi G6/3} = i sigma_x on span{|220>,|002>} (G6 = 3/4 sigma_x
    # there); this is why the printed two-factor X_P form cannot hold.
    U = evolve([(6, 2 * np.pi / 3)])
    block = U[1:, 1:]
    assert np.allclose(block, 1j * np.array([[0, 1], [1, 0]]), atol=1e-12)
    assert U[0, 0] == pytest.approx(1.0)


def test_verify_gates_verdicts():
    results = {r["name"]: r["passed"] for r in verify_gates()}
    failed = {name for name, ok in results.items() if not ok}
    assert failed == RED_IDENTITIES
    for name in (
        "XP_single_factor",
        "Hprime_qubit_block",
        "H_chain_four_factor_code_block",
        "H_conjugation",
        "CZ_unitary",
        "CZ_logical_pattern",
    ):
        assert results[name]


SINGLE_AND_PAIR_GATES = {
    "XP": xp_gate,
    "H": hadamard_gate,
    "Hprime": hprime_gate,
    "CNOT3_12": cnot3_12,
    "CNOT2_21": cnot2_21,
    "Lambda21H": lambda21_h,
    "Lambda21Hbar": lambda21_h_bar,
    "CNOT2p_12": cnot2p_12,
    "CNOT2pp_12": cnot2pp_12,
    "LambdaS": lambda_s_gate,
}


@pytest.mark.parametrize("name", sorted(SINGLE_AND_PAIR_GATES))
def test_pair_gates_are_unitary(name):
    U = SINGLE_AND_PAIR_GATES[name]()
    d = U.shape[0]
    assert np.allclose(U.conjugate().transpose() @ U, np.eye(d), atol=1e-12)


def test_cz_logical_pattern():
    from chi2qec.codes import build_pcc

    cz = cz_gate()
    words = [psi.amplitudes for psi in build_pcc(3).logical_states]
    L = np.column_stack([np.kron(a, b) for a in words for b in words])
    logical = L.conjugate().transpose() @ cz @ L
    omega = np.exp(2j * np.pi / 3)
    target = np.diag([omega ** (j * k) for j in range(3) for k in range(3)])
    assert np.allclose(logical, target, atol=1e-10)


def test_lambda_s_is_diagonal_phase_on_logical_qubits():
    from chi2qec.codes import build_eecc

    U = lambda_s_gate()
    words = [psi.amplitudes for psi in build_eecc(2).logical_states]
    L = np.column_stack([np.kron(a, b) for a in words for b in words])
    logical = L.conjugate().transpose() @ U @ L
    assert np.allclose(logical, np.diag([1, 1, 1, 1j]), atol=1e-10)


def test_pair_basis_dimension():
    assert pair_basis().dimension == 9
