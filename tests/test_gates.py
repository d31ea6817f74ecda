"""Generator algebra and gate-decomposition identities.

The four decomposition checks documented as failing in gates.verify_gates
are asserted here with their actual verdicts; the acceptance suite asserts
the printed identities themselves.
"""

import tracemalloc

import numpy as np
import pytest

import process_caches
from chi2qec import cli, gates
from chi2qec.fock import enumerate_irreducible_subspace
from chi2qec.gates import (
    SQRT2,
    _generator_closed_form,
    _three_wave_operator,
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
    verify_gates,
    xp_gate,
)

H2 = enumerate_irreducible_subspace(2)

# The documented red identities, in verify_gates order, with the max
# deviation each prints.
RED_IDENTITIES = {
    "XP_two_factor": "1.000e+00",
    "Hprime_full": "1.000e+00",
    "H_chain_full": "9.530e-01",
    "H_chain_code_block": "1.225e+00",
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
    # Named for the eigh cache the closed forms replaced.
    for k in range(1, 8):
        _, G, G2 = _generator_closed_form(k)
        for part in (G, G2):
            with pytest.raises(ValueError):
                part[0] = 1.0


def test_g3_is_diagonal_and_every_other_generator_cubes_to_r2_g():
    for k in range(1, 8):
        G = _fresh_generators()[k - 1]
        r, _, _ = _generator_closed_form(k)
        if k == 3:
            assert np.count_nonzero(G - np.diag(G.diagonal())) == 0
            assert r == 0.0
            continue
        r2 = np.trace(G @ G).real / 2
        assert r == pytest.approx(np.sqrt(r2), rel=1e-15)
        assert np.max(np.abs(G @ G @ G - r2 * G)) <= 1e-14 * r2 ** 1.5
        assert np.allclose(np.linalg.eigvalsh(G), [-r, 0.0, r], atol=1e-14)


def test_closed_form_refuses_a_generator_without_spectrum_zero_plus_minus_r(monkeypatch):
    lopsided = np.array([[1, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    monkeypatch.setattr(gates, "generator", lambda k: lopsided)
    with pytest.raises(ValueError, match="neither diagonal"):
        _generator_closed_form.__wrapped__(1)


# Every angle that verify_gates and the EECC recovery gates exponentiate at,
# and one that none of them uses.
ANGLES = (np.pi / 3, -np.pi / 3, 2 * np.pi / 3, -2 * np.pi / 3,
          np.pi / 6, -np.pi / 6, -np.pi / 12, 0.7)


@pytest.mark.parametrize("k", range(1, 8))
def test_evolve_factor_has_the_bits_of_a_fresh_eigh(k):
    # The closed form is held to an eigh reference within 1e-14, not bit
    # for bit: the two round differently.
    evals, vecs = np.linalg.eigh(_fresh_generators()[k - 1])
    for angle in ANGLES:
        reference = (vecs * np.exp(1j * angle * evals)) @ vecs.conjugate().transpose()
        assert np.max(np.abs(evolve([(k, angle)]) - reference)) <= 1e-14, angle


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


def test_cz_gate_refuses_a_cnot2pp_that_is_not_a_ket_permutation(monkeypatch):
    # Lambda21H has 1/sqrt2 entries: reading CZ22's phases through it would
    # build a wrong diagonal.  The phases are formed once per process, so
    # the caches are emptied first for the mutant F to be read.
    process_caches.clear()
    monkeypatch.setattr(gates, "cnot2pp_12", lambda21_h)
    with pytest.raises(ValueError, match="CNOT2pp_12"):
        cz_gate()


def test_verify_gates_forms_no_81x81_product():
    """The traced peak of a warm `verify_gates()` stays below the three
    81x81 complex arrays of 104,976 B each that a dense CZ holds: F (x) F,
    its phased copy and their product.  Measured with tracemalloc (warm,
    CPython 3.11, numpy 2.4): 480,391 B when CZ and its unitarity check
    were dense 81x81 products, 61,535 B with CZ read as 81 phases."""
    verify_gates()
    tracemalloc.start()
    try:
        verify_gates()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 81 * 81 * 16


def test_generator_index_validation():
    with pytest.raises(ValueError):
        generator(0)
    for k in (0, 8):
        with pytest.raises(ValueError):
            evolve([(k, 1.0)])
    with pytest.raises(ValueError):
        printed_generator_matrix(2)


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


def test_xp_is_real_orthogonal():
    # Why H_conjugation may multiply by the transpose of X_P for its inverse.
    xp = xp_gate()
    assert np.count_nonzero(xp.imag) == 0
    assert np.max(np.abs(xp.transpose() @ xp - np.eye(3))) <= 1e-15


def test_red_identities_are_pinned_by_name_and_deviation():
    rows = verify_gates()
    red = {r["name"]: "%.3e" % r["max_deviation"] for r in rows if not r["passed"]}
    assert list(red.items()) == list(RED_IDENTITIES.items())
    assert all(r["max_deviation"] <= 1e-14 for r in rows if r["passed"])
    assert cli.criterion_gates() == {
        "name": "7_gate_identities",
        "passed": False,
        "detail": "failing: " + ", ".join(RED_IDENTITIES),
    }


def test_g6_exponential_acts_as_sigma_x_on_lower_block():
    # e^{i 2pi G6/3} = i sigma_x on span{|220>,|002>} (G6 = 3/4 sigma_x
    # there); this is why the printed two-factor X_P form cannot hold.
    U = evolve([(6, 2 * np.pi / 3)])
    lower = [H2.index_of((2, 2, 0)), H2.index_of((0, 0, 2))]
    block = U[np.ix_(lower, lower)]
    assert np.allclose(block, 1j * np.array([[0, 1], [1, 0]]), atol=1e-12)
    assert U[H2.index_of((1, 1, 1)), H2.index_of((1, 1, 1))] == pytest.approx(1.0)


def test_appendix_order_is_placed_on_h2_by_named_kets():
    # The appendix prints its matrices in the order |111>, |220>, |002>.
    # Each printed table, placed on H_2 by the basis's own index of those
    # kets, is the constructed generator; and the logical gates map named
    # kets as their docstrings say.
    v_rows = [H2.index_of(state) for state in ((1, 1, 1), (2, 2, 0), (0, 0, 2))]
    for k, table in gates._PRINTED_GENERATORS.items():
        placed = np.zeros((3, 3), dtype=complex)
        placed[np.ix_(v_rows, v_rows)] = table
        assert np.array_equal(printed_generator_matrix(k), placed), k
        assert np.max(np.abs(generator(k) - placed)) <= 1e-14, k

    k002, k111, k220 = (np.eye(3)[:, H2.index_of(st)] for st in ((0, 0, 2), (1, 1, 1), (2, 2, 0)))
    zero, one = (k220 + k002) / SQRT2, k111
    maps = {
        xp_gate: [(k111, k111), (k220, (k220 - k002) / SQRT2),
                  (k002, (k220 + k002) / SQRT2)],
        hprime_gate: [(k002, k002), (k111, (k220 - k111) / SQRT2),
                      (k220, (k220 + k111) / SQRT2)],
        hadamard_gate: [(zero, (zero + one) / SQRT2), (one, (zero - one) / SQRT2),
                        ((k002 - k220) / SQRT2, (k002 - k220) / SQRT2)],
    }
    for gate, pairs in maps.items():
        U = gate()
        for ket, image in pairs:
            assert np.max(np.abs(U @ ket - image)) <= 1e-15, gate.__name__


def test_verify_gates_verdicts():
    results = {r["name"]: r["passed"] for r in verify_gates()}
    failed = {name for name, ok in results.items() if not ok}
    assert failed == set(RED_IDENTITIES)
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
