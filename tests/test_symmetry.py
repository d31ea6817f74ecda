"""Symmetry operators and joint unity-eigenspace synthesis."""

import dataclasses
import math
import re

import numpy as np
import pytest

from chi2qec import cli
from chi2qec import symmetry as symmetry_mod
from chi2qec.cli import pcc_operator_set
from chi2qec.codes import build, build_bc
from chi2qec.fock import (
    StateVector,
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
    signal_parity_operator,
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
    assert np.all(diag == 1)


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


def _completed_unitary(first_columns):
    """A unitary whose leading columns are the given orthonormal vectors,
    completed by QR of [vectors | identity]."""
    dim = first_columns.shape[0]
    Q, R = np.linalg.qr(np.column_stack([first_columns, np.eye(dim)]))
    k = first_columns.shape[1]
    Q[:, :k] *= np.sign(np.diag(R)[:k])
    return Q


@pytest.mark.parametrize("N", range(1, 7))
def test_factored_bc_symmetry_agrees_with_the_dense_operator(N):
    # S = Pi_s U_BS V U_BS^dagger built densely, U_BS mapping |+/-> to the
    # codewords and completed by QR; both codewords are its unity
    # eigenvectors, as the exact facts read by `synth bc` say.
    spec = build_bc(N)
    S = bc_symmetry_operator(spec)
    dim = spec.basis.dimension
    top, bottom = S.ends
    plus_minus = np.zeros((dim, 2))
    plus_minus[[top, bottom], 0] = plus_minus[top, 1] = 1 / math.sqrt(2)
    plus_minus[bottom, 1] = -1 / math.sqrt(2)
    words = np.column_stack([w.amplitudes for w in spec.logical_states])
    U = _completed_unitary(words) @ _completed_unitary(plus_minus).T
    assert np.allclose(U.conjugate().T @ U, np.eye(dim), atol=1e-10)
    assert np.allclose(U @ plus_minus, words, atol=1e-10)
    dense = (S.parity.operator.dense() @ U @ S.inversion.operator.dense()
             @ U.conjugate().T)
    assert np.allclose(dense @ words, words, atol=1e-10)


def _orbit_vectors(orbits, dim):
    """The orbits' fixed vectors as the columns of a dense array."""
    V = np.zeros((dim, len(orbits)), dtype=complex)
    for col, (kets, phases, modulus) in enumerate(orbits):
        V[kets, col] = np.exp(2j * np.pi * np.array(phases) / modulus) / math.sqrt(len(kets))
    return V


def test_joint_unity_eigenspace_of_inversion():
    basis = enumerate_irreducible_subspace(2)
    V = inversion_operator(2, 1, basis)
    # V fixes |111> and (|002>+|220>)/sqrt2.
    assert joint_unity_eigenspace([V]) == [([0, 2], [0, 0], 1), ([1], [0], 1)]


def test_joint_unity_eigenspace_of_identity_is_full():
    basis = enumerate_irreducible_subspace(2)
    I = SymmetryOperator("I", basis, np.arange(3), np.zeros(3), 1)
    assert len(joint_unity_eigenspace([I])) == 3


def test_non_commuting_operators_rejected():
    basis = enumerate_irreducible_subspace(2)
    Z = SymmetryOperator("Z_s", basis, np.arange(3), [s[0] for s in basis.states], 3)
    V = inversion_operator(2, 1, basis)
    with pytest.raises(NonCommutingOperators,
                       match=re.escape("Z_s and V^(2) group 1 do not commute")):
        joint_unity_eigenspace([Z, V])


def test_phases_that_differ_only_over_the_common_modulus_do_not_commute():
    # The rows commute (B is diagonal), but A B has phases (2, 3) and B A
    # has (5, 0) over lcm(3, 2) = 6.
    basis = enumerate_irreducible_subspace(1)
    A = SymmetryOperator("A", basis, [1, 0], [1, 0], 3)
    B = SymmetryOperator("B", basis, [0, 1], [0, 1], 2)
    with pytest.raises(NonCommutingOperators, match="^A and B do not commute$"):
        joint_unity_eigenspace([A, B])
    with pytest.raises(NonCommutingOperators, match="^B and A do not commute$"):
        joint_unity_eigenspace([B, A])


def test_empty_eigenspace_raises():
    basis = enumerate_irreducible_subspace(1)
    minus = SymmetryOperator("-I", basis, np.arange(2), np.ones(2), 2)
    with pytest.raises(EmptyEigenspace):
        joint_unity_eigenspace([minus])


def test_operator_that_does_not_permute_the_kets_is_refused():
    basis = enumerate_irreducible_subspace(1)
    with pytest.raises(ValueError, match="^P does not permute the kets of its basis$"):
        SymmetryOperator("P", basis, [0, 0], np.zeros(2), 1)


def test_orbit_phases_are_exact_and_a_phase_cycle_that_does_not_cancel_drops_its_orbit():
    # On H_2, V swaps |0,0,2> and |2,2,0> and fixes |1,1,1>; Pi_s is -1 on
    # |1,1,1> only.  V Pi_s keeps the orbit {|002>, |220>} (phase 0 both
    # ways) and drops |111>, whose one-step cycle has phase 1/2.
    basis = enumerate_irreducible_subspace(2)
    V = inversion_operator(2, 1, basis)
    V_Pi = symmetry_mod.compose("V Pi_s", V, signal_parity_operator(basis))
    assert joint_unity_eigenspace([V_Pi]) == [([0, 2], [0, 0], 2)]
    # A quarter-turn on one ket and its inverse on the other: the orbit's
    # second ket carries the phase exp(i pi / 2) relative to its first.
    twist = SymmetryOperator("T", basis, [2, 1, 0], [1, 0, 3], 4)
    assert joint_unity_eigenspace([twist])[0] == ([0, 2], [0, 1], 4)


def test_unity_phases_are_exactly_one():
    _, ops = pcc_operator_set(4)
    for op in ops:
        fixed = op.phases == 0
        assert np.all(op.operator.coeffs[fixed] == 1)


def _operator_set(code, N):
    """A synthesis set, or for "flow" the stage of criterion 2's flow on
    H_2 x H_2 whose eigenspace has dimension N: the Z pairs (9), with V (5),
    and the full PCC N=3 set (3)."""
    if code != "flow":
        return cli._SYNTHESIS_SETS[code](N)
    basis, full_ops = pcc_operator_set(3)
    z_ops = [z_pair_operator(3, pair, g, basis) for g in (1, 2) for pair in ("sp", "ip")]
    return basis, {9: z_ops, 5: z_ops + [inversion_operator_all_groups(2, basis)],
                   3: full_ops}[N]


def _dense_distance(ops, weights, denominator):
    """Max-entry distance between the projector onto the fixed space of the
    dense operators (the null space of the stacked S - I) and the projector
    of the codewords given by integer weights."""
    basis = ops[0].basis
    dim = basis.dimension
    stacked = np.vstack([op.operator.dense() - np.eye(dim) for op in ops])
    null = np.linalg.svd(stacked)[2][np.linalg.matrix_rank(stacked):].conjugate().T
    W = np.zeros((dim, len(weights)))
    for col, word in enumerate(weights):
        for ket, w in word.items():
            W[basis.index_of(ket), col] = math.sqrt(w / denominator)
    return np.max(np.abs(null @ null.conjugate().T - W @ W.T))


@pytest.mark.parametrize("code,N", [("pcc", N) for N in range(2, 13)]
                         + [("eecc", N) for N in range(2, 21)]
                         + [("flow", d) for d in (9, 5, 3)])
def test_orbit_space_matches_the_rank_of_the_stacked_dense_operators(code, N):
    # An independent reference: the fixed space of the dense operators has
    # dimension dim - rank(stacked S - I), and each orbit's vector must lie
    # in it.  The synthesis verdict is the dense projector comparison's.
    basis, ops = _operator_set(code, N)
    orbits = joint_unity_eigenspace(ops)
    V = _orbit_vectors(orbits, basis.dimension)
    assert np.allclose(V.conjugate().T @ V, np.eye(len(orbits)), atol=1e-14)
    mats = [op.operator.dense() for op in ops]
    for S in mats:
        assert np.allclose(S @ V, V, atol=1e-14)
    dim = basis.dimension
    stacked = np.vstack([S - np.eye(dim) for S in mats])
    assert len(orbits) == dim - np.linalg.matrix_rank(stacked)
    if code == "flow":
        assert len(orbits) == N
    else:
        spec = build(code, N)
        reference = _dense_distance(ops, spec.weights, spec.denominator) < 1e-8
        assert cli.synthesis_check(spec)["passed"] == reference == (code == "eecc" or N < 4)


def _moved_unit(spec):
    """`spec` with one unit of weight moved from codeword 0's first ket to
    its second, or, for a one-ket codeword 0, to the first ket no codeword
    holds; a ket left with weight 0 is dropped."""
    word = dict(spec.weights[0])
    first, *rest = word
    held = set().union(*spec.weights)
    target = rest[0] if rest else next(s for s in spec.basis.states if s not in held)
    word[first] -= 1
    word[target] = word.get(target, 0) + 1
    word = {ket: w for ket, w in word.items() if w}
    return dataclasses.replace(spec, weights=[word, *spec.weights[1:]])


@pytest.mark.parametrize("code,N,operator", [("pcc", 2, "V^(1) all groups"),
                                             ("pcc", 3, "V^(2) all groups"),
                                             ("eecc", 2, "V^(2) group 1"),
                                             ("eecc", 3, "V^(4) group 1")])
def test_a_moved_unit_of_codeword_weight_turns_the_synthesis_row_red(code, N, operator):
    mutant = _moved_unit(build(code, N))
    assert cli.synthesis_check(mutant) == {
        "name": "synthesis_%s_N%d" % (code, N), "passed": False,
        "detail": "%s does not fix codeword 0; dim %d = L %d" % (operator, N, N)}
    _, ops = _operator_set(code, N)
    assert _dense_distance(ops, mutant.weights, mutant.denominator) > 1e-8


def test_a_codeword_fixed_only_up_to_a_sign_turns_the_synthesis_row_red():
    # PCC N=3 with codeword 0 on the H_2 pair labels (2,1), (1,2), (0,1) and
    # (1,0) (weights doubled to keep them integer): V and X permute these
    # kets among equal weights, but Pi_s1 Pi_s2 gives each the phase -1.
    spec = build("pcc", 3)
    quartet = {(a, a, 2 - a, b, b, 2 - b): 1 for a, b in ((2, 1), (1, 2), (0, 1), (1, 0))}
    flipped = dataclasses.replace(spec, denominator=4, weights=[quartet] + [
        {k: 2 * w for k, w in word.items()} for word in spec.weights[1:]])
    assert cli.synthesis_check(flipped) == {
        "name": "synthesis_pcc_N3", "passed": False,
        "detail": "Pi_s1 Pi_s2 does not fix codeword 0; dim 3 = L 3"}
    _, ops = _operator_set("pcc", 3)
    assert _dense_distance(ops, flipped.weights, flipped.denominator) > 1e-8


def test_codewords_that_are_not_orthonormal_turn_the_synthesis_row_red():
    # Two equal codewords are each fixed, and there are L fixed orbits, but
    # they span one dimension too few, so the projectors differ.
    spec = build("eecc", 3)
    twin = dataclasses.replace(spec, weights=[spec.weights[0], *spec.weights[:2]])
    assert cli.synthesis_check(twin) == {"name": "synthesis_eecc_N3", "passed": False,
                                         "detail": "codewords are not orthonormal; dim 3 = L 3"}
    _, ops = _operator_set("eecc", 3)
    assert _dense_distance(ops, twin.weights, twin.denominator) > 1e-8


@pytest.mark.parametrize("N,extra", zip(range(4, 13), (2, 1, 6, 3, 12, 6, 20, 10, 30)))
def test_pcc_from_n4_has_extra_fixed_orbits_that_are_phase_zero_quartets(N, extra):
    # The published codewords are fixed, but dim - L more fixed orbits miss
    # their support.  Each is |a>|b>, |b>|a>, |a'>|b'>, |b'>|a'> in H_{N-1}
    # pair labels, with n' = N-1-n and b not in {a, a'}: a finding, recorded
    # as the FAIL it gives.
    spec = build("pcc", N)
    assert cli.synthesis_check(spec)["detail"] == (
        "orthonormal codewords fixed by every operator; dim %d != L %d" % (N + extra, N))
    basis, ops = _operator_set("pcc", N)
    support = {basis.index_of(ket) for word in spec.weights for ket in word}
    off = [o for o in joint_unity_eigenspace(ops) if not support & set(o.kets)]
    assert len(off) == extra
    for kets, phases, _ in off:
        a, b = basis.states[kets[0]][0], basis.states[kets[0]][3]
        a_, b_ = N - 1 - a, N - 1 - b
        assert b not in (a, a_)
        assert sorted((basis.states[j][0], basis.states[j][3]) for j in kets) == sorted(
            [(a, b), (b, a), (a_, b_), (b_, a_)])
        assert phases == [0, 0, 0, 0]


def test_inversion_all_groups():
    basis = enumerate_irreducible_subspace(1, groups=2)
    V = inversion_operator_all_groups(1, basis)
    psi = StateVector.from_terms(basis, {(0, 0, 1, 1, 1, 0): 1.0})
    out = apply(V.operator, psi)
    assert out.support() == [((1, 1, 0, 0, 0, 1), 1.0 + 0.0j)]
