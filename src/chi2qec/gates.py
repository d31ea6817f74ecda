"""chi(2) generator algebra on H_2 and the logical/physical gate library.

Appendix-style 3x3 matrices use the basis order v = [|1,1,1>, |2,2,0>,
|0,0,2>]; the canonical H_2 basis is ascending-n [|0,0,2>, |1,1,1>,
|2,2,0>].  Helpers convert between the two.  Gates that are printed on a
partial domain are completed to unitaries by identity on the untouched
complement.  Each gate function returns its unitary as a complex ndarray.
"""

import functools
import math
from typing import List, Sequence, Tuple

import numpy as np

from .fock import (
    BasisIndex,
    enumerate_irreducible_subspace,
    monomial_operator,
)

SQRT2 = math.sqrt(2.0)

# Appendix basis order on H_2.
V_ORDER = ((1, 1, 1), (2, 2, 0), (0, 0, 2))
# Canonical H_2 order (ascending n): index of each v-state.
_CANONICAL = ((0, 0, 2), (1, 1, 1), (2, 2, 0))


def _perm_v_to_canonical() -> np.ndarray:
    """Permutation P with (P M P^T) converting a v-order matrix to
    canonical H_2 order."""
    P = np.zeros((3, 3))
    for c_idx, state in enumerate(_CANONICAL):
        v_idx = V_ORDER.index(state)
        P[c_idx, v_idx] = 1.0
    return P


def v_to_canonical(matrix: np.ndarray) -> np.ndarray:
    P = _perm_v_to_canonical()
    return P @ matrix @ P.transpose()


def canonical_to_v(matrix: np.ndarray) -> np.ndarray:
    P = _perm_v_to_canonical()
    return P.transpose() @ matrix @ P


def _three_wave_operator() -> np.ndarray:
    """A = a_s^dag a_i^dag a_p on H_2, in v order."""
    h2 = enumerate_irreducible_subspace(2)
    op = monomial_operator([(2, "lower"), (1, "raise"), (0, "raise")], h2)
    return canonical_to_v(op.dense())


def _comm(a, b):
    return a @ b - b @ a


@functools.cache
def _generator_matrices() -> Tuple[np.ndarray, ...]:
    """(G1, ..., G7) as read-only arrays, built on first use: A and its
    commutator chain are fixed, and `verify_gates` alone asks for a
    generator 27 times."""
    A = _three_wave_operator()
    g1 = 0.5j * (A - A.conjugate().transpose())
    g2 = 0.5 * (A + A.conjugate().transpose())
    g3 = 1j * _comm(g1, g2)
    g4 = 1j * _comm(g3, g1)
    g5 = 1j * _comm(g3, g2)
    g6 = (1j * _comm(g1, g4) + 1j * _comm(g5, g2)) / (4 * SQRT2)
    g7 = 1j * _comm(g2, g4) / (2 * SQRT2)
    matrices = (g1, g2, g3, g4, g5, g6, g7)
    for M in matrices:
        M.flags.writeable = False
    return matrices


def generator(k: int) -> np.ndarray:
    """The seven chi(2) generators on H_2 (coupling kappa = 1).

    G1 = (i/2)(A - A^dag), G2 = (A + A^dag)/2 with A = a_s^dag a_i^dag a_p,
    G3 = i[G1,G2], G4 = i[G3,G1], G5 = i[G3,G2],
    G6 = (i[G1,G4] + i[G5,G2]) / (4 sqrt 2), G7 = i[G2,G4] / (2 sqrt 2).
    The normalizations reproduce the printed 3x3 matrices; see the tests
    for the printed forms.  Returns the 3x3 Hermitian matrix in v order,
    shared and read-only.
    """
    if not 1 <= k <= 7:
        raise ValueError("generator index must be in 1..7")
    return _generator_matrices()[k - 1]


@functools.cache
def _generator_eigh(k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors V, V^dag) of G_k, read-only, from one eigh."""
    evals, vecs = np.linalg.eigh(generator(k))
    parts = (evals, vecs, vecs.conjugate().transpose())
    for part in parts:
        part.flags.writeable = False
    return parts


def evolve(decomposition: Sequence[Tuple[int, float]]) -> np.ndarray:
    """Ordered product of exp(i angle G_k) = V exp(i angle D) V^dag, from
    G_k's cached eigh; the first listed factor is the leftmost in the
    product (matching how the decompositions are written)."""
    out = np.eye(3, dtype=complex)
    for k, angle in decomposition:
        evals, vecs, vecs_h = _generator_eigh(k)
        out = out @ ((vecs * np.exp(1j * angle * evals)) @ vecs_h)
    return out


def equal_up_to_global_phase(A: np.ndarray, B: np.ndarray, tol: float = 1e-10):
    """True iff A = e^{i theta} B within tol; returns (verdict, theta, dev)."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        raise ValueError("shape mismatch")
    flat = np.argmax(np.abs(B))
    ref = B.reshape(-1)[flat]
    if abs(ref) < tol:
        dev = float(np.max(np.abs(A - B)))
        return dev <= tol, 0.0, dev
    phase = A.reshape(-1)[flat] / ref
    if abs(phase) < tol:
        return False, 0.0, float(np.max(np.abs(A - B)))
    phase = phase / abs(phase)
    dev = float(np.max(np.abs(A - phase * B)))
    return dev <= tol, float(np.angle(phase)), dev


# ---------------------------------------------------------------------------
# 3x3 logical gates in v order.


def _ket(v_index: int) -> np.ndarray:
    e = np.zeros(3, dtype=complex)
    e[v_index] = 1.0
    return e


def xp_gate() -> np.ndarray:
    """X_P: |111> fixed, |220> -> (|220>-|002>)/sqrt2,
    |002> -> (|220>+|002>)/sqrt2 (rotates the code basis onto
    {|220>, |111>})."""
    U = np.zeros((3, 3), dtype=complex)
    U[0, 0] = 1.0
    U[:, 1] = (_ket(1) - _ket(2)) / SQRT2
    U[:, 2] = (_ket(1) + _ket(2)) / SQRT2
    return U


def hprime_gate() -> np.ndarray:
    """H': Hadamard on the {|111>, |220>} qutrit block, |002> fixed."""
    U = np.zeros((3, 3), dtype=complex)
    U[:, 0] = (_ket(1) - _ket(0)) / SQRT2
    U[:, 1] = (_ket(1) + _ket(0)) / SQRT2
    U[2, 2] = 1.0
    return U


def hadamard_gate() -> np.ndarray:
    """Encoded Hadamard: |0~> -> (|0~>+|1~>)/sqrt2 etc. with
    |0~> = (|220>+|002>)/sqrt2, |1~> = |111>, and the orthogonal
    combination (|002>-|220>)/sqrt2 fixed."""
    zero = (_ket(1) + _ket(2)) / SQRT2
    one = _ket(0)
    w = (_ket(2) - _ket(1)) / SQRT2
    return (
        np.outer((zero + one) / SQRT2, zero.conjugate())
        + np.outer((zero - one) / SQRT2, one.conjugate())
        + np.outer(w, w.conjugate())
    )


# ---------------------------------------------------------------------------
# Two-physical-qutrit gates on H_2 (x) H_2 (canonical 9-dim basis).
# 3x3 primitives below are in CANONICAL H_2 order [|002>, |111>, |220>].

_C002, _C111, _C220 = 0, 1, 2


def _proj(i):
    M = np.zeros((3, 3), dtype=complex)
    M[i, i] = 1.0
    return M


def _shift(i, j):
    M = np.zeros((3, 3), dtype=complex)
    M[i, j] = 1.0
    return M


_I3 = np.eye(3, dtype=complex)
_SWAP02 = _shift(_C002, _C220) + _shift(_C220, _C002)
_CYCLE = (
    _shift(_C220, _C111) + _shift(_C111, _C002) + _shift(_C002, _C220)
)  # |220><111| + |111><002| + |002><220|
_MPLUS = np.zeros((3, 3), dtype=complex)
_MPLUS[:, _C002] = np.array([1, 0, 1]) / SQRT2  # |+> = (|002>+|220>)/sqrt2
_MPLUS[:, _C220] = np.array([1, 0, -1]) / SQRT2  # |-> (identity completion on
_MPLUS[_C111, _C111] = 1.0  # |111> restores unitarity)


def pair_basis() -> BasisIndex:
    return enumerate_irreducible_subspace(2, groups=2)


def cnot3_12() -> np.ndarray:
    return (
        np.kron(_proj(_C111), _I3)
        + np.kron(_proj(_C002), _CYCLE)
        + np.kron(_proj(_C220), _CYCLE.conjugate().transpose())
    )


def cnot2_21() -> np.ndarray:
    # Printed with a 1/sqrt2 on the controlled block; dropped (unitarity).
    return np.kron(_I3, _proj(_C002) + _proj(_C220)) + np.kron(
        _proj(_C002) + _shift(_C111, _C220) + _shift(_C220, _C111), _proj(_C111)
    )


def lambda21_h() -> np.ndarray:
    return np.kron(_I3, _proj(_C002) + _proj(_C111)) + np.kron(_MPLUS, _proj(_C220))


def lambda21_h_bar() -> np.ndarray:
    return np.kron(_I3, _proj(_C111) + _proj(_C220)) + np.kron(_MPLUS, _proj(_C002))


def cnot2p_12() -> np.ndarray:
    return np.kron(_proj(_C111) + _proj(_C220), _I3) + np.kron(
        _proj(_C002), _SWAP02 + _proj(_C111)
    )


def cnot2pp_12() -> np.ndarray:
    """Controlled swap of the second qutrit's |002>/|220> pair; as F it
    shuttles logical content onto one physical qutrit before the CZ."""
    return np.kron(_proj(_C002) + _proj(_C111), _I3) + np.kron(
        _proj(_C220), _SWAP02 + _proj(_C111)
    )


def cz_gate() -> np.ndarray:
    """Logical qutrit CZ: (F (x) F)^dag CZ22 (F (x) F), F = CNOT2pp.  CZ22,
    the qutrit CZ (phase omega^{jk}) between the second physical qutrits of
    the two code blocks, is diagonal, so it scales the rows of F (x) F; the
    digit of |n,n,2-n> is (1 - n) mod 3: |111> -> 0, |002> -> 1, |220> -> 2."""
    F = cnot2pp_12()
    FF = np.kron(F, F)
    powers = np.array([np.exp(2j * np.pi / 3) ** e for e in range(5)])
    digit = (1 - pair_basis().occupations[:, 3]) % 3
    phases = powers[np.outer(digit, digit).ravel()]
    return FF.conjugate().transpose() @ (phases[:, None] * FF)


def lambda_s_gate() -> np.ndarray:
    """Lambda(S) on two embedded qubits (H_2 x H_2): conjugate the
    both-qutrits-in-|111> phase-i gate by X_P on each factor; equals
    diag(1,1,1,i) in the logical basis."""
    xp = v_to_canonical(xp_gate())
    D = np.eye(9, dtype=complex)
    i11 = 3 * _C111 + _C111
    D[i11, i11] = 1j
    XX = np.kron(xp, xp)
    return XX.conjugate().transpose() @ D @ XX


# Printed 3x3 generator matrices (v order) that the commutator
# constructions must reproduce.
def printed_generator_matrix(k: int) -> np.ndarray:
    if k == 3:
        return np.diag([1.0, -2.0, 1.0]).astype(complex)
    if k == 4:
        M = np.zeros((3, 3), dtype=complex)
        M[0, 1] = M[1, 0] = 3.0
        return M
    if k == 5:
        M = np.zeros((3, 3), dtype=complex)
        M[0, 1] = 3.0j
        M[1, 0] = -3.0j
        return M
    if k == 6:
        M = np.zeros((3, 3), dtype=complex)
        M[1, 2] = M[2, 1] = 0.75
        return M
    if k == 7:
        M = np.zeros((3, 3), dtype=complex)
        M[1, 2] = -0.75j
        M[2, 1] = 0.75j
        return M
    raise ValueError("printed matrices exist for k in 3..7")


def _restrict(U: np.ndarray, vectors: Sequence[np.ndarray]) -> np.ndarray:
    V = np.column_stack(vectors)
    return V.conjugate().transpose() @ U @ V


def verify_gates() -> List[dict]:
    """Run every decomposition/identity check; returns JSON-ready records
    (name, decomposition, max deviation, verdict), each judged at the
    absolute tolerance 1e-10.

    Known red entries (documented): the two-factor X_P form (the G6
    factor is exp(i pi sigma_x/2) = i sigma_x on the {|220>,|002>} block,
    not a phase), the H' decomposition on the full 3-dim space (the G4/G5
    exponentials leave |002> fixed while H' has a det=-1 block, so no
    single global phase can exist), and the six-factor H chain both on
    the full space and on the code block (the stray sigma_x conjugation
    moves the Hadamard onto the wrong block).  Passing companions:
    X_P = e^{i pi G7/3} exactly, H' on its qubit block, the four-factor
    chain on the code block, and H = X_P^-1 H' X_P exactly.
    """
    results = []

    def record(name, decomposition, A, B, restrict=None):
        if restrict is not None:
            A = _restrict(A, restrict)
            B = _restrict(B, restrict)
        ok, _, dev = equal_up_to_global_phase(A, B)
        results.append(
            {
                "name": name,
                "decomposition": decomposition,
                "max_deviation": dev,
                "passed": bool(ok),
            }
        )

    xp = xp_gate()
    hp = hprime_gate()
    h = hadamard_gate()

    record("XP_two_factor", "e^{i2pi G6/3} e^{i pi G7/3}",
           evolve([(6, 2 * np.pi / 3), (7, np.pi / 3)]), xp)
    record("XP_single_factor", "e^{i pi G7/3}", evolve([(7, np.pi / 3)]), xp)
    record("Hprime_full", "e^{i pi G4/6} e^{-i pi G5/12}",
           evolve([(4, np.pi / 6), (5, -np.pi / 12)]), hp)
    qubit_block = [np.eye(3, dtype=complex)[:, 0], np.eye(3, dtype=complex)[:, 1]]
    record("Hprime_qubit_block", "same, restricted to {|111>,|220>}",
           evolve([(4, np.pi / 6), (5, -np.pi / 12)]), hp, restrict=qubit_block)
    chain = evolve(
        [
            (7, -np.pi / 3),
            (6, -2 * np.pi / 3),
            (4, np.pi / 6),
            (5, -np.pi / 12),
            (6, 2 * np.pi / 3),
            (7, np.pi / 3),
        ]
    )
    record("H_chain_full", "six-factor generator chain", chain, h)
    zero = np.array([0, 1, 1], dtype=complex) / SQRT2
    one = np.array([1, 0, 0], dtype=complex)
    record("H_chain_code_block", "same, restricted to the code space",
           chain, h, restrict=[zero, one])
    four = evolve([(7, -np.pi / 3), (4, np.pi / 6), (5, -np.pi / 12), (7, np.pi / 3)])
    record("H_chain_four_factor_code_block",
           "G6 factors dropped, restricted to the code space",
           four, h, restrict=[zero, one])
    record("H_conjugation", "XP^-1 Hprime XP",
           np.linalg.inv(xp) @ hp @ xp, h)

    for k in range(3, 8):
        record("G%d_printed" % k, "G%d commutator construction" % k,
               generator(k), printed_generator_matrix(k))

    cz = cz_gate()
    unit_dev = float(np.max(np.abs(cz.conjugate().transpose() @ cz - np.eye(81))))
    results.append(
        {
            "name": "CZ_unitary",
            "decomposition": "(F x F)^dag CZ22 (F x F)",
            "max_deviation": unit_dev,
            "passed": bool(unit_dev <= 1e-10),
        }
    )

    # Logical action: <j~ k~| CZ |j'~ k'~> = omega^{jk} delta.
    from .codes import build_pcc

    pcc = build_pcc(3)
    words = pcc.block(pcc.basis).T
    L = np.column_stack([np.kron(wa, wb) for wa in words for wb in words])
    logical = L.conjugate().transpose() @ cz @ L
    omega = np.exp(2j * np.pi / 3)
    target = np.diag([omega ** (j * k) for j in range(3) for k in range(3)])
    record("CZ_logical_pattern", "diag(omega^{jk}) on the logical qutrit pair",
           logical, target)
    return results
