"""chi(2) generator algebra on H_2 and the logical/physical gate library.

Every matrix here is in the canonical H_2 order [|0,0,2>, |1,1,1>,
|2,2,0>] (ascending n, the order of `enumerate_irreducible_subspace(2)`,
the codes and the recovery pipelines).  The appendix prints its generator
matrices in the order v = [|1,1,1>, |2,2,0>, |0,0,2>]; that order appears
only in `printed_generator_matrix`, which places the printed tables on
H_2.  Gates that are printed on a partial domain are completed to
unitaries by identity on the untouched complement.  Each gate function
returns its unitary as a complex ndarray.  Generator exponentials are
exact closed forms (G3 is diagonal, and every other G_k has the spectrum
{0, +-r}), so no check here factorizes a matrix.
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

# H_2 indices of the three kets.
_C002, _C111, _C220 = 0, 1, 2
_I3 = np.eye(3, dtype=complex)


def _three_wave_operator() -> np.ndarray:
    """A = a_s^dag a_i^dag a_p on H_2."""
    h2 = enumerate_irreducible_subspace(2)
    return monomial_operator([(2, "lower"), (1, "raise"), (0, "raise")], h2).dense()


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
    for the printed forms.  Returns the 3x3 Hermitian matrix on H_2,
    shared and read-only.
    """
    if not 1 <= k <= 7:
        raise ValueError("generator index must be in 1..7")
    return _generator_matrices()[k - 1]


@functools.cache
def _generator_closed_form(k: int) -> Tuple[float, np.ndarray, np.ndarray]:
    """(r, G, G^2) of the constructed G_k, the arrays read-only, built once
    per process.  r = 0 marks a diagonal G_k (G3).  Every other G_k has
    the spectrum {0, +-r} with r^2 = tr(G^2)/2, so G^3 = r^2 G; that is
    checked here, within rounding, and a G_k that fails it raises
    ValueError."""
    G = generator(k)
    G2 = G @ G
    G2.flags.writeable = False
    if not np.count_nonzero(G - np.diag(G.diagonal())):
        return 0.0, G, G2
    r = math.sqrt(np.trace(G2).real / 2)
    residual = float(np.max(np.abs(G2 @ G - r * r * G)))
    if residual > 1e-12 * r ** 3:
        raise ValueError(
            "G%d is neither diagonal nor of spectrum {0, +-r}: "
            "|G^3 - r^2 G| = %.3e" % (k, residual))
    return r, G, G2


def evolve(decomposition: Sequence[Tuple[int, float]]) -> np.ndarray:
    """Ordered product of exp(i angle G_k); the first listed factor is the
    leftmost in the product (matching how the decompositions are written).
    Each factor is exact in closed form, with no eigensolver: a diagonal
    G_k (G3) is exponentiated elementwise on its diagonal, and every other
    G_k, whose spectrum is {0, +-r}, gives I + (i sin(r angle)/r) G
    + ((cos(r angle) - 1)/r^2) G^2."""
    out = np.eye(3, dtype=complex)
    for k, angle in decomposition:
        r, G, G2 = _generator_closed_form(k)
        if r:
            factor = (_I3 + (1j * math.sin(r * angle) / r) * G
                      + ((math.cos(r * angle) - 1) / (r * r)) * G2)
        else:
            factor = np.diag(np.exp(1j * angle * G.diagonal()))
        out = out @ factor
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
# 3x3 logical gates on H_2.


def xp_gate() -> np.ndarray:
    """X_P: |111> fixed, |220> -> (|220>-|002>)/sqrt2,
    |002> -> (|220>+|002>)/sqrt2 (rotates the code basis onto
    {|220>, |111>})."""
    s = 1 / SQRT2
    return np.array([[s, 0, -s],
                     [0, 1, 0],
                     [s, 0, s]], dtype=complex)


def hprime_gate() -> np.ndarray:
    """H': Hadamard on the {|111>, |220>} qutrit block, |002> fixed:
    |111> -> (|220>-|111>)/sqrt2, |220> -> (|220>+|111>)/sqrt2."""
    s = 1 / SQRT2
    return np.array([[1, 0, 0],
                     [0, -s, s],
                     [0, s, s]], dtype=complex)


def hadamard_gate() -> np.ndarray:
    """Encoded Hadamard: |0~> -> (|0~>+|1~>)/sqrt2 etc. with
    |0~> = (|220>+|002>)/sqrt2, |1~> = |111>, and the orthogonal
    combination (|002>-|220>)/sqrt2 fixed."""
    zero = np.array([1, 0, 1], dtype=complex) / SQRT2
    one = np.array([0, 1, 0], dtype=complex)
    w = np.array([1, 0, -1], dtype=complex) / SQRT2
    return (np.outer((zero + one) / SQRT2, zero)
            + np.outer((zero - one) / SQRT2, one)
            + np.outer(w, w))


# ---------------------------------------------------------------------------
# Two-physical-qutrit gates on H_2 (x) H_2 (the 9-dim `pair_basis`).


def _proj(i):
    M = np.zeros((3, 3), dtype=complex)
    M[i, i] = 1.0
    return M


def _shift(i, j):
    M = np.zeros((3, 3), dtype=complex)
    M[i, j] = 1.0
    return M


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


@functools.cache
def _cz_phases() -> np.ndarray:
    """The 81 diagonal entries of the logical qutrit CZ,
    (F (x) F)^dag CZ22 (F (x) F) with F = CNOT2pp.  CZ22, the qutrit CZ
    (phase omega^{jk}) between the second physical qutrits of the two code
    blocks, is diagonal and F is a ket permutation, so CZ is diagonal: its
    entry at a ket is CZ22's phase at the ket F (x) F sends it to.  The
    digit of |n,n,2-n> is (1 - n) mod 3: |111> -> 0, |002> -> 1,
    |220> -> 2.  Raises ValueError if F is not a 0/1 permutation.  F is
    fixed, so the phases are formed once per process, read-only."""
    F = cnot2pp_12()
    perm = F.real.argmax(axis=0)  # F sends pair ket a to pair ket perm[a]
    if (not np.array_equal(F, np.eye(len(F))[:, perm])
            or not np.array_equal(np.sort(perm), np.arange(len(F)))):
        raise ValueError("CNOT2pp_12 is not a 0/1 ket permutation, so the "
                         "logical CZ cannot be read off CZ22's phases")
    # omega^{jk} with jk in 0..4 unreduced: the float omega^4 and omega^1
    # differ in their last bits.
    powers = np.array([np.exp(2j * np.pi / 3) ** e for e in range(5)])
    digit = (1 - pair_basis().occupations[:, 3]) % 3
    phases = powers[np.outer(digit, digit).ravel()][(len(F) * perm[:, None] + perm).ravel()]
    phases.flags.writeable = False
    return phases


def cz_gate() -> np.ndarray:
    """Logical qutrit CZ as a dense 81x81 matrix: the diagonal of
    `_cz_phases`."""
    return np.diag(_cz_phases())


def lambda_s_gate() -> np.ndarray:
    """Lambda(S) on two embedded qubits (H_2 x H_2): conjugate the
    both-qutrits-in-|111> phase-i gate D by X_P on each factor; equals
    diag(1,1,1,i) in the logical basis.  D is the identity but for the
    entry i at |111,111>, so (X_P x X_P)^dag D (X_P x X_P) is
    I + (i - 1) outer(conj(x), x), x that ket's row of X_P x X_P."""
    xp = xp_gate()
    x = np.kron(xp[_C111], xp[_C111])
    return np.eye(9, dtype=complex) + (1j - 1) * np.outer(x.conjugate(), x)


# The appendix's 3x3 generator matrices as printed, in its order
# v = [|111>, |220>, |002>]; `_V_ON_H2[j]` is the H_2 index of v_j.
_V_ON_H2 = [_C111, _C220, _C002]
_PRINTED_GENERATORS = {
    3: [[1, 0, 0], [0, -2, 0], [0, 0, 1]],
    4: [[0, 3, 0], [3, 0, 0], [0, 0, 0]],
    5: [[0, 3j, 0], [-3j, 0, 0], [0, 0, 0]],
    6: [[0, 0, 0], [0, 0, 0.75], [0, 0.75, 0]],
    7: [[0, 0, 0], [0, 0, -0.75j], [0, 0.75j, 0]],
}


def printed_generator_matrix(k: int) -> np.ndarray:
    """The appendix's printed G_k (k in 3..7), placed on H_2; the
    commutator constructions must reproduce it."""
    if k not in _PRINTED_GENERATORS:
        raise ValueError("printed matrices exist for k in 3..7")
    M = np.zeros((3, 3), dtype=complex)
    M[np.ix_(_V_ON_H2, _V_ON_H2)] = _PRINTED_GENERATORS[k]
    return M


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
    qubit_block = [_I3[:, _C111], _I3[:, _C220]]
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
    zero = (_I3[:, _C220] + _I3[:, _C002]) / SQRT2
    one = _I3[:, _C111]
    record("H_chain_code_block", "same, restricted to the code space",
           chain, h, restrict=[zero, one])
    four = evolve([(7, -np.pi / 3), (4, np.pi / 6), (5, -np.pi / 12), (7, np.pi / 3)])
    record("H_chain_four_factor_code_block",
           "G6 factors dropped, restricted to the code space",
           four, h, restrict=[zero, one])
    # X_P is real orthogonal, so its transpose is its inverse.
    record("H_conjugation", "XP^-1 Hprime XP", xp.transpose() @ hp @ xp, h)

    for k in range(3, 8):
        record("G%d_printed" % k, "G%d commutator construction" % k,
               generator(k), printed_generator_matrix(k))

    # CZ is diagonal, so it is read as its 81 phases d.
    d = _cz_phases()
    unit_dev = float(np.max(np.abs(d.conjugate() * d - 1)))
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
    words = pcc.block(pcc.basis)
    # Column 3a + b of L is codeword a (x) codeword b.
    L = (words[:, None, :, None] * words[None, :, None, :]).reshape(81, 9)
    logical = L.conjugate().transpose() @ (d[:, None] * L)
    omega = np.exp(2j * np.pi / 3)
    target = np.diag([omega ** (j * k) for j in range(3) for k in range(3)])
    record("CZ_logical_pattern", "diag(omega^{jk}) on the logical qutrit pair",
           logical, target)
    return results
