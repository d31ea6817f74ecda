"""Symmetry operators and joint unity-eigenspace code synthesis.

The code subspaces are the simultaneous unity-eigenvalue eigenspaces of a
small set of commuting unitaries: diagonal Z-phase pairs, photon-number
inversion V, the group swap X, the signal parity Pi_s, and a
pseudo-beam-splitter U_BS used by the bosonic code.
"""

from dataclasses import dataclass
import math
from typing import List, Sequence

import numpy as np

from .codes import build_bc
from .fock import BasisIndex, LinearOperator, StateVector, compose, embed, ket_map_operator

DEFAULT_TOL = 1e-9


class NonCommutingOperators(ValueError):
    """Symmetry operators failed the mutual-commutation pre-check."""


class EmptyEigenspace(ValueError):
    """No joint unity eigenvector was found at the given tolerance."""


@dataclass
class SymmetryOperator:
    name: str
    operator: LinearOperator

    def unitarity_defect(self) -> float:
        U = self.operator.dense()
        return float(np.max(np.abs(U.conjugate().transpose() @ U - np.eye(len(U)))))


def _group_mode_positions(basis: BasisIndex, group: int):
    """Mode column indices (s, i, p) of a three-mode group in an
    irreducible-subspace basis (groups are laid out consecutively)."""
    start = 3 * (group - 1)
    if len(basis.states[0]) < start + 3:
        raise ValueError("basis has no group %d" % group)
    return start, start + 1, start + 2


def z_pair_operator(M: int, pair: str, group: int, basis: BasisIndex) -> SymmetryOperator:
    """Diagonal phase pair e^{i2pi/M} Z_a^{(M)} (x) Z_b^{(M)} with
    Z_k^{(M)} = sum_n e^{i2pi n/M}|n><n|.

    `pair` is "sp" (signal,pump) or "ip" (idler,pump).  Every state of
    H_{M-1} is a unity eigenstate: the phase is 2pi(1 + n + M-1-n)/M.
    """
    if pair not in ("sp", "ip"):
        raise ValueError("pair must be 'sp' or 'ip'")
    s, i, p = _group_mode_positions(basis, group)
    a = s if pair == "sp" else i
    b = p
    phases = np.array(
        [np.exp(2j * np.pi * (1 + st[a] + st[b]) / M) for st in basis.states]
    )
    op = LinearOperator.diagonal(basis, phases)
    return SymmetryOperator("Z_%s^(M=%d) group %d" % (pair, M, group), op)


def inversion_operator(M: int, group: int, basis: BasisIndex) -> SymmetryOperator:
    """Photon-number inversion on one group: |n,n,M-n> -> |M-n,M-n,n>.

    Defined on bases whose group occupations lie in H_M; an involution.
    """
    s, i, p = _group_mode_positions(basis, group)

    def image(st):
        n, n2, np_ = st[s], st[i], st[p]
        if n != n2 or n + np_ != M:
            raise ValueError(
                "inversion_operator: state %r outside H_%d on group %d"
                % (st, M, group)
            )
        return st[:s] + (M - n, M - n, n) + st[p + 1:]

    return SymmetryOperator("V^(%d) group %d" % (M, group), ket_map_operator(basis, image))


def inversion_operator_all_groups(M: int, basis: BasisIndex) -> SymmetryOperator:
    """Tensor product of the inversion over every group of the basis."""
    n_groups = len(basis.states[0]) // 3
    op = None
    for g in range(1, n_groups + 1):
        part = inversion_operator(M, g, basis).operator
        op = part if op is None else compose(part, op)
    return SymmetryOperator("V^(%d) all groups" % M, op)


def swap_operator(basis: BasisIndex) -> SymmetryOperator:
    """Swap the two three-mode groups: |x>_1|y>_2 -> |y>_1|x>_2."""
    width = len(basis.states[0])
    if width != 6:
        raise ValueError("swap_operator requires a two-group (6-mode) basis")
    return SymmetryOperator("X_{1,2}", ket_map_operator(basis, lambda st: st[3:] + st[:3]))


def signal_parity_operator(basis: BasisIndex, group: int = 1) -> SymmetryOperator:
    """Pi_s = (-1)^{n_s}, diagonal."""
    s, _, _ = _group_mode_positions(basis, group)
    phases = np.array([(-1.0) ** st[s] for st in basis.states], dtype=complex)
    return SymmetryOperator("Pi_s", LinearOperator.diagonal(basis, phases))


def pseudo_beamsplitter(N: int, basis: BasisIndex) -> np.ndarray:
    """Pseudo-beam-splitter matrix on H_{2N-1}.

    U_BS = |0~><+| + |1~><-| + sum_j |e_j~><j,j,2N-1-j| where
    |+/-> = (|0,0,2N-1> +/- |2N-1,2N-1,0>)/sqrt(2), |0~>,|1~> are the
    binomial codewords, and {|e_j~>} is an orthonormal completion obtained
    by Gram-Schmidt of the computational kets |j,j,2N-1-j> (j ascending)
    against the codewords.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    M = 2 * N - 1
    dim = basis.dimension
    if dim != 2 * N:
        raise ValueError("pseudo_beamsplitter expects the H_%d basis" % M)
    zero, one = (embed(w, basis).amplitudes for w in build_bc(N).logical_states)
    plus = np.zeros(dim, dtype=complex)
    minus = np.zeros(dim, dtype=complex)
    top = basis.index_of((0, 0, M))
    bot = basis.index_of((M, M, 0))
    plus[top] = plus[bot] = 1 / math.sqrt(2)
    minus[top] = 1 / math.sqrt(2)
    minus[bot] = -1 / math.sqrt(2)

    # Orthonormal completion of span{|0~>,|1~>} by Gram-Schmidt over the
    # computational kets in ascending-j order.
    completion = []
    have = [zero, one]
    for j in range(1, M):
        v = np.zeros(dim, dtype=complex)
        v[basis.index_of((j, j, M - j))] = 1.0
        for w in have + completion:
            v = v - np.vdot(w, v) * w
        nv = np.linalg.norm(v)
        if nv > 1e-12:
            completion.append(v / nv)
    if len(completion) != 2 * N - 2:
        raise RuntimeError("failed to complete the beam-splitter basis")

    U = np.outer(zero, plus.conjugate()) + np.outer(one, minus.conjugate())
    for j, ej in enumerate(completion, start=1):
        ket = np.zeros(dim, dtype=complex)
        ket[basis.index_of((j, j, M - j))] = 1.0
        U += np.outer(ej, ket.conjugate())
    return U


def bc_symmetry_operator(N: int, basis: BasisIndex) -> np.ndarray:
    """Matrix of Pi_s U_BS V^{(2N-1)} U_BS^dagger — the bosonic-code
    symmetry whose unity eigenvectors include both codewords."""
    ubs = pseudo_beamsplitter(N, basis)
    v = inversion_operator(2 * N - 1, 1, basis).operator.dense()
    pi = signal_parity_operator(basis).operator.dense()
    return pi @ ubs @ v @ ubs.conjugate().transpose()


def joint_unity_eigenspace(
    ops: Sequence[SymmetryOperator], tol: float = DEFAULT_TOL
) -> List[StateVector]:
    """Orthonormal basis of the simultaneous unity-eigenvalue eigenspace.

    Stacks (S_j - I) blocks and extracts the numerical nullspace by SVD with
    singular-value threshold `tol`.  The returned vectors are canonicalized
    (Gram-Schmidt of canonical-basis projections in index order, first
    nonzero amplitude made real-positive) so results are deterministic.
    """
    if not ops:
        raise ValueError("need at least one operator")
    basis = ops[0].operator.domain
    dim = basis.dimension
    mats = []
    for s in ops:
        if s.operator.domain != basis:
            raise ValueError("operators must share a domain")
        mats.append(s.operator.dense())

    # Commutation pre-check at the synthesis tolerance.
    max_comm = 0.0
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            c = mats[a] @ mats[b] - mats[b] @ mats[a]
            max_comm = max(max_comm, float(np.max(np.abs(c))))
    if max_comm > 10 * tol:
        raise NonCommutingOperators(
            "max commutator norm %.3e exceeds tolerance" % max_comm
        )

    stacked = np.vstack([m - np.eye(dim) for m in mats])
    _, svals, vh = np.linalg.svd(stacked)
    svals = np.concatenate([svals, np.zeros(dim - len(svals))])
    null_mask = svals <= tol
    null_vecs = vh[null_mask.nonzero()[0], :].conjugate()  # rows span the nullspace
    if null_vecs.shape[0] == 0:
        raise EmptyEigenspace("no joint unity eigenvector at tol=%g" % tol)

    # Canonical gauge: project canonical basis vectors onto the subspace in
    # index order, Gram-Schmidt, fix the global phase of each vector.
    V = null_vecs.transpose()  # dim x k, orthonormal columns
    proj = V @ V.conjugate().transpose()
    out = []
    for idx in range(dim):
        v = proj[:, idx].copy()
        for w in out:
            v -= np.vdot(w, v) * w
        nv = np.linalg.norm(v)
        if nv > max(10 * tol, 1e-10):
            v /= nv
            lead = np.flatnonzero(np.abs(v) > 1e-10)[0]
            phase = v[lead] / abs(v[lead])
            out.append(v / phase)
        if len(out) == null_vecs.shape[0]:
            break
    return [StateVector(basis, v) for v in out]


def subspace_projector(vectors: Sequence[StateVector]) -> np.ndarray:
    V = np.column_stack([v.amplitudes for v in vectors])
    return V @ V.conjugate().transpose()


def projector_distance(a: Sequence[StateVector], b: Sequence[StateVector]) -> float:
    """Max-entry distance between the projectors of two spanning sets."""
    return float(np.max(np.abs(subspace_projector(a) - subspace_projector(b))))
