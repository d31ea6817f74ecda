"""Symmetry operators and joint unity-eigenspace code synthesis.

The code subspaces are the simultaneous unity-eigenvalue eigenspaces of a
small set of commuting unitaries: diagonal Z-phase pairs, photon-number
inversion V, the group swap X and the signal parity Pi_s.  Each is a ket
permutation with root-of-unity coefficients, held exactly as integer
phases, and their joint unity eigenspace is read off as fixed ket orbits
with integer phases, with no vector or matrix built.  The
bosonic code's symmetry Pi_s U_BS V U_BS^dagger is held in factored form:
Pi_s and V as such permutations, and the pseudo-beam-splitter U_BS only
by the |+/-> <-> codeword pairing it makes.

Operators are frozen and their rows and phases read-only, so one operator
set can serve every caller in a process: `bc_symmetry_operator` builds
the factors once per spec value, and `joint_unity_eigenspace` checks
commutation and reads the orbits anew on every call.
"""

from dataclasses import dataclass
import functools
import math
import types
from typing import List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from .codes import CodeSpec
from .fock import _check_size, BasisIndex, DimensionMismatch, LinearOperator


class NonCommutingOperators(ValueError):
    """Symmetry operators failed the mutual-commutation pre-check."""


class EmptyEigenspace(ValueError):
    """The operators have no common unity eigenvector."""


@dataclass(frozen=True)
class SymmetryOperator:
    """Ket permutation with root-of-unity coefficients, held exactly: ket j
    goes to ket rows[j] with coefficient exp(2 pi i phases[j] / modulus).
    Frozen, with its own read-only copies of rows and phases."""

    name: str
    basis: BasisIndex
    rows: np.ndarray
    phases: np.ndarray
    modulus: int

    def __post_init__(self):
        rows = np.array(self.rows, dtype=np.int64)
        phases = np.asarray(self.phases, dtype=np.int64) % self.modulus
        if not np.array_equal(np.sort(rows), np.arange(self.basis.dimension)):
            raise ValueError("%s does not permute the kets of its basis" % self.name)
        rows.flags.writeable = phases.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "phases", phases)

    @property
    def operator(self) -> LinearOperator:
        """The float form, coefficients read from the reduced phases: exactly
        1 at phase 0 and -1 at a half turn.  The benchmark tracer reads it."""
        k, M = self.phases, self.modulus
        return LinearOperator(self.basis, self.rows,
                              np.where(2 * k == M, -1, np.exp(2j * np.pi * k / M)))


def compose(name: str, a: SymmetryOperator, b: SymmetryOperator) -> SymmetryOperator:
    """The product a.b (b acts first), its phases over the lcm of both moduli."""
    if a.basis != b.basis:
        raise DimensionMismatch("compose: bases differ")
    M = math.lcm(a.modulus, b.modulus)
    phases = a.phases[b.rows] * (M // a.modulus) + b.phases * (M // b.modulus)
    return SymmetryOperator(name, a.basis, a.rows[b.rows], phases, M)


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
    phases = 1 + basis.occupations[:, a] + basis.occupations[:, p]
    return SymmetryOperator("Z_%s^(M=%d) group %d" % (pair, M, group), basis,
                            np.arange(basis.dimension), phases, M)


def _ket_map(name: str, basis: BasisIndex, image) -> SymmetryOperator:
    rows = [basis.index_of(image(st)) for st in basis.states]
    return SymmetryOperator(name, basis, rows, np.zeros(basis.dimension), 1)


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

    return _ket_map("V^(%d) group %d" % (M, group), basis, image)


def inversion_operator_all_groups(M: int, basis: BasisIndex) -> SymmetryOperator:
    """Tensor product of the inversion over every group of the basis."""
    n_groups = len(basis.states[0]) // 3
    op = None
    for g in range(1, n_groups + 1):
        part = inversion_operator(M, g, basis)
        op = part if op is None else compose("V^(%d) all groups" % M, part, op)
    return op


def swap_operator(basis: BasisIndex) -> SymmetryOperator:
    """Swap the two three-mode groups: |x>_1|y>_2 -> |y>_1|x>_2."""
    width = len(basis.states[0])
    if width != 6:
        raise ValueError("swap_operator requires a two-group (6-mode) basis")
    return _ket_map("X_{1,2}", basis, lambda st: st[3:] + st[:3])


def signal_parity_operator(basis: BasisIndex, group: int = 1) -> SymmetryOperator:
    """Pi_s = (-1)^{n_s}, diagonal."""
    s, _, _ = _group_mode_positions(basis, group)
    return SymmetryOperator("Pi_s", basis, np.arange(basis.dimension),
                            basis.occupations[:, s], 2)


@dataclass(frozen=True)
class BCSymmetry:
    """The bosonic-code symmetry S = Pi_s U_BS V^{(2N-1)} U_BS^dagger in
    exact factored form.

    U_BS is held only by the pairing S w reads: it maps
    (|0,0,2N-1> + (-1)^k |2N-1,2N-1,0>)/sqrt2, the kets `ends` indexes, to
    codeword k, given as a read-only {basis index: integer weight} over
    `denominator`.  How U_BS is completed off the code block never reaches
    S w.  Frozen, like its two factors.
    """

    parity: SymmetryOperator
    inversion: SymmetryOperator
    ends: Tuple[int, int]
    codewords: Sequence[Mapping[int, int]]
    denominator: int

    def __post_init__(self):
        object.__setattr__(self, "codewords", tuple(
            types.MappingProxyType(dict(word)) for word in self.codewords))


def bc_symmetry_operator(spec: CodeSpec) -> BCSymmetry:
    """The factors of the binomial code's symmetry, read from `spec`'s
    integer weights on its H_{2N-1} basis; built once per spec value and
    shared (a `dataclasses.replace` mutant is another value)."""
    return _bc_factors(spec)


@functools.lru_cache(maxsize=None, typed=True)
def _bc_factors(spec: CodeSpec) -> BCSymmetry:
    basis, M = spec.basis, 2 * spec.parameters["N"] - 1
    return BCSymmetry(
        signal_parity_operator(basis), inversion_operator(M, 1, basis),
        (basis.index_of((0, 0, M)), basis.index_of((M, M, 0))),
        [{basis.index_of(ket): w for ket, w in word.items()} for word in spec.weights],
        spec.denominator)


class FixedOrbit(NamedTuple):
    """A fixed vector's ket orbit: exp(2 pi i phases[t] / modulus) / sqrt(len(kets)) on kets[t]."""

    kets: List[int]
    phases: List[int]
    modulus: int


def joint_unity_eigenspace(ops: Sequence[SymmetryOperator]) -> List[FixedOrbit]:
    """The simultaneous unity-eigenvalue eigenspace, one fixed ket orbit per
    vector of its orthonormal basis.

    Every pair of operators is composed both ways at once, on rows and on
    phases lifted to M, the lcm of the moduli, to check exactly that they
    commute; that stack of 2 k^2 dim integers (k operators) is refused with
    TruncationOverflow over the size limit before it is built.  S v = v
    reads v[rows[j]] = exp(2 pi i phases[j] / M) v[j], so each ket orbit
    carries at most one fixed vector: phases relative to the orbit's first
    ket follow along operator steps, and the orbit counts when every step
    agrees.  Orbits come in the order of their first kets.
    """
    if not ops:
        raise ValueError("need at least one operator")
    basis = ops[0].basis
    if any(s.basis != basis for s in ops):
        raise ValueError("operators must share a domain")
    entries = 2 * len(ops) ** 2 * basis.dimension
    _check_size(entries, "commutation check of %d operators on %d kets would stack %d entries"
                % (len(ops), basis.dimension, entries))
    M = math.lcm(*(s.modulus for s in ops))
    R, P = np.array([s.rows for s in ops]), np.array([s.phases * (M // s.modulus) for s in ops])
    # ab[:, a, b] is a.b (b acts first): rows R[a][R[b]], phases P[a][R[b]] + P[b].
    ab = np.stack([R[:, R], (P[:, R] + P) % M])
    clash = np.any(ab != ab.transpose(0, 2, 1, 3), axis=(0, 3))
    if clash.any():
        a, b = np.argwhere(clash)[0]  # the first clash in row order has a < b
        raise NonCommutingOperators("%s and %s do not commute" % (ops[a].name, ops[b].name))
    steps = list(zip(R.tolist(), P.tolist()))
    phase = [None] * basis.dimension
    out = []
    for start in range(basis.dimension):
        if phase[start] is not None:
            continue
        phase[start] = 0
        orbit, consistent = [start], True
        for ket in orbit:  # the loop also visits the kets appended below
            for rows, phases in steps:
                target, p = rows[ket], (phase[ket] + phases[ket]) % M
                if phase[target] is None:
                    phase[target] = p
                    orbit.append(target)
                elif phase[target] != p:
                    consistent = False
        if consistent:
            out.append(FixedOrbit(orbit, [phase[k] for k in orbit], M))
    if not out:
        raise EmptyEigenspace("no ket orbit is fixed by every operator")
    return out
