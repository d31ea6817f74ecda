"""Multi-mode Fock-space foundation.

Basis enumeration for the three-wave-mixing irreducible subspaces
H_N = Span{|n,n,N-n> : 0 <= n <= N} and for capped product spaces,
plus ladder/number monomials, ket maps and a small operator/state algebra.

Conventions (part of the public contract):
  * irreducible bases are ordered by ascending n per qudit group, with
    multi-group bases being lexicographic tensor products;
  * capped product bases are lexicographic in the occupation tuple;
  * every operator is square: it maps one basis (its `domain`) into
    itself;
  * ladder and monomial operators act on any basis: each column's final
    ket is looked up in the basis, and a column whose ket is annihilated
    or leaves the basis is dropped;
  * `ket_map_operator` builds the 0/1 operators that send kets to kets
    (inversions, swaps, restorations): a ket with no image leaves its
    column empty, and an image outside the basis is an error;
  * operators are weighted ket maps (one target ket and one coefficient
    per column), states are dense complex vectors;
  * the text form of a basis state is "n1,n2,...,nk".
"""

from dataclasses import dataclass
import itertools
import math
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

MODE_LABELS = ("signal", "idler", "pump")

# A Fock basis state is simply a tuple of occupation numbers.
FockBasisState = Tuple[int, ...]


class DimensionMismatch(ValueError):
    """Operands are defined over incompatible bases."""


class MissingBasisState(KeyError):
    """A state's support is absent from the target basis."""


class TruncationOverflow(RuntimeError):
    """A requested space exceeds the size limit."""


@dataclass(frozen=True)
class ModeLayout:
    """Ordered mode declaration: (label, qudit-group) pairs plus photon caps.

    Labels come from MODE_LABELS; group indices are contiguous from 1 and
    labels are unique within a group.
    """

    modes: Tuple[Tuple[str, int], ...]
    caps: Tuple[int, ...]

    def __post_init__(self):
        if len(self.modes) != len(self.caps):
            raise ValueError("one cap per mode required")
        groups = sorted({g for _, g in self.modes})
        if groups != list(range(1, len(groups) + 1)):
            raise ValueError("group indices must be contiguous from 1")
        for label, group in self.modes:
            if label not in MODE_LABELS:
                raise ValueError("unknown mode label %r" % (label,))
        for g in groups:
            labels = [lab for lab, gg in self.modes if gg == g]
            if len(labels) != len(set(labels)):
                raise ValueError("duplicate label in group %d" % g)
        if any(c < 0 for c in self.caps):
            raise ValueError("caps must be nonnegative")

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def n_groups(self) -> int:
        return max(g for _, g in self.modes)

    def index_of(self, label: str, group: int = 1) -> int:
        for i, (lab, g) in enumerate(self.modes):
            if lab == label and g == group:
                return i
        raise KeyError((label, group))


def three_mode_layout(cap: int, groups: int = 1) -> ModeLayout:
    """Standard (signal, idler, pump) x groups layout with a uniform cap."""
    modes = []
    for g in range(1, groups + 1):
        for lab in MODE_LABELS:
            modes.append((lab, g))
    return ModeLayout(tuple(modes), (cap,) * (3 * groups))


def two_mode_layout(cap: int) -> ModeLayout:
    """(signal, pump) layout used by the two-mode bosonic encoding."""
    return ModeLayout((("signal", 1), ("pump", 1)), (cap, cap))


class BasisIndex:
    """Ordered list of Fock basis states with O(1) reverse lookup."""

    def __init__(self, states: Iterable[FockBasisState]):
        self.states: Tuple[FockBasisState, ...] = tuple(
            tuple(int(n) for n in s) for s in states
        )
        self._lookup = {s: i for i, s in enumerate(self.states)}
        if len(self._lookup) != len(self.states):
            raise ValueError("duplicate basis states")

    @property
    def dimension(self) -> int:
        return len(self.states)

    def index_of(self, state: FockBasisState) -> int:
        try:
            return self._lookup[tuple(state)]
        except KeyError:
            raise MissingBasisState(tuple(state))

    def __contains__(self, state) -> bool:
        return tuple(state) in self._lookup

    def __iter__(self):
        return iter(self.states)

    def __len__(self):
        return len(self.states)

    @property
    def occupations(self) -> np.ndarray:
        """Integer array of shape (dimension, modes); row j is states[j]."""
        return np.array(self.states, dtype=np.int64).reshape(self.dimension, -1)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, BasisIndex) and self.states == other.states

    def __hash__(self):
        return hash(self.states)

    def __repr__(self):
        return "BasisIndex(%d states, first=%r)" % (
            self.dimension,
            self.states[0] if self.states else None,
        )


def state_label(state: FockBasisState) -> str:
    """Canonical text form "n1,n2,...,nk" used by all reports."""
    return ",".join(str(n) for n in state)


@dataclass
class StateVector:
    """Dense complex amplitudes over an ordered basis."""

    basis: BasisIndex
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.basis.dimension,):
            raise DimensionMismatch(
                "amplitude vector length %d != basis dimension %d"
                % (self.amplitudes.size, self.basis.dimension)
            )

    @classmethod
    def from_terms(cls, basis: BasisIndex, terms) -> "StateVector":
        """Build from {state tuple: amplitude} (or iterable of pairs)."""
        amps = np.zeros(basis.dimension, dtype=complex)
        items = terms.items() if hasattr(terms, "items") else terms
        for state, amp in items:
            amps[basis.index_of(state)] += amp
        return cls(basis, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.basis, self.amplitudes / n)

    def support(self, tol: float = 1e-12):
        return [
            (self.basis.states[i], self.amplitudes[i])
            for i in np.flatnonzero(np.abs(self.amplitudes) > tol)
        ]


@dataclass
class LinearOperator:
    """Weighted ket map on the `domain` basis.

    Column j sends ket j to ket `rows[j]` with coefficient `coeffs[j]`;
    `rows[j] == -1` leaves the column empty.  Every operator the suite
    builds has this form: a photon-number shift, a ket permutation or a
    diagonal moves each ket to at most one ket, and no two kets to the same
    one (`adjoint` relies on the latter and checks it).
    """

    domain: BasisIndex
    rows: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        dim = self.domain.dimension
        if self.rows.shape != (dim,) or self.coeffs.shape != (dim,):
            raise DimensionMismatch(
                "row and coefficient shapes %r, %r vs basis dimension %d"
                % (self.rows.shape, self.coeffs.shape, dim)
            )
        if dim and not -1 <= self.rows.min() <= self.rows.max() < dim:
            raise DimensionMismatch("target rows must lie in -1..%d" % (dim - 1))

    @classmethod
    def diagonal(cls, basis: BasisIndex, coeffs) -> "LinearOperator":
        return cls(basis, np.arange(basis.dimension), coeffs)

    @classmethod
    def identity(cls, basis: BasisIndex) -> "LinearOperator":
        return cls.diagonal(basis, np.ones(basis.dimension))

    def _mapped(self):
        """Columns with a target, and their target rows."""
        cols = np.flatnonzero(self.rows >= 0)
        return cols, self.rows[cols]

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """The operator applied to a vector or to each column of a block."""
        amplitudes = np.asarray(amplitudes)
        cols, rows = self._mapped()
        out = np.zeros(amplitudes.shape, dtype=complex)
        # Transposing broadcasts one coefficient over each row of a block.
        np.add.at(out, rows, (self.coeffs[cols] * amplitudes[cols].T).T)
        return out

    def dense(self) -> np.ndarray:
        dim = self.domain.dimension
        out = np.zeros((dim, dim), dtype=complex)
        cols, rows = self._mapped()
        out[rows, cols] += self.coeffs[cols]
        return out

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix; the benchmark tracer reads it by this name."""
        return self.dense()


def apply(op: LinearOperator, state: StateVector) -> StateVector:
    if op.domain != state.basis:
        raise DimensionMismatch("operator domain does not match state basis")
    return StateVector(op.domain, op.apply(state.amplitudes))


def compose(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    """Operator product a.b (apply b first)."""
    if b.domain != a.domain:
        raise DimensionMismatch("compose: bases differ")
    # Index -1 (an empty column of b) picks the appended empty entry.
    rows = np.append(a.rows, -1)[b.rows]
    coeffs = np.append(a.coeffs, 0)[b.rows] * b.coeffs
    return LinearOperator(a.domain, rows, coeffs)


def tensor_basis(a: BasisIndex, b: BasisIndex) -> BasisIndex:
    return BasisIndex(sa + sb for sa in a for sb in b)


def adjoint(op: LinearOperator) -> LinearOperator:
    cols, rows = op._mapped()
    if len(np.unique(rows)) != len(rows):
        raise ValueError("adjoint: two kets map to the same ket")
    dim = op.domain.dimension
    out_rows = np.full(dim, -1, dtype=np.int64)
    out_coeffs = np.zeros(dim, dtype=complex)
    out_rows[rows] = cols
    out_coeffs[rows] = op.coeffs[cols].conjugate()
    return LinearOperator(op.domain, out_rows, out_coeffs)


def inner_product(x: StateVector, y: StateVector) -> complex:
    if x.basis != y.basis:
        raise DimensionMismatch("inner product over different bases")
    return complex(np.vdot(x.amplitudes, y.amplitudes))


def embed(state: StateVector, into: BasisIndex) -> StateVector:
    """Re-express a state in a larger basis; amplitudes are preserved exactly.

    Raises MissingBasisState if any support state is absent from `into`.
    """
    amps = np.zeros(into.dimension, dtype=complex)
    for s, amp in zip(state.basis.states, state.amplitudes):
        if amp != 0:
            amps[into.index_of(s)] = amp
    return StateVector(into, amps)


def project(state: StateVector, onto: BasisIndex) -> StateVector:
    """Restrict a state to a sub-basis, dropping amplitudes outside it."""
    amps = np.zeros(onto.dimension, dtype=complex)
    for i, s in enumerate(onto.states):
        if s in state.basis:
            amps[i] = state.amplitudes[state.basis.index_of(s)]
    return StateVector(onto, amps)


def enumerate_irreducible_subspace(N: int, groups: int = 1) -> BasisIndex:
    """Ordered basis of H_N^{x groups}, H_N = Span{|n,n,N-n>: 0 <= n <= N}.

    Within one group states are listed by ascending n; multiple groups are
    combined as a lexicographic tensor product.
    """
    if N < 0 or groups < 1:
        raise ValueError("require N >= 0 and groups >= 1")
    single = [(n, n, N - n) for n in range(N + 1)]
    states = [
        tuple(itertools.chain.from_iterable(combo))
        for combo in itertools.product(single, repeat=groups)
    ]
    return BasisIndex(states)


_MAX_TRUNCATED_DIM = 2_000_000


def enumerate_truncated_space(layout: ModeLayout) -> BasisIndex:
    """Full product basis up to per-mode caps, lexicographic order."""
    if math.prod(c + 1 for c in layout.caps) > _MAX_TRUNCATED_DIM:
        raise TruncationOverflow("product space would exceed %d states" % _MAX_TRUNCATED_DIM)
    return BasisIndex(itertools.product(*[range(c + 1) for c in layout.caps]))


def monomial_operator(
    factors: Sequence[Tuple[int, str]], basis: BasisIndex
) -> LinearOperator:
    """Product of single-mode factors as one ket map on `basis`.

    `factors` lists (mode, kind) pairs in the order they act on a ket, with
    kind "lower" (a), "raise" (a^dag) or "number" (n).  Each factor
    multiplies every column's coefficient by sqrt(n), sqrt(n+1) or n,
    evaluated as factor * coeff in that order.  A column whose ket is
    annihilated, or whose final ket is not in the basis, is left empty.
    """
    occupations = basis.occupations
    dim = basis.dimension
    coeff = np.ones(dim)
    keep = np.ones(dim, dtype=bool)
    shift = np.zeros(occupations.shape[1], dtype=np.int64)
    occupation = {}
    for mode, kind in factors:
        n = occupation.get(mode)
        if n is None:
            n = occupations[:, mode]
        if kind == "lower":
            # An empty mode annihilates the ket; its later factors see a
            # negative occupation, so square-root arguments are clamped.
            keep &= n > 0
            coeff = np.sqrt(np.maximum(n, 0)) * coeff
            n = n - 1
            shift[mode] -= 1
        elif kind == "raise":
            coeff = np.sqrt(np.maximum(n + 1, 0)) * coeff
            n = n + 1
            shift[mode] += 1
        elif kind == "number":
            coeff = n * coeff
        else:
            raise ValueError("factor kind must be 'lower', 'raise' or 'number'")
        occupation[mode] = n
    keep &= coeff != 0
    cols = np.flatnonzero(keep)
    lookup = basis._lookup
    rows = np.full(dim, -1, dtype=np.int64)
    rows[cols] = [lookup.get(ket, -1)
                  for ket in map(tuple, (occupations[cols] + shift).tolist())]
    return LinearOperator(basis, rows, np.where(rows >= 0, coeff, 0))


def ket_map_operator(
    basis: BasisIndex, image: Callable[[FockBasisState], Optional[FockBasisState]]
) -> LinearOperator:
    """The operator |image(ket)><ket| summed over the kets of `basis`.

    A ket whose image is None leaves its column empty; an image outside the
    basis raises MissingBasisState.
    """
    rows = [-1 if target is None else basis.index_of(target)
            for target in map(image, basis.states)]
    return LinearOperator(basis, rows, np.not_equal(rows, -1))


def ladder(mode: int, kind: str, basis: BasisIndex) -> LinearOperator:
    """Annihilation ("lower") or creation ("raise") operator on one mode.

    Coefficients are sqrt(n) for |n-1><n| and sqrt(n+1) for |n+1><n|; a
    column whose target state is outside the basis is left empty.
    """
    if kind not in ("lower", "raise"):
        raise ValueError("kind must be 'lower' or 'raise'")
    return monomial_operator([(mode, kind)], basis)

