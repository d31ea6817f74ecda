"""Multi-mode Fock-space foundation.

Basis enumeration for the three-wave-mixing irreducible subspaces
H_N = Span{|n,n,N-n> : 0 <= n <= N} and for capped product spaces,
plus ladder/number monomials and ket maps, each one weighted ket map.

Conventions (part of the public contract):
  * irreducible bases are ordered by ascending n per qudit group, with
    multi-group bases being lexicographic tensor products;
  * capped product bases are lexicographic in the occupation tuple;
  * every operator is square: it maps one basis (its `domain`) into
    itself;
  * one kernel, `shift_operator`, builds every operator that moves each
    ket by one photon-number shift with one coefficient per ket: a column
    whose coefficient is zero or whose ket leaves the basis is dropped;
  * `ket_map_operator` builds the 0/1 operators that send kets to kets
    (inversions, swaps, restorations): a ket with no image leaves its
    column empty, and an image outside the basis is an error;
  * operators are weighted ket maps (one target ket and one coefficient
    per column) acting on complex amplitude arrays over their domain, one
    column per state; codewords are held as exact integer weights (`codes`);
  * `StateVector`, `apply`, `embed` and `compose` stay only because the
    benchmark reads them;
  * the text form of a basis state is "n1,n2,...,nk".

Sharing, the one rule for every module: a structure fixed by its
arguments (a spec, a basis, an error or operator set, a pipeline, a table)
is built once per process by a builder decorated with `shared`, the only
process cache in the package, and every caller gets that one object, so
its type is frozen and its arrays are read-only (as `LinearOperator` and
`StateVector` are).  A check that must run on every call sits in a plain
wrapper before the builder; a failure is not cached.  A mutant
(`dataclasses.replace`) is another value and gets its own.
"""

from dataclasses import dataclass
import functools
import itertools
import math
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

MODE_LABELS = ("signal", "idler", "pump")

# A Fock basis state is simply a tuple of occupation numbers.
FockBasisState = Tuple[int, ...]


def shared(build: Callable) -> Callable:
    """`build` as a plain function that builds its value once per process for
    each tuple of positional arguments and hands that object to every later
    caller; `cache_clear` and `cache_info` are those of the cache."""
    cached = functools.lru_cache(maxsize=None, typed=True)(build)

    @functools.wraps(build)
    def build_once(*args):
        return cached(*args)

    build_once.cache_clear, build_once.cache_info = cached.cache_clear, cached.cache_info
    return build_once


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

    @functools.cached_property  # not a field: equality and hashing are unchanged
    def n_groups(self) -> int:
        return max(g for _, g in self.modes)


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
            tuple(map(int, s)) for s in states
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

    @functools.cached_property
    def occupations(self) -> np.ndarray:
        """Integer array of shape (dimension, modes); row j is states[j].

        Built on first use and shared by every later reader, so it is
        read-only.
        """
        out = np.array(self.states, dtype=np.int64).reshape(self.dimension, -1)
        out.flags.writeable = False
        return out

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


@dataclass(frozen=True)
class StateVector:
    """Dense amplitudes over a basis; the benchmark tracer reads them.
    Frozen, with its own read-only copy of the amplitudes."""

    basis: BasisIndex
    amplitudes: np.ndarray

    def __post_init__(self):
        amplitudes = np.array(self.amplitudes, dtype=complex)
        if amplitudes.shape != (self.basis.dimension,):
            raise DimensionMismatch(
                "amplitude vector length %d != basis dimension %d"
                % (amplitudes.size, self.basis.dimension)
            )
        amplitudes.flags.writeable = False
        object.__setattr__(self, "amplitudes", amplitudes)

    @classmethod
    def from_terms(cls, basis: BasisIndex, terms) -> "StateVector":
        """From {ket: amplitude} or pairs; builds `CodeSpec.logical_states`."""
        amps = np.zeros(basis.dimension, dtype=complex)
        items = terms.items() if hasattr(terms, "items") else terms
        for state, amp in items:
            amps[basis.index_of(state)] += amp
        return cls(basis, amps)

    def support(self, tol: float = 1e-12):
        """(ket, amplitude) pairs over `tol`; the benchmark tracer reads them."""
        return [
            (self.basis.states[i], self.amplitudes[i])
            for i in np.flatnonzero(np.abs(self.amplitudes) > tol)
        ]


@dataclass(frozen=True)
class LinearOperator:
    """Weighted ket map on the `domain` basis.

    Column j sends ket j to ket `rows[j]` with coefficient `coeffs[j]`;
    `rows[j] == -1` leaves the column empty.  Every operator the suite
    builds has this form: a photon-number shift, a ket permutation or a
    diagonal moves each ket to at most one ket.  Frozen, with its own
    read-only copies of rows and coefficients.
    """

    domain: BasisIndex
    rows: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=np.int64)
        coeffs = np.array(self.coeffs, dtype=complex)
        dim = self.domain.dimension
        if rows.shape != (dim,) or coeffs.shape != (dim,):
            raise DimensionMismatch(
                "row and coefficient shapes %r, %r vs basis dimension %d"
                % (rows.shape, coeffs.shape, dim)
            )
        if dim and not -1 <= rows.min() <= rows.max() < dim:
            raise DimensionMismatch("target rows must lie in -1..%d" % (dim - 1))
        rows.flags.writeable = coeffs.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "coeffs", coeffs)

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
    """`op` on one state; kept as the benchmark's per-layer metrics name it."""
    if op.domain != state.basis:
        raise DimensionMismatch("operator domain does not match state basis")
    return StateVector(op.domain, op.apply(state.amplitudes))


def compose(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    """Operator product a.b (apply b first); the benchmark names it."""
    if b.domain != a.domain:
        raise DimensionMismatch("compose: bases differ")
    # Index -1 (an empty column of b) picks the appended empty entry.
    rows = np.append(a.rows, -1)[b.rows]
    coeffs = np.append(a.coeffs, 0)[b.rows] * b.coeffs
    return LinearOperator(a.domain, rows, coeffs)


def embed(state: StateVector, into: BasisIndex) -> StateVector:
    """Re-express a state in a larger basis; amplitudes are preserved exactly.

    Raises MissingBasisState if any support state is absent from `into`.
    Kept as the benchmark's per-layer metrics name it.
    """
    amps = np.zeros(into.dimension, dtype=complex)
    for s, amp in zip(state.basis.states, state.amplitudes):
        if amp != 0:
            amps[into.index_of(s)] = amp
    return StateVector(into, amps)


def enumerate_irreducible_subspace(N: int, groups: int = 1) -> BasisIndex:
    """Ordered basis of H_N^{x groups}, H_N = Span{|n,n,N-n>: 0 <= n <= N}.

    Within one group states are listed by ascending n; multiple groups are
    combined as a lexicographic tensor product.  Shared per (N, groups).
    """
    if N < 0 or groups < 1:
        raise ValueError("require N >= 0 and groups >= 1")
    return _irreducible_basis(N, groups)


@shared
def _irreducible_basis(N: int, groups: int) -> BasisIndex:
    single = [(n, n, N - n) for n in range(N + 1)]
    states = [
        tuple(itertools.chain.from_iterable(combo))
        for combo in itertools.product(single, repeat=groups)
    ]
    return BasisIndex(states)


_MAX_TRUNCATED_DIM = 2_000_000


def _check_size(count: int, prefix: str) -> None:
    """The one size limit: refuse `count` entries (kets, or array entries a
    step would stack) over it, with TruncationOverflow("<prefix>, over the
    limit of <limit>").  Callers count before they build."""
    if count > _MAX_TRUNCATED_DIM:
        raise TruncationOverflow("%s, over the limit of %d" % (prefix, _MAX_TRUNCATED_DIM))


def unit_shifts(modes: int, sign: int):
    """One photon more (sign 1) or fewer (sign -1) in each single mode."""
    return [tuple(sign * int(i == mode) for i in range(modes)) for mode in range(modes)]


def shift_closure(kets, shifts) -> BasisIndex:
    """`kets` and every nonnegative ket + shift, in lexicographic order."""
    kets = list(kets)
    out = set(kets)
    for shift in shifts:
        for ket in kets:
            moved = tuple(n + d for n, d in zip(ket, shift))
            if min(moved) >= 0:
                out.add(moved)
    return BasisIndex(sorted(out))


def enumerate_truncated_space(layout: ModeLayout) -> BasisIndex:
    """Full product basis up to per-mode caps, lexicographic order."""
    states = math.prod(c + 1 for c in layout.caps)
    _check_size(states, "product space of %d states" % states)
    return BasisIndex(itertools.product(*[range(c + 1) for c in layout.caps]))


def monomial_action(
    factors: Sequence[Tuple[int, str]], occupations: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """A product of single-mode factors applied to each row of an
    occupation array: ket j goes to occupations[j] + shift with coefficient
    coeff[j], and coeff[j] == 0 means it is annihilated.  Returns (coeff,
    shift).  `factors` lists (mode, kind) pairs in the order they act, kind
    "lower" (a), "raise" (a^dag) or "number" (n); each multiplies every
    coefficient by sqrt(n), sqrt(n+1) or n, evaluated as factor * coeff.
    """
    coeff = np.ones(len(occupations))
    shift = np.zeros(occupations.shape[1], dtype=np.int64)
    occupation = {}
    for mode, kind in factors:
        n = occupation.get(mode, occupations[:, mode])
        if kind == "lower":
            # An empty mode gives sqrt(0); its later factors see a negative
            # occupation, so square-root arguments are clamped.
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
    return coeff, shift


def shift_operator(basis: BasisIndex, coeff: np.ndarray, shift) -> LinearOperator:
    """The ket map sending ket j of `basis` to ket j + shift with
    coefficient coeff[j]: a column whose coefficient is zero, or whose ket
    moves out of the basis, is left empty."""
    occupations = basis.occupations
    cols = np.flatnonzero(coeff)
    lookup = basis._lookup
    rows = np.full(basis.dimension, -1, dtype=np.int64)
    rows[cols] = [lookup.get(ket, -1)
                  for ket in map(tuple, (occupations[cols] + shift).tolist())]
    return LinearOperator(basis, rows, np.where(rows >= 0, coeff, 0))


def monomial_operator(factors: Sequence[Tuple[int, str]], basis: BasisIndex) -> LinearOperator:
    """`monomial_action` on the kets of `basis` as one ket map."""
    return shift_operator(basis, *monomial_action(factors, basis.occupations))


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

