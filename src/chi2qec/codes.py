"""Closed-form constructors for the three chi(2) codes and their metadata.

The closed forms are the source of truth, written once per family as exact
integer weights; float amplitudes and photon numbers are derived from them.
Symmetry synthesis (symmetry module) is a cross-check, not a source: a
joint unity eigenspace of ket orbits fixes the code subspace but not a
preferred logical basis, and the BC symmetry's factors are read from these
weights.
"""

from dataclasses import dataclass, field
from fractions import Fraction
import functools
import json
import math
import types
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .fock import (
    _check_size,
    BasisIndex,
    ModeLayout,
    StateVector,
    enumerate_irreducible_subspace,
    enumerate_truncated_space,
    shared,
    state_label,
    three_mode_layout,
    two_mode_layout,
)


_TOO_LARGE = "%s N=%d: codeword weights are too large for float amplitudes"

# One codeword: {ket: integer weight}; the ket's amplitude is
# sqrt(weight / denominator) for the code's common denominator.
Weights = Dict[Tuple[int, ...], int]


@dataclass(frozen=True)
class CodeSpec:
    """A named code instance: layout, parameters and exact codewords.

    parameters: N (family size parameter), n (physical qudits), q (physical
    qudit dimension), b (logical dimension), k (logical qudits).  Each
    codeword is stated once, exactly, in `weights` over the unreduced
    `denominator`, every weight a positive int, so the weights' keys are
    exactly the codeword's support.  The instance is frozen, and the
    parameters and each codeword are read-only mappings, so no edit can
    leave a derived view stale: a changed code is a new one
    (`dataclasses.replace`), and the family builders share one spec per N
    (`fock` states the rule).  Every float view (`amplitudes`, `block`,
    `logical_states`) and the photon numbers are derived from the weights;
    `space` lists the code's basis, which is read only on demand.  The JSON
    view (`to_json`'s text) and `total_photons` are formed on first read
    and held on the spec, as the basis is.  Equal specs hash alike
    (`__hash__`), so a spec is a key for what is built from its value.
    """

    name: str
    parameters: Mapping[str, int]
    layout: ModeLayout
    weights: Sequence[Mapping[Tuple[int, ...], int]]
    denominator: int
    space: Callable[[], BasisIndex] = field(repr=False, compare=False)
    amplitudes: Sequence[Mapping[Tuple[int, ...], float]] = field(init=False, repr=False)

    def __post_init__(self):
        """Amplitude sqrt(w) over the integer root of a perfect-square
        denominator, else over sqrt(denominator): the closed forms' float bits
        (reducing a weight would not keep them).  Kets are sorted, the order
        of every basis the builders list."""
        for ket, w in ((k, w) for word in self.weights for k, w in word.items()):
            if type(w) is not int or w <= 0:
                raise ValueError("%s N=%d: the weight of ket %s is %r, not a positive int"
                                 % (self.name, self.parameters["N"], state_label(ket), w))
        object.__setattr__(self, "parameters", types.MappingProxyType(dict(self.parameters)))
        weights = tuple(types.MappingProxyType(dict(word)) for word in self.weights)
        object.__setattr__(self, "weights", weights)
        root = math.isqrt(self.denominator)
        if root * root != self.denominator:
            root = math.sqrt(self.denominator)
        try:
            amplitudes = tuple(types.MappingProxyType(
                {ket: math.sqrt(word[ket]) / root for ket in sorted(word)}) for word in weights)
        except OverflowError:
            raise ValueError(_TOO_LARGE % (self.name, self.parameters["N"])) from None
        object.__setattr__(self, "amplitudes", amplitudes)

    def __hash__(self):
        """Of every field `==` compares, so equal specs hash alike."""
        return hash((self.name, frozenset(self.parameters.items()), self.layout,
                     tuple(frozenset(word.items()) for word in self.weights), self.denominator))

    @functools.cached_property
    def basis(self) -> BasisIndex:
        return self.space()

    @functools.cached_property
    def logical_states(self) -> Tuple[StateVector, ...]:
        """Dense codewords on `basis`, read-only; the benchmark tracer reads them."""
        return tuple(StateVector.from_terms(self.basis, word) for word in self.amplitudes)

    def block(self, basis: BasisIndex) -> np.ndarray:
        """The (basis.dimension, L) array whose column k is codeword k, on
        any basis that holds the support (MissingBasisState otherwise)."""
        out = np.zeros((basis.dimension, len(self.amplitudes)), dtype=complex)
        for k, word in enumerate(self.amplitudes):
            out[[basis.index_of(ket) for ket in word], k] = list(word.values())
        return out

    @functools.cached_property
    def total_photons(self) -> Fraction:
        """Mean photon number, averaged over the codewords; formed on first
        read and held on the spec."""
        means = mean_total_photons(self)
        return sum(means) / len(means)

    def to_json_dict(self) -> dict:
        total = self.total_photons
        return {
            "name": self.name,
            "parameters": dict(self.parameters),
            "layout": {
                "modes": [list(m) for m in self.layout.modes],
                "caps": list(self.layout.caps),
            },
            "total_photons": [total.numerator, total.denominator],
            "codewords": [[[state_label(ket), amp, 0.0] for ket, amp in word.items()]
                          for word in self.amplitudes],
        }

    @functools.cached_property
    def _json_text(self) -> str:
        return json.dumps(self.to_json_dict())

    def to_json(self) -> str:
        """The text of `to_json_dict`, formed on first read and held on the
        spec: a view of its fixed value, like the amplitudes."""
        return self._json_text


def _check_support(name: str, N: int, kets: int) -> None:
    """Refuse a family member whose codewords hold `kets` support kets in
    all over the size limit, before any codeword is listed."""
    _check_size(kets, "%s N=%d has %d support kets" % (name, N, kets))


@shared
def build_pcc(N: int) -> CodeSpec:
    """Pair-cat-style symmetry code: logical dimension N on two groups of
    H_{N-1} (n=2 physical qudits of dimension q=N).

    Even N=2m: pairs a=(m+k,m+k,m-1-k), b=(m-1-k,m-1-k,m+k) give
    |2k~> = (|a>|b>+|b>|a>)/sqrt2, |2k+1~> = (|a>|a>+|b>|b>)/sqrt2.
    Odd N=2m+1: |0~> = |m,m,m>|m,m,m> and for k=1..m with
    a=(m+k,m+k,m-k), b=(m-k,m-k,m+k): |2k-1~> = (aa+bb)/sqrt2,
    |2k~> = (ab+ba)/sqrt2.  N=2 keeps the explicit qubit labeling
    |0~> = (aa+bb)/sqrt2, |1~> = (ab+ba)/sqrt2.
    """
    if N < 2:
        raise ValueError("PCC requires N >= 2")
    _check_support("PCC", N, 2 * N - N % 2)  # odd N: the centre codeword has one ket
    words: List[Weights] = []
    if N % 2 == 0:
        m = N // 2
        for k in range(m):
            a = (m + k, m + k, m - 1 - k)
            b = (m - 1 - k, m - 1 - k, m + k)
            words += [{a + b: 1, b + a: 1}, {a + a: 1, b + b: 1}]
        if N == 2:
            words.reverse()
    else:
        m = (N - 1) // 2
        c = (m, m, m)
        words.append({c + c: 2})
        for k in range(1, m + 1):
            a = (m + k, m + k, m - k)
            b = (m - k, m - k, m + k)
            words += [{a + a: 1, b + b: 1}, {a + b: 1, b + a: 1}]
    return CodeSpec(
        "PCC", {"N": N, "n": 2, "q": N, "b": N, "k": 1},
        three_mode_layout(N - 1, groups=2), words, 2,
        lambda: enumerate_irreducible_subspace(N - 1, groups=2))


@shared
def build_eecc(N: int) -> CodeSpec:
    """Embedded-error-correcting code: one H_{2N-2} qudit (q = 2N-1)
    holding an N-dimensional logical system.

    |j~> = (|2N-2-j,2N-2-j,j> + |j,j,2N-2-j>)/sqrt2 for j < N-1 and
    |N-1~> = |N-1,N-1,N-1>.
    """
    if N < 2:
        raise ValueError("EECC requires N >= 2")
    _check_support("EECC", N, 2 * N - 1)
    M = 2 * N - 2
    words = [{(M - j, M - j, j): 1, (j, j, M - j): 1} for j in range(N - 1)]
    words.append({(N - 1, N - 1, N - 1): 2})
    return CodeSpec(
        "EECC", {"N": N, "n": 1, "q": 2 * N - 1, "b": N, "k": 1},
        three_mode_layout(M, groups=1), words, 2,
        lambda: enumerate_irreducible_subspace(M, groups=1))


def _check_binomial(name: str, N: int) -> None:
    """Refuse the binomial code `name` at N before any weight is formed: its
    2N support kets over the size limit, or a largest weight C(2N-1, N)
    too large for a float amplitude (each codeword holds it or C(2N-1,
    N-1), its equal)."""
    M = 2 * N - 1
    _check_support(name, N, 2 * N)
    try:
        # C(M, N) is at least the mean binomial 2^M / (M+1): past 2^1024 no
        # float holds it, and that side forms no binomial.
        if M - (M + 1).bit_length() >= 1024:
            raise OverflowError
        float(math.comb(M, N))
    except OverflowError:
        raise ValueError(_TOO_LARGE % (name, N)) from None


def _binomial_weights(N: int, parity: int) -> Dict[int, int]:
    """{p: C(2N-1, p)} for the p of the given parity; over 4^{N-1} these
    are the binomial codes' branch weights."""
    M = 2 * N - 1
    return {p: math.comb(M, p) for p in range(parity, M + 1, 2)}


@shared
def build_bc(N: int) -> CodeSpec:
    """Binomial chi(2) code on H_{2N-1} (q = 2N), protecting a qubit
    against every homogeneous error set of order m <= N.

    |0~> = sum_j sqrt(C(2N-1,2j)) |2j,2j,2N-1-2j> / 2^{N-1} and |1~> with
    the odd binomial indices.
    """
    if N < 1:
        raise ValueError("BC requires N >= 1")
    _check_binomial("BC", N)
    M = 2 * N - 1
    words = [{(p, p, M - p): w for p, w in _binomial_weights(N, parity).items()}
             for parity in (0, 1)]
    return CodeSpec(
        "BC", {"N": N, "n": 1, "q": 2 * N, "b": 2, "k": 1},
        three_mode_layout(M, groups=1), words, 4 ** (N - 1),
        lambda: enumerate_irreducible_subspace(M, groups=1))


@shared
def build_two_mode_bc(N: int) -> CodeSpec:
    """Two-mode (signal, pump) binomial encoding; every ket of both
    codewords has photon-number sum 2N-1.

    |0~'> = sum_j sqrt(C(2N-1,2j)) |2j, 2N-1-2j> / 2^{N-1},
    |1~'> = sum_j sqrt(C(2N-1,2j)) |2N-1-2j, 2j> / 2^{N-1}.
    """
    if N < 1:
        raise ValueError("two-mode BC requires N >= 1")
    _check_binomial("BC2mode", N)
    M = 2 * N - 1
    layout = two_mode_layout(M)
    even = _binomial_weights(N, 0)
    words = [{(p, M - p): w for p, w in even.items()},
             {(M - p, p): w for p, w in even.items()}]
    return CodeSpec(
        "BC2mode", {"N": N, "n": 1, "q": 2 * N, "b": 2, "k": 1}, layout,
        words, 4 ** (N - 1), lambda: enumerate_truncated_space(layout))


def mean_photons_per_mode(spec: CodeSpec) -> List[List[Fraction]]:
    """Exact mean photon number of each mode (columns) in each codeword
    (rows)."""
    return [
        [Fraction(sum(w * ket[i] for ket, w in word.items()), spec.denominator)
         for i in range(spec.layout.n_modes)]
        for word in spec.weights
    ]


def mean_total_photons(spec: CodeSpec) -> List[Fraction]:
    """Exact mean total photon number of each codeword."""
    return [Fraction(sum(w * sum(ket) for ket, w in word.items()), spec.denominator)
            for word in spec.weights]


_BUILDERS = {
    "pcc": build_pcc,
    "eecc": build_eecc,
    "bc": build_bc,
    "bc2mode": build_two_mode_bc,
}


def build(name: str, N: int) -> CodeSpec:
    """Catalog entry point used by the CLI; name is case-insensitive."""
    key = name.lower()
    if key not in _BUILDERS:
        raise KeyError("unknown code %r (choose from %s)" % (name, sorted(_BUILDERS)))
    return _BUILDERS[key](N)
