"""Closed-form constructors for the three chi(2) codes and their metadata.

The closed forms are the source of truth; symmetry synthesis (symmetry
module) is used as a cross-check because degenerate nullspaces only fix the
subspace, not a preferred logical basis.
"""

from dataclasses import dataclass
from fractions import Fraction
import json
import math
from typing import Dict, List

import numpy as np

from .fock import (
    BasisIndex,
    ModeLayout,
    StateVector,
    enumerate_irreducible_subspace,
    state_label,
    three_mode_layout,
    two_mode_layout,
)


@dataclass
class CodeSpec:
    """A named code instance: layout, parameters and logical basis states.

    parameters: N (family size parameter), n (physical qudits), q (physical
    qudit dimension), b (logical dimension), k (logical qudits).
    """

    name: str
    parameters: Dict[str, int]
    layout: ModeLayout
    logical_states: List[StateVector]
    total_photons: Fraction

    @property
    def basis(self) -> BasisIndex:
        return self.logical_states[0].basis

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": dict(self.parameters),
            "layout": {
                "modes": [list(m) for m in self.layout.modes],
                "caps": list(self.layout.caps),
            },
            "total_photons": [self.total_photons.numerator,
                              self.total_photons.denominator],
            "codewords": [
                [
                    [state_label(s), amp.real, amp.imag]
                    for s, amp in psi.support()
                ]
                for psi in self.logical_states
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _sqrt2():
    return math.sqrt(2.0)


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
    basis = enumerate_irreducible_subspace(N - 1, groups=2)
    states: List[StateVector] = [None] * N

    def mixed(x, y):
        return StateVector.from_terms(
            basis, {x + y: 1 / _sqrt2(), y + x: 1 / _sqrt2()}
        )

    if N == 2:
        a, b = (1, 1, 0), (0, 0, 1)
        states[0] = StateVector.from_terms(
            basis, {a + a: 1 / _sqrt2(), b + b: 1 / _sqrt2()}
        )
        states[1] = mixed(a, b)
    elif N % 2 == 0:
        m = N // 2
        for k in range(m):
            a = (m + k, m + k, m - 1 - k)
            b = (m - 1 - k, m - 1 - k, m + k)
            states[2 * k] = mixed(a, b)
            states[2 * k + 1] = StateVector.from_terms(
                basis, {a + a: 1 / _sqrt2(), b + b: 1 / _sqrt2()}
            )
    else:
        m = (N - 1) // 2
        c = (m, m, m)
        states[0] = StateVector.from_terms(basis, {c + c: 1.0})
        for k in range(1, m + 1):
            a = (m + k, m + k, m - k)
            b = (m - k, m - k, m + k)
            states[2 * k - 1] = StateVector.from_terms(
                basis, {a + a: 1 / _sqrt2(), b + b: 1 / _sqrt2()}
            )
            states[2 * k] = mixed(a, b)

    return CodeSpec(
        name="PCC",
        parameters={"N": N, "n": 2, "q": N, "b": N, "k": 1},
        layout=three_mode_layout(N - 1, groups=2),
        logical_states=states,
        total_photons=Fraction(3 * (N - 1)),
    )


def build_eecc(N: int) -> CodeSpec:
    """Embedded-error-correcting code: one H_{2N-2} qudit (q = 2N-1)
    holding an N-dimensional logical system.

    |j~> = (|2N-2-j,2N-2-j,j> + |j,j,2N-2-j>)/sqrt2 for j < N-1 and
    |N-1~> = |N-1,N-1,N-1>.
    """
    if N < 2:
        raise ValueError("EECC requires N >= 2")
    M = 2 * N - 2
    basis = enumerate_irreducible_subspace(M, groups=1)
    states = []
    for j in range(N - 1):
        states.append(
            StateVector.from_terms(
                basis,
                {
                    (M - j, M - j, j): 1 / _sqrt2(),
                    (j, j, M - j): 1 / _sqrt2(),
                },
            )
        )
    states.append(StateVector.from_terms(basis, {(N - 1, N - 1, N - 1): 1.0}))
    return CodeSpec(
        name="EECC",
        parameters={"N": N, "n": 1, "q": 2 * N - 1, "b": N, "k": 1},
        layout=three_mode_layout(M, groups=1),
        logical_states=states,
        total_photons=Fraction(3 * (N - 1)),
    )


def build_bc(N: int) -> CodeSpec:
    """Binomial chi(2) code on H_{2N-1} (q = 2N), protecting a qubit
    against every homogeneous error set of order m <= N.

    |0~> = sum_j sqrt(C(2N-1,2j)) |2j,2j,2N-1-2j> / 2^{N-1} and |1~> with
    the odd binomial indices.  Amplitudes come from exact integer binomials
    with a single final float conversion.
    """
    if N < 1:
        raise ValueError("BC requires N >= 1")
    M = 2 * N - 1
    basis = enumerate_irreducible_subspace(M, groups=1)
    norm = 2 ** (N - 1)
    zero = {
        (2 * j, 2 * j, M - 2 * j): math.sqrt(math.comb(M, 2 * j)) / norm
        for j in range(N)
    }
    one = {
        (2 * j + 1, 2 * j + 1, 2 * (N - 1 - j)): math.sqrt(math.comb(M, 2 * j + 1)) / norm
        for j in range(N)
    }
    return CodeSpec(
        name="BC",
        parameters={"N": N, "n": 1, "q": 2 * N, "b": 2, "k": 1},
        layout=three_mode_layout(M, groups=1),
        logical_states=[
            StateVector.from_terms(basis, zero),
            StateVector.from_terms(basis, one),
        ],
        total_photons=Fraction(3 * (2 * N - 1), 2),
    )


def build_two_mode_bc(N: int) -> CodeSpec:
    """Two-mode (signal, pump) binomial encoding; every ket of both
    codewords has photon-number sum 2N-1.

    |0~'> = sum_j sqrt(C(2N-1,2j)) |2j, 2N-1-2j> / 2^{N-1},
    |1~'> = sum_j sqrt(C(2N-1,2j)) |2N-1-2j, 2j> / 2^{N-1}.
    """
    if N < 1:
        raise ValueError("two-mode BC requires N >= 1")
    M = 2 * N - 1
    layout = two_mode_layout(M)
    from .fock import enumerate_truncated_space

    basis = enumerate_truncated_space(layout)
    norm = 2 ** (N - 1)
    zero = {
        (2 * j, M - 2 * j): math.sqrt(math.comb(M, 2 * j)) / norm for j in range(N)
    }
    one = {
        (M - 2 * j, 2 * j): math.sqrt(math.comb(M, 2 * j)) / norm for j in range(N)
    }
    return CodeSpec(
        name="BC2mode",
        parameters={"N": N, "n": 1, "q": 2 * N, "b": 2, "k": 1},
        layout=layout,
        logical_states=[
            StateVector.from_terms(basis, zero),
            StateVector.from_terms(basis, one),
        ],
        total_photons=Fraction(2 * N - 1),
    )


def code_rate(spec: CodeSpec) -> float:
    p = spec.parameters
    return p["k"] * math.log2(p["b"]) / (p["n"] * math.log2(p["q"]))


def mean_photons_per_mode(spec: CodeSpec) -> np.ndarray:
    """Per-logical-state, per-mode mean photon numbers (rows = codewords)."""
    out = np.zeros((len(spec.logical_states), spec.layout.n_modes))
    for r, psi in enumerate(spec.logical_states):
        probs = np.abs(psi.amplitudes) ** 2
        for i, st in enumerate(psi.basis.states):
            out[r] += probs[i] * np.array(st, dtype=float)
    return out


def mean_total_photons(spec: CodeSpec) -> np.ndarray:
    return mean_photons_per_mode(spec).sum(axis=1)


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
