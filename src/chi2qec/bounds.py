"""Generalized quantum Hamming bounds, code-rate arithmetic and capacity.

All bound evaluations compare exact Python integers; floats only appear in
code_rate and capacity_upper.
"""

import math
from typing import Dict, List, NamedTuple

from .codes import CodeSpec
from .errors import _closure, _unit_shifts
from .fock import enumerate_irreducible_subspace

SEARCH_CAP_N = 64
SEARCH_CAP_QB = 64


class SearchCapExceeded(ValueError):
    """A bound search ran past the documented caps without an answer; the
    CLI reports it as a usage error, like any other out-of-range input."""


class _BoundFields(NamedTuple):
    n: int
    q: int
    b: int
    k: int
    t: int = 1


class BoundQuery(_BoundFields):
    """Validated (n, q, b, k, t); a tuple, so theorem 4's grid check can
    build thousands of them cheaply."""

    __slots__ = ()

    def __new__(cls, n: int, q: int, b: int, k: int, t: int = 1):
        self = tuple.__new__(cls, (n, q, b, k, t))
        if q < 2 or b < 2 or n < 1 or k < 1 or t < 0:
            raise ValueError("invalid bound query %r" % (self,))
        return self


def rotation_sphere_volume(n: int, q: int, t: int) -> int:
    """Sum_{j<=t} C(n,j) (q^2-1)^j — exact."""
    return sum(math.comb(n, j) * (q * q - 1) ** j for j in range(t + 1))


def rotation_bound_holds(query: BoundQuery) -> bool:
    """Sum_{j<=t} C(n,j)(q^2-1)^j b^k <= q^n, exact integers."""
    lhs = rotation_sphere_volume(query.n, query.q, query.t) * query.b ** query.k
    return lhs <= query.q ** query.n


def min_n(q: int, b: int, k: int = 1, t: int = 1) -> int:
    """Smallest n satisfying the rotation bound (cap n <= 64)."""
    BoundQuery(1, q, b, k, t)  # validates (q, b, k, t) once
    logical_dim = b ** k
    power = 1
    for n in range(1, SEARCH_CAP_N + 1):
        power *= q
        if rotation_sphere_volume(n, q, t) * logical_dim <= power:
            return n
    raise SearchCapExceeded("no n <= %d works for q=%d b=%d k=%d t=%d"
                            % (SEARCH_CAP_N, q, b, k, t))


def min_n_grid() -> Dict:
    """{(q, b): min_n(q, b)} for 2 <= q, b <= SEARCH_CAP_QB at k = t = 1.

    One upward sweep of n per q: the bound's left side b(1 + n(q^2-1))
    grows with b and its right side q^n does not, so min_n(q, b) is never
    below min_n(q, b-1) and the search for b starts where b-1 stopped.
    No n on this grid comes near SEARCH_CAP_N.
    """
    grid = {}
    for q in range(2, SEARCH_CAP_QB + 1):
        n, power = 1, q
        for b in range(2, SEARCH_CAP_QB + 1):
            while b * (1 + n * (q * q - 1)) > power:
                n += 1
                power *= q
            grid[q, b] = n
    return grid


def volume_ratio_bound_holds(query: BoundQuery) -> bool:
    """Packing-ratio inequality b^k / q^n <= 1/(1 + n(q^2-1)), exact via
    cross-multiplication."""
    return query.b ** query.k * (1 + query.n * (query.q ** 2 - 1)) <= query.q ** query.n


def loss_bound_holds(n: int, q: int, b: int, k: int = 1) -> bool:
    """(1+3n) b^k <= (4q-3)^n for single-photon-loss errors; exact."""
    if q < 2 or b < 2 or n < 1 or k < 1:
        raise ValueError("invalid loss-bound arguments")
    return (1 + 3 * n) * b ** k <= (4 * q - 3) ** n


def code_rate(n: int, q: int, b: int, k: int = 1) -> float:
    return k * math.log2(b) / (n * math.log2(q))


def _g(x: float) -> float:
    if x < 0:
        raise ValueError("g(x) needs x >= 0")
    if x == 0:
        return 0.0
    return (1 + x) * math.log2(1 + x) - x * math.log2(x)


def capacity_upper(gamma: float, mean_N: float) -> float:
    """max(g((1-gamma) N) - g(gamma N), 0), g(x) = (1+x)log2(1+x) - x log2 x."""
    if not 0 <= gamma < 1:
        raise ValueError("gamma must lie in [0, 1)")
    if mean_N <= 0:
        raise ValueError("mean photon number must be positive")
    return max(_g((1 - gamma) * mean_N) - _g(gamma * mean_N), 0.0)


def corrupted_dimension(q: int) -> int:
    """Dimension of span{H_{q-1} kets and their single-loss images}, by
    listing the distinct kets."""
    if q < 2:
        raise ValueError("q must be >= 2")
    return len(_closure(enumerate_irreducible_subspace(q - 1), _unit_shifts(3, -1)))


def theorem_checks() -> List[Dict]:
    """Finite-range verification of the five bound statements; each entry
    reports a name, a verdict, and the witnessing arithmetic."""
    out = []

    # 1: the distance-3 qubit packing bound with equality at n=5, and the
    # qutrit-qubit threshold n >= 4.
    eq5 = (rotation_sphere_volume(5, 2, 1) * 2, 2 ** 5)
    out.append({
        "name": "rotation_bound_qubit_n5_equality",
        "passed": eq5[0] == eq5[1],
        "detail": "2(1+15)=%d vs 2^5=%d" % eq5,
    })
    qq = [rotation_bound_holds(BoundQuery(n, 3, 2, 1, 1)) for n in (3, 4)]
    out.append({
        "name": "rotation_bound_qutrit_qubit_threshold",
        "passed": (not qq[0]) and qq[1],
        "detail": "n=3 fails (50>27), n=4 holds (66<=81)",
    })

    grid = min_n_grid()

    # 2: min_n over q=b: the minimum n=4 is first achieved at q=4.
    mins = {q: grid[q, q] for q in range(2, SEARCH_CAP_QB + 1)}
    first4 = min(q for q, n in mins.items() if n == 4) if 4 in mins.values() else None
    out.append({
        "name": "min_n_equals_4_first_at_q4",
        "passed": first4 == 4 and mins[2] >= 5 and mins[3] >= 5,
        "detail": "min_n(q=q,b=q): q=2->%d, q=3->%d, q=4->%d" % (mins[2], mins[3], mins[4]),
    })

    # 3: with b=2 the minimum n=3 first appears at q=6 (q=5 fails: 146>125).
    mins2 = {q: grid[q, 2] for q in range(2, SEARCH_CAP_QB + 1)}
    first3 = min(q for q, n in mins2.items() if n <= 3) if any(n <= 3 for n in mins2.values()) else None
    out.append({
        "name": "min_n_equals_3_first_at_q6_b2",
        "passed": first3 == 6 and mins2[5] > 3,
        "detail": "min_n(q,b=2): q=5->%d, q=6->%d (212<=216, 146>125)" % (mins2[5], mins2[6]),
    })

    # 4: the volume ratio r = b/q^n <= 1/(1+n(q^2-1)) has the rotation
    # bound's threshold at every grid point (it holds at min_n and fails at
    # min_n - 1, which is at least 2), and equality (saturation) is
    # attained at q=b=2 (n=5).
    ratio_ok = all(volume_ratio_bound_holds(BoundQuery(n, q, b, 1, 1))
                   and not volume_ratio_bound_holds(BoundQuery(n - 1, q, b, 1, 1))
                   for (q, b), n in grid.items())
    sat = rotation_sphere_volume(5, 2, 1) * 2 == 2 ** 5
    out.append({
        "name": "volume_ratio_bound_saturated_at_q2_b2",
        "passed": ratio_ok and sat,
        "detail": "r <= 1/(1+n(q^2-1)) over caps; equality at (n,q,b)=(5,2,2)",
    })

    # 5: the loss bound with the corrupted dimension 4q-3 confirmed by
    # enumeration for q <= 10.
    dims_ok = all(corrupted_dimension(q) == 4 * q - 3 for q in range(2, 11))
    out.append({
        "name": "corrupted_dimension_is_4q_minus_3",
        "passed": dims_ok,
        "detail": "enumerated single-loss images for q=2..10",
    })
    return out


def saturation_report(code: CodeSpec) -> Dict:
    """Whether the code saturates the single-photon-loss bound: it holds at
    the code's parameters and fails with one fewer physical qudit."""
    p = code.parameters
    if code.name not in ("PCC", "EECC"):
        return {
            "code": code.name,
            "saturates": False,
            "detail": "no saturation statement for this family",
        }
    n, q, b, k = p["n"], p["q"], p["b"], p["k"]
    holds = loss_bound_holds(n, q, b, k)
    if n > 1:
        fails_below = not loss_bound_holds(n - 1, q, b, k)
        shrunk = "n-1=%d" % (n - 1)
    else:
        # n=1 is already minimal: the n=0 limit reads b^k <= 1, violated.
        fails_below = b ** k > 1
        shrunk = "n=0 limit"
    lhs = (1 + 3 * n) * b ** k
    rhs = (4 * q - 3) ** n
    return {
        "code": code.name,
        "saturates": holds and fails_below,
        "n": n,
        "detail": "(1+3n)b^k=%d <= (4q-3)^n=%d; fails at %s" % (lhs, rhs, shrunk),
    }
