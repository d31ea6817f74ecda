"""Generalized quantum Hamming bounds and code-rate arithmetic.

All bound evaluations compare exact integers: Python integers, or int64
arrays over theorem 4's grid, whose values stay far below 2^63; floats only
appear in code_rate.  A query whose integers would be too long to form is
refused by the one size limit before any power is formed.
"""

import functools
import math
from typing import Dict, List, NamedTuple

import numpy as np

from .codes import CodeSpec
from .fock import _check_size, enumerate_irreducible_subspace, shift_closure, unit_shifts

SEARCH_CAP_N = 64
SEARCH_CAP_QB = 64


class SearchCapExceeded(ValueError):
    """A bound search ran past the documented caps without an answer; the
    CLI reports it as a usage error, like any other out-of-range input."""


def _bits(x: int) -> int:
    """ceil(log2 x): a power x^e has at most e * _bits(x) bits."""
    return (x - 1).bit_length()


def _check_bits(what: str, bits: int) -> None:
    """Refuse `what`, whose integers hold at most `bits` bits in all: they
    are counted against the size limit before any power is formed."""
    _check_size(bits, "%s would form integers of up to %d bits in all" % (what, bits))


class _BoundFields(NamedTuple):
    n: int
    q: int
    b: int
    k: int
    t: int = 1


class BoundQuery(_BoundFields):
    """Validated (n, q, b, k, t), and small enough to evaluate: the
    rotation bound's terms C(n,j)(q^2-1)^j for j <= min(n, t), each C(n,j)
    below both 2^n and n^j, then b^k and q^n."""

    __slots__ = ()

    def __new__(cls, n: int, q: int, b: int, k: int, t: int = 1):
        self = tuple.__new__(cls, (n, q, b, k, t))
        if q < 2 or b < 2 or n < 1 or k < 1 or t < 0:
            raise ValueError("invalid bound query %r" % (self,))
        top = min(n, t)
        steps = top * (top + 1) // 2  # sum of j over the terms
        _check_bits("the rotation bound at n=%d q=%d b=%d k=%d t=%d" % self,
                    steps * _bits(q * q - 1) + min((top + 1) * n, steps * _bits(n))
                    + k * _bits(b) + n * _bits(q))
        return self


def rotation_sphere_volume(n: int, q: int, t: int) -> int:
    """Sum_{j<=t} C(n,j) (q^2-1)^j — exact; the terms past j = n are 0."""
    return sum(math.comb(n, j) * (q * q - 1) ** j for j in range(min(n, t) + 1))


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


def min_n_grid() -> np.ndarray:
    """min_n(q, b) at k = t = 1 for 2 <= q, b <= SEARCH_CAP_QB, as an int64
    array indexed [q - 2, b - 2].

    The bound holds exactly when b <= floor(q^n / (1 + n(q^2-1))), which
    rises with n, so min_n(q, b) is one plus the count of thresholds below
    b: one searchsorted in all q's thresholds, each capped at SEARCH_CAP_QB
    and lifted by a per-q offset so that the runs stay ascending.  The grid
    is formed once per process and shared, so it is read-only.
    """
    return _min_n_grid()


@functools.cache
def _min_n_grid() -> np.ndarray:
    span = np.arange(2, SEARCH_CAP_QB + 1)
    lift = SEARCH_CAP_QB + 1
    thresholds, starts = [], []
    for q in range(2, SEARCH_CAP_QB + 1):
        starts.append(len(thresholds))
        n, power, threshold = 0, 1, 0
        while threshold < SEARCH_CAP_QB:
            n += 1
            power *= q
            threshold = power // (1 + n * (q * q - 1))
            thresholds.append(min(threshold, SEARCH_CAP_QB) + (q - 2) * lift)
    lifted = span + (span[:, None] - 2) * lift
    grid = np.searchsorted(thresholds, lifted) - np.array(starts)[:, None] + 1
    grid.flags.writeable = False
    return grid


def volume_ratio_bound_holds(query: BoundQuery) -> bool:
    """Packing-ratio inequality b^k / q^n <= 1/(1 + n(q^2-1)), exact via
    cross-multiplication.  Fields that are integer arrays give the verdict
    per element."""
    return query.b ** query.k * (1 + query.n * (query.q ** 2 - 1)) <= query.q ** query.n


def loss_bound_holds(n: int, q: int, b: int, k: int = 1) -> bool:
    """(1+3n) b^k <= (4q-3)^n for single-photon-loss errors; exact."""
    if q < 2 or b < 2 or n < 1 or k < 1:
        raise ValueError("invalid loss-bound arguments")
    _check_bits("the loss bound at n=%d q=%d b=%d k=%d" % (n, q, b, k),
                _bits(1 + 3 * n) + k * _bits(b) + n * _bits(4 * q - 3))
    return (1 + 3 * n) * b ** k <= (4 * q - 3) ** n


def code_rate(n: int, q: int, b: int, k: int = 1) -> float:
    return k * math.log2(b) / (n * math.log2(q))


@functools.cache
def corrupted_dimension(q: int) -> int:
    """Dimension of span{H_{q-1} kets and their single-loss images}, by
    listing the distinct kets (once per q in a process)."""
    if q < 2:
        raise ValueError("q must be >= 2")
    return len(shift_closure(enumerate_irreducible_subspace(q - 1), unit_shifts(3, -1)))


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
    span = np.arange(2, SEARCH_CAP_QB + 1)

    # 2: min_n over q=b: the minimum n=4 is first achieved at q=4.
    mins = np.diagonal(grid)
    out.append({
        "name": "min_n_equals_4_first_at_q4",
        "passed": bool(span[mins == 4][:1].tolist() == [4] and mins[0] >= 5 and mins[1] >= 5),
        "detail": "min_n(q=q,b=q): q=2->%d, q=3->%d, q=4->%d" % tuple(mins[:3]),
    })

    # 3: with b=2 the minimum n=3 first appears at q=6 (q=5 fails: 146>125).
    mins2 = grid[:, 0]
    out.append({
        "name": "min_n_equals_3_first_at_q6_b2",
        "passed": bool(span[mins2 <= 3][:1].tolist() == [6] and mins2[3] > 3),
        "detail": "min_n(q,b=2): q=5->%d, q=6->%d (212<=216, 146>125)" % tuple(mins2[3:5]),
    })

    # 4: the volume ratio r = b/q^n <= 1/(1+n(q^2-1)) has the rotation
    # bound's threshold at every grid point (it holds at min_n and fails at
    # min_n - 1, which is at least 2), and equality (saturation) is
    # attained at q=b=2 (n=5).  The whole grid goes through the inequality
    # as int64 arrays, twice; q^n stays below 2^25 at min_n (2^24 at
    # q=b=64, n=4), so no product overflows.
    q, b = span[:, None], span[None, :]
    ratio_ok = bool(np.all(volume_ratio_bound_holds(_BoundFields(grid, q, b, 1, 1)))
                    and not np.any(volume_ratio_bound_holds(_BoundFields(grid - 1, q, b, 1, 1))))
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
    """The check row `saturation_<code>`: whether the code saturates the
    single-photon-loss bound, that is, it holds at the code's parameters
    and fails with one fewer physical qudit."""
    p = code.parameters
    name = "saturation_%s" % code.name
    if code.name not in ("PCC", "EECC"):
        return {
            "name": name,
            "passed": False,
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
        "name": name,
        "passed": holds and fails_below,
        "detail": "(1+3n)b^k=%d <= (4q-3)^n=%d; fails at %s" % (lhs, rhs, shrunk),
    }
