"""Exact-integer quantum Hamming bounds and code-rate arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chi2qec import bounds
from chi2qec.bounds import (
    SEARCH_CAP_N,
    SEARCH_CAP_QB,
    BoundQuery,
    SearchCapExceeded,
    code_rate,
    corrupted_dimension,
    loss_bound_holds,
    min_n,
    min_n_grid,
    rotation_bound_holds,
    rotation_sphere_volume,
    saturation_report,
    theorem_checks,
    volume_ratio_bound_holds,
)
from chi2qec.codes import build_bc, build_eecc, build_pcc


def test_rotation_sphere_volume_examples():
    assert rotation_sphere_volume(5, 2, 1) == 16
    assert rotation_sphere_volume(3, 3, 1) == 25
    assert rotation_sphere_volume(4, 2, 2) == 1 + 12 + 54


def test_qubit_distance3_equality_at_n5():
    assert rotation_sphere_volume(5, 2, 1) * 2 == 2 ** 5
    assert rotation_bound_holds(BoundQuery(5, 2, 2, 1, 1))
    assert not rotation_bound_holds(BoundQuery(4, 2, 2, 1, 1))


def test_qutrit_qubit_threshold():
    assert not rotation_bound_holds(BoundQuery(3, 3, 2, 1, 1))  # 50 > 27
    assert rotation_bound_holds(BoundQuery(4, 3, 2, 1, 1))  # 66 <= 81
    assert min_n(3, 2) == 4


def test_min_n_milestones():
    assert min_n(2, 2) == 5
    assert min_n(4, 4) == 4
    assert min_n(5, 2) == 4  # 146 > 125 at n=3
    assert min_n(6, 2) == 3  # 212 <= 216


def test_min_n_search_cap():
    with pytest.raises(SearchCapExceeded):
        min_n(2, 2, k=200)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8), st.integers(1, 4), st.integers(0, 3))
def test_min_n_is_the_first_n_the_bound_admits(q, b, k, t):
    first = next((n for n in range(1, SEARCH_CAP_N + 1)
                  if rotation_bound_holds(BoundQuery(n, q, b, k, t))), None)
    if first is None:
        with pytest.raises(SearchCapExceeded):
            min_n(q, b, k, t)
    else:
        assert min_n(q, b, k, t) == first


def test_min_n_grid_equals_min_n_everywhere():
    grid = min_n_grid()
    span = range(2, SEARCH_CAP_QB + 1)
    assert grid.shape == (len(span), len(span)) and grid.dtype == np.int64
    for q in span:
        for b in span:
            assert grid[q - 2, b - 2] == min_n(q, b), (q, b)


def test_volume_ratio_bound():
    assert volume_ratio_bound_holds(BoundQuery(5, 2, 2, 1, 1))  # equality
    assert not volume_ratio_bound_holds(BoundQuery(4, 2, 2, 1, 1))


def test_loss_bound_values():
    assert loss_bound_holds(2, 2, 2)  # PCC qubit: 14 <= 25
    assert not loss_bound_holds(1, 2, 2)  # 8 > 5
    assert loss_bound_holds(1, 3, 2)  # EECC qubit: 8 <= 9
    with pytest.raises(ValueError):
        loss_bound_holds(0, 2, 2)


def test_bound_query_validation():
    with pytest.raises(ValueError):
        BoundQuery(0, 2, 2, 1)
    with pytest.raises(ValueError):
        BoundQuery(1, 1, 2, 1)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 20), st.integers(2, 10), st.integers(2, 10))
def test_rotation_bound_monotone_in_n(n, q, b):
    # Once the bound holds it keeps holding with one more physical qudit.
    if rotation_bound_holds(BoundQuery(n, q, b, 1, 1)):
        assert rotation_bound_holds(BoundQuery(n + 1, q, b, 1, 1))


def test_code_rate_value():
    assert code_rate(4, 3, 2) == pytest.approx(1 / (4 * math.log2(3)))


@pytest.mark.parametrize("q", range(2, 11))
def test_corrupted_dimension_enumeration(q):
    assert corrupted_dimension(q) == 4 * q - 3


def test_corrupted_dimensions_are_enumerated_once_per_process(monkeypatch):
    theorem_checks()

    def no_closure(*args):
        raise AssertionError("closure enumerated again")

    monkeypatch.setattr(bounds, "shift_closure", no_closure)
    assert theorem_checks()[-1]["passed"]


def test_theorem_checks_all_pass():
    # Names, verdicts and details are pinned, so the grid cannot move them.
    assert theorem_checks() == [
        {"name": "rotation_bound_qubit_n5_equality", "passed": True,
         "detail": "2(1+15)=32 vs 2^5=32"},
        {"name": "rotation_bound_qutrit_qubit_threshold", "passed": True,
         "detail": "n=3 fails (50>27), n=4 holds (66<=81)"},
        {"name": "min_n_equals_4_first_at_q4", "passed": True,
         "detail": "min_n(q=q,b=q): q=2->5, q=3->5, q=4->4"},
        {"name": "min_n_equals_3_first_at_q6_b2", "passed": True,
         "detail": "min_n(q,b=2): q=5->4, q=6->3 (212<=216, 146>125)"},
        {"name": "volume_ratio_bound_saturated_at_q2_b2", "passed": True,
         "detail": "r <= 1/(1+n(q^2-1)) over caps; equality at (n,q,b)=(5,2,2)"},
        {"name": "corrupted_dimension_is_4q_minus_3", "passed": True,
         "detail": "enumerated single-loss images for q=2..10"},
    ]


def test_ratio_row_needs_the_rotation_threshold(monkeypatch):
    # A ratio form that holds everywhere, also one photon mode below min_n,
    # must turn row 4 red: the row checks the threshold, not only min_n.
    monkeypatch.setattr(bounds, "volume_ratio_bound_holds", lambda query: True)
    verdicts = {r["name"]: r["passed"] for r in theorem_checks()}
    assert not verdicts.pop("volume_ratio_bound_saturated_at_q2_b2")
    assert all(verdicts.values())


def test_ratio_row_needs_every_grid_point_at_its_threshold(monkeypatch):
    # One grid point's n moved up by one: the inequality then also holds one
    # below it, and only row 4 turns red.
    grid = min_n_grid()
    grid[7 - 2, 5 - 2] += 1
    monkeypatch.setattr(bounds, "min_n_grid", lambda: grid)
    verdicts = {r["name"]: r["passed"] for r in theorem_checks()}
    assert not verdicts.pop("volume_ratio_bound_saturated_at_q2_b2")
    assert all(verdicts.values())


def test_ratio_inequality_on_int64_grid_arrays_matches_python_ints():
    # Row 4 evaluates the inequality on int64 arrays over the whole grid; the
    # largest term, q^n at min_n, is 2^24, far below 2^63.
    grid = min_n_grid()
    span = np.arange(2, SEARCH_CAP_QB + 1)
    points = {(q, b): int(grid[q - 2, b - 2]) for q in span.tolist() for b in span.tolist()}
    assert max(q ** n for (q, b), n in points.items()) == 2 ** 24
    for below in (0, 1):
        arrays = volume_ratio_bound_holds(
            bounds._BoundFields(grid - below, span[:, None], span[None, :], 1, 1))
        expected = [[volume_ratio_bound_holds(BoundQuery(points[q, b] - below, q, b, 1, 1))
                     for b in span.tolist()] for q in span.tolist()]
        assert arrays.tolist() == expected
        assert all(map(all, expected)) if below == 0 else not any(map(any, expected))


def test_saturation_reports():
    pcc, eecc, bc = build_pcc(2), build_eecc(2), build_bc(2)
    assert saturation_report(pcc)["passed"] and pcc.parameters["n"] == 2
    assert saturation_report(eecc)["passed"] and eecc.parameters["n"] == 1
    assert saturation_report(bc) == {
        "name": "saturation_BC",
        "passed": False,
        "detail": "no saturation statement for this family",
    }
