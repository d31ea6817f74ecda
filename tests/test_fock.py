"""Truncated Fock-space algebra."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chi2qec.errors import _monomial
from chi2qec.fock import (
    BasisIndex,
    DimensionMismatch,
    LinearOperator,
    MissingBasisState,
    ModeLayout,
    StateVector,
    TruncationOverflow,
    adjoint,
    apply,
    compose,
    embed,
    enumerate_irreducible_subspace,
    enumerate_truncated_space,
    inner_product,
    ladder,
    monomial_operator,
    project,
    state_label,
    tensor_basis,
    three_mode_layout,
    two_mode_layout,
)


def test_irreducible_subspace_states():
    basis = enumerate_irreducible_subspace(2)
    assert basis.states == ((0, 0, 2), (1, 1, 1), (2, 2, 0))
    pair = enumerate_irreducible_subspace(1, groups=2)
    assert pair.dimension == 4
    assert pair.states[0] == (0, 0, 1, 0, 0, 1)


def test_truncated_space_enumeration_and_overflow():
    layout = three_mode_layout(2)
    basis = enumerate_truncated_space(layout)
    assert basis.dimension == 27
    assert basis.states[0] == (0, 0, 0)
    assert basis.states[-1] == (2, 2, 2)
    with pytest.raises(TruncationOverflow):
        enumerate_truncated_space(three_mode_layout(200))


def test_ladder_matrix_elements():
    basis = enumerate_truncated_space(three_mode_layout(3))
    a = ladder(0, "lower", basis)
    src = basis.index_of((2, 0, 0))
    dst = basis.index_of((1, 0, 0))
    assert a.matrix[dst, src] == pytest.approx(math.sqrt(2))
    araise = ladder(0, "raise", basis)
    assert araise.matrix[src, dst] == pytest.approx(math.sqrt(2))
    # Raising out of the truncated space drops the element.
    top = basis.index_of((3, 0, 0))
    assert abs(araise.matrix[:, top]).sum() == 0


def test_number_operator_expectation():
    basis = enumerate_irreducible_subspace(2)
    psi = StateVector.from_terms(basis, {(0, 0, 2): 0.6, (1, 1, 1): 0.8})
    n = [monomial_operator([(mode, "number")], basis) for mode in range(3)]
    assert inner_product(psi, apply(n[2], psi)) == pytest.approx(0.36 * 2 + 0.64)
    total = sum(inner_product(psi, apply(op, psi)) for op in n)
    assert total == pytest.approx(0.36 * 2 + 0.64 * 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2), st.lists(st.floats(-1, 1), min_size=6, max_size=6))
def test_ladder_adjoint_is_inner_product_transpose(mode, coeffs):
    basis = enumerate_truncated_space(three_mode_layout(1))
    dim = basis.dimension
    x = np.zeros(dim, dtype=complex)
    y = np.zeros(dim, dtype=complex)
    x[: len(coeffs) // 2] = coeffs[: len(coeffs) // 2]
    y[: len(coeffs) - len(coeffs) // 2] = coeffs[len(coeffs) // 2:]
    a = ladder(mode, "lower", basis)
    sx = StateVector(basis, x)
    sy = StateVector(basis, y)
    lhs = inner_product(sx, apply(a, sy))
    rhs = inner_product(apply(adjoint(a), sx), sy)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_compose_and_tensor():
    basis = enumerate_truncated_space(three_mode_layout(2))
    n0 = monomial_operator([(0, "number")], basis)
    a = ladder(0, "lower", basis)
    ar = ladder(0, "raise", basis)
    # a^dag a = n on the full truncated space.
    prod = compose(ar, a)
    assert np.allclose(prod.dense(), n0.dense())
    with pytest.raises(DimensionMismatch):
        compose(a, LinearOperator.identity(enumerate_irreducible_subspace(1)))
    small = enumerate_irreducible_subspace(1)
    assert tensor_basis(small, small) == enumerate_irreducible_subspace(1, groups=2)


def test_embed_project_round_trip():
    small = enumerate_irreducible_subspace(2)
    big = enumerate_truncated_space(three_mode_layout(2))
    psi = StateVector.from_terms(small, {(0, 0, 2): 0.6, (2, 2, 0): 0.8})
    back = project(embed(psi, big), small)
    assert np.allclose(back.amplitudes, psi.amplitudes)


def test_embed_missing_state_raises():
    small = enumerate_irreducible_subspace(2)
    other = enumerate_irreducible_subspace(1)
    psi = StateVector.from_terms(small, {(2, 2, 0): 1.0})
    with pytest.raises(MissingBasisState):
        embed(psi, other)


def test_apply_dimension_mismatch():
    b1 = enumerate_irreducible_subspace(1)
    b2 = enumerate_irreducible_subspace(2)
    op = LinearOperator.identity(b1)
    psi = StateVector.from_terms(b2, {(1, 1, 1): 1.0})
    with pytest.raises(DimensionMismatch):
        apply(op, psi)


@pytest.mark.parametrize("make", [
    lambda m: sp.csr_matrix(m.real),
    lambda m: sp.coo_matrix(m),
    lambda m: sp.csr_array(m),
    lambda m: m,
], ids=["real-csr", "coo", "csr-array", "dense"])
def test_linear_operator_converts_to_complex_csr(make):
    basis = enumerate_irreducible_subspace(2)  # three kets
    dense = np.arange(9).reshape(3, 3) + 0j
    op = LinearOperator(basis, make(dense))
    assert type(op.matrix) is sp.csr_matrix
    assert op.matrix.dtype == complex
    assert np.array_equal(op.dense(), dense)


def test_linear_operator_keeps_a_complex_csr_matrix():
    basis = enumerate_irreducible_subspace(2)
    mat = sp.csr_matrix(np.eye(3, dtype=complex))
    assert LinearOperator(basis, mat).matrix is mat


@pytest.mark.parametrize("mat", [
    sp.csr_matrix((3, 4), dtype=complex),
    np.zeros((4, 3)),
], ids=["complex-csr", "dense"])
def test_linear_operator_rejects_a_wrong_shape(mat):
    basis = enumerate_irreducible_subspace(2)
    with pytest.raises(DimensionMismatch):
        LinearOperator(basis, mat)


def test_state_label():
    assert state_label((1, 0, 2)) == "1,0,2"


def test_two_mode_layout():
    layout = two_mode_layout(3)
    assert layout.n_modes == 2
    basis = enumerate_truncated_space(layout)
    assert basis.dimension == 16


def _reference_ladder(mode, kind, basis):
    """Per-state ladder over any BasisIndex: |n-1><n| sqrt(n) or
    |n+1><n| sqrt(n+1), dropping targets outside the basis."""
    rows, cols, vals = [], [], []
    for j, s in enumerate(basis.states):
        n = s[mode]
        if kind == "lower":
            if n == 0:
                continue
            target = s[:mode] + (n - 1,) + s[mode + 1:]
            coeff = math.sqrt(n)
        else:
            target = s[:mode] + (n + 1,) + s[mode + 1:]
            coeff = math.sqrt(n + 1)
        if target in basis:
            rows.append(basis.index_of(target))
            cols.append(j)
            vals.append(coeff)
    mat = sp.csr_matrix(
        (vals, (rows, cols)), shape=(basis.dimension, basis.dimension), dtype=complex
    )
    return LinearOperator(basis, mat)


def _reference_number(mode, basis):
    diag = np.array([s[mode] for s in basis.states], dtype=complex)
    return LinearOperator(basis, sp.diags(diag, format="csr"))


def _reference_product(factors, basis):
    """Compose one full-space factor at a time, the first factor acting first."""
    op = LinearOperator.identity(basis)
    for mode, kind in factors:
        if kind == "number":
            step = _reference_number(mode, basis)
        else:
            step = _reference_ladder(mode, kind, basis)
        op = compose(step, op)
    return op


def _assert_same_operator(got, want):
    assert got.domain == want.domain
    assert (got.matrix != want.matrix).nnz == 0


def _layout(caps):
    return ModeLayout(tuple(("signal", g) for g in range(1, len(caps) + 1)), tuple(caps))


_caps = st.lists(st.integers(0, 4), min_size=1, max_size=6)


@st.composite
def _subset_and_factors(draw):
    """Caps, factors, and a random subset of the capped product basis."""
    caps = draw(_caps)
    factors = draw(st.lists(
        st.tuples(st.integers(0, len(caps) - 1),
                  st.sampled_from(["lower", "raise", "number"])),
        max_size=4,
    ))
    rnd = draw(st.randoms(use_true_random=False))
    keep = [rnd.random() < 0.5 for _ in range(math.prod(c + 1 for c in caps))]
    return caps, factors, keep


@settings(max_examples=60, deadline=None)
@given(_subset_and_factors())
# A raise after lowers have emptied the mode: the ket is already gone.
@example(([0], [(0, "lower"), (0, "lower"), (0, "raise")], [True]))
# Raise then lower at the cap: only the final ket has to be in the basis.
@example(([1], [(0, "raise"), (0, "lower")], [True, True]))
def test_monomial_kernel_equals_composed_ladders(case):
    caps, factors, keep = case
    subset = BasisIndex(
        s for s, k in zip(enumerate_truncated_space(_layout(caps)).states, keep) if k
    )
    if subset.dimension == 0:
        return
    # A full space with one more photon per raise never truncates a ket.
    raises = [sum(1 for m, kind in factors if m == mode and kind == "raise")
              for mode in range(len(caps))]
    full = enumerate_truncated_space(_layout([c + r for c, r in zip(caps, raises)]))
    idx = [full.index_of(s) for s in subset.states]
    want = _reference_product(factors, full).matrix[idx][:, idx]
    got = monomial_operator(factors, subset)
    assert got.domain == subset
    assert (got.matrix != want).nnz == 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_error_monomials_equal_composed_ladders(data):
    caps = data.draw(_caps)
    kind = data.draw(st.sampled_from(["loss", "gain", "dephasing"]))
    exps = data.draw(
        st.lists(st.integers(0, 4), min_size=len(caps), max_size=len(caps))
        .filter(lambda e: sum(e) <= 4)
    )
    step = {"loss": "lower", "gain": "raise", "dephasing": "number"}[kind]
    factors = [(mode, step) for mode, p in enumerate(exps) for _ in range(p)]
    layout = _layout(caps)
    basis = enumerate_truncated_space(layout)
    op = _monomial(basis, exps, kind)
    _assert_same_operator(op, _reference_product(factors, basis))


def test_ladder_on_an_irreducible_basis_drops_targets_outside_it():
    h2 = enumerate_irreducible_subspace(2)
    assert ladder(0, "lower", h2).matrix.nnz == 0  # |n-1,n,2-n> leaves H_2
    # a_s^dag a_i^dag a_p stays in H_2: |0,0,2> -> sqrt(2) |1,1,1>.
    A = monomial_operator([(2, "lower"), (1, "raise"), (0, "raise")], h2)
    assert A.matrix[h2.index_of((1, 1, 1)), h2.index_of((0, 0, 2))] == pytest.approx(
        math.sqrt(2))
    assert A.matrix.nnz == 2
