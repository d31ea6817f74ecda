"""Truncated Fock-space algebra."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chi2qec.errors import monomial_factors
from chi2qec.fock import (
    BasisIndex,
    DimensionMismatch,
    LinearOperator,
    MissingBasisState,
    ModeLayout,
    StateVector,
    TruncationOverflow,
    apply,
    compose,
    embed,
    enumerate_irreducible_subspace,
    enumerate_truncated_space,
    ladder,
    monomial_action,
    monomial_operator,
    state_label,
    three_mode_layout,
    two_mode_layout,
)


def test_irreducible_subspace_states():
    basis = enumerate_irreducible_subspace(2)
    assert basis.states == ((0, 0, 2), (1, 1, 1), (2, 2, 0))
    pair = enumerate_irreducible_subspace(1, groups=2)
    assert pair.dimension == 4
    assert pair.states[0] == (0, 0, 1, 0, 0, 1)


def test_occupations_are_built_once_and_read_only():
    basis = BasisIndex([(0, 0, 2), (np.int64(1), 1, 1)])
    assert basis.states[1] == (1, 1, 1) and type(basis.states[1][0]) is int
    occ = basis.occupations
    assert occ is basis.occupations
    assert occ.tolist() == [[0, 0, 2], [1, 1, 1]]
    with pytest.raises(ValueError, match="read-only"):
        occ[0, 0] = 5


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
    assert a.dense()[dst, src] == pytest.approx(math.sqrt(2))
    araise = ladder(0, "raise", basis)
    assert araise.dense()[src, dst] == pytest.approx(math.sqrt(2))
    # Raising out of the truncated space leaves the column empty.
    top = basis.index_of((3, 0, 0))
    assert araise.rows[top] == -1
    assert abs(araise.dense()[:, top]).sum() == 0


def test_number_operator_expectation():
    basis = enumerate_irreducible_subspace(2)
    psi = np.array([0.6, 0.8, 0])  # 0.6|0,0,2> + 0.8|1,1,1>
    n = [monomial_operator([(mode, "number")], basis) for mode in range(3)]
    assert np.vdot(psi, n[2].apply(psi)) == pytest.approx(0.36 * 2 + 0.64)
    total = sum(np.vdot(psi, op.apply(psi)) for op in n)
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
    # On a capped product space the raising operator is the lowering
    # operator's adjoint.
    lhs = np.vdot(x, ladder(mode, "lower", basis).apply(y))
    rhs = np.vdot(ladder(mode, "raise", basis).apply(x), y)
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
    pair = enumerate_irreducible_subspace(1, groups=2)
    assert pair.states == tuple(a + b for a in small.states for b in small.states)


def test_embed_project_round_trip():
    small = enumerate_irreducible_subspace(2)
    big = enumerate_truncated_space(three_mode_layout(2))
    psi = StateVector.from_terms(small, {(0, 0, 2): 0.6, (2, 2, 0): 0.8})
    rows = [big.index_of(s) for s in small.states]
    big_amplitudes = embed(psi, big).amplitudes
    assert np.array_equal(big_amplitudes[rows], psi.amplitudes)
    assert np.count_nonzero(big_amplitudes) == 2


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


def test_linear_operator_holds_a_weighted_ket_map():
    basis = enumerate_irreducible_subspace(2)  # three kets
    op = LinearOperator(basis, [2, -1, 0], [0.5, 0, 1j])
    assert op.rows.dtype == np.int64
    assert op.coeffs.dtype == complex
    assert np.array_equal(op.dense(), [[0, 0, 1j], [0, 0, 0], [0.5, 0, 0]])


@pytest.mark.parametrize("rows,coeffs", [
    ([0, 1, 2], np.eye(3)),
    ([0, 1], [1, 1, 1]),
    ([0, 1, 2], [1, 1]),
    ([0, 1, 3], [1, 1, 1]),
    ([0, 1, -2], [1, 1, 1]),
], ids=["dense", "short-rows", "short-coeffs", "row-past-end", "row-below-empty"])
def test_linear_operator_rejects_a_wrong_shape(rows, coeffs):
    basis = enumerate_irreducible_subspace(2)
    with pytest.raises(DimensionMismatch):
        LinearOperator(basis, rows, coeffs)


def _sample_operators(basis):
    """Ket maps of every builder: ladders that empty columns, a number
    monomial that empties its zero-coefficient columns, complex phases and
    a permutation."""
    phases = np.exp(1j * np.arange(basis.dimension))
    return [
        ladder(0, "lower", basis),
        ladder(2, "raise", basis),
        monomial_operator([(0, "number"), (1, "lower")], basis),
        LinearOperator.diagonal(basis, phases),
        LinearOperator(basis, np.roll(np.arange(basis.dimension), 1), phases),
    ]


def test_compose_and_apply_equal_the_dense_products():
    basis = enumerate_truncated_space(three_mode_layout(2))
    ops = _sample_operators(basis)
    rng = np.random.default_rng(3)
    block = rng.normal(size=(basis.dimension, 4)) + 1j * rng.normal(size=(basis.dimension, 4))
    for a in ops:
        assert np.allclose(a.apply(block), a.dense() @ block, rtol=0, atol=1e-12)
        assert np.allclose(a.apply(block[:, 0]), a.dense() @ block[:, 0], rtol=0, atol=1e-12)
        for b in ops:
            assert np.allclose(compose(a, b).dense(), a.dense() @ b.dense(),
                               rtol=0, atol=1e-12)


def test_state_label():
    assert state_label((1, 0, 2)) == "1,0,2"


def test_two_mode_layout():
    layout = two_mode_layout(3)
    assert layout.n_modes == 2
    basis = enumerate_truncated_space(layout)
    assert basis.dimension == 16


def test_n_groups_is_computed_once_and_leaves_equality_and_hash_alone():
    layout = three_mode_layout(2, groups=2)
    key = hash(layout)
    assert layout.n_groups == 2 and vars(layout)["n_groups"] == 2
    assert hash(layout) == key
    assert layout == three_mode_layout(2, groups=2) != three_mode_layout(2, groups=1)
    assert {layout: 1}[three_mode_layout(2, groups=2)] == 1


def _reference_ladder(mode, kind, basis):
    """Per-state ladder over any BasisIndex: |n-1><n| sqrt(n) or
    |n+1><n| sqrt(n+1), dropping targets outside the basis."""
    rows = [-1] * basis.dimension
    vals = [0.0] * basis.dimension
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
            rows[j] = basis.index_of(target)
            vals[j] = coeff
    return LinearOperator(basis, rows, vals)


def _reference_number(mode, basis):
    return LinearOperator.diagonal(basis, [s[mode] for s in basis.states])


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


def _entries(op):
    """{(source ket, target ket): coefficient} over the nonzero entries."""
    states = op.domain.states
    return {(states[j], states[op.rows[j]]): op.coeffs[j]
            for j in np.flatnonzero((op.rows >= 0) & (op.coeffs != 0))}


def _assert_same_operator(got, want):
    assert got.domain == want.domain
    assert _entries(got) == _entries(want)


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
    want = {(src, dst): c for (src, dst), c in _entries(_reference_product(factors, full)).items()
            if src in subset and dst in subset}
    got = monomial_operator(factors, subset)
    assert got.domain == subset
    assert _entries(got) == want


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
    op = monomial_operator(monomial_factors(exps, kind), basis)
    _assert_same_operator(op, _reference_product(factors, basis))


@st.composite
def _kets_and_factors(draw):
    """Distinct kets, factors on their modes, and whether the basis also
    holds every nonnegative image of the kets."""
    modes = draw(st.integers(1, 4))
    kets = draw(st.lists(st.tuples(*[st.integers(0, 3)] * modes),
                         min_size=1, max_size=12, unique=True))
    factors = draw(st.lists(
        st.tuples(st.integers(0, modes - 1), st.sampled_from(["lower", "raise", "number"])),
        max_size=6,
    ))
    return kets, factors, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_kets_and_factors())
# Lowering an empty mode annihilates the ket although a raise follows.
@example(([(0,), (2,)], [(0, "lower"), (0, "raise")], True))
# A number factor on an empty mode annihilates the ket.
@example(([(0, 1), (1, 1)], [(0, "number"), (1, "lower")], True))
def test_monomial_action_gives_the_operator_coefficients_bit_for_bit(case):
    kets, factors, closed = case
    coeff, shift = monomial_action(factors, np.array(kets, dtype=np.int64))
    images = [tuple(np.add(ket, shift).tolist()) for ket in kets]
    extra = [t for t in images if closed and min(t) >= 0 and t not in kets]
    basis = BasisIndex(kets + sorted(set(extra)))
    op = monomial_operator(factors, basis)
    on_basis, basis_shift = monomial_action(factors, basis.occupations)
    # Each ket's coefficient depends on that ket alone.
    assert np.array_equal(on_basis[:len(kets)].view(np.int64), coeff.view(np.int64))
    assert np.array_equal(basis_shift, shift)
    mapped = op.rows >= 0
    assert np.array_equal(op.coeffs.real[mapped].view(np.int64),
                          on_basis[mapped].view(np.int64))
    assert not np.any(op.coeffs.imag)
    # A dropped column holds exactly zero: its ket is annihilated or its
    # image lies outside the basis.
    assert np.all(op.coeffs[~mapped] == 0)
    for j, ket in enumerate(kets):
        if mapped[j]:
            assert basis.states[op.rows[j]] == images[j] and coeff[j] != 0
        else:
            assert coeff[j] == 0 or images[j] not in basis
            assert not closed or coeff[j] == 0


def test_ladder_on_an_irreducible_basis_drops_targets_outside_it():
    h2 = enumerate_irreducible_subspace(2)
    assert np.all(ladder(0, "lower", h2).rows == -1)  # |n-1,n,2-n> leaves H_2
    # a_s^dag a_i^dag a_p stays in H_2: |0,0,2> -> sqrt(2) |1,1,1>.
    A = monomial_operator([(2, "lower"), (1, "raise"), (0, "raise")], h2)
    assert A.dense()[h2.index_of((1, 1, 1)), h2.index_of((0, 0, 2))] == pytest.approx(
        math.sqrt(2))
    assert np.count_nonzero(A.dense()) == 2
