"""Parity measurement, syndrome tables, the seeded sampler and full recovery."""

import cmath
import dataclasses
import math
import random
import re
import struct

import numpy as np
import pytest

import process_caches
from chi2qec.cli import expected_syndrome_rows, main
from chi2qec.codes import build_bc, build_eecc, build_pcc
from chi2qec.errors import (
    compositions,
    enclosing_basis,
    monomial_factors,
    monomial_label,
    monomial_shift,
)
from chi2qec.fock import (
    DimensionMismatch,
    enumerate_truncated_space,
    ladder,
    monomial_operator,
    three_mode_layout,
    unit_shifts,
)
from chi2qec.syndromes import (
    _RESTORATION_MAPS,
    _SEQUENCES,
    IndefiniteParity,
    SyndromeRecord,
    _parity,
    _pipeline,
    complex_normals,
    full_recovery,
    p12_scheme,
    p3_scheme,
    p_bc_scheme,
    random_logical_coefficients,
    random_logical_states,
    syndrome_table,
    to_csv,
)


def test_measure_parity_definite():
    assert _parity([(2, 2, 0), (0, 0, 2)], p3_scheme()) == (0, 0, 0)


def test_measure_parity_indefinite_raises():
    # All H_2 kets share even pairwise sums, so mix in a ket from the
    # enclosing truncated space with odd n_s + n_i.
    with pytest.raises(IndefiniteParity):
        _parity([(0, 0, 2), (1, 0, 1)], p3_scheme())


def test_measure_parity_rejects_empty_state():
    with pytest.raises(ValueError):
        _parity([], p3_scheme())


def test_parity_scheme_rejects_bad_modulus():
    from chi2qec.syndromes import ParityScheme

    with pytest.raises(ValueError):
        ParityScheme("bad", ((((0, 1),), 1),))


def test_pcc_table_has_12_distinct_rows():
    table = syndrome_table(build_pcc(3))
    assert len(table) == 12
    pairs = [(r.p, r.q) for r in table]
    assert len(set(pairs)) == 12
    rows = {r.error_label: (r.p, r.q) for r in table}
    assert rows["a_s1"] == ((1, 1, 0, 0, 0, 0), (2, 0))
    assert rows["adag_p2"] == ((0, 0, 0, 0, 1, 1), (0, 1))


def test_eecc_table_has_6_distinct_rows():
    table = syndrome_table(build_eecc(2))
    assert len(table) == 6
    pairs = [(r.p, r.q) for r in table]
    assert len(set(pairs)) == 6
    rows = {r.error_label: (r.p, r.q) for r in table}
    assert rows["a_s"] == ((1, 1, 0), (2,))
    assert rows["a_i"] == ((1, 0, 1), (2,))
    assert rows["adag_p"] == ((0, 1, 1), (1,))


def test_bc_table_net_change_parities():
    N = 2
    table = syndrome_table(build_bc(N), monitored_order=1)
    assert len(table) == 6
    for r in table:
        if r.error_label.startswith("adag"):
            assert r.q == (1 % (6 * N - 3),)
        else:
            assert r.q == (-1 % (6 * N - 3),)
    rows = {r.error_label: r.p for r in table}
    # a_s shifts n_s by -1: components (n_s-n_i, n_s+n_p, n_i+n_p) mod 3.
    assert rows["a_s"] == (2, 2, 0)
    assert rows["a_p"] == (0, 2, 2)


@pytest.mark.parametrize("N", range(2, 9))
@pytest.mark.parametrize("builder,groups", [(build_pcc, 2), (build_eecc, 1)])
def test_pcc_and_eecc_tables_over_N(builder, groups, N):
    # The flips land on the codewords' own parities: a PCC group's kets are
    # |n,n,N-1-n>, so (s+i, s+p, i+p) mod 2 is (0, N-1, N-1); the EECC's
    # are |n,n,2N-2-n>, all even.
    base = (0, (N - 1) % 2, (N - 1) % 2) * 2 if builder is build_pcc else (0, 0, 0)
    expected = [(label, tuple(f ^ b for f, b in zip(p, base)), q)
                for label, p, q in expected_syndrome_rows(groups)]
    table = syndrome_table(builder(N))
    assert [(r.error_label, r.p, r.q) for r in table] == expected


@pytest.mark.parametrize("N", range(2, 13))
def test_bc_tables_over_N(N):
    table = syndrome_table(build_bc(N))
    modulus = 6 * N - 3
    # Orders 1..N in turn, each its (m+1)(m+2)/2 losses, then as many gains.
    assert [r.q for r in table] == [
        (sign * m % modulus,) for m in range(1, N + 1) for sign in (-1, 1)
        for _ in range((m + 1) * (m + 2) // 2)
    ]
    for r in table:
        (q,) = r.q
        m = min(q, modulus - q)
        powers = [int(t.split("^")[1]) if "^" in t else 1 for t in r.error_label.split()]
        assert sum(powers) == m
        assert r.error_label.startswith("adag_") == (q == m)
    assert len({(r.p, r.q) for r in table}) == len(table)


def _reference_syndrome_rows(code):
    """(label, p) of each row the operator way: the row's monomial on the
    codewords' enclosing basis, applied to the codeword block, and the
    parity of the support kets of each nonzero normalized image."""
    if code.name == "BC":
        N = code.parameters["N"]
        scheme = p_bc_scheme(N)
        errors = [(kind, exps) for m in range(1, N + 1)
                  for kind in ("loss", "gain") for exps in compositions(m, 3)]
    else:
        scheme = p12_scheme() if code.name == "PCC" else p3_scheme()
        errors = [(kind, exps) for kind in ("loss", "gain")
                  for exps in unit_shifts(code.layout.n_modes, 1)]
    rows = []
    for kind, exps in errors:
        basis = enclosing_basis(code, [monomial_shift(exps, kind)])
        op = monomial_operator(monomial_factors(exps, kind), basis)
        values = set()
        for image in op.apply(code.block(basis)).T:
            norm = np.linalg.norm(image)
            if norm > 1e-12:
                kets = [basis.states[j] for j in np.flatnonzero(np.abs(image / norm) > 1e-12)]
                values.add(_parity(kets, scheme))
        assert len(values) == 1
        rows.append((monomial_label(code.layout, exps, kind), values.pop()))
    return rows


@pytest.mark.parametrize("builder,Ns", [
    (build_pcc, range(2, 7)), (build_eecc, range(2, 7)), (build_bc, range(2, 9)),
], ids=["pcc", "eecc", "bc"])
def test_syndrome_tables_match_operator_reference(builder, Ns):
    for N in Ns:
        code = builder(N)
        table = syndrome_table(code)
        assert [(r.error_label, r.p) for r in table] == _reference_syndrome_rows(code)


def _per_ket_syndrome_rows(code, order=None):
    """(label, p) of each row read ket by ket: every codeword's support kets
    moved by the row's shift, annihilated kets dropped, and `_parity` of the
    kets left."""
    if code.name == "BC":
        N = code.parameters["N"]
        scheme = p_bc_scheme(N)
        errors = [(kind, exps) for m in ([order] if order else range(1, N + 1))
                  for kind in ("loss", "gain") for exps in compositions(m, 3)]
    else:
        scheme = p12_scheme() if code.name == "PCC" else p3_scheme()
        errors = [(kind, exps) for kind in ("loss", "gain")
                  for exps in unit_shifts(code.layout.n_modes, 1)]
    rows = []
    for kind, exps in errors:
        shift = monomial_shift(exps, kind)
        values = set()
        for word in code.weights:
            moved = [tuple(n + d for n, d in zip(ket, shift)) for ket in word]
            kets = [ket for ket in moved if min(ket) >= 0]
            if kets:
                values.add(_parity(kets, scheme))
        assert len(values) == 1
        rows.append((monomial_label(code.layout, exps, kind), values.pop()))
    return rows


@pytest.mark.parametrize("builder,Ns", [
    (build_pcc, range(2, 7)), (build_eecc, range(2, 9)), (build_bc, range(2, 11)),
], ids=["pcc", "eecc", "bc"])
def test_array_syndrome_tables_match_the_per_ket_reference(builder, Ns):
    for N in Ns:
        code = builder(N)
        orders = [None] + (list(range(1, N + 1)) if code.name == "BC" else [])
        for order in orders:
            table = syndrome_table(code, order)
            assert [(r.error_label, r.p) for r in table] == _per_ket_syndrome_rows(code, order)
            assert all(type(v) is int for r in table for v in r.p)


def _eecc_with_words(*terms):
    """EECC N=2 with hand-made codewords on kets outside H_2, where the p3
    components need not be definite."""
    words = [{ket: 1 for ket in kets} for kets in terms]
    return dataclasses.replace(build_eecc(2), weights=words, denominator=1)


def test_syndrome_row_with_a_mixed_component_on_a_codeword_raises():
    # a_s moves |1,1,0> and |1,0,1> to |0,1,0> and |0,0,1>: n_s + n_i is 1
    # on one and 0 on the other.
    code = _eecc_with_words([(1, 1, 0), (1, 0, 1)])
    with pytest.raises(IndefiniteParity,
                       match=r"component \(\(0, 1\), \(1, 1\)\) of p3 has mixed values \[0, 1\]"):
        syndrome_table(code)


def test_syndrome_row_whose_codewords_disagree_raises():
    # a_s moves |1,1,0> to |0,1,0>, p3 (1, 0, 1), and |2,1,1> to |1,1,1>,
    # p3 (0, 0, 0); each codeword is definite, but they disagree.
    code = _eecc_with_words([(1, 1, 0)], [(2, 1, 1)])
    with pytest.raises(IndefiniteParity,
                       match=r"codewords disagree on p3: \[\(0, 0, 0\), \(1, 0, 1\)\]"):
        syndrome_table(code)


def test_syndrome_row_with_every_codeword_annihilated_raises():
    # a_s annihilates |0,0,2>, so its row has no image kets to read.
    eecc = dataclasses.replace(build_eecc(2), weights=[{(0, 0, 2): 1}], denominator=1)
    with pytest.raises(IndefiniteParity, match="a_s annihilates every codeword"):
        syndrome_table(eecc)


def test_syndrome_table_reads_every_nonzero_amplitude():
    # a_s annihilates |0,0,2> but not the tiny |2,2,0> term, whose image
    # carries every row's parity.
    big = 10 ** 26
    eecc = dataclasses.replace(build_eecc(2), weights=[{(0, 0, 2): big, (2, 2, 0): 1}],
                               denominator=big + 1)
    assert 0 < eecc.amplitudes[0][(2, 2, 0)] < 1.1e-13
    rows = syndrome_table(eecc)
    assert len(rows) == 6


def test_restoration_ket_map_is_a_weighted_partial_isometry():
    # EECC a_s: |2,2,0> loses a signal photon with coefficient sqrt(2) and
    # is restored to |0,0,2>; |1,1,1> goes to |2,2,0>; |0,0,2> has none.
    spec = build_eecc(2)
    restore, gates = _pipeline(spec, "a_s")
    index = spec.basis.index_of
    R = restore.dense()
    assert R[index((0, 0, 2)), index((2, 2, 0))] == math.sqrt(2)
    assert R[index((2, 2, 0)), index((1, 1, 1))] == 1.0
    assert not R[:, index((0, 0, 2))].any()
    # R^dag R is diagonal, the lowered mode's occupation on each ket.
    assert np.allclose(R.conjugate().T @ R, np.diag(spec.basis.occupations[:, 0]), rtol=0, atol=1e-15)
    assert len(gates) == 2


@pytest.mark.parametrize(
    "builder,N,labels",
    [(build_pcc, 3, ("a_s1", "a_p1")), (build_eecc, 2, ("a_s", "a_p"))],
)
def test_full_recovery_unit_fidelity(builder, N, labels):
    spec = builder(N)
    rng = random.Random(5)
    for label in labels:
        for _ in range(10):
            psi = random_logical_states(spec, rng, 1)
            out, fid = full_recovery(spec, label, psi)
            assert fid[0] == pytest.approx(1.0, abs=1e-10)
            overlap = abs(np.vdot(psi[:, 0], out[:, 0]))
            assert overlap == pytest.approx(1.0, abs=1e-10)


def test_full_recovery_identity_case_and_errors():
    spec = build_eecc(2)
    psi = spec.block(spec.basis)[:, :1]
    out, fid = full_recovery(spec, "none", psi)
    assert fid[0] == 1.0
    with pytest.raises(ValueError, match="expected a_s, a_p or none"):
        full_recovery(spec, "a_i", psi)
    bc = build_bc(2)
    with pytest.raises(ValueError):
        full_recovery(bc, "a_s", bc.block(bc.basis)[:, :1])


def test_random_logical_state_is_normalized():
    spec = build_pcc(3)
    rng = random.Random(0)
    psi = random_logical_states(spec, rng, 1)
    assert psi.shape == (spec.basis.dimension, 1)
    assert np.linalg.norm(psi[:, 0]) == pytest.approx(1.0)


def test_same_seed_same_block_and_other_seeds_other_blocks():
    block = random_logical_coefficients(random.Random(2026), 3, 100)
    again = random_logical_coefficients(random.Random(2026), 3, 100)
    assert block.shape == (3, 100)
    assert block.tobytes() == again.tobytes()
    for seed in (0, 1, 2027, 2**70):
        other = random_logical_coefficients(random.Random(seed), 3, 100)
        assert not np.any(np.isclose(other, block))


def test_a_block_is_the_columns_of_one_column_draws_in_turn():
    batch_rng, loop_rng = random.Random(9), random.Random(9)
    block = complex_normals(batch_rng, 4, 25)
    loop = np.column_stack([complex_normals(loop_rng, 4, 1) for _ in range(25)])
    assert block.tobytes() == loop.tobytes()
    assert batch_rng.getstate() == loop_rng.getstate()


@pytest.mark.parametrize("L", [1, 2, 3, 8])
def test_every_column_has_unit_norm(L):
    coeffs = random_logical_coefficients(random.Random(L), L, 500)
    assert np.max(np.abs(np.linalg.norm(coeffs, axis=0) - 1)) <= 1e-15


def test_complex_normals_have_unit_mean_modulus_squared_and_uniform_phases():
    n = 10**5
    z = complex_normals(random.Random(2026), 1, n)[0]
    # |z|^2 is exponential with mean 1 and variance 1.
    assert abs(np.mean(np.abs(z) ** 2) - 1) <= 5 / math.sqrt(n)
    # Each of 16 equal phase sectors holds n/16 draws, within 5 sigma.
    sector = np.floor(np.angle(z) / (2 * np.pi) * 16).astype(int) % 16
    counts = np.bincount(sector, minlength=16)
    p = 1 / 16
    assert np.max(np.abs(counts - n * p)) <= 5 * math.sqrt(n * p * (1 - p))
    # cos and sin of a uniform phase have mean 0 and variance 1/2.
    phase = z / np.abs(z)
    assert abs(phase.mean().real) <= 5 / math.sqrt(2 * n)
    assert abs(phase.mean().imag) <= 5 / math.sqrt(2 * n)


# Per-state reference: the recovery loop as it ran one trial at a time.


def _reference_random_logical_state(code, rng):
    """One trial from the next 16 L bytes of the stream: L uniforms u, then
    L uniforms v, each the top 53 bits of a little-endian 64-bit word plus
    one, over 2^53; amplitude sqrt(-ln u) e^{2 pi i v}, then normalized."""
    L = len(code.weights)
    words = struct.unpack("<%dQ" % (2 * L), rng.randbytes(16 * L))
    uniforms = [((w >> 11) + 1) / 2**53 for w in words]
    coeffs = np.array([math.sqrt(-math.log(u)) * cmath.exp(2j * math.pi * v)
                       for u, v in zip(uniforms[:L], uniforms[L:])])
    coeffs /= np.linalg.norm(coeffs)
    codewords = code.block(code.basis).T
    return sum(c * w for c, w in zip(coeffs, codewords))


def _reference_full_recovery(code, error_label, state):
    """One state's pipeline with dense matrices on the capped product space:
    the detected loss lowers the signal (a_s*) or the pump (a_p*) of group
    1, the per-qutrit map of that mode restores it, and the published gates
    follow."""
    mode, case = (0, "signal_loss") if error_label.startswith("a_s") else (2, "pump_loss")
    big = enumerate_truncated_space(three_mode_layout(2, groups=code.layout.n_groups))
    rows = [big.index_of(s) for s in code.basis.states]
    embedded = np.zeros(big.dimension, dtype=complex)
    embedded[rows] = state
    corrupted = ladder(mode, "lower", big).dense() @ embedded
    corrupted /= np.linalg.norm(corrupted)
    out = (_reference_restoration(_RESTORATION_MAPS[case], big) @ corrupted)[rows]
    for U in _SEQUENCES[code.name, code.parameters["N"]][error_label]():
        out = U @ out
    return out, float(abs(np.vdot(state, out)))


# Per-qutrit maps of each published restoration circuit, keyed by pipeline
# and lowered mode: (code builder, N, detected loss, lowered mode, map).
_PUBLISHED_RESTORATIONS = {
    "pcc_signal_loss": (build_pcc, 3, "a_s1", 0, {(1, 2, 0): (0, 0, 2), (0, 1, 1): (2, 2, 0)}),
    "pcc_pump_loss": (build_pcc, 3, "a_p1", 2, {(0, 0, 1): (0, 0, 2), (1, 1, 0): (2, 2, 0)}),
    "eecc_signal_loss": (build_eecc, 2, "a_s", 0, {(1, 2, 0): (0, 0, 2), (0, 1, 1): (2, 2, 0)}),
    "eecc_pump_loss": (build_eecc, 2, "a_p", 2, {(0, 0, 1): (0, 0, 2), (1, 1, 0): (2, 2, 0)}),
}


def _reference_restoration(mapping, basis):
    mat = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for src, dst in mapping.items():
        for j, st in enumerate(basis.states):
            if st[:3] == src:
                mat[basis.index_of(dst + st[3:]), j] = 1.0
    return mat


@pytest.mark.parametrize("case", sorted(_PUBLISHED_RESTORATIONS))
def test_each_pipeline_restores_by_the_published_map(case):
    # The pipeline's ket map on the code basis is the published circuit's
    # map after the loss, both read on the capped product space.
    builder, N, label, mode, mapping = _PUBLISHED_RESTORATIONS[case]
    spec = builder(N)
    big = enumerate_truncated_space(three_mode_layout(2, groups=spec.layout.n_groups))
    rows = [big.index_of(s) for s in spec.basis.states]
    want = _reference_restoration(mapping, big) @ ladder(mode, "lower", big).dense()
    assert np.array_equal(_pipeline(spec, label)[0].dense(), want[np.ix_(rows, rows)])


@pytest.mark.parametrize(
    "builder,N,labels",
    [(build_pcc, 3, ("a_s1", "a_p1")), (build_eecc, 2, ("a_s", "a_p"))],
)
def test_batched_recovery_matches_per_state_loop(builder, N, labels):
    spec = builder(N)
    trials = 25
    batch_rng = random.Random(17)
    loop_rng = random.Random(17)
    # Off-code columns lose different norms to the error, so they check
    # that every column is normalized on its own.
    off_code = np.random.default_rng(4).normal(size=(2, spec.basis.dimension, 5))
    off_code = off_code[0] + 1j * off_code[1]
    for label in labels:
        logical = random_logical_states(spec, batch_rng, trials)
        states = [_reference_random_logical_state(spec, loop_rng) for _ in range(trials)]
        for t, psi in enumerate(states):
            assert np.max(np.abs(logical[:, t] - psi)) <= 1e-12
        states += list(off_code.T)
        block = np.column_stack([logical, off_code])
        out, fids = full_recovery(spec, label, block)
        assert out.shape == block.shape and fids.shape == (trials + 5,)
        for t, psi in enumerate(states):
            want_out, want_fid = _reference_full_recovery(spec, label, psi)
            assert np.max(np.abs(out[:, t] - want_out)) <= 1e-12
            assert abs(fids[t] - want_fid) <= 1e-12
    # Both paths consumed the same draws.
    assert batch_rng.getstate() == loop_rng.getstate()


def test_a_restoration_missing_an_entry_fails_recovery_without_raising(monkeypatch, capsys):
    # Without |0,1,1> -> |2,2,0>, EECC a_s restores only the |0~> part of
    # the loss image, whose norm still counts the |1~> part: every trial
    # loses fidelity, and the job reports FAIL instead of raising.
    signal_loss = dict(_RESTORATION_MAPS["signal_loss"])
    del signal_loss[(0, 1, 1)]
    monkeypatch.setitem(_RESTORATION_MAPS, "signal_loss", signal_loss)
    process_caches.clear()  # a shared pipeline was built from the full map
    try:
        status = main(["--format", "text", "recover", "eecc", "--N", "2", "--error", "a_s"])
    finally:
        process_caches.clear()
    row = capsys.readouterr().out.splitlines()[0]
    assert status == 1 and row.startswith("recover_EECC_N2_a_s") and " FAIL " in row
    assert float(re.search(r"min fidelity (\S+)", row).group(1)) < 1


def test_full_recovery_rejects_annihilated_column_and_bad_shape():
    spec = build_eecc(2)
    assert spec.basis.states[0] == (0, 0, 2)  # no signal photon to lose
    rng = random.Random(3)
    block = np.column_stack(
        [random_logical_states(spec, rng, 1)[:, 0], np.eye(spec.basis.dimension)[:, 0]]
    )
    with pytest.raises(ValueError):
        full_recovery(spec, "a_s", block)
    full_recovery(spec, "a_s", block[:, :1])  # the other column alone recovers
    with pytest.raises(DimensionMismatch):
        full_recovery(spec, "a_s", block[:, 0])


def test_to_csv_layout():
    records = [SyndromeRecord("a_s", (1, 1, 0), (2,))]
    assert to_csv(records) == "error_label,p,q\na_s,1 1 0,2\n"
