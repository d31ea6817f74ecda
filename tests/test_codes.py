"""Code constructors, metadata and serialization."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import process_caches
from chi2qec.codes import (
    build,
    build_bc,
    build_eecc,
    build_pcc,
    build_two_mode_bc,
    mean_photons_per_mode,
    mean_total_photons,
)
from chi2qec import cli, codes, fock
from chi2qec.bounds import code_rate
from chi2qec.errors import _xi_basis, kl_check, xi_set
from chi2qec.fock import StateVector, embed
from chi2qec.syndromes import IndefiniteParity, syndrome_table


@pytest.mark.parametrize(
    "builder,Ns",
    [
        (build_pcc, range(2, 7)),
        (build_eecc, range(2, 7)),
        (build_bc, range(1, 7)),
        (build_two_mode_bc, range(1, 7)),
    ],
)
def test_codewords_are_orthonormal(builder, Ns):
    for N in Ns:
        spec = builder(N)
        words = spec.block(spec.basis)
        G = words.conjugate().T @ words
        assert np.allclose(G, np.eye(len(spec.weights)), atol=1e-12)


def test_pcc_qubit_explicit_form():
    spec = build_pcc(2)
    s = 1 / math.sqrt(2)
    zero = dict(spec.logical_states[0].support())
    one = dict(spec.logical_states[1].support())
    assert zero[(1, 1, 0, 1, 1, 0)] == pytest.approx(s)
    assert zero[(0, 0, 1, 0, 0, 1)] == pytest.approx(s)
    assert one[(1, 1, 0, 0, 0, 1)] == pytest.approx(s)
    assert one[(0, 0, 1, 1, 1, 0)] == pytest.approx(s)


def test_pcc_qutrit_explicit_form():
    spec = build_pcc(3)
    s = 1 / math.sqrt(2)
    zero = dict(spec.logical_states[0].support())
    assert zero == {(1, 1, 1, 1, 1, 1): pytest.approx(1.0)}
    one = dict(spec.logical_states[1].support())
    assert one[(2, 2, 0, 2, 2, 0)] == pytest.approx(s)
    assert one[(0, 0, 2, 0, 0, 2)] == pytest.approx(s)
    two = dict(spec.logical_states[2].support())
    assert two[(2, 2, 0, 0, 0, 2)] == pytest.approx(s)
    assert two[(0, 0, 2, 2, 2, 0)] == pytest.approx(s)


def test_eecc_qubit_explicit_form():
    spec = build_eecc(2)
    s = 1 / math.sqrt(2)
    zero = dict(spec.logical_states[0].support())
    assert zero[(2, 2, 0)] == pytest.approx(s)
    assert zero[(0, 0, 2)] == pytest.approx(s)
    one = dict(spec.logical_states[1].support())
    assert one == {(1, 1, 1): pytest.approx(1.0)}


def test_bc_qubit_explicit_form():
    spec = build_bc(2)
    zero = dict(spec.logical_states[0].support())
    one = dict(spec.logical_states[1].support())
    assert zero[(0, 0, 3)] == pytest.approx(0.5)
    assert zero[(2, 2, 1)] == pytest.approx(math.sqrt(3) / 2)
    assert one[(1, 1, 2)] == pytest.approx(math.sqrt(3) / 2)
    assert one[(3, 3, 0)] == pytest.approx(0.5)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_bc_codewords_have_opposite_signal_parity(N):
    spec = build_bc(N)
    for parity, psi in enumerate(spec.logical_states):
        for ket, _ in psi.support():
            assert ket[0] % 2 == parity


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_two_mode_bc_kets_sum_to_2N_minus_1(N):
    spec = build_two_mode_bc(N)
    for psi in spec.logical_states:
        for ket, _ in psi.support():
            assert sum(ket) == 2 * N - 1


@pytest.mark.parametrize("builder", [build_pcc, build_eecc])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_per_mode_photon_numbers_identical_across_codewords(builder, N):
    spec = builder(N)
    means = mean_photons_per_mode(spec)
    assert all(row == means[0] for row in means)
    assert mean_total_photons(spec) == [spec.total_photons] * N


@pytest.mark.parametrize("N", [2, 3, 4])
def test_bc_mean_total_photons(N):
    spec = build_bc(N)
    assert spec.total_photons == Fraction(3 * (2 * N - 1), 2)
    assert mean_total_photons(spec) == [spec.total_photons] * 2


def test_bc_trivial_code_averages_over_codewords():
    # N=1 codewords are single kets with totals 1 and 2; only the average
    # equals 3/2.
    spec = build_bc(1)
    assert spec.total_photons == Fraction(3, 2)
    assert mean_total_photons(spec) == [1, 2]


# The closed forms as float expressions, written out term by term: the
# weights must reproduce these amplitudes bit for bit.
_S = 1 / math.sqrt(2.0)


def _pcc_closed_form(N):
    def mixed(x, y):
        return {x + y: _S, y + x: _S}

    def same(x, y):
        return {x + x: _S, y + y: _S}

    if N == 2:
        a, b = (1, 1, 0), (0, 0, 1)
        return [same(a, b), mixed(a, b)]
    out = []
    if N % 2 == 0:
        m = N // 2
        for k in range(m):
            a, b = (m + k, m + k, m - 1 - k), (m - 1 - k, m - 1 - k, m + k)
            out += [mixed(a, b), same(a, b)]
        return out
    m = (N - 1) // 2
    out.append({(m,) * 6: 1.0})
    for k in range(1, m + 1):
        a, b = (m + k, m + k, m - k), (m - k, m - k, m + k)
        out += [same(a, b), mixed(a, b)]
    return out


def _eecc_closed_form(N):
    M = 2 * N - 2
    return ([{(M - j, M - j, j): _S, (j, j, M - j): _S} for j in range(N - 1)]
            + [{(N - 1,) * 3: 1.0}])


def _bc_closed_form(N):
    M = 2 * N - 1
    return [{(p, p, M - p): math.sqrt(math.comb(M, p)) / 2 ** (N - 1)
             for p in range(parity, M + 1, 2)} for parity in (0, 1)]


def _two_mode_bc_closed_form(N):
    M = 2 * N - 1
    amp = {p: math.sqrt(math.comb(M, p)) / 2 ** (N - 1) for p in range(0, M + 1, 2)}
    return [{(p, M - p): a for p, a in amp.items()},
            {(M - p, p): a for p, a in amp.items()}]


FAMILIES = [
    (build_pcc, range(2, 13), _pcc_closed_form),
    (build_eecc, range(2, 13), _eecc_closed_form),
    (build_bc, range(1, 13), _bc_closed_form),
    (build_two_mode_bc, range(1, 13), _two_mode_bc_closed_form),
]


@pytest.mark.parametrize("builder,Ns,closed_form", FAMILIES)
def test_weights_sum_to_the_denominator(builder, Ns, closed_form):
    for N in Ns:
        spec = builder(N)
        assert len(spec.weights) == len(spec.logical_states)
        for word in spec.weights:
            assert all(isinstance(w, int) and w > 0 for w in word.values())
            assert sum(word.values()) == spec.denominator


@pytest.mark.parametrize("builder,Ns,closed_form", FAMILIES)
def test_amplitudes_equal_the_closed_forms_bit_for_bit(builder, Ns, closed_form):
    for N in Ns:
        spec = builder(N)
        for psi, terms in zip(spec.logical_states, closed_form(N), strict=True):
            assert dict(psi.support(0.0)).keys() == terms.keys()
            want = StateVector.from_terms(spec.basis, terms).amplitudes
            assert psi.amplitudes.tobytes() == want.tobytes()


def test_largest_bc_keeps_its_amplitudes_and_the_next_is_refused(monkeypatch):
    spec = build_bc(515)
    for psi, terms in zip(spec.logical_states, _bc_closed_form(515), strict=True):
        assert psi.amplitudes.tobytes() == StateVector.from_terms(
            spec.basis, terms).amplitudes.tobytes()
    with pytest.raises(ValueError, match="BC N=516: codeword weights are too large"):
        build_bc(516)

    # The two-mode code is refused before its million-ket basis is listed.
    def listed(layout):
        raise AssertionError("basis listed")

    monkeypatch.setattr(codes, "enumerate_truncated_space", listed)
    with pytest.raises(ValueError, match="BC2mode N=516: codeword weights"):
        build_two_mode_bc(516)


@pytest.mark.parametrize("builder,Ns,closed_form", FAMILIES)
def test_each_codeword_holds_the_total_photon_number(builder, Ns, closed_form):
    for N in Ns:
        spec = builder(N)
        means = mean_total_photons(spec)
        if spec.name == "BC" and N == 1:
            assert means == [1, 2]  # only their average is 3/2
        else:
            assert means == [spec.total_photons] * len(means)


def test_code_rates():
    def rate(spec):
        return code_rate(*(spec.parameters[x] for x in "nqbk"))

    assert rate(build_pcc(2)) == pytest.approx(0.5)
    assert rate(build_pcc(5)) == pytest.approx(0.5)
    assert rate(build_eecc(2)) == pytest.approx(1 / math.log2(3))
    assert rate(build_eecc(3)) == pytest.approx(math.log2(3) / math.log2(5))
    assert rate(build_bc(2)) == pytest.approx(0.5)
    assert rate(build_bc(3)) == pytest.approx(1 / math.log2(6))


def test_total_photons_are_exact_fractions():
    assert build_pcc(4).total_photons == 9
    assert build_eecc(4).total_photons == 9
    assert build_two_mode_bc(3).total_photons == 5


def test_json_round_trip():
    spec = build_eecc(2)
    doc = json.loads(spec.to_json())
    assert doc["name"] == "EECC"
    assert doc["parameters"] == {"N": 2, "n": 1, "q": 3, "b": 2, "k": 1}
    assert doc["total_photons"] == [3, 1]
    labels = {entry[0] for entry in doc["codewords"][0]}
    assert labels == {"2,2,0", "0,0,2"}


@pytest.mark.parametrize("N", [41, 45])
def test_json_lists_every_ket_of_every_codeword(N):
    # The end kets carry the BC's smallest amplitude, 2^(1-N), below 1e-12
    # from N=41 on; each codeword still lists all N of its kets, in basis order.
    spec = build_bc(N)
    doc = json.loads(spec.to_json())
    for entries, word in zip(doc["codewords"], spec.weights):
        assert [e[0] for e in entries] == [
            "%d,%d,%d" % ket for ket in sorted(word, key=spec.basis.index_of)]
        assert len(entries) == N
    assert doc["codewords"][0][0] == ["0,0,%d" % (2 * N - 1), 2.0 ** (1 - N), 0.0]


def test_build_catalog():
    assert build("PCC", 2).name == "PCC"
    assert build("bc2mode", 2).name == "BC2mode"
    with pytest.raises(KeyError):
        build("nope", 2)


@pytest.mark.parametrize("builder", [build_pcc, build_eecc])
def test_builders_reject_small_N(builder):
    with pytest.raises(ValueError):
        builder(1)
    with pytest.raises(ValueError):
        build_bc(0)
    with pytest.raises(ValueError):
        build_two_mode_bc(0)


@pytest.mark.parametrize("builder,Ns,closed_form", FAMILIES)
def test_block_places_the_closed_forms_bit_for_bit_on_the_xi2_basis(builder, Ns, closed_form):
    for N in range(Ns.start, 9):
        spec = builder(N)
        basis = _xi_basis(2, spec)
        want = np.column_stack([embed(StateVector.from_terms(spec.basis, terms), basis).amplitudes
                                for terms in closed_form(N)])
        block = spec.block(basis)
        assert np.array_equal(block, want) and block.tobytes() == want.tobytes()


def test_block_refuses_a_basis_missing_a_support_ket():
    spec = build_eecc(2)
    with pytest.raises(fock.MissingBasisState):
        spec.block(fock.BasisIndex([(0, 0, 2), (2, 2, 0)]))


@pytest.mark.parametrize("weight", [0, -1, 1.5, Fraction(1), True])
def test_a_weight_that_is_not_a_positive_int_is_refused(weight):
    spec = build_bc(2)
    with pytest.raises(ValueError, match="BC N=2: the weight of ket 0,0,3 is .*not a positive int"):
        dataclasses.replace(spec, weights=[{(0, 0, 3): weight, (2, 2, 1): 3}, spec.weights[1]])


def test_a_codeword_cannot_be_edited_in_place():
    spec = build_pcc(3)
    word = spec.weights[1]
    with pytest.raises(TypeError):
        word[(2, 2, 0, 2, 2, 0)] = 2
    with pytest.raises(TypeError):
        del word[next(iter(word))]
    with pytest.raises(TypeError):
        spec.weights[1] = {(2, 2, 0, 2, 2, 0): 2}
    assert not hasattr(word, "pop") and not hasattr(spec.weights, "append")
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.weights = [spec.weights[0], {(2, 2, 0, 2, 2, 0): 2}, spec.weights[2]]
    with pytest.raises(TypeError):
        spec.amplitudes[1][(2, 2, 0, 2, 2, 0)] = 1.0
    assert spec == build_pcc(3)


def test_replaced_weights_are_copied_and_frozen():
    spec = build_eecc(2)
    zero = {(2, 2, 0): 1, (0, 0, 2): 1}
    twin = dataclasses.replace(spec, weights=[zero, spec.weights[1]])
    assert twin == spec and type(twin.weights) is tuple
    zero[(2, 2, 0)] = 3  # the caller's dict is not the codeword
    assert twin.weights[0] == {(0, 0, 2): 1, (2, 2, 0): 1}
    with pytest.raises(TypeError):
        twin.weights[0][(2, 2, 0)] = 3
    assert twin.to_json() == spec.to_json()
    assert mean_total_photons(twin) == mean_total_photons(spec)


def test_build_lists_no_basis_and_builds_no_state(monkeypatch):
    process_caches.clear()  # so that each spec is built here
    built = []
    basis_init, state_post_init = fock.BasisIndex.__init__, fock.StateVector.__post_init__
    monkeypatch.setattr(fock.BasisIndex, "__init__",
                        lambda self, states: built.append("basis") or basis_init(self, states))
    monkeypatch.setattr(fock.StateVector, "__post_init__",
                        lambda self: built.append("state") or state_post_init(self))
    for name in ("pcc", "eecc", "bc", "bc2mode"):
        for N in range(2, 9):
            spec = build(name, N)
            spec.to_json()
    assert built == []
    assert spec.logical_states is spec.logical_states  # listed on first read, then cached
    assert built == ["basis", "state", "state"]


def test_a_weights_mutant_reaches_every_reader():
    spec = build_pcc(3)
    w0, _, w2 = spec.weights
    mutant = dataclasses.replace(spec, weights=[w0, {(2, 2, 0, 2, 2, 0): 2}, w2])
    assert json.loads(mutant.to_json())["codewords"][1] == [["2,2,0,2,2,0", 1.0, 0.0]]
    assert mean_total_photons(mutant) == [6, 8, 6]
    assert mutant.total_photons == Fraction(20, 3)
    assert mutant.logical_states[1].support() == [((2, 2, 0, 2, 2, 0), 1.0)]
    assert kl_check(spec, xi_set(1, spec)).verdict
    report = kl_check(mutant, xi_set(1, mutant))
    assert not report.verdict
    assert report.max_distortion_residual == pytest.approx(2 / 3)
    assert cli.synthesis_check(mutant) == {
        "name": "synthesis_pcc_N3", "passed": False,
        "detail": "V^(2) all groups does not fix codeword 1; dim 3 = L 3"}
    # Every H_2 x H_2 ket has the same p12 parities, so only a ket outside
    # it changes the syndrome table: |1,0,1> has odd n_s + n_i.
    assert len(syndrome_table(mutant)) == 12
    stray = dataclasses.replace(mutant, weights=[w0, {(2, 2, 0, 2, 2, 0): 1,
                                                      (1, 0, 1, 2, 2, 0): 1}, w2])
    with pytest.raises(IndefiniteParity, match="mixed values"):
        syndrome_table(stray)
