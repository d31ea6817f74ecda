"""Parity-vector schemes, syndrome tables and recovery pipelines.

A parity scheme is a list of components; each component is a signed sum of
mode occupations reduced by a modulus.  Signed coefficients are needed
because the binomial code's first component is n_s - n_i.

Syndrome tables build no operators: a loss or gain monomial moves each
support ket of a codeword by one fixed photon-number shift, so a row's
parities are read off the codewords' shifted support kets.

The generalized parity of the binomial code is recorded as the net
total-photon-number *change* modulo 6N-3 (-m for an m-loss, +m for an
m-gain): the absolute total is not ket-definite on the binomial codewords
(branch totals 2j + 2N-1 vary with j), while the change is, and it is
exactly the loss-versus-gain discriminator the table needs.

A recovery pipeline acts on the code basis alone: the detected loss and its
restoration are one weighted ket map from code kets to code kets, and the
published gate matrices follow it; no enlarged basis is listed.
"""

from dataclasses import dataclass
import io
import math
import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .codes import CodeSpec
from .errors import compositions, monomial_label, monomial_shift
from .fock import _check_size, DimensionMismatch, LinearOperator, shared, unit_shifts
from .gates import (
    cnot2_21,
    cnot2p_12,
    cnot2pp_12,
    evolve,
    lambda21_h,
    lambda21_h_bar,
)


class IndefiniteParity(ValueError):
    """Support kets disagree on a parity component — the state is not in a
    single syndrome sector."""


@dataclass(frozen=True)
class ParityScheme:
    name: str
    components: Tuple[Tuple[Tuple[Tuple[int, int], ...], int], ...]
    # components: ((mode, coefficient), ...), modulus

    def __post_init__(self):
        for terms, modulus in self.components:
            if modulus < 2:
                raise ValueError("modulus must be >= 2")


@dataclass
class SyndromeRecord:
    error_label: str
    p: Tuple[int, ...]
    q: Tuple[int, ...]


def _pair_scheme(name, pairs, modulus):
    return ParityScheme(
        name, tuple((tuple(terms), modulus) for terms in pairs)
    )


def p3_scheme() -> ParityScheme:
    return _pair_scheme("p3", [((0, 1), (1, 1)), ((0, 1), (2, 1)), ((1, 1), (2, 1))], 2)


def p12_scheme() -> ParityScheme:
    pairs = []
    for base in (0, 3):
        s, i, p = base, base + 1, base + 2
        pairs += [((s, 1), (i, 1)), ((s, 1), (p, 1)), ((i, 1), (p, 1))]
    return _pair_scheme("p12", pairs, 2)


def p_bc_scheme(N: int) -> ParityScheme:
    return _pair_scheme(
        "pBC", [((0, 1), (1, -1)), ((0, 1), (2, 1)), ((1, 1), (2, 1))], 2 * N - 1
    )


def _parity(kets, scheme: ParityScheme) -> Tuple[int, ...]:
    """Common modular value of each component over `kets`."""
    if not kets:
        raise ValueError("empty state")
    out = []
    for terms, modulus in scheme.components:
        values = {
            sum(coeff * ket[mode] for mode, coeff in terms) % modulus
            for ket in kets
        }
        if len(values) != 1:
            raise IndefiniteParity(
                "component %r of %s has mixed values %r"
                % (terms, scheme.name, sorted(values))
            )
        out.append(values.pop())
    return tuple(out)


def syndrome_table(code: CodeSpec, monitored_order: Optional[int] = None) -> List[SyndromeRecord]:
    """Parities of each declared single error's image of every codeword.

    A loss or gain monomial moves every support ket it does not annihilate
    by one fixed shift (a loss keeps a ket only if no occupation drops
    below zero; a gain keeps every ket).  The shift is injective, so the
    moved kets are exactly the image's support and the parities are read
    off them directly.  A codeword the error annihilates is skipped.

    PCC: 12 rows (single loss + single gain on 6 modes) with (p12, net
    change mod 3).  EECC: 6 rows with (p3, net change mod 3).  BC: loss and
    gain monomials of each order m in 1..N (default: all) with (pBC, qBC).
    A table whose (cases, support kets, modes) array of moved kets would
    exceed the size limit is refused before the cases are listed.
    """
    if code.name in ("PCC", "EECC"):
        if monitored_order is not None:
            raise ValueError("the %s syndrome table has no monitored order" % code.name)
        # p is measured on the error images; the generalized parity q is the
        # net photon-number change per group mod 3 (a single ladder operator
        # shifts every ket's group total by exactly +-1, while the absolute
        # group totals are not ket-definite on these codewords).
        layout = code.layout
        scheme = p12_scheme() if code.name == "PCC" else p3_scheme()
        cases = [(kind, unit, tuple(delta % 3 * (g == group)
                                    for g in range(1, layout.n_groups + 1)))
                 for kind, delta in (("loss", -1), ("gain", 1))
                 for unit, (_, group) in zip(unit_shifts(layout.n_modes, 1), layout.modes)]
        n_cases = len(cases)
    elif code.name == "BC":
        N = code.parameters["N"]
        if N < 2:
            raise ValueError("BC N=%d has no syndrome table: its pBC modulus "
                             "2N-1 = %d is below 2" % (N, 2 * N - 1))
        if monitored_order is None:
            orders = range(1, N + 1)
        elif 1 <= monitored_order <= N:
            orders = [monitored_order]
        else:
            raise ValueError("BC N=%d monitors orders 1..%d, got %d"
                             % (N, N, monitored_order))
        scheme = p_bc_scheme(N)
        # Listed only after the size check below.
        cases = ((kind, exps, (sign * m % (6 * N - 3),))
                 for m in orders
                 for kind, sign in (("loss", -1), ("gain", 1))
                 for exps in compositions(m, 3))
        n_cases = 2 * sum(math.comb(m + 2, 2) for m in orders)
    else:
        raise ValueError("no syndrome table for code %r" % code.name)
    kets = sum(map(len, code.weights))
    entries = n_cases * kets * code.layout.n_modes
    _check_size(entries, "the %s N=%d syndrome table of %d errors on %d support kets would "
                "stack %d entries" % (code.name, code.parameters["N"], n_cases, kets, entries))
    cases = list(cases)
    # Every codeword's support kets moved by every case's shift, as one
    # (cases, kets, modes) array read by one integer matmul; a row is sound
    # when some kets stay alive and agree on each component (min == max).
    supports = [np.array(sorted(w), dtype=np.int64).reshape(len(w), -1) for w in code.weights]
    moved = np.concatenate(supports) + np.array([monomial_shift(e, kind) for kind, e, _ in cases])[:, None]
    coeffs = np.array([[sum(c for m, c in terms if m == mode) for terms, _ in scheme.components]
                       for mode in range(moved.shape[2])])
    moduli = np.array([modulus for _, modulus in scheme.components])
    alive = np.all(moved >= 0, axis=2)[:, :, None]
    values = moved @ coeffs % moduli
    low = np.where(alive, values, moduli.max()).min(axis=1, initial=moduli.max())
    high = np.where(alive, values, -1).max(axis=1, initial=-1)
    unsound = np.flatnonzero(np.any(low != high, axis=1))
    if unsound.size:  # the per-ket reader names why the first such row fails
        kind, exps, _ = cases[unsound[0]]
        images = np.split(moved[unsound[0]], np.cumsum([len(k) for k in supports])[:-1])
        parities = {_parity(kets, scheme) for kets in
                    ([k for k in image.tolist() if min(k) >= 0] for image in images) if kets}
        if not parities:
            raise IndefiniteParity("%s annihilates every codeword: no image kets to read %s from"
                                   % (monomial_label(code.layout, exps, kind), scheme.name))
        raise IndefiniteParity("codewords disagree on %s: %r" % (scheme.name, sorted(parities)))
    return [SyndromeRecord(monomial_label(code.layout, exps, kind), tuple(p), q)
            for (kind, exps, q), p in zip(cases, low.tolist())]


# ---------------------------------------------------------------------------
# Full recovery pipelines.

_RESTORATION_MAPS = {
    # Per-qutrit basis-state maps realized by the restoration circuits, one
    # per lowered mode; the PCC and EECC pipelines share them.
    "signal_loss": {(1, 2, 0): (0, 0, 2), (0, 1, 1): (2, 2, 0)},
    "pump_loss": {(0, 0, 1): (0, 0, 2), (1, 1, 0): (2, 2, 0)},
}


def _eecc_recovery_gates() -> List[np.ndarray]:
    """Generator-built gates completing the embedded-qubit recovery:
    e^{-i pi G5/6} then e^{i pi G7/3} (the printed sign on the first
    exponent maps beta |220> to -beta |111>; the oracle-selected sign is
    implemented)."""
    return [evolve([(5, -np.pi / 6)]), evolve([(7, np.pi / 3)])]


# The gate sequences of each code with a published pipeline, by (name, N)
# and detected loss.
_SEQUENCES = {
    ("PCC", 3): {
        "a_s1": lambda: [cnot2_21(), lambda21_h(), lambda21_h_bar(), cnot2p_12()],
        "a_p1": lambda: [lambda21_h(), lambda21_h_bar(), cnot2_21(), cnot2pp_12()],
    },
    ("EECC", 2): {"a_s": _eecc_recovery_gates, "a_p": _eecc_recovery_gates},
}


def check_recovery(code: CodeSpec, error_label: str) -> None:
    """Raise ValueError for a code without a published pipeline or an
    error label it has none for; "none" is every such code's identity
    case.  Reads neither the basis nor a pipeline."""
    sequences = _SEQUENCES.get((code.name, code.parameters["N"]))
    if sequences is None:
        raise ValueError("full_recovery supports qutrit PCC and qubit EECC")
    if error_label != "none" and error_label not in sequences:
        raise ValueError("unsupported %s error %r: expected %s or none"
                         % (code.name, error_label, ", ".join(sequences)))


@shared
def _pipeline(code: CodeSpec, error_label: str) -> Tuple[LinearOperator, Tuple[np.ndarray, ...]]:
    """The published pipeline for one detected loss as the frozen pair
    (loss and restoration, gate matrices), shared per code value and label.

    The first is a weighted ket map on the code basis: code ket j goes to
    the code ket that its lowered ket is restored to, with the loss
    coefficient sqrt(n) of the lowered mode.  Its coefficients hold every
    ket's loss coefficient, also on a column left empty because no
    restoration takes its lowered ket, so the loss image's norm reads them.
    """
    mode, case = (0, "signal_loss") if error_label.startswith("a_s") else (2, "pump_loss")
    mapping, basis = _RESTORATION_MAPS[case], code.basis
    rows = []
    for ket in basis.states:
        lowered = ket[:mode] + (ket[mode] - 1,) + ket[mode + 1:]
        restored = mapping.get(lowered[:3])
        rows.append(-1 if restored is None else basis.index_of(restored + lowered[3:]))
    gates = tuple(_SEQUENCES[code.name, code.parameters["N"]][error_label]())
    for U in gates:
        U.flags.writeable = False
    return LinearOperator(basis, rows, np.sqrt(basis.occupations[:, mode])), gates


def full_recovery(code: CodeSpec, error_label: str, states: np.ndarray):
    """Apply the detected loss, its restoration and the published gate
    sequence to every column of a (code.basis.dimension, T) block of states.

    Each column is normalized by the norm of its loss image, taken before
    restoration, so weight that no restoration takes back is lost, not
    renormalized away.  Returns (output block on the code basis, the T
    fidelities |<psi_t|out_t>|).
    """
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2 or states.shape[0] != code.basis.dimension:
        raise DimensionMismatch(
            "state block shape %r needs %d rows" % (states.shape, code.basis.dimension)
        )
    check_recovery(code, error_label)
    if error_label == "none":
        return states, np.ones(states.shape[1])
    restore, gates = _pipeline(code, error_label)
    norms = np.linalg.norm(restore.coeffs[:, None] * states, axis=0)
    if np.any(norms == 0):
        raise ValueError("the error annihilates a state of the block")
    out = restore.apply(states) / norms
    for U in gates:
        out = U @ out
    fidelities = np.abs(np.sum(states.conjugate() * out, axis=0))
    return out, fidelities


def complex_normals(rng: random.Random, L: int, count: int) -> np.ndarray:
    """L x count block of standard complex normals (mean |z|^2 = 1).

    One randbytes call gives two 53-bit uniforms u, v in (0, 1] per value,
    and z = sqrt(-ln u) e^{2 pi i v}.  Column t reads bytes [16Lt, 16L(t+1))
    of the stream, its L u's then its L v's, so a block is the columns that
    one-column calls would draw in turn.
    """
    bits = np.frombuffer(rng.randbytes(16 * L * count), "<u8") >> np.uint64(11)
    u, v = ((bits.reshape(count, 2, L) + 1.0) * 2.0 ** -53).transpose(1, 2, 0)
    return np.sqrt(-np.log(u)) * np.exp(2j * np.pi * v)


def random_logical_coefficients(rng: random.Random, L: int, count: int) -> np.ndarray:
    """L x count block of normalized complex logical amplitudes: the
    columns of `complex_normals` over their norms."""
    coeffs = complex_normals(rng, L, count)
    return coeffs / np.linalg.norm(coeffs, axis=0)


def random_logical_states(code: CodeSpec, rng: random.Random, count: int) -> np.ndarray:
    """(code.basis.dimension, count) block of seeded random logical states."""
    coeffs = random_logical_coefficients(rng, len(code.weights), count)
    return code.block(code.basis) @ coeffs


def to_csv(records: Sequence[SyndromeRecord]) -> str:
    """CSV with columns error_label, p, q (vectors space-separated)."""
    buf = io.StringIO()
    buf.write("error_label,p,q\n")
    for r in records:
        buf.write(
            "%s,%s,%s\n"
            % (r.error_label, " ".join(map(str, r.p)), " ".join(map(str, r.q)))
        )
    return buf.getvalue()
