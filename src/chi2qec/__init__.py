"""Verification suite for three-wave-mixing bosonic error-correcting codes.

Subpackages: fock (Fock bases and operator algebra on any basis),
symmetry (symmetry operators and eigenspace synthesis), codes (code
constructors), errors (error families and Knill-Laflamme checks),
syndromes (parity measurement and recovery), gates (logical-gate
decompositions), bounds (quantum Hamming bounds), cli (command-line
front end), schema (run-time check of JSON reports).
"""

__version__ = "0.1.0"

__all__ = [
    "bounds",
    "cli",
    "codes",
    "errors",
    "fock",
    "gates",
    "schema",
    "symmetry",
    "syndromes",
]
