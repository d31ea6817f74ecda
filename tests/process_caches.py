"""The process caches of chi2qec: where each is declared, why, and how to
empty them all.

`ALLOWED` maps each place in `src/` that uses `fock.shared` (the one
helper over `functools.lru_cache`) or `functools.cached_property`, and the
helper itself, to the module attributes whose `cache_clear` empties what
it holds and the reason it is there.  A `cached_property` holds its value
on one instance, so it has no holder: it is dropped with its instance,
and every instance that outlives a `clear()` is one a caller kept.
`tests/test_caches.py` holds `src/` to this list, so adding a cache means
adding a line here.
"""

import sys

ALLOWED = {
    "bounds.min_n_grid": (
        ["bounds.min_n_grid"],
        "theorem 4's min_n grid is fixed by the search caps"),
    "bounds.corrupted_dimension": (
        ["bounds.corrupted_dimension"],
        "theorem 5's closure enumeration depends on q alone"),
    "cli.pcc_operator_set": (
        ["cli.pcc_operator_set"],
        "the PCC synthesis operator set is a fixed function of N"),
    "cli.eecc_operator_set": (
        ["cli.eecc_operator_set"],
        "the EECC synthesis operator set is a fixed function of N"),
    "cli._parser": (
        ["cli._parser"],
        "the argument parser is the same for every main call"),
    "codes.CodeSpec.basis": (
        [], "a code's basis, listed on first read"),
    "codes.CodeSpec.logical_states": (
        [], "dense codewords that only the benchmark tracer reads"),
    "codes.CodeSpec.total_photons": (
        [], "the mean photon number, read from the fixed weights"),
    "codes.CodeSpec._json_text": (
        [], "the JSON view of the fixed spec, formed on first read"),
    "codes.build_pcc": (
        ["codes.build_pcc"], "one read-only PCC spec per N"),
    "codes.build_eecc": (
        ["codes.build_eecc"], "one read-only EECC spec per N"),
    "codes.build_bc": (
        ["codes.build_bc"], "one read-only BC spec per N"),
    "codes.build_two_mode_bc": (
        ["codes.build_two_mode_bc"], "one read-only two-mode BC spec per N"),
    "errors._xi_operators": (
        ["errors._xi_operators"],
        "xi_m is a fixed function of m and the code's value"),
    "errors._loss_kraus": (
        ["errors._loss_kraus"],
        "the lowest-order loss family is a fixed function of gamma and the code's value"),
    "errors._damping_products": (
        ["errors._damping_products"],
        "each damping order is a fixed function of gamma, m and the code's value"),
    "errors._damping_basis": (
        ["errors._damping_basis"],
        "the down-closed support is one basis for every damping order and gamma"),
    "fock.shared": (
        [], "the one helper that makes a process cache; each builder it decorates has a line"),
    "fock.ModeLayout.n_groups": (
        [], "read per label; not a field, so equality and hashing are unchanged"),
    "fock.BasisIndex.occupations": (
        [], "one read-only occupation array per basis"),
    "fock._irreducible_basis": (
        ["fock._irreducible_basis"],
        "one basis of H_N per (N, groups)"),
    "gates._generator_matrices": (
        ["gates._generator_matrices"],
        "the seven fixed chi(2) generator matrices"),
    "gates._generator_closed_form": (
        ["gates._generator_closed_form"],
        "each generator's closed-form exponential data"),
    "gates._cz_phases": (
        ["gates._cz_phases"],
        "the logical CZ's phases are fixed by the fixed CNOT2pp"),
    "schema.report_schema": (
        ["schema.report_schema"],
        "the bundled schema file, read once"),
    "symmetry.bc_symmetry_operator": (
        ["symmetry.bc_symmetry_operator"],
        "the BC symmetry's factors are a fixed function of the spec's value"),
    "syndromes._pipeline": (
        ["syndromes._pipeline"],
        "each recovery pipeline is a fixed function of the code's value and the error label"),
}


def holders():
    """Every chi2qec module attribute with a `cache_clear`, by
    "<module>.<attribute>"; a copy imported by name into another module is
    left out."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "chi2qec":
            continue
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_clear", None)) and value.__module__ == name:
                out["%s.%s" % (name.rsplit(".", 1)[-1], attr)] = value
    return out


def clear():
    """Empty every process cache, so that what runs next builds all of it anew."""
    for value in holders().values():
        value.cache_clear()
