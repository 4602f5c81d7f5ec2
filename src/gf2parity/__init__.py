"""Parity of the irreducible factor count of binary polynomials.

The toolkit packs F2[x] arithmetic into integers, computes exact
resultants and discriminants of integer lifts, predicts the factor-count
parity of x^n + sum x^i + 1 from n mod 8 when the middle support is
admissible, and cross-checks everything by brute-force factor counting,
randomized lemma fuzzing, and an exhaustive small-degree audit.

Each public name loads its submodule on first use, so a command loads
only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "gf2poly": "PolyParseError am_condition count_distinct_irreducible_factors"
               " count_factors_with_multiplicity is_irreducible is_squarefree parse_poly"
               " squarefree_decomposition trace_spectrum",
    "intres": "IntMatrix det_exact discriminant_int resultant resultant_mod8",
    "lemma_lab": "HypothesisViolation LemmaInstance run_fuzz",
    "search": "AuditReport SearchQuery SearchRecord corollary_audit enumerate_candidates scan",
    "swan": "ParityReport SupportSpec discriminant_mod8 parse_support_spec stickelberger_parity"
            " theorem_parity validate_support verify_theorem_instance",
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    # not stored here: a later lookup sees whatever the submodule holds then
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
