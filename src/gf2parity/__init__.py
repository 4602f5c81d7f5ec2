"""Parity of the irreducible factor count of binary polynomials.

The toolkit packs F2[x] arithmetic into integers, computes exact
resultants and discriminants of integer lifts, predicts the factor-count
parity of x^n + sum x^i + 1 from n mod 8 when the middle support is
admissible, and cross-checks everything by brute-force factor counting,
randomized lemma fuzzing, and an exhaustive small-degree audit.
"""

from .gf2poly import (
    PolyParseError,
    am_condition,
    count_distinct_irreducible_factors,
    count_factors_with_multiplicity,
    is_irreducible,
    is_squarefree,
    parse_poly,
    squarefree_decomposition,
    trace_spectrum,
)
from .intres import (
    IntMatrix,
    det_exact,
    discriminant_int,
    resultant,
    resultant_mod8,
)
from .lemma_lab import (
    HypothesisViolation,
    LemmaInstance,
    run_fuzz,
)
from .search import (
    AuditReport,
    SearchQuery,
    SearchRecord,
    corollary_audit,
    enumerate_candidates,
    scan,
)
from .swan import (
    ParityReport,
    SupportSpec,
    discriminant_mod8,
    parse_support_spec,
    stickelberger_parity,
    theorem_parity,
    validate_support,
    verify_theorem_instance,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "HypothesisViolation",
    "IntMatrix",
    "LemmaInstance",
    "ParityReport",
    "PolyParseError",
    "SearchQuery",
    "SearchRecord",
    "SupportSpec",
    "am_condition",
    "corollary_audit",
    "count_distinct_irreducible_factors",
    "count_factors_with_multiplicity",
    "det_exact",
    "discriminant_int",
    "discriminant_mod8",
    "enumerate_candidates",
    "is_irreducible",
    "is_squarefree",
    "parse_poly",
    "parse_support_spec",
    "resultant",
    "resultant_mod8",
    "run_fuzz",
    "scan",
    "squarefree_decomposition",
    "stickelberger_parity",
    "theorem_parity",
    "trace_spectrum",
    "validate_support",
    "verify_theorem_instance",
]
