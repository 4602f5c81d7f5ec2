"""The package's exports: each name resolves to its submodule's object."""

import importlib

import pytest

import gf2parity

# every public name of the package, by the submodule that defines it
_HOMES = {
    "gf2poly": ["PolyParseError", "am_condition", "count_distinct_irreducible_factors",
                "count_factors_with_multiplicity", "is_irreducible", "is_squarefree",
                "parse_poly", "squarefree_decomposition", "trace_spectrum"],
    "intres": ["IntMatrix", "det_exact", "discriminant_int", "resultant", "resultant_mod8"],
    "lemma_lab": ["HypothesisViolation", "LemmaInstance", "run_fuzz"],
    "search": ["AuditReport", "SearchQuery", "SearchRecord", "corollary_audit",
               "enumerate_candidates", "scan"],
    "swan": ["ParityReport", "SupportSpec", "discriminant_mod8", "parse_support_spec",
             "stickelberger_parity", "theorem_parity", "validate_support",
             "verify_theorem_instance"],
}


def test_all_lists_the_same_31_names():
    names = [name for names in _HOMES.values() for name in names]
    assert len(names) == 31
    assert sorted(gf2parity.__all__) == sorted(names)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in _HOMES.items() for n in names])
def test_export_is_its_submodules_object(module, name):
    namespace = {}
    exec(f"from gf2parity import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"gf2parity.{module}"), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        gf2parity.nope
