"""Lifts, parity predictors, the G decomposition, and instance reports."""

import hashlib
import itertools
import json
import pickle
import random

import pytest
from hypothesis import assume, given, settings

from gf2parity.gf2poly import (
    count_distinct_irreducible_factors,
    exponents,
    from_exponents,
    is_squarefree,
    parse_poly,
)
from gf2parity import intres, swan
from gf2parity.intres import discriminant_int, resultant_mod8
from gf2parity.swan import (
    EVEN,
    ODD,
    SupportSpec,
    check_g_terms,
    discriminant_mod8,
    g_terms,
    invalid_support_elements,
    lift_01,
    parse_support_spec,
    stickelberger_parity,
    support_poly,
    support_universe,
    theorem_parity,
    validate_support,
    verify_theorem_instance,
)

import helpers


# -- lift ----------------------------------------------------------------------

def test_lift_examples():
    f = lift_01(from_exponents((21, 7, 0)))
    assert f[21] == 1 and f[7] == 1 and f[0] == 1
    assert len(f) - 1 == 21
    assert sum(f) == 3
    assert lift_01(0) == []
    assert lift_01(from_exponents((1,))) == [0, 1]


# -- stickelberger parity ------------------------------------------------------

def test_stickelberger_examples():
    assert stickelberger_parity(parse_poly("x^3+x+1")) == ODD
    assert stickelberger_parity(parse_poly("x^2+x+1")) == ODD
    assert stickelberger_parity(parse_poly("x^5+x^4+1")) == EVEN


def test_stickelberger_refuses_non_squarefree():
    with pytest.raises(ValueError):
        stickelberger_parity(parse_poly("x^2+1"))


@pytest.mark.parametrize("f", [0, -1, -8])
def test_zero_and_negative_ints_refused(f):
    with pytest.raises(ValueError):
        swan.discriminant_mod8(f)
    with pytest.raises(ValueError):
        stickelberger_parity(f)
    if f:
        with pytest.raises(ValueError):
            lift_01(f)


def test_stickelberger_matches_count_parity():
    rng = random.Random(71)
    for _ in range(200):
        f = helpers.random_squarefree_bits(rng, rng.randrange(2, 14))
        t = count_distinct_irreducible_factors(f)
        want = ODD if t % 2 else EVEN
        assert stickelberger_parity(f) == want, hex(f)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(helpers.binary_polys(squares=False))
def test_stickelberger_property_against_count_parity(f):
    assume(is_squarefree(f))
    t = count_distinct_irreducible_factors(f)
    assert stickelberger_parity(f) == (ODD if t % 2 else EVEN)


@pytest.mark.parametrize("degree", [127, 255, 511])
def test_stickelberger_matches_berlekamp_at_large_degree(degree):
    # Stickelberger's theorem makes the Berlekamp count an exact check of
    # the mod-8 discriminant above the oracles' degree-12 cap
    rng = random.Random(degree)
    for _ in range(20):
        f = helpers.random_squarefree_bits(rng, degree)
        t = count_distinct_irreducible_factors(f)
        assert stickelberger_parity(f) == (ODD if t % 2 else EVEN), hex(f)


def test_mod8_and_parity_match_swan_on_trinomials():
    # every trinomial of degree 2..8, across the 1- to 2-byte lane switch of
    # resultant_mod8, then a seeded sample up to degree 511; an even Swan
    # discriminant means a repeated factor
    rng = random.Random(10)
    pairs = [(n, k) for n in range(2, 9) for k in range(1, n)]
    pairs += [(n, rng.randrange(1, n)) for n in (rng.randrange(9, 512) for _ in range(2000))]
    for n, k in pairs:
        f, disc = 1 << n | 1 << k | 1, helpers.swan_trinomial_disc(n, k)
        assert discriminant_mod8(f) == disc % 8, (n, k)
        if disc % 2:
            want = ODD if (n % 2 == 1) == (disc % 8 == 1) else EVEN
            assert stickelberger_parity(f) == want, (n, k)
        else:
            assert not is_squarefree(f), (n, k)


def _disc_both_routes(f):
    """disc(F) mod 8 for the 0/1 lift F of f by discriminant_mod8, which takes
    the Graeffe step when F = 1 + x U(x^2), and by res(F, F') directly."""
    exps = exponents(f)
    n = exps[0]
    r = resultant_mod8([(e, 1) for e in exps], [(e - 1, e) for e in exps if e])
    return discriminant_mod8(f), -r % 8 if (n * (n - 1) // 2) % 2 else r


def test_disc_mod8_every_polynomial_up_to_degree_12():
    # squarefree or not, on whichever route each takes: a linear F has disc 1
    for f in range(2, 1 << 13):
        want = discriminant_int(lift_01(f)) % 8 if f >= 4 else 1
        assert discriminant_mod8(f) == want, hex(f)


@pytest.mark.parametrize("text, graeffe", [
    ("x+1", True), ("x^3+1", True), ("x^11+1", True), ("x^5+x^3+x+1", True),
    ("x^2+1", False), ("x^12+1", False), ("x^5+x^2+1", False), ("x", False),
    ("x^3+x", False), ("x^5+x^3+x", False), ("x^11+x^9+x^3+x", False)])
def test_disc_mod8_route_boundary(monkeypatch, text, graeffe):
    # the Graeffe step needs a constant term and every other exponent odd;
    # odd exponents with no constant term keep the general route
    f = parse_poly(text)
    want = discriminant_int(lift_01(f)) % 8 if f >= 4 else 1
    calls = []
    general = intres.resultant_mod8
    monkeypatch.setattr(intres, "resultant_mod8", lambda *a: calls.append(a) or general(*a))
    assert discriminant_mod8(f) == want
    assert bool(calls) != graeffe


@pytest.mark.parametrize("n", [127, 255, 511])
def test_disc_routes_match_swan_on_odd_trinomials(n):
    # x^n + x^k + 1 with n and k odd is 1 + x U(x^2): both routes against
    # Swan's closed form at every odd k
    for k in range(1, n, 2):
        want = helpers.swan_trinomial_disc(n, k) % 8
        assert _disc_both_routes(1 << n | 1 << k | 1) == (want, want), (n, k)


def test_disc_routes_match_exact_on_criterion_1_instances():
    rng = random.Random(30)
    for _ in range(2000):
        n = rng.randrange(5, 62, 2)
        universe = support_universe(n)
        f = support_poly(n, rng.sample(universe, rng.randint(0, min(len(universe), 5))))
        want = discriminant_int(lift_01(f)) % 8
        assert _disc_both_routes(f) == (want, want), hex(f)


def test_disc_routes_match_sympy_on_dense_family_members():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(31)
    for n in (101, 127, 127):
        exps = {n, 0, *(e for e in range(1, n, 2) if rng.random() < 0.6)}
        want = sympy.discriminant(sympy.Poly(sum(x ** e for e in exps), x)) % 8
        assert _disc_both_routes(from_exponents(exps)) == (want, want), n
    f = from_exponents({0, *range(1, 128, 2)})  # every odd exponent
    want = sympy.discriminant(sympy.Poly(sum(x ** e for e in exponents(f)), x)) % 8
    assert _disc_both_routes(f) == (want, want)


# -- support validation and the predictor --------------------------------------

def test_validate_support_examples():
    assert not validate_support(21, {7})
    assert validate_support(7, {3})
    assert validate_support(11, {1})
    with pytest.raises(ValueError):
        validate_support(8, {1})


def test_invalid_elements_named():
    assert invalid_support_elements(21, {7, 1, 17}) == [7]
    assert invalid_support_elements(13, {1, 9}) == []


def test_theorem_parity_examples():
    assert theorem_parity(7, {3}) == ODD
    assert theorem_parity(11, {1}) == EVEN
    assert theorem_parity(13, {1, 9}) == EVEN


def test_theorem_parity_refuses_invalid():
    with pytest.raises(ValueError, match="21"):
        theorem_parity(21, {7})


def test_theorem_parity_residue_rule():
    for n in range(5, 200, 2):
        want = ODD if n % 8 in (1, 7) else EVEN
        assert theorem_parity(n, set()) == want


# -- G and its decomposition ---------------------------------------------------

def oracle_build_g(n, support):
    # expand n(nF - xF') coefficient by coefficient
    coeffs = [0] * (n + 1)
    for i in (0, n, *support):
        coeffs[i] = 1
    nf = [n * c for c in coeffs]
    xfp = [i * coeffs[i] for i in range(n + 1)]
    return [n * (a - b) for a, b in zip(nf, xfp)]


def test_build_g_examples():
    assert g_terms(7, {3}) == [(0, 49), (3, 28)]
    assert g_terms(11, {1}) == [(0, 121), (1, 110)]
    for n in (5, 9, 13):
        assert g_terms(n, set()) == [(0, n * n)]


def test_build_g_matches_expansion():
    rng = random.Random(73)
    for _ in range(100):
        n = rng.randrange(5, 40, 2)
        support = set(rng.sample(range(1, n), rng.randint(0, 4)))
        want = {i: c for i, c in enumerate(oracle_build_g(n, support)) if c}
        assert dict(g_terms(n, support)) == want


def test_build_g_rejects_degree_mismatch():
    # G built for n = 13 has a term at x^9, which is not below n = 9
    with pytest.raises(ValueError, match="outside"):
        check_g_terms(9, g_terms(13, {1, 9}))


def test_decompose_g_examples():
    # n = 7, S = {3}: 28 = 4 * 7 is a G4 term; n = 11, S = {1}: 110 = 2 * 55
    # is a G2 term with 3 * 1 < 11; an empty support leaves G = n^2
    for n, support in ((7, {3}), (11, {1}), (5, set()), (13, set()), (21, set())):
        check_g_terms(n, g_terms(n, support))


def test_decompose_g_identity_and_bounds():
    # the check passes exactly when the expanded G is 1 + 2 G2 + 4 G4 mod 8
    # with 3 deg(G2) < n, and always on admissible supports
    rng = random.Random(79)
    for _ in range(300):
        n = rng.randrange(5, 40, 2)
        pool = support_universe(n) if rng.random() < 0.5 else range(1, n)
        support = set(rng.sample(pool, min(len(pool), rng.randint(0, 4))))
        g = oracle_build_g(n, support)
        ok = (g[0] % 8 == 1 and all(c % 2 == 0 for c in g[1:])
              and all(3 * i < n for i, c in enumerate(g) if c % 4 == 2))
        assert ok or not validate_support(n, support)
        try:
            check_g_terms(n, g_terms(n, support))
        except ValueError:
            assert not ok, (n, sorted(support))
        else:
            assert ok, (n, sorted(support))


@pytest.mark.parametrize("n, support, match", [
    (11, {2}, "odd"),  # an even exponent gives the odd coefficient 11 * 9
    (11, {5}, "G2"),   # 11 * 6 is 2 mod 4, but 3 * 5 >= 11
    (8, set(), "constant"),  # n^2 is not 1 mod 8 for even n
])
def test_check_g_terms_refuses_malformed_g(n, support, match):
    with pytest.raises(ValueError, match=match):
        check_g_terms(n, g_terms(n, support))


# -- the padded resultant property ----------------------------------------------

def test_padded_resultant_unit_and_natural_equal():
    rng = random.Random(83)
    for _ in range(60):
        n = rng.randrange(7, 36, 2)
        universe = support_universe(n)
        support = set(rng.sample(universe, min(len(universe), rng.randint(0, 3))))
        F = list(enumerate(lift_01(support_poly(n, support))))
        G = helpers.dense(g_terms(n, support))
        padded = G + [0] * (n - 3 - len(G))  # zero-padded to degree n - 4
        assert int(resultant_mod8(F, enumerate(padded))) == 1
        assert int(resultant_mod8(F, enumerate(G))) == int(resultant_mod8(F, enumerate(padded)))
        F_terms = [(i, 1) for i in (0, n, *support)]
        assert resultant_mod8(F_terms, g_terms(n, support)) == 1


def test_mod8_path_builds_no_int_poly(monkeypatch):
    # the mod-8 path reads terms off the support: no coefficient list from
    # lift_01, no matrix, and no call of the exact resultant
    def refuse(*args, **kwargs):
        raise AssertionError("integer polynomial built on the mod-8 path")

    monkeypatch.setattr(swan, "lift_01", refuse)
    monkeypatch.setattr(intres, "IntMatrix", refuse)
    monkeypatch.setattr(intres, "det_exact", refuse)
    monkeypatch.setattr(intres, "resultant", refuse)
    with pytest.raises(AssertionError):
        swan.lift_01(1)
    with pytest.raises(AssertionError):
        intres.resultant([0, 1], [1, 1])
    assert verify_theorem_instance(13, {1, 9}).agree
    assert stickelberger_parity(parse_poly("x^13+x^9+x+1")) == EVEN


def test_reports_match_recorded_digest():
    # SHA-256 of every criterion-1 report with |S| <= 2, odd n in [5, 61],
    # one JSON line each, recorded before the mod-8 path moved to terms
    lines = []
    for n in range(5, 62, 2):
        universe = support_universe(n)
        for k in (0, 1, 2):
            for support in itertools.combinations(universe, k):
                lines.append(verify_theorem_instance(n, support).to_json_line())
    assert len(lines) == 2184
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "0106e9ab04cfa469028e7ea59be5d9d8599d3df0700effa9a14048f3adef30ae"


# -- SupportSpec and reports ----------------------------------------------------

def test_support_spec_round_trip():
    spec = parse_support_spec("n=13;S=1,9")
    assert spec.n == 13 and spec.support == frozenset((1, 9))
    assert spec.valid
    assert spec.to_text() == "n=13;S=1,9"
    assert parse_support_spec(spec.to_text()) == spec


def test_support_spec_empty_support():
    spec = parse_support_spec("n=9;S=")
    assert spec.support == frozenset()
    assert spec.valid


def test_support_spec_records_invalidity():
    spec = parse_support_spec("n=21;S=7")
    assert not spec.valid


def test_support_spec_guards():
    with pytest.raises(ValueError):
        SupportSpec(8, frozenset({1}))
    with pytest.raises(ValueError):
        SupportSpec(3, frozenset())
    with pytest.raises(ValueError):
        parse_support_spec("n=13,S=1")
    with pytest.raises(ValueError):
        parse_support_spec("S=1;n=13")


def test_spec_and_report_are_frozen_and_valid_is_computed():
    spec = SupportSpec(13, [9, 1])
    assert spec == SupportSpec(13, frozenset({1, 9}))
    with pytest.raises(TypeError):
        SupportSpec(13, frozenset({1, 9}), False)
    with pytest.raises(TypeError):
        SupportSpec(13, frozenset({1, 9}), valid=False)
    report = verify_theorem_instance(13, {1, 9})
    for rec, field in ((spec, "valid"), (spec, "note"), (report, "agree"), (report, "note")):
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    assert report.failed_identities == ()
    assert pickle.loads(pickle.dumps(report)) == report


def test_verify_examples():
    rep = verify_theorem_instance(7, {3})
    assert rep.agree and int(rep.disc_mod8) == 1 and rep.predicted_parity == ODD
    rep = verify_theorem_instance(11, {1})
    assert rep.agree and int(rep.disc_mod8) == 5 and rep.predicted_parity == EVEN
    rep = verify_theorem_instance(13, {1, 9})
    assert rep.agree and rep.squarefree
    assert rep.t_distinct == 4


def test_verify_refuses_invalid_support():
    with pytest.raises(ValueError, match="unsupported exponent 7"):
        verify_theorem_instance(21, {7})


def test_report_json_shape():
    rep = verify_theorem_instance(13, {1, 9})
    line = rep.to_json_line()
    data = json.loads(line)
    assert list(data) == ["spec", "poly", "squarefree", "t_distinct",
                          "t_multiplicity", "disc_mod8", "predicted_parity",
                          "observed_parity", "agree"]
    assert data["spec"] == "n=13;S=1,9"
    assert data["poly"] == "x^13+x^9+x+1"
    assert data["disc_mod8"] == 5
    assert data["agree"] is True


def test_report_json_names_failed_identities_last():
    rep = verify_theorem_instance(13, {1, 9})._replace(
        agree=False, failed_identities=("squarefree",))
    data = json.loads(rep.to_json_line())
    assert list(data) == ["spec", "poly", "squarefree", "t_distinct",
                          "t_multiplicity", "disc_mod8", "predicted_parity",
                          "observed_parity", "agree", "failed_identities"]
    assert data["spec"] == "n=13;S=1,9"
    assert data["poly"] == "x^13+x^9+x+1"
    assert data["failed_identities"] == ["squarefree"]
