"""Arithmetic, factor counting, and trace spectra against oracles."""

import pathlib
import random
import re

import pytest
from hypothesis import given, settings

from gf2parity import gf2poly
from gf2parity.gf2poly import (
    PolyParseError,
    am_condition,
    count_distinct_irreducible_factors,
    count_factors_with_multiplicity,
    derivative_f2,
    divmod_f2,
    exponents,
    format_poly,
    from_exponents,
    gcd,
    irreducibles,
    is_irreducible,
    is_squarefree,
    mod_f2,
    parse_poly,
    squarefree_decomposition,
    trace_spectrum,
)

import helpers


def P(text):
    return parse_poly(text)


# -- parsing and formatting ----------------------------------------------------

def test_parse_symbolic():
    assert exponents(P("x^21+x^7+1")) == (21, 7, 0)
    assert exponents(P("x")) == (1,)
    assert exponents(P("1")) == (0,)
    assert P("0") == 0


def test_parse_exponent_list():
    assert P("21,7,0") == P("x^21+x^7+1")
    assert P("3,1,0") == P("x^3+x+1")


def test_parse_hex():
    assert P("0x200081") == P("x^21+x^7+1")
    assert P("0xb") == P("x^3+x+1")


@pytest.mark.parametrize("text", ["0x1_3", "0x\u0661\u0663", "0x", "0x+13", "0x0x13"])
def test_parse_hex_takes_only_ascii_hex_digits(text):
    # int(s, 16) alone reads the first two as 0x13, x^4+x+1
    with pytest.raises(PolyParseError, match="bad hexadecimal literal"):
        P(text)


def test_parse_readme_forms():
    # every form the README's parsing list names is accepted
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    listed = re.search(r"Parsing \(([^)]*)\)", readme).group(1)
    forms = re.findall(r"`([^`]+)`", listed)
    assert forms
    for text in forms:
        assert P(text) == P("x^21+x^7+1"), text


def test_parse_rejects_bad_tokens():
    with pytest.raises(PolyParseError, match="x\\^-2"):
        P("x^-2+1")
    with pytest.raises(PolyParseError, match="2x"):
        P("2x+1")
    with pytest.raises(PolyParseError):
        P("7,7,0")  # duplicate exponent
    with pytest.raises(PolyParseError):
        P("1,3,0")  # not descending
    with pytest.raises(PolyParseError):
        P("")


def test_from_exponents_and_exponents():
    assert from_exponents((21, 7, 0)) == P("x^21+x^7+1")
    assert from_exponents([0, 21, 7]) == P("x^21+x^7+1")
    assert from_exponents(()) == 0
    assert exponents(0) == ()
    assert exponents(from_exponents((9, 4, 1))) == (9, 4, 1)
    with pytest.raises(ValueError, match="negative exponent -1"):
        from_exponents((3, -1))
    with pytest.raises(ValueError, match="duplicate exponent 3"):
        from_exponents((3, 3, 0))


def test_format_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        f = helpers.random_bits(rng, rng.randrange(0, 30))
        assert P(format_poly(f)) == f
    assert format_poly(P("0")) == "0"
    assert format_poly(P("x^2+x+1")) == "x^2+x+1"


# -- ring structure ------------------------------------------------------------

def test_divmod_property():
    rng = random.Random(13)
    for _ in range(300):
        f = rng.getrandbits(48)
        g = helpers.random_bits(rng, rng.randrange(1, 16))
        q, r = divmod_f2(f, g)
        assert helpers.o_mul(q, g) ^ r == f
        assert r == 0 or r.bit_length() < g.bit_length()
        assert mod_f2(f, g) == r


def test_rem_examples():
    assert mod_f2(P("x^3"), P("x^2+x+1")) == 1
    assert mod_f2(P("x^3+1"), P("x+1")) == 0
    f = P("x^7+x+1")
    assert mod_f2(f, f) == 0


def test_division_by_zero_refused():
    with pytest.raises(ZeroDivisionError):
        divmod_f2(P("x^2+1"), 0)
    with pytest.raises(ZeroDivisionError):
        mod_f2(P("x^2+1"), 0)


def test_gcd_examples():
    assert gcd(P("x^2+1"), P("x+1")) == P("x+1")
    assert gcd(P("x^2+x+1"), P("x^2+1")) == 1
    f = P("x^5+x^2+1")
    assert gcd(f, 0) == f
    with pytest.raises(ValueError):
        gcd(0, 0)


def test_gcd_agrees_with_oracle():
    rng = random.Random(17)
    for _ in range(200):
        a = helpers.random_bits(rng, rng.randrange(1, 20))
        b = helpers.random_bits(rng, rng.randrange(1, 20))
        x, y = a, b
        while y:
            x, y = y, helpers.o_divmod(x, y)[1]
        assert gcd(a, b) == x


def test_derivative():
    assert derivative_f2(P("x^21+x^7+1")) == P("x^20+x^6")
    assert derivative_f2(P("x^4+x^2+1")) == 0
    assert derivative_f2(P("x")) == 1


# -- squarefreeness and decomposition ------------------------------------------

def test_is_squarefree_examples():
    assert not is_squarefree(P("x^2+1"))
    assert is_squarefree(P("x^2+x+1"))
    assert is_squarefree(P("x^21+x^7+1"))
    with pytest.raises(ValueError):
        is_squarefree(0)


def test_squarefree_decomposition_examples():
    assert squarefree_decomposition(P("x^2+1")) == [(P("x+1"), 2)]
    assert squarefree_decomposition(P("x^4+x^2+1")) == [(P("x^2+x+1"), 2)]
    assert squarefree_decomposition(P("x^5+x^4+1")) == [(P("x^5+x^4+1"), 1)]


def test_squarefree_decomposition_reconstructs():
    rng = random.Random(19)
    for _ in range(200):
        f = helpers.random_bits(rng, rng.randrange(1, 24))
        prod = 1
        for part, mult in squarefree_decomposition(f):
            assert is_squarefree(part)
            for _ in range(mult):
                prod = helpers.o_mul(prod, part)
        assert prod == f


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(helpers.binary_polys())
def test_squarefree_decomposition_property(f):
    prod = 1
    for part, mult in squarefree_decomposition(f):
        assert is_squarefree(part)
        for _ in range(mult):
            prod = helpers.o_mul(part, prod)
    assert prod == f


def test_squarefree_iff_all_multiplicities_one():
    rng = random.Random(23)
    for _ in range(200):
        f = helpers.random_bits(rng, rng.randrange(1, 20))
        all_one = all(m == 1 for _, m in squarefree_decomposition(f))
        assert all_one == is_squarefree(f)


@pytest.mark.parametrize("fn", [
    exponents, format_poly, derivative_f2, is_squarefree,
    count_distinct_irreducible_factors, count_factors_with_multiplicity,
    squarefree_decomposition, is_irreducible, trace_spectrum, am_condition,
    lambda f: gcd(f, 3), lambda f: gcd(3, f), lambda f: gcd(f, 0),
    lambda f: divmod_f2(f, 3), lambda f: divmod_f2(3, f),
    lambda f: mod_f2(f, 3), lambda f: mod_f2(3, f),
])
@pytest.mark.parametrize("f", [-1, -8])
def test_negative_int_refused(fn, f):
    # unguarded, reducing -8 by x + 1 never ends: the xor never shortens -8
    with pytest.raises(ValueError):
        fn(f)


@pytest.mark.parametrize("fn", [
    is_squarefree, count_distinct_irreducible_factors, count_factors_with_multiplicity,
    squarefree_decomposition, is_irreducible, trace_spectrum, am_condition,
])
def test_zero_polynomial_refused(fn):
    with pytest.raises(ValueError):
        fn(0)


# -- factor counting -----------------------------------------------------------

def test_count_examples():
    assert count_distinct_irreducible_factors(P("x^2+x+1")) == 1
    assert count_distinct_irreducible_factors(P("x^5+x^4+1")) == 2
    assert count_distinct_irreducible_factors(P("x^21+x^7+1")) == 1
    with pytest.raises(ValueError):
        count_distinct_irreducible_factors(1)


def test_count_matches_oracle_exhaustively():
    # every polynomial of degree 1..12 against the trial-division oracle
    for degree in range(1, 13):
        for low in range(1 << degree):
            bits = (1 << degree) | low
            assert (count_distinct_irreducible_factors(bits)
                    == helpers.oracle_distinct_count(bits)), hex(bits)


def test_count_by_hand_at_degrees_1_to_3():
    by_hand = {"x": 1, "x+1": 1, "x^2": 1, "x^2+1": 1, "x^2+x": 2, "x^2+x+1": 1,
               "x^3": 1, "x^3+1": 2, "x^3+x": 2, "x^3+x+1": 1, "x^3+x^2": 2,
               "x^3+x^2+1": 1, "x^3+x^2+x": 2, "x^3+x^2+x+1": 1}
    for text, t in by_hand.items():
        assert count_distinct_irreducible_factors(P(text)) == t, text
        assert helpers.berlekamp_count(P(text)) == t, text


def _count_inputs(rng: random.Random, trials: int):
    """Seeded inputs of degree 13..300 of seven kinds, in turn."""
    x_plus_1 = [1]
    for _ in range(300):
        x_plus_1.append(helpers.o_mul(x_plus_1[-1], 3))
    for trial in range(trials):
        kind = trial % 7
        d = rng.randint(13, 300)
        if kind == 0:
            f = helpers.random_bits(rng, d)
        elif kind == 1:
            # 3..7 terms, with or without a constant term
            f = 1 << d | sum(1 << e for e in rng.sample(range(d), rng.randint(2, 6)))
        elif kind == 2:
            h = helpers.random_bits(rng, rng.randint(1, d // 3))
            g = helpers.random_bits(rng, d - 2 * (h.bit_length() - 1))
            f = helpers.o_mul(g, helpers.o_mul(h, h))
        elif kind == 3:
            h = helpers.random_bits(rng, max(7, d // 2))
            f = helpers.o_mul(h, h)
        elif kind == 4:
            k = rng.randint(1, d - 1)
            f = helpers.random_bits(rng, d - k) << k
        elif kind == 5:
            f = x_plus_1[d]
        else:
            f = helpers.random_squarefree_bits(rng, d)
        yield f


def test_count_matches_all_rows_berlekamp():
    # the half-rows count against every row eliminated, degrees 13..300
    for f in _count_inputs(random.Random(151), 2000):
        assert count_distinct_irreducible_factors(f) == helpers.berlekamp_count(f), hex(f)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(helpers.binary_polys())
def test_count_property_against_all_rows_berlekamp(f):
    assert count_distinct_irreducible_factors(f) == helpers.berlekamp_count(f)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 61, 511])
def test_count_does_not_share_its_cached_pivots(n):
    # the half-row pivots are cached per degree and the elimination writes new
    # pivots into its table: two polynomials of one degree, then the first again.
    # With x^n + x + 1 first, a shared table gives a wrong count at every n >= 2;
    # at n = 1 no row is eliminated
    rng = random.Random(n)
    first = 1 << n | 3 if n > 1 else 3
    second = first
    while second == first:
        second = helpers.random_bits(rng, n)
    for f in (first, second, first):
        assert count_distinct_irreducible_factors(f) == helpers.berlekamp_count(f), hex(f)


def test_multiplicity_examples():
    assert count_factors_with_multiplicity(P("x^2+1")) == 2
    assert count_factors_with_multiplicity(P("x^4+x^2+1")) == 2
    assert count_factors_with_multiplicity(P("x^8+x+1")) == 2


def test_multiplicity_matches_oracle():
    rng = random.Random(29)
    for _ in range(400):
        f = helpers.random_bits(rng, rng.randrange(1, 13))
        got = count_factors_with_multiplicity(f)
        assert got == helpers.oracle_multiplicity_count(f), hex(f)
        assert got >= count_distinct_irreducible_factors(f)
        if is_squarefree(f):
            assert got == count_distinct_irreducible_factors(f)


def test_is_irreducible_examples():
    assert is_irreducible(P("x^21+x^7+1"))
    assert not is_irreducible(P("x^4+x^2+1"))
    assert is_irreducible(P("x^3+x+1"))


def test_irreducibles_table():
    # counts per degree match the classical necklace numbers
    expected = {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18, 8: 30}
    table = irreducibles(8)
    for degree, want in expected.items():
        assert sum(1 for q in table if q.bit_length() - 1 == degree) == want
    oracle = set(helpers.IRR6)
    assert set(irreducibles(6)) == oracle


# -- trace spectra -------------------------------------------------------------

def test_trace_spectrum_examples():
    assert trace_spectrum(P("x^3+x+1")) == (1, 0, 0)
    assert trace_spectrum(P("x^2+x+1")) == (0, 1)
    spec = trace_spectrum(P("x^7+x^3+1"))
    assert [i for i, b in enumerate(spec) if b] == [0]


def test_trace_spectrum_refuses_reducible():
    with pytest.raises(ValueError):
        trace_spectrum(P("x^5+x^4+1"))


def test_trace_spectrum_matches_companion_oracle():
    for q in irreducibles(12):
        n = q.bit_length() - 1
        if n < 2:
            continue
        spec = trace_spectrum(q)
        assert len(spec) == n
        for i in range(n):
            assert spec[i] == helpers.oracle_trace(q, i), (format_poly(q), i)


def test_trace_spectrum_matches_the_quadratic_loop():
    for q in irreducibles(10):
        assert trace_spectrum(q) == helpers.trace_spectrum_loop(q), format_poly(q)
    for text in ("x^127+x+1", "x^511+x^10+1"):
        assert is_irreducible(P(text)), text
        assert trace_spectrum(P(text)) == helpers.trace_spectrum_loop(P(text)), text


def test_trace_spectrum_recurrence_on_seeded_inputs(monkeypatch):
    # the power-sum recurrence holds for any f; only the traces need f
    # irreducible, so the check is lifted to reach large degrees cheaply
    monkeypatch.setattr(gf2poly, "is_irreducible", lambda f: True)
    rng = random.Random(2525)
    for n in (127, 255, 511):
        for i in range(20):
            # dense draws, and pentanomials with exponents anywhere
            mids = rng.getrandbits(n) if i % 2 else sum(1 << e for e in rng.sample(range(1, n), 3))
            f = 1 << n | mids | 1
            assert trace_spectrum(f) == helpers.trace_spectrum_loop(f), (n, i)


def test_am_condition_examples():
    assert am_condition(P("x^7+x^3+1"))
    assert not am_condition(P("x^7+x^2+1"))
    assert am_condition(P("x^21+x^7+1"))
    with pytest.raises(ValueError):
        am_condition(P("x^4+x+1"))


def test_am_equivalence_exhaustive():
    # single-one spectrum iff all middle exponents odd, for odd degrees <= 15
    for q in irreducibles(15):
        n = q.bit_length() - 1
        if n % 2 == 0 or n < 3:
            continue
        single = sum(trace_spectrum(q)) == 1
        assert single == am_condition(q), format_poly(q)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_factor_counts_match_sympy_above_oracle_cap():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(83)
    inputs = []
    for trial in range(30):
        if trial % 3 == 0:
            # g * h^2, so multiplicities above one occur
            h = helpers.random_bits(rng, rng.randint(1, 10))
            g = helpers.random_bits(rng, rng.randint(13, 40))
            inputs.append(helpers.o_mul(g, helpers.o_mul(h, h)))
        else:
            inputs.append(helpers.random_bits(rng, rng.randint(13, 60)))
    # sparse inputs at degree 127, where the count eliminates 63 of 127 rows
    inputs += [P("x^127+x^97+x^33+x^5+1"), P("x^127+x^122+x^83+x^66+1"), P("x^127+x^64+x^2")]
    repeated = 0
    for f in inputs:
        _, factors = sympy.factor_list(sum(x ** e for e in exponents(f)), x, modulus=2)
        assert count_distinct_irreducible_factors(f) == len(factors), format_poly(f)
        total = sum(int(m) for _, m in factors)
        assert count_factors_with_multiplicity(f) == total, format_poly(f)
        repeated += total > len(factors)
    assert repeated >= 10
