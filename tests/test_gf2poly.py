"""Arithmetic, factor counting, and trace spectra against oracles."""

import pathlib
import random
import re

import pytest

from gf2parity.gf2poly import (
    ONE,
    BitPoly,
    PolyParseError,
    am_condition,
    count_distinct_irreducible_factors,
    count_factors_with_multiplicity,
    derivative_f2,
    format_poly,
    gcd,
    irreducibles,
    is_irreducible,
    is_squarefree,
    parse_poly,
    rem,
    squarefree_decomposition,
    trace_spectrum,
)

import helpers


def P(text):
    return parse_poly(text)


# -- parsing and formatting ----------------------------------------------------

def test_parse_symbolic():
    assert P("x^21+x^7+1").exponents == (21, 7, 0)
    assert P("x").exponents == (1,)
    assert P("1").exponents == (0,)
    assert P("0").is_zero


def test_parse_exponent_list():
    assert P("21,7,0") == P("x^21+x^7+1")
    assert P("3,1,0") == P("x^3+x+1")


def test_parse_hex():
    assert P("0x200081") == P("x^21+x^7+1")
    assert P("0xb") == P("x^3+x+1")


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


def test_format_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        f = BitPoly(helpers.random_bits(rng, rng.randrange(0, 30)))
        assert P(format_poly(f)) == f
    assert format_poly(P("0")) == "0"
    assert format_poly(P("x^2+x+1")) == "x^2+x+1"


# -- ring structure ------------------------------------------------------------

def test_mul_examples():
    assert P("x+1") * P("x+1") == P("x^2+1")
    assert P("x^2+x+1") * P("x^3+x+1") == P("x^5+x^4+1")
    f = P("x^9+x^4+1")
    assert f * ONE == f


def test_ring_axioms():
    rng = random.Random(11)
    for _ in range(300):
        a = BitPoly(rng.getrandbits(64))
        b = BitPoly(rng.getrandbits(64))
        c = BitPoly(rng.getrandbits(64))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + a == BitPoly(0)


def test_divmod_property():
    rng = random.Random(13)
    for _ in range(300):
        f = BitPoly(rng.getrandbits(48))
        g = BitPoly(helpers.random_bits(rng, rng.randrange(1, 16)))
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree


def test_rem_examples():
    assert rem(P("x^3"), P("x^2+x+1")) == ONE
    assert rem(P("x^3+1"), P("x+1")).is_zero
    f = P("x^7+x+1")
    assert rem(f, f).is_zero


def test_division_by_zero_refused():
    with pytest.raises(ZeroDivisionError):
        divmod(P("x^2+1"), BitPoly(0))


def test_gcd_examples():
    assert gcd(P("x^2+1"), P("x+1")) == P("x+1")
    assert gcd(P("x^2+x+1"), P("x^2+1")) == ONE
    f = P("x^5+x^2+1")
    assert gcd(f, BitPoly(0)) == f
    with pytest.raises(ValueError):
        gcd(BitPoly(0), BitPoly(0))


def test_gcd_agrees_with_oracle():
    rng = random.Random(17)
    for _ in range(200):
        a = helpers.random_bits(rng, rng.randrange(1, 20))
        b = helpers.random_bits(rng, rng.randrange(1, 20))
        x, y = a, b
        while y:
            x, y = y, helpers.o_divmod(x, y)[1]
        assert gcd(BitPoly(a), BitPoly(b)).bits == x


def test_derivative():
    assert derivative_f2(P("x^21+x^7+1")) == P("x^20+x^6")
    assert derivative_f2(P("x^4+x^2+1")).is_zero
    assert derivative_f2(P("x")) == ONE


# -- squarefreeness and decomposition ------------------------------------------

def test_is_squarefree_examples():
    assert not is_squarefree(P("x^2+1"))
    assert is_squarefree(P("x^2+x+1"))
    assert is_squarefree(P("x^21+x^7+1"))
    with pytest.raises(ValueError):
        is_squarefree(BitPoly(0))


def test_squarefree_decomposition_examples():
    assert squarefree_decomposition(P("x^2+1")) == [(P("x+1"), 2)]
    assert squarefree_decomposition(P("x^4+x^2+1")) == [(P("x^2+x+1"), 2)]
    assert squarefree_decomposition(P("x^5+x^4+1")) == [(P("x^5+x^4+1"), 1)]


def test_squarefree_decomposition_reconstructs():
    rng = random.Random(19)
    for _ in range(200):
        f = BitPoly(helpers.random_bits(rng, rng.randrange(1, 24)))
        prod = ONE
        for part, mult in squarefree_decomposition(f):
            assert is_squarefree(part)
            for _ in range(mult):
                prod = prod * part
        assert prod == f


def test_squarefree_iff_all_multiplicities_one():
    rng = random.Random(23)
    for _ in range(200):
        f = BitPoly(helpers.random_bits(rng, rng.randrange(1, 20)))
        all_one = all(m == 1 for _, m in squarefree_decomposition(f))
        assert all_one == is_squarefree(f)


# -- factor counting -----------------------------------------------------------

def test_count_examples():
    assert count_distinct_irreducible_factors(P("x^2+x+1")) == 1
    assert count_distinct_irreducible_factors(P("x^5+x^4+1")) == 2
    assert count_distinct_irreducible_factors(P("x^21+x^7+1")) == 1
    with pytest.raises(ValueError):
        count_distinct_irreducible_factors(ONE)


def test_count_matches_oracle_exhaustively():
    # every polynomial of degree 1..12 against the trial-division oracle
    for degree in range(1, 13):
        for low in range(1 << degree):
            bits = (1 << degree) | low
            assert (count_distinct_irreducible_factors(BitPoly(bits))
                    == helpers.oracle_distinct_count(bits)), hex(bits)


def test_multiplicity_examples():
    assert count_factors_with_multiplicity(P("x^2+1")) == 2
    assert count_factors_with_multiplicity(P("x^4+x^2+1")) == 2
    assert count_factors_with_multiplicity(P("x^8+x+1")) == 2


def test_multiplicity_matches_oracle():
    rng = random.Random(29)
    for _ in range(400):
        bits = helpers.random_bits(rng, rng.randrange(1, 13))
        f = BitPoly(bits)
        got = count_factors_with_multiplicity(f)
        assert got == helpers.oracle_multiplicity_count(bits), hex(bits)
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
        assert sum(1 for q in table if q.degree == degree) == want
    oracle = set(helpers.IRR6)
    assert {q.bits for q in irreducibles(6)} == oracle


# -- trace spectra -------------------------------------------------------------

def test_trace_spectrum_examples():
    assert trace_spectrum(P("x^3+x+1")).bits == (1, 0, 0)
    assert trace_spectrum(P("x^2+x+1")).bits == (0, 1)
    spec = trace_spectrum(P("x^7+x^3+1"))
    assert spec.ones() == (0,)


def test_trace_spectrum_refuses_reducible():
    with pytest.raises(ValueError):
        trace_spectrum(P("x^5+x^4+1"))


def test_trace_spectrum_matches_companion_oracle():
    for q in irreducibles(12):
        if q.degree < 2:
            continue
        spec = trace_spectrum(q)
        for i in range(q.degree):
            assert spec.bits[i] == helpers.oracle_trace(q.bits, i), (str(q), i)


def test_am_condition_examples():
    assert am_condition(P("x^7+x^3+1"))
    assert not am_condition(P("x^7+x^2+1"))
    assert am_condition(P("x^21+x^7+1"))
    with pytest.raises(ValueError):
        am_condition(P("x^4+x+1"))


def test_am_equivalence_exhaustive():
    # single-one spectrum iff all middle exponents odd, for odd degrees <= 15
    for q in irreducibles(15):
        if q.degree % 2 == 0 or q.degree < 3:
            continue
        single = len(trace_spectrum(q).ones()) == 1
        assert single == am_condition(q), str(q)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_factor_counts_match_sympy_above_oracle_cap():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(83)
    repeated = 0
    for trial in range(30):
        if trial % 3 == 0:
            # g * h^2, so multiplicities above one occur
            h = helpers.random_bits(rng, rng.randint(1, 10))
            g = helpers.random_bits(rng, rng.randint(13, 40))
            bits = helpers.o_mul(g, helpers.o_mul(h, h))
        else:
            bits = helpers.random_bits(rng, rng.randint(13, 60))
        f = BitPoly(bits)
        _, factors = sympy.factor_list(sum(x ** e for e in f.exponents), x, modulus=2)
        assert count_distinct_irreducible_factors(f) == len(factors), str(f)
        total = sum(int(m) for _, m in factors)
        assert count_factors_with_multiplicity(f) == total, str(f)
        repeated += total > len(factors)
    assert repeated >= 10
