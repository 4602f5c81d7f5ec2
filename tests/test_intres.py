"""Exact determinants, exact and mod-8 resultants, discriminants."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gf2parity import intres
from gf2parity.gf2poly import MAX_DEGREE, exponents, format_poly, from_exponents, is_squarefree
from gf2parity.intres import (
    IntMatrix,
    det_exact,
    discriminant_int,
    resultant,
    resultant_mod8,
)
from gf2parity.swan import discriminant_mod8, lift_01

import helpers


def terms(coeffs):
    return list(enumerate(coeffs))


def rand_int_poly(rng, degree, lo=-9, hi=9):
    coeffs = [rng.randint(lo, hi) for _ in range(degree)]
    lead = 0
    while lead == 0:
        lead = rng.randint(lo, hi)
    return [*coeffs, lead]


def rand_monic(rng, degree, lo=-9, hi=9):
    return [rng.randint(lo, hi) for _ in range(degree)] + [1]


# -- Sylvester layout ----------------------------------------------------------

def test_sylvester_example_layout():
    assert helpers.sylvester([1, 0, 1], [1, 1]) == [[1, 0, 1], [1, 1, 0], [0, 1, 1]]


def test_sylvester_padded_unit():
    f = [3, -2, 0, 1]  # monic cubic
    g = [1, 0, 0]  # the constant 1 zero-padded to degree 2
    assert helpers.resultant_bareiss(f, g) == resultant(f, g) == 1


def test_sylvester_padding_needs_monic():
    f = [1, 0, 2]  # leading coefficient 2
    g = [1, 0, 0]
    for layout in (resultant, helpers.sylvester):
        with pytest.raises(ValueError, match="monic"):
            layout(f, g)


def test_sylvester_zero_f_refused():
    for layout in (resultant, helpers.sylvester):
        for f in ([], [1, 0]):
            with pytest.raises(ValueError):
                layout(f, [1, 1])


# -- determinants --------------------------------------------------------------

def test_det_identity():
    m = IntMatrix([[1 if i == j else 0 for j in range(4)] for i in range(4)])
    assert det_exact(m) == 1


def test_det_2x2_closed_form():
    rng = random.Random(31)
    for _ in range(100):
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        assert det_exact(IntMatrix([[a, b], [c, d]])) == a * d - b * c


def test_det_matches_cofactor_oracle():
    rng = random.Random(37)
    for _ in range(200):
        size = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        assert det_exact(IntMatrix(rows)) == helpers.cofactor_det(rows)


def sparse_rows(rng: random.Random, size: int) -> list[list[int]]:
    """At least half zeros: a unit upper-triangular leading block of random side,
    at most size^2 // 2 nonzeros in all, and now and then a zero row or column."""
    block = rng.randint(0, min(size, size * size // 2))
    rows = [[int(i == j < block) for j in range(size)] for i in range(size)]
    free = [(i, j) for i in range(size) for j in range(size) if not (i >= j and j < block)]
    for i, j in rng.sample(free, rng.randint(0, size * size // 2 - block)):
        rows[i][j] = rng.choice([v for v in range(-9, 10) if v])
    if rng.random() < 0.3:
        rows[rng.randrange(size)] = [0] * size
    if rng.random() < 0.3:
        j = rng.randrange(size)
        for row in rows:
            row[j] = 0
    return rows


def test_det_skips_settled_rows_exactly():
    # rows with a zero in the pivot column are skipped when piv == prev and
    # scaled by piv / prev otherwise; the unit block makes the first case common
    rng = random.Random(43)
    for _ in range(600):
        rows = sparse_rows(rng, rng.randint(1, 7))
        assert 2 * sum(v == 0 for row in rows for v in row) >= len(rows) ** 2
        assert det_exact(IntMatrix(rows)) == helpers.cofactor_det(rows), rows


@st.composite
def bareiss_shapes(draw):
    """Side 0..7, entries -8..8, led by an upper-triangular block with diagonal
    (c, 1, 1, ...): its pivots repeat, piv == prev, and are units when c = 1.
    The row below the block may be zero through the diagonal, a zero pivot that
    needs a swap, and a column may be all zero, which gives det 0."""
    size = draw(st.integers(0, 7))
    row = st.lists(st.integers(-8, 8), min_size=size, max_size=size)
    rows = draw(st.lists(row, min_size=size, max_size=size))
    block = draw(st.integers(0, size))
    scale = draw(st.sampled_from([1, 1, -1, 2, -3, 8]))
    for i in range(block):
        rows[i][:i + 1] = [0] * i + [scale if i == 0 else 1]
    if block < size and draw(st.booleans()):
        rows[block][:block + 1] = [0] * (block + 1)
    if size and draw(st.booleans()):
        j = draw(st.integers(0, size - 1))
        for r in rows:
            r[j] = 0
    return rows


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(bareiss_shapes())
def test_det_property_reaches_every_bareiss_branch(rows):
    assert det_exact(IntMatrix(rows)) == helpers.cofactor_det(rows)


def test_det_matches_sympy_on_lemma_matrices():
    sympy = pytest.importorskip("sympy")
    from gf2parity.lemma_lab import gen_general_matrix, gen_l2_matrix, instance_seed

    for i in range(40):
        for inst in (gen_general_matrix(instance_seed(71, "GENERAL", i), 11),
                     gen_l2_matrix(instance_seed(73, "L2", i), 5, 7)):
            rows = inst.matrix.rows
            assert det_exact(inst.matrix) == sympy.Matrix(rows).det(), rows


def test_det_non_square_refused():
    with pytest.raises(ValueError):
        det_exact(IntMatrix([[1, 2, 3], [4, 5, 6]]))


def test_det_mod8_gated_by_exact():
    rng = random.Random(41)
    for _ in range(300):
        size = rng.randint(1, 8)
        rows = [[rng.randint(-20, 20) for _ in range(size)] for _ in range(size)]
        assert int(helpers.det_mod8(rows)) == det_exact(IntMatrix(rows)) % 8


def test_det_mod8_even_determinants():
    # exercise the exact fallback with matrices lacking odd pivots
    rng = random.Random(43)
    for _ in range(100):
        size = rng.randint(2, 6)
        rows = [[2 * rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]
        assert int(helpers.det_mod8(rows)) == det_exact(IntMatrix(rows)) % 8


def test_det_mod8_edge_shapes():
    # no odd pivot at all, or an even minor left after the odd pivots run out
    cases = [
        [],
        [[5]],
        [[6]],
        [[2, 0], [0, 2]],
        [[2, 4], [6, 2]],
        [[2, 2, 2], [2, 4, 6], [0, 2, 4]],
        [[1, 3, 5, 7], [2, 1, 0, 4], [0, 0, 2, 2], [0, 0, 4, 6]],
        [[0, 0, 2, 6], [3, 1, 5, 7], [0, 0, 6, 2], [1, 2, 4, 3]],
        [[1, 0, 2], [0, 2, 0], [4, 0, 1]],
    ]
    for rows in cases:
        assert helpers.det_mod8(rows) == det_exact(IntMatrix(rows)) % 8, rows
    assert helpers.det_mod8([[2, 0], [0, 2]]) == 4
    rng = random.Random(71)
    for _ in range(200):
        size = rng.randint(1, 7)
        odd = rng.randint(0, size)  # rows free to hold odd entries; the rest all even
        rows = [[rng.randint(-9, 9) if i < odd else 2 * rng.randint(-4, 4)
                 for _ in range(size)] for i in range(size)]
        rng.shuffle(rows)
        assert helpers.det_mod8(rows) == det_exact(IntMatrix(rows)) % 8, rows
        if odd == 0 and size >= 3:
            assert helpers.det_mod8(rows) == 0


# -- resultants ----------------------------------------------------------------

def test_resultant_examples():
    assert resultant([0, 1], [3, 0, 1]) == 3
    assert resultant([1, 0, 1], [1, 1]) == 2
    assert resultant([-1, 0, 1], [-1, 1]) == 0
    assert int(resultant_mod8(terms([0, 1]), terms([3, 0, 1]))) == 3
    assert int(resultant_mod8(terms([1, 0, 1]), terms([1, 1]))) == 2


def test_resultant_mod8_matches_exact():
    # g zero-padded wherever its random top coefficients are 0
    rng = random.Random(73)
    for _ in range(300):
        f = rand_monic(rng, rng.randint(0, 6))
        degree = rng.randint(0, 9)
        g = [rng.randint(-20, 20) for _ in range(degree + 1)]
        assert resultant_mod8(terms(f), terms(g)) == resultant(f, g) % 8, (f, g)


def test_resultant_mod8_edge_cases():
    assert resultant_mod8(terms([1]), terms([3, 0, 1])) == 1  # deg f = 0
    assert resultant_mod8(terms([1]), terms([0, 0, 0])) == 1
    assert resultant_mod8(terms([1, 0, 1]), terms([0, 0])) == 0
    assert resultant_mod8(terms([3, -2, 0, 1]), terms([0, 0, 0])) == 0
    with pytest.raises(ValueError):
        resultant([1, 1], [])  # the exact path needs g's degree


def test_resultant_mod8_refuses_non_monic_f():
    for f in ([1, 0, 2], [1, 1, -1], [3], []):
        with pytest.raises(ValueError, match="monic"):
            resultant_mod8(terms(f), terms([1, 1]))
    assert resultant([1, 0, 2], [1, 1]) == 3  # the exact path takes any f


def test_resultant_mod8_terms_matches_exact():
    # sparse terms in any order, coefficients outside 0..7 included
    rng = random.Random(75)
    for _ in range(300):
        n = rng.randint(0, 12)
        f_terms = [(n, 1)] + [(e, rng.randint(-20, 20)) for e in rng.sample(range(n), min(n, 3))]
        g_terms = [(e, rng.randint(-20, 20)) for e in rng.sample(range(15), rng.randint(1, 4))]
        rng.shuffle(f_terms)
        f, g = helpers.dense(f_terms), helpers.dense(g_terms)
        if not g:
            continue
        assert resultant_mod8(f_terms, g_terms) == resultant(f, g) % 8, (f, g)
    for f_terms in ([(2, 9), (0, 1)], [(1, 1), (3, 0)], []):
        with pytest.raises(ValueError, match="monic"):
            resultant_mod8(f_terms, [(0, 1)])


# Each case below is built so that the first Euclid step of
# resultant_mod8 takes one branch: g has degree below deg f, so
# reducing it mod f changes nothing, and its lanes mod 8 decide the branch.

def _monic_terms(rng, a):
    return [(i, rng.randint(-9, 9)) for i in range(a)] + [(a, 1)]


def _even(rng):
    return 2 * rng.randint(-4, 4)


def _branch_g(rng, branch, a):
    """Coefficients of g, lowest first, of degree m below a >= 3."""
    m = rng.randint(2, a - 1)
    if branch == "odd_lc":
        return [rng.randint(-9, 9) for _ in range(m)] + [2 * rng.randint(-4, 4) + 1]
    # an even leading coefficient: B = P U mod 8 with P = B mod 2 lifted
    g = [_even(rng) for _ in range(m)] + [rng.choice((2, 4, 6))]
    if branch == "split_unit_p":
        g[0] += 1  # B = 1 mod 2, so P = 1
    elif branch == "split_odd_constant":
        d = rng.randint(1, m - 1)  # P of degree d with P(0) odd
        g[0] += 1
        g[d] += 1
        for i in range(1, d):
            g[i] += rng.randint(0, 1)
    elif branch == "split_even_constant":
        g[rng.randint(1, m - 1)] += 1  # P of positive degree with P(0) even
    return g


@pytest.mark.parametrize("branch", [
    "odd_lc", "split_odd_constant", "split_unit_p", "split_even_constant"])
def test_resultant_mod8_terms_branches(branch):
    rng = random.Random(f"branch:{branch}")
    for a in range(3, 41):
        f_terms = _monic_terms(rng, a)
        g = _branch_g(rng, branch, a)
        want = resultant(helpers.dense(f_terms), g) % 8
        assert resultant_mod8(f_terms, terms(g)) == want, (f_terms, g)


@pytest.mark.parametrize("lanes", [5, 6])
@pytest.mark.parametrize("a", [3, 4])
def test_resultant_mod8_unit_remainder_is_its_own_cofactor(a, lanes):
    # g = 1 mod 2 with an even leading coefficient: the first split has d = 0,
    # P = 1 and U = g, with g zero-padded to lanes - 1 so that the lanes sit
    # on either side of the switch from one byte to two
    rng = random.Random(f"unit:{a}:{lanes}")
    for _ in range(100):
        f_terms = _monic_terms(rng, a)
        m = rng.randint(1, a - 1)
        g = [_even(rng) + 1] + [_even(rng) for _ in range(m - 1)] + [rng.choice((2, 4, 6))]
        g += [0] * (lanes - len(g))
        assert intres._lane_bytes(lanes) == (1 if lanes == 5 else 2)
        want = resultant(helpers.dense(f_terms), g) % 8
        assert resultant_mod8(f_terms, terms(g)) == want, (f_terms, g)


def test_resultant_mod8_terms_all_even_remainder():
    # g = f + 2h reduces to the all-even 2h, and 2^a divides the resultant
    rng = random.Random(83)
    for a in range(3, 41):
        f_terms = _monic_terms(rng, a)
        f = helpers.dense(f_terms)
        g = [c + e for c, e in zip(f, [_even(rng) for _ in range(a)] + [0])]
        assert resultant_mod8(f_terms, terms(g)) == 0
        assert resultant(f, g) % 8 == 0


def test_resultant_mod8_terms_closed_forms():
    # deg f <= 2 ends in b(-c0) or b0^2 - c1 b0 b1 + c0 b1^2, g of any degree
    rng = random.Random(89)
    for _ in range(200):
        a = rng.randint(0, 2)
        f_terms = _monic_terms(rng, a)
        g = helpers.trim([rng.randint(-9, 9) for _ in range(rng.randint(1, 9))])
        if not g:
            continue
        want = resultant(helpers.dense(f_terms), g) % 8
        assert resultant_mod8(f_terms, terms(g)) == want


def test_resultant_mod8_terms_zero_g():
    # g = 0 at any declared degree: 1 for constant f, else 0
    for a in range(0, 41):
        f = [1] * (a + 1)
        got = resultant_mod8(terms(f), [])
        assert got == (1 if a == 0 else 0)
        for declared in (0, 1, a + 3):
            g = [0] * (declared + 1)
            assert resultant_mod8(terms(f), terms(g)) == resultant(f, g) % 8 == got


def _mod8_multiplication_rows(f_coeffs, g_coeffs):
    """Rows x^j g mod f with entries in 0..7, for monic f given lowest first."""
    n = len(f_coeffs) - 1
    h = [c % 8 for c in g_coeffs]
    rows = []
    for _ in range(n):
        for k in range(len(h) - 1, n - 1, -1):
            c = h.pop()
            for i in range(n):
                h[k - n + i] = (h[k - n + i] - c * f_coeffs[i]) % 8
        h += [0] * (n - len(h))
        rows.append(h)
        h = [0, *h]
    return rows


def test_resultant_mod8_terms_dense_even_heavy_at_the_cap():
    # degree 511 with mostly even coefficients drives many Hensel splits; the
    # work list keeps the call stack flat, and the mod-8 elimination of the
    # 511 x 511 multiplication matrix gives the same value
    rng = random.Random(97)
    for _ in range(2):
        f = [rng.choice((0, 2, 4, 6, 1)) for _ in range(511)] + [1]
        g = [rng.choice((0, 2, 4, 6, 1, 3)) for _ in range(511)]
        got = resultant_mod8(terms(f), enumerate(g))
        assert got == helpers.det_mod8(_mod8_multiplication_rows(f, g))


def test_resultant_mod8_long_hensel_factors():
    # g = P U mod 8 with P monic and U = 1 mod 2, both of degree 6 or more:
    # splitting g multiplies two such factors, whose product coefficients
    # can pass 255 and would carry out of a one-byte lane
    rng = random.Random(3)
    for _ in range(200):
        d, u = rng.randint(6, 26), rng.randint(6, 26)
        P = [rng.randint(0, 7) for _ in range(d)] + [1]
        U = [rng.choice((1, 3, 5, 7))] + [rng.choice((0, 2, 4, 6)) for _ in range(u - 1)]
        g = [c % 8 for c in helpers.poly_mul(P, U + [rng.choice((2, 4, 6))])]
        f = [rng.randint(0, 7) for _ in range(rng.randint(d + u + 1, 60))] + [1]
        assert resultant_mod8(terms(f), terms(g)) == resultant(f, g) % 8, (f, g)


def test_lane_bytes_is_the_fewest_that_hold_a_product_coefficient():
    # a product of two polynomials with at most `lanes` coefficients in 0..7
    # has coefficients up to 49 lanes; one byte holds 5 lanes, two 1,337
    widths = [intres._lane_bytes(lanes) for lanes in range(1, 4097)]
    for lanes, w in enumerate(widths, 1):
        assert 49 * lanes < 256 ** w and (w == 1 or 49 * lanes >= 256 ** (w - 1)), lanes
    assert widths.index(2) + 1 == 6 and widths.index(3) + 1 == 1338


def test_resultant_mod8_one_shot_g_far_above_f():
    # g_terms is read once, as a generator, and its top exponent sets the
    # lanes: reducing it mod f first divides across about 300 lanes
    rng = random.Random(5)
    for n in (1, 3, 4, 9, 40):
        f = rand_monic(rng, n)
        g = [rng.randint(-9, 9) for _ in range(300)] + [rng.choice((1, 2, 3))]
        want = resultant(f, g) % 8
        assert resultant_mod8(terms(f), ((e, c) for e, c in enumerate(g) if c)) == want, n


@st.composite
def _split_pairs(draw):
    """Monic f of degree 0..40 and g = P U mod 8, P monic of degree 0..20 and
    U = 1 mod 2 of degree 1..25 with an even leading coefficient: g splits
    into these P and U when it is below f's degree."""
    f = draw(st.lists(st.integers(-20, 20), max_size=40)) + [1]
    p = draw(st.lists(st.integers(0, 7), max_size=20)) + [1]
    u = [draw(st.sampled_from((1, 3, 5, 7)))]
    u += [2 * c for c in draw(st.lists(st.integers(0, 3), max_size=24))]
    u.append(draw(st.sampled_from((2, 4, 6))))
    return f, [c % 8 for c in helpers.poly_mul(p, u)]


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_split_pairs())
def test_resultant_mod8_property_on_split_g(pair):
    f, g = pair
    assert resultant_mod8(terms(f), terms(g)) == resultant(f, g) % 8


@st.composite
def _lane_switch_pairs(draw):
    """Monic f and g terms whose lanes = 1 + max(deg f, top exponent of g) sit
    on either side of a lane-width switch: 5 or 6 (one byte or two), through
    either argument, and 1,337 or 1,338 (two bytes or three), through g's top
    exponent over an f of degree 0..8. g is sparse, and its top coefficient
    may be 0 mod 8."""
    lanes = draw(st.sampled_from((5, 6, 1337, 1338)))
    if lanes < 7 and draw(st.booleans()):
        n, top = lanes - 1, draw(st.integers(0, lanes - 1))
    else:
        n, top = draw(st.integers(0, min(8, lanes - 2))), lanes - 1
    f = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)) + [1]
    below = draw(st.sets(st.integers(0, top - 1), max_size=12)) if top else set()
    g_terms = [(e, draw(st.integers(-20, 20))) for e in (*sorted(below), top)]
    return f, g_terms, lanes


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(_lane_switch_pairs())
def test_resultant_mod8_property_at_the_lane_switches(pair):
    f, g_terms, lanes = pair
    top = g_terms[-1][0]
    assert 1 + max(len(f) - 1, top) == lanes
    g = [0] * (top + 1)
    for e, c in g_terms:
        g[e] = c
    assert resultant_mod8(terms(f), g_terms) == resultant(f, g) % 8


def test_r1_reduction_invariance():
    # monic f: R(f, g) = R(f, g - q f) for any integer polynomial q
    rng = random.Random(47)
    checked = 0
    while checked < 200:
        f = rand_monic(rng, rng.randint(1, 5))
        g = rand_int_poly(rng, rng.randint(1, 6))
        q = rand_int_poly(rng, rng.randint(0, 2), lo=-3, hi=3)
        reduced = helpers.poly_sub(g, helpers.poly_mul(f, q))
        if not reduced:
            continue
        assert resultant(f, reduced) == resultant(f, g)
        checked += 1


def test_r2_linear_forms():
    rng = random.Random(53)
    x = [0, 1]
    minus_x = [0, -1]
    for _ in range(200):
        g = rand_int_poly(rng, rng.randint(1, 6))
        f = rand_int_poly(rng, rng.randint(1, 6))
        assert resultant(x, g) == g[0]
        assert resultant(f, minus_x) == f[0]


def test_r3_multiplicativity():
    rng = random.Random(59)
    for _ in range(150):
        f1 = rand_monic(rng, rng.randint(1, 3))
        f2 = rand_monic(rng, rng.randint(1, 3))
        g = rand_int_poly(rng, rng.randint(1, 4), lo=-5, hi=5)
        assert resultant(helpers.poly_mul(f1, f2), g) == resultant(f1, g) * resultant(f2, g)


def test_padding_invariance():
    rng = random.Random(61)
    for _ in range(150):
        f = rand_monic(rng, rng.randint(1, 5))
        g = rand_int_poly(rng, rng.randint(0, 4), lo=-5, hi=5)
        base = resultant(f, g)
        for k in (1, 2, 3):
            padded = g + [0] * k
            assert resultant(f, padded) == base == helpers.resultant_bareiss(f, padded)


# -- the exact resultant against the Bareiss oracle -----------------------------

def test_discriminant_of_the_all_ones_polynomial_up_to_the_degree_cap():
    # 1 + x + ... + x^n = (x^(n+1) - 1) / (x - 1), whose discriminant is
    # (-1)^(n(n-1)/2) (n+1)^(n-1): at MAX_DEGREE the largest Hadamard bound
    # |f|^m |f'|^n of any 0/1 lift
    for n in (*range(2, 19), 255, MAX_DEGREE):
        want = (-1) ** (n * (n - 1) // 2) * (n + 1) ** (n - 1)
        assert intres.discriminant_int([1] * (n + 1)) == want, n


def test_resultant_with_leading_coefficients_near_2_81():
    # leading coefficients that are, or are multiples of, 2^81 - 51 and 2^81 - 63
    p0, p1 = (1 << 81) - 51, (1 << 81) - 63
    cases = [([1, 2, p0], [3, 1]), ([5, -1, -p0], [2, 0, 1]), ([1, 1, 3 * p0], [1, p1]),
             ([-3, 1, p0 * p1], [4, -1, 1]), ([7, p0], [1, 2, 3, -p1])]
    for f, g in cases:
        assert resultant(f, g) == helpers.resultant_bareiss(f, g), (f, g)
    assert resultant([1, 2, p0], [3, 1]) == p0 * 9 - 2 * 3 + 1  # f(-3)


def test_resultant_sequence_with_a_degree_gap():
    # remainders that drop two or three degrees: delta > 1 at the first
    # step, then at a later step, where h is no longer 1 and becomes
    # g^delta / h^(delta-1) (the last three), with the divisor g h^delta
    cases = [([3, 0, -2, 1, 0, 5, 2], [1, 4, 0, -3, 7]),
             ([1, 0, 0, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 1]),
             ([3, 0, 1, -1, 0, -1, 1, 2], [0, 0, 0, 0, 0, -2]),
             ([3, -1, 0, 3, -1, 3, 0, 1, 2], [-2, 0, 0, 0, -2, 0, 0, 2]),
             ([-1, -1, -1, 0, 1, 2], [0, 5, 0, 0, -2])]
    for f, g in cases:
        assert resultant(f, g) == helpers.resultant_bareiss(f, g), (f, g)
        assert resultant(g, f) == helpers.resultant_bareiss(g, f), (g, f)


def test_resultant_smaller_first_degree_with_both_odd():
    # deg f < deg g swaps the pair, with sign (-1)^(nm) = -1 when both are odd
    rng = random.Random(139)
    for n, m in ((1, 3), (3, 5), (3, 7), (5, 9), (1, 11)):
        for _ in range(20):
            f, g = rand_int_poly(rng, n, lo=-6, hi=6), rand_int_poly(rng, m, lo=-6, hi=6)
            assert resultant(f, g) == helpers.resultant_bareiss(f, g), (f, g)
            assert resultant(f, g) == -resultant(g, f), (f, g)


def test_resultant_two_adic_division_on_large_coefficients(monkeypatch):
    # coefficients of hundreds of bits, with even leads, make divisors past
    # _TWO_ADIC_BITS, whose power of 2 is shifted out before the inverse
    rng = random.Random(151)
    for _ in range(40):
        bits = rng.choice((200, 400, 700))
        f = [rng.randint(-(1 << bits), 1 << bits) for _ in range(rng.randint(2, 6))]
        g = [rng.randint(-(1 << bits), 1 << bits) for _ in range(rng.randint(2, 6))]
        f[-1] = f[-1] << 3 or 8
        g[-1] = g[-1] << 1 or 2
        want = helpers.resultant_bareiss(f, g)
        assert resultant(f, g) == want, (f, g)
        monkeypatch.setattr(intres, "_TWO_ADIC_BITS", 0)  # every step 2-adic
        assert resultant(f, g) == want, (f, g)
        monkeypatch.setattr(intres, "_TWO_ADIC_BITS", 1 << 30)  # every step by //
        assert resultant(f, g) == want, (f, g)
        monkeypatch.undo()


def test_divide_2adic_matches_floor_division():
    # negative divisors, divisors with a large power of 2, zero and single quotients
    rng = random.Random(157)
    for _ in range(300):
        d = (rng.getrandbits(rng.randint(1, 3000)) | 1) << rng.choice((0, 1, 7, 64, 700))
        d = rng.choice((d, -d))
        qs = [rng.choice((0, rng.randint(-(1 << 2500), 1 << 2500), rng.randint(-3, 3)))
              for _ in range(rng.randint(1, 6))]
        qs[rng.randrange(len(qs))] = rng.choice((-1, 1, 1 << 900))
        assert intres._divide_2adic([q * d for q in qs], d) == qs


@st.composite
def _int_pairs(draw):
    """Half dense pairs, half pairs with a planned degree gap: f = q g + r with
    |lc(g)| >= 2, deg q >= 1 and 1 <= deg r <= deg g - 2, so the sequence
    drops two degrees or more at its second step, where h = lc(g)^deg q."""
    coeff = st.integers(-12, 12)
    if draw(st.booleans()):
        g = draw(st.lists(coeff, min_size=3, max_size=7)) + [draw(st.sampled_from((-3, -2, 2, 5)))]
        q = draw(st.lists(coeff, min_size=1, max_size=3)) + [draw(st.sampled_from((-1, 1, 3)))]
        r = draw(st.lists(coeff, min_size=1, max_size=len(g) - 3)) + [draw(st.sampled_from((-2, 1, 4)))]
        f = helpers.poly_mul(q, g)
        for i, c in enumerate(r):
            f[i] += c
        return (f, g) if draw(st.booleans()) else (g, f)
    f = draw(st.lists(coeff, min_size=1, max_size=10).filter(lambda f: f[-1]))
    g = draw(st.lists(coeff, min_size=1, max_size=10))
    if g[-1] == 0 and f[-1] != 1:
        g[-1] = draw(st.sampled_from((-4, -1, 2, 3)))
    return f, g


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_int_pairs())
def test_resultant_property_against_bareiss(pair):
    f, g = pair
    assert resultant(f, g) == helpers.resultant_bareiss(f, g)


def test_resultant_zero_from_a_common_factor():
    # the remainder sequence ends at a zero remainder after one step or several;
    # fixed pairs with non-monic and negative leads first, both ways round
    pairs = [(helpers.poly_mul(c, u), helpers.poly_mul(c, v))
             for c in ([2, -3], [1, 1, 1], [-5, 0, 3])
             for u, v in (([1, 2, -1, 4], [-3, 0, 2]), ([7, -2], [1, 1, 0, -6]),
                          ([0, 1, 0, 0, -1], [3, -1, 2, 5, -2]))]
    pairs += [(g, f) for f, g in pairs]
    rng = random.Random(103)
    for _ in range(100):
        common = rand_int_poly(rng, rng.randint(1, 3), lo=-5, hi=5)
        f = helpers.poly_mul(common, rand_int_poly(rng, rng.randint(0, 6)))
        g = helpers.poly_mul(common, rand_int_poly(rng, rng.randint(0, 6)))
        pairs.append((f, g))
    for f, g in pairs:
        assert resultant(f, g) == 0 == helpers.resultant_bareiss(f, g), (f, g)


def test_resultant_negative_coefficients():
    rng = random.Random(107)
    for _ in range(200):
        f = rand_int_poly(rng, rng.randint(1, 10), lo=-40, hi=-1)
        g = rand_int_poly(rng, rng.randint(1, 10), lo=-40, hi=3)
        assert resultant(f, g) == helpers.resultant_bareiss(f, g), (f, g)


def test_resultant_constant_g():
    # res(f, c) = c^deg f for any f, monic or not
    rng = random.Random(109)
    for _ in range(100):
        f = rand_int_poly(rng, rng.randint(1, 12))
        c = rng.choice([-7, -2, -1, 1, 3, 8, 2**70 + 1])
        assert resultant(f, [c]) == c ** (len(f) - 1) == helpers.resultant_bareiss(f, [c])


def test_resultant_constant_f_at_every_declared_degree():
    # a constant f gives f0^m, m the declared degree of g, also for a zero g
    for declared in range(0, 6):
        zero = [0] * (declared + 1)
        assert resultant([1], zero) == 1 == helpers.resultant_bareiss([1], zero)
        for f0 in (-3, -1, 2, 5):
            g = [1] * declared + [4]
            assert resultant([f0], g) == f0 ** declared == helpers.resultant_bareiss([f0], g)
    for f in ([-1, 1], [2, 0, 1]):
        for declared in range(0, 4):
            assert resultant(f, [0] * (declared + 1)) == 0


def test_resultant_matches_bareiss_oracle_on_seeded_inputs():
    # small pairs of every kind, then larger ones up to degree 127; padded g
    # only under a monic f, as the layout requires
    rng = random.Random(113)
    for _ in range(400):
        monic = rng.random() < 0.5
        n = rng.randint(0, 12)
        f = rand_monic(rng, n) if monic else rand_int_poly(rng, n)
        g = rand_int_poly(rng, rng.randint(0, 12), lo=-30, hi=30)
        if monic:
            g += [0] * rng.randint(0, 2)
        assert resultant(f, g) == helpers.resultant_bareiss(f, g), (f, g)
    for n, m in ((127, 5), (127, 12), (96, 31), (40, 40)):
        f, g = rand_int_poly(rng, n), rand_int_poly(rng, m)
        assert resultant(f, g) == helpers.resultant_bareiss(f, g), (n, m)
    # orthogonal Sylvester rows: res = 1 + c^2 is the Hadamard bound itself,
    # here near 3/4 of 2^81 - 51, past half of any 81-bit modulus
    c = math.isqrt(3 * ((1 << 81) - 51) // 4)
    assert resultant([c, 1], [1, -c]) == helpers.resultant_bareiss([c, 1], [1, -c]) == 1 + c * c


def test_discriminant_matches_bareiss_oracle_up_to_degree_127():
    # the multiplication-matrix oracle: dense at degree 64, sparse at 127
    rng = random.Random(127)
    for n in (2, 3, 9, 33, 64):
        f = rand_monic(rng, n, lo=-3, hi=3)
        assert discriminant_int(f) == helpers.discriminant_bareiss(f), f
    for exps in ((127, 5, 3, 1, 0), (127, 9, 7, 0), (127, 30, 17, 0)):
        f = lift_01(from_exponents(exps))
        assert discriminant_int(f) == helpers.discriminant_bareiss(f), exps


@pytest.mark.parametrize("n, ks", [(127, (1, 63, 126)), (255, (1, 85, 102, 254)),
                                   (511, (1, 7, 219, 350, 510))])
def test_discriminant_int_matches_swan_on_trinomials(n, ks):
    # Swan's closed form is exact at any degree: at n = 511, |disc| has 4,598
    # bits. k shares 85 or 51 with 255, and
    # 73 or 7 with 511
    for k in ks:
        f = [1] + [0] * (n - 1) + [1]
        f[k] += 1
        assert discriminant_int(f) == helpers.swan_trinomial_disc(n, k), (n, k)


def test_exact_discriminant_agrees_with_the_mod8_path():
    # the remainder sequence over Z and the Hensel-split Euclid over Z/8 share nothing, and
    # together they reach degrees the Bareiss oracle cannot in test time
    rng = random.Random(131)
    for _ in range(6):  # f mod f' has degree below 64, which keeps each cheap
        mids = rng.sample(range(1, 64), rng.randint(1, 6))
        f = from_exponents({511, 0, *mids})
        assert discriminant_int(lift_01(f)) % 8 == discriminant_mod8(f), sorted(mids)
    for _ in range(3):
        f = helpers.random_squarefree_bits(rng, 127)
        assert discriminant_int(lift_01(f)) % 8 == discriminant_mod8(f) in (1, 5)
    # query-shaped, with middle exponents above n/2: each splits off a U of
    # degree u below a third of the remainder it pairs with, so only the
    # top 3u coefficients of that remainder reach the cofactor pair
    for exps in ((255, 244, 221, 27, 0), (255, 190, 170, 0), (511, 300, 0), (511, 258, 0)):
        f = from_exponents(exps)
        assert discriminant_int(lift_01(f)) % 8 == discriminant_mod8(f), exps


# -- discriminants -------------------------------------------------------------

def test_discriminant_examples():
    assert discriminant_int([1, 1, 1]) == -3
    assert discriminant_int([1, 1, 0, 1]) == -31
    witness = lift_01(from_exponents((21, 7, 0)))
    assert discriminant_int(witness) % 8 == 1


def test_discriminant_mod8_examples():
    assert int(discriminant_mod8(from_exponents((3, 1, 0)))) == 1
    assert int(discriminant_mod8(from_exponents((2, 1, 0)))) == 5
    assert int(discriminant_mod8(from_exponents((11, 1, 0)))) == 5


def test_discriminant_degree_guard():
    with pytest.raises(ValueError):
        discriminant_int([1, 1])


def test_squarefree_lift_discriminant_in_1_5():
    rng = random.Random(67)
    for _ in range(150):
        f = helpers.random_squarefree_bits(rng, rng.randrange(2, 16))
        assert is_squarefree(f)
        assert int(discriminant_mod8(f)) in (1, 5)


def test_discriminant_int_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(101)
    for n in (13, 29, 47, 80):
        f = rand_monic(rng, n, lo=-3, hi=3)
        F = sympy.Poly(list(reversed(f)), x)
        assert discriminant_int(f) == sympy.discriminant(F), f
        lifted = lift_01(helpers.random_bits(rng, n))
        F = sympy.Poly(list(reversed(lifted)), x)
        assert discriminant_int(lifted) == sympy.discriminant(F), lifted


def test_discriminant_mod8_matches_sympy_above_oracle_cap():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(79)
    checked = 0
    while checked < 20:
        f = helpers.random_bits(rng, rng.randint(13, 40))
        if not is_squarefree(f):
            continue
        F = sympy.Poly(sum(x ** e for e in exponents(f)), x)
        assert discriminant_mod8(f) == sympy.discriminant(F) % 8, format_poly(f)
        checked += 1
