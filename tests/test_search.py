"""Candidate enumeration, scan classification, and the corollary audit."""

import json
import math
import pickle
import random
import time
from array import array

import pytest

from gf2parity import cli, search
from gf2parity.gf2poly import (
    exponents,
    format_poly,
    from_exponents,
    is_irreducible,
    parse_poly,
    trace_spectrum,
)
from gf2parity.pool import pool_size
from gf2parity.search import (
    MAX_CANDIDATES_PER_DEGREE,
    SearchQuery,
    _LaneScreen,
    _audit_pool,
    _audit_survivors,
    _candidate_count,
    _frobenius_by_roots,
    _frobenius_by_squares,
    _frobenius_irreducible,
    _middle_tuples,
    corollary_audit,
    enumerate_candidates,
    scan,
)

import helpers


# -- queries and enumeration -----------------------------------------------------

def test_query_validation():
    with pytest.raises(ValueError):
        SearchQuery(n_lo=9, n_hi=5)
    with pytest.raises(ValueError):
        SearchQuery(n_lo=5, n_hi=9, shape="septanomial")
    with pytest.raises(ValueError):
        SearchQuery(n_lo=5, n_hi=9, mod8=frozenset({2}))


def test_query_normalises_mod8_to_a_frozenset():
    q = SearchQuery(n_lo=5, n_hi=9, mod8={1, 7})
    assert q.mod8 == frozenset({1, 7}) and type(q.mod8) is frozenset
    assert q == SearchQuery(n_lo=5, n_hi=9, mod8=frozenset({1, 7}))
    assert hash(q) == hash(SearchQuery(n_lo=5, n_hi=9, mod8=frozenset({7, 1})))


def test_records_are_frozen_and_pickle():
    # the spawn pool sends queries to its workers and records back
    q = SearchQuery(n_lo=5, n_hi=9, shape="pentanomial", mod8={5})
    records = [q, scan(q)[0], corollary_audit(11, 11).rows[0]]
    for rec, field in zip(records, ("n_hi", "irreducible", "violations")):
        for name in (field, "note"):  # no field changes, and none is added
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
        back = pickle.loads(pickle.dumps(rec))
        assert (type(back), back) == (type(rec), rec)


def test_enumerate_trinomials_n7_odd():
    q = SearchQuery(n_lo=7, n_hi=7, shape="trinomial", exponents="odd-only")
    got = list(enumerate_candidates(q))
    assert got == [parse_poly("x^7+x^5+1"), parse_poly("x^7+x^3+1"),
                   parse_poly("x^7+x+1")]


def test_enumerate_pentanomials_n5_odd_empty():
    q = SearchQuery(n_lo=5, n_hi=5, shape="pentanomial", exponents="odd-only")
    assert list(enumerate_candidates(q)) == []


def test_enumerate_trinomials_n8_all():
    q = SearchQuery(n_lo=8, n_hi=8, shape="trinomial")
    got = list(enumerate_candidates(q))
    assert len(got) == 7
    assert got[0] == parse_poly("x^8+x^7+1")
    assert got[-1] == parse_poly("x^8+x+1")


def test_enumerate_any_support_small():
    q = SearchQuery(n_lo=4, n_hi=4, shape="any-support")
    got = list(enumerate_candidates(q))
    # 2^3 - 1 nonempty subsets of {3,2,1}
    assert len(got) == 7
    assert got[0] == parse_poly("x^4+x^3+1")


def test_enumeration_is_stable():
    q = SearchQuery(n_lo=5, n_hi=16, shape="pentanomial", exponents="odd-only")
    a = list(enumerate_candidates(q))
    b = list(enumerate_candidates(q))
    assert a == b


def test_m1_bound_filters():
    q = SearchQuery(n_lo=11, n_hi=11, shape="trinomial", exponents="odd-only",
                    m1_bound="below-n-over-3")
    got = list(enumerate_candidates(q))
    assert got == [parse_poly("x^11+x^3+1"), parse_poly("x^11+x+1")]
    q = SearchQuery(n_lo=11, n_hi=11, shape="trinomial", exponents="odd-only",
                    m1_bound="at-least-n-over-3")
    assert all(3 * exponents(f)[1] >= 11 for f in enumerate_candidates(q))


# -- scan ------------------------------------------------------------------------

def test_scan_n21_sharpness_record():
    q = SearchQuery(n_lo=21, n_hi=21, shape="trinomial", exponents="odd-only")
    by_exp = {r.exponents: r for r in scan(q)}
    rec = by_exp[(21, 7, 0)]
    assert rec.irreducible
    assert rec.am_single_trace
    assert not rec.m1_lt_n_over_3
    assert rec.predicted_parity is None  # {7} fails the support test at n=21
    assert rec.observed_parity == "odd"


def test_scan_n11_x_plus_one_even():
    q = SearchQuery(n_lo=11, n_hi=11, shape="trinomial")
    for full in (False, True):
        recs = [r for r in scan(q, full_check=full) if r.exponents == (11, 1, 0)]
        assert recs[0].observed_parity == "even"
        assert recs[0].predicted_parity == "even"
        assert not recs[0].irreducible


def test_scan_n7_irreducible():
    q = SearchQuery(n_lo=7, n_hi=7, shape="trinomial", exponents="odd-only")
    recs = {r.exponents: r for r in scan(q)}
    assert recs[(7, 3, 0)].irreducible


def test_scan_shortcut_agrees_with_full_check():
    q = SearchQuery(n_lo=5, n_hi=21, shape="trinomial", exponents="odd-only")
    fast = scan(q)
    slow = scan(q, full_check=True)
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a.exponents == b.exponents
        assert a.observed_parity == b.observed_parity
        assert a.irreducible == b.irreducible
        assert a.predicted_parity == b.predicted_parity


def test_scan_valid_records_have_matching_parities():
    q = SearchQuery(n_lo=5, n_hi=31, shape="trinomial", exponents="odd-only")
    for rec in scan(q, full_check=True):
        if rec.predicted_parity is not None:
            assert rec.predicted_parity == rec.observed_parity, rec.exponents


def test_scan_parity_matches_swan_trinomial_discriminant_at_the_cap():
    # Stickelberger on Swan's closed-form disc(x^n + x^k + 1): the factor count
    # has the parity of n iff disc = 1 mod 8; an even disc means f is not squarefree
    recs = scan(SearchQuery(509, 511, "trinomial"), full_check=True)
    assert len(recs) == 1527
    checked = 0
    for rec in recs:
        n, k, _ = rec.exponents
        disc = helpers.swan_trinomial_disc(n, k)
        if disc % 2 == 0:
            continue
        want = "odd" if (n % 2 == 1) == (disc % 8 == 1) else "even"
        assert rec.observed_parity == want, rec.exponents
        checked += 1
    assert checked == 1273


def test_scan_am_flag_matches_spectrum():
    q = SearchQuery(n_lo=5, n_hi=31, shape="trinomial")
    seen = {True: 0, False: 0}
    for rec in scan(q):
        if rec.irreducible and rec.n % 2:
            single = sum(trace_spectrum(rec.poly())) == 1
            assert rec.am_single_trace == single, rec.exponents
            seen[single] += 1
    assert seen[True] and seen[False]


def test_scan_jsonl_round_trip():
    q = SearchQuery(n_lo=9, n_hi=9, shape="trinomial")
    for rec in scan(q):
        data = json.loads(rec.to_json_line())
        assert data["n"] == 9
        assert data["exponents"] == list(rec.exponents)
        if rec.predicted_parity is None:
            assert "predicted_parity" not in data


def test_scan_parallel_matches_serial():
    q = SearchQuery(n_lo=5, n_hi=19, shape="trinomial", exponents="odd-only")
    serial = scan(q)
    parallel = scan(q, jobs=2)
    assert [r.to_json_line() for r in serial] == [r.to_json_line() for r in parallel]


# -- screening -------------------------------------------------------------------

SMALL_Q = [q for q in helpers.o_irreducibles(8) if q.bit_length() - 1 >= 2]


def _residue(screen, f: int) -> int:
    res = 0
    for e in exponents(f):
        res ^= screen.powers[e]
    return res


def _zero_lane(screen, f: int) -> bool:
    in_use = screen.lanes(f.bit_length() - 1)
    return 0 in _residue(screen, f).to_bytes(len(SMALL_Q), "little")[:in_use]


def _slice_sums(screen) -> list[int]:
    """Residues of the sum of x^(2t+3) + x over t in s, for every s < 2^_LOW."""
    sums = [0]
    for t in range(search._LOW):
        flip = screen.powers[2 * t + 3] ^ screen.powers[1]
        sums += [r ^ flip for r in sums]
    return sums


def test_sliced_screen_is_exact_per_lane():
    screen = _LaneScreen(64)
    screen.grow(search._LOW)
    sums = _slice_sums(screen)
    # the residue bits of each lane: its top deg q bits
    masks = [0xFF << (8 - d) & 0xFF for d in screen.degrees]
    # residues with the top bit set, all bits set, or only the bottom bit set
    # (a residue only in degree-8 lanes), beside zero lanes
    patterns = ([0x80, 0x00, 0xFF], [0x00, 0x80], [0xFF, 0x00], [0x80, 0xFF, 0x01],
                [0x01, 0x00], [0x00, 0x01, 0xFF], [0x7F, 0x80, 0x00])
    checked = 0
    for pattern in patterns:
        for shift in range(len(pattern)):
            tiled = (pattern[shift:] + pattern[:shift]) * 69
            base = int.from_bytes(bytes(v & m for v, m in zip(tiled, masks)), "little")
            for in_use in (69, screen.lanes(5)):
                alive = screen.alive(base, in_use)
                assert alive >> len(sums) == 0
                for s, r in enumerate(sums):
                    lanes = (base ^ r).to_bytes(69, "little")[:in_use]
                    assert alive >> s & 1 == (0 not in lanes), (pattern, shift, in_use, s)
                checked += alive & 1 == 0
    assert checked >= 2 * len(patterns)  # s = 0, base itself, has zero lanes


def test_lane_screen_matches_trial_division():
    screen = _LaneScreen(128)
    assert screen.degrees == [q.bit_length() - 1 for q in SMALL_Q]
    assert len(SMALL_Q) == 69
    rng = random.Random(97)
    zero_seen = 0
    for trial in range(300):
        n = rng.randint(2, 127)
        bits = helpers.random_bits(rng, n)
        if trial % 3 == 0 and n > 8:
            # force a small divisor into a third of the samples
            q = rng.choice(SMALL_Q)
            bits = helpers.o_mul(helpers.random_bits(rng, n - q.bit_length() + 1), q)
        degree = bits.bit_length() - 1
        lanes = screen.lanes(degree)
        res = _residue(screen, bits) & (1 << 8 * lanes) - 1
        divides = False
        for i, q in enumerate(SMALL_Q):
            # lane i holds f mod q_i shifted up by 8 - deg q_i; lanes of q
            # with deg q >= deg f are masked off
            d = q.bit_length() - 1
            in_use = d < degree
            rem = helpers.o_divmod(bits, q)[1]
            assert (i < lanes) == in_use
            assert res >> 8 * i & 0xFF == (rem << (8 - d) if in_use else 0), (hex(bits), i)
            divides = divides or (in_use and rem == 0)
        assert (0 in res.to_bytes(69, "little")[:lanes]) == divides, hex(bits)
        zero_seen += divides
    assert 100 <= zero_seen < 300


def test_screen_agrees_with_full_test():
    screen = _LaneScreen(64)
    rng = random.Random(89)
    for _ in range(400):
        f = helpers.random_bits(rng, rng.randrange(2, 40))
        if _zero_lane(screen, f):
            assert not is_irreducible(f), hex(f)


def test_screen_exhaustive_small_trinomials():
    screen = _LaneScreen(64)
    for n in range(4, 20):
        for m in range(1, n):
            f = from_exponents((n, m, 0))
            survived = not _zero_lane(screen, f)
            if not survived:
                assert not is_irreducible(f), (n, m)


def test_screened_test_agrees_on_degree_one():
    screen = _LaneScreen(64)
    for text in ("x", "x+1"):
        f = parse_poly(text)
        assert screen.lanes(f.bit_length() - 1) == 0, text
        assert not _zero_lane(screen, f), text
        assert is_irreducible(f), text


# -- corollary audit ---------------------------------------------------------------

def test_audit_example_degrees():
    rep = corollary_audit(11, 13)
    rows = {r.n: r for r in rep.rows}
    assert rows[11].candidates == 3 and rows[11].irreducible == 0
    assert rows[13].candidates == 3 and rows[13].irreducible == 0
    assert rows[11].asserted and rows[13].asserted
    assert rep.ok


def test_audit_refuses_an_inverted_range():
    with pytest.raises(ValueError, match="empty degree range"):
        corollary_audit(9, 5)
    assert corollary_audit(4, 4).rows == []  # a range with no odd n >= 5


def test_audit_reporting_arm_n7():
    rep = corollary_audit(7, 7)
    row = rep.rows[0]
    assert not row.asserted
    assert row.candidates == 1
    assert row.irreducible == 1  # x^7+x+1
    assert row.violations == ()
    assert rep.ok


def test_audit_counts_match_direct_enumeration():
    rep = corollary_audit(5, 41)
    for row in rep.rows:
        pool = [i for i in range(1, row.n) if i % 2 and 3 * i < row.n]
        assert row.candidates == 2 ** len(pool) - 1
        direct = 0
        for mask in range(1, 2 ** len(pool)):
            exps = [pool[b] for b in range(len(pool)) if mask >> b & 1]
            f = from_exponents((row.n, *sorted(exps, reverse=True), 0))
            if is_irreducible(f):
                direct += 1
        assert row.irreducible == direct, row.n


def test_audit_violations_in_enumeration_order(monkeypatch):
    # every screen survivor counts as irreducible, so the asserted degrees
    # report all of them, and the order must be that of _middle_tuples
    monkeypatch.setattr(search, "_frobenius_irreducible",
                        lambda n, pool, codes: (1 << len(codes)) - 1)
    reported = 0
    for n in (19, 27, 43, 53):
        q = SearchQuery(n_lo=n, n_hi=n, shape="any-support", exponents="odd-only",
                        m1_bound="below-n-over-3")
        want = []
        for mids in _middle_tuples(q, n):
            bits = from_exponents((n, *mids, 0))
            if len(mids) % 2 == 0:
                continue  # even weight: x + 1 divides
            if any(q.bit_length() - 1 < n and helpers.o_divmod(bits, q)[1] == 0
                   for q in SMALL_Q):
                continue
            want.append(format_poly(bits))
        row = corollary_audit(n, n).rows[0]
        assert row.asserted
        assert row.violations == tuple(want), n
        assert row.irreducible == len(want)
        reported += len(want)
    assert reported == 0 + 2 + 17 + 68


def _survivor_poly(n: int, index: int) -> int:
    """The candidate of a survivor index: bit t picks pool[t + 1], and pool[0]
    makes the weight odd."""
    pool = list(_audit_pool(n))
    mids = [m for t, m in enumerate(pool[1:]) if index >> t & 1]
    if len(mids) % 2 == 0:
        mids.append(pool[0])
    return from_exponents((n, *mids, 0))


def _screen_oracle(f: int) -> bool:
    """Odd weight and no irreducible of degree 2..8, below deg f, divides f."""
    n = f.bit_length() - 1
    return f.bit_count() % 2 == 1 and all(
        helpers.o_divmod(f, q)[1] for q in SMALL_Q if q.bit_length() - 1 < n)


def test_audit_survivors_match_trial_division():
    for n in range(5, 46, 2):
        pool = list(_audit_pool(n))
        got = [_survivor_poly(n, s) for s in _audit_survivors(n)]
        assert len(set(got)) == len(got)
        want = []
        for mask in range(1, 1 << len(pool)):
            f = from_exponents((n, *(pool[t] for t in range(len(pool)) if mask >> t & 1), 0))
            if _screen_oracle(f):
                want.append(f)
        assert sorted(got) == sorted(want), n
    rng = random.Random(2105)
    # below, at and above the slice width: only the indices above it walk
    for n, side in ((71, -1), (79, 0), (85, 1), (89, 1), (99, 1), (123, 1)):
        k = len(_audit_pool(n)) - 1
        assert (k > search._LOW) - (k < search._LOW) == side, n
        indices = _audit_survivors(n)
        assert all(s >> k == 0 for s in indices)
        kept = set(indices)
        assert len(kept) == len(indices)
        for s in rng.sample(indices, 25):
            assert _screen_oracle(_survivor_poly(n, s)), (n, s)
        for s in rng.sample(range(1 << k), 25):
            assert (s in kept) == _screen_oracle(_survivor_poly(n, s)), (n, s)


def test_audit_survivors_in_either_growth_order():
    # the degrees share one screen: n = 35 grows it to 5 index bits and
    # n = 99 to _LOW, and the complement pairs must follow the rows
    got = {}
    for order in ((35, 99), (99, 35)):
        search._screen_for_cap.cache_clear()
        got[order] = {n: list(_audit_survivors(n)) for n in order}
    assert got[(35, 99)] == got[(99, 35)]
    survivors = got[(35, 99)]
    assert survivors[35] == [s for s in range(1 << 5) if _screen_oracle(_survivor_poly(35, s))]
    kept = set(survivors[99])
    rng = random.Random(2311)
    for s in rng.sample(survivors[99], 40) + rng.sample(range(1 << 15), 200):
        assert (s in kept) == _screen_oracle(_survivor_poly(99, s)), s


def test_audit_sparse_violations_across_the_walk(monkeypatch):
    # every 7th survivor counts as irreducible, at asserted degrees whose
    # survivors come from several screen passes
    monkeypatch.setattr(search, "_frobenius_irreducible",
                        lambda n, pool, codes: sum(1 << c for c in range(0, len(codes), 7)))
    for n in (85, 91):
        assert len(_audit_pool(n)) - 1 > search._LOW
        chosen = {_survivor_poly(n, s) for s in _audit_survivors(n)[::7]}
        q = SearchQuery(n_lo=n, n_hi=n, shape="any-support", exponents="odd-only",
                        m1_bound="below-n-over-3")
        want = [format_poly(f) for f in map(from_exponents, ((n, *mids, 0)
                                                             for mids in _middle_tuples(q, n)))
                if f in chosen]
        assert len(want) == len(chosen) > 100
        row = corollary_audit(n, n).rows[0]
        assert row.asserted
        assert row.violations == tuple(want), n
        assert row.irreducible == len(want)


def _frobenius_fixes_x(f: int, steps: int) -> bool:
    """x^(2^steps) = x mod f, by oracle squaring and division."""
    r = 0b10
    for _ in range(steps):
        r = helpers.o_divmod(helpers.o_mul(r, r), f)[1]
    return r == 0b10


def test_frobenius_verdict_matches_is_irreducible():
    # the pool of n = 5, 7 and 9 is the single exponent 1
    for n in (5, 7, 9, 27, 45, 53, 63, 81):
        codes = _audit_survivors(n)
        verdict = _frobenius_irreducible(n, _audit_pool(n), codes)
        assert verdict >> len(codes) == 0
        for c, code in enumerate(codes):
            f = _survivor_poly(n, code)
            assert verdict >> c & 1 == is_irreducible(f), (n, format_poly(f))
    # x^5 + x + 1 is screened out by x^2 + x + 1; at a prime n the test is
    # exact on any candidate
    assert _frobenius_irreducible(5, _audit_pool(5), array("I", [0])) == 0
    assert _frobenius_irreducible(7, _audit_pool(7), array("I", [0])) == 1
    # survivors that pass at step n but are reducible: only the steps n/p
    # (here 21 and 9) reject them
    passers = [code for code in _audit_survivors(63)
               if _frobenius_fixes_x(_survivor_poly(63, code), 63)]
    reducible = [code for code in passers if not is_irreducible(_survivor_poly(63, code))]
    assert len(reducible) == 2


def test_frobenius_verdict_on_a_sample_at_high_degree():
    rng = random.Random(8997)
    for n in (89, 97):
        codes = _audit_survivors(n)
        verdict = _frobenius_irreducible(n, _audit_pool(n), codes)
        sample = rng.sample(range(len(codes)), 150)
        for c in sample:
            f = _survivor_poly(n, codes[c])
            assert verdict >> c & 1 == is_irreducible(f), (n, format_poly(f))
        assert 0 < sum(verdict >> c & 1 for c in sample) < len(sample)


def test_frobenius_kernels_agree_on_every_degree():
    # the roots decide every degree up to n = 75 (at most 552 survivors) and
    # the squares from n = 77; here each decides all of them
    for n in range(5, 88, 2):
        pool, codes = _audit_pool(n), _audit_survivors(n)
        if codes:
            assert _frobenius_by_roots(n, pool, codes) == _frobenius_by_squares(n, pool, codes), n


def test_frobenius_kernels_agree_at_the_switch(monkeypatch):
    for n in (89, 123):
        pool, codes = _audit_pool(n), _audit_survivors(n)
        for k in (search._ROOTS_BELOW - 1, search._ROOTS_BELOW):
            # spread over the whole walk, so that every pool mask is mixed
            part = codes[::len(codes) // k][:k]
            assert len(part) == k
            verdict = _frobenius_by_roots(n, pool, part)
            assert verdict == _frobenius_by_squares(n, pool, part), (n, k)
            # n = 123 = 3 mod 8 has no irreducible candidate at all
            assert (0 < verdict.bit_count() < k) if n == 89 else verdict == 0
    monkeypatch.setattr(search, "_frobenius_by_roots", lambda n, pool, codes: "roots")
    monkeypatch.setattr(search, "_frobenius_by_squares", lambda n, pool, codes: "squares")
    codes = _audit_survivors(89)[:search._ROOTS_BELOW]
    assert _frobenius_irreducible(89, _audit_pool(89), codes[:-1]) == "roots"
    assert _frobenius_irreducible(89, _audit_pool(89), codes) == "squares"


def test_frobenius_roots_on_the_hard_cases():
    assert _frobenius_by_roots(5, _audit_pool(5), array("I", [0])) == 0
    assert _frobenius_by_roots(7, _audit_pool(7), array("I", [0])) == 1
    # the two reducible survivors of n = 63 with x^(2^63) = x: only the
    # early checks at steps 21 and 9 reject them
    pool = _audit_pool(63)
    passers = array("I", [code for code in _audit_survivors(63)
                          if _frobenius_fixes_x(_survivor_poly(63, code), 63)])
    verdict = _frobenius_by_roots(63, pool, passers)
    want = [is_irreducible(_survivor_poly(63, code)) for code in passers]
    assert [verdict >> c & 1 == 1 for c in range(len(passers))] == want
    assert want.count(False) == 2


def test_packed_equals_x_reads_every_field():
    x = 0b11 << 8  # two candidates, both at x, in fields of 8 bits
    for n in (3, 5, 55, 63, 89):
        assert search._packed_equals_x(x, n, 8, 0b11) == 0b11
        for i in range(n):
            # candidate 1 differs from x in field i alone
            assert search._packed_equals_x(x ^ 0b10 << 8 * i, n, 8, 0b11) == 0b01, (n, i)


def _mixed_split(n: int) -> bool:
    """Some divisors d of n with 9 <= d < n, repeats allowed, sum to n with lcm n."""
    lcms = [set() for _ in range(n + 1)]
    lcms[0].add(1)
    for d in (d for d in range(9, n) if n % d == 0):
        for total in range(d, n + 1):
            lcms[total].update(math.lcm(l, d) for l in lcms[total - d])
    return n in lcms[n]


def test_frobenius_exact_up_to_the_candidate_bound():
    # _audit_one_degree is exact where no mixed split exists; the bound on
    # candidates must keep the audit below the first such degree
    top = max(n for n in range(5, 301, 2)
              if (1 << len(_audit_pool(n))) - 1 <= MAX_CANDIDATES_PER_DEGREE)
    assert top >= 99
    assert not any(_mixed_split(n) for n in range(5, top + 1, 2))
    assert _mixed_split(135)
    assert sum((9, 9, 27, 45, 45)) == 135 and math.lcm(9, 27, 45) == 135


def test_corollary_above_99():
    rep = corollary_audit(101, 123)
    assert [r.n for r in rep.rows] == list(range(101, 124, 2))
    asserted = [r for r in rep.rows if r.asserted]
    assert [r.n for r in asserted] == [101, 107, 109, 115, 117, 123]
    assert all(r.irreducible == 0 for r in asserted)
    assert rep.ok


def test_audit_parallel_matches_serial():
    a = corollary_audit(5, 41)
    b = corollary_audit(5, 41, jobs=2)
    assert [r.to_json_line() for r in a.rows] == [r.to_json_line() for r in b.rows]


def test_candidate_count_matches_enumeration():
    for shape in ("trinomial", "pentanomial", "any-support"):
        for exponents in ("all", "odd-only"):
            for m1 in ("none", "below-n-over-3", "at-least-n-over-3"):
                for n in range(1, 16):
                    q = SearchQuery(n_lo=n, n_hi=n, shape=shape, exponents=exponents,
                                    m1_bound=m1)
                    assert _candidate_count(q, n) == sum(1 for _ in _middle_tuples(q, n))


def test_candidate_bound():
    assert (1 << len(_audit_pool(123))) - 1 == MAX_CANDIDATES_PER_DEGREE
    assert (1 << len(_audit_pool(125))) - 1 > MAX_CANDIDATES_PER_DEGREE
    with pytest.raises(ValueError, match="candidates"):
        corollary_audit(5, 125)
    with pytest.raises(ValueError, match="candidates"):
        scan(SearchQuery(n_lo=5, n_hi=301, shape="any-support"))


@pytest.mark.parametrize("argv", [
    ["audit", "--n-lo", "5", "--n-hi", "301"],
    ["search", "--n-lo", "5", "--n-hi", "301", "--shape", "any-support"],
])
def test_cli_refuses_oversized_degrees(argv, capsys):
    start = time.monotonic()
    assert cli.main(argv) == 1
    assert time.monotonic() - start < 5.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: degree ") and "candidates" in err


@pytest.mark.parametrize("argv, candidates", [
    (["search", "--n-lo", "5", "--n-hi", "180", "--shape", "pentanomial"], 42296804),
    (["search", "--n-lo", "20", "--n-hi", "21", "--shape", "any-support"], 1572862),
])
def test_cli_refuses_oversized_queries(argv, candidates, capsys):
    # every degree is within the bound, but scan would hold all the records
    start = time.monotonic()
    assert cli.main(argv) == 1
    assert time.monotonic() - start < 5.0
    assert capsys.readouterr() == ("", f"error: the query has {candidates} candidates, more "
                                       f"than the {MAX_CANDIDATES_PER_DEGREE} allowed in one search\n")


def test_pool_size_clamps(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert pool_size(1, 10) == 1
    assert pool_size(3, 10) == 3
    assert pool_size(64, 10) == 4  # CPU count
    assert pool_size(64, 2) == 2  # task count
    assert pool_size(2, 0) == 1
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert pool_size(8, 10) == 1

    def no_cpu_count():
        raise AssertionError("one worker needs no CPU count")

    monkeypatch.setattr("os.cpu_count", no_cpu_count)
    assert pool_size(1, 10) == 1
    assert pool_size(4, 1) == 1
    assert pool_size(4, 0) == 1
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            pool_size(jobs, 10)
