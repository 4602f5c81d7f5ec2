"""Candidate enumeration, scan classification, and the corollary audit."""

import json
import random
import time

import pytest

from gf2parity import cli, gf2poly
from gf2parity.gf2poly import (
    BitPoly,
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
    _candidate_count,
    _middle_tuples,
    _no_zero_lane,
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
    a = [f.bits for f in enumerate_candidates(q)]
    b = [f.bits for f in enumerate_candidates(q)]
    assert a == b


def test_m1_bound_filters():
    q = SearchQuery(n_lo=11, n_hi=11, shape="trinomial", exponents="odd-only",
                    m1_bound="below-n-over-3")
    got = list(enumerate_candidates(q))
    assert got == [parse_poly("x^11+x^3+1"), parse_poly("x^11+x+1")]
    q = SearchQuery(n_lo=11, n_hi=11, shape="trinomial", exponents="odd-only",
                    m1_bound="at-least-n-over-3")
    assert all(3 * f.exponents[1] >= 11 for f in enumerate_candidates(q))


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


def test_scan_am_flag_matches_spectrum():
    q = SearchQuery(n_lo=5, n_hi=31, shape="trinomial")
    seen = {True: 0, False: 0}
    for rec in scan(q):
        if rec.irreducible and rec.n % 2:
            single = len(trace_spectrum(rec.poly()).ones()) == 1
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


def _residue(screen, f: BitPoly) -> int:
    res = 0
    for e in f.exponents:
        res ^= screen.powers[e]
    return res


def _zero_lane(screen, f: BitPoly) -> bool:
    lanes, low7, high = screen.lanes(f.degree)
    return not _no_zero_lane(_residue(screen, f) & lanes, low7, high)


def test_no_zero_lane_is_exact_per_lane():
    for a in range(256):
        for b in range(256):
            res = a | b << 8
            assert _no_zero_lane(res, 0x7F7F, 0x8080) == (a != 0 and b != 0), (a, b)
    # residues with the top bit set, or all bits set, beside zero lanes
    for lanes in ([0x80, 0x00, 0xFF], [0x00, 0x80], [0xFF, 0x00], [0x80, 0xFF, 0x01],
                  [0xFF] * 68 + [0x00], [0x00] + [0x80] * 68, [0xFF, 0x80] * 34 + [0x7F]):
        res = int.from_bytes(bytes(lanes), "little")
        low7 = int.from_bytes(b"\x7f" * len(lanes), "little")
        high = int.from_bytes(b"\x80" * len(lanes), "little")
        assert _no_zero_lane(res, low7, high) == (0 not in lanes), lanes


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
        f = BitPoly(bits)
        lanes, low7, high = screen.lanes(f.degree)
        res = _residue(screen, f) & lanes
        divides = False
        for i, q in enumerate(SMALL_Q):
            # lane i holds f mod q_i shifted up by 8 - deg q_i; lanes of q
            # with deg q >= deg f are masked off
            d = q.bit_length() - 1
            in_use = d < f.degree
            rem = helpers.o_divmod(bits, q)[1]
            assert lanes >> 8 * i & 0xFF == (0xFF if in_use else 0)
            assert res >> 8 * i & 0xFF == (rem << (8 - d) if in_use else 0), (hex(bits), i)
            divides = divides or (in_use and rem == 0)
        assert _no_zero_lane(res, low7, high) == (not divides), hex(bits)
        zero_seen += divides
    assert 100 <= zero_seen < 300


def test_screen_agrees_with_full_test():
    screen = _LaneScreen(64)
    rng = random.Random(89)
    for _ in range(400):
        bits = helpers.random_bits(rng, rng.randrange(2, 40))
        f = BitPoly(bits)
        if _zero_lane(screen, f):
            assert not is_irreducible(f), hex(bits)


def test_screen_exhaustive_small_trinomials():
    screen = _LaneScreen(64)
    for n in range(4, 20):
        for m in range(1, n):
            f = BitPoly.from_exponents((n, m, 0))
            survived = not _zero_lane(screen, f)
            if not survived:
                assert not is_irreducible(f), (n, m)


def test_screened_test_agrees_on_degree_one():
    screen = _LaneScreen(64)
    for text in ("x", "x+1"):
        f = parse_poly(text)
        assert screen.lanes(f.degree)[0] == 0, text
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
            f = BitPoly.from_exponents((row.n, *sorted(exps, reverse=True), 0))
            if is_irreducible(f):
                direct += 1
        assert row.irreducible == direct, row.n


def test_audit_violations_in_enumeration_order(monkeypatch):
    # every screen survivor counts as irreducible, so the asserted degrees
    # report all of them, and the order must be that of _middle_tuples
    monkeypatch.setattr(gf2poly, "is_irreducible", lambda f: True)
    reported = 0
    for n in (19, 27, 43, 53):
        q = SearchQuery(n_lo=n, n_hi=n, shape="any-support", exponents="odd-only",
                        m1_bound="below-n-over-3")
        want = []
        for mids in _middle_tuples(q, n):
            bits = BitPoly.from_exponents((n, *mids, 0)).bits
            if len(mids) % 2 == 0:
                continue  # even weight: x + 1 divides
            if any(q.bit_length() - 1 < n and helpers.o_divmod(bits, q)[1] == 0
                   for q in SMALL_Q):
                continue
            want.append(str(BitPoly(bits)))
        row = corollary_audit(n, n).rows[0]
        assert row.asserted
        assert row.violations == tuple(want), n
        assert row.irreducible == len(want)
        reported += len(want)
    assert reported == 0 + 2 + 17 + 68


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


def test_pool_size_clamps(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert pool_size(1, 10) == 1
    assert pool_size(3, 10) == 3
    assert pool_size(64, 10) == 4  # CPU count
    assert pool_size(64, 2) == 2  # task count
    assert pool_size(2, 0) == 1
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert pool_size(8, 10) == 1
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            pool_size(jobs, 10)
