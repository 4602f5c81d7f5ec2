"""Acceptance gate: one test per shipped guarantee, strictest form.

Criteria 1 and 3 share a single sweep over every odd degree in [5, 61]
with every valid support of size at most 3 plus 100 random supports of
size at most 6 per degree; the sweep runs once, and both tests and the
digest of its reports read it.
Each test prints one PASS or FAIL line tagged with its criterion number.
"""

import hashlib
import itertools
import json
import pathlib
import random
import time

import pytest

from gf2parity.gf2poly import (
    count_distinct_irreducible_factors,
    count_factors_with_multiplicity,
    from_exponents,
    is_irreducible,
    is_squarefree,
    parse_poly,
)
from gf2parity.intres import (
    IntMatrix,
    det_exact,
    discriminant_int,
    resultant,
)
from gf2parity.lemma_lab import run_fuzz, write_replay
from gf2parity.search import corollary_audit
from gf2parity.swan import (
    EVEN,
    ODD,
    lift_01,
    stickelberger_parity,
    support_universe,
    validate_support,
    verify_theorem_instance,
)
from gf2parity import cli

import helpers


def _stamp(number: int, summary: str):
    """Print the criterion verdict even when the assertion machinery trips."""
    class _Stamp:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {number} {summary}: {verdict}")
            return False
    return _Stamp()


def _residue_rule(n: int) -> str:
    return ODD if n % 8 in (1, 7) else EVEN


@pytest.fixture(scope="module")
def sweep():
    """All criterion-1 instances with their reports, plus wall time."""
    start = time.monotonic()
    rows = []
    for n in range(5, 62, 2):
        universe = support_universe(n)
        supports = [()]
        for k in (1, 2, 3):
            supports.extend(itertools.combinations(universe, k))
        rng = random.Random(7000 + n)
        for _ in range(100):
            k = rng.randint(1, min(6, len(universe)))
            supports.append(tuple(rng.sample(universe, k)))
        for support in supports:
            rows.append((n, support, verify_theorem_instance(n, support)))
    return rows, time.monotonic() - start


def test_criterion_1_parity_rule_on_all_valid_supports(sweep):
    rows, elapsed = sweep
    with _stamp(1, "parity rule over all valid supports, odd n in [5, 61]"):
        assert len(rows) > 10000
        for n, support, rep in rows:
            assert rep.squarefree, (n, support)
            want = _residue_rule(n)
            assert rep.predicted_parity == want, (n, support)
            assert rep.observed_parity == want, (n, support)
            assert rep.agree, (n, support)
        assert elapsed <= 300.0, f"sweep took {elapsed:.1f}s"


def test_criterion_2_stickelberger_bridge():
    with _stamp(2, "discriminant parity equals brute-force parity, 1000 cases"):
        start = time.monotonic()
        rng = random.Random(20240)
        for _ in range(1000):
            f = helpers.random_squarefree_bits(rng, rng.randrange(2, 41))
            t = count_distinct_irreducible_factors(f)
            observed = ODD if t % 2 else EVEN
            assert stickelberger_parity(f) == observed, hex(f)
        assert time.monotonic() - start <= 120.0


def test_criterion_3_identity_chain(sweep):
    rows, _ = sweep
    with _stamp(3, "resultant unit, determinant bridge, residue value"):
        for n, support, rep in rows:
            assert rep.failed_identities == (), (n, support)
            assert rep.disc_mod8 == (1 if n % 8 in (1, 7) else 5), (n, support)


def test_sweep_reports_match_recorded_digest(sweep):
    # SHA-256 of every criterion-1 report of the sweep, one JSON line each,
    # recorded before f, F and G were read off one sorted support
    rows, _ = sweep
    assert len(rows) == 13229
    lines = "\n".join(rep.to_json_line() for _, _, rep in rows)
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == "55e7daac0baead9a539c5bc98e50fd7e01c9b52c2378383f927ce1023e6af3f4"


def test_criterion_4_even_degree_trinomials():
    with _stamp(4, "x^8k+x^m+1 always has an even factor count"):
        start = time.monotonic()
        for n in (8, 16, 24, 32, 40):
            for m in range(1, n):
                f = from_exponents((n, m, 0))
                assert count_factors_with_multiplicity(f) % 2 == 0, (n, m)
                assert not is_irreducible(f), (n, m)
        assert time.monotonic() - start <= 60.0


def test_criterion_5_sharpness_witness():
    with _stamp(5, "x^21+x^7+1 is irreducible yet outside the support rule"):
        f = parse_poly("x^21+x^7+1")
        assert is_irreducible(f)
        assert not validate_support(21, {7})
        assert discriminant_int(lift_01(f)) % 8 == 1


def test_criterion_6_corollary_audit(capsys):
    with _stamp(6, "no small-odd-exponent irreducibles at n = +-3 mod 8 up to 99"):
        start = time.monotonic()
        report = corollary_audit(5, 99)
        assert report.ok
        asserted = [row for row in report.rows if row.n % 8 in (3, 5)]
        assert len(asserted) == 24
        for row in asserted:
            assert row.asserted
            assert row.irreducible == 0, row.n
            assert row.violations == (), row.n
        rc = cli.main(["audit", "--n-lo", "5", "--n-hi", "99"])
        capsys.readouterr()
        assert rc == 0
        assert time.monotonic() - start <= 120.0


# fuzzing volumes: lemma id, trials, campaign seed, pinned parameters
_CAMPAIGNS = [
    ("D", 10_000, 101, {}),
    ("L2", 10_000, 103, {}),
    ("GENERAL", 10_000, 107, {}),
]
for _i, (_n, _s) in enumerate(((5, 1), (8, 2), (12, 3), (16, 3))):
    _CAMPAIGNS.append(("L1a", 1_000, 109 + _i, {"n": _n, "s": _s}))
    _CAMPAIGNS.append(("L1b", 1_000, 113 + _i, {"n": _n, "s": _s}))


def test_criterion_7_lemma_fuzzing():
    with _stamp(7, "all lemma conclusions hold on generated instances"):
        for lemma_id, trials, seed, pins in _CAMPAIGNS:
            result = run_fuzz(lemma_id, trials, seed, **pins)
            if result.failure is not None:
                path = pathlib.Path(__file__).with_name(
                    f"replay_{lemma_id}_{seed}.json")
                write_replay(path, result.failure)
                pytest.fail(f"{lemma_id} counterexample written to {path}")
            assert result.ok and result.checked == trials, (lemma_id, seed)


def _rand_int_poly(rng, degree, lo=-9, hi=9, monic=False):
    coeffs = [rng.randint(lo, hi) for _ in range(degree + 1)]
    coeffs[-1] = 1 if monic else (coeffs[-1] or 1)
    return coeffs


def test_criterion_8_resultant_laws_and_determinant():
    with _stamp(8, "reduction, base cases, multiplicativity, padding, and det"):
        rng = random.Random(3141)

        checked = 0
        while checked < 1000:  # R(f, g - qf) = R(f, g) for monic f
            f = _rand_int_poly(rng, rng.randint(1, 6), monic=True)
            g = _rand_int_poly(rng, rng.randint(0, 8))
            q = _rand_int_poly(rng, rng.randint(0, 3))
            reduced = helpers.poly_sub(g, helpers.poly_mul(f, q))
            if not reduced:
                continue
            assert resultant(f, reduced) == resultant(f, g)
            checked += 1

        x = [0, 1]
        minus_x = [0, -1]
        for _ in range(1000):  # R(x, g) = g(0) and R(f, -x) = f(0)
            g = _rand_int_poly(rng, rng.randint(1, 8))
            f = _rand_int_poly(rng, rng.randint(1, 8))
            assert resultant(x, g) == g[0]
            assert resultant(f, minus_x) == f[0]

        for _ in range(1000):  # R(fg, h) = R(f, h) R(g, h) for monic f, g
            f = _rand_int_poly(rng, rng.randint(1, 4), monic=True)
            g = _rand_int_poly(rng, rng.randint(1, 4), monic=True)
            h = _rand_int_poly(rng, rng.randint(1, 4))
            assert resultant(helpers.poly_mul(f, g), h) == resultant(f, h) * resultant(g, h)

        for _ in range(1000):  # zero-padding g never moves R(f, g) for monic f
            f = _rand_int_poly(rng, rng.randint(1, 5), monic=True)
            g = _rand_int_poly(rng, rng.randint(0, 5))
            k = rng.randint(1, 3)
            padded = g + [0] * k
            assert resultant(f, padded) == resultant(f, g)

        for _ in range(500):  # Bareiss against Laplace expansion
            size = rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) for _ in range(size)]
                    for _ in range(size)]
            assert det_exact(IntMatrix(rows)) == helpers.cofactor_det(rows)
