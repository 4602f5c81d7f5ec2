"""Search for irreducible binary polynomials with parity-based pruning.

Candidates are polynomials x^n + (middle terms) + 1, streamed in a
deterministic order: degrees ascending, middle exponent tuples in
descending lexicographic order. A scan classifies each candidate
(irreducibility, single-trace condition, largest middle exponent below
n/3, predicted and observed factor-count parity). When the support is
admissible and the predicted parity is even, the candidate cannot be
irreducible, so the factor count is skipped entirely; a debug flag
forces the full computation and cross-checks the shortcut.

The audit enumerates, for odd n in a range, every candidate whose middle
exponents are all odd and below n/3. For n = +-3 mod 8 it asserts that
none is irreducible; for n = +-1 mod 8 it only reports how many are.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from . import gf2poly
from . import swan
from .gf2poly import BitPoly
from .pool import map_in_pool
from .swan import EVEN, ODD

_SHAPES = ("trinomial", "pentanomial", "any-support")
_EXPONENT_FILTERS = ("all", "odd-only")
_M1_BOUNDS = ("none", "below-n-over-3", "at-least-n-over-3")


@dataclass(frozen=True)
class SearchQuery:
    """What to enumerate: degree window, shape, and exponent filters."""

    n_lo: int
    n_hi: int
    shape: str = "trinomial"
    exponents: str = "all"
    m1_bound: str = "none"
    mod8: frozenset[int] | None = None

    def __post_init__(self):
        if self.n_lo > self.n_hi:
            raise ValueError("empty degree range")
        if self.n_lo < 1:
            raise ValueError("degrees start at 1")
        if self.shape not in _SHAPES:
            raise ValueError(f"shape must be one of {_SHAPES}")
        if self.exponents not in _EXPONENT_FILTERS:
            raise ValueError(f"exponent filter must be one of {_EXPONENT_FILTERS}")
        if self.m1_bound not in _M1_BOUNDS:
            raise ValueError(f"m1 bound must be one of {_M1_BOUNDS}")
        if self.mod8 is not None:
            object.__setattr__(self, "mod8", frozenset(self.mod8))
            if not self.mod8 <= {1, 3, 5, 7}:
                raise ValueError("mod8 filter must be a subset of {1,3,5,7}")


@dataclass(frozen=True)
class SearchRecord:
    """One classified candidate; exponents descend from n down to 0."""

    n: int
    exponents: tuple[int, ...]
    irreducible: bool
    am_single_trace: bool
    m1_lt_n_over_3: bool
    predicted_parity: str | None
    observed_parity: str

    def poly(self) -> BitPoly:
        return BitPoly.from_exponents(self.exponents)

    def to_json_line(self) -> str:
        out = {
            "n": self.n,
            "exponents": list(self.exponents),
            "irreducible": self.irreducible,
            "am_single_trace": self.am_single_trace,
            "m1_lt_n_over_3": self.m1_lt_n_over_3,
        }
        if self.predicted_parity is not None:
            out["predicted_parity"] = self.predicted_parity
        out["observed_parity"] = self.observed_parity
        return json.dumps(out, separators=(", ", ": "))


def _degrees(q: SearchQuery):
    for n in range(q.n_lo, q.n_hi + 1):
        if q.exponents == "odd-only" and n % 2 == 0:
            continue
        if q.mod8 is not None and n % 8 not in q.mod8:
            continue
        yield n


def _middle_pool(q: SearchQuery, n: int) -> list[int]:
    pool = range(n - 1, 0, -1)
    if q.m1_bound == "below-n-over-3":
        # the bound constrains the largest exponent, so shrinking the pool
        # is equivalent and keeps any-support enumeration tractable
        pool = range((n - 1) // 3, 0, -1)
    if q.exponents == "odd-only":
        return [m for m in pool if m % 2]
    return list(pool)


def _m1_passes(q: SearchQuery, n: int, m1: int) -> bool:
    if q.m1_bound == "below-n-over-3":
        return 3 * m1 < n
    if q.m1_bound == "at-least-n-over-3":
        return 3 * m1 >= n
    return True


def _middle_tuples(q: SearchQuery, n: int):
    pool = _middle_pool(q, n)
    if q.shape == "trinomial":
        groups = itertools.combinations(pool, 1)
    elif q.shape == "pentanomial":
        groups = itertools.combinations(pool, 3)
    else:
        groups = itertools.chain.from_iterable(
            itertools.combinations(pool, k) for k in range(1, len(pool) + 1))
    for mids in groups:
        if _m1_passes(q, n, mids[0]):
            yield mids


def enumerate_candidates(q: SearchQuery):
    """Deterministic stream of candidate polynomials for the query."""
    for n in _degrees(q):
        for mids in _middle_tuples(q, n):
            yield BitPoly.from_exponents((n, *mids, 0))


def _classify(n: int, mids: tuple[int, ...], full_check: bool) -> SearchRecord:
    f = BitPoly.from_exponents((n, *mids, 0))
    valid = n % 2 == 1 and swan.validate_support(n, mids)
    predicted = swan.theorem_parity(n, mids) if valid else None
    if valid and predicted == EVEN and not full_check:
        # an even factor count rules out irreducibility without factoring
        irreducible = False
        observed = EVEN
    else:
        t = gf2poly.count_distinct_irreducible_factors(f)
        observed = ODD if t % 2 else EVEN
        irreducible = t == 1 and gf2poly.is_squarefree(f)
        if valid and predicted != observed:
            raise RuntimeError(
                f"parity shortcut contradicted by factor count at {f}")
    am = gf2poly.am_condition(f) if n % 2 else False
    return SearchRecord(
        n=n, exponents=(n, *mids, 0), irreducible=irreducible,
        am_single_trace=am, m1_lt_n_over_3=3 * mids[0] < n,
        predicted_parity=predicted, observed_parity=observed)


def _scan_one_degree(args) -> list[SearchRecord]:
    q, n, full_check = args
    return [_classify(n, mids, full_check) for mids in _middle_tuples(q, n)]


def scan(q: SearchQuery, *, full_check: bool = False, jobs: int = 1) -> list[SearchRecord]:
    """Classify every candidate of the query, in enumeration order."""
    chunks = map_in_pool(_scan_one_degree, [(q, n, full_check) for n in _degrees(q)], jobs)
    return [rec for chunk in chunks for rec in chunk]


class _SmallFactorScreen:
    """Cheap reducibility witnesses: divisibility by low-degree irreducibles.

    For every irreducible q with q(0) = 1 the residue x^e mod q is
    precomputed for all needed e, so testing q | f is a handful of xors
    over the exponents of f. Finding a divisor of degree <= deg(f)/2 is
    an exact proof of reducibility; the screen never claims the converse.
    """

    def __init__(self, max_degree: int, max_exponent: int):
        self.tables = []
        for q in gf2poly.irreducibles(max_degree):
            d = q.degree
            if d < 2:
                continue  # x and x+1 are handled by constant term and weight
            qb = q.bits
            pows = [1]
            cur = 1
            for _ in range(max_exponent):
                cur <<= 1
                if cur.bit_length() - 1 == d:
                    cur ^= qb
                pows.append(cur)
            self.tables.append((d, pows))

    def finds_factor(self, f: BitPoly) -> bool:
        n = f.degree
        if n <= 1:
            return False  # constants and x, x+1 have no proper factor
        if not f.bits & 1:
            return True  # x divides
        if f.weight() % 2 == 0:
            return True  # f(1) = 0, so x+1 divides
        exps = f.exponents
        for d, pows in self.tables:
            if 2 * d > n:
                break
            acc = 0
            for e in exps:
                acc ^= pows[e]
            if acc == 0:
                return True
        return False


def _is_irreducible_screened(f: BitPoly, screen: _SmallFactorScreen) -> bool:
    if screen.finds_factor(f):
        return False
    return gf2poly.is_irreducible(f)


@dataclass(frozen=True)
class AuditRow:
    """Audit outcome for one degree."""

    n: int
    n_mod_8: int
    asserted: bool
    candidates: int
    irreducible: int
    violations: tuple[str, ...]

    def to_json_line(self) -> str:
        return json.dumps({
            "n": self.n,
            "n_mod_8": self.n_mod_8,
            "asserted": self.asserted,
            "candidates": self.candidates,
            "irreducible": self.irreducible,
            "violations": list(self.violations),
        }, separators=(", ", ": "))


@dataclass
class AuditReport:
    rows: list[AuditRow]

    @property
    def ok(self) -> bool:
        return all(not r.violations for r in self.rows)

    @property
    def candidates(self) -> int:
        return sum(r.candidates for r in self.rows)


def _audit_one_degree(n: int) -> AuditRow:
    screen = _screen_for(n)
    q = SearchQuery(n_lo=n, n_hi=n, shape="any-support",
                    exponents="odd-only", m1_bound="below-n-over-3")
    asserted = n % 8 in (3, 5)
    candidates = hits = 0
    violations = []
    for mids in _middle_tuples(q, n):
        candidates += 1
        f = BitPoly.from_exponents((n, *mids, 0))
        if _is_irreducible_screened(f, screen):
            hits += 1
            if asserted:
                violations.append(str(f))
    return AuditRow(n=n, n_mod_8=n % 8, asserted=asserted,
                    candidates=candidates, irreducible=hits,
                    violations=tuple(violations))


_SCREENS: dict[int, _SmallFactorScreen] = {}


def _screen_for(n: int) -> _SmallFactorScreen:
    # one shared table per exponent ceiling, built on demand
    cap = 1 << max(n.bit_length(), 7)
    if cap not in _SCREENS:
        _SCREENS[cap] = _SmallFactorScreen(8, cap)
    return _SCREENS[cap]


def corollary_audit(n_lo: int, n_hi: int, *, jobs: int = 1) -> AuditReport:
    """Exhaustive small-support audit over every odd degree in the range.

    Degrees with n = +-3 mod 8 must yield zero irreducible candidates;
    any hit is recorded as a violation. Degrees with n = +-1 mod 8 are
    reported without assertion.
    """
    degrees = [n for n in range(n_lo, n_hi + 1) if n % 2 and n >= 5]
    return AuditReport(map_in_pool(_audit_one_degree, degrees, jobs))
