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
none is irreducible; for n = +-1 mod 8 it only reports how many are. It
walks the subsets of those exponents in Gray-code order (Knuth, TAOCP 4A,
7.2.1.1), so each step flips one exponent: one xor into the coefficient
mask and one into the residues of the candidate modulo every irreducible
of degree 2..8, packed one 8-bit lane per divisor in a single int. A
candidate of even weight (x + 1 divides) or with a zero lane is reducible;
only the rest become BitPoly values and reach the exact Berlekamp test.
Violations are reported in the enumeration order above.

Scan and audit refuse, before any work, a degree with more than
MAX_CANDIDATES_PER_DEGREE candidates.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from dataclasses import dataclass

from . import gf2poly
from . import swan
from .gf2poly import BitPoly
from .pool import map_in_pool
from .swan import EVEN, ODD

_SHAPES = ("trinomial", "pentanomial", "any-support")
_EXPONENT_FILTERS = ("all", "odd-only")
_M1_BOUNDS = ("none", "below-n-over-3", "at-least-n-over-3")

# scan and audit refuse a degree with more candidates than this (audit: n <= 123)
MAX_CANDIDATES_PER_DEGREE = 2**20 - 1


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


def _candidate_count(q: SearchQuery, n: int) -> int:
    """len(list(_middle_tuples(q, n))), without enumerating."""
    pool = _middle_pool(q, n)
    k = len(pool)
    # the largest exponent m1 leads each tuple, and the m1 that pass lead the pool
    rest = k - sum(1 for m in pool if _m1_passes(q, n, m))
    if q.shape == "trinomial":
        return k - rest
    if q.shape == "pentanomial":
        return math.comb(k, 3) - math.comb(rest, 3)
    return 2**k - 2**rest


def _check_size(n: int, candidates: int) -> None:
    if candidates > MAX_CANDIDATES_PER_DEGREE:
        raise ValueError(f"degree {n} has {candidates} candidates, more than the "
                         f"{MAX_CANDIDATES_PER_DEGREE} allowed per degree")


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
    for n in _degrees(q):
        _check_size(n, _candidate_count(q, n))
    chunks = map_in_pool(_scan_one_degree, [(q, n, full_check) for n in _degrees(q)], jobs)
    return [rec for chunk in chunks for rec in chunk]


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


class _LaneScreen:
    """Residues x^e mod q for every irreducible q of degree 2..8, one byte each.

    powers[e] holds x^e mod q_i in lane i (bits 8i..8i+7), shifted up by
    8 - deg q_i so that its top bit is the coefficient of x^(deg q_i - 1);
    the 69 q are in ascending degree. The residues of f modulo all of them
    are the xor of powers[e] over the exponents e of f, and q_i divides f
    exactly when lane i is zero. A divisor of degree below deg f is an
    exact proof of reducibility; the screen never claims the converse.
    """

    def __init__(self, max_exponent: int):
        qs = [q.bits for q in gf2poly.irreducibles(8) if q.degree >= 2]
        self.degrees = [q.bit_length() - 1 for q in qs]
        ones = int.from_bytes(bytes([1] * len(qs)), "little")
        # each q_i less its leading term, aligned like the residues
        tails = int.from_bytes(
            bytes(q << (8 - d) & 0xFF for q, d in zip(qs, self.degrees)), "little")
        cur = int.from_bytes(bytes(1 << (8 - d) for d in self.degrees), "little")
        self.powers = [cur]
        for _ in range(max_exponent):
            # times x in every lane at once; a top bit shifted out is x^deg q_i,
            # which reduces to the tail of q_i
            carries = (cur >> 7) & ones
            cur = ((cur & ones * 0x7F) << 1) ^ (tails & carries * 0xFF)
            self.powers.append(cur)

    def lanes(self, n: int) -> tuple[int, int, int]:
        """Masks of the lanes whose q has degree below n: all bits, low 7, top bit."""
        count = bisect.bisect_left(self.degrees, n)
        return ((1 << 8 * count) - 1,
                int.from_bytes(b"\x7f" * count, "little"),
                int.from_bytes(b"\x80" * count, "little"))


def _no_zero_lane(res: int, low7: int, high: int) -> bool:
    # adding 0x7f to a lane's low seven bits carries into its top bit unless
    # they are all zero, and never out of the lane
    return (((res & low7) + low7) | res) & high == high


_SCREENS: dict[int, _LaneScreen] = {}


def _screen_for(n: int) -> _LaneScreen:
    # one shared table per exponent ceiling, built on demand
    cap = 1 << max(n.bit_length(), 7)
    if cap not in _SCREENS:
        _SCREENS[cap] = _LaneScreen(cap)
    return _SCREENS[cap]


def _audit_pool(n: int) -> range:
    """The odd m with 3m < n, ascending."""
    return range(1, (n - 1) // 3 + 1, 2)


def _audit_one_degree(n: int) -> AuditRow:
    screen = _screen_for(n)
    lanes, low7, high = screen.lanes(n)
    pool = _audit_pool(n)
    flip_f = [1 << m for m in pool]
    flip_r = [screen.powers[m] & lanes for m in pool]
    # Gray-code walk over the nonempty subsets S of the pool: step j flips
    # pool index (j & -j).bit_length() - 1 in fbits and in the residues res.
    # The weight 2 + |S| is odd exactly after odd steps (x + 1 divides after
    # even ones), and odd steps all flip index 0, so the walk goes in pairs:
    # pair i is step 2i, flipping index (i & -i).bit_length() (none for
    # i = 0), then step 2i + 1, and only its result is tested.
    pair_f = [flip_f[0]] + [b ^ flip_f[0] for b in flip_f[1:]]
    pair_r = [flip_r[0]] + [r ^ flip_r[0] for r in flip_r[1:]]
    fbits = (1 << n) | 1
    res = (screen.powers[n] ^ screen.powers[0]) & lanes
    asserted = n % 8 in (3, 5)
    hits = 0
    found = []
    for i in range(1 << (len(pool) - 1)):
        b = (i & -i).bit_length()
        fbits ^= pair_f[b]
        res ^= pair_r[b]
        if _no_zero_lane(res, low7, high):
            f = BitPoly(fbits)
            if gf2poly.is_irreducible(f):
                hits += 1
                if asserted:
                    found.append(f)
    # subset size, then descending lexicographic, as _middle_tuples yields them
    found.sort(key=lambda f: (f.weight(), [-e for e in f.exponents]))
    return AuditRow(n=n, n_mod_8=n % 8, asserted=asserted,
                    candidates=(1 << len(pool)) - 1, irreducible=hits,
                    violations=tuple(map(str, found)))


def corollary_audit(n_lo: int, n_hi: int, *, jobs: int = 1) -> AuditReport:
    """Exhaustive small-support audit over every odd degree in the range.

    Degrees with n = +-3 mod 8 must yield zero irreducible candidates;
    any hit is recorded as a violation. Degrees with n = +-1 mod 8 are
    reported without assertion.
    """
    degrees = [n for n in range(n_lo, n_hi + 1) if n % 2 and n >= 5]
    for n in degrees:
        _check_size(n, (1 << len(_audit_pool(n))) - 1)
    return AuditReport(map_in_pool(_audit_one_degree, degrees, jobs))
