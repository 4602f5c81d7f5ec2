"""Parity of factor counts of binary polynomials from discriminants mod 8.

The classical Stickelberger-Swan criterion ties the parity of the number
of distinct irreducible factors of a squarefree f in F2[x] to the
discriminant of its 0/1 integer lift F: the count is congruent to deg f
mod 2 exactly when disc(F) is 1 mod 8 (5 mod 8 gives the opposite
parity; squarefree forces an odd discriminant, and odd discriminants of
integer polynomials are always 1 mod 4).

On top of that sits a residue-class predictor for trinomial-like
polynomials f = x^n + sum_{i in S} x^i + 1 with odd n and admissible
supports S: every i in S must satisfy 3i < n with i odd, or i = n mod 4.
For such f the auxiliary polynomial G = n(nF - xF') is 1 + 2 G2 + 4 G4
mod 8 with 3 deg G2 < n, which makes the discriminant computable mod 8
in closed form, giving parity from n mod 8 alone: odd for n = +-1, even
for n = +-3. verify_theorem_instance checks the full identity chain on
concrete instances and reports the outcome.

The mod-8 path builds no integer polynomial. F, F' and G go to
intres.resultant_mod8, a Euclid remainder sequence on packed Z/8
polynomials, as (exponent, coefficient) pairs read off the support: F is
1 at each exponent e of f, F' is e at e - 1, and G is n^2 at 0 and
n(n - i) at each i in S. When f has constant term 1 and only odd
exponents otherwise, as every criterion-1 instance has, F = 1 + x U(x^2)
and the disc takes one Graeffe root-squaring step (Householder, Amer.
Math. Monthly 66, 1959): the squares of F's roots are the roots of
F2 = y U(y)^2 - 1 = -F(x) F(-x), and F'(x) = P(x^2) with P = U + 2y U'(y),
so res(F, F') = res(F2, P) over Z, with P of half the degree. res(F, G)
keeps the direct route, so the determinant bridge compares the two.
lift_01 builds the coefficient list that the exact discriminant needs.
"""

from __future__ import annotations

import json
from collections import namedtuple

from . import gf2poly
from . import intres

ODD = "odd"
EVEN = "even"


def lift_01(f: int) -> list[int]:
    """Integer lift with the same 0/1 coefficients, lowest first; [] for 0."""
    if f < 0:
        raise ValueError("a polynomial is a nonnegative int")
    return [f >> i & 1 for i in range(f.bit_length())]


def discriminant_mod8(f: int) -> int:
    """disc(F) reduced into 0..7 for the 0/1 lift F of f, degree >= 2."""
    if f <= 0:
        raise ValueError("the discriminant needs a nonzero polynomial")
    return _disc_mod8([(e, 1) for e in gf2poly.exponents(f)])


def _disc_mod8(f_terms: list[tuple[int, int]]) -> int:
    """disc(F) = (-1)^(n(n-1)/2) res(F, F') mod 8 for F given as (e, 1) pairs,
    highest e first: F' is e at e - 1 for each exponent e of F. F = 1 + x U(x^2)
    takes the Graeffe step instead, with P = sum e y^((e-1)/2) over F's odd e."""
    n = f_terms[0][0]
    if f_terms[-1][0] == 0 and all(e & 1 for e, _ in f_terms[:-1]):
        w = intres._lane_bytes(n + 1)
        bits = 8 * w
        u = p = 0
        for e, _ in f_terms[:-1]:
            u |= 1 << bits * (e >> 1)
            p |= (e & 7) << bits * (e >> 1)
        # a lane of U^2 counts at most (n + 1) / 2 products, so none carries
        r = intres._resultant_mod8_packed(u * u << bits | 7, n, p, n + 1, w)
    else:
        r = intres.resultant_mod8(f_terms, [(e - 1, e) for e, _ in f_terms if e])
    return -r % 8 if (n * (n - 1) // 2) % 2 else r


def _admissible(n: int, i: int) -> bool:
    return 0 < i < n and ((i % 2 == 1 and 3 * i < n) or i % 4 == n % 4)


def validate_support(n: int, support) -> bool:
    """True iff every exponent in support is admissible for degree n."""
    return not invalid_support_elements(n, support)


def invalid_support_elements(n: int, support) -> list[int]:
    """The exponents that fail the admissibility test, ascending."""
    if n % 2 == 0:
        raise ValueError("degree must be odd")
    return sorted(i for i in support if not _admissible(n, i))


def support_universe(n: int) -> tuple[int, ...]:
    """All admissible middle exponents for degree n, ascending."""
    if n % 2 == 0:
        raise ValueError("degree must be odd")
    return tuple(i for i in range(1, n) if _admissible(n, i))


def support_poly(n: int, support) -> int:
    """The binary polynomial x^n + sum_{i in support} x^i + 1."""
    return gf2poly.from_exponents({n, 0, *support})


def theorem_parity(n: int, support) -> str:
    """Predicted parity of the distinct-factor count for an admissible support,
    by residue_parity. Refuses supports that fail validate_support."""
    bad = invalid_support_elements(n, support)
    if bad:
        i = bad[0]
        raise ValueError(
            f"unsupported exponent {i}: needs 3*{i} < {n} with {i} odd, "
            f"or {i} = {n} mod 4, and 0 < {i} < {n}")
    return residue_parity(n)


def residue_parity(n: int) -> str:
    """The parity the theorem predicts at odd degree n for any admissible support:
    odd when n is +-1 mod 8, even when n is +-3 mod 8."""
    return ODD if n % 8 in (1, 7) else EVEN


def stickelberger_parity(f: int) -> str:
    """Parity of the number of distinct irreducible factors of squarefree f.

    Uses the discriminant of the 0/1 lift mod 8; no factoring happens.
    """
    if f < 2:
        raise ValueError("parity needs degree at least 1")
    if not gf2poly.is_squarefree(f):
        raise ValueError("parity prediction requires a squarefree polynomial")
    n = f.bit_length() - 1
    if n == 1:
        return ODD
    d8 = discriminant_mod8(f)
    if d8 == 1:
        return ODD if n % 2 else EVEN
    if d8 == 5:
        return EVEN if n % 2 else ODD
    raise RuntimeError(
        f"squarefree input produced discriminant residue {d8}, expected 1 or 5")


def g_terms(n: int, support) -> list[tuple[int, int]]:
    """G = n(nF - xF') as (exponent, coefficient) pairs for f = x^n + sum_S x^i + 1.

    The x^n terms cancel, leaving n^2 at 0 and n(n - i) at each i in S.
    """
    return [(0, n * n), *((i, n * (n - i)) for i in sorted(support))]


def check_g_terms(n: int, terms) -> None:
    """Check G = 1 + 2 G2 + 4 G4 mod 8 with 3 deg(G2) < n, term by term.

    The constant must be 1 mod 8 and every other coefficient even; one
    that is 2 mod 4 is a term of G2, so its exponent i needs 3i < n. All
    exponents lie below n. Any failure raises, which is how a malformed
    support surfaces here.
    """
    for i, c in terms:
        if not 0 <= i < n:
            raise ValueError(f"G has a term at x^{i}, outside degrees 0..{n - 1}")
        if i == 0 and c % 8 != 1:
            raise ValueError(f"constant of G is {c % 8} mod 8, not 1")
        if i and c % 2:
            raise ValueError(f"coefficient of x^{i} in G is odd")
        if c % 4 == 2 and 3 * i >= n:
            raise ValueError(f"x^{i} is a term of G2, but 3*{i} < {n} fails")


class SupportSpec(namedtuple("SupportSpec", "n support valid")):
    """A degree n with a set of middle exponents; validity is recorded.

    The constructor never rejects a support, it only computes the valid
    flag; n itself must be odd and at least 5.
    """

    __slots__ = ()

    def __new__(cls, n: int, support):
        if n % 2 == 0 or n < 5:
            raise ValueError("n must be odd and at least 5")
        support = frozenset(int(i) for i in support)
        return super().__new__(cls, n, support, validate_support(n, support))

    def __getnewargs__(self):
        return self.n, self.support  # valid is always recomputed

    def to_text(self) -> str:
        return f"n={self.n};S={','.join(map(str, sorted(self.support)))}"

    def __str__(self) -> str:
        return self.to_text()


def parse_support_spec(text: str) -> SupportSpec:
    """Parse "n=13;S=1,9" (S may be empty)."""
    s = "".join(text.split())
    head, sep, tail = s.partition(";")
    if not sep or not head.startswith("n=") or not tail.startswith("S="):
        raise ValueError(f"bad support spec '{text}', expected n=<deg>;S=<exponents>")
    tokens = [head[2:], *(tail[2:].split(",") if tail[2:] else ())]
    if not all(map(gf2poly.is_exponent_text, tokens)):
        raise ValueError(f"bad support spec '{text}'")
    n, *support = map(int, tokens)
    gf2poly.check_degree(n)
    return SupportSpec(n, support)


class ParityReport(namedtuple("ParityReport", "spec poly squarefree t_distinct t_multiplicity "
                                              "disc_mod8 predicted_parity observed_parity agree "
                                              "failed_identities", defaults=((),))):
    """Outcome of checking one support instance end to end."""

    __slots__ = ()

    def to_json_line(self) -> str:
        out = self._asdict()
        out["spec"] = self.spec.to_text()
        out["poly"] = gf2poly.format_poly(self.poly)
        if not self.failed_identities:
            del out["failed_identities"]
        return json.dumps(out, separators=(", ", ": "))


def verify_theorem_instance(n: int, support) -> ParityReport:
    """Check the whole identity chain for one admissible support.

    Asserted facts: res(F, G) is 1 mod 8 (for monic F the mod-8 resultant
    does not change when G is zero-padded to degree n-4, as the proof
    pads it); n^n disc(F) = (-1)^(n(n-1)/2) res(F, G) mod 8; the
    discriminant residue is 1 for n = +-1 mod 8 and 5 for n = +-3; the
    induced binary polynomial is squarefree and its observed factor-count
    parity matches the prediction. Failures are named in the report and
    flip agree to False rather than raising.
    """
    spec = SupportSpec(n, frozenset(support))  # theorem_parity raises, naming the bad exponent
    predicted = residue_parity(n) if spec.valid else theorem_parity(n, spec.support)
    # a valid support holds distinct exponents 0 < i < n: f, F and G come off one sort
    middle = sorted(spec.support)
    f = 1 << n | 1
    for i in middle:
        f |= 1 << i
    G = g_terms(n, middle)
    check_g_terms(n, G)  # malformed instances raise here
    failures: list[str] = []
    f_terms = [(n, 1), *((i, 1) for i in reversed(middle)), (0, 1)]
    r8 = intres.resultant_mod8(f_terms, G)
    if r8 != 1:
        failures.append("resultant_unit")
    d8 = _disc_mod8(f_terms)
    sign = 7 if (n * (n - 1) // 2) % 2 else 1
    if pow(n, n, 8) * d8 % 8 != sign * r8 % 8:
        failures.append("determinant_bridge")
    if d8 != (1 if predicted == ODD else 5):
        failures.append("disc_residue")
    squarefree = gf2poly.is_squarefree(f)
    if not squarefree:
        failures.append("squarefree")
    t = gf2poly.count_distinct_irreducible_factors(f)
    # a squarefree f has each factor once, so the two counts agree
    tm = t if squarefree else gf2poly.count_factors_with_multiplicity(f)
    observed = ODD if t % 2 else EVEN
    agree = predicted == observed and not failures
    return ParityReport(
        spec=spec, poly=f, squarefree=squarefree, t_distinct=t,
        t_multiplicity=tm, disc_mod8=d8, predicted_parity=predicted,
        observed_parity=observed, agree=agree, failed_identities=tuple(failures))
