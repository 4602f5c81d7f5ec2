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
For such f the auxiliary polynomial G = n(nF - xF') makes the
discriminant computable mod 8 in closed form, giving parity from n mod 8
alone: odd for n = +-1, even for n = +-3. verify_theorem_instance checks
the full identity chain on concrete instances and reports the outcome.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import gf2poly
from . import intres
from .gf2poly import BitPoly
from .intres import IntPoly

ODD = "odd"
EVEN = "even"


def lift_01(f: BitPoly) -> IntPoly:
    """Integer lift with the same 0/1 coefficients."""
    return IntPoly.from_pairs((e, 1) for e in f.exponents)


def _admissible(n: int, i: int) -> bool:
    if not 0 < i < n:
        return False
    return (i % 2 == 1 and 3 * i < n) or i % 4 == n % 4


def validate_support(n: int, support) -> bool:
    """True iff every exponent in support is admissible for degree n."""
    if n % 2 == 0:
        raise ValueError("degree must be odd")
    return all(_admissible(n, i) for i in support)


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


def support_poly(n: int, support) -> BitPoly:
    """The binary polynomial x^n + sum_{i in support} x^i + 1."""
    return BitPoly.from_exponents(sorted({n, 0, *support}, reverse=True))


def theorem_parity(n: int, support) -> str:
    """Predicted parity of the distinct-factor count for an admissible support.

    Odd when n is +-1 mod 8, even when n is +-3 mod 8. Refuses supports
    that fail validate_support.
    """
    bad = invalid_support_elements(n, support)
    if bad:
        i = bad[0]
        raise ValueError(
            f"unsupported exponent {i}: needs 3*{i} < {n} with {i} odd, "
            f"or {i} = {n} mod 4, and 0 < {i} < {n}")
    return ODD if n % 8 in (1, 7) else EVEN


def stickelberger_parity(f: BitPoly) -> str:
    """Parity of the number of distinct irreducible factors of squarefree f.

    Uses the discriminant of the 0/1 lift mod 8; no factoring happens.
    """
    if f.is_zero or f.degree < 1:
        raise ValueError("parity needs degree at least 1")
    if not gf2poly.is_squarefree(f):
        raise ValueError("parity prediction requires a squarefree polynomial")
    n = f.degree
    if n == 1:
        return ODD
    d8 = intres.discriminant_mod8(lift_01(f))
    if d8 == 1:
        return ODD if n % 2 else EVEN
    if d8 == 5:
        return EVEN if n % 2 else ODD
    raise RuntimeError(
        f"squarefree input produced discriminant residue {d8}, expected 1 or 5")


def build_G(n: int, F: IntPoly) -> IntPoly:
    """The auxiliary polynomial n*(n*F - x*F') for a 0/1 monic lift F.

    Coefficientwise this is n*(n-i) at each exponent i in the support of
    F below n, plus the constant n^2 (and the x^n term cancels).
    """
    if F.is_zero or F.degree != n:
        raise ValueError(f"lift degree does not match n={n}")
    if any(c not in (0, 1) for c in F.coeffs):
        raise ValueError("lift coefficients must be 0 or 1")
    return IntPoly(n * (n - i) * F.coeff(i) for i in range(n + 1))


def decompose_G(G: IntPoly, n: int) -> tuple[IntPoly, IntPoly]:
    """Split G as 4*G4 + 2*G2 + 1 mod 8 coefficientwise, returning (G2, G4).

    G2 collects exponents i with n-i = 2 mod 4, scaled to n(n-i)/2; G4
    collects n-i = 4 mod 8, scaled to n(n-i)/4; exponents with n-i = 0
    mod 8 vanish mod 8. The residual identity and the degree bounds
    3*deg(G2) < n and deg(G4) < n are verified and any failure raises,
    which is how a malformed support surfaces here.
    """
    g2: list[tuple[int, int]] = []
    g4: list[tuple[int, int]] = []
    deg = G.degree if not G.is_zero else -1
    for i in range(1, deg + 1):
        if G.coeff(i) == 0:
            continue
        k = n - i
        if k % 4 == 2:
            g2.append((i, n * k // 2))
        elif k % 8 == 4:
            g4.append((i, n * k // 4))
    G2 = IntPoly.from_pairs(g2)
    G4 = IntPoly.from_pairs(g4)
    for i in range(deg + 1):
        want = 4 * G4.coeff(i) + 2 * G2.coeff(i) + (1 if i == 0 else 0)
        if (G.coeff(i) - want) % 8:
            raise ValueError(f"decomposition identity fails at exponent {i}")
    if not G2.is_zero and 3 * G2.degree >= n:
        raise ValueError("degree bound 3*deg(G2) < n fails")
    if not G4.is_zero and G4.degree >= n:
        raise ValueError("degree bound deg(G4) < n fails")
    return G2, G4


@dataclass(frozen=True)
class SupportSpec:
    """A degree n with a set of middle exponents; validity is recorded.

    The constructor never rejects a support, it only computes the valid
    flag; n itself must be odd and at least 5.
    """

    n: int
    support: frozenset[int]
    valid: bool = field(init=False)

    def __post_init__(self):
        if self.n % 2 == 0 or self.n < 5:
            raise ValueError("n must be odd and at least 5")
        object.__setattr__(self, "support", frozenset(int(i) for i in self.support))
        object.__setattr__(self, "valid", validate_support(self.n, self.support))

    def poly(self) -> BitPoly:
        return support_poly(self.n, self.support)

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
    try:
        n = int(head[2:])
        body = tail[2:]
        support = frozenset(int(t) for t in body.split(",")) if body else frozenset()
    except ValueError:
        raise ValueError(f"bad support spec '{text}'") from None
    gf2poly.check_degree(n)
    return SupportSpec(n, support)


@dataclass(frozen=True)
class ParityReport:
    """Outcome of checking one support instance end to end."""

    spec: SupportSpec
    poly: BitPoly
    squarefree: bool
    t_distinct: int
    t_multiplicity: int
    disc_mod8: int
    predicted_parity: str
    observed_parity: str
    agree: bool
    failed_identities: tuple[str, ...] = ()

    def to_json_line(self) -> str:
        out = {
            "spec": self.spec.to_text(),
            "poly": str(self.poly),
            "squarefree": self.squarefree,
            "t_distinct": self.t_distinct,
            "t_multiplicity": self.t_multiplicity,
            "disc_mod8": self.disc_mod8,
            "predicted_parity": self.predicted_parity,
            "observed_parity": self.observed_parity,
            "agree": self.agree,
        }
        if self.failed_identities:
            out["failed_identities"] = list(self.failed_identities)
        return json.dumps(out, separators=(", ", ": "))


def verify_theorem_instance(n: int, support) -> ParityReport:
    """Check the whole identity chain for one admissible support.

    Asserted facts: the resultant of (F, G) with G zero-padded to degree
    n-4 is 1 mod 8; n^n disc(F) = (-1)^(n(n-1)/2) res(F, G) mod 8; the
    discriminant residue is 1 for n = +-1 mod 8 and 5 for n = +-3; the
    induced binary polynomial is squarefree and its observed factor-count
    parity matches the prediction. Failures are named in the report and
    flip agree to False rather than raising.
    """
    spec = SupportSpec(n, frozenset(support))
    if not spec.valid:
        theorem_parity(n, support)  # raises with the offending exponent named
    f = spec.poly()
    F = lift_01(f)
    G = build_G(n, F)
    decompose_G(G, n)  # malformed instances raise here
    failures: list[str] = []
    padded = IntPoly(G.coeffs, declared_degree=n - 4)
    r8 = intres.resultant_mod8(F, padded)
    if r8 != 1:
        failures.append("resultant_unit")
    d8 = intres.discriminant_mod8(F)
    sign = 7 if (n * (n - 1) // 2) % 2 else 1
    if pow(n, n, 8) * d8 % 8 != sign * r8 % 8:
        failures.append("determinant_bridge")
    if d8 != (1 if n % 8 in (1, 7) else 5):
        failures.append("disc_residue")
    squarefree = gf2poly.is_squarefree(f)
    if not squarefree:
        failures.append("squarefree")
    t = gf2poly.count_distinct_irreducible_factors(f)
    # a squarefree f has each factor once, so the two counts agree
    tm = t if squarefree else gf2poly.count_factors_with_multiplicity(f)
    predicted = theorem_parity(n, support)
    observed = ODD if t % 2 else EVEN
    agree = predicted == observed and not failures
    return ParityReport(
        spec=spec, poly=f, squarefree=squarefree, t_distinct=t,
        t_multiplicity=tm, disc_mod8=d8, predicted_parity=predicted,
        observed_parity=observed, agree=agree, failed_identities=tuple(failures))
