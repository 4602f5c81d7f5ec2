"""Arithmetic in F2[x] with polynomials packed into Python ints.

A polynomial is represented by a nonnegative int whose bit i is the
coefficient of x^i, so addition is xor, multiplication is shift-and-xor,
and division is long division on bits. On top of the ring operations the
module provides squarefreeness tests, squarefree decomposition, counting
of irreducible factors through the kernel of the squaring map,
irreducibility, and trace spectra of field generators.

BitPoly values are immutable and every function here is pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass


class PolyParseError(ValueError):
    """Polynomial text could not be parsed; the message names the bad token."""


class BitPoly:
    """Polynomial over F2; bit i of bits is the coefficient of x^i."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0):
        if bits < 0:
            raise ValueError("coefficient mask must be nonnegative")
        self.bits = bits

    @classmethod
    def from_exponents(cls, exponents) -> BitPoly:
        """Build a polynomial from an iterable of distinct exponents."""
        bits = 0
        for e in exponents:
            e = int(e)
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            if bits >> e & 1:
                raise ValueError(f"duplicate exponent {e}")
            bits |= 1 << e
        return cls(bits)

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has none."""
        if self.bits == 0:
            raise ValueError("the zero polynomial has no degree")
        return self.bits.bit_length() - 1

    @property
    def exponents(self) -> tuple[int, ...]:
        """Exponents with coefficient 1, in descending order."""
        out = []
        b = self.bits
        while b:
            e = b.bit_length() - 1
            out.append(e)
            b ^= 1 << e
        return tuple(out)

    def weight(self) -> int:
        """Number of nonzero terms."""
        return self.bits.bit_count()

    def shift(self, k: int) -> BitPoly:
        """Multiply by x^k."""
        return BitPoly(self.bits << k)

    def __add__(self, other: BitPoly) -> BitPoly:
        return BitPoly(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: BitPoly) -> BitPoly:
        return BitPoly(_mul_bits(self.bits, other.bits))

    def __divmod__(self, other: BitPoly):
        q, r = _divmod_bits(self.bits, other.bits)
        return BitPoly(q), BitPoly(r)

    def __floordiv__(self, other: BitPoly) -> BitPoly:
        return BitPoly(_divmod_bits(self.bits, other.bits)[0])

    def __mod__(self, other: BitPoly) -> BitPoly:
        return BitPoly(_mod_bits(self.bits, other.bits))

    def __eq__(self, other) -> bool:
        return isinstance(other, BitPoly) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(("BitPoly", self.bits))

    def __bool__(self) -> bool:
        return self.bits != 0

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"BitPoly({self.bits:#x})"


ONE = BitPoly(1)
X = BitPoly(2)


def _mul_bits(a: int, b: int) -> int:
    if a.bit_count() < b.bit_count():
        a, b = b, a
    c = 0
    while b:
        if b & 1:
            c ^= a
        a <<= 1
        b >>= 1
    return c


def _divmod_bits(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    d = b.bit_length()
    q = 0
    while a.bit_length() >= d:
        k = a.bit_length() - d
        q |= 1 << k
        a ^= b << k
    return q, a


def _mod_bits(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    d = b.bit_length()
    while a.bit_length() >= d:
        a ^= b << (a.bit_length() - d)
    return a


def _gcd_bits(a: int, b: int) -> int:
    while b:
        a, b = b, _mod_bits(a, b)
    return a


def _degree_bits(b: int) -> int:
    return b.bit_length() - 1


def _derivative_bits(b: int) -> int:
    # keep odd exponents, lowered by one: shift right, mask even positions
    b >>= 1
    n = b.bit_length()
    n += n & 1
    return b & (((1 << n) - 1) // 3)


def _sqrt_bits(b: int) -> int:
    # valid only when every exponent is even, i.e. b is h(x^2) = h(x)^2
    r = 0
    while b:
        e = b.bit_length() - 1
        if e & 1:
            raise ValueError("not a perfect square")
        r |= 1 << (e >> 1)
        b ^= 1 << e
    return r


def parse_poly(text: str) -> BitPoly:
    """Parse symbolic ("x^21+x^7+1"), exponent-list ("21,7,0"), or hex ("0x200081") text."""
    s = "".join(text.split())
    if not s:
        raise PolyParseError("empty polynomial text")
    if s[:2].lower() == "0x":
        try:
            return BitPoly(int(s, 16))
        except ValueError:
            raise PolyParseError(f"bad hexadecimal literal '{s}'") from None
    if "x" in s or s in ("0", "1"):
        return _parse_symbolic(s)
    return _parse_exponent_list(s)


def _parse_symbolic(s: str) -> BitPoly:
    if s == "0":
        return BitPoly(0)
    bits = 0
    for term in s.split("+"):
        if term == "1":
            e = 0
        elif term == "x":
            e = 1
        elif term.startswith("x^"):
            try:
                e = int(term[2:])
            except ValueError:
                raise PolyParseError(f"bad term '{term}'") from None
            if e < 0:
                raise PolyParseError(f"negative exponent in term '{term}'")
        else:
            raise PolyParseError(f"bad term '{term}'")
        if bits >> e & 1:
            raise PolyParseError(f"duplicate exponent in term '{term}'")
        bits |= 1 << e
    return BitPoly(bits)


def _parse_exponent_list(s: str) -> BitPoly:
    bits = 0
    prev = None
    for token in s.split(","):
        try:
            e = int(token)
        except ValueError:
            raise PolyParseError(f"bad exponent '{token}'") from None
        if e < 0:
            raise PolyParseError(f"negative exponent '{token}'")
        if prev is not None and e >= prev:
            raise PolyParseError(f"exponent '{token}' breaks strictly descending order")
        prev = e
        bits |= 1 << e
    return BitPoly(bits)


def format_poly(f: BitPoly) -> str:
    """Canonical symbolic form with strictly descending exponents."""
    if f.is_zero:
        return "0"
    terms = []
    for e in f.exponents:
        terms.append("1" if e == 0 else "x" if e == 1 else f"x^{e}")
    return "+".join(terms)


def rem(f: BitPoly, g: BitPoly) -> BitPoly:
    """Remainder of f modulo g; g must be nonzero."""
    return f % g


def gcd(f: BitPoly, g: BitPoly) -> BitPoly:
    """Greatest common divisor; over F2 the result is monic by construction."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    return BitPoly(_gcd_bits(f.bits, g.bits))


def derivative_f2(f: BitPoly) -> BitPoly:
    """Formal derivative over F2: odd exponents i survive as i-1."""
    return BitPoly(_derivative_bits(f.bits))


def is_squarefree(f: BitPoly) -> bool:
    """True iff f has no repeated irreducible factor; f must be nonzero."""
    if f.is_zero:
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    if f.degree == 0:
        return True
    d = _derivative_bits(f.bits)
    if d == 0:
        # every exponent even, so f is a square
        return False
    return _gcd_bits(f.bits, d) == 1


def count_distinct_irreducible_factors(f: BitPoly) -> int:
    """Number of distinct irreducible factors of f.

    Computed as the dimension of the fixed space of the squaring map on
    F2[x]/f: build the rows x^(2i) mod f incrementally, subtract the
    identity, and take n minus the rank over F2.
    """
    if f.is_zero or f.degree < 1:
        raise ValueError("factor counting needs degree at least 1")
    n = f.degree
    fb = f.bits
    rows = []
    cur = 1
    for i in range(n):
        rows.append(cur ^ (1 << i))
        if i + 1 < n:
            cur <<= 2
            while cur.bit_length() - 1 >= n:
                cur ^= fb << (cur.bit_length() - 1 - n)
    pivots: dict[int, int] = {}
    rank = 0
    for r in rows:
        while r:
            top = r.bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = r
                rank += 1
                break
            r ^= p
    return n - rank


def squarefree_decomposition(f: BitPoly) -> list[tuple[BitPoly, int]]:
    """Pairwise coprime squarefree parts with multiplicities, f = prod g_j^e_j.

    Char-2 decomposition: the usual gcd ladder peels parts of odd
    multiplicity, what remains is a perfect square whose root is taken by
    halving exponents, doubling the pending multiplicity.
    """
    if f.is_zero or f.degree < 1:
        raise ValueError("decomposition needs degree at least 1")
    parts: list[tuple[BitPoly, int]] = []
    mult = 1
    fb = f.bits
    while _degree_bits(fb) > 0:
        d = _derivative_bits(fb)
        if d == 0:
            fb = _sqrt_bits(fb)
            mult *= 2
            continue
        g = _gcd_bits(fb, d)
        h = _divmod_bits(fb, g)[0]
        i = 1
        while h != 1:
            gg = _gcd_bits(g, h)
            hh = _divmod_bits(h, gg)[0]
            if hh != 1:
                parts.append((BitPoly(hh), i * mult))
            i += 1
            g, h = _divmod_bits(g, gg)[0], gg
        fb = g
    parts.sort(key=lambda t: (t[1], t[0].bits))
    return parts


def count_factors_with_multiplicity(f: BitPoly) -> int:
    """Total number of irreducible factors counted with multiplicity."""
    return sum(e * count_distinct_irreducible_factors(g)
               for g, e in squarefree_decomposition(f))


def is_irreducible(f: BitPoly) -> bool:
    """True iff f is irreducible; f must have degree at least 1."""
    if f.is_zero or f.degree < 1:
        raise ValueError("irreducibility needs degree at least 1")
    return is_squarefree(f) and count_distinct_irreducible_factors(f) == 1


@dataclass(frozen=True)
class TraceSpectrum:
    """Traces Tr(alpha^i) for 0 <= i < n, alpha a root of an irreducible f."""

    n: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) != self.n:
            raise ValueError("spectrum length must equal the degree")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("spectrum entries must be 0 or 1")

    def ones(self) -> tuple[int, ...]:
        """Indices i with Tr(alpha^i) = 1."""
        return tuple(i for i, b in enumerate(self.bits) if b)


def trace_spectrum(f: BitPoly) -> TraceSpectrum:
    """Trace spectrum of a root of irreducible f via power sums mod 2.

    With c_j the coefficient of x^(n-j), the power sums satisfy
    p_k = sum_{j<k} c_j p_{k-j} + k c_k mod 2 and p_0 = n mod 2; the trace
    of alpha^i is p_i. Indices k > n-1 are never produced.
    """
    if f.is_zero or f.degree < 1 or not is_irreducible(f):
        raise ValueError("trace spectrum requires an irreducible polynomial")
    n = f.degree
    c = [0] * (n + 1)
    for e in f.exponents:
        if e < n:
            c[n - e] = 1
    p = [0] * n
    p[0] = n & 1
    for k in range(1, n):
        acc = k & 1 if c[k] else 0
        for j in range(1, k):
            if c[j]:
                acc ^= p[k - j]
        p[k] = acc
    return TraceSpectrum(n, tuple(p))


def am_condition(f: BitPoly) -> bool:
    """Syntactic single-trace test for odd degree f.

    True iff every exponent of f other than deg f and 0 is odd. For
    irreducible f of odd degree this is equivalent to the trace spectrum
    having exactly one nonzero entry.
    """
    n = f.degree
    if n % 2 == 0:
        raise ValueError("defined only for odd degree")
    return all(e % 2 == 1 for e in f.exponents if e not in (0, n))


@functools.lru_cache(maxsize=None)
def irreducibles(max_degree: int) -> tuple[BitPoly, ...]:
    """All irreducible polynomials of degree 1..max_degree, ascending.

    Generated by a sieve: a candidate of degree d is kept when no already
    listed polynomial of degree <= d // 2 divides it.
    """
    table: list[int] = []
    for d in range(1, max_degree + 1):
        for bits in range(1 << d, 1 << (d + 1)):
            if d > 1 and not bits & 1:
                continue
            composite = False
            for q in table:
                if q.bit_length() - 1 > d // 2:
                    break
                if _mod_bits(bits, q) == 0:
                    composite = True
                    break
            if not composite:
                table.append(bits)
    return tuple(BitPoly(b) for b in table)
