"""Arithmetic in F2[x] with polynomials packed into Python ints.

A polynomial is a nonnegative int whose bit i is the coefficient of x^i,
so addition is xor, the degree of f is f.bit_length() - 1, its number of
terms is f.bit_count(), and division is long division on bits. On top of
division the module provides squarefreeness tests, squarefree
decomposition, irreducibility, trace spectra of field generators, and a
Berlekamp count of irreducible factors that eliminates half its rows.

Every function here is pure, and each refuses a negative int in place of
a polynomial.
"""

from __future__ import annotations

import functools


# the highest degree accepted from text (parse_poly, swan.parse_support_spec,
# search.SearchQuery). It bounds memory and, with it, the time of exact disc:
# at degree 511 about 0.22 s on a sparse input and 10-13 s on a dense one (README)
MAX_DEGREE = 511

_NEGATIVE = "a polynomial is a nonnegative int"


class PolyParseError(ValueError):
    """Polynomial text could not be parsed; the message names the bad token."""


def from_exponents(exps) -> int:
    """The polynomial with one term x^e for each of the distinct exponents e."""
    f = 0
    for e in exps:
        e = int(e)
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        if f >> e & 1:
            raise ValueError(f"duplicate exponent {e}")
        f |= 1 << e
    return f


def exponents(f: int) -> tuple[int, ...]:
    """Exponents with coefficient 1, in descending order."""
    if f < 0:
        raise ValueError(_NEGATIVE)
    out = []
    while f:
        e = f.bit_length() - 1
        out.append(e)
        f ^= 1 << e
    return tuple(out)


def divmod_f2(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of a by b."""
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    if a < 0 or b < 0:
        raise ValueError(_NEGATIVE)
    d = b.bit_length()
    q = 0
    while a.bit_length() >= d:
        k = a.bit_length() - d
        q |= 1 << k
        a ^= b << k
    return q, a


def mod_f2(a: int, b: int) -> int:
    """Remainder of a by b."""
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    if a < 0 or b < 0:
        raise ValueError(_NEGATIVE)
    d = b.bit_length()
    while a.bit_length() >= d:
        a ^= b << (a.bit_length() - d)
    return a


def _sqrt(f: int) -> int:
    # valid only when every exponent is even, i.e. f is h(x^2) = h(x)^2
    r = 0
    for e in exponents(f):
        if e & 1:
            raise ValueError("not a perfect square")
        r |= 1 << (e >> 1)
    return r


def parse_poly(text: str) -> int:
    """Parse symbolic ("x^21+x^7+1"), exponent-list ("21,7,0"), or hex ("0x200081") text."""
    s = "".join(text.split())
    if not s:
        raise PolyParseError("empty polynomial text")
    if s[:2].lower() == "0x":
        # ASCII hex digits only: int() also takes "1_3" and other scripts' digits
        if len(s) == 2 or s[2:].strip("0123456789abcdefABCDEF"):
            raise PolyParseError(f"bad hexadecimal literal '{s}'")
        bits = int(s, 16)
        check_degree(bits.bit_length() - 1)
        return bits
    if "x" in s or s in ("0", "1"):
        return _parse_symbolic(s)
    return _parse_exponent_list(s)


def check_degree(e: int) -> None:
    """Refuse a degree or exponent above MAX_DEGREE, before anything is built from it."""
    if e > MAX_DEGREE:
        raise PolyParseError(f"degree {e} is above the maximum of {MAX_DEGREE}")


def is_exponent_text(token: str) -> bool:
    """Plain ASCII decimal digits; int() also takes a sign, "1_1" and other scripts' digits."""
    return token.isascii() and token.isdigit()


def _parse_symbolic(s: str) -> int:
    if s == "0":
        return 0
    bits = 0
    for term in s.split("+"):
        if term == "1":
            e = 0
        elif term == "x":
            e = 1
        elif term.startswith("x^") and is_exponent_text(term[2:]):
            e = int(term[2:])
            check_degree(e)
        else:
            raise PolyParseError(f"bad term '{term}'")
        if bits >> e & 1:
            raise PolyParseError(f"duplicate exponent in term '{term}'")
        bits |= 1 << e
    return bits


def _parse_exponent_list(s: str) -> int:
    bits = 0
    prev = None
    for token in s.split(","):
        if not is_exponent_text(token):
            raise PolyParseError(f"bad exponent '{token}'")
        e = int(token)
        check_degree(e)
        if prev is not None and e >= prev:
            raise PolyParseError(f"exponent '{token}' breaks strictly descending order")
        prev = e
        bits |= 1 << e
    return bits


def format_poly(f: int) -> str:
    """Canonical symbolic form with strictly descending exponents."""
    if f == 0:
        return "0"
    terms = []
    for e in exponents(f):
        terms.append("1" if e == 0 else "x" if e == 1 else f"x^{e}")
    return "+".join(terms)


def gcd(f: int, g: int) -> int:
    """Greatest common divisor; over F2 the result is monic by construction."""
    if f < 0 or g < 0:
        raise ValueError(_NEGATIVE)
    if f == 0 and g == 0:
        raise ValueError("gcd of two zero polynomials is undefined")
    while g:
        f, g = g, mod_f2(f, g)
    return f


def derivative_f2(f: int) -> int:
    """Formal derivative over F2: odd exponents i survive as i-1."""
    if f < 0:
        raise ValueError(_NEGATIVE)
    # keep odd exponents, lowered by one: shift right, mask even positions
    f >>= 1
    n = f.bit_length()
    n += n & 1
    return f & (((1 << n) - 1) // 3)


def is_squarefree(f: int) -> bool:
    """True iff f has no repeated irreducible factor; f must be nonzero."""
    if f <= 0:
        raise ValueError("squarefreeness needs a nonzero polynomial")
    if f == 1:
        return True
    d = derivative_f2(f)
    return d != 0 and gcd(f, d) == 1  # d = 0: every exponent even, so f is a square


def count_distinct_irreducible_factors(f: int) -> int:
    """Number of distinct irreducible factors of f: n minus the F2-rank of
    the rows x^(2i) + x^i mod f, 0 <= i < n (the fixed space of squaring).

    Row 0 is zero and rows 0 < i < h = ceil(n/2) need no reduction. Summing
    rows i, i/2, i/4, ... gives x^(2i) + x^o(i), o(i) the odd part of i;
    these h - 1 sums span the same space, and their leading terms 2i are
    distinct, so they are pivots. Only rows i >= h are eliminated.
    """
    if f < 2:
        raise ValueError("factor counting needs degree at least 1")
    n = f.bit_length() - 1
    h = (n + 1) // 2
    pivots = _half_row_pivots(n)[:]  # the elimination writes into its own copy
    rank = h - 1
    cur = 1 << (2 * h - 2)
    for i in range(h, n):
        cur <<= 2
        while cur.bit_length() > n:
            cur ^= f << (cur.bit_length() - 1 - n)
        r = cur ^ (1 << i)
        while r:
            b = r.bit_length()
            p = pivots[b]
            if not p:
                pivots[b] = r
                rank += 1
                break
            r ^= p
    return n - rank


@functools.cache
def _half_row_pivots(n: int) -> list[int]:
    """The count's pivot table at degree n, indexed by bit_length of the leading
    term, holding only the h - 1 half-row pivots; it depends on n alone, so it is
    built once per degree (19.5 KB at n = 511) and callers copy it."""
    h = (n + 1) // 2
    pivots = [0] * (n + 1)
    pivots[3:2 * h:2] = [1 << (2 * i) | 1 << (i // (i & -i)) for i in range(1, h)]
    return pivots


def squarefree_decomposition(f: int) -> list[tuple[int, int]]:
    """Pairwise coprime squarefree parts with multiplicities, f = prod g_j^e_j.

    Char-2 decomposition: the usual gcd ladder peels parts of odd
    multiplicity, what remains is a perfect square whose root is taken by
    halving exponents, doubling the pending multiplicity.
    """
    if f < 2:
        raise ValueError("factor counting needs degree at least 1")
    parts: list[tuple[int, int]] = []
    mult = 1
    while f > 1:
        d = derivative_f2(f)
        if d == 0:
            f = _sqrt(f)
            mult *= 2
            continue
        g = gcd(f, d)
        h = divmod_f2(f, g)[0]
        i = 1
        while h != 1:
            gg = gcd(g, h)
            hh = divmod_f2(h, gg)[0]
            if hh != 1:
                parts.append((hh, i * mult))
            i += 1
            g, h = divmod_f2(g, gg)[0], gg
        f = g
    parts.sort(key=lambda t: (t[1], t[0]))
    return parts


def count_factors_with_multiplicity(f: int) -> int:
    """Total number of irreducible factors counted with multiplicity."""
    return sum(e * count_distinct_irreducible_factors(g)
               for g, e in squarefree_decomposition(f))


def is_irreducible(f: int) -> bool:
    """True iff f is irreducible; f must have degree at least 1."""
    if f < 2:
        raise ValueError("irreducibility needs degree at least 1")
    return is_squarefree(f) and count_distinct_irreducible_factors(f) == 1


def trace_spectrum(f: int) -> tuple[int, ...]:
    """Traces Tr(alpha^i) for 0 <= i < n as 0/1 ints, alpha a root of irreducible f.

    With c_j the coefficient of x^(n-j), the power sums mod 2 satisfy
    p_k = sum_{j<k} c_j p_{k-j} + k c_k mod 2 and p_0 = n mod 2; the trace
    of alpha^i is p_i. Bit j of c is c_j and bit j of q is p_(k-j), so the
    sum is the parity of the bits of c & q below k.
    """
    if f < 2 or not is_irreducible(f):
        raise ValueError("trace spectrum requires an irreducible polynomial")
    n = f.bit_length() - 1
    c = int(bin(f)[:1:-1], 2)  # f with its bits reversed
    p = [n & 1]
    q = p[0] << 1
    for k in range(1, n):
        p.append(((c & q & (1 << k) - 1).bit_count() + (k & c >> k)) & 1)
        q = (q | p[k]) << 1
    return tuple(p)


def am_condition(f: int) -> bool:
    """Syntactic single-trace test for odd degree f.

    True iff every exponent of f other than deg f and 0 is odd. For
    irreducible f of odd degree this is equivalent to the trace spectrum
    having exactly one nonzero entry.
    """
    if f <= 0:
        raise ValueError("the single-trace test needs a nonzero polynomial")
    n = f.bit_length() - 1
    if n % 2 == 0:
        raise ValueError("defined only for odd degree")
    return all(e % 2 == 1 for e in exponents(f) if e not in (0, n))


@functools.lru_cache(maxsize=None)
def irreducibles(max_degree: int) -> tuple[int, ...]:
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
                if mod_f2(bits, q) == 0:
                    composite = True
                    break
            if not composite:
                table.append(bits)
    return tuple(table)
