"""Exact integer resultants, discriminants, and resultants mod 8.

An integer polynomial is a list of int coefficients, lowest first, whose
length minus one is its degree in the Sylvester layout: trailing zeros
are zero-padding. The exact resultant is the determinant of the Sylvester
matrix, computed by fraction-free (Bareiss) elimination; the exact
discriminant of a monic f runs the same elimination on the n x n matrix
of multiplication by f' on Z[x]/(f), whose determinant is res(f, f').

The mod-8 resultant of a monic f and any g is a Euclid-style remainder
sequence on polynomials packed into one int each, one coefficient per
8-bit lane. Z/8Z is not a field, so a remainder with an even leading
coefficient cannot be made monic; it is split instead by 2-adic Hensel
lifting into a monic factor and a factor that is 1 mod 2, and the
resultant against the latter is taken on the reversed polynomials, where
it becomes monic (von zur Gathen and Gerhard, Modern Computer Algebra,
ch. 6 and 15). resultant_mod8 takes both polynomials as (exponent,
coefficient) pairs, so sparse polynomials need no dense list.
"""

from __future__ import annotations


class IntMatrix:
    """Dense integer matrix held as its rows."""

    __slots__ = ("rows", "n_rows", "n_cols")

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.n_rows = len(self.rows)
        self.n_cols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.n_cols for r in self.rows):
            raise ValueError("ragged rows")

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"IntMatrix({self.n_rows}x{self.n_cols})"


def sylvester(f: list[int], g: list[int]) -> IntMatrix:
    """Sylvester matrix of (f, g), f-coefficient rows above g-coefficient rows.

    f and g are coefficient lists, lowest first, and n = len(f) - 1 and
    m = len(g) - 1 are their degrees in the layout. The matrix is
    (n+m) x (n+m): m rows carry the coefficients of f from the leading
    term down, each shifted one column right of the previous, then n rows
    carry those of g likewise. Trailing zeros of g zero-pad it; that is
    allowed only when f is monic, where it provably leaves the
    determinant alone.
    """
    if not f:
        raise ValueError("zero polynomial on the first argument")
    if f[-1] == 0:
        raise ValueError("first argument has a zero leading coefficient")
    if not g:
        raise ValueError("the second argument needs at least one coefficient")
    if g[-1] == 0 and f[-1] != 1:
        raise ValueError("zero-padding the second argument requires a monic first argument")
    n = len(f) - 1
    m = len(g) - 1
    a = list(reversed(f))
    b = list(reversed(g))
    size = n + m
    rows = []
    for k in range(m):
        rows.append([0] * k + a + [0] * (size - k - n - 1))
    for k in range(n):
        rows.append([0] * k + b + [0] * (size - k - m - 1))
    return IntMatrix(rows)


def det_exact(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    Pivots are the first nonzero entry found scanning the current column
    downward; a row swap flips the sign. All divisions are exact.
    """
    if m.n_rows != m.n_cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.n_rows
    if n == 0:
        return 1
    a = [r[:] for r in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k]
        piv = pk[k]
        for i in range(k + 1, n):
            ri = a[i]
            cik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * piv - cik * pk[j]) // prev
            ri[k] = 0
        prev = piv
    return sign * a[n - 1][n - 1]


def _pack(terms) -> int:
    """(index, entry) pairs with distinct indices, each entry reduced mod 8
    into the 8-bit lane of its index; lane 0 is the lowest byte."""
    return sum((c % 8) << 8 * e for e, c in terms)


def _divmod8(e: int, p: int, d: int, mask: int) -> tuple[int, int]:
    """Quotient and remainder of packed e by packed monic p of degree d, mod 8.

    Top lane down: a lane k >= d holding c is cleared by adding
    (8 - c) x^(k-d) p, whose lanes are at most 49, so no sum reaches 256
    and no carry crosses a lane before the mask.
    """
    q = 0
    for k in range((e.bit_length() - 1) >> 3, d - 1, -1):
        c = e >> 8 * k & 7
        if c:
            e = (e + ((8 - c) * p << 8 * (k - d))) & mask
            q |= c << 8 * (k - d)
    return q, e


def _widen(x: int, w: int) -> int:
    """Packed x with each 8-bit lane moved into a w-byte lane."""
    out = bytearray(w * ((x.bit_length() + 7) >> 3))
    out[::w] = x.to_bytes(len(out) // w, "little")
    return int.from_bytes(out, "little")


def _mul8(x: int, y: int, mask: int) -> int:
    """Product of packed x and y, mod 8 in each lane.

    Kronecker substitution: in w-byte lanes no product coefficient, at most
    49 times the shorter length, reaches the next lane, and the low byte of
    each wide lane is the coefficient mod 256.
    """
    lanes = (min(x.bit_length(), y.bit_length()) + 7) >> 3
    w = 1 + (49 * lanes).bit_length() // 8
    z = _widen(x, w) * _widen(y, w)
    wide = z.to_bytes(w * -(-z.bit_length() // (8 * w)), "little")
    return int.from_bytes(wide[::w], "little") & mask


def _reverse(x: int, degree: int) -> int:
    """x^degree x(1/x) for packed x of degree at most degree."""
    return int.from_bytes(x.to_bytes(degree + 1, "little"), "big")


def resultant_mod8(f_terms, g_terms) -> int:
    """Resultant of monic f and g reduced into 0..7, each polynomial given
    as (exponent, coefficient) pairs with distinct exponents.

    f_terms must be a sequence; its highest exponent is the degree n. For
    monic f this is the product of g over the roots of f, so it does not
    depend on how far g is padded, and it depends on g only mod f and mod 8.

    Euclid on packed polynomials (see _pack), with a work list of pairs
    (A, B), A monic of degree a, whose resultants multiply into the answer;
    every step is exact mod 8 and lowers a:
    - B is reduced mod A. For a <= 2 the closed forms B(-c0) and
      b0^2 - c1 b0 b1 + c0 b1^2 end the pair. An all-even B gives
      2^a times a resultant, 0 mod 8 for a >= 3.
    - Odd leading coefficient l: lB is monic (l is its own inverse mod 8),
      and res(A, B) = l^a (-1)^(a deg B) res(lB, A mod lB).
    - Even leading coefficient: Hensel lifting from B = (B mod 2) * 1 mod 2
      gives B = P U mod 8 with P monic of degree d = deg(B mod 2) and
      U = 1 mod 2. res(A, P) continues as in the odd case. U(0) is odd, so
      with U* and A* the reversals at degrees u = deg U and a and V the
      monic U(0) U*, res(A, U) = U(0)^a res(V, A* mod V): the signs
      (-1)^(au) of reversing both and of swapping cancel.
    """
    n, lead = max(f_terms, default=(0, 0))
    if lead != 1:
        raise ValueError("the mod-8 resultant needs a monic first argument")
    g = _pack(g_terms)
    lanes = max(n + 1, (g.bit_length() + 7) >> 3)
    ones = int.from_bytes(b"\x01" * lanes, "little")
    sevens = 7 * ones
    eights = 8 * ones
    out = 1
    work = [(_pack(f_terms), n, g)]
    while work:
        a_poly, a, b = work.pop()
        while a:
            b = _divmod8(b, a_poly, a, sevens)[1]
            if a <= 2:
                b0 = b & 7
                if a == 2:
                    b1 = b >> 8 & 7
                    b0 = b0 * b0 - (a_poly >> 8 & 7) * b0 * b1 + (a_poly & 7) * b1 * b1
                out = out * b0 % 8
                break
            if not b & ones:
                return 0
            m = (b.bit_length() - 1) >> 3
            d = ((b & ones).bit_length() - 1) >> 3
            if d == m:
                lc = b >> 8 * m & 7
                out = out * (lc if a & 1 else 1) * (-1 if a & m & 1 else 1) % 8
                a_poly, a, b = b * lc & sevens, m, a_poly
                continue
            p, u = b & ones, 1
            for k in (1, 2):
                e = (((b | eights) - _mul8(p, u, sevens)) & sevens) >> k
                q, r = _divmod8(e, p, d, sevens)
                p = (p + (r << k)) & sevens
                u = (u + (q << k)) & sevens
            u0 = u & 7
            out = out * (u0 if a & 1 else 1) * (-1 if a & d & 1 else 1) % 8
            work.append((_reverse(u, m - d) * u0 & sevens, m - d, _reverse(a_poly, a)))
            a_poly, a, b = p, d, a_poly
    return out


def resultant(f: list[int], g: list[int]) -> int:
    """Exact resultant of coefficient lists f and g, laid out as in sylvester."""
    return det_exact(sylvester(f, g))


def _multiplication_matrix(f: list[int], g: list[int]) -> IntMatrix:
    """Rows x^j g mod f over Z, j = 0..n-1, for monic f of degree n: the
    matrix of multiplication by g on Z[x]/(f), whose determinant is res(f, g)."""
    n = len(f) - 1
    low = [(i, c) for i, c in enumerate(f[:n]) if c]

    def reduce(h: list[int]) -> list[int]:
        for k in range(len(h) - 1, n - 1, -1):
            c = h.pop()
            if c:
                for i, fi in low:
                    h[k - n + i] -= c * fi
        return h + [0] * (n - len(h))

    rows = [reduce(list(g))]
    for _ in range(n - 1):
        rows.append(reduce([0, *rows[-1]]))
    return IntMatrix(rows)


def discriminant_int(f: list[int]) -> int:
    """Discriminant of monic f, degree >= 2: (-1)^(n(n-1)/2) res(f, f'),
    with res(f, f') taken exactly on the n x n multiplication matrix."""
    n = len(f) - 1
    if n < 2:
        raise ValueError("discriminant needs degree at least 2")
    if f[n] != 1:
        raise ValueError("discriminant is implemented for monic polynomials")
    r = det_exact(_multiplication_matrix(f, [i * c for i, c in enumerate(f)][1:]))
    return -r if (n * (n - 1) // 2) % 2 else r
