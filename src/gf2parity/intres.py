"""Exact integer resultants, discriminants, and resultants mod 8.

An integer polynomial is a list of int coefficients, lowest first, whose
length minus one is its degree in the Sylvester layout: trailing zeros
are zero-padding. The exact resultant comes from the subresultant
pseudo-remainder sequence over Z, whose every division is exact; the
exact discriminant of a monic f is +-res(f, f'). det_exact is a
fraction-free (Bareiss) determinant, the exact check of the lemma
matrices. resultant_mod8 runs Euclid over Z/8 instead, with 2-adic Hensel
splits where a remainder's leading coefficient is even (von zur Gathen and
Gerhard, Modern Computer Algebra, ch. 6 and 15). It packs the
coefficients into lanes just wide enough that a product of two packed
polynomials is one multiply, lifts no remainder that is 1 mod 2, and after
a split reduces only the top 3u coefficients of a remainder against a
cofactor of degree u.
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

    @classmethod
    def wrap(cls, rows: list[list[int]]) -> IntMatrix:
        """The matrix of rows, lists of one length, kept as they are: no copy, no check."""
        m = object.__new__(cls)
        m.rows, m.n_rows, m.n_cols = rows, len(rows), len(rows[0]) if rows else 0
        return m

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"IntMatrix({self.n_rows}x{self.n_cols})"


def det_exact(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    Pivots are the first nonzero entry found scanning the current column
    downward; a row swap flips the sign. All divisions are exact. A row
    whose pivot-column entry is 0 steps to a_ij * piv / prev, still exact
    as every entry is a minor, so when piv == prev only the rows with a
    nonzero pivot-column entry are visited. A step with prev == 1 divides
    by nothing, and one with piv == prev == 1 multiplies by nothing either:
    the unit upper-triangular blocks of the L2 and GENERAL lemmas take these.
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
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    break
            else:
                return 0
            a[k], a[i], sign = a[i], a[k], -sign
        pk = a[k]
        piv = pk[k]
        cols = range(k + 1, n)
        if piv == prev:
            for ri in [ri for ri in a[k + 1:] if ri[k]]:
                cik = ri[k]
                if prev == 1:
                    for j in cols:
                        ri[j] -= cik * pk[j]
                else:
                    for j in cols:
                        ri[j] = (ri[j] * piv - cik * pk[j]) // prev
                ri[k] = 0
        else:
            for ri in a[k + 1:]:
                cik = ri[k]
                if cik:
                    if prev == 1:
                        for j in cols:
                            ri[j] = ri[j] * piv - cik * pk[j]
                    else:
                        for j in cols:
                            ri[j] = (ri[j] * piv - cik * pk[j]) // prev
                    ri[k] = 0
                elif prev == 1:
                    for j in cols:
                        ri[j] *= piv
                else:
                    for j in cols:
                        ri[j] = ri[j] * piv // prev
        prev = piv
    return sign * a[n - 1][n - 1]


def _lane_bytes(lanes: int) -> int:
    """Fewest bytes w with 49 lanes < 256^w: a lane that wide holds any
    coefficient of a product of two polynomials of at most lanes
    coefficients in 0..7."""
    return -(-(49 * lanes).bit_length() // 8)


def resultant_mod8(f_terms, g_terms) -> int:
    """Resultant of monic f and g reduced into 0..7, each polynomial given
    as (exponent, coefficient) pairs with distinct exponents.

    f_terms must be a sequence, g_terms any iterable; f's highest exponent is
    its degree n. For monic f this is the product of g over the roots of f,
    so it does not depend on how far g is padded, and it depends on g only
    mod f and mod 8.

    Coefficients mod 8 are packed into lanes of w bytes, lane 0 lowest,
    with lanes = 1 + max(n, top exponent of g) and w = _lane_bytes(lanes):
    a product of two reduced polynomials has coefficients at most 49 lanes,
    so its lanes mod 8 are one multiply and a mask. Euclid runs on a work
    list of pairs (A, B), A monic of degree a, whose resultants multiply
    into the answer; every step is exact mod 8 and lowers a:
    - B is reduced mod A. For a <= 2 the closed forms B(-c0) and
      b0^2 - c1 b0 b1 + c0 b1^2 end the pair. An all-even B gives
      2^a times a resultant, 0 mod 8 for a >= 3.
    - Odd leading coefficient l: lB is monic (l is its own inverse mod 8),
      and res(A, B) = l^a (-1)^(a deg B) res(lB, A mod lB).
    - Even leading coefficient: Hensel lifting from B = (B mod 2) * 1 mod 2
      gives B = P U mod 8 with P monic of degree d = deg(B mod 2) and
      U = 1 mod 2. res(A, P) continues as in the odd case; at d = 0, B = 1
      mod 2 is its own U, with P = 1, and the pair ends. U(0) is odd, so
      with U* and A* the reversals at degrees u = deg U and a and V the
      monic U(0) U*, res(A, U) = U(0)^a res(V, A* mod V): the signs
      (-1)^(au) of reversing both and of swapping cancel. Only the lowest
      3u coefficients of A* count: U = 1 mod 2 gives V = x^u mod 2, so
      x^u = 2W mod V for some W, and x^(3u) = 8 W^3 = 0 mod V and 8.
      Those are the top 3u coefficients of A, reversed.
    """
    n, lead = max(f_terms, default=(0, 0))
    if lead != 1:
        raise ValueError("the mod-8 resultant needs a monic first argument")
    g_terms = list(g_terms)
    lanes = 1 + max(n, max((e for e, _ in g_terms), default=0))
    w = _lane_bytes(lanes)
    bits = 8 * w
    f = g = 0
    for e, c in f_terms:
        f |= (c & 7) << bits * e
    for e, c in g_terms:
        g |= (c & 7) << bits * e
    return _resultant_mod8_packed(f, n, g, lanes, w)


def _resultant_mod8_packed(f: int, n: int, g: int, lanes: int, w: int) -> int:
    """resultant_mod8 of f and g packed in `lanes` lanes of w bytes, with
    w = _lane_bytes(lanes), f monic of degree n and g's lanes in 0..7. f's
    lanes may hold any value below 256^w: they are reduced mod 8 here, so the
    disc's Graeffe step (swan) hands over y U^2 - 1 straight off one multiply."""
    bits = 8 * w
    ones = int.from_bytes(b"\x01".ljust(w, b"\0") * lanes, "little")
    sevens, eights = 7 * ones, 8 * ones
    out = 1
    work = [(f & sevens, n, g)]
    while work:
        a_poly, a, b = work.pop()
        while a:
            # B mod A in place: (8 - c) x^(m-a) A clears top lane c, carrying nothing
            while (m := (b.bit_length() - 1) // bits) >= a:
                b = (b + ((8 - (b >> bits * m)) * a_poly << bits * (m - a))) & sevens
            if a <= 2:
                b0 = b & 7
                if a == 2:
                    b1 = b >> bits & 7
                    b0 = b0 * b0 - (a_poly >> bits & 7) * b0 * b1 + (a_poly & 7) * b1 * b1
                out = out * b0 % 8
                break
            p = b & ones
            if not p:
                return 0
            d = (p.bit_length() - 1) // bits
            if d == m:
                lc = b >> bits * m
                if a & 1:
                    out = out * (-lc if m & 1 else lc) % 8
                a_poly, a, b = b * lc & sevens, m, a_poly
                continue
            u = b
            if d:  # lift B = (B mod 2) * 1 to mod 4, then to mod 8
                u = 1
                for k in (1, 2):
                    e = (((b | eights) - (p * u & sevens)) & sevens) >> k
                    q = 0  # e = q P + r: r goes to P, q to U
                    while (j := (e.bit_length() - 1) // bits) >= d:
                        c = e >> bits * j
                        e = (e + ((8 - c) * p << bits * (j - d))) & sevens
                        q |= c << bits * (j - d)
                    p = (p + (e << k)) & sevens
                    u = (u + (q << k)) & sevens
            u0 = u & 7
            if a & 1:
                out = out * (-u0 if d & 1 else u0) % 8
            t = a + 1 - 3 * (m - d)
            if t < 0:
                t = 0
            # x^k X(1/x) at degree k: the lanes' bytes read the other way round
            v = int.from_bytes(u.to_bytes(w * (m - d + 1), "little"), "big") >> bits - 8
            r = a_poly >> bits * t
            r = int.from_bytes(r.to_bytes(w * (a - t + 1), "little"), "big") >> bits - 8
            work.append((v * u0 & sevens, m - d, r))
            if not d:
                break
            a_poly, a, b = p, d, a_poly
    return out


# the divisor size from which _divide_2adic beats //, measured on the
# sequences of dense discriminants at degrees 127 and 255
_TWO_ADIC_BITS = 512


def _divide_2adic(r: list[int], d: int) -> list[int]:
    """[c // d for c in r], for d dividing every c and some c nonzero, by the
    inverse u of d's odd part mod 2^k, k two bits past the quotients' size
    (Jebelean, J. Symb. Comput. 15, 1993). Newton's step u = u (2 - d u)
    doubles the correct low bits of u."""
    e = (d & -d).bit_length() - 1
    k = max(c.bit_length() for c in r) - d.bit_length() + 3
    d >>= e
    u, bits = 1, 1
    while bits < k:
        bits = min(2 * bits, k)
        u = u * (2 - (d & (1 << bits) - 1) * u) & (1 << bits) - 1
    mask, top = (1 << k) - 1, 1 << (k - 1)
    return [((c >> e & mask) * u & mask ^ top) - top for c in r]


def resultant(f: list[int], g: list[int]) -> int:
    """Exact resultant of coefficient lists f and g, lowest first: the
    Sylvester determinant at degrees n = len(f) - 1 and m = len(g) - 1.

    Trailing zeros zero-pad g, which only a monic f allows; a constant f
    gives f0^m. Otherwise the subresultant pseudo-remainder sequence runs
    (Collins, J. ACM 14, 1967; Brown and Traub, J. ACM 18, 1971; Cohen,
    Algorithm 3.3.7). For deg A - deg B = delta and l = lc(B), l^(delta+1) A
    mod B divides exactly by g h^delta; then g = l, h = g^delta / h^(delta-1),
    and two odd degrees flip the sign. A constant remainder r ends it as
    r^deg A / h^(deg A - 1). A divisor above _TWO_ADIC_BITS bits divides
    2-adically (_divide_2adic).
    """
    if not f or not f[-1]:
        raise ValueError("the first argument needs a nonzero leading coefficient")
    if not g:
        raise ValueError("the second argument needs at least one coefficient")
    if g[-1] == 0 and f[-1] != 1:
        raise ValueError("zero-padding the second argument requires a monic first argument")
    n = len(f) - 1
    if n == 0:
        return f[0] ** (len(g) - 1)
    if not any(g):
        return 0
    g = g[:max(i for i, c in enumerate(g) if c) + 1]
    m = len(g) - 1
    a, b = (f, g) if n >= m else (g, f)
    sign = -1 if n < m and n & m & 1 else 1
    d = h = 1
    while len(b) > 1:
        da, db, lb = len(a) - 1, len(b) - 1, b[-1]
        delta = da - db
        if da & db & 1:
            sign = -sign
        s = lb ** (delta + 1)
        r = [s * c for c in a]
        tail = b[:-1]
        for k in range(delta, -1, -1):
            q = r.pop() // lb
            if q:
                for i, y in enumerate(tail, k):
                    r[i] -= q * y
        while r and not r[-1]:
            r.pop()
        if not r:
            return 0
        if d.bit_length() > _TWO_ADIC_BITS:
            r = _divide_2adic(r, d)
        elif d != 1:
            r = [c // d for c in r]
        a, b = b, r
        h = lb ** delta * h // h ** delta
        d = lb * h ** (len(a) - len(b))
    da = len(a) - 1
    return sign * b[0] ** da // h ** (da - 1)


def discriminant_int(f: list[int]) -> int:
    """Discriminant of monic f, degree >= 2: (-1)^(n(n-1)/2) res(f, f')."""
    n = len(f) - 1
    if n < 2:
        raise ValueError("discriminant needs degree at least 2")
    if f[n] != 1:
        raise ValueError("discriminant is implemented for monic polynomials")
    return (-1) ** (n * (n - 1) // 2) * resultant(f, [i * c for i, c in enumerate(f)][1:])
