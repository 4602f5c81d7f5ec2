"""Exact integer resultants, discriminants, and resultants mod 8.

An integer polynomial is a list of int coefficients, lowest first, whose
length minus one is its degree in the Sylvester layout: trailing zeros
are zero-padding. The exact resultant comes from Collins' modular
algorithm (J. ACM 18, 1971): Euclid over F_p for primes p below 2^81,
joined by CRT up to the Hadamard bound; the exact discriminant of a
monic f is +-res(f, f'). det_exact is a fraction-free (Bareiss)
determinant, the exact check of the lemma matrices. resultant_mod8 runs
Euclid over Z/8 instead, with 2-adic Hensel splits where a remainder's
leading coefficient is even (von zur Gathen and Gerhard, Modern Computer
Algebra, ch. 6 and 15). It packs the coefficients into lanes just wide
enough that a product of two packed polynomials is one multiply, lifts
no remainder that is 1 mod 2, and after a split reduces only the top 3u
coefficients of a remainder against a cofactor of degree u.
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
    as every entry is a minor, so it is left alone when piv == prev.
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
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i], sign = a[i], a[k], -sign
        pk = a[k]
        piv = pk[k]
        for i in range(k + 1, n):
            ri = a[i]
            cik = ri[k]
            if cik:
                for j in range(k + 1, n):
                    ri[j] = (ri[j] * piv - cik * pk[j]) // prev
                ri[k] = 0
            elif piv != prev:
                for j in range(k + 1, n):
                    ri[j] = ri[j] * piv // prev
        prev = piv
    return sign * a[n - 1][n - 1]


def _lane_bytes(lanes: int) -> int:
    """Fewest bytes w with 49 lanes < 256^w: a lane that wide holds any
    coefficient of a product of two polynomials of at most lanes
    coefficients in 0..7."""
    return -(-(49 * lanes).bit_length() // 8)


def _reverse(x: int, degree: int, w: int) -> int:
    """x^degree x(1/x) for packed x of degree at most degree in w-byte lanes."""
    return int.from_bytes(x.to_bytes(w * (degree + 1), "little"), "big") >> 8 * (w - 1)


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
      U = 1 mod 2; B = 1 mod 2 is its own U, with P = 1. res(A, P)
      continues as in the odd case. U(0) is odd, so with U* and A* the
      reversals at degrees u = deg U and a and V the monic U(0) U*,
      res(A, U) = U(0)^a res(V, A* mod V): the signs (-1)^(au) of
      reversing both and of swapping cancel. Only the lowest 3u
      coefficients of A* count: U = 1 mod 2 gives V = x^u mod 2, so
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
    ones = int.from_bytes(b"\x01".ljust(w, b"\0") * lanes, "little")
    sevens, eights = 7 * ones, 8 * ones
    out = 1
    work = [(f, n, g)]
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
            if not b & ones:
                return 0
            d = ((b & ones).bit_length() - 1) // bits
            if d == m:
                lc = b >> bits * m
                out = out * (lc if a & 1 else 1) * (-1 if a & m & 1 else 1) % 8
                a_poly, a, b = b * lc & sevens, m, a_poly
                continue
            p, u = b & ones, b
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
            out = out * (u0 if a & 1 else 1) * (-1 if a & d & 1 else 1) % 8
            t = max(0, a + 1 - 3 * (m - d))
            work.append((_reverse(u, m - d, w) * u0 & sevens, m - d,
                         _reverse(a_poly >> bits * t, a - t, w)))
            a_poly, a, b = p, d, a_poly
    return out


# the first thirteen primes: as Miller-Rabin bases they decide primality
# exactly below 3.3e24 (Sorenson and Webster, Math. Comp. 2017), so below 2^81
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the primes below 2^81, largest first: stored as offsets from 2^81 up to the
# 109th, the most a discriminant up to MAX_DEGREE needs (the all-ones
# polynomial of degree 511), and found as needed past it
_PRIMES = [(1 << 81) - d for d in (
    51, 63, 163, 205, 333, 349, 429, 433, 481, 553, 625, 661, 685, 795, 885, 909, 933, 1033, 1053,
    1083, 1155, 1221, 1255, 1269, 1341, 1371, 1389, 1449, 1501, 1533, 1593, 1621, 1749, 1761, 1783,
    1789, 1803, 1815, 1875, 1941, 1959, 1969, 1995, 2043, 2061, 2065, 2071, 2173, 2223, 2245, 2379,
    2485, 2515, 2539, 2593, 2611, 2665, 2673, 2701, 2835, 2863, 2935, 2959, 2985, 2989, 3103, 3189,
    3339, 3393, 3481, 3519, 3523, 3559, 3561, 3565, 3601, 3675, 3741, 3813, 3831, 3859, 3915, 3999,
    4029, 4045, 4119, 4135, 4161, 4279, 4333, 4401, 4423, 4515, 4573, 4599, 4701, 4729, 4833, 4903,
    4909, 5001, 5005, 5031, 5043, 5229, 5245, 5305, 5409, 5505)]


def _is_prime(n: int) -> bool:
    """Miller-Rabin on _BASES for odd n > 41, with n - 1 = 2^s d, d odd."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    return all(n % a for a in _BASES) and all(
        pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(s)) for a in _BASES)


def _prime(k: int) -> int:
    """The k-th largest prime below 2^81, k = 0 for the largest."""
    while len(_PRIMES) <= k:
        _PRIMES.append(next(c for c in range(_PRIMES[-1] - 2, 0, -2) if _is_prime(c)))
    return _PRIMES[k]


def _resultant_mod_p(a: list[int], b: list[int], p: int) -> int:
    """res(a, b) mod p by Euclid over F_p, for residue lists with nonzero
    leading entries, deg a >= 1; a may change. With r = a mod b, res(a, b) =
    (-1)^(deg a deg b) lc(b)^(deg a - deg r) res(b, r)."""
    out = 1
    while len(b) > 1:
        da, db, lc = len(a) - 1, len(b) - 1, b[-1]
        inv = pow(lc, -1, p)
        minus_b = [-y * inv % p for y in b[:-1]]  # x^db - b / lc
        for k in range(da - db, -1, -1):
            q = a[k + db] % p  # mod p only where a coefficient leads or remains
            if q:
                for i, y in enumerate(minus_b, k):
                    a[i] += q * y
        a = [x % p for x in a[:db]]
        while a and not a[-1]:
            a.pop()
        if not a:
            return 0
        out = out * pow(lc, da - len(a) + 1, p) * (-1 if da & db & 1 else 1) % p
        a, b = b, a
    return out * pow(b[0], len(a) - 1, p) % p


def resultant(f: list[int], g: list[int]) -> int:
    """Exact resultant of coefficient lists f and g, lowest first: the
    Sylvester determinant at degrees n = len(f) - 1 and m = len(g) - 1.

    Trailing zeros zero-pad g, which only a monic f allows; a constant f
    gives f0^m. The residues mod the primes below 2^81 that miss lc(f) lc(g)
    are joined by CRT past twice the Hadamard bound |f|^m |g|^n.
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
    twice_bound_sq = 4 * sum(c * c for c in f) ** m * sum(c * c for c in g) ** n
    r, prod, k = 0, 1, 0
    while prod * prod <= twice_bound_sq:
        p = _prime(k)
        k += 1
        if f[-1] * g[-1] % p:
            v = _resultant_mod_p([c % p for c in f], [c % p for c in g], p)
            r += prod * ((v - r) * pow(prod, -1, p) % p)
            prod *= p
    return r - prod if 2 * r > prod else r


def discriminant_int(f: list[int]) -> int:
    """Discriminant of monic f, degree >= 2: (-1)^(n(n-1)/2) res(f, f')."""
    n = len(f) - 1
    if n < 2:
        raise ValueError("discriminant needs degree at least 2")
    if f[n] != 1:
        raise ValueError("discriminant is implemented for monic polynomials")
    return (-1) ** (n * (n - 1) // 2) * resultant(f, [i * c for i, c in enumerate(f)][1:])
