"""Exact integer resultants, discriminants, and their residues mod 8.

Polynomials live over Z with arbitrary precision coefficients. The exact
resultant is the determinant of the Sylvester matrix, computed by
fraction-free (Bareiss) elimination; the exact discriminant of a monic f
runs the same elimination on the n x n matrix of multiplication by f'
on Z[x]/(f), whose determinant is res(f, f').

The mod-8 resultant of a monic f and any g is a Euclid-style remainder
sequence on polynomials packed into one int each, one coefficient per
8-bit lane. Z/8Z is not a field, so a remainder with an even leading
coefficient cannot be made monic; it is split instead by 2-adic Hensel
lifting into a monic factor and a factor that is 1 mod 2, and the
resultant against the latter is taken on the reversed polynomials, where
it becomes monic (von zur Gathen and Gerhard, Modern Computer Algebra,
ch. 6 and 15). resultant_mod8_terms is the one mod-8 entry: it takes both
polynomials as (exponent, coefficient) pairs, and the IntPoly functions
call it. det_mod8 eliminates an explicit matrix over Z/8 with odd pivots.

Leading zero coefficients are representable only through an explicitly
declared degree, which is the padding device used for resultants of a
monic polynomial against a shorter second argument.
"""

from __future__ import annotations


class IntPoly:
    """Integer polynomial; coeffs[i] is the coefficient of x^i.

    Trailing zero coefficients are stripped, so the stored tuple ends at
    the true leading term. declared_degree, when given, must be at least
    the actual degree and marks the polynomial as zero-padded up to that
    degree for Sylvester matrix construction.
    """

    __slots__ = ("coeffs", "declared_degree")

    def __init__(self, coeffs=(), declared_degree: int | None = None):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        if declared_degree is not None:
            if declared_degree < 0:
                raise ValueError("declared degree must be nonnegative")
            if cs and declared_degree < len(cs) - 1:
                raise ValueError(
                    f"declared degree {declared_degree} is below the actual degree {len(cs) - 1}")
        self.declared_degree = declared_degree

    @classmethod
    def from_pairs(cls, pairs, declared_degree: int | None = None) -> IntPoly:
        """Build from (degree, coefficient) pairs."""
        pairs = list(pairs)
        size = max((d for d, _ in pairs), default=-1) + 1
        cs = [0] * size
        for d, c in pairs:
            if d < 0:
                raise ValueError(f"negative degree {d}")
            if cs[d] != 0:
                raise ValueError(f"duplicate degree {d}")
            cs[d] = int(c)
        return cls(cs, declared_degree)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Actual degree; the zero polynomial has none."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    @property
    def effective_degree(self) -> int:
        """Declared degree when set, else the actual degree."""
        if self.declared_degree is not None:
            return self.declared_degree
        return self.degree

    def coeff(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def derivative(self) -> IntPoly:
        return IntPoly(i * c for i, c in enumerate(self.coeffs) if i)

    def __add__(self, other: IntPoly) -> IntPoly:
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(self.coeff(i) + other.coeff(i) for i in range(n))

    def __sub__(self, other: IntPoly) -> IntPoly:
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(self.coeff(i) - other.coeff(i) for i in range(n))

    def __neg__(self) -> IntPoly:
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other: IntPoly) -> IntPoly:
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("IntPoly", self.coeffs))

    def __repr__(self) -> str:
        if self.declared_degree is not None:
            return f"IntPoly({list(self.coeffs)}, declared_degree={self.declared_degree})"
        return f"IntPoly({list(self.coeffs)})"


class IntMatrix:
    """Dense integer matrix stored row-major."""

    __slots__ = ("n_rows", "n_cols", "entries")

    def __init__(self, n_rows: int, n_cols: int, entries):
        es = tuple(int(e) for e in entries)
        if len(es) != n_rows * n_cols:
            raise ValueError("entry count does not match the shape")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.entries = es

    @classmethod
    def from_rows(cls, rows) -> IntMatrix:
        rows = [list(r) for r in rows]
        n_cols = len(rows[0]) if rows else 0
        if any(len(r) != n_cols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), n_cols, [e for r in rows for e in r])

    def to_rows(self) -> list[list[int]]:
        c = self.n_cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.n_rows)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.n_rows == other.n_rows
                and self.n_cols == other.n_cols and self.entries == other.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({self.n_rows}x{self.n_cols})"


def sylvester(f: IntPoly, g: IntPoly) -> IntMatrix:
    """Sylvester matrix of (f, g), f-coefficient rows above g-coefficient rows.

    With n = deg f and m the effective degree of g, the matrix is
    (n+m) x (n+m): m rows carry the coefficients of f from the leading
    term down, each shifted one column right of the previous, then n rows
    carry those of g likewise. Zero-padding of g (a declared degree above
    the actual one, equivalently a vanishing leading entry) is allowed
    only when f is monic, where it provably leaves the determinant alone.
    """
    if f.is_zero and f.declared_degree is None:
        raise ValueError("zero polynomial on the first argument")
    n = f.effective_degree
    a = [f.coeff(n - j) for j in range(n + 1)]
    if a[0] == 0:
        raise ValueError("first argument has a zero leading coefficient")
    if g.is_zero and g.declared_degree is None:
        raise ValueError("zero second argument needs a declared degree")
    m = g.effective_degree
    b = [g.coeff(m - j) for j in range(m + 1)]
    if b[0] == 0 and a[0] != 1:
        raise ValueError("zero-padding the second argument requires a monic first argument")
    size = n + m
    rows = []
    for k in range(m):
        rows.append([0] * k + a + [0] * (size - k - n - 1))
    for k in range(n):
        rows.append([0] * k + b + [0] * (size - k - m - 1))
    return IntMatrix.from_rows(rows) if size else IntMatrix(0, 0, ())


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
    a = m.to_rows()
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


def _lane_mask(n: int, value: int) -> int:
    return value * int.from_bytes(b"\x01" * n, "little")


def det_mod8(m: IntMatrix) -> int:
    """Determinant reduced into 0..7, with rows packed as in _pack.

    Full pivoting on odd entries: the pivot row is the first remaining
    row with an odd lane, the pivot column its lowest odd lane. An odd p
    is its own inverse mod 8, so the pivot row scaled by p has a 1 in the
    pivot column, and adding (8 - e) times it clears an entry e from the
    other remaining rows; lanes stay at most 7 + 7 * 7 < 256, so no carry
    crosses a lane. Each pivot enters the product with the sign of the k + j
    adjacent swaps that would move it to the front of the remaining rows
    and columns. When the remaining s x s minor has no odd entry it is
    all even, so its determinant is 0 mod 8 for s >= 3 and is taken
    directly for s <= 2.
    """
    if m.n_rows != m.n_cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.n_rows
    ones = _lane_mask(n, 1)
    sevens = 7 * ones
    rest = [_pack(enumerate(m.entries[i * n:(i + 1) * n])) for i in range(n)]
    free = list(range(n))  # columns not yet pivoted, ascending
    det = 1
    while True:
        k = next((k for k, r in enumerate(rest) if r & ones), None)
        if k is None:
            break
        r = rest.pop(k)
        odd = r & ones
        shift = (odd & -odd).bit_length() - 1
        j = free.index(shift >> 3)
        del free[j]
        p = r >> shift & 7
        det = det * (-p if (k + j) % 2 else p) % 8
        unit = r * p & sevens
        for i, s in enumerate(rest):
            e = s >> shift & 7
            if e:
                rest[i] = (s + unit * (8 - e)) & sevens
    if len(rest) >= 3:
        return 0
    minor = [[r >> 8 * c & 7 for c in free] for r in rest]
    if len(minor) == 2:
        det *= minor[0][0] * minor[1][1] - minor[0][1] * minor[1][0]
    elif minor:
        det *= minor[0][0]
    return det % 8


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


def resultant_mod8_terms(f_terms, g_terms) -> int:
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
    ones = _lane_mask(lanes, 1)
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


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Exact resultant of f and g."""
    return det_exact(sylvester(f, g))


def resultant_mod8(f: IntPoly, g: IntPoly) -> int:
    """Resultant of monic f and g reduced into 0..7.

    For monic f of degree n this is the determinant of multiplication by
    g on (Z/8)[x]/(f), so it does not depend on how far g is padded.
    """
    if g.is_zero and g.declared_degree is None:
        raise ValueError("zero second argument needs a declared degree")
    return resultant_mod8_terms(tuple(enumerate(f.coeffs)), enumerate(g.coeffs))


def _discriminant_degree(f: IntPoly) -> int:
    n = f.degree if not f.is_zero else -1
    if n < 2:
        raise ValueError("discriminant needs degree at least 2")
    if f.coeff(n) != 1:
        raise ValueError("discriminant is implemented for monic polynomials")
    return n


def _multiplication_matrix(f: IntPoly, g: IntPoly) -> IntMatrix:
    """Rows x^j g mod f over Z, j = 0..n-1, for monic f of degree n: the
    matrix of multiplication by g on Z[x]/(f), whose determinant is res(f, g)."""
    n = f.degree
    low = [(i, c) for i, c in enumerate(f.coeffs[:n]) if c]

    def reduce(h: list[int]) -> list[int]:
        for k in range(len(h) - 1, n - 1, -1):
            c = h.pop()
            if c:
                for i, fi in low:
                    h[k - n + i] -= c * fi
        return h + [0] * (n - len(h))

    rows = [reduce(list(g.coeffs))]
    for _ in range(n - 1):
        rows.append(reduce([0, *rows[-1]]))
    return IntMatrix.from_rows(rows)


def discriminant_int(f: IntPoly) -> int:
    """Discriminant of monic f, degree >= 2: (-1)^(n(n-1)/2) res(f, f'),
    with res(f, f') taken exactly on the n x n multiplication matrix."""
    n = _discriminant_degree(f)
    r = det_exact(_multiplication_matrix(f, f.derivative()))
    return -r if (n * (n - 1) // 2) % 2 else r


def discriminant_mod8(f: IntPoly) -> int:
    """Discriminant of monic f reduced into 0..7."""
    n = _discriminant_degree(f)
    r = resultant_mod8(f, f.derivative())
    return -r % 8 if (n * (n - 1) // 2) % 2 else r
