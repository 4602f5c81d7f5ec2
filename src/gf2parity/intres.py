"""Exact integer resultants, discriminants, and their residues mod 8.

Polynomials live over Z with arbitrary precision coefficients. The exact
resultant is the determinant of the Sylvester matrix, computed by
fraction-free (Bareiss) elimination. The mod-8 resultant of a monic f of
degree n is the determinant of the n x n matrix of multiplication by g
on (Z/8)[x]/(f), eliminated over Z/8 with odd pivots only. Z/8Z is not
a field, but odd entries are units, so every elimination step is exact;
once no odd entry is left, the remaining minor is all even and its
determinant is read off directly (0 mod 8 when it is 3 x 3 or larger).
Matrix rows are packed into one int each, one entry per 8-bit lane.
resultant_mod8_terms is the one mod-8 entry: it takes both polynomials as
(exponent, coefficient) pairs, and the IntPoly functions call it.

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


def _det_mod8_packed(rows: list[int], n: int) -> int:
    """Determinant in 0..7 of the n x n matrix with packed rows (see _pack).

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
    ones = _lane_mask(n, 1)
    sevens = 7 * ones
    rest = list(rows)
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


def det_mod8(m: IntMatrix) -> int:
    """Determinant reduced into 0..7."""
    if m.n_rows != m.n_cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.n_rows
    return _det_mod8_packed(
        [_pack(enumerate(m.entries[i * n:(i + 1) * n])) for i in range(n)], n)


def _multiplication_rows(f: int, n: int, g: int) -> list[int]:
    """Packed rows x^j * g mod f over Z/8, j = 0..n-1, for f and g packed
    (see _pack) and f monic of degree n.

    neg[c] is -c * f lane-wise mod 8, its lane n included: adding it to a
    polynomial whose lane n holds c clears that lane, which is one step of
    reduction mod f. g is reduced from its top lane down, then each row
    is the previous one shifted up a lane and reduced the same way.
    """
    lanes = (g.bit_length() + 7) // 8
    full = _lane_mask(max(lanes, n + 1), 7)
    neg = [f * (-c % 8) & full for c in range(8)]
    h = g
    for k in range(lanes - 1, n - 1, -1):
        c = h >> 8 * k & 7
        if c:
            h = (h + (neg[c] << 8 * (k - n))) & full
    sevens = _lane_mask(n, 7)
    top = 8 * n
    rows = []
    for _ in range(n):
        rows.append(h)
        h <<= 8
        h = (h + neg[h >> top]) & sevens
    return rows


def resultant_mod8_terms(f_terms, g_terms) -> int:
    """Resultant of monic f and g reduced into 0..7, each polynomial given
    as (exponent, coefficient) pairs with distinct exponents.

    For monic f of degree n this is the determinant of multiplication by
    g on (Z/8)[x]/(f), so it does not depend on how far g is padded.
    f_terms must be a sequence; its highest exponent is the degree.
    """
    n, lead = max(f_terms, default=(0, 0))
    if lead != 1:
        raise ValueError("the mod-8 resultant needs a monic first argument")
    return _det_mod8_packed(_multiplication_rows(_pack(f_terms), n, _pack(g_terms)), n)


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


def discriminant_int(f: IntPoly) -> int:
    """Discriminant of monic f, degree >= 2: (-1)^(n(n-1)/2) res(f, f')."""
    n = _discriminant_degree(f)
    r = resultant(f, f.derivative())
    return -r if (n * (n - 1) // 2) % 2 else r


def discriminant_mod8(f: IntPoly) -> int:
    """Discriminant of monic f reduced into 0..7."""
    n = _discriminant_degree(f)
    r = resultant_mod8(f, f.derivative())
    return -r % 8 if (n * (n - 1) // 2) % 2 else r
