"""Independent oracles for the test suite.

Everything here recomputes results from first principles with its own
arithmetic (plain ints, shift and xor), so a bug in the package cannot
hide inside the oracle that is supposed to catch it. The one exception is
the exact determinant of the matrix oracles, the package's Bareiss
det_exact, which the suite checks against Laplace expansion (cofactor_det)
and which shares nothing with the modular resultant they check.
"""

import itertools
import math
import random

from hypothesis import strategies as st

from gf2parity.intres import IntMatrix, det_exact


def o_mul(a: int, b: int) -> int:
    r = 0
    while a:
        if a & 1:
            r ^= b
        a >>= 1
        b <<= 1
    return r


def o_divmod(f: int, g: int) -> tuple[int, int]:
    q = 0
    dg = g.bit_length() - 1
    while f and f.bit_length() - 1 >= dg:
        sh = f.bit_length() - 1 - dg
        q ^= 1 << sh
        f ^= g << sh
    return q, f


def o_irreducibles(max_deg: int) -> list[int]:
    """Sieve by marking every product of two nonconstant polynomials."""
    limit = 1 << (max_deg + 1)
    composite = set()
    for a in range(2, limit):
        da = a.bit_length() - 1
        if da > max_deg - 1:
            break
        for b in range(a, limit):
            if da + b.bit_length() - 1 > max_deg:
                break
            composite.add(o_mul(a, b))
    return [p for p in range(2, limit) if p not in composite]


IRR6 = o_irreducibles(6)


def oracle_distinct_count(bits: int) -> int:
    """Distinct irreducible factors by trial division; exact to degree 12.

    A leftover with no factor of degree <= 6 and degree <= 12 must itself
    be irreducible, which is the only fact the degree cap rests on.
    """
    if bits.bit_length() - 1 > 12:
        raise ValueError("oracle only exact up to degree 12")
    count = 0
    for q in IRR6:
        if o_divmod(bits, q)[1] == 0:
            count += 1
            while o_divmod(bits, q)[1] == 0:
                bits = o_divmod(bits, q)[0]
    if bits.bit_length() - 1 > 0:
        count += 1
    return count


def berlekamp_count(bits: int) -> int:
    """Distinct irreducible factors of f, degree n >= 1, as n minus the F2
    rank of all n rows x^(2i) + x^i mod f, each row's power built from the
    last by a shift of two and reduced, with no pivot found ahead of time.
    """
    n = bits.bit_length() - 1
    rows = []
    cur = 1
    for i in range(n):
        rows.append(cur ^ (1 << i))
        cur = o_divmod(cur << 2, bits)[1]
    pivots = {}
    for r in rows:
        while r and r.bit_length() in pivots:
            r ^= pivots[r.bit_length()]
        if r:
            pivots[r.bit_length()] = r
    return n - len(pivots)


def oracle_multiplicity_count(bits: int) -> int:
    if bits.bit_length() - 1 > 12:
        raise ValueError("oracle only exact up to degree 12")
    total = 0
    for q in IRR6:
        while o_divmod(bits, q)[1] == 0:
            total += 1
            bits = o_divmod(bits, q)[0]
    if bits.bit_length() - 1 > 0:
        total += 1
    return total


def oracle_trace(bits: int, i: int) -> int:
    """Tr(x^i) in F2[x]/f as the trace of the multiplication operator.

    Column j of the operator is x^(i+j) mod f; the trace sums the j-th
    coefficient of each column, mod 2.
    """
    n = bits.bit_length() - 1
    acc = 0
    for j in range(n):
        _, r = o_divmod(1 << (i + j), bits)
        acc ^= (r >> j) & 1
    return acc


def trace_spectrum_loop(f: int) -> tuple[int, ...]:
    """Newton's power sums p_0..p_(n-1) mod 2 of f, by the quadratic loop:
    p_k = sum_{j<k} c_j p_{k-j} + k c_k, c_j the coefficient of x^(n-j)."""
    n = f.bit_length() - 1
    c = [f >> (n - j) & 1 for j in range(n + 1)]
    p = [0] * n
    p[0] = n & 1
    for k in range(1, n):
        acc = k & 1 if c[k] else 0
        for j in range(1, k):
            if c[j]:
                acc ^= p[k - j]
        p[k] = acc
    return tuple(p)


def cofactor_det(rows) -> int:
    """Laplace expansion along the first row; exponential, fine to 6x6."""
    size = len(rows)
    if size == 0:
        return 1
    if size == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * head * cofactor_det(minor)
    return total


def random_bits(rng: random.Random, degree: int) -> int:
    """Uniform polynomial of the exact degree."""
    return (1 << degree) | rng.getrandbits(degree)


@st.composite
def binary_polys(draw, squares: bool = True):
    """Binary polynomials of degree 1..511, a quarter each (a third without
    squares): any degree, even degree, trinomials x^n + x^k + 1 and perfect
    squares h^2."""
    kind = draw(st.sampled_from(("any", "even", "trinomial", "square")[:4 if squares else 3]))
    if kind == "trinomial":
        n = draw(st.integers(2, 511))
        return 1 << n | 1 << draw(st.integers(1, n - 1)) | 1
    if kind == "square":
        h = draw(st.integers(2, (1 << 256) - 1))
        return o_mul(h, h)
    n = 2 * draw(st.integers(1, 255)) if kind == "even" else draw(st.integers(1, 511))
    return 1 << n | draw(st.integers(0, (1 << n) - 1))


def o_derivative(bits: int) -> int:
    deriv = 0
    v, e = bits, 0
    while v:
        if (v & 1) and e % 2:
            deriv |= 1 << (e - 1)
        v >>= 1
        e += 1
    return deriv


def random_squarefree_bits(rng: random.Random, degree: int) -> int:
    """Rejection-sample a squarefree polynomial using oracle arithmetic."""
    while True:
        bits = random_bits(rng, degree)
        deriv = o_derivative(bits)
        if deriv == 0:
            continue
        a, b = bits, deriv
        while b:
            a, b = b, o_divmod(a, b)[1]
        if a == 1:
            return bits


def det_mod8(rows) -> int:
    """Determinant of a square integer matrix, given as rows, reduced into 0..7.

    Each row is packed into one int, entry j mod 8 in the 8-bit lane j.
    Full pivoting on odd entries: the pivot row is the first remaining row
    with an odd lane, the pivot column its lowest odd lane. An odd p is its
    own inverse mod 8, so the pivot row scaled by p has a 1 in the pivot
    column, and adding (8 - e) times it clears an entry e from the other
    remaining rows; lanes stay at most 7 + 7 * 7 < 256, so no carry crosses
    a lane. Each pivot enters the product with the sign of the k + j
    adjacent swaps that would move it to the front of the remaining rows
    and columns. When the remaining s x s minor has no odd entry it is all
    even, so its determinant is 0 mod 8 for s >= 3 and is taken directly
    for s <= 2.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    ones = int.from_bytes(b"\x01" * n, "little")
    sevens = 7 * ones
    rest = [sum((e % 8) << 8 * j for j, e in enumerate(r)) for r in rows]
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


def trim(coeffs) -> list[int]:
    """Coefficient list, lowest first, with trailing zeros dropped; [] for 0."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def dense(terms) -> list[int]:
    """Trimmed coefficient list of (exponent, coefficient) pairs."""
    out = [0] * (max((e for e, _ in terms), default=-1) + 1)
    for e, c in terms:
        out[e] = c
    return trim(out)


def poly_mul(f, g) -> list[int]:
    """Product of nonempty integer coefficient lists, lowest first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def poly_sub(f, g) -> list[int]:
    """Trimmed difference of integer coefficient lists, lowest first."""
    return trim(a - b for a, b in itertools.zip_longest(f, g, fillvalue=0))


def l2_hypotheses_hold(rows, m: int, n: int) -> bool:
    """The L2 hypotheses on an (m+n) x (m+n) matrix, block by block.

    Unit diagonal; A upper triangular, even at odd i + j; B even at
    (i, r) with r <= i and i + r even; C upper triangular, 0 mod 4 and 0 at
    odd i + j, over a zero block; D 0 mod 4 off the diagonal.
    """
    if not 0 <= m < n or len(rows) != m + n or any(len(r) != m + n for r in rows):
        return False
    if any(rows[i][i] != 1 for i in range(m + n)):
        return False
    for i in range(m):
        for j in range(m):
            if j < i and rows[i][j]:
                return False
            if j > i and (i + j) % 2 and rows[i][j] % 2:
                return False
        for r in range(n):
            if r <= i and (i + r) % 2 == 0 and rows[i][m + r] % 2:
                return False
    for i in range(n):
        for j in range(m):
            v = rows[m + i][j]
            if i >= m and v:
                return False
            if i < m and ((j < i and v) or v % 4 or ((i + j) % 2 and v)):
                return False
    return all(k == l or rows[m + k][m + l] % 4 == 0 for k in range(n) for l in range(n))


def sylvester(f, g) -> list[list[int]]:
    """Rows of the Sylvester matrix of coefficient lists f and g, lowest first.

    With n = len(f) - 1 and m = len(g) - 1 the matrix is (n+m) x (n+m): m
    rows carry the coefficients of f from the leading term down, each
    shifted one column right of the previous, then n rows carry those of g
    likewise. It refuses what intres.resultant refuses: an empty or
    zero-led f, an empty g, and trailing zeros of g under a non-monic f.
    """
    if not f:
        raise ValueError("zero polynomial on the first argument")
    if f[-1] == 0:
        raise ValueError("first argument has a zero leading coefficient")
    if not g:
        raise ValueError("the second argument needs at least one coefficient")
    if g[-1] == 0 and f[-1] != 1:
        raise ValueError("zero-padding the second argument requires a monic first argument")
    n, m = len(f) - 1, len(g) - 1
    a, b = f[::-1], g[::-1]
    return ([[0] * k + a + [0] * (m - 1 - k) for k in range(m)]
            + [[0] * k + b + [0] * (n - 1 - k) for k in range(n)])


def resultant_bareiss(f, g) -> int:
    """Exact resultant as the Bareiss determinant of the Sylvester matrix."""
    return det_exact(IntMatrix(sylvester(f, g)))


def multiplication_matrix(f, g) -> list[list[int]]:
    """Rows x^j g mod f over Z, j = 0..n-1, for monic f of degree n: the
    matrix of multiplication by g on Z[x]/(f), whose determinant is res(f, g)."""
    n = len(f) - 1
    low = [(i, c) for i, c in enumerate(f[:n]) if c]

    def reduce(h):
        for k in range(len(h) - 1, n - 1, -1):
            c = h.pop()
            if c:
                for i, fi in low:
                    h[k - n + i] -= c * fi
        return h + [0] * (n - len(h))

    rows = [reduce(list(g))]
    for _ in range(n - 1):
        rows.append(reduce([0, *rows[-1]]))
    return rows


def discriminant_bareiss(f) -> int:
    """Discriminant of monic f, degree >= 2, as the Bareiss determinant of
    multiplication by f' on Z[x]/(f), with the sign (-1)^(n(n-1)/2)."""
    n = len(f) - 1
    r = det_exact(IntMatrix(multiplication_matrix(f, [i * c for i, c in enumerate(f)][1:])))
    return -r if (n * (n - 1) // 2) % 2 else r


def swan_trinomial_disc(n: int, k: int) -> int:
    """disc(x^n + x^k + 1) for 0 < k < n in closed form (Swan, Pacific J. Math. 12,
    1962, Theorem 2): with d = gcd(n, k), N = n/d and K = k/d it is
    (-1)^(n(n-1)/2) (n^N - (-1)^N (n-k)^(N-K) k^K)^d."""
    d = math.gcd(n, k)
    big_n, big_k = n // d, k // d
    return ((-1) ** (n * (n - 1) // 2)
            * (n ** big_n - (-1) ** big_n * (n - k) ** (big_n - big_k) * k ** big_k) ** d)
