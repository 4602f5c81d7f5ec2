"""Independent slow paths the checks compare the program against.

Nothing here imports gf2parity. Polynomials are given by their exponents,
highest first, e.g. (7, 3, 0) for x^7 + x^3 + 1.
"""

from __future__ import annotations

import itertools


def dense(exponents, n: int) -> list[int]:
    """GF(2) coefficient list, highest degree first, for sympy's galoistools."""
    c = [0] * (n + 1)
    for e in exponents:
        c[n - e] = 1
    return c


def sympy_factor_count(exponents, n: int) -> int:
    """Distinct irreducible factors of a squarefree binary polynomial.

    For squarefree f, sympy's distinct-degree factorisation gives parts g_d
    whose factors all have degree d, so the count is the sum of deg(g_d) / d.
    """
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_ddf_zassenhaus

    return sum((len(g) - 1) // d for g, d in gf_ddf_zassenhaus(dense(exponents, n), 2, ZZ))


def sympy_irreducible(exponents, n: int) -> bool:
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    return gf_irreducible_p(dense(exponents, n), 2, ZZ)


# -- the audit's candidates ----------------------------------------------------

AUDIT_DEGREES = tuple(range(5, 100, 2))


def audit_pool(n: int) -> list[int]:
    """Odd middle exponents m with 3m < n."""
    return [m for m in range(1, n, 2) if 3 * m < n]


def audit_candidates(n: int):
    """x^n + (a non-empty set of pool terms) + 1, as exponent tuples."""
    pool = audit_pool(n)
    for k in range(1, len(pool) + 1):
        for mids in itertools.combinations(pool, k):
            yield (n, *sorted(mids, reverse=True), 0)


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def _gcd(a: int, b: int) -> int:
    """gcd of two binary polynomials held as int bit masks."""
    while b:
        db = b.bit_length()
        while a.bit_length() >= db:
            a ^= b << (a.bit_length() - db)
        a, b = b, a
    return a


def rabin_irreducible(exponents) -> bool:
    """Rabin's test over GF(2), written for sparse f of degree n = exponents[0].

    f is irreducible iff x^(2^n) = x mod f and gcd(x^(2^(n/p)) - x, f) = 1
    for every prime p dividing n. Squaring a binary polynomial spreads its
    bits apart, which reading its binary digits in base 4 does; a product
    is reduced with f's few terms (every one below n/3 for audit
    candidates, so two or three passes do).
    """
    n, *low = exponents
    f = sum(1 << e for e in exponents)
    mask = (1 << n) - 1
    stops = {n // p for p in _prime_factors(n)}
    a, saved = 2, []
    for i in range(1, n + 1):
        a = int(bin(a)[2:], 4)
        while h := a >> n:
            a &= mask
            for e in low:
                a ^= h << e
        if i in stops:
            saved.append(a)
    return a == 2 and all(_gcd(f, r ^ 2) == 1 for r in saved)
