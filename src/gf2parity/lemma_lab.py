"""Randomized stress tests for the mod-8 determinant lemmas.

Each lemma pairs a generator, which draws a random instance satisfying
the hypotheses, with a checker, which re-verifies the hypotheses on the
instance alone and then tests the conclusion by exact integer determinant
or resultant reduced mod 8. A failed conclusion would be a counterexample;
the instance then serializes to a replay file with seed, sizes, and entries.

Lemma ids:

* D: square matrix with even off-diagonal entries whose symmetric
  products vanish mod 8; determinant = product of the diagonal mod 8.
* L1a: res(x^n + 4 F0 + 2 F1 + F2, 2 H + 1) = 1 mod 8 for x | H,
  deg H = s, deg F_k < n - k s.
* L1b: res(x^n + 2 F0 + F1, 4 H + 1) = 1 mod 8, same shapes, no F2.
* L2: block matrix [[A, B], [(C over 0), D]] with unit diagonals, parity
  and mod-4 constraints on A, B, C, D; determinant = 1 mod 8.
* GENERAL: the (m+n) x (m+n) shape with m = n - 4, s = (n-1)//3 and the
  offset-based congruence ladder; determinant = 1 mod 8.

The L2 and GENERAL hypotheses bind each entry on its own, so each is
stated once, as a residue table (l2_table, general_table): a tuple of row
tuples of the residues mod 8 each entry admits. The generator draws from
the table and the checker refuses any entry outside it. D binds pairs of
entries and L1 the degrees of polynomials, so they keep their own
generators and checkers.

Matrices are intres.IntMatrix with entries in 0..7 and polynomials are
tuples of coefficients in COEFFS, lowest first. Checks end in exact
arithmetic independent of the mod-8 path: intres.det_exact for matrices
and intres.resultant for L1. A slot of two or more residues
is {0, r, 2r, ...}: it gives 0 half the time, so that sparse and dense
instances both occur, and else a uniform nonzero residue. An instance is one
read of the shake_128 stream of its seed (_shake_bits), a byte per slot, mapped
by a 256-byte table per kind of slot and gathered by a plan cached per lemma
and size (_plan, _draw). A replay file is outside input, read by
LemmaInstance.from_json.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import operator
from array import array

from . import gf2poly
from . import intres
from .intres import IntMatrix
from .pool import map_in_pool, pool_size

LEMMA_IDS = ("D", "L1a", "L1b", "L2", "GENERAL")

COEFFS = range(-4, 4)  # the L1 coefficients: a full residue system mod 8
EVEN_RESIDUES = (0, 2, 4, 6)
MULT4_RESIDUES = (0, 4)
ALL_RESIDUES = tuple(range(8))
_ZERO, _ONE = (0,), (1,)


class HypothesisViolation(ValueError):
    """An instance fails the lemma hypotheses; not a counterexample."""


class LemmaInstance:
    """One generated instance: the lemma, its sizes, seed, and payload."""

    def __init__(self, lemma_id: str, params: dict, seed: int, matrix: IntMatrix | None = None,
                 polys: dict[str, tuple[int, ...]] | None = None, notes: str = ""):
        self.lemma_id = lemma_id
        self.params = params
        self.seed = seed
        self.matrix = matrix
        self.polys = {} if polys is None else polys
        self.notes = notes

    def __eq__(self, other):
        if type(other) is not LemmaInstance:
            return NotImplemented
        return vars(self) == vars(other)

    def to_json(self) -> dict:
        out = {"lemma_id": self.lemma_id, "params": dict(self.params), "seed": self.seed}
        if self.matrix is not None:
            out["matrix"] = [list(r) for r in self.matrix.rows]
        if self.polys:
            out["polys"] = {k: list(v) for k, v in self.polys.items()}
        if self.notes:
            out["notes"] = self.notes
        return out

    @classmethod
    def from_json(cls, data) -> LemmaInstance:
        """Read back a replay file's object, which is outside input: a lemma id, an
        integer seed, exactly the params its generator writes (_REPLAY_PARAMS) with
        integer sizes held to MAX_DEGREE and MAX_SIDE, entries in 0..7, coefficients
        in COEFFS and string notes, or ValueError."""
        if not (isinstance(data, dict) and isinstance(data.get("params"), dict)
                and type(data.get("seed")) is int):
            raise ValueError("a replay is an object with lemma_id, params and an integer seed")
        lemma_id, params = data.get("lemma_id"), data["params"]
        if lemma_id not in LEMMA_IDS:
            raise ValueError(f"unknown lemma id '{lemma_id}'")
        keys = _REPLAY_PARAMS[lemma_id]
        if extra := [k for k in params if k not in keys]:
            raise ValueError(f"{lemma_id} replay params take only {', '.join(keys)}, "
                             f"not '{extra[0]}'")
        names = [k for k in keys if k != "variant"]
        sizes = [params.get(k) for k in names]
        if not all(type(v) is int for v in sizes):
            raise ValueError(f"{lemma_id} replay params need integers {', '.join(names)}")
        for size in sizes:
            gf2poly.check_degree(size)
        if lemma_id in ("L1a", "L1b") and params.get("variant") != lemma_id[-1]:
            raise ValueError(f"{lemma_id} replay param variant must be '{lemma_id[-1]}'")
        if lemma_id == "GENERAL" and (want := _general_sizes(sizes[0])) != tuple(sizes[1:]):
            raise ValueError(f"GENERAL replay params need m = {want[0]} and s = {want[1]} "
                             f"at n = {sizes[0]}")
        rows = data.get("matrix", [])
        if not (isinstance(rows, list) and all(
                isinstance(r, list) and all(type(e) is int and 0 <= e < 8 for e in r)
                for r in rows)):
            raise ValueError("the replay matrix must be rows of integers in 0..7")
        if lemma_id == "D" and sizes[0] != len(rows):
            raise ValueError(f"D replay param size is {sizes[0]}, but the matrix has "
                             f"{len(rows)} rows")
        _check_side(lemma_id, sum(sizes) if lemma_id in ("L1a", "L1b") else len(rows))
        polys = data.get("polys", {})
        if not (isinstance(polys, dict) and all(
                isinstance(v, list) and all(type(c) is int and c in COEFFS for c in v)
                for v in polys.values())):
            raise ValueError("the replay polys must be lists of integer coefficients in -4..3")
        if not isinstance(notes := data.get("notes", ""), str):
            raise ValueError("the replay notes must be a string")
        return cls(lemma_id, dict(params), data["seed"],
                   IntMatrix(rows) if "matrix" in data else None,
                   {k: tuple(v) for k, v in polys.items()}, notes)


def _shake_bits(seed: int):
    """getrandbits(k) reading shake_128(str(seed)) as one little-endian integer, low bits
    first; a draw past its end extends the digest by h.digest(2 * taken)[taken:]."""
    h = hashlib.shake_128(str(seed).encode())
    pool, left, taken = int.from_bytes(h.digest(96), "little"), 768, 96

    def getrandbits(k: int) -> int:
        nonlocal pool, left, taken
        while left < k:
            pool |= int.from_bytes(h.digest(2 * taken)[taken:], "little") << left
            left, taken = left + 8 * taken, 2 * taken
        bits, pool, left = pool & ((1 << k) - 1), pool >> k, left - k
        return bits

    return getrandbits


def _below(getrandbits, k: int) -> int:
    """Uniform in 0..k-1: the first draw below k of the fewest bits that cover it."""
    bits = (k - 1).bit_length()
    while (v := getrandbits(bits)) >= k:
        pass
    return v


_REJECT = 8  # no residue 0..7 and no coefficient -4..3 as a signed byte: draw again
_TEMPLATE = bytes((0, 1))  # a source's first 2 bytes: the fixed entries _ZERO and _ONE
_LEAD = (-4, -3, -2, -1, 1, 2, 3)  # H's leading coefficient: COEFFS without 0
_WIDE = (ALL_RESIDUES, EVEN_RESIDUES, MULT4_RESIDUES, COEFFS, _LEAD)  # in draw order


@functools.cache
def _table(kind, span: int = 256) -> bytes:
    """The map, for bytes.translate, of b, one of span equally likely values, to a slot
    of kind: 0 for an even b if kind has 0, else the nonzero residue number
    (b >> 1) % k of kind's k, or _REJECT when b >> 1 is among the top (span // 2) % k."""
    nonzero = bytes(v % 256 for v in kind if v)
    half, k = span // 2, len(nonzero)
    index = nonzero * (half // k) + bytes((_REJECT,)) * (half % k)
    if 0 in kind:
        return bytes(b % 2 and index[b >> 1] for b in range(span))
    return bytes(index[b >> 1] for b in range(span))


@functools.cache
def _pair_tables() -> tuple[bytes, bytes]:
    """D's maps of a pair's byte to its upper and its lower entry: bits 0..5 draw the
    EVEN entry, bit 6 the MULT4 entry, and bit 7 trades their places. Both reject
    the bytes whose EVEN entry is _REJECT."""
    even = _table(EVEN_RESIDUES, 64)
    zeros, fours = (even.translate(bytes(v if v == _REJECT else m for v in range(256)))
                    for m in (0, 4))
    return zeros + fours + even * 2, even * 2 + zeros + fours


@functools.lru_cache(maxsize=256)
def _plan(lemma: str, *sizes) -> tuple:
    """The draw plan of lemma at sizes, built on first use: the bytes an instance
    draws, the spans (start, stop, table) of those bytes, and one itemgetter that
    gathers the flat instance from _draw's source, _TEMPLATE and then each span's
    bytes through its table. The wide slots of one kind are one span, in _WIDE
    order; D's pairs are one run of bytes in two spans, upper and lower entries.
    Sizes are (size) for D, (s, *lengths of the F_k) for L1, else the table's sizes."""
    if lemma == "D":
        size, = sizes
        pairs = {ij: p for p, ij in enumerate(itertools.combinations(range(size), 2))}
        total = size + len(pairs)  # the source: diagonal, upper entries, lower entries
        spans = ((0, size, _table(ALL_RESIDUES)), *((size, total, t) for t in _pair_tables()))
        gather = [2 + i if i == j else 2 + size + pairs[i, j] if i < j
                  else 2 + total + pairs[j, i] for i in range(size) for j in range(size)]
    else:
        if lemma == "L1":  # h is 0, s - 1 coefficients and the lead, then the F_k
            s, *lengths = sizes
            slots = [_ZERO, *[COEFFS] * (s - 1), _LEAD, *[COEFFS] * sum(lengths)]
        else:
            slots = list(itertools.chain.from_iterable(
                l2_table(*sizes) if lemma == "L2" else general_table(*sizes)))
        kinds = [kind for kind in _WIDE if kind in slots]
        stops = list(itertools.accumulate(map(slots.count, kinds)))
        starts = [0, *stops[:-1]]
        nexts = {kind: itertools.count(2 + start) for kind, start in zip(kinds, starts)}
        gather = [slot[0] if len(slot) == 1 else next(nexts[slot]) for slot in slots]
        total, spans = stops[-1] if stops else 0, tuple(zip(starts, stops, map(_table, kinds)))
    # a trailing 0 keeps the gather of a one-entry instance a tuple
    return total, spans, operator.itemgetter(*gather, 0)


def _draw(getrandbits, plan) -> bytes:
    """An instance's source: _TEMPLATE, then the bytes of one getrandbits call mapped
    span by span through the span's table. A byte that a table rejects is drawn
    again, in slot order, as the next stream byte with bit 0 set: a slot whose kind
    has 0 stays nonzero, and its nonzero residue is drawn afresh."""
    total, spans, _ = plan
    raw = bytearray(getrandbits(8 * total).to_bytes(total, "little"))
    source = [_TEMPLATE]
    for start, stop, table in spans:
        run = raw[start:stop].translate(table)
        while _REJECT in run:  # the first reject is the earliest slot left to settle
            raw[start + run.index(_REJECT)] = getrandbits(8) | 1
            run = raw[start:stop].translate(table)
        source.append(run)
    return b"".join(source)


def _matrix(getrandbits, plan, side: int) -> IntMatrix:
    # rows zipped off one iterator; [:side] drops the gather's trailing 0 (a row at side 1)
    rows = zip(*[iter(plan[2](_draw(getrandbits, plan)))] * side)
    return IntMatrix.wrap(list(map(list, rows))[:side])


def _degree(coeffs) -> int:
    """Degree of a coefficient list, lowest first, trailing zeros aside; -1 for 0."""
    d = len(coeffs) - 1
    while d >= 0 and not coeffs[d]:
        d -= 1
    return d


# -- D: diagonal-dominant product lemma --------------------------------------

def _d_size(size: int) -> None:
    if size < 1:
        raise ValueError("size must be at least 1")


def gen_d_instance(seed: int, size: int) -> LemmaInstance:
    """Random matrix with even off-diagonal pairs multiplying to 0 mod 8."""
    _d_size(size)
    matrix = _matrix(_shake_bits(seed), _plan("D", size), size)
    return LemmaInstance("D", {"size": size}, seed, matrix)


def check_d(instance: LemmaInstance) -> bool:
    """Re-check hypotheses, then test det = product of diagonal mod 8."""
    m = instance.matrix
    if m is None or m.n_rows != m.n_cols:
        raise HypothesisViolation("needs a square matrix")
    rows = m.rows
    prod = 1
    for i, row in enumerate(rows):
        prod = prod * row[i] % 8
        for j in range(i + 1, m.n_cols):
            a, b = row[j], rows[j][i]
            if (a | b) % 2:
                odd = (i, j) if a % 2 else (j, i)
                raise HypothesisViolation(f"entry ({odd[0]},{odd[1]}) is odd")
            if a * b % 8:
                raise HypothesisViolation(f"product at ({i},{j}) is not 0 mod 8")
    return intres.det_exact(m) % 8 == prod


# -- L1: unit resultants against 2H+1 and 4H+1 -------------------------------

def _l1_sizes(n: int, s: int) -> None:
    if n <= 1 or s < 1:
        raise ValueError("needs n > 1 and s >= 1")


def gen_l1_instance(seed: int, variant: str, n: int, s: int) -> LemmaInstance:
    """Random (H, F0, F1[, F2]) with x | H, deg H = s, deg F_k < n - k*s."""
    if variant not in ("a", "b"):
        raise ValueError("variant must be 'a' or 'b'")
    _l1_sizes(n, s)
    lengths = [max(n - k * s, 0) for k in range(3 if variant == "a" else 2)]
    plan = _plan("L1", s, *lengths)
    coeffs = iter(plan[2](array("b", _draw(_shake_bits(seed), plan))))  # bytes as -4..3
    polys = {key: tuple(itertools.islice(coeffs, size))
             for key, size in zip(("h", "f0", "f1", "f2"), (s + 1, *lengths))}
    return LemmaInstance("L1a" if variant == "a" else "L1b",
                         {"n": n, "s": s, "variant": variant}, seed, None, polys)


def l1_pair(instance: LemmaInstance) -> tuple[list[int], list[int]]:
    """The (f, g) resultant pair as coefficient lists, lowest first.

    f = x^n + 4 F0 + 2 F1 + F2 and g = 2H + 1 for L1a, f = x^n + 2 F0 + F1
    and g = 4H + 1 for L1b; each F_k has degree at most n and H is
    nonzero, as check_l1 makes sure.
    """
    n = instance.params["n"]
    scales, h_scale = ((4, 2, 1), 2) if instance.lemma_id == "L1a" else ((2, 1), 4)
    f = [0] * n + [1]
    for k, scale in enumerate(scales):
        for i, c in enumerate(instance.polys.get(f"f{k}", ())):
            if c:  # a replay's F_k may carry trailing zeros past x^n
                f[i] += scale * c
    h = instance.polys["h"]
    g = [h_scale * c for c in h[:_degree(h) + 1]]
    g[0] += 1
    return f, g


def check_l1(instance: LemmaInstance) -> bool:
    """Re-check shapes and degree bounds, then test res(f, g) = 1 mod 8."""
    n, s = instance.params["n"], instance.params["s"]
    if n <= 1 or s < 1:
        raise HypothesisViolation("needs n > 1 and s >= 1")
    h = instance.polys.get("h", ())
    dh = _degree(h)
    if dh < 0 or h[0] != 0:
        raise HypothesisViolation("H must be divisible by x")
    if dh != s:
        raise HypothesisViolation(f"deg H = {dh}, hypotheses want exactly {s}")
    for k in range(3 if instance.lemma_id == "L1a" else 2):
        d = _degree(instance.polys.get(f"f{k}", ()))
        if d >= max(n - k * s, 0):
            raise HypothesisViolation(f"deg F{k} = {d} breaks deg < {n - k * s}")
    f, g = l1_pair(instance)
    return intres.resultant(f, g) % 8 == 1


# -- residue tables: L2 and GENERAL ---------------------------------------------

def table_violations(rows, table) -> list[str]:
    """Every entry of rows outside its slot of table, which has the same shape."""
    return [f"entry ({i},{j}) is {v}, admissible {slot}"
            for i, (row, slots) in enumerate(zip(rows, table))
            for j, (v, slot) in enumerate(zip(row, slots)) if v not in slot]


def _check_table(instance: LemmaInstance, side: int, table_of) -> bool:
    """Check the side, then every entry against table_of(), then det = 1 mod 8; the side
    goes first, so a replay whose sizes disagree with its matrix builds no table."""
    mat = instance.matrix
    if mat is None:
        raise HypothesisViolation("matrix instance required")
    if mat.n_rows != side or mat.n_cols != side:
        raise HypothesisViolation(f"shape is not {side} x {side}")
    table, chain = table_of(), itertools.chain.from_iterable
    if not all(map(operator.contains, chain(table), chain(mat.rows))):
        raise HypothesisViolation("; ".join(table_violations(mat.rows, table)[:3]))
    return intres.det_exact(mat) % 8 == 1


# -- L2: block matrix with unit diagonal -------------------------------------

def _l2_sizes(m: int, n: int) -> None:
    if not 0 <= m < n:
        raise ValueError("needs 0 <= m < n")


@functools.lru_cache(maxsize=64)
def l2_table(m: int, n: int) -> tuple:
    """Residue table of the (m+n) x (m+n) L2 matrix [[A, B], [C', D]].

    Rows and columns split at m. A is m x m upper triangular with unit
    diagonal, and its entry (i, j) is even when i + j is odd. B entry (i, r)
    is even when r <= i and i + r is even. C' is C over an (n-m) x m zero
    block, and C is upper triangular with entry (i, j) 0 mod 4 when i + j is
    even and 0 when it is odd. D has unit diagonal and entries 0 mod 4.
    """
    _l2_sizes(m, n)

    def slot(i: int, j: int):
        if i == j:
            return _ONE
        if i < m and j < m:
            return _ZERO if j < i else EVEN_RESIDUES if (i + j) % 2 else ALL_RESIDUES
        if i < m:  # B entry (i, r) at r = j - m
            return EVEN_RESIDUES if j - m <= i and (i + j - m) % 2 == 0 else ALL_RESIDUES
        if j < m:  # C entry (c, j) at c = i - m; in the zero block, c >= m > j
            return MULT4_RESIDUES if i - m <= j and (i - m + j) % 2 == 0 else _ZERO
        return MULT4_RESIDUES

    return tuple(tuple(slot(i, j) for j in range(m + n)) for i in range(m + n))


def gen_l2_matrix(seed: int, m: int | None = None, n: int | None = None) -> LemmaInstance:
    """Random (m+n) x (m+n) block instance, sized by both m and n or by neither, which
    draws 0 <= m < n with m + n <= 12."""
    if (m is None) != (n is None):
        raise ValueError("L2 is sized by both m and n or by neither")
    draw = _shake_bits(seed)
    if n is None:
        n = 1 + _below(draw, 11)
        m = _below(draw, min(n - 1, 12 - n) + 1)
    return LemmaInstance("L2", {"m": m, "n": n}, seed, _matrix(draw, _plan("L2", m, n), m + n))


def check_l2(instance: LemmaInstance) -> bool:
    """Re-check every entry against l2_table, then test det = 1 mod 8."""
    m, n = instance.params["m"], instance.params["n"]
    if not 0 <= m < n:
        raise HypothesisViolation("shape does not match m and n")
    return _check_table(instance, m + n, functools.partial(l2_table, m, n))


# -- GENERAL: the offset congruence ladder ------------------------------------

def _general_sizes(n: int) -> tuple[int, int]:
    if n < 5 or n % 2 == 0:
        raise ValueError("needs odd n >= 5")
    return n - 4, (n - 1) // 3


@functools.lru_cache(maxsize=16)
def general_table(n: int) -> tuple:
    """Residue table of the (m+n) x (m+n) GENERAL matrix, m = n - 4, s = (n-1)//3.

    Each slot depends on the offset k of the entry from its row's diagonal:
    k = j - i in upper row i, with the unit at k = 0, and k = j - r in lower
    row r, with the unit at k = m; the lower ladder also reads r at odd k.
    """
    m, s = _general_sizes(n)

    def upper(k: int):
        if k == 0:
            return _ONE
        if 0 < k < n - s:
            free = k % 4 == 0
        elif n - s <= k < n:
            free = k % 2 == 0
        else:
            free = k == n
        return ALL_RESIDUES if free else _ZERO

    def lower(k: int, r: int):
        if k < 0:
            return _ZERO
        if k == m:
            return _ONE
        if k < m - s:
            return MULT4_RESIDUES if k % 4 == 0 else _ZERO
        if k < m + n - 2 * s:
            if k % 4 == 2:
                return EVEN_RESIDUES
            if k % 4 == 0 or r + 1 + k > m:
                return MULT4_RESIDUES
            return _ZERO
        return EVEN_RESIDUES

    size = m + n
    return (tuple(tuple(upper(j - i) for j in range(size)) for i in range(m))
            + tuple(tuple(lower(j - r, r) for j in range(size)) for r in range(n)))


def gen_general_matrix(seed: int, n: int) -> LemmaInstance:
    """Random (m+n) x (m+n) instance, m = n - 4, s = (n-1)//3."""
    m, s = _general_sizes(n)
    matrix = _matrix(_shake_bits(seed), _plan("GENERAL", n), m + n)
    return LemmaInstance(
        "GENERAL", {"n": n, "m": m, "s": s}, seed, matrix,
        notes="column offset m is the unit diagonal; the congruence ladder does not apply there")


def check_general(instance: LemmaInstance) -> bool:
    """Re-check every entry against general_table, then test det = 1 mod 8."""
    n = instance.params["n"]
    m, _ = _general_sizes(n)
    return _check_table(instance, m + n, functools.partial(general_table, n))


# -- campaign driver -----------------------------------------------------------

_CHECKERS = {"D": check_d, "L1a": check_l1, "L1b": check_l1,
             "L2": check_l2, "GENERAL": check_general}

_L1_PAIRS = ((5, 1), (8, 2), (12, 3), (16, 3))

# the size pins each lemma takes, all of them or none
_PINS = {"D": ("m",), "L1a": ("n", "s"), "L1b": ("n", "s"), "L2": ("m", "n"),
         "GENERAL": ("n",)}
# the params each generator writes: a replay holds these and no others
_REPLAY_PARAMS = {"D": ("size",), "L1a": ("n", "s", "variant"), "L1b": ("n", "s", "variant"),
                  "L2": ("m", "n"), "GENERAL": ("n", "m", "s")}
# each lemma's refusal of the sizes its generator cannot draw at, taking its pins
_SIZES = {"D": _d_size, "L1a": _l1_sizes, "L1b": _l1_sizes, "L2": _l2_sizes,
          "GENERAL": _general_sizes}
_GENERAL_DEGREES = (5, 7, 9, 11)

# the largest matrix a campaign checks, as its side: the matrix for D, L2
# and GENERAL, whose det_exact takes 2.2-2.7 s at side 200 (D; L2 0.55-0.8 s,
# GENERAL 0.3-0.5 s) and grows as the cube of the side, and n + s for
# L1, whose resultant takes at most about 0.03 s at n + s = 200 (s from 50 to
# 130; 0.3 ms at s = 1 or n = 2) and builds no matrix.
MAX_SIDE = 200


def _check_side(lemma_id: str, side: int) -> None:
    if side > MAX_SIDE:
        raise ValueError(
            f"{lemma_id} instance has matrix side {side}, above the maximum of {MAX_SIDE}")


def _seeder(campaign_seed: int, label: str):
    """index -> the 8-byte blake2b of f"{campaign_seed}:{label}:{index}", the head hashed once."""
    head = hashlib.blake2b(f"{campaign_seed}:{label}:".encode(), digest_size=8)

    def seed(index: int) -> int:
        h = head.copy()
        h.update(b"%d" % index)
        return int.from_bytes(h.digest(), "big")

    return seed


def instance_seed(campaign_seed: int, label: str, index: int) -> int:
    """Stable per-instance seed derived from the campaign seed."""
    return _seeder(campaign_seed, label)(index)


def build_instance(lemma_id: str, campaign_seed: int, index: int,
                   n: int | None = None, s: int | None = None,
                   m: int | None = None) -> LemmaInstance:
    """Instance number index of a campaign, sized by the default schedule.

    D cycles sizes 2..8 unless m pins it; L1 cycles (n, s) over the
    standard pairs unless both are pinned; L2 draws 0 <= m < n with
    m + n <= 12 unless both are pinned; GENERAL cycles odd degrees 5, 7,
    9, 11 unless n pins it. Bad pins are refused first; see _check_pins.
    """
    _check_pins(lemma_id, n, s, m)
    return _scheduled_instance(lemma_id, instance_seed(campaign_seed, lemma_id, index),
                               index, n, s, m)


def _check_pins(lemma_id: str, n: int | None, s: int | None, m: int | None) -> None:
    """Refuse an unknown lemma id, then pins above MAX_DEGREE, then pins that are
    not the lemma's whole set of pins (see _PINS), then pinned sizes whose matrix
    side exceeds MAX_SIDE, then pinned sizes the lemma's generator refuses."""
    if lemma_id not in LEMMA_IDS:
        raise ValueError(f"unknown lemma id '{lemma_id}'")
    pins = {k: v for k, v in (("n", n), ("s", s), ("m", m)) if v is not None}
    for size in pins.values():
        gf2poly.check_degree(size)
    if pins and set(pins) != set(_PINS[lemma_id]):
        raise ValueError(f"{lemma_id} is pinned by all of {{{', '.join(_PINS[lemma_id])}}} "
                         f"or none, got {{{', '.join(sorted(pins))}}}")
    if not pins:
        return
    _check_side(lemma_id, 2 * n - 4 if lemma_id == "GENERAL" else sum(pins.values()))
    _SIZES[lemma_id](*map(pins.get, _PINS[lemma_id]))


def _scheduled_instance(lemma_id: str, seed: int, index: int,
                        n: int | None, s: int | None, m: int | None) -> LemmaInstance:
    """build_instance's draw, from the instance's seed, for pins that _check_pins has passed."""
    if lemma_id == "D":
        return gen_d_instance(seed, 2 + index % 7 if m is None else m)
    if lemma_id == "L2":
        return gen_l2_matrix(seed, m, n)
    if lemma_id == "GENERAL":
        n = _GENERAL_DEGREES[index % len(_GENERAL_DEGREES)] if n is None else n
        return gen_general_matrix(seed, n)
    if n is None:
        n, s = _L1_PAIRS[index % len(_L1_PAIRS)]
    return gen_l1_instance(seed, "a" if lemma_id == "L1a" else "b", n, s)


class FuzzResult:
    """A campaign's outcome: trials asked for, how many ran, and the first failure."""

    def __init__(self, lemma_id: str, trials: int, checked: int, failure: LemmaInstance | None):
        self.lemma_id = lemma_id
        self.trials = trials
        self.checked = checked
        self.failure = failure

    @property
    def ok(self) -> bool:
        return self.failure is None


def run_fuzz(lemma_id: str, trials: int, campaign_seed: int, *,
             n: int | None = None, s: int | None = None, m: int | None = None,
             jobs: int = 1) -> FuzzResult:
    """Run a fuzz campaign; reports the first failed conclusion, if any.

    The trials are split into one contiguous chunk per worker; with one
    worker the single chunk runs in this process.
    """
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    _check_pins(lemma_id, n, s, m)
    workers = pool_size(jobs, trials)
    bounds = [(trials * w // workers, trials * (w + 1) // workers) for w in range(workers)]
    tasks = [(lemma_id, campaign_seed, lo, hi, n, s, m) for lo, hi in bounds]
    hits = [h for h in map_in_pool(_fuzz_chunk, tasks, workers) if h is not None]
    if not hits:
        return FuzzResult(lemma_id, trials, trials, None)
    index = min(hits)
    inst = build_instance(lemma_id, campaign_seed, index, n=n, s=s, m=m)
    return FuzzResult(lemma_id, trials, index + 1, inst)


def _fuzz_chunk(args) -> int | None:
    """Index of the first failed conclusion in trials start..stop-1, or None;
    run_fuzz has checked the pins."""
    lemma_id, campaign_seed, start, stop, n, s, m = args
    check, seed = _CHECKERS[lemma_id], _seeder(campaign_seed, lemma_id)
    for index in range(start, stop):
        if not check(_scheduled_instance(lemma_id, seed(index), index, n, s, m)):
            return index
    return None


def recheck(instance: LemmaInstance) -> bool:
    """Run the matching checker on a stored instance."""
    if instance.lemma_id not in _CHECKERS:
        raise ValueError(f"unknown lemma id '{instance.lemma_id}'")
    return _CHECKERS[instance.lemma_id](instance)


def write_replay(path, instance: LemmaInstance) -> None:
    """Serialize a counterexample (or any instance) for later replay."""
    with open(path, "w") as out:
        out.write(json.dumps(instance.to_json(), indent=2) + "\n")


def read_replay(path) -> LemmaInstance:
    with open(path) as src:
        return LemmaInstance.from_json(json.load(src))
