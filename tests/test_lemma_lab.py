"""Lemma generators, hypothesis re-checkers, fuzz driver, replay files."""

import collections
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gf2parity
from gf2parity import lemma_lab
from gf2parity.gf2poly import MAX_DEGREE
from gf2parity.intres import IntMatrix, resultant
from gf2parity.lemma_lab import (
    ALL_RESIDUES,
    COEFFS,
    EVEN_RESIDUES,
    LEMMA_IDS,
    MULT4_RESIDUES,
    HypothesisViolation,
    LemmaInstance,
    build_instance,
    check_d,
    check_general,
    check_l1,
    check_l2,
    gen_d_instance,
    gen_general_matrix,
    gen_l1_instance,
    gen_l2_matrix,
    general_table,
    instance_seed,
    l1_pair,
    l2_table,
    read_replay,
    recheck,
    run_fuzz,
    table_violations,
    write_replay,
)
from gf2parity.swan import g_terms, lift_01, support_poly, support_universe

import helpers


def d_instance(rows):
    return LemmaInstance("D", {"size": len(rows)}, 0, IntMatrix(rows))


# -- D lemma --------------------------------------------------------------------

def test_d_hand_instances():
    assert check_d(d_instance([[1, 2], [0, 3]]))
    assert check_d(d_instance([[1, 2], [4, 1]]))
    assert check_d(d_instance([[3, 0], [2, 5]]))


def test_d_rejects_bad_product():
    with pytest.raises(HypothesisViolation):
        check_d(d_instance([[1, 2], [2, 1]]))


def test_d_rejects_odd_off_diagonal():
    # an odd entry above the diagonal and one below it, each with a product of 0
    for rows in ([[1, 3], [0, 1]], [[1, 0], [3, 1]]):
        with pytest.raises(HypothesisViolation):
            check_d(d_instance(rows))


def test_d_generator_output_checks():
    for index in range(300):
        inst = gen_d_instance(instance_seed(5, "D", index), 2 + index % 7)
        assert check_d(inst)


# -- L1 resultant lemmas ----------------------------------------------------------

def test_l1_minimal_pair_is_exactly_one():
    # H = x^s, every F zero: the resultant is 1 exactly, not only mod 8
    for n, s in ((5, 1), (12, 3)):
        h = (0,) * s + (1,)
        inst = LemmaInstance("L1a", {"n": n, "s": s, "variant": "a"}, 0,
                             polys={"h": h, "f0": (), "f1": (), "f2": ()})
        f, g = l1_pair(inst)
        assert resultant(f, g) == 1
        assert check_l1(inst)


def test_l1_displayed_shape():
    # n=12, s=3 gives the 15x15 Sylvester matrix
    inst = gen_l1_instance(instance_seed(7, "L1a", 0), "a", 12, 3)
    f, g = l1_pair(inst)
    rows = helpers.sylvester(f, g)
    assert len(rows) == 15 and all(len(r) == 15 for r in rows)
    assert check_l1(inst)


def test_l1_variant_b_seeded():
    inst = gen_l1_instance(instance_seed(7, "L1b", 0), "b", 5, 1)
    assert inst.lemma_id == "L1b"
    assert check_l1(inst)


def test_l1_refuses_broken_degree_bound():
    # F2 with degree n - 2s breaks deg F2 < n - 2s
    n, s = 12, 3
    bad_f2 = (0,) * (n - 2 * s) + (1,)
    inst = LemmaInstance("L1a", {"n": n, "s": s, "variant": "a"}, 0,
                         polys={"h": (0, 0, 0, 1), "f0": (), "f1": (), "f2": bad_f2})
    with pytest.raises(HypothesisViolation):
        check_l1(inst)


def test_l1_replay_zeros_past_x_n_recheck():
    # the degree bounds read F_k without trailing zeros, so a replay may
    # carry zeros past x^n; they add nothing to f
    inst = gen_l1_instance(instance_seed(7, "L1a", 1), "a", 12, 3)
    padded = dict(inst.polys, f0=inst.polys["f0"] + (0,) * 6)
    back = LemmaInstance.from_json(dict(inst.to_json(), polys={k: list(v) for k, v in padded.items()}))
    assert l1_pair(back) == l1_pair(inst)
    assert check_l1(back)


def test_l1_refuses_h_not_divisible_by_x():
    inst = LemmaInstance("L1a", {"n": 5, "s": 1, "variant": "a"}, 0,
                         polys={"h": (1, 1), "f0": (), "f1": (), "f2": ()})
    with pytest.raises(HypothesisViolation):
        check_l1(inst)


def test_l1_generators_meet_hypotheses():
    for variant in ("a", "b"):
        for index, (n, s) in enumerate(((5, 1), (8, 2), (12, 3), (16, 3))):
            for k in range(50):
                seed = instance_seed(11, f"L1{variant}", index * 50 + k)
                assert check_l1(gen_l1_instance(seed, variant, n, s))


# -- L2 block lemma ----------------------------------------------------------------

def test_l2_m_zero_degenerates_to_d_shape():
    inst = gen_l2_matrix(instance_seed(13, "L2", 0), 0, 4)
    assert inst.matrix.n_rows == 4
    assert check_l2(inst)


def test_l2_minimal_identity_like():
    rows = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    inst = LemmaInstance("L2", {"m": 2, "n": 3}, 0, IntMatrix(rows))
    assert check_l2(inst)


def test_l2_rejects_broken_diagonal():
    rows = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    rows[0][0] = 3
    inst = LemmaInstance("L2", {"m": 2, "n": 3}, 0, IntMatrix(rows))
    with pytest.raises(HypothesisViolation):
        check_l2(inst)


def test_l2_rejects_odd_c_entry():
    inst = gen_l2_matrix(instance_seed(13, "L2", 1), 2, 3)
    rows = [list(r) for r in inst.matrix.rows]
    rows[2][0] = 2  # C entries must be divisible by 4
    bad = LemmaInstance("L2", inst.params, inst.seed, IntMatrix(rows))
    with pytest.raises(HypothesisViolation):
        check_l2(bad)


def test_l2_table_matches_block_oracle():
    # set each entry of one instance per shape to each residue in turn: the
    # table refuses exactly what the block conditions of helpers refuse
    for n in range(1, 7):
        for m in range(n):
            inst = gen_l2_matrix(instance_seed(47, "L2", 10 * m + n), m, n)
            for i in range(m + n):
                for j in range(m + n):
                    for v in range(8):
                        rows = [list(r) for r in inst.matrix.rows]
                        rows[i][j] = v
                        bad = LemmaInstance("L2", inst.params, inst.seed, IntMatrix(rows))
                        if helpers.l2_hypotheses_hold(rows, m, n):
                            assert check_l2(bad)
                        else:
                            with pytest.raises(HypothesisViolation):
                                check_l2(bad)


@pytest.mark.parametrize("m, n", [(None, 7), (3, None)])
def test_l2_generator_refuses_a_lone_size(m, n):
    with pytest.raises(ValueError, match="both m and n or by neither"):
        gen_l2_matrix(instance_seed(13, "L2", 2), m, n)


def test_l2_generator_output_checks():
    rng = random.Random(17)
    for index in range(300):
        n = rng.randint(1, 11)
        m = rng.randint(0, min(n - 1, 12 - n))
        inst = gen_l2_matrix(instance_seed(17, "L2", index), m, n)
        assert check_l2(inst)


# -- the general lemma ---------------------------------------------------------------

def test_general_minimal_unit_triangular():
    n = 5
    m = n - 4
    size = m + n
    rows = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    inst = LemmaInstance("GENERAL", {"n": n, "m": m, "s": 1}, 0,
                         IntMatrix(rows))
    assert check_general(inst)


def test_general_seeded_instances():
    for n in (5, 7, 9, 11):
        for index in range(60):
            inst = gen_general_matrix(instance_seed(19, "GENERAL", index), n)
            assert not table_violations(inst.matrix.rows, general_table(n))
            assert check_general(inst)


def test_general_rejects_off_support_entry():
    inst = gen_general_matrix(instance_seed(19, "GENERAL", 0), 7)
    rows = [list(r) for r in inst.matrix.rows]
    rows[0][1] = 3  # offset 1 is outside the upper support
    assert table_violations(rows, general_table(7))
    bad = LemmaInstance("GENERAL", inst.params, inst.seed,
                        IntMatrix(rows))
    with pytest.raises(HypothesisViolation):
        check_general(bad)


def test_sylvester_of_theorem_pair_meets_general_hypotheses():
    # the arranged resultant matrix of (F, padded G) is a GENERAL instance
    rng = random.Random(23)
    checked = 0
    while checked < 50:
        n = rng.randrange(9, 42, 2)
        universe = support_universe(n)
        support = set(rng.sample(universe, min(len(universe), rng.randint(0, 4))))
        F = lift_01(support_poly(n, support))
        G = helpers.dense(g_terms(n, support))
        padded = G + [0] * (n - 3 - len(G))  # zero-padded to degree n - 4
        rows = [[v % 8 for v in row] for row in helpers.sylvester(F, padded)]
        assert table_violations(rows, general_table(n)) == [], (n, sorted(support))
        inst = LemmaInstance("GENERAL", {"n": n, "m": n - 4, "s": (n - 1) // 3},
                             0, IntMatrix(rows))
        assert check_general(inst)
        checked += 1


# -- the draws ---------------------------------------------------------------------

def _shares_hold(kind, counts):
    # 0 half the time, each of the k nonzero residues 1/(2k) of the time, with
    # margins of 0.02 and 0.01 that the draw count makes at least 5 sigma
    total, nonzero = sum(counts.values()), [v for v in kind if v]
    share = 1 / (2 * len(nonzero))
    assert set(counts) <= set(kind), kind
    assert total >= 25 * max(0.25 / 0.02 ** 2, share * (1 - share) / 0.01 ** 2), (kind, total)
    assert abs(counts[0] / total - 0.5) <= 0.02, (kind, counts[0] / total)
    for v in nonzero:
        assert abs(counts[v] / total - share) <= 0.01, (kind, v, counts[v] / total)


def test_generators_keep_the_entry_distribution():
    tally = {kind: collections.Counter()
             for kind in (ALL_RESIDUES, EVEN_RESIDUES, MULT4_RESIDUES, COEFFS)}
    swapped = known = 0
    for i in range(2000):
        rows = gen_d_instance(instance_seed(53, "D", i), 8).matrix.rows
        for r in range(8):
            tally[ALL_RESIDUES][rows[r][r]] += 1
            for c in range(r + 1, 8):
                upper, lower = rows[r][c], rows[c][r]
                assert (upper in MULT4_RESIDUES and lower in EVEN_RESIDUES
                        or upper in EVEN_RESIDUES and lower in MULT4_RESIDUES), (upper, lower)
                if upper in (2, 6) or lower in (2, 6):  # a 2 or 6 is the even draw
                    known += 1
                    swapped += upper in (2, 6)
                    tally[MULT4_RESIDUES][lower if upper in (2, 6) else upper] += 1

    leads = collections.Counter()
    for i in range(8000):
        n, s = lemma_lab._L1_PAIRS[i // 2 % 4]
        polys = gen_l1_instance(instance_seed(59, "L1", i), "ab"[i % 2], n, s).polys
        h = polys["h"]
        assert len(h) == s + 1 and h[0] == 0
        leads[h[-1]] += 1
        for k in range(3 if i % 2 == 0 else 2):
            assert len(polys[f"f{k}"]) == max(n - k * s, 0)
        tally[COEFFS].update(c for key, f in polys.items() for c in (f[1:-1] if key == "h" else f))
    assert set(leads) == set(COEFFS) - {0}  # H's leading coefficient: 1/7 each, 0.02 is 5 sigma
    assert all(abs(count / 8000 - 1 / 7) <= 0.02 for count in leads.values()), leads

    sizes = set()
    matrices = [(gen_l2_matrix(instance_seed(61, "L2", i)), None) for i in range(2000)]
    matrices += [(gen_general_matrix(instance_seed(67, "GENERAL", i), n), general_table(n))
                 for n, count in ((5, 100), (7, 100), (9, 100), (11, 100), (41, 60))
                 for i in range(count)]
    for inst, table in matrices:
        if table is None:
            sizes.add((inst.params["m"], inst.params["n"]))
            table = l2_table(inst.params["m"], inst.params["n"])
        assert not table_violations(inst.matrix.rows, table)
        for row, slots in zip(inst.matrix.rows, table):
            for v, slot in zip(row, slots):
                if len(slot) > 1:
                    tally[slot][v] += 1
    # the default L2 sizes: every 0 <= m < n with m + n <= 12
    assert sizes == {(m, n) for n in range(1, 12) for m in range(min(n - 1, 12 - n) + 1)}

    for kind, counts in tally.items():
        _shares_hold(kind, counts)
    assert known >= 25 * 0.25 / 0.02 ** 2 and abs(swapped / known - 0.5) <= 0.02


# the instance a seed gave for each lemma id under the three earlier generators,
# build_instance(lemma, 7, 1) for D, L1a, L1b and GENERAL and index 7 for L2:
# first from a random.Random per entry, then from a random.Random per instance
# with rows drawn in bulk, then from a shake_128 stream a row at a time
PARENT_REPLAYS = [
    {"lemma_id": "D", "params": {"size": 3}, "seed": 65258172151619857,
     "matrix": [[1, 2, 0], [4, 7, 4], [0, 0, 7]]},
    {"lemma_id": "L1a", "params": {"n": 8, "s": 2, "variant": "a"}, "seed": 2009054322413227207,
     "polys": {"h": [0, 0, -2], "f0": [2, -1, 0, 0, -1, -1, -4, 0], "f1": [0, -3, 0, 1, 0, 1],
               "f2": [3, 0, 2, 0]}},
    {"lemma_id": "L1b", "params": {"n": 8, "s": 2, "variant": "b"}, "seed": 17362475935096272372,
     "polys": {"h": [0, -1, -3], "f0": [0, 3, -3, 0, -1, -1, 0, 0], "f1": [1, -3, 0, 3, -1, 0]}},
    {"lemma_id": "L2", "params": {"m": 2, "n": 3}, "seed": 6759570033673992712,
     "matrix": [[1, 0, 0, 0, 0], [0, 1, 0, 2, 0], [4, 0, 1, 0, 4], [0, 4, 0, 1, 0],
                [0, 0, 0, 0, 1]]},
    {"lemma_id": "GENERAL", "params": {"n": 7, "m": 3, "s": 2}, "seed": 3028691569333901276,
     "matrix": [[1, 0, 0, 0, 1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0, 1, 0],
                [0, 0, 1, 0, 0, 0, 0, 0, 2, 0], [0, 0, 0, 1, 0, 4, 2, 2, 4, 0],
                [0, 0, 0, 2, 1, 0, 4, 0, 0, 0], [0, 0, 4, 4, 0, 1, 4, 0, 2, 0],
                [0, 0, 0, 4, 0, 6, 1, 0, 0, 4], [0, 0, 0, 0, 0, 0, 2, 1, 4, 0],
                [0, 0, 0, 0, 0, 0, 4, 0, 1, 4], [0, 0, 0, 0, 0, 0, 0, 0, 6, 1]],
     "notes": "column offset m is the unit diagonal; the congruence ladder does not apply there"},
    {"lemma_id": "D", "params": {"size": 3}, "seed": 65258172151619857,
     "matrix": [[0, 4, 6], [0, 0, 0], [4, 6, 0]]},
    {"lemma_id": "L1a", "params": {"n": 8, "s": 2, "variant": "a"}, "seed": 2009054322413227207,
     "polys": {"h": [0, 2, 1], "f0": [0, -3, 0, 0, 1, 0, 0, 0], "f1": [2, 0, 0, 0, -2, -4],
               "f2": [0, 0, -3, -4]}},
    {"lemma_id": "L1b", "params": {"n": 8, "s": 2, "variant": "b"}, "seed": 17362475935096272372,
     "polys": {"h": [0, -3, -4], "f0": [1, 0, -3, 1, 0, 0, 0, 0], "f1": [1, 0, 2, -1, 0, 3]}},
    {"lemma_id": "L2", "params": {"m": 0, "n": 3}, "seed": 6759570033673992712,
     "matrix": [[1, 4, 0], [0, 1, 4], [4, 0, 1]]},
    {"lemma_id": "GENERAL", "params": {"n": 7, "m": 3, "s": 2}, "seed": 3028691569333901276,
     "matrix": [[1, 0, 0, 0, 7, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0, 7, 0, 3, 0], [0, 0, 0, 1, 0, 4, 4, 0, 0, 0],
                [0, 4, 0, 0, 1, 4, 0, 2, 0, 6], [0, 0, 0, 0, 2, 1, 4, 4, 0, 0],
                [0, 0, 0, 0, 0, 6, 1, 0, 4, 4], [0, 0, 0, 0, 0, 0, 4, 1, 0, 0],
                [0, 0, 0, 0, 0, 0, 4, 4, 1, 4], [0, 0, 0, 0, 0, 0, 4, 4, 6, 1]],
     "notes": "column offset m is the unit diagonal; the congruence ladder does not apply there"},
    {"lemma_id": "D", "params": {"size": 3}, "seed": 65258172151619857,
     "matrix": [[5, 0, 4], [4, 0, 2], [4, 4, 0]]},
    {"lemma_id": "L1a", "params": {"n": 8, "s": 2, "variant": "a"}, "seed": 2009054322413227207,
     "polys": {"h": [0, -3, -1], "f0": [0, -4, 2, 0, 3, 2, 0, 0], "f1": [3, 0, -2, 0, 0, 0],
               "f2": [0, -2, 0, 0]}},
    {"lemma_id": "L1b", "params": {"n": 8, "s": 2, "variant": "b"}, "seed": 17362475935096272372,
     "polys": {"h": [0, 1, 3], "f0": [0, 1, 0, -1, 2, 0, 0, 0], "f1": [0, 2, 0, 0, 0, -2]}},
    {"lemma_id": "L2", "params": {"m": 1, "n": 10}, "seed": 6759570033673992712,
     "matrix": [[1, 4, 7, 0, 1, 0, 7, 1, 2, 0, 4], [0, 1, 0, 0, 0, 4, 4, 4, 4, 0, 4],
                [0, 0, 1, 0, 0, 0, 0, 0, 4, 0, 4], [0, 4, 0, 1, 0, 0, 4, 0, 4, 0, 4],
                [0, 0, 4, 4, 1, 4, 4, 4, 4, 4, 0], [0, 4, 0, 0, 4, 1, 4, 0, 0, 0, 0],
                [0, 0, 0, 4, 0, 0, 1, 0, 0, 4, 4], [0, 0, 4, 0, 4, 4, 0, 1, 0, 0, 0],
                [0, 4, 4, 4, 0, 0, 4, 4, 1, 0, 0], [0, 4, 4, 0, 0, 0, 4, 4, 0, 1, 4],
                [0, 0, 4, 0, 4, 4, 0, 4, 0, 4, 1]]},
    {"lemma_id": "GENERAL", "params": {"n": 7, "m": 3, "s": 2}, "seed": 3028691569333901276,
     "matrix": [[1, 0, 0, 0, 0, 0, 7, 3, 0, 0], [0, 1, 0, 0, 0, 2, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0, 5, 0, 4, 4], [0, 0, 0, 1, 4, 0, 0, 0, 0, 0],
                [0, 4, 0, 6, 1, 4, 0, 6, 6, 0], [0, 0, 0, 0, 0, 1, 4, 4, 0, 4],
                [0, 0, 0, 4, 0, 6, 1, 0, 4, 2], [0, 0, 0, 0, 0, 4, 6, 1, 0, 4],
                [0, 0, 0, 0, 0, 4, 4, 0, 1, 4], [0, 0, 0, 0, 0, 0, 4, 4, 0, 1]],
     "notes": "column offset m is the unit diagonal; the congruence ladder does not apply there"},
]


@pytest.mark.parametrize("data", PARENT_REPLAYS, ids=[  # one per lemma id and generator
    d["lemma_id"] + ("", "-bulk", "-shake")[k // len(LEMMA_IDS)]
    for k, d in enumerate(PARENT_REPLAYS)])
def test_replays_of_the_earlier_generator_recheck(data):
    inst = LemmaInstance.from_json(data)
    assert inst.to_json() == data
    assert recheck(inst)


def test_instance_bits_are_one_shake_128_stream():
    # draws of mixed widths read one long digest in order, past the first 96 bytes,
    # across one doubling and, at the 5000-bit draw, across two in one call
    widths = [0, 1, 3, 4, 17, 64, 0, 250, 5, 700, 3, 2000, 9, 5000, 6]
    for seed in (0, 1, -5, instance_seed(3, "D", 5), 1 << 70):
        draw = lemma_lab._shake_bits(seed)
        stream = int.from_bytes(hashlib.shake_128(str(seed).encode()).digest(
            sum(widths) // 8 + 1), "little")
        for k in widths:
            assert draw(k) == stream & ((1 << k) - 1), (seed, k)
            stream >>= k


def test_rejection_draws_are_uniform():
    # _below takes the L2 default sizes: 1 + _below(11) and then _below(m choices)
    for k in (1, 2, 5, 6, 11):
        total, share = 400 * k, 1 / k
        counts = collections.Counter(
            lemma_lab._below(lemma_lab._shake_bits(instance_seed(79, str(k), i)), k)
            for i in range(total))
        assert set(counts) == set(range(k))
        sigma = (share * (1 - share) / total) ** 0.5  # 5 sigma below
        assert all(abs(c / total - share) <= 5 * sigma for c in counts.values()), counts


def _table_rejects(kind, zeros):
    # a stream byte's slot, all 256 bytes: zeros give 0, each nonzero residue of kind
    # as many, and the rest draw again, at most 2 of the 128 odd bytes
    table, nonzero = lemma_lab._table(kind), {v % 256 for v in kind if v}
    counts = collections.Counter(table)
    assert counts[0] == zeros and set(counts) <= nonzero | {0, lemma_lab._REJECT}, kind
    assert len({counts[v] for v in nonzero}) == 1, kind
    rejects = [b for b in range(256) if table[b] == lemma_lab._REJECT]
    assert sum(b % 2 for b in rejects) <= 2, kind
    return rejects


def test_kind_tables_give_0_half_the_time_and_else_a_uniform_residue():
    for kind in (ALL_RESIDUES, EVEN_RESIDUES, MULT4_RESIDUES, COEFFS):
        rejects = _table_rejects(kind, 128)
        assert len(rejects) == 128 % (len(kind) - 1) and all(b % 2 for b in rejects), kind
    # H's leading coefficient has no 0: every byte b indexes by b >> 1
    assert _table_rejects(lemma_lab._LEAD, 0) == [252, 253, 254, 255]


def test_d_pair_tables_draw_an_even_and_a_mult4_entry():
    # bits 0..5 of a pair's byte give the EVEN entry, 32 of 64 values 0 and 2 of 32
    # redrawn, bit 6 the MULT4 entry and bit 7 the swap; all 256 bytes enumerated
    upper, lower = lemma_lab._pair_tables()
    want = collections.Counter({(lemma_lab._REJECT,) * 2: 8})
    for swap, mult4 in itertools.product((0, 1), (0, 4)):
        for even, count in ((0, 32), (2, 10), (4, 10), (6, 10)):
            want[(even, mult4) if swap else (mult4, even)] += count
    assert collections.Counter(zip(upper, lower)) == want
    rejects = [b for b in range(256) if upper[b] == lemma_lab._REJECT]
    assert [b & 63 for b in rejects] == [61, 63] * 4


def test_rejected_bytes_are_drawn_again_in_slot_order(monkeypatch):
    # a 2 x 2 D instance draws 3 bytes: the diagonal, then the pair. Bytes 0xff
    # (b >> 1 = 127) and 0xbf (EVEN part 63) are rejects; each is drawn again, in
    # slot order, from the next byte with bit 0 set, until it is not a reject
    stream = iter([0xff, 0x03, 0xbf, 0xfe, 0x04, 0x2c])
    widths = []

    def getrandbits(k):
        widths.append(k)
        return int.from_bytes(bytes(next(stream) for _ in range(k // 8)), "little")

    monkeypatch.setattr(lemma_lab, "_shake_bits", lambda seed: getrandbits)
    inst = gen_d_instance(0, 2)
    # 0xff, 0xfe | 1 reject; 0x04 | 1 gives residue 1 + (5 >> 1) = 3; 0x03 gives 2;
    # 0x2c | 1 = 0b00101101: EVEN 2 * (1 + (45 >> 1) % 3) = 4, MULT4 0, no swap
    assert inst.matrix.rows == [[3, 0], [4, 2]]
    assert widths == [24, 8, 8, 8]
    assert check_d(inst)


INSTANCES_DIGEST = "e52ab3e26b940ca615b8928e1274fc7da21c00309c6d6b94c14914bec149fd2d"


def test_instances_match_recorded_digest():
    # every instance a seed gives, default schedule and pinned sizes alike,
    # as recorded when each instance was first drawn in one read of its shake_128 stream
    digest = hashlib.sha256()
    for lemma in LEMMA_IDS:
        for cs in (1, 7, 123):
            for i in range(200):
                digest.update(json.dumps(build_instance(lemma, cs, i).to_json()).encode())
    for i in range(20):
        for inst in (build_instance("L2", 5, i, m=40, n=60),
                     build_instance("GENERAL", 5, i, n=41)):
            digest.update(json.dumps(inst.to_json()).encode())
    assert digest.hexdigest() == INSTANCES_DIGEST


GENERATION_DIGEST = """
import hashlib, json
from gf2parity.lemma_lab import LEMMA_IDS, build_instance
digest = hashlib.sha256()
for lemma in LEMMA_IDS:
    for i in range(200):
        digest.update(json.dumps(build_instance(lemma, 11, i).to_json()).encode())
print(digest.hexdigest())
"""


def test_generation_does_not_depend_on_the_hash_seed(capsys):
    # --jobs workers are spawned, each with its own hash seed and its own plan
    # cache, so what a seed gives must not depend on either
    exec(GENERATION_DIGEST, {})
    here = capsys.readouterr().out
    src = str(Path(gf2parity.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p),
        PYTHONHASHSEED="2" if os.environ.get("PYTHONHASHSEED") == "1" else "1")
    proc = subprocess.run([sys.executable, "-c", GENERATION_DIGEST], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, here, "")


# -- campaign driver and replay -------------------------------------------------------

def test_run_fuzz_green_campaigns():
    for lemma in ("D", "L1a", "L1b", "L2", "GENERAL"):
        result = run_fuzz(lemma, 120, 29)
        assert result.ok and result.checked == 120


def test_run_fuzz_deterministic():
    a = run_fuzz("L2", 60, 31)
    b = run_fuzz("L2", 60, 31)
    assert a.ok == b.ok and a.checked == b.checked


def test_run_fuzz_parallel_matches_serial():
    a = run_fuzz("GENERAL", 30, 31)
    b = run_fuzz("GENERAL", 30, 31, jobs=2)
    assert (a.ok, a.checked) == (b.ok, b.checked) == (True, 30)


def test_run_fuzz_pinned_parameters():
    result = run_fuzz("L1a", 40, 37, n=8, s=2)
    assert result.ok
    result = run_fuzz("GENERAL", 20, 37, n=9)
    assert result.ok
    result = run_fuzz("D", 40, 37, m=3)
    assert result.ok


@pytest.mark.parametrize("lemma, pins", [
    ("D", {}), ("D", {"m": 5}), ("L1a", {}), ("L1b", {"n": 9, "s": 2}), ("L2", {}),
    ("L2", {"m": 2, "n": 6}), ("GENERAL", {}), ("GENERAL", {"n": 13}),
])
def test_run_fuzz_draws_build_instances(monkeypatch, lemma, pins):
    # the campaign checks its pins once and then draws each trial unchecked
    seen = []
    monkeypatch.setitem(lemma_lab._CHECKERS, lemma, lambda inst: seen.append(inst) or True)
    assert run_fuzz(lemma, 9, 43, **pins).checked == 9
    assert seen == [build_instance(lemma, 43, i, **pins) for i in range(9)]


@pytest.mark.parametrize("campaign_seed", [-7, 1 << 70])
@pytest.mark.parametrize("lemma", LEMMA_IDS)
def test_fuzz_chunk_mid_campaign_draws_build_instances(monkeypatch, lemma, campaign_seed):
    # a worker's chunk starts mid-campaign; its seeds cross from two digits to three
    seen = []
    monkeypatch.setitem(lemma_lab._CHECKERS, lemma, lambda inst: seen.append(inst) or True)
    assert lemma_lab._fuzz_chunk((lemma, campaign_seed, 95, 106, None, None, None)) is None
    assert seen == [build_instance(lemma, campaign_seed, i) for i in range(95, 106)]
    assert [inst.seed for inst in seen] == [int.from_bytes(hashlib.blake2b(
        f"{campaign_seed}:{lemma}:{i}".encode(), digest_size=8).digest(), "big")
        for i in range(95, 106)]


@pytest.mark.parametrize("lemma, pins, draw", [
    ("D", {"m": 0}, lambda: gen_d_instance(0, 0)),
    ("L1a", {"n": 1, "s": 1}, lambda: gen_l1_instance(0, "a", 1, 1)),
    ("L1b", {"n": 5, "s": 0}, lambda: gen_l1_instance(0, "b", 5, 0)),
    ("L2", {"m": 5, "n": 3}, lambda: gen_l2_matrix(0, 5, 3)),
    ("GENERAL", {"n": 8}, lambda: gen_general_matrix(0, 8)),
])
def test_pins_refused_as_the_generator_refuses(lemma, pins, draw):
    # a campaign refuses these before its first trial, in the generator's words
    with pytest.raises(ValueError) as direct:
        draw()
    for refuse in (run_fuzz, build_instance):
        with pytest.raises(ValueError) as pinned:
            refuse(lemma, 0, 1, **pins)
        assert str(pinned.value) == str(direct.value), refuse


def test_run_fuzz_reports_first_failure(monkeypatch):
    bad = {instance_seed(5, "D", i) for i in (12, 7)}
    monkeypatch.setitem(lemma_lab._CHECKERS, "D", lambda inst: inst.seed not in bad)
    result = run_fuzz("D", 20, 5)
    assert (result.ok, result.checked) == (False, 8)
    assert result.failure.seed == instance_seed(5, "D", 7)


def test_run_fuzz_refuses_negative_trials():
    with pytest.raises(ValueError, match="trials must be at least 0, got -1"):
        run_fuzz("D", -1, 0)
    assert run_fuzz("D", 0, 0).checked == 0


@pytest.mark.parametrize("pin", ["n", "s", "m"])
def test_build_instance_refuses_sizes_above_the_cap(pin):
    with pytest.raises(ValueError, match=f"degree {MAX_DEGREE + 1} is above"):
        build_instance("D", 0, 0, **{pin: MAX_DEGREE + 1})


def test_build_instance_bounds_the_matrix_side():
    # the refusal for every lemma id is in test_cli.py; this is the boundary
    side = lemma_lab.MAX_SIDE
    assert build_instance("D", 0, 0, m=side).matrix.n_rows == side
    with pytest.raises(ValueError, match=f"D instance has matrix side {side + 1}, above"):
        build_instance("D", 0, 0, m=side + 1)


def test_build_instance_rejects_unknown_lemma():
    with pytest.raises(ValueError):
        build_instance("L9", 0, 0)


def test_replay_round_trip(tmp_path):
    inst = gen_general_matrix(instance_seed(41, "GENERAL", 3), 7)
    path = tmp_path / "replay.json"
    write_replay(path, inst)
    back = read_replay(path)
    assert back.lemma_id == inst.lemma_id
    assert back.params == inst.params
    assert back.seed == inst.seed
    assert back.matrix == inst.matrix
    assert recheck(back)


def test_replay_round_trip_keeps_string_notes(tmp_path):
    inst = gen_general_matrix(instance_seed(41, "GENERAL", 3), 7)
    path = tmp_path / "replay.json"
    for notes in (inst.notes, "", "a note\nover two lines"):
        inst.notes = notes
        write_replay(path, inst)
        assert read_replay(path) == inst
        data = json.loads(path.read_text())
        assert data.get("notes", "") == notes


def test_instances_without_polys_do_not_share_a_dict():
    a, b = d_instance([[1]]), d_instance([[1]])
    assert a == b and a.polys == {}
    a.polys["f"] = (1,)
    assert b.polys == {} and a != b


def test_replay_round_trip_poly_instance(tmp_path):
    inst = gen_l1_instance(instance_seed(43, "L1b", 0), "b", 8, 2)
    path = tmp_path / "replay.json"
    write_replay(path, inst)
    back = read_replay(path)
    assert back.polys == inst.polys
    assert recheck(back)


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_replay_round_trip_every_lemma(tmp_path, lemma_id):
    # a replay holds exactly the params its generator writes, so each comes back
    inst = build_instance(lemma_id, 47, 5)
    path = tmp_path / "replay.json"
    write_replay(path, inst)
    back = read_replay(path)
    assert back == inst
    assert back.to_json() == inst.to_json()
    assert recheck(back)
