"""Lemma generators, hypothesis re-checkers, fuzz driver, replay files."""

import hashlib
import json
import random

import pytest

from gf2parity import lemma_lab
from gf2parity.gf2poly import MAX_DEGREE
from gf2parity.intres import IntMatrix, resultant
from gf2parity.lemma_lab import (
    LEMMA_IDS,
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
    with pytest.raises(HypothesisViolation):
        check_d(d_instance([[1, 3], [0, 1]]))


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


# -- campaign driver and replay -------------------------------------------------------

INSTANCES_DIGEST = "dd680c7d942a8b979aaefec9594eb1b834a373aad9d8c50ffe2b2c921ec2e822"


def test_instances_match_recorded_digest():
    # every instance a seed gives, default schedule and pinned sizes alike,
    # as recorded before the L2 and GENERAL hypotheses became residue tables
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


def test_replay_round_trip_poly_instance(tmp_path):
    inst = gen_l1_instance(instance_seed(43, "L1b", 0), "b", 8, 2)
    path = tmp_path / "replay.json"
    write_replay(path, inst)
    back = read_replay(path)
    assert back.polys == inst.polys
    assert recheck(back)
