"""Command line surface: exact output lines and exit codes."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gf2parity
from gf2parity import cli, lemma_lab, swan
from gf2parity import search as search_mod
from gf2parity.cli import main
from gf2parity.gf2poly import MAX_DEGREE, parse_poly
from gf2parity.lemma_lab import MAX_SIDE, build_instance, gen_l1_instance, write_replay


def run(capsys, args):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_parity_irreducible(capsys):
    rc, out, err = run(capsys, ["parity", "x^21+x^7+1"])
    assert rc == 0
    assert out == "predicted=odd observed=odd t=1\n"
    assert err == ""


def test_parity_even(capsys):
    rc, out, _ = run(capsys, ["parity", "x^11+x+1"])
    assert rc == 0
    assert out == "predicted=even observed=even t=2\n"


def test_parity_rejects_non_squarefree(capsys):
    rc, out, err = run(capsys, ["parity", "x^2+1"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")


def test_parity_disagreement_exits_2(capsys, monkeypatch):
    # the two parities are exact, so only a defect makes them differ
    monkeypatch.setattr(swan, "stickelberger_parity", lambda f: "even")
    assert run(capsys, ["parity", "x^21+x^7+1"]) == (
        2, "predicted=even observed=odd t=1\n",
        "error: predicted parity even disagrees with the factor count\n")


@pytest.mark.parametrize("argv", [
    ["parity", "x^1_1+1"], ["parity", "+5,0"], ["parity", "\u0663,0"],
    ["parity", "x^\u0663+1"], ["parity", "x^+3+1"], ["factors", "2_1,7,0"],
    ["verify", "--spec", "n=1_3;S=1,9"], ["predict", "--spec", "n=13;S=+1,9"],
    ["verify", "--spec", "n=13;S=\u0661"], ["predict", "--spec", "n=+13;S=1"],
])
def test_exponents_are_plain_ascii_digits(capsys, argv):
    # int() alone takes signs, underscores and other scripts' digits
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (1, "")
    assert err.startswith("error: bad ") and err.count("\n") == 1, err


def test_hex_is_plain_ascii_digits(capsys):
    rc, out, err = run(capsys, ["factors", "0x1_3"])
    assert (rc, out, err) == (1, "", "error: bad hexadecimal literal '0x1_3'\n")


def test_factors(capsys):
    rc, out, _ = run(capsys, ["factors", "x^8+x^4+1"])
    assert rc == 0
    assert out == "distinct=1 multiplicity=4\n"


@pytest.mark.parametrize("poly", ["0", "1"])
def test_factors_below_degree_one_refused(capsys, poly):
    assert run(capsys, ["factors", poly]) == (
        1, "", "error: factor counting needs degree at least 1\n")


def test_disc(capsys):
    rc, out, _ = run(capsys, ["disc", "x^3+x+1"])
    assert rc == 0
    assert out == "disc=-31 mod8=1\n"


def test_predict_valid(capsys):
    rc, out, _ = run(capsys, ["predict", "--spec", "n=11;S=1"])
    assert rc == 0
    assert out == "predicted=even\n"


def test_predict_invalid_support(capsys):
    rc, out, err = run(capsys, ["predict", "--spec", "n=21;S=7"])
    assert rc == 1
    assert out == ""
    assert "exponent 7" in err


def test_verify(capsys):
    rc, out, _ = run(capsys, ["verify", "--spec", "n=13;S=1,9"])
    assert rc == 0
    data = json.loads(out)
    assert data["poly"] == "x^13+x^9+x+1"
    assert data["disc_mod8"] == 5
    assert data["agree"] is True


def test_trace(capsys):
    rc, out, _ = run(capsys, ["trace", "x^7+x+1"])
    assert rc == 0
    assert out == "spectrum=1,0,0,0,0,0,0\nI=0\n"


def test_trace_rejects_reducible(capsys):
    rc, _, err = run(capsys, ["trace", "x^4+x^2+1"])
    assert rc == 1
    assert err.startswith("error: ")


def test_search_jsonl(capsys):
    rc, out, err = run(capsys, ["search", "--n-lo", "7", "--n-hi", "7",
                                "--shape", "trinomial", "--exponents", "odd-only"])
    assert rc == 0
    assert err == "3 records\n"
    lines = out.splitlines()
    assert json.loads(lines[0])["exponents"] == [7, 5, 0]
    assert "predicted_parity" not in json.loads(lines[0])
    assert json.loads(lines[1]) == {
        "n": 7, "exponents": [7, 3, 0], "irreducible": True,
        "am_single_trace": True, "m1_lt_n_over_3": False,
        "predicted_parity": "odd", "observed_parity": "odd",
    }


def test_search_csv(capsys):
    rc, out, _ = run(capsys, ["search", "--n-lo", "7", "--n-hi", "7",
                              "--shape", "trinomial", "--exponents", "odd-only",
                              "--format", "csv"])
    assert rc == 0
    assert out == (
        "n,exponents,irreducible,am_single_trace,m1_lt_n_over_3,"
        "predicted_parity,observed_parity\n"
        "7,7 5 0,false,true,false,,even\n"
        "7,7 3 0,true,true,false,odd,odd\n"
        "7,7 1 0,true,true,true,odd,odd\n"
    )


def test_search_table(capsys):
    rc, out, _ = run(capsys, ["search", "--n-lo", "7", "--n-hi", "7",
                              "--shape", "trinomial", "--exponents", "odd-only",
                              "--format", "table"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == ["poly", "irreducible", "am_single_trace",
                                "m1_lt_n_over_3", "predicted_parity",
                                "observed_parity"]
    assert lines[1].split() == ["x^7+x^5+1", "false", "true", "false", "-", "even"]
    assert lines[3].split() == ["x^7+x+1", "true", "true", "true", "odd", "odd"]


def test_search_mod8_filter(capsys):
    rc, out, _ = run(capsys, ["search", "--n-lo", "5", "--n-hi", "13",
                              "--shape", "trinomial", "--exponents", "odd-only",
                              "--mod8", "3,5"])
    assert rc == 0
    degrees = {json.loads(line)["n"] for line in out.splitlines()}
    assert degrees == {5, 11, 13}


def test_search_runs_are_identical(capsys):
    args = ["search", "--n-lo", "5", "--n-hi", "15", "--shape", "pentanomial",
            "--exponents", "odd-only"]
    _, first, _ = run(capsys, args)
    _, second, _ = run(capsys, args)
    assert first == second


def test_audit(capsys):
    rc, out, err = run(capsys, ["audit", "--n-lo", "11", "--n-hi", "13"])
    assert rc == 0
    assert err == "2 degrees, 6 candidates\n"
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0] == {"n": 11, "n_mod_8": 3, "asserted": True, "candidates": 3,
                       "irreducible": 0, "violations": []}
    assert rows[1]["n"] == 13 and rows[1]["irreducible"] == 0


@pytest.mark.parametrize("mod8", ["", "1,,3", "\u0663", "+5"])
def test_search_mod8_takes_only_plain_residues(capsys, mod8):
    # int() takes a sign, spaces and other scripts' digits, and an empty list
    # would ask for no degree at all
    rc, out, err = run(capsys, ["search", "--n-lo", "5", "--n-hi", "7", "--mod8", mod8])
    assert (rc, out, err) == (1, "", f"error: bad --mod8 '{mod8}', expected "
                                     "comma-separated residues from {1,3,5,7}\n")


@pytest.mark.parametrize("command", ["audit", "search"])
def test_inverted_degree_range_refused(capsys, command):
    rc, out, err = run(capsys, [command, "--n-lo", "9", "--n-hi", "5"])
    assert (rc, out, err) == (1, "", "error: empty degree range\n")


@pytest.mark.parametrize("argv, csv_header, table_header", [
    (["search", "--n-lo", "6", "--n-hi", "6", "--exponents", "odd-only"],
     "n,exponents,irreducible,am_single_trace,m1_lt_n_over_3,predicted_parity,observed_parity",
     "poly  irreducible  am_single_trace  m1_lt_n_over_3  predicted_parity  observed_parity"),
    (["audit", "--n-lo", "4", "--n-hi", "4"],
     "n,n_mod_8,asserted,candidates,irreducible,violations",
     "n  n_mod_8  asserted  candidates  irreducible  violations"),
], ids=["search", "audit"])
def test_empty_result_prints_only_its_header(capsys, argv, csv_header, table_header):
    assert run(capsys, [*argv, "--format", "jsonl"])[:2] == (0, "")
    assert run(capsys, [*argv, "--format", "csv"])[:2] == (0, csv_header + "\n")
    assert run(capsys, [*argv, "--format", "table"])[:2] == (0, table_header + "\n")


def test_audit_violations_exit_2_in_every_format(capsys, monkeypatch):
    violations = ("x^11+x^3+1", "x^11+x+1")
    row = search_mod.AuditRow(n=11, n_mod_8=3, asserted=True, candidates=3,
                              irreducible=2, violations=violations)
    monkeypatch.setattr(search_mod, "corollary_audit",
                        lambda *args, **kwargs: search_mod.AuditReport([row]))
    argv = ["audit", "--n-lo", "11", "--n-hi", "11", "--format"]
    rc, out, err = run(capsys, [*argv, "jsonl"])
    assert (rc, err) == (2, "1 degrees, 3 candidates\n")
    assert json.loads(out)["violations"] == list(violations)
    assert run(capsys, [*argv, "csv"])[:2] == (
        2, "n,n_mod_8,asserted,candidates,irreducible,violations\n"
           "11,3,true,3,2,x^11+x^3+1;x^11+x+1\n")
    rc, out, _ = run(capsys, [*argv, "table"])
    assert rc == 2
    assert out.splitlines()[1].split() == ["11", "3", "true", "3", "2",
                                           "x^11+x^3+1;x^11+x+1"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("args", [
    ["audit", "--n-lo", "5", "--n-hi", "9"],
    ["search", "--n-lo", "5", "--n-hi", "9"],
    ["lemma-fuzz", "--lemma", "d", "--trials", "5", "--seed", "1"],
])
def test_jobs_below_one_refused(capsys, args, jobs):
    rc, out, err = run(capsys, [*args, "--jobs", jobs])
    assert rc == 1
    assert out == ""
    assert err == f"error: jobs must be at least 1, got {jobs}\n"


OVER = MAX_DEGREE + 1


@pytest.mark.parametrize("form", ["x^{}+x+1", "{},1,0", "hex"])
def test_degree_cap_in_every_parser_form(capsys, form):
    at, over = (hex(1 << e | 3) if form == "hex" else form.format(e)
                for e in (MAX_DEGREE, OVER))
    assert parse_poly(at).bit_length() - 1 == MAX_DEGREE
    refusal = f"degree {OVER} is above the maximum of {MAX_DEGREE}"
    with pytest.raises(ValueError, match=refusal):
        parse_poly(over)
    for command in ("parity", "factors", "disc", "trace"):
        assert run(capsys, [command, over]) == (1, "", f"error: {refusal}\n")


@pytest.mark.parametrize("args", [
    ["verify", "--spec", f"n={OVER};S=1"],
    ["verify", "--spec", f"n={OVER + 1};S=1"],
    ["predict", "--spec", f"n={OVER + 1};S=1"],
    ["search", "--n-lo", "5", "--n-hi", str(OVER)],
])
def test_degree_cap_in_specs_and_search(capsys, args):
    degree = args[-1].partition(";")[0].removeprefix("n=")
    assert run(capsys, args) == (
        1, "", f"error: degree {degree} is above the maximum of {MAX_DEGREE}\n")


def _limit_address_space():
    limit = 512 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


HUGE = 10000000001
REFUSED = f"error: degree {HUGE} is above the maximum of {MAX_DEGREE}\n"


@pytest.mark.parametrize("args, err", [
    (["parity", f"x^{HUGE}"], REFUSED),
    (["parity", f"{HUGE},0"], REFUSED),
    (["verify", "--spec", f"n={HUGE};S=1"], REFUSED),
    (["search", "--n-lo", "5", "--n-hi", str(HUGE)], REFUSED),
    (["audit", "--n-lo", "5", "--n-hi", str(HUGE)],
     "error: degree 125 has 2097151 candidates, more than the 1048575 allowed per degree\n"),
])
def test_huge_degree_refused_before_allocation(args, err):
    # 1 << HUGE needs 1.25 GB, and a list of the audit's odd degrees up to
    # HUGE far more, so building either under a 512 MB address-space limit
    # fails with MemoryError instead of the message
    src = str(Path(gf2parity.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "gf2parity", *args], capture_output=True,
                          text=True, env=env, preexec_fn=_limit_address_space, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err)


FUZZ = ["lemma-fuzz", "--trials", "4", "--seed", "1"]


@pytest.mark.parametrize("args, size", [
    (["--lemma", "general", "--n", "100001"], 100001),
    (["--lemma", "general", "--n", "100001", "--jobs", "2"], 100001),
    (["--lemma", "d", "--m", "100000"], 100000),
    (["--lemma", "l2", "--n", "5", "--m", "100000"], 100000),
    (["--lemma", "l1a", "--n", "12", "--s", "100000"], 100000),
])
def test_lemma_fuzz_sizes_refused_before_allocation(args, size):
    # a size x size list of lists at these sizes fails with MemoryError
    # under the 512 MB address-space limit instead of the message
    src = str(Path(gf2parity.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "gf2parity", *FUZZ, *args],
                          capture_output=True, text=True, env=env,
                          preexec_fn=_limit_address_space, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"error: degree {size} is above the maximum of {MAX_DEGREE}\n")


@pytest.mark.parametrize("args, lemma, side", [
    (["--lemma", "general", "--n", str(MAX_DEGREE)], "GENERAL", 2 * MAX_DEGREE - 4),
    (["--lemma", "general", "--n", "103"], "GENERAL", 202),
    (["--lemma", "d", "--m", str(MAX_DEGREE)], "D", MAX_DEGREE),
    (["--lemma", "l1b", "--n", "199", "--s", "2"], "L1b", 201),
    (["--lemma", "l2", "--n", "150", "--m", "100"], "L2", 250),
])
def test_lemma_fuzz_slow_sizes_refused(capsys, args, lemma, side):
    # sizes under the degree cap whose det_exact check would run for seconds
    # to minutes per trial; L1 pins are held to the same side bound
    assert run(capsys, [*FUZZ, *args]) == (
        1, "", f"error: {lemma} instance has matrix side {side}, "
               f"above the maximum of {MAX_SIDE}\n")


@pytest.mark.parametrize("args, pins", [
    (["--lemma", "l2", "--n", "150"], "L2 is pinned by all of {m, n} or none, got {n}"),
    (["--lemma", "l1a", "--n", "400"], "L1a is pinned by all of {n, s} or none, got {n}"),
    (["--lemma", "d", "--s", "3"], "D is pinned by all of {m} or none, got {s}"),
    (["--lemma", "general", "--m", "3"], "GENERAL is pinned by all of {n} or none, got {m}"),
])
def test_lemma_fuzz_lone_or_unused_pins_refused(capsys, args, pins):
    # each of these once checked the default sizes and printed ok
    assert run(capsys, [*FUZZ, *args]) == (1, "", f"error: {pins}\n")


@pytest.mark.parametrize("args, error", [
    (["--lemma", "l1a", "--n", "9999", "--s", "1"],
     f"degree 9999 is above the maximum of {MAX_DEGREE}"),
    (["--lemma", "l1a", "--n", "5"], "L1a is pinned by all of {n, s} or none, got {n}"),
    (["--lemma", "d", "--m", "500"],
     f"D instance has matrix side 500, above the maximum of {MAX_SIDE}"),
    (["--lemma", "d", "--m", "0"], "size must be at least 1"),
    (["--lemma", "general", "--n", "4"], "needs odd n >= 5"),
    (["--lemma", "l2", "--m", "5", "--n", "3"], "needs 0 <= m < n"),
    (["--lemma", "l1b", "--n", "1", "--s", "1"], "needs n > 1 and s >= 1"),
])
def test_lemma_fuzz_bad_pins_refused_at_zero_trials(capsys, args, error):
    # zero trials once drew no instance, so no check ran and the campaign printed ok
    for trials in ("0", "1"):
        assert run(capsys, ["lemma-fuzz", "--trials", trials, "--seed", "1", *args]) == (
            1, "", f"error: {error}\n"), trials


def _replay_args(tmp_path, data):
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(data))
    return ["lemma-fuzz", "--lemma", "d", "--replay", str(path)]


def test_lemma_fuzz_replay_held_to_the_side_bound(tmp_path, capsys):
    # a valid L1a instance whose Sylvester matrix has side 241; build_instance
    # refuses that size, and its replay once printed "replay ok"
    data = gen_l1_instance(3, "a", 240, 1).to_json()
    assert run(capsys, _replay_args(tmp_path, data)) == (
        1, "", f"error: L1a instance has matrix side 241, above the maximum of {MAX_SIDE}\n")


def test_lemma_fuzz_replay_held_to_the_degree_cap(tmp_path, capsys):
    data = build_instance("GENERAL", 7, 0, n=9).to_json()
    data["params"]["n"] = OVER
    assert run(capsys, _replay_args(tmp_path, data)) == (
        1, "", f"error: degree {OVER} is above the maximum of {MAX_DEGREE}\n")


def test_lemma_fuzz_replay_without_params_refused(tmp_path, capsys):
    data = build_instance("D", 7, 0).to_json()
    del data["params"]
    assert run(capsys, _replay_args(tmp_path, data)) == (
        1, "", "error: a replay is an object with lemma_id, params and an integer seed\n")


def test_lemma_fuzz_replay_with_a_non_integer_entry_refused(tmp_path, capsys):
    data = build_instance("D", 7, 0).to_json()
    data["matrix"][0][0] = "a"
    assert run(capsys, _replay_args(tmp_path, data)) == (
        1, "", "error: the replay matrix must be rows of integers in 0..7\n")


@pytest.mark.parametrize("notes", [{"x": [1, 2]}, 7, None, ["a"]])
def test_lemma_fuzz_replay_with_non_string_notes_refused(tmp_path, capsys, notes):
    # write_replay once wrote such notes back as they came
    data = gen_l1_instance(3, "a", 12, 3).to_json()
    data["notes"] = notes
    args = _replay_args(tmp_path, data)
    args[2] = "l1a"
    assert run(capsys, args) == (1, "", "error: the replay notes must be a string\n")


@pytest.mark.parametrize("lemma, change, error", [
    ("l1a", {"junk": 7}, "L1a replay params take only n, s, variant, not 'junk'"),
    ("l1a", {"variant": {"x": [1, 2]}}, "L1a replay param variant must be 'a'"),
    ("l1b", {"variant": "a"}, "L1b replay param variant must be 'b'"),
    ("l1a", {"variant": None}, "L1a replay param variant must be 'a'"),
    ("d", {"m": 3}, "D replay params take only size, not 'm'"),
    ("d", {"size": 4}, "D replay param size is 4, but the matrix has 3 rows"),
    ("d", {"size": None}, "D replay params need integers size"),
    ("l2", {"s": 1}, "L2 replay params take only m, n, not 's'"),
    ("general", {"m": 4}, "GENERAL replay params need m = 5 and s = 2 at n = 9"),
    ("general", {"s": 3}, "GENERAL replay params need m = 5 and s = 2 at n = 9"),
    ("general", {"m": None}, "GENERAL replay params need integers n, m, s"),
    ("general", {"variant": "a"}, "GENERAL replay params take only n, m, s, not 'variant'"),
])
def test_lemma_fuzz_replay_with_params_its_generator_never_writes_refused(
        tmp_path, capsys, lemma, change, error):
    # from_json once passed params through whole, and write_replay wrote the extras back
    data = {"d": build_instance("D", 7, 1, m=3), "l1a": gen_l1_instance(3, "a", 8, 2),
            "l1b": gen_l1_instance(3, "b", 8, 2), "l2": build_instance("L2", 7, 0, m=1, n=4),
            "general": build_instance("GENERAL", 7, 0, n=9)}[lemma].to_json()
    for key, value in change.items():
        if value is None:
            del data["params"][key]
        else:
            data["params"][key] = value
    args = _replay_args(tmp_path, data)
    args[2] = lemma
    assert run(capsys, args) == (1, "", f"error: {error}\n")


@pytest.mark.parametrize("digits", [4, 1000, 4000])
def test_lemma_fuzz_replay_with_huge_coefficients_refused(tmp_path, digits):
    # an L1a replay far below MAX_SIDE with coefficients of thousands of
    # digits would make its exact resultant slow; generated instances draw
    # coefficients from -4..3, and a replay is held to that range
    data = gen_l1_instance(3, "a", 40, 4).to_json()
    data["polys"]["f0"] = [10 ** digits + 7] * 40
    data["polys"]["h"][-1] = -(10 ** digits)
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(data))
    src = str(Path(gf2parity.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "gf2parity", "lemma-fuzz", "--lemma", "l1a",
                           "--replay", str(path)], capture_output=True, text=True, env=env,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: the replay polys must be lists of integer coefficients in -4..3\n")
    assert time.monotonic() - start < 5


def test_lemma_fuzz_replay_at_the_coefficient_bounds_rechecks(tmp_path, capsys):
    # the extreme coefficients -4 and 3 are what generated instances hold
    data = gen_l1_instance(3, "a", 40, 4).to_json()
    data["polys"]["f0"] = [3, -4] * 20
    args = _replay_args(tmp_path, data)
    args[2] = "l1a"
    assert run(capsys, args) == (0, f"replay ok lemma=L1a seed={data['seed']}\n", "")


@pytest.mark.parametrize("lemma, data, side, table", [
    ("l2", {"lemma_id": "L2", "params": {"m": 255, "n": 256}, "seed": 0,
            "matrix": [[int(i == j) for j in range(5)] for i in range(5)]}, 511,
     lemma_lab.l2_table),
    ("general", dict(build_instance("GENERAL", 7, 0, n=9).to_json(),
                     params={"n": 511, "m": 507, "s": 170}), 1018, lemma_lab.general_table),
])
def test_lemma_fuzz_replay_with_sizes_unlike_its_matrix_refused(tmp_path, capsys,
                                                                 lemma, data, side, table):
    # the sizes ask for a far larger side than the matrix has; the refusal
    # comes before any residue table is looked up or built
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(data))
    before = table.cache_info()
    start = time.monotonic()
    assert run(capsys, ["lemma-fuzz", "--lemma", lemma, "--replay", str(path)]) == (
        1, "", f"error: shape is not {side} x {side}\n")
    assert time.monotonic() - start < 1.0
    assert table.cache_info() == before


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_lemma_fuzz_negative_trials_refused(capsys, jobs):
    assert run(capsys, ["lemma-fuzz", "--lemma", "d", "--trials", "-5", "--seed", "1",
                        "--jobs", jobs]) == (1, "", "error: trials must be at least 0, got -5\n")


def test_lemma_fuzz_ok(capsys):
    rc, out, _ = run(capsys, ["lemma-fuzz", "--lemma", "l2",
                              "--trials", "50", "--seed", "9"])
    assert rc == 0
    assert out == "ok lemma=L2 trials=50 checked=50 seed=9\n"


def test_lemma_fuzz_requires_seed(capsys):
    rc, out, err = run(capsys, ["lemma-fuzz", "--lemma", "d"])
    assert rc == 1
    assert out == ""
    assert err == "error: --trials and --seed are required unless --replay is given\n"


def test_lemma_fuzz_replay(tmp_path, capsys):
    path = tmp_path / "replay.json"
    write_replay(path, build_instance("GENERAL", 7, 0, n=9))
    rc, out, _ = run(capsys, ["lemma-fuzz", "--lemma", "general",
                              "--replay", str(path)])
    assert rc == 0
    assert out.startswith("replay ok lemma=GENERAL seed=")


def test_lemma_fuzz_replay_of_a_missing_file_refused(tmp_path, capsys):
    path = tmp_path / "absent.json"
    rc, out, err = run(capsys, ["lemma-fuzz", "--lemma", "d", "--replay", str(path)])
    assert (rc, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


def test_lemma_fuzz_replay_of_a_directory_refused(tmp_path, capsys):
    rc, out, err = run(capsys, ["lemma-fuzz", "--lemma", "d", "--replay", str(tmp_path)])
    assert (rc, out) == (1, "")
    assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_lemma_fuzz_replay_of_another_lemma_refused(tmp_path, capsys):
    path = tmp_path / "replay.json"
    write_replay(path, build_instance("GENERAL", 7, 0, n=9))
    assert run(capsys, ["lemma-fuzz", "--lemma", "d", "--replay", str(path)]) == (
        1, "", "error: --lemma d names D, but the replay holds a GENERAL instance\n")


def test_lemma_fuzz_pins(capsys):
    rc, out, _ = run(capsys, ["lemma-fuzz", "--lemma", "l1a", "--trials", "20",
                              "--seed", "3", "--n", "8", "--s", "2"])
    assert rc == 0
    assert out == "ok lemma=L1a trials=20 checked=20 seed=3\n"


def test_unknown_command(capsys):
    rc, out, err = run(capsys, ["bogus"])
    assert rc == 1
    assert out == ""
    assert "invalid choice" in err


def test_help(capsys):
    rc, out, _ = run(capsys, ["--help"])
    assert rc == 0
    assert "parity" in out and "lemma-fuzz" in out


def test_main_builds_one_parser_with_unchanged_output(capsys, monkeypatch):
    # repeated calls, help and usage errors included, print what a new parser
    # per call prints
    argvs = [["parity", "x^21+x^7+1"], ["--help"], ["parity"], ["bogus"],
             ["disc", "x^3+x+1"], ["lemma-fuzz", "--lemma", "d", "--trials", "3", "--seed", "1"],
             ["lemma-fuzz", "--help"], ["verify", "--spec", "n=13;S=1,9"]]
    cli._parser.cache_clear()
    cached = [[run(capsys, argv) for argv in argvs] for _ in range(2)]
    assert cli._parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run(capsys, argv) for argv in argvs]
    assert cached[0] == cached[1] == fresh
    assert [rc for rc, _, _ in fresh] == [0, 0, 1, 1, 0, 0, 0, 0]


def test_malformed_poly(capsys):
    rc, _, err = run(capsys, ["parity", "2x+1"])
    assert rc == 1
    assert err.startswith("error: ")


_GOLDEN_POLYS = ["x^21+x^7+1", "x^13+x^9+x+1", "x^8+x^4+1", "x", "x+1", "1", "0",
                 "x^127+x^5+x^3+x+1"]
_GOLDEN_SEARCHES = [["--n-lo", "5", "--n-hi", "21", "--shape", "trinomial"],
                    ["--n-lo", "5", "--n-hi", "13", "--shape", "pentanomial",
                     "--exponents", "odd-only"],
                    ["--n-lo", "5", "--n-hi", "11", "--shape", "any-support"]]
_FORMATS = ["jsonl", "csv", "table"]


def test_parity_query_imports_no_record_or_csv_machinery():
    # start-up is most of a one-off query: the records are plain classes, csv
    # loads only for --format csv, and replay files are read and written with
    # open() (-S keeps site's own imports out)
    src = str(Path(gf2parity.__file__).parents[1])
    code = ("import sys; from gf2parity.cli import main; main(['parity', 'x^21+x^7+1']); "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'csv', 'pathlib'}"
            " & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "predicted=odd observed=odd t=1\n[]\n")


def test_light_commands_load_no_search_or_fuzz_modules():
    # the six commands that classify one polynomial or spec never load the
    # record search, the lemma fuzz, the process pool or hashlib
    src = str(Path(gf2parity.__file__).parents[1])
    argvs = [["parity", "x^21+x^7+1"], ["factors", "x^21+x^7+1"], ["disc", "x^5+x^2+1"],
             ["trace", "x^21+x^7+1"], ["predict", "--spec", "n=13;S=1,9"],
             ["verify", "--spec", "n=13;S=1,9"]]
    code = (f"import sys; from gf2parity.cli import main; print([main(a) for a in {argvs!r}]); "
            "print(sorted({'gf2parity.lemma_lab', 'gf2parity.search', 'gf2parity.pool',"
            " 'hashlib'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.stdout.splitlines()[-2:] == ["[0, 0, 0, 0, 0, 0]", "[]"], proc.stderr


def test_stdout_matches_recorded_digest(capsys):
    # SHA-256 over argv, exit code and stdout of a fixed set of commands,
    # recorded while binary polynomials were still wrapped in a class
    argvs = [[command, p] for p in _GOLDEN_POLYS
             for command in ("parity", "factors", "trace", "disc")]
    argvs += [["search", *q, "--format", fmt] for q in _GOLDEN_SEARCHES for fmt in _FORMATS]
    argvs += [["audit", "--n-lo", "5", "--n-hi", "61", "--format", fmt] for fmt in _FORMATS]
    h = hashlib.sha256()
    for argv in argvs:
        rc, out, _ = run(capsys, argv)
        h.update(f"{' '.join(argv)}\n{rc}\n{out}".encode())
    assert h.hexdigest() == "cac88fab7056b4ac8c356ee309db03e9cf1d6f8176adae56f98df76210eb33ef"
