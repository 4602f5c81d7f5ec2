"""Mutation check: each row of MUTANTS is one edit that the named tests must catch.

    python3 tools/mutants.py

Run it from the root of a checkout. It first runs every named test on an
unedited copy of src/, tests/, README.md and pyproject.toml, and stops with
exit 2 if one fails there. Then, for each row, it makes a fresh copy in a
temporary directory, applies the row's one edit (refusing, with exit 2, an old
text that does not occur exactly once in its file) and runs the row's tests
there with pytest. A mutant is killed when a test fails or the run outlasts
TIMEOUT seconds: a mutant may loop forever. A mutant whose run ends any other
way, say because a module no longer imports, is broken: its row needs
mending. It prints one line per mutant and exits 1 if any survives or is
broken. It is not part of the Tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COPIED = ("src", "tests", "README.md", "pyproject.toml")
TIMEOUT = 120  # seconds; every row's tests take under 10 s on the unedited tree

_DET = "tests/test_intres.py::test_det_property_reaches_every_bareiss_branch"
_SPLIT_G = "tests/test_intres.py::test_resultant_mod8_property_on_split_g"
_DISC = "tests/test_swan.py::test_disc_mod8_every_polynomial_up_to_degree_12"
_ROOTS = ("tests/test_search.py::test_frobenius_roots_on_the_hard_cases",
          "tests/test_search.py::test_frobenius_kernels_agree_on_every_degree")

# (file, exact old text, new text, the tests that must fail)
MUTANTS = (
    # det_exact: the pivot search, the gathered rows and each step's shortcut
    ("src/gf2parity/intres.py", "            for i in range(k + 1, n):\n",
     "            for i in range(k + 2, n):\n", (_DET,)),
    ("src/gf2parity/intres.py", "            else:\n                return 0\n",
     "            else:\n                return 1\n", (_DET,)),
    ("src/gf2parity/intres.py", "for ri in [ri for ri in a[k + 1:] if ri[k]]:",
     "for ri in [ri for ri in a[k + 2:] if ri[k]]:", (_DET,)),
    ("src/gf2parity/intres.py", "ri[j] -= cik * pk[j]", "ri[j] -= pk[j]", (_DET,)),
    ("src/gf2parity/intres.py",
     "                else:\n                    for j in cols:\n"
     "                        ri[j] = (ri[j] * piv - cik * pk[j]) // prev\n",
     "                else:\n                    for j in cols:\n"
     "                        ri[j] = ri[j] - cik * pk[j]\n", (_DET,)),
    ("src/gf2parity/intres.py", "ri[j] = ri[j] * piv - cik * pk[j]",
     "ri[j] = ri[j] - cik * pk[j]", (_DET,)),
    ("src/gf2parity/intres.py",
     "                    else:\n                        for j in cols:\n"
     "                            ri[j] = (ri[j] * piv - cik * pk[j]) // prev\n",
     "                    else:\n                        for j in cols:\n"
     "                            ri[j] = ri[j] * piv - cik * pk[j]\n", (_DET,)),
    ("src/gf2parity/intres.py", "ri[j] *= piv", "ri[j] *= 1", (_DET,)),
    ("src/gf2parity/intres.py", "ri[j] = ri[j] * piv // prev", "ri[j] = ri[j] // prev", (_DET,)),
    # the count's cached half-row pivots: the elimination must write into a copy
    ("src/gf2parity/gf2poly.py", "pivots = _half_row_pivots(n)[:]",
     "pivots = _half_row_pivots(n)",
     ("tests/test_gf2poly.py::test_count_does_not_share_its_cached_pivots",)),
    # the fuzz seeds: one blake2b state per chunk, copied per index
    ("src/gf2parity/lemma_lab.py", 'h.update(b"%d" % index)', 'h.update(b"%d" % (index + 1))',
     ("tests/test_lemma_lab.py::test_fuzz_chunk_mid_campaign_draws_build_instances",)),
    ("src/gf2parity/lemma_lab.py",
     "if not check(_scheduled_instance(lemma_id, seed(index), index, n, s, m)):",
     "if not check(_scheduled_instance(lemma_id, seed(index - start), index, n, s, m)):",
     ("tests/test_lemma_lab.py::test_fuzz_chunk_mid_campaign_draws_build_instances",)),
    # resultant_mod8: the remainder step, the end of a pair at d = 0, the Hensel
    # lift's guard and the truncation of A*
    ("src/gf2parity/intres.py", "(8 - c) * p", "(7 - c) * p", (_SPLIT_G,)),  # loops
    ("src/gf2parity/intres.py", "            if not d:\n                break\n",
     "            if not d:\n                return out\n",
     ("tests/test_intres.py::test_resultant_mod8_unit_remainder_is_its_own_cofactor",)),
    ("src/gf2parity/intres.py", "if d:  # lift", "if d > 1:  # lift",
     (_SPLIT_G, "tests/test_intres.py::test_resultant_mod8_long_hensel_factors")),
    ("src/gf2parity/intres.py", "3 * (m - d)", "2 * (m - d)",
     (_SPLIT_G, "tests/test_intres.py::test_resultant_mod8_unit_remainder_is_its_own_cofactor")),
    # its lanes: one byte wide at every size, or too few for g's top exponent
    ("src/gf2parity/intres.py", "    w = _lane_bytes(lanes)\n", "    w = 1\n",
     ("tests/test_intres.py::test_resultant_mod8_long_hensel_factors",)),
    ("src/gf2parity/intres.py", "lanes = 1 + max(n, max((e for e, _ in g_terms), default=0))",
     "lanes = 1 + n", ("tests/test_intres.py::test_resultant_mod8_one_shot_g_far_above_f",
                       "tests/test_intres.py::test_resultant_mod8_property_at_the_lane_switches")),
    # the disc's Graeffe step: U^2's cross terms, P's coefficients 2a + 1, F2's
    # constant -1, and which polynomials take it
    ("src/gf2parity/swan.py", "u * u << bits | 7",
     "(u * u + sum(1 << 2 * bits * (e >> 1) for e, _ in f_terms[:-1])) // 2 << bits | 7",
     (_DISC,)),
    ("src/gf2parity/swan.py", "(e & 7) << bits", "(e - 1 & 7) << bits", (_DISC,)),
    ("src/gf2parity/swan.py", "<< bits | 7", "<< bits | 1", (_DISC,)),
    ("src/gf2parity/swan.py", "if f_terms[-1][0] == 0 and all(", "if all(",
     (_DISC, "tests/test_swan.py::test_disc_mod8_route_boundary")),
    # the exact resultant: the sign of two odd degrees, and h after a degree gap
    ("src/gf2parity/intres.py", "        if da & db & 1:\n            sign = -sign\n", "",
     ("tests/test_intres.py::test_resultant_smaller_first_degree_with_both_odd",
      "tests/test_intres.py::test_resultant_property_against_bareiss")),
    ("src/gf2parity/intres.py", "h = lb ** delta * h // h ** delta", "h = lb ** delta",
     ("tests/test_intres.py::test_resultant_sequence_with_a_degree_gap",
      "tests/test_intres.py::test_discriminant_matches_bareiss_oracle_up_to_degree_127",
      "tests/test_intres.py::test_resultant_property_against_bareiss")),
    # the audit's square roots: even fields gathered first, odd ones shifted (m + 1) / 2
    ("src/gf2parity/search.py", "(*range(0, n, 2), *range(1, n, 2))",
     "(*range(1, n, 2), *range(0, n, 2))", _ROOTS),
    ("src/gf2parity/search.py", "(m + 1) // 2 * w", "(m - 1) // 2 * w", _ROOTS),
    # the export table, and the light commands' imports
    ("src/gf2parity/__init__.py", 'run_fuzz",\n    "search": "AuditReport',
     '",\n    "search": "run_fuzz AuditReport',
     ("tests/test_exports.py::test_export_is_its_submodules_object",)),
    ("src/gf2parity/cli.py", "from . import intres\n",
     "from . import intres\nfrom . import search\n",
     ("tests/test_cli.py::test_light_commands_load_no_search_or_fuzz_modules",)),
)


def copy_tree(root: Path, dest: Path) -> None:
    for name in COPIED:
        src = root / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", ".pytest_cache"))
        else:
            shutil.copy2(src, dest / name)


def run_tests(tree: Path, tests) -> str:
    """'pass', 'fail' (a test failed), 'timeout', or 'pytest exit N' for any other
    outcome of pytest on tests in tree, such as a module that no longer imports."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "pass", 1: "fail"}.get(done.returncode, f"pytest exit {done.returncode}")


def main() -> int:
    root = Path.cwd()
    for path, old, _, _ in MUTANTS:
        found = (root / path).read_text().count(old)
        if found != 1:
            print(f"{path}: old text occurs {found} times, not once: {old!r}", file=sys.stderr)
            return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(root, base)
        tests = sorted({t for row in MUTANTS for t in row[3]})
        if run_tests(base, tests) != "pass":
            print("the named tests do not pass on the unedited tree", file=sys.stderr)
            return 2
        survivors = broken = 0
        for number, (path, old, new, row_tests) in enumerate(MUTANTS, 1):
            tree = Path(tmp) / f"m{number}"
            copy_tree(root, tree)
            target = tree / path
            target.write_text(target.read_text().replace(old, new))
            outcome = run_tests(tree, row_tests)
            verdict = {"pass": "SURVIVED", "fail": "killed", "timeout": "killed (timeout)"}.get(
                outcome, f"BROKEN ({outcome})")
            survivors += outcome == "pass"
            broken += verdict.startswith("BROKEN")
            print(f"{number:3d} {verdict:16s} {path}: {old.strip()[:60]!r}", flush=True)
            shutil.rmtree(tree)
    print(f"{len(MUTANTS)} mutants, {survivors} survived, {broken} broken, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if survivors or broken else 0


if __name__ == "__main__":
    sys.exit(main())
