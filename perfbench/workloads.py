"""The four benchmark workloads: inputs, one operation, and output checks.

Each workload class is built from the benchmark seed and knows:

* warm_up(): the program's one-time work before the first timed operation,
  done through the public API on a tiny fixed input (counted in setup_s);
* op(i): operation number i, returning what the correctness checks need;
* round_size: the run always stops on a whole round, so every run has the
  same mix of operations;
* max_ops: how many distinct operations the inputs allow (None if unbounded);
* check_op(i, out): the checks on one output, run untimed as soon as the
  operation returns; it keeps only what finish() needs, from the operations
  in `sample`, so the process's memory does not grow with the run's length;
* units(out): the units of work in one output (audit candidates, fuzz
  trials), for the traced run's per-layer metrics;
* finish(rng): the checks that need sympy or the whole run, after the peak
  RSS has been read.

Every check compares against sympy, against a reference that sympy and an
independent method made once (perfbench/queries.json, audit_hits.json), or
against a property the method must have. Each returns a list of problems,
empty when correct.

Program functions are always looked up through their module at call time,
so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import re
from pathlib import Path

import gf2parity
from gf2parity import lemma_lab, search, swan
from reference import (AUDIT_DEGREES, audit_candidates, audit_pool, dense,
                       sympy_factor_count, sympy_irreducible)

HERE = Path(__file__).resolve().parent
MIN_OPS = 100  # every run attempts at least this many: ten samples lie beyond p90
SYMPY_SAMPLE = 16


def sample_ops(seed: int) -> set[int]:
    """Operations, among the first MIN_OPS of a run, whose outputs sympy rechecks."""
    return set(random.Random(f"sample:{seed}").sample(range(MIN_OPS), SYMPY_SAMPLE))


def residue_rule(n: int) -> tuple[str, int]:
    """(parity, discriminant residue) the paper's n mod 8 rule gives."""
    return ("odd", 1) if n % 8 in (1, 7) else ("even", 5)


class Workload:
    round_size = 1
    max_ops = None

    def units(self, out) -> float:
        return 0.0

    def finish(self, rng: random.Random) -> list[str]:
        return []


# -- sweep ---------------------------------------------------------------------

def admissible_supports(n: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Criterion-1 supports for degree n: every one of size 0..3, plus 100 random."""
    universe = [i for i in range(1, n) if (i % 2 and 3 * i < n) or i % 4 == n % 4]
    supports = [()]
    for k in (1, 2, 3):
        supports.extend(itertools.combinations(universe, k))
    for _ in range(100):
        k = rng.randint(1, min(6, len(universe)))
        supports.append(tuple(rng.sample(universe, k)))
    return supports


class Sweep(Workload):
    """swan.verify_theorem_instance over a seeded sample of criterion-1 instances."""

    instance_count = 13229

    def __init__(self, seed: int):
        instances = [(n, s) for n in range(5, 62, 2)
                     for s in admissible_supports(n, random.Random(7000 + n))]
        if len(instances) != self.instance_count:
            raise RuntimeError(f"criterion-1 set has {len(instances)} instances")
        random.Random(seed).shuffle(instances)
        self.instances = instances
        self.max_ops = len(instances)
        self.sample = sample_ops(seed)
        self.kept: list[tuple] = []  # (n, support, disc mod 8, t) of sampled reports

    @staticmethod
    def warm_up():
        swan.verify_theorem_instance(5, ())

    def op(self, i):
        n, support = self.instances[i]
        return swan.verify_theorem_instance(n, support)

    def check_op(self, i, rep):
        n, support = self.instances[i]
        parity, d8 = residue_rule(n)
        problems = []
        if not rep.agree or rep.failed_identities:
            problems.append(f"n={n} {rep.spec}: agree={rep.agree} "
                            f"failed={rep.failed_identities}")
        if rep.observed_parity != parity or int(rep.disc_mod8) != d8:
            problems.append(f"n={n} {rep.spec}: parity {rep.observed_parity}, "
                            f"disc {int(rep.disc_mod8)}; rule says {parity}, {d8}")
        if i in self.sample:
            self.kept.append((n, support, int(rep.disc_mod8), rep.t_distinct))
        return problems

    def finish(self, rng):
        from sympy import Poly, symbols

        x = symbols("x")
        problems = []
        for n, support, d8, t_report in self.kept:
            exps = (n, *support, 0)
            disc = Poly(dense(exps, n), x).discriminant() % 8
            t = sympy_factor_count(exps, n)
            if disc != d8 or t != t_report:
                problems.append(f"n={n} S={support}: sympy disc mod 8 {disc}, t {t}; "
                                f"report {d8}, {t_report}")
        return problems


# -- audit ---------------------------------------------------------------------

# One pass covers every odd n in [5, 99]. n = 5, 7 and 9 have one candidate
# each and share one call, so 22 of the 46 operations of a pass lie below the
# 511-candidate degrees (n = 53, 55, 57) and 6 above the 32,767-candidate ones
# (n = 89, 91, 93). p50 and p90 then fall inside those two classes instead of
# on the boundary between the 255- and 511-candidate degrees.
AUDIT_RANGES = ((5, 9), *((n, n) for n in range(11, 100, 2)))
EXACT_AUDIT_MAX_N = 41  # sympy re-decides every candidate up to here (294 tests)
HIT_SAMPLE = 2  # per degree above that: reference hits, and as many non-hits


def parse_hits(text: str, n: int) -> list[tuple[int, ...]]:
    """audit_hits.json's "5 3;7 1" as exponent tuples (n, 5, 3, 0), (n, 7, 1, 0)."""
    return [(n, *map(int, h.split()), 0) for h in text.split(";")] if text else []


class Audit(Workload):
    """search.corollary_audit over AUDIT_RANGES, in passes of seeded order."""

    round_size = len(AUDIT_RANGES)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.order: list[tuple[int, int]] = []
        self.hits = json.loads((HERE / "audit_hits.json").read_text())["hits"]
        self.ref_counts = {int(n): len(parse_hits(h, int(n))) for n, h in self.hits.items()}

    @staticmethod
    def warm_up():
        search.corollary_audit(5, 5)  # builds the small-factor screen tables

    def op(self, i):
        if i % self.round_size == 0:
            self.order = list(AUDIT_RANGES)
            self.rng.shuffle(self.order)
        lo, hi = self.order[i % self.round_size]
        return (lo, hi), search.corollary_audit(lo, hi)

    def units(self, out):
        return out[1].candidates

    def check_op(self, i, out):
        (lo, hi), report = out
        problems = []
        if [row.n for row in report.rows] != list(range(lo, hi + 1, 2)):
            problems.append(f"audit({lo}, {hi}): rows {[r.n for r in report.rows]}")
        for row in report.rows:
            n = row.n
            want = 2 ** len(audit_pool(n)) - 1
            asserted = n % 8 in (3, 5)
            if row.candidates != want or row.asserted != asserted:
                problems.append(f"n={n}: candidates={row.candidates} "
                                f"asserted={row.asserted}, want {want} candidates")
            if asserted and (row.irreducible or row.violations):
                problems.append(f"n={n}: {row.irreducible} irreducibles at n = +-3 mod 8")
            if row.irreducible != self.ref_counts[n]:
                problems.append(f"n={n}: {row.irreducible} irreducibles, "
                                f"reference {self.ref_counts[n]}")
        if not report.ok:
            problems.append(f"audit({lo}, {hi}) is not ok")
        return problems

    def finish(self, rng):
        """sympy against the stored reference the per-operation checks used."""
        problems = []
        for n in AUDIT_DEGREES:
            hits = parse_hits(self.hits[str(n)], n)
            if n <= EXACT_AUDIT_MAX_N:
                found = [c for c in audit_candidates(n) if sympy_irreducible(c, n)]
                if found != hits:
                    problems.append(f"n={n}: sympy finds {len(found)} irreducibles, "
                                    f"reference {len(hits)}")
                continue
            hit_set = set(hits)
            pool = audit_pool(n)
            checked = [(c, True) for c in rng.sample(hits, min(HIT_SAMPLE, len(hits)))]
            while len(checked) < 2 * HIT_SAMPLE:
                mids = sorted(rng.sample(pool, rng.randint(1, len(pool))), reverse=True)
                c = (n, *mids, 0)
                if c not in hit_set:
                    checked.append((c, False))
            for c, irreducible in checked:
                if sympy_irreducible(c, n) != irreducible:
                    problems.append(f"n={n} {c}: sympy says irreducible="
                                    f"{not irreducible}, reference {irreducible}")
        return problems


# -- fuzz ----------------------------------------------------------------------

# (lemma, trials, pinned parameters); D cycles 7 sizes and GENERAL 4 degrees,
# so their trial counts are multiples of those cycles
FUZZ_ROUND = (
    ("D", 56, {}),
    ("L2", 48, {}),
    ("GENERAL", 24, {}),
    *((lemma, 8, {"n": n, "s": s})
      for lemma in ("L1a", "L1b") for n, s in ((5, 1), (8, 2), (12, 3), (16, 3))),
)


def campaign_seed(seed: int, index: int, slot: int) -> int:
    h = hashlib.blake2b(f"{seed}:{index}:{slot}".encode(), digest_size=6)
    return int.from_bytes(h.digest(), "big")


def sympy_lemma_holds(inst) -> bool:
    """The lemma's conclusion, recomputed by sympy from the instance's payload."""
    from sympy import Matrix, Poly, resultant, symbols

    if inst.lemma_id in ("L1a", "L1b"):
        x = symbols("x")
        p = inst.params

        def poly(key):
            cs = inst.polys.get(key, ())
            return Poly(list(reversed(cs)) or [0], x)

        xn = Poly(x ** p["n"], x)
        if p["variant"] == "a":
            f = xn + 4 * poly("f0") + 2 * poly("f1") + poly("f2")
            g = 2 * poly("h") + 1
        else:
            f = xn + 2 * poly("f0") + poly("f1")
            g = 4 * poly("h") + 1
        return resultant(f.as_expr(), g.as_expr(), x) % 8 == 1
    rows = [list(r) for r in inst.matrix.rows]
    det = Matrix(rows).det() % 8
    if inst.lemma_id == "D":
        want = 1
        for i, r in enumerate(rows):
            want = want * r[i] % 8
        return det == want
    return det == 1


class Fuzz(Workload):
    """One round of lemma_lab.run_fuzz campaigns over every lemma id."""

    def __init__(self, seed: int):
        self.seed = seed
        self.sample = sample_ops(seed)

    @staticmethod
    def warm_up():
        for lemma, _, pins in FUZZ_ROUND:
            lemma_lab.run_fuzz(lemma, 1, 0, **pins)

    def op(self, i):
        return [lemma_lab.run_fuzz(lemma, trials, campaign_seed(self.seed, i, slot), **pins)
                for slot, (lemma, trials, pins) in enumerate(FUZZ_ROUND)]

    def units(self, out):
        return sum(result.checked for result in out)

    def check_op(self, i, out):
        problems = []
        for slot, result in enumerate(out):
            lemma, trials, _ = FUZZ_ROUND[slot]
            if not result.ok or result.checked != trials:
                problems.append(f"{lemma} seed {campaign_seed(self.seed, i, slot)}: "
                                f"ok={result.ok} checked={result.checked}/{trials}")
        return problems

    def finish(self, rng):
        """One instance of each sampled operation, rebuilt and decided by sympy."""
        problems = []
        for i in sorted(self.sample):
            slot = rng.randrange(len(FUZZ_ROUND))
            lemma, trials, pins = FUZZ_ROUND[slot]
            cs = campaign_seed(self.seed, i, slot)
            index = rng.randrange(trials)
            inst = lemma_lab.build_instance(lemma, cs, index, **pins)
            if not sympy_lemma_holds(inst):
                problems.append(f"{lemma} seed {cs} index {index}: sympy disagrees")
        return problems


# -- query ---------------------------------------------------------------------

PARITY_LINE = re.compile(r"predicted=(odd|even) observed=(odd|even) t=(\d+)\n")


class Query(Workload):
    """cli.main(["parity", poly]) in process, cycling degrees 127, 255, 511."""

    def __init__(self, seed: int):
        rounds = json.loads((HERE / "queries.json").read_text())["rounds"]
        random.Random(seed).shuffle(rounds)
        self.round_size = len(rounds[0])
        self.queries = [q for r in rounds for q in r]
        self.max_ops = len(self.queries)

    @staticmethod
    def warm_up():
        import gf2parity.cli  # argparse and the parser tables load here

        with contextlib.redirect_stdout(io.StringIO()):
            gf2parity.cli.main(["parity", "x^5+x^2+1"])

    def op(self, i):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = gf2parity.cli.main(["parity", self.queries[i]["poly"]])
        return rc, buf.getvalue()

    def check_op(self, i, out):
        rc, text = out
        q = self.queries[i]
        m = PARITY_LINE.fullmatch(text)
        want = "odd" if q["t"] % 2 else "even"
        if rc != 0 or m is None or m.groups() != (want, want, str(q["t"])):
            return [f"{q['poly'][:40]}: rc={rc} out={text!r}, want t={q['t']} ({want})"]
        return []


WORKLOADS = {"sweep": Sweep, "audit": Audit, "fuzz": Fuzz, "query": Query}
