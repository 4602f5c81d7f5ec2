"""Make the `audit` workload's reference: every irreducible audit candidate.

    python3 perfbench/make_audit_hits.py

writes perfbench/audit_hits.json. For each odd n in AUDIT_DEGREES it lists
the middle exponents of every candidate x^n + ... + 1 of corollary_audit(n, n)
that is irreducible ("5 3;7 1" stands for x^n+x^5+x^3+1 and x^n+x^7+x+1),
as decided by reference.rabin_irreducible: about two minutes for all
393,162 candidates. sympy's gf_irreducible_p then re-decides every
candidate up to n = EXACT_MAX_N, and SAMPLE hits and SAMPLE non-hits drawn
with SEED at every larger degree; any disagreement stops the script before
it writes. sympy takes about 20 ms per test at n = 97, which is why the
full list is made once and stored rather than remade on every run.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from reference import AUDIT_DEGREES, audit_candidates, rabin_irreducible, sympy_irreducible
EXACT_MAX_N = 41
SAMPLE = 20
SEED = 2026
OUT = Path(__file__).with_name("audit_hits.json")


def main() -> int:
    rng = random.Random(SEED)
    hits = {}
    for n in AUDIT_DEGREES:
        cands = list(audit_candidates(n))
        verdict = [rabin_irreducible(c) for c in cands]
        found = [c for c, v in zip(cands, verdict) if v]
        if n <= EXACT_MAX_N:
            checked = list(zip(cands, verdict))
        else:
            rejected = [c for c, v in zip(cands, verdict) if not v]
            checked = [(c, True) for c in rng.sample(found, min(SAMPLE, len(found)))]
            checked += [(c, False) for c in rng.sample(rejected, min(SAMPLE, len(rejected)))]
        for c, v in checked:
            if sympy_irreducible(c, n) != v:
                raise SystemExit(f"n={n} {c}: sympy disagrees with the Rabin test ({v})")
        hits[str(n)] = ";".join(" ".join(map(str, c[1:-1])) for c in found)
        print(f"n={n} candidates={len(cands)} irreducible={len(found)} "
              f"sympy-checked={len(checked)}", file=sys.stderr, flush=True)
    doc = {
        "command": "python3 perfbench/make_audit_hits.py",
        "reference": "Rabin's test over GF(2); sympy gf_irreducible_p re-decides every "
                     f"candidate up to n = {EXACT_MAX_N} and {SAMPLE} hits and {SAMPLE} "
                     f"non-hits per larger degree (seed {SEED})",
        "hits": hits,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
