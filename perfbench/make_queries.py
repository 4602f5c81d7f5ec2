"""Make the `query` workload's polynomial list and its sympy reference counts.

    python3 perfbench/make_queries.py

writes perfbench/queries.json: ROUNDS rounds drawn with SEED. One round
holds a trinomial and a pentanomial at each degree in DEGREES, so every
round has the same mix. Every polynomial is distinct and squarefree over
GF(2). The reference count t (distinct irreducible factors) comes from
reference.sympy_factor_count, sympy's distinct-degree factorisation. That
takes about 20 s per polynomial at degree 511, which is why the list is
made once and stored rather than checked on every run.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_sqf_p

from reference import dense, sympy_factor_count

DEGREES = (127, 255, 511)
SEED = 2026
ROUNDS = 32  # 192 queries: more than a 20 s run gets through at this commit
OUT = Path(__file__).with_name("queries.json")


def text(exponents):
    return "+".join("1" if e == 0 else "x" if e == 1 else f"x^{e}"
                    for e in exponents)


def draw(rng, n, middle, seen):
    """A fresh squarefree x^n + (middle distinct terms) + 1, exponents descending."""
    while True:
        mids = sorted(rng.sample(range(1, n), middle), reverse=True)
        exps = (n, *mids, 0)
        if exps not in seen and gf_sqf_p(dense(exps, n), 2, ZZ):
            seen.add(exps)
            return exps


def main() -> int:
    rng = random.Random(SEED)
    seen: set = set()
    rounds = []
    for r in range(ROUNDS):
        row = []
        for middle in (1, 3):
            for n in DEGREES:
                exps = draw(rng, n, middle, seen)
                row.append({"degree": n, "poly": text(exps),
                            "t": sympy_factor_count(exps, n)})
                print(f"round {r} degree {n} terms {middle + 2} t={row[-1]['t']}",
                      file=sys.stderr, flush=True)
        rounds.append(row)
    doc = {
        "command": "python3 perfbench/make_queries.py",
        "seed": SEED,
        "reference": "sympy gf_ddf_zassenhaus over GF(2): t = sum deg(g_d)/d",
        "rounds": rounds,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
