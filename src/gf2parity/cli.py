"""Command-line frontend.

Each subcommand wraps one library capability with deterministic output:
the same argv (and seed, where one applies) always produces the same
bytes on stdout. Exit codes: 0 success, 1 usage or internal error, 2
audit violation, fuzz counterexample or parity disagreement.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import gf2poly
from . import intres
from . import swan  # search and lemma_lab load in the commands that run them
from .swan import EVEN, ODD


def _cmd_parity(args) -> int:
    f = gf2poly.parse_poly(args.poly)
    predicted = swan.stickelberger_parity(f)
    t = gf2poly.count_distinct_irreducible_factors(f)
    observed = ODD if t % 2 else EVEN
    print(f"predicted={predicted} observed={observed} t={t}")
    if predicted == observed:
        return 0
    # both answers are exact, so only a defect gets here
    print(f"error: predicted parity {predicted} disagrees with the factor count", file=sys.stderr)
    return 2


def _cmd_factors(args) -> int:
    parts = gf2poly.squarefree_decomposition(gf2poly.parse_poly(args.poly))
    counts = [(gf2poly.count_distinct_irreducible_factors(g), e) for g, e in parts]
    print(f"distinct={sum(t for t, _ in counts)} multiplicity={sum(t * e for t, e in counts)}")
    return 0


def _cmd_disc(args) -> int:
    f = gf2poly.parse_poly(args.poly)
    d = intres.discriminant_int(swan.lift_01(f))
    print(f"disc={d} mod8={d % 8}")
    return 0


def _cmd_predict(args) -> int:
    spec = swan.parse_support_spec(args.spec)
    print(f"predicted={swan.theorem_parity(spec.n, spec.support)}")
    return 0


def _cmd_verify(args) -> int:
    spec = swan.parse_support_spec(args.spec)
    report = swan.verify_theorem_instance(spec.n, spec.support)
    print(report.to_json_line())
    return 0 if report.agree else 2


def _cmd_trace(args) -> int:
    f = gf2poly.parse_poly(args.poly)
    spectrum = gf2poly.trace_spectrum(f)
    print("spectrum=" + ",".join(map(str, spectrum)))
    print("I=" + ",".join(str(i) for i, b in enumerate(spectrum) if b))
    return 0


def _cell(name: str, value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return (";" if name == "violations" else " ").join(map(str, value))
    return str(value)


def _print_records(kind, records, fmt: str) -> None:
    """One line per record: its json, or its fields in order as csv or an aligned table."""
    if fmt == "jsonl":
        for r in records:
            print(r.to_json_line())
        return
    rows = ([_cell(name, v) for name, v in zip(kind._fields, r)] for r in records)
    if fmt == "csv":
        import csv  # here, so that the other formats and commands do not load it

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(kind._fields)
        writer.writerows(rows)
        return
    header = kind._fields
    if kind.__name__ == "SearchRecord":
        # the polynomial stands in for its degree and exponents
        header = ("poly", *header[2:])
        rows = ([gf2poly.format_poly(r.poly()), *row[2:]] for r, row in zip(records, rows))
    rows = [header, *([c or "-" for c in row] for row in rows)]
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _cmd_search(args) -> int:
    from . import search

    mod8 = None
    if args.mod8 is not None:
        tokens = args.mod8.split(",")
        if not all(map(gf2poly.is_exponent_text, tokens)):
            raise ValueError(f"bad --mod8 '{args.mod8}', "
                             "expected comma-separated residues from {1,3,5,7}")
        mod8 = frozenset(map(int, tokens))
    q = search.SearchQuery(
        n_lo=args.n_lo, n_hi=args.n_hi, shape=args.shape,
        exponents=args.exponents, m1_bound=args.m1_bound, mod8=mod8)
    records = search.scan(q, full_check=args.full_check, jobs=args.jobs)
    _print_records(search.SearchRecord, records, args.format)
    print(f"{len(records)} records", file=sys.stderr)
    return 0


def _cmd_audit(args) -> int:
    from . import search

    report = search.corollary_audit(args.n_lo, args.n_hi, jobs=args.jobs)
    _print_records(search.AuditRow, report.rows, args.format)
    print(f"{len(report.rows)} degrees, {report.candidates} candidates",
          file=sys.stderr)
    return 0 if report.ok else 2


_LEMMA_BY_FLAG = {"d": "D", "l1a": "L1a", "l1b": "L1b", "l2": "L2",
                  "general": "GENERAL"}


def _cmd_lemma_fuzz(args) -> int:
    from . import lemma_lab

    if args.replay:
        inst = lemma_lab.read_replay(args.replay)
        if inst.lemma_id != _LEMMA_BY_FLAG[args.lemma]:
            raise ValueError(f"--lemma {args.lemma} names {_LEMMA_BY_FLAG[args.lemma]}, "
                             f"but the replay holds a {inst.lemma_id} instance")
        if lemma_lab.recheck(inst):
            print(f"replay ok lemma={inst.lemma_id} seed={inst.seed}")
            return 0
        print(f"replay counterexample lemma={inst.lemma_id} seed={inst.seed}")
        return 2
    if args.trials is None or args.seed is None:
        raise ValueError("--trials and --seed are required unless --replay is given")
    lemma_id = _LEMMA_BY_FLAG[args.lemma]
    result = lemma_lab.run_fuzz(lemma_id, args.trials, args.seed,
                                n=args.n, s=args.s, m=args.m, jobs=args.jobs)
    if result.ok:
        print(f"ok lemma={lemma_id} trials={result.trials} "
              f"checked={result.checked} seed={args.seed}")
        return 0
    lemma_lab.write_replay(args.replay_out, result.failure)
    print(f"counterexample lemma={lemma_id} index={result.checked - 1} "
          f"seed={result.failure.seed} replay={args.replay_out}")
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gf2parity",
        description="Factor-count parity tools for binary polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parity", help="predicted vs brute-force factor parity")
    p.add_argument("poly", help="polynomial, e.g. x^21+x^7+1 or 21,7,0 or 0x10009")
    p.set_defaults(func=_cmd_parity)

    p = sub.add_parser("factors", help="distinct and multiplicity factor counts")
    p.add_argument("poly")
    p.set_defaults(func=_cmd_factors)

    p = sub.add_parser("disc", help="integer discriminant of the 0/1 lift")
    p.add_argument("poly")
    p.set_defaults(func=_cmd_disc)

    p = sub.add_parser("predict", help="parity from the degree residue alone")
    p.add_argument("--spec", required=True, help='support spec, e.g. "n=13;S=1,9"')
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("verify", help="full per-instance identity report")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("trace", help="trace spectrum of the root powers")
    p.add_argument("poly")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("search", help="classify candidate polynomials")
    p.add_argument("--n-lo", type=int, required=True)
    p.add_argument("--n-hi", type=int, required=True)
    p.add_argument("--shape", choices=("trinomial", "pentanomial", "any-support"),
                   default="trinomial")
    p.add_argument("--exponents", choices=("all", "odd-only"), default="all")
    p.add_argument("--m1-bound",
                   choices=("none", "below-n-over-3", "at-least-n-over-3"),
                   default="none")
    p.add_argument("--mod8", default=None,
                   help="comma-separated residues from {1,3,5,7}")
    p.add_argument("--full-check", action="store_true",
                   help="factor even-parity candidates instead of pruning")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("jsonl", "table", "csv"), default="jsonl")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("audit", help="no small-exponent irreducibles at n=±3 mod 8")
    p.add_argument("--n-lo", type=int, required=True)
    p.add_argument("--n-hi", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("jsonl", "table", "csv"), default="jsonl")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("lemma-fuzz", help="randomized determinant lemma checks")
    p.add_argument("--lemma", choices=sorted(_LEMMA_BY_FLAG), required=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, help="campaign seed; no wall-clock default")
    p.add_argument("--n", type=int, help="pin the degree parameter")
    p.add_argument("--s", type=int, help="pin the shift parameter (L1 forms)")
    p.add_argument("--m", type=int, help="pin the block size (D and L2)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--replay", help="re-check a stored instance instead of fuzzing")
    p.add_argument("--replay-out", default="replay.json",
                   help="where to dump a counterexample")
    p.set_defaults(func=_cmd_lemma_fuzz)

    return parser


# one parser per process: building it costs about as much as a whole parity
# query, and parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit 2 for usage errors; the contract reserves 2
        # for violations, so usage problems map to 1 (help stays 0)
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
