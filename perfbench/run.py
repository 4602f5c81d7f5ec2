"""Benchmark entry point: one workload, in this process, one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the program is imported from ./src.
--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics of a traced run (see tracing.py). The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and a copy, with the raw samples, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
RESULTS = HERE / "results"
WORKLOADS = ("sweep", "audit", "fuzz", "query")
SETUP_PROBES = 11  # set-ups timed in fresh interpreters, plus one in this process

# one client and no threads: numpy's BLAS pool would otherwise start one per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def percentile(sorted_values, p: float) -> float:
    """Smallest sample with more than a share p of the samples at or below it."""
    return sorted_values[min(len(sorted_values) - 1, math.floor(p * len(sorted_values)))]


def probe_setup(workload: str) -> tuple[float, float]:
    """Set-up seconds measured in a fresh interpreter (its start excluded), and
    the speed factor measured there right after."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    seconds, factor = map(float, done.stdout.split()[-2:])
    return seconds, factor


class Loop:
    """Closed loop, one client: each operation starts when the last has ended.

    Each output is checked (untimed) as soon as its operation returns and is
    then dropped, so memory does not grow with the number of operations.
    The speed meter times the reference task before each operation;
    scaled() gives each operation's latency at the reference speed.
    """

    def __init__(self, wl):
        self.wl = wl
        self.latencies = array("d")
        self.meter = speed.SpeedMeter()
        self.errors: list[str] = []
        self.problems: list[str] = []

    def round(self, run_op) -> tuple[float, float]:
        """Run the next whole round; return its operations' seconds and units of work."""
        seconds = units = 0.0
        for _ in range(self.wl.round_size):
            i = len(self.latencies)
            self.meter.sample()
            t0 = time.perf_counter()
            try:
                out = run_op(i)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = None
                self.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            self.latencies.append(dt)
            seconds += dt
            if out is not None:
                self.problems.extend(self.wl.check_op(i, out))
                units += self.wl.units(out)
        return seconds, units

    def scaled(self) -> list[float]:
        """Each operation's seconds at the reference speed."""
        self.meter.sample()  # the sample after the last operation
        return [dt * self.meter.factor(i) for i, dt in enumerate(self.latencies)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gf2parity benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gf2parity" / "__init__.py").is_file():
        print("error: run from the root of a gf2parity checkout (no src/gf2parity here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    setup = [] if args.trace else [probe_setup(args.workload) for _ in range(SETUP_PROBES)]

    def set_up():
        import workloads

        workloads.WORKLOADS[args.workload].warm_up()

    setup.append(speed.time_scaled(set_up))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    max_ops = wl.max_ops if wl.max_ops is not None else 10**9
    loop = Loop(wl)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "reference_ms": speed.REFERENCE_MS}

    if not args.trace:
        elapsed = 0.0
        while len(loop.latencies) + wl.round_size <= max_ops:
            elapsed += loop.round(wl.op)[0]
            if elapsed >= args.seconds and len(loop.latencies) >= workloads.MIN_OPS:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        scaled = loop.scaled()
        lat = sorted(scaled)
        metrics = {
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "op_p50_ms": (percentile(lat, 0.5) * 1e3, "ms"),
            "op_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
            "setup_s": (statistics.median(s * f for s, f in setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        record.update(setup_samples=setup,
                      latencies_ms=[v * 1e3 for v in loop.latencies],
                      scaled_ms=[v * 1e3 for v in scaled],
                      reference_samples_ms=[v * 1e3 for v in loop.meter.seconds])
    else:
        metrics = traced_run(args, wl, loop, max_ops, record)

    problems = loop.problems + wl.finish(random.Random(args.seed))
    result = {
        "correct": not problems and not loop.errors,
        "attempted": len(loop.latencies),
        "failed": len(loop.errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for p in (loop.errors + problems)[:20]:
        print(f"problem: {p}", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(record, result=result, errors=loop.errors, problems=problems)) + "\n")
    print(json.dumps(result))
    return 0


def traced_run(args, wl, loop, max_ops, record):
    """Per-layer metrics: rounds alternate untraced and traced, in equal numbers.

    Alternating cancels drift between the two halves, so the difference in
    scaled time per operation is the tracing overhead. Span times are scaled
    by the run's median reference timing.
    """
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install(workloads.gf2parity)
    spent = [0.0, 0.0]
    elapsed = units = 0.0
    ops = rounds = 0
    while len(loop.latencies) + 2 * wl.round_size <= max_ops:
        traced = rounds % 2
        tracer.set_active(bool(traced))
        seconds, round_units = loop.round(
            (lambda i: tracer.run_op(i, wl.op, i)) if traced else wl.op)
        elapsed += seconds
        if traced:
            ops += wl.round_size
            units += round_units
        rounds += 1
        if traced and elapsed >= args.seconds:
            break
    tracer.set_active(False)
    scaled = loop.scaled()
    for r in range(rounds):
        spent[r % 2] += sum(scaled[r * wl.round_size:(r + 1) * wl.round_size])
    factor = loop.meter.run_factor()
    layer, absent = tracer.layer_metrics(ops)
    metrics = {name: (v * factor if name.endswith("ms") else v,
                      "ms/op" if name.endswith("ms") else "count/op")
               for name, v in layer.items()}
    metrics.update(workload_layer_metrics(args.workload, units / ops, layer, factor))
    metrics["trace.overhead_pct"] = (spent[1] / spent[0] - 1) * 100, "%"
    for name in absent:
        print(f"absent: {name} (its metrics read 0)", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.json",
                 dict(record, ops=ops, absent=absent))
    return metrics


def workload_layer_metrics(name, units_per_op, layer, factor):
    """Per-layer metrics read from the workload's outputs (units) and inputs."""
    candidates = enumerate_us = trials = 0.0
    if name == "audit":
        import workloads

        candidates = units_per_op
        q = [workloads.search.SearchQuery(n, n, shape="any-support", exponents="odd-only",
                                          m1_bound="below-n-over-3")
             for n in workloads.AUDIT_DEGREES]
        count = 0
        t0 = time.perf_counter()
        for query in q:
            for _ in workloads.search.enumerate_candidates(query):
                count += 1
        enumerate_us = (time.perf_counter() - t0) / count * 1e6 * factor
    if name == "fuzz":
        trials = units_per_op
    ratio = layer["gf2poly.irreducible.calls"] / candidates if candidates else 0.0
    return {
        "search.candidates": (candidates, "count/op"),
        "search.screen_pass_ratio": (ratio, "ratio"),
        "search.enumerate.us_per_candidate": (enumerate_us, "us"),
        "lemma_lab.trials": (trials, "count/op"),
    }


if __name__ == "__main__":
    sys.exit(main())
