"""Spans around the public functions of each gf2parity module (traced runs only).

install() finds every public function of the modules in MODULES wherever
the package holds a reference to it: the module attribute, the names other
package modules imported with `from ... import`, and values of module-level
dicts (lemma_lab's checker table). set_active(True) puts a wrapper at each
of those places, so calls made inside the package are caught too, and
set_active(False) puts the originals back. Each wrapped call records a span
(operation, span id, parent span id, name, start, end); spans are kept in
memory up to MAX_SPANS and written out at the end, while the per-function
counts and times cover every call. Self time is a span's duration minus the
time its direct child spans cover.

The untraced runs never import this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("gf2poly", "intres", "swan", "search", "lemma_lab", "cli")
MAX_SPANS = 50_000

# per-layer metric -> (functions it sums over, statistic)
LAYER_METRICS = {
    "gf2poly.factor_count.calls": (("gf2poly.count_distinct_irreducible_factors",), "calls"),
    "gf2poly.factor_count.ms": (("gf2poly.count_distinct_irreducible_factors",), "ms"),
    "gf2poly.irreducible.calls": (("gf2poly.is_irreducible",), "calls"),
    "gf2poly.mult_count.ms": (("gf2poly.count_factors_with_multiplicity",), "ms"),
    "gf2poly.squarefree.ms": (("gf2poly.is_squarefree",), "ms"),
    "gf2poly.parse.ms": (("gf2poly.parse_poly",), "ms"),
    "intres.sylvester.calls": (("intres.sylvester",), "calls"),
    "intres.sylvester.ms": (("intres.sylvester",), "ms"),
    "intres.sylvester.entries": (("intres.sylvester",), "entries"),
    "intres.det_mod8.calls": (("intres.det_mod8",), "calls"),
    "intres.det_mod8.ms": (("intres.det_mod8",), "ms"),
    "intres.det_exact.calls": (("intres.det_exact",), "calls"),
    "intres.det_exact.ms": (("intres.det_exact",), "ms"),
    "intres.resultant.ms": (("intres.resultant",), "ms"),
    "swan.verify.self_ms": (("swan.verify_theorem_instance",), "self_ms"),
    "swan.parity.self_ms": (("swan.stickelberger_parity",), "self_ms"),
    "search.audit.self_ms": (("search.corollary_audit",), "self_ms"),
    "lemma_lab.generate.ms": (("lemma_lab.build_instance",), "ms"),
    "lemma_lab.check.self_ms": (("lemma_lab.check_d", "lemma_lab.check_l1",
                                 "lemma_lab.check_l2", "lemma_lab.check_general"), "self_ms"),
    "cli.main.self_ms": (("cli.main",), "self_ms"),
}


class Tracer:
    """Per-function counts and times, and the spans, of one traced run."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, ns, self ns, entries]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.frames: list[list[int]] = []  # [span id, child ns] per open span
        self.next_id = 0
        self.op = -1
        self.wrapped: list[str] = []
        self.patches: list[tuple] = []  # (namespace, key, original, wrapper)

    def _record(self, name, t0, t1, child_ns, frame_id):
        d = t1 - t0
        if self.frames:
            self.frames[-1][1] += d
            parent = self.frames[-1][0]
        else:
            parent = None
        if len(self.spans) < MAX_SPANS:
            self.spans.append((self.op, frame_id, parent, name, t0, t1))
        else:
            self.dropped += 1
        return d, d - child_ns

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0, 0, 0])
        counts_entries = name == "intres.sylvester"  # matrix entries built
        frames = self.frames
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.next_id += 1
            frame = [self.next_id, 0]
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                total, own = self._record(name, t0, t1, frame[1], frame[0])
                stats[0] += 1
                stats[1] += total
                stats[2] += own
            if counts_entries:
                stats[3] += result.n_rows * result.n_cols
            return result

        return wrapper

    def install(self, package) -> None:
        """Find every public function of MODULES at every reference the package holds.

        The wrappers take effect with set_active(True).
        """
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or isinstance(fn, type) or not callable(fn)
                        or getattr(fn, "__module__", None) != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
                self.wrapped.append(f"{short}.{attr}")
        for mod in (package, *modules):
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                if id(value) in wrappers:
                    self.patches.append((namespace, attr, *wrappers[id(value)]))
                elif isinstance(value, dict):
                    self.patches.extend((value, key, *wrappers[id(v)])
                                        for key, v in value.items() if id(v) in wrappers)

    def set_active(self, active: bool) -> None:
        """Swap the wrappers in (True) or the original functions back (False)."""
        for namespace, key, original, wrapper in self.patches:
            namespace[key] = wrapper if active else original

    def run_op(self, index, fn, *args):
        """Run one benchmark operation under a root span named "op"."""
        self.op = index
        self.next_id += 1
        frame = [self.next_id, 0]
        self.frames.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter_ns()
            self.frames.pop()
            self._record("op", t0, t1, frame[1], frame[0])

    def layer_metrics(self, ops: int) -> tuple[dict[str, float], list[str]]:
        """Per-operation value of every LAYER_METRICS entry, and absent functions."""
        absent = sorted({f for funcs, _ in LAYER_METRICS.values() for f in funcs
                         if f not in self.stats})
        col = {"calls": 0, "ms": 1, "self_ms": 2, "entries": 3}
        out = {}
        for metric, (funcs, stat) in LAYER_METRICS.items():
            total = sum(self.stats[f][col[stat]] for f in funcs if f in self.stats)
            if stat in ("ms", "self_ms"):
                total /= 1e6
            out[metric] = total / ops
        return out, absent

    def write(self, path, header: dict) -> None:
        doc = dict(header)
        doc["wrapped"] = self.wrapped
        doc["functions"] = {name: {"calls": s[0], "ms": s[1] / 1e6, "self_ms": s[2] / 1e6}
                            for name, s in sorted(self.stats.items()) if s[0]}
        doc["spans_kept"] = len(self.spans)
        doc["spans_dropped"] = self.dropped
        doc["span_fields"] = ["op", "id", "parent", "name", "start_ns", "end_ns"]
        doc["spans"] = self.spans
        path.write_text(json.dumps(doc) + "\n")
