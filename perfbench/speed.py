"""The machine's speed, read from a fixed reference task timed around each operation.

On a shared host the same operation can take twice as long from one second
to the next, in phases that last from a fraction of a second to minutes,
with CPU time equal to wall time (see README.md, "Host noise"). A raw timing
then measures the phase a run fell in more than the program. So the loop
times a reference task, which uses only the standard library and none of the
program, right before every operation and once after the last, and each
operation's latency is scaled to the reference speed, the speed at which the
reference task takes REFERENCE_MS: it is multiplied by REFERENCE_MS over the
mean of the reference timings just before and just after it. A change to the
program changes the operations and not the reference task, so it shows in
full.
"""

from __future__ import annotations

import statistics
import time
from array import array

from reference import rabin_irreducible

REFERENCE_MS = 3.0  # about the reference task's median time on the machine of README.md's figures

# audit-like sparse polynomials: Rabin's test runs n squarings of a big int
_REF_POLYS = ((97, 31, 29, 13, 7, 0), (95, 27, 11, 5, 0), (89, 25, 19, 3, 1, 0),
              (83, 23, 17, 9, 0), (79, 21, 13, 1, 0), (71, 23, 17, 9, 5, 0))


def reference_task() -> int:
    """Fixed work like the program's: big-int shifts and xors in Python loops,
    then list, dict and sort traffic on 3,000 integers from a fixed LCG."""
    out = sum(map(rabin_irreducible, _REF_POLYS))
    x, xs = 1, []
    for _ in range(3000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        xs.append(x)
    table: dict[int, int] = {}
    for v in xs:
        table[v & 1023] = table.get(v & 1023, 0) ^ v
    xs.sort()
    return out + len(table) + xs[0]


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_task()
    return time.perf_counter() - t0


def scale_factor(reference_seconds) -> float:
    """REFERENCE_MS over the median of reference timings taken around a timing."""
    return REFERENCE_MS / 1e3 / statistics.median(reference_seconds)


def time_scaled(fn) -> tuple[float, float]:
    """Run fn once; return its seconds and the scale factor from three
    reference timings on each side (for one-off timings such as set-up)."""
    around = [time_reference() for _ in range(3)]
    t0 = time.perf_counter()
    fn()
    seconds = time.perf_counter() - t0
    around += [time_reference() for _ in range(3)]
    return seconds, scale_factor(around)


class SpeedMeter:
    """Reference timings: one before each operation of a run and one after the last."""

    def __init__(self):
        self.seconds = array("d")

    def sample(self) -> None:
        self.seconds.append(time_reference())

    def factor(self, i: int) -> float:
        """Scale factor for operation i, which ran between samples i and i + 1."""
        return scale_factor(self.seconds[i:i + 2])

    def run_factor(self) -> float:
        """Scale factor for the run as a whole."""
        return scale_factor(self.seconds)
