"""Time one set-up in this fresh interpreter; print its seconds and the speed factor.

    python3 perfbench/probe.py <workload>

Set-up is `import gf2parity` (numpy included) plus the workload's warm-up:
the program's one-time work before the first timed operation. Interpreter
start and the benchmark's input generation are not in it. The speed factor
(speed.py) comes from reference timings right before and after it. run.py calls
this several times per run and reports the median scaled set-up as setup_s.
"""

import sys
from pathlib import Path

import speed  # the reference task; imports no program code

sys.path.insert(0, str(Path.cwd() / "src"))


def set_up():
    import workloads  # imports gf2parity: timed on purpose

    workloads.WORKLOADS[sys.argv[1]].warm_up()


print(*speed.time_scaled(set_up))
