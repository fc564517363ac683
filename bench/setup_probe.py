"""Set-up time of one workload in a fresh interpreter.

Prints the seconds spent in `import thetamod` plus the workload's warm-up
call of each operation kind.  Importing the benchmark's own modules between
the two is not counted.  Usage: python3 bench/setup_probe.py WORKLOAD
"""

import sys
import time

t0 = time.perf_counter()
import thetamod  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402

t2 = time.perf_counter()
workloads.WORKLOADS[sys.argv[1]].warm_up()
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
