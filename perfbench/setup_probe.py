"""One set-up sample in a fresh interpreter, printed in seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

Times what run.py times as set-up: importing the package (numpy included)
and making the workload's inputs. It writes no file. The caller sets the
BLAS thread pins.
"""

import sys
import time
from pathlib import Path

from workloads import WORKLOADS, load_program

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    root = Path(__file__).resolve().parent.parent
    t0 = time.perf_counter()
    load_program(root)
    WORKLOADS[workload](root, root / ".perfbench_tmp" / "probe", seed)
    print(time.perf_counter() - t0)
