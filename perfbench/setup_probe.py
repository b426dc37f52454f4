"""Time one fresh set-up of a workload: import dualpol, build the scenario and
its BD preprocessors. Prints the wall seconds taken, then the seconds of the
calibration kernel run right after it.

Usage: python3 perfbench/setup_probe.py <workload>   (with src/ on PYTHONPATH)
"""

import sys
import time

from workloads import setup_scenario

if __name__ == "__main__":
    start = time.perf_counter()
    setup_scenario(sys.argv[1])
    wall = time.perf_counter() - start

    from calibrate import kernel_seconds

    print(repr(wall), repr(kernel_seconds()))
