"""Write each workload's reference CSV at the default seed.

    python3 perfbench/pin_reference.py [workload ...]

Run it only on a commit whose output is known good: the benchmark counts
every row that differs from these files as failed.
"""

import io
import os
import sys

from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(names):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from dualpol.cli import run_config

    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        os.environ["DUALPOL_THREADS"] = str(workload.dualpol_threads())
        stream = io.StringIO()
        run_config(workload.config(DEFAULT_SEED), stream)
        with open(workload.reference_path(), "w", encoding="utf-8", newline="") as fh:
            fh.write(stream.getvalue())
        print(f"wrote {os.path.relpath(workload.reference_path(), ROOT)}")


if __name__ == "__main__":
    main(sys.argv[1:])
