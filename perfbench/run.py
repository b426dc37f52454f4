"""The dualpol benchmark.

Runs one workload in-process through the public CLI entry
``dualpol.cli.run_config(config, stream)``, with the CSV written to memory
as ``dualpol run`` would write it, for ``--seconds`` seconds, and checks
every row against the pinned reference (see workloads.py).

    python3 perfbench/run.py --workload mc_fig4 --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several fresh processes that import dualpol and build the workload's
scenario and BD preprocessors), ``run_s`` (median time of one
``run_config`` call), ``work_per_s`` (paired MC trials or DE sweep points
per second, at the median ``run_s``) and ``peak_rss_mb``. Times are in
reference seconds, which factor out the host's speed (see calibrate.py). ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
tracer.py instead, with the tracing overhead. Row failures go into the
result's ``attempted``/``failed`` counts. The last line of standard output is
the JSON result; the lines before it are the human-readable report. See
NOTES.md for why each workload exists and what each metric should move.
"""

import os
import sys

# One BLAS thread, fixed before numpy is first imported (through dualpol),
# so the compute threads are the trial pool's alone and never exceed nproc.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

from calibrate import REFERENCE_S, kernel_seconds  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, check_csv  # noqa: E402

#: Fresh set-up processes timed per run; one more runs first, untimed, so
#: the timed ones find the bytecode cache filled as a user's would be.
SETUP_REPEATS = 7
#: A run makes at least this many passes, even past ``--seconds``, unless
#: that would take more than twice ``--seconds``.
MIN_PASSES = 3

#: Unit of each per-layer statistic.
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "overlap": "ratio",
         "iterations": "count", "max_residual": "1", "per_trial": "count",
         "per_geometry": "count", "SWITCH": "fraction", "SWITCH_RAW": "fraction"}

#: Layers a workload must never reach (its design says so); a call is a
#: failed check, not a number to report.
PREDICTED_ZERO = {"mc_fig4": ("rmt.",), "de_sweep": ("channel.",)}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(name):
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), name]
    walls, kernels = [], []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(probe, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if done.returncode != 0:
            fail(f"set-up of {name} failed:\n{done.stderr}")
        wall, kernel = map(float, done.stdout.split()[-2:])
        walls.append(wall)
        kernels.append(kernel)
    del walls[0], kernels[0]
    return Timing(walls, kernels)


class Timing:
    """Wall times, each with the calibration kernel time measured next to it."""

    def __init__(self, walls=(), kernels=()):
        self.walls = list(walls)
        self.kernels = list(kernels)

    def add(self, wall, kernel):
        self.walls.append(wall)
        self.kernels.append(kernel)

    def wall_s(self):
        return statistics.median(self.walls)

    def reference_s(self):
        """Median in reference seconds (see calibrate.py)."""
        return statistics.median(w * REFERENCE_S / k
                                 for w, k in zip(self.walls, self.kernels))

    def kernel_ratio(self):
        """Median kernel time over REFERENCE_S: 1.2 means a host 20% slow."""
        return statistics.median(self.kernels) / REFERENCE_S

    def __len__(self):
        return len(self.walls)


def run_pass(cli, config):
    """One run_config call: (seconds, CSV text, error message or None)."""
    stream = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        cli.run_config(dict(config), stream)
    except Exception as exc:  # counted as failed rows, reported below
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, stream.getvalue(), error


class Passes:
    """Checked run_config passes of one workload.

    Every pass runs the same config, so every CSV must also equal the first
    pass's byte for byte: a traced pass that differs from an untraced one,
    or a rerun that differs, fails the rows that differ.
    """

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.first_csv = None
        self.messages = []
        self.flags = []

    def check(self, csv_text, error, traced=False):
        rows, failed, msg = check_csv(self.workload, self.seed, csv_text)
        if self.first_csv is None:
            self.first_csv = csv_text
            self.messages.append(msg)
        elif csv_text != self.first_csv:
            differ = sum(a != b for a, b in itertools.zip_longest(
                csv_text.splitlines(), self.first_csv.splitlines()))
            failed = max(failed, min(differ, rows))
            self.flag("traced CSV differs from the untraced CSV" if traced
                      else "CSV differs between passes of one config")
        if error:
            self.flag(f"run_config raised {error}")
        self.attempted += rows
        self.failed += failed

    def flag(self, message):
        """A failed check; the result reads correct = false."""
        if message not in self.flags:
            self.flags.append(message)


def environment(workload, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "dualpol_threads": os.environ["DUALPOL_THREADS"],
        "workload": workload.name,
        "seed": seed,
    }


def _done(start, seconds, passes):
    spent = time.perf_counter() - start
    return spent >= seconds and (passes >= MIN_PASSES or spent >= 2 * seconds)


def run_untraced(cli, workload, config, seconds, passes):
    """Passes until ``seconds`` are spent, each timed between two runs of the
    calibration kernel on the workload's thread count; a pass is scaled by
    the mean of its two neighbours."""
    threads = workload.dualpol_threads()
    timing = Timing()
    start = time.perf_counter()
    kernel_before = kernel_seconds(threads)
    while True:
        elapsed, csv_text, error = run_pass(cli, config)
        kernel_after = kernel_seconds(threads)
        passes.check(csv_text, error)
        timing.add(elapsed, 0.5 * (kernel_before + kernel_after))
        kernel_before = kernel_after
        if _done(start, seconds, len(timing)):
            break
    run_s = timing.reference_s()
    metrics = {
        "run_s": (run_s, "s"),
        "work_per_s": (workload.work_per_pass / run_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = [f"{len(timing)} passes of {workload.work_per_pass} {workload.work_name}; "
              f"median wall {timing.wall_s():.4f} s per pass, calibration kernel at "
              f"{timing.kernel_ratio():.3f}x its reference time"]
    return metrics, report


def run_traced(cli, workload, config, seconds, passes, seed):
    from tracer import EXACT_COUNTS, Tracer, layer_metrics

    plain, traced, layers, csv_bytes = [], [], [], None
    first_tracer = None
    start = time.perf_counter()
    while True:
        elapsed, csv_text, error = run_pass(cli, config)
        passes.check(csv_text, error)
        plain.append(elapsed)
        with Tracer() as tracer:
            elapsed, traced_csv, error = run_pass(cli, config)
        passes.check(traced_csv, error, traced=True)
        traced.append(elapsed)
        layers.append(layer_metrics(tracer))
        csv_bytes = len(traced_csv.encode("utf-8"))
        first_tracer = first_tracer or tracer
        if _done(start, seconds, len(traced) + 1):
            break

    report = [f"{len(traced)} traced and {len(plain)} untraced passes"]
    counts = set(EXACT_COUNTS)
    unsteady = [k for k in EXACT_COUNTS if len({m[k] for m in layers}) > 1]
    report.append(f"exact counts: {len(counts) - len(unsteady)}/{len(counts)} "
                  f"repeat exactly over {len(layers)} traced passes")
    for key in unsteady:
        passes.flag(f"count {key} varies: {sorted({m[key] for m in layers})}")
    for prefix in PREDICTED_ZERO.get(workload.name, ()):
        for key, value in layers[0].items():
            if key.startswith(prefix) and key.endswith(".calls") and value:
                passes.flag(f"predicted zero {key} = {value}")

    metrics = {}
    for key in layers[0]:
        value = layers[0][key] if key in counts else statistics.median(
            m[key] for m in layers)
        metrics[key] = (value, UNITS[key.rsplit(".", 1)[1]])
    metrics["cli.csv_bytes"] = (csv_bytes, "bytes")
    # Each traced pass runs right after an untraced one, so the median of
    # the pairwise differences is less exposed to slow host phases.
    overhead = statistics.median(t - p for t, p in zip(traced, plain))
    metrics["trace.run_s_untraced"] = (statistics.median(plain), "s")
    metrics["trace.run_s_traced"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    report.append(f"tracing overhead {overhead:+.4f} s per pass (median of "
                  f"traced minus untraced over {len(traced)} adjacent pairs)")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.jsonl")
    first_tracer.dump(path)
    report.append(f"{len(first_tracer.spans)} spans of the first traced pass "
                  f"written to {os.path.relpath(path, ROOT)}")
    return metrics, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dualpol", "cli.py")):
        fail(f"no dualpol sources under {SRC}; run from a checkout of the repository")
    workload = WORKLOADS[args.workload]
    os.environ["DUALPOL_THREADS"] = str(workload.dualpol_threads())

    setup = None if args.trace else measure_setup(workload.name)
    sys.path.insert(0, SRC)
    import dualpol.cli as cli

    config = workload.config(args.seed)
    passes = Passes(workload, args.seed)
    if args.trace:
        from tracer import TracerError

        try:
            metrics, report = run_traced(cli, workload, config, args.seconds,
                                         passes, args.seed)
        except TracerError as exc:
            fail(str(exc))
    else:
        metrics, report = run_untraced(cli, workload, config, args.seconds, passes)
        metrics["setup_s"] = (setup.reference_s(), "s")
        report.append(f"set-up: median wall {setup.wall_s():.4f} s over {len(setup)} "
                      f"fresh processes, calibration kernel at {setup.kernel_ratio():.3f}x")

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(environment(workload, args.seed)))
    for line in passes.messages + report:
        print("  " + line)
    for line in passes.flags:
        print("  FAILED CHECK: " + line)
    if not args.trace:
        names = {"work_per_s": workload.work_unit}
        for key in ("setup_s", "run_s", "work_per_s", "peak_rss_mb"):
            value, unit = metrics[key]
            print(f"  {names.get(key, key):<16} {value:12.4f} {unit}")
    fail_frac = passes.failed / passes.attempted
    print(f"  {'fail_frac':<16} {fail_frac:12.4f} ({passes.failed}/{passes.attempted} rows)")
    result = {
        "correct": passes.failed == 0 and not passes.flags,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
