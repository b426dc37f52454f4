"""Outside-in layer tracer for dualpol.

Each traced function is replaced, for the duration of a traced pass, under
every name its callers look it up by (``dualpol.metrics.build_all`` is the
name ``run_paired`` calls, not ``dualpol.precode.build_all``). The wrapper
records one span per call: name, start, end and the id of the enclosing
span. Spans stay in memory; ``layer_metrics`` reduces them and ``dump``
writes them out when the benchmark ends. Nothing in ``src/`` changes.

A name that has vanished from the program raises ``TracerError`` at
install, so a renamed function can never read as a silent zero.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

#: layer name -> the (module, attribute) names it is looked up by. An
#: attribute "Class.method" wraps the method on the class.
TARGETS = {
    "cli.run_config": [("dualpol.cli", "run_config")],
    "scenario.make_scenario": [("dualpol.cli", "make_scenario")],
    "scene3d.make_scenario_3d": [("dualpol.scene3d", "make_scenario_3d")],
    "corrstats.one_ring_covariance": [
        ("dualpol.scenario", "one_ring_covariance"),
        ("dualpol.scene3d", "one_ring_covariance"),
        ("dualpol.corrstats", "one_ring_covariance"),
    ],
    "corrstats.elevation_covariance": [
        ("dualpol.scene3d", "elevation_covariance")],
    "metrics.run_paired": [("dualpol.cli", "run_paired"),
                           ("dualpol.scene3d", "run_paired")],
    "precode.build_preprocessors": [
        ("dualpol.metrics", "build_preprocessors"),
        ("dualpol.rmt", "build_preprocessors"),
        ("dualpol.precode", "build_preprocessors"),
    ],
    "channel.draw_channel": [("dualpol.metrics", "draw_channel")],
    "channel.draw_mismatched_channel": [
        ("dualpol.metrics", "draw_mismatched_channel")],
    "channel.h_hat": [("dualpol.channel", "GroupChannel.h_hat")],
    "precode.build_all": [("dualpol.metrics", "build_all")],
    "precode.rzf_precoder": [("dualpol.precode", "rzf_precoder")],
    "metrics.sinr_bd": [("dualpol.metrics", "sinr_bd")],
    "metrics.sinr_bds": [("dualpol.metrics", "sinr_bds")],
    "rmt.asym_bd": [("dualpol.rmt", "asym_bd")],
    "rmt.asym_bds": [("dualpol.rmt", "asym_bds")],
    "rmt.solve_fixed_point": [("dualpol.rmt", "solve_fixed_point")],
}

SWITCH_SCHEMES = ("SWITCH", "SWITCH_RAW")


class TracerError(RuntimeError):
    """A traced name is missing or not callable."""


def _resolve(module_name, attr):
    try:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
    except (ImportError, AttributeError) as exc:
        raise TracerError(f"traced name {module_name}.{attr} has vanished: {exc}") from exc
    if not callable(original):
        raise TracerError(f"traced name {module_name}.{attr} is not callable")
    return owner, leaf, original


class Tracer:
    """Records spans and per-call observations while installed."""

    def __init__(self):
        self.spans = []  # (span id, parent id or 0, layer name, start, end)
        self.observed = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._patches = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A pool thread's first span belongs to the span the main thread is
        # blocked in (run_paired waiting on its trial pool).
        main = self._main_stack
        return main[-1] if main else 0

    def _wrap(self, layer, original):
        observe = _OBSERVERS.get(layer)

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, layer, start, end))
            if observe is not None:
                self.observed[layer].append(observe(args, kwargs, result))
            return result

        traced._perfbench_layer = layer
        return traced

    def __enter__(self):
        try:
            for layer, names in TARGETS.items():
                for module_name, attr in names:
                    owner, leaf, original = _resolve(module_name, attr)
                    if getattr(original, "_perfbench_layer", None):
                        raise TracerError(f"{module_name}.{attr} is already traced")
                    self._patches.append((owner, leaf, original))
                    setattr(owner, leaf, self._wrap(layer, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()

    def _restore(self):
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    def dump(self, path):
        """Write the spans as JSON lines: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _observe_fixed_point(args, kwargs, result):
    return (result.iterations, result.residual)


def _observe_run_paired(args, kwargs, result):
    n_trials = kwargs["n_trials"] if "n_trials" in kwargs else args[2]
    picks = {m: round(result[m].extras["bds_fraction"] * n_trials)
             for m in SWITCH_SCHEMES if m in result}
    return (n_trials, picks)


def _observe_preprocessors(args, kwargs, result):
    scenario = kwargs["scenario"] if "scenario" in kwargs else args[0]
    # The covariance tuple is shared by every with_chi/with_power_db copy of
    # a scenario, so together with (r, b_bar) it identifies one geometry.
    # The tuple itself is kept so its id cannot be reused within a pass.
    covs = scenario.covariances
    return ((id(covs), scenario.r, scenario.b_bar), covs)


_OBSERVERS = {
    "rmt.solve_fixed_point": _observe_fixed_point,
    "metrics.run_paired": _observe_run_paired,
    "precode.build_preprocessors": _observe_preprocessors,
}


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(tracer):
    """Reduce one traced pass to the ``<layer>.<stat>`` metrics.

    ``self_s`` is busy time minus the part of each span that its direct
    child spans cover (children on pool threads included), so it never goes
    negative when children overlap. ``metrics.run_paired.overlap`` is the
    summed busy time of run_paired's direct children over its own wall
    time; above 1, children were in flight on several pool threads at once.
    """
    children = defaultdict(list)
    for _, parent, _, start, end in tracer.spans:
        children[parent].append((start, end))
    out = {}
    for layer in TARGETS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.busy_s"] = 0.0
        out[f"{layer}.self_s"] = 0.0
    child_busy = 0.0
    for sid, _, layer, start, end in tracer.spans:
        kids = children.get(sid, ())
        out[f"{layer}.calls"] += 1
        out[f"{layer}.busy_s"] += end - start
        out[f"{layer}.self_s"] += (end - start) - _covered(kids)
        if layer == "metrics.run_paired":
            child_busy += sum(e - s for s, e in kids)

    paired = out["metrics.run_paired.busy_s"]
    out["metrics.run_paired.overlap"] = child_busy / paired if paired else 0.0

    fixed = tracer.observed["rmt.solve_fixed_point"]
    out["rmt.solve_fixed_point.iterations"] = sum(it for it, _ in fixed)
    out["rmt.solve_fixed_point.max_residual"] = max((r for _, r in fixed), default=0.0)

    runs = tracer.observed["metrics.run_paired"]
    trials = sum(n for n, _ in runs)
    out["precode.build_all.per_trial"] = (
        out["precode.build_all.calls"] / trials if trials else 0.0)
    for mode in SWITCH_SCHEMES:
        picked = [p[mode] for n, p in runs if mode in p]
        total = sum(n for n, p in runs if mode in p)
        out[f"modeswitch.bds_fraction.{mode}"] = sum(picked) / total if total else 0.0

    geometries = {key for key, _ in tracer.observed["precode.build_preprocessors"]}
    out["precode.build_preprocessors.per_geometry"] = (
        out["precode.build_preprocessors.calls"] / len(geometries)
        if geometries else 0.0)
    return out


#: Counts that must repeat exactly between passes of one workload.
EXACT_COUNTS = tuple(f"{layer}.calls" for layer in TARGETS) + (
    "precode.build_preprocessors.per_geometry",
    "precode.build_all.per_trial",
    "rmt.solve_fixed_point.iterations",
    "modeswitch.bds_fraction.SWITCH",
    "modeswitch.bds_fraction.SWITCH_RAW",
)
