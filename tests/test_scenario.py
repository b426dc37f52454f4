"""Covariance synthesis on the affinity set's cores: ``make_scenario``
runs its groups' quadratures on threads when the environment starts
OpenBLAS on one thread, and keeps the bits of a serial loop."""

import functools
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import dualpol.corrstats as corrstats
import dualpol.scenario as scenario
from dualpol.corrstats import GroupGeometry, one_ring_covariance
from dualpol.errors import InvalidInputError, NumericalError
from dualpol.scenario import default_theta_grid, make_scenario
from dualpol.scene3d import make_scenario_3d

FIELDS = ("matrix", "eigvecs", "eigvals", "effective_rank")

#: name -> (builder, (thetas, spread, elements, spacing) of its serial loop)
CELLS = {
    "fig4": (lambda: make_scenario(M=120, G=4, n_bar=8),
             (default_theta_grid(4), math.pi / 12, 60, 0.5)),
    "3d-azimuth": (lambda: make_scenario_3d().azimuth_scenario,
                   (default_theta_grid(4), math.pi / 12, 50, 0.5)),
    "fig3-single": (lambda: make_scenario(M=120, G=4, n_bar=8, spread=math.radians(8.0),
                                          spacing=0.25, b_bar=14, dual_pol=False),
                    (default_theta_grid(4), math.radians(8.0), 120, 0.25)),
}


@functools.cache
def serial(cell):
    thetas, spread, elements, spacing = CELLS[cell][1]
    return [one_ring_covariance(GroupGeometry(theta, spread), elements, spacing)
            for theta in thetas]


#: A setting of the variables OpenBLAS reads at load for its thread count
#: (OPENBLAS for OPENBLAS_NUM_THREADS, and so on; "unset" sets none) ->
#: whether OpenBLAS starts one thread. The first seven are also checked
#: against the threads OpenBLAS starts.
RULE = {
    "unset": False, "OPENBLAS=1": True, "OMP=1": True, "GOTO=1": True,
    "OPENBLAS=2 OMP=1": False, "OPENBLAS=0 OMP=1": True, "OPENBLAS=abc OMP=1": True,
    "OPENBLAS=1 GOTO=2": True, "OPENBLAS=0 GOTO=1 OMP=2": True, "GOTO=2 OMP=1": False,
    "OPENBLAS=-1 OMP=1": True, "OPENBLAS=+1": True, "OPENBLAS=2x": False,
    "OMP=1,4": True, "OMP=4": False,
}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def blas_env(setting):
    """The variables that ``setting``, a key of ``RULE``, sets."""
    return {f"{name}_NUM_THREADS": value
            for name, value in (pair.split("=") for pair in setting.split() if "=" in pair)}


def set_blas_env(monkeypatch, setting):
    for name in BLAS_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in blas_env(setting).items():
        monkeypatch.setenv(name, value)


def on_cores(monkeypatch, cores, blas_threads=1):
    """Pretend the process may run on ``cores`` cores and its environment
    starts OpenBLAS on ``blas_threads`` threads (None: its default)."""
    set_blas_env(monkeypatch, f"OPENBLAS={blas_threads}" if blas_threads else "unset")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)


def counted_starts(monkeypatch):
    """The threads started from now on, in a list; they still run."""
    started, start = [], threading.Thread.start

    def spy(self):
        started.append(self)
        start(self)
    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


@pytest.mark.parametrize("cores", [1, 2, 3, 4])
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_covariances_are_those_of_serial_calls(monkeypatch, cell, cores):
    # Each group's covariance is computed whole on one thread, so every
    # field is the serial call's, bit for bit, whatever the thread count.
    # The pool starts a worker only when none is idle, so a worker that
    # finishes a group before the last one is submitted takes the next:
    # up to min(G, cores) start.
    on_cores(monkeypatch, cores)
    started = counted_starts(monkeypatch)
    got = CELLS[cell][0]().covariances
    if cores > 1:
        assert 1 <= len(started) <= min(len(got), cores)
    else:
        assert started == []
    for cov, want in zip(got, serial(cell), strict=True):
        for name in FIELDS:
            assert np.array_equal(getattr(cov, name), getattr(want, name)), name


def test_many_threads_keep_every_result_in_place(monkeypatch):
    # More threads than cores, switching as often as the interpreter lets
    # them: each item's result still lands at its own index.
    on_cores(monkeypatch, 16)
    items = [np.arange(i, i + 300.0) for i in range(64)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = scenario._on_cores(lambda x: np.exp(-x / 7.0).sum(), items)
    finally:
        sys.setswitchinterval(interval)
    assert got == [np.exp(-x / 7.0).sum() for x in items]


@pytest.mark.parametrize("cores, blas_threads", [(1, 1), (4, 2), (4, None)])
def test_no_thread_starts_on_one_core_or_beside_blas_threads(monkeypatch, cores,
                                                             blas_threads):
    # One core has nothing to share; OpenBLAS's own threads would contend
    # with the workers.
    on_cores(monkeypatch, cores, blas_threads)
    started = counted_starts(monkeypatch)
    make_scenario(M=24, G=4, n_bar=2, r=1)
    assert started == []


@pytest.mark.parametrize("setting, one", RULE.items())
def test_workers_start_when_the_environment_starts_one_blas_thread(monkeypatch,
                                                                   setting, one):
    on_cores(monkeypatch, 2)
    set_blas_env(monkeypatch, setting)
    started = counted_starts(monkeypatch)
    assert scenario._on_cores(abs, [-1, 2, -3]) == [1, 2, 3]
    assert len(started) == (2 if one else 0)


def test_no_thread_starts_without_an_affinity_set(monkeypatch):
    # Off Linux the cores are not known; the loop runs.
    on_cores(monkeypatch, 4)
    monkeypatch.delattr(os, "sched_getaffinity")
    started = counted_starts(monkeypatch)
    make_scenario(M=24, G=4, n_bar=2, r=1)
    assert started == []


@pytest.mark.parametrize("setting, one", list(RULE.items())[:7])
def test_the_rule_reads_the_variables_as_openblas_does(setting, one):
    # A fresh process, where OpenBLAS reads the variables as it loads: it
    # starts one thread exactly when the rule says so. The threads are
    # counted right after numpy's import, before dualpol's.
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("the process's threads cannot be counted here")
    if "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("on one core OpenBLAS starts one thread whatever the variables")
    src = os.path.dirname(os.path.dirname(scenario.__file__))
    code = ("import os, numpy; n = len(os.listdir('/proc/self/task')); "
            "import dualpol.scenario as s; print(n, s._one_blas_thread())")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(env, PYTHONPATH=src, **blas_env(setting)))
    threads, rule = run.stdout.split()
    assert (rule, int(threads) == 1) == (str(one), one)


def test_make_scenario_takes_the_path_of_this_process(monkeypatch):
    # No pretending: this process's own variables and affinity set. CI runs
    # this file on OpenBLAS's default threads (no worker), under taskset -c 0
    # (none) and with OPENBLAS_NUM_THREADS=1 (min(4, cores) workers).
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    started = counted_starts(monkeypatch)
    make_scenario(M=24, G=4, n_bar=2, r=1)
    assert len(started) == (min(4, cores) if scenario._one_blas_thread() and cores > 1 else 0)


@pytest.mark.parametrize("failing", [(0,), (1,), (2, 3), (3, 1)])
def test_a_group_error_reaches_the_caller_whole(monkeypatch, failing):
    # On two workers the error is still the serial loop's, that of the
    # first failing group, and it is raised once both workers have stopped.
    on_cores(monkeypatch, 2)
    thetas = default_theta_grid(4)

    def quadrature(geometry, elements, spacing):
        g = thetas.index(geometry.azimuth_center)
        if g in failing:
            raise NumericalError(f"group {g} failed", residual=0.5 + g)
        return one_ring_covariance(geometry, elements, spacing)
    monkeypatch.setattr(scenario, "one_ring_covariance", quadrature)
    before = threading.active_count()
    with pytest.raises(NumericalError, match=f"^group {min(failing)} failed$") as info:
        make_scenario(M=120, G=4, n_bar=8)
    assert info.value.residual == 0.5 + min(failing)
    assert threading.active_count() == before


def test_the_quadrature_byte_bound_reaches_the_caller(monkeypatch):
    # Every group refuses; the caller gets group 0's error, as from a loop.
    monkeypatch.setattr(corrstats, "_MAX_BYTES", 1 << 20)
    on_cores(monkeypatch, 2)
    with pytest.raises(NumericalError) as want:
        one_ring_covariance(GroupGeometry(default_theta_grid(4)[0], math.pi / 12), 60, 0.5)
    before = threading.active_count()
    with pytest.raises(NumericalError) as got:
        make_scenario(M=120, G=4, n_bar=8)
    assert str(got.value) == str(want.value) and "quadrature" in str(got.value)
    assert got.value.residual == want.value.residual is not None
    assert threading.active_count() == before


def test_a_bad_geometry_on_a_worker_reaches_the_caller(monkeypatch):
    on_cores(monkeypatch, 2)
    before = threading.active_count()
    with pytest.raises(InvalidInputError, match="geometry must be finite"):
        make_scenario(M=24, G=2, n_bar=4, thetas=[0.0, math.nan])
    assert threading.active_count() == before
