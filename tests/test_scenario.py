"""Covariance synthesis on the usable cores: ``make_scenario`` runs its
groups' quadratures on threads when OpenBLAS runs one thread, and keeps
the bits of a serial loop."""

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


def on_cores(monkeypatch, cores, blas_threads=1):
    """Pretend the process has ``cores`` usable cores and OpenBLAS runs
    ``blas_threads`` threads."""
    monkeypatch.setattr(scenario, "_usable_cores", lambda: cores)
    monkeypatch.setattr(scenario, "_blas_threads", lambda: blas_threads)


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
    on_cores(monkeypatch, cores)
    started = counted_starts(monkeypatch)
    got = CELLS[cell][0]().covariances
    assert len(started) == (cores if cores > 1 else 0)
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
    # One core has nothing to share; OpenBLAS's own threads, or a BLAS
    # whose threads cannot be read, would contend with the workers.
    on_cores(monkeypatch, cores, blas_threads)
    started = counted_starts(monkeypatch)
    make_scenario(M=24, G=4, n_bar=2, r=1)
    assert started == []


@pytest.mark.parametrize("env", [1, 2])
def test_blas_threads_reads_openblas(env):
    # Read in a fresh process, where OPENBLAS_NUM_THREADS takes effect;
    # OpenBLAS runs no more threads than the process has cores.
    if scenario._blas_threads() is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS that reports its threads")
    src = os.path.dirname(os.path.dirname(scenario.__file__))
    code = "import dualpol.scenario as s; print(s._blas_threads())"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src,
                                              OPENBLAS_NUM_THREADS=str(env)))
    assert int(run.stdout) == min(env, len(os.sched_getaffinity(0)))


def test_usable_cores_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(scenario, "_cpu_quota", lambda: None)
    assert scenario._usable_cores() == (os.cpu_count() or 1)


@pytest.mark.parametrize("quota, want", [(None, 8), (0.5, 1), (1.5, 2), (20.0, 8)])
def test_usable_cores_keep_within_the_cpu_quota(monkeypatch, quota, want):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(scenario, "_cpu_quota", lambda: quota)
    assert scenario._usable_cores() == want


@pytest.mark.parametrize("files, want", [
    ({"cpu.max": "max 100000\n"}, None),
    ({"cpu.max": "150000 100000\n"}, 1.5),
    ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
    ({"cpu/cpu.cfs_quota_us": "50000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 0.5),
    ({}, None),
])
def test_cpu_quota_reads_cgroup_v2_then_v1(tmp_path, files, want):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    assert scenario._cpu_quota(str(tmp_path)) == want


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
