import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpol.corrstats import (
    QUADRATURE_TOL,
    GroupGeometry,
    SpatialCovariance,
    eigendecompose,
    elevation_covariance,
    mismatch_effective_stats,
    _one_ring_kernel,
    one_ring_covariance,
)
from dualpol.errors import InvalidInputError
from dualpol.scenario import default_theta_grid


def simpson_oracle(dy, theta, delta, n=10000):
    """Independent fixed-grid composite Simpson for a y-axis displacement."""
    alpha = np.linspace(-delta, delta, n + 1)
    f = np.exp(-1j * np.pi * np.sin(alpha + theta) * dy)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (2 * delta / n / 3.0) * np.sum(w * f) / (2 * delta)


def adaptive_simpson_oracle(d, theta, delta):
    """The kernel's adaptive rule with every level's nodes evaluated afresh."""

    def simpson(n_panels):
        alpha = np.linspace(-delta, delta, 2 * n_panels + 1)
        phase = np.sin(alpha + theta)[None, :] * d[:, None]
        f = np.exp(-1j * np.pi * phase)
        w = np.ones(alpha.size)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        h = (2.0 * delta) / (2 * n_panels)
        return (h / 3.0) * (f @ w) / (2.0 * delta)

    n = 8
    prev = simpson(n)
    while True:
        n *= 2
        cur = simpson(n)
        if np.abs(cur - prev).max() < QUADRATURE_TOL:
            return cur
        prev = cur


THETA = -math.pi / 4
DELTA = math.pi / 12


@pytest.fixture(scope="module")
def cov():
    return one_ring_covariance(GroupGeometry(THETA, DELTA), 60, 0.5)


class TestOneRing:
    theta = THETA
    delta = DELTA

    def test_unit_diagonal_exact(self, cov):
        # zero displacement leaves a unit-magnitude integrand
        assert np.all(np.diag(cov.matrix) == 1.0)

    def test_entries_match_quadrature_oracle(self, cov):
        # Frozen from the 10^4-interval Simpson oracle above.
        frozen = {
            (0, 1): 0.448854724509 - 0.878015661883j,
            (0, 5): 0.492122337674 + 0.478089445585j,
            (10, 40): 0.043641445577 - 0.080601779028j,
        }
        for (m, n), value in frozen.items():
            assert cov.matrix[m, n] == pytest.approx(value, abs=1e-9)
            oracle = simpson_oracle((m - n) * 0.5, self.theta, self.delta)
            assert cov.matrix[m, n] == pytest.approx(oracle, abs=1e-8)

    def test_kernel_reuse_is_bit_exact(self):
        # Reusing the coarse level's integrand values must not move a bit:
        # the small eigenmodes of the covariance amplify any rounding change.
        for spacing, size, theta, delta in itertools.chain(
                itertools.product([0.25, 0.5, 1.0], [10, 60], [-0.8, 0.0, 0.7],
                                  [1e-9, 0.14, 0.26, 1.0]),
                # The fig5 single-polarized array: 119 lags in 8 chunks.
                itertools.product([0.5], [120], [-0.8, 0.0, 0.7], [0.26]),
                # 17, 18 and 33 lags: a head chunk of 3 rows, then 14, 15
                # and 30 rows (the last in two chunks of 15).
                itertools.product([0.5], [18, 19, 34], [-0.8, 0.0, 0.7],
                                  [0.14, 1.0]),
                # 16 to 20 lags, either side of the head split, at the
                # narrowest and a wide spread.
                itertools.product([0.5], [17, 18, 19, 20, 21], [-0.8, 0.0, 0.7],
                                  [1e-9, 1.2]),
                # The M = 480 cell's 239 lags at -45 degrees: the head chunk
                # stops a level short of rows 3 to 5, and is redone.
                [(0.5, 240, -math.pi / 4, math.pi / 12)],
                # One lag: a single chunk of one row.
                itertools.product([0.25, 0.5, 1.0], [2], [-0.8, 0.0, 0.7],
                                  [1e-9, 0.14, 0.26, 1.0])):
            d = spacing * np.arange(1 - size, 0)
            # Smallest displacement first too: a later chunk then needs a
            # finer level than the first, and the chunks done are redone.
            for lags in (d, d[::-1]):
                assert np.array_equal(_one_ring_kernel(lags, theta, delta),
                                      adaptive_simpson_oracle(lags, theta, delta))

    def test_kernel_exponentiates_each_node_once(self, monkeypatch):
        # On the fig4 cell the head chunk's doubling finds 2,048 panels for
        # every group, and the other chunks take that level in one pass:
        # each lag's 4,097 nodes go through exp once.
        counted, exp = [], np.exp

        def counting(x, *args, **kw):
            counted.append(np.size(x))
            return exp(x, *args, **kw)
        monkeypatch.setattr(np, "exp", counting)
        for theta in default_theta_grid(4):
            counted.clear()
            one_ring_covariance(GroupGeometry(theta, DELTA), 60, 0.5)
            assert sum(counted) == 59 * 4097, theta

    def test_quadrature_memory_is_two_levels(self):
        # The lags run in a head chunk of 3 rows and chunks of at most 16:
        # 59 lags in a head and four chunks of 14 ending on 2,048 panels,
        # 239 in a head and chunks of 16 or 15 ending on 8,192. The peak
        # holds one chunk's finest level next to the real product its
        # exponent is written from or the copy of its even nodes; a chunk
        # that doubles on holds its last two levels, or the finest level
        # and its new nodes' temporaries (a real product and its complex
        # one). The eigensolver's arrays fit under that. The bound is that
        # of chunks of 15 and 16 rows.
        for size, rows, panels in [(60, 15, 2048), (240, 16, 8192)]:
            levels = rows * ((2 * panels + 1) + (panels + 1)) * 16
            bound = levels + rows * panels * (8 + 16)
            tracemalloc.start()
            try:
                one_ring_covariance(GroupGeometry(THETA, DELTA), size, 0.5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound, size

    def test_effective_rank_matches_reference_eigensolver(self, cov):
        # Reference eigensolver on the oracle-integrated matrix counts 11
        # eigenvalues above 1e-6 of the largest.
        assert cov.effective_rank == 11

    def test_hermitian_psd_invariants(self, cov):
        R = cov.matrix
        assert np.abs(R - R.conj().T).max() < 1e-12
        assert cov.eigvals.min() > -1e-10
        assert np.all(np.diff(cov.eigvals) <= 1e-12)

    def test_reconstruction_and_unitarity(self, cov):
        U, lam = cov.eigvecs, cov.eigvals
        assert np.abs(U.conj().T @ U - np.eye(60)).max() < 1e-10
        rebuilt = (U * lam) @ U.conj().T
        rel = np.linalg.norm(rebuilt - cov.matrix) / np.linalg.norm(cov.matrix)
        assert rel < 1e-8

    def test_zero_spread_is_rank_one(self):
        cov = one_ring_covariance(GroupGeometry(0.3, 1e-9), 20, 0.5)
        assert cov.eigvals[1] < 1e-6 * cov.eigvals[0]
        assert cov.eigvals[1] / cov.eigvals[0] < 1e-5
        # matches the steering outer product at the center angle
        steer = np.exp(-1j * np.pi * np.sin(0.3) * 0.5 * np.arange(20))
        rank1 = np.outer(steer, steer.conj())
        assert np.abs(cov.matrix - rank1).max() < 1e-6

    def test_effective_rank_monotone_in_spread(self):
        ranks = [
            one_ring_covariance(GroupGeometry(0.0, d), 40, 0.5).effective_rank
            for d in [0.05, 0.1, 0.2, 0.3, 0.5]
        ]
        assert ranks == sorted(ranks)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(InvalidInputError):
            GroupGeometry(math.nan, 0.1)
        with pytest.raises(InvalidInputError):
            GroupGeometry(0.0, 0.0)
        with pytest.raises(InvalidInputError):
            one_ring_covariance(GroupGeometry(0.0, 0.1), 0, 0.5)

    def test_one_element_array_is_unit_covariance(self):
        cov = one_ring_covariance(GroupGeometry(0.1, 0.2), 1, 0.5)
        assert np.array_equal(cov.matrix, np.ones((1, 1), dtype=complex))
        assert cov.effective_rank == 1


class TestEigendecompose:
    def test_identity(self):
        _, lam, rank = eigendecompose(np.eye(60))
        assert np.allclose(lam, 1.0)
        assert rank == 60

    def test_all_ones(self):
        n = 24
        _, lam, rank = eigendecompose(np.ones((n, n)))
        assert lam[0] == pytest.approx(n, rel=1e-12)
        assert rank == 1

    def test_rejects_non_hermitian(self):
        A = np.arange(16, dtype=float).reshape(4, 4)
        with pytest.raises(InvalidInputError):
            eigendecompose(A)


class TestMismatchStats:
    def test_aligned_limit(self):
        # theta_max = 0 keeps the raw chi (analytic sin(2t)/4t limit 1/2)
        for chi in [0.0, 0.3, 1.0]:
            s = mismatch_effective_stats(chi, 0.0)
            assert s.c_eff == pytest.approx(1.0, abs=1e-15)
            assert s.chi_eff == pytest.approx(chi, abs=1e-15)

    def test_fully_mixed(self):
        for chi in [0.0, 0.5]:
            s = mismatch_effective_stats(chi, math.pi / 2)
            assert s.c_eff == pytest.approx((1 + chi) / 2, abs=1e-15)
            assert s.chi_eff == pytest.approx(1.0, abs=1e-15)

    def test_quarter_rotation_closed_form(self):
        # c_eff = 1/2 + 1/pi, chi_eff = (1/2 - 1/pi)/(1/2 + 1/pi)
        s = mismatch_effective_stats(0.0, math.pi / 4)
        assert s.c_eff == pytest.approx(0.5 + 1 / math.pi, abs=1e-12)
        assert s.chi_eff == pytest.approx(0.2220309407, abs=1e-9)

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(7)
        theta = rng.uniform(-math.pi / 4, math.pi / 4, 200000)
        co = np.mean(np.cos(theta) ** 2)
        cross = np.mean(np.sin(theta) ** 2)
        s = mismatch_effective_stats(0.0, math.pi / 4)
        assert s.c_eff == pytest.approx(co, rel=5e-3)
        assert s.chi_eff == pytest.approx(cross / co, rel=2e-2)

    @given(chi=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_chi_eff_nondecreasing_in_theta(self, chi):
        grid = np.linspace(0.0, math.pi / 2, 30)
        vals = [mismatch_effective_stats(chi, t).chi_eff for t in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(chi - 1e-12 <= v <= 1.0 + 1e-12 for v in vals)

    def test_rejects_bad_chi(self):
        with pytest.raises(InvalidInputError):
            mismatch_effective_stats(1.5, 0.1)

    @pytest.mark.parametrize("theta_max", [0.0, 0.69, math.pi / 2])
    def test_array_chi_equals_scalar_calls(self, theta_max):
        # One formula serves a per-trial chi array: bit for bit the
        # element-wise scalar calls.
        chi = np.random.default_rng(5).uniform(0.0, 1.0, 64)
        chi[:2] = 0.0, 1.0
        got = mismatch_effective_stats(chi, theta_max)
        for name in ("c_eff", "chi_eff"):
            want = [getattr(mismatch_effective_stats(float(c), theta_max), name)
                    for c in chi]
            np.testing.assert_array_equal(getattr(got, name), want)

    @pytest.mark.parametrize("bad", [-1e-12, 1.5, np.nan])
    def test_array_chi_rejects_an_out_of_range_entry(self, bad):
        with pytest.raises(InvalidInputError):
            mismatch_effective_stats(np.array([0.1, bad, 0.4]), 0.3)


class TestElevation:
    def test_zero_scatter_is_rank_one(self):
        cov = elevation_covariance(60.0, 100.0, 0.0, 10, 0.5)
        assert cov.effective_rank == 1
        assert cov.eigvals[1] / cov.eigvals[0] < 1e-5

    def test_interval_matches_spread_formula(self):
        # ring at d = h = 60 spans [pi/4, atan(60/(60-s))]
        h = d = 60.0
        s = 60.0 * math.tan(math.pi / 12)
        cov = elevation_covariance(h, d, s, 10, 0.5)
        hi = math.atan2(60.0, 60.0 - s)
        geometry = GroupGeometry((math.pi / 4 + hi) / 2, (hi - math.pi / 4) / 2)
        direct = one_ring_covariance(geometry, 10, 0.5)
        assert np.abs(cov.matrix - direct.matrix).max() < 1e-12

    def test_entries_match_quadrature_oracle(self):
        # h=60 m, d=100 m, s = d tan(pi/12): frozen from the Simpson oracle.
        s = 100.0 * math.tan(math.pi / 12)
        cov = elevation_covariance(60.0, 100.0, s, 10, 0.5)
        assert cov.matrix[0, 1] == pytest.approx(
            0.617910350722 + 0.784382558159j, abs=1e-9)
        assert cov.matrix[2, 7] == pytest.approx(
            -0.186241901190 - 0.945556427849j, abs=1e-9)

    def test_rejects_ring_behind_bs(self):
        with pytest.raises(InvalidInputError):
            elevation_covariance(60.0, 50.0, 50.0, 10, 0.5)
        with pytest.raises(InvalidInputError):
            elevation_covariance(-1.0, 50.0, 10.0, 10, 0.5)


@given(theta=st.floats(-1.4, 1.4), delta=st.floats(0.02, 0.6),
       spacing=st.sampled_from([0.25, 0.5, 1.0]))
@settings(max_examples=20, deadline=None)
def test_generated_covariances_are_valid(theta, delta, spacing):
    cov = one_ring_covariance(GroupGeometry(theta, delta), 12, spacing)
    R = cov.matrix
    assert np.abs(R - R.conj().T).max() < 1e-12
    assert np.abs(np.diag(R) - 1.0).max() < 1e-9
    assert cov.eigvals.min() >= -1e-10
    assert isinstance(cov, SpatialCovariance)
