import math

import numpy as np
import pytest

from dualpol.corrstats import SpatialCovariance
from dualpol.errors import (
    InfeasibleRegionError,
    InvalidConfigurationError,
    InvalidInputError,
)
from dualpol.metrics import run_paired
from dualpol.scenario import SweepPoint
from dualpol.scene3d import (
    elevation_prefilter,
    make_scenario_3d,
    path_loss,
    reduce_to_2d,
    run_3d_paired,
)


@pytest.fixture(scope="module")
def fig11():
    return make_scenario_3d().with_power_db(25.0)


def projected_eigensolve_oracle(covs, l, r_trunc=1):
    """Independent oracle: project out the other regions' dominant vectors
    with an explicit pinv-based projector, then take the top eigenpair."""
    own = covs[l].matrix
    U = np.hstack([covs[i].dominant_eigvecs(r_trunc)
                   for i in range(len(covs)) if i != l])
    P = np.eye(own.shape[0]) - U @ np.linalg.pinv(U)
    M = P @ own @ P
    vals, vecs = np.linalg.eigh((M + M.conj().T) / 2)
    q = vecs[:, -1]
    q = q / np.linalg.norm(q)
    return float((q.conj() @ own @ q).real)


class TestPrefilter:
    def test_single_region_takes_dominant_mode(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((8, 8))
        cov = SpatialCovariance.from_matrix(A @ A.T)
        q, lam = elevation_prefilter([cov], 0)
        assert lam == pytest.approx(cov.eigvals[0], rel=1e-10)
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_regions_lose_nothing(self):
        # disjoint eigenspaces: lambda_tilde = lambda_max
        d1 = np.diag([5.0, 3.0, 0, 0, 0, 0])
        d2 = np.diag([0, 0, 0, 0, 4.0, 2.0])
        covs = [SpatialCovariance.from_matrix(d1), SpatialCovariance.from_matrix(d2)]
        q, lam = elevation_prefilter(covs, 0, r_trunc=2)
        assert lam == pytest.approx(5.0, abs=1e-9)
        U_other = covs[1].dominant_eigvecs(2)
        assert np.linalg.norm(U_other.conj().T @ q) < 1e-10

    def test_fig11_lambdas_match_projection_oracle(self, fig11):
        covs = [r.cov_elev for r in fig11.regions]
        frozen = [1.6926, 0.8804, 2.1333]
        for l, region in enumerate(fig11.regions):
            oracle = projected_eigensolve_oracle(covs, l)
            assert region.lambda_tilde == pytest.approx(oracle, rel=1e-9)
            assert region.lambda_tilde == pytest.approx(frozen[l], abs=2e-3)
            # never exceeds the unconstrained Rayleigh maximum
            assert region.lambda_tilde <= region.cov_elev.eigvals[0] + 1e-10

    def test_prefilter_nulls_other_regions(self, fig11):
        covs = [r.cov_elev for r in fig11.regions]
        for l, region in enumerate(fig11.regions):
            U = np.hstack([covs[i].dominant_eigvecs(1)
                           for i in range(3) if i != l])
            assert np.linalg.norm(U.conj().T @ region.q) < 1e-10

    def test_full_vertical_array_is_infeasible(self):
        cov = SpatialCovariance.from_matrix(np.eye(4))
        with pytest.raises(InfeasibleRegionError):
            elevation_prefilter([cov, cov], 0, r_trunc=4)


def test_no_groups_is_a_config_error():
    with pytest.raises(InvalidConfigurationError, match="at least one group"):
        make_scenario_3d(G=0)


class TestReduction:
    def test_path_loss_at_reference_distance(self):
        assert path_loss(60.0) == pytest.approx(0.5, abs=1e-15)

    def test_region_power_share_and_gain(self, fig11):
        for l, region in enumerate(fig11.regions):
            sc = reduce_to_2d(fig11, l)
            assert sc.power == pytest.approx(fig11.power / 3)
            expected = math.sqrt(region.lambda_tilde * region.path_loss)
            assert sc.gains[0] == pytest.approx(expected, rel=1e-12)
        with pytest.raises(InvalidInputError):
            reduce_to_2d(fig11, 7)

    def test_unit_gain_region_reduces_to_plain_scenario(self, fig11):
        from dataclasses import replace

        region = replace(fig11.regions[0], lambda_tilde=1.0, path_loss=1.0)
        sc3 = replace(fig11, regions=(region,), power=fig11.power)
        sc = reduce_to_2d(sc3, 0)
        assert all(g == 1.0 for g in sc.gains)
        assert sc.power == fig11.power

    def test_gain_scales_signal_quadratically(self, fig11):
        # fixed precoders: scaling the channel by sqrt(lambda) scales every
        # received power by lambda exactly
        from dataclasses import replace

        from dualpol.channel import RngStream
        from dualpol.metrics import draw_trial, sinr_bd
        from dualpol.precode import build_all

        sc = reduce_to_2d(fig11, 0)
        base = replace(sc, gains=(1.0,) * sc.G)
        channels = draw_trial(base, RngStream(5, 0))
        precoders = build_all(base, channels, "BD", tau=0.0)
        rep1 = sinr_bd(channels, precoders, base.power)
        lam = 1.7
        scaled = tuple(replace(e, gain=math.sqrt(lam) * e.gain) for e in channels)
        rep2 = sinr_bd(scaled, precoders, base.power)
        assert np.allclose(rep2.signal, lam * rep1.signal, rtol=1e-10)


class TestRun3d:
    def test_single_region_reduces_to_run_paired(self, fig11):
        from dataclasses import replace

        sc3 = replace(fig11, regions=(fig11.regions[0],))
        got = run_3d_paired(sc3, ["BD"], 10, 3, [SweepPoint()])[0]["BD"]
        want = run_paired(reduce_to_2d(sc3, 0), ["BD"], 10, 3, [SweepPoint()],
                          stream_base=0)[0]["BD"]
        assert got.sum_rate == pytest.approx(want.sum_rate, rel=1e-12)

    def test_total_power_conserved(self, fig11):
        # each region radiates exactly its share, so the cell radiates P
        from dualpol.channel import RngStream
        from dualpol.metrics import draw_trial
        from dualpol.precode import build_all

        total = 0.0
        for l in range(fig11.n_regions):
            sc = reduce_to_2d(fig11, l)
            channels = draw_trial(sc, RngStream(2, l))
            precoders = build_all(sc, channels, "BD", tau=0.0)
            per_stream = sc.power / sc.n_users
            total += sum(
                per_stream * np.sum(np.abs(precoders.transmit_matrix(g)) ** 2)
                for g in range(sc.G))
        assert total == pytest.approx(fig11.power, rel=1e-8)

    def test_fig11_small_chi_ordering(self, fig11):
        # BDS >= BD and SWITCH >= both at small chi (2 stderr slack)
        sc3 = fig11.with_chi(0.02)
        [res] = run_3d_paired(sc3, ["BD", "BDS", "SWITCH"], 120, 7, [SweepPoint(n_bits=60)])
        slack = 2 * max(r.stderr for r in res.values())
        assert res["BDS"].sum_rate >= res["BD"].sum_rate - slack
        assert res["SWITCH"].sum_rate >= max(res["BD"].sum_rate,
                                             res["BDS"].sum_rate) - slack

    def test_mismatch_degrades_sum_rate(self, fig11):
        sc3 = fig11.with_chi(0.1)
        points = [SweepPoint(tau_sq=0.1, theta_max=t) for t in (0.0, 0.22 * math.pi)]
        aligned, mismatched = (r["BD"] for r in run_3d_paired(sc3, ["BD"], 100, 11, points))
        assert mismatched.sum_rate < aligned.sum_rate - 2 * aligned.stderr
