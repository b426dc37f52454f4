import math
from dataclasses import replace

import numpy as np
import pytest

from dualpol.channel import RngStream, channel_from_normals
from dualpol.corrstats import GroupGeometry, SpatialCovariance, one_ring_covariance
from dualpol.errors import (
    DegenerateInputError,
    InvalidConfigurationError,
    InvalidInputError,
)
from dualpol.metrics import draw_trial
from dualpol.precode import (
    bd_preprocessor,
    build_all,
    build_preprocessors,
    csit_view,
    kl_projections,
    rzf_precoder,
    stacked_precoders,
)
from dualpol.scenario import GroupScenario, make_scenario


@pytest.fixture(scope="module")
def fig4_pre(fig4_scenario):
    return build_preprocessors(fig4_scenario)


def test_orthonormality(fig4_scenario, fig4_pre):
    for pre in fig4_pre:
        B = pre.bd
        assert np.abs(B.conj().T @ B - np.eye(fig4_scenario.b_bar)).max() < 1e-10


def test_truncated_subspace_nulling_is_exact(fig4_scenario, fig4_pre):
    # (B_g^s)^H U_l^a = 0 for l != g, to machine precision
    r = fig4_scenario.r
    for g, pre in enumerate(fig4_pre):
        for l, cov in enumerate(fig4_scenario.covariances):
            if l == g:
                continue
            leak = pre.B_s.conj().T @ cov.dominant_eigvecs(r)
            assert np.abs(leak).max() < 1e-10


def test_single_group_takes_dominant_eigvecs():
    cov = one_ring_covariance(GroupGeometry(0.0, math.pi / 8), 16, 0.5)
    pre = bd_preprocessor([cov], 0, r=6, b_bar=8)
    # span(B_s) equals span of the top-4 eigenvectors
    U4 = cov.dominant_eigvecs(4)
    proj = U4 @ U4.conj().T
    assert np.abs(proj @ pre.B_s - pre.B_s).max() < 1e-8


def test_average_leakage_small(fig4_scenario, fig4_pre):
    # residual leakage |H_l^H B_g| / |H_l| below 5 % on average over draws
    gen = RngStream(3, 0).generator()
    ratios = []
    for _ in range(40):
        channels = draw_trial(fig4_scenario.with_chi(0.1), gen)
        for g, pre in enumerate(fig4_pre):
            B = pre.bd
            for l, entry in enumerate(channels):
                if l == g:
                    continue
                ratios.append(np.linalg.norm(entry.H.conj().T @ B)
                              / np.linalg.norm(entry.H))
    assert np.mean(ratios) < 0.05


def test_bds_zero_pattern_and_orthogonality(fig4_pre):
    pre = fig4_pre[0]
    half = pre.B_s.shape[0]
    ncols = pre.B_s.shape[1]
    assert np.all(pre.bds_v[half:] == 0.0)
    assert np.all(pre.bds_h[:half] == 0.0)
    assert np.abs(pre.bds_v.conj().T @ pre.bds_h).max() == 0.0
    assert np.abs(pre.bds_v.conj().T @ pre.bds_v - np.eye(ncols)).max() < 1e-10


def test_chi_zero_cross_polarized_channels_are_nulled(fig4_scenario, fig4_pre):
    # H_lp^H B_gq = 0 exactly for p != q when chi = 0
    channels = draw_trial(fig4_scenario, RngStream(4, 0))
    entry = channels[1]
    n2 = entry.n_users // 2
    H_v = entry.H[:, :n2]
    pre = fig4_pre[2]
    assert np.abs(H_v.conj().T @ pre.bds_h).max() == 0.0


def test_constraint_violations_name_the_inequality():
    covs = [one_ring_covariance(GroupGeometry(t, math.pi / 10), 16, 0.5)
            for t in (-0.5, 0.5)]
    with pytest.raises(InvalidConfigurationError, match="b_bar"):
        bd_preprocessor(covs, 0, r=8, b_bar=40)
    too_deep = min(c.effective_rank for c in covs) + 1
    with pytest.raises(InvalidConfigurationError, match="r <= min"):
        bd_preprocessor(covs, 0, r=too_deep, b_bar=4)


def test_rank_cap_binds_dual_polarized_arrays_only():
    # b_bar <= 2 r_g on a dual-polarized array; a single-polarized baseline
    # on the same positions may run above its rank.
    narrow = dict(G=2, n_bar=4, spread=math.radians(3.0))
    dual = make_scenario(M=60, **narrow)
    assert dual.b_bar == 2 * min(c.effective_rank for c in dual.covariances) == 8
    with pytest.raises(InvalidConfigurationError, match="2\\*r_g"):
        make_scenario(M=60, b_bar=10, **narrow)
    single = make_scenario(M=30, b_bar=10, dual_pol=False, **narrow)
    assert single.b_bar > min(c.effective_rank for c in single.covariances)


def test_no_groups_is_a_config_error():
    with pytest.raises(InvalidConfigurationError, match="at least one group"):
        make_scenario(G=0)
    with pytest.raises(InvalidConfigurationError, match="at least one group"):
        GroupScenario(M=24, n_bar=4, b_bar=8, r=2, covariances=())


class TestRzf:
    def test_matched_filter_for_single_scalar(self):
        h = np.array([[0.3 - 0.4j]])
        inner = rzf_precoder(h, alpha=0.5, n_streams=1)
        # P is proportional to h with the normalization |P| = 1
        assert np.abs(inner.P[0, 0] / h[0, 0]).imag == pytest.approx(0.0, abs=1e-12)
        assert np.abs(inner.P[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_forcing_limit(self):
        # tau = 0 and alpha -> 0+ (P = 1e6): the RZF collapses to ZF and the
        # off-diagonals of H^H P vanish relative to the diagonal.
        rng = np.random.default_rng(12)
        H = (rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))) / np.sqrt(2)
        alpha = 8.0 / (16.0 * 1e6)
        inner = rzf_precoder(H, alpha, 8)
        A = H.conj().T @ inner.P
        diag = np.abs(np.diag(A))
        off = np.abs(A - np.diag(np.diag(A))).max(axis=1)
        assert np.all(off < 1e-3 * diag)

    def test_zf_residual_shrinks_with_power(self, fig4_scenario, fig4_pre):
        # On the assembled cell the residual is conditioning-limited but
        # still scales away as the regularizer vanishes.
        def worst_ratio(power):
            sc = fig4_scenario.with_power(power)
            channels = draw_trial(sc, RngStream(6, 0))
            precoders = build_all(sc, channels, "BD", tau=0.0,
                                  preprocessors=fig4_pre)
            worst = 0.0
            for g, entry in enumerate(channels):
                A = entry.H.conj().T @ precoders.transmit_matrix(g)
                diag = np.abs(np.diag(A))
                off = np.abs(A - np.diag(np.diag(A))).max(axis=1)
                worst = max(worst, float((off / diag).max()))
            return worst

        assert worst_ratio(1e8) < 0.05 * worst_ratio(1e4)

    def test_normalization_identity(self):
        rng = np.random.default_rng(0)
        H = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        inner = rzf_precoder(H, alpha=0.3, n_streams=4)
        K = np.linalg.inv(H @ H.conj().T + 6 * 0.3 * np.eye(6))
        xi_sq = 4 / np.trace(H.conj().T @ K.conj().T @ K @ H).real
        assert inner.xi_sq == pytest.approx(xi_sq, rel=1e-10)
        assert np.abs(inner.P - np.sqrt(xi_sq) * K @ H).max() < 1e-12

    def test_degenerate_channel_rejected(self):
        with pytest.raises(DegenerateInputError):
            rzf_precoder(np.zeros((4, 2), dtype=complex), 0.1, 2)
        with pytest.raises(InvalidInputError):
            rzf_precoder(np.ones((2, 2)), -1.0, 2)


@pytest.mark.parametrize("mode", ["BD", "BDS"])
def test_transmit_power_equals_total(fig4_scenario, fig4_pre, mode):
    sc = fig4_scenario.with_power_db(10.0)
    channels = draw_trial(sc, RngStream(7, 1))
    precoders = build_all(sc, channels, mode, tau=0.3, preprocessors=fig4_pre)
    per_stream = sc.power / sc.n_users
    total = sum(
        per_stream * np.sum(np.abs(precoders.transmit_matrix(g)) ** 2)
        for g in range(sc.G)
    )
    assert total == pytest.approx(sc.power, rel=1e-8)


def test_bds_reads_only_copolarized_csit(fig4_scenario, fig4_pre):
    # Poison the cross-polarized blocks of the corruption noise: BDS output
    # must stay finite (it consumes half the short-term CSIT), BD must not.
    sc = fig4_scenario.with_chi(0.2)
    channels = draw_trial(sc, RngStream(8, 1))
    poisoned = []
    for entry in channels:
        r = entry.stats.effective_rank
        n2 = entry.n_users // 2
        Z = entry.Z.copy()
        Z[:r, n2:] = np.nan   # cross blocks
        Z[r:, :n2] = np.nan
        poisoned.append(replace(entry, Z=Z))
    poisoned = tuple(poisoned)
    bds = build_all(sc, poisoned, "BDS", tau=0.4, preprocessors=fig4_pre)
    assert np.all(np.isfinite(bds.inner))
    bd = build_all(sc, poisoned, "BD", tau=0.4, preprocessors=fig4_pre)
    assert not np.all(np.isfinite(bd.inner[0]))


def test_bds_copolar_csit_are_blocks_of_h_hat(fig4_scenario, fig4_pre):
    # Under polarization mismatch the BDS subgroups see the co-polarized
    # blocks of the rotated channel's estimate: of H itself at tau = 0.
    sc = fig4_scenario.with_chi(0.2).with_power_db(10.0)
    channels = draw_trial(sc, RngStream(10, 0), theta_max=0.3 * math.pi)
    half, b2 = sc.M // 2, sc.b_bar // 2
    for tau in (0.0, 0.4):
        bds = build_all(sc, channels, "BDS", tau=tau, preprocessors=fig4_pre)
        for entry, pre, P in zip(channels, fig4_pre, bds.inner):
            H_hat = entry.H if tau == 0.0 else entry.h_hat(tau)
            n2 = entry.n_users // 2
            pv, ph = P[:b2, :n2], P[b2:, n2:]
            assert not P[:b2, n2:].any() and not P[b2:, :n2].any()
            for inner, block in ((pv, H_hat[:half, :n2]), (ph, H_hat[half:, n2:])):
                ref = rzf_precoder(pre.B_s.conj().T @ block, 2.0 * sc.alpha, n2)
                np.testing.assert_allclose(inner, ref.P, rtol=1e-9, atol=1e-12)


def test_chi_zero_effective_channel_is_block_diagonal(fig4_scenario, fig4_pre):
    channels = draw_trial(fig4_scenario, RngStream(9, 0))
    entry = channels[0]
    H_eff = fig4_pre[0].bd.conj().T @ entry.h_hat(0.0)
    half = fig4_scenario.b_bar // 2
    n2 = entry.n_users // 2
    assert np.abs(H_eff[half:, :n2]).max() == 0.0
    assert np.abs(H_eff[:half, n2:]).max() == 0.0


def test_single_pol_preprocessor():
    sc = make_scenario(M=40, G=2, n_bar=4, dual_pol=False,
                       thetas=[-0.6, 0.6], spread=math.pi / 10)
    pre = build_preprocessors(sc)
    B = pre[0].bd
    assert B.shape == (40, sc.b_bar)
    assert np.abs(B.conj().T @ B - np.eye(sc.b_bar)).max() < 1e-10


@pytest.mark.parametrize("mode", ["BD", "BDS"])
def test_batched_rzf_equals_per_group_rzf(fig4_scenario, fig4_pre, mode):
    # The groups' effective ranks differ, so their KL blocks differ in
    # size; the one RZF over the stacked groups must still give every
    # group's own RZF bit for bit, at every power the view serves.
    sc = fig4_scenario.with_chi(0.2)
    assert [cov.effective_rank for cov in sc.covariances] == [11, 13, 13, 11]
    T, n, n2 = 5, sc.n_bar, sc.n_bar // 2
    rng = np.random.default_rng(4)
    channels = [channel_from_normals(cov, np.full(T, sc.chi), rng.standard_normal(
        (T, 4, 2 * cov.effective_rank, n))) for cov in sc.covariances]
    tau = np.linspace(0.0, 0.6, T)
    C, _ = kl_projections(fig4_pre, sc.covariances, sc.gains)
    view = csit_view(sc, C, channels, mode, tau)
    for power in (1.0, 31.6, 1000.0):
        scp = sc.with_power(power)
        P = stacked_precoders(scp, view)
        for g, (C_g, entry) in enumerate(zip(C, channels)):
            if mode == "BD":
                X_hat = entry.coefficients_hat(tau)
                H = (C_g @ X_hat.reshape(T, 2, -1, n)).reshape(T, -1, n)
                assert np.array_equal(P[:, g], rzf_precoder(H, scp.alpha, n).P)
                continue
            b2 = C_g.shape[0]
            X_v, X_h = entry.copolar_hat(tau)
            for rows, cols, X in ((slice(None, b2), slice(None, n2), X_v),
                                  (slice(b2, None), slice(n2, None), X_h)):
                want = rzf_precoder(C_g @ X, 2.0 * scp.alpha, n2).P
                assert np.array_equal(P[:, g, rows, cols], want)
            assert not P[:, g, :b2, n2:].any() and not P[:, g, b2:, :n2].any()


def test_rzf_with_its_gram_is_bit_exact():
    rng = np.random.default_rng(5)
    H = rng.standard_normal((3, 2, 16, 8)) + 1j * rng.standard_normal((3, 2, 16, 8))
    gram = H.conj().swapaxes(-1, -2) @ H
    for alpha in (1e-3, 0.5):
        want = rzf_precoder(H, alpha, 8)
        got = rzf_precoder(H, alpha, 8, gram)
        assert np.array_equal(got.P, want.P) and np.array_equal(got.xi_sq, want.xi_sq)


@pytest.mark.parametrize("mode", ["BD", "BDS"])
def test_noise_free_channels_precode_at_perfect_csit(fig4_scenario, fig4_pre, mode):
    # A channel that holds no CSIT noise serves the per-realization API at
    # tau = 0 with the precoders of the same channel with its noise.
    channels = draw_trial(fig4_scenario.with_chi(0.1), RngStream(2, 0))
    clean = tuple(replace(entry, Z=None) for entry in channels)
    want = build_all(fig4_scenario, channels, mode, preprocessors=fig4_pre)
    got = build_all(fig4_scenario, clean, mode, preprocessors=fig4_pre)
    assert np.array_equal(got.inner, want.inner)
