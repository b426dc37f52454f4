import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpol.channel import (
    RngStream,
    _complex,
    _read_group,
    channel_from_normals,
    complex_normal,
    draw_channel,
    draw_mismatched_channel,
    mix_csit,
)
from dualpol.corrstats import GroupGeometry, one_ring_covariance
from dualpol.errors import InvalidInputError
from dualpol.metrics import draw_trial
from dualpol.scenario import make_scenario


@pytest.fixture(scope="module")
def stats():
    return one_ring_covariance(GroupGeometry(0.2, math.pi / 8), 8, 0.5)


def test_chi_zero_vertical_user_has_empty_horizontal_block(stats):
    entry = draw_channel(stats, 0.0, 6, RngStream(1, 0))
    half = stats.dim
    assert np.all(entry.H[half:, :3] == 0.0)   # vertical users, lower block
    assert np.all(entry.H[:half, 3:] == 0.0)   # horizontal users, upper block


def test_reconstruction_invariant(stats):
    # H = [[A Gvv, sqrt(chi) A Ghv], [sqrt(chi) A Gvh, A Ghh]] with G the
    # first normals of the same stream.
    entry = draw_channel(stats, 0.37, 6, RngStream(5, 2))
    r = stats.effective_rank
    normals = RngStream(5, 2).generator().standard_normal((2, 2 * r, 6))
    G = (normals[0] + 1j * normals[1]) / math.sqrt(2.0)
    A, w = stats.factor(), math.sqrt(0.37)
    rebuilt = np.block([[A @ G[:r, :3], w * A @ G[:r, 3:]],
                        [w * A @ G[r:, :3], A @ G[r:, 3:]]])
    assert np.abs(rebuilt - entry.H).max() < 1e-12


def test_determinism(stats):
    a = draw_channel(stats, 0.5, 4, RngStream(11, 3))
    b = draw_channel(stats, 0.5, 4, RngStream(11, 3))
    assert np.array_equal(a.H, b.H) and np.array_equal(a.Z, b.Z)
    c = draw_channel(stats, 0.5, 4, RngStream(11, 4))
    assert not np.array_equal(a.H, c.H)


def test_odd_user_count_rejected(stats):
    with pytest.raises(InvalidInputError):
        draw_channel(stats, 0.0, 5, RngStream(1, 0))


@pytest.mark.parametrize("k", [4, 6])
def test_complex_assembly_matches_the_division_bit_for_bit(k):
    # channel_from_normals reads the parts as strided views of trial-stacked
    # normals (T, k, rows, n); the part-wise assembly must give the bits of
    # the complex division it replaces.
    normals = RngStream(11, 0).generator().standard_normal((64, k, 22, 8))
    for j in range(0, k, 2):
        x, y = normals[..., j, :, :], normals[..., j + 1, :, :]
        got = _complex(x, y)
        want = (x + 1j * y) / np.sqrt(2.0)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got.view(float), want.view(float))


@pytest.mark.parametrize("theta_max", [None, 0.3 * math.pi], ids=["aligned", "mismatched"])
def test_noise_free_draw_reads_the_same_stream(stats, theta_max):
    # Reading the CSIT noise into a scratch array and dropping it leaves the
    # stream where keeping it does: the same X and angles, and no Z.
    rows, n = 2 * stats.effective_rank, 6
    k = 4 if theta_max is None else 6
    kept, dropped = np.empty((k, rows, n)), np.empty((k - 2, rows, n))
    gen_kept, gen_dropped = RngStream(9, 1).generator(), RngStream(9, 1).generator()
    angles = _read_group(gen_kept, kept, theta_max)
    angles_dropped = _read_group(gen_dropped, dropped, theta_max, np.empty(2 * rows * n + 5))
    assert gen_kept.standard_normal() == gen_dropped.standard_normal()
    assert np.array_equal(angles, angles_dropped) or angles is angles_dropped is None
    noisy = channel_from_normals(stats, 0.3, kept, angles)
    clean = channel_from_normals(stats, 0.3, dropped, angles_dropped)
    assert clean.Z is None and np.array_equal(clean.X, noisy.X)
    assert np.array_equal(clean.h_hat(0.0), noisy.H)
    with pytest.raises(InvalidInputError):
        clean.coefficients_hat(0.1)


def _column_sample_cov(stats, chi, n_draws, cols, theta_max=None, seed=3):
    """Sample covariance of the columns ``cols`` of ``n_draws`` 8-user draws
    read from one stream in the order of ``draw_channel`` (a block of draws
    is one block of normals) or ``draw_mismatched_channel`` (read per draw,
    like ``metrics._draw_block``), stacked along a leading trial axis."""
    gen = RngStream(seed, 0).generator()
    rows = 2 * stats.effective_rank
    block = 5000  # draws per stacked read, which bounds the memory
    acc = 0.0
    for first in range(0, n_draws, block):
        T = min(block, n_draws - first)
        if theta_max is None:
            normals, angles = gen.standard_normal((T, 4, rows, 8)), None
        else:
            normals, angles = np.empty((T, 6, rows, 8)), np.empty((T, 8))
            for t in range(T):
                angles[t] = _read_group(gen, normals[t], theta_max)
        H = channel_from_normals(stats, chi, normals, angles).H[..., cols]
        Y = H.transpose(1, 0, 2).reshape(H.shape[1], -1)
        acc = acc + Y @ Y.conj().T
    return acc / (n_draws * len(cols))


def test_chi_one_column_covariance(stats):
    # chi = 1: every column has covariance blockdiag(R, R); 1e5 samples, 2 %.
    R = stats.matrix
    target = np.block([[R, np.zeros_like(R)], [np.zeros_like(R), R]])
    sample = _column_sample_cov(stats, 1.0, 25000, [0, 1, 2, 3])
    err = np.linalg.norm(sample - target) / np.linalg.norm(target)
    assert err < 0.02


def test_group_covariance_sums_to_closed_form(stats):
    # R_gv + R_gh = (1+chi) I_2 (x) R^s
    chi = 0.3
    R = stats.matrix
    z = np.zeros_like(R)
    target = (1 + chi) * np.block([[R, z], [z, R]])
    cov_v = _column_sample_cov(stats, chi, 15000, [0, 1, 2, 3], seed=4)
    cov_h = _column_sample_cov(stats, chi, 15000, [4, 5, 6, 7], seed=5)
    err = np.linalg.norm(cov_v + cov_h - target) / np.linalg.norm(target)
    assert err < 0.03


def test_mismatched_subgroup_covariance(stats):
    # c_eff * blockdiag(R, chi_eff R) for the vertical subgroup.
    from dualpol.corrstats import mismatch_effective_stats

    chi, theta_max = 0.2, 0.3 * math.pi
    ms = mismatch_effective_stats(chi, theta_max)
    R = stats.matrix
    z = np.zeros_like(R)
    target = ms.c_eff * np.block([[R, z], [z, ms.chi_eff * R]])
    sample = _column_sample_cov(stats, chi, 25000, [0, 1, 2, 3], theta_max=theta_max)
    err = np.linalg.norm(sample - target) / np.linalg.norm(target)
    assert err < 0.02


def test_mismatch_zero_angle_matches_plain_draw(stats):
    plain = draw_channel(stats, 0.4, 6, RngStream(9, 1))
    matched = draw_mismatched_channel(stats, 0.4, 0.0, 6, RngStream(9, 1))
    assert np.abs(matched.H - plain.H).max() < 1e-15


def test_quarter_turn_moves_vertical_user_to_horizontal_block(stats):
    # chi = 0 and theta = pi/2: cos factor vanishes, all energy in the
    # cross-polarized block.
    r = stats.effective_rank
    normals = RngStream(2, 0).generator().standard_normal((6, 2 * r, 4))
    H = channel_from_normals(stats, 0.0, normals,
                             angles=np.full(4, math.pi / 2)).H
    assert np.abs(H[:stats.dim, :2]).max() < 1e-12
    assert np.abs(H[stats.dim:, :2]).max() > 0.0


def test_rotation_sign_does_not_change_copolar_power(stats):
    # Vertical users' upper-block power is (cos^2 + chi sin^2) tr R for
    # either sign of the angle; 1000 users per sign, 5 %.
    chi, theta_max = 0.5, 0.4 * math.pi
    entry = draw_mismatched_channel(stats, chi, theta_max, 4000, RngStream(21, 0))
    vertical = entry.mismatch_angles[:2000]
    power = np.sum(np.abs(entry.H[:stats.dim, :2000]) ** 2, axis=0)
    expected = ((np.cos(vertical) ** 2 + chi * np.sin(vertical) ** 2)
                * np.trace(stats.matrix).real)
    for side in (vertical > 0, vertical < 0):
        assert power[side].mean() == pytest.approx(expected[side].mean(), rel=0.05)


def test_mismatched_csit_is_the_rotated_channel(stats):
    entry = draw_mismatched_channel(stats, 0.3, 0.4 * math.pi, 6, RngStream(4, 0))
    assert np.array_equal(entry.h_hat(0.0), entry.H)


def test_mismatched_csit_keeps_tau_meaning(stats):
    # corr(H_hat, H) = sqrt(1 - tau^2) and equal power, per block, over
    # 2 x 4000 columns; 2 %.
    tau = 0.6
    entry = draw_mismatched_channel(stats, 0.2, 0.3 * math.pi, 4000, RngStream(6, 0))
    H, H_hat = entry.H, entry.h_hat(tau)
    for rows in (slice(None, stats.dim), slice(stats.dim, None)):
        a, b = H[rows], H_hat[rows]
        assert np.vdot(b, b).real == pytest.approx(np.vdot(a, a).real, rel=0.02)
        corr = np.vdot(a, b).real / np.vdot(a, a).real
        assert corr == pytest.approx(math.sqrt(1.0 - tau * tau), rel=0.02)


def test_single_pol_draw():
    sc = make_scenario(M=8, G=1, n_bar=4, spread=math.pi / 8, thetas=[0.2], dual_pol=False)
    [entry] = draw_trial(sc, RngStream(3, 0))
    assert entry.H.shape == (entry.stats.dim, 4)
    assert entry.pols == 1


def corrupted(G, tau, stream):
    """G mixed with CSIT noise drawn from ``stream``."""
    return mix_csit(G, complex_normal(stream.generator(), G.shape), tau)


class TestCorruptCsit:
    def test_tau_zero_is_identity(self):
        G = np.arange(12).reshape(3, 4) + 0j
        assert np.array_equal(corrupted(G, 0.0, RngStream(1, 0)), G)

    def test_tau_one_is_independent(self):
        gen = RngStream(8, 0).generator()

        G = complex_normal(gen, (250, 400))
        G_hat = corrupted(G, 1.0, RngStream(8, 1))
        corr = np.abs(np.vdot(G, G_hat)) / (np.linalg.norm(G) * np.linalg.norm(G_hat))
        assert corr < 0.01

    def test_tau_06_correlation(self):
        # corr(G_hat, G) = sqrt(1 - 0.36) = 0.8 within 1 % over 1e5 entries
        gen = RngStream(8, 2).generator()

        G = complex_normal(gen, (250, 400))
        G_hat = corrupted(G, 0.6, RngStream(8, 3))
        corr = np.real(np.vdot(G, G_hat)) / (np.linalg.norm(G) * np.linalg.norm(G_hat))
        assert corr == pytest.approx(0.8, rel=0.01)

    @given(tau=st.floats(0.0, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_variance_preserved(self, tau):
        gen = np.random.default_rng(17)

        G = complex_normal(gen, (200, 250))
        Z = complex_normal(gen, (200, 250))
        mixed = mix_csit(G, Z, tau)
        assert np.mean(np.abs(mixed) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_rejects_bad_tau(self):
        with pytest.raises(InvalidInputError):
            mix_csit(np.zeros((2, 2)), np.zeros((2, 2)), 1.5)
