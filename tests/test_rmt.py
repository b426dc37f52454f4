import csv
import math
import os

import numpy as np
import pytest

from dualpol.channel import complex_normal
from dualpol.corrstats import SpatialCovariance
from dualpol.errors import InvalidInputError, NonConvergenceError
from dualpol.rmt import (
    FixedPointProblem,
    approx_bds_chi,
    asym_bd,
    asym_bds,
    bds_c0,
    solve_fixed_point,
)
from dualpol.scenario import GroupScenario, make_scenario


def isotropic_root(c, alpha):
    """Positive root of alpha e^2 + (c + alpha - 1) e - 1 = 0."""
    b = c + alpha - 1.0
    return (-b + math.sqrt(b * b + 4.0 * alpha)) / (2.0 * alpha)


class TestFixedPoint:
    def test_isotropic_matches_quadratic_root(self):
        M, N, alpha = 64, 32, 0.4
        prob = FixedPointProblem(covariances=(np.eye(M),), multiplicities=(N,),
                                 S=None, z=-alpha, M=M)
        res = solve_fixed_point(prob)
        expected = isotropic_root(N / M, alpha)
        assert res.e[0] == pytest.approx(expected, abs=1e-10)
        assert res.residual < 1e-10
        assert res.iterations >= 1

    def test_no_users_returns_shift_resolvent(self):
        S = np.diag([1.0, 2.0, 3.0])
        prob = FixedPointProblem(covariances=(), multiplicities=(), S=S,
                                 z=-0.5, M=3)
        res = solve_fixed_point(prob)
        assert np.abs(res.T - np.linalg.inv(S + 0.5 * np.eye(3))).max() < 1e-12

    def test_monte_carlo_resolvent_trace(self):
        # (1/M) tr(Q (HH^H + S + aI)^-1) over 50 draws vs (1/M) tr(Q T)
        M, alpha = 200, 0.3
        rng = np.random.default_rng(42)
        A = rng.standard_normal((M, M)) / math.sqrt(M)
        R1 = A @ A.T + 0.5 * np.eye(M)
        R1 *= M / np.trace(R1)
        B = rng.standard_normal((M, M)) / math.sqrt(M)
        R2 = B @ B.T + 0.1 * np.eye(M)
        R2 *= M / np.trace(R2)
        S = 0.2 * np.eye(M)
        Q = np.diag(rng.uniform(0.5, 1.5, M))
        n1, n2 = 60, 80
        prob = FixedPointProblem(covariances=(R1, R2), multiplicities=(n1, n2),
                                 S=S, z=-alpha, M=M)
        res = solve_fixed_point(prob)
        det_eq = np.trace(Q @ res.T).real / M
        L1, L2 = np.linalg.cholesky(R1), np.linalg.cholesky(R2)
        acc = 0.0
        for _ in range(50):
            H1 = L1 @ complex_normal(rng, (M, n1))
            H2 = L2 @ complex_normal(rng, (M, n2))
            HH = (H1 @ H1.conj().T + H2 @ H2.conj().T) / M
            acc += np.trace(Q @ np.linalg.inv(HH + S + alpha * np.eye(M))).real / M
        assert acc / 50 == pytest.approx(det_eq, rel=0.02)

    def test_diagonal_classes_match_dense(self):
        rng = np.random.default_rng(3)
        d1, d2 = rng.uniform(0.01, 2.0, (2, 12))
        s = rng.uniform(0.0, 0.5, 12)
        diag = solve_fixed_point(FixedPointProblem(
            covariances=(d1, d2), multiplicities=(5, 7), S=s, z=-0.2, M=12))
        dense = solve_fixed_point(FixedPointProblem(
            covariances=(np.diag(d1), np.diag(d2)), multiplicities=(5, 7),
            S=np.diag(s), z=-0.2, M=12))
        assert diag.iterations == dense.iterations
        assert np.allclose(diag.e, dense.e, rtol=1e-13, atol=0.0)
        assert np.allclose(diag.T, np.diag(dense.T).real, rtol=1e-13, atol=0.0)

    def test_mixed_class_forms_rejected(self):
        with pytest.raises(InvalidInputError):
            FixedPointProblem(covariances=(np.ones(3), np.eye(3)),
                              multiplicities=(1, 1), S=None, z=-0.5, M=3)
        with pytest.raises(InvalidInputError):
            FixedPointProblem(covariances=(np.ones(3),), multiplicities=(1,),
                              S=np.eye(3), z=-0.5, M=3)

    def test_nonconvergence_carries_residual(self):
        prob = FixedPointProblem(covariances=(np.eye(32),), multiplicities=(16,),
                                 S=None, z=-0.1, M=32)
        with pytest.raises(NonConvergenceError) as err:
            solve_fixed_point(prob, tol=1e-14, max_iter=2)
        assert err.value.residual is not None and err.value.residual > 0


DE_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "data", "de_reference.csv")
DE_FIELDS = ("gamma", "m0", "m_prime", "xi_sq", "psi", "upsilon_intra",
             "upsilon_cross", "upsilon_inter")


def test_de_matches_pinned_reference(fig4_scenario):
    """``tests/data/de_reference.csv`` pins asym_bd and asym_bds on the fig4
    cell (SNR {0, 15, 30} dB x chi {0, 0.3, 1} x tau^2 {0, 0.1}) at 17
    significant digits, one row per (group, polarization), as computed by
    dense-matrix solvers that inverted a B_bar x B_bar resolvent in every
    fixed-point step. Every value holds to 1e-12 relative and every
    iteration count exactly."""
    with open(DE_REFERENCE, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    cells = {}
    for row in rows:
        key = (row["scheme"], float(row["snr_db"]), float(row["chi"]), float(row["tau_sq"]))
        cells.setdefault(key, []).append(row)
    assert len(cells) == 36
    for (scheme, snr, chi, tau_sq), ref in cells.items():
        solver = asym_bd if scheme == "BD" else asym_bds
        sol = solver(fig4_scenario.with_chi(chi).with_power_db(snr), tau_sq=tau_sq)
        got = {f: getattr(sol, f) for f in DE_FIELDS}
        got["chi_slope"] = sol.extras.get("chi_slope")
        assert len(ref) == sol.gamma.size
        for row in ref:
            where = (scheme, snr, chi, tau_sq, row["g"], row["p"])
            assert sol.iterations == int(row["iterations"]), where
            assert sol.sum_rate == pytest.approx(float(row["sum_rate"]), rel=1e-12, abs=0.0)
            for name, arr in got.items():
                if row[name] == "":
                    assert arr is None, (where, name)
                    continue
                want = float(row[name])
                assert arr[int(row["g"]), int(row["p"])] == pytest.approx(
                    want, rel=1e-12, abs=0.0), (where, name)


@pytest.fixture(scope="module")
def fig6(fig4_scenario):
    return fig4_scenario.with_power_db(15.0)


class TestBdAsymptotics:
    def test_gamma_independent_of_polarization(self, fig6):
        sol = asym_bd(fig6.with_chi(0.4))
        assert np.abs(sol.gamma[:, 0] - sol.gamma[:, 1]).max() < 1e-10

    def test_perfect_csit_reduction(self, fig6):
        # tau = 0 wipes the tau-weighted terms; at_tau re-assembly agrees
        # with a fresh solve
        full = asym_bd(fig6, tau_sq=0.1)
        re = asym_bd(fig6, tau_sq=0.0).at_tau(0.1)
        assert np.abs(full.gamma - re.gamma).max() < 1e-12
        perfect = full.at_tau(0.0)
        u = (1.0 + full.m0) ** 2
        manual = (fig6.power / fig6.n_users) * full.xi_sq * full.m0 ** 2 / (
            full.xi_sq * full.upsilon_intra + (1.0 + full.upsilon_inter) * u)
        assert np.abs(perfect.gamma - manual).max() < 1e-12

    def test_single_group_isotropic_closed_form(self):
        # G = 1, R^s = I: the fixed point solves a scalar quadratic
        n_half, n_bar, b_bar, chi, P = 16, 8, 12, 0.4, 8.0
        cov = SpatialCovariance.from_matrix(np.eye(n_half))
        sc = GroupScenario(M=2 * n_half, n_bar=n_bar, b_bar=b_bar, r=10,
                           covariances=(cov,), chi=chi, power=P)
        sol = asym_bd(sc)
        kappa = (1.0 + chi) / 2.0
        alpha = n_bar / (b_bar * P)
        b = kappa * (n_bar / b_bar - 1.0) + alpha
        root = (-b + math.sqrt(b * b + 4.0 * alpha * kappa)) / (2.0 * alpha)
        assert sol.m0[0, 0] == pytest.approx(root, abs=1e-9)

    def test_positive_finite_over_power_range(self, fig4_scenario):
        for p in [1e-2, 1.0, 1e2, 1e4]:
            for sol in (asym_bd(fig4_scenario.with_power(p), tau_sq=0.2),
                        asym_bds(fig4_scenario.with_power(p), tau_sq=0.2)):
                assert np.all(sol.gamma > 0.0)
                assert np.all(np.isfinite(sol.gamma))
                assert sol.residual < 1e-10


@pytest.mark.parametrize("solver", [asym_bd, asym_bds])
def test_single_polarized_array_rejected(solver):
    sc = make_scenario(M=24, G=2, n_bar=4, dual_pol=False, enforce_rank_constraint=False)
    with pytest.raises(InvalidInputError, match="dual-polarized"):
        solver(sc.with_power_db(10.0), tau_sq=0.1)


class TestBdsAsymptotics:
    def test_chi_zero_equals_bd(self, fig4_scenario):
        for snr in [0.0, 10.0, 20.0, 30.0]:
            sc = fig4_scenario.with_power_db(snr)
            g_bd = asym_bd(sc, tau_sq=0.05).gamma
            g_bds = asym_bds(sc, tau_sq=0.05).gamma
            assert np.abs(g_bds - g_bd).max() / g_bd.min() < 1e-6

    def test_polarization_symmetry(self, fig6):
        sol = asym_bds(fig6.with_chi(0.3))
        assert np.abs(sol.gamma[:, 0] - sol.gamma[:, 1]).max() < 1e-12

    def test_decays_with_chi_while_bd_stays_flat(self, fig6):
        bd0 = asym_bd(fig6).mean_gamma()
        bds0 = asym_bds(fig6).mean_gamma()
        bd5 = asym_bd(fig6.with_chi(0.5)).mean_gamma()
        bds5 = asym_bds(fig6.with_chi(0.5)).mean_gamma()
        assert abs(bd5 - bd0) / bd0 < 0.05
        assert bds5 < 0.7 * bds0


class TestChiApproximations:
    def test_bds_identity_at_zero(self, fig6):
        base = asym_bds(fig6, tau_sq=0.1)
        out = approx_bds_chi(base, 0.0)
        assert np.array_equal(out.gamma, base.gamma)

    @pytest.mark.parametrize("tau_sq", [0.0, 0.1])
    def test_bds_law_matches_full_solver(self, fig6, tau_sq):
        # Fig-6 scenario, chi = 0.3: within 10 % of the full solver
        base = asym_bds(fig6, tau_sq=tau_sq)
        for chi in [0.1, 0.3, 0.5]:
            full = asym_bds(fig6.with_chi(chi), tau_sq=tau_sq).mean_gamma()
            appr = approx_bds_chi(base, chi).mean_gamma()
            assert abs(appr - full) / full < 0.10

    def test_monotone_decreasing(self, fig6):
        base = asym_bds(fig6)
        assert bds_c0(base) > 0.0
        gammas = [approx_bds_chi(base, chi).mean_gamma()
                  for chi in [0.0, 0.2, 0.4, 0.8]]
        assert all(b < a for a, b in zip(gammas, gammas[1:]))

    def test_xi_grows_with_chi_at_high_snr(self, fig4_scenario):
        # high-SNR trend: xi^2(chi) rises toward (1+chi) xi^2(0); the
        # asymptotic constant is approached extremely slowly, so only the
        # bracket is asserted.
        sc = fig4_scenario.with_power_db(30.0)
        x0 = asym_bd(sc).xi_sq[0, 0]
        x1 = asym_bd(sc.with_chi(1.0)).xi_sq[0, 0]
        assert 1.0 < x1 / x0 <= 2.0


def test_mc_gap_shrinks_with_m():
    # deterministic-equivalent consistency: the MC-vs-DE gap at fixed ratios
    # drops as the dimensions grow
    from dualpol.metrics import run_paired

    gaps = []
    for (M, nb, bb, r, trials) in [(40, 2, 4, 4, 300), (120, 8, 16, 11, 150)]:
        sc = make_scenario(M=M, G=4, n_bar=nb, b_bar=bb, r=r,
                           chi=0.0).with_power_db(5.0)
        de = asym_bd(sc).mean_gamma()
        res = run_paired(sc, ["BD"], trials, 19)["BD"]
        eff = 2.0 ** (res.sum_rate / sc.n_users) - 1.0
        gaps.append(abs(eff - de) / de)
    assert gaps[1] < gaps[0]
