import csv
import math
import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import dualpol.rmt as rmt
from dualpol.channel import complex_normal
from dualpol.corrstats import SpatialCovariance
from dualpol.errors import DualpolError, InvalidInputError, NonConvergenceError
from dualpol.metrics import run_paired
from dualpol.modeswitch import csit_tau_sq
from dualpol.precode import build_preprocessors
from dualpol.rmt import (
    FixedPointProblem,
    approx_bds_chi,
    asym_bd,
    asym_bds,
    asym_sweep,
    bds_c0,
    solve_fixed_point,
)
from dualpol.scenario import GroupScenario, SweepPoint, make_scenario, power_from_db
from reference import DE_REFERENCE_CELLS, DE_REFERENCE_FIELDS, damped_fixed_points


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

    def test_fractional_multiplicity_is_kept(self):
        # A class mixture weighs its classes by fractional multiplicities;
        # truncating 32.5 to 32 would move e by about 1e-2.
        M, N, alpha = 64, 32.5, 0.4
        prob = FixedPointProblem(covariances=(np.eye(M),), multiplicities=(N,),
                                 S=None, z=-alpha, M=M)
        res = solve_fixed_point(prob)
        assert res.e[0] == pytest.approx(isotropic_root(N / M, alpha), abs=1e-10)

    @pytest.mark.parametrize("n, M, match", [(-2, 4, "nonnegative"),
                                             (2, 0, "M must be at least 1")])
    def test_invalid_multiplicity_or_normalizer_rejected(self, n, M, match):
        with pytest.raises(InvalidInputError, match=match):
            FixedPointProblem(covariances=(np.eye(4),), multiplicities=(n,),
                              S=None, z=-0.4, M=M)

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

    @pytest.mark.parametrize("dense", [False, True])
    def test_jacobian_matches_central_differences(self, dense):
        """``rmt._jacobian`` against central differences of the fixed-point
        map f(e)_p = (1/M) tr(R_p T(e)): two classes with unequal
        multiplicities, a shift S != 0 and M != dim."""
        rng = np.random.default_rng(11)
        dim, M, z, n = 12, 10, -0.2, np.array([5.0, 7.0])
        if dense:
            A, B = (rng.standard_normal((2, 2, dim, dim))
                    + 1j * rng.standard_normal((2, 2, dim, dim)))
            R = A @ np.swapaxes(A, -1, -2).conj() / dim
            base = 0.3 * B[0] @ B[0].conj().T / dim - z * np.eye(dim)

            def f(e):
                T = np.linalg.inv(base + np.tensordot(n / (M * (1.0 + e)), R, axes=1))
                return np.einsum("pij,ji->p", R, T).real / M, T
        else:
            R = rng.uniform(0.01, 2.0, (2, dim))
            base = rng.uniform(0.1, 0.5, dim) - z

            def f(e):
                T = 1.0 / (base + np.tensordot(n / (M * (1.0 + e)), R, axes=1))
                return (R * T).sum(axis=1) / M, T

        e, h = np.array([0.8, 1.7]), 1e-6
        fd = np.column_stack([(f(e + h * step)[0] - f(e - h * step)[0]) / (2.0 * h)
                              for step in np.eye(2)])
        J = rmt._jacobian(R[None], f(e)[1][None], e[None], n, M)[0]
        np.testing.assert_allclose(J, fd, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("j_first", [0.99, 1.0])
    def test_newton_iterate_off_the_positive_orthant_takes_the_plain_step(self, monkeypatch,
                                                                          j_first):
        # Isotropic, n/M = 1/2, alpha = 0.4: from e0 = 1/alpha = 2.5 the map
        # gives f(e0) = 1/(0.5/3.5 + 0.4). A first Jacobian of 0.99 sends the
        # Newton iterate to e0 - 100 (e0 - f(e0)) < 0, one of 1 makes I - J
        # singular; either way the member steps to f(e0) and goes on.
        prob = FixedPointProblem(covariances=(np.eye(64),), multiplicities=(32,),
                                 S=None, z=-0.4, M=64)
        want = solve_fixed_point(prob)
        jacobian, seen = rmt._jacobian, []

        def steep_first(classes, T, e, n, M):
            seen.append(e.copy())
            J = jacobian(classes, T, e, n, M)
            return np.full_like(J, j_first) if len(seen) == 1 else J

        monkeypatch.setattr(rmt, "_jacobian", steep_first)
        got = solve_fixed_point(prob)
        assert seen[1][0, 0] == pytest.approx(1.0 / (0.5 / 3.5 + 0.4), rel=1e-14, abs=0.0)
        assert got.e[0] == pytest.approx(want.e[0], rel=1e-13, abs=0.0)

    def test_nonconvergence_carries_residual(self, monkeypatch):
        monkeypatch.setattr(rmt, "FIXED_POINT_TOL", 1e-14)
        monkeypatch.setattr(rmt, "FIXED_POINT_MAX_ITER", 2)
        prob = FixedPointProblem(covariances=(np.eye(32),), multiplicities=(16,),
                                 S=None, z=-0.1, M=32)
        with pytest.raises(NonConvergenceError) as err:
            solve_fixed_point(prob)
        assert err.value.residual is not None and err.value.residual > 0


DE_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "data", "de_reference.csv")


def test_de_matches_pinned_reference(fig4_scenario):
    """``tests/data/de_reference.csv`` pins asym_bd and asym_bds on the fig4
    cell (SNR {0, 15, 30} dB x chi {0, 0.3, 1} x tau^2 {0, 0.1}) at 17
    significant digits, one row per (group, polarization), as computed by
    the spectral solver with Newton steps on the fixed point. Every value
    holds to 1e-12 relative and every iteration count exactly. The pins are
    checked independently against the damped iteration run to the float
    floor (``test_newton_matches_damped_iteration_at_the_float_floor``);
    they are regenerated with

        PYTHONPATH=src python tests/reference.py > tests/data/de_reference.csv
    """
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
        got = {f: getattr(sol, f) for f in DE_REFERENCE_FIELDS + ("chi_slope",)}
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


def test_newton_matches_damped_iteration_at_the_float_floor(fig4_scenario, monkeypatch):
    """Every pinned cell's solution is within 5e-13 relative, field by
    field, of the same solution with its fixed points solved by the damped
    plain iteration run to the float floor (``damped_fixed_points``)."""
    points = [SweepPoint(power_from_db(snr), chi) for _, snr, chi, _ in DE_REFERENCE_CELLS]

    def pinned_cells():
        # Each cell's own scheme at its own tau^2, which enters only the
        # SINR assembly.
        sweep = asym_sweep(fig4_scenario, ["BD", "BDS"], points)
        return [replace(sol[s], tau_sq=t) for (s, _, _, t), sol in zip(DE_REFERENCE_CELLS, sweep)]

    newton = pinned_cells()
    monkeypatch.setattr(rmt, "_fixed_points", damped_fixed_points)
    damped = pinned_cells()
    for p, got, want in zip(DE_REFERENCE_CELLS, newton, damped):
        assert got.sum_rate == pytest.approx(want.sum_rate, rel=5e-13, abs=0.0), p
        for name in DE_REFERENCE_FIELDS:
            np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                       rtol=5e-13, atol=0.0, err_msg=f"{p} {name}")


# ----------------------------------------------------------------------
# asym_sweep: one geometry, many points. Each point's solution must be that
# of its own one-point call on a fresh scenario, bit for bit; the one-point
# values are pinned above.
# ----------------------------------------------------------------------

SWEEP_FIELDS = ("sum_rate", "gamma", "m0", "m_prime", "xi_sq", "psi", "upsilon_intra",
                "upsilon_cross", "upsilon_inter", "chi_slope", "iterations", "residual",
                "tau_sq")


def fig4_sweep_points():
    """The pinned fig4 grid's (SNR, chi, BD's tau^2) points, then an n_bits
    point, where each scheme takes its RVQ tau^2."""
    return [SweepPoint(power_from_db(snr), chi, tau_sq) for snr in (0.0, 15.0, 30.0)
            for chi in (0.0, 0.3, 1.0) for tau_sq in (0.0, 0.1)] + [
        SweepPoint(power_from_db(25.0), 0.2, n_bits=60)]


def test_sweep_equals_one_point_calls(fig4_scenario):
    points = fig4_sweep_points()
    # The scenario's own power and chi are not read.
    sweep = asym_sweep(fig4_scenario.with_chi(0.55).with_power(7.0), ["BD", "BDS"], points)
    assert len(sweep) == len(points)
    for p, got_p in zip(points, sweep):
        for scheme in ("BD", "BDS"):
            got = got_p[scheme]
            solver = asym_bd if scheme == "BD" else asym_bds
            tau_sq = csit_tau_sq(p.tau_sq, p.n_bits, fig4_scenario.r, scheme)
            want = solver(fig4_scenario.with_chi(p.chi).with_power(p.power), tau_sq=tau_sq)
            where = (scheme, p)
            assert got.scheme == scheme
            for name in SWEEP_FIELDS:
                assert np.array_equal(getattr(got, name), getattr(want, name)), (where, name)


def test_sweep_builds_the_geometry_once(fig4_scenario, monkeypatch):
    builds, solves, powers, qualities = [], [], [], []

    def counted_build(scenario):
        builds.append(scenario)
        return build_preprocessors(scenario)

    def counted_solve(classes, *args):
        solves.append(classes.shape[:2])
        return fixed_points(classes, *args)

    def counted_with_power(scenario, power):
        powers.append(power)
        return with_power(scenario, power)

    def counted_quality(tau_sq, n_bits, *args):
        qualities.append((tau_sq, n_bits))
        return csit_tau_sq(tau_sq, n_bits, *args)

    fixed_points, with_power = rmt._fixed_points, GroupScenario.with_power
    monkeypatch.setattr(rmt, "build_preprocessors", counted_build)
    monkeypatch.setattr(rmt, "_fixed_points", counted_solve)
    monkeypatch.setattr(GroupScenario, "with_power", counted_with_power)
    monkeypatch.setattr(rmt, "csit_tau_sq", counted_quality)
    points = fig4_sweep_points()
    asym_sweep(fig4_scenario, ["BD", "BDS"], points)
    assert len(builds) == 1
    # Each distinct power takes one scenario, and each distinct CSIT
    # quality one tau^2 per scheme.
    assert Counter(powers) == Counter({p.power for p in points})
    assert Counter(qualities) == Counter(dict.fromkeys([(p.tau_sq, p.n_bits) for p in points], 2))
    # One batched fixed point per BD power, with every group at every
    # distinct chi of that power as a member, and one per BDS power, with
    # every group; BD's members have two classes, BDS's one.
    G = fig4_scenario.G
    bd = {}
    for p in points:
        bd.setdefault(p.power, set()).add(p.chi)
    bds = {p.power for p in points}
    assert sorted(solves) == sorted([(G * len(chis), 2) for chis in bd.values()]
                                    + [(G, 1)] * len(bds))


def test_sweep_members_do_not_depend_on_their_batch(fig4_scenario):
    """A point's solution is the same bits whether its chi shares the
    batched fixed point with the sweep's other chi, in either order, or is
    solved alone."""
    modes = ["BD", "BDS"]
    points = [SweepPoint(power_from_db(snr), chi, t)
              for snr in (0.0, 25.0) for chi in (0.0, 0.1, 0.3, 0.7, 1.0) for t in (0.0, 0.2)]
    forward = asym_sweep(fig4_scenario, modes, points)
    backward = asym_sweep(fig4_scenario, modes, points[::-1])[::-1]
    for p, a, b in zip(points, forward, backward):
        for s in modes:
            alone = asym_sweep(fig4_scenario, [s], [p])[0][s]
            for name in SWEEP_FIELDS:
                want = getattr(alone, name)
                assert np.array_equal(getattr(a[s], name), want), (s, p, name)
                assert np.array_equal(getattr(b[s], name), want), (s, p, name)


def test_sweep_rejects_unknown_schemes(fig4_scenario):
    with pytest.raises(InvalidInputError, match="unknown schemes: SWITCH"):
        asym_sweep(fig4_scenario, ["BD", "SWITCH"], [SweepPoint(1.0, 0.0)])


def test_sweep_rejects_a_repeated_scheme(fig4_scenario):
    with pytest.raises(InvalidInputError, match="a scheme is listed twice"):
        asym_sweep(fig4_scenario, ["BDS", "BD", "BDS"], [SweepPoint(1.0, 0.0)])


# Points that both engines reject, each with the one message of its rule.
BAD_POINTS = [
    pytest.param(SweepPoint(chi=2.0), r"chi must lie in \[0, 1\]", id="chi=2"),
    pytest.param(SweepPoint(chi=-0.5), r"chi must lie in \[0, 1\]", id="chi=-0.5"),
    pytest.param(SweepPoint(chi=math.nan), r"chi must lie in \[0, 1\]", id="chi=nan"),
    pytest.param(SweepPoint(tau_sq=-0.2), "tau_sq must be nonnegative", id="tau_sq=-0.2"),
    pytest.param(SweepPoint(power=0.0), "power must be positive and finite", id="power=0"),
    pytest.param(SweepPoint(power=math.inf), "power must be positive and finite", id="power=inf"),
    pytest.param(SweepPoint(power=-1.0), "power must be positive and finite", id="power=-1"),
]


@pytest.mark.parametrize("engine", ["DE", "MC"])
@pytest.mark.parametrize("point, message", BAD_POINTS)
def test_both_engines_reject_the_same_points(small_scenario, engine, point, message):
    sc = small_scenario.with_power(10.0)
    with pytest.raises(DualpolError, match=message):
        if engine == "DE":
            asym_sweep(sc, ["BD", "BDS"], [point])
        else:
            run_paired(sc, ["BD", "BDS"], 2, 1, [point])


def test_both_engines_clamp_tau_sq_at_one(small_scenario):
    sc = small_scenario.with_power(10.0)
    points = [SweepPoint(tau_sq=1.5), SweepPoint(tau_sq=1.0)]
    over, one = asym_sweep(sc, ["BD", "BDS"], points)
    mc_over, mc_one = run_paired(sc, ["BD", "BDS"], 3, 1, points)
    for s in ("BD", "BDS"):
        assert over[s].tau_sq == 1.0 and over[s].sum_rate == one[s].sum_rate
        assert np.array_equal(mc_over[s].trial_sum_rates, mc_one[s].trial_sum_rates)


@pytest.mark.parametrize("solver", [asym_bd, asym_bds])
def test_one_point_calls_check_and_clamp_their_own_tau_sq(small_scenario, solver):
    sc = small_scenario.with_power(10.0)
    with pytest.raises(InvalidInputError, match="tau_sq must be nonnegative"):
        solver(sc, tau_sq=-0.2)
    over, one = solver(sc, tau_sq=1.5), solver(sc, tau_sq=1.0)
    assert over.tau_sq == 1.0 and over.sum_rate == one.sum_rate


def test_sweep_rejects_mismatched_points(small_scenario):
    with pytest.raises(InvalidInputError, match="theta_max = 0"):
        asym_sweep(small_scenario, ["BD"], [SweepPoint(theta_max=0.3)])


@pytest.mark.parametrize("point", [SweepPoint(chi=(0.0, 0.5)), SweepPoint(tau_sq=(0.0, 1.0)),
                                   SweepPoint(chi=(0.2, 0.2))],
                         ids=["chi", "tau_sq", "chi~(0.2,0.2)"])
def test_sweep_rejects_drawn_points(small_scenario, point):
    # The deterministic equivalents take one chi and one tau^2: a drawn
    # range, even a degenerate one, is rejected as a mismatched point is.
    with pytest.raises(InvalidInputError, match="theta_max = 0"):
        asym_sweep(small_scenario, ["BD"], [SweepPoint(), point])


@pytest.fixture(scope="module")
def fig6(fig4_scenario):
    return fig4_scenario.with_power_db(15.0)


class TestBdAsymptotics:
    def test_gamma_independent_of_polarization(self, fig6):
        sol = asym_bd(fig6.with_chi(0.4))
        assert np.abs(sol.gamma[:, 0] - sol.gamma[:, 1]).max() < 1e-10

    def test_perfect_csit_reduction(self, fig6):
        # tau = 0 wipes the tau-weighted terms; re-assembly at another tau
        # agrees with a fresh solve
        full = asym_bd(fig6, tau_sq=0.1)
        re = replace(asym_bd(fig6, tau_sq=0.0), tau_sq=0.1)
        assert np.abs(full.gamma - re.gamma).max() < 1e-12
        perfect = replace(full, tau_sq=0.0)
        u = (1.0 + full.m0) ** 2
        manual = (fig6.power / fig6.n_users) * full.xi_sq * full.m0 ** 2 / (
            full.xi_sq * full.upsilon_intra + (1.0 + full.upsilon_inter) * u)
        assert np.abs(perfect.gamma - manual).max() < 1e-12

    def test_single_group_isotropic_closed_form(self):
        # G = 1, R^s = I: the fixed point solves a scalar quadratic
        n_half, n_bar, b_bar, chi, P = 16, 8, 12, 0.4, 8.0
        cov = SpatialCovariance.from_matrix(np.eye(n_half))
        sc = GroupScenario(n_bar=n_bar, b_bar=b_bar, r=10,
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
def test_terms_reassemble_gamma(fig6, solver):
    """``terms`` is the SINR in the noise-1 normalization of the Monte
    Carlo's ``SinrReport``: signal / (intra + cross + inter + 1) is gamma,
    and so is the assembly that does not divide through by (1 + m0)^2."""
    for chi in (0.0, 0.3):
        for tau_sq in (0.0, 0.1, 0.5):
            sol = solver(fig6.with_chi(chi), tau_sq=tau_sq)
            terms = sol.terms
            assert [t.shape for t in terms] == [(fig6.G, 2)] * 4
            signal, intra, cross, inter = terms
            np.testing.assert_allclose(signal / (intra + cross + inter + 1.0),
                                       sol.gamma, rtol=1e-13, atol=0.0)
            u = (1.0 + sol.m0) ** 2
            undivided = ((fig6.power / fig6.n_users) * sol.xi_sq * (1.0 - tau_sq)
                         * sol.m0 ** 2) / (
                sol.xi_sq * sol.upsilon_intra * (1.0 - tau_sq * (1.0 - u))
                + (1.0 + sol.upsilon_cross + sol.upsilon_inter) * u)
            np.testing.assert_allclose(undivided, sol.gamma, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("cell", ["fig4_scenario", "small_scenario"])
@pytest.mark.parametrize("solver", [asym_bd, asym_bds])
def test_converges_over_the_cli_snr_range(cell, solver, request):
    """The CLI takes snr_db in [-100, 100]. The fixed point's iterate grows
    with the power, so above about 50 dB only a stop at the float floor
    (16 eps max|e|) rather than at the absolute tolerance converges."""
    scenario = request.getfixturevalue(cell)
    for snr in range(-100, 101, 10):
        sol = solver(scenario.with_power_db(float(snr)), tau_sq=0.1)
        floor = 16.0 * np.finfo(float).eps * np.abs(sol.m0).max()
        assert sol.residual < max(rmt.FIXED_POINT_TOL, floor), snr
        assert np.all(np.isfinite(sol.gamma)) and np.all(sol.gamma > 0.0), snr


@pytest.mark.parametrize("cell", ["fig4", "two_groups"])
def test_newton_iterations_over_the_cli_snr_range(cell, fig4_scenario):
    """Every solve of a sweep over the CLI's snr_db range, in 10 dB steps,
    takes at most 30 Newton iterations, on the fig4 cell and on the
    24-element two-group cell."""
    scenario = fig4_scenario if cell == "fig4" else make_scenario(M=24, G=2, n_bar=4)
    points = [SweepPoint(power_from_db(float(snr)), chi) for snr in range(-100, 101, 10)
              for chi in (0.0, 0.3, 1.0)]
    for p, sols in zip(points, asym_sweep(scenario, ["BD", "BDS"], points)):
        for s, sol in sols.items():
            assert sol.iterations <= 30, (s, p)


@pytest.mark.parametrize("solver", [asym_bd, asym_bds])
def test_single_polarized_array_rejected(solver):
    sc = make_scenario(M=24, G=2, n_bar=4, dual_pol=False)
    with pytest.raises(InvalidInputError, match="dual-polarized"):
        solver(sc.with_power_db(10.0), tau_sq=0.1)


class TestBdsAsymptotics:
    def test_chi_zero_equals_bd(self, fig4_scenario):
        for snr in [0.0, 10.0, 20.0, 30.0]:
            sc = fig4_scenario.with_power_db(snr)
            g_bd = asym_bd(sc, tau_sq=0.05).gamma
            g_bds = asym_bds(sc, tau_sq=0.05).gamma
            assert np.abs(g_bds - g_bd).max() / g_bd.min() < 1e-6

    def test_interference_is_affine_in_chi_with_the_published_slope(self, fig6):
        base = asym_bds(fig6)
        zero = base.upsilon_cross + base.upsilon_inter
        for chi in [0.0, 0.3, 1.0]:
            sol = asym_bds(fig6.with_chi(chi))
            np.testing.assert_allclose(sol.upsilon_cross + sol.upsilon_inter,
                                       zero + chi * base.chi_slope, rtol=1e-14, atol=0.0)
            assert np.array_equal(sol.chi_slope, base.chi_slope)

    def test_bd_has_no_chi_slope(self, fig6):
        assert asym_bd(fig6).chi_slope is None

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

    @pytest.mark.parametrize("tau_sq", [0.0, 0.1])
    def test_bds_law_terms_reassemble_gamma(self, fig6, tau_sq):
        # The law is stated once, as extra cross interference; the gamma its
        # terms give is gamma(0) / (1 + c0 chi).
        base = asym_bds(fig6, tau_sq=tau_sq)
        c0 = bds_c0(base)
        for chi in [0.1, 0.3, 0.5, 1.0]:
            np.testing.assert_allclose(approx_bds_chi(base, chi).gamma,
                                       base.gamma / (1.0 + c0 * chi), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("tau_sq", [0.0, 0.1])
    def test_bds_c0_is_the_slope_over_the_chi_zero_denominator(self, fig6, tau_sq):
        # The slope and denominator written out, not through terms.
        sol = asym_bds(fig6, tau_sq=tau_sq)
        u = (1.0 + sol.m0) ** 2
        b0 = sol.xi_sq * sol.upsilon_intra
        denom0 = b0 * (tau_sq * (u - 1.0) + 1.0) / u + 1.0 + sol.upsilon_inter
        want = float((sol.chi_slope / denom0).mean())
        assert bds_c0(sol) == pytest.approx(want, rel=1e-14, abs=0.0)

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
    gaps = []
    for (M, nb, bb, r, trials) in [(40, 2, 4, 4, 300), (120, 8, 16, 11, 150)]:
        sc = make_scenario(M=M, G=4, n_bar=nb, b_bar=bb, r=r,
                           chi=0.0).with_power_db(5.0)
        de = asym_bd(sc).mean_gamma()
        res = run_paired(sc, ["BD"], trials, 19, [SweepPoint()])[0]["BD"]
        eff = 2.0 ** (res.sum_rate / sc.n_users) - 1.0
        gaps.append(abs(eff - de) / de)
    assert gaps[1] < gaps[0]
