"""Acceptance suite.

Each test evaluates one acceptance criterion at its stated tolerance and
prints one `[criterion N] PASS|FAIL` line (run with -s to see them live).
Criteria 3 and 6 fail as stated in the implemented model; they are asserted
faithfully anyway, and docs/LEDGER.md holds the measurements behind them
(regenerated by docs/ledger.py).
"""

import math
import time

import numpy as np
import pytest

from dualpol.channel import RngStream
from dualpol.metrics import draw_trial, run_paired
from dualpol.modeswitch import switch_threshold_bits
from dualpol.precode import build_all, build_preprocessors
from dualpol.rmt import (
    FixedPointProblem,
    approx_bds_chi,
    asym_bd,
    asym_bds,
    solve_fixed_point,
)
from dualpol.scenario import SweepPoint, make_scenario, power_from_db

SEED = 2024


#: collected `[criterion N] PASS|FAIL` lines, echoed after the run by the
#: terminal-summary hook in conftest (pytest captures in-test prints).
CRITERION_LINES = []


def report(number, ok, detail):
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    CRITERION_LINES.append(line)
    return ok


@pytest.fixture(scope="module")
def fig4():
    return make_scenario(M=120, G=4, n_bar=8, chi=0.0)


# ----------------------------------------------------------------------
# 1. Exact algebraic invariants + build runtime
# ----------------------------------------------------------------------

def test_criterion_01_exact_invariants(fig4):
    t0 = time.perf_counter()
    sc = make_scenario(M=120, G=4, n_bar=8, chi=0.0)
    pre = build_preprocessors(sc)
    build_seconds = time.perf_counter() - t0

    ortho = max(np.abs(p.bd.conj().T @ p.bd - np.eye(sc.b_bar)).max()
                for p in pre)
    nulling = max(
        np.abs(pre[g].B_s.conj().T @ sc.covariances[l].dominant_eigvecs(sc.r)).max()
        for g in range(sc.G) for l in range(sc.G) if l != g)
    half = pre[0].B_s.shape[0]
    zero_pattern = all(
        np.all(p.bds_v[half:] == 0.0) and np.all(p.bds_h[:half] == 0.0)
        for p in pre)

    scp = sc.with_power_db(10.0)
    power_err = 0.0
    for mode in ("BD", "BDS"):
        channels = draw_trial(scp, RngStream(SEED, 0))
        precoders = build_all(scp, channels, mode, tau=0.3, preprocessors=pre)
        per_stream = scp.power / scp.n_users
        total = sum(per_stream * np.sum(np.abs(precoders.transmit_matrix(g)) ** 2)
                    for g in range(scp.G))
        power_err = max(power_err, abs(total - scp.power) / scp.power)

    ok = (ortho < 1e-10 and nulling < 1e-10 and zero_pattern
          and power_err < 1e-8 and build_seconds < 1.0)
    assert report(1, ok,
                  f"ortho={ortho:.1e} nulling={nulling:.1e} "
                  f"zero_pattern={zero_pattern} power_err={power_err:.1e}")


# ----------------------------------------------------------------------
# 2. chi = 0 equivalence of BD and BDS
# ----------------------------------------------------------------------

def test_criterion_02_chi_zero_equivalence(fig4):
    worst = 0.0
    for snr in (0.0, 10.0, 20.0, 30.0):
        sc = fig4.with_power_db(snr)
        g_bd = asym_bd(sc, tau_sq=0.1).gamma
        g_bds = asym_bds(sc, tau_sq=0.1).gamma
        worst = max(worst, float(np.abs(g_bds - g_bd).max() / g_bd.min()))
    [res] = run_paired(fig4, ["BD", "BDS"], 500, SEED,
                       [SweepPoint(power=power_from_db(10.0))])
    mc_diff = abs(res["BD"].sum_rate - res["BDS"].sum_rate)
    tol = 2.0 * max(res["BD"].stderr, res["BDS"].stderr)
    ok = worst < 1e-6 and mc_diff <= tol
    assert report(2, ok,
                  f"asym max rel diff={worst:.2e} (tol 1e-6); "
                  f"MC diff={mc_diff:.3f} vs 2*stderr={tol:.3f}")


# ----------------------------------------------------------------------
# 3. Flatness of the BD SINR in chi (red; see docs/LEDGER.md)
# ----------------------------------------------------------------------

def test_criterion_03_prop1_flatness(fig4):
    devs = {}
    for snr in (15.0, -5.0):
        sc = fig4.with_power_db(snr)
        base = asym_bd(sc).mean_gamma()
        devs[snr] = max(
            abs(asym_bd(sc.with_chi(chi)).mean_gamma() - base) / base
            for chi in (0.25, 0.5, 0.75, 1.0))
    ok = all(d < 0.05 for d in devs.values())
    assert report(3, ok,
                  "max dev " + ", ".join(f"{s:g}dB={d:.1%}" for s, d in devs.items())
                  + " (tol 5%; model energy grows with chi, see docs/LEDGER.md)")


# ----------------------------------------------------------------------
# 4. Hyperbolic chi-decay law for BDS
# ----------------------------------------------------------------------

def test_criterion_04_prop2_law(fig4):
    sc15 = fig4.with_power_db(15.0)
    worst = 0.0
    for tau_sq in (0.0, 0.1):
        base = asym_bds(sc15, tau_sq=tau_sq)
        for chi in (0.1, 0.2, 0.3, 0.4, 0.5):
            full = asym_bds(sc15.with_chi(chi), tau_sq=tau_sq).mean_gamma()
            appr = approx_bds_chi(base, chi).mean_gamma()
            worst = max(worst, abs(appr - full) / full)
    ok = worst < 0.10
    assert report(4, ok, f"max |approx-full|/full = {worst:.2%} (tol 10%)")


# ----------------------------------------------------------------------
# 5. BD/BDS crossing sits near chi = tau^2
# ----------------------------------------------------------------------

def test_criterion_05_crossing_point(fig4):
    sc15 = fig4.with_power_db(15.0)
    results = {}
    for tau_sq in (0.1, 0.2):
        g_bd = asym_bd(sc15, tau_sq=tau_sq).mean_gamma()

        def margin(chi):
            return asym_bds(sc15.with_chi(chi),
                            tau_sq=tau_sq ** 2).mean_gamma() - g_bd

        lo, hi = 0.25 * tau_sq, 2.5 * tau_sq
        assert margin(lo) > 0 > margin(hi)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if margin(mid) > 0:
                lo = mid
            else:
                hi = mid
        results[tau_sq] = 0.5 * (lo + hi)
    ok = all(0.5 * t <= c <= 1.5 * t for t, c in results.items())
    assert report(5, ok, "crossings " + ", ".join(
        f"tau^2={t}: chi*={c:.4f} (window [{0.5*t:.3f},{1.5*t:.3f}])"
        for t, c in results.items()))


# ----------------------------------------------------------------------
# 6. Deterministic-equivalent convergence over M (partially red, see
#    docs/LEDGER.md)
# ----------------------------------------------------------------------

FAMILY = [(40, 2, 4, 4, 800), (80, 4, 8, 8, 500), (120, 8, 16, 11, 400)]


def _de_gaps(sc, trials):
    """Relative gap between the MC per-user effective SINR (rate domain)
    and the deterministic equivalent, per (mode, SNR), at tau^2 = 0.1."""
    snrs = (5.0, 25.0)
    results = run_paired(sc, ["BD", "BDS"], trials, SEED,
                         [SweepPoint(power=power_from_db(snr), tau_sq=0.1) for snr in snrs])
    gaps = {}
    for snr, res in zip(snrs, results):
        scp = sc.with_power_db(snr)
        for mode, de in (("BD", asym_bd(scp, tau_sq=0.1).mean_gamma()),
                         ("BDS", asym_bds(scp, tau_sq=0.01).mean_gamma())):
            eff = 2.0 ** (res[mode].sum_rate / scp.n_users) - 1.0
            gaps[(mode, snr)] = abs(eff - de) / de
    return gaps


def test_criterion_06_de_convergence():
    per_size = [_de_gaps(make_scenario(M=M, G=4, n_bar=nb, b_bar=bb, r=r, chi=0.0), trials)
                for (M, nb, bb, r, trials) in FAMILY]
    gaps = {key: [size[key] for size in per_size]
            for key in [(mode, snr) for mode in ("BD", "BDS") for snr in (5.0, 25.0)]}
    monotone = all(seq[0] > seq[1] > seq[2] for seq in gaps.values())
    small_at_120 = all(gaps[(m, 5.0)][2] < 0.10 for m in ("BD", "BDS"))
    high_snr_worse = all(gaps[(m, 25.0)][2] > gaps[(m, 5.0)][2]
                         for m in ("BD", "BDS"))
    detail = "; ".join(
        f"{m}@{s:g}dB: " + "/".join(f"{g:.1%}" for g in gaps[(m, s)])
        for (m, s) in gaps)
    ok = monotone and small_at_120 and high_snr_worse
    assert report(6, ok,
                  f"{detail}; monotone={monotone} <10%@120={small_at_120} "
                  f"25dB>5dB={high_snr_worse}")


# ----------------------------------------------------------------------
# 7. Fixed-point solver oracles
# ----------------------------------------------------------------------

def test_criterion_07_fixed_point_oracles():
    M, N, alpha = 64, 48, 0.35
    prob = FixedPointProblem(covariances=(np.eye(M),), multiplicities=(N,),
                             S=None, z=-alpha, M=M)
    e = solve_fixed_point(prob).e[0]
    b = N / M + alpha - 1.0
    root = (-b + math.sqrt(b * b + 4.0 * alpha)) / (2.0 * alpha)
    quad_err = abs(e - root)

    from dualpol.channel import complex_normal

    M2, alpha2 = 200, 0.3
    rng = np.random.default_rng(SEED)
    A = rng.standard_normal((M2, M2)) / math.sqrt(M2)
    R1 = A @ A.T + 0.4 * np.eye(M2)
    R1 *= M2 / np.trace(R1)
    B2 = rng.standard_normal((M2, M2)) / math.sqrt(M2)
    R2 = B2 @ B2.T + 0.2 * np.eye(M2)
    R2 *= M2 / np.trace(R2)
    Q = np.diag(rng.uniform(0.5, 1.5, M2))
    prob2 = FixedPointProblem(covariances=(R1, R2), multiplicities=(70, 70),
                              S=None, z=-alpha2, M=M2)
    T = solve_fixed_point(prob2).T
    det_eq = np.trace(Q @ T).real / M2
    L1, L2 = np.linalg.cholesky(R1), np.linalg.cholesky(R2)
    acc = 0.0
    for _ in range(50):
        H1 = L1 @ complex_normal(rng, (M2, 70))
        H2 = L2 @ complex_normal(rng, (M2, 70))
        HH = (H1 @ H1.conj().T + H2 @ H2.conj().T) / M2
        acc += np.trace(Q @ np.linalg.inv(HH + alpha2 * np.eye(M2))).real / M2
    mc_rel = abs(acc / 50 - det_eq) / det_eq
    ok = quad_err < 1e-10 and mc_rel < 0.02
    assert report(7, ok,
                  f"quadratic-root err={quad_err:.1e} (tol 1e-10); "
                  f"MC resolvent rel err={mc_rel:.2%} (tol 2%)")


# ----------------------------------------------------------------------
# 8. Switching optimality over the (chi, N_B) grid
# ----------------------------------------------------------------------

def test_criterion_08_switching_optimality(fig4):
    cells = [(snr, n_bits, chi) for snr in (15.0, 25.0) for n_bits in (50, 65)
             for chi in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)]
    points = [SweepPoint(power=power_from_db(snr), chi=chi, n_bits=n_bits)
              for snr, n_bits, chi in cells]
    violations = []
    for cell, res in zip(cells, run_paired(fig4, ["BD", "BDS", "SWITCH"], 500, SEED,
                                           points)):
        best = max(res["BD"].sum_rate, res["BDS"].sum_rate)
        slack = 2.0 * max(res["BD"].stderr, res["BDS"].stderr)
        if res["SWITCH"].sum_rate < best - slack:
            violations.append((*cell, best - res["SWITCH"].sum_rate))
    ok = not violations
    assert report(8, ok,
                  f"grid 2 SNR x 2 budgets x 6 chi, 500 paired trials; "
                  f"violations={violations or 'none'}")


# ----------------------------------------------------------------------
# 9. Analytic bit threshold vs the MC crossing
# ----------------------------------------------------------------------

def test_criterion_09_bit_threshold(fig4):
    sc25 = fig4.with_power_db(25.0)
    base = asym_bds(sc25)
    chis = (0.1, 0.2)
    thresholds = {chi: switch_threshold_bits(base, chi, sc25.r) for chi in chis}
    grids = {chi: np.arange(int(thr) - 12, int(thr) + 13, 4)
             for chi, thr in thresholds.items()}
    # the true offset at chi = 0.1 sits 0.04 bits inside the tolerance,
    # so the crossing estimate needs sub-half-bit precision
    points = [SweepPoint(chi=chi, n_bits=int(nb)) for chi in chis for nb in grids[chi]]
    diff = {(p.chi, p.n_bits): res["BDS"].sum_rate - res["BD"].sum_rate
            for p, res in zip(points, run_paired(sc25, ["BD", "BDS"], 1000, SEED, points))}
    offsets = {}
    for chi in chis:
        thr, grid = thresholds[chi], grids[chi]
        diffs = np.array([diff[chi, int(nb)] for nb in grid])
        sign_change = np.where(np.diff(np.sign(diffs)) != 0)[0]
        assert sign_change.size, "no BD/BDS crossing inside the bit grid"
        i = sign_change[0]
        crossing = grid[i] + (grid[i + 1] - grid[i]) * diffs[i] / (diffs[i] - diffs[i + 1])
        offsets[chi] = crossing - thr
    ok = all(abs(v) <= 5.0 for v in offsets.values())
    assert report(9, ok, "threshold offsets " + ", ".join(
        f"chi={c}: {o:+.1f} bits" for c, o in offsets.items()) + " (tol 5)")


# ----------------------------------------------------------------------
# 10. Dual vs single polarization (Fig. 3 orderings)
# ----------------------------------------------------------------------

def test_criterion_10_dual_vs_single():
    from dataclasses import replace

    spread = math.radians(8.0)
    chi = 0.1
    gain = math.sqrt((1.0 + chi) / 2.0)
    dual = make_scenario(M=120, G=4, n_bar=8, spacing=0.5, spread=spread,
                         chi=chi, b_bar=14, scenario_id="dual")
    s_half = replace(make_scenario(M=120, G=4, n_bar=8, spacing=0.5,
                                   spread=spread, dual_pol=False, b_bar=14,
                                   scenario_id="s2"), gains=(gain,) * 4)
    s_quarter = replace(make_scenario(M=120, G=4, n_bar=8, spacing=0.25,
                                      spread=spread, dual_pol=False, b_bar=14,
                                      scenario_id="s4"), gains=(gain,) * 4)

    def mc(sc, *snrs):
        points = [SweepPoint(power=power_from_db(snr)) for snr in snrs]
        return [res["BD"] for res in run_paired(sc, ["BD"], 400, SEED, points)]

    d10, d20 = mc(dual, 10.0, 20.0)
    q10, q20 = mc(s_quarter, 10.0, 20.0)
    [h20] = mc(s_half, 20.0)
    checks = {}
    for snr, d, q in ((10.0, d10, q10), (20.0, d20, q20)):
        checks[f"dual>quarter@{snr:g}"] = (
            d.sum_rate - q.sum_rate, 2 * (d.stderr + q.stderr))
    checks["dual>half@20"] = (d20.sum_rate - h20.sum_rate,
                              2 * (d20.stderr + h20.stderr))
    ok = all(diff > slack for diff, slack in checks.values())
    assert report(10, ok, "; ".join(
        f"{k}: +{d:.2f} (need >{s:.2f})" for k, (d, s) in checks.items()))


# ----------------------------------------------------------------------
# 11. Polarization mismatch in the 3D cell (model variants in docs/LEDGER.md)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def mismatch_runs():
    from dualpol.scene3d import make_scenario_3d, run_3d_paired

    sc3 = make_scenario_3d().with_power_db(25.0)
    modes = ["BD", "BDS", "SWITCH", "SWITCH_RAW"]
    thetas = (0.0, 0.22 * math.pi)
    return dict(zip(thetas, run_3d_paired(sc3, modes, 500, SEED, [
        SweepPoint(chi=(0.0, 0.5), tau_sq=(0.0, 1.0), theta_max=theta) for theta in thetas])))


def _paired_se(a, b):
    d = a.trial_sum_rates - b.trial_sum_rates
    return float(d.std(ddof=1) / math.sqrt(d.size))


def test_criterion_11a_all_schemes_degrade(mismatch_runs):
    aligned = mismatch_runs[0.0]
    tilted = mismatch_runs[0.22 * math.pi]
    rows = {}
    for mode in aligned:
        drop = aligned[mode].sum_rate - tilted[mode].sum_rate
        se = _paired_se(aligned[mode], tilted[mode])
        rows[mode] = (drop, se)
    ok = all(drop > 2 * se for drop, se in rows.values())
    assert report("11a", ok, "degradation " + ", ".join(
        f"{m}={d:+.2f}({s:.2f})" for m, (d, s) in rows.items()))


def test_criterion_11b_bds_degrades_more(mismatch_runs):
    aligned = mismatch_runs[0.0]
    tilted = mismatch_runs[0.22 * math.pi]
    frac = {m: (aligned[m].sum_rate - tilted[m].sum_rate) / aligned[m].sum_rate
            for m in ("BD", "BDS")}
    ok = frac["BDS"] > frac["BD"]
    assert report("11b", ok,
                  f"fractional drop BDS={frac['BDS']:.1%} vs BD={frac['BD']:.1%} "
                  "(see docs/LEDGER.md)")


def test_criterion_11c_effective_chi_switching(mismatch_runs):
    tilted = mismatch_runs[0.22 * math.pi]
    diff = tilted["SWITCH"].sum_rate - tilted["SWITCH_RAW"].sum_rate
    se = _paired_se(tilted["SWITCH"], tilted["SWITCH_RAW"])
    ok = diff >= -2 * se
    assert report("11c", ok,
                  f"SWITCH(chi_eff) - SWITCH(raw) = {diff:+.3f} "
                  f"(2*paired se = {2*se:.3f}; see docs/LEDGER.md)")
