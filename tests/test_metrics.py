import math
import warnings

import numpy as np
import pytest

from dualpol.channel import RngStream, complex_normal
from dualpol.errors import InvalidInputError
from dualpol.metrics import draw_trial, run_paired, sinr_bd, sinr_bds
from dualpol.modeswitch import FeedbackBudget, bds_tau_sq, csit_tau_sq, tau_from_bits
from dualpol.precode import build_all, build_preprocessors
from dualpol.scenario import SweepPoint, make_scenario, power_from_db


def symbol_level_powers(channels, precoders, power, n_draws=10000, seed=0):
    """Brute-force oracle: transmit random unit-power symbols and measure the
    per-user signal / intra / cross / inter powers directly."""
    gen = np.random.default_rng(seed)
    per_stream = power / sum(e.n_users for e in channels)
    tx = [precoders.transmit_matrix(g) for g in range(len(channels))]
    out = []
    for g, entry in enumerate(channels):
        n = entry.n_users
        n2 = n // 2
        sig = np.zeros(n)
        intra = np.zeros(n)
        cross = np.zeros(n)
        inter = np.zeros(n)
        recv = {l: entry.H.conj().T @ tx[l] for l in range(len(channels))}
        for _ in range(n_draws // 100):
            # 100 symbol vectors at a time
            d = {l: np.sqrt(per_stream) * complex_normal(gen, (tx[l].shape[1], 100))
                 for l in range(len(channels))}
            own = recv[g] @ d[g]
            for k in range(n):
                mine = recv[g][k, k] * d[g][k]
                sig[k] += np.mean(np.abs(mine) ** 2)
                same = slice(0, n2) if k < n2 else slice(n2, n)
                block = recv[g][k, same] @ d[g][same]
                intra[k] += np.mean(np.abs(block - mine) ** 2)
                cross[k] += np.mean(np.abs(own[k] - block) ** 2)
            other = sum(recv[l] @ d[l] for l in range(len(channels)) if l != g)
            if not np.isscalar(other):
                inter += np.mean(np.abs(other) ** 2, axis=1)
        scale = n_draws // 100
        out.append((sig / scale, intra / scale, cross / scale, inter / scale))
    return out


@pytest.fixture(scope="module")
def small_setup(small_scenario):
    sc = small_scenario.with_power_db(10.0)
    pre = build_preprocessors(sc)
    channels = draw_trial(sc.with_chi(0.3), RngStream(1, 0))
    return sc.with_chi(0.3), pre, channels


def test_decomposition_matches_symbol_level_oracle(small_setup):
    sc, pre, channels = small_setup
    precoders = build_all(sc, channels, "BDS", tau=0.2, preprocessors=pre)
    report = sinr_bds(channels, precoders, sc.power)
    oracle = symbol_level_powers(channels, precoders, sc.power)
    k0 = 0
    for g, entry in enumerate(channels):
        sig, intra, cross, inter = oracle[g]
        n = entry.n_users
        sl = slice(k0, k0 + n)
        assert np.allclose(report.signal[sl], sig, rtol=0.02, atol=1e-9)
        assert np.allclose(report.intra[sl], intra, rtol=0.05, atol=5e-4)
        assert np.allclose(report.cross[sl], cross, rtol=0.05, atol=5e-4)
        assert np.allclose(report.inter[sl], inter, rtol=0.05, atol=5e-4)
        k0 += n


def test_bd_decomposition_matches_symbol_level_oracle(small_setup):
    sc, pre, channels = small_setup
    precoders = build_all(sc, channels, "BD", tau=0.0, preprocessors=pre)
    report = sinr_bd(channels, precoders, sc.power)
    oracle = symbol_level_powers(channels, precoders, sc.power)
    k0 = 0
    for g, entry in enumerate(channels):
        sig, intra, cross, inter = oracle[g]
        n = entry.n_users
        sl = slice(k0, k0 + n)
        assert np.allclose(report.signal[sl], sig, rtol=0.02, atol=1e-9)
        # BD pools the whole group: its intra covers both blocks
        assert np.allclose(report.intra[sl], intra + cross, rtol=0.05, atol=5e-4)
        assert np.allclose(report.inter[sl], inter, rtol=0.05, atol=5e-4)
        k0 += n


def test_sinr_is_exact_quotient_of_parts(small_setup):
    sc, pre, channels = small_setup
    precoders = build_all(sc, channels, "BDS", tau=0.1, preprocessors=pre)
    rep = sinr_bds(channels, precoders, sc.power)
    quotient = rep.signal / (rep.intra + rep.cross + rep.inter + 1.0)
    assert np.abs(rep.sinr - quotient).max() < 1e-10
    assert rep.sum_rate == pytest.approx(np.log2(1 + rep.sinr).sum(), rel=1e-12)


def test_single_user_single_group_no_interference():
    from dualpol.scenario import make_scenario

    sc = make_scenario(M=16, G=1, n_bar=2, thetas=[0.1], spread=0.35,
                       chi=0.0).with_power_db(5.0)
    channels = draw_trial(sc, RngStream(2, 0))
    precoders = build_all(sc, channels, "BD", tau=0.0)
    rep = sinr_bd(channels, precoders, sc.power)
    assert np.all(rep.inter == 0.0)
    # brute-force the same expression for user 0
    entry = channels[0]
    Q = precoders.transmit_matrix(0)
    per_stream = sc.power / sc.n_users
    expected = per_stream * np.abs(entry.H[:, 0].conj() @ Q[:, 0]) ** 2
    assert rep.signal[0] == pytest.approx(expected, rel=1e-12)


def test_chi_zero_cross_power_is_zero(fig4_scenario):
    sc = fig4_scenario.with_power_db(10.0)
    channels = draw_trial(sc, RngStream(3, 0))
    precoders = build_all(sc, channels, "BDS", tau=0.0)
    rep = sinr_bds(channels, precoders, sc.power)
    assert np.all(rep.cross == 0.0)


def test_chi_one_subgroup_symmetry(small_scenario):
    sc = small_scenario.with_chi(1.0).with_power_db(10.0)
    # vertical and horizontal subgroup SINR means agree within MC error:
    # re-run collecting per-user SINRs
    pre = build_preprocessors(sc)
    v, h = [], []
    for t in range(400):
        gen = RngStream(7, t).generator()
        channels = draw_trial(sc, gen)
        rep = sinr_bds(channels, build_all(sc, channels, "BDS", tau=0.0,
                                           preprocessors=pre), sc.power)
        n2 = sc.n_bar // 2
        per_group = rep.sinr.reshape(sc.G, sc.n_bar)
        v.append(per_group[:, :n2].mean())
        h.append(per_group[:, n2:].mean())
    v, h = np.array(v), np.array(h)
    se = np.std(v - h, ddof=1) / np.sqrt(len(v))
    assert abs(v.mean() - h.mean()) < 3 * se + 1e-12


def test_fig4_chi0_bd_equals_bds_trialwise(fig4_scenario):
    # identical inner factors and noise: the two schemes coincide up to the
    # joint-vs-per-block normalization, within 0.5 % per trial on average
    sc = fig4_scenario.with_power_db(10.0)
    [res] = run_paired(sc, ["BD", "BDS"], 300, 1, [SweepPoint()])
    rel = np.abs(res["BD"].trial_sum_rates - res["BDS"].trial_sum_rates) \
        / res["BD"].trial_sum_rates
    assert rel.mean() < 0.005


def test_monte_carlo_basics(small_scenario):
    sc = small_scenario.with_power_db(10.0)
    one = run_paired(sc, ["BD"], 1, 5, [SweepPoint()])[0]["BD"]
    assert one.n_trials == 1 and one.stderr == 0.0
    # n_trials = 1 reproduces a single report
    channels = draw_trial(sc, RngStream(5, 0))
    rep = sinr_bd(channels, build_all(sc, channels, "BD", tau=0.0), sc.power)
    assert one.sum_rate == pytest.approx(rep.sum_rate, rel=1e-12)
    with pytest.raises(InvalidInputError):
        run_paired(sc, ["BD"], 0, 5, [SweepPoint()])


def test_stderr_scaling(small_scenario):
    # doubling the trials halves stderr^2 within 20 %
    sc = small_scenario.with_power_db(10.0)
    res = run_paired(sc, ["BD"], 2000, 11, [SweepPoint()])[0]["BD"]
    sums = res.trial_sum_rates
    var_full = sums.var(ddof=1) / 2000
    var_half = sums[:1000].var(ddof=1) / 1000
    assert var_full * 2 / var_half == pytest.approx(1.0, abs=0.2)


def test_determinism_and_pairing(small_scenario):
    sc = small_scenario.with_power_db(10.0)
    a = run_paired(sc, ["BD"], 50, 3, [SweepPoint()])[0]["BD"]
    b = run_paired(sc, ["BD"], 50, 3, [SweepPoint()])[0]["BD"]
    assert np.array_equal(a.trial_sum_rates, b.trial_sum_rates)
    [both] = run_paired(sc, ["BD", "BDS"], 50, 3, [SweepPoint()])
    assert np.array_equal(both["BD"].trial_sum_rates, a.trial_sum_rates)


def test_sum_rate_nondecreasing_in_power(small_scenario):
    points = [SweepPoint(power=power_from_db(snr)) for snr in (0.0, 10.0, 20.0)]
    res = [r["BD"] for r in run_paired(small_scenario, ["BD"], 200, 13, points)]
    means = [r.sum_rate for r in res]
    errs = [r.stderr for r in res]
    assert means[1] > means[0] - 2 * (errs[0] + errs[1])
    assert means[2] > means[1] - 2 * (errs[1] + errs[2])


def test_bds_tau_convention():
    assert bds_tau_sq(0.1) == pytest.approx(0.01)
    assert bds_tau_sq(1.0) == 1.0


def test_switch_runs_and_reports_fraction(fig4_scenario):
    sc = fig4_scenario.with_chi(0.05).with_power_db(15.0)
    [res] = run_paired(sc, ["BD", "BDS", "SWITCH"], 20, 9, [SweepPoint(n_bits=60)])
    assert 0.0 <= res["SWITCH"].extras["bds_fraction"] <= 1.0
    assert res["SWITCH"].sum_rate > 0.0


def test_csit_tau_sq_per_scheme():
    assert csit_tau_sq(0.1, None, 4, "BD") == pytest.approx(0.1)
    assert csit_tau_sq(0.1, None, 4, "BDS") == pytest.approx(0.01)
    assert csit_tau_sq(1.5, None, 4, "BDS") == 1.0
    budget = FeedbackBudget(n_bits=40, r=4)
    for scheme in ("BD", "BDS"):
        assert csit_tau_sq(0.3, 40, 4, scheme) == tau_from_bits(budget, scheme)


def test_negative_tau_sq_rejected_before_any_sqrt(small_scenario):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="tau_sq"):
            csit_tau_sq(-0.5, None, 4, "BD")
        with pytest.raises(InvalidInputError, match="tau_sq"):
            run_paired(small_scenario, ["BD"], 2, 1, [SweepPoint(tau_sq=-0.5)])


@pytest.mark.parametrize("theta_max", [-0.3, -1e-9, math.pi / 2 + 0.01])
def test_theta_max_outside_quarter_turn_rejected(small_scenario, theta_max):
    with pytest.raises(InvalidInputError, match="theta_max"):
        run_paired(small_scenario, ["BD"], 2, 1, [SweepPoint(theta_max=theta_max)])
    with pytest.raises(InvalidInputError, match="theta_max"):
        run_paired(small_scenario, ["BD"], 2, 1,
                   [SweepPoint(), SweepPoint(theta_max=theta_max)])


def test_r1_budget_runs_bd_and_rejects_bds():
    # At r = 1 the BDS RVQ bound 2^(-N/(r-1)) is undefined; BD's is not.
    sc = make_scenario(M=24, G=2, n_bar=4, b_bar=8, r=1).with_power_db(10.0)
    budget = [SweepPoint(n_bits=40)]
    [res] = run_paired(sc, ["BD"], 3, 1, budget)
    assert np.isfinite(res["BD"].sum_rate)
    with pytest.raises(InvalidInputError, match="r > 1"):
        run_paired(sc, ["BD", "BDS"], 3, 1, budget)


def test_one_user_per_subgroup_switches_without_warnings():
    # n_bar = 2 leaves each BDS subgroup one user and no intra-subgroup
    # interference: the crossover scale is infinite, so switching picks BDS
    # on every trial with a CSIT error and BD under perfect CSIT at chi > 0.
    sc = make_scenario(M=24, G=2, n_bar=2, chi=0.2).with_power_db(10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [noisy] = run_paired(sc, ["BD", "BDS", "SWITCH_RAW"], 3, 1, [SweepPoint(tau_sq=0.1)])
        [perfect] = run_paired(sc, ["BD", "SWITCH_RAW"], 3, 1, [SweepPoint()])
    assert noisy["SWITCH_RAW"].extras["bds_fraction"] == 1.0
    assert np.array_equal(noisy["SWITCH_RAW"].trial_sum_rates, noisy["BDS"].trial_sum_rates)
    assert perfect["SWITCH_RAW"].extras["bds_fraction"] == 0.0
    assert np.array_equal(perfect["SWITCH_RAW"].trial_sum_rates, perfect["BD"].trial_sum_rates)
