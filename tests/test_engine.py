"""The trial-batched Monte Carlo engine against its per-realization
oracle, ``reference.reference_paired``."""

import io
import math
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import dualpol.metrics as metrics
import dualpol.precode as precode
import dualpol.rmt as rmt
from dualpol.channel import RngStream
from dualpol.cli import preset, run_config
from dualpol.errors import DegenerateInputError, InvalidInputError
from dualpol.metrics import draw_trial, run_paired, sinr_report
from dualpol.modeswitch import csit_tau_sq
from dualpol.precode import build_preprocessors
from dualpol.scenario import SweepPoint, make_scenario
from dualpol.scene3d import make_scenario_3d, reduce_to_2d, run_3d_paired
from reference import decompose_per_group, reference_paired, reference_report

RTOL = 1e-12


def assert_terms_match(got, want):
    """Signal, intra and cross to RTOL; inter to RTOL of the signal, since
    at M = 120 it is leakage of about 1e-10 formed by cancellation."""
    np.testing.assert_allclose(got[:, :3], want[:, :3], rtol=RTOL, atol=0.0)
    assert np.all(np.abs(got[:, 3] - want[:, 3]) <= RTOL * want[:, 0])


def assert_engine_matches(scenario, modes, n_trials, seed, point=SweepPoint()):
    """``run_paired`` at one point against the oracle on the scenario, whose
    power the point leaves at its default and whose chi it leaves at its
    default or draws; the oracle takes the point's ranges as its
    ``chi_dist``/``tau_sq_dist``."""
    got = run_paired(scenario, modes, n_trials, seed, [point])[0]
    _, chi_dist, tau_sq_dist = point.draws
    want, picks, terms = reference_paired(
        scenario, modes, n_trials, seed, tau_sq=point.tau_sq, n_bits=point.n_bits,
        theta_max=point.theta_max, chi_dist=chi_dist, tau_sq_dist=tau_sq_dist)
    for mode in modes:
        np.testing.assert_allclose(got[mode].trial_sum_rates, want[mode],
                                   rtol=RTOL, atol=0.0)
        assert_terms_match(got[mode].trial_terms, terms[mode])
        if mode.startswith("SWITCH"):
            assert got[mode].extras["bds_fraction"] == np.mean(picks[mode])
    return got, picks


@pytest.fixture(scope="module")
def fig4(fig4_scenario):
    return fig4_scenario.with_chi(0.1).with_power_db(10.0)


@pytest.mark.parametrize("point", [
    SweepPoint(),
    SweepPoint(tau_sq=0.1),
    SweepPoint(n_bits=60),
    SweepPoint(chi=(0.0, 0.5), tau_sq=(0.0, 1.0)),
    SweepPoint(theta_max=0.3 * math.pi, tau_sq=0.2),
], ids=["perfect", "tau_sq", "n_bits", "dists", "mismatch"])
def test_bd_bds_match_reference(fig4, point):
    assert_engine_matches(fig4, ["BD", "BDS"], 5, 17, point)


@pytest.mark.parametrize("modes", [
    ["SWITCH"],
    ["SWITCH_RAW"],
    ["BD", "BDS", "SWITCH", "SWITCH_RAW"],
], ids=["switch", "switch_raw", "all"])
def test_switching_matches_reference(fig4, modes):
    # Mismatch separates SWITCH from SWITCH_RAW; the per-trial tau^2 mixes
    # the picks, while each of BD and BDS still runs on the whole block.
    _, picks = assert_engine_matches(
        fig4, modes, 12, 5,
        SweepPoint(chi=(0.0, 0.5), tau_sq=(0.0, 1.0), theta_max=0.3 * math.pi))
    for mode in modes:
        if mode.startswith("SWITCH"):
            assert 0 < sum(picks[mode]) < len(picks[mode])


def test_single_pol_with_gains_matches_reference():
    sc = make_scenario(M=40, G=2, n_bar=4, dual_pol=False, thetas=[-0.6, 0.6],
                       spread=math.pi / 10).with_power_db(10.0)
    sc = replace(sc, gains=(0.8, 1.3))
    assert_engine_matches(sc, ["BD"], 4, 3, SweepPoint(tau_sq=0.2))


def test_single_group_matches_reference():
    sc = make_scenario(M=16, G=1, n_bar=2, thetas=[0.1], spread=0.35,
                       chi=0.2).with_power_db(5.0)
    assert_engine_matches(sc, ["BD", "BDS"], 4, 2, SweepPoint(tau_sq=0.3))


@pytest.mark.parametrize("chi, bds", [(0.0, True), (0.2, False)])
def test_single_user_subgroups_switch_matches_reference(chi, bds):
    # n_bar = 2 leaves no intra-subgroup interference, so the crossover
    # scale is infinite; under perfect CSIT the rule chi <= scale tau^2
    # takes its limit chi <= 0, with no inf * 0 warning.
    sc = make_scenario(M=16, G=1, n_bar=2, thetas=[0.1], spread=0.35,
                       chi=chi).with_power_db(5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, picks = assert_engine_matches(sc, ["SWITCH"], 4, 2)
    assert picks["SWITCH"] == [bds] * 4


def test_one_trial_matches_reference(fig4):
    got, _ = assert_engine_matches(fig4, ["BD", "BDS"], 1, 8, SweepPoint(tau_sq=0.1))
    assert got["BD"].n_trials == 1 and got["BD"].stderr == 0.0


def engine_channels(monkeypatch, scenario, seed, point):
    """Every group's channels of a 3-trial ``run_paired`` block, as the
    engine builds them from its one read of the trials' streams."""
    built = []
    original = metrics.channel_from_normals

    def spy(*args, **kw):
        built.append(original(*args, **kw))
        return built[-1]
    monkeypatch.setattr(metrics, "channel_from_normals", spy)
    run_paired(scenario, ["BD"], 3, seed, [point])
    monkeypatch.undo()
    return built[:scenario.G]


def one_trial(block, t):
    """Trial t of trial-stacked channels."""
    return [SimpleNamespace(X=e.X[t], Z=e.Z[t], mismatch_angles=None
                            if e.mismatch_angles is None else e.mismatch_angles[t])
            for e in block]


def assert_same_draws(got, want):
    """Two trials' channels hold the same X, Z and angles, bit for bit."""
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Z, b.Z)
        if b.mismatch_angles is None:
            assert a.mismatch_angles is None
        else:
            assert np.array_equal(a.mismatch_angles, b.mismatch_angles)


@pytest.mark.parametrize("dual_pol, theta_max", [
    (True, 0.0), (True, 0.3 * math.pi), (False, 0.0)],
    ids=["aligned", "mismatched", "single"])
def test_draw_trial_is_one_trial_of_the_block_read(monkeypatch, dual_pol, theta_max):
    sc = make_scenario(M=24 if dual_pol else 12, G=2, n_bar=4, spread=math.pi / 8,
                       thetas=[-math.pi / 5, math.pi / 5], dual_pol=dual_pol)
    chi = 0.2 if dual_pol else 0.0
    # A positive tau^2 keeps the CSIT noise, which draw_trial always keeps.
    block = engine_channels(monkeypatch, sc, 7,
                            SweepPoint(chi=chi, tau_sq=0.1, theta_max=theta_max))
    for t in range(3):
        got = draw_trial(sc, RngStream(7, t), chi, theta_max)
        assert_same_draws(got, one_trial(block, t))
        assert_same_draws(draw_trial(sc, RngStream(7, t).generator(), chi, theta_max), got)
    # A (lo, hi) chi is drawn from the trial's stream, as the engine draws
    # it, and the channels are built at the drawn value (the range itself
    # used to reach channel_from_normals, which raised a bare TypeError).
    block = engine_channels(monkeypatch, sc, 7,
                            SweepPoint(chi=(0.0, 0.5), tau_sq=0.1, theta_max=theta_max))
    for t in range(3):
        assert_same_draws(draw_trial(sc, RngStream(7, t), (0.0, 0.5), theta_max),
                          one_trial(block, t))
    # One Generator read by two calls continues its stream: the trial's
    # chi uniform, then its channels, as in the engine's read.
    gen = RngStream(7, 2).generator()
    chi = gen.uniform(0.0, 0.5)
    assert_same_draws(draw_trial(sc, gen, chi, theta_max), one_trial(block, 2))


def test_draw_trial_continues_a_reused_generator(small_scenario):
    gen, again = RngStream(3, 0).generator(), RngStream(3, 0).generator()
    first, second = draw_trial(small_scenario, gen), draw_trial(small_scenario, gen)
    assert_same_draws(first, draw_trial(small_scenario, again))
    assert_same_draws(second, draw_trial(small_scenario, again))
    assert not np.array_equal(first[0].X, second[0].X)


@pytest.mark.parametrize("dual_pol, theta_max", [(True, -0.3), (False, -0.3),
                                                  (False, 3.0), (True, math.nan)])
def test_draw_trial_rejects_theta_max_outside_a_quarter_turn(dual_pol, theta_max):
    # As run_paired does, on either array: a negative angle used to draw
    # an aligned trial, and a single-polarized array took any angle.
    sc = make_scenario(M=24 if dual_pol else 12, G=2, n_bar=4, dual_pol=dual_pol)
    with pytest.raises(InvalidInputError, match="theta_max"):
        draw_trial(sc, RngStream(1, 0), theta_max=theta_max)


def three_trial_blocks(monkeypatch, scenario):
    """Set ``metrics.BLOCK_BYTES`` so that blocks on the scenario hold 3
    trials; 10 trials then end in a ragged block of 1."""
    monkeypatch.setattr(metrics, "BLOCK_BYTES",
                        3 * 16 * scenario.G ** 2 * scenario.n_bar * scenario.b_bar + 1)
    assert metrics.block_trials(scenario) == 3


def test_trial_blocks_do_not_change_results(small_scenario, monkeypatch):
    sc = small_scenario.with_chi(0.2).with_power_db(10.0)
    point = SweepPoint(chi=(0.0, 0.5), tau_sq=(0.0, 1.0), theta_max=0.2 * math.pi)
    modes = ["BD", "SWITCH"]
    [whole] = run_paired(sc, modes, 10, 4, [point])
    three_trial_blocks(monkeypatch, sc)
    [blocked] = run_paired(sc, modes, 10, 4, [point])
    for mode in modes:
        assert np.array_equal(whole[mode].trial_sum_rates,
                              blocked[mode].trial_sum_rates)
        assert np.array_equal(whole[mode].trial_terms, blocked[mode].trial_terms)
    assert whole["SWITCH"].extras == blocked["SWITCH"].extras
    assert_engine_matches(sc, modes, 10, 4, point)


def test_3d_regions_use_offset_streams():
    sc3 = make_scenario_3d().with_power_db(25.0)
    kwargs = dict(chi_dist=(0.0, 0.5), tau_sq_dist=(0.0, 1.0))
    modes = ["BD", "BDS", "SWITCH", "SWITCH_RAW"]
    n = 3
    [got] = run_3d_paired(sc3, modes, n, 6, [SweepPoint(
        chi=(0.0, 0.5), tau_sq=(0.0, 1.0), theta_max=0.22 * math.pi)])
    for mode in modes:
        regions = [reference_paired(reduce_to_2d(sc3, l), [mode], n, 6,
                                    stream_base=l * n, theta_max=0.22 * math.pi,
                                    **kwargs)
                   for l in range(sc3.n_regions)]
        np.testing.assert_allclose(got[mode].trial_sum_rates,
                                   sum(sums[mode] for sums, _, _ in regions),
                                   rtol=RTOL, atol=0.0)
        # The terms and the pick rate of a switching scheme are the mean over
        # the regions.
        assert_terms_match(got[mode].trial_terms,
                           np.mean([terms[mode] for _, _, terms in regions], axis=0))
        extras = {} if mode in ("BD", "BDS") else {"bds_fraction": pytest.approx(
            np.mean([np.mean(picks[mode]) for _, picks, _ in regions]))}
        assert got[mode].extras == extras


@pytest.mark.parametrize("mode", ["BD", "BDS"])
def test_zero_gains_raise_instead_of_nan_rows(small_scenario, mode):
    sc = replace(small_scenario, gains=(0.0,) * small_scenario.G)
    with pytest.raises(DegenerateInputError):
        run_paired(sc, [mode], 3, 1, [SweepPoint()])


# ----------------------------------------------------------------------
# A sweep shares draws and channels across its points; each point's
# results must be those of a sweep of that point alone on the scenario at
# its power and fixed chi, bit for bit, with the points in order or
# reversed.
# ----------------------------------------------------------------------

ALL_MODES = ["BD", "BDS", "SWITCH", "SWITCH_RAW"]


def assert_same_results(got, want, modes, context=None):
    for mode in modes:
        assert np.array_equal(got[mode].trial_sum_rates,
                              want[mode].trial_sum_rates), (context, mode)
        assert np.array_equal(got[mode].trial_terms, want[mode].trial_terms)
        assert got[mode].stderr == want[mode].stderr
        assert got[mode].extras == want[mode].extras


def assert_sweep_equals_cells(scenario, modes, n_trials, seed, points):
    sweep = run_paired(scenario, modes, n_trials, seed, points)
    backward = run_paired(scenario, modes, n_trials, seed, points[::-1])[::-1]
    assert len(sweep) == len(points)
    for point, got, got_backward in zip(points, sweep, backward):
        sc, cell = scenario, replace(point, power=None)
        if point.power is not None:
            sc = sc.with_power(point.power)
        if point.chi is not None and point.draws[1] is None:
            sc, cell = sc.with_chi(point.chi), replace(cell, chi=None)
        [want] = run_paired(sc, modes, n_trials, seed, [cell])
        assert_same_results(got, want, modes, point)
        assert_same_results(got_backward, want, modes, point)


@pytest.mark.parametrize("points", [
    [SweepPoint(power=p, chi=c) for p in (1.0, 31.6) for c in (0.0, 0.3, 1.0)],
    [SweepPoint(tau_sq=t) for t in (0.0, 0.1, 0.5, 1.0)],
    [SweepPoint(power=p, chi=0.1, n_bits=b) for p in (3.0, 100.0) for b in (30, 60)],
    [SweepPoint(power=p, chi=(0.0, 0.5), tau_sq=(0.0, 1.0), n_bits=b)
     for p in (3.0, 100.0) for b in (None, 60)],
    [SweepPoint(power=p, theta_max=t, chi=c, tau_sq=0.2) for p in (3.0, 100.0)
     for t in (0.0, 0.69) for c in (0.1, 0.4)],
    # A cell at tau^2 = 0 keeps no CSIT noise, a sweep with a tau^2 = 0.1
    # point does: both read the same stream, aligned or mismatched.
    [SweepPoint(tau_sq=t, theta_max=th) for t in (0.0, 0.1) for th in (0.0, 0.69)],
], ids=["chi_power", "tau_sq", "n_bits", "dists", "mixed_theta", "noise_paths"])
def test_sweep_equals_cells(small_scenario, points):
    sc = small_scenario.with_power_db(10.0)
    assert_sweep_equals_cells(sc, ALL_MODES, 7, 3, points)


def test_sweep_equals_cells_on_fig4(fig4):
    points = [SweepPoint(power=p, chi=c, tau_sq=t)
              for p in (1.0, 1000.0) for c in (0.0, 0.1) for t in (0.0, 0.1)]
    assert_sweep_equals_cells(fig4, ["BD", "BDS"], 5, 17, points)


def test_single_pol_sweep_equals_cells():
    sc = make_scenario(M=40, G=2, n_bar=4, dual_pol=False, thetas=[-0.6, 0.6],
                       spread=math.pi / 10).with_power_db(10.0)
    sc = replace(sc, gains=(0.8, 1.3))
    points = [SweepPoint(power=p, tau_sq=t, theta_max=th)
              for p in (1.0, 100.0) for t in (0.0, 0.2) for th in (0.0, 0.69)]
    assert_sweep_equals_cells(sc, ["BD"], 4, 3, points)


def test_blocked_sweep_equals_cells(small_scenario, monkeypatch):
    three_trial_blocks(monkeypatch, small_scenario)
    points = [SweepPoint(power=p, chi=(0.0, 0.5), tau_sq=(0.0, 1.0), theta_max=t)
              for p in (3.0, 100.0) for t in (0.0, 0.69)]
    assert_sweep_equals_cells(small_scenario, ALL_MODES, 10, 4, points)


def test_3d_sweep_equals_cells():
    sc3 = make_scenario_3d()
    points = [SweepPoint(power=p, chi=(0.0, 0.5), tau_sq=(0.0, 1.0), theta_max=t)
              for p in (100.0, 316.0) for t in (0.0, 0.69)]
    sweep = run_3d_paired(sc3, ALL_MODES, 3, 6, points)
    backward = run_3d_paired(sc3, ALL_MODES, 3, 6, points[::-1])[::-1]
    for point, got, got_backward in zip(points, sweep, backward):
        [want] = run_3d_paired(replace(sc3, power=point.power), ALL_MODES, 3, 6,
                               [replace(point, power=None)])
        assert_same_results(got, want, ALL_MODES, point)
        assert_same_results(got_backward, want, ALL_MODES, point)


@pytest.mark.parametrize("theta_max", [0.0, 0.3])
def test_mixed_fixed_and_drawn_points_equal_their_solo_sweeps(small_scenario, theta_max):
    # Each draw set (theta_max, chi range, tau^2 range) reads the trial
    # streams from their start, so a drawn point next to fixed ones reads
    # what it reads alone, and the fixed ones what they read alone.
    sc = small_scenario.with_power_db(10.0)
    points = [SweepPoint(chi=0.2, theta_max=theta_max),
              SweepPoint(chi=(0.0, 0.5), theta_max=theta_max),
              SweepPoint(chi=0.1, tau_sq=(0.0, 1.0), theta_max=theta_max)]
    sweep = run_paired(sc, ALL_MODES, 7, 3, points)
    for point, got in zip(points, sweep):
        [want] = run_paired(sc, ALL_MODES, 7, 3, [point])
        assert_same_results(got, want, ALL_MODES, point)
        for mode in ALL_MODES:
            assert np.array_equal(got[mode].trial_picks, want[mode].trial_picks)


def test_blocks_are_sized_in_bytes(fig4):
    # The amplitude maps of a block stay within BLOCK_BYTES: 256 trials at
    # the fig4 cell, and about 20 at criterion 6's largest size,
    # (M, n_bar, B_bar, r) = (480, 28, 56, 29), whose G, n_bar and B_bar
    # are all the block size reads.
    assert metrics.block_trials(fig4) == 256
    large = SimpleNamespace(G=4, n_bar=28, b_bar=56)
    assert 1 <= metrics.block_trials(large) <= 32


def test_perfect_csit_sweep_memory(fig4_scenario):
    # The benchmark's fig4 sweep, 100 trials in one block: it holds no CSIT
    # noise and no complex copy of the received powers (12.97 MiB when it
    # did), one CSIT view at a time and one trial chunk's received powers
    # (10.16 MiB when it held both views and every trial's powers). It
    # reads 9.02 MiB run alone, 8.39 MiB once numpy.random is imported.
    pre = build_preprocessors(fig4_scenario)
    points = [SweepPoint(power=10.0 ** (snr / 10.0), chi=chi)
              for chi in (0.0, 0.1) for snr in (0, 15, 30)]
    tracemalloc.start()
    try:
        run_paired(fig4_scenario, ["BD", "BDS"], 100, 1, points, preprocessors=pre)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9.25 * 2 ** 20


def count_preprocessor_builds(monkeypatch):
    calls = []

    def counted(scenario):
        calls.append(scenario)
        return build_preprocessors(scenario)

    monkeypatch.setattr(metrics, "build_preprocessors", counted)
    monkeypatch.setattr(rmt, "build_preprocessors", counted)
    monkeypatch.setattr(precode, "build_preprocessors", counted)
    return calls


def test_switch_bases_share_one_de_sweep(small_scenario, monkeypatch):
    # One geometry build serves the trials and the chi = 0 BDS bases of
    # every power, however many powers the points hold.
    calls = count_preprocessor_builds(monkeypatch)
    points = [SweepPoint(power=p, chi=c) for p in (3.0, 10.0, 100.0) for c in (0.1, 0.4)]
    run_paired(small_scenario, ["SWITCH", "SWITCH_RAW"], 2, 1, points)
    assert len(calls) == 1


def test_3d_regions_share_one_preprocessor_build(monkeypatch):
    # The fig11 cell's three regions share the azimuth geometry: one build
    # serves every region's trials and SWITCH crossover.
    sc3 = make_scenario_3d().with_power_db(25.0)
    calls = count_preprocessor_builds(monkeypatch)
    run_3d_paired(sc3, ALL_MODES, 2, 1, [SweepPoint(theta_max=0.69)])
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["fig5", "fig11"])
def test_run_config_builds_the_preprocessors_once(monkeypatch, name):
    # fig5's Monte Carlo and DE schemes share one build (two before they
    # did); fig11's three regions share one build of the azimuth cell.
    calls = count_preprocessor_builds(monkeypatch)
    run_config(dict(preset(name), n_trials=2), io.StringIO())
    assert len(calls) == 1


def count_calls(monkeypatch, module, name):
    """The argument tuples of every call of ``module.name`` from now on."""
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_sweep_builds_each_trial_generator_once(small_scenario, monkeypatch):
    # Aligned and mismatched points read the same trial streams: each
    # trial's generator is built once and re-read from its saved start.
    n_trials = 5
    calls = count_calls(monkeypatch, RngStream, "generator")
    points = [SweepPoint(chi=(0.0, 0.5), theta_max=t) for t in (0.0, 0.3, 0.6)]
    run_paired(small_scenario, ["BD"], n_trials, 1, points)
    assert len(calls) == n_trials


@pytest.mark.parametrize("points, views_built", [
    ([SweepPoint(power=p, chi=c) for c in (0.0, 0.1) for p in (1.0, 31.6, 1000.0)],
     ["BD", "BDS"] * 2),
    ([SweepPoint(power=p, tau_sq=t) for p, t in ((1.0, 0.0), (1.0, 0.1), (31.6, 0.2))],
     ["BD"] * 3 + ["BDS"] * 3),
], ids=["chi_power", "tau_sq"])
def test_points_share_a_csit_view_across_powers(fig4_scenario, monkeypatch, points,
                                                 views_built):
    # Under one CSIT quality only the regularizer changes with the power:
    # each (chi, scheme) builds its effective channels and Gram once, while
    # a tau^2 sweep rebuilds them at every point. A chi's points run BD
    # before BDS, so one view is live at a time. Each point makes one
    # batched RZF per scheme (72 per-group calls on the first sweep before
    # the batching).
    rzf = count_calls(monkeypatch, precode, "rzf_precoder")
    views = count_calls(monkeypatch, metrics, "csit_view")
    run_paired(fig4_scenario, ["BD", "BDS"], 3, 1, points)
    assert len(rzf) == 2 * len(points)
    assert [args[3] for args in views] == views_built


@pytest.mark.parametrize("G", [1, 2, 4])
@pytest.mark.parametrize("split_cross", [False, True])
def test_stacked_decomposition_equals_per_group_loop(G, split_cross):
    # powers[t, l, g, k, j]: the stacked layout against the per-group loop,
    # which receives each group's powers as its own array.
    rng = np.random.default_rng(G)
    powers = rng.exponential(size=(7, G, G, 8, 8)) * 10.0 ** rng.uniform(-12, 2, (7, G, G, 8, 8))
    groups = np.arange(G)
    got = metrics._combine(powers[:, groups, groups], powers.sum(axis=-1), split_cross)
    want = decompose_per_group([np.ascontiguousarray(powers[:, :, g]) for g in range(G)],
                               split_cross)
    for name in ("sinr", "signal", "intra", "cross", "inter"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("mode", ["BD", "BDS"])
def test_sinr_report_equals_per_group_loop(fig4, mode):
    # The per-realization path is the engine at one trial: run_paired's
    # row of a one-trial, one-point sweep on the same stream, bit for bit.
    # The oracle builds its own M-row precoders and agrees to RTOL.
    pre = build_preprocessors(fig4)
    tau_sq, theta_max = 0.09, 0.3
    tau = math.sqrt(csit_tau_sq(tau_sq, None, fig4.r, mode))
    channels = draw_trial(fig4, RngStream(3, 0), theta_max=theta_max)
    got = sinr_report(fig4, channels, mode, tau=tau, preprocessors=pre)
    point = SweepPoint(tau_sq=tau_sq, theta_max=theta_max)
    run = run_paired(fig4, [mode], 1, 3, [point], preprocessors=pre)[0][mode]
    assert got.sum_rate == run.trial_sum_rates[0]
    assert np.array_equal(got.terms, run.trial_terms[0])
    want = reference_report(fig4, channels, mode, tau, pre)
    per_user = [np.column_stack([rep.signal, rep.intra, rep.cross, rep.inter])
                for rep in (got, want)]
    assert_terms_match(*per_user)
    np.testing.assert_allclose(got.sum_rate, want.sum_rate, rtol=RTOL, atol=0.0)
