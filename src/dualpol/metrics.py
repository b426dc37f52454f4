"""Instantaneous SINRs, sum rates, and the Monte Carlo harness.

The per-user SINR decomposition follows the closed forms of the two schemes
exactly: signal, intra-(sub)group, cross-polarized (BDS only) and
inter-group interference powers, with the noise power fixed at one. Monte
Carlo trials share channel draws across schemes (common random numbers) so
scheme comparisons are paired.

``run_paired`` evaluates a block of trials as one stacked computation in
the KL domain (``precode.kl_projections``); every trial still draws from
its own stream. One call runs a whole sweep on one geometry: the sweep
points (``SweepPoint``) share the preprocessors and every trial's draws,
since the preprocessors depend only on the long-term statistics and the
normals only on the seed; power, chi and tau^2 change only the RZF
regularizer, the cross-block scale and the CSIT mix. ``draw_trial``,
``precode.build_all`` and ``sinr_bd``/``sinr_bds`` compute the same for one
realization over the M-row channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

# rmt's functions are looked up on the module at call time, so wrappers
# installed there (perfbench/tracer.py) see the calls.
from . import rmt
from .channel import (
    PolarizationModel,
    RngStream,
    channel_from_normals,
    draw_channel,
    draw_mismatched_channel,
    draw_single_pol_channel,
)
from .corrstats import mismatch_effective_stats
from .errors import InvalidInputError
from .modeswitch import FeedbackBudget, chi_crossover_scale, tau_from_bits
from .precode import build_all, build_preprocessors, kl_projections, stacked_precoders
from .scenario import GroupScenario

__all__ = ["SinrReport", "McSummary", "SweepPoint", "sinr_bd", "sinr_bds",
           "sinr_report", "bds_tau_sq", "csit_tau_sq", "run_paired",
           "draw_trial"]

MC_MODES = ("BD", "BDS", "SWITCH", "SWITCH_RAW")

#: Trials stacked into one computation; bounds the memory of a long run.
TRIAL_BLOCK = 256


@dataclass(frozen=True)
class SinrReport:
    """Per-user SINRs (linear), rates, and the interference decomposition.

    Arrays end in the user axis; a trial-stacked report leads with a trial
    axis, and its ``sum_rate`` holds one value per trial.
    """

    sinr: np.ndarray
    signal: np.ndarray = field(repr=False)
    intra: np.ndarray = field(repr=False)
    cross: np.ndarray = field(repr=False)
    inter: np.ndarray = field(repr=False)

    @property
    def rates(self) -> np.ndarray:
        return np.log2(1.0 + self.sinr)

    @property
    def sum_rate(self):
        total = self.rates.sum(axis=-1)
        return float(total) if total.ndim == 0 else total

    @property
    def noise(self) -> float:
        return 1.0


@dataclass(frozen=True)
class McSummary:
    """Mean sum rate with its standard error over independent trials."""

    scheme: str
    n_trials: int
    sum_rate: float
    stderr: float
    trial_sum_rates: np.ndarray = field(repr=False)
    extras: dict = field(default_factory=dict, repr=False)

    @staticmethod
    def from_trials(scheme, sums, extras=None):
        sums = np.asarray(sums, dtype=float)
        n = sums.size
        std = sums.std(ddof=1) if n > 1 else 0.0
        return McSummary(
            scheme=scheme, n_trials=n, sum_rate=float(sums.mean()),
            stderr=float(std / np.sqrt(n)), trial_sum_rates=sums,
            extras=extras or {},
        )


def sinr_bd(channels: tuple, precoders, power: float) -> SinrReport:
    """SINR decomposition of the BD scheme for one realization."""
    if precoders.mode != "BD":
        raise InvalidInputError("sinr_bd needs BD-mode precoders")
    return _sinr_common(channels, precoders, power, split_cross=False)


def sinr_bds(channels: tuple, precoders, power: float) -> SinrReport:
    """SINR decomposition of the BDS scheme for one realization."""
    if precoders.mode != "BDS":
        raise InvalidInputError("sinr_bds needs BDS-mode precoders")
    return _sinr_common(channels, precoders, power, split_cross=True)


def sinr_report(scenario: GroupScenario, channels: tuple, mode: str,
                tau: float = 0.0, preprocessors=None) -> SinrReport:
    """Precode one realization with ``build_all`` and decompose its SINRs."""
    pre = build_all(scenario, channels, mode, tau=tau, preprocessors=preprocessors)
    sinr = sinr_bd if mode == "BD" else sinr_bds
    return sinr(channels, pre, scenario.power)


def _sinr_common(channels, precoders, power, split_cross):
    """Decompose |h_gk^H (B_l P_l)_j|^2 of every group g, stacked over l."""
    per_stream = power / sum(entry.n_users for entry in channels)
    tx = np.stack([precoders.transmit_matrix(g) for g in range(len(channels))])
    return _decompose([per_stream * np.abs(entry.H.conj().T @ tx) ** 2
                       for entry in channels], split_cross)


def _decompose(powers, split_cross):
    """SINR decomposition from received powers.

    ``powers[g][..., l, k, j]`` is the power user k of group g receives from
    stream j of group l; leading axes stack trials.
    """
    G = len(powers)
    signal, intra, cross, inter = [], [], [], []
    for g, pw in enumerate(powers):
        own = pw[..., g, :, :]
        n = own.shape[-1]
        diag = np.diagonal(own, axis1=-2, axis2=-1)
        if split_cross:
            n2 = n // 2
            same_block = np.concatenate([own[..., :n2, :n2].sum(axis=-1),
                                         own[..., n2:, n2:].sum(axis=-1)], axis=-1)
            cross_g = np.concatenate([own[..., :n2, n2:].sum(axis=-1),
                                      own[..., n2:, :n2].sum(axis=-1)], axis=-1)
            intra_g = same_block - diag
        else:
            intra_g = own.sum(axis=-1) - diag
            cross_g = np.zeros_like(diag)
        if G == 1:
            inter_g = np.zeros_like(diag)
        else:
            inter_g = sum(pw[..., l, :, :].sum(axis=-1) for l in range(G) if l != g)
        signal.append(diag)
        intra.append(intra_g)
        cross.append(cross_g)
        inter.append(inter_g)
    signal = np.concatenate(signal, axis=-1)
    intra = np.concatenate(intra, axis=-1)
    cross = np.concatenate(cross, axis=-1)
    inter = np.concatenate(inter, axis=-1)
    sinr = signal / (intra + cross + inter + 1.0)
    return SinrReport(sinr=sinr, signal=signal, intra=intra, cross=cross, inter=inter)


def bds_tau_sq(tau_sq_bd):
    """Equal-feedback CSIT quality of BDS given BD's tau^2.

    Halving the quantized dimension squares the distortion bound, so the
    same bit budget that leaves BD at tau^2 leaves BDS at (tau^2)^2.
    """
    return np.minimum(tau_sq_bd * tau_sq_bd, 1.0)


def csit_tau_sq(tau_sq, n_bits, r: int, scheme: str):
    """CSIT quality tau^2 of a scheme, BD or BDS.

    An ``n_bits`` budget gives the scheme its exact RVQ bound; otherwise
    ``tau_sq`` is BD's quality, clamped to 1, and BDS gets its
    equal-feedback equivalent. ``tau_sq`` may hold one value per trial.
    """
    if n_bits is not None:
        return tau_from_bits(FeedbackBudget(n_bits=n_bits, r=r), scheme)
    if np.any(np.asarray(tau_sq) < 0.0):
        raise InvalidInputError("tau_sq must be nonnegative")
    tau_sq = np.minimum(tau_sq, 1.0)
    return tau_sq if scheme == "BD" else bds_tau_sq(tau_sq)


def draw_trial(scenario: GroupScenario, rng, chi=None, theta_max=0.0):
    """All groups' channels for one coherence block: a tuple in group order."""
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    chi = scenario.chi if chi is None else chi
    entries = []
    for g, cov in enumerate(scenario.covariances):
        gain = scenario.gains[g]
        if not scenario.dual_pol:
            entries.append(draw_single_pol_channel(cov, scenario.n_bar, gen, gain))
        elif theta_max > 0.0:
            entries.append(draw_mismatched_channel(
                cov, PolarizationModel(chi), theta_max, scenario.n_bar, gen, gain))
        else:
            entries.append(draw_channel(cov, PolarizationModel(chi),
                                        scenario.n_bar, gen, gain))
    return tuple(entries)


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep over a fixed geometry and seed.

    ``power`` and ``chi`` default to the scenario's. ``tau_sq`` and
    ``n_bits`` set the CSIT qualities as in ``csit_tau_sq``; a run's
    ``chi_dist``/``tau_sq_dist`` draw chi/tau^2 per trial instead. A
    positive ``theta_max`` turns each user's antenna by a random angle.
    """

    power: float | None = None
    chi: float | None = None
    tau_sq: float = 0.0
    n_bits: int | None = None
    theta_max: float = 0.0


def _draw_block(scenario, seed, streams, chi_dist, tau_sq_dist, theta_max):
    """A trial block's draws: (chi, tau^2, normals, angles).

    Trial t reads RngStream(seed, t) in the order of ``draw_trial``: the
    chi_dist and tau_sq_dist uniforms (chi and tau^2 are None without
    them), then per group the normals of G and Z and, when mismatched
    (``theta_max`` > 0), the angles and the orthogonal port's normals.
    Normals that follow each other in a stream come from one call. The
    normals come per group, shaped (T, k, rows, n) for
    ``channel_from_normals``.
    """
    T, n = len(streams), scenario.n_bar
    mismatched = theta_max > 0.0
    k = 6 if mismatched else 4
    pols = 2 if scenario.dual_pol else 1
    rows = [pols * cov.effective_rank for cov in scenario.covariances]
    ends = np.cumsum([k * rows_g * n for rows_g in rows])
    starts = np.concatenate([[0], ends[:-1]])
    normals = np.empty((T, ends[-1]))
    angles = np.empty((scenario.G, T, n)) if mismatched else [None] * scenario.G
    chi = np.empty(T) if chi_dist else None
    tau_sq = np.empty(T) if tau_sq_dist else None
    for t, stream in enumerate(streams):
        gen = RngStream(seed, stream).generator()
        if chi_dist:
            chi[t] = gen.uniform(*chi_dist)
        if tau_sq_dist:
            tau_sq[t] = gen.uniform(*tau_sq_dist)
        if not mismatched:
            gen.standard_normal(out=normals[t])
            continue
        for g, (start, end) in enumerate(zip(starts, ends)):
            split = start + 4 * rows[g] * n
            gen.standard_normal(out=normals[t, start:split])
            angles[g, t] = gen.uniform(-theta_max, theta_max, size=n)
            gen.standard_normal(out=normals[t, split:end])
    per_group = [normals[:, start:end].reshape(T, k, rows_g, n)
                 for rows_g, start, end in zip(rows, starts, ends)]
    return chi, tau_sq, per_group, angles


def _amplitude_maps(D, channels, pols):
    """Per group g, X_g^H blockdiag(D_gl, D_gl) for every l: (T, G, n, B_bar).

    Right-multiplied by group l's inner precoder it gives the amplitudes of
    l's streams at g's users.
    """
    maps = []
    for D_g, entry in zip(D, channels):
        X = entry.X
        T, rows, n = X.shape
        XpH = X.reshape(T, pols, rows // pols, n).conj().swapaxes(-1, -2)
        Y = (XpH @ D_g).reshape(T, pols, n, len(D), -1)
        maps.append(Y.transpose(0, 3, 2, 1, 4).reshape(T, len(D), n, -1))
    return maps


def _stacked_report(scenario, C, maps, channels, mode, tau, trials):
    P = stacked_precoders(scenario, C, channels, mode, tau, trials)
    per_stream = scenario.power / scenario.n_users
    powers = [per_stream * np.abs(Y[trials] @ P) ** 2 for Y in maps]
    return _decompose(powers, split_cross=mode == "BDS")


def _point_rates(scenario, C, maps, channels, modes, point, tau_sq, chi_used, scale):
    """Per-trial sum rates of every mode at one sweep point, and the trials
    each mode evaluates with BDS.

    ``scenario`` is at the point's power and ``tau_sq`` holds the drawn
    per-trial tau^2, or None. The switching schemes pick BDS where their
    chi (``chi_used``) is at most ``scale`` tau_BD^2. Each of BD and BDS is
    evaluated only on the trials some mode needs it for.
    """
    T = channels[0].X.shape[0]
    if tau_sq is None:
        tau_sq = np.full(T, float(point.tau_sq))

    def tau(scheme):
        return np.sqrt(np.broadcast_to(
            csit_tau_sq(tau_sq, point.n_bits, scenario.r, scheme), (T,)))

    tau_bd = tau("BD")
    uses_bds = {}
    for mode in modes:
        if mode in ("BD", "BDS"):
            uses_bds[mode] = np.full(T, mode == "BDS")
        elif np.isfinite(scale):
            uses_bds[mode] = chi_used[mode] <= scale * tau_bd ** 2
        else:
            # No intra-subgroup interference: BDS wherever CSIT is imperfect.
            uses_bds[mode] = (tau_bd > 0.0) | (chi_used[mode] <= 0.0)
    picks = np.array(list(uses_bds.values()))
    rates = {}
    for scheme, needed in (("BD", ~picks.all(axis=0)), ("BDS", picks.any(axis=0))):
        rates[scheme] = np.full(T, np.nan)
        if not needed.any():
            continue
        trials = slice(None) if needed.all() else np.flatnonzero(needed)
        report = _stacked_report(scenario, C, maps, channels, scheme,
                                 tau_bd if scheme == "BD" else tau("BDS"), trials)
        rates[scheme][trials] = report.sum_rate
    return {m: np.where(uses_bds[m], rates["BDS"], rates["BD"]) for m in modes}, uses_bds


def _chi_rates(scenario, C, D, modes, chi, draws, theta_max, points, scenarios,
               scales):
    """``_point_rates`` of the points that share one chi's channels, built
    from a trial block's ``draws`` (tau^2, normals, angles)."""
    tau_sq, normals, angles = draws
    channels = [channel_from_normals(cov, chi, normals_g, angles_g, gain, scenario.dual_pol)
                for cov, normals_g, angles_g, gain in zip(
                    scenario.covariances, normals, angles, scenario.gains)]
    maps = _amplitude_maps(D, channels, 2 if scenario.dual_pol else 1)
    chi_used = {"SWITCH": chi, "SWITCH_RAW": chi}
    if theta_max > 0.0 and "SWITCH" in modes:
        chi_used["SWITCH"] = np.array([mismatch_effective_stats(c, theta_max).chi_eff
                                       for c in chi])
    return [_point_rates(scenarios[p.power], C, maps, channels, modes, p, tau_sq,
                         chi_used, scales.get(p.power)) for p in points]


def _grouped(indices, key):
    """The indices grouped by ``key``, in order of first appearance."""
    groups = {}
    for i in indices:
        groups.setdefault(key(i), []).append(i)
    return groups.items()


def run_paired(scenario: GroupScenario, modes, n_trials: int, seed: int,
               *, tau_sq=0.0, n_bits=None, theta_max=0.0,
               chi_dist=None, tau_sq_dist=None,
               base=None, stream_base: int = 0, points=None):
    """Run all requested schemes on shared channel draws.

    ``modes`` may contain BD, BDS, SWITCH, and SWITCH_RAW. CSIT quality comes
    either from ``n_bits`` (exact RVQ bounds for each scheme) or from
    ``tau_sq`` interpreted as BD's quality, with BDS at its equal-feedback
    equivalent. ``chi_dist``/``tau_sq_dist`` draw those parameters per
    trial. ``stream_base`` offsets the per-trial RNG streams so independent
    sub-experiments (e.g. elevation regions) stay decorrelated. Returns a
    dict of ``McSummary`` per mode.

    ``points``, a sequence of ``SweepPoint``, runs a whole sweep on one
    geometry instead and returns one such dict per point; ``tau_sq``,
    ``n_bits`` and ``theta_max`` then come from the points. The points share
    the preprocessors, the trial draws (one per theta_max) and the
    channels built from them (one per chi). Each point's results are those
    of the one-point call on ``scenario`` at its power and chi.

    The switching schemes pick BD or BDS per trial, from chi: SWITCH from
    the effective chi of a mismatched draw, SWITCH_RAW from the raw one.
    Their crossover comes from ``rmt.asym_bds`` at chi = 0 and each point's
    power, or from ``base``.
    """
    if n_trials < 1:
        raise InvalidInputError("n_trials must be at least 1")
    modes = list(modes)
    unknown = [m for m in modes if m not in MC_MODES]
    if unknown:
        raise InvalidInputError(f"unknown schemes: {', '.join(unknown)}")
    one_point = points is None
    if one_point:
        points = [SweepPoint(tau_sq=tau_sq, n_bits=n_bits, theta_max=theta_max)]
    elif (tau_sq, n_bits, theta_max) != (0.0, None, 0.0):
        raise InvalidInputError("a sweep takes tau_sq, n_bits and theta_max per point")
    points = [replace(p, power=scenario.power if p.power is None else p.power,
                      chi=scenario.chi if p.chi is None else p.chi) for p in points]
    if any(not 0.0 <= p.theta_max <= np.pi / 2 for p in points):
        raise InvalidInputError("theta_max must lie in [0, pi/2]")
    preprocessors = build_preprocessors(scenario)
    C, D = kl_projections(scenario, preprocessors)
    scenarios = {p.power: scenario.with_power(p.power) for p in points}
    scales = {}
    if any(m.startswith("SWITCH") for m in modes):
        if base is not None and len(scenarios) > 1:
            raise InvalidInputError("base serves one power; the points have several")
        for power, sc in scenarios.items():
            scales[power] = chi_crossover_scale(
                base if base is not None else rmt.asym_bds(sc.with_chi(0.0), tau_sq=0.0))

    sums = [{m: [] for m in modes} for _ in points]
    bds_picks = [dict.fromkeys(modes, 0) for _ in points]
    # Aligned draws serve every theta_max = 0 point; single-polarized
    # arrays are never mismatched.
    by_draw = _grouped(range(len(points)), lambda i: (
        points[i].theta_max if scenario.dual_pol and points[i].theta_max > 0.0 else 0.0))
    for first in range(0, n_trials, TRIAL_BLOCK):
        streams = range(stream_base + first,
                        stream_base + min(first + TRIAL_BLOCK, n_trials))
        for theta_max, at_theta in by_draw:
            chi_drawn, *draws = _draw_block(
                scenario, seed, streams, chi_dist, tau_sq_dist, theta_max)
            for chi, at_chi in _grouped(
                    at_theta, lambda i: None if chi_dist else points[i].chi):
                chi = chi_drawn if chi_dist else np.full(len(streams), float(chi))
                at_chi_rates = _chi_rates(
                    scenario, C, D, modes, chi, draws, theta_max,
                    [points[i] for i in at_chi], scenarios, scales)
                for i, (rates, uses_bds) in zip(at_chi, at_chi_rates):
                    for mode in modes:
                        sums[i][mode].append(rates[mode])
                        bds_picks[i][mode] += int(np.count_nonzero(uses_bds[mode]))
    out = []
    for sums_p, picks_p in zip(sums, bds_picks):
        results = {}
        for mode in modes:
            extras = {}
            if mode.startswith("SWITCH"):
                extras["bds_fraction"] = picks_p[mode] / n_trials
            results[mode] = McSummary.from_trials(mode, np.concatenate(sums_p[mode]), extras)
        out.append(results)
    return out[0] if one_point else out
