"""Instantaneous SINRs, sum rates, and the Monte Carlo harness.

The per-user SINR decomposition follows the closed forms of the two schemes
exactly: signal, intra-(sub)group, cross-polarized (BDS only) and
inter-group interference powers, with the noise power fixed at one. Monte
Carlo trials share channel draws across schemes (common random numbers) so
scheme comparisons are paired.

``run_paired`` evaluates a block of trials as one stacked computation in
the KL domain (``precode.kl_projections``); every trial still draws from
its own stream. A block holds as many trials as keep its largest array
within ``BLOCK_BYTES``, and a sweep that only reads perfect CSIT holds no
CSIT noise. One call runs a whole sweep on one geometry: the sweep
points (``SweepPoint``) share the preprocessors and every trial's draws
(one set per theta_max and drawn chi and tau^2 range, each read from the
trial stream's one generator), since the preprocessors depend only on the
long-term statistics and the normals only on the seed; power, chi and
tau^2 change only the RZF regularizer, the cross-block scale and the CSIT
mix. A point's precoders are one batched RZF over every trial and group,
and the points at one chi and CSIT quality share its
``precode.CsitView``, so between them only the regularizer changes. The
per-realization API (``draw_trial``, ``precode.build_all``,
``sinr_bd``/``sinr_bds``) is this engine at one trial: ``draw_trial`` reads
its trial through ``_draw_block``, the one reader of a trial's stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# rmt's functions are looked up on the module at call time, so wrappers
# installed there (perfbench/tracer.py) see the calls.
from . import rmt
from .channel import RngStream, _read_group, channel_from_normals
# Unused here: perfbench/tracer.py still wraps these two names.
from .channel import draw_channel, draw_mismatched_channel  # noqa: F401
from .corrstats import mismatch_effective_stats
from .errors import InvalidInputError
from .modeswitch import chi_crossover_scale, csit_tau_sq
from .precode import (
    _one_trial,
    build_all,
    build_preprocessors,
    csit_view,
    kl_projections,
    stacked_precoders,
)
from .scenario import GroupScenario, SweepPoint

__all__ = ["SinrReport", "McSummary", "sinr_bd", "sinr_bds", "sinr_report",
           "run_paired", "draw_trial"]

MC_MODES = ("BD", "BDS", "SWITCH", "SWITCH_RAW")

#: Bytes of the largest array of a block of trials, the amplitude maps
#: (``_amplitude_maps``): it sets how many trials a block stacks, and so
#: the memory of a long run (``block_trials``).
BLOCK_BYTES = 8 << 20

#: Trial chunks in which ``_report`` forms the received powers.
_POWER_CHUNKS = 8


def block_trials(scenario: GroupScenario) -> int:
    """Trials stacked into one computation: as many as keep the amplitude
    maps, 16 G^2 n_bar B_bar bytes per trial, within ``BLOCK_BYTES``; at
    least one."""
    per_trial = 16 * scenario.G ** 2 * scenario.n_bar * scenario.b_bar
    return max(1, BLOCK_BYTES // per_trial)


@dataclass(frozen=True)
class SinrReport:
    """Per-user interference terms, and the SINRs (linear) and rates they give.

    Arrays end in the user axis; a trial-stacked report leads with a trial
    axis, and its ``sum_rate`` holds one value per trial.
    """

    signal: np.ndarray = field(repr=False)
    intra: np.ndarray = field(repr=False)
    cross: np.ndarray = field(repr=False)
    inter: np.ndarray = field(repr=False)

    @property
    def sinr(self) -> np.ndarray:
        return self.signal / (self.intra + self.cross + self.inter + 1.0)

    @property
    def rates(self) -> np.ndarray:
        return np.log2(1.0 + self.sinr)

    @property
    def sum_rate(self):
        total = self.rates.sum(axis=-1)
        return float(total) if total.ndim == 0 else total

    @property
    def terms(self) -> np.ndarray:
        """Per-user mean signal, intra, cross and inter powers: (..., 4)."""
        return np.stack([x.mean(axis=-1) for x in
                         (self.signal, self.intra, self.cross, self.inter)], axis=-1)


@dataclass(frozen=True)
class McSummary:
    """A scheme's per-trial sum rates, terms (``SinrReport.terms``) and BDS
    picks (switching schemes), with the mean sum rate and its stderr."""

    scheme: str
    trial_sum_rates: np.ndarray = field(repr=False)
    trial_terms: np.ndarray | None = field(default=None, repr=False)
    trial_picks: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_trials(self) -> int:
        return self.trial_sum_rates.size

    @property
    def sum_rate(self) -> float:
        return float(self.trial_sum_rates.mean())

    @property
    def stderr(self) -> float:
        n = self.n_trials
        return float(self.trial_sum_rates.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0

    @property
    def terms(self) -> np.ndarray:
        return self.trial_terms.mean(axis=0)

    @property
    def extras(self) -> dict:
        """A switching scheme's ``bds_fraction``, the mean of its picks."""
        picks = self.trial_picks
        return {} if picks is None else {"bds_fraction": float(picks.mean())}


def sinr_bd(channels: tuple, precoders, power: float) -> SinrReport:
    """SINR decomposition of the BD scheme for one realization."""
    return _realization_report(channels, precoders, power, "BD")


def sinr_bds(channels: tuple, precoders, power: float) -> SinrReport:
    """SINR decomposition of the BDS scheme for one realization."""
    return _realization_report(channels, precoders, power, "BDS")


def sinr_report(scenario: GroupScenario, channels: tuple, mode: str,
                tau: float = 0.0, preprocessors=None) -> SinrReport:
    """Precode one realization with ``build_all`` and decompose its SINRs."""
    pre = build_all(scenario, channels, mode, tau=tau, preprocessors=preprocessors)
    return _realization_report(channels, pre, scenario.power, mode)


def _realization_report(channels, precoders, power, mode):
    """``_report`` at one trial, in the KL bases of the channels as given."""
    if precoders.mode != mode:
        raise InvalidInputError(f"sinr_{mode.lower()} needs {mode}-mode precoders")
    _, D = kl_projections(precoders.preprocessors, [entry.stats for entry in channels],
                          [entry.gain for entry in channels])
    maps = _amplitude_maps(D, _one_trial(channels))
    return _report(maps[0], precoders.inner, power, mode == "BDS")


def _combine(own, received, split_cross):
    """The SINR decomposition from two reductions of the received powers
    ``powers[..., l, g, k, j]``, the power user k of group g receives from
    stream j of group l (leading axes stack trials): ``own[..., g, k, j]``,
    group g's power from its own streams, and ``received[..., l, g, k]``,
    the sum over j, which this overwrites. A user's inter-group term adds
    the other groups' powers in ascending order of l.
    """
    G, n = own.shape[-3], own.shape[-1]
    groups = np.arange(G)
    lead = own.shape[:-3]
    diag = np.diagonal(own, axis1=-2, axis2=-1)
    if split_cross:
        n2 = n // 2
        same_block = np.concatenate([own[..., :n2, :n2].sum(axis=-1),
                                     own[..., n2:, n2:].sum(axis=-1)], axis=-1)
        cross = np.concatenate([own[..., :n2, n2:].sum(axis=-1),
                                own[..., n2:, :n2].sum(axis=-1)], axis=-1)
        intra = same_block - diag
    else:
        intra = received[..., groups, groups, :] - diag
        cross = np.zeros_like(diag)
    # Adding the zeroed own group's power is exact, so this is the sum over
    # the other groups in ascending order.
    received[..., groups, groups, :] = 0.0
    inter = sum(received[..., l, :, :] for l in range(G))
    return SinrReport(*(x.reshape(*lead, G * n) for x in (diag, intra, cross, inter)))


def draw_trial(scenario: GroupScenario, rng, chi=None, theta_max=0.0):
    """All groups' channels for one coherence block: a tuple in group order.

    The trial is ``_draw_block``'s read of one trial from ``rng``, an
    ``RngStream`` or a Generator, which then continues past it. Its chi
    (the scenario's when None) and ``theta_max`` are resolved and checked
    as ``run_paired``'s points are, by ``SweepPoint.on``, before the read,
    and the draw keeps its CSIT noise. A (lo, hi) chi is drawn as the
    engine draws it, and the channels are built at the drawn value.
    """
    point = SweepPoint(chi=chi, theta_max=theta_max).on(scenario)
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    drawn, _, normals, angles = next(_draw_block(scenario, [gen], [point.draws], True))
    chi = point.chi if drawn is None else drawn[0]
    return tuple(channel_from_normals(cov, chi, normals_g[0],
                                      None if angles_g is None else angles_g[0], gain)
                 for cov, normals_g, angles_g, gain in zip(
                     scenario.covariances, normals, angles, scenario.gains))


def _draw_block(scenario, gens, draws, noise):
    """A trial block's draws, one (chi, tau^2, normals, angles) per
    (theta_max, chi range, tau^2 range) in ``draws`` (``SweepPoint.draws``),
    yielded in turn so that one set of normals is held at a time: the one
    reader of a trial's stream.

    Trial t reads its generator ``gens[t]`` (``run_paired`` builds it once
    per block, from RngStream(seed, stream_base + t)) in this order: a
    uniform from the chi range, one from the tau^2 range (chi and tau^2 are
    None for a fixed value), then each group's draws
    (``channel._read_group``), mismatched when theta_max > 0. Every set
    after the first restores the generators to their start and reads its
    own uniforms and group draws, as a fresh stream would. The normals and
    angles come per group, the normals shaped (T, k, rows, n) for
    ``channel_from_normals``. Without ``noise`` the CSIT noise's normals
    are still read, into one scratch array, but not kept.
    """
    T, n = len(gens), scenario.n_bar
    rows = [scenario.pols * cov.effective_rank for cov in scenario.covariances]
    starts = [gen.bit_generator.state for gen in gens] if len(draws) > 1 else None
    scratch = None if noise else np.empty(2 * max(rows) * n)
    for k, (theta_max, *ranges) in enumerate(draws):
        for gen, start in zip(gens, starts if k else ()):  # the first set is at the start
            gen.bit_generator.state = start
        chi, tau_sq = (None if r is None else np.array([gen.uniform(*r) for gen in gens])
                       for r in ranges)
        theta = theta_max if theta_max > 0.0 else None  # None: aligned draws
        parts = (4 if noise else 2) + (0 if theta is None else 2)
        normals = [np.empty((T, parts, rows_g, n)) for rows_g in rows]
        angles = [None] * scenario.G if theta is None else np.empty((scenario.G, T, n))
        for t, gen in enumerate(gens):
            for g, normals_g in enumerate(normals):
                angles_g = _read_group(gen, normals_g[t], theta, scratch)
                if theta is not None:
                    angles[g, t] = angles_g
        yield chi, tau_sq, normals, angles


def _amplitude_maps(D, channels):
    """X_g^H blockdiag(D_gl, D_gl) of every pair of groups (l, g), stacked
    as (T, G_l, G_g n, B_bar): row block g holds group g's users. A
    single-polarized array's X has one row block, and the block diagonal
    one D_gl (``GroupChannel.pols``).

    Right-multiplied by the inner precoders (``stacked_precoders``) it gives
    the amplitudes of every group's streams at every user.
    """
    G = len(D)
    T, _, n = channels[0].X.shape
    pols = channels[0].pols
    maps = np.empty((T, G, G, n, pols, D[0].shape[1] // G), dtype=complex)
    for g, (D_g, entry) in enumerate(zip(D, channels)):
        X = entry.X
        XpH = X.reshape(T, pols, -1, n).conj().swapaxes(-1, -2)
        maps[:, :, g] = (XpH @ D_g).reshape(T, pols, n, G, -1).transpose(0, 3, 2, 1, 4)
    return maps.reshape(T, G, G * n, -1)


def _stacked_report(scenario, maps, view):
    """The ``SinrReport`` of a ``precode.CsitView`` at the scenario's power."""
    return _report(maps, stacked_precoders(scenario, view), scenario.power,
                   split_cross=view.mode == "BDS")


def _report(maps, P, power, split_cross):
    """The ``SinrReport`` of inner precoders P (..., G, B_bar, n_bar) seen
    through ``_amplitude_maps``, each stream at an equal share of ``power``.

    The powers |maps @ P|^2 power / (G n_bar) are formed in place one trial
    chunk at a time, and each chunk is reduced to the two arrays
    ``_combine`` reads, so neither a complex product nor the received
    powers of every trial are held.
    """
    *lead, G, B, n = P.shape
    maps = maps.reshape(-1, *maps.shape[-3:])
    P = P.reshape(-1, G, B, n)
    k = maps.shape[-2] // G
    groups = np.arange(G)
    own = np.empty((len(P), G, k, n))
    received = np.empty((len(P), G, G, k))
    step = -(-len(P) // _POWER_CHUNKS)
    for first in range(0, len(P), step):
        chunk = slice(first, first + step)
        powers = np.abs(maps[chunk] @ P[chunk]).reshape(-1, G, G, k, n)
        np.square(powers, out=powers)
        powers *= power / (G * n)
        own[chunk] = powers[:, groups, groups]
        powers.sum(axis=-1, out=received[chunk])
    return _combine(own.reshape(*lead, G, k, n), received.reshape(*lead, G, G, k),
                    split_cross)


def _csit_tau(scenario, point, tau_sq, scheme, T):
    """A scheme's per-trial CSIT quality tau at a sweep point, (T,);
    ``tau_sq`` holds the drawn per-trial tau^2, or None."""
    tau_sq = point.tau_sq if tau_sq is None else tau_sq
    return np.sqrt(np.broadcast_to(csit_tau_sq(tau_sq, point.n_bits, scenario.r, scheme), (T,)))


def _point_picks(scenario, modes, point, tau_sq, chi_used, scale, T):
    """BD's per-trial tau at one sweep point, and where each mode
    evaluates BDS: one boolean (T,) array per mode.

    ``scenario`` is at the point's power. The switching schemes pick BDS
    where their chi (``chi_used``) is at most ``scale`` tau_BD^2.
    """
    tau_bd = _csit_tau(scenario, point, tau_sq, "BD", T)
    uses_bds = {}
    for mode in modes:
        if mode in ("BD", "BDS"):
            uses_bds[mode] = np.full(T, mode == "BDS")
        else:
            # scale tau_BD^2 is 0 at tau_BD = 0 even where the scale is
            # infinite (one user per subgroup): the finite rule's limit.
            uses_bds[mode] = chi_used[mode] <= np.multiply(
                scale, tau_bd ** 2, out=np.zeros(T), where=tau_bd > 0.0)
    return tau_bd, uses_bds


def _summary(mode, rows):
    """The ``McSummary`` of a mode's (n_trials, 6) ``_chi_rows``."""
    picks = rows[:, 5] if mode.startswith("SWITCH") else None
    return McSummary(mode, np.ascontiguousarray(rows[:, 0]), rows[:, 1:5], picks)


def _chi_rows(scenario, C, D, modes, chi, draws, theta_max, points, scenarios,
              scales):
    """Per-trial rows of every mode at each of the points that share one
    chi's channels, built from a trial block's ``draws`` (tau^2, normals,
    angles): one dict per point of (T, 6) arrays, the sum rate, the four
    ``SinrReport.terms`` and 1 where BDS evaluates the trial.

    Each of BD and BDS is evaluated on the whole block at the points where
    some mode picks it on some trial, and BDS's tau is computed only there.
    BD runs at every point before BDS, so one ``precode.CsitView`` is live
    at a time; consecutive points share it while their CSIT quality does.
    """
    tau_sq, normals, angles = draws
    channels = [channel_from_normals(cov, chi, normals_g, angles_g, gain)
                for cov, normals_g, angles_g, gain in zip(
                    scenario.covariances, normals, angles, scenario.gains)]
    maps = _amplitude_maps(D, channels)
    T = maps.shape[0]
    chi_used = {"SWITCH": chi, "SWITCH_RAW": chi}
    if theta_max > 0.0 and "SWITCH" in modes:
        chi_used["SWITCH"] = mismatch_effective_stats(chi, theta_max).chi_eff
    picks = [_point_picks(scenarios[p.power], modes, p, tau_sq, chi_used,
                          scales.get(p.power), T) for p in points]
    rows = [{"BD": np.nan, "BDS": np.nan} for _ in points]
    for scheme in ("BD", "BDS"):
        view = None
        for p, (tau_bd, uses_bds), rows_p in zip(points, picks, rows):
            bds = np.array(list(uses_bds.values()))
            if not (bds if scheme == "BDS" else ~bds).any():
                continue
            tau = tau_bd if scheme == "BD" else _csit_tau(scenario, p, tau_sq, "BDS", T)
            if view is None or not np.array_equal(view.tau, tau):
                view = None  # free the old view before building the next
                view = csit_view(scenario, C, channels, scheme, tau)
            rep = _stacked_report(scenarios[p.power], maps, view)
            rows_p[scheme] = np.column_stack([rep.sum_rate, rep.terms])
    return [{m: np.column_stack([np.where(uses_bds[m][:, None], rows_p["BDS"], rows_p["BD"]),
                                 uses_bds[m]]) for m in modes}
            for (_, uses_bds), rows_p in zip(picks, rows)]


def _grouped(indices, key):
    """The indices grouped by ``key``, in order of first appearance."""
    groups = {}
    for i in indices:
        groups.setdefault(key(i), []).append(i)
    return groups.items()


def run_paired(scenario: GroupScenario, modes, n_trials: int, seed: int,
               points, *, stream_base: int = 0, preprocessors=None):
    """Run all requested schemes over a sweep on one geometry, on shared
    channel draws; one dict of ``McSummary`` per mode for each point.

    ``modes`` may contain BD, BDS, SWITCH, and SWITCH_RAW. ``points`` is a
    sequence of ``SweepPoint``, which set the power, chi and CSIT quality
    and are resolved and checked (``SweepPoint.on``) before any trial is
    drawn. A point's chi or tau^2 range is drawn uniformly once per trial.
    ``stream_base`` offsets the per-trial RNG streams so independent
    sub-experiments (e.g. elevation regions) stay decorrelated.

    The points share the preprocessors, the trial draws and the channels
    built from them (one per chi). Each trial stream is seeded once per
    block of trials and read again from its start for each distinct
    (theta_max, chi range, tau^2 range) (``SweepPoint.draws``), which draws
    its own uniforms and normals. When no point reads CSIT noise (every
    tau^2 0 and no n_bits), the draws read the noise's normals but keep
    none. A point's results do not depend on the other points, for any mix
    of fixed and drawn ones: they are those of a sweep of that point alone.

    The switching schemes pick BD or BDS per trial, from chi: SWITCH from
    the effective chi of a mismatched draw, SWITCH_RAW from the raw one.
    Their crossover comes from BDS's deterministic equivalent at chi = 0 and
    each point's power (one ``rmt.asym_sweep`` call).

    ``preprocessors``, the scenario's ``build_preprocessors``, serves a
    caller that runs several scenarios on one geometry; the trials and the
    crossover share them, so the call builds them at most once.
    """
    if n_trials < 1:
        raise InvalidInputError("n_trials must be at least 1")
    modes = list(modes)
    unknown = [m for m in modes if m not in MC_MODES]
    if unknown:
        raise InvalidInputError(f"unknown schemes: {', '.join(unknown)}")
    points = [p.on(scenario) for p in points]
    scenarios = {p.power: scenario.with_power(p.power) for p in points}
    if preprocessors is None:
        preprocessors = build_preprocessors(scenario)
    C, D = kl_projections(preprocessors, scenario.covariances, scenario.gains)
    scales = {}
    if any(m.startswith("SWITCH") for m in modes):
        bases = rmt.asym_sweep(scenario, ["BDS"], [SweepPoint(power, 0.0) for power in scenarios],
                               preprocessors)
        scales = {power: chi_crossover_scale(b["BDS"]) for power, b in zip(scenarios, bases)}

    rows = [{m: [] for m in modes} for _ in points]
    by_draw = dict(_grouped(range(len(points)), lambda i: points[i].draws))
    noise = any(p.tau_sq != 0.0 or p.n_bits is not None for p in points)
    block = block_trials(scenario)
    for first in range(0, n_trials, block):
        gens = [RngStream(seed, stream).generator() for stream in range(
            stream_base + first, stream_base + min(first + block, n_trials))]
        blocks = _draw_block(scenario, gens, list(by_draw), noise)
        for ((theta_max, *_), at_draws), (chi_drawn, *draws) in zip(by_draw.items(), blocks):
            for chi, at_chi in _grouped(at_draws, lambda i: points[i].chi):
                chi = np.full(len(gens), float(chi)) if chi_drawn is None else chi_drawn
                at_chi_rows = _chi_rows(
                    scenario, C, D, modes, chi, draws, theta_max,
                    [points[i] for i in at_chi], scenarios, scales)
                for i, point_rows in zip(at_chi, at_chi_rows):
                    for mode in modes:
                        rows[i][mode].append(point_rows[mode])
    return [{m: _summary(m, np.concatenate(rows_p[m])) for m in modes} for rows_p in rows]
