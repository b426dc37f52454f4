"""The per-realization oracle of the trial-batched Monte Carlo engine.

``run_paired`` stacks trials and works in the KL domain, and the
per-realization API (``precode.build_all``, ``metrics.sinr_bd``/``sinr_bds``)
is that engine at one trial. ``reference_paired`` draws every trial with
``draw_trial`` from the same stream, precodes it over the M-row channel
estimate with its own loop (``reference_transmit``) and decomposes it into
signal, intra, cross and inter powers over the M-row channel
(``reference_report``), group by group (``decompose_per_group``). It forms
H and shares neither the engine's KL projections, its batched RZF nor its
stacked decomposition, ``metrics._combine``. It does share the engine's
stream reader: ``draw_trial`` is ``metrics._draw_block`` at one trial, so
this oracle checks what the engine computes from the draws, not the order
it reads them in. That order is pinned by the preset CSVs
(``test_presets.py``) and by ``test_channel.py``.
``test_engine.py`` imports it; the name has no ``test_`` prefix, so pytest
does not collect it.

The deterministic equivalents have an oracle too: ``damped_fixed_points``
solves the resolvent fixed point by the damped plain iteration, run to the
float floor, in place of ``rmt._fixed_points``'s Newton steps. Run as a
script, this file writes the pinned DE reference, ``asym_bd``/``asym_bds``
on the fig4 cell at every cell of ``DE_REFERENCE_CELLS``:

    PYTHONPATH=src python tests/reference.py > tests/data/de_reference.csv
"""

import csv
import math
import sys

import numpy as np

from dualpol.channel import RngStream
from dualpol.corrstats import mismatch_effective_stats
from dualpol.metrics import SinrReport, draw_trial
from dualpol.modeswitch import FeedbackBudget, chi_crossover_scale, tau_from_bits
from dualpol.precode import build_preprocessors, rzf_precoder
from dualpol.rmt import asym_bd, asym_bds
from dualpol.scenario import make_scenario


def decompose_per_group(powers, split_cross):
    """SINR decomposition from received powers, one receiving group at a
    time.

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
    return SinrReport(signal=signal, intra=intra, cross=cross, inter=inter)


def reference_transmit(scenario, channels, mode, tau, preprocessors):
    """Every group's transmit matrix B_g P_g for one realization, stacked.

    BD computes one RZF per group on B_g^H H_hat_g with regularizer
    B_bar alpha = n_bar / P; BDS computes one RZF per co-polarized subgroup
    on (B_g^s)^H H_hat_g^{pp} at the same absolute regularizer n_bar / P.
    """
    alpha = scenario.alpha
    n_bar = scenario.n_bar
    tx = []
    for entry, pre in zip(channels, preprocessors):
        if mode == "BD":
            H_hat = entry.h_hat(tau)
            tx.append(pre.bd @ rzf_precoder(pre.bd.conj().T @ H_hat, alpha, n_bar).P)
        else:
            # Only the co-polarized CSIT blocks are read: the vertical
            # subgroup uses the upper blocks of its users' estimates, the
            # horizontal one the lower blocks.
            A = entry.gain * entry.stats.factor()
            pv, ph = (rzf_precoder(pre.B_s.conj().T @ (A @ X_hat), 2.0 * alpha, n_bar // 2)
                      for X_hat in entry.copolar_hat(tau))
            tx.append(np.hstack([pre.bds_v @ pv.P, pre.bds_h @ ph.P]))
    return np.stack(tx)


def reference_report(scenario, channels, mode, tau, preprocessors):
    """One realization precoded by ``reference_transmit`` and decomposed
    from |h_gk^H (B_l P_l)_j|^2 by ``decompose_per_group``."""
    per_stream = scenario.power / sum(entry.n_users for entry in channels)
    tx = reference_transmit(scenario, channels, mode, tau, preprocessors)
    return decompose_per_group([per_stream * np.abs(entry.H.conj().T @ tx) ** 2
                                for entry in channels], split_cross=mode == "BDS")


def reference_paired(scenario, modes, n_trials, seed, *, tau_sq=0.0,
                     n_bits=None, theta_max=0.0, chi_dist=None,
                     tau_sq_dist=None, stream_base=0):
    """Per-trial sum rates of every mode, the BDS picks of the switches and
    per-trial terms: each mode's (n_trials, 4) per-user mean signal, intra,
    cross and inter powers."""
    pre = build_preprocessors(scenario)
    scale = None
    if any(m.startswith("SWITCH") for m in modes):
        scale = chi_crossover_scale(asym_bds(scenario.with_chi(0.0), tau_sq=0.0))
    sums = {m: [] for m in modes}
    picks = {m: [] for m in modes}
    terms = {m: [] for m in modes}
    for t in range(n_trials):
        gen = RngStream(seed, stream_base + t).generator()
        chi = gen.uniform(*chi_dist) if chi_dist else scenario.chi
        tau_t = gen.uniform(*tau_sq_dist) if tau_sq_dist else tau_sq
        if n_bits is not None:
            budget = FeedbackBudget(n_bits=n_bits, r=scenario.r)
            t_bd, t_bds = tau_from_bits(budget, "BD"), tau_from_bits(budget, "BDS")
        else:
            t_bd = min(tau_t, 1.0)
            t_bds = min(t_bd * t_bd, 1.0)
        tau = {"BD": math.sqrt(t_bd), "BDS": math.sqrt(t_bds)}
        channels = draw_trial(scenario, gen, chi=chi, theta_max=theta_max)
        reports = {}
        for mode in modes:
            chosen = mode
            if mode.startswith("SWITCH"):
                chi_used = chi
                if mode == "SWITCH" and theta_max > 0.0:
                    chi_used = mismatch_effective_stats(chi, theta_max).chi_eff
                # At tau = 0 the threshold is 0, also for an infinite scale
                # (n_bar = 2), where inf * 0 would give nan.
                threshold = scale * tau["BD"] ** 2 if tau["BD"] > 0.0 else 0.0
                chosen = "BDS" if chi_used <= threshold else "BD"
                picks[mode].append(chosen == "BDS")
            if chosen not in reports:
                reports[chosen] = reference_report(scenario, channels, chosen,
                                                   tau[chosen], pre)
            rep = reports[chosen]
            sums[mode].append(rep.sum_rate)
            terms[mode].append([rep.signal.mean(), rep.intra.mean(),
                                rep.cross.mean(), rep.inter.mean()])
    return ({m: np.array(s) for m, s in sums.items()}, picks,
            {m: np.array(t) for m, t in terms.items()})


def damped_fixed_points(classes, multiplicities, base, z, M):
    """The fixed points of a batch of diagonal members, with the arguments
    ``_Spectral`` passes to ``rmt._fixed_points`` and its returns, by the
    damped plain iteration.

    Each member starts from e = 1/alpha and steps e <- w f(e) + (1 - w) e
    with w = 1, halved for good once its residual max|f(e) - e| rises. It
    runs to the float floor: it stops only once that residual falls below
    16 eps max|f(e)|, and returns (f(e), T(f(e))).
    """
    n = np.asarray(multiplicities, dtype=float)
    floor = 16.0 * np.finfo(float).eps
    out = []
    for d in classes:
        def f(e):
            t = 1.0 / (base + (n / (M * (1.0 + e))) @ d)
            return (d * t).sum(axis=1) / M, t

        e, w, prev = np.full(len(d), 1.0 / -z), 1.0, math.inf
        for it in range(1, 100_001):
            e_new = f(e)[0]
            res = np.abs(e_new - e).max()
            if res < floor * np.abs(e_new).max():
                break
            if res > prev:
                w = 0.5
            e, prev = w * e_new + (1.0 - w) * e, res
        else:
            raise RuntimeError("damped fixed point did not reach the float floor")
        out.append((e_new, f(e_new)[1], it, res))
    return tuple(np.array(x) for x in zip(*out))


#: The pinned DE reference grid on the fig4 cell: (scheme, snr_db, chi, tau_sq).
DE_REFERENCE_CELLS = [(scheme, snr, chi, tau_sq) for scheme in ("BD", "BDS")
                      for snr in (0.0, 15.0, 30.0) for chi in (0.0, 0.3, 1.0)
                      for tau_sq in (0.0, 0.1)]
DE_REFERENCE_FIELDS = ("gamma", "m0", "m_prime", "xi_sq", "psi", "upsilon_intra",
                       "upsilon_cross", "upsilon_inter")


def write_de_reference(stream):
    """Write the DE reference CSV: one row per cell, group and polarization,
    every value at 17 significant digits; the ``chi_slope`` column is the
    solution's ``chi_slope``, the slope in chi of BDS's cross plus
    inter-group interference, empty for BD."""
    scenario = make_scenario(M=120, G=4, n_bar=8, chi=0.0)
    out = csv.writer(stream, lineterminator="\n")
    out.writerow(("scheme", "snr_db", "chi", "tau_sq", "g", "p", "sum_rate", "iterations")
                 + DE_REFERENCE_FIELDS + ("chi_slope",))
    for scheme, snr, chi, tau_sq in DE_REFERENCE_CELLS:
        solver = asym_bd if scheme == "BD" else asym_bds
        sol = solver(scenario.with_chi(chi).with_power_db(snr), tau_sq=tau_sq)
        for g, p in np.ndindex(sol.gamma.shape):
            out.writerow([scheme, f"{snr:g}", chi, tau_sq, g, p, f"{sol.sum_rate:.17g}",
                          sol.iterations]
                         + [f"{getattr(sol, name)[g, p]:.17g}" for name in DE_REFERENCE_FIELDS]
                         + ["" if sol.chi_slope is None else f"{sol.chi_slope[g, p]:.17g}"])


if __name__ == "__main__":
    write_de_reference(sys.stdout)
