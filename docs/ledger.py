"""Regenerate the measurements of docs/LEDGER.md.

Usage, from the repository root:

    PYTHONPATH=src python docs/ledger.py [--write] [3] [6] [11]

Without section numbers every section runs (under a minute on two
cores). The output is the ledger's measurement block in Markdown; with
``--write`` it also replaces the block between the ledger's
``<!-- measured -->`` markers. All numbers come from the library at the
acceptance suite's seed, 2024, unless a line names another seed.

Section 11 compares four polarization-mismatch models, two choices of the
channel draw times two choices of the CSIT. The library holds only the
mended pair (independent inner factor per receive port; CSIT is the
rotated channel). The earlier choices are rebuilt here and swapped in for
the duration of a run. Those runs go through the per-realization path
(``draw_trial``, then ``sinr_report``), which the swapped-in functions
reach; ``run_paired`` draws and precodes its stacked trials without them:

* coherent draw: one inner factor per user, rotated between the two
  polarization blocks, (cos - sqrt(chi) sin, sin + sqrt(chi) cos) for
  vertical users and (sqrt(chi) cos - sin, sqrt(chi) sin + cos) for
  horizontal ones; no extra random draw.
* aligned CSIT: the estimate is synthesised from the corrupted inner
  factor as if no user were rotated, so the rotation acts as an unmodeled
  CSIT error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from unittest import mock

import numpy as np

import dualpol.channel as channel
from dualpol.channel import RngStream
from dualpol.corrstats import mismatch_effective_stats
from dualpol.metrics import (
    McSummary,
    csit_tau_sq,
    draw_trial,
    run_paired,
    sinr_report,
)
from dualpol.modeswitch import chi_crossover_scale
from dualpol.precode import build_preprocessors
from dualpol.rmt import asym_bd, asym_bds
from dualpol.scenario import make_scenario
from dualpol.scene3d import make_scenario_3d, reduce_to_2d, run_3d_paired

SEED = 2024
LEDGER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "LEDGER.md")
BEGIN, END = "<!-- measured -->", "<!-- /measured -->"


# ----------------------------------------------------------------------
# Criterion 3: flatness of the BD SINR in chi
# ----------------------------------------------------------------------

def section_3(out):
    fig4 = make_scenario(M=120, G=4, n_bar=8, chi=0.0)

    def max_dev(snr, equal_energy):
        sc = fig4.with_power_db(snr)
        base = asym_bd(sc).mean_gamma()
        worst = 0.0
        for chi in (0.25, 0.5, 0.75, 1.0):
            scx = sc.with_chi(chi)
            if equal_energy:
                scx = replace(scx, gains=(1.0 / math.sqrt(1.0 + chi),) * scx.G)
            worst = max(worst, abs(asym_bd(scx).mean_gamma() - base) / base)
        return worst

    out.append("### Criterion 3: max deviation of the mean BD SINR (DE) over "
               "chi in {0.25, 0.5, 0.75, 1} from chi = 0 (tolerance 5%)\n")
    out.append("| per-user channel energy | 15 dB | -5 dB |")
    out.append("|---|---|---|")
    for label, equal in (("(1 + chi) tr R (library model)", False),
                         ("tr R (gains = 1/sqrt(1 + chi))", True)):
        out.append(f"| {label} | {max_dev(15.0, equal):.1%} | "
                   f"{max_dev(-5.0, equal):.1%} |")
    out.append("")


# ----------------------------------------------------------------------
# Criterion 6: DE against MC, term by term
# ----------------------------------------------------------------------

SMALL = dict(M=120, n_bar=8, b_bar=16, r=11)
LARGE = dict(M=480, n_bar=28, b_bar=56, r=29)


def _scenario(dims):
    return make_scenario(G=4, chi=0.0, **dims)


def _mc_terms(sc, mode, trials):
    """Mean per-user signal, intra and other (cross + inter) powers over
    perfect-CSIT trials; noise power 1."""
    pre = build_preprocessors(sc)
    acc = np.zeros(3)
    for t in range(trials):
        channels = draw_trial(sc, RngStream(SEED, t))
        rep = sinr_report(sc, channels, mode, preprocessors=pre)
        acc += (rep.signal.mean(), rep.intra.mean(),
                (rep.cross + rep.inter).mean())
    return acc / trials


def _de_terms(sol):
    """The DE's signal, intra and other powers at perfect CSIT, noise 1
    (the SINR assembly divided through by (1 + m0)^2)."""
    u = (1.0 + sol.m0) ** 2
    signal = (sol.power / sol.n_streams) * sol.xi_sq * sol.m0 ** 2 / u
    intra = sol.xi_sq * sol.upsilon_intra / u
    other = sol.upsilon_cross + sol.upsilon_inter
    return np.array([signal.mean(), intra.mean(), other.mean()])


def _de_gap(sc, mode, snr, trials):
    # The acceptance suite's gap: MC per-user effective SINR (rate domain)
    # against the DE mean SINR, BD at tau^2 = 0.1, BDS at 0.01.
    scp = sc.with_power_db(snr)
    de = (asym_bd(scp, tau_sq=0.1) if mode == "BD"
          else asym_bds(scp, tau_sq=0.01))
    res = run_paired(scp, [mode], trials, SEED, tau_sq=0.1)[mode]
    eff = 2.0 ** (res.sum_rate / scp.n_users) - 1.0
    gamma = de.mean_gamma()
    # Both sides in the rate domain: the DE's own effective SINR.
    eff_de = 2.0 ** (de.sum_rate / scp.n_users) - 1.0
    return abs(eff - gamma) / gamma, abs(eff - eff_de) / eff_de


def section_6(out):
    small = _scenario(SMALL)
    pre = build_preprocessors(small)
    out.append("### Criterion 6: spectrum of the projected covariances at "
               "(M, n_bar, B_bar, r) = (120, 8, 16, 11)\n")
    out.append("| group | eigenvalues of C_g above 1% of the largest | "
               "top four eigenvalues |")
    out.append("|---|---|---|")
    for g, cov in enumerate(small.covariances):
        Bs = pre[g].B_s
        vals = np.sort(np.linalg.eigvalsh(Bs.conj().T @ cov.matrix @ Bs))[::-1]
        big = int(np.count_nonzero(vals > 0.01 * vals[0]))
        out.append(f"| {g} | {big} of {vals.size} | "
                   + ", ".join(f"{v:.3g}" for v in vals[:4]) + " |")
    out.append("")

    out.append("### Criterion 6: mean per-user powers at perfect CSIT, "
               "MC / DE (MC over DE - 1), noise power 1\n")
    out.append("| (M, n_bar, B_bar, r) | scheme | SNR | trials | signal | "
               "intra | cross + inter |")
    out.append("|---|---|---|---|---|---|---|")
    for dims, trials in ((SMALL, 400), (LARGE, 200)):
        sc = _scenario(dims)
        key = "(" + ", ".join(str(dims[k]) for k in ("M", "n_bar", "b_bar", "r")) + ")"
        for mode in ("BD", "BDS"):
            for snr in (5.0, 25.0):
                scp = sc.with_power_db(snr)
                de = _de_terms(asym_bd(scp) if mode == "BD" else asym_bds(scp))
                mc = _mc_terms(scp, mode, trials)
                ratio = [f"{m:.3g} / {d:.3g} ({m / d - 1.0:+.1%})"
                         for m, d in zip(mc, de)]
                out.append(f"| {key} | {mode} | {snr:g} dB | {trials} | "
                           + " | ".join(ratio) + " |")
    out.append("")

    out.append("### Criterion 6: the suite's gap at each size (tau^2 = 0.1; "
               "BDS DE at 0.01)\n")
    out.append("| (M, n_bar, B_bar, r) | trials | scheme | SNR | "
               "gap (the criterion's) | gap, both sides in the rate domain |")
    out.append("|---|---|---|---|---|---|")
    for dims, trials in ((SMALL, 400), (LARGE, 400)):
        sc = _scenario(dims)
        key = "(" + ", ".join(str(dims[k]) for k in ("M", "n_bar", "b_bar", "r")) + ")"
        for mode in ("BD", "BDS"):
            for snr in (5.0, 25.0):
                gap, rate_gap = _de_gap(sc, mode, snr, trials)
                out.append(f"| {key} | {trials} | {mode} | {snr:g} dB | "
                           f"{gap:.1%} | {rate_gap:.1%} |")
    out.append("")


# ----------------------------------------------------------------------
# Criterion 11: the four polarization-mismatch models
# ----------------------------------------------------------------------

def _coherent_coefficients(chi, G, angles):
    n2, sq = G.shape[1] // 2, math.sqrt(chi)
    c, s = np.cos(angles), np.sin(angles)
    fac_top = np.concatenate([c[:n2] - sq * s[:n2], sq * c[n2:] - s[n2:]])
    fac_bot = np.concatenate([s[:n2] + sq * c[:n2], sq * s[n2:] + c[n2:]])
    w = np.array([fac_top, fac_bot])
    return channel._blockwise(G, w), np.abs(w)


@dataclass(frozen=True)
class _AlignedCsit(channel.GroupChannel):
    """A channel whose CSIT ignores the rotation: the estimate is the
    aligned KL synthesis of the corrupted inner factor ``G``, with ``chi``
    and the unscaled noise ``W`` of the same draw."""

    G: np.ndarray = None
    chi: float = 0.0
    W: np.ndarray = None

    def coefficients_hat(self, tau):
        return channel._kl_coefficients(self.chi, channel.mix_csit(self.G, self.W, tau))[0]

    def h_hat(self, tau):
        return self._synthesis(self.coefficients_hat(tau))


def _variant_draw(draw, csit):
    """A stand-in for ``channel._draw`` with the given draw and CSIT model.

    It reads the stream in the library's order: the normals of G and of
    the CSIT noise, the angles and, for the independent draw, the
    orthogonal port's normals.
    """
    def _draw(stats, pol, n_users, rng, theta_max=None, gain=1.0):
        gen = rng.generator() if isinstance(rng, RngStream) else rng
        shape = (2 * stats.effective_rank, n_users)
        normals = gen.standard_normal((4, *shape))
        angles = gen.uniform(-theta_max, theta_max, size=n_users)
        G = channel._complex(normals[0], normals[1])
        W = channel._complex(normals[2], normals[3])
        if draw == "coherent":
            X, X_std = _coherent_coefficients(pol.chi, G, angles)
            entry = channel.GroupChannel(X=X, Z=channel._blockwise(W, X_std),
                                         stats=stats, gain=gain,
                                         mismatch_angles=angles)
        else:
            normals = np.concatenate([normals, gen.standard_normal((2, *shape))])
            entry = channel.channel_from_normals(stats, pol.chi, normals,
                                                 angles, gain)
        if csit == "aligned":
            state = {f.name: getattr(entry, f.name) for f in fields(entry)}
            entry = _AlignedCsit(**state, G=G, chi=pol.chi, W=W)
        return entry
    return _draw


VARIANTS = {
    ("coherent", "aligned"): "the model before the mend",
    ("coherent", "measured"): "",
    ("independent", "aligned"): "",
    ("independent", "measured"): "the library model",
}


def _patched(draw, csit):
    if (draw, csit) == ("independent", "measured"):
        return nullcontext()
    return mock.patch.object(channel, "_draw", _variant_draw(draw, csit))


THETA = 0.22 * math.pi
MODES = ["BD", "BDS", "SWITCH", "SWITCH_RAW"]
TRIALS = 500


def _run_3d(theta, seed):
    sc3 = make_scenario_3d().with_power_db(25.0)
    return run_3d_paired(sc3, MODES, TRIALS, seed, tau_sq_dist=(0.0, 1.0),
                         chi_dist=(0.0, 0.5), theta_max=theta)


def _run_3d_per_realization(theta, seed):
    """``_run_3d`` one realization at a time, on the same streams and with
    the same per-trial switching decisions as ``run_paired``."""
    sc3 = make_scenario_3d().with_power_db(25.0)
    totals = {m: np.zeros(TRIALS) for m in MODES}
    for l in range(sc3.n_regions):
        sc = reduce_to_2d(sc3, l)
        pre = build_preprocessors(sc)
        scale = chi_crossover_scale(asym_bds(sc.with_chi(0.0), tau_sq=0.0))
        for t in range(TRIALS):
            gen = RngStream(seed, l * TRIALS + t).generator()
            chi = gen.uniform(0.0, 0.5)
            tau_sq = gen.uniform(0.0, 1.0)
            tau = np.sqrt([csit_tau_sq(tau_sq, None, sc.r, s) for s in ("BD", "BDS")])
            channels = draw_trial(sc, gen, chi=chi, theta_max=theta)
            rate = {mode: sinr_report(sc, channels, mode, tau=tau[i],
                                      preprocessors=pre).sum_rate
                    for i, mode in enumerate(("BD", "BDS"))}
            chi_eff = mismatch_effective_stats(chi, theta).chi_eff
            for mode, chi_used in (("BD", None), ("BDS", None),
                                   ("SWITCH", chi_eff), ("SWITCH_RAW", chi)):
                chosen = mode
                if chi_used is not None:
                    chosen = "BDS" if chi_used <= scale * tau[0] ** 2 else "BD"
                totals[mode][t] += rate[chosen]
    return {m: McSummary.from_trials(m, totals[m]) for m in MODES}


def _paired_se(a, b):
    d = a.trial_sum_rates - b.trial_sum_rates
    return float(d.std(ddof=1) / math.sqrt(d.size))


def _verdicts(aligned, tilted):
    """The acceptance suite's 11a, 11b and 11c quantities."""
    drops = {m: (aligned[m].sum_rate - tilted[m].sum_rate,
                 _paired_se(aligned[m], tilted[m])) for m in MODES}
    ok_a = all(d > 2 * se for d, se in drops.values())
    frac = {m: drops[m][0] / aligned[m].sum_rate for m in ("BD", "BDS")}
    diff = tilted["SWITCH"].sum_rate - tilted["SWITCH_RAW"].sum_rate
    se_c = _paired_se(tilted["SWITCH"], tilted["SWITCH_RAW"])
    return (ok_a, frac, frac["BDS"] > frac["BD"], diff, 2 * se_c,
            diff >= -2 * se_c)


def _row(label, seed, verdicts):
    ok_a, frac, ok_b, diff, two_se, ok_c = verdicts
    word = {True: "PASS", False: "FAIL"}
    return (f"| {label} | {seed} | {word[ok_a]} | {frac['BD']:.1%} | "
            f"{frac['BDS']:.1%} | {word[ok_b]} | {diff:+.3f} | {two_se:.3f} | "
            f"{word[ok_c]} |")


def section_11(out):
    out.append("### Criterion 11: 3D cell at 25 dB, theta_max = 0 against "
               "0.22 pi, 500 paired trials per region\n")
    out.append("| draw, CSIT | seed | 11a | BD drop | BDS drop | 11b | "
               "SWITCH - SWITCH_RAW | 2 paired SE | 11c |")
    out.append("|---|---|---|---|---|---|---|---|---|")
    # theta_max = 0 draws no angles, so the aligned runs are common to all
    # four models.
    aligned = _run_3d(0.0, SEED)
    for (draw, csit), note in VARIANTS.items():
        with _patched(draw, csit):
            tilted = _run_3d_per_realization(THETA, SEED)
        label = f"{draw}, {csit}" + (f" ({note})" if note else "")
        out.append(_row(label, SEED, _verdicts(aligned, tilted)))
    for seed in (7, 11, 99):
        out.append(_row("independent, measured", seed,
                        _verdicts(_run_3d(0.0, seed), _run_3d(THETA, seed))))
    out.append("")


SECTIONS = {"3": section_3, "6": section_6, "11": section_11}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sections", nargs="*",
                        help="criteria to measure: 3, 6, 11 (default: all)")
    parser.add_argument("--write", action="store_true",
                        help="replace the measured block of docs/LEDGER.md")
    args = parser.parse_args(argv)
    chosen = args.sections or list(SECTIONS)
    unknown = set(chosen) - set(SECTIONS)
    if unknown:
        parser.error(f"unknown section(s): {', '.join(sorted(unknown))}")
    out = []
    for name in chosen:
        SECTIONS[name](out)
    text = "\n".join(out)
    print(text)
    if args.write:
        if chosen != list(SECTIONS):
            parser.error("--write needs every section")
        with open(LEDGER) as fh:
            doc = fh.read()
        block = f"{BEGIN}\n\n{text}\n{END}"
        doc, n = re.subn(re.escape(BEGIN) + ".*?" + re.escape(END),
                         lambda _: block, doc, flags=re.S)
        if n != 1:
            sys.exit(f"{LEDGER}: expected one {BEGIN} ... {END} block")
        with open(LEDGER, "w") as fh:
            fh.write(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
