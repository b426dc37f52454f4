"""Regenerate the measurements of docs/LEDGER.md.

Usage, from the repository root:

    PYTHONPATH=src python docs/ledger.py [--write] [3] [6] [11] [rounding]

Without section names every section runs (about 9 s on two cores; run
alone, section 6 takes about 3 s, section 11 about 6 s and the others
about 1 s each).
The output is the ledger's measurement block in Markdown; with
``--write`` it also replaces the block between the ledger's
``<!-- measured -->`` markers. All numbers come from the library at the
acceptance suite's seed, 2024, unless a line names another seed. Section
6 reads the SINR terms of both sides from the library:
``McSummary.terms`` of ``run_paired`` and ``AsymptoticSolution.terms``,
with one preprocessor build per size.

Section 11 compares four polarization-mismatch models, two choices of the
channel draw times two choices of the CSIT. The library holds only the
mended pair (independent inner factor per receive port; CSIT is the
rotated channel). The earlier choices are rebuilt here as stand-ins for
the two names the Monte Carlo engine draws through, ``metrics._read_group``
(a group's draws from its trial stream) and
``metrics.channel_from_normals`` (its trial-stacked channel), swapped in
for the duration of a run, so every model runs on the engine:

* coherent draw: one inner factor per user, rotated between the two
  polarization blocks, (cos - sqrt(chi) sin, sin + sqrt(chi) cos) for
  vertical users and (sqrt(chi) cos - sin, sqrt(chi) sin + cos) for
  horizontal ones; no extra random draw.
* aligned CSIT: the estimate is synthesised from the corrupted inner
  factor as if no user were rotated, so the rotation acts as an unmodeled
  CSIT error.

Section "rounding" shows why the pinned rows reproduce only bit for bit: it
perturbs every covariance of two preset cells by a seeded Hermitian matrix
of rounding size and reports which KL modes change sign, how far the BD
projectors move and how far the sum rates move.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass, fields, replace
from unittest import mock

import numpy as np

import dualpol.channel as channel
import dualpol.metrics as metrics
from dualpol import cli
from dualpol.channel import RngStream
from dualpol.corrstats import SpatialCovariance
from dualpol.metrics import McSummary, run_paired
from dualpol.precode import build_preprocessors
from dualpol.rmt import asym_bd, asym_sweep
from dualpol.scenario import SweepPoint, make_scenario, power_from_db
from dualpol.scene3d import make_scenario_3d, run_3d_paired

SEED = 2024
DOCS = os.path.dirname(os.path.abspath(__file__))
LEDGER = os.path.join(DOCS, "LEDGER.md")
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


def _key(dims):
    return "(" + ", ".join(str(dims[k]) for k in ("M", "n_bar", "b_bar", "r")) + ")"


def _term_row(key, mode, snr, trials, mc, de):
    """A row of mean per-user signal, intra and other (cross + inter) powers,
    MC (``McSummary.terms``) against DE (``AsymptoticSolution.terms``)."""
    def split(signal, intra, cross, inter):
        return np.mean(signal), np.mean(intra), np.mean(cross + inter)
    ratio = [f"{m:.3g} / {d:.3g} ({m / d - 1.0:+.1%})"
             for m, d in zip(split(*mc.terms), split(*de.terms))]
    return f"| {key} | {mode} | {snr:g} dB | {trials} | " + " | ".join(ratio) + " |"


def _de(scenario, mode, pre, tau_sq=0.0):
    """The DE of one scheme on the scenario, with its preprocessors; BDS
    runs at the equal-feedback square of BD's ``tau_sq``, as in the MC."""
    return asym_sweep(scenario, [mode], [SweepPoint(tau_sq=tau_sq)], pre)[0][mode]


def _de_gap(mc, de):
    # The acceptance suite's gap: MC per-user effective SINR (rate domain)
    # against the DE mean SINR.
    eff = 2.0 ** (mc.sum_rate / de.n_streams) - 1.0
    gamma = de.mean_gamma()
    # Both sides in the rate domain: the DE's own effective SINR.
    eff_de = 2.0 ** (de.sum_rate / de.n_streams) - 1.0
    return abs(eff - gamma) / gamma, abs(eff - eff_de) / eff_de


def _first(mc, n_trials):
    """The summary of a run's first ``n_trials`` trials: those of a run of
    ``n_trials``, since each trial draws from its own stream."""
    return McSummary(mc.scheme, mc.trial_sum_rates[:n_trials], mc.trial_terms[:n_trials])


def section_6(out):
    # One preprocessor build per size serves its spectrum, MC and DE, and
    # one sweep per size its MC: both schemes at both SNRs, at perfect CSIT
    # and at tau^2 = 0.1, on the trials of the larger table.
    sizes = []
    for dims, trials in ((SMALL, (400, 400)), (LARGE, (200, 400))):
        sc = _scenario(dims)
        pre = build_preprocessors(sc)
        cells = [(tau_sq, snr) for tau_sq in (0.0, 0.1) for snr in (5.0, 25.0)]
        runs = run_paired(sc, ["BD", "BDS"], max(trials), SEED,
                          [SweepPoint(power=power_from_db(snr), tau_sq=tau_sq)
                           for tau_sq, snr in cells], preprocessors=pre)
        sizes.append((dims, sc, pre, trials, dict(zip(cells, runs))))
    _, small, pre, _, _ = sizes[0]
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
    for dims, sc, pre, (trials, _), runs in sizes:
        for mode in ("BD", "BDS"):
            for snr in (5.0, 25.0):
                de = _de(sc.with_power_db(snr), mode, pre)
                out.append(_term_row(_key(dims), mode, snr, trials,
                                     _first(runs[0.0, snr][mode], trials), de))
    out.append("")

    out.append("### Criterion 6: the suite's gap at each size (tau^2 = 0.1; "
               "BDS DE at 0.01)\n")
    out.append("| (M, n_bar, B_bar, r) | trials | scheme | SNR | "
               "gap (the criterion's) | gap, both sides in the rate domain |")
    out.append("|---|---|---|---|---|---|")
    term_rows = []
    for dims, sc, pre, (_, trials), runs in sizes:
        for mode in ("BD", "BDS"):
            for snr in (5.0, 25.0):
                de = _de(sc.with_power_db(snr), mode, pre, tau_sq=0.1)
                mc = _first(runs[0.1, snr][mode], trials)
                gap, rate_gap = _de_gap(mc, de)
                out.append(f"| {_key(dims)} | {trials} | {mode} | {snr:g} dB | "
                           f"{gap:.1%} | {rate_gap:.1%} |")
                term_rows.append(_term_row(_key(dims), mode, snr, trials, mc, de))
    out.append("")

    out.append("### Criterion 6: mean per-user powers at tau^2 = 0.1 (BDS DE "
               "at 0.01), MC / DE (MC over DE - 1), noise power 1\n")
    out.append("| (M, n_bar, B_bar, r) | scheme | SNR | trials | signal | "
               "intra | cross + inter |")
    out.append("|---|---|---|---|---|---|---|")
    out += term_rows
    out.append("")


# ----------------------------------------------------------------------
# Criterion 11: the four polarization-mismatch models
# ----------------------------------------------------------------------

def _coherent_coefficients(chi, G, angles):
    """The coherent draw's KL coefficients of trial-stacked G (T, 2r, n),
    at one chi (T,) and angles (T, n) per trial, and their entries' std."""
    n2, sq = G.shape[-1] // 2, np.sqrt(chi)[:, None]
    c, s = np.cos(angles), np.sin(angles)
    fac_top = np.concatenate([c[:, :n2] - sq * s[:, :n2], sq * c[:, n2:] - s[:, n2:]], axis=-1)
    fac_bot = np.concatenate([s[:, :n2] + sq * c[:, :n2], sq * s[:, n2:] + c[:, n2:]], axis=-1)
    w = np.stack([fac_top, fac_bot], axis=-2)
    return channel._blockwise(G, w), np.abs(w)


@dataclass(frozen=True)
class _AlignedCsit(channel.GroupChannel):
    """A channel whose CSIT ignores the rotation: the estimate is the
    aligned KL coefficients of the corrupted inner factor ``G``, with
    ``chi`` and the unscaled noise ``W`` of the same draw."""

    G: np.ndarray = None
    chi: np.ndarray = None
    W: np.ndarray = None

    def coefficients_hat(self, tau):
        return channel._kl_coefficients(self.chi, channel.mix_csit(self.G, self.W, tau), 2)[0]


def _patched(draw, csit):
    """Swap ``metrics._read_group`` and ``metrics.channel_from_normals`` for
    stand-ins with the given draw and CSIT model, for mismatched draws with
    CSIT noise; a context manager.

    The reader keeps the library's stream order: the normals of G and of
    the CSIT noise, the angles and, for the independent draw only, the
    orthogonal port's normals. The builder makes the channel of the draw
    model and, for aligned CSIT, wraps it in ``_AlignedCsit``.
    """
    def read(gen, normals, theta_max=None, scratch=None):
        if draw == "independent":
            return channel._read_group(gen, normals, theta_max, scratch)
        gen.standard_normal(out=normals[:4])
        return gen.uniform(-theta_max, theta_max, size=normals.shape[-1])

    def build(stats, chi, normals, angles=None, gain=1.0):
        G = channel._complex(normals[:, 0], normals[:, 1])
        W = channel._complex(normals[:, 2], normals[:, 3])
        if draw == "independent":
            entry = channel.channel_from_normals(stats, chi, normals, angles, gain)
        else:
            X, X_std = _coherent_coefficients(chi, G, angles)
            entry = channel.GroupChannel(X=X, Z=channel._blockwise(W, X_std), stats=stats,
                                         gain=gain, mismatch_angles=angles)
        if csit == "aligned":
            state = {f.name: getattr(entry, f.name) for f in fields(entry)}
            entry = _AlignedCsit(**state, G=G, chi=chi, W=W)
        return entry
    return mock.patch.multiple(metrics, _read_group=read, channel_from_normals=build)


VARIANTS = {
    ("coherent", "aligned"): "the model before the mend",
    ("coherent", "measured"): "",
    ("independent", "aligned"): "",
    ("independent", "measured"): "the library model",
}


THETA = 0.22 * math.pi
MODES = ["BD", "BDS", "SWITCH", "SWITCH_RAW"]
TRIALS = 500


def _run_3d(seed, *thetas):
    """The cell's runs at each theta_max, one sweep on shared draws."""
    sc3 = make_scenario_3d().with_power_db(25.0)
    return run_3d_paired(sc3, MODES, TRIALS, seed,
                         [SweepPoint(theta_max=theta) for theta in thetas],
                         tau_sq_dist=(0.0, 1.0), chi_dist=(0.0, 0.5))


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
    # four models; the library model's tilted run needs no stand-in.
    aligned, library = _run_3d(SEED, 0.0, THETA)
    for (draw, csit), note in VARIANTS.items():
        if (draw, csit) == ("independent", "measured"):
            tilted = library
        else:
            with _patched(draw, csit):
                [tilted] = _run_3d(SEED, THETA)
        label = f"{draw}, {csit}" + (f" ({note})" if note else "")
        out.append(_row(label, SEED, _verdicts(aligned, tilted)))
    for seed in (7, 11, 99):
        out.append(_row("independent, measured", seed,
                        _verdicts(*_run_3d(seed, 0.0, THETA))))
    out.append("")


# ----------------------------------------------------------------------
# Rounding: why the pinned rows reproduce only bit for bit
# ----------------------------------------------------------------------

PERTURBATION = 1e-16


def _perturbed(scenario, seed):
    """The scenario with every covariance plus PERTURBATION (W + W^H)/2,
    W of i.i.d. complex standard normal entries drawn from one stream."""
    gen = RngStream(seed).generator()
    covs = []
    for cov in scenario.covariances:
        shape = (cov.dim, cov.dim)
        W = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        covs.append(SpatialCovariance.from_matrix(
            cov.matrix + PERTURBATION * (W + W.conj().T) / 2.0))
    return replace(scenario, covariances=tuple(covs))


def _projector_change(x):
    """One significant digit, or "< 1e-6" below the level at which the
    unperturbed projectors already differ between BLAS thread counts."""
    return f"{x:.0e}" if x >= 1e-6 else "< 1e-6"


def _rate_move(before, after):
    """The largest relative move of a sum rate between two sweeps' summaries."""
    return max(abs(b.sum_rate / a.sum_rate - 1.0) for a, b in zip(before, after))


def section_rounding(out):
    out.append(f"### Rounding: every covariance plus a seeded Hermitian perturbation "
               f"of size {PERTURBATION:g}\n")
    out.append("| cell | group | effective rank | KL modes that change sign | "
               "largest entry change of B_s B_s^H |")
    out.append("|---|---|---|---|---|")
    moves = []
    for name, ident in (("fig3", "fig3-single-ds0.5"), ("fig4", "fig4")):
        cfg = cli._resolve(cli.preset(name))
        schemes = cfg["schemes"]
        sc = dict(cli._build_variants(cfg))[ident]
        _, points = cli._sweep(cfg)
        moved = _perturbed(sc, SEED)
        pre, pre_moved = build_preprocessors(sc), build_preprocessors(moved)
        for g, (cov, cov_moved) in enumerate(zip(sc.covariances, moved.covariances)):
            r = cov.effective_rank
            overlap = np.sum(cov.eigvecs[:, :r].conj() * cov_moved.eigvecs[:, :r], axis=0)
            flips = ", ".join(str(j) for j in np.flatnonzero(overlap.real < 0.0)) or "none"
            change = np.abs(pre[g].B_s @ pre[g].B_s.conj().T
                            - pre_moved[g].B_s @ pre_moved[g].B_s.conj().T).max()
            out.append(f"| {ident} | {g} | {r} | {flips} | {_projector_change(change)} |")
        runs = [run_paired(s, schemes, 100, SEED, points, preprocessors=p)
                for s, p in ((sc, pre), (moved, pre_moved))]
        row = [ident, ", ".join(schemes), str(len(points))]
        for n in (10, 100):
            mc = [[_first(result[m], n) for result in run for m in schemes] for run in runs]
            row.append(f"{_rate_move(*mc):.0e}")
        if sc.dual_pol:
            de = [[result[m] for result in asym_sweep(s, schemes, points, p) for m in schemes]
                  for s, p in ((sc, pre), (moved, pre_moved))]
            row.append(f"{_rate_move(*de):.0e}")
        else:
            row.append("n/a (single-polarized)")
        moves.append("| " + " | ".join(row) + " |")
    out.append("")
    out.append("### Rounding: the largest relative move of a sum rate under the "
               "same perturbation\n")
    out.append("| cell | schemes | sweep points | MC, 10 trials | MC, 100 trials | DE |")
    out.append("|---|---|---|---|---|---|")
    out += moves
    out.append("")


SECTIONS = {"3": section_3, "6": section_6, "11": section_11, "rounding": section_rounding}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sections", nargs="*",
                        help="sections to measure: criteria 3, 6, 11 and "
                             "rounding (default: all)")
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
