"""The benchmark's workloads and the checks on their CSV output.

Each workload is one config for ``dualpol.cli.run_config``, made from the
benchmark's ``--seed``; the program sees only that config. This module uses
the standard library only, so that setup_probe.py can import it without
loading numpy before its timer starts.
"""

from __future__ import annotations

import csv
import io
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

#: The seed the reference CSVs were pinned at; other seeds get the
#: structural check only (see ``check_csv``).
DEFAULT_SEED = 1

#: CSV columns that identify a row; the remaining numeric ones are compared
#: to the CSV's 10 significant digits.
KEY_COLUMNS = ("scenario_id", "scheme", "snr_db", "chi", "tau_sq", "n_bits",
               "n_trials")
VALUE_COLUMNS = ("sum_rate", "stderr")

_CHI_GRID = [round(0.1 * k, 1) for k in range(11)]


def _mc_fig4(seed):
    # The fig4 cell (M=120, G=4, n_bar=8, B_bar=16, r=11) under perfect CSIT.
    return {
        "scenario_id": "mc_fig4", "m": 120, "groups": 4, "n_bar": 8,
        "b_bar": 16, "r": 11, "spacing": 0.5, "spread_deg": 15.0,
        "chi": [0.0, 0.1], "tau_sq": 0.0, "snr_db": [0, 15, 30],
        "schemes": ["BD", "BDS"], "grid": True, "n_trials": 100, "seed": seed,
    }


def _de_sweep(seed):
    # The fig6 shape with only the deterministic-equivalent schemes.
    return {
        "scenario_id": "de_sweep", "m": 120, "groups": 4, "n_bar": 8,
        "spacing": 0.5, "spread_deg": 15.0, "snr_db": 15,
        "chi": list(_CHI_GRID), "tau_sq": [0.0, 0.5],
        "schemes": ["ASYM_BD", "ASYM_BDS"], "grid": True, "seed": seed,
    }


def _mc_mismatch3d(seed):
    # The fig11 preset at a smaller trial count.
    return {
        "scenario_id": "mc_mismatch3d", "mode_3d": True, "m_e": 10, "m_a": 50,
        "height": 60.0, "distances": [30.0, 60.0, 100.0], "groups": 4,
        "n_bar": 8, "spacing": 0.5, "spread_deg": 15.0, "snr_db": 25,
        "chi_dist": "uniform:0:0.5", "tau_sq_dist": "uniform:0:1",
        "theta_max_ms_deg": [0.0, 39.6],
        "schemes": ["BD", "BDS", "SWITCH", "SWITCH_RAW"],
        "n_trials": 50, "seed": seed, "grid": True,
    }


_SWEEP_AXES = ("snr_db", "chi", "tau_sq", "n_bits", "theta_max_ms_deg")


class Workload:
    """One benchmark workload: its config, thread count and unit of work.

    ``work_per_pass`` counts what one ``run_config`` call completes: paired
    trials (n_trials x sweep points x regions) for an MC workload, sweep
    points (one ASYM_BD plus ASYM_BDS pair each) for a DE one.
    """

    def __init__(self, name, make_config, threads, work_unit):
        self.name = name
        self.config = make_config
        self.threads = threads
        self.work_unit = work_unit
        self.work_name = ("paired trials" if work_unit == "mc_trials_per_s"
                          else "DE sweep points")
        cfg = make_config(DEFAULT_SEED)
        points = math.prod(len(cfg[a]) for a in _SWEEP_AXES
                           if isinstance(cfg.get(a), list))
        if work_unit == "mc_trials_per_s":
            regions = len(cfg["distances"]) if cfg.get("mode_3d") else 1
            points *= cfg["n_trials"] * regions
        self.work_per_pass = points

    def dualpol_threads(self):
        """DUALPOL_THREADS for this workload, capped at the usable cores."""
        return min(self.threads, len(os.sched_getaffinity(0)))

    def reference_path(self):
        return os.path.join(REFERENCE_DIR, self.name + ".csv")


WORKLOADS = {
    w.name: w for w in (
        Workload("mc_fig4", _mc_fig4, 1, "mc_trials_per_s"),
        Workload("de_sweep", _de_sweep, 1, "de_points_per_s"),
        Workload("mc_mismatch3d", _mc_mismatch3d, 2, "mc_trials_per_s"),
    )
}


def setup_scenario(name):
    """Build a workload's scenario and its BD preprocessors through the
    public constructors; this is what ``setup_s`` times after the import."""
    import dualpol

    cfg = WORKLOADS[name].config(DEFAULT_SEED)
    spread = math.radians(cfg["spread_deg"])
    if cfg.get("mode_3d"):
        sc3 = dualpol.make_scenario_3d(
            m_e=cfg["m_e"], m_a=cfg["m_a"], height=cfg["height"],
            distances=tuple(cfg["distances"]), G=cfg["groups"],
            n_bar=cfg["n_bar"], spread=spread, spacing=cfg["spacing"])
        for l in range(sc3.n_regions):
            dualpol.precode.build_preprocessors(dualpol.reduce_to_2d(sc3, l))
        return
    sc = dualpol.make_scenario(
        M=cfg["m"], G=cfg["groups"], n_bar=cfg["n_bar"],
        spacing=cfg["spacing"], spread=spread, b_bar=cfg.get("b_bar"),
        r=cfg.get("r"))
    dualpol.precode.build_preprocessors(sc)


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _same_10_digits(a, b):
    """Equal to the CSV's 10 significant digits, up to one unit in the 10th
    digit, which a float re-association of order 1e-12 can flip."""
    x, y = float(a), float(b)
    if x == y:
        return True
    scale = max(abs(x), abs(y))
    return abs(x - y) <= 10.0 ** (math.floor(math.log10(scale)) - 9) * 1.000001


def _finite_row(row):
    try:
        return all(math.isfinite(float(row[c])) for c in VALUE_COLUMNS)
    except (KeyError, TypeError, ValueError):
        return False


def check_csv(workload, seed, text):
    """Return (rows expected, rows failed, message) for one run's CSV.

    At the default seed every row is compared with the pinned reference:
    key columns exactly, sum rate and standard error to 10 significant
    digits. ``de_sweep`` draws no random numbers, so its reference applies
    at every seed. At other seeds an MC workload gets the structural check:
    every reference row key present once, no NaN or infinite value. Rows
    missing because ``run_config`` raised count as failed.
    """
    with open(workload.reference_path(), encoding="utf-8") as fh:
        reference = _rows(fh.read())
    got = _rows(text)
    full = seed == DEFAULT_SEED or workload.name == "de_sweep"
    failed = 0
    for i, ref in enumerate(reference):
        row = got[i] if i < len(got) else None
        if row is None or row.get("seed") != str(seed) or not _finite_row(row):
            failed += 1
        elif any(row.get(c) != ref[c] for c in KEY_COLUMNS):
            failed += 1
        elif full and not all(_same_10_digits(row[c], ref[c]) for c in VALUE_COLUMNS):
            failed += 1
    extra = max(0, len(got) - len(reference))
    kind = "pinned reference" if full else "structural check"
    msg = (f"{kind}: {len(reference) - failed}/{len(reference)} rows ok"
           + (f", {extra} unexpected extra rows" if extra else ""))
    return len(reference), failed + extra, msg
