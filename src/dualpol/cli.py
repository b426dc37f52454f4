"""Experiment runner.

``dualpol run --config file.cfg`` executes sweeps described by a flat
key-value config and emits CSV; ``dualpol preset <name>`` writes the
bundled figure configurations; ``dualpol list-presets`` enumerates them.

Config grammar (one canonical parser):
    # comment
    key = value          # int / float / bool / string, auto-detected
    key = v1, v2, v3     # list
    key = uniform:0:0.5  # per-trial distribution (chi_dist, tau_sq_dist)

Exit codes: 0 ok, 2 config error, 3 numerical error. The CSV always carries
the header row; numeric columns are deterministic for a fixed seed. Monte
Carlo cells run single-threaded, their trials batched, and all sweep points
of a variant in one ``metrics.run_paired`` call that draws the trials once.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, replace

# rmt's functions are looked up on the module at call time, so wrappers
# installed there (perfbench/tracer.py) see the calls.
from . import rmt
from .errors import DualpolError, InvalidConfigurationError, NumericalError
from .metrics import MC_MODES, SweepPoint, csit_tau_sq, run_paired
from .scenario import make_scenario, power_from_db

__all__ = ["main", "parse_config", "preset", "list_presets", "run_config"]

CSV_COLUMNS = ["scenario_id", "scheme", "snr_db", "chi", "tau_sq", "n_bits",
               "sum_rate", "stderr", "n_trials", "seed"]

ASYM_SCHEMES = ("ASYM_BD", "ASYM_BDS")

#: The type of every key a config may set: those of every config, and
#: those of 2D or of 3D (``mode_3d``) configs only. An int is a whole number
#: (``n_trials = 2.5`` is an error), a number an int or a float, and text
#: takes numbers as written (``scenario_id = 7``). A key of LIST_KEYS may
#: also hold a comma-separated list of its type. Any other key, or a value
#: of another type, is a config error.
KEY_TYPES = {
    "scenario_id": "text", "schemes": "text", "n_trials": "int", "seed": "int",
    "grid": "bool", "snr_db": "number", "chi": "number", "tau_sq": "number",
    "n_bits": "int", "theta_max_ms_deg": "number", "chi_dist": "text",
    "tau_sq_dist": "text", "groups": "int", "n_bar": "int",
    "spacing": "number", "spread_deg": "number", "mode_3d": "bool",
}
KEY_TYPES_2D = {"m": "int", "b_bar": "int", "r": "int", "arrays": "text"}
KEY_TYPES_3D = {"m_e": "int", "m_a": "int", "height": "number",
                "distances": "number"}
LIST_KEYS = frozenset(
    "schemes snr_db chi tau_sq n_bits theta_max_ms_deg arrays distances".split())

_TYPE_NAMES = {"int": "an integer", "number": "a number", "bool": "true or false",
               "text": "text"}


def _has_type(value, kind) -> bool:
    if isinstance(value, bool):
        return kind == "bool"
    return isinstance(value, {"int": int, "number": (int, float), "bool": bool,
                              "text": (str, int, float)}[kind])


def _check_types(config, mode):
    """Reject unknown keys, values of the wrong type and empty lists."""
    types = {**KEY_TYPES, **(KEY_TYPES_3D if mode == "3D" else KEY_TYPES_2D)}
    unknown = sorted(set(config) - set(types))
    if unknown:
        raise InvalidConfigurationError(
            f"unknown keys for a {mode} config: {', '.join(unknown)}")
    for key, value in config.items():
        many = key in LIST_KEYS and isinstance(value, (list, tuple))
        values = list(value) if many else [value]
        if values and all(_has_type(v, types[key]) for v in values):
            continue
        kind = _TYPE_NAMES[types[key]]
        raise InvalidConfigurationError(
            f"{key} must be {kind}{' or a list of them' if key in LIST_KEYS else ''}, "
            f"got {value!r}")


def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        return [_parse_value(tok) for tok in raw.split(",") if tok.strip()]
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_config(text: str) -> dict:
    """Parse the flat key-value grammar into a config dict."""
    config = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfigurationError(f"line {ln}: expected 'key = value'")
        key, raw = line.split("=", 1)
        key = key.strip()
        if not key:
            raise InvalidConfigurationError(f"line {ln}: empty key")
        config[key] = _parse_value(raw)
    return config


def _serialize(config: dict) -> str:
    lines = []
    for key, value in config.items():
        if isinstance(value, (list, tuple)):
            rendered = ", ".join(str(v) for v in value)
        else:
            rendered = str(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def _as_list(value):
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def _parse_dist(value):
    if value is None:
        return None
    if isinstance(value, str) and value.startswith("uniform:"):
        try:
            _, lo, hi = value.split(":")
            lo, hi = float(lo), float(hi)
        except ValueError as exc:
            raise InvalidConfigurationError(
                f"bad distribution {value!r}; expected uniform:lo:hi") from exc
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise InvalidConfigurationError(
                f"bad distribution {value!r}; expected finite lo <= hi")
        return (lo, hi)
    raise InvalidConfigurationError(f"unknown distribution {value!r}")


# ----------------------------------------------------------------------
# Presets: the bundled experiment configurations.
# ----------------------------------------------------------------------

_COMMON = {
    "m": 120, "groups": 4, "n_bar": 8, "spacing": 0.5,
    "spread_deg": 15.0, "n_trials": 500, "seed": 1,
}


def _preset_configs() -> dict:
    deg8 = 8.0
    return {
        # Dual- vs single-polarized arrays, BD only, chi = 0.1, B = 14.
        "fig3": {**_COMMON, "scenario_id": "fig3", "spread_deg": deg8,
                 "b_bar": 14, "chi": 0.1, "tau_sq": 0.0,
                 "snr_db": [0, 5, 10, 15, 20, 25, 30],
                 "schemes": ["BD"],
                 "arrays": ["dual@0.5", "single@0.5", "single@0.25"]},
        # BD vs BDS under perfect CSIT at chi in {0, 0.1}.
        "fig4": {**_COMMON, "scenario_id": "fig4", "chi": [0.0, 0.1],
                 "tau_sq": 0.0, "snr_db": [0, 5, 10, 15, 20, 25, 30],
                 "schemes": ["BD", "BDS"], "grid": True},
        # Imperfect CSIT tau^2 = 0.1 (BDS at its equal-feedback square).
        "fig5": {**_COMMON, "scenario_id": "fig5", "chi": 0.0, "tau_sq": 0.1,
                 "snr_db": [0, 5, 10, 15, 20, 25, 30],
                 "schemes": ["BD", "BDS", "ASYM_BD", "ASYM_BDS"]},
        # Sum rate vs chi for several tau^2 (values above 1 are clamped in
        # the channel model and flagged on stderr).
        "fig6": {**_COMMON, "scenario_id": "fig6", "snr_db": 15,
                 "tau_sq": [0.0, 0.5, 1.0, 1.5],
                 "chi": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
                 "schemes": ["BD", "BDS", "ASYM_BD", "ASYM_BDS"], "grid": True},
        # Sum rate vs feedback bits at SNR 25.
        "fig8": {**_COMMON, "scenario_id": "fig8", "snr_db": 25,
                 "chi": [0.1, 0.2],
                 "n_bits": [30, 40, 50, 60, 70, 80, 90, 100],
                 "schemes": ["BD", "BDS"], "grid": True},
        # Mode switching vs SNR, chi drawn per trial from U[0, 0.5].
        "fig9": {**_COMMON, "scenario_id": "fig9",
                 "snr_db": [0, 5, 10, 15, 20, 25, 30], "n_bits": [50, 65],
                 "chi_dist": "uniform:0:0.5",
                 "schemes": ["BD", "BDS", "SWITCH"], "grid": True},
        # 3D planar array with elevation regions and polarization mismatch.
        "fig11": {"scenario_id": "fig11", "mode_3d": True, "m_e": 10,
                  "m_a": 50, "height": 60.0, "distances": [30.0, 60.0, 100.0],
                  "groups": 4, "n_bar": 8, "spacing": 0.5, "spread_deg": 15.0,
                  "snr_db": 25, "chi_dist": "uniform:0:0.5",
                  "tau_sq_dist": "uniform:0:1",
                  "theta_max_ms_deg": [0.0, 39.6],
                  "schemes": ["BD", "BDS", "SWITCH", "SWITCH_RAW"],
                  "n_trials": 500, "seed": 1, "grid": True},
    }


def list_presets() -> list:
    return sorted(_preset_configs())


def preset(name: str) -> dict:
    configs = _preset_configs()
    if name not in configs:
        raise InvalidConfigurationError(
            f"unknown preset {name!r}; known: {', '.join(sorted(configs))}")
    return configs[name]


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


@dataclass
class _Variant:
    scenario_id: str
    scenario3d: object = None
    scenario: object = None


def _build_variants(config):
    G = config.get("groups", 4)
    n_bar = config.get("n_bar", 8)
    spread = math.radians(config.get("spread_deg", 15.0))
    spacing = config.get("spacing", 0.5)
    chi = config.get("chi", 0.0)
    chi0 = chi[0] if isinstance(chi, list) else chi
    if config.get("mode_3d"):
        from .scene3d import make_scenario_3d

        sc3 = make_scenario_3d(
            m_e=config.get("m_e", 10), m_a=config.get("m_a", 50),
            height=config.get("height", 60.0),
            distances=tuple(config.get("distances", [30.0, 60.0, 100.0])),
            G=G, n_bar=n_bar, spread=spread, spacing=spacing, chi=chi0,
            scenario_id=config["scenario_id"])
        return [_Variant(scenario_id=config["scenario_id"], scenario3d=sc3)]
    arrays = config.get("arrays", ["dual@%s" % spacing])
    variants = []
    for token in arrays:
        pol, _, ds = str(token).partition("@")
        ds = float(ds) if ds else spacing
        dual = pol == "dual"
        ident = config["scenario_id"]
        if len(arrays) > 1:
            ident = f"{ident}-{pol}-ds{ds:g}"
        sc = make_scenario(
            M=config.get("m", 120), G=G, n_bar=n_bar, spacing=ds,
            spread=spread, chi=chi0, b_bar=config.get("b_bar"),
            r=config.get("r"), dual_pol=dual, scenario_id=ident,
            enforce_rank_constraint=dual)
        if not dual:
            # Equal captured per-user energy against the dual-polarized array.
            gain = math.sqrt((1.0 + chi0) / 2.0)
            sc = replace(sc, gains=(gain,) * sc.G)
        variants.append(_Variant(scenario_id=ident, scenario=sc))
    return variants


def _sweep_points(config):
    axes = {
        "snr_db": _as_list(config.get("snr_db", [10.0])),
        "chi": _as_list(config.get("chi", 0.0)) if config.get("chi_dist") is None else [None],
        "tau_sq": _as_list(config.get("tau_sq", 0.0)) if config.get("tau_sq_dist") is None else [None],
        "n_bits": _as_list(config.get("n_bits")) or [None],
        "theta_max_ms_deg": _as_list(config.get("theta_max_ms_deg", 0.0)),
    }
    for key in ("snr_db", "chi", "tau_sq", "theta_max_ms_deg"):
        for v in axes[key]:
            if v is not None and not math.isfinite(v):
                raise InvalidConfigurationError(f"{key} must be a finite number, got {v!r}")
    varying = [k for k, v in axes.items() if len(v) > 1]
    if len(varying) > 1 and not config.get("grid", False):
        raise InvalidConfigurationError(
            f"multiple sweep axes vary ({', '.join(varying)}); set grid = true")
    points = [{}]
    for key, values in axes.items():
        points = [dict(p, **{key: v}) for p in points for v in values]
    return points


def _clamped_tau(tau_sq, scenario_id, point):
    if tau_sq is not None and tau_sq > 1.0:
        print(f"warning: {scenario_id} {point}: tau_sq={tau_sq} clamped to 1.0 "
              "(CSIT model bounds tau <= 1)", file=sys.stderr)
        return 1.0
    return tau_sq


def _check_range(key, values, lo, hi=math.inf):
    for v in values:
        if v is not None and not lo <= v <= hi:
            raise InvalidConfigurationError(f"{key} must lie in [{lo:g}, {hi:g}], got {v!r}")


def run_config(config: dict, out_stream) -> None:
    """Check the whole config, then execute all (variant, sweep point,
    scheme) cells and write the CSV header and rows."""
    mode = "3D" if config.get("mode_3d") else "2D"
    _check_types(config, mode)
    schemes = [str(s) for s in _as_list(config.get("schemes", ["BD"]))
               if str(s).strip()]
    unknown = [s for s in schemes if s not in MC_MODES + ASYM_SCHEMES]
    if unknown:
        raise InvalidConfigurationError(f"unknown schemes: {', '.join(unknown)}")
    asym = [s for s in schemes if s in ASYM_SCHEMES]
    if asym and mode == "3D":
        raise InvalidConfigurationError(
            f"3D configs run Monte Carlo schemes only, not {', '.join(asym)}")
    n_trials, seed = config.get("n_trials", 500), config.get("seed", 1)
    _check_range("n_trials", [n_trials], 1)
    _check_range("seed", [seed], 0)
    chi_dist = _parse_dist(config.get("chi_dist"))
    tau_dist = _parse_dist(config.get("tau_sq_dist"))
    points = _sweep_points(config)
    _check_range("chi", _as_list(config.get("chi", 0.0)) + list(chi_dist or ()), 0.0, 1.0)
    _check_range("tau_sq", [p["tau_sq"] for p in points] + list(tau_dist or ()), 0.0)
    _check_range("theta_max_ms_deg", [p["theta_max_ms_deg"] for p in points], 0.0, 90.0)
    variants = _build_variants(config)

    writer = csv.writer(out_stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)

    def fmt(x):
        if x is None:
            return ""
        if isinstance(x, float):
            return format(x, ".10g")
        return str(x)

    for variant in variants:
        tau_sqs = [_clamped_tau(p["tau_sq"], variant.scenario_id, p) for p in points]
        cells = _run_variant(variant, schemes, points, tau_sqs, chi_dist, tau_dist,
                             n_trials, seed)
        for point, rows in zip(points, cells):
            for scheme, sum_rate, stderr, trials in rows:
                writer.writerow([
                    variant.scenario_id, scheme, fmt(float(point["snr_db"])),
                    fmt(point["chi"]), fmt(point["tau_sq"]),
                    fmt(point["n_bits"]), fmt(sum_rate), fmt(stderr),
                    trials, seed,
                ])


def _run_variant(variant, schemes, points, tau_sqs, chi_dist, tau_dist,
                 n_trials, seed):
    """Every sweep point's rows of one variant: its Monte Carlo schemes from
    one sweep call (``run_paired``, or ``run_3d_paired`` over the regions),
    then its DE schemes."""
    mc_modes = [s for s in schemes if s in MC_MODES]
    cells = [[] for _ in points]
    if mc_modes:
        sweep = [SweepPoint(power=power_from_db(p["snr_db"]), chi=p["chi"],
                            tau_sq=tau_sq if tau_sq is not None else 0.0,
                            n_bits=p["n_bits"],
                            theta_max=math.radians(p["theta_max_ms_deg"] or 0.0))
                 for p, tau_sq in zip(points, tau_sqs)]
        kwargs = dict(points=sweep, chi_dist=chi_dist, tau_sq_dist=tau_dist)
        if variant.scenario3d is not None:
            from .scene3d import run_3d_paired

            results = run_3d_paired(variant.scenario3d, mc_modes, n_trials, seed,
                                    **kwargs)
        else:
            results = run_paired(variant.scenario, mc_modes, n_trials, seed, **kwargs)
        for rows, result in zip(cells, results):
            rows += [(m, result[m].sum_rate, result[m].stderr, n_trials)
                     for m in mc_modes]
    asym = [s for s in schemes if s in ASYM_SCHEMES]
    if asym:
        for rows, point, tau_sq in zip(cells, points, tau_sqs):
            sc = variant.scenario.with_power_db(point["snr_db"])
            if point["chi"] is not None:
                sc = sc.with_chi(point["chi"])
            t_bd, t_bds = csit_tau_sq(tau_sq or 0.0, point["n_bits"], sc.r)
            for scheme in asym:
                if scheme == "ASYM_BD":
                    rows.append((scheme, rmt.asym_bd(sc, tau_sq=t_bd).sum_rate, 0.0, 0))
                else:
                    rows.append((scheme, rmt.asym_bds(sc, tau_sq=t_bds).sum_rate, 0.0, 0))
    return cells


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dualpol",
        description="Dual-structured precoding experiments (CSV output)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--trials", type=int)
    p_run.add_argument("--out")

    p_preset = sub.add_parser("preset", help="emit a bundled configuration")
    p_preset.add_argument("name")
    p_preset.add_argument("--out")

    sub.add_parser("list-presets", help="list known presets")

    args = parser.parse_args(argv)
    try:
        if args.command == "list-presets":
            for name in list_presets():
                print(name)
            return 0
        if args.command == "preset":
            text = _serialize(preset(args.name))
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return 0
        with open(args.config, "r", encoding="utf-8") as fh:
            config = parse_config(fh.read())
        if args.seed is not None:
            config["seed"] = args.seed
        if args.trials is not None:
            config["n_trials"] = args.trials
        if "scenario_id" not in config:
            config["scenario_id"] = "scenario"
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                run_config(config, fh)
        else:
            run_config(config, sys.stdout)
        return 0
    except (InvalidConfigurationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except DualpolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
