"""Experiment runner.

``dualpol run --config file.cfg`` executes sweeps described by a flat
key-value config and emits CSV; ``dualpol preset <name>`` writes the
bundled figure configurations; ``dualpol list-presets`` enumerates them.

Config grammar (one canonical parser):
    # comment
    key = value          # int / float / bool / string, auto-detected
    key = v1, v2, v3     # list
    key = uniform:0:0.5  # per-trial distribution (chi_dist, tau_sq_dist)

``KEYS`` holds the contract of every key; a config is resolved against it
once, before anything runs. Exit codes: 0 ok, 2 config error, 3 numerical
error. A run that succeeds writes the header row and every row; one that
fails writes nothing. Numeric columns are deterministic for a fixed seed.
Each variant's covariances are synthesized on the affinity set's cores
when the environment starts OpenBLAS on one thread (say,
``OPENBLAS_NUM_THREADS=1``; ``scenario.make_scenario``), with the bits of
one thread; Monte Carlo cells run single-threaded, their trials batched,
and all sweep points of a variant in one ``metrics.run_paired`` call.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import math
import sys
from dataclasses import replace
from typing import NamedTuple

# precode's, rmt's and scene3d's functions are looked up on the module at
# call time, so wrappers installed there (perfbench/tracer.py) see the calls.
from . import precode, rmt, scene3d
from .errors import DualpolError, InvalidConfigurationError, NumericalError
from .metrics import MC_MODES, run_paired
from .scenario import SweepPoint, make_scenario, power_from_db

__all__ = ["KEYS", "main", "parse_config", "preset", "list_presets", "run_config"]

CSV_COLUMNS = ["scenario_id", "scheme", "snr_db", "chi", "tau_sq", "n_bits",
               "sum_rate", "stderr", "n_trials", "seed"]

ASYM_SCHEMES = ("ASYM_BD", "ASYM_BDS")


class _Key(NamedTuple):
    kind: str
    default: object
    range: tuple | None = None
    modes: tuple = ("2D", "3D")
    ends: str = "[]"


#: The config contract: per key its type, default, range and the configs
#: that take it (3D ones set ``mode_3d = true``); a range is closed unless
#: ``ends`` opens an end, as the library requires. An int is a whole
#: number (``n_trials = 2.5`` is an error), a number a finite int or float,
#: and text takes numbers as written (``scenario_id = 7``). A list default
#: marks a key that may hold a comma-separated list of its type; ``schemes``
#: and ``arrays`` name each entry once, and so do the sweep axes (``snr_db``,
#: ``chi``, ``tau_sq``, ``n_bits``, ``theta_max_ms_deg``) their values. A
#: None default means "derived" (``b_bar``, ``r``) or "not set".
KEYS = {
    "scenario_id": _Key("text", "scenario"),
    "schemes": _Key("text", ["BD"]),
    "n_trials": _Key("int", 500, (1, math.inf)),
    "seed": _Key("int", 1, (0, math.inf)),
    "grid": _Key("bool", False),
    "mode_3d": _Key("bool", False),
    "snr_db": _Key("number", [10.0], (-100, 100)),
    "chi": _Key("number", [0.0], (0, 1)),
    "tau_sq": _Key("number", [0.0], (0, math.inf)),
    "n_bits": _Key("int", [None], (1, math.inf)),
    "theta_max_ms_deg": _Key("number", [0.0], (0, 90)),
    "chi_dist": _Key("text", None),
    "tau_sq_dist": _Key("text", None),
    "groups": _Key("int", 4, (1, math.inf)),
    "n_bar": _Key("int", 8, (1, math.inf)),
    "spacing": _Key("number", 0.5, (0, 4), ends="(]"),
    "spread_deg": _Key("number", 15.0, (0, 90), ends="()"),
    "m": _Key("int", 120, (4, math.inf), ("2D",)),
    "b_bar": _Key("int", None, (1, math.inf), ("2D",)),
    "r": _Key("int", None, (1, math.inf), ("2D",)),
    "arrays": _Key("text", ["dual"], None, ("2D",)),
    "m_e": _Key("int", 10, (2, math.inf), ("3D",)),
    "m_a": _Key("int", 50, (2, math.inf), ("3D",)),
    "height": _Key("number", 60.0, (0, 1e4), ("3D",), "(]"),
    "distances": _Key("number", [30.0, 60.0, 100.0], (0, 1e4), ("3D",), "(]"),
}

_TYPE_NAMES = {"int": "an integer", "number": "a number", "bool": "true or false",
               "text": "text"}


def _has_type(value, kind) -> bool:
    if isinstance(value, bool):
        return kind == "bool"
    return isinstance(value, {"int": int, "number": (int, float), "bool": bool,
                              "text": (str, int, float)}[kind])


def _check_range(key, values, lo, hi, ends="[]"):
    for v in values:
        if v is None:
            continue
        above = lo <= v if ends[0] == "[" else lo < v
        below = v <= hi if ends[1] == "]" else v < hi
        if not (above and below):
            raise InvalidConfigurationError(
                f"{key} must lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {v!r}")


def _resolve(config: dict) -> dict:
    """The config with every key of its mode set: defaults filled in, list
    keys as lists, distributions as (lo, hi) and ``arrays`` as (polarization,
    spacing) pairs. A value that breaks ``KEYS`` raises
    ``InvalidConfigurationError``."""
    mode = "3D" if config.get("mode_3d") else "2D"
    keys = {key: row for key, row in KEYS.items() if mode in row.modes}
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise InvalidConfigurationError(
            f"unknown keys for a {mode} config: {', '.join(unknown)}")
    cfg = {}
    for key, row in keys.items():
        many = isinstance(row.default, list)
        value = config.get(key, row.default)
        values = list(value) if many and isinstance(value, (list, tuple)) else [value]
        cfg[key] = values if many else value
        if key not in config:
            continue
        if not values or not all(_has_type(v, row.kind) for v in values):
            raise InvalidConfigurationError(
                f"{key} must be {_TYPE_NAMES[row.kind]}"
                f"{' or a list of them' if many else ''}, got {value!r}")
        if row.kind == "number" and not all(math.isfinite(v) for v in values):
            raise InvalidConfigurationError(
                f"{key} must be a finite number, got {value!r}")
        if row.range:
            _check_range(key, values, *row.range, row.ends)
    for axis in ("snr_db", "chi", "tau_sq", "n_bits", "theta_max_ms_deg"):
        _check_once(axis, cfg[axis])
    if mode == "3D" and cfg["spread_deg"] >= 45:
        raise InvalidConfigurationError(
            f"spread_deg must lie in (0, 45) in a 3D config, where each region's "
            f"scatter ring, of radius d tan(spread), must not reach its distance d; "
            f"got {cfg['spread_deg']!r}")
    for axis in ("chi", "tau_sq"):
        dist = cfg[f"{axis}_dist"] = _parse_dist(cfg[f"{axis}_dist"])
        _check_range(axis, dist or (), *KEYS[axis].range)
        if dist and axis in config:
            raise InvalidConfigurationError(f"{axis}_dist draws {axis} per trial; remove {axis}")
    cfg["schemes"] = [str(s) for s in cfg["schemes"] if str(s).strip()]
    unknown = [s for s in cfg["schemes"] if s not in MC_MODES + ASYM_SCHEMES]
    if unknown:
        raise InvalidConfigurationError(f"unknown schemes: {', '.join(unknown)}")
    _check_once("schemes", cfg["schemes"])
    asym = [s for s in cfg["schemes"] if s in ASYM_SCHEMES]
    if asym and mode == "3D":
        raise InvalidConfigurationError(
            f"3D configs run Monte Carlo schemes only, not {', '.join(asym)}")
    drawn = [key for key in ("chi_dist", "tau_sq_dist") if cfg[key]]
    drawn += ["theta_max_ms_deg > 0"] if any(cfg["theta_max_ms_deg"]) else []
    if asym and drawn:
        raise InvalidConfigurationError(
            f"{', '.join(asym)}: the deterministic equivalents take one chi, one "
            f"tau_sq and aligned antennas; remove {', '.join(drawn)}")
    taus = [key for key in ("tau_sq", "tau_sq_dist") if key in config]
    if "n_bits" in config and taus:
        raise InvalidConfigurationError(
            f"n_bits sets each scheme's CSIT quality from its RVQ bound; "
            f"remove {', '.join(taus)}")
    if mode == "2D":
        cfg["arrays"] = [_parse_array(token, cfg["spacing"]) for token in cfg["arrays"]]
        _check_once("arrays", [f"{pol}@{ds:g}" for pol, ds in cfg["arrays"]])
        single = any(pol == "single" for pol, _ in cfg["arrays"])
        chis = "chi_dist" if cfg["chi_dist"] else "chi" if len(cfg["chi"]) > 1 else None
        if chis and single:
            raise InvalidConfigurationError(
                f"single-polarized arrays take their energy gain from one chi; remove {chis}")
        if single and any(cfg["theta_max_ms_deg"]):
            raise InvalidConfigurationError(
                "single-polarized arrays are never mismatched; remove theta_max_ms_deg > 0")
    return cfg


def _check_once(key, names):
    """Raise on a name or value listed twice: it would run, and write, its
    rows twice."""
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise InvalidConfigurationError(
            f"{key} lists {', '.join(map(str, repeated))} more than once")


def _parse_array(token, spacing):
    pol, _, ds = str(token).partition("@")
    ds = _parse_value(ds) if ds else spacing
    if pol not in ("dual", "single") or not (_has_type(ds, "number") and math.isfinite(ds)):
        raise InvalidConfigurationError(
            f"arrays must be dual or single with an optional @<spacing>, got {token!r}")
    _check_range("spacing", [ds], *KEYS["spacing"].range, KEYS["spacing"].ends)
    return pol, float(ds)


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


def _build_variants(cfg):
    """The (scenario_id, scenario) of every array a resolved config runs on:
    one ``Scenario3D`` in 3D, one ``GroupScenario`` per ``arrays`` entry in 2D."""
    spread = math.radians(cfg["spread_deg"])
    chi0 = cfg["chi"][0]
    common = dict(G=cfg["groups"], n_bar=cfg["n_bar"], spread=spread, chi=chi0)
    if cfg["mode_3d"]:
        return [(cfg["scenario_id"], scene3d.make_scenario_3d(
            m_e=cfg["m_e"], m_a=cfg["m_a"], height=cfg["height"],
            distances=tuple(cfg["distances"]), spacing=cfg["spacing"],
            scenario_id=cfg["scenario_id"], **common))]
    variants = []
    for pol, ds in cfg["arrays"]:
        dual = pol == "dual"
        suffix = f"-{pol}-ds{ds:g}" if len(cfg["arrays"]) > 1 else ""
        ident = f"{cfg['scenario_id']}{suffix}"
        sc = make_scenario(
            M=cfg["m"], spacing=ds, b_bar=cfg["b_bar"], r=cfg["r"], dual_pol=dual,
            scenario_id=ident, **common)
        if not dual:
            # Equal captured per-user energy against the dual-polarized array.
            gain = math.sqrt((1.0 + chi0) / 2.0)
            sc = replace(sc, gains=(gain,) * sc.G)
        variants.append((ident, sc))
    return variants


def _check_variants(variants, schemes, points):
    """Reject the schemes a variant's array cannot run, before any cell runs."""
    dual_only = ", ".join(s for s in schemes if s != "BD")
    bds = ", ".join(s for s in schemes if s not in ("BD", "ASYM_BD"))  # BDS on some trials
    for ident, sc in variants:
        sc = getattr(sc, "azimuth_scenario", sc)
        if dual_only and not sc.dual_pol:
            raise InvalidConfigurationError(
                f"{ident} is single-polarized; {dual_only} run on dual-polarized arrays only")
        if bds and sc.r == 1 and any(p.n_bits is not None for p in points):
            raise InvalidConfigurationError(
                f"n_bits with {bds} needs r > 1; {ident} has r = 1")


def _sweep(cfg):
    """Each sweep point's axis values and ``SweepPoint``, whose chi and
    tau^2 are the ``chi_dist`` and ``tau_sq_dist`` ranges where those are
    set (the axis values then hold None). A tau^2 above 1, fixed or in the
    range of ``tau_sq_dist``, is flagged here and clamped to 1 where it is
    used (``modeswitch.csit_tau_sq``)."""
    if cfg["tau_sq_dist"] and cfg["tau_sq_dist"][1] > 1.0:
        lo, hi = cfg["tau_sq_dist"]
        print(f"warning: {cfg['scenario_id']}: tau_sq_dist=uniform:{lo:g}:{hi:g} draws "
              "tau_sq above 1, clamped to 1.0 (CSIT model bounds tau <= 1)", file=sys.stderr)
    axes = {"snr_db": cfg["snr_db"], "chi": [None] if cfg["chi_dist"] else cfg["chi"],
            "tau_sq": [None] if cfg["tau_sq_dist"] else cfg["tau_sq"],
            "n_bits": cfg["n_bits"], "theta_max_ms_deg": cfg["theta_max_ms_deg"]}
    varying = [k for k, v in axes.items() if len(v) > 1]
    if len(varying) > 1 and not cfg["grid"]:
        raise InvalidConfigurationError(
            f"multiple sweep axes vary ({', '.join(varying)}); set grid = true")
    values = [{}]
    for key, axis in axes.items():
        values = [dict(p, **{key: v}) for p in values for v in axis]
    points = []
    for p in values:
        tau_sq = p["tau_sq"] or 0.0
        if tau_sq > 1.0:
            print(f"warning: {cfg['scenario_id']} {p}: tau_sq={tau_sq} clamped to 1.0 "
                  "(CSIT model bounds tau <= 1)", file=sys.stderr)
        points.append(SweepPoint(power=power_from_db(p["snr_db"]),
                                 chi=cfg["chi_dist"] or p["chi"],
                                 tau_sq=cfg["tau_sq_dist"] or tau_sq, n_bits=p["n_bits"],
                                 theta_max=math.radians(p["theta_max_ms_deg"])))
    return values, points


def _fmt(x):
    return "" if x is None else format(x, ".10g") if isinstance(x, float) else str(x)


@functools.cache
def _keep_freed_memory() -> None:
    """Fix glibc's malloc thresholds for this process: mmap above 32 MiB
    (the most it accepts), trim above 64 MiB; a no-op without ``mallopt``.

    glibc's defaults adapt to the frees seen so far, so whether a run's
    multi-megabyte arrays (the batched trials, the quadrature's levels on
    large arrays) fault in fresh pages on every call depended on what the
    process had allocated before: the same run took a quarter longer in
    one process than in the next.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 1 << 25)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 26)  # M_TRIM_THRESHOLD


def run_config(config: dict, out_stream) -> None:
    """Resolve and check the whole config, execute all (variant, sweep
    point, scheme) cells, then write the CSV header and rows. The process's
    allocator keeps freed memory from then on (``_keep_freed_memory``)."""
    _keep_freed_memory()
    cfg = _resolve(config)
    values, points = _sweep(cfg)
    variants = _build_variants(cfg)
    _check_variants(variants, cfg["schemes"], points)
    rows = []
    for ident, sc in variants:
        for p, cells in zip(values, _run_variant(sc, cfg, points)):
            rows += [[ident, scheme, _fmt(float(p["snr_db"])), _fmt(p["chi"]),
                      _fmt(p["tau_sq"]), _fmt(p["n_bits"]), _fmt(sum_rate),
                      _fmt(stderr), trials, cfg["seed"]]
                     for scheme, sum_rate, stderr, trials in cells]
    writer = csv.writer(out_stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)


def _run_variant(sc, cfg, points):
    """Every sweep point's rows of one variant: its Monte Carlo schemes from
    one sweep call (``run_paired``, or ``run_3d_paired`` over the regions),
    then its DE schemes from one ``rmt.asym_sweep`` call. Both engines take
    the same points and one build of the BD preprocessors (of the azimuth
    scenario in 3D)."""
    mc_modes = [s for s in cfg["schemes"] if s in MC_MODES]
    de_modes = [s[len("ASYM_"):] for s in cfg["schemes"] if s in ASYM_SCHEMES]
    cells = [[] for _ in points]
    pre = (precode.build_preprocessors(getattr(sc, "azimuth_scenario", sc))
           if cfg["schemes"] else None)
    if mc_modes:
        run = scene3d.run_3d_paired if cfg["mode_3d"] else run_paired
        results = run(sc, mc_modes, cfg["n_trials"], cfg["seed"], points, preprocessors=pre)
        for rows, result in zip(cells, results):
            rows += [(m, result[m].sum_rate, result[m].stderr, cfg["n_trials"])
                     for m in mc_modes]
    if de_modes:
        for rows, result in zip(cells, rmt.asym_sweep(sc, de_modes, points, pre)):
            rows += [(f"ASYM_{m}", result[m].sum_rate, 0.0, 0) for m in de_modes]
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
