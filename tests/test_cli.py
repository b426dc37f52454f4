import csv
import io
import math
import os
import pathlib
import platform
import subprocess
import sys

import pytest

import dualpol.rmt as rmt
from dualpol.cli import (
    KEYS,
    _build_variants,
    _resolve,
    list_presets,
    main,
    parse_config,
    preset,
    run_config,
)
from dualpol.errors import InvalidConfigurationError, NonConvergenceError


class TestConfigParser:
    def test_grammar(self):
        cfg = parse_config(
            """
            # a comment
            m = 120
            spread_deg = 15.0   # trailing comment
            schemes = BD, BDS
            grid = true
            chi_dist = uniform:0:0.5
            """
        )
        assert cfg["m"] == 120
        assert cfg["spread_deg"] == 15.0
        assert cfg["schemes"] == ["BD", "BDS"]
        assert cfg["grid"] is True
        assert cfg["chi_dist"] == "uniform:0:0.5"

    def test_rejects_bad_lines(self):
        with pytest.raises(InvalidConfigurationError):
            parse_config("just words\n")
        with pytest.raises(InvalidConfigurationError):
            parse_config(" = 3\n")


def _table_row(key, row):
    many = isinstance(row.default, list)
    default = ", ".join("–" if v is None else str(v).lower() if isinstance(v, bool)
                        else str(v) for v in (row.default if many else [row.default]))
    span = "" if row.range is None else (
        f"{row.ends[0]}{row.range[0]:g}, {row.range[1]:g}{row.ends[1]}")
    return (f"| `{key}` | {row.kind}{' (list)' if many else ''} | {default} | {span} "
            f"| {', '.join(row.modes)} |")


def test_readme_table_is_keys():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    rows = [ln for ln in readme.read_text(encoding="utf-8").splitlines()
            if ln.startswith("| `")]
    assert rows == [_table_row(key, row) for key, row in KEYS.items()]


class TestPresets:
    def test_list_contains_figure_presets(self):
        assert list_presets() == ["fig11", "fig3", "fig4", "fig5", "fig6",
                                  "fig8", "fig9"]

    def test_unknown_preset(self):
        with pytest.raises(InvalidConfigurationError):
            preset("fig7")

    def test_fig4_dimensions(self):
        cfg = preset("fig4")
        assert cfg["m"] == 120 and cfg["groups"] == 4 and cfg["n_bar"] == 8
        variants = _build_variants(_resolve(cfg))
        sc = variants[0][1]
        # B_bar defaults to min(2 n_bar, 2 r)
        assert sc.b_bar == min(2 * sc.n_bar, 2 * min(
            c.effective_rank for c in sc.covariances))
        assert sc.b_bar == 16

    def test_fig3_has_b14_and_three_arrays(self):
        cfg = preset("fig3")
        assert cfg["b_bar"] == 14
        variants = _build_variants(_resolve(cfg))
        assert [ident for ident, _ in variants] == [
            "fig3-dual-ds0.5", "fig3-single-ds0.5", "fig3-single-ds0.25"]
        assert all(sc.b_bar == 14 for _, sc in variants)

    def test_fig11_geometry(self):
        cfg = preset("fig11")
        assert cfg["height"] == 60.0
        assert cfg["distances"] == [30.0, 60.0, 100.0]
        assert (cfg["m_e"], cfg["m_a"]) == (10, 50)
        assert 0.22 * 180.0 in cfg["theta_max_ms_deg"]

    def test_every_preset_builds_valid_scenarios(self):
        for name in list_presets():
            variants = _build_variants(_resolve(preset(name)))
            assert variants


def _run(config, **overrides):
    cfg = dict(config)
    cfg.update(overrides)
    buf = io.StringIO()
    run_config(cfg, buf)
    return buf.getvalue()


class TestRun:
    def test_empty_scheme_list_gives_header_only(self):
        out = _run({"scenario_id": "t", "snr_db": 10.0, "schemes": ""})
        assert out.splitlines() == [
            "scenario_id,scheme,snr_db,chi,tau_sq,n_bits,sum_rate,stderr,n_trials,seed"]

    def test_rows_and_determinism(self):
        cfg = {"scenario_id": "t", "m": 24, "groups": 2, "n_bar": 4,
               "spread_deg": 20.0, "snr_db": [0.0, 10.0], "chi": 0.1,
               "schemes": ["BD", "BDS"], "n_trials": 4, "seed": 9}
        out1 = _run(cfg)
        out2 = _run(cfg)
        assert out1 == out2
        lines = out1.splitlines()
        assert len(lines) == 1 + 2 * 2
        assert lines[1].startswith("t,BD,0,0.1,0,,")

    def test_seed_changes_rows(self):
        cfg = {"scenario_id": "t", "m": 24, "groups": 2, "n_bar": 4,
               "spread_deg": 20.0, "snr_db": 10.0, "schemes": ["BD"],
               "n_trials": 4, "seed": 9}
        assert _run(cfg) != _run(cfg, seed=10)

    def test_two_axes_require_grid(self):
        cfg = {"scenario_id": "t", "m": 24, "groups": 2, "n_bar": 4,
               "spread_deg": 20.0, "snr_db": [0.0, 10.0],
               "chi": [0.0, 0.2], "schemes": ["BD"], "n_trials": 2, "seed": 1}
        with pytest.raises(InvalidConfigurationError, match="grid"):
            _run(cfg)
        assert _run(cfg, grid=True)

    def test_asym_rows_have_zero_trials(self):
        cfg = {"scenario_id": "t", "m": 24, "groups": 2, "n_bar": 4,
               "spread_deg": 20.0, "snr_db": 10.0, "tau_sq": 0.1,
               "schemes": ["ASYM_BD", "ASYM_BDS"], "n_trials": 3, "seed": 1}
        rows = _run(cfg).splitlines()[1:]
        assert all(row.split(",")[-2] == "0" for row in rows)
        assert all(row.split(",")[7] == "0" for row in rows)  # stderr

    def test_tau_clamp_is_flagged(self, capsys):
        cfg = {"scenario_id": "t", "m": 24, "groups": 2, "n_bar": 4,
               "spread_deg": 20.0, "snr_db": 10.0, "tau_sq": 1.5,
               "schemes": ["BD"], "n_trials": 2, "seed": 1}
        _run(cfg)
        assert "clamped" in capsys.readouterr().err

    def test_unknown_scheme_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="unknown schemes"):
            _run({"scenario_id": "t", "schemes": ["MRT"]})

    @pytest.mark.parametrize("key, values", [("schemes", ["BD", "BD"]),
                                             ("arrays", ["dual", "dual@0.5"])])
    def test_a_repeated_entry_is_rejected_before_any_covariance(self, monkeypatch,
                                                                key, values):
        # Each copy used to run again: two BD rows with a deflated stderr,
        # or two variants under one scenario_id.
        monkeypatch.setattr("dualpol.cli.make_scenario", None)
        with pytest.raises(InvalidConfigurationError, match="more than once"):
            _run({"scenario_id": "t", key: values})


class TestMain:
    def test_list_presets_exit_zero(self, capsys):
        assert main(["list-presets"]) == 0
        assert "fig4" in capsys.readouterr().out

    def test_unknown_preset_exit_two(self, capsys):
        assert main(["preset", "fig7"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_preset_roundtrip_and_run(self, tmp_path, capsys):
        cfg_path = tmp_path / "fig4.cfg"
        assert main(["preset", "fig4", "--out", str(cfg_path)]) == 0
        text = cfg_path.read_text()
        assert parse_config(text)["m"] == 120
        out_path = tmp_path / "fig4.csv"
        # trim to a smoke-sized run
        trimmed = text + "snr_db = 10\nchi = 0\n"
        cfg_path.write_text(trimmed)
        assert main(["run", "--config", str(cfg_path), "--trials", "3",
                     "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("scenario_id,")
        assert len(lines) == 3  # header + BD + BDS

    def test_missing_config_exit_two(self, capsys):
        assert main(["run", "--config", "/nonexistent.cfg"]) == 2

    @pytest.mark.parametrize("line", [
        "chi_dist = uniform:0.5:0.1", "chi_dist = uniform:nan:0.5",
        "tau_sq_dist = uniform:0:inf"])
    def test_bad_distribution_exit_two_before_header(self, tmp_path, capsys, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m = 24\ngroups = 2\nn_bar = 4\nschemes = BD\n"
                       f"n_trials = 2\n{line}\n")
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert out.read_text() == ""
        assert "config error" in capsys.readouterr().err

    def test_tau_sq_dist_above_one_is_flagged(self, tmp_path, capsys):
        # Draws above 1 are clamped per trial, like a fixed tau_sq above 1,
        # and flagged the same way.
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m = 24\ngroups = 2\nn_bar = 4\nschemes = BD\n"
                       "n_trials = 5\ntau_sq_dist = uniform:0:2\n")
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2
        assert "tau_sq_dist=uniform:0:2 draws tau_sq above 1, clamped to 1.0" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["snr_db = nan", "chi = inf", "tau_sq = nan"])
    @pytest.mark.parametrize("scheme", ["BD", "ASYM_BD"])
    def test_non_finite_sweep_value_exit_two_before_header(self, tmp_path, capsys,
                                                         line, scheme):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m = 24\ngroups = 2\nn_bar = 4\nn_trials = 2\n"
                       f"schemes = {scheme}\n{line}\n")
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert out.read_text() == ""
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("n_trails = 3", "unknown keys for a 2D config: n_trails"),
        ("m_e = 4", "unknown keys for a 2D config: m_e"),
        ("n_trials = 0", "n_trials must lie in"),
        ("n_trials = abc", "n_trials must be an integer"),
        ("seed = -1", "seed must lie in"),
        ("chi = 2", "chi must lie in [0, 1]"),
        ("chi = 0.1, 1.5", "chi must lie in [0, 1]"),
        ("chi_dist = uniform:0:2", "chi must lie in [0, 1]"),
        ("tau_sq = -0.1", "tau_sq must lie in"),
        ("tau_sq_dist = uniform:-1:0.5", "tau_sq must lie in"),
        ("theta_max_ms_deg = 100", "theta_max_ms_deg must lie in"),
        ("groups = 0", "groups must lie in [1, inf], got 0"),
        ("m = 2", "m must lie in [4, inf], got 2"),
        ("n_bar = 0", "n_bar must lie in [1, inf], got 0"),
        ("n_bits = 0", "n_bits must lie in [1, inf], got 0"),
        ("schemes = ASYM_BD\nsnr_db = 1000", "snr_db must lie in [-100, 100]"),
        ("spacing = 5", "spacing must lie in (0, 4]"),
        ("arrays = dual@8", "spacing must lie in (0, 4]"),
        ("spacing = 0", "spacing must lie in (0, 4], got 0"),
        ("arrays = dual@0", "spacing must lie in (0, 4], got 0"),
        ("schemes = BD, BD", "schemes lists BD more than once"),
        ("schemes = ASYM_BD, BD, ASYM_BD", "schemes lists ASYM_BD more than once"),
        ("arrays = dual, dual", "arrays lists dual@0.5 more than once"),
        ("arrays = single@0.25, dual, single@0.25",
         "arrays lists single@0.25 more than once"),
        ("arrays = single@0.5\nschemes = BDS", "single-polarized; BDS run on dual"),
        ("arrays = dual, single\nschemes = BD, ASYM_BD", "single-polarized; ASYM_BD run"),
        ("r = 1\nb_bar = 8\nn_bits = 40\nschemes = BD, SWITCH",
         "n_bits with SWITCH needs r > 1"),
    ])
    def test_invalid_value_exit_two_before_header(self, tmp_path, capsys, line,
                                                  message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m = 24\ngroups = 2\nn_bar = 4\nschemes = BD\n"
                       f"n_trials = 2\n{line}\n")
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert out.read_text() == ""
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("line, message", [
        ("groups = abc", "groups must be an integer, got 'abc'"),
        ("spread_deg = x", "spread_deg must be a number, got 'x'"),
        ("n_trials = 2.5", "n_trials must be an integer, got 2.5"),
        ("m = 24.0", "m must be an integer, got 24.0"),
        ("seed = 1, 2", "seed must be an integer, got [1, 2]"),
        ("grid = 1", "grid must be true or false, got 1"),
        ("chi = 0.1, abc", "chi must be a number or a list of them"),
        ("snr_db = ,", "snr_db must be a number or a list of them, got []"),
        ("n_bits = 50, 60.5", "n_bits must be an integer or a list of them"),
        ("schemes = true", "schemes must be text or a list of them, got True"),
        ("arrays = dual@0.25, single@x", "arrays must be dual or single with an "
                                          "optional @<spacing>, got 'single@x'"),
        ("arrays = dul", "arrays must be dual or single"),
        ("arrays = dual@true", "arrays must be dual or single"),
    ])
    def test_wrong_type_exit_two_before_header(self, tmp_path, capsys, line,
                                               message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m = 24\ngroups = 2\nn_bar = 4\nschemes = BD\n"
                       f"n_trials = 2\n{line}\n")
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert out.read_text() == ""
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("lines, message", [
        ("schemes = BD, ASYM_BD, ASYM_BDS", "not ASYM_BD, ASYM_BDS"),
        ("schemes = BD\ndistances = 30, far", "distances must be a number"),
        ("schemes = BD\nb_bar = 16\nr = 3", "unknown keys for a 3D config: b_bar, r"),
        ("schemes = BD\nm_e = 1", "m_e must lie in [2, inf], got 1"),
        ("schemes = BD\nm_a = 1", "m_a must lie in [2, inf], got 1"),
        ("schemes = BD\ndistances = 30, 20000", "distances must lie in (0, 10000]"),
    ])
    def test_3d_config_exit_two_before_header(self, tmp_path, capsys, lines,
                                              message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"mode_3d = true\nn_trials = 2\n{lines}\n")
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert out.read_text() == ""
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("lines, key", [
        # The DE rows would silently run at chi = 0, tau^2 = 0, aligned.
        ("schemes = ASYM_BD\nchi_dist = uniform:0.5:0.5", "chi_dist"),
        ("schemes = BD, ASYM_BDS\ntau_sq_dist = uniform:0.9:0.9", "tau_sq_dist"),
        ("schemes = ASYM_BD\ntheta_max_ms_deg = 0, 40", "theta_max_ms_deg"),
        # The single array's equal-energy gain would follow the first chi.
        ("arrays = dual, single\nchi = 0, 1", "chi"),
        ("arrays = single\nchi_dist = uniform:0:0.5", "chi_dist"),
        # A single array is never mismatched: each theta gave the same row.
        ("arrays = single\ntheta_max_ms_deg = 0, 40", "theta_max_ms_deg"),
        ("arrays = dual, single\ntheta_max_ms_deg = 40", "theta_max_ms_deg"),
        # An n_bits budget sets the CSIT quality; tau^2 was ignored.
        ("n_bits = 20\ntau_sq = 0.7", "tau_sq"),
        ("schemes = ASYM_BD\nn_bits = 20\ntau_sq = 0.9, 0.1", "tau_sq"),
        ("n_bits = 20\ntau_sq_dist = uniform:0:1", "tau_sq_dist"),
        # A distribution draws chi or tau^2 per trial; the fixed value was
        # ignored.
        ("chi = 0.3\nchi_dist = uniform:0:0.5", "chi"),
        ("chi = 0.3, 0.6\nchi_dist = uniform:0:0.5\ngrid = true", "chi"),
        ("tau_sq = 0.5\ntau_sq_dist = uniform:0:1", "tau_sq"),
    ])
    def test_ignored_draws_exit_two_before_header(self, tmp_path, capsys, lines, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"m = 24\ngroups = 2\nn_bar = 4\nn_trials = 2\n{lines}\n")
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert out.read_text() == ""
        err = capsys.readouterr().err
        assert f"remove {key}" in err and "Traceback" not in err

    @pytest.mark.parametrize("scheme", ["BD", "ASYM_BD"])
    def test_budget_at_r1_runs_without_bds(self, tmp_path, scheme):
        # The BDS RVQ bound needs r > 1; a run without BDS does not.
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m = 24\ngroups = 2\nn_bar = 4\nn_trials = 2\n"
                       f"r = 1\nb_bar = 8\nn_bits = 40\nschemes = {scheme}\n")
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_array_token_spacing_is_the_spacing_key(self, tmp_path):
        base = "m = 24\ngroups = 2\nn_bar = 4\nn_trials = 2\nschemes = BD\n"
        outs = []
        for line in ("arrays = dual@0.25", "spacing = 0.25"):
            cfg, out = tmp_path / "c.cfg", tmp_path / f"{len(outs)}.csv"
            cfg.write_text(base + line + "\n")
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[1].startswith("scenario,BD,")
        cfg, out = tmp_path / "c.cfg", tmp_path / "both.csv"
        cfg.write_text(base + "arrays = dual@0.25, single\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert [row.split(",")[0] for row in out.read_text().splitlines()[1:]] == [
            "scenario-dual-ds0.25", "scenario-single-ds0.5"]

    def test_one_distance_runs_one_region(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("mode_3d = true\nm_e = 4\nm_a = 12\ngroups = 2\nn_bar = 4\n"
                       "n_trials = 2\nschemes = BD, BDS\ndistances = 30\n")
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_numerical_error_exit_three_leaves_empty_output(self, tmp_path, capsys,
                                                            monkeypatch):
        # The 10 dB point solves; the 100 dB point's fixed point fails as a
        # solve that hits its iteration cap does. No row of either is written.
        solve = rmt._fixed_points

        def capped(classes, multiplicities, base, z, M, *args):
            if -z < 1e-6:
                raise NonConvergenceError("fixed point not converged after 2000 iterations",
                                          residual=1.0)
            return solve(classes, multiplicities, base, z, M, *args)

        monkeypatch.setattr(rmt, "_fixed_points", capped)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m = 24\ngroups = 2\nn_bar = 4\nb_bar = 4\nschemes = ASYM_BD\n"
                       "snr_db = 10, 100\n")
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert out.read_text() == ""
        err = capsys.readouterr().err
        assert "numerical error" in err and "Traceback" not in err

    @pytest.mark.parametrize("m, n_bar", [(24, 4), (48, 8), (120, 8)])
    def test_fully_loaded_groups_converge_over_the_snr_range(self, tmp_path, m, n_bar):
        # Fully loaded groups (b_bar = n_bar): both DE schemes give a finite
        # row at every 10 dB step of snr_db's range.
        snrs = range(-100, 101, 10)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"m = {m}\ngroups = 2\nn_bar = {n_bar}\nb_bar = {n_bar}\n"
                       f"schemes = ASYM_BD, ASYM_BDS\nsnr_db = {', '.join(map(str, snrs))}\n")
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        with out.open(encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * len(snrs)
        assert all(math.isfinite(float(row["sum_rate"])) for row in rows)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario_id = rerun\nm = 24\ngroups = 2\nn_bar = 4\n"
                       "spread_deg = 20\nsnr_db = 5\nschemes = BD\n"
                       "n_trials = 4\nseed = 3\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


# Three 3 MiB arrays freed after a 4 MiB one: under glibc's adaptive
# defaults the first free sets the mmap threshold to 4 MiB and the trim
# threshold to 8 MiB, so the three come from the heap and, freed together,
# go back to the OS, and every round faults them in afresh.
_FREE_AND_REALLOCATE = """
import io, resource
import numpy as np
from dualpol.cli import run_config
run_config({"scenario_id": "t", "snr_db": 10.0, "schemes": ""}, io.StringIO())
np.ones(1 << 19)
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(3 << 17) for _ in range(3)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(max(faults[1:]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator only")
def test_run_config_process_reuses_freed_memory():
    # After run_config, rounds of multi-megabyte arrays reuse the memory the
    # first round faulted in (each round would fault about 2,300 pages).
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", _FREE_AND_REALLOCATE], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert int(done.stdout) < 100
