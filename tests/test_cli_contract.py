"""The `dualpol run` contract on any config text.

Configs are drawn from every key of ``cli.KEYS`` and its edge values:
wrong types, values at and beyond the ends of each range, non-finite
numbers, lists, unknown keys and malformed lines. Whatever the text, `main`
exits with 0, 2 or 3 and prints no traceback. A run that exits 0 writes the
header and finite rows; any other run leaves its output empty. The draws
stay small (m <= 24, at most 3 trials) to keep the test fast.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from dualpol.cli import CSV_COLUMNS, KEYS, main

EDGES = {
    "scenario_id": ["t", "7", "a b"],
    "schemes": ["BD", "BDS", "SWITCH", "SWITCH_RAW", "ASYM_BD", "ASYM_BDS",
                "BD, BDS", "BD, ASYM_BD, ASYM_BDS", "BDS, SWITCH, SWITCH_RAW",
                "MRT", "", "true"],
    "n_trials": [-1, 0, 1, 3, 2.5, "abc", "1, 2"],
    "seed": [-1, 0, 1, 2 ** 40],
    "grid": ["true", "false", 1],
    "mode_3d": ["true", "false", "yes"],
    "snr_db": [-100, -10, 0, 40, 70, 100, 101, "nan", "inf", "0, 20", ",", "x"],
    "chi": [-0.1, 0, 0.5, 1, 1.5, "nan", "0, 1", "0.1, abc"],
    "tau_sq": [-0.1, 0, 0.1, 1, 1.5, "inf", "0, 0.5, 2"],
    "n_bits": [-5, 0, 1, 10, 40, 2.5, "20, 40"],
    "theta_max_ms_deg": [-1, 0, 39.6, 90, 91, "0, 39.6"],
    "chi_dist": ["uniform:0:0.5", "uniform:0.5:0", "uniform:0:2", "uniform:a:b",
                 "normal:0:1", 3],
    "tau_sq_dist": ["uniform:0:1", "uniform:-1:0", "uniform:0:inf", "uniform:0:2"],
    "groups": [-1, 0, 1, 2, 3],
    "n_bar": [-2, 0, 1, 2, 3, 4],
    "spacing": [-0.5, 0, 0.25, 0.5, 4, 4.5, "nan"],
    "spread_deg": [-5, 0, 1, 15, 89, 90],
    "m": [-4, 0, 2, 4, 5, 8, 16, 24, 24.0],
    "b_bar": [-1, 0, 1, 2, 4, 5, 8, 16],
    "r": [0, 1, 2, 3, 8],
    "arrays": ["dual", "single", "dual@0.25", "single@0.5", "dual, single",
               "dual@x", "dual@-1", "dual@5", "single@nan", "bogus"],
    "m_e": [0, 1, 2, 4],
    "m_a": [0, 1, 2, 8, 12],
    "height": [-1, 0, 60, 1e4, 2e4, "nan"],
    "distances": [-10, 0, 30, "30, 60", "30, 30", 1e4, "nan"],
    "n_trails": [3],
}
MALFORMED = ["just words", "= 3"]
BASES = [
    "m = 16\ngroups = 2\nn_bar = 4\nn_trials = 2\nschemes = BD\n",
    "mode_3d = true\nm_e = 4\nm_a = 8\ngroups = 2\nn_bar = 2\nn_trials = 2\n"
    "schemes = BD\ndistances = 30, 60\n",
]

line = st.sampled_from(sorted(EDGES)).flatmap(
    lambda key: st.sampled_from(EDGES[key]).map(lambda value: f"{key} = {value}"))
config_text = st.builds(
    lambda base, lines: base + "".join(f"{text}\n" for text in lines),
    st.sampled_from(BASES), st.lists(line | st.sampled_from(MALFORMED), max_size=4))


def test_edges_cover_every_key():
    assert set(KEYS) <= set(EDGES)


def _run(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "c.cfg"), os.path.join(tmp, "o.csv")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--config", cfg, "--out", out])
        written = ""
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                written = fh.read()
    return code, err.getvalue(), written


@settings(max_examples=800, deadline=None)
@given(text=config_text)
def test_any_config_exits_cleanly(text):
    code, err, written = _run(text)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code != 0:
        assert written == ""
        return
    rows = written.splitlines()
    assert rows[0] == ",".join(CSV_COLUMNS)
    for row in rows[1:]:
        assert "nan" not in row and "inf" not in row, row


def test_quadrature_past_its_byte_bound_exits_three():
    # Every value lies inside KEYS, but the widest spread on 499 lags at
    # four wavelengths needs a rule finer than corrstats._MAX_BYTES allows:
    # it used to allocate 1.95 GiB for one level and die with a traceback.
    code, err, written = _run("m = 1000\nspacing = 4\nspread_deg = 89\ngroups = 2\n"
                              "n_bar = 2\nn_trials = 1\nschemes = BD\n")
    assert code == 3, err
    assert "Traceback" not in err and "quadrature" in err
    assert written == ""


def test_odd_b_bar_on_a_dual_polarized_array_exits_two():
    # The deterministic equivalents used to die reshaping b_bar // 2
    # preprocessor columns per polarization against b_bar.
    code, err, written = _run("m = 16\ngroups = 2\nn_bar = 4\nb_bar = 5\n"
                              "schemes = BD, ASYM_BD\n")
    assert code == 2, err
    assert "Traceback" not in err and "b_bar" in err
    assert written == ""
