"""Every bundled preset reproduces its pinned CSV.

``tests/data/preset_<name>.csv`` holds each preset's output at seed 1 with
10 trials, as written by

    dualpol preset <name> --out <name>.cfg
    dualpol run --config <name>.cfg --seed 1 --trials 10 --out tests/data/preset_<name>.csv

Key columns must match exactly and ``sum_rate``/``stderr`` to the CSV's 10
significant digits. One unit in the 10th digit is allowed: a float
re-association of order 1e-12 can flip it, and so can BLAS rounding.
Re-pin a file only with a change that is meant to move the numbers.
"""

import csv
import io
import math
import os

import pytest

from dualpol.cli import list_presets, preset, run_config

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
VALUE_COLUMNS = ("sum_rate", "stderr")


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _same_10_digits(a, b):
    x, y = float(a), float(b)
    if x == y:
        return True
    scale = max(abs(x), abs(y))
    return abs(x - y) <= 10.0 ** (math.floor(math.log10(scale)) - 9) * 1.000001


def test_every_preset_is_pinned():
    pinned = sorted(f[len("preset_"):-len(".csv")] for f in os.listdir(DATA)
                    if f.startswith("preset_"))
    assert pinned == sorted(list_presets())


@pytest.mark.parametrize("name", list_presets())
def test_preset_matches_pinned_csv(name):
    out = io.StringIO()
    run_config(dict(preset(name), n_trials=10, seed=1), out)
    with open(os.path.join(DATA, f"preset_{name}.csv"), encoding="utf-8") as fh:
        want = _rows(fh.read())
    got = _rows(out.getvalue())
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        keys = [c for c in ref if c not in VALUE_COLUMNS]
        assert [row[c] for c in keys] == [ref[c] for c in keys]
        for c in VALUE_COLUMNS:
            assert _same_10_digits(row[c], ref[c]), (c, row, ref)
