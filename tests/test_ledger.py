"""``docs/ledger.py`` measures criterion 11 through the engine's oracle.

The ledger loads ``tests/reference.py`` by path; these checks load the
ledger the same way and catch a break in that import, or a ledger that
grows a per-trial loop of its own again.
"""

import importlib.util
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
LEDGER = ROOT / "docs" / "ledger.py"
REFERENCE = ROOT / "tests" / "reference.py"


def _load_ledger(monkeypatch):
    spec = importlib.util.spec_from_file_location("dualpol_ledger", LEDGER)
    module = importlib.util.module_from_spec(spec)
    # The ledger's dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_criterion_11_oracle_is_reference_paired(monkeypatch):
    ledger = _load_ledger(monkeypatch)
    oracle = ledger.reference_paired
    assert pathlib.Path(oracle.__code__.co_filename).resolve() == REFERENCE
    assert oracle.__name__ == "reference_paired"

    stream_bases = []

    def spy(*args, **kwargs):
        stream_bases.append(kwargs["stream_base"])
        return oracle(*args, **kwargs)

    monkeypatch.setattr(ledger, "reference_paired", spy)
    monkeypatch.setattr(ledger, "TRIALS", 2)
    got = ledger._run_3d_per_realization(ledger.THETA, 5)
    want = ledger._run_3d(ledger.THETA, 5)
    assert stream_bases == [0, 2, 4]
    for mode in ledger.MODES:
        np.testing.assert_allclose(got[mode].trial_sum_rates,
                                   want[mode].trial_sum_rates, rtol=1e-12, atol=0.0)
