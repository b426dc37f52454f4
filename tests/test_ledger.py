"""``docs/ledger.py`` measures criterion 11 through the engine's oracle,
and criterion 6 through the terms of the engine and of the DE.

The ledger loads ``tests/reference.py`` by path; these checks load the
ledger the same way and catch a break in that import, or a ledger that
grows a per-trial loop of its own again.
"""

import importlib.util
import pathlib
import sys

import numpy as np

import dualpol.metrics as metrics
import dualpol.rmt as rmt

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
    [want] = ledger._run_3d(5, ledger.THETA)
    assert stream_bases == [0, 2, 4]
    for mode in ledger.MODES:
        np.testing.assert_allclose(got[mode].trial_sum_rates,
                                   want[mode].trial_sum_rates, rtol=1e-12, atol=0.0)


def test_criterion_6_terms_come_from_run_paired(monkeypatch):
    """Section 6's MC terms are ``McSummary.terms`` of ``run_paired`` calls,
    not a per-trial loop or a SINR split of the ledger's own. One
    preprocessor build per size serves every MC and DE call."""
    ledger = _load_ledger(monkeypatch)
    for name in ("_mc_terms", "_de_terms", "draw_trial", "sinr_report"):
        assert not hasattr(ledger, name), name

    builds = []

    def counted(build):
        def spy(scenario):
            builds.append(scenario.M)
            return build(scenario)
        return spy

    for module in (ledger, metrics, rmt):
        monkeypatch.setattr(module, "build_preprocessors",
                            counted(module.build_preprocessors))

    run_paired, summaries = ledger.run_paired, []

    def spy(scenario, modes, n_trials, seed, points, **kwargs):
        results = run_paired(scenario, modes, 2, seed, points, **kwargs)
        summaries.extend(result[mode] for result in results for mode in modes)
        return results

    monkeypatch.setattr(ledger, "run_paired", spy)
    out = []
    ledger.section_6(out)
    # Two sizes x two schemes x two SNRs, at perfect CSIT and at tau^2 = 0.1.
    assert len(summaries) == 16
    assert builds == [120, 480]
    text = "\n".join(out)
    for mc in summaries:
        signal, intra, cross, inter = mc.terms
        for value in (signal, intra, cross + inter):
            assert f"| {value:.3g} / " in text
