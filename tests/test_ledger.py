"""``docs/ledger.py`` measures criterion 11's four mismatch models on the
Monte Carlo engine, and criterion 6 through the terms of the engine and of
the DE.

These checks load the ledger by path, as it is run, and catch stand-ins
that no longer reach the engine, or a ledger that grows a per-trial loop
of its own again.
"""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

import dualpol.metrics as metrics
import dualpol.rmt as rmt

ROOT = pathlib.Path(__file__).resolve().parents[1]
LEDGER = ROOT / "docs" / "ledger.py"


def _load_ledger(monkeypatch):
    spec = importlib.util.spec_from_file_location("dualpol_ledger", LEDGER)
    module = importlib.util.module_from_spec(spec)
    # The ledger's dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _tilted_runs(monkeypatch, model):
    """Section 11's tilted run at 2 trials and seed 5, on the library
    model and under ``model``'s stand-ins."""
    ledger = _load_ledger(monkeypatch)
    monkeypatch.setattr(ledger, "TRIALS", 2)
    [library] = ledger._run_3d(5, ledger.THETA)
    with ledger._patched(*model):
        [patched] = ledger._run_3d(5, ledger.THETA)
    return ledger.MODES, library, patched


def test_criterion_11_library_stand_ins_change_nothing(monkeypatch):
    """The library model's stand-ins leave the engine's run unchanged bit
    for bit, so the other models differ from it by their draw and CSIT
    alone."""
    modes, want, got = _tilted_runs(monkeypatch, ("independent", "measured"))
    for mode in modes:
        for name in ("trial_sum_rates", "trial_terms", "trial_picks"):
            np.testing.assert_array_equal(getattr(got[mode], name),
                                          getattr(want[mode], name), err_msg=name)


@pytest.mark.parametrize("model", [("coherent", "aligned"), ("coherent", "measured"),
                                   ("independent", "aligned")], ids="-".join)
def test_criterion_11_other_models_reach_the_engine(monkeypatch, model):
    modes, want, got = _tilted_runs(monkeypatch, model)
    for mode in modes:
        assert not np.array_equal(got[mode].trial_sum_rates, want[mode].trial_sum_rates), mode


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
