"""The benchmark's layer tracer must find every name it wraps.

``perfbench/tracer.py`` wraps library functions by module and attribute
name and refuses to install when one has vanished; these checks catch a
rename or deletion here rather than when the benchmark runs.
"""

import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("layer, module_name, attr", [
    (layer, module_name, attr)
    for layer, names in tracer.TARGETS.items()
    for module_name, attr in names])
def test_traced_name_resolves(layer, module_name, attr):
    tracer._resolve(module_name, attr)


def test_tracer_installs_and_restores():
    originals = [tracer._resolve(m, a)[2]
                 for names in tracer.TARGETS.values() for m, a in names]
    with tracer.Tracer():
        pass
    assert [tracer._resolve(m, a)[2]
            for names in tracer.TARGETS.values() for m, a in names] == originals
