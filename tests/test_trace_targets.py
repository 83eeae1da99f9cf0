"""The benchmark's tracer names library functions by dotted path.

A refactor that renames or removes one of them would otherwise only break
the traced benchmark run; this test fails first.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("target", tracer.TARGETS)
def test_trace_target_resolves(target):
    owner, attr, original = tracer._resolve(target)
    assert callable(original)
    assert getattr(owner, attr) is original


def test_tracer_installs_and_restores_every_target():
    originals = [tracer._resolve(target)[2] for target in tracer.TARGETS]
    with tracer.Tracer() as t:
        saved = list(t._saved)
        for owner, attr, original in saved:
            assert getattr(owner, attr).__wrapped__ is original
    assert {id(original) for _, _, original in saved} == {id(o) for o in originals}
    for owner, attr, original in saved:
        assert getattr(owner, attr) is original
