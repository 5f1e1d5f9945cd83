"""The benchmark's trace targets still name functions of the package.

``perfbench/tracer.py`` wraps each (module, qualname) of its ``TARGETS`` to
record per-layer metrics.  A target that no longer resolves is skipped there
and its metric silently reads 0, so every target is resolved here with the
tracer's own lookup, without installing any wrapper.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module, qualname, kind", tracer.TARGETS, ids=[f"{m}.{q}" for m, q, _ in tracer.TARGETS])
def test_trace_target_resolves(module, qualname, kind):
    mod = importlib.import_module(f"{tracer.PACKAGE}.{module}")
    owner, attr = tracer.Tracer._resolve(mod, qualname)
    assert owner is not None, f"{module}.{qualname} is not defined where the tracer looks for it"
    assert callable(owner.__dict__[attr])
