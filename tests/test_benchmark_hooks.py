"""Every program name the benchmark's traced run wraps still exists.

`benchmarks/tracing.py` skips a hook whose target is gone and reports the
metrics that need it as absent, so a renamed or deleted function would
silently shrink the per-layer report. The tracer is read from its file and
never installed here.
"""

import importlib
import os
import types

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "benchmarks", "tracing.py")


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("benchmark_tracing")
    module.__file__ = TRACING
    with open(TRACING, encoding="utf-8") as fh:
        exec(compile(fh.read(), TRACING, "exec"), module.__dict__)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module_name, attr, span", tracing.HOOKS,
                         ids=[f"{m}.{a}" for m, a, _ in tracing.HOOKS])
def test_hook_target_resolves(module_name, attr, span):
    importlib.import_module(module_name)
    owner, leaf = tracing._resolve(module_name, attr)
    assert callable(getattr(owner, leaf, None)), f"{module_name}.{attr} (span {span}) is gone"
