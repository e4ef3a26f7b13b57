"""The traced bench run wraps named library functions; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def layer_functions():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYER_FUNCTIONS


@pytest.mark.parametrize("module, function", layer_functions())
def test_traced_layer_function_exists(module, function):
    # Tracer.install getattr's each name with no default, so a missing one
    # breaks `bench/run.py --trace 1` before any workload runs
    fn = getattr(importlib.import_module(f"spinoracle.{module}"), function, None)
    assert callable(fn), f"spinoracle.{module}.{function}"
