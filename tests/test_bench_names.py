"""The benchmark's tracer finds every function it times.

``bench/tracing.py`` wraps the spinforge functions named in ``TRACED`` by
looking them up with ``getattr``; a rename in the package would break a
traced benchmark run without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    module_name, func_name = name.split(".")
    module = importlib.import_module(f"spinforge.{module_name}")
    assert callable(getattr(module, func_name, None)), name
