"""The benchmark's tracer finds every function it times.

``bench/tracing.py`` wraps the spinforge functions named in ``TRACED`` by
looking them up with ``getattr``; a rename in the package would break a
traced benchmark run without failing any other test.  Nor would a lazy
import: the tracer patches only the spinforge modules already loaded when
it installs, so every module it times must load with ``spinforge.cli``.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", _load_tracing().TRACED)
def test_traced_name_resolves(name):
    module_name, func_name = name.split(".")
    module = importlib.import_module(f"spinforge.{module_name}")
    assert callable(getattr(module, func_name, None)), name


def test_cli_import_loads_every_traced_module():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys; import spinforge.cli; "
         "print(json.dumps(sorted(m for m in sys.modules if m.startswith('spinforge.'))))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    loaded = set(json.loads(done.stdout))
    traced = {f"spinforge.{name.split('.')[0]}" for name in _load_tracing().TRACED}
    assert sorted(traced - loaded) == []


def test_traced_sweep_records_its_samples(tmp_path, monkeypatch):
    # the tracer reads the sample count from the third positional argument,
    # so a signature that moved it would fail every traced sweep
    from spinforge import cli, ghz_ising

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    monkeypatch.setattr(cli, "perturb_sweep",
                        tracer.wrap("ghz_ising.perturb_sweep", ghz_ising.perturb_sweep))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "sweep", "--n", "3", "--x", "0:2:1", "--samples", "5"]) == 0
    spans = [s for s in tracer.spans if s[0] == "ghz_ising.perturb_sweep"]
    assert [s[5] for s in spans] == [{"samples": 5}]
    assert tracing.derive_metrics(tracer.spans, 0)["ghz_ising.samples_per_s"] > 0
