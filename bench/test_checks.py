"""Tests of the benchmark itself: every artifact check accepts a correct
artifact and rejects a corrupted one, the span arithmetic is right, and the
metric lists agree with BENCHMARK.json.

Run from the root of the repository::

    python3 -m pytest bench/test_checks.py

The artifacts are made by the real CLI on small instances, so the checks
are exercised on the same file formats the workloads produce.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path.insert(0, str(REPO / "src"))

import tracing  # noqa: E402
import workloads as w  # noqa: E402
from spinforge.cli import main as cli_main  # noqa: E402


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    commands = [
        ["design", "pst", "--n", "8", "--out", "pst8.json"],
        ["simulate", "ghz", "--chain", "pst8.json", "--check", "--out", "ghz4.json"],
        ["simulate", "sweep", "--n", "4", "--x", "0:3:1", "--samples", "50", "--out", "sweep.csv"],
        ["design", "gamma", "--n", "6", "--from", "0", "--to", "0.5", "--out", "zy6.json"],
        ["design", "wstate", "--n", "9", "--out", "xx9.json"],
        ["simulate", "ghz", "--chain", "zy6.json", "--out", "ghz6.json"],
        ["simulate", "clone", "--n-clones", "3", "--profile", "2,1,1", "--out", "clone3.json"],
    ]
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for argv in commands:
            assert cli_main(argv + ["--seed", "3"]) == 0, argv
    finally:
        os.chdir(cwd)
    return out


def _edit_json(src: Path, dst: Path, edit) -> Path:
    payload = json.loads(src.read_text())
    edit(payload)
    dst.write_text(json.dumps(payload))
    return dst


def _scale_coupling(index: int, factor: float = 1.01):
    def edit(payload):
        payload["couplings"][index] *= factor
    return edit


def _rejects(check, *args, **kwargs) -> None:
    with pytest.raises(w.CheckError):
        check(*args, **kwargs)


def test_pst_check(artifacts, tmp_path):
    w.check_pst_document(artifacts / "pst8.json", 8)
    bad = _edit_json(artifacts / "pst8.json", tmp_path / "bad.json", _scale_coupling(3))
    _rejects(w.check_pst_document, bad, 8)
    _rejects(w.check_pst_document, artifacts / "pst8.json", 10)


def test_ghz_report_check(artifacts, tmp_path):
    w.check_ghz_report(artifacts / "ghz4.json", 4, 1 - 1e-6, 1 + 1e-6, max_mirror_deviation=1e-9)

    def low_overlap(payload):
        payload["overlap"] = 0.99

    def bad_mirror(payload):
        payload["mirror_deviation"] = 1e-6

    for edit in (low_overlap, bad_mirror):
        bad = _edit_json(artifacts / "ghz4.json", tmp_path / "bad.json", edit)
        _rejects(w.check_ghz_report, bad, 4, 1 - 1e-6, 1 + 1e-6, max_mirror_deviation=1e-9)


def test_sweep_check(artifacts, tmp_path):
    xs = [0.0, 1.0, 2.0, 3.0]
    w.check_sweep(artifacts / "sweep.csv", xs, 50)
    lines = (artifacts / "sweep.csv").read_text().splitlines()

    def corrupt(row: int, column: int, value: str) -> Path:
        rows = [line.split(",") for line in lines]
        rows[row][column] = value
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")
        return path

    _rejects(w.check_sweep, corrupt(1, 2, "0.001"), xs, 50)   # spread at x = 0
    _rejects(w.check_sweep, corrupt(1, 1, "0.999"), xs, 50)   # x = 0 mean below 1
    _rejects(w.check_sweep, corrupt(4, 1, "0.9999"), xs, 50)  # mean rises with x
    _rejects(w.check_sweep, corrupt(3, 1, "1.01"), xs, 50)    # mean above 1
    _rejects(w.check_sweep, artifacts / "sweep.csv", xs, 1000)


def test_gamma_check(artifacts, tmp_path):
    w.check_gamma_document(artifacts / "zy6.json", 6, 0.5)
    _rejects(w.check_gamma_document, artifacts / "zy6.json", 6, 0.7)
    bad = _edit_json(artifacts / "zy6.json", tmp_path / "bad.json", _scale_coupling(1))
    _rejects(w.check_gamma_document, bad, 6, 0.5)

    def shift_diag(payload):
        payload["fields"][0] += 1e-3

    bad = _edit_json(artifacts / "zy6.json", tmp_path / "bad.json", shift_diag)
    _rejects(w.check_gamma_document, bad, 6, 0.5)


def test_wstate_check(artifacts, tmp_path):
    w.check_wstate_document(artifacts / "xx9.json", 9)
    couplings = json.loads((artifacts / "xx9.json").read_text())["couplings"]
    largest = int(np.argmax(np.abs(couplings)))
    # the 0.999 floor lets a 1% error on this short chain through (0.9996);
    # 2% on its largest coupling drops the overlap to 0.998
    bad = _edit_json(artifacts / "xx9.json", tmp_path / "bad.json", _scale_coupling(largest, 1.02))
    _rejects(w.check_wstate_document, bad, 9)


def test_zy_ghz_report_check(artifacts, tmp_path):
    w.check_ghz_report(artifacts / "ghz6.json", 6, 0.999, 1 + 1e-12)

    def above_one(payload):
        payload["overlap"] = 1.0 + 1e-9

    bad = _edit_json(artifacts / "ghz6.json", tmp_path / "bad.json", above_one)
    _rejects(w.check_ghz_report, bad, 6, 0.999, 1 + 1e-12)


def test_clone_check(artifacts, tmp_path):
    w.check_clone_report(artifacts / "clone3.json", [2, 1, 1], "compressed")
    _rejects(w.check_clone_report, artifacts / "clone3.json", [1, 1, 1], "compressed")
    _rejects(w.check_clone_report, artifacts / "clone3.json", [2, 1, 1], "brute_force")

    def shift_fidelity(payload):
        payload["fidelities"][1] += 1e-8

    def bad_residual(payload):
        payload["max_stage_residual"] = 2e-6

    for edit in (shift_fidelity, bad_residual):
        bad = _edit_json(artifacts / "clone3.json", tmp_path / "bad.json", edit)
        _rejects(w.check_clone_report, bad, [2, 1, 1], "compressed")


def test_expected_fidelities_symmetric_limit():
    # equal weights give (2N + 1) / (3N) for every clone
    for n in (1, 3, 7):
        assert np.allclose(w.expected_fidelities([1.0] * n), (2 * n + 1) / (3 * n))


def test_self_time_subtracts_covered_child_time():
    spans = [
        ["a", 0.0, 10.0, -1, 0, None],
        ["b", 1.0, 4.0, 0, 0, None],
        ["b", 3.0, 6.0, 0, 0, None],   # overlaps the first child: union is 5
        ["numerics.solve_affine", 1.5, 2.0, 1, 0, None],
    ]
    children = [(s[1], s[2]) for s in spans if s[3] == 0]
    assert tracing._covered(children) == pytest.approx(5.0)
    metrics = tracing.derive_metrics(spans, accepted_steps=0)
    assert metrics["numerics.solve_affine.calls"] == 1
    assert metrics["isoflow.direction_solves"] == 0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in tracing.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u, _ in tracing.PER_LAYER]
    assert [m["better"] for m in spec["per_layer"]] == [b for _, _, b in tracing.PER_LAYER]
    assert [x["name"] for x in spec["workloads"]] == list(w.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}


def test_run_refuses_a_directory_without_the_source_tree(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "clone-asym", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
