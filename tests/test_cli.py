import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from spinforge import THREAD_VARIABLES, cli
from spinforge.chainio import (document_from_gamma, document_from_ising,
                               document_from_pst, make_provenance, read_document,
                               write_document)
from spinforge.ghz_ising import ising_from_pst
from spinforge.isoflow import gamma_seed
from spinforge.pst import standard_couplings


def run(tmp_path, *args):
    """Invoke the entry point from inside tmp_path and hand back the code."""
    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        return cli.main(list(args))
    finally:
        os.chdir(old)


class TestDesignPst:
    def test_writes_verified_document(self, tmp_path):
        out = tmp_path / "pst8.json"
        code = run(tmp_path, "design", "pst", "--n", "8", "--out", str(out))
        assert code == 0
        doc = read_document(out)
        assert doc.kind == "pst"
        assert np.allclose(doc.couplings, standard_couplings(8).couplings)
        assert doc.provenance["command"].startswith("spinforge design pst")

    def test_default_out_and_trace(self, tmp_path):
        assert run(tmp_path, "design", "pst", "--n", "6") == 0
        assert (tmp_path / "pst6.json").exists()
        trace = (tmp_path / "pst6.trace.csv").read_text().splitlines()
        assert trace[0] == "check,residual"
        assert trace[1].startswith("mirror,")
        assert float(trace[1].split(",")[1]) < 1e-9

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "chain.json"
        run(tmp_path, "design", "pst", "--n", "10", "--out", str(out))
        first = out.read_bytes()
        run(tmp_path, "design", "pst", "--n", "10", "--out", str(out))
        assert out.read_bytes() == first

    def test_bad_size_is_usage_error(self, tmp_path, capsys):
        assert run(tmp_path, "design", "pst", "--n", "1") == 1
        assert "error" in capsys.readouterr().err


class TestDesignGamma:
    def test_writes_zy_document(self, tmp_path):
        out = tmp_path / "zy6.json"
        code = run(tmp_path, "design", "gamma", "--n", "6", "--from", "0",
                   "--to", "0.3", "--out", str(out))
        assert code == 0
        doc = read_document(out)
        assert doc.kind == "zy"
        assert doc.gamma == pytest.approx(0.3)
        header = (tmp_path / "zy6.trace.csv").read_text().splitlines()[0]
        assert header == "step,gamma,sv_drift,structure_residual"

    def test_step_flag_is_unrecognised(self, tmp_path, capsys):
        # continuation sizes its own steps
        code = run(tmp_path, "design", "gamma", "--n", "6", "--from", "0",
                   "--to", "0.3", "--step", "0.05")
        assert code == 1
        assert "unrecognized arguments: --step 0.05" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_mode_flag_is_unrecognised(self, tmp_path, capsys):
        code = run(tmp_path, "design", "gamma", "--n", "6", "--from", "0",
                   "--to", "0.3", "--mode", "unitary")
        assert code == 1
        assert "unrecognized arguments: --mode unitary" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_stall_exits_two_with_trace(self, tmp_path, capsys):
        out = tmp_path / "zy6.json"
        code = run(tmp_path, "design", "gamma", "--n", "6", "--from", "0",
                   "--to", "0.5", "--max-steps", "5", "--out", str(out))
        assert code == 2
        assert not out.exists()
        trace = (tmp_path / "zy6.trace.csv").read_text().splitlines()
        assert trace[0] == "step,gamma,sv_drift,structure_residual"
        assert len(trace) > 1
        err = capsys.readouterr().err
        assert "gamma continuation: corrector budget of 5 iterations spent" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-steps", "0", "max_steps must be at least 1"),
        ("--max-steps", "-1", "max_steps must be at least 1"),
    ])
    def test_bad_step_budget_is_usage_error(self, tmp_path, capsys, flag,
                                            value, message):
        code = run(tmp_path, "design", "gamma", "--n", "6", "--from", "0",
                   "--to", "0.5", flag, value)
        assert code == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_single_site_fails_before_integrating(self, tmp_path, capsys):
        code = run(tmp_path, "design", "gamma", "--n", "1", "--from", "0",
                   "--to", "0.5")
        assert code == 1
        assert "two sites" in capsys.readouterr().err
        assert not (tmp_path / "zy1.json").exists()
        assert not (tmp_path / "zy1.trace.csv").exists()


class TestDesignWstate:
    def test_writes_xx_document(self, tmp_path):
        out = tmp_path / "xx5.json"
        code = run(tmp_path, "design", "wstate", "--n", "5", "--out", str(out))
        assert code == 0
        doc = read_document(out)
        assert doc.kind == "xx"
        assert doc.n == 5
        assert np.allclose(doc.fields, 0.0)
        trace = (tmp_path / "xx5.trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,chi,delta,off_band_residual"

    def test_stall_exits_two_with_trace(self, tmp_path, capsys):
        code = run(tmp_path, "design", "wstate", "--n", "9", "--budget", "3")
        assert code == 2
        assert "did not converge: budget" in capsys.readouterr().err
        assert not (tmp_path / "xx9.json").exists()
        rows = (tmp_path / "xx9.trace.csv").read_text().splitlines()
        assert rows[0] == "iteration,chi,delta,off_band_residual"
        assert [int(row.split(",")[0]) for row in rows[1:]] == [0, 1, 2, 3]

    def test_trace_ends_at_reported_chi(self, tmp_path):
        assert run(tmp_path, "design", "wstate", "--n", "9") == 0
        rows = (tmp_path / "xx9.trace.csv").read_text().splitlines()
        assert float(rows[-1].split(",")[1]) == pytest.approx(1.0, abs=1e-12)

    def test_size_must_fit_the_pattern(self, tmp_path, capsys):
        for n in ("7", "1", "-3"):
            assert run(tmp_path, "design", "wstate", "--n", n) == 1
            err = capsys.readouterr().err
            assert f"needs n = 4k + 1 sites with k >= 1, got {n}" in err
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tolerance_is_usage_error(self, tmp_path, tol):
        code = run(tmp_path, "design", "wstate", "--n", "9", "--tol", tol,
                   "--budget", "50")
        assert code == 1
        assert not (tmp_path / "xx9.trace.csv").exists()
        assert not (tmp_path / "xx9.json").exists()

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_bad_budget_is_usage_error(self, tmp_path, capsys, budget):
        code = run(tmp_path, "design", "wstate", "--n", "9", "--budget", budget)
        assert code == 1
        assert "budget must be at least 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_source_must_be_centre(self, tmp_path):
        assert run(tmp_path, "design", "wstate", "--n", "5",
                   "--source", "2") == 1


PST_DESIGN = ("pst", "--n", "8")
GAMMA_DESIGN = ("gamma", "--n", "4", "--from", "0", "--to", "0.1")


class TestSimulateGhz:
    def make_pst_doc(self, tmp_path, n=8):
        path = tmp_path / "chain.json"
        run(tmp_path, "design", "pst", "--n", str(n), "--out", str(path))
        return path

    def test_estimator_report(self, tmp_path):
        chain = self.make_pst_doc(tmp_path)
        out = tmp_path / "report.json"
        code = run(tmp_path, "simulate", "ghz", "--chain", str(chain),
                   "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["overlap"] == pytest.approx(1.0)
        assert payload["method"] == "exact"
        assert "mirror_deviation" not in payload

    def test_twenty_one_site_zy_document(self, tmp_path):
        # past the reach of a dense evolution; the overlap is exact at any n
        chain, out = tmp_path / "zy21.json", tmp_path / "report.json"
        assert run(tmp_path, "design", "gamma", "--n", "21", "--from", "0",
                   "--to", "0.7", "--out", str(chain)) == 0
        assert run(tmp_path, "simulate", "ghz", "--chain", str(chain),
                   "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 21 and payload["method"] == "exact"
        assert 1 - 1e-11 <= payload["overlap"] <= 1.0

    @pytest.mark.parametrize("gamma, message", [
        (0.5, "one-particle map overflows"),
        (1.0, "the upper band must be finite"),
    ])
    def test_overflowing_zy_document_is_usage_error(self, tmp_path, capsys,
                                                    gamma, message):
        # finite entries whose bands or phases overflow end in a named
        # error, never in a report holding "overlap": NaN, which is not JSON
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({
            "schema_version": 1, "kind": "zy", "n": 2, "couplings": [1e308],
            "fields": [1e308, 1e308], "gamma": gamma, "provenance": {}}))
        out = tmp_path / "report.json"
        code = run(tmp_path, "simulate", "ghz", "--chain", str(chain),
                   "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert f"spinforge simulate ghz: error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_check_adds_mirror_deviation(self, tmp_path):
        chain = self.make_pst_doc(tmp_path)
        out = tmp_path / "report.json"
        code = run(tmp_path, "simulate", "ghz", "--chain", str(chain),
                   "--check", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["mirror_deviation"] < 1e-9

    def test_detuned_chain_breaches(self, tmp_path, capsys):
        chain = ising_from_pst(standard_couplings(8))
        doc = document_from_ising(
            chain, {"command": "handmade", "seed": None, "tolerances": {}})
        broken = tmp_path / "broken.json"
        write_document(
            document_from_ising(
                type(chain)(fields=chain.fields * 1.05,
                            couplings=chain.couplings),
                doc.provenance),
            broken)
        out = tmp_path / "report.json"
        code = run(tmp_path, "simulate", "ghz", "--chain", str(broken),
                   "--check", "--out", str(out))
        assert code == 3
        assert out.exists()
        assert "mirror" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run(tmp_path, "simulate", "ghz", "--chain", "nope.json") == 1

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("design, field", [
        (PST_DESIGN, "couplings"),
        (GAMMA_DESIGN, "fields"),
        (GAMMA_DESIGN, "couplings"),
    ])
    def test_non_finite_document_is_usage_error(self, tmp_path, capsys,
                                                design, field, value):
        chain = tmp_path / "chain.json"
        assert run(tmp_path, "design", *design, "--out", str(chain)) == 0
        payload = json.loads(chain.read_text())
        payload[field][1] = value
        chain.write_text(json.dumps(payload).replace(f'"{value}"', value))
        out = tmp_path / "report.json"
        code = run(tmp_path, "simulate", "ghz", "--chain", str(chain),
                   "--out", str(out))
        assert code == 1
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("design, change, field", [
        (GAMMA_DESIGN, {"gamma": "0.5"}, "gamma"),
        (PST_DESIGN, {"provenance": {"tolerances": {"mirror": "x"}}}, "mirror"),
        (PST_DESIGN, {"provenance": {"tolerances": [1]}}, "tolerances"),
        (PST_DESIGN, {"provenance": {"tolerances": None}}, "tolerances"),
        (PST_DESIGN, {"fields": {"a": 1}}, "fields"),
        (PST_DESIGN, {"n": 8.7}, "n"),
    ])
    def test_malformed_document_is_usage_error(self, tmp_path, capsys,
                                               design, change, field):
        chain = tmp_path / "chain.json"
        assert run(tmp_path, "design", *design, "--out", str(chain)) == 0
        payload = json.loads(chain.read_text())
        payload.update(change)
        chain.write_text(json.dumps(payload))
        out = tmp_path / "report.json"
        code = run(tmp_path, "simulate", "ghz", "--chain", str(chain),
                   "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and field in err
        assert "Traceback" not in err
        assert not out.exists()


class TestSimulateSweep:
    def test_csv_shape_and_exact_zero_point(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(tmp_path, "simulate", "sweep", "--n", "3", "--x", "0:2:1",
                   "--samples", "5", "--seed", "7", "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "x_percent,mean,stddev,samples"
        assert len(rows) == 4
        zero = rows[1].split(",")
        assert zero[0] == "0.0"
        assert zero[1] == "1.0"
        assert zero[3] == "5"

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "sweep.csv"
        args = ("simulate", "sweep", "--n", "3", "--x", "0:2:1",
                "--samples", "4", "--seed", "11", "--out", str(out))
        run(tmp_path, *args)
        first = out.read_bytes()
        run(tmp_path, *args)
        assert out.read_bytes() == first

    def test_single_point_range(self, tmp_path):
        out = tmp_path / "one.csv"
        code = run(tmp_path, "simulate", "sweep", "--n", "3", "--x", "2",
                   "--samples", "3", "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 2

    def test_bad_range_is_usage_error(self, tmp_path):
        assert run(tmp_path, "simulate", "sweep", "--n", "3", "--x", "5:1:1",
                   "--samples", "2") == 1

    @pytest.mark.parametrize("x", ["0:inf:1", "nan", "0:1:nan", "0:1e308:1e-308"])
    def test_non_finite_range_is_usage_error(self, tmp_path, capsys, x):
        code = run(tmp_path, "simulate", "sweep", "--n", "3", "--x", x,
                   "--samples", "2")
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_over_long_range_is_refused_before_listing(self, tmp_path, capsys):
        # read first, so a build without the limit fails here instead of
        # listing 1e18 points
        limit = cli.SWEEP_MAX_POINTS
        code = run(tmp_path, "simulate", "sweep", "--n", "3", "--x", "0:1e9:1e-9",
                   "--samples", "1")
        assert code == 1
        err = capsys.readouterr().err
        assert "has 1000000000000000000 points" in err
        assert f"more than the {limit}" in err
        assert list(tmp_path.iterdir()) == []

    def test_range_at_the_row_limit_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "SWEEP_MAX_POINTS", 3)
        assert run(tmp_path, "simulate", "sweep", "--n", "3", "--x", "0:3:1",
                   "--samples", "1") == 1
        assert "has 4 points" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert run(tmp_path, "simulate", "sweep", "--n", "3", "--x", "0:2:1",
                   "--samples", "1") == 0
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 4

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_no_qubits_is_usage_error(self, tmp_path, capsys, n):
        code = run(tmp_path, "simulate", "sweep", "--n", n, "--x", "1",
                   "--samples", "2")
        assert code == 1
        assert "need at least one qubit" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unallocatable_table_is_usage_error(self, tmp_path, capsys):
        # 8 PB of estimates lies beyond the address space, so the request
        # fails at once without touching memory
        code = run(tmp_path, "simulate", "sweep", "--n", "3", "--x", "1",
                   "--samples", "1000000000000000")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("spinforge simulate sweep: error: ")
        assert "1 strengths x 1000000000000000 samples" in err
        assert list(tmp_path.iterdir()) == []


class TestSimulateClone:
    def test_symmetric_pair(self, tmp_path):
        out = tmp_path / "clone2.json"
        code = run(tmp_path, "simulate", "clone", "--n-clones", "2",
                   "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n_clones"] == 2
        assert payload["fidelities"] == pytest.approx([5 / 6, 5 / 6])
        assert payload["method"] == "compressed"
        assert payload["spread"] == pytest.approx(0.0, abs=1e-12)

    def test_explicit_profile(self, tmp_path):
        out = tmp_path / "clone3.json"
        code = run(tmp_path, "simulate", "clone", "--n-clones", "3",
                   "--profile", "2,1,1", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["fidelities"] == pytest.approx(
            [29 / 33, 47 / 66, 47 / 66])

    def test_profile_length_mismatch(self, tmp_path):
        assert run(tmp_path, "simulate", "clone", "--n-clones", "2",
                   "--profile", "1,1,1") == 1

    def test_impossible_stage_tolerance_breaches(self, tmp_path, capsys):
        code = run(tmp_path, "simulate", "clone", "--n-clones", "2",
                   "--stage-tol", "1e-20")
        assert code == 3
        assert "stage" in capsys.readouterr().err

    @pytest.mark.parametrize("n_clones, profile",
                             [(2, "symmetric"), (6, "3,1,2,1,1,2")])
    def test_bad_stage_tolerance_is_usage_error(self, tmp_path, capsys,
                                                n_clones, profile):
        code = run(tmp_path, "simulate", "clone", "--n-clones", str(n_clones),
                   "--profile", profile, "--stage-tol", "-1")
        assert code == 1
        assert "tol" in capsys.readouterr().err
        assert not (tmp_path / "clone_report.json").exists()

    def test_three_clones_off_centre_take_a_ladder(self, tmp_path):
        out = tmp_path / "clone3.json"
        code = run(tmp_path, "simulate", "clone", "--n-clones", "3",
                   "--offset", "0", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["fidelities"] == pytest.approx([7 / 9] * 3, abs=1e-12)

    def test_three_clones_with_a_zero_weight_exit_two(self, tmp_path, capsys):
        code = run(tmp_path, "simulate", "clone", "--n-clones", "3",
                   "--profile", "0,1,1")
        assert code == 2
        assert "no chain on any candidate ladder" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("profile", ["nan,1,1", "inf,1,1", "1,-inf,1"])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_weights_are_usage_errors(self, tmp_path, capsys,
                                                 profile):
        code = run(tmp_path, "simulate", "clone", "--n-clones", "3",
                   "--profile", profile)
        assert code == 1
        assert "weights must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    def test_huge_weight_matches_a_zero_weight(self, tmp_path):
        fidelities = []
        for profile in ("1,1e308", "0,1"):
            out = tmp_path / f"clone_{profile}.json"
            code = run(tmp_path, "simulate", "clone", "--n-clones", "2",
                       "--profile", profile, "--out", str(out))
            assert code == 0
            fidelities.append(json.loads(out.read_text())["fidelities"])
        assert fidelities[0] == fidelities[1]

    def test_single_clone_is_usage_error(self, tmp_path, capsys):
        code = run(tmp_path, "simulate", "clone", "--n-clones", "1")
        assert code == 1
        assert "cloning needs at least two clones" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unreachable_pattern_fails_fast(self, tmp_path, capsys):
        start = time.perf_counter()
        code = run(tmp_path, "simulate", "clone", "--n-clones", "6",
                   "--profile", "1,0,1,1,1,1")
        elapsed = time.perf_counter() - start
        assert code == 2
        err = capsys.readouterr().err
        assert "direct zero-mode solve found no chain" in err
        assert "3 5 7 9 11; 1 3 9 27 81" in err
        assert not (tmp_path / "clone_report.json").exists()
        assert elapsed < 2.0


class TestToleranceFlags:
    """Every tolerance flag takes only finite positive values, checked
    before any work; ``design wstate --tol`` is covered above."""

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ("design", "pst", "--n", "8", "--tol"),
        ("simulate", "ghz", "--chain", "chain.json", "--check", "--tol"),
        ("simulate", "clone", "--n-clones", "3", "--stage-tol"),
    ])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, argv, tol):
        assert run(tmp_path, "design", "pst", "--n", "8", "--out",
                   "chain.json", "--trace", "chain.trace.csv") == 0
        before = sorted(tmp_path.iterdir())
        assert run(tmp_path, *argv, tol) == 1
        assert "tolerance must be finite and positive" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before


class TestParsing:
    def test_unknown_subcommand(self, tmp_path):
        assert run(tmp_path, "design", "bogus") == 1

    def test_no_arguments(self, tmp_path):
        assert run(tmp_path) == 1

    def test_entry_point_uses_argv_when_given(self, tmp_path):
        assert cli.main(["design", "pst", "--n", "4", "--out",
                         str(tmp_path / "p.json")]) == 0


class TestModuleEntry:
    """``python -m spinforge.cli`` runs the same entry point as ``main``."""

    def invoke(self, tmp_path, *args):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run([sys.executable, "-m", "spinforge.cli", *args],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)

    def test_design_pst_writes_document(self, tmp_path):
        done = self.invoke(tmp_path, "design", "pst", "--n", "8")
        assert done.returncode == 0, done.stderr
        assert read_document(tmp_path / "pst8.json").kind == "pst"

    def test_bad_size_exits_one(self, tmp_path):
        done = self.invoke(tmp_path, "design", "pst", "--n", "1")
        assert done.returncode == 1
        assert "error" in done.stderr
        assert not (tmp_path / "pst1.json").exists()

    @pytest.mark.parametrize("gamma, message", [
        (0.5, "one-particle map overflows: chain parameters are too large"),
        (1.0, "the upper band must be finite, got [inf]"),
    ])
    def test_overflowing_zy_document_prints_one_line(self, tmp_path, gamma, message):
        # the named error alone: no numpy overflow warning printed before it
        (tmp_path / "zy2.json").write_text(json.dumps({
            "schema_version": 1, "kind": "zy", "n": 2, "couplings": [1e308],
            "fields": [0.0, 0.0], "gamma": gamma, "provenance": {}}))
        done = self.invoke(tmp_path, "simulate", "ghz", "--chain", "zy2.json")
        assert done.returncode == 1
        assert done.stderr == f"spinforge simulate ghz: error: {message}\n"


class TestImportFloor:
    """Commands load SciPy only where they use it.

    Only the brute-force clone oracle loads SciPy, ``scipy.sparse`` for its
    spin matvecs.  Every other command, the design flows included, and the
    import of the CLI itself load none, and no module of the package
    imports ``scipy.optimize`` or ``scipy.linalg``.
    """

    LAUNCH = ("import json, sys; from spinforge.cli import main; code = main(sys.argv[1:]); "
              "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy')))); "
              "sys.exit(code)")

    def invoke(self, tmp_path, *args, launch=None):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run([sys.executable, "-c", launch or self.LAUNCH, *args],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)

    def scipy_modules(self, tmp_path, *args):
        done = self.invoke(tmp_path, *args)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    @pytest.mark.parametrize("argv, sparse", [
        (("design", "pst", "--n", "8"), False),
        (("simulate", "ghz", "--chain", "pst8.json", "--check"), False),
        (("simulate", "ghz", "--chain", "zy4.json"), False),
        (("simulate", "sweep", "--n", "3", "--x", "0:2:1", "--samples", "5"), False),
        (("design", "gamma", "--n", "6", "--from", "0", "--to", "0.5"), False),
        (("design", "wstate", "--n", "9"), False),
        (("simulate", "clone", "--n-clones", "6", "--profile", "3,1,2,1,1,2"), False),
        # the symmetric-W branch runs the null-vector flow
        (("simulate", "clone", "--n-clones", "3", "--profile", "symmetric"), False),
        (("simulate", "clone", "--n-clones", "3", "--profile", "2,1,1",
          "--method", "brute_force"), True),
    ], ids=["design-pst", "simulate-ghz-pst", "simulate-ghz-zy", "simulate-sweep",
            "design-gamma", "design-wstate", "simulate-clone",
            "simulate-clone-symmetric", "simulate-clone-brute-force"])
    def test_command_leaves_scipy_optimize_unloaded(self, tmp_path, argv, sparse):
        # the brute-force oracle loads scipy.sparse, the rest no SciPy
        provenance = make_provenance("test")
        write_document(document_from_pst(standard_couplings(8), provenance),
                       tmp_path / "pst8.json")
        write_document(document_from_gamma(gamma_seed(4, 0.0), provenance),
                       tmp_path / "zy4.json")
        loaded = self.scipy_modules(tmp_path, *argv)
        assert "scipy.optimize" not in loaded
        if sparse:
            assert "scipy.sparse" in loaded
        else:
            assert loaded == []

    def test_cli_import_loads_no_scipy(self, tmp_path):
        launch = ("import json, sys, spinforge.cli; "
                  "print(json.dumps([m for m in sys.modules if m.startswith('scipy')]))")
        done = self.invoke(tmp_path, launch=launch)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == []

    def test_no_module_imports_scipy_optimize_or_linalg(self):
        # a static check: it catches an import on a path no command runs
        package = Path(cli.__file__).resolve().parent
        found = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module] + [f"{node.module}.{alias.name}"
                                             for alias in node.names]
                else:
                    continue
                found += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[:2] in (["scipy", "optimize"],
                                                     ["scipy", "linalg"])]
        assert found == []

    def test_wstate_design_still_runs(self, tmp_path):
        done = self.invoke(tmp_path, "design", "wstate", "--n", "5")
        assert done.returncode == 0, done.stderr
        assert read_document(tmp_path / "xx5.json").kind == "xx"


class TestThreadPolicy:
    """A CLI process runs one BLAS thread unless its caller chose a count.

    Each case starts an interpreter with the three thread variables removed
    from its environment, then sets the ones the case names.
    """

    REPORT = ("import json, os; "
              "tasks = '/proc/self/task'; "
              "print(json.dumps({'threads': {v: os.environ.get(v) for v in %r}, "
              "'tasks': len(os.listdir(tasks)) if os.path.isdir(tasks) else None}))"
              % (THREAD_VARIABLES,))

    def invoke(self, tmp_path, argv, **threads):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
        env.update(threads)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done

    def report(self, tmp_path, imports, **threads):
        done = self.invoke(tmp_path, ["-c", f"{imports}; {self.REPORT}"], **threads)
        return json.loads(done.stdout)

    def test_cli_import_pins_one_thread(self, tmp_path):
        seen = self.report(tmp_path, "import spinforge.cli")
        assert seen["threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                   "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None}
        if seen["tasks"] is None:
            pytest.skip("no /proc/self/task to count threads in")
        assert seen["tasks"] == 1

    @pytest.mark.parametrize("name, value", [("OPENBLAS_NUM_THREADS", "2"),
                                             ("OMP_NUM_THREADS", "3")])
    def test_caller_setting_wins(self, tmp_path, name, value):
        seen = self.report(tmp_path, "import spinforge.cli", **{name: value})
        expected = dict.fromkeys(THREAD_VARIABLES)
        expected[name] = value
        assert seen["threads"] == expected

    def test_numpy_loaded_first_is_left_alone(self, tmp_path):
        # numpy has already read the environment, so a setting would be a lie
        seen = self.report(tmp_path, "import numpy, spinforge.cli")
        assert seen["threads"] == dict.fromkeys(THREAD_VARIABLES)

    def test_library_import_is_left_alone(self, tmp_path):
        seen = self.report(tmp_path, "import spinforge.chainio, spinforge.synthesis")
        assert seen["threads"] == dict.fromkeys(THREAD_VARIABLES)

    def test_document_records_the_thread_setting(self, tmp_path):
        self.invoke(tmp_path, ["-m", "spinforge.cli", "design", "pst", "--n", "8"])
        provenance = read_document(tmp_path / "pst8.json").provenance
        assert provenance["threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                         "OMP_NUM_THREADS": None,
                                         "MKL_NUM_THREADS": None}
        assert provenance["numpy"] == np.__version__
