"""End-to-end and per-layer benchmark of the spinforge CLI.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload clone-asym --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run first times ``SETUP_SAMPLES`` fresh interpreters
importing ``spinforge.cli``, then repeats whole rounds of the workload until
``--seconds`` have passed (at least one round).  A round runs each command
as its own ``python3`` process, one after another, and checks every
artifact.  The end-to-end metrics are medians over rounds (over samples for
``setup_s``).  With ``--trace 1`` one round runs in a single process through
``bench/tracing.py``, its artifacts are checked the same way, and the
per-layer metrics come from its spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A command counts as
failed when it exits non-zero or its artifact fails a check; ``correct`` is
false when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, CheckError, gamma_trace_files

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_SAMPLES = 5

# The CLI entry point is spinforge.cli.main; the package is not installed as
# a console script and ``python -m spinforge.cli`` does nothing, so each
# command runs this one-liner in a fresh interpreter.
LAUNCH = "import sys; from spinforge.cli import main; sys.exit(main(sys.argv[1:]))"


def _child_env() -> dict:
    # The thread environment (OPENBLAS_NUM_THREADS and friends) is inherited
    # unchanged, so threaded-BLAS costs show up as the user would see them.
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args, cwd: Path, env: dict, log) -> tuple:
    """Run one child to completion; returns (exit code, wall s, cpu s, peak RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                            stdout=log, stderr=log, stdin=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _check_all(commands, codes, workdir: Path) -> tuple:
    """Returns (failed count, check failure messages)."""
    failed, problems = 0, []
    for command, code in zip(commands, codes):
        if code != 0:
            failed += 1
            print(f"exit {code}: spinforge {' '.join(command.argv)}", file=sys.stderr)
            continue
        try:
            command.check(workdir)
        except CheckError as err:
            failed += 1
            problems.append(str(err))
            print(f"check failed: {err}", file=sys.stderr)
    return failed, problems


def measure_setup(env: dict, workdir: Path) -> float:
    """Median wall time of a fresh interpreter importing spinforge.cli."""
    samples = []
    with open(workdir / "setup.log", "w") as log:
        for _ in range(SETUP_SAMPLES):
            code, wall, _, _ = _spawn(["-c", "import spinforge.cli"], workdir, env, log)
            if code != 0:
                raise RuntimeError(f"importing spinforge.cli failed with exit code {code}")
            samples.append(wall)
    return statistics.median(samples)


def run_round(commands, seed: int, workdir: Path, env: dict) -> dict:
    workdir.mkdir(parents=True)
    codes, per_command = [], []
    with open(workdir / "commands.log", "w") as log:
        for command in commands:
            code, *usage = _spawn(["-c", LAUNCH, *command.argv, "--seed", str(seed)],
                                  workdir, env, log)
            codes.append(code)
            per_command.append(usage)
    failed, problems = _check_all(commands, codes, workdir)
    return {"wall_s": sum(u[0] for u in per_command), "cpu_s": sum(u[1] for u in per_command),
            "peak_rss_mb": max(u[2] for u in per_command),
            "per_command": per_command, "failed": failed, "problems": problems}


def run_untraced(name: str, seed: int, seconds: int, workdir: Path) -> dict:
    commands = WORKLOADS[name]
    env = _child_env()
    start = time.perf_counter()
    setup = measure_setup(env, workdir)
    rounds = []
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(commands, seed, workdir / f"round{len(rounds)}", env))
    metrics = {"setup_s": (setup, "s")}
    for key, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
        metrics[key] = (statistics.median(r[key] for r in rounds), unit)
    return {
        "correct": not any(r["problems"] for r in rounds),
        "attempted": len(commands) * len(rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
        "rounds": rounds,
    }


def run_traced(name: str, seed: int, workdir: Path) -> dict:
    commands = WORKLOADS[name]
    env = _child_env()
    env["PYTHONPATH"] = str(BENCH) + os.pathsep + env["PYTHONPATH"]
    with open(workdir / "traced.log", "w") as log:
        code, _, _, _ = _spawn([str(BENCH / "tracing.py"), "--workload", name, "--seed",
                                str(seed), "--workdir", str(workdir)], workdir, env, log)
    if code != 0:
        raise RuntimeError(f"traced run exited with code {code}; see {workdir / 'traced.log'}")
    dump = json.loads((workdir / "spans.json").read_text())
    traced_dir = workdir / "traced"
    failed, problems = _check_all(commands, dump["codes"], traced_dir)
    accepted = 0
    for csv_name in gamma_trace_files(commands):
        path = traced_dir / csv_name
        if path.exists():
            accepted += len(path.read_text().splitlines()) - 1
    layer = tracing.derive_metrics(dump["spans"], accepted)
    layer["trace.overhead_s"] = len(dump["spans"]) * dump["span_cost_s"]
    units = {n: u for n, u, _ in tracing.PER_LAYER}
    return {
        "correct": not problems,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {n: (layer[n], units[n]) for n, _, _ in tracing.PER_LAYER},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spinforge CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "spinforge" / "cli.py").is_file():
        print(f"error: {ROOT} holds no spinforge source tree (src/spinforge/cli.py); "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if args.trace:
        result = run_traced(args.workload, args.seed, workdir)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds, workdir)
    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    extra = f", {len(result['rounds'])} rounds" if "rounds" in result else ""
    print(f"{args.workload} seed {args.seed}: {summary['attempted']} commands, "
          f"{summary['failed']} failed{extra}")
    for key, metric in summary["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    details = {**summary, "rounds": result.get("rounds", [])}
    (workdir / "result.json").write_text(json.dumps(details, indent=2) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
