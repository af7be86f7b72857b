"""Benchmark for densecode: one workload per call, one JSON result line last.

    python3 perfbench/run.py --workload mc-long --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The package is loaded from ``src/`` of
that checkout; without it the command fails.  ``--workload all`` runs the
four workloads in turn.  Every worker runs with BLAS pinned to one thread
and measures a closed loop of one client in one thread.

Before measuring, ``python -m densecode example-d2`` runs once, untimed, and
must report ``"pass": true``.  Set-up time is the median over several
worker start-ups, before and after the measuring one, each timed from spawn
until the worker reports its inputs ready.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The last line of output is the JSON result; the command
exits 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc-long", "sweep-d2", "search-d3", "verify-suites")
SETUP_REPEATS = 11  # worker start-ups per run, half before the measuring one and half after
WORKER_TIMEOUT_S = 170.0
# Figures printed for reading but not in the result line (see perfbench/README.md).
EXTRA_UNITS = {"wall_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms", "failed_ratio": "ratio"}
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class HarnessError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_example(env: dict[str, str]) -> bool:
    proc = subprocess.run(
        [sys.executable, "-m", "densecode", "example-d2"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    try:
        return proc.returncode == 0 and json.loads(proc.stdout)["pass"] is True
    except (json.JSONDecodeError, KeyError):
        return False


def start_worker(args: list[str], env: dict[str, str]) -> tuple[float, str]:
    """Run one worker; return its set-up seconds and its last stdout line."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise HarnessError(f"worker {' '.join(args)} exited with code {code}")
    lines = rest.strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def tail_latency(latencies_s: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten requests beyond it, and its value in ms."""
    n = len(latencies_s)
    if n < 11:
        return None
    ordered = sorted(latencies_s)
    return math.floor(1000.0 * (n - 10) / n) / 10.0, 1e3 * ordered[n - 11]


def run_workload(workload: str, seed: int, seconds: int, trace: int, env: dict[str, str]) -> dict:
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = [start_worker([*common, "--setup-only"], env)[0] for _ in range(SETUP_REPEATS // 2)]
    setup_s, line = start_worker([*common, "--trace", str(trace)], env)
    setups.append(setup_s)
    setups += [start_worker([*common, "--setup-only"], env)[0] for _ in range(SETUP_REPEATS - len(setups))]
    result = json.loads(line)
    result["setup_s"] = statistics.median(setups)
    return result


def figures(result: dict, trace: int) -> dict[str, tuple[float, str]]:
    """Every figure of one workload's result, by name, with a note on how it was taken."""
    if trace:
        per_layer = result["per_layer"]
        return {name: (v, per_layer["sources"][name]) for name, v in per_layer["metrics"].items()}
    e2e = result["end_to_end"]
    latencies = e2e["latencies_s"]
    n, failed = result["attempted"], result["failed"]
    out = {
        "setup_s": (result["setup_s"], f"median of {SETUP_REPEATS} worker start-ups"),
        "wall_s": (e2e["wall_s"], f"median of {e2e['passes']} passes"),
        "wall_ref": (e2e["wall_ref"], "the same, each request over the reference time around it"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), f"{len(latencies)} requests"),
        "latency_p50_ref": (statistics.median(e2e["ref_latencies"]), "the same, in reference units"),
        "failed_ratio": (failed / n, f"{failed}/{n}, {result['wrong']} with wrong output"),
        "peak_rss_mb": (e2e["peak_rss_mb"], "worker peak resident set"),
    }
    tail = tail_latency(latencies)
    if tail is not None:
        out["latency_tail_ms"] = (tail[1], f"p{tail[0]:g} of {len(latencies)} requests")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="densecode benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "densecode" / "__init__.py").is_file():
        print(f"densecode sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = worker_env()
    example_ok = run_example(env)
    if not example_ok:
        print("example-d2 did not pass", file=sys.stderr)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = dict(EXTRA_UNITS)
    units.update((m["name"], m["unit"]) for m in declared["end_to_end"] + declared["per_layer"])
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    correct = example_ok
    metrics: dict[str, dict] = {}
    for i, workload in enumerate(workloads):
        result = run_workload(workload, args.seed, args.seconds, args.trace, env)
        if i == 0:
            print("machine " + json.dumps(result["machine"], sort_keys=True))
        for note in result["failure_notes"]:
            print(f"{workload} FAILED {note}", file=sys.stderr)
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["wrong"] == 0
        got = figures(result, args.trace)
        for name, (value, note) in sorted(got.items()):
            print(f"{workload} {name} {value:.6g} {units[name]}  ({note})")
        missing = [name for name in wanted if name not in got]
        if missing:
            raise HarnessError(f"{workload} did not measure {', '.join(missing)}")
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for name in wanted:
            metrics[prefix + name] = {"value": got[name][0], "unit": units[name]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
