"""trihill benchmark: one workload, one seed, one closed-loop client.

Run from the root of a trihill checkout::

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Workloads: catalog, hill, dynamics, verify (see perfbench/README.md).  The
run starts a few set-up probes and then one workload process, each a fresh
interpreter pinned to one BLAS/OpenMP thread.  ``setup_s`` is the median
time from starting such a process to the end of its set-up (interpreter
start, ``import trihill`` and input generation).  Timed end-to-end
metrics are at reference speed (see ``speed.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Environment, sample counts and failure reasons
go to the lines before it and to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("catalog", "hill", "dynamics", "verify")
OUT_DIR = ".perfbench_out"
BUDGET_S = 170.0  # the whole run, probes included, ends before this
PROBES = {0: 3, 1: 2}  # set-up probes per run, besides the workload process
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunFailed(Exception):
    pass


def _start(argv: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker; returns its RESULT and the seconds until it printed READY."""
    env = dict(os.environ, **THREAD_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *argv], stdout=subprocess.PIPE, env=env, text=True
    )
    # A worker still running at the deadline is killed, which ends the read loop.
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line == "READY\n" and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT ") :])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or result is None:
        raise RunFailed(f"worker {' '.join(argv)} ended with code {code} and no result")
    return result, ready


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "trihill", "__init__.py")):
        print("error: run from the root of a trihill checkout (src/trihill is missing)", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = [_start([*common, "--setup-only"], deadline) for _ in range(PROBES[args.trace])]
        result, ready = _start(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = [*probes, (result, ready)]
    imports = [r["imports"] for r, _ in runs]
    setups = []
    metrics = result["metrics"]
    if args.trace:
        metrics["import.trihill_s"] = {"value": statistics.median(i["trihill_s"] for i in imports), "unit": "s"}
        metrics["import.modules"] = {"value": result["imports"]["modules"], "unit": "count"}
        metrics["import.scipy_ndimage_loaded"] = {
            "value": result["imports"]["scipy_ndimage_loaded"],
            "unit": "count",
        }
    else:
        # Each set-up time, less the sampler's own time, at reference speed.
        setups = [(t - r["setup"]["handler_s"]) * r["setup"]["speed"] for r, t in runs]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    correct = not result["wrong"]
    durations = result["samples"].pop("durations_s", None)
    info = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": result["env"],
        "samples": result["samples"],
        "setup_samples_s": setups,
        "raw_setup_samples_s": [t for _, t in runs],
        "wrong": result["wrong"],
        "reported_failures": result["reported"],
    }
    final = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**info, **final, "durations_s": durations}, fh, indent=1)
    for message in result["wrong"]:
        print(f"# wrong: {message}")
    for message, n in result["reported"].items():
        print(f"# program-reported failure x{n}: {message}")
    print("# info " + json.dumps(info))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
