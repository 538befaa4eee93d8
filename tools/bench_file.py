"""Write BENCH_<short-sha>.json: the benchmark of one commit, in one file.

Run from the root of a trihill checkout whose ``src/`` and ``perfbench/``
are committed::

    python3 tools/bench_file.py [--out DIR]

It runs ``perfbench/run.py`` for each workload, untraced (``--trace 0``,
the end-to-end metrics) and traced (``--trace 1``, the per-layer metrics),
on seeds 1, 2 and 7, one run at a time, each for the ``run_seconds`` of
``BENCHMARK.json``.  The file holds every run's
result line and the environment from its ``# info`` line, and per
workload and metric the median over the seeds.  A speed claim cites a
before/after pair from two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("catalog", "hill", "dynamics", "verify")
SEEDS = (1, 2, 7)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def _run(workload: str, seed: int, trace: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("# info "):
        raise SystemExit(f"error: {' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    info = json.loads(lines[-2][len("# info "):])
    final = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in final["metrics"].items()}
    return {"workload": workload, "seed": seed, "trace": trace, "correct": final["correct"],
            "attempted": final["attempted"], "failed": final["failed"], "metrics": metrics,
            "env": info["env"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default=".", help="directory to write the file to")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("perfbench", "run.py")):
        print("error: run from the root of a trihill checkout", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    if _git("status", "--porcelain", "--", "src", "perfbench"):
        print("error: src/ or perfbench/ has uncommitted changes; commit them first", file=sys.stderr)
        return 2
    sha = _git("rev-parse", "--short=7", "HEAD")
    runs = []
    for seed in SEEDS:
        for workload in WORKLOADS:
            for trace in (0, 1):
                runs.append(_run(workload, seed, trace, seconds))
                print(f"{workload} seed {seed} trace {trace}: done", file=sys.stderr)
    medians = {}
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        for run in runs:
            if run["workload"] == workload:
                for name, value in run["metrics"].items():
                    values.setdefault(name, []).append(value)
        medians[workload] = {name: statistics.median(v) for name, v in sorted(values.items())}
    bench = {"commit": _git("rev-parse", "HEAD"), "seconds": seconds, "seeds": list(SEEDS),
             "median_over_seeds": medians, "runs": runs}
    path = os.path.join(args.out, f"BENCH_{sha}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
