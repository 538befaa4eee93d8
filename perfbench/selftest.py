"""Self-test of the benchmark; run from the root of a trihill checkout::

    python3 perfbench/selftest.py [--seed N] [--seconds S]

For every workload it makes two traced runs with one seed and requires
that both are correct, print exactly the per-layer metrics BENCHMARK.json
names, and agree exactly on every count metric.  It also makes one short
untraced run per workload against the end-to-end list, and runs the
benchmark in a directory that holds only BENCHMARK.json and perfbench/,
where it must fail without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, seed: int, seconds: float, trace: int, cwd: str = ".") -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    for workload in (w["name"] for w in spec["workloads"]):
        code, out = run(workload, args.seed, args.seconds, 0)
        result = last_json(out) if code == 0 else {}
        got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
        if code != 0 or not result["correct"] or got != e2e:
            problems.append(f"{workload}: untraced run code={code} metrics/units differ from BENCHMARK.json")
        elif any(not v["value"] for v in result["metrics"].values()):
            problems.append(f"{workload}: an end-to-end metric reads 0")

        traced = []
        for _ in range(2):
            code, out = run(workload, args.seed, args.seconds, 1)
            if code != 0:
                problems.append(f"{workload}: traced run exited {code}")
                break
            traced.append(last_json(out))
        if len(traced) < 2:
            continue
        for result in traced:
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"] or got != layers:
                problems.append(f"{workload}: traced run incorrect or metrics/units differ from BENCHMARK.json")
        first, second = (r["metrics"] for r in traced)
        for name, unit in layers.items():
            if unit == "count" and first.get(name) != second.get(name):
                problems.append(f"{workload}: count {name} differs: {first.get(name)} vs {second.get(name)}")
        if (traced[0]["attempted"], traced[0]["failed"]) != (traced[1]["attempted"], traced[1]["failed"]):
            problems.append(f"{workload}: attempted/failed differ between traced runs")
        print(f"{workload}: checked", flush=True)

    bare = os.path.join(".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    code, out = run(spec["workloads"][0]["name"], args.seed, args.seconds, 0, cwd=bare)
    if code == 0 or out.strip():
        problems.append(f"bare directory: exit code {code}, printed {out.strip()[:80]!r}")
    shutil.rmtree(bare)

    for p in problems:
        print("PROBLEM:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
