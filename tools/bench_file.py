"""Write BENCH_<short-sha>.json: the benchmark of one commit, in one file.

Run from the root of a trihill checkout whose ``src/`` and ``perfbench/``
are committed::

    python3 tools/bench_file.py [--out DIR] [--parent REV]

It runs ``perfbench/run.py`` for each workload, untraced (``--trace 0``,
the end-to-end metrics) and traced (``--trace 1``, the per-layer metrics),
on seeds 1, 2 and 7, one run at a time, each for the ``run_seconds`` of
``BENCHMARK.json``.  The file holds every run's
result line and the environment from its ``# info`` line, and per
workload and metric the median over the seeds.

With ``--parent REV`` it checks REV out as a detached ``git worktree`` in a
temporary directory and, for each seed, workload and trace, runs the parent
and this commit one after the other, alternating which goes first, so that
both sides see the same machine.  It writes
BENCH_<short-sha>_vs_<parent-short-sha>.json with both sides' runs and
medians and, per workload and metric, the ratio of this commit's median to
the parent's.  Under ``gate`` it marks each workload's end-to-end metric of
``BENCHMARK.json`` "worse" where that ratio is worse than the metric's
``bound`` in the direction of its ``better`` (above 1 + bound where lower
is better, below 1 - bound where higher is), and "ok" otherwise: what a
no-regression gate on these medians sees.

With ``--claim W --seed S`` as well, it then runs ``PAIRS`` (10) more
untraced pairs of workload W at seed S, alternating which side goes first,
and adds them to the file under ``pairs`` with a verdict on each end-to-end
metric of ``BENCHMARK.json``.  S should be a seed that no sizing run of
the claim used.  The verdict is "claim" when

* there are at least 10 pairs, and the change wins at least 9 in 10 of
  them, a win being a pair where the change's value is better in the
  direction of the metric's ``better`` (a tie counts for neither side; at
  10 pairs a one-sided sign test gives p = 11/1024),
* the gap between the two sides' medians, in that direction, exceeds the
  parent's interquartile spread (``statistics.quantiles``, n = 4), and
* the change's pair runs fail no more operations in all than the parent's;

otherwise it is "no claim".  A speed claim cites a metric whose verdict in
such a file is "claim".
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ("catalog", "hill", "dynamics", "verify")
SEEDS = (1, 2, 7)
PAIRS = 10


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def _run(workload: str, seed: int, trace: int, seconds: float, cwd: str = ".") -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # In a session of its own, so that the worker run.py starts goes down
    # with it when this run is cut short.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=cwd, start_new_session=True)
    try:
        stdout, stderr = proc.communicate()
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("# info "):
        raise SystemExit(f"error: {' '.join(cmd[1:])} exited {proc.returncode}: {stderr.strip()}")
    info = json.loads(lines[-2][len("# info "):])
    final = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in final["metrics"].items()}
    return {"workload": workload, "seed": seed, "trace": trace, "correct": final["correct"],
            "attempted": final["attempted"], "failed": final["failed"], "metrics": metrics,
            "env": info["env"]}


def medians(runs: list[dict]) -> dict:
    """Per workload and metric, the median over ``runs``."""
    out = {}
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        for run in runs:
            if run["workload"] == workload:
                for name, value in run["metrics"].items():
                    values.setdefault(name, []).append(value)
        out[workload] = {name: statistics.median(v) for name, v in sorted(values.items())}
    return out


def compare(child_runs: list[dict], parent_runs: list[dict]) -> dict:
    """Both sides' medians and, per workload and metric, child/parent; the
    ratio is None where the parent's median is 0 or the child lacks it."""
    child, parent = medians(child_runs), medians(parent_runs)
    ratio = {
        workload: {
            name: child[workload][name] / value if value and name in child[workload] else None
            for name, value in parent[workload].items()
        }
        for workload in WORKLOADS
    }
    return {"child_median_over_seeds": child, "parent_median_over_seeds": parent,
            "ratio_child_over_parent": ratio}


def gate(ratio: dict, end_to_end: list[dict]) -> dict:
    """Per workload, each end-to-end metric's mark from ``ratio``, the
    child/parent medians of ``compare``: "worse" beyond its bound, as the
    module docstring says, "ok" within it, None without a ratio."""
    out = {}
    for workload, ratios in ratio.items():
        marks = out[workload] = {}
        for m in end_to_end:
            r = ratios.get(m["name"])
            if r is None:
                marks[m["name"]] = None
                continue
            worse = r > 1.0 + m["bound"] if m["better"] == "lower" else r < 1.0 - m["bound"]
            marks[m["name"]] = "worse" if worse else "ok"
    return out


def verdict(child: list[float], parent: list[float], better: str, failed: tuple[int, int]) -> dict:
    """The claim rule of the module docstring on one metric's pairs
    (child[i], parent[i]); ``better`` is "lower" or "higher", and
    ``failed`` the failed operations of the child's and the parent's pair
    runs in all."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for c, p in zip(child, parent))
    c_med, p_med = statistics.median(child), statistics.median(parent)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    claim = (len(parent) >= PAIRS and 10 * wins >= 9 * len(parent)
             and sign * (p_med - c_med) > q3 - q1 and failed[0] <= failed[1])
    return {"better": better, "pairs": len(parent), "wins": wins, "child_median": c_med,
            "parent_median": p_med, "parent_quartiles": [q1, q3], "failed": list(failed),
            "verdict": "claim" if claim else "no claim"}


def _runs(seconds: float, dirs: list[str], jobs: list[tuple[str, int, int]]) -> list[list[dict]]:
    """The runs of each checkout in ``dirs``: for each (workload, seed,
    trace) of ``jobs`` one run per checkout, one after the other,
    alternating which goes first."""
    out: list[list[dict]] = [[] for _ in dirs]
    for turn, (workload, seed, trace) in enumerate(jobs):
        for i in range(len(dirs))[:: -1 if turn % 2 else 1]:
            out[i].append(_run(workload, seed, trace, seconds, dirs[i]))
        print(f"{workload} seed {seed} trace {trace}: done", file=sys.stderr)
    return out


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # A SIGTERM unwinds like an error, through the cleanup of the parent
    # worktree and of the running workload.
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default=".", help="directory to write the file to")
    ap.add_argument("--parent", help="also run this revision, alternating with this commit")
    ap.add_argument("--claim", choices=WORKLOADS, help=f"with --parent: {PAIRS} more untraced pairs of it")
    ap.add_argument("--seed", type=int, help="the seed of --claim's pairs")
    args = ap.parse_args(argv)
    if args.claim is not None and (args.parent is None or args.seed is None):
        ap.error("--claim needs --parent and --seed")
    if not os.path.isfile(os.path.join("perfbench", "run.py")):
        print("error: run from the root of a trihill checkout", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    seconds = declared["run_seconds"]
    if _git("status", "--porcelain", "--", "src", "perfbench"):
        print("error: src/ or perfbench/ has uncommitted changes; commit them first", file=sys.stderr)
        return 2
    sha = _git("rev-parse", "--short=7", "HEAD")
    jobs = [(workload, seed, trace) for seed in SEEDS for workload in WORKLOADS for trace in (0, 1)]
    if args.parent is None:
        (runs,) = _runs(seconds, ["."], jobs)
        bench = {"commit": _git("rev-parse", "HEAD"), "seconds": seconds, "seeds": list(SEEDS),
                 "median_over_seeds": medians(runs), "runs": runs}
        name = f"BENCH_{sha}.json"
    else:
        parent = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
        tmp = tempfile.mkdtemp(prefix="bench_parent_")
        parent_dir = os.path.join(tmp, "parent")
        try:
            _git("worktree", "add", "--detach", parent_dir, parent)
            child_runs, parent_runs = _runs(seconds, [".", parent_dir], jobs)
            if args.claim:
                pair_jobs = [(args.claim, args.seed, 0)] * PAIRS
                pair_child, pair_parent = _runs(seconds, [".", parent_dir], pair_jobs)
        finally:
            remove = ["git", "worktree", "remove", "--force", parent_dir]
            subprocess.run(remove, capture_output=True)
            shutil.rmtree(tmp, ignore_errors=True)
            subprocess.run(["git", "worktree", "prune"], capture_output=True)
        compared = compare(child_runs, parent_runs)
        bench = {"commit": _git("rev-parse", "HEAD"), "parent": parent, "seconds": seconds,
                 "seeds": list(SEEDS), **compared,
                 "gate": gate(compared["ratio_child_over_parent"], declared["end_to_end"]),
                 "child_runs": child_runs, "parent_runs": parent_runs}
        if args.claim:
            failed = tuple(sum(run["failed"] for run in runs) for runs in (pair_child, pair_parent))
            verdicts = {}
            for m in declared["end_to_end"]:
                c, p = ([run["metrics"][m["name"]] for run in runs] for runs in (pair_child, pair_parent))
                verdicts[m["name"]] = verdict(c, p, m["better"], failed)
            bench["pairs"] = {"workload": args.claim, "seed": args.seed, "verdicts": verdicts,
                              "child_runs": pair_child, "parent_runs": pair_parent}
        name = f"BENCH_{sha}_vs_{parent[:7]}.json"
    path = os.path.join(args.out, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
