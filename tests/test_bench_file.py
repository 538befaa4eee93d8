"""The bench file's medians, child/parent ratios and claim verdicts, on
synthetic runs, and its cleanup on SIGTERM, on a stub workload: no benchmark runs here."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "bench_file.py")
_SPEC = importlib.util.spec_from_file_location("bench_file", _PATH)
bench_file = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_file)


def _run(workload, seed, **metrics):
    return {"workload": workload, "seed": seed, "trace": 0, "metrics": metrics}


def test_medians_are_taken_per_workload_and_metric_over_seeds():
    runs = [
        _run("catalog", 1, op2_ms_p50=180.0, work_per_s=16.0),
        _run("catalog", 2, op2_ms_p50=200.0, work_per_s=15.0),
        _run("catalog", 7, op2_ms_p50=190.0, work_per_s=17.0),
        _run("hill", 1, op_ms_p50=12.0),
    ]
    got = bench_file.medians(runs)
    assert got["catalog"] == {"op2_ms_p50": 190.0, "work_per_s": 16.0}
    assert got["hill"] == {"op_ms_p50": 12.0}
    assert got["dynamics"] == got["verify"] == {}


def test_compare_gives_both_medians_and_child_over_parent():
    parent = [_run("catalog", s, op2_ms_p50=v, failed=0) for s, v in ((1, 180), (2, 200), (7, 190))]
    parent.append(_run("verify", 1, op_ms_p50=70.0, only_parent=1.0))
    child = [_run("catalog", s, op2_ms_p50=v, failed=0) for s, v in ((1, 120), (2, 130), (7, 95))]
    child.append(_run("verify", 1, op_ms_p50=63.0))
    got = bench_file.compare(child, parent)
    assert got["parent_median_over_seeds"]["catalog"]["op2_ms_p50"] == 190.0
    assert got["child_median_over_seeds"]["catalog"]["op2_ms_p50"] == 120.0
    ratio = got["ratio_child_over_parent"]
    assert ratio["catalog"]["op2_ms_p50"] == pytest.approx(120.0 / 190.0)
    assert ratio["verify"]["op_ms_p50"] == pytest.approx(0.9)
    # no ratio over a zero parent median or for a metric the child lacks
    assert ratio["catalog"]["failed"] is None
    assert ratio["verify"]["only_parent"] is None


# The ten alternating untraced verify pairs recorded in CHANGES.md for
# commits 3bb5f83 and c8da6e2 (op_ms_p50, ms): the parent's median and
# quartiles, each pair's child/parent ratio, the change's wins and the
# verdict the rule must give.
_RECORDED = {
    "3bb5f83": (33.63, (31.81, 34.77),
                (0.874, 0.826, 0.863, 0.832, 0.711, 0.853, 0.864, 0.969, 0.774, 0.794),
                10, "claim"),
    "c8da6e2": (25.91, (24.02, 27.08),
                (0.807, 0.809, 1.068, 1.025, 1.008, 0.914, 0.951, 0.949, 1.150, 0.919),
                6, "no claim"),
}


@pytest.mark.parametrize("commit", sorted(_RECORDED))
def test_verdict_on_the_recorded_verify_pairs(commit):
    median, (q1, q3), ratios, wins, want = _RECORDED[commit]
    # parent runs with the recorded median and quartiles; child = ratio * parent
    parent = [q1 - 1.0, q1, q1, q1, median, median, q3, q3, q3, q3 + 1.0]
    child = [r * p for r, p in zip(ratios, parent)]
    with open(os.path.join(os.path.dirname(_PATH), "..", "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    ms = bench_file.verdict(child, parent, better["op_ms_p50"], (0, 0))
    assert ms["wins"] == wins and ms["verdict"] == want
    assert ms["parent_median"] == median and ms["parent_quartiles"] == pytest.approx([q1, q3])
    # the same runs as rates, where higher is better
    rates = [1e3 / c for c in child], [1e3 / p for p in parent]
    rate = bench_file.verdict(*rates, better["ops_per_s"], (0, 0))
    assert rate["wins"] == wins and rate["verdict"] == want


def test_verdict_counts_ties_for_neither_side_and_needs_the_gap():
    parent = [10.0 + k for k in range(10)]  # quartiles 11.75 and 17.25: spread 5.5
    faster = [p - 7.0 for p in parent]
    assert bench_file.verdict(faster, parent, "lower", (0, 0))["verdict"] == "claim"
    assert bench_file.verdict(faster, parent, "higher", (0, 0))["wins"] == 0
    tied = [parent[0], *faster[1:]]  # 9 of 10 wins still claim
    assert bench_file.verdict(tied, parent, "lower", (0, 0))["verdict"] == "claim"
    tied[1] = parent[1]  # 8 of 10 do not
    assert bench_file.verdict(tied, parent, "lower", (0, 0)) == {
        "better": "lower", "pairs": 10, "wins": 8, "child_median": 9.5, "parent_median": 14.5,
        "parent_quartiles": [11.75, 17.25], "failed": [0, 0], "verdict": "no claim"}
    # every pair won, but the medians 5 apart within the spread
    assert bench_file.verdict([p - 5.0 for p in parent], parent, "lower", (0, 0))["verdict"] == "no claim"


def test_verdict_needs_ten_pairs_and_no_more_failures():
    parent = [10.0 + k for k in range(10)]
    faster = [p - 7.0 for p in parent]
    # fewer failures than the parent, or as many, may claim; more may not
    assert bench_file.verdict(faster, parent, "lower", (2, 3))["verdict"] == "claim"
    assert bench_file.verdict(faster, parent, "lower", (3, 3))["verdict"] == "claim"
    assert bench_file.verdict(faster, parent, "lower", (4, 3))["verdict"] == "no claim"
    # nine pairs, all won by far, are too few
    assert bench_file.verdict(faster[:9], parent[:9], "lower", (0, 0)) == {
        "better": "lower", "pairs": 9, "wins": 9, "child_median": 7.0, "parent_median": 14.0,
        "parent_quartiles": [11.5, 16.5], "failed": [0, 0], "verdict": "no claim"}


_STUB_BENCH = """\
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
ms, failed = open("ms.txt").read().split()
ms = float(ms)
print("# info " + json.dumps({"env": {}}))
metrics = {"op_ms_p50": {"value": ms}, "ops_per_s": {"value": 1e3 / ms},
           "seed": {"value": float(args["--seed"])}, "trace": {"value": float(args["--trace"])}}
print(json.dumps({"metrics": metrics, "correct": True, "attempted": 1, "failed": int(failed)}))
"""


def _git(repo, *args):
    cmd = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args]
    return subprocess.run(cmd, cwd=repo, check=True, capture_output=True, text=True).stdout


@pytest.mark.parametrize("child_failed, want", [(0, "claim"), (1, "no claim")])
def test_claim_runs_ten_alternating_pairs_and_gives_a_verdict(tmp_path, child_failed, want):
    # a throwaway repo whose perfbench/run.py prints the op time and the
    # failed operations in ms.txt: 2 ms and none at the parent commit, 1 ms
    # and ``child_failed`` at the child
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(_STUB_BENCH)
    end_to_end = [{"name": "op_ms_p50", "better": "lower"}, {"name": "ops_per_s", "better": "higher"}]
    (repo / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": end_to_end}))
    _git(repo, "init", "-q")
    for ms in ("2.0 0", f"1.0 {child_failed}"):
        (repo / "ms.txt").write_text(ms)
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", ms)
    cmd = [sys.executable, _PATH, "--parent", "HEAD~1", "--claim", "hill", "--seed", "5",
           "--out", str(tmp_path)]
    out = subprocess.run(cmd, cwd=repo, check=True, capture_output=True, text=True).stdout
    with open(out.strip()) as fh:
        bench = json.load(fh)
    pairs = bench["pairs"]
    assert (pairs["workload"], pairs["seed"]) == ("hill", 5)
    for side, ms in (("child_runs", 1.0), ("parent_runs", 2.0)):
        runs = pairs[side]
        assert len(runs) == 10 and all(r["workload"] == "hill" and r["seed"] == 5 for r in runs)
        assert all(r["metrics"] == {"op_ms_p50": ms, "ops_per_s": 1e3 / ms, "seed": 5.0, "trace": 0.0}
                   for r in runs)
    assert sorted(pairs["verdicts"]) == ["op_ms_p50", "ops_per_s"]
    for v in pairs["verdicts"].values():
        assert (v["wins"], v["failed"], v["verdict"]) == (10, [10 * child_failed, 0], want)
    assert len(bench["child_runs"]) == len(bench["parent_runs"]) == 24
    assert len(_git(repo, "worktree", "list").splitlines()) == 1


_STUB_RUN = """\
import os, subprocess, sys, time
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(120)"])
with open("child.pid.tmp", "w") as fh:
    fh.write(str(child.pid))
os.replace("child.pid.tmp", "child.pid")
time.sleep(120)
"""


def _alive(pid):
    """Whether ``pid`` runs: a zombie left for init to reap counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _wait_for(cond, seconds):
    deadline = time.monotonic() + seconds
    while not cond():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
def test_sigterm_removes_the_parent_worktree_and_the_running_workload(tmp_path):
    # A throwaway repo whose perfbench/run.py starts a sleeping child, as
    # run.py starts its worker, then sleeps; SIGTERM the tool mid-run.
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src").mkdir()
    (repo / "perfbench" / "run.py").write_text(_STUB_RUN)
    (repo / "src" / "keep.txt").write_text("src\n")
    (repo / "BENCHMARK.json").write_text('{"run_seconds": 1}\n')

    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "stub")
    tool = subprocess.Popen(
        [sys.executable, _PATH, "--parent", "HEAD", "--out", str(tmp_path)],
        cwd=repo, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    pid_file, child = repo / "child.pid", None
    try:
        assert _wait_for(pid_file.exists, 30), "the stub run never started"
        child = int(pid_file.read_text())
        assert len(_git(repo, "worktree", "list").splitlines()) == 2
        tool.send_signal(signal.SIGTERM)
        tool.communicate(timeout=30)
        assert tool.returncode != 0
        assert len(_git(repo, "worktree", "list").splitlines()) == 1
        assert _wait_for(lambda: not _alive(child), 10), "the stub's child still runs"
    finally:
        if tool.poll() is None:
            tool.kill()
            tool.wait()
        if child is not None and _alive(child):
            os.kill(child, signal.SIGKILL)
