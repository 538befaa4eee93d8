"""The bench file's medians and child/parent ratios, on synthetic runs,
and its cleanup on SIGTERM, on a stub workload: no benchmark runs here."""

import importlib.util
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

    def git(*args):
        cmd = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args]
        return subprocess.run(cmd, cwd=repo, check=True, capture_output=True, text=True).stdout

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "stub")
    tool = subprocess.Popen(
        [sys.executable, _PATH, "--parent", "HEAD", "--out", str(tmp_path)],
        cwd=repo, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    pid_file, child = repo / "child.pid", None
    try:
        assert _wait_for(pid_file.exists, 30), "the stub run never started"
        child = int(pid_file.read_text())
        assert len(git("worktree", "list").splitlines()) == 2
        tool.send_signal(signal.SIGTERM)
        tool.communicate(timeout=30)
        assert tool.returncode != 0
        assert len(git("worktree", "list").splitlines()) == 1
        assert _wait_for(lambda: not _alive(child), 10), "the stub's child still runs"
    finally:
        if tool.poll() is None:
            tool.kill()
            tool.wait()
        if child is not None and _alive(child):
            os.kill(child, signal.SIGKILL)
