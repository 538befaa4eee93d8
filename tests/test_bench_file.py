"""The bench file's medians and child/parent ratios, on synthetic runs:
no benchmark runs here."""

import importlib.util
import os

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
