"""One workload process: set-up, the measured loop, the checks and the metrics.

Started by ``run.py`` from the root of a trihill checkout::

    python3 perfbench/worker.py --workload NAME --seed N --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

It imports ``trihill`` from ``./src``, builds the workload's inputs, prints
``READY`` and then one ``RESULT <json>`` line.  With ``--trace 0`` it cycles
through the workload's operations, as many as the workload plans for S
seconds, and reports the end-to-end metrics.  With ``--trace 1`` it runs each operation of a fixed prefix twice,
once untraced and once traced, and reports the per-layer metrics; the fixed
prefix makes every count repeat exactly for one seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

SLOW_FACTOR = 5.0  # with --seconds 20 this stops a run after 100 s, inside run.py's budget


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "machine": platform.machine(),
    }


class Outcomes:
    """Attempted and failed operations, and why they failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []  # failures the benchmark found itself
        self.reported: dict[str, int] = {}  # failures the program reported

    def run(self, op, tracer=None):
        """Run and check one operation; returns (duration, result), or
        (None, None) if it raised."""
        from workloads import WrongResult

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an operation that raises is a failed operation
            self.failed += 1
            self.wrong.append(f"{op.label}: raised {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return None, None
        duration = time.perf_counter() - t0
        if tracer is not None:
            tracer.recording = False
        try:
            message = op.check(result)
        except WrongResult as exc:
            self.failed += 1
            self.wrong.append(str(exc))
        else:
            if message is not None:
                self.failed += 1
                self.reported[message] = self.reported.get(message, 0) + 1
        if tracer is not None:
            tracer.recording = True
        return duration, result


def measure(wl, seconds: float, outcomes: Outcomes, sampler) -> tuple[dict, dict]:
    """Closed loop over the operations the workload plans for ``seconds``.

    The number of operations depends only on the workload and ``seconds``,
    not on how fast they run, so that ``attempted`` and ``failed`` repeat
    exactly for one seed.  Only a run slower than ``SLOW_FACTOR`` times its
    plan stops early.  Timed metrics are at reference speed (see
    ``speed.py``).  ``op_ms_p50`` and ``op2_ms_p50`` are medians over inputs
    of each input's median, so that every input counts once however often
    the plan reaches it.
    """
    work_kinds = wl.work_kinds or wl.rate_kinds
    timings = []  # (op, start, duration, result work)
    cutoff = time.perf_counter() + SLOW_FACTOR * seconds
    for i in range(wl.planned_ops(seconds)):
        if time.perf_counter() > cutoff:
            print(f"run stopped after {i} operations: slower than {SLOW_FACTOR}x plan", file=sys.stderr)
            break
        op = wl.ops[i % len(wl.ops)]
        start = time.perf_counter()
        duration, result = outcomes.run(op)
        if duration is None:
            continue
        timings.append((op, start, duration, op.work(result) if op.kind in work_kinds else None))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    raw: dict[tuple[str, str], list[float]] = {}
    scaled: dict[tuple[str, str], list[float]] = {}
    work = {"units": 0.0, "raw_s": 0.0, "scaled_s": 0.0}
    for op, start, duration, op_work in timings:
        net, at_reference = sampler.scaled(start, start + duration)
        raw.setdefault((op.kind, op.label), []).append(net)
        scaled.setdefault((op.kind, op.label), []).append(at_reference)
        if op_work is not None:
            units, spent = op_work
            share = 1.0 if spent is None else spent / duration
            work["units"] += units
            work["raw_s"] += net * share
            work["scaled_s"] += at_reference * share

    def timed(samples, work_s):
        # A kind whose every operation raised reads 0; that run is incorrect.
        def typical_ms(kind):
            medians = [statistics.median(v) for (k, _), v in samples.items() if k == kind]
            return 1e3 * statistics.median(medians) if medians else 0.0

        rate = [d for (kind, _), v in samples.items() if kind in wl.rate_kinds for d in v]
        return {
            "ops_per_s": (len(rate) / sum(rate) if rate else 0.0, "1/s"),
            "op_ms_p50": (typical_ms(wl.primary), "ms"),
            "op2_ms_p50": (typical_ms(wl.secondary), "ms"),
            "work_per_s": (work["units"] / work_s if work_s else 0.0, "1/s"),
        }

    metrics = {"peak_rss_mb": (rss_mb, "MB"), **timed(scaled, work["scaled_s"])}
    samples: dict = {}
    for kind, label in raw:
        samples[kind] = samples.get(kind, 0) + len(raw[kind, label])
    primary = [d for (kind, _), v in raw.items() if kind == wl.primary for d in v]
    if len(primary) >= 100:  # ten samples beyond the 90th percentile
        samples["raw_op_ms_p90"] = statistics.quantiles(primary, n=10)[-1] * 1e3
    samples["raw"] = {k: v for k, (v, _) in timed(raw, work["raw_s"]).items()}
    samples["speed_samples"] = len(sampler.kernel_ms)
    samples["durations_s"] = {
        "raw": {f"{k} | {label}": v for (k, label), v in raw.items()},
        "scaled": {f"{k} | {label}": v for (k, label), v in scaled.items()},
    }
    return metrics, samples


def _layer_metrics(tracer, overhead: float, outcomes: Outcomes) -> dict:
    """Per-layer metrics, name -> (value, unit), from the traced pass's spans."""
    stats = tracer.layer_stats()
    counts = tracer.counts

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def count(name, key):
        return int(counts.get(name, {}).get(key, 0))

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    coords_spans = [s for name, s in stats.items() if name.startswith("coords.")]
    csv_bytes = count("scan.render.csv", "bytes")
    pixels = count("scan.classify_grid", "pixels")
    steps = count("reduction.integrate", "steps")
    return {
        "critical.critical_catalog.ms": (get("critical.critical_catalog", "median_s") * 1e3, "ms"),
        "critical.collinear_configs.ms": (get("critical.collinear_configs", "median_s") * 1e3, "ms"),
        "critical.collinear_configs.share": (
            ratio(get("critical.collinear_configs", "total_s"), get("critical.critical_catalog", "total_s")),
            "frac",
        ),
        "critical.find_critical_shapes.ms": (get("critical.find_critical_shapes", "median_s") * 1e3, "ms"),
        "critical.find_critical_shapes.found": (count("critical.find_critical_shapes", "found"), "count"),
        "critical.catalog_csv.ms": (get("critical.catalog_csv", "median_s") * 1e3, "ms"),
        "critical.entries": (count("critical.critical_catalog", "entries"), "count"),
        "scan.render.csv.ms": (get("scan.render.csv", "median_s") * 1e3, "ms"),
        "scan.render.csv.mb_per_s": (ratio(csv_bytes, get("scan.render.csv", "total_s"), 1e-6), "MB/s"),
        "scan.render.ppm.ms": (get("scan.render.ppm", "median_s") * 1e3, "ms"),
        "scan.render.bytes": (
            sum(int(b.get("bytes", 0)) for name, b in counts.items() if name.startswith("scan.render.")),
            "count",
        ),
        "scan.scan_disk.ms": (get("scan.scan_disk", "median_s") * 1e3, "ms"),
        "scan.classify_grid.mpx_per_s": (ratio(pixels, get("scan.classify_grid", "total_s"), 1e-6), "Mpx/s"),
        "scan.classify_grid.pixels": (pixels, "count"),
        # Computed, not measured: two float64 coordinates in, one int8 class out.
        "scan.classify_grid.computed_mb": (pixels * 17 / 1e6, "MB"),
        "scan.component_census.ms": (get("scan.component_census", "median_s") * 1e3, "ms"),
        "scan.contour_grid.ms": (get("scan.contour_grid", "median_s") * 1e3, "ms"),
        "reduction.integrate.us_per_step": (ratio(get("reduction.integrate", "total_s"), steps, 1e6), "us"),
        "reduction.integrate.steps": (steps, "count"),
        "reduction.integrate.truncated": (count("reduction.integrate", "truncated"), "count"),
        "reduction.Trajectory.to_csv.ms": (get("reduction.Trajectory.to_csv", "median_s") * 1e3, "ms"),
        "reduction.Trajectory.to_csv.bytes": (count("reduction.Trajectory.to_csv", "bytes"), "count"),
        "reduction.eom.us_per_call": (get("reduction.eom", "median_s") * 1e6, "us"),
        "reduction.hamiltonian.us_per_call": (get("reduction.hamiltonian", "median_s") * 1e6, "us"),
        "reduction.relequil_residual.calls": (get("reduction.relequil_residual", "calls"), "count"),
        "hill.shape_eval.calls": (get("hill.shape_eval", "calls"), "count"),
        "hill.orientation_class.calls": (get("hill.orientation_class", "calls"), "count"),
        "hill.membership.calls": (get("hill.membership", "calls"), "count"),
        "coords.transforms.calls": (sum(s["calls"] for s in coords_spans), "count"),
        "coords.transforms.self_s": (sum(s["self_s"] for s in coords_spans), "s"),
        "verify.verify_all.self_s": (get("verify.verify_all", "self_s"), "s"),
        "verify.checks": (count("verify.verify_all", "checks"), "count"),
        "verify.checks_failed": (count("verify.verify_all", "checks_failed"), "count"),
        "trace.overhead_frac": (overhead, "frac"),
        "bench.fail_frac": (ratio(outcomes.failed, outcomes.attempted), "frac"),
    }


def trace_run(wl, tracer, outcomes: Outcomes) -> dict:
    """Run each operation of the fixed prefix twice, untraced and traced.

    The order alternates from one operation to the next, so that neither
    side always runs with the caches the other one warmed.
    """
    untraced_outcomes = Outcomes()
    plain = traced = 0.0
    for k, op in enumerate(wl.ops[: wl.trace_ops]):
        for traced_turn in ((False, True) if k % 2 == 0 else (True, False)):
            if not traced_turn:
                duration, _ = untraced_outcomes.run(op)
                plain += duration or 0.0
                continue
            tracer.install()
            tracer.current_op = k
            tracer.recording = True
            duration, _ = outcomes.run(op, tracer)
            tracer.recording = False
            tracer.uninstall()
            traced += duration or 0.0
    return _layer_metrics(tracer, traced / plain - 1.0 if plain else 0.0, outcomes)


def main(argv=None) -> int:
    args = _parse_args(argv)
    sampler = None
    if not args.trace:
        import speed

        sampler = speed.SpeedSampler()
        sampler.start()
    t_start = time.perf_counter()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    before = len(sys.modules)
    t0 = time.perf_counter()
    import trihill  # noqa: F401

    imports = {
        "trihill_s": time.perf_counter() - t0,
        "modules": len(sys.modules) - before,
        "scipy_ndimage_loaded": int("scipy.ndimage" in sys.modules),
    }
    import spans
    import workloads

    tracer = None
    if args.trace and not args.setup_only:
        tracer = spans.Tracer()
        tracer.install()
        tracer.recording = True
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if tracer is not None:
        tracer.recording = False
        tracer.uninstall()
    t_ready = time.perf_counter()
    print("READY", flush=True)
    result = {"imports": imports}
    if sampler is not None:
        net, at_reference = sampler.scaled(t_start, t_ready)
        result["setup"] = {"handler_s": (t_ready - t_start) - net, "speed": at_reference / net}
    if not args.setup_only:
        outcomes = Outcomes()
        if tracer is None:
            metrics, samples = measure(wl, args.seconds, outcomes, sampler)
        else:
            metrics, samples = trace_run(wl, tracer, outcomes), {"traced_ops": wl.trace_ops}
            os.makedirs(".perfbench_out", exist_ok=True)
            tracer.save(f".perfbench_out/spans-{args.workload}-seed{args.seed}.npz")
        try:
            wl.final_checks()
        except workloads.WrongResult as exc:
            outcomes.wrong.append(str(exc))
        result.update(
            attempted=outcomes.attempted,
            failed=outcomes.failed,
            wrong=outcomes.wrong[:20],
            reported=outcomes.reported,
            metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            samples=samples,
            env=_environment(args.seed),
        )
    if sampler is not None:
        sampler.stop()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
