"""Span recorder installed around trihill's public functions.

Each measured function is replaced, in every trihill module that binds it,
by a wrapper that records one span (name, start, end, parent, operation)
and the counts its result carries.  Spans live in flat arrays in memory and
are written out once, when the run ends.  Nothing under ``src/`` changes:
``uninstall`` puts the original objects back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np
from trihill.scan import ShapeScan


def _catalog_counts(result, args, kwargs):
    return {"entries": len(result)}


def _search_counts(result, args, kwargs):
    return {"found": len(result)}


def _classify_counts(result, args, kwargs):
    return {"pixels": int(np.size(result))}


def _bytes_counts(result, args, kwargs):
    return {"bytes": len(result)}


def _integrate_counts(result, args, kwargs):
    traj, report = result
    return {"steps": len(traj) - 1, "truncated": int(not report.ok)}


def _verify_counts(result, args, kwargs):
    return {
        "checks": len(result.checks),
        "checks_failed": sum(not c.passed for c in result.checks),
    }


def _render_name(args, kwargs):
    """Names render spans by what they encode: csv, ppm or grid_csv."""
    fmt = args[1] if len(args) > 1 else kwargs["fmt"]
    return f"scan.render.{fmt}" if isinstance(args[0], ShapeScan) else f"scan.render.grid_{fmt}"


COORDS_TRANSFORMS = (
    "w_from_jacobi",
    "jacobi_from_w",
    "dragt_from_w",
    "w_from_dragt",
    "dragt_from_jacobi",
    "jacobi_from_dragt",
    "dilate",
    "moment_of_inertia",
    "normalize_shape",
    "xxy_section",
    "positions_from_jacobi",
    "jacobi_from_positions",
    "collision_angles",
    "pair_geometry",
    "distances_from_w",
    "distances_from_dragt",
    "distances_from_jacobi",
)

# (module, attribute, counts hook).  The span name is "<module>.<attribute>"
# except for ``render``, which is named by what it encodes.
TARGETS = (
    [("coords", name, None) for name in COORDS_TRANSFORMS]
    + [
        ("systems", "parse_system", None),
        ("hill", "shape_eval", None),
        ("hill", "orientation_class", None),
        ("hill", "membership", None),
        ("reduction", "eom", None),
        ("reduction", "hamiltonian", None),
        ("reduction", "relequil_residual", None),
        ("reduction", "integrate", _integrate_counts),
        ("reduction", "Trajectory.to_csv", _bytes_counts),
        ("critical", "collinear_configs", None),
        ("critical", "find_critical_shapes", _search_counts),
        ("critical", "critical_catalog", _catalog_counts),
        ("critical", "catalog_csv", _bytes_counts),
        ("scan", "classify_grid", _classify_counts),
        ("scan", "scan_disk", None),
        ("scan", "component_census", None),
        ("scan", "contour_grid", None),
        ("scan", "render", _bytes_counts),
        ("verify", "build_relequil_state", None),
        ("verify", "verify_all", _verify_counts),
    ]
)


class Tracer:
    """In-memory span store plus the attribute patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.current_op = -1
        self.recording = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, name: str, fn, counts=None, namer=None):
        name_id, names, parents, ops = self._name_id(name), self.name, self.parent, self.op
        starts, ends, stack, clock = self.start, self.end, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span_name = namer(args, kwargs) if namer else name
            idx = len(starts)
            names.append(self._name_id(span_name) if namer else name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counts is not None:
                bucket = self.counts[span_name]
                for key, value in counts(result, args, kwargs).items():
                    bucket[key] += value
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each target inside the trihill package."""
        import trihill  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "trihill"]
        for modname, attr, counts in TARGETS:
            owner = sys.modules[f"trihill.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, self.wrap(f"{modname}.{attr}", orig, counts))
                continue
            orig = getattr(owner, attr)
            namer = _render_name if (modname, attr) == ("scan", "render") else None
            wrapped = self.wrap(f"{modname}.{attr}", orig, counts, namer)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)

    def _patch(self, obj, attr: str, new) -> None:
        self._patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, new)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, dur, dur - child

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, median call seconds."""
        name, dur, self_time = self.arrays()
        out = {}
        for idx, span_name in enumerate(self.names):
            sel = name == idx
            if not sel.any():
                continue
            out[span_name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
                "median_s": float(np.median(dur[sel])),
            }
        return out

    def save(self, path) -> None:
        name, dur, self_time = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            self_s=self_time,
        )
