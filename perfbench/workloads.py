"""The four benchmark workloads: seeded inputs, operations and their checks.

Every workload is one closed-loop client in one process: it builds its
inputs from the seed in ``__init__`` (the set-up), then offers a fixed
sequence of operations that the runner cycles through.  An operation's
``run`` calls trihill's public functions by module attribute, so that a
tracer installed later sees the calls.  Its ``check`` returns ``None`` when
the result is right, returns a message when the program itself reported a
failed check (``verify`` FAIL lines), and raises ``WrongResult`` when the
benchmark finds a wrong result.
"""

from __future__ import annotations

import itertools
import math
import re
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from trihill import coords, critical, hill, reduction, scan, systems, verify

PRESET_NAMES = ("gravity-demo", "helium", "eep")


class WrongResult(Exception):
    """A result the benchmark's own checks reject."""


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    work: Callable[[object], tuple[float, float | None]] = lambda result: (1.0, None)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongResult(message)


def random_system(rng: np.random.Generator) -> systems.BodySystem:
    """Masses U(0.1, 5), couplings U(-3, 3), read through the system-file parser."""
    m = " ".join(repr(float(x)) for x in rng.uniform(0.1, 5.0, 3))
    a = " ".join(repr(float(x)) for x in rng.uniform(-3.0, 3.0, 3))
    text = f"# generated by perfbench\nmasses {m}\nalphas {a}\n"
    return systems.parse_system(text)


def _presets() -> list[tuple[str, systems.BodySystem]]:
    return [(name, systems.preset(name)) for name in PRESET_NAMES]


def _random_systems(rng, count: int) -> list[tuple[str, systems.BodySystem]]:
    return [(f"random{i}", random_system(rng)) for i in range(count)]


class Workload:
    """Inputs built from the seed plus the operation sequence over them."""

    name = ""
    index = 0  # keeps the workloads' random streams apart for one seed
    # End-to-end metric map: ops_per_s counts ``rate_kinds``; op_ms_p50 and
    # op2_ms_p50 are medians over ``primary`` and ``secondary`` inputs;
    # work_per_s sums the work units of ``work_kinds`` (default rate_kinds).
    primary = secondary = ""
    rate_kinds: tuple[str, ...] = ()
    work_kinds: tuple[str, ...] = ()
    trace_ops = 0  # the traced pass runs this prefix of ``ops`` once
    # Operations an untraced run makes per second asked for: about what this
    # workload completes per second on 2 vCPUs of a shared Xeon host.
    planned_rate = 0.0

    def __init__(self, seed: int):
        self.rng = np.random.default_rng((seed, self.index))
        self.ops: list[Op] = []

    def planned_ops(self, seconds: float) -> int:
        """Operations for a run of ``seconds``, and at least enough to reach
        every kind an end-to-end metric needs."""
        needed = {self.primary, self.secondary, *self.rate_kinds, *self.work_kinds}
        seen: set[str] = set()
        prefix = 0
        while not needed <= seen:
            seen.add(self.ops[prefix % len(self.ops)].kind)
            prefix += 1
        return max(prefix, round(self.planned_rate * seconds))

    def final_checks(self) -> None:
        """Checks on a sample of the inputs, run once after the loop."""


# ---------------------------------------------------------------------------


class CatalogWorkload(Workload):
    name, index = "catalog", 1
    primary, secondary, rate_kinds = "catalog", "search", ("catalog",)
    work_kinds = ("search",)  # principal axes searched per second
    planned_rate = 3.8
    n_random = 45
    search_every = 3  # systems 0, 3, 6, ... also run the critical-shape search
    trace_ops = 21

    def __init__(self, seed: int):
        super().__init__(seed)
        self.systems = _presets() + _random_systems(self.rng, self.n_random)
        for i, (label, system) in enumerate(self.systems):
            self.ops.append(self._catalog_op(label, system))
            if i % self.search_every == 0:
                self.ops.append(self._search_op(label, system))

    def _catalog_op(self, label, system) -> Op:
        def run():
            entries = critical.critical_catalog(system)
            return entries, critical.catalog_csv(entries)

        def check(result):
            entries, text = result
            nus = [cv.nu for cv in entries]
            _expect(all(math.isfinite(nu) for nu in nus), f"{label}: non-finite nu")
            _expect(nus == sorted(nus), f"{label}: catalog not sorted")
            rows = text.splitlines()
            _expect(len(rows) == len(entries) + 1, f"{label}: CSV has {len(rows)} rows")
            for row, nu in zip(rows[1:], nus):
                got = float(row.split(",", 1)[0])
                _expect(abs(got - nu) <= 1e-11 * max(1.0, abs(nu)), f"{label}: CSV nu {got} != {nu}")
            if label in verify.CATALOG_REFERENCES:
                refs = verify.CATALOG_REFERENCES[label]
                _expect(len(entries) == len(refs), f"{label}: {len(entries)} entries, want {len(refs)}")
                for cv, (ref, fam, tol) in zip(entries, refs):
                    err = abs(cv.nu - ref) / abs(ref) if ref else abs(cv.nu)
                    _expect(
                        cv.family == fam and err <= tol,
                        f"{label}: {cv.family} nu={cv.nu!r} vs reference {fam} {ref}",
                    )
            return None

        return Op("catalog", label, run, check)

    def _search_op(self, label, system) -> Op:
        def run():
            return [critical.find_critical_shapes(system, k) for k in (1, 2, 3)]

        def check(result):
            for k, found in zip((1, 2, 3), result):
                for shape, nu in found:
                    _expect(
                        math.isfinite(nu) and nu > 0.0 and shape.radius < 1.0,
                        f"{label}: axis {k} critical shape {shape} nu={nu!r}",
                    )
            return None

        return Op("search", label, run, check, lambda result: (3.0, None))

    def final_checks(self) -> None:
        """The catalog's nu list is invariant under all six relabellings."""
        for label, system in self.systems[len(PRESET_NAMES) : len(PRESET_NAMES) + 2]:
            base = [cv.nu for cv in critical.critical_catalog(system)]
            for perm in itertools.permutations((1, 2, 3)):
                got = [cv.nu for cv in critical.critical_catalog(system.permuted(perm))]
                _expect(
                    len(got) == len(base)
                    and all(abs(a - b) <= 1e-9 * max(1.0, abs(a)) for a, b in zip(got, base)),
                    f"{label}: catalog changes under relabelling {perm}",
                )


# ---------------------------------------------------------------------------


class HillWorkload(Workload):
    name, index = "hill", 2
    primary, secondary, rate_kinds = "frame", "contour", ("frame", "frame_small")
    planned_rate = 2.2
    n_random = 2
    resolutions = (("frame", 400), ("frame_small", 128))  # 400 is the CLI default
    contour_res = 400
    pixel_samples = 24

    def __init__(self, seed: int):
        super().__init__(seed)
        self.systems = _presets() + _random_systems(self.rng, self.n_random)
        for label, system in self.systems:
            nus = sorted({cv.nu for cv in critical.critical_catalog(system)})
            sweep = [0.5 * (a + b) for a, b in zip(nus, nus[1:])] + [1.25 * nus[-1] + 0.1]
            contours = [self._contour_op(label, system, k) for k in (1, 2, 3)]
            # Contours spread through the sweep, so that their samples are
            # not all taken within a few seconds of one another.
            every = max(1, len(sweep) // len(contours))
            for i, nu in enumerate(sweep, start=1):
                for kind, res in self.resolutions:
                    self.ops.append(self._frame_op(kind, label, system, nu, res))
                if i % every == 0 and contours:
                    self.ops.append(contours.pop(0))
            self.ops.extend(contours)
            if not self.trace_ops:
                self.trace_ops = len(self.ops)  # the first system's sweep

    def _frame_op(self, kind, label, system, nu, res) -> Op:
        tag = f"{label} nu={nu:.6g} res={res}"

        def run():
            result = scan.scan_disk(system, nu, res)
            census = scan.component_census(result)
            return result, census, scan.render(result, "ppm"), scan.render(result, "csv")

        def check(out):
            result, census, ppm, csv = out
            cells = result.cells
            _expect(np.array_equal(_decode_ppm(ppm, res), cells), f"{tag}: PPM does not decode to the scan")
            _expect(np.array_equal(_decode_scan_csv(csv, res), cells), f"{tag}: CSV does not decode to the scan")
            for cls in (scan.CellClass.EMPTY, scan.CellClass.CAPS, scan.CellClass.RING, scan.CellClass.FULL):
                present = bool((cells == cls).any())
                _expect((census.counts[cls] > 0) == present, f"{tag}: census count for {cls.name}")
            c = scan.pixel_centers(res)
            ii, jj = np.nonzero(cells >= scan.CellClass.EMPTY)
            pick = self.rng.choice(len(ii), size=min(self.pixel_samples, len(ii)), replace=False)
            for p in pick:
                i, j = ii[p], jj[p]
                want = int(hill.orientation_class(system, nu, coords.Shape(c[i], c[j])))
                _expect(int(cells[i, j]) - scan.CellClass.EMPTY == want, f"{tag}: pixel ({i},{j}) class")
            return None

        return Op(kind, tag, run, check, lambda out: (float(res * res), None))

    def _contour_op(self, label, system, k) -> Op:
        tag = f"{label} contour k={k}"
        n = self.contour_res

        def run():
            grid = scan.contour_grid(system, k, n)
            return grid, scan.render(grid, "csv")

        def check(out):
            grid, csv = out
            fields = _csv_fields(csv, n, b"w1,w2,value")
            got = np.array(fields[2::3]).astype(float).reshape(n, n)
            want = grid.values
            with np.errstate(invalid="ignore"):
                close = np.abs(got - want) <= 1e-11 * np.maximum(1.0, np.abs(want))
            same = close | (got == want) | (np.isnan(got) & np.isnan(want))
            _expect(bool(same.all()), f"{tag}: CSV values differ from the grid")
            return None

        return Op("contour", tag, run, check)


_CLASS_NAMES = np.array([c.name.encode() for c in sorted(scan.CellClass)])


def _csv_fields(data: bytes, n: int, header: bytes) -> list[bytes]:
    first, body = data.split(b"\n", 1)
    _expect(first == header, f"CSV header {first!r}")
    fields = body.replace(b"\n", b",").split(b",")
    if len(fields) != 3 * n * n + 1 or fields[-1] != b"":
        raise WrongResult(f"CSV has {len(fields) // 3} rows, want {n * n}")
    return fields[:-1]


def _decode_scan_csv(data: bytes, n: int) -> np.ndarray:
    fields = _csv_fields(data, n, b"w1,w2,class")
    c = scan.pixel_centers(n)
    for row in (0, n * n // 2 + n // 3, n * n - 1):
        i, j = divmod(row, n)
        _expect(
            abs(float(fields[3 * row]) - c[i]) < 1e-11 and abs(float(fields[3 * row + 1]) - c[j]) < 1e-11,
            f"scan CSV row {row} coordinates",
        )
    names = np.array(fields[2::3])
    cells = np.full(n * n, -1, dtype=np.int8)
    for code, name in enumerate(_CLASS_NAMES):
        cells[names == name] = code
    return cells.reshape(n, n)


def _decode_ppm(data: bytes, n: int) -> np.ndarray:
    header = f"P6\n{n} {n}\n255\n".encode()
    _expect(data.startswith(header) and len(data) == len(header) + 3 * n * n, "PPM header or size")
    rgb = np.frombuffer(data, dtype=np.uint8, offset=len(header)).reshape(n, n, 3)
    img = np.full((n, n), -1, dtype=np.int8)
    for cls, color in scan.PALETTE.items():
        img[(rgb == np.array(color, dtype=np.uint8)).all(axis=-1)] = int(cls)
    return np.flipud(img).T


# ---------------------------------------------------------------------------


class DynamicsWorkload(Workload):
    name, index = "dynamics", 3
    primary, secondary = "trajectory", "relequil"
    rate_kinds = ("trajectory", "relequil")
    dt = 1e-3  # the CLI's documented step
    planned_rate = 3.6
    nsteps = 2000
    n_random_systems = 6
    relequil_per_entry = 5
    random_per_relequil = 4
    # dt = 1e-3 resolves the relative-equilibrium rotation only for r >= 1;
    # below that RK4 at this step loses the orbit by design, not by a defect.
    relequil_r = (1.0, 2.0)
    trace_ops = 20

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        relequil = []
        for label, system in _presets():
            for cv in critical.critical_catalog(system):
                if cv.family in ("lagrange", "langmuir"):
                    for r in rng.uniform(*self.relequil_r, self.relequil_per_entry):
                        state = verify.build_relequil_state(system, cv, float(r))
                        relequil.append((f"{label} {cv.family} r={r:.4f}", system, state))
        pool = _presets() + _random_systems(rng, self.n_random_systems)
        starts = []
        for i in range(self.random_per_relequil * len(relequil)):
            label, system = pool[i % len(pool)]
            starts.append((f"{label} start{i}", system, self._rigid_start(rng)))
        for i, (label, system, state) in enumerate(relequil):
            for label2, system2, state2 in starts[i * self.random_per_relequil : (i + 1) * self.random_per_relequil]:
                self.ops.append(self._trajectory_op("trajectory", label2, system2, state2))
            self.ops.append(self._trajectory_op("relequil", label, system, state))

    @staticmethod
    def _rigid_start(rng) -> reduction.RovibState:
        """Rigidly rotating start at a random interior shape, built as the CLI does."""
        while True:
            w1, w2 = rng.uniform(-0.95, 0.95, 2)
            if math.hypot(w1, w2) < 0.95:
                break
        jh = rng.normal(0.0, 1.0, 3)
        jh /= np.linalg.norm(jh)
        r = float(rng.uniform(0.5, 2.0))
        j = coords.Shape(float(w1), float(w2)).to_jacobi()
        _, axes = reduction.principal_axes(j)
        J = r * (axes @ jh)
        a_phi = j.rho2**2 / (j.rho1**2 + j.rho2**2)
        return reduction.RovibState(np.array([j.rho1, j.rho2, j.phi]), np.array([0.0, 0.0, J[2] * a_phi]), J)

    def _trajectory_op(self, kind, label, system, state) -> Op:
        def run():
            t0 = time.perf_counter()
            traj, report = reduction.integrate(system, state, self.dt, self.nsteps)
            integrate_s = time.perf_counter() - t0
            return traj, report, traj.to_csv(), integrate_s

        def check(out):
            traj, report, text, _ = out
            _expect(
                math.isfinite(report.energy_drift) and math.isfinite(report.momentum_drift),
                f"{label}: non-finite drift",
            )
            _expect(report.ok or bool(report.message), f"{label}: truncated without a message")
            _expect(text.count("\n") == len(traj) + 1, f"{label}: CSV row count")
            if kind == "relequil":
                tol = 1e-8 * abs(traj.energy[0])
                _expect(report.ok and report.energy_drift <= tol, f"{label}: energy drift {report.energy_drift:.3g}")
            return None

        return Op(kind, label, run, check, lambda out: (float(len(out[0]) - 1), out[3]))


# ---------------------------------------------------------------------------

_CHECK_LINE = re.compile(r"^CHECK (\S+) (PASS|FAIL) measured=(\S+) tol=(\S+)( \(.*\))?$")


class VerifyWorkload(Workload):
    name, index = "verify", 4
    primary, secondary = "verify_random", "verify_preset"
    rate_kinds = ("verify_random", "verify_preset")
    n_random = 12  # six blocks, so that every preset runs twice per pass
    random_per_preset = 2
    planned_rate = 0.9  # with --seconds 20, one pass: every system once
    trace_ops = 6

    def __init__(self, seed: int):
        super().__init__(seed)
        presets = _presets()
        randoms = _random_systems(self.rng, self.n_random)
        per = self.random_per_preset
        for block in range(len(randoms) // per):
            for label, system in randoms[block * per : (block + 1) * per]:
                self.ops.append(self._verify_op("verify_random", label, system))
            label, system = presets[block % len(presets)]
            self.ops.append(self._verify_op("verify_preset", label, system))

    def _verify_op(self, kind, label, system) -> Op:
        def run():
            return verify.verify_all(system, deep=True)

        def check(report):
            lines = report.text().splitlines()
            _expect(len(lines) == len(report.checks) > 0, f"{label}: report has {len(lines)} lines")
            parsed = [_CHECK_LINE.match(line) for line in lines]
            _expect(all(parsed), f"{label}: malformed CHECK line")
            failed = [m.group(1) for m in parsed if m.group(2) == "FAIL"]
            _expect(report.ok == (not failed), f"{label}: report.ok disagrees with its lines")
            if not failed:
                return None
            message = f"{label}: FAIL {' '.join(failed)}"
            if kind == "verify_preset":
                raise WrongResult(message)  # every preset check passes at the baseline
            return message

        return Op(kind, label, run, check, lambda report: (float(len(report.checks)), None))


WORKLOADS = {w.name: w for w in (CatalogWorkload, HillWorkload, DynamicsWorkload, VerifyWorkload)}
