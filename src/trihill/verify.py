"""End-to-end verification: relative-equilibrium dynamics and invariant suites.

Ties the critical-value catalog to the reduced dynamics: every catalog entry
with a rotation axis, except the diabolic pseudo-critical point, is checked
as stored against the generic critical-shape search, and its start must be
held fixed for RELEQUIL_STEPS steps (an unstable one within its horizon),
with E = V/2 and nu = -E r^2 recovered tightly.  ``verify_all`` aggregates
these dynamical checks with catalog regressions against reference values
and randomized invariant suites into a line-oriented report.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .coords import (
    JacobiShapeCoords,
    Shape,
    _rim_point,
    collision_angles,
    dilate,
    dragt_from_w,
    jacobi_from_w,
    positions_from_jacobi,
    w_from_dragt,
    w_from_jacobi,
)
from .critical import (
    CriticalValue,
    _diabolic_event,
    _relequil_certificate,
    build_relequil_state,
    critical_catalog,
    find_critical_shapes,
    langmuir_geometry,
)
from .hill import class_codes, membership, moments, nu_threshold, shape_eval, shape_value
from .reduction import (
    SPECTRUM_STEPS,
    SPECTRUM_TOL,
    RovibState,
    Spectrum,
    _chart_table,
    _energies,
    _flow,
    hamiltonian,
    inertia,
    integrate,
    relequil_spectrum,
)
from .scan import _component_rows, euler_characteristics, scan_disk
from .systems import PRESETS, BodySystem

VIRIAL_DT_FACTOR = 1e-3  # dt = factor * (2 pi r / |V|), the rotation period
RELEQUIL_R = 1.0  # |J| of the relative-equilibrium starts
RELEQUIL_STEPS = 10_000  # the run of an entry that is stable over that many steps
# The horizon of an unstable entry (see ``_relequil_checks``): its drift is
# read over DRIFT_EFOLDS e-folds, and a start PERTURBATION away must grow at
# max Re lambda, within GROWTH_RTOL, while its distance lies in FIT_WINDOW.
DRIFT_EFOLDS = 10.0
PERTURBATION = 1e-10
FIT_WINDOW = (1e-9, 1e-4)
GROWTH_RTOL = 0.05
COMPLEX_STEP = 1e-30  # the imaginary step of ``_energy_field``


def _worst(*values: float) -> float:
    """The largest of ``values``, or NaN when any of them is NaN.

    Python's ``max`` keeps a NaN only when it comes first, so a worst case
    taken with ``max`` lets a NaN measurement pass its check.
    """
    if any(map(math.isnan, values)):
        return math.nan
    return max(values)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    measured: float
    tol: float
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"CHECK {self.name} {status} measured={self.measured:.6g} tol={self.tol:.6g}"
        if self.note:
            out += f" ({self.note})"
        return out


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, measured: float, tol: float, note: str = "") -> None:
        self.checks.append(Check(name, bool(measured <= tol), float(measured), float(tol), note))

    def add_flag(self, name: str, ok: bool, note: str = "") -> None:
        self.checks.append(Check(name, bool(ok), 0.0 if ok else 1.0, 0.5, note))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def text(self) -> str:
        return "\n".join(c.line() for c in self.checks) + "\n"


# Reference catalogs.  Values are the published decimals; each carries the
# relative tolerance it actually satisfies against the exact formulas (the
# helium Langmuir decimal is only accurate to about 8 significant digits).
CATALOG_REFERENCES: dict[str, list[tuple[float, str, float]]] = {
    "gravity-demo": [
        (0.0, "zero", 1e-9),
        (0.3927272727, "infinity", 1e-9),
        (0.7876923077, "infinity", 1e-9),
        (1.263908571, "infinity", 1e-9),
        (6.961348535, "diabolic", 1e-9),
        (13.83605894, "lagrange", 1e-9),
        (18.56904438, "collinear", 1e-6),
        (19.12865697, "collinear", 1e-6),
        (19.44296212, "collinear", 1e-6),
    ],
    "helium": [
        (0.0, "zero", 1e-9),
        (1.999725672, "infinity", 1e-9),
        (5.420669550, "diabolic", 1e-9),
        (6.748148600, "langmuir", 2e-8),
        (12.25, "collinear", 1e-9),
    ],
    "eep": [
        (0.0, "zero", 1e-9),
        (0.25, "infinity", 1e-9),
        (0.2925594730, "langmuir", 1e-9),
        (2.25, "collinear", 1e-9),
    ],
}


def _langmuir_force_residual(system: BodySystem) -> float:
    """Worst force-balance residual of the isosceles configuration.

    Solves the spin rate from the apex body's radial balance, then checks
    the remaining radial and vertical balances, all at leg length a = 1.
    """
    geom = langmuir_geometry(system)
    i, j = geom.like_pair
    g_like = system.pair_coupling(i, j)
    g_cross = system.pair_coupling(i, geom.apex)
    m_like = system.masses[i - 1]
    m_apex = system.masses[geom.apex - 1]
    sin_t, cos_t = math.sin(geom.theta), math.cos(geom.theta)
    omega2 = 2.0 * g_cross * cos_t / (m_apex * geom.c)
    r_apex = m_apex * omega2 * geom.c - 2.0 * g_cross * cos_t
    r_side = m_like * omega2 * geom.d - g_cross * cos_t
    r_vert = g_like / (2.0 * geom.b) ** 2 + g_cross * sin_t
    return _worst(abs(r_apex), abs(r_side), abs(r_vert))


def _energy_field(table, Y: np.ndarray) -> np.ndarray:
    """The flow that H implies at each real row (q, p, J) of the (N, 9)
    array ``Y``: (dH/dp, -dH/dq, J x dH/dJ), an (N, 9) array.  H is
    complex-analytic on the chart, so dH/dy_k = Im H(y + i h e_k) / h to
    rounding, with h = COMPLEX_STEP and no step rule (Squire & Trapp, SIAM
    Rev. 40, 1998); the nine energies of every row come from one
    ``_energies`` call over N * 9 complex rows."""
    rows = (Y[:, None, :] + 1j * COMPLEX_STEP * np.eye(9)).reshape(-1, 9)
    with np.errstate(all="ignore"):
        dH = _energies(table, rows).imag.reshape(-1, 9) / COMPLEX_STEP
    return np.concatenate([dH[:, 3:6], -dH[:, :3], np.cross(Y[:, 6:], dH[:, 6:])], axis=1)


def _linearization_error(system: BodySystem, state: RovibState, spectrum: Spectrum) -> float:
    """How far the flow's Jacobian (``spectrum.jacobian``) is from the one
    the energy implies, as the worst entry of their difference over the
    largest entry of the latter, both in the spectrum's natural units.

    The energy's Jacobian is the spectrum's own central difference, at the
    first step of ``SPECTRUM_STEPS`` times ``spectrum.scales``, applied to
    ``_energy_field`` at the same 18 displaced states as the flow.
    """
    h = SPECTRUM_STEPS[0]
    steps = np.diag(h * spectrum.scales)
    y = state.flat()
    field = _energy_field(_chart_table(system), np.concatenate([y + steps, y - steps]))
    want = (field[:9] - field[9:]).T * (0.5 * spectrum.period / h) / spectrum.scales[:, None]
    return float(np.max(np.abs(spectrum.jacobian - want)) / np.max(np.abs(want)))


def _relequil_checks(report: VerificationReport, system: BodySystem, entry: CriticalValue) -> None:
    """The relative equilibrium behind ``entry``, started at |J| = RELEQUIL_R.

    ``residual``, ``virial`` and ``nu_roundtrip`` read the start.
    ``stability`` is the certificate of ``relequil_spectrum`` at the start:
    the eigenvalues at its two steps agree to ``SPECTRUM_TOL``; the note
    gives max Re lambda times the rotation period.  ``linearization`` checks
    the spectrum's Jacobian against the energy's (``_linearization_error``)
    to the same tolerance, so that the spectrum is that of H and not only
    that of the flow's code.

    A float start lies about 1e-16 off the equilibrium, and an unstable one
    multiplies that by e once per 1 / (max Re lambda dt) steps, so a run
    checks the equilibrium only over as many e-folds as its tolerances
    allow.  With the horizon H = ln(FIT_WINDOW[1] / PERTURBATION) /
    (max Re lambda dt) steps:

    * an entry whose horizon is RELEQUIL_STEPS or more (every stable one)
      is run for RELEQUIL_STEPS steps, and ``qp_drift`` (1e-6),
      ``energy_drift`` (1e-8 |E|) and ``J_drift`` (1e-10) are read over it;
    * any other is run for H steps.  ``qp_drift`` is read over the first
      DRIFT_EFOLDS e-folds, ``energy_drift`` and ``J_drift`` over the run.
      A second run of H steps starts PERTURBATION away (a seeded direction,
      in the spectrum's scales); ``growth_rate`` fits the slope of the log
      of the two runs' scaled distance where it lies within FIT_WINDOW,
      and it must match max Re lambda to GROWTH_RTOL.

    ``complete`` says whether the (first) run reached its last step.
    """
    tag = entry.family
    r = RELEQUIL_R
    state = build_relequil_state(system, entry, r)
    report.add(f"{tag}.residual", _relequil_certificate(system, state), 1e-8)

    E = hamiltonian(system, state)
    # V is the energy at rest, p = J = 0: NaN, and a FAIL, where the flow fails
    V = hamiltonian(system, RovibState(state.q, np.zeros(3), np.zeros(3)))
    report.add(f"{tag}.virial", abs(E - 0.5 * V), 1e-10 * abs(V), "E = V/2")
    report.add(
        f"{tag}.nu_roundtrip",
        abs(-E * r * r - entry.nu) / entry.nu,
        1e-9,
        "nu = -E r^2 vs catalog",
    )

    spectrum = relequil_spectrum(system, state)
    report.add(
        f"{tag}.stability",
        spectrum.disagreement,
        SPECTRUM_TOL,
        f"max Re lambda T = {spectrum.growth:.6g}, {'stable' if spectrum.stable else 'unstable'}",
    )
    report.add(
        f"{tag}.linearization",
        _linearization_error(system, state, spectrum),
        SPECTRUM_TOL,
        "flow Jacobian vs P grad^2 H",
    )
    dt = VIRIAL_DT_FACTOR * 2.0 * math.pi * r / abs(V)
    lam = spectrum.growth / spectrum.period  # NaN where the flow failed: no horizon, a full run
    horizon = math.log(FIT_WINDOW[1] / PERTURBATION) / (lam * dt) if lam * dt > 0.0 else math.inf
    unstable = horizon < RELEQUIL_STEPS
    nsteps = math.ceil(horizon) if unstable else RELEQUIL_STEPS
    traj, cons = integrate(system, state, dt, nsteps)
    report.add_flag(f"{tag}.complete", cons.ok, cons.message or f"{nsteps} steps")
    qp = traj.states[:, :6]
    if unstable:
        qp = qp[: math.ceil(DRIFT_EFOLDS / (lam * dt)) + 1]
    drift = float(np.max(np.abs(qp - qp[0])))
    report.add(f"{tag}.qp_drift", drift, 1e-6, f"{len(qp) - 1} of {nsteps} steps" if unstable else "")
    report.add(f"{tag}.energy_drift", cons.energy_drift / abs(E), 1e-8, "|dH|/|E|")
    report.add(f"{tag}.J_drift", cons.momentum_drift, 1e-10)
    if not unstable:
        return

    direction = _kick_direction()
    kick = PERTURBATION * spectrum.scales * direction / np.linalg.norm(direction)
    kicked, _ = integrate(system, RovibState.from_flat(state.flat() + kick), dt, nsteps)
    n = min(len(traj), len(kicked))
    gap = np.linalg.norm((kicked.states[:n] - traj.states[:n]) / spectrum.scales, axis=1)
    fit = (gap >= FIT_WINDOW[0]) & (gap <= FIT_WINDOW[1])
    rate = np.polyfit(traj.t[:n][fit], np.log(gap[fit]), 1)[0] if fit.sum() > 1 else math.nan
    report.add(
        f"{tag}.growth_rate",
        abs(rate / lam - 1.0),
        GROWTH_RTOL,
        f"fit {rate:.6g} vs max Re lambda {lam:.6g}",
    )


@functools.cache
def _kick_direction() -> np.ndarray:
    """The seeded direction (9,) of ``_relequil_checks``' kicked start, not
    yet normalised; drawn once per process, read-only."""
    direction = np.random.default_rng(1875).normal(0.0, 1.0, 9)
    direction.setflags(write=False)
    return direction


def _roundtrip_suite(report: VerificationReport, samples: int) -> None:
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(samples):
        rho1, rho2 = rng.uniform(0.1, 3.0, 2)
        phi = rng.uniform(0.05, math.pi - 0.05)
        j = JacobiShapeCoords(rho1, rho2, phi)
        w = w_from_jacobi(j)
        j2 = jacobi_from_w(w)
        d = dragt_from_w(w)
        w2 = w_from_dragt(d)
        scale = max(1.0, rho1, rho2)
        err = _worst(
            abs(j2.rho1 - rho1) / scale,
            abs(j2.rho2 - rho2) / scale,
            abs(j2.phi - phi),
            abs(w2.w1 - w.w1) / max(1.0, w.norm),
            abs(w2.w2 - w.w2) / max(1.0, w.norm),
            abs(w2.w3 - w.w3) / max(1.0, w.norm),
        )
        worst = _worst(worst, err)
    report.add("coords.roundtrip", worst, 1e-10, f"{samples} samples")


def _inertia_suite(report: VerificationReport, samples: int) -> None:
    rng = np.random.default_rng(77)
    worst_sum = worst_tr = worst_hom = 0.0
    for _ in range(samples):
        rho1, rho2 = rng.uniform(0.05, 4.0, 2)
        phi = rng.uniform(0.0, math.pi)
        j = JacobiShapeCoords(rho1, rho2, phi)
        data = inertia(j)
        m1, m2, m3 = data.principal
        scale = max(1.0, data.I)
        worst_sum = _worst(worst_sum, abs(m1 + m2 - m3) / scale)
        worst_tr = _worst(worst_tr, abs(0.5 * np.trace(data.tensor) - data.I) / scale)
        lam = float(rng.uniform(1e-3, 1e3))
        scaled = inertia(dilate(j, lam))
        worst_hom = _worst(
            worst_hom,
            float(np.max(np.abs(scaled.tensor - lam * lam * data.tensor)))
            / max(1.0, lam * lam * data.I),
        )
    report.add("inertia.sum_rule", worst_sum, 1e-12, "M1 + M2 = M3")
    report.add("inertia.trace", worst_tr, 1e-12, "tr M / 2 = I")
    report.add("inertia.homogeneity", worst_hom, 1e-12, "M(d_lam q) = lam^2 M(q)")


@functools.cache
def _system_free_checks(deep: bool) -> tuple[Check, ...]:
    """The coordinate and inertia suites.  Seeded samples that take no
    system are drawn once per process and are read-only; these suites take
    no system at all, so their checks are kept whole."""
    report = VerificationReport()
    _roundtrip_suite(report, 10_000 if deep else 1_000)
    _inertia_suite(report, 2_000 if deep else 200)
    return tuple(report.checks)


@functools.cache
def _eom_samples(samples: int) -> np.ndarray:
    """The seeded states y = (q, p, J) of ``_eom_suite``, (samples, 9),
    drawn once per process per sample count, read-only."""
    rng = np.random.default_rng(13)
    states = []
    for _ in range(samples):
        q = [rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0), rng.uniform(0.3, math.pi - 0.3)]
        p = rng.normal(0.0, 1.0, 3)
        J = rng.normal(0.0, 1.0, 3)
        states.append((*q, *p.tolist(), *J.tolist()))
    y = np.array(states).reshape(samples, 9)
    y.setflags(write=False)
    return y


def _eom_suite(report: VerificationReport, system: BodySystem, samples: int) -> None:
    """The flow against the field its energy implies, at random states.

    Seeded samples that take no system are drawn once per process and are
    read-only: ``_eom_samples`` holds the states.  Each sample's flow is
    ``reduction._flow`` on its float state, the bits ``eom`` gives.  All
    nine of its rates are compared with ``_energy_field``, the flow that the
    energy formula of ``hamiltonian`` implies, and each sample's errors are
    divided by max(1, its largest |rate|).
    """
    y = _eom_samples(samples)
    table = _chart_table(system)
    d = np.array([_flow(table, state) for state in y.tolist()])
    scale = np.fmax(1.0, np.max(np.abs(d), axis=1, keepdims=True))
    with np.errstate(all="ignore"):
        err = np.abs(d - _energy_field(table, y)) / scale
    # np.max keeps a NaN, so a NaN flow FAILs
    report.add("eom.complex_step", float(np.max(err)), 1e-12, f"{samples} random states")


def _collision_angle_check(report: VerificationReport, system: BodySystem) -> None:
    """Each pair's ``collision_angles`` ray against the polar angle, in
    radians, of the ``_rim_point`` of its collision: the pair's two bodies
    at 0 on a line and the third body at 1."""
    worst = 0.0
    for (i, j), psi in zip(((1, 2), (2, 3), (1, 3)), collision_angles(system)):
        w1, w2 = _rim_point(system, [float(body not in (i, j)) for body in (1, 2, 3)])
        worst = _worst(worst, abs(math.remainder(math.atan2(w2, w1) - psi, 2.0 * math.pi)))
    report.add("coords.collision_angles", worst, 1e-10, "r_ij = 0 on collision rays")


@functools.cache
def _octant_squares() -> np.ndarray:
    """The census directions' squared components (x^2, y^2, z^2), stacked
    (3, 45, 46): unit vectors at colatitudes 1..89 and longitudes 0..90
    degrees in 2-degree steps, the first octant of a latitude/longitude
    grid with the poles omitted.  Built once per process, read-only.  The
    census reads only squares, so these cells stand for their images under
    x -> -x, y -> -y and z -> -z, which fill the rest of the grid."""
    th = np.radians(np.arange(1.0, 90.0, 2.0))[:, None]
    ph = np.radians(np.arange(0.0, 91.0, 2.0))
    st, ct = np.sin(th), np.broadcast_to(np.cos(th), (45, 46))
    sq = np.stack([st * np.cos(ph), st * np.sin(ph), ct]) ** 2
    sq.setflags(write=False)
    return sq


_CHUNK = 8  # samples per step of the batched oracles: 16 KB of octant masks, 96 KB of lam rows


def sphere_orientation_class(m_tilde, v_tilde, nu):
    """Class from sampling the membership inequality over the J sphere.

    Independent of the threshold shortcut: the accessible directions (axis
    3 the third principal axis, ``m_tilde`` the principal moments at I = 1)
    are sampled on the sphere's first octant, ``_octant_squares``, as the
    inequality reads only squares, and ``_octant_caps`` tells the caps from
    the band.  Three cases need no sampling, as every direction is
    alike there: nu < 0 is full, nu == 0 is full when v_tilde < 0 and empty
    otherwise, and v_tilde >= 0 at nu > 0 is empty.  A NaN nu, or a NaN
    v_tilde at nu >= 0, gives empty.  Arrays of samples (broadcast
    together) give an array of classes, sampled ones a chunk at a time.
    """
    *m, v, nu = np.broadcast_arrays(*m_tilde, v_tilde, nu)
    shape = nu.shape
    m1, m2, m3, v, nu = (x.ravel() for x in (*m, v, nu))
    codes = np.select([nu < 0, nu == 0], [3, np.where(v < 0.0, 3, 0)], 0)
    sq = _octant_squares()
    todo = np.flatnonzero((nu > 0) & (v < 0.0))
    level = v[todo] ** 2 / (4.0 * nu[todo])
    stack = np.empty((min(todo.size, _CHUNK), *sq[0].shape), dtype=bool)
    for at in range(0, todo.size, _CHUNK):
        k, octant = todo[at : at + _CHUNK], stack[: todo.size - at]
        a1, a2, a3 = (mk[k, None, None] for mk in (m1, m2, m3))
        energy = 0.5 * (sq[0] / a1 + sq[1] / a2 + sq[2] / a3)
        np.less_equal(energy, level[at : at + _CHUNK, None, None], out=octant)
        sampled = [octant.all(axis=(1, 2)), _octant_caps(octant), octant.any(axis=(1, 2))]
        codes[k] = np.select(sampled, [3, 1, 2], 0)
    return int(codes[0]) if shape == () else codes.reshape(shape)


def _octant_caps(octants: np.ndarray) -> np.ndarray:
    """Whether each octant mask (n, 45, 46), mirrored in x, y and z, is the
    caps, two components on the polar rows: where it reaches row 0, misses
    row 44 and each of its components touches row 0.  With row 0 joined
    through the pole, a component meeting t mirrors (row 0: x and y; column
    0: y; column 45: x; row 44, beside its image row 45: z) lifts to 2^(3 - t)
    components: the pole one to 2, or 1 if it meets row 44.  A second one
    lifting to 1 would cross the octant left to right apart from the pole
    one's top-bottom crossing, but two 4-connected crossings of a rectangle
    meet.  The masks are labelled in one run, each followed by a False row."""
    n, rows, cols = octants.shape
    laid = np.concatenate((octants, np.zeros((n, 1, cols), dtype=bool)), axis=1)
    top = _component_rows(laid.reshape(-1, cols))
    cut = np.bincount(top[top % (rows + 1) > 0] // (rows + 1), minlength=n)  # components off row 0
    return octants[:, 0].any(axis=1) & ~octants[:, -1].any(axis=1) & (cut == 0)


@dataclass(frozen=True)
class _OracleSamples:
    """The draws of ``_oracle_suites`` and what is built from them alone."""

    w1: np.ndarray
    w2: np.ndarray
    s: np.ndarray  # math.hypot(w1, w2), the float of Shape.radius
    jh: np.ndarray  # (samples, 3) unit Jhat
    E: np.ndarray
    r: np.ndarray
    u: np.ndarray  # the factor of nu = u max(1, |Vt|)
    args: tuple[tuple, ...]  # (E, r, Shape, Jhat) per sample, membership's
    charts: tuple[JacobiShapeCoords, ...]  # each Shape's to_jacobi()
    lam_grid: np.ndarray  # the dilations of lambda_grid_member


@functools.cache
def _oracle_samples(samples: int) -> _OracleSamples:
    """The seeded samples of ``_oracle_suites``, drawn once per process per
    sample count in a fixed order: the shape (w1, w2), redrawn until its
    ``math.hypot`` radius is below 0.98; the unit Jhat; E; r; u.  Its
    arrays are read-only."""
    rng = np.random.default_rng(5150)
    draws = []
    for _ in range(samples):
        while True:
            w1, w2 = rng.uniform(-0.98, 0.98, 2)
            if (s := math.hypot(w1, w2)) < 0.98:
                break
        jh = rng.normal(0.0, 1.0, 3)
        jh /= np.linalg.norm(jh)
        E, r = rng.uniform(-3.0, 1.0), rng.uniform(0.2, 2.0)
        draws.append((w1, w2, s, jh, E, r, rng.uniform(-0.5, 3.0)))
    arrays = [np.array(x) for x in zip(*draws)]
    lam_grid = np.logspace(-6.0, 6.0, 1_500)
    for array in (*arrays, lam_grid):
        array.setflags(write=False)
    w1, w2, s, jh, E, r, u = arrays
    shapes = tuple(map(Shape, w1, w2))
    args = tuple(zip(E.tolist(), r.tolist(), shapes, jh))
    return _OracleSamples(*arrays, args, tuple(shape.to_jacobi() for shape in shapes), lam_grid)


def _oracle_suites(report: VerificationReport, system: BodySystem, samples: int) -> None:
    """Membership and the class rule against independent oracles.

    Seeded samples that take no system are drawn once per process and are
    read-only: ``_oracle_samples`` holds the draws, their shapes and charts.
    ``membership`` (once per sample) and ``class_codes`` (once per sample
    kept off the thresholds, on floats) stay scalar calls, as the rules
    under test, and so do body positions on the oracle side.  Vt comes
    from one ``shape_value`` call over all samples (the bits of
    ``shape_eval``, which reads the same rule on floats) and the moments
    from the drawn radii; the dilation grid and the sphere census take all
    samples, ``_CHUNK`` at a time, the census on ``_octant_squares``.
    """
    o = _oracle_samples(samples)
    # membership against the dilation-grid inequality
    got = [membership(system, *x).member for x in o.args]
    bases = np.array([positions_from_jacobi(system, chart) for chart in o.charts])
    want = lambda_grid_member(system, bases, o.jh, o.E, o.r, o.lam_grid)
    note = f"{samples} samples"
    report.add("hill.membership_oracle", float(np.count_nonzero(np.array(got) != want)), 0.0, note)
    # the class rule against the sphere-sampling census
    V, (m1, m2, m3) = shape_value(system, o.w1, o.w2), moments(o.s)
    nu = o.u * np.fmax(1.0, np.abs(V))
    keep = ~_near_threshold(V, (m1, m2, m3), nu)
    V, m1, m2, nu = V[keep], m1[keep], m2[keep], nu[keep]
    got = [
        class_codes(n, v, (a, b, m3))
        for n, v, a, b in zip(nu.tolist(), V.tolist(), m1.tolist(), m2.tolist())
    ]
    want = sphere_orientation_class((m1, m2, m3), V, nu)
    report.add("hill.orientation_oracle", float(np.count_nonzero(np.ravel(got) != want)), 0.0, note)


def _census_event_checks(
    report: VerificationReport, system: BodySystem, catalog: list[CriticalValue]
) -> None:
    """One event rule for each entry of ``catalog``, the system's
    ``critical_catalog``, with a rotation axis k: a critical value of
    sqrt(Mt_k) Vt, across which the region of class >= 4 - k (Caps, Ring or
    Full for k = 3, 2, 1) changes its Euler characteristic by exactly one.
    At the diabolic entry, a cone point, the Full region changes by one where
    ``_diabolic_event`` finds |grad Vt(0)| < |Vt(0)|/2 and by zero elsewhere;
    its note gives that ratio, and "no event" where the rule predicts none.
    chi is read on N = 400 scans 1% of the catalog gaps below and above the
    entry.  A diabolic entry merged with another, or within 1e-3 nu of a
    neighbour, is skipped."""
    nus = [cv.nu for cv in catalog]
    for i, cv in enumerate(catalog):
        if cv.axis is None:
            continue
        lo = nus[i] - nus[i - 1] if i > 0 else nus[i]
        hi = nus[i + 1] - nus[i] if i + 1 < len(nus) else lo
        if cv.family == "diabolic" and (cv.multiplicity != 1 or min(lo, hi) < 1e-3 * cv.nu):
            continue  # merged, or too close to a neighbour to separate at N = 400
        below, above = (
            euler_characteristics(scan_disk(system, nu, 400))
            for nu in (cv.nu - 0.01 * lo, cv.nu + 0.01 * hi)
        )
        change, note = 1, f"chi {below}->{above} across nu_{cv.family}"
        if cv.family == "diabolic":
            event, ratio = _diabolic_event(system)
            change = int(event)
            note += f", |grad Vt(0)|/|Vt(0)| = {ratio:.6g}" + ("" if event else ", no event")
        report.add_flag(
            f"scan.{cv.family}_event", abs(above[3 - cv.axis] - below[3 - cv.axis]) == change, note
        )


def _near_threshold(v_tilde, m_tilde, nu):
    """Where nu lies within 1e-6 of 0 or (scaled) of a class threshold, over
    arrays of Vt, of the moments (Mt1, Mt2, Mt3) and of nu."""
    near = np.abs(nu) < 1e-6
    scale = 1e-6 * np.fmax(1.0, v_tilde * v_tilde)
    for mk in m_tilde:
        near |= ~(v_tilde >= 0.0) & (np.abs(nu - nu_threshold(mk, v_tilde)) < scale)
    return near


def lambda_grid_member(system: BodySystem, base: np.ndarray, j_hat, E, r, lam_grid):
    """Hill inequality scanned over dilations of body positions ``base``.

    Taken from positions once: the principal moments (numpy's eigenvalues of
    the inertia tensor of ``base``) and the potential V0 over the three
    measured distances.  Dilation by lam scales them by lam^2 and 1/lam, so
    the scan tests er0/lam^2 + V0/lam <= E.  Independent of the closed-form
    moments and of f_analysis.  One ``base`` (3, 3) gives a bool; a stack
    (S, 3, 3), with ``j_hat`` (S, 3) and E and r (S,), gives S verdicts.
    """
    lead = np.shape(base)[:-2]
    base = np.reshape(base, (-1, 3, 3))
    x1, x2, x3 = base.transpose(1, 0, 2)
    a1, a2, a3 = system.alphas
    # each length from one dot product: the bits of np.linalg.norm on a vector
    dot = [d[:, None] @ d[..., None] for d in (x1 - x2, x1 - x3, x2 - x3)]
    d12, d13, d23 = (np.sqrt(dd[:, 0, 0]) for dd in dot)
    V0 = -(a3 / d12 + a2 / d13 + a1 / d23)
    mx = np.asarray(system.masses)[:, None] * base
    trace = np.sum(mx * base, axis=(1, 2))[:, None, None]
    mom = np.linalg.eigvalsh(trace * np.eye(3) - np.swapaxes(mx, 1, 2) @ base)  # ascending
    j2, r = np.reshape(j_hat, (-1, 3)) ** 2, np.ravel(r)
    er0 = 0.5 * r * r * (j2[:, 0] / mom[:, 0] + j2[:, 1] / mom[:, 1] + j2[:, 2] / mom[:, 2])
    lam2, low = lam_grid**2, np.empty(len(base))
    for k in range(0, len(base), _CHUNK):
        part = slice(k, k + _CHUNK)
        low[part] = np.min(er0[part, None] / lam2 + V0[part, None] / lam_grid, axis=1)
    member = (low <= np.ravel(E)).reshape(lead)
    return bool(member) if not lead else member


def verify_all(system: BodySystem, deep: bool = True) -> VerificationReport:
    """Run the full verification battery for a system.

    Reference-catalog regression applies when the system matches a preset;
    everything else (the catalog's relative equilibria against the generic
    search and the dynamics, invariant and oracle suites) runs for any
    system.  ``deep=False`` shrinks the randomized sample counts.
    """
    report = VerificationReport()
    catalog = critical_catalog(system)

    # BodySystem equality compares masses and couplings, not the pair table.
    name = next((name for name, preset in PRESETS.items() if preset == system), None)
    if name is not None:
        refs = CATALOG_REFERENCES[name]
        if len(catalog) == len(refs):
            worst = 0.0
            ok = True
            for cv, (ref, fam, tol) in zip(catalog, refs):
                err = abs(cv.nu - ref) / abs(ref) if ref else abs(cv.nu)
                ok &= err <= tol and cv.family == fam
                worst = _worst(worst, err)
            report.add_flag(
                "catalog.reference", ok, f"{len(refs)} values, worst rel err {worst:.3g}"
            )
        else:
            report.add_flag(
                "catalog.reference", False, f"expected {len(refs)} entries, got {len(catalog)}"
            )

    _collision_angle_check(report, system)

    # The catalog's relative equilibria against the generic critical-shape
    # search and the dynamics; the diabolic point is only pseudo-critical.
    for cv in catalog:
        if cv.axis is None or cv.family == "diabolic":
            continue
        if cv.family == "langmuir":
            report.add("langmuir.force_balance", _langmuir_force_residual(system), 1e-12)
        hits = find_critical_shapes(system, cv.axis)
        err = min((abs(nu - cv.nu) / cv.nu for _, nu in hits), default=math.inf)
        report.add(f"{cv.family}.search_crosscheck", err, 1e-6, f"{len(hits)} critical shapes")
        _relequil_checks(report, system, cv)

    # nu = (1/2) Mt_k Vt^2 for every stored interior shape.
    worst = 0.0
    for cv in catalog:
        if cv.axis is None:
            continue
        ev = shape_eval(system, cv.shape())
        worst = _worst(worst, abs(nu_threshold(ev.m_tilde[cv.axis - 1], ev.v_tilde) - cv.nu) / cv.nu)
    report.add("catalog.nu_identity", worst, 1e-9, "nu = Mt_k Vt^2 / 2")

    # Each collinear root's stored certificate: an unconverged root FAILs.
    residuals = [cv.residual for cv in catalog if cv.family == "collinear"]
    if residuals:
        report.add("collinear.residual", _worst(*residuals), 1e-9, "|dnu/dt| / max(1, nu)")

    _census_event_checks(report, system, catalog)
    report.checks.extend(_system_free_checks(deep))
    _eom_suite(report, system, 300 if deep else 50)
    _oracle_suites(report, system, 150 if deep else 30)
    return report
