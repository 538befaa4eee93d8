"""Rotation-reduced ro-vibrational dynamics of a three-body system.

The translation- and rotation-reduced Hamiltonian in Jacobi internal
coordinates q = (rho1, rho2, phi) with conjugate momenta p and body angular
momentum J is

    H(q, p, J) = 1/2 J . M(q)^-1 . J
               + 1/2 g^{mu nu}(q) (p_mu - J.A_mu(q)) (p_nu - J.A_nu(q))
               + V(q)

with M the moment-of-inertia tensor, g the vibrational metric and A the
gauge potential coupling rotation to vibration.  The flow is

    qdot = dH/dp,   pdot = -dH/dq,   Jdot = J x grad_J H,

so |J| is conserved.  The reduction is singular at collinear configurations;
those are treated as chart-boundary errors, not extrapolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coords import (
    DragtCoords,
    JacobiShapeCoords,
    pair_geometry,
)
from .errors import CollinearError, SingularGeometryError, TripleCollisionError
from .systems import BodySystem

# Chart-boundary guard: the chart is rho1, rho2 > 0 and 0 < phi < pi; states
# with rho1, rho2 or sin(phi) below this are rejected rather than extrapolated.
COLLINEAR_TOL = 1e-10

# Energy and flow of a non-finite state.
_NAN_FLOW = (math.nan, (math.nan,) * 9)


@dataclass(frozen=True)
class InertiaData:
    """Moment-of-inertia tensor with its principal moments.

    ``principal`` is sorted ascending; the two in-plane moments sum to the
    perpendicular one, M1 + M2 = M3 = I = 1/2 tr M.
    """

    tensor: np.ndarray
    principal: tuple[float, float, float]
    I: float


@dataclass(frozen=True)
class KineticGeometry:
    metric: np.ndarray
    metric_inv: np.ndarray
    gauge: np.ndarray  # rows are the vectors A_mu
    singular: bool = False


@dataclass
class RovibState:
    """Reduced state: Jacobi internal coordinates, momenta, body angular momentum."""

    q: np.ndarray
    p: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float).reshape(3).copy()
        self.p = np.asarray(self.p, dtype=float).reshape(3).copy()
        self.J = np.asarray(self.J, dtype=float).reshape(3).copy()

    def jacobi(self) -> JacobiShapeCoords:
        return JacobiShapeCoords(self.q[0], self.q[1], self.q[2])

    def flat(self) -> np.ndarray:
        return np.concatenate([self.q, self.p, self.J])

    @classmethod
    def from_flat(cls, y: np.ndarray) -> "RovibState":
        return cls(y[0:3], y[3:6], y[6:9])


def inertia(j: JacobiShapeCoords) -> InertiaData:
    """Inertia tensor in the xxy gauge and its principal moments.

    The closed-form eigenvalues are
    M_{1/2} = (I -+ sqrt(w1^2 + w2^2))/2 and M3 = I = rho1^2 + rho2^2.
    """
    r1s, r2s = j.rho1**2, j.rho2**2
    s, c = math.sin(j.phi), math.cos(j.phi)
    tensor = np.array(
        [
            [r2s * s * s, -r2s * s * c, 0.0],
            [-r2s * s * c, r1s + r2s * c * c, 0.0],
            [0.0, 0.0, r1s + r2s],
        ]
    )
    I = r1s + r2s
    split = math.hypot(r1s - r2s, 2.0 * j.rho1 * j.rho2 * c)
    return InertiaData(tensor, (0.5 * (I - split), 0.5 * (I + split), I), I)


def principal_axes(j: JacobiShapeCoords) -> tuple[tuple[float, float, float], np.ndarray]:
    """Principal moments (ascending) and axes as columns of a 3x3 matrix.

    Axis 3 is always the normal of the configuration plane; axes 1 and 2 are
    in-plane.  At the diabolic point the in-plane pair is an arbitrary
    orthonormal basis of the degenerate eigenspace.
    """
    data = inertia(j)
    m1 = data.principal[0]
    b11, b12 = data.tensor[0, 0], data.tensor[0, 1]
    b22 = data.tensor[1, 1]
    # Eigenvector of the 2x2 block for the smaller eigenvalue; pick the
    # better-conditioned of the two equivalent component forms.
    v = np.array([b12, m1 - b11])
    alt = np.array([m1 - b22, b12])
    if np.dot(alt, alt) > np.dot(v, v):
        v = alt
    norm = math.hypot(v[0], v[1])
    if norm == 0.0:
        v = np.array([1.0, 0.0])
    else:
        v = v / norm
    axes = np.array(
        [
            [v[0], -v[1], 0.0],
            [v[1], v[0], 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    return data.principal, axes


def _gauge_momentum(j: JacobiShapeCoords, J: np.ndarray) -> np.ndarray:
    """Momenta p = J.A that hold the shape at rest: p_phi = J3 rho2^2 / I."""
    a_phi = j.rho2**2 / (j.rho1**2 + j.rho2**2)
    return np.array([0.0, 0.0, J[2] * a_phi])


def rigid_start(j: JacobiShapeCoords, r: float, j_hat: np.ndarray) -> RovibState:
    """Rigidly rotating state at configuration j: angular momentum r times
    the unit ``j_hat`` in the principal frame (axes ascending, axis 3 the
    plane normal), momenta the gauge values p = J.A so the shape is at rest."""
    _, axes = principal_axes(j)
    J = r * (axes @ j_hat)
    return RovibState(np.array([j.rho1, j.rho2, j.phi]), _gauge_momentum(j, J), J)


def kinetic_geometry(coords) -> KineticGeometry:
    """Vibrational metric and gauge potential, in either chart.

    Jacobi: g = diag(1, 1, rho1^2 rho2^2 / I), A_phi = (0, 0, rho2^2/I).
    Dragt:  g = diag(1/omega, omega, omega cos^2 chi)/4, A_psi = (0, 0, -sin(chi)/2).
    """
    if isinstance(coords, JacobiShapeCoords):
        r1s, r2s = coords.rho1**2, coords.rho2**2
        if r1s == 0.0 or r2s == 0.0:
            raise SingularGeometryError("Jacobi metric needs rho1, rho2 > 0")
        I = r1s + r2s
        metric = np.diag([1.0, 1.0, r1s * r2s / I])
        metric_inv = np.diag([1.0, 1.0, I / (r1s * r2s)])
        gauge = np.zeros((3, 3))
        gauge[2, 2] = r2s / I
        return KineticGeometry(metric, metric_inv, gauge)
    if isinstance(coords, DragtCoords):
        if coords.omega <= 0.0:
            raise TripleCollisionError("Dragt metric undefined at omega = 0")
        if coords.chi <= 0.0:
            raise SingularGeometryError("collinear boundary chi = 0")
        cchi = math.cos(coords.chi)
        singular = cchi < 1e-9
        g3 = coords.omega * cchi * cchi / 4.0
        metric = np.diag([1.0 / (4.0 * coords.omega), coords.omega / 4.0, g3])
        metric_inv = np.diag(
            [4.0 * coords.omega, 4.0 / coords.omega, 0.0 if singular else 1.0 / g3]
        )
        gauge = np.zeros((3, 3))
        gauge[2, 2] = -0.5 * math.sin(coords.chi)
        return KineticGeometry(metric, metric_inv, gauge, singular=singular)
    raise TypeError(f"unsupported coordinate type {type(coords).__name__}")


def _pair_constants(system: BodySystem) -> tuple[tuple[float, float, float, float], ...]:
    return tuple(
        (mu, gam, math.cos(psi), math.sin(psi)) for mu, gam, psi in pair_geometry(system)
    )


def _potential_and_grad_scalar(
    pairs, rho1: float, rho2: float, phi: float
) -> tuple[float, float, float, float]:
    cphi, sphi = math.cos(phi), math.sin(phi)
    V = g0 = g1 = g2 = 0.0
    for mu, gam, cpsi, spsi in pairs:
        r2 = (
            rho1 * rho1 * (1.0 - cpsi)
            + rho2 * rho2 * (1.0 + cpsi)
            - 2.0 * rho1 * rho2 * cphi * spsi
        ) / (2.0 * mu)
        r = math.sqrt(r2)
        V -= gam / r
        scale = gam / (2.0 * r2 * r * mu)
        g0 += scale * (rho1 * (1.0 - cpsi) - rho2 * cphi * spsi)
        g1 += scale * (rho2 * (1.0 + cpsi) - rho1 * cphi * spsi)
        g2 += scale * rho1 * rho2 * sphi * spsi
    return V, g0, g1, g2


def _potential_and_grad(system: BodySystem, q: np.ndarray) -> tuple[float, np.ndarray]:
    """V and dV/d(rho1, rho2, phi) from the affine pair-distance forms."""
    V, g0, g1, g2 = _potential_and_grad_scalar(
        _pair_constants(system), q[0], q[1], q[2]
    )
    return V, np.array([g0, g1, g2])


def _flow(pairs, y) -> tuple[float, tuple[float, ...]]:
    """Energy H and flat time derivative (qdot, pdot, Jdot) at flat state y.

    ``y`` holds the nine state values (q, p, J) as plain Python floats, and
    the derivative comes back as a 9-tuple of floats: scalar arithmetic on
    Python floats costs a fraction of the same arithmetic on numpy scalars.
    IEEE arithmetic gives the same bits either way as long as the order of
    operations stays as written, so any change here must keep that order.

    One evaluation of the Jacobi chart serves both.  The partials are
    analytic and J . Jdot = 0 identically.  With w = M^-1 J and
    d(M^-1)/dq = -M^-1 (dM/dq) M^-1, the rotational part of dH/dq is minus
    half the quadratic form of dM/dq on w.

    A non-finite state (an infinite angle, or a power or quotient that
    overflows or divides by zero, which Python floats raise on where numpy
    returned inf) has a NaN energy and a NaN flow.
    """
    rho1, rho2, phi, p1, p2, p3, J1, J2, J3 = y
    if math.isinf(phi):
        # math.sin raises on an infinite angle.
        return _NAN_FLOW
    s, c = math.sin(phi), math.cos(phi)
    # sin(phi) < 0: a step crossed phi = 0 or pi and left the chart.
    if rho1 < COLLINEAR_TOL or rho2 < COLLINEAR_TOL or s < COLLINEAR_TOL:
        raise CollinearError(
            f"state at (rho1, rho2, phi) = ({rho1}, {rho2}, {phi}) is on the "
            "collinear chart boundary"
        )
    try:
        r1s, r2s = rho1 * rho1, rho2 * rho2
        det2 = r1s * r2s * s * s
        i00, i01, i11 = (r1s + r2s * c * c) / det2, (r2s * s * c) / det2, (r2s * s * s) / det2
        I = r1s + r2s
        i22 = 1.0 / I
        w1 = i00 * J1 + i01 * J2
        w2 = i01 * J1 + i11 * J2
        w3 = i22 * J3

        a_phi = r2s / I
        g33 = I / (rho1 * rho1 * rho2 * rho2)
        u3 = p3 - J3 * a_phi
        V, dV1, dV2, dVphi = _potential_and_grad_scalar(pairs, rho1, rho2, phi)
        rot = 0.5 * (i00 * J1 * J1 + 2.0 * i01 * J1 * J2 + i11 * J2 * J2 + i22 * J3 * J3)
        vib = 0.5 * (p1 * p1 + p2 * p2 + g33 * u3 * u3)

        # Quadratic forms w . (dM/dq_mu) . w for mu = rho1, rho2, phi.
        quad1 = 2.0 * rho1 * (w2 * w2 + w3 * w3)
        sw = s * w1 - c * w2
        quad2 = 2.0 * rho2 * (sw * sw + w3 * w3)
        quadphi = r2s * (2.0 * s * c * (w1 * w1 - w2 * w2) + 2.0 * (s * s - c * c) * w1 * w2)

        dg33_1, dg33_2 = -2.0 / rho1**3, -2.0 / rho2**3
        da_1 = -2.0 * rho1 * rho2 * rho2 / (I * I)
        da_2 = 2.0 * rho2 * rho1 * rho1 / (I * I)
        coupling = g33 * u3 * J3
        pdot1 = -(-0.5 * quad1 + 0.5 * dg33_1 * u3 * u3 - coupling * da_1 + dV1)
        pdot2 = -(-0.5 * quad2 + 0.5 * dg33_2 * u3 * u3 - coupling * da_2 + dV2)
        pdotphi = -(-0.5 * quadphi + dVphi)

        g1, g2, g3 = w1, w2, w3 - g33 * u3 * a_phi
        ydot = (
            p1,
            p2,
            g33 * u3,
            pdot1,
            pdot2,
            pdotphi,
            J2 * g3 - J3 * g2,
            J3 * g1 - J1 * g3,
            J1 * g2 - J2 * g1,
        )
        return rot + vib + V, ydot
    except (OverflowError, ZeroDivisionError):
        return _NAN_FLOW


def hamiltonian(system: BodySystem, state: RovibState) -> float:
    """Reduced ro-vibrational energy of a state."""
    return _flow(_pair_constants(system), state.flat().tolist())[0]


def eom(system: BodySystem, state: RovibState) -> RovibState:
    """Time derivative (qdot, pdot, Jdot) of the reduced flow."""
    ydot = _flow(_pair_constants(system), state.flat().tolist())[1]
    return RovibState.from_flat(np.array(ydot))


def relequil_residual(
    system: BodySystem, j: JacobiShapeCoords, J: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the relative-equilibrium conditions at (q, J).

    They are the flow at the rigidly rotating state (q, p = J.A, J), where
    qdot = 0: res1 = Jdot = J x (M^-1 J) vanishes iff J is a principal axis;
    res3 = -pdot is the gradient of the effective potential 1/2 J.M^-1.J + V
    over q.  Both are near zero exactly at relative equilibria.
    """
    J = np.asarray(J, dtype=float)
    y = np.concatenate([[j.rho1, j.rho2, j.phi], _gauge_momentum(j, J), J])
    ydot = np.array(_flow(_pair_constants(system), y.tolist())[1])
    return ydot[6:9], -ydot[3:6]


@dataclass
class ConservationReport:
    energy_drift: float  # max |H(t) - H(0)|
    momentum_drift: float  # max | |J(t)| - |J(0)| |
    truncated_at: int | None = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return (
            self.truncated_at is None
            and math.isfinite(self.energy_drift)
            and math.isfinite(self.momentum_drift)
        )


@dataclass
class Trajectory:
    t: np.ndarray
    states: np.ndarray  # rows: (q1, q2, q3, p1, p2, p3, J1, J2, J3)
    energy: np.ndarray

    def __len__(self) -> int:
        return self.states.shape[0]

    def state(self, k: int) -> RovibState:
        return RovibState.from_flat(self.states[k])

    def to_csv(self) -> str:
        """One line per step, 17 significant digits ('%.17g' % x gives the
        bytes of format(x, '.17g') for every float)."""
        rows = np.column_stack([self.t, self.states, self.energy])
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        body = (line * len(rows)) % tuple(rows.ravel().tolist())
        return "t,q1,q2,q3,p1,p2,p3,J1,J2,J3,H\n" + body


def integrate(
    system: BodySystem, s0: RovibState, dt: float, nsteps: int
) -> tuple[Trajectory, ConservationReport]:
    """Fixed-step RK4 integration of the reduced flow.

    Stops early with a diagnostic if the trajectory reaches the collinear
    chart boundary or its state stops being finite.  The report carries the
    worst energy and |J| drifts over the integrated segment.

    The state is a list of Python floats (see ``_flow``) and every stage and
    update sum is written per component in the order
    y + (dt/2) k, y + dt k3 and y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4), the
    order of the same sums on arrays, so trajectories do not depend on which
    of the two carries them.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    dt = float(dt)
    half, sixth = 0.5 * dt, dt / 6.0
    pairs = _pair_constants(system)
    y = RovibState(s0.q, s0.p, s0.J).flat().tolist()
    states = np.empty((nsteps + 1, 9))
    energy = np.empty(nsteps + 1)
    states[0] = y
    energy[0], k1 = _flow(pairs, y)
    n_done = nsteps
    message = ""
    for k in range(nsteps):
        try:
            k2 = _flow(pairs, [a + half * b for a, b in zip(y, k1)])[1]
            k3 = _flow(pairs, [a + half * b for a, b in zip(y, k2)])[1]
            k4 = _flow(pairs, [a + dt * b for a, b in zip(y, k3)])[1]
            y = [
                a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
            ]
            H, k1 = _flow(pairs, y)
        except CollinearError as exc:
            n_done = k
            message = f"truncated at step {k}: {exc}"
            break
        # H is not finite when any state component is not, so one scalar
        # test covers the whole state.
        if not math.isfinite(H):
            n_done = k
            message = f"truncated at step {k}: non-finite state"
            break
        states[k + 1] = y
        energy[k + 1] = H
    # t_k = k dt, each a single rounding as the product of int k and dt
    traj = Trajectory(np.arange(n_done + 1) * dt, states[: n_done + 1], energy[: n_done + 1])
    # A non-finite start overflows the norm or subtracts inf from inf here;
    # the report's NaN or inf drift already says so.
    with np.errstate(over="ignore", invalid="ignore"):
        j0 = np.linalg.norm(states[0, 6:9])
        jdrift = float(np.max(np.abs(np.linalg.norm(traj.states[:, 6:9], axis=1) - j0)))
        hdrift = float(np.max(np.abs(traj.energy - traj.energy[0])))
    report = ConservationReport(
        energy_drift=hdrift,
        momentum_drift=jdrift,
        truncated_at=None if n_done == nsteps else n_done,
        message=message,
    )
    return traj, report
