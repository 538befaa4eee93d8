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

from .coords import JacobiShapeCoords, pair_geometry
from .errors import CollinearError, DomainError, check_finite, check_index, check_unit
from .systems import BodySystem

# Chart-boundary guard: the chart is rho1, rho2 > 0 and 0 < phi < pi; states
# with rho1, rho2 or sin(phi) below this are rejected rather than extrapolated.
COLLINEAR_TOL = 1e-10

# Flow of a non-finite state.
_NAN_FLOW = (math.nan,) * 9


@dataclass(frozen=True)
class InertiaData:
    """Moment-of-inertia tensor with its principal moments.

    ``principal`` is sorted ascending; the two in-plane moments sum to the
    perpendicular one, M1 + M2 = M3 = I = 1/2 tr M.
    """

    tensor: np.ndarray
    principal: tuple[float, float, float]
    I: float


@dataclass
class RovibState:
    """Reduced state: Jacobi internal coordinates, momenta, body angular momentum."""

    q: np.ndarray
    p: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        try:
            self.q = np.asarray(self.q, dtype=float).reshape(3).copy()
            self.p = np.asarray(self.p, dtype=float).reshape(3).copy()
            self.J = np.asarray(self.J, dtype=float).reshape(3).copy()
        except ValueError as exc:
            raise DomainError(f"q, p and J must each hold 3 values: {exc}") from None

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
    plane normal), momenta the gauge values p = J.A so the shape is at rest.
    A non-finite r or a ``j_hat`` that is not a finite unit vector raises
    DomainError."""
    check_finite("r", r)
    j_hat = check_unit("j_hat", j_hat)
    _, axes = principal_axes(j)
    J = r * (axes @ j_hat)
    return RovibState(np.array([j.rho1, j.rho2, j.phi]), _gauge_momentum(j, J), J)


def _chart_table(system: BodySystem) -> tuple[tuple[float, ...], ...]:
    """The system's pair table as the Jacobi chart reads it: per pair
    (1 - cos psi, 1 + cos psi, sin psi, 2 mu, alpha, mu), plain floats in
    plain tuples, built once per run or call."""
    return tuple(
        (1.0 - p.cos, 1.0 + p.cos, p.sin, 2.0 * p.mu, p.alpha, p.mu)
        for p in pair_geometry(system)
    )


def _flow(table, y, h=0.0, slope=None) -> tuple[float, ...]:
    """Flat time derivative (qdot, pdot, Jdot) at the flat state y + h slope
    (summed per component, y_i + h * slope_i: the RK4 stages of
    ``integrate``), or at y when there is no slope.

    ``y`` and ``slope`` hold nine state values (q, p, J) as plain Python
    floats, and the derivative comes back as a 9-tuple of floats: scalar
    arithmetic on Python floats costs a fraction of the same on numpy scalars.
    IEEE arithmetic gives the same bits either way as long as the order of
    operations stays as written, so any change here must keep that order.
    A product may be computed once and shared only where it is a
    left-associative prefix of every expression that reads it: rho1 * rho1
    opens rho1 * rho1 * rho2 * rho2 and is shared as r1s, but
    scale * rho1 * rho2 * sphi * spsi may not reuse rho1 * rho2 * sphi.  A
    shared prefix repeats the same roundings; any other regrouping changes
    trajectory bits.

    The flow computes no energy: ``_energies`` holds the energy formula.
    The loop over the rows of ``table``, the system's chart table
    (``_chart_table``) built once per run, is the Jacobi chart's one sum of
    the pair-potential gradient.  The partials are analytic and
    J . Jdot = 0 identically.  With w = M^-1 J and
    d(M^-1)/dq = -M^-1 (dM/dq) M^-1, the rotational part of dH/dq is minus
    half the quadratic form of dM/dq on w.

    A non-finite state (an infinite angle, a power or quotient that
    overflows or divides by zero, which Python floats raise on where numpy
    returned inf, or a squared pair distance that rounds below zero next to a
    collision) has the flow ``_NAN_FLOW``.  Every state whose energy
    divides by zero is one of them: the energy's one quotient that can
    raise, gam / r, has the same divisor r as the gradient's ``scale``.
    Only that arithmetic is caught: a malformed ``table`` raises.
    """
    rho1, rho2, phi, p1, p2, p3, J1, J2, J3 = y
    if slope is not None:
        k0, k1, k2, k3, k4, k5, k6, k7, k8 = slope
        rho1, rho2, phi = rho1 + h * k0, rho2 + h * k1, phi + h * k2
        p1, p2, p3 = p1 + h * k3, p2 + h * k4, p3 + h * k5
        J1, J2, J3 = J1 + h * k6, J2 + h * k7, J3 + h * k8
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
        r2s_s = r2s * s
        det2 = r1s * r2s * s * s
        i00, i01, i11 = (r1s + r2s * c * c) / det2, (r2s_s * c) / det2, (r2s_s * s) / det2
        I = r1s + r2s
        i22 = 1.0 / I
        w1 = i00 * J1 + i01 * J2
        w2 = i01 * J1 + i11 * J2
        w3 = i22 * J3

        a_phi = r2s / I
        g33 = I / (r1s * rho2 * rho2)
        u3 = p3 - J3 * a_phi
        g33u3 = g33 * u3

        # dV/d(rho1, rho2, phi).  A pair's squared distance is affine in the
        # squares, (r1s (1 - cos psi) + r2s (1 + cos psi)
        # - 2 rho1 rho2 cos phi sin psi) / (2 mu).
        cross = 2.0 * rho1 * rho2 * c
        r2c, r1c = rho2 * c, rho1 * c
        dV1 = dV2 = dVphi = 0.0
        for one_minus, one_plus, spsi, two_mu, gam, mu in table:
            r2 = (r1s * one_minus + r2s * one_plus - cross * spsi) / two_mu
            r = 0.0 if r2 < 0.0 else math.sqrt(r2)  # r2 < 0: a collision, scale raises
            scale = gam / (2.0 * r2 * r * mu)
            dV1 += scale * (rho1 * one_minus - r2c * spsi)
            dV2 += scale * (rho2 * one_plus - r1c * spsi)
            dVphi += scale * rho1 * rho2 * s * spsi

        # Quadratic forms w . (dM/dq_mu) . w for mu = rho1, rho2, phi.
        w3w3 = w3 * w3
        quad1 = 2.0 * rho1 * (w2 * w2 + w3w3)
        sw = s * w1 - c * w2
        quad2 = 2.0 * rho2 * (sw * sw + w3w3)
        quadphi = r2s * (2.0 * s * c * (w1 * w1 - w2 * w2) + 2.0 * (s * s - c * c) * w1 * w2)

        dg33_1, dg33_2 = -2.0 / rho1**3, -2.0 / rho2**3
        II = I * I
        da_1 = -2.0 * rho1 * rho2 * rho2 / II
        da_2 = 2.0 * rho2 * rho1 * rho1 / II
        coupling = g33u3 * J3
        pdot1 = -(-0.5 * quad1 + 0.5 * dg33_1 * u3 * u3 - coupling * da_1 + dV1)
        pdot2 = -(-0.5 * quad2 + 0.5 * dg33_2 * u3 * u3 - coupling * da_2 + dV2)
        pdotphi = -(-0.5 * quadphi + dVphi)

        g3 = w3 - g33u3 * a_phi
        return (
            p1,
            p2,
            g33u3,
            pdot1,
            pdot2,
            pdotphi,
            J2 * g3 - J3 * w2,
            J3 * w1 - J1 * g3,
            J1 * w2 - J2 * w1,
        )
    except (OverflowError, ZeroDivisionError):
        return _NAN_FLOW


def _energies(table, Y: np.ndarray) -> np.ndarray:
    """H = rot + vib + V at each row (q, p, J) of the (N, 9) array ``Y``:
    the one energy formula and the Jacobi chart's one pair-potential sum,
    with the operations of ``_flow``'s shared terms in ``_flow``'s order.
    There is no chart guard, and numpy's warnings are silenced: a row whose
    flow fails may read finite here, which ``integrate`` and ``hamiltonian``
    overrule."""
    rho1, rho2, phi, p1, p2, p3, J1, J2, J3 = Y.T
    with np.errstate(all="ignore"):
        s, c = np.sin(phi), np.cos(phi)
        r1s, r2s = rho1 * rho1, rho2 * rho2
        r2s_s = r2s * s
        det2 = r1s * r2s * s * s
        i00, i01, i11 = (r1s + r2s * c * c) / det2, (r2s_s * c) / det2, (r2s_s * s) / det2
        I = r1s + r2s
        u3 = p3 - J3 * (r2s / I)
        g33u3 = I / (r1s * rho2 * rho2) * u3
        cross = 2.0 * rho1 * rho2 * c
        V = 0.0
        for one_minus, one_plus, spsi, two_mu, gam, _ in table:
            V = V - gam / np.sqrt((r1s * one_minus + r2s * one_plus - cross * spsi) / two_mu)
        rot = 0.5 * (i00 * J1 * J1 + 2.0 * i01 * J1 * J2 + i11 * J2 * J2 + 1.0 / I * J3 * J3)
        vib = 0.5 * (p1 * p1 + p2 * p2 + g33u3 * u3)
        return rot + vib + V


def hamiltonian(system: BodySystem, state: RovibState) -> float:
    """Reduced ro-vibrational energy of a state: CollinearError on the chart
    boundary, NaN where the flow fails (``_NAN_FLOW``), else ``_energies``
    on the one row."""
    table = _chart_table(system)
    y = state.flat()
    if _flow(table, y.tolist()) is _NAN_FLOW:
        return math.nan
    return float(_energies(table, y[None])[0])


def eom(system: BodySystem, state: RovibState) -> RovibState:
    """Time derivative (qdot, pdot, Jdot) of the reduced flow."""
    ydot = _flow(_chart_table(system), state.flat().tolist())
    return RovibState.from_flat(np.array(ydot))


def relequil_residual(
    system: BodySystem, j: JacobiShapeCoords, J: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the relative-equilibrium conditions at (q, J).

    They are the flow at the rigidly rotating state (q, p = J.A, J), where
    qdot = 0: res1 = Jdot = J x (M^-1 J) vanishes iff J is a principal axis;
    res3 = -pdot is the gradient of the effective potential 1/2 J.M^-1.J + V
    over q.  Both are near zero exactly at relative equilibria.  A ``J``
    that is not three finite values raises DomainError.
    """
    J = np.asarray(J, dtype=float)
    if J.shape != (3,) or not np.isfinite(J).all():
        raise DomainError(f"J must hold three finite values, got {J.tolist()}")
    y = np.concatenate([[j.rho1, j.rho2, j.phi], _gauge_momentum(j, J), J])
    ydot = np.array(_flow(_chart_table(system), y.tolist()))
    return ydot[6:9], -ydot[3:6]


# Central-difference steps of ``relequil_spectrum``, relative to each value's
# natural scale: the spectrum is read at the first, the second certifies it.
SPECTRUM_STEPS = (1e-5, 2e-5)
# The certificate holds when the two steps' eigenvalues (times the period)
# agree to this, and a max Re lambda T within it of zero reads as stable.
SPECTRUM_TOL = 1e-4


@dataclass(frozen=True)
class Spectrum:
    """Linearized reduced flow at a relative equilibrium.

    ``jacobian`` is the flow's Jacobian at the first step of
    ``SPECTRUM_STEPS`` in natural units: entry (i, j) times scales[j] /
    scales[i] times the rotation period ``period``.  ``eigenvalues`` are its
    nine eigenvalues, lambda times the period, so neither depends on scale.
    ``disagreement`` is the largest distance from an eigenvalue at one step
    to the nearest at the other: the certificate.
    """

    jacobian: np.ndarray
    eigenvalues: np.ndarray
    period: float
    disagreement: float
    scales: np.ndarray

    @property
    def growth(self) -> float:
        """max Re lambda times the period (NaN when the flow failed)."""
        return float(np.max(self.eigenvalues.real))

    @property
    def stable(self) -> bool:
        return self.growth <= SPECTRUM_TOL


def relequil_spectrum(system: BodySystem, state: RovibState) -> Spectrum:
    """Spectrum of the flow's Jacobian at ``state``, a relative equilibrium.

    Each column of the Jacobian is a central difference of ``_flow`` in one
    of the nine floats, with a step of h times that value's natural scale:
    rho_k for rho_k, 1 for phi, rho_k omega for p_k (omega = r / I), and
    r = |J| for p3 and J.  These scales move with the state under the
    dilation that carries a relative equilibrium from one r to another, so
    max Re lambda times the rotation period 2 pi / |M^-1 J| does not depend
    on r.  The Casimir |J| gives one zero eigenvalue; the rest come in pairs
    lambda, -lambda.  A flow that fails (``_NAN_FLOW``) gives NaN
    eigenvalues, and a step across the chart boundary raises
    CollinearError.  A state whose J is zero or not finite has no period
    and raises DomainError.
    """
    y = state.flat().tolist()
    r = math.sqrt(sum(x * x for x in y[6:9]))
    if not (0.0 < r < math.inf):
        raise DomainError(f"J must be nonzero and finite, got {y[6:9]}")
    rho1, rho2 = y[0], y[1]
    omega = r / (rho1 * rho1 + rho2 * rho2)
    scales = np.array([rho1, rho2, 1.0, rho1 * omega, rho2 * omega, r, r, r, r])
    omega_vec = np.linalg.solve(inertia(state.jacobi()).tensor, state.J)  # M^-1 J
    period = 2.0 * math.pi / float(np.linalg.norm(omega_vec))
    table = _chart_table(system)
    spectra = []
    for h in SPECTRUM_STEPS:
        jac = np.empty((9, 9))
        for i in range(9):
            delta = [0.0] * 9
            delta[i] = h * scales[i]
            ahead, behind = _flow(table, y, 1.0, delta), _flow(table, y, -1.0, delta)
            jac[:, i] = np.subtract(ahead, behind) * (0.5 * period / h) / scales
        eig = np.linalg.eigvals(jac) if np.isfinite(jac).all() else np.full(9, complex(math.nan))
        spectra.append((jac, eig))
    (jacobian, eigenvalues), (_, other) = spectra
    gap = np.abs(eigenvalues[:, None] - other[None, :])
    disagreement = float(np.maximum(gap.min(axis=0).max(), gap.min(axis=1).max()))
    return Spectrum(jacobian, eigenvalues, period, disagreement, scales)


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

    The state is nine Python floats (see ``_flow``).  The stages are the
    flow at y + (dt/2) k and y + dt k3, and the update is written out per
    component as y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4): the order of the
    same sums on arrays, so trajectories do not depend on which of the two
    carries them.  The chart table is built once per run.

    A step makes four derivative calls and no energy; one ``_energies`` call
    gives the stored rows their energies.  The loop stops at a state on the
    chart boundary, at one whose flow fails (``_NAN_FLOW``) and at one that
    is not finite; then the first later row whose energy is not finite ends
    the run one step before it, and the start's energy is NaN where its
    flow failed.  A dt that is not positive and finite, or an nsteps that
    is not a nonnegative integer, raises DomainError.
    """
    check_finite("dt", dt)
    if not dt > 0.0:
        raise DomainError(f"dt must be positive and finite, got {dt}")
    nsteps = check_index("nsteps", nsteps, 0)
    dt = float(dt)
    half, sixth = 0.5 * dt, dt / 6.0
    table = _chart_table(system)
    y = RovibState(s0.q, s0.p, s0.J).flat().tolist()
    states = np.empty((nsteps + 1, 9))
    states[0] = y
    a = _flow(table, y)
    nan_start = a is _NAN_FLOW
    n_done = nsteps
    message = ""
    for k in range(nsteps):
        try:
            b = _flow(table, y, half, a)
            c = _flow(table, y, half, b)
            d = _flow(table, y, dt, c)
            y0, y1, y2, y3, y4, y5, y6, y7, y8 = y
            a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
            b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
            c0, c1, c2, c3, c4, c5, c6, c7, c8 = c
            d0, d1, d2, d3, d4, d5, d6, d7, d8 = d
            y = (
                y0 + sixth * (((a0 + 2.0 * b0) + 2.0 * c0) + d0),
                y1 + sixth * (((a1 + 2.0 * b1) + 2.0 * c1) + d1),
                y2 + sixth * (((a2 + 2.0 * b2) + 2.0 * c2) + d2),
                y3 + sixth * (((a3 + 2.0 * b3) + 2.0 * c3) + d3),
                y4 + sixth * (((a4 + 2.0 * b4) + 2.0 * c4) + d4),
                y5 + sixth * (((a5 + 2.0 * b5) + 2.0 * c5) + d5),
                y6 + sixth * (((a6 + 2.0 * b6) + 2.0 * c6) + d6),
                y7 + sixth * (((a7 + 2.0 * b7) + 2.0 * c7) + d7),
                y8 + sixth * (((a8 + 2.0 * b8) + 2.0 * c8) + d8),
            )
            a = _flow(table, y)
        except CollinearError as exc:
            n_done = k
            message = f"truncated at step {k}: {exc}"
            break
        # A state that is not finite has no finite energy, and its flow is
        # NaN arithmetic that raises nothing, so every later step would be
        # too.  sum(y) is finite unless a component is not or the sum
        # overflows.
        if a is _NAN_FLOW or not (math.isfinite(sum(y)) or all(map(math.isfinite, y))):
            n_done = k
            message = f"truncated at step {k}: non-finite state"
            break
        states[k + 1] = y
    energy = _energies(table, states[: n_done + 1])
    if nan_start:
        energy[0] = math.nan
    late = np.flatnonzero(~np.isfinite(energy[1:]))
    if late.size:
        n_done = int(late[0])
        message = f"truncated at step {n_done}: non-finite state"
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
