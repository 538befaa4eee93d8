"""Shared fixtures and independent oracles.

The oracles below rebuild configurations from explicit body positions and
plain mass-weighted definitions; they deliberately avoid the closed-form
paths in the package so that agreement is meaningful.
"""

import math

import numpy as np
import pytest

from trihill.errors import CollinearError
from trihill.reduction import (
    COLLINEAR_TOL,
    ConservationReport,
    RovibState,
    Trajectory,
    _pair_constants,
)
from trihill.systems import BodySystem, preset
from trihill.verify import count_components_periodic, lambda_grid_member, sphere_grid  # noqa: F401


@pytest.fixture(scope="session")
def gravity():
    return preset("gravity-demo")


@pytest.fixture(scope="session")
def helium():
    return preset("helium")


@pytest.fixture(scope="session")
def eep():
    return preset("eep")


@pytest.fixture(scope="session")
def all_systems(gravity, helium, eep):
    return {"gravity-demo": gravity, "helium": helium, "eep": eep}


def oracle_positions(system: BodySystem, rho1: float, rho2: float, phi: float) -> np.ndarray:
    """Body positions (rows 1..3, centre of mass at origin) from first principles."""
    m1, m2, m3 = system.masses
    mu1 = m1 * m3 / (m1 + m3)
    mu2 = m2 * (m1 + m3) / (m1 + m2 + m3)
    d13 = np.array([rho1, 0.0, 0.0]) / math.sqrt(mu1)
    d2 = np.array([rho2 * math.cos(phi), rho2 * math.sin(phi), 0.0]) / math.sqrt(mu2)
    mtot = m1 + m2 + m3
    b13 = -m2 / mtot * d2
    x1 = b13 + m3 / (m1 + m3) * d13
    x3 = b13 - m1 / (m1 + m3) * d13
    x2 = b13 + d2
    return np.vstack([x1, x2, x3])


def oracle_distances(positions: np.ndarray) -> tuple[float, float, float]:
    """(r12, r13, r23) from positions."""
    x1, x2, x3 = positions
    return (
        float(np.linalg.norm(x1 - x2)),
        float(np.linalg.norm(x1 - x3)),
        float(np.linalg.norm(x2 - x3)),
    )


def oracle_inertia_tensor(system: BodySystem, positions: np.ndarray) -> np.ndarray:
    """Moment-of-inertia tensor about the centre of mass."""
    masses = np.asarray(system.masses)
    com = masses @ positions / masses.sum()
    M = np.zeros((3, 3))
    for m, x in zip(masses, positions - com):
        M += m * (np.dot(x, x) * np.eye(3) - np.outer(x, x))
    return M


def oracle_potential(system: BodySystem, positions: np.ndarray) -> float:
    r12, r13, r23 = oracle_distances(positions)
    a1, a2, a3 = system.alphas
    return -a3 / r12 - a2 / r13 - a1 / r23


def oracle_lambda_grid_member(
    system: BodySystem,
    rho1: float,
    rho2: float,
    phi: float,
    j_hat: np.ndarray,
    E: float,
    r: float,
    n_lambda: int = 2001,
) -> bool:
    """Scan the raw Hill inequality over dilations of the configuration.

    Every scaled configuration is rebuilt from positions; principal moments
    come from numpy's eigensolver, the potential from measured distances.
    """
    base = oracle_positions(system, rho1, rho2, phi)
    return lambda_grid_member(system, base, j_hat, E, r, np.logspace(-6.0, 6.0, n_lambda))


def oracle_orientation_class(
    system: BodySystem,
    nu: float,
    rho1: float,
    rho2: float,
    phi: float,
    grid: np.ndarray,
) -> int:
    """0 empty / 1 caps / 2 ring / 3 full, from sphere sampling.

    The accessibility of each sampled direction uses the discriminant
    inequality with principal moments taken from the positions oracle, and
    the caps/ring split comes from counting connected components (two
    components containing the polar rows = caps; one band = ring).
    """
    pos = oracle_positions(system, rho1, rho2, phi)
    mom = np.linalg.eigvalsh(oracle_inertia_tensor(system, pos))
    I = 0.5 * np.trace(oracle_inertia_tensor(system, pos))
    vt = oracle_potential(system, pos) * math.sqrt(I)  # homogeneity: V at I = 1
    momt = mom / I
    er = 0.5 * (
        grid[..., 0] ** 2 / momt[0] + grid[..., 1] ** 2 / momt[1] + grid[..., 2] ** 2 / momt[2]
    )
    if nu < 0:
        acc = np.ones(er.shape, dtype=bool)
    elif nu == 0:
        acc = np.full(er.shape, vt < 0.0)
    elif vt >= 0:
        acc = np.zeros(er.shape, dtype=bool)
    else:
        acc = er <= vt * vt / (4.0 * nu)
    if acc.all():
        return 3
    if not acc.any():
        return 0
    ncomp = count_components_periodic(acc)
    if ncomp == 2 and acc[0].any() and acc[-1].any():
        return 1
    return 2


# Per-pixel CSV writers as they were before the row-at-a-time ones in
# trihill.scan and trihill.reduction: the byte-for-byte references.


def oracle_scan_csv(scan) -> bytes:
    from trihill.scan import CellClass, pixel_centers

    c = pixel_centers(scan.resolution)
    lines = ["w1,w2,class"]
    for i in range(scan.resolution):
        for j in range(scan.resolution):
            lines.append(
                f"{format(c[i], '.12g')},{format(c[j], '.12g')},"
                f"{CellClass(scan.cells[i, j]).name}"
            )
    return ("\n".join(lines) + "\n").encode()


def oracle_grid_csv(grid) -> bytes:
    from trihill.scan import pixel_centers

    n = grid.resolution
    if grid.chi_psi:
        a = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        b = (np.arange(n) + 0.5) * (0.5 * math.pi / n)
        header = "psi,chi,value"
    else:
        a = b = pixel_centers(n)
        header = "w1,w2,value"
    lines = [header]
    for i in range(n):
        for j in range(n):
            lines.append(
                f"{format(a[i], '.12g')},{format(b[j], '.12g')},"
                f"{format(grid.values[i, j], '.12g')}"
            )
    return ("\n".join(lines) + "\n").encode()


def oracle_traj_csv(traj) -> str:
    lines = ["t,q1,q2,q3,p1,p2,p3,J1,J2,J3,H"]
    for tk, row, hk in zip(traj.t, traj.states, traj.energy):
        vals = [tk, *row, hk]
        lines.append(",".join(format(v, ".17g") for v in vals))
    return "\n".join(lines) + "\n"


# The reduced flow and RK4 loop as they were on numpy float64 scalars and
# 9-element arrays, before trihill.reduction moved them to Python floats:
# the bit-for-bit reference for trajectories, energies and reports.


def _oracle_potential_and_grad(pairs, rho1, rho2, phi):
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


def oracle_flow(pairs, y: np.ndarray):
    """(H, ydot) from numpy scalars indexed out of the flat state array."""
    rho1, rho2, phi = y[0], y[1], y[2]
    if math.isinf(phi):
        return math.nan, np.full(9, math.nan)
    s, c = math.sin(phi), math.cos(phi)
    if rho1 < COLLINEAR_TOL or rho2 < COLLINEAR_TOL or s < COLLINEAR_TOL:
        raise CollinearError(
            f"state at (rho1, rho2, phi) = ({rho1}, {rho2}, {phi}) is on the "
            "collinear chart boundary"
        )
    r1s, r2s = rho1 * rho1, rho2 * rho2
    det2 = r1s * r2s * s * s
    i00, i01, i11 = (r1s + r2s * c * c) / det2, (r2s * s * c) / det2, (r2s * s * s) / det2
    I = r1s + r2s
    i22 = 1.0 / I
    J1, J2, J3 = y[6], y[7], y[8]
    w1 = i00 * J1 + i01 * J2
    w2 = i01 * J1 + i11 * J2
    w3 = i22 * J3
    a_phi = r2s / I
    g33 = I / (rho1 * rho1 * rho2 * rho2)
    u3 = y[5] - J3 * a_phi
    V, dV1, dV2, dVphi = _oracle_potential_and_grad(pairs, rho1, rho2, phi)
    rot = 0.5 * (i00 * J1 * J1 + 2.0 * i01 * J1 * J2 + i11 * J2 * J2 + i22 * J3 * J3)
    vib = 0.5 * (y[3] * y[3] + y[4] * y[4] + g33 * u3 * u3)
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
    ydot = np.array(
        [
            y[3],
            y[4],
            g33 * u3,
            pdot1,
            pdot2,
            pdotphi,
            J2 * g3 - J3 * g2,
            J3 * g1 - J1 * g3,
            J1 * g2 - J2 * g1,
        ]
    )
    return rot + vib + V, ydot


def oracle_integrate(system: BodySystem, s0, dt: float, nsteps: int):
    """RK4 on arrays through ``oracle_flow``; numpy's warnings on non-finite
    states are silenced, the run's report says what happened."""
    pairs = _pair_constants(system)
    y = RovibState(s0.q, s0.p, s0.J).flat()
    t = np.empty(nsteps + 1)
    states = np.empty((nsteps + 1, 9))
    energy = np.empty(nsteps + 1)
    t[0] = 0.0
    states[0] = y
    with np.errstate(all="ignore"):
        energy[0], k1 = oracle_flow(pairs, y)
        n_done = nsteps
        message = ""
        for k in range(nsteps):
            try:
                k2 = oracle_flow(pairs, y + 0.5 * dt * k1)[1]
                k3 = oracle_flow(pairs, y + 0.5 * dt * k2)[1]
                k4 = oracle_flow(pairs, y + dt * k3)[1]
                y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                energy[k + 1], k1 = oracle_flow(pairs, y)
            except CollinearError as exc:
                n_done = k
                message = f"truncated at step {k}: {exc}"
                break
            if not math.isfinite(energy[k + 1]):
                n_done = k
                message = f"truncated at step {k}: non-finite state"
                break
            t[k + 1] = (k + 1) * dt
            states[k + 1] = y
        traj = Trajectory(t[: n_done + 1], states[: n_done + 1], energy[: n_done + 1])
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
