"""Shared fixtures and independent oracles.

The oracles below rebuild configurations from explicit body positions and
plain mass-weighted definitions; they deliberately avoid the closed-form
paths in the package so that agreement is meaningful.
"""

import math

import numpy as np
import pytest

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
