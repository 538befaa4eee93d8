"""Shared fixtures and two kinds of reference code.

The independent physics oracles rebuild configurations from explicit body
positions and plain mass-weighted definitions; they avoid the closed-form
paths in the package so that agreement is meaningful.  Each frozen bit
reference is a path of the package as it was before a faster or smaller one
replaced it, one per replaced path, kept so that the replacement is pinned
to the last bit.
"""

import functools
import itertools
import math
import sys

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from trihill.coords import Shape, pair_geometry, positions_from_jacobi
from trihill.critical import _collinear_entry, _is_relative_equilibrium
from trihill.errors import CollinearError, DomainError
from trihill.hill import membership, moments, orientation_class, shape_eval, shape_kernel
from trihill.reduction import (
    COLLINEAR_TOL,
    ConservationReport,
    RovibState,
    Trajectory,
    eom,
    hamiltonian,
)
from trihill.systems import BodySystem, preset
from trihill.verify import (  # noqa: F401
    VerificationReport,
    lambda_grid_member,
    sphere_orientation_class,
)


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

    Body positions come from ``oracle_positions``; ``lambda_grid_member``
    takes the principal moments (numpy's eigensolver) and the potential
    (measured distances) from them once, and dilation enters through the
    weights lam^2 on the moments and 1/lam on the potential.
    """
    base = oracle_positions(system, rho1, rho2, phi)
    return lambda_grid_member(system, base, j_hat, E, r, np.logspace(-6.0, 6.0, n_lambda))


def oracle_lambda_grid_rebuild(system: BodySystem, base, j_hat, E, r, lam_grid) -> bool:
    """The dilation-grid scan with no use of homogeneity: every scaled
    configuration lam * base is rebuilt, with its own inertia tensor,
    eigenvalues and distances.  The reference for ``lambda_grid_member``."""
    masses = np.asarray(system.masses)
    pos = lam_grid[:, None, None] * base[None, :, :]  # (L, body, xyz)
    a1, a2, a3 = system.alphas
    d12 = np.linalg.norm(pos[:, 0] - pos[:, 1], axis=-1)
    d13 = np.linalg.norm(pos[:, 0] - pos[:, 2], axis=-1)
    d23 = np.linalg.norm(pos[:, 1] - pos[:, 2], axis=-1)
    V = -(a3 / d12 + a2 / d13 + a1 / d23)
    sq = np.einsum("lbx,lbx->lb", pos, pos)
    M = np.einsum("b,lb,xy->lxy", masses, sq, np.eye(3)) - np.einsum(
        "b,lbx,lby->lxy", masses, pos, pos
    )
    mom = np.linalg.eigvalsh(M)  # (L, 3) ascending
    er = 0.5 * r * r * (
        j_hat[0] ** 2 / mom[:, 0] + j_hat[1] ** 2 / mom[:, 1] + j_hat[2] ** 2 / mom[:, 2]
    )
    return bool(np.min(er + V) <= E)


def oracle_orientation_class(
    system: BodySystem,
    nu: float,
    rho1: float,
    rho2: float,
    phi: float,
) -> int:
    """0 empty / 1 caps / 2 ring / 3 full, from sphere sampling.

    The principal moments and Vt come from the positions oracle, not from
    trihill.hill; the sphere census is ``sphere_orientation_class``.
    """
    pos = oracle_positions(system, rho1, rho2, phi)
    M = oracle_inertia_tensor(system, pos)
    I = 0.5 * np.trace(M)
    vt = oracle_potential(system, pos) * math.sqrt(I)  # homogeneity: V at I = 1
    return sphere_orientation_class(np.linalg.eigvalsh(M) / I, vt, nu)


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


# The scan as it was before trihill.scan certified whole pixel blocks: every
# interior pixel through the class rule.  The bit-for-bit reference for
# scan_disk's cells.


def oracle_scan_disk(system: BodySystem, nu: float, n: int) -> np.ndarray:
    from trihill.hill import class_codes, moments, shape_value
    from trihill.scan import CellClass, pixel_centers

    c = pixel_centers(n)
    W1, W2 = np.meshgrid(c, c, indexing="ij")
    s2 = W1 * W1 + W2 * W2
    cells = np.full((n, n), CellClass.OUTSIDE, dtype=np.int8)
    inside = s2 < 1.0
    band = inside & (1.0 - s2 < (2.0 / n) ** 2)
    interior = inside & ~band
    if interior.any():
        w1, w2 = W1[interior], W2[interior]
        codes = class_codes(nu, shape_value(system, w1, w2), moments(np.hypot(w1, w2)))
        cells[interior] = codes + np.int8(CellClass.EMPTY)
    cells[band] = CellClass.BOUNDARY
    return cells


# The census and the PPM writer as they were with scipy's binary dilation
# and fancy indexing: the bit-for-bit references for component_census and
# the PPM encoder.


def oracle_component_census(scan):
    from scipy import ndimage

    from trihill.scan import CellClass, CensusReport

    counts, touches = {}, {}
    near_boundary = ndimage.binary_dilation(scan.cells == CellClass.BOUNDARY)
    for cls in (CellClass.EMPTY, CellClass.CAPS, CellClass.RING, CellClass.FULL):
        mask = scan.cells == cls
        _, n = ndimage.label(mask)
        counts[cls] = int(n)
        touches[cls] = bool(np.logical_and(mask, near_boundary).any())
    return CensusReport(counts=counts, touches_boundary=touches)


def oracle_scan_ppm(scan) -> bytes:
    from trihill.scan import PALETTE, CellClass

    n = scan.resolution
    lut = np.array([PALETTE[cls] for cls in CellClass], dtype=np.uint8)
    rgb = lut[np.flipud(scan.cells.T)]
    return f"P6\n{n} {n}\n255\n".encode() + rgb.tobytes()


def _rebind(monkeypatch, func, replacement):
    """Bind ``replacement`` wherever a trihill module binds ``func``."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "trihill":
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, replacement)


def forbid(monkeypatch, func):
    """Make every trihill module's binding of ``func`` raise when called."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"{func.__module__}.{func.__name__} was called")

    _rebind(monkeypatch, func, refuse)


def count_calls(monkeypatch, func) -> list:
    """Make every trihill module's binding of ``func`` record its calls:
    the returned list gets the arguments of each call, which goes on to
    ``func``."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    _rebind(monkeypatch, func, counted)
    return calls


def oracle_traj_csv(traj) -> str:
    lines = ["t,q1,q2,q3,p1,p2,p3,J1,J2,J3,H"]
    for tk, row, hk in zip(traj.t, traj.states, traj.energy):
        vals = [tk, *row, hk]
        lines.append(",".join(format(v, ".17g") for v in vals))
    return "\n".join(lines) + "\n"


# The reduced flow and RK4 loop on Python floats as they were before
# trihill.reduction read a chart table and held the state in nine locals:
# the bit-for-bit reference for trajectories, energies and reports, also on
# states where Python floats raise and numpy returns inf.


def _oracle_pair_sums(pairs, rho1, rho2, phi):
    cphi, sphi = math.cos(phi), math.sin(phi)
    V = g0 = g1 = g2 = 0.0
    for _, _, mu, gam, _, cpsi, spsi in pairs:
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


def _oracle_float_flow(pairs, y):
    """(H, ydot) from a list of Python floats, reading the pair table per call."""
    rho1, rho2, phi, p1, p2, p3, J1, J2, J3 = y
    if math.isinf(phi):
        return math.nan, (math.nan,) * 9
    s, c = math.sin(phi), math.cos(phi)
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
        V, dV1, dV2, dVphi = _oracle_pair_sums(pairs, rho1, rho2, phi)
        rot = 0.5 * (i00 * J1 * J1 + 2.0 * i01 * J1 * J2 + i11 * J2 * J2 + i22 * J3 * J3)
        vib = 0.5 * (p1 * p1 + p2 * p2 + g33 * u3 * u3)
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
    except (OverflowError, ZeroDivisionError, ValueError):
        return math.nan, (math.nan,) * 9


def oracle_float_integrate(system: BodySystem, s0, dt: float, nsteps: int):
    """RK4 through ``_oracle_float_flow`` with the state a list of Python
    floats and each stage a list comprehension over zipped lists."""
    dt = float(dt)
    half, sixth = 0.5 * dt, dt / 6.0
    pairs = pair_geometry(system)
    y = RovibState(s0.q, s0.p, s0.J).flat().tolist()
    states = np.empty((nsteps + 1, 9))
    energy = np.empty(nsteps + 1)
    states[0] = y
    energy[0], k1 = _oracle_float_flow(pairs, y)
    n_done = nsteps
    message = ""
    for k in range(nsteps):
        try:
            k2 = _oracle_float_flow(pairs, [a + half * b for a, b in zip(y, k1)])[1]
            k3 = _oracle_float_flow(pairs, [a + half * b for a, b in zip(y, k2)])[1]
            k4 = _oracle_float_flow(pairs, [a + dt * b for a, b in zip(y, k3)])[1]
            y = [
                a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
            ]
            H, k1 = _oracle_float_flow(pairs, y)
        except CollinearError as exc:
            n_done = k
            message = f"truncated at step {k}: {exc}"
            break
        if not math.isfinite(H):
            n_done = k
            message = f"truncated at step {k}: non-finite state"
            break
        states[k + 1] = y
        energy[k + 1] = H
    traj = Trajectory(np.arange(n_done + 1) * dt, states[: n_done + 1], energy[: n_done + 1])
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


# The derivatives of sqrt(Mt_k) Vt as they were before trihill.critical wrote
# them out per component on 1-D rows: stacked (2, n) and (3, n) arrays over
# disk points W (n, 2).  The bit-for-bit reference for the row kernel
# critical._sqrtmk_v_derivatives, and the kernel of the search oracle below.


def oracle_sqrtmk_v_derivatives(system: BodySystem, k: int, W: np.ndarray):
    w = W.T
    V, dV, d2V = shape_kernel(system, w[0], w[1])
    s = np.hypot(w[0], w[1])
    mk = moments(s)[k - 1]
    b = moments(1.0)[k - 1] - moments(0.0)[k - 1]  # Mt_k = a + b s
    sq = np.sqrt(mk)
    q1, q2 = b / (2.0 * sq), -b * b / (4.0 * mk * sq)
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0.0)
    u = w * inv_s
    i, j = [0, 0, 1], [0, 1, 1]  # (11, 12, 22) components
    hess = (
        sq * d2V
        + q1 * (u[i] * dV[j] + u[j] * dV[i])
        + (q2 - q1 * inv_s) * V * u[i] * u[j]
        + np.array([[1.0], [0.0], [1.0]]) * (q1 * V * inv_s)
    )
    return sq * dV + q1 * V * u, hess


# The critical-shape search as it was before trihill.critical iterated only
# the seeds that still move: damped Newton on every seed, three kernel calls
# per iteration.  The reference hit set for find_critical_shapes, matched
# within 1e-12 in w and 1e-12 relative in nu: retiring stalled seeds moves
# a hit by ulps where another seed reaches it first.


def oracle_find_critical_shapes(system: BodySystem, k: int, seeds: int = 64):
    margin, core = 1e-3, 1e-3
    ax = np.linspace(-1.0, 1.0, seeds + 2)[1:-1]
    W = np.array([(x, y) for x in ax for y in ax])
    srad = np.hypot(W[:, 0], W[:, 1])
    keep = srad < 1.0 - margin
    if k != 3:
        keep &= srad > core
    W = W[keep]

    def newton_data(W):
        g, h = oracle_sqrtmk_v_derivatives(system, k, W)
        return np.concatenate([g, h]).T, g[0] * g[0] + g[1] * g[1]

    D, gn = newton_data(W)
    for _ in range(80):
        g1, g2, h11, h12, h22 = D.T
        det = h11 * h22 - h12 * h12
        bad = np.abs(det) < 1e-300
        det = np.where(bad, 1.0, det)
        dx = (g1 * h22 - g2 * h12) / det
        dy = (h11 * g2 - h12 * g1) / det
        step = np.stack([np.where(bad, 0.0, dx), np.where(bad, 0.0, dy)], axis=1)
        norm = np.linalg.norm(step, axis=1, keepdims=True)
        step = step * np.where(norm > 0.1, 0.1 / np.maximum(norm, 1e-300), 1.0)
        best_W, best_D, best_gn = W, D, gn
        for damp in (1.0, 0.5, 0.25):
            cand = W - damp * step
            srad = np.hypot(cand[:, 0], cand[:, 1])
            lim = 1.0 - margin
            scale = np.where(srad > lim, lim / srad, 1.0)
            cand = cand * scale[:, None]
            if k != 3:
                srad = np.hypot(cand[:, 0], cand[:, 1])
                push = np.where(srad < core, core / np.maximum(srad, 1e-12), 1.0)
                cand = cand * push[:, None]
            Dc, gnc = newton_data(cand)
            better = gnc < best_gn
            best_W = np.where(better[:, None], cand, best_W)
            best_D = np.where(better[:, None], Dc, best_D)
            best_gn = np.where(better, gnc, best_gn)
        W, D, gn = best_W, best_D, best_gn
        if np.all(gn[np.isfinite(gn)] < 1e-26):
            break

    converged = np.isfinite(gn) & (gn < 1e-22)
    found = []
    for w1, w2 in W[converged]:
        if any(abs(w1 - s.w1) < 1e-7 and abs(w2 - s.w2) < 1e-7 for s, _ in found):
            continue
        srad = math.hypot(w1, w2)
        if srad >= 1.0 - margin or (k != 3 and srad <= core):
            continue
        shape = Shape(w1, w2)
        ev = shape_eval(system, shape)
        if ev.v_tilde >= 0.0:
            continue
        mk = ev.m_tilde[k - 1]
        nu = 0.5 * mk * ev.v_tilde**2
        if not _is_relative_equilibrium(system, shape, k, ev.v_tilde, mk):
            continue
        found.append((shape, nu))
    return sorted(found, key=lambda item: (item[1], item[0].w1, item[0].w2))


# The collinear family as it was when numpy.polynomial built Euler's quintic
# and solved it one ordering at a time, when the Newton polish ran on arrays
# with numpy's polyval, and when the roots of the V = 0 quadratic A were
# solved beside the quintic: the bit-for-bit reference for collinear_configs,
# with numpy's warnings on extreme systems silenced.


def oracle_collinear_polynomials(system: BodySystem, order):
    """Euler's quintic P, the quadratic A, its scale and I(x) for bodies
    ``order`` at (0, x, 1 + x), built with numpy.polynomial: P = 1/2 I' A
    x(1+x) + I B with B = V' x^2 (1+x)^2, trimmed of zero leading
    coefficients."""
    i, j, k = order
    mi, mj, mk = (system.masses[b - 1] for b in order)
    gij, gjk, gik = (system.pair_coupling(*pair) for pair in ((i, j), (j, k), (i, k)))
    with np.errstate(all="ignore"):
        iw = np.array([mj * mk + mi * mk, 2.0 * mi * mk, mi * mj + mi * mk]) / (mi + mj + mk)
        a = -np.array([gij, gij + gjk + gik, gjk])
        scale = np.array([abs(gij), abs(gij) + abs(gjk) + abs(gik), abs(gjk)])
        b = np.array([gij, 2.0 * gij, gij + gik])
        quintic = P.polyadd(
            0.5 * P.polymul(P.polymul(P.polyder(iw), a), [0.0, 1.0, 1.0]), P.polymul(iw, b)
        )
    if not all(np.isfinite(c).all() for c in (quintic, a, scale, iw)):
        raise DomainError("collinear polynomial coefficients overflow")
    return quintic, a, scale, iw


def oracle_roots_in_unit_interval(c):
    with np.errstate(all="ignore"):
        try:
            r = P.polyroots(c)
        except np.linalg.LinAlgError:
            raise DomainError("collinear polynomial roots overflow") from None
        x = r.real[(np.abs(r.imag) <= 1e-7 * np.abs(r)) & (r.real > 0.0)]
        dc = P.polyder(c)
        value = P.polyval(x, c)
        for _ in range(3):
            slope = P.polyval(x, dc)
            cand = x - np.divide(value, slope, out=np.zeros_like(x), where=slope != 0.0)
            cand_value = P.polyval(cand, c)
            better = np.abs(cand_value) < np.abs(value)
            x, value = np.where(better, cand, x), np.where(better, cand_value, value)
        t = x / (1.0 + x)
        inside = (0.0 < t) & (t < 1.0)
    return x[inside].tolist(), value[inside].tolist()


def oracle_collinear_roots(system: BodySystem, quadratic: bool = False):
    """(order, x, A(x), P(x), I(x), physical) at each polished root x of
    Euler's quintic P, or of A where ``quadratic``, per ordering; a root is
    physical where A is below zero by more than 1e-9 of its scale."""

    def at(c, x):
        with np.errstate(all="ignore"):
            return float(P.polyval(x, c))

    out = []
    for middle in (1, 2, 3):
        i, k = [b for b in (1, 2, 3) if b != middle]
        order = (i, middle, k)
        quintic, quad, scale, iw = oracle_collinear_polynomials(system, order)
        xs, values = oracle_roots_in_unit_interval(quad if quadratic else quintic)
        for x, value in zip(xs, values):
            a, p = (value, at(quintic, x)) if quadratic else (at(quad, x), value)
            out.append((order, x, a, p, at(iw, x), a < -1e-9 * at(scale, x)))
    return out


def oracle_collinear_configs(system: BodySystem):
    out = []
    for order, x, a, p, inertia, physical in oracle_collinear_roots(system):
        if physical:
            v = a / (x * (1.0 + x))
            nu = 0.5 * inertia * v * v
            residual = abs(v * p / x / x) / max(1.0, nu)
            out.append(_collinear_entry(system, order, x / (1.0 + x), nu, residual))
    return sorted(out, key=lambda cv: cv.nu)


# The finite-difference suite and the sphere census as they were before
# trihill.verify perturbed the float state with reduction._flow and returned
# the fixed classes without sampling: the bit-for-bit references.


def oracle_eom_fd_suite(system: BodySystem, samples: int = 300) -> float:
    """``measured`` of the check eom.finite_difference, from a RovibState and
    a ``hamiltonian`` call per energy."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(samples):
        q = np.array(
            [rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0), rng.uniform(0.3, math.pi - 0.3)]
        )
        p = rng.normal(0.0, 1.0, 3)
        J = rng.normal(0.0, 1.0, 3)
        state = RovibState(q, p, J)
        d = eom(system, state)
        scale = max(1.0, float(np.max(np.abs(d.q))), float(np.max(np.abs(d.p))))

        def h_of(qq, pp, JJ):
            return hamiltonian(system, RovibState(qq, pp, JJ))

        for mu in range(3):
            hh = 1e-6 * max(1.0, abs(q[mu]))
            qp, qm = q.copy(), q.copy()
            qp[mu] += hh
            qm[mu] -= hh
            fd = (h_of(qp, p, J) - h_of(qm, p, J)) / (2 * hh)
            worst = max(worst, abs(-fd - d.p[mu]) / scale)
            pp_, pm = p.copy(), p.copy()
            pp_[mu] += hh
            pm[mu] -= hh
            fd = (h_of(q, pp_, J) - h_of(q, pm, J)) / (2 * hh)
            worst = max(worst, abs(fd - d.q[mu]) / scale)
        jdot_dot_j = abs(float(np.dot(d.J, J)))
        worst = max(worst, jdot_dot_j / max(1.0, float(np.dot(J, J))))
    return float(worst)


@functools.cache
def sphere_grid() -> np.ndarray:
    """Latitude/longitude grid of unit vectors in 2-degree steps, (90, 180, 3),
    poles omitted; built once per process, read-only: the whole sphere the
    census's octant stands for, and the tests' reference for it.  Its first
    octant is the census's, from the same expressions, mirrored onto the
    other seven with the signs flipped, so every squared component is the
    same, bit for bit, at a cell and at its images under x -> -x, y -> -y
    and z -> -z."""
    th = np.radians(np.arange(1.0, 90.0, 2.0))[:, None]
    ph = np.radians(np.arange(0.0, 91.0, 2.0))
    st, ct = np.sin(th), np.broadcast_to(np.cos(th), (45, 46))
    xyz = unfold(np.stack([st * np.cos(ph), st * np.sin(ph), ct]))
    xyz[0, :, 46:136] *= -1.0  # longitudes 92..270: x < 0
    xyz[1, :, 91:] *= -1.0  # longitudes 182..358: y < 0
    xyz[2, 45:] *= -1.0  # colatitudes 91..179: z < 0
    grid = np.ascontiguousarray(np.moveaxis(xyz, 0, -1))
    grid.setflags(write=False)
    return grid


def unfold(octant: np.ndarray) -> np.ndarray:
    """Values (..., 45, 46) on the first octant of ``sphere_grid`` spread to
    its (..., 90, 180) cells: each cell takes the value of its image there."""
    # longitudes 0..90, then 92..180, 182..270 and 272..358 from their images
    half = np.concatenate([octant, octant[..., 44::-1], octant[..., 1:], octant[..., 44:0:-1]], -1)
    return np.concatenate([half, half[..., ::-1, :]], axis=-2)


def oracle_sphere_orientation_class(m_tilde, v_tilde: float, nu: float, grid) -> int:
    """The sphere census with the accessible set built on the whole grid in
    every case, its components counted by ``oracle_count_components_periodic``."""
    m1, m2, m3 = m_tilde
    er = 0.5 * (
        grid[..., 0] ** 2 / m1 + grid[..., 1] ** 2 / m2 + grid[..., 2] ** 2 / m3
    )
    if nu < 0:
        acc = np.ones_like(er, dtype=bool)
    elif nu == 0:
        acc = np.full_like(er, v_tilde < 0.0, dtype=bool)
    elif v_tilde >= 0:
        acc = np.zeros_like(er, dtype=bool)
    else:
        acc = er <= v_tilde**2 / (4.0 * nu)
    if acc.all():
        return 3  # FULL
    if not acc.any():
        return 0  # EMPTY
    caps = oracle_count_components_periodic(acc) == 2 and acc[0].any() and acc[-1].any()
    return 1 if caps else 2


def oracle_count_components_periodic(mask: np.ndarray) -> int:
    """Components by breadth-first search over the set cells: 4-neighbours,
    the longitude wrapping round, every cell of the first row joined to the
    others of that row, and likewise for the last row."""
    rows, cols = mask.shape
    cells = {(i, j) for i in range(rows) for j in range(cols) if mask[i, j]}
    seen = set()
    count = 0
    for start in cells:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = [start]
        while queue:
            i, j = queue.pop()
            near = [(i - 1, j), (i + 1, j), (i, (j - 1) % cols), (i, (j + 1) % cols)]
            if i in (0, rows - 1):
                near += [(i, k) for k in range(cols)]
            for cell in near:
                if cell in cells and cell not in seen:
                    seen.add(cell)
                    queue.append(cell)
    return count


def _oracle_near_threshold(ev, nu: float) -> bool:
    """Whether nu lies within 1e-6 of 0 or (scaled) of a class threshold."""
    if ev.v_tilde >= 0.0:
        return abs(nu) < 1e-6
    v2 = ev.v_tilde**2
    for mk in ev.m_tilde:
        if abs(nu - 0.5 * mk * v2) < 1e-6 * max(1.0, v2):
            return True
    return abs(nu) < 1e-6


def oracle_oracle_suites(system: BodySystem, samples: int = 150) -> str:
    """The CHECK lines of ``verify._oracle_suites`` from its sample-by-sample
    loop as it was before the batched one: the same draws from seed 5150,
    each sample through the scalar public calls (``membership``,
    ``orientation_class``, a one-configuration ``lambda_grid_member`` and a
    one-sample ``sphere_orientation_class``) as it is drawn."""
    rng = np.random.default_rng(5150)
    lam_grid = np.logspace(-6.0, 6.0, 1_500)
    mismatch_m = mismatch_o = 0
    for _ in range(samples):
        while True:
            w1, w2 = rng.uniform(-0.98, 0.98, 2)
            if math.hypot(w1, w2) < 0.98:
                break
        shape = Shape(w1, w2)
        jh = rng.normal(0.0, 1.0, 3)
        jh /= np.linalg.norm(jh)
        E = float(rng.uniform(-3.0, 1.0))
        r = float(rng.uniform(0.2, 2.0))
        got = membership(system, E, r, shape, jh).member
        base = positions_from_jacobi(system, shape.to_jacobi())
        mismatch_m += got != lambda_grid_member(system, base, jh, E, r, lam_grid)
        ev = shape_eval(system, shape)
        nu = float(rng.uniform(-0.5, 3.0)) * max(1.0, abs(ev.v_tilde))
        if _oracle_near_threshold(ev, nu):
            continue
        got_c = int(orientation_class(system, nu, shape))
        mismatch_o += got_c != sphere_orientation_class(ev.m_tilde, ev.v_tilde, nu)
    report = VerificationReport()
    report.add("hill.membership_oracle", float(mismatch_m), 0.0, f"{samples} samples")
    report.add("hill.orientation_oracle", float(mismatch_o), 0.0, f"{samples} samples")
    return report.text()


def verify_workload_systems(seed: int) -> list[BodySystem]:
    """The 12 random systems of the benchmark's verify workload at ``seed``:
    masses U(0.1, 5) and couplings U(-3, 3) from the stream (seed, 4)."""
    rng = np.random.default_rng((seed, 4))
    out = []
    for _ in range(12):
        masses, alphas = rng.uniform(0.1, 5.0, 3), rng.uniform(-3.0, 3.0, 3)
        out.append(BodySystem(tuple(masses.tolist()), tuple(alphas.tolist())))
    return out


def spiral_mask(n: int) -> np.ndarray:
    """One 4-connected path winding inwards on an n x n grid, its turns a
    cell apart: a single component of diameter about n^2 / 2."""
    mask = np.zeros((n, n), dtype=bool)
    i = j = 0
    mask[0, 0] = True
    steps = [n - 1, n - 1] + [k for k in range(n - 1, 0, -2) for _ in (0, 1)][1:]
    for step, (di, dj) in zip(steps, itertools.cycle(((0, 1), (1, 0), (0, -1), (-1, 0)))):
        if step <= 0:
            break
        for _ in range(step):
            i, j = i + di, j + dj
            mask[i, j] = True
    return mask


def adversarial_masks():
    """Masks that stress a component counter, by name: empty and full masks
    of degenerate shapes, a checkerboard (each cell its own component), combs
    and paths of long diameter, and seeded noise at several densities."""
    masks = {}
    for shape in ((1, 1), (1, 9), (9, 1), (2, 2), (5, 7)):
        masks[f"empty{shape}"] = np.zeros(shape, dtype=bool)
        masks[f"full{shape}"] = np.ones(shape, dtype=bool)
    for shape in ((2, 2), (33, 34), (34, 34), (1, 9), (9, 1)):
        masks[f"checkerboard{shape}"] = np.indices(shape).sum(axis=0) % 2 == 0
    comb = np.zeros((60, 61), dtype=bool)
    comb[:, ::2] = True
    masks["teeth"] = comb.copy()
    comb[-1] = True
    masks["comb"] = comb
    masks["comb.T"] = comb.T.copy()
    masks["comb upside down"] = comb[::-1].copy()
    for n in (3, 4, 7, 60, 61):
        masks[f"spiral{n}"] = spiral_mask(n)
    serpentine = np.zeros((59, 40), dtype=bool)
    serpentine[::2] = True
    serpentine[1::4, -1] = serpentine[3::4, 0] = True
    masks["serpentine"] = serpentine
    rng = np.random.default_rng(2009)
    for shape in ((1, 50), (50, 1), (3, 3), (17, 40), (90, 180), (128, 128)):
        for density in (0.05, 0.3, 0.5, 0.59, 0.7, 0.95):
            masks[f"noise{shape}@{density}"] = rng.random(shape) < density
    return masks
