"""Coordinates on the translation-reduced configuration space of three bodies.

Three charts are provided, with exact transforms between them:

* Jacobi coordinates (rho1, rho2, phi): lengths of the two mass-weighted
  Jacobi vectors and the angle between them, 0 <= phi <= pi.
* w-coordinates: (w1, w2, w3) = (rho1^2 - rho2^2, 2 rho1 rho2 cos phi,
  2 rho1 rho2 sin phi), the half-space w3 >= 0.  Collinear configurations lie
  in the plane w3 = 0; collisions lie on rays from the origin in that plane.
* Dragt coordinates (omega, chi, psi): spherical coordinates of w, with chi
  the latitude.  omega = rho1^2 + rho2^2 is the moment of inertia I.

Dilation acts as (rho1, rho2, phi) -> (lam rho1, lam rho2, phi); shapes are
dilation-normalized non-collinear configurations with I = 1, stored as the
disk point (w1, w2) with w3 = sqrt(1 - w1^2 - w2^2) > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CollinearError, DomainError, InternalConsistencyError, TripleCollisionError
from .systems import BodySystem, jacobi_frame

RADICAND_CLAMP = 1e-12  # negative squared distances beyond this are a bug


@dataclass(frozen=True)
class JacobiShapeCoords:
    rho1: float
    rho2: float
    phi: float
    # Set by inverse transforms when the angle is undefined (rho1*rho2 = 0).
    degenerate: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.rho1 < 0 or self.rho2 < 0:
            raise ValueError("rho1, rho2 must be nonnegative")
        if not -1e-12 <= self.phi <= math.pi + 1e-12:
            raise ValueError(f"phi must lie in [0, pi], got {self.phi}")


@dataclass(frozen=True)
class WCoords:
    w1: float
    w2: float
    w3: float

    def __post_init__(self):
        if self.w3 < 0:
            raise ValueError("w3 must be nonnegative")

    @property
    def norm(self) -> float:
        return math.sqrt(self.w1**2 + self.w2**2 + self.w3**2)


@dataclass(frozen=True)
class DragtCoords:
    omega: float
    chi: float
    psi: float
    degenerate: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.omega < 0:
            raise ValueError("omega must be nonnegative")
        if not -1e-12 <= self.chi <= math.pi / 2 + 1e-12:
            raise ValueError(f"chi must lie in [0, pi/2], got {self.chi}")
        if not 0 <= self.psi < 2 * math.pi:
            raise ValueError(f"psi must lie in [0, 2 pi), got {self.psi}")


@dataclass(frozen=True)
class Distances:
    r12: float
    r13: float
    r23: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.r12, self.r13, self.r23)


@dataclass(frozen=True)
class Shape:
    """Dilation-normalized non-collinear configuration, I = 1.

    Stored as the open-unit-disk point (w1, w2); the height
    w3 = sqrt(1 - w1^2 - w2^2) > 0 is recomputed on demand.
    """

    w1: float
    w2: float

    def __post_init__(self):
        if not (math.isfinite(self.w1) and math.isfinite(self.w2)):
            raise DomainError(f"shape ({self.w1}, {self.w2}) is not finite")
        if self.w1**2 + self.w2**2 >= 1.0:
            raise CollinearError(
                f"shape ({self.w1}, {self.w2}) lies on or outside the collinear circle"
            )

    @property
    def w3(self) -> float:
        return math.sqrt(1.0 - self.w1**2 - self.w2**2)

    @property
    def radius(self) -> float:
        """Distance from the diabolic point at the disk centre."""
        return math.hypot(self.w1, self.w2)

    def to_w(self) -> WCoords:
        return WCoords(self.w1, self.w2, self.w3)

    def to_jacobi(self) -> JacobiShapeCoords:
        return jacobi_from_w(self.to_w())


def w_from_jacobi(j: JacobiShapeCoords) -> WCoords:
    r1s, r2s = j.rho1**2, j.rho2**2
    cross = 2.0 * j.rho1 * j.rho2
    return WCoords(r1s - r2s, cross * math.cos(j.phi), cross * math.sin(j.phi))


def jacobi_from_w(w: WCoords) -> JacobiShapeCoords:
    omega = w.norm
    rho1 = math.sqrt(max(0.5 * (omega + w.w1), 0.0))
    rho2 = math.sqrt(max(0.5 * (omega - w.w1), 0.0))
    if rho1 * rho2 == 0.0:
        # Angle between the Jacobi vectors is undefined when one vanishes.
        return JacobiShapeCoords(rho1, rho2, 0.0, degenerate=True)
    return JacobiShapeCoords(rho1, rho2, math.atan2(w.w3, w.w2))


def dragt_from_w(w: WCoords) -> DragtCoords:
    omega = w.norm
    if omega == 0.0:
        return DragtCoords(0.0, 0.0, 0.0, degenerate=True)
    chi = math.atan2(w.w3, math.hypot(w.w1, w.w2))
    if w.w1 == 0.0 and w.w2 == 0.0:
        # Pole chi = pi/2: the azimuth is undefined.
        return DragtCoords(omega, chi, 0.0, degenerate=True)
    psi = math.atan2(w.w2, w.w1) % (2.0 * math.pi)
    return DragtCoords(omega, chi, psi)


def w_from_dragt(d: DragtCoords) -> WCoords:
    cc = d.omega * math.cos(d.chi)
    return WCoords(cc * math.cos(d.psi), cc * math.sin(d.psi), d.omega * math.sin(d.chi))


def dragt_from_jacobi(j: JacobiShapeCoords) -> DragtCoords:
    return dragt_from_w(w_from_jacobi(j))


def jacobi_from_dragt(d: DragtCoords) -> JacobiShapeCoords:
    return jacobi_from_w(w_from_dragt(d))


def dilate(j: JacobiShapeCoords, lam: float) -> JacobiShapeCoords:
    """Dilation d_lam in the Jacobi chart; I scales by lam^2."""
    if lam <= 0:
        raise ValueError("dilation factor must be positive")
    return JacobiShapeCoords(lam * j.rho1, lam * j.rho2, j.phi)


def moment_of_inertia(j: JacobiShapeCoords) -> float:
    return j.rho1**2 + j.rho2**2


def normalize_shape(j: JacobiShapeCoords) -> tuple[Shape, float]:
    """Rescale to the I = 1 section; returns (shape, lam) with lam^2 = 1/I.

    Raises TripleCollisionError at I = 0 and CollinearError on the boundary,
    which is excluded from the shape space.
    """
    omega = moment_of_inertia(j)
    if omega == 0.0:
        raise TripleCollisionError("triple collision has no shape")
    w = w_from_jacobi(j)
    if w.w3 <= 0.0:
        raise CollinearError("collinear configurations are not in the shape space")
    return Shape(w.w1 / omega, w.w2 / omega), 1.0 / math.sqrt(omega)


def xxy_section(j: JacobiShapeCoords) -> tuple[np.ndarray, np.ndarray]:
    """Body-frame Jacobi vectors in the gauge with r1 on the x axis.

    r1 = (rho1, 0, 0), r2 = (rho2 cos phi, rho2 sin phi, 0); the configuration
    plane is z = 0.
    """
    r1 = np.array([j.rho1, 0.0, 0.0])
    r2 = np.array([j.rho2 * math.cos(j.phi), j.rho2 * math.sin(j.phi), 0.0])
    return r1, r2


def positions_from_jacobi(system: BodySystem, j: JacobiShapeCoords) -> np.ndarray:
    """Centre-of-mass body positions (3x3 array, row i = body i+1).

    Un-mass-weights the gauge section; the inverse of the Jacobi construction.
    """
    fr = jacobi_frame(system)
    r1, r2 = xxy_section(j)
    d13 = r1 / math.sqrt(fr.mu1)  # x1 - x3
    d2 = r2 / math.sqrt(fr.mu2)  # x2 - barycentre(1,3)
    m1, m2, m3 = system.masses
    mtot = m1 + m2 + m3
    # Solve with total centre of mass at the origin.
    b13 = -m2 / mtot * d2  # barycentre of bodies 1 and 3
    x1 = b13 + m3 / (m1 + m3) * d13
    x3 = b13 - m1 / (m1 + m3) * d13
    x2 = b13 + d2
    return np.vstack([x1, x2, x3])


def jacobi_from_positions(system: BodySystem, positions: np.ndarray) -> JacobiShapeCoords:
    """Jacobi coordinates of explicit body positions (rows = bodies 1..3).

    Inverse of :func:`positions_from_jacobi` up to the overall rotation and
    translation removed by the reduction.
    """
    fr = jacobi_frame(system)
    x1, x2, x3 = np.asarray(positions, dtype=float)
    m1, _, m3 = system.masses
    s1 = math.sqrt(fr.mu1) * (x1 - x3)
    s2 = math.sqrt(fr.mu2) * (x2 - (m1 * x1 + m3 * x3) / (m1 + m3))
    rho1 = float(np.linalg.norm(s1))
    rho2 = float(np.linalg.norm(s2))
    if rho1 * rho2 == 0.0:
        return JacobiShapeCoords(rho1, rho2, 0.0, degenerate=True)
    phi = math.atan2(float(np.linalg.norm(np.cross(s1, s2))), float(np.dot(s1, s2)))
    return JacobiShapeCoords(rho1, rho2, phi)


def collision_angles(system: BodySystem) -> tuple[float, float, float]:
    """Polar angles (psi12, psi23, psi13) of the double-collision rays.

    Angles are radians in (-pi, pi], measured in the w3 = 0 plane; the (1,3)
    collision is always at pi.  On the unit circle,
    r_ij = 0 exactly at psi = psi_ij.
    """
    fr = jacobi_frame(system)
    m1, _, m3 = system.masses
    root = math.sqrt(fr.mu1 * fr.mu2)
    psi12 = 2.0 * math.atan2(root, m1)
    psi23 = -2.0 * math.atan2(root, m3)
    return psi12, psi23, math.pi


def pair_geometry(system: BodySystem):
    """Per-pair (reduced mass, coupling, collision angle) for pairs (1,2), (1,3), (2,3).

    Squared pair distances are affine in (omega, w1, w2):

        r_ij^2 = (omega - w1 cos psi_ij - w2 sin psi_ij) / (2 mu_ij)

    which vanishes exactly on the collision ray of the pair.
    """
    psi12, psi23, psi13 = collision_angles(system)
    out = []
    for (i, k), psi in (((1, 2), psi12), ((1, 3), psi13), ((2, 3), psi23)):
        out.append((system.pair_reduced_mass(i, k), system.pair_coupling(i, k), psi))
    return out


def _distances_polar(system: BodySystem, omega: float, rho2d: float, theta: float) -> Distances:
    """Distances from the polar form of the affine pair expressions.

    r_pq^2 = (omega - rho2d cos(theta - psi_pq)) / (2 mu_pq), where rho2d is
    the in-plane part of w and theta its polar angle.  The angle difference
    keeps the radicand exact on the collision rays (no cancellation).
    """
    out = []
    for mu, _gam, psi in pair_geometry(system):
        r2 = (omega - rho2d * math.cos(theta - psi)) / (2.0 * mu)
        if r2 < -RADICAND_CLAMP * max(omega, 1.0):
            raise InternalConsistencyError(f"negative squared distance {r2}")
        out.append(math.sqrt(max(r2, 0.0)))
    return Distances(*out)  # order: (1,2), (1,3), (2,3)


def distances_from_w(system: BodySystem, w: WCoords) -> Distances:
    rho2d = math.hypot(w.w1, w.w2)
    theta = math.atan2(w.w2, w.w1) if rho2d > 0.0 else 0.0
    return _distances_polar(system, w.norm, rho2d, theta)


def distances_from_dragt(system: BodySystem, d: DragtCoords) -> Distances:
    return _distances_polar(system, d.omega, d.omega * math.cos(d.chi), d.psi)


def distances_from_jacobi(system: BodySystem, j: JacobiShapeCoords) -> Distances:
    return distances_from_w(system, w_from_jacobi(j))
