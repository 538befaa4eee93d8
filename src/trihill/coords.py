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

from .errors import CollinearError, DomainError, TripleCollisionError, check_finite
from .systems import BodySystem, Pair, jacobi_frame


@dataclass(frozen=True)
class JacobiShapeCoords:
    rho1: float
    rho2: float
    phi: float
    # Set by inverse transforms when the angle is undefined (rho1*rho2 = 0).
    degenerate: bool = field(default=False, compare=False)

    def __post_init__(self):
        for name in ("rho1", "rho2", "phi"):
            check_finite(name, getattr(self, name))
        if self.rho1 < 0 or self.rho2 < 0:
            raise DomainError("rho1, rho2 must be nonnegative")
        # a product overflows to inf where ``**`` raises OverflowError
        if not math.isfinite(self.rho1 * self.rho1 + self.rho2 * self.rho2):
            raise DomainError(f"rho1^2 + rho2^2 overflows at ({self.rho1}, {self.rho2})")
        if not -1e-12 <= self.phi <= math.pi + 1e-12:
            raise DomainError(f"phi must lie in [0, pi], got {self.phi}")


@dataclass(frozen=True)
class WCoords:
    w1: float
    w2: float
    w3: float

    def __post_init__(self):
        for name in ("w1", "w2", "w3"):
            check_finite(name, getattr(self, name))
        if self.w3 < 0:
            raise DomainError("w3 must be nonnegative")
        if not math.isfinite(self.w1 * self.w1 + self.w2 * self.w2 + self.w3 * self.w3):
            raise DomainError(f"|w|^2 overflows at ({self.w1}, {self.w2}, {self.w3})")

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
        for name in ("omega", "chi", "psi"):
            check_finite(name, getattr(self, name))
        if self.omega < 0:
            raise DomainError("omega must be nonnegative")
        if not -1e-12 <= self.chi <= math.pi / 2 + 1e-12:
            raise DomainError(f"chi must lie in [0, pi/2], got {self.chi}")
        if not 0 <= self.psi < 2 * math.pi:
            raise DomainError(f"psi must lie in [0, 2 pi), got {self.psi}")


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
        # the bounds go first, as the square of a huge coordinate overflows
        if not (abs(self.w1) < 1.0 and abs(self.w2) < 1.0) or self.w1**2 + self.w2**2 >= 1.0:
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
    """Dilation d_lam in the Jacobi chart; I scales by lam^2.  A factor that
    is not positive and finite raises DomainError."""
    if not (math.isfinite(lam) and lam > 0):
        raise DomainError(f"dilation factor must be positive and finite, got {lam}")
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


def _gauge_section(j: JacobiShapeCoords) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The vectors of :func:`xxy_section` as two 3-tuples of floats."""
    return (j.rho1, 0.0, 0.0), (j.rho2 * math.cos(j.phi), j.rho2 * math.sin(j.phi), 0.0)


def xxy_section(j: JacobiShapeCoords) -> tuple[np.ndarray, np.ndarray]:
    """Body-frame Jacobi vectors in the gauge with r1 on the x axis.

    r1 = (rho1, 0, 0), r2 = (rho2 cos phi, rho2 sin phi, 0); the configuration
    plane is z = 0.
    """
    r1, r2 = _gauge_section(j)
    return np.array(r1), np.array(r2)


def positions_from_jacobi(system: BodySystem, j: JacobiShapeCoords) -> np.ndarray:
    """Centre-of-mass body positions (3x3 array, row i = body i+1).

    Un-mass-weights the gauge section of ``xxy_section`` on floats, into
    one array; the inverse of the Jacobi construction.
    """
    fr = jacobi_frame(system)
    s1, s2 = math.sqrt(fr.mu1), math.sqrt(fr.mu2)
    r1, r2 = _gauge_section(j)
    d13 = [x / s1 for x in r1]  # x1 - x3
    d2 = [x / s2 for x in r2]  # x2 - barycentre(1,3)
    m1, m2, m3 = system.masses
    mtot = m1 + m2 + m3
    # Solve with total centre of mass at the origin.
    b13 = [-m2 / mtot * x for x in d2]  # barycentre of bodies 1 and 3
    x1 = [b + m3 / (m1 + m3) * d for b, d in zip(b13, d13)]
    x3 = [b - m1 / (m1 + m3) * d for b, d in zip(b13, d13)]
    x2 = [b + d for b, d in zip(b13, d2)]
    return np.array([x1, x2, x3])


def jacobi_from_positions(system: BodySystem, positions: np.ndarray) -> JacobiShapeCoords:
    """Jacobi coordinates of explicit body positions (rows = bodies 1..3).

    Inverse of :func:`positions_from_jacobi` up to the overall rotation and
    translation removed by the reduction.  Non-3 x 3 positions raise DomainError.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.shape != (3, 3):
        raise DomainError(f"positions must be 3 x 3, got shape {positions.shape}")
    s1, s2 = _jacobi_vectors(system, positions)
    rho1 = float(np.linalg.norm(s1))
    rho2 = float(np.linalg.norm(s2))
    if rho1 * rho2 == 0.0:
        return JacobiShapeCoords(rho1, rho2, 0.0, degenerate=True)
    # exact power-of-two rescale to unit size: for tiny masses the squared
    # components of the cross product underflow and phi would read 0
    s1 = np.ldexp(s1, -math.frexp(rho1)[1])
    s2 = np.ldexp(s2, -math.frexp(rho2)[1])
    phi = math.atan2(float(np.linalg.norm(np.cross(s1, s2))), float(np.dot(s1, s2)))
    return JacobiShapeCoords(rho1, rho2, phi)


def _jacobi_vectors(system: BodySystem, x):
    """Mass-weighted Jacobi vectors s1 = sqrt(mu1) (x1 - x3) and
    s2 = sqrt(mu2) (x2 - barycentre of bodies 1 and 3) of positions ``x``:
    rows for bodies 1..3, either 3-vectors or numbers on one line."""
    fr = jacobi_frame(system)
    x1, x2, x3 = x
    m1, _, m3 = system.masses
    s1 = math.sqrt(fr.mu1) * (x1 - x3)
    s2 = math.sqrt(fr.mu2) * (x2 - (m1 * x1 + m3 * x3) / (m1 + m3))
    return s1, s2


def _rim_point(system: BodySystem, x) -> tuple[float, float]:
    """The point (w1, w2) of the disk's rim for bodies 1..3 at the numbers
    ``x`` on a line.

    There the Jacobi vectors are numbers a and b, and the rim point is
    w = (a^2 - b^2, 2 a b)/(a^2 + b^2): the operations of ``w_from_jacobi``
    over ``moment_of_inertia``, so the bits of the way through the Jacobi
    chart.  The + 0.0 writes w2 = 0 unsigned where b = 0 (body 2 at the
    barycentre of bodies 1 and 3), as the chart does.  A moment of inertia
    that underflows to 0 raises DomainError."""
    a, b = _jacobi_vectors(system, x)
    omega = a * a + b * b
    if omega == 0.0:
        raise DomainError("collinear moment of inertia underflows; rescale the system")
    return (a * a - b * b) / omega, 2.0 * a * b / omega + 0.0


def collision_angles(system: BodySystem) -> tuple[float, float, float]:
    """Polar angles (psi12, psi23, psi13) of the double-collision rays.

    Angles are radians in (-pi, pi], measured in the w3 = 0 plane; the (1,3)
    collision is always at pi.  On the unit circle,
    r_ij = 0 exactly at psi = psi_ij.  They are read from the pair table.
    """
    p12, p13, p23 = system.pairs
    return p12.psi, p23.psi, p13.psi


def pair_geometry(system: BodySystem) -> tuple[Pair, Pair, Pair]:
    """The system's pair table: rows (1,2), (1,3), (2,3) of bodies, reduced
    mass, coupling and collision angle with its cosine and sine.

    Squared pair distances are affine in (omega, w1, w2):

        r_ij^2 = (omega - w1 cos psi_ij - w2 sin psi_ij) / (2 mu_ij)

    which vanishes exactly on the collision ray of the pair; ``_pair_term``
    writes it, at omega = 1.
    """
    return system.pairs


def _pair_term(pair, w1, w2):
    """One pair's squared distance at disk points (w1, w2),

        r^2 = (1 - w1 cos psi - w2 sin psi)/(2 mu),

    affine in w, and its share a/r of -Vt; collision points give signed
    infinities (callers silence numpy's divide and invalid warnings).

    Every float operation here is monotone in each input, which
    ``shape_value_bounds`` relies on; keep it so."""
    r2 = (1.0 - w1 * pair.cos - w2 * pair.sin) / (2.0 * pair.mu)
    return r2, pair.alpha / np.sqrt(r2)


def distances_from_w(system: BodySystem, w: WCoords) -> tuple[float, float, float]:
    """Pair distances (r12, r13, r23), the order of ``system.pairs``:
    ``_pair_term``'s r^2 at the unit-size point w/omega, scaled by omega,
    with rounding below 0 clamped to 0; zeros at the triple collision."""
    omega = w.norm
    if omega == 0.0:
        return 0.0, 0.0, 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = [omega * _pair_term(p, w.w1 / omega, w.w2 / omega)[0] for p in system.pairs]
    return tuple(math.sqrt(max(x, 0.0)) for x in r2)


def distances_from_dragt(system: BodySystem, d: DragtCoords) -> tuple[float, float, float]:
    return distances_from_w(system, w_from_dragt(d))


def distances_from_jacobi(system: BodySystem, j: JacobiShapeCoords) -> tuple[float, float, float]:
    return distances_from_w(system, w_from_jacobi(j))
