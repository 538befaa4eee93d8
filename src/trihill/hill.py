"""Hill-region membership and orientation classification on the shape space.

For energy E and angular-momentum magnitude r > 0, a shape-orientation point
(shape, Jhat) is admissible iff some dilation factor lam > 0 satisfies

    F(lam) = lam^2 E - E_R - lam Vt >= 0,

where Vt is the potential restricted to the I = 1 shape space and
E_R = r^2 * (1/2) Jhat . Mt^-1 . Jhat is the rotational energy built from the
dilation-reduced inertia tensor Mt.  F is a quadratic with discriminant
Delta = 4 E E_R + Vt^2, which yields:

* E > 0: always admissible;
* E = 0: admissible iff Vt < 0;
* E < 0: admissible iff Vt < 0 and Delta >= 0.

For E < 0 everything depends on (E, r) only through nu = -E r^2.  Sweeping
Jhat over the unit sphere at fixed shape, the accessible set is empty, two
caps around the axis-3 poles, a band (ring), or the full sphere, with
transitions exactly at nu = (1/2) Mt_k Vt^2 for k = 3, 2, 1.

Vt comes from the system's pair table in two forms that share one per-pair
term, ``coords._pair_term``, the one place that writes the disk distance
rule: ``shape_value`` (Vt alone, for membership, classes, scans and contour
grids, with ``shape_value_bounds`` bounding it over pixel blocks) and
``shape_kernel`` (Vt with its gradient and Hessian, which only
the critical-shape search's Newton steps read).

``shape_value`` and ``class_codes`` serve floats and arrays by one path, so
the scalar rules (``membership``, ``orientation_class`` and the rest) run on
Python floats, not 0-d arrays, with the bits of an array call's element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .coords import Shape, _pair_term, pair_geometry
from .errors import check_finite, check_positive, check_unit
from .systems import BodySystem


class OrientationClass(IntEnum):
    """Accessible set on the orientation sphere, ordered by inclusion."""

    EMPTY = 0
    CAPS = 1
    RING = 2
    FULL = 3


@dataclass(frozen=True)
class ShapeEvaluation:
    """Dilation-reduced data of one shape.

    ``m_tilde`` is (Mt1, Mt2, Mt3) ascending with Mt1 + Mt2 = Mt3 = 1.
    """

    v_tilde: float
    m_tilde: tuple[float, float, float]


@dataclass(frozen=True)
class HillMembership:
    member: bool
    region_case: str  # I, IIa, IIb, IIIa, IIIb, IV or axis-degenerate
    discriminant: float
    lambda_minus: float | None = None
    lambda_plus: float | None = None


def shape_value(system: BodySystem, w1, w2):
    """Vt at disk points (w1, w2): the sum of -a/r over the pair table, in
    the order ``shape_value_bounds`` repeats.  Floats give a float and
    arrays an array of their broadcast shape, by the same operations in the
    same order, so a point's Vt has the same bits either way."""
    V = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for pair in pair_geometry(system):
            V -= _pair_term(pair, w1, w2)[1]
    return V


def shape_value_bounds(system: BodySystem, W1, W2):
    """Bounds (low, high) on ``shape_value`` over each set of points whose
    corners run along the leading axis of W1 and W2: a block of pixels with
    its four corner pixels there.

    Every float operation of ``_pair_term`` is monotone in each input, so a
    pair term over a block lies between its values at the corners.  The
    ``V -=`` steps of ``shape_value`` fall as their term rises, so the same
    sum in the same order over the largest terms is a lower bound on every
    point's float Vt and over the smallest an upper bound; no margin is
    needed.  ``scan.scan_disk`` fills whole blocks on these bounds, so both
    functions must keep that order and that monotonicity.  A sum of
    extremes taken at different corners can overflow where no point's sum
    does; that is silenced like the collision warnings.
    """
    W1, W2 = np.asarray(W1, dtype=float), np.asarray(W2, dtype=float)
    low = np.zeros(np.broadcast_shapes(W1.shape, W2.shape)[1:])
    high = np.zeros_like(low)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for pair in pair_geometry(system):
            term = _pair_term(pair, W1, W2)[1]
            low -= term.max(axis=0)
            high -= term.min(axis=0)
    return low, high


def shape_kernel(system: BodySystem, w1, w2):
    """Vt at disk points (w1, w2), its gradient (V_1, V_2) and its Hessian
    (V_11, V_12, V_22), the last two stacked on a leading axis.

    The derivatives serve the Newton steps of the critical-shape search
    (``critical._sqrtmk_v_derivatives``); every other caller reads Vt from
    ``shape_value``, whose bits the value here equals.
    """
    w1, w2 = np.asarray(w1, dtype=float), np.asarray(w2, dtype=float)
    V = np.zeros(np.broadcast_shapes(w1.shape, w2.shape))
    grad, hess = np.zeros((2,) + V.shape), np.zeros((3,) + V.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for pair in pair_geometry(system):
            r2, term = _pair_term(pair, w1, w2)
            V -= term
            c, s = pair.cos, pair.sin
            # In place from here: grids of 1e5 points make temporaries costly.
            r2 *= 4.0 * pair.mu
            term /= r2  # a/(4 mu r^3)
            for i, u in enumerate((c, s)):
                grad[i] -= u * term
            term /= r2  # a/(16 mu^2 r^5), times 3 u u^T below
            for i, uu in enumerate((c * c, c * s, s * s)):
                hess[i] -= (3.0 * uu) * term
    return V, grad, hess


def v_tilde(system: BodySystem, w1: float, w2: float) -> float:
    """Shape-space potential at the disk point (w1, w2)."""
    return float(shape_value(system, w1, w2))


def moments(s):
    """Principal moments (Mt1, Mt2, Mt3) = ((1-s)/2, (1+s)/2, 1) of the I = 1
    section at disk radius s, a float or an array.  Mt1 falls and Mt2 rises
    with s in floats too; ``scan.scan_disk``'s block bounds rely on it."""
    return 0.5 * (1.0 - s), 0.5 * (1.0 + s), 1.0


def shape_eval(system: BodySystem, shape: Shape) -> ShapeEvaluation:
    """Restrict V and the principal moments to the shape space."""
    m1, m2, m3 = moments(shape.radius)
    return ShapeEvaluation(
        v_tilde=v_tilde(system, shape.w1, shape.w2),
        m_tilde=(m1, m2, m3),
    )


def f_analysis(E: float, E_R: float, v_tilde: float) -> HillMembership:
    """Classify F(lam) by the six-region decomposition of the (E, Vt) plane.

    Membership means F(lam) >= 0 for some lam > 0.  The coordinate axes
    E = 0 and Vt = 0 are reported as 'axis-degenerate'.  A non-finite
    input or an E_R <= 0 raises DomainError.
    """
    E = check_finite("E", E)
    E_R = check_positive("E_R", E_R)
    v_tilde = check_finite("v_tilde", v_tilde)
    disc = 4.0 * E * E_R + v_tilde * v_tilde
    lam_minus = lam_plus = None
    if E != 0.0 and disc >= 0.0:
        root = math.sqrt(disc)
        pair = sorted(((v_tilde - root) / (2.0 * E), (v_tilde + root) / (2.0 * E)))
        lam_minus, lam_plus = pair
    if E > 0.0:
        case = "I" if v_tilde > 0.0 else ("IV" if v_tilde < 0.0 else "axis-degenerate")
        return HillMembership(True, case, disc, lam_minus, lam_plus)
    if E == 0.0:
        # F is affine: F(lam) = -E_R - lam Vt, eventually positive iff Vt < 0.
        if v_tilde != 0.0:
            lam_minus = lam_plus = -E_R / v_tilde
        return HillMembership(v_tilde < 0.0, "axis-degenerate", disc, lam_minus, lam_plus)
    if v_tilde > 0.0:
        return HillMembership(False, "IIa" if disc >= 0.0 else "IIb", disc, lam_minus, lam_plus)
    if v_tilde == 0.0:
        # F(lam) = lam^2 E - E_R < 0 for all lam; forced non-member.
        return HillMembership(False, "axis-degenerate", disc, None, None)
    if disc >= 0.0:
        return HillMembership(True, "IIIa", disc, lam_minus, lam_plus)
    return HillMembership(False, "IIIb", disc, None, None)


def _normalized_rotational_energy(ev: ShapeEvaluation, j_hat: np.ndarray) -> float:
    x, y, z = check_unit("j_hat", j_hat)
    m1, m2, m3 = ev.m_tilde
    return 0.5 * (x**2 / m1 + y**2 / m2 + z**2 / m3)


def membership(
    system: BodySystem, E: float, r: float, shape: Shape, j_hat: np.ndarray
) -> HillMembership:
    """Hill-region test for one shape-orientation point.

    ``j_hat`` holds components along the shape's principal axes, ascending
    (axis 3 is the normal of the configuration plane).  A non-finite E or r,
    an r <= 0 or a ``j_hat`` that is not a finite unit vector raises
    DomainError.
    """
    E = check_finite("E", E)
    r = check_positive("r", r)
    ev = shape_eval(system, shape)
    E_R = r * r * _normalized_rotational_energy(ev, j_hat)
    return f_analysis(E, E_R, ev.v_tilde)


def bif_function(system: BodySystem, shape: Shape, j_hat: np.ndarray) -> float:
    """Value whose sublevel set at -sqrt(nu) is the Hill region for E < 0.

    Returns Vt / (2 sqrt((1/2) Jhat . Mt^-1 . Jhat)).  Along principal axis k
    this equals Vt sqrt(Mt_k / 2), so its critical values are -sqrt(nu) at the
    critical points of sqrt(Mt_k) Vt.  A ``j_hat`` that is not a finite unit
    vector raises DomainError.
    """
    ev = shape_eval(system, shape)
    return ev.v_tilde / (2.0 * math.sqrt(_normalized_rotational_energy(ev, j_hat)))


def nu_thresholds(system: BodySystem, shape: Shape) -> tuple[float, float, float]:
    """(nu_caps, nu_ring, nu_full) = (1/2) Mt_k Vt^2 for k = 3, 2, 1.

    For 0 < nu <= nu_caps the accessible set is nonempty; at nu <= nu_ring
    axis 2 opens up; at nu <= nu_full every orientation is admissible.
    Meaningful only where Vt < 0.
    """
    ev = shape_eval(system, shape)
    return tuple(nu_threshold(mk, ev.v_tilde) for mk in reversed(ev.m_tilde))


def nu_threshold(mk, v):
    """The threshold (1/2) Mt_k Vt^2 of floats or arrays mk and v."""
    return 0.5 * mk * (v * v)


def class_codes(nu: float, v_tilde, m_tilde):
    """The orientation-class rule: OrientationClass codes (int8), one for a
    float Vt and an array of the broadcast shape of Vt and the moments for
    arrays, by the same comparisons.

    For nu < 0 (E > 0) all orientations are accessible; at nu >= 0 none are
    where Vt >= 0 (or NaN), all are where Vt < 0 at nu = 0, and at nu > 0
    the level Vt^2/(4 nu) is compared with the thresholds 1/(2 Mt_k).  The
    code counts the thresholds the level reaches; the comparison is
    non-strict, so a level at a threshold includes the orientations it opens.

    The code never rises with Vt and never falls with an Mt_k, also in
    floats: ``scan.scan_disk`` fills a pixel block where the codes at the
    two extreme corners of its bounds agree, so keep it monotone.
    """
    check_finite("nu", nu)
    if nu < 0.0:
        level = np.full(np.shape(v_tilde), np.inf)
    elif nu == 0.0:
        level = np.where(v_tilde < 0.0, np.inf, -np.inf)
    else:
        with np.errstate(over="ignore"):
            level = np.where(v_tilde < 0.0, v_tilde * v_tilde / (4.0 * nu), -np.inf)
    m1, m2, m3 = m_tilde
    code = np.greater_equal(level, 0.5 / m1).astype(np.int8)  # int8 plus bool stays int8
    return code + np.greater_equal(level, 0.5 / m2) + np.greater_equal(level, 0.5 / m3)


def orientation_class(system: BodySystem, nu: float, shape: Shape) -> OrientationClass:
    """Four-way class of the accessible set on the orientation sphere.

    For nu <= 0 (E >= 0) everything with Vt < 0 is fully accessible; for
    nu > 0 the squared normalized level Vt^2/(4 nu) is compared against the
    thresholds 1/(2 Mt_k).
    """
    ev = shape_eval(system, shape)
    return OrientationClass(int(class_codes(nu, ev.v_tilde, ev.m_tilde)))
