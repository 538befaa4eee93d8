"""Catalog of critical values of the bifurcation parameter nu = -E r^2.

The Hill-region classification of a shape changes only at finitely many nu.
Each comes from a configuration q with nu = (1/2) M_k(q) V(q)^2 where M_k is
the principal moment about the rotation axis:

* zero        nu = 0, the energy sign change;
* infinity    one attractive pair co-rotating, the third body at rest
              infinitely far away: nu = (1/2) mu_ij a_ij^2 per pair;
* diabolic    the pseudo-critical point where the two in-plane principal
              moments coincide (perpendicular equal-length Jacobi vectors);
* lagrange    the equilateral central configuration (gravitational couplings);
* langmuir    the isosceles relative equilibrium of two like charges and an
              opposite charge, rotating about an in-plane principal axis;
* collinear   Euler-type configurations on the boundary of the shape space,
              the real roots of Euler's collinear quintic (signed couplings)
              per ordering, found as polynomial roots with no search grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as P

from .coords import (
    Shape,
    jacobi_from_positions,
    moment_of_inertia,
    normalize_shape,
    pair_geometry,
    w_from_jacobi,
)
from .errors import DomainError, UnsupportedFamilyError
from .hill import moments, shape_eval, shape_kernel
from .reduction import principal_axes, relequil_residual
from .systems import PAIRS, BodySystem, infer_gravity_constant

FAMILIES = ("zero", "infinity", "diabolic", "lagrange", "langmuir", "collinear")

MERGE_TOL = 1e-9  # absolute, per catalog contract


@dataclass(frozen=True)
class CriticalValue:
    """One catalog entry.

    ``w`` is the associated point of the closed shape disk when there is one
    (interior for lagrange/langmuir/diabolic, on the unit circle for
    collinear configurations and collision directions of the infinity
    family).  ``axis`` is the principal-axis index of the rotation where
    meaningful.  Entries merged by the catalog carry ``multiplicity`` > 1.
    ``residual`` certifies an entry found as a root: |dnu/dt| there over
    max(1, nu) for collinear entries, None for the closed forms.
    """

    nu: float
    family: str
    axis: int | None = None
    w: tuple[float, float] | None = None
    detail: str = ""
    multiplicity: int = 1
    physical: bool = True
    residual: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.physical and self.nu < 0:
            raise ValueError("critical nu must be nonnegative")

    def shape(self) -> Shape:
        if self.w is None:
            raise UnsupportedFamilyError(f"{self.family} entry stores no shape")
        return Shape(self.w[0], self.w[1])


@dataclass(frozen=True)
class LangmuirGeometry:
    """Isosceles configuration of the Langmuir relative equilibrium.

    At unit leg length a: the two like bodies sit at height +-b, distance d
    from the rotation axis; the apex body sits at distance c on the other
    side, with m_apex c = 2 m_like d and (c + d)/a = cos(theta).
    mu = 2 m_like m_apex / (2 m_like + m_apex).
    """

    theta: float
    a: float
    b: float
    c: float
    d: float
    mu: float
    like_pair: tuple[int, int] = (1, 2)
    apex: int = 3


def nu_infinity(system: BodySystem) -> list[CriticalValue]:
    """Critical values at infinity, one per attractive pair."""
    geometry = dict(zip(((1, 2), (1, 3), (2, 3)), pair_geometry(system)))
    out = []
    for i, jj in PAIRS:
        mu, alpha, psi = geometry[(i, jj)]
        if alpha <= 0.0:
            continue
        out.append(
            CriticalValue(
                nu=0.5 * mu * alpha * alpha,
                family="infinity",
                w=(math.cos(psi), math.sin(psi)),
                detail=f"co-rotating pair ({i},{jj})",
            )
        )
    return sorted(out, key=lambda cv: cv.nu)


def nu_diabolic(system: BodySystem) -> CriticalValue:
    """Pseudo-critical value of the diabolic shape at the disk centre.

    nu = (1/2) (sum over pairs of a_ij sqrt(mu_ij))^2 with mu_ij the pairwise
    reduced masses; equals (1/2) Mt_k Vt^2 there for either in-plane axis.
    Vt(0, 0) is -sqrt(2) times that sum, so the entry is non-physical unless
    the sum is positive: otherwise the centre is never admissible at nu > 0.
    """
    total = 0.0
    for k, (i, jj) in enumerate(PAIRS, start=1):
        total += system.alphas[k - 1] * math.sqrt(system.pair_reduced_mass(i, jj))
    return CriticalValue(
        nu=0.5 * total * total,
        family="diabolic",
        axis=1,
        w=(0.0, 0.0),
        detail="in-plane moments degenerate (Mt1 = Mt2 = 1/2)",
        physical=total > 0.0,
    )


def lagrange_shape(system: BodySystem) -> Shape:
    """Shape of the equilateral triangle (any scale)."""
    x = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.5, math.sqrt(3.0) / 2.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    return normalize_shape(jacobi_from_positions(system, x))[0]


def nu_lagrange(system: BodySystem) -> CriticalValue:
    """Critical value of the equilateral central configuration.

    Only gravitational couplings a_k = G m_i m_j are supported; general
    positive couplings admit triangle equilibria but without this closed
    form.
    """
    try:
        G = infer_gravity_constant(system)
    except Exception as exc:
        raise UnsupportedFamilyError(
            "Lagrange closed form needs gravitational couplings a_k = G m_i m_j"
        ) from exc
    m1, m2, m3 = system.masses
    pairsum = m1 * m2 + m2 * m3 + m1 * m3
    nu = 0.5 * G * G * pairsum**3 / (m1 + m2 + m3)
    sh = lagrange_shape(system)
    return CriticalValue(
        nu=nu, family="lagrange", axis=3, w=(sh.w1, sh.w2), detail=f"G={G!r}"
    )


def _langmuir_pair(system: BodySystem) -> tuple[int, int, int]:
    """(i, j, apex) of the like pair: equal masses, mutual repulsion, equal
    attraction to the third body."""
    for i, jj in ((1, 2), (1, 3), (2, 3)):
        k = 6 - i - jj
        if (
            math.isclose(system.masses[i - 1], system.masses[jj - 1], rel_tol=1e-12)
            and system.pair_coupling(i, jj) < 0.0
            and system.pair_coupling(i, k) > 0.0
            and math.isclose(
                system.pair_coupling(i, k), system.pair_coupling(jj, k), rel_tol=1e-12
            )
        ):
            return i, jj, k
    raise UnsupportedFamilyError(
        "Langmuir family needs two equal masses with equal attraction to the "
        "third body and mutual repulsion"
    )


def langmuir_geometry(system: BodySystem) -> LangmuirGeometry:
    """Solve the isosceles force balance of the like pair against the apex.

    The apex half-angle obeys sin(theta)^3 = -g_like/(4 g_cross), independent
    of the masses (g_like couples the like pair, g_cross each leg).
    """
    i, jj, k = _langmuir_pair(system)
    g_like = system.pair_coupling(i, jj)
    g_cross = system.pair_coupling(i, k)
    m_like = system.masses[i - 1]
    m_apex = system.masses[k - 1]
    ratio = -g_like / (4.0 * g_cross)
    if not 0.0 < ratio < 1.0:
        raise UnsupportedFamilyError(f"no Langmuir angle: sin(theta)^3 = {ratio} not in (0, 1)")
    sin_t = ratio ** (1.0 / 3.0)
    theta = math.asin(sin_t)
    cos_t = math.cos(theta)
    return LangmuirGeometry(
        theta=theta,
        a=1.0,
        b=sin_t,
        c=2.0 * m_like * cos_t / (2.0 * m_like + m_apex),
        d=m_apex * cos_t / (2.0 * m_like + m_apex),
        mu=2.0 * m_like * m_apex / (2.0 * m_like + m_apex),
        like_pair=(i, jj),
        apex=k,
    )


def langmuir_shape(system: BodySystem, geom: LangmuirGeometry | None = None) -> Shape:
    geom = geom or langmuir_geometry(system)
    cos_t = math.cos(geom.theta)
    x = np.zeros((3, 3))
    x[geom.like_pair[0] - 1] = (cos_t, geom.b, 0.0)
    x[geom.like_pair[1] - 1] = (cos_t, -geom.b, 0.0)
    x[geom.apex - 1] = (0.0, 0.0, 0.0)
    return normalize_shape(jacobi_from_positions(system, x))[0]


def nu_langmuir(system: BodySystem) -> CriticalValue:
    """Critical value of the Langmuir relative equilibrium.

    nu = (1/2) mu cos(theta)^4/sin(theta) (4 g_cross^2 sin(theta)
    + g_cross g_like); the rotation axis is whichever in-plane principal axis
    the moment comparison selects (the middle axis for helium-like mass
    ratios, the smallest for equal masses).
    """
    geom = langmuir_geometry(system)
    i, jj = geom.like_pair
    g_like = system.pair_coupling(i, jj)
    g_cross = system.pair_coupling(i, geom.apex)
    m_like = system.masses[i - 1]
    m_apex = system.masses[geom.apex - 1]
    sin_t, cos_t = math.sin(geom.theta), math.cos(geom.theta)
    nu = 0.5 * geom.mu * cos_t**4 / sin_t * (4.0 * g_cross * g_cross * sin_t + g_cross * g_like)
    m_rot = m_apex * geom.c**2 + 2.0 * m_like * geom.d**2
    m_sym = 2.0 * m_like * geom.b**2
    axis = 1 if m_rot < m_sym else 2
    sh = langmuir_shape(system, geom)
    return CriticalValue(
        nu=nu,
        family="langmuir",
        axis=axis,
        w=(sh.w1, sh.w2),
        detail=f"theta_deg={math.degrees(geom.theta):.10g} pair=({i};{jj})",
    )


# ---------------------------------------------------------------------------
# Collinear configurations


def _collinear_nu_of_t(system: BodySystem, order: tuple[int, int, int]):
    """nu(t) for bodies (i, j, k) at positions (0, t, 1) and its derivative.

    nu is homogeneous of degree zero in the overall scale, so the single
    ratio t in (0, 1) parametrizes the ordering.
    """
    i, j, k = order
    m = system.masses
    mi, mj, mk = m[i - 1], m[j - 1], m[k - 1]
    gij = system.pair_coupling(i, j)
    gjk = system.pair_coupling(j, k)
    gik = system.pair_coupling(i, k)
    mtot = mi + mj + mk

    def parts(t):
        iw = (mi * mj * t * t + mj * mk * (1.0 - t) ** 2 + mi * mk) / mtot
        diw = (2.0 * mi * mj * t - 2.0 * mj * mk * (1.0 - t)) / mtot
        V = -(gij / t + gjk / (1.0 - t) + gik)
        dV = gij / (t * t) - gjk / (1.0 - t) ** 2
        return iw, diw, V, dV

    def nu(t):
        iw, _, V, _ = parts(t)
        return 0.5 * iw * V * V

    def dnu(t):
        iw, diw, V, dV = parts(t)
        return 0.5 * diw * V * V + iw * V * dV

    return nu, dnu


def _collinear_polynomials(
    system: BodySystem, order: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Power-series coefficients of the quintic P(x) and the quadratic A(x).

    Bodies (i, j, k) sit at (0, x, 1 + x), the positions (0, t, 1) scaled by
    1/(1-t), so x = t/(1-t) = r_ij/r_jk is Euler's distance ratio.  There
    dnu/dx = V (1/2 I' V + I V').  With A = V x(1+x) and B = V' x^2 (1+x)^2,
    both quadratics, the physical factor times x^2 (1+x)^2 is
    P = 1/2 I' A x(1+x) + I B: Euler's collinear quintic with signed
    couplings.  The roots of A are the V = 0 points.

    A power series in t would blur roots next to t = 1 into rounding; in x
    both collisions sit where a coefficient is exact: t -> 0 is x -> 0 with
    constant term g_ij I(0), t -> 1 is x -> inf with leading term
    -g_jk (mi mj + mi mk)/M.
    """
    i, j, k = order
    mi, mj, mk = (system.masses[b - 1] for b in order)
    gij = system.pair_coupling(i, j)
    gjk = system.pair_coupling(j, k)
    gik = system.pair_coupling(i, k)
    iw = np.array([mj * mk + mi * mk, 2.0 * mi * mk, mi * mj + mi * mk]) / (mi + mj + mk)
    a = -np.array([gij, gij + gjk + gik, gjk])
    b = np.array([gij, 2.0 * gij, gij + gik])
    quintic = P.polyadd(
        0.5 * P.polymul(P.polymul(P.polyder(iw), a), [0.0, 1.0, 1.0]), P.polymul(iw, b)
    )
    return quintic, a


def _roots_in_unit_interval(c: np.ndarray) -> list[float]:
    """t = x/(1+x) in (0, 1) for the real roots x > 0 of c, Newton-polished.

    polyroots drops zero leading coefficients itself (g_jk = 0), so the
    degree drops with no extra care; zero low-order coefficients (g_ij = 0)
    come back as exact roots x = 0, the collision, which x > 0 leaves out.
    A double root may come back as a complex pair split by about sqrt(eps);
    the 1e-7 relative imaginary tolerance keeps it.
    """
    if not np.all(np.isfinite(c)):
        raise DomainError("collinear polynomial coefficients overflow; rescale the system")
    r = P.polyroots(c)
    x = r.real[(np.abs(r.imag) <= 1e-7 * np.abs(r)) & (r.real > 0.0)]
    dc = P.polyder(c)
    value = P.polyval(x, c)
    for _ in range(3):
        # Keep a step only where it lowers |P|: at a double root P' is as
        # small as the rounding in P, and a raw step lands anywhere.
        slope = P.polyval(x, dc)
        cand = x - np.divide(value, slope, out=np.zeros_like(x), where=slope != 0.0)
        cand_value = P.polyval(cand, c)
        better = np.abs(cand_value) < np.abs(value)
        x, value = np.where(better, cand, x), np.where(better, cand_value, value)
    t = x / (1.0 + x)
    return [float(v) for v in t if 0.0 < v < 1.0]


def collinear_configs(system: BodySystem) -> list[CriticalValue]:
    """Critical points of nu along the three collinear orderings.

    Bodies (i, j, k) sit at (0, t, 1).  The critical points are the real
    roots of Euler's collinear quintic and of the quadratic A = V t(1-t) in
    the distance ratio x = t/(1-t), found as polynomial roots and polished
    by Newton steps, with no search grid.  Each entry's
    ``residual`` is |dnu/dt| at its root over max(1, nu).  Points where the
    potential is not strictly negative (the roots of A among them) carry no
    relative equilibrium (the required spin rate would be imaginary); they
    are returned flagged non-physical and skipped by the catalog.
    """
    out = []
    for middle in (1, 2, 3):
        i, k = [b for b in (1, 2, 3) if b != middle]
        order = (i, middle, k)
        nu, dnu = _collinear_nu_of_t(system, order)
        for c in _collinear_polynomials(system, order):
            for t in _roots_in_unit_interval(c):
                value = nu(t)
                out.append(
                    _collinear_entry(system, order, t, value, abs(dnu(t)) / max(1.0, value))
                )
    return sorted(out, key=lambda cv: cv.nu)


def _collinear_entry(
    system: BodySystem, order: tuple[int, int, int], t: float, nu: float, residual: float
) -> CriticalValue:
    i, j, k = order
    x = np.zeros((3, 3))
    x[i - 1, 0] = 0.0
    x[j - 1, 0] = t
    x[k - 1, 0] = 1.0
    jac = jacobi_from_positions(system, x)
    # Boundary point of the shape disk: normalize w by omega.
    w = w_from_jacobi(jac)
    omega = moment_of_inertia(jac)
    w1, w2 = w.w1 / omega, w.w2 / omega
    gij = system.pair_coupling(i, j)
    gjk = system.pair_coupling(j, k)
    gik = system.pair_coupling(i, k)
    V = -(gij / t + gjk / (1.0 - t) + gik)
    vscale = abs(gij) / t + abs(gjk) / (1.0 - t) + abs(gik)
    physical = V < -1e-9 * vscale
    detail = f"order={order} t={t:.12g} psi_deg={math.degrees(math.atan2(w2, w1)):.6f}"
    if not physical:
        detail += " nonphysical(V>=0)"
    return CriticalValue(
        nu=nu,
        family="collinear",
        axis=None,  # rotation axis degenerate: Mt2 = Mt3 on the boundary
        w=(w1, w2),
        detail=detail,
        physical=physical,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# Generic search for non-collinear critical shapes


def _sqrtmk_v_derivatives(system: BodySystem, k: int, W: np.ndarray):
    """Gradient (g1, g2) and Hessian (h11, h12, h22) of f = sqrt(Mt_k) Vt at
    disk points W (n, 2), stacked on the leading axis.

    With u = w/s and q1, q2 the s-derivatives of sqrt(Mt_k(s)), the radius adds
    q1 V u to grad V and q1 (u dV^T + dV u^T) + V (q2 u u^T + q1 (1 - u u^T)/s)
    to Hess V.  Mt_3 is constant, so for k = 3 f is Vt.
    """
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


def find_critical_shapes(
    system: BodySystem, k: int, seeds: int = 64
) -> list[tuple[Shape, float]]:
    """Interior critical points of sqrt(Mt_k) Vt, each one a certified
    relative equilibrium rotating about principal axis k.

    Multi-start damped Newton on the analytic gradient and Hessian from a
    seeds x seeds grid over the disk, excluding a 1e-3 margin at the
    collinear boundary and (for k = 1, 2) a 1e-3 disk around the diabolic
    point where the moments are not differentiable.  Candidates must pass
    the relative-equilibrium residual test at 1e-6.
    """
    if k not in (1, 2, 3):
        raise ValueError("principal axis index must be 1, 2 or 3")
    margin, core = 1e-3, 1e-3
    ax = np.linspace(-1.0, 1.0, seeds + 2)[1:-1]
    W = np.array([(x, y) for x in ax for y in ax])
    srad = np.hypot(W[:, 0], W[:, 1])
    keep = srad < 1.0 - margin
    if k != 3:
        keep &= srad > core
    W = W[keep]

    def newton_data(W):
        g, h = _sqrtmk_v_derivatives(system, k, W)
        return np.concatenate([g, h]).T, g[0] * g[0] + g[1] * g[1]

    # Columns of D: g1, g2, h11, h12, h22.
    D, gn = newton_data(W)
    for _ in range(80):
        g1, g2, h11, h12, h22 = D.T
        det = h11 * h22 - h12 * h12
        bad = np.abs(det) < 1e-300
        det = np.where(bad, 1.0, det)
        dx = (g1 * h22 - g2 * h12) / det
        dy = (h11 * g2 - h12 * g1) / det
        step = np.stack([np.where(bad, 0.0, dx), np.where(bad, 0.0, dy)], axis=1)
        # Clip long steps; try damped candidates and keep the best.
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
    found: list[tuple[Shape, float]] = []
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


def _is_relative_equilibrium(
    system: BodySystem, shape: Shape, k: int, vt: float, mk: float, tol: float = 1e-6
) -> bool:
    j = shape.to_jacobi()
    _, axes = principal_axes(j)
    r = math.sqrt(-mk * vt)
    J = r * axes[:, k - 1]
    res1, res3 = relequil_residual(system, j, J)
    scale = max(1.0, abs(vt))
    return np.linalg.norm(res1) < tol * scale and np.linalg.norm(res3) < tol * scale


# ---------------------------------------------------------------------------
# Assembly


def critical_catalog(system: BodySystem) -> list[CriticalValue]:
    """Sorted catalog of all critical values, merged within 1e-9 absolute.

    The closed-form families are used where they apply; families that do not
    exist for the system (e.g. Lagrange with mixed-sign couplings) are
    silently absent.  Non-physical diabolic and collinear entries are excluded.
    """
    entries: list[CriticalValue] = [CriticalValue(0.0, "zero", detail="energy sign change")]
    entries.extend(nu_infinity(system))
    diabolic = nu_diabolic(system)
    if diabolic.physical:
        entries.append(diabolic)
    for fam in (nu_lagrange, nu_langmuir):
        try:
            entries.append(fam(system))
        except UnsupportedFamilyError:
            pass
    entries.extend(cv for cv in collinear_configs(system) if cv.physical)

    order = {fam: i for i, fam in enumerate(FAMILIES)}
    entries.sort(key=lambda cv: (cv.nu, order[cv.family]))
    merged: list[CriticalValue] = []
    for cv in entries:
        if merged and abs(cv.nu - merged[-1].nu) <= MERGE_TOL:
            prev = merged[-1]
            extra = f" +merged {cv.family}" if cv.family != prev.family else ""
            merged[-1] = replace(
                prev,
                multiplicity=prev.multiplicity + cv.multiplicity,
                detail=(prev.detail + extra).strip(),
            )
        else:
            merged.append(cv)
    if not all(math.isfinite(cv.nu) for cv in merged):
        raise DomainError("critical values overflow; rescale the system")
    return merged


def catalog_csv(entries: list[CriticalValue]) -> str:
    """CSV rows `nu,family,axis,multiplicity,w1,w2,detail`, 12 significant digits."""
    lines = ["nu,family,axis,multiplicity,w1,w2,detail"]
    for cv in entries:
        w1 = format(cv.w[0], ".12g") if cv.w is not None else ""
        w2 = format(cv.w[1], ".12g") if cv.w is not None else ""
        axis = str(cv.axis) if cv.axis is not None else ""
        detail = cv.detail.replace(",", ";")
        lines.append(
            f"{format(cv.nu, '.12g')},{cv.family},{axis},{cv.multiplicity},{w1},{w2},{detail}"
        )
    return "\n".join(lines) + "\n"
