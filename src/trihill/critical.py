"""Catalog of critical values of the bifurcation parameter nu = -E r^2.

The Hill-region classification of a shape changes only at finitely many nu.
Each comes from a configuration q with nu = (1/2) M_k(q) V(q)^2 where M_k is
the principal moment about the rotation axis:

* zero        nu = 0, the energy sign change;
* infinity    one attractive pair co-rotating, the third body at rest
              infinitely far away: nu = (1/2) mu_ij a_ij^2 per pair;
* diabolic    the pseudo-critical point at the disk centre, where the two
              in-plane principal moments coincide, if Vt < 0 there; a cone
              point of sqrt(Mt_k) Vt, where the Hill region changes only if
              |grad Vt(0)| < |Vt(0)|/2 (``_diabolic_event``);
* lagrange    the equilateral central configuration (gravitational couplings);
* langmuir    the isosceles relative equilibrium of two like charges and an
              opposite charge, rotating about an in-plane principal axis;
* collinear   Euler-type configurations on the boundary of the shape space,
              the real roots of Euler's collinear quintic (signed couplings)
              per ordering where V < 0, the three quintics in one stacked
              eigenvalue solve with no search grid; the same polynomials
              give each root's nu, residual and sign of V.

No entry has V >= 0, which carries no relative equilibrium, or an infinite nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coords import (
    Shape,
    _rim_point,
    dilate,
    jacobi_from_positions,
    normalize_shape,
    pair_geometry,
)
from .errors import (
    DomainError,
    TrihillError,
    UnsupportedFamilyError,
    check_finite,
    check_index,
    check_positive,
)
from .hill import moments, nu_threshold, shape_eval, shape_kernel, shape_value
from .reduction import RovibState, relequil_residual, rigid_start
from .systems import BodySystem, infer_gravity_constant, reduced_mass

FAMILIES = ("zero", "infinity", "diabolic", "lagrange", "langmuir", "collinear")

MERGE_TOL = 1e-9  # relative, per catalog contract

SEARCH_SEEDS = 64  # seeds per side of find_critical_shapes' square start grid


@dataclass(frozen=True)
class CriticalValue:
    """One catalog entry.

    ``w`` is the associated point of the closed shape disk when there is one
    (interior for lagrange/langmuir/diabolic, on the unit circle for
    collinear configurations and collision directions of the infinity
    family).  ``axis`` is the principal-axis index of the rotation where
    meaningful.  Entries merged by the catalog carry ``multiplicity`` > 1.
    ``residual`` certifies an entry found as a root: |dnu/dt| there over
    nu for collinear entries, None for the closed forms.  A ``nu``
    that is negative or not finite, or an ``axis`` that is neither None nor
    1, 2 or 3, raises DomainError.
    """

    nu: float
    family: str
    axis: int | None = None
    w: tuple[float, float] | None = None
    detail: str = ""
    multiplicity: int = 1
    residual: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        if self.nu == math.inf:
            raise DomainError("critical nu overflows; rescale the system")
        if check_finite("nu", self.nu) < 0.0:
            raise DomainError("critical nu must be nonnegative")
        if self.axis is not None:
            check_index("axis", self.axis, 1, 3)

    def shape(self) -> Shape:
        if self.w is None:
            raise UnsupportedFamilyError(f"{self.family} entry stores no shape")
        return Shape(self.w[0], self.w[1])


def build_relequil_state(system: BodySystem, critical: CriticalValue, r: float) -> RovibState:
    """Initial condition of the relative equilibrium behind a catalog entry,
    the ``_relequil_start`` at its shape and axis with |J| = r.  A
    non-finite r or an r <= 0 raises DomainError."""
    r = check_positive("r", r)
    shape = critical.shape()  # raises for entries with no shape or one on the rim
    if critical.axis is None:
        raise UnsupportedFamilyError(f"{critical.family} entry has no rotation axis")
    ev = shape_eval(system, shape)
    if ev.v_tilde >= 0.0:
        raise UnsupportedFamilyError("no real spin rate: shape potential is nonnegative")
    return _relequil_start(shape, critical.axis, ev.m_tilde[critical.axis - 1], ev.v_tilde, r)


def _relequil_start(shape: Shape, k: int, mk: float, vt: float, r: float) -> RovibState:
    """Rigid rotation about principal axis k at ``shape``, where Mt_k = mk
    and Vt = vt < 0, rescaled so that the virial relation r^2 = -M_k(q) V(q)
    holds at |J| = r; J points along principal axis k and the momenta are
    the gauge values p = J.A (zero for in-plane axes)."""
    lam = r * r / (-mk * vt)
    return rigid_start(dilate(shape.to_jacobi(), lam), r, np.eye(3)[k - 1])


def _relequil_certificate(system: BodySystem, state: RovibState) -> float:
    """How far ``state`` is from a relative equilibrium, a number free of
    units: the larger norm of the two rows of ``relequil_residual``, each
    over its own scale, or NaN where either is NaN.  At the moment of
    inertia I, res1 = Jdot scales as |J|^2/I, and the rows of
    res3 = -pdot as |J|^2/I^(3/2) for rho1 and rho2 and as |J|^2/I for the
    angle phi.  At the unit-size start of the search (I = 1) that is
    max(|res1|, |res3|)/|J|^2.  A |J|^2 that underflows to 0 raises
    DomainError."""
    res1, res3 = relequil_residual(system, state.jacobi(), state.J)
    I = state.q[0] ** 2 + state.q[1] ** 2  # rho1^2 + rho2^2
    worst = np.max([I * np.linalg.norm(res1), np.linalg.norm(res3 * (I**1.5, I**1.5, I))])
    return float(worst) / check_positive("|J|^2 of the start", float(state.J @ state.J))


@dataclass(frozen=True)
class LangmuirGeometry:
    """Isosceles configuration of the Langmuir relative equilibrium.

    At unit leg length: the two like bodies sit at height +-b, distance d
    from the rotation axis; the apex body sits at distance c on the other
    side, with m_apex c = 2 m_like d and c + d = cos(theta).
    mu = 2 m_like m_apex / (2 m_like + m_apex).
    """

    theta: float
    b: float
    c: float
    d: float
    mu: float
    like_pair: tuple[int, int]
    apex: int


def nu_infinity(system: BodySystem) -> list[CriticalValue]:
    """Critical values at infinity, one per attractive pair."""
    out = []
    # Pairs (2,3), (1,3), (1,2): equal values keep this order.
    for pair in reversed(pair_geometry(system)):
        if pair.alpha <= 0.0:
            continue
        out.append(
            CriticalValue(
                nu=0.5 * pair.mu * pair.alpha * pair.alpha,
                family="infinity",
                w=(pair.cos, pair.sin),
                detail=f"co-rotating pair ({pair.i},{pair.j})",
            )
        )
    return sorted(out, key=lambda cv: cv.nu)


def nu_diabolic(system: BodySystem) -> CriticalValue:
    """Pseudo-critical value of the diabolic shape at the disk centre.

    nu = (1/2) (sum over pairs of a_ij sqrt(mu_ij))^2 with mu_ij the pairwise
    reduced masses; equals (1/2) Mt_k Vt^2 there for either in-plane axis.
    Vt(0, 0) is -sqrt(2) times that sum; where it is not negative, the centre
    is never admissible at nu > 0 and UnsupportedFamilyError is raised.
    """
    total = 0.0
    for pair in reversed(pair_geometry(system)):  # this order sets the last bit
        total += pair.alpha * math.sqrt(pair.mu)
    if not total > 0.0:
        raise UnsupportedFamilyError("no diabolic critical value: Vt(0, 0) >= 0")
    return CriticalValue(
        nu=0.5 * total * total,
        family="diabolic",
        axis=1,
        w=(0.0, 0.0),
        detail="in-plane moments degenerate (Mt1 = Mt2 = 1/2)",
    )


def _diabolic_event(system: BodySystem) -> tuple[bool, float]:
    """Whether the Hill region changes at ``nu_diabolic``, and the ratio
    |grad Vt(0)| / |Vt(0)| that decides it.

    At the centre sqrt(Mt_k) Vt has a cone point: along a unit direction u,
    with g = grad Vt(0) and V0 = Vt(0) < 0, f_1 = -sqrt(Mt_1) Vt has slope
    (-g.u - |V0|/2)/sqrt(2) and f_2 = -sqrt(Mt_2) Vt slope (-g.u + |V0|/2)/sqrt(2).
    Where |g| < |V0|/2 the centre is a strict local maximum of f_1 and minimum
    of f_2, so the Full region loses a component there; otherwise each slope
    takes both signs and the centre is a regular point in the stratified sense
    (Goresky & MacPherson, Stratified Morse Theory, 1988).
    """
    V, grad, _ = shape_kernel(system, 0.0, 0.0)
    ratio = float(math.hypot(*grad) / abs(V))
    return ratio < 0.5, ratio


def lagrange_shape(system: BodySystem) -> Shape:
    """Shape of the equilateral triangle (any scale)."""
    x = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.5, math.sqrt(3.0) / 2.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    return _configuration_shape(system, x)


def _configuration_shape(system: BodySystem, x: np.ndarray) -> Shape:
    """Shape of body positions ``x`` (rows = bodies 1..3) of a closed form.

    A shape within rounding of the rim rounds onto it, and extreme masses
    can underflow a Jacobi vector's length (a collinear angle) or overflow
    the moment of inertia; each raises a ValueError on the way, which
    becomes a DomainError, with numpy's warnings silenced.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return normalize_shape(jacobi_from_positions(system, x))[0]
        except ValueError:
            raise DomainError("closed-form shape rounds off the open shape disk") from None


def nu_lagrange(system: BodySystem) -> CriticalValue:
    """Critical value of the equilateral central configuration.

    Only gravitational couplings a_k = G m_i m_j are supported; general
    positive couplings admit triangle equilibria but without this closed
    form.
    """
    try:
        G = infer_gravity_constant(system)
    except TrihillError as exc:
        raise UnsupportedFamilyError(
            "Lagrange closed form needs gravitational couplings a_k = G m_i m_j"
        ) from exc
    m1, m2, m3 = system.masses
    pairsum = m1 * m2 + m2 * m3 + m1 * m3
    try:
        nu = 0.5 * G * G * pairsum**3 / (m1 + m2 + m3)
    except OverflowError:
        raise DomainError("Lagrange critical value overflows; rescale the system") from None
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
        b=sin_t,
        c=2.0 * m_like * cos_t / (2.0 * m_like + m_apex),
        d=m_apex * cos_t / (2.0 * m_like + m_apex),
        mu=reduced_mass(2.0 * m_like, m_apex),
        like_pair=(i, jj),
        apex=k,
    )


def langmuir_shape(system: BodySystem, geom: LangmuirGeometry) -> Shape:
    cos_t = math.cos(geom.theta)
    x = np.zeros((3, 3))
    x[geom.like_pair[0] - 1] = (cos_t, geom.b, 0.0)
    x[geom.like_pair[1] - 1] = (cos_t, -geom.b, 0.0)
    x[geom.apex - 1] = (0.0, 0.0, 0.0)
    return _configuration_shape(system, x)


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


def _collinear_polynomials(
    system: BodySystem, order: tuple[int, int, int]
) -> tuple[list[float], list[float], list[float], list[float]]:
    """Power-series coefficients of Euler's quintic P(x), the quadratic A(x),
    the same quadratic built from |g| (the scale of A) and I(x).

    Bodies (i, j, k) sit at (0, x, 1 + x), so x = r_ij/r_jk is Euler's
    distance ratio, and I is the moment of inertia.  With A = V x(1+x) and
    B = V' x^2 (1+x)^2, both quadratics, P = 1/2 I' A x(1+x) + I B is
    Euler's collinear quintic with signed couplings: for nu = 1/2 I V^2,
    dnu/dx = V P/(x^2 (1+x)^2), and V has the sign of A.  P keeps six
    coefficients even where g_jk = 0.  Each coefficient is a plain sum of
    float products, summed left to right in the order ``np.convolve``
    indexes them, so its bits do not hang on a BLAS dot kernel that may
    fuse a sum; the + 0.0 writes a zero coefficient unsigned, as that dot
    does.

    A power series in t = x/(1+x) would blur roots next to t = 1 into
    rounding; in x both collisions sit where a coefficient is exact: t -> 0
    is x -> 0 with constant term g_ij I(0), t -> 1 is x -> inf with leading
    term -g_jk (mi mj + mi mk)/M.  Float products, sums and the division by
    the positive total mass M never raise, so a coefficient that overflows
    is inf or nan, and that raises DomainError.
    """
    i, j, k = order
    mi, mj, mk = (system.masses[b - 1] for b in order)
    gij, gjk, gik = (system.pair_coupling(*pair) for pair in ((i, j), (j, k), (i, k)))
    mass = mi + mj + mk
    iw = [(mj * mk + mi * mk) / mass, 2.0 * mi * mk / mass, (mi * mj + mi * mk) / mass]
    a = [-gij, -(gij + gjk + gik), -gjk]
    scale = [abs(gij), abs(gij) + abs(gjk) + abs(gik), abs(gjk)]
    (i0, i1, i2), (a0, a1, a2) = iw, a
    b0, b1, b2 = gij, 2.0 * gij, gij + gik
    # I' A with I' = (i1, 2 i2); times x(1+x) it shifts by one and two places
    d1 = 2.0 * i2
    h0, h1, h2, h3 = a0 * i1, a0 * d1 + a1 * i1, a1 * d1 + a2 * i1, a2 * d1
    quintic = [
        i0 * b0 + 0.0,
        0.5 * h0 + (i0 * b1 + i1 * b0) + 0.0,
        0.5 * (h0 + h1) + (i0 * b2 + i1 * b1 + i2 * b0) + 0.0,
        0.5 * (h1 + h2) + (i1 * b2 + i2 * b1) + 0.0,
        0.5 * (h2 + h3) + i2 * b2 + 0.0,
        0.5 * h3 + 0.0,
    ]
    if not all(map(math.isfinite, quintic + a + scale + iw)):
        raise DomainError("collinear polynomial coefficients overflow; rescale the system")
    return quintic, a, scale, iw


def _polyval(c: list[float], x: float) -> float:
    """c(x) on Python floats, summed in the order of numpy's polyval, so
    bit for bit its value; where it overflows it gives inf or nan, with no
    warning."""
    value = 0.0
    for coef in reversed(c):
        value = value * x + coef
    return value


def _polished(c: list[float], x: float) -> float:
    """x after three Newton steps on c, each kept only where it lowers |c|:
    at a double root c' is as small as the rounding in c."""
    dc = [n * c[n] for n in range(1, len(c))]
    value = _polyval(c, x)
    for _ in range(3):
        slope = _polyval(dc, x)
        if slope != 0.0:
            cand = x - value / slope
            cand_value = _polyval(c, cand)
            if abs(cand_value) < abs(value):
                x, value = cand, cand_value
    return x


def _roots_in_unit_interval(polys: list[list[float]]) -> list[list[float]]:
    """Per polynomial, its real roots x > 0 with t = x/(1+x) in (0, 1), each
    ``_polished`` on Python floats.

    Zero leading coefficients are trimmed here (g_jk = 0), so the degree
    drops.  The companion matrices of one degree (ones below the diagonal,
    -c[:-1]/c[-1] in the last column) go to one stacked ``eigvals`` call, a
    1 x 1 one is its own root, and each row is sorted: the bits of numpy's
    ``polyroots``.  Zero low-order coefficients (g_ij = 0) give exact roots
    x = 0, the collision, which x > 0 leaves out.  A double root may come
    back as a complex pair split by about sqrt(eps); the 1e-7 relative
    imaginary tolerance keeps it.  Finite coefficients can still overflow a
    companion matrix (a leading coefficient next to zero): that raises
    DomainError, with numpy's warnings silenced.  A polished root x <= 0
    (x = -1 among them) or whose t rounds to 1 is dropped.
    """
    trimmed = []
    for c in polys:
        while len(c) > 1 and c[-1] == 0.0:
            c = c[:-1]
        trimmed.append(c)
    out: list[list[float]] = [[] for _ in polys]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in set(map(len, trimmed)) - {1}:
            group = [p for p, c in enumerate(trimmed) if len(c) == n]
            m = np.zeros((len(group), n - 1, n - 1))
            m[:, 1:, :-1] = np.eye(n - 2)
            c = np.array([trimmed[p] for p in group])
            m[:, :, -1] -= c[:, :-1] / c[:, -1:]
            try:
                r = np.sort(np.linalg.eigvals(m)) if n > 2 else m[:, 0]
            except np.linalg.LinAlgError:
                raise DomainError(
                    "collinear polynomial roots overflow; rescale the system"
                ) from None
            keep = (np.abs(r.imag) <= 1e-7 * np.abs(r)) & (r.real > 0.0)
            for p, row, ok in zip(group, r.real, keep):
                xs = (_polished(trimmed[p], x) for x in row[ok].tolist())
                out[p] = [x for x in xs if x > 0.0 and x / (1.0 + x) < 1.0]
    return out


def collinear_configs(system: BodySystem) -> list[CriticalValue]:
    """Collinear relative equilibria along the three collinear orderings.

    Bodies (i, j, k) sit at (0, x, 1 + x), or at (0, t, 1) with
    t = x/(1+x).  The critical points are the real roots x > 0 of Euler's
    quintic P, all three orderings' in one solve, with no search grid.  At
    each root ``_polyval`` reads A = V x(1+x); a root is kept only where
    A < -1e-9 of its scale, for where the potential is not strictly
    negative there is no relative equilibrium (the required spin rate would
    be imaginary).  From A and P come nu = 1/2 I V^2 (``nu_threshold``)
    with V = A/(x(1+x)) and the ``residual`` |dnu/dt| = |V P|/x^2 over nu,
    so that neither the cut on A nor the residual depends on the units.  A
    nu that overflows raises DomainError; one that underflows to 0 has a
    NaN residual, and ``critical_catalog`` refuses it.
    """
    orders = ((2, 1, 3), (1, 2, 3), (1, 3, 2))  # bodies (i, j, k), j in the middle
    polys = [_collinear_polynomials(system, order) for order in orders]
    roots = _roots_in_unit_interval([quintic for quintic, *_ in polys])
    out = []
    for order, (quintic, quad, scale, iw), xs in zip(orders, polys, roots):
        for x in xs:
            a = _polyval(quad, x)
            if not a < -1e-9 * _polyval(scale, x):
                continue
            v = a / (x * (1.0 + x))
            nu = nu_threshold(_polyval(iw, x), v)
            # a nu that underflows to 0 has no residual
            residual = abs(v * _polyval(quintic, x) / x / x) / nu if nu else math.nan
            out.append(_collinear_entry(system, order, x / (1.0 + x), nu, residual))
    return sorted(out, key=lambda cv: cv.nu)


def _collinear_entry(system: BodySystem, order, t, nu, residual) -> CriticalValue:
    """Entry for bodies ``order`` at (0, t, 1), the point of the disk's rim
    that ``_rim_point`` gives; one it cannot place raises DomainError."""
    line = dict(zip(order, (0.0, t, 1.0)))
    w1, w2 = _rim_point(system, [line[body] for body in (1, 2, 3)])
    detail = f"order={order} t={t:.12g} psi_deg={math.degrees(math.atan2(w2, w1)):.6f}"
    return CriticalValue(
        nu=nu,
        family="collinear",
        axis=None,  # rotation axis degenerate: Mt2 = Mt3 on the boundary
        w=(w1, w2),
        detail=detail,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# Generic search for non-collinear critical shapes


def _sqrtmk_v_derivatives(system: BodySystem, k: int, w1, w2, s):
    """Gradient rows (g1, g2) and Hessian rows (h11, h12, h22) of
    f = sqrt(Mt_k) Vt at the disk points of the 1-D rows w1 and w2, whose
    radii s = hypot(w1, w2) the caller has taken.

    With u = w/s and q1, q2 the s-derivatives of sqrt(Mt_k(s)), the radius adds
    q1 V u to grad V and q1 (u dV^T + dV u^T) + V (q2 u u^T + q1 (1 - u u^T)/s)
    to Hess V, written out per component on ``shape_kernel``'s rows in place;
    h12 keeps its 0 * q1 V/s, which carries a NaN or a signed zero through.
    Mt_3 is constant, so for k = 3 f is Vt.
    """
    V, (g1, g2), (h11, h12, h22) = shape_kernel(system, w1, w2)
    mk = moments(s)[k - 1]
    b = moments(1.0)[k - 1] - moments(0.0)[k - 1]  # Mt_k = a + b s
    sq = np.sqrt(mk)
    q1, q2 = b / (2.0 * sq), -b * b / (4.0 * mk * sq)
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0.0)
    u1, u2 = w1 * inv_s, w2 * inv_s
    qv, curv = q1 * V, (q2 - q1 * inv_s) * V
    diag = qv * inv_s
    for h, ui, uj, di, dj, e in (
        (h11, u1, u1, g1, g1, 1.0),
        (h12, u1, u2, g1, g2, 0.0),
        (h22, u2, u2, g2, g2, 1.0),
    ):
        h *= sq
        h += q1 * (ui * dj + uj * di)
        h += curv * ui * uj
        h += e * diag
    for g, u in ((g1, u1), (g2, u2)):
        g *= sq
        g += qv * u
    return g1, g2, h11, h12, h22


def find_critical_shapes(system: BodySystem, k: int) -> list[tuple[Shape, float]]:
    """Interior critical points of sqrt(Mt_k) Vt, each one a certified
    relative equilibrium rotating about principal axis k.

    Multi-start damped Newton on the analytic gradient and Hessian from a
    SEARCH_SEEDS x SEARCH_SEEDS grid over the annulus core < s < lim of the
    disk: a 1e-3 margin at the collinear boundary and (for k = 1, 2 only) a
    1e-3 core around the diabolic point where the moments are not
    differentiable.  Each iteration evaluates the damped steps 1 and 0.25 of
    every live seed in one kernel call and moves a seed to its first
    candidate of least |grad|^2 if that is below its own; a candidate off
    the annulus, or not finite (a singular Hessian), is no improvement.
    The radii of each batch of points, the seed grid and each iteration's
    candidates, are taken once and serve both the annulus test and the
    kernel.
    A seed that no candidate improves would try the same candidates on every
    later iteration: it retires with its point and |grad|^2, and the live
    seeds stay compacted.  So does a stalled seed: on 4 iterations in a row
    its best candidate kept more than 3/4 of its |grad|^2.  Near a root the
    Newton step cuts |grad|^2 by far more than a quarter per move, so a
    converging seed moves until rounding stops or stalls it; other stalled
    seeds sit at a nonzero minimum of |grad|^2 or far from every root.  No
    step is clipped: a candidate counts only if it lowers |grad|^2.  The
    loop ends when no seed is live, or after 80 iterations.
    The seeds, all on the annulus, then go back into seed order; those with
    Vt < 0 and |grad|^2 below 1e-22 Vt^2 are hits, a ratio of like
    quantities, so that the hits do not depend on the units.  In that
    order, the first hit left must have a ``_relequil_certificate`` below
    1e-6 at the ``_relequil_start`` of |J| = sqrt(-Mt_k Vt), the unit size;
    if it has, it is found and drops every hit left within 1e-7 of it in w1
    and w2, and if not, it drops alone.  Found shapes hold Python floats.
    A k that is not an integer in {1, 2, 3} raises DomainError.
    """
    k = check_index("principal axis index", k, 1, 3)
    lim, core = 1.0 - 1e-3, 1e-3

    def inside(s):
        """Whether points of radii s lie strictly inside the annulus."""
        return (s < lim) & ((s > core) | (k == 3))

    ax = np.linspace(-1.0, 1.0, SEARCH_SEEDS + 2)[1:-1]
    w1, w2 = (g.ravel() for g in np.meshgrid(ax, ax, indexing="ij"))
    s = np.hypot(w1, w2)
    keep = inside(s)
    w1, w2, s = w1[keep], w2[keep], s[keep]

    def newton_data(w1, w2, s):
        D = _sqrtmk_v_derivatives(system, k, w1, w2, s)
        return D, D[0] * D[0] + D[1] * D[1]

    def candidates(w1, w2, D):
        """The Newton steps damped by 1 and 0.25 from points (w1, w2) with
        Newton rows D, as rows of 2n points, damping-major; a function so
        that its temporaries are freed before the kernel call on them."""
        g1, g2, h11, h12, h22 = D
        det = h11 * h22 - h12 * h12
        dx = (g1 * h22 - g2 * h12) / det
        dy = (h11 * g2 - h12 * g1) / det
        damp = np.array([[1.0], [0.25]])
        return (w1 - damp * dx).ravel(), (w2 - damp * dy).ravel()

    # The live seeds: points, Newton rows, |grad|^2, seed index and count of
    # slow moves in a row; retired seeds go to (W1, W2, GN) in seed order.
    D, gn = newton_data(w1, w2, s)
    idx = np.arange(len(w1))
    slow = np.zeros(len(w1), dtype=int)
    W1, W2, GN = np.empty_like(w1), np.empty_like(w2), np.empty_like(gn)
    for _ in range(80):
        with np.errstate(all="ignore"):
            c1, c2 = candidates(w1, w2, D)
            sc = np.hypot(c1, c2)
            Dc, gnc = newton_data(c1, c2, sc)
        gnc[~inside(sc) | np.isnan(gnc)] = np.inf
        # pick: each seed's first candidate of least |grad|^2
        n = len(idx)
        pick = np.argmin(gnc.reshape(2, n), axis=0) * n + np.arange(n)
        best = gnc[pick]
        slow = np.where(best > 0.75 * gn, slow + 1, 0)
        out = ~(best < gn) | (slow >= 4)
        W1[idx[out]], W2[idx[out]], GN[idx[out]] = w1[out], w2[out], gn[out]
        live = ~out
        pick, idx, slow = pick[live], idx[live], slow[live]
        w1, w2, gn = c1[pick], c2[pick], gnc[pick]
        D = tuple(row[pick] for row in Dc)
        if idx.size == 0:
            break
    W1[idx], W2[idx], GN[idx] = w1, w2, gn

    # Only shapes with Vt < 0 rotate at some nu.
    V = shape_value(system, W1, W2)
    hit = (GN < 1e-22 * V * V) & (V < 0.0)
    W1, W2, V = W1[hit], W2[hit], V[hit]
    found: list[tuple[Shape, float]] = []
    todo = np.arange(len(W1))  # the hits left, in seed order
    while todo.size:
        i, todo = todo[0], todo[1:]
        w1, w2, vt = float(W1[i]), float(W2[i]), float(V[i])
        shape = Shape(w1, w2)
        mk = moments(math.hypot(w1, w2))[k - 1]
        start = _relequil_start(shape, k, mk, vt, math.sqrt(-mk * vt))
        if not _relequil_certificate(system, start) < 1e-6:
            continue  # drops alone
        found.append((shape, nu_threshold(mk, vt)))
        # the hits left on the same root, with one mask
        todo = todo[~((np.abs(W1[todo] - w1) < 1e-7) & (np.abs(W2[todo] - w2) < 1e-7))]
    return sorted(found, key=lambda item: (item[1], item[0].w1, item[0].w2))


# ---------------------------------------------------------------------------
# Assembly


def critical_catalog(system: BodySystem) -> list[CriticalValue]:
    """Sorted catalog of all critical values, a value merged into the one
    below it where they lie within MERGE_TOL = 1e-9 of the larger,
    relative, so that the catalog does not depend on the units; nothing
    merges into ``zero`` but a 0.

    Each interior closed form is listed where it applies and silently absent
    where it raises UnsupportedFamilyError: the diabolic value where
    Vt(0, 0) >= 0, Lagrange without gravitational couplings, Langmuir
    without a symmetric like pair.  A family whose nu overflows, or
    underflows to 0, raises DomainError; Lagrange goes first, so that its
    overflow is named.
    """
    entries: list[CriticalValue] = [CriticalValue(0.0, "zero", detail="energy sign change")]
    for closed_form in (nu_lagrange, nu_diabolic, nu_langmuir):
        try:
            entries.append(closed_form(system))
        except UnsupportedFamilyError:
            pass
    entries.extend(nu_infinity(system))
    entries.extend(collinear_configs(system))
    if any(cv.nu == 0.0 for cv in entries[1:]):
        raise DomainError("critical nu underflows; rescale the system")

    order = {fam: i for i, fam in enumerate(FAMILIES)}
    entries.sort(key=lambda cv: (cv.nu, order[cv.family]))
    merged: list[CriticalValue] = []
    for cv in entries:
        if merged and cv.nu - merged[-1].nu <= MERGE_TOL * cv.nu:
            prev = merged[-1]
            extra = f" +merged {cv.family}" if cv.family != prev.family else ""
            merged[-1] = replace(
                prev,
                multiplicity=prev.multiplicity + cv.multiplicity,
                detail=(prev.detail + extra).strip(),
            )
        else:
            merged.append(cv)
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
