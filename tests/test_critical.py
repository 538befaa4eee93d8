import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from trihill import critical
from trihill.coords import pair_geometry
from trihill.critical import (
    CriticalValue,
    _sqrtmk_v_derivatives,
    catalog_csv,
    collinear_configs,
    critical_catalog,
    find_critical_shapes,
    langmuir_geometry,
    langmuir_shape,
    nu_diabolic,
    nu_infinity,
    nu_lagrange,
    nu_langmuir,
)
from trihill.errors import DomainError, TrihillError, UnsupportedFamilyError
from trihill.hill import moments, shape_eval, shape_value, v_tilde
from trihill.systems import BodySystem, gravitational

from conftest import (
    COLLINEAR_COEFF_EPS,
    collinear_coefficient_error,
    count_calls,
    forbid,
    oracle_collinear_configs,
    oracle_collinear_polynomials,
    oracle_collinear_roots,
    oracle_roots_in_unit_interval,
    oracle_find_critical_shapes,
    oracle_sqrtmk_v_derivatives,
)


GRAVITY_PRINTED = [
    0.0,
    0.3927272727,
    0.7876923077,
    1.263908571,
    6.961348535,
    13.83605894,
    18.56904438,
    19.12865697,
    19.44296212,
]
HELIUM_PRINTED = [0.0, 1.999725672, 5.420669550, 6.748148600, 12.25]
EEP_PRINTED = [0.0, 0.25, 0.2925594730, 2.25]

# exact value for m3 = 7289.56, from (3/2)^3 * 2 m1 m3 / (2 m1 + m3);
# the 10-digit print above is off in its 8th significant digit
HELIUM_LANGMUIR_EXACT = 1640151.0 / 243052.0


def test_nu_infinity_gravity(gravity):
    got = [cv.nu for cv in nu_infinity(gravity)]
    assert got == pytest.approx([0.3927272727, 0.7876923077, 1.263908571], rel=1e-9)


def test_nu_infinity_helium(helium):
    vals = nu_infinity(helium)
    assert len(vals) == 2  # the electron-electron pair is repulsive
    for cv in vals:
        assert cv.nu == pytest.approx(1.999725672, rel=1e-9)


def test_nu_infinity_eep(eep):
    vals = nu_infinity(eep)
    assert len(vals) == 2
    for cv in vals:
        assert cv.nu == pytest.approx(0.25, rel=1e-12)


def test_nu_diabolic_printed_values(gravity, helium, eep):
    assert nu_diabolic(gravity).nu == pytest.approx(6.961348535, rel=1e-9)
    assert nu_diabolic(helium).nu == pytest.approx(5.420669550, rel=1e-9)
    assert nu_diabolic(eep).nu == pytest.approx(0.25, rel=1e-9)
    assert nu_diabolic(eep).w == (0.0, 0.0)


def test_diabolic_symmetric_vs_printed_form(gravity, helium, eep):
    # the reduced-mass form reproduces all three published values; the form
    # with the inverted third radical misses each by more than 10 percent
    for system, want in ((gravity, 6.961348535), (helium, 5.420669550), (eep, 0.25)):
        m1, m2, m3 = system.masses
        a1, a2, a3 = system.alphas
        sym = a1 * math.sqrt(m2 * m3 / (m2 + m3)) + a2 * math.sqrt(
            m1 * m3 / (m1 + m3)
        ) + a3 * math.sqrt(m1 * m2 / (m1 + m2))
        alt = a1 * math.sqrt(m2 * m3 / (m2 + m3)) + a2 * math.sqrt(
            m1 * m3 / (m1 + m3)
        ) + a3 * math.sqrt((m1 + m2) / (m1 * m2))
        assert 0.5 * sym * sym == pytest.approx(want, rel=1e-9)
        assert abs(0.5 * alt * alt - want) > 0.10 * want


def test_nu_lagrange(gravity, helium):
    assert nu_lagrange(gravity).nu == pytest.approx(13.83605894, rel=1e-9)
    equal = gravitational((1.0, 1.0, 1.0))
    assert nu_lagrange(equal).nu == pytest.approx(4.5, rel=1e-14)
    with pytest.raises(UnsupportedFamilyError):
        nu_lagrange(helium)


def test_nu_lagrange_shape_is_critical(gravity):
    # nu = Mt_3 Vt^2 / 2 at the stored equilateral shape
    cv = nu_lagrange(gravity)
    ev = shape_eval(gravity, cv.shape())
    assert 0.5 * ev.m_tilde[2] * ev.v_tilde**2 == pytest.approx(cv.nu, rel=1e-12)


def oracle_langmuir_sin_theta(a2: float, a3: float) -> float:
    """Solve the vertical force balance directly (leg length a = 1)."""

    def residual(theta):
        b = math.sin(theta)
        return a3 / (2 * b) ** 2 + a2 * math.sin(theta)

    return math.sin(brentq(residual, 1e-3, math.pi / 2 - 1e-6, xtol=1e-15))


def test_langmuir_geometry_helium(helium):
    geom = langmuir_geometry(helium)
    assert math.sin(geom.theta) == pytest.approx(0.5, abs=1e-12)
    assert math.degrees(geom.theta) == pytest.approx(30.0, abs=1e-12)
    # invariants of the configuration at unit leg length
    m1, _, m3 = helium.masses
    assert geom.b == pytest.approx(math.sin(geom.theta), rel=1e-15)
    assert m3 * geom.c == pytest.approx(2 * m1 * geom.d, rel=1e-12)
    assert geom.c + geom.d == pytest.approx(math.cos(geom.theta), rel=1e-14)


def test_langmuir_geometry_eep_against_force_balance(eep):
    geom = langmuir_geometry(eep)
    want = oracle_langmuir_sin_theta(1.0, -1.0)
    assert math.sin(geom.theta) == pytest.approx(want, abs=1e-12)
    assert math.sin(geom.theta) == pytest.approx(0.25 ** (1.0 / 3.0), rel=1e-14)


def test_langmuir_geometry_errors(gravity):
    with pytest.raises(UnsupportedFamilyError):
        langmuir_geometry(gravity)  # all couplings positive
    with pytest.raises(UnsupportedFamilyError):
        langmuir_geometry(BodySystem((1, 2, 1), (1, 1, -1)))  # m1 != m2
    with pytest.raises(UnsupportedFamilyError):
        langmuir_geometry(BodySystem((1, 1, 1), (0.1, 0.1, -1)))  # sin^3 > 1


def test_nu_langmuir_values(helium, eep):
    cv = nu_langmuir(helium)
    assert cv.nu == pytest.approx(HELIUM_LANGMUIR_EXACT, rel=1e-13)
    assert cv.nu == pytest.approx(6.748148600, rel=1e-8)
    assert cv.axis == 2  # middle principal axis for the heavy nucleus
    cv = nu_langmuir(eep)
    assert cv.nu == pytest.approx(0.2925594730, rel=1e-9)
    assert cv.axis == 1  # smallest principal axis for equal masses


def test_nu_langmuir_special_case_identity(helium):
    # for a2/a3 = -2 the general formula collapses to (3/2)^3 mu a3^2
    m1, _, m3 = helium.masses
    mu = 2 * m1 * m3 / (2 * m1 + m3)
    assert nu_langmuir(helium).nu == pytest.approx((1.5**3) * mu, rel=1e-12)


def test_nu_langmuir_consistent_with_shape(helium, eep):
    for system in (helium, eep):
        cv = nu_langmuir(system)
        ev = shape_eval(system, cv.shape())
        assert 0.5 * ev.m_tilde[cv.axis - 1] * ev.v_tilde**2 == pytest.approx(
            cv.nu, rel=1e-9
        )


def test_langmuir_shape_positions(helium):
    # helium: nearly on the positive w2 axis, per the near-degenerate masses
    sh = langmuir_shape(helium, langmuir_geometry(helium))
    assert abs(sh.w1) < 1e-3
    assert sh.w2 == pytest.approx(0.5, abs=1e-3)


def test_collinear_gravity(gravity):
    vals = collinear_configs(gravity)
    assert len(vals) == 3
    assert [cv.nu for cv in vals] == pytest.approx(
        [18.56904438, 19.12865697, 19.44296212], rel=1e-6
    )


def test_collinear_symmetric_closed_form(helium, eep):
    # middle body 3 with m1 = m2 and a1 = a2: nu = m1 (4 a1 + a3)^2 / 4
    for system, want in ((helium, 49.0 / 4.0), (eep, 9.0 / 4.0)):
        vals = collinear_configs(system)
        assert len(vals) == 1
        m1 = system.masses[0]
        a1, _, a3 = system.alphas
        closed = 0.25 * m1 * (4 * a1 + a3) ** 2
        assert closed == pytest.approx(want, rel=1e-15)
        assert vals[0].nu == pytest.approx(closed, rel=1e-9)


def test_collinear_symmetric_random_systems():
    rng = np.random.default_rng(103)
    for _ in range(5):
        m1 = float(rng.uniform(0.5, 3.0))
        m3 = float(rng.uniform(0.5, 5.0))
        a1 = float(rng.uniform(0.5, 2.0))
        a3 = -float(rng.uniform(0.1, 2.0 * a1))  # keep 4 a1 + a3 > 0
        system = BodySystem((m1, m1, m3), (a1, a1, a3))
        closed = 0.25 * m1 * (4 * a1 + a3) ** 2
        best = min(
            (abs(cv.nu - closed) for cv in collinear_configs(system)),
            default=math.inf,
        )
        assert best < 1e-9 * max(1.0, closed)


def test_collinear_euler_angles(gravity):
    # boundary polar angles of the three Euler configurations
    angles = sorted(
        math.degrees(math.atan2(cv.w[1], cv.w[0])) for cv in collinear_configs(gravity)
    )
    assert angles == pytest.approx([-121.3, -18.9, 117.3], abs=0.2)


def _rim_point_from_positions(system, order, t):
    """w of bodies ``order`` at (0, t, 1), built from the body positions with
    the mass-weighted Jacobi vectors r1 = sqrt(mu1) (x1 - x3) and
    r2 = sqrt(mu2) (x2 - (m1 x1 + m3 x3)/(m1 + m3)) written out, in exact
    rational arithmetic apart from the one root sqrt(mu1 mu2):
    w = (r1^2 - r2^2, 2 r1 r2)/(r1^2 + r2^2)."""
    x = dict(zip(order, (Fraction(0), Fraction(t), Fraction(1))))
    m1, m2, m3 = (Fraction(m) for m in system.masses)
    mu1, mu2 = m1 * m3 / (m1 + m3), m2 * (m1 + m3) / (m1 + m2 + m3)
    d1, d2 = x[1] - x[3], x[2] - (m1 * x[1] + m3 * x[3]) / (m1 + m3)
    inertia = mu1 * d1 * d1 + mu2 * d2 * d2
    w1 = float((mu1 * d1 * d1 - mu2 * d2 * d2) / inertia)
    return w1, 2.0 * math.sqrt(mu1 * mu2) * float(d1 * d2 / inertia)


def test_collinear_rim_points_match_body_positions(monkeypatch, all_systems):
    # presets, systems log-uniform in 1e-3..1e3 with random signs, and
    # symmetric ones whose middle body 2 sits at the barycentre of 1 and 3,
    # where w2 = 0 must print unsigned
    rng = np.random.default_rng(41)
    systems = list(all_systems.values()) + [gravitational((1.0, 2.0, 1.0))]
    systems += [BodySystem((1.5, 0.7, 1.5), (1.0, -0.4, 1.0))]
    for _ in range(40):
        masses, magnitudes = 10.0 ** rng.uniform(-3.0, 3.0, (2, 3))
        alphas = rng.choice([-1.0, 1.0], 3) * magnitudes
        systems.append(BodySystem(tuple(masses.tolist()), tuple(alphas.tolist())))
    seen = []
    entry = critical._collinear_entry

    def recorded(system, order, t, nu, residual):
        cv = entry(system, order, t, nu, residual)
        seen.append((system, order, t, cv))
        return cv

    monkeypatch.setattr(critical, "_collinear_entry", recorded)
    for system in systems:
        collinear_configs(system)
    assert len(seen) > 50
    for system, order, t, cv in seen:
        want = _rim_point_from_positions(system, order, t)
        assert abs(cv.w[0] - want[0]) <= 1e-15 and abs(cv.w[1] - want[1]) <= 1e-15
    unsigned = [cv for *_, cv in seen if cv.w[1] == 0.0]
    assert len(unsigned) == 2
    assert all(math.copysign(1.0, cv.w[1]) == 1.0 for cv in unsigned)
    assert all("psi_deg=0.000000" in cv.detail for cv in unsigned)


def test_collinear_drops_zero_potential_artifacts(helium, eep):
    # orderings with an electron in the middle only reach the V = 0 minimum,
    # a root of A, which is not a relative equilibrium: only the ordering
    # with the nucleus in the middle is listed
    for system in (helium, eep):
        (cv,) = collinear_configs(system)
        assert cv.detail.startswith("order=(1, 3, 2) ")
        zeros = oracle_collinear_roots(system, quadratic=True)
        assert {order for order, *_ in zeros} == {(2, 1, 3), (1, 2, 3)}
        assert not any(physical for *_, physical in zeros)


def test_collinear_solves_only_the_quintic(monkeypatch, gravity):
    # one solve per catalog over the three orderings' quintics: the roots of
    # A have V = 0 and never count
    calls = count_calls(monkeypatch, critical._roots_in_unit_interval)
    eigvals, solve = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: eigvals.append(m) or solve(m))
    collinear_configs(gravity)
    ((polys,),) = calls
    orders = ((2, 1, 3), (1, 2, 3), (1, 3, 2))
    assert polys == [critical._collinear_polynomials(gravity, order)[0] for order in orders]
    assert [len(c) for c in polys] == [6, 6, 6]
    assert [m.shape for m in eigvals] == [(3, 5, 5)]


def test_stacked_solve_matches_polyroots_per_polynomial():
    # degrees 0 to 5, zero leading coefficients included, in one call: each
    # polynomial's polished roots are those of its own polyroots call; a
    # linear root that overflows is no root, where an eigenvalue solve of
    # its 1 x 1 companion matrix would raise
    rng = np.random.default_rng(7)
    polys = [[1e300, 1e-300], [-1e300, 1e-300, 0.0]]
    for _ in range(300):
        c = rng.normal(size=6)
        c[rng.integers(1, 7) :] = 0.0
        polys.append(c.tolist())
    assert critical._roots_in_unit_interval(polys) == [
        oracle_roots_in_unit_interval(np.array(c))[0] for c in polys
    ]


def test_collinear_bits_on_seeded_systems_with_zero_couplings():
    # a zero coupling drops a quintic's degree (to 3, or to 0 with all three
    # zero), so the stacked solve groups the orderings by degree
    rng = np.random.default_rng(28)
    n = 600
    alphas = rng.uniform(-3.0, 3.0, (n, 3)) * (rng.random((n, 3)) > 1 / 3)
    alphas[:3] = [(1, 0, 1), (0, 1, -1), (1, 1, 0)]
    degrees = set()
    for masses, alpha in zip(rng.uniform(0.1, 5.0, (n, 3)).tolist(), alphas.tolist()):
        system = BodySystem(masses, alpha)
        assert _bits(collinear_configs(system)) == _bits(oracle_collinear_configs(system))
        degrees.add(
            tuple(
                len(oracle_collinear_polynomials(system, order)[0]) - 1
                for order in ((2, 1, 3), (1, 2, 3), (1, 3, 2))
            )
        )
    assert {(5, 5, 5), (3, 5, 5), (5, 3, 3), (0, 0, 0)} <= degrees


def test_collinear_coefficients_are_within_rounding_of_the_exact_ones(all_systems):
    # the presets, 400 seeded systems (a third of the couplings zero) and 200
    # across 60 decades: each float coefficient of P, A, its scale and I lies
    # within COLLINEAR_COEFF_EPS eps of its terms' magnitudes from the exact
    # one; the worst is above 1/2 eps, so rounding shows and the check bites
    rng = np.random.default_rng(45)
    systems = list(all_systems.values())
    for _ in range(400):
        alphas = rng.uniform(-3.0, 3.0, 3) * (rng.random(3) > 1 / 3)
        systems.append(BodySystem(rng.uniform(0.1, 5.0, 3).tolist(), alphas.tolist()))
    for _ in range(200):
        signs = rng.choice((-1.0, 1.0), 3)
        masses, magnitudes = 10.0 ** rng.uniform(-30.0, 30.0, (2, 3))
        systems.append(BodySystem(masses.tolist(), (signs * magnitudes).tolist()))
    errors = [
        collinear_coefficient_error(system, order)
        for system in systems
        for order in ((2, 1, 3), (1, 2, 3), (1, 3, 2))
    ]
    assert None not in errors
    assert 0.5 < max(errors) <= COLLINEAR_COEFF_EPS


def oracle_collinear_terms(system, order, t):
    """nu, dnu/dt, V and its scale sum |g|/r for bodies ``order`` at
    positions (0, t, 1), from the centre of mass: I = sum m (x - c)^2 and
    dI/dt = 2 m_j (t - c)."""
    mi, mj, mk = (system.masses[b - 1] for b in order)
    i, j, k = order
    gij, gjk, gik = (system.pair_coupling(*p) for p in ((i, j), (j, k), (i, k)))
    c = (mj * t + mk) / (mi + mj + mk)
    inertia = mi * c**2 + mj * (t - c) ** 2 + mk * (1.0 - c) ** 2
    V = -(gij / t + gjk / (1.0 - t) + gik)
    dV = gij / t**2 - gjk / (1.0 - t) ** 2
    vscale = abs(gij) / t + abs(gjk) / (1.0 - t) + abs(gik)
    return 0.5 * inertia * V**2, mj * (t - c) * V**2 + inertia * V * dV, V, vscale


def oracle_collinear_physical_nus(system, n=4000):
    """Physical collinear critical values from sign changes of dnu/dt.

    The scan clusters geometrically toward both collisions, down to 1e-12
    from t = 0 and t = 1, and leaves out t = 1/2, a root of every symmetric
    ordering.  brentq refines each sign change; V below zero by more than
    1e-9 of its scale marks it physical, as the catalog requires.
    """
    half = np.logspace(-12.0, math.log10(0.5), n)[:-1]
    ts = np.concatenate([half, 1.0 - half[::-1]])
    out = []
    for middle in (1, 2, 3):
        i, k = [b for b in (1, 2, 3) if b != middle]
        order = (i, middle, k)
        dnu = oracle_collinear_terms(system, order, ts)[1]
        for idx in np.nonzero(np.sign(dnu[:-1]) * np.sign(dnu[1:]) < 0)[0]:
            t0 = brentq(
                lambda t: oracle_collinear_terms(system, order, t)[1],
                ts[idx],
                ts[idx + 1],
                xtol=1e-300,
            )
            nu, _, V, vscale = oracle_collinear_terms(system, order, t0)
            if V < -1e-9 * vscale:
                out.append(nu)
    return sorted(out)


def test_collinear_roots_next_to_a_collision():
    # a3 = 1e-18 puts both physical critical points of the (1, 2) pair at
    # t = 7.37e-7, inside the 1e-6 margin a sampling grid would skip; the
    # relabellings move the weak pair so that t -> 1 is covered as well
    base = BodySystem((1, 1, 1), (1, 1, 1e-18))
    for perm in itertools.permutations((1, 2, 3)):
        near = [
            cv
            for cv in collinear_configs(base.permuted(perm))
            if abs(cv.nu - 4.0 / 3.0) < 1e-6
        ]
        assert len(near) == 2
        for cv in near:
            assert cv.nu == pytest.approx(1.3333333333360, rel=1e-12)
            assert cv.residual <= 1e-9


def test_collinear_zero_couplings():
    # a non-interacting pair puts exact roots on its collision, which is no
    # collinear configuration; the remaining roots match the dense scan
    for alphas in ((1, 0, 1), (0, 1, 1), (1, 1, 0), (0, 0, 1), (2, -1, 0), (0, 0, 0)):
        system = BodySystem((1, 2, 3), alphas)
        got = sorted(cv.nu for cv in collinear_configs(system))
        assert got == pytest.approx(oracle_collinear_physical_nus(system), rel=1e-9)
        assert all(cv.residual <= 1e-9 for cv in collinear_configs(system))


def test_collinear_double_root():
    # couplings chosen so that dnu/dt touches zero at t0 without a sign
    # change (ordering (1, 2, 3)).  The physical factor 1/2 I' V + I V' and
    # its t-derivative are linear in the couplings, so the null vector of the
    # two conditions gives the system.  Rounding returns the double root as
    # two close real roots at t0 = 0.3 and as a complex pair at the others.
    masses = (1.0, 2.0, 3.0)
    m1, m2, m3 = masses
    mtot = m1 + m2 + m3
    for t in (0.2, 0.25, 0.3, 0.4):
        inertia = (m1 * m2 * t**2 + m2 * m3 * (1 - t) ** 2 + m1 * m3) / mtot
        d1 = (2 * m1 * m2 * t - 2 * m2 * m3 * (1 - t)) / mtot
        d2 = 2 * (m1 * m2 + m2 * m3) / mtot
        # columns: unit a1 (pair 2-3), a2 (pair 1-3), a3 (pair 1-2)
        V = np.array([-1 / (1 - t), -1.0, -1 / t])
        dV = np.array([-1 / (1 - t) ** 2, 0.0, 1 / t**2])
        d2V = np.array([-2 / (1 - t) ** 3, 0.0, -2 / t**3])
        factor = 0.5 * d1 * V + inertia * dV
        slope = 0.5 * d2 * V + 1.5 * d1 * dV + inertia * d2V
        alphas = np.cross(factor, slope)
        alphas *= np.sign(-alphas @ V)  # V < 0 at t0: a physical configuration
        want = 0.5 * inertia * float(alphas @ V) ** 2
        hits = [
            cv
            for cv in collinear_configs(BodySystem(masses, tuple(alphas)))
            if abs(cv.nu - want) < 1e-6 * want
        ]
        assert hits
        for cv in hits:
            assert "order=(1, 2, 3)" in cv.detail
            assert cv.nu == pytest.approx(want, rel=1e-12)


_SIGNS = list(itertools.product((1.0, -1.0), repeat=3))


def _bits(entries):
    """Entries by their reprs: every field equal to the last bit, nan too."""
    return [repr(cv) for cv in entries]


def _no_physical_zero_of_a(system):
    """Whether no root of the V = 0 quadratic A passes the physical test; a
    system whose polynomials or roots of A overflow has none."""
    try:
        zeros = oracle_collinear_roots(system, quadratic=True)
    except DomainError:
        return True
    return not any(physical for *_, physical in zeros)


# The bit-identity properties run without hypothesis's shrink phase: it
# re-runs whole catalogs and searches, so a broken bit would take minutes
# to report.
_NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


@pytest.mark.parametrize("signs", _SIGNS)
@settings(max_examples=12, deadline=None, derandomize=True, phases=_NO_SHRINK)
@given(
    masses=st.tuples(*[st.floats(0.1, 5.0)] * 3),
    magnitudes=st.tuples(*[st.floats(0.05, 3.0)] * 3),
)
def test_collinear_property(signs, masses, magnitudes):
    system = BodySystem(masses, tuple(s * m for s, m in zip(signs, magnitudes)))
    entries = collinear_configs(system)
    assert all(type(cv.nu) is float for cv in entries)
    assert _bits(entries) == _bits(oracle_collinear_configs(system))
    assert _no_physical_zero_of_a(system)
    base = [cv.nu for cv in entries]
    assert base == pytest.approx(oracle_collinear_physical_nus(system), rel=1e-9)
    catalog = [cv.nu for cv in critical_catalog(system)]
    for perm in itertools.permutations((1, 2, 3)):
        swapped = system.permuted(perm)
        got = [cv.nu for cv in collinear_configs(swapped)]
        assert got == pytest.approx(base, rel=1e-9, abs=1e-12)
        got = [cv.nu for cv in critical_catalog(swapped)]
        assert got == pytest.approx(catalog, rel=1e-9, abs=1e-12)


def test_collinear_matches_array_polish_oracle_on_presets(all_systems):
    for system in all_systems.values():
        assert _bits(collinear_configs(system)) == _bits(oracle_collinear_configs(system))


_LOG_UNIFORM = st.tuples(*[st.floats(-300.0, 300.0).map(lambda e: 10.0**e)] * 3)


@settings(max_examples=300, deadline=None, derandomize=True, phases=_NO_SHRINK)
@given(
    masses=_LOG_UNIFORM,
    magnitudes=_LOG_UNIFORM,
    signs=st.tuples(*[st.sampled_from((1.0, -1.0))] * 3),
)
# Langmuir systems whose reduced masses overflow or underflow, or whose
# shape lies within rounding of the rim
@example(masses=(1e155, 1.0, 1e155), magnitudes=(1.0, 1.0, 1.0), signs=(1.0, -1.0, 1.0))
@example(masses=(1e-162, 1.0, 1e-162), magnitudes=(1.0, 1.0, 1.0), signs=(1.0, -1.0, 1.0))
@example(masses=(1e-162,) * 3, magnitudes=(1.0, 1.0, 1.0), signs=(1.0, 1.0, -1.0))
@example(masses=(1.0, 1.0, 1.0), magnitudes=(1e25, 1.0, 1e25), signs=(1.0, -1.0, 1.0))
def test_log_uniform_systems(masses, magnitudes, signs):
    # masses and couplings across 600 decades: the collinear family is the
    # array polish's to the last bit, and the catalog answers with finite
    # values or a DomainError, never a RuntimeWarning or another exception
    system = BodySystem(masses, tuple(s * m for s, m in zip(signs, magnitudes)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            want = _bits(oracle_collinear_configs(system))
        except DomainError:
            with pytest.raises(DomainError):
                collinear_configs(system)
        else:
            assert _bits(collinear_configs(system)) == want
        assert _no_physical_zero_of_a(system)
        try:
            catalog = critical_catalog(system)
        except DomainError:
            return
    assert all(math.isfinite(cv.nu) for cv in catalog)
    assert all(math.isfinite(v) for cv in catalog if cv.w is not None for v in cv.w)


def test_find_critical_shapes_lagrange(gravity):
    hits = find_critical_shapes(gravity, 3)
    assert len(hits) == 1
    shape, nu = hits[0]
    cv = nu_lagrange(gravity)
    assert nu == pytest.approx(cv.nu, rel=1e-6)
    assert shape.w1 == pytest.approx(cv.w[0], abs=1e-6)
    assert shape.w2 == pytest.approx(cv.w[1], abs=1e-6)


def test_find_critical_shapes_certifies_one_hit_per_root_and_drops_a_failed_one_alone(
    monkeypatch, gravity
):
    # all 3,300 seeds of axis 3 land on the Lagrange root: the first hit is
    # certified and takes the rest with it; a first hit whose certificate
    # fails drops alone, and the second one is found in its place
    certificate, calls = critical._relequil_certificate, []

    def first_fails(system, state):
        calls.append(state)
        return math.inf if len(calls) == 1 else certificate(system, state)

    (want,) = find_critical_shapes(gravity, 3)
    monkeypatch.setattr(critical, "_relequil_certificate", first_fails)
    ((shape, nu),) = find_critical_shapes(gravity, 3)
    assert len(calls) == 2 and shape != want[0]
    assert (shape.w1, shape.w2, nu) == pytest.approx((want[0].w1, want[0].w2, want[1]), abs=1e-7)


def test_find_critical_shapes_langmuir(helium, eep):
    for system in (helium, eep):
        cv = nu_langmuir(system)
        hits = find_critical_shapes(system, cv.axis)
        assert len(hits) >= 1
        best = min(hits, key=lambda item: abs(item[1] - cv.nu))
        assert best[1] == pytest.approx(cv.nu, rel=1e-6)


@pytest.mark.parametrize("k", [1.0, 0, 4, "1"])
def test_find_critical_shapes_rejects_an_axis_that_is_not_1_2_or_3(gravity, k):
    with pytest.raises(DomainError):
        find_critical_shapes(gravity, k)


def test_find_critical_shapes_absent_families(gravity, eep):
    # no Langmuir-type equilibrium for purely attractive couplings
    assert find_critical_shapes(gravity, 1) == []
    # no Lagrange-type (axis 3) equilibrium with mixed-sign couplings
    assert find_critical_shapes(eep, 3) == []


def _search_results(search, system):
    return [[(sh.w1, sh.w2, nu) for sh, nu in search(system, k)] for k in (1, 2, 3)]


def _assert_same_hits(got, want):
    """The same number of hits per axis, and each hit of ``want`` matched to
    the hit of ``got`` nearest in w, within 1e-12 absolute in w1 and w2 and
    1e-12 relative in nu; by position, since mirror hits can share a nu."""
    for hits, ref in zip(got, want):
        assert len(hits) == len(ref)
        for w1, w2, nu in ref:
            g1, g2, gnu = min(hits, key=lambda hit: math.hypot(hit[0] - w1, hit[1] - w2))
            assert abs(g1 - w1) <= 1e-12 and abs(g2 - w2) <= 1e-12
            assert abs(gnu - nu) <= 1e-12 * abs(nu)


def test_find_critical_shapes_matches_full_batch_oracle_on_presets(all_systems):
    types = set()  # hits hold Python floats, as catalog shapes do
    for system in all_systems.values():
        got = _search_results(find_critical_shapes, system)
        _assert_same_hits(got, _search_results(oracle_find_critical_shapes, system))
        types |= {type(v) for hits in got for hit in hits for v in hit}
    assert types == {float}


@pytest.mark.parametrize("signs", _SIGNS)
@settings(max_examples=2, deadline=None, derandomize=True, phases=_NO_SHRINK)
@given(
    masses=st.tuples(*[st.floats(0.1, 5.0)] * 3),
    magnitudes=st.tuples(*[st.floats(0.05, 3.0)] * 3),
)
# masses and |couplings| log-uniform in 1e-3..1e3, with hits on axis 1
# (signs 1, 2, 4), axis 2 (signs 4) and axis 3 (signs 0)
@example(masses=(41.63, 16.74, 0.3219), magnitudes=(426.6, 777.7, 128.1))
def test_find_critical_shapes_matches_full_batch_oracle(signs, masses, magnitudes):
    # retiring the seeds that no damped step improves, and the stalled ones,
    # loses no hit and adds none, with no step clipped; a hit can move by
    # ulps when another seed reaches it first
    system = BodySystem(masses, tuple(s * m for s, m in zip(signs, magnitudes)))
    got = _search_results(find_critical_shapes, system)
    _assert_same_hits(got, _search_results(oracle_find_critical_shapes, system))


def test_find_critical_shapes_searches_in_full_on_every_call(monkeypatch, helium):
    # no hit is kept across calls: a repeated search makes every kernel call again
    calls = count_calls(monkeypatch, critical.shape_kernel)
    first = _search_results(find_critical_shapes, helium)
    n = len(calls)
    assert n > 3 and _search_results(find_critical_shapes, helium) == first
    assert len(calls) == 2 * n


# systems whose axis-1 hit a search with other damping levels than 1 and
# 0.25 loses: all three with the step 1 alone, the third (log-uniform in
# 1e-2..1e2) with the steps 1 and 0.5
_DAMPED_HIT_SYSTEMS = [
    BodySystem(
        (2.4494899836282245, 4.79676269901692, 1.654661417355907),
        (1.266045128119521, 0.10266738842151073, -1.3185351506100784),
    ),
    BodySystem(
        (0.11697702118956757, 4.9179058803888855, 1.498869703477249),
        (0.4143997515973213, -0.43127399972375846, 0.15082540801012725),
    ),
    BodySystem(
        (0.05199835763592814, 0.05283738078470747, 10.759962224116556),
        (6.719221502224043, -38.469425217025645, 13.158316641907168),
    ),
]


@pytest.mark.parametrize("system", _DAMPED_HIT_SYSTEMS)
def test_find_critical_shapes_keeps_the_damped_hits(system):
    got = _search_results(find_critical_shapes, system)
    assert len(got[0]) == 1
    _assert_same_hits(got, _search_results(oracle_find_critical_shapes, system))


@pytest.mark.parametrize(
    "p, k, hits",
    [
        ((0.3, -0.2), 1, 1),
        ((3e-4, 4e-4), 3, 1),
        ((3e-4, 4e-4), 1, 0),  # in the core
        ((3e-4, 4e-4), 2, 0),
        ((0.6, 0.7995), 3, 0),  # in the rim margin: radius 0.9996
        ((1.2, 0.0), 2, 0),  # off the disk
    ],
)
def test_find_critical_shapes_searches_the_annulus_only(monkeypatch, gravity, p, k, hits):
    # the bowl |w - p|^2 in place of sqrt(Mt_k) Vt: its one critical point p
    # is a hit only inside the annulus 1e-3 < s < 1 - 1e-3 (no core for
    # k = 3); Vt < 0 on the whole disk of gravity-demo.  Its step-0.25
    # candidates have a NaN |grad|^2: the pick passes over them, each seed
    # moves by the full step onto p and retires once no candidate is below
    # its own |grad|^2 (at 0, a pick that took an equal one would hold it
    # to the 80-iteration cap)
    batches = []

    def bowl(system, k, w1, w2, s):
        assert s.tobytes() == np.hypot(w1, w2).tobytes()
        g1 = 2.0 * (w1 - p[0])
        if batches:  # candidates, damping-major: the step 0.25 is the back half
            g1[len(g1) // 2 :] = np.nan
        batches.append(len(w1))
        two = np.full_like(w1, 2.0)
        return g1, 2.0 * (w2 - p[1]), two, np.zeros_like(w1), two.copy()

    monkeypatch.setattr(critical, "_sqrtmk_v_derivatives", bowl)
    monkeypatch.setattr(critical, "_relequil_certificate", lambda *args: 0.0)
    found = find_critical_shapes(gravity, k)
    assert len(found) == hits and len(batches) <= 4
    for shape, _ in found:
        assert abs(shape.w1 - p[0]) <= 1e-12 and abs(shape.w2 - p[1]) <= 1e-12


def _kernel_test_points(system):
    """Random interior points, the centre, the 1e-3 core and rim margins and
    each pair's collision ray just inside the rim, as rows (w1, w2)."""
    rng = np.random.default_rng(5)
    radius = np.concatenate(
        [np.sqrt(rng.uniform(0.0, 0.998, 40)), [0.0, 1e-3, 1e-3, 1.0 - 1e-3, 1.0 - 1e-3]]
    )
    angle = np.concatenate([rng.uniform(0.0, 2.0 * math.pi, 40), [0.0, 0.3, 2.0, 1.0, 4.0]])
    w1, w2 = [radius * np.cos(angle)], [radius * np.sin(angle)]
    inside = np.array([1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-12, np.nextafter(1.0, 0.0)])
    for pair in pair_geometry(system):
        w1.append(inside * pair.cos)
        w2.append(inside * pair.sin)
    return np.concatenate(w1), np.concatenate(w2)


def test_sqrtmk_v_derivatives_rows_match_stacked_oracle_bit_for_bit(all_systems):
    # the row kernel writes out the stacked kernel's operations in its order,
    # so every bit agrees, signed zeros and NaNs at the rim too
    for system in all_systems.values():
        w1, w2 = _kernel_test_points(system)
        for k in (1, 2, 3):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                got = _sqrtmk_v_derivatives(system, k, w1.copy(), w2.copy(), np.hypot(w1, w2))
                g, h = oracle_sqrtmk_v_derivatives(system, k, np.stack([w1, w2], axis=1))
            for row, want in zip(got, [*g, *h]):
                assert row.tobytes() == want.tobytes()


# random0 of the catalog benchmark workload at seed 1
_RANDOM0 = BodySystem(
    (1.7261747201536926, 3.098290270863728, 2.5874000334728415),
    (-2.0622109423656503, 1.8241903347330979, -2.886816642056136),
)


def test_find_critical_shapes_makes_no_scalar_evaluation(monkeypatch):
    # 946 seeds converge on axis 1 where Vt >= 0; they leave in one array
    # step, not one shape_eval each.
    want = _search_results(oracle_find_critical_shapes, _RANDOM0)
    forbid(monkeypatch, shape_eval)
    forbid(monkeypatch, v_tilde)
    _assert_same_hits(_search_results(find_critical_shapes, _RANDOM0), want)


def test_find_critical_shapes_retires_stalled_seeds(monkeypatch, helium):
    # on helium's axis 2 about 50 seeds at the Langmuir shape creep along
    # the rounding floor of |grad|^2, about 4.9e-32, each move cutting it by
    # far less than a quarter; kept live, they would hold that search to 72
    # kernel calls instead of 31.  A seed that no step improves retires at
    # once: random0's searches take 23, 16 and 11 calls
    calls = count_calls(monkeypatch, critical.shape_kernel)
    for system in (_RANDOM0, helium):
        want = _search_results(oracle_find_critical_shapes, system)
        got = []
        for k in (1, 2, 3):
            calls.clear()
            got.append([(sh.w1, sh.w2, nu) for sh, nu in find_critical_shapes(system, k)])
            assert len(calls) <= 40
        _assert_same_hits(got, want)


def test_catalog_gravity(gravity):
    cat = critical_catalog(gravity)
    assert [cv.family for cv in cat] == [
        "zero",
        "infinity",
        "infinity",
        "infinity",
        "diabolic",
        "lagrange",
        "collinear",
        "collinear",
        "collinear",
    ]
    for cv, want in zip(cat, GRAVITY_PRINTED):
        tol = 1e-6 if cv.family == "collinear" else 1e-9
        if want == 0.0:
            assert cv.nu == 0.0
        else:
            assert cv.nu == pytest.approx(want, rel=tol)


def test_catalog_helium(helium):
    cat = critical_catalog(helium)
    assert [cv.family for cv in cat] == [
        "zero",
        "infinity",
        "diabolic",
        "langmuir",
        "collinear",
    ]
    assert [cv.multiplicity for cv in cat] == [1, 2, 1, 1, 1]
    assert cat[1].nu == pytest.approx(1.999725672, rel=1e-9)
    assert cat[2].nu == pytest.approx(5.420669550, rel=1e-9)
    assert cat[3].nu == pytest.approx(HELIUM_LANGMUIR_EXACT, rel=1e-12)
    assert cat[4].nu == pytest.approx(12.25, rel=1e-12)


def test_catalog_eep(eep):
    cat = critical_catalog(eep)
    assert [cv.family for cv in cat] == ["zero", "infinity", "langmuir", "collinear"]
    # 0.25 merges two critical points at infinity with the diabolic value
    assert cat[1].multiplicity == 3
    assert "diabolic" in cat[1].detail
    assert cat[1].nu == pytest.approx(0.25, rel=1e-12)
    assert cat[2].nu == pytest.approx(0.2925594730, rel=1e-9)
    assert cat[3].nu == pytest.approx(2.25, rel=1e-12)


def test_catalog_permutation_invariance(gravity, helium):
    for system in (gravity, helium):
        base = [cv.nu for cv in critical_catalog(system)]
        for perm in ((2, 3, 1), (3, 2, 1), (1, 3, 2)):
            swapped = system.permuted(perm)
            got = [cv.nu for cv in critical_catalog(swapped)]
            assert got == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_catalog_csv_format(gravity):
    cat = critical_catalog(gravity)
    text = catalog_csv(cat)
    lines = text.strip().split("\n")
    assert lines[0] == "nu,family,axis,multiplicity,w1,w2,detail"
    assert len(lines) == 10
    nus = [float(line.split(",")[0]) for line in lines[1:]]
    assert nus == sorted(nus)
    # 12 significant digits of the Lagrange value survive
    assert "13.8360589474" in text


def test_critical_value_validation():
    with pytest.raises(ValueError):
        CriticalValue(1.0, "nonsense")
    with pytest.raises(ValueError):
        CriticalValue(-0.5, "lagrange")
    with pytest.raises(DomainError):
        CriticalValue(math.nan, "zero")


def test_infinite_critical_values_are_rejected():
    with pytest.raises(DomainError, match="rescale the system$"):
        CriticalValue(math.inf, "collinear")
    # 1/2 mu a^2 of the pair (1,2) overflows
    with pytest.raises(DomainError, match="rescale the system$"):
        nu_infinity(BodySystem((1, 1, 1), (1e300, 1, 1)))


@pytest.mark.parametrize("signs", _SIGNS)
@settings(max_examples=6, deadline=None, derandomize=True, phases=_NO_SHRINK)
@given(
    masses=st.tuples(*[st.floats(0.1, 5.0)] * 3),
    magnitudes=st.tuples(*[st.floats(0.05, 3.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_sqrtmk_v_derivatives_against_central_differences(signs, masses, magnitudes, seed):
    system = BodySystem(masses, tuple(s * m for s, m in zip(signs, magnitudes)))
    rng = np.random.default_rng(seed)
    radius = rng.uniform(0.05, 0.9, 8)
    angle = rng.uniform(0.0, 2.0 * math.pi, 8)
    W = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    # gradient rows against complex steps of f, Im f(w + i h e_j) / h, at
    # 1e-12; Hessian rows against central differences of the gradient
    for k in (1, 2, 3):

        def f(w1, w2):
            # sqrt(Mt_k) Vt on real or complex rows; sqrt in place of hypot
            # keeps it complex-analytic
            s = np.sqrt(w1 * w1 + w2 * w2)
            return np.sqrt(moments(s)[k - 1]) * shape_value(system, w1, w2)

        g1, g2, h11, h12, h22 = _sqrtmk_v_derivatives(
            system, k, W[:, 0], W[:, 1], np.hypot(W[:, 0], W[:, 1])
        )
        grad = np.stack([g1, g2], axis=1)
        hess = np.stack([np.stack([h11, h12], 1), np.stack([h12, h22], 1)], 1)
        cs_grad = np.stack([f(*(W + 1e-30j * e).T).imag / 1e-30 for e in np.eye(2)], axis=1)
        scale = np.fmax(1.0, np.fmax(np.abs(f(*W.T)), np.abs(grad).max(axis=1)))
        assert np.all(np.abs(grad - cs_grad) <= 1e-12 * scale[:, None])
        h = 1e-6
        for p, (w1, w2) in enumerate(W):
            shifted = np.array([[w1 + h, w2], [w1 - h, w2], [w1, w2 + h], [w1, w2 - h]])
            sg1, sg2 = _sqrtmk_v_derivatives(
                system, k, shifted[:, 0], shifted[:, 1], np.hypot(shifted[:, 0], shifted[:, 1])
            )[:2]
            fd_hess = np.array(
                [
                    [(sg1[0] - sg1[1]) / (2 * h), (sg1[2] - sg1[3]) / (2 * h)],
                    [(sg2[0] - sg2[1]) / (2 * h), (sg2[2] - sg2[3]) / (2 * h)],
                ]
            )
            hscale = max(1.0, *np.abs(hess[p]).ravel())
            assert np.allclose(hess[p], fd_hess, rtol=0.0, atol=1e-6 * hscale)


def test_collinear_leaves_out_non_physical_roots_with_non_finite_nu():
    # the (2, 1, 3) ordering has a non-physical root whose nu overflows
    system = BodySystem(
        (2.867084900991826e-240, 0.006441468325812521, 4.334290311711508e-106),
        (-1.5746385021905958e254, -2.3065447006623935e234, -6.263993283953582e235),
    )
    for cv in collinear_configs(system):
        assert math.isfinite(cv.nu) and math.isfinite(cv.residual)
        assert all(math.isfinite(v) for v in cv.w)
    assert [cv.family for cv in critical_catalog(system)] == ["zero"]


def test_catalog_rejects_overflowing_couplings():
    # the collinear coefficients overflow at 1e308; at 1e300 nu itself does
    with pytest.raises(DomainError):
        critical_catalog(BodySystem((1, 1, 1), (1e308, 1, 1)))
    with pytest.raises(TrihillError):
        critical_catalog(BodySystem((1, 1, 1), (1e300, 1, 1)))


def test_catalog_rejects_overflowing_masses_without_a_warning():
    # 2 m1 m3 overflows in the collinear moment of inertia; the suite turns a
    # numpy RuntimeWarning into an error, so one raised before the
    # DomainError fails this test
    with pytest.raises(DomainError):
        critical_catalog(BodySystem((1e308, 1, 1), (1, 1, 1)))


def test_lagrange_rejects_couplings_whose_gravity_constant_overflows():
    # G = 1e200/1e-300 is inf: the family is absent, no CollinearError
    system = BodySystem((1, 1e-300, 1), (1e200, 1, 1))
    with pytest.raises(UnsupportedFamilyError):
        nu_lagrange(system)


def test_lagrange_rejects_masses_whose_product_underflows():
    # m2 m3 = 1e-400 rounds to 0: no G solves a1 = G m2 m3
    with pytest.raises(UnsupportedFamilyError):
        nu_lagrange(BodySystem((1.0, 1e-200, 1e-200), (1.0, 1.0, 1.0)))


def test_lagrange_lets_a_programming_error_through(monkeypatch, gravity):
    # only the package's own errors mean that the family is unsupported
    def broken(system):
        raise RuntimeError("defect")

    monkeypatch.setattr(critical, "infer_gravity_constant", broken)
    with pytest.raises(RuntimeError, match="defect"):
        nu_lagrange(gravity)


def test_catalog_rejects_an_overflowing_lagrange_value():
    # gravitational with G = 1; pairsum**3 overflows a Python float
    with pytest.raises(DomainError, match="Lagrange"):
        critical_catalog(BodySystem((1e110, 1e110, 1e110), (1e220, 1e220, 1e220)))


def test_catalog_rejects_an_overflowing_companion_matrix_without_a_warning():
    # finite Euler coefficients whose ratio to the leading one overflows
    with pytest.raises(DomainError, match="rescale the system"):
        critical_catalog(BodySystem((1, 1e-300, 1), (1e200, -1, 1)))


@pytest.mark.parametrize(
    "masses, alphas",
    [
        ((5e-324,) * 3, (2.0, 1.0, -1.0)),
        ((5e-324, 1e-323, 5e-324), (1.0, -1.0, -1.0)),
    ],
)
def test_catalog_rejects_an_underflowing_moment_of_inertia(masses, alphas):
    # a pair's reduced mass of these subnormal masses rounds to 0
    with pytest.raises(DomainError, match="rescale the system"):
        critical_catalog(BodySystem(masses, alphas))


@pytest.mark.parametrize(
    "masses, alphas, pair",
    [
        ((1.82e-74, 1.73e155, 2.45e-293), (2.15e146, 6.13e92, -4.36e-243), (2, 3)),
        (
            (2.5730107699934234e-238, 2.0924637013015373e-103, 1.076614579235303e-283),
            (-3.7918859452794536e161, -1.8210018787013085e41, 3.076441917037686e158),
            (1, 2),
        ),
    ],
)
def test_catalog_of_masses_whose_products_underflow(masses, alphas, pair):
    # products of two masses underflow, but no reduced mass and no moment
    # of inertia does: the catalog is finite, and the attractive ``pair``
    # co-rotates with the reduced mass of its lighter body
    system = BodySystem(masses, alphas)
    catalog = critical_catalog(system)
    assert all(math.isfinite(cv.nu) for cv in catalog)
    assert all(math.isfinite(v) for cv in catalog if cv.w is not None for v in cv.w)
    i, j = pair
    (cv,) = [cv for cv in nu_infinity(system) if cv.detail == f"co-rotating pair ({i},{j})"]
    mu, alpha = min(masses[i - 1], masses[j - 1]), alphas[5 - i - j]
    assert cv.nu == pytest.approx(0.5 * mu * alpha * alpha, rel=1e-12)
