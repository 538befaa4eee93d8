import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

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
from trihill.hill import shape_eval, v_tilde
from trihill.systems import BodySystem, gravitational


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
    # invariants of the configuration
    m1, _, m3 = helium.masses
    assert geom.b == pytest.approx(geom.a * math.sin(geom.theta), rel=1e-15)
    assert m3 * geom.c == pytest.approx(2 * m1 * geom.d, rel=1e-12)
    assert (geom.c + geom.d) / geom.a == pytest.approx(math.cos(geom.theta), rel=1e-14)


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
    sh = langmuir_shape(helium)
    assert abs(sh.w1) < 1e-3
    assert sh.w2 == pytest.approx(0.5, abs=1e-3)


def test_collinear_gravity(gravity):
    vals = [cv for cv in collinear_configs(gravity) if cv.physical]
    assert len(vals) == 3
    assert [cv.nu for cv in vals] == pytest.approx(
        [18.56904438, 19.12865697, 19.44296212], rel=1e-6
    )


def test_collinear_symmetric_closed_form(helium, eep):
    # middle body 3 with m1 = m2 and a1 = a2: nu = m1 (4 a1 + a3)^2 / 4
    for system, want in ((helium, 49.0 / 4.0), (eep, 9.0 / 4.0)):
        vals = [cv for cv in collinear_configs(system) if cv.physical]
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
            (abs(cv.nu - closed) for cv in collinear_configs(system) if cv.physical),
            default=math.inf,
        )
        assert best < 1e-9 * max(1.0, closed)


def test_collinear_euler_angles(gravity):
    # boundary polar angles of the three Euler configurations
    angles = sorted(
        math.degrees(math.atan2(cv.w[1], cv.w[0]))
        for cv in collinear_configs(gravity)
        if cv.physical
    )
    assert angles == pytest.approx([-121.3, -18.9, 117.3], abs=0.2)


def test_collinear_drops_zero_potential_artifacts(helium, eep):
    # orderings with an electron in the middle only give the V = 0 minimum,
    # which is not a relative equilibrium and must be flagged out
    for system in (helium, eep):
        flagged = [cv for cv in collinear_configs(system) if not cv.physical]
        for cv in flagged:
            assert cv.nu == pytest.approx(0.0, abs=1e-12)


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
            if cv.physical and abs(cv.nu - 4.0 / 3.0) < 1e-6
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
        got = sorted(cv.nu for cv in collinear_configs(system) if cv.physical)
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
            assert cv.physical
            assert "order=(1, 2, 3)" in cv.detail
            assert cv.nu == pytest.approx(want, rel=1e-12)


_SIGNS = list(itertools.product((1.0, -1.0), repeat=3))


@pytest.mark.parametrize("signs", _SIGNS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    masses=st.tuples(*[st.floats(0.1, 5.0)] * 3),
    magnitudes=st.tuples(*[st.floats(0.05, 3.0)] * 3),
)
def test_collinear_property(signs, masses, magnitudes):
    system = BodySystem(masses, tuple(s * m for s, m in zip(signs, magnitudes)))
    entries = collinear_configs(system)
    assert all(type(cv.nu) is float and type(cv.physical) is bool for cv in entries)
    got = [cv.nu for cv in entries if cv.physical]
    assert got == pytest.approx(oracle_collinear_physical_nus(system), rel=1e-9)
    base = [cv.nu for cv in entries]
    for perm in itertools.permutations((1, 2, 3)):
        swapped = [cv.nu for cv in collinear_configs(system.permuted(perm))]
        assert swapped == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_find_critical_shapes_lagrange(gravity):
    hits = find_critical_shapes(gravity, 3)
    assert len(hits) == 1
    shape, nu = hits[0]
    cv = nu_lagrange(gravity)
    assert nu == pytest.approx(cv.nu, rel=1e-6)
    assert shape.w1 == pytest.approx(cv.w[0], abs=1e-6)
    assert shape.w2 == pytest.approx(cv.w[1], abs=1e-6)


def test_find_critical_shapes_langmuir(helium, eep):
    for system in (helium, eep):
        cv = nu_langmuir(system)
        hits = find_critical_shapes(system, cv.axis)
        assert len(hits) >= 1
        best = min(hits, key=lambda item: abs(item[1] - cv.nu))
        assert best[1] == pytest.approx(cv.nu, rel=1e-6)


def test_find_critical_shapes_absent_families(gravity, eep):
    # no Langmuir-type equilibrium for purely attractive couplings
    assert find_critical_shapes(gravity, 1) == []
    # no Lagrange-type (axis 3) equilibrium with mixed-sign couplings
    assert find_critical_shapes(eep, 3) == []


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


@pytest.mark.parametrize("signs", _SIGNS)
@settings(max_examples=6, deadline=None, derandomize=True)
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
    for k in (1, 2, 3):

        def f(w1, w2):
            s = math.hypot(w1, w2)
            mk = {1: 0.5 * (1.0 - s), 2: 0.5 * (1.0 + s), 3: 1.0}[k]
            return math.sqrt(mk) * v_tilde(system, w1, w2)

        (g1, g2), (h11, h12, h22) = _sqrtmk_v_derivatives(system, k, W)
        grad = np.stack([g1, g2], axis=1)
        hess = np.stack([np.stack([h11, h12], 1), np.stack([h12, h22], 1)], 1)
        h = 1e-6
        for p, (w1, w2) in enumerate(W):
            fd_grad = [
                (f(w1 + h, w2) - f(w1 - h, w2)) / (2 * h),
                (f(w1, w2 + h) - f(w1, w2 - h)) / (2 * h),
            ]
            scale = max(1.0, abs(f(w1, w2)), *np.abs(grad[p]))
            assert np.allclose(grad[p], fd_grad, rtol=0.0, atol=1e-6 * scale)
            shifted = np.array([[w1 + h, w2], [w1 - h, w2], [w1, w2 + h], [w1, w2 - h]])
            (sg1, sg2), _ = _sqrtmk_v_derivatives(system, k, shifted)
            fd_hess = np.array(
                [
                    [(sg1[0] - sg1[1]) / (2 * h), (sg1[2] - sg1[3]) / (2 * h)],
                    [(sg2[0] - sg2[1]) / (2 * h), (sg2[2] - sg2[3]) / (2 * h)],
                ]
            )
            hscale = max(1.0, *np.abs(hess[p]).ravel())
            assert np.allclose(hess[p], fd_hess, rtol=0.0, atol=1e-6 * hscale)


def test_catalog_rejects_overflowing_couplings():
    # the collinear coefficients overflow at 1e308; at 1e300 nu itself does
    with pytest.raises(DomainError):
        critical_catalog(BodySystem((1, 1, 1), (1e308, 1, 1)))
    with pytest.raises(TrihillError):
        critical_catalog(BodySystem((1, 1, 1), (1e300, 1, 1)))
