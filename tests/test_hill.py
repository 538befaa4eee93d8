import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trihill.coords import Shape
from trihill.critical import lagrange_shape, nu_diabolic, nu_lagrange
from trihill.errors import DomainError, TrihillError
from trihill.hill import (
    OrientationClass,
    bif_function,
    class_codes,
    f_analysis,
    membership,
    nu_thresholds,
    orientation_class,
    shape_eval,
    shape_kernel,
    shape_value,
    v_tilde,
)
from trihill.systems import BodySystem

from conftest import (
    oracle_lambda_grid_member,
    oracle_orientation_class,
)


def test_potential_examples(helium, eep, gravity):
    # eep at the equilateral shape: unit sides, since I = 1 there
    assert shape_eval(eep, lagrange_shape(eep)).v_tilde == pytest.approx(-1.0, abs=1e-15)
    # helium at the diabolic point, where the distances are
    # (1.0, 0.7071552808581452, 0.7071552808581452), equals -2 sqrt(nu_diabolic)
    v = shape_eval(helium, Shape(0.0, 0.0)).v_tilde
    assert v == pytest.approx(-4.656466278730084, rel=1e-12)
    assert v == pytest.approx(-2.0 * math.sqrt(nu_diabolic(helium).nu), rel=1e-12)
    sh = Shape(0.0, 0.0)
    assert shape_eval(gravity, sh).v_tilde == pytest.approx(
        -2.0 * math.sqrt(nu_diabolic(gravity).nu), rel=1e-12
    )


def test_potential_collision_is_signed_infinity(helium):
    # w = (-1, 0) is the (1,3) collision, coupled by a2
    assert float(shape_kernel(helium, -1.0, 0.0)[0]) == -math.inf  # attractive pair
    repulsive = BodySystem(helium.masses, (2.0, -2.0, -1.0))
    assert float(shape_kernel(repulsive, -1.0, 0.0)[0]) == math.inf


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("signs", list(itertools.product((1.0, -1.0), repeat=3)))
def test_value_kernel_is_the_full_kernels_value_bit_for_bit(signs):
    rng = np.random.default_rng(11)
    for _ in range(4):
        masses = tuple(rng.uniform(0.1, 5.0, 3))
        system = BodySystem(masses, tuple(s * m for s, m in zip(signs, rng.uniform(0.05, 3.0, 3))))
        c = (2.0 * np.arange(41) + 1.0) / 41 - 1.0
        W1, W2 = np.meshgrid(c, c, indexing="ij")
        # grids (the rim and beyond it included), rows, 0-d arrays, floats,
        # np.float64 and ints
        points = [(W1, W2), (W1[5], W2[5]), (c[3], c[30]), (np.float64(0.25), -0.5), (0.1, 0.2)]
        for w1, w2 in points + [(0, 0), (-1, 0), (0, 1)]:
            assert _same_bits(shape_value(system, w1, w2), shape_kernel(system, w1, w2)[0])
        # a point given as numbers is a float with its bits in the grid's value
        grid = shape_value(system, W1, W2)
        for i, j in [(0, 0), (3, 30), (20, 20), (40, 7), (17, 40)]:
            for cast in (float, np.float64):
                v = shape_value(system, cast(W1[i, j]), cast(W2[i, j]))
                assert isinstance(v, float) and _same_bits(v, grid[i, j])
        v = shape_value(system, 0, 0)  # the grid's point (c[20], c[20]) is (0.0, 0.0)
        assert isinstance(v, float) and _same_bits(v, grid[20, 20])
        # the (1,3) collision at w = (-1, 0) (a signed infinity) and the
        # rounded collision rays of all three pairs, alone and in one array
        points = [(-1.0, 0.0)] + [(p.cos, p.sin) for p in system.pairs]
        for w1, w2 in points + [tuple(np.array(points).T)]:
            assert _same_bits(shape_value(system, w1, w2), shape_kernel(system, w1, w2)[0])
        assert v_tilde(system, -1.0, 0.0) == -math.copysign(math.inf, system.pairs[1].alpha)


def test_shape_eval_diabolic(eep):
    ev = shape_eval(eep, Shape(0.0, 0.0))
    assert ev.m_tilde == pytest.approx((0.5, 0.5, 1.0), abs=0)
    assert ev.v_tilde == pytest.approx(-1.0, rel=1e-14)  # = -2 sqrt(1/4)


def test_shape_eval_matches_dragt_moments(gravity):
    rng = np.random.default_rng(61)
    for _ in range(100):
        chi = rng.uniform(0.05, math.pi / 2 - 0.01)
        psi = rng.uniform(0, 2 * math.pi)
        w1 = math.cos(chi) * math.cos(psi)
        w2 = math.cos(chi) * math.sin(psi)
        ev = shape_eval(gravity, Shape(w1, w2))
        assert ev.m_tilde[0] == pytest.approx(math.sin(chi / 2) ** 2, rel=1e-10)
        assert ev.m_tilde[1] == pytest.approx(math.cos(chi / 2) ** 2, rel=1e-10)
        assert ev.m_tilde[2] == 1.0
        assert ev.m_tilde[0] + ev.m_tilde[1] == pytest.approx(1.0, abs=1e-12)


def test_f_analysis_cases():
    m = f_analysis(1.0, 1.0, 1.0)
    assert m.member and m.region_case == "I"
    assert m.lambda_minus == pytest.approx((1 - math.sqrt(5)) / 2, rel=1e-14)
    assert m.lambda_plus == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-14)

    m = f_analysis(-1.0, 1.0, 1.0)
    assert not m.member and m.region_case in ("IIa", "IIb")

    m = f_analysis(-1.0, 1.0, -4.0)
    assert m.member and m.region_case == "IIIa"
    assert m.discriminant == pytest.approx(12.0)
    assert m.lambda_minus == pytest.approx(2 - math.sqrt(3), rel=1e-14)
    assert m.lambda_plus == pytest.approx(2 + math.sqrt(3), rel=1e-14)

    m = f_analysis(-1.0, 1.0, -2.0)  # tangent case, double root
    assert m.member and m.discriminant == pytest.approx(0.0, abs=1e-15)
    assert m.lambda_minus == pytest.approx(1.0)

    m = f_analysis(-1.0, 1.0, -1.0)  # Delta = -3: complex roots
    assert not m.member and m.region_case == "IIIb" and m.lambda_minus is None

    m = f_analysis(1.0, 1.0, -1.0)
    assert m.member and m.region_case == "IV"

    # axes of the (E, Vt) plane
    assert f_analysis(0.0, 1.0, -1.0).member
    assert not f_analysis(0.0, 1.0, 1.0).member
    assert not f_analysis(0.0, 1.0, 0.0).member
    assert not f_analysis(-1.0, 1.0, 0.0).member
    assert f_analysis(1.0, 1.0, 0.0).member

    with pytest.raises(ValueError):
        f_analysis(1.0, 0.0, 1.0)


def test_f_analysis_region_root_consistency():
    rng = np.random.default_rng(67)
    for _ in range(2000):
        E = float(rng.uniform(-3, 3))
        er = float(rng.uniform(0.01, 3))
        vt = float(rng.uniform(-5, 5))
        m = f_analysis(E, er, vt)
        if m.region_case in ("I", "IIa", "IIIa", "IV"):
            assert m.discriminant >= 0
        if m.region_case in ("IIb", "IIIb"):
            assert m.discriminant < 0
        if m.lambda_minus is not None and E != 0.0:
            scale = max(1.0, abs(E), abs(vt), er)
            for lam in (m.lambda_minus, m.lambda_plus):
                assert abs(lam * lam * E - er - lam * vt) < 1e-10 * scale


def test_membership_examples(helium):
    rng = np.random.default_rng(71)
    # positive energy: always a member, any orientation
    for _ in range(20):
        w1, w2 = rng.uniform(-0.6, 0.6, 2)
        jh = rng.normal(0, 1, 3)
        jh /= np.linalg.norm(jh)
        assert membership(helium, 0.1, 1.0, Shape(w1, w2), jh).member
    # near the electron-electron collision the shape potential is positive
    sh = Shape(0.0, 0.98)
    assert shape_eval(helium, sh).v_tilde > 0
    assert not membership(helium, -1.0, 1.0, sh, np.array([0, 0, 1.0])).member
    with pytest.raises(ValueError):
        membership(helium, -1.0, 0.0, sh, np.array([0, 0, 1.0]))
    with pytest.raises(ValueError):
        membership(helium, -1.0, 1.0, sh, np.array([0, 0, 0.9]))


def test_membership_against_lambda_grid_oracle(all_systems):
    rng = np.random.default_rng(73)
    for system in all_systems.values():
        checked = 0
        while checked < 100:
            w1, w2 = rng.uniform(-0.97, 0.97, 2)
            if math.hypot(w1, w2) >= 0.97:
                continue
            sh = Shape(w1, w2)
            jh = rng.normal(0, 1, 3)
            jh /= np.linalg.norm(jh)
            E = float(rng.uniform(-3.0, 1.0))
            r = float(rng.uniform(0.2, 2.0))
            ev = shape_eval(system, sh)
            er = r * r * 0.5 * (
                jh[0] ** 2 / ev.m_tilde[0] + jh[1] ** 2 / ev.m_tilde[1] + jh[2] ** 2
            )
            # skip near-tangent cases the finite lambda grid cannot resolve
            if abs(4 * E * er + ev.v_tilde**2) < 1e-3 * (abs(4 * E * er) + ev.v_tilde**2):
                continue
            j = sh.to_jacobi()
            want = oracle_lambda_grid_member(system, j.rho1, j.rho2, j.phi, jh, E, r)
            got = membership(system, E, r, sh, jh).member
            assert got == want
            checked += 1


def test_class_codes_tie_semantics():
    # Dyadic inputs, so that every tie is exact: at Vt = -2 the level
    # Vt^2/(4 nu) is 1/nu, which lands on the thresholds 0.5/m = 2, 1, 0.5
    # at nu = 0.5, 1, 2; ties count, and one ulp more nu falls below them
    m_tilde = (0.25, 0.5, 1.0)
    O = OrientationClass
    cases = [(0.5, -2.0, O.FULL), (1.0, -2.0, O.RING), (2.0, -2.0, O.CAPS), (0.0, -2.0, O.FULL)]
    cases += [(math.nextafter(nu, math.inf), v, want - 1) for nu, v, want in cases if nu > 0.0]
    # nu < 0 (E > 0) is full at any Vt; at nu >= 0 a Vt >= 0 or NaN is empty,
    # and a Vt whose square overflows reaches every threshold
    cases += [(-1.0, v, O.FULL) for v in (-2.0, 0.0, 3.0, math.nan)]
    cases += [(nu, v, O.EMPTY) for nu in (0.0, 0.5, 2.0) for v in (0.0, -0.0, 2.0, math.nan)]
    cases += [(0.5, -1e200, O.FULL), (0.0, -math.inf, O.FULL), (2.0, math.inf, O.EMPTY)]
    for nu, v, want in cases:
        code = class_codes(nu, v, m_tilde)
        assert code == want and np.asarray(code).dtype == np.int8, (nu, v)
    # each case's Vt in one array call per nu, moments given as floats or as
    # arrays: the elements are the scalar codes
    vs = np.array([v for _, v, _ in cases])
    for nu in sorted({nu for nu, _, _ in cases}):
        want = [class_codes(nu, v, m_tilde) for v in vs.tolist()]
        for m in (m_tilde, tuple(np.full(vs.shape, mk) for mk in m_tilde)):
            got = class_codes(nu, vs, m)
            assert got.dtype == np.int8 and got.tolist() == want, nu


def test_orientation_class_examples(helium):
    sh = Shape(0.0, 0.0)
    assert orientation_class(helium, 5.0, sh) is OrientationClass.FULL
    assert orientation_class(helium, 6.0, sh) is OrientationClass.CAPS
    assert orientation_class(helium, -1.0, sh) is OrientationClass.FULL
    # at the diabolic shape the ring interval is empty: caps jump to full
    nu_caps, nu_ring, nu_full = nu_thresholds(helium, sh)
    assert nu_ring == pytest.approx(nu_full, rel=1e-15)
    assert orientation_class(helium, 0.5 * (nu_full + nu_caps), sh) is OrientationClass.CAPS


def test_orientation_class_nu_zero(helium, gravity):
    assert orientation_class(helium, 0.0, Shape(0.0, 0.98)) is OrientationClass.EMPTY
    assert orientation_class(helium, 0.0, Shape(0.0, 0.0)) is OrientationClass.FULL
    assert orientation_class(gravity, 0.0, Shape(0.5, 0.5)) is OrientationClass.FULL


def test_orientation_class_monotone_in_nu(all_systems):
    rng = np.random.default_rng(79)
    for system in all_systems.values():
        for _ in range(50):
            w1, w2 = rng.uniform(-0.9, 0.9, 2)
            if math.hypot(w1, w2) >= 0.95:
                continue
            sh = Shape(w1, w2)
            nus = np.sort(rng.uniform(-1.0, 30.0, 12))[::-1]
            classes = [int(orientation_class(system, float(nu), sh)) for nu in nus]
            assert classes == sorted(classes)


def test_orientation_class_against_sphere_oracle(all_systems):
    rng = np.random.default_rng(83)
    for system in all_systems.values():
        checked = 0
        while checked < 60:
            w1, w2 = rng.uniform(-0.95, 0.95, 2)
            if math.hypot(w1, w2) >= 0.95:
                continue
            sh = Shape(w1, w2)
            ev = shape_eval(system, sh)
            nu = float(rng.uniform(-0.5, 1.5)) * max(1.0, ev.v_tilde**2)
            # stay away from thresholds by more than the 2-degree grid resolves
            if ev.v_tilde < 0 and any(
                abs(nu - t) < 5e-3 * max(1.0, t) for t in nu_thresholds(system, sh)
            ):
                continue
            if abs(nu) < 1e-6:
                continue
            j = sh.to_jacobi()
            want = oracle_orientation_class(system, nu, j.rho1, j.rho2, j.phi)
            assert int(orientation_class(system, nu, sh)) == want
            checked += 1


def test_membership_monotone_in_nu(all_systems):
    # member at nu implies member at any smaller nu (fixed shape and direction)
    rng = np.random.default_rng(89)
    for system in all_systems.values():
        for _ in range(40):
            w1, w2 = rng.uniform(-0.9, 0.9, 2)
            if math.hypot(w1, w2) >= 0.95:
                continue
            sh = Shape(w1, w2)
            jh = rng.normal(0, 1, 3)
            jh /= np.linalg.norm(jh)
            r = 1.0
            nus = np.sort(rng.uniform(0.01, 20.0, 8))
            members = [
                membership(system, -float(nu), r, sh, jh).member for nu in nus
            ]
            # once lost (going up in nu) membership never comes back
            assert members == sorted(members, reverse=True)


@pytest.mark.parametrize("signs", list(itertools.product((1.0, -1.0), repeat=3)))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    masses=st.tuples(*[st.floats(0.1, 5.0)] * 3),
    magnitudes=st.tuples(*[st.floats(0.05, 3.0)] * 3),
    polar=st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 2.0 * math.pi)),
    j=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1),
    # an E near the float minimum would underflow to 0 in E/c^2
    E=st.floats(-3.0, 1.0).filter(lambda e: e == 0.0 or abs(e) > 1e-200),
    r=st.floats(0.2, 2.0),
    c=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
)
def test_membership_dilation_invariance(signs, masses, magnitudes, polar, j, E, r, c):
    # E and r enter only through nu = -E r^2: (E/c^2, c r) is the same point
    system = BodySystem(masses, tuple(s * m for s, m in zip(signs, magnitudes)))
    sh = Shape(polar[0] * math.cos(polar[1]), polar[0] * math.sin(polar[1]))
    jh = np.array(j) / np.linalg.norm(j)
    want = membership(system, E, r, sh, jh)
    # rounding in E r^2 may move a tangent case across disc = 0
    assume(abs(want.discriminant) > 1e-9 * (4.0 * abs(E) * r * r + 1.0))
    got = membership(system, E / (c * c), c * r, sh, jh)
    assert (got.member, got.region_case) == (want.member, want.region_case)


def test_bif_function(gravity, helium):
    lag = nu_lagrange(gravity)
    sh = lag.shape()
    val = bif_function(gravity, sh, np.array([0.0, 0.0, 1.0]))
    assert val == pytest.approx(-math.sqrt(13.83605894), rel=1e-9)
    # any in-plane direction at the diabolic shape gives Vt/2 = -sqrt(nu_diabolic)
    sh0 = Shape(0.0, 0.0)
    ev = shape_eval(helium, sh0)
    u = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    assert bif_function(helium, sh0, u) == pytest.approx(ev.v_tilde / 2.0, rel=1e-14)
    assert bif_function(helium, sh0, u) == pytest.approx(
        -math.sqrt(nu_diabolic(helium).nu), rel=1e-12
    )
    # invariance under J -> -J
    rng = np.random.default_rng(97)
    for _ in range(20):
        jh = rng.normal(0, 1, 3)
        jh /= np.linalg.norm(jh)
        assert bif_function(helium, sh0, jh) == pytest.approx(
            bif_function(helium, sh0, -jh), rel=1e-14
        )


def test_membership_equivalent_inequality(gravity):
    # for E, Vt < 0: member iff bif_function <= -sqrt(nu)
    rng = np.random.default_rng(101)
    for _ in range(200):
        w1, w2 = rng.uniform(-0.9, 0.9, 2)
        if math.hypot(w1, w2) >= 0.95:
            continue
        sh = Shape(w1, w2)
        jh = rng.normal(0, 1, 3)
        jh /= np.linalg.norm(jh)
        E = float(rng.uniform(-4, -0.1))
        r = float(rng.uniform(0.2, 2.0))
        got = membership(gravity, E, r, sh, jh).member
        want = bif_function(gravity, sh, jh) <= -math.sqrt(-E * r * r)
        assert got == want


@pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
def test_orientation_class_rejects_non_finite_nu(helium, nu):
    with pytest.raises(TrihillError) as info:
        orientation_class(helium, nu, Shape(0.1, 0.2))
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "E, r",
    [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (-1.0, math.inf), (-1.0, math.nan),
        (-1.0, 0.0), (-1.0, -1.0),
    ],
)
def test_membership_rejects_non_finite_energy_and_r(helium, E, r):
    with pytest.raises(DomainError):
        membership(helium, E, r, Shape(0.1, 0.2), np.array([0.0, 0.0, 1.0]))


@pytest.mark.parametrize(
    "j_hat",
    [
        (math.nan, 0.0, 1.0), (0.0, 0.0, 0.0), (math.inf, 0.0, 0.0), (0.0, 0.6, 0.6),
        (0.6, 0.8), (0.5, 0.5, 0.5, 0.5),
    ],
)
def test_membership_and_bif_function_reject_a_non_unit_j_hat(eep, j_hat):
    sh = Shape(0.1, 0.2)
    with pytest.raises(DomainError):
        membership(eep, -0.1, 1.0, sh, np.array(j_hat))
    with pytest.raises(DomainError):
        bif_function(eep, sh, np.array(j_hat))


def test_membership_is_plain_float_arithmetic(helium):
    # E * E_R overflows to inf in the discriminant: a Python float does so
    # silently where a numpy scalar warned, and the answer is IIIb either way.
    m = membership(helium, -4e307, 1.0, Shape(0.1, 0.2), [1.0, 0.0, 0.0])
    assert (m.member, m.region_case, m.discriminant) == (False, "IIIb", -math.inf)
    m = membership(helium, -1.0, 1.0, Shape(0.1, 0.2), np.array([0.0, 0.6, 0.8]))
    assert type(m.discriminant) is float
