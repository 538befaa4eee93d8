import math

import numpy as np
import pytest

from trihill.coords import (
    DragtCoords,
    JacobiShapeCoords,
    Shape,
    WCoords,
    collision_angles,
    dilate,
    distances_from_dragt,
    distances_from_jacobi,
    dragt_from_w,
    jacobi_from_positions,
    jacobi_from_w,
    normalize_shape,
    positions_from_jacobi,
    w_from_dragt,
    w_from_jacobi,
    xxy_section,
)
from trihill.critical import nu_lagrange
from trihill.errors import CollinearError, DomainError, TripleCollisionError
from trihill.hill import f_analysis
from trihill.systems import jacobi_frame, BodySystem, preset
from trihill.verify import build_relequil_state

from conftest import oracle_distances, oracle_positions


def test_jacobi_frame_equal_masses():
    fr = jacobi_frame(BodySystem((1, 1, 1), (1, 1, 1)))
    assert fr.mu1 == pytest.approx(0.5, abs=0)
    assert fr.mu2 == pytest.approx(2.0 / 3.0, abs=1e-16)


def test_jacobi_frame_helium(helium):
    fr = jacobi_frame(helium)
    assert fr.mu1 == pytest.approx(7289.56 / 7290.56, rel=1e-15)
    # cross-check against the printed critical value at infinity: 2 mu1 = nu_inf
    assert 0.5 * fr.mu1 * 2.0**2 == pytest.approx(1.999725672, rel=1e-9)


def test_jacobi_frame_gravity(gravity):
    fr = jacobi_frame(gravity)
    assert fr.mu1 == pytest.approx(1.6 / 2.6, rel=1e-15)
    assert 0.5 * fr.mu1 * 1.6**2 == pytest.approx(0.7876923077, rel=1e-9)


def test_w_from_jacobi_examples():
    w = w_from_jacobi(JacobiShapeCoords(1, 1, math.pi / 2))
    assert w.w1 == 0 and w.w2 == pytest.approx(0, abs=1e-15)
    assert w.w3 == pytest.approx(2, abs=1e-15)
    w = w_from_jacobi(JacobiShapeCoords(1, 0, 0.7))
    assert (w.w1, w.w2, w.w3) == (1, 0, 0)
    w = w_from_jacobi(JacobiShapeCoords(1, 1, 0))
    assert (w.w1, w.w2, w.w3) == (0, 2, 0)


def test_jacobi_from_w_examples():
    j = jacobi_from_w(WCoords(0, 0, 2))
    assert (j.rho1, j.rho2) == (1, 1)
    assert j.phi == pytest.approx(math.pi / 2, abs=1e-15)
    assert not j.degenerate
    j = jacobi_from_w(WCoords(1, 0, 0))
    assert (j.rho1, j.rho2, j.phi) == (1, 0, 0)
    assert j.degenerate
    # the largest sizes whose squares are floats still convert
    assert jacobi_from_w(WCoords(1e154, 0, 0)).rho1 == pytest.approx(1e77, rel=1e-15)


def test_dragt_examples():
    d = dragt_from_w(WCoords(0, 0, 2))
    assert d.omega == pytest.approx(2) and d.chi == pytest.approx(math.pi / 2)
    assert d.psi == 0 and d.degenerate
    d = dragt_from_w(WCoords(1, 0, 0))
    assert (d.omega, d.chi, d.psi) == (1, 0, 0) and not d.degenerate
    # collision direction of the (1,3) pair: negative w1 axis maps to psi = pi
    d = dragt_from_w(WCoords(-1, 0, 0))
    assert (d.omega, d.chi) == (1, 0) and d.psi == pytest.approx(math.pi)
    # and the negative w2 axis to 3 pi/2 (psi is taken in [0, 2 pi))
    d = dragt_from_w(WCoords(0, -1, 0))
    assert d.psi == pytest.approx(1.5 * math.pi)


def test_roundtrips_random():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5000):
        j = JacobiShapeCoords(
            rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0), rng.uniform(1e-3, math.pi - 1e-3)
        )
        w = w_from_jacobi(j)
        assert w.norm == pytest.approx(j.rho1**2 + j.rho2**2, rel=1e-12)
        j2 = jacobi_from_w(w)
        d = dragt_from_w(w)
        w2 = w_from_dragt(d)
        scale = max(1.0, w.norm)
        worst = max(
            worst,
            abs(j2.rho1 - j.rho1),
            abs(j2.rho2 - j.rho2),
            abs(j2.phi - j.phi),
            abs(w2.w1 - w.w1) / scale,
            abs(w2.w2 - w.w2) / scale,
            abs(w2.w3 - w.w3) / scale,
        )
    assert worst < 1e-10


def test_distances_match_position_oracle(all_systems):
    rng = np.random.default_rng(11)
    systems = list(all_systems.values())
    for _ in range(20):
        masses = tuple(10.0 ** rng.uniform(-3.0, 3.0, 3))
        systems.append(BodySystem(masses, tuple(rng.uniform(-2.0, 2.0, 3))))
    for system in systems:
        for _ in range(300):
            rho1, rho2 = rng.uniform(0.1, 3.0, 2)
            phi = rng.uniform(0.01, math.pi - 0.01)
            got = distances_from_jacobi(system, JacobiShapeCoords(rho1, rho2, phi))
            want = oracle_distances(oracle_positions(system, rho1, rho2, phi))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_distances_helium_diabolic(helium):
    # perpendicular equal-length Jacobi vectors at I = 1
    diabolic = DragtCoords(1.0, math.pi / 2, 0.0, degenerate=True)
    r12, r13, r23 = distances_from_dragt(helium, diabolic)
    assert r12 == pytest.approx(1.0, rel=1e-12)
    # frozen from sqrt((m1+m3)/(m1*m3))/sqrt(2)
    assert r13 == pytest.approx(0.7071552808581452, rel=1e-12)
    assert r23 == pytest.approx(0.7071552808581452, rel=1e-12)


def test_distances_equal_masses_diabolic(eep):
    r12, r13, r23 = distances_from_dragt(eep, DragtCoords(1.0, math.pi / 2, 0.0, degenerate=True))
    assert r12 == pytest.approx(r13, rel=1e-14)
    assert r13 == pytest.approx(r23, rel=1e-14)


def test_collision_loci_have_zero_distance(all_systems):
    # The affine rule's r^2 carries rounding: on a collision ray it lies
    # within 2 eps/(2 mu) of 0, so r, its root, need not be below 1e-10.
    eps = np.finfo(float).eps
    for system in all_systems.values():
        for k, pair in enumerate(system.pairs):
            r = distances_from_dragt(system, DragtCoords(1.0, 0.0, pair.psi % (2 * math.pi)))[k]
            assert r * r * 2.0 * pair.mu <= 2.0 * eps


def test_collision_angles_printed_values(helium, eep, gravity):
    psi12, psi23, psi13 = (math.degrees(a) for a in collision_angles(helium))
    assert psi12 == pytest.approx(89.99214109, abs=1e-6)
    assert psi23 == pytest.approx(-0.01571780034, abs=1e-6)
    assert psi13 == 180.0
    psi12, psi23, _ = (math.degrees(a) for a in collision_angles(eep))
    assert psi12 == pytest.approx(60.0, abs=1e-12)
    assert psi23 == pytest.approx(-60.0, abs=1e-12)
    psi12, psi23, _ = (math.degrees(a) for a in collision_angles(gravity))
    assert psi12 == pytest.approx(48.0, abs=0.5)
    assert psi23 == pytest.approx(-71.0, abs=0.5)


def test_triangle_inequality(all_systems):
    rng = np.random.default_rng(3)
    for system in all_systems.values():
        for _ in range(200):
            j = JacobiShapeCoords(
                rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0), rng.uniform(0, math.pi)
            )
            r12, r13, r23 = distances_from_jacobi(system, j)
            tol = 1e-10 * max(r12, r13, r23)
            assert r12 + r13 >= r23 - tol
            assert r12 + r23 >= r13 - tol
            assert r13 + r23 >= r12 - tol


def test_normalize_shape_examples():
    shape, lam = normalize_shape(JacobiShapeCoords(1, 1, math.pi / 2))
    assert shape.w1 == 0 and shape.w2 == pytest.approx(0, abs=1e-15)
    assert lam == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    with pytest.raises(CollinearError):
        normalize_shape(JacobiShapeCoords(2, 0, 0.3))
    with pytest.raises(TripleCollisionError):
        normalize_shape(JacobiShapeCoords(0, 0, 0.3))


def test_normalize_shape_dilation_invariant():
    rng = np.random.default_rng(19)
    for _ in range(500):
        j = JacobiShapeCoords(
            rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0), rng.uniform(0.05, math.pi - 0.05)
        )
        shape, _ = normalize_shape(j)
        lam = float(rng.uniform(1e-3, 1e3))
        shape2, factor = normalize_shape(dilate(j, lam))
        assert shape2.w1 == pytest.approx(shape.w1, abs=1e-12)
        assert shape2.w2 == pytest.approx(shape.w2, abs=1e-12)
        # lam^2 = 1/I holds for the returned factor
        omega = (lam * j.rho1) ** 2 + (lam * j.rho2) ** 2
        assert factor**2 == pytest.approx(1.0 / omega, rel=1e-12)


def test_xxy_section_examples():
    r1, r2 = xxy_section(JacobiShapeCoords(1, 1, math.pi / 2))
    assert np.allclose(r1, [1, 0, 0]) and np.allclose(r2, [0, 1, 0], atol=1e-16)
    r1, r2 = xxy_section(JacobiShapeCoords(1, 2, 0))
    assert np.allclose(r1, [1, 0, 0]) and np.allclose(r2, [2, 0, 0])
    r1, r2 = xxy_section(JacobiShapeCoords(2, 1, math.pi))
    assert np.allclose(r1, [2, 0, 0]) and np.allclose(r2, [-1, 0, 0], atol=1e-15)


def test_positions_roundtrip(all_systems):
    rng = np.random.default_rng(23)
    for system in all_systems.values():
        for _ in range(100):
            j = JacobiShapeCoords(
                rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0), rng.uniform(0.05, math.pi - 0.05)
            )
            pos = positions_from_jacobi(system, j)
            j2 = jacobi_from_positions(system, pos)
            assert j2.rho1 == pytest.approx(j.rho1, rel=1e-12)
            assert j2.rho2 == pytest.approx(j.rho2, rel=1e-12)
            assert j2.phi == pytest.approx(j.phi, rel=1e-10, abs=1e-12)
            # centre of mass sits at the origin
            com = np.asarray(system.masses) @ pos
            assert np.max(np.abs(com)) < 1e-12 * max(1.0, j.rho1, j.rho2)


def test_positions_from_jacobi_is_the_oracle_bit_for_bit(all_systems):
    # the positions on floats against conftest's construction on arrays,
    # signed zeros included: random charts, the charts of disk shapes, and
    # the collinear and degenerate ends (phi = 0 or pi, a rho of 0)
    rng = np.random.default_rng(1650)
    systems = list(all_systems.values())
    for _ in range(20):
        masses, alphas = rng.uniform(0.1, 5.0, 3), rng.uniform(-3.0, 3.0, 3)
        systems.append(BodySystem(tuple(masses.tolist()), tuple(alphas.tolist())))
    ends = [(a, b, phi) for a, b in ((1.0, 0.0), (0.0, 1.0), (0.5, 2.0)) for phi in (0.0, 1.5, math.pi)]
    for system in systems:
        charts = [JacobiShapeCoords(*rng.uniform(0.0, 3.0, 2), rng.uniform(0.0, math.pi)) for _ in range(40)]
        charts += [Shape(*rng.uniform(-0.7, 0.7, 2)).to_jacobi() for _ in range(20)]
        for j in charts + [JacobiShapeCoords(*end) for end in ends]:
            got = positions_from_jacobi(system, j)
            want = oracle_positions(system, j.rho1, j.rho2, j.phi)
            assert got.dtype == want.dtype and got.shape == want.shape == (3, 3)
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes(), (system, j)


def test_jacobi_from_positions_at_tiny_masses():
    # the Langmuir shape is built from positions at leg length 1, where the
    # cross product of the Jacobi vectors of masses 1e-200 underflows
    from trihill.critical import nu_langmuir

    alphas = (1.0, -1.0, 1.0)
    w = nu_langmuir(BodySystem((1e-200,) * 3, alphas)).w
    w_ref = nu_langmuir(BodySystem((1.0,) * 3, alphas)).w
    assert w_ref[0] == pytest.approx(0.32748, abs=1e-5) and abs(w_ref[1]) < 1e-15
    assert w == pytest.approx(w_ref, abs=1e-12)


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (3, 4), (4, 3), (9,)])
def test_jacobi_from_positions_rejects_positions_that_are_not_3_by_3(helium, shape):
    positions = np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape)
    with pytest.raises(DomainError):
        jacobi_from_positions(helium, positions)


def test_shape_validation():
    with pytest.raises(CollinearError):
        Shape(0.8, 0.7)
    for w in [(1e200, 0.0), (0.0, -1e200)]:  # w**2 would overflow
        with pytest.raises(CollinearError):
            Shape(*w)
    s = Shape(0.3, -0.4)
    assert s.w3 == pytest.approx(math.sqrt(1 - 0.25), rel=1e-15)


@pytest.mark.parametrize("w", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.1, -math.inf)])
def test_shape_rejects_non_finite(w):
    with pytest.raises(DomainError):
        Shape(*w)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_dilate_rejects_a_non_finite_or_nonpositive_factor(lam):
    with pytest.raises(DomainError):
        dilate(JacobiShapeCoords(1.0, 0.5, 1.0), lam)


_OUT_OF_DOMAIN = {
    "negative mass": lambda: BodySystem((1.0, -1.0, 1.0), (1.0, 1.0, 1.0)),
    "negative r": lambda: build_relequil_state(
        preset("gravity-demo"), nu_lagrange(preset("gravity-demo")), r=-1.0
    ),
    "nan E": lambda: f_analysis(math.nan, 1.0, -1.0),
    "nan rotational energy": lambda: f_analysis(-1.0, math.nan, -1.0),
    "nan Vt": lambda: f_analysis(-1.0, 1.0, math.nan),
    "nonpositive rotational energy": lambda: f_analysis(-1.0, 0.0, -1.0),
    "nan rho1": lambda: JacobiShapeCoords(math.nan, 1.0, 0.5),
    "infinite rho2": lambda: JacobiShapeCoords(1.0, math.inf, 0.5),
    "phi above pi": lambda: JacobiShapeCoords(1.0, 1.0, 4.0),
    "nan w1": lambda: WCoords(math.nan, 0.0, 0.5),
    "negative w3": lambda: WCoords(0.0, 0.0, -1.0),
    "nan omega": lambda: DragtCoords(math.nan, 0.5, 1.0),
    "chi above pi/2": lambda: DragtCoords(1.0, 2.0, 1.0),
    "psi of 2 pi": lambda: DragtCoords(1.0, 0.5, 2.0 * math.pi),
    # finite sizes whose squares are not floats, where ``**2`` would raise
    # a bare OverflowError inside the transform
    "jacobi_from_w overflow": lambda: jacobi_from_w(WCoords(1e200, 1e200, 0.0)),
    "w_from_jacobi overflow": lambda: w_from_jacobi(JacobiShapeCoords(1e100, 1e100, 1.0)),
    "normalize_shape overflow": lambda: normalize_shape(JacobiShapeCoords(1e200, 1e200, 1.0)),
    "distances_from_jacobi overflow": lambda: distances_from_jacobi(
        preset("helium"), JacobiShapeCoords(1e160, 1e160, 1.0)
    ),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_DOMAIN))
def test_public_entry_points_reject_out_of_domain_input(case):
    # DomainError is a TrihillError and a ValueError, so callers that catch
    # either one see the rejection.
    with pytest.raises(DomainError):
        _OUT_OF_DOMAIN[case]()
