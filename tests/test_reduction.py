import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trihill.coords import (
    DragtCoords,
    JacobiShapeCoords,
    dilate,
    jacobi_from_dragt,
    normalize_shape,
)
from trihill.errors import CollinearError, SingularGeometryError
from trihill.reduction import (
    ConservationReport,
    RovibState,
    eom,
    hamiltonian,
    inertia,
    integrate,
    kinetic_geometry,
    principal_axes,
    relequil_residual,
)
from trihill.coords import Shape
from trihill.critical import nu_lagrange, nu_langmuir
from trihill.hill import membership
from trihill.reduction import _pair_constants, rigid_start
from trihill.systems import BodySystem, preset
from trihill.verify import build_relequil_state

from conftest import (
    oracle_flow,
    oracle_inertia_tensor,
    oracle_integrate,
    oracle_positions,
    oracle_potential,
    oracle_traj_csv,
)


def random_jacobi(rng, lo=0.1, hi=3.0):
    return JacobiShapeCoords(
        rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(0.05, math.pi - 0.05)
    )


def test_inertia_diabolic_example():
    data = inertia(JacobiShapeCoords(1, 1, math.pi / 2))
    assert np.allclose(data.tensor, np.diag([1.0, 1.0, 2.0]), atol=1e-15)
    assert data.principal == pytest.approx((1.0, 1.0, 2.0), abs=1e-15)


def test_inertia_collinear_example():
    data = inertia(JacobiShapeCoords(1, 1, 0))
    assert data.principal == pytest.approx((0.0, 2.0, 2.0), abs=1e-15)


def test_inertia_dragt_diagonal():
    # after normalization, principal moments are (sin^2(chi/2), cos^2(chi/2), 1)
    rng = np.random.default_rng(2)
    for _ in range(200):
        chi = rng.uniform(0.01, math.pi / 2 - 0.01)
        psi = rng.uniform(0, 2 * math.pi)
        j = jacobi_from_dragt(DragtCoords(1.0, chi, psi))
        m1, m2, m3 = inertia(j).principal
        assert m1 == pytest.approx(math.sin(chi / 2) ** 2, rel=1e-10, abs=1e-12)
        assert m2 == pytest.approx(math.cos(chi / 2) ** 2, rel=1e-10, abs=1e-12)
        assert m3 == pytest.approx(1.0, rel=1e-12)


def test_inertia_against_position_oracle(all_systems):
    rng = np.random.default_rng(5)
    for system in all_systems.values():
        for _ in range(100):
            j = random_jacobi(rng)
            pos = oracle_positions(system, j.rho1, j.rho2, j.phi)
            want = oracle_inertia_tensor(system, pos)
            got = inertia(j).tensor
            assert np.allclose(got, want, rtol=1e-10, atol=1e-12)
            ev = np.linalg.eigvalsh(got)
            assert np.allclose(ev, inertia(j).principal, rtol=1e-10, atol=1e-12)


def test_inertia_invariants():
    rng = np.random.default_rng(8)
    for _ in range(2000):
        j = JacobiShapeCoords(
            rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0), rng.uniform(0, math.pi)
        )
        data = inertia(j)
        m1, m2, m3 = data.principal
        scale = max(1.0, data.I)
        assert abs(m1 + m2 - m3) < 1e-12 * scale
        assert abs(0.5 * np.trace(data.tensor) - data.I) < 1e-12 * scale
        lam = float(rng.uniform(1e-3, 1e3))
        scaled = inertia(dilate(j, lam))
        assert np.allclose(scaled.tensor, lam * lam * data.tensor, rtol=1e-12, atol=0)
        # moments scale by lam^2; compare at the scale of the tensor itself,
        # the small moment loses relative digits to cancellation near collinear
        for got, m in zip(scaled.principal, data.principal):
            assert abs(got - lam * lam * m) < 1e-12 * lam * lam * data.I


def test_principal_axes_are_eigenvectors():
    rng = np.random.default_rng(21)
    for _ in range(300):
        j = random_jacobi(rng)
        data = inertia(j)
        moments, axes = principal_axes(j)
        for k in range(3):
            res = data.tensor @ axes[:, k] - moments[k] * axes[:, k]
            assert np.linalg.norm(res) < 1e-10 * max(1.0, data.I)
        assert np.allclose(axes.T @ axes, np.eye(3), atol=1e-12)


def test_kinetic_geometry_jacobi_example():
    geo = kinetic_geometry(JacobiShapeCoords(1, 1, math.pi / 2))
    assert np.allclose(geo.metric, np.diag([1, 1, 0.5]), atol=1e-15)
    assert np.allclose(geo.gauge[2], [0, 0, 0.5], atol=1e-15)
    assert np.allclose(geo.metric @ geo.metric_inv, np.eye(3), atol=1e-12)
    assert not geo.singular


def test_kinetic_geometry_dragt_examples():
    geo = kinetic_geometry(DragtCoords(1.0, math.pi / 2, 0.0, degenerate=True))
    assert geo.singular
    assert geo.metric[0, 0] == pytest.approx(0.25)
    assert geo.metric[1, 1] == pytest.approx(0.25)
    assert geo.metric[2, 2] == pytest.approx(0.0, abs=1e-30)
    geo = kinetic_geometry(DragtCoords(2.0, math.pi / 6, 0.0))
    assert np.allclose(geo.gauge[2], [0, 0, -0.25], atol=1e-15)
    assert np.allclose(geo.metric @ geo.metric_inv, np.eye(3), atol=1e-12)


def test_kinetic_geometry_errors():
    with pytest.raises(SingularGeometryError):
        kinetic_geometry(JacobiShapeCoords(0.0, 1.0, 0.5))
    with pytest.raises(SingularGeometryError):
        kinetic_geometry(DragtCoords(1.0, 0.0, 0.3))


def test_hamiltonian_reduces_to_potential(all_systems):
    rng = np.random.default_rng(31)
    for system in all_systems.values():
        for _ in range(50):
            j = random_jacobi(rng)
            state = RovibState([j.rho1, j.rho2, j.phi], np.zeros(3), np.zeros(3))
            pos = oracle_positions(system, j.rho1, j.rho2, j.phi)
            assert hamiltonian(system, state) == pytest.approx(
                oracle_potential(system, pos), rel=1e-12
            )


def test_hamiltonian_vibration_free_principal_axis(all_systems):
    # p = J.A and J along axis k gives H = r^2/(2 M_k) + V
    rng = np.random.default_rng(37)
    for system in all_systems.values():
        for _ in range(50):
            j = random_jacobi(rng)
            moments, axes = principal_axes(j)
            k = int(rng.integers(0, 3))
            r = float(rng.uniform(0.1, 3.0))
            J = r * axes[:, k]
            a_phi = j.rho2**2 / (j.rho1**2 + j.rho2**2)
            p = np.array([0.0, 0.0, J[2] * a_phi])
            state = RovibState([j.rho1, j.rho2, j.phi], p, J)
            pos = oracle_positions(system, j.rho1, j.rho2, j.phi)
            want = 0.5 * r * r / moments[k] + oracle_potential(system, pos)
            assert hamiltonian(system, state) == pytest.approx(want, rel=1e-10)


def test_hamiltonian_collinear_error(gravity):
    state = RovibState([1.0, 1.0, 0.0], np.zeros(3), np.zeros(3))
    with pytest.raises(CollinearError):
        hamiltonian(gravity, state)


def test_langmuir_virial(helium):
    # vibration-free Langmuir state: H = V/2 by the virial theorem
    state = build_relequil_state(helium, nu_langmuir(helium), r=1.0)
    j = state.jacobi()
    pos = oracle_positions(helium, j.rho1, j.rho2, j.phi)
    V = oracle_potential(helium, pos)
    assert hamiltonian(helium, state) == pytest.approx(0.5 * V, rel=1e-12)


def test_eom_against_finite_differences(all_systems):
    rng = np.random.default_rng(43)
    worst = 0.0
    for system in all_systems.values():
        for _ in range(120):
            q = np.array(
                [rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0), rng.uniform(0.3, math.pi - 0.3)]
            )
            p = rng.normal(0, 1, 3)
            J = rng.normal(0, 1, 3)
            state = RovibState(q, p, J)
            d = eom(system, state)

            def H(qq=None, pp=None, JJ=None):
                return hamiltonian(
                    system,
                    RovibState(
                        q if qq is None else qq, p if pp is None else pp, J if JJ is None else JJ
                    ),
                )

            scale = max(1.0, abs(H()))
            for mu in range(3):
                h = 1e-6 * max(1.0, abs(q[mu]))
                qp, qm = q.copy(), q.copy()
                qp[mu] += h
                qm[mu] -= h
                worst = max(worst, abs((H(qq=qp) - H(qq=qm)) / (2 * h) + d.p[mu]) / scale)
                pp, pm = p.copy(), p.copy()
                pp[mu] += h
                pm[mu] -= h
                worst = max(worst, abs((H(pp=pp) - H(pp=pm)) / (2 * h) - d.q[mu]) / scale)
    assert worst < 1e-6


def test_jdot_orthogonal_to_j(all_systems):
    rng = np.random.default_rng(47)
    for system in all_systems.values():
        for _ in range(200):
            q = np.array(
                [rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0), rng.uniform(0.3, math.pi - 0.3)]
            )
            state = RovibState(q, rng.normal(0, 1, 3), rng.normal(0, 1, 3))
            d = eom(system, state)
            assert abs(float(np.dot(d.J, state.J))) < 1e-14 * max(
                1.0, float(np.dot(state.J, state.J))
            )


def test_j_zero_reduces_to_vibration(gravity):
    rng = np.random.default_rng(53)
    q = np.array([1.1, 0.8, 1.3])
    p = rng.normal(0, 1, 3)
    d = eom(gravity, RovibState(q, p, np.zeros(3)))
    assert np.all(d.J == 0)
    # q-dot is the metric inverse applied to p when no gauge term remains
    g33 = (q[0] ** 2 + q[1] ** 2) / (q[0] ** 2 * q[1] ** 2)
    assert d.q == pytest.approx([p[0], p[1], g33 * p[2]], rel=1e-14)


def test_relequil_residual_axis_properties(gravity):
    rng = np.random.default_rng(59)
    j = random_jacobi(rng)
    _, axes = principal_axes(j)
    # generic shape, J along an axis: torque balance holds, force balance does not
    res1, res3 = relequil_residual(gravity, j, 2.0 * axes[:, 1])
    assert np.linalg.norm(res1) < 1e-12
    assert np.linalg.norm(res3) > 1e-3
    # J off-axis: torque residual appears
    res1, _ = relequil_residual(gravity, j, np.array([1.0, 1.0, 1.0]))
    assert np.linalg.norm(res1) > 1e-6


def test_relequil_residual_at_equilibria(helium, gravity, eep):
    for system, fam in ((helium, nu_langmuir), (gravity, nu_lagrange), (eep, nu_langmuir)):
        state = build_relequil_state(system, fam(system), r=1.0)
        res1, res3 = relequil_residual(system, state.jacobi(), state.J)
        assert np.linalg.norm(res1) < 1e-8
        assert np.linalg.norm(res3) < 1e-8
        d = eom(system, state)
        assert np.linalg.norm(d.q) < 1e-8
        assert np.linalg.norm(d.p) < 1e-8


_SIGNS = list(itertools.product((1.0, -1.0), repeat=3))


@pytest.mark.parametrize("signs", _SIGNS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    masses=st.tuples(*[st.floats(0.1, 5.0)] * 3),
    magnitudes=st.tuples(*[st.floats(0.05, 3.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_relequil_residual_against_position_oracle(signs, masses, magnitudes, seed):
    # res1 = J x (M^-1 J) and res3 = grad_q (1/2 J.M^-1.J + V), with M and V
    # rebuilt from body positions and the gradient from central differences
    system = BodySystem(masses, tuple(s * m for s, m in zip(signs, magnitudes)))
    rng = np.random.default_rng(seed)
    j = random_jacobi(rng, 0.3, 2.0)
    J = rng.normal(0.0, 1.0, 3)

    def effective(q):
        pos = oracle_positions(system, *q)
        minv_j = np.linalg.solve(oracle_inertia_tensor(system, pos), J)
        return 0.5 * J @ minv_j + oracle_potential(system, pos), minv_j

    q = np.array([j.rho1, j.rho2, j.phi])
    f0, minv_j = effective(q)
    grad = np.empty(3)
    for mu in range(3):
        h = 1e-6 * max(1.0, abs(q[mu]))
        step = h * np.eye(3)[mu]
        grad[mu] = (effective(q + step)[0] - effective(q - step)[0]) / (2.0 * h)

    res1, res3 = relequil_residual(system, j, J)
    want1 = np.cross(J, minv_j)
    assert np.linalg.norm(res1 - want1) <= 1e-10 * max(1.0, np.linalg.norm(want1))
    assert np.linalg.norm(res3 - grad) <= 1e-6 * max(1.0, abs(f0), np.linalg.norm(grad))


def test_integrate_relative_equilibrium(helium):
    from trihill.reduction import _potential_and_grad

    state = build_relequil_state(helium, nu_langmuir(helium), r=1.0)
    V, _ = _potential_and_grad(helium, state.q)
    dt = 1e-3 * 2 * math.pi / abs(V)
    traj, report = integrate(helium, state, dt, 10_000)
    assert report.ok
    assert np.max(np.abs(traj.states[:, :3] - traj.states[0, :3])) < 1e-6
    assert report.energy_drift < 1e-8 * abs(traj.energy[0])
    assert report.momentum_drift < 1e-10


def test_integrate_generic_conservation(helium, eep):
    # bounded non-equilibrium motion near the Langmuir orbits
    from trihill.reduction import _potential_and_grad

    for system in (helium, eep):
        state = build_relequil_state(system, nu_langmuir(system), r=1.0)
        state.p = state.p + np.array([0.02, -0.01, 0.03])
        state.J = state.J + np.array([0.01, 0.005, 0.02])
        V, _ = _potential_and_grad(system, state.q)
        dt = 1e-4 * 2 * math.pi / abs(V)
        traj, report = integrate(system, state, dt, 10_000)
        assert report.ok
        assert report.momentum_drift < 1e-10
        assert report.energy_drift < 1e-8 * abs(traj.energy[0])


def test_integrate_truncates_at_chart_boundary(gravity):
    # aim the vibrational momentum at the collinear boundary
    state = RovibState([1.0, 1.0, 0.3], [0.0, 0.0, -1.0], [0.0, 0.0, 0.0])
    traj, report = integrate(gravity, state, 0.05, 400)
    assert not report.ok
    assert report.truncated_at is not None
    assert "collinear" in report.message
    assert len(traj) == report.truncated_at + 1


def test_trajectory_csv_format(gravity):
    state = build_relequil_state(gravity, nu_lagrange(gravity), r=1.0)
    traj, _ = integrate(gravity, state, 1e-3, 5)
    text = traj.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,q1,q2,q3,p1,p2,p3,J1,J2,J3,H"
    assert len(lines) == 7
    row = lines[1].split(",")
    assert len(row) == 11
    assert float(row[0]) == 0.0
    # 17 significant digits survive a parse round trip
    assert float(row[1]) == traj.states[0, 0]


def test_trajectory_energy_is_hamiltonian_of_each_state(gravity, helium):
    # a full run and a run cut at the chart boundary
    full = build_relequil_state(helium, nu_langmuir(helium), r=1.0)
    full.p = full.p + np.array([0.02, -0.01, 0.03])
    edge = RovibState([1.0, 1.0, 0.3], [0.0, 0.0, -1.0], [0.0, 0.0, 0.0])
    for system, state, dt, truncated in ((helium, full, 1e-3, False), (gravity, edge, 0.05, True)):
        traj, report = integrate(system, state, dt, 400)
        assert (report.truncated_at is not None) == truncated
        for k in range(len(traj)):
            assert traj.energy[k] == hamiltonian(system, traj.state(k))


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1e-3])
def test_integrate_rejects_bad_dt(gravity, dt):
    state = build_relequil_state(gravity, nu_lagrange(gravity), r=1.0)
    with pytest.raises(ValueError):
        integrate(gravity, state, dt, 3)


def test_integrate_truncates_non_finite_state(gravity):
    state = RovibState([1.0, 1.0, 1.3], [math.nan, 0.0, 0.0], [0.0, 0.0, 0.5])
    traj, report = integrate(gravity, state, 1e-3, 20)
    assert not report.ok
    assert report.truncated_at is not None
    assert "non-finite" in report.message
    assert "collinear" not in report.message
    assert len(traj) == report.truncated_at + 1
    assert not ConservationReport(math.nan, 0.0).ok
    assert not ConservationReport(0.0, math.inf).ok


@pytest.mark.parametrize(
    "q, J", [([1.0, 1.0, 1.3], [0.0, 0.0, math.inf]), ([1.0, 1.0, math.inf], [0.0, 0.0, 0.5])]
)
def test_integrate_truncates_infinite_start(gravity, q, J):
    state = RovibState(q, [0.0, 0.0, 0.0], J)
    with np.errstate(invalid="ignore"):
        traj, report = integrate(gravity, state, 1e-3, 20)
    assert not report.ok
    assert report.truncated_at == 0
    assert "non-finite" in report.message
    assert len(traj) == 1


def test_integrate_stops_where_phi_leaves_the_chart():
    # a step carries phi past pi; sin(phi) < 0 is outside the chart
    eep = preset("eep")
    state = rigid_start(Shape(0.1, 0.2).to_jacobi(), 0.01, np.array([0.0, 0.0, 1.0]))
    traj, report = integrate(eep, state, 0.05, 3000)
    assert report.truncated_at == 16
    assert "collinear" in report.message
    assert np.all(np.sin(traj.states[:, 2]) > 0.0)
    assert report.energy_drift < 1e-3


def test_trajectory_csv_matches_per_row_writer(gravity, helium):
    full = build_relequil_state(helium, nu_langmuir(helium), r=1.0)
    full.p = full.p + np.array([0.02, -0.01, 0.03])
    edge = RovibState([1.0, 1.0, 0.3], [0.0, 0.0, -1.0], [0.0, 0.0, 0.0])
    for system, state, dt in ((helium, full, 1e-3), (gravity, edge, 0.05)):
        traj, _ = integrate(system, state, dt, 400)
        assert traj.to_csv() == oracle_traj_csv(traj)


@pytest.mark.parametrize("signs", _SIGNS)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(
    masses=st.tuples(*[st.floats(0.1, 5.0)] * 3),
    magnitudes=st.tuples(*[st.floats(0.05, 3.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_trajectory_csv_matches_per_row_writer_property(signs, masses, magnitudes, seed):
    system = BodySystem(masses, tuple(s * m for s, m in zip(signs, magnitudes)))
    rng = np.random.default_rng(seed)
    state = RovibState(
        [rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0), rng.uniform(0.3, math.pi - 0.3)],
        rng.normal(0.0, 1.0, 3),
        rng.normal(0.0, 1.0, 3),
    )
    traj, _ = integrate(system, state, 1e-2, 40)
    assert traj.to_csv() == oracle_traj_csv(traj)


def test_integrate_truncates_overflowing_start(eep):
    # rho**3 overflows, which raises OverflowError on Python floats
    state = RovibState([1e103, 1e103, 1.0], [0.0, 0.0, 0.0], [1e200, 0.0, 0.0])
    traj, report = integrate(eep, state, 1e-3, 3)
    assert report.truncated_at == 0
    assert "non-finite state" in report.message
    assert len(traj) == 1
    assert math.isnan(hamiltonian(eep, state))


def assert_same_run(got, want):
    """Bit-equal trajectories, reports and CSV text (NaN drifts compare equal)."""
    (traj, report), (want_traj, want_report) = got, want
    assert np.array_equal(traj.t, want_traj.t)
    assert np.array_equal(traj.states, want_traj.states, equal_nan=True)
    assert np.array_equal(traj.energy, want_traj.energy, equal_nan=True)
    assert np.array_equal(
        [report.energy_drift, report.momentum_drift],
        [want_report.energy_drift, want_report.momentum_drift],
        equal_nan=True,
    )
    assert report.truncated_at == want_report.truncated_at
    assert report.message == want_report.message
    assert traj.to_csv() == want_traj.to_csv()


def random_rigid_start(rng):
    """A rigidly rotating start at a random disk shape, Jhat and |J|."""
    s, theta = rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0 * math.pi)
    j_hat = rng.normal(0.0, 1.0, 3)
    shape = Shape(s * math.cos(theta), s * math.sin(theta))
    return rigid_start(shape.to_jacobi(), rng.uniform(0.1, 3.0), j_hat / np.linalg.norm(j_hat))


@pytest.mark.parametrize("signs", _SIGNS)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(
    masses=st.tuples(*[st.floats(0.1, 5.0)] * 3),
    magnitudes=st.tuples(*[st.floats(0.05, 3.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
    dt=st.sampled_from([1e-3, 1e-2, 5e-2]),
)
def test_integrate_bit_identical_to_array_oracle(signs, masses, magnitudes, seed, dt):
    system = BodySystem(masses, tuple(s * m for s, m in zip(signs, magnitudes)))
    rng = np.random.default_rng(seed)
    state = random_rigid_start(rng)
    state.p = state.p + rng.normal(0.0, 0.1, 3)
    assert_same_run(integrate(system, state, dt, 300), oracle_integrate(system, state, dt, 300))


@pytest.mark.parametrize(
    "name, state, dt",
    [
        # phi leaves the chart at step 16
        ("eep", rigid_start(Shape(0.1, 0.2).to_jacobi(), 0.01, np.array([0.0, 0.0, 1.0])), 0.05),
        ("gravity-demo", RovibState([1.0, 1.0, 1.3], [math.nan, 0.0, 0.0], [0.0, 0.0, 0.5]), 1e-3),
        ("gravity-demo", RovibState([1.0, 1.0, 1.3], [0.0, 0.0, 0.0], [0.0, 0.0, math.inf]), 1e-3),
        ("gravity-demo", RovibState([1.0, 1.0, math.inf], [0.0, 0.0, 0.0], [0.0, 0.0, 0.5]), 1e-3),
    ],
)
def test_integrate_bit_identical_to_array_oracle_at_edges(name, state, dt):
    system = preset(name)
    got = integrate(system, state, dt, 3000)
    assert got[1].truncated_at is not None
    assert_same_run(got, oracle_integrate(system, state, dt, 3000))


@pytest.mark.parametrize("signs", _SIGNS)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(
    masses=st.tuples(*[st.floats(0.1, 5.0)] * 3),
    magnitudes=st.tuples(*[st.floats(0.05, 3.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_flow_entry_points_bit_identical_to_array_oracle(signs, masses, magnitudes, seed):
    system = BodySystem(masses, tuple(s * m for s, m in zip(signs, magnitudes)))
    pairs = _pair_constants(system)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        j = random_jacobi(rng)
        state = RovibState([j.rho1, j.rho2, j.phi], rng.normal(0.0, 1.0, 3), rng.normal(0.0, 1.0, 3))
        H, ydot = oracle_flow(pairs, state.flat())
        assert hamiltonian(system, state) == H
        assert np.array_equal(eom(system, state).flat(), ydot)
        # the rigidly rotating state at (q, J): p = J.A with A_phi = rho2^2 / I
        a_phi = j.rho2**2 / (j.rho1**2 + j.rho2**2)
        y = np.array([j.rho1, j.rho2, j.phi, 0.0, 0.0, state.J[2] * a_phi, *state.J])
        res1, res3 = relequil_residual(system, j, state.J)
        ydot = oracle_flow(pairs, y)[1]
        assert np.array_equal(res1, ydot[6:9])
        assert np.array_equal(res3, -ydot[3:6])


@pytest.mark.parametrize("signs", _SIGNS)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(
    masses=st.tuples(*[st.floats(0.1, 5.0)] * 3),
    magnitudes=st.tuples(*[st.floats(0.05, 3.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_trajectory_stays_in_its_hill_region(signs, masses, magnitudes, seed):
    # Every 50th state, as (shape, Jhat in the principal frame), lies in the
    # Hill region at E = H_k + tol, r = |J|.  Kinetic energy is not negative,
    # so that holds at tol = 0 up to the rounding of the two routes to the
    # energy, the Jacobi chart here and the shape-space kernel in membership.
    # tol is 1e-9 of the energy scale the run visits, max(1, |H_0|) plus its
    # energy drift: the drift reaches 1e5 on runs that pass near a collision,
    # where the rotational and potential terms of H_k are large and cancel.
    system = BodySystem(masses, tuple(s * m for s, m in zip(signs, magnitudes)))
    rng = np.random.default_rng(seed)
    traj, report = integrate(system, random_rigid_start(rng), 1e-2, 500)
    tol = 1e-9 * (max(1.0, abs(traj.energy[0])) + report.energy_drift)
    for k in range(0, len(traj), 50):
        state = traj.state(k)
        j = state.jacobi()
        shape, _ = normalize_shape(j)
        r = float(np.linalg.norm(state.J))
        j_hat = principal_axes(j)[1].T @ state.J / r
        assert membership(system, traj.energy[k] + tol, r, shape, j_hat).member
