import collections
import itertools
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from trihill.coords import (
    DragtCoords,
    JacobiShapeCoords,
    dilate,
    jacobi_from_dragt,
    normalize_shape,
)
from trihill.errors import CollinearError, DomainError
from trihill.reduction import (
    ConservationReport,
    RovibState,
    eom,
    hamiltonian,
    inertia,
    integrate,
    principal_axes,
    relequil_residual,
)
from trihill.coords import Shape, pair_geometry
from trihill.critical import critical_catalog, nu_lagrange, nu_langmuir
from trihill.hill import membership
from trihill.reduction import _chart_table, _energies, _flow, rigid_start
from trihill.scan import scan_disk
from trihill.systems import BodySystem, preset
from trihill.verify import VIRIAL_DT_FACTOR, build_relequil_state

from conftest import (
    _oracle_float_flow,
    oracle_float_integrate,
    oracle_inertia_tensor,
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


@pytest.mark.parametrize(
    "J",
    [
        [1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [[1.0, 0.0, 0.0]],
        [math.inf, 0.0, 0.0], [0.0, math.nan, 0.0],
    ],
)
def test_relequil_residual_rejects_a_J_that_is_not_three_finite_values(helium, J):
    with pytest.raises(DomainError, match="J must hold three finite values"):
        relequil_residual(helium, JacobiShapeCoords(1, 1, 1), J)


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
# The bit-identity properties run without hypothesis's shrink phase: it
# re-runs whole trajectories, so a broken bit would take minutes to report.
_NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


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
    state = build_relequil_state(helium, nu_langmuir(helium), r=1.0)
    V = hamiltonian(helium, RovibState(state.q, np.zeros(3), np.zeros(3)))
    dt = 1e-3 * 2 * math.pi / abs(V)
    traj, report = integrate(helium, state, dt, 10_000)
    assert report.ok
    assert np.max(np.abs(traj.states[:, :3] - traj.states[0, :3])) < 1e-6
    assert report.energy_drift < 1e-8 * abs(traj.energy[0])
    assert report.momentum_drift < 1e-10


def test_integrate_generic_conservation(helium, eep):
    # bounded non-equilibrium motion near the Langmuir orbits
    for system in (helium, eep):
        state = build_relequil_state(system, nu_langmuir(system), r=1.0)
        state.p = state.p + np.array([0.02, -0.01, 0.03])
        state.J = state.J + np.array([0.01, 0.005, 0.02])
        V = hamiltonian(system, RovibState(state.q, np.zeros(3), np.zeros(3)))
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
    with pytest.raises(DomainError):
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
@settings(max_examples=3, deadline=None, derandomize=True, phases=_NO_SHRINK)
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


def test_integrate_truncates_where_a_pair_distance_rounds_below_zero(eep):
    # phi = 2e-10 lies inside the chart, but next to the collision ray at
    # rho1 = sqrt(3) rho2 a squared pair distance rounds below zero
    state = RovibState([1.7320508075688776, 1.0, 2e-10], [0.0, 0.0, 0.0], [0.0, 0.0, 0.1])
    assert math.isnan(hamiltonian(eep, state))
    traj, report = integrate(eep, state, 1e-3, 3)
    assert report.truncated_at == 0
    assert "non-finite state" in report.message
    assert len(traj) == 1


def test_flow_raises_on_a_malformed_chart_table(eep):
    # Only the arithmetic of a non-finite state reads as a NaN flow: the
    # pair table's 7-field rows do not unpack into the chart table's six.
    y = [1.0, 1.0, 1.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5]
    assert all(map(math.isfinite, _flow(_chart_table(eep), y)))
    with pytest.raises(ValueError, match="unpack"):
        _flow(pair_geometry(eep), y)


def _flow_bits(table, y, h=0.0, slope=None):
    """``_flow``'s derivative packed as bytes (NaN bits included), or its
    CollinearError message."""
    try:
        ydot = _flow(table, y, h, slope)
    except CollinearError as exc:
        return str(exc)
    return struct.pack("9d", *ydot)


def test_displaced_flow_is_the_flow_at_the_displaced_state(all_systems):
    # _flow(table, y, h, slope) is _flow(table, y_i + h * slope_i) bit for
    # bit: on random states, at the chart boundary, at an infinite angle and
    # for a slope that overflows.
    rng = np.random.default_rng(26)
    y = [1.0, 1.0, 1e-3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5]
    cases = [
        (y, 0.5, [0.0, 0.0, -1.0] + [0.0] * 6),  # phi < 0: off the chart
        (y, 0.5, [-4.0] + [0.0] * 8),  # rho1 < 0
        (y, 0.5, [0.0, 0.0, math.inf] + [0.0] * 6),  # infinite angle
        (y, 1e10, [0.0, 0.0, 1e300] + [0.0] * 6),  # h * slope overflows
        (y, 1e10, [0.0] * 6 + [1e300, 0.0, 0.0]),
        (y, 1.0, [math.nan] * 9),
    ]
    for _ in range(300):
        j = random_jacobi(rng)
        y = [j.rho1, j.rho2, j.phi, *rng.normal(0.0, 1.0, 6).tolist()]
        h = rng.choice([5e-4, 1e-3, 0.05, 1.0])
        cases.append((y, h, rng.normal(0.0, rng.choice([1.0, 50.0]), 9).tolist()))
    outcomes = collections.Counter()
    for system in all_systems.values():
        table = _chart_table(system)
        for y, h, slope in cases:
            want = _flow_bits(table, [a + h * b for a, b in zip(y, slope)])
            assert _flow_bits(table, y, h, slope) == want, (system, y, h, slope)
            outcomes[type(want) is str or any(map(math.isnan, struct.unpack("9d", want)))] += 1
    assert outcomes[True] > 10 and outcomes[False] > 500


@pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
def test_rigid_start_rejects_non_finite_r(r):
    with pytest.raises(DomainError):
        rigid_start(Shape(0.1, 0.2).to_jacobi(), r, np.array([0.0, 0.0, 1.0]))


@pytest.mark.parametrize(
    "j_hat",
    [
        (0.0, 0.0, 0.0), (math.nan, 0.0, 1.0), (0.0, math.inf, 0.0), (0.0, 0.0, 2.0),
        (0.6, 0.8), (0.5, 0.5, 0.5, 0.5),
    ],
)
def test_rigid_start_rejects_a_non_unit_j_hat(j_hat):
    with pytest.raises(DomainError):
        rigid_start(Shape(0.1, 0.2).to_jacobi(), 1.0, np.array(j_hat))


@pytest.mark.parametrize(
    "q, p, J",
    [
        ([1.0, 1.0], [0.0] * 3, [0.0] * 3),
        ([1.0, 1.0, 1.3], [0.0] * 4, [0.0] * 3),
        ([1.0, 1.0, 1.3], [0.0] * 3, np.zeros(9)),
    ],
)
def test_rovib_state_rejects_a_part_that_is_not_three_long(q, p, J):
    with pytest.raises(DomainError):
        RovibState(q, p, J)


def test_integrate_rejects_a_negative_step_count(gravity):
    state = build_relequil_state(gravity, nu_lagrange(gravity), r=1.0)
    with pytest.raises(DomainError):
        integrate(gravity, state, 1e-3, -1)
    traj, report = integrate(gravity, state, 1e-3, 0)
    assert len(traj) == 1 and report.ok


@pytest.mark.parametrize("nsteps", [2.5, math.nan, "3", 3.0])
def test_integrate_rejects_a_non_integer_step_count(gravity, nsteps):
    state = build_relequil_state(gravity, nu_lagrange(gravity), r=1.0)
    with pytest.raises(DomainError):
        integrate(gravity, state, 1e-3, nsteps)


def test_integrate_accepts_numpy_integer_step_counts(gravity):
    state = build_relequil_state(gravity, nu_lagrange(gravity), r=1.0)
    want = integrate(gravity, state, 1e-3, 4)
    for nsteps in (np.int64(4), np.int32(4), np.uint8(4)):
        assert_same_run(integrate(gravity, state, 1e-3, nsteps), want)


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
@settings(max_examples=4, deadline=None, derandomize=True, phases=_NO_SHRINK)
@given(
    masses=st.tuples(*[st.floats(0.1, 5.0)] * 3),
    magnitudes=st.tuples(*[st.floats(0.05, 3.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
    dt=st.sampled_from([1e-3, 1e-2, 5e-2]),
)
def test_integrate_bit_identical_to_float_oracle(signs, masses, magnitudes, seed, dt):
    system = BodySystem(masses, tuple(s * m for s, m in zip(signs, magnitudes)))
    rng = np.random.default_rng(seed)
    state = random_rigid_start(rng)
    state.p = state.p + rng.normal(0.0, 0.1, 3)
    want = oracle_float_integrate(system, state, dt, 300)
    assert_same_run(integrate(system, state, dt, 300), want)


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
def test_integrate_bit_identical_to_float_oracle_at_edges(name, state, dt):
    system = preset(name)
    got = integrate(system, state, dt, 3000)
    assert got[1].truncated_at is not None
    assert_same_run(got, oracle_float_integrate(system, state, dt, 3000))


_TRUNCATION_EDGES = {
    # |J| = 1e155 at an interior shape: the start's energy overflows to inf
    # and its flow raises nothing
    "energy overflow at the start": (
        "eep",
        rigid_start(Shape(0.1, 0.2).to_jacobi(), 1e155, np.array([0.6, 0.0, 0.8])),
        1e-3,
        0,
    ),
    # rho**3 overflows: the start's flow fails where its energy is finite
    "failed flow at the start": (
        "eep", RovibState([1e103, 1e103, 1.0], [0.0] * 3, [1e200, 0.0, 0.0]), 1e-3, 0
    ),
    # p1 p1 + p2 p2 overflows from the start on: the state after step 0 and
    # its flow are finite, its energy is not
    "energy overflow after step 0": (
        "eep", RovibState([1.0, 1.0, 1.3], [1.3e154, 1e154, 0.0], [0.0] * 3), 1e-160, 0
    ),
    # rho1 starts 3 ulps below the cube root of the largest float and moves
    # 3.5 ulps in step 0: the last stage rounds to at most that root and has
    # a flow, the state after the step rounds above it, so its rho1**3
    # overflows while its energy is finite
    "failed flow after step 0": (
        "eep",
        RovibState([5.643803094122358e102, 1.0, 1.3], [1.160420884956169e87, 0.0, 0.0], [0.0] * 3),
        3.0,
        0,
    ),
    # rho1 rises past the cube root of the largest float in step 2
    "non-finite after step 2": (
        "eep", RovibState([5.62e102, 1.0, 1.3], [1e100, 0.0, 0.0], [0.0] * 3), 1.0, 2
    ),
}


@pytest.mark.parametrize("case", sorted(_TRUNCATION_EDGES))
def test_integrate_truncation_edges_bit_identical_to_float_oracle(case):
    # Steps make no energy: the run stops where a state's flow fails or the
    # state is not finite, and one energy call then cuts it at the first
    # later row whose energy is not finite.  hamiltonian reads the same
    # energies, NaN where the flow fails.
    system, state, dt, truncated_at = _TRUNCATION_EDGES[case]
    system = preset(system) if isinstance(system, str) else system
    got = integrate(system, state, dt, 10)
    assert got[1].truncated_at == truncated_at
    assert got[1].message == f"truncated at step {truncated_at}: non-finite state"
    assert_same_run(got, oracle_float_integrate(system, state, dt, 10))
    pairs = pair_geometry(system)
    rows = got[0].states.tolist()
    want = [_oracle_float_flow(pairs, y)[0] for y in rows]
    have = [hamiltonian(system, RovibState.from_flat(np.array(y))) for y in rows]
    assert np.array_equal(have, want, equal_nan=True)


@pytest.mark.parametrize("value", ["0.1", None, 1j, [0.1]])
@pytest.mark.parametrize("name", ["dt", "nu", "r"])
def test_an_input_that_is_not_a_real_number_raises_domain_error(gravity, name, value):
    state = build_relequil_state(gravity, nu_lagrange(gravity), r=1.0)
    calls = {
        "dt": lambda: integrate(gravity, state, value, 3),
        "nu": lambda: scan_disk(gravity, value, 10),
        "r": lambda: rigid_start(Shape(0.1, 0.2).to_jacobi(), value, np.array([0.0, 0.0, 1.0])),
    }
    with pytest.raises(DomainError, match=f"{name} must be a real number"):
        calls[name]()


def test_integrate_bit_identical_to_float_oracle_on_log_uniform_systems():
    # Masses and couplings log-uniform in 1e+-300, |J| in 1e+-5.  Most runs
    # stop at the chart boundary or on a non-finite state, where Python
    # floats raise and numpy scalars would return inf: the reference loop on
    # Python floats must stop where integrate does.
    rng = np.random.default_rng(2024)
    outcomes = collections.Counter()
    for _ in range(400):
        masses = tuple(10.0 ** rng.uniform(-300.0, 300.0, 3))
        signs = rng.choice((-1.0, 1.0), 3)
        system = BodySystem(masses, tuple(signs * 10.0 ** rng.uniform(-300.0, 300.0, 3)))
        s, theta = rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0 * math.pi)
        j_hat = rng.normal(0.0, 1.0, 3)
        state = rigid_start(
            Shape(s * math.cos(theta), s * math.sin(theta)).to_jacobi(),
            10.0 ** rng.uniform(-5.0, 5.0),
            j_hat / np.linalg.norm(j_hat),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = integrate(system, state, 1e-3, 50)
            want = oracle_float_integrate(system, state, 1e-3, 50)
        assert_same_run(got, want)
        report = got[1]
        if report.ok:
            outcomes["complete"] += 1
        else:
            outcomes["collinear" if "collinear" in report.message else "non-finite"] += 1
    assert set(outcomes) == {"complete", "collinear", "non-finite"}


def test_relequil_runs_of_verify_bit_identical_to_float_oracle(all_systems):
    # The input of verify's <family>.qp_drift check: the start at r = 1 of
    # every preset catalog entry with an axis but the diabolic one (the
    # Lagrange and Langmuir entries), at verify's dt, for 10,000 steps.
    # Helium's Langmuir rotation is unstable and holds that long only on
    # these exact bits.
    # V, which sets dt and verify's virial check, is the energy at rest: NaN
    # where the flow fails there, as at rho**3's overflow.
    zeros = np.zeros(3)
    runs = 0
    for system in all_systems.values():
        for entry in critical_catalog(system):
            if entry.axis is None or entry.family == "diabolic":
                continue
            state = build_relequil_state(system, entry, r=1.0)
            V = hamiltonian(system, RovibState(state.q, zeros, zeros))
            rest = state.q.tolist() + [0.0] * 6
            assert V.hex() == _oracle_float_flow(pair_geometry(system), rest)[0].hex()
            dt = VIRIAL_DT_FACTOR * 2.0 * math.pi * 1.0 / abs(V)
            got = integrate(system, state, dt, 10_000)
            assert got[1].ok
            assert_same_run(got, oracle_float_integrate(system, state, dt, 10_000))
            runs += 1
    assert runs == 3
    eep = all_systems["eep"]
    assert math.isnan(hamiltonian(eep, RovibState([1e103, 1e103, 1.0], zeros, zeros)))
    assert math.isnan(_oracle_float_flow(pair_geometry(eep), [1e103, 1e103, 1.0] + [0.0] * 6)[0])


@pytest.mark.parametrize("signs", _SIGNS)
@settings(max_examples=5, deadline=None, derandomize=True, phases=_NO_SHRINK)
@given(
    masses=st.tuples(*[st.floats(0.1, 5.0)] * 3),
    magnitudes=st.tuples(*[st.floats(0.05, 3.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_flow_entry_points_bit_identical_to_float_oracle(signs, masses, magnitudes, seed):
    system = BodySystem(masses, tuple(s * m for s, m in zip(signs, magnitudes)))
    pairs = pair_geometry(system)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        j = random_jacobi(rng)
        state = RovibState([j.rho1, j.rho2, j.phi], rng.normal(0.0, 1.0, 3), rng.normal(0.0, 1.0, 3))
        H, ydot = _oracle_float_flow(pairs, state.flat().tolist())
        assert hamiltonian(system, state) == H
        assert np.array_equal(eom(system, state).flat(), ydot)
        # the rigidly rotating state at (q, J): p = J.A with A_phi = rho2^2 / I
        a_phi = j.rho2**2 / (j.rho1**2 + j.rho2**2)
        y = np.array([j.rho1, j.rho2, j.phi, 0.0, 0.0, state.J[2] * a_phi, *state.J])
        res1, res3 = relequil_residual(system, j, state.J)
        ydot = np.array(_oracle_float_flow(pairs, y.tolist())[1])
        assert np.array_equal(res1, ydot[6:9])
        assert np.array_equal(res3, -ydot[3:6])


@pytest.mark.parametrize("signs", _SIGNS)
@settings(max_examples=5, deadline=None, derandomize=True, phases=_NO_SHRINK)
@given(
    masses=st.tuples(*[st.floats(0.1, 5.0)] * 3),
    magnitudes=st.tuples(*[st.floats(0.05, 3.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_energies_bit_identical_to_flow(signs, masses, magnitudes, seed):
    # _energies gives the energy of the float oracle's flow over rows of
    # states: each finite energy keeps its bits, so a platform whose np.sin
    # or np.cos rounds otherwise than math's fails here.  Rows: every value
    # log-uniform over many decades with either sign, and rows as verify's
    # finite-difference suite draws them, with one of q and p moved by
    # +-1e-6 max(1, |q_mu|).
    system = BodySystem(masses, tuple(s * m for s, m in zip(signs, magnitudes)))
    table = _chart_table(system)
    pairs = pair_geometry(system)
    rng = np.random.default_rng(seed)
    n = 200
    wide = rng.choice((-1.0, 1.0), (n, 9)) * 10.0 ** rng.uniform(-6.0, 6.0, (n, 9))
    wide[:, :2] = np.abs(wide[:, :2])
    fd = np.column_stack(
        [
            rng.uniform(0.3, 2.0, (n, 2)),
            rng.uniform(0.3, math.pi - 0.3, n),
            rng.normal(0.0, 1.0, (n, 6)),
        ]
    )
    k, sign = rng.integers(0, 6, n), rng.choice((-1.0, 1.0), n)
    rows = np.arange(n)
    fd[rows, k] += sign * 1e-6 * np.maximum(1.0, np.abs(fd[rows, k % 3]))
    Y = np.concatenate([wide, fd])
    got = _energies(table, Y)
    compared = 0
    for i, y in enumerate(Y.tolist()):
        try:
            H = _oracle_float_flow(pairs, y)[0]
        except CollinearError:
            continue
        if math.isfinite(H):
            assert float(got[i]).hex() == H.hex(), (system, y)
            compared += 1
    assert compared >= n + n // 4


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
