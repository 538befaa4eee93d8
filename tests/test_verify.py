import itertools
import math
from unittest import mock

import numpy as np
import pytest

from trihill import verify
from trihill.critical import (
    CriticalValue,
    critical_catalog,
    nu_diabolic,
    nu_infinity,
    nu_lagrange,
    nu_langmuir,
)
from trihill.errors import DomainError, UnsupportedFamilyError
from trihill.hill import HillMembership, _normalized_rotational_energy, shape_eval
from trihill.reduction import hamiltonian, relequil_residual
from trihill.systems import BodySystem
from trihill.verify import VerificationReport, build_relequil_state, verify_all

from conftest import oracle_lambda_grid_rebuild, oracle_positions, oracle_potential


def test_build_relequil_langmuir(helium):
    state = build_relequil_state(helium, nu_langmuir(helium), r=1.0)
    res1, res3 = relequil_residual(helium, state.jacobi(), state.J)
    assert np.linalg.norm(res1) < 1e-8
    assert np.linalg.norm(res3) < 1e-8
    assert np.linalg.norm(state.J) == pytest.approx(1.0, rel=1e-12)


def test_build_relequil_lagrange_virial(gravity):
    cv = nu_lagrange(gravity)
    state = build_relequil_state(gravity, cv, r=2.0)
    res1, res3 = relequil_residual(gravity, state.jacobi(), state.J)
    assert max(np.linalg.norm(res1), np.linalg.norm(res3)) < 1e-8
    E = hamiltonian(gravity, state)
    j = state.jacobi()
    V = oracle_potential(gravity, oracle_positions(gravity, j.rho1, j.rho2, j.phi))
    assert E == pytest.approx(0.5 * V, rel=1e-10)
    # nu recomputed from the constructed state matches the catalog entry
    assert -E * 4.0 == pytest.approx(cv.nu, rel=1e-9)


def test_build_relequil_scale_covers_r(gravity):
    cv = nu_lagrange(gravity)
    for r in (0.5, 1.0, 3.0):
        state = build_relequil_state(gravity, cv, r=r)
        assert np.linalg.norm(state.J) == pytest.approx(r, rel=1e-12)
        assert -hamiltonian(gravity, state) * r * r == pytest.approx(cv.nu, rel=1e-9)


def test_build_relequil_rejects_families_without_shape(gravity):
    zero = CriticalValue(0.0, "zero")
    with pytest.raises(UnsupportedFamilyError):
        build_relequil_state(gravity, zero, r=1.0)
    inf_entry = nu_infinity(gravity)[0]
    with pytest.raises(Exception):
        build_relequil_state(gravity, inf_entry, r=1.0)
    coll = [cv for cv in critical_catalog(gravity) if cv.family == "collinear"][0]
    with pytest.raises(Exception):
        build_relequil_state(gravity, coll, r=1.0)
    with pytest.raises(ValueError):
        build_relequil_state(gravity, nu_lagrange(gravity), r=0.0)


@pytest.mark.parametrize("r", [math.inf, math.nan])
def test_build_relequil_rejects_non_finite_r(gravity, r):
    with pytest.raises(DomainError):
        build_relequil_state(gravity, nu_lagrange(gravity), r=r)


def test_build_relequil_diabolic_has_zero_torque(helium):
    # the diabolic entry is a pseudo critical point: any in-plane J is a
    # principal direction (res1 = 0) but the shape is not force balanced
    state = build_relequil_state(helium, nu_diabolic(helium), r=1.0)
    res1, res3 = relequil_residual(helium, state.jacobi(), state.J)
    assert np.linalg.norm(res1) < 1e-12
    assert np.linalg.norm(res3) > 1e-3


def test_report_text_format():
    report = VerificationReport()
    report.add("alpha", 0.5, 1.0, "note here")
    report.add("beta", 2.0, 1.0)
    text = report.text()
    assert "CHECK alpha PASS measured=0.5 tol=1 (note here)" in text
    assert "CHECK beta FAIL measured=2 tol=1" in text
    assert not report.ok
    assert report.checks[0].line().startswith("CHECK alpha PASS")


def test_verify_all_eep(eep):
    report = verify_all(eep, deep=False)
    assert report.ok, "\n" + "\n".join(c.line() for c in report.checks if not c.passed)
    names = [c.name for c in report.checks]
    assert "catalog.reference" in names
    assert "langmuir.force_balance" in names
    assert "hill.membership_oracle" in names


def test_verify_all_gravity(gravity):
    report = verify_all(gravity, deep=False)
    assert report.ok, "\n" + "\n".join(c.line() for c in report.checks if not c.passed)
    names = [c.name for c in report.checks]
    assert "lagrange.search_crosscheck" in names
    assert "lagrange.residual" in names


def test_verify_all_non_preset_system():
    from trihill.systems import gravitational

    report = verify_all(gravitational((1.0, 1.0, 1.0)), deep=False)
    assert report.ok, "\n" + "\n".join(c.line() for c in report.checks if not c.passed)
    # no reference catalog for unknown systems
    assert "catalog.reference" not in [c.name for c in report.checks]


def test_nonphysical_diabolic_value_is_omitted():
    # Vt(0, 0) = -sqrt(2) sum a_ij sqrt(mu_ij) = +0.323 here, so the centre is
    # never admissible at nu > 0 and no class changes at the diabolic value
    from trihill.hill import v_tilde
    from trihill.systems import BodySystem

    system = BodySystem((1.0, 2.0, 3.0), (1.0, -2.0, 0.5))
    assert v_tilde(system, 0.0, 0.0) == pytest.approx(0.3229461351, rel=1e-9)
    assert not nu_diabolic(system).physical
    assert "diabolic" not in [cv.family for cv in critical_catalog(system)]
    report = verify_all(system, deep=False)
    assert report.ok, "\n" + "\n".join(c.line() for c in report.checks if not c.passed)


def test_collision_angle_check_fails_on_a_wrong_angle(monkeypatch, all_systems):
    # the check measures distances from body positions, so a psi12 off by
    # 0.1 rad must FAIL; distances built from the angles themselves vanish
    # on any ray they are given
    from trihill import coords, verify

    right = coords.collision_angles

    def shifted(system):
        psi12, psi23, psi13 = right(system)
        return psi12 + 0.1, psi23, psi13

    def check(system):
        report = VerificationReport()
        verify._collision_angle_check(report, system)
        (result,) = report.checks
        assert result.name == "coords.collision_angles"
        return result.passed

    assert all(check(system) for system in all_systems.values())
    for module in (coords, verify):
        monkeypatch.setattr(module, "collision_angles", shifted)
    assert not any(check(system) for system in all_systems.values())


_SIGNS = list(itertools.product((1.0, -1.0), repeat=3))


def _oracle_checks(system, samples):
    """The checks of ``_oracle_suites`` at ``samples``, by name."""
    report = VerificationReport()
    verify._oracle_suites(report, system, samples)
    return {c.name: c for c in report.checks}


def _signed_system(rng, signs):
    """Masses U(0.1, 5), coupling magnitudes U(0.05, 3) with ``signs``."""
    masses = tuple(float(m) for m in rng.uniform(0.1, 5.0, 3))
    magnitudes = rng.uniform(0.05, 3.0, 3)
    return BodySystem(masses, tuple(float(s * m) for s, m in zip(signs, magnitudes)))


@pytest.mark.parametrize("signs", _SIGNS)
def test_lambda_grid_member_matches_per_lambda_rebuild(signs):
    # replays the deep oracle draws (seed 5150, 150 samples) through both scans
    rng = np.random.default_rng((1500, _SIGNS.index(signs)))
    one_tensor = verify.lambda_grid_member
    got, want = [], []

    def both(*args):
        got.append(one_tensor(*args))
        want.append(oracle_lambda_grid_rebuild(*args))
        return got[-1]

    with mock.patch.object(verify, "lambda_grid_member", both):
        for _ in range(2):
            _oracle_checks(_signed_system(rng, signs), 150)
    assert len(got) == 300
    assert got == want


def test_membership_oracle_fails_on_a_wrong_discriminant(monkeypatch, all_systems):
    # f_analysis with the factor 4 of disc = 4 E E_R + Vt^2 left out: the
    # dilation-grid oracle must see the wrong members on every preset
    def wrong(system, E, r, shape, j_hat):
        ev = shape_eval(system, shape)
        E_R = r * r * _normalized_rotational_energy(ev, j_hat)
        disc = E * E_R + ev.v_tilde**2
        member = E > 0.0 or (ev.v_tilde < 0.0 and disc >= 0.0)
        return HillMembership(member, "wrong", disc)

    def passes(system):
        return _oracle_checks(system, 150)["hill.membership_oracle"].passed

    assert all(passes(system) for system in all_systems.values())
    monkeypatch.setattr(verify, "membership", wrong)
    assert not any(passes(system) for system in all_systems.values())


def test_oracle_suites_at_the_deep_sample_count(all_systems):
    rng = np.random.default_rng(2026)
    systems = [*all_systems.values(), *(_signed_system(rng, signs) for signs in _SIGNS)]
    for system in systems:
        checks = _oracle_checks(system, 150)
        for name in ("hill.membership_oracle", "hill.orientation_oracle"):
            assert checks[name].measured == 0.0, (system, checks[name].line())
