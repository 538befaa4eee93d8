import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from trihill import coords, critical, hill, reduction, verify
from trihill.critical import (
    CriticalValue,
    critical_catalog,
    nu_diabolic,
    nu_infinity,
    nu_lagrange,
    nu_langmuir,
)
from trihill.errors import DomainError, UnsupportedFamilyError
from trihill.hill import (
    HillMembership,
    ShapeEvaluation,
    _normalized_rotational_energy,
    class_codes,
    moments,
    shape_eval,
)
from trihill.reduction import hamiltonian, relequil_residual, relequil_spectrum
from trihill.scan import euler_characteristics, scan_disk
from trihill.systems import BodySystem, gravitational
from trihill.verify import VerificationReport, build_relequil_state, verify_all

from conftest import (
    adversarial_masks,
    count_calls,
    forbid,
    mutant,
    _oracle_near_threshold,
    oracle_count_components_periodic,
    oracle_lambda_grid_rebuild,
    oracle_oracle_suites,
    oracle_positions,
    oracle_potential,
    oracle_sphere_orientation_class,
    sphere_grid,
    spiral_mask,
    unfold,
    verify_workload_systems,
)

# The builders of verify's seeded samples, each cached per process.
_SAMPLE_BUILDERS = (verify._eom_samples, verify._oracle_samples, verify._kick_direction)


def _clear_sample_caches():
    for builder in _SAMPLE_BUILDERS:
        builder.cache_clear()


def _cold_and_warm(argnames, cases):
    """Parameters of a mutant test: each case (id, values) once with cache
    "cold", under its own id, and once with "warm", under id-warm."""
    params = [pytest.param(*values, "cold", id=case) for case, values in cases]
    params += [pytest.param(*values, "warm", id=f"{case}-warm") for case, values in cases]
    return pytest.mark.parametrize(f"{argnames}, cache", params)


def _set_sample_cache(cache):
    """Called after a mutant test's unpatched calls, before its patch:
    "cold" clears the seeded samples, so that the patched calls draw them
    again; "warm" keeps the samples that the unpatched calls drew."""
    if cache == "cold":
        _clear_sample_caches()


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
    with pytest.raises(UnsupportedFamilyError):
        nu_diabolic(system)
    assert "diabolic" not in [cv.family for cv in critical_catalog(system)]
    report = verify_all(system, deep=False)
    assert report.ok, "\n" + "\n".join(c.line() for c in report.checks if not c.passed)


@pytest.mark.parametrize(
    "name, family",
    [
        ("gravity-demo", "diabolic"),
        ("gravity-demo", "lagrange"),
        ("helium", "diabolic"),
        ("helium", "langmuir"),
        ("eep", "langmuir"),
    ],
)
def test_event_check_fails_when_its_entry_moves_into_the_gap_above(all_systems, name, family):
    # The event stays where the closed form puts it, so across a value moved
    # to the middle of its upper gap no Euler characteristic changes.
    system = all_systems[name]
    catalog = critical_catalog(system)
    i = next(i for i, cv in enumerate(catalog) if cv.family == family)

    def event(catalog):
        report = VerificationReport()
        verify._census_event_checks(report, system, catalog)
        (check,) = [c for c in report.checks if c.name == f"scan.{family}_event"]
        return check

    check = event(catalog)
    assert check.passed, check.line()
    moved = replace(catalog[i], nu=0.5 * (catalog[i].nu + catalog[i + 1].nu))
    check = event([*catalog[:i], moved, *catalog[i + 1 :]])
    assert not check.passed, check.line()


# The random systems of the benchmark's verify workload at seeds 1, 2 and 7
# that get a diabolic event check: masses, couplings and the ratio
# |grad Vt(0)|/|Vt(0)| to three digits.  On the 8 with ratio > 1/2 the Full
# region keeps its chi across nu_diabolic, so no event there is expected.
_WORKLOAD_DIABOLIC = {
    "seed1-random0": (
        (2.0346432563515857, 4.2663599352342105, 4.619563008010019),
        (0.122930342334298, 2.0164352736323705, 2.9511561642842494),
        0.324,
    ),
    "seed1-random2": (
        (3.684246557545432, 0.18601227343049614, 0.6485148561099292),
        (-0.3138705358144698, -0.20288149664585742, 1.979125127929148),
        0.824,
    ),
    "seed1-random3": (
        (2.544170280241229, 3.027558235909911, 1.6740557862752197),
        (-0.30788918598666815, 2.122048832687015, 0.01988345184225704),
        0.603,
    ),
    "seed1-random8": (
        (1.7122299430039583, 0.5954619060858373, 4.697739392826468),
        (0.013571315085862068, 2.9587123097943318, -2.3538599382393572),
        1.265,
    ),
    "seed1-random9": (
        (2.031843087184729, 4.882287397151246, 3.971518919863578),
        (-0.4755053790279353, 2.8738892321205327, 1.6900892154664122),
        0.479,
    ),
    "seed2-random0": (
        (2.632670071740544, 3.2954863423555816, 1.7110484538963129),
        (2.684494117751292, 0.5499629947925966, 0.7240986283458781),
        0.248,
    ),
    "seed2-random3": (
        (2.145273830085308, 3.4463283457422773, 4.415987786021374),
        (-2.0321964065332514, 1.769342431059016, 2.280672211883834),
        1.529,
    ),
    "seed2-random5": (
        (1.3861771179323408, 1.9856723949408257, 4.584859583109549),
        (1.12287948406901, -0.9142879776886308, 0.010593475063422453),
        2.814,
    ),
    "seed7-random3": (
        (4.929663065497663, 4.689351278608639, 2.0498306128036234),
        (2.3413849251057988, 2.0627155928166827, 0.960213556705761),
        0.164,
    ),
    "seed7-random4": (
        (4.9297073822446835, 2.5841900165046088, 0.48349297956168047),
        (-1.0453203489969236, 2.4907475847278366, 1.7958444246659955),
        0.247,
    ),
    "seed7-random5": (
        (1.587625983032376, 4.709517605751723, 1.4394989789696733),
        (-1.5872406697344972, 2.6129833760438395, 0.248244097633199),
        1.803,
    ),
    "seed7-random9": (
        (2.3856669993510797, 4.585123559483765, 1.7790846116163865),
        (2.3534472497898244, -1.0832642022583883, 1.088949136398666),
        0.438,
    ),
    "seed7-random10": (
        (0.1960034331600296, 4.942756335404763, 4.780009898358496),
        (1.1397209962546508, 0.3909753424967777, -2.480540308097394),
        1.537,
    ),
    "seed7-random11": (
        (2.6724002871156154, 2.6003298378929065, 0.9269207497093876),
        (1.2660129193975074, -1.8250841619441687, 0.6329183969081553),
        3.927,
    ),
}


def _diabolic_check(system):
    """The ``scan.diabolic_event`` check of ``system``'s own catalog."""
    report = VerificationReport()
    verify._census_event_checks(report, system, critical_catalog(system))
    (check,) = [c for c in report.checks if c.name == "scan.diabolic_event"]
    return check


@pytest.mark.parametrize("name", sorted(_WORKLOAD_DIABOLIC))
def test_diabolic_event_check_passes_on_the_verify_workload(name):
    # the Full region changes chi by one across nu_diabolic only where the
    # ratio is below 1/2; above it the check passes with "no event"
    masses, couplings, ratio = _WORKLOAD_DIABOLIC[name]
    system = BodySystem(masses, couplings)
    assert critical._diabolic_event(system) == (ratio < 0.5, pytest.approx(ratio, abs=5e-4))
    check = _diabolic_check(system)
    assert check.passed, check.line()
    assert check.note.endswith(", no event") == (ratio > 0.5), check.line()


@pytest.mark.parametrize(
    "new, failing",
    [
        ("ratio > 0.5", ["gravity-demo", "helium"]),  # ratios 0.048 and 0.107
        ("ratio < 0.25", ["seed1-random0", "seed1-random9"]),
        ("ratio < 1.0", ["seed1-random2", "seed1-random3"]),
    ],
)
def test_diabolic_event_check_fails_on_a_wrong_rule(monkeypatch, all_systems, new, failing):
    workload = {name: BodySystem(m, a) for name, (m, a, _) in _WORKLOAD_DIABOLIC.items()}
    systems = [{**all_systems, **workload}[name] for name in failing]
    assert all(_diabolic_check(system).passed for system in systems)
    mutant(monkeypatch, critical._diabolic_event, "ratio < 0.5", new)
    for system in systems:
        check = _diabolic_check(system)
        assert not check.passed, check.line()


def test_diabolic_event_check_on_random_systems():
    # Each diabolic check over 300 draws passes, or has an equilibrium of
    # sqrt(Mt_1) Vt or sqrt(Mt_2) Vt that the catalog does not list inside
    # its probe window, or has a Full region finer than the res-400 pixels
    # that shows the predicted change at res 1600 with the same probes.
    rng = np.random.default_rng(3)
    events, unresolved = [], []
    for _ in range(300):
        system = BodySystem(tuple(rng.uniform(0.1, 5, 3)), tuple(rng.uniform(-3, 3, 3)))
        catalog = critical_catalog(system)
        report = VerificationReport()
        verify._census_event_checks(report, system, catalog)
        checks = [c for c in report.checks if c.name == "scan.diabolic_event"]
        if not checks:
            continue
        (check,) = checks
        event, _ = critical._diabolic_event(system)
        events.append(event)
        if check.passed:
            continue
        i = next(i for i, cv in enumerate(catalog) if cv.family == "diabolic")
        nus = [cv.nu for cv in catalog]
        lo = nus[i] - nus[i - 1] if i > 0 else nus[i]
        hi = nus[i + 1] - nus[i] if i + 1 < len(nus) else lo
        probes = (nus[i] - 0.01 * lo, nus[i] + 0.01 * hi)
        hits = [
            nu
            for k in (1, 2)
            for _, nu in critical.find_critical_shapes(system, k)
            if probes[0] <= nu <= probes[1]
        ]
        if hits:
            continue
        below, above = (euler_characteristics(scan_disk(system, nu, 1600)) for nu in probes)
        assert abs(above[2] - below[2]) == int(event), (system, check.line(), below, above)
        unresolved.append(system)
    assert (events.count(True), events.count(False)) == (61, 82)
    assert len(unresolved) == 1


@pytest.mark.parametrize(
    "name, family", [("gravity-demo", "lagrange"), ("helium", "langmuir"), ("eep", "langmuir")]
)
def test_relequil_checks_fail_on_a_moved_stored_shape(monkeypatch, all_systems, name, family):
    # nu is stationary in w at a critical point, so catalog.nu_identity
    # misses a stored shape moved by 1e-4; the rotation built on that shape
    # is out of balance, and verify builds it from the catalog it is given.
    def moved(system):
        return [
            replace(cv, w=(cv.w[0] * (1.0 + 1e-4), cv.w[1])) if cv.family == family else cv
            for cv in critical_catalog(system)
        ]

    monkeypatch.setattr(verify, "critical_catalog", moved)
    report = verify_all(all_systems[name], deep=False)
    (check,) = [c for c in report.checks if c.name == f"{family}.residual"]
    assert not check.passed, check.line()


def _relequil_reports(all_systems):
    """Each preset's _relequil_checks report on its Lagrange or Langmuir entry."""
    for name, system in all_systems.items():
        for entry in critical_catalog(system):
            if entry.axis is not None and entry.family != "diabolic":
                report = VerificationReport()
                verify._relequil_checks(report, system, entry)
                yield name, report


@pytest.mark.parametrize("start", ["rho1 * (1 + 1e-12)", "r = 1.1"])
def test_relequil_checks_hold_off_the_exact_start_bits(monkeypatch, all_systems, start):
    # A 10,000-step run of these unstable rotations spans 33-64 e-folds and
    # held only because the float start is nearly a fixed point of the RK4
    # map; a start 1e-12 away drifted 3.2, 30 and 5.5, and helium at r = 1.1
    # drifted 0.0106.  The checks now read each run within its horizon.
    if start == "r = 1.1":
        monkeypatch.setattr(verify, "RELEQUIL_R", 1.1)
    else:
        build = verify.build_relequil_state

        def nudged(system, entry, r):
            state = build(system, entry, r)
            state.q[0] *= 1.0 + 1e-12
            return state

        monkeypatch.setattr(verify, "build_relequil_state", nudged)
    for name, report in _relequil_reports(all_systems):
        assert report.ok, f"{name}:\n{report.text()}"
        assert any(c.name.endswith(".growth_rate") for c in report.checks), name


@_cold_and_warm(
    "func, old, new, catcher",
    [
        # the gauge coupling J.A dropped from the kinetic momentum p - J.A
        (
            "flow_without_gauge_coupling",
            (reduction._flow, "u3 = p3 - J3 * a_phi", "u3 = p3", "linearization"),
        ),
        # the virial dilation of the shared start off by 1e-4
        (
            "virial_rescale",
            (
                critical._relequil_start,
                "lam = r * r / ",
                "lam = (1.0 + 1e-4) * r * r / ",
                "qp_drift",
            ),
        ),
    ],
)
def test_relequil_checks_catch_mutants(monkeypatch, all_systems, func, old, new, catcher, cache):
    # The old 10,000-step qp_drift caught the gauge mutant on gravity-demo
    # and helium and the virial mutant on all three presets.  The 10-e-fold
    # drift still sees a start off the equilibrium, but not this flow on
    # helium, whose Langmuir start has J3 = p3 = 0; the Jacobian checked
    # against the energy's Hessian does, on every preset.
    for name, report in _relequil_reports(all_systems):
        assert report.ok, f"{name}:\n{report.text()}"
    _set_sample_cache(cache)
    mutant(monkeypatch, func, old, new)
    for name, report in _relequil_reports(all_systems):
        failed = {c.name.split(".")[1] for c in report.checks if not c.passed}
        assert catcher in failed, f"{name}:\n{report.text()}"


def _linearization_readings(systems):
    """``_linearization_error`` at each Lagrange or Langmuir entry of
    ``systems``, at |J| = 1."""
    for system in systems:
        for entry in critical_catalog(system):
            if entry.family in ("lagrange", "langmuir"):
                state = build_relequil_state(system, entry, 1.0)
                yield verify._linearization_error(system, state, relequil_spectrum(system, state))


def test_linearization_reads_the_energy_to_rounding(monkeypatch, all_systems):
    # The energy's Jacobian is the spectrum's own central difference, of
    # the energy's complex-step field at the flow's displaced states, so
    # the two differ by rounding over the step (1.1e-11 to 2.7e-11 on the
    # presets), and a flow term off by 1e-8 relative shows on every preset.
    rng = np.random.default_rng(48)
    systems = [*all_systems.values()]
    for _ in range(10):
        systems.append(gravitational(tuple(rng.uniform(0.1, 5.0, 3).tolist())))
        (m, apex), g = rng.uniform(0.1, 5.0, 2).tolist(), float(rng.uniform(0.5, 3.0))
        e = 4.0 * g * float(rng.uniform(0.05, 0.95))  # sin(theta)^3 = e / (4 g)
        systems.append(BodySystem((m, m, apex), (g, g, -e)))
    readings = list(_linearization_readings(systems))
    assert len(readings) == len(systems)
    assert max(readings) <= 1e-9, readings
    mutant(monkeypatch, reduction._flow, "g33u3,\n", "g33u3 * (1.0 + 1e-8),\n")
    readings = list(_linearization_readings(all_systems.values()))
    assert len(readings) == 3 and min(readings) > 1e-9, readings


def test_relequil_checks_of_a_stable_triangle_take_the_full_run():
    # 27 beta = 27 (m1 m2 + m1 m3 + m2 m3) / M^2 is about 0.29: Routh-stable
    system = gravitational((1.0, 0.01, 0.001))
    (entry,) = [cv for cv in critical_catalog(system) if cv.family == "lagrange"]
    report = VerificationReport()
    verify._relequil_checks(report, system, entry)
    checks = {c.name: c for c in report.checks}
    assert report.ok, report.text()
    assert "lagrange.growth_rate" not in checks
    assert checks["lagrange.stability"].note.endswith(", stable")
    assert checks["lagrange.complete"].note == "10000 steps"


def test_growth_rate_fails_on_a_wrong_spectrum(monkeypatch, helium):
    # The fitted growth of a perturbed run is measured apart from the
    # spectrum: a max Re lambda 10% off must FAIL it.
    def scaled(system, state):
        spectrum = relequil_spectrum(system, state)
        return replace(spectrum, eigenvalues=1.1 * spectrum.eigenvalues)

    monkeypatch.setattr(verify, "relequil_spectrum", scaled)
    report = VerificationReport()
    verify._relequil_checks(report, helium, nu_langmuir(helium))
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == ["langmuir.growth_rate"], report.text()


def _without_last(catalog):
    return catalog[:-1]


def _infinity_scaled(catalog):
    return [
        replace(cv, nu=cv.nu * (1.0 + 1e-6)) if cv.family == "infinity" else cv for cv in catalog
    ]


def _collinear_renamed(catalog):
    return [replace(cv, family="infinity") if cv.family == "collinear" else cv for cv in catalog]


@pytest.mark.parametrize(
    "edit, passed, note",
    [
        (list, True, "5 values"),
        (_without_last, False, "expected 5 entries, got 4"),
        (_infinity_scaled, False, "5 values"),
        (_collinear_renamed, False, "5 values"),
    ],
)
def test_catalog_reference_fails_on_a_changed_entry(monkeypatch, helium, edit, passed, note):
    # the helium entries with no axis (zero, infinity, collinear), which no
    # other check reads: a missing entry, a nu off by 1e-6 relative and a
    # wrong family must each FAIL
    catalog = critical_catalog(helium)
    monkeypatch.setattr(verify, "critical_catalog", lambda system: edit(catalog))
    report = verify_all(helium, deep=False)
    (check,) = [c for c in report.checks if c.name == "catalog.reference"]
    assert check.passed == passed and check.note.startswith(note), check.line()


@pytest.mark.parametrize("name", ["gravity-demo", "helium", "eep"])
def test_verify_all_solves_each_closed_form_once(monkeypatch, all_systems, name):
    # the catalog's call; verify checks the entries it lists
    calls = [count_calls(monkeypatch, f) for f in (critical.nu_lagrange, critical.nu_langmuir)]
    verify_all(all_systems[name], deep=False)
    assert [len(c) for c in calls] == [1, 1]


def _collision_angle_check_passes(system):
    report = VerificationReport()
    verify._collision_angle_check(report, system)
    (result,) = report.checks
    assert result.name == "coords.collision_angles"
    return result.passed


def test_collision_angle_check_fails_on_a_wrong_angle(monkeypatch, all_systems):
    # the check reads each ray against the rim point of its pair's collision,
    # placed from the masses alone, so a psi12 off by 0.1 rad or by 1e-9
    # relative, or psi12 and psi23 swapped, must FAIL on every preset; so
    # must a rim rule with w2 halved, which makes every collinear w wrong
    # and yet passes every other check of verify on the presets
    from trihill import coords

    right = coords.collision_angles
    edits = [
        lambda psi12, psi23, psi13: (psi12 + 0.1, psi23, psi13),
        lambda psi12, psi23, psi13: (psi12 * (1.0 + 1e-9), psi23, psi13),
        lambda psi12, psi23, psi13: (psi23, psi12, psi13),
    ]
    assert all(_collision_angle_check_passes(system) for system in all_systems.values())
    for edit in edits:
        with monkeypatch.context() as patch:
            for module in (coords, verify):
                patch.setattr(module, "collision_angles", lambda system: edit(*right(system)))
            assert not any(_collision_angle_check_passes(s) for s in all_systems.values())
    mutant(monkeypatch, coords._rim_point, "2.0 * a * b / omega", "a * b / omega")
    assert not any(_collision_angle_check_passes(s) for s in all_systems.values())


def test_collision_angle_check_passes_on_masses_spanning_decades():
    # masses and |couplings| 10^U(-30, 30) with random signs: many of these
    # rays lie within rounding of the w1 axis or of +-pi, where no way
    # through the chart and a distance ratio can place the collision
    rng = np.random.default_rng(96)
    for _ in range(500):
        masses = tuple(float(m) for m in 10 ** rng.uniform(-30, 30, 3))
        couplings = 10 ** rng.uniform(-30, 30, 3) * rng.choice([-1, 1], 3)
        system = BodySystem(masses, tuple(float(a) for a in couplings))
        assert _collision_angle_check_passes(system), system


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
    # replays the deep oracle draws (seed 5150, 150 samples) through the
    # batched scan and, sample by sample, through the per-lambda rebuild
    rng = np.random.default_rng((1500, _SIGNS.index(signs)))
    batched = verify.lambda_grid_member
    calls = []

    def record(*args):
        calls.append((args, batched(*args)))
        return calls[-1][1]

    with mock.patch.object(verify, "lambda_grid_member", record):
        for _ in range(2):
            _oracle_checks(_signed_system(rng, signs), 150)
    got, want = [], []
    for (system, bases, j_hats, Es, rs, lam_grid), member in calls:
        got += member.tolist()
        for sample in zip(bases, j_hats, Es, rs):
            want.append(oracle_lambda_grid_rebuild(system, *sample, lam_grid))
    assert len(calls) == 2 and len(want) == 300
    assert got == want


@pytest.mark.parametrize("samples", [150, 30])
@pytest.mark.parametrize("group", ["presets and signs", 1, 2, 7])
def test_oracle_suites_match_the_per_sample_loop(all_systems, group, samples):
    # the batched suite's two CHECK lines against the scalar loop it
    # replaced: presets and one system per sign pattern, and the benchmark's
    # verify-workload systems at seeds 1, 2 and 7
    if group == "presets and signs":
        rng = np.random.default_rng(31)
        systems = [*all_systems.values(), *(_signed_system(rng, signs) for signs in _SIGNS)]
    else:
        systems = verify_workload_systems(group)
    for system in systems:
        report = VerificationReport()
        verify._oracle_suites(report, system, samples)
        assert report.text() == oracle_oracle_suites(system, samples), system


def test_oracle_suites_call_the_scalar_rules_sample_by_sample(monkeypatch, all_systems):
    # the rules under test stay scalar calls: membership once per sample,
    # class_codes once per sample kept off the thresholds, each on floats
    rng = np.random.default_rng(41)
    systems = [*all_systems.values(), *(_signed_system(rng, signs) for signs in _SIGNS[:2])]
    member = count_calls(monkeypatch, hill.membership)
    codes = count_calls(monkeypatch, hill.class_codes)
    near = count_calls(monkeypatch, verify._near_threshold)
    for system in systems:
        for samples in (150, 30):
            del member[:], codes[:], near[:]
            verify._oracle_suites(VerificationReport(), system, samples)
            (args,) = near
            kept = int(np.count_nonzero(~verify._near_threshold(*args)))
            assert len(member) == samples and len(codes) == kept >= samples // 2
            assert all(isinstance(E, float) and isinstance(r, float) for _, E, r, _, _ in member)
            assert all(isinstance(nu, float) and isinstance(v, float) for nu, v, _ in codes)


@pytest.mark.parametrize("cache", ["cold", "warm"])
def test_membership_oracle_fails_on_a_wrong_discriminant(monkeypatch, all_systems, cache):
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
    _set_sample_cache(cache)
    monkeypatch.setattr(verify, "membership", wrong)
    assert not any(passes(system) for system in all_systems.values())


def test_oracle_suites_at_the_deep_sample_count(all_systems):
    rng = np.random.default_rng(2026)
    systems = [*all_systems.values(), *(_signed_system(rng, signs) for signs in _SIGNS)]
    for system in systems:
        checks = _oracle_checks(system, 150)
        for name in ("hill.membership_oracle", "hill.orientation_oracle"):
            assert checks[name].measured == 0.0, (system, checks[name].line())


def _threshold_one_over_m(nu, v_tilde, m_tilde):
    # class_codes with the thresholds 1/Mt_k in place of 1/(2 Mt_k)
    return class_codes(nu, v_tilde, tuple(0.5 * np.asarray(m) for m in m_tilde))


def _swapped_moments(s):
    # Mt1 and Mt2 trade places
    m1, m2, m3 = moments(s)
    return m2, m1, m3


# Mutants the suites caught before they were batched, by the check that
# catches each.  A '>' for '>=' in class_codes is caught by neither: the
# suite skips the samples whose nu lies near a threshold.
# test_hill.test_class_codes_tie_semantics catches it at exact ties.
_MUTANTS = {
    "class_codes 1/m": ("class_codes", _threshold_one_over_m, "hill.orientation_oracle"),
    "swapped moments": ("moments", _swapped_moments, "hill.membership_oracle"),
}


@_cold_and_warm("mutant", [(mutant, (mutant,)) for mutant in sorted(_MUTANTS)])
def test_oracle_suites_fail_on_a_mutant(monkeypatch, all_systems, mutant, cache):
    name, replacement, check = _MUTANTS[mutant]

    def passes(system, samples):
        return _oracle_checks(system, samples)[check].passed

    for samples in (150, 30):
        assert all(passes(system, samples) for system in all_systems.values()), samples
    _set_sample_cache(cache)
    for module in (hill, verify):
        monkeypatch.setattr(module, name, replacement)
    for samples in (150, 30):
        assert not any(passes(system, samples) for system in all_systems.values()), samples


def _eom_measured(system):
    report = VerificationReport()
    verify._eom_suite(report, system, 300)
    (check,) = report.checks
    assert check.name == "eom.complex_step" and check.tol == 1e-12
    return check.measured


def _eom_per_state_error(system, samples=300):
    """The worst error of ``reduction.eom`` against the flow that H implies,
    (dH/dp, -dH/dq, J x dH/dJ), with complex-step derivatives
    dH/dy_k = Im H(y + i h e_k) / h, h = 1e-30, each from a one-row
    ``_energies`` call, at the eom suite's states (seed 13, drawn here),
    scaled as the suite scales: by max(1, the state's largest |rate|)."""
    rng = np.random.default_rng(13)
    table = reduction._chart_table(system)
    worst = 0.0
    for _ in range(samples):
        q = [rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0), rng.uniform(0.3, math.pi - 0.3)]
        p, J = rng.normal(0.0, 1.0, 3), rng.normal(0.0, 1.0, 3)
        y = np.array([*q, *p, *J])
        d = reduction.eom(system, reduction.RovibState(y[:3], p, J)).flat()
        rows = [(y + 1e-30j * e)[None] for e in np.eye(9)]
        dH = np.array([reduction._energies(table, row)[0].imag / 1e-30 for row in rows])
        want = np.concatenate([dH[3:6], -dH[:3], np.cross(J, dH[6:])])
        worst = verify._worst(worst, *np.abs(d - want) / max(1.0, *np.abs(d)))
    return worst


def test_eom_matches_complex_steps_of_the_energy_per_state(all_systems):
    # the flow against its energy state by state, on the presets and two
    # systems of each sign pattern; the suite reads the same worst case
    rng = np.random.default_rng(1414)
    systems = [*all_systems.values()]
    systems += [_signed_system(rng, signs) for signs in _SIGNS for _ in range(2)]
    for system in systems:
        worst = _eom_per_state_error(system)
        assert worst <= 1e-12, system
        assert _eom_measured(system) == pytest.approx(worst, rel=0.0, abs=1e-15), system


def test_eom_suite_reads_the_flow_not_hamiltonian(monkeypatch, all_systems):
    want = {name: _eom_per_state_error(system) for name, system in all_systems.items()}
    forbid(monkeypatch, reduction.hamiltonian)
    for name, system in all_systems.items():
        assert _eom_measured(system) == pytest.approx(want[name], rel=0.0, abs=1e-15), name


@_cold_and_warm("k", [(str(k), (k,)) for k in (3, 4, 5)])
def test_eom_suite_catches_a_wrong_flow_or_a_wrong_energy(monkeypatch, all_systems, k, cache):
    # The suite's flow comes from _flow and its energies from _energies: a
    # relative 1e-4 in one pdot component, or an energy term the flow does
    # not have, fails it on every preset.
    def passes(system):
        report = VerificationReport()
        verify._eom_suite(report, system, 300)
        return report.checks[0].passed

    flow, energies = verify._flow, verify._energies
    assert all(passes(system) for system in all_systems.values())
    _set_sample_cache(cache)

    def wrong_flow(table, y):
        ydot = flow(table, y)
        return (*ydot[:k], ydot[k] * (1.0 + 1e-4), *ydot[k + 1 :])

    monkeypatch.setattr(verify, "_flow", wrong_flow)
    assert not any(passes(system) for system in all_systems.values())
    monkeypatch.setattr(verify, "_flow", flow)
    _set_sample_cache(cache)
    monkeypatch.setattr(
        verify, "_energies", lambda table, Y: energies(table, Y) + 1e-3 * Y[:, 0] ** 2
    )
    assert not any(passes(system) for system in all_systems.values())


def test_eom_check_catches_a_flow_term_off_by_1e_8(monkeypatch, all_systems):
    # phi's rate g33 u3 scaled by 1 + 1e-8: one term of the flow off by
    # 1e-8 relative, far above the check's 1e-12
    mutant(monkeypatch, reduction._flow, "g33u3,\n", "g33u3 * (1.0 + 1e-8),\n")
    for system in all_systems.values():
        report = VerificationReport()
        verify._eom_suite(report, system, 300)
        (check,) = report.checks
        assert not check.passed and 1e-9 < check.measured < 1e-7, system


@pytest.mark.parametrize(
    "new, low, high",
    [
        # g3 = dH/dJ3 without its gauge term: Jdot stays normal to J
        ("g3 = w3\n", 0.5, 2.0),
        # g3 off by 1e-8 relative, in both Jdot components that read it
        ("g3 = (w3 - g33u3 * a_phi) * (1.0 + 1e-8)\n", 1e-9, 1e-7),
    ],
    ids=["gauge_term_dropped", "off_by_1e_8"],
)
def test_eom_check_catches_a_wrong_Jdot(monkeypatch, all_systems, new, low, high):
    # Both mutants keep J . Jdot = 0, so a check of that identity alone
    # passes them; Jdot against J x dH/dJ does not, on every preset
    mutant(monkeypatch, reduction._flow, "g3 = w3 - g33u3 * a_phi\n", new)
    for system in all_systems.values():
        report = VerificationReport()
        verify._eom_suite(report, system, 300)
        (check,) = report.checks
        assert not check.passed and low < check.measured < high, (system, check.measured)


def test_eom_suite_fails_on_a_nan_flow():
    # hamiltonian and eom are NaN at every state of this system; a worst
    # case taken with Python's max used to drop the NaN and pass
    system = BodySystem(
        (2.846801426244032e256, 5.697888609670064e280, 6.66473643236869e-292),
        (-1.5277565253222257e218, -5.212235619593877e288, 2.1188868542402605e274),
    )
    report = VerificationReport()
    verify._eom_suite(report, system, 20)
    (check,) = report.checks
    assert math.isnan(check.measured) and not check.passed
    assert check.line().startswith("CHECK eom.complex_step FAIL measured=nan")


def test_collinear_residual_check_catches_a_root_moved_by_1e_9(monkeypatch, all_systems):
    # a collinear root moved by 1e-9 relative is no critical point; of all
    # the checks only the stored residual tells
    def failed(system):
        return [check.name for check in verify_all(system, deep=False).checks if not check.passed]

    assert not any(failed(system) for system in all_systems.values())
    roots = critical._roots_in_unit_interval
    monkeypatch.setattr(
        critical,
        "_roots_in_unit_interval",
        lambda quintics: [[x * (1.0 + 1e-9) for x in xs] for xs in roots(quintics)],
    )
    for system in all_systems.values():
        assert failed(system) == ["collinear.residual"], system


# The seed and per-sample rng.uniform calls of each system-free suite as it
# drew them one sample at a time: (low, high, count) in stream order.
_SUITE_DRAWS = {
    "_roundtrip_suite": (20260808, [(0.1, 3.0, 2), (0.05, math.pi - 0.05, 1)]),
    "_inertia_suite": (77, [(0.05, 4.0, 2), (0.0, math.pi, 1), (1e-3, 1e3, 1)]),
}


@pytest.mark.parametrize("suite", sorted(_SUITE_DRAWS))
@pytest.mark.parametrize("samples", [1, 200, 1_000])
def test_system_free_suites_draw_the_per_value_uniform_stream(monkeypatch, suite, samples):
    drawn, rows = [], verify._uniform_rows
    monkeypatch.setattr(verify, "_uniform_rows", lambda *a: drawn.append(rows(*a)) or drawn[-1])
    getattr(verify, suite)(VerificationReport(), samples)
    seed, calls = _SUITE_DRAWS[suite]
    rng = np.random.default_rng(seed)
    want = []
    for _ in range(samples):
        draws = [rng.uniform(low, high, n if n > 1 else None) for low, high, n in calls]
        want.append(np.concatenate([np.atleast_1d(x) for x in draws]))
    (got,) = drawn
    assert got.shape == (samples, 4 if suite == "_inertia_suite" else 3)
    assert got.tobytes() == np.array(want).tobytes()


def test_system_free_checks_keep_their_measured_bits():
    # the bits of the per-sample loops on the dataclass maps, deep and quick
    want = {
        True: ["0x1.a48a5ad3e1f4cp-50", "0x1.fcd75d47ddd66p-53", "0x1.ffc692d61bf92p-53",
               "0x1.3965d5ab9c310p-51"],
        False: ["0x1.a48a5ad3e1f4cp-50", "0x1.e48f0aed9011bp-53", "0x1.ffc692d61bf92p-53",
                "0x1.ece893b2175fbp-52"],
    }
    for deep, measured in want.items():
        checks = verify._system_free_checks(deep)
        assert [c.name for c in checks] == [
            "coords.roundtrip", "inertia.sum_rule", "inertia.trace", "inertia.homogeneity"]
        assert [c.measured.hex() for c in checks] == measured and all(c.passed for c in checks)
        assert checks[0].note == f"{10_000 if deep else 1_000} samples"


@pytest.mark.parametrize("owner, name", [
    (verify, "_jacobi_to_w"), (verify, "_w_to_jacobi"), (verify, "_w_to_dragt"),
    (verify, "_dragt_to_w"), (coords, "_w_norm"),
])
def test_roundtrip_fails_on_one_nan_sample_of_a_chart_function(monkeypatch, owner, name):
    real, calls = getattr(owner, name), []

    def nan_once(*args):
        out = real(*args)
        calls.append(args)
        if len(calls) != 37:
            return out
        if not isinstance(out, tuple):
            return math.nan
        return tuple(v if isinstance(v, bool) else math.nan for v in out)

    monkeypatch.setattr(owner, name, nan_once)
    report = VerificationReport()
    verify._roundtrip_suite(report, 100)
    (check,) = report.checks
    assert len(calls) >= 100 and math.isnan(check.measured) and not check.passed
    assert check.line().startswith("CHECK coords.roundtrip FAIL measured=nan")


def test_worst_propagates_nan_and_keeps_max_otherwise():
    assert math.isnan(verify._worst(0.0, math.nan, 1.0))
    assert math.isnan(verify._worst(math.nan, 2.0))
    assert math.isnan(verify._worst(2.0, math.nan))
    rng = np.random.default_rng(8)
    for _ in range(50):
        values = rng.exponential(1.0, 5).tolist()
        assert verify._worst(*values) == max(values)
    assert verify._worst(0.0) == 0.0


def _random_masks():
    rng = np.random.default_rng(4242)
    yield np.zeros((90, 180), dtype=bool)
    yield np.ones((90, 180), dtype=bool)
    for density in (0.1, 0.3, 0.45, 0.55, 0.7, 0.9):
        yield rng.random((90, 180)) < density
    # cells in the first and last columns of many rows
    for density in (0.2, 0.5, 0.8):
        mask = rng.random((90, 180)) < 0.05
        edge = rng.random((90, 2)) < density
        mask[:, 0], mask[:, -1] = edge[:, 0], edge[:, 1]
        yield mask


def _periodic_masks():
    """Adversarial masks, and masks joined only across the seam or a pole row."""
    masks = adversarial_masks()
    band = np.zeros((90, 180), dtype=bool)
    band[30:60, 170:] = band[30:60, :10] = True
    masks["band across the seam"] = band
    rows, cols = np.indices((90, 180))
    masks["diagonal band round the seam"] = (cols - 2 * rows) % 180 < 5
    masks["two diagonal bands"] = (cols - 2 * rows) % 90 < 3
    poles = np.zeros((90, 180), dtype=bool)
    poles[0, 5:20] = poles[0, 40:41] = poles[0, 100:170] = poles[0, 175:] = True
    poles[-1, :3] = poles[-1, 60:90] = poles[-1, 179] = True
    masks["pole rows of several runs"] = poles.copy()
    poles[:, 40] = True
    masks["pole rows joined by a meridian"] = poles
    masks["spiral cut by the seam"] = np.roll(spiral_mask(61), 30, axis=1)
    return masks


def _octant_masks():
    """Masks on the first octant of the sphere grid, (45, 46): the first
    octants of the 90 x 180 masks above, the adversarial masks cropped or
    padded, census inequalities, and shapes aimed at each term of the caps
    rule."""
    masks = [m[:45, :46] for m in [*_random_masks(), *_periodic_masks().values()]]
    masks = [m for m in masks if m.shape == (45, 46)]
    for mask in adversarial_masks().values():
        fit = np.zeros((45, 46), dtype=bool)
        fit[: min(mask.shape[0], 45), : min(mask.shape[1], 46)] = mask[:45, :46]
        masks.append(fit)
    # the inequality at random moments and levels, the largest moment on
    # axis 3 for half of them, where the caps open
    rng = np.random.default_rng(4545)
    sq = sphere_grid()[:45, :46] ** 2
    for k in range(120):
        m = rng.uniform(0.1, 1.0, 3)
        if k % 2:
            m.sort()
        er = 0.5 * (sq[..., 0] / m[0] + sq[..., 1] / m[1] + sq[..., 2] / m[2])
        masks.append(er <= rng.uniform(er.min(), er.max()))
    rows = np.arange(45)[:, None]
    for depth in (1, 10, 30, 44, 45):
        masks.append(np.broadcast_to(rows < depth, (45, 46)).copy())  # the pole rows only
        teeth = (rows < depth) & (np.arange(46) % 3 == 0)
        masks.append(teeth)  # components joined only through the pole
        for cell in ((44, 7), (20, 45), (1, 20), (2, 0)):
            cut = teeth.copy()
            cut[cell] = True  # one cut-off cell, or an equator cell on a tooth
            masks.append(cut)
        for row in (1, 25, 43, 44):
            crossing = teeth.copy()
            crossing[row] = True  # a left-right crossing, joined to the teeth or not
            masks.append(crossing)
    lone = np.zeros((45, 46), dtype=bool)
    lone[44, 0] = True  # one equator cell
    masks.append(lone)
    return masks


def test_octant_caps_matches_the_mirrored_component_count():
    # the octant rule against the breadth-first count on the mirrored mask:
    # the caps are two components and reach the polar rows
    masks = _octant_masks()
    want = [oracle_count_components_periodic(unfold(m)) == 2 and m[0].any() for m in masks]
    assert verify._octant_caps(np.array(masks)).tolist() == want
    assert [bool(verify._octant_caps(m[None])[0]) for m in masks] == want
    partial = [m.any() and not m.all() for m in masks]
    assert sum(want) >= 50 and sum(p and not w for p, w in zip(partial, want)) >= 50


def test_sphere_grid_is_built_once_and_read_only():
    # the reference grid, and the census's octant: the squared components
    # of the grid's first octant, bit for bit
    grid, sq = sphere_grid(), verify._octant_squares()
    assert sphere_grid() is grid and not grid.flags.writeable
    assert verify._octant_squares() is sq and not sq.flags.writeable
    th = np.radians(np.arange(1.0, 180.0, 2.0))[:, None]
    ph = np.radians(np.arange(0.0, 360.0, 2.0))[None, :]
    assert grid.shape == (90, 180, 3)
    assert np.allclose(grid[..., 2], np.cos(th)) and np.allclose(grid[..., 0], np.sin(th) * np.cos(ph))
    want = np.moveaxis(grid[:45, :46] ** 2, -1, 0)
    assert sq.shape == want.shape == (3, 45, 46) and sq.tobytes() == want.tobytes()
    for array in (grid, sq):
        with pytest.raises(ValueError):
            array[0, 0, 0] = 1.0


def test_seeded_samples_are_drawn_once_per_sample_count_and_read_only(monkeypatch, helium, eep):
    # the samples of the finite-difference suite (seed 13), the oracles
    # (5150) and the kicked start (1875) take no system: two systems at two
    # depths build each generator once per sample count, and every cached
    # array refuses writes
    seeds, default_rng = [], np.random.default_rng

    def recorded(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    _clear_sample_caches()
    monkeypatch.setattr(np.random, "default_rng", recorded)
    for deep in (True, False):
        for system in (helium, eep):
            verify_all(system, deep)
    assert [seeds.count(seed) for seed in (13, 5150, 1875)] == [2, 2, 1]
    eom = [verify._eom_samples(n) for n in (300, 50)]
    oracle = [verify._oracle_samples(n) for n in (150, 30)]
    assert verify._eom_samples(300) is eom[0] and verify._oracle_samples(150) is oracle[0]
    arrays = [verify._kick_direction(), *eom]
    for samples in oracle:
        assert all(isinstance(value, (np.ndarray, tuple)) for value in vars(samples).values())
        arrays += [value for value in vars(samples).values() if isinstance(value, np.ndarray)]
    arrays += [jh for samples in oracle for *_, jh in samples.args]
    assert [y.shape for y in eom] == [(300, 9), (50, 9)]
    assert len(arrays) == 1 + 2 + 2 * 8 + 150 + 30
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0


@pytest.mark.parametrize("deep", [True, False])
def test_verify_all_reads_the_same_on_cold_and_warm_samples(all_systems, deep):
    for name, system in all_systems.items():
        _clear_sample_caches()
        cold = verify_all(system, deep).text()
        assert verify_all(system, deep).text() == cold, name


def _sphere_inputs():
    """Random (m_tilde, Vt, nu), with the cases that need no sampling and NaNs."""
    rng = np.random.default_rng(777)
    for _ in range(150):
        m1 = float(rng.uniform(0.05, 0.5))
        m_tilde = (m1, 1.0 - m1, 1.0)
        vt = float(rng.choice([-1.0, -1.0, -1.0, 1.0]) * rng.uniform(0.1, 3.0))
        yield m_tilde, vt, float(rng.uniform(0.01, 1.2)) * vt * vt
        yield m_tilde, vt, float(rng.uniform(-2.0, 0.0))
        for special in (0.0, -0.0, math.nan):
            yield m_tilde, vt, special
            yield m_tilde, special, float(rng.uniform(-1.0, 3.0))
    for vt in (0.0, -0.0, math.nan):
        for nu in (0.0, -0.0, math.nan):
            yield (0.25, 0.75, 1.0), vt, nu


def test_sphere_orientation_class_matches_sampling_every_case():
    grid = sphere_grid()
    classes = []
    for m_tilde, vt, nu in _sphere_inputs():
        want = oracle_sphere_orientation_class(m_tilde, vt, nu, grid)
        assert verify.sphere_orientation_class(m_tilde, vt, nu) == want, (m_tilde, vt, nu)
        classes.append(want)
    assert sorted(set(classes)) == [0, 1, 2, 3]


def test_batched_sphere_orientation_class_matches_one_sample_calls():
    # every input of the census in one batch (more than a chunk of sampled
    # ones, mixed with the cases that need no sampling) against the scalar
    # call and the whole-grid oracle
    grid = sphere_grid()
    inputs = list(_sphere_inputs())
    m1, m2, m3 = (np.array(m) for m in zip(*(m for m, _, _ in inputs)))
    vt = np.array([v for _, v, _ in inputs])
    nu = np.array([n for _, _, n in inputs])
    got = verify.sphere_orientation_class((m1, m2, m3), vt, nu)
    want = [oracle_sphere_orientation_class(*sample, grid) for sample in inputs]
    assert got.shape == (len(inputs),) and got.tolist() == want
    assert [verify.sphere_orientation_class(*sample) for sample in inputs] == want
    # a scalar third moment broadcasts over the batch
    got2 = verify.sphere_orientation_class((m1[:150], m2[:150], 1.0), vt[:150], nu[:150])
    assert got2.tolist() == want[:150]


def test_sphere_census_reads_no_class_rule(monkeypatch):
    # the census is the independent side of the orientation oracle, and the
    # octant caps rule assumes its masks come from the inequality alone
    inputs = list(_sphere_inputs())
    m1, m2, m3 = (np.array(m) for m in zip(*(m for m, _, _ in inputs)))
    vt, nu = np.array([v for _, v, _ in inputs]), np.array([n for _, _, n in inputs])
    want = verify.sphere_orientation_class((m1, m2, m3), vt, nu).tolist()
    rules = (hill.class_codes, hill.nu_thresholds, hill.orientation_class, hill.membership)
    for func in (*rules, hill.f_analysis):
        forbid(monkeypatch, func)
    assert verify.sphere_orientation_class((m1, m2, m3), vt, nu).tolist() == want
    assert [verify.sphere_orientation_class(*sample) for sample in inputs] == want


def test_batched_sphere_census_tells_two_blobs_off_the_poles_from_caps():
    # with the largest moment on axis 1 or 2 the first directions to open
    # form two components that miss the polar rows: a band, not the caps
    grid = sphere_grid()
    m_tilde = [(1.0, 0.3, 0.7), (0.3, 1.0, 0.7), (0.7, 0.3, 1.0)]
    m1, m2, m3 = (np.repeat(m, 12) for m in zip(*m_tilde))
    vt = np.full(36, -1.0)
    nu = np.tile(np.linspace(0.3, 1.2, 12), 3)
    want = [oracle_sphere_orientation_class(m, -1.0, n, grid) for m, n in zip(zip(m1, m2, m3), nu)]
    assert verify.sphere_orientation_class((m1, m2, m3), vt, nu).tolist() == want
    assert want[:12].count(2) > 0 and want[24:].count(1) > 0


def test_sphere_grid_squares_are_mirror_symmetric():
    # the census evaluates one octant and mirrors it: x^2, y^2 and z^2 must
    # be the same, bit for bit, at each cell and at its images under
    # x -> -x (longitude 180 - phi), y -> -y (-phi) and z -> -z (180 - theta)
    grid = sphere_grid()
    sq, col = grid**2, np.arange(180)
    for image in (sq[:, (90 - col) % 180], sq[:, -col % 180], sq[::-1]):
        assert np.array_equal(image, sq)
    th = np.radians(np.arange(1.0, 180.0, 2.0))[:, None]
    ph = np.radians(np.arange(0.0, 360.0, 2.0))
    direct = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th) + 0.0 * ph], -1)
    assert np.max(np.abs(grid - direct)) <= 1e-15


@pytest.mark.parametrize(
    "m_tilde, cells, classes",
    [
        # Mt1 = Mt2: the edge runs along a colatitude row, ragged to the ulp
        # from column to column
        (
            (0.5, 0.5, 1.0),
            [(0, 0), (0, 45), (1, 90), (22, 46), (43, 135), (44, 0), (44, 89)],
            {1, 2, 3},
        ),
        ((1.0, 1.0, 0.5), [(44, 0), (44, 45), (43, 91), (22, 0), (0, 0), (0, 179)], {2, 3}),
        # the caps meet, and the set closes, on the equator rows 44 and 45
        ((0.3, 0.7, 1.0), [(44, 0), (44, 90), (44, 45), (45, 135), (43, 0)], {1, 2, 3}),
        # the set opens first along +-x (columns 0 and 90) or +-y (45 and 135)
        ((1.0, 0.3, 0.7), [(44, 0), (45, 90), (44, 1), (43, 0), (44, 45)], {0, 2, 3}),
        ((0.3, 1.0, 0.7), [(44, 45), (45, 135), (44, 44), (43, 46)], {0, 2}),
    ],
)
def test_sphere_census_on_the_octant_seams(m_tilde, cells, classes):
    # levels 1 / (4 nu) (Vt = -1) within an ulp of the rotational energy of
    # each of ``cells``, so that the accessible set's edge passes through
    # them, against the census on the whole grid
    grid = sphere_grid()
    m1, m2, m3 = m_tilde
    er = 0.5 * (grid[..., 0] ** 2 / m1 + grid[..., 1] ** 2 / m2 + grid[..., 2] ** 2 / m3)
    nu0 = np.array([0.25 / er[cell] for cell in cells])
    nu = np.concatenate([np.nextafter(nu0, 0.0), nu0, np.nextafter(nu0, np.inf)])
    assert any(np.any(er == 1.0 / (4.0 * n)) for n in nu)  # an edge through cells
    want = [oracle_sphere_orientation_class(m_tilde, -1.0, n, grid) for n in nu]
    assert verify.sphere_orientation_class(m_tilde, np.full(nu.size, -1.0), nu).tolist() == want
    assert [verify.sphere_orientation_class(m_tilde, -1.0, n) for n in nu] == want
    assert set(want) == classes


def test_near_threshold_matches_the_scalar_rule():
    rng = np.random.default_rng(66)
    vt = rng.choice([-1.0, 1.0], 600) * rng.uniform(0.1, 3.0, 600)
    vt[:30] = [0.0, -0.0, math.nan] * 10
    m1 = rng.uniform(0.05, 0.5, 600)
    m_tilde = (m1, 1.0 - m1, 1.0)
    # nu at a threshold of either sign of Vt, at 0, or anywhere
    pick = rng.integers(0, 5, 600)
    nu = np.select(
        [pick == 0, pick == 1, pick == 2, pick == 3],
        [0.5 * m1 * vt**2, 0.5 * (1.0 - m1) * vt**2, 0.5 * vt**2, rng.normal(0.0, 1e-7, 600)],
        rng.uniform(-0.5, 3.0, 600) * np.fmax(1.0, np.abs(vt)),
    )
    nu += rng.choice([0.0, 1e-9, 1e-5], 600)
    got = verify._near_threshold(vt, m_tilde, nu)
    want = [
        _oracle_near_threshold(ShapeEvaluation(v, (a, 1.0 - a, 1.0)), n)
        for v, a, n in zip(vt.tolist(), m1.tolist(), nu.tolist())
    ]
    assert got.tolist() == want
    assert 50 < sum(want) < 550
