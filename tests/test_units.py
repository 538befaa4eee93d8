"""The units law: masses times kappa and couplings times lambda are a change
of units, which multiplies every critical value by kappa lambda^2 and moves
no shape.  At kappa = 4^a and lambda = 2^b the arithmetic of the catalog and
of the search commutes with the change, so the law holds bit for bit; verify
runs on the system's unit twin, the same system at every such scale.  At
other scales it holds to rounding.  A value too small for a float is an
error, not a 0."""

import itertools
import math

import numpy as np
import pytest

from trihill import critical, verify
from trihill.errors import DomainError
from trihill.reduction import rigid_start
from trihill.systems import PRESETS, BodySystem

from conftest import mutant

# (a, b): masses times 4^a, couplings times 2^b
SCALES = [(0, 20), (0, -20), (10, 0), (-10, 0), (5, -7)]


def _scaled(system, a, b):
    return BodySystem(
        tuple(math.ldexp(m, 2 * a) for m in system.masses),
        tuple(math.ldexp(c, b) for c in system.alphas),
    )


def _systems():
    """The presets and 64 seeded systems, 8 per coupling-sign pattern:
    masses U(0.1, 5), |couplings| U(0.1, 3)."""
    rng = np.random.default_rng(20)
    out = list(PRESETS.items())
    for signs in itertools.product((1.0, -1.0), repeat=3):
        for n in range(8):
            masses = tuple(rng.uniform(0.1, 5.0, 3).tolist())
            alphas = tuple((np.array(signs) * rng.uniform(0.1, 3.0, 3)).tolist())
            out.append((f"{signs} #{n}", BodySystem(masses, alphas)))
    return out


def _catalog(system, shift):
    """Each entry's nu times 2^shift, family, axis, multiplicity and w, as
    float bits."""
    return [
        (math.ldexp(cv.nu, shift).hex(), cv.family, cv.axis, cv.multiplicity)
        + (cv.w and tuple(map(float.hex, cv.w)),)
        for cv in critical.critical_catalog(system)
    ]


def _hits(system, shift):
    """The search's hits per axis, w and nu times 2^shift as float bits."""
    return [
        [
            (shape.w1.hex(), shape.w2.hex(), math.ldexp(nu, shift).hex())
            for shape, nu in critical.find_critical_shapes(system, k)
        ]
        for k in (1, 2, 3)
    ]


def _verdicts(system, shift):
    """verify_all's check names and verdicts; a preset's reference check
    applies to the preset alone, not to its scaled copies."""
    report = verify.verify_all(system, deep=False)
    return [(c.name, c.passed) for c in report.checks if c.name != "catalog.reference"]


def _breaks(read, systems):
    """(label, a, b) wherever ``read`` of the scaled system, taken back by
    4^-(a+b), differs from ``read`` of the system."""
    out = []
    for label, system in systems:
        base = read(system, 0)
        for a, b in SCALES:
            if read(_scaled(system, a, b), -2 * (a + b)) != base:
                out.append((label, a, b))
    return out


@pytest.mark.parametrize("read", [_catalog, _hits, _verdicts])
def test_the_answer_is_the_same_in_any_units(read):
    assert _breaks(read, _systems()) == []


def test_absolute_thresholds_break_the_law(monkeypatch):
    # the catalog's merge and the search's |grad|^2 bound, each restored as
    # an absolute number: helium at couplings 2^-20 merges every value into
    # zero, and gravity-demo at couplings 2^20 loses its Lagrange hit
    presets = list(PRESETS.items())
    with monkeypatch.context() as patch:
        mutant(patch, critical.critical_catalog, "<= MERGE_TOL * cv.nu", "<= MERGE_TOL")
        assert ("helium", 0, -20) in _breaks(_catalog, presets)
    mutant(monkeypatch, critical.find_critical_shapes, "1e-22 * V * V", "1e-22")
    assert ("gravity-demo", 0, 20) in _breaks(_hits, presets)


@pytest.mark.parametrize("name", ["helium", "eep"])
@pytest.mark.parametrize("lam", [1e-6, 1e6])
def test_couplings_scaled_by_a_power_of_ten_keep_every_entry(name, lam):
    system = PRESETS[name]
    base = critical.critical_catalog(system)
    scaled = BodySystem(system.masses, tuple(lam * c for c in system.alphas))
    got = critical.critical_catalog(scaled)
    assert [(cv.family, cv.axis, cv.multiplicity) for cv in got] == [
        (cv.family, cv.axis, cv.multiplicity) for cv in base
    ]
    for cv, ref in zip(got, base):
        assert cv.nu == pytest.approx(lam * lam * ref.nu, rel=1e-12, abs=0.0)
        assert cv.w == ref.w or cv.w == pytest.approx(ref.w, rel=0.0, abs=1e-12)


def test_unit_twin_is_exact():
    for _, system in _systems():
        for a, b in SCALES + [(0, 0)]:
            twin, shift = verify._unit_twin(_scaled(system, a, b))
            assert 1.0 <= max(twin.masses) < 4.0 and 1.0 <= max(map(abs, twin.alphas)) < 2.0
            assert verify._unit_twin(system) == (twin, shift - 2 * (a + b))


def test_critical_nu_that_underflows_is_an_error():
    # every nonzero value of these rounds to 0: not a catalog of zeros
    tiny = BodySystem((1e-300,) * 3, (1e-200, 1e-200, -1e-200))
    eep = BodySystem(PRESETS["eep"].masses, tuple(1e-170 * c for c in PRESETS["eep"].alphas))
    for system in (tiny, eep):
        with pytest.raises(DomainError, match="underflows"):
            critical.critical_catalog(system)
    # a start whose |J|^2 rounds to 0 has no certificate
    gravity = PRESETS["gravity-demo"]
    state = rigid_start(critical.lagrange_shape(gravity).to_jacobi(), 1e-170, (0, 0, 1))
    with pytest.raises(DomainError, match=r"\|J\|\^2 of the start must be positive"):
        critical._relequil_certificate(gravity, state)
