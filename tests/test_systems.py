import math

import pytest

from trihill.coords import Shape, collision_angles, pair_geometry
from trihill.critical import CriticalValue, langmuir_geometry
from trihill.errors import DomainError, TrihillError
from trihill.hill import v_tilde
from trihill.systems import (
    BodySystem,
    PRESETS,
    gravitational,
    infer_gravity_constant,
    jacobi_frame,
    parse_system,
    preset,
)


def test_presets():
    assert preset("gravity-demo").masses == (1.6, 1.2, 1.0)
    assert preset("gravity-demo").alphas == (1.2, 1.6, 1.92)
    assert preset("helium").masses == (1.0, 1.0, 7289.56)
    assert preset("helium").alphas == (2.0, 2.0, -1.0)
    assert preset("eep").alphas == (1.0, 1.0, -1.0)
    with pytest.raises(KeyError):
        preset("nope")
    assert set(PRESETS) == {"gravity-demo", "helium", "eep"}


def test_pair_coupling_indexing():
    system = BodySystem((1, 2, 3), (10.0, 20.0, 30.0))
    # coupling k belongs to the pair not containing body k
    assert system.pair_coupling(2, 3) == 10.0
    assert system.pair_coupling(1, 3) == 20.0
    assert system.pair_coupling(1, 2) == 30.0
    assert system.pair_coupling(3, 2) == 10.0
    assert system.pairs[0].mu == pytest.approx(2.0 / 3.0)


def test_pair_table(gravity):
    # rows (1,2), (1,3), (2,3); collision_angles lists (psi12, psi23, psi13)
    table = pair_geometry(gravity)
    assert [(p.i, p.j) for p in table] == [(1, 2), (1, 3), (2, 3)]
    for p in table:
        assert p.alpha == gravity.pair_coupling(p.i, p.j)
        assert (p.cos, p.sin) == (math.cos(p.psi), math.sin(p.psi))
    assert collision_angles(gravity) == (table[0].psi, table[2].psi, table[1].psi)


@pytest.mark.parametrize(
    "masses, scale",
    [
        # m1 m3 overflows although mu1 = 5e154 does not
        ((1e155, 1.0, 1e155), 1e-150),
        # every product of two masses underflows to 0
        ((1e-200,) * 3, 1e200),
    ],
)
def test_reduced_masses_at_the_ends_of_the_float_range(masses, scale):
    # masses times ``scale`` is an ordinary system: reduced masses scale
    # with the masses, angles do not change and Vt scales as their root
    alphas = (1.0, -1.0, 1.0)
    system = BodySystem(masses, alphas)
    ref = BodySystem(tuple(m * scale for m in masses), alphas)
    fr, fr_ref = jacobi_frame(system), jacobi_frame(ref)
    assert fr.mu1 == pytest.approx(fr_ref.mu1 / scale, rel=1e-15)
    assert fr.mu2 == pytest.approx(fr_ref.mu2 / scale, rel=1e-15)
    for p, p_ref in zip(pair_geometry(system), pair_geometry(ref)):
        assert p.mu == pytest.approx(p_ref.mu / scale, rel=1e-15)
    assert collision_angles(system) == pytest.approx(collision_angles(ref), rel=1e-14)
    assert langmuir_geometry(system).mu == pytest.approx(
        langmuir_geometry(ref).mu / scale, rel=1e-15
    )
    shape = Shape(0.1, 0.2)
    assert v_tilde(system, shape.w1, shape.w2) == pytest.approx(
        v_tilde(ref, shape.w1, shape.w2) / math.sqrt(scale), rel=1e-12
    )


def test_mass_validation():
    with pytest.raises(ValueError):
        BodySystem((1.0, -1.0, 1.0), (1, 1, 1))
    with pytest.raises(ValueError):
        BodySystem((1.0, 0.0, 1.0), (1, 1, 1))
    # the reduced mass of the pair (1,3), 5e-324/2, rounds to 0
    with pytest.raises(DomainError, match=r"pair \(1,3\) rounds to 0; rescale the system"):
        BodySystem((5e-324, 1e-323, 5e-324), (1.0, -1.0, -1.0))


def test_gravitational_factory():
    system = gravitational((1.6, 1.2, 1.0))
    assert system == preset("gravity-demo")
    assert infer_gravity_constant(system) == pytest.approx(1.0)
    system = gravitational((2.0, 3.0, 4.0), G=0.5)
    assert infer_gravity_constant(system) == pytest.approx(0.5)


def test_infer_gravity_constant_rejects_overflow():
    # G = a1/(m2 m3) overflows; infinity passes no relative tolerance
    with pytest.raises(TrihillError):
        infer_gravity_constant(BodySystem((1, 1e-300, 1), (1e200, 1, 1)))
    # G is 1 but G m1 m3 overflows
    with pytest.raises(TrihillError):
        infer_gravity_constant(BodySystem((1e300, 1e-300, 1e10), (1e-290, 1e10, 1)))


def test_parse_system():
    system = parse_system(
        """
        # a comment line
        masses 1.0 2.0 3.0   # trailing comment
        alphas 0.5 -0.25 1.5
        """
    )
    assert system.masses == (1.0, 2.0, 3.0)
    assert system.alphas == (0.5, -0.25, 1.5)


def test_parse_system_errors():
    with pytest.raises(ValueError):
        parse_system("masses 1 2\nalphas 1 2 3\n")
    with pytest.raises(ValueError):
        parse_system("masses 1 2 3\n")
    with pytest.raises(ValueError):
        parse_system("masses 1 2 3\nalphas a b c\n")
    with pytest.raises(ValueError):
        parse_system("weights 1 2 3\nalphas 1 2 3\n")
    with pytest.raises(ValueError, match="line 3: second 'masses' line"):
        parse_system("masses 1 1 1\nalphas 1 1 1\nmasses 2 2 2\n")


@pytest.mark.parametrize(
    "make, args",
    [
        (CriticalValue, (1.0, "nonsense")),
        (CriticalValue, (-0.5, "lagrange")),
        (parse_system, ("masses 1 2\nalphas 1 2 3\n",)),
        (parse_system, ("masses 1 2 3\n",)),
        (parse_system, ("masses 1 2 3\nalphas a b c\n",)),
        (parse_system, ("weights 1 2 3\nalphas 1 2 3\n",)),
        (parse_system, ("masses 1 1 1\nalphas 1 1 1\nmasses 2 2 2\n",)),
    ],
)
def test_invalid_inputs_raise_domain_error(make, args):
    with pytest.raises(DomainError):
        make(*args)


def test_infer_gravity_constant_rejects_an_underflowing_mass_product():
    # m2 m3 = 1e-400 rounds to 0, where a1/(m2 m3) would divide by zero
    with pytest.raises(TrihillError, match="underflows"):
        infer_gravity_constant(BodySystem((1.0, 1e-200, 1e-200), (1.0, 1.0, 1.0)))


def test_permuted_relabeling():
    system = BodySystem((1.0, 2.0, 3.0), (10.0, 20.0, 30.0))
    swapped = system.permuted((2, 3, 1))
    assert swapped.masses == (2.0, 3.0, 1.0)
    # new pair (1,2) = old pair (2,3), whose coupling is old alpha_1
    assert swapped.pair_coupling(1, 2) == system.pair_coupling(2, 3)
    assert swapped.pair_coupling(1, 3) == system.pair_coupling(2, 1)
    assert swapped.pair_coupling(2, 3) == system.pair_coupling(3, 1)


@pytest.mark.parametrize("perm", [(0, 1, 2), (1, 1, 2), (1, 2, 4), (1.0, 2, 3)])
def test_permuted_rejects_what_is_not_a_relabelling(helium, perm):
    # (0, 1, 2) would read index -1, (1, 1, 2) copy body 1; (1, 2, 4) and
    # (1.0, 2, 3) would raise IndexError and TypeError
    with pytest.raises(DomainError):
        helium.permuted(perm)


@pytest.mark.parametrize(
    "masses, alphas",
    [
        ((math.nan, 1, 1), (1, 1, 1)),
        ((1, math.inf, 1), (1, 1, 1)),
        ((1, 1, 1), (math.inf, 1, 1)),
        ((1, 1, 1), (1, 1, -math.nan)),
    ],
)
def test_system_rejects_non_finite(masses, alphas):
    with pytest.raises(DomainError):
        BodySystem(masses, alphas)


def test_parse_system_rejects_non_finite():
    with pytest.raises(DomainError):
        parse_system("masses nan 1 1\nalphas 1 1 1\n")
    with pytest.raises(DomainError):
        parse_system("masses 1 1 1\nalphas 1 inf 1\n")
