import math

import pytest

from trihill.errors import DomainError, TrihillError
from trihill.systems import (
    BodySystem,
    PRESETS,
    gravitational,
    infer_gravity_constant,
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
    assert system.pair_reduced_mass(1, 2) == pytest.approx(2.0 / 3.0)


def test_mass_validation():
    with pytest.raises(ValueError):
        BodySystem((1.0, -1.0, 1.0), (1, 1, 1))
    with pytest.raises(ValueError):
        BodySystem((1.0, 0.0, 1.0), (1, 1, 1))


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


def test_permuted_relabeling():
    system = BodySystem((1.0, 2.0, 3.0), (10.0, 20.0, 30.0))
    swapped = system.permuted((2, 3, 1))
    assert swapped.masses == (2.0, 3.0, 1.0)
    # new pair (1,2) = old pair (2,3), whose coupling is old alpha_1
    assert swapped.pair_coupling(1, 2) == system.pair_coupling(2, 3)
    assert swapped.pair_coupling(1, 3) == system.pair_coupling(2, 1)
    assert swapped.pair_coupling(2, 3) == system.pair_coupling(3, 1)


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
