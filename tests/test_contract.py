"""The input contract of the public API: one row per exported name.

``ROWS`` holds every name that ``trihill/__init__.py`` exports, and
``reduction.rigid_start``, which the CLI calls.  A name whose arguments are
package objects, result-record fields, enum codes or text has a reason in
place of slots.  Each numeric slot is fed the malformed values below; its
row names the values that give an answer, and every other value must raise
a ``TrihillError``.  An answer to a bool or a float32 must be the answer to
the same number as an int or a Python float.  A vector slot is also fed
each scalar as one of its components and as the whole vector.

The CLI half runs ``cli.main`` on each subcommand's numeric options.
"""

import dataclasses
import math
import types
from typing import Callable, NamedTuple

import numpy as np
import pytest

import trihill
from trihill import (
    BodySystem,
    CriticalValue,
    DragtCoords,
    JacobiShapeCoords,
    RovibState,
    Shape,
    WCoords,
    bif_function,
    build_relequil_state,
    contour_grid,
    dilate,
    f_analysis,
    find_critical_shapes,
    gravitational,
    integrate,
    membership,
    nu_langmuir,
    orientation_class,
    preset,
    relequil_residual,
    scan_disk,
)
from trihill.cli import main
from trihill.errors import DomainError, TrihillError
from trihill.reduction import rigid_start

SCALARS = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "none": None,
    "str": "1",
    "complex": 1j,
    "1e308": 1e308,
    "-1e308": -1e308,
    "zero": 0.0,
    "minus1": -1.0,
    "subnormal": 5e-324,
    "bool": True,
    "float32": np.float32(0.5),
}

VECTORS = {
    "none": None,
    "str": "abc",
    "two": [0.0, 1.0],
    "four": [0.0, 0.0, 1.0, 0.0],
    "nested": [[0.0, 0.0, 1.0]],
    "nan": [math.nan, 0.0, 1.0],
    "strpart": ["a", 0.0, 1.0],
}

# The scalars each kind of slot answers.
FINITE = {"zero", "minus1", "1e308", "-1e308", "subnormal", "bool", "float32"}
POSITIVE = {"1e308", "subnormal", "bool", "float32"}
NONNEGATIVE = POSITIVE | {"zero"}
# ``check_index`` reads a bool as an int and refuses every other scalar.
INDEX = {"bool"}
# A slot of three finite values answers its base with one component x
# replaced, (*base[:part], x, *base[part + 1:]), for a finite scalar x.
PARTS = {f"part {k}" for k in FINITE}
# A unit 3-vector slot: -1 or True in place of the 1 of UP is a unit vector.
UNIT = {"part minus1", "part bool"}

HE = preset("helium")
J0 = JacobiShapeCoords(0.6, 0.8, 1.0)
SHAPE = Shape(0.1, 0.2)
UP = (0.0, 0.0, 1.0)
STATE = build_relequil_state(HE, nu_langmuir(HE), 1.0)


class Slot(NamedTuple):
    """One numeric argument: ``call`` with that argument set, the values
    that give an answer, and for a vector the valid ``base`` and the
    component that the scalars replace."""

    call: Callable
    answers: frozenset
    base: tuple | None = None
    part: int = 0


def scalar(call, answers):
    return Slot(call, frozenset(answers))


def vector(call, answers, base, part=0):
    return Slot(call, frozenset(answers), tuple(base), part)


OBJECTS = "its arguments are package objects"
RECORD = "a result record built by the package; its fields are stored as given"
ENUM = "an IntEnum: a code is looked up, and one outside the enum is Python's ValueError"

ROWS = {
    # coords
    "DragtCoords": {
        "omega": scalar(lambda x: DragtCoords(x, 0.5, 1.0), NONNEGATIVE),
        "chi": scalar(lambda x: DragtCoords(1.0, x, 1.0), NONNEGATIVE - {"1e308"}),
        "psi": scalar(lambda x: DragtCoords(1.0, 0.5, x), NONNEGATIVE - {"1e308"}),
    },
    "JacobiShapeCoords": {  # rho1^2 + rho2^2 overflows at 1e308
        "rho1": scalar(lambda x: JacobiShapeCoords(x, 0.8, 1.0), NONNEGATIVE - {"1e308"}),
        "rho2": scalar(lambda x: JacobiShapeCoords(0.6, x, 1.0), NONNEGATIVE - {"1e308"}),
        "phi": scalar(lambda x: JacobiShapeCoords(0.6, 0.8, x), NONNEGATIVE - {"1e308"}),
    },
    "Shape": {  # the open unit disk
        "w1": scalar(lambda x: Shape(x, 0.2), {"zero", "subnormal", "float32"}),
        "w2": scalar(lambda x: Shape(0.1, x), {"zero", "subnormal", "float32"}),
    },
    "WCoords": {  # |w|^2 overflows at 1e308
        "w1": scalar(lambda x: WCoords(x, 0.2, 0.3), FINITE - {"1e308", "-1e308"}),
        "w2": scalar(lambda x: WCoords(0.1, x, 0.3), FINITE - {"1e308", "-1e308"}),
        "w3": scalar(lambda x: WCoords(0.1, 0.2, x), NONNEGATIVE - {"1e308"}),
    },
    "collision_angles": OBJECTS,
    "dilate": {"lam": scalar(lambda x: dilate(J0, x), POSITIVE - {"1e308"})},
    "distances_from_dragt": OBJECTS,
    "dragt_from_w": OBJECTS,
    "jacobi_from_w": OBJECTS,
    "normalize_shape": OBJECTS,
    "w_from_dragt": OBJECTS,
    "w_from_jacobi": OBJECTS,
    "xxy_section": OBJECTS,
    # critical
    "CriticalValue": {
        # w, multiplicity and residual are record fields; shape() reads w
        # through Shape
        "nu": scalar(lambda x: CriticalValue(x, "lagrange"), NONNEGATIVE),
        # None for an entry with no axis; build_relequil_state reads the
        # axis, and it used to read an axis of 0 as 3
        "axis": scalar(lambda x: CriticalValue(1.0, "lagrange", axis=x), INDEX | {"none"}),
    },
    "LangmuirGeometry": RECORD,
    "build_relequil_state": {
        # r^2 overflows at 1e308 and underflows to a zero dilation
        "r": scalar(
            lambda x: build_relequil_state(HE, nu_langmuir(HE), x), {"bool", "float32"}
        ),
    },
    "collinear_configs": OBJECTS,
    "critical_catalog": OBJECTS,
    "find_critical_shapes": {"k": scalar(lambda x: find_critical_shapes(HE, x), INDEX)},
    "langmuir_geometry": OBJECTS,
    "nu_diabolic": OBJECTS,
    "nu_infinity": OBJECTS,
    "nu_lagrange": OBJECTS,
    "nu_langmuir": OBJECTS,
    # hill
    "HillMembership": RECORD,
    "OrientationClass": ENUM,
    "ShapeEvaluation": RECORD,
    "bif_function": {"j_hat": vector(lambda v: bif_function(HE, SHAPE, v), UNIT, UP, 2)},
    "f_analysis": {
        "E": scalar(lambda x: f_analysis(x, 1.0, -1.0), FINITE),
        "E_R": scalar(lambda x: f_analysis(-1.0, x, -1.0), POSITIVE),
        "v_tilde": scalar(lambda x: f_analysis(-1.0, 1.0, x), FINITE),
    },
    "membership": {
        "E": scalar(lambda x: membership(HE, x, 1.0, SHAPE, UP), FINITE),
        # r^2 E_R overflows at 1e308 and underflows to 0 at a subnormal
        "r": scalar(lambda x: membership(HE, -1.0, x, SHAPE, UP), {"bool", "float32"}),
        "j_hat": vector(lambda v: membership(HE, -1.0, 1.0, SHAPE, v), UNIT, UP, 2),
    },
    "orientation_class": {"nu": scalar(lambda x: orientation_class(HE, x, SHAPE), FINITE)},
    "shape_eval": OBJECTS,
    # reduction
    "InertiaData": RECORD,
    "RovibState": {
        # three values as numpy's float conversion reads them, non-finite
        # ones included (integrate reports them): a nested list of three is
        # its three values, a None component NaN, a "1" component 1.0
        part: vector(
            lambda v, part=part: RovibState(**{"q": (1.0, 1.0, 1.0), "p": UP, "J": UP, part: v}),
            PARTS | {"nan", "nested", "part nan", "part inf", "part -inf", "part none", "part str"},
            (1.0, 1.0, 1.0),
        )
        for part in ("q", "p", "J")
    },
    "eom": OBJECTS,
    "hamiltonian": OBJECTS,
    "inertia": OBJECTS,
    "integrate": {
        # a dt of 1e308 runs and stops at the first non-finite state
        "dt": scalar(lambda x: integrate(HE, STATE, x, 3), POSITIVE),
        "nsteps": scalar(lambda x: integrate(HE, STATE, 1e-3, x), INDEX),
    },
    "relequil_residual": {
        "J": vector(lambda v: relequil_residual(HE, J0, v), PARTS, UP),
    },
    "relequil_spectrum": OBJECTS,
    "rigid_start": {
        "r": scalar(lambda x: rigid_start(J0, x, UP), POSITIVE),
        "j_hat": vector(lambda v: rigid_start(J0, 1.0, v), UNIT, UP, 2),
    },
    # scan
    "CellClass": ENUM,
    "component_census": OBJECTS,
    "contour_grid": {  # chi_psi is a flag
        "k": scalar(lambda x: contour_grid(HE, x, 8), INDEX),
        "n": scalar(lambda x: contour_grid(HE, 3, x), set()),  # True is 1 < 2
    },
    "render": "its arguments are a scan or grid object and a format name",
    "scan_disk": {
        "nu": scalar(lambda x: scan_disk(HE, x, 8), FINITE),
        "n": scalar(lambda x: scan_disk(HE, 0.5, x), set()),  # True is 1 < 2
    },
    # systems
    "BodySystem": {  # each mass positive
        "masses": vector(
            lambda v: BodySystem(v, (1.0, 1.0, -1.0)),
            PARTS - {"part zero", "part minus1", "part -1e308"},
            (1.0, 1.0, 1.0),
        ),
        "alphas": vector(lambda v: BodySystem((1.0, 1.0, 1.0), v), PARTS, (1.0, 1.0, -1.0)),
    },
    "JacobiFrame": RECORD,
    "gravitational": {  # G m_i m_j overflows at G = 1e308
        "masses": vector(
            gravitational,
            PARTS - {"part zero", "part minus1", "part -1e308"},
            (1.0, 1.0, 1.0),
        ),
        "G": scalar(lambda x: gravitational((1.0, 2.0, 3.0), x), FINITE - {"1e308", "-1e308"}),
    },
    "jacobi_frame": OBJECTS,
    "load_system": "its argument is a path",
    "preset": "its argument is a name",
    # verify
    "verify_all": "its arguments are a system and a flag",
}


def _exported() -> set[str]:
    return {
        name
        for name, value in vars(trihill).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def _names_without_a_row() -> set[str]:
    return _exported() - set(ROWS)


def test_every_exported_name_has_a_row():
    assert _names_without_a_row() == set()
    assert set(ROWS) - _exported() == {"rigid_start"}


def test_the_guard_names_an_export_without_a_row(monkeypatch):
    monkeypatch.setattr(trihill, "new_entry_point", lambda x: x, raising=False)
    assert _names_without_a_row() == {"new_entry_point"}


def _with_part(slot, x):
    """The slot's base vector with its component ``part`` replaced by x."""
    return (*slot.base[: slot.part], x, *slot.base[slot.part + 1 :])


def _cases():
    for name, row in ROWS.items():
        if isinstance(row, str):
            continue
        for slot_name, slot in row.items():
            if slot.base is None:
                values = SCALARS
            else:
                values = dict(VECTORS)
                for key, x in SCALARS.items():
                    values[f"part {key}"] = _with_part(slot, x)
                    values[f"bare {key}"] = x
            for key, x in values.items():
                yield pytest.param(slot, key, x, id=f"{name}-{slot_name}-{key}")


def _bits(x):
    """A comparable image of an answer: numbers (bools included) by the
    bits of their float, arrays by dtype, shape and bytes."""
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, *(_bits(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, (tuple, list)):
        return tuple(map(_bits, x))
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (int, float, np.integer, np.floating)):
        return float(x).hex()
    return repr(x)


def _as_number(slot, key):
    """The argument ``key`` stands for, with its bool as an int or its
    float32 as a Python float."""
    x = SCALARS[key.split()[-1]]
    x = int(x) if isinstance(x, bool) else float(x)
    return x if slot.base is None else _with_part(slot, x)


@pytest.mark.parametrize("slot, key, value", _cases())
def test_contract(slot, key, value):
    if key not in slot.answers:
        with pytest.raises(TrihillError):
            slot.call(value)
        return
    answer = slot.call(value)
    if key.endswith(("bool", "float32")):
        assert _bits(answer) == _bits(slot.call(_as_number(slot, key)))


# Each subcommand's valid options; each case then overrides one option
# (argparse keeps the last).
_CLI_BASE = {
    "classify": ("--shape", "0.1", "0.2", "--nu", "0.1", "--jhat", "0", "0", "1"),
    "scan": ("--nu", "0.1", "--res", "8"),
    "contours": ("--axis", "3", "--res", "8"),
    "simulate": ("--shape", "0.1", "0.2", "--jhat", "0", "0", "1", "--dt", "1e-3", "--steps", "3"),
}

# (command, option, how many values it takes)
_CLI_OPTIONS = [
    ("classify", "--nu", 1),
    ("classify", "--shape", 2),
    ("classify", "--jhat", 3),
    ("scan", "--nu", 1),
    ("scan", "--res", 1),
    ("contours", "--axis", 1),
    ("contours", "--res", 1),
    ("simulate", "--shape", 2),
    ("simulate", "--jhat", 3),
    ("simulate", "--r", 1),
    ("simulate", "--dt", 1),
    ("simulate", "--steps", 1),
]

# The cases with a valid value: nu <= 0 is E >= 0, (0, 0) the diabolic
# shape, --jhat is scaled to unit length, and a run may take 0 steps.
_CLI_VALID = {
    ("classify", "--nu", "-1"),
    ("classify", "--nu", "0"),
    ("scan", "--nu", "-1"),
    ("scan", "--nu", "0"),
    ("classify", "--shape", "0"),
    ("simulate", "--shape", "0"),
    ("classify", "--jhat", "-1"),
    ("simulate", "--jhat", "-1"),
    ("simulate", "--steps", "0"),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("command, option, arity", _CLI_OPTIONS)
def test_cli_numeric_options(capsys, command, option, arity, value):
    argv = [command, "--preset", "eep", *_CLI_BASE[command], option, *[value] * arity]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses the token itself
        code = exc.code
        assert code == 2
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if (command, option, value) in _CLI_VALID:
        assert code == 0
        assert "error:" not in err
        return
    assert code != 0
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    if code == 1:
        assert err.splitlines() == errors and errors[0].startswith("error: ")


@pytest.mark.parametrize("r", [-1.0, 0.0, -0.0])
def test_rigid_start_refuses_an_r_that_is_not_positive(r):
    with pytest.raises(DomainError, match="r must be positive"):
        rigid_start(J0, r, UP)


@pytest.mark.parametrize("r", ["-1", "0"])
def test_simulate_refuses_an_r_that_is_not_positive(capsys, r):
    # --r -1 used to integrate with J reversed, and --r 0 with J = 0
    argv = ["simulate", "--preset", "eep", *_CLI_BASE["simulate"], "--r", r]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: r must be positive, got {float(r)}"]
