"""Guards that no other test gives.

The benchmark's span tracer must resolve every target it names in the
package: it patches functions by name, so a renamed or removed function
breaks only the traced benchmark run, which no other test starts.  And the
frame path must stay free of the derivative kernel, whose cost only a
benchmark would show.  And the Jacobi chart's pair sums must each be
written once, the gradient in ``reduction._flow`` and the value, with the
energy formula, in ``reduction._energies``, and every entry point of the
chart must read them, so that their operation order, which trajectories
and energies depend on to the last bit, exists once.  So must the disk
distance rule, ``coords._pair_term``: every pair distance and
every Vt on the shape disk reads it, and a second copy would drift from the
one that scans, bounds and searches depend on.  So must the Jacobi vectors
of body positions, ``coords._jacobi_vectors``, which both the closed-form
shapes and the collinear rim points read.  So must the rigidly rotating
start of a relative equilibrium, ``critical._relequil_start``, and its
residual certificate, ``critical._relequil_certificate``, which both the
critical-shape search and verify read.  So must the threshold
nu = (1/2) Mt_k Vt^2, ``hill.nu_threshold``, which the class thresholds, the
search's hits and verify's nu identity and near-threshold mask read.  And verify's event checks
must read Euler characteristics, not the component census, whose counts
measure pixel noise as well as topology.  And the package must run on
numpy alone: scipy serves the tests as a reference, and importing it would
cost every command its start-up time and memory.  And Euler's collinear
coefficients must be plain float sums, not ``np.convolve``, whose BLAS dot
may fuse a sum and so make their bits hang on the BLAS build.  And no
top-level function, class or constant of the package may go unread, unless
the package exports it or the span tracer names it.  And no exception
handler of the package may catch every exception.  And the command line may
use only public names of the package: it is a shell over the public API."""

import ast
import os
import subprocess
import sys

import numpy as np
import pytest

import trihill  # loads every submodule
from trihill import coords, critical, hill, reduction, scan, systems, verify
from trihill.coords import Shape
from trihill.critical import nu_langmuir

from conftest import forbid

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


def test_span_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    def bindings():
        """Every name bound in a trihill module or in a traced class."""
        out = {
            name: dict(vars(module))
            for name, module in sys.modules.items()
            if name.split(".")[0] == "trihill"
        }
        for modname, attr, _ in spans.TARGETS:
            if "." in attr:
                cls = getattr(sys.modules[f"trihill.{modname}"], attr.split(".")[0])
                out[f"{modname}.{cls.__name__}"] = dict(vars(cls))
        return out

    before = bindings()
    tracer = spans.Tracer()
    try:
        tracer.install()
        for modname, attr, _ in spans.TARGETS:
            owner = sys.modules[f"trihill.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                patched = vars(getattr(owner, cls_name))[meth]
            else:
                patched = getattr(owner, attr)
            assert hasattr(patched, "__wrapped__"), f"{modname}.{attr} is not traced"
    finally:
        tracer.uninstall()
    assert bindings() == before


def test_frame_path_runs_without_derivatives(monkeypatch, helium):
    # Only the critical-shape search reads the gradient and Hessian of Vt;
    # scans, contour grids and scalar evaluations must not pay for them.
    forbid(monkeypatch, hill.shape_kernel)
    frame = scan.scan_disk(helium, 3.0, 32)
    scan.component_census(frame)
    scan.render(frame, "ppm")
    for k in (1, 2, 3):
        scan.contour_grid(helium, k, 16)
        scan.contour_grid(helium, k, 16, chi_psi=True)
    hill.v_tilde(helium, 0.1, 0.2)
    hill.shape_eval(helium, Shape(0.1, 0.2))
    hill.orientation_class(helium, 3.0, Shape(0.1, 0.2))


@pytest.mark.parametrize("name", sorted(systems.PRESETS))
def test_verify_finds_events_without_the_component_census(monkeypatch, name):
    forbid(monkeypatch, scan.component_census)
    verify.verify_all(systems.preset(name), deep=False)


def test_jacobi_chart_pair_sum_is_written_once(monkeypatch, helium):
    entry = nu_langmuir(helium)
    state = verify.build_relequil_state(helium, entry, r=1.0)
    gradient_readers = [
        lambda: reduction.integrate(helium, state, 1e-3, 1),
        lambda: reduction.eom(helium, state),
        lambda: reduction.relequil_residual(helium, state.jacobi(), state.J),
        lambda: reduction.relequil_spectrum(helium, state),
        lambda: verify._eom_suite(verify.VerificationReport(), helium, 1),
        lambda: verify._relequil_checks(verify.VerificationReport(), helium, entry),
    ]
    value_readers = [
        lambda: reduction.integrate(helium, state, 1e-3, 1),
        lambda: reduction.hamiltonian(helium, state),
        lambda: verify._eom_suite(verify.VerificationReport(), helium, 1),
        lambda: verify._relequil_checks(verify.VerificationReport(), helium, entry),
    ]
    for pair_sum, readers in (
        (reduction._flow, gradient_readers),
        (reduction._energies, value_readers),
    ):
        with monkeypatch.context() as patch:
            forbid(patch, pair_sum)
            for call in readers:
                with pytest.raises(AssertionError, match=f"{pair_sum.__name__} was called"):
                    call()


def test_disk_distance_rule_is_written_once(monkeypatch, helium):
    forbid(monkeypatch, hill._pair_term)
    entry_points = [
        lambda: coords.distances_from_w(helium, coords.WCoords(0.1, 0.2, 0.5)),
        lambda: coords.distances_from_dragt(helium, coords.DragtCoords(1.0, 0.5, 1.0)),
        lambda: coords.distances_from_jacobi(helium, coords.JacobiShapeCoords(1.0, 0.5, 1.0)),
        lambda: hill.shape_value(helium, 0.1, 0.2),
        lambda: hill.shape_value_bounds(helium, [[0.1], [0.2]], [[0.2], [0.1]]),
        lambda: hill.shape_kernel(helium, 0.1, 0.2),
        lambda: scan.contour_grid(helium, 1, 8),
        lambda: scan.contour_grid(helium, 1, 8, chi_psi=True),
        lambda: scan.scan_disk(helium, 3.0, 16),
    ]
    for call in entry_points:
        with pytest.raises(AssertionError, match="_pair_term was called"):
            call()


def test_jacobi_vectors_are_written_once(monkeypatch, gravity, helium):
    forbid(monkeypatch, coords._jacobi_vectors)
    entry_points = [
        lambda: coords.jacobi_from_positions(helium, [[0, 0, 0], [1, 0, 0], [0, 1, 0]]),
        lambda: critical.collinear_configs(gravity),
        lambda: critical.lagrange_shape(gravity),
        lambda: critical.langmuir_shape(helium, critical.langmuir_geometry(helium)),
    ]
    for call in entry_points:
        with pytest.raises(AssertionError, match="_jacobi_vectors was called"):
            call()


def test_relequil_start_and_certificate_are_written_once(monkeypatch, helium):
    entry = nu_langmuir(helium)
    certificate_readers = [
        lambda: critical.find_critical_shapes(helium, 2),
        lambda: verify._relequil_checks(verify.VerificationReport(), helium, entry),
    ]
    start_readers = certificate_readers + [
        lambda: verify.build_relequil_state(helium, entry, 1.0),
    ]
    for shared, readers in (
        (critical._relequil_start, start_readers),
        (critical._relequil_certificate, certificate_readers),
    ):
        with monkeypatch.context() as patch:
            forbid(patch, shared)
            for call in readers:
                with pytest.raises(AssertionError, match=f"{shared.__name__} was called"):
                    call()


def test_nu_threshold_is_written_once(monkeypatch, helium):
    # verify_all gets the search's hits from before the ban and runs no
    # oracle suite (which reads _near_threshold), so that its catalog nu
    # identity is the one reader left
    hits = {k: critical.find_critical_shapes(helium, k) for k in (1, 2, 3)}
    monkeypatch.setattr(verify, "find_critical_shapes", lambda system, k: hits[k])
    monkeypatch.setattr(verify, "_oracle_suites", lambda *args: None)
    forbid(monkeypatch, hill.nu_threshold)
    entry_points = [
        lambda: hill.nu_thresholds(helium, Shape(0.1, 0.2)),
        lambda: critical.find_critical_shapes(helium, 2),
        lambda: verify.verify_all(helium, deep=False),
        lambda: verify._near_threshold(np.array([-1.0]), (np.array([0.25]), 0.75, 1.0), 0.5),
    ]
    for call in entry_points:
        with pytest.raises(AssertionError, match="nu_threshold was called"):
            call()


def package_trees():
    """(file name, syntax tree) of every module of the package."""
    package = os.path.dirname(trihill.__file__)
    modules = sorted(f for f in os.listdir(package) if f.endswith(".py"))
    assert "scan.py" in modules and "verify.py" in modules
    for filename in modules:
        with open(os.path.join(package, filename)) as f:
            yield filename, ast.parse(f.read(), filename)


def test_no_module_of_the_package_imports_scipy():
    for filename, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] != "scipy", f"{filename}:{node.lineno} imports {name}"


def test_no_handler_of_the_package_catches_every_exception():
    # A handler names the errors it expects: a broad one turns a defect
    # into an answer, such as a family reported unsupported.
    for filename, tree in package_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for name in caught:
                assert name is not None, f"{filename}:{node.lineno} has a bare except"
                assert not (
                    isinstance(name, ast.Name) and name.id in ("Exception", "BaseException")
                ), f"{filename}:{node.lineno} catches {name.id}"


def test_cli_uses_only_public_names_of_the_package():
    trees = dict(package_trees())
    modules = {name.removesuffix(".py") for name in trees}
    used = []
    for node in ast.walk(trees["cli.py"]):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "trihill"):
            used += [(node.lineno, alias.name) for alias in node.names]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            used.append((node.lineno, f"{node.value.id}.{node.attr}"))
    assert used and not [
        f"cli.py:{lineno} uses {name}"
        for lineno, name in used
        if name.rpartition(".")[2].startswith("_")
    ]


def test_every_top_level_definition_is_read():
    # A top-level function, class or constant that no code of the package
    # reads is dead, unless the package exports it or the span tracer names
    # it.  __init__.py only re-exports, so its own names are left out.
    trees = dict(package_trees())
    exported = {
        alias.name
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    with open(os.path.join(PERFBENCH, "spans.py")) as f:
        traced = {
            part
            for node in ast.walk(ast.parse(f.read()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for part in node.value.split(".")
        }
    defined, read = [], {}  # read: name -> {(file, index of a top-level statement)}
    for filename, tree in trees.items():
        for n, stmt in enumerate(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [x.id for t in targets for x in ast.walk(t) if isinstance(x, ast.Name)]
            else:
                names = []
            if filename != "__init__.py":
                defined += [(filename, n, stmt.lineno, name) for name in names]
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    read.setdefault(name, set()).add((filename, n))
    dead = [
        f"{filename}:{line} {name}"
        for filename, n, line, name in defined
        if not read.get(name, set()) - {(filename, n)} and name not in exported | traced
    ]
    assert not dead, dead


def test_scan_census_and_verify_run_without_scipy():
    code = """
import sys
from trihill import scan, systems, verify
helium = systems.preset("helium")
frame = scan.scan_disk(helium, 3.0, 64)
assert sum(scan.component_census(frame).counts.values()) > 0
scan.render(frame, "ppm"), scan.render(frame, "csv")
assert "FAIL" not in verify.verify_all(helium).text()
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""
    src = os.path.dirname(os.path.dirname(trihill.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_catalog_runs_without_numpy_polynomial():
    code = """
import sys
import trihill
from trihill.critical import critical_catalog
from trihill.systems import preset
assert len(critical_catalog(preset("helium"))) > 1
loaded = sorted(m for m in sys.modules if m.startswith("numpy.polynomial"))
assert not loaded, loaded
"""
    src = os.path.dirname(os.path.dirname(trihill.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_collinear_polynomials_are_float_sums(monkeypatch, all_systems):
    # np.convolve sums through the BLAS dot, which may fuse a sum, so the
    # coefficients' bits would hang on the BLAS build: the coefficients touch
    # no numpy, and every preset's catalog runs with np.convolve refused
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} was used")

    with monkeypatch.context() as patch:
        patch.setattr(critical, "np", NoNumpy())
        for system in all_systems.values():
            for order in ((2, 1, 3), (1, 2, 3), (1, 3, 2)):
                critical._collinear_polynomials(system, order)

    def refuse(*args, **kwargs):
        raise AssertionError("np.convolve was called")

    monkeypatch.setattr(critical.np, "convolve", refuse)
    for system in all_systems.values():
        assert any(cv.family == "collinear" for cv in critical.critical_catalog(system))
