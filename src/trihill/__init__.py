"""Reduced dynamics, Hill regions and bifurcation catalogs for charged
three-body systems."""

from .coords import (
    DragtCoords,
    JacobiShapeCoords,
    Shape,
    WCoords,
    collision_angles,
    dilate,
    distances_from_dragt,
    dragt_from_w,
    jacobi_from_w,
    normalize_shape,
    w_from_dragt,
    w_from_jacobi,
    xxy_section,
)
from .critical import (
    CriticalValue,
    LangmuirGeometry,
    collinear_configs,
    critical_catalog,
    find_critical_shapes,
    langmuir_geometry,
    nu_diabolic,
    nu_infinity,
    nu_lagrange,
    nu_langmuir,
)
from .hill import (
    HillMembership,
    OrientationClass,
    ShapeEvaluation,
    bif_function,
    f_analysis,
    membership,
    orientation_class,
    shape_eval,
)
from .reduction import (
    InertiaData,
    RovibState,
    eom,
    hamiltonian,
    inertia,
    integrate,
    relequil_residual,
)
from .scan import CellClass, component_census, contour_grid, render, scan_disk
from .systems import BodySystem, JacobiFrame, jacobi_frame, gravitational, load_system, preset
from .verify import build_relequil_state, verify_all

__version__ = "0.1.0"
