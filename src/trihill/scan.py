"""Raster scans of the shape disk and contour grids of sqrt(Mt_k) Vt.

Pixel (i, j) of an N x N scan samples the cell centre
w1 = -1 + (2i+1)/N, w2 = -1 + (2j+1)/N.  Cells outside the closed unit disk
are Outside; cells with 1 - (w1^2 + w2^2) < (2/N)^2 form a one-pixel
Boundary band along the collinear circle (one pixel measured on the
hemisphere the disk projects, where the height above the collinear plane is
w3 = sqrt(1 - w1^2 - w2^2)); the rest are classified at the requested nu by
:func:`trihill.hill.class_codes`, the rule of ``orientation_class``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .hill import class_codes, moments, shape_kernel
from .systems import BodySystem


class CellClass(IntEnum):
    OUTSIDE = 0
    BOUNDARY = 1
    EMPTY = 2
    CAPS = 3
    RING = 4
    FULL = 5


PALETTE = {
    CellClass.OUTSIDE: (255, 255, 255),
    CellClass.BOUNDARY: (0, 0, 0),
    CellClass.EMPTY: (80, 80, 80),
    CellClass.CAPS: (40, 80, 220),
    CellClass.RING: (220, 50, 50),
    CellClass.FULL: (40, 170, 70),
}


@dataclass
class ShapeScan:
    resolution: int
    nu: float
    cells: np.ndarray  # int8, [i, j] indexed by (w1, w2)
    system: BodySystem


@dataclass
class ContourGrid:
    resolution: int
    axis: int
    chi_psi: bool
    values: np.ndarray


def pixel_centers(n: int) -> np.ndarray:
    return (2.0 * np.arange(n) + 1.0) / n - 1.0


def classify_grid(system: BodySystem, nu: float, W1, W2):
    """Vectorized orientation classes at disk points; arrays of CellClass codes
    by :func:`trihill.hill.class_codes`, the rule of ``orientation_class``."""
    V = shape_kernel(system, W1, W2)[0]
    return class_codes(nu, V, moments(np.hypot(W1, W2))) + np.int8(CellClass.EMPTY)


def scan_disk(system: BodySystem, nu: float, n: int) -> ShapeScan:
    """Classify every pixel of the N x N raster over [-1, 1]^2."""
    if n < 2:
        raise ValueError("resolution must be at least 2")
    c = pixel_centers(n)
    W1, W2 = np.meshgrid(c, c, indexing="ij")
    s2 = W1 * W1 + W2 * W2
    cells = np.full((n, n), CellClass.OUTSIDE, dtype=np.int8)
    inside = s2 < 1.0
    band = inside & (1.0 - s2 < (2.0 / n) ** 2)
    interior = inside & ~band
    if interior.any():
        ii, jj = np.nonzero(interior)
        cells[ii, jj] = classify_grid(system, nu, W1[ii, jj], W2[ii, jj])
    cells[band] = CellClass.BOUNDARY
    return ShapeScan(resolution=n, nu=nu, cells=cells, system=system)


def contour_grid(
    system: BodySystem, k: int, n: int, chi_psi: bool = False
) -> ContourGrid:
    """Values of sqrt(Mt_k) Vt at pixel centres.

    Disk mode: NaN outside the closed disk, signed infinities at collision
    pixels.  chi-psi mode: grid over psi in [0, 2 pi) (index i) and chi in
    [0, pi/2] (index j).
    """
    if k not in (1, 2, 3):
        raise ValueError("axis index must be 1, 2 or 3")
    if n < 2:
        raise ValueError("resolution must be at least 2")
    if chi_psi:
        psi = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        chi = (np.arange(n) + 0.5) * (0.5 * math.pi / n)
        PSI, CHI = np.meshgrid(psi, chi, indexing="ij")
        W1 = np.cos(CHI) * np.cos(PSI)
        W2 = np.cos(CHI) * np.sin(PSI)
        s = np.cos(CHI)
        valid = np.ones_like(W1, dtype=bool)
    else:
        c = pixel_centers(n)
        W1, W2 = np.meshgrid(c, c, indexing="ij")
        s = np.hypot(W1, W2)
        valid = s <= 1.0
    V = shape_kernel(system, np.where(valid, W1, 0.0), np.where(valid, W2, 0.0))[0]
    mk = moments(s)[k - 1]
    with np.errstate(invalid="ignore"):
        vals = np.sqrt(np.maximum(mk, 0.0)) * V
    vals = np.where(valid, vals, np.nan)
    return ContourGrid(resolution=n, axis=k, chi_psi=chi_psi, values=vals)


@dataclass
class CensusReport:
    counts: dict[CellClass, int]
    touches_boundary: dict[CellClass, bool]

    def signature(self) -> tuple:
        """Hashable summary used by bifurcation-stability comparisons."""
        return tuple(
            (int(self.counts[c]), bool(self.touches_boundary[c]))
            for c in (CellClass.EMPTY, CellClass.CAPS, CellClass.RING, CellClass.FULL)
        )


def component_census(scan: ShapeScan) -> CensusReport:
    """4-connected component counts per class, plus boundary contact flags."""
    from scipy import ndimage  # imported here: it is most of the cost of importing trihill

    counts: dict[CellClass, int] = {}
    touches: dict[CellClass, bool] = {}
    near_boundary = ndimage.binary_dilation(scan.cells == CellClass.BOUNDARY)
    for cls in (CellClass.EMPTY, CellClass.CAPS, CellClass.RING, CellClass.FULL):
        mask = scan.cells == cls
        _, n = ndimage.label(mask)
        counts[cls] = int(n)
        touches[cls] = bool(np.logical_and(mask, near_boundary).any())
    return CensusReport(counts=counts, touches_boundary=touches)


def render(obj, fmt: str) -> bytes:
    """Encode a ShapeScan (ppm or csv) or a ContourGrid (csv)."""
    if isinstance(obj, ShapeScan):
        if fmt == "ppm":
            return _scan_ppm(obj)
        if fmt == "csv":
            return _scan_csv(obj)
        raise ValueError(f"unsupported scan format {fmt!r}")
    if isinstance(obj, ContourGrid):
        if fmt == "csv":
            return _grid_csv(obj)
        raise ValueError(f"unsupported grid format {fmt!r}")
    raise TypeError(f"cannot render {type(obj).__name__}")


def _scan_ppm(scan: ShapeScan) -> bytes:
    n = scan.resolution
    rgb = np.zeros((n, n, 3), dtype=np.uint8)
    # Image rows run top to bottom: w2 descending; columns: w1 ascending.
    img = np.flipud(scan.cells.T)
    for cls, color in PALETTE.items():
        rgb[img == cls] = color
    return f"P6\n{n} {n}\n255\n".encode() + rgb.tobytes()


def _scan_csv(scan: ShapeScan) -> bytes:
    c = pixel_centers(scan.resolution)
    lines = ["w1,w2,class"]
    for i in range(scan.resolution):
        for j in range(scan.resolution):
            lines.append(
                f"{format(c[i], '.12g')},{format(c[j], '.12g')},"
                f"{CellClass(scan.cells[i, j]).name}"
            )
    return ("\n".join(lines) + "\n").encode()


def _grid_csv(grid: ContourGrid) -> bytes:
    n = grid.resolution
    if grid.chi_psi:
        a = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        b = (np.arange(n) + 0.5) * (0.5 * math.pi / n)
        header = "psi,chi,value"
    else:
        a = b = pixel_centers(n)
        header = "w1,w2,value"
    lines = [header]
    for i in range(n):
        for j in range(n):
            lines.append(
                f"{format(a[i], '.12g')},{format(b[j], '.12g')},"
                f"{format(grid.values[i, j], '.12g')}"
            )
    return ("\n".join(lines) + "\n").encode()
