"""Raster scans of the shape disk and contour grids of sqrt(Mt_k) Vt.

Pixel (i, j) of an N x N scan samples the cell centre
w1 = -1 + (2i+1)/N, w2 = -1 + (2j+1)/N.  Cells outside the closed unit disk
are Outside; cells with 1 - (w1^2 + w2^2) < (2/N)^2 form a one-pixel
Boundary band along the collinear circle (one pixel measured on the
hemisphere the disk projects, where the height above the collinear plane is
w3 = sqrt(1 - w1^2 - w2^2)); the rest are classified at the requested nu by
:func:`trihill.hill.class_codes`, the rule of ``orientation_class``.

A scan first tries whole blocks of BLOCK x BLOCK pixels.  Every float
operation from a pixel centre to its class code is monotone in each input
(see ``hill.shape_value_bounds``), so the float values over a block lie
between bounds taken at its corner pixels, and ``class_codes`` applied to
the two extreme corners of those bounds brackets every pixel's code.  Where
the two codes agree the block is filled with that code; the other interior
pixels go through ``classify_grid`` one by one.  The cells are those of the
per-pixel scan, bit for bit.

``euler_characteristics`` gives chi = V - E + F of the regions class >= Caps,
class >= Ring and Full.  Across a catalog value with rotation axis k, the
region of class >= 4 - k changes chi by exactly one, except at the diabolic
value, where the Full region changes by one only if the centre is an event
(``critical._diabolic_event``) and by zero otherwise; verify's event checks
test that rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import DomainError, check_index
from .hill import class_codes, moments, shape_value, shape_value_bounds
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
    V = shape_value(system, W1, W2)
    return class_codes(nu, V, moments(np.hypot(W1, W2))) + np.int8(CellClass.EMPTY)


BLOCK = 8  # side of the pixel blocks scan_disk certifies whole


def _disk_masks(s2, n: int):
    """(inside, band) at squared radii s2 of an N x N raster: inside the
    unit disk, and inside it in the one-pixel Boundary band."""
    inside = s2 < 1.0
    return inside, inside & (1.0 - s2 < (2.0 / n) ** 2)


def _block_bounds(system: BodySystem, c: np.ndarray):
    """Bounds over the BLOCK x BLOCK blocks of the raster with pixel centres
    ``c``: (outside, i, j, v, s).  ``outside`` marks the blocks wholly
    outside the disk, whose nearest corner fails the scan's s2 test;
    (i[k], j[k]) is the k-th interior block, whose farthest corner passes
    it; v = (low, high) bounds the float Vt and s = (low, high) the radius
    of each of its pixels.  The radius bounds are the hypot of the nearest
    and of the farthest |w| (0 across an axis), each widened by one ulp
    because hypot is only faithfully rounded.
    """
    n = c.size
    first = np.arange(0, n, BLOCK)
    lo, hi = c[first], c[np.minimum(first + BLOCK - 1, n - 1)]
    far = np.maximum(-lo, hi)
    near = np.where((lo <= 0.0) & (hi >= 0.0), 0.0, np.minimum(np.abs(lo), np.abs(hi)))
    s2_near = (near * near)[:, None] + (near * near)[None, :]
    s2_far = (far * far)[:, None] + (far * far)[None, :]
    inside, band = _disk_masks(s2_far, n)
    i, j = np.nonzero(inside & ~band)
    v = shape_value_bounds(
        system,
        np.stack((lo[i], lo[i], hi[i], hi[i])),
        np.stack((lo[j], hi[j], lo[j], hi[j])),
    )
    s = (
        np.nextafter(np.hypot(near[i], near[j]), 0.0),
        np.nextafter(np.hypot(far[i], far[j]), 2.0),
    )
    return s2_near >= 1.0, i, j, v, s


def _block_codes(system: BodySystem, nu: float, c: np.ndarray) -> np.ndarray:
    """Cell codes of the blocks of ``_block_bounds``: Outside for a block
    wholly outside the disk, the class of an interior block that lies in
    one class, and -1 for every other block.

    ``class_codes`` falls as Vt rises and rises with Mt1 and Mt2, so its
    codes at the two extreme corners of the bounds bracket the code of
    every pixel.  A block whose two codes agree is certified unless a bound
    is not finite.
    """
    outside, i, j, (v_low, v_high), (s_low, s_high) = _block_bounds(system, c)
    codes = np.where(outside, np.int8(CellClass.OUTSIDE), np.int8(-1))
    m_near, m_far = moments(s_low), moments(s_high)
    easy = class_codes(nu, v_low, (m_near[0], m_far[1], m_near[2]))
    hard = class_codes(nu, v_high, (m_far[0], m_near[1], m_near[2]))
    sure = (easy == hard) & np.isfinite(v_low) & np.isfinite(v_high)
    codes[i[sure], j[sure]] = easy[sure] + np.int8(CellClass.EMPTY)
    return codes


def scan_disk(system: BodySystem, nu: float, n: int) -> ShapeScan:
    """Classify every pixel of the N x N raster over [-1, 1]^2: whole blocks
    where ``_block_codes`` decides them, the other pixels one by one.  An n
    that is not an integer of at least 2 or a non-finite nu raises
    DomainError."""
    n = check_index("resolution", n, 2)
    c = pixel_centers(n)
    blocks = _block_codes(system, nu, c)
    # The block codes on the raster's pixels; the undecided ones read -1.  A
    # flat nonzero finds them several times faster than a 2-D one.
    cells = np.repeat(np.repeat(blocks, BLOCK, axis=0), BLOCK, axis=1)
    cells = np.ascontiguousarray(cells[:n, :n])
    ii, jj = np.divmod(np.flatnonzero(cells < 0), n)
    inside, band = _disk_masks(c[ii] * c[ii] + c[jj] * c[jj], n)
    codes = np.where(band, np.int8(CellClass.BOUNDARY), np.int8(CellClass.OUTSIDE))
    interior = inside & ~band
    if interior.any():
        codes[interior] = classify_grid(system, nu, c[ii[interior]], c[jj[interior]])
    cells[ii, jj] = codes
    return ShapeScan(resolution=n, nu=nu, cells=cells)


def _grid_axes(n: int, chi_psi: bool) -> tuple[np.ndarray, np.ndarray]:
    """Sample points of a contour grid's two axes: (psi, chi) over
    [0, 2 pi) x [0, pi/2] in chi-psi mode, else the pixel centres (w1, w2)."""
    if chi_psi:
        centres = np.arange(n) + 0.5
        return centres * (2.0 * math.pi / n), centres * (0.5 * math.pi / n)
    c = pixel_centers(n)
    return c, c


def contour_grid(
    system: BodySystem, k: int, n: int, chi_psi: bool = False
) -> ContourGrid:
    """Values of sqrt(Mt_k) Vt at pixel centres.

    Disk mode: NaN outside the closed disk, signed infinities at collision
    pixels.  The pixel centres go in as a column (w1) and a row (w2), so
    the affine part of each pair term is evaluated on n values per axis
    and broadcast over the grid; pixels outside the disk are evaluated too
    and then set to NaN.  chi-psi mode: grid over psi in [0, 2 pi) (index
    i) and chi in [0, pi/2] (index j); W1 and W2 are outer products of a
    column cos(psi) or sin(psi) and the row s = cos(chi).
    """
    k = check_index("axis index", k, 1, 3)
    n = check_index("resolution", n, 2)
    a, b = _grid_axes(n, chi_psi)
    if chi_psi:  # a holds psi, b chi
        s = np.cos(b)[None, :]
        W1, W2 = np.cos(a)[:, None] * s, np.sin(a)[:, None] * s
    else:
        W1, W2 = a[:, None], b[None, :]
        s = np.hypot(W1, W2)
    V = shape_value(system, W1, W2)
    mk = moments(s)[k - 1]
    with np.errstate(invalid="ignore"):
        vals = np.sqrt(np.maximum(mk, 0.0)) * V
    vals[np.broadcast_to(s > 1.0, vals.shape)] = np.nan
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


def _component_rows(mask: np.ndarray) -> np.ndarray:
    """The top row of each 4-connected component of a 2-D boolean mask.

    Run-based labelling on the mask laid out flat with one False column put
    before each row, so that no run crosses rows: a run's id is its rank in
    raster order, and the first column of each vertical overlap joins two
    runs.  Each root is hooked onto the least root it is joined to and
    pointer jumping then takes every run to its root, until no join links
    two roots.  A root is then the least run of its component, the first in
    raster order, so its row is the component's top row.  A stack of masks
    laid one under another, each followed by a False row, is labelled in
    one call: each component's top row then tells its mask.
    """
    cols = mask.shape[1]
    flat = np.concatenate((np.zeros((mask.shape[0], 1), dtype=bool), mask), axis=1).ravel()
    starts = np.flatnonzero(flat[1:] > flat[:-1]) + 1
    over = flat[cols + 1 :] & flat[: -cols - 1]
    top = np.flatnonzero(over[1:] > over[:-1]) + 1
    a, b = (np.searchsorted(starts, cells, side="right") - 1 for cells in (top, top + cols + 1))
    parent = np.arange(starts.size)
    while True:
        a, b = parent[a], parent[b]
        live = a != b
        if not live.any():
            return starts[parent == np.arange(starts.size)] // (cols + 1)
        a, b = a[live], b[live]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        up = parent[parent]
        while not np.array_equal(up, parent):
            parent, up = up, up[up]


def _check_cells(scan: ShapeScan) -> np.ndarray:
    """The cells of a scan that ``render`` or a count reads: cells that are
    not a 2-D integer array of CellClass codes raise DomainError."""
    cells = scan.cells
    if cells.ndim != 2 or cells.dtype.kind not in "iu" or not (
        0 <= cells.min(initial=0) and cells.max(initial=0) <= CellClass.FULL
    ):
        raise DomainError("scan cells must be a 2-D array of CellClass codes")
    return cells


def component_census(scan: ShapeScan) -> CensusReport:
    """4-connected component counts per class, plus boundary contact flags."""
    counts: dict[CellClass, int] = {}
    touches: dict[CellClass, bool] = {}
    # The boundary band grown by one cell in the four grid directions.
    band = _check_cells(scan) == np.int8(CellClass.BOUNDARY)
    near_boundary = band.copy()
    near_boundary[1:] |= band[:-1]
    near_boundary[:-1] |= band[1:]
    near_boundary[:, 1:] |= band[:, :-1]
    near_boundary[:, :-1] |= band[:, 1:]
    for cls in (CellClass.EMPTY, CellClass.CAPS, CellClass.RING, CellClass.FULL):
        mask = scan.cells == np.int8(cls)
        counts[cls] = _component_rows(mask).size
        touches[cls] = bool(np.logical_and(mask, near_boundary).any())
    return CensusReport(counts=counts, touches_boundary=touches)


def euler_characteristics(scan: ShapeScan) -> tuple[int, int, int]:
    """Euler characteristics V - E + F of the regions class >= Caps,
    class >= Ring and Full, each the union of its closed pixels.

    On the raster padded with Outside cells all round, an edge of the pixel
    grid lies in the union where either pixel beside it does, and a corner
    where any of the four pixels around it does.  Closed pixels that share
    a corner touch, so chi = b0 - b1: 8-connected components less the holes.
    """
    padded, count, chi = np.pad(_check_cells(scan), 1), np.count_nonzero, []
    for cls in (CellClass.CAPS, CellClass.RING, CellClass.FULL):
        faces = padded >= np.int8(cls)
        edges_i = faces[1:] | faces[:-1]  # between neighbours along i
        edges_j = faces[:, 1:] | faces[:, :-1]
        corners = edges_i[:, 1:] | edges_i[:, :-1]
        chi.append(int(count(corners) - count(edges_i) - count(edges_j) + count(faces)))
    return tuple(chi)


def render(obj, fmt: str) -> bytes:
    """Encode a ShapeScan (ppm or csv) or a ContourGrid (csv).  A scan whose
    cells are not n x n integer CellClass codes, or a grid whose values are
    not an n x n array of real numbers, raises DomainError."""
    if isinstance(obj, ShapeScan):
        n = obj.resolution
        if _check_cells(obj).shape != (n, n):
            raise DomainError(f"scan cells must be an {n} x {n} array of CellClass codes")
        if fmt == "ppm":
            return _scan_ppm(obj)
        if fmt == "csv":
            return _scan_csv(obj)
        raise DomainError(f"unsupported scan format {fmt!r}")
    if isinstance(obj, ContourGrid):
        n, values = obj.resolution, obj.values
        if not (
            isinstance(values, np.ndarray) and values.shape == (n, n) and values.dtype.kind in "iuf"
        ):
            raise DomainError(f"grid values must be an {n} x {n} array of real numbers")
        if fmt == "csv":
            return _grid_csv(obj)
        raise DomainError(f"unsupported grid format {fmt!r}")
    raise TypeError(f"cannot render {type(obj).__name__}")


def _scan_ppm(scan: ShapeScan) -> bytes:
    n = scan.resolution
    lut = np.array([PALETTE[cls] for cls in CellClass], dtype=np.uint8)
    # Image rows run top to bottom: w2 descending; columns: w1 ascending.
    rgb = np.take(lut, np.flipud(scan.cells.T), axis=0)
    return f"P6\n{n} {n}\n255\n".encode() + rgb.tobytes()


# The CSV writers format each axis once and leave the per-pixel work to C.
# A scan row is written by runs of one class: a run is the slice over its
# columns of its class's line ends "\n," + w2 + "," + NAME, and one replace
# puts w1 after each newline of the joined row.  A contour row is one bytes
# template, its lines' axis texts with a printf-style '%.12g' for each
# value, filled by one '%'.  Each writer joins its header and rows once.
# For every float, '%.12g' % x gives the text of format(x, '.12g'), as str
# and as bytes.


def _scan_csv(scan: ShapeScan) -> bytes:
    """numpy finds the runs of one code in each row; one Python step per
    run takes its slice of the class's line ends, and one per row joins
    the row's slices and puts w1 after every newline."""
    n, cells = scan.resolution, scan.cells
    c = ["%.12g" % x for x in pixel_centers(n).tolist()]
    tails = ["," + cls.name for cls in CellClass]
    ends = [memoryview(("\n," + (t + "\n,").join(c) + t).encode()) for t in tails]
    # at[code, j]: where column j's line end starts in ends[code]
    width = np.cumsum([0] + [len(w2) + 2 for w2 in c])
    at = width + np.arange(n + 1) * np.array([[len(t)] for t in tails])
    starts = np.ones((n, n), dtype=bool)
    np.not_equal(cells[:, 1:], cells[:, :-1], out=starts[:, 1:])
    first = np.flatnonzero(starts)
    row, col = np.divmod(first, n)
    code = cells.ravel()[first]
    stop = np.append(first[1:], n * n) - row * n
    runs = zip(code.tolist(), at[code, col].tolist(), at[code, stop].tolist())
    pieces = [ends[k][a:b] for k, a, b in runs]
    bounds = np.flatnonzero(col == 0).tolist() + [len(pieces)]
    spans = zip(c, bounds, bounds[1:])
    rows = [b"".join(pieces[a:b]).replace(b"\n", f"\n{w1}".encode()) for w1, a, b in spans]
    return b"".join([b"w1,w2,class", *rows, b"\n"])


def _grid_csv(grid: ContourGrid) -> bytes:
    axes = _grid_axes(grid.resolution, grid.chi_psi)
    a, b = ([b"%.12g" % x for x in axis.tolist()] for axis in axes)
    tails = [b"," + y + b",%.12g" for y in b]
    header = b"psi,chi,value" if grid.chi_psi else b"w1,w2,value"
    heads = [b"\n" + x for x in a]
    rows = [(h + h.join(tails)) % tuple(v) for h, v in zip(heads, grid.values.tolist())]
    return b"".join([header, *rows, b"\n"])
