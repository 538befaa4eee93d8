import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trihill import scan as scan_module
from trihill.coords import Shape
from trihill.critical import critical_catalog, nu_diabolic
from trihill.errors import DomainError, TrihillError
from trihill.hill import moments, orientation_class, shape_value, v_tilde
from trihill.scan import (
    BLOCK,
    CellClass,
    ContourGrid,
    ShapeScan,
    _block_bounds,
    _component_rows,
    classify_grid,
    component_census,
    contour_grid,
    euler_characteristics,
    pixel_centers,
    render,
    scan_disk,
)
from trihill.systems import BodySystem, preset

from conftest import (
    adversarial_masks,
    oracle_component_census,
    oracle_grid_csv,
    oracle_scan_csv,
    oracle_scan_disk,
    oracle_scan_ppm,
)


def parse_class_csv(payload: bytes, n: int) -> np.ndarray:
    """Independent re-parse of the class CSV into an (n, n) code grid."""
    lines = payload.decode().strip().split("\n")
    assert lines[0] == "w1,w2,class"
    cells = np.empty((n, n), dtype=np.int8)
    c = pixel_centers(n)
    k = 1
    for i in range(n):
        for j in range(n):
            w1s, w2s, name = lines[k].split(",")
            assert float(w1s) == pytest.approx(c[i], abs=1e-12)
            assert float(w2s) == pytest.approx(c[j], abs=1e-12)
            cells[i, j] = CellClass[name]
            k += 1
    return cells


def test_scan_negative_nu_all_full(gravity):
    scan = scan_disk(gravity, -1.0, 64)
    interior = (scan.cells != CellClass.OUTSIDE) & (scan.cells != CellClass.BOUNDARY)
    assert np.all(scan.cells[interior] == CellClass.FULL)
    census = component_census(scan)
    assert census.counts[CellClass.FULL] == 1
    assert census.counts[CellClass.EMPTY] == 0
    assert census.counts[CellClass.CAPS] == 0
    assert census.counts[CellClass.RING] == 0


def test_scan_pixel_centres_and_outside():
    scan = scan_disk(BodySystem((1, 1, 1), (1, 1, 1)), 1.0, 8)
    c = pixel_centers(8)
    assert c[0] == pytest.approx(-1 + 1 / 8)
    assert c[-1] == pytest.approx(1 - 1 / 8)
    for i in range(8):
        for j in range(8):
            if c[i] ** 2 + c[j] ** 2 >= 1.0:
                assert scan.cells[i, j] == CellClass.OUTSIDE


def test_scan_matches_scalar_classifier(helium):
    n = 24
    scan = scan_disk(helium, 6.2, n)
    c = pixel_centers(n)
    for i in range(n):
        for j in range(n):
            s2 = c[i] ** 2 + c[j] ** 2
            if s2 >= 1.0 or 1.0 - s2 < (2.0 / n) ** 2:
                continue
            want = orientation_class(helium, 6.2, Shape(c[i], c[j]))
            got = CellClass(scan.cells[i, j])
            assert got.name == want.name


def test_scan_boundary_band_rule(gravity):
    n = 50
    scan = scan_disk(gravity, 1.0, n)
    c = pixel_centers(n)
    for i in range(n):
        for j in range(n):
            s2 = c[i] ** 2 + c[j] ** 2
            if s2 < 1.0 and 1.0 - s2 < (2.0 / n) ** 2:
                assert scan.cells[i, j] == CellClass.BOUNDARY


def test_render_ppm_header_and_all_outside_payload(gravity):
    from trihill.scan import ShapeScan

    cells = np.full((2, 2), CellClass.OUTSIDE, dtype=np.int8)
    scan = ShapeScan(resolution=2, nu=1.0, cells=cells)
    payload = render(scan, "ppm")
    assert payload.startswith(b"P6\n2 2\n255\n")
    body = payload[len(b"P6\n2 2\n255\n") :]
    assert len(body) == 12
    assert body == bytes([255] * 12)


def test_render_ppm_palette_and_orientation(gravity):
    scan = scan_disk(gravity, -1.0, 3)
    # corners are in the boundary band at this resolution, the cross is FULL
    payload = render(scan, "ppm")
    body = payload[len(b"P6\n3 3\n255\n") :]
    rgb = np.frombuffer(body, dtype=np.uint8).reshape(3, 3, 3)
    assert tuple(rgb[1, 1]) == (40, 170, 70)  # FULL
    assert tuple(rgb[0, 0]) == (0, 0, 0)  # BOUNDARY
    # image row 0 is w2 = +max: cell [i=1, j=2] lands at row 0, column 1
    scan.cells[1, 2] = CellClass.RING
    rgb = np.frombuffer(render(scan, "ppm")[11:], dtype=np.uint8).reshape(3, 3, 3)
    assert tuple(rgb[0, 1]) == (220, 50, 50)


def test_render_csv_roundtrip(helium):
    n = 16
    scan = scan_disk(helium, 6.0, n)
    cells = parse_class_csv(render(scan, "csv"), n)
    assert np.array_equal(cells, scan.cells)


def test_render_rejects_unknown_format(gravity):
    scan = scan_disk(gravity, 1.0, 4)
    with pytest.raises(DomainError):
        render(scan, "png")


def test_contour_grid_center_value(gravity):
    grid = contour_grid(gravity, 1, 5)
    # centre pixel sits exactly at the diabolic shape
    want = -math.sqrt(2.0 * nu_diabolic(gravity).nu)
    assert grid.values[2, 2] == pytest.approx(want, rel=1e-12)
    assert grid.values[2, 2] == pytest.approx(-3.7313130486603576, rel=1e-12)


def test_contour_grid_axis3_is_v_tilde(eep):
    n = 9
    grid = contour_grid(eep, 3, n)
    c = pixel_centers(n)
    for i in range(n):
        for j in range(n):
            if c[i] ** 2 + c[j] ** 2 <= 1.0:
                assert grid.values[i, j] == v_tilde(eep, c[i], c[j])
            else:
                assert math.isnan(grid.values[i, j])


def test_contour_grid_collision_pixel_is_signed_infinity(eep):
    # place a chi-psi sample exactly on a collision ray: use a disk pixel
    # instead: the (1,3) collision is at (-1, 0); pick n so a pixel centre
    # lands on the boundary circle there
    grid = contour_grid(eep, 2, 4)
    # no pixel is exactly at a collision for n = 4; values must be finite or nan
    vals = grid.values[np.isfinite(grid.values)]
    assert vals.size > 0
    # boundary-adjacent pixels for k = 1 have values near zero from below
    g1 = contour_grid(eep, 1, 101)
    c = pixel_centers(101)
    i = np.argmin(np.abs(c - 0.0))
    j = np.argmax(c * (c * c <= 1.0))
    assert abs(g1.values[i, j]) < 0.5


def test_contour_grid_chi_psi_mode(gravity):
    n = 32
    grid = contour_grid(gravity, 1, n, chi_psi=True)
    assert grid.values.shape == (n, n)
    assert np.all(np.isfinite(grid.values))
    psi = (np.arange(n) + 0.5) * (2 * math.pi / n)
    chi = (np.arange(n) + 0.5) * (math.pi / 2 / n)
    for i in (0, 7, 19):
        for j in (0, 11, 30):
            w1 = math.cos(chi[j]) * math.cos(psi[i])
            w2 = math.cos(chi[j]) * math.sin(psi[i])
            want = math.sin(chi[j] / 2) * v_tilde(gravity, w1, w2)
            assert grid.values[i, j] == pytest.approx(want, rel=1e-12)


def test_census_class_changes_only_at_thresholds(helium):
    # per-pixel class flips exactly when nu crosses one of the pixel's
    # three thresholds (1/2) Mt_k Vt^2
    rng = np.random.default_rng(107)
    from trihill.hill import nu_thresholds

    for _ in range(50):
        w1, w2 = rng.uniform(-0.9, 0.9, 2)
        if math.hypot(w1, w2) >= 0.9:
            continue
        sh = Shape(w1, w2)
        ths = sorted(nu_thresholds(helium, sh))
        for lo, hi in zip([1e-6] + ths, ths + [ths[-1] * 2 + 1.0]):
            if hi - lo < 1e-9:
                continue
            nus = np.linspace(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), 4)
            classes = {orientation_class(helium, float(nu), sh) for nu in nus}
            assert len(classes) == 1


def test_census_monotone_pixel_sequence(gravity):
    # as nu decreases the class at a fixed pixel only moves toward FULL
    sh = Shape(0.2, -0.3)
    nus = np.linspace(30.0, 0.01, 40)
    codes = [int(orientation_class(gravity, float(nu), sh)) for nu in nus]
    assert codes == sorted(codes)


def test_scan_gravity_high_nu_structure(gravity):
    # above the last collinear value: the forbidden region splits the disk
    # into three accessible islands, one around each double collision
    from scipy import ndimage
    from trihill.coords import collision_angles

    scan = scan_disk(gravity, 25.0, 400)
    cells = scan.cells
    c = pixel_centers(400)
    W1, W2 = np.meshgrid(c, c, indexing="ij")
    ang = np.arctan2(W2, W1)
    srad = np.hypot(W1, W2)

    assert ndimage.label(cells == CellClass.EMPTY)[1] == 1
    assert not np.any(cells == CellClass.FULL)

    # three macroscopic ring components, each holding one collision angle
    lab, n = ndimage.label(cells == CellClass.RING)
    sizes = ndimage.sum(np.ones_like(lab), lab, index=range(1, n + 1))
    macro = [k + 1 for k, size in enumerate(sizes) if size >= 100]
    assert len(macro) == 3
    psis = collision_angles(gravity)
    seen = set()
    for comp in macro:
        rim = (lab == comp) & (srad > 0.98)
        angs = ang[rim]
        for i, psi in enumerate(psis):
            if np.any(np.abs(np.angle(np.exp(1j * (angs - psi)))) < 0.05):
                seen.add(i)
    assert seen == {0, 1, 2}

    # the forbidden region reaches the rim (outside-adjacent) at three
    # separated angular clusters, the finite-resolution reading of the
    # boundary-band contact
    out_adj = ndimage.binary_dilation(cells == CellClass.OUTSIDE)
    angs = np.sort(ang[(cells == CellClass.EMPTY) & out_adj])
    assert angs.size > 0
    clusters = 1 + int(np.sum(np.diff(angs) > 0.2))
    if angs[0] + 2 * math.pi - angs[-1] < 0.2:
        clusters -= 1
    assert clusters == 3


def test_census_deterministic(gravity):
    a = scan_disk(gravity, 7.0, 150)
    b = scan_disk(gravity, 7.0, 150)
    assert np.array_equal(a.cells, b.cells)
    assert render(a, "ppm") == render(b, "ppm")


_SIGNS = list(itertools.product((1.0, -1.0), repeat=3))


@pytest.mark.parametrize("signs", _SIGNS)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    masses=st.tuples(*[st.floats(0.1, 5.0)] * 3),
    magnitudes=st.tuples(*[st.floats(0.05, 3.0)] * 3),
    nu_pos=st.floats(1e-3, 20.0),
)
def test_classify_grid_is_orientation_class_property(signs, masses, magnitudes, nu_pos):
    system = BodySystem(masses, tuple(s * m for s, m in zip(signs, magnitudes)))
    n = 16
    c = pixel_centers(n)
    for nu in (-nu_pos, 0.0, nu_pos):
        cells = scan_disk(system, nu, n).cells
        ii, jj = np.nonzero(cells >= CellClass.EMPTY)
        assert len(ii) > 0
        for i, j in zip(ii, jj):
            want = orientation_class(system, nu, Shape(c[i], c[j]))
            assert int(cells[i, j]) - 2 == int(want)


def _sweep(system):
    """nu below 0, at 0, between each pair of consecutive critical values
    and above the top one."""
    nus = sorted({cv.nu for cv in critical_catalog(system)})
    return [-1.0, 0.0] + [0.5 * (a + b) for a, b in zip(nus, nus[1:])] + [1.25 * nus[-1] + 0.1]


def test_census_and_ppm_match_dilation_and_fancy_index_oracles():
    # Random cell arrays put Boundary cells anywhere, edges and corners
    # included; small scans have a band that touches classified cells.
    rng = np.random.default_rng(7)
    scans = []
    sizes, band_shares, outside_shares = (2, 3, 4, 5, 8, 17, 64), (0.0, 0.05, 0.3, 0.9), (0.1, 0.9)
    for n, p_band, p_out in itertools.product(sizes, band_shares, outside_shares):
        # mostly Outside: a class often meets the band in one direction only
        codes = rng.integers(CellClass.EMPTY, CellClass.FULL + 1, (n, n))
        codes[rng.random((n, n)) < p_band] = CellClass.BOUNDARY
        codes[rng.random((n, n)) < p_out] = CellClass.OUTSIDE
        scans.append(ShapeScan(n, 0.0, codes.astype(np.int8)))
    for name in ("gravity-demo", "helium", "eep"):
        system = preset(name)
        for n in (3, 5, 8, 16, 40):
            scans += [scan_disk(system, nu, n) for nu in _sweep(system)]
    touched = 0
    for scan in scans:
        got = component_census(scan)
        assert got == oracle_component_census(scan)
        assert render(scan, "ppm") == oracle_scan_ppm(scan)
        touched += any(got.touches_boundary.values())
    assert 0 < touched < len(scans)


def test_component_counter_matches_ndimage_label_on_adversarial_masks():
    from scipy import ndimage

    for name, mask in adversarial_masks().items():
        want = ndimage.label(mask)[1]
        assert _component_rows(mask).size == want, name
        if name.startswith(("checkerboard", "spiral", "comb", "serpentine")):
            assert want == (mask.sum() if name.startswith("checkerboard") else 1), name
        # the same mask and its complement as two classes of a scan
        cells = np.where(mask, CellClass.FULL, CellClass.EMPTY).astype(np.int8)
        counts = component_census(ShapeScan(mask.shape[0], 0.0, cells)).counts
        assert counts[CellClass.FULL] == want, name
        assert counts[CellClass.EMPTY] == ndimage.label(~mask)[1], name


def test_euler_characteristics_are_components_less_holes():
    # chi = b0 - b1 of the union of closed pixels: b0 counts 8-connected
    # components (closed pixels that share a corner touch), b1 the
    # 4-connected components of the padded complement less the outer one.
    from scipy import ndimage

    def oracle(mask):
        holes = ndimage.label(~np.pad(mask, 1))[1] - 1
        return ndimage.label(mask, structure=np.ones((3, 3)))[1] - holes

    for name, mask in adversarial_masks().items():
        scan = ShapeScan(mask.shape[0], 0.0, np.where(mask, CellClass.FULL, CellClass.EMPTY))
        assert euler_characteristics(scan) == (oracle(mask),) * 3, name
    # Random cells of every class, so that the three regions differ.
    rng = np.random.default_rng(18)
    for _ in range(1_000):
        cells = rng.integers(CellClass.OUTSIDE, CellClass.FULL + 1, rng.integers(1, 30, 2))
        cells[rng.random(cells.shape) < rng.random()] = CellClass.EMPTY
        scan = ShapeScan(cells.shape[0], 0.0, cells.astype(np.int8))
        regions = (cells >= CellClass.CAPS, cells >= CellClass.RING, cells == CellClass.FULL)
        assert euler_characteristics(scan) == tuple(map(oracle, regions))


@pytest.mark.parametrize("name", ["gravity-demo", "helium", "eep"])
@pytest.mark.parametrize("n", [2, 3, 37, 128])
def test_scan_csv_matches_per_pixel_writer(name, n):
    system = preset(name)
    for nu in _sweep(system):
        scan = scan_disk(system, nu, n)
        assert render(scan, "csv") == oracle_scan_csv(scan)


def test_scan_csv_matches_per_pixel_writer_on_adversarial_rasters():
    # Random rasters put any class next to any other, Outside beside Full
    # included; rows of one run and rows that change class at every pixel
    # are the two ends of the run writer.
    rng = np.random.default_rng(24)
    for n in (2, 3, 17, 64):
        i, j = np.indices((n, n))
        rasters = [rng.integers(CellClass.OUTSIDE, CellClass.FULL + 1, (n, n)) for _ in range(4)]
        rasters += [i % 6, (i + j) % 6, np.where((i + j) % 2, CellClass.FULL, CellClass.OUTSIDE)]
        rasters += [np.full((n, n), cls) for cls in CellClass]
        for cells in rasters:
            scan = ShapeScan(n, 0.0, cells.astype(np.int8))
            assert render(scan, "csv") == oracle_scan_csv(scan), (n, cells)


@pytest.mark.parametrize("name", ["gravity-demo", "helium", "eep"])
def test_scan_csv_matches_per_pixel_writer_at_cli_resolution(name):
    system = preset(name)
    sweep = _sweep(system)
    scan = scan_disk(system, sweep[len(sweep) // 2], 400)
    assert len(np.unique(scan.cells)) >= 3
    assert render(scan, "csv") == oracle_scan_csv(scan)


def _impossible_cells(good):
    """Rasters that are no 4 x 4 scan, by label, made from the cells ``good``."""
    return {
        "minus one": np.where(good == CellClass.FULL, -1, good).astype(np.int8),
        "six": np.where(good == CellClass.OUTSIDE, 6, good).astype(np.int8),
        "not square": good[:, :3],
        "too large": np.zeros((5, 5), dtype=np.int8),
        "flat": good.ravel(),
        "float codes": good + 0.5,
    }


@pytest.mark.parametrize("fmt", ["csv", "ppm"])
def test_render_rejects_impossible_cells(gravity, fmt):
    # A code of -1 would wrap to Full under numpy indexing, and 6 would
    # raise a bare IndexError; cells of another shape would not match the
    # header's grid.
    good = scan_disk(gravity, 1.0, 4).cells
    bad = _impossible_cells(good)
    for label, cells in bad.items():
        try:
            render(ShapeScan(4, 1.0, cells), fmt)
        except DomainError:
            continue
        pytest.fail(f"{label}: rendered without DomainError")
    assert render(ShapeScan(4, 1.0, good.astype(np.uint8)), fmt) == render(
        ShapeScan(4, 1.0, good), fmt
    )


@pytest.mark.parametrize("count", [component_census, euler_characteristics])
def test_census_and_euler_characteristics_reject_impossible_cells(gravity, count):
    # Codes of 9 everywhere matched no class: the census counted nothing.
    # The counts read no resolution, so a raster of another 2-D shape is
    # counted as it stands.
    good = scan_disk(gravity, 1.0, 4).cells
    bad = _impossible_cells(good) | {"nine": np.full((4, 4), 9, np.int8)}
    for label in ("not square", "too large"):
        cells = bad.pop(label)
        assert count(ShapeScan(4, 1.0, cells)) == count(ShapeScan(len(cells), 1.0, cells))
    for label, cells in bad.items():
        with pytest.raises(DomainError):
            count(ShapeScan(4, 1.0, cells))
    assert count(ShapeScan(4, 1.0, good.astype(np.uint8))) == count(ShapeScan(4, 1.0, good))


def test_render_rejects_impossible_grid_values(gravity):
    # Rows of another count or length would not match the header's grid:
    # unchecked, zip would stop at the shorter side, and a longer row would
    # raise a bare TypeError.  NaN and inf stay legal: they mark outside and
    # collision pixels.
    good = contour_grid(gravity, 3, 3)
    bad = {
        "four rows": np.zeros((4, 3)),
        "two rows": np.zeros((2, 3)),
        "four columns": np.zeros((3, 4)),
        "flat": good.values.ravel(),
        "complex": good.values + 0j,
        "strings": good.values.astype(str),
        "a list": good.values.tolist(),
    }
    for label, values in bad.items():
        try:
            render(ContourGrid(3, 3, False, values), "csv")
        except DomainError:
            continue
        pytest.fail(f"{label}: rendered without DomainError")
    marks = np.array([[np.nan, np.inf, -np.inf], [0.0, 1.0, 2.0], [3, 4, 5]])
    assert render(ContourGrid(3, 3, False, marks), "csv").count(b"nan") == 1
    ints = np.arange(9).reshape(3, 3)
    assert render(ContourGrid(3, 3, False, ints), "csv") == render(
        ContourGrid(3, 3, False, ints.astype(float)), "csv"
    )


@pytest.mark.parametrize("name", ["gravity-demo", "helium", "eep"])
@pytest.mark.parametrize("chi_psi", [False, True])
def test_contour_csv_matches_per_pixel_writer(name, chi_psi):
    system = preset(name)
    for k in (1, 2, 3):
        for n in (2, 3, 37):
            grid = contour_grid(system, k, n, chi_psi=chi_psi)
            assert render(grid, "csv") == oracle_grid_csv(grid)


def test_contour_csv_special_values():
    specials = [
        math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1, -1 / 3, 1e-300
    ]
    values = np.array(specials).reshape(3, 3)
    for chi_psi in (False, True):
        grid = ContourGrid(resolution=3, axis=1, chi_psi=chi_psi, values=values)
        payload = render(grid, "csv")
        assert payload == oracle_grid_csv(grid)
        cells = [line.split(",")[2] for line in payload.decode().split("\n")[1:-1]]
        assert cells == [
            "nan", "inf", "-inf", "-0", "4.94065645841e-324", "1.79769313486e+308",
            "0.1", "-0.333333333333", "1e-300",
        ]


def _assert_grid_bits(system, k, n, chi_psi=False):
    """``contour_grid`` equals, bit for bit, shape_value times
    sqrt(max(Mt_k, 0)) taken at the flat list of its sample points, and NaN
    elsewhere: in disk mode the pixel centres of the closed disk, in chi-psi
    mode the points cos(chi) (cos(psi), sin(psi)) of the whole flat mesh."""
    if chi_psi:
        centres = np.arange(n) + 0.5
        psi = np.repeat(centres * (2.0 * math.pi / n), n)
        s = np.cos(np.tile(centres * (0.5 * math.pi / n), n))
        w1, w2 = s * np.cos(psi), s * np.sin(psi)
    else:
        c = pixel_centers(n)
        w1, w2 = np.repeat(c, n), np.tile(c, n)
        s = np.hypot(w1, w2)
    inside = s <= 1.0
    want = np.full(n * n, np.nan)
    mk = np.broadcast_to(moments(s[inside])[k - 1], inside.sum())
    with np.errstate(invalid="ignore"):
        want[inside] = shape_value(system, w1[inside], w2[inside]) * np.sqrt(np.maximum(mk, 0.0))
    got = contour_grid(system, k, n, chi_psi).values
    assert got.shape == (n, n)
    assert np.array_equal(got.ravel().view(np.int64), want.view(np.int64))


def test_disk_contour_grid_bits_on_presets(all_systems):
    # chi-psi mode too, whose outer products must give the mesh's bits
    for system in all_systems.values():
        for k in (1, 2, 3):
            for n in (2, 3, 37, 400):
                _assert_grid_bits(system, k, n)
                _assert_grid_bits(system, k, n, chi_psi=True)


@pytest.mark.parametrize("signs", _SIGNS)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(
    masses=st.tuples(*[st.floats(0.1, 5.0)] * 3),
    magnitudes=st.tuples(*[st.floats(0.05, 3.0)] * 3),
    n=st.sampled_from([2, 3, 37, 400]),
    k=st.sampled_from([1, 2, 3]),
)
def test_disk_contour_grid_bits_property(signs, masses, magnitudes, n, k):
    system = BodySystem(masses, tuple(s * m for s, m in zip(signs, magnitudes)))
    _assert_grid_bits(system, k, n)
    _assert_grid_bits(system, k, n, chi_psi=True)


def test_disk_contour_grid_is_nan_exactly_outside_the_closed_disk(monkeypatch, all_systems):
    # No pixel centre of a raster lies on the unit circle, so these centres
    # put points on it, where np.hypot gives exactly 1, and 5e-13 outside it
    # at (1 + 5e-13, 0) and (0, 1 + 5e-13), where Vt is still finite.
    c = np.array([-0.8, -0.6, 0.0, 0.6, 0.8, 1.0, 1.0 + 5e-13])
    monkeypatch.setattr(scan_module, "pixel_centers", lambda n: c)
    s = np.hypot(c[:, None], c[None, :])
    assert np.count_nonzero(s == 1.0) == 10
    assert np.count_nonzero((s > 1.0) & (s < 1.0 + 1e-12)) == 2
    for system in all_systems.values():
        for k in (1, 2, 3):
            values = contour_grid(system, k, c.size).values
            assert np.array_equal(~np.isnan(values), s <= 1.0)


@pytest.mark.parametrize("signs", _SIGNS)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(
    masses=st.tuples(*[st.floats(0.1, 5.0)] * 3),
    magnitudes=st.tuples(*[st.floats(0.05, 3.0)] * 3),
    nu=st.floats(-5.0, 20.0),
    n=st.integers(2, 24),
    k=st.sampled_from([1, 2, 3]),
)
def test_writers_match_per_pixel_writers_property(signs, masses, magnitudes, nu, n, k):
    system = BodySystem(masses, tuple(s * m for s, m in zip(signs, magnitudes)))
    scan = scan_disk(system, nu, n)
    assert render(scan, "csv") == oracle_scan_csv(scan)
    for chi_psi in (False, True):
        grid = contour_grid(system, k, n, chi_psi=chi_psi)
        assert render(grid, "csv") == oracle_grid_csv(grid)


@pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
def test_non_finite_nu_is_rejected(gravity, nu):
    c = pixel_centers(8)
    with pytest.raises(TrihillError):
        classify_grid(gravity, nu, c[2:6], c[2:6])
    for n in (2, 64):  # no interior pixel at n = 2
        with pytest.raises(TrihillError) as info:
            scan_disk(gravity, nu, n)
        assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("signs", _SIGNS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    masses=st.tuples(*[st.floats(0.1, 5.0)] * 3),
    magnitudes=st.tuples(*[st.floats(0.05, 3.0)] * 3),
    n=st.sampled_from([2, 3, 9, 37, 128, 400]),
    between=st.floats(0.0, 1.0),
    below=st.floats(1e-300, 1e300),
)
def test_scan_disk_matches_per_pixel_oracle_property(signs, masses, magnitudes, n, between, below):
    # nu at and between the catalog values, below 0, at 0 and at the ends
    # of the float range, where levels underflow or overflow
    system = BodySystem(masses, tuple(s * m for s, m in zip(signs, magnitudes)))
    nus = sorted({cv.nu for cv in critical_catalog(system)})
    between_nus = [a + between * (b - a) for a, b in zip(nus, nus[1:])]
    for nu in [-below, 0.0, 1e-300, 1e300, *nus, *between_nus]:
        assert np.array_equal(scan_disk(system, nu, n).cells, oracle_scan_disk(system, nu, n)), nu


@pytest.mark.parametrize("n", [37, 128, 400])
def test_block_bounds_hold_at_every_pixel(all_systems, n):
    # The premise of the block certificate, pixel by pixel: every pixel's
    # float radius and Vt lie within its block's bounds, and every pixel of
    # an outside block fails the disk test.  A libm whose hypot is less
    # than faithfully rounded, or a change that breaks the monotonicity of
    # shape_value, fails here rather than drawing a wrong cell.
    rng = np.random.default_rng(17)
    systems = list(all_systems.values()) + [
        BodySystem(tuple(rng.uniform(0.1, 5.0, 3)), tuple(rng.uniform(0.05, 3.0, 3) * signs))
        for signs in _SIGNS
    ]
    c = pixel_centers(n)
    step = np.arange(BLOCK)

    def pixels(bi, bj):  # (blocks, BLOCK, BLOCK) indices, a partial edge block padded with its last pixel
        ii = np.minimum(bi[:, None, None] * BLOCK + step[:, None], n - 1)
        jj = np.minimum(bj[:, None, None] * BLOCK + step, n - 1)
        return np.broadcast_arrays(ii, jj)

    for system in systems:
        outside, i, j, (v_low, v_high), (s_low, s_high) = _block_bounds(system, c)
        assert i.size > 0
        ii, jj = pixels(i, j)
        r = np.hypot(c[ii], c[jj])
        assert np.all((s_low[:, None, None] <= r) & (r <= s_high[:, None, None]))
        v = shape_value(system, c[ii], c[jj])
        finite = (np.isfinite(v_low) & np.isfinite(v_high))[:, None, None]
        assert np.all(~finite | ((v_low[:, None, None] <= v) & (v <= v_high[:, None, None])))
        ii, jj = pixels(*np.nonzero(outside))
        assert np.all(c[ii] * c[ii] + c[jj] * c[jj] >= 1.0)


def test_helium_frame_certifies_blocks_and_classifies_the_rest(helium, monkeypatch):
    seen = []

    def recording(system, nu, W1, W2):
        seen.append(W1.size)
        return classify_grid(system, nu, W1, W2)

    monkeypatch.setattr(scan_module, "classify_grid", recording)
    n, nu = 400, 6.0
    cells = scan_disk(helium, nu, n).cells
    assert np.array_equal(cells, oracle_scan_disk(helium, nu, n))
    interior = np.count_nonzero(cells >= CellClass.EMPTY)
    assert len(seen) == 1 and 0 < seen[0] < interior
    certified = interior - seen[0]  # pixels in certified blocks, all whole at n = 400
    assert certified >= BLOCK * BLOCK and certified % (BLOCK * BLOCK) == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda s: scan_disk(s, 1.0, 3.5),
        lambda s: scan_disk(s, 1.0, 8.0),
        lambda s: scan_disk(s, 1.0, 1),
        lambda s: scan_disk(s, 1.0, "8"),
        lambda s: contour_grid(s, 1, 3.5),
        lambda s: contour_grid(s, 1, 1),
        lambda s: contour_grid(s, 1.0, 8),
        lambda s: contour_grid(s, 0, 8),
        lambda s: contour_grid(s, 4, 8),
    ],
)
def test_resolution_and_axis_must_be_integers_in_range(gravity, call):
    with pytest.raises(DomainError):
        call(gravity)


def test_resolution_and_axis_accept_numpy_integers(gravity):
    assert scan_disk(gravity, 1.0, np.int64(8)).resolution == 8
    grid = contour_grid(gravity, np.int32(2), np.uint16(8))
    assert (grid.axis, grid.resolution) == (2, 8) and type(grid.resolution) is int
