import os
import subprocess
import sys
from pathlib import Path

import pytest

import trihill
from trihill.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv):
    """The CLI in a fresh interpreter, as a user runs it, so that any numpy
    RuntimeWarning would reach stderr under Python's default filters."""
    env = {**os.environ, "PYTHONPATH": str(Path(trihill.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "trihill.cli", *argv],
        capture_output=True, text=True, env=env, check=False,
    )


# `trihill critical` stdout for each preset, byte for byte.
CRITICAL_STDOUT = {
    "gravity-demo": (
        "nu,family,axis,multiplicity,w1,w2,detail\n"
        "0,zero,,1,,,energy sign change\n"
        "0.392727272727,infinity,,1,0.328671328671,-0.944444364539,co-rotating pair (2;3)\n"
        "0.787692307692,infinity,,1,-1,1.22464679915e-16,co-rotating pair (1;3)\n"
        "1.26390857143,infinity,,1,0.67032967033,0.742063429281,co-rotating pair (1;2)\n"
        "6.96134853355,diabolic,1,1,0,0,in-plane moments degenerate (Mt1 = Mt2 = 1/2)\n"
        "13.8360589474,lagrange,3,1,-0.00912646675359,-0.132062135719,G=1.0\n"
        "18.5690443892,collinear,,1,-0.459298585814,0.88828194233,order=(2; 1; 3) t=0.509238983157 psi_deg=117.341856\n"
        "19.1286569634,collinear,,1,0.945951025223,-0.324309509387,order=(1; 2; 3) t=0.528898528174 psi_deg=-18.923747\n"
        "19.4429621041,collinear,,1,-0.519698598751,-0.854349674581,order=(1; 3; 2) t=0.519594956279 psi_deg=-121.312036\n"
    ),
    "helium": (
        "nu,family,axis,multiplicity,w1,w2,detail\n"
        "0,zero,,1,,,energy sign change\n"
        "1.99972567265,infinity,,2,0.999999962372,-0.000274327346759,co-rotating pair (2;3)\n"
        "5.42066955124,diabolic,1,1,0,0,in-plane moments degenerate (Mt1 = Mt2 = 1/2)\n"
        "6.74814854434,langmuir,2,1,6.85677259618e-05,0.499897115486,theta_deg=30 pair=(1;2)\n"
        "12.25,collinear,,1,-0.00013716367467,-0.999999990593,order=(1; 3; 2) t=0.5 psi_deg=-90.007859\n"
    ),
    "eep": (
        "nu,family,axis,multiplicity,w1,w2,detail\n"
        "0,zero,,1,,,energy sign change\n"
        "0.25,infinity,,3,0.5,-0.866025403784,co-rotating pair (2;3) +merged diabolic\n"
        "0.292559472979,langmuir,1,1,-0.163740001037,-0.283606001027,theta_deg=39.0472102 pair=(1;2)\n"
        "2.25,collinear,,1,-0.5,-0.866025403784,order=(1; 3; 2) t=0.5 psi_deg=-120.000000\n"
    ),
}


@pytest.mark.parametrize("name", list(CRITICAL_STDOUT))
def test_critical_stdout_pinned(capsys, name):
    code, out, _ = run_cli(capsys, "critical", "--preset", name)
    assert code == 0
    assert out == CRITICAL_STDOUT[name]


def test_critical_catalog_output(capsys):
    code, out, _ = run_cli(capsys, "critical", "--preset", "gravity-demo")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "nu,family,axis,multiplicity,w1,w2,detail"
    assert len(lines) == 10
    nus = [float(line.split(",")[0]) for line in lines[1:]]
    assert nus[0] == 0.0
    assert nus[-1] == pytest.approx(19.44296212, rel=1e-6)


def test_output_deterministic(capsys):
    _, first, _ = run_cli(capsys, "critical", "--preset", "helium")
    _, second, _ = run_cli(capsys, "critical", "--preset", "helium")
    assert first == second


def test_system_file_matches_preset(tmp_path, capsys):
    path = tmp_path / "helium.sys"
    path.write_text(
        "# helium atom in atomic units\n"
        "masses 1.0 1.0 7289.56\n"
        "alphas 2.0 2.0 -1.0\n",
        encoding="utf-8",
    )
    _, from_preset, _ = run_cli(capsys, "critical", "--preset", "helium")
    _, from_file, _ = run_cli(capsys, "critical", "--system", str(path))
    assert from_file == from_preset


def test_classify_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify", "--preset", "helium", "--shape", "0", "0", "--nu", "6.0",
        "--jhat", "0", "0", "1",
    )
    assert code == 0
    assert "class CAPS" in out
    assert "member true" in out
    assert "V_tilde -4.65646627873" in out


def test_classify_at_a_huge_nu_prints_no_warning():
    # E * E_R overflows the discriminant to -inf; that is still IIIb.
    proc = run_fresh(
        "classify", "--preset", "helium", "--shape", "0.1", "0.2", "--nu", "4e307",
        "--jhat", "1", "0", "0",
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "shape 0.1 0.2\n"
        "V_tilde -4.55969953926\n"
        "M_tilde 0.388196601125 0.611803398875 1\n"
        "nu_thresholds 10.3954299442 6.35995937261 4.03547057156\n"
        "class EMPTY\n"
        "member false\n"
        "region IIIb\n"
        "bif_value -2.0088480708\n"
    )


def test_classify_rejects_collinear_shape(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--preset", "helium", "--shape", "1", "0", "--nu", "6.0"
    )
    assert code == 1
    assert "error" in err


def test_scan_writes_ppm_and_csv(tmp_path, capsys):
    ppm = tmp_path / "out.ppm"
    csv = tmp_path / "out.csv"
    code, out, _ = run_cli(
        capsys,
        "scan", "--preset", "helium", "--nu", "6.0", "--res", "40",
        "--ppm", str(ppm), "--csv", str(csv),
    )
    assert code == 0
    payload = ppm.read_bytes()
    assert payload.startswith(b"P6\n40 40\n255\n")
    assert len(payload) == len(b"P6\n40 40\n255\n") + 3 * 40 * 40
    assert csv.read_text().startswith("w1,w2,class")
    assert "components=" in out


def test_scan_csv_file_matches_per_pixel_writer_at_default_resolution(tmp_path, capsys):
    from conftest import oracle_scan_csv

    from trihill.scan import scan_disk
    from trihill.systems import preset

    path = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, "scan", "--preset", "eep", "--nu", "3.0", "--csv", str(path))
    assert code == 0
    assert path.read_bytes() == oracle_scan_csv(scan_disk(preset("eep"), 3.0, 400))


def test_contours_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "contours", "--preset", "eep", "--axis", "3", "--res", "4"
    )
    assert code == 0
    assert out.startswith("w1,w2,value")
    assert len(out.strip().split("\n")) == 17


def test_contours_chi_psi(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        capsys,
        "contours", "--preset", "eep", "--axis", "1", "--res", "6",
        "--chi-psi", "--csv", str(path),
    )
    assert code == 0
    text = path.read_text()
    assert text.startswith("psi,chi,value")


def test_simulate_trajectory(tmp_path, capsys):
    from trihill.critical import nu_langmuir
    from trihill.systems import preset

    cv = nu_langmuir(preset("eep"))
    out_csv = tmp_path / "traj.csv"
    code, _, err = run_cli(
        capsys,
        "simulate", "--preset", "eep",
        "--shape", f"{cv.w[0]:.17g}", f"{cv.w[1]:.17g}",
        "--jhat", "1", "0", "0", "--r", "0.54088", "--dt", "1e-3", "--steps", "50",
        "--csv", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "t,q1,q2,q3,p1,p2,p3,J1,J2,J3,H"
    assert len(lines) == 52
    assert "energy_drift" in err


def test_simulate_rejects_nan_dt(capsys):
    code, _, err = run_cli(
        capsys,
        "simulate", "--preset", "eep", "--shape", "0.1", "0.2",
        "--jhat", "0", "0.6", "0.8", "--dt", "nan", "--steps", "3",
    )
    assert code != 0
    assert err.startswith("error:")


def test_simulate_stops_at_chart_boundary(capsys):
    # phi crosses pi at step 17; the run used to go on to energy_drift=97.4
    code, _, err = run_cli(
        capsys,
        "simulate", "--preset", "eep", "--shape", "0.1", "0.2", "--jhat", "0", "0", "1",
        "--r", "0.01", "--dt", "0.05", "--steps", "3000",
    )
    assert code != 0
    assert "# steps=16 " in err
    assert "collinear chart boundary" in err


def test_simulate_non_finite_run_writes_only_its_summary():
    proc = run_fresh(
        "simulate", "--preset", "eep", "--shape", "0.1", "0.2", "--jhat", "0", "0", "1",
        "--r", "1e200", "--dt", "1e-3", "--steps", "3",
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("# steps=0 ")
    assert lines[0].endswith("non-finite state")


def test_simulate_rejects_infinite_r():
    proc = run_fresh(
        "simulate", "--preset", "eep", "--shape", "0.1", "0.2", "--jhat", "0", "0", "1",
        "--r", "inf", "--dt", "1e-3", "--steps", "3",
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: r must be finite, got inf"]


def test_critical_rejects_an_overflowing_lagrange_value(tmp_path):
    # gravitational with G = 1; the Lagrange value overflows a Python float
    path = tmp_path / "huge.sys"
    path.write_text("masses 1e110 1e110 1e110\nalphas 1e220 1e220 1e220\n")
    proc = run_fresh("critical", "--system", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: Lagrange critical value overflows; rescale the system"
    ]


def test_critical_rejects_an_underflowing_moment_of_inertia(tmp_path):
    path = tmp_path / "tiny.sys"
    path.write_text("masses 5e-324 5e-324 5e-324\nalphas 2 1 -1\n")
    proc = run_fresh("critical", "--system", str(path))
    assert proc.returncode == 2  # a malformed system
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: reduced mass of pair (1,2) rounds to 0; rescale the system"
    ]


def test_scan_rejects_nan_nu(capsys):
    code, out, err = run_cli(capsys, "scan", "--preset", "eep", "--nu", "nan", "--res", "8")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_verify_quick(capsys):
    code, out, _ = run_cli(capsys, "verify", "--preset", "eep", "--quick")
    assert code == 0
    assert all(line.startswith("CHECK ") for line in out.strip().split("\n"))
    assert " FAIL " not in out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["critical"])  # missing system source
    assert exc.value.code == 2


def test_unknown_preset_exit_code(capsys):
    code, _, err = run_cli(capsys, "critical", "--preset", "nope")
    assert code == 2
    known = "eep, gravity-demo, helium"
    assert err.splitlines() == [f"error: unknown preset 'nope'; known presets: {known}"]


def test_malformed_system_file_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.sys"
    path.write_text("masses 1 2\nalphas 1 2 3\n")
    code, out, err = run_cli(capsys, "critical", "--system", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: line 1: expected 'masses|alphas v1 v2 v3', got 'masses 1 2'"]


# Each case overrides one option of a valid command (argparse keeps the last).
_VALID = {
    "classify": ("--shape", "0.1", "0.2", "--nu", "0.1", "--jhat", "0", "0", "1"),
    "simulate": ("--shape", "0.1", "0.2", "--jhat", "0", "0", "1", "--dt", "1e-3", "--steps", "3"),
    "scan": ("--nu", "0.1", "--res", "8"),
    "contours": ("--axis", "3", "--res", "8"),
}


@pytest.mark.parametrize(
    "command, bad",
    [
        ("classify", ("--jhat", "0", "0", "0")),
        ("classify", ("--jhat", "nan", "0", "1")),
        ("simulate", ("--shape", "1e200", "0")),
        ("scan", ("--ppm", "MISSING/out.ppm")),
        ("simulate", ("--steps", "-1")),
        ("simulate", ("--jhat", "0", "0", "0")),
        ("scan", ("--res", "1")),
        ("scan", ("--nu", "inf")),
        ("contours", ("--res", "1")),
        ("scan", ("--csv", "MISSING/out.csv")),
        ("classify", ("--shape", "1e200", "0")),
        ("contours", ("--csv", "MISSING/out.csv")),
        ("simulate", ("--csv", "MISSING/out.csv")),
    ],
)
def test_cli_error_paths_print_one_error_line(tmp_path, command, bad):
    # MISSING stands for a directory that does not exist
    bad = [arg.replace("MISSING", str(tmp_path / "missing")) for arg in bad]
    proc = run_fresh(command, "--preset", "eep", *_VALID[command], *bad)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


def test_classify_takes_no_r(capsys):
    # member and region depend on E and r only through nu
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--preset", "eep", *_VALID["classify"], "--r", "2"])
    assert exc.value.code == 2
