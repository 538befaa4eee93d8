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
    # in a fresh interpreter, as a user runs it, so that any numpy
    # RuntimeWarning would reach stderr under Python's default filters
    env = {**os.environ, "PYTHONPATH": str(Path(trihill.__file__).parents[1])}
    proc = subprocess.run(
        [
            sys.executable, "-m", "trihill.cli",
            "simulate", "--preset", "eep", "--shape", "0.1", "0.2", "--jhat", "0", "0", "1",
            "--r", "1e200", "--dt", "1e-3", "--steps", "3",
        ],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("# steps=0 ")
    assert lines[0].endswith("non-finite state")


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
    assert "unknown preset" in err
