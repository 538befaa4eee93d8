"""Command-line front end.

Subcommands: ``critical`` (catalog CSV), ``classify`` (one shape, optionally
one orientation), ``scan`` (raster classification to PPM/CSV), ``contours``
(value grids of sqrt(Mt_k) Vt), ``simulate`` (rigidly-rotating start RK4 run)
and ``verify`` (full check suite).

Sign convention: the bifurcation parameter nu = -E r^2, so nu > 0 means
E < 0 and nu <= 0 means E >= 0 at r > 0.  Shapes and orientations depend on
(E, r) only through nu, so ``classify`` takes nu alone.  Numeric output
carries 12 significant digits.  Each command computes and writes its files
before it prints; an error, a failed write included, is one ``error:`` line.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import critical, hill, scan, verify
from .coords import Shape
from .errors import DomainError, TrihillError
from .reduction import integrate, rigid_start
from .systems import BodySystem, load_system, preset


def _add_system_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="named system: gravity-demo, helium, eep")
    group.add_argument("--system", help="path to a system file (masses/alphas lines)")


def _resolve_system(args) -> BodySystem:
    if args.preset:
        return preset(args.preset)
    return load_system(args.system)


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _write(path: str | None, data: bytes) -> None:
    """Write data to the file at path, or to stdout when there is none."""
    if not path:
        sys.stdout.write(data.decode())
        return
    with open(path, "wb") as fh:
        fh.write(data)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="trihill", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("critical", help="print the critical-value catalog as CSV")
    _add_system_args(p)

    p = sub.add_parser("classify", help="classify one shape (and optional orientation)")
    _add_system_args(p)
    p.add_argument("--shape", nargs=2, type=float, required=True, metavar=("W1", "W2"))
    p.add_argument("--nu", type=float, required=True)
    p.add_argument(
        "--jhat",
        nargs=3,
        type=float,
        metavar=("X", "Y", "Z"),
        help="unit angular-momentum direction in the principal frame",
    )

    p = sub.add_parser("scan", help="raster-classify the shape disk")
    _add_system_args(p)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--res", type=int, default=400)
    p.add_argument("--ppm", help="write a P6 image here")
    p.add_argument("--csv", help="write w1,w2,class rows here")

    p = sub.add_parser("contours", help="grid of sqrt(Mt_k) Vt values")
    _add_system_args(p)
    p.add_argument("--axis", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--res", type=int, default=400)
    p.add_argument("--chi-psi", action="store_true", help="sample the (psi, chi) rectangle")
    p.add_argument("--csv", help="write the value grid here")

    p = sub.add_parser("simulate", help="integrate a rigidly-rotating initial state")
    _add_system_args(p)
    p.add_argument("--shape", nargs=2, type=float, required=True, metavar=("W1", "W2"))
    p.add_argument(
        "--jhat", nargs=3, type=float, required=True, metavar=("X", "Y", "Z"),
        help="angular-momentum direction in the principal frame",
    )
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--csv", help="trajectory output path (default: stdout)")

    p = sub.add_parser("verify", help="run the verification suite")
    _add_system_args(p)
    p.add_argument("--quick", action="store_true", help="smaller randomized samples")
    return ap


def _cmd_critical(system, args) -> int:
    sys.stdout.write(critical.catalog_csv(critical.critical_catalog(system)))
    return 0


def _unit_jhat(args) -> np.ndarray:
    """--jhat scaled to unit length; a vector whose norm is zero or not
    finite (a NaN or infinite component, or an underflow or overflow)
    raises DomainError."""
    jh = np.asarray(args.jhat, dtype=float)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(jh))
    if not (math.isfinite(norm) and norm > 0.0):
        given = " ".join(map(str, args.jhat))
        raise DomainError(f"--jhat needs a finite nonzero length, got {given}")
    return jh / norm


def _cmd_classify(system, args) -> int:
    """Computes every value before it prints, so an error prints nothing."""
    shape = Shape(args.shape[0], args.shape[1])
    ev = hill.shape_eval(system, shape)
    lines = [
        f"shape {_fmt(shape.w1)} {_fmt(shape.w2)}",
        f"V_tilde {_fmt(ev.v_tilde)}",
        "M_tilde " + " ".join(_fmt(m) for m in ev.m_tilde),
        "nu_thresholds " + " ".join(_fmt(t) for t in hill.nu_thresholds(system, shape)),
        f"class {hill.orientation_class(system, args.nu, shape).name}",
    ]
    if args.jhat:
        jh = _unit_jhat(args)
        mem = hill.membership(system, -args.nu, 1.0, shape, jh)  # E = -nu at r = 1
        lines += [
            f"member {str(mem.member).lower()}",
            f"region {mem.region_case}",
            f"bif_value {_fmt(hill.bif_function(system, shape, jh))}",
        ]
    print("\n".join(lines))
    return 0


def _cmd_scan(system, args) -> int:
    result = scan.scan_disk(system, args.nu, args.res)
    census = scan.component_census(result)
    for path, fmt in ((args.ppm, "ppm"), (args.csv, "csv")):
        if path:
            _write(path, scan.render(result, fmt))
    for cls in (scan.CellClass.EMPTY, scan.CellClass.CAPS, scan.CellClass.RING, scan.CellClass.FULL):
        print(
            f"{cls.name.lower()} components={census.counts[cls]} "
            f"touches_boundary={str(census.touches_boundary[cls]).lower()}"
        )
    return 0


def _cmd_contours(system, args) -> int:
    grid = scan.contour_grid(system, args.axis, args.res, chi_psi=args.chi_psi)
    _write(args.csv, scan.render(grid, "csv"))
    return 0


def _cmd_simulate(system, args) -> int:
    state = rigid_start(Shape(*args.shape).to_jacobi(), args.r, _unit_jhat(args))
    traj, report = integrate(system, state, args.dt, args.steps)
    _write(args.csv, traj.to_csv().encode())
    print(
        f"# steps={len(traj) - 1} energy_drift={report.energy_drift:.6g} "
        f"J_drift={report.momentum_drift:.6g}"
        + (f" {report.message}" if report.message else ""),
        file=sys.stderr,
    )
    return 0 if report.ok else 1


def _cmd_verify(system, args) -> int:
    report = verify.verify_all(system, deep=not args.quick)
    sys.stdout.write(report.text())
    return 0 if report.ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        system = _resolve_system(args)
    except KeyError as exc:  # str() of a KeyError would quote its message
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handler = {
        "critical": _cmd_critical,
        "classify": _cmd_classify,
        "scan": _cmd_scan,
        "contours": _cmd_contours,
        "simulate": _cmd_simulate,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(system, args)
    except (TrihillError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
