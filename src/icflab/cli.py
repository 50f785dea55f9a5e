"""Command-line driver: surface generation, flow runs, diagnostics,
invariance audits, soliton fitting and the inversion inequality.

Exit codes: 0 success, 2 an audit or assertion failed its tolerance,
3 invalid input (a structured JSON error is printed to stderr).  Every
output file is paired with a `<file>.manifest.json` recording the exact
command, inputs, configuration, seed and tool version; identical inputs
and seed reproduce outputs byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import invariants as inv
from .conformal import ConformalKillingField
from .errors import AuditError, IcfLabError
from .flow import FlowConfig, SpeedFunction, run
from .radial_graph import invert
from .serialize import (load_surface, save_surface, write_csv_atomic,
                        write_json_atomic)
from .soliton import classify
from .sphere_grid import GridSpec
from .surfaces import harmonic_surface, sphere_surface, spheroid_surface

EXIT_OK = 0
EXIT_AUDIT = 2
EXIT_INPUT = 3


def _parse_grid(text: str) -> GridSpec:
    try:
        nt, nph = text.lower().split("x")
        return GridSpec(int(nt), int(nph))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad --grid {text!r}; expected NTHETAxNPHI") from exc


def _manifest(path: str, args, inputs: list[str], outputs: list[str],
              config: dict, grid: GridSpec | None, started: float):
    payload = {
        "command": " ".join(args.command_line),
        "inputs": inputs,
        "config": config,
        "tool_version": __version__,
        "grid": None if grid is None else {"n_theta": grid.n_theta,
                                           "n_phi": grid.n_phi},
        "wall_clock_s": time.monotonic() - started,
        "outputs": outputs,
    }
    write_json_atomic(path, payload)


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _random_ckf(rng) -> ConformalKillingField:
    return ConformalKillingField(rng.normal(0.0, 0.3, 3), rng.normal(0.0, 0.3, 3),
                                 rng.normal(0.0, 0.3), rng.normal(0.0, 0.2, 3))


# ----------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    started = time.monotonic()
    grid = _parse_grid(args.grid)
    if args.kind == "sphere":
        (radius,) = args.params
        surface = sphere_surface(float(radius), grid)
        meta = {"name": "sphere", "params": {"R": float(radius)}}
    elif args.kind == "spheroid":
        a, c = args.params
        surface = spheroid_surface(float(a), float(c), grid)
        meta = {"name": "spheroid", "params": {"a": float(a), "c": float(c)}}
    else:
        base = float(args.params[0])
        terms = []
        for term in args.params[1:]:
            ell, m, amp = term.split(",")
            terms.append((int(ell), int(m), float(amp)))
        surface = harmonic_surface(base, terms, grid)
        meta = {"name": "harmonic",
                "params": {"base": base,
                           "terms": [list(t) for t in terms]}}
    out = _out_path(args, "surface.json")
    save_surface(out, surface, meta)
    _manifest(out + ".manifest.json", args, [], [out], meta, grid, started)
    print(out)
    return EXIT_OK


def cmd_diag(args) -> int:
    started = time.monotonic()
    surface = load_surface(args.surface)
    report = inv.energy_report(surface)
    out = _out_path(args, "diag.json")
    write_json_atomic(out, report.to_dict())
    _manifest(out + ".manifest.json", args, [args.surface], [out], {},
              surface.spec, started)
    print(out)
    return EXIT_OK


def cmd_flow(args) -> int:
    started = time.monotonic()
    surface = load_surface(args.surface)
    config = FlowConfig(SpeedFunction.parse(args.speed), t_end=args.t_end,
                        dt_safety=args.dt_safety, keep_snapshots=False)
    trace = run(surface, config)
    csv_path = _out_path(args, "trace.csv")
    write_csv_atomic(csv_path, trace.csv_header(), trace.csv_rows())
    summary_path = _out_path(args, "flow_summary.json")
    write_json_atomic(summary_path, trace.summary())
    cfg = {"speed": args.speed, "t_end": args.t_end,
           "dt_safety": args.dt_safety}
    for path in (csv_path, summary_path):
        _manifest(path + ".manifest.json", args, [args.surface],
                  [csv_path, summary_path], cfg, surface.spec, started)
    print(csv_path)
    return EXIT_OK


def cmd_invariance(args) -> int:
    started = time.monotonic()
    surface = load_surface(args.surface)
    surface_inv = invert(surface)
    rng = np.random.default_rng(args.seed)

    hm = []
    for _ in range(args.trials):
        V = _random_ckf(rng)
        for k in (0, 1):
            hm.append(abs(inv.hsiung_minkowski_residual(
                surface, V, k, relative=True)))
    hm_max = max(hm)

    e_diffs = {}
    for a in inv.DEFAULT_A_VALUES:
        Ea, _ = inv.e_tensor(surface, a)
        Eb, _ = inv.e_tensor(surface_inv, a)
        e_diffs[repr(a)] = float(max(np.abs(x - y).max() for x, y in zip(Ea, Eb)))

    value, lower, upper = inv.qbar(surface)

    passed = hm_max < args.tol and max(e_diffs.values()) < args.tol
    audit = {
        "seed": args.seed,
        "trials": args.trials,
        "tolerance": args.tol,
        "hm_max_relative_residual": hm_max,
        "e_inversion_sup_diff": e_diffs,
        "qbar": {"value": value, "lower": lower, "upper": upper},
        "passed": passed,
    }
    out = _out_path(args, "invariance.json")
    write_json_atomic(out, audit)
    _manifest(out + ".manifest.json", args, [args.surface], [out],
              {"seed": args.seed, "trials": args.trials, "tol": args.tol},
              surface.spec, started)
    print(out)
    return EXIT_OK if passed else EXIT_AUDIT


def cmd_soliton(args) -> int:
    started = time.monotonic()
    surface = load_surface(args.surface)
    report = classify(surface, SpeedFunction.parse(args.speed), tol=args.tol)
    out = _out_path(args, "soliton.json")
    write_json_atomic(out, report.to_dict())
    _manifest(out + ".manifest.json", args, [args.surface], [out],
              {"speed": args.speed, "tol": args.tol}, surface.spec, started)
    print(out)
    return EXIT_OK


def cmd_inequality(args) -> int:
    started = time.monotonic()
    surface = load_surface(args.surface)
    value, lower, upper = inv.qbar(surface)
    payload = {
        "Qbar": value, "lower": lower, "upper": upper,
        "margin_lower": value - lower, "margin_upper": upper - value,
    }
    out = _out_path(args, "inequality.json")
    write_json_atomic(out, payload)
    _manifest(out + ".manifest.json", args, [args.surface], [out], {},
              surface.spec, started)
    print(out)
    return EXIT_OK


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icflab",
        description="Inverse curvature flows of star-shaped hypersurfaces: "
                    "geometry, monotone energies, conformal-invariance "
                    "audits and soliton fitting.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="generate a surface file")
    p.add_argument("kind", choices=["sphere", "spheroid", "harmonic"])
    p.add_argument("params", nargs="+",
                   help="sphere R | spheroid a c | harmonic base l,m,amp ...")
    p.add_argument("--grid", default="64x128")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("diag", help="energy/invariant report of a surface")
    p.add_argument("surface")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_diag)

    p = sub.add_parser("flow", help="run an inverse curvature flow")
    p.add_argument("surface")
    p.add_argument("--speed", default="H",
                   help="H | quotient:k | power:k | ratio:i,j")
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--dt-safety", type=float, default=0.2)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("invariance",
                       help="randomized conformal-invariance audit")
    p.add_argument("surface")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_invariance)

    p = sub.add_parser("soliton", help="best-fit conformal field and verdict")
    p.add_argument("surface")
    p.add_argument("--speed", default="H")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_soliton)

    p = sub.add_parser("inequality", help="two-sided bound on Qbar")
    p.add_argument("surface")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_inequality)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.command_line = ["icflab"] + argv
    try:
        return args.func(args)
    except AuditError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_AUDIT
    except (IcfLabError, ValueError, OSError, KeyError,
            json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
