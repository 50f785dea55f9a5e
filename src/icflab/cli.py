"""Command-line driver: surface generation, flow runs, diagnostics,
invariance audits, soliton fitting and the inversion inequality.

Exit codes: 0 success, 2 an audit or assertion failed its tolerance,
3 invalid input or usage (a structured JSON error is printed to stderr).
Commands write the dicts that the report functions return, through one
writer that follows a command's outputs with one `<command>.manifest.json`
whose keys are `command`, `inputs`, `config` (with the seed of a seeded
command), `tool_version`, `grid`, `wall_clock_s` and `outputs`;
identical inputs and seed reproduce outputs byte for byte.
Each number is written once: no output repeats a value that another
output of the same command holds, or a plain difference of keys in its
own file, and a value two commands could write belongs to the one named
for it (`Qbar` to `inequality`).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import invariants as inv
from .conformal import ConformalKillingField
from .errors import AuditError, IcfLabError
from .flow import SpeedFunction, run
from .radial_graph import invert
from .serialize import (load_surface, surface_to_dict, write_csv_atomic,
                        write_json_atomic)
from .soliton import best_fit_ckf
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


# the parameters of each kind of `gen`, as its help, errors and `meta` name them
_GEN_FORMS = {"sphere": "R", "spheroid": "a c", "harmonic": "base L,M,AMP ..."}


def _write(args, surface, config: dict, outputs: dict):
    """Write each output into --out (a `.csv` name takes a (header, rows)
    pair, any other a JSON payload), then the command's one manifest,
    which lists them, and print the first path."""
    os.makedirs(args.out, exist_ok=True)
    paths = [os.path.join(args.out, name) for name in outputs]
    for path, payload in zip(paths, outputs.values()):
        if path.endswith(".csv"):
            write_csv_atomic(path, *payload)
        else:
            write_json_atomic(path, payload)
    write_json_atomic(os.path.join(args.out, f"{args.cmd}.manifest.json"), {
        "command": " ".join(args.command_line),
        "inputs": [args.surface] if "surface" in vars(args) else [],
        "config": config,
        "tool_version": __version__,
        "grid": {"n_theta": surface.spec.n_theta, "n_phi": surface.spec.n_phi},
        "wall_clock_s": time.monotonic() - args.started,
        "outputs": paths,
    })
    print(paths[0])


def _random_ckf(rng) -> ConformalKillingField:
    return ConformalKillingField(rng.normal(0.0, 0.3, 3), rng.normal(0.0, 0.3, 3),
                                 rng.normal(0.0, 0.3), rng.normal(0.0, 0.2, 3))


# ----------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    grid, kind, words = _parse_grid(args.grid), args.kind, args.params
    bad = " ".join(words)           # what a parse error quotes, then each term
    try:
        if kind == "harmonic":
            base, terms = float(words[0]), []
            for bad in words[1:]:
                ell, m, amp = bad.split(",")
                terms.append([int(ell), int(m), float(amp)])
            params = {"base": base, "terms": terms}
        else:
            params = dict(zip(_GEN_FORMS[kind].split(), map(float, words), strict=True))
    except ValueError as exc:
        raise ValueError(
            f"cannot parse {bad!r}; gen {kind} expects {_GEN_FORMS[kind]}") from exc
    surface = {"sphere": sphere_surface, "spheroid": spheroid_surface,
               "harmonic": harmonic_surface}[kind](*params.values(), grid)
    meta = {"name": kind, "params": params}
    _write(args, surface, {}, {"surface.json": surface_to_dict(surface, meta)})
    return EXIT_OK


def cmd_diag(args) -> int:
    surface = load_surface(args.surface)
    _write(args, surface, {}, {"diag.json": inv.energy_report(surface)})
    return EXIT_OK


def cmd_flow(args) -> int:
    surface = load_surface(args.surface)
    trace = run(surface, SpeedFunction.parse(args.speed), args.t_end,
                keep_snapshots=False)
    _write(args, surface, {"speed": args.speed, "t_end": args.t_end},
           {"trace.csv": (trace.csv_header(), trace.csv_rows()),
            "flow_summary.json": trace.summary()})
    return EXIT_OK


def cmd_invariance(args) -> int:
    surface = load_surface(args.surface)
    rng = np.random.default_rng(args.seed)

    fields = [_random_ckf(rng) for _ in range(args.trials)]
    hm_max = float(np.abs(inv.hsiung_minkowski_residual(surface, fields)).max())

    # sup |E(a)| differences are |2a+1| times the a = 0 one (n = 2)
    e_diff = float(max(np.abs(x - y).max() for x, y in zip(
        inv.e_tensor(surface, 0.0)[0], inv.e_tensor(invert(surface), 0.0)[0])))
    e_scale = max(abs(2 * a + 1) for a in inv.DEFAULT_A_VALUES)

    passed = hm_max < args.tol and e_scale * e_diff < args.tol
    audit = {
        "seed": args.seed,
        "trials": args.trials,
        "tolerance": args.tol,
        "hm_max_relative_residual": hm_max,
        "e_inversion_sup_diff": e_diff,
        "passed": passed,
    }
    _write(args, surface,
           {"seed": args.seed, "trials": args.trials, "tol": args.tol},
           {"invariance.json": audit})
    return EXIT_OK if passed else EXIT_AUDIT


def cmd_soliton(args) -> int:
    surface = load_surface(args.surface)
    _, report = best_fit_ckf(surface, SpeedFunction.parse(args.speed), tol=args.tol)
    _write(args, surface, {"speed": args.speed, "tol": args.tol},
           {"soliton.json": report})
    return EXIT_OK


def cmd_inequality(args) -> int:
    surface = load_surface(args.surface)
    value, lower, upper = inv.qbar(surface)
    _write(args, surface, {}, {"inequality.json": {
        "Qbar": value, "lower": lower, "upper": upper}})
    return EXIT_OK


# ----------------------------------------------------------------------


def _positive(cast):
    """An argparse type: `cast(text)`, which must be finite and positive."""
    def parse(text: str):
        value = cast(text)
        if not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError(f"must be finite and positive, got {value}")
        return value
    parse.__name__ = cast.__name__
    return parse


class _Parser(argparse.ArgumentParser):
    """Usage errors raise into `main`'s input-error branch (exit 3)."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by
    every later one: parsing reads it and never changes it."""
    parser = _Parser(
        prog="icflab",
        description="Inverse curvature flows of star-shaped hypersurfaces: "
                    "geometry, monotone energies, conformal-invariance "
                    "audits and soliton fitting.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=".")
    surface = argparse.ArgumentParser(add_help=False, parents=[out])
    surface.add_argument("surface")

    p = sub.add_parser("gen", help="generate a surface file", parents=[out])
    p.add_argument("kind", choices=list(_GEN_FORMS))
    p.add_argument("params", nargs="+",
                   help=" | ".join(f"{kind} {form}" for kind, form in _GEN_FORMS.items()))
    p.add_argument("--grid", default="64x128")

    sub.add_parser("diag", help="energy/invariant report of a surface",
                   parents=[surface])

    p = sub.add_parser("flow", help="run an inverse curvature flow",
                       parents=[surface])
    p.add_argument("--speed", default="H",
                   help="H | quotient:k | power:k | ratio:i,j")
    p.add_argument("--t-end", type=float, default=1.0,
                   help="end time, finite and positive; steps never exceed "
                        "0.02 and shorten where the linearized diffusivity "
                        "varies over the surface")

    p = sub.add_parser("invariance", parents=[surface],
                       help="randomized conformal-invariance audit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive(int), default=20)
    p.add_argument("--tol", type=_positive(float), default=1e-6)

    p = sub.add_parser("soliton", help="best-fit conformal field and verdict",
                       parents=[surface])
    p.add_argument("--speed", default="H")
    p.add_argument("--tol", type=_positive(float), default=1e-6)

    sub.add_parser("inequality", help="two-sided bound on Qbar",
                   parents=[surface])
    return parser


def main(argv=None) -> int:
    started = time.monotonic()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        args.command_line, args.started = ["icflab"] + argv, started
        # looked up on each call, not stored in the shared parser, so that a
        # cmd_* rebound after the parser was built (by a test or a tracer)
        # is the one that runs
        command = {"gen": cmd_gen, "diag": cmd_diag, "flow": cmd_flow,
                   "invariance": cmd_invariance, "soliton": cmd_soliton,
                   "inequality": cmd_inequality}[args.cmd]
        return command(args)
    except AuditError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_AUDIT
    except (IcfLabError, ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
