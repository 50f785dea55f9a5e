"""icflab benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload imcf64 --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
its `src/` directory.  The process builds the workload's grids and
inputs from `--seed` (several times, to time set-up), runs one gated
warm-up round, then checked rounds for `--seconds` seconds.  Timings are
medians in seconds at a nominal host speed (see calibrate.py).  With
`--trace 1` every second round runs with the icflab entry points wrapped
by the span tracer and the per-layer metrics are reported instead.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give every
metric with its sample count and the run metadata.  The exit code is 0
only when every gate passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("sphere_grid", "radial_graph", "conformal", "invariants", "flow",
           "soliton", "serialize", "cli", "errors")
DEFAULT_SEED = 0
SETUPS = 10
MIN_ROUNDS = 3

E2E_METRICS = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
               ("op_p50_ms", "ms")]


def unload_icflab():
    for name in [n for n in sys.modules if n == "icflab" or n.startswith("icflab.")]:
        del sys.modules[name]


def load_icflab() -> types.SimpleNamespace:
    """Import a fresh copy of icflab from the checkout's src/ directory."""
    unload_icflab()
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("icflab")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"icflab imported from {pkg.__file__}, not {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"icflab.{m}")
                                    for m in MODULES})


def metadata(workload: str, seed: int, traced: bool, seconds: float,
             grids) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        openblas = "unknown"
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    pkg_dir = os.path.join(SRC, "icflab")
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": workload, "seed": seed, "traced": traced,
        "seconds": seconds, "grids": [f"{a}x{b}" for a, b in grids],
        "git_sha": sha, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas": openblas,
        "nproc": os.cpu_count(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str, grids=None) -> dict:
    """Set up, warm up and measure one workload; returns the report."""
    import numpy  # noqa: F401  (dependencies load before set-up is timed)
    import scipy.integrate  # noqa: F401

    import calibrate
    import spans
    import workloads

    cls = workloads.WORKLOADS[name]
    grids = tuple(grids or cls.default_grids)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh).get(name)
    if reference is not None and (seed != reference["seed"]
                                  or grids != cls.default_grids):
        reference = None

    tracer = spans.Tracer() if trace else None
    clock = calibrate.HostClock()
    # raw seconds, and seconds at the nominal host speed (see calibrate.py)
    raw = {"setup_s": [], "wall_s": [], "traced_wall_s": []}
    nominal = {key: [] for key in raw}
    scales, digests = [], set()

    def set_up(traced: bool):
        icf = load_icflab()
        if traced:
            tracer.install(icf)
        wl = cls(icf, seed, workdir, grids, reference)
        digests.add(wl.prepare())
        if traced:
            tracer.uninstall()
        if len(digests) != 1:
            raise RuntimeError("input generation is not deterministic")
        return icf, wl

    def timed_set_up(traced: bool):
        (icf, wl), wall, scale = clock.measure(set_up, traced)
        raw["setup_s"].append(wall)
        nominal["setup_s"].append(wall * scale)
        return icf, wl

    # set-ups are spread over the measuring time, so their median is not
    # a snapshot of one moment of a host whose speed drifts
    icf, wl = timed_set_up(traced=tracer is not None)
    attempted, failed, failures = 0, 0, []
    start = time.perf_counter()
    index = 0
    while True:
        if len(raw["setup_s"]) < SETUPS and (
                time.perf_counter() - start
                >= len(raw["setup_s"]) * seconds / SETUPS):
            # a fresh copy replaces the one the rounds use; the old one is
            # freed first, so one copy is alive at a time and set-up adds
            # nothing to the rounds' memory peak
            icf = wl = None
            unload_icflab()
            gc.collect()
            icf, wl = timed_set_up(traced=False)
        traced = tracer is not None and index > 0 and index % 2 == 0
        if traced:
            tracer.round = index
            tracer.install(icf)
        outcome, wall, scale = clock.measure(wl.run_round, index)
        if traced:
            tracer.uninstall()
        attempted += outcome.attempted
        failed += outcome.failed
        failures += [f"round {index}: {f}" for f in outcome.failures]
        if index > 0:
            key = "traced_wall_s" if traced else "wall_s"
            raw[key].append(wall)
            nominal[key].append(wall * scale)
            if not traced:
                scales.append(scale)
                for kind, values in outcome.ops.items():
                    raw.setdefault(f"{kind}_p50_ms", []).extend(
                        1e3 * x for x in values)
                    nominal.setdefault(f"{kind}_p50_ms", []).extend(
                        1e3 * x * scale for x in values)
        index += 1
        timed = len(raw["wall_s"]) + len(raw["traced_wall_s"])
        need = 2 * MIN_ROUNDS if tracer is not None else MIN_ROUNDS
        next_end = (time.perf_counter() - start + clock.last
                    + statistics.median(raw["wall_s"] or [wall]))
        if timed >= need and next_end > seconds:
            break

    timings = {k: v for k, v in nominal.items() if v}
    report = {
        "meta": metadata(name, seed, trace, seconds, grids),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "summaries": {k: spans.summarize(v) for k, v in timings.items()},
        "raw_summaries": {k: spans.summarize(v) for k, v in raw.items() if v},
        "host_scale": spans.summarize(scales),
        "e2e": {
            **{k: (statistics.median(timings[k]), "s")
               for k in ("setup_s", "wall_s")},
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            **{k: (statistics.median(v), "ms") for k, v in timings.items()
               if k.endswith("_p50_ms")},
        },
    }
    if tracer is not None:
        overhead = (statistics.median(timings["traced_wall_s"])
                    / statistics.median(timings["wall_s"]) - 1.0)
        report["layers"] = spans.layer_metrics(
            tracer.spans, tracer.counters, len(raw["traced_wall_s"]), overhead)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["imcf64", "transport64", "audit_mixed"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "icflab", "__init__.py")):
        print(f"error: no icflab sources under {SRC}", file=sys.stderr)
        return 2

    # pinned before numpy loads: single-threaded BLAS, the same on every host
    for var in THREAD_VARS:
        os.environ[var] = "1"
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    try:
        report = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in report["failures"]:
        print(f"FAILED {line}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={report['attempted']} failed={report['failed']} "
          f"fail_frac={report['failed'] / report['attempted']:.6g}")

    def described(summary):
        text = (f"n={summary['n']}, min={summary['min']:.6g}, "
                f"p50={summary['p50']:.6g}")
        if "tail" in summary:
            text += f", p{summary['tail_pct']:g}={summary['tail']:.6g}"
        return text

    for key, (value, unit) in {**report["e2e"], **report.get("layers", {})}.items():
        extra = ""
        if key in report["summaries"]:
            extra = (f"  (nominal {described(report['summaries'][key])}; "
                     f"raw {described(report['raw_summaries'][key])})")
        print(f"{key} = {value!r} {unit}{extra}")
    print(f"host_scale ({described(report['host_scale'])})")
    print("meta " + json.dumps(report["meta"], sort_keys=True))

    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    label = f"{args.workload}_seed{args.seed}{'_trace' if args.trace else ''}"
    with open(os.path.join(results, f"BENCH_{label}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")

    chosen = report["layers"] if args.trace else {
        k: report["e2e"][k] for k, _ in E2E_METRICS}
    correct = report["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
