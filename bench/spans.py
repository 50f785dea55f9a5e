"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer wraps the public entry points of each icflab module from
outside the package: module functions are replaced in every icflab
namespace that holds them, and methods on their class.  Each call
records a span (name, parent span, start, end, round) in memory; the
layer metrics are derived from the span list after the run, so the
arithmetic (self time, ancestry, ratios) is a pure function of it.

A layer's self time is its span's duration minus the durations of its
direct child spans.  Operation and byte counts of the Legendre matmuls
and of the scattered-evaluation recurrence are computed from array
shapes at the call, not measured.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

import numpy as np

# ----------------------------------------------------------------------
# summary statistics

TAIL_LEVELS_PERMILLE = (999, 990, 950, 900, 750)


def tail_level(n: int) -> float | None:
    """Highest tail percentile with at least 10 of n samples beyond it,
    or None when there is none above the median."""
    for level in TAIL_LEVELS_PERMILLE:
        if n * (1000 - level) >= 10_000:
            return level / 10.0
    return None


def summarize(samples) -> dict:
    """Sample count, minimum, median and (when the rule allows one) a
    tail."""
    out = {"n": len(samples), "min": min(samples),
           "p50": statistics.median(samples)}
    level = tail_level(len(samples))
    if level is not None:
        out["tail_pct"] = level
        out["tail"] = float(np.percentile(samples, level))
    return out


# ----------------------------------------------------------------------
# computed operation counts


def legendre_counts(grid) -> tuple[float, float]:
    """Flops and bytes of one Legendre matmul: (M+1) batched products of
    the (L+1) x n_theta table with n_theta x 2 real/imaginary columns."""
    M1, L1, nt = grid.m_max + 1, grid.l_max + 1, grid.spec.n_theta
    flops = 2.0 * M1 * L1 * nt * 2
    nbytes = 8.0 * (M1 * L1 * nt + M1 * nt * 2 + M1 * L1 * 2)
    return flops, nbytes


def scattered_counts(grid, K: int, P: int, derivatives: bool) -> tuple[float, float]:
    """Flops and bytes of `Grid.evaluate_scattered` for K coefficient sets
    at P points, from its recurrence: per (m, l) pair and point, 4 flops
    for the three-term step and 4K for the complex accumulation (plus 5
    and 4K for the theta derivative); per order m and point, 5K for the
    phase product (plus 10K for both partials)."""
    M1, L1 = grid.m_max + 1, grid.l_max + 1
    pairs = M1 * L1 - (M1 - 1) * M1 // 2
    d = 1 if derivatives else 0
    flops = P * (pairs * (4 + 4 * K + d * (5 + 4 * K)) + M1 * K * (5 + 10 * d))
    nbytes = P * pairs * (32 + 32 * K + d * (40 + 32 * K))
    return float(flops), float(nbytes)


# ----------------------------------------------------------------------
# what gets wrapped

SYNTH_METHODS = ("synthesis", "synth_dtheta", "synth_d2theta", "synth_dphi",
                 "synth_d2phi", "synth_dtheta_dphi", "synth_laplacian")
INVARIANTS = ("e_tensor", "willmore", "guan_li_q", "hsiung_minkowski_residual",
              "qbar", "energy_report", "qk_rate")
SUBCOMMANDS = ("gen", "diag", "flow", "invariance", "soliton", "inequality")

# (module, class or None, attribute) -> span name
TARGETS = {
    ("sphere_grid", "Grid", "__init__"): "sphere_grid.make_grid",
    ("sphere_grid", "Grid", "analysis"): "sphere_grid.analysis",
    ("sphere_grid", "Grid", "project"): "sphere_grid.synth",
    ("sphere_grid", "Grid", "chart_derivatives"): "sphere_grid.chart_derivatives",
    ("sphere_grid", "Grid", "evaluate_scattered"): "sphere_grid.evaluate_scattered",
    ("radial_graph", None, "geometry"): "radial_graph.geometry",
    ("flow", None, "step"): "flow.step",
    ("flow", None, "stable_dt"): "flow.stable_dt",
    ("flow", "FlowTrace", "_record"): "flow.record",
    ("conformal", None, "flow_map"): "conformal.flow_map",
    ("conformal", None, "pushforward_surface"): "conformal.pushforward",
    ("soliton", None, "best_fit_ckf"): "soliton.best_fit_ckf",
    ("serialize", None, "write_json_atomic"): "serialize.write",
    ("serialize", None, "write_csv_atomic"): "serialize.write",
    ("serialize", None, "load_surface"): "serialize.load_surface",
}
TARGETS.update({("sphere_grid", "Grid", m): "sphere_grid.synth"
                for m in SYNTH_METHODS})
TARGETS.update({("invariants", None, f): f"invariants.{f}" for f in INVARIANTS})
TARGETS.update({("cli", None, f"cmd_{c}"): f"cli.{c}" for c in SUBCOMMANDS})


# ----------------------------------------------------------------------
# tracer


class Tracer:
    """Records spans while installed; `install` and `uninstall` patch and
    restore the icflab entry points listed in TARGETS."""

    def __init__(self):
        self.spans = []          # [name, parent, start, end, round]
        self.counters = {}
        self.round = -1          # -1 marks spans recorded during set-up
        self._stack = []
        self._saved = []

    def count(self, key: str, amount: float):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [name, parent, 0.0, 0.0, tracer.round]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                tracer._stack.pop()
                if hook is not None and tracer.round >= 0:
                    hook(tracer, args, kwargs)
        return wrapper

    def install(self, icf):
        """Patch every target in the icflab modules that `icf` maps by
        short name (a later re-import leaves those modules in use)."""
        namespaces = list(vars(icf).values())
        for (module, cls, attr), name in TARGETS.items():
            mod = getattr(icf, module)
            hook = HOOKS.get((module, cls, attr))
            if cls is not None:
                owner = getattr(mod, cls)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hook))
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(name, original, hook)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._saved.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def _arg(args, kwargs, position: int, name: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _legendre_hook(tracer, args, kwargs):
    flops, nbytes = legendre_counts(args[0])
    tracer.count("legendre.flops", flops)
    tracer.count("legendre.bytes", nbytes)


def _scattered_hook(tracer, args, kwargs):
    K = int(np.shape(_arg(args, kwargs, 1, "C2_stack"))[0])
    P = int(np.size(_arg(args, kwargs, 2, "theta_s")))
    flops, nbytes = scattered_counts(
        args[0], K, P, bool(_arg(args, kwargs, 4, "derivatives", False)))
    tracer.count("evaluate_scattered.points", P)
    tracer.count("evaluate_scattered.flops", flops)
    tracer.count("evaluate_scattered.bytes", nbytes)


def _step_hook(tracer, args, kwargs):
    tracer.count("flow.dt", float(_arg(args, kwargs, 2, "dt")))


def _write_hook(tracer, args, kwargs):
    tracer.count("serialize.write.bytes",
                 os.path.getsize(_arg(args, kwargs, 0, "path")))


# counting hooks, run after calls made in traced rounds (not set-up);
# `project` has none because its analysis and synthesis children are
# counted themselves
HOOKS = {("sphere_grid", "Grid", m): _legendre_hook
         for m in ("analysis",) + SYNTH_METHODS}
HOOKS.update({
    ("sphere_grid", "Grid", "evaluate_scattered"): _scattered_hook,
    ("flow", None, "step"): _step_hook,
    ("serialize", None, "write_json_atomic"): _write_hook,
    ("serialize", None, "write_csv_atomic"): _write_hook,
})


# ----------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the durations of the direct
    children (spans record their parent's index)."""
    duration = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += duration[i]
    return [d - c for d, c in zip(duration, child)]


def nearest_ancestor(spans, index: int, names) -> int:
    """Index of the closest enclosing span whose name is in `names`, or -1."""
    parent = spans[index][1]
    while parent >= 0 and spans[parent][0] not in names:
        parent = spans[parent][1]
    return parent


def kernel_evals_per_step(spans) -> float:
    """Curvature-kernel evaluations (chart_derivatives calls) per explicit
    step: those inside `flow.step`, plus those inside each `flow.stable_dt`
    whose next stepping call is a step.  The one `stable_dt` per run that
    only sizes the record cadence is followed by another `stable_dt` and
    is not counted."""
    stepping = ("flow.step", "flow.stable_dt")
    evals = {}
    for i, s in enumerate(spans):
        if s[0] == "sphere_grid.chart_derivatives":
            owner = nearest_ancestor(spans, i, stepping)
            if owner >= 0:
                evals[owner] = evals.get(owner, 0) + 1
    order = [i for i, s in enumerate(spans) if s[0] in stepping]
    steps = total = 0
    for pos, i in enumerate(order):
        if spans[i][0] == "flow.step":
            steps += 1
            total += evals.get(i, 0)
        elif pos + 1 < len(order) and spans[order[pos + 1]][0] == "flow.step":
            total += evals.get(i, 0)
    return total / steps if steps else 0.0


# ----------------------------------------------------------------------
# per-layer metrics

LAYER_METRICS = [
    ("sphere_grid.make_grid.builds", "count"),
    ("sphere_grid.make_grid.s", "s"),
    ("sphere_grid.analysis.calls", "count"),
    ("sphere_grid.analysis.self_s", "s"),
    ("sphere_grid.synth.calls", "count"),
    ("sphere_grid.synth.self_s", "s"),
    ("sphere_grid.chart_derivatives.calls", "count"),
    ("sphere_grid.chart_derivatives.self_s", "s"),
    ("sphere_grid.legendre.gflop", "Gflop"),
    ("sphere_grid.legendre.gbytes", "GB"),
    ("sphere_grid.legendre.gflop_per_s", "Gflop/s"),
    ("sphere_grid.evaluate_scattered.calls", "count"),
    ("sphere_grid.evaluate_scattered.points", "count"),
    ("sphere_grid.evaluate_scattered.self_s", "s"),
    ("sphere_grid.evaluate_scattered.gflop", "Gflop"),
    ("sphere_grid.evaluate_scattered.gbytes", "GB"),
    ("radial_graph.geometry.calls", "count"),
    ("radial_graph.geometry.self_s", "s"),
    ("flow.steps", "count"),
    ("flow.dt_mean", "model_t"),
    ("flow.records", "count"),
    ("flow.step.self_s", "s"),
    ("flow.step_ms.p50", "ms"),
    ("flow.step_ms.tail", "ms"),
    ("flow.step_ms.tail_pct", "%"),
    ("flow.stable_dt.calls", "count"),
    ("flow.stable_dt.self_s", "s"),
    ("flow.record.self_s", "s"),
    ("flow.kernel_evals_per_step", "1/step"),
    ("conformal.flow_map.calls", "count"),
    ("conformal.flow_map.self_s", "s"),
    ("conformal.pushforward.calls", "count"),
    ("conformal.pushforward.self_s", "s"),
    ("conformal.newton_iters_per_pushforward", "1/pushforward"),
]
LAYER_METRICS += [m for f in INVARIANTS
                  for m in ((f"invariants.{f}.calls", "count"),
                            (f"invariants.{f}.self_s", "s"))]
LAYER_METRICS += [
    ("soliton.best_fit_ckf.calls", "count"),
    ("soliton.best_fit_ckf.self_s", "s"),
    ("serialize.write.calls", "count"),
    ("serialize.write.bytes", "B"),
    ("serialize.write.self_s", "s"),
    ("serialize.load_surface.calls", "count"),
    ("serialize.load_surface.self_s", "s"),
]
LAYER_METRICS += [(f"cli.{c}.s", "s") for c in SUBCOMMANDS]
LAYER_METRICS += [("trace.overhead_frac", "ratio")]


def layer_metrics(spans, counters: dict, rounds: int,
                  overhead_frac: float) -> dict:
    """Every metric in LAYER_METRICS, as {name: (value, unit)}.

    Counts, times, flops and bytes are per traced round, except the two
    make_grid metrics, which total the traced set-up and rounds.
    """
    selfs = self_times(spans)
    calls, self_s, total_s = {}, {}, {}
    for s, own in zip(spans, selfs):
        if s[4] < 0 and s[0] != "sphere_grid.make_grid":
            continue
        calls[s[0]] = calls.get(s[0], 0) + 1
        self_s[s[0]] = self_s.get(s[0], 0.0) + own
        total_s[s[0]] = total_s.get(s[0], 0.0) + (s[3] - s[2])
    per = 1.0 / max(rounds, 1)
    step_ms = [1e3 * (s[3] - s[2]) for s in spans if s[0] == "flow.step"]
    steps = calls.get("flow.step", 0)
    pushes = calls.get("conformal.pushforward", 0)
    newton = sum(1 for i, s in enumerate(spans)
                 if s[0] == "sphere_grid.evaluate_scattered"
                 and nearest_ancestor(spans, i, ("conformal.pushforward",)) >= 0)
    transform_s = self_s.get("sphere_grid.analysis", 0.0) \
        + self_s.get("sphere_grid.synth", 0.0)
    legendre_gflop = counters.get("legendre.flops", 0.0) / 1e9
    steps_summary = summarize(step_ms) if step_ms else {}

    values = {
        "sphere_grid.make_grid.builds": calls.get("sphere_grid.make_grid", 0),
        "sphere_grid.make_grid.s": total_s.get("sphere_grid.make_grid", 0.0),
        "sphere_grid.legendre.gflop": legendre_gflop * per,
        "sphere_grid.legendre.gbytes": counters.get("legendre.bytes", 0.0) / 1e9 * per,
        "sphere_grid.legendre.gflop_per_s":
            legendre_gflop / transform_s if transform_s > 0 else 0.0,
        "sphere_grid.evaluate_scattered.points":
            counters.get("evaluate_scattered.points", 0.0) * per,
        "sphere_grid.evaluate_scattered.gflop":
            counters.get("evaluate_scattered.flops", 0.0) / 1e9 * per,
        "sphere_grid.evaluate_scattered.gbytes":
            counters.get("evaluate_scattered.bytes", 0.0) / 1e9 * per,
        "flow.steps": steps * per,
        "flow.dt_mean": counters.get("flow.dt", 0.0) / steps if steps else 0.0,
        "flow.records": calls.get("flow.record", 0) * per,
        "flow.step_ms.p50": steps_summary.get("p50", 0.0),
        "flow.step_ms.tail": steps_summary.get("tail", 0.0),
        "flow.step_ms.tail_pct": steps_summary.get("tail_pct", 0.0),
        "flow.kernel_evals_per_step": kernel_evals_per_step(spans),
        "conformal.newton_iters_per_pushforward": newton / pushes if pushes else 0.0,
        "serialize.write.bytes": counters.get("serialize.write.bytes", 0.0) * per,
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for name, unit in LAYER_METRICS:
        if name in values:
            value = values[name]
        else:
            span, _, kind = name.rpartition(".")
            if span.startswith("cli."):
                value = total_s.get(span, 0.0) * per
            elif kind == "calls":
                value = calls.get(span, 0) * per
            else:
                value = self_s.get(span, 0.0) * per
        out[name] = (value, unit)
    return out
