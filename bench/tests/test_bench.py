"""Tests of the benchmark's own code: inputs, span arithmetic, the tail
rule, the gates, and a 32x64 smoke run of every workload.

    python3 -m pytest bench/tests
"""

import json
import math
import os

import pytest

import run
import spans
import workloads

SMOKE = {"imcf64": ((32, 64),), "transport64": ((32, 64),),
         "audit_mixed": ((32, 64), (48, 96))}


@pytest.fixture(scope="module")
def icf():
    return run.load_icflab()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_bit_identical_inputs(icf, tmp_path, name):
    cls = workloads.WORKLOADS[name]
    first = cls(icf, 7, str(tmp_path / "a"), SMOKE[name]).prepare()
    again = cls(icf, 7, str(tmp_path / "b"), SMOKE[name]).prepare()
    other = cls(icf, 8, str(tmp_path / "c"), SMOKE[name]).prepare()
    assert first == again
    assert first != other


def test_per_round_inputs_depend_only_on_seed_and_round(icf, tmp_path):
    a = workloads.Transport64(icf, 3, str(tmp_path), SMOKE["transport64"])
    b = workloads.Transport64(icf, 3, str(tmp_path), SMOKE["transport64"])
    a.prepare(), b.prepare()
    fa, fb = a.field(5), b.field(5)
    assert (fa.v == fb.v).all() and (fa.b == fb.b).all() and fa.mu == fb.mu
    audit = workloads.AuditMixed(icf, 3, str(tmp_path))
    assert audit.terms(4, 1) == audit.terms(4, 1) != audit.terms(5, 1)


def test_transport_fields_have_a_rate_bounded_away_from_zero(icf, tmp_path):
    wl = workloads.Transport64(icf, 11, str(tmp_path), SMOKE["transport64"])
    wl.prepare()
    g = wl.rot @ wl.RATE_GRADIENT / math.hypot(*wl.RATE_GRADIENT)
    for i in range(50):
        assert abs(wl.field(i).b @ g) >= 0.1 - 1e-12


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    synthetic = [["root", -1, 0.0, 10.0, 1], ["a", 0, 1.0, 4.0, 1],
                 ["a1", 1, 2.0, 3.0, 1], ["b", 0, 5.0, 9.0, 1]]
    assert spans.self_times(synthetic) == [3.0, 2.0, 1.0, 4.0]
    assert spans.nearest_ancestor(synthetic, 2, ("root",)) == 0
    assert spans.nearest_ancestor(synthetic, 0, ("root",)) == -1


def test_kernel_evals_per_step_skips_the_cadence_probe():
    cd = "sphere_grid.chart_derivatives"
    s = [["flow.stable_dt", -1, 0, 1, 0], [cd, 0, 0, 1, 0]]      # probe
    for _ in range(3):
        base = len(s)
        s += [["flow.stable_dt", -1, 0, 1, 0], [cd, base, 0, 1, 0],
              ["flow.step", -1, 0, 1, 0]]
        s += [[cd, base + 2, 0, 1, 0] for _ in range(4)]
    assert spans.kernel_evals_per_step(s) == 5.0


def test_layer_metrics_are_per_round_and_complete():
    synthetic = [["sphere_grid.make_grid", -1, 0.0, 0.5, -1],
                 ["radial_graph.geometry", -1, 0.0, 2.0, 1],
                 ["sphere_grid.analysis", 1, 0.5, 1.0, 1],
                 ["radial_graph.geometry", -1, 3.0, 4.0, 2]]
    out = spans.layer_metrics(synthetic, {}, rounds=2, overhead_frac=0.01)
    assert [k for k, _ in spans.LAYER_METRICS] == list(out)
    assert out["radial_graph.geometry.calls"] == (1.0, "count")
    assert out["radial_graph.geometry.self_s"] == (1.25, "s")
    assert out["sphere_grid.make_grid.builds"] == (1, "count")
    assert out["trace.overhead_frac"] == (0.01, "ratio")


@pytest.mark.parametrize("n, level", [(9, None), (39, None), (40, 75.0),
                                      (99, 75.0), (100, 90.0), (200, 95.0),
                                      (1000, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, level):
    assert spans.tail_level(n) == level
    summary = spans.summarize(list(range(n)))
    assert summary["n"] == n and summary["min"] == 0
    if level is None:
        assert "tail" not in summary
    else:
        assert sum(x > summary["tail"] for x in range(n)) >= 10


def test_flow_gate_rejects_corrupted_traces():
    W = [51.1, 51.0, 50.9]
    Q = [7.11, 7.105, 7.10]
    ref = {"W_final": 50.9, "Q1_final": 7.10}
    assert workloads.flow_gate(W, Q, ref) == []
    assert workloads.flow_gate([51.1, 51.2, 50.9], Q)           # W rises
    assert workloads.flow_gate(W, [7.11, 7.12, 7.10])           # Q1 rises
    assert workloads.flow_gate([51.1, 51.0, 50.0], Q)           # W < 16 pi
    assert workloads.flow_gate(W, [7.11, 7.105, 7.0])           # Q1 < 4 sqrt(pi)
    assert workloads.flow_gate(W, Q, {**ref, "W_final": 50.9001})
    assert workloads.flow_gate(W[:1], Q[:1])                    # one record


def test_transport_gate_rejects_a_wrong_rate():
    assert workloads.transport_gate(2.0e-3, 2.0e-3 * (1 + 1e-6)) == []
    assert workloads.transport_gate(2.0e-3, 2.0e-3 * (1 + 2e-3))
    assert workloads.transport_gate(2.0e-3, -2.0e-3)


def test_audit_gate_rejects_corrupted_outputs():
    codes = dict.fromkeys(("gen", "diag", "invariance", "soliton",
                           "inequality"), 0)
    inv = {"passed": True}
    ineq = {"Qbar": 14.2, "lower": 14.0, "upper": 14.5}
    sol = {"verdict": "soliton", "fitted": {"mu": 0.5}}
    assert workloads.audit_gate(codes, inv, ineq, sol, sphere=True) == []
    assert workloads.audit_gate({**codes, "diag": 3}, None, None, None, False)
    assert workloads.audit_gate(codes, {"passed": False}, ineq, sol, False)
    assert workloads.audit_gate(codes, inv, {**ineq, "Qbar": 14.6}, sol, False)
    assert workloads.audit_gate(codes, inv, {**ineq, "Qbar": 13.9}, sol, False)
    assert workloads.audit_gate(codes, inv, ineq,
                                {"verdict": "not_soliton", "fitted": {"mu": 0.5}},
                                sphere=True)
    assert workloads.audit_gate(codes, inv, ineq,
                                {"verdict": "soliton", "fitted": {"mu": 0.5 + 1e-7}},
                                sphere=True)
    # equality case: a sphere's Qbar may sit an ulp outside its bounds
    sphere = {"Qbar": 14.179630807244129, "lower": 14.179630807244127,
              "upper": 14.179630807244127}
    assert workloads.audit_gate(codes, inv, sphere, sol, sphere=True) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_passes_its_gates(tmp_path, name, trace):
    report = run.run_workload(name, 0, 0.0, trace, str(tmp_path), SMOKE[name])
    assert report["failed"] == 0, report["failures"]
    assert report["attempted"] >= 1
    for key, _ in run.E2E_METRICS:
        value, _ = report["e2e"][key]
        assert value > 0
    if trace:
        layers = {k: v for k, (v, _) in report["layers"].items()}
        assert set(layers) == {k for k, _ in spans.LAYER_METRICS}
        assert layers["sphere_grid.make_grid.builds"] == len(SMOKE[name])
        if name == "imcf64":
            assert layers["flow.kernel_evals_per_step"] == 5.0
            # a round writes the trace, the summary and two manifests;
            # the input surface written during set-up is not counted
            assert 0 < layers["serialize.write.bytes"] < 10_000
        if name == "transport64":
            assert layers["conformal.newton_iters_per_pushforward"] >= 1
        else:
            assert layers["sphere_grid.evaluate_scattered.calls"] == 0


def test_benchmark_json_lists_the_metrics_the_code_reports():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.E2E_METRICS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.LAYER_METRICS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_host_clock_scales_by_the_reference_runs_either_side():
    import calibrate
    times = iter([9.0, 0.2, 0.1, 0.3])       # warm-up, before, after, after
    clock = calibrate.HostClock(reference=lambda: next(times))
    result, wall, scale = clock.measure(lambda x: x + 1, 1)
    assert result == 2 and wall >= 0.0
    assert scale == pytest.approx(calibrate.NOMINAL_S / 0.15)
    _, _, scale = clock.measure(lambda: None)
    assert scale == pytest.approx(calibrate.NOMINAL_S / 0.2)
