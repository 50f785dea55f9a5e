import json
import os

import numpy as np
import pytest

from icflab.cli import main
from icflab.serialize import (ckf_from_dict, ckf_to_dict, load_surface,
                              save_surface, surface_from_dict, surface_to_dict)
from icflab.conformal import ConformalKillingField
from icflab.sphere_grid import GridSpec, ScalarField
from icflab.radial_graph import StarShapedHypersurface

GRID = "16x32"


def run_cli(*argv):
    return main(list(argv))


def load_strict_json(path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


@pytest.fixture()
def sphere_file(tmp_path):
    out = tmp_path / "gen"
    assert run_cli("gen", "sphere", "1.0", "--grid", GRID, "--out", str(out)) == 0
    return str(out / "surface.json")


@pytest.fixture()
def spheroid_file(tmp_path):
    out = tmp_path / "gen_sp"
    assert run_cli("gen", "spheroid", "1.0", "0.6", "--grid", GRID,
                   "--out", str(out)) == 0
    return str(out / "surface.json")


class TestGen:
    def test_sphere_file_contents(self, sphere_file):
        surface = load_surface(sphere_file)
        assert surface.spec == GridSpec(16, 32)
        assert np.all(surface.values == 1.0)

    def test_harmonic(self, tmp_path):
        out = tmp_path / "h"
        assert run_cli("gen", "harmonic", "1.0", "2,2,0.1", "--grid", GRID,
                       "--out", str(out)) == 0
        surface = load_surface(str(out / "surface.json"))
        assert surface.values.min() > 0.8

    def test_nonpositive_rejected(self, tmp_path):
        assert run_cli("gen", "sphere", "-1.0", "--grid", GRID,
                       "--out", str(tmp_path)) == 3
        assert run_cli("gen", "harmonic", "0.01", "2,2,1.0", "--grid", GRID,
                       "--out", str(tmp_path)) == 3

    def test_manifest_written(self, sphere_file):
        with open(sphere_file + ".manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["outputs"] == [sphere_file]
        assert "tool_version" in manifest


class TestDiag:
    def test_sphere_diag_values(self, sphere_file, tmp_path):
        out = tmp_path / "d"
        assert run_cli("diag", sphere_file, "--out", str(out)) == 0
        with open(out / "diag.json") as fh:
            rep = json.load(fh)
        assert abs(rep["W"] - 16 * np.pi) < 1e-10
        assert abs(rep["Q"]["1"] - 4 * np.sqrt(np.pi)) < 1e-9
        assert max(rep["E_sup"].values()) < 1e-10

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert run_cli("diag", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path)) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"


class TestFlow:
    def test_trace_columns_and_monotone_W(self, tmp_path):
        out_g = tmp_path / "g"
        run_cli("gen", "harmonic", "1.0", "2,2,0.1", "--grid", GRID,
                "--out", str(out_g))
        out = tmp_path / "f"
        assert run_cli("flow", str(out_g / "surface.json"), "--t-end", "0.5",
                       "--out", str(out)) == 0
        with open(out / "trace.csv") as fh:
            lines = fh.read().strip().split("\n")
        header = lines[0].split(",")
        assert header[:3] == ["t", "W", "Q1"]
        assert header[-3:] == ["osc", "ubar_mean", "shape_dev"]
        W = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.all(np.diff(W) <= 1e-8 * W[:-1])
        summary = load_strict_json(out / "flow_summary.json")
        assert summary["records"] == len(lines) - 1
        # too few records to fit beta: written as null, not as bare NaN
        short = tmp_path / "short"
        assert run_cli("flow", str(out_g / "surface.json"), "--t-end", "0.01",
                       "--out", str(short)) == 0
        assert load_strict_json(short / "flow_summary.json")["beta"] is None

    def test_non_finite_t_end_is_input_error(self, sphere_file, tmp_path, capsys):
        out = tmp_path / "nan"
        assert run_cli("flow", sphere_file, "--t-end", "nan",
                       "--out", str(out)) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
        assert not (out / "trace.csv").exists()

    def test_unknown_speed_is_input_error(self, sphere_file, tmp_path, capsys):
        out = tmp_path / "p3"
        assert run_cli("flow", sphere_file, "--speed", "power:3",
                       "--out", str(out)) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "quotient:2" in err["message"]
        assert not (out / "trace.csv").exists()


class TestInvariance:
    def test_audit_passes_and_is_deterministic(self, spheroid_file, tmp_path):
        # the default 1e-6 tolerance is calibrated for 64x128; at this
        # coarse grid quadrature truncation sits near 4e-5
        outs = []
        for name in ("i1", "i2"):
            out = tmp_path / name
            assert run_cli("invariance", spheroid_file, "--seed", "3",
                           "--trials", "4", "--tol", "1e-3",
                           "--out", str(out)) == 0
            with open(out / "invariance.json", "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]  # byte-identical reruns

    def test_twenty_trials_pass_at_production_grid(self, tmp_path):
        out_g = tmp_path / "g64"
        assert run_cli("gen", "spheroid", "1.0", "0.6", "--grid", "64x128",
                       "--out", str(out_g)) == 0
        out = tmp_path / "i64"
        assert run_cli("invariance", str(out_g / "surface.json"), "--seed",
                       "0", "--trials", "20", "--out", str(out)) == 0
        with open(out / "invariance.json") as fh:
            audit = json.load(fh)
        assert audit["passed"]
        assert audit["hm_max_relative_residual"] < 1e-6

    def test_impossible_tolerance_fails_audit(self, spheroid_file, tmp_path):
        assert run_cli("invariance", spheroid_file, "--tol", "1e-18",
                       "--trials", "2", "--out", str(tmp_path / "i")) == 2


class TestSolitonCommand:
    def test_sphere_is_soliton(self, sphere_file, tmp_path):
        out = tmp_path / "s"
        assert run_cli("soliton", sphere_file, "--out", str(out)) == 0
        with open(out / "soliton.json") as fh:
            rep = json.load(fh)
        assert rep["verdict"] == "soliton"
        assert abs(rep["fitted"]["mu"] - 0.5) < 1e-8

    def test_spheroid_is_not(self, spheroid_file, tmp_path):
        out = tmp_path / "s"
        assert run_cli("soliton", spheroid_file, "--out", str(out)) == 0
        with open(out / "soliton.json") as fh:
            rep = json.load(fh)
        assert rep["verdict"] == "not_soliton"


class TestInequality:
    def test_report(self, spheroid_file, tmp_path):
        out = tmp_path / "q"
        assert run_cli("inequality", spheroid_file, "--out", str(out)) == 0
        with open(out / "inequality.json") as fh:
            rep = json.load(fh)
        assert rep["lower"] <= rep["Qbar"] <= rep["upper"]
        assert rep["margin_lower"] > 0 and rep["margin_upper"] > 0


class TestGeometryCache:
    @pytest.mark.parametrize("argv", [("diag",),
                                      ("invariance", "--trials", "20",
                                       "--tol", "1e-3")])
    def test_one_kernel_call_per_surface(self, argv, spheroid_file, tmp_path,
                                         monkeypatch):
        # the surface and its inverse each build their bundle once
        import icflab.radial_graph as rg
        calls = []
        kernel = rg.curvature

        def counted(grid, f):
            calls.append(f)
            return kernel(grid, f)

        monkeypatch.setattr(rg, "curvature", counted)
        assert run_cli(argv[0], spheroid_file, *argv[1:],
                       "--out", str(tmp_path / "o")) == 0
        assert len(calls) == 2
        assert np.allclose(calls[0] * calls[1], 1.0, rtol=1e-14, atol=0.0)


class TestHelp:
    @pytest.mark.parametrize("cmd", ["gen", "diag", "flow", "invariance",
                                     "soliton", "inequality"])
    def test_subcommand_help_exits_zero(self, cmd):
        with pytest.raises(SystemExit) as exc:
            run_cli(cmd, "--help")
        assert exc.value.code == 0


class TestSerialization:
    def test_surface_round_trip_is_bit_exact(self, tmp_path, rng):
        spec = GridSpec(16, 32)
        values = np.exp(rng.standard_normal(spec.shape) * 0.1)
        s = StarShapedHypersurface(ScalarField(spec, values))
        path = str(tmp_path / "s.json")
        save_surface(path, s, {"name": "random"})
        back = load_surface(path)
        assert np.array_equal(back.values, s.values)  # bit-exact

    def test_ckf_round_trip(self, rng):
        V = ConformalKillingField(rng.normal(size=3), rng.normal(size=3),
                                  rng.normal(), rng.normal(size=3))
        W = ckf_from_dict(json.loads(json.dumps(ckf_to_dict(V))))
        assert np.array_equal(W.v, V.v)
        assert np.array_equal(W.s_lower, V.s_lower)
        assert W.mu == V.mu
        assert np.array_equal(W.b, V.b)
