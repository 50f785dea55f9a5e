import base64
import contextlib
import io
import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icflab.cli import build_parser, main
from icflab.flow import SpeedFunction, run
from icflab.invariants import DEFAULT_A_VALUES, e_tensor, energy_report
from icflab.serialize import (ckf_to_dict, load_surface, save_surface,
                              surface_from_dict, surface_to_dict,
                              write_json_atomic)
from icflab.conformal import ConformalKillingField
from icflab.errors import AuditError
from icflab.sphere_grid import GridSpec, ScalarField
from icflab.radial_graph import StarShapedHypersurface, geometry, invert, sigma_integral
from icflab.surfaces import harmonic_surface, sphere_surface, spheroid_surface

import oracles
from conftest import HARMONIC_TERMS

GRID = "16x32"


def b64(values) -> str:
    """A surface file's "f": base64 of little-endian float64 values."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


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

    def test_radius_past_bound_rejected(self, tmp_path, capsys):
        # gen, load and the inverse share POSITIVITY_FLOOR < f < 1 / floor
        assert run_cli("gen", "sphere", "1e300", "--grid", GRID,
                       "--out", str(tmp_path)) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DegenerateSurfaceError" and "1e+300" in err["message"]
        assert not (tmp_path / "surface.json").exists()

    @pytest.mark.parametrize("argv", [
        ["harmonic", "1.0", "99,0,0.1", "--grid", GRID],        # degree outside 0..15
        ["harmonic", "1.0", "2,3,0.1", "--grid", GRID],         # order above degree
        ["harmonic", "1.0", "20,16,0.01", "--grid", "25x32"],   # m_max = 15
        ["spheroid", "1.0", "-0.6", "--grid", GRID],
    ])
    def test_generation_error_is_input_error(self, argv, tmp_path, capsys):
        out = tmp_path / "g"
        assert run_cli("gen", *argv, "--out", str(out)) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "GenerationError"
        assert not (out / "surface.json").exists()

    @pytest.mark.parametrize("params, quoted, form", [
        (["harmonic", "1.0", "2,1"], "'2,1'", "base L,M,AMP ..."),
        (["harmonic", "1.0", "2,2,0.1", "2,x,0.1"], "'2,x,0.1'", "base L,M,AMP ..."),
        (["harmonic", "one", "2,2,0.1"], "'one 2,2,0.1'", "base L,M,AMP ..."),
        (["sphere", "1.0", "2.0"], "'1.0 2.0'", "R"),
        (["spheroid", "1.0"], "'1.0'", "a c"),
        (["spheroid", "1.0", "c"], "'1.0 c'", "a c"),
    ])
    def test_unparsable_parameters_are_quoted(self, params, quoted, form,
                                             tmp_path, capsys):
        out = tmp_path / "g"
        assert run_cli("gen", *params, "--grid", GRID, "--out", str(out)) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": f"cannot parse {quoted}; gen {params[0]} expects {form}"}
        assert not (out / "surface.json").exists()

    def test_surface_file_holds_base64_float64(self, tmp_path):
        # the values bit for bit, row-major, in about half a decimal file
        out = tmp_path / "h"
        terms = [",".join(map(str, t)) for t in HARMONIC_TERMS]
        assert run_cli("gen", "harmonic", "1.0", *terms, "--grid", "64x128",
                       "--out", str(out)) == 0
        path = out / "surface.json"
        f = load_strict_json(path)["f"]
        assert type(f) is str
        values = np.frombuffer(base64.b64decode(f), "<f8")
        expected = harmonic_surface(1.0, HARMONIC_TERMS, GridSpec(64, 128)).values
        assert np.array_equal(values, expected.reshape(-1))
        assert path.stat().st_size < 90_000

    def test_manifest_written(self, sphere_file):
        # one manifest, named for the command; the surface's parameters are
        # the `meta` of surface.json, not a config echo
        out = os.path.dirname(sphere_file)
        assert sorted(os.listdir(out)) == ["gen.manifest.json", "surface.json"]
        manifest = load_strict_json(os.path.join(out, "gen.manifest.json"))
        assert manifest["outputs"] == [sphere_file]
        assert manifest["config"] == {}
        assert "tool_version" in manifest
        assert load_strict_json(sphere_file)["meta"] == {"name": "sphere",
                                                         "params": {"R": 1.0}}


class TestDiag:
    def test_sphere_diag_values(self, sphere_file, tmp_path):
        out = tmp_path / "d"
        assert run_cli("diag", sphere_file, "--out", str(out)) == 0
        with open(out / "diag.json") as fh:
            rep = json.load(fh)
        assert abs(rep["W"] - 16 * np.pi) < 1e-10
        assert abs(rep["Q"]["1"] - 4 * np.sqrt(np.pi)) < 1e-9
        assert rep["tracefree_sq_sup"] < 1e-10 / 3

    def test_single_values_are_bit_exact(self, spheroid_file, tmp_path):
        # max |A0|^2 is written once, as the E(0) sup; the area once, as
        # the first sigma integral
        assert run_cli("diag", spheroid_file, "--out", str(tmp_path)) == 0
        rep = load_strict_json(tmp_path / "diag.json")
        s = load_surface(spheroid_file)
        m = float(geometry(s).tracefree_sq.max())
        assert m > 0.1
        assert rep["tracefree_sq_sup"] == m == e_tensor(s, 0.0)[1]
        assert rep["sigma_integrals"][0] == sigma_integral(s, 0)

    def test_saddle_is_input_error_that_names_the_node(self, tmp_path, capsys):
        # W needs H > 0: the node of least H and the H there, in plain ints
        gen = tmp_path / "g"
        assert run_cli("gen", "harmonic", "1.0", "4,0,0.4", "--grid", GRID,
                       "--out", str(gen)) == 0
        capsys.readouterr()
        out = tmp_path / "d"
        assert run_cli("diag", str(gen / "surface.json"), "--out", str(out)) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MeanConvexityError"
        assert err["message"].endswith(" at node (4, 0); not mean-convex")
        assert not (out / "diag.json").exists()

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert run_cli("diag", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path)) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"

    @pytest.mark.parametrize("payload", [
        [],
        {"grid": None, "f": [1.0], "meta": {}},
        {"grid": {"n_theta": [16], "n_phi": 32}, "f": [1.0], "meta": {}},
        {"grid": {"n_theta": 8, "n_phi": 16}, "f": [[1.0]] * 128, "meta": {}},
        {"grid": {"n_theta": 8, "n_phi": 16}, "f": [True] * 128, "meta": {}},
        {"grid": {"n_theta": 8, "n_phi": 16},
         "f": base64.b64encode(np.ones(128).tobytes()[:-1]).decode()},
        {"grid": {"n_theta": 8, "n_phi": 16},
         "f": base64.b64encode(np.ones(128).tobytes() + b"\0").decode()},
        {"grid": {"n_theta": 8, "n_phi": 16}, "f": b64(np.ones(128)).rstrip("=")},
        {"grid": {"n_theta": 8, "n_phi": 16}, "f": b64(np.ones(128))[:600] + "\n"
                                                   + b64(np.ones(128))[600:]},
        {"grid": {"n_theta": 8, "n_phi": 16}, "f": "\u00e9" + b64(np.ones(128))[1:]},
    ], ids=["top-level-list", "null-grid", "list-n_theta", "nested-f", "boolean-f",
            "base64-byte-short", "base64-byte-long", "base64-unpadded",
            "base64-newline", "base64-non-ascii"])
    def test_malformed_file_is_input_error(self, payload, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert run_cli("diag", str(path), "--out", str(tmp_path)) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError" and str(path) in err["message"]

    @pytest.mark.parametrize("key, size", [
        ("n_theta", 16.7), ("n_phi", "32"), ("n_theta", 16.0), ("n_theta", True),
    ], ids=["fraction", "string", "integral-float", "boolean"])
    def test_grid_size_must_be_json_integer(self, key, size, tmp_path, capsys):
        # 512 valid entries of f, so only the grid size is at fault
        grid = {"n_theta": 16, "n_phi": 32, key: size}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"grid": grid, "f": [1.0] * 512}))
        assert run_cli("diag", str(path), "--out", str(tmp_path)) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert str(path) in err["message"] and f"grid {key}" in err["message"]

    def test_deep_nesting_is_input_error(self, tmp_path, capsys):
        # deeper than json's recursion limit: an input error, not a traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert run_cli("diag", str(path), "--out", str(tmp_path)) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError" and str(path) in err["message"]

    @pytest.mark.parametrize("encode, entry, error", [
        (list, [1.0], "ValueError"), (list, True, "ValueError"),
        (list, "1.0", "ValueError"), (list, 10 ** 400, "ValueError"),
        (list, 1e300, "DegenerateSurfaceError"), (list, 1e-300, "DegenerateSurfaceError"),
        (b64, float("nan"), "ValueError"), (b64, float("inf"), "ValueError"),
        (b64, 1e300, "DegenerateSurfaceError"), (b64, 1e-300, "DegenerateSurfaceError"),
        (b64, -1.0, "DegenerateSurfaceError"),
    ], ids=["one-element-list", "boolean", "string", "int-past-double", "huge", "tiny",
            "base64-nan", "base64-inf", "base64-huge", "base64-tiny", "base64-negative"])
    def test_bad_entry_of_f_is_named(self, encode, entry, error, tmp_path, capsys):
        # one bad entry in an 8x16 unit sphere, as a decimal list or base64;
        # f past 1 / POSITIVITY_FLOOR is rejected on load, not as its
        # inverse inside diag
        f = [1.0] * 128
        f[37] = entry
        f = encode(f)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"grid": {"n_theta": 8, "n_phi": 16}, "f": f}))
        assert run_cli("diag", str(path), "--out", str(tmp_path)) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == error
        assert str(path) in err["message"] and "f[37]" in err["message"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4),
                                                                inner, max_size=3),
    max_leaves=8)


# signalling NaN, inf, subnormal and negative bit patterns for one entry
# of a base64 "f"
SPECIAL_WORDS = [struct.pack("<Q", 0x7FF0000000000001), struct.pack("<d", float("inf")),
                 struct.pack("<Q", 1), struct.pack("<d", -1.0)]


def splice(raw: bytes, i: int, word: bytes) -> bytes:
    """Float64 bytes raw with entry i replaced by word."""
    return raw[:8 * i] + word + raw[8 * i + 8:]


@st.composite
def surface_documents(draw):
    """Any JSON value, or an 8x16 sphere, its radius inside or past either
    bound, with "f" a decimal list or base64, whose grid or "f" may be
    replaced by any JSON value, whose "f" may be cut short, or one entry of
    whose "f" may be replaced by any JSON value (list) or 8-byte word
    (base64)."""
    if draw(st.booleans()):
        return draw(JSON_VALUES)
    radius = draw(st.sampled_from([1.0, 1e-300, 1e-9, 0.5, 1e7, 1e9, 1e300]))
    encoded = draw(st.booleans())
    where = draw(st.sampled_from(["none", "grid", "n_theta", "f", "entry", "truncated"]))
    f, raw = [radius] * 128, np.full(128, radius, "<f8").tobytes()
    if where == "truncated":
        cut = draw(st.integers(0, len(raw) - 1))
        f, raw = f[:cut // 8], raw[:cut]
    elif where == "entry":
        i = draw(st.integers(0, 127))
        if encoded:
            raw = splice(raw, i, draw(st.sampled_from(SPECIAL_WORDS)
                                      | st.binary(min_size=8, max_size=8)))
        else:
            f[i] = draw(JSON_VALUES)
    doc = {"grid": {"n_theta": 8, "n_phi": 16},
           "f": base64.b64encode(raw).decode("ascii") if encoded else f}
    if where == "grid":
        doc["grid"] = draw(JSON_VALUES)
    elif where == "n_theta":
        doc["grid"]["n_theta"] = draw(JSON_VALUES)
    elif where == "f":
        doc["f"] = draw(JSON_VALUES)
    return doc


def _with_special_words(test):
    """The test, also run on a unit sphere whose base64 "f" holds each of
    SPECIAL_WORDS at entry 37, which its random draws may miss."""
    for word in SPECIAL_WORDS:
        raw = splice(np.ones(128).tobytes(), 37, word)
        test = example(doc={"grid": {"n_theta": 8, "n_phi": 16},
                            "f": base64.b64encode(raw).decode("ascii")})(test)
    return test


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(doc=surface_documents())
@_with_special_words
def test_any_json_surface_exits_0_or_3(doc):
    # never a traceback (exit 1) or a numpy warning (an error under the
    # test settings); an input error prints one JSON object on stderr
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "surface.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli("diag", path, "--out", tmp)
    assert code in (0, 3)
    if code == 0:
        assert err.getvalue() == ""
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}


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
        assert header == ["t", "W", "Q1", "tracefree_sq_sup", "osc",
                          "ubar_mean", "shape_dev"]
        W = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.all(np.diff(W) <= 1e-8 * W[:-1])
        summary = load_strict_json(out / "flow_summary.json")
        rows = len(lines) - 1
        assert type(summary["steps"]) is int
        assert summary["steps"] >= rows - 1 >= 1
        # the max |A0|^2 column is the in-process trace's, bit for bit, and
        # its first entry that of the initial surface
        surface = load_surface(str(out_g / "surface.json"))
        trace = run(surface, SpeedFunction.parse("H"), 0.5)
        column = [float(l.split(",")[3]) for l in lines[1:]]
        assert column == trace.tracefree_sq_sup
        assert column[0] == float(geometry(surface).tracefree_sq.max())
        # too few records to fit beta: written as null, not as bare NaN
        short = tmp_path / "short"
        assert run_cli("flow", str(out_g / "surface.json"), "--t-end", "0.01",
                       "--out", str(short)) == 0
        assert load_strict_json(short / "flow_summary.json")["beta"] is None

    def test_round_sphere_beta_is_null(self, tmp_path):
        # shape_dev sits at round-off on a sphere: enough records to fit,
        # but no decay to fit, so beta is null on every grid and BLAS
        # kernel (it read -1.34, and 1.79 or 13.7 at 32x64 by kernel)
        for grid in ("16x32", "32x64", "64x128"):
            gen, out = tmp_path / f"g{grid}", tmp_path / f"f{grid}"
            assert run_cli("gen", "sphere", "1.0", "--grid", grid,
                           "--out", str(gen)) == 0
            assert run_cli("flow", str(gen / "surface.json"), "--t-end", "0.1",
                           "--out", str(out)) == 0
            with open(out / "trace.csv") as fh:
                assert len(fh.read().strip().split("\n")) - 1 >= 4
            assert load_strict_json(out / "flow_summary.json")["beta"] is None

    def test_input_outside_the_cone_is_input_error(self, tmp_path, capsys):
        # a saddle node: the step bound reads the start's curvatures before
        # anything is recorded, and names the node and its curvatures
        gen = tmp_path / "g"
        assert run_cli("gen", "harmonic", "1.0", "4,0,0.4", "--grid", GRID,
                       "--out", str(gen)) == 0
        capsys.readouterr()
        out = tmp_path / "f"
        assert run_cli("flow", str(gen / "surface.json"), "--out", str(out)) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CurvatureConeError"
        assert "at node (4, 0) outside the cone of H" in err["message"]
        assert not (out / "trace.csv").exists()

    def test_dt_safety_is_an_unknown_option(self, sphere_file, tmp_path, capsys):
        # steps are sized by one fixed rule, with no option to scale it
        out = tmp_path / "dts"
        assert run_cli("flow", sphere_file, "--dt-safety", "0.2",
                       "--out", str(out)) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "--dt-safety" in err["message"]
        assert not (out / "trace.csv").exists()

    def test_non_finite_t_end_is_input_error(self, sphere_file, tmp_path, capsys):
        out = tmp_path / "nan"
        assert run_cli("flow", sphere_file, "--t-end", "nan",
                       "--out", str(out)) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
        assert not (out / "trace.csv").exists()

    def test_unknown_speed_is_input_error(self, sphere_file, tmp_path, capsys):
        # |A| has closed forms, but only as the tests' concavity control
        for speed in ("power:3", "|A|"):
            out = tmp_path / "unknown"
            assert run_cli("flow", sphere_file, "--speed", speed,
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
        # the failed audit is still written, with its manifest
        assert load_strict_json(tmp_path / "i" / "invariance.json")["passed"] is False
        assert (tmp_path / "i" / "invariance.manifest.json").exists()

    def test_verdict_scales_the_a0_inversion_difference(self, tmp_path):
        # E(a) = -(2a+1)|A0|^2 g in n = 2, so the audit writes the a = 0
        # sup difference and holds the largest |2a+1| over the swept a, 3,
        # times it against --tol; this surface's Hsiung-Minkowski residual
        # sits far below its E difference, so a tol between the difference
        # and 3 times it fails on E alone
        out_g = tmp_path / "g"
        assert run_cli("gen", "harmonic", "1.0", "2,2,0.1", "3,1,0.05",
                       "--grid", "32x64", "--out", str(out_g)) == 0
        surface_file = str(out_g / "surface.json")
        assert run_cli("invariance", surface_file, "--out", str(tmp_path / "i")) == 0
        audit = load_strict_json(tmp_path / "i" / "invariance.json")
        e_diff, hm = audit["e_inversion_sup_diff"], audit["hm_max_relative_residual"]
        s = load_surface(surface_file)
        tensors = (e_tensor(s, 0.0)[0], e_tensor(invert(s), 0.0)[0])
        assert type(e_diff) is float and e_diff == max(
            float(np.abs(x - y).max()) for x, y in zip(*tensors))
        assert max(abs(2 * a + 1) for a in DEFAULT_A_VALUES) == 3
        assert 0 < 100 * hm < e_diff
        for factor in (2.0, 2.9, 3.1, 4.0):
            tol = factor * e_diff
            out = tmp_path / f"t{factor}"
            code = run_cli("invariance", surface_file, "--tol", repr(tol),
                           "--out", str(out))
            audit = load_strict_json(out / "invariance.json")
            assert audit["passed"] is (3 * e_diff < tol)
            assert code == (0 if audit["passed"] else 2)
            assert audit["e_inversion_sup_diff"] == e_diff

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trials_below_one_is_input_error(self, spheroid_file, tmp_path,
                                             capsys, trials):
        out = tmp_path / "i"
        assert run_cli("invariance", spheroid_file, "--trials", trials,
                       "--out", str(out)) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "--trials" in err["message"]
        assert not out.exists()


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
@pytest.mark.parametrize("cmd", ["invariance", "soliton"])
def test_tol_not_finite_positive_is_input_error(cmd, tol, sphere_file,
                                                tmp_path, capsys):
    out = tmp_path / "t"
    assert run_cli(cmd, sphere_file, "--tol", tol, "--out", str(out)) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "--tol" in err["message"]
    assert not out.exists()


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
        assert rep["lower"] < rep["Qbar"] < rep["upper"]

    def test_audit_failure_exits_2_and_writes_nothing(self, spheroid_file,
                                                      tmp_path, capsys,
                                                      monkeypatch):
        import icflab.invariants as inv

        def escapes(surface):
            raise AuditError("Qbar escapes its bounds")

        monkeypatch.setattr(inv, "qbar", escapes)
        out = tmp_path / "q"
        assert run_cli("inequality", spheroid_file, "--out", str(out)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "AuditError",
                                        "message": "Qbar escapes its bounds"}
        assert not (out / "inequality.json").exists()


class TestGeometryCache:
    @pytest.mark.parametrize("argv", [("diag",),
                                      ("invariance", "--trials", "20",
                                       "--tol", "1e-3"),
                                      ("inequality",)])
    def test_one_kernel_call_per_surface(self, argv, spheroid_file, tmp_path,
                                         monkeypatch):
        # the surface builds its bundle once, and for invariance its
        # inverse builds one too; inequality reads the inverse off the
        # surface's bundle
        builds = 2 if argv[0] == "invariance" else 1
        import icflab.radial_graph as rg
        calls = []
        kernel = rg.curvature

        def counted(grid, lam, f):
            calls.append(f)
            return kernel(grid, lam, f)

        monkeypatch.setattr(rg, "curvature", counted)
        assert run_cli(argv[0], spheroid_file, *argv[1:],
                       "--out", str(tmp_path / "o")) == 0
        assert len(calls) == builds
        if builds == 2:
            assert np.allclose(calls[0] * calls[1], 1.0, rtol=1e-14, atol=0.0)


class TestOutputContract:
    def test_report_key_order(self, spheroid_file, tmp_path):
        # each number once: no copy of another output of the same command
        # (the trace rows, Qbar) and no difference of keys in one file
        for argv in (["diag"], ["soliton"], ["inequality"],
                     ["invariance", "--trials", "2", "--tol", "1e-3"],
                     ["flow", "--t-end", "0.01"]):
            assert run_cli(argv[0], spheroid_file, *argv[1:],
                           "--out", str(tmp_path)) == 0
        keys = {"diag.json": ["W", "Q", "tracefree_sq_sup", "sigma_integrals"],
                "soliton.json": ["residual_sup", "residual_l2", "verdict",
                                 "tolerance", "relative_residual",
                                 "gram_condition", "fitted"],
                "inequality.json": ["Qbar", "lower", "upper"],
                "invariance.json": ["seed", "trials", "tolerance",
                                    "hm_max_relative_residual",
                                    "e_inversion_sup_diff", "passed"],
                "flow_summary.json": ["speed", "mu", "steps", "beta"]}
        for name, expected in keys.items():
            assert list(load_strict_json(tmp_path / name)) == expected, name

    def test_flow_manifests_list_both_outputs(self, sphere_file, tmp_path):
        # the run's one manifest lists both of its outputs
        assert run_cli("flow", sphere_file, "--t-end", "0.01",
                       "--out", str(tmp_path)) == 0
        assert sorted(os.listdir(tmp_path)) == ["flow.manifest.json",
                                                "flow_summary.json", "gen",
                                                "trace.csv"]
        manifest = load_strict_json(tmp_path / "flow.manifest.json")
        assert list(manifest) == ["command", "inputs", "config",
                                  "tool_version", "grid", "wall_clock_s",
                                  "outputs"]
        assert manifest["outputs"] == [str(tmp_path / "trace.csv"),
                                       str(tmp_path / "flow_summary.json")]
        assert manifest["inputs"] == [sphere_file]
        assert manifest["config"] == {"speed": "H", "t_end": 0.01}

    def test_commands_in_one_process_share_no_state(self, sphere_file, tmp_path,
                                                    monkeypatch):
        # one parser serves every call; no option of one call reaches the
        # next, and a command rebound after the parser was built still runs
        import icflab.cli as cli
        assert build_parser() is build_parser()
        assert run_cli("flow", sphere_file, "--speed", "quotient:2", "--t-end",
                       "0.01", "--out", str(tmp_path / "flow")) == 0
        calls, soliton = [], cli.cmd_soliton

        def counted(args):
            calls.append(args.cmd)
            return soliton(args)

        monkeypatch.setattr(cli, "cmd_soliton", counted)
        assert run_cli("soliton", sphere_file, "--out", str(tmp_path / "sol")) == 0
        assert calls == ["soliton"]
        manifest = load_strict_json(tmp_path / "sol" / "soliton.manifest.json")
        assert manifest["config"] == {"speed": "H", "tol": 1e-6}

    def test_a_key_error_is_a_bug_not_an_input_error(self, sphere_file, tmp_path,
                                                     monkeypatch):
        # no input raises KeyError, so main lets one through
        import icflab.cli as cli

        def broken(args):
            raise KeyError("bug")

        monkeypatch.setattr(cli, "cmd_diag", broken)
        with pytest.raises(KeyError):
            run_cli("diag", sphere_file, "--out", str(tmp_path))

    def test_usage_errors_are_input_errors(self, sphere_file, tmp_path, capsys):
        # an unknown option and a missing argument: exit 3, a JSON error
        for argv in (["flow", sphere_file, "--bogus", "1"], ["gen", "sphere"]):
            assert run_cli(*argv, "--out", str(tmp_path / "u")) == 3
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ValueError" and err["message"]
        assert not (tmp_path / "u").exists()


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

    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(f=st.lists(st.floats(1e-8, 1e8, exclude_min=True, exclude_max=True),
                      min_size=128, max_size=128))
    def test_any_admissible_surface_round_trips_bit_exactly(self, f):
        # and a file of the older format, the same values as decimals, loads
        # to the same array
        s = StarShapedHypersurface(ScalarField(GridSpec(8, 16),
                                               np.reshape(f, (8, 16))))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "surface.json")
            save_surface(path, s)
            assert np.array_equal(load_surface(path).values, s.values)
            legacy = os.path.join(tmp, "legacy.json")
            with open(legacy, "w") as fh:
                json.dump({"grid": {"n_theta": 8, "n_phi": 16}, "f": f}, fh)
            assert np.array_equal(load_surface(legacy).values, s.values)

    def test_ckf_to_dict_keys_and_values(self, rng):
        # the parameters of soliton.json's `fitted`, exact through JSON text
        V = ConformalKillingField(rng.normal(size=3), rng.normal(size=3),
                                  rng.normal(), rng.normal(size=3))
        d = json.loads(json.dumps(ckf_to_dict(V)))
        assert list(d) == ["v", "S_lower", "mu", "b"]
        assert d["v"] == V.v.tolist() and d["S_lower"] == V.s_lower.tolist()
        assert type(d["mu"]) is float and d["mu"] == V.mu
        assert d["b"] == V.b.tolist()

    def test_json_bytes_match_recursive_null_walk(self, tmp_path):
        # the surface.json of each gen kind at two grids, diag.json and a
        # flow_summary.json whose beta is null (fewer than 4 records) are
        # written byte for byte as the element-by-element walk would write
        # them
        spec = GridSpec(16, 32)
        spheroid = spheroid_surface(1.0, 0.6, spec)
        summary = run(sphere_surface(1.0, spec), SpeedFunction.parse("H"), 0.01,
                      keep_snapshots=False).summary()
        assert summary["beta"] != summary["beta"]        # nan
        payloads = {"diag.json": energy_report(spheroid),
                    "flow_summary.json": summary,
                    "nonfinite_f.json": {"f": [1.0, float("nan")], "meta": {}}}
        kinds = {"sphere": (sphere_surface, {"R": 1.3}),
                 "spheroid": (spheroid_surface, {"a": 1.0, "c": 0.6}),
                 "harmonic": (harmonic_surface,
                              {"base": 1.0, "terms": [list(t) for t in HARMONIC_TERMS]})}
        for grid in (spec, GridSpec(64, 128)):
            for name, (make, params) in kinds.items():
                surface = make(*params.values(), grid)
                payloads[f"{name}{grid.n_theta}.json"] = surface_to_dict(
                    surface, {"name": name, "params": params})
        for name, payload in payloads.items():
            path = tmp_path / name
            write_json_atomic(str(path), payload)
            expected = json.dumps(oracles.finite_or_null_recursive(payload),
                                  indent=1, allow_nan=False) + "\n"
            assert path.read_bytes() == expected.encode()
        assert load_strict_json(tmp_path / "flow_summary.json")["beta"] is None
