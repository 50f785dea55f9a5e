import numpy as np
import pytest

from icflab.errors import CurvatureConeError
from icflab.flow import (FlowConfig, SpeedFunction, asymptotics_check,
                         class_c_audit, curvature_norm_speed, normal_speed,
                         run, stable_dt, step)
from icflab.radial_graph import StarShapedHypersurface, curvature, geometry
from icflab.sphere_grid import GridSpec, ScalarField, make_grid
from icflab.surfaces import sphere_surface, spheroid_surface

import oracles
from conftest import SPEC32, SPEC48, nodes


def perturbed_sphere(spec, amp=0.1):
    T, P = nodes(spec)
    return StarShapedHypersurface(
        ScalarField(spec, 1.0 + amp * np.sin(T) ** 2 * np.cos(2 * P)))


# every spelling the parser accepts, grouped by the speed it names:
# H, K/H and sqrt K
ALIASES = [("H", "quotient:1", "power:1", "ratio:1,0"),
           ("quotient:2", "ratio:2,1"),
           ("power:2", "ratio:2,0")]
SPELLINGS = [SpeedFunction.parse(text) for group in ALIASES for text in group]


class TestSpeedFunctions:
    def test_round_point_values(self):
        assert SpeedFunction("H").mu == 2.0
        assert SpeedFunction("power:2").mu == 1.0
        assert SpeedFunction("quotient:2").mu == 0.5
        assert SpeedFunction("ratio:2,0").mu == 1.0

    def test_parse_round_trip(self):
        for text in ("H", "quotient:2", "power:2", "ratio:2,1"):
            assert SpeedFunction.parse(text).label == text
        # any other spelling is rejected with the list of accepted ones
        for text in ("bogus:3", "power:3", "quotient:3", "ratio:3,1", "bogus",
                     "quotient:0", "ratio:1,2", "power:02", "quotient:+2"):
            with pytest.raises(ValueError, match="quotient:2"):
                SpeedFunction.parse(text)

    def test_parse_ignores_blanks(self):
        assert SpeedFunction.parse(" ratio:2, 0 ").label == "ratio:2,0"
        assert SpeedFunction.parse("power : 2").label == "power:2"

    def test_elementary_symmetric_normalization(self, sphere64):
        # sigma_k(1, 1) = C(2, k), on the unit sphere and in the oracle
        assert np.array_equal(oracles.elementary_symmetric(np.ones(2)),
                              [1.0, 2.0, 1.0])
        sig = geometry(sphere64).sigma_k
        assert np.abs(sig - [1.0, 2.0, 1.0]).max() < 1e-12

    def test_closed_form_matches_generic_recurrence(self, rng):
        # each spelling's closed form against its generic sigma formula,
        # with the sigmas from the recurrence and the cone
        # {sigma_l > 0 for l <= the highest degree in the formula}
        kap = rng.uniform(-3.0, 3.0, size=(200, 2))
        e = oracles.elementary_symmetric(kap)
        for sp in SPELLINGS:
            # decode the spelling here, independently of the speed table
            kind, _, arg = sp.label.partition(":")
            i, _, j = arg.partition(",")
            i, j = (int(i), int(j or 0)) if arg else (1, 0)
            cone = np.all(e[:, 1:i + 1] > 0.0, axis=-1)
            assert cone.any() and not cone.all()
            assert np.array_equal(sp.in_cone(kap), cone), sp.label
            c = e[cone]
            if kind == "H":
                generic = c[:, 1]
            elif kind == "quotient":
                generic = c[:, i] / c[:, i - 1]
            elif kind == "power":
                generic = c[:, i] ** (1.0 / i)
            else:
                generic = (c[:, i] / c[:, j]) ** (1.0 / (i - j))
            assert np.array_equal(sp.rho(kap[cone]), generic), sp.label

    def test_homogeneity_symmetry_monotonicity(self, rng):
        kap = rng.uniform(0.2, 3.0, size=(200, 2))
        for sp in SPELLINGS:
            vals = sp.rho(kap)
            assert np.all(vals > 0)
            for c in (0.5, 3.0):
                assert np.abs(sp.rho(c * kap) - c * vals).max() < 1e-12 * c * vals.max()
            assert np.abs(sp.rho(kap[:, ::-1]) - vals).max() < 1e-12 * vals.max()
            assert np.all(sp.drho(kap) > 0)

    def test_gradient_matches_finite_differences(self, rng):
        kap = rng.uniform(0.3, 2.0, size=(50, 2))
        h = 1e-6
        for sp in SPELLINGS:
            for i, e in enumerate(np.eye(2)):
                fd = (sp.rho(kap + h * e) - sp.rho(kap - h * e)) / (2 * h)
                assert np.abs(sp.drho(kap)[:, i] - fd).max() < 1e-8


class TestNormalSpeed:
    def test_sphere_imcf(self):
        s = sphere_surface(2.0, SPEC32)
        ns = normal_speed(s, SpeedFunction("H"))
        assert np.abs(ns.values - 1.0).max() < 1e-12  # R/n = 1

    def test_sphere_gauss_root(self):
        # rho = sigma_2^(1/2) = 1/R at a round point; speed = R
        s = sphere_surface(1.5, SPEC32)
        ns = normal_speed(s, SpeedFunction("power:2"))
        assert np.abs(ns.values - 1.5).max() < 1e-12

    @pytest.mark.parametrize("entry", ["normal_speed", "normal_speed_geom", "step"])
    def test_cone_violation_reports_node(self, entry):
        s = perturbed_sphere(SPEC32, amp=0.3)  # saddle regions: sigma_2 < 0
        speed = SpeedFunction("power:2")
        if entry == "normal_speed_geom":
            geometry(s)  # normal_speed then reads the cached bundle
        call = {"normal_speed": lambda: normal_speed(s, speed),
                "normal_speed_geom": lambda: normal_speed(s, speed),
                "step": lambda: step(s, speed, 1e-4)}[entry]
        with pytest.raises(CurvatureConeError) as err:
            call()
        assert err.value.node is not None
        assert err.value.kappa is not None


class TestStep:
    def test_sphere_single_step_matches_exponential(self):
        s = sphere_surface(1.0, SPEC32)
        out = step(s, SpeedFunction("H"), 0.01)
        assert np.abs(out.values - np.exp(0.005)).max() < 1e-10

    def test_axisymmetry_preserved(self):
        s = spheroid_surface(1.0, 0.7, SPEC32)
        for _ in range(5):
            s = step(s, SpeedFunction("H"), 5e-4)
        assert np.abs(s.values - s.values[:, :1]).max() < 1e-10

    def test_filter_choice_leaves_spheres_unchanged(self):
        # the filtered projection after the step changes a sphere only by
        # round-off: compare with the same RK4 combination left unprojected
        s = sphere_surface(1.0, SPEC32)
        speed, dt, grid = SpeedFunction("H"), 0.01, make_grid(SPEC32)

        def rhs(f):
            c = curvature(grid, f)
            return c.sqv / speed.rho(c.kappa)

        f0 = s.values
        k1 = rhs(f0)
        k2 = rhs(f0 + 0.5 * dt * k1)
        k3 = rhs(f0 + 0.5 * dt * k2)
        k4 = rhs(f0 + dt * k3)
        unprojected = f0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        a = step(s, speed, dt)
        assert np.abs(a.values - unprojected).max() < 1e-12


class TestSpellingsAreAliases:
    @pytest.mark.parametrize("group", ALIASES, ids=lambda g: g[0])
    def test_runs_are_identical(self, group):
        # one speed, one code path: every spelling gives the same run
        s = perturbed_sphere(SPEC32, amp=0.05)
        first, *others = [run(s, FlowConfig(SpeedFunction.parse(text), t_end=0.05))
                          for text in group]
        for trace in others:
            assert trace.t == first.t
            assert trace.W == first.W
            assert trace.Q1 == first.Q1
            assert np.array_equal(trace.snapshots[-1].values,
                                  first.snapshots[-1].values)


class TestRunOnSpheres:
    @pytest.mark.parametrize("speed", [SpeedFunction("H"),
                                       SpeedFunction("power:2")])
    def test_exponential_growth_and_fixed_point(self, speed):
        s = sphere_surface(1.0, SPEC32)
        trace = run(s, FlowConfig(speed, t_end=1.0))
        for t, snap in zip(trace.t, trace.snapshots):
            assert np.abs(snap.values - np.exp(t / speed.mu)).max() < 1e-8
        assert np.abs(np.array(trace.ubar_mean) - 1.0).max() < 1e-9

    def test_trace_constants(self):
        s = sphere_surface(1.0, SPEC32)
        trace = run(s, FlowConfig(SpeedFunction("H"), t_end=0.5))
        assert np.abs(np.array(trace.W) - 16 * np.pi).max() < 1e-8
        assert np.abs(np.array(trace.Q1) - 4 * np.sqrt(np.pi)).max() < 1e-9
        assert np.abs(np.array(trace.osc) - 1.0).max() < 1e-9
        for vals in trace.E_sup.values():
            assert max(vals) < 1e-10

    def test_step_halving_shows_fourth_order(self):
        # coarse grid so the time truncation stays above round-off
        s = sphere_surface(1.0, GridSpec(8, 16))
        errs = []
        for safety in (0.4, 0.2):
            trace = run(s, FlowConfig(SpeedFunction("H"), t_end=0.9,
                                      dt_safety=safety))
            final = trace.snapshots[-1].values
            errs.append(np.abs(final - np.exp(trace.t[-1] / 2.0)).max())
        assert errs[0] / max(errs[1], 1e-300) > 2.0 ** 3.5


@pytest.fixture(scope="module")
def trace():
    return run(perturbed_sphere(SPEC48),
               FlowConfig(SpeedFunction("H"), t_end=1.5))


class TestRunPerturbed:
    def test_monotone_energies(self, trace):
        W = np.array(trace.W)
        Q = np.array(trace.Q1)
        assert np.all(np.diff(W) < 0)
        assert np.all(np.diff(Q) <= 1e-8 * Q[:-1])

    def test_oscillation_contracts(self, trace):
        assert trace.osc[-1] - 1.0 < 0.05
        assert trace.osc[-1] < trace.osc[0]

    def test_positive_fitted_rates(self, trace):
        assert trace.beta > 0.5
        rep = asymptotics_check(trace)
        assert rep.flags_ok
        assert rep.e_decay_rate > 0.5
        assert all(rep.e_sup_decreased.values())

    def test_adversarial_noise_raises_flags(self, trace):
        import copy
        noisy = copy.deepcopy(trace)
        noisy.W[len(noisy.W) // 2] *= 1.01  # inject a bump
        rep = asymptotics_check(noisy)
        assert not rep.willmore_nonincreasing
        assert not rep.flags_ok


class TestOtherSpeeds:
    def test_gauss_root_flow_contracts_oscillation(self):
        # Gerhardt-Urbas asymptotics are speed-independent within the
        # admissible class; a convex perturbed sphere rounds out under
        # the sigma_2^(1/2) flow as well
        s = perturbed_sphere(SPEC32, amp=0.05)
        trace = run(s, FlowConfig(SpeedFunction("power:2"), t_end=1.0))
        assert trace.osc[-1] < trace.osc[0]
        assert trace.shape_dev[-1] < 0.2 * trace.shape_dev[0]
        assert trace.beta > 0.0
        for vals in trace.E_sup.values():
            assert vals[-1] < vals[0]

    def test_runs_are_deterministic(self):
        s = perturbed_sphere(SPEC32, amp=0.05)
        cfg = FlowConfig(SpeedFunction("H"), t_end=0.2)
        t1 = run(s, cfg)
        t2 = run(s, cfg)
        assert t1.t == t2.t
        assert t1.W == t2.W
        assert np.array_equal(t1.snapshots[-1].values, t2.snapshots[-1].values)


class TestClassCAudit:
    @pytest.mark.parametrize("speed", [SpeedFunction("H"),
                                       SpeedFunction("power:2"),
                                       SpeedFunction("quotient:2")])
    def test_admissible_speeds_pass(self, speed):
        rep = class_c_audit(speed, n_samples=10000, seed=7)
        assert rep["passed"], rep

    def test_norm_speed_fails_concavity_only(self):
        rep = class_c_audit(curvature_norm_speed(), n_samples=10000, seed=7)
        assert rep["positive"] and rep["symmetric"] and rep["homogeneous"]
        assert rep["monotone"]
        assert not rep["concave"]
        assert rep["max_hessian_eigenvalue"] > 1e-2


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            FlowConfig(SpeedFunction("H"), t_end=0.0)
        with pytest.raises(ValueError):
            FlowConfig(SpeedFunction("H"), t_end=1.0, dt_safety=0.7)

    @pytest.mark.parametrize("t_end", [float("nan"), float("inf")])
    def test_non_finite_t_end_rejected(self, t_end):
        with pytest.raises(ValueError):
            FlowConfig(SpeedFunction("H"), t_end=t_end)

    def test_stable_dt_scales_with_grid(self):
        s32 = sphere_surface(1.0, SPEC32)
        s48 = sphere_surface(1.0, SPEC48)
        imcf = SpeedFunction("H")
        r = stable_dt(s32, imcf, 0.2) / stable_dt(s48, imcf, 0.2)
        assert r == pytest.approx((48 / 32) ** 2, rel=1e-12)
