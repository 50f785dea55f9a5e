import numpy as np
import pytest

from icflab import flow
from icflab.errors import CurvatureConeError
from icflab.flow import (_DT_SPREAD, FlowTrace, SpeedFunction,
                         asymptotics_check, class_c_audit, normal_speed, run,
                         stable_dt, step)
from icflab.invariants import guan_li_q, willmore
from icflab.radial_graph import StarShapedHypersurface, geometry
from icflab.sphere_grid import Grid, GridSpec, ScalarField, make_grid
from icflab.surfaces import harmonic_surface, sphere_surface, spheroid_surface

import oracles
from conftest import HARMONIC_TERMS, SPEC16, SPEC32, SPEC48, SPEC64, nodes, scaled


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


def hk(kap):
    """(H, K) of principal curvatures on the last axis."""
    return kap.sum(-1), kap.prod(-1)


class TestSpeedFunctions:
    def test_round_point_values(self):
        assert SpeedFunction.parse("H").mu == 2.0
        assert SpeedFunction.parse("power:2").mu == 1.0
        assert SpeedFunction.parse("quotient:2").mu == 0.5
        assert SpeedFunction.parse("ratio:2,0").mu == 1.0

    def test_parse_round_trip(self):
        for text in ("H", "quotient:2", "power:2", "ratio:2,1"):
            assert SpeedFunction.parse(text).label == text
        # any other spelling is rejected with the list of accepted ones,
        # |A| too: oracles.curvature_norm_speed builds that control, no
        # text does
        for text in ("bogus:3", "power:3", "quotient:3", "ratio:3,1", "bogus",
                     "quotient:0", "ratio:1,2", "power:02", "quotient:+2", "|A|"):
            with pytest.raises(ValueError, match="quotient:2"):
                SpeedFunction.parse(text)

    def test_parse_ignores_blanks(self):
        assert SpeedFunction.parse(" ratio:2, 0 ").label == "ratio:2,0"
        assert SpeedFunction.parse("power : 2").label == "power:2"

    @pytest.mark.parametrize("group", ALIASES, ids=lambda g: g[0])
    def test_aliases_share_one_closed_form(self, group):
        first, *others = [SpeedFunction.parse(text) for text in group]
        for sp in others:
            assert sp.rho is first.rho
            assert sp.in_cone is first.in_cone
            assert sp.diffusivity is first.diffusivity

    def test_elementary_symmetric_normalization(self, sphere64):
        # sigma_k(1, 1) = C(2, k), on the unit sphere and in the oracle
        assert np.array_equal(oracles.elementary_symmetric(np.ones(2)),
                              [1.0, 2.0, 1.0])
        g = geometry(sphere64)
        assert np.abs(g.H - 2.0).max() < 1e-12 and np.abs(g.K - 1.0).max() < 1e-12

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
            assert np.array_equal(sp.in_cone(e[:, 1], e[:, 2]), cone), sp.label
            c = e[cone]
            if kind == "H":
                generic = c[:, 1]
            elif kind == "quotient":
                generic = c[:, i] / c[:, i - 1]
            elif kind == "power":
                generic = c[:, i] ** (1.0 / i)
            else:
                generic = (c[:, i] / c[:, j]) ** (1.0 / (i - j))
            assert np.array_equal(sp.rho(c[:, 1], c[:, 2]), generic), sp.label

    def test_homogeneity_symmetry_monotonicity(self, rng):
        # monotonicity is class_c_audit's `monotone` verdict (TestClassCAudit)
        kap = rng.uniform(0.2, 3.0, size=(200, 2))
        for sp in SPELLINGS:
            vals = sp.rho(*hk(kap))
            assert np.all(vals > 0)
            for c in (0.5, 3.0):
                assert np.abs(sp.rho(*hk(c * kap)) - c * vals).max() < 1e-12 * c * vals.max()
            assert np.abs(sp.rho(*hk(kap[:, ::-1])) - vals).max() < 1e-12 * vals.max()

    def test_gradient_matches_finite_differences(self, rng):
        # the closed-form diffusivity against sum_i d rho / d kappa_i
        kap = rng.uniform(0.3, 2.0, size=(50, 2))
        h = 1e-6
        for sp in SPELLINGS + [oracles.curvature_norm_speed()]:
            fd = sum((sp.rho(*hk(kap + h * e)) - sp.rho(*hk(kap - h * e))) / (2 * h)
                     for e in np.eye(2))
            assert np.abs(sp.diffusivity(*hk(kap)) - fd).max() < 1e-8


class TestNormalSpeed:
    def test_sphere_imcf(self):
        s = sphere_surface(2.0, SPEC32)
        ns = normal_speed(s, SpeedFunction.parse("H"))
        assert np.abs(ns.values - 1.0).max() < 1e-12  # R/n = 1

    def test_sphere_gauss_root(self):
        # rho = sigma_2^(1/2) = 1/R at a round point; speed = R
        s = sphere_surface(1.5, SPEC32)
        ns = normal_speed(s, SpeedFunction.parse("power:2"))
        assert np.abs(ns.values - 1.5).max() < 1e-12

    @pytest.mark.parametrize("entry", ["normal_speed", "normal_speed_geom", "step"])
    def test_cone_violation_reports_node(self, entry):
        s = perturbed_sphere(SPEC32, amp=0.3)  # saddle regions: sigma_2 < 0
        speed = SpeedFunction.parse("power:2")
        if entry == "normal_speed_geom":
            geometry(s)  # normal_speed then reads the cached bundle
        call = {"normal_speed": lambda: normal_speed(s, speed),
                "normal_speed_geom": lambda: normal_speed(s, speed),
                "step": lambda: step(s, speed, 1e-4)}[entry]
        with pytest.raises(CurvatureConeError) as err:
            call()
        # the curvatures reported at the node are the bundle's, and that
        # node is outside the cone of sqrt K: K < 0
        g = geometry(s)
        assert np.array_equal(err.value.kappa, g.kappa[err.value.node])
        assert g.K[err.value.node] < 0.0

    def test_cone_violation_node_is_plain_ints(self):
        # a saddle at 16x32: the node is stored and printed as (4, 0),
        # plain ints, not numpy scalars
        s = harmonic_surface(1.0, [(4, 0, 0.4)], SPEC16)
        with pytest.raises(CurvatureConeError) as err:
            run(s, SpeedFunction.parse("H"), 1.0)
        assert err.value.node == (4, 0)
        assert all(type(i) is int for i in err.value.node)
        assert "at node (4, 0) outside the cone of H" in str(err.value)


class TestStep:
    def test_sphere_single_step_matches_exponential(self):
        s = sphere_surface(1.0, SPEC32)
        out = step(s, SpeedFunction.parse("H"), 0.01)
        assert np.abs(out.values - np.exp(0.005)).max() < 1e-10

    def test_axisymmetry_preserved(self):
        s = spheroid_surface(1.0, 0.7, SPEC32)
        for _ in range(5):
            s = step(s, SpeedFunction.parse("H"), 5e-4)
        assert np.abs(s.values - s.values[:, :1]).max() < 1e-10

    def test_filter_choice_leaves_spheres_unchanged(self):
        # the damping rate acts above 0.9 l_max and D0 l(l+1) at l > 0,
        # while a sphere is one degree-0 coefficient: even a long step is
        # exact to round-off, for every radius and speed
        for speed in (SpeedFunction.parse("H"), SpeedFunction.parse("quotient:2"),
                      SpeedFunction.parse("power:2")):
            for r in (0.5, 1.0, 3.0):
                out = step(sphere_surface(r, SPEC32), speed, 0.5)
                exact = r * np.exp(0.5 / speed.mu)
                assert np.abs(out.values - exact).max() < 4e-15 * exact


class TestSpellingsAreAliases:
    @pytest.mark.parametrize("group", ALIASES, ids=lambda g: g[0])
    def test_runs_are_identical(self, group):
        # one speed, one code path: every spelling gives the same run
        s = perturbed_sphere(SPEC32, amp=0.05)
        first, *others = [run(s, SpeedFunction.parse(text), 0.05)
                          for text in group]
        for trace in others:
            assert trace.t == first.t
            assert trace.W == first.W
            assert trace.Q1 == first.Q1
            assert np.array_equal(trace.snapshots[-1].values,
                                  first.snapshots[-1].values)


@pytest.fixture(scope="module", params=["H", "quotient:2", "power:2"])
def covariance_runs(request):
    """Runs of one speed to t = 0.2 at 32x64 from the seeded harmonic
    surface S, from 2S and from S rolled by 5 nodes in phi."""
    s = harmonic_surface(1.0, HARMONIC_TERMS, SPEC32)
    rolled = StarShapedHypersurface(ScalarField(SPEC32, np.roll(s.values, 5, axis=1)))
    speed = SpeedFunction.parse(request.param)
    return {name: run(surface, speed, 0.2, keep_snapshots=False)
            for name, surface in [("S", s), ("2S", scaled(s, 2.0)), ("rolled", rolled)]}


class TestCovariance:
    """A speed 1/rho with rho of degree 1 in kappa makes the flow commute
    with dilations (the flow of 2S is 2 times the flow of S at the same
    times) and with rotations; a roll by whole nodes in phi is a rotation
    the grid keeps.  W and Q1 are invariant under both."""

    @staticmethod
    def assert_same_traces(trace, ref):
        for name in ("t", "W", "Q1"):
            a, b = np.array(getattr(trace, name)), np.array(getattr(ref, name))
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name

    def test_dilation(self, covariance_runs):
        self.assert_same_traces(covariance_runs["2S"], covariance_runs["S"])

    def test_rotation(self, covariance_runs):
        self.assert_same_traces(covariance_runs["rolled"], covariance_runs["S"])


class TestRunOnSpheres:
    @pytest.mark.parametrize("speed", [SpeedFunction.parse("H"),
                                       SpeedFunction.parse("power:2")])
    def test_exponential_growth_and_fixed_point(self, speed):
        s = sphere_surface(1.0, SPEC32)
        trace = run(s, speed, 1.0)
        for t, snap in zip(trace.t, trace.snapshots):
            assert np.abs(snap.values - np.exp(t / speed.mu)).max() < 1e-8
            assert not snap.values.flags.writeable
        assert np.abs(np.array(trace.ubar_mean) - 1.0).max() < 1e-9

    def test_trace_constants(self):
        s = sphere_surface(1.0, SPEC32)
        trace = run(s, SpeedFunction.parse("H"), 0.5)
        assert np.abs(np.array(trace.W) - 16 * np.pi).max() < 1e-8
        assert np.abs(np.array(trace.Q1) - 4 * np.sqrt(np.pi)).max() < 1e-9
        assert np.abs(np.array(trace.osc) - 1.0).max() < 1e-9
        assert max(trace.tracefree_sq_sup) < 1e-10 / 3

    def test_step_halving_shows_fourth_order(self):
        # the order of the explicit reference integrator in the oracles,
        # on a coarse grid so that its time truncation stays above
        # round-off (`step` is exact on spheres; TestConvergence reads
        # its order)
        s = sphere_surface(1.0, GridSpec(8, 16))
        errs = [np.abs(oracles.rk4_flow(s, SpeedFunction.parse("H"), 0.9, safety).values
                       - np.exp(0.9 / 2.0)).max() for safety in (0.4, 0.2)]
        assert errs[0] / max(errs[1], 1e-300) > 2.0 ** 3.5

    def test_trace_counts_steps_and_spaces_records(self):
        s = perturbed_sphere(SPEC32, amp=0.1)
        trace = run(s, SpeedFunction.parse("H"), 0.3)
        summary = trace.summary()
        assert type(summary["steps"]) is int and summary["steps"] == trace.steps
        # records at most 0.02 apart, and no more of them than steps
        assert np.diff(trace.t).max() <= 0.02 + 1e-14
        assert trace.steps + 1 >= len(trace.t) >= 0.3 / 0.02 + 1
        assert trace.t[-1] == pytest.approx(0.3, abs=1e-14)
        # a sphere takes the longest step, 0.02, every time
        sphere = run(sphere_surface(1.0, SPEC32), SpeedFunction.parse("H"), 0.3)
        assert sphere.steps == 15 and len(sphere.t) == 16

    @pytest.mark.parametrize("t_end", [1e-15, 1e-9])
    def test_every_positive_t_end_is_reached(self, t_end):
        # the loop's slack is relative to t_end, so a t_end below 1e-14
        # still takes its step and records it
        trace = run(sphere_surface(1.0, SPEC16), SpeedFunction.parse("H"), t_end)
        assert trace.t == [0.0, t_end] and trace.steps == 1

    def test_beta_is_fitted_only_above_the_round_off_floor(self):
        # the trailing shape_dev must rise above 100 eps n_theta^2, 5.7e-12
        # at 16x32: a 1e-12 mode stays at 1.4e-12 to 1.7e-12 there and
        # fits no rate, a 1e-11 mode fits its decay, 1.5
        floor = 100 * np.finfo(float).eps * SPEC16.n_theta ** 2
        low, high = (run(harmonic_surface(1.0, [(2, 1, amp)], SPEC16),
                         SpeedFunction.parse("H"), 0.3, keep_snapshots=False)
                     for amp in (1e-12, 1e-11))
        half = len(low.t) // 2
        assert max(low.shape_dev[half:]) < floor < min(high.shape_dev[half:])
        assert np.isnan(low.beta)
        assert high.beta == pytest.approx(1.5006, abs=1e-3)


class TestKernelEvaluations:
    def test_one_kernel_evaluation_per_recorded_state(self, monkeypatch):
        # stable_dt builds each state's bundle, which analyses log f once,
        # and the step and a record of that state read it, so a run
        # evaluates the kernel in 4 stages and the step bound per step, and
        # once more for the final record; the analyses are the bundle's
        # and the 4 stages'
        counts = {"chart_derivatives": 0, "analysis": 0}
        for name in counts:
            def counted(grid, *args, _method=getattr(Grid, name), _name=name):
                counts[_name] += 1
                return _method(grid, *args)
            monkeypatch.setattr(Grid, name, counted)
        trace = run(harmonic_surface(1.0, HARMONIC_TERMS, SPEC16),
                    SpeedFunction.parse("H"), 0.25)
        assert (trace.steps, len(trace.t)) == (13, 14)
        assert counts == {"chart_derivatives": 5 * 13 + 1,
                          "analysis": 5 * 13 + 1}


def steps_to(surface, speed, t_end, n):
    """The surface after n steps of length t_end / n."""
    for _ in range(n):
        surface = step(surface, speed, t_end / n)
    return surface


def assert_fourth_order(values):
    """Differences of successive values under halvings of the step shrink
    by at least 2^3.5 wherever the finer one is above 1e-12 relative, and
    at least one is."""
    x = np.array(values)
    d = np.abs(np.diff(x)) / np.abs(x[-1])
    read = [(coarse, fine) for coarse, fine in zip(d[:-1], d[1:]) if fine > 1e-12]
    assert read, d
    for coarse, fine in read:
        assert coarse / fine >= 2.0 ** 3.5, d


# fixed steps of 0.5 / n to t = 0.5: h from 1/24 to 1/96
HALVINGS = (12, 24, 48)


@pytest.fixture(scope="module")
def halvings():
    """IMCF from the acceptance surface to t = 0.5 at 32x64, 48x96 and
    64x128, each under HALVINGS: the surfaces by (n_theta, n)."""
    imcf = SpeedFunction.parse("H")
    return {(spec.n_theta, n): steps_to(perturbed_sphere(spec), imcf, 0.5, n)
            for spec in (SPEC32, SPEC48, SPEC64) for n in HALVINGS}


class TestConvergence:
    """Order in time and decay in space of `step`, and its agreement with
    the explicit reference integrator of the oracles."""

    @pytest.mark.parametrize("n_theta", [32, 48, 64])
    @pytest.mark.parametrize("monitor", [willmore, lambda s: guan_li_q(s, 1)],
                             ids=["W", "Q1"])
    def test_temporal_order(self, halvings, n_theta, monitor):
        assert_fourth_order([monitor(halvings[n_theta, n]) for n in HALVINGS])

    def test_spatial_decay(self, halvings):
        # the harmonic coefficients of log f fall to round-off within the
        # band of every grid, so W and Q1 agree across the grids
        finest = {n_theta: halvings[n_theta, HALVINGS[-1]]
                  for n_theta in (32, 48, 64)}
        for s in finest.values():
            grid = make_grid(s.spec)
            amp = np.abs(grid.analysis(np.log(s.values))).max(axis=(0, 2))
            assert amp[1:12].max() > 1e-3 * amp[0]
            assert amp[24:].max() < 1e-14 * amp[0]
        for monitor in (willmore, lambda s: guan_li_q(s, 1)):
            ref = monitor(finest[64])
            for n_theta in (32, 48):
                assert abs(monitor(finest[n_theta]) - ref) < 1e-12 * ref

    @pytest.mark.parametrize("label", ["H", "quotient:2", "power:2"])
    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "harmonic"])
    def test_matches_reference_integrator(self, kind, label):
        s = {"sphere": lambda: sphere_surface(1.0, SPEC32),
             "spheroid": lambda: spheroid_surface(1.0, 0.6, SPEC32),
             "harmonic": lambda: harmonic_surface(1.0, HARMONIC_TERMS, SPEC32)}[kind]()
        speed = SpeedFunction.parse(label)
        trace = run(s, speed, 0.5, keep_snapshots=False)
        ref = oracles.rk4_flow(s, speed, 0.5)
        for got, expected in ((trace.W[-1], willmore(ref)),
                              (trace.Q1[-1], guan_li_q(ref, 1))):
            assert abs(got - expected) <= 1e-8 * expected

    def test_damped_band_converges(self):
        # a mean-convex surface with degree-9 content, whose right-hand
        # side fills the damped top tenth of the band at 32x64: the
        # damping is a rate inside the exactly integrated part, so osc
        # converges at fourth order under halvings of the step, from the
        # step bound
        s = harmonic_surface(1.0, [(2, 2, 0.1), (9, 4, 0.01)], SPEC32)
        imcf = SpeedFunction.parse("H")
        grid = make_grid(s.spec)
        c = oracles.value_curvature(grid, s.values)
        assert c.H.min() > 0.0
        rhs = np.abs(grid.analysis(c.sqv / (s.values * c.H))).max(axis=(0, 2))
        assert rhs[grid.l_max - 2:].min() > 1e-5
        n = int(np.ceil(0.2 / stable_dt(s, imcf)))
        osc = [out.values.max() / out.values.min()
               for out in (steps_to(s, imcf, 0.2, k) for k in (n, 2 * n, 4 * n))]
        assert_fourth_order(osc)


@pytest.fixture(scope="module")
def trace():
    return run(perturbed_sphere(SPEC48), SpeedFunction.parse("H"), 1.5)


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
        assert rep["flags_ok"]
        assert rep["tracefree_sq_decay_rate"] > 0.5
        assert rep["tracefree_sq_decreased"]

    def test_tracefree_sq_record_is_bit_exact(self, trace):
        # each record is max |A0|^2 of its snapshot, the E(0) sup
        for m, snap in zip(trace.tracefree_sq_sup, trace.snapshots):
            s = StarShapedHypersurface(snap)
            assert m == float(geometry(s).tracefree_sq.max())
        rows = list(trace.csv_rows())
        assert [r[3] for r in rows] == trace.tracefree_sq_sup
        assert rows[-1] == (trace.t[-1], trace.W[-1], trace.Q1[-1],
                            trace.tracefree_sq_sup[-1], trace.osc[-1],
                            trace.ubar_mean[-1], trace.shape_dev[-1])

    def test_adversarial_noise_raises_flags(self, trace):
        import copy
        noisy = copy.deepcopy(trace)
        noisy.W[len(noisy.W) // 2] *= 1.01  # inject a bump
        rep = asymptotics_check(noisy)
        assert not rep["willmore_nonincreasing"]
        assert not rep["flags_ok"]


def test_osc_rising_after_mid_run_fails_the_tail_rule():
    # osc must be monotone from the middle record on: a rise into record 3
    # of 8 passes, a rise into the last record fails, and W, Q1 and
    # max |A0|^2 fall throughout, so the tail rule alone decides
    falling = [1.0 - 0.1 * i for i in range(8)]
    for rise, tail_ok in ((3, True), (7, False)):
        osc = [1.5 - 0.05 * i for i in range(8)]
        osc[rise] = osc[rise - 1] + 0.01
        trace = FlowTrace("H", 2.0, t=[0.02 * i for i in range(8)], W=falling,
                          Q1=falling, tracefree_sq_sup=falling, osc=osc)
        rep = asymptotics_check(trace)
        assert rep["osc_monotone_from"] == rise
        assert rep["willmore_nonincreasing"] and rep["q1_nonincreasing"]
        assert rep["tracefree_sq_decreased"]
        assert rep["osc_monotone_tail"] is tail_ok
        assert rep["flags_ok"] is tail_ok


class TestOtherSpeeds:
    def test_gauss_root_flow_contracts_oscillation(self):
        # Gerhardt-Urbas asymptotics are speed-independent within the
        # admissible class; a convex perturbed sphere rounds out under
        # the sigma_2^(1/2) flow as well
        s = perturbed_sphere(SPEC32, amp=0.05)
        trace = run(s, SpeedFunction.parse("power:2"), 1.0)
        assert trace.osc[-1] < trace.osc[0]
        assert trace.shape_dev[-1] < 0.2 * trace.shape_dev[0]
        assert trace.beta > 0.0
        assert trace.tracefree_sq_sup[-1] < trace.tracefree_sq_sup[0]

    def test_runs_are_deterministic(self):
        s = perturbed_sphere(SPEC32, amp=0.05)
        t1 = run(s, SpeedFunction.parse("H"), 0.2)
        t2 = run(s, SpeedFunction.parse("H"), 0.2)
        assert t1.t == t2.t
        assert t1.W == t2.W
        assert np.array_equal(t1.snapshots[-1].values, t2.snapshots[-1].values)


class TestClassCAudit:
    @pytest.mark.parametrize("speed", [SpeedFunction.parse("H"),
                                       SpeedFunction.parse("power:2"),
                                       SpeedFunction.parse("quotient:2")])
    def test_admissible_speeds_pass(self, speed):
        rep = class_c_audit(speed, seed=7)
        assert rep["passed"], rep

    def test_norm_speed_fails_concavity_only(self):
        rep = class_c_audit(oracles.curvature_norm_speed(), seed=7)
        assert rep["positive"] and rep["symmetric"] and rep["homogeneous"]
        assert rep["monotone"]
        assert not rep["concave"]
        assert rep["max_hessian_eigenvalue"] > 1e-2

    def test_small_convex_part_fails_concavity(self):
        # H + 1e-5 (kappa_1 - kappa_2)^2 / H: a Hessian eigenvalue of order
        # 1e-5 at unit scale, far above round-off and the 1e-8 tolerance;
        # the audit reads no diffusivity
        probe = SpeedFunction("probe", lambda H, K: H + 1e-5 * (H * H - 4 * K) / H,
                              lambda H, K: (H > 0.0) & (K > 0.0),
                              lambda H, K: np.full(np.shape(H), 2.0))
        rep = class_c_audit(probe, seed=7)
        assert rep["monotone"] and rep["homogeneous"]
        assert not rep["concave"] and not rep["passed"]


class TestConfigValidation:
    @staticmethod
    def assert_rejected_before_any_step(t_end, monkeypatch):
        def no_step(*args):
            raise AssertionError("stepped")
        monkeypatch.setattr(flow, "stable_dt", no_step)
        monkeypatch.setattr(flow, "step", no_step)
        with pytest.raises(ValueError, match="t_end"):
            run(sphere_surface(1.0, SPEC16), SpeedFunction.parse("H"), t_end)

    def test_bad_values_rejected(self, monkeypatch):
        for t_end in (0.0, -1.0):
            self.assert_rejected_before_any_step(t_end, monkeypatch)

    @pytest.mark.parametrize("t_end", [float("nan"), float("inf")])
    def test_non_finite_t_end_rejected(self, t_end, monkeypatch):
        self.assert_rejected_before_any_step(t_end, monkeypatch)

    def test_stable_dt_bounds_the_explicit_remainder(self):
        # 0.02 where D = diffusivity / (rho^2 f^2) is constant, as on
        # spheres, on every grid; else _DT_SPREAD / (D_max - D_min)
        assert _DT_SPREAD == 0.2 * 0.05
        imcf = SpeedFunction.parse("H")
        for spec in (SPEC32, SPEC48):
            assert stable_dt(sphere_surface(1.0, spec), imcf) == 0.02
        s = perturbed_sphere(SPEC32, amp=0.1)
        H = geometry(s).H
        D = 2.0 / (H * s.values) ** 2
        expected = _DT_SPREAD / (D.max() - D.min())
        assert expected < 0.02
        assert stable_dt(s, imcf) == pytest.approx(expected, rel=1e-12)
