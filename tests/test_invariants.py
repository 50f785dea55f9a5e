import numpy as np
import pytest
from numpy.testing import assert_allclose

from icflab.cli import main
from icflab.conformal import ConformalKillingField, pushforward_surface
from icflab.errors import MeanConvexityError
from icflab.flow import SpeedFunction, normal_speed, step
from icflab.invariants import (_HM_BLOCK, DEFAULT_A_VALUES, e_tensor,
                               energy_report, guan_li_q,
                               hsiung_minkowski_residual, qbar, qk_rate,
                               willmore, willmore_rate)
from icflab.radial_graph import StarShapedHypersurface, geometry, invert, sigma_integral
from icflab.serialize import save_surface
from icflab.sphere_grid import Grid, GridSpec, ScalarField, make_grid
from icflab.surfaces import harmonic_surface, sphere_surface, spheroid_surface

import oracles
from conftest import HARMONIC_TERMS, SPEC32, SPEC48, SPEC64, nodes, scaled


def dilation_field(mu=1.0):
    return ConformalKillingField([0, 0, 0], [0, 0, 0], mu, [0, 0, 0])


def generic_ckf():
    return ConformalKillingField([0.1, 0.0, 0.2], [0.0, 0.0, 0.0], 0.05,
                                 [0.0, 0.1, 0.3])


@pytest.fixture(scope="module")
def asym48():
    # asymmetric star-shaped surface: transport rates are generically
    # nonzero here (spheroids at the origin are reflection-symmetric and
    # have vanishing rate for every conformal field)
    return harmonic_surface(1.0, [(2, 2, 0.12), (3, 1, 0.07), (1, 0, 0.1)], SPEC48)


# the audit's a, the boundary a = -1/2, where E(a) vanishes identically,
# and a = -0.3, where 4a+1 < 0 but E(a) = -0.4 |A0|^2 g still vanishes
# only at umbilics
E_A_VALUES = DEFAULT_A_VALUES + (-0.5, -0.3)


def e_of(surface, a):
    """E(a) = (2a+1) E(0) in n = 2, from `e_tensor`'s E(0)."""
    return tuple((2 * a + 1) * c for c in e_tensor(surface))


class TestETensor:
    def test_returns_the_chart_components_of_e0(self, spheroid64):
        # one tensor, (E00, E01, E11) in the layout of the metric
        g = geometry(spheroid64)
        E = e_tensor(spheroid64)
        assert type(E) is tuple and len(E) == 3
        for c, m in zip(E, g.metric):
            assert np.array_equal(c, -g.tracefree_sq * m)

    def test_sphere_vanishes_for_all_a(self, sphere64):
        for a in E_A_VALUES:
            assert max(np.abs(c).max() for c in e_of(sphere64, a)) < 1e-10

    def test_hand_eigenvalues_at_kappa_2_0(self):
        # kappa=(2,0), n=2, a=0: both metric eigenvalues equal -2, through
        # the general-n square form, direct substitution and the n = 2
        # closed form -(2a+1)|A0|^2 with |A0|^2 = H^2/2 - 2K = 2
        kap = np.array([2.0, 0.0])
        H, absA2 = 2.0, 4.0
        eig = oracles.e_eigenvalues(kap, 0.0)
        assert_allclose(eig, [-2.0, -2.0], rtol=0, atol=1e-14)
        direct = H * kap + 0.0 * H**2 - 1.0 * kap**2 - 0.5 * absA2
        assert_allclose(direct, eig, rtol=0, atol=1e-14)
        for a in (-0.5, -0.3, 0.0, 1.0):
            assert_allclose(oracles.e_eigenvalues(kap, a),
                            [-(2 * a + 1) * 2.0] * 2, rtol=0, atol=1e-14)

    def test_eigenvalue_routes_agree_on_spheroid(self, spheroid64):
        # the closed form against the general-n eigenvalues at the bundle's
        # principal curvatures: the sup |2a+1| max |A0|^2, and the spectrum
        # of g^-1 E; at a = -1/2 round-off is measured against E(0)
        g = geometry(spheroid64)
        g_inv = np.linalg.inv(oracles.stack_sym2(*g.metric))
        for a in E_A_VALUES:
            eig = oracles.e_eigenvalues(g.kappa, a)
            scale = np.abs(eig if 2 * a + 1 else oracles.e_eigenvalues(g.kappa, 0.0)).max()
            sup = abs(2 * a + 1) * g.tracefree_sq.max()
            assert sup == pytest.approx(np.abs(eig).max(), rel=1e-12, abs=1e-12 * scale)
            mixed = np.linalg.eigvals(g_inv @ oracles.stack_sym2(*e_of(spheroid64, a)))
            assert np.abs(mixed.imag).max() < 1e-12 * scale
            assert np.abs(np.sort(mixed.real, axis=-1) - eig).max() < 1e-12 * scale

    def test_components_match_stacked_matrix_oracle(self, spheroid64, harmonic64):
        for s in (spheroid64, harmonic64):
            g = geometry(s)
            h = oracles.second_form(oracles.value_curvature(make_grid(s.spec), s.values),
                                    s.values)
            for a in E_A_VALUES:
                E = oracles.stack_sym2(*e_of(s, a))
                expected = oracles.e_tensor_stacked(g.metric, h, a)
                scale = np.abs(expected if 2 * a + 1 else
                               oracles.e_tensor_stacked(g.metric, h, 0.0)).max()
                assert np.abs(E - expected).max() < 1e-12 * scale

    @pytest.mark.parametrize("a", [-0.25, 0.0, 1.0])
    def test_conformal_invariance_under_inversion(self, a, spheroid64,
                                                  harmonic64):
        for s in (spheroid64, harmonic64):
            E0, E1 = e_of(s, a), e_of(invert(s), a)
            assert max(np.abs(c1 - c0).max() for c0, c1 in zip(E0, E1)) < 1e-6


class TestWillmore:
    def test_sphere_value(self, sphere64):
        assert abs(willmore(sphere64) - 16 * np.pi) < 1e-10

    def test_spheroid_against_oracle(self, spheroid64):
        w = willmore(spheroid64)
        assert abs(w - oracles.SPHEROID_WILLMORE) < 1e-9

    def test_scale_invariance(self, spheroid64):
        w0 = willmore(spheroid64)
        for c in (0.5, 2.0, 10.0):
            assert abs(willmore(scaled(spheroid64, c)) - w0) < 1e-10 * w0

    def test_mean_convexity_error(self):
        T, P = nodes(SPEC32)
        s = StarShapedHypersurface(
            ScalarField(SPEC32, 1.0 + 0.3 * np.sin(T) ** 2 * np.cos(2 * P)))
        with pytest.raises(MeanConvexityError):
            willmore(s)

    @pytest.mark.parametrize("functional", [
        willmore, lambda s: willmore_rate(s, ScalarField(s.spec, np.ones(s.spec.shape)))],
        ids=["willmore", "willmore_rate"])
    def test_mean_convexity_error_names_the_node_of_least_H(self, functional):
        # the axisymmetric saddle of the CLI's cone test: least H on row 4
        s = harmonic_surface(1.0, [(4, 0, 0.4)], GridSpec(16, 32))
        H = geometry(s).H
        with pytest.raises(MeanConvexityError) as exc:
            functional(s)
        assert str(exc.value) == f"H = {H.min():g} at node (4, 0); not mean-convex"
        assert H[4, 0] == H.min() < 0.0


class TestWillmoreRate:
    def test_sphere_rate_vanishes(self, sphere64):
        speed = normal_speed(sphere64, SpeedFunction.parse("H"))
        assert abs(willmore_rate(sphere64, speed)) < 1e-8

    def test_zero_speed(self, spheroid64):
        zero = ScalarField(SPEC64, np.zeros(SPEC64.shape))
        assert willmore_rate(spheroid64, zero) == 0.0

    def test_matches_stacked_metric_oracle(self, spheroid64, harmonic64):
        grid = make_grid(SPEC64)
        for s in (spheroid64, harmonic64):
            g = geometry(s)
            speed = normal_speed(s, SpeedFunction.parse("H"))
            expected = oracles.willmore_rate_stacked(g, grid, speed.values)
            assert willmore_rate(s, speed) == pytest.approx(expected, rel=1e-12)

    def test_perturbed_sphere_negative_and_matches_flow_differences(self):
        imcf = SpeedFunction.parse("H")
        T, P = nodes(SPEC48)
        s0 = StarShapedHypersurface(
            ScalarField(SPEC48, 1.0 + 0.05 * np.sin(T) ** 2 * np.cos(2 * P)))
        h = 1e-3
        s1 = step(s0, imcf, h)
        s2 = step(s1, imcf, h)
        rate = willmore_rate(s1, normal_speed(s1, imcf))
        fd = (willmore(s2) - willmore(s0)) / (2 * h)
        assert rate < 0.0
        assert abs(rate - fd) / abs(fd) < 1e-3


class TestGuanLiQuotient:
    def test_sphere_value(self, sphere64):
        # by hand: int sigma_1 = 8 pi R, area = 4 pi R^2, Q1 = 4 sqrt(pi)
        q = guan_li_q(sphere64, 1)
        assert abs(q - 4.0 * np.sqrt(np.pi)) < 1e-9

    def test_scale_invariance(self, spheroid64):
        q0 = guan_li_q(spheroid64, 1)
        for c in (0.5, 2.0, 10.0):
            assert abs(guan_li_q(scaled(spheroid64, c), 1) - q0) < 1e-10 * q0

    def test_spheroid_exceeds_sphere(self, spheroid64):
        q = guan_li_q(spheroid64, 1)
        assert abs(q - oracles.SPHEROID_Q1) < 1e-10
        assert q > 4.0 * np.sqrt(np.pi)


class TestHsiungMinkowski:
    def test_sphere_position_field_hand_values(self, sphere64):
        # V = X, k = 0: both integrals equal the area
        g = geometry(sphere64)
        V = dilation_field(1.0)
        alpha = V.conformal_factor(g.position)
        vn = np.einsum("...c,...c->...", oracles.quadratic_form(V, g.position)[0],
                       g.normal)
        lhs = g.integrate(alpha)
        rhs = g.integrate(vn * g.H / 2.0)
        assert abs(lhs - 4 * np.pi) < 1e-10
        assert abs(rhs - 4 * np.pi) < 1e-10
        # the residual is relative to the L1 size lhs + rhs of its integrands
        assert abs(hsiung_minkowski_residual(sphere64, [V])[0, 0]) < 1e-10 / (lhs + rhs)

    def test_rotation_fields_trivial(self, spheroid64):
        V = ConformalKillingField([0, 0, 0], [0.7, -0.2, 0.4], 0.0, [0, 0, 0])
        assert np.abs(hsiung_minkowski_residual(spheroid64, [V])).max() < 1e-8

    @pytest.mark.parametrize("k", [0, 1])
    def test_generic_fields_on_test_surfaces(self, k, spheroid64, harmonic64, rng):
        for s in (spheroid64, harmonic64):
            for _ in range(5):
                V = ConformalKillingField(rng.normal(0, 0.3, 3),
                                          rng.normal(0, 0.3, 3),
                                          rng.normal(0, 0.3),
                                          rng.normal(0, 0.2, 3))
                rel = hsiung_minkowski_residual(s, [V])[k, 0]
                assert abs(rel) < 1e-6

    def test_non_conformal_negative_control(self, spheroid64):
        # symmetric trace-free part with an axial imbalance; the identity
        # fails decisively for non-conformal linear fields
        M = np.array([[0.3, 0.4, 0.0], [0.4, -0.1, 0.2], [0.0, 0.2, 0.5]])
        bad = oracles.AffineField(np.zeros(3), M)
        assert np.abs(hsiung_minkowski_residual(spheroid64, [bad])).min() > 1e-3

    def test_residual_decreases_under_refinement(self):
        # rough surface so truncation still dominates at the coarse grid
        terms = [(5, 3, 0.25), (4, -2, 0.2)]
        V = generic_ckf()
        rels = []
        for spec in (GridSpec(12, 24), GridSpec(24, 48)):
            s = harmonic_surface(1.0, terms, spec)
            rels.append(abs(hsiung_minkowski_residual(s, [V])[0, 0]))
        assert rels[1] < rels[0] / 4.0 or rels[1] < 1e-12

    @pytest.mark.parametrize("k", [0, 1])
    def test_matches_pointwise_oracle(self, k, sphere64, spheroid64, harmonic64):
        # 20 conformal fields, the non-conformal control and a general
        # affine field (a skew part and a translation, so the relative
        # scale sees M's orientation), all in one call
        rng = np.random.default_rng(7)
        fields = [ConformalKillingField(rng.normal(0, 0.3, 3),
                                        rng.normal(0, 0.3, 3),
                                        rng.normal(0, 0.3),
                                        rng.normal(0, 0.2, 3))
                  for _ in range(20)]
        control = np.array([[0.3, 0.4, 0.0], [0.4, -0.1, 0.2], [0.0, 0.2, 0.5]])
        skew = np.array([[0.0, -0.3, 0.1], [0.3, 0.0, -0.2], [-0.1, 0.2, 0.0]])
        fields += [oracles.AffineField(np.zeros(3), control),
                   oracles.AffineField([0.1, -0.2, 0.05], control + skew)]
        for s in (sphere64, spheroid64, harmonic64):
            got = hsiung_minkowski_residual(s, fields)
            want = [oracles.hsiung_minkowski_residual_pointwise(geometry(s), V, k)
                    for V in fields]
            assert got.shape == (2, len(fields))
            assert np.abs(got[k] - want).max() < 1e-15

    @pytest.mark.parametrize("n_fields", [0, 1, 41])
    @pytest.mark.parametrize("spec", [GridSpec(15, 32), GridSpec(25, 32), SPEC48],
                             ids=["15x32", "25x32", "48x96"])
    def test_block_boundary_matches_oracle(self, spec, n_fields):
        # 480, 800 and 4608 nodes: the pass ends inside a block, the first
        # two within their first block.  The pairwise-summed moments stay
        # near 2e-16 of the oracle under every OpenBLAS kernel tried;
        # moments from matrix products reach 1e-15 to 2.2e-15 here.  No
        # fields give no residuals, shape (2, 0)
        assert spec.n_theta * spec.n_phi % _HM_BLOCK != 0
        rng = np.random.default_rng(n_fields)
        fields = [ConformalKillingField(rng.normal(0, 0.3, 3), rng.normal(0, 0.3, 3),
                                        rng.normal(0, 0.3), rng.normal(0, 0.2, 3))
                  for _ in range(n_fields)]
        for s in (sphere_surface(1.0, spec), spheroid_surface(1.0, 0.6, spec),
                  harmonic_surface(1.0, HARMONIC_TERMS, spec)):
            got = hsiung_minkowski_residual(s, fields)
            want = [[oracles.hsiung_minkowski_residual_pointwise(geometry(s), V, k)
                     for V in fields] for k in (0, 1)]
            assert got.shape == (2, n_fields)
            assert np.all(np.abs(got - want) < 5e-16)


class TestQkRate:
    def test_constant_divergence_fields_are_stationary(self, spheroid64, asym48):
        V = ConformalKillingField([0.2, -0.1, 0.3], [0.5, 0.2, -0.1], 0.4,
                                  [0, 0, 0])
        assert abs(qk_rate(spheroid64, V, 1)) < 1e-8
        assert abs(qk_rate(asym48, V, 1)) < 1e-8

    def test_spheres_are_stationary_for_every_field(self, sphere64):
        # sigma_k are constant on spheres, so both weighted averages agree
        # (round spheres stay round under conformal transport)
        assert abs(qk_rate(sphere64, generic_ckf(), 1)) < 1e-8
        st = StarShapedHypersurface(ScalarField(
            SPEC32, oracles.translated_sphere_graph(1.0, [0, 0, 0.3],
                                                    make_grid(SPEC32))))
        assert abs(qk_rate(st, generic_ckf(), 1)) < 1e-8

    def test_reflection_symmetric_spheroid_is_stationary(self, spheroid64):
        # center-of-mass condition via reflection symmetry at the origin:
        # the two weighted averages of div V agree to 1e-10
        q = guan_li_q(spheroid64, 1)
        assert abs(qk_rate(spheroid64, generic_ckf(), 1)) < 1e-10 * q / 3.0

    def test_rate_matches_finite_difference_transport(self, asym48):
        V = generic_ckf()
        rate = qk_rate(asym48, V, 1)
        h = 1e-3
        qp = guan_li_q(pushforward_surface(V, h, asym48), 1)
        qm = guan_li_q(pushforward_surface(V, -h, asym48), 1)
        fd = (qp - qm) / (2 * h)
        assert abs(rate) > 1e-5  # genuinely nonzero here
        assert abs(rate - fd) / max(abs(rate), abs(fd)) < 1e-3

    def test_algebraic_identity_with_condition_residual(self, asym48):
        # dQ_1/dt = -(Q_1/3) (avg div V - avg_H div V), the area- and
        # H-weighted averages, with div V = 3 (mu + 2<b, X>) from the
        # field's parameters
        V = generic_ckf()
        g = geometry(asym48)
        div = 3.0 * oracles.ckf_parameter_form(V, g.position)[1]
        residual = (g.integrate(div) / g.integrate(np.ones_like(div))
                    - g.integrate(g.H * div) / g.integrate(g.H))
        rhs = -guan_li_q(asym48, 1) / 3.0 * residual
        assert qk_rate(asym48, V, 1) == pytest.approx(rhs, rel=1e-12)


class TestQbar:
    def test_sphere_equality(self, sphere64):
        value, lower, upper = qbar(sphere64)
        target = 8.0 * np.sqrt(np.pi)  # 2 n |S^n|^(1/n) for n = 2
        assert abs(value - target) < 1e-9
        assert abs(lower - target) < 1e-9
        assert abs(upper - target) < 1e-9

    def test_inversion_invariance(self, spheroid64):
        v0, _, _ = qbar(spheroid64)
        v1, _, _ = qbar(invert(spheroid64))
        assert abs(v0 - v1) < 1e-9 * (1 + abs(v0))

    def test_spheroid_strict_margins(self, spheroid64):
        value, lower, upper = qbar(spheroid64)
        assert value - lower > 1e-2
        assert upper - value > 1e-2

    @pytest.mark.parametrize("spec", [GridSpec(15, 32), GridSpec(16, 32),
                                      GridSpec(25, 32), SPEC64],
                             ids=lambda spec: f"{spec.n_theta}x{spec.n_phi}")
    @pytest.mark.parametrize("make", [
        lambda spec: sphere_surface(1.0, spec),
        lambda spec: spheroid_surface(1.0, 0.6, spec),
        lambda spec: harmonic_surface(1.0, HARMONIC_TERMS, spec)],
        ids=["sphere", "spheroid", "harmonic"])
    def test_matches_a_second_bundle_of_the_inverse(self, make, spec):
        # the inverse read off the surface's bundle through the inversion
        # relation, against the inverse's own spectral geometry
        got = qbar(make(spec))
        want = oracles.qbar_two_bundles(make(spec))
        for x, y in zip(got, want):
            assert abs(x - y) <= 1e-14 * abs(y)


class TestQbarEvaluations:
    """`qbar` reads S~ off the bundle of S: one analysis of log f and one
    chart_derivatives call per surface, from a function call or the CLI."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        counts = {"chart_derivatives": 0, "analysis": 0}
        for name in counts:
            def counted(grid, *args, _method=getattr(Grid, name), _name=name):
                counts[_name] += 1
                return _method(grid, *args)
            monkeypatch.setattr(Grid, name, counted)
        return counts

    def test_qbar(self, counts):
        qbar(harmonic_surface(1.0, HARMONIC_TERMS, GridSpec(16, 32)))
        assert counts == {"chart_derivatives": 1, "analysis": 1}

    def test_inequality_command(self, counts, tmp_path):
        path = str(tmp_path / "surface.json")
        save_surface(path, harmonic_surface(1.0, HARMONIC_TERMS, GridSpec(16, 32)))
        assert main(["inequality", path, "--out", str(tmp_path / "q")]) == 0
        assert counts == {"chart_derivatives": 1, "analysis": 1}


class TestSymmetryInvariance:
    def test_willmore_is_conformally_invariant_under_inversion(
            self, spheroid64, harmonic64):
        # the strongest cross-check of the inverted geometry: the Willmore
        # energy of a closed surface is a conformal invariant
        for s in (spheroid64, harmonic64):
            si = invert(s)
            assert geometry(si).H.min() > 0.0  # inverted surfaces stay mean-convex here
            w0 = willmore(s)
            w1 = willmore(si)
            assert abs(w1 - w0) < 1e-10 * w0

    def test_rotation_resampling_preserves_W_and_Q(self, harmonic64):
        # f(theta, phi - psi) by exact spectral resampling
        psi = 0.9
        F = np.fft.rfft(harmonic64.values, axis=1)
        m = np.arange(F.shape[1])
        vals = np.fft.irfft(F * np.exp(-1j * m * psi), SPEC64.n_phi, axis=1)
        rotated = StarShapedHypersurface(ScalarField(SPEC64, vals))
        w0, q0 = willmore(harmonic64), guan_li_q(harmonic64, 1)
        assert abs(willmore(rotated) - w0) < 1e-9 * w0
        assert abs(guan_li_q(rotated, 1) - q0) < 1e-9 * q0


class TestEnergyReport:
    def test_sphere_report(self, sphere64):
        rep = energy_report(sphere64)
        assert abs(rep["W"] - 16 * np.pi) < 1e-10
        assert abs(rep["Q"]["1"] - 4 * np.sqrt(np.pi)) < 1e-9
        assert abs(rep["sigma_integrals"][0] - 4 * np.pi) < 1e-10
        assert rep["tracefree_sq_sup"] < 1e-10 / 3
        assert list(rep) == ["W", "Q", "tracefree_sq_sup", "sigma_integrals"]


# every k outside the n = 2 range of each curvature-integral function,
# with the arguments that come between the surface and k
OUT_OF_RANGE_K = [
    (sigma_integral, (), -1), (sigma_integral, (), 3),
    (guan_li_q, (), 0), (guan_li_q, (), 2),
    (qk_rate, (dilation_field(),), 2),
]


@pytest.mark.parametrize("fn, args, k", OUT_OF_RANGE_K,
                         ids=[f"{fn.__name__}-{k}" for fn, _, k in OUT_OF_RANGE_K])
def test_k_outside_the_n2_range_is_rejected(fn, args, k, sphere64):
    with pytest.raises(ValueError, match="k must"):
        fn(sphere64, *args, k)
