import numpy as np
import pytest
from numpy.testing import assert_allclose

from icflab.conformal import AffineField, ConformalKillingField, pushforward_surface
from icflab.errors import MeanConvexityError
from icflab.flow import SpeedFunction, normal_speed, step
from icflab.invariants import (center_of_mass, condition_v_residual,
                               DEFAULT_A_VALUES, e_eigenvalues, e_tensor,
                               energy_report, guan_li_q,
                               hsiung_minkowski_residual, qbar, qk_rate,
                               willmore, willmore_rate)
from icflab.radial_graph import StarShapedHypersurface, geometry, invert
from icflab.sphere_grid import GridSpec, ScalarField, make_grid
from icflab.surfaces import harmonic_surface, sphere_surface, spheroid_surface

import oracles
from conftest import HARMONIC_TERMS, SPEC32, SPEC48, SPEC64, nodes


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


class TestETensor:
    def test_sphere_vanishes_for_all_a(self, sphere64):
        for a in DEFAULT_A_VALUES:
            _, sup = e_tensor(sphere64, a)
            assert sup < 1e-10

    def test_hand_eigenvalues_at_kappa_2_0(self):
        # kappa=(2,0), n=2, a=0: both metric eigenvalues equal -2, through
        # both closed forms (direct substitution and the square form)
        kap = np.array([2.0, 0.0])
        H = np.array(2.0)
        absA2 = 4.0
        tf = absA2 - H**2 / 2
        eig = e_eigenvalues(kap, H, tf, 0.0)
        assert_allclose(eig, [-2.0, -2.0], rtol=0, atol=1e-14)
        direct = H * kap + 0.0 * H**2 - 1.0 * kap**2 - 0.5 * absA2
        assert_allclose(direct, eig, rtol=0, atol=1e-14)

    def test_eigenvalue_routes_agree_on_spheroid(self, spheroid64):
        # tensor-route spectral invariants vs closed-form eigenvalues
        g = geometry(spheroid64)
        for a in DEFAULT_A_VALUES:
            tensor, sup = e_tensor(spheroid64, a)  # raises if routes split
            eig = e_eigenvalues(g.kappa, g.H, g.tracefree_sq, a)
            assert sup == pytest.approx(np.abs(eig).max(), rel=1e-12)

    def test_components_match_stacked_matrix_oracle(self, spheroid64, harmonic64):
        for s in (spheroid64, harmonic64):
            g = geometry(s)
            for a in DEFAULT_A_VALUES:
                E = oracles.stack_sym2(*e_tensor(s, a)[0])
                expected = oracles.e_tensor_stacked(g, a)
                assert np.abs(E - expected).max() < 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("a", [-0.25, 0.0, 1.0])
    def test_conformal_invariance_under_inversion(self, a, spheroid64,
                                                  harmonic64):
        for s in (spheroid64, harmonic64):
            E0, _ = e_tensor(s, a)
            E1, _ = e_tensor(invert(s), a)
            assert max(np.abs(c1 - c0).max() for c0, c1 in zip(E0, E1)) < 1e-6

    def test_boundary_case_warns(self, sphere64):
        with pytest.warns(UserWarning):
            e_tensor(sphere64, -0.3)


class TestWillmore:
    def test_sphere_value(self, sphere64):
        assert abs(willmore(sphere64) - 16 * np.pi) < 1e-10

    def test_spheroid_against_oracle(self, spheroid64):
        w = willmore(spheroid64)
        assert abs(w - oracles.SPHEROID_WILLMORE) < 1e-9

    def test_scale_invariance(self, spheroid64):
        w0 = willmore(spheroid64)
        for c in (0.5, 2.0, 10.0):
            assert abs(willmore(spheroid64.scaled(c)) - w0) < 1e-10 * w0

    def test_mean_convexity_error(self):
        T, P = nodes(SPEC32)
        s = StarShapedHypersurface(
            ScalarField(SPEC32, 1.0 + 0.3 * np.sin(T) ** 2 * np.cos(2 * P)))
        with pytest.raises(MeanConvexityError):
            willmore(s)


class TestWillmoreRate:
    def test_sphere_rate_vanishes(self, sphere64):
        speed = normal_speed(sphere64, SpeedFunction("H"))
        assert abs(willmore_rate(sphere64, speed)) < 1e-8

    def test_zero_speed(self, spheroid64):
        zero = ScalarField(SPEC64, np.zeros(SPEC64.shape))
        assert willmore_rate(spheroid64, zero) == 0.0

    def test_matches_stacked_metric_oracle(self, spheroid64, harmonic64):
        grid = make_grid(SPEC64)
        for s in (spheroid64, harmonic64):
            g = geometry(s)
            speed = normal_speed(s, SpeedFunction("H"))
            expected = oracles.willmore_rate_stacked(g, grid, speed.values)
            assert willmore_rate(s, speed) == pytest.approx(expected, rel=1e-12)

    def test_perturbed_sphere_negative_and_matches_flow_differences(self):
        imcf = SpeedFunction("H")
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
            assert abs(guan_li_q(spheroid64.scaled(c), 1) - q0) < 1e-10 * q0

    def test_spheroid_exceeds_sphere(self, spheroid64):
        q = guan_li_q(spheroid64, 1)
        assert abs(q - oracles.SPHEROID_Q1) < 1e-10
        assert q > 4.0 * np.sqrt(np.pi)

    def test_k_equal_n_excluded(self, sphere64):
        with pytest.raises(ValueError):
            guan_li_q(sphere64, 2)


class TestHsiungMinkowski:
    def test_sphere_position_field_hand_values(self, sphere64):
        # V = X, k = 0: both integrals equal the area
        g = geometry(sphere64)
        V = dilation_field(1.0)
        alpha = V.conformal_factor(g.position)
        vn = np.einsum("...c,...c->...", V.evaluate(g.position), g.normal)
        lhs = g.integrate(alpha * g.sigma_k[..., 0])
        rhs = g.integrate(vn * g.sigma_k[..., 1] / 2.0)
        assert abs(lhs - 4 * np.pi) < 1e-10
        assert abs(rhs - 4 * np.pi) < 1e-10
        assert abs(hsiung_minkowski_residual(sphere64, V, 0)) < 1e-10

    def test_rotation_fields_trivial(self, spheroid64):
        V = ConformalKillingField([0, 0, 0], [0.7, -0.2, 0.4], 0.0, [0, 0, 0])
        for k in (0, 1):
            assert abs(hsiung_minkowski_residual(spheroid64, V, k,
                                                 relative=True)) < 1e-8

    @pytest.mark.parametrize("k", [0, 1])
    def test_generic_fields_on_test_surfaces(self, k, spheroid64, harmonic64, rng):
        for s in (spheroid64, harmonic64):
            for _ in range(5):
                V = ConformalKillingField(rng.normal(0, 0.3, 3),
                                          rng.normal(0, 0.3, 3),
                                          rng.normal(0, 0.3),
                                          rng.normal(0, 0.2, 3))
                rel = hsiung_minkowski_residual(s, V, k, relative=True)
                assert abs(rel) < 1e-6

    def test_non_conformal_negative_control(self, spheroid64):
        # symmetric trace-free part with an axial imbalance; the identity
        # fails decisively for non-conformal linear fields
        M = np.array([[0.3, 0.4, 0.0], [0.4, -0.1, 0.2], [0.0, 0.2, 0.5]])
        bad = AffineField(np.zeros(3), M)
        for k in (0, 1):
            rel = hsiung_minkowski_residual(spheroid64, bad, k, relative=True)
            assert abs(rel) > 1e-3

    def test_residual_decreases_under_refinement(self):
        # rough surface so truncation still dominates at the coarse grid
        terms = [(5, 3, 0.25), (4, -2, 0.2)]
        V = generic_ckf()
        rels = []
        for spec in (GridSpec(12, 24), GridSpec(24, 48)):
            s = harmonic_surface(1.0, terms, spec)
            rels.append(abs(hsiung_minkowski_residual(s, V, 0, relative=True)))
        assert rels[1] < rels[0] / 4.0 or rels[1] < 1e-12


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
        # center-of-mass condition via reflection symmetry at the origin
        assert abs(condition_v_residual(spheroid64, generic_ckf(), 1)) < 1e-10

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
        V = generic_ckf()
        lhs = qk_rate(asym48, V, 1)
        rhs = -guan_li_q(asym48, 1) / 3.0 * condition_v_residual(asym48, V, 1)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestCenterOfMass:
    def test_origin_sphere(self, sphere64):
        for k in (0, 1, 2):
            assert np.abs(center_of_mass(sphere64, k)).max() < 1e-12

    def test_translated_sphere_recovers_center(self):
        c = np.array([0.0, 0.0, 0.3])
        st = StarShapedHypersurface(ScalarField(
            SPEC48, oracles.translated_sphere_graph(1.0, c, make_grid(SPEC48))))
        for k in (0, 1):
            assert np.abs(center_of_mass(st, k) - c).max() < 1e-9

    def test_symmetric_spheroid(self, spheroid64):
        assert np.abs(center_of_mass(spheroid64, 1)).max() < 1e-12


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
        assert abs(rep.W - 16 * np.pi) < 1e-10
        assert abs(rep.Q[1] - 4 * np.sqrt(np.pi)) < 1e-9
        assert abs(rep.area - 4 * np.pi) < 1e-10
        assert max(rep.E_sup.values()) < 1e-10
        assert set(rep.to_dict()) == {"W", "Q", "Qbar", "E_sup", "area",
                                      "sigma_integrals"}
