import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from icflab import conformal
from icflab.conformal import ConformalKillingField, flow_map, pushforward_surface
from icflab.errors import FlowBlowUpError, NotStarShapedError
from icflab.invariants import guan_li_q, willmore
from icflab.radial_graph import StarShapedHypersurface, geometry, invert
from icflab.sphere_grid import Grid, ScalarField, make_grid
from icflab.surfaces import harmonic_surface, sphere_surface, spheroid_surface

import oracles
from conftest import HARMONIC_TERMS, SPEC32, SPEC48, SPEC64, nodes


# its ray preimages on the unit sphere at 32x64, t = 0.3, come within 1e-3
# of a pole
POLE_FIELD = ConformalKillingField([0.1, -0.2, 0.05], [0.2, 0.1, -0.3], 0.15,
                                  [0.1, 0.05, -0.12])


def transport_ckf(rng):
    """A field at the scale of the transport64 benchmark workload."""
    return ConformalKillingField(rng.normal(0, 0.2, 3), rng.normal(0, 0.2, 3),
                                 rng.normal(0, 0.2), rng.normal(0, 0.15, 3))


def transport_surface(spec):
    """1 + l = 1, 2, 3 modes, the transport64 benchmark surface unrotated."""
    x, y, z = np.moveaxis(make_grid(spec).node_frame[0], -1, 0)
    f = 1.0 + 0.12 * (x * x - y * y) + 0.07 * x * (5.0 * z * z - 1.0) + 0.1 * z
    return StarShapedHypersurface(ScalarField(spec, f))


def random_ckf(rng, b_scale=0.3):
    return ConformalKillingField(rng.normal(0, 0.5, 3), rng.normal(0, 0.5, 3),
                                 rng.normal(0, 0.5), rng.normal(0, b_scale, 3))


class TestEvaluate:
    def test_dilation_is_identity_times_mu(self):
        V = ConformalKillingField([0, 0, 0], [0, 0, 0], 1.0, [0, 0, 0])
        x = np.array([1.0, 2.0, 3.0])
        assert_allclose(oracles.quadratic_form(V, x)[0], x, rtol=0, atol=0)

    def test_translation_is_constant(self):
        V = ConformalKillingField([2.0, -1.0, 0.5], [0, 0, 0], 0.0, [0, 0, 0])
        pts = np.array([[0.0, 0, 0], [3.0, 1, -2]])
        assert_allclose(oracles.quadratic_form(V, pts)[0], np.broadcast_to(V.v, (2, 3)))

    def test_special_conformal_hand_value(self):
        # b = e1 at (1,1,0): 2<b,x>x - |x|^2 b = (2,2,0) - (2,0,0)
        V = ConformalKillingField([0, 0, 0], [0, 0, 0], 0.0, [1.0, 0, 0])
        assert_allclose(oracles.quadratic_form(V, np.array([1.0, 1.0, 0.0]))[0],
                        [0.0, 2.0, 0.0], atol=1e-15)

    def test_skewness_is_exact(self):
        V = ConformalKillingField([0, 0, 0], [0.3, -0.7, 1.1], 0.0, [0, 0, 0])
        S = V.skew_matrix
        assert np.array_equal(S, -S.T)


class TestDivergence:
    def test_pure_dilation(self):
        V = ConformalKillingField([0, 0, 0], [0, 0, 0], 0.5, [0, 0, 0])
        assert_allclose(V.divergence(np.zeros(3)), 1.5)

    def test_isometry_generators_are_divergence_free(self):
        V = ConformalKillingField([1.0, 2, 3], [0.4, -0.2, 0.9], 0.0, [0, 0, 0])
        assert_allclose(V.divergence(np.array([1.0, -2.0, 0.3])), 0.0)

    def test_special_conformal_divergence(self, rng):
        # div = 6 x1 for b = e1 in three ambient dimensions
        V = ConformalKillingField([0, 0, 0], [0, 0, 0], 0.0, [1.0, 0, 0])
        x = rng.normal(size=(5, 3))
        assert_allclose(V.divergence(x), 6.0 * x[:, 0], rtol=1e-14)

    def test_matches_jacobian_trace(self, rng):
        V = random_ckf(rng)
        x = rng.normal(size=3)
        h = 1e-6

        def value(y):
            return oracles.quadratic_form(V, y)[0]

        tr = sum((value(x + h * e)[i] - value(x - h * e)[i]) / (2 * h)
                 for i, e in enumerate(np.eye(3)))
        assert abs(tr - V.divergence(x)) < 1e-6

    def test_divergence_is_affine(self, rng):
        V = random_ckf(rng)
        x = rng.normal(size=3)
        for e in np.eye(3):
            second = (V.divergence(x + e) - 2 * V.divergence(x)
                      + V.divergence(x - e))
            assert abs(second) < 1e-8


class TestCoefficients:
    @pytest.mark.parametrize("kind", ["ckf", "affine"])
    def test_reproduce_evaluate_and_conformal_factor(self, kind, rng):
        # the quadratic form read from (v, M, b) and (tr(M)/3, 2b) against
        # each class's own parameters: v + Sx + mu x + 2<b,x>x - |x|^2 b and
        # mu + 2<b,x>, or v + x M^T and tr(M)/3; a conformal Killing
        # field's own conformal factor too
        for _ in range(5):
            if kind == "ckf":
                field = random_ckf(rng)
                form = oracles.ckf_parameter_form
            else:
                field = oracles.AffineField(rng.normal(size=3), rng.normal(size=(3, 3)))
                form = oracles.affine_parameter_form
            x = rng.normal(0.0, 1.5, size=(64, 3))
            value, alpha = form(field, x)
            expected, expected_alpha = oracles.quadratic_form(field, x)
            assert np.abs(value - expected).max() <= 1e-13 * np.abs(expected).max()
            if kind == "ckf":
                assert np.array_equal(field.conformal_factor(x), expected_alpha)
            assert (np.abs(alpha - expected_alpha).max()
                    <= 1e-13 * np.abs(expected_alpha).max())

    @pytest.mark.parametrize("make", [
        lambda bad: ConformalKillingField(bad, [0, 0, 0], 0.0, [0, 0, 0]),
        lambda bad: ConformalKillingField([0, 0, 0], [0, 0, 0], bad[0], [0, 0, 0]),
        lambda bad: oracles.AffineField(bad, np.eye(3)),
        lambda bad: oracles.AffineField([0, 0, 0], np.diag(bad)),
    ], ids=["ckf-v", "ckf-mu", "affine-v", "affine-M"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameters_raise(self, make, value):
        with pytest.raises(ValueError, match="non-finite"):
            make([value, 0.0, 0.0])


class TestKillingResidual:
    def test_conformal_fields_satisfy_equation(self, rng):
        for _ in range(3):
            V = random_ckf(rng)
            assert oracles.killing_residual(V, rng.normal(size=3)) < 1e-12

    def test_non_skew_control_fails(self, rng):
        M = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        bad = oracles.AffineField(np.zeros(3), M)
        assert oracles.killing_residual(bad, rng.normal(size=3)) > 0.5


class TestExpm:
    """`conformal._expm` against `scipy.linalg.expm` on the so(4,1)
    generators of conformal Killing fields."""

    ETA = np.diag([1.0, 1.0, 1.0, 1.0, -1.0])

    def test_random_generators(self, rng):
        # field scales 0.05-3 and |t| <= 3: 1-norms up to about 60, so up
        # to 7 squarings; the image preserves the Lorentz form eta
        for _ in range(500):
            scale = rng.uniform(0.05, 3.0)
            v, s_lower, b = rng.normal(0, scale, (3, 3))
            V = ConformalKillingField(v, s_lower, rng.normal(0, scale), b)
            A = rng.uniform(-3.0, 3.0) * conformal._generator(V)
            E, ref = conformal._expm(A), expm(A)
            assert np.abs(E - ref).max() <= 1e-11 * np.abs(ref).max()
            lorentz = np.abs(E.T @ self.ETA @ E - self.ETA).max()
            assert lorentz <= 1e-12 * np.abs(E).max() ** 2

    def test_translation(self):
        # a nilpotent generator: exp(A) = I + A + A^2 / 2
        A = 0.7 * conformal._generator(
            ConformalKillingField([1.0, 2.0, 0.5], [0, 0, 0], 0.0, [0, 0, 0]))
        E = conformal._expm(A)
        assert np.abs(E - expm(A)).max() <= 1e-14 * np.abs(E).max()
        assert np.abs(E - (np.eye(5) + A + A @ A / 2)).max() <= 1e-14 * np.abs(E).max()

    def test_zero_is_identity(self):
        assert np.array_equal(conformal._expm(np.zeros((5, 5))), np.eye(5))


class TestFlowMap:
    def test_dilation_closed_form(self):
        # Phi_t(X) = exp(mu t) X
        V = ConformalKillingField([0, 0, 0], [0, 0, 0], 0.3, [0, 0, 0])
        out = flow_map(V, 2.0, np.array([1.0, 0.0, 0.0]))
        assert_allclose(out, [np.exp(0.6), 0.0, 0.0], rtol=1e-9, atol=1e-12)

    def test_translation_closed_form(self, rng):
        V = ConformalKillingField([1.0, 2.0, 0.0], [0, 0, 0], 0.0, [0, 0, 0])
        x = rng.normal(size=3)
        assert_allclose(flow_map(V, 0.5, x), x + 0.5 * V.v, rtol=1e-9)

    def test_rotation_closed_form(self, rng):
        ang = 0.8
        V = ConformalKillingField([0, 0, 0], [1.0, 0, 0], 0.0, [0, 0, 0])
        R = np.array([[np.cos(ang), -np.sin(ang), 0],
                      [np.sin(ang), np.cos(ang), 0], [0, 0, 1.0]])
        x = rng.normal(size=3)
        assert np.abs(flow_map(V, ang, x) - R @ x).max() < 1e-9

    def test_special_conformal_against_reference_integrator(self, rng):
        V = ConformalKillingField([0, 0, 0], [0, 0, 0], 0.0, [0.4, -0.1, 0.2])
        x = rng.normal(size=(4, 3)) * 0.5
        ref = oracles.dop853_flow(V, 0.3, x)
        assert np.abs(flow_map(V, 0.3, x) - ref).max() < 1e-8

    def test_special_conformal_radial_closed_form(self):
        # along the b axis the flow is x' = x^2: x(t) = x0/(1 - x0 t)
        V = ConformalKillingField([0, 0, 0], [0, 0, 0], 0.0, [1.0, 0, 0])
        out = flow_map(V, 0.4, np.array([2.0, 0.0, 0.0]))
        assert_allclose(out[0], 2.0 / (1.0 - 0.8), rtol=1e-9)

    def test_blow_up_detected(self):
        V = ConformalKillingField([0, 0, 0], [0, 0, 0], 0.0, [1.0, 0, 0])
        with pytest.raises(FlowBlowUpError):
            flow_map(V, 0.6, np.array([2.0, 0.0, 0.0]))

    def test_returning_orbit_blow_up_detected(self):
        # v = b = 3 e1 moves the e1 axis by x' = 3 (1 + x^2), so x = tan 3t
        # passes through infinity at t = pi/6 and is back at tan 3.6 ~ 0.49
        # by t = 1.2; the end point alone looks harmless
        V = ConformalKillingField([3.0, 0, 0], [0, 0, 0], 0.0, [3.0, 0, 0])
        with pytest.raises(FlowBlowUpError):
            flow_map(V, 1.2, np.zeros(3))

    @pytest.mark.parametrize("t, x", [(np.nan, [1.0, 0, 0]), (np.inf, [1.0, 0, 0]),
                                      (0.5, [np.nan, 0, 0])])
    def test_non_finite_input_rejected(self, t, x):
        V = ConformalKillingField([0.1, 0, 0.3], [0.1, 0, 0], 0.1, [0.1, 0, 0])
        with pytest.raises(ValueError):
            flow_map(V, t, np.array(x))

    def test_start_beyond_escape_radius_is_blow_up(self):
        V = ConformalKillingField([0.1, 0, 0.3], [0.1, 0, 0], 0.1, [0.1, 0, 0])
        with pytest.raises(FlowBlowUpError):
            flow_map(V, 0.5, np.array([1e7, 0.0, 0.0]))

    def test_near_miss_is_not_blow_up(self):
        # just off that axis the orbit turns at |x| ~ 1e3 and comes back
        V = ConformalKillingField([3.0, 0, 0], [0, 0, 0], 0.0, [3.0, 0, 0])
        x = np.array([[0.0, 1e-3, 0.0], [0.2, -0.1, 0.3]])
        ref = oracles.dop853_flow(V, 1.2, x)
        err = np.linalg.norm(flow_map(V, 1.2, x) - ref, axis=1)
        assert np.all(err < 1e-12 * np.linalg.norm(ref, axis=1))

    def test_matches_dop853_oracle(self, rng):
        # the random-field distribution of the CLI audits
        for _ in range(20):
            V = ConformalKillingField(rng.normal(0, 0.3, 3), rng.normal(0, 0.3, 3),
                                      rng.normal(0, 0.3), rng.normal(0, 0.2, 3))
            x = rng.normal(size=(64, 3)) * 0.7
            for t in (-0.5, 1e-3, 0.5):
                ref = oracles.dop853_flow(V, t, x)
                err = np.linalg.norm(flow_map(V, t, x) - ref, axis=1)
                assert np.all(err < 1e-13 * np.linalg.norm(ref, axis=1))

    def test_group_law(self, rng):
        V = random_ckf(rng, b_scale=0.2)
        x = rng.normal(size=3) * 0.5
        a = flow_map(V, 0.3, flow_map(V, 0.2, x))
        b = flow_map(V, 0.5, x)
        assert np.abs(a - b).max() < 1e-8

    def test_jacobian_is_conformal(self, rng):
        # finite-difference differential maps orthonormal tangent pairs to
        # orthogonal vectors of equal length
        V = random_ckf(rng, b_scale=0.2)
        x = rng.normal(size=3) * 0.7
        t = 0.4
        h = 1e-4
        e1, e2 = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
        d1 = (flow_map(V, t, x + h * e1) - flow_map(V, t, x - h * e1)) / (2 * h)
        d2 = (flow_map(V, t, x + h * e2) - flow_map(V, t, x - h * e2)) / (2 * h)
        n1, n2 = np.linalg.norm(d1), np.linalg.norm(d2)
        assert abs(n1 / n2 - 1.0) < 1e-7
        assert abs(np.dot(d1, d2)) / (n1 * n2) < 1e-7


class TestPushforward:
    def test_dilation_scales_graph_exactly(self):
        s = spheroid_surface(1.0, 0.6, SPEC32)
        V = ConformalKillingField([0, 0, 0], [0, 0, 0], 0.3, [0, 0, 0])
        out = pushforward_surface(V, 1.0, s)
        assert np.abs(out.values - np.exp(0.3) * s.values).max() < 1e-11

    def test_rotation_resamples_phi(self):
        s = harmonic_surface(1.0, HARMONIC_TERMS, SPEC32)
        ang = 0.8
        V = ConformalKillingField([0, 0, 0], [1.0, 0, 0], 0.0, [0, 0, 0])
        out = pushforward_surface(V, ang, s)
        # spectral resample of a band-limited graph is exact
        grid = make_grid(SPEC32)
        F = np.fft.rfft(s.values, axis=1)
        m = np.arange(F.shape[1])
        expected = np.fft.irfft(F * np.exp(-1j * m * ang), SPEC32.n_phi, axis=1)
        assert np.abs(out.values - expected).max() < 1e-9

    def test_time_zero_identity(self, rng):
        s = spheroid_surface(1.0, 0.6, SPEC32)
        out = pushforward_surface(random_ckf(rng), 0.0, s)
        assert np.abs(out.values - s.values).max() < 1e-11

    def test_translation_matches_closed_form_graph(self):
        s = sphere_surface(1.0, SPEC32)
        V = ConformalKillingField([0, 0, 0.3], [0, 0, 0], 0.0, [0, 0, 0])
        out = pushforward_surface(V, 1.0, s)
        expected = oracles.translated_sphere_graph(1.0, [0, 0, 0.3], make_grid(SPEC32))
        assert np.abs(out.values - expected).max() < 1e-10

    def test_inversion_vs_dilation_two_paths(self):
        # mapping the sphere R to the sphere 1/R by a dilation flow must
        # agree with the analytic inversion of the graph
        R = 1.7
        s = sphere_surface(R, SPEC32)
        V = ConformalKillingField([0, 0, 0], [0, 0, 0], np.log(1.0 / R**2), [0, 0, 0])
        out = pushforward_surface(V, 1.0, s)
        assert np.abs(out.values - invert(s).values).max() < 1e-9

    @pytest.mark.parametrize("spec, V, t, center, radius", [
        (SPEC32, POLE_FIELD, 0.3, [0.0, 0.0, 0.0], 1.0),
        (SPEC32, POLE_FIELD, -0.3, [0.05, -0.1, 0.2], 0.9),
        (SPEC48, ConformalKillingField([0.2, 0.1, -0.1], [0.3, -0.2, 0.1],
                                       -0.1, [-0.2, 0.15, 0.1]),
         0.5, [-0.1, 0.0, 0.1], 1.2),
    ], ids=["pole_case", "offset_backward", "offset_48"])
    def test_round_spheres_match_light_cone_image(self, spec, V, t, center, radius):
        # a conformal map takes spheres to spheres, in closed form
        s_values = oracles.translated_sphere_graph(radius, center, make_grid(spec))
        s = StarShapedHypersurface(ScalarField(spec, s_values))
        c_img, r_img = oracles.mobius_sphere_image(V, t, center, radius)
        out = pushforward_surface(V, t, s)
        expected = oracles.translated_sphere_graph(r_img, c_img, make_grid(spec))
        assert np.abs(out.values - expected).max() < 1e-10

    @pytest.mark.parametrize("t", [0.3, -0.3])
    def test_pole_preimages_round_trip(self, t):
        # a surface whose ray preimages come within 1e-3 of a pole at 64x128
        s = harmonic_surface(1.0, HARMONIC_TERMS + [(1, 0, 0.1)], SPEC64)
        back = pushforward_surface(POLE_FIELD, -t, pushforward_surface(POLE_FIELD, t, s))
        assert np.abs(back.values - s.values).max() < 1e-10

    def test_partials_only_where_newton_uses_them(self, rng, monkeypatch):
        # a transport64-scale step: the warm start is within the
        # tolerance's square root after one Newton step, so the second call
        # of the input's one coefficient set is values only
        calls = []
        evaluate = Grid.evaluate_scattered

        def recording(self, C2, *args, derivatives=False):
            calls.append((C2.shape, derivatives))
            return evaluate(self, C2, *args, derivatives=derivatives)

        monkeypatch.setattr(Grid, "evaluate_scattered", recording)
        s = harmonic_surface(1.0, HARMONIC_TERMS, SPEC64)
        pushforward_surface(transport_ckf(rng), 1e-3, s)
        grid = make_grid(SPEC64)
        one_set = (grid.m_max + 1, grid.l_max + 1, 2)
        assert calls == [(one_set, True), (one_set, False)]

    @pytest.mark.parametrize("case, t", [("transport", 1e-3), ("transport", -1e-3),
                                         ("harmonic", 0.5), ("harmonic", -0.5)])
    def test_radii_solve_ray_equation(self, case, t, rng):
        # each ray r p lands on the input: |y| = f(y/|y|) for y = Phi_{-t}(r p),
        # rebuilt from the escape-checked flow map and the (m, l)
        # recurrence, not the double Fourier sphere of the solver
        if case == "transport":
            s, fields = transport_surface(SPEC64), [transport_ckf(rng) for _ in range(3)]
        else:
            s, fields = harmonic_surface(1.0, HARMONIC_TERMS, SPEC64), [POLE_FIELD]
        grid = make_grid(SPEC64)
        p = grid.node_frame[0].reshape(-1, 3)
        coeffs = grid.analysis(s.values)[None]
        for V in fields:
            r = pushforward_surface(V, t, s).values.reshape(-1, 1)
            y = flow_map(V, -t, r * p)
            norm = np.linalg.norm(y, axis=1)
            th = np.arccos(y[:, 2] / norm)
            ph = np.arctan2(y[:, 1], y[:, 0])
            f = oracles.evaluate_scattered_recurrence(grid, coeffs, th, ph)[0][0]
            assert (np.abs(norm - f) / norm).max() < 1e-12

    @staticmethod
    def certificates(V, t, s):
        """<DPhi_t nu, Y> and the spectral (C_theta x C_phi) . Y of the
        interpolated image, at the nodes."""
        grid = make_grid(s.spec)
        X = s.values[..., None] * grid.node_frame[0]
        Y = flow_map(V, t, X)
        E = expm(t * conformal._generator(V))
        n_img = conformal._push(E, X.reshape(-1, 3), geometry(s).normal.reshape(-1, 3))[1]
        new = np.einsum("pc,pc->p", n_img, Y.reshape(-1, 3)).reshape(s.spec.shape)
        return new, oracles.spectral_orientation(grid, Y)

    @pytest.mark.parametrize("shift", [0.9, 0.99, 1.01, 1.05, 1.3])
    def test_translation_past_origin_certificate(self, shift):
        # translating a spheroid past the origin flips the sign at nodes,
        # the same nodes for both certificates, and the push is refused
        s = spheroid_surface(1.0, 0.6, SPEC48)
        V = ConformalKillingField([shift, 0, 0], [0, 0, 0], 0.0, [0, 0, 0])
        new, old = self.certificates(V, 1.0, s)
        assert np.array_equal(new > 0.0, old > 0.0)
        assert (new <= 0.0).any() == (shift > 1.0)
        if shift > 1.0:
            with pytest.raises(NotStarShapedError):
                pushforward_surface(V, 1.0, s)
        else:
            assert pushforward_surface(V, 1.0, s).values.min() > 0.0

    def test_certificate_sign_on_random_fields(self, rng):
        s = harmonic_surface(1.0, HARMONIC_TERMS, SPEC48)
        for _ in range(4):
            V = random_ckf(rng, b_scale=0.2)
            for t in (0.3, -0.3):
                new, old = self.certificates(V, t, s)
                assert np.array_equal(new > 0.0, old > 0.0)

    def test_not_star_shaped_detected(self):
        s = sphere_surface(1.0, SPEC32)
        V = ConformalKillingField([2.5, 0, 0], [0, 0, 0], 0.0, [0, 0, 0])
        with pytest.raises(NotStarShapedError):
            pushforward_surface(V, 1.0, s)


# one field per generator class of the conformal group, as coefficients
# (v, S_lower, mu, b)
GENERATOR_CLASSES = {
    "translation": ([0.3, -0.2, 0.1], [0, 0, 0], 0.0, [0, 0, 0]),
    "rotation": ([0, 0, 0], [0.4, -0.3, 0.2], 0.0, [0, 0, 0]),
    "dilation": ([0, 0, 0], [0, 0, 0], 0.4, [0, 0, 0]),
    "special_conformal": ([0, 0, 0], [0, 0, 0], 0.0, [0.15, -0.1, 0.2]),
}


def moebius_field(name):
    """A field of one generator class, or `random<seed>`: a field at the
    scale of `icflab invariance`'s random trials."""
    if name in GENERATOR_CLASSES:
        return ConformalKillingField(*GENERATOR_CLASSES[name])
    rng = np.random.default_rng(int(name.removeprefix("random")))
    return ConformalKillingField(rng.normal(0, 0.3, 3), rng.normal(0, 0.3, 3),
                                 rng.normal(0, 0.3), rng.normal(0, 0.2, 3))


# the image of random3 (radius ratio 5.3) leaves a spectral tail of 1.4e-8
# at 32x64, where W then moves by 1.3e-11 and the round trip by 1.3e-7; at
# 64x128 its tail is 3e-14
MOEBIUS_CASES = ([(name, SPEC32) for name in GENERATOR_CLASSES]
                 + [(f"random{k}", SPEC32) for k in range(3)] + [("random3", SPEC64)])
MOEBIUS_IDS = [name for name, _ in MOEBIUS_CASES]


class TestMoebiusInvariance:
    """For a closed surface in R^3, W = 2 int |A0|^2 dmu + 4 int K dmu with
    both terms invariant under conformal maps that keep it bounded (int K
    dmu = 4 pi by Gauss-Bonnet), so every pushforward must keep W and
    int K dmu; the pushforward builds the image through the one-set
    scattered evaluator.  Q1, invariant under similarities but not under
    the other conformal maps, shows that those moved the surface's shape."""

    T = 0.5

    @pytest.mark.parametrize("name, spec", MOEBIUS_CASES, ids=MOEBIUS_IDS)
    def test_willmore_and_total_curvature_are_invariant(self, name, spec):
        s = harmonic_surface(1.0, HARMONIC_TERMS, spec)
        image = pushforward_surface(moebius_field(name), self.T, s)
        # the grid resolves the image: its top four degrees are round-off
        C = make_grid(image.spec).analysis(image.values)
        assert np.abs(C[:, -4:]).max() < 1e-12 * np.abs(C).max()
        assert np.abs(image.values - s.values).max() > 0.01

        def total_k(surface):
            geom = geometry(surface)
            return geom.integrate(geom.K)

        assert willmore(image) == pytest.approx(willmore(s), rel=1e-12, abs=0.0)
        assert total_k(image) == pytest.approx(total_k(s), rel=1e-12, abs=0.0)
        if name == "special_conformal" or name.startswith("random"):
            assert abs(guan_li_q(image, 1) / guan_li_q(s, 1) - 1.0) > 1e-6

    @pytest.mark.parametrize("name, spec", MOEBIUS_CASES, ids=MOEBIUS_IDS)
    def test_push_and_back_returns_graph(self, name, spec):
        s = harmonic_surface(1.0, HARMONIC_TERMS, spec)
        V = moebius_field(name)
        back = pushforward_surface(V, -self.T, pushforward_surface(V, self.T, s))
        assert np.abs(back.values - s.values).max() < 1e-11


class TestPointwiseMoebius:
    """The trace-free second form scales like lengths under a conformal
    map Phi with |d Phi w| = e^u |w|, so |A0|^2 of the image at Phi(x) is
    e^{-2u(x)} times |A0|^2 at x (and |A0|^2 dmu is invariant): checked at
    every node of the input, for each generator class at 32x64."""

    T = 0.5

    @pytest.mark.parametrize("name", list(GENERATOR_CLASSES))
    def test_tracefree_norm_scales_by_conformal_factor(self, name):
        V = moebius_field(name)
        s = harmonic_surface(1.0, HARMONIC_TERMS, SPEC32)
        image = pushforward_surface(V, self.T, s)
        grid = make_grid(s.spec)
        X = (s.values[..., None] * grid.node_frame[0]).reshape(-1, 3)
        e_u = oracles.conformal_factor(V, self.T, X)
        # the light-cone factor against central differences of flow_map:
        # the cube root of |det d Phi|, to the differences' O(h^2)
        h = 1e-4
        J = np.stack([flow_map(V, self.T, X + h * e) - flow_map(V, self.T, X - h * e)
                      for e in np.eye(3)], axis=-1) / (2.0 * h)
        assert np.abs(np.cbrt(np.linalg.det(J)) / e_u - 1.0).max() < 1e-9
        # |A0|^2 of the image, read at each node's image Y through the
        # scattered evaluator of its coefficients
        Y = flow_map(V, self.T, X)
        theta = np.arctan2(np.hypot(Y[:, 0], Y[:, 1]), Y[:, 2])
        phi = np.arctan2(Y[:, 1], Y[:, 0])
        at_image = grid.evaluate_scattered(
            grid.analysis(geometry(image).tracefree_sq), theta, phi)
        expected = geometry(s).tracefree_sq.ravel() / e_u**2
        # the image's |A0|^2 is not band-limited: its spectral interpolant
        # at 32x64 sets the floor, 8.4e-9 for the translation's image
        assert np.abs(at_image - expected).max() < 2e-8 * expected.max()


class TestQuadraticStructure:
    def test_random_fields_pass(self, rng):
        for _ in range(3):
            rep = oracles.component_quadratic_check(random_ckf(rng),
                                                    seed=int(rng.integers(1e6)))
            assert rep["quadratic"] and rep["matches_affine_factor"]

    def test_hand_case_b_e1(self):
        # V^1 = 2 x1^2 - |x|^2 for b = e1: D1 D1 V^1 = 2 = D1(div/(n+1))
        V = ConformalKillingField([0, 0, 0], [0, 0, 0], 0.0, [1.0, 0, 0])
        x = np.array([0.3, -0.2, 0.5])
        h = 0.25
        e1 = np.array([1.0, 0, 0])

        def value(y):
            return oracles.quadratic_form(V, y)[0]

        second = (value(x + h * e1) - 2 * value(x) + value(x - h * e1)) / h**2
        assert_allclose(second[0], 2.0, rtol=1e-12)
        rep = oracles.component_quadratic_check(V)
        assert rep["matches_affine_factor"]
