import numpy as np
import pytest
from numpy.testing import assert_allclose

from icflab.conformal import ConformalKillingField, pushforward_surface
from icflab.flow import FlowConfig, SpeedFunction, normal_speed, run
from icflab.radial_graph import StarShapedHypersurface, geometry
from icflab.soliton import (basis_fields, best_fit_ckf, classify,
                            field_from_params, residual)
from icflab.sphere_grid import GridSpec, ScalarField, make_grid
from icflab.surfaces import harmonic_surface, sphere_surface, spheroid_surface

import oracles
from conftest import SPEC32, SPEC48, SPEC64, nodes

IMCF = SpeedFunction("H")


def rotate_about_z(surface, angle):
    """Exact spectral resample f(theta, phi - angle)."""
    F = np.fft.rfft(surface.values, axis=1)
    m = np.arange(F.shape[1])
    vals = np.fft.irfft(F * np.exp(-1j * m * angle), surface.spec.n_phi, axis=1)
    return StarShapedHypersurface(ScalarField(surface.spec, vals))


class TestResidual:
    def test_origin_sphere_with_position_field(self):
        # V = X/n gives <V, nu> = R/n = 1/H: exact soliton
        s = sphere_surface(1.3, SPEC32)
        V = ConformalKillingField([0, 0, 0], [0, 0, 0], 0.5, [0, 0, 0])
        r = residual(s, V, IMCF)
        assert np.abs(r.values).max() < 1e-12

    def test_translation_field_mismatch(self):
        # <e3, nu> - R/n varies in sign over the sphere
        R = 1.0
        s = sphere_surface(R, SPEC32)
        V = ConformalKillingField([0, 0, 1.0], [0, 0, 0], 0.0, [0, 0, 0])
        r = residual(s, V, IMCF).values
        grid = make_grid(SPEC32)
        expected = grid.cos_theta[:, None] - R / 2.0
        assert np.abs(r - expected).max() < 1e-12

    def test_rotation_field_gives_constant_deficit(self):
        s = sphere_surface(1.0, SPEC32)
        V = ConformalKillingField([0, 0, 0], [0.4, 0, 0], 0.0, [0, 0, 0])
        r = residual(s, V, IMCF).values
        assert np.abs(r + 0.5).max() < 1e-12


class TestBestFit:
    def test_origin_sphere_recovers_dilation(self, sphere64):
        V, rep = best_fit_ckf(sphere64, IMCF)
        assert abs(V.mu - 0.5) < 1e-10
        assert np.abs(V.v).max() < 1e-10
        assert np.abs(V.s_lower).max() < 1e-10  # minimum-norm zero
        assert np.abs(V.b).max() < 1e-10
        assert rep.residual_l2 < 1e-12
        assert rep.verdict == "soliton"

    def test_translated_sphere_minimum_norm_solution(self):
        # the exact-fit set is degenerate (b mixes with v, mu on spheres);
        # the fit must land on the hand-derived minimum-norm point
        c3, R = 0.3, 1.0
        st = StarShapedHypersurface(ScalarField(
            SPEC48, oracles.translated_sphere_graph(R, [0, 0, c3],
                                                    make_grid(SPEC48))))
        V, rep = best_fit_ckf(st, IMCF)
        v3, mu, b3 = oracles.min_norm_translated_sphere_fit(R, c3)
        assert rep.residual_l2 < 1e-10
        assert abs(V.v[2] - v3) < 1e-7
        assert abs(V.mu - mu) < 1e-7
        assert abs(V.b[2] - b3) < 1e-7
        assert np.abs(V.v[:2]).max() < 1e-7
        assert np.abs(V.b[:2]).max() < 1e-7

    def test_translated_sphere_naive_field_is_exact(self):
        # the dilation about the centre, (X - c)/n, also reproduces the
        # speed on this surface; unlike the min-norm point, it is the field
        # that generates the flow (TestSelfConformalOracle)
        c3 = 0.3
        st = StarShapedHypersurface(ScalarField(
            SPEC48, oracles.translated_sphere_graph(1.0, [0, 0, c3],
                                                    make_grid(SPEC48))))
        naive = ConformalKillingField([0, 0, -c3 / 2], [0, 0, 0], 0.5, [0, 0, 0])
        assert np.abs(residual(st, naive, IMCF).values).max() < 1e-9

    def test_spheroid_residual_bounded_below(self):
        for spec in (SPEC48, SPEC64):
            rep = classify(spheroid_surface(1.0, 0.6, spec), IMCF)
            assert rep.verdict == "not_soliton"
            assert rep.residual_l2 > 0.2  # measured 0.251, grid-stable


class TestSelfConformalOracle:
    def test_imcf_of_translated_sphere_is_dilation_about_centre(self):
        # IMCF moves the sphere |X - c| = 1 by the dilation (X - c)/2 about
        # its centre; the min-norm fit of the initial surface also has zero
        # residual there, but its flow is another motion
        c3 = 0.3
        st = StarShapedHypersurface(ScalarField(
            SPEC32, oracles.translated_sphere_graph(1.0, [0, 0, c3],
                                                    make_grid(SPEC32))))
        trace = run(st, FlowConfig(IMCF, t_end=0.3))
        t_end, evolved = trace.t[-1], StarShapedHypersurface(trace.snapshots[-1])
        dilation = ConformalKillingField([0, 0, -c3 / 2], [0, 0, 0], 0.5, [0, 0, 0])
        fitted, _ = best_fit_ckf(st, IMCF)

        def pushforward_error(V):
            pushed = pushforward_surface(V, t_end, st).values
            return np.abs(pushed - evolved.values).max()

        def residual_sup(V):
            return np.abs(residual(evolved, V, IMCF).values).max()

        assert pushforward_error(dilation) < 1e-9   # measured 3.4e-12
        assert residual_sup(dilation) < 1e-9        # measured 4.9e-11
        assert pushforward_error(fitted) > 1e-3     # measured 4.0e-3
        assert residual_sup(fitted) > 1e-2          # measured 2.6e-2


class TestClassify:
    def test_near_sphere_is_within_tolerance(self):
        # 1e-7 harmonic perturbation leaves the relative residual far
        # below the default tolerance; the sphere degeneracies are only
        # broken at the perturbation scale, so the conditioning warning
        # must fire
        s = harmonic_surface(1.0, [(2, 2, 1e-7)], SPEC48)
        with pytest.warns(UserWarning, match="condition number"):
            rep = classify(s, IMCF)
        assert rep.relative_residual < 1e-6
        assert rep.verdict == "soliton"
        assert rep.gram_condition > 1e10

    def test_intermediate_residual_is_inconclusive(self):
        s = harmonic_surface(1.0, [(2, 2, 2e-5)], SPEC48)
        with pytest.warns(UserWarning, match="condition number"):
            rep = classify(s, IMCF)
        assert rep.verdict == "inconclusive"

    def test_report_serializes(self, sphere64):
        rep = classify(sphere64, IMCF)
        d = rep.to_dict()
        assert d["verdict"] == "soliton"
        assert "fitted" in d


class TestEquivariance:
    def test_rotation_conjugates_fit(self):
        s = harmonic_surface(1.0, [(2, 2, 0.12), (3, 1, 0.07), (1, 0, 0.1)],
                             SPEC48)
        ang = 0.7
        V0, rep0 = best_fit_ckf(s, IMCF)
        V1, rep1 = best_fit_ckf(rotate_about_z(s, ang), IMCF)
        R = np.array([[np.cos(ang), -np.sin(ang), 0],
                      [np.sin(ang), np.cos(ang), 0], [0, 0, 1.0]])
        Vc = V0.conjugated(R)
        assert abs(rep1.residual_l2 - rep0.residual_l2) < 1e-9
        assert np.abs(V1.v - Vc.v).max() < 1e-7
        assert abs(V1.mu - Vc.mu) < 1e-7
        assert np.abs(V1.b - Vc.b).max() < 1e-7
        assert np.abs(V1.s_lower - Vc.s_lower).max() < 1e-7

    def test_scaling_preserves_relative_residual(self):
        s = spheroid_surface(1.0, 0.6, SPEC48)
        c = 2.5
        rep0 = classify(s, IMCF)
        rep1 = classify(s.scaled(c), IMCF)
        assert abs(rep1.relative_residual - rep0.relative_residual) < 1e-9
        V0, _ = best_fit_ckf(s, IMCF)
        V1, _ = best_fit_ckf(s.scaled(c), IMCF)
        assert abs(V1.mu - V0.mu) < 1e-9


class TestObjectiveStructure:
    def test_quadratic_form_consistency(self, rng):
        # J(p) evaluated by direct integration equals the Gram quadratic
        # form; the second-order part scales exactly quadratically
        from icflab.soliton import _design_matrix
        s = spheroid_surface(1.0, 0.6, SPEC32)
        geom = geometry(s)
        grid = make_grid(SPEC32)
        w = (grid.weights * geom.area_density).reshape(-1)
        M = _design_matrix(geom)
        y = normal_speed(s, IMCF).values.reshape(-1)
        G = M.T @ (w[:, None] * M)
        cvec = M.T @ (w * y)
        const = float(np.sum(w * y * y))

        def J_direct(p):
            r = M @ p - y
            return float(np.sum(w * r * r))

        for _ in range(3):
            p = rng.normal(size=10)
            J_gram = p @ G @ p - 2.0 * cvec @ p + const
            assert J_direct(p) == pytest.approx(J_gram, rel=1e-12)
            quad = J_direct(2 * p) - 2 * J_direct(p) + const
            assert quad == pytest.approx(2.0 * p @ G @ p, rel=1e-10)

    def test_parameter_round_trip(self, rng):
        p = rng.normal(size=10)
        V = field_from_params(p)
        assert_allclose(np.concatenate([V.v, V.s_lower, [V.mu], V.b]), p)

    def test_basis_has_ten_generators(self):
        assert len(basis_fields()) == 10
