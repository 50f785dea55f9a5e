import dataclasses
import gc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from icflab.errors import DegenerateSurfaceError, ResolutionError
from icflab.flow import SpeedFunction, step
from icflab.radial_graph import (StarShapedHypersurface, area, geometry,
                                 invert, inversion_mean_curvature_check,
                                 sigma_integral)
from icflab.sphere_grid import GridSpec, ScalarField, make_grid
from icflab.surfaces import harmonic_surface, real_harmonic, sphere_surface, spheroid_surface

import oracles
from conftest import HARMONIC_TERMS, SPEC16, SPEC32, SPEC64, nodes


class TestRoundSphere:
    def test_closed_forms(self, sphere64):
        g = geometry(sphere64)
        assert np.abs(g.H - 2.0).max() < 1e-12
        assert np.abs(g.kappa - 1.0).max() < 1e-12
        assert np.abs(g.sigma_k[..., 2] - 1.0).max() < 1e-12
        assert np.abs(g.tracefree_sq).max() < 1e-12
        assert abs(area(sphere64) - 4.0 * np.pi) < 1e-12
        assert abs(sigma_integral(sphere64, 1) - 8.0 * np.pi) < 1e-10
        assert abs(sigma_integral(sphere64, 2) - 4.0 * np.pi) < 1e-10

    def test_principal_curvatures_keep_digits_at_umbilics(self, sphere64):
        # one IMCF step leaves a sphere round to about 1e-12: f kappa_i must
        # be as close to 1 as f H is to 2, not only to its square root
        s = step(sphere64, SpeedFunction("H"), 0.01)
        kappa = geometry(s).kappa
        assert np.abs(s.values[..., None] * kappa - 1.0).max() < 5e-9

    def test_scaled_sphere(self):
        R = 3.0
        s = sphere_surface(R, SPEC32)
        g = geometry(s)
        assert np.abs(g.H - 2.0 / R).max() < 1e-12
        assert abs(area(s) - 4.0 * np.pi * R**2) < 1e-10

    def test_normal_is_radial_and_unit(self, sphere64):
        g = geometry(sphere64)
        norms = np.linalg.norm(g.normal, axis=-1)
        assert np.abs(norms - 1.0).max() < 1e-10
        # outward: <nu, position> = f > 0
        radial = np.einsum("...c,...c->...", g.normal, g.position)
        assert np.abs(radial - 1.0).max() < 1e-10


class TestSpheroidAgainstParametricOracle:
    def test_pointwise_mean_curvature(self, spheroid64):
        g = geometry(spheroid64)
        grid = make_grid(SPEC64)
        H_oracle = oracles.spheroid_H_at_graph_nodes(1.0, 0.6, grid.theta)
        assert np.abs(g.H - H_oracle[:, None]).max() < 1e-6

    def test_integrals(self, spheroid64):
        assert abs(area(spheroid64) - oracles.SPHEROID_AREA) < 1e-10
        assert abs(sigma_integral(spheroid64, 1) - oracles.SPHEROID_INT_H) < 1e-10
        # oracle self-consistency against the closed-form area
        assert abs(oracles.SPHEROID_AREA - oracles.spheroid_closed_area(1.0, 0.6)) < 1e-11

    def test_gauss_bonnet_on_two_surfaces(self, spheroid64, harmonic64):
        for s in (spheroid64, harmonic64):
            assert abs(sigma_integral(s, 2) - 4.0 * np.pi) < 1e-9

    def test_refinement_reduces_H_error(self):
        errs = []
        for spec in (SPEC16, SPEC32):
            s = spheroid_surface(1.0, 0.6, spec)
            g = geometry(s)
            grid = make_grid(spec)
            H_oracle = oracles.spheroid_H_at_graph_nodes(1.0, 0.6, grid.theta)
            errs.append(np.abs(g.H - H_oracle[:, None]).max())
        assert errs[0] / max(errs[1], 1e-300) >= 8.0


class TestBundleInvariants:
    def test_kappa_sums_and_products(self, spheroid64):
        g = geometry(spheroid64)
        assert np.abs(g.kappa.sum(axis=-1) - g.H).max() < 1e-10
        assert np.abs(g.kappa.prod(axis=-1) - g.sigma_k[..., 2]).max() < 1e-10
        assert np.abs(g.norm_A_sq - (g.kappa**2).sum(axis=-1)).max() < 1e-10
        assert np.abs(g.tracefree_sq - (g.norm_A_sq - g.H**2 / 2)).max() < 1e-12

    def test_sigma_k_matches_elementary_symmetric_oracle(self, spheroid64,
                                                         harmonic64):
        for s in (spheroid64, harmonic64):
            g = geometry(s)
            ref = oracles.elementary_symmetric(g.kappa)
            for k in range(3):
                scale = np.abs(ref[..., k]).max()
                assert np.abs(g.sigma_k[..., k] - ref[..., k]).max() < 1e-12 * scale

    def test_scaling_covariance(self, spheroid64):
        c = 3.7
        g0 = geometry(spheroid64)
        g1 = geometry(spheroid64.scaled(c))
        def rel(x, y):
            return np.abs(x - y).max() / np.abs(y).max()
        assert rel(g1.area_density, c**2 * g0.area_density) < 1e-10
        assert rel(g1.H, g0.H / c) < 1e-10
        assert rel(g1.kappa, g0.kappa / c) < 1e-10
        assert rel(g1.sigma_k[..., 2], g0.sigma_k[..., 2] / c**2) < 1e-10
        assert np.abs(g1.normal - g0.normal).max() < 1e-10

    def test_kappa_are_eigenvalues_of_shape_operator(self, spheroid64, harmonic64):
        # independent of the closed-form trace: eigenvalues of g^-1 h
        for s in (spheroid64, harmonic64):
            g = geometry(s)
            metric = oracles.stack_sym2(*g.metric)
            second_form = oracles.stack_sym2(*g.second_form)
            eig = np.linalg.eigvals(np.linalg.inv(metric) @ second_form)
            assert np.abs(eig.imag).max() < 1e-12 * np.abs(g.kappa).max()
            eig = np.sort(eig.real, axis=-1)
            assert np.abs(g.kappa - eig).max() < 1e-12 * np.abs(g.kappa).max()

    def test_bundle_is_read_only(self, harmonic64):
        g = geometry(harmonic64)
        arrays = [v for v in vars(g).values() if isinstance(v, np.ndarray)]
        for tensor in (g.metric, g.metric_inv, g.second_form):
            assert len(tensor) == 3
            arrays += tensor
        assert not any(arr.flags.writeable for arr in arrays)

    def test_appendix_formula_matches_shape_trace(self, spheroid64):
        # the explicit graph mean-curvature formula must reproduce the
        # trace of the shape operator
        g = geometry(spheroid64)
        grid = make_grid(SPEC64)
        lam = np.log(spheroid64.values)
        lt, lp, ltt, ltp, lpp = grid.chart_derivatives(lam)
        st, ct = grid.sin_theta[:, None], grid.cos_theta[:, None]
        Ltt = ltt
        Ltp = ltp - (ct / st) * lp
        Lpp = lpp + st * ct * lt
        lp_up = lp / st**2
        grad_sq = lt**2 + lp * lp_up
        lap = Ltt + Lpp / st**2
        quad = lt**2 * Ltt + 2 * lt * lp_up * Ltp + lp_up**2 * Lpp
        H_formula = oracles.graph_mean_curvature(spheroid64.values, grad_sq,
                                                 lap, quad, 2)
        assert np.abs(H_formula - g.H).max() < 1e-9


class TestInversion:
    def test_sphere_inverts_to_reciprocal_radius(self):
        s = sphere_surface(2.0, SPEC32)
        si = invert(s)
        assert np.abs(si.values - 0.5).max() == 0.0
        assert np.abs(geometry(si).H - 4.0).max() < 1e-9

    def test_involution_is_exact(self, spheroid64):
        assert invert(invert(spheroid64)) is spheroid64
        assert np.array_equal(invert(invert(spheroid64)).values, spheroid64.values)

    def test_mean_curvature_identity_sphere(self):
        s = sphere_surface(1.5, SPEC32)
        _, sup = inversion_mean_curvature_check(s)
        assert sup < 1e-9

    def test_mean_curvature_identity_spheroid(self, spheroid64):
        _, sup = inversion_mean_curvature_check(spheroid64)
        assert sup < 1e-6

    def test_mean_curvature_identity_harmonic(self, harmonic64):
        _, sup = inversion_mean_curvature_check(harmonic64)
        assert sup < 1e-6

    def test_identity_stays_small_under_refinement(self):
        sups = []
        for spec in (SPEC16, SPEC32, SPEC64):
            s = harmonic_surface(1.0, HARMONIC_TERMS, spec)
            sups.append(inversion_mean_curvature_check(s)[1])
        assert max(sups) < 1e-10  # round-off at every admissible grid


class TestOwnership:
    def test_geometry_is_built_once(self):
        s = sphere_surface(1.0, SPEC16)
        assert geometry(s) is geometry(s)

    @pytest.mark.parametrize("with_inverse", [False, True])
    def test_bundle_is_freed_with_its_surface(self, with_inverse):
        # no reference cycle may keep a dropped surface's bundle alive, so
        # the collector stays off while the surface is dropped
        s = harmonic_surface(1.0, HARMONIC_TERMS, SPEC16)
        if with_inverse:
            geometry(invert(s))
        ref = weakref.ref(geometry(s))
        gc.disable()
        try:
            del s
            assert ref() is None
        finally:
            gc.enable()

    def test_caller_array_stays_writable_and_detached(self):
        values = np.full(SPEC16.shape, 2.0)
        s = StarShapedHypersurface(ScalarField(SPEC16, values))
        assert values.flags.writeable
        assert not s.values.flags.writeable
        values[:] = 3.0
        assert np.all(s.values == 2.0)

    def test_surface_on_a_view_is_detached(self):
        base = np.ones((32, SPEC16.n_phi))
        s = StarShapedHypersurface(ScalarField(SPEC16, base[:16]))
        si = invert(s)
        base[:] = 2.0
        assert np.all(s.values == 1.0)
        assert invert(s) is si
        assert np.array_equal(invert(s).values, 1.0 / s.values)

    def test_values_cannot_be_rebound(self):
        s = sphere_surface(1.0, SPEC16)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.f = ScalarField(SPEC16, np.full(SPEC16.shape, 2.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.f.values = np.full(SPEC16.shape, 2.0)


class TestLowerDimensionalCrossCheck:
    def test_circle_graph_curvature_formula(self):
        # the dimension-generic graph formula at n = 1 must reproduce the
        # classical curvature of a polar curve (independent derivation)
        m = 256
        phi = 2.0 * np.pi * np.arange(m) / m
        f = 1.0 + 0.3 * np.cos(phi) + 0.1 * np.sin(2 * phi)
        fk = np.fft.rfft(f)
        k = np.arange(m // 2 + 1)
        df = np.fft.irfft(1j * k * fk, m)
        d2f = np.fft.irfft(-(k**2) * fk, m)
        lam = np.log(f)
        lk = np.fft.rfft(lam)
        dlam = np.fft.irfft(1j * k * lk, m)
        d2lam = np.fft.irfft(-(k**2) * lk, m)
        grad_sq = dlam**2
        H1 = oracles.graph_mean_curvature(f, grad_sq, d2lam, dlam**2 * d2lam, 1)
        assert np.abs(H1 - oracles.circle_curvature(f, df, d2f)).max() < 1e-10


class TestErrors:
    def test_nonpositive_graph_rejected(self):
        vals = np.ones(SPEC16.shape)
        vals[3, 4] = 0.0
        with pytest.raises(DegenerateSurfaceError):
            StarShapedHypersurface(ScalarField(SPEC16, vals))

    def test_ill_conditioned_metric_raises(self, monkeypatch):
        # the guard fires when the first fundamental form degenerates;
        # finite doubles cannot push a smooth graph past the production
        # 1e8 limit, so exercise the code path at a lowered threshold
        import icflab.radial_graph as rg
        monkeypatch.setattr(rg, "_COND_LIMIT", 1e3)
        vals = np.exp(6.0 * real_harmonic(20, 11, SPEC32))
        s = StarShapedHypersurface(ScalarField(SPEC32, vals))
        with pytest.raises(ResolutionError):
            geometry(s)

    def test_smooth_surfaces_stay_well_conditioned(self, spheroid64):
        geometry(spheroid64)  # must not raise at the production limit

    def test_sigma_integral_bounds_k(self, sphere64):
        with pytest.raises(ValueError):
            sigma_integral(sphere64, 3)
