import dataclasses
import gc
import re
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from icflab.errors import DegenerateSurfaceError, ResolutionError
from icflab.flow import SpeedFunction, step
from icflab.radial_graph import (StarShapedHypersurface, curvature,
                                 geometry, invert,
                                 inversion_mean_curvature_check,
                                 sigma_integral)
from icflab.sphere_grid import Grid, GridSpec, ScalarField, make_grid
from icflab.surfaces import harmonic_surface, real_harmonic, sphere_surface, spheroid_surface

import oracles
from conftest import HARMONIC_TERMS, SPEC16, SPEC32, SPEC64, nodes, scaled

# every public array field of a geometry bundle, by name
BUNDLE_FIELDS = ("position", "normal", "metric", "metric_inv", "area_density",
                 "H", "K", "kappa", "tracefree_sq", "grad_log_sq", "lam",
                 "lam_grad", "sqv", "gbar", "hbar")
# the kernel part: the fields `curvature` computes
KERNEL_FIELDS = ("H", "K", "grad_log_sq", "sqv", "gbar", "hbar", "lam_grad")


class TestRoundSphere:
    def test_closed_forms(self, sphere64):
        g = geometry(sphere64)
        assert np.abs(g.H - 2.0).max() < 1e-12
        assert np.abs(g.kappa - 1.0).max() < 1e-12
        assert np.abs(g.K - 1.0).max() < 1e-12
        assert np.abs(g.tracefree_sq).max() < 1e-12
        assert abs(sigma_integral(sphere64, 0) - 4.0 * np.pi) < 1e-12
        assert abs(sigma_integral(sphere64, 1) - 8.0 * np.pi) < 1e-10
        assert abs(sigma_integral(sphere64, 2) - 4.0 * np.pi) < 1e-10

    def test_principal_curvatures_keep_digits_at_umbilics(self, sphere64):
        # one IMCF step leaves a sphere round to about 1e-12: f kappa_i must
        # be as close to 1 as f H is to 2, not only to its square root
        s = step(sphere64, SpeedFunction.parse("H"), 0.01)
        kappa = geometry(s).kappa
        assert np.abs(s.values[..., None] * kappa - 1.0).max() < 5e-9

    def test_tracefree_norm_is_nonnegative_round_off_at_umbilics(self, sphere64):
        # |A0|^2 from the trace-free discriminant: H^2/2 - 2K has either
        # sign at 1e-15 on this stepped sphere, the discriminant is >= 0
        s = step(sphere64, SpeedFunction.parse("H"), 0.01)
        tracefree_sq = geometry(s).tracefree_sq
        assert tracefree_sq.min() >= 0.0
        assert tracefree_sq.max() <= 1e-18

    def test_scaled_sphere(self):
        R = 3.0
        s = sphere_surface(R, SPEC32)
        g = geometry(s)
        assert np.abs(g.H - 2.0 / R).max() < 1e-12
        assert abs(sigma_integral(s, 0) - 4.0 * np.pi * R**2) < 1e-10

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
        H_oracle = oracles.spheroid_H_at_graph_nodes(1.0, 0.6, np.arccos(grid.cos_theta))
        assert np.abs(g.H - H_oracle[:, None]).max() < 1e-6

    def test_integrals(self, spheroid64):
        assert abs(sigma_integral(spheroid64, 0) - oracles.SPHEROID_AREA) < 1e-10
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
            H_oracle = oracles.spheroid_H_at_graph_nodes(1.0, 0.6, np.arccos(grid.cos_theta))
            errs.append(np.abs(g.H - H_oracle[:, None]).max())
        assert errs[0] / max(errs[1], 1e-300) >= 8.0


class TestBundleInvariants:
    def test_kappa_sums_and_products(self, spheroid64):
        g = geometry(spheroid64)
        assert np.abs(g.kappa.sum(axis=-1) - g.H).max() < 1e-10
        assert np.abs(g.kappa.prod(axis=-1) - g.K).max() < 1e-10
        norm_A_sq = g.H**2 - 2.0 * g.K
        assert np.abs(norm_A_sq - (g.kappa**2).sum(axis=-1)).max() < 1e-10
        assert np.abs(g.tracefree_sq - (norm_A_sq - g.H**2 / 2)).max() < 1e-12

    def test_kernel_closed_forms_match_bundle_tensors(self, spheroid64,
                                                      harmonic64):
        # the kernel's f-free H and K against g^ij h_ij and det h / det g of
        # the tensors geometry forms, through np.linalg on stacked matrices,
        # and against the principal curvatures
        def rel(a, b):
            return np.abs(a - b).max() / np.abs(b).max()

        for s in (spheroid64, harmonic64):
            c = oracles.value_curvature(make_grid(s.spec), s.values)
            g = geometry(s)
            metric = oracles.stack_sym2(*g.metric)
            second_form = oracles.stack_sym2(*oracles.second_form(c, s.values))
            H = np.trace(np.linalg.inv(metric) @ second_form, axis1=-2, axis2=-1)
            K = np.linalg.det(second_form) / np.linalg.det(metric)
            assert rel(c.H, H) < 1e-12 and rel(c.K, K) < 1e-12
            assert rel(c.H, g.kappa.sum(-1)) < 1e-12
            assert rel(c.K, g.kappa.prod(-1)) < 1e-12

    def test_H_K_and_sigma_integrals_match_elementary_symmetric_oracle(
            self, spheroid64, harmonic64):
        for s in (spheroid64, harmonic64):
            g = geometry(s)
            ref = oracles.elementary_symmetric(g.kappa)
            for k, values in ((1, g.H), (2, g.K)):
                scale = np.abs(ref[..., k]).max()
                assert np.abs(values - ref[..., k]).max() < 1e-12 * scale
            for k in range(3):
                scale = g.integrate(np.abs(ref[..., k]))
                assert abs(sigma_integral(s, k) - g.integrate(ref[..., k])) < 1e-12 * scale

    def test_scaling_covariance(self, spheroid64):
        c = 3.7
        g0 = geometry(spheroid64)
        g1 = geometry(scaled(spheroid64, c))
        def rel(x, y):
            return np.abs(x - y).max() / np.abs(y).max()
        assert rel(g1.area_density, c**2 * g0.area_density) < 1e-10
        assert rel(g1.H, g0.H / c) < 1e-10
        assert rel(g1.kappa, g0.kappa / c) < 1e-10
        assert rel(g1.K, g0.K / c**2) < 1e-10
        assert np.abs(g1.normal - g0.normal).max() < 1e-10

    def test_kappa_are_eigenvalues_of_shape_operator(self, spheroid64, harmonic64):
        # independent of the closed-form trace: eigenvalues of g^-1 h
        for s in (spheroid64, harmonic64):
            g = geometry(s)
            metric = oracles.stack_sym2(*g.metric)
            second_form = oracles.stack_sym2(
                *oracles.second_form(oracles.value_curvature(make_grid(s.spec), s.values),
                                     s.values))
            eig = np.linalg.eigvals(np.linalg.inv(metric) @ second_form)
            assert np.abs(eig.imag).max() < 1e-12 * np.abs(g.kappa).max()
            eig = np.sort(eig.real, axis=-1)
            assert np.abs(g.kappa - eig).max() < 1e-12 * np.abs(g.kappa).max()

    def test_bundle_holds_the_grid_it_was_computed_on(self, harmonic64):
        g = geometry(StarShapedHypersurface(harmonic64.f))
        assert g.grid is make_grid(harmonic64.spec)
        assert not hasattr(harmonic64, "grid")

    def test_bundle_is_read_only(self, harmonic64):
        g = geometry(StarShapedHypersurface(harmonic64.f))
        assert {name for name in dir(g) if not name.startswith("_")} == {
            *BUNDLE_FIELDS, "grid", "integrate"}
        tensors = ("metric", "metric_inv", "gbar", "hbar")
        for name in BUNDLE_FIELDS:
            value = getattr(g, name)
            arrays = value if isinstance(value, tuple) else (value,)
            assert len(arrays) == (3 if name in tensors else
                                   2 if name == "lam_grad" else 1), name
            assert not any(arr.flags.writeable for arr in arrays), name

    @pytest.mark.parametrize("fixture", ["sphere64", "spheroid64", "harmonic64"])
    def test_kernel_reproduces_the_bundle_kernel_part(self, fixture, request):
        # a flow step may take its first stage from the bundle only if the
        # kernel, given the bundle's lam and f, returns the same bits
        s = request.getfixturevalue(fixture)
        g = geometry(s)
        c = curvature(make_grid(s.spec), g.lam, s.values)
        for name in KERNEL_FIELDS:
            a, b = getattr(c, name), getattr(g, name)
            pairs = zip(a, b) if isinstance(a, tuple) else [(a, b)]
            assert all(x.tobytes() == y.tobytes() for x, y in pairs), name

    @pytest.mark.parametrize("fixture", ["sphere64", "spheroid64", "harmonic64"])
    def test_lazy_parts_are_bit_identical_in_any_read_order(self, fixture,
                                                            request):
        # the frame and shape parts are built on first read, from what the
        # kernel part keeps: the order of reads changes no bit
        f = request.getfixturevalue(fixture).f
        fields = []
        for order in (BUNDLE_FIELDS, BUNDLE_FIELDS[::-1]):
            g = geometry(StarShapedHypersurface(ScalarField(f.spec, f.values.copy())))
            fields.append({name: getattr(g, name) for name in order})
        for name in BUNDLE_FIELDS:
            a, b = fields[0][name], fields[1][name]
            pairs = zip(a, b) if isinstance(a, tuple) else [(a, b)]
            assert all(np.array_equal(x, y) for x, y in pairs), name

    def test_appendix_formula_matches_shape_trace(self, spheroid64):
        # the explicit graph mean-curvature formula must reproduce the
        # trace of the shape operator
        g = geometry(spheroid64)
        grid = make_grid(SPEC64)
        lam = np.log(spheroid64.values)
        lt, lp, ltt, ltp, lpp = oracles.value_chart_derivatives(grid, lam)
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


def coefficient_cases(name, grid):
    """(lam, f): harmonic coefficients of log f, as the flow passes them
    to `curvature`, and the graph values f.  The named surfaces take the
    coefficients of a step's start: log f analysed without its node mean,
    the mean put back at degree 0.  `random` is a band-limited set with
    content at every degree, f = exp(synthesis(lam)), as a later stage's
    coefficients; the value route then synthesizes, exponentiates, takes
    the log and analyses again, which the coefficient route skips."""
    if name == "random":
        rng = np.random.default_rng(grid.l_max)
        ell, m = grid.ell[None, :, None], grid.m_values[:, None, None]
        lam = rng.standard_normal((grid.m_max + 1, grid.l_max + 1, 2))
        lam *= (ell >= m) * 0.05 / (1.0 + ell) ** 2
        lam[0, :, 1] = 0.0
        lam[0, 0, 0] = 0.3 * np.sqrt(4.0 * np.pi)
        return lam, np.exp(grid.synthesis(lam))
    s = {"sphere": sphere_surface(1.3, grid.spec),
         "spheroid": spheroid_surface(1.0, 0.6, grid.spec),
         "harmonic": harmonic_surface(1.0, HARMONIC_TERMS, grid.spec)}[name]
    log_f = np.log(s.values)
    lam = grid.analysis(log_f - log_f.mean())
    lam[0, 0, 0] += np.sqrt(4.0 * np.pi) * log_f.mean()
    return lam, s.values


class TestCoefficientRoute:
    """`curvature` on the coefficients of log f against the route the
    kernel took on grid values (`oracles.value_curvature`), in H, K and
    the five chart partials, relative to each one's sup norm: 15x32 has
    an equator row, 25x32 has m_max < l_max."""

    @pytest.mark.parametrize("shape", [(15, 32), (25, 32), (64, 128)],
                             ids=["15x32", "25x32", "64x128"])
    @pytest.mark.parametrize("name", ["sphere", "spheroid", "harmonic", "random"])
    def test_matches_value_route(self, name, shape):
        grid = make_grid(GridSpec(*shape))
        lam, f = coefficient_cases(name, grid)
        got, ref = curvature(grid, lam, f), oracles.value_curvature(grid, f)
        pairs = [(got.H, ref.H), (got.K, ref.K)]
        pairs += zip(grid.chart_derivatives(lam),
                     oracles.value_chart_derivatives(grid, np.log(f)))
        # the value route's own round-off on the random set at 64x128, its
        # node values' eps |log f| spread over every degree and amplified
        # by l(l+1) in the second partials, reaches 2.8e-13
        tol = 1e-12 if name == "random" and shape == (64, 128) else 1e-13
        for a, b in pairs:
            assert np.abs(a - b).max() <= tol * (np.abs(b).max() or 1.0)

    @pytest.mark.parametrize("shape", [(15, 32), (25, 32), (64, 128)],
                             ids=["15x32", "25x32", "64x128"])
    def test_degree_zero_changes_no_output_bit(self, shape):
        # every table of `chart_derivatives` vanishes at degree 0 or is multiplied
        # by m = 0 there, so the step needs no mean removal between stages
        grid = make_grid(GridSpec(*shape))
        lam, f = coefficient_cases("random", grid)
        shifted = lam.copy()
        shifted[0, 0, 0] -= 2.5
        a, b = curvature(grid, lam, f), curvature(grid, shifted, f)
        assert a.H.tobytes() == b.H.tobytes() and a.K.tobytes() == b.K.tobytes()
        assert (grid.chart_derivatives(lam).tobytes()
                == grid.chart_derivatives(shifted).tobytes())


class TestInversion:
    def test_sphere_inverts_to_reciprocal_radius(self):
        s = sphere_surface(2.0, SPEC32)
        si = invert(s)
        assert np.abs(si.values - 0.5).max() == 0.0
        assert np.abs(geometry(si).H - 4.0).max() < 1e-9

    def test_double_inversion_is_within_one_ulp(self, spheroid64):
        back = invert(invert(spheroid64))
        assert back is not spheroid64
        assert np.all(np.abs(back.values - spheroid64.values)
                      <= np.spacing(spheroid64.values))

    def test_mean_curvature_identity_sphere(self):
        s = sphere_surface(1.5, SPEC32)
        sup = inversion_mean_curvature_check(s)
        assert sup < 1e-9

    def test_mean_curvature_identity_spheroid(self, spheroid64):
        sup = inversion_mean_curvature_check(spheroid64)
        assert sup < 1e-6

    def test_mean_curvature_identity_harmonic(self, harmonic64):
        sup = inversion_mean_curvature_check(harmonic64)
        assert sup < 1e-6

    def test_identity_stays_small_under_refinement(self):
        sups = []
        for spec in (SPEC16, SPEC32, SPEC64):
            s = harmonic_surface(1.0, HARMONIC_TERMS, spec)
            sups.append(inversion_mean_curvature_check(s))
        assert max(sups) < 1e-10  # round-off at every admissible grid


class TestOwnership:
    def test_geometry_is_built_once(self):
        s = sphere_surface(1.0, SPEC16)
        assert geometry(s) is geometry(s)

    def test_geometry_and_a_cold_step_build_the_kernel_part_only(self):
        for build in (geometry, lambda s: step(s, SpeedFunction.parse("H"), 1e-3)):
            s = harmonic_surface(1.0, HARMONIC_TERMS, SPEC16)
            build(s)
            assert not ({"_frame", "_shape", "metric", "area_density"}
                        & set(vars(geometry(s))))

    @pytest.mark.parametrize("name, part", [
        ("position", "_frame"), ("normal", "_frame"), ("metric_inv", "_shape"),
        ("kappa", "_shape"), ("tracefree_sq", "_shape")])
    def test_a_lazy_field_builds_its_own_part_only(self, name, part):
        g = geometry(harmonic_surface(1.0, HARMONIC_TERMS, SPEC16))
        value = getattr(g, name)
        assert {"_frame", "_shape"} & set(vars(g)) == {part}
        assert getattr(g, name) is value

    @pytest.mark.parametrize("with_inverse", [False, True])
    def test_bundle_is_freed_with_its_surface(self, with_inverse):
        # no reference cycle may keep a dropped surface's bundle alive, so
        # the collector stays off while the surface is dropped
        s = harmonic_surface(1.0, HARMONIC_TERMS, SPEC16)
        surfaces = (s, invert(s)) if with_inverse else (s,)
        for t in surfaces:
            geometry(t).normal, geometry(t).kappa   # both lazy parts built
        del surfaces, t
        ref = weakref.ref(geometry(s))
        gc.disable()
        try:
            del s
            assert ref() is None
        finally:
            gc.enable()

    def test_an_inverse_is_new_and_does_not_hold_its_original(self):
        # the collector stays off, so only a link from si could keep s alive
        s = harmonic_surface(1.0, HARMONIC_TERMS, SPEC16)
        assert invert(s) is not invert(s)
        si, ref = invert(s), weakref.ref(s)
        gc.disable()
        try:
            del s
            assert ref() is None
        finally:
            gc.enable()
        assert si.values.shape == SPEC16.shape

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
        assert np.all(si.values == 1.0)
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
        vals = np.exp(6.0 * real_harmonic(20, 11, SPEC32))
        g = geometry(StarShapedHypersurface(ScalarField(SPEC32, vals)))
        # the guard's (tr g)^2 / det g = (tr gbar)^2 / (s^2 v), in its bits
        st = g.grid.sin_theta[:, None]
        ratio = (g.gbar[0] + g.gbar[2]) ** 2 / (st * st * (1.0 + g.grad_log_sq))
        monkeypatch.setattr(rg, "_COND_LIMIT", 1e3)
        s = StarShapedHypersurface(ScalarField(SPEC32, vals))
        with pytest.raises(ResolutionError) as err:
            geometry(s)
        # the node in plain ints, where the ratio is largest
        node = re.fullmatch(r"first fundamental form condition number \S+ "
                            r"exceeds 1000 at node \((\d+), (\d+)\)", str(err.value))
        assert node is not None, str(err.value)
        worst = np.unravel_index(ratio.argmax(), ratio.shape)
        assert tuple(map(int, node.groups())) == worst

    @pytest.mark.parametrize("factor, raises", [(0.99, True), (1.01, False)])
    def test_condition_threshold(self, monkeypatch, harmonic64, factor, raises):
        # the largest condition number of the bundle's metric, from the
        # eigenvalues of each 2x2 g_ij; the guard fires just below it only
        import icflab.radial_graph as rg
        g00, g01, g11 = geometry(harmonic64).metric
        eig = np.linalg.eigvalsh(np.stack([g00, g01, g01, g11], -1).reshape(
            g00.shape + (2, 2)))
        cond = float((eig[..., 1] / eig[..., 0]).max())
        monkeypatch.setattr(rg, "_COND_LIMIT", factor * cond)
        grid, f = make_grid(harmonic64.spec), harmonic64.values
        if raises:
            with pytest.raises(ResolutionError):
                oracles.value_curvature(grid, f)
        else:
            oracles.value_curvature(grid, f)

    def test_non_finite_derivatives_raise_resolution_error(self, monkeypatch,
                                                           spheroid64):
        # a NaN partial at one node must be reported as lost resolution,
        # not as the cone violation the NaN curvatures would look like
        chart_derivatives = Grid.chart_derivatives

        def with_nan(grid, C2):
            d = chart_derivatives(grid, C2)
            d[2, 5, 7] = np.nan
            return d

        monkeypatch.setattr(Grid, "chart_derivatives", with_nan)
        with pytest.raises(ResolutionError, match="non-finite"):
            oracles.value_curvature(make_grid(spheroid64.spec), spheroid64.values)
        with pytest.raises(ResolutionError, match="non-finite"):
            step(spheroid64, SpeedFunction.parse("H"), 1e-4)

    def test_non_finite_derivatives_name_the_first_node(self, monkeypatch,
                                                        spheroid64):
        chart_derivatives = Grid.chart_derivatives

        def with_nan(grid, C2):
            d = chart_derivatives(grid, C2)
            d[0, 9, 3] = np.inf     # a later node, on an earlier partial
            d[2, 5, 7] = np.nan
            return d

        monkeypatch.setattr(Grid, "chart_derivatives", with_nan)
        with pytest.raises(ResolutionError) as err:
            oracles.value_curvature(make_grid(spheroid64.spec), spheroid64.values)
        assert str(err.value) == "non-finite derivatives of log f at node (5, 7)"

    def test_smooth_surfaces_stay_well_conditioned(self, spheroid64):
        geometry(spheroid64)  # must not raise at the production limit
