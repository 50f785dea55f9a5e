import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from icflab.errors import GridMismatchError
from icflab.invariants import willmore_rate
from icflab.sphere_grid import (_ORDER_BLOCK, _SCATTER_BLOCK, Grid, GridSpec,
                               ScalarField, _exp_powers, make_grid)
from icflab.surfaces import sphere_surface

import oracles
from conftest import SPEC16, SPEC32, SPEC64, nodes


def laplacian(spec, values):
    """Laplace-Beltrami of grid values; the node mean is removed first, as
    `oracles.value_chart_derivatives` does."""
    g = make_grid(spec)
    return g.synth_laplacian(g.analysis(values - values.mean()))


def gradient(spec, values):
    """Covector components (d_theta f, d_phi f)."""
    return oracles.value_chart_derivatives(make_grid(spec), values)[:2]


def hessian(spec, values):
    return oracles.covariant_hessian(make_grid(spec), values)


def scattered_sets(g, C, theta, phi, derivatives=False):
    """`Grid.evaluate_scattered` of each coefficient set C[k], stacked as
    (K, P) arrays (one each for the values and both partials)."""
    return np.stack([g.evaluate_scattered(Ck, theta, phi, derivatives=derivatives)
                     for Ck in C], axis=-2)


class TestGridSpec:
    def test_rejects_small_grids(self):
        with pytest.raises(ValueError):
            GridSpec(7, 32)
        with pytest.raises(ValueError):
            GridSpec(8, 14)

    def test_rejects_odd_n_phi(self):
        with pytest.raises(ValueError):
            GridSpec(16, 33)

    def test_nodes_avoid_poles(self):
        g = make_grid(SPEC32)
        theta = np.arccos(g.cos_theta)
        assert theta[0] > 0.0 and theta[-1] < np.pi
        assert np.all(np.diff(theta) > 0.0)
        assert np.all(g.weights > 0.0)

    @pytest.mark.parametrize("n", [16, 25, 128, 256])
    def test_sin_theta_is_within_an_ulp_or_so(self, n):
        # sqrt((1 - x)(1 + x)) against an extended-precision reference;
        # sin(arccos x) is off by up to 74 ulp at n = 256, and numpy's
        # arccos gives other bits on CPUs without AVX-512
        g = make_grid(GridSpec(n, 32))
        x = g.cos_theta.astype(np.longdouble)
        ref = np.sqrt((1 - x) * (1 + x))
        assert np.abs((g.sin_theta - ref) / np.spacing(g.sin_theta)).max() <= 1.1


class TestQuadrature:
    @pytest.mark.parametrize("spec", [GridSpec(8, 16), SPEC16, SPEC32, SPEC64])
    def test_constant_gives_sphere_area(self, spec):
        total = make_grid(spec).integrate_values(np.ones(spec.shape))
        assert abs(total / (4.0 * np.pi) - 1.0) < 1e-12

    def test_odd_function_integrates_to_zero(self):
        T, _ = nodes(SPEC32)
        assert abs(make_grid(SPEC32).integrate_values(np.cos(T))) < 1e-13

    def test_cos_squared(self):
        # analytic: int cos^2(theta) dmu = 4 pi / 3
        T, _ = nodes(SPEC32)
        assert_allclose(make_grid(SPEC32).integrate_values(np.cos(T) ** 2),
                        4.0 * np.pi / 3.0, rtol=1e-14)

    def test_legendre_orthonormal_at_128(self):
        # 2 pi sum_i w_i P_l^m P_k^m = delta_lk is exact in the quadrature;
        # it holds to round-off only with accurate weights
        g = make_grid(GridSpec(128, 256))
        P = oracles.full_height_tables(g)[0]
        for m in (0, 5, 20):
            Pm = P[m][:, m:]
            gram = 2.0 * np.pi * (Pm.T * g.w_theta) @ Pm
            assert np.abs(gram - np.eye(len(gram))).max() < 1e-13, m

    def test_constant_round_trip_at_128(self):
        g = make_grid(GridSpec(128, 256))
        one = np.ones(g.spec.shape)
        assert np.abs(g.synthesis(g.analysis(one)) - 1.0).max() < 1e-12

    def test_polynomial_exactness_in_cos_theta(self):
        # exact through degree 2*n_theta - 1
        spec = GridSpec(8, 16)
        T, _ = nodes(spec)
        for k in range(2 * spec.n_theta):
            exact = 2.0 * np.pi * (1.0 + (-1.0) ** k) / (k + 1.0)
            got = make_grid(spec).integrate_values(np.cos(T) ** k)
            assert abs(got - exact) < 1e-12 * max(1.0, abs(exact))

    def test_trigonometric_exactness_in_phi(self):
        spec = GridSpec(8, 16)
        T, P = nodes(spec)
        g = make_grid(spec)
        for m in range(1, spec.n_phi):
            assert abs(g.integrate_values(np.cos(m * P) + 0.0 * T)) < 1e-12


class TestGradient:
    def test_cos_theta(self):
        T, _ = nodes(SPEC32)
        ft, fp = gradient(SPEC32, np.cos(T))
        assert np.abs(ft + np.sin(T)).max() < 1e-10
        assert np.abs(fp).max() < 1e-12

    def test_constant(self):
        ft, fp = gradient(SPEC32, np.full(SPEC32.shape, 3.25))
        assert np.abs(ft).max() < 1e-12
        assert np.abs(fp).max() < 1e-12

    def test_gradient_norm_of_y11(self):
        # |grad(sin cos phi)|^2 = cos^2 cos^2 phi + sin^2 phi, by symbolic
        # differentiation
        T, P = nodes(SPEC32)
        ft, fp = gradient(SPEC32, np.sin(T) * np.cos(P))
        # raised components sigma^ij d_j f = (d_theta f, d_phi f / sin^2)
        gt, gp = ft, fp / np.sin(T) ** 2
        grad_sq = ft * gt + fp * gp
        exact = np.cos(T) ** 2 * np.cos(P) ** 2 + np.sin(P) ** 2
        assert np.abs(grad_sq - exact).max() < 1e-11


class TestHessian:
    def test_degree_one_harmonic_identity(self):
        # hess(cos theta) = -cos(theta) * round metric
        T, _ = nodes(SPEC32)
        comp = hessian(SPEC32, np.cos(T))
        sigma = np.zeros(SPEC32.shape + (2, 2))
        sigma[..., 0, 0] = 1.0
        sigma[..., 1, 1] = np.sin(T) ** 2
        assert np.abs(comp + np.cos(T)[..., None, None] * sigma).max() < 1e-10

    def test_constant(self):
        comp = hessian(SPEC32, np.full(SPEC32.shape, 2.0))
        assert np.abs(comp).max() < 1e-12

    def test_trace_equals_laplacian_everywhere(self):
        # also on a non-band-limited smooth field
        T, P = nodes(SPEC32)
        f = np.exp(np.sin(T) * np.cos(P))
        comp = hessian(SPEC32, f)
        trace = comp[..., 0, 0] + comp[..., 1, 1] / np.sin(T) ** 2
        lap = laplacian(SPEC32, f)
        scale = np.abs(lap).max()
        assert np.abs(trace - lap).max() < 1e-10 * scale


class TestLaplacian:
    def test_degree_one_eigenvalue(self):
        T, _ = nodes(SPEC32)
        f = np.cos(T)
        assert np.abs(laplacian(SPEC32, f) + 2.0 * f).max() < 1e-10

    def test_constant(self):
        f = np.full(SPEC32.shape, 1.5)
        assert np.abs(laplacian(SPEC32, f)).max() < 1e-12

    def test_degree_two_eigenvalue(self):
        # sin^2 cos(2 phi) is a degree-2 harmonic: eigenvalue -6
        T, P = nodes(SPEC32)
        f = np.sin(T) ** 2 * np.cos(2 * P)
        assert np.abs(laplacian(SPEC32, f) + 6.0 * f).max() < 1e-11


class TestOperatorProperties:
    def test_linearity(self, rng):
        g = make_grid(SPEC32)
        f1 = g.synthesis(g.analysis(rng.standard_normal(SPEC32.shape)))
        f2 = g.synthesis(g.analysis(rng.standard_normal(SPEC32.shape)))
        a, b = 1.7, -0.4
        for op in (laplacian, lambda s, f: gradient(s, f)[0],
                   lambda s, f: gradient(s, f)[1]):
            lhs = op(SPEC32, a * f1 + b * f2)
            rhs = a * op(SPEC32, f1) + b * op(SPEC32, f2)
            assert np.abs(lhs - rhs).max() < 1e-11 * (1.0 + np.abs(rhs).max())
        lhs = hessian(SPEC32, a * f1 + b * f2)
        rhs = a * hessian(SPEC32, f1) + b * hessian(SPEC32, f2)
        assert np.abs(lhs - rhs).max() < 1e-10 * (1.0 + np.abs(rhs).max())

    def test_coefficient_roundtrip(self, rng):
        g = make_grid(SPEC32)
        C = g.analysis(rng.standard_normal(SPEC32.shape))
        f = g.synthesis(C)
        assert np.abs(g.analysis(f) - C).max() < 1e-12
        assert np.abs(g.synthesis(g.analysis(f)) - f).max() < 1e-12

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(shape=st.sampled_from([(8, 16), (15, 32), (16, 32), (32, 64)]),
           seed=st.integers(0, 2**32 - 1), cap=st.floats(0.0, 1.0))
    def test_round_trip_of_band_limited_coefficients(self, shape, seed, cap):
        # coefficients of random node values, cut off above a random degree
        g = make_grid(GridSpec(*shape))
        C = g.analysis(np.random.default_rng(seed).standard_normal(shape))
        C[:, int(cap * g.l_max) + 1:] = 0.0
        f = g.synthesis(C)
        assert np.abs(g.synthesis(g.analysis(f)) - f).max() < 1e-12

    def test_tables_are_read_only(self):
        # a grid built here, not the cached one other tests share; odd
        # n_theta, so the northern rows include the equator, and 33 orders:
        # two full order blocks and a third of one order
        g = Grid(GridSpec(33, 66))
        L, nh = g.l_max, 17
        g._dfs
        assert [len(blk) for blk in g._T3] == [16, 16, 1]
        for k, (T3, TW, dfs) in enumerate(zip(g._T3, g._TW, g._dfs, strict=True)):
            n, m0 = len(T3), k * _ORDER_BLOCK
            assert T3.shape == (n, 3, nh, L + 1 - m0)
            assert TW.shape == (n, L + 1 - m0, nh)
            assert dfs.shape == (n, L + 1, L + 1 - m0)
            for table in (T3, TW, dfs):
                with pytest.raises(ValueError):
                    table[0, 0, 0] = 1.0
        north = g.legendre(20, 25)
        assert north.shape == (nh,)
        with pytest.raises(ValueError):
            north[0] = 1.0
        # degree 10 < m0 = 16 is not stored for order 20: no wrapped index
        for m, l in ((20, 10), (20, 19), (-1, 3), (0, L + 1), (33, 33)):
            with pytest.raises(ValueError):
                g.legendre(m, l)
        with pytest.raises(ValueError):
            g._even[0, 0] = False
        # the node frame is built once per grid and shared
        frame = g.node_frame
        assert g.node_frame is frame
        for arr in frame:
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 1.0

    def test_half_tables_halve_memory_at_128(self):
        # exact bytes of the order blocks at degrees l >= m0: full-height
        # (T3, TW) took 67,108,864 bytes at 128x256, dense half-height ones
        # 33,554,432, and the dense _dfs 16,777,216
        g = Grid(GridSpec(128, 256))
        assert sum(t.nbytes for t in g._T3 + g._TW) == 18_874_368
        assert sum(t.nbytes for t in g._dfs) == 9_437_184

    @pytest.mark.parametrize("shape", [(8, 16), (15, 32), (16, 16), (25, 32),
                                       (40, 80), (64, 128), (128, 256)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_tables_match_loop_oracle_bit_for_bit(self, shape):
        # the all-orders recurrence and blocked ladder against scalar
        # order-by-order loops: odd n_theta (the equator row); m_max = 7 <
        # l_max; odd with m_max + 2 < l_max, where the build stops its
        # recurrence at order m_max + 2; 40 orders, not a multiple of the
        # order block; and the two production grids.  Each block is its
        # orders' slice of the dense oracle at degrees l >= m0, and the
        # dense table is exactly zero at the degrees l < m0 it drops.
        g = make_grid(GridSpec(*shape))
        T3, TW, dfs = oracles.loop_tables(g)
        # _TW keeps degrees on its rows: compare it with degrees last
        for name, ref in (("_T3", T3), ("_TW", TW.swapaxes(1, 2)), ("_dfs", dfs)):
            blocks = getattr(g, name)
            assert len(blocks) == -(-(g.m_max + 1) // _ORDER_BLOCK), name
            for k, blk in enumerate(blocks):
                m0 = k * _ORDER_BLOCK
                m = slice(m0, m0 + _ORDER_BLOCK)
                got = blk.swapaxes(1, 2) if name == "_TW" else blk
                assert np.array_equal(got, ref[m, ..., m0:]), (name, k)
                assert not ref[m, ..., :m0].any(), (name, k)
        for m in range(g.m_max + 1):
            for l in range(m, g.l_max + 1):
                assert np.array_equal(g.legendre(m, l), T3[m, 2, :, l]), (m, l)

    def test_build_memory_at_128(self):
        # tracemalloc peaks of the grid build and of the lazily built
        # double-Fourier table on top of it, 26.8 and 43.0 MiB with order
        # blocks (32.7 and 64.4 with dense tables); a first build imports
        # numpy's lazily loaded modules, which would count otherwise
        Grid(GridSpec(8, 16))._dfs
        tracemalloc.start()
        try:
            g = Grid(GridSpec(128, 256))
            built, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            g._dfs
            dfs_peak = tracemalloc.get_traced_memory()[1] - built
        finally:
            tracemalloc.stop()
        assert build_peak <= 28 * 2**20
        assert dfs_peak <= 45 * 2**20

    @pytest.mark.parametrize(
        "spec", [GridSpec(15, 32), GridSpec(16, 16), GridSpec(40, 80), SPEC64],
        ids=["15x32", "16x16", "40x80", "64x128"])
    def test_blocked_products_match_whole_tables(self, spec, rng):
        # the half tables, order-blocked, against whole full-height oracle
        # tables: odd n_theta (the equator row); m_max = 7 < l_max = 15;
        # 40 orders, not a multiple of the order block; and the production
        # grid
        g = make_grid(spec)
        values = rng.standard_normal(spec.shape)

        def rel(a, b):
            return np.abs(a - b).max() / np.abs(b).max()

        C2 = oracles.whole_table_analysis(g, values)
        assert rel(g.analysis(values), C2) < 1e-13
        for name, ref in oracles.whole_table_synth(g, C2).items():
            assert rel(getattr(g, name)(C2), ref) < 1e-13, name
        derivs = g.chart_derivatives(C2)
        assert derivs.shape == (5,) + spec.shape
        for got, ref in zip(derivs, oracles.whole_table_chart_derivatives(g, C2),
                            strict=True):
            assert rel(got, ref) < 1e-13

    def test_convergence_order_exceeds_four(self):
        # smooth but not band-limited: errors of gradient, laplacian and
        # hessian trace must all fall much faster than 2^(order - 0.5)
        # with order 4 when the grid is refined
        def forms(spec):
            T, P = nodes(spec)
            g = 2.0 * np.sin(T) * np.cos(P)
            f = np.exp(g)
            dth = 2.0 * np.cos(T) * np.cos(P) * f
            grad_g_sq = 4.0 * (np.cos(T) ** 2 * np.cos(P) ** 2 + np.sin(P) ** 2)
            lap = f * (-2.0 * g + grad_g_sq)  # Delta e^g = e^g (Delta g + |grad g|^2)
            return f, dth, lap

        errs_g, errs_l, errs_h = [], [], []
        for spec in (GridSpec(8, 16), GridSpec(12, 24)):
            f, dth, lap = forms(spec)
            T, _ = nodes(spec)
            errs_g.append(np.abs(gradient(spec, f)[0] - dth).max())
            errs_l.append(np.abs(laplacian(spec, f) - lap).max())
            comp = hessian(spec, f)
            trace = comp[..., 0, 0] + comp[..., 1, 1] / np.sin(T) ** 2
            errs_h.append(np.abs(trace - lap).max())
        for errs in (errs_g, errs_l, errs_h):
            assert errs[0] / max(errs[1], 1e-300) > 2.0 ** 3.5

    def test_grid_mismatch_rejected(self):
        # a speed field sampled on another grid than the surface
        speed = ScalarField(SPEC16, np.ones(SPEC16.shape))
        with pytest.raises(GridMismatchError):
            willmore_rate(sphere_surface(1.0, SPEC32), speed)

    def test_scattered_evaluation_matches_grid(self, rng):
        g = make_grid(SPEC32)
        f = g.synthesis(g.analysis(rng.standard_normal(SPEC32.shape)))
        C = g.analysis(f)
        ii, jj = [3, 17, 30], [5, 40, 61]
        v, dt, dp = g.evaluate_scattered(C, np.arccos(g.cos_theta[ii]), g.phi[jj],
                                         derivatives=True)
        assert np.abs(v - f[ii, jj]).max() < 1e-11
        assert np.abs(dt - g.synth_dtheta(C)[ii, jj]).max() < 1e-10
        assert np.abs(dp - g.synth_dphi(C)[ii, jj]).max() < 1e-10

    def test_scattered_evaluation_matches_recurrence_oracle(self, rng):
        g = make_grid(SPEC64)
        C = np.stack([g.analysis(rng.standard_normal(SPEC64.shape)) for _ in range(3)])

        def rel(a, b):
            return np.abs(a - b).max() / np.abs(b).max()

        # random points, two of them a milliradian from the poles
        theta = np.concatenate([[1e-3, np.pi - 1e-3], rng.uniform(0.0, np.pi, 300)])
        phi = rng.uniform(-np.pi, 2.0 * np.pi, theta.size)
        v, dt, dp = scattered_sets(g, C, theta, phi, derivatives=True)
        rv, rt, rp = oracles.evaluate_scattered_recurrence(g, C, theta, phi)
        assert rel(v, rv) < 1e-12
        assert rel(dp, rp) < 1e-12
        assert rel(dt, rt) < 1e-11     # the oracle divides by sin(theta)
        v_only = scattered_sets(g, C, theta, phi)
        assert np.abs(v_only - v).max() <= 1e-15 * np.abs(v).max()

        # on the poles only m = 0 survives: P_l^0(+-1) = (+-1)^l sqrt((2l+1)/4pi)
        at_pole = np.sqrt((2.0 * g.ell + 1.0) / (4.0 * np.pi))
        poles = scattered_sets(g, C, [0.0, np.pi], [0.7, 0.7])
        for sign, got in ((1.0, poles[:, 0]), (-1.0, poles[:, 1])):
            want = C[:, 0, :, 0] @ (sign ** g.ell * at_pole)
            assert np.abs(got - want).max() < 1e-12 * np.abs(v).max()

        # every grid node against the synthesis on the grid
        T, Ph = nodes(SPEC64)
        v, dt, dp = scattered_sets(g, C, T.ravel(), Ph.ravel(), derivatives=True)
        for k in range(3):
            assert rel(v[k], g.synthesis(C[k]).ravel()) < 1e-12
            assert rel(dp[k], g.synth_dphi(C[k]).ravel()) < 1e-12
            assert rel(dt[k], g.synth_dtheta(C[k]).ravel()) < 1e-11

    def test_scattered_blocks_at_128x256_match_recurrence_oracle(self, rng):
        # two full blocks and a ragged third; milliradian-from-pole points
        # on both sides of the first block boundary and in the last block
        spec = GridSpec(128, 256)
        g = make_grid(spec)
        C = np.stack([g.analysis(rng.standard_normal(spec.shape)) for _ in range(2)])
        n = 2 * _SCATTER_BLOCK + 37
        theta = rng.uniform(0.0, np.pi, n)
        near_poles = [_SCATTER_BLOCK - 1, _SCATTER_BLOCK, n - 2, n - 1]
        theta[near_poles] = [1e-3, np.pi - 1e-3, np.pi - 1e-3, 1e-3]
        phi = rng.uniform(-np.pi, 2.0 * np.pi, n)

        def rel(a, b):
            return np.abs(a - b).max() / np.abs(b).max()

        v, dt, dp = scattered_sets(g, C, theta, phi, derivatives=True)
        rv, rt, rp = oracles.evaluate_scattered_recurrence(g, C, theta, phi)
        assert rel(v, rv) < 1e-12
        assert rel(dp, rp) < 1e-12
        assert rel(dt, rt) < 1e-11     # the oracle divides by sin(theta)
        for k in near_poles:
            assert rel(v[:, k], rv[:, k]) < 1e-12
        v_only = scattered_sets(g, C, theta, phi)
        assert np.abs(v_only - v).max() <= 1e-15 * np.abs(v).max()

    def test_exp_powers_match_exp(self, rng):
        # angles on a 2^-40 lattice, |a| <= 2 pi, so that k * a is exact for
        # k < 128 and the reference carries only exp's own rounding
        a = np.concatenate([rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 4000),
                            [-2.0 * np.pi, 2.0 * np.pi, 0.0]])
        a = np.trunc(a * 2.0**40) / 2.0**40
        k = np.arange(128.0)[:, None]
        z = _exp_powers(a, 128)
        assert z.shape == (128, a.size)
        assert np.abs(z - np.exp(1j * k * a)).max() < 7e-14
        for n in (1, 2, 3, 64, 65):         # lengths off and on a doubling
            assert np.array_equal(_exp_powers(a, n), z[:n])
