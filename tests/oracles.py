"""Independent oracles used to pin expected values.

Everything here is deliberately separate from the package's computation
paths: parametric (not radial-graph) surface formulas, classical
plane-curve curvature, the dimension-generic radial-graph mean curvature,
the general-n invariant tensor E(a) and its eigenvalues, the covariant
Hessian on the round sphere, the grid's tables from scalar
order-by-order loops (the bit-identical reference for its all-orders
recurrence), full-height Legendre tables and their theta derivatives
(degree recurrence and Legendre equation, not the grid's northern half
tables and order ladder), the chart derivatives and curvature of grid
values through a mean-free analysis (the reference for the kernel on
coefficients), an adaptive reference integrator, the light-cone image
of round spheres and the conformal factor of a flow map, the spectral
orientation of a mapped surface's direction map, the node-by-node
Hsiung-Minkowski residual, Qbar through a second geometry bundle of
the inverted surface, the element-by-element JSON null walk, the
value of a field read from its (v, M, b) coefficients, the affine
non-conformal control field and the convex `|A|` control speed, the
conformal Killing residual and finite-difference quadratic check of a
field, the explicit 4-stage reference integrator of the graph flow, and
frozen constants produced by the quadrature routines in this file.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from icflab.flow import SpeedFunction
from icflab.radial_graph import (StarShapedHypersurface, curvature, invert,
                                 sigma_integral)
from icflab.soliton import basis_fields
from icflab.sphere_grid import ScalarField, make_grid

# frozen outputs of spheroid_integrals(1.0, 0.6) at 400 nodes; the area
# agrees with the closed form 2*pi*a^2 + pi*c^2/e*log((1+e)/(1-e)) to 2e-13
SPHEROID_A = 1.0
SPHEROID_C = 0.6
SPHEROID_AREA = 9.3894383728806758
SPHEROID_INT_H = 22.105741591530041
SPHEROID_WILLMORE = 58.805094258165511
SPHEROID_Q1 = SPHEROID_INT_H / SPHEROID_AREA**0.5


def spheroid_principal_curvatures(a, c, u):
    """Principal curvatures of the surface of revolution
    (a sin u cos v, a sin u sin v, c cos u), outward orientation."""
    g = np.sqrt(a**2 * np.cos(u) ** 2 + c**2 * np.sin(u) ** 2)
    k_meridian = a * c / g**3
    k_parallel = c / (a * g)
    return k_meridian, k_parallel


def spheroid_H_at_graph_nodes(a, c, theta):
    """Mean curvature at the radial-graph colatitudes theta, through the
    parametric chart (independent of the radial-graph formulas)."""
    f = 1.0 / np.sqrt(np.sin(theta) ** 2 / a**2 + np.cos(theta) ** 2 / c**2)
    u = np.arctan2(f * np.sin(theta) / a, f * np.cos(theta) / c)
    km, kp = spheroid_principal_curvatures(a, c, u)
    return km + kp


def spheroid_integrals(a, c, n_nodes=400):
    """Surface integrals by parametric quadrature: area, int H, int H^2,
    int K (the last equals 4*pi by Gauss-Bonnet, a built-in sanity check)."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    u = 0.5 * np.pi * (x + 1.0)
    wu = 0.5 * np.pi * w
    g = np.sqrt(a**2 * np.cos(u) ** 2 + c**2 * np.sin(u) ** 2)
    km, kp = spheroid_principal_curvatures(a, c, u)
    dA = 2.0 * np.pi * a * np.sin(u) * g
    H = km + kp
    return {
        "area": float(np.sum(wu * dA)),
        "int_H": float(np.sum(wu * H * dA)),
        "int_H2": float(np.sum(wu * H * H * dA)),
        "int_K": float(np.sum(wu * km * kp * dA)),
    }


def spheroid_closed_area(a, c):
    e = np.sqrt(1.0 - c**2 / a**2)
    return 2.0 * np.pi * a**2 + np.pi * c**2 / e * np.log((1.0 + e) / (1.0 - e))


def circle_curvature(f, df, d2f):
    """Classical curvature of the polar curve r = f(phi)."""
    return (f**2 + 2.0 * df**2 - f * d2f) / (f**2 + df**2) ** 1.5


def graph_mean_curvature(f, grad_sq, lam_laplacian, lam_hess_quad, n):
    """Mean curvature of a radial graph from log-derivative data.

    grad_sq = |grad lam|^2, lam_laplacian = Delta lam, lam_hess_quad =
    grad^i lam grad^j lam hess_ij lam, all on the round unit sphere of
    dimension n.  Dimension-generic; the S^1 (closed curve) case serves
    as an independent cross-check of the formula.
    """
    v = 1.0 + grad_sq
    return (n - lam_laplacian + lam_hess_quad / v) / (f * np.sqrt(v))


def loop_legendre(x, s, L, M):
    """Orthonormal P_l^m(x), Condon-Shortley phase, shape (M+1, x.size,
    L+1) (zero for l < m): the standard stable recurrences as a scalar
    loop over (m, l), one order at a time.  s is the signed sin(theta)."""
    P = np.zeros((M + 1, x.size, L + 1))
    diag = np.full(x.size, np.sqrt(1.0 / (4.0 * np.pi)))
    P[0, :, 0] = diag
    for m in range(1, M + 1):
        diag = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * diag
        P[m, :, m] = diag
    for m in range(M + 1):
        if m + 1 <= L:
            P[m, :, m + 1] = np.sqrt(2.0 * m + 3.0) * x * P[m, :, m]
        for l in range(m + 2, L + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt((2.0 * l + 1.0) * (l + m - 1.0) * (l - m - 1.0)
                        / ((2.0 * l - 3.0) * (l * l - m * m)))
            P[m, :, l] = a * x * P[m, :, l - 1] - b * P[m, :, l - 2]
    return P


def loop_tables(grid):
    """Dense (T3, TW, dfs) of `grid` from order-by-order loops, whose order
    blocks the grid's `_T3`, `_TW` and `_dfs` store at degrees l >= m0:
    `loop_legendre` of every order up to l_max at the northern rows, the
    Td / Tdd order ladder one order at a time, and the double-Fourier
    table from `loop_legendre` at 2 l_max + 2 angles, transformed over
    theta on its middle axis.  The grid must match these bit for bit."""
    nt, L, M = grid.spec.n_theta, grid.l_max, grid.m_max
    nh = (nt + 1) // 2
    P = loop_legendre(grid.cos_theta[:nh], grid.sin_theta[:nh], L, L)

    def slab(m):
        if abs(m) > L:
            return np.zeros((nh, L + 1))
        return P[m] if m >= 0 else (-1.0) ** (-m) * P[-m]

    lv = np.arange(L + 1, dtype=float)

    def ap(m):
        return np.sqrt(np.clip((lv - m) * (lv + m + 1.0), 0.0, None))

    def am(m):
        return np.sqrt(np.clip((lv + m) * (lv - m + 1.0), 0.0, None))

    T3 = np.empty((M + 1, 3, nh, L + 1))
    T3[:, 2] = P[: M + 1]
    for m in range(M + 1):
        T3[m, 0] = 0.5 * (ap(m) * slab(m + 1) - am(m) * slab(m - 1))
        A = ap(m) * ap(m + 1)
        B = (lv - m) * (lv + m + 1.0) + (lv + m) * (lv - m + 1.0)
        C = am(m) * am(m - 1)
        T3[m, 1] = 0.25 * (A * slab(m + 2) - B * slab(m) + C * slab(m - 2))
    w = grid.w_theta[:nh] * (2.0 * np.pi / grid.spec.n_phi)
    w[nt // 2:] *= 0.5
    TW = np.swapaxes(T3[:, 2], 1, 2) * w

    n = 2 * L + 2
    th = 2.0 * np.pi * np.arange(n) / n
    F = np.fft.rfft(loop_legendre(np.cos(th), np.sin(th), L, M),
                    axis=1)[:, : L + 1] * (2.0 / n)
    F[:, 0] *= 0.5
    odd = (grid.m_values % 2 == 1)[:, None, None]
    return T3, TW, np.where(odd, -F.imag, F.real)


def full_height_tables(grid):
    """(P, Td, Tdd): P_l^m(cos theta), its first and second theta
    derivatives at every colatitude node, each (m_max+1, n_theta,
    l_max+1).  P comes from `loop_legendre` at all nodes, not from the grid's
    northern half tables; Td from the degree recurrence
    sin(theta) dP_l^m/dtheta = l cos(theta) P_l^m - e_lm P_{l-1}^m, and
    Tdd from the associated Legendre equation
    P'' = -cot(theta) P' - (l(l+1) - m^2/sin^2(theta)) P, not from the
    grid's order ladder."""
    x, s = grid.cos_theta[:, None], grid.sin_theta[:, None]
    P = loop_legendre(grid.cos_theta, grid.sin_theta, grid.l_max, grid.m_max)
    ell = grid.ell.astype(float)
    m = grid.m_values[:, None, None].astype(float)
    e = np.sqrt(np.clip(ell * ell - m * m, 0.0, None) * (2.0 * ell + 1.0)
                / np.maximum(2.0 * ell - 1.0, 1.0))
    P_prev = np.zeros_like(P)
    P_prev[..., 1:] = P[..., :-1]                        # P_{l-1}^m
    Td = (ell * x * P - e * P_prev) / s
    Tdd = -(x / s) * Td - (ell * (ell + 1.0) - m * m / (s * s)) * P
    return P, Td, Tdd


def whole_table_analysis(grid, values):
    """`Grid.analysis` as one matmul of every order with the whole
    full-height weighted Legendre table, zero triangle l < m included."""
    F = np.fft.rfft(values, axis=1)[:, : grid.m_max + 1].T
    weighted = np.swapaxes(full_height_tables(grid)[0], 1, 2) * (
        grid.w_theta * 2.0 * np.pi / grid.spec.n_phi)
    C2 = np.matmul(weighted, np.stack([F.real, F.imag], axis=-1))
    C2[0, :, 1] = 0.0
    return C2


def whole_table_synthesis(grid, table, C2):
    """Grid values of sum_{l,m} table[m, :, l] C_lm e^{i m phi}: one matmul
    of every order with the whole table, then one inverse FFT."""
    G = np.matmul(table, C2)
    nt, nph = grid.spec.shape
    buf = np.zeros((nt, nph // 2 + 1), dtype=complex)
    buf[:, : grid.m_max + 1] = (G[..., 0] + 1j * G[..., 1]).T
    return np.fft.irfft(buf, n=nph, axis=-1) * nph


def whole_table_synth(grid, C2):
    """Every `Grid.synth_*` (and `synthesis`) of C2, by method name, from
    whole full-height table products; a phi-derivative multiplies order m
    by i m."""
    m = grid.m_values[:, None, None]
    im_C2 = np.concatenate([-m * C2[..., 1:], m * C2[..., :1]], axis=-1)
    lap_C2 = -(grid.ell * (grid.ell + 1.0))[None, :, None] * C2
    P, Td, Tdd = full_height_tables(grid)
    return {name: whole_table_synthesis(grid, table, coeffs)
            for name, table, coeffs in (
                ("synthesis", P, C2), ("synth_dtheta", Td, C2),
                ("synth_d2theta", Tdd, C2), ("synth_dphi", P, im_C2),
                ("synth_d2phi", P, -m * m * C2),
                ("synth_dtheta_dphi", Td, im_C2),
                ("synth_laplacian", P, lap_C2))}


def whole_table_chart_derivatives(grid, C2):
    """(f_t, f_p, f_tt, f_tp, f_pp) of `Grid.chart_derivatives` of C2 from
    whole full-height table syntheses."""
    s = whole_table_synth(grid, C2)
    return tuple(s[name] for name in ("synth_dtheta", "synth_dphi", "synth_d2theta",
                                      "synth_dtheta_dphi", "synth_d2phi"))


def value_chart_derivatives(grid, values):
    """(f_t, f_p, f_tt, f_tp, f_pp) of grid values by the route the grid
    took before its chart derivatives took coefficients: remove the node
    mean, analyse, then the one stacked partials product.  The reference
    for the coefficient route of the flow's stages."""
    return grid.chart_derivatives(grid.analysis(values - values.mean()))


def value_curvature(grid, f):
    """`curvature` of the radial graph of grid values f, with log f taken
    at the nodes and its chart derivatives by `value_chart_derivatives`
    (the route `geometry` keeps)."""
    lam = np.log(f)
    return curvature(grid, grid.analysis(lam - lam.mean()), f)


def covariant_hessian(grid, values):
    """Second covariant derivative nabla_i nabla_j f on the round sphere,
    as (..., 2, 2) matrices in the (theta, phi) chart, from the grid's
    chart partials and the Christoffel symbols Gamma^theta_{phi phi} =
    -sin cos and Gamma^phi_{theta phi} = cot(theta)."""
    ft, fp, ftt, ftp, fpp = value_chart_derivatives(grid, values)
    st, ct = grid.sin_theta[:, None], grid.cos_theta[:, None]
    return stack_sym2(ftt, ftp - (ct / st) * fp, fpp + st * ct * ft)


def translated_sphere_graph(radius, center, grid):
    """Radial graph of the sphere |X - center| = radius (closed form),
    valid while the origin is enclosed."""
    st, ct = grid.sin_theta[:, None], grid.cos_theta[:, None]
    sph, cph = np.sin(grid.phi)[None, :], np.cos(grid.phi)[None, :]
    p = np.stack([st * cph, st * sph, ct * np.ones_like(cph)], axis=-1)
    cp = np.tensordot(p, np.asarray(center, dtype=float), axes=(-1, 0))
    return cp + np.sqrt(cp**2 + radius**2 - np.dot(center, center))


def spectral_orientation(grid, Y):
    """(C_theta x C_phi) . Y at the nodes, with C the spectral interpolant
    of the mapped node coordinates Y (nt, nph, 3): positive exactly where
    the direction map of the mapped surface preserves orientation, so
    its sign is the star-shapedness certificate of the image."""
    coeffs = [grid.analysis(Y[..., c]) for c in range(3)]
    Ct = np.stack([grid.synth_dtheta(C) for C in coeffs], axis=-1)
    Cp = np.stack([grid.synth_dphi(C) for C in coeffs], axis=-1)
    return np.einsum("ijc,ijc->ij", np.cross(Ct, Cp), Y)


def dop853_flow(field, t_end, x0, rtol=3e-14):
    """Adaptive eighth-order (DOP853) reference for the flow of a
    conformal Killing field from the points x0 (..., 3), integrated as
    one system; rtol sits just above the integrator's floor."""
    x0 = np.asarray(x0, dtype=float)
    sol = solve_ivp(lambda _, y: quadratic_form(field, y.reshape(-1, 3))[0].ravel(),
                    (0.0, float(t_end)), x0.ravel(), method="DOP853",
                    rtol=rtol, atol=1e-2 * rtol)
    assert sol.success, sol.message
    return sol.y[:, -1].reshape(x0.shape)


def light_cone_map(field, t):
    """exp(tA) in R^{4,1} for the time-t flow of a conformal Killing field
    (v, S, mu, b), by scipy's matrix exponential."""
    v, b, S = field.v, field.b, field.skew_matrix
    A = np.zeros((5, 5))
    A[:3, :3] = S
    A[:3, 3], A[:3, 4] = v + b, v - b
    A[3, :3], A[4, :3] = -(v + b), v - b
    A[3, 4] = A[4, 3] = -field.mu
    return expm(t * A)


def mobius_sphere_image(field, t, center, radius):
    """Center and radius of the image of the sphere |X - center| = radius
    under the time-t flow of a conformal Killing field (v, S, mu, b).

    With <x, y> = x_0 y_0 + ... + x_3 y_3 - x_4 y_4 on R^{4,1}, the points
    lift to null vectors (X, (1-|X|^2)/2, (1+|X|^2)/2), and the sphere is
    the set orthogonal to the spacelike sigma = (c, (1+R^2-|c|^2)/2,
    (1-R^2+|c|^2)/2).  The flow acts by exp(tA), which preserves <,>, so
    the image is the sphere orthogonal to exp(tA) sigma."""
    c = np.asarray(center, dtype=float)
    cc = c @ c
    sigma = light_cone_map(field, t) @ np.concatenate(
        [c, [0.5 * (1.0 + radius**2 - cc), 0.5 * (1.0 - radius**2 + cc)]])
    k = sigma[3] + sigma[4]
    c_img = sigma[:3] / k
    return c_img, float(np.sqrt(c_img @ c_img + (sigma[3] - sigma[4]) / k))


def conformal_factor(field, t, x):
    """e^u at points x (P, 3) of the time-t map Phi of a conformal Killing
    field, |d Phi(x) w| = e^u |w|: the lift (x, (1-|x|^2)/2, (1+|x|^2)/2)
    of x has xi_3 + xi_4 = 1, and its image under exp(tA) projects to
    Phi(x) after division by its own xi_3 + xi_4 =: s, so lengths at
    Phi(x) are those at x divided by s, e^u = 1/s."""
    xx = np.sum(x * x, axis=1)
    xi = np.column_stack([x, 0.5 * (1.0 - xx), 0.5 * (1.0 + xx)])
    xi = xi @ light_cone_map(field, t).T
    return 1.0 / (xi[:, 3] + xi[:, 4])


def min_norm_translated_sphere_fit(radius, c3):
    """Hand-derived minimum-norm soliton parameters for the inverse mean
    curvature flow on a sphere of the given radius centered at (0,0,c3).

    The exact-fit constraints reduce by symmetry to two linear equations
    in (v3, mu, b3): matching the constant and the degree-one parts of
    the normal speed radius/2, i.e.

        mu + 2 c3 b3 = 1/2
        v3 + mu c3 + (radius^2 + c3^2) b3 = 0;

    the minimum-norm solution is the pseudoinverse applied to (1/2, 0).
    """
    A = np.array([[0.0, 1.0, 2.0 * c3],
                  [1.0, c3, radius**2 + c3**2]])
    y = np.array([0.5, 0.0])
    return A.T @ np.linalg.solve(A @ A.T, y)


def stack_sym2(c00, c01, c11):
    """(..., 2, 2) symmetric matrices from (00, 01, 11) chart components."""
    return np.stack([np.stack([c00, c01], -1), np.stack([c01, c11], -1)], -2)


def second_form(curv, f):
    """h_ij = (f / sqrt v) hbar_ij as (00, 01, 11) chart components, from
    the `curvature` output `curv` of the graph function f."""
    return tuple(f / curv.sqv * hbar for hbar in curv.hbar)


def e_tensor_stacked(metric, second_form, a, n=2):
    """E(a) = H h + (a H^2 - ((2an+1)/2)|A|^2) g - (n/2) h g^-1 h on stacked
    (..., 2, 2) matrices, for any n: no n = 2 identity is used.  g^-1 is
    np.linalg.inv of the metric, H = tr(g^-1 h), |A|^2 = tr((g^-1 h)^2)."""
    g, h = stack_sym2(*metric), stack_sym2(*second_form)
    g_inv = np.linalg.inv(g)
    S = g_inv @ h
    H = np.trace(S, axis1=-2, axis2=-1)[..., None, None]
    absA2 = np.trace(S @ S, axis1=-2, axis2=-1)[..., None, None]
    return (H * h + (a * H**2 - 0.5 * (2 * a * n + 1) * absA2) * g
            - 0.5 * n * h @ g_inv @ h)


def e_eigenvalues(kappa, a):
    """g-eigenvalues of E(a), one per principal curvature, in the general-n
    form -(n/2)(kappa_i - H/n)^2 - ((2an+1)/2)|A0|^2, n = kappa.shape[-1]."""
    n = kappa.shape[-1]
    dev_sq = (kappa - kappa.sum(-1, keepdims=True) / n) ** 2
    return (-0.5 * n * dev_sq
            - 0.5 * (2 * a * n + 1) * dev_sq.sum(-1, keepdims=True))


def willmore_rate_stacked(geom, grid, speed, n=2):
    """int n(n-1) H^{n-2} g^ij d_i H d_j s - n s H^{n-1} (|A|^2 - H^2/n) dmu,
    pairing the chart gradients through np.linalg.inv of the stacked metric."""
    CH, Cs = grid.analysis(geom.H), grid.analysis(speed)
    dH = np.stack([grid.synth_dtheta(CH), grid.synth_dphi(CH)], -1)[..., None, :]
    ds = np.stack([grid.synth_dtheta(Cs), grid.synth_dphi(Cs)], -1)[..., :, None]
    pair = (dH @ np.linalg.inv(stack_sym2(*geom.metric)) @ ds)[..., 0, 0]
    norm_A_sq = geom.H**2 - 2.0 * geom.K
    return geom.integrate(n * (n - 1) * geom.H ** (n - 2) * pair
                          - n * speed * geom.H ** (n - 1)
                          * (norm_A_sq - geom.H**2 / n))


def hsiung_minkowski_residual_pointwise(geom, V, k, n=2):
    """int alpha_V sigma_k / C(n,k) - <V, nu> sigma_{k+1} / C(n,k+1) dmu
    over the L1 size of its two integrands, evaluating the field and its
    conformal factor at every node."""
    value, alpha = quadratic_form(V, geom.position)
    vn = np.einsum("...c,...c->...", value, geom.normal)
    sigma = (np.ones_like(geom.H), geom.H, geom.K)
    lhs = alpha * sigma[k] / math.comb(n, k)
    rhs = vn * sigma[k + 1] / math.comb(n, k + 1)
    residual = geom.integrate(lhs - rhs)
    scale = geom.integrate(np.abs(lhs)) + geom.integrate(np.abs(rhs))
    return residual / max(scale, 1e-300)


def qbar_two_bundles(surface):
    """(Qbar, lower, upper) as `invariants.qbar` defines them, with the
    inverse's area and total mean curvature integrated on its own
    geometry bundle, built from invert(surface), rather than read off the
    bundle of the surface through the inversion relation."""
    inverse = invert(surface)
    area_s, area_inv = sigma_integral(surface, 0), sigma_integral(inverse, 0)
    value = (sigma_integral(surface, 1) / area_s ** 0.5
             + sigma_integral(inverse, 1) / area_inv ** 0.5)
    r, R = surface.values.min(), surface.values.max()
    sphere_area = make_grid(surface.spec).integrate_values(np.ones(surface.spec.shape))
    base = 4.0 * sphere_area / (area_s * area_inv) ** 0.25
    return value, (r / R) ** 1.5 * base, (R / r) ** 1.5 * base


def finite_or_null_recursive(obj):
    """The payload with every non-finite float replaced by None, one
    recursive call per element."""
    if isinstance(obj, dict):
        return {k: finite_or_null_recursive(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [finite_or_null_recursive(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def elementary_symmetric(kappa):
    """sigma_0..sigma_n of the last axis by the one-entry-at-a-time
    recurrence, for any n."""
    n = kappa.shape[-1]
    e = np.zeros(kappa.shape[:-1] + (n + 1,))
    e[..., 0] = 1.0
    for i in range(n):
        for k in range(i + 1, 0, -1):
            e[..., k] = e[..., k] + kappa[..., i] * e[..., k - 1]
    return e


def evaluate_scattered_recurrence(grid, C2_stack, theta_s, phi_s):
    """Values, theta and phi partials of K coefficient sets at scattered
    points, by running the associated Legendre recurrence at the points in
    an (m, l) double loop; the theta partial divides by sin(theta), so the
    points must avoid the poles."""
    theta_s = np.atleast_1d(np.asarray(theta_s, dtype=float))
    phi_s = np.atleast_1d(np.asarray(phi_s, dtype=float))
    K = C2_stack.shape[0]
    Pn = theta_s.size
    xs = np.cos(theta_s)
    ss = np.sin(theta_s)
    L, M = grid.l_max, grid.m_max

    C = C2_stack[..., 0] + 1j * C2_stack[..., 1]          # (K, M+1, L+1)
    val = np.zeros((K, Pn))
    dth = np.zeros((K, Pn))
    dph = np.zeros((K, Pn))

    diag = np.full(Pn, np.sqrt(1.0 / (4.0 * np.pi)))
    for m in range(M + 1):
        if m > 0:
            diag = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * ss * diag
        acc = np.zeros((K, Pn), dtype=complex)
        acc_t = np.zeros((K, Pn), dtype=complex)
        p_prev = np.zeros(Pn)
        p_cur = diag
        for l in range(m, L + 1):
            if l > m:
                a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = 0.0 if l == m + 1 else np.sqrt(
                    (2.0 * l + 1.0) * (l + m - 1.0) * (l - m - 1.0)
                    / ((2.0 * l - 3.0) * (l * l - m * m)))
                p_next = a * xs * p_cur - b * p_prev
                p_prev, p_cur = p_cur, p_next
            acc += C[:, m, l][:, None] * p_cur
            e = np.sqrt((l * l - m * m) * (2.0 * l + 1.0) / max(2.0 * l - 1.0, 1.0))
            dp = (l * xs * p_cur - e * p_prev) / ss
            acc_t += C[:, m, l][:, None] * dp
        phase = np.exp(1j * m * phi_s)
        wgt = 1.0 if m == 0 else 2.0
        val += wgt * (acc * phase).real
        dth += wgt * (acc_t * phase).real
        dph += wgt * (1j * m * acc * phase).real
    return val, dth, dph


def quadratic_form(field, x):
    """V(x) = v + M x + 2<b, x> x - |x|^2 b and alpha_V(x) = tr(M)/3 +
    2<b, x> at points (..., 3), read from a field's `coefficients`
    (v, M, b) and `alpha_coefficients` (tr(M)/3, 2b): the form that
    conformal Killing fields and affine fields (b = 0) share."""
    v, M, b = field.coefficients
    c = field.alpha_coefficients
    x = np.asarray(x, dtype=float)
    bx = np.tensordot(x, b, axes=(-1, 0))[..., None]
    xx = np.sum(x * x, axis=-1)[..., None]
    return (v + x @ M.T + 2.0 * bx * x - xx * b,
            c[0] + np.tensordot(x, c[1:], axes=(-1, 0)))


@dataclass
class AffineField:
    """The affine field v + M x, conformal exactly when the symmetric
    trace-free part of M vanishes: the non-conformal control of the
    Hsiung-Minkowski identities (criterion 4) and of the conformal
    Killing equation.  It carries what `icflab.invariants` reads of a
    field: `coefficients` (v, M, 0) and `alpha_coefficients` (tr(M)/3, 0)."""

    v: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float).reshape(3)
        self.M = np.asarray(self.M, dtype=float).reshape(3, 3)
        if not (np.isfinite(self.v).all() and np.isfinite(self.M).all()):
            raise ValueError("non-finite field parameters")

    @property
    def coefficients(self):
        return self.v, self.M, np.zeros(3)

    @property
    def alpha_coefficients(self):
        return np.array([np.trace(self.M) / 3.0, 0.0, 0.0, 0.0])


def curvature_norm_speed() -> SpeedFunction:
    """The Euclidean norm of the shape operator, sqrt(sum kappa_i^2) =
    sqrt(H^2 - 2K), on the positive cone H > 0, K > 0, with diffusivity
    sum_i kappa_i / |A| = H / sqrt(H^2 - 2K).

    Degree-1 homogeneous, symmetric, positive and monotone on the
    positive cone, but convex rather than concave: the negative control
    of the concavity audit (criterion 10).  No spelling parses to it.
    """
    return SpeedFunction("|A|", lambda H, K: np.sqrt(H * H - 2.0 * K),
                         lambda H, K: (H > 0.0) & (K > 0.0),
                         lambda H, K: H / np.sqrt(H * H - 2.0 * K))


def ckf_parameter_form(field, x):
    """v + S x + mu x + 2<b,x>x - |x|^2 b and mu + 2<b,x> of a conformal
    Killing field at points (..., 3), from its parameters (v, S, mu, b)."""
    bx = x @ field.b
    value = (field.v + x @ field.skew_matrix.T + field.mu * x
             + 2.0 * bx[..., None] * x - np.sum(x * x, axis=-1)[..., None] * field.b)
    return value, field.mu + 2.0 * bx


def affine_parameter_form(field, x):
    """v + x M^T and tr(M)/3 of an affine field at points (..., 3)."""
    return field.v + x @ field.M.T, np.full(x.shape[:-1], np.trace(field.M) / 3.0)


def design_matrix_columns(geom):
    """<V_a, nu> of the ten soliton basis fields (translations, rotations,
    dilation, special conformal), built column by column from the
    parameter form: nu, (S_a X) . nu, X . nu and 2(X . nu)X - |X|^2 nu."""
    pos = geom.position.reshape(-1, 3)
    nu = geom.normal.reshape(-1, 3)
    cols = np.empty((pos.shape[0], 10))
    cols[:, 0:3] = nu
    for a, V in enumerate(basis_fields()[3:6], start=3):
        cols[:, a] = np.einsum("pc,pc->p", pos @ V.skew_matrix.T, nu)
    xn = np.einsum("pc,pc->p", pos, nu)
    xx = np.einsum("pc,pc->p", pos, pos)
    cols[:, 6] = xn
    for i in range(3):
        cols[:, 7 + i] = 2.0 * pos[:, i] * xn - xx * nu[:, i]
    return cols


def killing_residual(field, x) -> float:
    """Operator norm of DV + DV^T - 2 alpha Id at a point, with DV in
    closed form from the field's (v, M, b): DV = M + 2<b,X> Id + 2 X b^T
    - 2 b X^T.  Zero exactly when the field satisfies the conformal
    Killing equation there."""
    _, M, b = field.coefficients
    x = np.asarray(x, dtype=float)
    J = M + 2.0 * (x @ b) * np.eye(3) + 2.0 * np.outer(x, b) - 2.0 * np.outer(b, x)
    R = J + J.T - 2.0 * float(quadratic_form(field, x)[1]) * np.eye(3)
    return float(np.max(np.abs(np.linalg.eigvalsh(R))))


def component_quadratic_check(V, seed: int = 0, n_probes: int = 8) -> dict:
    """Verify by finite differences that every component of V is a
    quadratic polynomial whose second derivatives match
    D_i D_j V^k = d_{jk} D_i a + d_{ik} D_j a - d_{ij} D_k a,
    a = div(V)/(n+1), with D a = 2b from the field's (v, M, b).

    Returns a report with the largest third difference and the largest
    deviation of the finite-difference second derivative from the
    displayed affine-factor formula.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.5, 1.5, size=(n_probes, 3))
    h = 0.5
    eye = np.eye(3)
    grad_alpha = 2.0 * V.coefficients[2]

    max_third = 0.0
    max_second_dev = 0.0
    signs = np.array([-1.0, 1.0])
    for x in pts:
        for i in range(3):
            for j in range(3):
                # central second difference; exact for quadratics at any h
                fpp = quadratic_form(V, x + h * eye[i] + h * eye[j])[0]
                fpm = quadratic_form(V, x + h * eye[i] - h * eye[j])[0]
                fmp = quadratic_form(V, x - h * eye[i] + h * eye[j])[0]
                fmm = quadratic_form(V, x - h * eye[i] - h * eye[j])[0]
                second = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
                expected = (eye[j] * grad_alpha[i] + eye[i] * grad_alpha[j]
                            - eye[i, j] * grad_alpha)
                max_second_dev = max(max_second_dev,
                                     float(np.abs(second - expected).max()))
                # triple central difference; vanishes identically for
                # quadratic components
                for k in range(3):
                    third = np.zeros(3)
                    for s1 in signs:
                        for s2 in signs:
                            for s3 in signs:
                                y = x + h * (s1 * eye[i] + s2 * eye[j] + s3 * eye[k])
                                third = third + s1 * s2 * s3 * quadratic_form(V, y)[0]
                    third /= 8.0 * h**3
                    max_third = max(max_third, float(np.abs(third).max()))
    return {
        "max_third_difference": max_third,
        "max_second_derivative_deviation": max_second_dev,
        "quadratic": max_third < 1e-6,
        "matches_affine_factor": max_second_dev < 1e-6,
    }


def rk4_flow(surface, speed, t_end, dt_safety=0.2):
    """The graph flow df/dt = sqrt(1 + |grad log f|^2) / rho(kappa) to
    t_end by the classical explicit 4-stage scheme, with the parabolic
    step bound dt_safety h_min^2 / max(D / (rho^2 f^2)), D the speed's
    diffusivity, and after each step the exponential filter exp(-36 x^4)
    above 0.9 l_max, x the distance from that cutoff over the rest of the
    band.  Returns the surface at t_end."""
    grid = make_grid(surface.spec)
    ell = grid.ell.astype(float)
    lc = 0.9 * grid.l_max
    x = (ell - lc) / (grid.l_max - lc)
    damp = np.where(ell > lc, np.exp(-36.0 * x**4), 1.0)
    h_min = min(np.pi / surface.spec.n_theta, 2.0 * np.pi / surface.spec.n_phi)

    def rhs(f):
        c = value_curvature(grid, f)
        return c, c.sqv / speed.rho(c.H, c.K)

    f, t = surface.values, 0.0
    while t < t_end - 1e-14:
        c, k1 = rhs(f)
        rho = speed.rho(c.H, c.K)
        D = speed.diffusivity(c.H, c.K) / (rho * f) ** 2
        dt = min(dt_safety * h_min**2 / float(D.max()), t_end - t)
        k2 = rhs(f + 0.5 * dt * k1)[1]
        k3 = rhs(f + 0.5 * dt * k2)[1]
        k4 = rhs(f + dt * k3)[1]
        f = f + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        f = grid.synthesis(grid.analysis(f) * damp[:, None])
        t += dt
    return StarShapedHypersurface(ScalarField(surface.spec, f))
