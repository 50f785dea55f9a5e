"""Integral and pointwise functionals of star-shaped hypersurfaces.

Covers the Willmore energy with its first-variation rate, the
one-parameter family of pointwise conformal-invariant 2-tensors

    E_ij(a) = H h_ij + a H^2 g_ij - (n/2) h_i^k h_kj - ((2an+1)/2) |A|^2 g_ij,

whose g-eigenvalues in general dimension are
-(n/2)(kappa_i - H/n)^2 - ((2an+1)/2)|A0|^2, with |A0|^2 = |A|^2 - H^2/n,
the scale-invariant curvature quotients Q_k with their rate under
conformal transport, the Hsiung-Minkowski integral residuals with the
moment rows they share with the soliton fit, and the inversion-symmetric
quantity Qbar with its sharp two-sided bound.

In n = 2 the tensor family has a closed form.  Cayley-Hamilton for the
shape operator g^-1 h gives h g^-1 h = H h - K g, and |A|^2 = H^2 - 2K,
so the H h terms cancel and

    E(a) = (a H^2 + K - ((4a+1)/2)(H^2 - 2K)) g = -(2a+1) |A0|^2 g,

|A0|^2 = H^2/2 - 2K: both g-eigenvalues equal -(2a+1)|A0|^2.  E(a)
therefore vanishes exactly at umbilic points for every a != -1/2, and
identically at a = -1/2.  One number, max |A0|^2, gives every sup |E(a)|;
`energy_report` and the flow monitors print it as `tracefree_sq_sup`.

The Hsiung-Minkowski residual is linear in the field.  A field is read
through its `coefficients` (v, M, b) of V(X) = v + M X + 2<b, X> X -
|X|^2 b, with conformal factor alpha_V = tr(M)/3 + 2<b, X>, so

    <V, nu> = v . nu + sum_ij M_ij nu_i X_j + b . (2 (X . nu) X - |X|^2 nu)

is the product of the 15 coefficients (v, M row-major, b) of
`coefficient_vector` with the 15 `moment_rows` of the surface: nu (3),
nu_i X_j (9) and 2(X . nu)X - |X|^2 nu (3).  The Hsiung-Minkowski
residual, the soliton residual and the soliton fit all read these rows.
The residual takes both k from one pass over blocks of nodes.  Its signed
sums are linear in the field: the 15 coefficients and the 4
`alpha_coefficients` (tr M/3, 2b) of alpha_V contract the weighted
moments of the rows and of (1, X), summed pairwise (a matrix product's
long running sums lose digits to the cancellation between the two
sides).  The coefficients times those rows give <V, nu> and alpha_V of
every field, whose magnitudes give the L1 sizes.

Sign conventions follow the outward-normal, H > 0 orientation fixed in
`radial_graph`; every identity's sign is pinned by the round-sphere case.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import AuditError, ConvexityClassError, GridMismatchError, MeanConvexityError
from .radial_graph import StarShapedHypersurface, geometry, sigma_integral
from .sphere_grid import ScalarField

__all__ = [
    "DEFAULT_A_VALUES",
    "e_tensor",
    "willmore",
    "willmore_rate",
    "guan_li_q",
    "moment_rows",
    "coefficient_vector",
    "hsiung_minkowski_residual",
    "qk_rate",
    "qbar",
    "energy_report",
]


# the invariance audit's tensor parameters: it bounds every |2a+1|-scaled
# sup difference; -1/(2n) is where the general-n coefficient 2an+1
# vanishes, but in n = 2 E(-1/4) = -|A0|^2 g / 2 still detects umbilics
DEFAULT_A_VALUES = (-0.25, 0.0, 1.0)
_HM_BLOCK = 2048      # nodes per block of `hsiung_minkowski_residual`


def e_tensor(surface: StarShapedHypersurface,
             a: float) -> tuple[tuple, float]:
    """Pointwise conformal-invariant tensor E(a) and its sup operator norm.

    In n = 2, E(a) = -(2a+1)|A0|^2 g (see the module docstring).  The
    tensor is returned as the tuple (E00, E01, E11) of its (nt, nph)
    coordinate components in the fixed (theta, phi) chart, like
    `GeometryBundle.metric`; its operator norm against the induced metric
    is |2a+1| |A0|^2.  Warns at 2a+1 = 0, where E(a) vanishes identically.
    """
    k = 2.0 * a + 1.0
    if k == 0.0:
        warnings.warn(
            f"a = {a:g}: E(a) = -(2a+1)|A0|^2 g vanishes identically in "
            "n = 2 and does not detect umbilic points", stacklevel=2)
    geom = geometry(surface)
    c = -k * geom.tracefree_sq
    return tuple(c * g for g in geom.metric), abs(k) * float(geom.tracefree_sq.max())


def _mean_convex_geometry(surface: StarShapedHypersurface):
    """The geometry bundle; MeanConvexityError names the node of least H if it is <= 0."""
    geom = geometry(surface)
    idx = tuple(map(int, np.unravel_index(np.argmin(geom.H), geom.H.shape)))
    if geom.H[idx] <= 0.0:
        raise MeanConvexityError(f"H = {geom.H[idx]:g} at node {idx}; not mean-convex")
    return geom


def willmore(surface: StarShapedHypersurface) -> float:
    """Willmore energy: integral of H^2; requires mean convexity."""
    geom = _mean_convex_geometry(surface)
    return geom.integrate(geom.H ** 2)


def willmore_rate(surface: StarShapedHypersurface,
                  speed: ScalarField) -> float:
    """First-variation rate of the Willmore energy under the normal
    speed field (positive speed moves along the outward normal):

        d/dt int H^n dmu
            = int n(n-1) H^{n-2} <grad H, grad speed>
                  - n speed H^{n-1} (|A|^2 - H^2/n)  dmu.

    For the inverse-mean-curvature speed 1/H this reduces to
    -int n(n-1) H^{n-4} |grad H|^2 + n H^{n-2} (|A|^2 - H^2/n) dmu <= 0,
    vanishing exactly on round spheres.  In n = 2 the integrand is
    2 <grad H, grad speed> - 2 speed H |A0|^2.
    """
    if speed.spec != surface.spec:
        raise GridMismatchError("speed field lives on a different grid")
    geom = _mean_convex_geometry(surface)
    grid = geom.grid

    (dHt, dHp), (dst, dsp) = (grid.chart_derivatives(grid.analysis(x - x.mean()))[:2]
                              for x in (geom.H, speed.values))
    gi00, gi01, gi11 = geom.metric_inv
    grad_pair = gi00 * dHt * dst + gi01 * (dHt * dsp + dHp * dst) + gi11 * dHp * dsp

    return geom.integrate(2 * grad_pair - 2 * speed.values * geom.H * geom.tracefree_sq)


def guan_li_q(surface: StarShapedHypersurface, k: int) -> float:
    """Scale-invariant quotient (int sigma_k)^{1/(n-k)} /
    (int sigma_{k-1})^{1/(n-k+1)}; k = n is excluded (the outer exponent
    degenerates), so in n = 2 only k = 1 remains: int H dmu / |S|^{1/2}."""
    if k != 1:
        raise ValueError("k must be 1")
    num = sigma_integral(surface, k)
    den = sigma_integral(surface, k - 1)
    if num <= 0.0 or den <= 0.0:
        raise ConvexityClassError(
            f"curvature integrals not positive (k={k}): {num:g}, {den:g}")
    return num / den ** 0.5


def moment_rows(surface: StarShapedHypersurface) -> np.ndarray:
    """The 15 moment rows at the surface nodes, shape (15, nodes): nu (3),
    nu_i X_j row-major (9) and 2(X . nu)X - |X|^2 nu (3).  Their product
    with `coefficient_vector(V)` is <V, nu> at every node."""
    geom = geometry(surface)
    X = np.ascontiguousarray(geom.position.reshape(-1, 3).T)
    nu = np.ascontiguousarray(geom.normal.reshape(-1, 3).T)
    rows = np.empty((15, X.shape[1]))
    rows[:3] = nu
    np.multiply(nu[:, None, :], X[None, :, :], out=rows[3:12].reshape(3, 3, -1))
    x_nu, x_sq = np.einsum("cn,cn->n", X, nu), np.einsum("cn,cn->n", X, X)
    rows[12:] = 2.0 * x_nu * X - x_sq * nu
    return rows


def coefficient_vector(V) -> np.ndarray:
    """The 15 coefficients (v, M row-major, b) of V, in the order of
    `moment_rows`."""
    v, M, b = V.coefficients
    return np.concatenate([v, M.reshape(-1), b])


def hsiung_minkowski_residual(surface: StarShapedHypersurface,
                              fields) -> np.ndarray:
    """Relative residuals, shape (2, len(fields)), of the Minkowski-type
    integral identities for conformal ambient fields: row k = 0, 1 holds

        int alpha_V sigma_k / C(n,k) dmu = int <V, nu> sigma_{k+1} / C(n,k+1) dmu,

    true on every closed hypersurface when V is conformal Killing
    (outward-normal convention; on the round sphere with V = X both sides
    of k = 0 equal the area), each scaled by the L1 size of its two
    integrands.  Both rows come from one pass (see the module docstring).
    """
    geom = geometry(surface)
    dmu = (geom.grid.weights * geom.area_density).reshape(-1)
    weights = np.stack([dmu, dmu * geom.H.reshape(-1) / 2, dmu * geom.K.reshape(-1)])
    c_nu = np.array([coefficient_vector(V) for V in fields]).reshape(-1, 15)
    c_alpha = np.array([V.alpha_coefficients for V in fields]).reshape(-1, 4)

    # identity k weighs alpha_V by weight k and <V, nu> by weight k + 1
    rows = moment_rows(surface)
    ones_x = np.ones((4, dmu.size))   # (1, X), node-contiguous: np.sum runs pairwise
    ones_x[1:] = geom.position.reshape(-1, 3).T
    m_nu, m_alpha, l1 = np.zeros((15, 2)), np.zeros((4, 2)), np.zeros((len(fields), 2))
    for start in range(0, dmu.size, _HM_BLOCK):
        block = slice(start, start + _HM_BLOCK)
        nu, x1, w = rows[:, block], ones_x[:, block], weights[:, block]
        m_nu += np.sum(nu[:, None] * w[1:], axis=2)
        m_alpha += np.sum(x1[:, None] * w[:2], axis=2)
        l1 += np.abs(c_nu @ nu) @ np.abs(w[1:].T) + np.abs(c_alpha @ x1) @ np.abs(w[:2].T)
    return ((c_alpha @ m_alpha - c_nu @ m_nu) / np.maximum(l1, 1e-300)).T


def qk_rate(surface: StarShapedHypersurface, V, k: int) -> float:
    """Time derivative of Q_k when the surface is transported by the flow
    of the ambient field V (at t = 0):

        dQ_k/dt = (Q_k/(n+1)) (avg_{sigma_k} div V - avg_{sigma_{k-1}} div V),

    built from the evolution d/dt int sigma_l dmu = (l+1) int sigma_{l+1}
    <V, nu> dmu and the Minkowski identity; zero whenever div V is
    constant, and zero on every round sphere.
    """
    q = guan_li_q(surface, k)
    geom = geometry(surface)
    div = np.asarray(V.divergence(geom.position))
    avg_k = geom.integrate(geom.H * div) / sigma_integral(surface, 1)
    avg_km1 = geom.integrate(div) / sigma_integral(surface, 0)
    return -q / 3 * (avg_km1 - avg_k)


def qbar(surface: StarShapedHypersurface) -> tuple[float, float, float]:
    """Inversion-symmetric quantity Qbar = Q1(S) + Q1(S~) with
    Q1 = |S|^{-(n-1)/n} int H dmu and S~ the inversion of S, together
    with its sharp lower and upper bounds

        (r/R)^{3(n-1)/2} 2n|S^n| / (|S| |S~|)^{(n-1)/(2n)}  <=  Qbar
            <= (R/r)^{3(n-1)/2} 2n|S^n| / (|S| |S~|)^{(n-1)/(2n)},

    r and R the min and max of the graph function.  Equality holds
    exactly for round spheres; the bounds are verified before returning.
    S~ builds no bundle: it has area element f^-4 dmu and mean curvature
    -f^2 H + 4 f / sqv, as `inversion_mean_curvature_check` certifies (criterion 3).
    """
    geom, f = geometry(surface), surface.values
    dmu_inv = 1.0 / (f * f) ** 2
    area_s, area_inv = sigma_integral(surface, 0), geom.integrate(dmu_inv)
    H_inv = -f**2 * geom.H + 4.0 * f / geom.sqv
    value = (sigma_integral(surface, 1) / area_s ** 0.5
             + geom.integrate(H_inv * dmu_inv) / area_inv ** 0.5)

    r, R = f.min(), f.max()
    base = 4.0 * geom.grid.weights.sum() / (area_s * area_inv) ** 0.25  # 4 |S^2|
    lower, upper = (r / R) ** 1.5 * base, (R / r) ** 1.5 * base
    tol = 1e-9 * (1.0 + abs(value))
    if not (lower - tol <= value <= upper + tol):
        raise AuditError(f"Qbar = {value:.12g} escapes its bounds [{lower:.12g}, {upper:.12g}]")
    return value, lower, upper


def energy_report(surface: StarShapedHypersurface) -> dict:
    """The scalar diagnostics of one surface, as the dict `icflab diag`
    writes: max |A0|^2 stands for every sup |E(a)| = |2a+1| max |A0|^2,
    and the area is sigma_integrals[0].  `qbar`, which `icflab inequality`
    writes, reads the inverse off the same bundle."""
    return {
        "W": willmore(surface),
        "Q": {"1": guan_li_q(surface, 1)},
        "tracefree_sq_sup": float(geometry(surface).tracefree_sq.max()),
        "sigma_integrals": [sigma_integral(surface, k) for k in range(3)],
    }
