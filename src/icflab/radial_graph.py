"""Extrinsic geometry of star-shaped hypersurfaces.

A closed star-shaped hypersurface is the radial graph {f(p) p : p in S^n}
of a positive function f on the unit sphere.  With lam = log f and the
round metric sigma, the induced geometry is, in chart components,

    g_ij   = f^2 (sigma_ij + lam_i lam_j)
    dmu    = f^n sqrt(1 + |grad lam|^2) dmu_round
    nu     = (p - grad^k lam d_k p) / sqrt(1 + |grad lam|^2)
    h_ij   = f (sigma_ij + lam_i lam_j - hess_ij lam) / sqrt(1 + |grad lam|^2)

with nu the outward unit normal, so round spheres have H = n/R > 0 and
principal curvatures 1/R.  `curvature` is the one kernel that evaluates
them on a grid, from the harmonic coefficients of lam and the values of
f, and returns them as a geometry bundle that holds the grid: `geometry`
looks a surface's grid up by spec, the one place that does, analyses lam
and caches the bundle on the surface, where a flow step starts, and the
flow passes the coefficients of its stages.  The kernel returns
H = g^ij h_ij and K = det h / det g in closed form from the f-free
factors gbar = sigma + dlam dlam and hbar = gbar - hess lam, so it never
forms g, g^-1 or h; the flow reads only H, K and sqrt(1 + |grad lam|^2).
The bundle's kernel part is what the kernel computed.  Its other fields
are built from that part, each group on the first read of one of its
fields, so a reader pays only for what it reads: g, the area element,
the frame part (position and normal) and the shape part (g^-1, the
principal curvatures from h, and |A0|^2).  Inverting the surface about
the unit sphere (f -> 1/f) relates mean curvatures through

    H_inverted = -f^2 H + 2 n f / sqrt(1 + |grad lam|^2),

which `inversion_mean_curvature_check` certifies numerically against an
independent second geometry computation (`invariants.qbar` relies on it).
A surface owns its geometry: `geometry` builds the bundle on the first call
and returns the same object after that; the bundle holds the surface's
values, never the surface.  The formulas hold for general n; every surface
here is a radial graph over S^2, so the code writes them at n = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateSurfaceError, ResolutionError
from .sphere_grid import Grid, GridSpec, ScalarField, make_grid

__all__ = [
    "POSITIVITY_FLOOR",
    "StarShapedHypersurface",
    "GeometryBundle",
    "curvature",
    "geometry",
    "sigma_integral",
    "invert",
    "inversion_mean_curvature_check",
]

POSITIVITY_FLOOR = 1e-8
_COND_LIMIT = 1e8


@dataclass(frozen=True)
class StarShapedHypersurface:
    """Radial graph f over S^2, a closed star-shaped surface in R^3, with
    POSITIVITY_FLOOR < f < 1 / POSITIVITY_FLOOR at every node (f[i] the
    node in row-major order, as a surface file stores them).  The surface
    keeps a private read-only copy of the values it is given, so the
    geometry bundle it caches always describes it."""

    f: ScalarField

    _geometry = None    # the bundle set by `geometry`, not a dataclass field

    def __post_init__(self):
        values = np.array(self.f.values)
        # f and 1 / f both above the floor, so that the inverse is a surface
        for i in (values.argmin(), values.argmax()):
            if not POSITIVITY_FLOOR < values.flat[i] < 1.0 / POSITIVITY_FLOOR:
                raise DegenerateSurfaceError(
                    f"graph function reaches {values.flat[i]:g} at f[{i}] "
                    f"(bounds {POSITIVITY_FLOOR:g} and {1.0 / POSITIVITY_FLOOR:g})")
        values.setflags(write=False)
        object.__setattr__(self, "f", ScalarField(self.f.spec, values))

    @property
    def spec(self) -> GridSpec:
        return self.f.spec

    @property
    def values(self) -> np.ndarray:
        return self.f.values


@dataclass(frozen=True)
class GeometryBundle:
    """Per-node extrinsic geometry of an n = 2 surface, as `curvature`
    returns it.  The kernel part, the dataclass fields, is what the
    kernel computes: `H`, `K`, `grad_log_sq`, `sqv`, the f-free factors
    `gbar` and `hbar`, `lam_grad`, and the `grid`, coefficients `lam` and
    node values `_f` it read.  `metric`, `area_density`, the frame part
    (`position`, `normal`) and the shape part (`metric_inv`, `kappa`,
    `tracefree_sq`) are each built once, on the first read of one of
    their fields, from the kernel part, by the formulas an eager build
    would use in the same order, so every field has the same bits
    whenever it is read.  `geometry` marks the kernel part read-only,
    and every array built later, including each component of the chart
    tensors, is read-only too.

    Index conventions: the symmetric chart tensors are (00, 01, 11)
    tuples of (nt, nph) component arrays in (theta, phi) order; `gbar`
    and `hbar` are the f-free factors of the first and second forms,
    g = f^2 gbar and h = (f / sqv) hbar, with det gbar = sin^2(theta) v;
    h is not kept, since every reader needs only its invariants.  `H`
    and `K` are kappa_1 + kappa_2 and kappa_1 kappa_2, the elementary
    symmetric polynomials sigma_1 and sigma_2 of the principal
    curvatures (sigma_0 is 1); `kappa` is sorted ascending;
    `tracefree_sq` comes from the trace-free discriminant, so it is >= 0
    and keeps its digits at umbilic points, where |A|^2 - H^2/2 cancels.
    `lam` holds the harmonic coefficients of log f, shape
    (m_max+1, l_max+1, 2), with the node mean at degree 0 only; a flow
    step starts from them.
    """

    grid: Grid                  # the grid the kernel ran on
    lam: np.ndarray             # harmonic coefficients of lam = log f
    lam_grad: tuple             # (d_theta, d_phi) of lam
    grad_log_sq: np.ndarray     # |grad lam|^2 on the round sphere
    sqv: np.ndarray             # sqrt(v), v = 1 + |grad lam|^2
    gbar: tuple                 # sigma_ij + lam_i lam_j
    hbar: tuple                 # sigma_ij + lam_i lam_j - hess_ij lam
    H: np.ndarray               # mean curvature g^ij h_ij = sum kappa_i
    K: np.ndarray               # Gauss curvature det h / det g = kappa_1 kappa_2
    _f: np.ndarray              # node values of f

    # the frame part
    position = property(lambda b: b._frame[0])      # (nt, nph, 3) ambient points f*p
    normal = property(lambda b: b._frame[1])        # (nt, nph, 3) outward unit normal
    # the shape part
    metric_inv = property(lambda b: b._shape[0])    # g^ij
    kappa = property(lambda b: b._shape[1])         # (nt, nph, 2) principal curvatures
    tracefree_sq = property(lambda b: b._shape[2])  # |A - (H/2) g|^2

    @cached_property
    def metric(self) -> tuple:
        """g_ij = f^2 gbar_ij."""
        f2 = self._f * self._f
        return _read_only(tuple(g_ij * f2 for g_ij in self.gbar))

    @cached_property
    def area_density(self) -> np.ndarray:
        """dmu / dmu_round = f^2 sqv."""
        return _read_only(self._f * self._f * self.sqv)

    def integrate(self, values: np.ndarray) -> float:
        """Surface integral of a per-node quantity against dmu."""
        return self.grid.integrate_values(values * self.area_density)

    @cached_property
    def _frame(self) -> tuple[np.ndarray, np.ndarray]:
        """(position, normal): nu = (p - grad^k lam d_k p) / sqv."""
        p, e_t, e_p = self.grid.node_frame
        st = self.grid.sin_theta[:, None]
        e_p = e_p * st[..., None]               # the chart's d/dphi, sin(theta) e_phi
        lt, lp = self.lam_grad
        lp_up = lp / st**2
        nu = (p - lt[..., None] * e_t - lp_up[..., None] * e_p) / self.sqv[..., None]
        return _read_only((self._f[..., None] * p, nu))

    @cached_property
    def _shape(self) -> tuple[tuple, np.ndarray, np.ndarray]:
        """(metric_inv, kappa, tracefree_sq), from the shape operator."""
        f = self._f
        st = self.grid.sin_theta[:, None]
        # g^-1 = adj gbar / (f^2 s^2 v), h = (f / sqv) hbar
        f2 = f * f
        g00, g01, g11 = self.gbar
        inv_det = 1.0 / (f2 * st**2 * (1.0 + self.grad_log_sq))
        gi00, gi01, gi11 = g11 * inv_det, -g01 * inv_det, g00 * inv_det
        fac = f / self.sqv
        h00, h01, h11 = (h_ij * fac for h_ij in self.hbar)

        # trace-free discriminant of S = g^-1 h, (kappa_2 - kappa_1)^2 / 4;
        # H^2/4 - K cancels at umbilics.  |A0|^2 = sum (kappa_i - H/2)^2 is
        # twice it.
        half_diff = 0.5 * (gi00 * h00 - gi11 * h11)             # (S00 - S11) / 2
        S01 = gi00 * h01 + gi01 * h11
        S10 = gi01 * h00 + gi11 * h01
        disc_sq = np.clip(half_diff * half_diff + S01 * S10, 0.0, None)
        disc = np.sqrt(disc_sq)
        kappa = np.stack([0.5 * self.H - disc, 0.5 * self.H + disc], axis=-1)
        return _read_only(((gi00, gi01, gi11), kappa, 2.0 * disc_sq))


def _read_only(value):
    """Mark every array in value, a (nested) tuple, read-only; return it."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value


def curvature(grid: Grid, lam: np.ndarray, f: np.ndarray) -> GeometryBundle:
    """The curvature kernel: H and K of the radial graph of f on an n = 2
    grid, with the f-free chart factors they are built from, as a
    geometry bundle's kernel part; it forms neither g, g^-1 and h (the
    bundle does, on first read) nor principal curvatures.
    lam holds the harmonic coefficients of log f, shape (m_max+1,
    l_max+1, 2), and f its values at the nodes: `geometry` analyses
    log f, the flow passes the coefficients it steps.  The degree-0
    coefficient changes no output value.

    With s = sin(theta) and det gbar = s^2 v, in closed form

        H = (gbar11 hbar00 - 2 gbar01 hbar01 + gbar00 hbar11) / (f s^2 v^3/2)
        K = det hbar / (f^2 s^2 v^2).

    Raises ResolutionError that names a node: the first with a non-finite
    derivative of log f, or the largest tr(g)^2/det(g) = c + 1/c + 2 if
    it exceeds C + 1/C + 2, the condition number c of g above C =
    _COND_LIMIT, read at call time (f cancels, so gbar gives the ratio).
    """
    d = grid.chart_derivatives(lam)
    if not np.all(np.isfinite(d)):
        node = np.unravel_index(int(np.argmin(np.isfinite(d).all(axis=0))), d.shape[1:])
        raise ResolutionError(
            f"non-finite derivatives of log f at node {tuple(map(int, node))}")
    lt, lp, ltt, ltp, lpp = d

    st, ct = grid.sin_theta[:, None], grid.cos_theta[:, None]
    s2 = st * st
    grad_sq = lt * lt + lp * lp / s2
    v = 1.0 + grad_sq
    sqv = np.sqrt(v)

    g00 = 1.0 + lt * lt
    g01 = lt * lp
    g11 = s2 + lp * lp
    det_g = s2 * v
    ratio = (g00 + g11) ** 2 / det_g                        # c + 1/c + 2
    node = np.unravel_index(int(ratio.argmax()), ratio.shape)
    q = float(ratio[node]) - 2.0                            # max c + 1/c
    del ratio                   # freed before hbar, H and K are allocated
    if q > _COND_LIMIT + 1.0 / _COND_LIMIT:
        raise ResolutionError(
            f"first fundamental form condition number {0.5 * (q + np.sqrt(q * q - 4.0)):.3g}"
            f" exceeds {_COND_LIMIT:g} at node {tuple(map(int, node))}")

    # the covariant Hessian of lam on the round sphere enters hbar
    h00 = g00 - ltt
    h01 = g01 - ltp + (ct / st) * lp
    h11 = g11 - lpp - (st * ct) * lt

    f_det = f * det_g
    H = (g11 * h00 - 2.0 * g01 * h01 + g00 * h11) / (f_det * sqv)
    K = (h00 * h11 - h01 * h01) / (f_det * f * v)
    return GeometryBundle(grid, lam, (lt, lp), grad_sq, sqv, (g00, g01, g11),
                          (h00, h01, h11), H, K, f)


def geometry(surface: StarShapedHypersurface) -> GeometryBundle:
    """Geometry bundle of a star-shaped surface, built on the first call
    and returned again on every later one.  The call builds the kernel
    part, with one analysis and one kernel evaluation, and marks it
    read-only; every other field waits for its first read."""
    if surface._geometry is not None:
        return surface._geometry
    grid = make_grid(surface.spec)
    f = surface.values
    # the node mean goes in at degree 0 only: analysed, it leaves eps |mean|
    # at every degree, which l(l+1) amplifies (8.5e-12 of H at 64x128)
    log_f = np.log(f)
    mean = log_f.mean()
    lam = grid.analysis(log_f - mean)
    lam[0, 0, 0] += math.sqrt(4.0 * math.pi) * mean
    bundle = curvature(grid, lam, f)
    for value in vars(bundle).values():
        _read_only(value)
    object.__setattr__(surface, "_geometry", bundle)
    return bundle


def sigma_integral(surface: StarShapedHypersurface, k: int) -> float:
    """Integral of the k-th elementary symmetric curvature polynomial,
    1, H or K for k = 0, 1, 2: the area, the total mean curvature and
    the total Gauss curvature."""
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1 or 2")
    geom = geometry(surface)
    return geom.integrate((np.ones_like(geom.H), geom.H, geom.K)[k])


def invert(surface: StarShapedHypersurface) -> StarShapedHypersurface:
    """Inversion about the unit sphere at the origin, f -> 1/f, as a new
    surface on every call; inverting twice gives f back to within one ulp."""
    return StarShapedHypersurface(ScalarField(surface.spec, 1.0 / surface.values))


def inversion_mean_curvature_check(surface: StarShapedHypersurface) -> float:
    """Sup norm of the residual of the mean-curvature relation between a
    surface and its inversion, computed through two independent geometry
    evaluations; a small sup norm certifies the identity at the grid's
    resolution.
    """
    geom, geom_inv = geometry(surface), geometry(invert(surface))
    f = surface.values
    predicted = -f**2 * geom.H + 4.0 * f / geom.sqv
    return float(np.abs(geom_inv.H - predicted).max())
