"""Conformal Killing fields of Euclidean space and their flows.

Every conformal Killing field of flat R^3 has the form

    V(X) = v + S X + mu X + 2 <b, X> X - |X|^2 b

with v, b vectors, mu a dilation rate and S a skew matrix (the rotation
generator; a non-skew linear part fails the conformal Killing equation,
which is why the skew generator rather than a full orthogonal matrix is
stored).  The conformal factor div(V)/(dim) is the affine function
mu + 2<b, X>, each component of V is a quadratic polynomial, and the
generated diffeomorphisms are conformal maps wherever they exist; the
special-conformal part can blow up in finite time, which is detected at
integration time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.spatial import cKDTree

from .errors import FlowBlowUpError, NotStarShapedError, ResolutionError
from .radial_graph import POSITIVITY_FLOOR, StarShapedHypersurface
from .sphere_grid import ScalarField, make_grid

__all__ = [
    "ConformalKillingField",
    "AffineField",
    "killing_residual",
    "flow_map",
    "pushforward_surface",
    "component_quadratic_check",
]

_AMBIENT_DIM = 3
_BLOWUP_RADIUS = 1e12


@dataclass
class ConformalKillingField:
    """Parameters (v, S, mu, b); S is stored by its strictly-lower
    triangle (rows (1,0), (2,0), (2,1)) so skewness holds exactly."""

    v: np.ndarray
    s_lower: np.ndarray
    mu: float
    b: np.ndarray

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float).reshape(_AMBIENT_DIM)
        self.s_lower = np.asarray(self.s_lower, dtype=float).reshape(_AMBIENT_DIM)
        self.mu = float(self.mu)
        self.b = np.asarray(self.b, dtype=float).reshape(_AMBIENT_DIM)
        for arr in (self.v, self.s_lower, self.b):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite field parameters")
        if not np.isfinite(self.mu):
            raise ValueError("non-finite field parameters")

    @classmethod
    def from_matrix(cls, v, S, mu, b) -> "ConformalKillingField":
        S = np.asarray(S, dtype=float)
        if not np.array_equal(S, -S.T):
            raise ValueError("rotation generator must be exactly skew")
        return cls(v, np.array([S[1, 0], S[2, 0], S[2, 1]]), mu, b)

    @property
    def skew_matrix(self) -> np.ndarray:
        a, b_, c = self.s_lower
        return np.array([[0.0, -a, -b_], [a, 0.0, -c], [b_, c, 0.0]])

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Field value at ambient points of shape (..., 3)."""
        x = np.asarray(x, dtype=float)
        bx = np.tensordot(x, self.b, axes=(-1, 0))[..., None]
        xx = np.sum(x * x, axis=-1)[..., None]
        return (self.v + x @ self.skew_matrix.T + self.mu * x
                + 2.0 * bx * x - xx * self.b)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Closed-form derivative matrix DV at points (..., 3) -> (..., 3, 3)."""
        x = np.asarray(x, dtype=float)
        eye = np.eye(_AMBIENT_DIM)
        bx = np.tensordot(x, self.b, axes=(-1, 0))[..., None, None]
        J = (self.skew_matrix + self.mu * eye + 2.0 * bx * eye
             + 2.0 * x[..., :, None] * self.b[None, :]
             - 2.0 * self.b[:, None] * x[..., None, :])
        return J

    def conformal_factor(self, x: np.ndarray) -> np.ndarray:
        """div(V)/(n+1) = mu + 2<b, x>; affine in x."""
        x = np.asarray(x, dtype=float)
        return self.mu + 2.0 * np.tensordot(x, self.b, axes=(-1, 0))

    def divergence(self, x: np.ndarray) -> np.ndarray:
        return _AMBIENT_DIM * self.conformal_factor(x)

    def conjugated(self, R: np.ndarray) -> "ConformalKillingField":
        """Parameters of R_* V for a rotation matrix R."""
        R = np.asarray(R, dtype=float)
        S = R @ self.skew_matrix @ R.T
        S = 0.5 * (S - S.T)
        return ConformalKillingField.from_matrix(R @ self.v, S, self.mu, R @ self.b)


@dataclass
class AffineField:
    """General affine ambient field v + M x; conformal exactly when the
    symmetric trace-free part of M vanishes.  Used as the negative
    control in conformal-identity tests."""

    v: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float).reshape(_AMBIENT_DIM)
        self.M = np.asarray(self.M, dtype=float).reshape(_AMBIENT_DIM, _AMBIENT_DIM)

    def evaluate(self, x):
        return self.v + np.asarray(x, dtype=float) @ self.M.T

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.M, x.shape[:-1] + (3, 3)).copy()

    def conformal_factor(self, x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], np.trace(self.M) / _AMBIENT_DIM)

    def divergence(self, x):
        return _AMBIENT_DIM * self.conformal_factor(x)


def killing_residual(field, x) -> float:
    """Operator norm of DV + DV^T - 2 alpha Id at a point; zero exactly
    when the field satisfies the conformal Killing equation there."""
    J = field.jacobian(x)
    R = J + np.swapaxes(J, -1, -2) \
        - 2.0 * np.asarray(field.conformal_factor(x))[..., None, None] * np.eye(3)
    return float(np.max(np.abs(np.linalg.eigvalsh(R))))


def flow_map(V, t: float, x: np.ndarray) -> np.ndarray:
    """Time-t point of the flow of V from x, by adaptive high-order ODE
    integration (tolerances well below 1e-10 per step).

    x may be a batch (..., 3); the whole batch is integrated as one
    system.  Raises FlowBlowUpError if any trajectory escapes past
    |x| = 1e12 or the integrator fails (finite-time blow-up of the
    special-conformal part).
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    if shape[-1] != _AMBIENT_DIM:
        raise ValueError("points must have a trailing axis of length 3")
    if t == 0.0:
        return x.copy()

    def rhs(_, y):
        return V.evaluate(y.reshape(-1, _AMBIENT_DIM)).ravel()

    def escaped(_, y):
        return _BLOWUP_RADIUS - float(np.max(np.abs(y)))

    escaped.terminal = True
    sol = solve_ivp(rhs, (0.0, float(t)), x.reshape(-1), method="DOP853",
                    rtol=1e-11, atol=1e-12, events=escaped)
    if sol.status == 1:
        raise FlowBlowUpError(f"trajectory escaped before t = {t:g}")
    if not sol.success:
        raise FlowBlowUpError(f"flow integration failed: {sol.message}")
    return sol.y[:, -1].reshape(shape)


def _nearest_cloud_start(directions, targets):
    """Index of the mapped direction closest to each target direction; on
    unit vectors the nearest point is the one of largest dot product."""
    return cKDTree(directions).query(targets)[1]


def _newton_ray_solve(grid, comp_coeffs, theta0, phi0, tangents):
    """Solve Yhat(theta, phi) parallel to the target directions.

    Newton steps are taken in the tangent plane of the current iterate
    (well conditioned arbitrarily close to the poles) with a step cap;
    the residual is measured against a fixed tangent basis at the target.
    """
    th, ph = theta0.copy(), phi0.copy()
    e1, e2 = tangents
    theta_lo, theta_hi = 1e-3, np.pi - 1e-3
    th = np.clip(th, theta_lo, theta_hi)
    Y = None
    for _ in range(60):
        vals, dth, dph = grid.evaluate_scattered(comp_coeffs, th, ph, derivatives=True)
        Y = vals.T
        E1 = np.einsum("pc,pc->p", Y, e1)
        E2 = np.einsum("pc,pc->p", Y, e2)
        scale = np.linalg.norm(Y, axis=1)
        err = np.hypot(E1, E2) / np.maximum(scale, 1e-300)
        if err.max() < 1e-12:
            return Y
        s_it = np.sin(th)
        J11 = np.einsum("cp,pc->p", dth, e1)
        J12 = np.einsum("cp,pc->p", dph, e1) / s_it
        J21 = np.einsum("cp,pc->p", dth, e2)
        J22 = np.einsum("cp,pc->p", dph, e2) / s_it
        det = J11 * J22 - J12 * J21
        if np.any(np.abs(det) < 1e-300):
            raise NotStarShapedError("degenerate ray equations during reconstruction")
        s1 = (E1 * J22 - E2 * J12) / det
        s2 = (E2 * J11 - E1 * J21) / det
        step = np.hypot(s1, s2)
        damp = np.minimum(1.0, 0.5 / np.maximum(step, 1e-300))
        s1, s2 = damp * s1, damp * s2
        ct_it, st_it = np.cos(th), s_it
        cp_it, sp_it = np.cos(ph), np.sin(ph)
        node = np.stack([st_it * cp_it, st_it * sp_it, ct_it], axis=-1)
        et_it = np.stack([ct_it * cp_it, ct_it * sp_it, -st_it], axis=-1)
        ep_it = np.stack([-sp_it, cp_it, np.zeros_like(sp_it)], axis=-1)
        new = node - s1[:, None] * et_it - s2[:, None] * ep_it
        new /= np.linalg.norm(new, axis=1, keepdims=True)
        th = np.clip(np.arccos(np.clip(new[:, 2], -1.0, 1.0)), theta_lo, theta_hi)
        ph = np.arctan2(new[:, 1], new[:, 0])
    if err.max() < 1e-10:
        return Y
    raise NotStarShapedError(
        "ray reconstruction did not converge; mapped surface is not a "
        "single-valued radial graph")


def pushforward_surface(V, t: float, surface: StarShapedHypersurface
                        ) -> StarShapedHypersurface:
    """Transport a star-shaped surface by the time-t flow of V and
    reconstruct it as a radial graph on the same grid.

    All surface points are integrated at once; the mapped surface is
    re-sampled along the grid rays by Newton inversion of its direction
    map (spectral interpolation of the mapped coordinates).  The
    reconstruction certifies star-shapedness: the direction map must be
    orientation-preserving at every node and every ray solve must
    converge to a single radius.
    """
    grid = surface.grid()
    spec = surface.spec
    st, ct = grid.sin_theta[:, None], grid.cos_theta[:, None]
    sph, cph = np.sin(grid.phi)[None, :], np.cos(grid.phi)[None, :]
    p = np.stack([st * cph, st * sph, ct * np.ones_like(cph)], axis=-1)
    X = surface.values[..., None] * p

    Y = flow_map(V, t, X.reshape(-1, 3)).reshape(X.shape) if t != 0.0 else X

    comp_coeffs = np.stack([grid.analysis(Y[..., c]) for c in range(3)])

    # orientation certificate of the mapped direction map
    Ct = np.stack([grid.synth_dtheta(comp_coeffs[c]) for c in range(3)], axis=-1)
    Cp = np.stack([grid.synth_dphi(comp_coeffs[c]) for c in range(3)], axis=-1)
    orient = np.einsum("ijc,ijc->ij", np.cross(Ct, Cp), Y)
    if orient.min() <= 0.0:
        raise NotStarShapedError(
            "mapped surface is not star-shaped about the origin "
            f"(orientation {orient.min():.3g})")

    nt, nph = spec.shape
    pk = p.reshape(-1, 3)
    e_t = np.stack([ct * cph, ct * sph, -st * np.ones_like(cph)], axis=-1).reshape(-1, 3)
    e_p0 = np.stack([-sph * np.ones_like(st), cph * np.ones_like(st),
                     np.zeros(spec.shape)], axis=-1).reshape(-1, 3)

    # warm start each ray from the nearest mapped sample direction
    radii_cloud = np.linalg.norm(Y.reshape(-1, 3), axis=1)
    if radii_cloud.min() <= POSITIVITY_FLOOR:
        raise NotStarShapedError("mapped surface touches the origin")
    seeds = _nearest_cloud_start(Y.reshape(-1, 3) / radii_cloud[:, None], pk)
    theta0 = np.repeat(grid.theta, nph)[seeds]
    phi0 = np.tile(grid.phi, nt)[seeds]

    Ysol = _newton_ray_solve(grid, comp_coeffs, theta0, phi0, (e_t, e_p0))
    radii = np.einsum("pc,pc->p", Ysol, pk)
    if radii.min() <= POSITIVITY_FLOOR:
        raise NotStarShapedError("mapped surface does not enclose the origin")
    if not np.all(np.isfinite(radii)):
        raise ResolutionError("non-finite radii after reconstruction")
    return StarShapedHypersurface(ScalarField(spec, radii.reshape(spec.shape)))


def component_quadratic_check(V, seed: int = 0, n_probes: int = 8) -> dict:
    """Verify by finite differences that every component of V is a
    quadratic polynomial whose second derivatives match
    D_i D_j V^k = d_{jk} D_i a + d_{ik} D_j a - d_{ij} D_k a,
    a = div(V)/(n+1).

    Returns a report with the largest third difference and the largest
    deviation of the finite-difference second derivative from the
    displayed affine-factor formula.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.5, 1.5, size=(n_probes, 3))
    h = 0.5
    eye = np.eye(3)
    grad_alpha = 2.0 * V.b if isinstance(V, ConformalKillingField) else None

    max_third = 0.0
    max_second_dev = 0.0
    signs = np.array([-1.0, 1.0])
    for x in pts:
        for i in range(3):
            for j in range(3):
                # central second difference; exact for quadratics at any h
                fpp = V.evaluate(x + h * eye[i] + h * eye[j])
                fpm = V.evaluate(x + h * eye[i] - h * eye[j])
                fmp = V.evaluate(x - h * eye[i] + h * eye[j])
                fmm = V.evaluate(x - h * eye[i] - h * eye[j])
                second = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
                if grad_alpha is not None:
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
                                third = third + s1 * s2 * s3 * V.evaluate(y)
                    third /= 8.0 * h**3
                    max_third = max(max_third, float(np.abs(third).max()))
    return {
        "max_third_difference": max_third,
        "max_second_derivative_deviation": max_second_dev,
        "quadratic": max_third < 1e-6,
        "matches_affine_factor": (grad_alpha is None or max_second_dev < 1e-6),
    }
