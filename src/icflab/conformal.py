"""Conformal Killing fields of Euclidean space and their flows.

Every conformal Killing field of flat R^3 has the form

    V(X) = v + S X + mu X + 2 <b, X> X - |X|^2 b

with v, b vectors, mu a dilation rate and S a skew matrix (the rotation
generator; a non-skew linear part fails the conformal Killing equation,
which is why the skew generator rather than a full orthogonal matrix is
stored).  With M = S + mu I it is v + M X + 2<b, X> X - |X|^2 b, read
from the field's `coefficients` (v, M, b).  The conformal factor
div(V)/(dim) is tr(M)/3 + 2<b, X> = mu + 2<b, X>, each component of V
is a quadratic polynomial, and the generated diffeomorphisms are Moebius
maps wherever they exist.  The conformal group acts linearly on the
light cone of R^{4,1}, so the flow has the closed form exp(tA) there
(`flow_map`).  `_expm` takes this 5x5 exponential
in numpy by scaling and squaring (Higham, SIMAX 26(4), 2005): the degree-13
Taylor polynomial of tA / 2^s in Horner form, s least with 1-norm <= 1/2
(remainder below 1e-15), squared s times.  The special-conformal part can
carry points through infinity in finite time, which `flow_map` detects on
the whole time interval.  `pushforward_surface` finds the image of a radial
graph by one scalar equation per grid ray on the input, via the inverse map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FlowBlowUpError, NotStarShapedError
from .radial_graph import POSITIVITY_FLOOR, StarShapedHypersurface, geometry
from .sphere_grid import ScalarField

__all__ = [
    "ConformalKillingField",
    "flow_map",
    "pushforward_surface",
]

_AMBIENT_DIM = 3
_ESCAPE_RADIUS = 1e6
_NEWTON_TOL = 1e-12


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
        if not np.isfinite([*self.v, *self.s_lower, self.mu, *self.b]).all():
            raise ValueError("non-finite field parameters")

    @property
    def skew_matrix(self) -> np.ndarray:
        a, b_, c = self.s_lower
        return np.array([[0.0, -a, -b_], [a, 0.0, -c], [b_, c, 0.0]])

    @property
    def coefficients(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(v, M, b) with M = S + mu I."""
        M = self.skew_matrix
        np.fill_diagonal(M, self.mu)
        return self.v, M, self.b

    @property
    def alpha_coefficients(self) -> np.ndarray:
        """(tr(M)/3, 2b): the conformal factor is their product with (1, x)."""
        _, M, b = self.coefficients
        return np.concatenate([[np.trace(M) / _AMBIENT_DIM], 2.0 * b])

    def conformal_factor(self, x: np.ndarray) -> np.ndarray:
        """div(V)/(n+1) = tr(M)/3 + 2<b, x>; affine in x."""
        c = self.alpha_coefficients
        return c[0] + np.tensordot(np.asarray(x, dtype=float), c[1:], axes=(-1, 0))

    def divergence(self, x: np.ndarray) -> np.ndarray:
        return _AMBIENT_DIM * self.conformal_factor(x)


def _generator(V) -> np.ndarray:
    """The matrix A of so(4,1) with d/dt xi = A xi on the light cone for
    the lift xi of V's flow; exp(tA) is then the time-t conformal map."""
    v_plus, v_minus = V.v + V.b, V.v - V.b
    A = np.zeros((5, 5))
    A[:3, :3] = V.skew_matrix
    A[:3, 3], A[:3, 4] = v_plus, v_minus
    A[3, :3], A[4, :3] = -v_plus, v_minus
    A[3, 4] = A[4, 3] = -V.mu
    return A


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A): the degree-13 Taylor polynomial of A / 2^s, squared s times."""
    norm = np.abs(A).sum(axis=0).max()
    s = int(np.ceil(np.log2(2.0 * norm))) if norm > 0.5 else 0
    B, I = A / 2.0**s, np.eye(len(A))
    E = I
    for k in range(13, 0, -1):
        E = I + B @ E / k
    for _ in range(s):
        E = E @ E
    return E


def _lift(x: np.ndarray) -> np.ndarray:
    """Future null vectors (X, (1-|X|^2)/2, (1+|X|^2)/2) of points (P, 3)."""
    xx = np.sum(x * x, axis=1)
    return np.column_stack([x, 0.5 * (1.0 - xx), 0.5 * (1.0 + xx)])


def _scale(xi: np.ndarray) -> np.ndarray:
    """xi_3 + xi_4, the factor that projects a null vector to its point.

    Near infinity xi_3 ~ -xi_4, so there it is computed from the null
    relation xi_4^2 - xi_3^2 = |xi_:3|^2 without cancellation."""
    x3, x4 = xi[:, 3], xi[:, 4]
    near = np.sum(xi[:, :3] ** 2, axis=1) / np.where(x3 < 0.0, x4 - x3, 1.0)
    return np.where(x3 < 0.0, near, x3 + x4)


def _chord_to_infinity(xi: np.ndarray) -> np.ndarray:
    """2 / sqrt(1 + |X|^2), the chordal distance from the point X of each
    null vector to infinity on the unit 3-sphere."""
    return np.sqrt(2.0 * _scale(xi) / xi[:, 4])


def _check_no_escape(V, A: np.ndarray, t: float, xi0: np.ndarray,
                     xi1: np.ndarray):
    """Raise FlowBlowUpError if an orbit reaches |X| >= _ESCAPE_RADIUS at
    some time in [0, t]; the point at infinity itself is such a time.

    Along an orbit the chordal distance q to infinity changes at the rate
    |dq/dt| = 2 |<X, V>| / (1 + |X|^2)^(3/2) <= lip (the skew part of V is
    tangent to spheres about 0).  An interval of length h whose end values
    are q_a and q_b therefore keeps q >= (q_a + q_b - lip h) / 2
    throughout.  Intervals where that bound does not clear the threshold
    are bisected until it does, or until an orbit is found below it.  So
    an orbit that passes through infinity and returns is caught, which
    no test of the end point can do.
    """
    q_min = 2.0 / np.sqrt(1.0 + _ESCAPE_RADIUS**2)
    lip = 0.77 * (np.linalg.norm(V.v) + abs(V.mu)) + 2.0 * np.linalg.norm(V.b)
    h = abs(float(t))
    left, q_left, q_right = xi0, _chord_to_infinity(xi0), _chord_to_infinity(xi1)
    while True:
        unresolved = q_left + q_right - lip * h < 2.0 * q_min
        reached = not (np.all(q_left >= q_min) and np.all(q_right >= q_min))
        if reached or (unresolved.any() and lip * h < q_min):
            raise FlowBlowUpError(
                f"trajectory escapes past |x| = {_ESCAPE_RADIUS:g} before t = {t:g}")
        if not unresolved.any():
            return
        h *= 0.5
        left, q_left, q_right = left[unresolved], q_left[unresolved], q_right[unresolved]
        mid = left @ _expm(np.copysign(h, t) * A).T
        q_mid = _chord_to_infinity(mid)
        left = np.concatenate([left, mid])
        q_left, q_right = (np.concatenate([q_left, q_mid]),
                           np.concatenate([q_mid, q_right]))


def flow_map(V, t: float, x: np.ndarray) -> np.ndarray:
    """Time-t point of the flow of V from x, in closed form.

    The conformal group of R^3 acts linearly on the light cone of
    R^{4,1}: lift X to xi = (X, (1-|X|^2)/2, (1+|X|^2)/2), multiply by
    exp(tA) (see `_generator`) and project back with
    X = xi_:3 / (xi_3 + xi_4).  x may be a batch (..., 3).  Raises
    FlowBlowUpError if any orbit reaches |x| = 1e6 on [0, t], which
    includes every orbit through infinity (the special-conformal part
    blows up in finite time).
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    if shape[-1] != _AMBIENT_DIM:
        raise ValueError("points must have a trailing axis of length 3")
    if t == 0.0 and np.all(np.isfinite(x)):
        return x.copy()
    xi1 = _light_cone_image(V, t, x.reshape(-1, _AMBIENT_DIM))[1]
    return (xi1[:, :3] / _scale(xi1)[:, None]).reshape(shape)


def _light_cone_image(V, t: float, x: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The light-cone matrix exp(tA) of V's time-t map and the image of
    the lifts of points x (P, 3), after `_check_no_escape`."""
    if not (np.isfinite(t) and np.all(np.isfinite(x))):
        raise ValueError("non-finite time or points")
    A = _generator(V)
    E = _expm(float(t) * A)
    xi0 = _lift(x)
    xi1 = xi0 @ E.T
    _check_no_escape(V, A, t, xi0, xi1)
    return E, xi1


def _push(E: np.ndarray, x: np.ndarray, dx: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """Image of points x (P, 3) under the light-cone matrix E, and its
    differential along dx (P, 3): the lift (x, -<x, dx>, <x, dx>) of dx
    is multiplied by E too, and the quotient rule projects both back."""
    xi = _lift(x) @ E.T
    x_dx = np.einsum("pc,pc->p", x, dx)
    dxi = np.column_stack([dx, -x_dx, x_dx]) @ E.T
    s = _scale(xi)[:, None]
    y = xi[:, :3] / s
    return y, (dxi[:, :3] - y * (dxi[:, 3] + dxi[:, 4])[:, None]) / s


def pushforward_surface(V, t: float, surface: StarShapedHypersurface
                        ) -> StarShapedHypersurface:
    """Transport a star-shaped surface by the time-t flow Phi_t of V and
    reconstruct it as a radial graph on the same grid.

    The nodes and their normals, the frame part of the input's geometry
    bundle, are mapped by one exp(tA), after the escape check of
    `flow_map`.  A conformal map takes normals to normals, so the image
    normal at the image Y of a node is n' = DPhi_t nu, with nu the
    input's outward normal (a surface the curvature kernel rejects
    raises ResolutionError as its bundle is built, before it is mapped).
    The image is certified star-shaped by <n', Y> > 0 at every node; this
    is the orientation of the image's direction map up to a positive
    factor.

    Each grid ray p then solves one scalar equation on the input surface:
    r is the root of g(r) = |y| - f(y / |y|) with y = Phi_{-t}(r p), f
    the input's own spectral expansion (one analysis, evaluated as one
    coefficient set by `Grid.evaluate_scattered`), so the radial graph is
    the exact image of the band-limited input, not an interpolant of the
    image's coordinates, which are not band-limited.
    Newton steps in r, capped at |dr| <= r/2, take dg/dr in closed form
    from `_push` and the two partials of f.  Partials are requested only
    while the relative residual is at least sqrt(_NEWTON_TOL); when a
    values-only call does not converge they are fetched at the same
    iterate, so the iterates are those of full Newton.  The warm start
    meets the ray with the image's tangent plane at its own node's image,
    r0 = <n', Y> / <n', p> where <n', p> > 0, else |Y|.  A step with
    dg/dr <= 0, where the ray does not cross the image transversally, or
    a solve that does not reach _NEWTON_TOL raises NotStarShapedError.
    """
    geom = geometry(surface)
    grid = geom.grid
    p = grid.node_frame[0].reshape(-1, 3)
    X, nu = geom.position.reshape(-1, 3), geom.normal.reshape(-1, 3)
    E = _light_cone_image(V, t, X)[0]
    Y, n_img = _push(E, X, nu)
    orient = np.einsum("pc,pc->p", n_img, Y)
    if orient.min() <= 0.0:
        raise NotStarShapedError(
            "mapped surface is not star-shaped about the origin "
            f"(orientation {orient.min():.3g})")
    radii_Y = np.linalg.norm(Y, axis=1)
    if radii_Y.min() <= POSITIVITY_FLOOR:
        raise NotStarShapedError("mapped surface touches the origin")

    n_p = np.einsum("pc,pc->p", n_img, p)
    r = np.divide(orient, n_p, out=radii_Y, where=n_p > 0.0)

    coeffs = grid.analysis(surface.values)
    back = _expm(-float(t) * _generator(V))
    with_partials = True
    for _ in range(60):
        y, dy = _push(back, r[:, None] * p, p)
        norm = np.linalg.norm(y, axis=1)
        rho = np.hypot(y[:, 0], y[:, 1])
        th, ph = np.arctan2(rho, y[:, 2]), np.arctan2(y[:, 1], y[:, 0])
        if with_partials:
            f, f_th, f_ph = grid.evaluate_scattered(coeffs, th, ph,
                                                    derivatives=True)
        else:
            f = grid.evaluate_scattered(coeffs, th, ph)
        g = norm - f
        err = np.abs(g) / norm
        if err.max() < _NEWTON_TOL:
            return StarShapedHypersurface(
                ScalarField(surface.spec, r.reshape(surface.spec.shape)))
        if not with_partials:
            _, f_th, f_ph = grid.evaluate_scattered(coeffs, th, ph,
                                                    derivatives=True)
        with_partials = bool(err.max() >= np.sqrt(_NEWTON_TOL))
        # dg/dr = <y, dy>/|y| - (f_theta <e_theta, dy> + f_phi <e_phi, dy>
        # / sin theta) / |y|, in the frame of the iterate's direction
        cp, sp = np.cos(ph), np.sin(ph)
        dy_th = (y[:, 2] * (cp * dy[:, 0] + sp * dy[:, 1]) - rho * dy[:, 2]) / norm
        dy_ph = cp * dy[:, 1] - sp * dy[:, 0]
        dg = (np.einsum("pc,pc->p", y, dy) - f_th * dy_th
              - f_ph * dy_ph * norm / np.maximum(rho, 1e-300)) / norm
        if not np.all(dg > 0.0):
            raise NotStarShapedError(
                "a ray meets the mapped surface tangentially or twice; it is "
                "not a single-valued radial graph")
        r = r - np.clip(g / dg, -0.5 * r, 0.5 * r)
    raise NotStarShapedError(
        "ray reconstruction did not converge; mapped surface is not a "
        "single-valued radial graph")
