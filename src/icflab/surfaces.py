"""Generators for the test surfaces used throughout the lab."""

from __future__ import annotations

import numpy as np

from .errors import GenerationError
from .radial_graph import StarShapedHypersurface
from .sphere_grid import GridSpec, ScalarField, make_grid

__all__ = [
    "sphere_surface",
    "spheroid_surface",
    "harmonic_surface",
    "real_harmonic",
]


def sphere_surface(radius: float, spec: GridSpec) -> StarShapedHypersurface:
    """Round sphere of the given radius centered at the origin."""
    return StarShapedHypersurface(ScalarField(spec, np.full(spec.shape, float(radius))))


def spheroid_surface(a: float, c: float, spec: GridSpec) -> StarShapedHypersurface:
    """Spheroid x^2/a^2 + y^2/a^2 + z^2/c^2 = 1 as a radial graph,
    f(theta) = (sin^2/a^2 + cos^2/c^2)^(-1/2)."""
    if a <= 0 or c <= 0:
        raise GenerationError("spheroid semi-axes must be positive")
    grid = make_grid(spec)
    st, ct = grid.sin_theta[:, None], grid.cos_theta[:, None]
    f = 1.0 / np.sqrt(st**2 / a**2 + ct**2 / c**2)
    return StarShapedHypersurface(ScalarField(spec, np.broadcast_to(f, spec.shape)))


def real_harmonic(ell: int, m: int, spec: GridSpec) -> np.ndarray:
    """Orthonormal real spherical harmonic sampled on the grid.

    Condon-Shortley phase; m > 0 pairs with cos(m phi), m < 0 with
    sin(|m| phi).  Unit L^2 norm on the sphere.
    """
    grid = make_grid(spec)
    if not 0 <= ell <= grid.l_max:
        raise GenerationError(f"degree {ell} outside 0..{grid.l_max}")
    if abs(m) > ell or abs(m) > grid.m_max:
        raise GenerationError(f"order {m} not representable for degree {ell}")
    north = grid.legendre(abs(m), ell)   # the south by P_l^m(-x) = (-1)^(l+m) P_l^m(x)
    south = (-1.0) ** (ell + m) * north[: spec.n_theta // 2][::-1]
    pbar = np.concatenate([north, south])[:, None]
    if m == 0:
        return np.broadcast_to(pbar, spec.shape).copy()
    if m > 0:
        return np.sqrt(2.0) * pbar * np.cos(m * grid.phi)[None, :]
    return np.sqrt(2.0) * pbar * np.sin(-m * grid.phi)[None, :]


def harmonic_surface(base: float, terms, spec: GridSpec) -> StarShapedHypersurface:
    """Radial graph base + sum of amp * Y_lm over (ell, m, amp) terms."""
    values = np.full(spec.shape, float(base))
    for ell, m, amp in terms:
        values = values + amp * real_harmonic(int(ell), int(m), spec)
    return StarShapedHypersurface(ScalarField(spec, values))
