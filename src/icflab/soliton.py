"""Self-conformal soliton residuals and least-squares field recovery.

A surface moves under the flow exactly along an ambient conformal field V
when the normal speeds agree at every point, i.e. when the residual

    r = <V, nu> - 1/rho(kappa)

vanishes (outward convention; checking the instantaneous condition is the
finitely verifiable form of the transport property, since both evolutions
are determined by their normal speed).  Because <V, nu> is linear in the
ten field parameters (v, S, mu, b), minimizing the area-weighted squared
residual is a linear least-squares problem.  Its design matrix is the
surface's Hsiung-Minkowski `moment_rows` (transposed) times the 15x10
matrix of the basis fields' `coefficient_vector`s, and `residual` takes
<V, nu> as the same product, so <V, nu> is built in one place for both.
Symmetric surfaces leave some parameter directions unobservable and the
minimum-norm solution is returned for those.
"""

from __future__ import annotations

import warnings

import numpy as np

from .conformal import ConformalKillingField
from .flow import SpeedFunction, normal_speed
from .invariants import coefficient_vector, moment_rows
from .radial_graph import StarShapedHypersurface, geometry
from .serialize import ckf_to_dict
from .sphere_grid import ScalarField

__all__ = [
    "residual",
    "basis_fields",
    "best_fit_ckf",
]

N_PARAMS = 10
DEFAULT_TOL = 1e-6


def basis_fields() -> list[ConformalKillingField]:
    """The ten generators: translations, rotations, dilation, special
    conformal, in the parameter order of `field_from_params`."""
    return [field_from_params(e) for e in np.eye(N_PARAMS)]


def field_from_params(p: np.ndarray) -> ConformalKillingField:
    p = np.asarray(p, dtype=float).reshape(N_PARAMS)
    return ConformalKillingField(p[0:3], p[3:6], p[6], p[7:10])


def residual(surface: StarShapedHypersurface, V,
             speed: SpeedFunction) -> ScalarField:
    """Pointwise normal-speed mismatch <V, nu> - 1/rho(kappa)."""
    target = normal_speed(surface, speed).values
    vn = coefficient_vector(V) @ moment_rows(surface)
    return ScalarField(surface.spec, vn.reshape(target.shape) - target)


def best_fit_ckf(surface: StarShapedHypersurface, speed: SpeedFunction,
                 tol: float = DEFAULT_TOL) -> tuple[ConformalKillingField, dict]:
    """Least-squares conformal field minimizing the area-weighted squared
    normal-speed mismatch, and the report dict `icflab soliton` writes:
    residual norms, verdict at the relative tolerance `tol`, Gram
    condition number and the fitted field.  The verdict is soliton if the
    relative residual is below tol, not_soliton above 100*tol and
    inconclusive between (refine the grid or adjust tol to resolve).

    The objective is exactly quadratic in the ten parameters; it is
    solved by an orthogonal factorization of the weighted design matrix,
    with minimum-norm tie-breaking across unobservable directions.  A
    warning is emitted when the retained part of the Gram matrix has
    condition number above 1e10.
    """
    geom = geometry(surface)
    target = normal_speed(surface, speed).values.reshape(-1)
    w = (geom.grid.weights * geom.area_density).reshape(-1)
    sqw = np.sqrt(w)

    # column a of the design is <V_a, nu> of the a-th basis field
    C = np.column_stack([coefficient_vector(V) for V in basis_fields()])
    M = moment_rows(surface).T @ C
    # singular directions below 1e-9 of the top one are treated as
    # unobservable (exact symmetries arrive contaminated by reconstruction
    # noise at ~1e-12); minimum-norm tie-breaking applies across them
    p, _, rank, svals = np.linalg.lstsq(sqw[:, None] * M, sqw * target,
                                        rcond=1e-9)
    kept = svals[: max(rank, 1)]
    gram_cond = float((svals[0] / kept[-1]) ** 2) if kept[-1] > 0 else np.inf
    if gram_cond > 1e10:
        warnings.warn(f"Gram matrix condition number {gram_cond:.3g} > 1e10; "
                      "fit parameters are poorly determined", stacklevel=2)

    fitted = field_from_params(p)
    r = M @ p - target
    area = float(np.sum(w))
    res_l2 = float(np.sqrt(np.sum(w * r * r) / area))
    res_sup = float(np.abs(r).max())
    mean_speed = float(np.sum(w * target) / area)
    rel = res_l2 / mean_speed
    return fitted, {
        "residual_sup": res_sup, "residual_l2": res_l2,
        "verdict": _verdict(rel, tol), "tolerance": tol,
        "relative_residual": rel, "gram_condition": gram_cond,
        "fitted": ckf_to_dict(fitted),
    }


def _verdict(rel: float, tol: float) -> str:
    if rel < tol:
        return "soliton"
    if rel > 100.0 * tol:
        return "not_soliton"
    return "inconclusive"
