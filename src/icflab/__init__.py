"""Numerical laboratory for inverse curvature flows of star-shaped
hypersurfaces given as radial graphs over the unit sphere."""

__version__ = "0.1.0"

from .sphere_grid import GridSpec, ScalarField, make_grid
from .radial_graph import (StarShapedHypersurface, GeometryBundle, geometry,
                           sigma_integral, invert,
                           inversion_mean_curvature_check)
from .conformal import ConformalKillingField, flow_map, pushforward_surface
from .invariants import (e_tensor, willmore, willmore_rate,
                         guan_li_q, hsiung_minkowski_residual, qk_rate,
                         qbar, energy_report)
from .flow import (SpeedFunction, FlowTrace, normal_speed, step, run,
                   asymptotics_check, class_c_audit)
from .soliton import residual, best_fit_ckf
from .surfaces import sphere_surface, spheroid_surface, harmonic_surface
from .serialize import load_surface, save_surface

__all__ = [
    "GridSpec", "ScalarField", "make_grid",
    "StarShapedHypersurface", "GeometryBundle", "geometry",
    "sigma_integral", "invert", "inversion_mean_curvature_check",
    "ConformalKillingField", "flow_map", "pushforward_surface",
    "e_tensor", "willmore", "willmore_rate", "guan_li_q",
    "hsiung_minkowski_residual", "qk_rate", "qbar", "energy_report",
    "SpeedFunction", "FlowTrace", "normal_speed", "step", "run",
    "asymptotics_check", "class_c_audit",
    "residual", "best_fit_ckf",
    "sphere_surface", "spheroid_surface", "harmonic_surface",
    "load_surface", "save_surface",
]
