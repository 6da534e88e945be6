"""Numerical Lorentz-Finsler geometry: jet arithmetic, model library,
geodesic flows, Jacobi fields, weighted Ricci bounds, and volume-comparison
checks on star-shaped causal regions."""

from lfgeom.comparison import (
    ComparisonAbort,
    SCLVSpec,
    ball_bound_check,
    bg_infinity_check,
    bishop_gromov_check,
    build_sclv_data,
    coordinate_volume,
    gunther_check,
    radial_bound_scan,
    sclv_volume,
)
from lfgeom.curvature import flag_curvature, ricci, ricci_weighted
from lfgeom.geodesics import integrate_geodesic, radial_flow
from lfgeom.jacobi import (
    jacobi_curvature,
    jacobi_variational,
    riccati_quantities,
    weighted_density,
)
from lfgeom.jets import JetSpace, jetspace
from lfgeom.models import FinslerModel, model_library
from lfgeom.scenario import ConfigError, Scenario, load_scenario

__version__ = "0.1.0"

__all__ = [
    "ComparisonAbort",
    "ConfigError",
    "FinslerModel",
    "JetSpace",
    "SCLVSpec",
    "Scenario",
    "ball_bound_check",
    "bg_infinity_check",
    "bishop_gromov_check",
    "build_sclv_data",
    "coordinate_volume",
    "flag_curvature",
    "gunther_check",
    "integrate_geodesic",
    "jacobi_curvature",
    "jacobi_variational",
    "jetspace",
    "load_scenario",
    "model_library",
    "radial_bound_scan",
    "radial_flow",
    "ricci",
    "ricci_weighted",
    "riccati_quantities",
    "sclv_volume",
    "weighted_density",
]
