"""Phase-space toolkit for the localized self-similar blow-up profiles of
u_t = (u^m)_xx + |x|^sigma u^p in the critical regime m + p = 2, sigma > 2."""

__version__ = "0.10.0"

from .params import (
    Params,
    Exponents,
    ParameterError,
    DomainError,
    validate_params,
    derive_exponents,
    beta_over_alpha,
    p2_coordinates,
    parabola_point,
    interface_xi_of_lambda,
)
from .field import (
    vector_field,
    jacobian,
    classify_critical_points,
    infinity_chart_field,
    center_family_P0,
    stable_family_P0lambda,
    vertex_normal_form,
)
from .integrate import IntegrationControls, EventSpec, Trajectory, integrate
from .orbits import (
    FateKind,
    OrbitFate,
    ShootResult,
    launch_from_P2,
    launch_from_P0,
    launch_from_Q1_chart,
    classify_fate,
    lambda_of_sigma,
    sigma_star,
)
from .profiles import (
    ProfileFrame,
    InterfaceReport,
    reconstruct_profile,
    ssode_residual,
    interface_slopes,
    integrate_ssode,
    find_good_profile_P1,
    evaluate_solution,
)
from .barriers import barrier_catalog, verify_barrier, region_membership

__all__ = [name for name in dir() if not name.startswith("_")]
