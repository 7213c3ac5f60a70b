"""Exponent bookkeeping for the critical regime m + p = 2, sigma > 2.

Every closed-form constant the rest of the toolkit consumes lives here:
the self-similar exponents alpha and beta, the interface localization
bound xi_max, the height z_max of the critical parabola's vertex, the
coordinates of the finite equilibrium P2, and the bijection between
parabola points and interface locations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ParameterError",
    "DomainError",
    "Params",
    "Exponents",
    "validate_params",
    "derive_exponents",
    "beta_over_alpha",
    "p2_coordinates",
    "parabola_z",
    "parabola_point",
    "lambda_range",
    "interface_xi_of_lambda",
]


class ParameterError(ValueError):
    """An exponent constraint was violated."""


class DomainError(ValueError):
    """An argument fell outside its admissible range."""


@dataclass(frozen=True)
class Params:
    """Validated exponent triple. p is redundant (p = 2 - m) but kept for clarity."""

    m: float
    p: float
    sigma: float

    def __post_init__(self):
        if not self.m > 1.0:
            raise ParameterError("m must exceed 1")
        if not self.m < 2.0:
            raise ParameterError("m must be below 2")
        if not 0.0 < self.p < 1.0:
            raise ParameterError("p must lie in (0, 1)")
        if abs(self.m + self.p - 2.0) > 1e-12:
            raise ParameterError("m + p must equal 2 (got %.17g)" % (self.m + self.p))
        if not self.sigma > 2.0:
            raise ParameterError("sigma must exceed 2")
        if not math.isfinite(self.sigma):
            raise ParameterError("sigma must be finite")


@dataclass(frozen=True)
class Exponents:
    """Derived self-similar constants: u = (T-t)^{-alpha} f(|x| (T-t)^{beta})."""

    alpha: float
    beta: float
    xi_max: float
    z_max: float


def validate_params(m: float, sigma: float) -> Params:
    """Validate (m, sigma) and return Params with p recomputed as 2 - m."""
    m = float(m)
    return Params(m=m, p=2.0 - m, sigma=float(sigma))


def beta_over_alpha(params: Params) -> float:
    """Ratio beta/alpha in its cancellation-free closed form 2(m-1)/(sigma+2)."""
    return 2.0 * (params.m - 1.0) / (params.sigma + 2.0)


def derive_exponents(params: Params) -> Exponents:
    m, sigma = params.m, params.sigma
    alpha = (sigma + 2.0) / ((sigma - 2.0) * (m - 1.0))
    beta = 2.0 / (sigma - 2.0)
    # xi_max = (beta^2 / 4m)^{1/(sigma-2)}; computed in log space because the
    # exponent 1/(sigma-2) blows up as sigma -> 2+ (xi_max -> inf there).
    # At huge sigma beta^2 underflows to 0, and only there is the log split.
    base = beta * beta / (4.0 * m)
    log_base = math.log(base) if base > 0.0 else 2.0 * math.log(beta) - math.log(4.0 * m)
    t = log_base / (sigma - 2.0)
    xi_max = math.exp(t) if t < 709.0 else math.inf
    z_max = (beta_over_alpha(params) / 2.0) ** 2
    return Exponents(alpha=alpha, beta=beta, xi_max=xi_max, z_max=z_max)


def p2_coordinates(params: Params) -> tuple[float, float, float]:
    """Phase-space coordinates (X, Y, 0) of the equilibrium P2.

    sigma - 2 and sigma + 2 enter scaled by 1/8.  A power of two changes no
    bit of a quotient whose terms stay normal floats, and the scale keeps
    (m + 1)(sigma + 2) finite up to the largest float sigma, where the
    coordinates reach their limit ((m-1)^2 / (2(m+1)), (m-1)/(m+1), 0)."""
    m, sigma = params.m, params.sigma
    num = 0.125 * (sigma - 2.0)
    den = 0.125 * (sigma + 2.0)
    x = (m - 1.0) ** 2 * num / (2.0 * (m + 1.0) * den)
    y = (m - 1.0) * num / ((m + 1.0) * den)
    return (x, y, 0.0)


def lambda_range(params: Params) -> tuple[float, float]:
    """Closed parameter interval [-beta/alpha, 0] of the critical parabola."""
    return (-beta_over_alpha(params), 0.0)


def parabola_z(lam: float, params: Params) -> float:
    """Height Z = -lambda^2 - (beta/alpha) lambda of the parabola point P0^lambda."""
    return -lam * (lam + beta_over_alpha(params))


def parabola_point(lam: float, params: Params) -> tuple[float, float, float]:
    """Point (0, lambda, -lambda^2 - (beta/alpha) lambda) on the critical parabola."""
    lo, hi = lambda_range(params)
    if not lo <= lam <= hi:
        raise DomainError(
            "lambda must lie in [%.17g, 0], got %.17g" % (lo, lam)
        )
    lam = float(lam)
    return (0.0, lam, parabola_z(lam, params))


def interface_xi_of_lambda(lam: float, params: Params) -> float:
    """Interface location xi0 of the profile entering P0^lambda.

    Defined by xi0^{sigma-2} = (alpha^2/m)(-lambda^2 - (beta/alpha) lambda);
    takes values in (0, xi_max], maximized at the vertex lambda = -beta/(2 alpha).
    """
    lo, hi = lambda_range(params)
    if not lo < lam < hi:
        raise DomainError(
            "lambda must lie in (%.17g, 0) for an interface, got %.17g" % (lo, lam)
        )
    z = parabola_z(lam, params)
    if z == 0.0:
        return 0.0  # Z underflows for the tiniest subnormal lambda
    alpha = derive_exponents(params).alpha
    t = math.log(alpha * alpha * z / params.m) / (params.sigma - 2.0)
    return math.exp(t) if t < 709.0 else math.inf
