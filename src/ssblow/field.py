"""The autonomous quadratic phase-space system and its local structures.

Variables: X = (m/alpha) xi^{-2} f^{m-1}, Y = (m/alpha) xi^{-1} f^{m-2} f',
Z = (m/alpha^2) xi^{sigma-2}.  The system is

    X' = X[(m-1)Y - 2X]
    Y' = -Y^2 - (beta/alpha)Y + X - XY - Z
    Z' = (sigma-2) X Z

with a full parabola of equilibria {X=0, Z=-Y^2-(beta/alpha)Y} plus the
isolated point P2, and five directions at infinity Q1..Q5.  This module
provides the field, its Jacobian, the unstable direction at P2, the chart
at Q1 and the center-manifold family along which orbits are launched out
of P0.

Points, vectors and Jacobians are plain float tuples (a Jacobian is a tuple
of rows): the module needs no array library.
"""

from __future__ import annotations

import math

from .params import Params, DomainError, beta_over_alpha, derive_exponents

__all__ = [
    "make_rhs",
    "jacobian",
    "p2_unstable_eigenvalue",
    "p2_unstable_eigenvector",
    "make_chart_rhs",
    "phase_from_chart",
    "p2_chart_coordinates",
    "center_family_P0",
]


def make_rhs(params: Params):
    """Tuple-in/tuple-out right-hand side f(eta, (X, Y, Z)) for the integrator."""
    m1 = params.m - 1.0
    boa = beta_over_alpha(params)
    s2 = params.sigma - 2.0

    def rhs(t, y):
        x, yy, z = y
        return (
            x * (m1 * yy - 2.0 * x),
            -yy * yy - boa * yy + x - x * yy - z,
            s2 * x * z,
        )

    return rhs


def jacobian(pt, params: Params) -> tuple:
    """Analytic Jacobian of the phase-space field at pt, as a tuple of rows."""
    x, y, z = (float(v) for v in pt)
    m1 = params.m - 1.0
    boa = beta_over_alpha(params)
    s2 = params.sigma - 2.0
    return (
        (m1 * y - 4.0 * x, m1 * x, 0.0),
        (1.0 - y, -2.0 * y - boa - x, -1.0),
        (s2 * z, 0.0, s2 * x),
    )


def p2_unstable_eigenvalue(params: Params) -> float:
    exp = derive_exponents(params)
    return (params.sigma - 2.0) * (params.m - 1.0) / (2.0 * (params.m + 1.0) * exp.alpha)


def p2_unstable_eigenvector(params: Params) -> tuple[float, float, float]:
    """Unit eigenvector of the positive eigenvalue at P2, oriented into {Z > 0}.

    Closed form (-2(m-1)(m+1)alpha, -2(m+1)sigma*alpha, D)/D with
    D = (m-1)sigma^2 + (5-m)sigma + 4m; the ratio of the first two components
    is (m-1)/sigma, as the first row of the linearization at P2 forces.

    The norm is math.hypot(x, y, 1): at the benchmark and README points it
    gives the bits of the array norm it replaced (tests/test_field.py pins
    them), and elsewhere it may differ from that in the last bit.
    """
    m, sigma = params.m, params.sigma
    alpha = derive_exponents(params).alpha
    den = (m - 1.0) * sigma * sigma + (5.0 - m) * sigma + 4.0 * m
    x = -2.0 * (m - 1.0) * (m + 1.0) * alpha / den
    y = -2.0 * (m + 1.0) * sigma * alpha / den
    norm = math.hypot(x, y, 1.0)
    return (x / norm, y / norm, 1.0 / norm)


# ---------------------------------------------------------------------------
# chart at Q1: (w, y, z) = (1/X, Y/X, Z/X)
# ---------------------------------------------------------------------------


def make_chart_rhs(params: Params):
    """Tuple-in/tuple-out chart right-hand side f(eta, (w, y, z)); Q1 is the origin."""
    m = params.m
    m1 = m - 1.0
    boa = beta_over_alpha(params)
    sigma = params.sigma

    def rhs(t, u):
        w, y, z = u
        return (
            w * (2.0 - m1 * y),
            y + w - m * y * y - boa * y * w - z * w,
            z * (sigma - m1 * y),
        )

    return rhs


def phase_from_chart(cp) -> tuple[float, float, float]:
    w, y, z = (float(v) for v in cp)
    if w <= 0.0:
        raise DomainError("phase map requires w > 0")
    return (1.0 / w, y / w, z / w)


def p2_chart_coordinates(params: Params) -> tuple[float, float, float]:
    m1 = params.m - 1.0
    alpha = derive_exponents(params).alpha
    return (2.0 * (params.m + 1.0) * alpha / m1, 2.0 / m1, 0.0)


# ---------------------------------------------------------------------------
# explicit local families
# ---------------------------------------------------------------------------


def center_family_P0(K: float, z: float, params: Params) -> tuple[float, float]:
    """The point (X, Y) at height Z = z of the center-manifold family at P0
    that carries the tail profile f ~ K xi^{(sigma+2)/(2(m-1))}:
    X = sqrt(m) K^{m-1} sqrt(Z) - (m-1) alpha Z, and Y from the tangent
    plane (beta/alpha) Y = X - Z of the center manifold.

    This is the one map from the tail coefficient K to phase space.  A point
    with X <= 0 lies outside the physical region {X > 0} and is refused.
    """
    if not 0.0 <= z < math.inf:
        raise DomainError("z must be finite and nonnegative")
    if not 0.0 < K < math.inf:
        raise DomainError("K must be finite and positive")
    m = params.m
    exp = derive_exponents(params)
    x = math.sqrt(m) * K ** (m - 1.0) * math.sqrt(z) - (m - 1.0) * exp.alpha * z
    if not x > 0.0:
        raise DomainError(
            "non-physical start: K=%.17g gives X=%.17g <= 0 at z=%.17g" % (K, x, z)
        )
    return x, (x - z) * exp.alpha / exp.beta
