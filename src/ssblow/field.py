"""The autonomous quadratic phase-space system and its local structures.

Variables: X = (m/alpha) xi^{-2} f^{m-1}, Y = (m/alpha) xi^{-1} f^{m-2} f',
Z = (m/alpha^2) xi^{sigma-2}.  The system is

    X' = X[(m-1)Y - 2X]
    Y' = -Y^2 - (beta/alpha)Y + X - XY - Z
    Z' = (sigma-2) X Z

with a full parabola of equilibria {X=0, Z=-Y^2-(beta/alpha)Y} plus the
isolated point P2, and five directions at infinity Q1..Q5.  This module
provides the field, its Jacobian, the critical-point catalog with
eigenstructure, the chart at Q1 and the center-manifold family along which
orbits are launched out of P0.

Points, vectors and Jacobians are plain float tuples (a Jacobian is a tuple
of rows), so that launching and classifying an orbit needs no numpy; only
the eigen data of the critical-point catalog imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .params import (
    Params,
    DomainError,
    beta_over_alpha,
    derive_exponents,
    lambda_range,
    parabola_point,
    p2_coordinates,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "make_rhs",
    "jacobian",
    "EigenData",
    "eigen_data",
    "CriticalPoint",
    "p2_unstable_eigenvalue",
    "p2_unstable_eigenvector",
    "classify_critical_points",
    "make_chart_rhs",
    "infinity_chart_jacobian",
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


@dataclass
class EigenData:
    """Spectrum of a 3x3 linearization with signed-dimension counts."""

    values: np.ndarray  # (3,) complex
    vectors: np.ndarray  # (3, 3), column i pairs with values[i]
    stable_dim: int
    unstable_dim: int
    center_dim: int

    def residuals(self, jac) -> np.ndarray:
        import numpy as np

        out = np.empty(3)
        for i in range(3):
            v = self.vectors[:, i]
            out[i] = np.linalg.norm(jac @ v - self.values[i] * v) / np.linalg.norm(v)
        return out


_ZERO_TOL = 1e-12  # eigenvalues with |Re| at most this count as center


def eigen_data(jac) -> EigenData:
    import numpy as np

    values, vectors = np.linalg.eig(jac)
    re = values.real
    return EigenData(
        values=values,
        vectors=vectors,
        stable_dim=int(np.sum(re < -_ZERO_TOL)),
        unstable_dim=int(np.sum(re > _ZERO_TOL)),
        center_dim=int(np.sum(np.abs(re) <= _ZERO_TOL)),
    )


@dataclass
class CriticalPoint:
    """Catalog entry for a finite or infinity equilibrium.

    coords is "phase" for finite points (location = (X, Y, Z)), "chart" for
    the chart at Q1 (location = (w, y, z)) and "sphere" for the remaining
    infinity directions (location = (Xbar, Ybar, Zbar, W) on the equator).
    """

    name: str
    lam: float | None
    location: np.ndarray
    coords: str
    eigen: EigenData | None


def p2_unstable_eigenvalue(params: Params) -> float:
    exp = derive_exponents(params)
    return (params.sigma - 2.0) * (params.m - 1.0) / (2.0 * (params.m + 1.0) * exp.alpha)


def p2_unstable_eigenvector(params: Params) -> tuple[float, float, float]:
    """Unit eigenvector of the positive eigenvalue at P2, oriented into {Z > 0}.

    Closed form (-2(m-1)(m+1)alpha, -2(m+1)sigma*alpha, D)/D with
    D = (m-1)sigma^2 + (5-m)sigma + 4m; the ratio of the first two components
    is (m-1)/sigma, as the first row of the linearization at P2 forces.

    The norm is math.hypot(x, y, 1): at the benchmark and README points it
    gives the bits that numpy.linalg.norm gave, and elsewhere it may differ
    from that in the last bit.
    """
    m, sigma = params.m, params.sigma
    alpha = derive_exponents(params).alpha
    den = (m - 1.0) * sigma * sigma + (5.0 - m) * sigma + 4.0 * m
    x = -2.0 * (m - 1.0) * (m + 1.0) * alpha / den
    y = -2.0 * (m + 1.0) * sigma * alpha / den
    norm = math.hypot(x, y, 1.0)
    return (x / norm, y / norm, 1.0 / norm)


def classify_critical_points(
    params: Params, lambda_grid=None
) -> list[CriticalPoint]:
    """Catalog the parabola points on a lambda grid, P2, and Q1..Q5.

    Eigen data for finite points comes from numpy on the analytic Jacobian;
    for Q1 from the chart linearization.  Q2..Q5 are fate-classification
    targets only and carry no spectrum.  Locations are numpy arrays.
    """
    import numpy as np

    m = params.m
    lo, hi = lambda_range(params)
    if lambda_grid is None:
        lambda_grid = np.linspace(lo, hi, 101)
    out: list[CriticalPoint] = []
    for lam in np.asarray(lambda_grid, dtype=float):
        if not lo <= lam <= hi:
            raise DomainError("lambda grid value %.17g outside [%.17g, 0]" % (lam, lo))
        loc = np.array(parabola_point(lam, params))
        out.append(
            CriticalPoint(
                name="P0_lambda",
                lam=float(lam),
                location=loc,
                coords="phase",
                eigen=eigen_data(jacobian(loc, params)),
            )
        )
    p2 = np.array(p2_coordinates(params))
    out.append(
        CriticalPoint(
            name="P2",
            lam=None,
            location=p2,
            coords="phase",
            eigen=eigen_data(jacobian(p2, params)),
        )
    )
    out.append(
        CriticalPoint(
            name="Q1",
            lam=None,
            location=np.zeros(3),
            coords="chart",
            eigen=eigen_data(infinity_chart_jacobian(np.zeros(3), params)),
        )
    )
    # Q2 and Q3 are the sign-change nodes (Q3 the stable one), Q4 is inert
    # (no profile orbit), and Q5 carries f ~ K xi^{1/m} at the origin
    hyp = math.hypot(1.0, m)
    sphere = {
        "Q2": np.array([0.0, 1.0, 0.0, 0.0]),
        "Q3": np.array([0.0, -1.0, 0.0, 0.0]),
        "Q4": np.array([0.0, 0.0, 1.0, 0.0]),
        "Q5": np.array([m / hyp, 1.0 / hyp, 0.0, 0.0]),
    }
    for name, loc in sphere.items():
        out.append(CriticalPoint(name=name, lam=None, location=loc, coords="sphere", eigen=None))
    return out


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


def infinity_chart_jacobian(cp, params: Params) -> tuple:
    """Jacobian of the chart field at cp, as a tuple of rows."""
    w, y, z = (float(v) for v in cp)
    m = params.m
    m1 = m - 1.0
    boa = beta_over_alpha(params)
    return (
        (2.0 - m1 * y, -m1 * w, 0.0),
        (1.0 - boa * y - z, 1.0 - 2.0 * m * y - boa * w, -w),
        (0.0, -m1 * z, params.sigma - m1 * y),
    )


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
