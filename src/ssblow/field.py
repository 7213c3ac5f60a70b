"""The autonomous quadratic phase-space system and its local structures.

Variables: X = (m/alpha) xi^{-2} f^{m-1}, Y = (m/alpha) xi^{-1} f^{m-2} f',
Z = (m/alpha^2) xi^{sigma-2}.  The system is

    X' = X[(m-1)Y - 2X]
    Y' = -Y^2 - (beta/alpha)Y + X - XY - Z
    Z' = (sigma-2) X Z

with a full parabola of equilibria {X=0, Z=-Y^2-(beta/alpha)Y} plus the
isolated point P2, and five directions at infinity Q1..Q5.  This module
provides the field, its Jacobian, the critical-point catalog with
eigenstructure, the chart at Q1, the center-manifold family along which
orbits are launched out of P0, and the normal form at the parabola vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import (
    Params,
    DomainError,
    beta_over_alpha,
    derive_exponents,
    lambda_range,
    parabola_point,
    p2_coordinates,
)

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
    "VertexNormalForm",
    "vertex_normal_form_coeffs",
    "vertex_normal_form",
    "vertex_center_slope",
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


def jacobian(pt, params: Params) -> np.ndarray:
    """Analytic Jacobian of the phase-space field at pt."""
    x, y, z = (float(v) for v in pt)
    m1 = params.m - 1.0
    boa = beta_over_alpha(params)
    s2 = params.sigma - 2.0
    return np.array(
        [
            [m1 * y - 4.0 * x, m1 * x, 0.0],
            [1.0 - y, -2.0 * y - boa - x, -1.0],
            [s2 * z, 0.0, s2 * x],
        ]
    )


@dataclass
class EigenData:
    """Spectrum of a 3x3 linearization with signed-dimension counts."""

    values: np.ndarray  # (3,) complex
    vectors: np.ndarray  # (3, 3), column i pairs with values[i]
    stable_dim: int
    unstable_dim: int
    center_dim: int

    def residuals(self, jac: np.ndarray) -> np.ndarray:
        out = np.empty(3)
        for i in range(3):
            v = self.vectors[:, i]
            out[i] = np.linalg.norm(jac @ v - self.values[i] * v) / np.linalg.norm(v)
        return out


_ZERO_TOL = 1e-12  # eigenvalues with |Re| at most this count as center


def eigen_data(jac: np.ndarray) -> EigenData:
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
    notes: str = ""


def p2_unstable_eigenvalue(params: Params) -> float:
    exp = derive_exponents(params)
    return (params.sigma - 2.0) * (params.m - 1.0) / (2.0 * (params.m + 1.0) * exp.alpha)


def p2_unstable_eigenvector(params: Params) -> np.ndarray:
    """Unit eigenvector of the positive eigenvalue at P2, oriented into {Z > 0}.

    Closed form (-2(m-1)(m+1)alpha, -2(m+1)sigma*alpha, D)/D with
    D = (m-1)sigma^2 + (5-m)sigma + 4m; the ratio of the first two components
    is (m-1)/sigma, as the first row of the linearization at P2 forces.
    """
    m, sigma = params.m, params.sigma
    alpha = derive_exponents(params).alpha
    den = (m - 1.0) * sigma * sigma + (5.0 - m) * sigma + 4.0 * m
    v = np.array(
        [
            -2.0 * (m - 1.0) * (m + 1.0) * alpha / den,
            -2.0 * (m + 1.0) * sigma * alpha / den,
            1.0,
        ]
    )
    return v / np.linalg.norm(v)


def _p0_lambda_notes(lam: float, params: Params) -> str:
    boa = beta_over_alpha(params)
    if lam == 0.0:
        return "origin endpoint; 1D stable + 2D center; launch point for tail profiles"
    if abs(lam + boa / 2.0) <= 1e-14:
        return "parabola vertex; 2D center + 1D stable; interface at xi_max"
    if lam > -boa / 2.0:
        return "upper parabola half; 2D stable + 1D center (on the parabola)"
    if lam == -boa:
        return "endpoint P1; orbits entering it stay in {Z = 0}, no profiles"
    return "lower parabola half; 1D stable + 1D unstable (in {X=0}) + 1D center"


def classify_critical_points(
    params: Params, lambda_grid=None
) -> list[CriticalPoint]:
    """Catalog the parabola points on a lambda grid, P2, and Q1..Q5.

    Eigen data for finite points comes from numpy on the analytic Jacobian;
    for Q1 from the chart linearization.  Q2..Q5 are fate-classification
    targets only and carry no spectrum.
    """
    m, sigma = params.m, params.sigma
    exp = derive_exponents(params)
    lo, hi = lambda_range(params)
    if lambda_grid is None:
        lambda_grid = np.linspace(lo, hi, 101)
    out: list[CriticalPoint] = []
    for lam in np.asarray(lambda_grid, dtype=float):
        if not lo <= lam <= hi:
            raise DomainError("lambda grid value %.17g outside [%.17g, 0]" % (lam, lo))
        loc = parabola_point(lam, params)
        out.append(
            CriticalPoint(
                name="P0_lambda",
                lam=float(lam),
                location=loc,
                coords="phase",
                eigen=eigen_data(jacobian(loc, params)),
                notes=_p0_lambda_notes(float(lam), params),
            )
        )
    p2 = p2_coordinates(params)
    out.append(
        CriticalPoint(
            name="P2",
            lam=None,
            location=p2,
            coords="phase",
            eigen=eigen_data(jacobian(p2, params)),
            notes="2D stable (in {Z=0}) + 1D unstable; unique orbit out into {Z>0}",
        )
    )
    out.append(
        CriticalPoint(
            name="Q1",
            lam=None,
            location=np.zeros(3),
            coords="chart",
            eigen=eigen_data(infinity_chart_jacobian(np.zeros(3), params)),
            notes="unstable node at X-infinity; profiles with f(0) > 0",
        )
    )
    sphere = {
        "Q2": (np.array([0.0, 1.0, 0.0, 0.0]), "unstable node; positive sign change"),
        "Q3": (np.array([0.0, -1.0, 0.0, 0.0]), "stable node; negative sign change, no interface"),
        "Q4": (np.array([0.0, 0.0, 1.0, 0.0]), "non-hyperbolic; inert (no profile orbits)"),
        "Q5": (
            np.array([m / math.hypot(1.0, m), 1.0 / math.hypot(1.0, m), 0.0, 0.0]),
            "hyperbolic, 2D unstable + 1D stable; f ~ K xi^{1/m} at 0",
        ),
    }
    for name, (loc, notes) in sphere.items():
        out.append(
            CriticalPoint(name=name, lam=None, location=loc, coords="sphere", eigen=None, notes=notes)
        )
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


def infinity_chart_jacobian(cp, params: Params) -> np.ndarray:
    w, y, z = (float(v) for v in cp)
    m = params.m
    m1 = m - 1.0
    boa = beta_over_alpha(params)
    return np.array(
        [
            [2.0 - m1 * y, -m1 * w, 0.0],
            [1.0 - boa * y - z, 1.0 - 2.0 * m * y - boa * w, -w],
            [0.0, -m1 * z, params.sigma - m1 * y],
        ]
    )


def phase_from_chart(cp) -> np.ndarray:
    w, y, z = (float(v) for v in cp)
    if w <= 0.0:
        raise DomainError("phase map requires w > 0")
    return np.array([1.0 / w, y / w, z / w])


def p2_chart_coordinates(params: Params) -> np.ndarray:
    m1 = params.m - 1.0
    alpha = derive_exponents(params).alpha
    return np.array([2.0 * (params.m + 1.0) * alpha / m1, 2.0 / m1, 0.0])


# ---------------------------------------------------------------------------
# explicit local families
# ---------------------------------------------------------------------------


def center_family_P0(K: float, z: float, params: Params) -> tuple[float, float]:
    """The point (X, Y) at height Z = z of the center-manifold family at P0:
    X = K sqrt(Z) - (m-1) alpha Z, and Y from the tangent plane
    (beta/alpha) Y = X - Z of the center manifold.

    A nonpositive X means the family has left the physical region {X > 0}
    for this (K, z); callers decide whether that is an error.
    """
    if not 0.0 <= z < math.inf:
        raise DomainError("z must be finite and nonnegative")
    if not 0.0 <= K < math.inf:
        raise DomainError("K must be finite and nonnegative")
    exp = derive_exponents(params)
    x = K * math.sqrt(z) - (params.m - 1.0) * exp.alpha * z
    return x, (x - z) * exp.alpha / exp.beta


# ---------------------------------------------------------------------------
# normal form at the parabola vertex
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexNormalForm:
    """Coefficients of the linear change of variables at the vertex.

    X2 = X, Y2 = C X + D (Y + beta/(2 alpha)), Z2 = A X + B (Z - beta^2/(4 alpha^2)).
    E and F are the quadratic coefficients of the transformed Y2 equation;
    they only enter remainder estimates and are kept for completeness.
    """

    A: float
    B: float
    C: float
    D: float
    E: float
    F: float


def vertex_normal_form_coeffs(params: Params) -> VertexNormalForm:
    m = params.m
    exp = derive_exponents(params)
    alpha, beta = exp.alpha, exp.beta
    sigma = params.sigma
    A = (sigma - 2.0) * beta * beta / (alpha * alpha)
    B = 2.0 * beta * (m - 1.0) / alpha
    C = (2.0 * alpha * (m - 1.0) + beta * (m + sigma - 3.0)) / (m - 1.0)
    D = (m - 1.0) * beta
    E = (2.0 * alpha * m * m + beta * sigma * (m + 1.0) - 2.0 * alpha - 4.0 * beta) / (
        (m - 1.0) ** 2 * beta
    )
    F = (
        (m * beta * (sigma - 2.0) + (2.0 * m * beta + 2.0 * m * alpha - beta) * (m - 1.0))
        * ((2.0 * alpha + beta) * (m - 1.0) + beta * (sigma - 2.0))
        / ((m - 1.0) ** 3 * beta)
    )
    return VertexNormalForm(A=A, B=B, C=C, D=D, E=E, F=F)


def vertex_normal_form(pt, params: Params) -> np.ndarray:
    """Map a phase point to the vertex normal-form coordinates (X2, Y2, Z2)."""
    x, y, z = (float(v) for v in pt)
    nf = vertex_normal_form_coeffs(params)
    boa = beta_over_alpha(params)
    z_max = derive_exponents(params).z_max
    return np.array(
        [
            x,
            nf.C * x + nf.D * (y + boa / 2.0),
            nf.A * x + nf.B * (z - z_max),
        ]
    )


def vertex_center_slope(params: Params) -> float:
    """Slope of log X2 against 1/Y2 on the exponential center family at the vertex."""
    exp = derive_exponents(params)
    return -((params.m - 1.0) ** 2) * exp.beta**2 / (2.0 * exp.alpha)
