"""Numerical verification of the flow-sign barriers in the phase space.

Each barrier is a surface (plane, parabolic cylinder, nullcline surface, or
a chart-plane boundary) together with the closed-form sign of the scalar
product between the surface normal and the vector field, claimed over a
stated region of that surface.  The proofs of the orbit-confinement results
are pointwise sign computations on these surfaces; this module re-evaluates
those signs on seeded quasi-random samples of each region and reports
violations.

Some barriers only participate in the small-sigma confinement argument
under explicit hypothesis inequalities (for example X(P2) < X*); those
gates are computed, never assumed, and a barrier whose gate fails is
reported as inapplicable rather than silently passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .params import (
    Params,
    beta_over_alpha,
    derive_exponents,
    p2_coordinates,
)
from .field import p2_unstable_eigenvector, p2_chart_coordinates

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BarrierSpec",
    "VerificationReport",
    "ConfigurationError",
    "barrier_catalog",
    "verify_barrier",
    "dregion_constants",
    "dregion_gates",
    "plane3_constants",
    "plane3_gate",
    "empirical_sigma0",
]


class ConfigurationError(ValueError):
    """A verification request the catalog cannot serve: an unknown barrier
    id, fewer than 100 samples, or an unknown expected sign."""


@dataclass
class BarrierSpec:
    """One verifiable sign claim on one surface.

    sample(u) maps quasi-random points u in [0,1)^2 onto exactly the region
    of the surface where the claim is made; sign_expr(pts) is the exact
    closed-form flow sign (positive multiples of the normal-field scalar
    product); expected is one of negative / positive / nonpositive /
    nonnegative.  gate() returns (applicable, checked-inequality dict).
    """

    id: str
    coords: str  # "phase" | "chart" | "center"
    expected: str
    surface: Callable[[np.ndarray], np.ndarray]
    sign_expr: Callable[[np.ndarray], np.ndarray]
    sample: Callable[[np.ndarray], np.ndarray]
    gate: Callable[[], tuple[bool, dict]] = lambda: (True, {})


@dataclass
class VerificationReport:
    expected: str
    applicable: bool
    gate_info: dict
    samples_tested: int
    n_violations: int = 0
    worst_margin: float | None = None

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


def dregion_constants(params: Params) -> dict:
    """Closed-form constants of the small-sigma confinement construction."""
    m, sigma = params.m, params.sigma
    c = (m - 1.0) ** 2 / (sigma + 2.0) ** 2
    d = c / 2.0
    y_star = -(m - 1.0) / (6.0 * (2.0 * sigma + 5.0 - m))
    x_star = (m - 1.0) ** 2 / (3.0 * sigma * (sigma + 2.0) ** 2)
    a = (
        (m - 1.0) ** 2
        * (3.0 * sigma + 7.0 - m)
        / (3.0 * (sigma + 2.0) ** 2 * (2.0 * sigma + 5.0 - m))
    )
    e = (3.0 * sigma + 7.0 - m) / (3.0 * (2.0 * sigma + 5.0 - m))
    f = (m - 1.0) / (6.0 * (2.0 * sigma + 5.0 - m))
    return {"c": c, "d": d, "y_star": y_star, "x_star": x_star, "a": a, "b": a, "e": e, "f": f}


def dregion_gates(params: Params) -> dict:
    """Hypothesis inequalities of the small-sigma argument, each computed."""
    m, sigma = params.m, params.sigma
    cst = dregion_constants(params)
    x_p2, y_p2, _ = p2_coordinates(params)
    return {
        "x_p2_below_x_star": x_p2 < cst["x_star"],
        "y_p2_below_half": y_p2 < 0.5,
        "r2_right_of_r1": (sigma - 2.0) / (m - 1.0) < cst["f"],
    }


def plane3_constants(params: Params) -> dict:
    m, sigma = params.m, params.sigma
    p2 = p2_coordinates(params)
    A = (sigma - 1.0) * (2.0 * m + sigma) / ((sigma + 2.0) * (m + 1.0))
    B = (m - 1.0) * (2.0 * m + sigma) / ((sigma + 2.0) * (m + 1.0))
    C = A * p2[0] + B * p2[1]
    x_star3 = (
        (m - 1.0)
        * (sigma + 1.0)
        * (2.0 * m + sigma)
        / (sigma * (sigma - 1.0) * (sigma + 2.0) * (m + 1.0))
    )
    return {"A": A, "B": B, "C": C, "x_star3": x_star3}


def plane3_gate(params: Params) -> dict:
    """Large-sigma hypotheses: P2's exit vector points above the plane and
    the slab X in (X*, X(P2)) of its region is nonempty."""
    cst = plane3_constants(params)
    x_p2 = p2_coordinates(params)[0]
    e3 = p2_unstable_eigenvector(params)
    n_dot_e3 = cst["A"] * e3[0] + cst["B"] * e3[1] + e3[2]
    return {
        "exit_vector_above_plane": n_dot_e3 > 0.0,
        "x_star3_below_x_p2": cst["x_star3"] < x_p2,
        "n_dot_e3": n_dot_e3,
    }


# 1/g and 1/g^2 for the plastic number g, the real root of g^3 = g + 1
_R2_STEP = (0.75487766624669276005, 0.56984029099805326591)


def _r2_points(n: int, seed: int) -> np.ndarray:
    """n points of the R2 Kronecker sequence in [0, 1)^2 with a seeded
    Cranley-Patterson shift: frac(shift + i * (1/g, 1/g^2)), i = 1..n."""
    import numpy as np

    shift = np.random.default_rng(seed).random(2)
    return (shift + np.arange(1, n + 1)[:, None] * _R2_STEP) % 1.0


def barrier_catalog(params: Params) -> list[BarrierSpec]:
    """Construct every verifiable barrier with closed-form coefficients.

    The plane a X + Z = c4 confining the orbits out of the origin takes
    c4 = a X(P2) / 5: any positive level works at leading order, and this
    one keeps its region well inside the origin's neighborhood.
    """
    import numpy as np

    m, sigma = params.m, params.sigma
    exp = derive_exponents(params)
    alpha, beta = exp.alpha, exp.beta
    boa = beta_over_alpha(params)
    z_max = exp.z_max
    p2 = p2_coordinates(params)
    xp2, yp2 = p2[0], p2[1]
    cst = dregion_constants(params)
    p3 = plane3_constants(params)
    wp2 = p2_chart_coordinates(params)[0]
    yp2_chart = p2_chart_coordinates(params)[1]
    x_hi = 10.0 * xp2
    z_hi = 10.0 * z_max
    a4 = 3.0 / ((m - 1.0) * alpha)
    c4 = a4 * xp2 / 5.0
    k_ykz = 2.0 * (m + 1.0) * alpha / ((m - 1.0) * (sigma - 1.0))

    specs: list[BarrierSpec] = []

    # --- midplane {Y = -beta/(2 alpha)}: flow sign is nonnegative below the
    # vertex height, so orbits cannot cross right-to-left there.
    def mid_sample(u):
        x = u[:, 0] * x_hi
        z = u[:, 1] * z_max
        return np.column_stack([x, np.full(len(u), -boa / 2.0), z])

    specs.append(
        BarrierSpec(
            id="midplane",
            coords="phase",
            expected="nonnegative",
            surface=lambda p: p[:, 1] + boa / 2.0,
            sign_expr=lambda p: z_max + p[:, 0] * (1.0 + boa / 2.0) - p[:, 2],
            sample=mid_sample,
        )
    )

    # --- parabolic cylinder Z = -Y^2 - (beta/alpha) Y on its upper half:
    # the flow points strictly from inside to outside.
    def h_of_y(y):
        return y * (sigma * y + (sigma - 1.0) * boa) - (2.0 * y + boa)

    def cyl_sample(u):
        y = -boa / 2.0 + u[:, 0] * (boa / 2.0)
        x = u[:, 1] * x_hi
        return np.column_stack([x, y, -y * (y + boa)])

    specs.append(
        BarrierSpec(
            id="cylinder",
            coords="phase",
            expected="nonpositive",
            surface=lambda p: -p[:, 1] ** 2 - boa * p[:, 1] - p[:, 2],
            sign_expr=lambda p: p[:, 0] * h_of_y(p[:, 1]),
            sample=cyl_sample,
        )
    )

    # --- plane {X = Z} cannot be crossed toward {X > Z} in {Y < 0}.
    def diag_sample(u):
        x = 1e-12 + u[:, 0] * x_hi
        y = -2.0 * boa * u[:, 1]
        return np.column_stack([x, y, x])

    specs.append(
        BarrierSpec(
            id="diagonal_xz",
            coords="phase",
            expected="negative",
            surface=lambda p: p[:, 0] - p[:, 2],
            sign_expr=lambda p: p[:, 0] * ((m - 1.0) * p[:, 1] - sigma * p[:, 0]),
            sample=diag_sample,
        )
    )

    # --- Y'=0 nullcline surface bounding the trapping region in {Y < 0}.
    # Its Z >= 0 exactly where X (1 - Y) >= Y (Y + beta/alpha), so Y stops
    # at the lower root of Y (Y + beta/alpha) = x_hi (1 - Y), and X starts
    # at Y (Y + beta/alpha) / (1 - Y).
    b = boa + x_hi
    y_lo = max(-2.0 * boa, -0.5 * (b + math.sqrt(b * b + 4.0 * x_hi)))

    def tsurf_sample(u):
        y = y_lo + u[:, 1] * (-1e-12 - y_lo)
        x_lo = np.maximum(1e-12, y * (y + boa) / (1.0 - y))
        x = x_lo + u[:, 0] * (x_hi - x_lo)
        z = -y * y - boa * y + x - x * y
        return np.column_stack([x, y, z])

    specs.append(
        BarrierSpec(
            id="ydot_surface",
            coords="phase",
            expected="negative",
            surface=lambda p: -p[:, 1] ** 2 - boa * p[:, 1] + p[:, 0] - p[:, 0] * p[:, 1] - p[:, 2],
            sign_expr=lambda p: p[:, 0]
            * (
                (1.0 - p[:, 1]) * (m - 1.0) * p[:, 1]
                - 2.0 * (1.0 - p[:, 1]) * p[:, 0]
                - (sigma - 2.0) * p[:, 2]
            ),
            sample=tsurf_sample,
        )
    )

    # --- D4 box walls through P2.
    def wallx_sample(u):
        y = u[:, 0] * yp2
        z = u[:, 1] * z_hi
        return np.column_stack([np.full(len(u), xp2), y, z])

    specs.append(
        BarrierSpec(
            id="box_wall_x",
            coords="phase",
            expected="nonpositive",
            surface=lambda p: p[:, 0] - xp2,
            sign_expr=lambda p: xp2 * ((m - 1.0) * p[:, 1] - 2.0 * xp2),
            sample=wallx_sample,
        )
    )

    def wally_sample(u):
        x = u[:, 0] * xp2 * (1.0 - 1e-9)
        z = u[:, 1] * z_hi
        return np.column_stack([x, np.full(len(u), yp2), z])

    specs.append(
        BarrierSpec(
            id="box_wall_y",
            coords="phase",
            expected="negative",
            surface=lambda p: p[:, 1] - yp2,
            sign_expr=lambda p: -yp2 * yp2 - boa * yp2 + p[:, 0] * (1.0 - yp2) - p[:, 2],
            sample=wally_sample,
        )
    )

    # --- small-sigma cap plane c Y + Z = d.
    c1, d1 = cst["c"], cst["d"]
    y_star, x_star = cst["y_star"], cst["x_star"]

    def plane1_sample(u):
        x = 1e-15 + u[:, 0] * x_star * (1.0 - 2e-9)
        y = y_star + 1e-15 + u[:, 1] * (0.5 - y_star)
        return np.column_stack([x, y, d1 - c1 * y])

    def plane1_sign(p):
        x, y = p[:, 0], p[:, 1]
        return (
            -c1 * y * y
            - c1 * (sigma - 1.0) * x * y
            + sigma * c1 / 2.0 * x
            - (2.0 * sigma + 5.0 - m) * (m - 1.0) ** 3 / (sigma + 2.0) ** 4 * y
            - (m - 1.0) ** 4 / (2.0 * (sigma + 2.0) ** 4)
        )

    def plane1_gate():
        g = dregion_gates(params)
        ok = g["x_p2_below_x_star"] and g["y_p2_below_half"]
        return ok, g

    specs.append(
        BarrierSpec(
            id="cap_plane_yz",
            coords="phase",
            expected="negative",
            surface=lambda p: c1 * p[:, 1] + p[:, 2] - d1,
            sign_expr=plane1_sign,
            sample=plane1_sample,
            gate=plane1_gate,
        )
    )

    # --- small-sigma cap plane a X + Z = b, negative below the line r2.
    a2, b2 = cst["a"], cst["b"]
    e2, f2 = cst["e"], cst["f"]

    def plane2_sample(u):
        x = 1e-15 + u[:, 0] * x_star * (1.0 - 2e-9)
        ylo = -boa / 2.0
        yhi = e2 * x - f2
        y = ylo + u[:, 1] * (yhi - ylo)
        return np.column_stack([x, y, b2 - a2 * x])

    def plane2_gate():
        g = dregion_gates(params)
        return g["r2_right_of_r1"], g

    specs.append(
        BarrierSpec(
            id="cap_plane_xz",
            coords="phase",
            expected="negative",
            surface=lambda p: a2 * p[:, 0] + p[:, 2] - b2,
            sign_expr=lambda p: a2
            * p[:, 0]
            * (-sigma * p[:, 0] + (m - 1.0) * p[:, 1] + sigma - 2.0),
            sample=plane2_sample,
            gate=plane2_gate,
        )
    )

    # --- large-sigma floor plane through P2.
    A3, B3, x_star3 = p3["A"], p3["B"], p3["x_star3"]

    def plane3_sample(u):
        x = x_star3 + u[:, 0] * (xp2 - x_star3)
        y = u[:, 1] * yp2
        return np.column_stack([x, y, p3["C"] - A3 * x - B3 * y])

    def plane3_gate_fn():
        g = plane3_gate(params)
        return g["exit_vector_above_plane"] and g["x_star3_below_x_p2"], g

    specs.append(
        BarrierSpec(
            id="p2_floor_plane",
            coords="phase",
            expected="positive",
            surface=lambda p: A3 * p[:, 0] + B3 * p[:, 1] + p[:, 2] - p3["C"],
            sign_expr=lambda p: B3 * (yp2 - p[:, 1]) * p[:, 1]
            + A3 * sigma * (xp2 - p[:, 0]) * (p[:, 0] - x_star3),
            sample=plane3_sample,
            gate=plane3_gate_fn,
        )
    )

    # --- plane Y + kZ = 1 keeping the P2 orbit low until it crosses {Y = 0}.
    def ykz_sample(u):
        x = 1e-15 + u[:, 0] * xp2 * (1.0 - 2e-9)
        y = 1e-12 + u[:, 1] * (1.0 - 1e-12)
        return np.column_stack([x, y, (1.0 - y) / k_ykz])

    specs.append(
        BarrierSpec(
            id="ykz_cap",
            coords="phase",
            expected="negative",
            surface=lambda p: p[:, 1] + k_ykz * p[:, 2] - 1.0,
            sign_expr=lambda p: (
                -p[:, 1] ** 2
                - boa * p[:, 1]
                + p[:, 0] * (1.0 - p[:, 1])
                - p[:, 2]
                + k_ykz * (sigma - 2.0) * p[:, 0] * p[:, 2]
            ),
            sample=ykz_sample,
        )
    )

    # --- plane a X + Z = c4 in the origin's center-manifold variables
    # (X, T, Z); on the center manifold T vanishes to leading order.
    x0_cap = c4 / (2.0 * a4)

    def plane4_sample(u):
        x = 1e-15 + u[:, 0] * x0_cap * (1.0 - 2e-9)
        t = np.zeros(len(u))
        return np.column_stack([x, t, c4 - a4 * x])

    def plane4_sign(p):
        x, t, z = p[:, 0], p[:, 1], p[:, 2]
        return (a4 / beta) * x * (x + (m - 1.0) * alpha * t - (m - 1.0) * alpha * z) + (
            2.0 / beta
        ) * x * z

    specs.append(
        BarrierSpec(
            id="origin_cap_plane",
            coords="center",
            expected="negative",
            surface=lambda p: a4 * p[:, 0] + p[:, 2] - c4,
            sign_expr=plane4_sign,
            sample=plane4_sample,
        )
    )

    # --- planes {Y = y0} with y0 > 1 can only be crossed right-to-left;
    # this is the ingredient sign fact behind tracing connections back to
    # the sign-change source at Y-infinity.
    y0_high = 1.5

    def upper_plane_sample(u):
        x = u[:, 0] * x_hi
        z = u[:, 1] * z_hi
        return np.column_stack([x, np.full(len(u), y0_high), z])

    specs.append(
        BarrierSpec(
            id="upper_plane_y",
            coords="phase",
            expected="negative",
            surface=lambda p: p[:, 1] - y0_high,
            sign_expr=lambda p: (
                -y0_high * y0_high
                - boa * y0_high
                + p[:, 0] * (1.0 - y0_high)
                - p[:, 2]
            ),
            sample=upper_plane_sample,
        )
    )

    # --- chart boundaries of the invariant region connecting Q1 to P2
    # inside {z = 0}: a line below and the y-nullcline curve above.
    slope = 1.0 / (alpha * (m + 1.0))

    def chart_line_sample(u):
        w = 1e-12 + u[:, 0] * wp2 * (1.0 - 2e-9)
        return np.column_stack([w, slope * w, np.zeros(len(u))])

    specs.append(
        BarrierSpec(
            id="chart_line",
            coords="chart",
            expected="positive",
            # scaled so the gradient is the normal (-1, alpha(m+1)) used in
            # the closed-form flow sign
            surface=lambda p: alpha * (m + 1.0) * p[:, 1] - p[:, 0],
            sign_expr=lambda p: p[:, 0]
            * (alpha * (m + 1.0) - 1.0 - (1.0 + beta * (m + 1.0)) * p[:, 0] / (alpha * (m + 1.0))),
            sample=chart_line_sample,
        )
    )

    def chart_curve_sample(u):
        y = 1.0 / m + 1e-12 + u[:, 0] * (yp2_chart - 1.0 / m) * (1.0 - 2e-9)
        w = y * (m * y - 1.0) / (1.0 - boa * y)
        return np.column_stack([w, y, np.zeros(len(u))])

    specs.append(
        BarrierSpec(
            id="chart_curve",
            coords="chart",
            expected="positive",
            surface=lambda p: p[:, 1] + p[:, 0] - m * p[:, 1] ** 2 - boa * p[:, 1] * p[:, 0],
            sign_expr=lambda p: p[:, 0]
            * (2.0 - (m - 1.0) * p[:, 1])
            * (1.0 - boa * p[:, 1]),
            sample=chart_curve_sample,
        )
    )

    return specs


def verify_barrier(
    spec: BarrierSpec, params: Params, n_samples: int = 10_000, seed: int = 42
) -> VerificationReport:
    """Sample the barrier's region at n_samples R2 points and check the
    sign claim pointwise.

    Boundary-equality roundoff is excluded through a 1e-12 margin band.
    An inapplicable barrier (failed gate) reports zero samples and no
    violations.
    """
    if n_samples < 100:
        raise ConfigurationError("n_samples must be at least 100")
    applicable, gate_info = spec.gate()
    applicable = bool(applicable)
    report = VerificationReport(
        expected=spec.expected,
        applicable=applicable,
        gate_info=gate_info,
        samples_tested=0,
    )
    if not applicable:
        return report

    import numpy as np

    pts = spec.sample(_r2_points(n_samples, seed))
    values = np.asarray(spec.sign_expr(pts), dtype=float)
    band = 1e-12
    if spec.expected in ("negative", "nonpositive"):
        bad = values > band
        worst = float(np.max(values))
    elif spec.expected in ("positive", "nonnegative"):
        bad = values < -band
        worst = float(np.min(values))
    else:
        raise ConfigurationError("unknown expected sign %r" % spec.expected)

    report.samples_tested = len(pts)
    report.n_violations = int(np.count_nonzero(bad))
    report.worst_margin = worst
    return report


def empirical_sigma0(m: float, sigma_grid) -> float | None:
    """Largest grid sigma at which every small-sigma gate inequality holds.

    The confinement argument proves existence of a threshold sigma_0 > 2
    without giving a value; this reports an empirical lower bound for it.
    """
    from .params import validate_params

    best = None
    for sigma in sorted(float(s) for s in sigma_grid):
        gates = dregion_gates(validate_params(m, sigma))
        if all(gates.values()):
            best = sigma
    return best
