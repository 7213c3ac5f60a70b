"""Physical profiles f(xi): reconstruction, direct integration, interfaces.

A phase-space trajectory maps pointwise back to a profile via

    xi = (alpha^2 Z / m)^{1/(sigma-2)},   f = (alpha xi^2 X / m)^{1/(m-1)},
    f' = (alpha xi f^{2-m} Y) / m,

and the profile equation (f^m)'' - alpha f + beta xi f' + xi^sigma f^{2-m} = 0
can be integrated directly as an independent cross-check.  The direct run
uses the pressure g = m f^{m-1}/(m-1), which is Lipschitz up to an
interface, in the form

    (m-1) g g'' = (m-1) alpha g - (g')^2 - beta xi g' - m xi^sigma,

along a variable in which that field stays regular where g vanishes.  At
a vanishing point xi0 the pressure slope g' must solve

    (g')^2 + beta xi0 g' + m xi0^sigma = 0,

whose discriminant beta^2 xi0^2 - 4 m xi0^sigma is nonnegative exactly for
xi0 <= xi_max: that quadratic is what separates interfaces from sign
changes and localizes every interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .params import (
    Params,
    DomainError,
    derive_exponents,
    p2_coordinates,
)
from .field import center_family_P0, p2_unstable_eigenvector
from .integrate import EventSpec, IntegrationControls, Trajectory, integrate

_RHO_VANISH = 1e-4  # rho = g / hypot(g, xi g') at which a profile run ends as vanishing
_SLOPE_TOL = 1e-2  # largest |g' - root| at the vanishing event that is an interface
_DISC_TOL = 1e-6  # discriminants in [-_DISC_TOL, 0) count as a double root
_MAX_S_STEP = 0.05  # the step cap of a profile run, in s

__all__ = [
    "ProfileFrame",
    "InterfaceReport",
    "SsodeResult",
    "InconclusiveProfile",
    "ProfileBracketError",
    "reconstruct_profile",
    "ssode_residual",
    "interface_slopes",
    "integrate_ssode",
    "find_good_profile_P1",
]


@dataclass
class ProfileFrame:
    """Columnar profile samples; xi strictly increasing, f >= 0."""

    xi: np.ndarray
    f: np.ndarray
    df: np.ndarray
    n_dropped: int = 0

    def __len__(self):
        return len(self.xi)

    def decimated(self, step: int) -> "ProfileFrame":
        return ProfileFrame(
            xi=self.xi[::step],
            f=self.f[::step],
            df=self.df[::step],
            n_dropped=self.n_dropped,
        )


@dataclass
class InterfaceReport:
    xi0: float
    slope_minus: float | None
    slope_plus: float | None
    discriminant: float
    matched_slope: float | None = None


class InconclusiveProfile(RuntimeError):
    """The profile integration ended without a classifiable outcome."""


class ProfileBracketError(ValueError):
    """The a-bracket does not separate the profile fates."""


def _physical_rows(keep: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Indices of the rows where keep holds and key strictly exceeds its
    value at the previous such row."""
    rows = np.flatnonzero(keep)
    inc = np.empty(len(rows), dtype=bool)
    if len(rows):
        inc[0] = True
        inc[1:] = np.diff(key[rows]) > 0.0
    return rows[inc]


def reconstruct_profile(traj: Trajectory, params: Params) -> ProfileFrame:
    """Invert the phase-space change of variables along a trajectory.

    Samples with X <= 0 or Z <= 0 are dropped (counted in n_dropped), as are
    repeated Z values, so xi comes out strictly increasing.
    """
    m = params.m
    exp = derive_exponents(params)
    pts = traj.points
    rows = _physical_rows((pts[:, 0] > 0.0) & (pts[:, 2] > 0.0), pts[:, 2])
    x, y, z = pts[rows, 0], pts[rows, 1], pts[rows, 2]
    n_dropped = len(pts) - len(rows)
    xi = (exp.alpha**2 * z / m) ** (1.0 / (params.sigma - 2.0))
    f = (exp.alpha * xi**2 * x / m) ** (1.0 / (m - 1.0))
    df = exp.alpha * xi * f ** (2.0 - m) * y / m
    return ProfileFrame(xi=xi, f=f, df=df, n_dropped=n_dropped)


def ssode_residual(frame: ProfileFrame, params: Params) -> float:
    """Max normalized residual of the profile equation on the sample grid.

    (f^m)'' is the derivative of the sampled flux (f^m)' = m f^(m-1) f',
    taken by the three-point formula, which is second order on any grid:
    the three-point second difference of f^m is only first order where
    neighbouring spacings differ, as at an event sample off the sample
    grid.  f' is the sampled derivative.  Normalization is
    max(1, max |alpha f|).  A flux that overflows gives nan, without a
    numpy warning.
    """
    if len(frame) < 5:
        raise DomainError("need at least 5 samples to test the profile equation")
    if np.any(frame.f[1:-1] <= 0.0):
        raise DomainError("interior samples must have f > 0")
    m = params.m
    exp = derive_exponents(params)
    xi, f, df = frame.xi, frame.f, frame.df
    h1 = xi[1:-1] - xi[:-2]
    h2 = xi[2:] - xi[1:-1]
    mid = slice(1, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        flux = m * f ** (m - 1.0) * df
        dflux = (
            h1 * h1 * flux[2:] + (h2 * h2 - h1 * h1) * flux[1:-1] - h2 * h2 * flux[:-2]
        ) / (h1 * h2 * (h1 + h2))
        res = (
            dflux
            - exp.alpha * f[mid]
            + exp.beta * xi[mid] * df[mid]
            + xi[mid] ** params.sigma * f[mid] ** (2.0 - m)
        )
    scale = max(1.0, float(np.max(np.abs(exp.alpha * f))))
    return float(np.max(np.abs(res))) / scale


def interface_slopes(xi0: float, params: Params) -> InterfaceReport:
    """Roots of the pressure-slope quadratic at a candidate vanishing point."""
    if xi0 <= 0.0:
        raise DomainError("xi0 must be positive")
    exp = derive_exponents(params)
    disc = exp.beta**2 * xi0**2 - 4.0 * params.m * xi0**params.sigma
    if disc < 0.0:
        return InterfaceReport(xi0=xi0, slope_minus=None, slope_plus=None, discriminant=disc)
    root = math.sqrt(disc)
    return InterfaceReport(
        xi0=xi0,
        slope_minus=(-exp.beta * xi0 - root) / 2.0,
        slope_plus=(-exp.beta * xi0 + root) / 2.0,
        discriminant=disc,
    )


@dataclass
class SsodeResult:
    frame: ProfileFrame
    fate: str  # "interface" | "sign_change" | "positive"
    xi0: float | None
    g_slope: float | None
    report: InterfaceReport | None
    record: dict  # the run record of the integration (Trajectory.record)


def _asymptotic_start(origin, params, xi_start, a=None, K=None):
    """First-order asymptotic data (f, f') at xi_start for each origin.

    The leading terms alone select the wrong nearby solution: the slow
    stable mode they leave behind decays like a small power of xi and
    visibly shifts the vanishing point.  For "p2" the next order comes from
    the unstable eigendirection at P2, for "p0" from the center-manifold
    family at the origin, for "p1" from the exact local integral-curve
    shape f = (a^{m-1} + alpha(m-1) xi^2 / 2m)^{1/(m-1)}.
    """
    m = params.m
    exp = derive_exponents(params)
    alpha = exp.alpha
    if origin == "p1":
        if a is None or not 0.0 < a < math.inf:
            raise DomainError("origin p1 requires a finite a > 0")
        f0 = (a ** (m - 1.0) + alpha * (m - 1.0) * xi_start**2 / (2.0 * m)) ** (
            1.0 / (m - 1.0)
        )
        v0 = f0 ** (2.0 - m) * alpha * xi_start / m
        return f0, v0
    z_s = m / alpha**2 * xi_start ** (params.sigma - 2.0)
    if origin == "p2":
        e3 = p2_unstable_eigenvector(params)
        p2 = p2_coordinates(params)
        x_s = p2[0] + z_s * e3[0] / e3[2]
        y_s = p2[1] + z_s * e3[1] / e3[2]
    elif origin == "p0":
        if K is None or not 0.0 < K < math.inf:
            raise DomainError("origin p0 requires a finite K > 0")
        # K is the coefficient of xi^{(sigma+2)/(2(m-1))}; the matching
        # center-family parameter is sqrt(m) K^{m-1}.
        k_fam = math.sqrt(m) * K ** (m - 1.0)
        x_s, y_s = center_family_P0(k_fam, z_s, params)
        if x_s <= 0.0:
            raise DomainError("K too small: family leaves the physical region")
    else:
        raise DomainError("origin must be p1, p2 or p0")
    f0 = (alpha * xi_start**2 * x_s / m) ** (1.0 / (m - 1.0))
    v0 = alpha * xi_start * f0 ** (2.0 - m) * y_s / m
    return f0, v0


def _pressure_rhs(params: Params):
    """The profile equation in the pressure g = m f^{m-1}/(m-1), state
    (xi, g, w = g'), along the variable s with dxi/ds = rho.

    rho = g / hypot(g, xi w) is dimensionless and at most 1, so the field is
    regular where g vanishes and its xi-steps shrink toward a vanishing
    point.  Trial stages may step to xi < 0, where xi^sigma is taken as 0 to
    keep the field real, and at large sigma to an xi > 1 where xi^sigma
    overflows; it is taken as inf there, and the integrator rejects the
    non-finite stage.
    """
    m = params.m
    exp = derive_exponents(params)
    alpha, beta = exp.alpha, exp.beta
    sigma = params.sigma
    m1 = m - 1.0

    def rhs(s, u):
        xi, g, w = u
        r = math.hypot(g, xi * w)
        rho = g / r
        try:
            reaction = m * max(xi, 0.0) ** sigma
        except OverflowError:
            reaction = math.inf
        num = m1 * alpha * g - w * w - beta * xi * w - reaction
        return (rho, rho * w, num / (m1 * r))

    return rhs


def _rho(u) -> float:
    xi, g, w = u
    return g / math.hypot(g, xi * w)


def _classify_vanishing(xi0: float, g_slope: float, params: Params):
    report = interface_slopes(xi0, params)
    report.matched_slope = None
    if report.discriminant < -_DISC_TOL:
        return "sign_change", report
    if report.slope_minus is None:
        # small negative discriminant within tolerance: treat as double root
        exp = derive_exponents(params)
        double = -exp.beta * xi0 / 2.0
        report.slope_minus = report.slope_plus = double
    candidates = [report.slope_minus, report.slope_plus]
    dists = [abs(g_slope - c) for c in candidates]
    best = int(np.argmin(dists))
    if dists[best] <= _SLOPE_TOL:
        report.matched_slope = candidates[best]
        return "interface", report
    return "sign_change", report


def integrate_ssode(
    origin: str,
    params: Params,
    controls: IntegrationControls | None = None,
    a: float | None = None,
    K: float | None = None,
    xi_start: float = 1e-4,
) -> SsodeResult:
    """Integrate the profile equation from one of the admissible origins.

    origin is "p1" (f(0)=a>0, f'(0)=0), "p2" (f ~ C xi^{2/(m-1)}) or
    "p0" (f ~ K xi^{(sigma+2)/(2(m-1))}).  One run of the pressure field
    (_pressure_rhs) goes until rho = g / hypot(g, xi g') falls to 1e-4,
    which happens only where f vanishes, or until xi reaches xi_cap (fate
    "positive"), which is 8 xi_max, or 10 when xi_max overflows.  Up to an
    interface g is affine, so the vanishing point is xi0 = xi + g/|g'| at
    that event, and the pressure-slope quadratic at xi0 tells an interface
    from a sign change: g' must lie within 1e-2 of one of its roots.  A run
    that ends any other way (step underflow, step or s budget) raises
    InconclusiveProfile.

    controls sets rel_tol and the step in s, capped at 0.05; the frame
    holds the step ends, and since dxi/ds <= 1 the step also bounds the
    xi-gap between samples.  Its abs_tol counts only below 1e-60, and its
    max_time and sample_step are not used: rho stays above 1e-4 until the
    run ends, so an s budget of (xi_cap - xi_start) / 1e-4 always reaches
    xi_cap.
    """
    m = params.m
    exp = derive_exponents(params)
    if not xi_start > 0.0:
        raise DomainError("xi_start must be positive")
    xi_cap = 8.0 * exp.xi_max if math.isfinite(exp.xi_max) else 10.0
    if xi_cap <= xi_start:
        raise DomainError("xi_start must lie below xi_cap = %.6g" % xi_cap)

    f0, v0 = _asymptotic_start(origin, params, xi_start, a=a, K=K)
    g0 = m / (m - 1.0) * f0 ** (m - 1.0)
    w0 = m * f0 ** (m - 2.0) * v0

    # The asymptotic origins start with g many orders below any sensible
    # phase-space abs_tol; error control must resolve g relative to itself
    # or the early solution is garbage, so the absolute floor is dropped.
    base = controls or IntegrationControls()
    run_controls = replace(
        base,
        max_time=(xi_cap - xi_start) / _RHO_VANISH,
        max_step=min(base.max_step, _MAX_S_STEP),
        sample_step=math.inf,
        abs_tol=min(base.abs_tol, 1e-60),
    )
    events = [
        EventSpec(id="vanishing", guard=lambda u: _rho(u) - _RHO_VANISH),
        EventSpec(id="xi_cap", guard=lambda u: xi_cap - u[0]),
    ]
    traj = integrate(_pressure_rhs(params), (xi_start, g0, w0), events, run_controls)

    hit = traj.event
    if hit is None:
        raise InconclusiveProfile("profile integration failed: %s" % traj.termination)
    xi0 = g_slope = report = None
    if hit.id == "xi_cap":
        fate = "positive"
    else:
        xi_h, g_h, g_slope = (float(v) for v in hit.point)
        xi0 = xi_h + g_h / abs(g_slope)
        fate, report = _classify_vanishing(xi0, g_slope, params)

    pts = traj.points
    rows = _physical_rows(pts[:, 1] > 0.0, pts[:, 0])
    xi, g, w = pts[rows, 0], pts[rows, 1], pts[rows, 2]
    f = ((m - 1.0) * g / m) ** (1.0 / (m - 1.0))
    frame = ProfileFrame(xi=xi, f=f, df=w * f ** (2.0 - m) / m)
    return SsodeResult(
        frame=frame, fate=fate, xi0=xi0, g_slope=g_slope, report=report, record=traj.record
    )


def find_good_profile_P1(
    params: Params,
    a_bracket: tuple[float, float],
    tol: float,
    controls: IntegrationControls | None = None,
    xi_start: float = 1e-4,
):
    """Bisect the initial height a = f(0) between sign-change and positive fates.

    Returns (a_star, result) with result the SsodeResult of the run at
    a_star.  a_star is the midpoint of the final bracket, unless that run
    is not an interface while an earlier run was: then result is the last
    interface run and a_star its a, so the two always belong together.
    """
    a_lo, a_hi = float(a_bracket[0]), float(a_bracket[1])
    if not 0.0 < a_lo < a_hi < math.inf:
        raise DomainError("need 0 < a_lo < a_hi < inf")
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be finite and positive")
    # with tol at least the spacing at a_hi every midpoint lies strictly
    # between the ends, so the bisection ends
    if tol < math.ulp(a_hi):
        raise ProfileBracketError(
            "tol %.3g is below the float spacing of a near %.17g" % (tol, a_hi)
        )

    def run_at(a):
        return integrate_ssode("p1", params, controls, a=a, xi_start=xi_start)

    r_lo, r_hi = run_at(a_lo), run_at(a_hi)
    if r_lo.fate == r_hi.fate:
        raise ProfileBracketError(
            "same fate (%s) at both ends of the a-bracket (%g, %g)" % (r_lo.fate, a_lo, a_hi)
        )
    sign_change_low = r_lo.fate == "sign_change"
    # (a, result) of the last interface run
    best = (a_lo, r_lo) if r_lo.fate == "interface" else ((a_hi, r_hi) if r_hi.fate == "interface" else None)
    while a_hi - a_lo > tol:
        mid = 0.5 * (a_lo + a_hi)
        r_mid = run_at(mid)
        if r_mid.fate == "interface":
            best = (mid, r_mid)
        if (r_mid.fate == "sign_change") == sign_change_low:
            a_lo = mid
        else:
            a_hi = mid
    a_star = 0.5 * (a_lo + a_hi)
    result = run_at(a_star)
    if result.fate != "interface" and best is not None:
        return best
    return a_star, result

