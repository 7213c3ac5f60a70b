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
from .integrate import EventSpec, IntegrationControls, Trajectory, _coarse_controls, integrate
from .orbits import BracketError, InconclusiveError

_RHO_VANISH = 1e-4  # rho = g / hypot(g, xi g') at which a profile run ends as vanishing
_SLOPE_TOL = 1e-2  # largest |g' - root| at the vanishing event that is an interface
_DISC_TOL = 1e-6  # discriminants in [-_DISC_TOL, 0) count as a double root
_MAX_S_STEP = 0.05  # the step cap of a profile run, in s

__all__ = [
    "ProfileFrame",
    "InterfaceReport",
    "SsodeResult",
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

    Samples with X <= 0 or Z <= 0, or where f underflows to 0 (at small
    m - 1), are dropped (counted in n_dropped), as are repeated Z values, so
    xi comes out strictly increasing and f positive.
    """
    m = params.m
    exp = derive_exponents(params)
    pts = traj.points
    xi = (exp.alpha**2 * np.maximum(pts[:, 2], 0.0) / m) ** (1.0 / (params.sigma - 2.0))
    f = (exp.alpha * xi**2 * np.maximum(pts[:, 0], 0.0) / m) ** (1.0 / (m - 1.0))
    rows = _physical_rows(f > 0.0, pts[:, 2])
    xi, f = xi[rows], f[rows]
    df = exp.alpha * xi * f ** (2.0 - m) * pts[rows, 1] / m
    return ProfileFrame(xi=xi, f=f, df=df, n_dropped=len(pts) - len(rows))


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
    """First-order asymptotic data (g, w = g') at xi_start for each origin,
    in the pressure g = m f^{m-1}/(m-1).

    The leading terms alone select the wrong nearby solution: the slow
    stable mode they leave behind decays like a small power of xi and
    visibly shifts the vanishing point.  For "p2" the next order comes from
    the unstable eigendirection at P2, for "p0" from the center-manifold
    family at the origin, for "p1" from the exact local integral-curve
    shape f = (a^{m-1} + alpha(m-1) xi^2 / 2m)^{1/(m-1)}.  In the phase
    variables g = alpha xi^2 X / (m-1) and w = alpha xi Y, so the start
    never forms f, which underflows to 0 at small m - 1.
    """
    m = params.m
    exp = derive_exponents(params)
    alpha = exp.alpha
    if origin == "p1":
        if a is None or not 0.0 < a < math.inf:
            raise DomainError("origin p1 requires a finite a > 0")
        return m * a ** (m - 1.0) / (m - 1.0) + 0.5 * alpha * xi_start**2, alpha * xi_start
    z_s = m / alpha**2 * xi_start ** (params.sigma - 2.0)
    if origin == "p2":
        e3 = p2_unstable_eigenvector(params)
        p2 = p2_coordinates(params)
        x_s = p2[0] + z_s * e3[0] / e3[2]
        y_s = p2[1] + z_s * e3[1] / e3[2]
    elif origin == "p0":
        if K is None:
            raise DomainError("origin p0 requires a finite K > 0")
        x_s, y_s = center_family_P0(K, z_s, params)
    else:
        raise DomainError("origin must be p1, p2 or p0")
    return alpha * xi_start**2 * x_s / (m - 1.0), alpha * xi_start * y_s


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
    InconclusiveError.

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

    g0, w0 = _asymptotic_start(origin, params, xi_start, a=a, K=K)

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
        raise InconclusiveError("profile integration failed: %s" % traj.termination)
    xi0 = g_slope = report = None
    if hit.id == "xi_cap":
        fate = "positive"
    else:
        xi_h, g_h, g_slope = (float(v) for v in hit.point)
        xi0 = xi_h + g_h / abs(g_slope)
        fate, report = _classify_vanishing(xi0, g_slope, params)

    # rows where g <= 0, or where f underflows to 0 at small m - 1, are
    # dropped, so the frame's f is positive
    pts = traj.points
    f = ((m - 1.0) * np.maximum(pts[:, 1], 0.0) / m) ** (1.0 / (m - 1.0))
    rows = _physical_rows(f > 0.0, pts[:, 0])
    f = f[rows]
    frame = ProfileFrame(
        xi=pts[rows, 0], f=f, df=pts[rows, 2] * f ** (2.0 - m) / m, n_dropped=len(pts) - len(rows)
    )
    return SsodeResult(
        frame=frame, fate=fate, xi0=xi0, g_slope=g_slope, report=report, record=traj.record
    )


def _fate_clearance(result: SsodeResult, params: Params) -> float:
    """How far the fate of a run lies inside its case of _classify_vanishing:
    the smaller of |discriminant + _DISC_TOL| and, where the quadratic has
    roots, |nearest-root distance - _SLOPE_TOL|, each divided by the sum
    of the magnitudes of the terms it is formed from.  0 for a run with no
    report, as a "positive" one."""
    report = result.report
    if report is None:
        return 0.0
    exp = derive_exponents(params)
    xi0, g_slope = result.xi0, result.g_slope
    disc_scale = exp.beta**2 * xi0**2 + 4.0 * params.m * xi0**params.sigma
    clearance = abs(report.discriminant + _DISC_TOL) / disc_scale
    if report.slope_minus is not None:
        root = min((report.slope_minus, report.slope_plus), key=lambda c: abs(g_slope - c))
        slope_edge = abs(abs(g_slope - root) - _SLOPE_TOL) / (abs(g_slope) + abs(root))
        clearance = min(clearance, slope_edge)
    return clearance


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
    is not an interface while an earlier fate was: then result is the run
    at the last a whose fate was an interface, and a_star that a, so the
    two always belong together.

    Each bracket end and each midpoint is first run under coarse controls,
    rel_tol 100 times the caller's but no looser than 1e-8
    (integrate._coarse_controls).  Its fate is kept where it is "interface"
    or "sign_change" and clears both edges of the classification, the
    discriminant at -1e-6 and the nearest-root distance at 1e-2, by 1e3
    times the coarse rel_tol relative to their scale (_fate_clearance).
    A coarse "positive", an inconclusive coarse run and a fate inside that
    margin are rerun under controls, and only such a run can raise
    InconclusiveError.  The run at a_star, and the run at an earlier a that
    is returned in its place, are always under controls, so the answer is
    the one of a search that runs every a under controls.  Caller controls
    with rel_tol 1e-8 or looser make no coarse pass.
    """
    a_lo, a_hi = float(a_bracket[0]), float(a_bracket[1])
    if not 0.0 < a_lo < a_hi < math.inf:
        raise DomainError("need 0 < a_lo < a_hi < inf")
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be finite and positive")
    # with tol at least the spacing at a_hi every midpoint lies strictly
    # between the ends, so the bisection ends
    if tol < math.ulp(a_hi):
        raise BracketError(
            "tol %.3g is below the float spacing of a near %.17g" % (tol, a_hi)
        )
    base = controls or IntegrationControls()
    coarse = _coarse_controls(base)
    # a profile run holds abs_tol below 1e-60, so only a looser rel_tol
    # makes a coarse run differ
    if coarse is not None and coarse.rel_tol == base.rel_tol:
        coarse = None

    def run_at(a, run_controls=controls):
        return integrate_ssode("p1", params, run_controls, a=a, xi_start=xi_start)

    def fate_at(a):
        """The fate at a: the coarse run's where it clears the margin, else
        that of a run under controls."""
        if coarse is not None:
            try:
                first = run_at(a, coarse)
            except InconclusiveError:
                pass
            else:
                if _fate_clearance(first, params) > 1e3 * coarse.rel_tol:
                    return first.fate
        return run_at(a).fate

    f_lo, f_hi = fate_at(a_lo), fate_at(a_hi)
    if f_lo == f_hi:
        raise BracketError(
            "same fate (%s) at both ends of the a-bracket (%g, %g)" % (f_lo, a_lo, a_hi)
        )
    sign_change_low = f_lo == "sign_change"
    # the a of the last interface fate
    best = a_lo if f_lo == "interface" else (a_hi if f_hi == "interface" else None)
    while a_hi - a_lo > tol:
        mid = 0.5 * (a_lo + a_hi)
        f_mid = fate_at(mid)
        if f_mid == "interface":
            best = mid
        if (f_mid == "sign_change") == sign_change_low:
            a_lo = mid
        else:
            a_hi = mid
    a_star = 0.5 * (a_lo + a_hi)
    result = run_at(a_star)
    if result.fate != "interface" and best is not None:
        return best, run_at(best)
    return a_star, result
