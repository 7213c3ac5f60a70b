"""Physical profiles f(xi): reconstruction, direct integration, interfaces.

A phase-space trajectory maps pointwise back to a profile via

    xi = (alpha^2 Z / m)^{1/(sigma-2)},   g = alpha xi^2 X / (m-1),
    g' = alpha xi Y,

in the pressure g = m f^{m-1}/(m-1), and the profile equation
(f^m)'' - alpha f + beta xi f' + xi^sigma f^{2-m} = 0 can be integrated
directly as an independent cross-check.  Both routes give a frame
through f = ((m-1) g / m)^{1/(m-1)} and f' = g' f^{2-m} / m.  The direct
run integrates g, which is Lipschitz up to an interface, in the form

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
from typing import TYPE_CHECKING

from .params import (
    Params,
    DomainError,
    derive_exponents,
    p2_coordinates,
)
from .field import center_family_P0, p2_unstable_eigenvector
from .integrate import EventSpec, IntegrationControls, Trajectory, _coarse_controls, integrate
from .orbits import BracketError, InconclusiveError

if TYPE_CHECKING:
    import numpy as np

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
    """Columnar profile samples; xi strictly increasing, f > 0 (_frame)."""

    xi: np.ndarray
    f: np.ndarray
    df: np.ndarray

    def __len__(self):
        return len(self.xi)

    def decimated(self, step: int) -> "ProfileFrame":
        return ProfileFrame(xi=self.xi[::step], f=self.f[::step], df=self.df[::step])


@dataclass
class InterfaceReport:
    xi0: float
    slope_minus: float | None
    slope_plus: float | None
    discriminant: float
    matched_slope: float | None = None


def _frame(xi: np.ndarray, g: np.ndarray, dg: np.ndarray, m: float) -> ProfileFrame:
    """The profile of pressure samples g, g' at xi: f = ((m-1) g / m)^{1/(m-1)}
    and f' = g' f^{2-m} / m, on the rows where f > 0 and xi strictly exceeds
    its value at the previous row with f > 0.  So rows with g <= 0, or where
    f underflows to 0 (at small m - 1), are dropped, as are repeated xi."""
    import numpy as np

    f = ((m - 1.0) * np.maximum(g, 0.0) / m) ** (1.0 / (m - 1.0))
    rows = np.flatnonzero(f > 0.0)
    rows = rows[np.diff(xi[rows], prepend=-math.inf) > 0.0]
    f = f[rows]
    return ProfileFrame(xi=xi[rows], f=f, df=dg[rows] * f ** (2.0 - m) / m)


def _phase_pressure(xi, x, y, alpha: float, m: float):
    """The pressure g = alpha xi^2 X / (m-1) and its slope g' = alpha xi Y at
    the phase point (X, Y) over xi; floats or arrays."""
    return alpha * xi**2 * x / (m - 1.0), alpha * xi * y


def reconstruct_profile(traj: Trajectory, params: Params) -> ProfileFrame:
    """Invert the phase-space change of variables along a trajectory.

    xi comes from Z, and the pressure g and g' from X and Y over it
    (_phase_pressure); _frame forms f and f' and keeps the rows where f > 0
    and xi strictly increases, which drops the samples with X <= 0 or
    Z <= 0 and those where f underflows to 0 (at small m - 1).
    """
    import numpy as np

    exp = derive_exponents(params)
    pts = traj.points
    xi = (exp.alpha**2 * np.maximum(pts[:, 2], 0.0) / params.m) ** (1.0 / (params.sigma - 2.0))
    g, dg = _phase_pressure(xi, pts[:, 0], pts[:, 1], exp.alpha, params.m)
    return _frame(xi, g, dg, params.m)


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
    import numpy as np

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
    return _phase_pressure(xi_start, x_s, y_s, alpha, m)


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
    best = 0 if dists[0] <= dists[1] else 1
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
    holds the step ends where f > 0 (_frame), and since dxi/ds <= 1 the
    step also bounds the xi-gap between samples.  Its abs_tol counts only below 1e-60, and its
    max_time and sample_step are not used: rho stays above 1e-4 until the
    run ends, so an s budget of (xi_cap - xi_start) / 1e-4 always reaches
    xi_cap.
    """
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
        xi_h, g_h, g_slope = hit.point
        xi0 = xi_h + g_h / abs(g_slope)
        fate, report = _classify_vanishing(xi0, g_slope, params)

    pts = traj.points
    return SsodeResult(
        frame=_frame(pts[:, 0], pts[:, 1], pts[:, 2], params.m),
        fate=fate, xi0=xi0, g_slope=g_slope, report=report, record=traj.record,
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
    """Bisect the initial height a = f(0) between a sign change and no sign change.

    One side rule decides the bracket, every bisection step and the
    answer: a fate is "sign_change" or not, so an interface and a positive
    fate lie on the same side; the brackets of the README, the tests and
    the benchmark have an interface at one end.  Ends on the same side
    raise BracketError, which names that side.  Returns (a_star, result):
    a_star is the end of the final bracket whose fate is not a sign
    change, and result the SsodeResult of the run at a_star under
    controls.

    Each bracket end and each midpoint is first run under coarse controls,
    rel_tol 100 times the caller's but no looser than 1e-8
    (integrate._coarse_controls).  Its fate is kept where it is "interface"
    or "sign_change" and clears both edges of the classification, the
    discriminant at -1e-6 and the nearest-root distance at 1e-2, by 1e3
    times the coarse rel_tol relative to their scale (_fate_clearance).
    A coarse "positive", an inconclusive coarse run and a fate inside that
    margin are rerun under controls, and an inconclusive rerun raises
    InconclusiveError.  Where the fate at a_star was kept from a coarse
    run, a_star is run once under controls, and a sign change there
    raises InconclusiveError too.  So no a runs twice under controls, and the answer
    is the one of a search that runs every a under controls.  Caller
    controls with rel_tol 1e-8 or looser make no coarse pass.
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

    def side_at(a):
        """Whether the fate at a is a sign change, and the run under
        controls that decided it, or None where a coarse fate was kept."""
        if coarse is not None:
            try:
                first = run_at(a, coarse)
            except InconclusiveError:
                pass
            else:
                if _fate_clearance(first, params) > 1e3 * coarse.rel_tol:
                    return first.fate == "sign_change", None
        run = run_at(a)
        return run.fate == "sign_change", run

    (lo_side, lo_run), (hi_side, hi_run) = side_at(a_lo), side_at(a_hi)
    if lo_side == hi_side:
        side = "a sign change at both ends" if lo_side else "no sign change at either end"
        raise BracketError("%s of the a-bracket (%g, %g)" % (side, a_lo, a_hi))
    while a_hi - a_lo > tol:
        mid = 0.5 * (a_lo + a_hi)
        side, run = side_at(mid)
        if side == lo_side:
            a_lo, lo_run = mid, run
        else:
            a_hi, hi_run = mid, run
    a_star, result = (a_hi, hi_run) if lo_side else (a_lo, lo_run)
    if result is None:
        result = run_at(a_star)
        if result.fate == "sign_change":
            raise InconclusiveError(
                "the run at a* = %.17g changes sign under the caller's controls,"
                " against its coarse fate" % a_star
            )
    return a_star, result
