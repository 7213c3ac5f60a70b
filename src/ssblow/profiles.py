"""Physical profiles f(xi): reconstruction, direct integration, interfaces.

A phase-space trajectory maps pointwise back to a profile via

    xi = (alpha^2 Z / m)^{1/(sigma-2)},   f = (alpha xi^2 X / m)^{1/(m-1)},
    f' = (alpha xi f^{2-m} Y) / m,

and the profile equation (f^m)'' - alpha f + beta xi f' + xi^sigma f^{2-m} = 0
can be integrated directly as an independent cross-check.  At a vanishing
point xi0 the pressure slope g' (g = m f^{m-1}/(m-1)) must solve

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

__all__ = [
    "ProfileFrame",
    "InterfaceReport",
    "SelfSimilarEval",
    "SsodeResult",
    "InconclusiveProfile",
    "ProfileBracketError",
    "reconstruct_profile",
    "ssode_residual",
    "interface_slopes",
    "integrate_ssode",
    "find_good_profile_P1",
    "evaluate_solution",
    "p2_behavior_prefactor",
    "p0_behavior_exponent",
]


@dataclass
class ProfileFrame:
    """Columnar profile samples; xi strictly increasing, f >= 0."""

    xi: np.ndarray
    f: np.ndarray
    df: np.ndarray
    g_slope: np.ndarray
    n_dropped: int = 0

    def __len__(self):
        return len(self.xi)

    def decimated(self, step: int) -> "ProfileFrame":
        return ProfileFrame(
            xi=self.xi[::step],
            f=self.f[::step],
            df=self.df[::step],
            g_slope=self.g_slope[::step],
            n_dropped=self.n_dropped,
        )


@dataclass
class InterfaceReport:
    xi0: float
    slope_minus: float | None
    slope_plus: float | None
    discriminant: float
    matched_slope: float | None = None


@dataclass(frozen=True)
class SelfSimilarEval:
    T: float
    t: float
    x: float
    u: float


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
    g_slope = m * f ** (m - 2.0) * df
    return ProfileFrame(xi=xi, f=f, df=df, g_slope=g_slope, n_dropped=n_dropped)


def ssode_residual(frame: ProfileFrame, params: Params) -> float:
    """Max normalized residual of the profile equation on the sample grid.

    (f^m)'' is approximated by second-order finite differences on the
    nonuniform grid; f' uses the sampled derivative.  Normalization is
    max(1, max |alpha f|).
    """
    if len(frame) < 5:
        raise DomainError("need at least 5 samples to test the profile equation")
    if np.any(frame.f[1:-1] <= 0.0):
        raise DomainError("interior samples must have f > 0")
    m = params.m
    exp = derive_exponents(params)
    xi, f, df = frame.xi, frame.f, frame.df
    u = f**m
    h1 = xi[1:-1] - xi[:-2]
    h2 = xi[2:] - xi[1:-1]
    d2u = 2.0 * (h1 * u[2:] - (h1 + h2) * u[1:-1] + h2 * u[:-2]) / (h1 * h2 * (h1 + h2))
    mid = slice(1, -1)
    res = (
        d2u
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


def p2_behavior_prefactor(params: Params) -> float:
    """Coefficient of xi^{2/(m-1)} in the profile leaving the origin through P2."""
    m = params.m
    return ((m - 1.0) / (2.0 * m * (m + 1.0))) ** (1.0 / (m - 1.0))


def p0_behavior_exponent(params: Params) -> float:
    """Power (sigma+2)/(m-p) = (sigma+2)/(2(m-1)) of the tail-blow-up behavior."""
    return (params.sigma + 2.0) / (2.0 * (params.m - 1.0))


@dataclass
class SsodeResult:
    frame: ProfileFrame
    fate: str  # "interface" | "sign_change" | "positive"
    xi0: float | None
    g_slope: float | None
    report: InterfaceReport | None
    origin: str
    pressure_leg: bool = False


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
        if a is None or a <= 0.0:
            raise DomainError("origin p1 requires a > 0")
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
        if K is None or K <= 0.0:
            raise DomainError("origin p0 requires K > 0")
        # K is the coefficient of xi^{(sigma+2)/(2(m-1))}; the matching
        # center-family parameter is sqrt(m) K^{m-1}.
        k_fam = math.sqrt(m) * K ** (m - 1.0)
        x_s = center_family_P0(k_fam, z_s, params)
        if x_s <= 0.0:
            raise DomainError("K too small: family leaves the physical region")
        y_s = (x_s - z_s) * alpha / exp.beta
    else:
        raise DomainError("origin must be p1, p2 or p0")
    f0 = (alpha * xi_start**2 * x_s / m) ** (1.0 / (m - 1.0))
    v0 = alpha * xi_start * f0 ** (2.0 - m) * y_s / m
    return f0, v0


def _ssode_rhs(params: Params):
    """State (xi, f, v = f'); the profile equation solved for f''."""
    m = params.m
    exp = derive_exponents(params)
    alpha, beta = exp.alpha, exp.beta
    sigma = params.sigma
    m1 = m - 1.0
    tiny = 1e-280

    def rhs(t, u):
        xi, f, v = u
        fc = f if f > tiny else tiny
        num = (
            alpha * f
            - beta * xi * v
            - xi**sigma * fc ** (2.0 - m)
            - m * m1 * fc ** (m - 2.0) * v * v
        )
        return (1.0, v, num / (m * fc**m1))

    return rhs


def _pressure_rhs(params: Params):
    """State (xi, g, w = g'); pressure form of the profile equation."""
    m = params.m
    exp = derive_exponents(params)
    alpha, beta = exp.alpha, exp.beta
    sigma = params.sigma
    m1 = m - 1.0
    tiny = 1e-280

    def rhs(t, u):
        xi, g, w = u
        gc = g if g > tiny else tiny
        return (1.0, w, (m1 * alpha * g - w * w - beta * xi * w - m * xi**sigma) / (m1 * gc))

    return rhs


def _g_of_f(f: float, params: Params) -> float:
    m = params.m
    return m / (m - 1.0) * f ** (m - 1.0)


def _classify_vanishing(
    xi0: float, g_slope: float, params: Params, slope_tol: float, disc_tol: float
):
    report = interface_slopes(xi0, params)
    report.matched_slope = None
    if report.discriminant < -disc_tol:
        return "sign_change", report
    if report.slope_minus is None:
        # small negative discriminant within tolerance: treat as double root
        exp = derive_exponents(params)
        double = -exp.beta * xi0 / 2.0
        report.slope_minus = report.slope_plus = double
    candidates = [report.slope_minus, report.slope_plus]
    dists = [abs(g_slope - c) for c in candidates]
    best = int(np.argmin(dists))
    if dists[best] <= slope_tol:
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
    xi_cap: float | None = None,
    f_floor: float = 1e-10,
    g_switch: float = 1e-6,
    slope_tol: float = 1e-2,
    disc_tol: float = 1e-6,
) -> SsodeResult:
    """Integrate the profile equation from one of the admissible origins.

    origin is "p1" (f(0)=a>0, f'(0)=0), "p2" (f ~ C xi^{2/(m-1)}) or
    "p0" (f ~ K xi^{(sigma+2)/(2(m-1))}).  Integration proceeds until f
    reaches f_floor (a vanishing: classified interface or sign change from
    the pressure slope there), until xi exceeds xi_cap (fate "positive"),
    or until the degenerate-diffusion stiffness forces a switch to the
    pressure variable g, which is Lipschitz up to the interface.
    """
    m = params.m
    exp = derive_exponents(params)
    if xi_start <= 0.0:
        raise DomainError("xi_start must be positive")
    if xi_cap is None:
        xi_cap = 8.0 * exp.xi_max if math.isfinite(exp.xi_max) else 10.0
    if xi_cap <= xi_start:
        raise DomainError("xi_cap must exceed xi_start")

    f0, v0 = _asymptotic_start(origin, params, xi_start, a=a, K=K)

    # The asymptotic origins start with f many orders below any sensible
    # phase-space abs_tol; error control must resolve f relative to itself
    # or the early solution is garbage, so the absolute floor is dropped.
    base = controls or IntegrationControls()
    leg_controls = replace(
        base,
        max_time=xi_cap - xi_start,
        max_step=min(base.max_step, 0.05),
        abs_tol=min(base.abs_tol, 1e-60),
    )

    beta = exp.beta
    sigma = params.sigma
    f_signal = 1e4 * f_floor  # "f is already vanishing" threshold for certificates
    certify_margin = max(10.0 * slope_tol, 0.1)

    def _certify_level(xi):
        # a pressure slope below this cannot belong to an interface at xi
        disc = beta * beta * xi * xi - 4.0 * m * xi**sigma
        return (-beta * xi - math.sqrt(max(disc, 0.0))) / 2.0 - certify_margin

    def steep_guard(u):
        # fires when f is tiny AND g' is certifiably below the lower root;
        # at a sign change g' diverges to -inf, so this always catches it
        # before the (f, f') form of the equation turns singular.
        xi, f, v = u
        if f <= 0.0:
            return -1.0
        gp = m * f ** (m - 2.0) * v
        return max(f - f_signal, gp - _certify_level(xi))

    f_floor_ev = EventSpec(id="f_floor", guard=lambda u: u[1] - f_floor)
    g_switch_ev = EventSpec(
        id="g_switch", guard=lambda u: _g_of_f(max(u[1], 0.0), params) - g_switch
    )
    steep_ev = EventSpec(id="steep_sign_change", guard=steep_guard)
    traj = integrate(
        _ssode_rhs(params), (xi_start, f0, v0), [f_floor_ev, g_switch_ev, steep_ev], leg_controls
    )

    xi1 = traj.points[:, 0]
    f1 = traj.points[:, 1]
    v1 = traj.points[:, 2]
    pressure_leg = False
    xi2 = f2 = v2 = None

    hit = traj.event
    end_state = None  # (xi0, g_slope) at a vanishing
    forced_sign_change = False
    fate = None
    if hit is not None and hit.id in ("f_floor", "steep_sign_change"):
        xi0 = float(hit.point[0])
        fval = max(float(hit.point[1]), f_floor * 1e-3)
        end_state = (xi0, m * fval ** (m - 2.0) * float(hit.point[2]))
        forced_sign_change = hit.id == "steep_sign_change"
    elif (hit is not None and hit.id == "g_switch") or traj.termination == "step_underflow":
        # continue in the pressure variable down to the g-equivalent of f_floor
        pressure_leg = True
        src = hit.point if hit is not None else traj.final_point
        xi_s, f_s, v_s = (float(v) for v in src)
        if f_s <= f_floor:
            end_state = (xi_s, m * max(f_s, f_floor * 1e-3) ** (m - 2.0) * v_s)
        else:
            g_s = _g_of_f(f_s, params)
            w_s = m * f_s ** (m - 2.0) * v_s
            g_floor = _g_of_f(f_floor, params)
            g_signal = _g_of_f(f_signal, params)

            def steep_guard_g(u):
                xi, g, w = u
                return max(g - g_signal, w - _certify_level(xi))

            leg2_events = [
                EventSpec(id="g_floor", guard=lambda u: u[1] - g_floor),
                EventSpec(id="steep_sign_change", guard=steep_guard_g),
            ]
            leg2_controls = replace(leg_controls, max_time=xi_cap - xi_s)
            traj2 = integrate(_pressure_rhs(params), (xi_s, g_s, w_s), leg2_events, leg2_controls)
            hit2 = traj2.event
            xi2 = traj2.points[:, 0]
            g2 = np.maximum(traj2.points[:, 1], 0.0)
            f2 = ((m - 1.0) * g2 / m) ** (1.0 / (m - 1.0))
            v2 = traj2.points[:, 2] * f2 ** (2.0 - m) / m
            if hit2 is not None:
                end_state = (float(hit2.point[0]), float(hit2.point[2]))
                forced_sign_change = hit2.id == "steep_sign_change"
            elif traj2.termination == "max_time":
                fate = "positive"
            else:
                raise InconclusiveProfile(
                    "pressure-variable continuation failed: %s" % traj2.termination
                )
    elif traj.termination == "max_time":
        fate = "positive"
    else:
        raise InconclusiveProfile("profile integration failed: %s" % traj.termination)

    xi0 = g_slope = None
    report = None
    if end_state is not None:
        xi0, g_slope = end_state
        fate, report = _classify_vanishing(xi0, g_slope, params, slope_tol, disc_tol)
        if forced_sign_change:
            fate = "sign_change"
            report.matched_slope = None

    # assemble the frame: strictly positive f, strictly increasing xi
    if xi2 is not None:
        xi_all = np.concatenate([xi1, xi2])
        f_all = np.concatenate([f1, f2])
        v_all = np.concatenate([v1, v2])
    else:
        xi_all, f_all, v_all = xi1, f1, v1
    rows = _physical_rows(f_all > 0.0, xi_all)
    xi_all, f_all, v_all = xi_all[rows], f_all[rows], v_all[rows]
    g_all = m * f_all ** (m - 2.0) * v_all
    frame = ProfileFrame(xi=xi_all, f=f_all, df=v_all, g_slope=g_all)

    return SsodeResult(
        frame=frame,
        fate=fate,
        xi0=xi0,
        g_slope=g_slope,
        report=report,
        origin=origin,
        pressure_leg=pressure_leg,
    )


def find_good_profile_P1(
    params: Params,
    a_bracket: tuple[float, float],
    tol: float,
    controls: IntegrationControls | None = None,
    **ssode_kwargs,
):
    """Bisect the initial height a = f(0) between sign-change and positive fates.

    Returns (a_star, result) where result is the SsodeResult at a_star; the
    boundary profile carries the interface (or the closest computed
    approximation to it).
    """
    a_lo, a_hi = float(a_bracket[0]), float(a_bracket[1])
    if not 0.0 < a_lo < a_hi:
        raise DomainError("need 0 < a_lo < a_hi")
    if tol <= 0.0:
        raise DomainError("tol must be positive")

    def run_at(a):
        return integrate_ssode("p1", params, controls, a=a, **ssode_kwargs)

    r_lo, r_hi = run_at(a_lo), run_at(a_hi)
    if r_lo.fate == r_hi.fate:
        raise ProfileBracketError(
            "same fate (%s) at both ends of the a-bracket (%g, %g)" % (r_lo.fate, a_lo, a_hi)
        )
    sign_change_low = r_lo.fate == "sign_change"
    best = r_lo if r_lo.fate == "interface" else (r_hi if r_hi.fate == "interface" else None)
    while a_hi - a_lo > tol:
        mid = 0.5 * (a_lo + a_hi)
        r_mid = run_at(mid)
        if r_mid.fate == "interface":
            best = r_mid
        if (r_mid.fate == "sign_change") == sign_change_low:
            a_lo = mid
        else:
            a_hi = mid
    a_star = 0.5 * (a_lo + a_hi)
    result = run_at(a_star)
    if result.fate != "interface" and best is not None:
        result = best
    return a_star, result


def evaluate_solution(
    frame: ProfileFrame, T: float, x: float, t: float, params: Params
) -> SelfSimilarEval:
    """Evaluate u(x, t) = (T-t)^{-alpha} f(|x| (T-t)^{beta}) by linear interpolation.

    f is zero beyond the sampled support; below the first sample the first
    value is used (the admissible origins are flat or vanishing there).
    """
    if not 0.0 <= t < T:
        raise DomainError("need 0 <= t < T")
    exp = derive_exponents(params)
    s = (T - t) ** exp.beta
    xi = abs(x) * s
    fval = float(np.interp(xi, frame.xi, frame.f, left=float(frame.f[0]), right=0.0))
    return SelfSimilarEval(T=T, t=t, x=x, u=(T - t) ** (-exp.alpha) * fval)
