"""Distinguished orbits, fate classification, and the critical-sigma search.

Launches come out of P2 (along its unstable eigenvector), out of P0 (on the
center-manifold family), and out of Q1 in the chart at infinity.  A standard
set of terminal events operationalizes the two possible fates of an orbit:

* entry into a parabola point P0^lambda, an infinite-time limit.  On the
  upper half of the parabola, outside a band round the vertex, both normal
  directions attract, and the run ends where the orbit enters a computed
  trapping tube round the parabola (see _tube_at): from there on it is
  certified to converge, and lambda_hat is the projection of that state
  along the stable fibres, to within 1e-10.  On the lower half, in the
  vertex band and wherever the tube does not apply, the certificate is
  still stagnation: a field norm below 1e-11 within 1e-4 of the parabola,
  with lambda_hat the state's Y;
* escape to the sign-change attractor Q3 at infinity, certified either by a
  downward crossing of the midplane {Y = -beta/(2 alpha)} with Z above the
  vertex height (Z is non-decreasing, so the orbit can never return to the
  parabola), or by Y falling below a floor with X bounded away from zero.

Everything else (out of time, out of steps) is Inconclusive and surfaced,
never coerced.  Runs that keep only the fate (the sigma* search, the CLI's
sigma-star and sweep) use FATE_ONLY_CONTROLS: no step cap, step ends only,
and a time budget of 1e6, so that near the critical sigma the slow,
logarithmic vertex approach still reaches a fate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .params import (
    Params,
    DomainError,
    beta_over_alpha,
    derive_exponents,
    lambda_range,
    parabola_z,
    p2_coordinates,
    validate_params,
)
from .field import (
    make_rhs,
    make_chart_rhs,
    center_family_P0,
    p2_unstable_eigenvector,
    p2_chart_coordinates,
    phase_from_chart,
)
from .integrate import EventSpec, IntegrationControls, Trajectory, integrate

__all__ = [
    "FateKind",
    "OrbitFate",
    "ShootResult",
    "InconclusiveError",
    "BracketError",
    "FATE_ONLY_CONTROLS",
    "launch_from_P2",
    "launch_from_P0",
    "launch_from_Q1_chart",
    "parabola_entry_distance",
    "standard_fate_events",
    "classify_fate",
    "run_p2_orbit",
    "run_p0_orbit",
    "run_q1_orbit",
    "q1_to_p2_connection",
    "lambda_of_sigma",
    "sigma_star",
]


class InconclusiveError(RuntimeError):
    """An orbit terminated without any fate certificate."""


class BracketError(ValueError):
    """A shooting bracket does not separate the two fates."""


class FateKind:
    ENTERS_PARABOLA = "enters_parabola"
    ENTERS_VERTEX = "enters_vertex_neighborhood"
    ENTERS_Q3 = "enters_q3"
    INCONCLUSIVE = "inconclusive"


# fate thresholds: stagnation is a field norm below _STAGNATION_FIELD_TOL
# within _PARABOLA_DIST_TOL of the parabola; an entry within _VERTEX_TOL of
# the vertex's lambda is a vertex entry; a Y-floor hit certifies Q3 only
# with X at least _X_AWAY_TOL
_STAGNATION_FIELD_TOL = 1e-11
_PARABOLA_DIST_TOL = 1e-4
_VERTEX_TOL = 5e-3
_Y_FLOOR = -1e3
_X_AWAY_TOL = 1e-8
# the trapping tube bounds the truncation error of its lambda_hat by this;
# its coefficients grow like 1/lambda^2 next to lambda = 0, so above
# _TUBE_LAMBDA_TOP they could overflow, and there the stagnation test applies
_PROJECTION_TOL = 1e-10
_TUBE_LAMBDA_TOP = -1e-100

# the controls of every chart run out of Q1 (see run_q1_orbit)
_CHART_CONTROLS = IntegrationControls(max_time=100.0, max_step=0.01)

# fate-only runs: error control alone sets the step, only step ends are
# stored, and the budget lets orbits near the critical sigma resolve
FATE_ONLY_CONTROLS = IntegrationControls(max_step=math.inf, sample_step=math.inf, max_time=1e6)


@dataclass
class OrbitFate:
    """Classified terminal behavior of one orbit."""

    kind: str
    lambda_hat: float | None
    entry_point: np.ndarray | None
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def parabola_side(self) -> bool:
        return self.kind in (FateKind.ENTERS_PARABOLA, FateKind.ENTERS_VERTEX)

    @property
    def decisive(self) -> bool:
        return self.kind != FateKind.INCONCLUSIVE


@dataclass
class ShootResult:
    sigma_star: float
    bracket: tuple[float, float]
    iterations: int
    fate_at_ends: tuple[OrbitFate, OrbitFate]
    evaluations: list = dc_field(default_factory=list)


# ---------------------------------------------------------------------------
# launches
# ---------------------------------------------------------------------------


def launch_from_P2(params: Params, delta: float = 1e-6) -> np.ndarray:
    """P2 + delta * e3 with e3 the unit unstable eigenvector oriented into {Z>0}."""
    if not 0.0 < delta <= 1e-4:
        raise DomainError("delta must lie in (0, 1e-4]")
    return p2_coordinates(params) + delta * p2_unstable_eigenvector(params)


def launch_from_P0(K: float, z0: float, params: Params) -> np.ndarray:
    """Start on the center-manifold family out of the origin.

    X comes from the explicit family X = K sqrt(Z) - (m-1) alpha Z and Y from
    the tangent-plane relation (beta/alpha) Y = X - Z of the center manifold.
    """
    if K <= 0.0:
        raise DomainError("K must be positive")
    if not 0.0 < z0 <= 1e-5:
        raise DomainError("z0 must lie in (0, 1e-5]")
    x0 = center_family_P0(K, z0, params)
    if x0 <= 0.0:
        raise DomainError(
            "non-physical start: K=%.17g gives X=%.17g <= 0 at z0=%.17g" % (K, x0, z0)
        )
    exp = derive_exponents(params)
    y0 = (x0 - z0) * exp.alpha / exp.beta
    return np.array([x0, y0, z0])


def launch_from_Q1_chart(delta: float, params: Params) -> np.ndarray:
    """Chart start delta*(1,1,0) near Q1, along the direction of the profiles
    with f'(0) = 0."""
    if not 0.0 < delta <= 1e-4:
        raise DomainError("delta must lie in (0, 1e-4]")
    return np.array([delta, delta, 0.0])


# ---------------------------------------------------------------------------
# fate events and classification
# ---------------------------------------------------------------------------


def parabola_entry_distance(pt, params: Params) -> float:
    """Distance from pt to the parabola point with the same Y (clamped).

    This is exactly the quantity the stagnation certificate bounds:
    || pt - (0, lambda_hat, Z(lambda_hat)) || with lambda_hat = clamp(Y).
    """
    x, y, z = (float(v) for v in pt)
    lo, hi = lambda_range(params)
    lam = min(max(y, lo), hi)
    dz = z - parabola_z(lam, params)
    dy = y - lam
    return math.sqrt(x * x + dy * dy + dz * dz)


def _tube_at(lam: float, m1: float, s2: float, boa: float):
    """The trapping tube round the upper-half parabola point P0^lam.

    Coordinates: X, W = Y - lam and s = 2 lam + beta/alpha, where lam is
    the upper root of Z = -lam (lam + beta/alpha).  In them the field is

        X' = X (m1 (lam + W) - 2 X)
        W' = -s W - W^2 + X (kap - W)
        s' = -sig X,   sig = 2 (sigma - 2) Z / s,   kap = 1 - lam + sig / 2,

    with m1 = m - 1.  In {X = 0}, Z is constant and W falls to 0 (from
    W > -s), so the limit lambda of an orbit is a first integral that
    equals lam there.  Its expansion lam + c10 X + c11 X W + c20 X^2 solves
    the invariance equation to second order (c10 X is the projection along
    the eigenvectors of the Jacobian, whose normal eigenvalues are m1 lam
    and -s), and the rate of change of the truncated sum along the flow is
    exactly X (r20 X^2 + r11 X W + r02 W^2).  The truncated sum equals the
    limit lambda at the limit point, so its error at a state is the
    integral of that rate over the rest of the orbit.

    The tube is |X| <= rho, |W| <= a rho with a = 2 kap / s, and rho is the
    largest radius that meets three bounds:
      * trapping: on |W| = a rho the field points inward when
        rho (kap + a rho) <= a rho (s - a rho), i.e. rho <= kap / (a (1 + a));
      * decay: |X| falls at a rate of at least k = m1 |lam| / 2 when
        (m1 a + 2) rho <= k;
      * accuracy: the error integral is at most
        rho^3 (|r20| / 3 + |r11| a / 2 + |r02| a^2) / k <= _PROJECTION_TOL.
    Along the rest of the orbit s falls by at most sig rho / k, so lam
    falls by half that while sig stays below twice its value here; the
    returned drift = sig rho / k allows for that.

    Returns (rho, a, drift, c10, c11, c20).
    """
    s = 2.0 * lam + boa
    mu = m1 * lam
    sig = s2 * (boa * boa - s * s) / (2.0 * s)
    kap = 1.0 - lam + 0.5 * sig
    # d/ds of sig and kap, and of the coefficients below (d lam / ds = 1/2)
    dsig = -0.5 * s2 * (boa * boa / (s * s) + 1.0)
    dkap = 0.5 * (dsig - 1.0)
    c10 = -s2 * (lam + boa) / (m1 * s)
    dc10 = 0.5 * s2 * boa / (m1 * s * s)
    ddc10 = -s2 * boa / (m1 * s * s * s)
    den = s - mu
    c11 = m1 * c10 / den
    dc11 = m1 * (dc10 * den - c10 * (1.0 - 0.5 * m1)) / (den * den)
    num = 2.0 * c10 - kap * c11 + sig * dc10
    dnum = 2.0 * dc10 - dkap * c11 - kap * dc11 + dsig * dc10 + sig * ddc10
    c20 = num / (2.0 * mu)
    dc20 = (dnum - m1 * c20) / (2.0 * mu)
    r20 = -4.0 * c20 - sig * dc20
    r11 = 2.0 * m1 * c20 - 3.0 * c11 - sig * dc11
    r02 = (m1 - 1.0) * c11
    a = 2.0 * kap / s
    k = -0.5 * mu
    err = abs(r20) / 3.0 + abs(r11) * a / 2.0 + abs(r02) * a * a
    rho = min(kap / (a * (1.0 + a)), k / (m1 * a + 2.0), (_PROJECTION_TOL * k / err) ** (1.0 / 3.0))
    return rho, a, sig * rho / k, c10, c11, c20


def _entry_tube(params: Params):
    """tube(x, y, z) -> (max(|X| / rho, |W| / (a rho)) - 1, lambda_hat), or
    None where the tube does not apply: Y or the upper root lam of Z in the
    vertex band or below, lam above _TUBE_LAMBDA_TOP, or Z outside
    (0, z_max).

    The value is at most 0 exactly inside the tube.  rho is the smaller of
    the radii at lam and at the lowest lambda the orbit can drift to, which
    bounds it over that short interval where the coefficients change
    monotonically, and the tube does not apply when the drift could reach
    the vertex.
    """
    m1 = params.m - 1.0
    s2 = params.sigma - 2.0
    boa = beta_over_alpha(params)
    edge = -0.5 * boa + _VERTEX_TOL
    z_max = 0.25 * boa * boa

    def tube(x, y, z):
        if not (edge < y and 0.0 < z < z_max):
            return None
        # the upper root, in the form that keeps its digits as Z -> 0
        lam = -2.0 * z / (boa + math.sqrt(boa * boa - 4.0 * z))
        if not edge < lam < _TUBE_LAMBDA_TOP:
            return None
        rho, a, drift, c10, c11, c20 = _tube_at(lam, m1, s2, boa)
        low = lam - drift
        if not 2.0 * low + boa > 0.0:
            return None
        rho = min(rho, _tube_at(low, m1, s2, boa)[0])
        w = y - lam
        return max(abs(x), abs(w) / a) / rho - 1.0, lam + x * (c10 + c11 * w + c20 * x)

    return tube


def standard_fate_events(params: Params) -> list[EventSpec]:
    """The event set used for all fate classifications.

    Order matters for tie-breaking: parabola entry, midplane, Y-floor.

    The parabola-entry guard is one guard for both certificates.  Away from
    the parabola (distance above 1e-4) it is that distance less 1e-4 and
    costs no field call.  Nearer, on the upper half outside the vertex band,
    it is the tube value of _entry_tube, which falls through zero at the
    rate the orbit approaches the parabola, so the event's eta is
    well-conditioned: it moves by about as much as the state does, divided
    by that rate.  Elsewhere it is the stagnation test, max(field norm
    less 1e-11, distance less 1e-4).  The eta of a stagnation event is
    ill-conditioned: near the parabola that guard falls by only about
    2e-14 per unit eta, so the located eta can move by 1e-5 under a change
    that moves the state by 1e-16.  Only the state of such an event, and
    hence lambda_hat, is accurate.
    """
    rhs = make_rhs(params)
    boa = beta_over_alpha(params)
    lo, hi = lambda_range(params)
    ftol = _STAGNATION_FIELD_TOL
    dtol = _PARABOLA_DIST_TOL
    tube = _entry_tube(params)

    def entry_guard(p):
        x, y, z = p
        lam = min(max(y, lo), hi)
        dz = z + lam * (lam + boa)
        dy = y - lam
        dist = math.sqrt(x * x + dy * dy + dz * dz)
        if dist - dtol > 0.0:
            return dist - dtol
        inside = tube(x, y, z)
        if inside is not None:
            return inside[0]
        f = rhs(0.0, p)
        fnorm = math.sqrt(f[0] * f[0] + f[1] * f[1] + f[2] * f[2])
        return max(fnorm - ftol, dist - dtol)

    return [
        EventSpec(id="parabola_entry", guard=entry_guard),
        EventSpec(id="midplane", guard=lambda p: p[1] + boa / 2.0),
        EventSpec(id="y_floor", guard=lambda p: p[1] - _Y_FLOOR),
    ]


def classify_fate(traj: Trajectory, params: Params) -> OrbitFate:
    """Deterministic fate from a trajectory run with the standard event set.

    diagnostics["events"] names the event that ended the run, and for a
    parabola entry the certificate that fired: "tube" or "stagnation".
    """
    exp = derive_exponents(params)
    boa = beta_over_alpha(params)
    hit = traj.event
    diagnostics = {
        "termination": traj.termination,
        "n_steps": traj.n_steps,
        "n_rejected": traj.n_rejected,
        "n_rhs": traj.n_rhs,
        "final_eta": traj.final_eta,
        "events": [] if hit is None else [(hit.id, hit.eta)],
    }
    if hit is None:
        diagnostics["final_point"] = traj.final_point
        return OrbitFate(FateKind.INCONCLUSIVE, None, None, diagnostics)
    pt = hit.point
    if hit.id == "parabola_entry":
        inside = _entry_tube(params)(*pt)
        if inside is not None:
            diagnostics["events"] = [("tube", hit.eta)]
            # the event is located to 1e-12 in eta, where the value falls
            # at the approach rate, which is below 1
            if inside[0] > 1e-9:
                diagnostics["reason"] = "tube event fired outside the tube"
                return OrbitFate(FateKind.INCONCLUSIVE, None, pt, diagnostics)
            lam_hat = float(inside[1])
        else:
            diagnostics["events"] = [("stagnation", hit.eta)]
            lam_hat = float(pt[1])
            dist = parabola_entry_distance(pt, params)
            if dist > 2.0 * _PARABOLA_DIST_TOL or pt[0] >= _PARABOLA_DIST_TOL:
                diagnostics["reason"] = "stagnation fired away from the parabola"
                return OrbitFate(FateKind.INCONCLUSIVE, None, pt, diagnostics)
        kind = (
            FateKind.ENTERS_VERTEX
            if abs(lam_hat + boa / 2.0) < _VERTEX_TOL
            else FateKind.ENTERS_PARABOLA
        )
        return OrbitFate(kind, lam_hat, pt, diagnostics)
    if hit.id == "midplane":
        if pt[2] > exp.z_max:
            return OrbitFate(FateKind.ENTERS_Q3, None, pt, diagnostics)
        diagnostics["reason"] = "midplane crossed below the vertex height"
        return OrbitFate(FateKind.INCONCLUSIVE, None, pt, diagnostics)
    if hit.id == "y_floor":
        if pt[0] >= _X_AWAY_TOL:
            return OrbitFate(FateKind.ENTERS_Q3, None, pt, diagnostics)
        diagnostics["reason"] = "Y floor reached with X not bounded away from 0"
        return OrbitFate(FateKind.INCONCLUSIVE, None, pt, diagnostics)
    diagnostics["reason"] = "unrecognized terminal event %r" % hit.id
    return OrbitFate(FateKind.INCONCLUSIVE, None, pt, diagnostics)


def run_p2_orbit(
    params: Params,
    controls: IntegrationControls | None = None,
    delta: float = 1e-6,
) -> tuple[Trajectory, OrbitFate]:
    start = launch_from_P2(params, delta)
    traj = integrate(make_rhs(params), start, standard_fate_events(params), controls)
    return traj, classify_fate(traj, params)


def run_p0_orbit(
    K: float,
    z0: float,
    params: Params,
    controls: IntegrationControls | None = None,
) -> tuple[Trajectory, OrbitFate]:
    start = launch_from_P0(K, z0, params)
    traj = integrate(make_rhs(params), start, standard_fate_events(params), controls)
    return traj, classify_fate(traj, params)


# ---------------------------------------------------------------------------
# Q1 chart runs
# ---------------------------------------------------------------------------


def q1_to_p2_connection(params: Params):
    """Integrate the chart orbit out of Q1, launched at 1e-5 (1,1,0) inside
    {z = 0}, under the chart controls (max_step 0.01, max_time 100).

    Returns (trajectory, hit) where the terminal hit certifies arrival within
    1e-3 relative distance of the chart image of P2.
    """
    start = launch_from_Q1_chart(1e-5, params)
    target = p2_chart_coordinates(params)
    scale = math.hypot(target[0], target[1])

    def proximity(p):
        return math.hypot(p[0] - target[0], p[1] - target[1]) / scale - 1e-3

    events = [
        EventSpec(id="p2_arrival", guard=proximity),
        EventSpec(id="w_overflow", guard=lambda p: 4.0 * target[0] - p[0]),
    ]
    traj = integrate(make_chart_rhs(params), start, events, _CHART_CONTROLS)
    return traj, traj.event


def run_q1_orbit(
    params: Params,
    delta: float = 1e-6,
    z0: float = 0.0,
    controls: IntegrationControls | None = None,
):
    """Two-leg run: chart integration out of Q1, handoff to phase coordinates.

    The chart leg starts at delta*(1,1,0) + (0,0,z0) and ends when w exceeds
    1e-2 (X = 1/w at most 100); the phase leg then runs the standard fate
    events.  With z0 = 0 the orbit stays in the invariant plane and
    converges to P2 instead of producing a profile fate; the chart leg's
    arrival is then reported through the diagnostics.

    The chart leg always runs under its own controls (max_step 0.01,
    max_time 100): it ends where Z is about 1e-7, so the caller's abs_tol
    would be a large relative error there, and the handoff point, hence
    lambda_hat, would move with the caller's step cap.  controls sets the
    phase leg only.
    """
    start = launch_from_Q1_chart(delta, params) + np.array([0.0, 0.0, z0])
    handoff = EventSpec(id="handoff", guard=lambda p: 1e-2 - p[0])
    chart_traj = integrate(make_chart_rhs(params), start, [handoff], _CHART_CONTROLS)
    hit = chart_traj.event
    if hit is None:
        fate = OrbitFate(
            FateKind.INCONCLUSIVE,
            None,
            None,
            {"termination": chart_traj.termination, "leg": "chart", "events": []},
        )
        return chart_traj, None, fate
    phase_start = phase_from_chart(hit.point)
    phase_traj = integrate(make_rhs(params), phase_start, standard_fate_events(params), controls)
    fate = classify_fate(phase_traj, params)
    fate.diagnostics["chart_leg_eta"] = hit.eta
    fate.diagnostics["handoff_point"] = phase_start
    return chart_traj, phase_traj, fate


# ---------------------------------------------------------------------------
# lambda(sigma) and the critical sigma
# ---------------------------------------------------------------------------


def lambda_of_sigma(
    m: float,
    sigma: float,
    controls: IntegrationControls | None = None,
):
    """Y-coordinate of the parabola point the P2 orbit enters, or None for an
    escape to Q3 (the convention of OrbitFate.lambda_hat).

    Raises InconclusiveError when the orbit resolves neither way; callers are
    expected to surface that, not swallow it.
    """
    params = validate_params(m, sigma)
    _, fate = run_p2_orbit(params, controls)
    if fate.decisive:
        return fate.lambda_hat
    raise InconclusiveError(
        "P2 orbit at m=%.17g sigma=%.17g is inconclusive: %s" % (m, sigma, fate.diagnostics)
    )


def sigma_star(
    m: float,
    bracket: tuple[float, float],
    tol: float,
    controls: IntegrationControls | None = None,
) -> ShootResult:
    """Bisect sigma between a parabola-entering and a Q3-escaping fate.

    Each bracket end and each midpoint is one P2 orbit under controls,
    FATE_ONLY_CONTROLS by default; a midpoint replaces the bracket end
    whose fate it shares.  The first inconclusive orbit ends the search
    with InconclusiveError naming its sigma and termination, rather than
    an invented answer.  evaluations holds (sigma, n_steps, fate kind,
    lambda_hat) for every orbit run, in order.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BracketError("bracket must satisfy lo < hi")
    if tol <= 0:
        raise BracketError("tol must be positive")
    controls = controls or FATE_ONLY_CONTROLS

    evaluations = []

    def fate_at(sig: float) -> OrbitFate:
        _, fate = run_p2_orbit(validate_params(m, sig), controls)
        diag = fate.diagnostics
        evaluations.append((sig, diag["n_steps"], fate.kind, fate.lambda_hat))
        if not fate.decisive:
            raise InconclusiveError(
                "P2 orbit at m=%.17g sigma=%.17g is inconclusive (termination %s%s)"
                % (m, sig, diag["termination"], ": " + diag["reason"] if "reason" in diag else "")
            )
        return fate

    fate_lo = fate_at(lo)
    fate_hi = fate_at(hi)
    if fate_lo.parabola_side == fate_hi.parabola_side:
        raise BracketError(
            "fates agree at both bracket ends (%s at %.17g, %s at %.17g); "
            "widen the bracket" % (fate_lo.kind, lo, fate_hi.kind, hi)
        )

    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise BracketError("tol %.3g is below the float spacing of sigma near %.17g" % (tol, mid))
        if fate_at(mid).parabola_side == fate_lo.parabola_side:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return ShootResult(
        sigma_star=0.5 * (lo + hi),
        bracket=(lo, hi),
        iterations=iterations,
        fate_at_ends=(fate_lo, fate_hi),
        evaluations=evaluations,
    )
