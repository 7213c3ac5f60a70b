"""Distinguished orbits, fate classification, and the critical-sigma search.

Launches come out of P2 (along its unstable eigenvector, or on a series of
its unstable manifold), out of P0 (on the center-manifold family), and out
of Q1 in the chart at infinity.  A standard set of terminal events
operationalizes the two possible fates of an orbit, and every decisive
fate carries F, the limit of Z less the vertex height z_max:

* entry into a parabola point P0^lambda, an infinite-time limit.  On the
  upper half of the parabola, outside a band round the vertex, both normal
  directions attract, and the run ends where the orbit enters a computed
  trapping tube round the parabola: from there on it is certified to
  converge, and lambda_hat is the projection of that state along the
  stable fibres, to within 1e-10.  On the lower half, in the vertex band
  and wherever else the tube does not apply, a bracket on the limit of Z
  certifies the fate within 1e-4 of the parabola: an entry at the parabola
  point of that limit, or an escape (_entry_certificate).  An entry next
  to the vertex is a parabola entry like any other: the vertex connection
  (F = 0) is the single sigma* between the two fates;
* escape to the sign-change attractor Q3 at infinity, certified by that
  bracket, by a downward crossing of the midplane {Y = -beta/(2 alpha)}
  with Z above the vertex height (Z is non-decreasing, so the orbit can
  never return to the parabola), or by Y falling below a floor with X
  bounded away from zero.

Everything else (out of time, out of steps) is Inconclusive and surfaced,
never coerced.  Runs that keep only the fate (the sigma* search, the CLI's
sigma-star and sweep) use FATE_ONLY_CONTROLS: no step cap, step ends only
and a time budget of 1e6.  Their P2 orbits start on a series of P2's
unstable manifold (launch_from_P2 with delta None), which skips the slow
escape from P2 at the rate lambda_u (0.01 at (1.5, 3)); runs whose samples
are kept start at P2 + 1e-6 e3, to sample the orbit next to P2.  The
sigma* search reruns a sigma under its controls only where the F of a
first pass at 100 times looser tolerances is too small to trust it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

from .params import (
    Params,
    DomainError,
    beta_over_alpha,
    lambda_range,
    p2_coordinates,
    validate_params,
)
from .field import (
    make_rhs,
    make_chart_rhs,
    center_family_P0,
    jacobian,
    p2_unstable_eigenvalue,
    p2_unstable_eigenvector,
    p2_chart_coordinates,
    phase_from_chart,
)
from .integrate import EventSpec, IntegrationControls, Trajectory, _coarse_controls, integrate

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
    "standard_fate_events",
    "classify_fate",
    "run_p2_orbit",
    "run_p0_orbit",
    "run_q1_orbit",
    "q1_to_p2_connection",
    "sigma_star",
]


class InconclusiveError(RuntimeError):
    """A run ended without any fate certificate or classifiable outcome."""


class BracketError(ValueError):
    """A shooting bracket does not separate the fates of the runs at its ends."""


class FateKind:
    ENTERS_PARABOLA = "enters_parabola"
    ENTERS_Q3 = "enters_q3"
    INCONCLUSIVE = "inconclusive"


# fate thresholds: the entry certificates apply within _PARABOLA_DIST_TOL of
# the parabola; the trapping tube stays _VERTEX_TOL above the vertex's
# lambda; a Y-floor hit certifies Q3 only with X at least _X_AWAY_TOL
_PARABOLA_DIST_TOL = 1e-4
_VERTEX_TOL = 5e-3
_Y_FLOOR = -1e3
_X_AWAY_TOL = 1e-8
# the trapping tube bounds the truncation error of its lambda_hat by this;
# its coefficients grow like 1/lambda^2 next to lambda = 0, so above
# _TUBE_LAMBDA_TOP they could overflow, and there the Z bracket applies
_PROJECTION_TOL = 1e-10
_TUBE_LAMBDA_TOP = -1e-100

# the series launch out of P2 (see _p2_manifold_launch): the order of the
# series of P2's unstable manifold, the bound on its last term relative to
# the launch parameter, and the launch parameter at or below which the
# linear launch P2 + 1e-6 e3 is kept
_SERIES_ORDER = 24
_SERIES_TAIL_TOL = 1e-14
_SERIES_MIN_THETA = 1e-6

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
    entry_point: tuple[float, float, float] | None
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def parabola_side(self) -> bool:
        return self.kind == FateKind.ENTERS_PARABOLA

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


def _p2_manifold_series(params: Params):
    """Taylor coefficients of P2's unstable manifold, by the parameterization
    method (Cabre, Fontich & de la Llave, 2003).

    W(theta) = P2 + sum_{k=1}^{N} a_k theta^k, N = _SERIES_ORDER, solves the
    invariance equation f(W(theta)) = lambda_u theta W'(theta), with a_1 the
    unit eigenvector e3 and lambda_u its eigenvalue.  The field is
    quadratic, f(P2 + u) = J u + B(u, u) with J the Jacobian at P2 and

        B(u, u) = (u_x ((m-1) u_y - 2 u_x), -u_y^2 - u_x u_y, (sigma-2) u_x u_z),

    so order k of that equation reads

        (J - k lambda_u I) a_k = -sum_{i=1}^{k-1} B(a_i, a_{k-i}).

    The other two eigenvalues at P2 are stable, so no order is resonant.
    J's last row is (0, 0, lambda_u): the Z component solves on its own,
    and the X and Y components then solve the 2x2 block of the stable
    eigenvalues.  The convolution is symmetric, sum_i a_i[x] a_{k-i}[y] =
    sum_i a_i[y] a_{k-i}[x], so each cross sum is taken once and the
    squares over half the terms.

    Where lambda_u is tiny the coefficients grow like (1/lambda_u)^k, so the
    series is written in phi = theta / s, s = 1 / max(1, |a_2|): its
    coefficients b_k = a_k s^k stay of size one or below.  It stops at the
    last order whose coefficients are finite.  Returns (s, [b_1, .., b_n]),
    n <= N, each b_k an (x, y, z) tuple.
    """
    px, py, _ = p2_coordinates(params)
    lam = p2_unstable_eigenvalue(params)
    (j00, j01, _), (j10, j11, _), _ = jacobian((px, py, 0.0), params)
    m1 = params.m - 1.0
    s2 = params.sigma - 2.0
    e3 = p2_unstable_eigenvector(params)

    def solve(k, xs, ys, zs):
        """a_k from the coefficients of orders 1 to k-1."""
        sxx = syy = sxy = sxz = 0.0
        for i in range(1, (k + 1) // 2):
            sxx += xs[i] * xs[k - i]
            syy += ys[i] * ys[k - i]
        sxx *= 2.0
        syy *= 2.0
        if k % 2 == 0:
            sxx += xs[k // 2] * xs[k // 2]
            syy += ys[k // 2] * ys[k // 2]
        for i in range(1, k):
            sxy += xs[i] * ys[k - i]
            sxz += xs[i] * zs[k - i]
        kl = k * lam
        z = s2 * sxz / (kl - lam)
        # the right-hand side of the 2x2 block, with J's (Y, Z) entry -1
        r0 = 2.0 * sxx - m1 * sxy
        r1 = syy + sxy + z
        a, d = j00 - kl, j11 - kl
        det = a * d - j01 * j10
        return (r0 * d - j01 * r1) / det, (a * r1 - j10 * r0) / det, z

    xs, ys, zs = [0.0, e3[0]], [0.0, e3[1]], [0.0, e3[2]]
    a2 = solve(2, xs, ys, zs)
    s = 1.0 / max(1.0, math.sqrt(a2[0] * a2[0] + a2[1] * a2[1] + a2[2] * a2[2]))
    xs, ys, zs = [0.0, s * e3[0]], [0.0, s * e3[1]], [0.0, s * e3[2]]
    for k in range(2, _SERIES_ORDER + 1):
        b = solve(k, xs, ys, zs)
        if not all(math.isfinite(v) for v in b):
            break
        xs.append(b[0])
        ys.append(b[1])
        zs.append(b[2])
    return s, list(zip(xs[1:], ys[1:], zs[1:]))


def _p2_manifold_launch(params: Params):
    """(theta*, W(theta*)) on the series of _p2_manifold_series, with None
    for the start where theta* is at most _SERIES_MIN_THETA (0 where the
    ball below is empty).

    theta* is the largest theta that meets two bounds:
      * tail: the last term is negligible, |a_n| theta^(n-1) <=
        _SERIES_TAIL_TOL;
      * ball: the segment W([0, theta]) stays within half of rho =
        min(hypot(P2_x, P2_y) - _PARABOLA_DIST_TOL, P2_y + beta/(2 alpha))
        of P2, by the bound sum_k |a_k| theta^k.
    The parabola lies in {X = 0, -beta/alpha <= Y <= 0}, at least
    hypot(P2_x, P2_y) from P2, and the midplane P2_y + beta/(2 alpha) from
    it; the Y floor is farther.  So no standard guard has a zero in that
    ball, the launch skips no fate event, and every guard starts armed.
    """
    px, py, _ = p2_coordinates(params)
    rho = min(math.hypot(px, py) - _PARABOLA_DIST_TOL, py + 0.5 * beta_over_alpha(params))
    s, coeffs = _p2_manifold_series(params)
    n = len(coeffs)
    if not (rho > 0.0 and n >= 2):
        return 0.0, None
    norms = [math.sqrt(x * x + y * y + z * z) for x, y, z in coeffs]
    # in phi = theta / s the tail bound reads |b_n| phi^(n-1) <= tol * s,
    # and the segment bound is the same sum in b_k and phi
    phi = rho / (2.0 * s)
    if norms[-1] > 0.0:
        log_tail = (math.log(_SERIES_TAIL_TOL * s) - math.log(norms[-1])) / (n - 1)
        if log_tail < math.log(phi):
            phi = math.exp(log_tail)

    def excess(phi):
        """sum_k |b_k| phi^k - rho / 2 and its derivative, by Horner."""
        g = dg = 0.0
        for c in reversed(norms):
            dg = dg * phi + g
            g = g * phi + c
        return g * phi - 0.5 * rho, dg * phi + g

    # the sum is convex and increasing, so Newton's steps from a phi where
    # it exceeds rho / 2 fall monotonically to its root; a step of at least
    # 1e-12 phi then ends just below the root
    for _ in range(100):
        g, dg = excess(phi)
        if not g > 0.0:
            break
        phi -= max(g / dg, 1e-12 * phi)
    theta = s * phi
    if not (excess(phi)[0] <= 0.0 and theta > _SERIES_MIN_THETA):
        return theta, None
    point = [0.0, 0.0, 0.0]
    for c in reversed(coeffs):
        point = [(p + ci) * phi for p, ci in zip(point, c)]
    return theta, (px + point[0], py + point[1], point[2])


def launch_from_P2(params: Params, delta: float | None = 1e-6) -> tuple[float, float, float]:
    """P2 + delta * e3 with e3 the unit unstable eigenvector oriented into {Z>0}.

    With delta None the start is on P2's unstable manifold as far out as
    its series is accurate and no fate event lies between P2 and the
    start (_p2_manifold_launch), which skips the slow escape from P2;
    where that is no farther out than 1e-6, it is P2 + 1e-6 e3.  Runs
    that keep only the fate use it; sampled runs keep an explicit delta,
    so that they sample the orbit next to P2.
    """
    if delta is None:
        _, start = _p2_manifold_launch(params)
        if start is not None:
            return start
        delta = _SERIES_MIN_THETA
    if not 0.0 < delta <= 1e-4:
        raise DomainError("delta must lie in (0, 1e-4]")
    return tuple(p + delta * e for p, e in zip(p2_coordinates(params), p2_unstable_eigenvector(params)))


def launch_from_P0(K: float, z0: float, params: Params) -> tuple[float, float, float]:
    """Start on the center-manifold family out of the origin, at the
    family point (X, Y) of center_family_P0 with Z = z0: the orbit of the
    tail profile f ~ K xi^{(sigma+2)/(2(m-1))}."""
    if not 0.0 < z0 <= 1e-5:
        raise DomainError("z0 must lie in (0, 1e-5]")
    return (*center_family_P0(K, z0, params), float(z0))


def launch_from_Q1_chart(delta: float) -> tuple[float, float, float]:
    """Chart start delta*(1,1,0) near Q1, along the direction of the profiles
    with f'(0) = 0.  The direction is the same for every (m, sigma)."""
    if not 0.0 < delta <= 1e-4:
        raise DomainError("delta must lie in (0, 1e-4]")
    delta = float(delta)
    return (delta, delta, 0.0)


# ---------------------------------------------------------------------------
# fate events and classification
# ---------------------------------------------------------------------------


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


def _entry_certificate(params: Params):
    """certify(x, y, z) -> (value, cert, lambda_hat, F) near the parabola,
    the one place that decides parabola entry: the entry guard reads value,
    at most 0 where cert holds, and classify_fate all four.  h = beta/(2
    alpha), z_max = h^2, and F is the limit of Z less z_max.

    cert is "tube" inside the trapping tube of _tube_at, which applies where
    Y and the upper root lam of Z lie more than _VERTEX_TOL above the
    vertex's lambda -h, lam lies below _TUBE_LAMBDA_TOP and Z in (0, z_max).
    value is max(|X| / rho, |W| / (a rho)) - 1, at most 0 exactly inside the
    tube, lambda_hat the projection and F = -(lambda_hat + h)^2.  rho is the
    smaller of the radii at lam and at the lowest lambda the orbit can drift
    to, which bounds it over that short interval where the coefficients
    change monotonically, and the tube does not apply when the drift could
    reach the vertex.

    Elsewhere cert is "z_limit" where a bracket [Z, Z_hi] on the limit Z_inf
    of Z certifies the fate, else None.  With W = Y + h, W' = -W^2 + (z_max
    - Z) + X (1 - Y), and X' <= -(m - 1)|Y_c| X while Y <= Y_c < 0, so Z_inf
    <= Z_hi = Z exp((sigma - 2) X / ((m - 1)|Y_c|)) and q = z_max - Z +
    X (1 + h) never grows.
      * Entry, Z_hi < z_max, Y_c = W_c - h, W_c = max(W, sqrt(q)): W' <= 0
        at W = W_c and W' >= 0 at W = -sqrt(z_max - Z_hi), so W stays in
        between, X -> 0 and the orbit enters lambda = sqrt(z_max - Z_inf) - h.
      * Escape, Z - z_max > X (1 + h) and 0 < W < h, Y_c = Y: W' <= -(Z -
        z_max - X (1 + h)) < 0, a bound that only falls, so the orbit falls
        through the midplane with Z > z_max; lambda_hat is None.
    value, in absolute Z units, is at most 0 once 100 (Z_hi - Z) is at most
    the bracket's gap to z_max (z_max - Z_hi, or Z - z_max for an escape)
    and min(W, 0)^2 - (z_max - Z_hi), or X (1 + h) - (Z - z_max) and -W |W|,
    are below 0.  All are continuous, and value is inf only where Y_c >= 0
    or the exponent exceeds 700.  F = Z_hi - z_max: next to the vertex |Y_c|
    is within about W_c / h of the decay rate of X, so Z_inf lies within
    that fraction of the bracket below Z_hi.
    """
    m1 = params.m - 1.0
    s2 = params.sigma - 2.0
    boa = beta_over_alpha(params)
    h = 0.5 * boa
    z_max = h * h
    edge = _VERTEX_TOL - h

    def certify(x, y, z):
        if edge < y and 0.0 < z < z_max:
            # the upper root, in the form that keeps its digits as Z -> 0
            lam = -2.0 * z / (boa + math.sqrt(boa * boa - 4.0 * z))
            if edge < lam < _TUBE_LAMBDA_TOP:
                rho, a, drift, c10, c11, c20 = _tube_at(lam, m1, s2, boa)
                low = lam - drift
                if 2.0 * low + boa > 0.0:
                    rho = min(rho, _tube_at(low, m1, s2, boa)[0])
                    w = y - lam
                    lam_hat = lam + x * (c10 + c11 * w + c20 * x)
                    return max(abs(x), abs(w) / a) / rho - 1.0, "tube", lam_hat, -((lam_hat + h) ** 2)
        # X >= 0 on every orbit; a rounding below 0 must not loosen the bounds
        x = abs(x)
        w = y + h
        ky = -y
        r = math.sqrt(abs(z_max - z) + x * (1.0 + h))
        if z < z_max and w < r:
            # h - r, in the form free of cancellation next to lambda = 0
            ky = (z - x * (1.0 + h)) / (h + r)
        e = s2 * x / (m1 * ky) if ky > 0.0 else math.inf
        if not e < 700.0:
            return math.inf, None, None, None
        rise = z * math.expm1(e)
        if z < z_max:
            gap = z_max - z - rise
            low = min(w, 0.0) ** 2 - gap
            cert = "z_limit" if gap > 0.0 and low < 0.0 else None
            return max(100.0 * rise - gap, low), cert, math.sqrt(gap) - h if cert else None, -gap
        gap = z - z_max
        far = x * (1.0 + h) - gap
        cert = "z_limit" if far < 0.0 and w > 0.0 else None
        return max(100.0 * rise - gap, far, -w * abs(w)), cert, None, gap + rise

    return certify


def standard_fate_events(params: Params) -> list[EventSpec]:
    """The event set used for all fate classifications.

    Order matters for tie-breaking: parabola entry, midplane, Y-floor.

    The parabola-entry guard makes no field call: it is the distance from
    the parabola less 1e-4 where that is positive, else the value of
    _entry_certificate.  The tube's falls through zero at the rate the orbit
    approaches the parabola, so its event's eta moves by about as much as
    the state does, divided by that rate; the Z bracket's falls as X decays.
    """
    boa = beta_over_alpha(params)
    half = boa / 2.0
    lo, hi = lambda_range(params)
    dtol = _PARABOLA_DIST_TOL
    certify = _entry_certificate(params)

    def entry_guard(p):
        x, y, z = p
        lam = lo if y < lo else hi if y > hi else y
        dz = z + lam * (lam + boa)
        dy = y - lam
        dist = math.sqrt(x * x + dy * dy + dz * dz)
        if dist - dtol > 0.0:
            return dist - dtol
        return certify(x, y, z)[0]

    return [
        EventSpec(id="parabola_entry", guard=entry_guard),
        EventSpec(id="midplane", guard=lambda p: p[1] + half),
        EventSpec(id="y_floor", guard=lambda p: p[1] - _Y_FLOOR),
    ]


def classify_fate(traj: Trajectory, params: Params) -> OrbitFate:
    """Deterministic fate from a trajectory run with the standard event set:
    enters_parabola or enters_q3 where a certificate decides, else
    inconclusive.

    diagnostics is the run record of traj (Trajectory.record) and the
    fate's own keys.  "events" names the event that ended the run, and for
    a parabola-entry event the certificate that fired: "tube" or "z_limit".
    Every decisive fate carries "z_gap", F, the limit of Z less z_max: from
    that certificate, below 0 for an entry, or, for an escape at the
    midplane or the Y floor, the event's Z less z_max.  Every inconclusive
    fate carries a "reason".
    """
    boa = beta_over_alpha(params)
    z_max = 0.25 * boa * boa
    hit = traj.event
    pt = None if hit is None else hit.point
    diagnostics = dict(traj.record, events=[] if hit is None else [(hit.id, hit.eta)])
    kind, lam_hat, gap, reason = FateKind.ENTERS_Q3, None, None, None
    if hit is None:
        reason = "run ended by %s before any fate event" % traj.termination
    elif hit.id == "parabola_entry":
        value, cert, lam_hat, gap = _entry_certificate(params)(*pt)
        # the event is located to 1e-12 in eta, where the tube value falls at
        # the approach rate (below 1); the Z bracket's sets only its width
        if cert is None or (cert == "tube" and value > 1e-9):
            reason = "entry event fired outside its certificate"
        else:
            diagnostics["events"] = [(cert, hit.eta)]
            if lam_hat is not None:
                kind = FateKind.ENTERS_PARABOLA
    elif hit.id == "midplane":
        gap = pt[2] - z_max
        if not pt[2] > z_max:
            reason = "midplane crossed below the vertex height"
    elif hit.id == "y_floor":
        gap = pt[2] - z_max
        if not pt[0] >= _X_AWAY_TOL:
            reason = "Y floor reached with X not bounded away from 0"
    else:
        reason = "unrecognized terminal event %r" % hit.id
    if reason is not None:
        diagnostics["reason"] = reason
        return OrbitFate(FateKind.INCONCLUSIVE, None, pt, diagnostics)
    diagnostics["z_gap"] = gap
    return OrbitFate(kind, lam_hat, pt, diagnostics)


def _sample_scale(params: Params) -> float:
    """The factor min(1, max(0.1, 2 (m - 1))) by which the orbit runs
    scale a finite sample step.  f = (alpha xi^2 X / m)^(1/(m-1))
    amplifies a relative move in X by 1/(m - 1), so down to m = 1.05 no
    move in f is larger than at m = 1.5; the floor keeps the samples of a
    run below m = 1.05 within 10 times those of an unscaled one."""
    return min(1.0, max(0.1, 2.0 * (params.m - 1.0)))


def _run(params: Params, start, controls) -> tuple[Trajectory, OrbitFate]:
    """One phase-space run from start under the standard fate events, and
    its fate.  integrate, make_rhs and classify_fate are looked up as
    module globals at each call, so a tracer that rebinds them sees every
    run.  The sample step is scaled by _sample_scale(params)."""
    controls = controls or IntegrationControls()
    controls = replace(controls, sample_step=_sample_scale(params) * controls.sample_step)
    traj = integrate(make_rhs(params), start, standard_fate_events(params), controls)
    return traj, classify_fate(traj, params)


def run_p2_orbit(
    params: Params,
    controls: IntegrationControls | None = None,
    delta: float | None = 1e-6,
) -> tuple[Trajectory, OrbitFate]:
    """The P2 orbit from launch_from_P2(params, delta): with delta None,
    from the series launch that fate-only runs use."""
    return _run(params, launch_from_P2(params, delta), controls)


def run_p0_orbit(
    K: float,
    z0: float,
    params: Params,
    controls: IntegrationControls | None = None,
) -> tuple[Trajectory, OrbitFate]:
    return _run(params, launch_from_P0(K, z0, params), controls)


# ---------------------------------------------------------------------------
# Q1 chart runs
# ---------------------------------------------------------------------------


def q1_to_p2_connection(params: Params):
    """Integrate the chart orbit out of Q1, launched at 1e-5 (1,1,0) inside
    {z = 0}, under the chart controls (max_step 0.01, max_time 100).

    Returns (trajectory, hit) where the terminal hit certifies arrival within
    1e-3 relative distance of the chart image of P2.
    """
    start = launch_from_Q1_chart(1e-5)
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
    events.  With z0 = 0 the orbit stays in the invariant plane {Z = 0}
    and converges to P2 instead of producing a profile fate: its phase leg
    ends inconclusive at its time budget (q1_to_p2_connection certifies
    the arrival at P2).  A chart leg whose Y = y/w falls to the Y floor
    first (large z0 drives y down) ends the run there, with X = 1/w >= 100:
    the Y-floor escape of classify_fate, and no phase leg, whose floor
    guard would start below its floor and never arm.  A chart leg that ends
    without either event is inconclusive, with a reason that names it.

    The chart leg always runs under its own controls (max_step 0.01,
    max_time 100): it ends where Z is about 1e-7, so the caller's abs_tol
    would be a large relative error there, and the handoff point, hence
    lambda_hat, would move with the caller's step cap.  controls sets the
    phase leg only.
    """
    if not 0.0 <= z0 < math.inf:
        raise DomainError("z0 must be finite and nonnegative")
    w, y, _ = launch_from_Q1_chart(delta)
    start = (w, y, float(z0))
    events = [
        EventSpec(id="handoff", guard=lambda p: 1e-2 - p[0]),
        EventSpec(id="y_floor", guard=lambda p: p[1] - _Y_FLOOR * p[0]),
    ]
    chart_traj = integrate(make_chart_rhs(params), start, events, _CHART_CONTROLS)
    hit = chart_traj.event
    if hit is not None and hit.id == "handoff":
        phase_traj, fate = _run(params, phase_from_chart(hit.point), controls)
        return chart_traj, phase_traj, fate
    if hit is None:
        fate = classify_fate(chart_traj, params)
        fate.diagnostics["reason"] = "chart leg ended by %s before its handoff" % chart_traj.termination
    else:
        floor_hit = replace(hit, point=phase_from_chart(hit.point))
        fate = classify_fate(chart_traj.with_event(floor_hit), params)
    return chart_traj, None, fate


# ---------------------------------------------------------------------------
# the critical sigma
# ---------------------------------------------------------------------------


def _zero_estimate(points) -> float | None:
    """The sigma where F = 0, from the (sigma, F) points with the smallest
    |F|: inverse quadratic interpolation through three of them where their
    F differ, else the secant through two; None where neither exists or the
    estimate is not finite.  sigma_star calls it once both bracket ends,
    whose F have opposite signs, are among the points."""
    best = sorted(points, key=lambda p: abs(p[1]))[:3]
    est = None
    if len(best) == 3:
        (s0, f0), (s1, f1), (s2, f2) = best
        if f0 != f1 and f0 != f2 and f1 != f2:
            est = (
                s0 * f1 * f2 / ((f0 - f1) * (f0 - f2))
                + s1 * f0 * f2 / ((f1 - f0) * (f1 - f2))
                + s2 * f0 * f1 / ((f2 - f0) * (f2 - f1))
            )
    if est is None:
        (s0, f0), (s1, f1) = best[:2]
        if f0 != f1:
            est = s0 - f0 * (s1 - s0) / (f1 - f0)
    return est if est is not None and math.isfinite(est) else None


def _check_tol(tol: float, hi: float) -> None:
    """Refuse a tol that is not finite and positive (DomainError) or below
    math.ulp(hi), the float spacing at the bracket's upper end (BracketError).
    From there up a bracket wider than tol has its midpoint strictly inside."""
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be finite and positive")
    if tol < math.ulp(hi):
        raise BracketError("tol %.3g is below the float spacing %.3g near %.17g" % (tol, math.ulp(hi), hi))


def sigma_star(
    m: float,
    bracket: tuple[float, float],
    tol: float,
    controls: IntegrationControls | None = None,
) -> ShootResult:
    """Shrink a sigma bracket between a parabola-entering and a
    Q3-escaping fate to at most tol, by a safeguarded two-sided secant.

    Each decisive run carries F, the limit of Z less z_max
    (diagnostics["z_gap"] of classify_fate), below 0 for an entry and above
    0 for an escape.  F is one smooth function of sigma through sigma*, with
    the same slope on both sides.  So each step estimates the zero est of F
    from the runs with the smallest |F|, by inverse quadratic interpolation
    through three of them or the secant through two (_zero_estimate), from
    either side.  A run at est lands on either side of sigma* and is the
    slowest to decide (its F is next to 0, and the Z bracket waits for
    X << |F|), so the step does not aim at est: it aims 0.45 tol past est,
    toward the bracket end farther from it, so that the run cuts the larger
    part off and the next can close the bracket; once est lies within
    0.95 tol of an end, it steps 0.95 tol past that end, so that the run
    closes the bracket.  The step is the midpoint instead when there is no
    est, when est is not strictly inside the bracket, when the midpoint
    alone closes the bracket, or when the bracket has not halved over the
    two steps before (so a secant that stops converging gives way to
    bisection).

    Each bracket end and each step decides the fate at one sigma, from a
    P2 orbit launched with delta None, and that fate replaces the bracket
    end whose fate it shares.  The first run is under coarse controls:
    rel_tol and abs_tol 100 times those of controls (FATE_ONLY_CONTROLS by
    default), but no looser than 1e-8 and 1e-10 (_coarse_controls), where
    that is looser than controls at all.  Its fate is kept where it is
    decisive and |F| exceeds the margin M = 1e3 (abs_tol + rel_tol z_max)
    at the coarse tolerances, 1.0e-7 to 4.3e-7 by default: coarse runs
    there give the fate of runs under controls, with F within M / 100.
    Otherwise the sigma is rerun under controls, and so is every step whose
    |F|, predicted from the slope through the two runs with the smallest
    |F| and its distance to est, is below 10 M, with no coarse run first.
    An inconclusive run under controls ends the search with
    InconclusiveError naming its sigma and termination, rather than an
    invented answer; an inconclusive coarse run is rerun.  evaluations
    holds (sigma, n_steps, fate kind, lambda_hat) for every orbit run, in
    order, so a rerun sigma appears twice.

    The ends' Params and tol (_check_tol) are checked before the first
    run.  Where the ends lie in different binades, the spacing rule refuses
    a few tols that a search ending near lo could have met.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BracketError("bracket must satisfy lo < hi")
    validate_params(m, lo)
    validate_params(m, hi)
    _check_tol(tol, hi)
    controls = controls or FATE_ONLY_CONTROLS
    coarse = _coarse_controls(controls)

    evaluations = []
    # (sigma, F) of every decided sigma
    points = []

    def run(params: Params, run_controls: IntegrationControls) -> OrbitFate:
        _, fate = run_p2_orbit(params, run_controls, delta=None)
        evaluations.append((params.sigma, fate.diagnostics["n_steps"], fate.kind, fate.lambda_hat))
        return fate

    def fate_at(sig: float, predicted: float | None = None) -> OrbitFate:
        params = validate_params(m, sig)
        fate = None
        if coarse is not None:
            half = 0.5 * beta_over_alpha(params)
            margin = 1e3 * (coarse.abs_tol + coarse.rel_tol * half * half)
            if predicted is None or predicted >= 10.0 * margin:
                fate = run(params, coarse)
                if not (fate.decisive and abs(fate.diagnostics["z_gap"]) > margin):
                    fate = None
        if fate is None:
            fate = run(params, controls)
            diag = fate.diagnostics
            if not fate.decisive:
                raise InconclusiveError(
                    "P2 orbit at m=%.17g sigma=%.17g is inconclusive (termination %s%s)"
                    % (m, sig, diag["termination"], ": " + diag["reason"] if "reason" in diag else "")
                )
        points.append((sig, fate.diagnostics["z_gap"]))
        return fate

    fate_lo = fate_at(lo)
    fate_hi = fate_at(hi)
    if fate_lo.parabola_side == fate_hi.parabola_side:
        raise BracketError(
            "fates agree at both bracket ends (%s at %.17g, %s at %.17g); "
            "widen the bracket" % (fate_lo.kind, lo, fate_hi.kind, hi)
        )

    # the bracket's width before each step
    widths = []
    while hi - lo > tol:
        width = hi - lo
        sig = 0.5 * (lo + hi)
        est = _zero_estimate(points)
        halving = len(widths) < 2 or width <= 0.5 * widths[-2]
        if est is not None and lo < est < hi and width > 2.0 * tol and halving:
            if est - lo <= 0.95 * tol:
                aim = lo + 0.95 * tol
            elif hi - est <= 0.95 * tol:
                aim = hi - 0.95 * tol
            elif hi - est > est - lo:
                aim = est + 0.45 * tol
            else:
                aim = est - 0.45 * tol
            if lo < aim < hi:
                sig = aim
        widths.append(width)
        predicted = None
        if est is not None:
            (s0, f0), (s1, f1) = sorted(points, key=lambda p: abs(p[1]))[:2]
            predicted = abs((f1 - f0) / (s1 - s0) * (sig - est))
        if fate_at(sig, predicted).parabola_side == fate_lo.parabola_side:
            lo = sig
        else:
            hi = sig
    return ShootResult(
        sigma_star=0.5 * (lo + hi),
        bracket=(lo, hi),
        iterations=len(widths),
        fate_at_ends=(fate_lo, fate_hi),
        evaluations=evaluations,
    )
