"""Adaptive explicit integration of 3-D fields up to a located event.

A single engine serves every orbit computation in the package: a
Dormand-Prince 5(4) embedded pair with PI-free step control, the pair's own
4th-order continuous extension (Shampine 1986) for event localization, and
one event contract: an event fires when its guard falls from positive to
zero or below, and that ends the run.  A guard arms only once it has been
above _ARM_TOL, so restarting from a located event point does not re-fire
it.  Every accepted step is also searched for a guard that dips through
zero and back inside it, so a run can leave the step to error control.
The same extension supplies the stored samples: a step longer than the
sample grid's spacing stores the extension's values at the grid points it
spans, not its end, so the step is set by error control and the output
grid by what the output needs.  The step loop does not evaluate them: such
a step keeps its start, length, state and extension coefficients once, its
grid points are stored as placeholders, and after the loop (or when the
sample cap thins the run) every placeholder still stored is evaluated in
one numpy pass, with the scalar evaluator's operations in the same order,
so the values are bit-identical to it.  Past the sample cap the points a
thinned run drops are skipped unevaluated.  Runs that store step ends only
never defer a sample and do no work for it.

The right-hand side receives and returns plain float triples; keeping the
hot loop free of array allocation is what makes long runs affordable.  The
step loop also keeps interpreter work per step low: the state and every
stage are unpacked into scalar locals once, the tableau and the controls
are bound to locals before the loop, and the error norm, the guards'
crossing, probe and arming tests and the per-sample bookkeeping are
written out inline.  It performs the floating-point operations of the
indexed textbook form in the same order, so a trajectory does not depend
on how the loop is written.

scipy.integrate.solve_ivp is deliberately not used here; it remains the
independent oracle in the test suite.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "IntegrationControls",
    "EventSpec",
    "EventHit",
    "Trajectory",
    "integrate",
]

# Dormand-Prince 5(4) tableau (FSAL: stage 7 equals the next step's stage 1).
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

# Continuous extension: y(t + theta h) = y + h * sum_j Q_j theta^(j+1) with
# Q = K^T P; the first column of P is (1, 0, ..., 0), so Q_0 = k1.  Rows for
# k1, k3, k4, k5, k6, k7 (k2's row is zero); columns for theta^2..theta^4.
_PD = (
    (-8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0, -12715105075.0 / 11282082432.0),
    (131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0, 87487479700.0 / 32700410799.0),
    (-1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0, -10690763975.0 / 1880347072.0),
    (127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0, 701980252875.0 / 199316789632.0),
    (-282668133.0 / 205662961.0, 2019193451.0 / 616988883.0, -1453857185.0 / 822651844.0),
    (40617522.0 / 29380423.0, -110615467.0 / 29380423.0, 69997945.0 / 29380423.0),
)

_MIN_STEP = 1e-14  # absolute step underflow threshold
_MAX_ETA = sys.float_info.max  # a run ends here whatever its max_time
_ARM_TOL = 1e-10  # a guard arms once it has been above this
_MAX_SAMPLES = 200_000  # a run stores at most this many samples besides its last
_PROBE_NODES = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class IntegrationControls:
    """Step-size, sampling and budget controls for one integration run.

    max_step caps the step; math.inf leaves it to error control alone.
    sample_step is the spacing of the output grid, the multiples of
    sample_step in eta: an accepted step longer than sample_step stores the
    continuous extension's values at the grid points it spans, and a
    shorter step stores its end, so no two samples are more than
    sample_step apart.  math.inf stores every step end and nothing else.
    A finite sample_step needs a finite number of grid points up to the
    farthest eta a run can reach, min(max_time, max_steps * max_step).
    max_time bounds the autonomous variable.  math.inf lets a run end only
    at an event, at max_steps or at step underflow; when max_step is
    math.inf as well, eta can grow to the largest float, and the run ends
    there with termination "max_time".  A run stores every sample
    until it holds 200k; then it drops every other one and from there on
    keeps every 2nd sample, then every 4th, and so on, so it never stores
    more than 200k samples (events and the final point are always
    recorded).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = 5.0
    sample_step: float = 0.1
    max_time: float = 1e4
    max_steps: int = 10_000_000

    def __post_init__(self):
        if not (
            self.rel_tol > 0
            and self.abs_tol > 0
            and self.max_step > 0
            and self.sample_step > 0
            and self.max_time > 0
            and self.max_steps > 0
        ):
            raise ValueError("all integration controls must be positive")
        # a run reaches eta at most min(max_time, max_steps * max_step); the
        # grid index of every sample below that must be a finite number
        reach = min(self.max_time, self.max_steps * self.max_step)
        if reach / self.sample_step == math.inf:
            raise ValueError(
                "sample_step leaves an unbounded sample grid: "
                "min(max_time, max_steps * max_step) / sample_step overflows"
            )
        if self.rel_tol < 1e-13:
            raise ValueError("rel_tol below 1e-13 is not supported")


@dataclass(frozen=True)
class EventSpec:
    """A scalar guard whose fall through zero ends the run.

    The guard must be continuous along trajectories.  The event fires when
    the guard falls from positive to zero or below; its eta and point are
    located on the step's continuous extension, and the run ends there.
    The event arms only once the guard has been above 1e-10, so
    relaunching from a located event point is idempotent, and a guard that
    starts at or below zero fires nothing until it has risen above 1e-10.

    A crossing is seen when the guard is positive at the start of an
    accepted step and at or below zero at its end.  On every accepted step
    an armed guard whose end values are both positive, but smaller than
    their difference, is also probed at interior points of the step, so a
    dip through zero and back inside one step still fires, however long
    or short the step.  A dip whose end values are farther from zero than
    their difference is not probed.
    """

    id: str
    guard: Callable[[Sequence[float]], float]


@dataclass(frozen=True)
class EventHit:
    id: str
    eta: float
    point: np.ndarray


@dataclass
class Trajectory:
    """Time-ordered samples of one integration and the event that ended it."""

    eta: np.ndarray
    points: np.ndarray
    event: EventHit | None = None  # set exactly when termination == "event"
    termination: str = "max_time"  # event | max_time | max_steps | step_underflow
    n_steps: int = 0  # accepted steps
    n_rejected: int = 0  # rejected step attempts
    n_rhs: int = 0  # field evaluations: 6 per attempt plus 2 at the start

    @property
    def final_eta(self) -> float:
        return float(self.eta[-1])

    @property
    def final_point(self) -> np.ndarray:
        return self.points[-1]


def _dense_coeffs(k1, k3, k4, k5, k6, k7):
    """Q = K^T P of the continuous extension: 4 coefficients per component,
    flattened to 12.  Each sum runs from 0.0 over k1, k3, ..., k7 in turn."""
    (p10, p11, p12), (p30, p31, p32), (p40, p41, p42), (p50, p51, p52), (p60, p61, p62), (
        p70, p71, p72,
    ) = _PD
    a1, b1, c1 = k1
    a3, b3, c3 = k3
    a4, b4, c4 = k4
    a5, b5, c5 = k5
    a6, b6, c6 = k6
    a7, b7, c7 = k7
    return (
        a1,
        0.0 + a1 * p10 + a3 * p30 + a4 * p40 + a5 * p50 + a6 * p60 + a7 * p70,
        0.0 + a1 * p11 + a3 * p31 + a4 * p41 + a5 * p51 + a6 * p61 + a7 * p71,
        0.0 + a1 * p12 + a3 * p32 + a4 * p42 + a5 * p52 + a6 * p62 + a7 * p72,
        b1,
        0.0 + b1 * p10 + b3 * p30 + b4 * p40 + b5 * p50 + b6 * p60 + b7 * p70,
        0.0 + b1 * p11 + b3 * p31 + b4 * p41 + b5 * p51 + b6 * p61 + b7 * p71,
        0.0 + b1 * p12 + b3 * p32 + b4 * p42 + b5 * p52 + b6 * p62 + b7 * p72,
        c1,
        0.0 + c1 * p10 + c3 * p30 + c4 * p40 + c5 * p50 + c6 * p60 + c7 * p70,
        0.0 + c1 * p11 + c3 * p31 + c4 * p41 + c5 * p51 + c6 * p61 + c7 * p71,
        0.0 + c1 * p12 + c3 * p32 + c4 * p42 + c5 * p52 + c6 * p62 + c7 * p72,
    )


def _dense(theta, h, y0, q):
    """The 4th-order continuous extension at theta in [0, 1] of one step."""
    a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3 = q
    ht = h * theta
    return (
        y0[0] + ht * (a0 + theta * (a1 + theta * (a2 + theta * a3))),
        y0[1] + ht * (b0 + theta * (b1 + theta * (b2 + theta * b3))),
        y0[2] + ht * (c0 + theta * (c1 + theta * (c2 + theta * c3))),
    )


def _dense_rows(theta, j, rows):
    """_dense at theta[i] on the step in row j[i] of rows, for every i in one
    numpy pass.  A row holds one step's (t, h, y0, y1, y2) and its 12
    _dense_coeffs.  Each column is gathered where it is used, and every
    operation is _dense's in the same order, so the values are bit-identical
    to it."""
    ht = rows[j, 1] * theta
    out = np.empty((len(j), 3))
    for c in range(3):
        a0, a1, a2, a3 = (rows[j, 5 + 4 * c + i] for i in range(4))
        out[:, c] = rows[j, 2 + c] + ht * (a0 + theta * (a1 + theta * (a2 + theta * a3)))
    return out


_PENDING = (math.nan, math.nan, math.nan)  # a stored sample not yet evaluated
_STEP_ROW = 17  # floats per deferred step: t, h, the state, 12 coefficients


def _pending_values(eta, pts, steps):
    """The positions in pts of the samples stored as _PENDING, and their
    values.  steps holds _STEP_ROW floats per deferred step, in eta order;
    a pending sample at eta e lies on the last step that starts at or
    before e."""
    idx = np.array([i for i, p in enumerate(pts) if p is _PENDING], dtype=np.intp)
    rows = np.array(steps).reshape(-1, _STEP_ROW)
    e = eta[idx]
    j = np.searchsorted(rows[:, 0], e, side="right") - 1
    return idx, _dense_rows((e - rows[j, 0]) / rows[j, 1], j, rows)


def _resolve_pending(etas, pts, steps):
    """Evaluate every pending sample in place and forget the deferred steps,
    so that a thinned run keeps only the steps its stored samples need."""
    idx, vals = _pending_values(np.array(etas), pts, steps)
    for i, v in zip(idx.tolist(), vals.tolist()):
        pts[i] = v
    steps.clear()


def _rms(v, sc):
    """Root mean square of v / sc; inf, not OverflowError, when it overflows."""
    r0, r1, r2 = (v[i] / sc[i] for i in range(3))
    return math.sqrt((r0 * r0 + r1 * r1 + r2 * r2) / 3.0)


def _initial_step(rhs, t0, y0, f0, rel_tol, abs_tol, max_step):
    """Hairer's starting-step estimate, raised to _MIN_STEP: a state near
    zero under a fast field can give a guess below it, and only error
    control may judge a step too short.  So does a state or field that
    overflows, whose first step error control then rejects."""
    sc = [abs_tol + rel_tol * abs(y0[i]) for i in range(3)]
    d0 = _rms(y0, sc)
    d1 = _rms(f0, sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, max_step)
    if not h0 > 0.0:
        return _MIN_STEP
    y1 = tuple(y0[i] + h0 * f0[i] for i in range(3))
    f1 = rhs(t0 + h0, y1)
    d2 = _rms([f1[i] - f0[i] for i in range(3)], sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h = min(100.0 * h0, h1, max_step)
    return h if h > _MIN_STEP else _MIN_STEP


class _EventState:
    """One guard's value at the last accepted step end, and its arming.

    The guard arms above _ARM_TOL and disarms below -_ARM_TOL, so
    restarting exactly at a located root cannot re-fire.  The crossing,
    probe and arming tests run inline in the step loop of integrate.
    """

    __slots__ = ("spec", "g", "armed")

    def __init__(self, spec: EventSpec, g0: float):
        self.spec = spec
        self.g = g0
        self.armed = g0 > _ARM_TOL


def _refine(guard, t0, h, y0, q, ga, tb, yb, gb):
    """Locate a guard root between the step start t0 (guard value ga) and tb
    (state yb, guard value gb of the other sign or zero) by bisection on the
    continuous extension.

    Returns (eta, point).  The eta bracket is reduced below 1e-12, matching
    the event-location contract.
    """
    if gb == 0.0:
        return tb, yb
    a, b = t0, tb
    for _ in range(200):
        mid = 0.5 * (a + b)
        if b - a < 1e-12 or mid in (a, b):
            break
        gm = guard(_dense((mid - t0) / h, h, y0, q))
        if gm == 0.0:
            a = b = mid
            break
        if ga * gm < 0.0:
            b = mid
        else:
            a, ga = mid, gm
    t_star = 0.5 * (a + b)
    return t_star, _dense((t_star - t0) / h, h, y0, q)


def _hidden_dip(guard, g0, g1, h, y0, q):
    """Look inside one step for a point where guard <= 0 although both
    ends have guard > 0.

    The guard is probed at _PROBE_NODES; a node value at or past zero is
    returned at once, and every interior minimum below both ends is searched
    by golden section until it passes zero or its bracket is below 1e-12 in
    eta.  Returns (theta, guard value) of the first such point, or None.
    """
    thetas = (0.0,) + _PROBE_NODES + (1.0,)
    vals = [g0] + [guard(_dense(th, h, y0, q)) for th in _PROBE_NODES] + [g1]
    for i in range(1, len(thetas) - 1):
        if vals[i] <= 0.0:
            return thetas[i], vals[i]
    floor = min(vals[0], vals[-1])
    tol = 1e-12 / h
    for i in range(1, len(thetas) - 1):
        if not (vals[i] < floor and vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]):
            continue
        a, b = thetas[i - 1], thetas[i + 1]
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        gc, gd = guard(_dense(c, h, y0, q)), guard(_dense(d, h, y0, q))
        for _ in range(200):
            if gc <= 0.0:
                return c, gc
            if gd <= 0.0:
                return d, gd
            if b - a < tol:
                break
            if gc < gd:
                b, d, gd = d, c, gc
                c = b - _GOLDEN * (b - a)
                gc = guard(_dense(c, h, y0, q))
            else:
                a, c, gc = c, d, gd
                d = a + _GOLDEN * (b - a)
                gd = guard(_dense(d, h, y0, q))
    return None


def integrate(
    field,
    start,
    events: Sequence[EventSpec] = (),
    controls: IntegrationControls | None = None,
) -> Trajectory:
    """Integrate y' = field(eta, y) forward from eta = 0 until an event,
    max_time, max_steps, or step underflow.

    The field takes (eta, (y0, y1, y2)) and returns a length-3 sequence.
    When several events fire in one step, the earliest located one ends the
    run; an exact tie goes to the first declared.
    """
    controls = controls or IntegrationControls()
    rhs = field
    y = tuple(float(v) for v in start)
    if len(y) != 3:
        raise ValueError("the engine integrates 3-D states")
    t = 0.0
    rel, ab = controls.rel_tol, controls.abs_tol
    max_step, max_steps = controls.max_step, controls.max_steps
    ds = controls.sample_step
    cap = _MAX_SAMPLES
    # eta cannot pass the largest float: an infinite max_time ends the run
    # there at the latest, and only a step cap of inf as well can reach it
    t_end = min(controls.max_time, _MAX_ETA)
    slack = max(_MIN_STEP, 1e-15 * t_end)
    c2, c3, c4, c5 = _C2, _C3, _C4, _C5
    a21, a31, a32, a41, a42, a43 = _A21, _A31, _A32, _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7

    f = tuple(float(v) for v in rhs(t, y))
    h = _initial_step(rhs, t, y, f, rel, ab, max_step)

    states = [_EventState(ev, float(ev.guard(y))) for ev in events]

    etas = [t]
    pts = [y]
    add_eta, add_pt = etas.append, pts.append
    steps = []  # the deferred steps whose grid points pts holds as _PENDING
    add_step = steps.extend
    pending = _PENDING
    t_rec = t  # eta of the last stored sample
    hit: EventHit | None = None
    termination = "max_time"
    n_steps = n_rejected = 0
    stride = 1  # store every stride-th sample
    since_record = 0

    def record(tt, yy):
        # a sample stored whatever the stride: an event's, and the run's last
        if tt > etas[-1]:
            etas.append(tt)
            pts.append(yy)
            if len(etas) > cap:
                # the sample just stored stays, whatever the count's parity
                del etas[1:-1:2], pts[1:-1:2]

    y0, y1, y2 = y
    u0, u1, u2 = abs(y0), abs(y1), abs(y2)
    k1 = f
    p1, q1, r1 = k1
    while True:
        if t_end - t <= slack:
            termination = "max_time"
            break
        if n_steps >= max_steps:
            termination = "max_steps"
            break
        if max_step < h:
            h = max_step
        if t_end - t < h:
            h = t_end - t
        # one attempted Dormand-Prince step with error control
        accepted = False
        while True:
            if h < _MIN_STEP:
                termination = "step_underflow"
                break
            t_new = t + h
            ha = h * a21
            k2 = rhs(t + c2 * h, (y0 + ha * p1, y1 + ha * q1, y2 + ha * r1))
            p2, q2, r2 = k2
            k3 = rhs(
                t + c3 * h,
                (
                    y0 + h * (a31 * p1 + a32 * p2),
                    y1 + h * (a31 * q1 + a32 * q2),
                    y2 + h * (a31 * r1 + a32 * r2),
                ),
            )
            p3, q3, r3 = k3
            k4 = rhs(
                t + c4 * h,
                (
                    y0 + h * (a41 * p1 + a42 * p2 + a43 * p3),
                    y1 + h * (a41 * q1 + a42 * q2 + a43 * q3),
                    y2 + h * (a41 * r1 + a42 * r2 + a43 * r3),
                ),
            )
            p4, q4, r4 = k4
            k5 = rhs(
                t + c5 * h,
                (
                    y0 + h * (a51 * p1 + a52 * p2 + a53 * p3 + a54 * p4),
                    y1 + h * (a51 * q1 + a52 * q2 + a53 * q3 + a54 * q4),
                    y2 + h * (a51 * r1 + a52 * r2 + a53 * r3 + a54 * r4),
                ),
            )
            p5, q5, r5 = k5
            k6 = rhs(
                t_new,
                (
                    y0 + h * (a61 * p1 + a62 * p2 + a63 * p3 + a64 * p4 + a65 * p5),
                    y1 + h * (a61 * q1 + a62 * q2 + a63 * q3 + a64 * q4 + a65 * q5),
                    y2 + h * (a61 * r1 + a62 * r2 + a63 * r3 + a64 * r4 + a65 * r5),
                ),
            )
            p6, q6, r6 = k6
            n0 = y0 + h * (b1 * p1 + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6)
            n1 = y1 + h * (b1 * q1 + b3 * q3 + b4 * q4 + b5 * q5 + b6 * q6)
            n2 = y2 + h * (b1 * r1 + b3 * r3 + b4 * r4 + b5 * r5 + b6 * r6)
            y_new = (n0, n1, n2)
            k7 = rhs(t_new, y_new)
            p7, q7, r7 = k7
            # RMS of the error estimate over the scale ab + rel * max(|y|, |y_new|)
            v0, v1, v2 = abs(n0), abs(n1), abs(n2)
            s0 = h * (e1 * p1 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6 + e7 * p7) / (
                ab + rel * (v0 if v0 > u0 else u0)
            )
            s1 = h * (e1 * q1 + e3 * q3 + e4 * q4 + e5 * q5 + e6 * q6 + e7 * q7) / (
                ab + rel * (v1 if v1 > u1 else u1)
            )
            s2 = h * (e1 * r1 + e3 * r3 + e4 * r4 + e5 * r5 + e6 * r6 + e7 * r7) / (
                ab + rel * (v2 if v2 > u2 else u2)
            )
            # inf or nan when a stage or the estimate is not finite; such a
            # step is rejected with factor 0.2
            err = math.sqrt((s0 * s0 + s1 * s1 + s2 * s2) / 3.0)
            if err <= 1.0:
                accepted = True
                break
            n_rejected += 1
            if err < math.inf:
                w = 0.9 * err**-0.2
                h *= w if w > 0.2 else 0.2
            else:
                h *= 0.2
        if not accepted:
            break  # step underflow
        n_steps += 1

        # event detection on the accepted step; the extension is built lazily
        first = None  # (eta, point, spec) of the earliest located root
        q = None
        for st in states:
            guard = st.spec.guard
            g_new = float(guard(y_new))
            g = st.g
            if st.armed:
                located = None
                if g > 0.0 >= g_new:
                    if q is None:
                        q = _dense_coeffs(k1, k3, k4, k5, k6, k7)
                    located = _refine(guard, t, h, y, q, g, t_new, y_new, g_new)
                elif 0.0 < (g_new if g_new < g else g) < abs(g_new - g):
                    # both end values positive but smaller than their difference
                    if q is None:
                        q = _dense_coeffs(k1, k3, k4, k5, k6, k7)
                    dip = _hidden_dip(guard, g, g_new, h, y, q)
                    if dip is not None:
                        theta, g_dip = dip
                        located = _refine(
                            guard, t, h, y, q, g, t + theta * h, _dense(theta, h, y, q), g_dip
                        )
                if located is not None and (first is None or located[0] < first[0]):
                    first = located + (st.spec,)
            st.g = g_new
            if g_new > _ARM_TOL:
                st.armed = True
            elif g_new < -_ARM_TOL:
                st.armed = False
        # samples: the grid points a long step spans up to its end or its
        # event, or else the end of a short step; every stride-th is stored.
        # A stored grid point is a placeholder, evaluated from the step's
        # record (kept once per step) after the loop or at a thinning
        if h > ds:
            if q is None:
                q = _dense_coeffs(k1, k3, k4, k5, k6, k7)
            t_last = t_new if first is None else first[0]
            kept = False
            # the multiples k * ds in [t, t_last)
            k = math.floor(t / ds)
            while k * ds < t:
                k += 1
            e = k * ds
            while e < t_last:
                since_record += 1
                if since_record >= stride:
                    if e > t_rec:
                        if not kept:
                            add_step((t, h, y0, y1, y2))
                            add_step(q)
                            kept = True
                        add_eta(e)
                        add_pt(pending)
                        t_rec = e
                        if len(etas) > cap:
                            # keep every other sample, the start among them,
                            # and every other one from here on
                            del etas[1::2], pts[1::2]
                            stride *= 2
                            t_rec = etas[-1]
                            _resolve_pending(etas, pts, steps)
                            kept = False
                    since_record = 0
                k += 1
                e = k * ds
        elif first is None:
            since_record += 1
            if since_record >= stride:
                if t_new > t_rec:
                    add_eta(t_new)
                    add_pt(y_new)
                    t_rec = t_new
                    if len(etas) > cap:
                        del etas[1::2], pts[1::2]
                        stride *= 2
                        t_rec = etas[-1]
                        if steps:
                            _resolve_pending(etas, pts, steps)
                since_record = 0
        if first is not None:
            t_star, y_star, spec = first
            hit = EventHit(id=spec.id, eta=t_star, point=np.array(y_star))
            record(t_star, y_star)
            termination = "event"
            break

        y = y_new
        y0, y1, y2 = n0, n1, n2
        u0, u1, u2 = v0, v1, v2
        k1 = k7
        p1, q1, r1 = p7, q7, r7
        t = t_new
        if err == 0.0:
            h *= 5.0
        else:
            w = 0.9 * err**-0.2  # at least 0.9, as err <= 1
            h *= w if w < 5.0 else 5.0

    record(t, y)
    eta = np.array(etas)
    points = np.fromiter(itertools.chain.from_iterable(pts), float, 3 * len(pts)).reshape(-1, 3)
    if steps:
        idx, vals = _pending_values(eta, pts, steps)
        points[idx] = vals
    return Trajectory(
        eta=eta,
        points=points,
        event=hit,
        termination=termination,
        n_steps=n_steps,
        n_rejected=n_rejected,
        n_rhs=2 + 6 * (n_steps + n_rejected),
    )
