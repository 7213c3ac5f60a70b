"""Adaptive explicit integration of 3-D fields up to a located event.

A single engine serves every orbit computation in the package: a
Dormand-Prince 5(4) embedded pair with PI-free step control, the pair's own
4th-order continuous extension (Shampine 1986) for event localization, and
one event contract: an event fires when its guard falls from positive to
zero or below, and that ends the run.  A guard arms only once it has been
above _ARM_TOL, so restarting from a located event point does not re-fire
it.  Every accepted step is also searched for a guard that dips through
zero and back inside it, so a run can leave the step to error control.
The same extension supplies the stored samples, which follow the state
where it moves rather than a grid in eta.  Moves are measured in the norm
max_c |dy_c| / (1e-9 + |y_c|), with the larger |y_c| of the two ends, so
a component is sampled relative to its own size down to 1e-9.  A step
that moves more than sample_step stores the extension at theta = i/n,
0 < i < n = ceil(move / sample_step), up to its event if one ends it, and
then its end; a shorter step stores its end once the state has moved
sample_step from the last sample.  So the step is set by error control
and the samples by how far the state goes.  One helper, _thin, holds the
sample cap's rule: past the cap it drops every other stored sample; it
also stores the run's final sample.  Runs that store step ends only
measure no move.

The right-hand side receives and returns plain float triples; keeping the
hot loop free of array allocation is what makes long runs affordable.  The
step loop also keeps interpreter work per step low: the state and every
stage are unpacked into scalar locals once, the tableau and the controls
are bound to locals before the loop, and the error norm and the guards'
crossing, probe and arming tests are written out inline.  It performs the
floating-point operations of the indexed textbook form in the same order,
so a trajectory does not depend on how the loop is written.

scipy.integrate.solve_ivp is deliberately not used here; it remains the
independent oracle in the test suite.
"""

from __future__ import annotations

import copy
import itertools
import math
import sys
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
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
_MOVE_FLOOR = 1e-9  # a in the sample norm max_c |dy_c| / (a + |y_c|)
_PROBE_NODES = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class IntegrationControls:
    """Step-size, sampling and budget controls for one integration run.

    max_step caps the step; math.inf leaves it to error control alone.
    sample_step is the move between stored samples, in the norm
    max_c |dy_c| / (1e-9 + |y_c|) with the larger |y_c| of the two ends:
    a step that moves more than sample_step stores the continuous
    extension at theta = i/n, 0 < i < n = ceil(move / sample_step), up to
    its event, and then its end; a shorter step stores its end once the
    state has moved sample_step from the last sample.  So the samples
    follow the state however long the step.  A move is below 2, so a
    component that crosses zero inside a step costs at most 2 / sample_step
    samples, which must be finite.  math.inf stores every step end and
    nothing else.  The phase-space orbit runs of orbits (run_p2_orbit,
    run_p0_orbit and the phase leg of run_q1_orbit) scale a finite
    sample_step by orbits._sample_scale(params), at most 1, since the
    profile they rebuild amplifies a relative move in X by 1/(m - 1).
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
    sample_step: float = 0.005
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
        if 2.0 / self.sample_step == math.inf:
            raise ValueError("sample_step is too small: 2 / sample_step overflows")
        if self.rel_tol < 1e-13:
            raise ValueError("rel_tol below 1e-13 is not supported")


def _coarse_controls(controls: IntegrationControls) -> IntegrationControls | None:
    """The controls of a search's first pass at one point: rel_tol and
    abs_tol 100 times the caller's, but no looser than 1e-8 and 1e-10
    unless the caller's already are.  None where they equal the caller's,
    so that there is no first pass.  Both fate searches use it:
    orbits.sigma_star at each sigma and profiles.find_good_profile_P1 at
    each a, and each keeps a first-pass fate only where it clears that
    search's margin."""
    rel = max(controls.rel_tol, min(100.0 * controls.rel_tol, 1e-8))
    tol_abs = max(controls.abs_tol, min(100.0 * controls.abs_tol, 1e-10))
    if rel == controls.rel_tol and tol_abs == controls.abs_tol:
        return None
    return replace(controls, rel_tol=rel, abs_tol=tol_abs)


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
    point: tuple[float, float, float]


class Trajectory:
    """Time-ordered samples of one integration and the event that ended it.

    eta, shape (n,), and points, shape (n, 3), are float numpy arrays.  A
    run hands over its step loop's lists of floats and float triples, and
    the arrays are built from them on the first read of either: numpy is
    imported there, the arrays are kept, and the lists are released, so a
    read trajectory holds its samples once.  eta and points may also be
    given as arrays.  record, final_eta and termination read no sample
    array, so a caller that keeps only the fate never imports numpy.
    """

    def __init__(
        self,
        eta,
        points,
        event: EventHit | None = None,
        termination: str = "max_time",
        n_steps: int = 0,
        n_rejected: int = 0,
        n_rhs: int = 0,
    ):
        self._eta = eta
        self._points = points
        self._built = False
        self.final_eta = float(eta[-1])
        self.event = event  # set exactly when termination == "event"
        self.termination = termination  # event | max_time | max_steps | step_underflow
        self.n_steps = n_steps  # accepted steps
        self.n_rejected = n_rejected  # rejected step attempts
        self.n_rhs = n_rhs  # field evaluations: 6 per attempt plus 1 or 2 at the start

    def _build(self) -> None:
        """The sample arrays, from the stored lists on the first read."""
        import numpy as np

        eta, pts = self._eta, self._points
        self._eta = np.asarray(eta, dtype=float)
        if isinstance(pts, list):
            pts = np.fromiter(itertools.chain.from_iterable(pts), float, 3 * len(pts)).reshape(-1, 3)
        self._points = np.asarray(pts, dtype=float)
        self._built = True

    @property
    def eta(self) -> np.ndarray:
        if not self._built:
            self._build()
        return self._eta

    @property
    def points(self) -> np.ndarray:
        if not self._built:
            self._build()
        return self._points

    @property
    def final_point(self) -> np.ndarray:
        return self.points[-1]

    def with_event(self, event: EventHit) -> "Trajectory":
        """A copy that shares these samples and ends at event instead."""
        out = copy.copy(self)
        out.event = event
        return out

    @property
    def record(self) -> dict:
        """The run record: how the run ended, what it cost and where it
        stopped.  Fate diagnostics, profile results and every JSON report
        carry it whole."""
        return {
            "termination": self.termination,
            "n_steps": self.n_steps,
            "n_rejected": self.n_rejected,
            "n_rhs": self.n_rhs,
            "final_eta": self.final_eta,
        }


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


def _move(a, b):
    """The sample norm of b - a: max_c |b_c - a_c| / (_MOVE_FLOOR + the
    larger |a_c|, |b_c|).  It is below 2 between finite states; 2 stands in
    for a difference that overflows or is not a number."""
    m = max(abs(b[c] - a[c]) / (_MOVE_FLOOR + max(abs(a[c]), abs(b[c]))) for c in range(3))
    return m if m < 2.0 else 2.0


def _thin(etas, pts, last=None):
    """Drop every other stored sample but the first.

    In the step loop (last None) the sample that took the run over
    _MAX_SAMPLES is among those dropped, [1::2], and the loop stores every
    other sample it reaches from there on.  last is the run's final
    (eta, point): it is stored after every earlier sample, and kept,
    [1:-1:2], when it takes the run over the cap.  The two agree for an
    even cap."""
    if last is not None:
        if not last[0] > etas[-1]:
            return
        etas.append(last[0])
        pts.append(last[1])
        if len(etas) <= _MAX_SAMPLES:
            return
        del etas[1:-1:2], pts[1:-1:2]
    else:
        del etas[1::2], pts[1::2]


def _rms(v, sc):
    """Root mean square of v / sc; inf, not OverflowError, when it overflows."""
    r0, r1, r2 = (v[i] / sc[i] for i in range(3))
    return math.sqrt((r0 * r0 + r1 * r1 + r2 * r2) / 3.0)


def _initial_step(rhs, t0, y0, f0, rel_tol, abs_tol, max_step):
    """Hairer's starting-step estimate, raised to _MIN_STEP: a state near
    zero under a fast field can give a guess below it, and only error
    control may judge a step too short.  So does a state or field that
    overflows, whose first step error control then rejects.  Returns the
    step and the number of rhs calls made: 0 when the first guess is not
    positive, else 1."""
    sc = [abs_tol + rel_tol * abs(y0[i]) for i in range(3)]
    d0 = _rms(y0, sc)
    d1 = _rms(f0, sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, max_step)
    if not h0 > 0.0:
        return _MIN_STEP, 0
    y1 = tuple(y0[i] + h0 * f0[i] for i in range(3))
    f1 = rhs(t0 + h0, y1)
    d2 = _rms([f1[i] - f0[i] for i in range(3)], sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h = min(100.0 * h0, h1, max_step)
    return (h if h > _MIN_STEP else _MIN_STEP), 1


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
    ends_only = ds == math.inf
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
    h, n_start = _initial_step(rhs, t, y, f, rel, ab, max_step)

    # each guard, its value at the last accepted step end, and its arming:
    # a guard arms above _ARM_TOL and disarms below -_ARM_TOL, so restarting
    # exactly at a located root cannot re-fire
    guards = [ev.guard for ev in events]
    gs = [float(guard(y)) for guard in guards]
    armed = [g > _ARM_TOL for g in gs]

    etas = [t]
    pts = [y]
    add_eta, add_pt = etas.append, pts.append
    t_rec = t  # eta of the last stored sample
    ref = y  # the last sample the motion rule took, stored or not
    hit: EventHit | None = None
    termination = "max_time"
    n_steps = n_rejected = 0
    stride = 1  # store every stride-th sample
    since_record = 0

    def take(e, p):
        """Store every stride-th sample, thinning past the cap."""
        nonlocal since_record, stride, t_rec
        since_record += 1
        if since_record >= stride:
            if e > t_rec:
                add_eta(e)
                add_pt(p)
                t_rec = e
                if len(etas) > cap:
                    _thin(etas, pts)
                    stride *= 2
                    t_rec = etas[-1]
            since_record = 0

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
        first = None  # (eta, point, index) of the earliest located root
        q = None
        for i, guard in enumerate(guards):
            g_new = float(guard(y_new))
            g = gs[i]
            if armed[i]:
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
                    first = located + (i,)
            gs[i] = g_new
            if g_new > _ARM_TOL:
                armed[i] = True
            elif g_new < -_ARM_TOL:
                armed[i] = False
        # samples: every step end if sample_step is inf; else the extension
        # at theta = i/n of a step that moves n > 1 units, up to its end or
        # its event, then its end; and the end of a shorter step once the
        # state has moved a unit from the last sample
        if ends_only:
            if first is None:
                take(t_new, y_new)
        else:
            t_last, y_last = (t_new, y_new) if first is None else first[:2]
            n = math.ceil(_move(y, y_last) / ds)
            if n > 1:
                if q is None:
                    q = _dense_coeffs(k1, k3, k4, k5, k6, k7)
                th_last = (t_last - t) / h
                for j in range(1, n):
                    theta = th_last * j / n
                    ref = _dense(theta, h, y, q)
                    take(t + theta * h, ref)
            if first is None and (n > 1 or _move(ref, y_new) >= ds):
                ref = y_new
                take(t_new, y_new)
        if first is not None:
            t, y, i = first
            hit = EventHit(id=events[i].id, eta=t, point=y)
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

    _thin(etas, pts, (t, y))  # the final sample: an event's or the last step end
    return Trajectory(
        eta=etas,
        points=pts,
        event=hit,
        termination=termination,
        n_steps=n_steps,
        n_rejected=n_rejected,
        n_rhs=1 + n_start + 6 * (n_steps + n_rejected),
    )
