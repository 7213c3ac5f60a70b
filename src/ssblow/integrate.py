"""Adaptive explicit integration of 3-D fields with root-resolved events.

A single engine serves every orbit computation in the package: a
Dormand-Prince 5(4) embedded pair with PI-free step control, cubic Hermite
dense output for event localization, and sign-change event detection with
per-event arming so that restarting from a located event point does not
re-fire it.  The right-hand side receives and returns plain float triples;
keeping the hot loop free of array allocation is what makes million-step
runs (needed when refining the critical sigma) affordable.

scipy.integrate.solve_ivp is deliberately not used here; it remains the
independent oracle in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
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

_MIN_STEP = 1e-14  # absolute step underflow threshold


@dataclass(frozen=True)
class IntegrationControls:
    """Step-size and budget controls for one integration run.

    max_time bounds the autonomous variable.  The recorded samples are
    thinned so that a run never stores more than ~200k of them (events and
    the final point are always recorded).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = 0.1
    max_time: float = 1e4
    max_steps: int = 10_000_000

    def __post_init__(self):
        if not (
            self.rel_tol > 0
            and self.abs_tol > 0
            and self.max_step > 0
            and self.max_time > 0
            and self.max_steps > 0
        ):
            raise ValueError("all integration controls must be positive")
        if self.rel_tol < 1e-13:
            raise ValueError("rel_tol below 1e-13 is not supported")


@dataclass(frozen=True)
class EventSpec:
    """A scalar guard whose root along the trajectory marks an event.

    The guard must be continuous along trajectories.  direction selects the
    sign change that fires: "falling" (+ to -), "rising" (- to +), or
    "either".  An event only arms once the guard has been on the pre-side
    beyond zero_tol, which makes relaunching from a located event point
    idempotent.
    """

    id: str
    guard: Callable[[Sequence[float]], float]
    direction: str = "either"
    terminal: bool = True
    zero_tol: float = 1e-10

    def __post_init__(self):
        if self.direction not in ("rising", "falling", "either"):
            raise ValueError("direction must be rising, falling or either")


@dataclass(frozen=True)
class EventHit:
    id: str
    eta: float
    point: np.ndarray
    terminal: bool


@dataclass
class Trajectory:
    """Time-ordered samples of one integration with its event record."""

    eta: np.ndarray
    points: np.ndarray
    events: list[EventHit] = dc_field(default_factory=list)
    termination: str = "max_time"  # event | max_time | max_steps | step_underflow
    n_steps: int = 0

    @property
    def final_eta(self) -> float:
        return float(self.eta[-1])

    @property
    def final_point(self) -> np.ndarray:
        return self.points[-1]

    def terminal_event(self) -> EventHit | None:
        for hit in reversed(self.events):
            if hit.terminal:
                return hit
        return None


def _hermite(theta, h, y0, f0, y1, f1):
    """Cubic Hermite interpolant on one accepted step, theta in [0, 1]."""
    t2 = theta * theta
    t3 = t2 * theta
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = t3 - 2.0 * t2 + theta
    h01 = -2.0 * t3 + 3.0 * t2
    h11 = t3 - t2
    return tuple(
        h00 * y0[i] + h10 * h * f0[i] + h01 * y1[i] + h11 * h * f1[i] for i in range(3)
    )


def _initial_step(rhs, t0, y0, f0, rel_tol, abs_tol, max_step):
    sc = [abs_tol + rel_tol * abs(y0[i]) for i in range(3)]
    d0 = math.sqrt(sum((y0[i] / sc[i]) ** 2 for i in range(3)) / 3.0)
    d1 = math.sqrt(sum((f0[i] / sc[i]) ** 2 for i in range(3)) / 3.0)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, max_step)
    y1 = tuple(y0[i] + h0 * f0[i] for i in range(3))
    f1 = rhs(t0 + h0, y1)
    d2 = math.sqrt(sum(((f1[i] - f0[i]) / sc[i]) ** 2 for i in range(3)) / 3.0) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, max_step)


class _EventState:
    """Tracks one guard's previous value and arming across accepted steps.

    Crossing is judged on the sign of the previous versus new guard value;
    arming requires the guard to have been on the pre-side beyond zero_tol
    at least once, so restarting exactly at a located root cannot re-fire.
    """

    __slots__ = ("spec", "g", "armed")

    def __init__(self, spec: EventSpec, g0: float):
        self.spec = spec
        self.g = g0
        self.armed = False
        self.update_arming(g0)

    def update_arming(self, g: float):
        tol = self.spec.zero_tol
        d = self.spec.direction
        if d == "falling":
            if g > tol:
                self.armed = True
            elif g < -tol:
                self.armed = False
        elif d == "rising":
            if g < -tol:
                self.armed = True
            elif g > tol:
                self.armed = False
        else:
            if abs(g) > tol:
                self.armed = True

    def crossed(self, g_new: float) -> bool:
        if not self.armed:
            return False
        d = self.spec.direction
        if d == "falling":
            return self.g > 0.0 >= g_new
        if d == "rising":
            return self.g < 0.0 <= g_new
        return (self.g > 0.0 >= g_new) or (self.g < 0.0 <= g_new)


def _refine(ev: EventSpec, t0, t1, h, y0, f0, y1, f1):
    """Locate the guard root inside one step via bisection on the interpolant.

    Returns (eta, point).  The eta bracket is reduced below 1e-12 (or the
    guard magnitude below zero_tol), matching the event-location contract.
    """

    def g_at(t):
        theta = (t - t0) / h
        return ev.guard(_hermite(theta, h, y0, f0, y1, f1))

    a, b = t0, t1
    ga, gb = g_at(a), g_at(b)
    if ga == 0.0:
        return a, _hermite(0.0, h, y0, f0, y1, f1)
    if gb == 0.0 or ga * gb > 0.0:
        return b, _hermite(1.0, h, y0, f0, y1, f1)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if b - a < 1e-12 or mid in (a, b):
            break
        gm = g_at(mid)
        if gm == 0.0:
            a = b = mid
            break
        if ga * gm < 0.0:
            b, gb = mid, gm
        else:
            a, ga = mid, gm
    t_star = 0.5 * (a + b)
    return t_star, _hermite((t_star - t0) / h, h, y0, f0, y1, f1)


def integrate(
    field,
    start,
    events: Sequence[EventSpec] = (),
    controls: IntegrationControls | None = None,
) -> Trajectory:
    """Integrate y' = field(eta, y) forward from eta = 0 until a terminal
    event, max_time, max_steps, or step underflow.

    The field takes (eta, (y0, y1, y2)) and returns a length-3 sequence.
    Simultaneous events are resolved by the smaller located eta; exact ties
    fall back to declaration order.
    """
    controls = controls or IntegrationControls()
    rhs = field
    y = tuple(float(v) for v in start)
    if len(y) != 3:
        raise ValueError("the engine integrates 3-D states")
    t = 0.0
    rel, ab = controls.rel_tol, controls.abs_tol
    t_end = controls.max_time
    stride = max(1, int(t_end / controls.max_step / 200_000.0))

    f = tuple(float(v) for v in rhs(t, y))
    h = _initial_step(rhs, t, y, f, rel, ab, controls.max_step)

    states = [_EventState(ev, float(ev.guard(y))) for ev in events]

    etas = [t]
    pts = [y]
    hits: list[EventHit] = []
    termination = "max_time"
    n_steps = 0
    since_record = 0

    def record(tt, yy, force=False):
        nonlocal since_record
        since_record += 1
        if force or since_record >= stride:
            if tt > etas[-1]:
                etas.append(tt)
                pts.append(yy)
            since_record = 0

    while True:
        if t_end - t <= max(_MIN_STEP, 1e-15 * t_end):
            termination = "max_time"
            break
        if n_steps >= controls.max_steps:
            termination = "max_steps"
            break
        h = min(h, controls.max_step, t_end - t)
        # one attempted Dormand-Prince step with error control
        accepted = False
        while True:
            if h < _MIN_STEP:
                termination = "step_underflow"
                break
            k1 = f
            k2 = rhs(
                t + _C2 * h,
                (y[0] + h * _A21 * k1[0], y[1] + h * _A21 * k1[1], y[2] + h * _A21 * k1[2]),
            )
            k3 = rhs(
                t + _C3 * h,
                (
                    y[0] + h * (_A31 * k1[0] + _A32 * k2[0]),
                    y[1] + h * (_A31 * k1[1] + _A32 * k2[1]),
                    y[2] + h * (_A31 * k1[2] + _A32 * k2[2]),
                ),
            )
            k4 = rhs(
                t + _C4 * h,
                (
                    y[0] + h * (_A41 * k1[0] + _A42 * k2[0] + _A43 * k3[0]),
                    y[1] + h * (_A41 * k1[1] + _A42 * k2[1] + _A43 * k3[1]),
                    y[2] + h * (_A41 * k1[2] + _A42 * k2[2] + _A43 * k3[2]),
                ),
            )
            k5 = rhs(
                t + _C5 * h,
                (
                    y[0] + h * (_A51 * k1[0] + _A52 * k2[0] + _A53 * k3[0] + _A54 * k4[0]),
                    y[1] + h * (_A51 * k1[1] + _A52 * k2[1] + _A53 * k3[1] + _A54 * k4[1]),
                    y[2] + h * (_A51 * k1[2] + _A52 * k2[2] + _A53 * k3[2] + _A54 * k4[2]),
                ),
            )
            k6 = rhs(
                t + h,
                (
                    y[0]
                    + h * (_A61 * k1[0] + _A62 * k2[0] + _A63 * k3[0] + _A64 * k4[0] + _A65 * k5[0]),
                    y[1]
                    + h * (_A61 * k1[1] + _A62 * k2[1] + _A63 * k3[1] + _A64 * k4[1] + _A65 * k5[1]),
                    y[2]
                    + h * (_A61 * k1[2] + _A62 * k2[2] + _A63 * k3[2] + _A64 * k4[2] + _A65 * k5[2]),
                ),
            )
            y_new = (
                y[0] + h * (_B1 * k1[0] + _B3 * k3[0] + _B4 * k4[0] + _B5 * k5[0] + _B6 * k6[0]),
                y[1] + h * (_B1 * k1[1] + _B3 * k3[1] + _B4 * k4[1] + _B5 * k5[1] + _B6 * k6[1]),
                y[2] + h * (_B1 * k1[2] + _B3 * k3[2] + _B4 * k4[2] + _B5 * k5[2] + _B6 * k6[2]),
            )
            k7 = rhs(t + h, y_new)
            err = 0.0
            bad = False
            for i in range(3):
                e = h * (
                    _E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i] + _E5 * k5[i] + _E6 * k6[i] + _E7 * k7[i]
                )
                sc = ab + rel * max(abs(y[i]), abs(y_new[i]))
                r = e / sc
                if not math.isfinite(r):
                    bad = True
                    break
                err += r * r
            err = math.sqrt(err / 3.0) if not bad else math.inf
            if err <= 1.0:
                accepted = True
                break
            factor = 0.2 if not math.isfinite(err) else max(0.2, 0.9 * err**-0.2)
            h *= factor
        if not accepted:
            break  # step underflow
        n_steps += 1
        t_new = t + h

        # event detection on the accepted step
        fired: list[tuple[float, tuple, EventSpec]] = []
        for st in states:
            g_new = float(st.spec.guard(y_new))
            if st.crossed(g_new):
                t_star, y_star = _refine(st.spec, t, t_new, h, y, k1, y_new, k7)
                fired.append((t_star, y_star, st.spec))
            st.g = g_new
            st.update_arming(g_new)
        if fired:
            fired.sort(key=lambda item: item[0])
            stop = False
            for t_star, y_star, spec in fired:
                pt_star = np.array(y_star)
                hits.append(EventHit(id=spec.id, eta=t_star, point=pt_star, terminal=spec.terminal))
                record(t_star, y_star, force=True)
                if spec.terminal:
                    termination = "event"
                    stop = True
                    break
            if stop:
                break

        record(t_new, y_new)
        y = y_new
        f = k7
        t = t_new
        if err == 0.0:
            h = min(h * 5.0, controls.max_step)
        else:
            h = min(h * min(5.0, max(0.2, 0.9 * err**-0.2)), controls.max_step)

    record(t, y, force=True)
    return Trajectory(
        eta=np.array(etas),
        points=np.array(pts),
        events=hits,
        termination=termination,
        n_steps=n_steps,
    )
