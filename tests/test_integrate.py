import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import RK45, solve_ivp

from ssblow.params import beta_over_alpha, derive_exponents, validate_params
from ssblow.field import make_rhs, vector_field, p2_coordinates
import ssblow.integrate as integrate_module
from ssblow.integrate import (
    _PD,
    EventSpec,
    IntegrationControls,
    _dense,
    _dense_coeffs,
    _dense_rows,
    integrate,
)
from ssblow.orbits import launch_from_P2, standard_fate_events


def test_linear_field_against_closed_form():
    rhs = lambda t, y: (-y[0], -2.0 * y[1], 0.5 * y[2])
    traj = integrate(rhs, (1.0, 1.0, 1.0), controls=IntegrationControls(max_time=2.0, max_step=0.5))
    exact = np.array([math.exp(-2.0), math.exp(-4.0), math.exp(1.0)])
    assert traj.final_point == pytest.approx(exact, abs=1e-10)
    assert traj.termination == "max_time"


def test_polynomial_exactness():
    # quartic solution is reproduced to error-control accuracy by the pair
    rhs = lambda t, y: (4.0 * t**3, 3.0 * t**2, 1.0)
    traj = integrate(rhs, (0.0, 0.0, 0.0), controls=IntegrationControls(max_time=2.0, max_step=0.25))
    assert traj.final_point == pytest.approx([16.0, 8.0, 2.0], rel=1e-12)


def test_equilibrium_stays_put(params15_3):
    p2 = tuple(p2_coordinates(params15_3))
    traj = integrate(
        make_rhs(params15_3), p2, controls=IntegrationControls(max_time=50.0)
    )
    assert np.max(np.abs(traj.points - np.asarray(p2))) < 1e-9


def test_invariant_plane_x0(params15_3):
    """On {X = 0}: X and Z frozen, Y relaxes down toward the parabola."""
    traj = integrate(
        make_rhs(params15_3),
        (0.0, 1.0, 0.005),
        controls=IntegrationControls(max_time=300.0),
    )
    assert np.all(traj.points[:, 0] == 0.0)
    assert np.all(traj.points[:, 2] == 0.005)
    y = traj.points[:, 1]
    assert np.all(np.diff(y) <= 0.0) and y[-1] < y[0]
    boa = beta_over_alpha(params15_3)
    y_limit = (-boa + math.sqrt(boa**2 - 4 * 0.005)) / 2.0
    assert y[-1] == pytest.approx(y_limit, abs=1e-6)


def test_x_strictly_decreases_in_lower_half(params15_3):
    traj = integrate(
        make_rhs(params15_3),
        (0.05, -0.3, 0.001),
        controls=IntegrationControls(max_time=10.0),
    )
    assert np.all(np.diff(traj.points[:, 0]) < 0.0)


def test_event_location_precision(params15_3):
    ev = EventSpec(id="y0", guard=lambda p: p[1])
    traj = integrate(
        make_rhs(params15_3),
        (0.005, 0.02, 0.002),
        [ev],
        IntegrationControls(max_time=1e3),
    )
    hit = traj.event
    assert hit is not None and hit.id == "y0"
    assert abs(hit.point[1]) < 1e-10
    assert traj.termination == "event"


def test_simultaneous_events_tie_break_declaration_order():
    rhs = lambda t, y: (0.0, -1.0, 0.0)
    ev_a = EventSpec(id="first", guard=lambda p: p[1])
    ev_b = EventSpec(id="second", guard=lambda p: 2.0 * p[1])
    hit = integrate(rhs, (0.0, 1.0, 0.0), [ev_a, ev_b], IntegrationControls(max_time=5.0)).event
    assert hit.id == "first"
    assert hit.eta == pytest.approx(1.0, abs=1e-9)


def test_earlier_crossing_wins_regardless_of_order():
    rhs = lambda t, y: (0.0, -1.0, 0.0)
    late = EventSpec(id="late", guard=lambda p: p[1] + 0.5)
    early = EventSpec(id="early", guard=lambda p: p[1])
    # "early" fires at eta = 1.0, "late" at eta = 1.5
    hit = integrate(rhs, (0.0, 1.0, 0.0), [late, early], IntegrationControls(max_time=5.0)).event
    assert hit.id == "early"


def test_max_time_without_terminal_event_returns_none(params15_3):
    ev = EventSpec(id="never", guard=lambda p: p[1] + 100.0)
    traj = integrate(
        make_rhs(params15_3), (0.005, 0.02, 0.002), [ev], IntegrationControls(max_time=1.0)
    )
    assert traj.event is None and traj.termination == "max_time"


def test_event_idempotence_on_relaunch(params15_3):
    ev = EventSpec(id="y0", guard=lambda p: p[1])
    hit = integrate(
        make_rhs(params15_3), (0.005, 0.02, 0.002), [ev], IntegrationControls(max_time=1e3)
    ).event
    ev2 = EventSpec(id="y0", guard=lambda p: p[1])
    traj2 = integrate(
        make_rhs(params15_3), tuple(hit.point), [ev2], IntegrationControls(max_time=5.0)
    )
    assert traj2.event is None
    assert traj2.termination == "max_time"


def test_a_long_run_keeps_every_2k_th_step(monkeypatch):
    """Past _MAX_SAMPLES stored samples a run keeps every 2nd, then 4th, ...
    accepted step, whatever its max_time, so its samples stay evenly spaced
    and bounded in number; the start and the end are always kept."""
    monkeypatch.setattr(integrate_module, "_MAX_SAMPLES", 100)
    short = integrate(
        lambda t, y: (1.0, 0.0, 0.0), (0.0, 0.0, 0.0), [],
        IntegrationControls(max_step=0.01, max_time=0.5),
    )
    assert len(short.eta) == short.n_steps + 1  # below the cap every step is kept
    traj = integrate(
        lambda t, y: (1.0, 0.0, 0.0), (0.0, 0.0, 0.0), [],
        IntegrationControls(max_step=0.01, max_time=10.0),
    )
    assert traj.n_steps > 1000 and 50 < len(traj.eta) <= 101
    assert traj.eta[0] == 0.0 and traj.eta[-1] == 10.0
    gaps = np.diff(traj.eta)[1:-1]
    assert np.allclose(gaps, 16 * 0.01)


@pytest.mark.parametrize("cap, n_samples", [(7, 5), (8, 8)])
def test_thinning_keeps_the_event_sample(monkeypatch, cap, n_samples):
    """The event's sample can be the one that takes a run over its cap; the
    thinning then keeps it, whether the stored count is odd or even."""
    monkeypatch.setattr(integrate_module, "_MAX_SAMPLES", cap)
    traj = integrate(
        lambda t, y: (1.0, 0.0, 0.0), (0.0, 0.0, 0.0),
        [EventSpec(id="wall", guard=lambda p: 5.05 - p[0])],
    )
    assert traj.event.id == "wall"
    assert traj.final_eta == traj.event.eta == pytest.approx(5.05, abs=1e-12)
    assert np.array_equal(traj.final_point, traj.event.point)
    assert len(traj.eta) == n_samples


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=-9.0, max_value=0.99),
    st.sampled_from([0.1, 1.0, math.inf]),
)
@example(9.614216136087348, 0.0, 0.1)  # relaunch from Y = 2.8e-14: a tiny first-step guess
def test_falling_guard_fires_at_its_root_and_not_again(v, c, max_step):
    """Y falls at speed v from 1; the guard Y - c fires at (1 - c) / v, and
    a relaunch from the located point, where the guard is within _ARM_TOL
    of zero, fires nothing and runs to max_time."""
    rhs = lambda t, y: (0.0, -v, 0.0)
    ev = EventSpec(id="level", guard=lambda p: p[1] - c)
    controls = IntegrationControls(max_time=200.0, max_step=max_step)
    traj = integrate(rhs, (0.0, 1.0, 0.0), [ev], controls)
    hit = traj.event
    assert hit is not None and traj.termination == "event"
    assert hit.eta == pytest.approx((1.0 - c) / v, abs=1e-9)
    again = integrate(rhs, tuple(hit.point), [ev], controls)
    assert again.event is None and again.termination == "max_time"


@pytest.mark.parametrize(
    "w, max_step",
    [
        pytest.param(1e-2, math.inf, id="0.01"),
        pytest.param(1e-6, math.inf, id="1e-06"),
        pytest.param(1e-6, 0.1, id="1e-06-cap0.1"),
        pytest.param(1e-6, 0.05, id="1e-06-cap0.05"),
        pytest.param(1e-6, 0.01, id="1e-06-cap0.01"),
    ],
)
def test_long_step_sees_a_dip_inside_one_step(w, max_step):
    """Under a constant field the guard (x - 5)^2 - w is positive at every
    step end, so only probing inside a step can see its dip.  Uncapped, the
    steps grow fivefold and one step spans eta 1.95..9.77; under a cap of
    0.1 or less the dip, 2e-3 wide, still falls between two step ends.
    Only step ends are stored, so the last sample before the event is a
    step end."""
    rhs = lambda t, y: (1.0, 0.0, 0.0)
    guard = lambda p: (p[0] - 5.0) ** 2 - w
    controls = IntegrationControls(max_time=50.0, max_step=max_step, sample_step=math.inf)
    free = integrate(rhs, (0.0, 0.0, 0.0), [], controls)
    assert all(guard(p) > 0.0 for p in free.points)
    traj = integrate(rhs, (0.0, 0.0, 0.0), [EventSpec(id="dip", guard=guard)], controls)
    hit = traj.event
    assert hit is not None and hit.id == "dip" and traj.termination == "event"
    assert hit.eta == pytest.approx(5.0 - math.sqrt(w), abs=1e-9)
    assert hit.point[0] == pytest.approx(5.0 - math.sqrt(w), abs=1e-9)
    assert np.array_equal(traj.eta[:-1], free.eta[: len(traj.eta) - 1])
    if max_step == math.inf:
        assert traj.eta[-2] < 2.0  # the dip lies inside the last step


def test_counters_repeat_and_count_every_rhs_call():
    """A chirp, cos(eta^2), makes uncapped steps overshoot and be rejected;
    two runs count alike and n_rhs equals the calls the field received."""
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return (math.cos(t * t), -y[1], 0.0)

    controls = IntegrationControls(max_time=10.0, max_step=math.inf)
    runs = []
    for _ in range(2):
        calls[0] = 0
        traj = integrate(rhs, (0.0, 1.0, 0.0), controls=controls)
        runs.append((traj.n_steps, traj.n_rejected, traj.n_rhs, calls[0]))
    assert runs[0] == runs[1]
    n_steps, n_rejected, n_rhs, n_calls = runs[0]
    assert n_rejected > 0
    assert n_rhs == n_calls == 6 * (n_steps + n_rejected) + 2


def test_tolerance_halving_moves_endpoint_less_than_10x_tol(params15_3):
    start = (0.005, 0.02, 0.002)
    base = IntegrationControls(rel_tol=1e-8, abs_tol=1e-10, max_time=50.0)
    tight = IntegrationControls(rel_tol=5e-9, abs_tol=5e-11, max_time=50.0)
    a = integrate(make_rhs(params15_3), start, controls=base)
    b = integrate(make_rhs(params15_3), start, controls=tight)
    scale = np.linalg.norm(a.final_point)
    assert np.linalg.norm(a.final_point - b.final_point) < 10.0 * (1e-8 * scale + 1e-10)


def test_z_monotone_on_physical_trajectories(p2_orbit_15_3):
    traj, _ = p2_orbit_15_3
    # Z is non-decreasing along physical trajectories (X >= 0, Z >= 0)
    assert np.max(-np.diff(traj.points[:, 2]), initial=0.0) <= 1e-9


def test_step_underflow_reports_partial_trajectory():
    # finite-time blow-up forces the step size below the floor
    rhs = lambda t, y: (y[0] * y[0], 0.0, 0.0)
    traj = integrate(rhs, (1.0, 0.0, 0.0), controls=IntegrationControls(max_time=5.0))
    assert traj.termination == "step_underflow"
    assert traj.final_eta < 5.0
    assert len(traj.eta) > 1


def test_max_steps_termination(params15_3):
    traj = integrate(
        make_rhs(params15_3),
        (0.005, 0.02, 0.002),
        controls=IntegrationControls(max_time=1e3, max_steps=5),
    )
    assert traj.termination == "max_steps"
    assert traj.n_steps == 5


def test_against_scipy_oracle(params15_3):
    start = np.array([0.02, 0.1, 0.001])
    traj = integrate(
        make_rhs(params15_3), tuple(start), controls=IntegrationControls(max_time=200.0)
    )
    sol = solve_ivp(
        lambda t, y: vector_field(y, params15_3),
        (0.0, 200.0),
        start,
        rtol=1e-10,
        atol=1e-12,
        max_step=0.1,
    )
    assert traj.final_point == pytest.approx(sol.y[:, -1], abs=1e-9)


def test_controls_validation():
    with pytest.raises(ValueError):
        IntegrationControls(rel_tol=1e-14)
    with pytest.raises(ValueError):
        IntegrationControls(max_step=-1.0)


def test_eta_strictly_increasing(p2_orbit_15_3):
    traj, _ = p2_orbit_15_3
    assert np.all(np.diff(traj.eta) > 0.0)


# guards that never fire, or fire at x = 5.05, under the unit field (1, 0, 0)
_ENDS = {"max_time": (lambda p: 1.0, 10.05), "event": (lambda p: 5.05 - p[0], 5.05)}


@pytest.mark.parametrize("end", sorted(_ENDS))
def test_long_steps_store_the_sample_grid(end):
    """Under a unit field the steps grow fivefold up to the cap of 5: the
    steps shorter than 0.1 store their ends, the longer ones the multiples
    of 0.1 they span, and the run's end (max_time or an event) comes last."""
    guard, last = _ENDS[end]
    rhs = lambda t, y: (1.0, 0.0, 0.0)
    controls = IntegrationControls(max_time=10.05)
    traj = integrate(rhs, (0.0, 0.0, 0.0), [EventSpec(id="end", guard=guard)], controls)
    assert traj.termination == end
    assert traj.final_eta == pytest.approx(last, abs=1e-12)
    grid = traj.eta[1:-1][traj.eta[1:-1] >= 0.1]
    assert np.array_equal(grid, np.arange(1, len(grid) + 1) * 0.1)
    assert grid[-1] == pytest.approx(math.floor(last * 10.0) / 10.0, abs=1e-12)
    assert len(traj.eta) - len(grid) == traj.eta.searchsorted(0.1) + 1  # short ends + last
    assert np.max(np.abs(traj.points[:, 0] - traj.eta)) < 1e-12
    assert np.max(np.diff(traj.eta)) <= 0.1 + 1e-12


@pytest.mark.parametrize("end", sorted(_ENDS))
def test_infinite_sample_step_stores_step_ends_only(end):
    guard, _ = _ENDS[end]
    rhs = lambda t, y: (1.0, 0.0, 0.0)
    controls = IntegrationControls(max_time=10.05, sample_step=math.inf)
    traj = integrate(rhs, (0.0, 0.0, 0.0), [EventSpec(id="end", guard=guard)], controls)
    assert traj.termination == end
    assert len(traj.eta) == traj.n_steps + 1


def test_infinite_max_time_ends_at_the_event():
    """max_time = inf takes steps: the run ends at its event, at the event's
    eta, and bit for bit as under a max_time far beyond it."""
    rhs = lambda t, y: (1.0, 0.0, 0.0)
    events = [EventSpec(id="x", guard=lambda p: 7.25 - p[0])]
    traj = integrate(rhs, (0.0, 0.0, 0.0), events, IntegrationControls(max_time=math.inf))
    assert traj.termination == "event" and traj.n_steps > 0
    assert traj.event.eta == pytest.approx(7.25, abs=1e-12)
    assert traj.final_eta == traj.event.eta
    finite = integrate(rhs, (0.0, 0.0, 0.0), events, IntegrationControls(max_time=1e4))
    assert np.array_equal(traj.eta, finite.eta)
    assert np.array_equal(traj.points, finite.points)
    assert (traj.n_steps, traj.n_rejected, traj.n_rhs) == (finite.n_steps, finite.n_rejected, finite.n_rhs)


def test_infinite_max_time_and_max_step_end_at_the_largest_eta():
    """With no cap on eta or on the step, the unit field's steps grow
    fivefold until eta reaches the largest float, where the run ends."""
    rhs = lambda t, y: (1.0, 0.0, 0.0)
    controls = IntegrationControls(max_time=math.inf, max_step=math.inf, sample_step=math.inf)
    traj = integrate(rhs, (0.0, 0.0, 0.0), controls=controls)
    assert traj.termination == "max_time"
    assert traj.final_eta == sys.float_info.max
    assert traj.n_steps < 500


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_error_rejects_with_factor_one_fifth(bad):
    """A step whose stages reach x > 4, where the field is not finite, is
    rejected and retried at 0.2 of its length.  Under the unit field the
    steps grow fivefold, 1e-4 to 1.5625; the 8th attempt, 7.8125 long, is
    rejected once, and its retry of 1.5625 stays below x = 4."""
    unit = lambda t, y: (1.0, 0.0, 0.0)
    field = lambda t, y: (1.0, 0.0, 0.0) if y[0] <= 4.0 else (bad, 0.0, 0.0)
    controls = IntegrationControls(max_time=10.0, max_step=math.inf, sample_step=math.inf, max_steps=8)
    clean = integrate(unit, (0.0, 0.0, 0.0), controls=controls)
    traj = integrate(field, (0.0, 0.0, 0.0), controls=controls)
    assert clean.n_rejected == 0 and traj.n_rejected == 1
    assert traj.n_steps == clean.n_steps == 8
    assert traj.n_rhs == 6 * (traj.n_steps + traj.n_rejected) + 2
    attempted, retried = np.diff(clean.eta)[-1], np.diff(traj.eta)[-1]
    assert np.array_equal(traj.eta[:-1], clean.eta[:-1])
    assert clean.eta[-1] > 4.0 > traj.eta[-1]
    assert retried == pytest.approx(0.2 * attempted, rel=1e-12)


@pytest.mark.parametrize("sample_step", [0.0, -0.1, math.nan, 1e-320])
def test_sample_step_must_be_positive(sample_step):
    """1e-320 is positive, but 1e4 / 1e-320 grid points overflow."""
    with pytest.raises(ValueError):
        IntegrationControls(sample_step=sample_step)


def test_sample_grid_must_be_finite_up_to_the_reachable_eta():
    # max_step bounds the reach when max_time does not
    IntegrationControls(max_time=math.inf)
    IntegrationControls(max_time=math.inf, max_step=math.inf, sample_step=math.inf)
    with pytest.raises(ValueError):
        IntegrationControls(max_time=math.inf, max_step=math.inf)
    with pytest.raises(ValueError):
        IntegrationControls(max_time=1.0, sample_step=5e-309)
    assert IntegrationControls(max_time=1.0, sample_step=1e-300).sample_step == 1e-300


def test_extension_table_is_scipys_rk45_p():
    """_PD holds the k1, k3..k7 rows of scipy's RK45.P past its first
    column; the k2 row and the rest of the first column are zero."""
    P = RK45.P
    assert P.shape == (7, 4)
    assert np.array_equal(P[:, 0], [1.0, 0, 0, 0, 0, 0, 0])
    assert np.array_equal(P[1], np.zeros(4))
    assert np.array_equal(np.array(_PD), P[[0, 2, 3, 4, 5, 6], 1:])


def test_extension_coefficients_are_k_transpose_p():
    """On random stages, _dense_coeffs is K^T P to 4 ulp of the terms' size."""
    P = RK45.P
    rng = np.random.default_rng(7)
    for _ in range(200):
        K = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-8, 9, size=(7, 1))
        q = np.array(_dense_coeffs(*(tuple(K[j]) for j in (0, 2, 3, 4, 5, 6)))).reshape(3, 4)
        ref = K.T @ P
        assert np.all(np.abs(q - ref) <= 4.0 * np.spacing(np.abs(K).T @ np.abs(P)))


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([(1.5, 3.0), (1.5, 3.4), (1.2, 2.5), (1.8, 3.0)]),
    st.sampled_from([5.0, math.inf]),
    st.sampled_from([0.05, 0.1, 0.37, math.inf]),
)
def test_sampling_does_not_change_the_steps(ms, max_step, sample_step):
    """Whatever the sample grid, a P2 run takes the same steps, rejections
    and field calls, and ends alike, to the bit, as the run that stores
    step ends only."""
    pr = validate_params(*ms)
    runs = [
        integrate(
            make_rhs(pr), launch_from_P2(pr), standard_fate_events(pr),
            IntegrationControls(max_step=max_step, sample_step=ds),
        )
        for ds in (sample_step, math.inf)
    ]
    sampled, ends = runs
    assert (sampled.n_steps, sampled.n_rejected, sampled.n_rhs, sampled.termination) == (
        ends.n_steps, ends.n_rejected, ends.n_rhs, ends.termination
    )
    assert (sampled.event is None) == (ends.event is None)
    if ends.event is not None:
        assert sampled.event.id == ends.event.id and sampled.event.eta == ends.event.eta
        assert np.array_equal(sampled.event.point, ends.event.point)
    assert np.array_equal(sampled.final_point, ends.final_point)


def test_a_thinned_long_step_run_keeps_a_subset_of_the_grid(monkeypatch):
    """Steps of up to 5 store the 0.1 grid; past _MAX_SAMPLES the kept
    interior samples are grid samples of the unthinned run, bit for bit,
    evenly spaced by 0.1 * 2^k."""
    rhs = lambda t, y: (1.0, 0.01 * (1.0 - y[1]), 0.0)
    controls = IntegrationControls(max_step=5.0, max_time=1e3)
    full = integrate(rhs, (0.0, 0.0, 0.0), [], controls)
    monkeypatch.setattr(integrate_module, "_MAX_SAMPLES", 100)
    thin = integrate(rhs, (0.0, 0.0, 0.0), [], controls)
    assert len(full.eta) > 10_000 and 50 < len(thin.eta) <= 101
    assert (thin.n_steps, thin.n_rhs) == (full.n_steps, full.n_rhs)
    assert thin.eta[0] == 0.0 and thin.eta[-1] == full.eta[-1] == 1e3
    assert np.array_equal(thin.points[[0, -1]], full.points[[0, -1]])
    inner = slice(1, -1)
    at = full.eta.searchsorted(thin.eta[inner])
    assert np.array_equal(full.eta[at], thin.eta[inner])
    assert np.array_equal(full.points[at], thin.points[inner])
    gaps = np.diff(thin.eta[inner])
    k = round(math.log2(gaps[0] / 0.1))
    assert k > 0 and np.allclose(gaps, 0.1 * 2**k)


_steps = st.lists(
    st.tuples(
        st.floats(min_value=1e-14, max_value=1e6),
        st.lists(st.floats(min_value=-1e100, max_value=1e100), min_size=15, max_size=15),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(_steps, st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 5)), min_size=1))
def test_deferred_samples_are_the_scalar_extension_bit_for_bit(steps, samples):
    """_dense_rows, which evaluates a run's stored grid points after its step
    loop, gives _dense's values to the bit at any theta, h, y and q."""
    rows = np.array([[0.0, h] + yq for h, yq in steps])
    theta = np.array([th for th, _ in samples])
    j = np.array([k % len(steps) for _, k in samples])
    out = _dense_rows(theta, j, rows)
    for i, (th, k) in enumerate(zip(theta.tolist(), j.tolist())):
        h, yq = steps[k]
        assert out[i].tolist() == list(_dense(th, h, yq[:3], yq[3:]))


def _rotation_run(controls, events=(), w=1.0):
    """X = eta, (Y, Z) = (cos w eta, sin w eta), sampled on a grid finer
    than the steps, so that the stored grid points are deferred ones."""
    rhs = lambda t, y: (1.0, -w * y[2], w * y[1])
    traj = integrate(rhs, (0.0, 1.0, 0.0), events, controls)
    assert not np.isnan(traj.points).any()  # no placeholder survives
    assert np.max(np.abs(traj.points[:, 0] - traj.eta)) < 1e-12
    assert np.max(np.abs(traj.points[:, 1] - np.cos(w * traj.eta))) < 1e-8
    assert np.max(np.abs(traj.points[:, 2] - np.sin(w * traj.eta))) < 1e-8
    return traj


def test_a_run_ending_inside_a_long_step_evaluates_every_deferred_sample():
    """Steps of about 0.03 against a grid of 0.005; the event's step stores
    its grid points up to the event."""
    traj = _rotation_run(
        IntegrationControls(sample_step=0.005, max_time=50.0),
        [EventSpec(id="wall", guard=lambda p: 5.0525 - p[0])],
    )
    assert traj.termination == "event" and traj.final_eta == pytest.approx(5.0525, abs=1e-12)
    assert traj.n_steps < len(traj.eta) / 4  # most samples came from long steps
    grid = traj.eta[1:-1][traj.eta[1:-1] >= 0.005]
    assert np.array_equal(grid, np.arange(1, len(grid) + 1) * 0.005)
    assert grid[-1] == pytest.approx(5.05, abs=1e-12)  # the event step's last grid point


@pytest.mark.parametrize("max_time", [10.5, 1e3])
def test_a_thinned_run_evaluates_every_deferred_sample(monkeypatch, max_time):
    """Steps of up to 5 against a grid of 0.1.  Thinning evaluates the
    deferred samples it keeps and forgets their steps, also in the middle
    of a step that goes on storing (max_time 10.5 ends the run soon after
    the first thinning); the samples kept are the unthinned run's, bit for
    bit."""
    controls = IntegrationControls(max_time=max_time)
    full = _rotation_run(controls, w=0.01)
    monkeypatch.setattr(integrate_module, "_MAX_SAMPLES", 100)
    thin = _rotation_run(controls, w=0.01)
    assert len(full.eta) > 100 and 50 < len(thin.eta) <= 101
    at = full.eta.searchsorted(thin.eta)
    assert np.array_equal(full.eta[at], thin.eta)
    assert np.array_equal(full.points[at], thin.points)


def test_a_pending_sample_at_a_step_start_is_that_steps_start_state():
    """A grid point that falls on a step's start is evaluated at theta = 0
    on that step, not at theta = 1 on the step before."""
    p = integrate_module._PENDING
    rows = [[0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0] + [0.0] * 8,
            [1.0, 1.0, 5.0, 6.0, 7.0] + [1.0] * 12]
    eta = np.array([0.0, 0.5, 1.0, 1.5])
    pts = [(9.0, 9.0, 9.0), p, p, (8.0, 8.0, 8.0)]
    idx, vals = integrate_module._pending_values(eta, pts, [v for r in rows for v in r])
    assert idx.tolist() == [1, 2]
    assert vals.tolist() == [[0.5, 0.0, 0.0], [5.0, 6.0, 7.0]]


def test_a_thinning_among_short_steps_evaluates_the_deferred_samples(monkeypatch):
    """Long steps defer their grid samples up to eta 50, then the field
    turns fast and short steps store their ends; the thinnings there also
    evaluate the deferred samples they keep and forget their steps, so a
    thinned run holds the steps of its stored samples only."""
    rhs = lambda t, y: (1.0, 0.0, 0.0) if t < 50.0 else (1.0, -20.0 * y[2], 20.0 * y[1])
    controls = IntegrationControls(max_time=60.0)
    full = integrate(rhs, (0.0, 1.0, 0.0), [], controls)
    monkeypatch.setattr(integrate_module, "_MAX_SAMPLES", 100)
    resolved = []
    resolve = integrate_module._resolve_pending

    def spy(etas, pts, steps):
        resolved.append((etas[-1], len(steps)))
        resolve(etas, pts, steps)

    monkeypatch.setattr(integrate_module, "_resolve_pending", spy)
    thin = integrate(rhs, (0.0, 1.0, 0.0), [], controls)
    assert any(eta > 50.0 and n > 0 for eta, n in resolved)
    assert not np.isnan(thin.points).any()
    at = full.eta.searchsorted(thin.eta)
    assert np.array_equal(full.eta[at], thin.eta)
    assert np.array_equal(full.points[at], thin.points)
