import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from ssblow.params import (
    DomainError,
    beta_over_alpha,
    derive_exponents,
    interface_xi_of_lambda,
    p2_coordinates,
    parabola_point,
    validate_params,
)
from ssblow.field import make_rhs, p2_unstable_eigenvector, p2_chart_coordinates, phase_from_chart
from ssblow.integrate import EventSpec, IntegrationControls, integrate
import ssblow.orbits
from ssblow.orbits import (
    FATE_ONLY_CONTROLS,
    BracketError,
    FateKind,
    InconclusiveError,
    OrbitFate,
    classify_fate,
    lambda_of_sigma,
    launch_from_P0,
    launch_from_P2,
    launch_from_Q1_chart,
    parabola_entry_distance,
    q1_to_p2_connection,
    run_p0_orbit,
    run_p2_orbit,
    run_q1_orbit,
    sigma_star,
    standard_fate_events,
)


def test_launch_from_p2_geometry(params15_3):
    start = launch_from_P2(params15_3, 1e-6)
    e3 = p2_unstable_eigenvector(params15_3)
    if e3[2] < 0:
        e3 = -e3
    assert start == pytest.approx(p2_coordinates(params15_3) + 1e-6 * e3, rel=1e-12)
    assert start[2] > 0.0
    with pytest.raises(DomainError):
        launch_from_P2(params15_3, 1e-3)
    with pytest.raises(DomainError):
        launch_from_P2(params15_3, 0.0)


def test_p2_orbit_enters_parabola_at_sigma_3(p2_orbit_15_3, params15_3):
    traj, fate = p2_orbit_15_3
    assert fate.kind == FateKind.ENTERS_PARABOLA
    assert -0.1 < fate.lambda_hat < 0.0
    assert fate.entry_point[0] < 1e-4
    assert parabola_entry_distance(fate.entry_point, params15_3) < 1e-4
    # parabola-entry consistency with the interface map
    exp = derive_exponents(params15_3)
    assert interface_xi_of_lambda(fate.lambda_hat, params15_3) <= exp.xi_max + 1e-6


def test_p2_orbit_escapes_at_sigma_34(p2_orbit_15_34, params15_34):
    traj, fate = p2_orbit_15_34
    assert fate.kind == FateKind.ENTERS_Q3
    z_max = derive_exponents(params15_34).z_max
    assert fate.entry_point[2] > z_max


def test_p2_orbit_near_vertex_at_sigma_3285(p2_orbit_15_3285):
    pr = validate_params(1.5, 3.285)
    _, fate = p2_orbit_15_3285
    assert fate.parabola_side
    assert abs(fate.lambda_hat + beta_over_alpha(pr) / 2.0) < 0.01


def test_p2_orbit_monotonicity(p2_orbit_15_3):
    """X never increases along the P2 orbit; Y never increases while Y >= 0."""
    traj, _ = p2_orbit_15_3
    x = traj.points[:, 0]
    y = traj.points[:, 1]
    assert np.max(np.diff(x)) <= 1e-9
    upper = y[:-1] >= 0.0
    assert np.max(np.diff(y)[upper], initial=-np.inf) <= 1e-9


def test_classification_requires_standard_events(params15_3):
    traj = integrate(
        make_rhs(params15_3),
        launch_from_P2(params15_3),
        [],
        IntegrationControls(max_time=1.0),
    )
    fate = classify_fate(traj, params15_3)
    assert fate.kind == FateKind.INCONCLUSIVE
    assert fate.diagnostics["termination"] == "max_time"


def test_lambda_of_sigma_values():
    lam = lambda_of_sigma(1.5, 3.0)
    assert -0.1 < lam < 0.0
    assert lambda_of_sigma(1.5, 3.4) is None


def test_lambda_trend_decreases_with_sigma():
    controls = {
        2.2: IntegrationControls(max_time=8e4, max_step=0.5),
        2.5: IntegrationControls(max_time=3e4, max_step=0.2),
        3.0: IntegrationControls(max_time=1e4, max_step=0.1),
    }
    lams = [lambda_of_sigma(1.5, s, controls[s]) for s in (2.2, 2.5, 3.0)]
    assert all(l < 0 for l in lams)
    assert lams[0] > lams[1] > lams[2]


def test_lambda_near_2_is_closer_to_zero():
    lam_near2 = lambda_of_sigma(
        1.5,
        2.05,
        IntegrationControls(max_time=2e6, max_step=5.0, rel_tol=1e-9),
    )
    lam_3 = lambda_of_sigma(1.5, 3.0)
    assert abs(lam_near2) < abs(lam_3)


@pytest.mark.parametrize(
    "sigma, default_run",
    [(3.0, "p2_orbit_15_3"), (3.285, "p2_orbit_15_3285"), (3.4, "p2_orbit_15_34")],
)
def test_uncapped_p2_orbit_keeps_the_capped_fate(sigma, default_run, request):
    """Error control alone (max_step = inf), and the default cap of 5, give
    the fate, lambda_hat and terminal event point of the run capped at
    max_step = 0.1."""
    traj_c, fate_c = run_p2_orbit(
        validate_params(1.5, sigma), IntegrationControls(max_step=0.1)
    )
    traj_u, fate_u = run_p2_orbit(
        validate_params(1.5, sigma), IntegrationControls(max_step=math.inf)
    )
    assert fate_c.decisive
    for traj, fate in ((traj_u, fate_u), request.getfixturevalue(default_run)):
        assert fate.kind == fate_c.kind
        if fate_c.lambda_hat is not None:
            assert fate.lambda_hat == pytest.approx(fate_c.lambda_hat, abs=1e-9)
        assert traj.event.id == traj_c.event.id
        assert np.max(np.abs(traj.event.point - traj_c.event.point)) < 1e-9
    assert traj_u.n_steps < traj_c.n_steps / 10


def test_fate_diagnostics_carry_repeatable_counters(params15_34):
    (traj, fate), (_, fate2) = [
        run_p2_orbit(params15_34, IntegrationControls(max_step=math.inf)) for _ in range(2)
    ]
    assert fate2.diagnostics == fate.diagnostics
    counters = ("n_steps", "n_rejected", "n_rhs")
    assert [fate.diagnostics[c] for c in counters] == [getattr(traj, c) for c in counters]
    assert traj.n_rhs == 6 * (traj.n_steps + traj.n_rejected) + 2


def test_sigma_star_single_bisection_step():
    res = sigma_star(1.5, (3.0, 3.4), tol=0.2)
    assert res.iterations == 1
    assert res.bracket in ((3.2, 3.4), (3.0, 3.2))
    # fate at 3.2 is parabola entry, so the bracket moves right
    assert res.bracket == (3.2, 3.4)
    assert res.fate_at_ends[0].parabola_side
    assert res.fate_at_ends[1].kind == FateKind.ENTERS_Q3


def test_sigma_star_stores_step_ends_only(monkeypatch):
    """Without controls the search runs under FATE_ONLY_CONTROLS: it steps
    by error control and stores no sample-grid points, so every run holds
    n_steps + 1 samples.  It runs one orbit per bracket end and per
    bisection step, and each evaluation carries that run's n_steps."""
    explicit = FATE_ONLY_CONTROLS
    assert explicit.max_step == explicit.sample_step == math.inf
    runs = []

    def counted(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        runs.append((len(traj.eta), traj.n_steps))
        return traj

    monkeypatch.setattr(ssblow.orbits, "integrate", counted)
    res = sigma_star(1.5, (3.0, 3.4), 1e-3)
    assert runs and all(n_samples == n_steps + 1 for n_samples, n_steps in runs)
    assert len(runs) == len(res.evaluations) == res.iterations + 2
    assert [e[1] for e in res.evaluations] == [n_steps for _, n_steps in runs]
    assert all(kind != FateKind.INCONCLUSIVE for _, _, kind, _ in res.evaluations)
    assert res.evaluations == sigma_star(1.5, (3.0, 3.4), 1e-3, explicit).evaluations


def test_sigma_star_stops_at_the_first_inconclusive_midpoint():
    """Under a budget of 1e4 the orbit at sigma 3.28828125, next to
    sigma*(1.5), is still on its slow vertex approach; the search ends
    there, naming the sigma and the termination, and tries no other point."""
    short = IntegrationControls(max_step=math.inf, sample_step=math.inf, max_time=1e4)
    with pytest.raises(InconclusiveError) as err:
        sigma_star(1.5, (3.0, 3.4), 1e-3, short)
    message = str(err.value)
    assert "termination max_time" in message
    sigma = float(re.search(r"sigma=(\S+) is inconclusive", message).group(1))
    assert sigma == pytest.approx(3.28828125, abs=1e-12)


def test_sigma_star_stops_where_no_float_lies_between_the_ends(monkeypatch):
    """A tol below the float spacing of sigma would bisect forever."""

    def step_at_3_3(params, controls=None):
        kind = FateKind.ENTERS_PARABOLA if params.sigma < 3.3 else FateKind.ENTERS_Q3
        return None, OrbitFate(kind, None, None, {"n_steps": 0, "termination": "event"})

    monkeypatch.setattr(ssblow.orbits, "run_p2_orbit", step_at_3_3)
    with pytest.raises(BracketError, match="float spacing"):
        sigma_star(1.5, (3.0, 3.4), tol=1e-17)


def test_sigma_star_resolves_every_midpoint_at_m_1_2():
    res = sigma_star(1.2, (3.0, 3.6), 1e-3)
    assert res.bracket[1] - res.bracket[0] <= 1e-3
    assert all(kind != FateKind.INCONCLUSIVE for _, _, kind, _ in res.evaluations)
    assert res.fate_at_ends[0].parabola_side
    assert res.fate_at_ends[1].kind == FateKind.ENTERS_Q3


@pytest.mark.parametrize("sigma, default_run", [(3.0, "p2_orbit_15_3"), (3.4, "p2_orbit_15_34")])
def test_default_p2_orbit_samples_the_extension(sigma, default_run, request):
    """The default controls step by error control under a cap of 5 and
    store the continuous extension on the multiples of 0.1: every sample
    matches an independent DOP853 run, and the run takes under a tenth of
    the steps of one capped at 0.1."""
    params = validate_params(1.5, sigma)
    traj, _ = request.getfixturevalue(default_run)
    sol = solve_ivp(
        make_rhs(params),
        (0.0, traj.final_eta),
        launch_from_P2(params, 1e-6),
        method="DOP853",
        rtol=1e-13,
        atol=1e-15,
        t_eval=traj.eta,
    )
    assert np.max(np.abs(sol.y.T - traj.points)) < 1e-9
    interior = traj.eta[1:-1][traj.eta[1:-1] >= 0.1]
    assert np.max(np.abs(interior / 0.1 - np.round(interior / 0.1))) < 1e-9
    assert np.max(np.diff(traj.eta)) <= 0.1 + 1e-9
    capped, _ = run_p2_orbit(params, IntegrationControls(max_step=0.1))
    assert traj.n_steps < capped.n_steps / 10


def test_sigma_star_bracket_errors():
    with pytest.raises(BracketError):
        sigma_star(1.5, (3.0, 3.1), tol=0.05)  # both enter the parabola
    with pytest.raises(BracketError):
        sigma_star(1.5, (3.35, 3.4), tol=0.05)  # both escape to Q3
    with pytest.raises(BracketError):
        sigma_star(1.5, (3.4, 3.0), tol=0.05)
    with pytest.raises(BracketError):
        sigma_star(1.5, (3.0, 3.4), tol=-1.0)


def test_launch_from_p0_examples(params15_3):
    start = launch_from_P0(0.1, 1e-6, params15_3)
    assert start == pytest.approx([9.5e-5, 4.7e-4, 1e-6], rel=1e-10)
    # z0 -> 0 collapses onto the origin
    tiny = launch_from_P0(0.1, 1e-12, params15_3)
    assert np.linalg.norm(tiny) < 1e-5
    with pytest.raises(DomainError):
        launch_from_P0(0.001, 1e-6, params15_3)  # below the physicality threshold
    with pytest.raises(DomainError):
        launch_from_P0(0.1, 1e-4, params15_3)  # z0 too large
    with pytest.raises(DomainError):
        launch_from_P0(-1.0, 1e-6, params15_3)


def test_p0_orbit_enters_parabola_near_origin(params15_3):
    traj, fate = run_p0_orbit(0.3, 1e-5, params15_3)
    assert fate.kind == FateKind.ENTERS_PARABOLA
    assert -0.05 < fate.lambda_hat < 0.0


def test_launch_from_q1_chart_directions(params15_3):
    assert launch_from_Q1_chart(1e-5, params15_3) == pytest.approx([1e-5, 1e-5, 0.0])
    with pytest.raises(DomainError):
        launch_from_Q1_chart(1.0, params15_3)


def test_q1_to_p2_chart_connection(params15_3):
    traj, hit = q1_to_p2_connection(params15_3)
    assert hit is not None and hit.id == "p2_arrival"
    target = p2_chart_coordinates(params15_3)
    rel = np.linalg.norm(hit.point[:2] - target[:2]) / np.linalg.norm(target[:2])
    assert rel <= 1e-3 + 1e-12
    # the connection stays inside the invariant plane z = 0
    assert np.all(traj.points[:, 2] == 0.0)


def test_q1_handoff_matches_phase_coordinates(params15_3):
    """Continue past the handoff in the chart and compare the mapped points
    against the phase-space leg within integration tolerance."""
    chart_traj, phase_traj, fate = run_q1_orbit(params15_3, delta=1e-6, z0=1e-15)
    hit = chart_traj.event
    assert hit is not None and hit.id == "handoff"
    mapped = phase_from_chart(hit.point)
    assert mapped == pytest.approx(phase_traj.points[0], rel=1e-12)
    assert mapped[0] == pytest.approx(1.0 / hit.point[0], rel=1e-12)
    # a Q1 orbit shadowing the in-plane connection enters the parabola here
    assert fate.kind in (FateKind.ENTERS_PARABOLA, FateKind.ENTERS_VERTEX)


def test_q1_in_plane_orbit_reports_inconclusive(params15_3):
    # z0 = 0 rides the invariant plane into P2: no profile fate exists there
    _, phase_traj, fate = run_q1_orbit(
        params15_3,
        delta=1e-6,
        z0=0.0,
        controls=IntegrationControls(max_time=4000.0),
    )
    assert fate.kind == FateKind.INCONCLUSIVE
    assert np.linalg.norm(phase_traj.final_point - p2_coordinates(params15_3)) < 1e-3


def test_fate_robustness_to_delta(params15_3):
    _, fate_a = run_p2_orbit(params15_3, delta=1e-6)
    _, fate_b = run_p2_orbit(params15_3, delta=5e-7)
    assert fate_a.kind == fate_b.kind
    assert fate_a.lambda_hat == pytest.approx(fate_b.lambda_hat, abs=1e-6)


@pytest.mark.parametrize("sigma", [3.285, 3.4])
def test_fate_stability_under_tighter_tolerances(sigma):
    """The reference-experiment fates survive a 10x tolerance tightening and
    a launch-offset halving (sigma=3 is covered by the acceptance suite)."""
    pr = validate_params(1.5, sigma)
    _, base = run_p2_orbit(pr)
    tight = IntegrationControls(rel_tol=1e-11, abs_tol=1e-13)
    _, refined = run_p2_orbit(pr, tight)
    _, halved = run_p2_orbit(pr, delta=5e-7)
    assert refined.parabola_side == base.parabola_side == halved.parabola_side
    if base.lambda_hat is not None:
        assert refined.lambda_hat == pytest.approx(base.lambda_hat, abs=1e-5)
        assert halved.lambda_hat == pytest.approx(base.lambda_hat, abs=1e-5)


def test_midplane_event_certificate_is_checked(params15_34):
    """A synthetic trajectory crossing the midplane below the vertex height
    must not be certified as a Q3 escape."""
    boa = beta_over_alpha(params15_34)
    rhs = lambda t, y: (0.0, -1.0, 0.0)
    events = [EventSpec(id="midplane", guard=lambda p: p[1] + boa / 2.0)]
    traj = integrate(rhs, (0.05, 0.0, 0.0), events, IntegrationControls(max_time=10.0))
    fate = classify_fate(traj, params15_34)
    assert fate.kind == FateKind.INCONCLUSIVE
    assert "below the vertex height" in fate.diagnostics["reason"]


def test_y_floor_fate(params15_3):
    start = (0.05, -0.5, 0.05)  # already below the midplane, diving
    traj = integrate(
        make_rhs(params15_3),
        start,
        standard_fate_events(params15_3),
        IntegrationControls(max_time=100.0),
    )
    fate = classify_fate(traj, params15_3)
    assert fate.kind == FateKind.ENTERS_Q3
    # the event is located in eta, where Y moves fast: 3.5e-8 off the floor
    assert fate.entry_point[1] == pytest.approx(ssblow.orbits._Y_FLOOR, rel=1e-10)
    assert fate.entry_point[0] >= ssblow.orbits._X_AWAY_TOL


def _tube_radius(point, params):
    """lambda, rho and the W-scale a of the tube at a state, as the entry
    guard computes them: rho is the smaller radius at lambda and at the
    lowest lambda the orbit can drift to."""
    boa = beta_over_alpha(params)
    m1, s2 = params.m - 1.0, params.sigma - 2.0
    lam = -2.0 * point[2] / (boa + math.sqrt(boa * boa - 4.0 * point[2]))
    rho, a, drift, *_ = ssblow.orbits._tube_at(lam, m1, s2, boa)
    return lam, min(rho, ssblow.orbits._tube_at(lam - drift, m1, s2, boa)[0]), a


def test_p2_entry_ends_on_the_tube_boundary(p2_orbit_15_3, params15_3):
    """The P2 orbit at (1.5, 3) ends where it enters the tube, on its
    boundary max(|X| / rho, |W| / (a rho)) = 1, long before it stagnates."""
    traj, fate = p2_orbit_15_3
    assert traj.event.id == "parabola_entry"
    assert fate.diagnostics["events"] == [("tube", traj.event.eta)]
    x, y, z = traj.event.point
    lam, rho, a = _tube_radius(traj.event.point, params15_3)
    assert max(abs(x) / rho, abs(y - lam) / (a * rho)) == pytest.approx(1.0, abs=1e-9)
    assert traj.event.eta < 1600.0


@pytest.mark.parametrize("face", ["X", "W"])
def test_state_just_outside_the_tube_is_not_certified(face, p2_orbit_15_3, params15_3):
    """On each face of the tube at the P2 entry's lambda, a state 1e-6 of the
    radius outside is not certified and one 1e-6 inside is."""
    traj, _ = p2_orbit_15_3
    z = traj.event.point[2]
    lam, rho, a = _tube_radius(traj.event.point, params15_3)
    guard = standard_fate_events(params15_3)[0].guard
    for scale, certified in ((1.0 + 1e-6, False), (1.0 - 1e-6, True)):
        x, w = (scale * rho, 0.0) if face == "X" else (0.5 * rho, scale * a * rho)
        p = (x, lam + w, z)
        assert parabola_entry_distance(p, params15_3) < 1e-4
        assert (guard(p) <= 0.0) == certified


def test_tube_event_eta_is_well_conditioned(params15_3):
    """The tube event's eta is as well-conditioned as the orbit's own timing.
    At rel_tol 1e-12 the P2 runs at (1.5, 3) capped at 0.1 and uncapped
    place it within 1e-6 of each other (the stagnation event they used to
    end at was 0.31 apart at the default tolerances).  At the default
    tolerances the two runs already cross X = 5e-3, far from the parabola,
    about 1.5e-6 apart in eta; the tube event adds less than 1e-6 to that."""
    x_level = [EventSpec(id="x_level", guard=lambda p: p[0] - 5e-3)]

    def etas(**tols):
        out = []
        for cap in (0.1, math.inf):
            controls = IntegrationControls(max_step=cap, **tols)
            traj, fate = run_p2_orbit(params15_3, controls)
            assert fate.diagnostics["events"][0][0] == "tube"
            crossing = integrate(make_rhs(params15_3), launch_from_P2(params15_3), x_level, controls)
            out.append((traj.event.eta, crossing.event.eta))
        return out

    (tube_c, x_c), (tube_u, x_u) = etas(rel_tol=1e-12, abs_tol=1e-14)
    assert abs(tube_c - tube_u) < 1e-6
    (tube_c, x_c), (tube_u, x_u) = etas()
    assert abs((tube_c - tube_u) - (x_c - x_u)) < 1e-6


def test_p0_launch_is_not_certified_at_eta_0(params15_3):
    """Next to the P0 end of the parabola the normal rates vanish with
    lambda, and so does the tube: a P0 launch within 1e-4 of the parabola
    is far outside it and fires nothing in its first 100 units of eta, and
    the K = 0.3 orbit is certified only at the end of its approach."""
    start = launch_from_P0(0.01, 1e-7, params15_3)
    assert parabola_entry_distance(start, params15_3) < 1e-4
    assert standard_fate_events(params15_3)[0].guard(start) > 1.0
    traj = integrate(
        make_rhs(params15_3), start, standard_fate_events(params15_3),
        IntegrationControls(max_time=100.0),
    )
    assert traj.event is None and traj.termination == "max_time"
    traj, fate = run_p0_orbit(0.3, 1e-5, params15_3)
    assert fate.diagnostics["events"] == [("tube", traj.event.eta)]
    assert traj.event.eta > 1000.0
    # launches so near P0 that lambda is 1e-30 or underflows the tube's
    # arithmetic are classified without an arithmetic error
    for z0 in (1e-30, 1e-300):
        _, fate = run_p0_orbit(1.0, z0, params15_3, IntegrationControls(max_time=10.0))
        assert fate.kind == FateKind.INCONCLUSIVE


@pytest.mark.parametrize("where", ["lower_half", "vertex_band"])
def test_entry_off_the_tube_ends_at_stagnation(where, params15_3):
    """On the lower half and within the vertex band the entry guard is still
    the stagnation test: a flow carrying the state straight onto such a
    parabola point ends at a stagnation event, with lambda_hat its Y."""
    boa = beta_over_alpha(params15_3)
    lam, kind = {
        "lower_half": (-0.75 * boa, FateKind.ENTERS_PARABOLA),
        "vertex_band": (-0.5 * boa + 0.5 * ssblow.orbits._VERTEX_TOL, FateKind.ENTERS_VERTEX),
    }[where]
    target = parabola_point(lam, params15_3)
    onto_target = lambda t, p: tuple(target[i] - p[i] for i in range(3))
    traj = integrate(
        onto_target, target + 1e-3, standard_fate_events(params15_3),
        IntegrationControls(max_time=100.0),
    )
    fate = classify_fate(traj, params15_3)
    assert fate.diagnostics["events"] == [("stagnation", traj.event.eta)]
    assert fate.kind == kind
    assert fate.lambda_hat == pytest.approx(lam, abs=1e-9)


def test_p2_vertex_entry_ends_at_stagnation():
    """Next to sigma*(1.5) the P2 orbit enters the vertex band, where the
    certificate is still stagnation."""
    _, fate = run_p2_orbit(validate_params(1.5, 3.2875), FATE_ONLY_CONTROLS)
    assert fate.kind == FateKind.ENTERS_VERTEX
    assert fate.diagnostics["events"][0][0] == "stagnation"


@settings(max_examples=10, deadline=None)
@given(m=st.floats(min_value=1.2, max_value=1.9), sigma=st.floats(min_value=2.5, max_value=3.2))
def test_tube_lambda_hat_matches_a_dop853_oracle(m, sigma):
    """Every upper-half P2 entry's lambda_hat is within 1e-9 of a DOP853 run
    at rtol 1e-13 carried on until the field norm is below 1e-12, whose
    limit is read off Z alone: in {X = 0}, Z is constant and the orbit
    enters the parabola point at the upper root of Z = -lam (lam + beta/alpha)."""
    pr = validate_params(m, sigma)
    traj, fate = run_p2_orbit(pr, FATE_ONLY_CONTROLS)
    if fate.diagnostics["events"] != [("tube", traj.event.eta)]:
        return
    rhs = make_rhs(pr)

    def slow(t, p):
        f = rhs(t, p)
        return math.sqrt(f[0] * f[0] + f[1] * f[1] + f[2] * f[2]) - 1e-12

    slow.terminal = True
    sol = solve_ivp(
        rhs, (0.0, 1e7), launch_from_P2(pr), method="DOP853", rtol=1e-13, atol=1e-15, events=slow
    )
    assert sol.status == 1
    boa = beta_over_alpha(pr)
    lam = 0.5 * (math.sqrt(boa * boa - 4.0 * sol.y[2, -1]) - boa)
    assert fate.lambda_hat == pytest.approx(lam, abs=1e-9)
