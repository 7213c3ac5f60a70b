import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from ssblow.params import (
    DomainError,
    beta_over_alpha,
    derive_exponents,
    interface_xi_of_lambda,
    p2_coordinates,
    parabola_z,
    validate_params,
)
from ssblow.field import (
    center_family_P0,
    make_rhs,
    p2_unstable_eigenvalue,
    p2_unstable_eigenvector,
    p2_chart_coordinates,
    phase_from_chart,
)
from ssblow.integrate import EventSpec, IntegrationControls, integrate
import ssblow.orbits
from ssblow.orbits import (
    FATE_ONLY_CONTROLS,
    BracketError,
    FateKind,
    InconclusiveError,
    OrbitFate,
    _sample_scale,
    classify_fate,
    launch_from_P0,
    launch_from_P2,
    launch_from_Q1_chart,
    q1_to_p2_connection,
    run_p0_orbit,
    run_p2_orbit,
    run_q1_orbit,
    sigma_star,
    standard_fate_events,
)


def _parabola_distance(pt, params):
    """Distance from pt to the parabola point whose lambda is its Y, clamped
    to the parabola: the distance the entry guard compares with 1e-4."""
    x, y, z = (float(v) for v in pt)
    lam = min(max(y, -beta_over_alpha(params)), 0.0)
    return math.hypot(x, y - lam, z - parabola_z(lam, params))


def test_launch_from_p2_geometry(params15_3):
    start = launch_from_P2(params15_3, 1e-6)
    e3 = np.asarray(p2_unstable_eigenvector(params15_3))
    if e3[2] < 0:
        e3 = -e3
    assert start == pytest.approx(p2_coordinates(params15_3) + 1e-6 * e3, rel=1e-12)
    assert start[2] > 0.0
    with pytest.raises(DomainError):
        launch_from_P2(params15_3, 1e-3)
    with pytest.raises(DomainError):
        launch_from_P2(params15_3, 0.0)


def _guard_free_radius(params):
    """rho of the series launch: the parabola is at least hypot(P2_x, P2_y)
    from P2, the entry guard fires 1e-4 from it, and the midplane is
    P2_y + beta/(2 alpha) from P2."""
    px, py, _ = p2_coordinates(params)
    return min(math.hypot(px, py) - 1e-4, py + 0.5 * beta_over_alpha(params))


@pytest.mark.parametrize("m, sigma", [(1.5, 3.0), (1.05, 2.1), (1.3, 3.256), (1.98, 50.0)])
def test_p2_manifold_series_solves_the_invariance_equation(m, sigma):
    """W(theta) = P2 + sum a_k theta^k solves f(W) = lambda_u theta W'
    along the whole launch segment, to 1e-12 theta, and its launch lies in
    half the guard-free ball."""
    pr = validate_params(m, sigma)
    lam = p2_unstable_eigenvalue(pr)
    s, coeffs = ssblow.orbits._p2_manifold_series(pr)
    theta, start = ssblow.orbits._p2_manifold_launch(pr)
    assert len(coeffs) == 24 and theta > 1e-6
    b = np.array(coeffs)
    k = np.arange(1, len(coeffs) + 1)[:, None]
    rhs = make_rhs(pr)
    p2 = np.asarray(p2_coordinates(pr))
    for t in (0.25 * theta, 0.5 * theta, theta):
        phi = t / s
        w = p2 + (b * phi**k).sum(axis=0)
        dw = (k * b * phi ** (k - 1)).sum(axis=0) / s
        assert np.linalg.norm(np.array(rhs(0.0, w)) - lam * t * dw) <= 1e-12 * t
    assert np.array_equal(start, launch_from_P2(pr, None))
    assert np.linalg.norm(start - p2) <= 0.5 * _guard_free_radius(pr)


@settings(max_examples=200, deadline=None)
@given(
    m=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
    sigma=st.floats(2.001, 50.0),
)
@example(m=math.nextafter(1.0, 2.0), sigma=2.001)
@example(m=1.001, sigma=2.001)
@example(m=math.nextafter(2.0, 1.0), sigma=2.001)
@example(m=math.nextafter(2.0, 1.0), sigma=50.0)
def test_series_launch_is_finite_and_guard_free(m, sigma):
    """Over the CLI's box the series launch raises no warning and is
    finite.  Either it lies in half the guard-free ball round P2, farther
    than 1e-6 from P2, with every standard guard armed, or it is the
    linear launch P2 + 1e-6 e3, bit for bit."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pr = validate_params(m, sigma)
        start = launch_from_P2(pr, None)
        linear = launch_from_P2(pr, 1e-6)
        assert np.all(np.isfinite(start))
        if not np.array_equal(start, linear):
            dist = float(np.linalg.norm(np.asarray(start) - p2_coordinates(pr)))
            assert 1e-6 < dist <= 0.5 * _guard_free_radius(pr)
            assert start[2] > 0.0
            assert all(ev.guard(start) > 1e-10 for ev in standard_fate_events(pr))


def test_series_launch_keeps_every_explicit_delta():
    """An explicit delta is the linear launch; where the guard-free ball is
    empty the series launch is the linear launch at 1e-6."""
    pr = validate_params(1.001, 2.001)
    assert _guard_free_radius(pr) < 0.0
    assert np.array_equal(launch_from_P2(pr, None), launch_from_P2(pr, 1e-6))
    pr = validate_params(1.5, 3.0)
    e3 = np.asarray(p2_unstable_eigenvector(pr))
    assert np.array_equal(launch_from_P2(pr, 5e-7), p2_coordinates(pr) + 5e-7 * e3)
    assert np.array_equal(run_p2_orbit(pr)[0].points[0], launch_from_P2(pr, 1e-6))


def test_series_launch_resolves_the_edge_point_1_1_2_1():
    """At (1.1, 2.1) the orbit leaves P2 at lambda_u = 5.8e-6, and from
    P2 + 1e-6 e3 the escape alone uses up the fate-only budget of 1e6.
    The series launch skips it and enters the parabola within that
    budget, with the fate, certificate and lambda_hat of the linear launch
    under a budget of 1e7."""
    pr = validate_params(1.1, 2.1)
    _, fate = run_p2_orbit(pr, FATE_ONLY_CONTROLS, delta=None)
    _, ref = run_p2_orbit(pr, replace(FATE_ONLY_CONTROLS, max_time=1e7))
    assert fate.kind == ref.kind == FateKind.ENTERS_PARABOLA
    assert [e[0] for e in fate.diagnostics["events"]] == [e[0] for e in ref.diagnostics["events"]]
    assert abs(fate.lambda_hat - ref.lambda_hat) <= 1e-11
    _, short = run_p2_orbit(pr, FATE_ONLY_CONTROLS)
    assert short.kind == FateKind.INCONCLUSIVE


@pytest.mark.parametrize("m, sigma", [(1.2, 3.0), (1.5, 2.5), (1.5, 3.2875), (1.5, 3.4), (1.8, 4.0)])
def test_series_launch_keeps_the_fate_of_the_linear_launch(m, sigma):
    """Fate-only runs from the series launch end at the same certificate,
    with lambda_hat within 1e-10 of the linear launch, in fewer steps."""
    pr = validate_params(m, sigma)
    _, fate = run_p2_orbit(pr, FATE_ONLY_CONTROLS, delta=None)
    _, ref = run_p2_orbit(pr, FATE_ONLY_CONTROLS)
    assert fate.kind == ref.kind
    assert fate.diagnostics["events"][0][0] == ref.diagnostics["events"][0][0]
    assert (fate.lambda_hat is None) == (ref.lambda_hat is None)
    if ref.lambda_hat is not None:
        assert abs(fate.lambda_hat - ref.lambda_hat) <= 1e-10
    assert fate.diagnostics["n_steps"] < ref.diagnostics["n_steps"]


def test_sigma_star_runs_from_the_series_launch(monkeypatch):
    """Every orbit of a search starts on the series launch."""
    deltas = []

    def recorded(params, controls=None, delta=1e-6):
        deltas.append(delta)
        return run_p2_orbit(params, controls, delta)

    monkeypatch.setattr(ssblow.orbits, "run_p2_orbit", recorded)
    res = sigma_star(1.5, (3.0, 3.4), 0.2)
    assert deltas == [None] * len(res.evaluations)


def test_p2_orbit_enters_parabola_at_sigma_3(p2_orbit_15_3, params15_3):
    traj, fate = p2_orbit_15_3
    assert fate.kind == FateKind.ENTERS_PARABOLA
    assert -0.1 < fate.lambda_hat < 0.0
    assert fate.entry_point[0] < 1e-4
    assert _parabola_distance(fate.entry_point, params15_3) < 1e-4
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


def _decisive_lambda_hat(m, sigma, controls=None):
    _, fate = run_p2_orbit(validate_params(m, sigma), controls)
    assert fate.decisive, fate.diagnostics
    return fate.lambda_hat


def test_lambda_of_sigma_values():
    lam = _decisive_lambda_hat(1.5, 3.0)
    assert -0.1 < lam < 0.0
    assert _decisive_lambda_hat(1.5, 3.4) is None


def test_lambda_trend_decreases_with_sigma():
    controls = {
        2.2: IntegrationControls(max_time=8e4, max_step=0.5),
        2.5: IntegrationControls(max_time=3e4, max_step=0.2),
        3.0: IntegrationControls(max_time=1e4, max_step=0.1),
    }
    lams = [_decisive_lambda_hat(1.5, s, controls[s]) for s in (2.2, 2.5, 3.0)]
    assert all(l < 0 for l in lams)
    assert lams[0] > lams[1] > lams[2]


def test_lambda_near_2_is_closer_to_zero():
    lam_near2 = _decisive_lambda_hat(
        1.5,
        2.05,
        IntegrationControls(max_time=2e6, max_step=5.0, rel_tol=1e-9),
    )
    lam_3 = _decisive_lambda_hat(1.5, 3.0)
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
        assert np.max(np.abs(np.asarray(traj.event.point) - traj_c.event.point)) < 1e-9
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
    n_steps + 1 samples.  Here no first pass is rerun, so it runs one
    orbit per bracket end and per step, and each evaluation carries that
    run's n_steps."""
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


def test_sigma_star_stops_at_the_first_inconclusive_midpoint(monkeypatch):
    """Under a budget of 250 steps the first passes at the bracket ends
    (167 and 97 steps) are decisive, but an orbit within about 3e-3 of
    sigma*(1.5) is not: it lingers at the vertex until X has decayed enough
    for the Z bracket to decide (324 steps).  At tol 1e-5 the search
    reaches one, a run strictly between the bracket ends (here a secant
    step, not the bisection midpoint); it ends there, naming that sigma and
    the termination, after decisive runs only, and tries no other point."""
    tried = []

    def recorded(params, controls=None, delta=1e-6):
        traj, fate = run_p2_orbit(params, controls, delta)
        tried.append((params.sigma, fate.decisive))
        return traj, fate

    monkeypatch.setattr(ssblow.orbits, "run_p2_orbit", recorded)
    short = replace(FATE_ONLY_CONTROLS, max_steps=250)
    with pytest.raises(InconclusiveError) as err:
        sigma_star(1.5, (3.0, 3.4), 1e-5, short)
    message = str(err.value)
    assert "termination max_steps" in message
    sigma = float(re.search(r"sigma=(\S+) is inconclusive", message).group(1))
    assert sigma == tried[-1][0]
    assert [decisive for _, decisive in tried] == [True] * (len(tried) - 1) + [False]


def _square_root_law(s_star, c, k, q3, tried=None):
    """A stand-in for run_p2_orbit: below s_star the orbit enters the
    parabola with (lambda_hat + beta/(2 alpha))^2 = c d + k d^2, d = s_star
    - sigma; from s_star on it escapes to Q3, at the midplane with Z - z_max
    = c3 e + k3 e^2, (c3, k3) = q3, e = sigma - s_star.  Every run carries
    its F in diagnostics["z_gap"], as classify_fate reports it.  tried
    collects each sigma."""

    def run(params, controls=None, delta=None):
        if tried is not None:
            tried.append(params.sigma)
        d = s_star - params.sigma
        half = 0.5 * beta_over_alpha(params)
        if d <= 0.0:
            c3, k3 = q3
            gap = -c3 * d + k3 * d * d
            point = np.array([0.0, -half, half * half + gap])
            diag = {"n_steps": 0, "termination": "event", "events": [("midplane", 0.0)], "z_gap": gap}
            return None, OrbitFate(FateKind.ENTERS_Q3, None, point, diag)
        gap = c * d + k * d * d
        diag = {"n_steps": 0, "termination": "event", "z_gap": -gap}
        return None, OrbitFate(FateKind.ENTERS_PARABOLA, math.sqrt(gap) - half, None, diag)

    return run


def _bisection(lo, hi, tol, s_star):
    """The sigma of every run a bisection makes on the law of
    _square_root_law(s_star, ...), and its final bracket."""
    sigmas = [lo, hi]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        sigmas.append(mid)
        lo, hi = (mid, hi) if mid < s_star else (lo, mid)
    return sigmas, (lo, hi)


@settings(max_examples=600, deadline=None)
@given(
    lo=st.floats(2.5, 4.0),
    log_width=st.floats(-3.0, 0.5),
    at=st.floats(1e-6, 1.0 - 1e-6),
    halvings=st.floats(7.0, 30.0),
    log_c=st.floats(-3.0, 0.0),
    bend=st.floats(-0.9, 1.0),
    bend_q3=st.floats(-0.9, 1.0),
)
def test_sigma_star_secant_never_takes_more_runs_than_bisection(
    lo, log_width, at, halvings, log_c, bend, bend_q3
):
    """On a square-root law whose curvature term stays within the linear
    term across the bracket (|k| width <= c), the search returns a bracket
    of at most tol that holds s*, in no more runs than bisection takes,
    with Z - z_max on both sides, of the same slope and a curvature of its
    own on each.  The bracket is at least 128 tol wide.  On narrower ones
    the search can cost a run more than bisection: at 20 tol, with s* at
    0.4 of the width and k = 0.7 c / width on the entry side, -0.85 c /
    width on the Q3 side, it takes 8 runs to bisection's 7."""
    width = 10.0**log_width
    hi = lo + width
    tol = width / 2.0**halvings
    s_star = lo + at * width
    c = 10.0**log_c
    tried = []
    run = _square_root_law(s_star, c, bend * c / width, (c, bend_q3 * c / width), tried)
    original = ssblow.orbits.run_p2_orbit
    ssblow.orbits.run_p2_orbit = run
    try:
        res = sigma_star(1.5, (lo, hi), tol)
    finally:
        ssblow.orbits.run_p2_orbit = original
    a, b = res.bracket
    assert b - a <= tol and a < s_star <= b
    # a sigma whose first pass is rerun appears twice; count each sigma once
    assert [e[0] for e in res.evaluations] == tried
    assert len(set(tried)) == res.iterations + 2
    assert len(set(tried)) <= len(_bisection(lo, hi, tol, s_star)[0])


def test_sigma_star_stops_where_no_float_lies_between_the_ends(monkeypatch):
    """A tol below the float spacing of sigma would search forever by
    secant proposals."""
    monkeypatch.setattr(
        ssblow.orbits, "run_p2_orbit", _square_root_law(3.3, 0.014641, 0.0, q3=(0.014641, 0.0))
    )
    with pytest.raises(BracketError, match="float spacing"):
        sigma_star(1.5, (3.0, 3.4), tol=1e-17)


def test_sigma_star_reruns_an_untrusted_first_pass(monkeypatch):
    """The first pass at a sigma runs at 100 times the caller's tolerances.
    Its fate is kept where |F| exceeds M = 1e3 (abs_tol + rel_tol z_max) at
    those tolerances; a first pass with |F| below M, or an inconclusive one,
    is rerun once under the caller's controls, and the rerun decides the
    fate and carries the only InconclusiveError.  Once a secant estimate
    exists, a step whose predicted |F| is below 10 M runs under the
    caller's controls alone.  The trace lists every run."""
    coarse = ssblow.integrate._coarse_controls(FATE_ONLY_CONTROLS)
    calls = []

    def law(gaps):
        """A stand-in for run_p2_orbit with F = gaps(sigma, first pass),
        None for an inconclusive run; n_steps is 1 for a first pass and 2
        for a run under the caller's controls."""

        def run(params, controls=None, delta=None):
            first = controls == coarse
            assert first or controls == FATE_ONLY_CONTROLS
            calls.append((params.sigma, first))
            gap = gaps(params.sigma, first)
            half = 0.5 * beta_over_alpha(params)
            diag = {"n_steps": 1 if first else 2, "termination": "event"}
            if gap is None:
                return None, OrbitFate(FateKind.INCONCLUSIVE, None, None, dict(diag, termination="max_time"))
            diag["z_gap"] = gap
            if gap < 0.0:
                return None, OrbitFate(FateKind.ENTERS_PARABOLA, math.sqrt(-gap) - half, None, diag)
            point = np.array([0.0, -half, half * half + gap])
            return None, OrbitFate(FateKind.ENTERS_Q3, None, point, dict(diag, events=[("midplane", 0.0)]))

        return run

    # |F| = 1e-2 at both ends, far above M (about 1.9e-7 here): kept
    monkeypatch.setattr(ssblow.orbits, "run_p2_orbit", law(lambda sig, first: 0.05 * (sig - 3.2)))
    res = sigma_star(1.5, (3.0, 3.4), 0.5)
    assert calls == [(3.0, True), (3.4, True)]
    assert [e[1] for e in res.evaluations] == [1, 1]

    # at 3.0 the first pass has |F| = 1e-9 < M, at 3.4 it is inconclusive
    def untrusted(sig, first):
        if sig == 3.0:
            return -1e-9 if first else -1e-2
        return None if first else 1e-2

    calls.clear()
    monkeypatch.setattr(ssblow.orbits, "run_p2_orbit", law(untrusted))
    res = sigma_star(1.5, (3.0, 3.4), 0.5)
    assert calls == [(3.0, True), (3.0, False), (3.4, True), (3.4, False)]
    assert [e[:3] for e in res.evaluations] == [
        (3.0, 1, FateKind.ENTERS_PARABOLA),
        (3.0, 2, FateKind.ENTERS_PARABOLA),
        (3.4, 1, FateKind.INCONCLUSIVE),
        (3.4, 2, FateKind.ENTERS_Q3),
    ]
    half = 0.5 * beta_over_alpha(validate_params(1.5, 3.0))
    assert res.fate_at_ends[0].lambda_hat == pytest.approx(0.1 - half)
    assert res.fate_at_ends[1].kind == FateKind.ENTERS_Q3

    # a rerun that is inconclusive too ends the search
    calls.clear()
    monkeypatch.setattr(ssblow.orbits, "run_p2_orbit", law(lambda sig, first: None if sig == 3.4 else -1e-2))
    with pytest.raises(InconclusiveError, match="sigma=3.3999999999999999 is inconclusive"):
        sigma_star(1.5, (3.0, 3.4), 0.5)
    assert calls == [(3.0, True), (3.4, True), (3.4, False)]

    # a linear F: the first secant estimate is exact, so every step lies
    # within tol of sigma*, where the predicted |F| is below 10 M
    calls.clear()
    monkeypatch.setattr(ssblow.orbits, "run_p2_orbit", law(lambda sig, first: 0.0146 * (sig - 3.2882880594)))
    res = sigma_star(1.5, (3.0, 3.4), 1e-6)
    assert res.bracket[0] < 3.2882880594 <= res.bracket[1]
    assert calls[:2] == [(3.0, True), (3.4, True)]
    assert len(calls) > 2 and all(not first for _, first in calls[2:])
    assert [(e[0], e[1] == 1) for e in res.evaluations] == calls


# sigma*(m) from an independent DOP853 oracle (solve_ivp, rtol 1e-13,
# atol 1e-16, from P2 + 1e-8 e3): F = Z - z_max where X first falls below
# 1e-15, on the entry runs 2e-7 and 4e-7 below sigma*, extrapolated along
# their secant to F = 0, and the pair moved to the new estimate until it
# stands still.  There Z lies within about 1e-16 of its limit.  The linear
# launch's offset from the unstable manifold falls like delta^2: from P2 +
# 1e-6 e3 every value is lower, by 2.7e-10 at m = 1.05, and from the series
# launch of launch_from_P2(params, None) every value is the same to 1e-12.
_SIGMA_STAR_ORACLE = {
    1.05: 3.213842294891,
    1.3: 3.256006395962,
    1.5: 3.288288058643,
    1.8: 3.334341537023,
    1.98: 3.360693127697,
}


@pytest.mark.parametrize("m", sorted(_SIGMA_STAR_ORACLE))
def test_first_pass_agrees_with_the_callers_controls(m):
    """sigma_star's first pass runs at rel_tol 1e-8 and abs_tol 1e-10, 100
    times those of FATE_ONLY_CONTROLS, and keeps its fate only where |F|
    exceeds M = 1e3 (abs_tol + rel_tol z_max) at those tolerances.  At
    1e-1, 1e-3 and 1e-4 on either side of sigma*, it gives the fate of a
    run under FATE_ONLY_CONTROLS, and its F within M / 100, in fewer
    steps."""
    coarse = ssblow.integrate._coarse_controls(FATE_ONLY_CONTROLS)
    assert (coarse.rel_tol, coarse.abs_tol) == (1e-8, 1e-10)
    assert replace(coarse, rel_tol=1e-10, abs_tol=1e-12) == FATE_ONLY_CONTROLS
    # caller's tolerances at least that loose leave no first pass
    assert ssblow.integrate._coarse_controls(coarse) is None
    s_star = _SIGMA_STAR_ORACLE[m]
    for d in (1e-1, 1e-3, 1e-4):
        for sigma in (s_star - d, s_star + d):
            params = validate_params(m, sigma)
            margin = 1e3 * (coarse.abs_tol + coarse.rel_tol * 0.25 * beta_over_alpha(params) ** 2)
            _, first = run_p2_orbit(params, coarse, delta=None)
            _, ref = run_p2_orbit(params, FATE_ONLY_CONTROLS, delta=None)
            assert first.kind == ref.kind, (sigma, first.kind, ref.kind)
            assert first.parabola_side == ref.parabola_side == (sigma < s_star)
            gaps = [f.diagnostics["z_gap"] for f in (first, ref)]
            assert abs(gaps[0] - gaps[1]) <= margin / 100.0, (sigma, gaps, margin)
            assert first.diagnostics["n_steps"] < ref.diagnostics["n_steps"]


@pytest.mark.parametrize("m", [1.3, 1.5, 1.8])
def test_z_minus_z_max_has_one_slope_through_sigma_star(m):
    """F, the limit of Z less z_max that classify_fate reports from the
    certificate of the fate, -(lambda_hat + beta/(2 alpha))^2 for an entry
    and the Z bracket's or the midplane event's for an escape to Q3, is one
    smooth function through sigma*: F / (sigma - sigma*) is the same on
    both sides within 1 %, at 1e-5 and at 1e-3 from sigma*."""
    s_star = _SIGMA_STAR_ORACLE[m]
    for d in (1e-5, 1e-3):
        slopes = []
        for sigma in (s_star - d, s_star + d):
            params = validate_params(m, sigma)
            _, fate = run_p2_orbit(params, FATE_ONLY_CONTROLS, delta=None)
            assert fate.parabola_side == (sigma < s_star)
            if not fate.parabola_side:
                assert fate.diagnostics["events"][0][0] in ("midplane", "z_limit")
            slopes.append(fate.diagnostics["z_gap"] / (sigma - s_star))
        assert slopes[0] > 0.0
        assert slopes[1] == pytest.approx(slopes[0], rel=1e-2)


@pytest.mark.parametrize("m", sorted(_SIGMA_STAR_ORACLE))
def test_every_decisive_p2_fate_carries_f(m):
    """The two fates, each with F: from both P2 launches every standard
    guard starts armed, above 1e-10, and every P2 run at 1e-3, 1e-6 and
    1e-9 on either side of sigma*, and at sigma = 2.5, 4 and 6, is decisive
    and carries z_gap, below 0 for a parabola entry and above 0 for an
    escape to Q3.  So the sigma* search reads F on every run it makes."""
    assert {v for k, v in vars(FateKind).items() if k.isupper()} == {
        "enters_parabola", "enters_q3", "inconclusive"
    }
    s_star = _SIGMA_STAR_ORACLE[m]
    sigmas = [s_star + d for e in (1e-3, 1e-6, 1e-9) for d in (-e, e)] + [2.5, 4.0, 6.0]
    for sigma in sigmas:
        pr = validate_params(m, sigma)
        events = standard_fate_events(pr)
        for delta in (None, 1e-6):
            assert all(ev.guard(launch_from_P2(pr, delta)) > 1e-10 for ev in events), (sigma, delta)
            _, fate = run_p2_orbit(pr, FATE_ONLY_CONTROLS, delta=delta)
            assert fate.decisive, (sigma, delta, fate.diagnostics)
            gap = fate.diagnostics["z_gap"]
            assert (gap < 0.0) if fate.parabola_side else (gap > 0.0), (sigma, delta, gap)


@pytest.mark.parametrize(
    "m, bracket, sigmas, steps", [(1.5, (3.0, 3.4), 5, 674), (1.3, (3.0, 4.0), 5, 743), (1.8, (3.0, 4.0), 5, 561)]
)
def test_sigma_star_workload_cost_does_not_grow(m, bracket, sigmas, steps):
    """The three searches of the benchmark's sigma-star workload at seed 0,
    at tol 1e-3, decide the fate at no more distinct sigmas, and take no
    more accepted steps, than ssblow 0.22.0 (5 / 5 / 5 sigmas and 674 / 743
    / 561 steps): a change that makes the search costlier must say so here."""
    res = sigma_star(m, bracket, 1e-3)
    assert len({e[0] for e in res.evaluations}) <= sigmas
    assert sum(e[1] for e in res.evaluations) <= steps


@pytest.mark.parametrize("m", [1.3, 1.5, 1.8])
def test_sigma_star_takes_at_most_half_the_runs_of_bisection(m):
    """Bisection on (3, 4) takes 22 runs at tol 1e-6 and 32 at tol 1e-9.
    The secant takes at most half as many, and no more than the one-sided
    secant of ssblow 0.19.0 took (9 / 10 / 10 and 12 / 13 / 13 at m = 1.3,
    1.5, 1.8).  Its bracket holds the oracle's sigma*, at tol 1e-9 at least
    1e-10 inside either end."""
    runs_at_0_19 = {1e-6: {1.3: 9, 1.5: 10, 1.8: 10}, 1e-9: {1.3: 12, 1.5: 13, 1.8: 13}}
    s_star = _SIGMA_STAR_ORACLE[m]
    for tol in (1e-6, 1e-9):
        res = sigma_star(m, (3.0, 4.0), tol)
        lo, hi = res.bracket
        assert hi - lo <= tol
        assert lo <= s_star <= hi
        assert len(res.evaluations) <= (2 + math.ceil(math.log2(1.0 / tol))) / 2
        assert len(res.evaluations) <= runs_at_0_19[tol][m]
    assert lo <= s_star - 1e-10 and s_star + 1e-10 <= hi


def test_sigma_star_brackets_the_oracle_at_m_1_05():
    """At m = 1.05, where F has a slope of only 1.4e-4 through sigma*, the
    tol-1e-9 bracket on (2.5, 6) holds the oracle's sigma* at least 1e-10
    inside either end (ssblow 0.21.0 put it 7e-8 too high)."""
    lo, hi = sigma_star(1.05, (2.5, 6.0), 1e-9).bracket
    assert hi - lo <= 1e-9
    assert lo <= _SIGMA_STAR_ORACLE[1.05] - 1e-10 and _SIGMA_STAR_ORACLE[1.05] + 1e-10 <= hi


def test_sigma_star_resolves_every_midpoint_at_m_1_2():
    res = sigma_star(1.2, (3.0, 3.6), 1e-3)
    assert res.bracket[1] - res.bracket[0] <= 1e-3
    assert all(kind != FateKind.INCONCLUSIVE for _, _, kind, _ in res.evaluations)
    assert res.fate_at_ends[0].parabola_side
    assert res.fate_at_ends[1].kind == FateKind.ENTERS_Q3


def _sample_units(traj, ends, ds):
    """The moves between consecutive samples of traj in units of ds, in the
    sample norm max_c |dy_c| / (1e-9 + |y_c|).  |y_c| is the largest among
    the two samples and the ends of the steps that hold them: the scale by
    which the rule measured those steps, so a component that crosses zero
    inside a step counts against that step's ends.  ends is the run that
    stores step ends only, whose steps are traj's to the bit."""
    scale = np.abs(ends.points)
    first = ends.eta.searchsorted(traj.eta[:-1], side="right") - 1
    last = np.minimum(ends.eta.searchsorted(traj.eta[1:]), len(ends.eta) - 1)
    units = []
    for j, (k0, k1) in enumerate(zip(first, last)):
        s = np.maximum(np.abs(traj.points[j : j + 2]).max(axis=0), scale[k0 : k1 + 1].max(axis=0))
        units.append(np.max(np.abs(traj.points[j + 1] - traj.points[j]) / (1e-9 + s)) / ds)
    return np.array(units)


@pytest.mark.parametrize("sigma, default_run", [(3.0, "p2_orbit_15_3"), (3.4, "p2_orbit_15_34")])
def test_default_p2_orbit_samples_the_extension(sigma, default_run, request):
    """The default controls step by error control under a cap of 5 and
    store the continuous extension where the state moves: every sample
    matches an independent DOP853 run, no two samples are more than 2
    units of sample_step apart in the sample norm, and the run takes under
    a tenth of the steps of one capped at 0.1."""
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
    ends, _ = run_p2_orbit(params, IntegrationControls(sample_step=math.inf))
    ds = _sample_scale(params) * IntegrationControls().sample_step
    assert np.max(_sample_units(traj, ends, ds)) <= 2.0
    assert len(traj.eta) > 5 * len(ends.eta)
    capped, _ = run_p2_orbit(params, IntegrationControls(max_step=0.1))
    assert traj.n_steps < capped.n_steps / 10


@settings(max_examples=4, deadline=None)
@given(st.floats(min_value=1.05, max_value=1.98), st.floats(min_value=2.5, max_value=4.0))
def test_samples_lie_on_the_orbit_where_it_moves(m, sigma):
    """On P2, P0 (K = 0.3) and Q1 runs under the default controls, every
    stored sample matches a DOP853 run from the same start to 1e-9 (times
    max(1, |y|)) beyond the error its step's ends already carry, which the
    sampling does not set; and no two consecutive samples are more than 2
    units of the run's scaled sample_step apart in the sample norm."""
    params = validate_params(m, sigma)
    ds = _sample_scale(params) * IntegrationControls().sample_step
    runs = {
        "p2": lambda c: run_p2_orbit(params, c)[0],
        "p0": lambda c: run_p0_orbit(0.3, 1e-5, params, c)[0],
        "q1": lambda c: run_q1_orbit(params, 1e-6, 1e-15, c)[1],
    }
    for name, run in runs.items():
        traj = run(IntegrationControls())
        if traj is None:  # a Q1 chart leg that ends at the Y floor has no phase leg
            continue
        ends = run(IntegrationControls(sample_step=math.inf))
        assert np.max(_sample_units(traj, ends, ds)) <= 2.0, name
        sol = solve_ivp(
            make_rhs(params), (0.0, traj.final_eta), traj.points[0],
            method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True,
        )
        err = np.max(np.abs(sol.sol(traj.eta).T - traj.points), axis=1)
        end_err = np.max(np.abs(sol.sol(ends.eta).T - ends.points), axis=1)
        k = np.minimum(ends.eta.searchsorted(traj.eta), len(ends.eta) - 1)
        carried = np.maximum(end_err[k], end_err[np.maximum(k - 1, 0)])
        slack = 1e-9 * np.maximum(1.0, np.max(np.abs(traj.points), axis=1))
        assert np.all(err <= carried + slack), (name, np.max(err - carried))


@pytest.mark.parametrize("m, scale", [(1.001, 0.1), (1.05, 0.1), (1.2, 0.4), (1.5, 1.0), (1.98, 1.0)])
@pytest.mark.parametrize("sigma", [2.003, 3.0, 10.0])
def test_orbit_sample_scale_follows_m_down_to_its_floor(m, scale, sigma):
    """Orbit runs scale the sample step by min(1, max(0.1, 2 (m - 1))),
    whatever sigma."""
    assert _sample_scale(validate_params(m, sigma)) == pytest.approx(scale, rel=1e-12)


def test_sigma_star_bracket_errors():
    with pytest.raises(BracketError):
        sigma_star(1.5, (3.0, 3.1), tol=0.05)  # both enter the parabola
    with pytest.raises(BracketError):
        sigma_star(1.5, (3.35, 3.4), tol=0.05)  # both escape to Q3
    with pytest.raises(BracketError):
        sigma_star(1.5, (3.4, 3.0), tol=0.05)
    with pytest.raises(BracketError):
        sigma_star(1.5, (3.0, 3.4), tol=-1.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_sigma_star_refuses_a_non_finite_tol(tol):
    with pytest.raises(BracketError, match="finite"):
        sigma_star(1.5, (3.0, 3.4), tol)


@pytest.mark.parametrize("K", [math.nan, math.inf])
def test_launch_from_p0_refuses_a_non_finite_K(K, params15_3):
    with pytest.raises(DomainError, match="finite"):
        launch_from_P0(K, 1e-6, params15_3)


@pytest.mark.parametrize("z0", [math.nan, -1.0, math.inf])
def test_q1_orbit_refuses_a_z0_that_is_not_finite_and_nonnegative(z0, params15_3):
    with pytest.raises(DomainError, match="z0"):
        run_q1_orbit(params15_3, z0=z0)


def test_launch_from_p0_examples(params15_3):
    """K = k^2 / m is the tail coefficient of the family point k = sqrt(m) K^(m-1)
    at m = 1.5: k = 0.1 here, and 0.001 below the physicality threshold."""
    start = launch_from_P0(0.01 / 1.5, 1e-6, params15_3)
    assert start == pytest.approx([9.5e-5, 4.7e-4, 1e-6], rel=1e-10)
    # z0 -> 0 collapses onto the origin
    tiny = launch_from_P0(0.01 / 1.5, 1e-12, params15_3)
    assert np.linalg.norm(tiny) < 1e-5
    with pytest.raises(DomainError, match="non-physical start") as refused:
        launch_from_P0(1e-6 / 1.5, 1e-6, params15_3)
    # the refusal is center_family_P0's own
    with pytest.raises(DomainError) as family:
        center_family_P0(1e-6 / 1.5, 1e-6, params15_3)
    assert str(refused.value) == str(family.value)
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
    rel = np.linalg.norm(np.asarray(hit.point[:2]) - target[:2]) / np.linalg.norm(target[:2])
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
    assert fate.kind == FateKind.ENTERS_PARABOLA


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
    z_max = 0.25 * beta_over_alpha(params15_3) ** 2
    assert fate.diagnostics["z_gap"] == float(fate.entry_point[2]) - z_max


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
        assert _parabola_distance(p, params15_3) < 1e-4
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
    the K = 0.06 orbit (family point 0.3) is certified only at the end of
    its approach."""
    start = launch_from_P0(1e-4 / 1.5, 1e-7, params15_3)
    assert _parabola_distance(start, params15_3) < 1e-4
    assert standard_fate_events(params15_3)[0].guard(start) > 1.0
    traj = integrate(
        make_rhs(params15_3), start, standard_fate_events(params15_3),
        IntegrationControls(max_time=100.0),
    )
    assert traj.event is None and traj.termination == "max_time"
    traj, fate = run_p0_orbit(0.09 / 1.5, 1e-5, params15_3)
    assert fate.diagnostics["events"] == [("tube", traj.event.eta)]
    assert traj.event.eta > 1000.0
    # launches so near P0 that lambda is 1e-30 or underflows the tube's
    # arithmetic are classified without an arithmetic error
    for z0 in (1e-30, 1e-300):
        _, fate = run_p0_orbit(1.0 / 1.5, z0, params15_3, IntegrationControls(max_time=10.0))
        assert fate.kind == FateKind.INCONCLUSIVE


def _dop853(params, start, *events):
    """A DOP853 run (rtol 1e-13, atol 1e-16) from start to the first of the
    terminal events (t, p) -> value."""
    for ev in events:
        ev.terminal = True
    return solve_ivp(
        make_rhs(params), (0.0, 1e8), start, method="DOP853", rtol=1e-13, atol=1e-16, events=events
    )


@pytest.mark.parametrize("below", [3e-10, 1e-10])
def test_escape_just_above_z_max_is_certified_as_q3(below):
    """3e-10 and 1e-10 below sigma = 3.288288059383831 at m = 1.5 the P2
    orbit's Z tends to 6e-12 and 9e-12 above z_max, so it crawls past the
    vertex and escapes.  The Z bracket certifies that escape in a few
    hundred steps, where a field norm below 1e-11 called both entries
    (ssblow 0.21.0), and its F is that of a DOP853 run from the same start,
    which crosses the midplane with Z above z_max."""
    pr = validate_params(1.5, 3.288288059383831 - below)
    _, fate = run_p2_orbit(pr, FATE_ONLY_CONTROLS, delta=None)
    assert fate.kind == FateKind.ENTERS_Q3
    assert fate.diagnostics["events"][0][0] == "z_limit"
    assert fate.diagnostics["n_steps"] < 1000
    half = 0.5 * beta_over_alpha(pr)

    def midplane(t, p):
        return p[1] + half

    midplane.direction = -1
    sol = _dop853(pr, launch_from_P2(pr, None), midplane)
    assert sol.status == 1 and sol.t_events[0].size == 1
    gap = sol.y[2, -1] - half * half
    assert gap > 5e-12
    assert fate.diagnostics["z_gap"] == pytest.approx(gap, rel=1e-2)


def test_p2_vertex_entry_brackets_the_limit_of_z():
    """Next to sigma*(1.5) the P2 orbit enters the vertex band, where the Z
    bracket decides: with W = Y + beta/(2 alpha), q = z_max - Z +
    X (1 + beta/(2 alpha)), W_c = max(W, sqrt(q)) and Y_c = W_c -
    beta/(2 alpha), Z_inf lies in [Z, Z exp((sigma - 2) X / ((m - 1)
    |Y_c|))].  At the event that bracket is within 1 % of its gap to z_max,
    lambda_hat lies in the bracket's image sqrt(z_max - Z_inf) - beta/(2
    alpha), and both the bracket and F hold the Z_inf - z_max of a DOP853
    run carried on until X is below 1e-15, F within 1 %."""
    pr = validate_params(1.5, 3.2875)
    _, fate = run_p2_orbit(pr, FATE_ONLY_CONTROLS, delta=None)
    assert fate.kind == FateKind.ENTERS_PARABOLA
    assert fate.diagnostics["events"][0][0] == "z_limit"
    half = 0.5 * beta_over_alpha(pr)
    z_max = half * half
    x, y, z = fate.entry_point
    w_c = max(y + half, math.sqrt(z_max - z + x * (1.0 + half)))
    z_hi = z * math.exp((pr.sigma - 2.0) * x / ((pr.m - 1.0) * (half - w_c)))
    assert 0.0 < z_hi - z <= 0.01 * (z_max - z_hi) * (1.0 + 1e-9)
    assert math.sqrt(z_max - z_hi) - half <= fate.lambda_hat <= math.sqrt(z_max - z) - half

    def entered(t, p):
        return p[0] - 1e-15

    sol = _dop853(pr, launch_from_P2(pr, None), entered)
    assert sol.status == 1
    assert z <= sol.y[2, -1] <= z_hi
    assert fate.diagnostics["z_gap"] == pytest.approx(sol.y[2, -1] - z_max, rel=1e-2)


def test_entry_guard_makes_no_field_call(monkeypatch):
    """Tube entries, Z bracket entries and escapes, and midplane escapes
    alike: a run evaluates its guards without a single field call."""
    in_guard = [False]
    counts = {"guard": 0, "field_in_guard": 0}
    make_rhs_, integrate_ = ssblow.orbits.make_rhs, ssblow.orbits.integrate

    def counted_make_rhs(params):
        rhs = make_rhs_(params)

        def counted(t, p):
            counts["field_in_guard"] += in_guard[0]
            return rhs(t, p)

        return counted

    def traced_guard(guard):
        def run(p):
            counts["guard"] += 1
            in_guard[0] = True
            try:
                return guard(p)
            finally:
                in_guard[0] = False

        return run

    def traced(field, start, events, controls):
        events = [replace(ev, guard=traced_guard(ev.guard)) for ev in events]
        return integrate_(field, start, events, controls)

    monkeypatch.setattr(ssblow.orbits, "make_rhs", counted_make_rhs)
    monkeypatch.setattr(ssblow.orbits, "integrate", traced)
    certificates = set()
    for sigma in (3.0, 3.2875, 3.288288059383831 - 1e-10, 3.4):
        _, fate = run_p2_orbit(validate_params(1.5, sigma), FATE_ONLY_CONTROLS, delta=None)
        certificates.add(fate.diagnostics["events"][0][0])
    assert certificates == {"tube", "z_limit", "midplane"}
    assert counts["guard"] > 1000
    assert counts["field_in_guard"] == 0


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
