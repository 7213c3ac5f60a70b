import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssblow.params import (
    DomainError,
    beta_over_alpha,
    derive_exponents,
    interface_xi_of_lambda,
    parabola_z,
    validate_params,
)
from ssblow.integrate import IntegrationControls, Trajectory, integrate
from ssblow.orbits import BracketError, FateKind, InconclusiveError, run_p0_orbit, run_p2_orbit
import ssblow.profiles
from ssblow.profiles import (
    SsodeResult,
    find_good_profile_P1,
    integrate_ssode,
    interface_slopes,
    reconstruct_profile,
    ssode_residual,
)


def _phase_coords(frame, params):
    exp = derive_exponents(params)
    m = params.m
    x = m / exp.alpha * frame.xi**-2 * frame.f ** (m - 1.0)
    y = m / exp.alpha / frame.xi * frame.f ** (m - 2.0) * frame.df
    z = m / exp.alpha**2 * frame.xi ** (params.sigma - 2.0)
    return x, y, z


def test_reconstruct_round_trip(p2_orbit_15_3, params15_3):
    traj, _ = p2_orbit_15_3
    frame = reconstruct_profile(traj, params15_3)
    assert len(frame) == len(traj.points)
    assert np.all(np.diff(frame.xi) > 0.0)
    x, y, z = _phase_coords(frame, params15_3)
    keep = traj.points[:, 2] > 0
    pts = traj.points[keep]
    # strictly-increasing-z filter may drop trailing stagnant samples
    pts = pts[: len(frame)]
    assert np.max(np.abs(x - pts[:, 0]) / np.maximum(np.abs(pts[:, 0]), 1e-30)) < 1e-10
    assert np.max(np.abs(y - pts[:, 1]) / np.maximum(np.abs(pts[:, 1]), 1e-30)) < 1e-10
    assert np.max(np.abs(z - pts[:, 2]) / np.maximum(np.abs(pts[:, 2]), 1e-30)) < 1e-10


def test_reconstruct_z_max_maps_to_xi_max(params15_3):
    """The vertex, at height z_max, maps to the localization bound xi_max."""
    exp = derive_exponents(params15_3)
    vertex = -beta_over_alpha(params15_3) / 2.0
    assert parabola_z(vertex, params15_3) == pytest.approx(exp.z_max, rel=1e-14)
    assert interface_xi_of_lambda(vertex, params15_3) == pytest.approx(exp.xi_max, rel=1e-12)


def test_reconstruct_explicit_point_mapping(params15_3):
    traj = Trajectory(
        eta=np.array([0.0]),
        points=np.array([[0.01, 0.04, 1e-6]]),
        termination="max_time",
    )
    frame = reconstruct_profile(traj, params15_3)
    xi = frame.xi[0]
    assert xi == pytest.approx(100.0 * 1e-6 / 1.5, rel=1e-13)  # (alpha^2 z / m)^{1/(sigma-2)}
    assert frame.f[0] == pytest.approx((10.0 * xi**2 * 0.01 / 1.5) ** 2, rel=1e-12)
    assert frame.df[0] == pytest.approx(
        10.0 * xi * frame.f[0] ** 0.5 * 0.04 / 1.5, rel=1e-12
    )


def test_reconstruct_drops_nonphysical_samples(params15_3):
    eta = np.array([0.0, 1.0, 2.0, 3.0])
    pts = np.array(
        [
            [0.01, 0.0, 1e-6],
            [-1.0, 0.0, 2e-6],  # dropped: X <= 0
            [0.01, 0.0, 2e-6],
            [0.01, 0.0, 2e-6],  # dropped: Z not increasing
        ]
    )
    traj = Trajectory(eta=eta, points=pts, termination="max_time")
    frame = reconstruct_profile(traj, params15_3)
    # xi = (alpha^2 Z / m)^{1/(sigma-2)} = 100 Z / 1.5 at (1.5, 3)
    assert frame.xi == pytest.approx([100.0 * 1e-6 / 1.5, 100.0 * 2e-6 / 1.5], rel=1e-13)


def _rows_of_0_29_0(keep, key):
    """ssblow 0.29.0's row rule: the rows where keep holds and key strictly
    exceeds its value at the previous such row."""
    rows = np.flatnonzero(keep)
    return rows[np.concatenate(([True], np.diff(key[rows]) > 0.0))[: len(rows)]]


@pytest.mark.parametrize("m", [1.02, 1.1, 1.3, 1.5, 1.8])
@pytest.mark.parametrize("sigma", [2.5, 3.0, 3.4, 4.0])
def test_both_frame_routes_keep_the_rows_and_values_of_0_29_0(monkeypatch, m, sigma):
    """Each route built its own frame in ssblow 0.29.0, with the formulas
    inlined here.  The frame rebuilt from the P2 orbit keeps the same rows,
    with f and f' within 1e-13 relative: it now goes through the pressure,
    and 0.29.0 formed f from X and took the rows where Z increases.  The
    direct frame of integrate_ssode is bit-identical."""
    params = validate_params(m, sigma)
    alpha = derive_exponents(params).alpha

    traj, _ = run_p2_orbit(params)
    pts = traj.points
    xi = (alpha**2 * np.maximum(pts[:, 2], 0.0) / m) ** (1.0 / (sigma - 2.0))
    f = (alpha * xi**2 * np.maximum(pts[:, 0], 0.0) / m) ** (1.0 / (m - 1.0))
    rows = _rows_of_0_29_0(f > 0.0, pts[:, 2])
    xi, f = xi[rows], f[rows]
    df = alpha * xi * f ** (2.0 - m) * pts[rows, 1] / m
    frame = reconstruct_profile(traj, params)
    # at m = 1.02 and sigma below 4, f underflows to 0 at every sample of
    # the orbit, and both frames are empty
    assert np.array_equal(frame.xi, xi)
    assert np.all(np.abs(frame.f - f) <= 1e-13 * f)
    assert np.all(np.abs(frame.df - df) <= 1e-13 * np.abs(df))

    runs = []
    real = ssblow.profiles.integrate

    def kept(*args):
        runs.append(real(*args))
        return runs[-1]

    monkeypatch.setattr(ssblow.profiles, "integrate", kept)
    frame = integrate_ssode("p2", params).frame
    pts = runs[0].points
    f = ((m - 1.0) * np.maximum(pts[:, 1], 0.0) / m) ** (1.0 / (m - 1.0))
    rows = _rows_of_0_29_0(f > 0.0, pts[:, 0])
    f = f[rows]
    df = pts[rows, 2] * f ** (2.0 - m) / m
    assert len(rows) > 100
    for got, want in ((frame.xi, pts[rows, 0]), (frame.f, f), (frame.df, df)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_ssode_residual_small_on_phase_reconstruction(p2_orbit_15_3, params15_3):
    traj, _ = p2_orbit_15_3
    frame = reconstruct_profile(traj, params15_3)
    assert ssode_residual(frame, params15_3) < 1e-4


def test_ssode_residual_shrinks_with_density(p2_orbit_15_3, params15_3):
    traj, _ = p2_orbit_15_3
    frame = reconstruct_profile(traj, params15_3)
    fine = ssode_residual(frame, params15_3)
    coarse = ssode_residual(frame.decimated(2), params15_3)
    assert fine <= coarse / 2.0


def test_ssode_residual_input_validation(params15_3):
    frame = reconstruct_profile(
        Trajectory(
            eta=np.arange(3.0),
            points=np.array([[0.01, 0.0, 1e-6], [0.01, 0.0, 2e-6], [0.01, 0.0, 3e-6]]),
            termination="max_time",
        ),
        params15_3,
    )
    with pytest.raises(DomainError):
        ssode_residual(frame, params15_3)


def test_interface_slopes_examples(params15_3):
    rep = interface_slopes(0.5, params15_3)
    assert rep.discriminant == pytest.approx(0.25, rel=1e-13)
    assert rep.slope_minus == pytest.approx(-0.75, rel=1e-13)
    assert rep.slope_plus == pytest.approx(-0.25, rel=1e-13)

    exp = derive_exponents(params15_3)
    rep = interface_slopes(exp.xi_max, params15_3)
    assert rep.discriminant == pytest.approx(0.0, abs=1e-12)
    assert rep.slope_minus == pytest.approx(-exp.beta * exp.xi_max / 2.0, abs=1e-6)
    assert rep.slope_plus == pytest.approx(-exp.beta * exp.xi_max / 2.0, abs=1e-6)

    rep = interface_slopes(1.0, params15_3)
    assert rep.discriminant == pytest.approx(-2.0, rel=1e-13)
    assert rep.slope_minus is None and rep.slope_plus is None

    with pytest.raises(DomainError):
        interface_slopes(0.0, params15_3)


@settings(max_examples=100)
@given(st.floats(min_value=0.01, max_value=0.99))
def test_interface_slopes_satisfy_quadratic(t):
    pr = validate_params(1.5, 3.0)
    exp = derive_exponents(pr)
    xi0 = t * exp.xi_max
    rep = interface_slopes(xi0, pr)
    for root in (rep.slope_minus, rep.slope_plus):
        assert root < 0.0
        q = root**2 + exp.beta * xi0 * root + pr.m * xi0**pr.sigma
        assert abs(q) < 1e-12


def test_ssode_p2_origin_interface(params15_3):
    res = integrate_ssode("p2", params15_3)
    exp = derive_exponents(params15_3)
    assert res.fate == "interface"
    assert res.xi0 <= exp.xi_max + 1e-4
    assert res.report.matched_slope is not None
    # interface quadratic residual at the measured vanishing point
    q = res.g_slope**2 + exp.beta * res.xi0 * res.g_slope + params15_3.m * res.xi0**3
    assert abs(q) < 1e-3
    # leading behavior f ~ xi^4 / 225 near zero (next order is O(xi^{sigma-2}))
    head = res.frame.xi < 1e-3
    ratio = res.frame.f[head] / res.frame.xi[head] ** 4
    assert ratio == pytest.approx(1.0 / 225.0, rel=5e-3)


def test_ssode_p2_fate_stable_under_xi_start_halving(params15_3):
    a = integrate_ssode("p2", params15_3)
    b = integrate_ssode("p2", params15_3, xi_start=5e-5)
    assert a.fate == b.fate == "interface"
    assert a.xi0 == pytest.approx(b.xi0, abs=1e-6)


def test_ssode_p0_origin(params15_3):
    # the correction to the tail behavior decays only like xi^{(sigma-2)/2},
    # so the pure-power head needs a very small starting point
    res = integrate_ssode("p0", params15_3, K=0.05, xi_start=1e-6)
    assert res.fate == "interface"
    ratio = res.frame.f[:100] / res.frame.xi[:100] ** 5
    assert ratio == pytest.approx(0.05, rel=1e-2)
    # the deviation from the pure power shrinks toward the origin
    full = np.abs(res.frame.f / res.frame.xi**5 - 0.05)
    assert full[0] < full[len(full) // 3]
    with pytest.raises(DomainError):
        integrate_ssode("p0", params15_3)  # K missing


def test_ssode_p1_dichotomy(params15_3):
    exp = derive_exponents(params15_3)
    small = integrate_ssode("p1", params15_3, a=1e-13)
    assert small.fate == "interface"
    assert small.xi0 <= exp.xi_max + 1e-4
    mid = integrate_ssode("p1", params15_3, a=1e-8)
    assert mid.fate == "sign_change"
    # sign changes are not localized: this one vanishes beyond xi_max
    assert mid.xi0 > exp.xi_max
    assert mid.report.discriminant < 0.0
    big = integrate_ssode("p1", params15_3, a=5.0)
    assert big.fate == "positive"
    # at sigma 2.005 xi_max overflows to inf, and the run stops at xi = 10
    capped = integrate_ssode("p1", validate_params(1.5, 2.005), a=1.0)
    assert capped.fate == "positive"
    assert capped.frame.xi[-1] == pytest.approx(10.0, rel=1e-12)
    with pytest.raises(DomainError):
        integrate_ssode("p1", params15_3)  # a missing
    with pytest.raises(DomainError):
        integrate_ssode("nope", params15_3, a=1.0)


def test_pressure_variable_continuation_at_larger_m():
    """For m closer to 2, f^{m-1} is far from affine in f near the
    interface; the pressure g (Lipschitz up to the interface) still finds
    it, and the frame keeps xi increasing and f positive."""
    pr = validate_params(1.8, 3.0)
    exp = derive_exponents(pr)
    res = integrate_ssode("p2", pr)
    assert res.fate == "interface"
    assert res.xi0 <= exp.xi_max + 1e-4
    q = res.g_slope**2 + exp.beta * res.xi0 * res.g_slope + pr.m * res.xi0**pr.sigma
    assert abs(q) < 1e-3
    assert np.all(np.diff(res.frame.xi) > 0.0)
    assert np.all(res.frame.f > 0.0)


@pytest.mark.parametrize("m", [1.2, 1.5, 1.8])
def test_ssode_p2_interface_matches_phase_space(m):
    """The p2 profile vanishes where the P2 orbit's parabola point puts the
    interface, to 1e-6; at m = 1.2 a sign change was reported before, and at
    m = 1.5 an xi0 2.2e-4 short."""
    pr = validate_params(m, 3.0)
    _, fate = run_p2_orbit(pr, IntegrationControls(max_step=math.inf, max_time=3e4))
    res = integrate_ssode("p2", pr)
    assert res.fate == "interface"
    assert abs(res.xi0 - interface_xi_of_lambda(fate.lambda_hat, pr)) < 1e-6


@settings(max_examples=12, deadline=None)
@given(
    m=st.floats(min_value=1.1, max_value=1.9),
    sigma=st.floats(min_value=2.2, max_value=4.0),
    a=st.floats(min_value=1e-13, max_value=1.0),
    K=st.floats(min_value=0.05, max_value=3.0),
)
@example(m=1.8, sigma=2.5, a=1e-13, K=0.05)  # p0: trial stages step to xi < 0
@pytest.mark.parametrize("origin", ["p2", "p0", "p1"])
def test_ssode_outcome_is_a_fate_or_a_surfaced_failure(origin, m, sigma, a, K):
    """Over the (m, sigma) box each origin ends in a fate, a DomainError or
    InconclusiveError, and never in another exception; an interface lies
    within xi_max with its slope at a root of the quadratic.  K stays at or
    above the CLI default 0.05: near the origin the p0 start is stiff, with
    a step count growing like 1/(K^(m-1) xi_start), and far smaller K takes
    millions of steps."""
    pr = validate_params(m, sigma)
    try:
        res = integrate_ssode(origin, pr, a=a, K=K)
    except (DomainError, InconclusiveError):
        return
    assert res.fate in ("interface", "sign_change", "positive")
    assert (res.xi0 is None) == (res.fate == "positive")
    if res.fate == "interface":
        assert res.xi0 <= derive_exponents(pr).xi_max + 1e-4
        assert abs(res.g_slope - res.report.matched_slope) <= 1e-2


def test_find_good_profile_P1_boundary_interface(params15_3):
    exp = derive_exponents(params15_3)
    a_star, res = find_good_profile_P1(params15_3, (1e-13, 1e-10), tol=1e-13)
    assert 1e-13 < a_star < 1e-10
    assert res.fate == "interface"
    assert res.xi0 <= exp.xi_max + 1e-4
    # the boundary interface sits close to the localization bound
    assert res.xi0 > 0.9 * exp.xi_max


def test_find_good_profile_P1_reports_the_a_of_its_profile(params15_3):
    """a* is the interface end of the final bracket, and the a it reports
    runs to the same profile, at tol 1e-16 and at the default tol of the
    CLI."""
    a_star, res = find_good_profile_P1(params15_3, (1e-13, 1e-10), tol=1e-16)
    again = integrate_ssode("p1", params15_3, a=a_star)
    assert res.fate == again.fate == "interface"
    assert again.xi0 == res.xi0
    a_star, res = find_good_profile_P1(params15_3, (1e-13, 1e-10), tol=1e-3 * (1e-10 - 1e-13))
    assert a_star == 1.36826171875e-12
    assert integrate_ssode("p1", params15_3, a=a_star).xi0 == res.xi0


def test_find_good_profile_P1_midpoint_matches_an_end(params15_3):
    fates = {}

    def fate_of(a):
        if a not in fates:
            fates[a] = integrate_ssode("p1", params15_3, a=a).fate
        return fates[a]

    lo, hi = 1e-13, 1e-10
    f_lo, f_hi = fate_of(lo), fate_of(hi)
    for _ in range(10):
        mid = 0.5 * (lo + hi)
        f_mid = fate_of(mid)
        assert f_mid in (f_lo, f_hi)
        if f_mid == f_lo:
            lo = mid
        else:
            hi = mid


def test_find_good_profile_P1_same_fate_error(params15_3):
    """Ends on the same side of the sign change raise BracketError naming
    that side, even where their fates differ: an interface at 1e-13 and a
    positive fate at 1."""
    with pytest.raises(BracketError, match="no sign change at either end"):
        find_good_profile_P1(params15_3, (1e-14, 1e-13), tol=1e-15)
    assert integrate_ssode("p1", params15_3, a=1.0).fate == "positive"
    with pytest.raises(BracketError, match="no sign change at either end"):
        find_good_profile_P1(params15_3, (1e-13, 1.0), tol=1e-3)
    with pytest.raises(BracketError, match="a sign change at both ends"):
        find_good_profile_P1(params15_3, (1e-10, 2e-10), tol=1e-12)


def test_find_good_profile_P1_refuses_a_tol_below_the_float_spacing_of_a(monkeypatch, params15_3):
    """A tol below the float spacing of a would bisect forever; it is
    refused before any run.  At the spacing of the upper end every
    midpoint lies strictly between the ends, and the bisection ends.  The
    fake's results carry no report, so no coarse fate is kept and each a
    runs twice: the bisection's length is the number of distinct a."""
    calls = []

    def step_at_5e_11(origin, params, controls, a=None, K=None, xi_start=1e-4):
        calls.append(a)
        if len(calls) > 400:
            raise RuntimeError("the bisection does not end")
        fate = "sign_change" if a < 5e-11 else "positive"
        return SsodeResult(frame=None, fate=fate, xi0=None, g_slope=None, report=None, record={})

    monkeypatch.setattr(ssblow.profiles, "integrate_ssode", step_at_5e_11)
    with pytest.raises(BracketError, match="float spacing"):
        find_good_profile_P1(params15_3, (1e-13, 1e-10), tol=1e-40)
    assert calls == []
    a_star, _ = find_good_profile_P1(params15_3, (1e-13, 1e-10), tol=math.ulp(1e-10))
    assert a_star == pytest.approx(5e-11, rel=1e-15) and len(set(calls)) < 100


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_find_good_profile_P1_refuses_a_non_finite_tol(tol, params15_3):
    with pytest.raises(DomainError, match="finite"):
        find_good_profile_P1(params15_3, (1e-13, 1e-10), tol)


@pytest.mark.parametrize(
    "origin, start", [("p1", {"a": math.nan}), ("p1", {"a": math.inf}),
                      ("p0", {"K": math.nan}), ("p0", {"K": math.inf})]
)
def test_ssode_refuses_a_non_finite_start(origin, start, params15_3):
    with pytest.raises(DomainError, match="finite"):
        integrate_ssode(origin, params15_3, **start)


def test_find_good_profile_P1_stable_under_tighter_tolerances(params15_3):
    tol = 1e-12
    a1, _ = find_good_profile_P1(params15_3, (1e-12, 1e-11), tol=tol)
    tight = IntegrationControls(rel_tol=1e-11, abs_tol=1e-13)
    a2, _ = find_good_profile_P1(params15_3, (1e-12, 1e-11), tol=tol, controls=tight)
    assert abs(a1 - a2) <= 10.0 * tol


def _vanishing_run(params, fate, edge_gap=None):
    """A stand-in SsodeResult that vanishes at xi0 = 0.6 with a report from
    the classification itself.  fate "interface" matches the lower root to
    within 5e-3 and "sign_change" misses it by 0.1, each far from the slope
    edge at 1e-2; edge_gap puts g' that far inside the edge instead."""
    if fate == "positive":
        return SsodeResult(frame=None, fate=fate, xi0=None, g_slope=None, report=None, record={})
    root = interface_slopes(0.6, params).slope_minus
    offset = {"interface": 5e-3, "sign_change": 0.1}[fate]
    if edge_gap is not None:
        offset = 1e-2 - edge_gap if fate == "interface" else 1e-2 + edge_gap
    got, report = ssblow.profiles._classify_vanishing(0.6, root + offset, params)
    assert got == fate
    return SsodeResult(frame=None, fate=fate, xi0=0.6, g_slope=root + offset, report=report, record={})


def _shoot_with(monkeypatch, params, law, **kwargs):
    """find_good_profile_P1 on (1e-13, 1e-10) at tol 1e-12 with integrate_ssode
    replaced by law(a, rel_tol), where rel_tol is that of the run's controls
    (1e-10 for the default); it returns an SsodeResult or raises.  Returns
    the search's answer (or the exception it raised) and the (a, rel_tol)
    of every run."""
    calls = []

    def fake(origin, params, controls, a=None, K=None, xi_start=1e-4):
        rel = (controls or IntegrationControls()).rel_tol
        calls.append((a, rel))
        return law(a, rel)

    monkeypatch.setattr(ssblow.profiles, "integrate_ssode", fake)
    try:
        answer = find_good_profile_P1(params, (1e-13, 1e-10), tol=1e-12, **kwargs)
    except (BracketError, InconclusiveError) as exc:
        answer = exc
    return answer, calls


def _step_law(params, coarse_override=None):
    """Interface below a = 5e-11 and sign change above; coarse_override(a)
    may replace the result of a coarse run (rel_tol 1e-8) or raise."""

    def law(a, rel):
        if rel == 1e-8 and coarse_override is not None:
            replaced = coarse_override(a)
            if replaced is not None:
                return replaced
        return _vanishing_run(params, "interface" if a < 5e-11 else "sign_change")

    return law


def test_find_good_profile_P1_keeps_only_coarse_fates_clear_of_the_edges(monkeypatch, params15_3):
    """Every a is run under coarse controls first.  Clear fates are kept,
    so only the run at a_star is under the caller's controls; a coarse
    fate within 1e3 rel_tol of the slope edge is rerun there."""
    answer, calls = _shoot_with(monkeypatch, params15_3, _step_law(params15_3))
    a_star, res = answer
    assert res.fate == "interface" and a_star == pytest.approx(5e-11, abs=1e-12)
    assert [rel for _, rel in calls] == [1e-8] * (len(calls) - 1) + [1e-10]
    assert calls[-1][0] == a_star
    assert ssblow.profiles._fate_clearance(_vanishing_run(params15_3, "interface"), params15_3) > 1e-5

    # inside the margin at a_hi: 1e-7 from the slope edge
    inside = _vanishing_run(params15_3, "sign_change", edge_gap=1e-7)
    assert ssblow.profiles._fate_clearance(inside, params15_3) < 1e-5
    answer, calls = _shoot_with(
        monkeypatch, params15_3, _step_law(params15_3, lambda a: inside if a == 1e-10 else None)
    )
    assert answer[0] == a_star
    assert calls[:3] == [(1e-13, 1e-8), (1e-10, 1e-8), (1e-10, 1e-10)]
    assert sum(rel == 1e-10 for _, rel in calls) == 2


def test_find_good_profile_P1_reruns_a_coarse_positive(monkeypatch, params15_3):
    """A coarse "positive" is never kept: coarse positives at both ends
    would be the same fate, but the reruns give a bracket."""
    positive = _vanishing_run(params15_3, "positive")
    answer, calls = _shoot_with(
        monkeypatch, params15_3, _step_law(params15_3, lambda a: positive if a in (1e-13, 1e-10) else None)
    )
    assert not isinstance(answer, Exception) and answer[1].fate == "interface"
    assert calls[:4] == [(1e-13, 1e-8), (1e-13, 1e-10), (1e-10, 1e-8), (1e-10, 1e-10)]


def test_find_good_profile_P1_reruns_an_inconclusive_coarse_run(monkeypatch, params15_3):
    """An inconclusive coarse run is rerun under the caller's controls; only
    such a rerun ends the search with InconclusiveError."""

    def coarse_fails(a):
        raise InconclusiveError("coarse run failed")

    answer, calls = _shoot_with(monkeypatch, params15_3, _step_law(params15_3, coarse_fails))
    assert not isinstance(answer, Exception) and answer[1].fate == "interface"
    # every a runs coarse, then under the caller's controls, and the run at
    # a_star is reused: no a runs a third time
    ends = [a for a, _ in calls]
    assert len(ends) % 2 == 0
    assert all(ends[i] == ends[i + 1] for i in range(0, len(ends), 2))
    assert len(set(ends)) == len(ends) // 2

    # a_hi fails under the caller's controls: its kept coarse fate spares
    # that run, and where the coarse run fails too the search ends there
    base = _step_law(params15_3)

    def fails_at_a_hi(*rel_tols):
        def law(a, rel):
            if a == 1e-10 and rel in rel_tols:
                raise InconclusiveError("the run at a_hi failed")
            return base(a, rel)

        return law

    answer, calls = _shoot_with(monkeypatch, params15_3, fails_at_a_hi(1e-10))
    assert not isinstance(answer, Exception) and (1e-10, 1e-10) not in calls
    answer, calls = _shoot_with(monkeypatch, params15_3, fails_at_a_hi(1e-8, 1e-10))
    assert isinstance(answer, InconclusiveError)
    assert calls == [(1e-13, 1e-8), (1e-10, 1e-8), (1e-10, 1e-10)]


def test_find_good_profile_P1_bracket_error_comes_from_kept_fates(monkeypatch, params15_3):
    """Equal coarse fates inside the margin at both ends are rerun, and the
    reruns decide whether the bracket holds; equal kept coarse fates raise
    BracketError with no run under the caller's controls."""
    near_edge = _vanishing_run(params15_3, "sign_change", edge_gap=1e-7)
    answer, calls = _shoot_with(
        monkeypatch, params15_3, _step_law(params15_3, lambda a: near_edge if a in (1e-13, 1e-10) else None)
    )
    assert not isinstance(answer, Exception)
    assert calls[:4] == [(1e-13, 1e-8), (1e-13, 1e-10), (1e-10, 1e-8), (1e-10, 1e-10)]

    answer, calls = _shoot_with(
        monkeypatch, params15_3, lambda a, rel: _vanishing_run(params15_3, "sign_change")
    )
    assert isinstance(answer, BracketError) and "a sign change at both ends" in str(answer)
    assert calls == [(1e-13, 1e-8), (1e-10, 1e-8)]

    # coarse fates agree inside the margin, and so do the reruns
    answer, calls = _shoot_with(
        monkeypatch, params15_3,
        lambda a, rel: _vanishing_run(params15_3, "sign_change", edge_gap=1e-7 if rel == 1e-8 else None),
    )
    assert isinstance(answer, BracketError)
    assert calls == [(1e-13, 1e-8), (1e-13, 1e-10), (1e-10, 1e-8), (1e-10, 1e-10)]


def test_find_good_profile_P1_refuses_an_end_whose_run_under_controls_changes_sign(monkeypatch, params15_3):
    """a_star's fate kept from a coarse run is an interface, but its one run
    under the caller's controls changes sign: the search raises
    InconclusiveError rather than return a sign change as its answer."""

    def law(a, rel):
        fate = "interface" if rel == 1e-8 and a < 5e-11 else "sign_change"
        return _vanishing_run(params15_3, fate)

    answer, calls = _shoot_with(monkeypatch, params15_3, law)
    assert isinstance(answer, InconclusiveError) and "changes sign" in str(answer)
    a_star, rel = calls[-1]
    assert a_star < 5e-11 and rel == 1e-10
    assert (a_star, 1e-8) in calls
    assert [rel for _, rel in calls].count(1e-10) == 1


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-6])
def test_find_good_profile_P1_makes_no_coarse_pass_at_loose_controls(monkeypatch, params15_3, rel_tol):
    """Caller controls with rel_tol 1e-8 or looser make no coarse pass, even
    where _coarse_controls would loosen abs_tol, which a profile run does
    not use: every run gets the caller's controls, once per a."""
    controls = IntegrationControls(rel_tol=rel_tol)
    assert ssblow.profiles._coarse_controls(controls) is not None
    calls = []
    law = _step_law(params15_3)

    def fake(origin, params, run_controls, a=None, K=None, xi_start=1e-4):
        calls.append((a, run_controls))
        return law(a, run_controls.rel_tol)

    monkeypatch.setattr(ssblow.profiles, "integrate_ssode", fake)
    _, res = find_good_profile_P1(params15_3, (1e-13, 1e-10), tol=1e-12, controls=controls)
    assert res.fate == "interface"
    assert all(run_controls is controls for _, run_controls in calls)
    assert len({a for a, _ in calls}) == len(calls)


@pytest.mark.parametrize(
    "m, sigma, bracket, tol",
    [
        (1.5, 3.0, (1e-13, 1e-10), 1e-3 * (1e-10 - 1e-13)),
        (1.5, 3.0, (1e-13, 1e-10), 1e-13),
        (1.5, 3.0, (1e-13, 1e-10), 1e-16),
        (1.5, 3.0, (1e-12, 1e-11), 1e-12),
        (1.8, 3.2, (1e-12, 1e-10), 1e-3 * (1e-10 - 1e-12)),
    ],
    ids=["cli-default-tol", "tol-1e-13", "tol-1e-16-best", "narrow", "m1_8-sigma3_2"],
)
def test_find_good_profile_P1_answer_does_not_depend_on_the_coarse_pass(monkeypatch, m, sigma, bracket, tol):
    """The coarse pass changes what the search costs, not its answer: a*,
    the fate, xi0, g' and the run record equal those of the search with
    every a run under the caller's controls (_coarse_controls patched to
    None)."""
    params = validate_params(m, sigma)
    a_star, res = find_good_profile_P1(params, bracket, tol)
    monkeypatch.setattr(ssblow.profiles, "_coarse_controls", lambda controls: None)
    ref_a, ref = find_good_profile_P1(params, bracket, tol)
    assert (a_star, res.fate, res.xi0, res.g_slope, res.record) == (
        ref_a, ref.fate, ref.xi0, ref.g_slope, ref.record
    )
    assert res.fate == "interface"


@pytest.mark.parametrize(
    "sigma, a_star", [(3.0, 1.36826171875e-12), (3.005, 1.17314453125e-12)], ids=["3.0", "3.005"]
)
def test_find_good_profile_P1_shoot_cost_does_not_grow(monkeypatch, sigma, a_star):
    """The shoot of the README and of the benchmark's figures workload,
    (1.5, 3) on (1e-13, 1e-10) at tol 1e-3 of the width, makes at most 13
    runs, one of them under the caller's controls, and takes at most 6 300
    accepted steps (6 236 at ssblow 0.28.0, 13 250 at 0.27.0, which ran
    every a under the caller's controls): a change that makes the shoot
    costlier must say so here.  At sigma 3.005, inside the benchmark's
    jitter, ssblow 0.29.0 reran its last interface after a sign change at
    the final midpoint: 14 runs, 2 under the caller's controls, 7 300
    steps.  The answer is the interface end of the final bracket."""
    runs = []
    real = ssblow.profiles.integrate_ssode

    def counted(origin, params, controls, a=None, K=None, xi_start=1e-4):
        res = real(origin, params, controls, a=a, K=K, xi_start=xi_start)
        runs.append((controls, res.record["n_steps"]))
        return res

    monkeypatch.setattr(ssblow.profiles, "integrate_ssode", counted)
    found, res = find_good_profile_P1(validate_params(1.5, sigma), (1e-13, 1e-10), 1e-3 * (1e-10 - 1e-13))
    assert found == a_star and res.fate == "interface"
    assert len(runs) <= 13
    assert sum(controls is None for controls, _ in runs) == 1
    assert sum(steps for _, steps in runs) <= 6300


def test_near_interface_pressure_scaling(p2_orbit_15_3, params15_3):
    """f^{m-1} is affine in (xi0 - xi) over the last decade before vanishing."""
    traj, fate = p2_orbit_15_3
    frame = reconstruct_profile(traj, params15_3)
    xi0 = interface_xi_of_lambda(fate.lambda_hat, params15_3)
    d = xi0 - frame.xi
    sel = (d > 1e-6) & (d < 1e-2)
    u = frame.f[sel] ** (params15_3.m - 1.0)
    x = d[sel]
    coef = np.polyfit(x, u, 1)
    pred = np.polyval(coef, x)
    r2 = 1.0 - np.sum((u - pred) ** 2) / np.sum((u - np.mean(u)) ** 2)
    assert r2 > 0.999
    assert coef[0] > 0.0


def test_tail_blowup_behavior(params15_3):
    """A tail-type profile blows up only at space infinity: at fixed x the
    value u(x, t) = (T-t)^{-alpha} f(|x| (T-t)^{beta}) approaches
    K |x|^{(sigma+2)/(m-p)} as t -> T (sampled while the rescaled coordinate
    stays inside the computed profile; f is interpolated linearly)."""
    K = 0.05
    res = integrate_ssode("p0", params15_3, K=K)
    exp = derive_exponents(params15_3)
    q = 5.0  # (sigma+2)/(m-p) = (sigma+2)/(2(m-1)) at (1.5, 3)
    x, T = 1.0, 1.0
    target = K * x**q
    errs = []
    for t in (0.9, 0.97, 0.99):
        xi = abs(x) * (T - t) ** exp.beta
        assert res.frame.xi[0] < xi < res.frame.xi[-1]
        u = (T - t) ** (-exp.alpha) * float(np.interp(xi, res.frame.xi, res.frame.f))
        errs.append(abs(u - target) / target)
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 0.1


def test_ssode_result_carries_its_run_counters(monkeypatch):
    """integrate_ssode reports the run record of its one run."""
    runs = []

    def recorded(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(ssblow.profiles, "integrate", recorded)
    res = integrate_ssode("p2", validate_params(1.5, 3.0))
    (traj,) = runs
    assert res.record == traj.record
    assert res.record["termination"] == "event" and res.record["final_eta"] == traj.eta[-1]


@pytest.mark.parametrize(
    "m, sigma, K, z0",
    [(1.5, 3.0, 0.05, 1e-5), (1.5, 3.0, 0.3, 1e-5), (1.3, 3.2, 0.1, 1e-6)],
)
def test_p0_orbit_and_direct_p0_run_share_one_K(m, sigma, K, z0):
    """K is the tail coefficient for both engines: the P0 orbit launched at
    height z0 and the direct run started at the matching
    xi = (alpha^2 z0 / m)^(1/(sigma-2)) carry one profile, and their
    interfaces agree to 1e-7 (measured: 3e-9 to 1.3e-8)."""
    pr = validate_params(m, sigma)
    alpha = derive_exponents(pr).alpha
    _, fate = run_p0_orbit(K, z0, pr)
    res = integrate_ssode("p0", pr, K=K, xi_start=(alpha**2 * z0 / m) ** (1.0 / (sigma - 2.0)))
    assert fate.kind == FateKind.ENTERS_PARABOLA and res.fate == "interface"
    assert abs(interface_xi_of_lambda(fate.lambda_hat, pr) - res.xi0) < 1e-7


def test_p0_tail_with_K_0_05_at_sigma_6_has_no_interface():
    """At (1.5, 6) the tail profile with K = 0.05 changes sign: its P0 orbit
    escapes to Q3, and the direct run from the same height ends in a sign
    change."""
    pr = validate_params(1.5, 6.0)
    alpha = derive_exponents(pr).alpha
    _, fate = run_p0_orbit(0.05, 1e-5, pr)
    res = integrate_ssode("p0", pr, K=0.05, xi_start=(alpha**2 * 1e-5 / 1.5) ** 0.25)
    assert fate.kind == FateKind.ENTERS_Q3
    assert res.fate == "sign_change"
