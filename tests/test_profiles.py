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
from ssblow.integrate import IntegrationControls, Trajectory
from ssblow.orbits import run_p2_orbit
from ssblow.profiles import (
    InconclusiveProfile,
    ProfileBracketError,
    find_good_profile_P1,
    integrate_ssode,
    interface_slopes,
    p0_behavior_exponent,
    p2_behavior_prefactor,
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
    assert frame.n_dropped == 0
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
    assert len(frame) == 2
    assert frame.n_dropped == 2


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


def test_p2_behavior_prefactor_value(params15_3):
    assert p2_behavior_prefactor(params15_3) == pytest.approx(1.0 / 225.0, rel=1e-13)


def test_p0_behavior_exponent_value(params15_3):
    assert p0_behavior_exponent(params15_3) == pytest.approx(5.0, rel=1e-14)


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
    InconclusiveProfile, and never in another exception; an interface lies
    within xi_max with its slope at a root of the quadratic.  K stays at or
    above the CLI default 0.05: near the origin the p0 start is stiff, with
    a step count growing like 1/(K^(m-1) xi_start), and far smaller K takes
    millions of steps."""
    pr = validate_params(m, sigma)
    try:
        res = integrate_ssode(origin, pr, a=a, K=K)
    except (DomainError, InconclusiveProfile):
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
    with pytest.raises(ProfileBracketError):
        find_good_profile_P1(params15_3, (1e-14, 1e-13), tol=1e-15)


def test_find_good_profile_P1_stable_under_tighter_tolerances(params15_3):
    tol = 1e-12
    a1, _ = find_good_profile_P1(params15_3, (1e-12, 1e-11), tol=tol)
    tight = IntegrationControls(rel_tol=1e-11, abs_tol=1e-13)
    a2, _ = find_good_profile_P1(params15_3, (1e-12, 1e-11), tol=tol, controls=tight)
    assert abs(a1 - a2) <= 10.0 * tol


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
    q = p0_behavior_exponent(params15_3)
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
