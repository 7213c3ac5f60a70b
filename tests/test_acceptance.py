"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime.  Every tolerance is pinned here; nothing is
deferred to later calibration."""

import time

import numpy as np
import pytest

from ssblow.params import (
    beta_over_alpha,
    derive_exponents,
    interface_xi_of_lambda,
    lambda_range,
    p2_coordinates,
    parabola_point,
    validate_params,
)
from ssblow.field import (
    jacobian,
    p2_unstable_eigenvalue,
    p2_unstable_eigenvector,
    classify_critical_points,
)
from ssblow.integrate import IntegrationControls
from ssblow.orbits import (
    FateKind,
    q1_to_p2_connection,
    run_p0_orbit,
    run_p2_orbit,
    sigma_star,
)
from ssblow.profiles import (
    integrate_ssode,
    interface_slopes,
    reconstruct_profile,
    ssode_residual,
)
from ssblow.barriers import barrier_catalog, verify_barrier

GRID9 = [(m, s) for m in (1.2, 1.5, 1.8) for s in (2.5, 3.0, 4.0)]


class _Timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.time() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print("[acceptance] %s: %s (%.2f s, budget %g s)" % (self.label, status, dt, self.budget))
        if exc_type is None:
            assert dt < self.budget, "runtime %.2f s exceeded budget %g s" % (dt, self.budget)
        return False


def test_criterion_01_closed_form_suite():
    with _Timer("1 closed-form suite", 1.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            m = rng.uniform(1.01, 1.99)
            sigma = rng.uniform(2.1, 10.0)
            pr = validate_params(m, sigma)
            exp = derive_exponents(pr)
            # discriminant root identity
            lhs = exp.beta**2 * exp.xi_max**2
            rhs = 4.0 * m * exp.xi_max**sigma
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))
            # P2 coordinate ratio
            p2 = p2_coordinates(pr)
            assert abs(p2[0] - (m - 1.0) * p2[1] / 2.0) <= 1e-10 * abs(p2[0])
            # vertex maps to xi_max, z_max consistent
            lo, _ = lambda_range(pr)
            vertex = parabola_point(lo / 2.0, pr)
            assert abs(vertex[2] - exp.z_max) <= 1e-10 * exp.z_max
            xi0 = interface_xi_of_lambda(lo / 2.0, pr)
            assert abs(xi0 - exp.xi_max) <= 1e-10 * exp.xi_max
            assert exp.alpha > 0 and exp.beta > 0


def test_criterion_02_eigen_suite():
    with _Timer("2 eigen suite", 1.0):
        for m, sigma in GRID9:
            pr = validate_params(m, sigma)
            boa = beta_over_alpha(pr)
            lo, _ = lambda_range(pr)
            lams = np.linspace(lo, 0.0, 101)
            catalog = classify_critical_points(pr, lams)
            for cp in [c for c in catalog if c.name == "P0_lambda"]:
                lam = cp.lam
                expected = sorted([(m - 1.0) * lam, -2.0 * lam - boa, 0.0])
                got = sorted(cp.eigen.values.real)
                assert np.allclose(got, expected, atol=1e-9)
                J = jacobian(cp.location, pr)
                assert np.max(cp.eigen.residuals(J)) < 1e-9
            p2 = [c for c in catalog if c.name == "P2"][0]
            re = sorted(p2.eigen.values.real)
            assert re[0] < 0 and re[1] < 0
            lam3 = p2_unstable_eigenvalue(pr)
            exp = derive_exponents(pr)
            assert abs(lam3 - (sigma - 2.0) * (m - 1.0) / (2.0 * (m + 1.0) * exp.alpha)) < 1e-15
            assert abs(re[2] - lam3) < 1e-9
            # unstable eigenvector matches its closed form to 1e-8 in direction
            e3 = np.asarray(p2_unstable_eigenvector(pr))
            J = jacobian(p2_coordinates(pr), pr)
            num = p2.eigen.vectors[:, np.argmax(p2.eigen.values.real)].real
            cos = abs(np.dot(e3, num) / (np.linalg.norm(e3) * np.linalg.norm(num)))
            assert 1.0 - cos < 1e-8
            assert np.linalg.norm(J @ e3 - lam3 * e3) < 1e-9


def test_criterion_03_parabola_connection_sigma_3():
    with _Timer("3 connection to the parabola at sigma=3", 30.0):
        pr = validate_params(1.5, 3.0)
        exp = derive_exponents(pr)
        traj, fate = run_p2_orbit(pr)
        assert fate.kind == FateKind.ENTERS_PARABOLA
        assert -0.1 < fate.lambda_hat < 0.0
        frame = reconstruct_profile(traj, pr)
        assert frame.xi[-1] <= 2.0 / 3.0 + 1e-4
        assert interface_xi_of_lambda(fate.lambda_hat, pr) <= exp.xi_max + 1e-4
        # fate is unchanged under 10x tighter tolerances and delta halving
        tight = IntegrationControls(rel_tol=1e-11, abs_tol=1e-13)
        _, fate_tight = run_p2_orbit(pr, tight)
        assert fate_tight.kind == fate.kind
        assert fate_tight.lambda_hat == pytest.approx(fate.lambda_hat, abs=1e-6)
        _, fate_half = run_p2_orbit(pr, delta=5e-7)
        assert fate_half.kind == fate.kind
        assert fate_half.lambda_hat == pytest.approx(fate.lambda_hat, abs=1e-6)


def test_criterion_04_escape_to_q3_sigma_34():
    with _Timer("4 escape to Q3 at sigma=3.4", 30.0):
        pr = validate_params(1.5, 3.4)
        z_max = derive_exponents(pr).z_max
        boa = beta_over_alpha(pr)
        traj, fate = run_p2_orbit(pr)
        assert fate.kind == FateKind.ENTERS_Q3
        # crossing certificate: Z above the vertex height at and after the
        # midplane crossing
        hit = traj.event
        assert hit.id == "midplane"
        assert hit.point[2] > z_max
        crossed = traj.points[traj.eta >= hit.eta]
        assert np.all(crossed[:, 2] > z_max)


def test_criterion_05_critical_sigma_bisection():
    with _Timer("5 critical sigma in [3.235, 3.335]", 600.0):
        res = sigma_star(1.5, (3.0, 3.4), tol=1e-3)
        assert res.bracket[1] - res.bracket[0] <= 1e-3
        assert 3.235 <= res.sigma_star <= 3.335
        assert res.fate_at_ends[0].parabola_side
        assert res.fate_at_ends[1].kind == FateKind.ENTERS_Q3


def test_criterion_06_q1_to_p2_connection():
    with _Timer("6 chart connection from Q1 to P2", 10.0):
        pr = validate_params(1.5, 3.0)
        traj, hit = q1_to_p2_connection(pr)
        assert hit is not None and hit.id == "p2_arrival"
        target = np.array([100.0, 4.0])
        rel = np.linalg.norm(hit.point[:2] - target) / np.linalg.norm(target)
        assert rel <= 1e-3 + 1e-12
        assert np.all(traj.points[:, 2] == 0.0)


def test_criterion_07_barrier_suite():
    with _Timer("7 barrier suite on the 9-point grid", 10.0):
        for m, sigma in GRID9:
            pr = validate_params(m, sigma)
            for spec in barrier_catalog(pr):
                rep = verify_barrier(spec, pr, 10_000, seed=42)
                assert rep.passed, (m, sigma, spec.id, rep.worst_margin)


def _profile_cross_validation(pr):
    """The largest relative gap in f between the profile rebuilt from the
    sampled P2 orbit and the direct run, on a shared geometric grid, and
    the direct run."""
    traj, fate = run_p2_orbit(pr)
    frame = reconstruct_profile(traj, pr)
    res = integrate_ssode("p2", pr, controls=IntegrationControls(max_step=0.005))
    lo = max(frame.xi[0], res.frame.xi[0])
    hi = min(frame.xi[-1], res.frame.xi[-1])
    grid = np.geomspace(lo, hi, 4000)
    fa = np.interp(grid, frame.xi, frame.f)
    fb = np.interp(grid, res.frame.xi, res.frame.f)
    rel = np.abs(fa - fb) / np.maximum(np.maximum(np.abs(fa), np.abs(fb)), 1e-300)
    return float(np.max(rel)), res


def test_criterion_08_profile_cross_validation():
    with _Timer("8 profile cross-validation", 60.0):
        pr = validate_params(1.5, 3.0)
        rel, res = _profile_cross_validation(pr)
        assert rel < 1e-4
        # residual below 1e-4 and at least halved by doubling sample density
        res_fine = ssode_residual(res.frame, pr)
        res_coarse = ssode_residual(res.frame.decimated(2), pr)
        assert res_fine < 1e-4
        assert res_fine <= res_coarse / 2.0


def test_criterion_08_holds_its_sampling_at_small_m():
    """f = (alpha xi^2 X / m)^(1/(m-1)) amplifies a relative move in X by
    1/(m-1), 5 at m = 1.2.  The orbit runs scale their sample step to
    match, so the rebuilt profile stays within 2.5e-4 of the direct run
    there; an unscaled sample step gives 6.2e-4."""
    rel, _ = _profile_cross_validation(validate_params(1.2, 3.0))
    assert rel <= 2.5e-4


def test_criterion_09_interface_quadratic():
    with _Timer("9 interface quadratic residuals", 10.0):
        pr = validate_params(1.5, 3.0)
        exp = derive_exponents(pr)
        runs = [
            integrate_ssode("p2", pr),
            integrate_ssode("p0", pr, K=0.05),
            integrate_ssode("p1", pr, a=1e-13),
        ]
        for res in runs:
            assert res.fate == "interface"
            q = (
                res.g_slope**2
                + exp.beta * res.xi0 * res.g_slope
                + pr.m * res.xi0**pr.sigma
            )
            assert abs(q) < 1e-3
            assert res.xi0 <= exp.xi_max + 1e-4
        # closed-form double root at the localization bound
        rep = interface_slopes(exp.xi_max, pr)
        assert rep.slope_minus == pytest.approx(-exp.beta * exp.xi_max / 2.0, abs=1e-6)
        assert rep.slope_plus == pytest.approx(-exp.beta * exp.xi_max / 2.0, abs=1e-6)


def test_criterion_10_tail_profiles_for_all_sigma():
    with _Timer("10 tail-origin connections across sigma", 300.0):
        controls = IntegrationControls(max_time=3e4)
        for sigma in (2.5, 3.0, 4.0, 6.0):
            pr = validate_params(1.5, sigma)
            found = None
            # the tail coefficients of the family points sqrt(m) K^(m-1) =
            # 3, 1, 0.3, 0.1 and 0.05; descending: escapes resolve fast
            for K in (k * k / pr.m for k in (3.0, 1.0, 0.3, 0.1, 0.05)):
                try:
                    _, fate = run_p0_orbit(K, 1e-5, pr, controls)
                except Exception:
                    continue
                if fate.kind == FateKind.ENTERS_PARABOLA:
                    found = (K, fate.lambda_hat)
                    break
            assert found is not None, "no tail connection found at sigma=%g" % sigma
            assert found[1] < 0.0
