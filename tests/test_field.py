import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssblow.params import (
    DomainError,
    beta_over_alpha,
    derive_exponents,
    lambda_range,
    p2_coordinates,
    parabola_point,
    validate_params,
)
from ssblow.field import (
    center_family_P0,
    classify_critical_points,
    infinity_chart_jacobian,
    jacobian,
    make_chart_rhs,
    make_rhs,
    p2_chart_coordinates,
    p2_unstable_eigenvalue,
    p2_unstable_eigenvector,
    phase_from_chart,
)
from ssblow.orbits import launch_from_P0


def test_vector_field_hand_value(params15_3):
    v = make_rhs(params15_3)(0.0, (0.01, 0.0, 0.005))
    assert v == pytest.approx([-2e-4, 5e-3, 5e-5], rel=1e-12)


def test_vector_field_vanishes_at_p2(params15_3):
    v = make_rhs(params15_3)(0.0, p2_coordinates(params15_3))
    assert np.max(np.abs(v)) < 1e-12


@settings(max_examples=100)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_vector_field_vanishes_on_parabola(t):
    pr = validate_params(1.5, 3.0)
    lo, hi = lambda_range(pr)
    v = make_rhs(pr)(0.0, parabola_point(lo + t * (hi - lo), pr))
    assert np.max(np.abs(v)) < 1e-12


def test_jacobian_rows_at_parabola_point(params15_3):
    lam = -0.07
    pr = params15_3
    boa = beta_over_alpha(pr)
    pt = parabola_point(lam, pr)
    J = jacobian(pt, pr)
    expected = np.array(
        [
            [(pr.m - 1.0) * lam, 0.0, 0.0],
            [1.0 - lam, -2.0 * lam - boa, -1.0],
            [(pr.sigma - 2.0) * pt[2], 0.0, 0.0],
        ]
    )
    assert J == pytest.approx(expected, rel=1e-13)


def test_jacobian_matches_finite_differences(params15_3):
    rng = np.random.default_rng(11)
    rhs = make_rhs(params15_3)
    h = 1e-6
    for _ in range(100):
        pt = rng.uniform([0.0, -0.5, 0.0], [0.5, 0.5, 0.05])
        J = jacobian(pt, params15_3)
        fd = np.empty((3, 3))
        for j in range(3):
            dp = np.zeros(3)
            dp[j] = h
            fd[:, j] = np.subtract(rhs(0.0, pt + dp), rhs(0.0, pt - dp)) / (2.0 * h)
        assert np.max(np.abs(J - fd) / np.maximum(np.abs(J), 1.0)) < 1e-6


def test_origin_eigenvalues(params15_3):
    eig = np.linalg.eigvals(jacobian((0.0, 0.0, 0.0), params15_3))
    assert sorted(eig.real) == pytest.approx([-0.2, 0.0, 0.0], abs=1e-14)


def test_classify_parabola_point_dimensions(params15_3):
    pts = classify_critical_points(params15_3, lambda_grid=[-0.05])
    cp = pts[0]
    vals = sorted(cp.eigen.values.real)
    assert vals == pytest.approx([-0.1, -0.025, 0.0], abs=1e-12)
    assert (cp.eigen.stable_dim, cp.eigen.unstable_dim, cp.eigen.center_dim) == (2, 0, 1)


def test_classify_vertex_dimensions(params15_3):
    lo, _ = lambda_range(params15_3)
    cp = classify_critical_points(params15_3, lambda_grid=[lo / 2.0])[0]
    vals = sorted(cp.eigen.values.real)
    assert vals == pytest.approx([-0.05, 0.0, 0.0], abs=1e-12)
    assert (cp.eigen.stable_dim, cp.eigen.center_dim) == (1, 2)


def test_classify_lower_half_has_unstable_direction(params15_3):
    cp = classify_critical_points(params15_3, lambda_grid=[-0.15])[0]
    assert (cp.eigen.stable_dim, cp.eigen.unstable_dim, cp.eigen.center_dim) == (1, 1, 1)


def test_eigen_residuals_across_catalog(params15_3):
    for cp in classify_critical_points(params15_3):
        if cp.eigen is None:
            continue
        J = (
            jacobian(cp.location, params15_3)
            if cp.coords == "phase"
            else infinity_chart_jacobian(cp.location, params15_3)
        )
        assert np.max(cp.eigen.residuals(J)) < 1e-9


def test_catalog_covers_all_infinity_points(params15_3):
    names = {cp.name for cp in classify_critical_points(params15_3)}
    assert {"P0_lambda", "P2", "Q1", "Q2", "Q3", "Q4", "Q5"} <= names
    q4 = [cp for cp in classify_critical_points(params15_3) if cp.name == "Q4"][0]
    assert q4.coords == "sphere" and q4.eigen is None
    assert np.array_equal(q4.location, [0.0, 0.0, 1.0, 0.0])


def test_field_vanishes_at_every_cataloged_finite_point(params15_3):
    for cp in classify_critical_points(params15_3):
        if cp.coords != "phase":
            continue
        assert np.max(np.abs(make_rhs(params15_3)(0.0, cp.location))) < 1e-12


def test_p2_spectrum(params15_3):
    cp = [c for c in classify_critical_points(params15_3) if c.name == "P2"][0]
    re = sorted(cp.eigen.values.real)
    assert sum(1 for v in re if v < 0) == 2
    assert re[2] == pytest.approx(0.01, rel=1e-12)
    assert p2_unstable_eigenvalue(params15_3) == pytest.approx(0.01, rel=1e-13)


def test_p2_unstable_eigenvector_is_true_eigenvector(params15_3):
    lam3 = p2_unstable_eigenvalue(params15_3)
    e3 = np.asarray(p2_unstable_eigenvector(params15_3))
    J = jacobian(p2_coordinates(params15_3), params15_3)
    assert np.linalg.norm(J @ e3 - lam3 * e3) < 1e-12
    # components scale as (-2(m-1)(m+1)alpha, -2(m+1) sigma alpha, D)/D
    scaled = e3 / e3[2]
    assert scaled[:2] == pytest.approx([-25.0 / 21.0, -150.0 / 21.0], rel=1e-12)
    # the first two components have the ratio (m-1)/sigma
    assert scaled[0] / scaled[1] == pytest.approx((1.5 - 1.0) / 3.0, rel=1e-12)


# e3 at the benchmark and README points, as v / np.linalg.norm(v) gave it
_E3_BITS = {
    (1.5, 3.0): ("-0x1.4d862185a7287p-3", "-0x1.f44932487abccp-1", "0x1.1828fd7044bb9p-3"),
    (1.5, 3.285): ("-0x1.2fef8e55efa9dp-3", "-0x1.f336e925785e0p-1", "0x1.525b50cd88d21p-3"),
    (1.5, 3.4): ("-0x1.2553eb7fe84f0p-3", "-0x1.f2a8438ca4865p-1", "0x1.6829c0c03f256p-3"),
    (1.5, 2.6): ("-0x1.812aa2748feb3p-3", "-0x1.f4b76ccabb181p-1", "0x1.735e168923eafp-4"),
    (1.3, 3.0): ("-0x1.963280ff7b62ap-4", "-0x1.fbbf213f5a3b3p-1", "0x1.4f8de4ff9272ep-4"),
    (1.8, 3.0): ("-0x1.01a3566e99cb8p-2", "-0x1.e312420f605dap-1", "0x1.b9aa4b06be819p-3"),
}


@pytest.mark.parametrize("m, sigma", sorted(_E3_BITS))
def test_p2_unstable_eigenvector_keeps_the_bits_of_numpys_norm(m, sigma):
    """At these six points math.hypot gives the bits of numpy's norm, so
    every launch along e3, and so every orbit of the benchmark and the
    README, starts where it did.  Elsewhere the two may differ in the last
    bit."""
    e3 = p2_unstable_eigenvector(validate_params(m, sigma))
    assert tuple(v.hex() for v in e3) == _E3_BITS[m, sigma]


def test_infinity_chart_fixed_points(params15_3):
    chart_rhs = make_chart_rhs(params15_3)
    assert np.max(np.abs(chart_rhs(0.0, (0.0, 0.0, 0.0)))) == 0.0
    p2c = p2_chart_coordinates(params15_3)
    assert p2c == pytest.approx([100.0, 4.0, 0.0], rel=1e-13)
    assert np.max(np.abs(chart_rhs(0.0, p2c))) < 1e-12


def test_infinity_chart_linearization_at_q1(params15_3):
    J = infinity_chart_jacobian((0.0, 0.0, 0.0), params15_3)
    vals, vecs = np.linalg.eig(J)
    order = np.argsort(vals.real)
    assert vals.real[order] == pytest.approx([1.0, 2.0, 3.0], abs=1e-13)
    for target_val, target_vec in ((2.0, [1.0, 1.0, 0.0]), (1.0, [0.0, 1.0, 0.0]), (3.0, [0.0, 0.0, 1.0])):
        i = np.argmin(np.abs(vals - target_val))
        v = vecs[:, i].real
        v = v / v[np.argmax(np.abs(v))]
        t = np.asarray(target_vec)
        assert np.abs(v - t / t[np.argmax(np.abs(t))]).max() < 1e-12


def test_chart_consistency_with_phase_field(params15_3):
    """Pushing the phase velocity through the chart map must give a positive
    multiple of the chart field wherever X > 0."""
    rng = np.random.default_rng(5)
    rhs, chart_rhs = make_rhs(params15_3), make_chart_rhs(params15_3)
    for _ in range(1000):
        x = rng.uniform(0.1, 10.0)
        y = rng.uniform(-5.0, 5.0)
        z = rng.uniform(0.0, 5.0)
        pt = np.array([x, y, z])
        v = rhs(0.0, pt)
        # d/dt of (1/X, Y/X, Z/X)
        push = np.array(
            [
                -v[0] / x**2,
                v[1] / x - y * v[0] / x**2,
                v[2] / x - z * v[0] / x**2,
            ]
        )
        chart_v = np.array(chart_rhs(0.0, (1.0 / x, y / x, z / x)))
        # chart time runs w times faster; direction must agree
        nv = np.linalg.norm(push)
        nc = np.linalg.norm(chart_v)
        if nv < 1e-14 or nc < 1e-14:
            continue
        cos = float(np.dot(push, chart_v) / (nv * nc))
        assert cos > 1.0 - 1e-9
        assert chart_v == pytest.approx(push / x, rel=1e-9, abs=1e-12)


def test_chart_round_trip(params15_3):
    """phase_from_chart inverts the chart map (X, Y, Z) -> (1/X, Y/X, Z/X)."""
    pt = np.array([0.3, -1.2, 0.7])
    x, y, z = pt
    assert phase_from_chart((1.0 / x, y / x, z / x)) == pytest.approx(pt, rel=1e-14)
    with pytest.raises(DomainError):
        phase_from_chart((0.0, 1.0, 1.0))


def test_center_family_values(params15_3):
    """At (1.5, 3), alpha = 10 and the tail coefficient K = 0.01 / 1.5 gives
    sqrt(m) K^(m-1) = 0.1, so X = 0.1 sqrt(z) - 5 z."""
    K = 0.01 / 1.5
    assert center_family_P0(K, 1e-4, params15_3)[0] == pytest.approx(5e-4, rel=1e-12)
    # leading-order tangency X / sqrt(z) -> sqrt(m) K^(m-1) as z -> 0
    errs = [
        abs(center_family_P0(K, z, params15_3)[0] / np.sqrt(z) - 0.1)
        for z in (1e-8, 1e-10, 1e-12)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-5
    # K = 1e-4 / 1.5 gives X = 1e-4 - 5e-4 at z = 1e-4, outside {X > 0}
    with pytest.raises(DomainError, match="non-physical start"):
        center_family_P0(1e-4 / 1.5, 1e-4, params15_3)
    for K in (0.0, -1.0):
        with pytest.raises(DomainError, match="K must be finite and positive"):
            center_family_P0(K, 1e-6, params15_3)


@settings(max_examples=100)
@given(st.floats(min_value=1e-3, max_value=10.0), st.floats(min_value=1e-14, max_value=1e-5))
def test_center_family_point_lies_on_the_tangent_plane(K, z):
    """Y of the family point solves (beta/alpha) Y = X - Z, and it is the Y
    that launch_from_P0 starts from, bit for bit."""
    pr = validate_params(1.5, 3.0)
    x, y = center_family_P0(K, z, pr)
    assert beta_over_alpha(pr) * y == pytest.approx(x - z, rel=1e-14, abs=0.0)
    start = launch_from_P0(K, z, pr)
    assert (start[0], start[1], start[2]) == (x, y, z)


@pytest.mark.parametrize(
    "K, z", [(np.nan, 1e-6), (np.inf, 1e-6), (0.1, np.nan), (0.1, np.inf)]
)
def test_center_family_refuses_non_finite_values(K, z, params15_3):
    with pytest.raises(DomainError, match="finite"):
        center_family_P0(K, z, params15_3)


def test_exponential_center_family_slope_near_critical_sigma():
    """Along an orbit entering the vertex, log X2 is affine in 1/Y2 with the
    closed-form slope -(m-1)^2 beta^2 / (2 alpha), in the window between the
    launch transient and the final peel-off to the selected parabola point.
    X2 = X and Y2 = C X + D (Y + beta/(2 alpha)) are the first two
    coordinates of the linear normal form at the vertex."""
    from ssblow.orbits import sigma_star, launch_from_P2, standard_fate_events
    from ssblow.integrate import IntegrationControls, integrate

    res = sigma_star(1.5, (3.28, 3.30), 2e-4)
    pr = validate_params(1.5, res.sigma_star)
    traj = integrate(
        make_rhs(pr),
        launch_from_P2(pr, 1e-6),
        standard_fate_events(pr),
        IntegrationControls(max_time=3e4),
    )
    m = pr.m
    exp = derive_exponents(pr)
    alpha, beta = exp.alpha, exp.beta
    C = (2.0 * alpha * (m - 1.0) + beta * (m + pr.sigma - 3.0)) / (m - 1.0)
    D = (m - 1.0) * beta
    x2 = traj.points[:, 0]
    y2 = C * x2 + D * (traj.points[:, 1] + beta / (2.0 * alpha))
    ok = (y2 > 0) & (x2 > 0)
    inv_y = 1.0 / y2[ok]
    log_x = np.log(x2[ok])
    sel = (inv_y >= 80.0) & (inv_y <= 320.0)
    assert sel.sum() > 100
    coef = np.polyfit(inv_y[sel], log_x[sel], 1)
    pred = np.polyval(coef, inv_y[sel])
    ss_res = np.sum((log_x[sel] - pred) ** 2)
    ss_tot = np.sum((log_x[sel] - log_x[sel].mean()) ** 2)
    assert 1.0 - ss_res / ss_tot > 0.999
    theory = -((m - 1.0) ** 2) * beta**2 / (2.0 * alpha)
    assert coef[0] == pytest.approx(theory, rel=0.15)
