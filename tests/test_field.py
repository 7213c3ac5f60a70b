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
    infinity_chart_field,
    infinity_chart_jacobian,
    jacobian,
    make_rhs,
    p2_chart_coordinates,
    p2_unstable_eigenvalue,
    p2_unstable_eigenvector,
    phase_from_chart,
    vector_field,
    vertex_center_slope,
    vertex_normal_form,
    vertex_normal_form_coeffs,
)


def test_vector_field_hand_value(params15_3):
    v = vector_field((0.01, 0.0, 0.005), params15_3)
    assert v == pytest.approx([-2e-4, 5e-3, 5e-5], rel=1e-12)


def test_vector_field_vanishes_at_p2(params15_3):
    v = vector_field(p2_coordinates(params15_3), params15_3)
    assert np.max(np.abs(v)) < 1e-12


@settings(max_examples=100)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_vector_field_vanishes_on_parabola(t):
    pr = validate_params(1.5, 3.0)
    lo, hi = lambda_range(pr)
    v = vector_field(parabola_point(lo + t * (hi - lo), pr), pr)
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
    h = 1e-6
    for _ in range(100):
        pt = rng.uniform([0.0, -0.5, 0.0], [0.5, 0.5, 0.05])
        J = jacobian(pt, params15_3)
        fd = np.empty((3, 3))
        for j in range(3):
            dp = np.zeros(3)
            dp[j] = h
            fd[:, j] = (
                vector_field(pt + dp, params15_3) - vector_field(pt - dp, params15_3)
            ) / (2.0 * h)
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
    assert "inert" in q4.notes


def test_field_vanishes_at_every_cataloged_finite_point(params15_3):
    for cp in classify_critical_points(params15_3):
        if cp.coords != "phase":
            continue
        assert np.max(np.abs(vector_field(cp.location, params15_3))) < 1e-12


def test_p2_spectrum(params15_3):
    cp = [c for c in classify_critical_points(params15_3) if c.name == "P2"][0]
    re = sorted(cp.eigen.values.real)
    assert sum(1 for v in re if v < 0) == 2
    assert re[2] == pytest.approx(0.01, rel=1e-12)
    assert p2_unstable_eigenvalue(params15_3) == pytest.approx(0.01, rel=1e-13)


def test_p2_unstable_eigenvector_is_true_eigenvector(params15_3):
    lam3 = p2_unstable_eigenvalue(params15_3)
    e3 = p2_unstable_eigenvector(params15_3)
    J = jacobian(p2_coordinates(params15_3), params15_3)
    assert np.linalg.norm(J @ e3 - lam3 * e3) < 1e-12
    # components scale as (-2(m-1)(m+1)alpha, -2(m+1) sigma alpha, D)/D
    scaled = e3 / e3[2]
    assert scaled[:2] == pytest.approx([-25.0 / 21.0, -150.0 / 21.0], rel=1e-12)
    # the first two components have the ratio (m-1)/sigma
    assert scaled[0] / scaled[1] == pytest.approx((1.5 - 1.0) / 3.0, rel=1e-12)


def test_infinity_chart_fixed_points(params15_3):
    assert np.max(np.abs(infinity_chart_field((0.0, 0.0, 0.0), params15_3))) == 0.0
    p2c = p2_chart_coordinates(params15_3)
    assert p2c == pytest.approx([100.0, 4.0, 0.0], rel=1e-13)
    assert np.max(np.abs(infinity_chart_field(p2c, params15_3))) < 1e-12


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
    for _ in range(1000):
        x = rng.uniform(0.1, 10.0)
        y = rng.uniform(-5.0, 5.0)
        z = rng.uniform(0.0, 5.0)
        pt = np.array([x, y, z])
        v = vector_field(pt, params15_3)
        # d/dt of (1/X, Y/X, Z/X)
        push = np.array(
            [
                -v[0] / x**2,
                v[1] / x - y * v[0] / x**2,
                v[2] / x - z * v[0] / x**2,
            ]
        )
        chart_v = infinity_chart_field((1.0 / x, y / x, z / x), params15_3)
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
    assert center_family_P0(0.1, 1e-4, params15_3) == pytest.approx(5e-4, rel=1e-12)
    assert center_family_P0(0.0, 1e-4, params15_3) <= 0.0
    # leading-order tangency X / sqrt(z) -> K as z -> 0
    errs = [
        abs(center_family_P0(0.1, z, params15_3) / np.sqrt(z) - 0.1)
        for z in (1e-8, 1e-10, 1e-12)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-5
    with pytest.raises(DomainError):
        center_family_P0(-1.0, 1e-6, params15_3)


def test_vertex_normal_form_coefficients(params15_3):
    nf = vertex_normal_form_coeffs(params15_3)
    assert nf.A == pytest.approx(0.04, rel=1e-13)
    assert nf.B == pytest.approx(0.2, rel=1e-13)
    assert nf.C == pytest.approx(26.0, rel=1e-13)
    assert nf.D == pytest.approx(1.0, rel=1e-13)
    assert np.isfinite(nf.E) and np.isfinite(nf.F)


def test_vertex_normal_form_maps_vertex_to_origin(params15_3):
    exp = derive_exponents(params15_3)
    boa = beta_over_alpha(params15_3)
    vertex = (0.0, -boa / 2.0, exp.z_max)
    assert np.max(np.abs(vertex_normal_form(vertex, params15_3))) < 1e-16


def test_exponential_center_family_slope_near_critical_sigma():
    """Along an orbit entering the vertex, log X2 is affine in 1/Y2 with the
    closed-form slope, in the window between the launch transient and the
    final peel-off to the selected parabola point."""
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
    nf = np.array([vertex_normal_form(p, pr) for p in traj.points])
    x2, y2 = nf[:, 0], nf[:, 1]
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
    theory = vertex_center_slope(pr)
    assert coef[0] == pytest.approx(theory, rel=0.15)
