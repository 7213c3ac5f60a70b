import numpy as np
import pytest

from ssblow.params import beta_over_alpha, derive_exponents, validate_params
from ssblow.field import vector_field, infinity_chart_field, make_rhs
from ssblow.integrate import EventSpec, IntegrationControls, integrate
from ssblow.orbits import launch_from_P2
from ssblow.barriers import (
    ConfigurationError,
    _r2_points,
    barrier_catalog,
    dregion_constants,
    dregion_gates,
    empirical_sigma0,
    plane3_constants,
    region_membership,
    verify_barrier,
)

GRID = [(m, s) for m in (1.2, 1.5, 1.8) for s in (2.5, 3.0, 4.0)]


def test_dregion_constants_values(params15_3):
    cst = dregion_constants(params15_3)
    assert cst["c"] == pytest.approx(0.01, rel=1e-13)
    assert cst["d"] == pytest.approx(0.005, rel=1e-13)
    assert cst["y_star"] == pytest.approx(-0.5 / 57.0, rel=1e-12)
    assert cst["x_star"] == pytest.approx(1.0 / 900.0, rel=1e-12)


def test_plane3_constants_values(params15_3):
    cst = plane3_constants(params15_3)
    assert cst["x_star3"] == pytest.approx(0.16, rel=1e-13)
    assert cst["A"] == pytest.approx(0.96, rel=1e-13)
    assert cst["B"] == pytest.approx(0.24, rel=1e-13)


def test_origin_cap_plane_slope(params15_3):
    # a = 3/((m-1) alpha) = 0.6 at (1.5, 3)
    alpha = derive_exponents(params15_3).alpha
    assert 3.0 / ((params15_3.m - 1.0) * alpha) == pytest.approx(0.6, rel=1e-13)


def test_cylinder_sign_hand_value(params15_3):
    spec = {b.id: b for b in barrier_catalog(params15_3)}["cylinder"]
    pt = np.array([[0.01, -0.05, -(-0.05) * (-0.05 + 0.2)]])
    assert spec.sign_expr(pt)[0] == pytest.approx(0.01 * (-0.1125), rel=1e-12)


def test_midplane_vertex_boundary_equality(params15_3):
    spec = {b.id: b for b in barrier_catalog(params15_3)}["midplane"]
    exp = derive_exponents(params15_3)
    pt = np.array([[0.0, -0.1, exp.z_max]])
    assert spec.sign_expr(pt)[0] == pytest.approx(0.0, abs=1e-15)


def _surface_normal_dot_field(spec, pts, params):
    """Numerical gradient of the implicit surface dotted with the field."""
    h = 1e-7
    out = np.empty(len(pts))
    chart = spec.coords == "chart"
    for i, p in enumerate(pts):
        grad = np.empty(3)
        for j in range(3):
            dp = np.zeros(3)
            dp[j] = h
            grad[j] = (spec.surface((p + dp)[None, :])[0] - spec.surface((p - dp)[None, :])[0]) / (
                2.0 * h
            )
        f = infinity_chart_field(p, params) if chart else vector_field(p, params)
        out[i] = float(np.dot(grad, f))
    return out


@pytest.mark.parametrize(
    "bid,sigma",
    [
        ("midplane", 3.0),
        ("cylinder", 3.0),
        ("diagonal_xz", 3.0),
        ("ydot_surface", 3.0),
        ("box_wall_x", 3.0),
        ("box_wall_y", 3.0),
        ("cap_plane_yz", 3.0),
        ("cap_plane_xz", 3.0),
        ("p2_floor_plane", 10.0),  # validity slab X* < X < X(P2) empty at small sigma
        ("ykz_cap", 3.0),
        ("upper_plane_y", 3.0),
        ("chart_line", 3.0),
        ("chart_curve", 3.0),
    ],
)
def test_sign_expression_matches_scalar_product(bid, sigma):
    """The closed-form sign expression must be a positive multiple of the
    normal-field scalar product on the surface (here: equal, since every
    expression is derived without rescaling)."""
    from scipy.stats import qmc

    params15_3 = validate_params(1.5, sigma)
    spec = {b.id: b for b in barrier_catalog(params15_3)}[bid]
    u = qmc.Sobol(d=2, scramble=True, seed=1).random_base2(6)
    pts = spec.sample(u)
    pts = pts[spec.validity(pts)]
    assert len(pts) > 10
    assert np.max(np.abs(np.asarray(spec.surface(pts)))) < 1e-10
    lhs = np.asarray(spec.sign_expr(pts), dtype=float)
    rhs = _surface_normal_dot_field(spec, pts, params15_3)
    assert lhs == pytest.approx(rhs, rel=1e-5, abs=1e-12)


def test_origin_cap_plane_sign_matches_center_chart_product(params15_3):
    """The origin cap plane lives in (X, T, Z) variables; its sign expression
    equals a (X-dot, Z-dot) scalar product of the center-manifold system."""
    m = params15_3.m
    exp = derive_exponents(params15_3)
    alpha, beta = exp.alpha, exp.beta
    spec = {b.id: b for b in barrier_catalog(params15_3)}["origin_cap_plane"]
    from scipy.stats import qmc

    pts = spec.sample(qmc.Sobol(d=2, scramble=True, seed=2).random_base2(6))
    pts = pts[spec.validity(pts)]
    a4 = 3.0 / ((m - 1.0) * alpha)
    x, t, z = pts[:, 0], pts[:, 1], pts[:, 2]
    xdot = x * (x + (m - 1.0) * alpha * t - (m - 1.0) * alpha * z) / beta
    zdot = 2.0 * x * z / beta
    assert np.asarray(spec.sign_expr(pts)) == pytest.approx(a4 * xdot + zdot, rel=1e-12)


def test_full_catalog_grid_passes():
    for m, s in GRID:
        pr = validate_params(m, s)
        for spec in barrier_catalog(pr):
            rep = verify_barrier(spec, pr, 2_000, seed=42)
            assert rep.passed, (m, s, spec.id, rep.violations[:3])


def test_gated_configuration_near_sigma_2():
    pr = validate_params(1.5, 2.003)
    gates = dregion_gates(pr)
    assert all(bool(v) for v in gates.values())
    applicable = 0
    for spec in barrier_catalog(pr):
        rep = verify_barrier(spec, pr, 2_000, seed=7)
        assert rep.passed
        applicable += rep.applicable
    # the small-sigma cap planes participate here
    assert applicable >= 13


def test_gates_fail_at_sigma_3(params15_3):
    gates = dregion_gates(params15_3)
    assert not gates["x_p2_below_x_star"]
    assert not gates["r2_right_of_r1"]
    reports = {
        spec.id: verify_barrier(spec, params15_3, 1_000, seed=3)
        for spec in barrier_catalog(params15_3)
    }
    assert not reports["cap_plane_yz"].applicable
    assert not reports["cap_plane_xz"].applicable
    assert reports["cap_plane_yz"].samples_tested == 0


def test_p2_floor_plane_gate_turns_on_at_large_sigma():
    off = validate_params(1.5, 6.0)
    on = validate_params(1.5, 10.0)
    spec_off = {b.id: b for b in barrier_catalog(off)}["p2_floor_plane"]
    spec_on = {b.id: b for b in barrier_catalog(on)}["p2_floor_plane"]
    assert not verify_barrier(spec_off, off, 1_000, seed=1).applicable
    rep = verify_barrier(spec_on, on, 1_000, seed=1)
    assert rep.applicable and rep.passed
    assert rep.worst_margin > 0.0


def test_cylinder_margin_strictly_negative(params15_3):
    spec = {b.id: b for b in barrier_catalog(params15_3)}["cylinder"]
    rep = verify_barrier(spec, params15_3, 2_000, seed=42)
    assert rep.passed and rep.worst_margin < 0.0


def test_verify_barrier_input_validation(params15_3):
    spec = barrier_catalog(params15_3)[0]
    with pytest.raises(ConfigurationError):
        verify_barrier(spec, params15_3, 10, seed=1)


def test_r2_points_are_seeded_and_low_discrepancy():
    a = _r2_points(4096, 42)
    assert a.shape == (4096, 2)
    assert np.all((a >= 0.0) & (a < 1.0))
    assert np.array_equal(a, _r2_points(4096, 42))
    assert not np.array_equal(a, _r2_points(4096, 43))
    # iid uniform points spread over roughly 43..86 per cell here
    for seed in range(4):
        u = _r2_points(4096, seed)
        cells, _, _ = np.histogram2d(u[:, 0], u[:, 1], bins=8, range=[[0.0, 1.0], [0.0, 1.0]])
        assert np.all(np.abs(cells - 64) <= 4), (seed, cells.min(), cells.max())


def test_verify_reports_are_seed_deterministic(params15_3):
    spec = {b.id: b for b in barrier_catalog(params15_3)}["cylinder"]
    a = verify_barrier(spec, params15_3, 2_000, seed=42)
    b = verify_barrier(spec, params15_3, 2_000, seed=42)
    assert a.worst_margin == b.worst_margin
    c = verify_barrier(spec, params15_3, 2_000, seed=43)
    assert c.worst_margin != a.worst_margin


def test_region_membership_examples(params15_3):
    assert not region_membership("D1", [0.01, 0.04, 0.0], params15_3)  # P2 outside at sigma=3
    assert region_membership("D1", [0.0, 0.0, 0.0], params15_3)
    assert region_membership("S", [1.0, 1.0], params15_3)
    assert not region_membership("S", [1.0, 0.01], params15_3)  # below the line
    assert region_membership("D4", [0.005, 0.02, 1.0], params15_3)
    assert not region_membership("D4", [0.02, 0.02, 1.0], params15_3)
    assert region_membership("D0", [0.01, -0.1, 0.05], params15_3)
    assert not region_membership("D0", [0.01, 0.1, 0.05], params15_3)
    with pytest.raises(ValueError):
        region_membership("D9", [0, 0, 0], params15_3)


def test_region_membership_R(params15_3):
    cst = plane3_constants(params15_3)
    p2 = [0.01, 0.04, 0.0]
    # P2 itself sits on the plane's boundary but outside the X-slab at sigma=3
    x = 0.5 * (cst["x_star3"] + 0.01)
    assert not region_membership("R", [x, 0.02, 0.0], params15_3) or cst["x_star3"] < 0.01
    big_sigma = validate_params(1.5, 10.0)
    cst10 = plane3_constants(big_sigma)
    from ssblow.params import p2_coordinates

    p210 = p2_coordinates(big_sigma)
    x = 0.5 * (cst10["x_star3"] + p210[0])
    y = 0.5 * p210[1]
    z_on = cst10["C"] - cst10["A"] * x - cst10["B"] * y
    assert region_membership("R", [x, y, z_on + 1e-6], big_sigma)
    assert not region_membership("R", [x, y, z_on - 1e-6], big_sigma)


def test_d_regions_nonempty_when_gated(params15_3):
    pr = validate_params(1.5, 2.003)
    cst = dregion_constants(pr)
    assert region_membership("D1", [cst["x_star"] / 2, 0.1, cst["d"] / 2], pr)
    assert region_membership("D2", [cst["x_star"] / 2, -cst["f"] / 2, cst["d"]], pr)


def test_empirical_sigma0_matches_gate_analysis():
    s0 = empirical_sigma0(1.5, np.linspace(2.001, 2.2, 400))
    assert s0 is not None
    assert 2.004 < s0 < 2.007
    gates_ok = dregion_gates(validate_params(1.5, s0))
    assert all(bool(v) for v in gates_ok.values())


def test_p2_orbit_never_returns_above_midplane(params15_34):
    """Once the escaping orbit crosses the midplane with Z above the vertex
    height, it stays below forever (Z is non-decreasing)."""
    boa = beta_over_alpha(params15_34)
    z_max = derive_exponents(params15_34).z_max
    midplane = EventSpec(id="midplane", guard=lambda p: p[1] + boa / 2.0)
    floor = EventSpec(id="floor", guard=lambda p: p[1] + 50.0)
    controls = IntegrationControls(max_time=2e3)
    rhs = make_rhs(params15_34)
    hit = integrate(rhs, launch_from_P2(params15_34), [midplane, floor], controls).event
    assert hit is not None and hit.id == "midplane"
    assert hit.point[2] > z_max  # certificate at the crossing
    # relaunch below the midplane: a return above it would fire "return"
    back = EventSpec(id="return", guard=lambda p: -(p[1] + boa / 2.0))
    traj = integrate(rhs, tuple(hit.point), [back, floor], controls)
    assert traj.termination == "event" and traj.event.id == "floor"
    assert np.all(traj.points[1:, 1] <= -boa / 2.0 + 1e-12)
    assert np.all(traj.points[1:, 2] > z_max)


def test_no_limit_cycle_proxy_on_confined_orbit(p2_orbit_15_3):
    """In {Y <= 0, X > 0} the components X and Z are strictly monotone, the
    mechanism that rules out limit cycles."""
    traj, _ = p2_orbit_15_3
    pts = traj.points
    sel = (pts[:, 1] <= 0.0) & (pts[:, 0] > 1e-12)
    x = pts[sel, 0]
    z = pts[sel, 2]
    assert np.all(np.diff(x) <= 1e-12)
    assert np.all(np.diff(z) >= -1e-12)
    assert x[-1] < x[0] and z[-1] > z[0]
