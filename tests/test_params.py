import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssblow.params import (
    DomainError,
    ParameterError,
    Params,
    beta_over_alpha,
    derive_exponents,
    interface_xi_of_lambda,
    lambda_range,
    p2_coordinates,
    parabola_point,
    validate_params,
)

valid_m = st.floats(min_value=1.01, max_value=1.99)
valid_sigma = st.floats(min_value=2.1, max_value=10.0)


def test_validate_paper_experiment_triple():
    pr = validate_params(1.5, 3.0)
    assert pr.m == 1.5 and pr.p == 0.5 and pr.sigma == 3.0


@pytest.mark.parametrize(
    "m,sigma,msg",
    [
        (1.0, 3.0, "m must exceed 1"),
        (2.0, 3.0, "m must be below 2"),
        (1.5, 2.0, "sigma must exceed 2"),
        (0.5, 3.0, "m must exceed 1"),
    ],
)
def test_validate_rejects_out_of_range(m, sigma, msg):
    with pytest.raises(ParameterError, match=msg):
        validate_params(m, sigma)


def test_direct_construction_rejects_inconsistent_p():
    with pytest.raises(ParameterError):
        Params(m=1.5, p=0.7, sigma=3.0)


def test_derive_exponents_m15_sigma3():
    exp = derive_exponents(validate_params(1.5, 3.0))
    assert exp.alpha == pytest.approx(10.0, rel=1e-14)
    assert exp.beta == pytest.approx(2.0, rel=1e-14)
    assert exp.xi_max == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert exp.z_max == pytest.approx(0.01, rel=1e-14)


def test_derive_exponents_m15_sigma4():
    exp = derive_exponents(validate_params(1.5, 4.0))
    assert exp.alpha == pytest.approx(6.0, rel=1e-14)
    assert exp.beta == pytest.approx(1.0, rel=1e-14)
    assert exp.xi_max == pytest.approx(math.sqrt(1.0 / 6.0), rel=1e-13)
    assert exp.z_max == pytest.approx(1.0 / 144.0, rel=1e-13)


@settings(max_examples=200)
@given(valid_m, valid_sigma)
def test_xi_max_is_discriminant_root(m, sigma):
    pr = validate_params(m, sigma)
    exp = derive_exponents(pr)
    lhs = exp.beta**2 * exp.xi_max**2
    rhs = 4.0 * m * exp.xi_max**sigma
    assert lhs == pytest.approx(rhs, rel=1e-10)
    assert exp.alpha > 0 and exp.beta > 0


def test_p2_coordinates_m15_sigma3():
    p2 = p2_coordinates(validate_params(1.5, 3.0))
    assert p2 == pytest.approx([0.01, 0.04, 0.0], abs=1e-15)


def test_p2_coordinates_m15_sigma4():
    p2 = p2_coordinates(validate_params(1.5, 4.0))
    assert p2 == pytest.approx([1.0 / 60.0, 1.0 / 15.0, 0.0], rel=1e-14)


@settings(max_examples=200)
@given(valid_m, valid_sigma)
def test_p2_ratio_identity(m, sigma):
    p2 = p2_coordinates(validate_params(m, sigma))
    assert p2[0] == pytest.approx((m - 1.0) * p2[1] / 2.0, rel=1e-12)


def test_parabola_point_vertex_and_endpoints():
    pr = validate_params(1.5, 3.0)
    vertex = parabola_point(-0.1, pr)
    assert vertex == pytest.approx([0.0, -0.1, 0.01], abs=1e-15)
    assert parabola_point(0.0, pr) == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)
    lo, _ = lambda_range(pr)
    end = parabola_point(lo, pr)
    assert end[2] == pytest.approx(0.0, abs=1e-16)
    with pytest.raises(DomainError):
        parabola_point(0.1, pr)
    with pytest.raises(DomainError):
        parabola_point(lo - 1e-6, pr)


@settings(max_examples=200)
@given(valid_m, valid_sigma, st.floats(min_value=0.0, max_value=1.0))
def test_parabola_height_bounded_by_vertex(m, sigma, t):
    pr = validate_params(m, sigma)
    lo, hi = lambda_range(pr)
    lam = lo + t * (hi - lo)
    z = parabola_point(lam, pr)[2]
    z_max = derive_exponents(pr).z_max
    assert z <= z_max * (1.0 + 1e-12)
    lo_, hi_ = lambda_range(pr)
    if abs(lam - lo_ / 2.0) > 1e-3 * abs(lo_):
        assert z < z_max  # equality only at the vertex


def test_interface_xi_examples():
    pr = validate_params(1.5, 3.0)
    exp = derive_exponents(pr)
    # the vertex maps exactly to the localization bound
    assert interface_xi_of_lambda(-0.1, pr) == pytest.approx(exp.xi_max, rel=1e-12)
    assert interface_xi_of_lambda(-0.05, pr) == pytest.approx(0.5, rel=1e-12)
    assert interface_xi_of_lambda(-1e-8, pr) < 1e-6
    # Z = -lambda (lambda + beta/alpha) underflows to 0 here: xi0 is 0, not a log error
    assert interface_xi_of_lambda(-5e-324, pr) == 0.0


def test_interface_xi_domain():
    pr = validate_params(1.5, 3.0)
    lo, _ = lambda_range(pr)
    for lam in (0.0, lo, 0.2, lo - 1.0):
        with pytest.raises(DomainError):
            interface_xi_of_lambda(lam, pr)


def test_interface_xi_unimodal_with_max_at_vertex():
    pr = validate_params(1.5, 3.0)
    exp = derive_exponents(pr)
    lo, _ = lambda_range(pr)
    vertex = lo / 2.0
    lams = np.linspace(lo * (1 - 1e-9), -1e-9, 401)
    vals = np.array([interface_xi_of_lambda(l, pr) for l in lams])
    assert vals.max() <= exp.xi_max * (1.0 + 1e-12)
    left = vals[lams < vertex]
    right = vals[lams > vertex]
    assert np.all(np.diff(left) > 0)
    assert np.all(np.diff(right) < 0)


def test_beta_over_alpha_closed_form_matches_ratio():
    for m, sigma in ((1.2, 2.5), (1.5, 3.0), (1.8, 7.3)):
        pr = validate_params(m, sigma)
        exp = derive_exponents(pr)
        assert beta_over_alpha(pr) == pytest.approx(exp.beta / exp.alpha, rel=1e-13)
