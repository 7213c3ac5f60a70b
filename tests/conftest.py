import pytest

from ssblow.params import validate_params
from ssblow.orbits import run_p2_orbit


@pytest.fixture(scope="session")
def params15_3():
    return validate_params(1.5, 3.0)


@pytest.fixture(scope="session")
def params15_34():
    return validate_params(1.5, 3.4)


@pytest.fixture(scope="session")
def p2_orbit_15_3(params15_3):
    """The P2 orbit at (m, sigma) = (1.5, 3), shared across test modules."""
    return run_p2_orbit(params15_3)


@pytest.fixture(scope="session")
def p2_orbit_15_34(params15_34):
    return run_p2_orbit(params15_34)


@pytest.fixture(scope="session")
def p2_orbit_15_3285():
    """The P2 orbit at (m, sigma) = (1.5, 3.285), near the vertex."""
    return run_p2_orbit(validate_params(1.5, 3.285))
