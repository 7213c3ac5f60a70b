import math
from types import SimpleNamespace

import numpy as np
import pytest

from ssblow import io as io_mod

# every column holds -0.0, the smallest subnormal, a near-overflow value,
# -inf and nan somewhere, next to ordinary values
_EXTREMES = np.array(
    [
        [-0.0, 5e-324, 1e308, -math.inf],
        [math.nan, -0.0, 5e-324, 1e308],
        [1e308, -math.inf, math.nan, -0.0],
        [5e-324, 1e308, -math.inf, math.nan],
        [-math.inf, math.nan, -0.0, 5e-324],
        [0.1, 2.0 / 3.0, -1.5e-300, 1.0],
    ]
)


def _per_value(header, values):
    """The CSV text with every value rendered on its own by %.17g."""
    rows = "".join(",".join("%.17g" % v for v in row) + "\n" for row in values.tolist())
    return ",".join(header) + "\n" + rows


def _bitwise_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("rows", [6, 0], ids=["extremes", "zero-rows"])
def test_trajectory_csv_is_the_per_value_rendering(tmp_path, rows):
    values = _EXTREMES[:rows]
    traj = SimpleNamespace(eta=values[:, 0], points=values[:, 1:])
    path = tmp_path / "t.csv"
    io_mod.write_trajectory_csv(path, traj)
    assert path.read_text() == _per_value(("eta", "X", "Y", "Z"), values)
    eta, pts = io_mod.read_trajectory_csv(path)
    assert _bitwise_equal(np.column_stack((eta, pts)), values)


@pytest.mark.parametrize("rows", [6, 0], ids=["extremes", "zero-rows"])
def test_profile_csv_is_the_per_value_rendering(tmp_path, rows):
    values = np.vstack((_EXTREMES[:, :3], _EXTREMES[:, 1:]))[: 2 * rows]
    frame = SimpleNamespace(xi=values[:, 0], f=values[:, 1], df=values[:, 2])
    path = tmp_path / "p.csv"
    io_mod.write_profile_csv(path, frame)
    assert path.read_text() == _per_value(("xi", "f", "df"), values)
    back = io_mod.read_profile_csv(path)
    assert _bitwise_equal(np.column_stack(back), values)
