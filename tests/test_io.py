import math
import tracemalloc
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


@pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 10])
def test_csvs_written_in_blocks_are_the_per_value_rendering(tmp_path, monkeypatch, rows):
    """Blocks of 3 rows: frames shorter than a block, of whole blocks and
    of whole blocks plus a part are written as one block of every row."""
    monkeypatch.setattr(io_mod, "_WRITE_BLOCK", 3)
    values = np.resize(_EXTREMES, (rows, 4))
    path = tmp_path / "t.csv"
    io_mod.write_trajectory_csv(path, SimpleNamespace(eta=values[:, 0], points=values[:, 1:]))
    assert path.read_text() == _per_value(("eta", "X", "Y", "Z"), values)
    io_mod.write_profile_csv(path, SimpleNamespace(xi=values[:, 0], f=values[:, 1], df=values[:, 2]))
    assert path.read_text() == _per_value(("xi", "f", "df"), values[:, :3])


def test_writing_a_csv_holds_no_copy_of_the_whole_file(tmp_path):
    """50 000 rows (4 MB of text) are written under 4 MB of peak
    allocation: about 1.1 MB in blocks of 4096 rows, 13.8 MB when the whole
    text is rendered at once.  Tracing every float the rendering allocates
    makes a larger frame slow to test."""
    values = np.random.default_rng(0).standard_normal((50_000, 4))
    traj = SimpleNamespace(eta=values[:, 0].copy(), points=values[:, 1:].copy())
    tracemalloc.start()
    try:
        io_mod.write_trajectory_csv(tmp_path / "t.csv", traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_dump_report_renders_a_tuple_as_the_list_of_its_items():
    """A tuple, at any depth, is written exactly as the list of its items."""
    as_tuples = (1, -0.0, 0.1, math.inf, None, True, "x", {"k": (2, 3)}, ((), [4]))
    as_lists = [1, -0.0, 0.1, math.inf, None, True, "x", {"k": [2, 3]}, [[], [4]]]
    assert io_mod.dump_report({"v": as_tuples}) == io_mod.dump_report({"v": as_lists})
