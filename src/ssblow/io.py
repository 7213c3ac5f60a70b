"""Bit-stable CSV and JSON emission with lossless float round-trips.

Floats are written with %.17g, which round-trips every finite double; every
CSV the command-line tool emits is re-readable here with zero loss.  Rows
are comma-separated, LF-terminated, with a header row.  A CSV of float
columns is rendered and written in blocks of a fixed number of rows, so
writing it holds no whole-file copy of its text or values.  The writer
reads each column through slicing and tolist(), so it takes array('d')
columns, as every profile frame holds, or numpy arrays, as a trajectory
holds, and imports nothing.  numpy is imported only by the readers of
float columns (np.loadtxt) and where a trajectory's sample arrays are
read, as write_trajectory_csv reads them.
"""

from __future__ import annotations

import json
import math

__all__ = [
    "fmt",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_profile_csv",
    "read_profile_csv",
    "write_sweep_csv",
    "read_sweep_csv",
    "dump_report",
]

_WRITE_BLOCK = 4096  # CSV rows rendered and written at a time


def fmt(x) -> str:
    return "%.17g" % float(x)


def _write_columns(path, header, columns):
    """One row per index of the 1-D float columns, each value written with
    %.17g.  Rows are written _WRITE_BLOCK at a time: each column's block is
    read with tolist(), the blocks are interleaved into one list by slice
    assignment, and the block is rendered by one % operation on the
    repeated row, so a file's text, and a copy of its values, is never held
    whole."""
    k = len(columns)
    line = ",".join(["%.17g"] * k) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for s in range(0, len(columns[0]), _WRITE_BLOCK):
            blocks = [c[s : s + _WRITE_BLOCK].tolist() for c in columns]
            flat = [0.0] * (k * len(blocks[0]))
            for j, block in enumerate(blocks):
                flat[j::k] = block
            fh.write((line * len(blocks[0])) % tuple(flat))


def _read_columns(path, header, kind):
    """The float columns under header, as one (rows, len(header)) array."""
    import numpy as np

    with open(path) as fh:
        found = fh.readline().rstrip("\n")
        if found != ",".join(header):
            raise ValueError("%s: not a %s CSV (header %r)" % (path, kind, found))
        body = fh.tell()
        if not fh.read(1):
            return np.empty((0, len(header)))
        fh.seek(body)
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(
            "%s: rows of %d values under %d header columns" % (path, data.shape[1], len(header))
        )
    return data


def write_trajectory_csv(path, traj) -> None:
    pts = traj.points
    _write_columns(path, ("eta", "X", "Y", "Z"), (traj.eta, pts[:, 0], pts[:, 1], pts[:, 2]))


def read_trajectory_csv(path):
    data = _read_columns(path, ("eta", "X", "Y", "Z"), "trajectory")
    return data[:, 0], data[:, 1:]


def write_profile_csv(path, frame) -> None:
    _write_columns(path, ("xi", "f", "df"), (frame.xi, frame.f, frame.df))


def read_profile_csv(path):
    data = _read_columns(path, ("xi", "f", "df"), "profile")
    return data[:, 0], data[:, 1], data[:, 2]


def write_sweep_csv(path, rows) -> None:
    """rows: iterables of (sigma, fate, lambda_hat or None, xi0 or None)."""
    with open(path, "w", newline="") as fh:
        fh.write("sigma,fate,lambda_hat,xi0\n")
        for sigma, fate, lam, xi0 in rows:
            fh.write(
                "%s,%s,%s,%s\n"
                % (fmt(sigma), fate, "" if lam is None else fmt(lam), "" if xi0 is None else fmt(xi0))
            )


def read_sweep_csv(path):
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "sigma,fate,lambda_hat,xi0":
            raise ValueError("%s: not a sweep CSV (header %r)" % (path, header))
        for line in fh:
            sigma, fate, lam, xi0 = line.rstrip("\n").split(",")
            rows.append(
                (
                    float(sigma),
                    fate,
                    float(lam) if lam else None,
                    float(xi0) if xi0 else None,
                )
            )
    return rows


def _render(obj, indent: int) -> str:
    pad = "  " * indent
    pad1 = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            '%s"%s": %s' % (pad1, k, _render(v, indent + 1)) for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [pad1 + _render(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return fmt(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def dump_report(payload: dict) -> str:
    """Serialize a report dict; floats are written with 17 significant digits,
    and an infinite or nan float (xi_max as sigma -> 2+) as null."""
    return _render(payload, 0) + "\n"

