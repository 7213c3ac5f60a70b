"""Bit-stable CSV and JSON emission with lossless float round-trips.

Floats are written with %.17g, which round-trips every finite double; every
CSV the command-line tool emits is re-readable here with zero loss.  Rows
are comma-separated, LF-terminated, with a header row.
"""

from __future__ import annotations

import json
import math

import numpy as np

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


def fmt(x) -> str:
    return "%.17g" % float(x)


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_columns(path, header, columns):
    """One row per index of the float columns, each written with %.17g.
    The whole block is rendered by one % operation on the repeated row."""
    values = np.column_stack(columns)
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n" + (line * len(values)) % tuple(values.ravel().tolist()))


def _read_columns(path, header, kind):
    """The float columns under header, as one (rows, len(header)) array."""
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
    _write_columns(path, ("eta", "X", "Y", "Z"), (traj.eta, traj.points))


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
    out = []
    for sigma, fate, lam, xi0 in rows:
        out.append(
            [
                fmt(sigma),
                str(fate),
                "" if lam is None else fmt(lam),
                "" if xi0 is None else fmt(xi0),
            ]
        )
    _write_rows(path, ["sigma", "fate", "lambda_hat", "xi0"], out)


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


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


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
    if isinstance(obj, list):
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
    return _render(_jsonable(payload), 0) + "\n"

