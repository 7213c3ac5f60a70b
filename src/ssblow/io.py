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


def write_trajectory_csv(path, traj) -> None:
    rows = (
        [fmt(e), fmt(p[0]), fmt(p[1]), fmt(p[2])] for e, p in zip(traj.eta, traj.points)
    )
    _write_rows(path, ["eta", "X", "Y", "Z"], rows)


def read_trajectory_csv(path):
    data = np.genfromtxt(path, delimiter=",", names=True)
    data = np.atleast_1d(data)
    eta = data["eta"].astype(float)
    pts = np.column_stack([data["X"], data["Y"], data["Z"]]).astype(float)
    return eta, pts


def write_profile_csv(path, frame) -> None:
    rows = (
        [fmt(x), fmt(f), fmt(d)] for x, f, d in zip(frame.xi, frame.f, frame.df)
    )
    _write_rows(path, ["xi", "f", "df"], rows)


def read_profile_csv(path):
    data = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    return data["xi"].astype(float), data["f"].astype(float), data["df"].astype(float)


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

