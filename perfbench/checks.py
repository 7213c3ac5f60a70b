"""Correctness checks for every benchmark operation.

Each check returns a list of failure messages; an empty list means the
operation's output is right.  Expected values come from closed forms
re-derived here from the paper (not read back from ssblow.params) and from
the paper's invariants, never from recorded outputs or timings.
"""

from __future__ import annotations

import hashlib
import math
from types import SimpleNamespace

import numpy as np

PARABOLA_SIDE = ("enters_parabola", "enters_vertex_neighborhood")
Q3 = "enters_q3"
XI_SLACK = 1e-4  # interface localization slack, as in the acceptance suite
SIGMA_STAR_15 = (3.235, 3.335)  # acceptance range of sigma* at m = 1.5


def closed_forms(m: float, sigma: float) -> SimpleNamespace:
    """Self-similar constants of the critical regime m + p = 2, sigma > 2."""
    alpha = (sigma + 2.0) / ((sigma - 2.0) * (m - 1.0))
    beta = 2.0 / (sigma - 2.0)
    boa = 2.0 * (m - 1.0) / (sigma + 2.0)
    return SimpleNamespace(
        m=m,
        sigma=sigma,
        alpha=alpha,
        beta=beta,
        boa=boa,
        xi_max=(beta * beta / (4.0 * m)) ** (1.0 / (sigma - 2.0)),
        z_max=(boa / 2.0) ** 2,
        p2=(
            (m - 1.0) ** 2 * (sigma - 2.0) / (2.0 * (m + 1.0) * (sigma + 2.0)),
            (m - 1.0) * (sigma - 2.0) / ((m + 1.0) * (sigma + 2.0)),
            0.0,
        ),
    )


def _close(a, b, rel=1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_exit(code: int, expected: int = 0) -> list[str]:
    return [] if code == expected else ["exit code %s, expected %s" % (code, expected)]


def check_params(res: dict, m: float, sigma: float) -> list[str]:
    cf = closed_forms(m, sigma)
    bad = []
    for key in ("alpha", "beta", "xi_max", "z_max"):
        if not _close(res[key], getattr(cf, key)):
            bad.append("%s = %r, closed form %r" % (key, res[key], getattr(cf, key)))
    if not all(_close(a, b) for a, b in zip(res["P2"], cf.p2)):
        bad.append("P2 = %r, closed form %r" % (res["P2"], cf.p2))
    if not (_close(res["parabola_lambda_range"][0], -cf.boa) and res["parabola_lambda_range"][1] == 0.0):
        bad.append("parabola lambda range %r" % (res["parabola_lambda_range"],))
    return bad


def interface_xi(lam: float, cf) -> float:
    """Interface location of the profile entering the parabola point P0^lambda."""
    return (cf.alpha**2 / cf.m * (-lam * (lam + cf.boa))) ** (1.0 / (cf.sigma - 2.0))


def check_fate(kind, lam, point, event_ids, m, sigma, expected, xi0=None) -> list[str]:
    """Fate kind plus its certificate.

    expected is a tuple of admissible kinds.  A parabola-side fate needs
    lambda_hat strictly inside (-beta/alpha, 0) and an interface no further
    out than xi_max; a Q3 fate needs the terminal midplane hit above the
    vertex height z_max.
    """
    cf = closed_forms(m, sigma)
    if kind not in expected:
        return ["fate %s, expected one of %s" % (kind, expected)]
    bad = []
    if kind in PARABOLA_SIDE:
        if lam is None or not -cf.boa < lam < 0.0:
            return ["lambda_hat %r outside (%r, 0)" % (lam, -cf.boa)]
        xi_cf = interface_xi(lam, cf)
        if xi_cf > cf.xi_max + XI_SLACK:
            bad.append("xi0 %r beyond xi_max %r" % (xi_cf, cf.xi_max))
        if xi0 is not None and not _close(xi0, xi_cf, 1e-9):
            bad.append("reported xi0 %r, closed form %r" % (xi0, xi_cf))
    elif kind == Q3:
        if not event_ids or event_ids[-1] != "midplane":
            bad.append("Q3 fate without a terminal midplane hit: %r" % (event_ids,))
        elif point is None or not point[2] > cf.z_max:
            bad.append("midplane hit Z %r not above z_max %r" % (None if point is None else point[2], cf.z_max))
        elif abs(point[1] + cf.boa / 2.0) > 1e-8:
            bad.append("midplane hit Y %r off -beta/(2 alpha) %r" % (point[1], -cf.boa / 2.0))
    return bad


def check_orbit_fate(fate, m, sigma, expected) -> list[str]:
    """check_fate on an ssblow OrbitFate."""
    events = [e[0] for e in fate.diagnostics.get("events", [])]
    return check_fate(fate.kind, fate.lambda_hat, fate.entry_point, events, m, sigma, expected)


def check_sigma_star(res, m: float, tol: float) -> list[str]:
    """Bracket no wider than tol, decisive opposite fates at its final ends
    (read from the evaluation trace), and sigma* inside the acceptance range
    at m = 1.5."""
    lo, hi = res.bracket
    bad = []
    if not hi - lo <= tol:
        bad.append("bracket width %r exceeds tol %r" % (hi - lo, tol))
    if not lo <= res.sigma_star <= hi:
        bad.append("sigma* %r outside its bracket" % res.sigma_star)
    last = {}
    for sig, _budget, kind, _lam in res.evaluations:
        if kind != "inconclusive":
            last[sig] = kind
    ends = (last.get(lo), last.get(hi))
    # decisive kinds are parabola-side or Q3, so opposite means exactly one Q3
    if None in ends or sum(k == Q3 for k in ends) != 1:
        bad.append("bracket end fates %r are not decisive and opposite" % (ends,))
    if m == 1.5 and not SIGMA_STAR_15[0] <= res.sigma_star <= SIGMA_STAR_15[1]:
        bad.append("sigma*(1.5) = %r outside %r" % (res.sigma_star, SIGMA_STAR_15))
    return bad


def check_interface(fate, xi0, g_slope, m, sigma, slope_tol=None) -> list[str]:
    """Interface fate inside xi_max whose pressure slope solves
    g'^2 + beta xi0 g' + m xi0^sigma = 0: to a residual below 1e-3
    (criterion 9), or, given slope_tol, to within slope_tol of a root."""
    cf = closed_forms(m, sigma)
    if fate != "interface":
        return ["profile fate %s, expected interface" % fate]
    bad = []
    if not xi0 <= cf.xi_max + XI_SLACK:
        bad.append("xi0 %r beyond xi_max %r" % (xi0, cf.xi_max))
    q = g_slope**2 + cf.beta * xi0 * g_slope + m * xi0**sigma
    if slope_tol is None:
        if not abs(q) < 1e-3:
            bad.append("interface quadratic residual %r" % q)
        return bad
    disc = (cf.beta * xi0) ** 2 - 4.0 * m * xi0**sigma
    roots = [(-cf.beta * xi0 + s * math.sqrt(max(disc, 0.0))) / 2.0 for s in (-1.0, 1.0)]
    if disc < -1e-6 or min(abs(g_slope - r) for r in roots) > slope_tol:
        bad.append("slope %r not within %r of an interface root %r" % (g_slope, slope_tol, roots))
    return bad


def check_below(name: str, value: float, limit: float) -> list[str]:
    return [] if value < limit else ["%s = %r, limit %r" % (name, value, limit)]


def check_verify(res: dict) -> list[str]:
    bad = [] if res["all_passed"] is True else ["verify reports all_passed = %r" % res["all_passed"]]
    for entry in res["barriers"]:
        if entry["n_violations"]:
            bad.append("barrier %s has %d violations" % (entry["barrier"], entry["n_violations"]))
    return bad


class FileLedger:
    """Checks emitted CSVs: an exact round trip through ssblow.io, a
    byte-identical second write, and the same bytes every time the same
    file is written again within one run."""

    def __init__(self):
        self.digests = {}

    def check_csv(self, path, kind: str, io_mod, read=None, expected=None) -> list[str]:
        """kind is "trajectory" or "profile"; read, if given, holds the arrays
        already read back from the file, expected the in-memory arrays the
        file was written from."""
        with open(path, "rb") as fh:
            first = fh.read()
        again = str(path) + ".again"
        if kind == "trajectory":
            arrays = read or io_mod.read_trajectory_csv(path)
            io_mod.write_trajectory_csv(again, SimpleNamespace(eta=arrays[0], points=arrays[1]))
        else:
            arrays = read or io_mod.read_profile_csv(path)
            io_mod.write_profile_csv(again, SimpleNamespace(xi=arrays[0], f=arrays[1], df=arrays[2]))
        with open(again, "rb") as fh:
            second = fh.read()
        bad = []
        if expected is not None and not all(
            np.array_equal(a, np.asarray(b)) for a, b in zip(arrays, expected)
        ):
            bad.append("%s does not round-trip exactly" % path)
        if first != second:
            bad.append("%s is not byte-identical on a second write" % path)
        digest = hashlib.sha256(first).hexdigest()
        if self.digests.setdefault(str(path), digest) != digest:
            bad.append("%s changed bytes between passes" % path)
        return bad
