"""The three benchmark workloads: seeded inputs and the operations of one pass.

Every workload is a closed loop with one client: one operation runs at a
time and the next starts when it has returned.  An operation's run() is
the timed part; its check() looks at the output afterwards, untimed.

Seed 0 gives exactly the reference inputs.  Any other seed jitters the
sigma values that sit away from the critical band (by up to 5e-3) and the
sigma* bracket ends (by up to 1e-6, small enough that every bisection
midpoint keeps its fate, so each seed does the same amount of work).
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import PARABOLA_SIDE, Q3

M = 1.5
WORKLOADS = ("cli-session", "sigma-star", "figures")
SIGMA_JITTER = 5e-3
BRACKET_JITTER = 1e-6
SEARCHES = ((1.5, (3.0, 3.4)), (1.3, (3.0, 4.0)), (1.8, (3.0, 4.0)))
SEARCH_TOL = 1e-3
SHOOT_SLOPE_TOL = 1e-2  # integrate_ssode's default slope_tol for matching an interface root
CLI_TIMEOUT_S = 150
CHILD = Path(__file__).resolve().parent / "cli_child.py"


def load_ssblow(root: Path):
    """Import ssblow from root/src and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    ssblow = importlib.import_module("ssblow")
    if Path(ssblow.__file__).resolve().parent != (src / "ssblow").resolve():
        raise ImportError("ssblow imported from %s, not from %s" % (ssblow.__file__, src))
    for sub in ("cli", "io", "orbits", "profiles", "integrate", "params"):
        importlib.import_module("ssblow." + sub)
    return ssblow


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


class Jitter:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.zero = seed == 0

    def __call__(self, value: float, amp: float) -> float:
        return value if self.zero else value + amp * (2.0 * self.rng.random() - 1.0)


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


class CliSession:
    """Each command a fresh `python -m ssblow.cli` process, as a user runs it."""

    def __init__(self, seed: int, ctx):
        self.ctx = ctx
        j = Jitter(seed)
        s3 = j(3.0, SIGMA_JITTER)
        s34 = j(3.4, SIGMA_JITTER)
        sweep = [j(s, SIGMA_JITTER) for s in (2.6, 3.0, 3.4)]
        self.inputs = {"sigma_3": s3, "sigma_34": s34, "sweep": sweep, "verify_seed": seed}
        common = ["--m", repr(M), "--format", "json"]
        traj_csv, profile_csv, verify_json = (str(ctx.workdir / n) for n in ("traj.csv", "profile.csv", "verify.json"))
        p_side, q3 = PARABOLA_SIDE, (Q3,)
        self.commands = [
            ("params", ["params", "--sigma", repr(s3)], lambda r: checks.check_params(r, M, s3)),
            ("classify-p2", ["classify", "--sigma", repr(s3), "--source", "p2", "--out", traj_csv],
             lambda r: self._fate(r, s3, ("enters_parabola",)) + ctx.ledger.check_csv(traj_csv, "trajectory", ctx.io)),
            ("classify-p2-q3", ["classify", "--sigma", repr(s34), "--source", "p2"],
             lambda r: self._fate(r, s34, q3)),
            ("classify-p0", ["classify", "--sigma", repr(s3), "--source", "p0", "--K", "0.3"],
             lambda r: self._fate(r, s3, ("enters_parabola",))),
            ("profile-p2", ["profile", "--sigma", repr(s3), "--origin", "p2", "--out", profile_csv],
             lambda r: self._profile(r, s3) + ctx.ledger.check_csv(profile_csv, "profile", ctx.io)),
            ("profile-p1", ["profile", "--sigma", repr(s3), "--origin", "p1", "--a-bracket", "1e-13", "1e-10"],
             lambda r: self._profile(r, s3)),
            ("verify", ["verify", "--sigma", repr(s3), "--all", "--n", "10000", "--seed", str(seed), "--out", verify_json],
             lambda r: checks.check_verify(r) + self._same_file(verify_json)),
            ("sweep", ["sweep", "--sigmas", ",".join(map(repr, sweep)), "--jobs", "1"],
             lambda r: self._sweep(r, sweep, (p_side, p_side, q3))),
        ]
        if seed != 0:
            random.Random(seed).shuffle(self.commands)
        self.commands = [(n, args + common, chk) for n, args, chk in self.commands]
        self.last_stdout = None

    def _fate(self, r, sigma, expected):
        pt = r["entry_point"]
        events = [e[0] for e in r["diagnostics"]["events"]]
        return checks.check_fate(r["fate"], r["lambda_hat"], pt, events, M, sigma, expected, r.get("xi0"))

    def _profile(self, r, sigma):
        slope_tol = SHOOT_SLOPE_TOL if "a_star" in r else None
        return checks.check_interface(r["fate"], r["xi0"], r["g_slope"], M, sigma, slope_tol) + checks.check_below(
            "ssode_residual", r["ssode_residual"], 1e-4)

    def _sweep(self, r, sigmas, expected):
        rows = r["rows"]
        if [row["sigma"] for row in rows] != sigmas:
            return ["sweep rows %r do not match the grid %r" % (rows, sigmas)]
        bad = []
        for row, exp in zip(rows, expected):
            if exp == (Q3,):  # the sweep payload carries no midplane point to certify
                if row["fate"] != Q3:
                    bad.append("sweep fate %s at sigma %r, expected %s" % (row["fate"], row["sigma"], Q3))
            else:
                bad += checks.check_fate(row["fate"], row["lambda_hat"], None, [], M, row["sigma"], exp, row["xi0"])
        return bad

    def _same_file(self, path):
        with open(path) as fh:
            text = fh.read()
        return [] if text == self.last_stdout else ["%s differs from the JSON on stdout" % path]

    def _run(self, args):
        ctx = self.ctx
        if ctx.tracer is None:
            argv = [sys.executable, "-m", "ssblow.cli"] + args
        else:
            dump = ctx.workdir / "spans.json"
            argv = [sys.executable, str(CHILD), str(dump)] + args
        proc = subprocess.run(argv, capture_output=True, text=True, env=ctx.env, cwd=ctx.workdir,
                              timeout=CLI_TIMEOUT_S)
        if ctx.tracer is not None:
            with open(dump) as fh:
                ctx.tracer.merge(json.load(fh))
        return proc

    def _checked(self, check):
        def run_check(proc):
            bad = checks.check_exit(proc.returncode, 0)
            if bad:
                return bad + [proc.stderr.strip()[-500:]]
            self.last_stdout = proc.stdout
            return check(json.loads(proc.stdout)["results"])
        return run_check

    def ops(self):
        return [Op(name, lambda a=args: self._run(a), self._checked(chk)) for name, args, chk in self.commands]


# ---------------------------------------------------------------------------
# sigma-star
# ---------------------------------------------------------------------------


class SigmaStar:
    """Three in-process bisections for the critical sigma at tol 1e-3."""

    def __init__(self, seed: int, ctx):
        self.ctx = ctx
        j = Jitter(seed)
        self.searches = [(m, (j(lo, BRACKET_JITTER), j(hi, BRACKET_JITTER))) for m, (lo, hi) in SEARCHES]
        self.inputs = {"brackets": self.searches, "tol": SEARCH_TOL}

    def ops(self):
        orbits = self.ctx.ssblow.orbits
        return [
            Op("sigma-star-m%g" % m,
               lambda m=m, br=br: orbits.sigma_star(m, br, SEARCH_TOL),
               lambda res, m=m: checks.check_sigma_star(res, m, SEARCH_TOL))
            for m, br in self.searches
        ]


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


class Figures:
    """The reference experiments of scripts/reproduce_figures.py plus the
    profile cross-validation and the interface runs, every trajectory and
    profile written with ssblow.io and read back."""

    # expected fates of the P2 orbit and its P0 / Q1 companions
    EXPECTED = {
        "3": (("enters_parabola",), ("enters_parabola",), ("enters_parabola",)),
        "3285": (PARABOLA_SIDE, ("enters_parabola",), (Q3,)),
        "34": ((Q3,), ("enters_parabola",), (Q3,)),
    }

    def __init__(self, seed: int, ctx):
        self.ctx = ctx
        j = Jitter(seed)
        # 3.285 lies in the critical band and is never jittered
        self.sigmas = {"3": j(3.0, SIGMA_JITTER), "3285": 3.285, "34": j(3.4, SIGMA_JITTER)}
        self.inputs = {"sigmas": self.sigmas}
        self.state = {}

    def _io_round_trip(self, name, kind, obj):
        io = self.ctx.io
        path = self.ctx.workdir / name
        if kind == "trajectory":
            io.write_trajectory_csv(path, obj)
            return path, io.read_trajectory_csv(path)
        io.write_profile_csv(path, obj)
        return path, io.read_profile_csv(path)

    def _check_file(self, path, kind, read, obj):
        expected = (obj.eta, obj.points) if kind == "trajectory" else (obj.xi, obj.f, obj.df)
        return self.ctx.ledger.check_csv(path, kind, self.ctx.io, read=read, expected=expected)

    def _orbit_op(self, tag, which):
        s = self.ctx.ssblow
        sigma = self.sigmas[tag]
        expected = self.EXPECTED[tag][which]
        name = ("orbit_sigma%s.csv", "companion0_sigma%s.csv", "companion1_sigma%s.csv")[which] % tag

        def run():
            pr = s.params.validate_params(M, sigma)
            if which == 0:
                traj, fate = s.orbits.run_p2_orbit(pr)
                self.state[tag] = traj
            elif which == 1:
                traj, fate = s.orbits.run_p0_orbit(0.3, 1e-5, pr, s.IntegrationControls(max_time=3e4))
            else:
                _, traj, fate = s.orbits.run_q1_orbit(pr, delta=1e-6, z0=1e-15)
            return traj, fate, self._io_round_trip(name, "trajectory", traj)

        def check(out):
            traj, fate, (path, read) = out
            return checks.check_orbit_fate(fate, M, sigma, expected) + self._check_file(path, "trajectory", read, traj)

        return Op("%s-sigma%s" % (("p2", "p0", "q1")[which], tag), run, check)

    def _xval_op(self):
        s = self.ctx.ssblow
        sigma = self.sigmas["3"]

        def run():
            pr = s.params.validate_params(M, sigma)
            frame = s.profiles.reconstruct_profile(self.state["3"], pr)
            ode = s.profiles.integrate_ssode("p2", pr, controls=s.IntegrationControls(max_step=0.005))
            grid = np.geomspace(max(frame.xi[0], ode.frame.xi[0]), min(frame.xi[-1], ode.frame.xi[-1]), 4000)
            fa = np.interp(grid, frame.xi, frame.f)
            fb = np.interp(grid, ode.frame.xi, ode.frame.f)
            rel = float(np.max(np.abs(fa - fb) / np.maximum(np.maximum(np.abs(fa), np.abs(fb)), 1e-300)))
            residual = s.profiles.ssode_residual(ode.frame, pr)
            self.ctx.xval_max_rel = rel
            files = [self._io_round_trip(n, "profile", f) for n, f in (("profile_sigma3.csv", frame), ("ssode_xval.csv", ode.frame))]
            return rel, residual, files, (frame, ode.frame)

        def check(out):
            rel, residual, files, frames = out
            bad = checks.check_below("criterion-8 max relative error", rel, 1e-4)
            bad += checks.check_below("ssode residual", residual, 1e-4)
            for (path, read), frame in zip(files, frames):
                bad += self._check_file(path, "profile", read, frame)
            return bad

        return Op("xval-sigma3", run, check)

    def _interface_op(self, origin, kwargs):
        s = self.ctx.ssblow
        sigma = self.sigmas["3"]

        def run():
            pr = s.params.validate_params(M, sigma)
            if origin == "shoot":
                _, res = s.profiles.find_good_profile_P1(pr, (1e-13, 1e-10), 1e-3 * (1e-10 - 1e-13))
            else:
                res = s.profiles.integrate_ssode(origin, pr, **kwargs)
            return res, self._io_round_trip("interface_%s.csv" % origin, "profile", res.frame)

        def check(out):
            res, (path, read) = out
            # the shooting result is only the closest computed approximation
            # of the interface, so its slope is held to the toolkit's
            # root-matching tolerance rather than the criterion-9 residual
            slope_tol = SHOOT_SLOPE_TOL if origin == "shoot" else None
            return checks.check_interface(res.fate, res.xi0, res.g_slope, M, sigma, slope_tol) + self._check_file(
                path, "profile", read, res.frame)

        return Op("interface-%s" % origin, run, check)

    def ops(self):
        ops = [self._orbit_op(tag, which) for tag in ("3", "3285", "34") for which in range(3)]
        ops.append(self._xval_op())
        for origin, kwargs in (("p2", {}), ("p0", {"K": 0.05}), ("p1", {"a": 1e-13}), ("shoot", {})):
            ops.append(self._interface_op(origin, kwargs))
        return ops


CLASSES = {"cli-session": CliSession, "sigma-star": SigmaStar, "figures": Figures}
