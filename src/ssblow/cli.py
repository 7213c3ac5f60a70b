"""Command-line front end for the blow-up profile toolkit.

Subcommands: params, classify, sigma-star, profile, verify, sweep.
Exit codes: 0 success, 2 usage or configuration error, 3 numerically
inconclusive outcome, 4 verification violation.  Option precedence is
flags > config file (key=value lines) > built-in defaults; every emitted
file is byte-stable given the same configuration and seed.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace

from . import __version__
from .params import (
    ParameterError,
    derive_exponents,
    interface_xi_of_lambda,
    lambda_range,
    p2_coordinates,
    validate_params,
)
from .integrate import IntegrationControls
from .orbits import (
    FATE_ONLY_CONTROLS,
    FateKind,
    InconclusiveError,
    run_p0_orbit,
    run_p2_orbit,
    run_q1_orbit,
    sigma_star,
)
from .profiles import (
    _MAX_S_STEP,
    find_good_profile_P1,
    integrate_ssode,
    reconstruct_profile,
    ssode_residual,
)
from .barriers import ConfigurationError, barrier_catalog, verify_barrier
from . import io as io_mod

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_VIOLATION = 4

_SIGMA_FLOOR = 2.0 + 1e-3  # refuse nearly-degenerate exponents on the CLI
_K_DEFAULT = 0.05  # the tail coefficient of classify --source p0 and profile --origin p0
_K_HELP = "tail coefficient K of the p0 profile f ~ K xi^((sigma+2)/(2(m-1))) (default %g)" % _K_DEFAULT
# the values a store_true config key may take, in any case
_CONFIG_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
                    "0": False, "false": False, "no": False, "off": False}


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError("config line without '=': %r" % line)
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _set_config_defaults(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Install the config file's values as the subcommand's own defaults.

    Parsing argv again then gives flags > config file > defaults, and
    argparse converts each value with its option's type.  A list-valued
    key that a flag sets (args is the parse without the file) keeps no
    default: argparse would append the flag's values to the file's list.
    """
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = subparsers.choices[args.cmd]
    options = {a.dest: a for a in sub._actions if a.default is not argparse.SUPPRESS}
    defaults = {}
    for key, raw in _read_config_file(args.config).items():
        action = options.get(key)
        if action is None:
            raise ValueError("unknown config key %r" % key)
        if action.choices is not None and raw not in action.choices:
            raise ValueError("config key %r must be one of %s" % (key, list(action.choices)))
        if action.nargs == 0:  # store_true
            if raw.lower() not in _CONFIG_BOOLEANS:
                raise ValueError("config key %r must be one of %s" % (key, sorted(_CONFIG_BOOLEANS)))
            defaults[key] = _CONFIG_BOOLEANS[raw.lower()]
        elif action.nargs is None and not isinstance(action, argparse._AppendAction):
            defaults[key] = raw  # argparse converts an unused string default itself
        elif getattr(args, key) == action.default:
            defaults[key] = [action.type(v) if action.type else v for v in raw.split()]
    sub.set_defaults(**defaults)


def _controls_from(args, base: IntegrationControls = IntegrationControls()) -> IntegrationControls:
    """base with the tolerances, step cap and time budget of the flags that
    hold a value."""
    flags = {k: getattr(args, k) for k in ("rel_tol", "abs_tol", "max_step", "max_time")}
    return replace(base, **{k: v for k, v in flags.items() if v is not None})


def _controls_config(c: IntegrationControls) -> dict:
    """The controls a flag sets, for a report's config block."""
    return {"rel_tol": c.rel_tol, "abs_tol": c.abs_tol, "max_step": c.max_step, "max_time": c.max_time}


def _validated(args):
    if args.sigma < _SIGMA_FLOOR:
        raise ParameterError(
            "sigma must exceed 2 (at least %.3f on the command line)" % _SIGMA_FLOOR
        )
    return validate_params(args.m, args.sigma)


def _report_skeleton(command: str, config: dict) -> dict:
    return {
        "schema": 1,
        "tool": "ssblow",
        "version": __version__,
        "command": command,
        "config": config,
        "results": {},
        "warnings": [],
    }


def _emit(report: dict, args, wall_time: float) -> None:
    if getattr(args, "format", "text") == "json":
        # wall time is reported on the human channel only; emitted payloads
        # stay byte-stable for identical (config, seed, version)
        sys.stdout.write(io_mod.dump_report(report))
        return
    res = report["results"]
    print("[%s] ssblow %s (%.2fs)" % (report["command"], report["version"], wall_time))
    for key, val in res.items():
        print("  %s: %s" % (key, val))
    for w in report["warnings"]:
        print("  warning: %s" % w)


def _add_common(p: argparse.ArgumentParser, sigma=True):
    p.add_argument("--m", type=float, required=True, help="diffusion exponent, 1 < m < 2")
    if sigma:
        p.add_argument("--sigma", type=float, required=True, help="weight exponent, sigma > 2")
    p.add_argument("--config", type=str, default=None, help="key=value config file")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_controls(p: argparse.ArgumentParser, base: IntegrationControls = IntegrationControls()):
    """Integration controls, for the commands that integrate, with the
    defaults of base."""
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=base.rel_tol)
    p.add_argument("--abs-tol", dest="abs_tol", type=float, default=base.abs_tol)
    p.add_argument("--max-step", dest="max_step", type=float, default=base.max_step)
    p.add_argument("--max-time", dest="max_time", type=float, default=base.max_time)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ssblow",
        description="Self-similar blow-up profiles of u_t=(u^m)_xx+|x|^sigma u^p at m+p=2",
    )
    ap.add_argument("--version", action="version", version="ssblow " + __version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("params", help="echo derived constants")
    _add_common(p)

    p = sub.add_parser("classify", help="launch an orbit and classify its fate")
    _add_common(p)
    _add_controls(p)
    p.add_argument("--source", choices=("p2", "p0", "q1"), default="p2")
    # the launch flags default to None, so that a flag the source does not
    # use can be refused; _cmd_classify resolves the defaults
    p.add_argument("--delta", type=float, default=None, help="launch offset (p2, q1; default 1e-6)")
    p.add_argument("--K", type=float, default=None, help=_K_HELP)
    p.add_argument(
        "--z0", type=float, default=None,
        help="launch height z0 (p0) or chart z (q1); default 1e-5",
    )
    p.add_argument("--out", type=str, default=None, help="trajectory CSV path")

    # sigma-star and sweep keep only fates, so they run under the fate-only
    # controls: no step cap, step ends only, a budget of 1e6
    p = sub.add_parser("sigma-star", help="find the critical sigma of the P2 orbit by a safeguarded secant")
    _add_common(p, sigma=False)
    _add_controls(p, FATE_ONLY_CONTROLS)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-3)

    p = sub.add_parser("profile", help="compute a profile f(xi) and its interface data")
    _add_common(p)
    _add_controls(p)
    p.add_argument("--origin", choices=("p2", "p1", "p0"), default="p2")
    p.add_argument("--a", type=float, default=None, help="f(0) for origin p1")
    p.add_argument(
        "--a-bracket", dest="a_bracket", type=float, nargs=2, default=None,
        help="bisect f(0) between differing fates (origin p1)",
    )
    p.add_argument("--a-tol", dest="a_tol", type=float, default=None)
    p.add_argument("--K", type=float, default=None, help=_K_HELP)
    p.add_argument(
        "--xi-start", dest="xi_start", type=float, default=None,
        help="start of the direct integration (default 1e-4; not with --via phase)",
    )
    p.add_argument("--via", choices=("ode", "phase"), default="ode",
                   help="direct profile-equation integration, or phase-space reconstruction"
                   " (origin p2 only)")
    p.add_argument("--out", type=str, default=None, help="profile CSV path")
    # the direct integration reads neither, so that a given one can be refused
    p.set_defaults(abs_tol=None, max_time=None)

    p = sub.add_parser("verify", help="verify barrier sign claims by seeded sampling")
    _add_common(p)
    p.add_argument("--all", action="store_true", help="check every barrier (the default without --barrier)")
    p.add_argument("--barrier", action="append", default=None, help="barrier id (repeatable)")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", type=str, default=None, help="verification JSON path")

    p = sub.add_parser("sweep", help="classify the P2 orbit across a sigma grid")
    _add_common(p, sigma=False)
    _add_controls(p, FATE_ONLY_CONTROLS)
    p.add_argument("--sigmas", type=str, required=True, help="comma-separated sigma grid")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at least 1")
    p.add_argument("--out", type=str, default=None, help="sweep CSV path")
    return ap


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------


def _cmd_params(args) -> tuple[int, dict]:
    pr = _validated(args)
    exp = derive_exponents(pr)
    p2 = p2_coordinates(pr)
    lo, _ = lambda_range(pr)
    report = _report_skeleton("params", {"m": pr.m, "sigma": pr.sigma})
    report["results"] = {
        "m": pr.m,
        "p": pr.p,
        "sigma": pr.sigma,
        "alpha": exp.alpha,
        "beta": exp.beta,
        "xi_max": exp.xi_max,
        "z_max": exp.z_max,
        "P2": list(p2),
        "parabola_lambda_range": [lo, 0.0],
        "vertex_lambda": lo / 2.0,
    }
    return EXIT_OK, report


# the launch flags each classify source uses, and their defaults
_LAUNCH_FLAGS = {"p2": ("delta",), "p0": ("K", "z0"), "q1": ("delta", "z0")}
_LAUNCH_DEFAULTS = {"delta": 1e-6, "K": _K_DEFAULT, "z0": 1e-5}


def _cmd_classify(args) -> tuple[int, dict]:
    pr = _validated(args)
    used = _LAUNCH_FLAGS[args.source]
    launch = {}
    for name, default in _LAUNCH_DEFAULTS.items():
        value = getattr(args, name)
        if name in used:
            launch[name] = default if value is None else value
        elif value is not None:
            sources = [s for s, names in _LAUNCH_FLAGS.items() if name in names]
            raise ParameterError("--%s needs --source %s" % (name, " or ".join(sources)))
    controls = _controls_from(args)
    config = {
        "m": pr.m, "sigma": pr.sigma, "source": args.source, **launch, **_controls_config(controls),
    }
    report = _report_skeleton("classify", config)
    if not args.out:
        # the report reads no sample, so the run stores its step ends only
        controls = replace(controls, sample_step=math.inf)
    if args.source == "p2":
        traj, fate = run_p2_orbit(pr, controls, delta=launch["delta"])
    elif args.source == "p0":
        traj, fate = run_p0_orbit(launch["K"], launch["z0"], pr, controls)
    else:
        chart_traj, traj, fate = run_q1_orbit(
            pr, delta=launch["delta"], z0=launch["z0"], controls=controls
        )
        if traj is None:
            traj = chart_traj
    report["results"] = {
        "fate": fate.kind,
        "lambda_hat": fate.lambda_hat,
        "entry_point": None if fate.entry_point is None else list(fate.entry_point),
        "diagnostics": fate.diagnostics,
    }
    if fate.lambda_hat is not None:
        report["results"]["xi0"] = interface_xi_of_lambda(fate.lambda_hat, pr)
    if args.out:
        io_mod.write_trajectory_csv(args.out, traj)
        report["results"]["trajectory_csv"] = args.out
    if fate.kind == FateKind.INCONCLUSIVE:
        report["warnings"].append("orbit fate is inconclusive: %s" % fate.diagnostics["reason"])
        return EXIT_INCONCLUSIVE, report
    return EXIT_OK, report


def _cmd_sigma_star(args) -> tuple[int, dict]:
    if min(args.lo, args.hi) < _SIGMA_FLOOR:
        raise ParameterError(
            "sigma must exceed 2: bracket must stay above %.3f" % _SIGMA_FLOOR
        )
    validate_params(args.m, args.lo)
    validate_params(args.m, args.hi)
    controls = _controls_from(args, FATE_ONLY_CONTROLS)
    config = {
        "m": args.m, "lo": args.lo, "hi": args.hi, "tol": args.tol,
        **_controls_config(controls),
    }
    report = _report_skeleton("sigma-star", config)
    res = sigma_star(args.m, (args.lo, args.hi), args.tol, controls)
    report["results"] = {
        "sigma_star": res.sigma_star,
        "bracket": [res.bracket[0], res.bracket[1]],
        "iterations": res.iterations,
        "fate_lo": res.fate_at_ends[0].kind,
        "fate_hi": res.fate_at_ends[1].kind,
        "evaluations": [
            {"sigma": s, "n_steps": n, "fate": k, "lambda_hat": lam}
            for (s, n, k, lam) in res.evaluations
        ],
    }
    return EXIT_OK, report


def _cmd_profile(args) -> tuple[int, dict]:
    pr = _validated(args)
    if args.via == "phase" and args.origin != "p2":
        raise ParameterError("--via phase needs --origin p2")
    if args.a_bracket is not None and args.origin != "p1":
        raise ParameterError("--a-bracket needs --origin p1")
    if args.a is not None and args.origin != "p1":
        raise ParameterError("--a needs --origin p1")
    if args.a is not None and args.a_bracket is not None:
        raise ParameterError("--a and --a-bracket exclude each other")
    if args.a_tol is not None and args.a_bracket is None:
        raise ParameterError("--a-tol needs --a-bracket")
    if args.K is not None and args.origin != "p0":
        raise ParameterError("--K needs --origin p0")
    if args.xi_start is not None and args.via == "phase":
        raise ParameterError("--xi-start needs --via ode")
    for name in ("abs_tol", "max_time"):
        if getattr(args, name) is not None and args.via == "ode":
            raise ParameterError("--%s needs --via phase" % name.replace("_", "-"))
    controls = _controls_from(args)
    config = {"m": pr.m, "sigma": pr.sigma, "origin": args.origin, "via": args.via}
    if args.a_bracket is not None:
        a_tol = args.a_tol if args.a_tol is not None else 1e-3 * (args.a_bracket[1] - args.a_bracket[0])
        config.update(a_bracket=args.a_bracket, a_tol=a_tol)
    elif args.origin == "p1":
        config["a"] = args.a
    if args.origin == "p0":
        config["K"] = _K_DEFAULT if args.K is None else args.K
    if args.via == "ode":
        config["xi_start"] = 1e-4 if args.xi_start is None else args.xi_start
        # the direct integration reads only rel_tol and the step cap, capped at 0.05
        config.update(rel_tol=controls.rel_tol, max_step=min(controls.max_step, _MAX_S_STEP))
    else:
        config.update(_controls_config(controls))
    report = _report_skeleton("profile", config)
    warnings = report["warnings"]

    if args.via == "phase":
        traj, fate = run_p2_orbit(pr, controls)
        frame = reconstruct_profile(traj, pr)
        results = {"fate": fate.kind, "lambda_hat": fate.lambda_hat, "n_samples": len(frame), **traj.record}
        if fate.lambda_hat is not None:
            results["xi0"] = interface_xi_of_lambda(fate.lambda_hat, pr)
        if not fate.decisive:
            warnings.append("phase orbit inconclusive")
            report["results"] = results
            return EXIT_INCONCLUSIVE, report
    elif args.a_bracket is not None:
        a_star, res = find_good_profile_P1(
            pr, tuple(args.a_bracket), config["a_tol"], controls, xi_start=config["xi_start"]
        )
        frame = res.frame
        results = {
            "a_star": a_star, "fate": res.fate, "xi0": res.xi0, "g_slope": res.g_slope,
            "n_samples": len(frame),
        }
    else:
        res = integrate_ssode(
            args.origin, pr, controls, a=args.a, K=config.get("K"), xi_start=config["xi_start"]
        )
        frame = res.frame
        results = {"fate": res.fate, "xi0": res.xi0, "g_slope": res.g_slope, "n_samples": len(frame)}
        if res.report is not None:
            results["interface_slopes"] = [res.report.slope_minus, res.report.slope_plus]
            results["discriminant"] = res.report.discriminant
            results["matched_slope"] = res.report.matched_slope
    if args.via == "ode":
        results.update(res.record)
    if len(frame) >= 5:
        results["ssode_residual"] = ssode_residual(frame, pr)
    if args.out:
        io_mod.write_profile_csv(args.out, frame)
        results["profile_csv"] = args.out
    report["results"] = results
    if "ssode_residual" not in results:
        warnings.append("the frame keeps %d samples, too few to test the profile equation" % len(frame))
        return EXIT_INCONCLUSIVE, report
    if not math.isfinite(results["ssode_residual"]):
        warnings.append("ssode_residual is not finite: a term of the profile equation overflows")
        return EXIT_INCONCLUSIVE, report
    return EXIT_OK, report


def _cmd_verify(args) -> tuple[int, dict]:
    pr = _validated(args)
    if args.all and args.barrier:
        raise ParameterError("--all and --barrier exclude each other")
    config = {
        "m": pr.m, "sigma": pr.sigma, "n": args.n, "seed": args.seed,
        "barriers": args.barrier or "all",
    }
    report = _report_skeleton("verify", config)
    catalog = {spec.id: spec for spec in barrier_catalog(pr)}
    if args.barrier:
        unknown = [b for b in args.barrier if b not in catalog]
        if unknown:
            raise ConfigurationError(
                "unknown barrier id(s) %s; catalog: %s" % (unknown, sorted(catalog))
            )
        ids = args.barrier
    else:
        ids = sorted(catalog)
    entries = []
    any_violation = False
    for bid in ids:
        rep = verify_barrier(catalog[bid], pr, args.n, args.seed)
        any_violation |= not rep.passed
        entries.append(
            {
                "barrier": bid,
                "expected": rep.expected,
                "applicable": rep.applicable,
                "gate": rep.gate_info,
                "samples_tested": rep.samples_tested,
                "n_violations": rep.n_violations,
                "worst_margin": rep.worst_margin,
            }
        )
    report["results"] = {"barriers": entries, "all_passed": not any_violation}
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(io_mod.dump_report(report))
    return (EXIT_VIOLATION if any_violation else EXIT_OK), report


def _sweep_one(task):
    """One sweep row: (sigma, fate, lambda_hat, xi0, run record), the P2
    orbit run from the series launch of fate-only runs."""
    m, sigma, controls = task
    pr = validate_params(m, sigma)
    traj, fate = run_p2_orbit(pr, controls, delta=None)
    lam = fate.lambda_hat
    xi0 = interface_xi_of_lambda(lam, pr) if lam is not None else None
    return sigma, fate.kind, lam, xi0, traj.record


def _cmd_sweep(args) -> tuple[int, dict]:
    sigmas = [float(s) for s in args.sigmas.split(",") if s.strip()]
    if not sigmas:
        raise ParameterError("empty sigma grid")
    if args.jobs < 1:
        raise ParameterError("--jobs must be at least 1")
    if min(sigmas) < _SIGMA_FLOOR:
        raise ParameterError(
            "sigma must exceed 2: grid must stay above %.3f" % _SIGMA_FLOOR
        )
    for sigma in sigmas:
        validate_params(args.m, sigma)
    controls = _controls_from(args, FATE_ONLY_CONTROLS)
    config = {"m": args.m, "sigmas": sigmas, "jobs": args.jobs, **_controls_config(controls)}
    report = _report_skeleton("sweep", config)
    tasks = [(args.m, s, controls) for s in sigmas]
    if args.jobs > 1:
        # imported here: concurrent.futures and multiprocessing would add
        # 15 to 25 ms to the start-up of every other command
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_one, tasks))
    else:
        rows = [_sweep_one(t) for t in tasks]
    report["results"] = {
        "rows": [
            {"sigma": s, "fate": k, "lambda_hat": lam, "xi0": xi0, **record}
            for (s, k, lam, xi0, record) in rows
        ]
    }
    inconclusive = [row[0] for row in rows if row[1] == FateKind.INCONCLUSIVE]
    if args.out:
        io_mod.write_sweep_csv(args.out, [row[:4] for row in rows])
        report["results"]["sweep_csv"] = args.out
    if inconclusive:
        report["warnings"].append("inconclusive fates at sigma = %s" % inconclusive)
        return EXIT_INCONCLUSIVE, report
    return EXIT_OK, report


_COMMANDS = {
    "params": _cmd_params,
    "classify": _cmd_classify,
    "sigma-star": _cmd_sigma_star,
    "profile": _cmd_profile,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _set_config_defaults(parser, args)
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    t0 = time.time()
    try:
        code, report = _COMMANDS[args.cmd](args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except InconclusiveError as exc:
        print("inconclusive: %s" % exc, file=sys.stderr)
        return EXIT_INCONCLUSIVE
    _emit(report, args, time.time() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
