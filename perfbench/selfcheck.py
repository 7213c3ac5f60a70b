"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Every correctness check rejects a wrong answer (a flipped fate, a
   lambda_hat off the parabola, a wide bracket, a changed byte, ...) and
   accepts the right one.
2. The tracer agrees with the program's own records: on the m = 1.5 sigma*
   search it counts one integrate run per entry of the search's evaluation
   trace, one max_time termination per inconclusive evaluation, exactly
   six rhs calls per attempted step plus two per run, and one guard rhs
   call per stagnation-guard call.
3. Two traced passes of each workload give identical counts.

Prints what it found and exits 1 if any check failed.  Takes about a
minute and a half.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import numpy as np

import checks
import run
import spans
import workloads

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def rejects(problems, what):
    expect(bool(problems), "rejects " + what)


def accepts(problems, what):
    expect(not problems, "accepts %s %s" % (what, problems if problems else ""))


def check_the_checks(ctx) -> None:
    s = ctx.ssblow
    m, sigma = 1.5, 3.0
    cf = checks.closed_forms(m, sigma)
    pr = s.params.validate_params(m, sigma)

    params = {"alpha": cf.alpha, "beta": cf.beta, "xi_max": cf.xi_max, "z_max": cf.z_max,
              "P2": list(cf.p2), "parabola_lambda_range": [-cf.boa, 0.0]}
    accepts(checks.check_params(params, m, sigma), "closed-form constants")
    rejects(checks.check_params(dict(params, alpha=cf.alpha * (1 + 1e-9)), m, sigma), "a wrong alpha")

    _, fate = s.orbits.run_p2_orbit(pr)
    accepts(checks.check_orbit_fate(fate, m, sigma, ("enters_parabola",)), "the sigma=3 parabola fate")
    rejects(checks.check_orbit_fate(fate, m, sigma, (checks.Q3,)), "a flipped fate")
    rejects(checks.check_fate(fate.kind, 1e-3, None, [], m, sigma, checks.PARABOLA_SIDE),
            "lambda_hat above the parabola range")
    rejects(checks.check_fate(fate.kind, fate.lambda_hat, None, [], m, sigma, checks.PARABOLA_SIDE,
                              xi0=cf.xi_max * 1.01), "a reported xi0 off the closed form")
    pr34 = s.params.validate_params(m, 3.4)
    _, q3 = s.orbits.run_p2_orbit(pr34)
    accepts(checks.check_orbit_fate(q3, m, 3.4, (checks.Q3,)), "the sigma=3.4 Q3 fate")
    low = np.array(q3.entry_point, dtype=float)
    low[2] = checks.closed_forms(m, 3.4).z_max * 0.5
    rejects(checks.check_fate(q3.kind, None, low, ["midplane"], m, 3.4, (checks.Q3,)),
            "a midplane hit below z_max")

    res = s.profiles.integrate_ssode("p2", pr)
    accepts(checks.check_interface(res.fate, res.xi0, res.g_slope, m, sigma), "the p2 interface")
    rejects(checks.check_interface("sign_change", res.xi0, res.g_slope, m, sigma), "a sign-change fate")
    rejects(checks.check_interface(res.fate, res.xi0, res.g_slope + 0.05, m, sigma), "a slope off the quadratic")
    rejects(checks.check_interface(res.fate, res.xi0, res.g_slope + 0.05, m, sigma, 1e-2),
            "a slope off both roots")
    rejects(checks.check_interface(res.fate, cf.xi_max + 1e-3, res.g_slope, m, sigma, 1e-2),
            "an interface beyond xi_max")

    rejects(checks.check_below("cross-validation", 2e-4, 1e-4), "a criterion-8 error of 2e-4")
    rejects(checks.check_exit(3, 0), "exit code 3")
    rejects(checks.check_verify({"all_passed": False, "barriers": []}), "all_passed = false")
    rejects(checks.check_verify({"all_passed": True, "barriers": [{"barrier": "b", "n_violations": 1}]}),
            "a barrier violation")

    evals = [(3.0, 1.0, "enters_parabola", -0.03), (3.4, 1.0, checks.Q3, None),
             (3.2875, 1.0, "enters_vertex_neighborhood", -0.09), (3.288, 1.0, "inconclusive", None),
             (3.2884, 1.0, checks.Q3, None)]
    good = SimpleNamespace(bracket=(3.2875, 3.2884), sigma_star=3.28795, evaluations=evals)
    accepts(checks.check_sigma_star(good, 1.5, 1e-3), "a narrow opposite bracket")
    rejects(checks.check_sigma_star(SimpleNamespace(**dict(vars(good), bracket=(3.2875, 3.2890))), 1.5, 1e-3),
            "a bracket wider than tol")
    flipped = [e if e[0] != 3.2884 else (3.2884, 1.0, "enters_parabola", -0.1) for e in evals]
    rejects(checks.check_sigma_star(SimpleNamespace(**dict(vars(good), evaluations=flipped)), 1.5, 1e-3),
            "bracket ends with the same fate")
    only_inconclusive = [e if e[0] != 3.2884 else (3.2884, 1.0, "inconclusive", None) for e in evals]
    rejects(checks.check_sigma_star(SimpleNamespace(**dict(vars(good), evaluations=only_inconclusive)), 1.5, 1e-3),
            "an inconclusive bracket end")
    far = SimpleNamespace(bracket=(3.3995, 3.4), sigma_star=3.39975,
                          evaluations=[(3.3995, 1.0, "enters_parabola", -0.1), (3.4, 1.0, checks.Q3, None)])
    rejects(checks.check_sigma_star(far, 1.5, 1e-3), "sigma*(1.5) outside [3.235, 3.335]")

    traj, _ = s.orbits.run_p2_orbit(pr34)
    path = ctx.workdir / "selfcheck.csv"
    ledger = checks.FileLedger()
    s.io.write_trajectory_csv(path, traj)
    accepts(ledger.check_csv(path, "trajectory", s.io, expected=(traj.eta, traj.points)), "an exact CSV")
    rejects(ledger.check_csv(path, "trajectory", s.io, expected=(traj.eta + 1e-12, traj.points)),
            "a CSV that lost digits")
    path.write_text(path.read_text().replace("eta,X,Y,Z\n0,", "eta,X,Y,Z\n0.0,", 1))
    rejects(ledger.check_csv(path, "trajectory", s.io), "a CSV whose second write differs")
    ledger = checks.FileLedger()
    s.io.write_trajectory_csv(path, traj)
    accepts(ledger.check_csv(path, "trajectory", s.io), "the first write of a CSV")
    s.io.write_trajectory_csv(path, s.orbits.run_p2_orbit(s.params.validate_params(m, 3.41))[0])
    rejects(ledger.check_csv(path, "trajectory", s.io), "a CSV whose bytes changed between passes")


def check_the_tracer(ctx) -> None:
    s = ctx.ssblow
    tr = spans.Tracer().install(s)
    tr.recording = True
    try:
        res = s.orbits.sigma_star(1.5, (3.0, 3.4), 1e-3)
    finally:
        tr.recording = False
        tr.uninstall()
    lm = spans.layer_metrics(tr)
    integ = [sp for sp in tr.spans if sp[spans.NAME] == "integrate"]
    inconclusive = sum(e[2] == "inconclusive" for e in res.evaluations)
    stagnation = sum(sp[spans.ATTRS]["guards"].get("stagnation", 0) for sp in integ)
    print("sigma-star at m = 1.5, seed 0: %d orbit runs, %d accepted and %g rejected steps, "
          "%d max_time terminations, %d guard rhs calls"
          % (lm["integrate.runs"], lm["integrate.steps"], lm["integrate.rejected_steps"],
             lm["integrate.term.max_time"], lm["field.guard_rhs_calls"]))
    expect(lm["integrate.runs"] == len(res.evaluations), "one integrate span per sigma* evaluation")
    expect(lm["orbits.runs_per_search"] == len(res.evaluations), "runs_per_search matches the evaluation trace")
    expect(lm["integrate.term.max_time"] == inconclusive, "one max_time termination per inconclusive evaluation")
    expect(all((sp[spans.ATTRS]["rhs"] - 2) % 6 == 0 for sp in integ), "6 rhs calls per attempted step, 2 per run")
    expect(lm["integrate.rejected_steps"] >= 0, "no negative rejected-step count")
    expect(lm["field.guard_rhs_calls"] == stagnation, "one guard rhs call per stagnation-guard call")
    expect(lm["integrate.samples"] >= lm["integrate.steps"], "a sample per accepted step or more")


def check_repeatable_counts(ctx) -> None:
    for name in workloads.WORKLOADS:
        wl = workloads.CLASSES[name](0, ctx)
        a, b = (run.run_pass(wl, ctx, traced=True) for _ in range(2))
        diff = {k: (a["layers"][k], b["layers"][k]) for k in spans.COUNTS if a["layers"][k] != b["layers"][k]}
        expect(not diff and a["failed"] == b["failed"] == 0,
               "%s: two traced passes give identical counts %s" % (name, diff or ""))


def main() -> int:
    with run.workspace() as ctx:
        check_the_checks(ctx)
        check_the_tracer(ctx)
        check_repeatable_counts(ctx)
    print("%d self-check(s) failed" % len(FAILURES) if FAILURES else "all self-checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
