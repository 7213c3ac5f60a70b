#!/usr/bin/env python3
"""Empirical thresholds in sigma for a given diffusion exponent m.

Three quantities are reported:

  sigma_0  largest grid sigma at which every hypothesis inequality of the
           small-sigma confinement construction holds (the proof shows such
           a threshold exists without giving a value);
  sigma_*  the critical sigma where the orbit out of P2 switches from
           entering the parabola to escaping to Q3, found by the safeguarded
           two-sided secant of orbits.sigma_star on Z - z_max at each
           orbit's fate event, with the search's cost from its evaluation
           trace: its orbit runs, the reruns among them (a sigma run again
           under the search's controls after a first pass at looser
           tolerances) and their accepted steps;
  sigma_1  smallest grid sigma at which the large-sigma floor-plane
           certificate applies and the P2 orbit indeed escapes to Q3.
"""

import argparse
import sys

from ssblow.params import validate_params
from ssblow.orbits import (
    FATE_ONLY_CONTROLS,
    BracketError,
    FateKind,
    InconclusiveError,
    run_p2_orbit,
    sigma_star,
)
from ssblow.barriers import dregion_gates, empirical_sigma0, plane3_gate


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=float, default=1.5)
    ap.add_argument("--lo", type=float, default=None, help="sigma* search bracket low end")
    ap.add_argument("--hi", type=float, default=None, help="sigma* search bracket high end")
    ap.add_argument("--tol", type=float, default=1e-3)
    args = ap.parse_args(argv)
    m = args.m

    # numpy's linspace(2.001, 2.2, 400) to the bit, without numpy
    step = (2.2 - 2.001) / 399
    grid0 = [2.001 + i * step for i in range(399)] + [2.2]
    s0 = empirical_sigma0(m, grid0)
    print("m = %g" % m)
    if s0 is None:
        print("sigma_0: no grid point satisfies all confinement hypotheses")
    else:
        print("sigma_0 (empirical lower bound): %.6f" % s0)
        print("  gates there:", dregion_gates(validate_params(m, s0)))

    lo = args.lo if args.lo is not None else 2.5
    hi = args.hi if args.hi is not None else 4.0
    try:
        res = sigma_star(m, (lo, hi), args.tol)
        runs = len(res.evaluations)
        print("sigma_* = %.6f (bracket %.6f..%.6f, %d orbit runs, %d reruns, %d accepted steps)" % (
            res.sigma_star, res.bracket[0], res.bracket[1], runs,
            runs - len({sig for sig, _, _, _ in res.evaluations}),
            sum(n_steps for _, n_steps, _, _ in res.evaluations)))
    except (InconclusiveError, BracketError) as exc:
        print("sigma_* search failed on (%.3f, %.3f): %s" % (lo, hi, exc))

    print("sigma_1 scan (floor-plane certificate + Q3 escape):")
    sigma1 = None
    for sigma in (5.0 + 0.5 * i for i in range(23)):
        pr = validate_params(m, sigma)
        gate = plane3_gate(pr)
        applicable = gate["exit_vector_above_plane"] and gate["x_star3_below_x_p2"]
        if not applicable:
            continue
        _, fate = run_p2_orbit(pr, FATE_ONLY_CONTROLS, delta=None)
        print("  sigma=%-5g certificate=on fate=%s" % (sigma, fate.kind))
        if fate.kind == FateKind.ENTERS_Q3 and sigma1 is None:
            sigma1 = sigma
    if sigma1 is None:
        print("sigma_1: not found on the scanned grid")
    else:
        print("sigma_1 (smallest grid sigma with certificate and escape): %.2f" % sigma1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
