#!/usr/bin/env python3
"""Reproduce the three reference experiments at m = 1.5 and emit their data.

Writes, under results/ (or --outdir):

  orbit_sigma3.csv        P2 orbit entering the critical parabola
  orbit_sigma3285.csv     P2 orbit entering the parabola next to the vertex,
                          at lambda_hat -0.0877, just outside the vertex band
                          (vertex at -beta/(2 alpha) = -0.0946)
  orbit_sigma34.csv       P2 orbit escaping to Q3 past the midplane
  companions_sigma<k>.csv a few orbits launched out of P0 and Q1 that frame
                          the P2 orbit in the same phase portrait
  profile_sigma3.csv      the compact-support profile carried by the sigma=3
                          orbit in physical variables (xi, f, f')

Each line that names a CSV also gives its row count and byte size.

Plotting recipe (matplotlib):

  import pandas as pd, matplotlib.pyplot as plt
  d = pd.read_csv("results/orbit_sigma3.csv")
  ax = plt.figure().add_subplot(projection="3d")
  ax.plot(d.X, d.Y, d.Z)
"""

import argparse
import pathlib
import sys

from ssblow.params import validate_params, derive_exponents, interface_xi_of_lambda
from ssblow.integrate import IntegrationControls
from ssblow.orbits import run_p0_orbit, run_p2_orbit, run_q1_orbit
from ssblow.profiles import reconstruct_profile
from ssblow import io as io_mod


def _written(path, rows) -> str:
    """path with the rows and bytes written to it."""
    return "%s (%d rows, %d bytes)" % (path, rows, path.stat().st_size)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=float, default=1.5)
    ap.add_argument("--outdir", type=str, default="results")
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for sigma, tag in ((3.0, "3"), (3.285, "3285"), (3.4, "34")):
        pr = validate_params(args.m, sigma)
        traj, fate = run_p2_orbit(pr)
        if tag == "3":
            connection = traj, fate, pr  # its profile is written below
        path = outdir / ("orbit_sigma%s.csv" % tag)
        io_mod.write_trajectory_csv(path, traj)
        lam = fate.lambda_hat
        xi0 = interface_xi_of_lambda(lam, pr) if lam is not None else None
        print(
            "sigma=%-6g fate=%-26s lambda_hat=%-12s xi0=%-12s -> %s"
            % (sigma, fate.kind, lam, xi0, _written(path, len(traj)))
        )

        # companion orbits below (out of P0) and above (out of Q1) the P2 orbit
        companions = []
        try:
            companions.append(run_p0_orbit(0.3, 1e-5, pr, IntegrationControls(max_time=3e4))[0])
        except Exception as exc:  # pragma: no cover - depends on parameters
            print("  P0 companion skipped: %s" % exc)
        try:
            _, phase_traj, _ = run_q1_orbit(pr, delta=1e-6, z0=1e-15)
            if phase_traj is not None:
                companions.append(phase_traj)
        except Exception as exc:  # pragma: no cover
            print("  Q1 companion skipped: %s" % exc)
        for i, comp in enumerate(companions):
            cpath = outdir / ("companion%d_sigma%s.csv" % (i, tag))
            io_mod.write_trajectory_csv(cpath, comp)
            print("  companion %d -> %s" % (i, _written(cpath, len(comp))))

    # physical profile of the sigma=3 connection
    traj, fate, pr = connection
    frame = reconstruct_profile(traj, pr)
    ppath = outdir / "profile_sigma3.csv"
    io_mod.write_profile_csv(ppath, frame)
    exp = derive_exponents(pr)
    # the orbit ends where its entry is certified, just short of the
    # interface, which lambda_hat locates
    print(
        "profile: %d samples up to xi = %.6f, interface at %.6f (bound %.6f) -> %s"
        % (len(frame), frame.xi[-1], interface_xi_of_lambda(fate.lambda_hat, pr), exp.xi_max, _written(ppath, len(frame)))
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
