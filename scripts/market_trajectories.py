#!/usr/bin/env python3
"""Compare simulated share trajectories of a saturating post against the
closed forms, and print the headline metrics.

Writes market_trajectories.csv with columns n,a_sim,c_sim,a_cf,c_cf.
"""

import argparse
import sys

from bpviral.market import SNAP_FIT, TefParams, closed_form, metrics, simulate_stpbp


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m-bar", type=float, default=SNAP_FIT["m_bar"])
    ap.add_argument("--kappa1", type=float, default=SNAP_FIT["kappa1"])
    ap.add_argument("--kappa2", type=float, default=SNAP_FIT["kappa2"])
    ap.add_argument("--a-break", type=float, default=SNAP_FIT["a_break"])
    ap.add_argument("--rho", type=float, default=0.6)
    ap.add_argument("--a0", type=int, default=2)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", default="market_trajectories.csv")
    args = ap.parse_args(argv)

    params = TefParams(m_bar=args.m_bar, kappa1=args.kappa1, kappa2=args.kappa2,
                       a_break=args.a_break, rho=args.rho)
    m = metrics(params, a0=args.a0)
    print("metrics:", {k: round(v, 3) for k, v in m.items()})
    cf = closed_form(params, a0=args.a0)
    path = simulate_stpbp(params, a0=args.a0, max_events=1_000_000,
                          seed=args.seed, record_every=200)
    with open(args.out, "w") as fh:
        fh.write("n,a_sim,c_sim,a_cf,c_cf\n")
        for n, a, c in zip(path.epoch, path.a, path.c):
            fh.write(f"{n},{a},{c},{cf.a_epoch(float(n)):.3f},"
                     f"{cf.c_epoch(float(n)):.3f}\n")
    print(f"simulated reach {path.a[-1]} vs predicted {m['max_reach']:.0f}; "
          f"simulated peak {path.c.max()} vs predicted {m['c_star']:.0f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
