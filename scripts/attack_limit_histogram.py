#!/usr/bin/env python3
"""Replicate the attack-model limit study: terminal proportions over many
runs against the predicted limit set, printed as a text histogram."""

import argparse
import sys

import numpy as np

from bpviral.bp_attack import AttackLimits, classify_regime_and_limits, terminal_beta_study
from bpviral.bp_core import PopulationState


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--e-xx", type=float, default=3.0)
    ap.add_argument("--e-xy", type=float, default=1.0)
    ap.add_argument("--e-yy", type=float, default=3.0)
    ap.add_argument("--e-yx", type=float, default=1.0)
    ap.add_argument("--replications", type=int, default=200)
    ap.add_argument("--events", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--init", type=int, default=5)
    args = ap.parse_args(argv)

    limits = AttackLimits(args.e_xx, args.e_xy, args.e_yy, args.e_yx)
    in_e, report = classify_regime_and_limits(limits)
    print(f"regime E: {in_e}; scalar limit set: "
          + ", ".join(f"{e.beta:.4f} ({e.kind})" for e in report.equilibria))
    res = terminal_beta_study(limits, args.replications, args.events, args.seed,
                              init=PopulationState(args.init, args.init,
                                                   args.init, args.init))
    betas = res["terminal_betas"]
    print(f"{len(betas)} surviving / {args.replications} runs; hover verdicts: "
          + ", ".join(f"{k} {v}" for k, v in res["hover_verdicts"].items()))
    hist, edges = np.histogram(betas, bins=20, range=(0, 1))
    peak = hist.max() if hist.max() else 1
    for h, lo in zip(hist, edges[:-1]):
        print(f"{lo:5.2f} | {'#' * int(50 * h / peak)} {h}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
