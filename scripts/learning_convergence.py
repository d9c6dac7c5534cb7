#!/usr/bin/env python3
"""Fractions of learning runs whose mechanism reaches the perfect-knowledge
i-QoS within 0.05, as a function of the sample budget."""

import argparse
import sys
from functools import partial

from bpviral.bp_core import replicate
from bpviral.wm import NAIVE_POST, design_eh2, learned_design, naive_mix
from bpviral.wm_dynamics import LearnConfig, learn_wm


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=int, default=50)
    ap.add_argument("--budgets", default="10000,25000,50000,75000,100000")
    ap.add_argument("--mua", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=61_000)
    args = ap.parse_args(argv)

    post = NAIVE_POST
    mix = naive_mix(args.mua)
    perfect = design_eh2(post, mix, 0.05, iqos=True)
    print(f"perfect-knowledge i-QoS: {perfect.iqos:.4f}")
    kappa = 1 - post.alpha_y_r / post.alpha_x_r + 1e-3
    for budget in (int(b) for b in args.budgets.split(",")):
        cfg = LearnConfig(budget=budget, kappa=kappa)
        hits = 0
        for res in replicate(partial(learn_wm, cfg, post, mix, 0.05), args.seed, args.runs):
            d = learned_design(res.w, res.b, post, mix, 0.05, iqos=True)
            hits += abs(d.iqos - perfect.iqos) <= 0.05
        print(f"budget {budget:>7d}: fraction within 0.05 = {hits / args.runs:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
