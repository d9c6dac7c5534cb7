#!/usr/bin/env python3
"""Sweep the adversary fraction and tabulate i-QoS for all four warning
mechanisms, for both the smart-user and naive-user benchmark configs.

Writes wm_iqos_curves.csv with columns profile,mua,eo,ea,eh,eh2.
"""

import argparse
import sys

import numpy as np

from bpviral.wm import (NAIVE_POST, SMART_POST, design_ea, design_eh, design_eh2,
                        naive_mix, optimize_eo, smart_mix)

# profile -> (post, user mix at adversary fraction mua, real-post target)
PROFILES = {
    "smart": (SMART_POST, smart_mix, 0.02),
    "naive": (NAIVE_POST, naive_mix, 0.05),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="wm_iqos_curves.csv")
    ap.add_argument("--mua-max", type=float, default=0.3)
    ap.add_argument("--steps", type=int, default=13)
    args = ap.parse_args(argv)

    rows = []
    for name, (post, make_mix, delta) in PROFILES.items():
        for mua in np.linspace(0.0, args.mua_max, args.steps):
            mua = round(float(mua), 6)
            mix = make_mix(mua)
            vals = {}
            vals["eo"] = optimize_eo(post, mix, delta).iqos
            if mua > 0:
                vals["ea"] = design_ea(post, mix, delta)[0].iqos
                vals["eh"] = design_eh(post, mix, delta).iqos
            else:
                vals["ea"] = vals["eh"] = vals["eo"]
            vals["eh2"] = design_eh2(post, mix, delta).iqos
            rows.append((name, mua, vals["eo"], vals["ea"], vals["eh"], vals["eh2"]))
            print(f"{name} mua={mua:.3f}: " +
                  " ".join(f"{k}={v:.4f}" for k, v in vals.items()))
    with open(args.out, "w") as fh:
        fh.write("profile,mua,eo,ea,eh,eh2\n")
        for r in rows:
            fh.write(",".join(str(v) for v in r) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
