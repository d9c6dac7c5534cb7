"""Time one set-up of a workload in a fresh interpreter.

Set-up is importing bpviral (and with it numpy and scipy), building the
workload's parameter sets and making its first calls.  Prints the seconds
taken.  ``run.py`` starts several of these and reports their median as
``setup_s``.

Usage, from the repository root: python3 perfbench/setup_probe.py <workload>
"""

import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    t0 = perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    ctx = workloads.Context(seed=0, sizes=workloads.FULL, workdir=None)
    workloads.WORKLOADS[sys.argv[1]].setup(ctx)
    print(perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
