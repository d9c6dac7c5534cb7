"""bpviral benchmark: one closed-loop client runs a workload's task list in
rounds for a fixed time, checks every output, and prints its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc_replicate --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates traced
and untraced rounds and prints the per-layer metrics instead.  ``--smoke``
runs one round at tiny sizes.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The program is
imported from ``src/`` of the checkout the script sits in.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("mc_replicate", "mean_field_design", "cli_sweep")
TAIL_BEYOND = 10
SETUP_PROBES = 7
MIN_ROUNDS = 3
# Nominal seconds of one pass of workloads.reference_seconds' loop: its
# time on a quiet 2-vCPU Xeon (Python 3.11, numpy 2).  Task times are
# reported at this pace.
REFERENCE_S = 0.002

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "task_p50_ms": "ms",
             "task_tail_ms": "ms", "events_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one round at tiny sizes (size-dependent references skipped)")
    return p.parse_args(argv)


def import_program():
    """Import bpviral from this checkout's src/, and from nowhere else."""
    if not (SRC / "bpviral" / "__init__.py").is_file():
        raise SystemExit(f"error: no bpviral sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bpviral
    if Path(bpviral.__file__).resolve().parent != (SRC / "bpviral").resolve():
        raise SystemExit(f"error: bpviral imported from {bpviral.__file__}, not {SRC}")


def setup_seconds(workload, probes):
    samples = []
    for _ in range(probes):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def tail(durations, guaranteed):
    """(percentile, value): the highest nearest-rank percentile with at
    least TAIL_BEYOND tasks beyond it among the ``guaranteed`` tasks that
    the minimum number of rounds runs.  The percentile is thus fixed per
    workload."""
    if guaranteed <= TAIL_BEYOND:
        return 0.0, min(durations)
    pct = 100.0 * (guaranteed - TAIL_BEYOND) / guaranteed
    return pct, sorted(durations)[math.ceil(pct / 100.0 * len(durations)) - 1]


def run_rounds(ctx, workload, seconds, min_rounds, tracer):
    """Run whole rounds while another one fits in ``seconds`` (judged by the
    median round so far); with a tracer, every other round is traced.
    Returns [(traced, task seconds), ...]."""
    rounds, lengths = [], []
    t0 = perf_counter()
    while (len(rounds) < min_rounds
           or perf_counter() - t0 + statistics.median(lengths) <= seconds):
        started = perf_counter()
        ctx.round = len(rounds)
        traced = tracer is not None and ctx.round % 2 == 1
        if traced:
            tracer.install(ctx.m)
            ctx.tracer = tracer
        first = len(ctx.tasks)
        try:
            workload.round(ctx)
        finally:
            if traced:
                tracer.uninstall()
                ctx.tracer = None
        rounds.append((traced, sum(t.seconds for t in ctx.tasks[first:])))
        lengths.append(perf_counter() - started)
    return rounds


def task_times(ctx, plain):
    """Each task's time at the reference pace, in list order.

    The host this was tuned on slows by up to 2x for milliseconds to about
    a minute at a time, for reasons outside the benchmark's process.  Each call is
    therefore divided by the calibration loop timed around it (``pace``) and
    scaled to the loop's nominal REFERENCE_S, and a task's time is the
    median of that over the untraced rounds."""
    by_slot = {}
    for r in plain:
        for i, t in enumerate(t for t in ctx.tasks if t.round == r):
            by_slot.setdefault(i, []).append(REFERENCE_S * t.seconds / t.pace)
    return [statistics.median(v) for v in by_slot.values()]


def end_to_end(ctx, rounds, setup_s):
    plain = sorted(r for r, (traced, _) in enumerate(rounds) if not traced)
    times = task_times(ctx, plain)
    pct, tail_s = tail(times, len(times) * MIN_ROUNDS)
    wall_s = sum(times)
    metrics = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "task_p50_ms": 1e3 * statistics.median(times),
        "task_tail_ms": 1e3 * tail_s,
        "events_per_s": statistics.median(ctx.events.get(r, 0) for r in plain) / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    paces = [t.pace for t in ctx.tasks if t.round in plain]
    notes = {"tail percentile": f"p{pct:.2f} of {len(times)} tasks, each the median "
                                f"of {len(plain)} rounds",
             "round seconds": " ".join(f"{rounds[r][1]:.3f}" for r in plain),
             "calibration loop": f"median {1e3 * statistics.median(paces):.3f} ms, "
                                 f"nominal {1e3 * REFERENCE_S:.3f} ms"}
    return metrics, notes


def per_layer(ctx, rounds, tracer):
    traced = [s for t, s in rounds if t]
    plain = [s for t, s in rounds if not t]
    metrics = tracing.layer_metrics(tracer, len(traced), getattr(ctx, "viral_reach", 1),
                                    tuple(ctx.tally["learn"]), ctx.cli)
    metrics.update(tracing.source_lines(SRC))
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    notes = {"rounds": f"{len(traced)} traced, {len(plain)} untraced",
             "spans": len(tracer.spans)}
    return metrics, notes


def unit_of(name):
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    for suffix, unit in (("_per_s", "1/s"), ("self_s", "s"), ("ms_per_sweep", "ms"),
                         ("ms_per_call", "ms"), (".calls", "count"), (".lines", "lines"),
                         ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workload = workloads.WORKLOADS[args.workload]
    setup_s = setup_seconds(args.workload, 1 if args.smoke else SETUP_PROBES)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        ctx = workloads.Context(args.seed, sizes, workdir)
        workload.prepare(ctx)
        workload.setup(ctx)
        tracer = tracing.Tracer() if args.trace else None
        min_rounds = (2 if args.trace else 1) if args.smoke else MIN_ROUNDS
        seconds = 0.0 if args.smoke else args.seconds
        rounds = run_rounds(ctx, workload, seconds, min_rounds, tracer)
        verdicts = workload.verdicts(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
        metrics, notes = per_layer(ctx, rounds, tracer)
    else:
        metrics, notes = end_to_end(ctx, rounds, setup_s)

    errors = [t.error for t in ctx.tasks if t.error]
    attempted = len(ctx.tasks)
    print(f"bpviral benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}{', smoke' if args.smoke else ''}")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit_of(name)}")
    notes["failed_fraction"] = f"{len(errors)}/{attempted} = {len(errors) / attempted:.4g}"
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for problem in (errors[:5] + verdicts):
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": not errors and not verdicts,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
