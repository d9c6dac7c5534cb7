"""Seeded inputs for the benchmark workloads.

Everything the workloads feed to bpviral is drawn here from the workload
seed: a heavy-tailed edge list standing in for the SNAP Twitter graph, the
``wm``/``game`` parameter files the README examples name, and one seed per
task.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Post/population file of the README ``wm`` examples (naive users, 10 %
# adversaries, real-post target 0.05).
README_WM = {
    "post": {"m_f": 30, "eta_f": 0.52, "eta_r": 0.4, "eta_a": 0.55,
             "gamma": 0.1, "rho": 0.9, "alpha_x_f": 0.3, "alpha_y_f": 0.225,
             "alpha_x_r": 0.12, "alpha_y_r": 0.09},
    "mix": {"mu0": 0.25, "mu1": 0.15, "mu2": 0.5, "mua": 0.1},
    "delta": 0.05,
}

# Chung-Lu draws repeat edges between hubs; drawing this many more
# endpoint pairs than wanted lands the collapsed mean degree near its target.
_EDGE_OVERSAMPLE = 1.05


def task_seed(seed: int, *path: int) -> int:
    """32-bit seed of one task, keyed by the workload seed and the task's
    position (round, slot, ...); distinct positions give independent seeds."""
    return int(np.random.SeedSequence([int(seed), *map(int, path)]).generate_state(1)[0])


def rng_for(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def edge_list(seed: int, nodes: int, mean_degree: float = 30.0,
              tail_exponent: float = 2.5) -> tuple[np.ndarray, np.ndarray]:
    """Heavy-tailed undirected edge list with SNAP-style integer labels.

    Node weights follow a Pareto law with the given tail exponent, capped at
    an expected degree of 2 sqrt(nodes x mean_degree) so that one huge hub
    cannot swallow a seed-dependent share of the edges; both endpoints of
    each edge are drawn in proportion to weight (Chung-Lu), so degrees are
    heavy-tailed with a few large hubs.  Labels are distinct
    random integers below 1e9, as in the SNAP dumps.  Self-loops and repeated
    edges are kept: the parser is expected to drop them.
    """
    rng = rng_for(seed, 0xE06E)
    degree = rng.pareto(tail_exponent - 1.0, nodes) + 1.0
    degree *= mean_degree / degree.mean()
    degree = np.minimum(degree, 2.0 * np.sqrt(nodes * mean_degree))
    p = degree / degree.sum()
    pairs = int(nodes * mean_degree / 2 * _EDGE_OVERSAMPLE)
    u = rng.choice(nodes, pairs, p=p)
    v = rng.choice(nodes, pairs, p=p)
    labels = rng.choice(10**9, nodes, replace=False)
    return labels[u], labels[v]


def write_edge_list(path: Path, us: np.ndarray, vs: np.ndarray):
    """Write ``u v`` lines under a SNAP-style comment header."""
    body = "".join(f"{a} {b}\n" for a, b in zip(us.tolist(), vs.tolist()))
    path.write_text(f"# generated edge list\n# edges {len(us)}\n{body}")


def game_params(seed: int) -> dict:
    """One game configuration from the criterion-8 sampling law at d = 0.10
    (every such draw designs and verifies)."""
    rng = rng_for(seed, 0x6A3E)
    alpha_r = float(rng.uniform(0.25, 0.30))
    return {"alpha_r": alpha_r, "alpha_f": alpha_r / 0.9,
            "mua": float(rng.uniform(0.0, 0.2)),
            "p": float(rng.uniform(0.01, 0.49)), "theta": 0.75,
            "delta": alpha_r + 0.01, "resp_a": float(rng.uniform(2.0, 3.0))}


def write_param_files(workdir: Path, seed: int) -> dict:
    """The README's ``examples_wm.json`` and ``game.json``; returns their paths."""
    wm_path = workdir / "examples_wm.json"
    game_path = workdir / "game.json"
    wm_path.write_text(json.dumps(README_WM, indent=2) + "\n")
    game_path.write_text(json.dumps(game_params(seed), indent=2) + "\n")
    return {"wm": wm_path, "game": game_path}
