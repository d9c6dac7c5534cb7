"""Edge-list graphs, post propagation over them, and estimation of the
total-shares-dependent expected forwards (TeF) from replicated cascades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bp_core import make_rng, require, require_counts
from .market import TefParams


@dataclass
class Graph:
    """Undirected simple graph with contiguous internal ids.  Each neighbour
    list is strictly increasing with no self-loop, as ``build_graph`` makes
    it: contiguous slices of one array sorted by (node, neighbour).  A
    hand-built Graph with a repeated neighbour is outside that contract."""
    neighbors: list                  # list of np.ndarray per node
    node_ids: np.ndarray             # original labels, index = internal id

    @property
    def n_nodes(self) -> int:
        return len(self.neighbors)

    @property
    def n_edges(self) -> int:
        return sum(len(a) for a in self.neighbors) // 2

    @property
    def mean_degree(self) -> float:
        return 2.0 * self.n_edges / self.n_nodes if self.n_nodes else 0.0

    def internal_id(self, label) -> int:
        idx = np.searchsorted(self.node_ids, label)
        if idx >= len(self.node_ids) or self.node_ids[idx] != label:
            raise KeyError(f"unknown node id {label}")
        return int(idx)


def parse_graph(path) -> Graph:
    """Read a whitespace-separated edge list.

    Blank lines and lines starting with '#' are skipped; self-loops are
    dropped and duplicate edges are collapsed.  A line that is not two
    integers, or has a label outside int64, raises with its line number.
    """
    try:
        us, vs = _read_edges(path)
        # numpy converts each label with Python's int(), then checks int64
        us, vs = np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)
    except (ValueError, OverflowError):
        # read again, checked, to name the first line that is not two int()
        # labels inside int64
        _read_edges(path, lambda text: np.int64(int(text)))
        raise
    return build_graph(us, vs)


def _read_edges(path, label=None):
    """The two label columns, as strings, of the edge lines of ``path``; a
    line that is not two labels, or fails ``label``, raises naming it."""
    us, vs = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0][0] == "#":
                continue
            try:
                u, v = parts
                if label is not None:
                    label(u), label(v)
            except (ValueError, OverflowError):
                raise ValueError(f"malformed edge on line {lineno}: {line.strip()!r}") from None
            us.append(u)
            vs.append(v)
    return us, vs


def build_graph(us, vs) -> Graph:
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    keep = us != vs
    us, vs = us[keep], vs[keep]
    labels, ends = np.unique(np.concatenate([us, vs]), return_inverse=True)
    n, ui, vi = len(labels), ends[:len(us)], ends[len(us):]
    # key src * n + dst sorts as (src, dst) and fits in int64: n**2 < 2**63;
    # np.sort is about 20x faster on it than np.unique, which hashes it
    key = np.sort(np.concatenate([ui * n + vi, vi * n + ui]))
    src, dst = np.divmod(key[np.diff(key, prepend=-1) != 0], n)
    bounds = np.searchsorted(src, np.arange(n + 1)).tolist()
    return Graph(neighbors=[dst[i:j] for i, j in zip(bounds, bounds[1:])], node_ids=labels)


@dataclass
class CascadeLog:
    """Per-event record of one propagation run.  Every read consumes one
    unread copy, so ``c == a - epoch``."""
    epoch: np.ndarray
    reader: np.ndarray        # internal node id that woke up
    forwards: np.ndarray      # effective forwards at that event
    a: np.ndarray             # total shares after the event
    c: np.ndarray             # current (unread) shares after the event
    reach: int


def propagate_on_graph(graph: Graph, seeds, rho: float, rng: np.random.Generator) -> CascadeLog:
    """Run one cascade from ``seeds``, distinct internal ids in [0, n_nodes):
    a uniformly random holder of an unread copy wakes up, forwards to each
    neighbour independently with probability rho, and recipients who
    already hold the post are dropped.  Terminates when no unread copies
    remain.  Every draw comes from ``rng``."""
    seed_ids = [int(s) for s in seeds]
    require(seed_ids and len(set(seed_ids)) == len(seed_ids)
            and 0 <= min(seed_ids) <= max(seed_ids) < graph.n_nodes, "seeds", seed_ids,
            f"one or more distinct node ids in [0, {graph.n_nodes})")
    require(0 <= rho <= 1, "rho", rho, "in [0, 1]")
    holding = np.zeros(graph.n_nodes, dtype=bool)
    unread = list(seed_ids)
    holding[seed_ids] = True
    readers, forwards = [], []
    while unread:
        i = int(rng.integers(len(unread)))
        reader = unread[i]
        unread[i] = unread[-1]
        unread.pop()
        neigh = graph.neighbors[reader]
        sent = neigh[rng.random(len(neigh)) < rho]
        fresh = sent[~holding[sent]]          # simple graph: no repeats in sent
        holding[fresh] = True
        unread.extend(fresh.tolist())
        readers.append(reader)
        forwards.append(len(fresh))
    forwards = np.asarray(forwards, dtype=np.int64)
    a = len(seed_ids) + np.cumsum(forwards)
    epoch = np.arange(1, len(a) + 1, dtype=np.int64)
    return CascadeLog(epoch=epoch, reader=np.asarray(readers, dtype=np.int64),
                      forwards=forwards, a=a, c=a - epoch, reach=int(a[-1]))


def draw_seeds(graph: Graph, count: int, rng, name: str = "seeds_per_run") -> list:
    """``count`` distinct uniformly drawn internal ids to seed a cascade; a
    count below one or above the graph's node count fails naming ``name``."""
    require_counts(**{name: count})
    require(count <= graph.n_nodes, name, count, f"<= {graph.n_nodes} (the graph's nodes)")
    return rng.choice(graph.n_nodes, size=count, replace=False).tolist()


@dataclass
class TefFit:
    params: TefParams | None
    m_bar_hat: float
    a_centers: np.ndarray
    m_hat: np.ndarray
    weights: np.ndarray
    sse: float = math.inf

    @property
    def degenerate(self) -> bool:
        """No breakpoint gave kappa1 > kappa2 > 0: m_bar_hat is the weighted mean."""
        return self.params is None


def fit_two_slope(a_vals, m_vals, weights=None, rho: float = 1.0) -> TefFit:
    """Continuous two-segment weighted least squares with a breakpoint grid.

    The model m(a) = c0 + c1 a + c2 max(a - a_break, 0) is fit for every
    candidate breakpoint (the observed abscissas); the best fit satisfying
    kappa1 > kappa2 > 0 wins.  Estimates are reported at rho = 1, i.e.
    divided by the supplied rho.  Fewer than four points are not fit.
    """
    a_vals = np.asarray(a_vals, dtype=float)
    m_vals = np.asarray(m_vals, dtype=float)
    w = np.ones_like(a_vals) if weights is None else np.asarray(weights, dtype=float)
    best = TefFit(params=None, m_bar_hat=float("nan"), a_centers=a_vals, m_hat=m_vals,
                  weights=w)
    sw = np.sqrt(w)
    candidates = np.unique(a_vals)[1:-1] if len(a_vals) >= 4 else []
    for brk in candidates:
        X = np.column_stack([np.ones_like(a_vals), a_vals,
                             np.maximum(a_vals - brk, 0.0)])
        coef, *_ = np.linalg.lstsq(X * sw[:, None], m_vals * sw, rcond=None)
        c0, c1, c2 = coef
        resid = m_vals - X @ coef
        sse = float(np.dot(w * resid, resid))
        k1, k2 = -c1, -(c1 + c2)
        if not (k1 > k2 > 0 and c0 > 0):
            continue
        if sse < best.sse:
            best = TefFit(
                params=TefParams(m_bar=c0 / rho, kappa1=k1 / rho,
                                 kappa2=k2 / rho, a_break=float(brk), rho=1.0),
                m_bar_hat=c0 / rho,
                a_centers=a_vals, m_hat=m_vals, weights=w, sse=sse,
            )
    if best.degenerate and len(a_vals):
        best.m_bar_hat = float(np.average(m_vals, weights=w)) / rho
    return best


def estimate_tef(graph: Graph, rho: float, bin_width: int, runs: int,
                 seed: int, seeds_per_run: int = 2,
                 viral_threshold: int | None = None) -> TefFit:
    """Estimate the TeF curve from replicated cascades.

    Per bin of total shares (width ``bin_width``): accumulated effective
    forwards divided by accumulated transitions, over runs whose reach
    passes the virality threshold.  The binned curve is then fit by the
    deterministic two-segment least squares (a reproducible stand-in for a
    by-eye fit), reported at rho = 1.
    """
    require_counts(runs=runs, bin_width=bin_width)
    require(0 < rho <= 1, "rho", rho, "in (0, 1]")
    rng = make_rng(seed)
    bins, forwards = [], []
    for _ in range(runs):
        log = propagate_on_graph(graph, draw_seeds(graph, seeds_per_run, rng), rho, rng)
        if viral_threshold is None or log.reach >= viral_threshold:
            bins.append((log.a - log.forwards) // bin_width)   # by shares before the read
            forwards.append(log.forwards)
    if not bins:
        raise ValueError("insufficient data: no viral runs")
    bins = np.concatenate(bins)
    tr = np.bincount(bins)
    fw = np.bincount(bins, weights=np.concatenate(forwards))
    ks = np.flatnonzero(tr)
    return fit_two_slope((ks + 0.5) * bin_width, fw[ks] / tr[ks],
                         tr[ks].astype(float), rho=rho)
