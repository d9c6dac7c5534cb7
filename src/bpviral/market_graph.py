"""Edge-list graphs, post propagation over them, and estimation of the
total-shares-dependent expected forwards (TeF) from replicated cascades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bp_core import make_rng, require_counts
from .market import TefParams


@dataclass
class Graph:
    """Undirected simple graph with contiguous internal ids.  Each neighbour
    list is strictly increasing with no self-loop, as ``build_graph`` makes
    it; a hand-built Graph with a repeated neighbour is outside that contract."""
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

    Lines starting with '#' are skipped; self-loops are dropped and duplicate
    edges are collapsed.  A line that is not two integers raises with its
    line number.
    """
    us, vs = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if len(parts) != 2:
                    raise ValueError
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"malformed edge on line {lineno}: {line!r}") from None
            us.append(u)
            vs.append(v)
    return build_graph(us, vs)


def build_graph(us, vs) -> Graph:
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    loop = us == vs
    us, vs = us[~loop], vs[~loop]
    labels = np.unique(np.concatenate([us, vs])) if len(us) else np.array([], dtype=np.int64)
    ui = np.searchsorted(labels, us)
    vi = np.searchsorted(labels, vs)
    a = np.concatenate([ui, vi])
    b = np.concatenate([vi, ui])
    pairs = np.unique(np.stack([a, b], axis=1), axis=0) if len(a) else np.empty((0, 2), dtype=np.int64)
    # np.split of an empty array gives one chunk, so a graph of only
    # self-loops needs the explicit empty list
    neighbors = np.split(pairs[:, 1], np.searchsorted(
        pairs[:, 0], np.arange(1, len(labels)))) if len(labels) else []
    return Graph(neighbors=neighbors, node_ids=labels)


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


def propagate_on_graph(graph: Graph, seeds, rho: float, rng: np.random.Generator,
                       by_label: bool = True) -> CascadeLog:
    """Run one cascade: a uniformly random holder of an unread copy wakes
    up, forwards to each neighbour independently with probability rho, and
    recipients who already hold the post are dropped.  Terminates when no
    unread copies remain.  Every draw comes from ``rng``."""
    if not seeds:
        raise ValueError("need at least one seed")
    seed_ids = [graph.internal_id(s) if by_label else int(s) for s in seeds]
    if len(set(seed_ids)) != len(seed_ids):
        raise ValueError("seeds must be distinct")
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


@dataclass
class TefFit:
    params: TefParams | None
    degenerate: bool
    m_bar_hat: float
    a_centers: np.ndarray
    m_hat: np.ndarray
    weights: np.ndarray
    sse: float = math.inf


def fit_two_slope(a_vals, m_vals, weights=None, rho: float = 1.0) -> TefFit:
    """Continuous two-segment weighted least squares with a breakpoint grid.

    The model m(a) = c0 + c1 a + c2 max(a - a_break, 0) is fit for every
    candidate breakpoint (the observed abscissas); the best fit satisfying
    kappa1 > kappa2 > 0 wins.  Estimates are reported at rho = 1, i.e.
    divided by the supplied rho.
    """
    a_vals = np.asarray(a_vals, dtype=float)
    m_vals = np.asarray(m_vals, dtype=float)
    w = np.ones_like(a_vals) if weights is None else np.asarray(weights, dtype=float)
    best = TefFit(params=None, degenerate=True, m_bar_hat=float("nan"),
                  a_centers=a_vals, m_hat=m_vals, weights=w)
    if len(a_vals) < 4:
        if len(a_vals):
            best.m_bar_hat = float(np.average(m_vals, weights=w)) / rho
        return best
    sw = np.sqrt(w)
    candidates = np.unique(a_vals)[1:-1]
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
                degenerate=False,
                m_bar_hat=c0 / rho,
                a_centers=a_vals, m_hat=m_vals, weights=w, sse=sse,
            )
    if best.params is None:
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
    rng = make_rng(seed)
    bins, forwards = [], []
    for _ in range(runs):
        seeds = rng.choice(graph.n_nodes, size=seeds_per_run, replace=False)
        log = propagate_on_graph(graph, [int(s) for s in seeds], rho, rng,
                                 by_label=False)
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
