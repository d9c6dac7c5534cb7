"""Branching process with attack and acquisition.

Each death of an i-type individual produces own-type offspring and removes
(attacks) up to the available number of other-type individuals, which are
acquired by the attacker's side.  The limit mean structure is governed by
the four nonnegative rates (e_xx, e_xy, e_yy, e_yx); the scalar proportion
field is a quadratic on (0,1) pinned to zero at the boundary, and the
regime split decides whether both boundary proportions attract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bp_core import (MeanModel, PopulationState, make_rng, replicate, require,
                      require_counts)
from .ode_engine import (ATTRACTOR, CONVERGED_ATTRACTOR, CONVERGED_SADDLE, HOVERING,
                         REPELLER, SADDLE, UNDECIDED, Equilibrium, EquilibriumReport,
                         hover_classify, lift_limits, make_h)


@dataclass(frozen=True)
class AttackLimits:
    e_xx: float
    e_xy: float
    e_yy: float
    e_yx: float

    def __post_init__(self):
        for name in ("e_xx", "e_xy", "e_yy", "e_yx"):
            require(0 <= getattr(self, name) < math.inf, name, getattr(self, name),
                    "finite and >= 0")
        require(self.e_xy > 0, "e_xy", self.e_xy, "> 0 (attack prominent at the limit)")

    @property
    def m_tilde(self) -> float:
        return self.e_xx + self.e_xy - self.e_yy + self.e_yx

    @property
    def m_inf(self) -> float:
        return self.e_xx - self.e_yy

    @property
    def in_regime_e(self) -> bool:
        """True when the y-side also attacks at the limit, or its own-type
        reproduction dominates the x-side's total; exactly then the
        all-x proportion is not the only attracting boundary."""
        return self.e_yx > 0 or (self.e_yx == 0 and self.e_xx + self.e_xy < self.e_yy)

    def limit_mean_matrix(self, beta) -> np.ndarray:
        """2x2 limit mean matrix at beta; entries take beta's shape."""
        lt1 = np.where(beta < 1.0, 1.0, 0.0)
        gt0 = np.where(beta > 0.0, 1.0, 0.0)
        return np.array([
            [self.e_xx + self.e_xy * lt1, -self.e_xy * lt1],
            [-self.e_yx * gt0, self.e_yy + self.e_yx * gt0],
        ])


def interior_repeller(limits: AttackLimits) -> float:
    """Unique zero of the quadratic field in (0,1); only exists in regime E."""
    e_yx, mt, mi = limits.e_yx, limits.m_tilde, limits.m_inf
    roots = []
    if mi == 0.0:
        if mt != 0.0:
            roots = [e_yx / mt]
    else:
        disc = mt * mt - 4.0 * mi * e_yx
        if disc >= 0:
            sq = math.sqrt(disc)
            roots = [(mt - sq) / (2.0 * mi), (mt + sq) / (2.0 * mi)]
    inside = [r for r in roots if 0.0 < r < 1.0]
    if len(inside) != 1:
        raise ValueError(
            f"internal consistency error: expected one interior root, got {inside}")
    return float(inside[0])


def classify_regime_and_limits(limits: AttackLimits):
    """Regime flag plus the full equilibrium report of the 4-D ratio ODE.

    In regime E both boundary proportions attract and the interior quadratic
    zero is a repeller (lifting to a q-attractor saddle); outside the regime
    only the all-x boundary attracts and the all-y point is the saddle.
    """
    in_e = limits.in_regime_e
    if in_e:
        beta_r = interior_repeller(limits)
        eqs = [
            Equilibrium(beta=0.0, kind=ATTRACTOR, basin=(0.0, beta_r)),
            Equilibrium(beta=beta_r, kind=REPELLER, basin=(beta_r, beta_r)),
            Equilibrium(beta=1.0, kind=ATTRACTOR, basin=(beta_r, 1.0)),
        ]
    else:
        eqs = [
            Equilibrium(beta=0.0, kind=REPELLER, basin=(0.0, 0.0)),
            Equilibrium(beta=1.0, kind=ATTRACTOR, basin=(0.0, 1.0)),
        ]
    report = EquilibriumReport(equilibria=eqs)
    return in_e, lift_limits(report, make_h(limits.limit_mean_matrix))


def attack_model(limits: AttackLimits) -> MeanModel:
    """Offspring law at the limit rates: a dying x-type draws Poisson(e_xx)
    own-type offspring and a Poisson(e_xy) attack, which captures at most the
    living y-type count into x; a dying y-type does the same with e_yy, e_yx.
    """
    e = limits

    def sampler(ptype, kind, state, rng):
        if ptype == "x":
            own_mean, att_mean, other = e.e_xx, e.e_xy, state.cy
        else:
            own_mean, att_mean, other = e.e_yy, e.e_yx, state.cx
        own = rng.poisson(own_mean)
        captured = min(rng.poisson(att_mean), other)
        return own + captured, -captured

    return MeanModel(limit_mean_matrix=limits.limit_mean_matrix, sampler=sampler)


def simulate_attack_betas(limits: AttackLimits, init: PopulationState,
                          max_events: int, seed: int,
                          record_every: int = 100) -> tuple[np.ndarray, bool]:
    """Fast single-replication run recording the proportion of x-type.

    Equivalent in law to the generic event loop on ``attack_model(limits)``
    (single death kind, unit rates).  Pre-drawn uniform and Poisson blocks,
    held as Python lists so the counts stay Python ints, keep the per-event
    cost low while both types live.  Once one type is gone it never returns
    (it has nothing to attack with and nothing left to lose), so the
    survivor moves by own - 1 per event and the rest of each block is one
    cumulative sum on the same draws.  Returns the beta recorded every
    ``record_every`` events and at the last one, and whether the final
    state is empty.
    """
    require_counts(max_events=max_events, record_every=record_every)
    init.validate()
    rng = make_rng(seed)
    cx, cy = init.cx, init.cy
    means = (limits.e_xx, limits.e_xy, limits.e_yy, limits.e_yx)
    betas = []
    buf = 1 << 14
    n = 0                                     # events run so far
    while n < max_events and cx + cy > 0:
        take = min(buf, max_events - n)
        if cx and cy or n + take < max_events:
            # all five blocks are drawn, read or not, so that the next block
            # starts at the same stream position whichever phase reads this one
            blocks = [rng.random(buf)] + [rng.poisson(m, buf) for m in means]
        else:
            # the last block of a one-type path: no draw after the survivor's
            # own offspring is read, so the stream stops there
            k = 0 if cx else 2
            blocks = ([rng.random(buf)] + [rng.poisson(m, buf) for m in means[:k]]
                      + [rng.poisson(means[k], take)])
        j = 0
        if cx and cy:
            u, own_x, att_x, own_y, att_y = (b.tolist() for b in blocks)
            # with both types alive an event loses at most one individual
            # of at least two, so the population cannot empty here
            while j < take and cx and cy:
                if u[j] * (cx + cy) < cx:     # an x-type individual dies
                    captured = att_x[j] if att_x[j] < cy else cy
                    cx += -1 + own_x[j] + captured
                    cy -= captured
                else:
                    captured = att_y[j] if att_y[j] < cx else cx
                    cy += -1 + own_y[j] + captured
                    cx -= captured
                j += 1
                if (n + j) % record_every == 0:
                    betas.append(cx / (cx + cy))
        n += j
        if j < take:          # one type left: beta is pinned at 1.0 or 0.0
            path = cx + cy + np.cumsum(blocks[1 if cx else 3][j:take] - 1)
            dead = np.flatnonzero(path == 0)
            run = int(dead[0]) + 1 if dead.size else take - j
            c = int(path[run - 1])
            # the grid records of these events; the extinction event records 0.0
            grid = (n + run) // record_every - n // record_every
            grid -= c == 0 and (n + run) % record_every == 0
            betas += [float(cx > 0)] * grid + [0.0] * (c == 0)
            cx, cy = (c, 0) if cx else (0, c)
            n += run
    if cx + cy > 0 and max_events % record_every:
        betas.append(cx / (cx + cy))
    return np.asarray(betas), bool(cx + cy == 0)


def terminal_beta_study(limits: AttackLimits, replications: int,
                        max_events: int, seed: int,
                        init: PopulationState | None = None) -> dict:
    """Replicated attack runs: terminal proportions and hover verdicts.

    Reports, per surviving replication, the terminal beta, a finite-sample
    hover verdict against the theoretical limit set of the regime, read from
    the proportions recorded every 200 events (a flag if hovering, and a
    count per verdict), and the first record at which one type was gone
    (beta exactly 0 or 1; -1 if both types lived to the end).
    ``bp_core.replicate`` runs the replications on their streams.
    """
    if init is None:
        init = PopulationState(cx=5, cy=5, ax=5, ay=5)
    in_e, report = classify_regime_and_limits(limits)
    targets = {e.beta: (ATTRACTOR if e.kind == ATTRACTOR else SADDLE)
               for e in report.equilibria}
    terminal, hovering, absorbed = [], [], []
    verdicts = dict.fromkeys((CONVERGED_ATTRACTOR, CONVERGED_SADDLE, HOVERING, UNDECIDED), 0)
    for betas, extinct in replicate(partial(simulate_attack_betas, limits, init, max_events,
                                            record_every=200), seed, replications):
        if extinct:
            continue
        terminal.append(float(betas[-1]))
        verdict = hover_classify(betas, targets)
        verdicts[verdict] += 1
        hovering.append(verdict == HOVERING)
        one_type = (betas == 0.0) | (betas == 1.0)
        absorbed.append(int(one_type.argmax()) if one_type.any() else -1)
    return {
        "in_regime_e": in_e,
        "limit_betas": sorted(targets),
        "terminal_betas": np.asarray(terminal),
        "hover_flags": np.asarray(hovering, dtype=bool),
        "hover_verdicts": verdicts,
        "absorbed_record": np.asarray(absorbed, dtype=int),
        "extinct": replications - len(terminal),
        "replications": replications,
    }
