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

import numpy as np

from .bp_core import (MeanModel, OffspringSample, PopulationState, make_rng,
                      replication_seed, require_counts)
from .ode_engine import (ATTRACTOR, REPELLER, Equilibrium, EquilibriumReport,
                         ScalarField, lift_limits, make_h)


@dataclass(frozen=True)
class AttackLimits:
    e_xx: float
    e_xy: float
    e_yy: float
    e_yx: float

    def __post_init__(self):
        if min(self.e_xx, self.e_xy, self.e_yy, self.e_yx) < 0:
            raise ValueError("limit means must be nonnegative")
        if self.e_xy <= 0:
            raise ValueError("attack must be prominent at the limit: e_xy > 0")

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


def build_gbeta(limits: AttackLimits) -> ScalarField:
    """Scalar proportion field g(b) = (-e_yx + b m_tilde - b^2 m_inf) on (0,1),
    zero at both endpoints by the indicator; g takes a float or an array."""
    e_yx, mt, mi = limits.e_yx, limits.m_tilde, limits.m_inf

    def g(beta):
        inside = (beta > 0.0) & (beta < 1.0)
        return np.where(inside, -e_yx + beta * mt - beta * beta * mi, 0.0)[()]

    g.vectorized = True
    return ScalarField(g=g, kinks=[0.0, 1.0])


def h_limits(limits: AttackLimits):
    """Lift map h(beta) of the attack model (indicators taken at the point)."""
    return make_h(limits.limit_mean_matrix)


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
    return in_e, lift_limits(report, h_limits(limits))


def attack_model(limits: AttackLimits) -> MeanModel:
    """Mean model with population-independent Poisson own/attack draws at the
    limit means.

    The capped attack enters the conditional mean matrix as min(mean, count),
    matching the saturation of attacks when both populations are large.
    """
    e = limits

    def mean_matrix(phi):
        cx, cy = phi[0], phi[1]
        att_x = min(e.e_xy, float(cy))
        att_y = min(e.e_yx, float(cx))
        return np.array([
            [e.e_xx + att_x, -att_x],
            [-att_y, e.e_yy + att_y],
        ])

    def sampler(ptype, kind, state, rng):
        if ptype == "x":
            own_mean, att_mean, other = e.e_xx, e.e_xy, state.cy
        else:
            own_mean, att_mean, other = e.e_yy, e.e_yx, state.cx
        own = int(rng.poisson(own_mean))
        captured = min(int(rng.poisson(att_mean)), other)
        return OffspringSample(parent_type=ptype, own=own + captured, cross=-captured)

    return MeanModel(
        mean_matrix=mean_matrix,
        limit_mean_matrix=limits.limit_mean_matrix,
        sampler=sampler,
    )


def simulate_attack_betas(limits: AttackLimits, init: PopulationState,
                          max_events: int, seed: int,
                          record_every: int = 100) -> tuple[np.ndarray, bool]:
    """Fast single-replication run recording the proportion of x-type.

    Equivalent in law to the generic event loop on ``attack_model(limits)``
    (single death kind, unit rates).  Pre-drawn uniform and Poisson blocks,
    held as Python lists so the counts stay Python ints, keep the per-event
    cost low.  Returns the beta recorded every ``record_every`` events and
    at the last one, and whether the final state is empty.
    """
    require_counts(max_events=max_events, record_every=record_every)
    init.validate()
    rng = make_rng(seed)
    cx, cy = init.cx, init.cy
    betas = []
    buf = 1 << 14
    j = buf                                   # the first event draws a block
    for n in range(1, max_events + 1):
        s = cx + cy
        if s == 0:
            break
        if j >= buf:
            u = rng.random(buf).tolist()
            own_x = rng.poisson(limits.e_xx, buf).tolist()
            att_x = rng.poisson(limits.e_xy, buf).tolist()
            own_y = rng.poisson(limits.e_yy, buf).tolist()
            att_y = rng.poisson(limits.e_yx, buf).tolist()
            j = 0
        if u[j] * s < cx:     # an x-type individual dies
            captured = att_x[j] if att_x[j] < cy else cy
            cx += -1 + own_x[j] + captured
            cy -= captured
        else:
            captured = att_y[j] if att_y[j] < cx else cx
            cy += -1 + own_y[j] + captured
            cx -= captured
        j += 1
        if n % record_every == 0 or cx + cy == 0:
            betas.append(cx / (cx + cy) if cx + cy > 0 else 0.0)
    if cx + cy > 0 and max_events % record_every:
        betas.append(cx / (cx + cy))
    return np.asarray(betas), bool(cx + cy == 0)


def terminal_beta_study(limits: AttackLimits, replications: int,
                        max_events: int, seed: int,
                        init: PopulationState | None = None) -> dict:
    """Replicated attack runs: terminal proportions and hover flags.

    Reports, per surviving replication, the terminal beta and a finite-sample
    hover verdict against the theoretical limit set of the regime, read from
    the proportions recorded every 200 events.  Replication r (from 0) runs
    on the stream ``replication_seed(seed, r)``.
    """
    from .ode_engine import hover_classify, HOVERING, SADDLE

    if init is None:
        init = PopulationState(cx=5, cy=5, ax=5, ay=5)
    in_e, report = classify_regime_and_limits(limits)
    targets = {e.beta: ("attractor" if e.kind == ATTRACTOR else SADDLE)
               for e in report.equilibria}
    terminal, hovering, n_extinct = [], [], 0
    for r in range(replications):
        betas, extinct = simulate_attack_betas(limits, init, max_events,
                                               replication_seed(seed, r), 200)
        if extinct:
            n_extinct += 1
            continue
        terminal.append(float(betas[-1]))
        verdict = hover_classify(betas, targets)
        hovering.append(verdict == HOVERING)
    return {
        "in_regime_e": in_e,
        "limit_betas": sorted(targets),
        "terminal_betas": np.asarray(terminal),
        "hover_flags": np.asarray(hovering, dtype=bool),
        "extinct": n_extinct,
        "replications": replications,
    }
