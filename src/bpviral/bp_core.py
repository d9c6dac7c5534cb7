"""Embedded-chain simulator for two-type, total-current population-dependent
continuous-time Markov branching processes.

State is the tuple (cx, cy, ax, ay): living counts and ever-born totals per
type.  Death events arrive at the minimum of per-individual exponential
clocks (possibly several death kinds per type); on each death the dying
type's current count drops by one and offspring of both types are added.
The scaled ratios (S_n/n, Cx_n/n, Sa_n/n, Ax_n/n) follow a 1/n
stochastic-approximation recursion analysed elsewhere in the package.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed with the whole seed, 0 <= seed < 2**128;
    ``replicate`` runs replication r of seed s on ``make_rng(replication_seed(s, r))``."""
    require(0 <= int(seed) < 2**128, "seed", seed, "in [0, 2**128)")
    return np.random.Generator(np.random.Philox(key=int(seed)))


def replication_seed(seed: int, rep: int) -> int:
    """The one stream rule: replication ``rep`` of ``seed`` is the Philox key
    with words (seed, rep), so replication 0 is the plain seed."""
    for name, v in (("seed", seed), ("rep", rep)):
        require(0 <= int(v) < 2**64, name, v, "in [0, 2**64)")
    return int(seed) + (int(rep) << 64)


def require(ok, name, value, rule, error=ValueError):
    """The one parameter check: unless ``ok``, raise ``error("<name> must be
    <rule>, got <value>")``.  NaN fails every comparison; pass a string's repr."""
    if not ok:
        raise error(f"{name} must be {rule}, got {value}")


def require_counts(**counts: int) -> None:
    """Reject event, record and population counts below one, naming the
    parameter; NaN fails too."""
    for name, value in counts.items():
        require(value >= 1, name, value, ">= 1")


def require_finite(**values: float) -> None:
    """Reject NaN and +-inf model parameters, naming the parameter."""
    for name, value in values.items():
        require(math.isfinite(value), name, value, "finite")


def replicate(run, seed: int, replications: int, jobs: int = 1) -> list:
    """``[run(replication_seed(seed, r)) for r in range(replications)]``: the
    one place that applies the stream rule.  ``jobs`` > 1 maps the seeds over
    min(jobs, replications, CPUs) worker processes, so ``run`` must pickle."""
    require_counts(replications=replications, jobs=jobs)
    seeds = [replication_seed(seed, r) for r in range(replications)]
    workers = min(jobs, replications, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(run, seeds))
    return [run(s) for s in seeds]


class PopulationState(NamedTuple):
    """phi = (cx, cy, ax, ay), current and total counts per type: the start
    of ``simulate`` and the ``state``/``phi`` every model callback reads."""
    cx: int
    cy: int
    ax: int
    ay: int

    @property
    def extinct(self) -> bool:
        return self.cx + self.cy == 0

    def validate(self):
        for name, bound in (("cx", 0), ("cy", 0), ("ax", self.cx), ("ay", self.cy)):
            require(getattr(self, name) >= bound, name, getattr(self, name), f">= {bound}")
        return self


@dataclass
class DeathModel:
    """Death kinds and their (possibly population-dependent) rates.

    ``rate(ptype, kind, state)`` of a dying type ('x' or 'y'), its death
    kind and the ``PopulationState`` must be strictly positive; a lower
    bound of 1e-12 is asserted, the thesis never fixes one numerically.
    ``rate=None`` (the default) is unit rate for every kind.
    """
    kinds_x: tuple = (0,)
    kinds_y: tuple = (0,)
    rate: callable = None

    def __post_init__(self):
        for name in ("kinds_x", "kinds_y"):
            require(getattr(self, name), name, getattr(self, name), "one or more death kinds")
        require(self.rate is None or callable(self.rate), "rate", repr(self.rate),
                "callable or None", TypeError)


def death_weights(state: PopulationState, deaths: DeathModel) -> dict:
    """Weight count * rate of each (type, kind) the next death can take.

    By the memoryless-minimum rule the next death is (type, kind) with
    probability weight / total weight, and the total is the rate of the
    next death.  Types with no living member are left out.
    """
    if state.extinct:
        raise ValueError("absorbing state has no death event")
    weights = {}
    for ptype, count, kinds in (("x", state.cx, deaths.kinds_x),
                                ("y", state.cy, deaths.kinds_y)):
        if count:
            for d in kinds:
                lam = 1.0 if deaths.rate is None else float(deaths.rate(ptype, d, state))
                if not lam >= 1e-12:
                    raise ValueError(f"death rate {lam} below floor for ({ptype},{d})")
                weights[(ptype, d)] = count * lam
    return weights


@dataclass
class MeanModel:
    """An offspring law and the limit of its mean matrix.

    ``sampler(ptype, kind, state, rng)`` is the law: it draws the offspring
    of one death of type ``ptype`` in the ``PopulationState`` ``state`` as
    ``(own, cross)``, own-type offspring (>= 0) and other-type offspring.
    A negative cross term is an attack that captures that many other-type
    individuals.  ``limit_mean_matrix(beta)`` is the limit of the law's 2x2
    mean matrix [[m_xx, m_xy], [m_yx, m_yy]] at proportion beta.  The
    built-in models draw Poisson offspring at their means, clamped at zero.
    """
    limit_mean_matrix: callable
    sampler: callable


def constant_matrix_model(m: np.ndarray) -> MeanModel:
    """Population-independent two-type model with mean matrix m."""
    m = np.asarray(m, dtype=float)
    require_finite(**dict(zip(("m_xx", "m_xy", "m_yx", "m_yy"), m.ravel().tolist())))
    (mxx, mxy), (myx, myy) = ([max(v, 0.0) for v in row] for row in m.tolist())

    def sampler(ptype, kind, state, rng):
        own, cross = (mxx, mxy) if ptype == "x" else (myy, myx)
        return rng.poisson(own), rng.poisson(cross)

    return MeanModel(lambda beta: m, sampler)


def single_type_ramp_model(m0: float = 3.0, slope: float = 0.002,
                           floor: float = 1.2, a_break: float = 400.0) -> MeanModel:
    """Single-type model whose mean offspring decays linearly in the total
    population until a breakpoint, then stays at a super-critical floor."""
    require_finite(m0=m0, slope=slope, floor=floor, a_break=a_break)

    def sampler(ptype, kind, state, rng):
        ax = state[2]
        return (rng.poisson(max(m0 - slope * ax if ax <= a_break else floor, 0.0))
                if ptype == "x" else 0), 0

    return MeanModel(limit_mean_matrix=lambda beta: np.array([[floor, 0.0], [0.0, 0.0]]),
                     sampler=sampler)


@dataclass
class Trajectory:
    """Recorded embedded-chain path.  ``epoch`` holds the recorded epoch
    indices (1-based; possibly thinned), parallel to the count arrays.
    Event increments are the differences of successive states from ``s0``.
    """
    epoch: np.ndarray
    tau: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    s0: tuple = (0, 0, 0, 0)          # initial (cx, cy, ax, ay)
    extinct: bool = False

    def __len__(self):
        return len(self.epoch)

    def ratios(self) -> np.ndarray:
        """Upsilon_n = (S_n/n, Cx_n/n, Sa_n/n, Ax_n/n) at the recorded epochs."""
        n = self.epoch.astype(float)
        return np.column_stack([
            (self.cx + self.cy) / n,
            self.cx / n,
            (self.ax + self.ay) / n,
            self.ax / n,
        ])

    def betas(self) -> np.ndarray:
        """Proportion Cx_n/S_n at the recorded epochs; 0 once S_n = 0, where
        the ratio ODE is pure decay and the proportion is immaterial."""
        s = self.cx + self.cy
        return np.where(s > 0, self.cx / np.maximum(s, 1), 0.0)


CSV_HEADER = "epoch,tau,cx,cy,ax,ay,psi_c,theta_c,psi_a,theta_a,beta"


def simulate(model: MeanModel, deaths: DeathModel, init: PopulationState,
             max_events: int = 1_000_000, seed: int = 0,
             record_every: int = 1) -> Trajectory:
    """Run the embedded chain until extinction or the event cap.

    Inter-death times are exponential with the total rate summed over living
    individuals and death kinds; the trajectory is reproducible under a
    fixed seed.  A type-z death takes one from z's current count and adds
    ``own`` to z's counts and ``cross`` to the other type's: births never
    lower a total, but a negative cross (an attack) moves the captured out
    of the other type's current AND total count.  ``record_every=k`` keeps
    every k-th epoch (and the last); ``record_every=1`` keeps the whole path.
    ``DeathModel()`` (unit rates, one kind per type) weighs each type by its
    count; any other death model draws from the ``death_weights`` dict.
    """
    require_counts(max_events=max_events, record_every=record_every)
    cx, cy, ax, ay = init.validate()
    rng = make_rng(seed)
    exponential, random = rng.exponential, rng.random
    rec, rec_tau = [], []
    t = 0.0
    sample_offspring = model.sampler
    by_counts = deaths.rate is None and len(deaths.kinds_x) == len(deaths.kinds_y) == 1
    if by_counts:
        (kind_x,), (kind_y,) = deaths.kinds_x, deaths.kinds_y
    for n in range(1, max_events + 1):
        if cx + cy == 0:
            break
        state = PopulationState(cx, cy, ax, ay)
        if by_counts:
            total_rate = float(cx + cy)
            t += exponential(1.0 / total_rate)
            u = random() * total_rate
            ptype, kind = ("x", kind_x) if cx and u <= cx else ("y", kind_y)
        else:
            weights = death_weights(state, deaths)
            total_rate = sum(weights.values())
            t += exponential(1.0 / total_rate)
            # categorical draw over (type, kind); the last weight ends at total_rate
            u = random() * total_rate
            acc = 0.0
            for (ptype, kind), w in weights.items():
                acc += w
                if u <= acc:
                    break
        own, cross = sample_offspring(ptype, kind, state, rng)
        if own < 0:
            raise ValueError("invalid offspring sample: own-type offspring negative")
        if ptype == "x":
            cx, ax, cy, ay = cx - 1 + own, ax + own, cy + cross, ay + cross
        else:
            cy, ay, cx, ax = cy - 1 + own, ay + own, cx + cross, ax + cross
        if cx < 0 or cy < 0:
            raise ValueError("invalid offspring sample: cross term drives a count negative")
        if n % record_every == 0 or cx + cy == 0 or n == max_events:
            rec.extend((n, cx, cy, ax, ay))
            rec_tau.append(t)
    epoch, *counts = np.array(rec, dtype=np.int64).reshape(-1, 5).T
    return Trajectory(epoch, np.asarray(rec_tau, dtype=float), *counts,
                      s0=tuple(init), extinct=bool(cx + cy == 0))


@dataclass
class DichotomyStats:
    replications: int
    extinct_fraction: float
    survivor_rates: np.ndarray          # fitted growth rate of S_n vs tau_n per survivor
    rate_threshold: float               # E[lower offspring] - 1 at unit death rate
    all_grew_or_died: bool              # every survivor had S_cap >= S_{cap/2}

    @property
    def mean_rate(self):
        return float(np.mean(self.survivor_rates)) if len(self.survivor_rates) else float("nan")

    @property
    def rate_se(self):
        k = len(self.survivor_rates)
        return float(np.std(self.survivor_rates, ddof=1) / math.sqrt(k)) if k > 1 else float("inf")


def fit_growth_rate(s: np.ndarray, tau: np.ndarray) -> float:
    """Least-squares slope of ln S_n against tau_n.

    Only the trailing half of the path enters the fit so the
    small-population transient does not bias the exponent.
    """
    mask = s > 0
    y = np.log(s[mask])
    x = tau[mask]
    start = len(x) // 2
    x, y = x[start:], y[start:]
    x = x - x.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        return 0.0
    return float(np.dot(x, y - y.mean()) / denom)


def ratios_and_dichotomy(traj: Trajectory, lam: float = 1.0,
                         low_mean: float | None = None):
    """Single-path dichotomy summary: a dict that reports extinction, the
    fitted exponential growth rate of the sum current population against
    wall-clock time, whether the path kept growing (S at the cap at least
    its mid-path value) and, given the mean lower offspring bound
    ``low_mean``, the growth-rate threshold lam * (low_mean - 1), lam > 0.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    require(0 < lam < math.inf, "lam", lam, "finite and > 0")
    require(low_mean is None or math.isfinite(low_mean), "low_mean", low_mean, "finite")
    s = (traj.cx + traj.cy).astype(float)
    mid = s[len(s) // 2] if len(s) > 1 else s[0]
    info = {
        "extinct": bool(traj.extinct),
        "growth_rate": 0.0 if traj.extinct else fit_growth_rate(s, traj.tau),
        "grew": bool(traj.extinct) or bool(s[-1] >= mid),
    }
    if low_mean is not None:
        info["rate_threshold"] = lam * (low_mean - 1.0)
    return info


def dichotomy_study(offspring_mean: float, s0: int, replications: int,
                    cap: int, seed: int) -> DichotomyStats:
    """Monte-Carlo dichotomy statistics for the population-independent case.

    When both types share one death kind with unit rate and the total
    offspring per death is an i.i.d. Poisson draw, the sum current
    population is a random walk S_n = S_{n-1} - 1 + Gamma_n, which this
    routine simulates in vectorised blocks (the event loop gives the same
    law; see the regression tests).  Each replication is classified extinct
    or still-growing at the cap, and survivors get a fitted growth rate of
    S_n against tau_n.  Replications are drawn in blocks of 200, which fixes
    the draw layout of a seed.
    """
    require_counts(s0=s0, replications=replications, cap=cap)
    require(0 <= offspring_mean < math.inf, "offspring_mean", offspring_mean, "finite and >= 0")
    rng = make_rng(seed)
    rates = []
    all_grew = True
    done = 0
    while done < replications:
        b = min(200, replications - done)
        incr = rng.poisson(offspring_mean, size=(b, cap)).astype(np.int64) - 1
        s = s0 + np.cumsum(incr, axis=1)
        exp_draws = rng.exponential(size=(b, cap))
        s_prev = np.empty_like(s)
        s_prev[:, 0] = s0
        s_prev[:, 1:] = s[:, :-1]
        for i in np.flatnonzero((s > 0).all(axis=1)).tolist():
            path = s[i].astype(float)
            tau = np.cumsum(exp_draws[i] / s_prev[i])
            if path[-1] < path[cap // 2]:
                all_grew = False
            rates.append(fit_growth_rate(path, tau))
        done += b
    return DichotomyStats(
        replications=replications,
        extinct_fraction=(replications - len(rates)) / replications,
        survivor_rates=np.asarray(rates),
        rate_threshold=offspring_mean - 1.0,
        all_grew_or_died=all_grew,
    )
