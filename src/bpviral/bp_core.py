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
from dataclasses import dataclass

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed with the whole seed, 0 <= seed < 2**128;
    replication r of seed s runs on ``make_rng(replication_seed(s, r))``."""
    if not 0 <= int(seed) < 2**128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=int(seed)))


def replication_seed(seed: int, rep: int) -> int:
    """The one stream rule: replication ``rep`` of ``seed`` is the Philox key
    with words (seed, rep), so replication 0 is the plain seed."""
    for name, v in (("seed", seed), ("rep", rep)):
        if not 0 <= int(v) < 2**64:
            raise ValueError(f"{name} must be in [0, 2**64), got {v}")
    return int(seed) + (int(rep) << 64)


def require_counts(**counts: int) -> None:
    """Reject event, record and population counts below one, naming the
    parameter."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class PopulationState:
    cx: int
    cy: int
    ax: int
    ay: int

    @property
    def extinct(self) -> bool:
        return self.cx + self.cy == 0

    def validate(self):
        if min(self.cx, self.cy) < 0 or self.ax < self.cx or self.ay < self.cy:
            raise ValueError(f"invalid population state {self}")
        return self


@dataclass(frozen=True)
class OffspringSample:
    parent_type: str          # 'x' or 'y'
    own: int = 0              # own-type offspring, always >= 0
    cross: int = 0            # other-type offspring; < 0 models an attack


@dataclass
class DeathModel:
    """Death kinds and their (possibly population-dependent) rates.

    ``rate(ptype, kind, state)`` must return a strictly positive value; a
    lower bound of 1e-12 is asserted, the thesis never fixes one
    numerically.
    """
    kinds_x: tuple = (0,)
    kinds_y: tuple = (0,)
    rate: callable = None

    def __post_init__(self):
        for name in ("kinds_x", "kinds_y"):
            if not getattr(self, name):
                raise ValueError(f"{name} must name at least one death kind")
        if self.rate is None:
            self.rate = lambda ptype, kind, state: 1.0

    def rate_checked(self, ptype, kind, state):
        lam = float(self.rate(ptype, kind, state))
        if not lam >= 1e-12:
            raise ValueError(f"death rate {lam} below floor for ({ptype},{kind})")
        return lam


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
                weights[(ptype, d)] = count * deaths.rate_checked(ptype, d, state)
    return weights


def step_embedded(state: PopulationState, sample: OffspringSample) -> PopulationState:
    """Apply one death event; extinction is absorbing.

    Deaths never decrease totals (the -1 hits the current count only), but a
    negative cross term removes the attacked individuals from the other
    type's current AND total count: acquisition changes their type.
    """
    if state.extinct:
        raise ValueError("absorbing state has no death event")
    if sample.own < 0:
        raise ValueError("invalid offspring sample: own-type offspring negative")
    if sample.parent_type == "x":
        cx = state.cx - 1 + sample.own
        ax = state.ax + sample.own
        cy = state.cy + sample.cross
        ay = state.ay + sample.cross
    else:
        cy = state.cy - 1 + sample.own
        ay = state.ay + sample.own
        cx = state.cx + sample.cross
        ax = state.ax + sample.cross
    if cx < 0 or cy < 0:
        raise ValueError("invalid offspring sample: cross term drives a count negative")
    return PopulationState(cx=cx, cy=cy, ax=ax, ay=ay)


@dataclass
class MeanModel:
    """Mean structure of the offspring law plus a concrete sampler.

    ``mean_matrix(phi)`` maps a population tuple (cx, cy, ax, ay) to the 2x2
    conditional mean matrix [[m_xx, m_xy], [m_yx, m_yy]]; ``limit_mean_matrix``
    is its proportion-dependent limit.  ``sampler(ptype, kind, state, rng)``
    draws an OffspringSample consistent with those means.
    """
    mean_matrix: callable
    limit_mean_matrix: callable
    sampler: callable


def make_poisson_sampler(mean_matrix):
    """Independent Poisson offspring with population-dependent means,
    clamped at zero."""
    def sampler(ptype, kind, state, rng):
        m = np.asarray(mean_matrix((state.cx, state.cy, state.ax, state.ay)), dtype=float)
        if ptype == "x":
            own_mean, cross_mean = m[0, 0], m[0, 1]
        else:
            own_mean, cross_mean = m[1, 1], m[1, 0]
        own = int(rng.poisson(max(own_mean, 0.0)))
        cross = int(rng.poisson(max(cross_mean, 0.0)))
        return OffspringSample(parent_type=ptype, own=own, cross=cross)
    return sampler


def constant_matrix_model(m: np.ndarray) -> MeanModel:
    """Population-independent two-type model with mean matrix m."""
    m = np.asarray(m, dtype=float)
    return MeanModel(
        mean_matrix=lambda phi: m,
        limit_mean_matrix=lambda beta: m,
        sampler=make_poisson_sampler(lambda phi: m),
    )


def single_type_ramp_model(m0: float = 3.0, slope: float = 0.002,
                           floor: float = 1.2, a_break: float = 400.0) -> MeanModel:
    """Single-type model whose mean offspring decays linearly in the total
    population until a breakpoint, then stays at a super-critical floor."""
    def mean_matrix(phi):
        ax = phi[2]
        mxx = m0 - slope * ax if ax <= a_break else floor
        return np.array([[mxx, 0.0], [0.0, 0.0]])

    def limit_mean_matrix(beta):
        return np.array([[floor, 0.0], [0.0, 0.0]])

    return MeanModel(
        mean_matrix=mean_matrix,
        limit_mean_matrix=limit_mean_matrix,
        sampler=make_poisson_sampler(mean_matrix),
    )


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
        with np.errstate(invalid="ignore", divide="ignore"):
            b = np.where(s > 0, self.cx / np.maximum(s, 1), 0.0)
        return b

    def rows(self):
        """Per recorded epoch: epoch,tau,cx,cy,ax,ay,psi_c,theta_c,psi_a,theta_a,beta."""
        cols = (self.epoch, self.tau, self.cx, self.cy, self.ax, self.ay,
                *self.ratios().T, self.betas())
        return zip(*(col.tolist() for col in cols))


CSV_HEADER = "epoch,tau,cx,cy,ax,ay,psi_c,theta_c,psi_a,theta_a,beta"


def simulate(model: MeanModel, deaths: DeathModel, init: PopulationState,
             max_events: int = 1_000_000, seed: int = 0,
             record_every: int = 1) -> Trajectory:
    """Run the embedded chain until extinction or the event cap.

    Inter-death times are exponential with the total rate summed over living
    individuals and death kinds; the trajectory is reproducible under a
    fixed seed.  ``record_every=k`` keeps every k-th epoch (and the last);
    only the states are stored, so ``record_every=1`` keeps the whole path.
    """
    require_counts(max_events=max_events, record_every=record_every)
    init.validate()
    rng = make_rng(seed)
    state = init
    rec, rec_tau = [], []
    t = 0.0
    sample_offspring = model.sampler
    extinct = state.extinct
    for n in range(1, max_events + 1):
        if state.extinct:
            extinct = True
            break
        weights = death_weights(state, deaths)
        total_rate = sum(weights.values())
        t += rng.exponential(1.0 / total_rate)
        # categorical draw over (type, kind); the last weight ends at total_rate
        u = rng.random() * total_rate
        acc = 0.0
        for (ptype, kind), w in weights.items():
            acc += w
            if u <= acc:
                break
        state = step_embedded(state, sample_offspring(ptype, kind, state, rng))
        if n % record_every == 0 or state.extinct or n == max_events:
            rec.extend((n, state.cx, state.cy, state.ax, state.ay))
            rec_tau.append(t)
        if state.extinct:
            extinct = True
            break
    epoch, cx, cy, ax, ay = np.array(rec, dtype=np.int64).reshape(-1, 5).T
    return Trajectory(epoch=epoch, tau=np.asarray(rec_tau, dtype=float),
                      cx=cx, cy=cy, ax=ax, ay=ay,
                      s0=(init.cx, init.cy, init.ax, init.ay), extinct=extinct)


def sa_recursion_ratios(traj: Trajectory) -> np.ndarray:
    """Recompute the ratio sequence through the incremental 1/n recursion.

    Equals the direct ratio computation to machine precision; used as a
    cross-check of the stochastic-approximation form of the dynamics.
    Event n's increments are the changes of (S, Cx, Sa, Ax) from epoch n-1
    (``s0`` before the first).  The first epoch absorbs the initial
    population (the 1/n recursion is an exact identity only from the second
    death on).  Requires an unthinned trajectory (epoch 1..n).
    """
    if not np.array_equal(traj.epoch, np.arange(1, len(traj) + 1)):
        raise ValueError("unthinned trajectory required (record_every=1)")
    cx0, cy0, ax0, ay0 = traj.s0
    d_theta_c = np.diff(traj.cx, prepend=cx0)
    d_psi_c = d_theta_c + np.diff(traj.cy, prepend=cy0)
    d_theta_a = np.diff(traj.ax, prepend=ax0)
    d_psi_a = d_theta_a + np.diff(traj.ay, prepend=ay0)
    ups = np.empty((len(traj), 4))
    psi_c = float(cx0 + cy0)
    theta_c = float(cx0)
    psi_a = float(ax0 + ay0)
    theta_a = float(ax0)
    for i in range(len(traj)):
        n = i + 1
        l_psi_c, l_theta_c = float(d_psi_c[i]), float(d_theta_c[i])
        l_psi_a, l_theta_a = float(d_psi_a[i]), float(d_theta_a[i])
        if n == 1:
            psi_c += l_psi_c
            theta_c += l_theta_c
            psi_a += l_psi_a
            theta_a += l_theta_a
        else:
            psi_c += (l_psi_c - psi_c) / n
            theta_c += (l_theta_c - theta_c) / n
            psi_a += (l_psi_a - psi_a) / n
            theta_a += (l_theta_a - theta_a) / n
        ups[i] = (psi_c, theta_c, psi_a, theta_a)
    return ups


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
    """Ratio sequence plus the single-path dichotomy summary.

    Returns (ratios array, dict) where the dict reports extinction, the
    fitted exponential growth rate of the sum current population against
    wall-clock time, whether the path kept growing (S at the cap at least
    its mid-path value) and, given the mean lower offspring bound
    ``low_mean``, the growth-rate threshold lam * (low_mean - 1).
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    ups = traj.ratios()
    s = (traj.cx + traj.cy).astype(float)
    mid = s[len(s) // 2] if len(s) > 1 else s[0]
    info = {
        "extinct": bool(traj.extinct),
        "growth_rate": 0.0 if traj.extinct else fit_growth_rate(s, traj.tau),
        "grew": bool(traj.extinct) or bool(s[-1] >= mid),
    }
    if low_mean is not None:
        info["rate_threshold"] = lam * (low_mean - 1.0)
    return ups, info


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
    require_counts(replications=replications, cap=cap)
    rng = make_rng(seed)
    n_extinct = 0
    rates = []
    all_grew = True
    done = 0
    while done < replications:
        b = min(200, replications - done)
        incr = rng.poisson(offspring_mean, size=(b, cap)).astype(np.int64) - 1
        s = s0 + np.cumsum(incr, axis=1)
        hit = s <= 0
        ext_idx = np.where(hit.any(axis=1), hit.argmax(axis=1), cap)
        exp_draws = rng.exponential(size=(b, cap))
        s_prev = np.empty_like(s)
        s_prev[:, 0] = s0
        s_prev[:, 1:] = s[:, :-1]
        for i in range(b):
            k = int(ext_idx[i])
            if k < cap:
                n_extinct += 1
                continue
            path = s[i].astype(float)
            tau = np.cumsum(exp_draws[i] / s_prev[i])
            if path[-1] < path[cap // 2]:
                all_grew = False
            rates.append(fit_growth_rate(path, tau))
        done += b
    return DichotomyStats(
        replications=replications,
        extinct_fraction=n_extinct / replications,
        survivor_rates=np.asarray(rates),
        rate_threshold=offspring_mean - 1.0,
        all_grew_or_died=all_grew,
    )
