"""Saturated viral market: single-type branching process whose expected
forwards decay with the total shares.

The total-shares-dependent expected forwards (TeF) is a continuous two-slope
decreasing line; as totals grow the process moves from super- to
sub-critical and the current shares die out.  Closed-form trajectories for
total and current shares follow from the epoch-count approximation
eta(t) ~ exp(t - gamma_E), and give the peak, life span and max reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bp_core import make_rng, require, require_counts
from .ode_engine import bisect_root

EULER_GAMMA = float(np.euler_gamma)


@dataclass(frozen=True)
class TefParams:
    m_bar: float          # expected forwards at zero total shares (rho = 1)
    kappa1: float         # initial slope
    kappa2: float         # tail slope, kappa2 < kappa1
    a_break: float        # total shares at which the slope changes
    rho: float = 1.0      # attractiveness multiplier

    def __post_init__(self):
        for name in ("m_bar", "kappa1", "kappa2", "a_break"):
            require(0 < getattr(self, name) < math.inf, name, getattr(self, name),
                    "finite and > 0")
        require(self.kappa1 > self.kappa2, "kappa1", self.kappa1, f"> kappa2 = {self.kappa2}")
        require(0 < self.rho <= 1, "rho", self.rho, "in (0, 1]")
        require(self.rho * self.m_bar > 1, "rho*m_bar", self.rho * self.m_bar,
                "> 1 (initial super-criticality)")

    @cached_property
    def m_tilde(self) -> float:
        return self.m_bar - self.a_break * (self.kappa1 - self.kappa2)

    @property
    def common_fit_ok(self) -> bool:
        """A network-level TeF fit scaled by rho is trustworthy only for
        rho >= 0.4; weaker posts need their own fit."""
        return self.rho >= 0.4


# Two-slope TeF fitted to the SNAP Twitter graph; rho is set per post.
SNAP_FIT = dict(m_bar=21.321042, kappa1=532e-6, kappa2=83e-6, a_break=35000.0)


@dataclass
class MarketPath:
    """Embedded STP-BP path: counts and ratios at recorded epochs."""
    epoch: np.ndarray
    tau: np.ndarray
    a: np.ndarray
    c: np.ndarray
    extinct: bool

    def ratios(self) -> np.ndarray:
        n = self.epoch.astype(float)
        return np.column_stack([self.c / n, self.a / n])


def simulate_stpbp(params: TefParams, a0: int, max_events: int, seed: int,
                   record_every: int = 1, offspring: str = "poisson") -> MarketPath:
    """Simulate reads of a post whose forwards have the two-slope TeF mean
    rho (m_bar - kappa1 A) at total shares A <= a_break, rho (m_tilde - kappa2 A)
    past it, clamped at zero.  One unread copy is consumed per event
    (A_n - C_n = n); inter-read times are exponential with rate C_n.
    ``offspring='poisson'`` draws Poisson(mean); ``'binomial'`` draws a
    geometric friend count with mean m_bar and forwards each friend with the
    TeF-matching probability.
    """
    require_counts(a0=a0, max_events=max_events, record_every=record_every)
    require(offspring in ("poisson", "binomial"), "offspring", repr(offspring),
            "'poisson' or 'binomial'")
    rng = make_rng(seed)
    exponential, poisson, geometric, binomial = (
        rng.exponential, rng.poisson, rng.geometric, rng.binomial)
    rho, m_bar, kappa1, a_break = params.rho, params.m_bar, params.kappa1, params.a_break
    m_tilde, kappa2 = params.m_tilde, params.kappa2
    by_poisson = offspring == "poisson"
    a = c = int(a0)
    rec, rec_tau = [], []
    t = 0.0
    p_geo = 1.0 / (1.0 + m_bar)    # success prob: mean m_bar on {0,1,..}
    for n in range(1, max_events + 1):
        t += exponential(1.0 / c)
        mean = rho * (m_bar - kappa1 * a) if a <= a_break else rho * (m_tilde - kappa2 * a)
        if mean < 0.0:    # max(mean, 0.0), -0.0 included
            mean = 0.0
        if by_poisson:
            g = poisson(mean)
        else:
            friends = geometric(p_geo) - 1
            g = binomial(friends, min(mean / m_bar, 1.0)) if friends > 0 else 0
        a += g
        c += g - 1
        if n % record_every == 0 or c == 0 or n == max_events:
            rec.extend((n, a, c))
            rec_tau.append(t)
        if c == 0:
            break
    epoch, a_rec, c_rec = np.array(rec, dtype=np.int64).reshape(-1, 3).T
    return MarketPath(epoch=epoch, tau=np.asarray(rec_tau, dtype=float),
                      a=a_rec, c=c_rec, extinct=c == 0)


def _phase(m: float, kappa: float, rho: float, a_start: float, t_start: float) -> tuple:
    """Constants (w1, w2, w3) of a(t) = w1 - w2 exp(-w3 e^t) from a(t_start) = a_start."""
    w1 = m / kappa
    w3 = kappa * rho * math.exp(-EULER_GAMMA)
    return w1, (w1 - a_start) * math.exp(w3 * math.exp(t_start)), w3


def _phase_constants(params: TefParams, a0: float):
    """Both phases' constants and the switch time tau_s (None and inf: one phase)."""
    if a0 >= params.a_break:
        # started past the breakpoint: only the tail slope is ever active
        return _phase(params.m_tilde, params.kappa2, params.rho, a0, 0.0), None, math.inf
    phase1 = _phase(params.m_bar, params.kappa1, params.rho, a0, 0.0)
    w1, w2, w3 = phase1
    if w1 <= params.a_break:
        return phase1, None, math.inf
    # phase switch where a(tau_s) = a_break
    tau_s = math.log(math.log(w2 / (w1 - params.a_break)) / w3)
    phase2 = _phase(params.m_tilde, params.kappa2, params.rho, params.a_break, tau_s)
    return phase1, phase2, tau_s


@dataclass
class ClosedFormShares:
    """Deterministic share trajectories a(t), c(t) and their epoch forms."""
    params: TefParams
    a0: float               # initial total shares; current shares start equal
    w_phase1: tuple
    w_phase2: tuple | None  # None when there is no second phase
    tau_s: float            # phase-switch time; tau_s = n_s = inf with one phase
    tau_e: float
    n_s: float              # phase-switch epoch
    n_e: float

    def _w(self, x: float, switch: float) -> tuple:
        """Phase-2 constants past the switch (time tau_s or epoch n_s)."""
        return self.w_phase2 if x > switch else self.w_phase1

    def a(self, t: float) -> float:
        t_eff = min(t, self.tau_e)
        w1, w2, w3 = self._w(t_eff, self.tau_s)
        return w1 - w2 * math.exp(-w3 * math.exp(t_eff))

    def c(self, t: float) -> float:
        if t >= self.tau_e:
            return 0.0
        if t > self.tau_s:
            phi = self.tau_s
            c_phi, a_phi = self.c(phi), self.a(phi)
        else:
            phi, c_phi, a_phi = 0.0, self.a0, self.a0
        return c_phi - a_phi + self.a(t) + math.exp(-EULER_GAMMA) * (math.exp(phi) - math.exp(t))

    def a_epoch(self, n: float) -> float:
        n_eff = min(n, self.n_e)
        w1, w2, w3 = self._w(n_eff, self.n_s)
        return w1 - w2 * math.exp(-n_eff * w3 * math.e ** EULER_GAMMA)

    def c_epoch(self, n: float) -> float:
        if n >= self.n_e:
            return 0.0
        return self.a_epoch(n) - n


def closed_form(params: TefParams, a0: float) -> ClosedFormShares:
    """Build the closed-form trajectories from a0 seed copies, all unread
    (c(0) = a(0) = a0); locates the phase switch and the extinction time by
    a bracketed root solve on c(t)."""
    require_counts(a0=a0)
    phase1, phase2, tau_s = _phase_constants(params, a0)
    cf = ClosedFormShares(params=params, a0=a0, w_phase1=phase1, w_phase2=phase2,
                          tau_s=tau_s, tau_e=math.inf,
                          n_s=math.exp(tau_s - EULER_GAMMA), n_e=math.inf)
    # extinction: first zero of c beyond the current-shares peak
    lo = max(tau_s, 0.0) if phase2 is not None else 0.0
    hi = lo + 5.0
    while cf.c(hi) > 0 and hi < lo + 400.0:
        hi += 5.0
    if cf.c(hi) > 0:
        raise ValueError("degenerate parameters: current shares never die out")
    while cf.c(lo) <= 0 and lo > 1e-9:
        lo = max(lo - 1.0, 0.0)
    cf.tau_e = bisect_root(cf.c, lo, hi, cf.c(lo), tol=1e-8)
    cf.n_e = _solve_life_span(cf)
    if cf.tau_e <= cf.tau_s:   # the shares die out before a reaches the break
        cf.w_phase2, cf.tau_s, cf.n_s = None, math.inf, math.inf
    return cf


def _solve_life_span(cf: ClosedFormShares) -> float:
    """Life span n_e: fixed point of n = w1 - w2 exp(-n w3 e^gamma)."""
    def resid(n, w):
        w1, w2, w3 = w
        return w1 - w2 * math.exp(-n * w3 * math.e ** EULER_GAMMA) - n

    # near n = 0 the epoch form lies ~rho m_bar e^-gamma below a0: then start
    # phase 1 at time 0, n = e^-gamma, where a_epoch = a0
    lo1 = 1e-9 if resid(1e-9, cf.w_phase1) >= 0 else math.exp(-EULER_GAMMA)
    for w, lo, hi in ((cf.w_phase2, max(cf.n_s, 1e-9), math.inf),
                      (cf.w_phase1, lo1, cf.n_s)):
        if w is None:
            continue
        hi = min(hi, w[0])
        if hi <= lo or resid(lo, w) < 0 or resid(hi, w) > 0:
            continue
        return bisect_root(lambda n: resid(n, w), lo, hi, resid(lo, w), tol=1e-8)
    raise ValueError("degenerate parameters: no life-span fixed point in (0, w1]")


def metrics(params: TefParams, a0: float) -> dict:
    """Peak current shares, life span and max reach of the closed forms.

    The peak formula w1 - (1 + ln(w2 w3 e^gamma))/(w3 e^gamma) uses the
    constants of the phase in which the TeF crosses one.
    """
    cf = closed_form(params, a0)
    a_peak1 = (params.m_bar - 1.0 / params.rho) / params.kappa1
    if a_peak1 <= params.a_break or cf.w_phase2 is None:
        w1, w2, w3 = cf.w_phase1
    else:
        w1, w2, w3 = cf.w_phase2
    scale = w3 * math.e ** EULER_GAMMA
    c_star = w1 - (1.0 + math.log(w2 * scale)) / scale
    return {
        "c_star": c_star,
        "n_e": cf.n_e,
        "max_reach": cf.n_e,
        "tau_s": cf.tau_s,
        "tau_e": cf.tau_e,
    }
