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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bp_core import make_rng, require_counts
from .ode_engine import EULER_GAMMA, bisect_root, epochs_before, harmonic_number


@dataclass(frozen=True)
class TefParams:
    m_bar: float          # expected forwards at zero total shares (rho = 1)
    kappa1: float         # initial slope
    kappa2: float         # tail slope, kappa2 < kappa1
    a_break: float        # total shares at which the slope changes
    rho: float = 1.0      # attractiveness multiplier

    def __post_init__(self):
        if not (self.kappa1 > self.kappa2 > 0):
            raise ValueError("need kappa1 > kappa2 > 0")
        if self.a_break <= 0 or self.m_bar <= 0:
            raise ValueError("m_bar and a_break must be positive")
        if not (0 < self.rho <= 1):
            raise ValueError("rho in (0, 1]")
        if self.rho * self.m_bar <= 1:
            raise ValueError("initial super-criticality requires rho*m_bar > 1")

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


def tef(a: float, params: TefParams) -> float:
    """Expected effective forwards at total shares a (clamped at zero)."""
    if a < 0:
        raise ValueError("total shares must be nonnegative")
    if a <= params.a_break:
        val = params.rho * (params.m_bar - params.kappa1 * a)
    else:
        val = params.rho * (params.m_tilde - params.kappa2 * a)
    return max(val, 0.0)


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
    """Simulate reads of a post whose forwards have mean tef(A).

    One unread copy is consumed per event (A_n - C_n = n); inter-read times
    are exponential with rate C_n.  ``offspring='poisson'`` draws
    Poisson(tef(A)); ``'binomial'``
    draws a geometric friend count with mean m_bar and forwards each friend
    with the TeF-matching probability.
    """
    if a0 < 1:
        raise ValueError("need at least one seed copy")
    require_counts(max_events=max_events, record_every=record_every)
    rng = make_rng(seed)
    a = c = int(a0)
    rec, rec_tau = [], []
    t = 0.0
    p_geo = 1.0 / (1.0 + params.m_bar)    # success prob: mean m_bar on {0,1,..}
    extinct = False
    for n in range(1, max_events + 1):
        if c == 0:
            extinct = True
            break
        t += rng.exponential(1.0 / c)
        mean = tef(a, params)
        if offspring == "poisson":
            g = int(rng.poisson(mean))
        elif offspring == "binomial":
            friends = int(rng.geometric(p_geo)) - 1
            p_fwd = min(mean / params.m_bar, 1.0)
            g = int(rng.binomial(friends, p_fwd)) if friends > 0 else 0
        else:
            raise ValueError(f"unknown offspring mode {offspring!r}")
        a += g
        c += g - 1
        if n % record_every == 0 or c == 0 or n == max_events:
            rec.extend((n, a, c))
            rec_tau.append(t)
        if c == 0:
            extinct = True
            break
    epoch, a, c = np.array(rec, dtype=np.int64).reshape(-1, 3).T
    return MarketPath(epoch=epoch, tau=np.asarray(rec_tau, dtype=float),
                      a=a, c=c, extinct=extinct)


def _phase_constants(params: TefParams, a0: float):
    """Constants (w1, w2, w3) of a(t) = w1 - w2 exp(-w3 e^t) per phase."""
    rho = params.rho
    if a0 >= params.a_break:
        # started past the breakpoint: only the tail slope is ever active
        w1 = params.m_tilde / params.kappa2
        w3 = params.kappa2 * rho * math.exp(-EULER_GAMMA)
        return (w1, (w1 - a0) * math.exp(w3), w3), None, math.inf
    w1_1 = params.m_bar / params.kappa1
    w3_1 = params.kappa1 * rho * math.exp(-EULER_GAMMA)
    w2_1 = (w1_1 - a0) * math.exp(w3_1)
    phase1 = (w1_1, w2_1, w3_1)
    if w1_1 <= params.a_break:
        return phase1, None, math.inf
    # phase switch where a(tau_s) = a_break
    tau_s = math.log(math.log(w2_1 / (w1_1 - params.a_break)) / w3_1)
    w1_2 = params.m_tilde / params.kappa2
    w3_2 = params.kappa2 * rho * math.exp(-EULER_GAMMA)
    w2_2 = (w1_2 - params.a_break) * math.exp(w3_2 * math.exp(tau_s))
    return phase1, (w1_2, w2_2, w3_2), tau_s


@dataclass
class ClosedFormShares:
    """Deterministic share trajectories a(t), c(t) and their epoch forms."""
    params: TefParams
    a0: float               # initial total shares; current shares start equal
    w_phase1: tuple
    w_phase2: tuple | None
    tau_s: float
    tau_e: float = field(default=math.nan)
    n_s: float = field(default=math.nan)
    n_e: float = field(default=math.nan)

    def _w(self, t: float) -> tuple:
        if self.w_phase2 is not None and t > self.tau_s:
            return self.w_phase2
        return self.w_phase1

    def a(self, t: float) -> float:
        t_eff = min(t, self.tau_e)
        w1, w2, w3 = self._w(t_eff)
        return w1 - w2 * math.exp(-w3 * math.exp(t_eff))

    def c(self, t: float) -> float:
        if t >= self.tau_e:
            return 0.0
        if self.w_phase2 is not None and t > self.tau_s:
            phi = self.tau_s
            c_phi, a_phi = self.c(phi), self.a(phi)
        else:
            phi, c_phi, a_phi = 0.0, self.a0, self.a0
        return c_phi - a_phi + self.a(t) + math.exp(-EULER_GAMMA) * (math.exp(phi) - math.exp(t))

    def a_epoch(self, n: float) -> float:
        n_eff = min(n, self.n_e)
        w1, w2, w3 = self._w_epoch(n_eff)
        return w1 - w2 * math.exp(-n_eff * w3 * math.e ** EULER_GAMMA)

    def c_epoch(self, n: float) -> float:
        if n >= self.n_e:
            return 0.0
        return self.a_epoch(n) - n

    def _w_epoch(self, n: float) -> tuple:
        if self.w_phase2 is not None and n > self.n_s:
            return self.w_phase2
        return self.w_phase1


def closed_form(params: TefParams, a0: float) -> ClosedFormShares:
    """Build the closed-form trajectories from a0 seed copies, all unread
    (c(0) = a(0) = a0); locates the phase switch and the extinction time by
    a bracketed root solve on c(t)."""
    phase1, phase2, tau_s = _phase_constants(params, a0)
    cf = ClosedFormShares(params=params, a0=a0,
                          w_phase1=phase1, w_phase2=phase2, tau_s=tau_s,
                          tau_e=math.inf, n_e=math.inf,
                          n_s=math.inf)
    if phase2 is not None:
        cf.n_s = math.exp(tau_s - EULER_GAMMA)
    # extinction: first zero of c beyond the current-shares peak
    lo = tau_s if phase2 is not None else 0.0
    lo = max(lo, 0.0)
    hi = lo + 5.0
    while cf.c(hi) > 0 and hi < lo + 400.0:
        hi += 5.0
    if cf.c(hi) > 0:
        raise ValueError("degenerate parameters: current shares never die out")
    while cf.c(lo) <= 0 and lo > 1e-9:
        lo = max(lo - 1.0, 0.0)
    cf.tau_e = bisect_root(cf.c, lo, hi, cf.c(lo), tol=1e-8)
    cf.n_e = _solve_life_span(cf)
    return cf


def _solve_life_span(cf: ClosedFormShares) -> float:
    """Life span n_e: fixed point of n = w1 - w2 exp(-n w3 e^gamma)."""
    def resid(n, w):
        w1, w2, w3 = w
        return w1 - w2 * math.exp(-n * w3 * math.e ** EULER_GAMMA) - n

    for w, lo, hi in ((cf.w_phase2, max(cf.n_s, 1e-9), None),
                      (cf.w_phase1, 1e-9, cf.n_s)):
        if w is None:
            continue
        w1 = w[0]
        hi = min(hi, w1) if hi is not None else w1
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


def stpbp_nonauto_rhs(params: TefParams, n_start: int):
    """Drift of the 2-D ratio ODE for the saturated process, anchored at
    epoch ``n_start``: the total shares are reconstructed as psi_a * eta(t)
    on the harmonic clock, so the drift follows the transient TeF."""
    t0 = harmonic_number(n_start)

    def rhs(upsilon, t):
        psi_c, psi_a = float(upsilon[0]), float(upsilon[1])
        if psi_c <= 0:
            return np.zeros(2)
        n_eta = max(epochs_before(t0 + t), 1)
        m = tef(psi_a * n_eta, params)
        return np.array([m - 1.0 - psi_c, m - psi_a])
    return rhs


def extinction_prob_pgf(pgf) -> float:
    """Smallest fixed point of a probability generating function on [0,1].

    Bisection on f(s) - s after a sign scan.  A scan point where f(s) - s
    is exactly zero is the root itself, so a sub-critical or critical law,
    whose first zero is s = 1, returns 1; the identity PGF returns 0.
    """
    tol = 1e-12

    def g(s):
        return pgf(s) - s

    if abs(g(0.0)) <= tol:
        return 0.0
    xs = np.linspace(0.0, 1.0, 2001)
    vals = np.array([g(float(x)) for x in xs])
    if np.all(np.abs(vals) <= tol):
        return 0.0
    for i in range(len(xs) - 1):
        if vals[i] > 0 and vals[i + 1] <= 0:
            if vals[i + 1] == 0.0:
                return float(xs[i + 1])
            return bisect_root(g, float(xs[i]), float(xs[i + 1]), vals[i], tol)
    return 1.0
