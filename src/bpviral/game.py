"""Participation mean-field game for actuality identification of posts.

Users choose to ignore a post, tag from innate ability, or tag using the
system warning; a reward split between the two participating types makes
the desired mix a Nash equilibrium.  With the polynomial response family
the tagging fixed points are available in closed form, which drives both
the game design routine and its verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bp_core import make_rng, require_counts

FAKE, REAL = "F", "R"


class GameVerificationError(AssertionError):
    """A designed game failed one of its guaranteed inequalities."""


@dataclass(frozen=True)
class GameParams:
    alpha_r: float            # innate fake-tag prob., real post
    alpha_f: float            # innate fake-tag prob., fake post
    mua: float                # adversarial fraction
    p: float                  # prior P(post is fake)
    theta: float              # fake-post identification target
    delta: float              # real-post mis-tag ceiling
    q_p: float = 1.0          # participation utility
    q_np: float = 0.5         # non-participation utility
    c_e: float = 1.0          # warning-processing cost
    resp_a: float = 2.0       # response exponent in the innate ability
    resp_b: float = 1.0       # response exponent in the warning
    resp_c: float = 1.0       # response scale

    def __post_init__(self):
        if not (0 < self.alpha_r < self.alpha_f < 1):
            raise ValueError("need 0 < alpha_R < alpha_F < 1")
        if not (0 <= self.mua < 1) or not (0 < self.p < 1):
            raise ValueError("mua in [0,1), p in (0,1)")
        if self.q_p < self.q_np or self.c_e <= 0:
            raise ValueError("need Q_p >= Q_np and C_e > 0")
        if min(self.resp_a, self.resp_b, self.resp_c) <= 0:
            raise ValueError("response exponents/scale must be positive")
        if not self.theta <= 1:
            raise ValueError(f"theta must be <= 1, got {self.theta}")
        if not (self.theta > self.alpha_f and self.alpha_r < self.delta < self.theta):
            raise ValueError("need theta > alpha_F and delta in (alpha_R, theta)")

    @property
    def delta_ratio(self) -> float:
        return self.alpha_f / self.alpha_r          # Delta_R > 1

    def alpha(self, u: str) -> float:
        return self.alpha_f if u == FAKE else self.alpha_r

    def ratio_pow(self, u: str) -> float:
        """(alpha_u / alpha_R)^a, the response multiplier of the u-post."""
        return (self.alpha(u) / self.alpha_r) ** self.resp_a

    def response_slope(self, w: float, u: str) -> float:
        """c w alpha_R (alpha_u/alpha_R)^a: the composed response of a
        warning-using tagger is min{slope * beta, 1} for a u-post."""
        return self.resp_c * w * self.alpha_r * self.ratio_pow(u)


def response(alpha: float, omega: float, params: GameParams) -> float:
    """Polynomial response min{c alpha^a omega^b, 1} of a warning-using tagger."""
    if not (0 < alpha < 1) or omega < 0:
        raise ValueError("alpha in (0,1), omega >= 0")
    return min(params.resp_c * alpha ** params.resp_a * omega ** params.resp_b, 1.0)


def participant_fractions(mu, mua):
    """(eta, eta_a): type-1 and adversarial fractions among participants."""
    mu0, mu1, mu2 = mu
    total = mu1 + mu2 + mua
    if total <= 0:
        raise ValueError("no participants")
    return mu1 / total, mua / total


def beta_fixed_point(mu, w: float, params: GameParams, u: str) -> float:
    """Closed-form attractor of the tagging dynamics for a u-post.

    With the linear-in-beta composed response the dynamics are piecewise
    linear: below the response saturation the fixed point is
    alpha_u eta / rho_u, above it alpha_u eta + (1 - eta - eta_a).
    """
    eta, eta_a = participant_fractions(mu, params.mua)
    alpha_u = params.alpha(u)
    mult = params.response_slope(w, u)
    rho_bar = alpha_u * eta + 1.0 - eta - eta_a
    rho = 1.0 - (1.0 - eta - eta_a) * mult
    if rho <= 0:
        beta = rho_bar
    elif rho_bar < 1.0 / mult:
        beta = alpha_u * eta / rho
    else:
        beta = rho_bar
    return float(beta)


def fp_residual(beta: float, mu, w: float, params: GameParams, u: str) -> float:
    """Residual of the tagging fixed-point equation at beta."""
    return tagging_rhs(w, params, u, mu)(beta)


def tagging_rhs(w: float, params: GameParams, u: str, mu):
    """Scalar ODE drift g_u(beta) of the tagging dynamics, elementwise in
    beta, so ``picard_solve`` can pass it a whole (mesh+1, 1) iterate."""
    eta, eta_a = participant_fractions(mu, params.mua)
    alpha_u = params.alpha(u)
    mult = params.response_slope(w, u)

    def g(beta, t=0.0):
        r = np.minimum(mult * beta, 1.0)
        return alpha_u * eta + (1.0 - eta - eta_a) * r - beta
    return g


@dataclass
class AiDesign:
    theta_tilde: float
    w: float
    eta: float
    gamma: float
    reward: float
    x_eta: float
    eta_star: float                 # participation level achieving theta_tilde exactly
    eta_bar: float
    params: GameParams
    feasible: bool = True
    reason: str = ""

    def mu_eta(self):
        return (0.0, self.eta, 1.0 - self.eta - self.params.mua)

    def mu_x(self, x):
        return (0.0, x, 1.0 - x - self.params.mua)

    def to_dict(self):
        return {
            "theta_tilde": self.theta_tilde, "w": self.w, "eta": self.eta,
            "gamma": self.gamma, "reward": self.reward, "x_eta": self.x_eta,
            "eta_star": self.eta_star, "eta_bar": self.eta_bar,
            "feasible": self.feasible, "reason": self.reason,
        }


def gamma_floor(eta: float, params: GameParams) -> float:
    """Smallest reward multiplier keeping both participating types willing."""
    p, mua = params.p, params.mua
    return (1.0 / (1.0 - p)) * ((1.0 - (eta + mua) * (1.0 - p)) / (1.0 - eta - mua))


def design_ai_game(params: GameParams, gamma_margin: float = 1.0) -> AiDesign:
    """Design the actuality-identification game.

    Follows the two-branch target adjustment (theta_tilde, with the slack
    eps 1e-6 above its admissible floor), then picks the warning scale w
    inside its feasibility interval, the participation level
    eta = eta_bar + eps2, and finally (gamma, R) to make the designed mix an
    equilibrium.  The free slack choices are interval midpoints; gamma is
    the floor plus ``gamma_margin``.
    """
    aR, aF = params.alpha_r, params.alpha_f
    theta, delta, mua = params.theta, params.delta, params.mua
    dra = params.delta_ratio ** params.resp_a        # (Delta_R)^a
    delta_a = delta * (1.0 - mua)

    def eta_star_of(level):
        return (1.0 - level) * (1.0 - mua) / (1.0 - aF)

    kappa = delta * (dra * (1.0 - aF) - 1.0) - aR * dra
    k_delta = kappa * kappa - 4.0 * delta * aR * aF * dra

    def fail(reason):
        return AiDesign(theta_tilde=float("nan"), w=float("nan"), eta=float("nan"),
                        gamma=float("nan"), reward=float("nan"), x_eta=float("nan"),
                        eta_star=float("nan"), eta_bar=float("nan"),
                        feasible=False, reason=reason, params=params)

    es_theta = eta_star_of(theta)
    f_denom = dra * (delta_a - aR * es_theta)
    f_theta = (delta_a - es_theta * delta) / f_denom if f_denom != 0 else math.inf
    if f_denom > 0 and theta > f_theta:
        theta_tilde = theta
    else:
        if k_delta < 0:
            return fail("K_delta negative")
        theta2 = (-kappa + math.sqrt(k_delta)) / (2.0 * dra * aR)
        base = max(theta2, 1.0 - delta * (1.0 - aF) / aR)
        theta_tilde = min(base + (max(0.0, theta - theta2) + 1e-6), 1.0)

    es = eta_star_of(theta_tilde)
    if es <= 0.0:
        return fail(f"eta_star <= 0 at theta_tilde={theta_tilde:g}")
    lo = (1.0 / (1.0 - mua)) * max(1.0, 1.0 / (dra * theta_tilde))
    hi = min(1.0 / delta_a, (delta_a - es * aR) / (delta_a * (1.0 - mua - es)))
    if not hi > lo:
        return fail("empty warning-scale interval")
    cwa = lo + 0.5 * (hi - lo)
    w = cwa / (params.resp_c * aR)

    eta_bar = delta_a * ((1.0 - mua) * cwa - 1.0) / (cwa * delta_a - aR)
    if not eta_bar < es:
        return fail("participation interval empty")
    eta = eta_bar + 0.5 * (es - eta_bar)

    gam_lo = gamma_floor(eta, params)
    gamma = max(gam_lo, 1.0) + gamma_margin
    reward = params.c_e * (1.0 - eta - mua + 1.0 / (gamma - 1.0))
    x_eta = params.p / (gamma - 1.0) + params.p * (1.0 - mua - eta) + eta
    return AiDesign(theta_tilde=theta_tilde, w=w, eta=eta, gamma=gamma,
                    reward=reward, x_eta=x_eta, eta_star=es, eta_bar=eta_bar,
                    feasible=True, reason="", params=params)


def success_probability(mu, design: AiDesign) -> float:
    """P(success | mix) using the almost-sure tagging limits; the all-idle
    mix has success probability zero by convention."""
    params = design.params
    mu0, mu1, mu2 = mu
    if mu1 + mu2 <= 0:
        return 0.0
    eta, eta_a = participant_fractions(mu, params.mua)
    theta_a = params.theta * (1.0 - eta_a)
    delta_a = params.delta * (1.0 - eta_a)
    b_f = beta_fixed_point(mu, design.w, params, FAKE)
    b_r = beta_fixed_point(mu, design.w, params, REAL)
    ok_f = 1.0 if b_f >= theta_a - 1e-12 else 0.0
    ok_r = 1.0 if b_r <= delta_a + 1e-12 else 0.0
    return params.p * ok_f + (1.0 - params.p) * ok_r


def utility_eval(strategy: int, mu, design: AiDesign) -> float:
    """Utility of one user given the population mix (mean-field limit)."""
    params = design.params
    if strategy == 0:
        return params.q_np
    mu0, mu1, mu2 = mu
    ps = success_probability(mu, design)
    share = design.reward * ps / (mu1 + params.mua + design.gamma * mu2)
    if strategy == 1:
        return params.q_p + share
    if strategy == 2:
        return params.q_p - params.c_e + design.gamma * share
    raise ValueError("strategy in {0,1,2}")


def _identification(design: AiDesign) -> tuple:
    """Tagging limits (beta_F, beta_R) at the designed mix, the adjusted
    targets theta_tilde(1-mua) and delta(1-mua), and a message naming the
    first target missed by more than 1e-9 (None when both are met)."""
    params = design.params
    mu_eta = design.mu_eta()
    b_f = beta_fixed_point(mu_eta, design.w, params, FAKE)
    b_r = beta_fixed_point(mu_eta, design.w, params, REAL)
    theta_a_tilde = design.theta_tilde * (1.0 - params.mua)
    delta_a = params.delta * (1.0 - params.mua)
    missed = None
    if not b_f >= theta_a_tilde - 1e-9:
        missed = f"beta_F^eta >= theta_tilde(1-mua) violated: {b_f} < {theta_a_tilde}"
    elif not b_r <= delta_a + 1e-9:
        missed = f"beta_R^eta <= delta_a violated: {b_r} > {delta_a}"
    return b_f, b_r, theta_a_tilde, delta_a, missed


def _degradation(b_f_x: float, params: GameParams) -> float:
    """Percent shortfall of a fake-post limit below theta(1-mua)."""
    theta_a = params.theta * (1.0 - params.mua)
    return (theta_a - b_f_x) * 100.0 / theta_a


def verify_equilibria(design: AiDesign) -> dict:
    """Check the designed game's guarantees; raise naming any failed one.

    Conditions: (a) the designed mix identifies both posts at the adjusted
    levels, (b) the two participating strategies are exactly indifferent and
    beat idling, (c) when a second equilibrium exists it still protects the
    real post, and its fake-post degradation is reported.
    """
    if not design.feasible:
        raise GameVerificationError(f"design infeasible: {design.reason}")
    params = design.params
    mua = params.mua
    mu_eta = design.mu_eta()
    b_f, b_r, theta_a_tilde, delta_a, missed = _identification(design)
    if missed:
        raise GameVerificationError(missed)
    u0, u1, u2 = (utility_eval(s, mu_eta, design) for s in (0, 1, 2))
    if abs(u1 - u2) > 1e-9 * max(1.0, abs(u1)):
        raise GameVerificationError(f"type-1/type-2 indifference violated: {u1} != {u2}")
    if not (u1 > u0):
        raise GameVerificationError(f"participation must beat idling: {u1} <= {u0}")

    report = {
        "beta_F_eta": b_f, "beta_R_eta": b_r,
        "theta_a_tilde": theta_a_tilde, "delta_a": delta_a,
        "utilities_at_eta": (u0, u1, u2),
        "ne_list": [{"mu": mu_eta, "ai": True}],
        "second_ne": None, "degradation_pct": None,
    }
    x = design.x_eta
    if x < 1.0 - mua:
        mu_x = design.mu_x(x)
        b_f_x = beta_fixed_point(mu_x, design.w, params, FAKE)
        b_r_x = beta_fixed_point(mu_x, design.w, params, REAL)
        if not b_r_x <= delta_a + 1e-9:
            raise GameVerificationError(
                f"second-NE real-post bound violated: {b_r_x} > {delta_a}")
        if x > design.eta_star:
            mult = params.response_slope(design.w, FAKE)
            x_f = (1.0 - mua - 1.0 / mult) / (1.0 - params.alpha_f)
            floor = 1.0 / mult if x <= x_f else params.alpha_f * (1.0 - mua)
            if not b_f_x >= floor - 1e-9:
                raise GameVerificationError(
                    f"second-NE fake-post floor violated: {b_f_x} < {floor}")
        ps = success_probability(mu_x, design)
        # x_eta is a Nash equilibrium only if the game is NOT fully
        # successful there (indifference of types 1 and 2 needs P = 1-p)
        if ps < 1.0 - 1e-12:
            u1x = utility_eval(1, mu_x, design)
            u2x = utility_eval(2, mu_x, design)
            if abs(ps - (1.0 - params.p)) < 1e-12 and abs(u1x - u2x) > 1e-9:
                raise GameVerificationError(
                    f"second NE indifference violated: {u1x} != {u2x}")
            report["ne_list"].append({"mu": mu_x, "ai": False})
            report["second_ne"] = {"x_eta": x, "beta_F": b_f_x, "beta_R": b_r_x,
                                   "success_prob": ps}
            report["degradation_pct"] = _degradation(b_f_x, params)
    return report


def simulate_tagging_game(mu, design: AiDesign, u: str, k_max: int, seed: int,
                          record_every: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo tagging stream: per epoch a participant (type-1, type-2
    or adversary) tags, and the running fake-tag fraction updates as the
    empirical mean.  Returns the recorded epochs (every ``record_every``-th
    and the last) and the beta at each."""
    if u not in (FAKE, REAL):
        raise ValueError(f"actuality must be {FAKE!r} or {REAL!r}, got {u!r}")
    require_counts(k_max=k_max, record_every=record_every)
    params = design.params
    eta, eta_a = participant_fractions(mu, params.mua)
    alpha_u = params.alpha(u)
    mult = params.response_slope(design.w, u)
    rng = make_rng(seed)
    fakes = 0
    epochs, betas = [], []
    beta = 0.0
    for k, r, ud in zip(range(1, k_max + 1), rng.random(k_max).tolist(),
                        rng.random(k_max).tolist()):
        if r < eta:
            tag_fake = ud < alpha_u
        elif r < 1.0 - eta_a:
            tag_fake = ud < min(mult * beta, 1.0)
        else:
            tag_fake = False
        if tag_fake:
            fakes += 1
        beta = fakes / k
        if k % record_every == 0 or k == k_max:
            epochs.append(k)
            betas.append(beta)
    return np.asarray(epochs), np.asarray(betas)


def random_study(n_samples: int, d: float, seed: int, theta: float = 0.75,
                 gamma_margin: float = 1000.0, verify: bool = False) -> dict:
    """Random-configuration study of the design routine.

    Samples alpha_R ~ U(0.25, 0.3), mua ~ U(0, 0.2), a ~ U(2, 3),
    p ~ U(0, 0.5) with delta = alpha_R + 0.01 and alpha_F = alpha_R/(1-d);
    reports the fraction of feasible designs and the fraction with small
    (< 10 percent) fake-post degradation at the second equilibrium.

    Counting rule: a configuration is degradation-free
    outright when x_eta stays at or below the participation level whose
    unsaturated fixed point meets the original target theta (i.e.
    x_eta <= (1-theta)(1-mua)/(1-alpha_F)); beyond that level the exact
    (branch-split) fixed point enters the degradation metric.  Large reward
    multipliers (default floor + 1000) keep x_eta governed by the mix alone.
    ``verify=True`` additionally runs every design through
    verify_equilibria and reports the pass fraction.  ``rows`` holds one
    (sample, feasible, ai, degradation_pct) tuple per sample, and every
    fraction is read from it.  Every draw is a valid ``GameParams`` only
    when theta <= 1 and alpha_F < theta for alpha_R up to 0.30, so a larger
    theta or d is rejected.
    """
    require_counts(n_samples=n_samples)
    if not 0.0 < d < 1.0:
        raise ValueError(f"d must be in (0, 1), got {d}")
    if not theta <= 1:
        raise ValueError(f"theta must be <= 1, got {theta}")
    if not 0.30 <= theta * (1.0 - d):
        bound = 1.0 - 0.30 / theta if theta > 0 else -math.inf
        raise ValueError(f"d must be <= 1 - 0.30/theta = {bound:.6g} "
                         f"at theta={theta}, got {d}")
    rng = make_rng(seed)
    degradations = []
    rows = []
    for i in range(n_samples):
        alpha_r = rng.uniform(0.25, 0.30)
        mua = rng.uniform(0.0, 0.2)
        a = rng.uniform(2.0, 3.0)
        p = rng.uniform(0.0, 0.5)
        p = min(max(p, 1e-6), 1.0 - 1e-6)
        alpha_f = alpha_r / (1.0 - d)
        params = GameParams(alpha_r=alpha_r, alpha_f=alpha_f, mua=mua, p=p,
                            theta=theta, delta=alpha_r + 0.01, resp_a=a)
        design = design_ai_game(params, gamma_margin=gamma_margin)
        if not design.feasible:
            rows.append((i, 0, 0, float("nan")))
            continue
        if verify:
            try:
                verify_equilibria(design)
            except GameVerificationError:
                rows.append((i, 1, 0, float("nan")))
                continue
            ai = True
        else:
            ai = _identification(design)[-1] is None
        x = design.x_eta
        level_theta = (1.0 - theta) * (1.0 - mua) / (1.0 - alpha_f)
        if x <= level_theta or x >= 1.0 - mua:
            degradation = 0.0
        else:
            b_f_x = beta_fixed_point(design.mu_x(x), design.w, params, FAKE)
            degradation = _degradation(b_f_x, params)
            degradations.append(degradation)
        rows.append((i, 1, int(ai), degradation))
    # infeasible and unverified rows carry NaN, which fails "< 10"
    return {
        "samples": n_samples,
        "feasible_fraction": sum(r[1] for r in rows) / n_samples,
        "ai_fraction": sum(r[2] for r in rows) / n_samples,
        "second_ne_fraction": len(degradations) / n_samples,
        "small_degradation_fraction": sum(r[3] < 10.0 for r in rows) / n_samples,
        "degradations": np.asarray(degradations),
        "rows": rows,
    }
