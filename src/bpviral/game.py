"""Participation mean-field game for actuality identification of posts.

Users choose to ignore a post, tag from innate ability, or tag using the
system warning; a reward split between the two participating types makes
the desired mix a Nash equilibrium.  With the polynomial response family
the tagging fixed points are available in closed form, which drives both
the game design routine and its verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .bp_core import make_rng, require, require_counts

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
    resp_c: float = 1.0       # response scale

    def __post_init__(self):
        """Each rule through ``require``, in order; every lane of an array field must hold."""
        ar, af, theta, delta = self.alpha_r, self.alpha_f, self.theta, self.delta
        for name, ok, rule in (
                *((n, abs(getattr(self, n)) < math.inf, "finite")
                  for n in ("q_p", "q_np", "c_e", "resp_a", "resp_c")),
                ("alpha_r", 0 < ar, "> 0"),
                ("alpha_f", (ar < af) & (af < 1), "in (alpha_r, 1)"),
                ("mua", (0 <= self.mua) & (self.mua < 1), "in [0, 1)"),
                ("p", (0 < self.p) & (self.p < 1), "in (0, 1)"),
                ("q_p", self.q_p >= self.q_np, ">= q_np"),
                *((n, getattr(self, n) > 0, "> 0") for n in ("c_e", "resp_a", "resp_c")),
                ("theta", theta <= 1, "<= 1"),
                ("theta", theta > af, "> alpha_f"),
                ("delta", (ar < delta) & (delta < theta), "in (alpha_r, theta)")):
            # a Python bool skips np.all, which a scalar GameParams would pay per rule
            require(ok is True or np.all(ok), name, getattr(self, name), rule)

    @property
    def delta_ratio(self) -> float:
        return self.alpha_f / self.alpha_r          # Delta_R > 1

    @cached_property
    def _dra(self):
        """(Delta_R)^a by Python's pow per lane (``np.power`` may round otherwise)."""
        if np.ndim(self.delta_ratio) == np.ndim(self.resp_a) == 0:
            return self.delta_ratio ** self.resp_a
        ratio, a = np.broadcast_arrays(self.delta_ratio, self.resp_a)
        return np.array(list(map(pow, ratio.tolist(), a.tolist())))

    def alpha(self, u: str) -> float:
        return self.alpha_f if u == FAKE else self.alpha_r

    def ratio_pow(self, u: str) -> float:
        """(alpha_u / alpha_R)^a, the response multiplier of the u-post."""
        return self._dra if u == FAKE else 1.0

    def response_slope(self, w: float, u: str) -> float:
        """c w alpha_R (alpha_u/alpha_R)^a: the composed response of a
        warning-using tagger is min{slope * beta, 1} for a u-post."""
        return self.resp_c * w * self.alpha_r * self.ratio_pow(u)


def participant_fractions(mu, mua):
    """(eta, eta_a): type-1 and adversarial fractions among participants."""
    mu0, mu1, mu2 = mu
    total = mu1 + mu2 + mua
    require(not np.any(total <= 0), "participants mu1 + mu2 + mua", total, "> 0")
    return mu1 / total, mua / total


@np.errstate(divide="ignore", invalid="ignore")
def beta_fixed_point(mu, w: float, params: GameParams, u: str) -> float:
    """Closed-form attractor of the tagging dynamics for a u-post (per lane).

    With the linear-in-beta composed response the dynamics are piecewise
    linear: below the response saturation the fixed point is
    alpha_u eta / rho_u, above it alpha_u eta + (1 - eta - eta_a).
    """
    eta, eta_a = participant_fractions(mu, params.mua)
    alpha_u = params.alpha(u)
    mult = params.response_slope(w, u)
    rho_bar = alpha_u * eta + 1.0 - eta - eta_a
    rho = np.subtract(1.0, (1.0 - eta - eta_a) * mult)
    beta = np.where(~(rho <= 0) & (rho_bar < np.divide(1.0, mult)), alpha_u * eta / rho, rho_bar)
    return beta if beta.ndim else float(beta)


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
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "params"}


def gamma_floor(eta: float, params: GameParams) -> float:
    """Smallest reward multiplier keeping both participating types willing."""
    p, mua = params.p, params.mua
    return (1.0 / (1.0 - p)) * ((1.0 - (eta + mua) * (1.0 - p)) / (1.0 - eta - mua))


def _first_failure(shape, checks) -> np.ndarray:
    """The message of the first check each lane fails, "" where it passes
    them all.  A check is (bad, text, *values): ``bad`` marks the lanes that
    fail it, and ``text`` is formatted from the values at the lane."""
    msg, ok = np.full(shape, "", dtype=object), np.ones(shape, dtype=bool)
    for bad, text, *values in checks:
        lanes = np.flatnonzero(bad & ok).tolist()
        ok[lanes] = False
        cols = [np.broadcast_to(v, shape).tolist() for v in values] if lanes else []
        for i in lanes:
            msg[i] = text.format(*(c[i] for c in cols))
    return msg


def _lanes(obj):
    """A scalar GameParams or AiDesign as the one-lane case of its array form."""
    cols = {f.name: np.array([getattr(obj, f.name)]) for f in fields(obj) if f.name != "params"}
    if isinstance(obj, AiDesign):
        cols["params"] = _lanes(obj.params)
    return type(obj)(**cols)


def design_ai_game(params: GameParams, gamma_margin: float = 1.0) -> AiDesign:
    """Design the actuality-identification game.

    Follows the two-branch target adjustment (theta_tilde, with the slack
    eps 1e-6 above its admissible floor), then picks the warning scale w
    inside its feasibility interval, the participation level
    eta = eta_bar + eps2, and finally (gamma, R) to make the designed mix an
    equilibrium.  The free slack choices are interval midpoints; gamma is
    the floor plus ``gamma_margin``, which must be finite and >= 0.
    """
    lanes = _design(_lanes(params), gamma_margin)
    return AiDesign(params=params, **{k: v.tolist()[0] for k, v in lanes.to_dict().items()})


@np.errstate(all="ignore")
def _design(params: GameParams, gamma_margin: float) -> AiDesign:
    """``design_ai_game`` on each lane of array params: a lane that fails
    a step has NaN values and the reason of the first step it fails."""
    require(0 <= gamma_margin < math.inf, "gamma_margin", gamma_margin, "finite and >= 0")
    aR, aF = params.alpha_r, params.alpha_f
    theta, delta, mua = params.theta, params.delta, params.mua
    dra = params.ratio_pow(FAKE)                     # (Delta_R)^a
    delta_a = delta * (1.0 - mua)

    def eta_star_of(level):
        return (1.0 - level) * (1.0 - mua) / (1.0 - aF)

    kappa = delta * (dra * (1.0 - aF) - 1.0) - aR * dra
    k_delta = kappa * kappa - 4.0 * delta * aR * aF * dra
    es_theta = eta_star_of(theta)
    f_denom = dra * (delta_a - aR * es_theta)
    keep = (f_denom > 0) & (theta > (delta_a - es_theta * delta) / f_denom)
    theta2 = (-kappa + np.sqrt(k_delta)) / (2.0 * dra * aR)
    base = np.maximum(theta2, 1.0 - delta * (1.0 - aF) / aR)
    theta_tilde = np.where(keep, theta,
                           np.minimum(base + (np.maximum(0.0, theta - theta2) + 1e-6), 1.0))

    es = eta_star_of(theta_tilde)
    lo = (1.0 / (1.0 - mua)) * np.maximum(1.0, 1.0 / (dra * theta_tilde))
    hi = np.minimum(1.0 / delta_a, (delta_a - es * aR) / (delta_a * (1.0 - mua - es)))
    cwa = lo + 0.5 * (hi - lo)
    eta_bar = delta_a * ((1.0 - mua) * cwa - 1.0) / (cwa * delta_a - aR)
    eta = eta_bar + 0.5 * (es - eta_bar)
    reason = _first_failure(keep.shape, [
        (~keep & (k_delta < 0), "K_delta negative"),
        (es <= 0.0, "eta_star <= 0 at theta_tilde={:g}", theta_tilde),
        (~(hi > lo), "empty warning-scale interval"),
        (~(eta_bar < es), "participation interval empty")])

    gamma = np.maximum(gamma_floor(eta, params), 1.0) + gamma_margin
    cols = dict(theta_tilde=theta_tilde, w=cwa / (params.resp_c * aR), eta=eta, gamma=gamma,
                reward=params.c_e * (1.0 - eta - mua + 1.0 / (gamma - 1.0)),
                x_eta=params.p / (gamma - 1.0) + params.p * (1.0 - mua - eta) + eta,
                eta_star=es, eta_bar=eta_bar)
    ok = reason == ""
    return AiDesign(**{k: np.where(ok, v, np.nan) for k, v in cols.items()},
                    params=params, feasible=ok, reason=reason)


def payoffs(mu, design: AiDesign, b_f, b_r) -> tuple:
    """(P(success), u_1, u_2) at the mix ``mu`` from its almost-sure tagging
    limits (beta_F, beta_R), which the caller has solved; idling pays
    ``params.q_np``, and the all-idle mix has success probability zero by
    convention."""
    params = design.params
    mu0, mu1, mu2 = mu
    ps = 0.0
    if not np.all(mu1 + mu2 <= 0):
        eta_a = participant_fractions(mu, params.mua)[1]
        ps = (params.p * (b_f >= params.theta * (1.0 - eta_a) - 1e-12)
              + (1.0 - params.p) * (b_r <= params.delta * (1.0 - eta_a) + 1e-12))
    share = design.reward * ps / (mu1 + params.mua + design.gamma * mu2)
    return ps, params.q_p + share, params.q_p - params.c_e + design.gamma * share


def _identification(design: AiDesign) -> tuple:
    """Tagging limits (beta_F, beta_R) at the designed mix, the adjusted
    targets theta_tilde(1-mua) and delta(1-mua), and the two checks (for
    ``_first_failure``) that each lane meets both targets to within 1e-9."""
    params = design.params
    mu_eta = design.mu_eta()
    b_f = beta_fixed_point(mu_eta, design.w, params, FAKE)
    b_r = beta_fixed_point(mu_eta, design.w, params, REAL)
    theta_a_tilde = design.theta_tilde * (1.0 - params.mua)
    delta_a = params.delta * (1.0 - params.mua)
    return b_f, b_r, theta_a_tilde, delta_a, [
        (~(b_f >= theta_a_tilde - 1e-9),
         "beta_F^eta >= theta_tilde(1-mua) violated: {} < {}", b_f, theta_a_tilde),
        (~(b_r <= delta_a + 1e-9), "beta_R^eta <= delta_a violated: {} > {}", b_r, delta_a)]


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
    msg, cols = _verify(_lanes(design))
    if msg[0]:
        raise GameVerificationError(msg[0])
    b_f, b_r, theta_a_tilde, delta_a, u0, u1, u2, ne, b_f_x, b_r_x, ps = (
        c.tolist()[0] for c in cols)
    report = {"beta_F_eta": b_f, "beta_R_eta": b_r, "theta_a_tilde": theta_a_tilde,
              "delta_a": delta_a, "utilities_at_eta": (u0, u1, u2),
              "ne_list": [{"mu": design.mu_eta(), "ai": True}],
              "second_ne": None, "degradation_pct": None}
    if ne:
        report["ne_list"].append({"mu": design.mu_x(design.x_eta), "ai": False})
        report["second_ne"] = {"x_eta": design.x_eta, "beta_F": b_f_x, "beta_R": b_r_x,
                               "success_prob": ps}
        report["degradation_pct"] = _degradation(b_f_x, design.params)
    return report


@np.errstate(all="ignore")
def _verify(design: AiDesign) -> tuple:
    """``verify_equilibria`` on each lane of an array design: the message of
    the first guarantee each lane fails ("" when it passes) and the report's
    columns, among them ``ne``, which marks the lanes with a second NE."""
    params = design.params
    mua = params.mua
    b_f, b_r, theta_a_tilde, delta_a, checks = _identification(design)
    u0 = params.q_np
    _, u1, u2 = payoffs(design.mu_eta(), design, b_f, b_r)
    x = design.x_eta
    second = x < 1.0 - mua
    mu_x = design.mu_x(x)
    b_f_x = beta_fixed_point(mu_x, design.w, params, FAKE)
    b_r_x = beta_fixed_point(mu_x, design.w, params, REAL)
    mult = params.response_slope(design.w, FAKE)
    x_f = (1.0 - mua - 1.0 / mult) / (1.0 - params.alpha_f)
    floor = np.where(x <= x_f, 1.0 / mult, params.alpha_f * (1.0 - mua))
    ps, u1x, u2x = payoffs(mu_x, design, b_f_x, b_r_x)
    # x_eta is a Nash equilibrium only if the game is NOT fully
    # successful there (indifference of types 1 and 2 needs P = 1-p)
    ne = second & (ps < 1.0 - 1e-12)
    msg = _first_failure(x.shape, [
        (~design.feasible, "design infeasible: {}", design.reason), *checks,
        (abs(u1 - u2) > 1e-9 * np.maximum(1.0, abs(u1)),
         "type-1/type-2 indifference violated: {} != {}", u1, u2),
        (~(u1 > u0), "participation must beat idling: {} <= {}", u1, u0),
        (second & ~(b_r_x <= delta_a + 1e-9),
         "second-NE real-post bound violated: {} > {}", b_r_x, delta_a),
        (second & (x > design.eta_star) & ~(b_f_x >= floor - 1e-9),
         "second-NE fake-post floor violated: {} < {}", b_f_x, floor),
        (ne & (abs(ps - (1.0 - params.p)) < 1e-12) & (abs(u1x - u2x) > 1e-9),
         "second NE indifference violated: {} != {}", u1x, u2x)])
    return msg, (b_f, b_r, theta_a_tilde, delta_a, u0, u1, u2, ne, b_f_x, b_r_x, ps)


def simulate_tagging_game(mu, design: AiDesign, u: str, k_max: int, seed: int,
                          record_every: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo tagging stream: per epoch a participant (type-1, type-2
    or adversary) tags, and the running fake-tag fraction updates as the
    empirical mean.  Returns the recorded epochs (every ``record_every``-th
    and the last) and the beta at each."""
    require(u in (FAKE, REAL), "actuality", repr(u), f"{FAKE!r} or {REAL!r}")
    require_counts(k_max=k_max, record_every=record_every)
    if not design.feasible:
        raise ValueError(f"design infeasible: {design.reason}")
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
    ``verify=True`` additionally checks every design as verify_equilibria
    does and reports the pass fraction.  The samples are the lanes of one
    array pass, each computed as the scalar routines do.  ``rows`` holds one
    (sample, feasible, ai, degradation_pct) tuple per sample, and every
    fraction is read from it.  Every draw is a valid ``GameParams`` only
    when theta <= 1 and alpha_F < theta for alpha_R up to 0.30, so a larger
    theta or d is rejected.
    """
    require_counts(n_samples=n_samples)
    require(0.0 < d < 1.0, "d", d, "in (0, 1)")
    require(0 < theta <= 1, "theta", theta, "in (0, 1]")
    require(0.30 <= theta * (1.0 - d), "d", d,
            f"<= 1 - 0.30/theta = {1.0 - 0.30 / theta:.6g} at theta={theta}")
    u = make_rng(seed).random((n_samples, 4))
    # the columns as rng.uniform(low, high) maps its draws: low + (high - low) * u
    alpha_r, mua, a, p = (low + (high - low) * u[:, j] for j, (low, high) in
                          enumerate(((0.25, 0.30), (0.0, 0.2), (2.0, 3.0), (0.0, 0.5))))
    alpha_f = alpha_r / (1.0 - d)
    params = GameParams(alpha_r=alpha_r, alpha_f=alpha_f, mua=mua,
                        p=np.minimum(np.maximum(p, 1e-6), 1.0 - 1e-6),
                        theta=theta, delta=alpha_r + 0.01, resp_a=a)
    design = _design(params, gamma_margin)
    feasible = design.feasible
    x = design.x_eta
    if verify:
        msg, cols = _verify(design)
        b_f_x = cols[8]                               # beta_F at mu_x, solved by _verify
    else:
        msg = _first_failure(n_samples, _identification(design)[-1])
        b_f_x = beta_fixed_point(design.mu_x(x), design.w, params, FAKE)
    ai = feasible & (msg == "")
    counted = ai if verify else feasible          # the rows that carry a degradation
    level_theta = (1.0 - theta) * (1.0 - mua) / (1.0 - alpha_f)
    second = counted & ~((x <= level_theta) | (x >= 1.0 - mua))
    # infeasible and unverified rows carry NaN, which fails "< 10"
    deg = np.where(second, _degradation(b_f_x, params), np.where(counted, 0.0, np.nan))
    return {
        "samples": n_samples,
        "feasible_fraction": int(feasible.sum()) / n_samples,
        "ai_fraction": int(ai.sum()) / n_samples,
        "second_ne_fraction": int(second.sum()) / n_samples,
        "small_degradation_fraction": int((deg < 10.0).sum()) / n_samples,
        "degradations": deg[second],
        "rows": list(zip(range(n_samples), feasible.astype(int).tolist(),
                         ai.astype(int).tolist(), deg.tolist())),
    }
