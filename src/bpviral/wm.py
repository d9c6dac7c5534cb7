"""Fake-post warning mechanisms: user-behaviour model, limit-proportion
fields, and the four mechanism designs.

A post propagates with fake/real tags; a warning shown to warning-seeking
users depends on the running fraction of fake tags.  For each mechanism the
scalar field g(beta) built from the limit mean matrix determines the
limiting tag proportions; designs pick the control parameters so that the
real post stays under a target while fake-post identification is maximised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bp_core import require
from .ode_engine import ScalarField, bisect_root, classify_scalar

FAKE, REAL = "F", "R"

EO, EA, EH, EH2, LEARNED = "eo", "ea", "eh", "eh2", "learned"


@dataclass(frozen=True)
class UserMix:
    """Proportions of non-participating, warning-ignoring, warning-seeking
    and adversarial users; must sum to one with mu2 > 0 (crowd signal)."""
    mu0: float
    mu1: float
    mu2: float
    mua: float

    def __post_init__(self):
        vals = (self.mu0, self.mu1, self.mu2, self.mua)
        require(min(vals) >= 0 and abs(sum(vals) - 1.0) <= 1e-9, "user proportions", vals,
                "nonnegative and sum to 1")

    def without_adversaries(self) -> "UserMix":
        """Same wi/ws shares, adversaries folded into the non-participants."""
        return UserMix(mu0=self.mu0 + self.mua, mu1=self.mu1, mu2=self.mu2, mua=0.0)


@dataclass(frozen=True)
class PostModel:
    """Tagging/sharing parameters for both actualities of a post."""
    m_f: float                       # mean friend count
    eta_f: float                     # share prob., fake post
    eta_r: float                     # share prob., real post
    eta_a: float                     # adversary share prob.
    gamma: float                     # prior-knowledge warning offset
    rho: float                       # un-aided/aided linkage
    alpha_x_f: float                 # warning sensitivity, fake post, fake-tagged copy
    alpha_y_f: float
    alpha_x_r: float
    alpha_y_r: float
    share_bonus_k: float = 0.0       # transient k/Z^2 boost of the share prob.

    def __post_init__(self):
        ea, ef, axf, axr = self.eta_a, self.eta_f, self.alpha_x_f, self.alpha_x_r
        for name, ok, rule in (
                ("m_f", 0 < self.m_f < math.inf, "finite and > 0"),
                ("eta_a", 0 < ea <= 1, "in (0, 1]"),
                ("eta_f", 0 < ef < ea, f"in (0, eta_a = {ea})"),
                ("eta_r", 0 < self.eta_r < ef, f"in (0, eta_f = {ef})"),
                ("alpha_x_f", 0 < axf <= 1, "in (0, 1]"),
                ("alpha_y_f", 0 < self.alpha_y_f < axf, f"in (0, alpha_x_f = {axf})"),
                # fake-post sensitivities dominate the real-post ones
                ("alpha_x_r", 0 < axr < axf, f"in (0, alpha_x_f = {axf})"),
                ("alpha_y_r", 0 < self.alpha_y_r < min(axr, self.alpha_y_f),
                 f"in (0, min(alpha_x_r, alpha_y_f) = {min(axr, self.alpha_y_f)})"),
                ("rho", 0 < self.rho < 1, "in (0, 1)"),
                ("gamma", 0 < self.gamma < math.inf, "finite and > 0"),
                ("share_bonus_k", 0 <= self.share_bonus_k < math.inf, "finite and >= 0")):
            require(ok, name, getattr(self, name), rule)

    def alpha_x(self, u: str) -> float:
        return self.alpha_x_f if u == FAKE else self.alpha_x_r

    def alpha_y(self, u: str) -> float:
        return self.alpha_y_f if u == FAKE else self.alpha_y_r

    def eta(self, u: str) -> float:
        return self.eta_f if u == FAKE else self.eta_r

    @property
    def w_bar(self) -> float:
        """Largest w keeping the warning response linear for every post."""
        return 1.0 / self.alpha_x_f - self.gamma

    @property
    def w_h2(self) -> float:
        """Enhanced-2 scale: linear response guaranteed for the real post only."""
        return 1.0 / self.alpha_x_r - self.gamma


@dataclass
class MechanismDesign:
    kind: str
    w: float
    b: float
    zeta: float = 1.0
    delta_target: float = float("nan")   # constraint actually enforced (delta or delta_a)
    iqos_mode: bool = True
    predicted_limits: dict = field(default_factory=dict)   # u -> sorted roots
    bounds: dict = field(default_factory=dict)             # u -> (lower, upper)
    qos: float = float("nan")
    iqos: float = float("nan")
    constraint_ok: bool = False      # set by limit_proportions
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "kind": self.kind, "w": self.w, "b": self.b, "zeta": self.zeta,
            "delta_target": self.delta_target, "iqos_mode": self.iqos_mode,
            "predicted_limits": {u: list(v) for u, v in self.predicted_limits.items()},
            "bounds": {u: list(v) for u, v in self.bounds.items()},
            "qos": self.qos, "iqos": self.iqos,
            "constraint_ok": self.constraint_ok, "extras": self.extras,
        }


# Benchmark posts of the crowd-tagging study: well-discriminating (smart)
# and weakly discriminating (naive) users.
SMART_POST = PostModel(m_f=28, eta_f=0.08, eta_r=0.05, eta_a=0.55, gamma=0.1,
                       rho=0.9, alpha_x_f=0.85, alpha_y_f=0.6375,
                       alpha_x_r=0.3, alpha_y_r=0.09)
NAIVE_POST = PostModel(m_f=30, eta_f=0.52, eta_r=0.4, eta_a=0.55, gamma=0.1,
                       rho=0.9, alpha_x_f=0.3, alpha_y_f=0.225,
                       alpha_x_r=0.12, alpha_y_r=0.09)


def naive_mix(mua: float) -> UserMix:
    """User mix of the naive-user benchmark at adversary fraction mua."""
    return UserMix(mu0=0.35 - mua if mua <= 0.35 else 0.0, mu1=0.15,
                   mu2=0.5, mua=mua)


def smart_mix(mua: float) -> UserMix:
    """User mix of the smart-user benchmark at adversary fraction mua."""
    return UserMix(mu0=0.0, mu1=0.0, mu2=1 - mua, mua=mua)


def delta_a_value(delta: float, post: PostModel, mix: UserMix) -> float:
    """Real-post target rescaled to count only non-adversarial tags."""
    non_adv = (mix.mu1 + mix.mu2) * post.eta_r
    return delta * non_adv / (non_adv + mix.mua * post.eta_a)


def iqos_scale(post: PostModel, mix: UserMix) -> float:
    """Multiplier relating the overall and the non-adversarial fake-tag
    fractions for the fake post."""
    non_adv = (mix.mu1 + mix.mu2) * post.eta_f
    return (non_adv + mix.mua * post.eta_a) / non_adv


def eo_warning(beta, w: float, b: float, gamma: float):
    """w*beta/(beta + b(1-beta)) + gamma at a float or an array of betas;
    the ratio is 0 at beta <= 0 (its limit at beta=b=0)."""
    denom = beta + b * (1.0 - beta)
    # (beta > 0) zeroes the ratio at beta <= 0 and (denom == 0) keeps 0/0 from
    # being formed; plain arithmetic, so the float call made at every
    # warning-seeker read in wm_dynamics pays no numpy overhead
    return w * beta * (beta > 0.0) / (denom + (denom == 0.0)) + gamma


def warning_value(beta, design: MechanismDesign, post: PostModel, mix: UserMix):
    """Warning level shown at fake-tag fraction beta (a float or an array)
    under the design's mechanism."""
    base = eo_warning(beta, design.w, design.b, post.gamma)
    if design.kind in (EO, EH2, LEARNED):
        return base
    boost = (beta * mix.mua * post.eta_a
             / (mix.mu2 * post.eta_f
                * (beta * post.alpha_x_f + (1.0 - beta) * post.alpha_y_f)))
    if design.kind == EA:
        return base + boost
    if design.kind == EH:
        return design.zeta * (base + boost)
    raise ValueError(f"unknown mechanism kind {design.kind!r}")


def gbeta_wm(beta, design: MechanismDesign, post: PostModel, mix: UserMix, u: str):
    """Drift of the tag-proportion ODE for a u-post under the mechanism, at
    a float or an array of betas."""
    omega = warning_value(beta, design, post, mix)
    ax, ay = post.alpha_x(u), post.alpha_y(u)
    eta_u, mf = post.eta(u), post.m_f
    mu1, mu2, mua = mix.mu1, mix.mu2, mix.mua
    rho = post.rho
    core = (-beta * mu2
            - beta * mu1 * (1.0 - ax * rho)
            + (1.0 - beta) * mu1 * rho * ay
            + mu2 * (beta * np.minimum(omega * ax, 1.0)
                     + (1.0 - beta) * np.minimum(omega * ay, 1.0)))
    return core * mf * eta_u - beta * mua * mf * post.eta_a


def _warning_kinks(design, post, mix, u) -> list:
    """Abscissas where min(omega*alpha, 1) switches; omega is increasing in
    beta for every mechanism here, so each threshold has at most one root."""
    kinks = [0.0, 1.0]
    for alpha in (post.alpha_x(u), post.alpha_y(u)):
        f = lambda b: warning_value(b, design, post, mix) * alpha - 1.0
        f_lo = f(1e-12)
        if f_lo < 0 < f(1.0):
            kinks.append(bisect_root(f, 0.0, 1.0, f_lo, tol=0.0))
    return sorted(set(kinks))


def gbeta_field(design, post, mix, u) -> ScalarField:
    g = lambda b: gbeta_wm(b, design, post, mix, u)
    g.vectorized = True
    return ScalarField(g=g, kinks=_warning_kinks(design, post, mix, u))


def beta_bounds(post: PostModel, mix: UserMix, u: str) -> tuple:
    """A-priori range (lower, upper] containing every limit proportion."""
    ax, ay = post.alpha_x(u), post.alpha_y(u)
    eta_u = post.eta(u)
    q = (mix.mu2 + mix.mu1 * (1.0 - (ax - ay) * post.rho)) * eta_u + mix.mua * post.eta_a
    lower = mix.mu1 * post.rho * ay * eta_u / q
    upper = (mix.mu2 + mix.mu1 * post.rho * ay) * eta_u / q
    return lower, upper


def limit_proportions(design: MechanismDesign, post: PostModel,
                      mix: UserMix) -> MechanismDesign:
    """Solve the limit proportions for both actualities and fill in the
    design's predicted limits, bounds, QoS, i-QoS and whether its largest
    real-post limit meets its target (never, with a NaN target)."""
    require(mix.mu2 > 0, "mu2", mix.mu2, "> 0 (the crowd signal)")
    roots, bounds = {}, {}
    for u in (FAKE, REAL):
        rep = classify_scalar(gbeta_field(design, post, mix, u), grid_points=4000)
        rs = sorted(e.beta for e in rep.equilibria)
        if not rs:
            raise RuntimeError(f"no limit proportion found for {u}-post (internal error)")
        roots[u] = rs
        bounds[u] = beta_bounds(post, mix, u)
    design.predicted_limits = roots
    design.bounds = bounds
    design.qos = roots[FAKE][0]
    design.iqos = design.qos * iqos_scale(post, mix)
    design.constraint_ok = roots[REAL][-1] <= design.delta_target + 1e-7
    return design


def _b_formula(w: float, target: float, post: PostModel, mix: UserMix) -> float:
    """Closed-form b making the real-post limit equal the target, given w."""
    d = target
    mixterm = d * post.alpha_x_r + (1.0 - d) * post.alpha_y_r
    denom = (d * ((mix.mu1 + mix.mu2) * post.eta_r + mix.mua * post.eta_a)
             - post.eta_r * (mix.mu1 * post.rho + mix.mu2 * post.gamma) * mixterm)
    if denom <= 0:
        raise ValueError("constraint unattainable: real-post target below reachable range")
    p = post.eta_r * mix.mu2 * mixterm / denom
    b = (d / (1.0 - d)) * (w * p - 1.0)
    if b < 0:
        raise ValueError("constraint unattainable: negative control (target too large for w)")
    return b


def _target(delta: float, post: PostModel, mix: UserMix, iqos: bool) -> float:
    """Real-post target of a design: delta, or its non-adversarial rescale."""
    require(0 < delta < 1, "delta", delta, "in (0, 1)")
    return delta_a_value(delta, post, mix) if iqos else delta


def _pinned_design(kind, w, b_pinned, post, mix, delta, iqos) -> MechanismDesign:
    """Design of the given kind at scale w: b = 0 when the real-post limit
    at b = 0 already meets the target, else ``b_pinned(target)``."""
    target = _target(delta, post, mix, iqos)
    probe = MechanismDesign(kind=kind, w=w, b=0.0, delta_target=target, iqos_mode=iqos)
    rep = classify_scalar(gbeta_field(probe, post, mix, REAL), grid_points=4000)
    b = b_pinned(target) if min(e.beta for e in rep.equilibria) > target else 0.0
    design = MechanismDesign(kind=kind, w=w, b=b, delta_target=target, iqos_mode=iqos)
    return limit_proportions(design, post, mix)


def optimize_eo(post: PostModel, mix: UserMix, delta: float,
                iqos: bool = True) -> MechanismDesign:
    """Optimal extended-original mechanism: w at its cap; b either zero or
    the value that pins the real-post limit exactly at the target."""
    w = post.w_bar
    return _pinned_design(EO, w, lambda target: _b_formula(w, target, post, mix),
                          post, mix, delta, iqos)


def design_ea(post: PostModel, mix: UserMix, delta: float,
              iqos: bool = True) -> tuple:
    """Adversary-effect-eliminating mechanism plus its small-mua threshold.

    The warning gets an additive boost that makes the fake-post field match
    the no-adversary optimum; (w, b) are the no-adversary optimal pair.
    Returns (design, Delta_a threshold on mua for full elimination).
    """
    eo_na = optimize_eo(post, mix.without_adversaries(), delta, iqos=iqos)
    beta_o_na = eo_na.qos
    w = post.w_bar
    design = _pinned_design(EA, w, lambda target: eo_na.b, post, mix, delta, iqos)
    omega_na = eo_warning(beta_o_na, w, eo_na.b, post.gamma)
    delta_a_thresh = (mix.mu2 * post.eta_f * (1.0 / post.alpha_x_f - omega_na)
                      * ((beta_o_na * post.alpha_x_f + (1 - beta_o_na) * post.alpha_y_f)
                         / (beta_o_na * post.eta_a)))
    design.extras = {"beta_o_na": beta_o_na, "delta_a_threshold": delta_a_thresh,
                     "b_na": eo_na.b}
    return design, delta_a_thresh


def design_eh(post: PostModel, mix: UserMix, delta: float,
              iqos: bool = True) -> MechanismDesign:
    """Enhanced mechanism: the adversary-eliminating warning scaled by the
    largest factor that keeps the real post under the target."""
    target = _target(delta, post, mix, iqos)
    ea, _ = design_ea(post, mix, delta, iqos=iqos)
    omega_a_delta = warning_value(target, ea, post, mix)
    d = target
    eta_r = post.eta_r
    num = (d * (mix.mu2 * eta_r + mix.mu1 * (1.0 - post.alpha_x_r * post.rho) * eta_r
                + mix.mua * post.eta_a)
           - (1.0 - d) * mix.mu1 * post.rho * post.alpha_y_r * eta_r)
    den = mix.mu2 * omega_a_delta * (d * post.alpha_x_r + (1.0 - d) * post.alpha_y_r) * eta_r
    zeta_bar = num / den
    beta_low_f = beta_bounds(post, mix, FAKE)[0]
    if zeta_bar < 1.0 / (post.alpha_y_r * omega_a_delta) or (beta_low_f == 0.0 and ea.b == 0.0):
        zeta = zeta_bar
    else:
        omega_a_low = warning_value(beta_low_f, ea, post, mix)
        zeta = 1.0 / (omega_a_low * post.alpha_y_f)
    design = MechanismDesign(kind=EH, w=ea.w, b=ea.b, zeta=zeta,
                             delta_target=target, iqos_mode=iqos)
    limit_proportions(design, post, mix)
    design.constraint_ok = design.constraint_ok and zeta > 1.0
    design.extras = {"zeta_bar": zeta_bar, "ea_qos": ea.qos, "ea_iqos": ea.iqos}
    return design


def design_eh2(post: PostModel, mix: UserMix, delta: float,
               iqos: bool = True) -> MechanismDesign:
    """Enhanced-2 mechanism: the original warning with the larger scale
    1/alpha_x^R - gamma, keeping a unique real-post limit at the target."""
    w = post.w_h2
    return _pinned_design(EH2, w, lambda target: _b_formula(w, target, post, mix),
                          post, mix, delta, iqos)


def design_for_kind(kind: str, post: PostModel, mix: UserMix, delta: float,
                    iqos: bool = True) -> MechanismDesign:
    designs = {EO: optimize_eo, EA: lambda *args: design_ea(*args)[0], EH: design_eh,
               EH2: design_eh2}
    require(kind in designs, "kind", repr(kind), "one of eo, ea, eh, eh2")
    return designs[kind](post, mix, delta, iqos)


def learned_design(w: float, b: float, post: PostModel, mix: UserMix,
                   delta: float, iqos: bool = True) -> MechanismDesign:
    """Wrap learned (w, b) as an eo-type mechanism and solve its limits."""
    target = _target(delta, post, mix, iqos)
    design = MechanismDesign(kind=LEARNED, w=w, b=b, delta_target=target,
                             iqos_mode=iqos)
    limit_proportions(design, post, mix)
    return design
