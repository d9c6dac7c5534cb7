"""Stochastic warning dynamics: tagged-copy propagation under a mechanism,
and the two-timescale scheme that learns the mechanism parameters from a
stream of reads of a known real post.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bp_core import make_rng
from .wm import (MechanismDesign, PostModel, UserMix, eo_warning,
                 warning_value)

_BUF = 1 << 14


class _Buf:
    """Draws handed out one at a time from blocks of _BUF: uniforms on
    [0, 1), or, given ``mean``, geometric counts on {0, 1, ...} with that
    mean."""

    def __init__(self, rng, mean=None):
        if mean is None:
            self.block = lambda: rng.random(_BUF).tolist()
        else:
            p = 1.0 / (1.0 + mean)
            self.block = lambda: (rng.geometric(p, _BUF) - 1).tolist()
        self.buf = self.block()
        self.j = 0

    def draw(self):
        if self.j >= _BUF:
            self.buf = self.block()
            self.j = 0
        self.j += 1
        return self.buf[self.j - 1]


def w_update(w: float, eps: float, indicator: float, kappa: float) -> float:
    """Projected scale update at a special epoch: the tag indicator is
    driven to 1 - kappa, and w never drops below one."""
    return max(1.0, w - eps * (indicator - (1.0 - kappa)))


def b_update(b: float, eps: float, beta: float, target: float) -> float:
    """Projected damping update: the observed fake-tag fraction is driven
    to the target; b never goes negative."""
    return max(0.0, b + eps * (beta - target))


@dataclass
class TaggingPath:
    epoch: np.ndarray
    beta: np.ndarray          # fake-tag fraction among unread copies
    cx: np.ndarray
    cy: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    extinct: bool


def _share_count(rng, post, eta, geom_buf, z_total):
    """Shares of one reader: geometric thinning when the transient boost is
    off (a Binomial over a geometric friend count with success p is again
    geometric with mean m_f * p), else an explicit two-stage draw."""
    if post.share_bonus_k == 0.0:
        return geom_buf.draw()
    friends = int(rng.geometric(1.0 / (1.0 + post.m_f))) - 1
    if friends <= 0:
        return 0
    p = min(eta + post.share_bonus_k / max(z_total, 1) ** 2, 1.0)
    return int(rng.binomial(friends, p))


def simulate_tagging(kind: str, design: MechanismDesign, post: PostModel,
                     mix: UserMix, actuality: str, init_fake: int,
                     init_real: int, max_events: int, seed: int,
                     record_every: int = 100) -> TaggingPath:
    """Propagate a post whose readers tag and share under the mechanism.

    Reader behaviour per event: user type drawn from the mix proportions;
    non-participants read silently, warning-ignorers tag from their innate
    ability, warning-seekers use the live warning, adversaries always tag
    real; all shares carry the reader's tag.
    """
    if init_fake + init_real < 1:
        raise ValueError("need at least one initial copy")
    u = actuality
    rng = make_rng(seed)
    unif_tag, unif_user, unif_decide = _Buf(rng), _Buf(rng), _Buf(rng)
    geo_user = _Buf(rng, post.m_f * post.eta(u))
    geo_adv = _Buf(rng, post.m_f * post.eta_a)
    ax_u, ay_u = post.alpha_x(u), post.alpha_y(u)
    p_wi_x, p_wi_y = ax_u * post.rho, ay_u * post.rho
    thr_np, thr_wi, thr_ws = mix.mu0, mix.mu0 + mix.mu1, mix.mu0 + mix.mu1 + mix.mu2
    cx, cy = init_fake, init_real
    ax_t, ay_t = init_fake, init_real
    rec_n, rec_beta, rec_cx, rec_cy, rec_ax, rec_ay = [], [], [], [], [], []
    extinct = False
    for n in range(1, max_events + 1):
        s = cx + cy
        if s == 0:
            extinct = True
            break
        beta = cx / s
        fake_copy = unif_tag.draw() * s < cx
        r = unif_user.draw()
        shares = 0
        tagged_fake = False
        if r < thr_np:
            pass
        elif r < thr_wi:
            tagged_fake = unif_decide.draw() < (p_wi_x if fake_copy else p_wi_y)
            shares = _share_count(rng, post, post.eta(u), geo_user, ax_t + ay_t)
        elif r < thr_ws:
            omega = warning_value(kind, beta, design, post, mix)
            p = min((ax_u if fake_copy else ay_u) * omega, 1.0)
            tagged_fake = unif_decide.draw() < p
            shares = _share_count(rng, post, post.eta(u), geo_user, ax_t + ay_t)
        else:
            shares = _share_count(rng, post, post.eta_a, geo_adv, ax_t + ay_t)
        if fake_copy:
            cx -= 1
        else:
            cy -= 1
        if tagged_fake:
            cx += shares
            ax_t += shares
        else:
            cy += shares
            ay_t += shares
        if n % record_every == 0 or cx + cy == 0 or n == max_events:
            s2 = cx + cy
            rec_n.append(n)
            rec_beta.append(cx / s2 if s2 > 0 else 0.0)
            rec_cx.append(cx)
            rec_cy.append(cy)
            rec_ax.append(ax_t)
            rec_ay.append(ay_t)
        if cx + cy == 0:
            extinct = True
            break
    return TaggingPath(
        epoch=np.asarray(rec_n, dtype=np.int64),
        beta=np.asarray(rec_beta, dtype=float),
        cx=np.asarray(rec_cx, dtype=np.int64),
        cy=np.asarray(rec_cy, dtype=np.int64),
        ax=np.asarray(rec_ax, dtype=np.int64),
        ay=np.asarray(rec_ay, dtype=np.int64),
        extinct=extinct,
    )


@dataclass
class LearnConfig:
    """Two-timescale schedule for learning (w, b) from a real-post stream.

    The b-iterate steps with eps_k at every read epoch k; the sparse
    w-updates step on their own clock (j-th w-update uses eps_j), which
    keeps the w-timescale effective even though special epochs thin out.
    """
    budget: int
    kappa: float
    w0: float = 6.0
    b0: float = 1e-4
    eta0: float = 0.008                 # special-warning coin at the first epoch
    eps_scale: float = 2.2              # eps_k = eps_scale * (1/k)^eps_power
    eps_power: float = 0.7
    eta_scale: float = 1.5              # eta_k = eta_scale * (1/k)^eta_power
    eta_power: float = 0.8
    seed_users: int = 20
    record_every: int = 1000


@dataclass
class LearnResult:
    w: float
    b: float
    trace: np.ndarray                   # rows (k, w, b, beta)
    extinct: bool


def learn_wm(config: LearnConfig, post: PostModel, mix: UserMix,
             target_beta: float, seed: int) -> LearnResult:
    """Run the learning mechanism on a known real post.

    At sparse special epochs a warning-seeking reader of a real-tagged copy
    is shown the full-scale warning w+gamma and their tag updates w toward
    the scale whose response probability is 1-kappa; every epoch updates b
    so the observed fake-tag fraction is driven to ``target_beta``.  Both
    iterates are projected (w >= 1, b >= 0).  The trace holds every
    ``record_every``-th read, the last one and the one that ends the run.
    """
    if config.budget < 1:
        raise ValueError("sample budget must be >= 1")
    if config.kappa < 1.0 - post.alpha_y_r / post.alpha_x_r:
        raise ValueError("kappa below the admissible floor alpha ratio")
    rng = make_rng(seed)
    unif_tag, unif_user = _Buf(rng), _Buf(rng)
    unif_decide, unif_coin = _Buf(rng), _Buf(rng)
    geo_user = _Buf(rng, post.m_f * post.eta_r)
    geo_adv = _Buf(rng, post.m_f * post.eta_a)
    ax_r, ay_r = post.alpha_x_r, post.alpha_y_r
    p_wi_x, p_wi_y = ax_r * post.rho, ay_r * post.rho
    thr_np, thr_wi, thr_ws = mix.mu0, mix.mu0 + mix.mu1, mix.mu0 + mix.mu1 + mix.mu2
    gamma = post.gamma
    w, b = config.w0, config.b0
    cx, cy = 0, config.seed_users
    trace = []
    eta_coin = config.eta0
    extinct = False
    n_w_updates = 0
    for k in range(1, config.budget + 1):
        s = cx + cy
        if s == 0:
            extinct = True
            break
        beta = cx / s
        fake_copy = unif_tag.draw() * s < cx
        r = unif_user.draw()
        shares = 0
        tagged_fake = False
        special = False
        if r < thr_np:
            pass
        elif r < thr_wi:
            tagged_fake = unif_decide.draw() < (p_wi_x if fake_copy else p_wi_y)
            shares = geo_user.draw()
        elif r < thr_ws:
            if unif_coin.draw() < eta_coin and not fake_copy:
                special = True
                omega = w + gamma
            else:
                omega = eo_warning(beta, w, b, gamma)
            p = min((ax_r if fake_copy else ay_r) * omega, 1.0)
            tagged_fake = unif_decide.draw() < p
            shares = geo_user.draw()
        else:
            shares = geo_adv.draw()
        if fake_copy:
            cx -= 1
        else:
            cy -= 1
        if tagged_fake:
            cx += shares
        else:
            cy += shares
        s2 = cx + cy
        beta_post = cx / s2 if s2 > 0 else 0.0
        eps = config.eps_scale * k ** (-config.eps_power)
        if special:
            ind = 1.0 if tagged_fake else 0.0
            n_w_updates += 1
            eps_w = config.eps_scale * n_w_updates ** (-config.eps_power)
            w = w_update(w, eps_w, ind, config.kappa)
        b = b_update(b, eps, beta_post, target_beta)
        eta_coin = min(config.eta_scale * k ** (-config.eta_power), 1.0)
        if k % config.record_every == 0 or k == config.budget or s2 == 0:
            trace.append((k, w, b, beta_post))
        if s2 == 0:
            extinct = True
            break
    return LearnResult(w=w, b=b, trace=np.asarray(trace, dtype=float),
                       extinct=extinct)
