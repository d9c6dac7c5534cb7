"""Stochastic warning dynamics: tagged-copy propagation under a mechanism,
and the two-timescale scheme that learns the mechanism parameters from a
stream of reads of a known real post.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .bp_core import make_rng, require, require_counts
from .wm import (EA, EH, EH2, EO, FAKE, LEARNED, REAL, MechanismDesign, PostModel,
                 UserMix, eo_warning, warning_value)

_BUF = 1 << 14


class _Buf:
    """Draws handed out one at a time by ``draw()`` from blocks of _BUF:
    uniforms on [0, 1), or, given ``mean``, geometric counts on {0, 1, ...}
    with that mean.  The first block is drawn at construction, each later
    one at the first draw past the end of the last."""

    def __init__(self, rng, mean=None):
        if mean is None:
            block = lambda: rng.random(_BUF).tolist()
        else:
            p = 1.0 / (1.0 + mean)
            block = lambda: (rng.geometric(p, _BUF) - 1).tolist()
        self.draw = chain.from_iterable(chain([block()], iter(block, None))).__next__


@dataclass
class TaggingPath:
    epoch: np.ndarray
    beta: np.ndarray          # fake-tag fraction among unread copies
    cx: np.ndarray
    cy: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    extinct: bool


def _reads(rng, post, mix, u, warning, bufs, cx, cy, ax, ay):
    """The reader process of a u-post from the counts (cx, cy, ax, ay):
    each read of an unread copy yields the counts after it and the reader's
    tag, until no unread copy is left.

    The copy read is fake-tagged with probability cx / (cx + cy); the
    reader's class is drawn from the mix.  Non-participants read silently,
    warning-ignorers tag from their innate ability, warning-seekers from
    ``warning(beta, fake_copy)`` (asked only for them), and adversaries
    always tag real; every share carries the reader's tag.  Shares are a
    geometric friend count thinned with the share probability, which is
    again geometric with mean m_f * p while the transient boost is off,
    else an explicit two-stage draw.  ``bufs`` holds the uniforms of the
    copy, the class and the tag decision, then the geometric shares of
    users and of adversaries.
    """
    tag, user, decide, geo_user, geo_adv = (buf.draw for buf in bufs)
    ax_u, ay_u = post.alpha_x(u), post.alpha_y(u)
    p_wi_x, p_wi_y = ax_u * post.rho, ay_u * post.rho
    thr_np, thr_wi, thr_ws = mix.mu0, mix.mu0 + mix.mu1, mix.mu0 + mix.mu1 + mix.mu2
    eta_u, eta_a = post.eta(u), post.eta_a
    bonus, p_friends = post.share_bonus_k, 1.0 / (1.0 + post.m_f)
    while cx + cy > 0:
        s = cx + cy
        fake_copy = tag() * s < cx
        if fake_copy:
            cx -= 1
        else:
            cy -= 1
        r = user()
        if r < thr_np:
            yield cx, cy, ax, ay, False
            continue
        if r < thr_wi:
            tagged_fake = decide() < (p_wi_x if fake_copy else p_wi_y)
            eta, geo = eta_u, geo_user
        elif r < thr_ws:
            # the fraction before this read; decide() < 1 makes a clamp at 1 moot
            omega = warning((cx + fake_copy) / s, fake_copy)
            tagged_fake = decide() < (ax_u if fake_copy else ay_u) * omega
            eta, geo = eta_u, geo_user
        else:
            tagged_fake = False
            eta, geo = eta_a, geo_adv
        if bonus == 0.0:
            shares = geo()
        else:
            friends = rng.geometric(p_friends) - 1
            p = min(eta + bonus / max(ax + ay, 1) ** 2, 1.0)
            shares = rng.binomial(friends, p) if friends > 0 else 0
        if tagged_fake:
            cx += shares
            ax += shares
        else:
            cy += shares
            ay += shares
        yield cx, cy, ax, ay, tagged_fake


def simulate_tagging(kind: str, design: MechanismDesign, post: PostModel,
                     mix: UserMix, actuality: str, init_fake: int,
                     init_real: int, max_events: int, seed: int,
                     record_every: int = 100) -> TaggingPath:
    """Propagate a post whose readers tag and share under the mechanism.

    One event is one read of the reader process ``_reads``, the same one
    ``learn_wm`` runs: warning-seekers see the live warning of the
    mechanism, and ``post.share_bonus_k`` boosts sharing while few copies
    have been made.  ``kind`` must be ``design.kind``.
    """
    require(kind in (EO, EA, EH, EH2, LEARNED), "kind", repr(kind),
            "one of eo, ea, eh, eh2, learned")
    require(kind == design.kind, "kind", repr(kind), f"the design's kind {design.kind!r}")
    require(actuality in (FAKE, REAL), "actuality", repr(actuality), f"{FAKE!r} or {REAL!r}")
    for name, value in (("init_fake", init_fake), ("init_real", init_real)):
        require(value >= 0, name, value, ">= 0")
    require(init_fake + init_real >= 1, "init_fake + init_real", init_fake + init_real, ">= 1")
    require_counts(max_events=max_events, record_every=record_every)
    rng = make_rng(seed)
    bufs = (_Buf(rng), _Buf(rng), _Buf(rng),
            _Buf(rng, post.m_f * post.eta(actuality)), _Buf(rng, post.m_f * post.eta_a))
    reads = _reads(rng, post, mix, actuality,
                   lambda beta, fake_copy: warning_value(beta, design, post, mix),
                   bufs, init_fake, init_real, init_fake, init_real)
    rec = []
    for n, (cx, cy, ax, ay, _) in zip(range(1, max_events + 1), reads):
        if n % record_every == 0 or cx + cy == 0 or n == max_events:
            rec.append((n, cx, cy, ax, ay))
    epoch, cx, cy, ax, ay = np.array(rec, dtype=np.int64).T.copy()
    s = cx + cy
    return TaggingPath(epoch=epoch, beta=np.where(s > 0, cx / np.maximum(s, 1), 0.0),
                       cx=cx, cy=cy, ax=ax, ay=ay, extinct=bool(s[-1] == 0))


# The two-timescale schedule of learning (w, b) from a real-post stream.
# The b-iterate steps with eps_k = EPS_SCALE * k^-EPS_POWER at every read
# epoch k; the sparse w-updates step on their own clock (the j-th w-update
# uses eps_j), which keeps the w-timescale effective even though special
# epochs thin out.  The special-warning coin is ETA0 at the first epoch and
# eta_k = ETA_SCALE * k^-ETA_POWER after it; (w, b) start at (W0, B0).
W0, B0, ETA0 = 6.0, 1e-4, 0.008
EPS_SCALE, EPS_POWER, ETA_SCALE, ETA_POWER = 2.2, 0.7, 1.5, 0.8


@dataclass
class LearnConfig:
    budget: int
    kappa: float
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

    Reads follow the reader process of ``simulate_tagging`` (``_reads``),
    with its sharing law and share boost.  At sparse special epochs a
    warning-seeking reader of a real-tagged copy is shown the full-scale
    warning w+gamma and their tag updates w toward the scale whose response
    probability is 1-kappa; every epoch updates b so the observed fake-tag
    fraction is driven to ``target_beta``.  Both iterates are projected
    (w >= 1, b >= 0).  The trace holds every ``record_every``-th read, the
    last one and the one that ends the run.
    """
    require_counts(budget=config.budget, record_every=config.record_every,
                   seed_users=config.seed_users)
    require(1.0 - post.alpha_y_r / post.alpha_x_r <= config.kappa < 1.0, "kappa", config.kappa,
            "in [1 - alpha_y_r/alpha_x_r, 1)")
    require(0.0 <= target_beta <= 1.0, "target_beta", target_beta, "in [0, 1]")
    budget, record_every, one_minus_kappa = config.budget, config.record_every, 1.0 - config.kappa
    eps_scale, neg_eps_power = EPS_SCALE, -EPS_POWER
    eta_scale, neg_eta_power = ETA_SCALE, -ETA_POWER
    rng = make_rng(seed)
    unif_tag, unif_user, unif_decide, unif_coin = _Buf(rng), _Buf(rng), _Buf(rng), _Buf(rng)
    bufs = (unif_tag, unif_user, unif_decide,
            _Buf(rng, post.m_f * post.eta_r), _Buf(rng, post.m_f * post.eta_a))
    coin, gamma = unif_coin.draw, post.gamma
    w, b = W0, B0
    eta_coin = ETA0

    def warning(beta, fake_copy):
        nonlocal special
        if coin() < eta_coin and not fake_copy:
            special = True
            return w + gamma
        return eo_warning(beta, w, b, gamma)

    reads = _reads(rng, post, mix, REAL, warning, bufs, 0, config.seed_users,
                   0, config.seed_users)
    trace = []
    n_w_updates = 0
    special = False
    # coin() < 1 makes a clamp of eta_coin at 1 moot; projections send NaN to the bound as max()
    for k, (cx, cy, _, _, tagged_fake) in zip(range(1, budget + 1), reads):
        s2 = cx + cy
        beta_post = cx / s2 if s2 > 0 else 0.0
        if special:
            special = False
            n_w_updates += 1
            w -= (eps_scale * n_w_updates ** neg_eps_power) * (tagged_fake - one_minus_kappa)
            w = w if w > 1.0 else 1.0
        b += (eps_scale * k ** neg_eps_power) * (beta_post - target_beta)
        b = b if b > 0.0 else 0.0
        eta_coin = eta_scale * k ** neg_eta_power
        if k % record_every == 0 or k == budget or s2 == 0:
            trace.append((k, w, b, beta_post))
    return LearnResult(w=w, b=b, trace=np.asarray(trace, dtype=float),
                       extinct=s2 == 0)
