"""Test references for the paper's theory: per-point drifts, recursions and
closed forms that no library caller needs, against which the library's
array code and Monte-Carlo kernels are checked."""

import json
import math
from pathlib import Path

import numpy as np

from bpviral import wm_dynamics
from bpviral.bp_attack import AttackLimits
from bpviral.bp_core import (MeanModel, PopulationState, Trajectory, make_rng, require,
                             require_counts)
from bpviral.game import (FAKE, AiDesign, GameParams, GameVerificationError,
                          gamma_floor, participant_fractions)
from bpviral.market import MarketPath, TefParams
from bpviral.market_graph import Graph
from bpviral.ode_engine import (OdeTrajectory, ScalarField, bisect_root, make_h,
                                picard_solve)
from bpviral.wm import (REAL, MechanismDesign, PostModel, UserMix, eo_warning,
                        warning_value)
from bpviral.wm_dynamics import LearnConfig, LearnResult, TaggingPath, _Buf

PARAMS = Path(__file__).resolve().parents[1] / "params"


def example_params(name):
    """The worked parameter set ``params/<name>.json`` the README's examples
    read: the one copy of each set that tests and CI use."""
    return json.loads((PARAMS / f"{name}.json").read_text())


def per_row(rhs):
    """Whole-iterate form of a per-point rhs(y, t): one call per mesh point."""
    return lambda Y, ts: np.array([rhs(y, t) for y, t in zip(Y, ts.tolist())])


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
    d_theta_a = np.diff(traj.ax, prepend=ax0)
    steps = np.column_stack([d_theta_c + np.diff(traj.cy, prepend=cy0), d_theta_c,
                             d_theta_a + np.diff(traj.ay, prepend=ay0), d_theta_a])
    ups = np.empty((len(traj), 4))
    x = np.array([cx0 + cy0, cx0, ax0 + ay0, ax0], dtype=float)
    for n, step in enumerate(steps.astype(float), start=1):
        x = x + step if n == 1 else x + (step - x) / n   # (psi_c, theta_c, psi_a, theta_a)
        ups[n - 1] = x
    return ups


def picard_solve_full(rhs, y0, T, sweeps: int = 60, mesh: int | None = None) -> OdeTrajectory:
    """``picard_solve`` without the 2-cycle stop: every sweep runs up to the
    cap unless the increment falls below 1e-15.  The reference for the bytes
    of ``values``, ``sweeps_used`` and ``final_increment``."""
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if mesh is None:
        mesh = max(200, int(math.ceil(5000 * T)))
    ts = np.linspace(0.0, T, mesh + 1)
    dt = ts[1] - ts[0]
    Y = np.tile(y0, (mesh + 1, 1))
    used = 0
    delta = math.inf
    for sweep in range(sweeps):
        F = np.asarray(rhs(Y, ts), dtype=float)
        if F.size != Y.size:
            raise ValueError(f"rhs returned drifts of shape {F.shape}, expected "
                             f"{Y.shape} (one row per mesh point)")
        F = F.reshape(Y.shape)
        bad = ~np.isfinite(F).all(axis=1)
        if bad.any():
            raise ValueError(f"non-finite right-hand side at t={ts[bad.argmax()]}")
        incr = 0.5 * dt * (F[1:] + F[:-1])
        Ynew = np.empty_like(Y)
        Ynew[0] = y0
        Ynew[1:] = y0 + np.cumsum(incr, axis=0)
        delta = float(np.max(np.abs(Ynew - Y)))
        Y = Ynew
        used = sweep + 1
        if delta < 1e-15:
            break
    return OdeTrajectory(times=ts, values=Y, sweeps_used=used, final_increment=delta)


def picard_chain(rhs, y0, T) -> OdeTrajectory:
    """Long-horizon integration by restarting Picard on fixed windows.

    Successive approximation contracts only while L*window stays well below
    the sweep count, so horizons beyond ~20 Lipschitz times are integrated
    on windows of 4 time units (60 sweeps, 200 mesh points per unit),
    restarting from the previous endpoint.  ``rhs`` takes the whole iterate,
    as for ``picard_solve``.  ``sweeps_used`` and ``final_increment`` are the
    largest of any window, so ``converged`` holds only if every window
    converged.
    """
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    t_all, y_all = [np.array([0.0])], [y[None, :]]
    t0, used, worst = 0.0, 0, 0.0
    while t0 < T - 1e-12:
        span = min(4.0, T - t0)
        local = picard_solve(lambda Y, ts, off=t0: rhs(Y, ts + off), y, span,
                             sweeps=60, mesh=max(20, int(200 * span)))
        t_all.append(t0 + local.times[1:])
        y_all.append(local.values[1:])
        y = local.values[-1]
        used = max(used, local.sweeps_used)
        worst = max(worst, local.final_increment)
        t0 += span
    return OdeTrajectory(times=np.concatenate(t_all), values=np.vstack(y_all),
                         sweeps_used=used, final_increment=worst)


def harmonic_times(n: int) -> np.ndarray:
    """Array [t_0..t_n] with t_k = sum_{j<=k} 1/j, computed by direct summation."""
    t = np.zeros(n + 1)
    t[1:] = np.cumsum(1.0 / np.arange(1, n + 1))
    return t


# the clock of the drifts below; test_market's windows reach about epoch 21,000
_CLOCK = harmonic_times(40_000)


def harmonic_number(n: int) -> float:
    """t_n = 1 + 1/2 + ... + 1/n, read from the clock's table."""
    require(0 <= n < len(_CLOCK), "n", n, f"in [0, {len(_CLOCK) - 1}] (the clock's table)")
    return float(_CLOCK[n])


def epochs_before(t: float) -> int:
    """eta(t) = max{n : t_n <= t} on the harmonic clock; fails past its table."""
    n = int(np.searchsorted(_CLOCK, t, side="right")) - 1
    require(n < len(_CLOCK) - 1, "t", t, f"< t_{len(_CLOCK) - 1} (the clock's table)")
    return max(n, 0)


def nonauto_rhs(upsilon, t, mean_matrix) -> np.ndarray:
    """Drift of the non-autonomous ratio ODE built from the transient means.

    The population vector is reconstructed from the ratios and the epoch
    count eta(t); the drift uses the exact, population-dependent mean matrix
    ``mean_matrix(phi)`` and collapses to the autonomous drift when the
    means equal their limits.
    """
    psi_c, theta_c, psi_a, theta_a = (float(v) for v in upsilon)
    n_eta = epochs_before(float(t))
    phi = (theta_c * n_eta, (psi_c - theta_c) * n_eta,
           theta_a * n_eta, (psi_a - theta_a) * n_eta)
    beta = theta_c / psi_c if psi_c > 0 else 0.0
    m = np.asarray(mean_matrix(phi), dtype=float)
    ind = 1.0 if psi_c > 0 else 0.0
    return make_h(lambda _: m)(beta) * ind - np.array([psi_c, theta_c, psi_a, theta_a])


def tef(a: float, params: TefParams) -> float:
    """Expected effective forwards at total shares a (clamped at zero)."""
    if a < 0:    # no call unless it fails: the scalar kernel runs tef once per event
        require(False, "total shares a", a, ">= 0")
    if a <= params.a_break:
        val = params.rho * (params.m_bar - params.kappa1 * a)
    else:
        val = params.rho * (params.m_tilde - params.kappa2 * a)
    return max(val, 0.0)


def simulate_stpbp_scalar(params: TefParams, a0: int, max_events: int, seed: int,
                          record_every: int = 1, offspring: str = "poisson") -> MarketPath:
    """Per-event reference for ``market.simulate_stpbp``: every event calls
    ``tef`` and chooses its offspring branch by name."""
    require_counts(a0=a0, max_events=max_events, record_every=record_every)
    require(offspring in ("poisson", "binomial"), "offspring", repr(offspring),
            "'poisson' or 'binomial'")
    rng = make_rng(seed)
    a = c = int(a0)
    rec, rec_tau = [], []
    t = 0.0
    p_geo = 1.0 / (1.0 + params.m_bar)    # success prob: mean m_bar on {0,1,..}
    for n in range(1, max_events + 1):
        t += rng.exponential(1.0 / c)
        mean = tef(a, params)
        if offspring == "poisson":
            g = int(rng.poisson(mean))
        else:
            friends = int(rng.geometric(p_geo)) - 1
            p_fwd = min(mean / params.m_bar, 1.0)
            g = int(rng.binomial(friends, p_fwd)) if friends > 0 else 0
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


def stpbp_nonauto_rhs(params: TefParams, n_start: int):
    """Drift of the 2-D ratio ODE for the saturated process, anchored at
    epoch ``n_start``: the total shares are reconstructed as psi_a * eta(t)
    on the harmonic clock, so the drift follows the transient TeF.  Per
    point; ``per_row`` makes it a ``picard_solve`` rhs."""
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


def build_gbeta(limits: AttackLimits) -> ScalarField:
    """Scalar proportion field g(b) = (-e_yx + b m_tilde - b^2 m_inf) on (0,1),
    zero at both endpoints by the indicator; g takes a float or an array."""
    e_yx, mt, mi = limits.e_yx, limits.m_tilde, limits.m_inf

    def g(beta):
        inside = (beta > 0.0) & (beta < 1.0)
        return np.where(inside, -e_yx + beta * mt - beta * beta * mi, 0.0)[()]

    g.vectorized = True
    return ScalarField(g=g, kinks=[0.0, 1.0])


def attack_betas_scalar(limits: AttackLimits, init: PopulationState,
                        max_events: int, seed: int,
                        record_every: int = 100) -> tuple[np.ndarray, bool]:
    """Event-by-event reference for ``bp_attack.simulate_attack_betas``: the
    same draws and records, one Python event at a time to the end."""
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


def ramp_mean_matrix(m0: float = 3.0, slope: float = 0.002, floor: float = 1.2,
                     a_break: float = 400.0):
    """Mean matrix at phi of ``single_type_ramp_model`` with these
    parameters, in the float operations its sampler draws at."""
    def mean_matrix(phi):
        ax = phi[2]
        return np.array([[m0 - slope * ax if ax <= a_break else floor, 0.0], [0.0, 0.0]])
    return mean_matrix


def make_poisson_sampler(mean_matrix):
    """Reference sampler: independent Poisson offspring at the dying type's
    row of ``mean_matrix(state)``, clamped at zero, own then cross."""
    def sampler(ptype, state, rng):
        m = np.asarray(mean_matrix(state), dtype=float)
        i = 0 if ptype == "x" else 1          # the dying type's row
        own_mean, cross_mean = m[i, i], m[i, 1 - i]
        return (int(rng.poisson(max(own_mean, 0.0))),
                int(rng.poisson(max(cross_mean, 0.0))))
    return sampler


def death_weights(state: PopulationState) -> dict:
    """Weight of each (type, kind) the next death can take: one kind per
    type at unit rate, so a type weighs its count.  By the memoryless-minimum
    rule the next death is (type, kind) with probability weight / total
    weight.  Types with no living member are left out."""
    if state.cx + state.cy == 0:
        raise ValueError("absorbing state has no death event")
    return {(ptype, 0): float(count)
            for ptype, count in (("x", state.cx), ("y", state.cy)) if count}


def simulate_scalar(model: MeanModel, init: PopulationState,
                    max_events: int = 1_000_000, seed: int = 0,
                    record_every: int = 1) -> Trajectory:
    """Event-by-event reference for ``bp_core.simulate``: every death goes
    through the ``death_weights`` dict and a cumulative categorical draw."""
    require_counts(max_events=max_events, record_every=record_every)
    cx, cy, ax, ay = init.validate()
    rng = make_rng(seed)
    rec, rec_tau = [], []
    t = 0.0
    sample_offspring = model.sampler
    for n in range(1, max_events + 1):
        if cx + cy == 0:
            break
        state = PopulationState(cx, cy, ax, ay)
        weights = death_weights(state)
        total_rate = sum(weights.values())
        t += rng.exponential(1.0 / total_rate)
        # categorical draw over (type, kind); the last weight ends at total_rate
        u = rng.random() * total_rate
        acc = 0.0
        for (ptype, _), w in weights.items():
            acc += w
            if u <= acc:
                break
        own, cross = sample_offspring(ptype, state, rng)
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


def warning_mfg(beta: float, w: float, params: GameParams, b: float = 1.0) -> float:
    """Warning level making the composed response with warning exponent b
    linear in beta: r(alpha_u, omega(beta)) = min{c w alpha_R (alpha_u/alpha_R)^a beta, 1}."""
    if beta <= 0:
        return 0.0
    return w ** (1.0 / b) * params.alpha_r ** ((1.0 - params.resp_a) / b) * beta ** (1.0 / b)


def response(alpha: float, omega: float, params: GameParams, b: float = 1.0) -> float:
    """Polynomial response min{c alpha^a omega^b, 1} of a warning-using tagger."""
    if not (0 < alpha < 1) or omega < 0:
        raise ValueError("alpha in (0,1), omega >= 0")
    return min(params.resp_c * alpha ** params.resp_a * omega ** b, 1.0)


def build_graph_pairs(us, vs) -> Graph:
    """Graph build deduplicating the (src, dst) pairs as rows of a 2-D
    array (``np.unique(axis=0)``); neighbour lists are strided views."""
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    loop = us == vs
    us, vs = us[~loop], vs[~loop]
    labels = np.unique(np.concatenate([us, vs])) if len(us) else np.array([], dtype=np.int64)
    ui = np.searchsorted(labels, us)
    vi = np.searchsorted(labels, vs)
    a = np.concatenate([ui, vi])
    b = np.concatenate([vi, ui])
    pairs = np.unique(np.stack([a, b], axis=1), axis=0) if len(a) else np.empty((0, 2), dtype=np.int64)
    # np.split of an empty array gives one chunk, so a graph of only
    # self-loops needs the explicit empty list
    neighbors = np.split(pairs[:, 1], np.searchsorted(
        pairs[:, 0], np.arange(1, len(labels)))) if len(labels) else []
    return Graph(neighbors=neighbors, node_ids=labels)


def write_csv_per_value(path, header, rows):
    """CSV writer formatting cell by cell: floats through
    ``"{:.12g}".format``, everything else through ``str``."""
    def fmt(v):
        if isinstance(v, float):
            return "{:.12g}".format(v)
        return str(v)

    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def w_update(w: float, eps: float, indicator: float, kappa: float) -> float:
    """Projected scale update at a special epoch: the tag indicator is
    driven to 1 - kappa, and w never drops below one."""
    return max(1.0, w - eps * (indicator - (1.0 - kappa)))


def b_update(b: float, eps: float, beta: float, target: float) -> float:
    """Projected damping update: the observed fake-tag fraction is driven
    to the target; b never goes negative."""
    return max(0.0, b + eps * (beta - target))


def reads_scalar(rng, post, mix, u, warning, bufs, cx, cy, ax, ay):
    """Reference for ``wm_dynamics._reads``: the same reader process, with
    each draw through its buffer's ``draw`` attribute and the fake-tag
    fraction formed before every read."""
    unif_tag, unif_user, unif_decide, geo_user, geo_adv = bufs
    ax_u, ay_u = post.alpha_x(u), post.alpha_y(u)
    p_wi_x, p_wi_y = ax_u * post.rho, ay_u * post.rho
    thr_np, thr_wi, thr_ws = mix.mu0, mix.mu0 + mix.mu1, mix.mu0 + mix.mu1 + mix.mu2
    eta_u, eta_a = post.eta(u), post.eta_a
    bonus, p_friends = post.share_bonus_k, 1.0 / (1.0 + post.m_f)
    while cx + cy > 0:
        s = cx + cy
        fake_copy = unif_tag.draw() * s < cx
        beta = cx / s
        if fake_copy:
            cx -= 1
        else:
            cy -= 1
        r = unif_user.draw()
        if r < thr_np:
            yield cx, cy, ax, ay, False
            continue
        if r < thr_wi:
            tagged_fake = unif_decide.draw() < (p_wi_x if fake_copy else p_wi_y)
            eta, geo = eta_u, geo_user
        elif r < thr_ws:
            omega = warning(beta, fake_copy)
            p = min((ax_u if fake_copy else ay_u) * omega, 1.0)
            tagged_fake = unif_decide.draw() < p
            eta, geo = eta_u, geo_user
        else:
            tagged_fake = False
            eta, geo = eta_a, geo_adv
        if bonus == 0.0:
            shares = geo.draw()
        else:
            friends = int(rng.geometric(p_friends)) - 1
            p = min(eta + bonus / max(ax + ay, 1) ** 2, 1.0)
            shares = int(rng.binomial(friends, p)) if friends > 0 else 0
        if tagged_fake:
            cx += shares
            ax += shares
        else:
            cy += shares
            ay += shares
        yield cx, cy, ax, ay, tagged_fake


def simulate_tagging_scalar(kind: str, design: MechanismDesign, post: PostModel,
                            mix: UserMix, actuality: str, init_fake: int,
                            init_real: int, max_events: int, seed: int,
                            record_every: int = 100) -> TaggingPath:
    """Reference for ``wm_dynamics.simulate_tagging`` on valid input: the
    same buffers and records, read through ``reads_scalar``."""
    rng = make_rng(seed)
    bufs = (_Buf(rng), _Buf(rng), _Buf(rng),
            _Buf(rng, post.m_f * post.eta(actuality)), _Buf(rng, post.m_f * post.eta_a))
    reads = reads_scalar(rng, post, mix, actuality,
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


def learn_wm_scalar(config: LearnConfig, post: PostModel, mix: UserMix,
                    target_beta: float, seed: int) -> LearnResult:
    """Reference for ``wm_dynamics.learn_wm`` on valid input: the loop with
    the ``config`` fields and the schedule constants of ``wm_dynamics`` read
    at each epoch, the updates through ``w_update``/``b_update`` and the
    reads through ``reads_scalar``."""
    rng = make_rng(seed)
    unif_tag, unif_user, unif_decide, unif_coin = _Buf(rng), _Buf(rng), _Buf(rng), _Buf(rng)
    bufs = (unif_tag, unif_user, unif_decide,
            _Buf(rng, post.m_f * post.eta_r), _Buf(rng, post.m_f * post.eta_a))
    gamma = post.gamma
    w, b = wm_dynamics.W0, wm_dynamics.B0
    eta_coin = wm_dynamics.ETA0

    def warning(beta, fake_copy):
        nonlocal special
        if unif_coin.draw() < eta_coin and not fake_copy:
            special = True
            return w + gamma
        return eo_warning(beta, w, b, gamma)

    reads = reads_scalar(rng, post, mix, REAL, warning, bufs, 0, config.seed_users,
                         0, config.seed_users)
    trace = []
    n_w_updates = 0
    special = False
    for k, (cx, cy, _, _, tagged_fake) in zip(range(1, config.budget + 1), reads):
        s2 = cx + cy
        beta_post = cx / s2 if s2 > 0 else 0.0
        eps = wm_dynamics.EPS_SCALE * k ** (-wm_dynamics.EPS_POWER)
        if special:
            special = False
            n_w_updates += 1
            eps_w = wm_dynamics.EPS_SCALE * n_w_updates ** (-wm_dynamics.EPS_POWER)
            w = w_update(w, eps_w, float(tagged_fake), config.kappa)
        b = b_update(b, eps, beta_post, target_beta)
        eta_coin = min(wm_dynamics.ETA_SCALE * k ** (-wm_dynamics.ETA_POWER), 1.0)
        if k % config.record_every == 0 or k == config.budget or s2 == 0:
            trace.append((k, w, b, beta_post))
    return LearnResult(w=w, b=b, trace=np.asarray(trace, dtype=float),
                       extinct=s2 == 0)


def _slope_scalar(params: GameParams, w: float, u: str) -> float:
    """c w alpha_R (alpha_u/alpha_R)^a with Python's ``**``."""
    return params.resp_c * w * params.alpha_r * (params.alpha(u) / params.alpha_r) ** params.resp_a


def beta_fixed_point_scalar(mu, w: float, params: GameParams, u: str) -> float:
    """Closed-form tagging attractor of one mix, by branches."""
    eta, eta_a = participant_fractions(mu, params.mua)
    alpha_u = params.alpha(u)
    mult = _slope_scalar(params, w, u)
    rho_bar = alpha_u * eta + 1.0 - eta - eta_a
    rho = 1.0 - (1.0 - eta - eta_a) * mult
    if rho <= 0:
        beta = rho_bar
    elif rho_bar < 1.0 / mult:
        beta = alpha_u * eta / rho
    else:
        beta = rho_bar
    return float(beta)


def success_probability_scalar(mu, design: AiDesign) -> float:
    params = design.params
    mu0, mu1, mu2 = mu
    if mu1 + mu2 <= 0:
        return 0.0
    eta, eta_a = participant_fractions(mu, params.mua)
    theta_a = params.theta * (1.0 - eta_a)
    delta_a = params.delta * (1.0 - eta_a)
    b_f = beta_fixed_point_scalar(mu, design.w, params, FAKE)
    b_r = beta_fixed_point_scalar(mu, design.w, params, "R")
    ok_f = 1.0 if b_f >= theta_a - 1e-12 else 0.0
    ok_r = 1.0 if b_r <= delta_a + 1e-12 else 0.0
    return params.p * ok_f + (1.0 - params.p) * ok_r


def utility_eval_scalar(strategy: int, mu, design: AiDesign) -> float:
    params = design.params
    if strategy == 0:
        return params.q_np
    mu0, mu1, mu2 = mu
    ps = success_probability_scalar(mu, design)
    share = design.reward * ps / (mu1 + params.mua + design.gamma * mu2)
    if strategy == 1:
        return params.q_p + share
    return params.q_p - params.c_e + design.gamma * share


def design_ai_game_scalar(params: GameParams, gamma_margin: float = 1.0) -> AiDesign:
    """The game design of one configuration, returning at the first
    infeasible step."""
    aR, aF = params.alpha_r, params.alpha_f
    theta, delta, mua = params.theta, params.delta, params.mua
    dra = params.delta_ratio ** params.resp_a
    delta_a = delta * (1.0 - mua)

    def eta_star_of(level):
        return (1.0 - level) * (1.0 - mua) / (1.0 - aF)

    kappa = delta * (dra * (1.0 - aF) - 1.0) - aR * dra
    k_delta = kappa * kappa - 4.0 * delta * aR * aF * dra

    def fail(reason):
        nan = float("nan")
        return AiDesign(theta_tilde=nan, w=nan, eta=nan, gamma=nan, reward=nan, x_eta=nan,
                        eta_star=nan, eta_bar=nan, feasible=False, reason=reason,
                        params=params)

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


def _identification_scalar(design: AiDesign) -> tuple:
    params = design.params
    mu_eta = design.mu_eta()
    b_f = beta_fixed_point_scalar(mu_eta, design.w, params, FAKE)
    b_r = beta_fixed_point_scalar(mu_eta, design.w, params, "R")
    theta_a_tilde = design.theta_tilde * (1.0 - params.mua)
    delta_a = params.delta * (1.0 - params.mua)
    missed = None
    if not b_f >= theta_a_tilde - 1e-9:
        missed = f"beta_F^eta >= theta_tilde(1-mua) violated: {b_f} < {theta_a_tilde}"
    elif not b_r <= delta_a + 1e-9:
        missed = f"beta_R^eta <= delta_a violated: {b_r} > {delta_a}"
    return b_f, b_r, theta_a_tilde, delta_a, missed


def _degradation_scalar(b_f_x: float, params: GameParams) -> float:
    theta_a = params.theta * (1.0 - params.mua)
    return (theta_a - b_f_x) * 100.0 / theta_a


def verify_equilibria_scalar(design: AiDesign) -> dict:
    """The guarantees of one designed game, checked in order; raises
    ``GameVerificationError`` at the first that fails."""
    if not design.feasible:
        raise GameVerificationError(f"design infeasible: {design.reason}")
    params = design.params
    mua = params.mua
    mu_eta = design.mu_eta()
    b_f, b_r, theta_a_tilde, delta_a, missed = _identification_scalar(design)
    if missed:
        raise GameVerificationError(missed)
    u0, u1, u2 = (utility_eval_scalar(s, mu_eta, design) for s in (0, 1, 2))
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
        b_f_x = beta_fixed_point_scalar(mu_x, design.w, params, FAKE)
        b_r_x = beta_fixed_point_scalar(mu_x, design.w, params, "R")
        if not b_r_x <= delta_a + 1e-9:
            raise GameVerificationError(
                f"second-NE real-post bound violated: {b_r_x} > {delta_a}")
        if x > design.eta_star:
            mult = _slope_scalar(params, design.w, FAKE)
            x_f = (1.0 - mua - 1.0 / mult) / (1.0 - params.alpha_f)
            floor = 1.0 / mult if x <= x_f else params.alpha_f * (1.0 - mua)
            if not b_f_x >= floor - 1e-9:
                raise GameVerificationError(
                    f"second-NE fake-post floor violated: {b_f_x} < {floor}")
        ps = success_probability_scalar(mu_x, design)
        if ps < 1.0 - 1e-12:
            u1x = utility_eval_scalar(1, mu_x, design)
            u2x = utility_eval_scalar(2, mu_x, design)
            if abs(ps - (1.0 - params.p)) < 1e-12 and abs(u1x - u2x) > 1e-9:
                raise GameVerificationError(
                    f"second NE indifference violated: {u1x} != {u2x}")
            report["ne_list"].append({"mu": mu_x, "ai": False})
            report["second_ne"] = {"x_eta": x, "beta_F": b_f_x, "beta_R": b_r_x,
                                   "success_prob": ps}
            report["degradation_pct"] = _degradation_scalar(b_f_x, params)
    return report


def random_study_scalar(n_samples: int, d: float, seed: int, theta: float = 0.75,
                        gamma_margin: float = 1000.0, verify: bool = False) -> dict:
    """The game study one configuration at a time, four scalar uniform
    draws each (input checks left to the library)."""
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
        design = design_ai_game_scalar(params, gamma_margin=gamma_margin)
        if not design.feasible:
            rows.append((i, 0, 0, float("nan")))
            continue
        if verify:
            try:
                verify_equilibria_scalar(design)
            except GameVerificationError:
                rows.append((i, 1, 0, float("nan")))
                continue
            ai = True
        else:
            ai = _identification_scalar(design)[-1] is None
        x = design.x_eta
        level_theta = (1.0 - theta) * (1.0 - mua) / (1.0 - alpha_f)
        if x <= level_theta or x >= 1.0 - mua:
            degradation = 0.0
        else:
            b_f_x = beta_fixed_point_scalar(design.mu_x(x), design.w, params, FAKE)
            degradation = _degradation_scalar(b_f_x, params)
            degradations.append(degradation)
        rows.append((i, 1, int(ai), degradation))
    return {
        "samples": n_samples,
        "feasible_fraction": sum(r[1] for r in rows) / n_samples,
        "ai_fraction": sum(r[2] for r in rows) / n_samples,
        "second_ne_fraction": len(degradations) / n_samples,
        "small_degradation_fraction": sum(r[3] < 10.0 for r in rows) / n_samples,
        "degradations": np.asarray(degradations),
        "rows": rows,
    }
