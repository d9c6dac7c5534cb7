"""Scalar equilibrium classification, 4-D lifting, Picard integration and
finite-time comparison utilities.

The central object is a scalar field g on [0,1] whose zeros describe the
limit proportions of a two-type process.  Zeros are located by a dense
sign-scan plus bisection, classified by one-sided signs, and lifted to
equilibria of the 4-dimensional ratio ODE through a map h(beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bp_core import require, require_counts

ATTRACTOR = "attractor"
REPELLER = "repeller"
SADDLE = "saddle"
Q_ATTRACTOR = "q-attractor"


class DegenerateFieldError(ValueError):
    """Raised when g vanishes on a whole subinterval (continuum of equilibria)."""


@dataclass
class ScalarField:
    """Right-hand side of a scalar ODE on [0,1] with known kink abscissas.

    ``g`` must be evaluable at every non-kink point; kinks (jumps of g or of
    its slope, e.g. min{.,1} crossovers or indicator boundaries) are inserted
    as mandatory scan points so one-sided signs are read on the correct side.
    A ``g`` whose ``vectorized`` attribute is true takes an array of betas and
    returns values of that shape, and still accepts one float.
    """

    g: callable
    kinks: list = field(default_factory=list)


@dataclass
class Equilibrium:
    beta: float
    kind: str           # attractor | repeller | saddle
    basin: tuple        # (lo, hi) interval attracted to this point
    g_residual: float = 0.0


@dataclass
class LiftedPoint:
    beta: float         # nan for the origin saddle
    h: tuple            # 4-vector
    kind: str           # attractor | q-attractor


@dataclass
class EquilibriumReport:
    equilibria: list
    lifted: list = field(default_factory=list)

    def to_dict(self):
        return {
            "equilibria": [
                {"beta": e.beta, "kind": e.kind, "basin": [e.basin[0], e.basin[1]]}
                for e in self.equilibria
            ],
            "lifted": [
                {
                    "beta": None if math.isnan(p.beta) else p.beta,
                    "h": list(p.h),
                    "kind": p.kind,
                }
                for p in self.lifted
            ],
        }


def bisect_root(f, lo, hi, f_lo, tol):
    """Refine a sign change of f on [lo, hi], given f_lo = f(lo) != 0.

    ``lo`` moves while f(mid) has the sign of f_lo, and an exact zero at a
    midpoint is returned at once.  Stops once the bracket is no wider than
    ``tol`` or its midpoint no longer splits it, so ``tol=0`` ends at
    adjacent floats.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def classify_scalar(field_: ScalarField, grid_points: int = 10_000,
                    refine_tol: float = 1e-12) -> EquilibriumReport:
    """Locate and classify all zeros of g on [0,1].

    Every sign change between adjacent scan points is bracketed and refined
    by bisection; points where g evaluates to exactly zero (boundaries under
    an indicator, registered kinks) are kept as equilibria in their own
    right.  One-sided signs then decide attractor / repeller / saddle;
    boundary zeros are classified from their single inner neighbourhood.
    The scan calls a ``vectorized`` g once on the whole grid, any other g once
    per point; bisection and the side probes call g on one float.
    """
    require(grid_points >= 100, "grid_points", grid_points, ">= 100")
    g = field_.g
    xs = np.linspace(0.0, 1.0, grid_points)
    if field_.kinks:
        kk = [k for k in field_.kinks if 0.0 <= k <= 1.0]
        xs = np.unique(np.concatenate([xs, np.asarray(kk, dtype=float)]))
    if getattr(g, "vectorized", False):
        vals = np.asarray(g(xs), dtype=float)
    else:
        vals = np.array([g(x) for x in xs.tolist()], dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = xs[~np.isfinite(vals)][0]
        raise ValueError(f"scalar field not finite at beta={bad}")

    zero = vals == 0.0
    # a run of >= 3 consecutive exact zeros cannot be an isolated root
    if (zero[:-2] & zero[1:-1] & zero[2:]).any():
        raise DegenerateFieldError("degenerate field: g vanishes on a subinterval")

    # collapse exact-zero pairs straddling one cell (double grid hit of one root)
    roots = []
    for r in xs[zero].tolist():
        if roots and r - roots[-1] <= 1.5 * (xs[1] - xs[0]):
            roots[-1] = 0.5 * (roots[-1] + r)
        else:
            roots.append(r)

    # only a cell with a sign change or an exact zero at an end can hold a root
    cells = np.flatnonzero(((vals[:-1] > 0) != (vals[1:] > 0)) | zero[:-1] | zero[1:])
    for i in cells.tolist():
        lo, hi = float(xs[i]), float(xs[i + 1])
        f_lo, f_hi = float(vals[i]), float(vals[i + 1])
        # an exact zero at a cell end can hide an interior sign change right
        # next to it; probe just inside the cell instead
        h = 1e-7 * (hi - lo)
        if zero[i] and zero[i + 1]:
            continue
        if zero[i]:
            lo = lo + h
            f_lo = g(lo)
        if zero[i + 1]:
            hi = hi - h
            f_hi = g(hi)
        if f_lo == 0.0 or f_hi == 0.0:
            continue
        if (f_lo > 0) != (f_hi > 0):
            roots.append(bisect_root(g, lo, hi, f_lo, refine_tol))
    roots = sorted(roots)

    # de-duplicate refined roots that collapsed onto the same point
    dedup = []
    for r in roots:
        if not dedup or r - dedup[-1] > max(10 * refine_tol, 1e-9):
            dedup.append(r)
    roots = dedup
    if not roots:
        return EquilibriumReport(equilibria=[])

    def side_sign(lo, hi):
        """Dominant sign of g strictly inside (lo, hi); 0 if unresolvable."""
        if hi - lo <= 0:
            return 0
        inside = (xs > lo + 1e-15) & (xs < hi - 1e-15) & ~zero
        cand = vals[inside]
        probe_lo = lo + 0.01 * (hi - lo)
        probe_hi = lo + 0.99 * (hi - lo)
        probes = np.array([g(probe_lo), g(0.5 * (lo + hi)), g(probe_hi)])
        cand = np.concatenate([cand, probes[probes != 0.0]])
        if cand.size == 0:
            return 0
        return 1 if cand[np.argmax(np.abs(cand))] > 0 else -1

    # basins: an attractor owns the open interval up to its neighbouring
    # equilibria (closed at the domain boundary); a saddle owns the side(s)
    # whose flow points at it; a repeller only owns itself.
    bounds = [0.0] + roots + [1.0]
    eqs = []
    for i, r in enumerate(roots):
        lo, hi = bounds[i], bounds[i + 2]
        s_left = side_sign(lo, r)
        s_right = side_sign(r, hi)
        if r <= refine_tol:                   # left boundary root
            kind = ATTRACTOR if s_right < 0 else (REPELLER if s_right > 0 else SADDLE)
        elif r >= 1.0 - refine_tol:           # right boundary root
            kind = ATTRACTOR if s_left > 0 else (REPELLER if s_left < 0 else SADDLE)
        elif s_left > 0 and s_right < 0:
            kind = ATTRACTOR
        elif s_left < 0 and s_right > 0:
            kind = REPELLER
        else:
            kind = SADDLE
        if kind == ATTRACTOR:
            basin = (lo, hi)
        elif kind == SADDLE and s_left > 0 and s_right > 0:
            basin = (lo, r)
        elif kind == SADDLE and s_left < 0 and s_right < 0:
            basin = (r, hi)
        else:
            basin = (r, r)
        eqs.append(Equilibrium(beta=r, kind=kind, basin=basin,
                               g_residual=float(abs(g(r)))))
    return EquilibriumReport(equilibria=eqs)


def lift_limits(report: EquilibriumReport, h) -> EquilibriumReport:
    """Map scalar equilibria to 4-D limit points via h(beta).

    Scalar attractors become attractors of the ratio ODE; repellers and
    saddles become q-attractor saddle points; the origin (extinction) is
    always appended to the saddle set.  h is evaluated at the equilibrium
    itself -- models encode their own indicator conventions there.
    """
    lifted = []
    for e in report.equilibria:
        vec = tuple(float(v) for v in np.asarray(h(e.beta), dtype=float))
        kind = ATTRACTOR if e.kind == ATTRACTOR else Q_ATTRACTOR
        lifted.append(LiftedPoint(beta=e.beta, h=vec, kind=kind))
    lifted.append(LiftedPoint(beta=float("nan"), h=(0.0, 0.0, 0.0, 0.0),
                              kind=Q_ATTRACTOR))
    report.lifted = lifted
    return report


@dataclass
class OdeTrajectory:
    times: np.ndarray
    values: np.ndarray        # shape (len(times), dim)
    sweeps_used: int = 0
    final_increment: float = math.inf   # max |Y_new - Y| of the last sweep
    cycle_from: int | None = None       # sweep that found an exact 2-cycle

    @property
    def converged(self) -> bool:
        """True when the last two sweeps agreed to machine precision."""
        return self.final_increment < 1e-15

    def at(self, t):
        """Linear interpolation of the trajectory at time t (vector), held at
        the end values outside the mesh.  A 1-D array of times gives one row
        per time."""
        s = np.atleast_1d(np.asarray(t, dtype=float))
        times, vals = self.times, self.values
        out = np.where((s <= times[0])[:, None], vals[0], vals[-1])
        inner = (s > times[0]) & (s < times[-1])
        i = np.searchsorted(times, s[inner], side="right") - 1
        w = ((s[inner] - times[i]) / (times[i + 1] - times[i]))[:, None]
        out[inner] = (1.0 - w) * vals[i] + w * vals[i + 1]
        return out if np.ndim(t) else out[0]


def picard_solve(rhs, y0, T, sweeps: int = 60, mesh: int | None = None) -> OdeTrajectory:
    """Successive-approximation solution of y' = rhs(y, t) on [0, T].

    Starting from the constant function y0, applies `sweeps` Picard
    iterations; the integral is evaluated with the trapezoid rule on a
    uniform mesh (default 5000 points per unit time).  Stops early once the
    increment falls below 1e-15 (``converged``), or once a sweep's iterate
    equals the one two sweeps back bit for bit (``cycle_from``): the rest of
    the loop would alternate these two, so it returns the one with the
    parity of ``sweeps``, ``sweeps_used = sweeps`` and the same increment.

    The rhs, a pure function, is called once per sweep as ``rhs(Y, ts)``,
    with Y the (mesh+1, dim) iterate and ts the mesh times, and returns the
    drifts, one row per mesh point: shape (mesh+1, dim), or (mesh+1,) when
    dim is 1 (``scipy.integrate.solve_ivp`` takes such an rhs with points as
    columns).  Drifts of any other size raise a ``ValueError`` naming both
    shapes; a non-finite drift raises one naming the first mesh time where
    it occurs.
    """
    require(0 <= T < math.inf, "T", T, "finite and >= 0")
    if mesh is None:
        mesh = max(200, int(math.ceil(5000 * T)))
    require_counts(sweeps=sweeps, mesh=mesh)
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    ts = np.linspace(0.0, T, mesh + 1)
    dt = ts[1] - ts[0]
    Y = back = np.tile(y0, (mesh + 1, 1))     # back: the iterate two sweeps back
    used, cycle_from, delta = 0, None, math.inf
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
        used = sweep + 1
        if delta < 1e-15:
            Y = Ynew
            break
        if np.array_equal(Ynew, back):
            cycle_from, used = used, sweeps
            Y = Y if (sweeps - cycle_from) % 2 else Ynew
            break
        back, Y = Y, Ynew
    return OdeTrajectory(times=ts, values=Y, sweeps_used=used, final_increment=delta,
                         cycle_from=cycle_from)


def _drift(f, m):
    """The 4 components of h for x-death weight f and 2x2 mean matrix m."""
    mxx, mxy = m[0, 0], m[0, 1]
    myx, myy = m[1, 0], m[1, 1]
    return (f * (mxx + mxy) + (1 - f) * (myy + myx) - 1.0,
            f * (mxx - 1.0) + (1 - f) * myx,
            f * (mxx + mxy) + (1 - f) * (myy + myx),
            f * mxx + (1 - f) * myx)


def make_h(m_inf):
    """Limit drift map h(beta) -> 4-vector for the autonomous ratio ODE.

    ``m_inf(beta)`` is the 2x2 limit mean matrix; with unit death rates the
    x-death weight is beta itself.
    """
    def h(beta):
        return np.array(_drift(beta, np.asarray(m_inf(beta), dtype=float)))
    return h


def make_autonomous_rhs(m_inf):
    """Autonomous drift g(upsilon) = h(beta) 1_{psi_c>0} - upsilon.

    ``g`` takes one 4-vector or a (k, 4) array of them, such as the whole
    iterate ``picard_solve`` passes.  So ``m_inf`` must accept an array of
    betas and return a 2x2 matrix whose entries broadcast against it (each
    entry a scalar or of the betas' shape); it is also called at beta = 0
    for rows with psi_c <= 0, whose drift is -upsilon whatever it returns.
    """
    def g(upsilon, t=0.0):
        upsilon = np.asarray(upsilon, dtype=float)
        psi_c = upsilon[..., 0]
        alive = psi_c > 0
        # [()] turns the 0-d quotient of a single 4-vector into a scalar
        beta = np.divide(upsilon[..., 1], psi_c, out=np.zeros_like(psi_c), where=alive)[()]
        h = np.array(_drift(beta, np.asarray(m_inf(beta), dtype=float))).T
        return np.where(alive[..., None], h - upsilon, -upsilon)
    return g


def finite_time_gap(sa_traj, ode: OdeTrajectory, n_start: int, T: float) -> float:
    """Sup distance between SA iterates and an ODE run over a time window.

    ``sa_traj`` holds the ratio iterates indexed from epoch 1; the ODE is
    assumed initialised at the epoch-``n_start`` iterate.  Returns
    sup { |Y_k - y(t_k - t_{n_start})|_inf : t_k in [t_n, t_n + T] } on the
    harmonic clock t_k = 1 + 1/2 + ... + 1/k, summed left to right.  Raises
    ``ValueError`` when the window reaches past the trajectory's last epoch.
    """
    sa = np.asarray(sa_traj, dtype=float)
    n_total = sa.shape[0]
    require(1 <= n_start <= n_total, "n_start", n_start, f"in [1, {n_total}] (the trajectory)")
    require(0 <= T < math.inf, "T", T, "finite and >= 0")
    # one entry past the trajectory, so a window that ends at epoch n_total is told
    # apart from one that runs on
    t = np.cumsum(1.0 / np.arange(1, n_total + 2))
    k_end = int(np.searchsorted(t, t[n_start - 1] + T, side="right"))
    if k_end > n_total:
        raise ValueError(f"trajectory too short: the window runs past its {n_total} epochs")
    t_k = t[n_start - 1:k_end]
    rows = sa[n_start - 1:k_end].reshape(len(t_k), -1)
    return float(np.max(np.abs(rows - ode.at(t_k - t_k[0]))))


CONVERGED_ATTRACTOR = "converged_attractor"
CONVERGED_SADDLE = "converged_saddle"
HOVERING = "hovering"
UNDECIDED = "undecided"


def hover_classify(betas, targets) -> str:
    """Finite-sample verdict on the tail behaviour of a scalar trajectory.

    ``targets`` maps each target value to 'attractor' or 'saddle'.  Over the
    trailing half of the sequence: converged if every point stays within
    delta = 0.01 of one single target; hovering if the tail both enters the
    delta-neighbourhood and exits the delta1 = 0.05 neighbourhood of the
    target set at least twice each; undecided otherwise.  Heuristic only:
    the asymptotic notion has no finite-sample test.
    """
    delta, delta1 = 0.01, 0.05
    betas = np.asarray(betas, dtype=float)
    require(betas.size, "betas", betas.tolist(), "one or more values")
    require(targets, "targets", targets, "one or more target values")
    kinds = {float(k): v for k, v in targets.items()}
    pts = np.array(sorted(kinds))
    tail = betas[betas.size // 2:]

    dists = np.abs(tail[:, None] - pts[None, :])
    held = np.flatnonzero(np.all(dists <= delta, axis=0))
    if len(held):
        kind = kinds[float(pts[held[0]])]
        return CONVERGED_SADDLE if kind == SADDLE else CONVERGED_ATTRACTOR

    dmin = dists.min(axis=1)
    inside = dmin <= delta
    beyond = dmin > delta1
    enters = np.count_nonzero(inside[1:] & ~inside[:-1])
    exits = np.count_nonzero(beyond[1:] & ~beyond[:-1])
    if enters >= 2 and exits >= 2:
        return HOVERING
    return UNDECIDED
