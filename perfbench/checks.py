"""Output checker: references for the deterministic tasks, byte-for-byte
CLI replay, and the workload-level acceptance verdicts.

Each check returns an error string, or None when the output is correct.
The reference numbers and tolerances are those of the acceptance suite
(criteria 1-3, 6, 7, 8 and 9).
"""

from __future__ import annotations

import math

import numpy as np

# criterion 1: eo QoS (iqos=False) and i-QoS (iqos=True) on the smart post,
# by adversary fraction; criterion 2: naive post at mua = 0.1; criterion 3:
# eh2 i-QoS on the naive post by adversary fraction.
EO_QOS = {0.0: 0.99981, 0.01: 0.89798, 0.02: 0.8174}
EO_QOS_TOL = 0.002
EO_IQOS = {0.01: 0.958, 0.02: 0.9253}
EO_IQOS_TOL = 0.003
EH_IQOS, EO_NAIVE_IQOS, C2_TOL = 0.7629, 0.5131, 0.005
EH2_IQOS = {0.0: 0.8289, 0.1: 0.8270, 0.2: 0.8257, 0.3: 0.8246}
EH2_TOL = 0.002

ATTACK_LIMIT_SET = np.array([0.0, 0.5, 1.0])   # AttackLimits(3, 1, 3, 1)
ATTACK_NEAR = 0.05
ATTACK_THRESHOLD = 0.95
LEARN_WINDOW = 0.05
LEARN_THRESHOLD = 0.75


def close(name, got, want, tol):
    if not abs(got - want) <= tol:
        return f"{name} = {got:.6g}, reference {want} +/- {tol}"
    return None


def eo_qos(mua, design, iqos):
    if iqos:
        return close(f"eo i-QoS at mua={mua}", design.iqos, EO_IQOS[mua], EO_IQOS_TOL)
    return close(f"eo QoS at mua={mua}", design.qos, EO_QOS[mua], EO_QOS_TOL)


def criterion_2(eh, eo, ea):
    return (close("eh i-QoS", eh.iqos, EH_IQOS, C2_TOL)
            or close("eo i-QoS (naive)", eo.iqos, EO_NAIVE_IQOS, C2_TOL)
            or (None if ea.iqos > eo.iqos else "ea i-QoS not above eo")
            or (None if eh.iqos >= ea.iqos - 1e-12 else "eh i-QoS below ea"))


def eh2_iqos(mua, design):
    return close(f"eh2 i-QoS at mua={mua}", design.iqos, EH2_IQOS[mua], EH2_TOL)


def gap_order(gaps):
    """Criterion 6: SA-ODE gaps shrink strictly as the start epoch grows."""
    if not all(a > b for a, b in zip(gaps, gaps[1:])):
        return f"finite-time gaps not strictly decreasing: {gaps}"
    return None


def picard_exp(traj):
    """Criterion 9e: Picard on y' = -y matches exp(-t) to 1e-6."""
    err = float(np.max(np.abs(traj.values[:, 0] - np.exp(-traj.times))))
    return None if err < 1e-6 else f"Picard error on y'=-y is {err:.3g}"


def poly_oracle(coeffs, report):
    """Criterion 9a: classify_scalar agrees with a dense sign scan."""
    xs = np.linspace(0.0, 1.0, 100_001)
    sgn = np.sign(np.polyval(coeffs, xs))
    changes = np.where((sgn[:-1] != 0) & (sgn[1:] != 0) & (sgn[:-1] != sgn[1:]))[0]
    on_grid = np.where(sgn == 0)[0]
    expected = sorted(
        [(0.5 * (xs[i] + xs[i + 1]), "attractor" if sgn[i] > 0 else "repeller")
         for i in changes]
        + [(xs[i], "attractor" if (i > 0 and sgn[i - 1] > 0) else "repeller")
           for i in on_grid])
    got = [(e.beta, e.kind) for e in report.equilibria]
    if len(got) != len(expected):
        return f"classify_scalar found {len(got)} zeros, sign scan {len(expected)}"
    for (b1, k1), (b2, k2) in zip(got, expected):
        if abs(b1 - b2) > 1e-4 or k1 != k2:
            return f"zero {b1:.6f}/{k1} against sign scan {b2:.6f}/{k2}"
        if abs(np.polyval(coeffs, b1)) > 1e-9:
            return f"residual {np.polyval(coeffs, b1):.3g} at zero {b1}"
    return None


def lifted_drift(rhs, report):
    """Criterion 9b: interior lifted equilibria annihilate the 4-D drift."""
    for p in report.lifted:
        if math.isnan(p.beta) or p.beta in (0.0, 1.0):
            continue
        r = float(np.max(np.abs(rhs(np.array(p.h)))))
        if not r < 1e-8:
            return f"drift {r:.3g} at lifted point beta={p.beta}"
    return None


def fp_residuals(game, params, design, mus):
    """Criterion 9d: closed-form tagging fixed points solve their equation."""
    for mu in mus:
        for u in ("F", "R"):
            beta = game.beta_fixed_point(mu, design.w, params, u)
            r = abs(game.fp_residual(beta, mu, design.w, params, u))
            if not r <= 1e-10:
                return f"fixed-point residual {r:.3g} ({u}, mu={mu})"
    return None


def game_soundness(result):
    """Criterion 8: at d = 0.10 every configuration designs and verifies."""
    if result["feasible_fraction"] != 1.0 or result["ai_fraction"] != 1.0:
        return (f"feasible {result['feasible_fraction']}, verified "
                f"{result['ai_fraction']} (both must be 1)")
    return None


def market_peak(cf, m, samples=120_000):
    """Criterion 7: closed-form peak and life span agree with the trajectory."""
    ts = np.linspace(0.0, cf.tau_e, samples)
    numeric = max(cf.c(t) for t in ts)
    rel = abs(m["c_star"] - numeric) / numeric
    if not rel < 0.005:
        return f"peak formula off by {100 * rel:.3f} % of the numeric peak"
    if abs(cf.a_epoch(m["n_e"]) - m["n_e"]) > 1.0:
        return "a(n_e) differs from n_e by more than one share"
    return None


def stpbp_identity(path):
    """Criterion 7: total minus current shares equals the epoch count."""
    if not np.array_equal(path.a - path.c, path.epoch):
        return "A_n - C_n != n on a simulated market path"
    return None


def reached_cap(rows, cap):
    if rows != cap:
        return f"path stopped after {rows} events, before its cap {cap}"
    return None


def same_bytes(first: bytes, replay: bytes):
    """CLI artifacts must regenerate byte for byte from their sidecar."""
    if first == replay:
        return None
    n = min(len(first), len(replay))
    at = next((i for i in range(n) if first[i] != replay[i]), n)
    return f"replayed artifact differs at byte {at} ({len(first)} vs {len(replay)} bytes)"


def attack_hits(study):
    """Surviving paths ending within 0.05 of the limit set or hovering."""
    betas = study["terminal_betas"]
    if len(betas) == 0:
        return 0, 0
    near = np.min(np.abs(betas[:, None] - ATTACK_LIMIT_SET[None, :]), axis=1)
    return int(np.sum((near <= ATTACK_NEAR) | study["hover_flags"])), len(betas)


def learn_hit(learned, perfect):
    return abs(learned.iqos - perfect.iqos) <= LEARN_WINDOW


def verdict(name, hits, total, threshold):
    """Workload-level acceptance verdict over every sample of the run."""
    if total == 0:
        return f"{name}: no samples"
    frac = hits / total
    if frac < threshold:
        return f"{name}: {hits}/{total} = {frac:.3f} below {threshold}"
    return None
