import dataclasses
import math

import numpy as np
import pytest

from bpviral.bp_core import make_rng
from bpviral.market import (EULER_GAMMA, SNAP_FIT, TefParams, closed_form,
                            extinction_prob_pgf, metrics, simulate_stpbp, tef)
from bpviral.market_graph import (build_graph, estimate_tef, fit_two_slope,
                                  parse_graph, propagate_on_graph)


class TestTef:
    def test_value_at_zero(self):
        p = TefParams(rho=1.0, **SNAP_FIT)
        assert tef(0, p) == pytest.approx(21.321042)

    def test_continuity_at_break(self):
        p = TefParams(rho=0.7, **SNAP_FIT)
        eps = 1e-9
        assert tef(p.a_break - eps, p) == pytest.approx(tef(p.a_break + eps, p), abs=1e-6)

    def test_tail_value(self):
        p = TefParams(rho=1.0, **SNAP_FIT)
        assert tef(35000, p) == pytest.approx(2.701042, abs=1e-9)

    def test_clamped_at_zero(self):
        p = TefParams(m_bar=2.0, kappa1=1.0, kappa2=0.5, a_break=1.0, rho=1.0)
        assert tef(50, p) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TefParams(m_bar=2.0, kappa1=0.1, kappa2=0.2, a_break=10, rho=1.0)
        with pytest.raises(ValueError):
            TefParams(m_bar=1.0, kappa1=0.2, kappa2=0.1, a_break=10, rho=0.5)

    def test_m_tilde_cached_per_instance(self):
        p = TefParams(rho=0.6, **SNAP_FIT)
        assert p.m_tilde == p.m_bar - p.a_break * (p.kappa1 - p.kappa2)
        q = dataclasses.replace(p, kappa2=2e-4)
        assert q.m_tilde == q.m_bar - q.a_break * (q.kappa1 - q.kappa2) != p.m_tilde
        # the cached value is not a field: equality and hashing ignore it
        assert p == TefParams(rho=0.6, **SNAP_FIT)
        assert hash(p) == hash(TefParams(rho=0.6, **SNAP_FIT))


class TestClosedForm:
    def test_initial_condition(self):
        p = TefParams(rho=0.6, **SNAP_FIT)
        cf = closed_form(p, a0=2)
        assert cf.a(0.0) == pytest.approx(2.0, abs=1e-9)
        assert cf.c(0.0) == pytest.approx(2.0, abs=1e-7)

    def test_phase_match_at_switch(self):
        p = TefParams(rho=0.6, **SNAP_FIT)
        cf = closed_form(p, a0=2)
        w1, w2, w3 = cf.w_phase1
        a1 = w1 - w2 * math.exp(-w3 * math.exp(cf.tau_s))
        v1, v2, v3 = cf.w_phase2
        a2 = v1 - v2 * math.exp(-v3 * math.exp(cf.tau_s))
        assert a1 == pytest.approx(p.a_break, rel=1e-8)
        assert a2 == pytest.approx(p.a_break, rel=1e-12)

    def test_epoch_identity(self):
        p = TefParams(rho=0.6, **SNAP_FIT)
        cf = closed_form(p, a0=2)
        for n in (10, 100, 5000, int(cf.n_e) - 1):
            assert cf.c_epoch(n) == pytest.approx(cf.a_epoch(n) - n, abs=1e-8)

    def test_current_zero_after_extinction(self):
        p = TefParams(rho=0.6, **SNAP_FIT)
        cf = closed_form(p, a0=2)
        assert cf.c(cf.tau_e + 1.0) == 0.0
        assert cf.a(cf.tau_e + 5.0) == pytest.approx(cf.a(cf.tau_e), rel=1e-9)

    def test_two_phase_log_slopes(self):
        p = TefParams(rho=0.6, **SNAP_FIT)
        cf = closed_form(p, a0=2)
        for (w1, w2, w3), n_lo, n_hi, kappa in (
                (cf.w_phase1, 5, int(cf.n_s * 0.8), p.kappa1),
                (cf.w_phase2, int(cf.n_s * 1.2), int(cf.n_e * 0.9), p.kappa2)):
            ns = np.arange(n_lo, n_hi, max((n_hi - n_lo) // 50, 1))
            ys = np.log([w1 - cf.a_epoch(float(n)) for n in ns])
            slope = np.polyfit(ns, ys, 1)[0]
            assert slope == pytest.approx(-kappa * p.rho, rel=0.05)

    def test_life_span_residual(self):
        p = TefParams(rho=0.4, **SNAP_FIT)
        cf = closed_form(p, a0=2)
        w1, w2, w3 = cf.w_phase2
        resid = w1 - w2 * math.exp(-cf.n_e * w3 * math.e ** EULER_GAMMA) - cf.n_e
        assert abs(resid) < 1e-6


class TestMetrics:
    @pytest.mark.parametrize("rho", [0.4, 0.6])
    def test_snap_peak_matches_numeric_max(self, rho):
        p = TefParams(rho=rho, **SNAP_FIT)
        cf = closed_form(p, a0=2)
        m = metrics(p, a0=2)
        ts = np.linspace(0, cf.tau_e, 60_000)
        numeric = max(cf.c(t) for t in ts)
        assert abs(m["c_star"] - numeric) / numeric < 0.005
        assert abs(cf.a_epoch(m["n_e"]) - m["n_e"]) <= 1.0
        assert m["max_reach"] == m["n_e"]

    def test_random_parameter_sweep(self):
        rng = make_rng(8)
        checked = 0
        while checked < 100:
            m_bar = rng.uniform(3, 40)
            kappa1 = rng.uniform(1e-4, 1e-2)
            kappa2 = kappa1 * rng.uniform(0.05, 0.8)
            a_break = rng.uniform(50, 5000)
            rho = rng.uniform(0.3, 1.0)
            if rho * m_bar <= 1.2:
                continue
            if m_bar - a_break * (kappa1 - kappa2) <= 0:
                continue
            p = TefParams(m_bar=m_bar, kappa1=kappa1, kappa2=kappa2,
                          a_break=a_break, rho=rho)
            try:
                cf = closed_form(p, a0=2)
                m = metrics(p, a0=2)
            except ValueError:
                continue
            checked += 1
            ts = np.linspace(0, cf.tau_e, 20_000)
            numeric = max(cf.c(t) for t in ts)
            # the epoch-identity approximation drops an O(1) constant, so
            # the 0.5% relative claim applies beyond toy peak sizes
            if numeric > 200:
                assert abs(m["c_star"] - numeric) / numeric < 0.005
            else:
                assert abs(m["c_star"] - numeric) <= max(1.0, 0.005 * numeric)


class TestSimulate:
    def test_share_identity_exact(self):
        p = TefParams(rho=0.6, **SNAP_FIT)
        path = simulate_stpbp(p, a0=2, max_events=50_000, seed=3)
        assert np.all(path.a - path.c == path.epoch)

    def test_total_saturates(self):
        p = TefParams(rho=0.6, **SNAP_FIT)
        path = simulate_stpbp(p, a0=2, max_events=200_000, seed=5)
        assert path.extinct
        assert np.all(np.diff(path.a) >= 0)

    def test_zero_tef_dies_in_a0_events(self):
        p = TefParams(m_bar=2.0, kappa1=1.0, kappa2=0.5, a_break=1.0, rho=1.0)
        path = simulate_stpbp(p, a0=5, max_events=1000, seed=1)
        assert path.extinct and path.epoch[-1] == 5

    def test_binomial_mode_runs(self):
        p = TefParams(rho=0.6, **SNAP_FIT)
        path = simulate_stpbp(p, a0=2, max_events=5000, seed=9,
                              offspring="binomial")
        assert np.all(path.a - path.c == path.epoch)

    def test_rise_then_fall(self):
        p = TefParams(rho=0.6, **SNAP_FIT)
        path = simulate_stpbp(p, a0=2, max_events=200_000, seed=11)
        if path.extinct and path.a[-1] > 10_000:   # viral sample path
            peak_idx = int(np.argmax(path.c))
            assert 0 < peak_idx < len(path.c) - 1
            assert path.c[-1] == 0


class TestPgf:
    def test_quadratic(self):
        assert extinction_prob_pgf(lambda s: 0.25 + 0.75 * s * s) == pytest.approx(1 / 3, abs=1e-9)

    def test_subcritical(self):
        # sub-critical and critical laws: the first zero of f(s) - s is s = 1
        for pgf in (lambda s: 0.6 + 0.4 * s, lambda s: 0.7 + 0.3 * s * s,
                    lambda s: math.exp(0.5 * (s - 1.0)), lambda s: math.exp(s - 1.0)):
            assert extinction_prob_pgf(pgf) == 1.0

    def test_identity_pgf(self):
        assert extinction_prob_pgf(lambda s: s) == 0.0


def test_root_solves_pinned():
    """Closed-form extinction time, life span and PGF root, bit for bit."""
    expect = {0.4: (11.608284343487341, 61762.85633906735),
              0.6: (11.672380208132664, 65851.35164392681)}
    for rho, (tau_e, n_e) in expect.items():
        cf = closed_form(TefParams(rho=rho, **SNAP_FIT), a0=2)
        assert (cf.tau_e, cf.n_e) == (tau_e, n_e)
    assert extinction_prob_pgf(lambda s: math.exp(1.5 * (s - 1.0))) == 0.41718835613457483


class TestGraph:
    def test_parse_triangle(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n1 2\n2 0\n")
        g = parse_graph(f)
        assert g.n_nodes == 3 and g.mean_degree == pytest.approx(2.0)

    def test_comments_and_duplicates(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# comment\n0 1\n1 0\n0 0\n")
        g = parse_graph(f)
        assert g.n_nodes == 2 and g.n_edges == 1

    def test_malformed_line_reports_number(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\nbroken line here\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_graph(f)

    def test_parse_emit_roundtrip(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("5 9\n9 7\n7 5\n5 11\n")
        g1 = parse_graph(f)
        f2 = tmp_path / "g2.txt"
        with open(f2, "w") as fh:
            for i, nbrs in enumerate(g1.neighbors):
                for j in nbrs:
                    if i < j:
                        fh.write(f"{g1.node_ids[i]} {g1.node_ids[j]}\n")
        g2 = parse_graph(f2)
        assert np.array_equal(g1.node_ids, g2.node_ids)
        assert all(np.array_equal(a, b) for a, b in zip(g1.neighbors, g2.neighbors))

    def test_neighbour_lists_strictly_increasing_without_loops(self):
        # propagate_on_graph masks a whole neighbour list at once, which
        # needs each recipient to appear once
        us, vs = _chung_lu(31)
        loops = make_rng(4).choice(2000, 50)
        g = build_graph(np.concatenate([us, vs, loops]), np.concatenate([vs, us, loops]))
        assert g.n_nodes == 2000 and g.n_edges == build_graph(us, vs).n_edges
        for i, nbrs in enumerate(g.neighbors):
            assert np.all(np.diff(nbrs) > 0) and i not in nbrs
        assert build_graph([3, 1], [3, 2]).n_nodes == 2     # a loop alone adds no node

    @pytest.mark.parametrize("us, vs", [([3, 5], [3, 5]), ([], [])],
                             ids=["self-loops only", "no edges"])
    def test_no_edges_give_empty_graph(self, us, vs):
        g = build_graph(us, vs)
        assert g.neighbors == [] and g.n_nodes == g.n_edges == 0
        assert g.mean_degree == 0.0


class TestPropagate:
    def test_triangle_full_coverage(self, tmp_path):
        g = build_graph([0, 1, 2], [1, 2, 0])
        log = propagate_on_graph(g, [0], rho=1.0, rng=make_rng(1))
        assert log.reach == 3
        assert len(log.epoch) == 3

    def test_zero_rho_reaches_seeds_only(self):
        g = build_graph([0, 1, 2], [1, 2, 0])
        log = propagate_on_graph(g, [0, 1], rho=0.0, rng=make_rng(1))
        assert log.reach == 2

    def test_star_peak(self):
        g = build_graph([0] * 5, [1, 2, 3, 4, 5])
        log = propagate_on_graph(g, [0], rho=1.0, rng=make_rng(2))
        assert log.reach == 6
        assert log.c.max() == 5

    def test_unknown_seed_rejected(self):
        g = build_graph([0, 1], [1, 2])
        with pytest.raises(KeyError):
            propagate_on_graph(g, [99], rho=0.5, rng=make_rng(1))

    def test_duplicate_seeds_rejected(self):
        g = build_graph([0, 1], [1, 2])
        with pytest.raises(ValueError, match="distinct"):
            propagate_on_graph(g, [0, 0], rho=0.5, rng=make_rng(1))


class TestTefFit:
    def test_recovers_synthetic_two_slope(self):
        rng = make_rng(12)
        true = TefParams(m_bar=20.0, kappa1=5e-3, kappa2=1e-3, a_break=2000.0,
                         rho=1.0)
        a = np.linspace(50, 3900, 80)
        m = np.array([tef(x, true) for x in a]) + rng.normal(0, 0.05, a.size)
        fit = fit_two_slope(a, m)
        assert not fit.degenerate
        assert fit.params.m_bar == pytest.approx(true.m_bar, rel=0.05)
        assert fit.params.kappa1 == pytest.approx(true.kappa1, rel=0.05)
        assert fit.params.kappa2 == pytest.approx(true.kappa2, rel=0.05)
        assert fit.params.a_break == pytest.approx(true.a_break, rel=0.05)

    def test_constant_data_flagged_degenerate(self):
        a = np.array([100.0, 200.0, 300.0, 400.0])
        m = np.full(4, 3.0)
        fit = fit_two_slope(a, m)
        assert fit.degenerate
        assert fit.m_bar_hat == pytest.approx(3.0)

    def test_estimate_on_synthetic_graph(self):
        # dense random graph: reforwarding saturation produces a decaying TeF
        rng = make_rng(77)
        n = 400
        us, vs = [], []
        for i in range(n):
            for j in rng.choice(n, size=12, replace=False):
                if i != j:
                    us.append(i)
                    vs.append(int(j))
        g = build_graph(us, vs)
        fit = estimate_tef(g, rho=0.8, bin_width=25, runs=40, seed=5)
        assert len(fit.a_centers) >= 4
        assert fit.m_hat[0] > fit.m_hat[-1]   # decaying effective forwards


def test_simulation_tracks_nonautonomous_ode():
    # SA-vs-ODE sup gap over a fixed window shrinks as the anchor epoch grows
    from bpviral.market import stpbp_nonauto_rhs
    from bpviral.ode_engine import finite_time_gap, picard_solve

    p = TefParams(rho=0.6, **SNAP_FIT)
    path = simulate_stpbp(p, a0=2, max_events=30_000, seed=13)
    assert not path.extinct or path.epoch[-1] >= 21_000
    ups = path.ratios()
    gaps = []
    for n0 in (200, 1000):
        rhs = stpbp_nonauto_rhs(p, n0)
        ode = picard_solve(rhs, ups[n0 - 1], T=3.0, sweeps=60, mesh=3000)
        gaps.append(finite_time_gap(ups, ode, n_start=n0, T=3.0))
    assert gaps[1] < gaps[0]


def test_common_fit_validity_flag():
    assert TefParams(rho=0.4, **SNAP_FIT).common_fit_ok
    assert not TefParams(rho=0.2, **SNAP_FIT).common_fit_ok


def test_start_past_breakpoint_uses_tail_slope():
    import math as _math
    p = TefParams(rho=0.6, **SNAP_FIT)
    cf = closed_form(p, a0=40_000)
    w1, w2, w3 = cf.w_phase1
    assert cf.w_phase2 is None
    assert w3 == pytest.approx(p.kappa2 * p.rho * _math.exp(-EULER_GAMMA))
    m = metrics(p, a0=40_000)
    path = simulate_stpbp(p, a0=40_000, max_events=400_000, seed=3)
    assert abs(path.a[-1] - m["max_reach"]) / m["max_reach"] < 0.01


def _chung_lu(seed, nodes=2000, mean_degree=30.0):
    """Heavy-tailed edge list: Pareto(1.5) weights capped at
    2 sqrt(nodes x mean_degree), both endpoints drawn by weight; repeated
    edges kept, self-loops left out."""
    rng = make_rng(seed)
    weight = rng.pareto(1.5, nodes) + 1.0
    weight *= mean_degree / weight.mean()
    weight = np.minimum(weight, 2.0 * np.sqrt(nodes * mean_degree))
    pairs = int(nodes * mean_degree / 2)
    us = rng.choice(nodes, pairs, p=weight / weight.sum())
    vs = rng.choice(nodes, pairs, p=weight / weight.sum())
    keep = us != vs
    return us[keep], vs[keep]


def test_stpbp_and_cascade_pinned(sha256):
    """Frozen regression of the market kernels: STP-BP paths in both
    offspring modes, single cascades and the binned TeF estimate."""
    digests = {}
    for rho in (0.4, 0.6):
        for offspring in ("poisson", "binomial"):
            path = simulate_stpbp(TefParams(rho=rho, **SNAP_FIT), 2, 100_000, 5,
                                  offspring=offspring)
            digests[f"stpbp-{rho}-{offspring}"] = sha256(
                path.epoch, path.tau, path.a, path.c, bytes([path.extinct]))
    g = build_graph(*_chung_lu(31))
    for rho in (0.06, 0.3, 1.0):     # reach 11, 1984 and 2000
        log = propagate_on_graph(g, [int(g.node_ids[0]), int(g.node_ids[7])], rho,
                                 make_rng(8))
        digests[f"cascade-{rho}"] = sha256(log.epoch, log.reader, log.forwards,
                                            log.a, log.c, bytes(str(log.reach), "ascii"))
    fit = estimate_tef(g, rho=0.6, bin_width=50, runs=5, seed=9,
                       viral_threshold=g.n_nodes // 8)
    p = fit.params
    digests["tef"] = sha256(fit.a_centers, fit.m_hat, fit.weights,
                             np.array([p.m_bar, p.kappa1, p.kappa2, p.a_break, fit.sse]))
    # printed with numpy 2.4.6; numpy does not promise the same
    # poisson/geometric/binomial streams across releases
    assert digests == {
        "stpbp-0.4-poisson": "a9e8da96d842e1a8742d4e114d7e223c76fe09978cbeaff7266a7d13598e9394",
        "stpbp-0.4-binomial": "8197dad4036ccd2c324e97661b7bed6dd2741783bc9ffb86648e30efa986df13",
        "stpbp-0.6-poisson": "0be50ae3a928d5bfaced3c8d7e5dccf20379f63c38364ca7200c95d5ad7c3d53",
        "stpbp-0.6-binomial": "31f669b90680434c39ca3a2135e6283e7f4a5a13985d7cb67ee332769ad704bb",
        "cascade-0.06": "bc44ec8ba962d7dcd920eb1234cddd5bb4c69ad2716b1864b3cc4909f7adb2eb",
        "cascade-0.3": "4f8962afb7ab300c56da41bdccbac64e24a62aaedfae2bca537b9a81aba37d9c",
        "cascade-1.0": "a61426a39ae28dc15dd81cae81726d68e8c59569b89281f075aa129e3e8ed9fc",
        "tef": "15b2382700eddec1244a0765a0a2b514658a499b2530f5ad8631730f859fe774",
    }
