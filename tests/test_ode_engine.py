import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpviral.bp_attack import AttackLimits, build_gbeta, h_limits
from bpviral.bp_core import (DeathModel, PopulationState, simulate,
                             single_type_ramp_model)
from bpviral.ode_engine import (ATTRACTOR, REPELLER, SADDLE,
                                DegenerateFieldError, OdeTrajectory,
                                ScalarField, bisect_root, classify_scalar,
                                epochs_before,
                                finite_time_gap, harmonic_number,
                                harmonic_times, hover_classify, lift_limits,
                                make_autonomous_rhs, make_h, nonauto_rhs,
                                picard_chain, picard_solve)
from bpviral.wm import (EA, EH, EH2, EO, FAKE, LEARNED, NAIVE_POST, REAL,
                        MechanismDesign, gbeta_field, naive_mix)


class TestClassifyScalar:
    def test_linear_decay(self):
        rep = classify_scalar(ScalarField(g=lambda b: -b))
        assert len(rep.equilibria) == 1
        e = rep.equilibria[0]
        assert e.beta == pytest.approx(0.0, abs=1e-9)
        assert e.kind == ATTRACTOR
        assert e.basin == (0.0, 1.0)

    def test_cubic_interior_attractor(self):
        rep = classify_scalar(ScalarField(g=lambda b: b * (1 - b) * (0.5 - b)))
        kinds = {round(e.beta, 6): e.kind for e in rep.equilibria}
        assert kinds[0.5] == ATTRACTOR
        assert kinds[0.0] == REPELLER and kinds[1.0] == REPELLER

    def test_symmetric_attack_field(self):
        rep = classify_scalar(build_gbeta(AttackLimits(3, 1, 3, 1)))
        kinds = {round(e.beta, 6): e.kind for e in rep.equilibria}
        assert kinds == {0.0: ATTRACTOR, 0.5: REPELLER, 1.0: ATTRACTOR}

    def test_degenerate_flat_field(self):
        with pytest.raises(DegenerateFieldError):
            classify_scalar(ScalarField(g=lambda b: 0.0 if b < 0.5 else 0.5 - b))

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            classify_scalar(ScalarField(g=lambda b: -b), grid_points=10)

    def test_root_next_to_boundary_zero(self):
        # an interior root close to an exact boundary zero must not be lost
        g = lambda b: (0.9998 - b) * (1.0 - b) if 0 < b <= 1 else 0.0
        rep = classify_scalar(ScalarField(g=g, kinks=[0.0, 1.0]), grid_points=4000)
        betas = sorted(round(e.beta, 6) for e in rep.equilibria)
        assert 0.9998 in betas and 1.0 in betas


def _report_bits(rep):
    return [(float.hex(e.beta), e.kind, float.hex(e.basin[0]),
             float.hex(e.basin[1]), float.hex(e.g_residual)) for e in rep.equilibria]


def _scan_both_ways(field_, **kw):
    """Reports of a marked field and of the same g without the mark."""
    assert field_.g.vectorized
    per_point = ScalarField(g=lambda b: field_.g(b), kinks=field_.kinks)
    return classify_scalar(field_, **kw), classify_scalar(per_point, **kw)


class TestMarkedScan:
    """A field marked ``vectorized`` is scanned in one call and reports the
    bits of the per-point scan of the same formula."""

    @pytest.mark.parametrize("u", [FAKE, REAL])
    @pytest.mark.parametrize("b", [0.0, 0.4])
    @pytest.mark.parametrize("kind", [EO, EA, EH, EH2, LEARNED])
    def test_wm_fields(self, kind, b, u):
        d = MechanismDesign(kind=kind, w=NAIVE_POST.w_h2, b=b, zeta=1.3)
        marked, plain = _scan_both_ways(
            gbeta_field(kind, d, NAIVE_POST, naive_mix(0.1), u), grid_points=4000)
        assert marked.equilibria
        assert _report_bits(marked) == _report_bits(plain)

    @pytest.mark.parametrize("lim", [AttackLimits(3, 1, 3, 1), AttackLimits(2, 1, 4, 0),
                                     AttackLimits(3, 2, 4, 0), AttackLimits(4, 2, 2, 0)])
    def test_attack_quadratics(self, lim):
        marked, plain = _scan_both_ways(build_gbeta(lim))
        betas = [e.beta for e in marked.equilibria]
        # the indicator's exact zeros at the kinks, plus the interior
        # repeller in regime E only
        assert betas[0] == 0.0 and betas[-1] == 1.0
        assert len(betas) == (3 if lim.in_regime_e else 2)
        assert _report_bits(marked) == _report_bits(plain)

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_roots_in_cells_next_to_exact_zeros(self, sign):
        # the first and last cells each end in an exact zero and hold a root
        # that no sign change between their ends shows
        g = lambda b: np.where((b > 0.0) & (b < 1.0), sign * (b - 2e-4) * (b - 0.9998), 0.0)
        g.vectorized = True
        marked, plain = _scan_both_ways(ScalarField(g=g, kinks=[0.0, 1.0]),
                                        grid_points=4000)
        betas = [round(e.beta, 9) for e in marked.equilibria]
        assert betas == [0.0, 2e-4, 0.9998, 1.0]
        assert _report_bits(marked) == _report_bits(plain)

    def test_polynomial_with_root_on_the_grid(self):
        g = lambda b: (b - 0.25) * (b - 0.6) * (0.9 - b)
        g.vectorized = True
        marked, plain = _scan_both_ways(ScalarField(g=g), grid_points=2001)
        on_grid = [e for e in marked.equilibria if e.beta == 0.25]
        assert len(on_grid) == 1 and on_grid[0].g_residual == 0.0
        assert _report_bits(marked) == _report_bits(plain)

    def test_one_call_on_the_grid(self):
        shapes = []

        def g(b):
            shapes.append(np.shape(b))
            return 0.5 - b
        g.vectorized = True
        rep = classify_scalar(ScalarField(g=g), grid_points=1000)
        assert shapes[0] == (1000,) and set(shapes[1:]) == {()}
        assert [e.kind for e in rep.equilibria] == [ATTRACTOR]

    def test_degenerate_marked_field(self):
        g = lambda b: np.where(b < 0.5, 0.0, 0.5 - b)
        g.vectorized = True
        with pytest.raises(DegenerateFieldError):
            classify_scalar(ScalarField(g=g))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_marked_field_names_first_beta(self, bad):
        g = lambda b: np.where(b > 0.3, bad, -b)
        g.vectorized = True
        xs = np.linspace(0.0, 1.0, 1000)
        first = xs[xs > 0.3][0]
        with pytest.raises(ValueError, match=re.escape(f"beta={first}")):
            classify_scalar(ScalarField(g=g), grid_points=1000)


class TestBisectRoot:
    def test_exact_zero_at_midpoint_returned(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.5
        assert bisect_root(f, 0.0, 1.0, f(0.0), tol=1e-12) == 0.5
        assert calls == [0.0, 0.5]

    def test_stops_at_tol(self):
        root = math.sqrt(2.0) - 1.0
        calls = []

        def f(x):
            calls.append(x)
            return x - root
        x = bisect_root(f, 0.0, 1.0, -root, tol=1e-3)
        # 2**-10 is the first bracket width <= 1e-3
        assert len(calls) == 10
        assert abs(x - root) <= 2.0 ** -11

    def test_tol_zero_ends_at_adjacent_floats(self):
        seen = []

        def step(x):            # a sign change at 0.3 and no zero anywhere
            seen.append(x)
            return 1.0 if x >= 0.3 else -1.0
        x = bisect_root(step, 0.0, 1.0, -1.0, tol=0.0)
        lo = max(v for v in seen if v < 0.3)
        hi = min(v for v in seen if v >= 0.3)
        assert (lo, hi) == (np.nextafter(0.3, 0.0), 0.3)
        assert x in (lo, hi)


def _poly_field(roots, sign):
    def g(b):
        v = sign
        for r in roots:
            v *= (b - r)
        return v
    return g


def _oracle_classify(g, pts=100_000):
    """Dense sign-scan classification, independent of the bracketing code."""
    xs = np.linspace(0, 1, pts)
    vals = np.array([g(x) for x in xs])
    sign = np.sign(vals)
    out = []
    for i in np.where(sign == 0)[0]:
        left = sign[i - 1] if i > 0 else 0
        right = sign[i + 1] if i + 1 < len(xs) else 0
        if left > 0 and right < 0:
            out.append((xs[i], ATTRACTOR))
        elif left < 0 and right > 0:
            out.append((xs[i], REPELLER))
        else:
            out.append((xs[i], SADDLE))
    for i in range(len(xs) - 1):
        if sign[i] != 0 and sign[i + 1] != 0 and sign[i] != sign[i + 1]:
            root = 0.5 * (xs[i] + xs[i + 1])
            if sign[i] > 0:
                out.append((root, ATTRACTOR))
            else:
                out.append((root, REPELLER))
    return sorted(out)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4, unique=True),
       st.sampled_from([-1.0, 1.0]))
def test_classifier_agrees_with_sign_scan(roots, sign):
    roots = sorted(roots)
    if any(b - a < 0.02 for a, b in zip(roots, roots[1:])):
        return  # nearly-coincident roots are out of scope for both methods
    g = _poly_field(roots, sign)
    rep = classify_scalar(ScalarField(g=g), grid_points=2000, refine_tol=1e-12)
    got = [(e.beta, e.kind) for e in rep.equilibria]
    expected = _oracle_classify(g)
    assert len(got) == len(expected)
    for (b1, k1), (b2, k2) in zip(got, expected):
        assert b1 == pytest.approx(b2, abs=1e-4)
        assert k1 == k2
        assert abs(g(b1)) <= 1e-10


def test_equilibrium_residual_small():
    g = _poly_field([0.21, 0.52, 0.83], 1.0)
    rep = classify_scalar(ScalarField(g=g), refine_tol=1e-12)
    for e in rep.equilibria:
        assert e.g_residual <= 1e-10


class TestLift:
    def test_attack_boundary_points(self):
        lim = AttackLimits(3, 1, 3, 1)
        rep = classify_scalar(build_gbeta(lim))
        rep = lift_limits(rep, h_limits(lim))
        by_beta = {round(p.beta, 6): p for p in rep.lifted if not math.isnan(p.beta)}
        assert by_beta[1.0].h == pytest.approx((2.0, 2.0, 3.0, 3.0))
        assert by_beta[0.0].h == pytest.approx((2.0, 0.0, 3.0, 0.0))
        assert by_beta[1.0].kind == ATTRACTOR
        assert by_beta[0.5].kind == "q-attractor"
        origin = [p for p in rep.lifted if math.isnan(p.beta)]
        assert len(origin) == 1 and origin[0].h == (0.0, 0.0, 0.0, 0.0)

    def test_lifted_points_are_ode_equilibria(self):
        # the 4-D drift vanishes at h(beta*) whenever g_beta(beta*) = 0
        for e in (AttackLimits(3, 1, 3, 1), AttackLimits(2, 1, 4, 0),
                  AttackLimits(2.5, 0.7, 1.9, 0.4)):
            rhs = make_autonomous_rhs(e.limit_mean_matrix)
            rep = classify_scalar(build_gbeta(e))
            rep = lift_limits(rep, h_limits(e))
            for p in rep.lifted:
                if math.isnan(p.beta) or p.beta in (0.0, 1.0):
                    continue
                assert np.max(np.abs(rhs(np.array(p.h)))) < 1e-8

    def test_report_json_schema(self):
        lim = AttackLimits(3, 1, 3, 1)
        rep = lift_limits(classify_scalar(build_gbeta(lim)), h_limits(lim))
        blob = rep.to_dict()
        assert set(blob) == {"equilibria", "lifted"}
        for e in blob["equilibria"]:
            assert set(e) == {"beta", "kind", "basin"} and len(e["basin"]) == 2
        for p in blob["lifted"]:
            assert len(p["h"]) == 4
        assert any(p["beta"] is None for p in blob["lifted"])


class TestPicard:
    def test_exponential_decay(self):
        traj = picard_solve(lambda y, t: -y, 1.0, T=3.0, sweeps=40, mesh=3000)
        exact = np.exp(-traj.times)
        assert np.max(np.abs(traj.values[:, 0] - exact)) < 1e-6

    def test_constant_slope_exact(self):
        traj = picard_solve(lambda y, t: np.ones(1), 0.0, T=2.0, sweeps=5, mesh=500)
        assert np.allclose(traj.values[:, 0], traj.times, atol=1e-12)

    def test_chain_reports_sweeps_used(self):
        # a constant slope is exact after one sweep; the second confirms it,
        # in each of the three windows of a 10-unit horizon
        traj = picard_chain(lambda y, t: np.ones(1), 0.0, T=10.0)
        assert traj.sweeps_used == 2
        assert np.allclose(traj.values[:, 0], traj.times, atol=1e-12)

    def test_indicator_rhs_matches_fine_euler(self):
        rhs = lambda y, t: np.array([2.0 * (y[0] > 0) - y[0]])
        traj = picard_solve(rhs, 0.5, T=3.0, sweeps=80, mesh=6000)
        # forward-Euler oracle on a much finer mesh
        h = 1e-5
        y = 0.5
        ts = traj.times
        euler = np.empty_like(ts)
        idx = 0
        t = 0.0
        for i, tq in enumerate(ts):
            while t < tq - 1e-12:
                y = y + h * (2.0 * (y > 0) - y)
                t += h
            euler[i] = y
        assert np.max(np.abs(traj.values[:, 0] - euler)) < 1e-4

    def test_sweep_distances_monotone(self):
        prev = None
        dists = []
        for sweeps in range(1, 8):
            traj = picard_solve(lambda y, t: -y, 1.0, T=2.0, sweeps=sweeps, mesh=400)
            cur = traj.values[:, 0].copy()
            if prev is not None:
                dists.append(np.max(np.abs(cur - prev)))
            prev = cur
        assert all(d2 <= d1 + 1e-15 for d1, d2 in zip(dists[1:], dists[2:]))

    def test_nonfinite_rhs_reports_time(self):
        def rhs(y, t):
            return np.array([float("nan") if t > 1.0 else 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            picard_solve(rhs, 0.0, T=2.0, sweeps=3, mesh=100)

    def test_marked_rhs_called_once_per_sweep(self):
        shapes = []

        def rhs(Y, ts):
            shapes.append((Y.shape, ts.shape))
            return -Y
        rhs.vectorized = True
        picard_solve(rhs, 1.0, T=2.0, sweeps=3, mesh=100)
        assert shapes == [((101, 1), (101,))] * 3

    def test_nonfinite_marked_rhs_reports_first_time(self):
        # the mesh of [0, 2] has step 0.02, so t = 1.02 is the first t > 1
        def rhs(Y, ts):
            return np.where(ts[:, None] > 1.0, np.nan, 1.0)
        rhs.vectorized = True
        with pytest.raises(ValueError, match=r"non-finite right-hand side at t=1\.02$"):
            picard_solve(rhs, 0.0, T=2.0, sweeps=3, mesh=100)

    def test_convergence_flag(self):
        # three sweeps of y' = -y leave a visible increment; a constant
        # slope is exact after one sweep and the second confirms it
        traj = picard_solve(lambda y, t: -y, 1.0, T=2.0, sweeps=3, mesh=400)
        assert traj.sweeps_used == 3 and traj.final_increment > 1e-15
        assert not traj.converged
        traj = picard_solve(lambda y, t: np.ones(1), 0.0, T=2.0, sweeps=5, mesh=500)
        assert traj.sweeps_used == 2 and traj.final_increment < 1e-15
        assert traj.converged
        assert picard_chain(lambda y, t: np.ones(1), 0.0, T=10.0).converged

    def test_marked_rhs_matches_per_point_loop(self):
        # criterion 6's case: the ramp model's SA path from seed 1, integrated
        # from three start epochs with the marked g (one call per sweep) and
        # with a plain per-point wrapper of the same g
        model = single_type_ramp_model()
        g = make_autonomous_rhs(model.limit_mean_matrix)
        assert g.vectorized
        ups = simulate(model, DeathModel(), PopulationState(2, 0, 2, 0),
                       max_events=11_000, seed=1).ratios()
        for n0 in (5, 50, 500):
            fast = picard_solve(g, ups[n0 - 1], T=3.0, sweeps=60, mesh=3000)
            slow = picard_solve(lambda y, t: g(y, t), ups[n0 - 1], T=3.0,
                                sweeps=60, mesh=3000)
            assert fast.values.tobytes() == slow.values.tobytes()
            assert fast.sweeps_used == slow.sweeps_used
            assert fast.final_increment == slow.final_increment


class TestHarmonicClock:
    def test_harmonic_number_matches_cumsum(self):
        direct = harmonic_times(2000)
        for n in (1, 7, 100, 2000):
            assert harmonic_number(n) == pytest.approx(direct[n], abs=1e-12)

    @given(st.floats(0.1, 12.0))
    @settings(max_examples=50, deadline=None)
    def test_epochs_before_is_maximal(self, t):
        n = epochs_before(t)
        if n >= 1:
            assert harmonic_number(n) <= t
        assert harmonic_number(n + 1) > t


def test_array_rhs_rows_match_lift_map():
    # rows at beta = 0 and 1 (the attack matrix's indicators), an interior
    # beta and psi_c <= 0, against h(beta) 1_{psi_c>0} - upsilon per point
    lim = AttackLimits(2.5, 0.7, 1.9, 0.4)
    g, h = make_autonomous_rhs(lim.limit_mean_matrix), h_limits(lim)
    Y = np.array([[1.0, 0.0, 1.5, 0.2], [1.0, 1.0, 1.5, 1.2], [0.8, 0.3, 1.1, 0.5],
                  [0.0, 0.0, 1.2, 0.6], [-0.1, 0.2, 0.4, 0.3]])
    ref = np.array([h(y[1] / y[0]) - y if y[0] > 0 else -y for y in Y])
    assert g(Y).tobytes() == ref.tobytes()
    assert np.array([g(y) for y in Y]).tobytes() == ref.tobytes()


class TestNonautoRhs:
    def test_collapses_to_autonomous_for_limit_means(self):
        m = np.array([[1.4, 0.3], [0.2, 1.5]])

        class Model:
            mean_matrix = staticmethod(lambda phi: m)

        g = make_autonomous_rhs(lambda beta: m)
        for ups in ([1.0, 0.4, 2.0, 0.9], [0.5, 0.5, 0.7, 0.7]):
            for t in (1.0, 5.0):
                assert np.allclose(nonauto_rhs(ups, t, Model), g(np.array(ups)))

    def test_dead_population_decays(self):
        class Model:
            mean_matrix = staticmethod(lambda phi: np.ones((2, 2)))

        ups = np.array([0.0, 0.0, 1.2, 0.6])
        assert np.allclose(nonauto_rhs(ups, 3.0, Model), -ups)

    def test_transient_mean_enters_drift(self):
        from bpviral.bp_core import single_type_ramp_model
        model = single_type_ramp_model()
        t = harmonic_number(100)
        ups = np.array([1.0, 1.0, 2.0, 2.0])   # phi = (100, 0, 200, 0)
        drift = nonauto_rhs(ups, t, model)
        m_val = 3.0 - 0.002 * 200               # population mean at a = 200
        assert drift[0] == pytest.approx((m_val - 1.0) - 1.0)
        assert drift[2] == pytest.approx(m_val - 2.0)


class TestFiniteTimeGap:
    def test_zero_gap_for_exact_samples(self):
        h = make_h(lambda b: np.array([[1.3, 0.1], [0.1, 1.3]]))
        rhs = make_autonomous_rhs(lambda b: np.array([[1.3, 0.1], [0.1, 1.3]]))
        y0 = np.array([1.0, 0.5, 1.0, 0.5])
        ode = picard_solve(rhs, y0, T=2.0, sweeps=60, mesh=4000)
        n_start, n_end = 10, epochs_before(harmonic_number(10) + 2.0)
        sa = np.zeros((n_end + 1, 4))
        t0 = harmonic_number(n_start)
        for k in range(1, n_end + 2):
            sa[k - 1] = ode.at(max(harmonic_number(k) - t0, 0.0))
        gap = finite_time_gap(sa, ode, n_start=n_start, T=2.0)
        assert gap < 1e-9

    def test_short_trajectory_raises(self):
        ode = OdeTrajectory(times=np.linspace(0, 3, 10), values=np.zeros((10, 1)))
        with pytest.raises(ValueError, match="too short"):
            finite_time_gap(np.zeros((20, 1)), ode, n_start=10, T=3.0)


class TestHoverClassify:
    def test_constant_at_target_converges(self):
        assert hover_classify([0.5] * 100, {0.5}) == "converged_attractor"

    def test_saddle_target_label(self):
        seq = 0.5 - np.exp(-np.linspace(0, 10, 200))
        assert hover_classify(seq, {0.5: SADDLE}) == "converged_saddle"

    def test_alternating_sequence_hovers(self):
        seq = [0.5 + (0.1 if i % 2 else 0.0) for i in range(100)]
        assert hover_classify(seq, {0.5}) == "hovering"

    def test_far_sequence_undecided(self):
        assert hover_classify(np.linspace(0.2, 0.3, 50), {0.9}) == "undecided"

    def test_input_validation(self):
        with pytest.raises(ValueError):
            hover_classify([], {0.5})


def _hover_two_flag(betas, targets):
    """Reference for ``hover_classify``: the per-point entry/exit state
    machine it replaced, with its first-target convergence scan."""
    delta, delta1 = 0.01, 0.05
    betas = np.asarray(betas, dtype=float)
    if isinstance(targets, dict):
        kinds = {float(k): v for k, v in targets.items()}
    else:
        kinds = {float(k): ATTRACTOR for k in targets}
    pts = np.array(sorted(kinds))
    tail = betas[betas.size // 2:]
    dists = np.abs(tail[:, None] - pts[None, :])
    dmin = dists.min(axis=1)
    for j, p in enumerate(pts):
        if np.all(dists[:, j] <= delta):
            return "converged_saddle" if kinds[float(p)] == SADDLE else "converged_attractor"
    enters = exits = 0
    inside = dmin[0] <= delta
    beyond = dmin[0] > delta1
    for d in dmin[1:]:
        if d <= delta and not inside:
            enters += 1
            inside = True
        elif d > delta:
            inside = False
        if d > delta1 and not beyond:
            exits += 1
            beyond = True
        elif d <= delta1:
            beyond = False
    return "hovering" if enters >= 2 and exits >= 2 else "undecided"


# offsets from a target on and around both band edges, so every verdict occurs
_HOVER_OFFSETS = st.one_of(st.sampled_from([0.0, 0.01, -0.01, 0.05, -0.05, 0.2]),
                           st.floats(-0.08, 0.08))


@settings(max_examples=400, deadline=None)
@given(targets=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3, unique=True),
       labelled=st.booleans(), data=st.data())
def test_hover_classify_matches_two_flag_loop(targets, labelled, data):
    step = st.tuples(st.integers(0, len(targets) - 1), _HOVER_OFFSETS)
    # long lists make hovering common; short ones cover tails of one or two points
    steps = data.draw(st.one_of(st.lists(step, min_size=1, max_size=7),
                                st.lists(step, min_size=8, max_size=60)))
    betas = [targets[i] + off for i, off in steps]
    if labelled:
        targets = {t: data.draw(st.sampled_from([ATTRACTOR, SADDLE])) for t in targets}
    else:
        targets = set(targets)
    assert hover_classify(betas, targets) == _hover_two_flag(betas, targets)


def test_lifted_attractor_is_ode_limit():
    # integrating the 4-D ratio ODE from inside the invariant set converges
    # to the lifted attractor for a smooth constant-limit-matrix field
    m = np.array([[1.8, 0.6], [0.5, 1.6]])
    rhs = make_autonomous_rhs(lambda b: m)
    h = make_h(lambda b: m)
    g_scalar = lambda b: (-b * m[0, 1] + (1 - b) * m[1, 0]
                          + b * (1 - b) * (m[0, 0] + m[0, 1] - m[1, 0] - m[1, 1]))
    rep = classify_scalar(ScalarField(g=g_scalar))
    attractors = [e for e in rep.equilibria if e.kind == ATTRACTOR]
    assert len(attractors) == 1
    target = h(attractors[0].beta)
    for y0 in (np.array([1.0, 0.2, 1.0, 0.2]), np.array([2.0, 1.8, 2.5, 2.0])):
        traj = picard_solve(rhs, y0, T=20.0, sweeps=60, mesh=5000)
        assert np.max(np.abs(traj.values[-1] - target)) < 1e-3


def test_scalar_flow_monotone_into_attractor():
    from bpviral.ode_engine import picard_chain
    g = lambda b: b * (1 - b) * (0.5 - b)
    traj = picard_chain(lambda y, t: np.array([g(y[0])]), np.array([0.05]),
                        T=80.0)
    y = traj.values[:, 0]
    inside = np.abs(y - 0.5) <= 1e-6
    upto = int(np.argmax(inside)) if inside.any() else len(y)
    assert np.all(np.diff(y[:upto]) >= -1e-12)
    assert y[-1] == pytest.approx(0.5, abs=1e-4)
