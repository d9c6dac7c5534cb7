import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpviral import bp_core
from bpviral.bp_attack import AttackLimits, attack_model
from bpviral.bp_core import (DeathModel, MeanModel, PopulationState, dichotomy_study,
                             make_rng, ratios_and_dichotomy, replication_seed, simulate)
from bpviral.game import participant_fractions, random_study
from bpviral.market import SNAP_FIT, TefParams, simulate_stpbp
from bpviral.market_graph import build_graph, propagate_on_graph
from bpviral.ode_engine import (ScalarField, classify_scalar, finite_time_gap,
                                hover_classify, picard_solve)
from bpviral.wm import (NAIVE_POST, MechanismDesign, UserMix, design_for_kind,
                        limit_proportions, naive_mix, warning_value)
from oracles import (death_weights, example_params, extinction_prob_pgf,
                     make_poisson_sampler, ramp_mean_matrix, sa_recursion_ratios,
                     simulate_scalar, tef)


def unit_deaths():
    return DeathModel()


def death_probabilities(state):
    """P(next death is (type, kind)): each weight over the total rate that
    simulate draws against."""
    weights = death_weights(state)
    total = sum(weights.values())
    return {k: w / total for k, w in weights.items()}


class TestDeathProbabilities:
    def test_equal_unit_rates(self):
        state = PopulationState(cx=3, cy=1, ax=3, ay=1)
        probs = death_probabilities(state)
        assert probs[("x", 0)] == pytest.approx(0.75)
        assert probs[("y", 0)] == pytest.approx(0.25)

    def test_absorbing_state_raises(self):
        with pytest.raises(ValueError, match="absorbing"):
            death_probabilities(PopulationState(0, 0, 4, 4))


def scripted_model(own, cross):
    """Every death draws the fixed (own, cross); the means are those draws."""
    m = np.array([[own, cross], [cross, own]], dtype=float)
    return MeanModel(limit_mean_matrix=lambda beta: m,
                     sampler=lambda p, state, rng: (own, cross))


def identity_model():
    """Deterministic own=1, cross=0 for both types: counts freeze."""
    return scripted_model(1, 0)


def one_x_death(init, own, cross):
    """The trajectory and state after one x-type death from ``init`` that
    draws (own, cross).  Seed 2's first uniform is 0.324, so its first death
    is x-type from every start here, where x is at least 2/5 of the living."""
    def sampler(ptype, state, rng):
        assert (ptype, state) == ("x", init)
        return own, cross
    traj = simulate(MeanModel(None, sampler), DeathModel(), init, max_events=1, seed=2)
    assert traj.epoch.tolist() == [1]
    return traj, (traj.cx[0], traj.cy[0], traj.ax[0], traj.ay[0])


class TestStepEmbedded:
    """One event of the embedded chain, applied by ``simulate``."""

    def test_plain_birth(self):
        _, new = one_x_death(PopulationState(cx=3, cy=2, ax=5, ay=4), own=2, cross=1)
        assert new == (4, 3, 7, 5)

    def test_extinction_epoch(self):
        traj, new = one_x_death(PopulationState(cx=1, cy=0, ax=1, ay=0), own=0, cross=0)
        assert new == (0, 0, 1, 0)
        assert traj.extinct

    def test_attack_transfers_both_counts(self):
        _, new = one_x_death(PopulationState(cx=2, cy=3, ax=2, ay=3), own=1, cross=-2)
        assert new == (2, 1, 3, 1)

    def test_cap_violation_rejected(self):
        state = PopulationState(cx=2, cy=1, ax=2, ay=1)
        with pytest.raises(ValueError, match="invalid offspring sample: cross term"):
            one_x_death(state, own=1, cross=-2)

    def test_negative_own_rejected(self):
        state = PopulationState(cx=2, cy=1, ax=2, ay=1)
        with pytest.raises(ValueError, match="invalid offspring sample: own-type"):
            one_x_death(state, own=-1, cross=0)


class TestSimulate:
    def test_empty_start_is_absorbing(self):
        traj = simulate(identity_model(), unit_deaths(),
                        PopulationState(0, 0, 0, 0), max_events=10, seed=1)
        assert len(traj) == 0 and traj.extinct

    def test_identity_replacement_keeps_counts(self):
        init = PopulationState(cx=2, cy=3, ax=2, ay=3)
        traj = simulate(identity_model(), unit_deaths(), init,
                        max_events=50, seed=5)
        assert np.all(traj.cx + traj.cy == 5)
        assert np.all(traj.ax + traj.ay == 5 + traj.epoch)

    def test_fixed_seed_reproducible(self):
        model = bp_core.single_type_ramp_model()
        init = PopulationState(cx=2, cy=0, ax=2, ay=0)
        t1 = simulate(model, unit_deaths(), init, max_events=2000, seed=99)
        t2 = simulate(model, unit_deaths(), init, max_events=2000, seed=99)
        assert np.array_equal(t1.ax, t2.ax) and np.allclose(t1.tau, t2.tau)
        t3 = simulate(model, unit_deaths(), init, max_events=2000, seed=100)
        assert not np.array_equal(t1.ax, t3.ax)

    def test_taus_strictly_increasing(self):
        model = bp_core.single_type_ramp_model()
        traj = simulate(model, unit_deaths(),
                        PopulationState(2, 0, 2, 0), max_events=3000, seed=3)
        assert np.all(np.diff(traj.tau) > 0)

    def test_thinning_records_every_kth(self):
        model = bp_core.single_type_ramp_model()
        traj = simulate(model, unit_deaths(), PopulationState(2, 0, 2, 0),
                        max_events=1000, seed=7, record_every=100)
        if not traj.extinct:
            assert list(traj.epoch) == [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]


def _reference(model, mean_matrix):
    """The model's limit, drawn by the reference sampler at the oracle's
    ``mean_matrix(phi)``."""
    return MeanModel(model.limit_mean_matrix, make_poisson_sampler(mean_matrix))


def _scalar_cases():
    """(name, library model, reference model): the built-in models against
    the reference sampler at their oracle means (a constant model's mean is
    its matrix); the rest share their sampler."""
    def ramp(name, *params):
        model = bp_core.single_type_ramp_model(*params)
        return name, model, _reference(model, ramp_mean_matrix(*params))

    def constant(name, m):
        model = bp_core.constant_matrix_model(m)
        return name, model, _reference(model, lambda phi: np.array(m, dtype=float))

    def shared(name, model):
        return name, model, model

    scripted = MeanModel(None, lambda p, s, rng: (s.ax % 3, int(p == "y")))
    return [
        ramp("ramp"),
        ramp("ramp-to-zero", 2.0, 0.01, 0.0, 150.0),
        ramp("ramp-negative", 3.0, 0.0, -1.0, 10.0),
        constant("constant-zero", [[1.5, 0.0], [-0.0, 1.1]]),
        constant("constant-negative", [[1.3, -0.5], [0.6, 0.9]]),
        shared("attack-E", attack_model(AttackLimits(3, 1, 3, 1))),
        shared("attack-not-E", attack_model(AttackLimits(1.2, 0.5, 1.1, 0))),
        shared("scripted", scripted),
    ]


def test_simulate_matches_scalar():
    """``simulate`` and its event-by-event reference give the same bytes."""
    starts = [PopulationState(2, 0, 2, 0), PopulationState(3, 2, 3, 2),
              PopulationState(1, 1, 1, 1), PopulationState(0, 4, 0, 4)]
    for name, model, ref_model in _scalar_cases():
        for init in starts:
            for record_every in (1, 7):
                for seed in (1, 2, 20240601):
                    args = (init, 200, seed, record_every)
                    got = simulate(model, DeathModel(), *args)
                    ref = simulate_scalar(ref_model, *args)
                    case = (name, init, record_every, seed)
                    for col in ("epoch", "tau", "cx", "cy", "ax", "ay"):
                        assert (getattr(got, col).tobytes()
                                == getattr(ref, col).tobytes()), (case, col)
                    assert (got.extinct, got.s0) == (ref.extinct, ref.s0), case


@pytest.mark.parametrize("model, init, match", [
    (scripted_model(-1, 0), PopulationState(2, 0, 2, 0), "own-type"),
    (scripted_model(1, -5), PopulationState(3, 2, 3, 2), "cross term"),
], ids=["negative-own", "negative-cross"])
def test_simulate_errors_match_scalar(model, init, match):
    errors = []
    for run in (partial(simulate, model, DeathModel()), partial(simulate_scalar, model)):
        with pytest.raises(ValueError, match=match) as err:
            run(init, max_events=50, seed=3)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("build, message", [
    (lambda: bp_core.constant_matrix_model([[np.nan, 0.0], [0.0, 1.0]]),
     "m_xx must be finite, got nan"),
    (lambda: bp_core.constant_matrix_model([[1.0, 0.0], [-np.inf, 1.0]]),
     "m_yx must be finite, got -inf"),
    (lambda: bp_core.single_type_ramp_model(np.nan), "m0 must be finite, got nan"),
    (lambda: bp_core.single_type_ramp_model(a_break=np.inf), "a_break must be finite, got inf"),
], ids=["nan-constant", "inf-constant", "nan-ramp", "inf-ramp"])
def test_model_builders_reject_nonfinite(build, message):
    """A built-in model takes only finite means, so no NaN reaches a draw."""
    with pytest.raises(ValueError, match=message):
        build()


class TestRatios:
    def test_first_epoch_ratios(self):
        traj, _ = one_x_death(PopulationState(1, 1, 1, 1), own=2, cross=0)
        assert traj.ratios()[0] == pytest.approx([3.0, 2.0, 4.0, 3.0])

    def test_extinction_path_ratios_vanish(self):
        # frozen numerators over a growing epoch index
        traj = simulate(scripted_model(0, 0), unit_deaths(), PopulationState(3, 3, 3, 3),
                        max_events=100, seed=1)
        assert traj.extinct
        assert traj.epoch[-1] == 6
        assert traj.cx[-1] + traj.cy[-1] == 0
        # beta is 0 once psi_c = 0: the ratio ODE there is pure decay
        assert traj.ratios()[-1, 0] == 0.0 and traj.betas()[-1] == 0.0

    def test_sa_recursion_matches_direct(self):
        model = bp_core.single_type_ramp_model()
        traj = simulate(model, unit_deaths(), PopulationState(2, 0, 2, 0),
                        max_events=1500, seed=17)
        via_recursion = sa_recursion_ratios(traj)
        direct = traj.ratios()
        assert np.allclose(via_recursion[traj.epoch - 1], direct, rtol=1e-12, atol=1e-12)

    def test_sa_recursion_rejects_thinned_path(self):
        model = bp_core.single_type_ramp_model()
        traj = simulate(model, unit_deaths(), PopulationState(2, 0, 2, 0),
                        max_events=1000, seed=7, record_every=100)
        assert len(traj) > 1
        with pytest.raises(ValueError, match="unthinned"):
            sa_recursion_ratios(traj)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), mxx=st.floats(1.2, 3.0), mxy=st.floats(0.0, 1.0))
def test_invariants_along_paths(seed, mxx, mxy):
    """Domination and absorbing-extinction hold on every recorded epoch."""
    m = np.array([[mxx, mxy], [mxy, mxx]])
    model = bp_core.constant_matrix_model(m)
    traj = simulate(model, unit_deaths(), PopulationState(1, 1, 1, 1),
                    max_events=300, seed=seed)
    assert np.all(traj.cx <= traj.ax) and np.all(traj.cy <= traj.ay)
    assert np.all(traj.cx >= 0) and np.all(traj.cy >= 0)
    # totals never decrease for non-attack models
    assert np.all(np.diff(traj.ax) >= 0) and np.all(np.diff(traj.ay) >= 0)
    ups = traj.ratios()
    assert np.all(ups[:, 1] <= ups[:, 0] + 1e-12)   # theta_c <= psi_c
    assert np.all(ups[:, 0] <= ups[:, 2] + 1e-12)   # psi_c <= psi_a
    assert np.all(ups[:, 3] <= ups[:, 2] + 1e-12)   # theta_a <= psi_a


def test_single_path_dichotomy_summary():
    model = bp_core.single_type_ramp_model()
    traj = simulate(model, DeathModel(), PopulationState(2, 0, 2, 0),
                    max_events=4000, seed=1)
    info = ratios_and_dichotomy(traj, lam=1.0, low_mean=1.2)
    assert info["grew"]
    if not info["extinct"]:
        assert info["growth_rate"] > 0
        assert info["rate_threshold"] == pytest.approx(0.2)


def test_dichotomy_study_statistics():
    stats = dichotomy_study(offspring_mean=1.5, s0=1, replications=400,
                            cap=3000, seed=21)
    assert stats.all_grew_or_died
    # extinction probability of a unit-start process with Poisson(1.5)
    # offspring: smallest root of exp(m(s-1)) = s
    q = extinction_prob_pgf(lambda s: np.exp(1.5 * (s - 1.0)))
    se = np.sqrt(q * (1 - q) / 400)
    assert abs(stats.extinct_fraction - q) < 4 * se + 0.01
    assert stats.mean_rate >= stats.rate_threshold - 3 * stats.rate_se


@pytest.mark.parametrize("name", ["s0", "replications", "cap"])
def test_dichotomy_counts_below_one_rejected(name):
    counts = {"s0": 1, "replications": 3, "cap": 20, name: 0}
    with pytest.raises(ValueError, match=name):
        dichotomy_study(1.5, seed=1, **counts)


def test_fit_growth_rate_recovers_exponent():
    tau = np.linspace(0, 5, 400)
    s = 7.0 * np.exp(0.45 * tau)
    assert bp_core.fit_growth_rate(s, tau) == pytest.approx(0.45, rel=1e-6)


def test_make_rng_replications_independent():
    a = make_rng(replication_seed(123, 1)).random(4)
    b = make_rng(replication_seed(123, 2)).random(4)
    c = make_rng(replication_seed(123 ^ 1, 0)).random(4)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


def test_replication_streams_distinct_on_grid():
    keys = [replication_seed(s, r) for s in range(200) for r in range(50)]
    assert len(set(keys)) == len(keys)
    assert np.random.Philox(key=replication_seed(7, 3)).state["state"]["key"].tolist() == [7, 3]
    first = [make_rng(k).random() for k in keys]
    assert len(set(first)) == len(first)


def test_make_rng_pinned():
    # printed by the single-word keying this rule replaced; replication 0
    # of a seed below 2**64 must keep drawing them
    pins = {
        0: [0.011546754286331562, 0.24154919656271812,
            0.11142585551493822, 0.5644146216071337],
        7: [0.8720734548204873, 0.29536538151378355,
            0.4200976785072422, 0.4053922457839946],
        2**64 - 1: [0.23494158814525556, 0.7173107484541781,
                    0.41117733204481477, 0.7161435204444477],
    }
    for seed, values in pins.items():
        assert make_rng(replication_seed(seed, 0)).random(4).tolist() == values


@pytest.mark.parametrize("jobs", [1, 2])
def test_replicate_runs_each_stream_in_order(jobs):
    # int is the identity on a seed and pickles, so the pool path runs too
    assert bp_core.replicate(int, 6, 3, jobs) == [replication_seed(6, r) for r in range(3)]


def test_replicate_pool_no_wider_than_replications(monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    widths = []

    def pool(max_workers):
        widths.append(max_workers)
        return ThreadPoolExecutor(max_workers)

    monkeypatch.setattr(bp_core, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(bp_core.os, "cpu_count", lambda: 4)
    assert bp_core.replicate(int, 6, 2, jobs=64) == [replication_seed(6, r) for r in range(2)]
    assert widths == [2]
    # nor wider than the CPUs: 1,000 jobs on 4 CPUs start 4 workers, results in order
    assert bp_core.replicate(int, 6, 1000, jobs=1000) == [replication_seed(6, r)
                                                          for r in range(1000)]
    assert widths == [2, 4]


@pytest.mark.parametrize("call, name", [
    (lambda: make_rng(-1), "seed"),
    (lambda: make_rng(2**128), "seed"),
    (lambda: replication_seed(2**64, 0), "seed"),
    (lambda: replication_seed(0, -1), "rep"),
], ids=["make_rng(-1)", "make_rng(2**128)", "seed 2**64", "rep -1"])
def test_stream_keys_out_of_range_rejected(call, name):
    with pytest.raises(ValueError, match=name):
        call()


def _kernels():
    """Each stochastic kernel at tiny sizes, with its event, record and
    population counts: (call taking the counts as keywords, default counts)."""
    from bpviral import bp_attack, game, market, market_graph, wm, wm_dynamics

    limits, init = bp_attack.AttackLimits(3, 1, 3, 1), PopulationState(5, 5, 5, 5)
    mix = wm.naive_mix(0.1)
    design = wm.optimize_eo(wm.NAIVE_POST, mix, 0.05)
    gp = game.GameParams(**example_params("game"))
    gd = game.design_ai_game(gp)
    pair = {"max_events": 5, "record_every": 1}
    return {
        "simulate": (lambda **kw: simulate(bp_core.single_type_ramp_model(), DeathModel(),
                                           PopulationState(2, 0, 2, 0), seed=1, **kw), pair),
        "simulate_attack_betas": (lambda **kw: bp_attack.simulate_attack_betas(
            limits, init, seed=1, **kw), pair),
        "terminal_beta_study": (lambda **kw: bp_attack.terminal_beta_study(
            limits, seed=1, init=init, **kw), {"max_events": 5, "replications": 1}),
        "simulate_tagging": (lambda **kw: wm_dynamics.simulate_tagging(
            wm.EO, design, wm.NAIVE_POST, mix, wm.FAKE, 1, 1, seed=1, **kw), pair),
        "learn_wm": (lambda **kw: wm_dynamics.learn_wm(
            wm_dynamics.LearnConfig(kappa=0.5, **kw), wm.NAIVE_POST, mix, 0.05, seed=1),
            {"budget": 5, "record_every": 1, "seed_users": 20}),
        "simulate_stpbp": (lambda **kw: market.simulate_stpbp(
            market.TefParams(rho=0.6, **market.SNAP_FIT), 2, seed=1, **kw), pair),
        "simulate_tagging_game": (lambda **kw: game.simulate_tagging_game(
            gd.mu_eta(), gd, "F", seed=1, **kw), {"k_max": 5, "record_every": 1}),
        "random_study": (lambda **kw: game.random_study(d=0.1, seed=1, **kw),
                         {"n_samples": 1}),
        "estimate_tef": (lambda **kw: market_graph.estimate_tef(
            market_graph.build_graph([0, 1, 2], [1, 2, 0]), 1.0, seed=1, **kw),
            {"bin_width": 1, "runs": 1}),
    }


_COUNT_CASES = [("simulate", "max_events"), ("simulate", "record_every"),
                ("simulate_attack_betas", "max_events"),
                ("simulate_attack_betas", "record_every"),
                ("terminal_beta_study", "max_events"),
                ("terminal_beta_study", "replications"),
                ("simulate_tagging", "max_events"), ("simulate_tagging", "record_every"),
                ("learn_wm", "budget"), ("learn_wm", "record_every"),
                ("learn_wm", "seed_users"),
                ("simulate_stpbp", "max_events"), ("simulate_stpbp", "record_every"),
                ("simulate_tagging_game", "k_max"),
                ("simulate_tagging_game", "record_every"),
                ("random_study", "n_samples"),
                ("estimate_tef", "bin_width"), ("estimate_tef", "runs")]


@pytest.mark.parametrize("kernel, name", _COUNT_CASES,
                         ids=[f"{k}-{n}" for k, n in _COUNT_CASES])
def test_event_counts_below_one_rejected(kernel, name):
    call, counts = _kernels()[kernel]
    call(**counts)
    for bad in (0, -1):
        with pytest.raises(ValueError, match=name):
            call(**{**counts, name: bad})


def test_require_states_name_rule_and_value():
    bp_core.require(1 > 0, "x", 1, "> 0")
    with pytest.raises(ValueError, match=r"^x must be > 0, got nan$"):
        bp_core.require(np.nan > 0, "x", np.nan, "> 0")
    with pytest.raises(TypeError, match=r"^f must be callable, got 2$"):
        bp_core.require(callable(2), "f", 2, "callable", TypeError)


_SNAP = TefParams(rho=0.6, **SNAP_FIT)
# one call per module that breaks one parameter bound, and its message
_CHECKS = {
    "TefParams rho": (lambda: TefParams(rho=np.nan, **SNAP_FIT),
                      "rho must be in (0, 1], got nan"),
    "TefParams kappa1": (lambda: TefParams(rho=0.6, **dict(SNAP_FIT, kappa2=6e-4)),
                         "kappa1 must be > kappa2 = 0.0006, got 0.000532"),
    "TefParams rho*m_bar": (lambda: TefParams(rho=0.04, **SNAP_FIT),
                            "rho*m_bar must be > 1 (initial super-criticality), got 0.852841"),
    # tef is the TeF reference of tests/oracles.py; it checks its argument too
    "tef a": (lambda: tef(-1.0, _SNAP), "total shares a must be >= 0, got -1.0"),
    "simulate_stpbp offspring": (lambda: simulate_stpbp(_SNAP, 2, 10, 1, offspring="geometric"),
                                 "offspring must be 'poisson' or 'binomial', got 'geometric'"),
    "AttackLimits e_xx": (lambda: AttackLimits(np.inf, 1, 3, 1),
                          "e_xx must be finite and >= 0, got inf"),
    "AttackLimits e_yx": (lambda: AttackLimits(3, 1, 3, np.nan),
                          "e_yx must be finite and >= 0, got nan"),
    "classify_scalar grid_points": (
        lambda: classify_scalar(ScalarField(g=lambda b: b), grid_points=10),
        "grid_points must be >= 100, got 10"),
    "finite_time_gap n_start": (lambda: finite_time_gap(np.zeros((5, 4)), None, 6, 1.0),
                                "n_start must be in [1, 5] (the trajectory), got 6"),
    "picard_solve mesh": (lambda: picard_solve(lambda Y, ts: -Y, 1.0, T=1.0, mesh=-1),
                          "mesh must be >= 1, got -1"),
    "picard_solve T nan": (lambda: picard_solve(lambda Y, ts: -Y, 1.0, T=np.nan),
                           "T must be finite and >= 0, got nan"),
    "picard_solve T inf": (lambda: picard_solve(lambda Y, ts: -Y, 1.0, T=np.inf),
                           "T must be finite and >= 0, got inf"),
    "picard_solve T negative": (lambda: picard_solve(lambda Y, ts: -Y, 1.0, T=-1.0, mesh=10),
                                "T must be finite and >= 0, got -1.0"),
    "hover_classify targets": (lambda: hover_classify([0.5, 0.4], {}),
                               "targets must be one or more target values, got {}"),
    "hover_classify betas": (lambda: hover_classify([], {0.0: "attractor"}),
                             "betas must be one or more values, got []"),
    "dichotomy_study offspring_mean nan": (
        lambda: dichotomy_study(np.nan, 1, 3, 20, 1),
        "offspring_mean must be finite and >= 0, got nan"),
    "dichotomy_study offspring_mean negative": (
        lambda: dichotomy_study(-1.0, 1, 3, 20, 1),
        "offspring_mean must be finite and >= 0, got -1.0"),
    "dichotomy_study s0 negative": (lambda: dichotomy_study(1.5, -3, 3, 20, 1),
                                    "s0 must be >= 1, got -3"),
    "propagate_on_graph rho": (
        lambda: propagate_on_graph(build_graph([0], [1]), [0], 1.5, make_rng(1)),
        "rho must be in [0, 1], got 1.5"),
    "UserMix": (lambda: UserMix(0.5, 0.5, 0.5, 0.0),
                "user proportions must be nonnegative and sum to 1, got (0.5, 0.5, 0.5, 0.0)"),
    "design_for_kind kind": (lambda: design_for_kind("eo2", NAIVE_POST, naive_mix(0.1), 0.05),
                             "kind must be one of eo, ea, eh, eh2, got 'eo2'"),
    "warning_value kind": (
        lambda: warning_value(0.5, MechanismDesign(kind="zz", w=1.0, b=0.1), NAIVE_POST,
                              naive_mix(0.1)),
        "kind must be one of eo, ea, eh, eh2, learned, got 'zz'"),
    "limit_proportions mu2": (
        lambda: limit_proportions(MechanismDesign(kind="eo", w=1.0, b=0.1), NAIVE_POST,
                                  UserMix(1.0, 0.0, 0.0, 0.0)),
        "mu2 must be > 0 (the crowd signal), got 0.0"),
    "random_study theta": (lambda: random_study(5, 0.1, 1, theta=-1.0),
                           "theta must be in (0, 1], got -1.0"),
    "participant_fractions": (lambda: participant_fractions((1.0, 0.0, 0.0), 0.0),
                              "participants mu1 + mu2 + mua must be > 0, got 0.0"),
    "ratios_and_dichotomy traj": (
        lambda: ratios_and_dichotomy(bp_core.Trajectory(*np.zeros((6, 0), dtype=int))),
        "len(traj) must be >= 1, got 0"),
}


@pytest.mark.parametrize("call, message", _CHECKS.values(), ids=_CHECKS.keys())
def test_parameter_check_names_field_and_value(call, message):
    """Every module's bound checks fail in the one form of ``bp_core.require``."""
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call()


class TestRatioVector:
    """The per-epoch ratio vectors (psi_c, theta_c, psi_a, theta_a), the rows
    of ``Trajectory.ratios``."""

    def test_beta_convention_at_extinction(self):
        # epoch 5 with no current population left: (0, 0, 0.4, 0.2)
        traj = bp_core.Trajectory(
            epoch=np.array([5]), tau=np.array([1.0]),
            cx=np.array([0]), cy=np.array([0]),
            ax=np.array([1]), ay=np.array([1]), extinct=True)
        assert traj.ratios()[0].tolist() == [0.0, 0.0, 0.4, 0.2]
        assert traj.betas()[0] == 0.0

    def test_trajectory_vectors_valid(self):
        model = bp_core.single_type_ramp_model()
        traj = simulate(model, DeathModel(), PopulationState(2, 0, 2, 0),
                        max_events=300, seed=2)
        ups = traj.ratios()
        assert np.all((-1e-12 <= ups[:, 1]) & (ups[:, 1] <= ups[:, 0] + 1e-12))
        assert np.all(ups[:, 0] <= ups[:, 2] + 1e-12)
        assert np.all(ups[:, 3] <= ups[:, 2] + 1e-12)


def test_reference_run_pinned_hash():
    """Frozen regression: the ramp-model trajectory for one fixed seed."""
    import hashlib

    model = bp_core.single_type_ramp_model()
    traj = simulate(model, DeathModel(), PopulationState(2, 0, 2, 0),
                    max_events=1000, seed=20240601)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(traj.ax).tobytes())
    h.update(np.ascontiguousarray(traj.cx).tobytes())
    h.update(np.round(traj.tau, 10).tobytes())
    assert h.hexdigest() == ("311a45144d12ee8db0d45eb30f48001d"
                             "8478bdf74e790ee7fa496633f0e6b471")
