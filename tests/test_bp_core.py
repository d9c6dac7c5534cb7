import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpviral import bp_core
from bpviral.bp_core import (DeathModel, MeanModel, OffspringSample,
                             PopulationState, death_weights,
                             dichotomy_study, make_rng, ratios_and_dichotomy,
                             replication_seed, sa_recursion_ratios, simulate,
                             step_embedded)


def unit_deaths():
    return DeathModel()


def death_probabilities(state, deaths):
    """P(next death is (type, kind)): each weight over the total rate that
    simulate draws against."""
    weights = death_weights(state, deaths)
    total = sum(weights.values())
    return {k: w / total for k, w in weights.items()}


class TestDeathProbabilities:
    def test_equal_unit_rates(self):
        state = PopulationState(cx=3, cy=1, ax=3, ay=1)
        probs = death_probabilities(state, unit_deaths())
        assert probs[("x", 0)] == pytest.approx(0.75)
        assert probs[("y", 0)] == pytest.approx(0.25)

    def test_type_dependent_rates(self):
        deaths = DeathModel(rate=lambda p, k, s: 2.0 if p == "x" else 1.0)
        state = PopulationState(cx=1, cy=1, ax=1, ay=1)
        probs = death_probabilities(state, deaths)
        assert probs[("x", 0)] == pytest.approx(2 / 3)

    def test_multiple_kinds_unit_total(self):
        # per-kind rates mu_d summing to one make the total death rate one,
        # so P(type z, kind d) = mu_d * (share of z among currents)
        mu = (0.2, 0.3, 0.4, 0.1)
        deaths = DeathModel(kinds_x=(0, 1, 2, 3), kinds_y=(0, 1, 2, 3),
                            rate=lambda p, k, s: mu[k])
        state = PopulationState(cx=3, cy=1, ax=3, ay=1)
        probs = death_probabilities(state, deaths)
        for d in range(4):
            assert probs[("x", d)] == pytest.approx(mu[d] * 0.75)
            assert probs[("y", d)] == pytest.approx(mu[d] * 0.25)
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_absorbing_state_raises(self):
        with pytest.raises(ValueError, match="absorbing"):
            death_probabilities(PopulationState(0, 0, 4, 4), unit_deaths())

    @pytest.mark.parametrize("field", ["kinds_x", "kinds_y"])
    def test_empty_kinds_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            DeathModel(**{field: ()})


class TestStepEmbedded:
    def test_plain_birth(self):
        state = PopulationState(cx=3, cy=2, ax=5, ay=4)
        new = step_embedded(state, OffspringSample("x", own=2, cross=1))
        assert (new.cx, new.cy, new.ax, new.ay) == (4, 3, 7, 5)

    def test_extinction_epoch(self):
        state = PopulationState(cx=1, cy=0, ax=1, ay=0)
        new = step_embedded(state, OffspringSample("x", own=0, cross=0))
        assert (new.cx, new.cy, new.ax, new.ay) == (0, 0, 1, 0)
        assert new.extinct

    def test_attack_transfers_both_counts(self):
        state = PopulationState(cx=2, cy=3, ax=2, ay=3)
        new = step_embedded(state, OffspringSample("x", own=1, cross=-2))
        assert (new.cx, new.cy, new.ax, new.ay) == (2, 1, 3, 1)

    def test_cap_violation_rejected(self):
        state = PopulationState(cx=2, cy=1, ax=2, ay=1)
        with pytest.raises(ValueError, match="invalid offspring sample"):
            step_embedded(state, OffspringSample("x", own=1, cross=-2))

    def test_negative_own_rejected(self):
        state = PopulationState(cx=2, cy=1, ax=2, ay=1)
        with pytest.raises(ValueError, match="invalid offspring sample"):
            step_embedded(state, OffspringSample("x", own=-1, cross=0))


def identity_model():
    """Deterministic own=1, cross=0 for both types: counts freeze."""
    m = np.array([[1.0, 0.0], [0.0, 1.0]])
    return MeanModel(
        mean_matrix=lambda phi: m,
        limit_mean_matrix=lambda beta: m,
        sampler=lambda p, k, s, rng: OffspringSample(p, own=1, cross=0),
    )


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


class TestRatios:
    def test_first_epoch_ratios(self):
        init = PopulationState(1, 1, 1, 1)
        state = step_embedded(init, OffspringSample("x", own=2, cross=0))
        traj = bp_core.Trajectory(
            epoch=np.array([1]), tau=np.array([0.5]),
            cx=np.array([state.cx]), cy=np.array([state.cy]),
            ax=np.array([state.ax]), ay=np.array([state.ay]))
        assert traj.ratios()[0] == pytest.approx([3.0, 2.0, 4.0, 3.0])

    def test_extinction_path_ratios_vanish(self):
        # frozen numerators over a growing epoch index
        zero_model = MeanModel(
            mean_matrix=lambda phi: np.zeros((2, 2)),
            limit_mean_matrix=lambda b: np.zeros((2, 2)),
            sampler=lambda p, k, s, rng: OffspringSample(p, own=0, cross=0))
        traj = simulate(zero_model, unit_deaths(), PopulationState(3, 3, 3, 3),
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
    ups, info = ratios_and_dichotomy(traj, lam=1.0, low_mean=1.2)
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
    from bpviral.market import extinction_prob_pgf
    q = extinction_prob_pgf(lambda s: np.exp(1.5 * (s - 1.0)))
    se = np.sqrt(q * (1 - q) / 400)
    assert abs(stats.extinct_fraction - q) < 4 * se + 0.01
    assert stats.mean_rate >= stats.rate_threshold - 3 * stats.rate_se


@pytest.mark.parametrize("name", ["replications", "cap"])
def test_dichotomy_counts_below_one_rejected(name):
    counts = {"replications": 3, "cap": 20, name: 0}
    with pytest.raises(ValueError, match=name):
        dichotomy_study(1.5, 1, seed=1, **counts)


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
    gp = game.GameParams(alpha_r=0.27, alpha_f=0.30, mua=0.1, p=0.3, theta=0.75,
                         delta=0.28, resp_a=2.5)
    gd = game.design_ai_game(gp)
    pair = {"max_events": 5, "record_every": 1}
    return {
        "simulate": (lambda **kw: simulate(bp_core.single_type_ramp_model(), DeathModel(),
                                           PopulationState(2, 0, 2, 0), seed=1, **kw), pair),
        "simulate_attack_betas": (lambda **kw: bp_attack.simulate_attack_betas(
            limits, init, seed=1, **kw), pair),
        "terminal_beta_study": (lambda **kw: bp_attack.terminal_beta_study(
            limits, 1, seed=1, init=init, **kw), {"max_events": 5}),
        "simulate_tagging": (lambda **kw: wm_dynamics.simulate_tagging(
            wm.EO, design, wm.NAIVE_POST, mix, wm.FAKE, 1, 1, seed=1, **kw), pair),
        "learn_wm": (lambda **kw: wm_dynamics.learn_wm(
            wm_dynamics.LearnConfig(kappa=0.5, **kw), wm.NAIVE_POST, mix, 0.05, seed=1),
            {"budget": 5, "record_every": 1, "seed_users": 20}),
        "simulate_stpbp": (lambda **kw: market.simulate_stpbp(
            market.TefParams(rho=0.6, **market.SNAP_FIT), 2, seed=1, **kw), pair),
        "simulate_tagging_game": (lambda **kw: game.simulate_tagging_game(
            gd.mu_eta(), gd, gp, "F", seed=1, **kw), {"k_max": 5, "record_every": 1}),
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
