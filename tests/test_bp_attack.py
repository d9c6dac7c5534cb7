import math

import numpy as np
import pytest

from bpviral import bp_attack
from bpviral.bp_attack import (AttackLimits, attack_model,
                               classify_regime_and_limits, interior_repeller,
                               simulate_attack_betas,
                               terminal_beta_study)
from bpviral.bp_core import (DeathModel, MeanModel, PopulationState, make_rng,
                             simulate)
from bpviral.ode_engine import (ATTRACTOR, CONVERGED_ATTRACTOR, CONVERGED_SADDLE, HOVERING,
                                REPELLER, UNDECIDED, classify_scalar)
from oracles import attack_betas_scalar, build_gbeta


class TestGbeta:
    def test_symmetric_limits_linear_field(self):
        g = build_gbeta(AttackLimits(3, 1, 3, 1)).g
        for b in (0.1, 0.25, 0.5, 0.9):
            assert g(b) == pytest.approx(-1.0 + 2.0 * b)
        assert g(0.0) == 0.0 and g(1.0) == 0.0

    def test_one_sided_attack_field(self):
        g = build_gbeta(AttackLimits(3, 1, 3, 0)).g
        for b in (0.2, 0.7):
            assert g(b) == pytest.approx(b)

    def test_boundaries_always_zero(self):
        for e in (AttackLimits(2.5, 0.3, 1.7, 0.9), AttackLimits(4, 2, 2, 0)):
            g = build_gbeta(e).g
            assert g(0.0) == 0.0 and g(1.0) == 0.0

    def test_attack_must_be_prominent(self):
        with pytest.raises(ValueError, match=r"^e_xy must be > 0 .*, got 0$"):
            AttackLimits(3, 0, 3, 1)


class TestRegime:
    def test_symmetric_case(self):
        in_e, report = classify_regime_and_limits(AttackLimits(3, 1, 3, 1))
        assert in_e
        kinds = {round(e.beta, 9): e.kind for e in report.equilibria}
        assert kinds == {0.0: ATTRACTOR, 0.5: REPELLER, 1.0: ATTRACTOR}
        lifted = {round(p.beta, 9): p.h for p in report.lifted
                  if not np.isnan(p.beta)}
        assert lifted[1.0] == pytest.approx((2, 2, 3, 3))
        assert lifted[0.0] == pytest.approx((2, 0, 3, 0))

    def test_dominant_x_not_in_regime(self):
        in_e, report = classify_regime_and_limits(AttackLimits(3, 2, 4, 0))
        assert not in_e
        attractors = [e.beta for e in report.equilibria if e.kind == ATTRACTOR]
        assert attractors == [1.0]

    def test_single_sided_with_weak_x(self):
        limits = AttackLimits(2, 1, 4, 0)
        in_e, _ = classify_regime_and_limits(limits)
        assert in_e
        assert interior_repeller(limits) == pytest.approx(0.5)

    def test_repeller_root_and_sides(self):
        rng = make_rng(505)
        checked = 0
        for _ in range(1000):
            e = AttackLimits(e_xx=rng.uniform(1.1, 4), e_xy=rng.uniform(0.05, 2),
                             e_yy=rng.uniform(1.1, 4), e_yx=rng.uniform(0, 2))
            g = build_gbeta(e).g
            # regime test two ways: set membership vs interior sign change
            dense = g(np.linspace(1e-6, 1 - 1e-6, 1001))
            has_change = np.any(np.sign(dense[:-1]) != np.sign(dense[1:]))
            assert e.in_regime_e == has_change
            if e.in_regime_e:
                r = interior_repeller(e)
                assert abs(g(r)) < 1e-10
                assert g(r - 1e-6) < 0 < g(r + 1e-6)
                checked += 1
        assert checked > 100

    def test_scan_classifier_agrees(self):
        rng = make_rng(99)
        for _ in range(50):
            e = AttackLimits(e_xx=rng.uniform(1.1, 4), e_xy=rng.uniform(0.05, 2),
                             e_yy=rng.uniform(1.1, 4), e_yx=rng.uniform(0, 2))
            direct = {round(q.beta, 7): q.kind
                      for q in classify_regime_and_limits(e)[1].equilibria}
            scanned = {round(q.beta, 7): q.kind
                       for q in classify_scalar(build_gbeta(e)).equilibria}
            assert direct == scanned


class TestSampling:
    # no own-type births and an attack mean far above any count here, so
    # every draw captures min(attack, other count) and adds it to own
    ATTACK_ONLY = AttackLimits(e_xx=0.0, e_xy=50.0, e_yy=0.0, e_yx=50.0)

    def test_no_targets_pure_birth(self):
        sampler = attack_model(self.ATTACK_ONLY).sampler
        state = PopulationState(cx=4, cy=0, ax=4, ay=0)
        assert sampler("x", 0, state, make_rng(1)) == (0, 0)

    def test_attack_cap_arithmetic(self):
        sampler = attack_model(self.ATTACK_ONLY).sampler
        state = PopulationState(cx=9, cy=3, ax=9, ay=3)
        rng = make_rng(2)
        assert sampler("x", 0, state, rng) == (3, -3)
        assert sampler("y", 0, state, rng) == (9, -9)

    def test_attack_step_conserves_transfer(self):
        # the transferred individuals cancel in the sum current population:
        # one death with 2 births and 3 captures, whichever type dies
        scripted = MeanModel(limit_mean_matrix=None,
                             sampler=lambda p, k, state, rng: (2 + 3, -3))
        traj = simulate(scripted, DeathModel(), PopulationState(cx=5, cy=4, ax=5, ay=4),
                        max_events=1, seed=1)
        assert (traj.cx[0] + traj.cy[0]) - (5 + 4) == 2 - 1

    def test_sampler_capture_mean(self):
        # the capture is min(Poisson(e_xy), cy), whose mean is the sum over
        # k < cy of P(Poisson(e_xy) > k): 1 - 1/e at cy = 1, 2 - 3/e at cy = 2
        sampler = attack_model(AttackLimits(3, 1, 3, 1)).sampler
        for cy, mean in ((0, 0.0), (1, 1 - math.exp(-1)), (2, 2 - 3 * math.exp(-1)),
                         (20, 1.0)):
            rng, state = make_rng(5), PopulationState(cx=5, cy=cy, ax=5, ay=cy)
            captured = np.array([-sampler("x", 0, state, rng)[1] for _ in range(100_000)])
            assert captured.max() <= cy
            assert abs(captured.mean() - mean) < 0.01, cy


class TestFastPathEquivalence:
    def test_same_law_as_event_loop(self):
        # absorption frequencies of beta at {0, 1} agree between the generic
        # event loop and the buffered fast path
        limits = AttackLimits(3, 1, 3, 1)
        init = PopulationState(2, 2, 2, 2)
        hits_fast = 0
        hits_loop = 0
        n = 60
        for r in range(n):
            betas, _ = simulate_attack_betas(limits, init, 3000, seed=1000 + r,
                                             record_every=3000)
            hits_fast += betas[-1] > 0.5
            traj = simulate(attack_model(limits), DeathModel(), init,
                            max_events=3000, seed=5000 + r, record_every=3000)
            b = traj.betas()[-1]
            hits_loop += b > 0.5
        p1, p2 = hits_fast / n, hits_loop / n
        se = np.sqrt(0.5 * 0.5 * 2 / n)
        assert abs(p1 - p2) < 4 * se

    def test_extinction_possible_and_flagged(self):
        limits = AttackLimits(1.2, 1, 1.2, 1)
        ext = 0
        for r in range(40):
            _, extinct = simulate_attack_betas(
                limits, PopulationState(1, 1, 1, 1), 2000, seed=r)
            ext += extinct
        assert ext > 0

    def test_records_last_epoch_off_the_grid(self):
        # 250 events recorded every 100: epochs 100, 200 and the last, 250
        limits, init = AttackLimits(3, 1, 3, 1), PopulationState(50, 50, 50, 50)
        betas, extinct = simulate_attack_betas(limits, init, 250, seed=3,
                                               record_every=100)
        fine, _ = simulate_attack_betas(limits, init, 250, seed=3, record_every=50)
        assert not extinct
        assert len(betas) == 3
        assert betas.tolist() == [fine[1], fine[3], fine[4]]

    def test_extinction_on_the_last_event_flagged(self):
        # this seed empties the population at event 5 of 5
        betas, extinct = simulate_attack_betas(
            AttackLimits(3, 1, 3, 1), PopulationState(1, 1, 1, 1), 5, seed=1494,
            record_every=5)
        assert betas.tolist() == [0.0]
        assert extinct is True

    def test_invalid_initial_state_rejected(self):
        with pytest.raises(ValueError, match="cx must be >= 0, got -1"):
            simulate_attack_betas(AttackLimits(3, 1, 3, 1), PopulationState(-1, 3, 0, 3),
                                  10, seed=1, record_every=5)


def test_terminal_beta_study_concentrates():
    res = terminal_beta_study(AttackLimits(3, 1, 3, 1), replications=30,
                              max_events=20_000, seed=7)
    assert res["in_regime_e"]
    betas = res["terminal_betas"]
    near = np.min(np.abs(betas[:, None] - np.array([0.0, 0.5, 1.0])), axis=1)
    ok = (near <= 0.05) | res["hover_flags"]
    assert ok.mean() >= 0.9


# (record_every, max_events): extinction on the last event (seed 1494 at
# (5, 5)), an off-grid last epoch, runs across the 16384-event block boundary
_SHORT_CASES = ((5, 5), (3, 8), (100, 250), (200, 20_000), (1, 40_000),
                (7, 16_384), (16_384, 16_385))


def test_attack_fast_path_pinned(sha256):
    """Frozen regression of the attack fast path: recorded betas and extinct
    flags, bit for bit, for long runs and for short runs from (1,1,1,1)."""
    digests = {}
    # (3,1,3,1) loses one type within about 100 events (seed 2 towards x,
    # seed 5 towards y); weak attacks keep both types for the whole run
    for name, limits, seed, record_every in (
            ("long-x", AttackLimits(3, 1, 3, 1), 2, 1),
            ("long-y", AttackLimits(3, 1, 3, 1), 5, 100),
            ("long-mixed", AttackLimits(2, 0.1, 2, 0.1), 0, 100)):
        betas, extinct = simulate_attack_betas(
            limits, PopulationState(5, 5, 5, 5), 100_000, seed, record_every)
        digests[name] = sha256(betas, bytes([extinct]))
    n_extinct = 0
    for limits in (AttackLimits(3, 1, 3, 1), AttackLimits(1.2, 1, 1.2, 1),
                   AttackLimits(1.2, 1, 1.5, 0), AttackLimits(0.5, 1, 0.8, 0.3)):
        parts = []
        for record_every, max_events in _SHORT_CASES:
            for seed in (1494, 0, 1, 2, 3, 4):
                betas, extinct = simulate_attack_betas(
                    limits, PopulationState(1, 1, 1, 1), max_events, seed,
                    record_every)
                parts += [betas, bytes([extinct])]
                n_extinct += extinct
        digests[f"short-{limits.e_xx:g}-{limits.e_yy:g}-{limits.e_yx:g}"] = sha256(*parts)
    assert n_extinct == 78        # 168 runs, both outcomes covered
    # printed with numpy 2.4.6; numpy does not promise the same poisson
    # streams across releases
    assert digests == {
        "long-x": "632db7f43f50f05dc2dd8b572d3798b875b7a7881c11ca646bf4566b4f8b74e5",
        "long-y": "184af3d49f65fc7c0c47a7ec3ff35366c0d2fd8747bdf3118cbcd740786a97b0",
        "long-mixed": "2a9ee022aa0b322e576d4135edf7ea4001ebb1f23e95930c43704436d22ede3d",
        "short-3-3-1": "c88951d6319c54b1f4ca84fb0ba177d164d4c594827b6c3468b375efaedb85e4",
        "short-1.2-1.2-1": "ac54f7cde2a9e2d790faaa0f819a47b0e25e0e7bddc82ac5849da7345c879840",
        "short-1.2-1.5-0": "9ed0df257e5b3abc94e33dc7c26b0dcd0ce6c3a71b3fca593b6794906402ce15",
        "short-0.5-0.8-0.3": "2cdc0a738ccf0d1f08001bdcf7ca96bc83e739f5829985d8752bf6b222720f78",
    }


# (record_every, max_events): every-event, every-7 and every-200 records,
# off-grid ends, and runs that end on and across the 16384-event blocks
_ORACLE_SHAPES = ((1, 50), (7, 1_003), (200, 2_001), (7, 16_384),
                  (200, 2 * 16_384 + 5))


def test_attack_array_phase_matches_scalar():
    """Past absorption the kernel steps a block at a time; its records,
    dtype and extinct flag equal the event-by-event loop's on the same
    seeds, and paths die out after absorption on and off the record grid."""
    on_grid = off_grid = 0
    for limits in (AttackLimits(3, 1, 3, 1), AttackLimits(3, 1, 3, 0),
                   AttackLimits(0.6, 0.3, 0.7, 0.2), AttackLimits(1.2, 1, 1.2, 1)):
        for init in (PopulationState(5, 5, 5, 5), PopulationState(1, 1, 1, 1),
                     PopulationState(3, 0, 3, 0)):
            for seed in range(6):
                for record_every, max_events in _ORACLE_SHAPES:
                    betas, extinct = simulate_attack_betas(
                        limits, init, max_events, seed, record_every)
                    ref, ref_extinct = attack_betas_scalar(
                        limits, init, max_events, seed, record_every)
                    assert betas.dtype == ref.dtype
                    assert betas.tobytes() == ref.tobytes()
                    assert extinct is ref_extinct
                    if extinct and record_every > 1:
                        # the draws do not depend on record_every, so the
                        # every-event run ends at the extinction event
                        death = len(attack_betas_scalar(limits, init, max_events,
                                                        seed, 1)[0])
                        on_grid += death % record_every == 0
                        off_grid += death % record_every != 0
    assert on_grid > 0 and off_grid > 0


def test_study_reports_absorption_record():
    # what criterion 5 reads: from (5,5,5,5) on (3,1,3,1) almost every
    # surviving path has lost one type by the first record (event 200)
    limits = AttackLimits(3, 1, 3, 1)
    first = [terminal_beta_study(limits, 100, 2_000, seed)["absorbed_record"]
             for seed in (777, 778)]
    absorbed = np.concatenate(first)
    assert absorbed.dtype.kind == "i" and absorbed.min() >= -1
    assert np.mean(absorbed == 0) >= 0.95


def test_terminal_beta_study_counts_verdicts(monkeypatch):
    # every survivor of the pinned case has one verdict; hovering is the flag
    res = terminal_beta_study(AttackLimits(3, 1, 3, 1), 3, 50_000, 777)
    counts = res["hover_verdicts"]
    assert list(counts) == [CONVERGED_ATTRACTOR, CONVERGED_SADDLE, HOVERING, UNDECIDED]
    assert sum(counts.values()) == res["replications"] - res["extinct"]
    assert counts[HOVERING] == res["hover_flags"].sum()
    # each verdict the classifier returns is counted, zeros kept
    verdicts = iter([HOVERING, UNDECIDED, HOVERING])
    monkeypatch.setattr(bp_attack, "hover_classify", lambda betas, targets: next(verdicts))
    res = terminal_beta_study(AttackLimits(3, 1, 3, 1), 3, 50_000, 777)
    assert res["hover_verdicts"] == {CONVERGED_ATTRACTOR: 0, CONVERGED_SADDLE: 0,
                                     HOVERING: 2, UNDECIDED: 1}
    assert res["hover_flags"].tolist() == [True, False, True]


def test_terminal_beta_study_pinned(sha256):
    res = terminal_beta_study(AttackLimits(3, 1, 3, 1), 3, 50_000, 777)
    digest = sha256(res["terminal_betas"], res["hover_flags"],
                     bytes([res["extinct"]]))
    assert digest == "3addfb141cd7c9c4c6543a82191a3707ac29c7a041217782e61d4d91c691aee8"
