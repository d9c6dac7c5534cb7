import numpy as np
import pytest

from bpviral.bp_core import make_rng
from bpviral.wm import (EO, FAKE, REAL, UserMix, design_eh2, learned_design,
                        optimize_eo)
from bpviral.wm_dynamics import (LearnConfig, _Buf, b_update, learn_wm,
                                 simulate_tagging, w_update)


class TestUpdates:
    def test_w_update_arithmetic(self):
        # indicator hit with eps 0.1 and kappa 0.6 moves w down by 0.06
        assert w_update(2.0, 0.1, 1.0, 0.6) == pytest.approx(2.0 - 0.06)

    def test_w_update_projection(self):
        assert w_update(1.0, 0.5, 1.0, 0.0) == 1.0

    def test_b_update_zero_innovation(self):
        assert b_update(0.7, 0.3, beta=0.05, target=0.05) == 0.7

    def test_b_update_projection(self):
        assert b_update(0.0, 1.0, beta=0.0, target=0.5) == 0.0


def test_geometric_buffer_moments():
    rng = make_rng(77)
    buf = _Buf(rng, mean=6.0)
    draws = np.array([buf.draw() for _ in range(40_000)])
    assert draws.mean() == pytest.approx(6.0, rel=0.05)
    # geometric on {0,1,...} with mean m has variance m(1+m)
    assert draws.var() == pytest.approx(6.0 * 7.0, rel=0.08)


class TestSimulateTagging:
    def test_all_nonparticipants_extinguish(self, naive_post):
        mix = UserMix(mu0=1.0, mu1=0.0, mu2=0.0, mua=0.0)
        d = optimize_eo(naive_post, UserMix(0.25, 0.15, 0.5, 0.1), 0.05)
        path = simulate_tagging(EO, d, naive_post, mix, FAKE, 3, 4,
                                max_events=100, seed=1)
        assert path.extinct
        assert path.epoch[-1] == 7

    def test_all_adversaries_wash_out_fake_tags(self, naive_post):
        mix = UserMix(mu0=0.0, mu1=0.0, mu2=0.0, mua=1.0)
        d = optimize_eo(naive_post, UserMix(0.25, 0.15, 0.5, 0.1), 0.05)
        path = simulate_tagging(EO, d, naive_post, mix, FAKE, 20, 0,
                                max_events=30_000, seed=2)
        assert path.beta[-1] < 0.01

    def test_terminal_beta_near_predicted_root(self, smart_post):
        mix = UserMix(mu0=0.0, mu1=0.0, mu2=0.99, mua=0.01)
        d = optimize_eo(smart_post, mix, 0.02, iqos=False)
        finals = []
        for s in range(8):
            path = simulate_tagging(EO, d, smart_post, mix, FAKE, 1, 1,
                                    max_events=30_000, seed=100 + s)
            if not path.extinct:
                finals.append(path.beta[-1])
        assert len(finals) >= 3
        assert np.mean(finals) == pytest.approx(0.89798, abs=0.03)

    def test_real_post_stays_under_target(self, naive_post, naive_mix):
        mix = naive_mix(0.1)
        d = optimize_eo(naive_post, mix, 0.05, iqos=True)
        finals = []
        for s in range(6):
            path = simulate_tagging(EO, d, naive_post, mix, REAL, 1, 1,
                                    max_events=20_000, seed=300 + s)
            if not path.extinct:
                finals.append(path.beta[-1])
        assert np.mean(finals) == pytest.approx(d.delta_target, abs=0.02)

    def test_share_bonus_branch_runs(self, naive_post):
        import dataclasses
        post = dataclasses.replace(naive_post, share_bonus_k=2.0)
        mix = UserMix(0.25, 0.15, 0.5, 0.1)
        d = optimize_eo(naive_post, mix, 0.05)
        path = simulate_tagging(EO, d, post, mix, FAKE, 2, 2,
                                max_events=2000, seed=5)
        assert len(path.epoch) > 0

    def test_empty_start_rejected(self, naive_post, naive_mix):
        d = optimize_eo(naive_post, naive_mix(0.1), 0.05)
        with pytest.raises(ValueError):
            simulate_tagging(EO, d, naive_post, naive_mix(0.1), FAKE, 0, 0,
                             max_events=10, seed=1)


class TestLearn:
    def test_budget_validation(self, naive_post, naive_mix):
        cfg = LearnConfig(budget=0, kappa=0.5)
        with pytest.raises(ValueError, match="budget"):
            learn_wm(cfg, naive_post, naive_mix(0.1), 0.05, seed=1)

    def test_kappa_floor_validation(self, naive_post, naive_mix):
        cfg = LearnConfig(budget=10, kappa=0.0)
        with pytest.raises(ValueError, match="kappa"):
            learn_wm(cfg, naive_post, naive_mix(0.1), 0.05, seed=1)

    def test_trace_and_projection(self, naive_post, naive_mix):
        cfg = LearnConfig(budget=5000, kappa=1 - 0.09 / 0.12 + 1e-3,
                          record_every=500)
        res = learn_wm(cfg, naive_post, naive_mix(0.1), 0.05, seed=11)
        assert res.w >= 1.0 and res.b >= 0.0
        assert res.trace.shape[1] == 4
        assert res.trace[-1, 0] == 5000

    def test_trace_records_the_epoch_of_extinction(self, naive_post, naive_mix):
        # one seed user and this seed: the run dies out within 100 reads
        cfg = LearnConfig(budget=2000, kappa=1 - 0.09 / 0.12 + 1e-3,
                          seed_users=1, record_every=100)
        res = learn_wm(cfg, naive_post, naive_mix(0.1), 0.05, seed=3)
        assert res.extinct
        assert res.trace.tolist() == [[1.0, res.w, res.b, 0.0]]

    def test_learned_design_close_to_perfect(self, naive_post, naive_mix):
        mix = naive_mix(0.1)
        perfect = design_eh2(naive_post, mix, 0.05, iqos=True)
        cfg = LearnConfig(budget=100_000, kappa=1 - 0.09 / 0.12 + 1e-3)
        hits = 0
        runs = 6
        for s in range(runs):
            res = learn_wm(cfg, naive_post, mix, target_beta=0.05, seed=900 + s)
            d = learned_design(res.w, res.b, naive_post, mix, 0.05, iqos=True)
            hits += abs(d.iqos - perfect.iqos) <= 0.05
        assert hits >= runs - 2
