import dataclasses
import hashlib

import numpy as np
import pytest

from bpviral import wm_dynamics
from bpviral.bp_core import make_rng
from bpviral.wm import (EA, EH, EH2, EO, FAKE, REAL, UserMix, design_eh, design_eh2,
                        design_for_kind, learned_design, optimize_eo)
from bpviral.wm_dynamics import LearnConfig, _Buf, learn_wm, simulate_tagging
from oracles import b_update, learn_wm_scalar, simulate_tagging_scalar, w_update


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

    @pytest.mark.parametrize("mix", [UserMix(0.5, 0.5, 0.0, 0.0), UserMix(0.25, 0.15, 0.5, 0.1)],
                             ids=["no warning-seekers", "warning-seekers"])
    def test_unknown_kind_rejected_before_reading(self, naive_post, mix, monkeypatch):
        d = optimize_eo(naive_post, UserMix(0.25, 0.15, 0.5, 0.1), 0.05)
        monkeypatch.setattr(wm_dynamics, "make_rng", lambda seed: pytest.fail("drew"))
        with pytest.raises(ValueError, match="kind must be one of .*, got 'eo2'"):
            simulate_tagging("eo2", d, naive_post, mix, FAKE, 1, 1, max_events=1000, seed=1)
        # a valid kind that is not the design's
        with pytest.raises(ValueError, match="kind must be the design's kind 'eo', got 'ea'"):
            simulate_tagging(EA, d, naive_post, mix, FAKE, 1, 1, max_events=1000, seed=1)

    def test_negative_initial_count_rejected(self, naive_post, naive_mix):
        d = optimize_eo(naive_post, naive_mix(0.1), 0.05)
        with pytest.raises(ValueError, match="init_fake must be >= 0, got -1"):
            simulate_tagging(EO, d, naive_post, naive_mix(0.1), FAKE, -1, 3,
                             max_events=50, seed=1, record_every=10)


class TestLearn:
    def test_budget_validation(self, naive_post, naive_mix):
        cfg = LearnConfig(budget=0, kappa=0.5)
        with pytest.raises(ValueError, match="budget"):
            learn_wm(cfg, naive_post, naive_mix(0.1), 0.05, seed=1)

    def test_kappa_floor_validation(self, naive_post, naive_mix):
        cfg = LearnConfig(budget=10, kappa=0.0)
        with pytest.raises(ValueError, match="kappa"):
            learn_wm(cfg, naive_post, naive_mix(0.1), 0.05, seed=1)

    @pytest.mark.parametrize("fields, target, match", [
        ({"kappa": float("nan")}, 0.05, "kappa must be in"),
        ({"kappa": 1.0}, 0.05, "kappa must be in"),
        ({}, float("nan"), "target_beta must be in"),
        ({}, -0.01, "target_beta must be in"),
    ], ids=["kappa nan", "kappa 1", "target nan", "target below 0"])
    def test_bad_floats_rejected(self, naive_post, naive_mix, fields, target, match):
        cfg = LearnConfig(**{"budget": 10, "kappa": 0.5, **fields})
        with pytest.raises(ValueError, match=match):
            learn_wm(cfg, naive_post, naive_mix(0.1), target, seed=1)

    def test_share_bonus_applies(self, naive_post, naive_mix):
        # learning reads through the tagging reader process, boost included
        cfg = LearnConfig(budget=3000, kappa=1 - 0.09 / 0.12 + 1e-3,
                          record_every=100)
        runs = [learn_wm(cfg, dataclasses.replace(naive_post, share_bonus_k=k),
                         naive_mix(0.1), 0.05, seed=4) for k in (0.0, 2.0)]
        assert not np.array_equal(runs[0].trace, runs[1].trace)

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


def _digest(*arrays, extinct):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(b"extinct" if extinct else b"alive")
    return h.hexdigest()


def test_tagging_and_learning_pinned(naive_post, naive_mix):
    """Frozen regression of both reader-process kernels: every recorded
    array of tagging paths and learning results for fixed seeds."""
    mix = naive_mix(0.1)
    designs = {EO: optimize_eo(naive_post, mix, 0.05),
               EH: design_eh(naive_post, mix, 0.05)}
    tagging = {}
    for kind, design in designs.items():
        for u in (FAKE, REAL):
            for k in (0.0, 2.0):
                post = dataclasses.replace(naive_post, share_bonus_k=k)
                path = simulate_tagging(kind, design, post, mix, u, 2, 2,
                                        max_events=3000, seed=44,
                                        record_every=250)
                tagging[f"{kind}-{u}-k{k:g}"] = path
    # a mostly silent crowd: this seed dies out at read 143, off the grid
    tagging["extinct"] = simulate_tagging(
        EO, designs[EO], naive_post, UserMix(0.9, 0.03, 0.05, 0.02), FAKE,
        3, 3, max_events=3000, seed=21, record_every=5)
    digests = {name: _digest(p.epoch, p.beta, p.cx, p.cy, p.ax, p.ay,
                             extinct=p.extinct)
               for name, p in tagging.items()}
    kappa = 1 - 0.09 / 0.12 + 1e-3
    for name, cfg, seed in (
            ("learn", LearnConfig(budget=3000, kappa=kappa, record_every=250), 11),
            ("learn-extinct", LearnConfig(budget=2000, kappa=kappa, seed_users=1,
                                          record_every=100), 3)):
        res = learn_wm(cfg, naive_post, mix, 0.05, seed=seed)
        digests[name] = _digest(res.trace, np.array([res.w, res.b]),
                                extinct=res.extinct)
    assert tagging["extinct"].extinct and tagging["extinct"].epoch[-1] == 143
    # printed with numpy 2.4.6; numpy does not promise the same
    # geometric/binomial streams across releases
    assert digests == {
        "eo-F-k0": "95a315cee12869b716e517c5a3a30cad0743a4d4c16b1905a4e790a1be5f861c",
        "eo-F-k2": "8225fae3bc231cccd202344f220faf4a58dfb1d63433a4468f9d7f8033e9c0ea",
        "eo-R-k0": "1a2d9ca09a3c99af9c9ea9a0aa39ead0a9fa408c49ea2a779848a69c857071a3",
        "eo-R-k2": "bfb242465323233366d788e85153a12d7be4720ef0489f0275984fe963f0c150",
        "eh-F-k0": "d18af11860611fea85b9246509b715b9d5330839f3524ee5a51d0554c11986d6",
        "eh-F-k2": "0b8e7439e7200c608a9258af4e2c05d7bbaa9363ad02dd5f1bd8ed1ace620437",
        "eh-R-k0": "5f65b4a725c2843881e3298dec189e217b8fc99a38ff402ada6ccad2caa56d0d",
        "eh-R-k2": "bfb242465323233366d788e85153a12d7be4720ef0489f0275984fe963f0c150",
        "extinct": "826916408d4202360d7ad37f45ee3bb34f6e61b3b4e0fb240c0357b5fdaa276b",
        "learn": "78fe2a8ce7cf46c789c48976f03d622bd3eec5bf3bc3e60305cd709d42977c37",
        "learn-extinct": "dc6be491c14184587073c4361bc6b68cb62b3ddfab15cbd4b4d4ffdb21e37f5c",
    }


_SILENT = UserMix(0.9, 0.03, 0.05, 0.02)   # a mostly silent crowd: early extinctions
_KAPPA = 1 - 0.09 / 0.12 + 1e-3


def test_tagging_matches_scalar(naive_post, naive_mix):
    """``simulate_tagging`` and its reference in ``oracles`` give the same
    bytes: every kind, actuality and share boost; record grids of 1, 7 and
    1000; extinctions on and off the grid; and a run past two buffer
    refills (2 x 16,384 reads)."""
    mix = naive_mix(0.1)
    designs = {kind: design_for_kind(kind, naive_post, mix, 0.05) for kind in (EO, EA, EH, EH2)}
    cases = [(kind, k, mix, u, 2, 2, 3000, 44, 7)
             for kind in designs for u in (FAKE, REAL) for k in (0.0, 2.0)]
    cases += [(EH, 0.0, mix, FAKE, 1, 0, 500, 5, 1),
              (EO, 2.0, mix, REAL, 0, 1, 500, 6, 1),
              (EH2, 0.0, mix, FAKE, 2, 2, 40_000, 44, 1000),
              (EO, 0.0, _SILENT, FAKE, 3, 3, 3000, 87, 7),     # dies at read 49
              (EO, 0.0, _SILENT, FAKE, 3, 3, 3000, 21, 7)]     # dies at read 143
    ends = []
    for kind, k, crowd, u, init_fake, init_real, events, seed, every in cases:
        post = dataclasses.replace(naive_post, share_bonus_k=k)
        args = (kind, designs[kind], post, crowd, u, init_fake, init_real, events, seed, every)
        got, ref = simulate_tagging(*args), simulate_tagging_scalar(*args)
        for col in ("epoch", "beta", "cx", "cy", "ax", "ay"):
            assert getattr(got, col).tobytes() == getattr(ref, col).tobytes(), (args, col)
        assert got.extinct == ref.extinct, args
        ends.append((int(got.epoch[-1]), got.extinct))
    assert ends[-3:] == [(40_000, False), (49, True), (143, True)]


def test_learn_matches_scalar(naive_post, naive_mix, monkeypatch):
    """``learn_wm`` and its reference in ``oracles`` give the same bytes:
    one, two and twenty seed users with and without the share boost; record
    grids of 1, 7 and 1000; w held at its bound (from ``W0`` patched to 1,
    which both read at call time); extinctions on and off the grid; and a
    budget past two buffer refills."""
    mix = naive_mix(0.1)
    cases = [(k, mix, dict(seed_users=users, budget=3000, record_every=every), 11)
             for k in (0.0, 2.0) for users in (1, 2, 20) for every in (7, 1000)]
    cases += [(0.0, mix, dict(budget=500, record_every=1), 4),
              (2.0, mix, dict(seed_users=2, budget=500, record_every=1), 4),
              (0.0, mix, dict(kappa=0.95, w0=1.0, budget=3000, record_every=7), 12),
              (0.0, mix, dict(budget=40_000), 5),
              (0.0, _SILENT, dict(seed_users=2, budget=3000, record_every=7), 28),  # dies at 168
              (0.0, _SILENT, dict(seed_users=2, budget=3000, record_every=7), 45)]  # dies at 661
    ends = []
    for k, crowd, fields, seed in cases:
        post = dataclasses.replace(naive_post, share_bonus_k=k)
        cfg = LearnConfig(**{"kappa": _KAPPA, **{f: v for f, v in fields.items() if f != "w0"}})
        with monkeypatch.context() as patch:
            if "w0" in fields:
                patch.setattr(wm_dynamics, "W0", fields["w0"])
            got = learn_wm(cfg, post, crowd, 0.05, seed)
            ref = learn_wm_scalar(cfg, post, crowd, 0.05, seed)
        case = (k, crowd, fields, seed)
        assert got.trace.tobytes() == ref.trace.tobytes(), case
        assert (got.w.hex(), got.b.hex(), got.extinct) == (ref.w.hex(), ref.b.hex(), ref.extinct), case
        ends.append((int(got.trace[-1, 0]), got.extinct, int((got.trace[:, 1] == 1.0).sum())))
    assert ends[-4:] == [(3000, False, 58), (40_000, False, 0), (168, True, 0), (661, True, 0)]
