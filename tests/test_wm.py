import json
import re
from dataclasses import replace

import numpy as np
import pytest

from bpviral.bp_core import make_rng
from bpviral.wm import (EA, EH, EH2, EO, FAKE, LEARNED, REAL, MechanismDesign,
                        PostModel, UserMix, beta_bounds, delta_a_value,
                        design_ea, design_eh, design_eh2, design_for_kind,
                        eo_warning, gbeta_field, gbeta_wm, iqos_scale,
                        learned_design, limit_proportions, optimize_eo,
                        smart_mix, warning_value)
from bpviral.ode_engine import classify_scalar


def random_post(rng):
    ax_r = rng.uniform(0.1, 0.4)
    ax_f = ax_r + rng.uniform(0.05, 0.5)
    ay_f = ax_f * rng.uniform(0.4, 0.9)
    ay_r = min(ax_r * rng.uniform(0.4, 0.9), ay_f - 0.01)
    if ay_r <= 0:
        ay_r = ay_f / 2
    eta_r = rng.uniform(0.05, 0.4)
    eta_f = eta_r + rng.uniform(0.02, 0.2)
    return PostModel(m_f=rng.uniform(10, 40), eta_f=eta_f, eta_r=eta_r,
                     eta_a=eta_f + rng.uniform(0.01, 0.2),
                     gamma=rng.uniform(0.05, 0.2), rho=rng.uniform(0.3, 0.95),
                     alpha_x_f=ax_f, alpha_y_f=ay_f,
                     alpha_x_r=ax_r, alpha_y_r=ay_r)


def random_mix(rng):
    mu1 = rng.uniform(0.0, 0.3)
    mu2 = rng.uniform(0.2, 0.6)
    mua = rng.uniform(0.0, 0.2)
    s = mu1 + mu2 + mua
    if s > 0.95:
        mu1, mu2, mua = (v * 0.95 / s for v in (mu1, mu2, mua))
    return UserMix(mu0=1 - mu1 - mu2 - mua, mu1=mu1, mu2=mu2, mua=mua)


class TestWarningValue:
    def test_eo_anchors(self, smart_post):
        d = MechanismDesign(kind=EO, w=1.0, b=1.0)
        mix = UserMix(0.0, 0.0, 1.0, 0.0)
        post = smart_post
        assert warning_value(0.0, d, post, mix) == pytest.approx(post.gamma)
        assert warning_value(1.0, d, post, mix) == pytest.approx(1.0 + post.gamma)
        assert warning_value(0.5, d, post, mix) == pytest.approx(0.6)

    def test_zero_beta_zero_b_limit(self):
        assert eo_warning(0.0, 2.0, 0.0, 0.1) == pytest.approx(0.1)

    def test_ea_zero_boost_without_adversaries(self, naive_post):
        mix = UserMix(0.35, 0.15, 0.5, 0.0)
        d = MechanismDesign(kind=EA, w=2.0, b=0.4)
        for b in np.linspace(0, 1, 7):
            assert warning_value(b, d, naive_post, mix) == pytest.approx(
                warning_value(b, replace(d, kind=EO), naive_post, mix))

    def test_ea_dominates_eo(self, naive_post):
        rng = make_rng(3)
        mix = UserMix(0.25, 0.15, 0.5, 0.1)
        d = MechanismDesign(kind=EA, w=2.0, b=0.4)
        for b in rng.uniform(0.001, 1, 50):
            assert (warning_value(b, d, naive_post, mix)
                    > warning_value(b, replace(d, kind=EO), naive_post, mix))

    def test_eh_scales_ea(self, naive_post):
        mix = UserMix(0.25, 0.15, 0.5, 0.1)
        d = MechanismDesign(kind=EH, w=2.0, b=0.4, zeta=1.3)
        for b in (0.2, 0.6):
            assert warning_value(b, d, naive_post, mix) == pytest.approx(
                1.3 * warning_value(b, replace(d, kind=EA), naive_post, mix))


def test_warning_and_field_take_arrays(naive_post, naive_mix):
    """An array of betas gives the bits of one float call per beta, and a
    float gives a float."""
    mix = naive_mix(0.1)
    betas = np.linspace(0.0, 1.0, 101)
    for kind in (EO, EA, EH, EH2, LEARNED):
        for b in (0.0, 0.4):
            d = MechanismDesign(kind=kind, w=naive_post.w_h2, b=b, zeta=1.3)
            calls = [lambda x: warning_value(x, d, naive_post, mix)]
            calls += [lambda x, u=u: gbeta_wm(x, d, naive_post, mix, u)
                      for u in (FAKE, REAL)]
            for f in calls:
                per_point = np.array([f(x) for x in betas.tolist()])
                assert f(betas).tobytes() == per_point.tobytes()
    assert type(eo_warning(0.0, 2.0, 0.0, 0.1)) is float


def _leaves(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [leaf for v in obj for leaf in _leaves(v)]
    return [obj]


@pytest.mark.parametrize("w, b, ok", [(1.0, 0.0, False), (3.0, 0.0, False), (8.0, 1.0, True)])
def test_learned_design_checks_its_constraint(naive_post, naive_mix, w, b, ok):
    """A learned (w, b) meets the real-post target only when its largest
    real-post limit does (0.080, 0.206 and 0.040 against 0.0413)."""
    d = learned_design(w, b, naive_post, naive_mix(0.1), 0.05)
    assert (d.predicted_limits[REAL][-1] <= d.delta_target + 1e-7) is d.constraint_ok is ok


def test_design_without_target_fails_its_check(naive_post, naive_mix):
    d = MechanismDesign(kind=EO, w=1.0, b=0.1)
    assert d.to_dict()["constraint_ok"] is False      # no limit solved yet
    d = limit_proportions(d, naive_post, naive_mix(0.1))
    assert d.constraint_ok is False


def test_design_dicts_hold_python_scalars(naive_post, naive_mix):
    mix = naive_mix(0.1)
    designs = [design_for_kind(k, naive_post, mix, 0.05) for k in (EO, EA, EH, EH2)]
    designs.append(learned_design(8.0, 1.0, naive_post, mix, 0.05))
    for d in designs:
        blob = d.to_dict()
        assert {type(v) for v in _leaves(blob)} <= {float, bool, str}, d.kind
        json.dumps(blob)


class TestGbetaField:
    def test_positive_at_zero(self, naive_post):
        mix = UserMix(0.25, 0.15, 0.5, 0.1)
        d = MechanismDesign(kind=EO, w=1.0, b=0.3)
        for u in (FAKE, REAL):
            assert gbeta_wm(0.0, d, naive_post, mix, u) > 0

    def test_saturation_kinks_registered(self, naive_post):
        mix = UserMix(0.25, 0.15, 0.5, 0.1)
        d = MechanismDesign(kind=EH2, w=naive_post.w_h2, b=0.5)
        field = gbeta_field(d, naive_post, mix, FAKE)
        interior = [k for k in field.kinks if 0 < k < 1]
        assert interior, "expected min{} switch points inside (0,1)"
        for k in interior:
            om = warning_value(k, d, naive_post, mix)
            assert min(abs(om * naive_post.alpha_x_f - 1.0),
                       abs(om * naive_post.alpha_y_f - 1.0)) < 1e-9

    def test_unique_sign_change_for_eo(self):
        rng = make_rng(17)
        for _ in range(40):
            post, mix = random_post(rng), random_mix(rng)
            d = MechanismDesign(kind=EO, w=min(rng.uniform(0.2, 1.0) * post.w_bar,
                                               post.w_bar),
                                b=rng.uniform(0, 2))
            rep = classify_scalar(gbeta_field(d, post, mix, FAKE),
                                  grid_points=2000)
            assert len(rep.equilibria) == 1


class TestBenchmarkNumbers:
    def test_smart_qos_values(self, smart_post):
        for mua, expect in [(0.01, 0.89798), (0.02, 0.8174)]:
            d = optimize_eo(smart_post, smart_mix(mua), delta=0.02, iqos=False)
            assert d.qos == pytest.approx(expect, abs=2e-4)

    def test_smart_iqos_values(self, smart_post):
        for mua, expect in [(0.01, 0.958), (0.02, 0.9253)]:
            d = optimize_eo(smart_post, smart_mix(mua), delta=0.02, iqos=True)
            assert d.iqos == pytest.approx(expect, abs=5e-4)

    def test_w_star_value(self, smart_post):
        assert smart_post.w_bar == pytest.approx(1.0765, abs=1e-3)

    def test_naive_w_h2(self, naive_post):
        assert naive_post.w_h2 == pytest.approx(8.2333, abs=1e-3)

    def test_eh2_insensitive_to_adversaries(self, naive_post, naive_mix):
        expected = {0.0: 0.8289, 0.1: 0.8270, 0.2: 0.8257, 0.3: 0.8246}
        for mua, val in expected.items():
            mix = UserMix(mu0=max(0.35 - mua, 0.0), mu1=0.15, mu2=0.5, mua=mua)
            d = design_eh2(naive_post, mix, 0.05, iqos=True)
            assert d.iqos == pytest.approx(val, abs=1e-3)

    def test_eh_improves_on_ea_naive(self, naive_post, naive_mix):
        mix = naive_mix(0.1)
        ea, _ = design_ea(naive_post, mix, 0.05, iqos=True)
        eh = design_eh(naive_post, mix, 0.05, iqos=True)
        assert eh.iqos == pytest.approx(0.7629, abs=1e-3)
        assert eh.iqos >= ea.iqos - 1e-12
        assert ea.iqos > optimize_eo(naive_post, mix, 0.05, iqos=True).iqos

    def test_smart_ea_reaches_full_identification(self, smart_post):
        mix = UserMix(mu0=0.5 - 0.1, mu1=0.0, mu2=0.5, mua=0.1)
        ea, _ = design_ea(smart_post, mix, 0.02, iqos=True)
        assert ea.iqos >= 0.999

    def test_adversaries_degrade_eo(self, smart_post):
        base = optimize_eo(smart_post, UserMix(0.0, 0.0, 1.0, 0.0),
                           0.02, iqos=False)
        hit = optimize_eo(smart_post, UserMix(0.0, 0.0, 0.98, 0.02),
                          0.02, iqos=False)
        assert hit.qos < base.qos


class TestOptimizeEo:
    def test_constraint_saturates_in_case_one(self, naive_post, naive_mix):
        mix = naive_mix(0.1)
        d = optimize_eo(naive_post, mix, 0.05, iqos=True)
        assert d.b > 0
        assert d.predicted_limits[REAL][0] == pytest.approx(d.delta_target, abs=1e-6)

    def test_slack_constraint_keeps_b_zero(self, naive_post, naive_mix):
        d = optimize_eo(naive_post, naive_mix(0.1), delta=0.9, iqos=False)
        assert d.b == 0.0
        assert d.constraint_ok

    def test_unattainable_target_raises(self, naive_post, naive_mix):
        with pytest.raises(ValueError, match="constraint unattainable"):
            optimize_eo(naive_post, naive_mix(0.1), delta=1e-6, iqos=False)

    @pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, -0.1])
    def test_delta_outside_unit_interval_rejected(self, naive_post, naive_mix, delta):
        mix = naive_mix(0.1)
        designs = [lambda: optimize_eo(naive_post, mix, delta),
                   lambda: design_ea(naive_post, mix, delta),
                   lambda: design_eh(naive_post, mix, delta),
                   lambda: design_eh2(naive_post, mix, delta),
                   lambda: design_eh2(naive_post, mix, delta, iqos=False),
                   lambda: learned_design(3.0, 0.1, naive_post, mix, delta)]
        designs += [lambda k=k: design_for_kind(k, naive_post, mix, delta)
                    for k in (EO, EA, EH, EH2)]
        for design in designs:
            with pytest.raises(ValueError, match=rf"^delta must be in \(0, 1\), got {delta}$"):
                design()

    def test_roots_monotone_in_w_and_b(self):
        rng = make_rng(4)
        for _ in range(15):
            post, mix = random_post(rng), random_mix(rng)
            w = rng.uniform(0.3, 1.0) * post.w_bar
            b = rng.uniform(0.05, 1.5)
            dw, db = 1.05 * w, 1.3 * b
            for u in (FAKE, REAL):
                def root(w_, b_):
                    d = MechanismDesign(kind=EO, w=w_, b=b_)
                    rep = classify_scalar(gbeta_field(d, post, mix, u),
                                          grid_points=2000)
                    return rep.equilibria[0].beta
                assert root(dw, b) > root(w, b)
                assert root(w, db) < root(w, b)

    def test_roots_inside_bounds(self):
        rng = make_rng(5)
        for _ in range(15):
            post, mix = random_post(rng), random_mix(rng)
            d = MechanismDesign(kind=EO, w=0.8 * post.w_bar, b=0.2)
            limit_proportions(d, post, mix)
            for u in (FAKE, REAL):
                lo, hi = beta_bounds(post, mix, u)
                for r in d.predicted_limits[u]:
                    assert lo - 1e-9 < r <= hi + 1e-9

    def test_iqos_is_exact_rescale(self, naive_post, naive_mix):
        mix = naive_mix(0.15)
        d = optimize_eo(naive_post, mix, 0.05, iqos=True)
        assert d.iqos == pytest.approx(d.qos * iqos_scale(naive_post, mix))


class TestEaEh:
    def test_ea_equals_eo_without_adversaries(self, naive_post):
        mix = UserMix(0.35, 0.15, 0.5, 0.0)
        ea, thr = design_ea(naive_post, mix, 0.05, iqos=True)
        eo = optimize_eo(naive_post, mix, 0.05, iqos=True)
        assert ea.qos == pytest.approx(eo.qos, abs=1e-9)
        assert thr > 0

    def test_small_mua_recovers_no_adversary_root(self, naive_post):
        mix = UserMix(0.25, 0.15, 0.5, 0.1)
        ea, thr = design_ea(naive_post, mix, 0.05, iqos=True)
        assert 0.1 <= thr or ea.qos >= ea.extras["beta_o_na"] - 1e-9
        if 0.1 <= min(0.35, thr):
            for r in ea.predicted_limits[FAKE]:
                assert r >= ea.extras["beta_o_na"] - 1e-9
        assert ea.predicted_limits[REAL][-1] <= ea.delta_target + 1e-7

    def test_eh_zeta_exceeds_one_and_respects_target(self):
        rng = make_rng(6)
        count = 0
        for _ in range(30):
            post, mix = random_post(rng), random_mix(rng)
            if mix.mua == 0:
                continue
            delta = rng.uniform(0.03, 0.15)
            try:
                ea, _ = design_ea(post, mix, delta, iqos=True)
                eh = design_eh(post, mix, delta, iqos=True)
            except ValueError:
                continue   # unattainable target for this draw
            if not ea.constraint_ok:
                continue   # the scaled-warning guarantees presume a valid base
            count += 1
            assert eh.zeta > 1.0
            assert eh.predicted_limits[REAL][-1] <= eh.delta_target + 1e-7
            assert eh.qos >= eh.extras["ea_qos"] - 1e-9
        assert count >= 10

    def test_eh2_unique_real_root_at_target(self, naive_post, naive_mix):
        mix = naive_mix(0.2)
        d = design_eh2(naive_post, mix, 0.05, iqos=True)
        assert len(d.predicted_limits[REAL]) == 1
        assert d.predicted_limits[REAL][0] <= d.delta_target + 1e-7
        eo = optimize_eo(naive_post, mix, 0.05, iqos=True)
        assert d.qos >= eo.qos - 1e-9

    def test_design_for_kind_dispatch(self, naive_post, naive_mix):
        mix = naive_mix(0.1)
        for kind in (EO, EA, EH, EH2):
            d = design_for_kind(kind, naive_post, mix, 0.05)
            assert d.kind == kind
        with pytest.raises(ValueError):
            design_for_kind("nope", naive_post, mix, 0.05)


def test_naive_designs_pinned(naive_post, naive_mix):
    """eo and eh designs at the naive operating point, bit for bit."""
    bounds = {'F': [0.04073658555456692, 0.7112976646420881],
              'R': [0.015508328546812179, 0.6537111494032805]}
    eo = {'kind': 'eo', 'w': 3.2333333333333334, 'b': 0.36342092562340306, 'zeta': 1.0,
          'delta_target': 0.041269841269841276, 'iqos_mode': True,
          'predicted_limits': {'F': [0.441299625938592], 'R': [0.041269841269739246]},
          'bounds': bounds, 'qos': 0.441299625938592, 'iqos': 0.5131087366682445,
          'constraint_ok': True, 'extras': {}}
    eh = {'kind': 'eh', 'w': 3.2333333333333334, 'b': 0.4473219491174556,
          'zeta': 1.0481238626098235, 'delta_target': 0.041269841269841276,
          'iqos_mode': True,
          'predicted_limits': {'F': [0.6560966421876343], 'R': [0.041269841269739246]},
          'bounds': bounds, 'qos': 0.6560966421876343, 'iqos': 0.7628579301175749,
          'constraint_ok': True,
          'extras': {'zeta_bar': 1.0481238626098235, 'ea_qos': 0.5825177965544593,
                     'ea_iqos': 0.6773061954020785}}
    mix = naive_mix(0.1)
    assert optimize_eo(naive_post, mix, 0.05).to_dict() == eo
    assert design_eh(naive_post, mix, 0.05).to_dict() == eh


def test_learned_design_handles_large_w(naive_post, naive_mix):
    d = learned_design(8.0, 1.0, naive_post, naive_mix(0.1), 0.05)
    assert d.predicted_limits[FAKE]
    assert d.qos > 0


@pytest.mark.parametrize("vals", [
    (float("nan"), 0.5, 0.5, 0.0), (0.5, float("nan"), 0.5, 0.0), (0.5, 0.5, 0.0, float("inf")),
    (-0.1, 0.6, 0.5, 0.0), (0.5, 0.5, 0.5, 0.0),
], ids=["nan first", "nan later", "inf", "negative", "sum 1.5"])
def test_user_mix_rejects_bad_proportions(vals):
    with pytest.raises(ValueError, match="user proportions"):
        UserMix(*vals)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value, message", [
    ("m_f", -30.0, "m_f must be finite and > 0, got -30.0"),
    ("m_f", _NAN, "m_f must be finite and > 0, got nan"),
    ("eta_a", 1.5, "eta_a must be in (0, 1], got 1.5"),
    ("eta_f", 0.55, "eta_f must be in (0, eta_a = 0.55), got 0.55"),
    ("eta_r", 0.0, "eta_r must be in (0, eta_f = 0.52), got 0.0"),
    ("alpha_x_f", 1.5, "alpha_x_f must be in (0, 1], got 1.5"),
    ("alpha_y_f", 0.3, "alpha_y_f must be in (0, alpha_x_f = 0.3), got 0.3"),
    ("alpha_x_r", 0.31, "alpha_x_r must be in (0, alpha_x_f = 0.3), got 0.31"),
    ("alpha_y_r", 0.23, "alpha_y_r must be in (0, min(alpha_x_r, alpha_y_f) = 0.12), got 0.23"),
    ("rho", 1.0, "rho must be in (0, 1), got 1.0"),
    ("gamma", _NAN, "gamma must be finite and > 0, got nan"),
    ("gamma", _INF, "gamma must be finite and > 0, got inf"),
    ("share_bonus_k", -1.0, "share_bonus_k must be finite and >= 0, got -1.0"),
    ("share_bonus_k", _NAN, "share_bonus_k must be finite and >= 0, got nan"),
], ids=["m_f negative", "m_f nan", "eta_a above 1", "eta_f at eta_a", "eta_r zero",
        "alpha_x_f above 1", "alpha_y_f at alpha_x_f", "alpha_x_r above alpha_x_f",
        "alpha_y_r above alpha_y_f", "rho 1", "gamma nan", "gamma inf", "share_bonus_k negative",
        "share_bonus_k nan"])
def test_post_model_bound_names_field_and_value(naive_post, field, value, message):
    """A bad post parameter fails when the post is built, before any design
    turns it into a proportion above one or an internal error."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(naive_post, **{field: value})


def test_crowd_signal_required_for_designs(naive_post):
    mix = UserMix(mu0=0.9, mu1=0.1, mu2=0.0, mua=0.0)
    d = MechanismDesign(kind=EO, w=1.0, b=0.1)
    with pytest.raises(ValueError, match="crowd signal"):
        limit_proportions(d, naive_post, mix)


def test_delta_a_value(naive_post, naive_mix):
    mix = naive_mix(0.1)
    expected = 0.05 * (0.65 * 0.4) / (0.65 * 0.4 + 0.1 * 0.55)
    assert delta_a_value(0.05, naive_post, mix) == pytest.approx(expected)
