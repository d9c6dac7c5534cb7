import dataclasses
import re

import numpy as np
import pytest

from bpviral.bp_core import dichotomy_study, make_rng
from bpviral import game
from bpviral.game import (FAKE, REAL, AiDesign, GameParams,
                          GameVerificationError, beta_fixed_point,
                          design_ai_game, fp_residual, gamma_floor,
                          participant_fractions, payoffs, random_study,
                          simulate_tagging_game, tagging_rhs, verify_equilibria)
from oracles import (design_ai_game_scalar, example_params, picard_chain,
                     random_study_scalar, response, verify_equilibria_scalar,
                     warning_mfg)


GAME = example_params("game")


def base_params(**kw):
    return GameParams(**{**GAME, **kw})


def random_params(rng, d=0.10):
    alpha_r = rng.uniform(0.25, 0.30)
    return GameParams(alpha_r=alpha_r, alpha_f=alpha_r / (1 - d),
                      mua=rng.uniform(0, 0.2), p=rng.uniform(0.01, 0.49),
                      theta=0.75, delta=alpha_r + 0.01,
                      resp_a=rng.uniform(2, 3))


class TestResponse:
    def test_zero_warning(self):
        assert response(0.3, 0.0, base_params()) == 0.0

    def test_clamped_at_one(self):
        p = base_params(resp_a=1.0, resp_c=1.0)
        assert response(0.5, 3.0, p, b=1.0) == 1.0

    def test_composition_linear_in_beta(self):
        p = base_params(resp_a=2.5, resp_c=1.3)
        w = 1.7
        for u, alpha in ((FAKE, p.alpha_f), (REAL, p.alpha_r)):
            for beta in (0.05, 0.2, 0.4):
                got = response(alpha, warning_mfg(beta, w, p, b=2.0), p, b=2.0)
                expect = min(p.resp_c * w * p.alpha_r
                             * (alpha / p.alpha_r) ** p.resp_a * beta, 1.0)
                assert got == pytest.approx(expect, rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            response(0.0, 1.0, base_params())


class TestFixedPoints:
    def test_only_type1_participants(self):
        p = base_params()
        mu = (0.0, 1.0 - p.mua, 0.0)
        for u, alpha in ((FAKE, p.alpha_f), (REAL, p.alpha_r)):
            assert beta_fixed_point(mu, 1.5, p, u) == pytest.approx(alpha * (1 - p.mua))

    def test_identification_level_at_eta_star(self):
        p = base_params()
        design = design_ai_game(p)
        mu = design.mu_x(design.eta_star)
        b_f = beta_fixed_point(mu, design.w, p, FAKE)
        assert b_f == pytest.approx(design.theta_tilde * (1 - p.mua), abs=1e-9)

    def test_residual_and_ode_oracle(self):
        rng = make_rng(42)
        for _ in range(40):
            p = random_params(rng)
            design = design_ai_game(p)
            if not design.feasible:
                continue
            x = rng.uniform(0.02, 1 - p.mua - 0.02)
            mu = design.mu_x(x)
            for u in (FAKE, REAL):
                beta = beta_fixed_point(mu, design.w, p, u)
                assert abs(fp_residual(beta, mu, design.w, p, u)) <= 1e-10
        # ODE integration agrees with the closed form; the horizon scales
        # with the linear rate of the branch holding the fixed point
        for seed in range(5):
            p = random_params(make_rng(seed))
            design = design_ai_game(p)
            if not design.feasible:
                continue
            mu = design.mu_eta()
            eta, eta_a = participant_fractions(mu, p.mua)
            for u in (FAKE, REAL):
                beta = beta_fixed_point(mu, design.w, p, u)
                mult = p.resp_c * design.w * p.alpha_r * p.ratio_pow(u)
                rho = 1.0 - (1.0 - eta - eta_a) * mult
                rate = max(min(rho, 1.0), 0.05) if rho > 0 else 1.0
                T = min(30.0 / rate, 400.0)
                traj = picard_chain(tagging_rhs(design.w, p, u, mu),
                                    np.array([0.35]), T=T)
                tol = max(1e-4, 1.2 * abs(0.35 - beta) * np.exp(-rate * T))
                assert traj.values[-1, 0] == pytest.approx(beta, abs=tol)

    def test_fake_dominates_real(self):
        rng = make_rng(9)
        for _ in range(30):
            p = random_params(rng)
            w = rng.uniform(0.5, 6.0)
            x = rng.uniform(0.02, 1 - p.mua - 0.02)
            mu = (0.0, x, 1 - x - p.mua)
            b_f = beta_fixed_point(mu, w, p, FAKE)
            b_r = beta_fixed_point(mu, w, p, REAL)
            assert b_f >= b_r - 1e-12

    def test_monotone_in_type1_share(self):
        p = base_params()
        design = design_ai_game(p)
        xs = np.linspace(0.02, 1 - p.mua - 0.02, 40)
        for u in (FAKE, REAL):
            vals = [beta_fixed_point(design.mu_x(x), design.w, p, u) for x in xs]
            assert all(b >= a - 1e-12 for a, b in zip(vals[1:], vals))


class TestDesign:
    def test_gamma_floor_value(self):
        assert gamma_floor(0.2, base_params()) == pytest.approx(0.79 / 0.49)

    def test_reward_formula(self):
        p = base_params(c_e=1.0)
        d = design_ai_game(p, gamma_margin=1.0)
        expect = p.c_e * (1 - d.eta - p.mua + 1 / (d.gamma - 1))
        assert d.reward == pytest.approx(expect)

    def test_theta_tilde_dominates_theta(self):
        rng = make_rng(5)
        for d_level in (0.05, 0.1, 0.3):
            for _ in range(30):
                p = random_params(rng, d=d_level)
                design = design_ai_game(p)
                if design.feasible:
                    assert design.theta_tilde >= p.theta - 1e-12

    def test_designed_mix_passes_verification(self):
        rng = make_rng(6)
        ok = 0
        for _ in range(60):
            p = random_params(rng)
            design = design_ai_game(p)
            assert design.feasible, "d=0.10 draws must be feasible"
            report = verify_equilibria(design)
            assert report["beta_F_eta"] >= report["theta_a_tilde"] - 1e-9
            assert report["beta_R_eta"] <= report["delta_a"] + 1e-9
            u0, u1, u2 = report["utilities_at_eta"]
            assert u1 == pytest.approx(u2, abs=1e-9)
            assert u1 > u0
            ok += 1
        assert ok == 60

    def test_second_ne_semantics(self):
        p = base_params()
        design = design_ai_game(p)
        report = verify_equilibria(design)
        if report["second_ne"] is not None:
            sn = report["second_ne"]
            assert sn["success_prob"] == pytest.approx(1 - p.p)
            assert sn["beta_R"] <= report["delta_a"] + 1e-9
            assert report["degradation_pct"] is not None

    def test_infeasible_reason_propagates(self):
        # theta below alpha_F is rejected by the parameter object itself
        with pytest.raises(ValueError):
            base_params(theta=0.2)

    def test_verify_rejects_infeasible_design(self):
        p = base_params()
        bad = AiDesign(theta_tilde=float("nan"), w=1.0, eta=0.2, gamma=2.0,
                       reward=1.0, x_eta=0.5, eta_star=0.3, eta_bar=0.1,
                       feasible=False, reason="test", params=p)
        with pytest.raises(GameVerificationError, match="infeasible"):
            verify_equilibria(bad)


def _limits(mu, d):
    """(beta_F, beta_R) at the mix ``mu`` under the design ``d``."""
    return tuple(beta_fixed_point(mu, d.w, d.params, u) for u in (FAKE, REAL))


class TestUtilities:
    def test_no_success_no_reward(self):
        p = base_params()
        d = design_ai_game(p)
        mu = (1 - p.mua, 0.0, 0.0)     # nobody participates: P = 0 by convention
        ps, u1, u2 = payoffs(mu, d, *_limits(mu, d))
        assert ps == 0.0
        assert (u1, u2) == (p.q_p, p.q_p - p.c_e)
        assert verify_equilibria(d)["utilities_at_eta"][0] == p.q_np     # idling

    def test_reward_share_structure(self):
        p = base_params()
        d = design_ai_game(p)
        mu = d.mu_eta()
        ps, u1, u2 = payoffs(mu, d, *_limits(mu, d))
        share = d.reward * ps / (mu[1] + p.mua + d.gamma * mu[2])
        assert u1 == pytest.approx(p.q_p + share)
        assert u2 == pytest.approx(p.q_p - p.c_e + d.gamma * share)

    def test_indifference_at_design(self):
        rng = make_rng(7)
        for _ in range(20):
            p = random_params(rng)
            d = design_ai_game(p)
            if not d.feasible:
                continue
            mu = d.mu_eta()
            _, u1, u2 = payoffs(mu, d, *_limits(mu, d))
            assert u1 == pytest.approx(u2, abs=1e-10)


class TestSimulation:
    def test_all_adversaries_never_tag_fake(self):
        p = base_params()
        d = design_ai_game(p)
        _, betas = simulate_tagging_game((0.0, 0.0, 1e-12), d, FAKE,
                                         k_max=2000, seed=1)
        assert np.all(betas == 0.0)

    def test_type1_lln(self):
        p = base_params(mua=0.0)
        d = design_ai_game(p)
        mu = (0.0, 1.0, 0.0)
        _, betas = simulate_tagging_game(mu, d, FAKE, k_max=40_000, seed=2)
        assert betas[-1] == pytest.approx(p.alpha_f, abs=0.01)

    def test_designed_instance_converges(self):
        p = base_params()
        d = design_ai_game(p)
        mu = d.mu_eta()
        k_max = 50_000
        finals_r, finals_f = [], []
        for s in range(10):
            finals_r.append(simulate_tagging_game(mu, d, REAL, k_max, seed=s)[1][-1])
            finals_f.append(simulate_tagging_game(mu, d, FAKE, k_max, seed=s)[1][-1])
        eta, eta_a = participant_fractions(mu, p.mua)
        # the real post mixes at a healthy linear rate: tight check
        b_r = beta_fixed_point(mu, d.w, p, REAL)
        assert abs(np.mean(finals_r) - b_r) < 0.01
        # the fake-post fixed point can sit at the response saturation kink,
        # where the SA contracts like k^(-rho): check the theoretical envelope
        b_f = beta_fixed_point(mu, d.w, p, FAKE)
        mult = p.resp_c * d.w * p.alpha_r * p.ratio_pow(FAKE)
        rho = max(1.0 - (1.0 - eta - eta_a) * mult, 0.02)
        envelope = max(0.01, 1.5 * b_f * k_max ** (-min(rho, 1.0)))
        assert abs(np.mean(finals_f) - b_f) < envelope


def test_random_study_smoke():
    res = random_study(500, d=0.10, seed=3, verify=True)
    assert res["feasible_fraction"] == 1.0
    assert res["ai_fraction"] == 1.0
    assert 0.0 <= res["small_degradation_fraction"] <= 1.0
    res2 = random_study(200, d=0.10, seed=3)
    assert len(res2["rows"]) == 200


def test_study_tallies_pinned(sha256):
    # every fraction and tally of the game and dichotomy studies, and the
    # game's tagging stream, as bytes
    parts = []
    for n, d, seed, verify in ((400, 0.08, 97, False), (400, 0.28, 97, False),
                               (300, 0.10, 31, True)):
        res = random_study(n, d, seed, verify=verify)
        parts += [np.array([res[k] for k in ("feasible_fraction", "ai_fraction",
                                             "second_ne_fraction",
                                             "small_degradation_fraction")]),
                  res["degradations"], repr(res["rows"]).encode()]
    for args in ((1.5, 1, 300, 400, 5), (0.9, 2, 50, 100, 2)):
        st = dichotomy_study(*args)
        parts += [np.array([st.extinct_fraction]), st.survivor_rates,
                  bytes([st.all_grew_or_died])]
    d = design_ai_game(base_params())
    for mu in (d.mu_eta(), d.mu_x(0.3)):
        for u in (FAKE, REAL):
            parts += simulate_tagging_game(mu, d, u, 20_000, seed=8, record_every=250)
    assert sha256(*parts) == "51abbab9cfb20b4fce6003beaf4f5d47a56a9e93727b5de8309eb71cdf3ad098"


def test_random_study_d_bound():
    # alpha_F = alpha_R/(1-d) < theta for every alpha_R < 0.30
    assert random_study(50, d=0.6, seed=1)["feasible_fraction"] > 0
    assert random_study(50, d=0.65, seed=1, theta=0.9)["samples"] == 50
    for d, theta in ((0.61, 0.75), (0.67, 0.9), (0.01, 0.3)):
        with pytest.raises(ValueError, match=rf"^d must be <= .* at theta={theta}, got {d}"):
            random_study(5, d=d, seed=1, theta=theta)
    # theta is checked first, so an invalid theta is named, not d
    with pytest.raises(ValueError, match=r"^theta must be in \(0, 1\], got 1.2$"):
        random_study(5, d=0.8, seed=1, theta=1.2)


@pytest.mark.parametrize("theta", [1.2, 1.0 + 2**-52, np.inf, np.nan])
def test_theta_above_one_rejected(theta):
    # no design reaches a target proportion above one; theta = 1 stays a
    # valid, infeasible input (below)
    with pytest.raises(ValueError, match=f"^theta must be <= 1, got {theta}$"):
        base_params(theta=theta)


def test_no_participation_at_theta_one_is_infeasible():
    # theta_tilde = 1 leaves eta_star = 0: the design has no participation
    # interval, so it fails instead of passing a design verify_equilibria rejects
    res = random_study(150, 0.1, 11, theta=1.0, verify=True)
    assert res["feasible_fraction"] == 0.0
    design = design_ai_game(base_params(theta=1.0))
    assert not design.feasible and design.reason == "eta_star <= 0 at theta_tilde=1"
    near = random_study(150, 0.1, 11, theta=0.99, verify=True)
    assert near["feasible_fraction"] == 1.0 and near["ai_fraction"] == 1.0


def _study_bytes(res):
    return ([res[k].hex() for k in ("feasible_fraction", "ai_fraction", "second_ne_fraction",
                                    "small_degradation_fraction")],
            res["degradations"].tobytes(), repr(res["rows"]),
            {tuple(type(c) for c in row) for row in res["rows"]})


@pytest.mark.parametrize("verify", [False, True])
def test_random_study_matches_scalar(verify):
    # the array pass against the per-sample loop, as bytes: every fraction,
    # the degradations and each row with its Python int/float cells
    for d in (0.02, 0.08, 0.28, 0.6):
        for theta in (0.75, 0.99, 1.0):
            for margin in (1000.0, 1.0, 0.0):
                for n, seed in ((200, 40), (1, 41)):
                    args = (n, d, seed, theta, margin, verify)
                    got = _study_bytes(random_study(*args))
                    assert got == _study_bytes(random_study_scalar(*args)), args
                    assert got[-1] == {(int, int, int, float)}


def _hex(value):
    return value.hex() if isinstance(value, float) else value


# both theta_tilde branches, and one configuration for each infeasible reason;
# the last four sit where the interval bounds meet in rounding
_DESIGN_CASES = [
    dict(alpha_r=0.27, alpha_f=0.30, mua=0.1, theta=0.75, delta=0.28, resp_a=2.5),
    dict(alpha_r=0.461, alpha_f=0.972, mua=0.28, theta=0.976, delta=0.95, resp_a=2.15),
    dict(alpha_r=0.06, alpha_f=0.109, mua=0.89, theta=0.297, delta=0.092, resp_a=0.06),
    dict(alpha_r=0.27, alpha_f=0.30, mua=0.1, theta=1.0, delta=0.28, resp_a=2.5),
    dict(alpha_r=0.891, alpha_f=0.987, mua=0.6, theta=1.0, delta=0.995, resp_a=1.56),
    dict(alpha_r=0.9999999999427137, alpha_f=0.9999999999427552, mua=0.9999999992319641,
         theta=0.9999999999434801, delta=0.9999999999431407, resp_a=0.0010169822800796125),
    dict(alpha_r=0.1417300800537944, alpha_f=0.14173206054042364, mua=0.3099609034908739,
         theta=0.14173206099490995, delta=0.14173008005457025, resp_a=0.3178572483050533),
    dict(alpha_r=0.18092977276805738, alpha_f=0.5902349756573377, mua=0.0,
         theta=0.9999999999999422, delta=0.18092977301265725, resp_a=0.017872958167122876),
    dict(alpha_r=0.5776701012768817, alpha_f=0.8237669346443749, mua=0.9965925376830514,
         theta=0.9999999999998976, delta=0.5776701028696084, resp_a=7.620538629613042),
]


def test_design_matches_scalar():
    seen = set()
    for case in _DESIGN_CASES:
        for extra in ({}, {"p": 0.05, "c_e": 2.0, "resp_c": 1.7, "q_p": 1.5, "q_np": 1.5}):
            params = GameParams(**{"p": 0.3, **case, **extra})
            for margin in (0.0, 1.0, 1000.0):
                got = {k: _hex(v) for k, v in design_ai_game(params, margin).to_dict().items()}
                ref = design_ai_game_scalar(params, margin)
                assert got == {k: _hex(v) for k, v in ref.to_dict().items()}, (case, margin)
                branch = "kept" if ref.theta_tilde == params.theta else "raised"
                seen.add(branch if ref.feasible else ref.reason.split(" at ")[0])
    assert seen == {"kept", "raised", "K_delta negative", "eta_star <= 0",
                    "empty warning-scale interval", "participation interval empty"}


def _indifferent(design, **changes):
    """The design with ``changes`` and the reward that keeps types 1 and 2
    indifferent at the designed mix."""
    d = dataclasses.replace(design, **changes)
    mu = d.mu_eta()
    share = d.params.c_e / (d.gamma - 1.0)
    return dataclasses.replace(d, reward=share * (mu[1] + d.params.mua + d.gamma * mu[2])
                               / payoffs(mu, d, *_limits(mu, d))[0])


def test_verify_matches_scalar():
    base = design_ai_game(base_params())
    designs = {
        "pass": base,
        "design infeasible": design_ai_game(base_params(theta=1.0)),
        "beta_F^eta >= theta_tilde(1-mua) violated": dataclasses.replace(
            base, eta=0.322376652236676, gamma=1.3980911546890495),
        "beta_R^eta <= delta_a violated": dataclasses.replace(
            base, eta=0.11699572938348739, gamma=4.600931387838313),
        "type-1/type-2 indifference violated": dataclasses.replace(base, reward=2.0),
        "participation must beat idling": _indifferent(base, gamma=0.5),
        "second-NE real-post bound violated": dataclasses.replace(base, x_eta=0.227),
        "second-NE fake-post floor violated": _indifferent(base, w=1.0, theta_tilde=0.0,
                                                           eta_star=0.0),
        "second NE indifference violated": dataclasses.replace(base, x_eta=0.458),
    }
    for margin in (1.0, 1000.0):
        designs[f"pass at margin {margin}"] = design_ai_game(base_params(p=0.05), margin)
    # and a grid around the design, kept indifferent at its mix: second mixes
    # x_eta, warning scales and eta_star (floor check on or off)
    grid = {(x, w, e): _indifferent(base, x_eta=x, w=w, eta_star=e, theta_tilde=0.0)
            for x in np.linspace(0.0, 0.9, 31).tolist() for w in (1.0, 3.5, base.w)
            for e in (0.0, base.eta_star)}
    outcomes = {}
    for name, design in [*designs.items(), *grid.items()]:
        pair = []
        for verify in (verify_equilibria, verify_equilibria_scalar):
            try:
                pair.append(repr(verify(design)))
            except GameVerificationError as exc:
                pair.append(f"error: {exc}")
        assert pair[0] == pair[1], name
        outcomes[name] = pair[0]
    for name in designs:
        assert outcomes[name].startswith(f"error: {name}:" if "pass" not in name else "{"), name
    # a second equilibrium, with its degradation, is reported as well
    assert verify_equilibria(base)["second_ne"] is not None


def test_each_limit_solved_once(monkeypatch):
    # a verification needs beta_F and beta_R at two mixes, the designed one
    # and the second equilibrium's; the study without verification needs
    # both at the designed mix and beta_F at the second
    calls = []
    solve = game.beta_fixed_point
    monkeypatch.setattr(game, "beta_fixed_point",
                        lambda *args: calls.append(args[3]) or solve(*args))
    design = design_ai_game(base_params())
    assert calls == []
    assert verify_equilibria(design)["second_ne"] is not None
    counts = [len(calls)]
    for verify in (True, False):
        calls.clear()
        random_study(50, 0.10, 3, verify=verify)
        counts.append(len(calls))
    assert counts == [4, 4, 3]


@pytest.mark.parametrize("margin", [-5.0, -1e-300, np.nan, np.inf])
def test_gamma_margin_must_be_finite_and_nonnegative(margin):
    # gamma is the floor plus the margin, so a negative margin puts it below
    # the floor, and NaN gives a "feasible" design with a NaN reward
    with pytest.raises(ValueError, match=f"^gamma_margin must be finite and >= 0, got {margin}$"):
        design_ai_game(base_params(), gamma_margin=margin)
    with pytest.raises(ValueError, match="gamma_margin"):
        random_study(5, 0.1, seed=1, gamma_margin=margin)


def test_zero_gamma_margin_is_the_floor():
    p = base_params()
    d = design_ai_game(p, gamma_margin=0.0)
    assert d.feasible and d.gamma == gamma_floor(d.eta, p) > 1.0
    assert random_study(50, 0.1, seed=1, gamma_margin=0, verify=True)["ai_fraction"] == 1.0


@pytest.mark.parametrize("field, value", [
    ("q_p", np.nan), ("q_np", np.nan), ("c_e", np.nan), ("c_e", np.inf), ("resp_a", np.nan),
    ("resp_a", np.inf), ("resp_c", np.nan), ("q_p", np.inf)])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        base_params(**{field: value})


# one breach of each range rule of GameParams, and its message
_RULES = [
    ({"alpha_r": 0.0}, "alpha_r must be > 0, got 0.0"),
    ({"alpha_r": np.nan}, "alpha_r must be > 0, got nan"),
    ({"alpha_f": 0.27}, "alpha_f must be in (alpha_r, 1), got 0.27"),
    ({"alpha_f": 1.0}, "alpha_f must be in (alpha_r, 1), got 1.0"),
    ({"mua": -0.1}, "mua must be in [0, 1), got -0.1"),
    ({"mua": 1.5}, "mua must be in [0, 1), got 1.5"),
    ({"p": 0.0}, "p must be in (0, 1), got 0.0"),
    ({"p": 1.0}, "p must be in (0, 1), got 1.0"),
    ({"q_np": 2.0}, "q_p must be >= q_np, got 1.0"),
    ({"c_e": 0.0}, "c_e must be > 0, got 0.0"),
    ({"resp_a": -1.0}, "resp_a must be > 0, got -1.0"),
    ({"resp_c": 0.0}, "resp_c must be > 0, got 0.0"),
    ({"theta": 0.2}, "theta must be > alpha_f, got 0.2"),
    ({"delta": 0.27}, "delta must be in (alpha_r, theta), got 0.27"),
    ({"delta": 0.75}, "delta must be in (alpha_r, theta), got 0.75")]


@pytest.mark.parametrize("change, message", _RULES,
                         ids=[f"{k}={v}" for change, _ in _RULES for k, v in change.items()])
def test_params_rule_names_field_and_value(change, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        base_params(**change)


def test_params_rules_fail_in_order():
    # the finiteness rules come first, then the ranges in field order
    with pytest.raises(ValueError, match=r"^c_e must be finite, got nan$"):
        base_params(alpha_r=0.0, c_e=np.nan)
    with pytest.raises(ValueError, match=r"^mua must be in \[0, 1\), got 1.5$"):
        base_params(mua=1.5, theta=0.2, delta=0.0)


def test_array_params_name_the_field():
    # one lane per configuration: a rule holds only when every lane holds
    with pytest.raises(ValueError, match=r"^mua must be in \[0, 1\), got \[0.1 1.5\]$"):
        GameParams(**{**GAME, "mua": np.array([0.1, 1.5])})
    assert GameParams(**{**GAME, "mua": np.array([0.1, 0.2])}).mua.shape == (2,)


def test_simulate_rejects_infeasible_design(monkeypatch):
    # the theta = 1 design has no participation interval (its path would
    # read beta = 0 at every record), so the simulator refuses it before
    # it makes its generator
    design = design_ai_game(base_params(theta=1.0))
    monkeypatch.setattr(game, "make_rng", None)
    with pytest.raises(ValueError, match=r"^design infeasible: eta_star <= 0 at theta_tilde=1$"):
        simulate_tagging_game(design.mu_eta(), design, FAKE, 100, seed=1)
