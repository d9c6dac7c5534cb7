"""The three workloads: fixed task lists that one client runs in rounds.

A task is one call into a public study, design or CLI function of bpviral.
Each round runs its workload's task list once, one task after another
(closed loop, one client), with inputs drawn from the workload seed and the
round number.  Only the call is timed, with a fixed calibration loop
timed around it (``reference_seconds``); checking its output is not.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

import checks
import inputs

SNAP_FIT = dict(m_bar=21.321042, kappa1=532e-6, kappa2=83e-6, a_break=35000.0)
SMART_POST = dict(m_f=28, eta_f=0.08, eta_r=0.05, eta_a=0.55, gamma=0.1, rho=0.9,
                  alpha_x_f=0.85, alpha_y_f=0.6375, alpha_x_r=0.3, alpha_y_r=0.09)
NAIVE_POST = inputs.README_WM["post"]


@dataclass(frozen=True)
class Sizes:
    """Problem sizes.  ``full`` marks the acceptance-criterion shapes, at
    which the size-dependent references (criterion 6 gaps, Picard error,
    attack and learning thresholds) hold; smoke sizes skip those."""
    full: bool = True
    attack_events: int = 100_000
    attack_reps: int = 2
    learn_budget: int = 100_000
    tag_events: int = 100_000
    stpbp_events: int = 300_000
    dichotomy_reps: int = 400
    dichotomy_cap: int = 2_000
    graph_nodes: int = 10_000
    tef_runs: int = 1
    sa_events: int = 11_000
    gap_horizon: float = 3.0
    picard_mesh: int = 3_000
    picard_sweeps: int = 60
    exp_mesh: int = 3_000
    oracle_fields: int = 2
    game_samples: int = 1_000
    cli_graph_nodes: int = 5_000
    cli_bp_events: int = 10_000
    cli_attack_events: int = 10_000
    cli_fit_runs: int = 1
    cli_study_samples: int = 10_000
    cli_k_max: int = 100_000
    cli_market_events: int = 200_000


FULL = Sizes()
SMOKE = replace(FULL, full=False, attack_events=2_000, attack_reps=1,
                learn_budget=2_000, tag_events=2_000, stpbp_events=2_000,
                dichotomy_reps=20, dichotomy_cap=200, graph_nodes=300, tef_runs=1,
                sa_events=1_200, gap_horizon=0.5, picard_mesh=60, picard_sweeps=4, exp_mesh=60,
                oracle_fields=1, game_samples=20, cli_graph_nodes=300, cli_bp_events=300,
                cli_attack_events=300, cli_fit_runs=1, cli_study_samples=50,
                cli_k_max=500, cli_market_events=2_000)

MODULE_NAMES = ["bp_core", "bp_attack", "ode_engine", "wm", "wm_dynamics",
                "market", "market_graph", "game", "cli"]


def load_bpviral() -> dict:
    return {m: importlib.import_module(f"bpviral.{m}") for m in MODULE_NAMES}


_REFERENCE_ARRAY = np.arange(8.0)


def reference_seconds() -> float:
    """Time one pass of a fixed calibration loop (about 2 ms on a quiet
    2-vCPU Xeon).  It mixes interpreted arithmetic, small numpy operations
    and dict stores, as bpviral's kernels do, so a slow moment of a shared
    host slows it about as much as the task timed next to it."""
    t0 = perf_counter()
    x, s, d = _REFERENCE_ARRAY, 0.0, {}
    for i in range(1500):
        x = x * 0.5 + 1.0
        s += float(x[i % 8]) * 1.0001
        d[i & 63] = s
    return perf_counter() - t0


class Task(NamedTuple):
    round: int
    kind: str
    seconds: float
    error: str | None
    before: float      # seconds of the calibration loop just before the call
    after: float       # ... and just after it

    @property
    def pace(self) -> float:
        return (self.before + self.after) / 2


class Context:
    """State of one benchmark run: inputs, task records and tallies."""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        self.m = load_bpviral()
        self.round = 0
        self.tracer = None
        self.tasks: list[Task] = []
        self.events: dict[int, int] = {}      # round -> computed events
        self.tally = {"attack": [0, 0], "learn": [0, 0]}
        self.cli = {"bytes": 0, "replays": 0, "identical": 0}
        self.memo: dict = {}

    def seed_of(self, *slot) -> int:
        return inputs.task_seed(self.seed, self.round, *slot)

    def rng_of(self, *slot) -> np.random.Generator:
        return inputs.rng_for(self.seed, self.round, *slot)

    def add_events(self, n):
        self.events[self.round] = self.events.get(self.round, 0) + int(n)

    def fail(self, error):
        """Charge a failed check to the last task."""
        self.tasks[-1] = self.tasks[-1]._replace(error=self.tasks[-1].error or error)

    def task(self, kind, call, check=None, events=None):
        """Run one timed call, with the calibration loop timed just before
        and just after it; check and count its output afterwards."""
        before = reference_seconds()
        if self.tracer is not None:
            self.tracer.task = len(self.tasks)
        t0 = perf_counter()
        try:
            out, error = call(), None
        except Exception as exc:       # a raising task is a failed task
            out, error = None, f"{kind} raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        if self.tracer is not None:
            self.tracer.task = None
        after = reference_seconds()
        if error is None:
            try:
                if check is not None:
                    error = check(out)
                if events is not None:
                    self.add_events(events(out))
            except Exception as exc:
                error = f"checking {kind} raised {type(exc).__name__}: {exc}"
        self.tasks.append(Task(self.round, kind, seconds, error, before, after))
        return out


# ---------------------------------------------------------------------------

class McReplicate:
    """Replicated Monte-Carlo studies at acceptance-criterion shapes."""
    name = "mc_replicate"

    def prepare(self, ctx):
        us, vs = inputs.edge_list(ctx.seed, ctx.sizes.graph_nodes)
        path = ctx.workdir / "graph.txt"
        inputs.write_edge_list(path, us, vs)
        ctx.graph = ctx.m["market_graph"].parse_graph(path)
        ctx.viral_reach = ctx.graph.n_nodes // 8

    def setup(self, ctx):
        m, z = ctx.m, ctx.sizes
        wm, wmd, bpa, bpc, mk = (m["wm"], m["wm_dynamics"], m["bp_attack"],
                                 m["bp_core"], m["market"])
        ctx.post = wm.PostModel(**NAIVE_POST)
        ctx.mix = wm.UserMix(**inputs.README_WM["mix"])
        ctx.perfect = wm.design_eh2(ctx.post, ctx.mix, 0.05, iqos=True)
        ctx.learn_cfg = wmd.LearnConfig(
            budget=z.learn_budget,
            kappa=1 - ctx.post.alpha_y_r / ctx.post.alpha_x_r + 1e-3)
        ctx.limits = bpa.AttackLimits(3, 1, 3, 1)
        ctx.attack_init = bpc.PopulationState(5, 5, 5, 5)
        ctx.tef = {rho: mk.TefParams(rho=rho, **SNAP_FIT) for rho in (0.4, 0.6)}
        # first calls
        bpa.terminal_beta_study(ctx.limits, 1, 200, 1, init=ctx.attack_init)
        r = wmd.learn_wm(replace(ctx.learn_cfg, budget=200), ctx.post, ctx.mix, 0.05, 1)
        wm.learned_design(r.w, r.b, ctx.post, ctx.mix, 0.05, iqos=True)
        wmd.simulate_tagging("eh2", ctx.perfect, ctx.post, ctx.mix, "F", 10, 10, 200, 1)
        mk.simulate_stpbp(ctx.tef[0.6], 2, 200, 1)
        bpc.dichotomy_study(1.5, 1, 2, 20, 1)

    def round(self, ctx):
        m, z = ctx.m, ctx.sizes
        wm, wmd, bpa, bpc, mk, mg = (m["wm"], m["wm_dynamics"], m["bp_attack"],
                                     m["bp_core"], m["market"], m["market_graph"])
        for slot in range(4):
            ctx.task("attack_study", lambda s=ctx.seed_of(1, slot): bpa.terminal_beta_study(
                ctx.limits, z.attack_reps, z.attack_events, s, init=ctx.attack_init),
                check=lambda res: self._attack(ctx, res),
                events=lambda res: (res["replications"] - res["extinct"]) * z.attack_events)
        for slot in range(4):
            res = ctx.task("learn_wm", lambda s=ctx.seed_of(2, slot): wmd.learn_wm(
                ctx.learn_cfg, ctx.post, ctx.mix, 0.05, s),
                events=lambda r: int(r.trace[-1, 0]) if r.extinct else z.learn_budget)
            if res is None:
                continue
            ctx.task("learned_design", lambda: wm.learned_design(
                res.w, res.b, ctx.post, ctx.mix, 0.05, iqos=True),
                check=lambda d: self._learn(ctx, d))
        for slot, u in enumerate("FR"):
            ctx.task("tagging", lambda s=ctx.seed_of(3, slot), u=u: wmd.simulate_tagging(
                "eh2", ctx.perfect, ctx.post, ctx.mix, u, 10, 10, z.tag_events, s),
                check=_tagging_invariants, events=lambda p: p.epoch[-1])
        for slot, rho in enumerate((0.4, 0.6)):
            ctx.task("stpbp", lambda s=ctx.seed_of(4, slot), rho=rho: mk.simulate_stpbp(
                ctx.tef[rho], 2, z.stpbp_events, s),
                check=checks.stpbp_identity, events=lambda p: p.epoch[-1])
        ctx.task("dichotomy", lambda: bpc.dichotomy_study(
            1.5, 1, z.dichotomy_reps, z.dichotomy_cap, ctx.seed_of(5)),
            check=_dichotomy)
        ctx.task("estimate_tef", lambda: mg.estimate_tef(
            ctx.graph, 0.6, max(ctx.graph.n_nodes // 40, 1), z.tef_runs, ctx.seed_of(6)),
            check=_tef_table, events=lambda f: f.weights.sum())

    def _attack(self, ctx, res):
        hits, total = checks.attack_hits(res)
        ctx.tally["attack"][0] += hits
        ctx.tally["attack"][1] += total
        if total == 0:
            return "no surviving attack path"
        return None

    def _learn(self, ctx, learned):
        ctx.tally["learn"][0] += checks.learn_hit(learned, ctx.perfect)
        ctx.tally["learn"][1] += 1
        return None

    def verdicts(self, ctx):
        if not ctx.sizes.full:
            return []
        a, l = ctx.tally["attack"], ctx.tally["learn"]
        return [v for v in (
            checks.verdict("attack near limit set or hovering", a[0], a[1],
                           checks.ATTACK_THRESHOLD),
            checks.verdict("learned i-QoS within 0.05 of eh2", l[0], l[1],
                           checks.LEARN_THRESHOLD)) if v]


def _tagging_invariants(path):
    if not (np.all((path.beta >= 0) & (path.beta <= 1))
            and np.all(path.cx <= path.ax) and np.all(path.cy <= path.ay)):
        return "tagging path leaves its invariant set"
    return None


def _dichotomy(stats):
    # Criterion 9f also compares the mean fitted growth rate with its
    # threshold; at this cap the trailing-half fit is biased low by about
    # one standard error, so that comparison would fail on chance alone.
    if not stats.all_grew_or_died:
        return "a surviving path stopped growing"
    return None


def _tef_table(fit):
    if not (np.all(np.isfinite(fit.m_hat)) and np.all(fit.m_hat >= 0)
            and np.all(np.diff(fit.a_centers) > 0)):
        return "TeF table has negative, non-finite or unsorted bins"
    return None


# ---------------------------------------------------------------------------

class MeanFieldDesign:
    """Deterministic solvers at the criterion operating points."""
    name = "mean_field_design"

    def prepare(self, ctx):
        pass

    def setup(self, ctx):
        m = ctx.m
        wm, bpc, ode, mk = m["wm"], m["bp_core"], m["ode_engine"], m["market"]
        ctx.smart = wm.PostModel(**SMART_POST)
        ctx.naive = wm.PostModel(**NAIVE_POST)
        ctx.ramp = bpc.single_type_ramp_model()
        ctx.ramp_rhs = ode.make_autonomous_rhs(ctx.ramp.limit_mean_matrix)
        ctx.tef = {rho: mk.TefParams(rho=rho, **SNAP_FIT) for rho in (0.4, 0.6)}
        # first calls
        wm.design_eh(ctx.naive, naive_mix(wm, 0.1), 0.05, iqos=True)
        ode.picard_solve(ctx.ramp_rhs, [1.0, 0.5, 1.0, 0.5], T=0.1, sweeps=2, mesh=10)
        mk.metrics(ctx.tef[0.6], a0=2)
        m["game"].random_study(2, 0.10, 1, verify=True)
        m["bp_attack"].classify_regime_and_limits(m["bp_attack"].AttackLimits(3, 1, 3, 1))

    def round(self, ctx):
        m, z = ctx.m, ctx.sizes
        wm, ode, bpc, bpa, gm, mk = (m["wm"], m["ode_engine"], m["bp_core"],
                                     m["bp_attack"], m["game"], m["market"])
        # criteria 1-3: warning-mechanism designs
        for mua in (0.0, 0.01, 0.02):
            ctx.task("wm_design", lambda mua=mua: wm.optimize_eo(
                ctx.smart, smart_mix(wm, mua), 0.02, iqos=False),
                check=lambda d, mua=mua: checks.eo_qos(mua, d, iqos=False))
        for mua in (0.01, 0.02):
            ctx.task("wm_design", lambda mua=mua: wm.optimize_eo(
                ctx.smart, smart_mix(wm, mua), 0.02, iqos=True),
                check=lambda d, mua=mua: checks.eo_qos(mua, d, iqos=True))
        mix = naive_mix(wm, 0.1)
        eh = ctx.task("wm_design", lambda: wm.design_eh(ctx.naive, mix, 0.05, iqos=True))
        eo = ctx.task("wm_design", lambda: wm.optimize_eo(ctx.naive, mix, 0.05, iqos=True))
        ea = ctx.task("wm_design", lambda: wm.design_ea(ctx.naive, mix, 0.05, iqos=True))
        if None not in (eh, eo, ea):
            ctx.fail(checks.criterion_2(eh, eo, ea[0]))
        for mua in (0.0, 0.1, 0.2, 0.3):
            ctx.task("wm_design", lambda mua=mua: wm.design_eh2(
                ctx.naive, naive_mix(wm, mua), 0.05, iqos=True),
                check=lambda d, mua=mua: checks.eh2_iqos(mua, d))

        # criterion 6: SA path against Picard solutions from three start
        # epochs, in the acceptance test's own case.  Picard stops once two
        # sweeps agree to 1e-15, which on a random start is a coin flip
        # between ~27 sweeps and all 60, so a seeded path would swing the
        # list's work by a quarter between seeds.  This case has two capped
        # starts and one that converges.
        traj = ctx.task("sa_path", lambda: bpc.simulate(
            ctx.ramp, bpc.DeathModel(), bpc.PopulationState(2, 0, 2, 0),
            max_events=z.sa_events, seed=1),
            check=lambda t: "SA path died out" if t.extinct else None,
            events=lambda t: t.epoch[-1])
        if traj is not None and not traj.extinct:
            ups = traj.ratios()
            gaps = []
            for n0 in (5, 50, 500):
                ode_traj = ctx.task("picard", lambda n0=n0: ode.picard_solve(
                    ctx.ramp_rhs, ups[n0 - 1], T=z.gap_horizon, sweeps=z.picard_sweeps,
                    mesh=z.picard_mesh))
                if ode_traj is None:
                    break
                gaps.append(ctx.task("finite_time_gap", lambda o=ode_traj, n0=n0:
                                     ode.finite_time_gap(ups, o, n_start=n0,
                                                         T=z.gap_horizon)))
            if z.full and len(gaps) == 3 and None not in gaps:
                ctx.fail(checks.gap_order(gaps))

        # criterion 9e: Picard accuracy on y' = -y
        ctx.task("picard_exp", lambda: ode.picard_solve(
            lambda y, t: -y, 1.0, T=3.0, sweeps=40, mesh=z.exp_mesh),
            check=checks.picard_exp if z.full else None)

        # criterion 9a/9b: classifier against polynomial oracles; random
        # attack limits whose lifted equilibria must annihilate the drift
        for slot in range(z.oracle_fields):
            coeffs = random_polynomial(ctx.rng_of(2, slot))
            ctx.task("classify_scalar", lambda c=coeffs: ode.classify_scalar(
                ode.ScalarField(g=lambda b: float(np.polyval(c, b))),
                grid_points=2000, refine_tol=1e-12),
                check=lambda rep, c=coeffs: checks.poly_oracle(c, rep))
        for slot in range(z.oracle_fields):
            rng = ctx.rng_of(3, slot)
            lim = bpa.AttackLimits(e_xx=rng.uniform(1.1, 4), e_xy=rng.uniform(0.05, 2),
                                   e_yy=rng.uniform(1.1, 4), e_yx=rng.uniform(0, 2))
            ctx.task("attack_classify", lambda lim=lim: bpa.classify_regime_and_limits(lim),
                     check=lambda res, lim=lim: checks.lifted_drift(
                         ode.make_autonomous_rhs(lim.limit_mean_matrix), res[1]))

        # criteria 8 and 9d: game design soundness and fixed-point residuals
        ctx.task("game_study", lambda: gm.random_study(
            z.game_samples, 0.10, ctx.seed_of(4), verify=True),
            check=checks.game_soundness)
        for slot in range(z.oracle_fields):
            params = gm.GameParams(**inputs.game_params(ctx.seed_of(5, slot)))
            x = ctx.rng_of(6, slot).uniform(0.02, 1 - params.mua - 0.02)
            ctx.task("game_design", lambda p=params: gm.design_ai_game(p),
                     check=lambda d, p=params, x=x: checks.fp_residuals(
                         gm, p, d, [d.mu_x(x), d.mu_eta()]))

        # criterion 7: closed-form market peak and life span
        for rho, params in ctx.tef.items():
            cf = ctx.task("market_closed_form", lambda p=params: mk.closed_form(p, a0=2))
            met = ctx.task("market_metrics", lambda p=params: mk.metrics(p, a0=2))
            if cf is not None and met is not None:
                key = ("peak", rho, met["c_star"], met["n_e"], cf.tau_e)
                if key not in ctx.memo:
                    ctx.memo[key] = checks.market_peak(cf, met)
                ctx.fail(ctx.memo[key])

    def verdicts(self, ctx):
        return []


def smart_mix(wm, mua):
    return wm.UserMix(mu0=0.0, mu1=0.0, mu2=1 - mua, mua=mua)


def naive_mix(wm, mua):
    return wm.UserMix(mu0=0.35 - mua if mua <= 0.35 else 0.0, mu1=0.15, mu2=0.5, mua=mua)


def random_polynomial(rng):
    """Polynomial with 1-4 well-separated roots in (0.02, 0.98), random sign."""
    while True:
        k = int(rng.integers(1, 5))
        roots = np.sort(rng.uniform(0.02, 0.98, size=k))
        if k == 1 or np.min(np.diff(roots)) >= 0.02:
            break
    return np.poly(roots) * (-1.0 if rng.random() < 0.5 else 1.0)


# ---------------------------------------------------------------------------

class CliSweep:
    """Every CLI subcommand in-process, each artifact replayed from its sidecar."""
    name = "cli_sweep"

    def prepare(self, ctx):
        us, vs = inputs.edge_list(ctx.seed, ctx.sizes.cli_graph_nodes)
        ctx.graph_path = ctx.workdir / "graph.txt"
        inputs.write_edge_list(ctx.graph_path, us, vs)
        ctx.files = inputs.write_param_files(ctx.workdir, ctx.seed)
        ctx.viral_reach = len(np.unique(np.concatenate([us, vs]))) // 8

    def setup(self, ctx):
        cli = ctx.m["cli"]
        cli.build_parser()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["attack", "analyze", "--e-xx", "3", "--e-xy", "1",
                      "--e-yy", "3", "--e-yx", "1"])

    def commands(self, ctx):
        """(argv, artifact suffix, events-from-artifact, event cap) per subcommand."""
        z, f = ctx.sizes, ctx.files
        wmp, gmp, graph = str(f["wm"]), str(f["game"]), str(ctx.graph_path)
        attack = ["--e-xx", "3", "--e-xy", "1", "--e-yy", "3", "--e-yx", "1"]
        return [
            (["bp", "simulate", "--cx0", "10", "--max-events", str(z.cli_bp_events),
              "--record-every", "1", "--seed", "{seed}"], "csv", _csv_last, z.cli_bp_events),
            (["bp", "ratios", "--in", "{bp_csv}"], "json", None, None),
            (["attack", "analyze", *attack], "json", None, None),
            (["attack", "simulate", *attack, "--max-events", str(z.cli_attack_events),
              "--record-every", "1", "--seed", "{seed}"], "csv", _csv_last,
             z.cli_attack_events),
            (["wm", "optimize", "--params", wmp], "json", None, None),
            (["wm", "design", "--kind", "eh", "--params", wmp], "json", None, None),
            (["wm", "learn", "--params", wmp, "--budget", str(z.learn_budget),
              "--seed", "{seed}"], "csv", _csv_last, None),
            (["wm", "simulate", "--params", wmp, "--init-fake", "10", "--init-real", "10",
              "--max-events", str(z.tag_events), "--seed", "{seed}"], "csv", _csv_last, None),
            (["market", "fit", "--graph", graph, "--rho", "1.0",
              "--runs", str(z.cli_fit_runs), "--seed", "{seed}"], "json", _fit_events, None),
            (["market", "simulate", "--rho", "0.6", "--max-events",
              str(z.cli_market_events), "--seed", "{seed}"], "csv", _csv_last, None),
            (["market", "closed-form"], "csv", None, None),
            (["market", "metrics", "--rho", "0.6"], "json", None, None),
            (["market", "propagate", "--graph", graph, "--seed", "{seed}"], "csv",
             _csv_last, None),
            (["game", "design", "--params", gmp], "json", None, None),
            (["game", "verify", "--params", gmp], "json", None, None),
            (["game", "simulate", "--params", gmp, "--k-max", str(z.cli_k_max),
              "--seed", "{seed}"], "csv", _csv_last, None),
            (["game", "study", "--samples", str(z.cli_study_samples), "--d", "0.08",
              "--seed", "{seed}"], "csv", None, None),
        ]

    def round(self, ctx):
        rdir = ctx.workdir / f"round{ctx.round}"
        rdir.mkdir()
        for slot, (argv, ext, events, cap) in enumerate(self.commands(ctx)):
            out = rdir / f"{argv[0]}_{argv[1]}.{ext}"
            argv = [a.format(seed=ctx.seed_of(100 + slot), bp_csv=rdir / "bp_simulate.csv")
                    for a in argv]
            kind = f"cli {argv[0]} {argv[1]}"
            first = self._main(ctx, kind, argv + ["--out", str(out)], out, events, cap)
            if first is None:
                continue
            sidecar = Path(str(out) + ".config.json")
            replay = out.with_name(out.stem + "_replay." + ext)
            again = self._main(ctx, kind + " (replay)",
                               [argv[0], argv[1], "--config", str(sidecar),
                                "--out", str(replay)], replay, events, cap)
            if again is not None:
                ctx.cli["replays"] += 1
                error = checks.same_bytes(first, again)
                ctx.cli["identical"] += error is None
                ctx.fail(error)
        shutil.rmtree(rdir)

    def _main(self, ctx, kind, argv, out, events, cap):
        cli = ctx.m["cli"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = ctx.task(kind, lambda: cli.main(argv))
        if rc is None:
            return None
        if rc != 0:
            ctx.fail(f"{kind} exited {rc}: {err.getvalue().strip()}")
            return None
        data = out.read_bytes()
        ctx.cli["bytes"] += len(data) + Path(str(out) + ".config.json").stat().st_size
        if events is not None:
            n = events(data)
            ctx.add_events(n)
            if cap is not None:
                ctx.fail(checks.reached_cap(n, cap))
        return data

    def verdicts(self, ctx):
        return []


def _csv_last(data: bytes) -> int:
    """Event index in the first column of a CSV artifact's last row."""
    return int(data.rstrip(b"\n").rsplit(b"\n", 1)[-1].split(b",", 1)[0])


def _fit_events(data: bytes) -> int:
    return int(sum(row["transitions"] for row in json.loads(data)["table"]))


WORKLOADS = {w.name: w for w in (McReplicate(), MeanFieldDesign(), CliSweep())}
