"""Command-line interface: reproducible experiments over all model families.

Subcommands: ``bp simulate|ratios``, ``attack analyze|simulate``,
``wm optimize|design|learn|simulate``, ``market
fit|simulate|closed-form|metrics|propagate``, ``game
design|verify|simulate|study``.  A subcommand is one ``_COMMANDS`` entry:
its handler and its parameter spec.  ``main`` resolves the spec as
defaults < JSON config (--config) < explicit flags, draws a seed when the
spec has one, runs the handler on the resolved parameters and echoes them
(seed included) into a sidecar JSON next to the output so the artifact can
be regenerated byte-identically.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import secrets
import sys
from functools import cache, partial
from itertools import islice
from pathlib import Path

import numpy as np

from . import bp_attack, bp_core, game, market, market_graph, wm, wm_dynamics
from .market_graph import parse_graph


def _csv_lines(columns):
    """One line per row of ``columns``, by the one %-format their dtypes fix."""
    columns = [np.asarray(col) for col in columns]
    fmt = ",".join("%.12g" if col.dtype.kind == "f" else "%s" for col in columns) + "\n"
    return map(fmt.__mod__, zip(*(col.tolist() for col in columns)))


def write_csv(path, header, columns):
    """Write ``header`` and one line per row of ``columns``, a sequence of
    equal-length arrays (or sequences ``np.asarray`` takes), in their order.
    A float column is printed at 12 significant digits, any other column
    by ``str`` of its values."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(_csv_lines(columns))


def _emit_csv(out, header, columns):
    """Write the CSV to ``out``, or print its first ten rows without one."""
    if out is None:
        print("".join(islice(_csv_lines(columns), 10)), end="")
    else:
        write_csv(out, header, columns)


def _dumps(obj, indent=None):
    """Strict JSON with sorted keys: a NaN or an infinity is written as ``null``."""
    return json.dumps(json.loads(json.dumps(obj), parse_constant=lambda _: None),
                      indent=indent, sort_keys=True, allow_nan=False)


def _emit_json(obj, out):
    text = _dumps(obj, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# parameter resolution

class ParamError(ValueError):
    pass


def resolve(args, config_section, spec):
    """Merge defaults, config file values and explicit flags (flags win).

    ``spec`` maps parameter name -> (type, default); a default of
    ``REQUIRED`` makes the parameter mandatory.  Unknown config keys, values
    of another JSON type (``null`` but for a ``None`` default) and a NaN or
    infinite float fail, so every sidecar is strict JSON that replays.
    """
    out = {}
    cfg = dict(config_section or {})
    unknown = set(cfg) - set(spec)
    if unknown:
        raise ParamError(f"config {args.config}: unknown keys: {sorted(unknown)}")
    for name, (typ, default) in spec.items():
        flag_val = getattr(args, name.replace("-", "_"), None)
        if flag_val is not None:
            out[name] = flag_val
        elif name in cfg:
            out[name] = None if cfg[name] is None and default is None else \
                _typed(cfg[name], typ, f"config {args.config} {name}", ParamError)
        elif default is REQUIRED:
            raise ParamError(f"missing required parameter: {name}")
        else:
            out[name] = default
        if typ is float and out[name] is not None:
            bp_core.require(math.isfinite(out[name]), name, out[name], "finite", ParamError)
    bp_core.require(out.get("out") != "", "out", "''", "a file name", ParamError)
    return out


REQUIRED = object()

_JSON_TYPES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _typed(value, typ, where, error=ValueError):
    """``typ(value)`` if JSON ``value`` has ``typ``'s type (an int passes as a float)."""
    if type(value) not in ((int, float) if typ is float else (typ,)):
        raise error(f"{where}: not {_JSON_TYPES[typ]}: {value!r}")
    try:
        return typ(value)
    except OverflowError:
        raise error(f"{where}: not a number: an integer beyond the float range") from None


def _record(cls, blob, where):
    """``cls(**blob)`` for a value read from ``where``: a non-object and an
    unknown, missing or non-number key fail naming ``where`` and the key."""
    for key, value in blob.items() if isinstance(blob, dict) else ():
        _typed(value, float, f"{where} {key}")
    try:
        return cls(**blob)
    except TypeError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _read_json(path):
    """The JSON value in the file at ``path``; invalid JSON fails naming it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None


def _load_config(path, command):
    """The JSON object in ``path``, or the one under its non-string ``params``,
    beside which only ``command`` may stand; a file with a ``command`` key is
    a sidecar and must be one of ``command``."""
    data = _read_json(path) if path else {}
    if isinstance(data, dict) and data.get("command", command) != command:
        raise ParamError(f"config {path} is a sidecar of {data['command']!r}, not {command!r}")
    if isinstance(data, dict) and not isinstance(data.get("params", ""), str):
        extra = sorted(set(data) - {"command", "params"})
        if extra:
            raise ParamError(f"config {path} holds keys beside its 'params' object: {extra}")
        data = data["params"]
    if not isinstance(data, dict):
        raise ParamError(f"config {path} must hold a JSON object of parameters, got {data!r}")
    return data


# ---------------------------------------------------------------------------
# bp and attack: replicated trajectories of the generic simulator

def _bp_model(p):
    bp_core.require(p["model"] in ("ramp", "constant"), "model", repr(p["model"]),
                    "'ramp' or 'constant'", ParamError)
    if p["model"] == "ramp":
        return bp_core.single_type_ramp_model(p["m0"], p["slope"], p["floor"], p["a-break"])
    m = np.array([[p["m-xx"], p["m-xy"]], [p["m-yx"], p["m-yy"]]])
    return bp_core.constant_matrix_model(m)


def _attack_limits(p):
    return bp_attack.AttackLimits(e_xx=p["e-xx"], e_xy=p["e-xy"],
                                  e_yy=p["e-yy"], e_yx=p["e-yx"])


def _attack_model(p):
    return bp_attack.attack_model(_attack_limits(p))


def _replication_columns(build_model, p, seed):
    init = bp_core.PopulationState(cx=p["cx0"], cy=p["cy0"], ax=p["cx0"], ay=p["cy0"])
    traj = bp_core.simulate(build_model(p), bp_core.DeathModel(), init,
                            max_events=p["max-events"], seed=seed,
                            record_every=p["record-every"])
    return (traj.epoch, traj.tau, traj.cx, traj.cy, traj.ax, traj.ay,
            *traj.ratios().T, traj.betas())


def cmd_simulate(build_model, p):
    """One CSV per replication, run by ``bp_core.replicate``; ``--jobs`` > 1
    runs them in a process pool."""
    results = bp_core.replicate(partial(_replication_columns, build_model, p), p["seed"],
                                p["replications"], p["jobs"])
    for rep, columns in enumerate(results):
        _emit_csv(_rep_path(p["out"], rep, p["replications"]), bp_core.CSV_HEADER, columns)


def _rep_path(out, rep, total):
    if out is None or total == 1:
        return out
    stem = Path(out)
    return stem.with_name(f"{stem.stem}_rep{rep:03d}{stem.suffix}")


def cmd_bp_ratios(p):
    text = Path(p["in"]).read_text()
    if not text.strip():
        raise ValueError(f"in: {p['in']} is empty")
    # genfromtxt's rules: the header is the first line with a cell, and a
    # line of spaces holds no row
    lines = text.split("\n")
    head = next(i for i, line in enumerate(lines) if line.strip(" "))
    if not any(line.strip(" ") for line in lines[head + 1:]):
        raise ValueError(f"in: {p['in']} has no rows below its header")
    names = np.genfromtxt(lines[head:head + 1], delimiter=",", names=True,
                          comments=None).dtype.names
    try:  # numpy's C reader; a file it refuses is read again by genfromtxt
        data = np.loadtxt(lines[head + 1:], delimiter=",", comments=None, ndmin=1,
                          dtype=[(name, float) for name in names])
    except ValueError:
        try:
            data = np.atleast_1d(np.genfromtxt(p["in"], delimiter=",", names=True,
                                               comments=None))
        except ValueError as exc:
            # genfromtxt lists every ragged line; name the first one it reports
            ragged = re.search(r"Line #(\d+) \(got (\d+) columns instead of (\d+)\)", str(exc))
            if ragged is None:
                raise
            line, got, want = ragged.groups()
            raise ValueError(f"in: {p['in']} line {line} has {got} columns, not {want}") from None
    missing = [c for c in ("epoch", "tau", "cx", "cy", "ax", "ay") if c not in data.dtype.names]
    if missing:
        raise ValueError(f"in: {p['in']} lacks column(s) {missing}")
    for col, low in (("epoch", 1), ("cx", 0), ("cy", 0), ("ax", 0), ("ay", 0), ("tau", None)):
        v = data[col]  # a cell that is not a number reads as NaN, which fails both checks
        ok = np.isfinite(v) if low is None else (v >= low) & (v < 2.0**63) & (v == np.floor(v))
        row = int(np.argmin(ok))
        bp_core.require(ok[row], f"in: {p['in']} column {col} data row {row + 1}", v[row],
                        "finite" if low is None else f"an integer >= {low}")
    # the rows form one path: epochs increase, and no total is below its
    # current count (the rule of PopulationState.validate)
    for col, low, rule in (("epoch", np.r_[0, data["epoch"][:-1] + 1], "the previous epoch + 1"),
                           ("ax", data["cx"], "cx"), ("ay", data["cy"], "cy")):
        ok = data[col] >= low
        row = int(np.argmin(ok))
        bp_core.require(ok[row], f"in: {p['in']} column {col} data row {row + 1}",
                        data[col][row], f">= {rule} ({int(low[row])})")
    traj = bp_core.Trajectory(epoch=data["epoch"].astype(np.int64), tau=data["tau"],
                              **{c: data[c].astype(np.int64) for c in ("cx", "cy", "ax", "ay")},
                              extinct=bool(data["cx"][-1] + data["cy"][-1] == 0))
    info = bp_core.ratios_and_dichotomy(traj, lam=p["lam"], low_mean=p["offspring-low-mean"])
    _emit_json(info, p["out"])


def cmd_attack_analyze(p):
    in_e, report = bp_attack.classify_regime_and_limits(_attack_limits(p))
    payload = {"in_regime_e": in_e, **report.to_dict()}
    if in_e:
        payload["beta_r"] = report.equilibria[1].beta
    _emit_json(payload, p["out"])


# ---------------------------------------------------------------------------
# wm

def _post_mix_from(params_file):
    blob = _read_json(params_file)
    if not isinstance(blob, dict):
        raise ValueError(f"{params_file}: must hold a JSON mapping, not {type(blob).__name__}")
    missing = [key for key in ("post", "mix", "delta") if key not in blob]
    if missing:
        raise ValueError(f"{params_file}: missing keys {missing}")
    return (_record(wm.PostModel, blob["post"], f"{params_file} post"),
            _record(wm.UserMix, blob["mix"], f"{params_file} mix"),
            _typed(blob["delta"], float, f"{params_file} delta"))


def cmd_wm_design(p):
    post, mix, delta = _post_mix_from(p["params"])
    design = wm.design_for_kind(p["kind"], post, mix, delta, iqos=p["iqos"])
    _emit_json(design.to_dict(), p["out"])


def cmd_wm_learn(p):
    post, mix, delta = _post_mix_from(p["params"])
    target = p["target-beta"] if p["target-beta"] is not None else delta
    cfg = wm_dynamics.LearnConfig(p["budget"], 1.0 - post.alpha_y_r / post.alpha_x_r + 1e-3,
                                  p["seed-users"], p["record-every"])
    res = wm_dynamics.learn_wm(cfg, post, mix, target, seed=p["seed"])
    if p["out"]:
        write_csv(p["out"], "k,w,b,beta",
                  (res.trace[:, 0].astype(np.int64), *res.trace[:, 1:].T))
    print(_dumps({"w": res.w, "b": res.b, "extinct": res.extinct}))


def cmd_wm_simulate(p):
    post, mix, delta = _post_mix_from(p["params"])
    design = wm.design_for_kind(p["kind"], post, mix, delta, iqos=p["iqos"])
    path = wm_dynamics.simulate_tagging(
        p["kind"], design, post, mix, p["actuality"],
        p["init-fake"], p["init-real"], p["max-events"], p["seed"],
        record_every=p["record-every"])
    _emit_csv(p["out"], "k,beta", (path.epoch, path.beta))


# ---------------------------------------------------------------------------
# market

def _tef_params(p):
    return market.TefParams(m_bar=p["m-bar"], kappa1=p["kappa1"],
                            kappa2=p["kappa2"], a_break=p["a-break"], rho=p["rho"])


def cmd_market_metrics(p):
    params = _tef_params(p)
    m = market.metrics(params, a0=p["a0"])
    m["common_fit_ok"] = params.common_fit_ok
    _emit_json(m, p["out"])


def cmd_market_closed_form(p):
    bp_core.require_counts(n_points=p["n-points"])
    cf = market.closed_form(_tef_params(p), a0=p["a0"])
    ns = np.unique(np.round(np.geomspace(1, max(cf.n_e, 2), p["n-points"])).astype(int)).tolist()
    _emit_csv(p["out"], "n,t,a,c", (ns, [market.EULER_GAMMA + math.log(n) for n in ns],
                                     [cf.a_epoch(float(n)) for n in ns],
                                     [cf.c_epoch(float(n)) for n in ns]))


def cmd_market_simulate(p):
    path = market.simulate_stpbp(_tef_params(p), a0=p["a0"],
                                 max_events=p["max-events"], seed=p["seed"],
                                 record_every=p["record-every"],
                                 offspring=p["offspring"])
    _emit_csv(p["out"], "n,t,a,c", (path.epoch, path.tau, path.a, path.c))


def cmd_market_propagate(p):
    g = parse_graph(p["graph"])
    rng = bp_core.make_rng(p["seed"])
    if p["seeds"] is not None:
        try:
            ids = [g.internal_id(int(s)) for s in p["seeds"].split(",")]
        except ValueError:
            bp_core.require(False, "seeds", repr(p["seeds"]), "comma-separated node ids")
        except KeyError as exc:
            raise ValueError(f"seeds: {exc.args[0]}") from None
    else:
        ids = market_graph.draw_seeds(g, p["n-seeds"], rng, name="n_seeds")
    log = market_graph.propagate_on_graph(g, ids, p["rho"], rng)
    if p["out"]:
        write_csv(p["out"], "epoch,reader,forwards,a,c",
                  (log.epoch, log.reader, log.forwards, log.a, log.c))
    print(_dumps({"reach": log.reach, "events": int(log.epoch[-1])}))


def cmd_market_fit(p):
    g = parse_graph(p["graph"])
    fit = market_graph.estimate_tef(g, p["rho"], p["bin-width"], p["runs"],
                                    p["seed"], seeds_per_run=p["seeds-per-run"],
                                    viral_threshold=p["viral-threshold"])
    payload = {
        "degenerate": fit.degenerate,
        "m_bar": fit.m_bar_hat,
        "params": None if fit.params is None else {
            "m_bar": fit.params.m_bar, "kappa1": fit.params.kappa1,
            "kappa2": fit.params.kappa2, "a_break": fit.params.a_break},
        "table": [{"a": float(a), "m_hat": float(m), "transitions": float(w)}
                  for a, m, w in zip(fit.a_centers, fit.m_hat, fit.weights)],
    }
    _emit_json(payload, p["out"])


# ---------------------------------------------------------------------------
# game

def _game_params(path):
    return _record(game.GameParams, _read_json(path), path)


def cmd_game_design(p):
    design = game.design_ai_game(_game_params(p["params"]))
    _emit_json(design.to_dict(), p["out"])


def cmd_game_verify(p):
    _emit_json(game.verify_equilibria(game.design_ai_game(_game_params(p["params"]))), p["out"])


def cmd_game_simulate(p):
    design = game.design_ai_game(_game_params(p["params"]))
    ks, betas = game.simulate_tagging_game(design.mu_eta(), design, p["actuality"],
                                           p["k-max"], p["seed"],
                                           record_every=p["record-every"])
    if p["out"]:
        write_csv(p["out"], "k,beta", (ks, betas))
    print(_dumps({"terminal_beta": float(betas[-1]),
                  "predicted": game.beta_fixed_point(
                      design.mu_eta(), design.w, design.params, p["actuality"])}))


def cmd_game_study(p):
    res = game.random_study(p["samples"], p["d"], p["seed"], theta=p["theta"],
                            gamma_margin=p["gamma-margin"], verify=False)
    if p["out"]:
        write_csv(p["out"], "sample,feasible,ai,degradation_pct", zip(*res["rows"]))
    print(_dumps({
        "feasible_fraction": res["feasible_fraction"],
        "second_ne_fraction": res["second_ne_fraction"],
        "small_degradation_fraction": res["small_degradation_fraction"]}))


# ---------------------------------------------------------------------------
# registry: (module, subcommand) -> (handler, spec); a spec's key order is
# its flag order in --help.

ATTACK_SPEC = {
    "e-xx": (float, REQUIRED), "e-xy": (float, REQUIRED),
    "e-yy": (float, REQUIRED), "e-yx": (float, REQUIRED),
    "out": (str, None),
}

MARKET_TEF_SPEC = {
    "m-bar": (float, market.SNAP_FIT["m_bar"]),
    "kappa1": (float, market.SNAP_FIT["kappa1"]),
    "kappa2": (float, market.SNAP_FIT["kappa2"]),
    "a-break": (float, market.SNAP_FIT["a_break"]), "rho": (float, 0.6),
    "a0": (int, 2), "out": (str, None),
}

WM_DESIGN_SPEC = {
    "kind": (str, "eo"), "params": (str, REQUIRED),
    "iqos": (bool, True), "out": (str, None),
}

GAME_PARAMS_SPEC = {"params": (str, REQUIRED), "out": (str, None)}

_COMMANDS = {
    ("bp", "simulate"): (partial(cmd_simulate, _bp_model), {
        "model": (str, "ramp"),
        "m0": (float, 3.0), "slope": (float, 0.002), "floor": (float, 1.2),
        "a-break": (float, 400.0),
        "m-xx": (float, 1.5), "m-xy": (float, 0.5), "m-yx": (float, 0.5),
        "m-yy": (float, 1.5),
        "cx0": (int, 2), "cy0": (int, 0),
        "max-events": (int, 10_000), "record-every": (int, 1),
        "seed": (int, None), "replications": (int, 1), "jobs": (int, 1),
        "out": (str, None)}),
    ("bp", "ratios"): (cmd_bp_ratios, {
        "in": (str, REQUIRED), "lam": (float, 1.0),
        "offspring-low-mean": (float, None), "out": (str, None)}),
    ("attack", "analyze"): (cmd_attack_analyze, ATTACK_SPEC),
    ("attack", "simulate"): (partial(cmd_simulate, _attack_model), dict(ATTACK_SPEC, **{
        "cx0": (int, 5), "cy0": (int, 5), "max-events": (int, 100_000),
        "record-every": (int, 100), "seed": (int, None),
        "replications": (int, 1), "jobs": (int, 1)})),
    ("wm", "optimize"): (cmd_wm_design, WM_DESIGN_SPEC),
    ("wm", "design"): (cmd_wm_design, WM_DESIGN_SPEC),
    ("wm", "learn"): (cmd_wm_learn, {
        "params": (str, REQUIRED), "budget": (int, 100_000), "seed": (int, None),
        "seed-users": (int, 20), "record-every": (int, 1000),
        "target-beta": (float, None), "out": (str, None)}),
    ("wm", "simulate"): (cmd_wm_simulate, {
        "kind": (str, "eo"), "params": (str, REQUIRED), "actuality": (str, "F"),
        "init-fake": (int, 1), "init-real": (int, 1),
        "max-events": (int, 100_000), "record-every": (int, 100),
        "seed": (int, None), "iqos": (bool, True), "out": (str, None)}),
    ("market", "fit"): (cmd_market_fit, {
        "graph": (str, REQUIRED), "rho": (float, 1.0),
        "bin-width": (int, 1000), "runs": (int, 100),
        "viral-threshold": (int, None), "seeds-per-run": (int, 2),
        "seed": (int, None), "out": (str, None)}),
    ("market", "simulate"): (cmd_market_simulate, dict(MARKET_TEF_SPEC, **{
        "max-events": (int, 200_000), "record-every": (int, 1),
        "seed": (int, None), "offspring": (str, "poisson")})),
    ("market", "closed-form"): (cmd_market_closed_form,
                                dict(MARKET_TEF_SPEC, **{"n-points": (int, 2000)})),
    ("market", "metrics"): (cmd_market_metrics, MARKET_TEF_SPEC),
    ("market", "propagate"): (cmd_market_propagate, {
        "graph": (str, REQUIRED), "seeds": (str, None), "n-seeds": (int, 2),
        "rho": (float, 0.6), "seed": (int, None), "out": (str, None)}),
    ("game", "design"): (cmd_game_design, GAME_PARAMS_SPEC),
    ("game", "verify"): (cmd_game_verify, GAME_PARAMS_SPEC),
    ("game", "simulate"): (cmd_game_simulate, {
        "params": (str, REQUIRED), "actuality": (str, "F"),
        "k-max": (int, 100_000), "seed": (int, None),
        "record-every": (int, 100), "out": (str, None)}),
    ("game", "study"): (cmd_game_study, {
        "samples": (int, 10_000), "d": (float, 0.10), "seed": (int, None),
        "theta": (float, 0.75), "gamma-margin": (float, 1000.0),
        "out": (str, None)}),
}


def _add_flags(parser, spec):
    for name, (typ, default) in spec.items():
        flag = "--" + name
        if typ is bool:
            parser.add_argument(flag, dest=name.replace("-", "_"),
                                action=argparse.BooleanOptionalAction, default=None)
        else:
            parser.add_argument(flag, dest=name.replace("-", "_"), type=typ, default=None)
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file with parameter values (flags win)")


@cache
def build_parser():
    """The parser of ``_COMMANDS``' specs, built once per process and shared
    by every ``main`` call, so no caller may add to it."""
    parser = argparse.ArgumentParser(prog="bpviral",
                                     description=__doc__.splitlines()[0])
    top = parser.add_subparsers(dest="module", required=True)
    groups = {}
    for (mod, sub), (_, spec) in _COMMANDS.items():
        if mod not in groups:
            gp = top.add_parser(mod)
            groups[mod] = gp.add_subparsers(dest="subcommand", required=True)
        _add_flags(groups[mod].add_parser(sub), spec)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, spec = _COMMANDS[(args.module, args.subcommand)]
    command = f"{args.module} {args.subcommand}"
    try:
        p = resolve(args, _load_config(args.config, command), spec)
        if "seed" in spec and p["seed"] is None:
            p["seed"] = secrets.randbits(32)
        handler(p)
        if p["out"] is not None:
            Path(p["out"] + ".config.json").write_text(
                _dumps({"command": command, "params": p}, indent=2))
    except ParamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, game.GameVerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
