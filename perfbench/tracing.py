"""Spans around bpviral's public entry points, recorded from outside.

``Tracer.install`` rebinds each traced function in every module namespace
that holds it (``wm.classify_scalar`` as well as
``ode_engine.classify_scalar``, ``cli.parse_graph`` as well as
``market_graph.parse_graph``), so calls made inside the package are seen
without editing it.  ``uninstall`` restores the originals.  Per-event helpers
(``eo_warning``, ``warning_value``, ``tef``, ``step_embedded``) are never
wrapped: a span there would cost more than the work it times.

A span is ``[name, start, end, parent, task]``; spans stay in memory and
``dump`` writes them out when the run ends.  Counts (events, sweeps, rows)
are read from the values each call returns, after the span has closed.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

NAME, START, END, PARENT, TASK = range(5)


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def totals(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only outermost spans of a name, so a name nested
    in itself (``wm.design`` inside ``wm.design``) is not counted twice.
    """
    own = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    for i, s in enumerate(spans):
        t = out[s[NAME]]
        t["calls"] += 1
        t["self_s"] += own[i]
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            t["incl_s"] += s[END] - s[START]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(float)
        self.reaches: list[int] = []
        self.task = None
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.task]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, bound.arguments, result)
            return result
        return traced

    def install(self, modules: dict):
        """Rebind every entry of ``TRACED`` in the given module objects."""
        for span_name, homes, count in TRACED:
            first_mod, attr = homes[0]
            fn = getattr(modules[first_mod], attr)
            wrapped = self.wrap(span_name, fn, count)
            for mod_name, attr_name in homes:
                mod = modules[mod_name]
                if getattr(mod, attr_name) is not fn:
                    raise RuntimeError(f"{mod_name}.{attr_name} is not {first_mod}.{attr}")
                self._saved.append((mod, attr_name, fn))
                setattr(mod, attr_name, wrapped)

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def dump(self, path: Path):
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "task"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }) + "\n")


# -- counters read from return values ----------------------------------------

def _events(key):
    def count(tr, args, result):
        tr.counts[key] += int(result.epoch[-1]) if len(result.epoch) else 0
    return count


def _attack_events(tr, args, result):
    betas, extinct = result
    # surviving paths ran the full cap; an extinct one stopped within one
    # record interval of its last record (computed, not counted)
    tr.counts["attack.events"] += (len(betas) * args["record_every"] if extinct
                                   else args["max_events"])


def _study(tr, args, result):
    tr.counts["study.replications"] += result["replications"]
    tr.counts["study.survivors"] += result["replications"] - result["extinct"]


def _picard(tr, args, result):
    tr.counts["picard.runs"] += 1
    tr.counts["picard.sweeps"] += result.sweeps_used
    tr.counts["picard.capped"] += result.sweeps_used == args["sweeps"]


def _learn(tr, args, result):
    budget = args["config"].budget
    tr.counts["learn.events"] += (int(result.trace[-1, 0]) if result.extinct
                                  and len(result.trace) else budget)


def _dichotomy(tr, args, result):
    tr.counts["dichotomy.paths"] += result.replications


def _parse(tr, args, result):
    tr.counts["parse.edges"] += result.n_edges


def _cascade(tr, args, result):
    tr.counts["cascade.events"] += int(result.epoch[-1])
    tr.reaches.append(result.reach)


def _game_study(tr, args, result):
    tr.counts["game.samples"] += result["samples"]
    tr.counts["game.feasible"] += round(result["feasible_fraction"] * result["samples"])


def _csv_rows(tr, args, result):
    with open(args["path"], "rb") as fh:
        tr.counts["csv.rows"] += sum(1 for _ in fh) - 1


# (span name, [(module, attribute), ...], counter or None); the first
# binding is the defining module, the others are from-imports of it.
TRACED = [
    ("bp_core.simulate", [("bp_core", "simulate")], _events("simulate.events")),
    ("bp_core.dichotomy_study", [("bp_core", "dichotomy_study")], _dichotomy),
    ("bp_attack.simulate_attack_betas", [("bp_attack", "simulate_attack_betas")],
     _attack_events),
    ("bp_attack.terminal_beta_study", [("bp_attack", "terminal_beta_study")], _study),
    ("ode_engine.classify_scalar", [("ode_engine", "classify_scalar"),
                                    ("wm", "classify_scalar")], None),
    ("ode_engine.picard_solve", [("ode_engine", "picard_solve")], _picard),
    ("ode_engine.finite_time_gap", [("ode_engine", "finite_time_gap")], None),
    ("ode_engine.hover_classify", [("ode_engine", "hover_classify")], None),
    ("wm.design", [("wm", "design_for_kind")], None),
    ("wm.design", [("wm", "optimize_eo")], None),
    ("wm.design", [("wm", "design_ea")], None),
    ("wm.design", [("wm", "design_eh")], None),
    ("wm.design", [("wm", "design_eh2")], None),
    ("wm.learned_design", [("wm", "learned_design")], None),
    ("wm_dynamics.learn_wm", [("wm_dynamics", "learn_wm")], _learn),
    ("wm_dynamics.simulate_tagging", [("wm_dynamics", "simulate_tagging")],
     _events("tagging.events")),
    ("market.simulate_stpbp", [("market", "simulate_stpbp")], _events("stpbp.events")),
    ("market.closed_form", [("market", "closed_form")], None),
    ("market.metrics", [("market", "metrics")], None),
    ("market_graph.parse_graph", [("market_graph", "parse_graph"),
                                  ("cli", "parse_graph")], _parse),
    ("market_graph.propagate_on_graph", [("market_graph", "propagate_on_graph")],
     _cascade),
    ("market_graph.fit_two_slope", [("market_graph", "fit_two_slope")], None),
    ("game.random_study", [("game", "random_study")], _game_study),
    ("game.verify_equilibria", [("game", "verify_equilibria")], None),
    ("cli.main", [("cli", "main")], None),
    ("cli.write_csv", [("cli", "write_csv")], _csv_rows),
]

MODULES = ["bp_core", "bp_attack", "ode_engine", "wm", "wm_dynamics", "market",
           "market_graph", "game", "cli"]


def _rate(num, seconds):
    return num / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, rounds: int, viral_reach: int,
                  learn_hits: tuple[int, int], cli_stats: dict) -> dict:
    """Per-layer numbers of the traced rounds.

    Times and call counts are per traced round; rates divide the work a
    layer's calls returned by the time spent inside those calls.  A layer the
    workload never calls reads 0.
    """
    t = totals(tracer.spans)
    c = tracer.counts
    rounds = max(rounds, 1)

    def self_s(name):
        return t[name]["self_s"] / rounds if name in t else 0.0

    def incl(name):
        return t[name]["incl_s"] if name in t else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    picard_sweeps = c["picard.sweeps"]
    cls_calls = t["ode_engine.classify_scalar"]["calls"] if "ode_engine.classify_scalar" in t else 0
    hits, learn_runs = learn_hits
    reaches = tracer.reaches
    return {
        "bp_core.simulate.events_per_s": _rate(c["simulate.events"], incl("bp_core.simulate")),
        "bp_core.simulate.self_s": self_s("bp_core.simulate"),
        "bp_core.dichotomy_study.paths_per_s": _rate(c["dichotomy.paths"],
                                                     incl("bp_core.dichotomy_study")),
        "bp_attack.simulate_attack_betas.events_per_s": _rate(
            c["attack.events"], incl("bp_attack.simulate_attack_betas")),
        "bp_attack.terminal_beta_study.self_s": self_s("bp_attack.terminal_beta_study"),
        "bp_attack.survivor_ratio": ratio(c["study.survivors"], c["study.replications"]),
        "ode_engine.picard_solve.ms_per_sweep": ratio(1e3 * incl("ode_engine.picard_solve"),
                                                      picard_sweeps),
        "ode_engine.picard_solve.capped_ratio": ratio(c["picard.capped"], c["picard.runs"]),
        "ode_engine.classify_scalar.ms_per_call": ratio(
            1e3 * incl("ode_engine.classify_scalar"), cls_calls),
        "ode_engine.classify_scalar.calls": cls_calls / rounds,
        "ode_engine.finite_time_gap.self_s": self_s("ode_engine.finite_time_gap"),
        "ode_engine.hover_classify.self_s": self_s("ode_engine.hover_classify"),
        "wm.design.self_s": self_s("wm.design"),
        "wm.learned_design.self_s": self_s("wm.learned_design"),
        "wm_dynamics.learn_wm.events_per_s": _rate(c["learn.events"],
                                                   incl("wm_dynamics.learn_wm")),
        "wm_dynamics.learn_wm.hit_ratio": ratio(hits, learn_runs),
        "wm_dynamics.simulate_tagging.events_per_s": _rate(
            c["tagging.events"], incl("wm_dynamics.simulate_tagging")),
        "market.simulate_stpbp.events_per_s": _rate(c["stpbp.events"],
                                                    incl("market.simulate_stpbp")),
        "market.closed_form.self_s": self_s("market.closed_form"),
        "market.metrics.self_s": self_s("market.metrics"),
        "market_graph.parse_graph.edges_per_s": _rate(c["parse.edges"],
                                                      incl("market_graph.parse_graph")),
        "market_graph.propagate_on_graph.events_per_s": _rate(
            c["cascade.events"], incl("market_graph.propagate_on_graph")),
        "market_graph.fit_two_slope.self_s": self_s("market_graph.fit_two_slope"),
        "market_graph.viral_ratio": ratio(sum(r >= viral_reach for r in reaches), len(reaches)),
        "game.random_study.samples_per_s": _rate(c["game.samples"], incl("game.random_study")),
        "game.verify_equilibria.self_s": self_s("game.verify_equilibria"),
        "game.feasible_ratio": ratio(c["game.feasible"], c["game.samples"]),
        "cli.main.self_s": self_s("cli.main"),
        "cli.write_csv.rows_per_s": _rate(c["csv.rows"], incl("cli.write_csv")),
        "cli.output_bytes": cli_stats.get("bytes", 0) / rounds,
        "cli.replay_identical_ratio": ratio(cli_stats.get("identical", 0),
                                            cli_stats.get("replays", 0)),
    }


def source_lines(src: Path) -> dict:
    """``<module>.lines`` for the nine modules and ``src.lines`` for all of src/."""
    def lines(p):
        with open(p, "rb") as fh:
            return sum(1 for _ in fh)
    out = {f"{m}.lines": lines(src / "bpviral" / f"{m}.py") for m in MODULES}
    out["src.lines"] = sum(lines(p) for p in sorted(src.rglob("*.py")))
    return out
