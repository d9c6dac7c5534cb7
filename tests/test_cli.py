import json
import subprocess
import sys
from pathlib import Path

import pytest

from bpviral.cli import _COMMANDS, main


@pytest.fixture
def wm_params_file(tmp_path):
    blob = {
        "post": {"m_f": 30, "eta_f": 0.52, "eta_r": 0.4, "eta_a": 0.55,
                 "gamma": 0.1, "rho": 0.9, "alpha_x_f": 0.3, "alpha_y_f": 0.225,
                 "alpha_x_r": 0.12, "alpha_y_r": 0.09},
        "mix": {"mu0": 0.25, "mu1": 0.15, "mu2": 0.5, "mua": 0.1},
        "delta": 0.05,
    }
    path = tmp_path / "wm.json"
    path.write_text(json.dumps(blob))
    return str(path)


@pytest.fixture
def game_params_file(tmp_path):
    blob = {"alpha_r": 0.27, "alpha_f": 0.30, "mua": 0.1, "p": 0.3,
            "theta": 0.75, "delta": 0.28, "resp_a": 2.5}
    path = tmp_path / "game.json"
    path.write_text(json.dumps(blob))
    return str(path)


ALL_SUBCOMMANDS = [
    ["bp", "simulate"], ["bp", "ratios"],
    ["attack", "analyze"], ["attack", "simulate"],
    ["wm", "optimize"], ["wm", "design"], ["wm", "learn"], ["wm", "simulate"],
    ["market", "fit"], ["market", "simulate"], ["market", "closed-form"],
    ["market", "metrics"], ["market", "propagate"],
    ["game", "design"], ["game", "verify"], ["game", "simulate"],
    ["game", "study"],
]


@pytest.mark.parametrize("cmd", ALL_SUBCOMMANDS, ids=lambda c: " ".join(c))
def test_help_exits_zero(cmd):
    proc = subprocess.run([sys.executable, "-m", "bpviral.cli", *cmd, "--help"],
                          capture_output=True)
    assert proc.returncode == 0
    assert b"usage" in proc.stdout.lower()


def test_missing_required_parameter_names_key(capsys):
    rc = main(["game", "design"])
    assert rc == 2
    assert "params" in capsys.readouterr().err


def test_deterministic_artifacts(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bp", "simulate", "--seed", "99", "--max-events", "400"]
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_registry_matches_subcommand_list():
    assert sorted(_COMMANDS) == sorted(tuple(c) for c in ALL_SUBCOMMANDS)


# small runs of every subcommand; {wm}, {game}, {graph} and {bp_csv} name
# input files written by the test
SMALL_ARGS = {
    "bp simulate": ["--seed", "41", "--max-events", "300"],
    "bp ratios": ["--in", "{bp_csv}"],
    "attack analyze": ["--e-xx", "3", "--e-xy", "1", "--e-yy", "3", "--e-yx", "1"],
    "attack simulate": ["--e-xx", "3", "--e-xy", "1", "--e-yy", "3", "--e-yx", "1",
                        "--max-events", "300", "--record-every", "1", "--seed", "41"],
    "wm optimize": ["--params", "{wm}"],
    "wm design": ["--kind", "eh", "--params", "{wm}"],
    "wm learn": ["--params", "{wm}", "--budget", "500", "--record-every", "50",
                 "--seed", "41"],
    "wm simulate": ["--params", "{wm}", "--max-events", "500", "--record-every", "10",
                    "--seed", "41"],
    "market fit": ["--graph", "{graph}", "--runs", "2", "--bin-width", "10",
                   "--seed", "41"],
    "market simulate": ["--max-events", "500", "--seed", "41"],
    "market closed-form": ["--n-points", "50"],
    "market metrics": ["--rho", "0.4"],
    "market propagate": ["--graph", "{graph}", "--seed", "41"],
    "game design": ["--params", "{game}"],
    "game verify": ["--params", "{game}"],
    "game simulate": ["--params", "{game}", "--k-max", "500", "--seed", "41"],
    "game study": ["--samples", "20", "--seed", "41"],
}


@pytest.mark.parametrize("cmd", ALL_SUBCOMMANDS, ids=lambda c: " ".join(c))
def test_sidecar_roundtrip(cmd, tmp_path, wm_params_file, game_params_file, capsys):
    graph = tmp_path / "graph.txt"
    graph.write_text("".join(f"{i} {(i * 7 + 1) % 40}\n{i} {(i + 1) % 40}\n"
                             for i in range(40)))
    bp_csv = tmp_path / "bp.csv"
    assert main(["bp", "simulate", "--seed", "3", "--max-events", "200",
                 "--out", str(bp_csv)]) == 0
    files = {"wm": wm_params_file, "game": game_params_file, "graph": str(graph),
             "bp_csv": str(bp_csv)}
    args = [a.format(**files) for a in SMALL_ARGS[" ".join(cmd)]]
    out1 = tmp_path / "a.out"
    assert main([*cmd, *args, "--out", str(out1)]) == 0
    sidecar = Path(str(out1) + ".config.json")
    blob = json.loads(sidecar.read_text())
    assert blob["command"] == " ".join(cmd)
    if "--seed" in args:
        assert blob["params"]["seed"] == 41
    # re-running from the echoed config reproduces the artifact exactly
    out2 = tmp_path / "b.out"
    assert main([*cmd, "--config", str(sidecar), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("cmd", [["bp", "simulate"], ["attack", "simulate", "--e-xx", "3",
                                  "--e-xy", "1", "--e-yy", "3", "--e-yx", "1"]],
                         ids=lambda c: " ".join(c[:2]))
def test_simulate_prints_first_rows_without_out(cmd, capsys):
    assert main([*cmd, "--seed", "3", "--max-events", "50", "--record-every", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert [int(line.split(",")[0]) for line in lines] == list(range(1, 11))


def test_generated_seed_recorded(tmp_path):
    out = tmp_path / "a.csv"
    assert main(["bp", "simulate", "--max-events", "100", "--out", str(out)]) == 0
    blob = json.loads(Path(str(out) + ".config.json").read_text())
    assert isinstance(blob["params"]["seed"], int)


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"params": {"not-a-key": 1}}))
    rc = main(["bp", "simulate", "--config", str(cfg)])
    assert rc == 2
    assert "not-a-key" in capsys.readouterr().err


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"params": {"seed": 1, "max-events": 100}}))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["bp", "simulate", "--config", str(cfg), "--out", str(out1)])
    main(["bp", "simulate", "--config", str(cfg), "--seed", "2", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_csv_float_format(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["market", "closed-form", "--rho", "0.6", "--n-points", "50",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,t,a,c"
    cell = lines[1].split(",")[1]
    assert len(cell.replace(".", "").replace("-", "").lstrip("0")) <= 12


def test_bp_csv_header(tmp_path):
    out = tmp_path / "a.csv"
    main(["bp", "simulate", "--seed", "3", "--max-events", "50", "--out", str(out)])
    assert out.read_text().splitlines()[0] == \
        "epoch,tau,cx,cy,ax,ay,psi_c,theta_c,psi_a,theta_a,beta"


def test_bp_ratios_reads_trajectory(tmp_path, capsys):
    out = tmp_path / "a.csv"
    main(["bp", "simulate", "--seed", "3", "--max-events", "500", "--out", str(out)])
    rc = main(["bp", "ratios", "--in", str(out), "--offspring-low-mean", "1.2"])
    assert rc == 0
    info = json.loads(capsys.readouterr().out)
    assert "extinct" in info and "growth_rate" in info


def test_attack_analyze_payload(capsys):
    rc = main(["attack", "analyze", "--e-xx", "3", "--e-xy", "1",
               "--e-yy", "3", "--e-yx", "1"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["in_regime_e"] is True
    assert blob["beta_r"] == pytest.approx(0.5)
    assert {"equilibria", "lifted"} <= set(blob)


def test_wm_design_json(wm_params_file, capsys):
    rc = main(["wm", "design", "--kind", "eh", "--params", wm_params_file])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["kind"] == "eh" and blob["zeta"] > 1
    assert blob["iqos"] == pytest.approx(0.7629, abs=1e-3)


def test_wm_learn_trace(wm_params_file, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = main(["wm", "learn", "--params", wm_params_file, "--budget", "2000",
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,w,b,beta"
    assert len(lines) > 1


def test_game_design_and_verify(game_params_file, capsys):
    assert main(["game", "design", "--params", game_params_file]) == 0
    design = json.loads(capsys.readouterr().out)
    assert design["feasible"] is True
    assert main(["game", "verify", "--params", game_params_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ne_list"][0]["ai"] is True


def test_game_study_csv(tmp_path, capsys):
    out = tmp_path / "study.csv"
    rc = main(["game", "study", "--samples", "50", "--d", "0.1",
               "--seed", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "sample,feasible,ai,degradation_pct"
    assert len(lines) == 51


def test_market_metrics_json(capsys):
    assert main(["market", "metrics", "--rho", "0.6"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert {"c_star", "n_e", "max_reach", "tau_s", "tau_e"} <= set(blob)


def test_market_propagate_graph_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\nnonsense\n")
    rc = main(["market", "propagate", "--graph", str(bad), "--seeds", "0",
               "--seed", "1"])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (["bp", "simulate", "--seed", "1", "--record-every", "0"], "record_every"),
    (["wm", "learn", "--params", "{wm}", "--seed", "1", "--seed-users", "0"], "seed_users"),
    (["game", "study", "--seed", "1", "--samples", "0"], "n_samples"),
    (["market", "fit", "--graph", "{graph}", "--seed", "1", "--bin-width", "0"], "bin_width"),
], ids=["bp simulate --record-every 0", "wm learn --seed-users 0",
        "game study --samples 0", "market fit --bin-width 0"])
def test_counts_below_one_exit_1(argv, name, wm_params_file, tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    graph.write_text("0 1\n1 2\n2 0\n")
    rc = main([a.format(wm=wm_params_file, graph=graph) for a in argv])
    assert rc == 1
    assert name in capsys.readouterr().err


def test_replications_are_not_other_seeds(tmp_path):
    # replication r of seed s is its own stream (s, r): replication 1 of
    # seed 6 is not seed 7, and replication 0 is the plain seed
    base = ["bp", "simulate", "--max-events", "300"]
    main([*base, "--seed", "6", "--replications", "2", "--out", str(tmp_path / "a.csv")])
    main([*base, "--seed", "6", "--out", str(tmp_path / "six.csv")])
    main([*base, "--seed", "7", "--out", str(tmp_path / "seven.csv")])
    assert (tmp_path / "a_rep000.csv").read_bytes() == (tmp_path / "six.csv").read_bytes()
    assert (tmp_path / "a_rep001.csv").read_bytes() != (tmp_path / "seven.csv").read_bytes()


def test_parallel_replications_match_serial(tmp_path):
    base = ["bp", "simulate", "--seed", "7", "--max-events", "200",
            "--replications", "3"]
    main([*base, "--jobs", "1", "--out", str(tmp_path / "s.csv")])
    main([*base, "--jobs", "2", "--out", str(tmp_path / "p.csv")])
    for rep in range(3):
        a = (tmp_path / f"s_rep{rep:03d}.csv").read_bytes()
        b = (tmp_path / f"p_rep{rep:03d}.csv").read_bytes()
        assert a == b
