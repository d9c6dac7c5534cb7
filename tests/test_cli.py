import json
import math
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bpviral import wm
from bpviral.cli import _COMMANDS, _emit_csv, build_parser, main, write_csv
from oracles import PARAMS, example_params, write_csv_per_value


WM_BLOB = example_params("wm")
GAME_BLOB = example_params("game")


@pytest.fixture
def wm_params_file():
    return str(PARAMS / "wm.json")


@pytest.fixture
def game_params_file():
    return str(PARAMS / "game.json")


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
def test_help_exits_zero(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*cmd, "--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_module_entry_help_exits_zero():
    proc = subprocess.run([sys.executable, "-m", "bpviral.cli", "bp", "simulate", "--help"],
                          capture_output=True)
    assert proc.returncode == 0
    assert b"usage" in proc.stdout.lower()


def test_importing_the_cli_loads_every_module_and_no_scipy():
    # numpy is the package's one runtime dependency
    code = ("import sys, bpviral.cli; print(*sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('bpviral', 'scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["bpviral"] + [
        f"bpviral.{m}" for m in ("bp_attack", "bp_core", "cli", "game", "market",
                                 "market_graph", "ode_engine", "wm", "wm_dynamics")]


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


# the flag sweep's sizes, given after SMALL_ARGS (argparse keeps a flag's last value)
_SWEEP_SIZES = {"market simulate": ["--max-events", "300"],
                "wm simulate": ["--max-events", "300"],
                "game simulate": ["--k-max", "300"], "game study": ["--samples", "50"]}
# the library parameter an error names instead of the flag that sets it
_FLAG_PARAMS = {"offspring-low-mean": "low_mean", "cx0": "cx", "cy0": "cy",
                "samples": "n_samples"}
_NONFINITE_TOKEN = re.compile(r"(?i)\b(nan|inf|infinity)\b")


@pytest.mark.parametrize("cmd", ALL_SUBCOMMANDS, ids=lambda c: " ".join(c))
def test_every_numeric_flag_at_bad_values(cmd, tmp_path, wm_params_file, game_params_file,
                                          capsys):
    """Every int and float flag at nan, inf, -1 and 0, in-process: a case
    exits 0 with no non-finite token in stdout or the artifact, or fails
    with an ``error:`` line naming the flag or the parameter it sets.
    argparse refuses nan and inf for an int flag with exit 2; nothing else
    raises out of ``main``."""
    graph = tmp_path / "graph.txt"
    graph.write_text("".join(f"{i} {(i * 7 + 1) % 120}\n{i} {(i + 1) % 120}\n"
                             for i in range(120)))
    bp_csv = tmp_path / "bp.csv"
    assert main(["bp", "simulate", "--seed", "3", "--max-events", "200",
                 "--out", str(bp_csv)]) == 0
    files = {"wm": wm_params_file, "game": game_params_file, "graph": str(graph),
             "bp_csv": str(bp_csv)}
    name = " ".join(cmd)
    base = [*cmd, *(a.format(**files) for a in SMALL_ARGS[name]), *_SWEEP_SIZES.get(name, [])]
    flags = [(flag, typ) for flag, (typ, _) in _COMMANDS[tuple(cmd)][1].items()
             if typ in (int, float)]
    assert flags or name in ("wm optimize", "wm design", "game design", "game verify")
    for flag, typ in flags:
        names = {flag, flag.replace("-", "_"), _FLAG_PARAMS.get(flag, flag)}
        for value in ("nan", "inf", "-1", "0"):
            case = f"{name} --{flag} {value}"
            out = tmp_path / f"{flag}{value}.out"
            try:
                rc = main([*base, f"--{flag}={value}", "--out", str(out)])
            except SystemExit as exc:
                assert typ is int and value in ("nan", "inf") and exc.code == 2, case
                rc = exc.code
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err, case
            if rc == 0:
                sidecar = Path(str(out) + ".config.json").read_text()
                assert not _NONFINITE_TOKEN.search(captured.out + out.read_text() + sidecar), case
            else:
                line = next((ln for ln in captured.err.splitlines() if "error: " in ln), "")
                assert any(re.search(rf"(?<!\w){re.escape(n)}\b", line) for n in names), \
                    (case, captured.err)


_FIRST_RUN = ["--seed", "3", "--max-events", "50", "--record-every", "1"]


@pytest.mark.parametrize("cmd", [
    ["bp", "simulate", *_FIRST_RUN],
    ["attack", "simulate", "--e-xx", "3", "--e-xy", "1", "--e-yy", "3", "--e-yx", "1",
     *_FIRST_RUN],
    ["wm", "simulate", "--params", "{wm}", *_FIRST_RUN],
    ["market", "simulate", *_FIRST_RUN],
    ["market", "closed-form"],
], ids=lambda c: " ".join(c[:2]))
def test_simulate_prints_first_rows_without_out(cmd, wm_params_file, capsys):
    assert main([a.format(wm=wm_params_file) for a in cmd]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert [int(line.split(",")[0]) for line in lines] == list(range(1, 11))


@pytest.mark.parametrize("actuality", ["Z", "f"])
@pytest.mark.parametrize("module", ["wm", "game"])
def test_unknown_actuality_exit_1(module, actuality, wm_params_file, game_params_file,
                                  capsys):
    params = {"wm": wm_params_file, "game": game_params_file}[module]
    assert main([module, "simulate", "--params", params, "--actuality", actuality,
                 "--seed", "1"]) == 1
    assert "actuality" in capsys.readouterr().err


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


_RATIOS_HEAD = "epoch,tau,cx,cy,ax,ay\n"


@pytest.mark.parametrize("argv, text, rc, names", [
    (["game", "design", "--params"], json.dumps(dict(GAME_BLOB, bogus=1)), 1, ["'bogus'"]),
    (["game", "verify", "--params"], json.dumps({"alpha_r": 0.27}), 1, ["'alpha_f'"]),
    (["bp", "simulate", "--config"], "[1, 2]", 2, ["JSON object"]),
    (["bp", "simulate", "--config"], '{"params": 3}', 2, ["JSON object"]),
    (["wm", "design", "--params"],
     json.dumps(dict(WM_BLOB, post=dict(WM_BLOB["post"], bogus=1))), 1, ["post", "'bogus'"]),
    (["wm", "simulate", "--seed", "1", "--params"],
     json.dumps(dict(WM_BLOB, mix=dict(WM_BLOB["mix"], mu3=0))), 1, ["mix", "'mu3'"]),
    (["wm", "learn", "--seed", "1", "--params"], "[3]", 1, ["mapping"]),
    (["bp", "ratios", "--in"], "epoch,tau,cx,cy,ax,ay,psi_c,theta_c,psi_a,theta_a,beta\n",
     1, ["in: ", "no rows"]),
    (["bp", "ratios", "--in"], "", 1, ["in: ", "is empty"]),
    (["game", "verify", "--params"], '{"alpha_r": 0.27,', 1, ["not valid JSON"]),
    (["bp", "simulate", "--config"], "{'seed': 1}", 1, ["not valid JSON"]),
    (["bp", "simulate", "--config"], json.dumps({"params": {"not-a-key": 1}}), 2,
     ["'not-a-key'"]),
    (["wm", "design", "--params"], json.dumps(dict(WM_BLOB, delta="x")), 1,
     ["delta", "'x'"]),
    (["wm", "design", "--params"],
     json.dumps({k: v for k, v in WM_BLOB.items() if k != "delta"}), 1, ["'delta'"]),
    (["game", "design", "--params"], json.dumps(dict(GAME_BLOB, q_p="x")), 1,
     ["q_p: not a number: 'x'"]),
    (["game", "design", "--params"], json.dumps(dict(GAME_BLOB, alpha_r="0.27")), 1,
     ["alpha_r: not a number: '0.27'"]),
    (["bp", "ratios", "--in"], "epoch,tau,cx\n1,0.5,2\n", 1,
     ["in: ", "lacks column(s) ['cy', 'ax', 'ay']"]),
    (["bp", "simulate", "--config"], json.dumps({"params": {"max-events": 100}, "seed": 5}),
     2, ["beside its 'params' object: ['seed']"]),
    (["bp", "simulate", "--config"], '{"m0": 1' + "0" * 400 + "}", 2,
     ["m0: not a number: an integer beyond the float range"]),
    (["game", "design", "--params"], json.dumps(dict(GAME_BLOB, q_p=-10**400)), 1,
     ["q_p: not a number: an integer beyond the float range"]),
    (["bp", "ratios", "--in"], _RATIOS_HEAD + "1,0.5,2,0,2,0\n2,0.9,x,0,3,0\n", 1,
     ["column cx data row 2 must be an integer >= 0, got nan"]),
    (["bp", "ratios", "--in"], _RATIOS_HEAD + "1,0.5,2.5,0,2,0\n", 1,
     ["column cx data row 1 must be an integer >= 0, got 2.5"]),
    (["bp", "ratios", "--in"], _RATIOS_HEAD + "1,0.5,2,-3,2,0\n", 1,
     ["column cy data row 1 must be an integer >= 0, got -3.0"]),
    (["bp", "ratios", "--in"], _RATIOS_HEAD + "1,0.5,2,0,2,0\n0,0.9,1,0,2,0\n", 1,
     ["column epoch data row 2 must be an integer >= 1, got 0.0"]),
    (["bp", "ratios", "--in"], _RATIOS_HEAD + "1,0.5,2,0,2,0\n2,0.9,1,0,2,1e30\n", 1,
     ["column ay data row 2 must be an integer >= 0, got 1e+30"]),
    (["bp", "ratios", "--in"], _RATIOS_HEAD + "1,0.5,2,0,2,0\n2,inf,1,0,2,0\n", 1,
     ["column tau data row 2 must be finite, got inf"]),
    (["bp", "ratios", "--in"], _RATIOS_HEAD + "1,,2,0,2,0\n", 1,
     ["column tau data row 1 must be finite, got nan"]),
    (["wm", "learn", "--seed", "1", "--config"], json.dumps({"params": {"eps-scale": 2.2}}), 2,
     ["unknown keys: ['eps-scale']"]),
    (["bp", "ratios", "--in"], _RATIOS_HEAD + "1,0.5,2,0,2,0\n2,0.9,1,0,2\n3,1.1,1,0,2,0,7\n", 1,
     ["in: ", "line 3 has 5 columns, not 6"]),
    (["bp", "ratios", "--in"], _RATIOS_HEAD + "1,0.5,2,0,2,0\n1,0.9,1,0,2,0\n", 1,
     ["column epoch data row 2 must be >= the previous epoch + 1 (2), got 1.0"]),
    (["bp", "ratios", "--in"], _RATIOS_HEAD + "1,0.5,5,0,1,0\n", 1,
     ["column ax data row 1 must be >= cx (5), got 1.0"]),
    (["bp", "ratios", "--in"], _RATIOS_HEAD + "1,0.5,2,0,2,0 # note\n", 1,
     ["column ay data row 1 must be an integer >= 0, got nan"]),
    (["game", "design", "--params"], json.dumps(dict(GAME_BLOB, resp_b=1.0)), 1, ["'resp_b'"]),
], ids=["game params unknown key", "game params missing key", "config list",
        "config params not an object", "wm post unknown key", "wm mix unknown key",
        "wm params list", "bp ratios header only", "bp ratios empty file",
        "game params invalid JSON", "config invalid JSON", "config unknown key",
        "wm delta not a number", "wm delta missing", "game params q_p not a number",
        "game params alpha_r a string", "bp ratios missing columns",
        "config key beside params", "config m0 beyond the float range",
        "game params q_p beyond the float range", "bp ratios cx not a number",
        "bp ratios cx not an integer", "bp ratios cy negative", "bp ratios epoch 0",
        "bp ratios ay beyond int64", "bp ratios tau infinite", "bp ratios tau empty",
        "wm learn sidecar with a removed key", "bp ratios ragged", "bp ratios epoch repeated",
        "bp ratios ax below cx", "bp ratios comment after a row",
        "game params with the removed resp_b"])
def test_malformed_input_file_names_it(argv, text, rc, names, tmp_path, capsys):
    path = tmp_path / "input.file"
    path.write_text(text)
    assert main([*argv, str(path)]) == rc
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    for name in [str(path), *names]:
        assert name in err


@pytest.mark.parametrize("argv, text, rc, key", [
    (["bp", "simulate", "--config"], '{"max-events": 2.7}', 2, "max-events: not an integer: 2.7"),
    (["bp", "simulate", "--config"], '{"record-every": true}', 2,
     "record-every: not an integer: True"),
    (["bp", "simulate", "--config"], '{"seed": "5"}', 2, "seed: not an integer: '5'"),
    (["bp", "simulate", "--config"], '{"max-events": null}', 2,
     "max-events: not an integer: None"),
    (["market", "metrics", "--config"], '{"rho": null}', 2, "rho: not a number: None"),
    (["market", "propagate", "--config"], '{"graph": null}', 2, "graph: not a string: None"),
    (["market", "propagate", "--config"], '{"graph": "g.txt", "seeds": 5}', 2,
     "seeds: not a string: 5"),
    (["bp", "ratios", "--config"], '{"in": null}', 2, "in: not a string: None"),
    (["wm", "design", "--params", "{wm}", "--config"], '{"iqos": "false"}', 2,
     "iqos: not true or false: 'false'"),
    (["wm", "design", "--params"], json.dumps(dict(WM_BLOB, delta="0.05")), 1,
     "delta: not a number: '0.05'"),
    (["wm", "design", "--params"], json.dumps(dict(WM_BLOB, delta=True)), 1,
     "delta: not a number: True"),
], ids=["config max-events float", "config record-every bool", "config seed string",
        "config max-events null", "config rho null", "config graph null",
        "config seeds int", "config in null", "config iqos string",
        "wm delta string", "wm delta bool"])
def test_json_value_of_another_type_names_it(argv, text, rc, key, wm_params_file, tmp_path,
                                             capsys):
    """A value read from a JSON file is taken only with its parameter's JSON
    type: no coercion, and null only where the parameter is optional."""
    path = tmp_path / "input.json"
    path.write_text(text)
    out = tmp_path / "a.out"
    assert main([*(a.format(wm=wm_params_file) for a in argv), str(path),
                 "--out", str(out)]) == rc
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{path} {key}" in err
    assert not out.exists()


def test_config_params_string_is_the_params_file(wm_params_file, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"params": wm_params_file, "kind": "eh"}))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["wm", "design", "--kind", "eh", "--params", wm_params_file,
                 "--out", str(out1)]) == 0
    assert main(["wm", "design", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    sidecars = [json.loads(Path(str(o) + ".config.json").read_text()) for o in (out1, out2)]
    assert sidecars[0]["params"] == dict(sidecars[1]["params"], out=str(out1))


def test_key_error_in_a_handler_is_not_an_input_error(monkeypatch):
    """A KeyError in a handler is a bug, so it shows its traceback; the one
    KeyError of a bad input, an unknown ``--seeds`` label, is named seeds."""
    def broken(p):
        raise KeyError("x")

    monkeypatch.setitem(_COMMANDS, ("market", "metrics"),
                        (broken, _COMMANDS[("market", "metrics")][1]))
    with pytest.raises(KeyError):
        main(["market", "metrics"])


def test_sidecar_replays_only_into_its_command(tmp_path, capsys):
    out = tmp_path / "a.csv"
    assert main(["bp", "simulate", "--seed", "3", "--max-events", "50", "--out", str(out)]) == 0
    rc = main(["attack", "simulate", "--config", str(out) + ".config.json",
               "--out", str(tmp_path / "b.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'bp simulate'" in err and "'attack simulate'" in err and "Traceback" not in err
    assert not (tmp_path / "b.csv").exists()


def test_cached_parser_keeps_no_state_between_calls(tmp_path):
    assert build_parser() is build_parser()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["market", "metrics", "--rho", "0.4", "--out", str(a)]) == 0
    assert main(["market", "metrics", "--out", str(b)]) == 0
    sidecar = json.loads(Path(str(b) + ".config.json").read_text())
    assert sidecar["params"]["rho"] == _COMMANDS[("market", "metrics")][1]["rho"][1] != 0.4


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


def test_write_csv_matches_scalar(tmp_path, capsys):
    """The one %-format the column dtypes fix writes the per-cell writer's
    bytes for the same cells fed row by row, and the stdout preview is the
    file's first ten rows."""
    floats = [0.1, 1 / 3, math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, -1e-7,
              12345678901234567.0, 2.0 ** 0.5, 12.0]
    n = len(floats)
    ints = np.array([0, 1, -1, 7, 2**53 + 1, np.iinfo(np.int64).max, np.iinfo(np.int64).min,
                     10, 11, 12, 13, 14])
    strs = ["x", "a,b", "", "y z", "1.5", "nan"] * 2
    cases = {
        "arrays": [ints, np.array(floats), np.arange(n) % 3 == 0, np.array(strs)],
        "lists": [ints.tolist(), floats, [k % 2 == 0 for k in range(n)], strs,
                  [k / 7 for k in range(n)]],
        "zero rows": [np.array([], dtype=np.int64), np.array([]), []],
        "no columns": [],
    }
    for name, columns in cases.items():
        write_csv(tmp_path / f"{name}.csv", "a,b,c,d,e", columns)
        write_csv_per_value(tmp_path / f"{name}_ref.csv", "a,b,c,d,e", zip(*columns))
        assert (tmp_path / f"{name}.csv").read_bytes() == \
            (tmp_path / f"{name}_ref.csv").read_bytes(), name
        _emit_csv(None, "a,b,c,d,e", columns)
        lines = (tmp_path / f"{name}.csv").read_text().splitlines(keepends=True)
        assert capsys.readouterr().out == "".join(lines[1:11]), name


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


@pytest.mark.parametrize("layout", [
    lambda text: "\n" + text,
    lambda text: text.replace("\n", "\r\n"),
    lambda text: text.replace(",", ", ", 1),
    lambda text: "  \n" + text.replace("\n", "\n   \n", 3),
    lambda text: text.replace("\n", "\n\n"),
], ids=["leading blank line", "CRLF line ends", "header cell with a space",
        "lines of spaces", "blank lines between rows"])
def test_bp_ratios_reads_layout_variants_alike(layout, tmp_path):
    """Blank lines, CRLF line ends and a space in a header cell leave the
    JSON of a ``bp simulate`` CSV as it is."""
    plain, variant = tmp_path / "plain.csv", tmp_path / "variant.csv"
    assert main(["bp", "simulate", "--seed", "9", "--max-events", "500",
                 "--out", str(plain)]) == 0
    variant.write_bytes(layout(plain.read_text()).encode())
    for path in (plain, variant):
        assert main(["bp", "ratios", "--in", str(path), "--out", f"{path}.json"]) == 0
    assert Path(f"{plain}.json").read_bytes() == Path(f"{variant}.json").read_bytes()


@pytest.mark.parametrize("lam", ["nan", "inf", "-1", "0"])
def test_bp_ratios_lam_must_be_positive(lam, tmp_path, capsys):
    out = tmp_path / "a.csv"
    main(["bp", "simulate", "--seed", "3", "--max-events", "500", "--out", str(out)])
    rc = main(["bp", "ratios", "--in", str(out), "--lam", lam, "--offspring-low-mean", "1.5",
               "--out", str(tmp_path / "r.json")])
    # resolution refuses a NaN or infinite flag (exit 2) before the library's check
    finite = math.isfinite(float(lam))
    assert rc == (1 if finite else 2)
    err = capsys.readouterr().err
    rule = "finite and > 0" if finite else "finite"
    assert f"lam must be {rule}, got {float(lam)}" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("low_mean", ["nan", "inf"])
def test_bp_ratios_low_mean_must_be_finite(low_mean, tmp_path, capsys):
    out = tmp_path / "a.csv"
    main(["bp", "simulate", "--seed", "3", "--max-events", "500", "--out", str(out)])
    rc = main(["bp", "ratios", "--in", str(out), "--offspring-low-mean", low_mean,
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"offspring-low-mean must be finite, got {float(low_mean)}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv, config, message", [
    (["--m-xx", "nan"], None, "m-xx must be finite, got nan"),
    ([], '{"m0": NaN}', "m0 must be finite, got nan"),
    ([], '{"params": {"slope": -Infinity}}', "slope must be finite, got -inf"),
], ids=["flag the ramp model ignores", "config NaN", "sidecar form -Infinity"])
def test_nonfinite_float_refused_at_resolution(argv, config, message, tmp_path, capsys):
    """No parameter takes NaN or an infinity, so no sidecar holds one: the
    run stops before it writes anything."""
    cfg = tmp_path / "c.json"
    cfg.write_text(config or "{}")
    out = tmp_path / "a.csv"
    assert main(["bp", "simulate", "--seed", "1", *argv, "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not Path(str(out) + ".config.json").exists()


@pytest.mark.parametrize("argv", [["market", "metrics"], ["market", "closed-form"]],
                         ids=["json", "csv"])
def test_empty_out_rejected(argv, tmp_path, monkeypatch, capsys):
    """An empty ``--out`` is not "print to stdout": it fails naming ``out``
    before anything runs, and no artifact or sidecar is written."""
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--rho", "0.6", "--out", ""]) == 2
    assert capsys.readouterr() == ("", "error: out must be a file name, got ''\n")
    assert list(tmp_path.iterdir()) == []


def test_unknown_bp_model_exits_2(capsys):
    assert main(["bp", "simulate", "--model", "foo", "--seed", "1"]) == 2
    assert capsys.readouterr().err == "error: model must be 'ramp' or 'constant', got 'foo'\n"


def test_game_simulate_infeasible_design_exits_1(tmp_path, monkeypatch, capsys):
    """``game verify`` and ``game simulate`` refuse the same infeasible
    design, in the same words, and write nothing."""
    monkeypatch.chdir(tmp_path)
    Path("theta1.json").write_text(json.dumps(dict(GAME_BLOB, theta=1.0)))
    for sub, extra in (("verify", []), ("simulate", ["--seed", "1"])):
        assert main(["game", sub, "--params", "theta1.json", *extra, "--out", "x"]) == 1
    err = "error: design infeasible: eta_star <= 0 at theta_tilde=1\n"
    assert capsys.readouterr().err == err * 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["theta1.json"]


@pytest.mark.parametrize("theta", ["-1", "0"])
def test_game_study_theta_at_or_below_zero_names_theta(theta, capsys):
    assert main(["game", "study", "--samples", "5", "--seed", "1", "--theta", theta]) == 1
    assert capsys.readouterr().err == f"error: theta must be in (0, 1], got {float(theta)}\n"


def _strict_json(text):
    """``json.loads`` refusing NaN and +-Infinity, as strict JSON readers do."""
    def refuse(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=refuse)


_NON_FINITE_RESULTS = {
    # one phase: the TeF reaches one below the break, so there is no switch time
    "market metrics one phase": (["market", "metrics", "--rho", "0.6", "--a-break", "45000"],
                                 ["tau_s"]),
    "market metrics start past the break": (["market", "metrics", "--rho", "0.6", "--a0",
                                             "40000"], ["tau_s"]),
    # theta = 1 leaves no participation: an infeasible design has no values
    "game design infeasible": (["game", "design", "--params", "{game_theta_1}"],
                               ["eta", "eta_bar", "eta_star", "gamma", "reward", "theta_tilde",
                                "w", "x_eta"]),
}


@pytest.mark.parametrize("argv, nulls", _NON_FINITE_RESULTS.values(),
                         ids=_NON_FINITE_RESULTS.keys())
def test_non_finite_result_is_written_as_null(argv, nulls, tmp_path):
    params = tmp_path / "game.json"
    params.write_text(json.dumps(dict(GAME_BLOB, theta=1.0)))
    out = tmp_path / "a.json"
    assert main([*(a.format(game_theta_1=params) for a in argv), "--out", str(out)]) == 0
    blob = _strict_json(out.read_text())
    assert sorted(k for k, v in blob.items() if v is None) == nulls
    _strict_json(Path(str(out) + ".config.json").read_text())


def test_attack_analyze_payload(capsys):
    rc = main(["attack", "analyze", "--e-xx", "3", "--e-xy", "1",
               "--e-yy", "3", "--e-yx", "1"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["in_regime_e"] is True
    assert blob["beta_r"] == pytest.approx(0.5)
    assert {"equilibria", "lifted"} <= set(blob)


def test_readme_examples_run(tmp_path, monkeypatch):
    """Every ``bpviral`` line of the README's example block exits 0 from a
    checkout, except ``market fit``, whose SNAP graph is a download."""
    readme = (PARAMS.parent / "README.md").read_text()
    block = readme.split("Examples:\n\n```bash\n", 1)[1].split("```", 1)[0]
    shutil.copytree(PARAMS, tmp_path / "params")
    monkeypatch.chdir(tmp_path)
    skipped = []
    for line in block.splitlines():
        if not line.startswith("bpviral "):
            continue
        argv = shlex.split(line)[1:]
        if argv[:2] == ["market", "fit"]:
            skipped.append(argv)
        else:
            assert main(argv) == 0, line
    assert skipped == [["market", "fit", "--graph", "data/twitter_combined.txt",
                        "--rho", "1.0", "--runs", "200", "--seed", "5"]]


def test_wm_params_file_is_the_naive_benchmark():
    assert wm.PostModel(**WM_BLOB["post"]) == wm.NAIVE_POST
    mix, bench = WM_BLOB["mix"], wm.naive_mix(0.1)
    assert (mix["mu1"], mix["mu2"], mix["mua"]) == (bench.mu1, bench.mu2, bench.mua)
    # 0.35 - 0.1 is 0.24999999999999997; mu0 does not enter the wm fields
    assert mix["mu0"] == pytest.approx(bench.mu0, abs=1e-15)
    assert WM_BLOB["delta"] == 0.05


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


def test_market_propagate_unknown_seed_names_seeds(tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    graph.write_text("0 1\n1 2\n2 0\n")
    rc = main(["market", "propagate", "--graph", str(graph), "--seeds", "0,7", "--seed", "1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: seeds: unknown node id 7\n"


def test_market_propagate_label_outside_int64(tmp_path, capsys):
    bad = tmp_path / "big.txt"
    bad.write_text("0 1\n1 99999999999999999999\n")
    rc = main(["market", "propagate", "--graph", str(bad), "--seeds", "0",
               "--seed", "1"])
    assert rc == 1
    assert "malformed edge on line 2" in capsys.readouterr().err


def _exit_code(argv):
    """2 where a flag's value is NaN or infinite, which resolution refuses;
    1 for any other bad value, which fails where it is used."""
    values = [a.split("=", 1)[-1].lower().lstrip("+-") for a in argv]
    return 2 if {"nan", "inf"} & set(values) else 1


@pytest.mark.parametrize("argv, name", [
    (["bp", "simulate", "--seed", "1", "--record-every", "0"], "record_every"),
    (["bp", "simulate", "--seed", "1", "--replications", "0"], "replications"),
    (["attack", "simulate", "--e-xx", "3", "--e-xy", "1", "--e-yy", "3", "--e-yx", "1",
      "--seed", "1", "--jobs", "0"], "jobs"),
    (["market", "closed-form", "--n-points", "0"], "n_points"),
    (["market", "closed-form", "--n-points", "-3"], "n_points"),
    (["game", "study", "--seed", "1", "--samples", "1", "--d", "1.0"], "d must be in (0, 1)"),
    (["game", "study", "--seed", "1", "--samples", "1", "--d", "0"], "d must be in (0, 1)"),
    (["game", "study", "--seed", "1", "--samples", "1", "--d", "0.65"],
     "d must be <= 1 - 0.30/theta = 0.6 at theta=0.75"),
    (["game", "study", "--seed", "1", "--samples", "3", "--d", "0.8"],
     "d must be <= 1 - 0.30/theta = 0.6 at theta=0.75"),
    (["game", "study", "--samples", "20", "--d", "0.1", "--seed", "11", "--theta", "1.2"],
     "theta must be in (0, 1], got 1.2"),
    (["game", "study", "--samples", "5", "--d", "0.8", "--seed", "1", "--theta", "1.2"],
     "theta must be in (0, 1], got 1.2"),
    (["wm", "learn", "--params", "{wm}", "--seed", "1", "--seed-users", "0"], "seed_users"),
    (["wm", "learn", "--params", "{wm}", "--seed", "1", "--budget", "2000",
      "--target-beta", "nan"], "target-beta must be finite, got nan"),
    (["wm", "learn", "--params", "{wm}", "--seed", "1", "--budget", "2000",
      "--target-beta", "1.5"], "target_beta must be in [0, 1], got 1.5"),
    (["game", "study", "--seed", "1", "--samples", "5", "--gamma-margin", "-1"],
     "gamma_margin must be finite and >= 0, got -1.0"),
    (["game", "design", "--params", "{game_nan}"], "c_e must be finite, got nan"),
    (["game", "study", "--seed", "1", "--samples", "0"], "n_samples"),
    (["market", "fit", "--graph", "{graph}", "--seed", "1", "--bin-width", "0"], "bin_width"),
    (["market", "fit", "--graph", "{graph}", "--seed", "1", "--seeds-per-run", "0"],
     "seeds_per_run"),
    (["market", "propagate", "--graph", "{graph}", "--seed", "1", "--n-seeds", "0"],
     "n_seeds"),
    (["market", "propagate", "--graph", "{graph}", "--seed", "1", "--seeds", "0,x"],
     "seeds must be comma-separated node ids, got '0,x'"),
    (["market", "propagate", "--graph", "{graph}", "--seed", "1", "--seeds", ""],
     "seeds must be comma-separated node ids, got ''"),
], ids=["bp simulate --record-every 0", "bp simulate --replications 0",
        "attack simulate --jobs 0", "market closed-form --n-points 0",
        "market closed-form --n-points -3", "game study --d 1.0", "game study --d 0",
        "game study --d 0.65", "game study --d 0.8", "game study --theta 1.2",
        "game study --theta 1.2 --d 0.8",
        "wm learn --seed-users 0", "wm learn --target-beta nan",
        "wm learn --target-beta 1.5", "game study --gamma-margin -1", "game design c_e NaN",
        "game study --samples 0", "market fit --bin-width 0",
        "market fit --seeds-per-run 0", "market propagate --n-seeds 0",
        "market propagate --seeds 0,x", "market propagate --seeds ''"])
def test_counts_below_one_exit_1(argv, name, wm_params_file, tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    graph.write_text("0 1\n1 2\n2 0\n")
    game_nan = tmp_path / "game_nan.json"
    game_nan.write_text(json.dumps(dict(GAME_BLOB, c_e=math.nan)))
    rc = main([a.format(wm=wm_params_file, graph=graph, game_nan=game_nan) for a in argv])
    assert rc == _exit_code(argv)
    assert name in capsys.readouterr().err


_MARKET_FLAGS = ["--seed", "1", "--graph", "{graph}"]
ATTACK_LIMITS = ["--e-xx", "3", "--e-xy", "1", "--e-yy", "3", "--e-yx", "1"]


@pytest.mark.parametrize("argv, name", [
    (["market", "metrics", "--m-bar", "nan"], "m-bar must be finite, got nan"),
    (["market", "metrics", "--m-bar", "inf"], "m-bar must be finite, got inf"),
    (["market", "simulate", "--a-break", "nan", "--seed", "1"],
     "a-break must be finite, got nan"),
    (["market", "closed-form", "--a-break", "inf"], "a-break must be finite, got inf"),
    (["attack", "analyze", "--e-xx", "3", "--e-xy", "1", "--e-yy", "3", "--e-yx", "nan"],
     "e-yx must be finite, got nan"),
    (["attack", "simulate", "--e-xx", "3", "--e-xy", "1", "--e-yy", "3", "--e-yx", "nan",
      "--seed", "1"], "e-yx must be finite, got nan"),
    (["attack", "analyze", "--e-xx", "inf", "--e-xy", "1", "--e-yy", "3", "--e-yx", "1"],
     "e-xx must be finite, got inf"),
    (["market", "closed-form", "--a0", "-5"], "a0 must be >= 1, got -5"),
    (["market", "metrics", "--a0", "0"], "a0 must be >= 1, got 0"),
    (["market", "fit", *_MARKET_FLAGS, "--rho", "0"], "rho must be in (0, 1], got 0.0"),
    (["market", "fit", *_MARKET_FLAGS, "--rho", "nan"], "rho must be finite, got nan"),
    (["market", "propagate", *_MARKET_FLAGS, "--rho", "-1"], "rho must be in [0, 1], got -1.0"),
    (["market", "propagate", *_MARKET_FLAGS, "--rho", "inf"], "rho must be finite, got inf"),
    (["bp", "simulate", "--m0", "nan", "--seed", "1"], "m0 must be finite, got nan"),
    (["bp", "simulate", "--slope", "inf", "--seed", "1"], "slope must be finite, got inf"),
    (["bp", "simulate", "--floor=-inf", "--seed", "1"], "floor must be finite, got -inf"),
    (["bp", "simulate", "--a-break", "nan", "--seed", "1"], "a-break must be finite, got nan"),
    (["bp", "simulate", "--model", "constant", "--m-xx", "inf", "--seed", "1"],
     "m-xx must be finite, got inf"),
    (["bp", "simulate", "--model", "constant", "--m-yx", "nan", "--seed", "1"],
     "m-yx must be finite, got nan"),
    (["bp", "simulate", "--cx0", "-1", "--seed", "1"], "error: cx must be >= 0, got -1"),
    (["attack", "simulate", *ATTACK_LIMITS, "--cy0", "-1", "--seed", "1"],
     "error: cy must be >= 0, got -1"),
], ids=["market metrics --m-bar nan", "market metrics --m-bar inf",
        "market simulate --a-break nan", "market closed-form --a-break inf",
        "attack analyze --e-yx nan", "attack simulate --e-yx nan",
        "attack analyze --e-xx inf", "market closed-form --a0 -5", "market metrics --a0 0",
        "market fit --rho 0", "market fit --rho nan", "market propagate --rho -1",
        "market propagate --rho inf", "bp simulate --m0 nan", "bp simulate --slope inf",
        "bp simulate --floor -inf", "bp simulate --a-break nan",
        "bp simulate --m-xx inf", "bp simulate --m-yx nan", "bp simulate --cx0 -1",
        "attack simulate --cy0 -1"])
def test_bad_model_parameter_names_it(argv, name, tmp_path, capsys, monkeypatch):
    # the fit draws its first seeds after the check, so no cascade runs
    monkeypatch.setattr("bpviral.market_graph.make_rng", None)
    graph = tmp_path / "graph.txt"
    graph.write_text("0 1\n1 2\n2 0\n")
    assert main([a.format(graph=graph) for a in argv]) == _exit_code(argv)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert name in err


@pytest.mark.parametrize("argv, name", [
    (["market", "fit", "--seeds-per-run", "4"], "seeds_per_run"),
    (["market", "propagate", "--n-seeds", "4"], "n_seeds"),
], ids=["market fit --seeds-per-run 4", "market propagate --n-seeds 4"])
def test_seed_counts_above_graph_size_exit_1(argv, name, tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    graph.write_text("0 1\n1 2\n2 0\n")
    rc = main(argv + ["--graph", str(graph), "--seed", "1"])
    assert rc == 1
    assert f"{name} must be <= 3" in capsys.readouterr().err


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
    for command in (["bp", "simulate"], ["attack", "simulate", *ATTACK_LIMITS]):
        base = [*command, "--seed", "7", "--max-events", "200", "--replications", "3"]
        assert main([*base, "--jobs", "1", "--out", str(tmp_path / "s.csv")]) == 0
        assert main([*base, "--jobs", "2", "--out", str(tmp_path / "p.csv")]) == 0
        for rep in range(3):
            a = (tmp_path / f"s_rep{rep:03d}.csv").read_bytes()
            b = (tmp_path / f"p_rep{rep:03d}.csv").read_bytes()
            assert a == b, (command, rep)


@pytest.mark.parametrize("argv, digest", [
    (["bp", "simulate", "--seed", "11", "--max-events", "300"],
     "f684aab643064015a0df2fb77e0395874e08ff621603f19cc4185e1caef0e717"),
    (["attack", "simulate", *ATTACK_LIMITS, "--seed", "12", "--max-events", "2000",
      "--record-every", "50"],
     "a7c32a6fad15e5f07b84fb10feb1d8e9367252868d3a58c78042e67188ac692c"),
], ids=["bp simulate", "attack simulate"])
def test_cli_replications_pinned(argv, digest, sha256, tmp_path):
    """Frozen replicated artifacts: the rep000-rep002 CSVs, in order."""
    assert main([*argv, "--replications", "3", "--out", str(tmp_path / "r.csv")]) == 0
    reps = [(tmp_path / f"r_rep{rep:03d}.csv").read_bytes() for rep in range(3)]
    assert sha256(*reps) == digest


_PIN_GRAPH = "".join(f"{i} {(i * 7 + 1) % 60}\n{i} {(i + 1) % 60}\n{i} {(i * 13 + 5) % 60}\n"
                     for i in range(60))


@pytest.mark.parametrize("argv, digest", [
    (["wm", "learn", "--params", "{wm}", "--budget", "3000", "--record-every", "100",
      "--seed", "5"],
     "b74b18c3c2653bd9ce3b9972d5a12a4a156ade81a3a3cb4010024322997544e1"),
    (["wm", "simulate", "--params", "{wm}", "--max-events", "2000", "--record-every", "20",
      "--seed", "6"],
     "3228bb9777702bb6de7437e313757ea31da0edc5cdc0da01503aeee5a2a6b0b6"),
    (["market", "simulate", "--rho", "0.6", "--max-events", "3000", "--seed", "2"],
     "933d094ee05c75e47733b67aaa3bf00a9e32360abe84f08256916cb3c597c92c"),
    (["market", "closed-form", "--rho", "0.6", "--n-points", "200"],
     "03359fa5b0987fadb6971fe0e55904c854057d82c5d98f19eadab16ec3416656"),
    (["market", "propagate", "--graph", "{graph}", "--rho", "0.6", "--seed", "3"],
     "eec8f29f44455a0c57277f1b16a7e039a9b6d4170cb8be35b3c6c04e5e2f5ab9"),
    (["game", "simulate", "--params", "{game}", "--k-max", "3000", "--record-every", "50",
      "--seed", "4"],
     "76a727fec5f15d3596a28c0a47246ad437b9fc465b776392e76f8cfc7de2cd51"),
    (["game", "study", "--samples", "300", "--seed", "8"],
     "77483282c0ff09d453ce92f740dd5fc32042a1db12f167d25a9c9e93e20e127f"),
    (["game", "study", "--samples", "50", "--theta", "1", "--d", "0.3", "--seed", "8"],
     "95bf8534192b2e43c99d33ab2ce25de708f91e5dc9a526e2c88f98d77a0ae763"),
    (["bp", "ratios", "--in", "{bp_csv}"],
     "beadc07f7c5e68a0bdeb3f3158f809137272be5a82576ef9c7a43f7394095251"),
], ids=["wm learn", "wm simulate", "market simulate", "market closed-form",
        "market propagate", "game simulate", "game study", "game study infeasible", "bp ratios"])
def test_cli_artifacts_pinned(argv, digest, sha256, wm_params_file, game_params_file,
                              tmp_path):
    """Frozen single-run artifacts of every other command that writes a
    CSV, and the JSON ``bp ratios`` reads from a ``bp simulate`` CSV."""
    graph = tmp_path / "graph.txt"
    graph.write_text(_PIN_GRAPH)
    bp_csv = tmp_path / "bp.csv"
    assert main(["bp", "simulate", "--seed", "9", "--max-events", "500",
                 "--out", str(bp_csv)]) == 0
    files = {"wm": wm_params_file, "game": game_params_file, "graph": str(graph),
             "bp_csv": str(bp_csv)}
    out = tmp_path / "a.out"
    assert main([*(a.format(**files) for a in argv), "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == digest
