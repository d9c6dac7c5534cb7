"""Each experiment script's ``main(argv)`` at small sizes."""

import importlib.util
from pathlib import Path

import pytest

from bpviral import bp_core
from bpviral.wm import SMART_POST, optimize_eo, smart_mix

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(argv) == 0
    return capsys.readouterr().out


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def test_attack_limit_histogram(capsys):
    out = run_script("attack_limit_histogram",
                     ["--replications", "3", "--events", "2000"], capsys)
    assert out.startswith("regime E: True")
    assert " / 3 runs" in out
    assert len(out.splitlines()) == 2 + 20


def test_game_degradation_study(capsys):
    out = run_script("game_degradation_study",
                     ["--samples", "50", "--d-values", "0.08"], capsys)
    lines = out.splitlines()
    assert len(lines) == 2 and lines[1].split()[0] == "0.08"


def test_learning_convergence(capsys):
    out = run_script("learning_convergence", ["--runs", "1", "--budgets", "2000"], capsys)
    assert out.startswith("perfect-knowledge i-QoS:")
    assert "budget    2000: fraction within 0.05 = " in out


def test_learning_convergence_runs_through_replicate(monkeypatch, capsys):
    calls, replicate = [], bp_core.replicate

    def spy(run, seed, replications, jobs=1):
        calls.append((seed, replications))
        return replicate(run, seed, replications, jobs)

    monkeypatch.setattr(bp_core, "replicate", spy)
    run_script("learning_convergence", ["--runs", "2", "--budgets", "1000,2000"], capsys)
    # one driver call per budget, so run r draws from stream (seed, r)
    assert calls == [(61_000, 2)] * 2


def test_market_trajectories(tmp_path, capsys):
    out = run_script("market_trajectories", [], capsys)
    rows = (tmp_path / "market_trajectories.csv").read_text().splitlines()
    assert rows[0] == "n,a_sim,c_sim,a_cf,c_cf"
    assert len(rows) > 2
    assert "simulated reach" in out


def test_warning_mechanism_curves(tmp_path, capsys):
    run_script("warning_mechanism_curves", ["--steps", "2"], capsys)
    rows = (tmp_path / "wm_iqos_curves.csv").read_text().splitlines()
    assert rows[0] == "profile,mua,eo,ea,eh,eh2"
    assert [r.split(",")[:2] for r in rows[1:]] == [
        ["smart", "0.0"], ["smart", "0.3"], ["naive", "0.0"], ["naive", "0.3"]]
    for row in rows[1:3]:
        _, mua, eo = row.split(",")[:3]
        assert float(eo) == optimize_eo(SMART_POST, smart_mix(float(mua)), 0.02).iqos
