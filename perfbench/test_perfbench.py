"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert all(result["metrics"][n]["unit"] == units[n] for n in names)


def test_checker_rejects_qos_off_by_a_hundredth():
    for mua, want in checks.EO_QOS.items():
        assert checks.eo_qos(mua, SimpleNamespace(qos=want), iqos=False) is None
        assert checks.eo_qos(mua, SimpleNamespace(qos=want + 0.01), iqos=False)
        assert checks.eo_qos(mua, SimpleNamespace(qos=want - 0.01), iqos=False)
    for mua, want in checks.EH2_IQOS.items():
        assert checks.eh2_iqos(mua, SimpleNamespace(iqos=want)) is None
        assert checks.eh2_iqos(mua, SimpleNamespace(iqos=want + 0.01))


def test_checker_rejects_one_byte_csv_diff(tmp_path):
    from bpviral import cli
    path = tmp_path / "a.csv"
    cli.write_csv(path, "k,beta", [(k, k / 7) for k in range(1, 50)])
    first = path.read_bytes()
    assert checks.same_bytes(first, first) is None
    for at in (0, len(first) // 2, len(first) - 2):
        changed = bytearray(first)
        changed[at] = ord("9") if changed[at] != ord("9") else ord("8")
        assert f"byte {at}" in checks.same_bytes(first, bytes(changed))
    assert checks.same_bytes(first, first[:-1])


def test_self_time_of_a_nested_span_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    spans = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0],
             ["b", 2.0, 3.0, 1, 0], ["c", 5.0, 9.0, 0, 0]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    t = tracing.totals(spans)
    assert t["root"]["incl_s"] == 10.0 and t["a"]["self_s"] == 2.0


def test_same_name_nesting_counts_inclusive_time_once():
    spans = [["wm.design", 0.0, 6.0, -1, 0], ["wm.design", 1.0, 5.0, 0, 0],
             ["ode_engine.classify_scalar", 2.0, 4.0, 1, 0]]
    t = tracing.totals(spans)
    assert t["wm.design"] == {"calls": 2, "incl_s": 6.0, "self_s": 4.0}
    assert t["ode_engine.classify_scalar"]["self_s"] == 2.0


def test_tracer_sees_calls_through_from_imports_and_restores():
    modules = workloads.load_bpviral()
    wm, ode = modules["wm"], modules["ode_engine"]
    original = ode.classify_scalar
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        assert wm.classify_scalar is ode.classify_scalar is not original
        post = wm.PostModel(**workloads.NAIVE_POST)
        wm.design_eh2(post, workloads.naive_mix(wm, 0.1), 0.05)
    finally:
        tracer.uninstall()
    assert wm.classify_scalar is ode.classify_scalar is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "wm.design" and "ode_engine.classify_scalar" in names
    assert all(s[tracing.PARENT] == 0 for s in tracer.spans[1:])


def test_tail_keeps_ten_tasks_beyond():
    pct, value = run.tail([float(i) for i in range(1, 101)], guaranteed=100)
    assert pct == 90.0 and value == 90.0
    # more rounds than guaranteed keep the percentile; more tasks lie beyond
    pct, value = run.tail([float(i) for i in range(200, 0, -1)], guaranteed=100)
    assert pct == 90.0 and value == 180.0
    pct, value = run.tail([float(i) for i in range(1, 41)], guaranteed=40)
    assert pct == 75.0 and value == 30.0


def test_task_times_are_taken_at_the_reference_pace():
    ref, Task = run.REFERENCE_S, workloads.Task
    tasks = []
    for r, slow in enumerate([1.0, 2.0, 3.0, 1.5]):
        # 10 ms at the reference pace, whatever the machine's pace
        tasks.append(Task(r, "steady", 0.010 * slow, None, ref * slow, ref * slow))
        # 20 ms while the pace drifts from 1x to 3x of the machine's
        tasks.append(Task(r, "drifting", 0.020 * slow * 2, None, ref * slow, ref * slow * 3))
    # the last round was traced, so it is left out
    steady, drifting = run.task_times(SimpleNamespace(tasks=tasks), [0, 1, 2])
    assert steady == pytest.approx(0.010)
    assert drifting == pytest.approx(0.020)
