"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

Runs are tiny (a few items each); they check the harness, not the speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(name, trace=0):
    return run.run_workload(name, seed=7, seconds=0, trace=trace, limit=3)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_emits_every_metric(name, trace):
    record = _tiny(name, trace)
    assert record["correct"], record["failures"]
    line = json.loads(run.result_line(record, run.benchmark_metrics(trace)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] == 3 * record["passes"] and line["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(line["metrics"][m["name"]]["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
        assert set(record["wall_clock"]) == {"setup_wall_s", "wall_s",
                                             "item_p50_ms", "item_p90_ms"}


def _corrupt(name, out):
    res = json.loads(out)
    if name == "datum-pipeline":
        tilde = json.loads(res[0][1])
        tilde["structure"]["ok"] = False
        res[0][1] = json.dumps(tilde)
    elif name == "oracle-sweep":
        if "complete" in res:
            res["complete"] = False
        else:
            res["failures"] = [{"reason": "injected"}]
    else:
        res["fibers"][1]["matched"] = False
    return json.dumps(res)


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_output_counts_in_fail_ratio(name, monkeypatch):
    wl = workloads.WORKLOADS[name]
    target = wl.make_items(7)[1]
    real_run = wl.run

    def corrupting_run(env, item):
        out = real_run(env, item)
        return _corrupt(name, out) if item == target else out

    monkeypatch.setattr(wl, "run", corrupting_run)
    record = _tiny(name)
    assert record["failed"] == 1 and record["attempted"] == 3
    assert record["fail_ratio"] == pytest.approx(1 / 3)
    assert not record["correct"]
    assert json.loads(run.result_line(record, run.benchmark_metrics(0)))["failed"] == 1


def test_raising_item_counts_as_failed(monkeypatch):
    wl = workloads.WORKLOADS["mutation-census"]
    target = wl.make_items(7)[2]
    real_run = wl.run

    def raising_run(env, item):
        if item == target:
            raise ValueError("injected")
        return real_run(env, item)

    monkeypatch.setattr(wl, "run", raising_run)
    record = _tiny("mutation-census")
    assert record["failed"] == 1
    assert "injected" in record["failures"][0]["error"]


def test_output_change_between_passes_is_a_failure(monkeypatch):
    wl = workloads.WORKLOADS["oracle-sweep"]
    real_run = wl.run
    calls = []

    def drifting_run(env, item):
        calls.append(item)
        out = json.loads(real_run(env, item))
        out["drift"] = len(calls)
        return json.dumps(out)

    monkeypatch.setattr(wl, "run", drifting_run)
    record = _tiny("oracle-sweep", trace=1)
    # the base pass is the reference; every item of both traced passes differs
    assert record["failed"] == 6
    assert all(f["error"] == "output differs from the first pass"
               for f in record["failures"])


def test_counters_that_do_not_repeat_flag_the_run(monkeypatch):
    wl = workloads.WORKLOADS["datum-pipeline"]
    real_run = wl.run
    calls = []

    def counting_run(env, item):
        calls.append(item)
        env.count("workbench.output_bytes", len(calls))
        return real_run(env, item)

    monkeypatch.setattr(wl, "run", counting_run)
    record = _tiny("datum-pipeline", trace=1)
    assert record["failed"] == 0
    assert not record["counters_repeat"] and not record["correct"]


def test_untraced_passes_install_no_wrappers(monkeypatch):
    wl = workloads.WORKLOADS["oracle-sweep"]
    real_run = wl.run
    seen = []

    def probing_run(env, item):
        td = env.td
        seen.append(any(hasattr(f, "__wrapped__") for f in (
            td.oracle.lattice_points, td.polyhedral.lattice_points,
            td.lattice.primitive, td.polyhedral.Cone.from_generators.__func__)))
        return real_run(env, item)

    monkeypatch.setattr(wl, "run", probing_run)
    run.run_workload("oracle-sweep", seed=7, seconds=0, trace=1, limit=1)
    # three set-up warm-ups and the base pass unwrapped, two traced passes wrapped
    assert seen == [False] * 4 + [True] * 2


def test_tracer_wraps_every_binding_and_restores_them():
    td = run.load_package()
    before = {(m.__name__, k): v for m in td.all_modules for k, v in vars(m).items()}
    hull = vars(td.polyhedral.Cone)["from_generators"]
    t = tracer.Tracer()
    t.install(td)
    try:
        assert td.oracle.lattice_points is td.polyhedral.lattice_points
        assert td.polyhedral.primitive is td.lattice.primitive
        assert hasattr(td.oracle.lattice_points, "__wrapped__")
        assert hasattr(td.polyhedral.primitive, "__wrapped__")
        assert not hasattr(td.lattice.dot, "__wrapped__")
        td.polyhedral.Cone.from_generators(2, [(1, 0), (0, 1)])
        assert t.calls["polyhedral.Cone.from_generators"] == 1
        assert t.calls["polyhedral.dual_description"] == 2
        assert t.counters["polyhedral.hull.max_rank"] == 2
        spans = [s for s in t.spans if s is not None]
        names = {t.names[s[0]] for s in spans}
        assert "lattice.primitive" not in names  # counted, no span
        assert t.calls["lattice.primitive"] > 0
    finally:
        t.uninstall()
    after = {(m.__name__, k): v for m in td.all_modules for k, v in vars(m).items()}
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert vars(td.polyhedral.Cone)["from_generators"] is hull


@pytest.mark.parametrize("name", NAMES)
def test_inputs_depend_only_on_the_seed(name):
    wl = workloads.WORKLOADS[name]
    items = wl.make_items(3)
    assert len(items) >= 100
    assert json.dumps(items) == json.dumps(wl.make_items(3))
    assert json.dumps(items) != json.dumps(wl.make_items(4))


def test_planar_mutation_reference_on_p2_p114():
    poly = [(1, 0), (0, 1), (-1, -1)]
    assert workloads._valid_mutation(poly, (-1, 2), (2, 1))
    assert workloads._mutant(poly, (-1, 2), (2, 1)) == [(-1, -1), (0, 1), (4, 3)]
    assert not workloads._valid_mutation(poly, (-1, 2), (4, 2))


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "%s/run.py" % BENCH.name, "--workload", "datum-pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
