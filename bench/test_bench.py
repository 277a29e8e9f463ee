"""Tests of the benchmark itself, at tiny budgets through the same code path.

Run from the repository root: ``python3 -m pytest -q bench``.
"""

import dataclasses
import json
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY = 40  # trajectories: enough to exercise every layer in well under a second
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
COUNTS = (
    "engine.apply_action.calls",
    "engine.apply_action.repeat_ratio",
    "engine.state_cache.apply.calls",
    "engine.state_cache.hit_ratio",
    "engine.legal_actions.calls",
    "costmodel.estimate.calls",
    "costmodel.estimate.repeat_ratio",
    "mcts.run_search.calls",
    "mcts.select_child.calls",
    "mcts.distinct_states",
)


def tiny(name):
    return dataclasses.replace(run.WORKLOADS[name], budget=TINY)


def check_result(result, units):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(units)
    for name, m in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert m["unit"] == units[name] and UNIT.fullmatch(m["unit"])
        assert isinstance(m["value"], (int, float))
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_untraced_and_traced(name):
    untraced = run.measure(name, tiny(name), 3, 0.1, traced=False)
    check_result(untraced, run.END_TO_END)
    assert untraced["attempted"] == run.MIN_UNTRACED * (run.SETUP_PROBES + 1)
    traced = run.measure(name, tiny(name), 3, 0.1, traced=True)
    check_result(traced, run.PER_LAYER)
    assert traced["metrics"]["engine.apply_action.calls"]["value"] > 0


def test_corrupted_report_counts_as_failed(monkeypatch):
    real = run.invoke

    def corrupting(*args, **kwargs):
        inv = real(*args, **kwargs)
        if inv.report is not None:
            report = json.loads(inv.report)
            report["estimate"]["peak_memory_bytes"] += 1
            inv.report = json.dumps(report)
        return inv

    monkeypatch.setattr(run, "invoke", corrupting)
    result = run.measure("penalized", tiny("penalized"), 0, 0.1, traced=False)
    assert not result["correct"]
    assert result["failed"] == run.MIN_UNTRACED


def expected_report(name):
    """A report for the default seed built from expected.json, without a search."""
    wl = run.WORKLOADS[name]
    with open(run.EXPECTED, encoding="utf-8") as f:
        expected = json.load(f)[" ".join(run.cli_args(wl, 0))]
    ref = run.Reference(wl, 0)
    report = dict(expected, graph=ref.graph.name, schedule=wl.schedule,
                  total_budget=wl.budget, seeds_run=list(range(wl.seeds)), goals=[{}])
    return report, ref


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_expected_plans_replay_and_reprice_exactly(name):
    report, ref = expected_report(name)
    problems, lower_s = run.check_report(json.dumps(report), ref)
    assert problems == [] and lower_s > 0


@pytest.mark.parametrize("corrupt", [
    lambda r: r.update(fingerprint=r["fingerprint"] + ";x"),
    lambda r: r["estimate"].update(runtime_seconds=r["estimate"]["runtime_seconds"] * 2),
    lambda r: r["estimate"]["collective_counts"].update(AllGather=0),
    lambda r: r["plan"].pop(),
    lambda r: r.update(seeds_run=[7]),
    lambda r: r.pop("goals"),
    lambda r: r["plan"].append({"group": 10_000, "dim": 0, "axis": "batch"}),
])
def test_gate_rejects_corrupted_reports(corrupt):
    report, ref = expected_report("staged")
    corrupt(report)
    problems, _ = run.check_report(json.dumps(report), ref)
    assert problems


def test_gate_rejects_truncated_report():
    report, ref = expected_report("staged")
    problems, _ = run.check_report(json.dumps(report)[:-5], ref)
    assert problems


def test_every_invocation_gives_identical_report_bytes(tmp_path):
    wl = tiny("staged")
    invs = [run.invoke(wl, 5, mode, str(tmp_path), 60.0) for mode in ("plain", "traced", "plain")]
    assert all(inv.exit_code == 0 for inv in invs)
    assert invs[0].report == invs[1].report == invs[2].report


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    runs = [run.measure(name, tiny(name), 1, 0.1, traced=True) for _ in range(2)]
    first, second = ({k: r["metrics"][k]["value"] for k in COUNTS} for r in runs)
    assert first == second


def test_benchmark_json_names_what_the_benchmark_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
