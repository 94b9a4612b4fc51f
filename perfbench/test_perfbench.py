"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repo root)."""

import json
from pathlib import Path

import pytest

import run
from tracer import LAYERS
from workloads import LAYER_MAP, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# 16^2 box, five RK4 steps: a full evolve suite in well under a second
TINY = {"experiment": "evolve", "n": 3, "k": 2, "cells": 16, "dt": 0.02, "t_final": 0.1}
# dt above the Courant bound 0.4 * h / c = 0.025: the cfl check fails
OVER_CFL = {**TINY, "dt": 0.05}


def _printed(capsys, summary):
    run.report(summary)
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_smoke_prints_every_end_to_end_metric(capsys):
    summary = run.bench(ROOT, "smoke", seed=0, seconds=0, trace=False, configs=[TINY])
    lines, result = _printed(capsys, summary)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_REPS
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
        assert any(line.split()[:1] == [metric["name"]] and line.endswith(" " + metric["unit"])
                   for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_traced_smoke_prints_every_layer_metric(capsys):
    summary = run.bench(ROOT, "smoke", seed=0, seconds=0, trace=True, configs=[TINY])
    lines, result = _printed(capsys, summary)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.split()[:1] == [metric["name"]] for line in lines)
    assert result["metrics"]["evolution.steps"]["value"] == 5
    assert result["metrics"]["system.rhs_sources.calls"]["value"] == 20


def test_self_times_and_untraced_time_add_up_to_wall_time():
    summary = run.bench(ROOT, "smoke", seed=0, seconds=0, trace=True, configs=[TINY])
    traced_wall = summary["reps"][-1]["run_s"]
    metrics = summary["metrics"]
    accounted = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    accounted += metrics["trace.outside_s"]["value"]
    assert accounted == pytest.approx(traced_wall, rel=1e-9, abs=1e-12)


def test_failing_config_counts_as_failed_not_crash(capsys):
    summary = run.bench(ROOT, "smoke", seed=0, seconds=0, trace=False, configs=[OVER_CFL])
    _, result = _printed(capsys, summary)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= run.MIN_REPS
    assert summary["failed_share"] == 1.0
    assert all("not passed" in " ".join(rep["problems"]) for rep in summary["reps"])


def test_pin_mismatch_is_a_problem():
    manifests = {"green_suite": {"checks": [{"name": "right_inverse_defect", "measure": 1.0}]}}
    assert run.check_pins(manifests, {"green_suite": {"right_inverse_defect": 1.0 + 1e-7}}) == []
    assert run.check_pins(manifests, {"green_suite": {"right_inverse_defect": 1.001}})
    assert run.check_pins(manifests, {"green_suite": {"sequence_defect_a": 1.0}})


def test_spec_matches_workloads_and_layer_map():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: spec["why"] for name, spec in WORKLOADS.items()
    }
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(LAYER_MAP) <= per_layer
    for metrics, workload, suites in LAYER_MAP.values():
        assert set(metrics) <= {m["name"] for m in SPEC["end_to_end"]}
        assert set(suites) <= {cfg["experiment"] for cfg in WORKLOADS[workload]["configs"]}
