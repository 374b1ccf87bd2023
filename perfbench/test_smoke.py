"""Smoke test of the benchmark at tiny shapes.

Run from the root of the repository::

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run.run_workload(workload, seed=3, seconds=0.0, trace=False, size="tiny")
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for name, metric in metrics.items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    from repro.models.tinylm import TinyLM

    forward = TinyLM.forward
    result = run.run_workload(workload, seed=3, seconds=0.0, trace=True, size="tiny")
    assert result["correct"], result["problems"]
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}
    assert all(math.isfinite(v) for v in values.values())
    # the shims are gone once the run ends
    assert TinyLM.forward is forward
    assert values["models.forward_calls"] > 0
    assert values["models.forward_infer_s"] > 0
    assert 0.5 < values["trace.coverage_frac"] <= 1.0
    serving = workload != "ppo_colocated"
    assert (values["serving.steps"] > 0) == serving
    assert (values["serving.forwards_per_step"] >= 1) == serving
    if workload == "rollout_ragged_drain":
        assert values["single_controller.dispatches"] == 0
        assert values["models.backward_s"] == 0
    else:
        assert values["single_controller.dispatches"] == (
            7 if workload == "ppo_colocated" else 5
        )
        assert values["hybrid_engine.transitions"] == 2
        assert values["comm.bytes_per_iter"] > 0
        for name in ("workers.generation_s", "workers.training_s",
                     "models.backward_s", "models.adam_s", "rlhf.advantage_s"):
            assert values[name] > 0, name


def test_nan_reward_is_counted_in_failed_frac():
    def nan_reward(responses):
        return np.full(responses.shape[0], np.nan)

    result = run.run_workload(
        "ppo_colocated", seed=3, seconds=0.0, trace=False, size="tiny",
        reward_fn=nan_reward,
    )
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any("non-finite" in p for p in result["problems"])


def test_run_without_program_source_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
