"""Tests for the run-report renderer."""

import pytest

from repro.config import GenParallelConfig, ParallelConfig
from repro.data.dataset import PromptDataset, SyntheticPreferenceTask
from repro.rlhf.core import AlgoType
from repro.runtime import ModelAssignment, PlacementPlan, build_rlhf_system
from repro.runtime.presets import TINY_LM, tiny_plan
from repro.runtime.report import (
    dataflow_summary,
    memory_summary,
    metrics_summary,
    placement_summary,
    system_report,
    traffic_summary,
)



@pytest.fixture(scope="module")
def trained_system():
    task = SyntheticPreferenceTask(vocab_size=16)
    system = build_rlhf_system(
        AlgoType.PPO,
        tiny_plan(AlgoType.PPO),
        TINY_LM,
        reward_fn=task.reward,
        max_new_tokens=5,
    )
    system.trainer.train(PromptDataset(32, 4, 16, seed=1), 2, 8)
    return system


class TestSections:
    def test_placement_lists_all_models(self, trained_system):
        text = "\n".join(placement_summary(trained_system))
        for role in ("actor", "critic", "reference", "reward"):
            assert role in text
        assert "generation" in text  # the actor's gen topology

    def test_dataflow_counts_calls(self, trained_system):
        text = "\n".join(dataflow_summary(trained_system))
        assert "actor.generate_sequences" in text
        assert "x2" in text  # two iterations

    def test_traffic_nonzero(self, trained_system):
        text = "\n".join(traffic_summary(trained_system))
        assert "total" in text
        assert "0.0 B total" not in text

    def test_memory_covers_every_device(self, trained_system):
        text = "\n".join(memory_summary(trained_system))
        assert text.count("GPU ") == 3  # 2 main + 1 reward device

    def test_metrics_trend(self, trained_system):
        text = "\n".join(metrics_summary(trained_system))
        assert "score_mean" in text and "->" in text


class TestFullReport:
    def test_report_renders(self, trained_system):
        text = system_report(trained_system)
        assert "RLHF system report" in text
        assert "execution timeline" in text

    def test_report_without_timeline(self, trained_system):
        text = system_report(trained_system, include_timeline=False)
        assert "execution timeline" not in text

    def test_untrained_system_report(self):
        par = ParallelConfig(1, 1, 1)
        plan = PlacementPlan(
            pools={"main": 1, "r": 1},
            assignments={
                "actor": ModelAssignment(
                    "main", par, GenParallelConfig.derive(par, 1, 1)
                ),
                "critic": ModelAssignment("main", par),
                "reference": ModelAssignment("main", par),
                "reward": ModelAssignment("r", par),
            },
        )
        task = SyntheticPreferenceTask(vocab_size=16)
        system = build_rlhf_system(
            AlgoType.PPO, plan, TINY_LM, reward_fn=task.reward
        )
        text = system_report(system)
        assert "no training iterations" in text
