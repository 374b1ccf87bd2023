"""Trace pass: vector-clock happens-before analysis (RC5xx).

A clean functional run must produce zero findings (program order, lineage
deps, and controller barriers cover every recorded access); a seeded
unordered conflicting write pair must be flagged.  The live and the Chrome
trace loaders must agree on every rule both can check.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.analysis import Call, RunRecord, audit_run
from repro.config import ClusterSpec
from repro.data import PromptDataset, SyntheticPreferenceTask
from repro.rlhf.core import AlgoType
from repro.observability import render_chrome_trace
from repro.rlhf.trainers import TrainerConfig
from repro.runtime import build_rlhf_system
from repro.runtime.presets import TINY_LM, tiny_plan
from repro.runtime.timeline import Timeline, TimelineEvent
from repro.single_controller import (
    SingleController,
    Worker,
    WorkerGroup,
    register,
)
from repro.single_controller.access_log import AccessEvent
from repro.single_controller.protocols import (
    ProtocolRequires,
    TransferProtocol,
    register_protocol,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "chrome_trace.json"


def _call(seq, pool, deps=()):
    """One hand-built dispatched call."""
    return Call(seq, pool, f"{pool}.m{seq}", tuple(deps))


def _tiny_system():
    task = SyntheticPreferenceTask(vocab_size=16, target_token=7)
    return build_rlhf_system(
        AlgoType.PPO,
        tiny_plan(AlgoType.PPO),
        TINY_LM,
        trainer_config=TrainerConfig(kl_coef=0.01, seed=7),
        reward_fn=task.reward,
        max_new_tokens=5,
        lr=5e-3,
        seed=7,
    )


class TestCleanRuns:
    def test_functional_ppo_run_has_no_races(self):
        system = _tiny_system()
        dataset = PromptDataset(32, 4, 16, seed=1)
        system.trainer.train(dataset, 2, 8)
        report = audit_run(system)
        assert report.findings == [], "\n".join(report.summary_lines())
        # the pass saw real work: dispatches, merge buffers, device memory
        assert report.checked["calls"] > 0
        assert report.checked["merge_checks"] > 0
        assert report.checked["resources"] > 0
        assert report.checked["vc_comparisons"] > 0

    def test_run_records_memory_and_merge_accesses(self):
        system = _tiny_system()
        dataset = PromptDataset(32, 4, 16, seed=1)
        system.trainer.train(dataset, 1, 8)
        resources = {e.resource for e in system.controller.access_log.events}
        assert any(r.startswith("mem[") for r in resources)
        assert any(r.startswith("merge[") for r in resources)

    def test_checkpoint_roundtrip_stays_clean(self, tmp_path):
        system = _tiny_system()
        dataset = PromptDataset(32, 4, 16, seed=1)
        system.trainer.train(dataset, 1, 8)
        ckpt = str(tmp_path / "ckpt")
        system.controller.save_checkpoint(ckpt)
        system.controller.load_checkpoint(ckpt)
        events = system.controller.access_log.events
        assert any(e.resource == f"checkpoint:{ckpt}" for e in events)
        report = audit_run(system)
        assert report.findings == [], "\n".join(report.summary_lines())
        # checkpoint accesses run in controller context -> barrier nodes
        assert report.checked["barriers"] >= 1

    def test_golden_chrome_trace_has_no_races(self):
        doc = json.loads(GOLDEN.read_text())
        report = audit_run(doc)
        assert report.findings == [], "\n".join(report.summary_lines())
        assert report.checked["calls"] > 0


class TestSeededRaces:
    def test_cross_pool_unordered_writes_are_rc501(self):
        trace = [_call(0, "a"), _call(1, "b")]
        events = [
            AccessEvent("write", "shared", 0, seq=0, after_seq=0),
            AccessEvent("write", "shared", 1, seq=1, after_seq=1),
        ]
        report = audit_run(RunRecord(calls=trace, events=events))
        assert [f.rule for f in report.findings] == ["RC501"]
        assert "shared" in report.findings[0].location

    def test_lineage_dep_orders_the_writes(self):
        trace = [_call(0, "a"), _call(1, "b", deps=[0])]
        events = [
            AccessEvent("write", "shared", 0, seq=0, after_seq=0),
            AccessEvent("write", "shared", 1, seq=1, after_seq=1),
        ]
        report = audit_run(RunRecord(calls=trace, events=events))
        assert report.findings == []

    def test_controller_barrier_orders_the_writes(self):
        trace = [_call(0, "a"), _call(1, "b")]
        events = [
            AccessEvent("write", "shared", 0, seq=0, after_seq=0),
            AccessEvent("write", "shared", 1, seq=1, after_seq=1),
            # controller-context access between the dispatches joins both pools
            AccessEvent("read", "other", -1, seq=None, after_seq=1),
        ]
        report = audit_run(RunRecord(calls=trace, events=events))
        assert report.findings == []

    def test_reads_alone_do_not_race(self):
        trace = [_call(0, "a"), _call(1, "b")]
        events = [
            AccessEvent("read", "shared", 0, seq=0, after_seq=0),
            AccessEvent("read", "shared", 1, seq=1, after_seq=1),
        ]
        report = audit_run(RunRecord(calls=trace, events=events))
        assert report.findings == []

    def test_dangling_access_is_rc503(self):
        trace = [_call(0, "a")]
        events = [AccessEvent("write", "x", 0, seq=99, after_seq=0)]
        report = audit_run(RunRecord(calls=trace, events=events))
        assert [f.rule for f in report.findings] == ["RC503"]

    def test_cross_controller_deps_are_skipped_silently(self):
        # lineage from another controller's trace: seq 40 does not exist here
        trace = [_call(0, "a"), _call(1, "a", deps=[40])]
        report = audit_run(RunRecord(calls=trace))
        assert report.findings == []
        assert report.checked["skipped_deps"] == 1


class TestLoadersAgree:
    """A live run's record and its exported Chrome trace give the same
    findings on the rules both carry: TA201, TA202, and dependency
    resolution (RC5xx with no access log)."""

    @pytest.fixture(scope="class")
    def live(self):
        system = _tiny_system()
        system.trainer.train(PromptDataset(32, 4, 16, seed=1), 2, 8)
        record = RunRecord.from_system(system)
        # an exported trace carries no access log and no ledgers
        return RunRecord(calls=record.calls, spans=record.spans)

    @staticmethod
    def _agreed_report(record):
        timeline = Timeline(
            [
                TimelineEvent(c.seq, c.name, c.pool, c.start, c.end)
                for c in record.calls
            ]
        )
        doc = json.loads(
            render_chrome_trace(timeline=timeline, spans=record.spans)
        )
        live, exported = audit_run(record), audit_run(doc)
        assert exported.findings == live.findings
        assert exported.checked == live.checked
        return live

    def test_clean_run(self, live):
        report = self._agreed_report(live)
        assert report.findings == []
        assert report.checked["calls"] == len(live.calls)

    def test_injected_pool_overlap(self, live):
        calls = list(live.calls)
        first, second = [
            i for i, c in enumerate(calls) if c.pool == calls[0].pool
        ][:2]
        # the pool's second call starts before its first one ends
        calls[second] = dataclasses.replace(
            calls[second], start=calls[first].end - 0.5
        )
        report = self._agreed_report(dataclasses.replace(live, calls=calls))
        assert [f.rule for f in report.findings] == ["TA201"]

    def test_child_span_escaping_its_parent(self, live):
        spans = list(live.spans)
        by_id = {s.span_id: s for s in spans}
        i = next(i for i, s in enumerate(spans) if s.parent_id in by_id)
        parent = by_id[spans[i].parent_id]
        spans[i] = dataclasses.replace(spans[i], end=parent.end + 1.0)
        report = self._agreed_report(dataclasses.replace(live, spans=spans))
        assert [f.rule for f in report.findings] == ["TA202"]


class _UnorderedWorker(Worker):
    @register(protocol="test_completion_order")
    def produce(self):
        return self.ctx.global_rank


class TestMergeHazard:
    @pytest.fixture(autouse=True)
    def _protocol(self):
        # a custom protocol collecting in completion order — the
        # merge_outputs hazard §4.1 warns user protocols about
        register_protocol(
            TransferProtocol(
                "test_completion_order",
                lambda group, args, kwargs: [(args, kwargs)] * group.world_size,
                lambda group, outputs: outputs,
                requires=ProtocolRequires(deterministic_collect=False),
            )
        )

    def test_nondeterministic_collect_is_rc502(self):
        controller = SingleController(ClusterSpec(n_machines=1))
        pool = controller.create_pool(2, name="main")
        group = WorkerGroup(
            _UnorderedWorker, pool, controller=controller, name="g"
        )
        group.produce()
        report = audit_run(controller)
        assert [f.rule for f in report.findings] == ["RC502"]
        finding = report.findings[0]
        assert finding.location == "merge[g.produce]"
        assert "deterministic merge order" in finding.message

    def test_deterministic_protocols_stay_clean(self):
        controller = SingleController(ClusterSpec(n_machines=1))
        pool = controller.create_pool(2, name="main")

        class OrderedWorker(Worker):
            @register(protocol="one_to_all")
            def produce(self):
                return self.ctx.global_rank

        group = WorkerGroup(
            OrderedWorker, pool, controller=controller, name="g"
        )
        group.produce()
        report = audit_run(controller)
        assert report.findings == []
        assert report.checked["merge_checks"] >= 1
