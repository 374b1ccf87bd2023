"""Tests for the continuous-batching rollout serving engine.

Covers the paged block manager's budget accounting, the scheduler's
priority/aging/preemption policies, the engine's bit-exactness against the
sequential sampler, the one-forward ragged decode against the per-slot
oracle, and the cross-check against the analytic schedule in
``repro.perf.continuous_batching``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.device import SimDevice
from repro.config import GpuSpec
from repro.models.sampler import generate
from repro.models.tinylm import TinyLM, TinyLMConfig
from repro.perf.continuous_batching import (
    continuous_schedule_stats,
    static_schedule_stats,
)
from repro.serving import (
    BlockExhausted,
    PagedKVCache,
    RolloutServer,
    ServingConfig,
    ServingReport,
    kv_bytes_per_token,
    static_batch_steps,
)

CFG = TinyLMConfig(
    n_layers=2,
    hidden_size=16,
    n_heads=2,
    ffn_hidden_size=24,
    vocab_size=13,
    max_seq_len=48,
)


@pytest.fixture
def model():
    return TinyLM(CFG, seed=4)


def make_server(model, **overrides):
    defaults = dict(max_slots=4, block_size=4, greedy=True)
    defaults.update(overrides)
    return RolloutServer(model, ServingConfig(**defaults))


def submit_all(server, prompts, budgets, **kwargs):
    for row, budget in zip(prompts, budgets):
        server.submit(row, max_new_tokens=int(budget), **kwargs)


def drain_with_invariants(server, max_steps=10_000):
    """Drain while asserting the block accounting after every step."""
    while server.pending:
        server.step()
        server.scheduler.check_invariants()
        if server._steps > max_steps:
            raise RuntimeError("did not drain")
    return server.report()


class TestPagedKVCache:
    def test_blocks_needed_rounds_up(self):
        kv = PagedKVCache(CFG, block_size=4, n_blocks=8)
        assert kv.blocks_needed(1) == 1
        assert kv.blocks_needed(4) == 1
        assert kv.blocks_needed(5) == 2
        assert kv.blocks_needed(0) == 0

    def test_reserve_release_roundtrip(self):
        kv = PagedKVCache(CFG, block_size=4, n_blocks=8)
        kv.reserve(0, 6)
        assert kv.blocks_in_use == 2
        assert len(kv.block_table(0)) == 2
        kv.reserve(0, 7)  # same block count: no new allocation
        assert kv.blocks_in_use == 2
        kv.reserve(0, 9)
        assert kv.blocks_in_use == 3
        kv.release(0)
        assert kv.blocks_in_use == 0
        assert kv.block_table(0) == []

    def test_exhaustion_raises_with_counts(self):
        kv = PagedKVCache(CFG, block_size=4, n_blocks=2)
        kv.reserve(0, 8)
        with pytest.raises(BlockExhausted) as exc:
            kv.reserve(1, 4)
        assert exc.value.free == 0
        assert exc.value.total == 2

    def test_bytes_accounting_tracks_blocks(self):
        kv = PagedKVCache(CFG, block_size=4, n_blocks=8)
        per_block = kv_bytes_per_token(CFG) * 4
        kv.reserve(0, 5)
        assert kv.bytes_in_use() == 2 * per_block
        kv.reserve(1, 3)
        assert kv.peak_bytes_in_use() == 3 * per_block
        kv.release(0)
        kv.release(1)
        assert kv.bytes_in_use() == 0
        assert kv.peak_bytes_in_use() == 3 * per_block

    def test_device_ledger_charged_and_freed(self):
        device = SimDevice(0, 0, GpuSpec())
        kv = PagedKVCache(CFG, block_size=4, n_blocks=8, device=device)
        kv.reserve(0, 8)
        assert device.memory.bytes_for("serving/kv_blocks") == kv.bytes_in_use()
        kv.release(0)
        assert device.memory.bytes_for("serving/kv_blocks") == 0


class TestStreamedHandoff:
    """drain(on_finish=...) hands each response off the moment it finishes."""

    def test_on_finish_fires_once_per_request_in_finish_order(self, model):
        server = make_server(model, max_slots=2)
        rng = np.random.default_rng(5)
        budgets = [2, 5, 3]
        for budget in budgets:
            server.submit(
                rng.integers(0, CFG.vocab_size, size=4),
                max_new_tokens=budget,
            )
        streamed = []
        report = server.drain(on_finish=streamed.append)
        assert len(streamed) == len(budgets)
        assert sorted(r.request_id for r in streamed) == [0, 1, 2]
        # the callback sees responses as they finish, not in submit order
        times = [r.finish_time for r in streamed]
        assert times == sorted(times)
        # and the same objects land in the final report
        assert {id(r) for r in streamed} == {id(r) for r in report.completed}

    def test_drain_without_callback_unchanged(self, model):
        server = make_server(model, max_slots=2)
        rng = np.random.default_rng(5)
        for _ in range(3):
            server.submit(
                rng.integers(0, CFG.vocab_size, size=4), max_new_tokens=2
            )
        report = server.drain()
        assert len(report.completed) == 3


class TestScheduling:
    def test_priority_order_of_admission(self, model):
        server = make_server(model, max_slots=1)
        rng = np.random.default_rng(0)
        prompts = rng.integers(0, CFG.vocab_size, size=(3, 4))
        server.submit(prompts[0], max_new_tokens=2, priority=0)
        server.submit(prompts[1], max_new_tokens=2, priority=5)
        server.submit(prompts[2], max_new_tokens=2, priority=1)
        report = server.drain()
        finish = {r.request_id: r.finish_time for r in report.completed}
        assert finish[1] < finish[2] < finish[0]

    @staticmethod
    def _streaming_workload(server):
        """One low-priority request at t=0 plus a stream of high-priority
        arrivals timed so a fresh one is always waiting (1 slot, 2 steps
        per request)."""
        rng = np.random.default_rng(1)
        low = server.submit(
            rng.integers(0, CFG.vocab_size, size=4),
            max_new_tokens=2,
            priority=0,
            arrival_time=0.0,
        )
        step = server.config.step_time
        for i in range(20):
            server.submit(
                rng.integers(0, CFG.vocab_size, size=4),
                max_new_tokens=2,
                priority=10,
                arrival_time=2 * i * step,
            )
        return low

    def test_aging_prevents_starvation(self, model):
        # Aging raises the waiting request's effective priority without
        # bound, so it must overtake the stream of fresh priority-10
        # arrivals instead of finishing last.
        server = make_server(model, max_slots=1, aging=1.0, step_time=1.0)
        low = self._streaming_workload(server)
        report = server.drain()
        order = [r.request_id for r in sorted(
            report.completed, key=lambda r: r.finish_time
        )]
        assert order.index(low) < len(order) - 5

    def test_no_aging_starves_low_priority(self, model):
        # Control: aging disabled, the same stream starves the low request
        # until every high-priority arrival has been served.
        server = make_server(model, max_slots=1, aging=0.0, step_time=1.0)
        low = self._streaming_workload(server)
        report = server.drain()
        order = [r.request_id for r in sorted(
            report.completed, key=lambda r: r.finish_time
        )]
        assert order[-1] == low

    def test_arrivals_respected(self, model):
        server = make_server(model, max_slots=4, step_time=1.0)
        rng = np.random.default_rng(2)
        server.submit(
            rng.integers(0, CFG.vocab_size, size=4), 2, arrival_time=0.0
        )
        late = server.submit(
            rng.integers(0, CFG.vocab_size, size=4), 2, arrival_time=5.0
        )
        report = server.drain()
        by_id = {r.request_id: r for r in report.completed}
        assert by_id[late].first_token_time > 5.0

    def test_submit_rejects_oversized_and_unschedulable(self, model):
        server = make_server(model, n_blocks=2, block_size=4)
        prompt = np.zeros(4, dtype=int)
        with pytest.raises(ValueError):
            server.submit(prompt, max_new_tokens=CFG.max_seq_len)
        with pytest.raises(ValueError):
            # 4 + 8 tokens caches 11 positions, 3 blocks; the pool has 2
            server.submit(prompt, max_new_tokens=8)
        with pytest.raises(ValueError):
            server.submit(np.zeros((2, 4), dtype=int), max_new_tokens=2)
        with pytest.raises(ValueError):
            server.submit(prompt, max_new_tokens=0)
        # exact fit: the last of 4 + 5 tokens is never cached, so the
        # request needs 8 positions, exactly the pool's 2 blocks
        server.submit(prompt, max_new_tokens=5)
        report = server.drain()
        assert report.total_tokens == 5
        assert report.peak_kv_blocks == 2

    def test_submit_rejects_token_ids_outside_vocab(self, model):
        """A negative id would be served silently; one >= vocab would crash
        the drain mid-step and lose every other request."""
        server = make_server(model)
        for bad in ([-1, 2, 3], [1, CFG.vocab_size, 2]):
            with pytest.raises(ValueError, match="token ids"):
                server.submit(np.asarray(bad), max_new_tokens=2)
        assert server.pending == 0
        server.submit(np.asarray([1, 2, 3]), max_new_tokens=2)
        report = server.drain()
        assert [r.request_id for r in report.completed] == [0]
        assert report.total_tokens == 2


class TestBlockBudget:
    def test_blocks_never_exceed_budget_under_pressure(self, model):
        server = make_server(model, max_slots=4, n_blocks=9, block_size=4)
        rng = np.random.default_rng(3)
        prompts = rng.integers(0, CFG.vocab_size, size=(8, 6))
        submit_all(server, prompts, [10] * 8)
        peaks = []
        while server.pending:
            server.step()
            server.scheduler.check_invariants()
            peaks.append(server.kv.blocks_in_use)
        assert max(peaks) <= 9
        report = server.report()
        assert report.n_preemptions > 0
        assert report.peak_kv_blocks <= 9
        assert server.kv.blocks_in_use == 0

    def test_preemption_frees_cache_and_ledger(self, model):
        device = SimDevice(0, 0, GpuSpec())
        server = RolloutServer(
            model,
            ServingConfig(max_slots=4, n_blocks=9, block_size=4, greedy=True),
            device=device,
        )
        rng = np.random.default_rng(3)
        prompts = rng.integers(0, CFG.vocab_size, size=(8, 6))
        submit_all(server, prompts, [10] * 8)
        saw_preempted_free = False
        while server.pending:
            server.step()
            tag = device.memory.bytes_for("serving/kv_blocks")
            assert tag == server.kv.bytes_in_use()
            for req in server.scheduler.waiting:
                if req.n_preemptions:
                    assert req.cache is None and req.kv_len == 0
                    saw_preempted_free = True
        assert saw_preempted_free
        assert device.memory.bytes_for("serving/kv_blocks") == 0


class TestBitExactness:
    def test_greedy_matches_sequential_generate(self, model):
        rng = np.random.default_rng(5)
        prompts = rng.integers(0, CFG.vocab_size, size=(6, 5))
        sequential = generate(model, prompts, max_new_tokens=7, greedy=True)
        server = make_server(model, max_slots=3)
        submit_all(server, prompts, [7] * 6)
        report = server.drain()
        for r in report.completed:
            np.testing.assert_array_equal(
                r.response, sequential.responses[r.request_id]
            )
            np.testing.assert_allclose(
                r.log_probs,
                sequential.response_log_probs[r.request_id],
                rtol=0,
                atol=0,
            )

    def test_greedy_exact_across_preemption(self, model):
        rng = np.random.default_rng(5)
        prompts = rng.integers(0, CFG.vocab_size, size=(8, 6))
        sequential = generate(model, prompts, max_new_tokens=10, greedy=True)
        server = make_server(model, max_slots=4, n_blocks=9, block_size=4)
        submit_all(server, prompts, [10] * 8)
        report = drain_with_invariants(server)
        assert report.n_preemptions > 0
        for r in report.completed:
            np.testing.assert_array_equal(
                r.response, sequential.responses[r.request_id]
            )

    def test_greedy_eos_matches_sequential_generate(self, model):
        rng = np.random.default_rng(6)
        prompts = rng.integers(0, CFG.vocab_size, size=(6, 5))
        sequential = generate(
            model, prompts, max_new_tokens=9, greedy=True, eos_token_id=2
        )
        server = make_server(model, max_slots=3, eos_token_id=2)
        submit_all(server, prompts, [9] * 6)
        report = server.drain()
        for r in report.completed:
            n = r.response_length
            assert n == int(sequential.response_mask[r.request_id].sum())
            np.testing.assert_array_equal(
                r.response, sequential.responses[r.request_id][:n]
            )

    def test_sampled_decoding_invariant_under_preemption(self, model):
        # Per-request rngs consume one draw per emitted token, so evicting
        # and recomputing a sequence must not change what it samples.
        rng = np.random.default_rng(7)
        prompts = rng.integers(0, CFG.vocab_size, size=(8, 6))
        roomy = make_server(model, max_slots=4, greedy=False, seed=11)
        tight = make_server(
            model, max_slots=4, greedy=False, seed=11, n_blocks=9, block_size=4
        )
        submit_all(roomy, prompts, [10] * 8)
        submit_all(tight, prompts, [10] * 8)
        r_roomy = roomy.drain()
        r_tight = drain_with_invariants(tight)
        assert r_roomy.n_preemptions == 0
        assert r_tight.n_preemptions > 0
        for a, b in zip(r_roomy.completed, r_tight.completed):
            assert a.request_id == b.request_id
            np.testing.assert_array_equal(
                a.response, b.response
            )


class TestAnalyticCrossCheck:
    def test_step_accounting_matches_analytic_model(self, model):
        # Matched workload: all requests at t=0, fixed lengths, no
        # preemption.  The engine must replay the Orca schedule exactly.
        rng = np.random.default_rng(8)
        lengths = rng.integers(2, 12, size=10)
        prompts = rng.integers(0, CFG.vocab_size, size=(10, 4))
        server = make_server(model, max_slots=4)
        submit_all(server, prompts, lengths)
        report = server.drain()
        n_steps, util = continuous_schedule_stats(lengths, 4)
        assert report.n_steps == n_steps
        assert report.slot_utilisation == pytest.approx(util, abs=1e-12)
        assert report.total_tokens == int(lengths.sum())

    def test_fewer_steps_than_static_batching(self, model):
        # With EOS sampling, response lengths vary and continuous batching
        # must beat the wave schedule on the same realised lengths.
        rng = np.random.default_rng(9)
        prompts = rng.integers(0, CFG.vocab_size, size=(12, 4))
        server = make_server(
            model, max_slots=4, greedy=False, eos_token_id=2, seed=3
        )
        submit_all(server, prompts, [12] * 12)
        report = server.drain()
        assert "eos" in report.finish_reasons()
        realised = [r.response_length for r in report.completed]
        assert len(set(realised)) > 1  # the workload is actually variable
        assert report.n_steps < static_batch_steps(realised, 4)
        # and the measured utilisation matches the analytic schedule
        n_steps, util = continuous_schedule_stats(realised, 4)
        assert report.n_steps == n_steps
        assert report.slot_utilisation == pytest.approx(util, rel=0.05)

    def test_static_helper_matches_perf_module(self):
        lengths = [3, 9, 2, 7, 5, 1]
        n_steps, _ = static_schedule_stats(lengths, 2)
        assert static_batch_steps(lengths, 2) == n_steps


class TestLatencyAndSlo:
    def test_latency_stats_and_slo_attainment(self, model):
        server = make_server(
            model,
            max_slots=2,
            step_time=1.0,
            slo_ttft=2.5,
            slo_latency=6.0,
        )
        rng = np.random.default_rng(10)
        prompts = rng.integers(0, CFG.vocab_size, size=(4, 4))
        submit_all(server, prompts, [4] * 4)
        report = server.drain()
        # slots=2: requests 0/1 start at step 1, requests 2/3 at step 5
        by_id = {r.request_id: r for r in report.completed}
        assert by_id[0].ttft == pytest.approx(1.0)
        assert by_id[0].latency == pytest.approx(4.0)
        assert by_id[0].tpot == pytest.approx(1.0)
        assert by_id[2].ttft == pytest.approx(5.0)
        assert by_id[2].latency == pytest.approx(8.0)
        # 0 and 1 meet both SLOs; 2 and 3 miss both
        assert report.slo_attainment() == pytest.approx(0.5)
        assert report.mean_ttft() == pytest.approx(3.0)
        assert report.p95_latency() > report.mean_latency()

    def test_no_slo_configured_returns_none(self, model):
        server = make_server(model)
        server.submit(np.zeros(4, dtype=int), max_new_tokens=2)
        report = server.drain()
        assert report.slo_attainment() is None
        assert report.to_dict()["n_requests"] == 1
        assert any("slot utilisation" in line for line in report.summary_lines())


class TestServerConfig:
    def test_requires_lm_head(self):
        import dataclasses

        scalar = TinyLM(
            dataclasses.replace(CFG, output_head="scalar"), seed=0
        )
        with pytest.raises(ValueError):
            RolloutServer(scalar, ServingConfig())

    def test_rejects_eos_outside_vocab(self, model):
        with pytest.raises(ValueError):
            RolloutServer(model, ServingConfig(eos_token_id=CFG.vocab_size))

    def test_n_blocks_derived_from_device_memory(self, model):
        bytes_per_block = kv_bytes_per_token(CFG) * 16
        small = GpuSpec(memory_bytes=10 * bytes_per_block)
        device = SimDevice(0, 0, small)
        server = RolloutServer(
            model,
            ServingConfig(max_slots=8, block_size=16, memory_fraction=1.0),
            device=device,
        )
        assert server.kv.n_blocks == 10
        # without a device: capped at max_slots full-length sequences
        roomy = RolloutServer(
            model, ServingConfig(max_slots=2, block_size=16)
        )
        assert roomy.kv.n_blocks == 2 * -(-CFG.max_seq_len // 16)


class TestWorkerIntegration:
    """The serving-backed actor path inside a full RLHF system."""

    @staticmethod
    def _build(**kwargs):
        from repro.config import GenParallelConfig, ParallelConfig
        from repro.rlhf.core import AlgoType
        from repro.runtime import build_rlhf_system
        from repro.runtime.placement import ModelAssignment, PlacementPlan

        cfg = TinyLMConfig(
            n_layers=2,
            hidden_size=32,
            n_heads=4,
            ffn_hidden_size=48,
            vocab_size=16,
            max_seq_len=32,
        )
        par = ParallelConfig(pp=1, tp=2, dp=1)
        gen = GenParallelConfig.derive(par, 1, 1)
        models = ("actor", "critic", "reference", "reward")
        plan = PlacementPlan(
            pools={"main": 2},
            assignments={
                m: ModelAssignment(
                    "main", par, gen if m == "actor" else None
                )
                for m in models
            },
        )
        return build_rlhf_system(
            AlgoType.PPO, plan, cfg, max_new_tokens=8, lr=5e-3, **kwargs
        )

    def test_serving_actor_bit_exact_with_sequential(self):
        from repro.data.dataset import PromptDataset

        prompts = PromptDataset(
            n_prompts=16, prompt_length=4, vocab_size=16, seed=1
        ).batch(0, 8)
        served = self._build(use_serving=True)
        plain = self._build(use_serving=False)
        a = served.groups["actor"].generate_sequences(
            prompts, do_sample=False
        ).get()
        b = plain.groups["actor"].generate_sequences(
            prompts, do_sample=False
        ).get()
        np.testing.assert_array_equal(a["sequences"], b["sequences"])
        np.testing.assert_array_equal(a["old_log_probs"], b["old_log_probs"])

    def test_serving_ppo_trains_with_eos_masks(self):
        from repro.data.dataset import PromptDataset

        system = self._build(eos_token_id=0, use_serving=True)
        dataset = PromptDataset(
            n_prompts=32, prompt_length=4, vocab_size=16, seed=1
        )
        history = system.trainer.train(dataset, 1, 8)
        assert all(
            np.isfinite(v)
            for h in history
            for v in h.values()
            if isinstance(v, float)
        )
        # serving spans and metrics landed in the controller's registry
        assert system.controller.metrics.total(
            "repro_serving_tokens_total"
        ) > 0
        assert (
            system.controller.tracer.counts_by_category().get("serving", 0)
            > 0
        )


class TestBatchedDecode:
    """The one-forward ragged decode vs the per-slot oracle.

    ``batched_decode=True`` decodes every running request in one forward,
    whatever its kv length; per-request rng streams make the tokens
    identical to decoding each slot alone.  When all rows share one length
    there is no padding and numpy's row-independent kernels make the
    log-probs bit-identical too — these tests pin that, including under
    preemption.
    """

    def test_sampled_output_matches_per_slot_decode(self, model):
        rng = np.random.default_rng(3)
        prompts = rng.integers(0, CFG.vocab_size, size=(8, 5))
        batched = make_server(model, greedy=False, seed=5, batched_decode=True)
        per_slot = make_server(
            model, greedy=False, seed=5, batched_decode=False
        )
        submit_all(batched, prompts, [9] * 8)
        submit_all(per_slot, prompts, [9] * 8)
        r_batched = drain_with_invariants(batched)
        r_per_slot = per_slot.drain()
        assert r_batched.n_steps == r_per_slot.n_steps
        for a, b in zip(r_batched.completed, r_per_slot.completed):
            assert a.request_id == b.request_id
            np.testing.assert_array_equal(a.response, b.response)
            np.testing.assert_array_equal(a.log_probs, b.log_probs)

    def test_matches_per_slot_under_preemption(self, model):
        rng = np.random.default_rng(8)
        prompts = rng.integers(0, CFG.vocab_size, size=(8, 6))
        kwargs = dict(
            max_slots=4, greedy=False, seed=11, n_blocks=9, block_size=4
        )
        batched = make_server(model, batched_decode=True, **kwargs)
        per_slot = make_server(model, batched_decode=False, **kwargs)
        submit_all(batched, prompts, [10] * 8)
        submit_all(per_slot, prompts, [10] * 8)
        r_batched = drain_with_invariants(batched)
        r_per_slot = per_slot.drain()
        assert r_batched.n_preemptions > 0
        assert r_batched.n_preemptions == r_per_slot.n_preemptions
        for a, b in zip(r_batched.completed, r_per_slot.completed):
            assert a.request_id == b.request_id
            np.testing.assert_array_equal(a.response, b.response)

    def test_batched_decode_reduces_forward_calls(self, model):
        def run(batched_decode):
            server = make_server(
                model, greedy=True, batched_decode=batched_decode
            )
            calls = 0
            original = server.model.forward

            def counting(*args, **kwargs):
                nonlocal calls
                calls += 1
                return original(*args, **kwargs)

            server.model.forward = counting
            prompts = np.ones((4, 4), dtype=int)
            submit_all(server, prompts, [8] * 4)
            report = server.drain()
            server.model.forward = original
            return calls, report

        batched_calls, r_batched = run(True)
        per_slot_calls, r_per_slot = run(False)
        for a, b in zip(r_batched.completed, r_per_slot.completed):
            np.testing.assert_array_equal(a.response, b.response)
        # 4 identical-budget requests decode in lock-step: one cohort
        # forward replaces four per-slot forwards on every decode step.
        assert batched_calls < per_slot_calls


#: Log-prob tolerance of the ragged decode against the per-slot oracle.
#: Padding adds exact zeros to the attention sums, which can only reorder
#: their rounding; tokens themselves must be identical.
RAGGED_LOGP_ATOL = 1e-12

#: Module-level, so hypothesis examples share one model.
_MODEL = TinyLM(CFG, seed=4)


@st.composite
def serving_workloads(draw):
    """Ragged prompts, budgets, priorities, slots, EOS and block pressure."""
    n = draw(st.integers(3, 10))
    lengths = st.lists(st.integers(1, 12), min_size=n, max_size=n)
    prompt_lengths = draw(lengths)
    budgets = draw(lengths)
    block_size = 4
    longest = max(p + b for p, b in zip(prompt_lengths, budgets))
    # a pressured pool fits the longest request alone, plus 0-2 blocks
    n_blocks = draw(
        st.one_of(
            st.none(),
            st.integers(0, 2).map(lambda extra: -(-longest // block_size) + extra),
        )
    )
    return dict(
        prompt_lengths=prompt_lengths,
        budgets=budgets,
        priorities=draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
        config=dict(
            max_slots=draw(st.integers(1, 6)),
            block_size=block_size,
            n_blocks=n_blocks,
            eos_token_id=draw(st.one_of(st.none(), st.integers(0, CFG.vocab_size - 1))),
            greedy=draw(st.booleans()),
            seed=draw(st.integers(0, 2**16)),
        ),
        prompt_seed=draw(st.integers(0, 2**16)),
    )


def _serve_both(workload):
    """Drain ``workload`` batched (checking invariants) and per-slot."""
    rng = np.random.default_rng(workload["prompt_seed"])
    prompts = [
        rng.integers(0, CFG.vocab_size, size=n) for n in workload["prompt_lengths"]
    ]
    reports = []
    for batched in (True, False):
        server = RolloutServer(
            _MODEL, ServingConfig(batched_decode=batched, **workload["config"])
        )
        for prompt, budget, priority in zip(
            prompts, workload["budgets"], workload["priorities"]
        ):
            server.submit(prompt, max_new_tokens=budget, priority=priority)
        reports.append(drain_with_invariants(server))
    return reports


class TestRaggedDecodeDifferential:
    """Property tests: ragged one-forward decode == the per-slot oracle."""

    @settings(max_examples=50, deadline=None)
    @given(serving_workloads())
    def test_tokens_identical_log_probs_within_tolerance(self, workload):
        batched, per_slot = _serve_both(workload)
        assert batched.n_steps == per_slot.n_steps
        assert batched.n_preemptions == per_slot.n_preemptions
        assert len(batched.completed) == len(workload["budgets"])
        for a, b in zip(batched.completed, per_slot.completed):
            assert a.request_id == b.request_id
            assert a.finish_reason == b.finish_reason
            np.testing.assert_array_equal(a.response, b.response)
            np.testing.assert_allclose(
                a.log_probs, b.log_probs, rtol=0, atol=RAGGED_LOGP_ATOL
            )

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 8),
        st.integers(1, 12),
        st.integers(1, 12),
        st.booleans(),
        st.one_of(st.none(), st.integers(0, CFG.vocab_size - 1)),
        st.integers(0, 2**16),
    )
    def test_bit_identical_when_rows_share_one_length(
        self, n, prompt_length, budget, greedy, eos, seed
    ):
        # every request admitted at once with one prompt length: each step's
        # rows share one kv length, so the batch has no padding at all
        workload = dict(
            prompt_lengths=[prompt_length] * n,
            budgets=[budget] * n,
            priorities=[0] * n,
            config=dict(
                max_slots=n, block_size=4, eos_token_id=eos, greedy=greedy,
                seed=seed,
            ),
            prompt_seed=seed,
        )
        batched, per_slot = _serve_both(workload)
        for a, b in zip(batched.completed, per_slot.completed):
            np.testing.assert_array_equal(a.response, b.response)
            np.testing.assert_array_equal(a.log_probs, b.log_probs)

    def test_one_decode_forward_per_step_plus_one_per_admission(self, model):
        rng = np.random.default_rng(12)
        server = make_server(model, max_slots=4, greedy=False, seed=2)
        for n, budget in zip(rng.integers(1, 10, size=10), rng.integers(1, 9, size=10)):
            server.submit(
                rng.integers(0, CFG.vocab_size, size=int(n)),
                max_new_tokens=int(budget),
            )
        calls = 0
        original = model.forward

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        model.forward = counting
        try:
            while server.pending:
                calls = 0
                admitted = server.scheduler.n_admissions
                tokens = server._tokens
                server.step()
                admitted = server.scheduler.n_admissions - admitted
                decoded = server._tokens - tokens - admitted
                assert calls == admitted + (decoded > 0)
        finally:
            model.forward = original
        assert server.report().n_preemptions == 0


class TestPreemptionOrder:
    """A runner short of blocks never evicts a better-ranked runner."""

    def test_worst_ranked_requester_gives_up_its_own_slot(self, model):
        # request 0 (2 prompt tokens) and 1 (4) each hold one 4-token block
        # of a 2-block pool; at step 2 only request 1 crosses into a second
        # block, and being the worst-ranked runner it must evict itself
        server = make_server(model, max_slots=2, n_blocks=2, block_size=4)
        server.submit(np.arange(2), max_new_tokens=4)
        server.submit(np.arange(4), max_new_tokens=4)
        server.step()
        server.step()
        running = [r.request_id for r in server.scheduler.running]
        waiting = [r.request_id for r in server.scheduler.waiting]
        assert running == [0] and waiting == [1]
        assert server.scheduler.n_preemptions == 1
        server.scheduler.check_invariants()

    @pytest.mark.parametrize("greedy", [False, True])
    def test_pressured_responses_equal_unpressured(self, model, greedy):
        rng = np.random.default_rng(21)
        lengths = rng.integers(1, 9, size=12)
        prompts = [rng.integers(0, CFG.vocab_size, size=int(n)) for n in lengths]
        budgets = rng.integers(2, 12, size=12)
        reports = []
        for n_blocks in (None, 6):
            server = make_server(
                model, max_slots=4, greedy=greedy, seed=9, n_blocks=n_blocks
            )
            submit_all(server, prompts, budgets)
            reports.append(drain_with_invariants(server))
        roomy, tight = reports
        assert roomy.n_preemptions == 0 < tight.n_preemptions
        for a, b in zip(roomy.completed, tight.completed):
            np.testing.assert_array_equal(a.response, b.response)
            np.testing.assert_allclose(
                a.log_probs, b.log_probs, rtol=0, atol=RAGGED_LOGP_ATOL
            )


class TestDrainBudget:
    def _server(self, model, budget=4):
        server = make_server(model, max_slots=2)
        server.submit(np.arange(3), max_new_tokens=budget)
        return server

    def test_drain_finishing_on_its_last_allowed_step_returns(self, model):
        report = self._server(model).drain(max_steps=4)
        assert report.n_steps == 4

    def test_budget_stops_after_max_steps(self, model):
        server = self._server(model)
        with pytest.raises(RuntimeError, match="within 3 steps"):
            server.drain(max_steps=3)
        assert server._steps == 3

    def test_budget_counts_this_drains_steps_only(self, model):
        server = self._server(model, budget=6)
        assert server.drain(max_steps=6).n_steps == 6
        server.submit(np.arange(3), max_new_tokens=6)
        assert server.drain(max_steps=6).n_steps == 12


def _empty_report():
    return ServingReport(
        completed=[],
        n_steps=0,
        total_tokens=0,
        slot_utilisation=0.0,
        n_preemptions=0,
        recomputed_tokens=0,
        kv_blocks_total=8,
        peak_kv_blocks=0,
        peak_kv_bytes=0,
    )


class TestEmptyReportAggregates:
    def test_percentile_of_empty_samples_is_none(self):
        report = _empty_report()
        assert report._percentile([], 95) is None
        assert report.mean_ttft() is None
        assert report.p95_ttft() is None
        assert report.mean_tpot() is None
        assert report.mean_latency() is None
        assert report.p95_latency() is None
        assert report.slo_attainment() is None

    def test_summary_renders_missing_stats_as_na(self):
        text = "\n".join(_empty_report().summary_lines())
        assert "n/a" in text
        assert "0.0000" not in text.split("TTFT")[1].splitlines()[0]
