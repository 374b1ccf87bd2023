"""Tests for the TinyLM transformer: forward, KV cache, heads, training."""

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.adam import Adam
from repro.models.autograd import Tensor, no_grad
from repro.models.sampler import generate
from repro.models.tinylm import KVCache, TinyLM, TinyLMConfig
from repro.serving.paged_kv import SlotRows


@pytest.fixture
def config():
    return TinyLMConfig(
        n_layers=2,
        hidden_size=16,
        n_heads=2,
        ffn_hidden_size=24,
        vocab_size=11,
        max_seq_len=16,
    )


@pytest.fixture
def model(config):
    return TinyLM(config, seed=1)


def tokens(config, batch=2, seq=6, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, config.vocab_size, size=(batch, seq))


def count_tensors(monkeypatch):
    """Count ``Tensor`` constructions from here on (as the perf tracer does)."""
    created = []
    original = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        created.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    return created


class TestForward:
    def test_logits_shape(self, model, config):
        out = model.forward(tokens(config))
        assert out.shape == (2, 6, config.vocab_size)

    def test_scalar_head_shape(self, config):
        critic = TinyLM(dataclasses.replace(config, output_head="scalar"))
        out = critic.values(tokens(config))
        assert out.shape == (2, 6)

    def test_causality(self, model, config):
        """Changing a future token must not change earlier logits."""
        ids = tokens(config)
        with no_grad():
            base = model.forward(ids).data
            ids2 = ids.copy()
            ids2[:, -1] = (ids2[:, -1] + 1) % config.vocab_size
            perturbed = model.forward(ids2).data
        np.testing.assert_allclose(base[:, :-1], perturbed[:, :-1])
        assert not np.allclose(base[:, -1], perturbed[:, -1])

    def test_sequence_too_long_rejected(self, model, config):
        with pytest.raises(ValueError, match="max_seq_len"):
            model.forward(np.zeros((1, config.max_seq_len + 1), dtype=int))

    def test_token_ids_must_be_2d(self, model):
        with pytest.raises(ValueError):
            model.forward(np.zeros(4, dtype=int))

    @pytest.mark.parametrize("grad", [True, False])
    def test_out_of_range_ids_and_offsets_rejected(self, model, config, grad):
        """Negative ids and offsets would wrap into the last embedding rows."""
        ids = tokens(config, seq=3)
        with contextlib.nullcontext() if grad else no_grad():
            for bad in ([[-1, 3]], [[config.vocab_size, 3]]):
                with pytest.raises(ValueError, match="token ids"):
                    model.forward(np.asarray(bad))
            with pytest.raises(ValueError, match="pos_offset"):
                model.forward(ids, pos_offset=-2)

    def test_generate_rejects_out_of_range_prompt(self, model):
        with pytest.raises(ValueError, match="token ids"):
            generate(model, np.asarray([[-3, 1]]), max_new_tokens=2)

    def test_wrong_head_methods_raise(self, model, config):
        with pytest.raises(RuntimeError):
            model.values(tokens(config))
        critic = TinyLM(dataclasses.replace(config, output_head="scalar"))
        with pytest.raises(RuntimeError):
            critic.token_log_probs(tokens(config))


class TestKVCache:
    def test_incremental_matches_full_forward(self, model, config):
        ids = tokens(config, seq=8)
        with no_grad():
            full = model.forward(ids).data
            cache = KVCache(config.n_layers)
            inc = model.forward(ids[:, :3], cache=cache).data
            for t in range(3, 8):
                step = model.forward(ids[:, t : t + 1], cache=cache, pos_offset=t)
                inc = np.concatenate([inc, step.data], axis=1)
        np.testing.assert_allclose(full, inc, atol=1e-10)

    def test_cache_grows_and_reports_bytes(self, model, config):
        cache = KVCache(config.n_layers)
        with no_grad():
            model.forward(tokens(config, seq=4), cache=cache)
        assert cache.seq_len == 4
        # 2 layers * (K + V) * batch 2 * seq 4 * hidden 16 * 8 bytes
        assert cache.nbytes() == 2 * 2 * 2 * 4 * 16 * 8

    def test_capacity_cache_writes_in_place_and_counts_cached_only(
        self, model, config
    ):
        ids = tokens(config, seq=8)
        with no_grad():
            grown = KVCache(config.n_layers)
            sized = KVCache(config.n_layers, capacity=config.max_seq_len)
            for cache in (grown, sized):
                model.forward(ids[:, :3], cache=cache)
            buffer = sized._keys[0]
            for t in range(3, 8):
                a = model.forward(ids[:, t : t + 1], cache=grown, pos_offset=t)
                b = model.forward(ids[:, t : t + 1], cache=sized, pos_offset=t)
                np.testing.assert_array_equal(a.data, b.data)
        assert sized._keys[0] is buffer  # no reallocation up to capacity
        assert buffer.shape[2] == config.max_seq_len
        # nbytes counts the 8 cached positions, never the 16 of capacity
        assert sized.nbytes() == grown.nbytes() == 2 * 2 * 2 * 8 * 16 * 8
        sized.trim(5)
        assert sized.nbytes() == 2 * 2 * 2 * 5 * 16 * 8
        assert sized._keys[0] is buffer  # trim is a length reset

    def test_appending_past_capacity_reallocates(self, model, config):
        ids = tokens(config, seq=6)
        with no_grad():
            full = model.forward(ids).data
            cache = KVCache(config.n_layers, capacity=4)
            first = model.forward(ids[:, :4], cache=cache).data
            rest = model.forward(ids[:, 4:], cache=cache, pos_offset=4).data
        assert cache.seq_len == 6
        np.testing.assert_allclose(
            np.concatenate([first, rest], axis=1), full, atol=1e-10
        )


def slot_store(config, n_slots):
    """A zeroed slot-major K/V store, laid out as the serving engine's."""
    return np.zeros(
        (2, config.n_layers, n_slots, config.n_heads, config.max_seq_len, config.head_dim)
    )


def slots(store, lo, seq_len):
    return SlotRows(store, lo, np.asarray(seq_len, dtype=np.int64))


class TestRaggedForward:
    """One forward over a slot range whose rows hold different lengths."""

    def _ragged(self, model, config, rows, store):
        lengths = np.asarray([len(row) - 1 for row in rows])
        for slot, row in enumerate(rows):
            model.forward(
                row[None, :-1], cache=slots(store, slot, [0]), pos_offset=0
            )
        return model.forward(
            np.asarray([[row[-1]] for row in rows], dtype=np.int64),
            cache=slots(store, 0, lengths),
            pos_offset=lengths,
        ).data[:, -1]

    def test_matches_each_row_alone(self, model, config):
        lengths = [2, 7, 4, 7]
        rng = np.random.default_rng(3)
        rows = [rng.integers(0, config.vocab_size, size=n + 1) for n in lengths]
        with no_grad():
            alone = []
            for row in rows:
                solo = KVCache(config.n_layers)
                model.forward(row[None, :-1], cache=solo)
                alone.append(
                    model.forward(
                        row[None, -1:], cache=solo, pos_offset=len(row) - 1
                    ).data[0, -1]
                )
            ragged = self._ragged(model, config, rows, slot_store(config, 4))
        np.testing.assert_allclose(ragged, np.stack(alone), rtol=0, atol=1e-12)

    def test_stale_positions_past_a_row_equal_zero_padding(self, model, config):
        """Masked positions past a row's length add exact zeros, whatever
        finite values a longer earlier occupant left there."""
        lengths = [2, 7, 4]
        rng = np.random.default_rng(4)
        rows = [rng.integers(0, config.vocab_size, size=n + 1) for n in lengths]
        stale = slot_store(config, 3)
        with no_grad():
            longer = rng.integers(0, config.vocab_size, size=(3, 12))
            model.forward(longer, cache=slots(stale, 0, [0, 0, 0]))
            zeroed = self._ragged(model, config, rows, slot_store(config, 3))
            reused = self._ragged(model, config, rows, stale)
        assert np.abs(stale[:, :, 0, :, 3:12]).min() > 0.0  # stale, not zero
        np.testing.assert_array_equal(reused, zeroed)

    def test_per_row_offsets_must_match_the_caches(self, model, config):
        with no_grad():
            store = slot_store(config, 2)
            model.forward(tokens(config, seq=3), cache=slots(store, 0, [0, 0]))
            last = np.zeros((2, 1), dtype=np.int64)
            for cache in (slots(store, 0, [3, 3]), None, KVCache(config.n_layers)):
                with pytest.raises(ValueError, match="per-row pos_offset"):
                    model.forward(last, cache=cache, pos_offset=np.array([3, 2]))


class TestTapeFreeForward:
    """The one forward runs tape-free on parameter arrays under no_grad."""

    @settings(max_examples=30, deadline=None)
    @given(
        head=st.sampled_from(["lm", "scalar"]),
        batch=st.integers(1, 5),
        seq=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_bit_identical_to_the_tape(self, head, batch, seq, seed):
        """Bitwise for whole sequences; a decode step (t = 1) folds its
        rows into one GEMM where the tape runs one gemv per row."""
        cfg = TinyLMConfig(
            n_layers=2, hidden_size=16, n_heads=2, ffn_hidden_size=24,
            vocab_size=11, max_seq_len=16, output_head=head,
        )
        model = TinyLM(cfg, seed=seed)
        # ``seq`` is the forward's length t; token_log_probs drops a token
        ids = tokens(cfg, batch=batch, seq=seq + 1, seed=seed)
        calls = [(model.forward, ids[:, :seq])]
        if head == "lm":
            calls.append((model.token_log_probs, ids))
        else:
            calls.append((model.values, ids[:, :seq]))
            calls.append((model.sequence_reward, ids[:, :seq]))
        for fn, arg in calls:
            tape = fn(arg)
            assert tape.requires_grad
            with no_grad():
                free = fn(arg)
            assert not free.requires_grad
            if seq >= 2:
                np.testing.assert_array_equal(free.data, tape.data)
            else:
                np.testing.assert_allclose(free.data, tape.data, rtol=0, atol=1e-12)

    def test_creates_at_most_two_tensors_and_no_graph(
        self, model, config, monkeypatch
    ):
        created = count_tensors(monkeypatch)
        with no_grad():
            out = model.forward(tokens(config))
        assert len(created) <= 2
        assert out._parents == () and out._backward is None

    def test_frozen_parameters_run_tape_free_with_grad_on(
        self, model, config, monkeypatch
    ):
        for p in model.params.values():
            p.requires_grad = False
        created = count_tensors(monkeypatch)
        out = model.forward(tokens(config))
        assert len(created) <= 2
        assert not out.requires_grad

    @pytest.mark.parametrize("grad", [False, True])
    def test_ragged_forward_reads_zero_copy_views_of_the_store(
        self, model, config, monkeypatch, grad
    ):
        """Every layer attends through views of its own store arrays, as
        wide as the longest row: no gather copy, on or off the tape."""
        rng = np.random.default_rng(5)
        lengths = [2, 6, 3]
        store = slot_store(config, 4)
        with no_grad():
            for slot, n in enumerate(lengths):
                model.forward(
                    rng.integers(0, config.vocab_size, size=(1, n)),
                    cache=slots(store, slot, [0]),
                )
        views = []
        original = SlotRows.append

        def spy(self, layer, k, v):
            keys, values = original(self, layer, k, v)
            views.append((layer, keys, values))
            return keys, values

        monkeypatch.setattr(SlotRows, "append", spy)
        created = count_tensors(monkeypatch)
        with contextlib.nullcontext() if grad else no_grad():
            model.forward(
                rng.integers(0, config.vocab_size, size=(3, 1)),
                cache=slots(store, 0, lengths),
                pos_offset=np.asarray(lengths),
            )
        assert [layer for layer, _k, _v in views] == list(range(config.n_layers))
        for layer, keys, values in views:
            assert keys.shape == (3, config.n_heads, 7, config.head_dim)
            assert np.shares_memory(keys, store[0, layer])
            assert np.shares_memory(values, store[1, layer])
            for i, n in enumerate(lengths):
                # row i now caches n + 1 positions; the rest stay untouched
                assert np.abs(keys[i, :, : n + 1]).min() > 0.0
                np.testing.assert_array_equal(keys[i, :, n + 1 :], 0.0)
        np.testing.assert_array_equal(store[:, :, 3], 0.0)  # outside the range
        if not grad:
            assert len(created) <= 2


class TestLogProbs:
    def test_shape_and_range(self, model, config):
        logp = model.token_log_probs(tokens(config)).data
        assert logp.shape == (2, 5)
        assert (logp <= 0).all()

    def test_matches_manual_log_softmax(self, model, config):
        ids = tokens(config)
        with no_grad():
            logits = model.forward(ids[:, :-1]).data
        shifted = logits - logits.max(axis=-1, keepdims=True)
        ref = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        manual = np.take_along_axis(ref, ids[:, 1:, None], axis=-1)[..., 0]
        np.testing.assert_allclose(
            model.token_log_probs(ids).data, manual, atol=1e-10
        )


class TestStateManagement:
    def test_state_dict_roundtrip(self, model, config):
        state = model.state_dict()
        other = TinyLM(config, seed=99)
        other.load_state_dict(state)
        ids = tokens(config)
        np.testing.assert_allclose(
            model.forward(ids).data, other.forward(ids).data
        )

    def test_load_rejects_mismatched_keys(self, model):
        state = model.state_dict()
        del state["embed.weight"]
        with pytest.raises(ValueError, match="missing"):
            model.load_state_dict(state)

    def test_load_rejects_mismatched_shapes(self, model):
        state = model.state_dict()
        state["embed.weight"] = state["embed.weight"][:2]
        with pytest.raises(ValueError, match="shape"):
            model.load_state_dict(state)

    def test_clone_is_independent(self, model, config):
        clone = model.clone()
        ids = tokens(config)
        before = clone.forward(ids).data.copy()
        model.params["embed.weight"].data += 1.0
        np.testing.assert_allclose(clone.forward(ids).data, before)

    def test_param_count_positive_and_matches_bytes(self, model):
        assert model.param_bytes() == model.n_params() * 8


class TestTraining:
    def test_lm_loss_decreases_with_adam(self, model, config):
        ids = tokens(config, batch=4, seq=8, seed=3)
        opt = Adam(model.params, lr=5e-3)
        first = None
        for _ in range(25):
            model.zero_grad()
            loss = -model.token_log_probs(ids).mean()
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < 0.5 * first

    def test_full_gradient_check_one_param(self, model, config):
        """End-to-end finite-difference check through the whole transformer."""
        ids = tokens(config)
        loss = -model.token_log_probs(ids).mean()
        loss.backward()
        name = "layers.1.mlp.w_down"
        p = model.params[name]
        i, j = 2, 3
        eps = 1e-6
        orig = p.data[i, j]
        p.data[i, j] = orig + eps
        up = -model.token_log_probs(ids).mean().item()
        p.data[i, j] = orig - eps
        down = -model.token_log_probs(ids).mean().item()
        p.data[i, j] = orig
        fd = (up - down) / (2 * eps)
        assert abs(p.grad[i, j] - fd) < 1e-6 + 1e-4 * abs(fd)


class TestAdam:
    def test_rejects_bad_lr(self, model):
        with pytest.raises(ValueError):
            Adam(model.params, lr=0.0)

    def test_grad_clipping_bounds_norm(self, model, config):
        opt = Adam(model.params, lr=1e-3, max_grad_norm=0.1)
        loss = -(100.0 * model.token_log_probs(tokens(config))).mean()
        loss.backward()
        assert opt.grad_global_norm() > 0.1
        opt.clip_gradients()
        assert opt.grad_global_norm() <= 0.1 + 1e-9

    def test_state_bytes_counts_both_moments(self, model):
        opt = Adam(model.params, lr=1e-3)
        assert opt.state_bytes() == 2 * model.param_bytes()

    def test_step_skips_params_without_grads(self, model, config):
        opt = Adam(model.params, lr=1e-2)
        before = model.params["embed.weight"].data.copy()
        opt.step()  # no gradients anywhere
        np.testing.assert_allclose(model.params["embed.weight"].data, before)


class TestKVCacheTrimFree:
    def test_trim_keeps_prefix_and_matches_recompute(self, model, config):
        ids = tokens(config, seq=8)
        with no_grad():
            cache = KVCache(config.n_layers)
            model.forward(ids, cache=cache)
            cache.trim(5)
            fresh = KVCache(config.n_layers)
            model.forward(ids[:, :5], cache=fresh)
        assert cache.seq_len == 5
        for k1, v1, k2, v2 in zip(
            cache.keys, cache.values, fresh.keys, fresh.values
        ):
            np.testing.assert_allclose(k1, k2, atol=1e-12)
            np.testing.assert_allclose(v1, v2, atol=1e-12)

    def test_trim_shrinks_bytes_after_preemption(self, model, config):
        # trim/free must actually stop counting the dropped positions
        ids = tokens(config, seq=8)
        with no_grad():
            cache = KVCache(config.n_layers)
            model.forward(ids, cache=cache)
        before = cache.nbytes()
        cache.trim(3)
        assert cache.nbytes() == before * 3 // 8
        per_layer = cache.nbytes_by_layer()
        assert len(per_layer) == config.n_layers
        assert sum(per_layer) == cache.nbytes()

    def test_trim_to_zero_and_free(self, model, config):
        with no_grad():
            a = KVCache(config.n_layers)
            b = KVCache(config.n_layers)
            model.forward(tokens(config, seq=4), cache=a)
            model.forward(tokens(config, seq=4), cache=b)
        a.trim(0)
        b.free()
        for cache in (a, b):
            assert cache.seq_len == 0
            assert cache.nbytes() == 0
            assert cache.nbytes_by_layer() == [0] * config.n_layers

    def test_trim_validates_bounds(self, model, config):
        with no_grad():
            cache = KVCache(config.n_layers)
            model.forward(tokens(config, seq=4), cache=cache)
        with pytest.raises(ValueError):
            cache.trim(-1)
        cache.trim(5)  # shrink-only: trimming past the end is a no-op
        assert cache.seq_len == 4

    def test_trim_copies_so_tail_is_released(self, model, config):
        with no_grad():
            cache = KVCache(config.n_layers)
            model.forward(tokens(config, seq=8), cache=cache)
        k_before = cache.keys[0]
        cache.trim(4)
        k_after = cache.keys[0]
        # a fresh owned array, not a view pinning the full buffer
        assert k_after.base is None
        assert k_after is not k_before
