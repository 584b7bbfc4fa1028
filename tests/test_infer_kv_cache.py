"""Unit tests for the preallocated KV cache and the attention step paths."""

import numpy as np
import pytest

from repro.core import TransformerConfig, TransformerLM
from repro.core.attention import MultiHeadSelfAttention
from repro.infer import KVCache, PagedKVCache


def _rand_kv(rng, n, heads, hd):
    return rng.normal(size=(n, heads, hd)), rng.normal(size=(n, heads, hd))


class TestKVCache:
    def test_buffers_allocated_once(self):
        cache = KVCache(num_layers=2, batch_size=3, num_heads=2,
                        max_seq_len=16, head_dim=4)
        k_id, v_id = id(cache._k), id(cache._v)
        rng = np.random.default_rng(0)
        for _ in range(16):
            for layer in cache.layers:
                layer.append(*_rand_kv(rng, 3, 2, 4))
            cache.advance()
        assert id(cache._k) == k_id and id(cache._v) == v_id

    def test_append_returns_written_prefix(self):
        cache = KVCache(num_layers=1, batch_size=2, num_heads=1,
                        max_seq_len=8, head_dim=3)
        rng = np.random.default_rng(0)
        written = []
        for t in range(4):
            k, v = _rand_kv(rng, 2, 1, 3)
            written.append(k)
            keys, values, mask, spans = cache.layers[0].append(k, v)
            cache.advance()
            assert mask is None  # uniform lengths
            assert spans is None  # the dense cache: one row per span
            assert keys.shape == (2, 1, t + 1, 3)
            assert np.array_equal(keys[:, :, -1], k)
            for j, past in enumerate(written):
                assert np.array_equal(keys[:, :, j], past)

    def test_overflow_raises(self):
        cache = KVCache(num_layers=1, batch_size=1, num_heads=1,
                        max_seq_len=2, head_dim=2)
        rng = np.random.default_rng(0)
        for _ in range(2):
            cache.layers[0].append(*_rand_kv(rng, 1, 1, 2))
            cache.advance()
        with pytest.raises((ValueError, IndexError)):
            cache.layers[0].append(*_rand_kv(rng, 1, 1, 2))
            cache.advance()

    def test_ragged_lengths_masked(self):
        cache = KVCache(num_layers=1, batch_size=2, num_heads=1,
                        max_seq_len=8, head_dim=2)
        rng = np.random.default_rng(0)
        # advance slot 0 twice before slot 1 starts
        cache.set_active(np.array([0]))
        for _ in range(2):
            cache.layers[0].append(*_rand_kv(rng, 1, 1, 2))
            cache.advance()
        cache.set_active(np.array([0, 1]))
        keys, values, mask, _ = cache.layers[0].append(*_rand_kv(rng, 2, 1, 2))
        assert keys.shape[2] == 3  # slot 0 now at length 3
        assert mask is not None and mask.shape == (2, 3)
        assert np.all(mask[0] == 0.0)                      # full history valid
        assert mask[1, 0] == 0.0                           # own new entry valid
        assert np.isneginf(mask[1, 1:]).all()              # unwritten tail masked

    def test_windowed_reads_are_bounded(self):
        cache = KVCache(num_layers=1, batch_size=1, num_heads=1,
                        max_seq_len=12, head_dim=2, window=3)
        rng = np.random.default_rng(0)
        for t in range(12):
            keys, _values, mask, _ = cache.layers[0].append(*_rand_kv(rng, 1, 1, 2))
            cache.advance()
            assert mask is None
            assert keys.shape[2] == min(t + 1, 3)

    def test_slot_reuse_overwrites_in_place(self):
        cache = KVCache(num_layers=1, batch_size=2, num_heads=1,
                        max_seq_len=4, head_dim=2)
        rng = np.random.default_rng(0)
        for _ in range(3):
            cache.layers[0].append(*_rand_kv(rng, 2, 1, 2))
            cache.advance()
        cache.reset_slot(1)
        assert cache.lengths[1] == 0 and cache.lengths[0] == 3
        cache.set_active(np.array([1]))
        k, v = _rand_kv(rng, 1, 1, 2)
        keys, _values, mask, _ = cache.layers[0].append(k, v)
        assert keys.shape[2] == 1
        assert np.array_equal(keys[0, :, 0], k[0])

    def test_for_model_sizes_from_config(self):
        cfg = TransformerConfig(vocab_size=7, max_seq_len=32, d_model=16,
                                num_heads=2, num_layers=3, attention_window=5)
        model = TransformerLM(cfg, rng=0)
        cache = KVCache.for_model(model, batch_size=4)
        assert len(cache.layers) == 3
        assert cache._k.shape == (3, 4, 2, 32, 8)
        assert cache.window == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            KVCache(num_layers=0, batch_size=1, num_heads=1,
                    max_seq_len=4, head_dim=2)
        with pytest.raises(ValueError):
            KVCache(num_layers=1, batch_size=1, num_heads=1,
                    max_seq_len=4, head_dim=2, window=0)


class TestPagedWindowedStep:
    """With ``window`` set, the attention step on the paged cache reads
    a bounded history and still agrees with the banded-mask forward."""

    @staticmethod
    def cache(window, max_seq_len):
        return PagedKVCache(num_layers=1, batch_size=1, num_heads=2,
                            max_seq_len=max_seq_len, head_dim=4,
                            page_size=4, window=window)

    def test_reads_stay_within_window(self):
        """A span gathers one history, bounded by the window: its ``m``
        rows read the first row's window plus the ``m - 1`` positions
        after it, never the whole prefix."""
        rng = np.random.default_rng(0)
        cache = self.cache(window=4, max_seq_len=20)
        t = 0
        for m in (3, 1, 1, 5, 1, 6, 1, 2):
            cache.begin_spans([(0, t, m)])
            keys, values, mask, spans = cache.layers[0].append(
                *_rand_kv(rng, m, 2, 4))
            cache.commit_span(0, t + m)
            assert keys.shape[0] == values.shape[0] == 1
            assert keys.shape[2] == values.shape[2] == min(t + m, 4 + m - 1)
            assert (mask is None) == (spans is None) == (m == 1)
            t += m

    def test_windowed_step_matches_full_forward(self):
        """The step path over the paged cache agrees with the
        banded-mask forward pass at every position."""
        from repro.autograd import Tensor, no_grad

        rng = np.random.default_rng(1)
        attn = MultiHeadSelfAttention(d_model=8, num_heads=2,
                                      rng=np.random.default_rng(2), window=3)
        attn.eval()
        x = rng.normal(size=(1, 10, 8))
        with no_grad():
            full = attn.forward(Tensor(x)).data
        cache = self.cache(window=3, max_seq_len=10)
        for t in range(10):
            cache.begin_spans([(0, t, 1)])
            stepped = attn.step(x[:, t : t + 1, :], cache.layers[0])
            cache.commit_span(0, t + 1)
            assert np.allclose(stepped[0, 0], full[0, t], atol=1e-12)

    def test_one_span_matches_full_forward(self):
        """All ten positions as one span — time along the batch axis,
        the layout of a speculative verify — match the forward too."""
        from repro.autograd import Tensor, no_grad

        rng = np.random.default_rng(1)
        attn = MultiHeadSelfAttention(d_model=8, num_heads=2,
                                      rng=np.random.default_rng(2), window=3)
        attn.eval()
        x = rng.normal(size=(1, 10, 8))
        with no_grad():
            full = attn.forward(Tensor(x)).data
        cache = self.cache(window=3, max_seq_len=10)
        cache.begin_spans([(0, 0, 10)])
        stepped = attn.step(x[0][:, None, :], cache.layers[0])
        assert np.allclose(stepped[:, 0], full[0], atol=1e-12)
