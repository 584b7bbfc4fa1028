"""Unit tests for the attention step path over a windowed paged KV cache.

Pool mechanics, span plans and constructor validation of
:class:`~repro.infer.PagedKVCache` live in tests/test_paged_kv.py.
"""

import numpy as np

from repro.core.attention import MultiHeadSelfAttention
from repro.infer import PagedKVCache


def _rand_kv(rng, n, heads, hd):
    return rng.normal(size=(n, heads, hd)), rng.normal(size=(n, heads, hd))


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
