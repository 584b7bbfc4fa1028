"""Paged KV cache suite: allocator, sharing, and engine equivalence.

Three layers, bottom up.  Pool mechanics: free-list accounting,
refcounts, copy-on-write forks, span plans and exhaustion in the raw
:class:`~repro.infer.PagedKVCache`.  Prefix cache: chained keying, LRU
eviction, idempotent registration.  Engine integration: greedy and
per-request-seeded engine batches are **bit-identical to per-prompt
``generate_fast``** — the same prompt decoded alone on a batch-1
engine — so output does not depend on batch composition; prefix hits
skip prefill without changing trajectories, pool exhaustion mid-decode
preempts-and-queues instead of crashing, and cancel/finish reclaim
pages.  Oracles that are not the engine: gathered histories equal the
K/V fed in, and step logits equal ``forward()`` (within 1e-9).
Unseeded shared-RNG batches are pinned by the golden trajectories in
tests/test_engine_golden.py, whose greedy and seeded tokens are checked
against the full-forward ``generate``.
"""

import numpy as np
import pytest

from repro.core import TransformerConfig, TransformerLM
from repro.infer import (GenerationEngine, PagedKVCache, PagePoolExhausted,
                         SamplingParams,
                         PromptLimitError)


def tiny_model(**kwargs):
    cfg = TransformerConfig(vocab_size=13, max_seq_len=64, d_model=16,
                            num_heads=2, num_layers=2, **kwargs)
    return TransformerLM(cfg, rng=0)


@pytest.fixture(scope="module")
def model():
    return tiny_model()


def make_cache(**kwargs):
    defaults = dict(num_layers=2, batch_size=3, num_heads=2, max_seq_len=32,
                    head_dim=8, page_size=4)
    defaults.update(kwargs)
    return PagedKVCache(**defaults)


def decode_one(cache, slot, rng, steps=1):
    """Drive ``steps`` single-slot appends through every layer."""
    for _ in range(steps):
        pos = int(cache.lengths[slot])
        cache.begin_spans([(slot, pos, 1)])
        for layer in cache.layers:
            layer.append(rng.standard_normal((1, 2, 8)),
                         rng.standard_normal((1, 2, 8)))
        cache.commit_span(slot, pos + 1)


def history(cache, slot, n, layer=0):
    """A slot's first ``n`` cached keys, (H, n, hd), read off its pages."""
    pages = [cache._k[layer, page] for page in cache.block_tables[slot]]
    return np.concatenate(pages, axis=1)[:, :n]


class TestPagePool:
    def test_pages_allocated_on_demand_not_up_front(self):
        cache = make_cache(prefix_sharing=False)
        pool = cache._k, cache._v
        assert cache.used_pages == 0
        decode_one(cache, 0, np.random.default_rng(0), steps=5)
        # 5 positions at page_size 4 -> exactly 2 pages, for all layers
        assert cache.block_tables[0] == [0, 1]
        assert cache.used_pages == 2
        assert cache.lengths[0] == 5
        # pages come out of the one pool allocation; appends never
        # reallocate it
        assert cache._k is pool[0] and cache._v is pool[1]

    def test_reset_slot_returns_pages_to_free_list(self):
        cache = make_cache(prefix_sharing=False)
        decode_one(cache, 0, np.random.default_rng(0), steps=6)
        decode_one(cache, 1, np.random.default_rng(1), steps=2)
        used = cache.used_pages
        cache.reset_slot(0)
        assert cache.used_pages == used - 2
        assert cache.block_tables[0] == []
        assert int(cache.lengths[0]) == 0
        assert np.all(cache.refcounts >= 0)

    def test_exhaustion_raises_without_prefix_cache(self):
        cache = make_cache(num_pages=2, prefix_sharing=False)
        decode_one(cache, 0, np.random.default_rng(0), steps=8)
        with pytest.raises(PagePoolExhausted):
            decode_one(cache, 1, np.random.default_rng(1), steps=1)

    def test_overflow_guard_matches_dense_semantics(self):
        cache = make_cache(max_seq_len=8, prefix_sharing=False)
        decode_one(cache, 0, np.random.default_rng(0), steps=8)
        with pytest.raises(ValueError, match="overflow"):
            decode_one(cache, 0, np.random.default_rng(0), steps=1)
        # The constructor guards: every dimension >= 1, a set window
        # >= 1, a pool of at least one page.
        for dim in ("num_layers", "batch_size", "num_heads", "max_seq_len",
                    "head_dim", "page_size"):
            with pytest.raises(ValueError, match="dimensions must be >= 1"):
                make_cache(**{dim: 0})
        with pytest.raises(ValueError, match="window"):
            make_cache(window=0)
        with pytest.raises(ValueError, match="num_pages"):
            make_cache(num_pages=0)

    def test_gather_matches_dense_layout_bitwise(self):
        """Each span's gathered history is the K/V fed in for its slot,
        laid out contiguously as (H, t, hd) bit for bit, however many
        rows the span has."""
        rng = np.random.default_rng(7)
        paged = make_cache(prefix_sharing=False)
        kv = [(rng.standard_normal((7, 2, 8)), rng.standard_normal((7, 2, 8)))
              for _ in range(3)]

        def fed(slot, end):
            """Positions 0 .. end-1 of a slot's K/V as (H, end, hd)."""
            return (kv[slot][0][:end].transpose(1, 0, 2),
                    kv[slot][1][:end].transpose(1, 0, 2))

        # Ragged lengths 5, 3, 5 written as spans of mixed widths; the
        # 5-row span crosses a page boundary.
        for slot, widths in ((0, [5]), (1, [1, 2]), (2, [2, 1, 2])):
            start = 0
            for m in widths:
                paged.begin_spans([(slot, start, m)])
                ret = [layer.append(kv[slot][0][start:start + m],
                                    kv[slot][1][start:start + m])
                       for layer in paged.layers]
                paged.commit_span(slot, start + m)
                start += m
                want_k, want_v = fed(slot, start)
                for kp, vp, *_ in ret:
                    assert kp.shape[0] == 1        # one history per span
                    assert np.array_equal(kp[0], want_k)
                    assert np.array_equal(vp[0], want_v)
        # Mixed batch: a one-row span between two wider ones.  Histories
        # come back single-row spans first; each matches its slot's
        # K/V wherever its rows' masks let a key through.
        spans = [(1, 3, 3), (0, 5, 1), (2, 5, 2)]
        paged.begin_spans(spans)
        k = np.concatenate([kv[s][0][a:a + m] for s, a, m in spans])
        v = np.concatenate([kv[s][1][a:a + m] for s, a, m in spans])
        ends = {slot: start + m for slot, start, m in spans}
        positions = np.array([3, 4, 5, 5, 5, 6])
        for lp in paged.layers:
            kp, vp, mp, (single, wide) = lp.append(k, v)
            assert single.tolist() == [3] and wide == [(0, 3), (4, 2)]
            np.testing.assert_array_equal(
                np.isneginf(mp), np.arange(7)[None, :] > positions[:, None])
            for i, slot in enumerate((0, 1, 2)):   # single-row span first
                end = ends[slot]
                want_k, want_v = fed(slot, end)
                assert np.array_equal(kp[i][:, :end], want_k)
                assert np.array_equal(vp[i][:, :end], want_v)


class TestCopyOnWrite:
    def test_fork_shares_pages_without_copying(self):
        cache = make_cache(prefix_sharing=False)
        decode_one(cache, 0, np.random.default_rng(0), steps=6)
        used = cache.used_pages
        cache.fork_slot(0, 1)
        assert cache.used_pages == used          # zero new pages
        assert cache.block_tables[1] == cache.block_tables[0]
        assert cache.shared_pages == 2
        assert int(cache.lengths[1]) == 6

    def test_divergent_write_copies_not_corrupts(self):
        cache = make_cache(prefix_sharing=False)
        rng = np.random.default_rng(0)
        decode_one(cache, 0, rng, steps=6)
        cache.fork_slot(0, 1)
        before = history(cache, 0, 6).copy()
        decode_one(cache, 1, rng, steps=1)       # writes shared page 1
        np.testing.assert_array_equal(history(cache, 0, 6), before)
        # the fork's first 6 positions still equal the parent's
        np.testing.assert_array_equal(history(cache, 1, 6), before)
        # and the tables have genuinely diverged on the written page
        assert cache.block_tables[0][1] != cache.block_tables[1][1]
        assert cache.block_tables[0][0] == cache.block_tables[1][0]

    def test_fork_onto_self_rejected(self):
        cache = make_cache(prefix_sharing=False)
        with pytest.raises(ValueError):
            cache.fork_slot(0, 0)

    @pytest.mark.parametrize("length,m,fork,need", [
        (6, 1, False, 0),    # writes into its own page 1
        (6, 3, False, 1),    # crosses into a fresh page 2
        (6, 1, True, 1),     # copy-on-write of the shared boundary page
        (6, 3, True, 2),     # boundary COW plus a fresh page
        (8, 5, True, 2),     # page-aligned fork: no boundary page to copy
    ])
    def test_span_page_need_is_exact_per_span(self, length, m, fork, need):
        """The need a span reports is exactly what resolving it takes."""
        cache = make_cache(prefix_sharing=False)
        decode_one(cache, 0, np.random.default_rng(0), steps=length)
        assert cache.span_page_need(0, length, m, fork=fork) == need
        slot = 0
        if fork:
            cache.fork_slot(0, 1)
            slot = 1
        used = cache.used_pages
        cache.begin_spans([(slot, length, m)])
        assert cache.used_pages - used == need

    def test_append_without_plan_raises(self):
        cache = make_cache()
        with pytest.raises(RuntimeError, match="begin_spans"):
            cache.layers[0].append(np.zeros((1, 2, 8)), np.zeros((1, 2, 8)))


class TestPrefixCache:
    def test_chained_keys_register_full_pages_only(self):
        cache = make_cache()
        decode_one(cache, 0, np.random.default_rng(0), steps=10)
        tokens = list(range(10))
        assert cache.register_prefix(0, tokens) == 2   # 10 // 4 full pages
        assert len(cache.prefix) == 2
        # re-registration is a no-op
        assert cache.register_prefix(0, tokens) == 0

    def test_match_caps_below_full_prompt(self):
        """A full-prompt hit must still leave one token to feed."""
        cache = make_cache()
        decode_one(cache, 0, np.random.default_rng(0), steps=8)
        tokens = list(range(8))
        cache.register_prefix(0, tokens)
        assert len(cache.prefix.match(tokens, record=False)) == 1  # not 2

    def test_try_admit_attaches_matched_pages(self):
        cache = make_cache()
        decode_one(cache, 0, np.random.default_rng(0), steps=8)
        tokens = list(range(8))
        cache.register_prefix(0, tokens)
        cached = cache.try_admit(1, tokens + [99])
        assert cached == 8                       # both pages reused
        assert cache.block_tables[1] == cache.block_tables[0][:2]
        assert cache.prefix.hits == 1
        # shared pages are refcounted: slot 0 + slot 1 + cache itself
        assert cache.refcounts[cache.block_tables[1][0]] == 3

    def test_try_admit_returns_none_when_pool_cannot_supply(self):
        cache = make_cache(num_pages=2, prefix_sharing=False)
        decode_one(cache, 0, np.random.default_rng(0), steps=8)
        assert cache.try_admit(1, list(range(5))) is None
        # failed admission must not leak references
        assert cache.used_pages == 2
        assert np.all(cache.refcounts <= 1)

    def test_lru_eviction_frees_oldest_unshared_entry(self):
        cache = make_cache(num_pages=4)
        decode_one(cache, 0, np.random.default_rng(0), steps=4)
        cache.register_prefix(0, [1, 1, 1, 1])
        cache.reset_slot(0)                      # cache is now sole holder
        decode_one(cache, 0, np.random.default_rng(0), steps=4)
        cache.register_prefix(0, [2, 2, 2, 2])
        cache.reset_slot(0)
        assert len(cache.prefix) == 2 and cache.free_pages == 2
        # demand 3 fresh pages: 2 free + 1 evicted (the older entry)
        decode_one(cache, 0, np.random.default_rng(0), steps=9)
        assert cache.prefix.evictions == 1
        assert len(cache.prefix.match([1, 1, 1, 1, 9], record=False)) == 0
        assert len(cache.prefix.match([2, 2, 2, 2, 9], record=False)) == 1

    def test_shared_entries_are_not_evictable(self):
        cache = make_cache(num_pages=2)
        decode_one(cache, 0, np.random.default_rng(0), steps=4)
        cache.register_prefix(0, [1, 1, 1, 1])   # page shared: slot + cache
        decode_one(cache, 1, np.random.default_rng(0), steps=4)
        assert cache.prefix.evictable_pages == 0
        with pytest.raises(PagePoolExhausted):
            cache.prefix.evict_one()


def solo_reference(model, prompt, max_new, params):
    """Per-prompt ``generate_fast`` — the prompt alone on a batch-1
    engine: what a greedy or per-request-seeded request must reproduce
    whatever else shares its batch."""
    rng = None if params.seed is None else np.random.default_rng(params.seed)
    return model.generate_fast(prompt, max_new, rng=rng,
                               temperature=params.temperature,
                               top_k=params.top_k, top_p=params.top_p,
                               greedy=params.greedy,
                               stop_token=params.stop_token)


def engine_vs_solo(model, prompts, max_new, params, batch_size):
    """Engine tokens and per-prompt references, both in prompt order."""
    engine = GenerationEngine(model, batch_size=batch_size,
                              rng=np.random.default_rng(11))
    ids = [engine.submit(prompt, max_new, params=p)
           for prompt, p in zip(prompts, params)]
    results = {r.request_id: r.tokens for r in engine.run()}
    return ([results[i] for i in ids],
            [solo_reference(model, prompt, max_new, p)
             for prompt, p in zip(prompts, params)])


class TestWideSpans:
    """A prompt fed as one span, in a step that also holds one-row
    decoders, reads one shared history per span and still gives the
    full forward pass's logits; a step of one-row spans only does not
    depend on page layout by a single bit."""

    @staticmethod
    def step(model, cache, spans, tokens):
        plan = cache.begin_spans(spans)
        return model.decode_step(np.asarray(tokens), plan.new_lens - 1,
                                 cache.layers)

    @pytest.mark.parametrize("window", [None, 5])
    @pytest.mark.parametrize("prefix_hit", [False, True])
    def test_prompt_span_matches_forward(self, window, prefix_hit):
        model = tiny_model(attention_window=window)
        rng = np.random.default_rng(3)
        a, b, p = (list(rng.integers(0, 13, size=n)) for n in (7, 4, 14))
        cache = PagedKVCache.for_model(model, 3, page_size=4)
        # Two decoders with history: a at 6 positions, b at 3.
        for slot, seq in ((0, a), (1, b)):
            self.step(model, cache, [(slot, 0, len(seq) - 1)], seq[:-1])
            cache.commit_span(slot, len(seq) - 1)
        start = 0
        if prefix_hit:
            # Publish p's first two pages, then admit p on top of them.
            self.step(model, cache, [(2, 0, 9)], p[:9])
            cache.commit_span(2, 9)
            cache.register_prefix(2, p[:9])
            start = cache.try_admit(2, p)
            assert start == 8
        # One step: decoder, the prompt's span (crossing pages), decoder.
        spans = [(0, 6, 1), (2, start, 14 - start), (1, 3, 1)]
        logits = self.step(model, cache, spans, [a[6]] + p[start:] + [b[3]])
        full = model.forward(np.asarray(p)).data[0]
        np.testing.assert_allclose(logits[1:-1], full[start:], rtol=0,
                                   atol=1e-9)
        for row, seq in ((0, a), (-1, b)):
            np.testing.assert_allclose(
                logits[row], model.forward(np.asarray(seq)).data[0, -1],
                rtol=0, atol=1e-9)

    def test_one_row_spans_are_the_dense_path_bitwise(self):
        """A step of one-row spans over ragged sequences: bit for bit the
        same step on a cache with another page layout, each row its
        sequence stepped alone on a batch-1 cache up to BLAS round-off
        (a different batch size may pick a different matmul kernel),
        and the full forward pass's last-position logits within 1e-9."""
        model = tiny_model()
        rng = np.random.default_rng(4)
        seqs = [list(rng.integers(0, 13, size=n)) for n in (9, 5, 7)]
        batched = PagedKVCache.for_model(model, 3, page_size=4)
        repaged = PagedKVCache.for_model(model, 3, page_size=16)
        alone = [PagedKVCache.for_model(model, 1, page_size=4) for _ in seqs]
        for t in range(9):
            slots = [s for s, seq in enumerate(seqs) if t < len(seq)]
            spans = [(s, t, 1) for s in slots]
            tokens = [seqs[s][t] for s in slots]
            got = self.step(model, batched, spans, tokens)
            assert batched._plan.spans is None
            assert np.array_equal(got, self.step(model, repaged, spans,
                                                 tokens))
            for row, s in enumerate(slots):
                solo = self.step(model, alone[s], [(0, t, 1)], [seqs[s][t]])
                for cache, slot in ((alone[s], 0), (batched, s), (repaged, s)):
                    cache.commit_span(slot, t + 1)
                np.testing.assert_allclose(got[row], solo[0], rtol=0,
                                           atol=1e-13)
                full = model.forward(np.asarray(seqs[s][:t + 1])).data[0, -1]
                np.testing.assert_allclose(got[row], full, rtol=0, atol=1e-9)


class TestEngineEquivalence:
    SAMPLING = [{"greedy": True}, {"temperature": 1.2, "top_k": 5},
                {"temperature": 0.8, "top_p": 0.9}]

    @pytest.mark.parametrize("sampling", SAMPLING,
                             ids=["greedy", "topk", "topp"])
    def test_paged_bit_identical_to_dense_multi_slot(self, sampling):
        """A ragged multi-slot batch with queueing decodes, request for
        request, exactly what each prompt decodes alone
        (``generate_fast``) — greedy, or stochastic with a per-request
        seed — in both compute dtypes."""
        prompts = [[1, 2, 3], [4, 5], [6, 7, 8, 9, 1, 2, 3, 4], [2],
                   [3, 1, 4, 1, 5], [9, 8, 7]]
        seeded = "greedy" not in sampling
        params = [SamplingParams(**sampling, seed=40 + i if seeded else None)
                  for i in range(len(prompts))]
        for dtype in (None, "float32"):
            got, want = engine_vs_solo(tiny_model(dtype=dtype), prompts, 14,
                                       params, batch_size=3)
            assert got == want, dtype

    def test_paged_bit_identical_with_attention_window(self):
        prompts = [[1, 2, 3, 4, 5], [6, 7], [8, 9, 1]]
        params = [SamplingParams(temperature=1.1, seed=3 + i)
                  for i in range(len(prompts))]
        for dtype in (None, "float32"):
            model = tiny_model(attention_window=6, dtype=dtype)
            got, want = engine_vs_solo(model, prompts, 12, params,
                                       batch_size=2)
            assert got == want, dtype

    def test_prefix_hits_skip_prefill_same_tokens(self, model):
        """Requests sharing a system prompt hit the cache, forward fewer
        rows, and still match the no-cache reference exactly."""
        system = list(np.random.default_rng(0).integers(1, 12, size=40))
        engine = GenerationEngine(model, batch_size=1, params=SamplingParams(greedy=True),
                                  kv_page_size=8)
        cold = engine.generate([system + [1]], 6)[0]
        cold_rows = engine.stats()["rows_forwarded"]
        warm = engine.generate([system + [2]], 6)[0]
        warm_rows = engine.stats()["rows_forwarded"] - cold_rows
        assert cold == model.generate_fast(system + [1], 6, greedy=True)
        assert warm == model.generate_fast(system + [2], 6, greedy=True)
        # 40 shared tokens / page 8 = 5 pages = 40 positions skipped
        assert warm_rows == cold_rows - 40
        stats = engine.stats()["kv"]["prefix_cache"]
        assert stats["hits"] == 1 and stats["hit_tokens"] == 40

    def test_prefix_cache_off_still_identical(self, model):
        system = [1, 2, 3, 4, 5, 6, 7, 8]
        engine = GenerationEngine(model, batch_size=1, params=SamplingParams(greedy=True),
                                  prefix_cache=False)
        for suffix in (1, 2):
            out = engine.generate([system + [suffix]], 5)[0]
            assert out == model.generate_fast(system + [suffix], 5,
                                              greedy=True)
        assert engine.stats()["kv"].get("prefix_cache") is None


class TestEnginePagePressure:
    def test_pool_exhaustion_mid_decode_preempts_not_crashes(self, model):
        """Both sequences fit at admission but outgrow the pool while
        decoding; the youngest is preempted and replayed, and greedy
        trajectories still match the unconstrained reference."""
        engine = GenerationEngine(model, batch_size=2, params=SamplingParams(greedy=True),
                                  kv_page_size=4, kv_num_pages=8,
                                  prefix_cache=False)
        prompts = [[1, 2, 3, 4], [5, 6, 7, 8]]
        outs = engine.generate(prompts, 20)
        assert outs == [model.generate_fast(p, 20, greedy=True)
                        for p in prompts]
        assert engine.preemptions > 0
        assert engine.cache.used_pages == 0      # everything reclaimed

    def test_admission_queues_when_pages_short(self, model):
        """A prompt whose pages don't fit right now waits in the queue
        (FIFO preserved) instead of crashing or jumping the line."""
        engine = GenerationEngine(model, batch_size=2, params=SamplingParams(greedy=True),
                                  kv_page_size=4, kv_num_pages=3,
                                  prefix_cache=False)
        outs = engine.generate([[1] * 8, [2] * 8, [3] * 8], 3)
        assert outs == [model.generate_fast(p, 3, greedy=True)
                        for p in ([1] * 8, [2] * 8, [3] * 8)]

    def test_oversized_request_rejected_at_submit(self, model):
        engine = GenerationEngine(model, batch_size=1, params=SamplingParams(greedy=True),
                                  kv_page_size=4, kv_num_pages=4)
        with pytest.raises(PromptLimitError) as excinfo:
            engine.submit([1, 2, 3], 20)         # 23 tokens > 16 positions
        assert excinfo.value.limits["kv_num_pages"] == 4

    def test_cancel_reclaims_pages(self, model):
        engine = GenerationEngine(model, batch_size=2, params=SamplingParams(greedy=True),
                                  prefix_cache=False)
        rid = engine.submit([1, 2, 3, 4, 5], 20)
        for _ in range(8):
            engine.step()
        assert engine.cache.used_pages > 0
        engine.cancel(rid)
        assert engine.cache.used_pages == 0

    def test_finished_requests_leave_only_prefix_pages(self, model):
        engine = GenerationEngine(model, batch_size=1, params=SamplingParams(greedy=True),
                                  kv_page_size=4)
        engine.generate([[1, 2, 3, 4, 5, 6, 7, 8]], 4)
        # slot reclaimed; the two full prompt pages live on, evictable
        assert engine.cache.used_pages == 2
        assert engine.cache.prefix.evictable_pages == 2

    def test_eviction_cycle_under_tiny_pool(self, model):
        """Distinct prompts churning a tiny pool force LRU evictions and
        never corrupt decoding."""
        engine = GenerationEngine(model, batch_size=1, params=SamplingParams(greedy=True),
                                  kv_page_size=4, kv_num_pages=6)
        for i in range(5):
            prompt = [i + 1] * 8 + [i + 2]
            out = engine.generate([prompt], 4)[0]
            assert out == model.generate_fast(prompt, 4, greedy=True)
        assert engine.cache.prefix.evictions > 0


class TestStatsAndMetrics:
    def test_stats_kv_section(self, model):
        kv = GenerationEngine(model, batch_size=2).stats()["kv"]
        assert kv["backend"] == "paged"
        assert {"page_size", "num_pages", "pages_free", "pages_used",
                "pages_shared", "kv_bytes_pool", "preemptions",
                "prefix_cache"} <= kv.keys()

    def test_page_gauges_and_prefix_counters_exported(self, model):
        from repro.obs import Observability
        from repro.obs.metrics import MetricsRegistry
        obs = Observability(metrics=MetricsRegistry())
        engine = GenerationEngine(model, batch_size=1, params=SamplingParams(greedy=True),
                                  kv_page_size=8, obs=obs)
        system = list(np.random.default_rng(1).integers(1, 12, size=16))
        engine.generate([system + [1]], 4)
        engine.generate([system + [2]], 4)
        snap = obs.metrics.snapshot()
        assert snap["engine.kv_pages_used"]["value"] >= 2
        assert snap["prefix_cache.hit"]["value"] == 1
        assert snap["prefix_cache.miss"]["value"] == 1
        assert snap["engine.kv_pages_free"]["value"] > 0
        assert "engine.kv_pages_shared" in snap

    def test_rows_forwarded_counts_uncached_prompt_and_decode_rows(self, model):
        """Without preemption every request forwards its uncached prompt
        once plus one row per sampled token after the first."""
        engine = GenerationEngine(model, batch_size=3, kv_page_size=4,
                                  params=SamplingParams(greedy=True, stop_token=3))
        system = list(np.random.default_rng(5).integers(1, 12, size=10))
        prompts = [system + [i] * i for i in range(1, 7)] + [[2, 4]]
        for prompt in prompts:
            engine.submit(prompt, 9)
        results = engine.run()
        stats = engine.stats()
        assert engine.preemptions == 0
        hit = stats["kv"]["prefix_cache"]["hit_tokens"]
        assert hit > 0
        assert stats["rows_forwarded"] == sum(
            r.prompt_len + len(r.completion) - 1 for r in results) - hit

    def test_default_pool_matches_dense_capacity(self, model):
        engine = GenerationEngine(model, batch_size=4)
        cache = engine.cache
        assert cache.num_pages * cache.page_size >= 4 * cache.max_seq_len
        # dense-capacity pools never preempt: worst case always fits
        assert cache.num_pages == 4 * (-(-cache.max_seq_len
                                         // cache.page_size))
