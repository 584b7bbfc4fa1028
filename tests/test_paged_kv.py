"""Paged KV cache suite: allocator, sharing, and engine equivalence.

Three layers, bottom up.  Pool mechanics: free-list accounting,
refcounts, copy-on-write forks, span plans and exhaustion in the raw
:class:`~repro.infer.PagedKVCache`.  Prefix cache: chained keying, LRU
eviction, idempotent registration.  Engine integration: greedy and
per-request-seeded engine batches are **bit-identical to per-prompt
``generate_fast``** on the dense :class:`~repro.infer.KVCache`, prefix
hits skip prefill without changing trajectories, pool exhaustion
mid-decode preempts-and-queues instead of crashing, and cancel/finish
reclaim pages.  Unseeded shared-RNG batches are pinned by the golden
trajectories in tests/test_engine_golden.py.
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
        assert cache.used_pages == 0
        decode_one(cache, 0, np.random.default_rng(0), steps=5)
        # 5 positions at page_size 4 -> exactly 2 pages, for all layers
        assert cache.block_tables[0] == [0, 1]
        assert cache.used_pages == 2
        assert cache.lengths[0] == 5

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

    def test_gather_matches_dense_layout_bitwise(self):
        """The paged gather must reproduce the dense buffer exactly."""
        from repro.infer import KVCache
        rng = np.random.default_rng(7)
        paged = make_cache(prefix_sharing=False)
        dense = KVCache(num_layers=2, batch_size=3, num_heads=2,
                        max_seq_len=32, head_dim=8)
        steps = [5, 3, 5]   # ragged lengths across three slots
        for slot, n in enumerate(steps):
            for pos in range(n):
                k = rng.standard_normal((1, 2, 8))
                v = rng.standard_normal((1, 2, 8))
                paged.begin_spans([(slot, pos, 1)])
                dense.set_active(np.array([slot]))
                ret_p = [layer.append(k, v) for layer in paged.layers]
                ret_d = [layer.append(k, v) for layer in dense.layers]
                paged.commit_span(slot, pos + 1)
                dense.advance()
        for (kp, vp, mp), (kd, vd, md) in zip(ret_p, ret_d):
            assert np.array_equal(kp, kd) and np.array_equal(vp, vd)
        # mixed-length batch: identical gathered values and masks
        paged.begin_spans([(slot, n, 1) for slot, n in enumerate(steps)])
        dense.set_active(np.arange(3))
        k = rng.standard_normal((3, 2, 8))
        v = rng.standard_normal((3, 2, 8))
        for lp, ld in zip(paged.layers, dense.layers):
            kp, vp, mp = lp.append(k, v)
            kd, vd, md = ld.append(k, v)
            np.testing.assert_array_equal(mp, md)
            valid = ~np.isinf(mp)             # garbage only behind -inf
            assert np.array_equal(kp[..., :][np.broadcast_to(
                valid[:, None, :, None], kp.shape)],
                kd[np.broadcast_to(valid[:, None, :, None], kd.shape)])


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
    """Per-prompt ``generate_fast`` on the dense cache: the oracle a
    greedy or per-request-seeded engine request must reproduce."""
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


class TestEngineEquivalence:
    SAMPLING = [{"greedy": True}, {"temperature": 1.2, "top_k": 5},
                {"temperature": 0.8, "top_p": 0.9}]

    @pytest.mark.parametrize("sampling", SAMPLING,
                             ids=["greedy", "topk", "topp"])
    def test_paged_bit_identical_to_dense_multi_slot(self, sampling):
        """The tentpole guarantee: a ragged multi-slot batch with
        queueing decodes, request for request, exactly what per-prompt
        ``generate_fast`` does on the dense cache — greedy, or
        stochastic with a per-request seed — in both compute dtypes."""
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
        """Requests sharing a system prompt hit the cache, run fewer
        steps, and still match the no-cache reference exactly."""
        system = list(np.random.default_rng(0).integers(1, 12, size=40))
        engine = GenerationEngine(model, batch_size=1, params=SamplingParams(greedy=True),
                                  kv_page_size=8)
        cold = engine.generate([system + [1]], 6)[0]
        cold_steps = engine.total_steps
        warm = engine.generate([system + [2]], 6)[0]
        warm_steps = engine.total_steps - cold_steps
        assert cold == model.generate_fast(system + [1], 6, greedy=True)
        assert warm == model.generate_fast(system + [2], 6, greedy=True)
        # 40 shared tokens / page 8 = 5 pages = 40 positions skipped
        assert warm_steps == cold_steps - 40
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

    def test_default_pool_matches_dense_capacity(self, model):
        engine = GenerationEngine(model, batch_size=4)
        cache = engine.cache
        assert cache.num_pages * cache.page_size >= 4 * cache.max_seq_len
        # dense-capacity pools never preempt: worst case always fits
        assert cache.num_pages == 4 * (-(-cache.max_seq_len
                                         // cache.page_size))
