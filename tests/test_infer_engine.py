"""Equivalence suite for the batched inference engine.

The contract under test: ``forward``-based :meth:`LanguageModel.generate`,
KV-cached :meth:`TransformerLM.generate_fast`, and the batched
:class:`GenerationEngine` all produce identical token streams for the same
RNG seed — across greedy/temperature/top-k/top-p sampling and
windowed-attention configs — and the engine is bit-identical to
``generate_fast`` at batch size 1 by construction (shared decode path,
shared RNG consumption order).

ISSUE 10: the three-way equivalence must hold under either dtype policy.
Sampling is pinned to float64 (logits are upcast on entry), so a float32
model's decode paths agree with each other exactly — the equivalence is
*within* a dtype, never across dtypes.
"""

import numpy as np
import pytest

from repro.core import TransformerConfig, TransformerLM
from repro.infer import GenerationEngine, SamplingParams, SpeculativeConfig
from repro.lm import LanguageModelDraft, NGramLM
from repro.obs import Observability

SAMPLING_CONFIGS = [
    {"greedy": True},
    {"temperature": 1.0},
    {"temperature": 1.3, "top_k": 5},
    {"temperature": 0.8, "top_p": 0.9},
    {"temperature": 1.1, "top_k": 6, "top_p": 0.95},
]

ARCH_CONFIGS = [
    {},
    {"attention_window": 4},
    {"pre_layernorm": False, "positional": "sinusoidal"},
    {"use_residual": False, "positional": "none"},
]


def tiny_model(**kwargs):
    cfg = TransformerConfig(vocab_size=11, max_seq_len=48, d_model=16,
                            num_heads=2, num_layers=2, **kwargs)
    return TransformerLM(cfg, rng=0)


class TestThreeWayEquivalence:
    @pytest.mark.parametrize("dtype", [None, "float32"],
                             ids=["f64", "f32"])
    @pytest.mark.parametrize("arch", ARCH_CONFIGS,
                             ids=["dense", "windowed", "postln-sin", "nores-nopos"])
    @pytest.mark.parametrize("sampling", SAMPLING_CONFIGS,
                             ids=["greedy", "t1.0", "topk", "topp", "topk+topp"])
    def test_generate_generate_fast_engine_agree(self, arch, sampling, dtype):
        model = tiny_model(dtype=dtype, **arch)
        prompt = [1, 2, 3]
        slow = model.generate(prompt, 12, rng=np.random.default_rng(9), **sampling)
        fast = model.generate_fast(prompt, 12, rng=np.random.default_rng(9), **sampling)
        engine = GenerationEngine(model, batch_size=1,
                                  rng=np.random.default_rng(9),
                                  params=SamplingParams(**sampling))
        batched = engine.generate([prompt], 12)[0]
        assert slow == fast == batched


class TestEngineMatchesGenerateFast:
    @pytest.mark.parametrize("dtype", [None, "float32"], ids=["f64", "f32"])
    def test_batch_one_bit_identical_stochastic(self, dtype):
        model = tiny_model(dtype=dtype)
        for seed in (0, 7, 123):
            ref = model.generate_fast([2, 4, 6], 20,
                                      rng=np.random.default_rng(seed),
                                      temperature=1.2, top_k=7)
            engine = GenerationEngine(
                model, batch_size=1, rng=np.random.default_rng(seed),
                params=SamplingParams(temperature=1.2, top_k=7))
            assert engine.generate([[2, 4, 6]], 20)[0] == ref

    def test_batch_one_shared_rng_stream_across_requests(self):
        """One slot + one RNG: the engine must consume draws exactly like
        sequential generate_fast calls sharing that RNG."""
        model = tiny_model()
        prompts = [[1], [2, 3], [4, 5, 6]]
        rng = np.random.default_rng(42)
        refs = [model.generate_fast(p, 8, rng=rng, temperature=1.1) for p in prompts]
        engine = GenerationEngine(model, batch_size=1,
                                  rng=np.random.default_rng(42),
                                  params=SamplingParams(temperature=1.1))
        assert engine.generate(prompts, 8) == refs

    @pytest.mark.parametrize("dtype", [None, "float32"], ids=["f64", "f32"])
    def test_ragged_batch_greedy_matches_per_sequence(self, dtype):
        model = tiny_model(dtype=dtype)
        prompts = [[1, 2, 3], [0], [4, 5, 6, 7, 8, 0, 1], [2, 2], [9, 10]]
        engine = GenerationEngine(model, batch_size=5, params=SamplingParams(greedy=True))
        outs = engine.generate(prompts, 15)
        refs = [model.generate_fast(p, 15, greedy=True) for p in prompts]
        assert outs == refs

    def test_ragged_windowed_batch_matches_per_sequence(self):
        model = tiny_model(attention_window=3)
        prompts = [[1, 2, 3, 4, 5], [0], [6, 7]]
        engine = GenerationEngine(model, batch_size=3, params=SamplingParams(greedy=True))
        outs = engine.generate(prompts, 12)
        refs = [model.generate_fast(p, 12, greedy=True) for p in prompts]
        assert outs == refs


class TestContinuousBatching:
    def test_queue_longer_than_slot_pool(self):
        model = tiny_model()
        prompts = [[i % 11] for i in range(10)]
        engine = GenerationEngine(model, batch_size=3, params=SamplingParams(greedy=True))
        outs = engine.generate(prompts, 9)
        refs = [model.generate_fast(p, 9, greedy=True) for p in prompts]
        assert outs == refs

    def test_independent_retirement_on_stop_token(self):
        model = tiny_model()
        engine = GenerationEngine(model, batch_size=4, params=SamplingParams(greedy=True, stop_token=5))
        ids = [engine.submit([t], 20) for t in (1, 2, 3, 4)]
        results = engine.run()
        assert [r.request_id for r in results] == ids
        for r in results:
            ref = model.generate_fast([r.tokens[0]], 20, greedy=True, stop_token=5)
            assert r.tokens == ref
            if r.finish_reason == "stop_token":
                assert r.tokens[-1] == 5
            else:
                assert r.finish_reason == "length"
                assert len(r.completion) == 20

    def test_retired_slot_is_reused(self):
        model = tiny_model()
        engine = GenerationEngine(model, batch_size=2, params=SamplingParams(greedy=True))
        engine.submit([1], 3)
        engine.submit([2], 18)
        engine.submit([3], 3)  # queued until a slot frees up
        engine.run()
        # request 1 retires after 3 steps and request 3 takes its slot while
        # request 2 (18 steps) is still decoding: 18 total model steps, not
        # the 18 + 3 = 21 a wait-for-drain scheduler would need.
        assert engine.total_steps == 18

    def test_per_request_stop_token_override(self):
        model = tiny_model()
        engine = GenerationEngine(model, batch_size=2, params=SamplingParams(greedy=True, stop_token=5))
        a = engine.submit([1], 12)
        b = engine.submit([1], 12, stop_token=None)  # never stops early
        results = {r.request_id: r for r in engine.run()}
        assert results[a].tokens == model.generate_fast([1], 12, greedy=True,
                                                        stop_token=5)
        assert results[b].tokens == model.generate_fast([1], 12, greedy=True)

    def test_engine_batched_sampling_is_reproducible(self):
        model = tiny_model()
        runs = []
        for _ in range(2):
            engine = GenerationEngine(
                model, batch_size=4, rng=np.random.default_rng(17),
                params=SamplingParams(temperature=1.2, top_p=0.9))
            runs.append(engine.generate([[1], [2], [3], [4], [5]], 10))
        assert runs[0] == runs[1]


class TestOneDecodeLoop:
    @pytest.mark.parametrize("speculative", [False, True],
                             ids=["plain", "speculative"])
    def test_decode_step_reads_cache_layers(self, speculative):
        """Both modes hand ``decode_step`` the cache's own ``layers``
        list, so a layer wrapped in place sees every KV write — verify
        spans (several rows of one sequence) included."""
        model = tiny_model()
        prompts = [[1, 2, 3], [4, 5], [6, 7, 8, 9]]
        refs = [model.generate_fast(p, 10, greedy=True) for p in prompts]
        kwargs = {}
        if speculative:
            ngram = NGramLM(vocab_size=11, order=3, add_k=0.01)
            for ref in refs:
                ngram.fit(np.asarray(ref))
            kwargs["speculative"] = SpeculativeConfig(
                draft=LanguageModelDraft(ngram), k=3)
        engine = GenerationEngine(model, batch_size=2,
                                  params=SamplingParams(greedy=True),
                                  **kwargs)
        rows = []

        class CountingLayer:
            def __init__(self, layer):
                self.layer = layer

            def append(self, k, v):
                rows.append(k.shape[0])
                return self.layer.append(k, v)

        layers = engine.cache.layers
        layers[:] = [CountingLayer(layer) for layer in layers]
        passed = []
        decode_step = model.decode_step

        def spy(tokens, positions, states):
            passed.append(states is layers)
            return decode_step(tokens, positions, states)

        model.decode_step = spy
        assert engine.generate(prompts, 10) == refs
        assert passed and all(passed)
        assert len(rows) == len(passed) * model.config.num_layers
        assert (max(rows) > engine.batch_size) == speculative


class TestEngineValidation:
    def test_rejects_bad_requests(self):
        model = tiny_model()
        engine = GenerationEngine(model, batch_size=2, params=SamplingParams(greedy=True))
        with pytest.raises(ValueError):
            engine.submit([], 5)
        with pytest.raises(ValueError):
            engine.submit([1], -1)
        with pytest.raises(ValueError):
            engine.submit([1] * 40, 20)  # exceeds model window
        with pytest.raises(ValueError):
            GenerationEngine(model, batch_size=0)

    def test_zero_new_tokens_returns_prompt(self):
        model = tiny_model()
        engine = GenerationEngine(model, batch_size=2, params=SamplingParams(greedy=True))
        assert engine.generate([[1, 2]], 0) == [[1, 2]]

    def test_result_metadata(self):
        model = tiny_model()
        engine = GenerationEngine(model, batch_size=1, params=SamplingParams(greedy=True))
        engine.submit([1, 2, 3], 6)
        (result,) = engine.run()
        assert result.prompt_len == 3
        assert result.completion == result.tokens[3:]
        assert len(result.completion) == 6
        assert result.steps == 3 + 6 - 1  # prefill + decode, sharing one step


class TestInterleavedSubmitters:
    """PR 6 satellites: generate() must not assume contiguous request
    ids, engines must be reusable, and serving state must stay fresh —
    the invariants the HTTP serving layer depends on."""

    def test_generate_keeps_foreign_results(self):
        """A request submitted outside generate() is neither mis-mapped
        into its output nor discarded: the old first+i indexing lost it."""
        model = tiny_model()
        engine = GenerationEngine(model, batch_size=2, params=SamplingParams(greedy=True))
        foreign = engine.submit([7, 8], 5)
        outs = engine.generate([[1, 2], [3]], 6)
        assert outs == [model.generate_fast([1, 2], 6, greedy=True),
                        model.generate_fast([3], 6, greedy=True)]
        leftovers = engine.run()
        assert [r.request_id for r in leftovers] == [foreign]
        assert leftovers[0].tokens == model.generate_fast([7, 8], 5,
                                                          greedy=True)

    def test_back_to_back_generate_calls_on_one_engine(self):
        model = tiny_model()
        engine = GenerationEngine(model, batch_size=2, params=SamplingParams(greedy=True))
        for _ in range(3):  # request ids keep climbing across calls
            outs = engine.generate([[1], [2, 3]], 7)
            assert outs == [model.generate_fast([1], 7, greedy=True),
                            model.generate_fast([2, 3], 7, greedy=True)]

    def test_back_to_back_run_calls_on_one_engine(self):
        model = tiny_model()
        engine = GenerationEngine(model, batch_size=2, params=SamplingParams(greedy=True))
        first = engine.submit([1], 5)
        assert [r.request_id for r in engine.run()] == [first]
        second = engine.submit([2], 5)
        third = engine.submit([3], 5)
        results = engine.run()
        assert [r.request_id for r in results] == [second, third]
        assert results[0].tokens == model.generate_fast([2], 5, greedy=True)

    def test_generate_with_zero_token_and_normal_requests(self):
        model = tiny_model()
        engine = GenerationEngine(model, batch_size=2, params=SamplingParams(greedy=True))
        outs = engine.generate([[1, 2], [3, 4]], 0)
        assert outs == [[1, 2], [3, 4]]
        assert engine.generate([[5]], 4) == \
            [model.generate_fast([5], 4, greedy=True)]


class TestServingSupport:
    def test_cancel_queued_request(self):
        model = tiny_model()
        engine = GenerationEngine(model, batch_size=1, params=SamplingParams(greedy=True))
        keep = engine.submit([1], 6)
        dropped = engine.submit([2, 3], 6)  # waits behind `keep`
        result = engine.cancel(dropped)
        assert result.request_id == dropped
        assert result.finish_reason == "cancelled"
        assert result.tokens == [2, 3]  # nothing decoded yet
        finished = engine.run()
        assert [r.request_id for r in finished] == [keep, dropped]
        assert engine.total_steps == 6  # queue never reached the model

    def test_cancel_active_request_reclaims_slot(self):
        model = tiny_model()
        engine = GenerationEngine(model, batch_size=1, params=SamplingParams(greedy=True))
        victim = engine.submit([1], 20)
        queued = engine.submit([2], 3)
        for _ in range(4):
            engine.step()
        assert engine.cancel(victim).steps == 4
        assert engine.num_active == 0  # slot reclaimed immediately
        results = {r.request_id: r for r in engine.run()}
        assert results[queued].tokens == model.generate_fast([2], 3,
                                                             greedy=True)

    def test_cancel_unknown_or_finished_returns_none(self):
        model = tiny_model()
        engine = GenerationEngine(model, batch_size=1, params=SamplingParams(greedy=True))
        request = engine.submit([1], 3)
        engine.run()
        assert engine.cancel(request) is None
        assert engine.cancel(999) is None

    def test_on_token_callback_streams_every_sampled_token(self):
        model = tiny_model()
        streamed: dict[int, list[int]] = {}
        engine = GenerationEngine(
            model, batch_size=2,
            params=SamplingParams(greedy=True, stop_token=5),
            on_token=lambda rid, tok: streamed.setdefault(rid, []).append(tok))
        ids = [engine.submit([t], 12) for t in (1, 2, 3)]
        results = {r.request_id: r for r in engine.run()}
        assert set(streamed) == set(ids)
        for request_id in ids:
            # stop token included, matching the completion convention
            assert streamed[request_id] == results[request_id].completion

    def test_drain_is_incremental(self):
        model = tiny_model()
        engine = GenerationEngine(model, batch_size=2, params=SamplingParams(greedy=True))
        short = engine.submit([1], 2)
        long = engine.submit([2], 10)
        drained = []
        while engine.has_work:
            engine.step()
            drained.extend(engine.drain())
            assert engine.drain() == []  # nothing left behind
        assert [r.request_id for r in drained] == [short, long]
        assert engine.run() == []

    def test_zero_token_request_emits_finished_event(self):
        model = tiny_model()
        obs = Observability.standard()
        engine = GenerationEngine(model, batch_size=1, params=SamplingParams(greedy=True), obs=obs)
        engine.submit([1, 2], 0)
        engine.submit([3], 4)
        engine.run()
        submitted = obs.events.of_type("request_submitted")
        finished = obs.events.of_type("request_finished")
        assert len(submitted) == len(finished) == 2
        inline = [e for e in finished if e["request_id"] == 0]
        assert inline[0]["finish_reason"] == "length"
        assert inline[0]["new_tokens"] == 0

    def test_gauges_fresh_at_every_transition(self):
        model = tiny_model()
        obs = Observability.standard()
        engine = GenerationEngine(model, batch_size=2, params=SamplingParams(greedy=True), obs=obs)
        active = obs.metrics.gauge("engine.active_slots")
        queued = obs.metrics.gauge("engine.queue_depth")
        for prompt in ([1], [2], [3]):
            engine.submit(prompt, 4)
        # stats scraped *between* submit and the first step must be live
        assert queued.value == 3 and active.value == 0
        engine.step()  # admits 2, queue drops to 1
        assert queued.value == 1 and active.value == 2
        engine.run()
        assert queued.value == 0 and active.value == 0

    def test_stats_consistent_midflight(self):
        model = tiny_model()
        engine = GenerationEngine(model, batch_size=2, params=SamplingParams(greedy=True))
        for prompt in ([1], [2], [3]):
            engine.submit(prompt, 6)
        stats = engine.stats()
        assert stats["queue_depth"] == 3 and stats["active_slots"] == 0
        engine.step()
        stats = engine.stats()
        assert stats["queue_depth"] == 1 and stats["active_slots"] == 2
        assert stats["requests_submitted"] == 3
        engine.run()
        stats = engine.stats()
        assert stats["requests_completed"] == 3
        assert stats["active_slots"] == stats["queue_depth"] == 0


class TestGenerateFastStopSemantics:
    """Satellite: generate_fast's stop-token return semantics must match
    LanguageModel.generate exactly, for the same seed."""

    def test_stop_token_parity_with_generate(self):
        model = tiny_model()
        for seed in range(5):
            for stop in (3, 5, None):
                slow = model.generate([1, 2], 18, rng=np.random.default_rng(seed),
                                      temperature=1.4, stop_token=stop)
                fast = model.generate_fast([1, 2], 18,
                                           rng=np.random.default_rng(seed),
                                           temperature=1.4, stop_token=stop)
                assert slow == fast

    def test_greedy_stop_token_included_once(self):
        model = tiny_model()
        out = model.generate_fast([1], 25, greedy=True, stop_token=5)
        ref = model.generate([1], 25, greedy=True, stop_token=5)
        assert out == ref
        if 5 in out[1:]:
            assert out.index(5, 1) == len(out) - 1
