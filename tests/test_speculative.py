"""Speculative decoding: verify rule, draft adapter, engine integration.

The load-bearing guarantee (ISSUE 9 acceptance bar): under greedy
params, a speculative engine emits *bit-identical* tokens to the plain
engine — the draft only changes how many model steps the output costs,
never the output.  Tested across architectures, ragged batches, stop
tokens, tight ``max_new_tokens`` budgets, hostile drafts, and page-pool
pressure (preemption mid-speculation).

For stochastic params the rejection-sampling rule must keep every
emitted token exactly target-distributed; that is checked statistically
on :func:`~repro.infer.verify_draft` with a deliberately skewed
proposal, plus seeded end-to-end reproducibility.
"""

import numpy as np
import pytest

from repro.core import TransformerConfig, TransformerLM
from repro.core.sampling import sampling_probs
from repro.infer import (DraftModel, GenerationEngine, SamplingParams,
                         SpeculativeConfig, verify_draft)
from repro.lm import LanguageModelDraft, NGramLM
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry

GREEDY = SamplingParams(greedy=True)


def tiny_model(**kwargs):
    cfg = TransformerConfig(vocab_size=11, max_seq_len=48, d_model=16,
                            num_heads=2, num_layers=2, **kwargs)
    return TransformerLM(cfg, rng=0)


def distilled_draft(model, prompts, max_new, order=4, add_k=0.01):
    """An n-gram draft fit on the target's own greedy outputs — the
    predictable-draft setup the speculative speedup depends on."""
    refs = [model.generate_fast(p, max_new, greedy=True) for p in prompts]
    ngram = NGramLM(vocab_size=model.config.vocab_size, order=order,
                    add_k=add_k)
    for seq in refs:
        ngram.fit(np.asarray(seq, dtype=np.int64))
    return LanguageModelDraft(ngram), refs


class ConstantDraft:
    """Hostile draft: always proposes the same token, claims certainty."""

    def __init__(self, token, vocab_size):
        self.token = token
        self.vocab_size = vocab_size

    def propose(self, tokens, k, params, rng):
        q = np.zeros((k, self.vocab_size))
        q[:, self.token] = 1.0
        return [self.token] * k, q


class TestVerifyDraft:
    def test_greedy_accepts_matching_prefix_plus_bonus(self):
        logits = np.zeros((4, 6))
        for i, top in enumerate([2, 4, 1, 5]):
            logits[i, top] = 5.0
        emitted, accepted = verify_draft(logits, [2, 4, 1], None, GREEDY,
                                         rng=None)
        assert emitted == [2, 4, 1, 5]      # all drafts + bonus from row k
        assert accepted == 3

    def test_greedy_stops_at_first_mismatch_with_correction(self):
        logits = np.zeros((4, 6))
        for i, top in enumerate([2, 3, 1, 5]):
            logits[i, top] = 5.0
        emitted, accepted = verify_draft(logits, [2, 4, 1], None, GREEDY,
                                         rng=None)
        assert emitted == [2, 3]            # draft 4 rejected, argmax emitted
        assert accepted == 1

    def test_greedy_consumes_no_rng(self):
        # rng=None would crash on any .random() call
        logits = np.zeros((2, 4))
        logits[0, 1] = 3.0
        logits[1, 2] = 3.0
        assert verify_draft(logits, [0], None, GREEDY, rng=None) == ([1], 0)

    def test_stochastic_output_is_target_distributed(self):
        """The core Leviathan identity: draw the draft from q, accept
        with min(1, p/q), resample the residual on rejection — the
        emitted token is distributed exactly as p, no matter how skewed
        q is."""
        rng = np.random.default_rng(0)
        logits = np.array([[1.0, 0.5, -0.5, 0.0]])
        params = SamplingParams(temperature=1.0)
        p = sampling_probs(logits[0])
        q = np.zeros((1, 4))
        q[0] = [0.85, 0.05, 0.05, 0.05]     # proposal loves token 0
        counts = np.zeros(4)
        trials = 20000
        two_rows = np.vstack([logits, logits])   # row 1 = unused bonus row
        for _ in range(trials):
            draft = int(rng.choice(4, p=q[0]))   # draft sampled from q
            emitted, _ = verify_draft(two_rows, [draft], q, params, rng)
            counts[emitted[0]] += 1
        empirical = counts / trials
        assert np.abs(empirical - p).max() < 0.015, (empirical, p)

    def test_all_accepted_bonus_token_is_target_distributed(self):
        rng = np.random.default_rng(1)
        logits = np.zeros((2, 4))
        logits[0, 2] = 10.0                  # row 0 all-but-forces token 2
        logits[1] = [0.2, -0.1, 0.4, 0.0]
        params = SamplingParams(temperature=1.0)
        q = np.zeros((1, 4))
        q[0, 2] = 1.0                        # draft proposes the sure thing
        p_bonus = sampling_probs(logits[1])
        counts = np.zeros(4)
        trials = 20000
        accepted_trials = 0
        for _ in range(trials):
            emitted, accepted = verify_draft(logits, [2], q, params, rng)
            if accepted == 1:   # p(2) < q(2)=1, so ~1e-4 of trials reject
                accepted_trials += 1
                counts[emitted[1]] += 1
        assert accepted_trials > trials * 0.99
        assert np.abs(counts / accepted_trials - p_bonus).max() < 0.015


class TestConfigAndProtocol:
    def test_k_must_be_positive(self):
        draft = ConstantDraft(0, 11)
        with pytest.raises(ValueError):
            SpeculativeConfig(draft=draft, k=0)

    def test_draft_must_implement_propose(self):
        with pytest.raises(TypeError):
            SpeculativeConfig(draft=object())

    def test_adapter_satisfies_protocol(self):
        draft = LanguageModelDraft(NGramLM(vocab_size=11, order=2))
        assert isinstance(draft, DraftModel)
        assert isinstance(ConstantDraft(0, 11), DraftModel)

    def test_adapter_propose_contract(self):
        ngram = NGramLM(vocab_size=11, order=3, add_k=1.0)
        ngram.fit(np.array([1, 2, 3, 1, 2, 3, 1, 2, 3], dtype=np.int64))
        draft = LanguageModelDraft(ngram)
        drafts, q = draft.propose([1, 2], 4, GREEDY, rng=None)
        assert len(drafts) == 4 and q.shape == (4, 11)
        # greedy proposals are one-hot on the proposed token
        for i, token in enumerate(drafts):
            assert q[i, token] == 1.0 and q[i].sum() == 1.0
        # stochastic proposals carry the full filtered distribution
        drafts2, q2 = draft.propose(
            [1, 2], 3, SamplingParams(temperature=1.2, top_k=5),
            rng=np.random.default_rng(0))
        assert np.allclose(q2.sum(axis=1), 1.0)
        for i, token in enumerate(drafts2):
            assert q2[i, token] > 0.0


class TestEngineGreedyBitIdentity:
    @pytest.mark.parametrize("dtype", [None, "float32"], ids=["f64", "f32"])
    @pytest.mark.parametrize("arch", [{}, {"attention_window": 4}],
                             ids=["dense", "windowed"])
    def test_matches_plain_engine_exactly(self, arch, dtype):
        model = tiny_model(dtype=dtype, **arch)
        prompts = [[1, 2, 3], [4, 5], [6, 7, 8, 9, 1, 2], [3]]
        draft, refs = distilled_draft(model, prompts, 16)
        engine = GenerationEngine(
            model, batch_size=2, params=GREEDY,
            speculative=SpeculativeConfig(draft=draft, k=4))
        assert engine.generate(prompts, 16) == refs
        assert engine.spec_accepted > 0          # actually speculated

    def test_fewer_model_steps_than_plain_engine(self):
        model = tiny_model()
        prompts = [[1, 2, 3], [4, 5]]
        draft, refs = distilled_draft(model, prompts, 20)
        plain = GenerationEngine(model, batch_size=2, params=GREEDY)
        plain.generate(prompts, 20)
        spec = GenerationEngine(
            model, batch_size=2, params=GREEDY,
            speculative=SpeculativeConfig(draft=draft, k=4))
        assert spec.generate(prompts, 20) == refs
        assert spec.total_steps * 2 <= plain.total_steps

    def test_hostile_draft_still_bit_identical(self):
        """A draft that is always wrong costs steps, never correctness."""
        model = tiny_model()
        prompts = [[1, 2], [3, 4, 5]]
        engine = GenerationEngine(
            model, batch_size=2, params=GREEDY,
            speculative=SpeculativeConfig(
                draft=ConstantDraft(0, model.config.vocab_size), k=3))
        outs = engine.generate(prompts, 12)
        assert outs == [model.generate_fast(p, 12, greedy=True)
                        for p in prompts]
        assert engine.spec_rejected > 0

    def test_stop_token_respected_mid_acceptance(self):
        model = tiny_model()
        params = SamplingParams(greedy=True, stop_token=5)
        prompts = [[1], [2], [3]]
        draft, _ = distilled_draft(model, prompts, 14)
        engine = GenerationEngine(
            model, batch_size=2, params=params,
            speculative=SpeculativeConfig(draft=draft, k=4))
        ids = [engine.submit(p, 14) for p in prompts]
        results = {r.request_id: r for r in engine.run()}
        for request_id, prompt in zip(ids, prompts):
            assert results[request_id].tokens == model.generate_fast(
                prompt, 14, greedy=True, stop_token=5)

    def test_tight_token_budget_degrades_gracefully(self):
        """max_new_tokens < k leaves no draft budget: the engine falls
        back to plain one-token steps and still matches exactly."""
        model = tiny_model()
        prompts = [[1, 2, 3], [4, 5]]
        draft, _ = distilled_draft(model, prompts, 8)
        engine = GenerationEngine(
            model, batch_size=2, params=GREEDY,
            speculative=SpeculativeConfig(draft=draft, k=6))
        for max_new in (1, 2, 3):
            assert engine.generate(prompts, max_new) == [
                model.generate_fast(p, max_new, greedy=True)
                for p in prompts]

    def test_bit_identical_under_page_pressure(self):
        """A pool too small for both requests forces preemption and
        chunked replay mid-speculation; outputs must not change."""
        model = tiny_model()
        prompts = [[1, 2, 3, 4], [5, 6, 7]]
        draft, refs = distilled_draft(model, prompts, 16)
        engine = GenerationEngine(
            model, batch_size=2, params=GREEDY, kv_num_pages=9,
            kv_page_size=4,
            speculative=SpeculativeConfig(draft=draft, k=4))
        assert engine.generate(prompts, 16) == refs
        assert engine.preemptions >= 1, \
            "pool was large enough that preemption never happened; " \
            "shrink kv_num_pages to keep this test meaningful"


class TestStochasticSpeculative:
    def test_seeded_runs_reproduce(self):
        model = tiny_model()
        prompts = [[1, 2], [3, 4, 5]]
        draft, _ = distilled_draft(model, prompts, 12)
        runs = []
        for _ in range(2):
            engine = GenerationEngine(
                model, batch_size=2, rng=np.random.default_rng(13),
                params=SamplingParams(temperature=1.1, top_k=6),
                speculative=SpeculativeConfig(draft=draft, k=3))
            runs.append(engine.generate(prompts, 12))
        assert runs[0] == runs[1]

    def test_per_request_seed_reproduces_across_batch_shapes(self):
        model = tiny_model()
        draft, _ = distilled_draft(model, [[1, 2]], 10)
        spec = SpeculativeConfig(draft=draft, k=3)
        seeded = SamplingParams(temperature=1.2, seed=77)

        solo_engine = GenerationEngine(model, batch_size=1,
                                       rng=np.random.default_rng(0),
                                       speculative=spec)
        solo_engine.submit([1, 2], 10, params=seeded)
        (solo,) = solo_engine.run()

        crowded = GenerationEngine(model, batch_size=2,
                                   rng=np.random.default_rng(555),
                                   speculative=spec)
        crowded.submit([3, 4, 5], 10, params=SamplingParams(greedy=True))
        mine = crowded.submit([1, 2], 10, params=seeded)
        results = {r.request_id: r for r in crowded.run()}
        assert results[mine].tokens == solo.tokens


    def test_seeded_trajectory_survives_preemption(self):
        """A seeded request preempted mid-decode replays up to its rest
        point and resumes with the verify round it would have run, so
        its tokens match an unpressured solo run draw for draw."""
        model = tiny_model()
        prompts = [[1, 2, 3, 4], [5, 6, 7], [8, 9]]
        draft, _ = distilled_draft(model, prompts, 16)
        spec = SpeculativeConfig(draft=draft, k=4)
        params = [SamplingParams(temperature=1.1, top_k=6, seed=60 + i)
                  for i in range(len(prompts))]
        solo = []
        for prompt, p in zip(prompts, params):
            engine = GenerationEngine(model, batch_size=1, speculative=spec,
                                      prefix_cache=False)
            engine.submit(prompt, 16, params=p)
            solo.append(engine.run()[0].tokens)
        crowded = GenerationEngine(model, batch_size=3, speculative=spec,
                                   rng=np.random.default_rng(0),
                                   kv_page_size=4, kv_num_pages=10,
                                   prefix_cache=False)
        ids = [crowded.submit(prompt, 16, params=p)
               for prompt, p in zip(prompts, params)]
        results = {r.request_id: r.tokens for r in crowded.run()}
        assert crowded.preemptions >= 1
        assert [results[i] for i in ids] == solo


class TestCountersAndStats:
    def test_counter_identity_and_stats_section(self):
        model = tiny_model()
        prompts = [[1, 2, 3], [4, 5]]
        draft, _ = distilled_draft(model, prompts, 16)
        engine = GenerationEngine(
            model, batch_size=2, params=GREEDY,
            speculative=SpeculativeConfig(draft=draft, k=4))
        engine.generate(prompts, 16)
        assert engine.spec_proposed == \
            engine.spec_accepted + engine.spec_rejected
        spec = engine.stats()["spec"]
        assert spec["k"] == 4
        assert spec["draft"] == "LanguageModelDraft"
        assert spec["proposed"] == engine.spec_proposed
        assert spec["rounds"] == engine.spec_rounds > 0
        assert spec["acceptance_rate"] == pytest.approx(
            engine.spec_accepted / engine.spec_proposed)
        assert spec["accepted_tokens_per_step"] == pytest.approx(
            engine.spec_accepted / engine.spec_rounds)

    def test_metrics_exported(self):
        model = tiny_model()
        prompts = [[1, 2, 3]]
        draft, _ = distilled_draft(model, prompts, 12)
        obs = Observability(metrics=MetricsRegistry())
        engine = GenerationEngine(
            model, batch_size=1, params=GREEDY, obs=obs,
            speculative=SpeculativeConfig(draft=draft, k=4))
        engine.generate(prompts, 12)
        snap = obs.metrics.snapshot()
        assert snap["engine.spec.proposed"]["value"] == engine.spec_proposed
        assert snap["engine.spec.accepted"]["value"] == engine.spec_accepted
        assert snap["engine.spec.rejected"]["value"] == engine.spec_rejected
        assert snap["engine.spec.accepted_tokens_per_step"]["value"] == \
            pytest.approx(engine.spec_accepted / engine.spec_rounds)

    def test_plain_engine_has_no_spec_section(self):
        engine = GenerationEngine(tiny_model(), batch_size=1, params=GREEDY)
        assert "spec" not in engine.stats()
