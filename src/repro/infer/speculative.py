"""Speculative decoding: cheap drafts, one batched verify, exact output.

The serving survey (PAPERS.md) names speculative decoding as the third
core inference optimization next to paged attention and KV reuse: a
cheap *draft* model proposes k tokens autoregressively, the expensive
target model scores all k+1 positions in **one** batched forward, and
a rejection-sampling rule keeps the longest acceptable prefix — so
each target step emits between 1 and k+1 tokens while the output
distribution stays *exactly* the target's.

This module holds the pieces the engine composes:

- :class:`DraftModel` — the proposal protocol.  Any object with
  ``propose(tokens, k, params, rng) -> (drafts, q)`` qualifies; the
  :class:`~repro.lm.LanguageModelDraft` adapter covers the whole
  classical-LM family (n-gram, Kneser-Ney, FFN, RNN).
- :class:`SpeculativeConfig` — the engine knob: which draft, how many
  tokens per round.
- :func:`verify_draft` — the accept/reject core, pure of engine state.

**Correctness.** For each draft ``d_i`` with proposal distribution
``q_i`` and target distribution ``p_i`` (both *modified* distributions
— after the request's temperature/top-k/top-p pipeline), accept with
probability ``min(1, p_i(d_i) / q_i(d_i))``; on the first rejection,
emit one token from the residual ``normalize(max(p_i - q_i, 0))`` and
stop; if all k survive, emit a bonus token from ``p_{k+1}``.  A draw
accepted with probability ``min(1, p/q)`` plus a residual-distributed
replacement is distributed exactly as ``p`` (Leviathan et al.; the
argument is spelled out in docs/SPECULATIVE.md) — so every emitted
token is an exact sample from the target's own modified distribution,
independent of how bad the draft is.  Under greedy params the rule
degenerates to "accept while the draft matches argmax, else emit
argmax": bit-identical to non-speculative greedy decoding, no RNG
consumed.

The engine runs the verify as one span of its step plan over the
paged KV cache (:class:`~repro.infer.paged_kv.SpanBatch`): the k+1
positions of one sequence become k+1 batch rows writing into a
:meth:`~repro.infer.PagedKVCache.fork_slot` of the sequence's slot,
and :meth:`~repro.infer.PagedKVCache.promote_fork` commits the
accepted prefix while releasing the rejected pages — rollback is page
arithmetic, not recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..core.sampling import sample_from_probs, sampling_probs
from .sampling_params import SamplingParams


@runtime_checkable
class DraftModel(Protocol):
    """Proposal side of speculative decoding.

    Implementations must return the distribution each draft token was
    actually drawn from — the rejection rule is only exact when ``q``
    is the true proposal distribution.
    """

    def propose(self, tokens, k: int, params: SamplingParams, rng):
        """Propose ``k`` tokens extending ``tokens``.

        Returns ``(drafts, q)``: a length-k list of token ids and the
        ``(k, vocab)`` array of proposal distributions.  Must not touch
        ``rng`` when ``params.greedy``.
        """
        ...


@dataclass(frozen=True)
class SpeculativeConfig:
    """Engine knob enabling speculative decoding.

    ``k`` drafts are proposed per decode round; the verify forward
    scores k+1 positions, so each round emits 1..k+1 tokens.  Larger k
    amortizes more target compute per accepted token but wastes more
    work when the draft diverges — docs/SPECULATIVE.md discusses
    tuning.
    """

    draft: DraftModel
    k: int = 4

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("SpeculativeConfig.k must be >= 1")
        if not hasattr(self.draft, "propose"):
            raise TypeError("draft must implement propose(tokens, k, "
                            "params, rng) — see DraftModel")


def verify_draft(logits: np.ndarray, drafts, q: np.ndarray,
                 params: SamplingParams, rng) -> tuple[list[int], int]:
    """Accept-prefix rule over one verify forward's target logits.

    ``logits`` has k+1 rows: row ``i`` is the target's next-token
    logits *after* draft ``i`` tokens (row 0 conditions on none of
    them), so row ``i`` judges ``drafts[i]`` and row k feeds the bonus
    token.  Returns ``(emitted, accepted)`` where ``emitted`` is the
    1..k+1 tokens this round produces and ``accepted`` counts surviving
    drafts — ``emitted[:accepted] == drafts[:accepted]``, followed by
    one replacement or bonus token.

    Greedy params consume no randomness and reproduce the baseline
    argmax trajectory exactly; stochastic params consume one uniform
    per judged draft plus one for the replacement/bonus draw.
    """
    k = len(drafts)
    emitted: list[int] = []
    if params.greedy:
        for i in range(k):
            top = int(np.argmax(logits[i]))
            emitted.append(top)
            if top != drafts[i]:
                return emitted, i
        emitted.append(int(np.argmax(logits[k])))
        return emitted, k
    for i in range(k):
        p = sampling_probs(logits[i], temperature=params.temperature,
                           top_k=params.top_k, top_p=params.top_p)
        d = int(drafts[i])
        q_d = float(q[i, d])
        # q_d == 0 means the adapter proposed a token it assigned no
        # mass — a contract breach; treating the ratio as infinite
        # keeps the draw count deterministic rather than crashing.
        if rng.random() < (1.0 if q_d <= 0.0 else min(1.0, p[d] / q_d)):
            emitted.append(d)
            continue
        residual = np.maximum(p - q[i], 0.0)
        total = residual.sum()
        dist = residual / total if total > 0.0 else p
        emitted.append(sample_from_probs(dist, rng))
        return emitted, i
    p = sampling_probs(logits[k], temperature=params.temperature,
                       top_k=params.top_k, top_p=params.top_p)
    emitted.append(sample_from_probs(p, rng))
    return emitted, k
