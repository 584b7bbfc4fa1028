"""Batched inference: a paged KV cache + a continuous-batching engine.

``repro.core`` ends the §6 recipe at single-sequence sampling; this
package is the serving layer on top of it.  :class:`GenerationEngine`
decodes a whole pool of prompts per model step, admitting queued prompts
into retired slots so throughput scales with batch size instead of user
count; ``TransformerLM.generate_fast`` is the same engine at batch 1.

The engine runs on :class:`PagedKVCache`: KV storage lives in fixed-size
refcounted pages with per-slot block tables, so memory tracks actual
sequence lengths, identical prompt prefixes are shared across requests
via :class:`PrefixCache`, and forks copy-on-write.  Every engine step is
one span plan (:class:`SpanBatch`, installed by
:meth:`PagedKVCache.begin_spans`): ``(slot, start, m)`` per active
sequence — a prompt's whole uncached prefill as one span, then one
position per plain decode step, or up to k+1 on a forked slot for a
speculative verify — with each span's KV history gathered once.
Greedy output, and the output of a request carrying its own ``seed``,
does not depend on batch composition: a prompt decodes to the same
tokens alone or in a full batch (see docs/KV_CACHE.md).

Sampling is per request (:class:`SamplingParams`: temperature, top-k,
top-p, stop token, seed; the engine groups identical params into one
vectorized sampler call).  Speculative decoding
(:class:`SpeculativeConfig` + any :class:`DraftModel`) lets a cheap
draft propose k tokens that one batched verify accepts a prefix of;
greedy output stays bit-identical to plain decoding (see
docs/SPECULATIVE.md).
"""

from .engine import (GenerationEngine, GenerationResult, PromptLimitError,
                     RequestTiming)
from .paged_kv import PagedKVCache, PagePoolExhausted, PrefixCache, SpanBatch
from .sampling_params import SamplingParams, SamplingParamsError
from .speculative import DraftModel, SpeculativeConfig, verify_draft

__all__ = [
    "PagedKVCache",
    "PagePoolExhausted",
    "PrefixCache",
    "SpanBatch",
    "GenerationEngine",
    "GenerationResult",
    "PromptLimitError",
    "RequestTiming",
    "SamplingParams",
    "SamplingParamsError",
    "SpeculativeConfig",
    "DraftModel",
    "verify_draft",
]
