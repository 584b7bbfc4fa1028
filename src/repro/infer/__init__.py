"""Batched inference: KV caches + a continuous-batching engine.

``repro.core`` ends the §6 recipe at single-sequence sampling; this
package is the serving layer on top of it.  :class:`KVCache` replaces the
per-token ``np.concatenate`` cache growth with one up-front allocation
and in-place appends (the batch-1 ``generate_fast`` loop), and
:class:`GenerationEngine` decodes a whole pool of prompts per model step,
admitting queued prompts into retired slots so throughput scales with
batch size instead of user count.

The engine runs on :class:`PagedKVCache`: KV storage lives in fixed-size
refcounted pages with per-slot block tables, so memory tracks actual
sequence lengths, identical prompt prefixes are shared across requests
via :class:`PrefixCache`, and forks copy-on-write.  Every engine step is
one span plan (:class:`SpanBatch`, installed by
:meth:`PagedKVCache.begin_spans`): ``(slot, start, m)`` per active
sequence, one position for plain decoding, up to k+1 on a forked slot
for a speculative verify.  Greedy and seeded output is bit-identical to
per-prompt ``generate_fast`` (see docs/KV_CACHE.md).

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
from .kv_cache import KVCache, LayerKV, ragged_key_mask
from .paged_kv import PagedKVCache, PagePoolExhausted, PrefixCache, SpanBatch
from .sampling_params import SamplingParams, SamplingParamsError
from .speculative import DraftModel, SpeculativeConfig, verify_draft

__all__ = [
    "KVCache",
    "LayerKV",
    "ragged_key_mask",
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
