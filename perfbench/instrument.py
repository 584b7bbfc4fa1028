"""Span wrappers for the traced run, and the per-layer metrics they give.

Only public calls are wrapped, from the benchmark's side:

- ``GenerationEngine.submit`` / ``step`` on the engine instance;
- ``TransformerLM.decode_step``, ``blocks[i].step`` and
  ``blocks[i].attn.step`` on the model instance;
- the cache's ``layers[i].append``, through a stand-in object in the
  ``layers`` list the engine hands to ``decode_step``;
- ``sample_token`` as :mod:`repro.infer.engine` looks it up;
- ``Trainer.run``, with proxies for the model (``loss``), the loss
  tensor (``backward``) and the optimizer (``step``).

Byte counts are computed from the sizes of the arrays ``append``
returns; FLOP counts are estimated from the shapes of each call.
"""

from __future__ import annotations

import numpy as np

import repro.infer.engine as engine_module
from workloads import BATCH, MODEL, TRAIN_CHUNK


class _LayerStandIn:
    """Takes a cache layer's place in ``cache.layers`` with a timed append."""

    __slots__ = ("append",)

    def __init__(self, append):
        self.append = append


class _Proxy:
    """Forwards attribute reads to ``target``; ``overrides`` win."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class EngineCounts:
    """Work counted at the wrapped boundaries of one traced engine pass."""

    def __init__(self):
        self.rows = 0
        self.flop = 0.0
        self.gathered_bytes = 0


def instrument_engine(bench, recorder):
    """Wrap the public calls of ``bench``'s engine, model and cache.

    Returns the work counters and a function that undoes the one
    module-level patch (``sample_token``).
    """
    counts = EngineCounts()
    engine, model = bench.engine, bench.model
    d, dff = MODEL["d_model"], model.config.d_ff
    row_flop = (model.config.num_layers * (2 * d * 3 * d + 2 * d * d
                                           + 2 * 2 * d * dff)
                + 2 * d * MODEL["vocab_size"])

    def note_submit(index, args, request_id):
        recorder.request_ids[index] = request_id

    def note_decode(index, args, logits):
        counts.rows += len(args[0])
        counts.flop += row_flop * len(args[0])

    def note_append(index, args, result):
        keys, values = result[0], result[1]
        counts.gathered_bytes += keys.nbytes + values.nbytes
        counts.flop += 4.0 * keys.size   # scores and weighted sum

    engine.submit = recorder.wrap("engine.submit", engine.submit, note_submit)
    engine.step = recorder.wrap("engine.step", engine.step)
    model.decode_step = recorder.wrap("model.decode_step", model.decode_step,
                                      note_decode)
    for block in model.blocks:
        block.step = recorder.wrap("model.block", block.step)
        block.attn.step = recorder.wrap("model.attn", block.attn.step)
    layers = engine.cache.layers
    for i, layer in enumerate(layers):
        layers[i] = _LayerStandIn(
            recorder.wrap("kv.append", layer.append, note_append))
    original = engine_module.sample_token
    engine_module.sample_token = recorder.wrap("sampling.sample_token",
                                               original)

    def restore():
        engine_module.sample_token = original

    return counts, restore


def instrument_trainer(bench, recorder):
    """A traced ``Trainer.run`` over proxies of ``bench``'s model and
    optimizer."""
    model, optimizer = bench.model, bench.optimizer

    def loss(x, y):
        value = model.loss(x, y)
        return _Proxy(value, backward=recorder.wrap("train.backward",
                                                    value.backward))

    trainer = bench.make_trainer(
        _Proxy(model, loss=recorder.wrap("train.forward", loss)),
        _Proxy(optimizer, step=recorder.wrap("train.optimizer",
                                             optimizer.step)))
    return recorder.wrap("train.run", trainer.run)


def _per(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def engine_layer_metrics(recorder, counts, trial, kv_before, kv_after):
    """Per-layer numbers of one traced engine pass (see README.md)."""
    spans = recorder.summary()

    def get(name, key):
        return spans.get(name, {}).get(key, 0.0)

    steps = get("engine.step", "count")
    calls = get("model.decode_step", "count")
    prefix_before = kv_before.get("prefix_cache", {})
    prefix_after = kv_after.get("prefix_cache", {})

    def prefix_delta(key):
        return prefix_after.get(key, 0) - prefix_before.get(key, 0)

    hits, misses = prefix_delta("hits"), prefix_delta("misses")
    results = trial.results
    prompt_tokens = sum(r.prompt_len for r in results)
    prefill = [r.steps - (len(r.tokens) - r.prompt_len - 1) for r in results]
    waits = [r.timing.queue_wait_s for r in results]
    return {
        "engine.self_ms_per_step": _per(get("engine.step", "self_seconds"),
                                        steps) * 1e3,
        "engine.prefill_steps_per_req": float(np.mean(prefill))
        if prefill else 0.0,
        "engine.rows_per_step": _per(counts.rows, calls),
        "engine.queue_wait_p50_ms": float(np.median(waits)) * 1e3
        if waits else 0.0,
        "engine.steps": steps,
        "engine.step_ms_p50": get("engine.step", "median_seconds") * 1e3,
        "engine.occupancy": _per(counts.rows, calls * BATCH),
        "engine.preemptions": kv_after["preemptions"]
        - kv_before["preemptions"],
        "engine.submit_us_p50": get("engine.submit", "median_seconds") * 1e6,
        "model.decode_ms_per_call": _per(get("model.decode_step", "seconds"),
                                         calls) * 1e3,
        "model.us_per_row": _per(get("model.decode_step", "seconds"),
                                 counts.rows) * 1e6,
        "model.attn_ms_per_call": _per(get("model.attn", "self_seconds"),
                                       calls) * 1e3,
        "model.ffn_norm_ms_per_call": _per(get("model.block", "self_seconds"),
                                           calls) * 1e3,
        "model.embed_head_ms_per_call": _per(
            get("model.decode_step", "self_seconds"), calls) * 1e3,
        "model.rows_forwarded": counts.rows,
        "model.gflop": counts.flop / 1e9,
        "sampling.calls_per_step": _per(get("sampling.sample_token", "count"),
                                        steps),
        "sampling.ms_per_step": _per(get("sampling.sample_token", "seconds"),
                                     steps) * 1e3,
        "kv.append_ms_per_step": _per(get("kv.append", "seconds"),
                                      steps) * 1e3,
        "kv.gathered_mb_per_step": _per(counts.gathered_bytes, steps) / 1e6,
        "kv.prefix_hit_rate": _per(hits, hits + misses),
        "kv.prefix_token_share": _per(prefix_delta("hit_tokens"),
                                      prompt_tokens),
        "kv.evictions_per_req": _per(prefix_delta("evictions"), len(results)),
        "kv.peak_pages": kv_after["peak_pages_used"],
    }


def train_layer_metrics(recorder):
    """Per-step forward / backward / optimizer / Trainer self time."""
    spans = recorder.summary()
    steps = spans.get("train.run", {}).get("count", 0) * TRAIN_CHUNK

    def per_step(name, key="seconds"):
        return _per(spans.get(name, {}).get(key, 0.0), steps) * 1e3

    return {
        "train.forward_ms_per_step": per_step("train.forward"),
        "train.backward_ms_per_step": per_step("train.backward"),
        "train.optimizer_ms_per_step": per_step("train.optimizer"),
        "train.other_ms_per_step": per_step("train.run", "self_seconds"),
    }
