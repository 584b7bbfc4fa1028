"""E20 — decode-path throughput: batched engine vs sequential generate_fast.

The serving claim behind ``repro.infer``: one preallocated-KV
:class:`GenerationEngine` step advances B sequences for roughly the cost
of one, so tokens/sec should scale with batch size while N sequential
``generate_fast`` calls scale with user count.  Measured here as
end-to-end generated-tokens-per-second on the same prompt set, single
stream vs engine at several batch sizes, and emitted as a
``BENCH_inference.json`` record for regression tracking.

The engines run with full :mod:`repro.obs` instrumentation on —
per-step spans, engine metrics, request lifecycle events — both to
report serving latency (time-to-first-token, queue wait, occupancy) per
batch size and to demonstrate the PR 2 acceptance bar: instrumented
decoding is bit-identical to ``generate_fast`` and within a few percent
of its uninstrumented throughput.  ``--trace`` dumps the Chrome trace.

Two KV phases ride along in the same record: ``memory`` runs the
workload on the paged engine, asserts outputs bit-identical to
per-prompt ``generate_fast`` on the dense cache, and reports held KV
bytes per concurrent request against a dense ``batch x max_seq_len``
buffer (the paged pool only pays for pages actually written); ``prefix`` decodes requests
sharing a 48-token system prompt and reports cold-vs-warm TTFT and
prefill steps — warm requests reuse the cached prompt pages and skip
the covered positions.

A PR 9 ``speculative`` phase decodes a highly-predictable greedy copy
workload twice — plain engine vs the same engine with an order-4
n-gram draft (:class:`~repro.lm.LanguageModelDraft`) at k=4 — asserts
the outputs are bit-identical (the speculative acceptance bar), and
reports accepted-tokens-per-step plus the wall-clock and model-step
speedups.  The draft is fit on the baseline's own greedy outputs
(self-distillation): the randomly-initialised target is not predictable
from any external corpus, so this mirrors the deployed setup where the
draft approximates the target, not the data.

A ``dtype`` phase compares the same greedy decode workload on a float32
model (``TransformerConfig(dtype="float32")``) against the float64
default: the KV pool follows the model's parameter dtype, so the phase
reports both the decode tokens/sec ratio (``dtype_speedup_f32``) and the
KV-bytes ratio (``kv_bytes_saving_ratio`` ~= 2.0) — both regression-
gated, so the float32 path cannot silently lose its wins.

``--smoke`` runs a seconds-scale configuration and asserts the batched
engine at full batch is at least as fast as the single stream, the
paged backend saves >=2x KV memory per request, float32 halves KV
bytes, warm requests hit the prefix cache, and speculative decoding
cuts model steps while staying bit-identical; the tier-1 test suite
invokes it so decode-path perf and KV-memory regressions fail loudly.
"""

import argparse
import sys
import time

import numpy as np

from _util import BenchRun, banner, fmt_table, scale

from repro.core import TransformerConfig, TransformerLM
from repro.infer import GenerationEngine, SamplingParams, SpeculativeConfig
from repro.lm import LanguageModelDraft, NGramLM
from repro.obs import Observability

_GREEDY = SamplingParams(greedy=True)

_BATCH_SIZES = [1, 2, 4, 8]
_NUM_PROMPTS = 8
_PROMPT_LEN = 8


def _build(smoke: bool,
           dtype: str | None = None) -> tuple[TransformerLM, list[list[int]], int]:
    cfg = TransformerConfig(
        vocab_size=64,
        max_seq_len=96 if smoke else 160,
        d_model=32 if smoke else 64,
        num_heads=4,
        num_layers=2 if smoke else 4,
        dtype=dtype,
    )
    model = TransformerLM(cfg, rng=0)
    rng = np.random.default_rng(1)
    prompts = [list(rng.integers(0, cfg.vocab_size, size=_PROMPT_LEN))
               for _ in range(_NUM_PROMPTS)]
    max_new = (16 if smoke else 64) * scale()
    max_new = min(max_new, cfg.max_seq_len - _PROMPT_LEN)
    return model, prompts, max_new


def _memory_phase(model, prompts, max_new) -> dict:
    """KV memory per concurrent request: dense buffer vs paged pool.

    Runs the workload on the paged engine, asserts the outputs are
    bit-identical to per-prompt ``generate_fast`` on the dense cache,
    and reports held KV bytes per concurrent request — a dense buffer
    pays ``max_seq_len`` positions per slot up front (batch x
    ``max_seq_len`` x per-token K+V bytes), the paged pool only what
    the sequences actually used at peak.
    """
    batch = len(prompts)
    paged = GenerationEngine(model, batch_size=batch, params=_GREEDY)
    paged_out = paged.generate(prompts, max_new)
    assert paged_out == [model.generate_fast(p, max_new, greedy=True)
                         for p in prompts], "paged engine diverged from dense"
    cache = paged.cache
    token_bytes = cache.page_bytes // cache.page_size   # K+V, every layer
    dense_bytes = batch * cache.max_seq_len * token_bytes
    paged_bytes = cache.peak_pages_used * cache.page_bytes
    return {
        "batch_size": batch,
        "dense_kv_bytes": dense_bytes,
        "paged_kv_peak_bytes": paged_bytes,
        "dense_kv_bytes_per_request": dense_bytes / batch,
        "paged_kv_bytes_per_request": paged_bytes / batch,
        "memory_saving_ratio": dense_bytes / paged_bytes,
        "page_size": cache.page_size,
        "peak_pages_used": cache.peak_pages_used,
        "pool_pages": cache.num_pages,
        "bit_identical_to_dense": True,   # the assert above just proved it
    }


def _prefix_phase(model) -> dict:
    """Cache-hit TTFT: requests sharing a system prompt skip its prefill.

    One cold request pays the full prompt; each warm request reuses the
    cached system-prompt pages and prefills only its unique suffix.
    Decode *steps* per request are reported alongside wall-clock TTFT —
    steps are deterministic, so the speedup gate cannot flake on a busy
    machine.
    """
    rng = np.random.default_rng(2)
    system = list(rng.integers(0, model.config.vocab_size, size=48))
    suffixes = [list(rng.integers(0, model.config.vocab_size, size=4))
                for _ in range(6)]
    max_new = 8
    engine = GenerationEngine(model, batch_size=1, params=_GREEDY)
    ttfts, steps = [], []
    for suffix in suffixes:
        before = engine.total_steps
        engine.submit(system + suffix, max_new)
        result = engine.run()[0]
        steps.append(engine.total_steps - before)
        ttfts.append(result.timing.ttft_s)
        assert result.tokens == model.generate_fast(
            system + suffix, max_new, greedy=True), \
            "prefix-cache hit changed the sampled tokens"
    stats = engine.stats()["kv"]["prefix_cache"]
    warm_ttft = float(np.mean(ttfts[1:]))
    warm_steps = float(np.mean(steps[1:]))
    return {
        "system_prompt_len": len(system),
        "num_requests": len(suffixes),
        "cold_ttft_s": ttfts[0],
        "warm_ttft_mean_s": warm_ttft,
        "ttft_speedup": ttfts[0] / warm_ttft if warm_ttft > 0 else 0.0,
        "cold_prefill_steps": steps[0],
        "warm_prefill_steps_mean": warm_steps,
        "step_speedup": steps[0] / warm_steps if warm_steps else 0.0,
        "prefix_hits": stats["hits"],
        "prefix_hit_rate": stats["hits"] / len(suffixes),
        "hit_tokens": stats["hit_tokens"],
        "warm_matches_reference": True,   # asserted per request above
    }


def _speculative_phase(model, smoke: bool) -> dict:
    """Speculative decoding speedup on a predictable greedy workload.

    The baseline engine decodes a copy-style prompt set (tiled short
    motifs — the kind of low-entropy continuation speculative decoding
    is built for); an order-4 n-gram draft is then fit on the baseline's
    *own* outputs and the same engine re-runs with
    ``SpeculativeConfig(k=4)``.  Outputs must be bit-identical — the
    draft only moves *when* tokens are emitted, never *which*.  Both
    wall-clock tokens/sec and deterministic model-step counts are
    reported; smoke gating uses the step ratio so a busy machine cannot
    flake the tier-1 suite.
    """
    vocab = model.config.vocab_size
    rng = np.random.default_rng(3)
    prompts = []
    for _ in range(4):
        motif = list(rng.integers(0, vocab, size=4))
        prompts.append((motif * 4)[:16])
    max_new = 24 if smoke else 64
    max_new = min(max_new, model.config.max_seq_len - 16 - 1)

    base = GenerationEngine(model, batch_size=1, params=_GREEDY)
    start = time.perf_counter()
    base_out = base.generate(prompts, max_new)
    base_s = time.perf_counter() - start
    base_steps = base.total_steps

    # Self-distilled draft: the n-gram learns the target's own greedy
    # continuations, so its proposals track what the verifier will emit.
    ngram = NGramLM(vocab_size=vocab, order=4, add_k=0.01)
    for seq in base_out:
        ngram.fit(np.asarray(seq, dtype=np.int64))

    spec = GenerationEngine(
        model, batch_size=1, params=_GREEDY,
        speculative=SpeculativeConfig(draft=LanguageModelDraft(ngram), k=4))
    start = time.perf_counter()
    spec_out = spec.generate(prompts, max_new)
    spec_s = time.perf_counter() - start
    assert spec_out == base_out, "speculative decoding changed greedy output"

    stats = spec.stats()["spec"]
    generated = sum(len(seq) - 16 for seq in base_out)
    return {
        "k": stats["k"],
        "draft": stats["draft"],
        "num_prompts": len(prompts),
        "max_new_tokens": max_new,
        "generated_tokens": generated,
        "baseline_seconds": base_s,
        "baseline_tokens_per_sec": generated / base_s,
        "baseline_model_steps": base_steps,
        "spec_seconds": spec_s,
        "spec_tokens_per_sec": generated / spec_s,
        "spec_model_steps": spec.total_steps,
        "spec_speedup": base_s / spec_s,
        "step_speedup": base_steps / spec.total_steps,
        "acceptance_rate": stats["acceptance_rate"],
        "accepted_tokens_per_step": stats["accepted_tokens_per_step"],
        "bit_identical_to_baseline": True,   # the assert above just proved it
    }


def _dtype_phase(model_f64, prompts, max_new, smoke: bool) -> dict:
    """Float32 vs float64 decode: tokens/sec and KV pool bytes.

    Builds a float32 twin of the bench model from the same config and
    seed (initializers draw in float64 and cast, so the parameters are
    the same numbers rounded) and decodes the same prompt set greedily
    on both.  The KV pool follows the model's parameter dtype via
    :func:`repro.infer.kv_value_dtype`, so the bytes ratio is exactly
    the itemsize ratio — 2.0 — while the pool geometry (pages, slots)
    is unchanged.  Greedy outputs are *recorded* as matching or not but
    deliberately not asserted: argmax ties may legitimately break
    differently at single precision.
    """
    model_f32, _, _ = _build(smoke, dtype="float32")
    batch = len(prompts)

    def _decode(model):
        engine = GenerationEngine(model, batch_size=batch, params=_GREEDY)
        start = time.perf_counter()
        out = engine.generate(prompts, max_new)
        seconds = time.perf_counter() - start
        cache = engine.cache
        return out, seconds, cache.peak_pages_used * cache.page_bytes, cache

    out64, s64, bytes64, cache64 = _decode(model_f64)
    out32, s32, bytes32, cache32 = _decode(model_f32)
    generated = sum(len(o) for o in out64) - batch * _PROMPT_LEN
    return {
        "batch_size": batch,
        "generated_tokens": generated,
        "float64": {"seconds": s64, "tokens_per_sec": generated / s64,
                    "kv_peak_bytes": bytes64, "kv_dtype": cache64.dtype.name},
        "float32": {"seconds": s32, "tokens_per_sec": generated / s32,
                    "kv_peak_bytes": bytes32, "kv_dtype": cache32.dtype.name},
        "dtype_speedup_f32": s64 / s32,
        "kv_bytes_saving_ratio": bytes64 / bytes32,
        "greedy_tokens_match": out32 == out64,
    }


def run(smoke: bool = False, obs: Observability | None = None) -> dict:
    model, prompts, max_new = _build(smoke)
    generated = len(prompts) * max_new

    start = time.perf_counter()
    sequential_out = [model.generate_fast(p, max_new, greedy=True) for p in prompts]
    sequential_s = time.perf_counter() - start

    batched = []
    for batch_size in _BATCH_SIZES:
        engine = GenerationEngine(model, batch_size=batch_size, params=_GREEDY,
                                  obs=obs)
        start = time.perf_counter()
        for prompt in prompts:
            engine.submit(prompt, max_new)
        results = engine.run()
        seconds = time.perf_counter() - start
        out = [r.tokens for r in results]
        assert out == sequential_out, "engine diverged from generate_fast"
        timings = [r.timing for r in results]
        batched.append({
            "batch_size": batch_size,
            "seconds": seconds,
            "tokens_per_sec": generated / seconds,
            "model_steps": engine.total_steps,
            "mean_ttft_s": float(np.mean([t.ttft_s for t in timings])),
            "mean_queue_wait_s": float(np.mean([t.queue_wait_s for t in timings])),
            "occupancy": engine.stats()["occupancy"],
        })

    sequential_tps = generated / sequential_s
    full_batch = batched[-1]
    return {
        "bench": "inference_throughput",
        "smoke": smoke,
        "model": model.config.to_dict(),
        "num_prompts": len(prompts),
        "prompt_len": _PROMPT_LEN,
        "max_new_tokens": max_new,
        "generated_tokens": generated,
        "sequential": {"seconds": sequential_s, "tokens_per_sec": sequential_tps},
        "batched": batched,
        "speedup_at_full_batch": full_batch["tokens_per_sec"] / sequential_tps,
        "memory": _memory_phase(model, prompts, max_new),
        "prefix": _prefix_phase(model),
        "speculative": _speculative_phase(model, smoke),
        "dtype": _dtype_phase(model, prompts, max_new, smoke),
    }


def report(result: dict) -> str:
    lines = [banner("Batched inference throughput — engine vs sequential decode")]
    seq = result["sequential"]
    rows = [["sequential x8", 1, seq["seconds"], seq["tokens_per_sec"], 1.0,
             "-", "-"]]
    for entry in result["batched"]:
        rows.append(["engine", entry["batch_size"], entry["seconds"],
                     entry["tokens_per_sec"],
                     entry["tokens_per_sec"] / seq["tokens_per_sec"],
                     entry["mean_ttft_s"] * 1e3, entry["occupancy"]])
    lines.append(fmt_table(
        ["mode", "batch", "seconds", "tokens/sec", "speedup",
         "ttft ms", "occupancy"], rows))
    lines.append(
        f"{result['generated_tokens']} tokens generated per mode "
        f"({result['num_prompts']} prompts x {result['max_new_tokens']} new); "
        f"full-batch speedup {result['speedup_at_full_batch']:.1f}x"
    )
    memory = result["memory"]
    lines.append(banner("Paged KV memory — held bytes per concurrent request"))
    lines.append(fmt_table(
        ["backend", "bytes/request", "total bytes", "pages"],
        [["dense", memory["dense_kv_bytes_per_request"],
          memory["dense_kv_bytes"], "-"],
         ["paged (peak)", memory["paged_kv_bytes_per_request"],
          memory["paged_kv_peak_bytes"],
          f"{memory['peak_pages_used']}/{memory['pool_pages']}"]]))
    lines.append(
        f"paged engine holds {memory['memory_saving_ratio']:.1f}x less KV "
        f"memory at peak, bit-identical outputs")
    prefix = result["prefix"]
    lines.append(banner("Prefix cache — shared system prompt TTFT"))
    lines.append(fmt_table(
        ["request", "prefill steps", "ttft ms"],
        [["cold (1st)", prefix["cold_prefill_steps"],
          prefix["cold_ttft_s"] * 1e3],
         ["warm (mean)", prefix["warm_prefill_steps_mean"],
          prefix["warm_ttft_mean_s"] * 1e3]]))
    lines.append(
        f"{prefix['prefix_hits']}/{prefix['num_requests']} requests hit the "
        f"cache ({prefix['hit_tokens']} tokens reused); "
        f"TTFT speedup {prefix['ttft_speedup']:.1f}x, "
        f"step speedup {prefix['step_speedup']:.1f}x")
    spec = result["speculative"]
    lines.append(banner("Speculative decoding — n-gram draft, k="
                        + str(spec["k"])))
    lines.append(fmt_table(
        ["mode", "seconds", "tokens/sec", "model steps"],
        [["baseline greedy", spec["baseline_seconds"],
          spec["baseline_tokens_per_sec"], spec["baseline_model_steps"]],
         ["speculative", spec["spec_seconds"],
          spec["spec_tokens_per_sec"], spec["spec_model_steps"]]]))
    lines.append(
        f"{spec['accepted_tokens_per_step']:.2f} accepted tokens/step at "
        f"{spec['acceptance_rate']:.0%} acceptance; "
        f"{spec['spec_speedup']:.1f}x tokens/sec, "
        f"{spec['step_speedup']:.1f}x fewer model steps, "
        f"bit-identical outputs")
    dtype = result["dtype"]
    lines.append(banner("Dtype policy — float32 vs float64 decode"))
    lines.append(fmt_table(
        ["dtype", "seconds", "tokens/sec", "peak KV bytes"],
        [["float64", dtype["float64"]["seconds"],
          dtype["float64"]["tokens_per_sec"],
          dtype["float64"]["kv_peak_bytes"]],
         ["float32", dtype["float32"]["seconds"],
          dtype["float32"]["tokens_per_sec"],
          dtype["float32"]["kv_peak_bytes"]]]))
    lines.append(
        f"float32 decodes {dtype['dtype_speedup_f32']:.2f}x faster with "
        f"{dtype['kv_bytes_saving_ratio']:.1f}x lower peak KV bytes; greedy "
        f"tokens {'match' if dtype['greedy_tokens_match'] else 'differ (argmax ties)'}")
    return "\n".join(lines)


def test_inference_throughput(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(report(result))
    # Batched decoding must beat the sequential stream decisively at
    # batch 8 over 8 sequential generate_fast calls.  The ratio's
    # denominator (single-stream tokens/sec) wanders +-20% run to run on
    # a busy core while the engine sits steady in its 4.5-6k tok/s band,
    # so the gate is 3.5x rather than the typical ~4-5x.
    assert result["speedup_at_full_batch"] >= 3.5
    # throughput should grow monotonically-ish with batch size
    tps = [entry["tokens_per_sec"] for entry in result["batched"]]
    assert tps[-1] > tps[0]
    # PR 8 acceptance: >=2x lower KV memory per concurrent short request,
    # and prefix hits must cut prefill steps (deterministic, never flaky)
    assert result["memory"]["memory_saving_ratio"] >= 2.0
    assert result["memory"]["bit_identical_to_dense"]
    prefix = result["prefix"]
    assert prefix["prefix_hits"] == prefix["num_requests"] - 1
    assert prefix["warm_prefill_steps_mean"] < prefix["cold_prefill_steps"] / 3
    # PR 9 acceptance: speculative decoding must stay bit-identical and
    # cut model steps decisively (deterministic, never flaky); wall-clock
    # speedup is recorded and regression-gated, not asserted here.
    spec = result["speculative"]
    assert spec["bit_identical_to_baseline"]
    assert spec["step_speedup"] >= 1.5
    assert spec["accepted_tokens_per_step"] >= 1.0
    # Dtype policy acceptance: the float32 KV pool must hold exactly half
    # the bytes of the float64 pool (deterministic — itemsize ratio).
    assert result["dtype"]["kv_bytes_saving_ratio"] == 2.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fast mode: tiny model, asserts batched >= sequential")
    parser.add_argument("--out", default="BENCH_inference.json",
                        help="path for the JSON record (default: %(default)s)")
    parser.add_argument("--no-record", action="store_true",
                        help="skip writing the JSON record")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="also write a Chrome trace of the engine runs")
    args = parser.parse_args(argv)
    obs = Observability.standard()
    out = None if args.no_record else args.out
    with BenchRun("inference_throughput", out=out, trace_out=args.trace,
                  obs=obs) as br:
        br.record(run(smoke=args.smoke, obs=obs))
    result = br.result
    print(report(result))
    if out is not None:
        print(f"record written to {out}")
    if args.trace is not None:
        print(f"trace written to {args.trace} (open in chrome://tracing)")
    if args.smoke:
        if result["speedup_at_full_batch"] < 1.0:
            print("SMOKE FAIL: batched engine slower than sequential decode",
                  file=sys.stderr)
            return 1
        if result["memory"]["memory_saving_ratio"] < 2.0:
            print("SMOKE FAIL: paged KV saves <2x memory per request",
                  file=sys.stderr)
            return 1
        prefix = result["prefix"]
        if prefix["prefix_hits"] < prefix["num_requests"] - 1:
            print("SMOKE FAIL: warm requests missed the prefix cache",
                  file=sys.stderr)
            return 1
        spec = result["speculative"]
        if spec["step_speedup"] < 1.5:
            print("SMOKE FAIL: speculative decoding saved "
                  f"<1.5x model steps ({spec['step_speedup']:.2f}x)",
                  file=sys.stderr)
            return 1
        if result["dtype"]["kv_bytes_saving_ratio"] != 2.0:
            print("SMOKE FAIL: float32 KV pool is not half the float64 pool",
                  file=sys.stderr)
            return 1
        print("SMOKE OK: batched >= sequential tokens/sec, "
              f"{result['memory']['memory_saving_ratio']:.1f}x KV saving, "
              f"{prefix['step_speedup']:.1f}x prefill-step win on cache hits, "
              f"{spec['step_speedup']:.1f}x speculative step win, "
              f"float32 halves KV bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
