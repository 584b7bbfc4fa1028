"""Golden engine trajectories: the cases, the runner, and the recorder.

Each case runs one :class:`~repro.infer.GenerationEngine` over a fixed
ragged batch of requests mixing greedy, unseeded-stochastic (engine RNG)
and per-request-seeded params, with a stop token, shared prompt
prefixes, and more requests than slots.  The axes are compute dtype,
attention window, pool size (the default pool vs. a tiny one that forces
preemption) and speculation depth ``k`` (0 = plain decoding).

``tests/data/engine_golden.json`` holds what the engine produced for
every case — tokens, finish reasons, ``total_steps`` and
``preemptions`` — and ``tests/test_engine_golden.py`` checks that the
current engine still produces it bit for bit.  Regenerate the file
(only for a deliberate trajectory change) with::

    PYTHONPATH=src python tests/engine_golden.py
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from repro.core import TransformerConfig, TransformerLM
from repro.infer import GenerationEngine, SamplingParams, SpeculativeConfig
from repro.lm import LanguageModelDraft, NGramLM

GOLDEN_PATH = Path(__file__).parent / "data" / "engine_golden.json"

BATCH = 4
PAGE_SIZE = 4
TINY_POOL = 14          # pages of PAGE_SIZE: preempts under this batch

KINDS = {
    "greedy": SamplingParams(greedy=True),
    "greedy_stop": SamplingParams(greedy=True, stop_token=0),
    "unseeded": SamplingParams(temperature=1.1, top_k=6),
    "unseeded_topp": SamplingParams(temperature=0.9, top_p=0.9,
                                    stop_token=0),
}


def _requests():
    """``(kind, params, prompt, max_new_tokens)`` for every request."""
    rng = np.random.default_rng(2024)
    system = [int(t) for t in rng.integers(1, 13, size=8)]
    kinds = ["greedy", "unseeded", "seeded", "greedy_stop",
             "unseeded_topp", "seeded", "greedy", "unseeded"]
    out = []
    for i, kind in enumerate(kinds):
        suffix = [int(t) for t in rng.integers(1, 13, size=1 + i % 4)]
        # Every other request shares the two-page system prefix.
        prompt = system + suffix if i % 2 == 0 else suffix + system[:i]
        params = (SamplingParams(temperature=1.2, top_k=8, seed=100 + i)
                  if kind == "seeded" else KINDS[kind])
        out.append((kind, params, prompt, 12 + 2 * (i % 4)))
    return out


def _cases():
    axes = itertools.product(("float64", "float32"), (None, 5),
                             ("default", "tiny"), (0, 4))
    for dtype, window, pool, k in axes:
        name = f"{dtype}-w{window or 0}-{pool}-k{k}"
        yield name, dict(dtype=dtype, window=window, pool=pool, k=k)


CASES = dict(_cases())


def _model(dtype: str, window: int | None) -> TransformerLM:
    cfg = TransformerConfig(vocab_size=13, max_seq_len=48, d_model=16,
                            num_heads=2, num_layers=2, dtype=dtype,
                            attention_window=window)
    return TransformerLM(cfg, rng=0)


def _draft(model: TransformerLM, requests) -> LanguageModelDraft:
    """An n-gram draft distilled from the model's own greedy outputs."""
    ngram = NGramLM(vocab_size=model.config.vocab_size, order=3, add_k=0.05)
    for _, _, prompt, max_new in requests:
        ngram.fit(np.asarray(model.generate_fast(prompt, max_new,
                                                 greedy=True)))
    return LanguageModelDraft(ngram)


def run_case(dtype: str, window: int | None, pool: str, k: int) -> dict:
    """Run one case and return its JSON-ready record."""
    model = _model(dtype, window)
    requests = _requests()
    kwargs = dict(kv_page_size=PAGE_SIZE)
    if pool == "tiny":
        kwargs["kv_num_pages"] = TINY_POOL
    if k:
        kwargs["speculative"] = SpeculativeConfig(
            draft=_draft(model, requests), k=k)
    engine = GenerationEngine(model, batch_size=BATCH,
                              rng=np.random.default_rng(7), **kwargs)
    ids = [engine.submit(prompt, max_new, params=params)
           for _, params, prompt, max_new in requests]
    results = {r.request_id: r for r in engine.run()}
    return {
        "total_steps": engine.total_steps,
        "preemptions": engine.preemptions,
        "requests": [
            {"kind": kind, "tokens": results[rid].tokens,
             "finish_reason": results[rid].finish_reason}
            for rid, (kind, *_rest) in zip(ids, requests)],
    }


def load_golden() -> dict:
    """The recorded case records, keyed by case name."""
    return json.loads(GOLDEN_PATH.read_text())


def main() -> None:
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    golden = {name: run_case(**case) for name, case in CASES.items()}
    # One case per line: small, and diffs name the case that moved.
    lines = [f"{json.dumps(name)}: {json.dumps(record)}"
             for name, record in golden.items()]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    for name, record in golden.items():
        print(f"{name:28s} steps={record['total_steps']:4d} "
              f"preemptions={record['preemptions']}")


if __name__ == "__main__":
    main()
