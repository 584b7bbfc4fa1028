"""Golden trajectories: the engine decodes what the recorded engine did.

``tests/engine_golden.py`` defines 16 cases (dtype x attention window x
pool size x speculation depth) and ``tests/data/engine_golden.json``
records tokens, finish reasons, ``total_steps`` and ``preemptions`` for
each.  Plain decoding (k=0) and speculation without page pressure must
reproduce every field bit for bit, unseeded shared-RNG requests
included — no other oracle pins those, since their draws interleave
across the batch.

Speculation under page pressure is the one place the record is not the
oracle for everything.  The page-need rule decides *when* to preempt, so
``total_steps``, ``preemptions`` and unseeded tokens there legitimately
follow the scheduling.  Greedy tokens must still match the record, and
seeded tokens must match the same batch decoded in the default pool:
a per-request seed makes a trajectory independent of preemption.

The record itself is checked against an oracle that is not the engine:
greedy tokens in every case, and seeded tokens under plain decoding,
equal per-prompt :meth:`~repro.core.TransformerLM.generate`, which
re-runs the full ``forward()`` per token and never touches a KV cache.
(``generate_fast`` is a batch-1 engine, so it would not be independent;
the test keeps its name so its id stays stable.)
"""

import numpy as np
import pytest

from tests.engine_golden import CASES, _model, _requests, load_golden, run_case

GOLDEN = load_golden()


def _tokens(record, kinds):
    return [(r["tokens"], r["finish_reason"]) for r in record["requests"]
            if r["kind"] in kinds]


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_matches_golden(name):
    case = CASES[name]
    got = run_case(**case)
    want = GOLDEN[name]
    if case["k"] == 0 or case["pool"] == "default":
        assert got == want
        return
    assert _tokens(got, {"greedy", "greedy_stop"}) == \
        _tokens(want, {"greedy", "greedy_stop"})
    unpressured = GOLDEN[name.replace("-tiny-", "-default-")]
    assert _tokens(got, {"seeded"}) == _tokens(unpressured, {"seeded"})
    # The tiny pool must still preempt, and never more often than the
    # record.
    assert 0 < got["preemptions"] <= want["preemptions"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_tokens_match_generate_fast(name):
    case = CASES[name]
    model = _model(case["dtype"], case["window"])
    checked = 0
    for (kind, params, prompt, max_new), record in zip(
            _requests(), GOLDEN[name]["requests"]):
        if not (params.greedy or (params.seed is not None and case["k"] == 0)):
            continue
        rng = None if params.seed is None else \
            np.random.default_rng(params.seed)
        assert record["tokens"] == model.generate(
            prompt, max_new, rng=rng, temperature=params.temperature,
            top_k=params.top_k, top_p=params.top_p, greedy=params.greedy,
            stop_token=params.stop_token), (kind, prompt)
        checked += 1
    assert checked == (5 if case["k"] == 0 else 3)
