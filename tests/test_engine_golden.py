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
"""

import pytest

from tests.engine_golden import CASES, load_golden, run_case

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
    # The exact per-span page need never preempts more than the
    # recorded rule, which reserved a copy-on-write page for every slot.
    assert 0 < got["preemptions"] <= want["preemptions"]
