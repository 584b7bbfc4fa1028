"""Correctness oracle, run untimed after each measured run.

Decoding is checked against a differential reference: one full
``TransformerLM.forward()`` over each finished sequence yields the
logits every generated token was drawn from.

- A greedy token must be the argmax of those logits.  Incremental decode
  and the full forward sum in different orders, so a token within
  ``GREEDY_TOL`` (in logit units) of the maximum also passes.
- A sampled token must lie in the top-k / top-p support of those logits
  at the request's temperature, computed here independently of
  :mod:`repro.core.sampling`.  Ties at the top-k boundary and
  nucleus-mass round-off get ``SUPPORT_TOL`` of slack.
- Every submitted request finishes exactly once, with ``length`` or
  ``stop_token``, keeps its prompt, and streams through ``on_token``
  exactly the tokens its result holds.

Training is checked on its loss trajectory: every loss is finite, and the
mean of the last window falls below the mean of the first window by at
least ``LOSS_MARGIN`` nats.

Each check returns its failures; the caller counts them.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import no_grad

GREEDY_TOL = 1e-6        # logits; float64 reorderings stay near 1e-12
SUPPORT_TOL = 1e-9       # probability mass and logit ties
LOSS_WINDOW = 10         # steps per window, or a quarter of a short run
LOSS_MARGIN = 0.05       # nats the last window must beat the first by
_FORWARD_ROWS = 16       # sequences per batched reference forward


def _in_support(logits: np.ndarray, token: int, params) -> bool:
    """Whether ``token`` can be drawn from ``logits`` under ``params``."""
    logits = np.asarray(logits, dtype=np.float64)
    alive = np.ones(logits.shape, dtype=bool)
    if params.top_k is not None and params.top_k < logits.size:
        kth = np.sort(logits)[-params.top_k]
        alive &= logits >= kth - SUPPORT_TOL
    if not alive[token]:
        return False
    if params.top_p is not None:
        scaled = np.where(alive, logits / params.temperature, -np.inf)
        probs = np.exp(scaled - scaled.max())
        probs /= probs.sum()
        ahead = probs[probs > probs[token] + SUPPORT_TOL].sum()
        return bool(ahead < params.top_p + SUPPORT_TOL)
    return True


def reference_logits(model, sequences) -> list[np.ndarray]:
    """Full-forward logits ``(len(seq) - 1, V)`` for each token list.

    Sequences are right-padded into batches; causal attention keeps the
    padding out of every real position.
    """
    out: list[np.ndarray | None] = [None] * len(sequences)
    order = sorted(range(len(sequences)), key=lambda i: len(sequences[i]))
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            for lo in range(0, len(order), _FORWARD_ROWS):
                group = order[lo:lo + _FORWARD_ROWS]
                width = max(len(sequences[i]) for i in group) - 1
                ids = np.zeros((len(group), width), dtype=np.int64)
                for row, i in enumerate(group):
                    seq = sequences[i][:-1]
                    ids[row, :len(seq)] = seq
                logits = model.forward(ids).data
                for row, i in enumerate(group):
                    out[i] = logits[row, :len(sequences[i]) - 1]
    finally:
        if was_training:
            model.train()
    return out


def check_generation(model, requests, results, streams) -> dict[int, str]:
    """Check every finished request against its submission.

    ``requests`` maps engine request id to the submitted
    :class:`~workloads.Request`; ``results`` are the
    :class:`~repro.infer.engine.GenerationResult` objects ``step()``
    returned; ``streams`` maps request id to the tokens ``on_token``
    delivered.  Returns the first problem found for each failed
    request id.
    """
    failures: dict[int, str] = {}
    seen: dict[int, object] = {}
    for result in results:
        rid = result.request_id
        if rid in seen:
            failures[rid] = "finished twice"
        elif rid not in requests:
            failures[rid] = "unknown request id"
        else:
            seen[rid] = result
    for rid in requests:
        if rid not in seen:
            failures[rid] = "never finished"
    checked = []
    for rid, result in seen.items():
        request = requests[rid]
        completion = result.tokens[result.prompt_len:]
        problem = None
        if result.finish_reason not in ("length", "stop_token"):
            problem = f"finish_reason {result.finish_reason!r}"
        elif list(result.tokens[:result.prompt_len]) != list(request.prompt):
            problem = "prompt changed"
        elif not completion:
            problem = "no tokens generated"
        elif result.finish_reason == "length" \
                and len(completion) != request.max_new_tokens:
            problem = (f"length finish after {len(completion)} of "
                       f"{request.max_new_tokens} tokens")
        elif result.finish_reason == "stop_token" \
                and completion[-1] != request.params.stop_token:
            problem = "stop_token finish without the stop token"
        elif list(streams.get(rid, ())) != list(completion):
            problem = "on_token stream differs from the result"
        if problem is not None:
            failures.setdefault(rid, problem)
        else:
            checked.append(result)
    logits = reference_logits(model, [r.tokens for r in checked])
    for result, rows in zip(checked, logits):
        params = requests[result.request_id].params
        for j, token in enumerate(result.tokens[result.prompt_len:]):
            row = rows[result.prompt_len - 1 + j]
            if params.greedy:
                ok = row[token] >= row.max() - GREEDY_TOL
            else:
                ok = _in_support(row, token, params)
            if not ok:
                kind = "greedy" if params.greedy else "sampled"
                failures.setdefault(
                    result.request_id, f"{kind} token {j} = {token} "
                    "disagrees with the full forward")
                break
    return failures


def check_losses(losses) -> list[str]:
    """Check a training loss trajectory; one message per failed step or
    one for a loss that did not fall."""
    losses = np.asarray(losses, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(losses))
    failures = [f"step {int(i)}: loss {losses[i]}" for i in bad]
    if failures:
        return failures
    window = max(1, min(LOSS_WINDOW, losses.size // 4))
    if losses.size < 2 * window:
        return [f"only {losses.size} training steps recorded"]
    first = losses[:window].mean()
    last = losses[-window:].mean()
    if not last < first - LOSS_MARGIN:
        failures.append(f"loss did not fall: first-window mean {first:.4f}, "
                        f"last-window mean {last:.4f}")
    return failures
