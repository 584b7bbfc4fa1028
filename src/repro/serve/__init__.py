"""Serving layer: HTTP/streaming API + admission control over the engine.

``repro.infer`` gives the repo a continuous-batching
:class:`~repro.infer.GenerationEngine`; this package is what finally
puts it behind traffic — the ROADMAP's "millions of users" story — with
nothing beyond the standard library:

- :mod:`repro.serve.admission` — :class:`AdmissionPolicy` (queue-depth
  cap → HTTP 429 shedding, per-request token budgets, wall-clock
  timeouts) and the :class:`ShedError`/:class:`RejectError` it raises.
- :mod:`repro.serve.worker` — :class:`EngineWorker`, the single decode
  -loop thread that owns the engine, plus the lock-guarded submit path
  that makes concurrent clients safe without perturbing the engine's
  bit-identical RNG stream; per-request :class:`RequestHandle` for
  streaming tokens or blocking on the result.
- :mod:`repro.serve.server` — :class:`InferenceServer`, a threaded
  stdlib HTTP front end: ``POST /v1/submit`` (blocking or chunked
  NDJSON token streaming, with W3C ``traceparent`` propagation into
  per-request queue/prefill/decode spans), ``GET /v1/stats``,
  ``GET /healthz`` (three-state SLO verdict), ``GET /metrics``
  (Prometheus text exposition), and ``GET /v1/trace?id=...`` (one
  request's Chrome-trace slice).
- :mod:`repro.serve.client` — :class:`ServeClient`, the matching
  ``http.client`` consumer used by the load bench and tests.

The observability side — :class:`~repro.obs.SLOMonitor` behind
``/healthz``, the optional :class:`~repro.obs.FlightRecorder` crash
blackbox, trace-context plumbing — is documented in
``docs/ARCHITECTURE.md`` ("The observability plane").

Quick start::

    from repro.infer import GenerationEngine, SamplingParams
    from repro.serve import AdmissionPolicy, InferenceServer, ServeClient

    engine = GenerationEngine(model, batch_size=8,
                              params=SamplingParams(greedy=True))
    policy = AdmissionPolicy(max_queue_depth=32, request_timeout_s=30.0)
    with InferenceServer(engine, policy=policy) as server:
        client = ServeClient(server.host, server.port)
        print(client.submit([1, 2, 3], max_new_tokens=16)["completion"])
"""

from .admission import AdmissionPolicy, RejectError, ServeError, ShedError
from .client import ServeClient, ServeClientError
from .server import InferenceServer, result_to_json
from .worker import EngineWorker, RequestHandle

__all__ = [
    "AdmissionPolicy",
    "ServeError",
    "ShedError",
    "RejectError",
    "EngineWorker",
    "RequestHandle",
    "InferenceServer",
    "result_to_json",
    "ServeClient",
    "ServeClientError",
]
