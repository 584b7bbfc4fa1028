"""The four workloads: inputs made from a seed, and the loops that time them.

Every input is generated before the clock starts.  One thread drives
the program through public calls only: ``GenerationEngine.submit`` /
``step`` / ``stats`` with its ``on_token`` hook for the three inference
workloads, ``Trainer.run`` for training.  Request times are stamped
from outside the engine, from each request's *due* time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro import TransformerConfig, TransformerLM, WordTokenizer
from repro.data.corpus import sample_batch
from repro.grammar import english_toy_pcfg, sample_treebank, treebank_text
from repro.infer import GenerationEngine, SamplingParams
from repro.nn.optim import AdamW
from repro.train import Trainer

MODEL = dict(vocab_size=64, max_seq_len=160, d_model=64, num_heads=4,
             num_layers=4)
BATCH = 8

# Open-loop arrival rates (req/s): chat at about 60% of the engine's
# closed-loop capacity on a 2-core box, shared_prefix where its long
# prefills keep the batch busy without a growing backlog.
CHAT_RATE = 24.0
SHARED_PREFIX_RATE = 12.0
# SLO limits (TTFT ms, TPOT ms), set so today's code meets both for
# about 90-95% of requests on each open-loop workload.
SLO_LIMITS = {"chat": (35.0, 3.0), "shared_prefix": (90.0, 3.0)}

OFFLINE_JOB = 16          # requests queued at t=0 per batch job
OFFLINE_PROMPT = 16
OFFLINE_NEW = 128

TRAIN_BATCH = 8
TRAIN_SEQ = 128
TRAIN_CHUNK = 1           # steps per timed Trainer.run call: step latency
                          # percentiles then have a sample per step
TRAIN_SENTENCES = 1000
TRAIN_BATCHES = 256       # pre-drawn batches, cycled


@dataclass
class Request:
    """One generation request and the time it is due, in seconds from
    the start of the run."""

    due: float
    prompt: list[int]
    max_new_tokens: int
    params: SamplingParams


def _stochastic(rng: np.random.Generator) -> SamplingParams:
    """Seeded sampling with temperature, top-k and top-p varied."""
    return SamplingParams(
        temperature=float(rng.choice([0.7, 0.9, 1.0, 1.3])),
        top_k=[None, 8, 20, 40][int(rng.integers(4))],
        top_p=[None, 0.8, 0.9, 0.95][int(rng.integers(4))],
        seed=int(rng.integers(2**31)))


def _arrivals(rng: np.random.Generator, rate: float, seconds: float):
    """Poisson arrival times in ``[0, seconds)``."""
    times, t = [], float(rng.exponential(1.0 / rate))
    while t < seconds:
        times.append(t)
        t += float(rng.exponential(1.0 / rate))
    return times


def _stratified(rng: np.random.Generator, values):
    """Endless draws of ``values``, one shuffled round after another.

    Every round holds each value once, so the mix of lengths (and of
    greedy and sampled requests) is the same for every seed up to one
    round; only the order varies.  Percentiles of a run then move with
    the program, not with how the seed happened to draw the mix."""
    values = list(values)
    while True:
        yield from (values[i] for i in rng.permutation(len(values)))


def chat_requests(seed: int, seconds: float) -> list[Request]:
    """Short unshared prompts, 16-64 new tokens, half greedy."""
    rng = np.random.default_rng([seed, 1])
    vocab = MODEL["vocab_size"]
    prompt_lens = _stratified(rng, range(4, 17))
    new_tokens = _stratified(rng, range(16, 65))
    greedy = _stratified(rng, (True, False))
    out = []
    for due in _arrivals(rng, CHAT_RATE, seconds):
        prompt = rng.integers(0, vocab, next(prompt_lens)).tolist()
        params = (SamplingParams(greedy=True) if next(greedy)
                  else _stochastic(rng))
        out.append(Request(due, prompt, next(new_tokens), params))
    return out


def shared_prefix_requests(seed: int, seconds: float) -> list[Request]:
    """One of 8 64-token system prompts (Zipf(1) popularity) plus a
    unique 16-48-token suffix; 8-24 greedy new tokens."""
    rng = np.random.default_rng([seed, 2])
    vocab = MODEL["vocab_size"]
    systems = [rng.integers(0, vocab, 64).tolist() for _ in range(8)]
    weights = 1.0 / np.arange(1, 9)
    weights /= weights.sum()
    suffix_lens = _stratified(rng, range(16, 49))
    new_tokens = _stratified(rng, range(8, 25))
    out = []
    for due in _arrivals(rng, SHARED_PREFIX_RATE, seconds):
        system = systems[int(rng.choice(8, p=weights))]
        suffix = rng.integers(0, vocab, next(suffix_lens)).tolist()
        out.append(Request(due, system + suffix, next(new_tokens),
                           SamplingParams(greedy=True)))
    return out


def offline_jobs(seed: int, seconds: float) -> list[list[Request]]:
    """Batch jobs of 16 requests all due at t=0: 16-token prompts,
    128 greedy new tokens.  Eight jobs per second of run, about five
    times as many as today's code finishes."""
    rng = np.random.default_rng([seed, 3])
    vocab = MODEL["vocab_size"]
    greedy = SamplingParams(greedy=True)
    return [[Request(0.0, rng.integers(0, vocab, OFFLINE_PROMPT).tolist(),
                     OFFLINE_NEW, greedy) for _ in range(OFFLINE_JOB)]
            for _ in range(math.ceil(seconds * 8) + 1)]


def time_slices(requests: list[Request], width: float) -> list[list[Request]]:
    """Cut an open-loop request list into consecutive ``width``-second
    slices, each re-timed from its own start."""
    slices: dict[int, list[Request]] = {}
    for request in requests:
        k = int(request.due // width)
        slices.setdefault(k, []).append(
            replace(request, due=request.due - k * width))
    return [slices.get(k, []) for k in range(max(slices, default=-1) + 1)]


def train_batches(seed: int):
    """Word-tokenized treebank text and pre-drawn (x, y) batches."""
    rng = np.random.default_rng([seed, 4])
    text = treebank_text(sample_treebank(english_toy_pcfg(),
                                         TRAIN_SENTENCES, rng))
    tokenizer = WordTokenizer(text)
    ids = np.asarray(tokenizer.encode(text), dtype=np.int64)
    batches = [sample_batch(ids, TRAIN_BATCH, TRAIN_SEQ, rng)
               for _ in range(TRAIN_BATCHES)]
    return tokenizer.vocab_size, batches


def alternate(runners, units, seconds: float):
    """Hand ``units`` of work to ``runners`` in turn until ``seconds``
    have passed; every runner gets at least one unit and no unit is cut.

    Returns, per runner, the list of what it returned.  Alternating
    spreads slow and fast phases of a shared machine evenly over the
    runners that are compared.
    """
    out = [[] for _ in runners]
    start = time.perf_counter()
    for k, unit in enumerate(units):
        if k >= len(runners) and time.perf_counter() - start >= seconds:
            break
        out[k % len(runners)].append(runners[k % len(runners)](unit))
    return out


# ----------------------------------------------------------------------
# Inference: engine setup and the single-threaded driving loop
# ----------------------------------------------------------------------
@dataclass
class Trial:
    """What passes over request lists produced.  Times are
    ``time.perf_counter`` seconds, keyed by engine request id; walls and
    generated tokens are kept per pass."""

    requests: dict[int, Request] = field(default_factory=dict)
    due: dict[int, float] = field(default_factory=dict)
    submitted: dict[int, float] = field(default_factory=dict)
    first: dict[int, float] = field(default_factory=dict)
    last: dict[int, float] = field(default_factory=dict)
    results: list = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    tokens: list[int] = field(default_factory=list)
    idle: float = 0.0           # seconds slept waiting for arrivals

    @classmethod
    def merge(cls, trials) -> "Trial":
        """One trial holding every pass of ``trials``."""
        out = cls()
        for trial in trials:
            for name in ("requests", "due", "submitted", "first", "last"):
                getattr(out, name).update(getattr(trial, name))
            out.results.extend(trial.results)
            out.walls.extend(trial.walls)
            out.tokens.extend(trial.tokens)
            out.idle += trial.idle
        return out

    @property
    def busy(self) -> float:
        """Seconds the driving loop was not sleeping."""
        return sum(self.walls) - self.idle


class EngineBench:
    """A warmed-up engine plus the loop that drives it from one thread.

    Constructing one is the workload's set-up: model and engine build
    plus a warm-up of greedy and seeded requests.  Warm-up prompts are
    shorter than one KV page, so they leave nothing in the prefix cache.
    """

    def __init__(self):
        self.model = TransformerLM(TransformerConfig(**MODEL), rng=0)
        self.streams: dict[int, list[int]] = {}
        self._new_first: list[int] = []
        self.engine = GenerationEngine(self.model, batch_size=BATCH,
                                       rng=np.random.default_rng(0),
                                       on_token=self._on_token)
        warm = np.random.default_rng(0)
        for i in range(BATCH):
            params = (SamplingParams(greedy=True) if i % 2 else
                      SamplingParams(temperature=0.9, top_k=20, top_p=0.9,
                                     seed=i))
            self.engine.submit(warm.integers(0, MODEL["vocab_size"], 8),
                               8, params=params)
        while self.engine.has_work:
            self.engine.step()
        self.engine.drain()
        self.streams.clear()
        self._new_first.clear()

    def _on_token(self, request_id: int, token: int) -> None:
        stream = self.streams.get(request_id)
        if stream is None:
            self.streams[request_id] = [token]
            self._new_first.append(request_id)
        else:
            stream.append(token)

    def drive(self, requests: list[Request]) -> Trial:
        """Submit each request when due and step while there is work.

        A request's first and last token are stamped when the ``step()``
        that produced them returns.
        """
        engine, clock, sleep = self.engine, time.perf_counter, time.sleep
        trial = Trial()
        pending = sorted(requests, key=lambda r: r.due)
        i, n = 0, len(pending)
        start = clock()
        while True:
            now = clock()
            while i < n and start + pending[i].due <= now:
                request = pending[i]
                rid = engine.submit(request.prompt, request.max_new_tokens,
                                    params=request.params)
                trial.submitted[rid] = clock()
                trial.due[rid] = start + request.due
                trial.requests[rid] = request
                i += 1
            if engine.has_work:
                finished = engine.step()
                now = clock()
                for rid in self._new_first:
                    trial.first[rid] = now
                self._new_first.clear()
                for result in finished:
                    trial.last[result.request_id] = now
                trial.results.extend(finished)
            elif i < n:
                sleep(max(0.0, start + pending[i].due - now))
                trial.idle += clock() - now
            else:
                break
        trial.walls.append(clock() - start)
        trial.tokens.append(sum(len(r.tokens) - r.prompt_len
                                for r in trial.results))
        engine.drain()
        return trial


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
class TrainBench:
    """A warmed-up trainer: model, AdamW and one training step."""

    def __init__(self, vocab_size: int, batches):
        self.batches = batches
        self._next = 0
        self.model = TransformerLM(TransformerConfig(
            **{**MODEL, "vocab_size": vocab_size}), rng=0)
        self.optimizer = AdamW(self.model.parameters(), lr=3e-3,
                               weight_decay=0.01)
        self.trainer = self.make_trainer(self.model, self.optimizer)
        self.trainer.run(1)

    def _batch(self, step, rng):
        batch = self.batches[self._next % len(self.batches)]
        self._next += 1
        return batch

    def make_trainer(self, model, optimizer) -> Trainer:
        """A :class:`Trainer` over this bench's pre-drawn batches."""
        return Trainer(model, optimizer, batch_fn=self._batch, clip_norm=1.0,
                       rng=np.random.default_rng(0))


def timed_chunk(run):
    """Wrap a ``Trainer.run``-like callable: one call trains
    ``TRAIN_CHUNK`` steps and returns (losses, tokens, wall seconds)."""

    def chunk(_):
        start = time.perf_counter()
        history = run(TRAIN_CHUNK)
        return history.losses, history.total_tokens, \
            time.perf_counter() - start

    return chunk
