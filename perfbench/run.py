"""The repository benchmark: one command, four workloads, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload shared_prefix --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates the workload between an untraced copy of the
program and one with spans around every public call, and reports the
per-layer metrics, the tracing overhead and the trace coverage.  Either
way the correctness oracle then checks every output, untimed.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is non-zero when any check
failed.  ``--workload all`` runs every workload both ways, one child
process at a time.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import os

# One thread in total: BLAS must not add threads next to the driving loop.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import instrument  # noqa: E402
import oracle  # noqa: E402
import workloads as wl  # noqa: E402
from spans import SpanRecorder  # noqa: E402

WORKLOADS = ("chat", "shared_prefix", "offline_batch", "train")
# The workloads BENCHMARK.json names.  chat stays runnable for its
# per-layer numbers (it is the only one with seeded sampling), but its
# latencies spread across runs by more than any bound allows on the
# reference box (README.md, "Run-to-run spread").
BENCHMARKED = ("shared_prefix", "offline_batch", "train")
OUT_DIR = HERE / "out"
SETUP_REPEATS = 4         # builds before and again after the measurement
TRAIN_SETUP_REPEATS = 2
TRACE_SLICES = 10   # open-loop time slices alternated in a traced run

# End-to-end metrics, reported by every untraced run of every workload.
# Each is measured on the workload's own unit of work (README.md, "End-to-
# end metrics"): a request on the open loops, a batch job on
# offline_batch, a Trainer.run call on train.
END_TO_END = {
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "ms_per_token_p50": "ms",
    "ms_per_token_p90": "ms",
    "tok_per_s": "tok/s",
    "setup_s": "s",
}

# Per-layer metrics, reported by every traced run (0 where a workload
# does not reach the layer).
PER_LAYER = {
    "gen.lag_p99_ms": "ms",
    "trace.overhead_share": "share",
    "trace.coverage": "share",
    "failed_share": "share",
    "slo_attainment": "share",
    "kv_peak_mb": "MB",
    "engine.self_ms_per_step": "ms",
    "engine.prefill_steps_per_req": "count",
    "engine.rows_per_step": "count",
    "engine.queue_wait_p50_ms": "ms",
    "engine.steps": "count",
    "engine.step_ms_p50": "ms",
    "engine.occupancy": "share",
    "engine.preemptions": "count",
    "engine.submit_us_p50": "us",
    "model.decode_ms_per_call": "ms",
    "model.us_per_row": "us",
    "model.attn_ms_per_call": "ms",
    "model.ffn_norm_ms_per_call": "ms",
    "model.embed_head_ms_per_call": "ms",
    "model.rows_forwarded": "count",
    "model.gflop": "GFLOP",
    "sampling.calls_per_step": "count",
    "sampling.ms_per_step": "ms",
    "kv.append_ms_per_step": "ms",
    "kv.gathered_mb_per_step": "MB",
    "kv.prefix_hit_rate": "share",
    "kv.prefix_token_share": "share",
    "kv.evictions_per_req": "count",
    "kv.peak_pages": "count",
    "train.forward_ms_per_step": "ms",
    "train.backward_ms_per_step": "ms",
    "train.optimizer_ms_per_step": "ms",
    "train.other_ms_per_step": "ms",
}


class Outcome:
    """Metrics of one run plus its operation and failure counts."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.recorder: SpanRecorder | None = None
        # Per-layer figures an untraced run also prints, outside the
        # result line.
        self.info: dict[str, float] = {}

    def count(self, attempted: int, failures) -> None:
        self.attempted += attempted
        self.failures.extend(failures)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args) -> dict:
    """Seed, machine and software versions this result was measured on."""
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "blas": blas, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "numpy": np.__version__, "python": platform.python_version(),
            "git_sha": _git_sha()}


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def _setup_times(factory, repeats):
    """Build ``repeats`` times; return the last object and the build
    times."""
    times, built = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        built = factory()
        times.append(time.perf_counter() - start)
    return built, times


def _measured(factory, repeats, measure):
    """Set up ``repeats`` times before and after ``measure(built)`` runs on
    the last build; return its result and the median set-up time.

    Builds on both sides of the measurement sample two moments of a
    shared machine rather than one."""
    built, before = _setup_times(factory, repeats)
    result = measure(built)
    _, after = _setup_times(factory, repeats)
    return built, result, statistics.median(before + after)


def _kv_peak_mb(bench) -> float:
    kv = bench.engine.stats()["kv"]
    return kv["peak_pages_used"] * kv["page_bytes"] / 1e6


def _percentiles(name, values, scale=1.0) -> dict[str, float]:
    return {f"{name}_p50": float(np.percentile(values, 50)) * scale,
            f"{name}_p90": float(np.percentile(values, 90)) * scale}


def _request_times(trial, failed_ids):
    """Per request that finished and passed the oracle: (TTFT from its
    due time, TPOT), in milliseconds."""
    tokens = {r.request_id: len(r.tokens) - r.prompt_len
              for r in trial.results}
    out = {}
    for rid in trial.requests:
        if rid not in trial.last or rid in failed_ids:
            continue
        out[rid] = ((trial.first[rid] - trial.due[rid]) * 1e3,
                    (trial.last[rid] - trial.first[rid]) * 1e3
                    / max(1, tokens[rid] - 1))
    return out


def slo_attainment(workload, trial, failed_ids) -> float:
    """Requests sent that meet both SLO limits; a failed one is a miss."""
    ttft_limit, tpot_limit = wl.SLO_LIMITS[workload]
    times = _request_times(trial, failed_ids).values()
    met = sum(ttft <= ttft_limit and tpot <= tpot_limit
              for ttft, tpot in times)
    return met / len(trial.requests)


def open_loop_metrics(trial, failed_ids) -> dict[str, float]:
    """Latency is TTFT from the due time, per token is TPOT, and tokens
    per second count the loop's busy time (the offered load alone sets
    tokens per wall second of an open loop)."""
    times = list(_request_times(trial, failed_ids).values())
    return {**_percentiles("latency_ms", [t for t, _ in times]),
            **_percentiles("ms_per_token", [p for _, p in times]),
            "tok_per_s": sum(trial.tokens) / trial.busy}


def closed_loop_metrics(trial, failed_ids) -> dict[str, float]:
    """Latency is a batch job's wall time, per token is each request's
    TPOT, and tokens per second count all jobs.

    Throughput is a total over the run, not a median over jobs: the
    reference box alternates fast and slow phases of a few seconds, and
    a median of per-job rates flips between the two when the run holds
    about as much of each."""
    tpot = [p for _, p in _request_times(trial, failed_ids).values()]
    return {**_percentiles("latency_ms", trial.walls, 1e3),
            **_percentiles("ms_per_token", tpot),
            "tok_per_s": sum(trial.tokens) / sum(trial.walls)}


def train_metrics(chunks) -> dict[str, float]:
    """Latency is the wall time per optimizer step of a ``Trainer.run``
    call, per token its wall time per target token, and tokens per
    second count all calls, as on the closed inference loop."""
    return {**_percentiles("latency_ms", [w / len(losses)
                                       for losses, _, w in chunks], 1e3),
            **_percentiles("ms_per_token", [w / t for _, t, w in chunks],
                           1e3),
            "tok_per_s": (sum(t for _, t, _ in chunks)
                          / sum(w for _, _, w in chunks))}


def generator_lag_p99_ms(trial) -> float:
    """How late requests were submitted relative to their due times."""
    lags = [trial.submitted[rid] - trial.due[rid] for rid in trial.requests]
    return float(np.percentile(lags, 99)) * 1e3 if lags else 0.0


def _check(bench, trial, outcome) -> dict[int, str]:
    failed = oracle.check_generation(bench.model, trial.requests,
                                     trial.results, bench.streams)
    outcome.count(len(trial.requests),
                  [f"request {rid}: {why}" for rid, why in failed.items()])
    return failed


def measure_engine(workload, seed, seconds, trace) -> Outcome:
    """One run of an inference workload.

    Untraced, open-loop requests run as one stream and closed-loop jobs
    back to back.  Traced, the inputs alternate between an untraced
    engine and a traced one (time slices of the arrival stream, or
    whole jobs), so both see the same phases of a shared machine.
    """
    outcome = Outcome()
    closed = workload == "offline_batch"
    if closed:
        units, budget = wl.offline_jobs(seed, seconds), seconds
    else:
        make = (wl.chat_requests if workload == "chat"
                else wl.shared_prefix_requests)
        requests = make(seed, seconds)
        units = (wl.time_slices(requests, seconds / TRACE_SLICES) if trace
                 else [requests])
        budget = float("inf")     # every arrival of the schedule is sent
    if not trace:
        bench, trial, setup_s = _measured(
            wl.EngineBench, SETUP_REPEATS, lambda bench: wl.Trial.merge(
                wl.alternate([bench.drive], units, budget)[0]))
        failed = _check(bench, trial, outcome)
        metrics = (closed_loop_metrics if closed else open_loop_metrics)(
            trial, failed)
        outcome.metrics = {**metrics, "setup_s": setup_s}
        outcome.info = {"gen.lag_p99_ms": generator_lag_p99_ms(trial),
                        "kv_peak_mb": _kv_peak_mb(bench)}
        if not closed:
            outcome.info["slo_attainment"] = slo_attainment(workload, trial,
                                                            failed)
        return outcome
    plain, traced = wl.EngineBench(), wl.EngineBench()
    recorder = SpanRecorder()
    kv_before = traced.engine.stats()["kv"]
    counts, restore = instrument.instrument_engine(traced, recorder)
    try:
        passes = wl.alternate([plain.drive, traced.drive], units, budget)
    finally:
        restore()
    plain_trial, trial = (wl.Trial.merge(p) for p in passes)
    layers = instrument.engine_layer_metrics(
        recorder, counts, trial, kv_before, traced.engine.stats()["kv"])
    for rid in trial.last:
        recorder.add("request", trial.due[rid], trial.last[rid], rid)
    plain_failed = _check(plain, plain_trial, outcome)
    failed = _check(traced, trial, outcome)
    if closed:
        overhead = (closed_loop_metrics(plain_trial, plain_failed)["tok_per_s"]
                    / closed_loop_metrics(trial, failed)["tok_per_s"])
    else:
        overhead = (open_loop_metrics(trial, failed)["ms_per_token_p50"]
                    / open_loop_metrics(plain_trial,
                                        plain_failed)["ms_per_token_p50"])
        layers["slo_attainment"] = slo_attainment(workload, plain_trial,
                                                  plain_failed)
    covered = recorder.top_level_seconds(("engine.submit", "engine.step"))
    layers.update({
        "kv_peak_mb": _kv_peak_mb(traced),
        "gen.lag_p99_ms": generator_lag_p99_ms(plain_trial),
        "trace.overhead_share": overhead - 1.0,
        "trace.coverage": covered / trial.busy,
    })
    outcome.metrics = layers
    outcome.recorder = recorder
    return outcome


def measure_train(seed, seconds, trace) -> Outcome:
    """One run of the training workload; traced, chunks alternate
    between an untraced and a traced trainer."""
    outcome = Outcome()
    vocab_size, batches = wl.train_batches(seed)

    def factory():
        return wl.TrainBench(vocab_size, batches)

    def train(runners):
        return wl.alternate(runners, itertools.count(), seconds)

    if not trace:
        _, passes, setup_s = _measured(
            factory, TRAIN_SETUP_REPEATS,
            lambda bench: train([wl.timed_chunk(bench.trainer.run)]))
    else:
        recorder = SpanRecorder()
        passes = train([wl.timed_chunk(factory().trainer.run),
                        wl.timed_chunk(instrument.instrument_trainer(
                            factory(), recorder))])
    for chunks in passes:
        losses = [loss for chunk in chunks for loss in chunk[0]]
        outcome.count(len(losses), oracle.check_losses(losses))
    if not trace:
        outcome.metrics = {**train_metrics(passes[0]), "setup_s": setup_s}
        return outcome
    layers = instrument.train_layer_metrics(recorder)
    busy = sum(wall for _, _, wall in passes[1])
    plain, traced = (train_metrics(chunks)["tok_per_s"] for chunks in passes)
    layers.update({
        "trace.overhead_share": plain / traced - 1.0,
        "trace.coverage": recorder.top_level_seconds(("train.run",)) / busy,
    })
    outcome.metrics = layers
    outcome.recorder = recorder
    return outcome


def measure(workload, seed, seconds, trace) -> Outcome:
    """Run one workload once; fill in every metric the mode reports."""
    if workload == "train":
        outcome = measure_train(seed, seconds, trace)
    else:
        outcome = measure_engine(workload, seed, seconds, trace)
    if trace:
        outcome.metrics["failed_share"] = (len(outcome.failures)
                                           / max(1, outcome.attempted))
        for name in PER_LAYER:
            outcome.metrics.setdefault(name, 0.0)
    else:
        outcome.info["failed_share"] = (len(outcome.failures)
                                        / max(1, outcome.attempted))
    return outcome


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def run_one(args) -> int:
    """Measure one workload, print its metrics and the result line."""
    info = stamp(args)
    print("# stamp " + json.dumps(info))
    outcome = measure(args.workload, args.seed, args.seconds, args.trace)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(value), "unit": units[name]}
               for name, value in outcome.metrics.items()}
    for name, metric in metrics.items():
        print(f"{args.workload:>14} {name:<30} {metric['value']:>12.4f} "
              f"{metric['unit']}")
    for name, value in outcome.info.items():
        print(f"{args.workload:>14} {name:<30} {value:>12.4f} "
              f"{PER_LAYER[name]}")
    for message in outcome.failures[:20]:
        print(f"FAILED {args.workload}: {message}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if outcome.recorder is not None:
        outcome.recorder.write(OUT_DIR / f"spans-{tag}.json")
    correct = not outcome.failures
    result = {"correct": correct, "attempted": outcome.attempted,
              "failed": len(outcome.failures), "metrics": metrics}
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"stamp": info, **result}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload untraced then traced, one child process at a time."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(command, check=False)
            status = status or done.returncode
    return status


def main(argv=None) -> int:
    """Parse the command line and run one workload or all of them."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
