"""Tests of the benchmark itself, at a seconds-scale size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import copy
import json
import subprocess
import sys
from itertools import count
from pathlib import Path

import numpy as np
import pytest

import run
import oracle
import workloads as wl
from spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent


def test_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.BENCHMARKED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_present_with_a_unit(workload, trace):
    outcome = run.measure(workload, seed=0, seconds=1.5, trace=trace)
    assert outcome.failures == []
    assert outcome.attempted > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(outcome.metrics) == set(expected)
    assert all(np.isfinite(v) for v in outcome.metrics.values())
    if trace:
        assert outcome.metrics["trace.coverage"] >= 0.9
    else:
        assert all(v > 0 for v in outcome.metrics.values())


def test_command_prints_contract_json_last():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "chat", "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_inputs_depend_only_on_the_seed():
    assert wl.chat_requests(5, 2.0) == wl.chat_requests(5, 2.0)
    assert wl.chat_requests(5, 2.0) != wl.chat_requests(6, 2.0)
    a = wl.shared_prefix_requests(5, 2.0)
    assert a == wl.shared_prefix_requests(5, 2.0)


@pytest.fixture(scope="module")
def chat_pass():
    bench = wl.EngineBench()
    trial = bench.drive(wl.chat_requests(0, 1.0))
    return bench, trial


def _logits_of(bench, result):
    rows = oracle.reference_logits(bench.model, [result.tokens])[0]
    return rows[result.prompt_len - 1]


def _corrupted(trial, bench, greedy, also_stream):
    """A copy of the run's results with one completion token replaced by
    the token its reference logits rank lowest."""
    results = copy.deepcopy(trial.results)
    streams = copy.deepcopy(bench.streams)
    victim = next(r for r in results
                  if trial.requests[r.request_id].params.greedy == greedy
                  and (greedy or trial.requests[r.request_id].params.top_k))
    worst = int(np.argmin(_logits_of(bench, victim)))
    victim.tokens[victim.prompt_len] = worst
    if also_stream:
        streams[victim.request_id][0] = worst
    return victim.request_id, results, streams


def test_oracle_passes_a_clean_run(chat_pass):
    bench, trial = chat_pass
    assert oracle.check_generation(bench.model, trial.requests,
                                   trial.results, bench.streams) == {}


@pytest.mark.parametrize("greedy", [True, False])
def test_oracle_flags_one_corrupted_token(chat_pass, greedy):
    bench, trial = chat_pass
    rid, results, streams = _corrupted(trial, bench, greedy, also_stream=True)
    failed = oracle.check_generation(bench.model, trial.requests, results,
                                     streams)
    assert list(failed) == [rid]
    assert "disagrees with the full forward" in failed[rid]


def test_oracle_flags_a_stream_that_differs_from_the_result(chat_pass):
    bench, trial = chat_pass
    rid, results, streams = _corrupted(trial, bench, True, also_stream=False)
    failed = oracle.check_generation(bench.model, trial.requests, results,
                                     streams)
    assert list(failed) == [rid]


def test_oracle_flags_lost_and_duplicated_requests(chat_pass):
    bench, trial = chat_pass
    results = list(trial.results)
    lost = results.pop()
    results.append(results[0])
    failed = oracle.check_generation(bench.model, trial.requests, results,
                                     bench.streams)
    assert failed == {lost.request_id: "never finished",
                      results[0].request_id: "finished twice"}


def test_oracle_flags_nan_and_flat_losses():
    falling = list(np.linspace(3.0, 2.0, 40))
    assert oracle.check_losses(falling) == []
    with_nan = list(falling)
    with_nan[17] = float("nan")
    assert len(oracle.check_losses(with_nan)) == 1
    assert len(oracle.check_losses([2.5] * 40)) == 1


def test_self_time_subtracts_direct_children():
    ticks = count()
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    recorder.wrap("outer", body)()
    summary = recorder.summary()
    # outer spans ticks 0..5 and holds inner spans 1..2 and 3..4.
    assert summary["outer"] == {"count": 1, "seconds": 5.0,
                                "self_seconds": 3.0, "median_seconds": 5.0}
    assert summary["inner"]["self_seconds"] == 2.0
    assert recorder.top_level_seconds(["outer"]) == 5.0
