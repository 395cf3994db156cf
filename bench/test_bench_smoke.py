"""Tier-1 smoke test of the benchmark itself.

Runs the four workloads in-process at smoke scale, untraced and traced,
so a refactor that breaks the benchmark -- a renamed method in the wrap
table, a metric that drifts from BENCHMARK.json, an answer the oracle
rejects -- fails here instead of silently voiding a later claim.
"""

import re

import pytest

from bench import run as bench_run
from bench.compare import load_spec
from bench.scenarios import WORKLOADS
from bench.trace import TIMING_METRICS
from repro.core.graph_zeppelin import GraphZeppelin
from repro.kernels import native_kernels, native_unavailable_reason

SPEC = load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _smoke(name: str, trace: bool) -> dict:
    if name.endswith("_native") and native_kernels() is None:
        pytest.skip(f"no native kernel provider: {native_unavailable_reason()}")
    return bench_run.run_workload(name, seed=11, seconds=1, trace=trace, smoke=True)


def test_benchmark_json_declares_the_workloads_and_legal_names():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_the_declared_end_to_end_metrics(name):
    result = _smoke(name, trace=False)
    assert result["failures"] == [] and result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_the_declared_layers_and_they_sum_to_the_timed_total(name):
    result = _smoke(name, trace=True)
    assert result["failures"] == [] and result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    value = {metric: entry["value"] for metric, entry in result["metrics"].items()}
    assert value["trace.missing_targets"] == 0
    # Layer self times plus the unattributed remainder are the summed
    # root spans, and those agree with the recorder's own clock.
    layers = sum(value[metric] for metric in TIMING_METRICS)
    total = value["trace.timed_total_s"]
    assert layers + value["trace.unattributed_s"] == pytest.approx(total, rel=1e-9)
    assert total == pytest.approx(value["trace.recorder_total_s"], rel=0.02, abs=2e-3)
    assert value["trace.unattributed_s"] >= 0
    # The tracer put the program back as it found it.
    assert not hasattr(GraphZeppelin.ingest_batch, "__wrapped__")
