"""Serving benchmark: query-sharded throughput and latency vs worker count.

Prints a queries/sec + p50/p99 latency table for a one-tenant
:class:`~repro.serving.ModelRegistry` served in-process, by one worker and
(cores permitting) by four workers, and pins the correctness contract: the
registry's predictions — pooled or not, budgeted or not — are bit-identical
to the in-process classifier on the restored snapshot.

The *scaling* assertion (>1.8x at 4 workers, the ISSUE 4 acceptance bar) only
runs on machines with at least four usable cores; single-core CI containers
cannot physically exhibit multi-process speedups, and a flaky gate is worse
than a scoped one.  The bench-regression gate enforces the same bar through
``collect_bench.py`` on the 4-vCPU CI runners (``min_cores`` metric guard).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.persist import load_forest
from serving_load import TENANT, build_serving_snapshot, open_single_model, run_serving_load

from conftest import print_heading, run_once

#: Worker counts probed by the sweep (0 = in-process serving).
SWEEP_WORKERS = (0, 1, 4)

#: Minimum 4-worker over 1-worker throughput ratio asserted on >=4-core hosts.
MIN_SPEEDUP_4W = 1.8


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("serving") / "forest.npz"
    queries = build_serving_snapshot(path, train_size=1600, query_size=256, random_state=0)
    return path, queries


def test_engine_serves_bit_identical_predictions(snapshot):
    path, queries = snapshot
    local = load_forest(path)
    expected_full = local.predict_batch(queries)
    expected_budgeted = local.predict_batch(queries[:64], node_budget=15)
    for workers in (0, 2):
        measured = run_serving_load(path, workers, queries[:64], batches=1, warmup=0)
        assert measured["qps"] > 0
        with open_single_model(path, workers=workers) as registry:
            assert registry.predict_batch(TENANT, queries) == expected_full
            assert (
                registry.predict_batch(TENANT, queries[:64], node_budget=15) == expected_budgeted
            )


def test_serving_throughput_scaling(snapshot, benchmark):
    path, queries = snapshot
    cores = os.cpu_count() or 1
    workers = [count for count in SWEEP_WORKERS if count <= max(1, cores)]
    if 1 not in workers:
        workers.append(1)

    def sweep():
        return {
            count: run_serving_load(path, count, queries, batches=6, warmup=1)
            for count in sorted(set(workers))
        }

    results = run_once(benchmark, sweep)

    print_heading("serving throughput vs worker count (256-query micro-batches)")
    print(f"{'workers':>8s} {'qps':>10s} {'p50 ms':>9s} {'p99 ms':>9s}")
    for count in sorted(results):
        row = results[count]
        label = "sync" if count == 0 else str(count)
        print(f"{label:>8s} {row['qps']:10.0f} {row['p50_ms']:9.2f} {row['p99_ms']:9.2f}")

    for row in results.values():
        assert row["qps"] > 0
        assert row["p99_ms"] >= row["p50_ms"] > 0
    if 4 in results and cores >= 4:
        speedup = results[4]["qps"] / results[1]["qps"]
        print(f"\n4-worker vs 1-worker speedup: {speedup:.2f}x (floor {MIN_SPEEDUP_4W}x)")
        assert speedup > MIN_SPEEDUP_4W, (
            f"pooled serving scaled only {speedup:.2f}x at 4 workers "
            f"(expected > {MIN_SPEEDUP_4W}x on a {cores}-core host)"
        )


def test_budgeted_serving_reuses_lockstep_driver(snapshot):
    """Budgeted (anytime) load is served query-sharded with correct results."""
    path, queries = snapshot
    local = load_forest(path)
    budgets = np.asarray([5, 10, 15, 20] * 16)
    expected = [
        result.final_prediction
        for result in local.classify_anytime_batch(
            queries[:64], max_nodes=budgets, record_history=False
        )
    ]
    with open_single_model(path, workers=2) as registry:
        assert registry.predict_batch(TENANT, queries[:64], node_budget=budgets) == expected
