"""Flat-forest serving benchmark: descent speedup and trace identity.

Prints flat-column vs object-graph anytime descent timing with the
trace-identity pin, and asserts the qualitative claims that hold on any
machine: traces are hash-identical and the flat descent is not slower.
Absolute milliseconds — including the registry workers' warm start — are
left to the regression gate (``collect_bench.py`` + ``min_cores``), which
runs on known hardware.
"""

from __future__ import annotations

import pytest

from serving_load import build_serving_snapshot, run_flat_descent_comparison

from conftest import print_heading, run_once


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("flat_serving") / "forest.npz"
    queries = build_serving_snapshot(path, train_size=1600, query_size=256, random_state=0)
    return path, queries


def test_flat_descent_is_trace_identical_and_not_slower(snapshot, benchmark):
    path, queries = snapshot
    result = run_once(
        benchmark, run_flat_descent_comparison, path, queries[:128], max_nodes=20
    )
    print_heading("flat-column vs object-graph anytime descent (128 queries, budget 20)")
    print(f"  object graph : {result['object_s'] * 1e3:8.1f} ms")
    print(f"  flat columns : {result['flat_s'] * 1e3:8.1f} ms")
    print(f"  speedup      : {result['speedup']:8.2f}x")
    print(f"  trace hash   : {result['trace_hash'][:16]}… identical={result['identical']}")
    assert result["identical"], "flat descent diverged from the object graph"
    # Qualitative bar only — the regression gate tracks the actual ratio.
    assert result["speedup"] > 0.8

