"""Zero-copy serving: shared-memory pool workers and the segment lifecycle.

Pool workers of a :class:`~repro.serving.ModelRegistry` attach to one
shared-memory segment per tenant and serve predictions bit-identical to the
in-process classifier; snapshots without flat members are compiled on the fly
(on load and on swap); the per-tenant stats report the segment and the forest
structure; and the segment is unlinked exactly once — on close, after a
swap, and even when a pool worker has been killed.
"""

import multiprocessing
import os
import signal
import time
# The crash/lifecycle tests below must attach to segments *raw* (bypassing
# attach_columns) to prove that worker death never unlinks the registry's
# segment — exactly the misuse RL003 exists to keep out of src/.
from multiprocessing import shared_memory  # reprolint: disable=RL003 -- lifecycle test needs raw attach

import numpy as np
import pytest

from repro.core import AnytimeBayesClassifier, BayesTreeConfig
from repro.data import make_dataset
from repro.persist import load_forest, save_forest
from repro.serving import ModelRegistry


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    dataset = make_dataset("pendigits", size=360, random_state=8)
    config = BayesTreeConfig(decay_rate=0.01, expiry_threshold=1e-4)
    classifier = AnytimeBayesClassifier(config=config)
    for i in range(300):
        classifier.partial_fit(
            dataset.features[i], dataset.labels[i], timestamp=float(i) * 0.2
        )
    path = tmp_path_factory.mktemp("zero_copy") / "forest.npz"
    save_forest(classifier, path)
    legacy = tmp_path_factory.mktemp("zero_copy") / "legacy.npz"
    save_forest(classifier, legacy, include_flat=False)
    return path, legacy, dataset.features[300:]


def _segment_is_gone(name):
    try:
        handle = shared_memory.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        return True
    handle.close()
    return False


def _single_model(path, workers):
    registry = ModelRegistry(capacity=1, workers=workers)
    registry.load("default", path)
    return registry


def _child_pids():
    """Live child processes of this test process (pool workers among them)."""
    return [child.pid for child in multiprocessing.active_children()]


# -- zero-copy serving ----------------------------------------------------------------------
def test_zero_copy_fallback_serves_identically(snapshot):
    path, _, queries = snapshot
    local = load_forest(path)
    with _single_model(path, workers=0) as registry:
        assert registry.stats_snapshot()["workers"] == 0
        assert registry.predict_batch("default", queries) == local.predict_batch(queries)
        stats = registry.tenant_stats("default")
        # In-process serving wraps the same shared segment the pool would use.
        assert stats["shm_name"] and stats["shm_bytes"] > 0
        assert stats["structure"]["total_kernels"] > 0


def test_tenant_stats_report_segment_and_structure(snapshot):
    path, _, queries = snapshot
    labels = load_forest(path).classes
    with _single_model(path, workers=2) as registry:
        registry.predict_batch("default", queries[:8])
        stats = registry.tenant_stats("default")
        assert stats["shm_name"] and stats["shm_bytes"] > 0
        structure = stats["structure"]
        assert structure["n_classes"] == len(labels)
        assert structure["total_kernels"] > 0
        for per_class in structure["classes"].values():
            assert sum(per_class["depth_profile"]) == per_class["n_kernels"]
        # Computed on request from the resident forest, never stored: the
        # registry-wide snapshot does not carry it, and a non-resident
        # tenant has none.
        assert "structure" not in registry.stats_snapshot()["tenants"]["default"]
        registry.evict("default")
        assert registry.tenant_stats("default")["structure"] is None


# -- segment lifecycle ----------------------------------------------------------------------
def test_segment_is_unlinked_on_close(snapshot):
    path, _, queries = snapshot
    registry = _single_model(path, workers=2)
    try:
        name = registry.tenant_stats("default")["shm_name"]
        assert name is not None
        assert not _segment_is_gone(name)
        assert registry.predict_batch("default", queries[:4])
    finally:
        registry.close()
    assert _segment_is_gone(name)
    registry.close()  # idempotent


def test_swap_replaces_segment_and_unlinks_old(snapshot, tmp_path):
    path, _, queries = snapshot
    dataset = make_dataset("pendigits", size=400, random_state=21)
    retrained = AnytimeBayesClassifier(config=BayesTreeConfig(decay_rate=0.0))
    for i in range(340):
        retrained.partial_fit(dataset.features[i], dataset.labels[i], timestamp=float(i))
    new_path = tmp_path / "retrained.npz"
    save_forest(retrained, new_path)
    with _single_model(path, workers=2) as registry:
        old_name = registry.tenant_stats("default")["shm_name"]
        registry.load("default", new_path)
        stats = registry.tenant_stats("default")
        assert registry.stats.swaps == 1
        assert stats["shm_name"] != old_name
        assert _segment_is_gone(old_name)
        assert not _segment_is_gone(stats["shm_name"])
        assert registry.predict_batch("default", queries) == retrained.predict_batch(queries)
    assert _segment_is_gone(stats["shm_name"])


def test_worker_crash_does_not_leak_the_segment(snapshot):
    path, _, queries = snapshot
    before = set(_child_pids())
    registry = _single_model(path, workers=2)
    try:
        # Serve a round so every pool worker has attached the segment.
        assert registry.predict_batch("default", queries) == load_forest(path).predict_batch(
            queries
        )
        name = registry.tenant_stats("default")["shm_name"]
        victim = next(pid for pid in _child_pids() if pid not in before)
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.kill(victim, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    finally:
        registry.close()
    # The dead worker never ran cleanup, yet the registry-owned unlink
    # happened exactly once — the name is free and nothing spammed the
    # resource tracker.
    assert _segment_is_gone(name)


# -- compile-on-demand for snapshots without flat members -----------------------------------
def test_snapshot_without_flat_members_is_compiled_engine_side(snapshot):
    path, legacy, queries = snapshot
    local = load_forest(path)
    with _single_model(legacy, workers=2) as registry:
        assert registry.tenant_stats("default")["shm_name"] is not None
        assert registry.predict_batch("default", queries) == local.predict_batch(queries)
        assert registry.predict_batch("default", queries, node_budget=8) == local.predict_batch(
            queries, node_budget=8
        )


def test_swap_to_legacy_snapshot_compiles_on_swap(snapshot):
    path, legacy, queries = snapshot
    local = load_forest(path)
    with _single_model(path, workers=2) as registry:
        registry.load("default", legacy)
        stats = registry.tenant_stats("default")
        assert stats["snapshot_path"] == str(legacy)
        assert stats["shm_name"] is not None
        assert registry.predict_batch("default", queries) == local.predict_batch(queries)
