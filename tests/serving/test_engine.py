"""Single-model serving: a one-tenant registry equals the in-process classifier.

A single-model deployment is ``ModelRegistry`` with one tenant loaded as
``"default"``.  Small forests, 2-worker pools — these tests pin correctness
(bit-identical predictions, hot swap, swap validation, the in-process path)
and leave throughput to ``benchmarks/test_serving_throughput.py``.
"""

import threading

import numpy as np
import pytest

from repro.core import AnytimeBayesClassifier, BayesTreeConfig
from repro.data import make_dataset
from repro.persist import SnapshotError, load_forest, save_forest
from repro.serving import ModelRegistry


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    dataset = make_dataset("pendigits", size=360, random_state=8)
    config = BayesTreeConfig(decay_rate=0.01, expiry_threshold=1e-4)
    classifier = AnytimeBayesClassifier(config=config)
    for i in range(300):
        classifier.partial_fit(dataset.features[i], dataset.labels[i], timestamp=float(i) * 0.2)
    path = tmp_path_factory.mktemp("serving") / "forest.npz"
    save_forest(classifier, path)
    return path, dataset.features[300:]


@pytest.fixture(scope="module")
def expected(snapshot):
    path, queries = snapshot
    local = load_forest(path)
    return {
        "full": local.predict_batch(queries),
        "budget_8": local.predict_batch(queries, node_budget=8),
    }


def _single_model(path, workers):
    registry = ModelRegistry(capacity=1, workers=workers)
    registry.load("default", path)
    return registry


def test_fallback_serves_identical_predictions(snapshot, expected):
    path, queries = snapshot
    with _single_model(path, workers=0) as registry:
        assert registry.stats_snapshot()["workers"] == 0
        assert registry.predict_batch("default", queries) == expected["full"]
        assert registry.predict_batch("default", queries, node_budget=8) == expected["budget_8"]
        assert registry.stats.batches == 2
        assert registry.stats.requests == 2 * len(queries)


def test_sharded_workers_serve_identical_predictions(snapshot, expected):
    path, queries = snapshot
    with _single_model(path, workers=2) as registry:
        assert registry.stats_snapshot()["workers"] == 2
        assert registry.predict_batch("default", queries) == expected["full"]
        assert registry.predict_batch("default", queries, node_budget=8) == expected["budget_8"]
        # Per-query budgets ride one lockstep batch.
        budgets = np.asarray([4, 8, 12] * (len(queries) // 3 + 1))[: len(queries)]
        local = load_forest(path)
        assert registry.predict_batch(
            "default", queries, node_budget=budgets
        ) == local.predict_batch(queries, node_budget=budgets)


def test_hot_swap_switches_models_gracefully(snapshot, tmp_path):
    path, queries = snapshot
    classifier = load_forest(path)
    rng = np.random.default_rng(0)
    # Push the forest somewhere clearly different, then snapshot it.
    for _ in range(120):
        classifier.partial_fit(rng.normal(size=queries.shape[1]) * 0.1, "intruder", timestamp=90.0)
    swapped_path = tmp_path / "swapped.npz"
    save_forest(classifier, swapped_path)
    with _single_model(path, workers=2) as registry:
        before = registry.predict_batch("default", queries)
        registry.load("default", swapped_path)
        after = registry.predict_batch("default", queries)
        assert registry.tenant_stats("default")["n_classes"] == len(classifier.classes)
        assert after == load_forest(swapped_path).predict_batch(queries)
        assert registry.stats.swaps == 1
        assert before == load_forest(path).predict_batch(queries)


def test_concurrent_swaps_never_tear_a_serving_round(snapshot, tmp_path):
    """Rounds racing hot swaps must come wholly from one snapshot or the other.

    A swap waits for the tenant's in-flight rounds to drain and parks new
    ones until the new segment is in place; without that a round could be
    served half by the old forest and half by the new one (or hit an
    unlinked segment).  Swapping between two forests with *different class
    sets* makes any tear loud.
    """
    path, queries = snapshot
    classifier = load_forest(path)
    rng = np.random.default_rng(3)
    for _ in range(60):
        classifier.partial_fit(rng.normal(size=queries.shape[1]) * 0.1, "intruder", timestamp=90.0)
    other_path = tmp_path / "other.npz"
    save_forest(classifier, other_path)
    expected = {
        "old": load_forest(path).predict_batch(queries),
        "new": load_forest(other_path).predict_batch(queries),
    }
    with _single_model(path, workers=2) as registry:
        results, errors = [], []

        def serve():
            try:
                for _ in range(12):
                    results.append(registry.predict_batch("default", queries))
            except Exception as error:  # noqa: BLE001 - surfaced via the errors list
                errors.append(error)

        thread = threading.Thread(target=serve)
        thread.start()
        for target in (other_path, path, other_path):
            registry.load("default", target)
        thread.join()
        assert registry.stats.swaps == 3
    assert not errors
    assert results and all(
        outcome == expected["old"] or outcome == expected["new"] for outcome in results
    )


def test_swap_validates_the_new_snapshot(snapshot, tmp_path):
    path, queries = snapshot
    other = AnytimeBayesClassifier()
    rng = np.random.default_rng(1)
    for _ in range(8):
        other.partial_fit(rng.normal(size=3), "a")  # wrong dimensionality
    wrong_dim = tmp_path / "wrong.npz"
    save_forest(other, wrong_dim)
    with _single_model(path, workers=0) as registry:
        with pytest.raises(ValueError, match="dimension"):
            registry.load("default", wrong_dim)
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"junk")
        with pytest.raises(SnapshotError):
            registry.load("default", garbage)
        # The registry still serves the old snapshot after rejected swaps.
        assert registry.stats.swaps == 0
        assert registry.predict_batch("default", queries[:8]) == load_forest(
            path
        ).predict_batch(queries[:8])


def test_engine_validates_inputs(snapshot):
    path, queries = snapshot
    with _single_model(path, workers=0) as registry:
        with pytest.raises(ValueError, match="queries"):
            registry.predict_batch("default", queries[0])
        with pytest.raises(ValueError, match="queries"):
            registry.predict_batch("default", queries[:, :3])
        with pytest.raises(ValueError, match="budget per query"):
            registry.predict_batch("default", queries, node_budget=np.asarray([1, 2]))
    with pytest.raises(ValueError, match="workers"):
        ModelRegistry(workers=-1)
