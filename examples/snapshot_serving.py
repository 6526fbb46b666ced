"""Snapshots + pooled serving: persist a forest, serve it, hot-swap it.

Demonstrates the production serving loop:

1. train an adaptive (decaying) Bayes forest on a stream prefix,
2. ``save_forest`` it into a portable, pickle-free snapshot,
3. serve queries from a one-tenant :class:`repro.serving.ModelRegistry` —
   worker processes attach the forest zero-copy from shared memory and
   split each round by query; predictions are bit-identical to the
   in-process classifier,
4. keep training in the background, snapshot again and hot-swap the model
   without dropping a request.

Run with:  python examples/snapshot_serving.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import AnytimeBayesClassifier, BayesTreeConfig, load_forest, save_forest
from repro.serving import ModelRegistry


def main() -> None:
    # 1. Train an adaptive forest on the first half of a stream.
    dataset_size, train_until, swap_until = 1200, 700, 900
    from repro import make_dataset

    dataset = make_dataset("pendigits", size=dataset_size, random_state=11)
    config = BayesTreeConfig(decay_rate=0.01, expiry_threshold=1e-4)
    classifier = AnytimeBayesClassifier(config=config)
    for i in range(train_until):
        classifier.partial_fit(dataset.features[i], dataset.labels[i], timestamp=float(i) * 0.1)
    print(f"trained {classifier.n_classes} class trees on {train_until} stream objects")

    # 2. Snapshot: a versioned .npz container, no pickle anywhere.
    workdir = Path(tempfile.mkdtemp())
    snapshot = workdir / "forest-v1.npz"
    save_forest(classifier, snapshot)
    print(f"snapshot written: {snapshot.name} ({snapshot.stat().st_size / 1024:.0f} KiB)")

    # Restoring is bit-identical: same predictions, same refinement traces.
    queries = dataset.features[train_until:]
    restored = load_forest(snapshot)
    assert restored.predict_batch(queries) == classifier.predict_batch(queries)
    print("restored forest agrees with the live one on every prediction")

    # 3. Serve the snapshot from a worker pool: a single-model deployment is
    #    a one-tenant registry.
    with ModelRegistry(capacity=1, workers=2) as registry:
        registry.load("default", snapshot)
        start = time.perf_counter()
        served = registry.predict_batch("default", queries)
        seconds = time.perf_counter() - start
        assert served == restored.predict_batch(queries)
        workers = registry.stats_snapshot()["workers"]
        mode = f"{workers} pool workers" if workers else "in-process serving"
        print(f"served {len(served)} queries in {seconds * 1e3:.1f} ms via {mode}")

        # Budgeted anytime requests ride the same pool.
        anytime = registry.predict_batch("default", queries[:32], node_budget=10)
        print(f"anytime (10-node budget) predictions for 32 queries: {anytime[:8]} ...")

        # 4. Background training + graceful hot swap.
        for i in range(train_until, swap_until):
            classifier.partial_fit(
                dataset.features[i], dataset.labels[i], timestamp=70.0 + float(i) * 0.1
            )
        snapshot_v2 = workdir / "forest-v2.npz"
        save_forest(classifier, snapshot_v2)
        registry.load("default", snapshot_v2)
        swapped = registry.predict_batch("default", queries)
        assert swapped == load_forest(snapshot_v2).predict_batch(queries)
        changed = int(np.sum(np.array(swapped) != np.array(served)))
        print(
            f"hot-swapped to {snapshot_v2.name}: {changed} of {len(served)} "
            f"predictions changed after the extra training"
        )
        print(f"registry stats: {registry.stats}")


if __name__ == "__main__":
    main()
