"""Seeded workload inputs: forests, query rows, budgets and arrival schedules.

Everything a workload feeds the program is derived here from the one
``--seed`` argument, so the same seed gives the same inputs.  The module
owns its recipes (dataset names and sizes, tree parameters, budget mix,
rates); it imports nothing from the repository's ``benchmarks/`` gate
harness, so editing that harness cannot change what this benchmark measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import numpy as np

from repro import AnytimeBayesClassifier, BayesTreeConfig, TreeParameters, make_dataset
from repro.persist import save_forest

#: Tree shape of every forest the benchmark builds.
TREE = TreeParameters(max_fanout=8, min_fanout=3, leaf_capacity=8, leaf_min=3)
#: Data set seed of every forest and stream: the model is fixed, the
#: ``--seed`` argument varies the traffic.
DATA_SEED = 20090824
#: Per-request node budgets of ``anytime_open``, drawn uniformly per request.
BUDGET_MIX = (1, 2, 4, 8, 16, 32)


def sub_seed(seed: int, *tags: int) -> int:
    """An independent 32-bit seed for one input stream of a workload."""
    return int(np.random.SeedSequence([int(seed), *tags]).generate_state(1)[0])


@dataclass
class Forest:
    """A trained forest's snapshot plus the time its save took."""

    path: Path
    save_s: float


def forest_and_queries(dataset: str, train_size: int, query_size: int, seed: int,
                       directory: Path) -> Tuple[Forest, np.ndarray, np.ndarray]:
    """Snapshot the workload's forest; return it with distinct query rows in seeded order.

    The forest is the same for every seed: it is the deployed model, fitted
    on the prefix of one generated data set.  The seed picks the traffic —
    the order of the data set's query tail (exact duplicates dropped).
    """
    data = make_dataset(dataset, size=train_size + query_size, random_state=DATA_SEED)
    config = BayesTreeConfig(tree=TREE)
    classifier = AnytimeBayesClassifier(config=config).fit(
        data.features[:train_size], data.labels[:train_size])
    path = directory / f"{dataset}.npz"
    start = time.perf_counter()
    save_forest(classifier, path)
    forest = Forest(path, time.perf_counter() - start)
    features, labels = data.features[train_size:], np.asarray(data.labels)[train_size:]
    _, first = np.unique(features, axis=0, return_index=True)
    order = np.random.default_rng(sub_seed(seed, 1)).permutation(np.sort(first))
    return forest, np.ascontiguousarray(features[order]), labels[order]


def budgets(count: int, seed: int, tag: int) -> np.ndarray:
    """One node budget per request, uniform over :data:`BUDGET_MIX`."""
    rng = np.random.default_rng(sub_seed(seed, tag))
    return rng.choice(np.asarray(BUDGET_MIX, dtype=np.int64), size=count)


def poisson_schedule(rate: float, duration: float, seed: int, tag: int) -> np.ndarray:
    """Due times (seconds from phase start) of a Poisson arrival process."""
    rng = np.random.default_rng(sub_seed(seed, tag))
    expected = rate * duration
    gaps = rng.exponential(1.0 / rate, size=int(expected + 10 * np.sqrt(expected) + 10))
    due = np.cumsum(gaps)
    return due[due < duration]
