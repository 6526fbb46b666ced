"""Which public entry points the traced run wraps, per layer.

Each ``patch_*`` function wraps one layer's public methods on their classes,
so every instance in the process — including those the library creates
itself — records spans.  Span names are ``<layer>.<method>``.
"""

from __future__ import annotations

import multiprocessing.util
import os
from typing import List

import numpy as np

from repro import AnytimeBayesClassifier, AnytimeClassification
from repro.core.flat import FlatForest
from repro.serving import AsyncServingClient, ModelRegistry

from perfbench.spans import _CURRENT, SpanRecorder, row_id, row_ids


def _rows(queries: object) -> int:
    return int(np.asarray(queries).shape[0])


def _granted(queries: object, max_nodes: object) -> int:
    return int(np.broadcast_to(np.asarray(max_nodes), (_rows(queries),)).sum())


def _anytime_call(self: object, queries: object, max_nodes: object, *args: object,
                  **kwargs: object) -> dict:
    return {"rows": _rows(queries), "granted": _granted(queries, max_nodes)}


def _spent(results: List[AnytimeClassification]) -> dict:
    return {"spent": int(sum(result.nodes_read for result in results))}


def patch_serving(recorder: SpanRecorder) -> None:
    """Frontend (``AsyncServingClient.classify``) and registry entry points."""
    recorder.patch(
        AsyncServingClient, "classify", "frontend.classify",
        describe=lambda self, features, *a, **k: {"rids": [row_id(np.asarray(features, float))]},
    )
    recorder.patch(
        ModelRegistry, "predict_batch", "registry.predict_batch",
        describe=lambda self, tenant, queries, *a, **k: {
            "rids": row_ids(queries), "rows": _rows(queries), "tenant": tenant},
    )
    recorder.patch(ModelRegistry, "load", "registry.load",
                   describe=lambda self, tenant, *a, **k: {"tenant": tenant})
    recorder.patch(ModelRegistry, "__init__", "registry.init",
                   describe=lambda self, *a, **k: {"workers": int(k.get("workers", 0))})


def patch_flat(recorder: SpanRecorder) -> None:
    """``FlatForest`` descent: the budgeted lockstep path and full refinement."""
    recorder.patch(FlatForest, "classify_anytime_batch", "flat.classify_anytime_batch",
                   describe=_anytime_call, summarize=_spent)
    recorder.patch(
        FlatForest, "predict_batch", "flat.predict_batch",
        describe=lambda self, queries, *a, **k: {"rids": row_ids(queries), "rows": _rows(queries)},
    )


def patch_classifier(recorder: SpanRecorder) -> None:
    """The live forest: lockstep classification, learning and the decay clock."""
    recorder.patch(AnytimeBayesClassifier, "classify_anytime_batch",
                   "classifier.classify_anytime_batch",
                   describe=_anytime_call, summarize=_spent)
    recorder.patch(AnytimeBayesClassifier, "partial_fit", "classifier.partial_fit")
    recorder.patch(AnytimeBayesClassifier, "advance_time", "classifier.advance_time")


class WorkerSpans(SpanRecorder):
    """Recorder of ``FlatForest`` spans in pool workers forked after :func:`patch_flat`.

    On its first span in a process it arranges for that process's spans to
    be written to ``directory/worker-<pid>.jsonl`` when the worker exits
    (``multiprocessing`` runs its finalizers on a worker's normal exit, not
    ``atexit`` hooks).
    """

    def __init__(self, directory: str) -> None:
        super().__init__()
        self.directory = directory
        self._armed = 0

    def open(self, name: str):  # type: ignore[no-untyped-def]
        if self._armed != os.getpid():
            self._check_fork()
            self._armed = os.getpid()
            # A forked worker inherits the forking thread's current span;
            # its own spans have no parent in this process.
            _CURRENT.set(None)
            path = os.path.join(self.directory, f"worker-{self._armed}.jsonl")
            multiprocessing.util.Finalize(None, self.dump, args=(path,), exitpriority=10)
        return super().open(name)


def private_kb(pid: int) -> float:
    """Private RSS of a process, counted as ``repro.serving.memory_profile`` counts it."""
    total = 0.0
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total += float(line.split()[1])
    except OSError:
        pass
    return total
