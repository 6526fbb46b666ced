"""repro — reproduction of "Using Index Structures for Anytime Stream Mining".

The package implements the Bayes tree (Kranen, VLDB 2009; Seidl et al., EDBT
2009): an R*-tree storing a hierarchy of Gaussian mixture models that enables
anytime Bayesian classification on data streams, together with the bulk
loading strategies the paper evaluates (Hilbert/Z-curve/STR packing, the
Goldberger mixture-reduction bulk load and the EM top-down bulk load), the
stream/evaluation harness that regenerates the paper's figures, and the
anytime-clustering extension sketched in its future-work section.

Quickstart
----------
>>> import numpy as np
>>> from repro import AnytimeBayesClassifier, make_dataset
>>> dataset = make_dataset("pendigits", size=600, random_state=0)
>>> classifier = AnytimeBayesClassifier()
>>> classifier = classifier.fit(dataset.features[:500], dataset.labels[:500])
>>> result = classifier.classify_anytime(dataset.features[500], max_nodes=20)
>>> result.predictions[0] == result.predictions[-1] or True  # anytime answers
True
"""

from typing import TYPE_CHECKING, Any

from .core import (
    AnytimeBayesClassifier,
    AnytimeClassification,
    BayesTree,
    BayesTreeConfig,
    Frontier,
    SingleTreeAnytimeClassifier,
    default_qbk_k,
    make_descent_strategy,
)
from .index import RStarTree, TreeParameters
from .persist import SnapshotError, SnapshotVersionError, load_forest, save_forest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .data import Dataset

__version__ = "0.1.0"

__all__ = [
    "AnytimeBayesClassifier",
    "AnytimeClassification",
    "BayesTree",
    "BayesTreeConfig",
    "Frontier",
    "SingleTreeAnytimeClassifier",
    "default_qbk_k",
    "make_descent_strategy",
    "RStarTree",
    "TreeParameters",
    "SnapshotError",
    "SnapshotVersionError",
    "load_forest",
    "save_forest",
    "make_dataset",
    "__version__",
]


def make_dataset(*args: Any, **kwargs: Any) -> "Dataset":
    """Convenience re-export of :func:`repro.data.make_dataset` (lazy import)."""
    from .data import make_dataset as _make_dataset

    return _make_dataset(*args, **kwargs)
