import tracemalloc

import numpy as np
import pytest

from libags.data import CandidatePool, FeatureMatrix, LabeledDataset


def make_blobs(n_classes: int, seed: int = 0):
    """Unit Gaussian blobs centred on a radius-3 circle in 2-D: 30 real rows and 60 candidates per class.

    Each candidate proposes the class of its blob; neighbouring blobs overlap.
    """
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    centers = 3.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    real_labels = np.repeat(np.arange(n_classes), 30)
    pool_labels = np.repeat(np.arange(n_classes), 60)
    real = LabeledDataset(FeatureMatrix(centers[real_labels] + rng.normal(size=(real_labels.size, 2))), real_labels, n_classes)
    pool = CandidatePool(FeatureMatrix(centers[pool_labels] + rng.normal(size=(pool_labels.size, 2))), pool_labels, (), n_classes)
    return real, pool


@pytest.fixture()
def blobs():
    """``make_blobs``, for tests that need a pool with more than two classes."""
    return make_blobs


def criterion_10_inputs(M: int, seed: int = 0, n: int = 400, d: int = 64):
    """The cost-profile criterion's pool: ``(real, pool, external_proba)``, n real and M candidate Gaussians in d dimensions.

    Labels are coin flips and the probabilities Dirichlet draws, all independent of the features.
    """
    rng = np.random.default_rng(seed)
    real = LabeledDataset(FeatureMatrix(rng.normal(size=(n, d))), rng.integers(0, 2, n), 2)
    pool = CandidatePool(FeatureMatrix(rng.normal(size=(M, d))), rng.integers(0, 2, M), (), 2)
    return real, pool, (rng.dirichlet(np.ones(2), n), rng.dirichlet(np.ones(2), M))


def valued_columns(values, sim):
    """The (M, u) columns of the (M, M) similarity ``sim`` that ``greedy_select`` reads: those of the valued candidates."""
    return sim[:, np.flatnonzero(values)]


def peak_bytes(fn):
    """``(fn(), peak)``: what ``fn`` returns and the peak of the memory tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
