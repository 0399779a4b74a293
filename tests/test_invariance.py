"""Selections that a rigid motion of the feature space, or a reordering of the candidates, leaves unchanged.

Inputs are the two-moons bench worlds of seeds 0-2, built by
``bench.moons_world``. Each case transforms both feature sets, holds the
world's external probabilities fixed, selects again with the config seed
equal to the bench seed, and asserts the exact ordered ``selected`` list,
mapped back through the transform.
"""

import numpy as np
import pytest

from libags.bench import moons_world
from libags.data import CandidatePool, FeatureMatrix, LabeledDataset
from libags.model import predict_proba
from libags.pipeline import PipelineConfig, run_selection

SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def worlds():
    """One bench world per seed, with the external probabilities its selection read."""
    config = PipelineConfig()
    built = {}
    for seed in SEEDS:
        world = moons_world(seed, config)
        built[seed] = (world, (predict_proba(world.erm, world.z_train.features), world.proba_pool))
    return built


def select_moved(world, external, seed, move, **config):
    """The ordered selection on the world with ``move`` applied to every feature row."""
    train, pool = world.train, world.pool
    moved_train = LabeledDataset(FeatureMatrix(move(train.features.values)), train.labels, 2)
    moved_pool = CandidatePool(FeatureMatrix(move(pool.features.values)), pool.proposed_labels, pool.source_ids, 2)
    return run_selection(moved_train, moved_pool, PipelineConfig(seed=seed, **config), external_proba=external).selected


@pytest.mark.parametrize("seed", SEEDS)
def test_rotation_keeps_the_selection(worlds, seed):
    world, external = worlds[seed]
    c, s = np.cos(0.7), np.sin(0.7)
    rotation = np.array([[c, -s], [s, c]])
    assert select_moved(world, external, seed, lambda x: x @ rotation) == world.report.selected


@pytest.mark.parametrize("shift", [1e2, 1e4])
@pytest.mark.parametrize("seed", SEEDS)
def test_translation_keeps_the_selection(worlds, seed, shift):
    world, external = worlds[seed]
    assert select_moved(world, external, seed, lambda x: x + shift) == world.report.selected


@pytest.mark.parametrize("seed", SEEDS)
def test_candidate_order_does_not_matter_with_one_region(worlds, seed):
    # Under the default config the k-means++ seeding reads the candidates
    # in order, so a permutation can move the selection; one region has no
    # seeding to move.
    world, (proba_real, proba_pool) = worlds[seed]
    pool, config = world.pool, PipelineConfig(seed=seed, n_regions=1)
    unmoved = run_selection(world.train, pool, config, external_proba=(proba_real, proba_pool)).selected
    order = np.random.default_rng(seed).permutation(pool.n_rows)
    shuffled = CandidatePool(FeatureMatrix(pool.features.values[order]), pool.proposed_labels[order],
                             tuple(pool.source_ids[j] for j in order), 2)
    selected = run_selection(world.train, shuffled, config, external_proba=(proba_real, proba_pool[order])).selected
    assert [int(order[j]) for j in selected] == unmoved
