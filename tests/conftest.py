"""Shared fixtures: tiny datasets, graphs and splits used across the suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.data.configs import dataset_config
from repro.data.schema import SceneRecDataset
from repro.data.splits import leave_one_out_split
from repro.data.synthetic import SyntheticConfig, generate_dataset
from repro.graph.bipartite import UserItemBipartiteGraph
from repro.graph.scene_graph import SceneBasedGraph


@pytest.fixture(scope="session")
def tiny_config() -> SyntheticConfig:
    """A dataset small enough that model construction/training takes < 1 s."""
    return SyntheticConfig(
        name="tiny",
        num_users=24,
        num_items=120,
        num_categories=8,
        num_scenes=5,
        scene_size_range=(2, 4),
        scenes_per_user=2,
        interactions_per_user=14,
        sessions_per_user=3,
        session_length=6,
        item_top_k=10,
        category_top_k=5,
        seed=7,
    )


@pytest.fixture(scope="session")
def tiny_dataset(tiny_config: SyntheticConfig) -> SceneRecDataset:
    return generate_dataset(tiny_config)


@pytest.fixture(scope="session")
def tiny_split(tiny_dataset: SceneRecDataset):
    return leave_one_out_split(tiny_dataset, num_negatives=20, rng=3)


@pytest.fixture(scope="session")
def tiny_train_graph(tiny_dataset: SceneRecDataset, tiny_split) -> UserItemBipartiteGraph:
    return tiny_dataset.bipartite_graph(tiny_split.train_interactions)


@pytest.fixture(scope="session")
def tiny_scene_graph(tiny_dataset: SceneRecDataset) -> SceneBasedGraph:
    return tiny_dataset.scene_graph()


@pytest.fixture(scope="session")
def electronics_config() -> SyntheticConfig:
    """A heavily shrunk version of the named 'electronics' configuration."""
    return replace(
        dataset_config("electronics"),
        num_users=30,
        num_items=200,
        interactions_per_user=16,
        sessions_per_user=3,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def count_item_rows():
    """Wrap one SceneRec instance's ``item_representation`` to count encoded item rows.

    ``count_item_rows(model)`` returns a one-element list whose entry grows by
    the rows of every later call; only this instance's attribute is replaced.
    """

    def wrap(model) -> list[int]:
        rows = [0]
        encode = model.item_representation

        def item_representation(items):
            rows[0] += int(np.size(items))
            return encode(items)

        model.item_representation = item_representation
        return rows

    return wrap


@pytest.fixture
def toy_bipartite() -> UserItemBipartiteGraph:
    """A hand-written 3-user / 5-item bipartite graph with known structure."""
    interactions = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 3), (2, 0), (2, 4)]
    return UserItemBipartiteGraph(num_users=3, num_items=5, interactions=interactions)


@pytest.fixture
def toy_scene_graph() -> SceneBasedGraph:
    """The Figure-1-style toy hierarchy: 5 items, 5 categories, 2 scenes."""
    return SceneBasedGraph(
        num_items=5,
        num_categories=5,
        num_scenes=2,
        item_category=[0, 1, 2, 3, 4],
        item_item_edges=[(0, 1), (1, 2), (3, 4)],
        category_category_edges=[(0, 1), (1, 2), (2, 3), (3, 4)],
        scene_category_edges=[(0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (1, 4)],
    )
