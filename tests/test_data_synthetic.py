"""Tests for the synthetic dataset generator and the named configurations."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.data import DATASET_CONFIGS, SyntheticConfig, dataset_config, generate_dataset, list_dataset_names
from repro.data.configs import PAPER_TABLE1
from repro.data.synthetic import _draw_weighted, _weighted_cdf


class TestSyntheticConfigValidation:
    def test_defaults_are_valid(self):
        SyntheticConfig()

    def test_rejects_zero_users(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_users=0)

    def test_rejects_fewer_items_than_categories(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_items=5, num_categories=10)

    def test_rejects_bad_scene_size_range(self):
        with pytest.raises(ValueError):
            SyntheticConfig(scene_size_range=(4, 2))

    def test_rejects_scene_size_above_categories(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_categories=3, scene_size_range=(2, 10))

    def test_rejects_bad_scenes_per_user(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_scenes=3, scenes_per_user=10)

    def test_rejects_bad_noise_probability(self):
        with pytest.raises(ValueError):
            SyntheticConfig(noise_click_probability=1.5)

    def test_scaled_shrinks_counts(self):
        config = SyntheticConfig(num_users=100, num_items=1000)
        scaled = config.scaled(0.5)
        assert scaled.num_users == 50
        assert scaled.num_items == 500

    def test_scaled_rejects_non_positive(self):
        with pytest.raises(ValueError):
            SyntheticConfig().scaled(0.0)

    def test_scaled_keeps_minimums(self):
        scaled = SyntheticConfig(num_users=10, num_items=40, num_categories=30).scaled(0.01)
        assert scaled.num_users >= 8
        assert scaled.num_items >= scaled.num_categories


class TestGeneration:
    def test_entity_counts_match_config(self, tiny_config, tiny_dataset):
        assert tiny_dataset.num_users == tiny_config.num_users
        assert tiny_dataset.num_items == tiny_config.num_items
        assert tiny_dataset.num_categories == tiny_config.num_categories
        assert tiny_dataset.num_scenes == tiny_config.num_scenes

    def test_interactions_in_range(self, tiny_dataset):
        assert tiny_dataset.interactions[:, 0].max() < tiny_dataset.num_users
        assert tiny_dataset.interactions[:, 1].max() < tiny_dataset.num_items
        assert tiny_dataset.interactions.min() >= 0

    def test_interactions_are_unique(self, tiny_dataset):
        assert np.unique(tiny_dataset.interactions, axis=0).shape == tiny_dataset.interactions.shape

    def test_every_item_has_one_category(self, tiny_dataset):
        assert tiny_dataset.item_category.shape == (tiny_dataset.num_items,)
        assert tiny_dataset.item_category.max() < tiny_dataset.num_categories

    def test_every_category_has_at_least_one_item(self, tiny_dataset):
        assert set(np.unique(tiny_dataset.item_category)) == set(range(tiny_dataset.num_categories))

    def test_every_scene_has_categories(self, tiny_dataset):
        scenes_with_categories = set(tiny_dataset.scene_category_edges[:, 0].tolist())
        assert scenes_with_categories == set(range(tiny_dataset.num_scenes))

    def test_sessions_generated(self, tiny_config, tiny_dataset):
        assert len(tiny_dataset.sessions) == tiny_config.num_users * tiny_config.sessions_per_user
        assert all(len(session) == tiny_config.session_length for session in tiny_dataset.sessions)

    def test_determinism_same_seed(self, tiny_config):
        first = generate_dataset(tiny_config)
        second = generate_dataset(tiny_config)
        assert np.array_equal(first.interactions, second.interactions)
        assert np.array_equal(first.item_item_edges, second.item_item_edges)
        assert np.array_equal(first.scene_category_edges, second.scene_category_edges)

    def test_different_seed_changes_data(self, tiny_config):
        other = generate_dataset(replace(tiny_config, seed=tiny_config.seed + 1))
        baseline = generate_dataset(tiny_config)
        assert not np.array_equal(other.interactions, baseline.interactions)

    def test_item_item_edges_respect_cap_on_average(self, tiny_config, tiny_dataset):
        # Each item contributes at most top_k outgoing selections, so the total
        # number of edges is bounded by N * top_k and the mean degree by
        # 2 * top_k (an individual hub item may exceed the cap through other
        # items selecting it).
        graph = tiny_dataset.scene_graph()
        degrees = [graph.item_neighbors(i).size for i in range(tiny_dataset.num_items)]
        assert np.mean(degrees) <= 2 * tiny_config.item_top_k

    def test_scene_structure_predicts_interactions(self, tiny_dataset):
        """Users mostly click items whose categories belong to their top scenes.

        This is the property that gives SceneRec its edge; if it breaks, the
        synthetic substitution no longer exercises the paper's effect.
        """
        graph = tiny_dataset.scene_graph()
        per_user = tiny_dataset.user_positive_items()
        in_scene_fraction = []
        for items in per_user:
            if items.size < 2:
                continue
            categories = tiny_dataset.item_category[items]
            scene_sets = [set(graph.category_scenes(int(c)).tolist()) for c in categories]
            # Fraction of item pairs that share at least one scene.
            shared = 0
            total = 0
            for first in range(len(scene_sets)):
                for second in range(first + 1, len(scene_sets)):
                    total += 1
                    if scene_sets[first] & scene_sets[second]:
                        shared += 1
            if total:
                in_scene_fraction.append(shared / total)
        assert np.mean(in_scene_fraction) > 0.4


@pytest.mark.parametrize("size", [1, 2, 5, 40])
def test_cached_cdf_draws_match_generator_choice(size):
    """Drawing through a precomputed CDF is ``Generator.choice(p=...)``, draw for draw.

    The generator's datasets stay byte-identical only if every pick *and*
    the generator state after it match the per-call ``choice``.
    """
    weights = np.random.default_rng(size).dirichlet(np.full(size, 0.5))
    values = np.arange(100, 100 + size, dtype=np.int64)
    cdf = _weighted_cdf(weights)
    cached, reference = np.random.default_rng(7), np.random.default_rng(7)
    picks = [_draw_weighted(values, cdf, cached) for _ in range(5_000)]
    expected = [reference.choice(values, p=weights) for _ in range(5_000)]
    assert picks == expected
    assert cached.bit_generator.state == reference.bit_generator.state


class TestNamedConfigs:
    def test_four_datasets(self):
        assert list_dataset_names() == ["baby_toy", "electronics", "fashion", "food_drink"]

    def test_paper_reference_covers_all(self):
        assert set(PAPER_TABLE1) == set(DATASET_CONFIGS)

    def test_lookup_returns_config(self):
        assert dataset_config("fashion").name == "fashion"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            dataset_config("movies")

    def test_scale_shrinks(self):
        small = dataset_config("electronics", scale=0.25)
        assert small.num_users < dataset_config("electronics").num_users

    def test_relative_scene_richness_matches_paper(self):
        """Fashion has the most scenes per category, Electronics the fewest,
        mirroring the paper's Table 1 structure."""
        ratios = {
            name: DATASET_CONFIGS[name].num_scenes / DATASET_CONFIGS[name].num_categories
            for name in DATASET_CONFIGS
        }
        assert ratios["fashion"] == max(ratios.values())
        assert ratios["electronics"] == min(ratios.values())

    def test_all_configs_generate(self):
        for name in list_dataset_names():
            config = dataset_config(name, scale=0.1)
            dataset = generate_dataset(replace(config, sessions_per_user=2, interactions_per_user=6))
            assert dataset.num_interactions > 0
