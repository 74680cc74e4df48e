"""Tests for top-K recommendation from a trained SceneRec and beyond-accuracy metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation import (
    average_popularity,
    catalog_coverage,
    gini_index,
    intra_list_category_diversity,
    novelty,
)
from repro.models import BPRMF, ItemPop, SceneRec, SceneRecConfig
from repro.serving import RecommendationService
from repro.training import TrainConfig, Trainer


@pytest.fixture(scope="module")
def trained_scenerec(tiny_train_graph, tiny_scene_graph, tiny_split):
    model = SceneRec(
        tiny_train_graph,
        tiny_scene_graph,
        SceneRecConfig(embedding_dim=8, item_item_cap=4, category_category_cap=3, category_scene_cap=3, seed=0),
    )
    Trainer(model, tiny_split, TrainConfig(epochs=2, batch_size=64, eval_every=0)).fit()
    return model


class TestTopKRecommender:
    """A trained SceneRec behind :class:`~repro.serving.RecommendationService`."""

    def test_returns_k_items(self, trained_scenerec, tiny_train_graph, tiny_scene_graph):
        service = RecommendationService(trained_scenerec, tiny_train_graph, tiny_scene_graph)
        recommendations = service.top_k(user=0, k=5)
        assert len(recommendations) == 5

    def test_scores_sorted_descending(self, trained_scenerec, tiny_train_graph):
        service = RecommendationService(trained_scenerec, tiny_train_graph)
        scores = [rec.score for rec in service.top_k(user=1, k=8)]
        assert scores == sorted(scores, reverse=True)

    def test_seen_items_excluded_by_default(self, trained_scenerec, tiny_train_graph):
        service = RecommendationService(trained_scenerec, tiny_train_graph)
        seen = set(tiny_train_graph.user_items(0).tolist())
        recommended = {rec.item for rec in service.top_k(user=0, k=10)}
        assert not recommended & seen

    def test_seen_items_allowed_when_requested(self, tiny_train_graph):
        # ItemPop always ranks the globally most popular items first, so with
        # exclusion disabled a heavy user's seen items can reappear.
        service = RecommendationService(ItemPop(tiny_train_graph), tiny_train_graph)
        user = max(range(tiny_train_graph.num_users), key=tiny_train_graph.user_degree)
        with_seen = {rec.item for rec in service.top_k(user=user, k=10, exclude_seen=False)}
        seen = set(tiny_train_graph.user_items(user).tolist())
        assert with_seen & seen

    def test_categories_annotated_with_scene_graph(self, trained_scenerec, tiny_train_graph, tiny_scene_graph):
        service = RecommendationService(trained_scenerec, tiny_train_graph, tiny_scene_graph)
        for rec in service.top_k(user=2, k=4):
            assert rec.category == tiny_scene_graph.category_of(rec.item)

    def test_explanations_for_scenerec(self, trained_scenerec, tiny_train_graph, tiny_scene_graph):
        service = RecommendationService(trained_scenerec, tiny_train_graph, tiny_scene_graph)
        recommendations = service.top_k(user=0, k=3, explain=True)
        assert all(rec.scene_affinity is not None for rec in recommendations)
        assert all(-1.0 - 1e-9 <= rec.scene_affinity <= 1.0 + 1e-9 for rec in recommendations)

    def test_no_explanations_for_non_scenerec(self, tiny_train_graph, tiny_scene_graph, tiny_split):
        model = BPRMF(tiny_train_graph.num_users, tiny_train_graph.num_items, 8, seed=0)
        service = RecommendationService(model, tiny_train_graph, tiny_scene_graph)
        assert all(rec.scene_affinity is None for rec in service.top_k(user=0, k=3, explain=True))

    def test_score_all_items_shape(self, trained_scenerec, tiny_train_graph):
        service = RecommendationService(trained_scenerec, tiny_train_graph)
        assert service.score_matrix(np.array([0])).shape == (1, tiny_train_graph.num_items)

    def test_batch_interface(self, trained_scenerec, tiny_train_graph):
        service = RecommendationService(trained_scenerec, tiny_train_graph)
        batch = service.recommend_batch([0, 1, 2], k=4)
        assert set(batch) == {0, 1, 2}
        assert all(len(recs) == 4 for recs in batch.values())

    def test_invalid_inputs(self, trained_scenerec, tiny_train_graph, tiny_scene_graph):
        service = RecommendationService(trained_scenerec, tiny_train_graph, tiny_scene_graph)
        with pytest.raises(ValueError):
            service.top_k(user=0, k=0)
        with pytest.raises(IndexError):
            service.top_k(user=10_000, k=3)
        with pytest.raises(IndexError):
            service.score_matrix(np.array([10_000]))

    def test_mismatched_graphs_rejected(self, trained_scenerec, tiny_train_graph):
        from repro.graph import SceneBasedGraph

        wrong = SceneBasedGraph(2, 2, 1, item_category=[0, 1], scene_category_edges=[(0, 0)])
        with pytest.raises(ValueError):
            RecommendationService(trained_scenerec, tiny_train_graph, wrong)


class TestBeyondAccuracyMetrics:
    def test_catalog_coverage(self):
        lists = [[0, 1], [1, 2]]
        assert catalog_coverage(lists, num_items=4) == pytest.approx(3 / 4)

    def test_catalog_coverage_validation(self):
        with pytest.raises(ValueError):
            catalog_coverage([[0]], num_items=0)
        with pytest.raises(ValueError):
            catalog_coverage([], num_items=5)

    def test_average_popularity(self):
        popularity = np.array([10.0, 0.0, 2.0])
        assert average_popularity([[0, 2]], popularity) == pytest.approx(6.0)

    def test_novelty_prefers_long_tail(self):
        popularity = np.array([100.0, 1.0])
        blockbuster = novelty([[0]], popularity)
        long_tail = novelty([[1]], popularity)
        assert long_tail > blockbuster

    def test_novelty_requires_interactions(self):
        with pytest.raises(ValueError):
            novelty([[0]], np.zeros(3))

    def test_intra_list_category_diversity(self):
        item_category = np.array([0, 0, 1, 2])
        assert intra_list_category_diversity([[0, 1]], item_category) == pytest.approx(0.5)
        assert intra_list_category_diversity([[0, 2, 3]], item_category) == pytest.approx(1.0)
        assert intra_list_category_diversity([[0]], item_category) == pytest.approx(1.0)

    def test_gini_extremes(self):
        uniform = gini_index([[i] for i in range(10)], num_items=10)
        concentrated = gini_index([[0]] * 10, num_items=10)
        assert concentrated > uniform
        assert 0.0 <= uniform <= concentrated <= 1.0

    def test_gini_validation(self):
        with pytest.raises(ValueError):
            gini_index([[0]], num_items=0)

    def test_metrics_on_real_service_output(self, tiny_train_graph, tiny_scene_graph):
        service = RecommendationService(ItemPop(tiny_train_graph), tiny_train_graph, tiny_scene_graph)
        lists = [[rec.item for rec in recs] for recs in service.recommend_batch(range(5), k=5).values()]
        popularity = np.array([tiny_train_graph.item_degree(i) for i in range(tiny_train_graph.num_items)], dtype=float)
        assert 0.0 < catalog_coverage(lists, tiny_train_graph.num_items) <= 1.0
        assert average_popularity(lists, popularity) > 0.0
        assert novelty(lists, popularity) > 0.0
        assert 0.0 < intra_list_category_diversity(lists, tiny_scene_graph.item_category) <= 1.0
