"""Tests for the full-catalogue ranking evaluator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation import FullRankingEvaluator, RankingEvaluator
from repro.evaluation.metrics import rank_of_positive
from repro.models import BPRMF, ItemPop, RandomRecommender, SceneRec, SceneRecConfig
from repro.training import TrainConfig, Trainer


class _OracleModel:
    """Scores the held-out positives of a split above everything else."""

    training = False

    def __init__(self, positives: set[tuple[int, int]]):
        self._positives = positives

    def score(self, users, items):
        return np.array(
            [1.0 if (int(u), int(i)) in self._positives else 0.0 for u, i in zip(users, items)]
        )


class TestFullRankingEvaluator:
    def test_oracle_gets_perfect_metrics(self, tiny_split):
        oracle = _OracleModel({(inst.user, inst.positive_item) for inst in tiny_split.test})
        result = FullRankingEvaluator(tiny_split, k=10).evaluate(oracle)
        assert result.ndcg == pytest.approx(1.0)
        assert result.hit_ratio == pytest.approx(1.0)

    def test_random_model_is_poor(self, tiny_split):
        result = FullRankingEvaluator(tiny_split, k=10).evaluate(RandomRecommender(seed=0))
        # With ~120 items and k=10 the chance level is roughly 10/120.
        assert result.hit_ratio < 0.5

    def test_num_users_matches_split(self, tiny_split):
        result = FullRankingEvaluator(tiny_split, k=10).evaluate(RandomRecommender(seed=0))
        assert result.num_users == len(tiny_split.test)

    def test_validation_instances_selectable(self, tiny_split):
        result = FullRankingEvaluator(tiny_split, which="validation", k=10).evaluate(RandomRecommender(seed=0))
        assert result.num_users == len(tiny_split.validation)

    def test_item_batching_does_not_change_result(self, tiny_split, tiny_train_graph):
        model = ItemPop(tiny_train_graph)
        small = FullRankingEvaluator(tiny_split, k=10).evaluate(model, item_batch=7)
        large = FullRankingEvaluator(tiny_split, k=10).evaluate(model, item_batch=10_000)
        assert np.array_equal(small.ranks, large.ranks)

    def test_full_ranking_is_harder_than_sampled(self, tiny_split, tiny_train_graph):
        """Ranking against the full catalogue can only add competitors."""
        model = BPRMF(tiny_train_graph.num_users, tiny_train_graph.num_items, embedding_dim=8, seed=0)
        Trainer(model, tiny_split, TrainConfig(epochs=3, batch_size=64, learning_rate=0.05, eval_every=0)).fit()
        sampled = RankingEvaluator(tiny_split.test, k=10).evaluate(model)
        full = FullRankingEvaluator(tiny_split, k=10).evaluate(model)
        assert full.hit_ratio <= sampled.hit_ratio + 1e-9

    def test_training_items_excluded_by_default(self, tiny_split, tiny_train_graph):
        # ItemPop ranks popular (training-heavy) items first; excluding the
        # user's own training items can only improve the positive's rank.
        model = ItemPop(tiny_train_graph)
        with_exclusion = FullRankingEvaluator(tiny_split, k=10, exclude_training_items=True).evaluate(model)
        without_exclusion = FullRankingEvaluator(tiny_split, k=10, exclude_training_items=False).evaluate(model)
        assert np.all(with_exclusion.ranks <= without_exclusion.ranks)

    def test_invalid_arguments(self, tiny_split):
        with pytest.raises(ValueError):
            FullRankingEvaluator(tiny_split, k=0)
        with pytest.raises(ValueError):
            FullRankingEvaluator(tiny_split, which="train")
        with pytest.raises(ValueError):
            FullRankingEvaluator(tiny_split, k=10).evaluate(RandomRecommender(seed=0), item_batch=0)


class TestSceneRecEvaluation:
    """Both evaluators score SceneRec from one catalogue snapshot per ``evaluate()``."""

    @staticmethod
    def _model(tiny_train_graph, tiny_scene_graph):
        model = SceneRec(
            tiny_train_graph,
            tiny_scene_graph,
            SceneRecConfig(embedding_dim=8, item_item_cap=4, category_category_cap=3, category_scene_cap=3, seed=0),
        )
        model.eval()
        return model

    @staticmethod
    def _pairwise_scores(model, user, items):
        return np.asarray(model.score(np.full(items.size, user), items), dtype=np.float64)

    def test_evaluators_encode_the_catalogue_once_per_call(
        self, tiny_split, tiny_train_graph, tiny_scene_graph, count_item_rows
    ):
        model = self._model(tiny_train_graph, tiny_scene_graph)
        rows = count_item_rows(model)
        chunk = 4
        assert len(tiny_split.test) > 2 * chunk  # several chunks per call
        sampled = RankingEvaluator(tiny_split.test, k=10).evaluate(model, batch_users=chunk)
        assert rows[0] == tiny_train_graph.num_items
        full = FullRankingEvaluator(tiny_split, k=10).evaluate(model, user_batch=chunk)
        assert rows[0] == 2 * tiny_train_graph.num_items

        all_items = np.arange(tiny_train_graph.num_items)
        train_items = tiny_split.train_user_items()
        sampled_ranks, full_ranks = [], []
        for instance in tiny_split.test:
            candidate_scores = self._pairwise_scores(model, instance.user, instance.candidates())
            sampled_ranks.append(rank_of_positive(candidate_scores[0], candidate_scores[1:]))
            scores = self._pairwise_scores(model, instance.user, all_items)
            competitors = np.ones(all_items.size, dtype=bool)
            competitors[instance.positive_item] = False
            competitors[train_items[instance.user]] = False
            full_ranks.append(rank_of_positive(scores[instance.positive_item], scores[competitors]))
        np.testing.assert_array_equal(sampled.ranks, sampled_ranks)
        np.testing.assert_array_equal(full.ranks, full_ranks)
