"""Tests for the ``repro.serving`` subsystem.

The key invariant: the vectorized batch top-K of
:class:`~repro.serving.RecommendationService` must rank exactly like a
stable full sort of the pairwise scores — for factorized models (cache +
matmul path), SceneRec (cache + frozen rating head) and fallback models
alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.index import PAD_ID, ExactIndex, IVFIndex, LSHIndex
from repro.models import MODEL_REGISTRY, SceneRec, SceneRecConfig, build_model
from repro.serving import (
    CategoryAllowlistFilter,
    ExcludeItemsFilter,
    ExcludeSeenFilter,
    ItemRepresentationCache,
    RecommendRequest,
    RecommendResponse,
    Recommendation,
    RecommendationService,
    SceneAffinityExplainer,
    SceneAllowlistFilter,
    batch_top_k,
)
from repro.training import TrainConfig, Trainer


@pytest.fixture(scope="module")
def bpr_service(tiny_train_graph, tiny_scene_graph):
    model = build_model("BPR-MF", tiny_train_graph, tiny_scene_graph, embedding_dim=8, seed=0)
    return RecommendationService(model, tiny_train_graph, tiny_scene_graph)


@pytest.fixture(scope="module")
def scenerec_service(tiny_train_graph, tiny_scene_graph, tiny_split):
    model = SceneRec(
        tiny_train_graph,
        tiny_scene_graph,
        SceneRecConfig(embedding_dim=8, item_item_cap=4, category_category_cap=3, category_scene_cap=3, seed=0),
    )
    Trainer(model, tiny_split, TrainConfig(epochs=1, batch_size=64, eval_every=0)).fit()
    return RecommendationService(model, tiny_train_graph, tiny_scene_graph)


def _reference_top_k(model, graph, user, k, exclude_seen=True):
    """The seed TopKRecommender algorithm: full stable argsort + seen skip."""
    num_items = graph.num_items
    scores = np.asarray(
        model.score(np.full(num_items, user, dtype=np.int64), np.arange(num_items, dtype=np.int64))
    )
    seen = set(graph.user_items(user).tolist()) if exclude_seen else set()
    ranked = [int(i) for i in np.argsort(-scores, kind="stable") if int(i) not in seen]
    return ranked[:k]


class TestBatchTopK:
    def test_matches_stable_argsort(self, rng):
        scores = rng.random((6, 50))
        allowed = rng.random((6, 50)) > 0.3
        for row, items in enumerate(batch_top_k(scores, allowed, k=10)):
            reference = [i for i in np.argsort(-scores[row], kind="stable") if allowed[row, i]][:10]
            np.testing.assert_array_equal(items, reference)

    def test_breaks_ties_by_item_id(self):
        scores = np.array([[1.0, 2.0, 2.0, 2.0, 0.5]])
        allowed = np.ones((1, 5), dtype=bool)
        np.testing.assert_array_equal(batch_top_k(scores, allowed, k=2)[0], [1, 2])

    def test_fewer_allowed_than_k(self):
        scores = np.array([[3.0, 1.0, 2.0]])
        allowed = np.array([[True, False, True]])
        np.testing.assert_array_equal(batch_top_k(scores, allowed, k=10)[0], [0, 2])

    def test_nothing_allowed(self):
        result = batch_top_k(np.ones((1, 4)), np.zeros((1, 4), dtype=bool), k=3)
        assert result[0].size == 0

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            batch_top_k(np.ones((1, 3)), np.ones((1, 3), dtype=bool), k=0)
        with pytest.raises(ValueError):
            batch_top_k(np.ones((1, 3)), np.ones((2, 3), dtype=bool), k=1)


class TestRecommendationServiceParity:
    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_batch_top_k_matches_per_user_reference(self, name, tiny_train_graph, tiny_scene_graph):
        """Acceptance criterion: the service ranks exactly like the pairwise path."""
        model = build_model(name, tiny_train_graph, tiny_scene_graph, embedding_dim=8, seed=0)
        if hasattr(model, "eval"):
            model.eval()
        service = RecommendationService(model, tiny_train_graph, tiny_scene_graph)
        users = (0, 3, 9)
        response = service.recommend(RecommendRequest(users=users, k=7))
        for user, items in zip(users, response.results):
            expected = _reference_top_k(model, tiny_train_graph, user, k=7)
            assert [rec.item for rec in items] == expected

    def test_include_seen_parity(self, bpr_service, tiny_train_graph):
        user = 2
        got = [rec.item for rec in bpr_service.top_k(user, k=6, exclude_seen=False)]
        assert got == _reference_top_k(bpr_service.model, tiny_train_graph, user, k=6, exclude_seen=False)


class TestRecommendationService:
    def test_scores_sorted_descending(self, bpr_service):
        scores = [rec.score for rec in bpr_service.top_k(1, k=8)]
        assert scores == sorted(scores, reverse=True)

    def test_seen_items_excluded_by_default(self, bpr_service, tiny_train_graph):
        seen = set(tiny_train_graph.user_items(0).tolist())
        recommended = {rec.item for rec in bpr_service.top_k(0, k=10)}
        assert not recommended & seen

    def test_categories_annotated(self, bpr_service, tiny_scene_graph):
        for rec in bpr_service.top_k(2, k=4):
            assert rec.category == tiny_scene_graph.category_of(rec.item)

    def test_response_alignment_and_accessors(self, bpr_service):
        response = bpr_service.recommend(RecommendRequest(users=(4, 1), k=3))
        assert response.users == (4, 1)
        assert response.for_user(1) == response.results[1]
        assert set(response.as_dict()) == {4, 1}
        assert response.item_lists() == [[rec.item for rec in items] for items in response.results]
        with pytest.raises(KeyError):
            response.for_user(23)

    def test_invalid_requests(self, bpr_service):
        with pytest.raises(ValueError):
            RecommendRequest(users=(), k=3)
        with pytest.raises(ValueError):
            RecommendRequest(users=(0,), k=0)
        with pytest.raises(IndexError):
            bpr_service.top_k(10_000, k=3)

    def test_mismatched_graphs_rejected(self, bpr_service, tiny_train_graph):
        from repro.graph import SceneBasedGraph

        wrong = SceneBasedGraph(2, 2, 1, item_category=[0, 1], scene_category_edges=[(0, 0)])
        with pytest.raises(ValueError):
            RecommendationService(bpr_service.model, tiny_train_graph, wrong)

    def test_recommend_batch_passes_options_through(self, tiny_train_graph, tiny_scene_graph):
        """Regression: the seed top-K wrapper dropped exclude_seen/explain in batch mode."""
        from repro.models import ItemPop

        service = RecommendationService(ItemPop(tiny_train_graph), tiny_train_graph, tiny_scene_graph)
        heavy_user = max(range(tiny_train_graph.num_users), key=tiny_train_graph.user_degree)
        seen = set(tiny_train_graph.user_items(heavy_user).tolist())
        with_seen = service.recommend_batch([heavy_user], k=10, exclude_seen=False)
        without_seen = service.recommend_batch([heavy_user], k=10)
        assert {rec.item for rec in with_seen[heavy_user]} & seen
        assert not {rec.item for rec in without_seen[heavy_user]} & seen

    def test_recommend_batch_explain_passes_through(self, scenerec_service):
        batch = scenerec_service.recommend_batch([0, 1], k=3, explain=True)
        assert all(rec.scene_affinity is not None for recs in batch.values() for rec in recs)

    def test_recommend_batch_empty_users_returns_empty_dict(self, tiny_train_graph, tiny_scene_graph):
        """An empty user list yields {}, not an error."""
        from repro.models import ItemPop

        service = RecommendationService(ItemPop(tiny_train_graph), tiny_train_graph)
        assert service.recommend_batch([]) == {}

    def test_score_matrix_shape_and_parity(self, bpr_service, tiny_train_graph):
        users = np.array([0, 5])
        matrix = bpr_service.score_matrix(users)
        assert matrix.shape == (2, tiny_train_graph.num_items)
        model = bpr_service.model
        all_items = np.arange(tiny_train_graph.num_items)
        for row, user in enumerate(users):
            # The default serving snapshot is float32, so parity with the
            # float64 live model holds to float32 resolution.
            np.testing.assert_allclose(
                matrix[row],
                model.score(np.full(all_items.size, user), all_items),
                rtol=1e-5,
                atol=1e-5,
            )

    def test_float64_service_matches_live_model_bit_tight(self, bpr_service, tiny_train_graph):
        """dtype="float64" restores the pre-quantization exactness contract."""
        service = RecommendationService(
            bpr_service.model, tiny_train_graph, dtype="float64"
        )
        users = np.array([0, 5])
        matrix = service.score_matrix(users)
        model = service.model
        all_items = np.arange(tiny_train_graph.num_items)
        for row, user in enumerate(users):
            np.testing.assert_allclose(
                matrix[row], model.score(np.full(all_items.size, user), all_items), atol=1e-9
            )


class TestFilters:
    def test_category_allowlist(self, bpr_service, tiny_scene_graph):
        categories = {0, 1}
        recs = bpr_service.top_k(0, k=10, filters=[CategoryAllowlistFilter(tiny_scene_graph, categories)])
        assert recs and all(rec.category in categories for rec in recs)

    def test_scene_allowlist(self, bpr_service, tiny_scene_graph):
        scenes = {0}
        recs = bpr_service.top_k(0, k=10, filters=[SceneAllowlistFilter(tiny_scene_graph, scenes)])
        assert recs
        for rec in recs:
            assert 0 in tiny_scene_graph.item_scenes(rec.item).tolist()

    def test_exclude_items(self, bpr_service, tiny_train_graph):
        banned = {rec.item for rec in bpr_service.top_k(0, k=3)}
        recs = bpr_service.top_k(
            0, k=5, filters=[ExcludeItemsFilter(banned, tiny_train_graph.num_items)]
        )
        assert banned.isdisjoint(rec.item for rec in recs)

    def test_base_filters_apply_to_every_request(self, tiny_train_graph, tiny_scene_graph):
        model = build_model("ItemPop", tiny_train_graph, tiny_scene_graph, embedding_dim=8, seed=0)
        banned = ExcludeItemsFilter([0, 1, 2], tiny_train_graph.num_items)
        service = RecommendationService(model, tiny_train_graph, tiny_scene_graph, base_filters=[banned])
        for items in service.recommend(RecommendRequest(users=(0, 1), k=10)).results:
            assert {0, 1, 2}.isdisjoint(rec.item for rec in items)

    def test_exclude_seen_filter_standalone(self, tiny_train_graph):
        users = np.array([0, 1])
        allowed = np.ones((2, tiny_train_graph.num_items), dtype=bool)
        ExcludeSeenFilter(tiny_train_graph).apply(users, allowed)
        assert not allowed[0, tiny_train_graph.user_items(0)].any()
        assert not allowed[1, tiny_train_graph.user_items(1)].any()

    def test_filter_validation(self, tiny_scene_graph):
        with pytest.raises(ValueError):
            CategoryAllowlistFilter(tiny_scene_graph, [])
        with pytest.raises(ValueError):
            SceneAllowlistFilter(tiny_scene_graph, [])
        with pytest.raises(ValueError):
            ExcludeItemsFilter([0], num_items=0)
        # Out-of-range ids are rejected rather than wrapping via negative indexing.
        with pytest.raises(ValueError):
            ExcludeItemsFilter([-1], num_items=10)
        with pytest.raises(ValueError):
            ExcludeItemsFilter([10], num_items=10)
        # A mask built for the wrong catalogue is rejected at apply time.
        mismatched = ExcludeItemsFilter([0], num_items=3)
        with pytest.raises(ValueError):
            mismatched.apply(np.array([0]), np.ones((1, 5), dtype=bool))


class TestBatchTopKFastPath:
    """The satellite invariant: the all-allowed matrix fast path must return
    exactly what the per-row masked loop returns."""

    def test_fast_path_matches_stable_argsort_with_ties(self, rng):
        scores = rng.integers(0, 4, size=(8, 60)).astype(np.float64)
        for row, items in enumerate(batch_top_k(scores, np.ones(scores.shape, dtype=bool), k=12)):
            np.testing.assert_array_equal(items, np.argsort(-scores[row], kind="stable")[:12])

    def test_fast_path_identical_to_masked_loop(self, rng):
        scores = rng.integers(0, 5, size=(6, 40)).astype(np.float64)
        fast = batch_top_k(scores, np.ones(scores.shape, dtype=bool), k=9)
        # Appending one disallowed phantom item forces the masked per-row
        # fallback without changing any answer — both paths must agree.
        padded_scores = np.hstack([scores, np.full((scores.shape[0], 1), 1e9)])
        padded_allowed = np.ones(padded_scores.shape, dtype=bool)
        padded_allowed[:, -1] = False
        slow = batch_top_k(padded_scores, padded_allowed, k=9)
        for fast_row, slow_row in zip(fast, slow):
            np.testing.assert_array_equal(fast_row, slow_row)

    def test_fast_path_k_exceeding_catalogue(self):
        scores = np.array([[2.0, 1.0, 3.0]])
        np.testing.assert_array_equal(
            batch_top_k(scores, np.ones((1, 3), dtype=bool), k=10)[0], [2, 0, 1]
        )


class TestServiceCandidateRetrieval:
    @pytest.fixture()
    def model(self, tiny_train_graph, tiny_scene_graph):
        return build_model("BPR-MF", tiny_train_graph, tiny_scene_graph, embedding_dim=8, seed=1)

    @pytest.fixture()
    def plain_service(self, model, tiny_train_graph, tiny_scene_graph):
        return RecommendationService(model, tiny_train_graph, tiny_scene_graph)

    @pytest.fixture()
    def exact_service(self, model, tiny_train_graph, tiny_scene_graph):
        return RecommendationService(
            model,
            tiny_train_graph,
            tiny_scene_graph,
            index=ExactIndex(),
            candidate_k=tiny_train_graph.num_items,
        )

    def test_exact_index_is_byte_identical_to_full_path(self, plain_service, exact_service):
        """Acceptance criterion: ExactIndex + full candidate budget reproduces
        the full-catalogue ranking exactly — items AND scores."""
        request = RecommendRequest(users=tuple(range(12)), k=10)
        full = plain_service.recommend(request)
        candidate = exact_service.recommend(request)
        assert full.users == candidate.users
        for full_items, candidate_items in zip(full.results, candidate.results):
            assert [rec.item for rec in full_items] == [rec.item for rec in candidate_items]
            # Scores agree to the last few ulps (the candidate path sums the
            # dot products in gather order rather than BLAS-matmul order).
            np.testing.assert_allclose(
                [rec.score for rec in full_items],
                [rec.score for rec in candidate_items],
                rtol=1e-12,
                atol=0,
            )
            assert [rec.category for rec in full_items] == [rec.category for rec in candidate_items]

    def test_exact_index_parity_with_filters(self, plain_service, exact_service, tiny_scene_graph):
        request = RecommendRequest(
            users=(1, 4, 7),
            k=6,
            exclude_seen=True,
            filters=(CategoryAllowlistFilter(tiny_scene_graph, [0, 1, 2, 3]),),
        )
        full = plain_service.recommend(request)
        candidate = exact_service.recommend(request)
        assert full.item_lists() == candidate.item_lists()

    def test_cosine_index_rescores_by_true_model_score(self, model, tiny_train_graph, tiny_scene_graph):
        # A cosine index retrieves by angle, but the served ranking must be by
        # the model's dot score: with a full candidate budget (every item
        # retrieved) the exact-rescore branch must reproduce the full path.
        service = RecommendationService(
            model,
            tiny_train_graph,
            tiny_scene_graph,
            index=ExactIndex(metric="cosine"),
            candidate_k=tiny_train_graph.num_items,
        )
        full = RecommendationService(model, tiny_train_graph, tiny_scene_graph)
        request = RecommendRequest(users=(0, 3, 6), k=7)
        assert service.recommend(request).item_lists() == full.recommend(request).item_lists()

    def test_string_backend_resolution(self, model, tiny_train_graph, tiny_scene_graph):
        for name, cls in (("exact", ExactIndex), ("ivf", IVFIndex), ("lsh", LSHIndex)):
            service = RecommendationService(model, tiny_train_graph, tiny_scene_graph, index=name)
            assert isinstance(service.index, cls)

    def test_recommendations_come_from_retrieved_candidates(self, model, tiny_train_graph, tiny_scene_graph):
        service = RecommendationService(
            model, tiny_train_graph, tiny_scene_graph, index=IVFIndex(nlist=6, nprobe=2, seed=0)
        )
        users = np.array([0, 2, 5])
        candidate_ids, _ = service.retrieve(users, 30)
        response = service.recommend(
            RecommendRequest(users=tuple(users), k=10, candidate_k=30)
        )
        for row, items in enumerate(response.item_lists()):
            retrieved = set(candidate_ids[row][candidate_ids[row] != PAD_ID].tolist())
            assert set(items) <= retrieved

    def test_request_candidate_k_overrides_service_default(self, model, tiny_train_graph, tiny_scene_graph):
        service = RecommendationService(
            model, tiny_train_graph, tiny_scene_graph, index=ExactIndex(), candidate_k=5
        )
        # Budget 5 with exclude_seen can leave fewer than k items...
        narrow = service.recommend(RecommendRequest(users=(0,), k=5))
        # ...while a per-request full budget always fills the list.
        wide = service.recommend(
            RecommendRequest(users=(0,), k=5, candidate_k=tiny_train_graph.num_items)
        )
        assert len(wide.results[0]) == 5
        assert len(narrow.results[0]) <= len(wide.results[0])
        assert service._effective_candidate_k(RecommendRequest(users=(0,), k=5)) == 5

    def test_candidate_k_validation(self, exact_service):
        with pytest.raises(ValueError, match="candidate_k"):
            RecommendRequest(users=(0,), k=10, candidate_k=5)
        with pytest.raises(ValueError, match="candidate_k"):
            RecommendationService(
                exact_service.model, exact_service.bipartite, index=ExactIndex(), candidate_k=0
            )

    def test_non_factorized_model_rejected(self, tiny_train_graph, tiny_scene_graph):
        model = build_model("ItemKNN", tiny_train_graph, tiny_scene_graph, embedding_dim=8, seed=0)
        with pytest.raises(TypeError, match="FactorizedRecommender"):
            RecommendationService(model, tiny_train_graph, tiny_scene_graph, index="exact")

    def test_retrieve_requires_an_index(self, plain_service):
        with pytest.raises(RuntimeError, match="no candidate-retrieval index"):
            plain_service.retrieve(np.array([0]), 10)

    def test_refresh_rebuilds_index_after_inplace_update(self, tiny_train_graph, tiny_scene_graph):
        """Satellite invariant: an in-place embedding update leaves cache AND
        index stale together; refresh() restores parity with a fresh pipeline."""
        model = build_model("BPR-MF", tiny_train_graph, tiny_scene_graph, embedding_dim=8, seed=2)
        service = RecommendationService(
            model,
            tiny_train_graph,
            tiny_scene_graph,
            index=ExactIndex(),
            candidate_k=tiny_train_graph.num_items,
        )
        request = RecommendRequest(users=(0, 1, 2), k=8)
        before = service.recommend(request)
        # A sparse-optimizer-style in-place mutation of the item table.
        rng = np.random.default_rng(0)
        model.item_embedding.weight.data += rng.normal(size=model.item_embedding.weight.data.shape)
        # Cache and index are both snapshots: results must NOT move yet.
        assert service.recommend(request).item_lists() == before.item_lists()
        service.refresh()
        refreshed = service.recommend(request)
        fresh_service = RecommendationService(
            model,
            tiny_train_graph,
            tiny_scene_graph,
            index=ExactIndex(),
            candidate_k=tiny_train_graph.num_items,
        )
        fresh = fresh_service.recommend(request)
        assert refreshed.item_lists() == fresh.item_lists()
        for refreshed_items, fresh_items in zip(refreshed.results, fresh.results):
            assert [rec.score for rec in refreshed_items] == [rec.score for rec in fresh_items]
        assert refreshed.item_lists() != before.item_lists()

    def test_cache_refresh_notifies_subscribers(self, model):
        cache = ItemRepresentationCache(model)
        calls = []
        cache.subscribe(lambda: calls.append(True))
        with pytest.raises(TypeError):
            cache.subscribe("not callable")
        cache.refresh()
        cache.refresh()
        assert len(calls) == 2


class TestOnlineUpdatesAndMonitoring:
    """The PR-4 invariants: row-level updates flow cache → index → oracle
    without a rebuild, deletions stick everywhere, and the recall monitor
    measures served traffic against the exact oracle."""

    @pytest.fixture()
    def model(self, tiny_train_graph, tiny_scene_graph):
        return build_model("BPR-MF", tiny_train_graph, tiny_scene_graph, embedding_dim=8, seed=3)

    def _exact_service(self, model, graph, scene, **kwargs):
        return RecommendationService(
            model, graph, scene, index=ExactIndex(), candidate_k=graph.num_items, **kwargs
        )

    def test_refresh_items_matches_fresh_pipeline_without_rebuild(
        self, model, tiny_train_graph, tiny_scene_graph
    ):
        service = self._exact_service(model, tiny_train_graph, tiny_scene_graph)
        request = RecommendRequest(users=(0, 1, 2), k=8)
        service.recommend(request)  # warm cache + index
        build_calls = []
        original_build = service.index.build

        def counting_build(*args, **kwargs):
            build_calls.append(True)
            return original_build(*args, **kwargs)

        service.index.build = counting_build
        touched = np.array([4, 9, 57])
        rng = np.random.default_rng(1)
        model.item_embedding.weight.data[touched] += rng.normal(size=(3, 8))
        service.refresh_items(touched)
        refreshed = service.recommend(request)
        assert not build_calls, "refresh_items must not rebuild the index"
        fresh = self._exact_service(model, tiny_train_graph, tiny_scene_graph)
        fresh_response = fresh.recommend(request)
        assert refreshed.item_lists() == fresh_response.item_lists()
        for got, want in zip(refreshed.results, fresh_response.results):
            np.testing.assert_allclose(
                [rec.score for rec in got], [rec.score for rec in want], rtol=1e-12
            )

    def test_refresh_items_with_explicit_rows(self, model, tiny_train_graph, tiny_scene_graph):
        service = self._exact_service(model, tiny_train_graph, tiny_scene_graph)
        representations = service._cache.get()
        boost = np.asarray(representations.users[0], dtype=np.float64) * 10.0
        kwargs = {} if representations.item_biases is None else {"item_biases": [100.0]}
        service.refresh_items([33], items=boost[None, :], **kwargs)
        top = service.top_k(0, k=1, exclude_seen=False)
        assert top[0].item == 33

    def test_refresh_items_falls_back_to_full_refresh_for_propagation_models(
        self, tiny_train_graph, tiny_scene_graph
    ):
        """Regression: LightGCN spreads an item update across neighbours and
        users, so a row-level patch would corrupt the snapshot — the cache
        must detect the spill-over and refresh fully instead."""
        model = build_model("LightGCN", tiny_train_graph, tiny_scene_graph, embedding_dim=8, seed=5)
        service = self._exact_service(model, tiny_train_graph, tiny_scene_graph)
        request = RecommendRequest(users=(0, 1, 2, 3, 4), k=8)
        service.recommend(request)  # warm
        touched = np.array([3, 7])
        rng = np.random.default_rng(6)
        # LightGCN keeps one joint (users + items) table; item rows are offset.
        model.embedding.weight.data[tiny_train_graph.num_users + touched] += rng.normal(size=(2, 8))
        service.refresh_items(touched)
        fresh = self._exact_service(model, tiny_train_graph, tiny_scene_graph)
        assert service.recommend(request).item_lists() == fresh.recommend(request).item_lists()

    def test_refresh_items_drops_the_explanation_cache(
        self, model, tiny_train_graph, tiny_scene_graph
    ):
        """Regression: explanations derive from the same model state, so a
        row-level refresh must invalidate them like refresh() does."""
        service = self._exact_service(model, tiny_train_graph, tiny_scene_graph)
        service.recommend(RecommendRequest(users=(0,), k=3))
        refreshes = []
        original = service._explainer.refresh
        service._explainer.refresh = lambda: (refreshes.append(True), original())[1]
        service.refresh_items([4])
        assert refreshes, "refresh_items left the explainer cache warm"

    def test_refresh_items_validation(self, model, tiny_train_graph, tiny_scene_graph):
        service = self._exact_service(model, tiny_train_graph, tiny_scene_graph)
        with pytest.raises(IndexError):
            service.refresh_items([tiny_train_graph.num_items])
        service.recommend(RecommendRequest(users=(0,), k=3))
        service.delete_items([5])
        with pytest.raises(KeyError, match="deleted"):
            service.refresh_items([5])

    def test_delete_items_on_index_and_full_path(self, model, tiny_train_graph, tiny_scene_graph):
        indexed = self._exact_service(model, tiny_train_graph, tiny_scene_graph)
        plain = RecommendationService(model, tiny_train_graph, tiny_scene_graph)
        victims = [rec.item for rec in plain.top_k(2, k=3)]
        for service in (indexed, plain):
            service.delete_items(victims)
            survivors = {rec.item for rec in service.top_k(2, k=10)}
            assert not survivors & set(victims)
        # parity between the two paths after identical deletions
        request = RecommendRequest(users=(2, 5), k=6)
        assert indexed.recommend(request).item_lists() == plain.recommend(request).item_lists()
        with pytest.raises(KeyError, match="already deleted"):
            indexed.delete_items(victims[:1])
        with pytest.raises(IndexError):
            plain.delete_items([tiny_train_graph.num_items])

    def test_deletions_survive_a_full_refresh_rebuild(self, model, tiny_train_graph, tiny_scene_graph):
        service = self._exact_service(model, tiny_train_graph, tiny_scene_graph)
        victims = [rec.item for rec in service.top_k(1, k=2)]
        service.delete_items(victims)
        service.refresh()  # index rebuilt lazily from scratch on next use
        assert not {rec.item for rec in service.top_k(1, k=10)} & set(victims)
        assert service.index.num_active == tiny_train_graph.num_items - len(victims)

    def test_monitor_requires_an_index(self, model, tiny_train_graph, tiny_scene_graph):
        from repro.index import RecallMonitor

        with pytest.raises(ValueError, match="monitor"):
            RecommendationService(
                model, tiny_train_graph, tiny_scene_graph, monitor=RecallMonitor()
            )

    def test_monitor_reports_perfect_recall_for_exact_index(
        self, model, tiny_train_graph, tiny_scene_graph
    ):
        from repro.index import RecallMonitor

        monitor = RecallMonitor(sample_rate=1.0, window=32, max_users_per_request=4, seed=0)
        service = self._exact_service(
            model, tiny_train_graph, tiny_scene_graph, monitor=monitor
        )
        service.recommend(RecommendRequest(users=tuple(range(10)), k=5))
        stats = service.stats()
        assert stats.monitor.sampled_requests == 1
        assert stats.monitor.sampled_users == 4
        assert stats.monitor.recall_at_k == 1.0
        assert stats.monitor.candidate_hit_rate == 1.0

    def test_monitor_tracks_partial_updates_and_deletes(
        self, model, tiny_train_graph, tiny_scene_graph
    ):
        from repro.index import RecallMonitor

        monitor = RecallMonitor(sample_rate=1.0, window=64, max_users_per_request=8, seed=1)
        service = self._exact_service(
            model, tiny_train_graph, tiny_scene_graph, monitor=monitor
        )
        request = RecommendRequest(users=tuple(range(8)), k=5)
        service.recommend(request)
        touched = np.array([3, 11])
        rng = np.random.default_rng(2)
        model.item_embedding.weight.data[touched] += rng.normal(size=(2, 8))
        service.refresh_items(touched)
        service.delete_items([40, 41])
        service.recommend(request)
        stats = service.stats().monitor
        # The oracle mirrored every mutation, so ExactIndex recall stays 1.
        assert stats.recall_at_k == 1.0
        assert monitor.exact.num_active == tiny_train_graph.num_items - 2

    def test_monitor_sampling_rate_zero_observes_nothing(
        self, model, tiny_train_graph, tiny_scene_graph
    ):
        from repro.index import RecallMonitor

        monitor = RecallMonitor(sample_rate=0.0, seed=0)
        service = self._exact_service(
            model, tiny_train_graph, tiny_scene_graph, monitor=monitor
        )
        service.recommend(RecommendRequest(users=(0, 1), k=3))
        stats = service.stats().monitor
        assert stats.sampled_requests == 0 and stats.recall_at_k is None

    def test_monitor_parameter_validation(self):
        from repro.index import RecallMonitor

        with pytest.raises(ValueError, match="sample_rate"):
            RecallMonitor(sample_rate=1.5)
        with pytest.raises(ValueError, match="window"):
            RecallMonitor(window=0)
        with pytest.raises(ValueError, match="max_users_per_request"):
            RecallMonitor(max_users_per_request=0)
        with pytest.raises(RuntimeError, match="not built"):
            RecallMonitor().observe(np.ones((1, 4)), np.ones((1, 2), dtype=np.int64), np.ones((1, 2)), 2)

    def test_service_stats_counters(self, model, tiny_train_graph, tiny_scene_graph):
        service = RecommendationService(model, tiny_train_graph, tiny_scene_graph)
        stats = service.stats()
        assert stats.requests == 0 and stats.users == 0
        assert stats.index is None and stats.monitor is None and stats.live_items is None
        service.recommend(RecommendRequest(users=(0, 1, 2), k=3))
        service.top_k(4, k=2)
        stats = service.stats()
        assert stats.requests == 2 and stats.users == 4

    def test_cache_partial_refresh_notifies_with_rows(self, model):
        cache = ItemRepresentationCache(model)
        received = []
        cache.subscribe_partial(lambda ids, rows, biases: received.append((ids, rows, biases)))
        with pytest.raises(TypeError):
            cache.subscribe_partial("not callable")
        cache.refresh_items([1, 2])  # cold cache: a no-op, nothing to patch
        assert not received
        warm = cache.get()
        before = warm.items.copy()
        cache.refresh_items([1, 2])
        assert len(received) == 1
        ids, rows, biases = received[0]
        np.testing.assert_array_equal(ids, [1, 2])
        assert rows.shape == (2, warm.items.shape[1])
        np.testing.assert_allclose(warm.items, before)  # unchanged live model
        with pytest.raises(ValueError, match="duplicate"):
            cache.refresh_items([3, 3])
        with pytest.raises(IndexError):
            cache.refresh_items([warm.num_items])

    def test_cache_partial_refresh_patches_rows_in_place(self, model):
        cache = ItemRepresentationCache(model)
        warm = cache.get()
        new_row = np.full((1, warm.items.shape[1]), 3.25)
        kwargs = {}
        if warm.item_biases is not None:
            kwargs["item_biases"] = np.array([1.5])
        cache.refresh_items([7], items=new_row, **kwargs)
        assert cache.is_warm and cache.get() is warm  # still the same snapshot
        np.testing.assert_allclose(warm.items[7], 3.25)
        if warm.item_biases is not None:
            assert warm.item_biases[7] == 1.5


class TestRepresentationCache:
    def test_cache_warms_lazily_and_refreshes(self, tiny_train_graph, tiny_scene_graph):
        model = build_model("BPR-MF", tiny_train_graph, tiny_scene_graph, embedding_dim=8, seed=0)
        cache = ItemRepresentationCache(model)
        assert cache.supported and not cache.is_warm
        first = cache.get()
        assert cache.is_warm
        assert cache.get() is first  # served from memory
        cache.refresh()
        assert not cache.is_warm
        assert cache.get() is not first

    def test_stale_cache_is_invalidated_by_service_refresh(self, tiny_train_graph, tiny_scene_graph, tiny_split):
        model = build_model("BPR-MF", tiny_train_graph, tiny_scene_graph, embedding_dim=8, seed=0)
        service = RecommendationService(model, tiny_train_graph, tiny_scene_graph)
        before = service.score_matrix(np.array([0])).copy()
        Trainer(model, tiny_split, TrainConfig(epochs=1, batch_size=64, eval_every=0)).fit()
        # Without refresh the precomputed representations still answer.
        np.testing.assert_allclose(service.score_matrix(np.array([0])), before)
        service.refresh()
        after = service.score_matrix(np.array([0]))
        assert not np.allclose(after, before)
        # And the refreshed scores agree with the live pairwise path (to
        # float32 resolution — the default serving snapshot dtype).
        all_items = np.arange(tiny_train_graph.num_items)
        np.testing.assert_allclose(
            after[0], model.score(np.full(all_items.size, 0), all_items), rtol=1e-5, atol=1e-5
        )

    def test_unsupported_model_raises(self, tiny_train_graph, tiny_scene_graph):
        model = build_model("NCF", tiny_train_graph, tiny_scene_graph, embedding_dim=8, seed=0)
        cache = ItemRepresentationCache(model)
        assert not cache.supported
        with pytest.raises(TypeError):
            cache.get()


def _tiny_scenerec(graph, scene_graph):
    return SceneRec(
        graph,
        scene_graph,
        SceneRecConfig(embedding_dim=8, item_item_cap=4, category_category_cap=3, category_scene_cap=3, seed=1),
    )


class TestSceneRecSnapshot:
    """SceneRec served from the representation cache: encoded once, scored by a frozen head."""

    def test_default_dtype_scores_match_pairwise_tier(self, scenerec_service, tiny_train_graph):
        model = scenerec_service.model
        assert scenerec_service.dtype == np.float32
        users = np.arange(tiny_train_graph.num_users)
        all_items = np.arange(tiny_train_graph.num_items)
        reference = np.stack([model.score(np.full(all_items.size, user), all_items) for user in users])
        np.testing.assert_allclose(scenerec_service.score_matrix(users), reference, rtol=1e-9, atol=1e-9)
        response = scenerec_service.recommend(RecommendRequest(users=(0, 7), k=5))
        for row, user in enumerate((0, 7)):
            served = response.results[row]
            np.testing.assert_allclose(
                [rec.score for rec in served], reference[user, [rec.item for rec in served]], rtol=1e-9, atol=1e-9
            )

    def test_requests_encode_no_items_once_warm(self, tiny_train_graph, tiny_scene_graph, count_item_rows):
        model = _tiny_scenerec(tiny_train_graph, tiny_scene_graph)
        model.eval()
        rows = count_item_rows(model)
        service = RecommendationService(model, tiny_train_graph, tiny_scene_graph)
        service.recommend(RecommendRequest(users=(0,), k=5))
        assert rows[0] == tiny_train_graph.num_items
        service.recommend(RecommendRequest(users=(1, 2, 3), k=5, explain=True))
        assert rows[0] == tiny_train_graph.num_items

    def test_training_without_refresh_leaves_scores_unchanged(self, tiny_train_graph, tiny_scene_graph, tiny_split):
        model = _tiny_scenerec(tiny_train_graph, tiny_scene_graph)
        service = RecommendationService(model, tiny_train_graph, tiny_scene_graph)
        users = np.arange(tiny_train_graph.num_users)
        before = service.score_matrix(users).copy()
        Trainer(model, tiny_split, TrainConfig(epochs=1, batch_size=64, eval_every=0)).fit()
        # The snapshot's rating head is a frozen copy, not the live MLP.
        np.testing.assert_array_equal(service.score_matrix(users), before)
        service.refresh()
        refreshed = service.score_matrix(users)
        assert not np.allclose(refreshed, before)
        fresh = RecommendationService(model, tiny_train_graph, tiny_scene_graph).score_matrix(users)
        np.testing.assert_array_equal(refreshed, fresh)

    def test_refresh_items_refreshes_the_whole_snapshot(self, tiny_train_graph, tiny_scene_graph):
        model = _tiny_scenerec(tiny_train_graph, tiny_scene_graph)
        # float64, so the live encodings compare bit-equal to the snapshot's.
        service = RecommendationService(model, tiny_train_graph, tiny_scene_graph, dtype="float64")
        users = np.arange(tiny_train_graph.num_users)
        service.score_matrix(users)
        # Only the rating MLP moves: the user and item encodings stay put,
        # so a row-level patch would keep serving the old head.
        model.prediction.layers[0].weight.data += 0.5
        service.refresh_items([3])
        fresh = RecommendationService(model, tiny_train_graph, tiny_scene_graph).score_matrix(users)
        np.testing.assert_array_equal(service.score_matrix(users), fresh)

    @pytest.mark.parametrize("index", ["exact", "ivf"])
    def test_index_refused_at_construction(
        self, index, tiny_train_graph, tiny_scene_graph, tmp_path, count_item_rows
    ):
        model = _tiny_scenerec(tiny_train_graph, tiny_scene_graph)
        rows = count_item_rows(model)
        with pytest.raises(TypeError, match="model head"):
            RecommendationService(model, tiny_train_graph, tiny_scene_graph, index=index)
        with pytest.raises(TypeError, match="model head"):
            RecommendationService(model, tiny_train_graph, tiny_scene_graph, snapshots=tmp_path)
        assert rows[0] == 0


class TestExplanations:
    def test_affinities_match_pairwise_helper(self, scenerec_service, tiny_train_graph):
        model = scenerec_service.model
        explainer = SceneAffinityExplainer(model)
        history = tiny_train_graph.user_items(0)
        items = np.array([3, 17, 50])
        batched = explainer.affinities(items, history)
        for position, item in enumerate(items):
            expected = np.mean([model.scene_attention_score(int(item), int(h)) for h in history])
            assert batched[position] == pytest.approx(expected, abs=1e-9)

    def test_service_attaches_explanations(self, scenerec_service):
        recommendations = scenerec_service.top_k(0, k=3, explain=True)
        assert all(rec.scene_affinity is not None for rec in recommendations)
        assert all(-1.0 - 1e-9 <= rec.scene_affinity <= 1.0 + 1e-9 for rec in recommendations)

    def test_non_scenerec_models_do_not_explain(self, bpr_service):
        assert all(rec.scene_affinity is None for rec in bpr_service.top_k(0, k=3, explain=True))

    def test_unsupported_explainer_returns_none(self, bpr_service):
        explainer = SceneAffinityExplainer(bpr_service.model)
        assert not explainer.supported
        assert explainer.affinities(np.array([0]), np.array([1])) is None


def test_response_rejects_misaligned_results():
    with pytest.raises(ValueError):
        RecommendResponse(users=(0, 1), results=((),))
