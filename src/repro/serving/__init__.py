"""Serving layer: vectorized full-catalogue top-K recommendation.

Built on the two-tier scoring API of :mod:`repro.models.base`:

* :class:`RecommendationService` — batched, filtered, explained top-K over
  any trained recommender, answered from a cached catalogue snapshot for
  factorized models (one matmul, or SceneRec's frozen rating head) and by
  batched pairwise scoring otherwise.  With an ANN backend attached
  (``index=`` and the :mod:`repro.index` package; dot-product models only)
  requests flow retrieve → exact rescore → filter → rank over
  ``candidate_k`` candidates per user instead of the whole catalogue.
* :class:`RecommendRequest` / :class:`RecommendResponse` — the typed request
  and response envelopes.
* :mod:`~repro.serving.filters` — composable candidate filters
  (exclude-seen, category/scene allowlists, item denylists).
* :class:`~repro.serving.cache.ItemRepresentationCache` — precomputed item
  representations with explicit ``refresh()`` invalidation and row-level
  ``refresh_items()`` partial updates that keep a built index warm.
* :class:`ServiceStats` — the ``service.stats()`` snapshot: serving
  counters plus, with a :class:`~repro.index.RecallMonitor` attached, the
  windowed recall of real served traffic against the exact oracle.

Quickstart::

    from repro.serving import RecommendationService, RecommendRequest

    service = RecommendationService(model, train_graph, scene_graph)
    response = service.recommend(RecommendRequest(users=(0, 1, 2), k=10))
    for user, items in response.as_dict().items():
        print(user, [(r.item, round(r.score, 3)) for r in items])
"""

from repro.serving.cache import ItemRepresentationCache
from repro.serving.explanations import SceneAffinityExplainer
from repro.serving.filters import (
    CandidateFilter,
    CategoryAllowlistFilter,
    ExcludeItemsFilter,
    ExcludeSeenFilter,
    SceneAllowlistFilter,
)
from repro.serving.service import RecommendationService, batch_top_k
from repro.serving.types import Recommendation, RecommendRequest, RecommendResponse, ServiceStats

__all__ = [
    "CandidateFilter",
    "CategoryAllowlistFilter",
    "ExcludeItemsFilter",
    "ExcludeSeenFilter",
    "ItemRepresentationCache",
    "Recommendation",
    "RecommendRequest",
    "RecommendResponse",
    "RecommendationService",
    "SceneAffinityExplainer",
    "SceneAllowlistFilter",
    "ServiceStats",
    "batch_top_k",
]
