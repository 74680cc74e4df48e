"""The recommendation service: vectorized multi-user top-K on any model.

The service is the serving-side consumer of the two-tier scoring API
(:mod:`repro.models.base`): factorized models — the dot-product baselines and
SceneRec — are answered from a representation cache encoded once per
:meth:`RecommendationService.refresh`, scored with one matmul (or SceneRec's
frozen rating head) per request; everything else falls back to batched
pairwise scoring of the live model — same results, different speed.

On top of that, a service over a dot-product model can take a candidate-
retrieval **index** (:mod:`repro.index`): each request then first retrieves
``candidate_k`` items per user from the index and only those are exactly
rescored, filtered and ranked — O(users × candidate_k × dim) instead of
O(users × items × dim), the accuracy-vs-latency axis of ANN serving.  The
index is (re)built lazily from the representation cache and goes stale with
it: ``refresh()`` (or any cache refresh) triggers a rebuild on next use.

Catalogue churn does not pay that rebuild:
:meth:`RecommendationService.refresh_items` patches the changed rows of the
warm representation cache, whose partial-refresh notification applies a
row-level ``upsert`` to the index (and the recall monitor's oracle) in
place, and :meth:`RecommendationService.delete_items` retires items
everywhere at once.  Structural work an index defers off the mutation path
(the IVF/IVF-PQ drift re-cluster) runs at an explicit
:meth:`RecommendationService.maintain` call.  An attached
:class:`~repro.index.RecallMonitor` shadow-rescores a
sample of served requests against the exact oracle;
:meth:`RecommendationService.stats` exposes its windowed recall@k /
candidate-hit-rate numbers next to the plain serving counters — plus, when
the monitor carries a ``target_recall``, the probe width
(``nprobe``/``hamming_radius``) that windowed recall argues for, which
``auto_tune=True`` applies live (bounded, with hysteresis and a cooldown).

The whole hot path runs in a configurable ``dtype`` — float32 by default:
the representation cache snapshots, every score matmul, the index build and
the candidate rescoring all stay in one precision with no widening copies
(serving at scale is memory-bandwidth-bound; halving the bytes halves the
traffic).  Top-K selection widens scores to float64 exactly once, inside
the top-k helpers, so tie-breaking — :func:`numpy.argpartition` prefixes
with ties broken by ascending item id — is reproducible and identical to a
stable full sort whatever the serving precision.  ``dtype="float64"``
restores bit-exact parity with the live model; a head-scored snapshot
(SceneRec) is always float64.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from repro.autograd.tensor import no_grad
from repro.obs import Observability, resolve_obs
from repro.graph.bipartite import UserItemBipartiteGraph
from repro.graph.scene_graph import SceneBasedGraph
from repro.index import ItemIndex, RecallMonitor, SnapshotStore, build_index
from repro.index.topk import PAD_ID, PAD_SCORE, dense_top_k, padded_top_k
from repro.models.base import compute_score_matrix
from repro.reliability import CircuitBreaker, Deadline
from repro.serving.cache import ItemRepresentationCache
from repro.serving.explanations import SceneAffinityExplainer
from repro.serving.filters import CandidateFilter, ExcludeSeenFilter
from repro.serving.types import Recommendation, RecommendRequest, RecommendResponse, ServiceStats
from repro.utils.logging import get_logger
from repro.utils.serialization import BundleError

__all__ = ["RecommendationService", "batch_top_k"]

_LOGGER = get_logger("serving.service")

#: Default candidate budget when neither the request nor the service set one:
#: a few multiples of ``k`` so filters (exclude-seen, allowlists) cannot
#: starve the final ranking, with an absolute floor for tiny ``k``.
DEFAULT_CANDIDATE_MULTIPLE = 4
MIN_CANDIDATE_K = 64
#: Pairs per model call when a model without factorized representations is
#: scored through batched pairwise tiling.
PAIRWISE_ITEM_BATCH = 8192
#: Element budget of one candidate-rescoring gather chunk: the
#: ``(rows, candidate_k, dim)`` item gather is processed in row chunks of at
#: most this many elements (~16 MB float32 / ~32 MB float64), so peak memory
#: stays flat even when ``candidate_k`` approaches the catalogue size.
RESCORE_CHUNK_ELEMENTS = 1 << 22
#: Minimum fresh monitor samples between two auto-tune decisions: the
#: cooldown that keeps target-driven probe changes from flapping on noise.
AUTO_TUNE_MIN_SAMPLES = 4
#: The deadline-shedding ladder, as fractions of the request budget still
#: remaining when a stage starts.  Below each threshold one more piece of
#: optional work is shed: first explanations (pure garnish), then the
#: rescoring pool shrinks to ``k`` (fewer exact dot products), then the
#: probe width drops to the minimum (coarser retrieval).  Rankings over the
#: retrieved pool stay exact at every rung — shedding trades recall and
#: detail for latency, never correctness of the ranking itself.
SHED_EXPLAIN_FRACTION = 0.5
SHED_CANDIDATE_FRACTION = 0.25
SHED_NPROBE_FRACTION = 0.10


def batch_top_k(scores: np.ndarray, allowed: np.ndarray, k: int) -> list[np.ndarray]:
    """Indices of the ``k`` best allowed items per row, best first.

    Selection is by partial sort (``np.argpartition``) so the cost per row is
    O(num_items + k log k) rather than O(num_items log num_items); the result
    order is exactly that of a stable full sort on descending score (ties
    resolved by ascending item id).  Rows with fewer than ``k`` allowed items
    return all of them.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if scores.shape != allowed.shape:
        raise ValueError(f"scores {scores.shape} and allowed mask {allowed.shape} disagree")
    if scores.size and bool(allowed.all()):
        # No filtering anywhere: one matrix-level argpartition with a stable
        # within-prefix tie-break replaces the per-row Python loop.
        return list(dense_top_k(np.asarray(scores, dtype=np.float64), k))
    results: list[np.ndarray] = []
    for row in range(scores.shape[0]):
        candidates = np.flatnonzero(allowed[row])
        take = min(k, candidates.size)
        if take == 0:
            results.append(np.empty(0, dtype=np.int64))
            continue
        negated = -scores[row, candidates]
        # Threshold = the take-th best value; everything strictly better is in,
        # ties at the threshold fill the remaining slots in item-id order —
        # exactly the prefix a stable argsort of -scores would produce.
        threshold = np.partition(negated, take - 1)[take - 1] if take < candidates.size else np.inf
        strict_mask = negated < threshold
        strict = candidates[strict_mask]
        strict = strict[np.argsort(negated[strict_mask], kind="stable")]
        tied = candidates[negated == threshold][: take - strict.size]
        results.append(np.concatenate([strict, tied]))
    return results


class RecommendationService:
    """Serve ranked, filtered, explained recommendations from a trained model.

    Parameters
    ----------
    model:
        any trained :class:`~repro.models.base.Recommender` (or duck-typed
        object with a ``score``/``score_matrix`` method).
    bipartite:
        the training interaction graph, used for the exclude-seen filter and
        for explanation histories.
    scene_graph:
        optional; enables category annotations, scene filters and — for
        SceneRec models — scene-affinity explanations.
    base_filters:
        filters applied to *every* request (e.g. a global denylist), before
        any per-request filters.
    index:
        optional candidate-retrieval backend (:mod:`repro.index`): an
        :class:`~repro.index.ItemIndex` instance, or a registered backend
        name (``"exact"``, ``"ivf"``, ``"ivfpq"``, ``"lsh"``) built with
        defaults.
        Requires a dot-product :class:`~repro.models.base.FactorizedRecommender`;
        a head-scored model (SceneRec) is refused at construction.
        The index is built lazily over the cached item representations and
        rebuilt automatically after every :meth:`refresh`.
    candidate_k:
        service-wide default for how many items the index retrieves per
        user before exact rescoring; a request's ``candidate_k`` overrides
        it.  When neither is set, ``max(4 * k, 64)`` is used.
    monitor:
        optional :class:`~repro.index.RecallMonitor`; requires an index.
        A sample of requests is shadow-rescored against an exact oracle
        kept in lockstep with the index, and :meth:`stats` reports the
        windowed recall@k / candidate-hit-rate of real served traffic.
    dtype:
        serving precision — ``"float32"`` (default) or ``"float64"``.  Sets
        the representation-cache snapshot dtype, which the score matmuls,
        the index build and the candidate rescoring all inherit.  A
        head-scored snapshot (SceneRec) stays float64 either way.
    auto_tune:
        apply the monitor's probe-width suggestion automatically.  Requires
        a ``monitor`` with ``target_recall`` set: when the windowed
        served-traffic recall sags below the target the index's ``nprobe``
        (IVF/IVF-PQ) or ``hamming_radius`` (LSH) widens, and once recall
        clears the target plus the monitor's hysteresis band it narrows
        again — always inside the backend's hard bounds, never more than
        one change per :data:`AUTO_TUNE_MIN_SAMPLES` fresh samples.
    snapshots:
        optional :class:`~repro.index.SnapshotStore` (or its root directory)
        connecting this service to published index snapshots.  A maintainer
        service publishes there — :meth:`publish_snapshot` explicitly, and
        :meth:`maintain` automatically whenever structural work ran — while
        a serving worker attaches with :meth:`load_snapshot` (memory-mapped,
        O(1), no build) and hot-swaps to newer publishes between requests
        via :meth:`sync_snapshot`.  A worker constructed with ``snapshots=``
        but no ``index=`` gets its index entirely from the store.
    breaker:
        the :class:`~repro.reliability.CircuitBreaker` guarding the
        candidate-retrieval path (one is created by default).  When a
        request's index path raises, the failure is recorded and the
        request is answered by the exact full-catalogue fallback instead of
        propagating; once the breaker trips, requests skip the index
        entirely until a timed half-open probe succeeds.  Fallback
        responses are flagged ``degraded=True`` but their rankings are
        exact — the fallback scores every item.
    obs:
        observability (:mod:`repro.obs`): ``True`` instruments this service
        with a fresh :class:`~repro.obs.Observability` bundle, or pass an
        existing bundle to share one registry/tracer across services.  The
        bundle is threaded through every attached component — index,
        monitor, snapshot store — so ``obs.registry.render_prometheus()``
        is one whole-service metrics page, and per-request stage spans
        (retrieve → rescore → filter → rank → explain) land in
        ``obs.tracer``.  The default (``None``/``False``) binds the shared
        null bundle: instrumented call sites skip their clock reads
        entirely, keeping the uninstrumented hot path at full speed.

    Factorized models are served from a snapshot that is stale by design:
    after further training of ``model``, call :meth:`refresh` to invalidate
    the precomputed representation and explanation caches (and the index).
    When only a few item rows changed, :meth:`refresh_items` propagates them
    everywhere — cache, index, monitor oracle — without any rebuild.
    """

    def __init__(
        self,
        model: object,
        bipartite: UserItemBipartiteGraph,
        scene_graph: SceneBasedGraph | None = None,
        base_filters: Sequence[CandidateFilter] = (),
        index: "ItemIndex | str | None" = None,
        candidate_k: int | None = None,
        monitor: RecallMonitor | None = None,
        dtype: "str | np.dtype" = "float32",
        auto_tune: bool = False,
        snapshots: "SnapshotStore | str | Path | None" = None,
        breaker: CircuitBreaker | None = None,
        obs: "Observability | bool | None" = None,
    ) -> None:
        if scene_graph is not None and scene_graph.num_items != bipartite.num_items:
            raise ValueError("scene graph and bipartite graph disagree on the number of items")
        if candidate_k is not None and candidate_k <= 0:
            raise ValueError(f"candidate_k must be positive, got {candidate_k}")
        self.model = model
        self.bipartite = bipartite
        self.scene_graph = scene_graph
        self.base_filters = tuple(base_filters)
        self._exclude_seen = ExcludeSeenFilter(bipartite)
        self._cache = ItemRepresentationCache(model, dtype=dtype)
        self.dtype = self._cache.dtype
        self._explainer = SceneAffinityExplainer(model)
        if isinstance(index, str):
            index = build_index(index)
        if isinstance(snapshots, (str, Path)):
            snapshots = SnapshotStore(snapshots)
        self.snapshots = snapshots
        self._snapshot_version: int | None = None
        self._index_wired = False
        if index is not None or snapshots is not None:
            self._wire_index_support()
        if monitor is not None and index is None and snapshots is None:
            raise ValueError("a recall monitor shadow-scores the index path; pass index= as well")
        if auto_tune and (monitor is None or monitor.target_recall is None):
            raise ValueError(
                "auto_tune applies the monitor's target-driven suggestion; "
                "pass monitor=RecallMonitor(target_recall=...) as well"
            )
        self.index = index
        self.monitor = monitor
        self.candidate_k = candidate_k
        self.auto_tune = bool(auto_tune)
        self._index_fresh = False
        self._unavailable = np.zeros(bipartite.num_items, dtype=bool)
        self._requests_served = 0
        self._users_served = 0
        self._auto_tunes = 0
        self._tuned_at_samples = 0
        self._last_maintain_s: float | None = None
        self._last_publish_s: float | None = None
        self.breaker = breaker if breaker is not None else CircuitBreaker(component="index")
        self._degraded_requests = 0
        self._sync_failures = 0
        self._last_sync_error: str | None = None
        self.obs = resolve_obs(obs)
        self._wire_obs()

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    #: Stage names of the candidate (ANN) and full-catalogue request paths;
    #: each gets a ``repro_serving_stage_seconds{stage=...}`` histogram and
    #: a per-request span of the same name.
    STAGES = ("retrieve", "rescore", "monitor", "filter", "rank", "explain", "score")

    def _wire_obs(self) -> None:
        """Register the service's metric series and bind attached components."""
        registry = self.obs.registry
        self._met_requests = registry.counter(
            "repro_serving_requests_total", "Recommend requests served."
        )
        self._met_users = registry.counter(
            "repro_serving_users_total", "User rows served across all requests."
        )
        self._met_candidates = registry.counter(
            "repro_serving_candidates_total", "Candidates retrieved from the index."
        )
        self._met_request_seconds = registry.histogram(
            "repro_serving_request_seconds", "End-to-end seconds per recommend request."
        )
        self._met_stage = {
            stage: registry.histogram(
                "repro_serving_stage_seconds",
                "Seconds per request stage of the serving path.",
                labels={"stage": stage},
            )
            for stage in self.STAGES
        }
        self._met_last_maintain = registry.gauge(
            "repro_serving_last_maintain_seconds", "Duration of the last maintain() call."
        )
        self._met_last_publish = registry.gauge(
            "repro_serving_last_publish_seconds", "Duration of the last snapshot publish."
        )
        self._met_degraded = registry.counter(
            "repro_serving_degraded_total", "Responses served on a fallback or shed path."
        )
        self._met_degraded_reason: dict[str, object] = {}
        self._met_sync_failures = registry.counter(
            "repro_serving_snapshot_sync_failures_total",
            "sync_snapshot() polls that failed while the service kept its live index.",
        )
        self.breaker.bind_obs(self.obs)
        if self.index is not None:
            self.index.bind_obs(self.obs)
        if self.monitor is not None:
            self.monitor.bind_obs(self.obs)
        if self.snapshots is not None:
            self.snapshots.bind_obs(self.obs)

    def _reason_counter(self, reason: str):
        """Get-or-create the per-reason slice of the degraded counter."""
        counter = self._met_degraded_reason.get(reason)
        if counter is None:
            counter = self.obs.registry.counter(
                "repro_serving_degraded_reason_total",
                "Degraded responses by degradation reason.",
                labels={"reason": reason},
            )
            self._met_degraded_reason[reason] = counter
        return counter

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def score_matrix(self, users: "np.ndarray | Sequence[int]") -> np.ndarray:
        """``(len(users), num_items)`` model scores, via the fastest available path.

        Factorized models are scored from the cached snapshot, in its dtype;
        any other model is scored live, in float64, by batched pairwise
        tiling.
        """
        users = self._check_users(users)
        model = self.model
        was_training = getattr(model, "training", False)
        if hasattr(model, "eval"):
            model.eval()
        try:
            with no_grad():
                if self._cache.supported:
                    return self._cache.get().score_matrix(users)
                return compute_score_matrix(
                    model, users, num_items=self.bipartite.num_items, item_batch=PAIRWISE_ITEM_BATCH
                )
        finally:
            if was_training and hasattr(model, "train"):
                model.train()

    def refresh(self) -> None:
        """Drop all precomputed state; call after (re)training the model.

        Invalidates the representation cache (which in turn marks the
        candidate-retrieval index stale, rebuilding it on next use) and the
        explanation cache.
        """
        self._cache.refresh()
        self._explainer.refresh()

    def refresh_items(
        self,
        item_ids: "np.ndarray | Sequence[int]",
        items: np.ndarray | None = None,
        item_biases: np.ndarray | None = None,
    ) -> None:
        """Propagate a row-level item update without rebuilding anything.

        Call after an in-place model change that touched only the given
        items (an online fine-tuning step, a catalogue metadata recompute).
        The warm representation cache is patched for just those rows —
        pulled from the live model, or taken from ``items``/``item_biases``
        when supplied — and its partial-refresh notification ``upsert``\\ s
        the same rows into the candidate-retrieval index and the recall
        monitor's oracle.  A cold cache needs no patching: the next request
        recomputes everything anyway.

        Row-level patching is only sound when the change really is confined
        to the named rows.  For propagation models (LightGCN, NGCF, …) a
        parameter update moves neighbouring items and the user side too;
        the cache detects that and falls back to a full refresh, so results
        stay correct either way — the row-level fast path simply does not
        apply.  Explanation caches are dropped in both cases.

        Items retired via :meth:`delete_items` are rejected — deletion is
        permanent for this service instance.
        """
        ids = np.asarray(item_ids, dtype=np.int64).reshape(-1)
        if ids.size and (ids.min() < 0 or ids.max() >= self.bipartite.num_items):
            raise IndexError(
                f"item ids must lie in [0, {self.bipartite.num_items}), "
                f"got range [{ids.min()}, {ids.max()}]"
            )
        if ids.size and self._unavailable[ids].any():
            raise KeyError(
                f"items {ids[self._unavailable[ids]].tolist()} were deleted from this service"
            )
        self._cache.refresh_items(ids, items=items, item_biases=item_biases)
        # Scene-affinity explanations are derived from the same model state;
        # drop their cache so explain=True answers match the new rows.
        self._explainer.refresh()

    def delete_items(self, item_ids: "np.ndarray | Sequence[int]") -> None:
        """Retire items from serving: they are never recommended again.

        Applies everywhere at once — the candidate-retrieval index and the
        monitor oracle drop the rows (no rebuild), and the full-catalogue
        path masks them like a base filter.  Deleting an id twice raises
        :class:`KeyError`, mirroring :meth:`ItemIndex.delete
        <repro.index.ItemIndex.delete>`.
        """
        ids = np.asarray(item_ids, dtype=np.int64).reshape(-1)
        if ids.size == 0:
            return
        if ids.min() < 0 or ids.max() >= self.bipartite.num_items:
            raise IndexError(
                f"item ids must lie in [0, {self.bipartite.num_items}), "
                f"got range [{ids.min()}, {ids.max()}]"
            )
        if self._unavailable[ids].any():
            raise KeyError(
                f"items {ids[self._unavailable[ids]].tolist()} are already deleted"
            )
        self._unavailable[ids] = True
        if self.index is not None and self._index_fresh:
            self.index.delete(ids)
            if self.monitor is not None:
                self.monitor.delete(ids)

    def maintain(self, force: bool = False) -> bool:
        """Run deferred index maintenance (IVF/IVF-PQ drift re-cluster) now.

        The mutation path (:meth:`refresh_items` / :meth:`delete_items`)
        only *queues* structural re-organisation so its latency stays flat;
        call this off the request path — a background thread, a cron job,
        a deploy hook — to execute whatever is pending (``force=True`` runs
        it regardless of the drift threshold).  A stale index is warmed
        first, so the rebuild also happens here rather than on the next
        request.  Returns whether any maintenance ran.

        With a :class:`~repro.index.SnapshotStore` attached this is also
        the publish point: whenever this call did structural work (a
        rebuild or a re-cluster) — or the store has no published version
        yet — the freshly-organised index is published as a new snapshot,
        so serving workers polling :meth:`sync_snapshot` pick it up.

        Maintenance failures do not propagate: structural re-organisation
        and the snapshot publish both run *before* anything serving-visible
        changes, so when either raises the index keeps serving its current
        organisation (and workers keep the previous snapshot), the failure
        is logged, and the call reports ``False`` / skips the publish.
        """
        if self.index is None:
            return False
        started = perf_counter()
        rebuilt = not self._index_fresh
        self._ensure_index()
        try:
            ran = self.index.maintain(force=force)
        except Exception as error:
            _LOGGER.warning(
                "deferred index maintenance failed (%s: %s); "
                "the index keeps serving its current organisation",
                type(error).__name__,
                error,
            )
            self._finish_maintain(started)
            return False
        if self.snapshots is not None and (
            ran or rebuilt or self._published_version_or_none() is None
        ):
            publish_started = perf_counter()
            try:
                self._snapshot_version = self.snapshots.publish(self.index)
            except Exception as error:
                _LOGGER.warning(
                    "snapshot publish failed (%s: %s); "
                    "serving workers keep the previously published version",
                    type(error).__name__,
                    error,
                )
            else:
                self._last_publish_s = perf_counter() - publish_started
                self._met_last_publish.set(self._last_publish_s)
        self._finish_maintain(started)
        return ran

    def _finish_maintain(self, started: float) -> None:
        self._last_maintain_s = perf_counter() - started
        self._met_last_maintain.set(self._last_maintain_s)

    def _published_version_or_none(self) -> int | None:
        """The store's current version, with a corrupt pointer read as None.

        Used on the publish side only: a corrupted ``CURRENT`` pointer means
        "publish a fresh version" (which atomically repairs the pointer),
        not "crash the maintainer".
        """
        try:
            return self.snapshots.current_version()
        except BundleError:
            return None

    # ------------------------------------------------------------------ #
    # Snapshots: maintainer publishes, serving workers hot-swap
    # ------------------------------------------------------------------ #
    def publish_snapshot(self) -> int:
        """Publish the current index to the attached snapshot store.

        The index is warmed (built, with local deletions re-applied) first,
        so what lands in the store is exactly what this service serves.
        Returns the published version number.
        """
        if self.snapshots is None:
            raise RuntimeError("this service has no snapshot store; pass snapshots= at construction")
        if self.index is None:
            raise RuntimeError("this service has no candidate-retrieval index; pass index= at construction")
        self._ensure_index()
        started = perf_counter()
        self._snapshot_version = self.snapshots.publish(self.index)
        self._last_publish_s = perf_counter() - started
        self._met_last_publish.set(self._last_publish_s)
        return self._snapshot_version

    def load_snapshot(self, version: int | None = None, *, mmap: bool = True) -> int:
        """Attach to a published index snapshot (default: the current one).

        This is the serving-worker entry point: the snapshot's arrays are
        memory-mapped read-only (``mmap=True``), so attaching is O(1) in
        the catalogue size and the physical pages are shared with every
        other worker mapping the same version — no k-means, no hashing, no
        training of any kind runs.  The loaded index replaces this
        service's live index until the representation cache is refreshed
        (which marks it stale like any other index).

        Items already retired locally via :meth:`delete_items` are
        re-deleted from the loaded index (promoting its arrays to private
        copies if any are still live in the snapshot), and an attached
        recall monitor's oracle is rebuilt so shadow-scoring measures the
        swapped-in index.  Returns the version attached to — when loading
        the current version (``version=None``) this goes through the
        store's self-healing path (:meth:`SnapshotStore.load_current
        <repro.index.snapshot.SnapshotStore.load_current>`), so a corrupted
        publish is quarantined and the newest verifiable older version is
        attached instead; the returned version is then the rollback target,
        not the corrupted head.
        """
        if self.snapshots is None:
            raise RuntimeError("this service has no snapshot store; pass snapshots= at construction")
        if version is None:
            version, index = self.snapshots.load_current(mmap=mmap)
        else:
            version = int(version)
            index = self.snapshots.load(version, mmap=mmap)
        if index.num_items > self.bipartite.num_items:
            raise ValueError(
                f"snapshot {version} indexes {index.num_items} items but this catalogue "
                f"has {self.bipartite.num_items}; it was published from a different catalogue"
            )
        self._wire_index_support()
        deleted = np.flatnonzero(self._unavailable)
        if deleted.size:
            still_live = deleted[index.is_live(deleted)]
            if still_live.size:
                index.delete(still_live)
        if self.monitor is not None:
            representations = self._cache.get()
            self.monitor.rebuild(
                np.asarray(representations.items),
                item_biases=representations.item_biases,
            )
            if deleted.size:
                self.monitor.delete(deleted)
        # The swapped-in index records into the same registry series as its
        # predecessor (the registry is get-or-create keyed on name+labels),
        # so counters and histograms survive the hot-swap unreset.
        index.bind_obs(self.obs)
        self.index = index
        self._index_fresh = True
        self._snapshot_version = version
        return version

    def sync_snapshot(self, *, mmap: bool = True) -> bool:
        """Hot-swap to the store's current version if it moved; cheap no-op otherwise.

        The between-requests poll of a serving worker: one pointer-file read
        when nothing changed, an O(1) memory-mapped attach when a maintainer
        published a newer version.  Returns whether a swap happened.

        The poll never propagates store trouble into the serving loop: a
        corrupted publish is rolled back through the store's self-healing
        load (the worker attaches to the newest verifiable version), and
        any other failure — unreadable pointer with nothing to roll back
        to, transient I/O fault — leaves the worker on its current
        in-memory index and is reported via ``stats().sync_failures`` /
        ``stats().last_sync_error`` and the
        ``repro_serving_snapshot_sync_failures_total`` counter.
        """
        if self.snapshots is None:
            return False
        before = self._snapshot_version
        try:
            current = self._published_version_or_none()
            if current is not None and current == before:
                return False
            self.load_snapshot(mmap=mmap)
        except FileNotFoundError:
            return False  # nothing published yet: quiet no-op, not a failure
        except Exception as error:
            self._sync_failures += 1
            self._last_sync_error = f"{type(error).__name__}: {error}"
            self._met_sync_failures.inc()
            _LOGGER.warning(
                "snapshot sync failed (%s); still serving version %s",
                self._last_sync_error,
                before,
            )
            return False
        return self._snapshot_version != before

    def stats(self, detail: bool = False) -> ServiceStats:
        """Serving counters plus the monitor's windowed quality numbers.

        With ``detail=True`` the observability registry is folded in:
        ``p50_ms``/``p95_ms`` serving latency (from the
        ``repro_serving_request_seconds`` histogram; ``None`` until the
        instrumented service has served a request) and the durations of the
        last :meth:`maintain` / snapshot publish.  The extra fields stay
        ``None`` on ``detail=False`` and on services without an enabled
        ``obs`` bundle.
        """
        live_items = None
        if self.index is not None:
            # Computed from the service's own deletion ledger rather than
            # the index: a stale index may not have absorbed recent
            # delete_items() calls yet, but those items are already
            # unservable.
            live_items = int(self.bipartite.num_items - self._unavailable.sum())
        suggested_nprobe = suggested_hamming_radius = None
        suggestion = self._tuning_suggestion()
        if suggestion is not None:
            if suggestion[0] == "nprobe":
                suggested_nprobe = suggestion[1]
            else:
                suggested_hamming_radius = suggestion[1]
        p50_ms = p95_ms = last_maintain_s = last_publish_s = None
        if detail:
            latency = self._met_request_seconds
            if getattr(latency, "count", 0):
                p50_ms = latency.p50 * 1e3
                p95_ms = latency.p95 * 1e3
            last_maintain_s = self._last_maintain_s
            last_publish_s = self._last_publish_s
        return ServiceStats(
            requests=self._requests_served,
            users=self._users_served,
            index=None if self.index is None else self.index.name,
            live_items=live_items,
            monitor=None if self.monitor is None else self.monitor.stats(),
            suggested_nprobe=suggested_nprobe,
            suggested_hamming_radius=suggested_hamming_radius,
            auto_tunes=self._auto_tunes,
            snapshot_version=self._snapshot_version,
            p50_ms=p50_ms,
            p95_ms=p95_ms,
            last_maintain_s=last_maintain_s,
            last_publish_s=last_publish_s,
            degraded_requests=self._degraded_requests,
            breaker_state=None if self.index is None else self.breaker.state,
            breaker_trips=self.breaker.trips,
            sync_failures=self._sync_failures,
            last_sync_error=self._last_sync_error,
        )

    # ------------------------------------------------------------------ #
    # Target-driven tuning
    # ------------------------------------------------------------------ #
    def _tuning_suggestion(self) -> tuple[str, int] | None:
        """The monitor's probe-width verdict for this index, or None.

        Maps the windowed served-traffic recall onto the backend's knob:
        ``("nprobe", value)`` for IVF-family indexes (bounded by the built
        cell count), ``("hamming_radius", value)`` for LSH (bounded by the
        built signature width).  Exact indexes have nothing to tune.
        """
        if self.monitor is None or self.monitor.target_recall is None or self.index is None:
            return None
        index = self.index
        if hasattr(index, "nprobe"):
            upper = index.effective_nlist if index.effective_nlist else max(1, index.nprobe)
            return ("nprobe", self.monitor.suggest_probe(index.nprobe, 1, upper))
        if hasattr(index, "hamming_radius"):
            upper = index.effective_num_bits if index.effective_num_bits else index.num_bits
            return ("hamming_radius", self.monitor.suggest_probe(index.hamming_radius, 0, upper))
        return None

    def _maybe_auto_tune(self) -> None:
        """Apply the suggestion after enough fresh samples; reset the window.

        The cooldown (≥ :data:`AUTO_TUNE_MIN_SAMPLES` new sampled rows since
        the last decision) plus the monitor's hysteresis dead band keep the
        knob from flapping; the window reset after an applied change makes
        the next decision measure the *new* setting only.
        """
        stats = self.monitor.stats()
        if stats.sampled_users - self._tuned_at_samples < AUTO_TUNE_MIN_SAMPLES:
            return
        suggestion = self._tuning_suggestion()
        if suggestion is None:
            return
        self._tuned_at_samples = stats.sampled_users
        param, value = suggestion
        if value != getattr(self.index, param):
            setattr(self.index, param, value)
            self._auto_tunes += 1
            self.monitor.reset_window()

    # ------------------------------------------------------------------ #
    # Candidate retrieval
    # ------------------------------------------------------------------ #
    def _wire_index_support(self) -> None:
        """Validate index prerequisites and hook the cache listeners (once)."""
        if self._index_wired:
            return
        if not self._cache.supported:
            raise TypeError(
                f"candidate retrieval needs a FactorizedRecommender, "
                f"got {type(self.model).__name__}; drop index= or use a factorized model"
            )
        if self.model.scored_by_head:
            raise TypeError(
                f"candidate retrieval ranks by dot product, but {type(self.model).__name__} "
                "scores user/item pairs with a model head; drop index="
            )
        self._cache.subscribe(self._invalidate_index)
        self._cache.subscribe_partial(self._apply_partial_update)
        self._index_wired = True

    def _invalidate_index(self) -> None:
        self._index_fresh = False

    def _apply_partial_update(
        self, item_ids: np.ndarray, rows: np.ndarray, biases: np.ndarray | None
    ) -> None:
        """Cache partial-refresh listener: row-level upsert instead of rebuild."""
        if self.index is None or not self._index_fresh:
            return  # a stale index rebuilds from the patched cache on next use
        if self.index.metric == "cosine":
            self.index.upsert(item_ids, rows)  # cosine indexes carry no biases
        else:
            self.index.upsert(item_ids, rows, item_biases=biases)
        if self.monitor is not None:
            self.monitor.upsert(item_ids, rows, item_biases=biases)

    def _ensure_index(self):
        """Warm cache + index together; returns the live representations."""
        representations = self._cache.get()
        if not self._index_fresh:
            if self.index.metric == "cosine":
                # Cosine retrieval is angle-only by design: build over the
                # bare item vectors (biases are restored by the exact
                # rescoring pass in _recommend_from_candidates).  The cache
                # snapshot is already in the serving dtype — no copy.
                self.index.build(np.asarray(representations.items))
            else:
                self.index.build(representations)
            deleted = np.flatnonzero(self._unavailable)
            if deleted.size:
                # A rebuild resurrects every row; re-retire the deleted ones.
                self.index.delete(deleted)
            if self.monitor is not None:
                self.monitor.rebuild(
                    np.asarray(representations.items),
                    item_biases=representations.item_biases,
                )
                if deleted.size:
                    self.monitor.delete(deleted)
            self._index_fresh = True
        return representations

    def retrieve(self, users: "np.ndarray | Sequence[int]", candidate_k: int) -> tuple[np.ndarray, np.ndarray]:
        """Raw index candidates per user: ``(ids, index scores)``.

        Both are ``(len(users), candidate_k)``, padded with ``-1`` / ``-inf``
        where the index reaches fewer items.  The scores are the *index's*
        scores: when ``index.returns_exact_scores`` they are the exact biased
        dot products the service ranks by; otherwise (cosine retrieval,
        raw-ADC IVF-PQ) they are retrieval-stage scores that the serving path
        replaces with true model scores before ranking.
        """
        if self.index is None:
            raise RuntimeError("this service has no candidate-retrieval index; pass index= at construction")
        users = self._check_users(users)
        representations = self._ensure_index()
        queries = np.asarray(representations.users)[users]
        return self.index.search(queries, candidate_k)

    def _effective_candidate_k(self, request: RecommendRequest) -> int:
        candidate_k = request.candidate_k if request.candidate_k is not None else self.candidate_k
        if candidate_k is None:
            candidate_k = max(DEFAULT_CANDIDATE_MULTIPLE * request.k, MIN_CANDIDATE_K)
        return int(min(max(candidate_k, request.k), self.bipartite.num_items))

    # ------------------------------------------------------------------ #
    # Recommendation
    # ------------------------------------------------------------------ #
    def recommend(self, request: RecommendRequest) -> RecommendResponse:
        """Answer a batched top-K request.

        With a candidate-retrieval index configured, the request flows
        through retrieve → exact rescore → filter → rank over
        ``candidate_k`` candidates per user; otherwise the whole catalogue
        is scored.  An enabled ``obs`` bundle records one ``recommend``
        trace per call, with a child span per stage, and feeds the request
        latency histogram behind ``stats(detail=True)``.
        """
        obs = self.obs
        if not obs.enabled:
            return self._recommend(request)
        with obs.stage("recommend", self._met_request_seconds):
            response = self._recommend(request)
        self._met_requests.inc()
        self._met_users.inc(len(response.users))
        return response

    def _recommend(self, request: RecommendRequest) -> RecommendResponse:
        """Dispatch one request down the degradation ladder.

        Happy path: the candidate (ANN) pipeline.  When that path raises —
        any failure, from a corrupted memory-mapped page to an injected
        fault — the breaker records it and the request is re-answered by
        the exact full-catalogue scan, which shares no index state; once
        the breaker trips, requests skip the index without even trying
        until a half-open probe closes it again.  Responses that took a
        fallback (or shed deadline work) come back ``degraded=True`` with
        the reasons; the rankings themselves stay exact because the
        fallback scores every item.
        """
        users = self._check_users(request.users)
        self._requests_served += 1
        self._users_served += int(users.size)
        degradation: list[str] = []
        if self.index is None:
            response = self._recommend_full(request, users, degradation)
        elif self.breaker.allow():
            attempt: list[str] = []
            try:
                response = self._recommend_from_candidates(request, users, attempt)
            except Exception as error:
                self.breaker.record_failure()
                _LOGGER.warning(
                    "candidate path failed (%s: %s); serving the exact full-scan fallback",
                    type(error).__name__,
                    error,
                )
                degradation.append("index_error")
                response = self._recommend_full(request, users, degradation)
            else:
                self.breaker.record_success()
                degradation.extend(attempt)
        else:
            degradation.append("breaker_open")
            response = self._recommend_full(request, users, degradation)
        if degradation:
            self._degraded_requests += 1
            self._met_degraded.inc()
            for reason in degradation:
                self._reason_counter(reason).inc()
            response = replace(response, degraded=True, degradation=tuple(degradation))
        return response

    def _shed_explain(self, request: RecommendRequest, degradation: list[str]) -> bool:
        """Whether to compute explanations, after a last-moment budget check.

        Checked right before the explain stage — the first rung of the
        shedding ladder — so it sees the budget *after* retrieval and
        ranking actually spent their time.
        """
        if not request.explain:
            return False
        deadline = request.deadline
        if deadline is not None and deadline.fraction_remaining() < SHED_EXPLAIN_FRACTION:
            degradation.append("shed_explain")
            return False
        return True

    def _recommend_full(
        self, request: RecommendRequest, users: np.ndarray, degradation: list[str] | None = None
    ) -> RecommendResponse:
        """The full-catalogue path: score every item, mask, rank, explain."""
        obs = self.obs
        with obs.stage("score", self._met_stage["score"]):
            scores = self.score_matrix(users)
        with obs.stage("filter", self._met_stage["filter"]):
            allowed = self._allowed_mask(users, request)
        with obs.stage("rank", self._met_stage["rank"]):
            top_items = batch_top_k(scores, allowed, request.k)
        explain = (
            self._shed_explain(request, degradation) if degradation is not None else request.explain
        )
        with obs.stage("explain", self._met_stage["explain"]):
            results = tuple(
                self._build_recommendations(int(user), items, scores[row, items], explain)
                for row, (user, items) in enumerate(zip(users, top_items))
            )
        return RecommendResponse(users=tuple(int(u) for u in users), results=results)

    def _recommend_from_candidates(
        self, request: RecommendRequest, users: np.ndarray, degradation: list[str] | None = None
    ) -> RecommendResponse:
        """The ANN path: index retrieval, then exact rescoring of candidates."""
        obs = self.obs
        if degradation is None:
            degradation = []
        candidate_k = self._effective_candidate_k(request)
        nprobe_override = None
        deadline = request.deadline
        if deadline is not None:
            # The deeper shedding rungs, decided on the budget left when
            # retrieval starts: shrink the rescoring pool to k, and at the
            # last rung retrieve with the narrowest probe.
            fraction = deadline.fraction_remaining()
            if fraction < SHED_CANDIDATE_FRACTION and candidate_k > request.k:
                candidate_k = int(request.k)
                degradation.append("shed_candidate_k")
            if fraction < SHED_NPROBE_FRACTION and getattr(self.index, "nprobe", 1) > 1:
                nprobe_override = 1
                degradation.append("shed_nprobe")
        with obs.stage("retrieve", self._met_stage["retrieve"]):
            representations = self._ensure_index()
            user_matrix = np.asarray(representations.users)
            item_matrix = np.asarray(representations.items)
            queries = user_matrix[users]
            if nprobe_override is None:
                candidate_ids, candidate_scores = self.index.search(queries, candidate_k)
            else:
                restore = self.index.nprobe
                self.index.nprobe = nprobe_override
                try:
                    candidate_ids, candidate_scores = self.index.search(queries, candidate_k)
                finally:
                    self.index.nprobe = restore
            safe_ids = np.where(candidate_ids == PAD_ID, 0, candidate_ids)
        if obs.enabled:
            self._met_candidates.inc(int((candidate_ids != PAD_ID).sum()))
        if not self.index.returns_exact_scores:
            # The index's scores are not the model's ranking scores — cosine
            # retrieval ranks by angle, a raw ADC scan by quantized distance
            # — so exact-rescore the candidates only: gather their item
            # vectors (in row chunks so peak memory stays flat) and take
            # per-row biased dot products, all in the serving dtype.
            with obs.stage("rescore", self._met_stage["rescore"]):
                biases = (
                    None
                    if representations.item_biases is None
                    else np.asarray(representations.item_biases)
                )
                candidate_scores = np.empty(candidate_ids.shape, dtype=np.float64)
                rows_per_chunk = max(
                    1, RESCORE_CHUNK_ELEMENTS // max(1, candidate_k * item_matrix.shape[1])
                )
                for start in range(0, users.size, rows_per_chunk):
                    block = slice(start, start + rows_per_chunk)
                    chunk_scores = np.einsum(
                        "ud,ucd->uc", queries[block], item_matrix[safe_ids[block]]
                    )
                    if biases is not None:
                        chunk_scores = chunk_scores + biases[safe_ids[block]]
                    candidate_scores[block] = chunk_scores
        # An exact-scoring index (dot-metric exact/IVF/LSH, refined IVF-PQ)
        # already returned the model's biased dot products over the same
        # representation snapshot (it is rebuilt in lockstep with the
        # cache), so those scores are reused as-is.
        if self.monitor is not None:
            with obs.stage("monitor", self._met_stage["monitor"]):
                # Shadow-rescore a sample of this request's rows against the
                # exact oracle — before filtering, so the numbers measure the
                # retrieval stage rather than the request's filter set.
                sampled_rows = self.monitor.sample(users.size)
                if sampled_rows.size:
                    self.monitor.observe(
                        queries[sampled_rows],
                        candidate_ids[sampled_rows],
                        candidate_scores[sampled_rows],
                        request.k,
                    )
                if self.auto_tune:
                    self._maybe_auto_tune()
        with obs.stage("filter", self._met_stage["filter"]):
            keep = candidate_ids != PAD_ID
            if self.base_filters or request.filters:
                # General filters only speak the full (users, num_items) mask
                # contract, so materialise it and gather the candidate columns.
                allowed = self._allowed_mask(users, request)
                keep &= np.take_along_axis(allowed, safe_ids, axis=1)
            elif request.exclude_seen:
                # The common serving shape (exclude-seen only) stays
                # O(users × candidate_k): membership tests against each user's
                # history instead of a full-catalogue boolean mask.
                for row, user in enumerate(users):
                    keep[row] &= ~np.isin(candidate_ids[row], self.bipartite.user_items(int(user)))
            candidate_ids = np.where(keep, candidate_ids, PAD_ID)
            candidate_scores = np.where(keep, candidate_scores, PAD_SCORE)
        with obs.stage("rank", self._met_stage["rank"]):
            top_ids, top_scores = padded_top_k(candidate_ids, candidate_scores, request.k)
        explain = self._shed_explain(request, degradation)
        with obs.stage("explain", self._met_stage["explain"]):
            results = []
            for row, user in enumerate(users):
                valid = top_ids[row] != PAD_ID
                results.append(
                    self._build_recommendations(
                        int(user), top_ids[row][valid], top_scores[row][valid], explain
                    )
                )
        return RecommendResponse(users=tuple(int(u) for u in users), results=tuple(results))

    def _allowed_mask(self, users: np.ndarray, request: RecommendRequest) -> np.ndarray:
        """The composed ``(len(users), num_items)`` candidate mask of a request."""
        allowed = np.ones((users.size, self.bipartite.num_items), dtype=bool)
        if self._unavailable.any():
            allowed &= ~self._unavailable[None, :]
        for candidate_filter in (*self.base_filters, *request.filters):
            allowed = candidate_filter.apply(users, allowed)
        if request.exclude_seen:
            allowed = self._exclude_seen.apply(users, allowed)
        return allowed

    def top_k(
        self,
        user: int,
        k: int = 10,
        exclude_seen: bool = True,
        explain: bool = False,
        filters: Sequence[CandidateFilter] = (),
        candidate_k: int | None = None,
        deadline: "Deadline | float | None" = None,
    ) -> list[Recommendation]:
        """The ``k`` highest-scoring items for one user."""
        request = RecommendRequest(
            users=(int(user),),
            k=k,
            exclude_seen=exclude_seen,
            explain=explain,
            filters=tuple(filters),
            candidate_k=candidate_k,
            deadline=deadline,
        )
        return list(self.recommend(request).results[0])

    def recommend_batch(
        self,
        users: "np.ndarray | Iterable[int]",
        k: int = 10,
        exclude_seen: bool = True,
        explain: bool = False,
        filters: Sequence[CandidateFilter] = (),
        candidate_k: int | None = None,
        deadline: "Deadline | float | None" = None,
    ) -> dict[int, list[Recommendation]]:
        """Top-K lists for several users as a ``{user: list}`` mapping.

        An empty user collection yields an empty mapping (unlike
        :meth:`recommend`, whose request type insists on at least one user).
        """
        users = tuple(int(u) for u in users)
        if not users:
            return {}
        request = RecommendRequest(
            users=users,
            k=k,
            exclude_seen=exclude_seen,
            explain=explain,
            filters=tuple(filters),
            candidate_k=candidate_k,
            deadline=deadline,
        )
        return self.recommend(request).as_dict()

    # ------------------------------------------------------------------ #
    def _check_users(self, users: "np.ndarray | Sequence[int]") -> np.ndarray:
        users = np.asarray(users, dtype=np.int64).reshape(-1)
        if users.size == 0:
            raise ValueError("at least one user is required")
        if users.min() < 0 or users.max() >= self.bipartite.num_users:
            raise IndexError(
                f"user ids must lie in [0, {self.bipartite.num_users}), "
                f"got range [{users.min()}, {users.max()}]"
            )
        return users

    def _build_recommendations(
        self, user: int, items: np.ndarray, item_scores: np.ndarray, explain: bool
    ) -> tuple[Recommendation, ...]:
        affinities = None
        if explain and self._explainer.supported and items.size:
            affinities = self._explainer.affinities(items, self.bipartite.user_items(user))
        recommendations = []
        for position, item in enumerate(items):
            item = int(item)
            recommendations.append(
                Recommendation(
                    item=item,
                    score=float(item_scores[position]),
                    category=self.scene_graph.category_of(item) if self.scene_graph is not None else None,
                    scene_affinity=float(affinities[position]) if affinities is not None else None,
                )
            )
        return tuple(recommendations)
