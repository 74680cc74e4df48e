"""Precomputed representation cache with explicit invalidation.

Factorized models — the dot-product baselines and SceneRec alike — can
answer every request from two dense matrices (plus, for SceneRec, a frozen
copy of its rating MLP); the cache computes them once (lazily, in eval mode,
without gradient bookkeeping) and hands them out until
:meth:`ItemRepresentationCache.refresh` is called — which the owner must do
after further training or any parameter mutation.

A dot-product snapshot is stored in a configurable ``dtype`` — float32 by
default: serving is memory-bandwidth-bound, and halving every matrix the hot
path touches (score matmuls, index builds, candidate rescoring) buys real
throughput while model training stays float64.  Pass ``dtype="float64"``
for bit-exact parity with the live model's scores.  A head-scored snapshot
always stays float64: its head is a float64 MLP, and rounding the head's
inputs to float32 would move its scores for no bandwidth saving.

Downstream state derived from the cached matrices (most importantly a
candidate-retrieval index built over the item side) must go stale in the same
breath: such consumers register a callback via
:meth:`ItemRepresentationCache.subscribe`, and every ``refresh()`` notifies
them after dropping the cached representations.

When only a handful of items changed — an online catalogue update, a
row-sparse fine-tuning step — dropping everything is wasteful:
:meth:`ItemRepresentationCache.refresh_items` patches just those rows of the
warm snapshot and notifies :meth:`ItemRepresentationCache.subscribe_partial`
listeners with the affected ``(ids, vectors, biases)``, so an index can
``upsert`` the rows instead of rebuilding.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.models.base import FactorizedRecommender, FactorizedRepresentations

__all__ = ["ItemRepresentationCache"]

#: A partial-refresh listener: ``(item_ids, item_vectors, item_biases)``.
PartialRefreshListener = Callable[[np.ndarray, np.ndarray, "np.ndarray | None"], None]

#: Dtypes a snapshot may be held in.
_SNAPSHOT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class ItemRepresentationCache:
    """Lazy cache of a factorized model's user/item representation matrices.

    ``dtype`` fixes the precision of a dot-product snapshot (float32
    default, float64 for bit-exact serving); all rows handed to
    partial-refresh listeners are in the snapshot's dtype too, so derived
    state (indexes, monitor oracles) stays precision-consistent with the
    snapshot it was built from.  Head-scored snapshots are always float64.
    """

    def __init__(self, model: object, dtype: "str | np.dtype" = "float32") -> None:
        dtype = np.dtype(dtype)
        if dtype not in _SNAPSHOT_DTYPES:
            raise ValueError(f"dtype must be float32 or float64, got {dtype}")
        self._model = model
        self._dtype = dtype
        self._representations: FactorizedRepresentations | None = None
        self._refresh_listeners: list[Callable[[], None]] = []
        self._partial_listeners: list[PartialRefreshListener] = []

    @property
    def supported(self) -> bool:
        """Whether the wrapped model exposes factorized representations."""
        return isinstance(self._model, FactorizedRecommender)

    @property
    def dtype(self) -> np.dtype:
        """The precision of a dot-product snapshot."""
        return self._dtype

    @property
    def is_warm(self) -> bool:
        """Whether a subsequent :meth:`get` will be answered from memory."""
        return self._representations is not None

    def get(self) -> FactorizedRepresentations:
        """The cached representations, computing them on first use."""
        if not self.supported:
            raise TypeError(
                f"{type(self._model).__name__} is not a FactorizedRecommender; "
                "there is nothing to cache"
            )
        if self._representations is None:
            representations = self._compute_live()
            # Snapshot with copies (casting to the snapshot dtype): models
            # may hand out live views of their weight tables, and row-sparse
            # optimisers mutate those in place — a cache must stay stale
            # until refresh().  A head is already a frozen copy.
            dtype = self._dtype if representations.head is None else np.dtype(np.float64)
            self._representations = FactorizedRepresentations(
                users=np.array(representations.users, dtype=dtype, copy=True),
                items=np.array(representations.items, dtype=dtype, copy=True),
                item_biases=(
                    None
                    if representations.item_biases is None
                    else np.array(representations.item_biases, dtype=dtype, copy=True)
                ),
                head=representations.head,
            )
        return self._representations

    def _compute_live(self) -> FactorizedRepresentations:
        """Evaluate the live model's representations (eval mode, restored)."""
        model = self._model
        was_training = getattr(model, "training", False)
        if hasattr(model, "eval"):
            model.eval()
        try:
            return model.factorized_representations()
        finally:
            if was_training and hasattr(model, "train"):
                model.train()

    def subscribe(self, listener: Callable[[], None]) -> None:
        """Register a callback invoked on every :meth:`refresh`.

        Consumers that derive state from the cached matrices (e.g. an ANN
        index over the item representations) use this to invalidate — or
        rebuild — in lockstep with the cache.
        """
        if not callable(listener):
            raise TypeError(f"refresh listener must be callable, got {type(listener).__name__}")
        self._refresh_listeners.append(listener)

    def subscribe_partial(self, listener: PartialRefreshListener) -> None:
        """Register a callback invoked on every :meth:`refresh_items`.

        The listener receives ``(item_ids, item_vectors, item_biases)`` —
        the rows just patched into the warm snapshot — so derived state can
        apply the same row-level update (``index.upsert``) instead of
        rebuilding from scratch.
        """
        if not callable(listener):
            raise TypeError(f"partial-refresh listener must be callable, got {type(listener).__name__}")
        self._partial_listeners.append(listener)

    def refresh(self) -> None:
        """Invalidate: the next :meth:`get` recomputes from the live model.

        Subscribed listeners are notified after the cached representations
        are dropped, so a listener that re-reads the cache sees fresh state.
        """
        self._representations = None
        for listener in self._refresh_listeners:
            listener()

    def refresh_items(
        self,
        item_ids: "np.ndarray | list[int]",
        items: np.ndarray | None = None,
        item_biases: np.ndarray | None = None,
    ) -> None:
        """Patch the given item rows of the warm snapshot in place.

        ``items`` (and ``item_biases``, when the model has biases) may supply
        the new rows directly — the caller thereby asserts these are the
        *only* rows that changed; when omitted they are pulled from the live
        model, which makes this the cheap invalidation path after a
        row-sparse model update: the snapshot stays warm, only the named
        rows move, and :meth:`subscribe_partial` listeners receive them.
        If the pulled representations turn out to differ *outside* the named
        rows (propagation models spread any parameter change across
        neighbours and the user side), the patch would be unsound and a full
        :meth:`refresh` runs instead — as it always does for a head-scored
        snapshot, whose frozen head may have moved with the model.

        A cold cache is a no-op — the next :meth:`get` recomputes everything
        from the live model anyway, and derived state was invalidated with
        it.  Only existing item ids are accepted; growing the catalogue
        needs a full :meth:`refresh` cycle.
        """
        ids = np.asarray(item_ids, dtype=np.int64).reshape(-1)
        if ids.size == 0:
            return
        if np.unique(ids).size != ids.size:
            raise ValueError("duplicate item ids in one refresh_items batch")
        if self._representations is None:
            return
        cached = self._representations
        if ids.min() < 0 or ids.max() >= cached.num_items:
            raise IndexError(
                f"item ids must lie in [0, {cached.num_items}), "
                f"got range [{ids.min()}, {ids.max()}]"
            )
        dtype = cached.items.dtype
        if items is None:
            if item_biases is not None:
                raise ValueError("item_biases without items: pass both or neither")
            if cached.head is not None:
                self.refresh()
                return
            live = self._compute_live()
            live_items = np.asarray(live.items, dtype=dtype)
            if not self._change_confined_to(live, cached, ids):
                # Propagation models (LightGCN, NGCF, …) mix nodes: an item
                # update moves neighbouring rows and the user side too, so a
                # row-level patch would silently corrupt the snapshot.  Fall
                # back to a full refresh — correctness over cheapness.
                self.refresh()
                return
            rows = live_items[ids]
            biases = (
                None
                if live.item_biases is None or cached.item_biases is None
                else np.asarray(live.item_biases, dtype=dtype)[ids]
            )
        else:
            rows = np.asarray(items, dtype=dtype)
            if rows.ndim == 1:
                rows = rows[None, :]
            if rows.shape != (ids.size, cached.items.shape[1]):
                raise ValueError(
                    f"expected ({ids.size}, {cached.items.shape[1]}) item rows, "
                    f"got shape {rows.shape}"
                )
            biases = None
            if cached.item_biases is not None:
                if item_biases is None:
                    raise ValueError("this model has item biases; refresh_items needs item_biases")
                biases = np.asarray(item_biases, dtype=dtype).reshape(-1)
                if biases.size != ids.size:
                    raise ValueError(f"{biases.size} biases for {ids.size} refreshed items")
            elif item_biases is not None:
                raise ValueError("this model has no item biases; drop item_biases")
        cached.items[ids] = rows
        if biases is not None:
            cached.item_biases[ids] = biases
        for listener in self._partial_listeners:
            listener(ids, rows, biases)

    def _change_confined_to(
        self, live: FactorizedRepresentations, cached: FactorizedRepresentations, ids: np.ndarray
    ) -> bool:
        """Whether the live model differs from the snapshot only in ``ids``.

        True for raw-embedding-table models (the rows a parameter update
        touched are exactly the rows that moved); false whenever a shared
        computation spread the change — recomputing unchanged parameters is
        deterministic (and rounding to the snapshot dtype is too), so any
        divergence outside ``ids`` is a real change.
        """
        live_users = np.asarray(live.users, dtype=self._dtype)
        if not np.array_equal(live_users, cached.users):
            return False
        untouched = np.ones(cached.num_items, dtype=bool)
        untouched[ids] = False
        live_items = np.asarray(live.items, dtype=self._dtype)
        if live_items.shape != cached.items.shape or not np.array_equal(
            live_items[untouched], cached.items[untouched]
        ):
            return False
        if cached.item_biases is not None and live.item_biases is not None:
            live_biases = np.asarray(live.item_biases, dtype=self._dtype).reshape(-1)
            if not np.array_equal(live_biases[untouched], cached.item_biases[untouched]):
                return False
        return True
