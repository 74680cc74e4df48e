"""The common interface every recommender implements.

The trainer and the evaluator only talk to models through this interface, so
SceneRec, its ablations, the neural baselines and the heuristic baselines are
all interchangeable in the benchmark harness.

Scoring is a two-tier API:

* :meth:`Recommender.score` — pairwise scores for explicit ``(user, item)``
  index pairs; every model implements this via :meth:`Recommender.predict_pairs`.
* :meth:`Recommender.score_matrix` — a dense ``(len(users), num_items)``
  score matrix against the whole catalogue.  The base implementation falls
  back to batched :meth:`predict_pairs` tiling, so it works for any model;
  models that can do better override it.  :class:`FactorizedRecommender`
  provides the override for every model whose user and item sides can be
  encoded independently: the catalogue is encoded once, then scored by a
  user·item dot product (one ``(U, d) @ (d, I)`` matmul, optionally plus an
  item bias) or, for SceneRec, by a frozen copy of its rating MLP.

Full-catalogue consumers (the full-ranking evaluator, the serving layer)
should go through :func:`compute_score_matrix`, which also accepts duck-typed
models that only define ``score``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.nn.module import Module

__all__ = [
    "FactorizedRecommender",
    "FactorizedRepresentations",
    "Recommender",
    "compute_score_matrix",
    "has_matrix_fast_path",
]


class FactorizedRepresentations(NamedTuple):
    """The pieces of a factorized scoring function, as plain NumPy arrays.

    ``users`` is ``(num_users, d)``, ``items`` is ``(num_items, d)`` and
    ``item_biases`` (optional) is ``(num_items,)``.  ``head`` (optional)
    maps ``(user rows, item matrix)`` to their ``(rows, num_items)`` scores
    in place of the dot product — a frozen copy of the model's own scoring
    network.  The serving layer
    caches instances of this tuple so the item side is computed once per
    model refresh instead of once per request.
    """

    users: np.ndarray
    items: np.ndarray
    item_biases: np.ndarray | None = None
    head: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    @property
    def num_items(self) -> int:
        return int(self.items.shape[0])

    def score_matrix(self, users: np.ndarray) -> np.ndarray:
        """``users_matrix[users] @ items_matrix.T (+ biases)`` in one matmul.

        Runs in the matrices' own float precision — a float32 serving
        snapshot scores in float32 with no widening copies; models handing
        out float64 representations keep scoring in float64.  With a
        ``head`` the head scores the pairs instead of the matmul.
        """
        users = np.asarray(users, dtype=np.int64).reshape(-1)
        user_matrix = _as_float_array(self.users)
        item_matrix = _as_float_array(self.items)
        if self.head is None:
            scores = user_matrix[users] @ item_matrix.T
        else:
            scores = self.head(user_matrix[users], item_matrix)
        if self.item_biases is not None:
            scores = scores + _as_float_array(self.item_biases)[None, :]
        return scores


def _as_float_array(values: np.ndarray) -> np.ndarray:
    """A float view of ``values``: float32/float64 pass through, rest widen."""
    values = np.asarray(values)
    if values.dtype in (np.float32, np.float64):
        return values
    return values.astype(np.float64)


class Recommender(Module):
    """Base class for all recommendation models.

    Subclasses must implement :meth:`predict_pairs`, which returns a tensor of
    preference scores for ``(user, item)`` index pairs; training uses the
    differentiable tensor, evaluation uses the plain NumPy view via
    :meth:`score` or the catalogue-wide :meth:`score_matrix`.
    """

    #: set by subclasses; the benchmark harness reports it
    name: str = "recommender"
    #: heuristic models (popularity, random, kNN) set this to False so the
    #: trainer knows there is nothing to optimise
    trainable: bool = True

    def predict_pairs(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        """Return a ``(batch,)`` tensor of preference scores ``r'_{ui}``."""
        raise NotImplementedError(f"{type(self).__name__} does not implement predict_pairs()")

    def forward(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        return self.predict_pairs(users, items)

    def score(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """NumPy scores for evaluation (no gradient bookkeeping)."""
        return self.predict_pairs(np.asarray(users), np.asarray(items)).data.reshape(-1)

    def score_matrix(
        self,
        users: np.ndarray,
        num_items: int | None = None,
        item_batch: int = 8192,
    ) -> np.ndarray:
        """Scores of every user in ``users`` against the whole catalogue.

        Returns a ``(len(users), num_items)`` float64 matrix.  This default
        implementation tiles batched :meth:`score` calls, so any model gets a
        correct (if slow) catalogue path; factorized and representation-cached
        models override it with a vectorized fast path.

        ``num_items`` may be omitted when the model carries a ``num_items``
        attribute (all graph-built models do); ``item_batch`` bounds how many
        pairs are scored per model call so memory stays flat.
        """
        users = np.asarray(users, dtype=np.int64).reshape(-1)
        num_items = self._resolve_num_items(num_items)
        if item_batch <= 0:
            raise ValueError(f"item_batch must be positive, got {item_batch}")
        scores = np.empty((users.size, num_items), dtype=np.float64)
        all_items = np.arange(num_items, dtype=np.int64)
        with no_grad():
            for row, user in enumerate(users):
                for start in range(0, num_items, item_batch):
                    chunk = all_items[start : start + item_batch]
                    pair_users = np.full(chunk.size, user, dtype=np.int64)
                    scores[row, start : start + chunk.size] = np.asarray(
                        self.score(pair_users, chunk), dtype=np.float64
                    ).reshape(-1)
        return scores

    def _resolve_num_items(self, num_items: int | None) -> int:
        if num_items is not None:
            return int(num_items)
        inferred = getattr(self, "num_items", None)
        if inferred is None:
            raise ValueError(
                f"{type(self).__name__} does not expose num_items; pass num_items= explicitly"
            )
        return int(inferred)

    def bpr_scores(
        self, users: np.ndarray, positive_items: np.ndarray, negative_items: np.ndarray
    ) -> tuple[Tensor, Tensor]:
        """Scores of the positive and negative items for a BPR batch.

        The default implementation calls :meth:`predict_pairs` twice; models
        that can share intermediate computation (e.g. the user embedding) may
        override this for speed.
        """
        return self.predict_pairs(users, positive_items), self.predict_pairs(users, negative_items)

    @staticmethod
    def _check_index_arrays(users: np.ndarray, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        users = np.asarray(users, dtype=np.int64).reshape(-1)
        items = np.asarray(items, dtype=np.int64).reshape(-1)
        if users.shape != items.shape:
            raise ValueError(f"users and items must have equal length, got {users.shape} and {items.shape}")
        return users, items


class FactorizedRecommender(Recommender):
    """Recommenders whose user and item sides are encoded independently.

    A user's representation does not depend on the item it is scored
    against, nor the other way round, so both sides are encoded once and
    then scored: by a dot product ``u · i (+ b_i)``, or by a model head (see
    :attr:`scored_by_head`).  Subclasses implement
    :meth:`factorized_representations`; everything else — the catalogue
    :meth:`score_matrix` fast path, the convenience accessors, the
    serving-layer representation cache — is derived from it.
    """

    #: Whether a model head, not the dot product, scores user/item pairs.
    #: Candidate-retrieval indexes rank by dot product, so they cannot
    #: serve such a model.
    scored_by_head: bool = False

    def factorized_representations(self) -> FactorizedRepresentations:
        """User matrix, item matrix and optional item biases or head, computed once.

        Models that derive both sides from a shared computation (e.g. one
        full-graph propagation) implement this so the work is not repeated per
        side.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement factorized_representations()"
        )

    # Convenience accessors over the combined method. ------------------- #
    def user_representations(self) -> np.ndarray:
        """``(num_users, d)`` matrix of serving-time user vectors."""
        return self.factorized_representations().users

    def item_representations(self) -> np.ndarray:
        """``(num_items, d)`` matrix of serving-time item vectors."""
        return self.factorized_representations().items

    def item_biases(self) -> np.ndarray | None:
        """Optional ``(num_items,)`` additive item biases."""
        return self.factorized_representations().item_biases

    def score_matrix(
        self,
        users: np.ndarray,
        num_items: int | None = None,
        item_batch: int = 8192,
    ) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64).reshape(-1)
        with no_grad():
            representations = self.factorized_representations()
        if num_items is not None and int(num_items) != representations.num_items:
            raise ValueError(
                f"model factorizes over {representations.num_items} items, "
                f"but num_items={num_items} was requested"
            )
        return representations.score_matrix(users)


def has_matrix_fast_path(model: object) -> bool:
    """True when ``model`` overrides the default tiled :meth:`score_matrix`.

    Consumers with a cheap pairwise alternative (e.g. the sampled-negative
    evaluator, which only needs ~100 candidates per user) use this to decide
    whether scoring the whole catalogue is actually a win.
    """
    method = getattr(type(model), "score_matrix", None)
    return method is not None and method is not Recommender.score_matrix


def compute_score_matrix(
    model: object,
    users: np.ndarray,
    *,
    num_items: int,
    item_batch: int = 8192,
) -> np.ndarray:
    """Dispatch to ``model.score_matrix`` or tile a duck-typed ``model.score``.

    The evaluation protocols accept anything with a ``score(users, items)``
    method (e.g. hand-written oracles in tests); this helper gives those the
    same catalogue-matrix contract as real :class:`Recommender` subclasses.
    """
    users = np.asarray(users, dtype=np.int64).reshape(-1)
    if num_items <= 0:
        raise ValueError(f"num_items must be positive, got {num_items}")
    if item_batch <= 0:
        raise ValueError(f"item_batch must be positive, got {item_batch}")
    if hasattr(model, "score_matrix"):
        scores = np.asarray(
            model.score_matrix(users, num_items=num_items, item_batch=item_batch),
            dtype=np.float64,
        )
    else:
        scores = np.empty((users.size, num_items), dtype=np.float64)
        all_items = np.arange(num_items, dtype=np.int64)
        for row, user in enumerate(users):
            for start in range(0, num_items, item_batch):
                chunk = all_items[start : start + item_batch]
                pair_users = np.full(chunk.size, user, dtype=np.int64)
                scores[row, start : start + chunk.size] = np.asarray(
                    model.score(pair_users, chunk), dtype=np.float64
                ).reshape(-1)
    if scores.shape != (users.size, num_items):
        raise ValueError(
            f"score matrix has shape {scores.shape}, expected {(users.size, num_items)}"
        )
    return scores
