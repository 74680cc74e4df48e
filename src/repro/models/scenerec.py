"""SceneRec: the paper's model (Section 4).

The model combines two views of every item:

* a **user-based** view aggregated from the users who interacted with the
  item (Eq. 2), symmetric to the user representation aggregated from the
  items a user interacted with (Eq. 1);
* a **scene-based** view propagated down the scene → category → item
  hierarchy (Eqs. 3-12), where category-category and item-item neighbours are
  weighted by the *scene-based attention*: the cosine similarity between the
  summed scene embeddings of the two endpoints (Eqs. 5-6 and 10-11).

The two item views are fused by an MLP (Eq. 13) and the user/item pair is
scored by a second MLP (Eq. 14).  Training uses the pairwise BPR loss
(Eq. 15), handled by :class:`repro.training.trainer.Trainer`.

Neither representation depends on the other side of the pair, so SceneRec is
a :class:`~repro.models.base.FactorizedRecommender`: catalogue scoring
encodes every user and item once and runs a frozen copy of the Eq. 14 MLP
(:class:`RatingHead`) over the cross product, and the serving cache and both
evaluators reuse that snapshot.

Every equation of the paper is referenced in the corresponding method so the
implementation can be audited line by line against the text.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.autograd.functional import concat, cosine_similarity, masked_softmax
from repro.autograd.tensor import Tensor, no_grad
from repro.graph.bipartite import UserItemBipartiteGraph
from repro.graph.sampling import NeighborTable
from repro.graph.scene_graph import SceneBasedGraph
from repro.models.base import FactorizedRecommender, FactorizedRepresentations
from repro.nn.activations import resolve_activation
from repro.nn.embedding import Embedding
from repro.nn.linear import Linear
from repro.nn.mlp import MLP
from repro.utils.rng import new_rng, spawn_rngs

__all__ = ["RatingHead", "SceneRecConfig", "SceneRec"]

#: Rows encoded per call when a snapshot encodes the whole catalogue, so the
#: ``(rows, neighbour cap, dim)`` gathers keep peak memory flat.
ENCODE_CHUNK = 8192


@dataclass(frozen=True)
class SceneRecConfig:
    """Hyper-parameters of SceneRec.

    The neighbour caps replace full neighbourhood aggregation with sampled
    fixed-width neighbourhoods (the paper's datasets cap item-item edges at
    300 per item anyway); ``component`` switches implement the Table-2
    ablations and are normally left at their defaults.
    """

    embedding_dim: int = 32
    #: cap on items aggregated per user (Eq. 1) and users per item (Eq. 2)
    user_item_cap: int = 30
    item_user_cap: int = 30
    #: cap on item-item neighbours in the scene-based graph (Eq. 9)
    item_item_cap: int = 15
    #: cap on category-category neighbours (Eq. 4)
    category_category_cap: int = 10
    #: cap on scenes per category (Eq. 3)
    category_scene_cap: int = 8
    #: hidden widths of the fusion MLP F(·) in Eq. 13 (output is embedding_dim)
    fusion_hidden: tuple[int, ...] = (64,)
    #: hidden widths of the rating MLP F(·) in Eq. 14 (output is a scalar)
    prediction_hidden: tuple[int, ...] = (64,)
    activation: str = "relu"
    dropout: float = 0.0
    seed: int = 0
    # ------------------------------------------------------------------ #
    # Ablation switches (Table 2): the full model keeps all three True.
    # ------------------------------------------------------------------ #
    #: keep the item-item sub-network of the scene-based graph (off = -noitem)
    use_item_item: bool = True
    #: keep the category and scene layers (off = -nosce)
    use_scene_hierarchy: bool = True
    #: keep the scene-based attention; off = uniform averaging (-noatt)
    use_attention: bool = True

    def __post_init__(self) -> None:
        if self.embedding_dim <= 0:
            raise ValueError(f"embedding_dim must be positive, got {self.embedding_dim}")
        for name in ("user_item_cap", "item_user_cap", "item_item_cap", "category_category_cap", "category_scene_cap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.use_item_item and not self.use_scene_hierarchy:
            raise ValueError(
                "at least one of use_item_item / use_scene_hierarchy must be enabled: "
                "disabling both removes the scene-based space entirely"
            )


class RatingHead:
    """A frozen copy of SceneRec's rating MLP (Eq. 14) for cached representations.

    Scores each user row against the whole item matrix — one MLP pass over
    ``[m_u ∥ m_i]`` per user, without gradient bookkeeping.  The MLP is
    copied when the head is made, so further training of the model does not
    reach a snapshot that holds it.
    """

    def __init__(self, prediction: MLP) -> None:
        self._prediction = copy.deepcopy(prediction)

    def __call__(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        scores = np.empty((users.shape[0], items.shape[0]), dtype=np.float64)
        item_tensor = Tensor(items)
        with no_grad():
            for row in range(users.shape[0]):
                tiled = Tensor(np.broadcast_to(users[row], items.shape))
                scores[row] = self._prediction(concat([tiled, item_tensor], axis=-1)).data.reshape(-1)
        return scores


class SceneRec(FactorizedRecommender):
    """Scene-based graph neural network for recommendation."""

    name = "SceneRec"
    scored_by_head = True

    def __init__(
        self,
        bipartite: UserItemBipartiteGraph,
        scene_graph: SceneBasedGraph,
        config: SceneRecConfig | None = None,
    ) -> None:
        super().__init__()
        if bipartite.num_items != scene_graph.num_items:
            raise ValueError(
                "bipartite graph and scene-based graph disagree on the number of items: "
                f"{bipartite.num_items} vs {scene_graph.num_items}"
            )
        self.config = config or SceneRecConfig()
        self.bipartite = bipartite
        self.scene_graph = scene_graph
        dim = self.config.embedding_dim
        rng = new_rng(self.config.seed)
        emb_rngs = spawn_rngs(int(rng.integers(0, 2**31 - 1)), 4)
        layer_rngs = spawn_rngs(int(rng.integers(0, 2**31 - 1)), 8)

        self.activation = resolve_activation(self.config.activation)

        # ------------------------------------------------------------------ #
        # Base embedding tables (users, items, categories, scenes)
        # ------------------------------------------------------------------ #
        self.user_embedding = Embedding(bipartite.num_users, dim, rng=emb_rngs[0])
        self.item_embedding = Embedding(bipartite.num_items, dim, rng=emb_rngs[1])
        if self.config.use_scene_hierarchy:
            self.category_embedding = Embedding(scene_graph.num_categories, dim, rng=emb_rngs[2])
            self.scene_embedding = Embedding(max(scene_graph.num_scenes, 1), dim, rng=emb_rngs[3])

        # ------------------------------------------------------------------ #
        # Aggregation layers
        # ------------------------------------------------------------------ #
        # Eq. 1: user modelling from interacted items.
        self.user_aggregation = Linear(dim, dim, rng=layer_rngs[0])
        # Eq. 2: user-based item modelling from engaged users.
        self.item_user_aggregation = Linear(dim, dim, rng=layer_rngs[1])
        if self.config.use_scene_hierarchy:
            # Eq. 7: category representation from scene-specific + category-specific parts.
            self.category_fusion = Linear(2 * dim, dim, rng=layer_rngs[2])
        # Eq. 12: scene-based item representation.
        scene_space_width = dim * (int(self.config.use_scene_hierarchy) + int(self.config.use_item_item))
        self.item_scene_fusion = Linear(scene_space_width, dim, rng=layer_rngs[3])
        # Eq. 13: general item embedding from the two item views.
        self.item_fusion = MLP(
            [2 * dim, *self.config.fusion_hidden, dim],
            activation=self.config.activation,
            dropout=self.config.dropout,
            rng=layer_rngs[4],
        )
        # Eq. 14: rating prediction from the user/item pair.
        self.prediction = MLP(
            [2 * dim, *self.config.prediction_hidden, 1],
            activation=self.config.activation,
            dropout=self.config.dropout,
            rng=layer_rngs[5],
        )

        # ------------------------------------------------------------------ #
        # Pre-computed padded neighbour tables
        # ------------------------------------------------------------------ #
        sample_rng = new_rng(int(rng.integers(0, 2**31 - 1)))
        self._user_items = NeighborTable.from_lists(
            [bipartite.user_items(u) for u in range(bipartite.num_users)],
            cap=self.config.user_item_cap,
            rng=sample_rng,
        )
        self._item_users = NeighborTable.from_lists(
            [bipartite.item_users(i) for i in range(bipartite.num_items)],
            cap=self.config.item_user_cap,
            rng=sample_rng,
        )
        if self.config.use_item_item:
            self._item_items = NeighborTable.from_lists(
                [scene_graph.item_neighbors(i) for i in range(scene_graph.num_items)],
                cap=self.config.item_item_cap,
                rng=sample_rng,
            )
        if self.config.use_scene_hierarchy:
            self._category_categories = NeighborTable.from_lists(
                [scene_graph.category_neighbors(c) for c in range(scene_graph.num_categories)],
                cap=self.config.category_category_cap,
                rng=sample_rng,
            )
            self._category_scenes = NeighborTable.from_lists(
                [scene_graph.category_scenes(c) for c in range(scene_graph.num_categories)],
                cap=self.config.category_scene_cap,
                rng=sample_rng,
            )
        self._item_category = scene_graph.item_category.copy()

    # ------------------------------------------------------------------ #
    # Building blocks
    # ------------------------------------------------------------------ #
    def _masked_sum(self, table: Embedding, indices: np.ndarray, mask: np.ndarray) -> Tensor:
        """Sum embeddings over padded neighbour slots, honouring the mask."""
        gathered = table(indices)  # (rows, cap, dim)
        return (gathered * Tensor(mask[..., None])).sum(axis=1)

    def _attention_weights(self, own_context: Tensor, neighbor_context: Tensor, mask: np.ndarray) -> Tensor:
        """Scene-based attention (Eqs. 5-6 / 10-11) or uniform averaging.

        ``own_context``/``neighbor_context`` are the summed scene embeddings of
        the two endpoints; the attention score is their cosine similarity,
        normalised with a masked softmax.  With attention disabled
        (``SceneRec-noatt``) every real neighbour receives equal weight.
        """
        if self.config.use_attention:
            scores = cosine_similarity(own_context.expand_dims(1), neighbor_context, axis=-1)
            return masked_softmax(scores, mask, axis=-1)
        uniform = mask / np.maximum(mask.sum(axis=-1, keepdims=True), 1.0)
        return Tensor(uniform)

    # ------------------------------------------------------------------ #
    # User modelling (Eq. 1)
    # ------------------------------------------------------------------ #
    def user_representation(self, users: np.ndarray) -> Tensor:
        """``m_u = σ(W_u · Σ_{i ∈ UI(u)} e_i + b_u)``."""
        indices, mask = self._user_items.take(users)
        aggregated = self._masked_sum(self.item_embedding, indices, mask)
        return self.activation(self.user_aggregation(aggregated))

    # ------------------------------------------------------------------ #
    # Item modelling — user-based space (Eq. 2)
    # ------------------------------------------------------------------ #
    def item_user_based_representation(self, items: np.ndarray) -> Tensor:
        """``m^U_i = σ(W_iu · Σ_{u ∈ IU(i)} e_u + b_iu)``."""
        indices, mask = self._item_users.take(items)
        aggregated = self._masked_sum(self.user_embedding, indices, mask)
        return self.activation(self.item_user_aggregation(aggregated))

    # ------------------------------------------------------------------ #
    # Item modelling — scene-based space (Eqs. 3-12)
    # ------------------------------------------------------------------ #
    def category_scene_context(self) -> Tensor:
        """``h^S_c = Σ_{s ∈ CS(c)} e_s`` for every category (Eq. 3).

        Also the per-category "scene context" reused by both attention
        mechanisms (Eqs. 5 and 10 compare exactly these sums).
        """
        if not self.config.use_scene_hierarchy:
            raise RuntimeError("scene hierarchy is disabled in this configuration")
        return self._masked_sum(self.scene_embedding, self._category_scenes.indices, self._category_scenes.mask)

    def category_representations(self) -> Tensor:
        """``m_c = σ(W_ic [h^S_c ∥ h^C_c] + b_ic)`` for every category (Eqs. 3-7)."""
        scene_context = self.category_scene_context()  # (C, d)
        neighbor_indices = self._category_categories.indices
        neighbor_mask = self._category_categories.mask
        # Eq. 5: compare the scene sets of the two categories via their summed
        # scene embeddings; Eq. 6: softmax over the neighbourhood.
        neighbor_context = scene_context.take_rows(neighbor_indices)  # (C, cap, d)
        weights = self._attention_weights(scene_context, neighbor_context, neighbor_mask)
        # Eq. 4: attention-weighted sum of neighbour category embeddings.
        neighbor_embeddings = self.category_embedding(neighbor_indices)  # (C, cap, d)
        category_specific = (neighbor_embeddings * weights.expand_dims(-1)).sum(axis=1)
        # Eq. 7: fuse the scene-specific and category-specific parts.
        fused = concat([scene_context, category_specific], axis=-1)
        return self.activation(self.category_fusion(fused))

    def item_scene_context(self, items: np.ndarray) -> Tensor:
        """Summed scene embeddings of the item's category — the ``IS(i)`` sums of Eq. 10."""
        categories = self._item_category[np.asarray(items, dtype=np.int64)]
        scene_context = self.category_scene_context()
        return scene_context.take_rows(categories)

    def item_scene_based_representation(self, items: np.ndarray) -> Tensor:
        """``m^S_i`` (Eq. 12), combining the category view and the item-item view."""
        items = np.asarray(items, dtype=np.int64)
        parts: list[Tensor] = []

        if self.config.use_scene_hierarchy:
            # Eq. 8: the item's category-specific representation is its
            # category's overall representation m_{C(i)}.
            category_representations = self.category_representations()
            categories = self._item_category[items]
            parts.append(category_representations.take_rows(categories))

        if self.config.use_item_item:
            neighbor_indices, neighbor_mask = self._item_items.take(items)
            if self.config.use_scene_hierarchy:
                # Eqs. 9-11: scene-based attention over item neighbours using
                # the scene context of each item's category.
                own_context = self.item_scene_context(items)
                neighbor_categories = self._item_category[neighbor_indices]
                neighbor_context = self.category_scene_context().take_rows(neighbor_categories)
                weights = self._attention_weights(own_context, neighbor_context, neighbor_mask)
            else:
                # Without the scene hierarchy (SceneRec-nosce) there is no
                # scene signal to attend with; fall back to uniform averaging.
                uniform = neighbor_mask / np.maximum(neighbor_mask.sum(axis=-1, keepdims=True), 1.0)
                weights = Tensor(uniform)
            neighbor_embeddings = self.item_embedding(neighbor_indices)
            parts.append((neighbor_embeddings * weights.expand_dims(-1)).sum(axis=1))

        fused = parts[0] if len(parts) == 1 else concat(parts, axis=-1)
        return self.activation(self.item_scene_fusion(fused))

    def item_representation(self, items: np.ndarray) -> Tensor:
        """``m_i = F(W_i [m^U_i ∥ m^S_i] + b_i)`` (Eq. 13)."""
        user_based = self.item_user_based_representation(items)
        scene_based = self.item_scene_based_representation(items)
        return self.item_fusion(concat([user_based, scene_based], axis=-1))

    # ------------------------------------------------------------------ #
    # Rating prediction (Eq. 14) and the Recommender interface
    # ------------------------------------------------------------------ #
    def predict_from_representations(self, user_repr: Tensor, item_repr: Tensor) -> Tensor:
        """``r'_{ui} = F(W_r [m_u ∥ m_i] + b_r)`` (Eq. 14)."""
        return self.prediction(concat([user_repr, item_repr], axis=-1)).squeeze(-1)

    def predict_pairs(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        users, items = self._check_index_arrays(users, items)
        user_repr = self.user_representation(users)
        item_repr = self.item_representation(items)
        return self.predict_from_representations(user_repr, item_repr)

    def factorized_representations(self) -> FactorizedRepresentations:
        """Every user's ``m_u`` (Eq. 1), every item's ``m_i`` (Eq. 13) and a :class:`RatingHead`.

        Both sides are encoded :data:`ENCODE_CHUNK` rows at a time.  Call
        :meth:`eval` first when dropout is enabled, as with any scoring path.
        """
        with no_grad():
            users = _encode_all(self.user_representation, self.bipartite.num_users)
            items = _encode_all(self.item_representation, self.bipartite.num_items)
        return FactorizedRepresentations(users=users, items=items, head=RatingHead(self.prediction))

    def bpr_scores(
        self, users: np.ndarray, positive_items: np.ndarray, negative_items: np.ndarray
    ) -> tuple[Tensor, Tensor]:
        """Share the user representation between the positive and negative branch."""
        users, positive_items = self._check_index_arrays(users, positive_items)
        _, negative_items = self._check_index_arrays(users, negative_items)
        user_repr = self.user_representation(users)
        positive_scores = self.predict_from_representations(user_repr, self.item_representation(positive_items))
        negative_scores = self.predict_from_representations(user_repr, self.item_representation(negative_items))
        return positive_scores, negative_scores

    # ------------------------------------------------------------------ #
    # Introspection used by the Figure-3 case study
    # ------------------------------------------------------------------ #
    def scene_attention_score(self, item_a: int, item_b: int) -> float:
        """Cosine similarity of the two items' summed scene embeddings (Eq. 10).

        The Figure-3 case study averages this quantity between a candidate
        item and each item in the user's history; a larger value means the two
        items share more (and more similar) scenes.
        """
        if not self.config.use_scene_hierarchy:
            raise RuntimeError("scene attention requires the scene hierarchy to be enabled")
        contexts = self.item_scene_context(np.array([item_a, item_b], dtype=np.int64)).data
        numerator = float(np.dot(contexts[0], contexts[1]))
        denominator = float(np.linalg.norm(contexts[0]) * np.linalg.norm(contexts[1])) + 1e-8
        return numerator / denominator


def _encode_all(encode: Callable[[np.ndarray], Tensor], count: int) -> np.ndarray:
    """``encode`` over ids ``0 .. count - 1``, in :data:`ENCODE_CHUNK`-row calls."""
    ids = np.arange(count, dtype=np.int64)
    return np.concatenate(
        [encode(ids[start : start + ENCODE_CHUNK]).data for start in range(0, count, ENCODE_CHUNK)],
        axis=0,
    )
