"""Synthetic JD-like scene-structured behaviour generator.

The paper's four datasets are proprietary JD.com logs, so this module
implements the closest synthetic equivalent (see DESIGN.md §2).  The
generative story mirrors how scene structure arises in E-commerce behaviour:

1. draw a catalogue: scenes are sets of categories, items belong to exactly
   one category, item popularity within a category is Zipf-distributed;
2. every user has a *scene affinity*: a Dirichlet-concentrated distribution
   over a handful of scenes (a user setting up a home office, a new parent,
   ...), plus a small probability of off-scene "noise" clicks;
3. clicks: for every interaction the user first picks a scene from their
   affinity, then a category inside that scene, then an item inside that
   category;
4. co-view sessions are generated the same way, but with a stronger scene
   coherence (a browsing session rarely leaves its scene), and the item-item /
   category-category edges are derived from the sessions via the paper's
   top-k co-view pipeline (:mod:`repro.graph.builders`).

Because both the clicks and the scene-based graph are driven by the same
latent scene structure, a model that exploits the scene hierarchy (SceneRec)
has a genuine statistical edge over scene-blind collaborative filtering —
which is exactly the effect the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.data.schema import SceneRecDataset
from repro.graph.builders import (
    category_category_edges_from_sessions,
    item_item_edges_from_sessions,
)
from repro.utils.rng import new_rng

__all__ = ["SyntheticConfig", "generate_dataset"]


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic generator.

    The defaults produce a small dataset that trains in seconds; the named
    configurations in :mod:`repro.data.configs` scale these numbers to mirror
    the relative shape of the paper's Table 1.
    """

    name: str = "synthetic"
    num_users: int = 200
    num_items: int = 1000
    num_categories: int = 30
    num_scenes: int = 12
    #: how many categories a scene contains (uniformly drawn from this range)
    scene_size_range: tuple[int, int] = (3, 6)
    #: how many scenes a user is really interested in
    scenes_per_user: int = 2
    #: Dirichlet concentration of the user's affinity over their scenes
    affinity_concentration: float = 0.5
    #: probability that a click ignores the scene structure entirely
    noise_click_probability: float = 0.10
    #: number of observed clicks per user (before deduplication)
    interactions_per_user: int = 40
    #: co-view sessions per user and items per session
    sessions_per_user: int = 6
    session_length: int = 8
    #: probability that a session stays within a single scene
    session_scene_coherence: float = 0.9
    #: Zipf exponent for item popularity inside a category
    item_popularity_exponent: float = 1.1
    #: top-k caps of the graph construction pipeline (paper: 300 / 100)
    item_top_k: int = 30
    category_top_k: int = 15
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_users <= 0 or self.num_items <= 0:
            raise ValueError("num_users and num_items must be positive")
        if self.num_categories <= 0 or self.num_scenes <= 0:
            raise ValueError("num_categories and num_scenes must be positive")
        if self.num_items < self.num_categories:
            raise ValueError("need at least one item per category")
        low, high = self.scene_size_range
        if not 1 <= low <= high:
            raise ValueError(f"invalid scene_size_range {self.scene_size_range}")
        if high > self.num_categories:
            raise ValueError("scene_size_range upper bound exceeds the number of categories")
        if not 1 <= self.scenes_per_user <= self.num_scenes:
            raise ValueError("scenes_per_user must be in [1, num_scenes]")
        if not 0.0 <= self.noise_click_probability <= 1.0:
            raise ValueError("noise_click_probability must be in [0, 1]")
        if not 0.0 <= self.session_scene_coherence <= 1.0:
            raise ValueError("session_scene_coherence must be in [0, 1]")

    def scaled(self, factor: float) -> "SyntheticConfig":
        """Return a copy with user/item/interaction counts scaled by ``factor``."""
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        return replace(
            self,
            num_users=max(8, int(self.num_users * factor)),
            num_items=max(self.num_categories, int(self.num_items * factor)),
            interactions_per_user=max(4, int(self.interactions_per_user * factor)) if factor < 1 else self.interactions_per_user,
        )


def _assign_item_categories(config: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    """Give every category at least one item, then distribute the rest unevenly."""
    item_category = np.empty(config.num_items, dtype=np.int64)
    item_category[: config.num_categories] = np.arange(config.num_categories)
    if config.num_items > config.num_categories:
        # Category sizes follow a Dirichlet draw so some categories are large
        # (phone cases) and some are niche (ring lights), as in real catalogues.
        proportions = rng.dirichlet(np.full(config.num_categories, 2.0))
        item_category[config.num_categories :] = rng.choice(
            config.num_categories, size=config.num_items - config.num_categories, p=proportions
        )
    rng.shuffle(item_category)
    return item_category


def _build_scene_memberships(config: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw scene → category memberships; every scene gets >= 1 category."""
    low, high = config.scene_size_range
    edges: list[tuple[int, int]] = []
    for scene in range(config.num_scenes):
        size = int(rng.integers(low, high + 1))
        categories = rng.choice(config.num_categories, size=min(size, config.num_categories), replace=False)
        edges.extend((scene, int(category)) for category in categories)
    return np.array(sorted(set(edges)), dtype=np.int64)


def _weighted_cdf(probabilities: np.ndarray) -> np.ndarray:
    """The cumulative distribution ``Generator.choice(p=probabilities)`` builds.

    Computed once per distribution and passed to :func:`_draw_weighted`, so
    repeated draws do not rebuild it.
    """
    cdf = np.asarray(probabilities, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw_weighted(values: np.ndarray, cdf: np.ndarray, rng: np.random.Generator):
    """``rng.choice(values, p=p)`` for ``cdf = _weighted_cdf(p)``.

    One uniform draw located in the CDF, exactly as
    :meth:`numpy.random.Generator.choice` picks a single weighted value: the
    pick and the generator's state afterwards are the same as its.
    """
    return values[cdf.searchsorted(rng.random(), side="right")]


def _item_popularity_by_category(
    config: SyntheticConfig, item_category: np.ndarray, rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each category, the items it contains and the CDF of their Zipf click probabilities."""
    tables: list[tuple[np.ndarray, np.ndarray]] = []
    for category in range(config.num_categories):
        items = np.flatnonzero(item_category == category)
        if items.size == 0:
            tables.append((items, np.empty(0)))
            continue
        ranks = np.arange(1, items.size + 1, dtype=np.float64)
        weights = ranks ** (-config.item_popularity_exponent)
        order = rng.permutation(items.size)
        tables.append((items, _weighted_cdf(weights[order] / weights.sum())))
    return tables


def _draw_user_profiles(
    config: SyntheticConfig, scene_categories: list[np.ndarray], rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per user: the scenes they care about and the CDF of their affinity over them."""
    # Only scenes that actually contain categories can be drawn.
    valid_scenes = np.array([s for s, cats in enumerate(scene_categories) if cats.size > 0], dtype=np.int64)
    profiles: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(config.num_users):
        count = min(config.scenes_per_user, valid_scenes.size)
        scenes = rng.choice(valid_scenes, size=count, replace=False)
        affinity = rng.dirichlet(np.full(count, config.affinity_concentration))
        profiles.append((scenes, _weighted_cdf(affinity)))
    return profiles


def _pick_item_for_scene(
    scene: int,
    scene_pools: list[np.ndarray],
    popularity: list[tuple[np.ndarray, np.ndarray]],
    rng: np.random.Generator,
) -> int | None:
    """A category of the scene uniformly, then an item of it by popularity.

    ``scene_pools`` holds each scene's categories that contain items.
    """
    pool = scene_pools[scene]
    if pool.size == 0:
        return None
    category = int(rng.choice(pool))
    items, cdf = popularity[category]
    return int(_draw_weighted(items, cdf, rng))


def _pick_noise_item(config: SyntheticConfig, rng: np.random.Generator) -> int:
    return int(rng.integers(0, config.num_items))


def generate_dataset(config: SyntheticConfig) -> SceneRecDataset:
    """Generate a :class:`SceneRecDataset` according to ``config``.

    The same seed always produces the same dataset, interactions included, so
    benchmark runs are reproducible end-to-end.
    """
    rng = new_rng(config.seed)

    item_category = _assign_item_categories(config, rng)
    scene_category_edges = _build_scene_memberships(config, rng)
    scene_categories: list[np.ndarray] = [np.empty(0, dtype=np.int64) for _ in range(config.num_scenes)]
    grouped: dict[int, list[int]] = {}
    for scene, category in scene_category_edges:
        grouped.setdefault(int(scene), []).append(int(category))
    for scene, categories in grouped.items():
        scene_categories[scene] = np.array(sorted(categories), dtype=np.int64)

    popularity = _item_popularity_by_category(config, item_category, rng)
    profiles = _draw_user_profiles(config, scene_categories, rng)
    scene_pools = [
        np.array([c for c in categories if popularity[c][0].size > 0], dtype=np.int64)
        for categories in scene_categories
    ]

    # ------------------------------------------------------------------ #
    # Clicks (user-item bipartite graph)
    # ------------------------------------------------------------------ #
    interactions: set[tuple[int, int]] = set()
    for user, (scenes, affinity_cdf) in enumerate(profiles):
        for _ in range(config.interactions_per_user):
            if rng.random() < config.noise_click_probability:
                item = _pick_noise_item(config, rng)
            else:
                scene = int(_draw_weighted(scenes, affinity_cdf, rng))
                picked = _pick_item_for_scene(scene, scene_pools, popularity, rng)
                item = picked if picked is not None else _pick_noise_item(config, rng)
            interactions.add((user, item))
    interaction_array = np.array(sorted(interactions), dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Co-view sessions (drive item-item and category-category edges)
    # ------------------------------------------------------------------ #
    sessions: list[list[int]] = []
    for user, (scenes, affinity_cdf) in enumerate(profiles):
        for _ in range(config.sessions_per_user):
            session: list[int] = []
            anchor_scene = int(_draw_weighted(scenes, affinity_cdf, rng))
            for _ in range(config.session_length):
                if rng.random() < config.session_scene_coherence:
                    scene = anchor_scene
                else:
                    scene = int(rng.integers(0, config.num_scenes))
                picked = _pick_item_for_scene(scene, scene_pools, popularity, rng)
                session.append(picked if picked is not None else _pick_noise_item(config, rng))
            sessions.append(session)

    item_item_edges = item_item_edges_from_sessions(sessions, config.num_items, top_k=config.item_top_k)
    category_category_edges = category_category_edges_from_sessions(
        sessions, item_category, config.num_categories, top_k=config.category_top_k
    )

    return SceneRecDataset(
        name=config.name,
        num_users=config.num_users,
        num_items=config.num_items,
        num_categories=config.num_categories,
        num_scenes=config.num_scenes,
        interactions=interaction_array,
        item_category=item_category,
        item_item_edges=item_item_edges,
        category_category_edges=category_category_edges,
        scene_category_edges=scene_category_edges,
        sessions=sessions,
    )
