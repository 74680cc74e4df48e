"""``scenerec_serve``: the paper's model served over its whole catalogue.

An (untrained, seeded) SceneRec over electronics at 10x sits behind a
``RecommendationService`` with no index: SceneRec is not factorized, so every
request scores the full catalogue.  The timed operation is one
``recommend()`` call; a cycle is ``CYCLE`` requests in a seeded order.
"""

from __future__ import annotations

import dataclasses
import statistics
from time import perf_counter

import numpy as np

from perfbench import checks
from perfbench.harness import Run, mean_ms, percentile, popularity_weights, trace_item_encoding
from repro.autograd import no_grad
from repro.data import dataset_config, generate_dataset
from repro.models import SceneRec, SceneRecConfig
from repro.serving import CategoryAllowlistFilter, RecommendationService, RecommendRequest

SCALE = 10.0
EMBEDDING_DIM = 32
K = 10
BATCH_USERS = 16
ALLOWED_CATEGORIES = 5
#: One cycle of the request trace: ``(users, explain, allowlist)`` per
#: request.  Single-user requests are 60% so that the median falls inside
#: that size class and the 75th percentile inside the 16-user class.
CYCLE = (
    (1, False, False),
    (1, True, False),
    (1, False, True),
    (BATCH_USERS, False, False),
    (BATCH_USERS, True, False),
)
#: Requests checked against the pairwise tier: in cycle ``c`` the one of kind
#: ``CYCLE[c]``, for the first ``CHECKED_CYCLES`` cycles (which every run
#: completes), so the plain, explained and allowlisted single-user kinds and
#: a 16-user request are each checked once.  ``quality_at_10`` is their mean
#: recall, so it repeats exactly for a seed.
CHECKED_CYCLES = 4
USER_POPULARITY_EXPONENT = 1.0
#: Relative tolerance between the served (``score_matrix``) and the pairwise
#: (``score``) tier: the two run the same float64 arithmetic on differently
#: shaped batches.
SCORE_TOLERANCE = 1e-9


@dataclasses.dataclass
class State:
    graph: object
    scene_graph: object
    model: object
    service: object


def _build(run: Run, model_seed: int, obs) -> State:
    with run.span("data.generate"):
        dataset = generate_dataset(dataset_config("electronics", scale=SCALE))
    graph = dataset.bipartite_graph()
    scene_graph = dataset.scene_graph()
    model = SceneRec(graph, scene_graph, SceneRecConfig(embedding_dim=EMBEDDING_DIM, seed=model_seed))
    model.eval()
    service = RecommendationService(model, graph, scene_graph, obs=obs)
    # Warm-up: the first explained request fills the explainer's scene-context cache.
    service.recommend(RecommendRequest(users=(0,), k=K, explain=True))
    return State(graph, scene_graph, model, service)


def request_trace(rng: np.random.Generator, state: State):
    """An endless seeded stream of cycles of ``(kind, request, allowed categories)``."""
    num_users = state.graph.num_users
    weights = popularity_weights(rng, num_users, USER_POPULARITY_EXPONENT)
    num_categories = state.scene_graph.num_categories
    while True:
        cycle = []
        for kind in rng.permutation(len(CYCLE)):
            size, explain, allowlist = CYCLE[kind]
            users = rng.choice(num_users, size=size, replace=False, p=weights)
            categories = None
            filters = ()
            if allowlist:
                categories = np.sort(rng.choice(num_categories, size=ALLOWED_CATEGORIES, replace=False))
                filters = (CategoryAllowlistFilter(state.scene_graph, categories),)
            request = RecommendRequest(
                users=tuple(int(u) for u in users), k=K, exclude_seen=True, explain=explain, filters=filters
            )
            cycle.append((int(kind), request, categories))
        yield cycle


def allowed_items(state: State, categories) -> np.ndarray:
    """Items inside the request's category allowlist (all items without one)."""
    if categories is None:
        return np.ones(state.graph.num_items, dtype=bool)
    return np.isin(state.scene_graph.item_category, categories)


def pairwise_scores(model, user: int, num_items: int) -> np.ndarray:
    """The user's score for every catalogue item from the pairwise ``score`` tier."""
    with no_grad():
        return np.asarray(
            model.score(np.full(num_items, user, dtype=np.int64), np.arange(num_items, dtype=np.int64)),
            dtype=np.float64,
        )


def run(run: Run) -> tuple[dict, bool]:
    model_seed, trace_seed = (int(s) for s in np.random.SeedSequence([run.seed, 2]).generate_state(2))
    state = run.set_up(lambda: _build(run, model_seed, run.bundle()))
    rows: dict = {}
    if run.traced:
        trace_item_encoding(run, state.model, rows)
    trace = request_trace(np.random.default_rng(trace_seed), state)
    latencies: list[float] = []
    cycles: list[float] = []
    rates: list[float] = []
    checked = []
    loop_started = perf_counter()
    while run.keep_going(loop_started, len(cycles), min_cycles=CHECKED_CYCLES):
        cycle_seconds = 0.0
        users_served = 0
        for kind, request, categories in next(trace):
            response, seconds = run.op("request", state.service.recommend, request, fatal=False)
            latencies.append(seconds)
            cycle_seconds += seconds
            if response is None:
                continue
            users_served += len(request.users)
            if response.degraded:
                run.reject("request", [f"degraded response: {response.degradation}"])
            elif len(cycles) < CHECKED_CYCLES and kind == len(cycles):
                checked.append((request, categories, response))
        cycles.append(cycle_seconds)
        rates.append(users_served / cycle_seconds)

    # Checks, outside the timed calls: one row per checked request.
    recalls = []
    sample = None
    for request, categories, response in checked:
        user = request.users[0]
        listed = response.results[0]
        items = np.array([rec.item for rec in listed], dtype=np.int64)
        scores = np.array([rec.score for rec in listed], dtype=np.float64)
        reference = pairwise_scores(state.model, user, state.graph.num_items)
        allowed = allowed_items(state, categories)
        seen = state.graph.user_items(user)

        def check(items, scores, reference=reference, allowed=allowed, seen=seen):
            return checks.list_problems(
                items, scores, k=K, allowed=allowed, seen=seen,
                reference=reference, tolerance=SCORE_TOLERANCE, exhaustive=True,
            )

        run.reject(f"request for user {user}", check(items, scores))
        recalls.append(checks.recall(items, reference, allowed, seen, K))
        if categories is not None:
            sample = (check, items, scores, reference, allowed, seen)

    check, items, scores, reference, allowed, seen = sample
    corruptions = checks.list_corruptions(items, scores, seen, np.flatnonzero(~allowed))
    best = checks.exact_top_k(reference, checks.eligible(allowed, seen), K + 1)
    corruptions["better item left out"] = (best[1:], reference[best[1:]])
    missed = checks.self_test(corruptions, check)
    if missed:
        run.check_failures.append(f"self-test: corrupted outputs accepted: {missed}")

    if not run.traced:
        return {
            "quality_at_10": float(np.mean(recalls)),
            "rows_per_s": statistics.median(rates),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * percentile(latencies, 75),
            "cycle_s": statistics.median(cycles),
        }, True

    spans = run.spans
    requests = len(latencies)

    def stage_ms(name: str) -> float:
        return mean_ms(spans.self_seconds(name, ops=("request",)), requests)

    return {
        "data.generate_s": statistics.median(spans.durations("data.generate")),
        "serving.score_ms": stage_ms("score"),
        "models.scenerec.item_representation_ms": stage_ms("models.scenerec.item_representation"),
        "models.scenerec.item_rows_encoded": rows.get("request", 0) / requests,
        "serving.filter_ms": stage_ms("filter"),
        "serving.rank_ms": stage_ms("rank"),
        "serving.explain_ms": stage_ms("explain"),
        "serving.degraded": float(state.service.stats().degraded_requests),
        "trace.op_p50_ms": 1e3 * statistics.median(latencies),
        "trace.cycle_s": statistics.median(cycles),
    }, True
