"""``ann_churn``: catalogue-scale ANN serving in the maintainer/worker shape.

A briefly trained BPR-MF over 1k users x 50k items backs two services.  The
maintainer holds an ``IVFPQIndex`` with exact re-rank and publishes it to a
``SnapshotStore`` in a temporary directory; the worker attaches with
``sync_snapshot()`` and answers the read trace.  A cycle is
``ROUNDS_PER_CYCLE`` write rounds -- each a block of reads followed by one
maintainer write (``refresh_items`` with new rows, then ``delete_items``) --
and then one publish (``maintain()``, ``publish_snapshot()`` when maintain
did not publish, ``prune()``) and one worker ``sync_snapshot()``.

The benchmark keeps its own copy of every row it pushes and every id it
deletes, and checks the worker against a NumPy brute force over the state
it last synced.
"""

from __future__ import annotations

import dataclasses
import shutil
import statistics
import tempfile
from time import perf_counter

import numpy as np

from perfbench import checks
from perfbench.harness import (
    Run,
    RunAborted,
    mean_ms,
    percentile,
    popularity_weights,
    registry_counter,
    registry_histogram,
)
from repro.data import dataset_config, generate_dataset, leave_one_out_split
from repro.index import IVFPQIndex
from repro.models import BPRMF
from repro.serving import CategoryAllowlistFilter, RecommendationService, RecommendRequest
from repro.training import TrainConfig, Trainer

NUM_USERS = 1_000
NUM_ITEMS = 50_000
#: Co-view sessions only shape the scene graph, which BPR-MF does not read;
#: fewer of them keep data generation (part of set-up) short.
SESSIONS_PER_USER = 2
EMBEDDING_DIM = 64
FIT_EPOCHS = 3
NPROBE = 8
#: Churned share of the live catalogue that queues a drift re-cluster: low
#: enough that ``maintain()`` re-clusters every few cycles of a run.
REBUILD_THRESHOLD = 0.02
K = 10
#: One read block: ``(users, allowlist)`` per request.  85% single-user, 10%
#: 16-user and 5% 64-user requests, so the median falls inside the first size
#: class and the 99th percentile well inside the last.
READS = ((1, False),) * 15 + ((1, True),) * 2 + ((16, False),) * 2 + ((64, False),)
ROUNDS_PER_CYCLE = 4
REFRESH_ROWS = 32
DELETE_ROWS = 8
ALLOWED_CATEGORIES = 3
PROBE_USERS = 4
USER_POPULARITY_EXPONENT = 1.0
#: Every read of the first block of a cycle is checked against the brute
#: force; ``quality_at_10`` is the mean recall of those checked in the first
#: ``QUALITY_CYCLES`` cycles, which every run completes.
QUALITY_CYCLES = 8
#: Served scores are float32 arithmetic on the stored rows; the brute force
#: runs in float64 on the same float32 rows.
SCORE_TOLERANCE = 1e-4


@dataclasses.dataclass
class State:
    directory: str
    graph: object
    item_category: np.ndarray
    model: object
    maintainer: RecommendationService
    worker: RecommendationService

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


class Ledger:
    """The benchmark's own copy of the catalogue: pushed rows and deletions.

    ``items``/``biases``/``live`` follow every maintainer write; the
    ``synced_*`` copies are the state of the last snapshot the worker
    attached, which is what its answers must match.
    """

    def __init__(self, users: np.ndarray, items: np.ndarray, biases: np.ndarray) -> None:
        self.users = users
        self.items = items.copy()
        self.biases = biases.copy()
        self.live = np.ones(items.shape[0], dtype=bool)
        self.deleted: list[int] = []
        self.sync()

    def sync(self) -> None:
        self.synced_items = self.items.astype(np.float64)
        self.synced_biases = self.biases.astype(np.float64)
        self.synced_live = self.live.copy()
        self.synced_deleted = np.array(self.deleted, dtype=np.int64)

    def scores(self, user: int) -> np.ndarray:
        """Brute-force scores of one user for every item of the synced state, in float64."""
        return self.synced_items @ self.users[user].astype(np.float64) + self.synced_biases


def _seeds(seed: int) -> dict:
    model, train, split, index, trace = np.random.SeedSequence([seed, 3]).generate_state(5)
    return {"model": int(model), "train": int(train), "split": int(split), "index": int(index), "trace": int(trace)}


def _build(run: Run, seeds: dict) -> State:
    config = dataclasses.replace(
        dataset_config("electronics"), num_users=NUM_USERS, num_items=NUM_ITEMS, sessions_per_user=SESSIONS_PER_USER
    )
    with run.span("data.generate"):
        dataset = generate_dataset(config)
    split = leave_one_out_split(dataset, rng=seeds["split"])
    graph = dataset.bipartite_graph(split.train_interactions)
    scene_graph = dataset.scene_graph()
    model = BPRMF(NUM_USERS, NUM_ITEMS, embedding_dim=EMBEDDING_DIM, seed=seeds["model"])
    with run.span("training.fit"):
        Trainer(model, split, TrainConfig(epochs=FIT_EPOCHS, eval_every=0, seed=seeds["train"])).fit()
    directory = tempfile.mkdtemp(prefix="ann_churn-", dir=_scratch(run))
    index = IVFPQIndex(nprobe=NPROBE, rebuild_threshold=REBUILD_THRESHOLD, seed=seeds["index"])
    if run.traced:
        build = index.build

        def timed_build(*args, **kwargs):
            with run.span("index.build"):
                return build(*args, **kwargs)

        index.build = timed_build
    maintainer = RecommendationService(
        model, graph, scene_graph, index=index, snapshots=f"{directory}/store", obs=run.bundle()
    )
    maintainer.publish_snapshot()
    worker = RecommendationService(model, graph, scene_graph, snapshots=f"{directory}/store", obs=run.bundle())
    if not worker.sync_snapshot():
        raise RuntimeError("the worker did not attach the first published snapshot")
    for size in (1, 16, 64):
        worker.recommend(RecommendRequest(users=tuple(range(size)), k=K))
    return State(directory, graph, dataset.item_category, model, maintainer, worker)


def _scratch(run: Run):
    path = run.root / ".perfbench-tmp"
    path.mkdir(exist_ok=True)
    return path


def _rows(response, position: int) -> tuple[np.ndarray, np.ndarray]:
    listed = response.results[position]
    return (
        np.array([rec.item for rec in listed], dtype=np.int64),
        np.array([rec.score for rec in listed], dtype=np.float64),
    )


def sync_problems(worker_version, published_version, worker_answer, maintainer_answer) -> list[str]:
    """Right after a sync the worker serves the published version, answering as the maintainer."""
    problems = []
    if worker_version != published_version:
        problems.append(f"worker serves snapshot {worker_version}, maintainer published {published_version}")
    if worker_answer != maintainer_answer:
        problems.append("worker and maintainer answer the probe request differently")
    return problems


def _answer(response) -> list:
    return [[(rec.item, rec.score) for rec in listed] for listed in response.results]


def run(run: Run) -> tuple[dict, bool]:
    seeds = _seeds(run.seed)
    state = run.set_up(lambda: _build(run, seeds))
    try:
        return _loop(run, state, seeds)
    finally:
        state.close()
        scratch = _scratch(run)
        if not any(scratch.iterdir()):
            scratch.rmdir()


def _loop(run: Run, state: State, seeds: dict) -> tuple[dict, bool]:
    rng = np.random.default_rng(seeds["trace"])
    representations = state.model.factorized_representations()
    ledger = Ledger(
        representations.users.astype(np.float32),
        representations.items.astype(np.float32),
        representations.item_biases.astype(np.float32),
    )
    row_scale = float(ledger.items.std())
    bias_mean, bias_scale = float(ledger.biases.mean()), float(ledger.biases.std())
    weights = popularity_weights(rng, NUM_USERS, USER_POPULARITY_EXPONENT)
    num_categories = int(state.item_category.max()) + 1
    probe = RecommendRequest(users=tuple(int(u) for u in rng.choice(NUM_USERS, PROBE_USERS, replace=False)), k=K)
    maintainer, worker = state.maintainer, state.worker

    latencies: list[float] = []
    cycles: list[float] = []
    rates: list[float] = []
    recalls: list[float] = []
    sample = None
    maintain_calls = 0
    published = []
    before = _registry_marks(maintainer, worker) if run.traced else None
    loop_started = perf_counter()
    while run.keep_going(loop_started, len(cycles), min_cycles=QUALITY_CYCLES):
        cycle_seconds = 0.0
        read_seconds = 0.0
        users_served = 0
        for write_round in range(ROUNDS_PER_CYCLE):
            for size, allowlist in (READS[i] for i in rng.permutation(len(READS))):
                users = rng.choice(NUM_USERS, size=size, replace=False, p=weights)
                categories = None
                filters = ()
                if allowlist:
                    categories = np.sort(rng.choice(num_categories, size=ALLOWED_CATEGORIES, replace=False))
                    filters = (CategoryAllowlistFilter(maintainer.scene_graph, categories),)
                request = RecommendRequest(users=tuple(int(u) for u in users), k=K, filters=filters)
                response, seconds = run.op("request", worker.recommend, request, fatal=False)
                latencies.append(seconds)
                cycle_seconds += seconds
                read_seconds += seconds
                if response is None:
                    continue
                users_served += size
                if response.degraded:
                    run.reject("request", [f"degraded response: {response.degradation}"])
                    continue
                allowed = ledger.synced_live
                if categories is not None:
                    allowed = allowed & np.isin(state.item_category, categories)
                problems = []
                for row, user in enumerate(request.users):
                    items, scores = _rows(response, row)
                    seen = state.graph.user_items(user)
                    # The first row of every read in a cycle's first block is
                    # checked against the brute force too.
                    reference = ledger.scores(user) if write_round == 0 and row == 0 else None
                    problems += checks.list_problems(
                        items, scores, k=K, allowed=allowed, seen=seen,
                        reference=reference, tolerance=SCORE_TOLERANCE,
                    )
                    if reference is None:
                        continue
                    if len(cycles) < QUALITY_CYCLES:
                        recalls.append(checks.recall(items, reference, allowed, seen, K))
                    if sample is None and ledger.synced_deleted.size and items.size == K:
                        sample = (items, scores, reference, allowed, seen, ledger.synced_deleted)
                run.reject("request", problems)

            refresh = rng.choice(np.flatnonzero(ledger.live), size=REFRESH_ROWS, replace=False)
            rows = rng.normal(0.0, row_scale, size=(REFRESH_ROWS, EMBEDDING_DIM)).astype(np.float32)
            biases = rng.normal(bias_mean, bias_scale, size=REFRESH_ROWS).astype(np.float32)
            candidates = ledger.live.copy()
            candidates[refresh] = False
            delete = rng.choice(np.flatnonzero(candidates), size=DELETE_ROWS, replace=False)
            _, seconds = run.op("write", _write, run, maintainer, refresh, rows, biases, delete)
            cycle_seconds += seconds
            ledger.items[refresh] = rows
            ledger.biases[refresh] = biases
            ledger.live[delete] = False
            ledger.deleted.extend(int(item) for item in delete)

        _, seconds = run.op("publish", _publish, maintainer)
        maintain_calls += 1
        cycle_seconds += seconds
        _, seconds = run.op("sync", worker.sync_snapshot)
        cycle_seconds += seconds
        cycles.append(cycle_seconds)
        rates.append(users_served / read_seconds)
        ledger.sync()
        published.append(maintainer.stats().snapshot_version)
        run.reject(
            "sync",
            sync_problems(
                worker.stats().snapshot_version,
                published[-1],
                _answer(worker.recommend(probe)),
                _answer(maintainer.recommend(probe)),
            ),
        )

    # Self-test: corrupted copies of a real checked list, and a stale worker.
    if sample is None:
        raise RunAborted("no fully checked list to self-test against")
    items, scores, reference, allowed, seen, dead = sample

    def check(items, scores):
        return checks.list_problems(
            items, scores, k=K, allowed=allowed, seen=seen, reference=reference, tolerance=SCORE_TOLERANCE
        )

    missed = checks.self_test(checks.list_corruptions(items, scores, seen, dead), check)
    answer = _answer(worker.recommend(probe))
    if not sync_problems(published[-1] - 1, published[-1], answer, answer):
        missed.append("stale snapshot")
    if missed:
        run.check_failures.append(f"self-test: corrupted outputs accepted: {missed}")

    if not run.traced:
        return {
            "quality_at_10": float(np.mean(recalls)),
            "rows_per_s": statistics.median(rates),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * percentile(latencies, 99),
            "cycle_s": statistics.median(cycles),
        }, True
    return _per_layer(run, state, before, latencies, cycles, maintain_calls), True


def _write(run: Run, maintainer, refresh, rows, biases, delete) -> None:
    with run.span("serving.refresh_items"):
        maintainer.refresh_items(refresh, items=rows, item_biases=biases)
    with run.span("serving.delete_items"):
        maintainer.delete_items(delete)


def _publish(maintainer) -> None:
    """``maintain()``, which publishes when it re-organised the index, else an explicit publish."""
    if not maintainer.maintain():
        maintainer.publish_snapshot()
    maintainer.snapshots.prune(keep=2)


# ---------------------------------------------------------------------- #
# Per-layer metrics (traced runs)
# ---------------------------------------------------------------------- #
_HISTOGRAMS = {
    "maintainer": (
        ("repro_index_upsert_seconds", {"backend": "ivfpq"}),
        ("repro_index_delete_seconds", {"backend": "ivfpq"}),
        ("repro_index_maintain_seconds", {"backend": "ivfpq"}),
        ("repro_snapshot_publish_seconds", {}),
    ),
    "worker": (
        ("repro_index_search_seconds", {"backend": "ivfpq"}),
        ("repro_snapshot_load_seconds", {}),
    ),
}
_COUNTERS = {
    "maintainer": (
        ("repro_index_maintain_runs_total", {"backend": "ivfpq"}),
        ("repro_snapshot_publish_bytes_total", {}),
        ("repro_snapshot_publish_retries_total", {}),
    ),
    "worker": (
        ("repro_index_queries_total", {"backend": "ivfpq"}),
        ("repro_index_candidates_scanned_total", {"backend": "ivfpq"}),
        ("repro_serving_candidates_total", {}),
    ),
}


def _registry_marks(maintainer, worker) -> dict:
    """Current ``(sum, count)`` of every histogram and value of every counter read."""
    services = {"maintainer": maintainer, "worker": worker}
    marks = {}
    for role, series in _HISTOGRAMS.items():
        for name, labels in series:
            marks[name] = registry_histogram(services[role].obs.registry, name, **labels)
    for role, series in _COUNTERS.items():
        for name, labels in series:
            marks[name] = registry_counter(services[role].obs.registry, name, **labels)
    return marks


def _per_layer(run: Run, state: State, before: dict, latencies, cycles, maintain_calls: int) -> dict:
    after = _registry_marks(state.maintainer, state.worker)
    delta = {}
    for name, value in after.items():
        if isinstance(value, tuple):
            delta[name] = (value[0] - before[name][0], value[1] - before[name][1])
        else:
            delta[name] = value - before[name]
    spans = run.spans
    requests = len(latencies)

    def stage_ms(name: str) -> float:
        return mean_ms(spans.self_seconds(name, ops=("request",)), requests)

    scanned = delta["repro_index_candidates_scanned_total"]
    publishes = delta["repro_snapshot_publish_seconds"][1]
    return {
        "data.generate_s": statistics.median(spans.durations("data.generate")),
        "training.fit_s": statistics.median(spans.durations("training.fit")),
        "index.build_s": statistics.median(spans.durations("index.build")),
        "index.search_ms": mean_ms(*delta["repro_index_search_seconds"]),
        "index.candidates_scanned": scanned / delta["repro_index_queries_total"],
        "index.scan_yield": delta["repro_serving_candidates_total"] / scanned,
        "serving.filter_ms": stage_ms("filter"),
        "serving.rank_ms": stage_ms("rank"),
        "serving.explain_ms": stage_ms("explain"),
        "serving.candidates_kept": _candidates_kept(state),
        "serving.refresh_items_ms": 1e3 * statistics.mean(spans.durations("serving.refresh_items")),
        "index.upsert_ms": mean_ms(*delta["repro_index_upsert_seconds"]),
        "index.delete_ms": mean_ms(*delta["repro_index_delete_seconds"]),
        "index.maintain_ms": mean_ms(delta["repro_index_maintain_seconds"][0], maintain_calls),
        "index.reclusters": delta["repro_index_maintain_runs_total"] / maintain_calls,
        "index.snapshot.publish_ms": mean_ms(*delta["repro_snapshot_publish_seconds"]),
        "index.snapshot.bytes": delta["repro_snapshot_publish_bytes_total"] / publishes,
        "index.snapshot.publish_retries": delta["repro_snapshot_publish_retries_total"],
        "index.snapshot.load_ms": mean_ms(*delta["repro_snapshot_load_seconds"]),
        "serving.degraded": float(state.worker.stats().degraded_requests),
        "trace.op_p50_ms": 1e3 * statistics.median(latencies),
        "trace.cycle_s": statistics.median(cycles),
    }


def _candidates_kept(state: State) -> float:
    """Share of retrieved candidates that survive exclude-seen, over a fixed user sample.

    Measured after the loop through ``retrieve()`` (the candidate stage on
    its own), with the service's default candidate budget.
    """
    users = np.arange(0, NUM_USERS, NUM_USERS // 100)
    ids, _ = state.worker.retrieve(users, max(4 * K, 64))
    kept = retrieved = 0
    for row, user in enumerate(users):
        found = ids[row][ids[row] >= 0]
        retrieved += found.size
        kept += int((~np.isin(found, state.graph.user_items(int(user)))).sum())
    return kept / retrieved
