"""``scenerec_train``: the paper's offline path.

One cycle trains a fresh SceneRec with ``Trainer.fit`` for a fixed number of
epochs, then ranks every test user under both protocols.  The timed
operations are the ``fit`` call and one ``evaluate`` per 64-user chunk of
the test split (the evaluators' own chunk size), which runs
``RankingEvaluator.evaluate`` and ``FullRankingEvaluator.evaluate`` on it.
"""

from __future__ import annotations

import dataclasses
import statistics
from time import perf_counter

import numpy as np

from perfbench.harness import Run, mean_ms, percentile, registry_histogram, trace_item_encoding
from repro.autograd import no_grad
from repro.data import dataset_config, generate_dataset, leave_one_out_split
from repro.evaluation import FullRankingEvaluator, RankingEvaluator
from repro.models import SceneRec, SceneRecConfig
from repro.training import TrainConfig, Trainer

SCALE = 5.0
EPOCHS = 2
EMBEDDING_DIM = 32
NUM_NEGATIVES = 100
K = 10
CHUNK_USERS = 64
#: The training job is the same for every seed: after a few epochs
#: SceneRec's test NDCG@10 swings by about +-10% with the split, the
#: initialisation or the batch order (0.30-0.41 measured over five seeds
#: each), which would drown any quality bound.  The seed permutes the test
#: users across the evaluation chunks instead.
SPLIT_SEED = 0
MODEL_SEED = 0
TRAIN_SEED = 0
#: Relative score gap under which two candidates count as tied: the
#: evaluators score through ``score_matrix`` and the check through pairwise
#: ``score``, so ranks may differ only across such near-ties.
TIE_TOLERANCE = 1e-9


@dataclasses.dataclass
class State:
    split: object
    train_graph: object
    scene_graph: object
    instances: list
    evaluators: list


def _build(run: Run) -> State:
    with run.span("data.generate"):
        dataset = generate_dataset(dataset_config("electronics", scale=SCALE))
    split = leave_one_out_split(dataset, num_negatives=NUM_NEGATIVES, rng=SPLIT_SEED)
    train_graph = dataset.bipartite_graph(split.train_interactions)
    scene_graph = dataset.scene_graph()
    order = np.random.default_rng([run.seed, 1]).permutation(len(split.test))
    instances = [split.test[i] for i in order]
    evaluators = []
    for start in range(0, len(instances), CHUNK_USERS):
        chunk = instances[start : start + CHUNK_USERS]
        evaluators.append(
            (RankingEvaluator(chunk, k=K), FullRankingEvaluator(dataclasses.replace(split, test=chunk), k=K))
        )
    return State(split, train_graph, scene_graph, instances, evaluators)


def _evaluate_chunk(run: Run, model, sampled, full):
    with run.span("evaluation.sampled"):
        sampled_result = sampled.evaluate(model)
    with run.span("evaluation.full"):
        full_result = full.evaluate(model)
    return sampled_result, full_result


def pairwise_ranks(model, instances) -> tuple[np.ndarray, np.ndarray]:
    """Each instance's rank among its 101 candidates from the pairwise ``score`` tier.

    Ties count against the positive.  Also returns which instances hold a
    near-tie, where the evaluators' ``score_matrix`` path may rank otherwise.
    """
    ranks, near_ties = [], []
    model.eval()
    with no_grad():
        for start in range(0, len(instances), CHUNK_USERS):
            chunk = instances[start : start + CHUNK_USERS]
            candidates = np.stack([instance.candidates() for instance in chunk])
            users = np.repeat([instance.user for instance in chunk], candidates.shape[1])
            scores = np.asarray(model.score(users, candidates.reshape(-1)), dtype=np.float64)
            scores = scores.reshape(candidates.shape)
            positive, negatives = scores[:, :1], scores[:, 1:]
            ranks.append((negatives >= positive).sum(axis=1))
            near_ties.append((np.abs(negatives - positive) <= TIE_TOLERANCE * (1.0 + np.abs(positive))).any(axis=1))
    return np.concatenate(ranks), np.concatenate(near_ties)


def hit_and_ndcg(ranks: np.ndarray) -> tuple[float, float]:
    """HR@K and NDCG@K of single-positive ranking tasks, from 0-based ranks."""
    hits = ranks < K
    gains = np.where(hits, 1.0 / np.log2(ranks + 2.0), 0.0)
    return float(hits.mean()), float(gains.mean())


def train_problems(
    losses: list[float],
    sampled_ranks: np.ndarray,
    hit_ratio: float,
    ndcg: float,
    full_ranks: np.ndarray,
    own_ranks: np.ndarray,
    near_ties: np.ndarray,
) -> list[str]:
    """Problems with one cycle's training history and evaluation results.

    ``sampled_ranks``, ``hit_ratio`` and ``ndcg`` are the sampled-protocol
    evaluator's figures and ``full_ranks`` the full-protocol evaluator's;
    ``own_ranks`` are the benchmark's pairwise ranks.
    """
    problems = []
    if not np.all(np.isfinite(losses)) or not losses[-1] < losses[0]:
        problems.append(f"mean loss does not fall from the first epoch to the last: {losses}")
    differ = (own_ranks != sampled_ranks) & ~near_ties
    if differ.any():
        problems.append(f"{int(differ.sum())} sampled-protocol ranks differ from the pairwise ranks")
    own_hit, own_ndcg = hit_and_ndcg(own_ranks)
    slack = (own_ranks != sampled_ranks).sum() / own_ranks.size + 1e-9
    if abs(own_hit - hit_ratio) > slack or abs(own_ndcg - ndcg) > slack:
        problems.append(
            f"evaluator HR@{K}={hit_ratio!r} NDCG@{K}={ndcg!r}, recomputed {own_hit!r} / {own_ndcg!r}"
        )
    if not hit_ratio > K / (NUM_NEGATIVES + 1):
        problems.append(f"HR@{K}={hit_ratio!r} does not beat random scoring ({K}/{NUM_NEGATIVES + 1})")
    # The sampled negatives are a subset of the full protocol's candidates.
    below = (full_ranks < sampled_ranks) & ~near_ties
    if below.any():
        problems.append(f"{int(below.sum())} full-catalogue ranks beat their sampled-protocol ranks")
    return problems


def run(run: Run) -> tuple[dict, bool]:
    state = run.set_up(lambda: _build(run))
    obs = run.bundle()
    fits: list[float] = []
    evaluations: list[float] = []
    cycles: list[float] = []
    rows: dict = {}
    first = None
    loop_started = perf_counter()
    while run.keep_going(loop_started, len(cycles)):
        model = SceneRec(
            state.train_graph,
            state.scene_graph,
            SceneRecConfig(embedding_dim=EMBEDDING_DIM, seed=MODEL_SEED),
        )
        if run.traced:
            trace_item_encoding(run, model, rows)
        trainer = Trainer(
            model, state.split, TrainConfig(epochs=EPOCHS, eval_every=0, seed=TRAIN_SEED), obs=obs
        )
        history, seconds = run.op("fit", trainer.fit)
        fits.append(seconds)
        cycle_seconds = seconds
        results = []
        for sampled, full in state.evaluators:
            result, seconds = run.op("evaluate", _evaluate_chunk, run, model, sampled, full)
            evaluations.append(seconds)
            cycle_seconds += seconds
            results.append(result)
        cycles.append(cycle_seconds)
        if first is None:
            first = (model, history, results)

    model, history, results = first
    sampled_ranks = np.concatenate([sampled.ranks for sampled, _ in results])
    full_ranks = np.concatenate([full.ranks for _, full in results])
    users = sampled_ranks.size
    hit_ratio = sum(sampled.hit_ratio * sampled.num_users for sampled, _ in results) / users
    ndcg = sum(sampled.ndcg * sampled.num_users for sampled, _ in results) / users
    own_ranks, near_ties = pairwise_ranks(model, state.instances)
    losses = history.losses
    run.reject("cycle 0", train_problems(losses, sampled_ranks, hit_ratio, ndcg, full_ranks, own_ranks, near_ties))

    shifted = sampled_ranks.copy()
    clean = np.flatnonzero(~near_ties)
    shifted[clean[0]] += 1
    lowered = full_ranks.copy()
    lowered[clean[np.argmax(sampled_ranks[clean])]] = sampled_ranks[clean].max() - 1
    corruptions = {
        "rising loss": (losses[::-1], sampled_ranks, hit_ratio, ndcg, full_ranks),
        "off rank": (losses, shifted, hit_ratio, ndcg, full_ranks),
        "off ndcg": (losses, sampled_ranks, hit_ratio, ndcg + 0.01, full_ranks),
        "random-level hit ratio": (losses, sampled_ranks, K / (NUM_NEGATIVES + 1), ndcg, full_ranks),
        "full rank above sampled": (losses, sampled_ranks, hit_ratio, ndcg, lowered),
    }
    missed = [
        name
        for name, args in corruptions.items()
        if not train_problems(*args, own_ranks, near_ties)
    ]
    if missed:
        run.check_failures.append(f"self-test: corrupted outputs accepted: {missed}")

    if not run.traced:
        train_rows = EPOCHS * state.split.num_train * len(fits)
        return {
            "quality_at_10": ndcg,
            "rows_per_s": train_rows / sum(fits),
            "op_p50_ms": 1e3 * statistics.median(evaluations),
            "op_tail_ms": 1e3 * percentile(evaluations, 75),
            "cycle_s": statistics.median(cycles),
        }, True

    spans = run.spans
    batches = -(-state.split.num_train // TrainConfig().batch_size)
    phases = {
        phase: registry_histogram(obs.registry, "repro_training_phase_seconds", phase=phase)
        for phase in Trainer.PHASES
    }
    epochs = phases["sampling"][1]
    return {
        "data.generate_s": statistics.median(spans.durations("data.generate")),
        "training.fit_s": statistics.median(fits),
        "data.batcher.epoch_ms": mean_ms(*phases["sampling"]),
        "models.scenerec.forward_ms": mean_ms(phases["forward"][0], epochs * batches),
        "autograd.backward_ms": mean_ms(phases["backward"][0], epochs * batches),
        "optim.step_ms": mean_ms(phases["step"][0], epochs * batches),
        "evaluation.sampled_s": sum(spans.durations("evaluation.sampled")) / len(cycles),
        "evaluation.full_s": sum(spans.durations("evaluation.full")) / len(cycles),
        "models.scenerec.item_representation_ms": mean_ms(
            spans.self_seconds("models.scenerec.item_representation", ops=("evaluate",)), len(evaluations)
        ),
        "models.scenerec.item_rows_encoded": rows.get("evaluate", 0) / len(evaluations),
        "trace.op_p50_ms": 1e3 * statistics.median(evaluations),
        "trace.cycle_s": statistics.median(cycles),
    }, True

