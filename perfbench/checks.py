"""Output checks against the benchmark's own computations, and their self-test.

Every check returns a list of problems; an empty list means the output
passed.  The self-test feeds deliberately corrupted copies of real outputs
through the same checks and reports every corruption that got through.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def exact_top_k(reference: np.ndarray, mask: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` masked-in items with the highest reference score, ties by ascending id."""
    candidates = np.flatnonzero(mask)
    values = reference[candidates]
    if candidates.size > k:
        keep = values >= np.partition(values, candidates.size - k)[candidates.size - k]
        candidates, values = candidates[keep], values[keep]
    return candidates[np.lexsort((candidates, -values))[:k]]


def list_problems(
    items: np.ndarray,
    scores: np.ndarray,
    *,
    k: int,
    allowed: np.ndarray,
    seen: np.ndarray,
    reference: "np.ndarray | None" = None,
    tolerance: float = 0.0,
    exhaustive: bool = False,
) -> list[str]:
    """Problems with one served top-``k`` list for one user.

    ``allowed`` marks the catalogue items the request may return (live and
    inside its filter) and ``seen`` lists the user's training items, which
    exclude-seen removes on top.  With ``reference`` -- the benchmark's own
    score of every catalogue item for the user -- served scores must match it
    within ``tolerance`` (relative, plus the same absolute amount), and an
    ``exhaustive`` (exact) serving path must leave out no eligible item that
    scores above its k-th item.
    """
    items = np.asarray(items, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if items.size > k or np.unique(items).size != items.size:
        return [f"{items.size} items or duplicates in a top-{k} list"]
    if items.size and (items.min() < 0 or items.max() >= allowed.size):
        return [f"item ids outside the catalogue: {items.tolist()}"]
    problems: list[str] = []
    if items.size > 1:
        drops = np.diff(scores)
        if (drops > 0).any() or ((drops == 0) & (np.diff(items) < 0)).any():
            problems.append("list is not in descending score order")
    served_seen = np.isin(items, seen)
    if served_seen.any():
        problems.append(f"seen items served: {items[served_seen].tolist()}")
    if not allowed[items].all():
        problems.append(f"deleted or filtered-out items served: {items[~allowed[items]].tolist()}")
    if reference is None:
        return problems
    off = np.abs(scores - reference[items]) > tolerance * (1.0 + np.abs(reference[items]))
    if off.any():
        problems.append(
            f"scores differ from the benchmark's own: item {int(items[off][0])} "
            f"served {scores[off][0]!r}, expected {reference[items[off][0]]!r}"
        )
    if exhaustive:
        left_out = eligible(allowed, seen)
        left_out[items] = False
        if items.size < k and left_out.any():
            problems.append(f"only {items.size} items served while more were eligible")
        elif items.size and left_out.any():
            best_left_out = reference[left_out].max()
            if best_left_out > reference[items].min() + tolerance * (1.0 + abs(best_left_out)):
                problems.append("an eligible item left out scores above the k-th served item")
    return problems


def eligible(allowed: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """The items a request may return for one user: allowed and not seen."""
    mask = allowed.copy()
    mask[seen] = False
    return mask


def recall(items: np.ndarray, reference: np.ndarray, allowed: np.ndarray, seen: np.ndarray, k: int) -> float:
    """Overlap of the served list with the benchmark's exact top-``k``."""
    truth = exact_top_k(reference, eligible(allowed, seen), k)
    if truth.size == 0:
        return 1.0
    return float(np.isin(np.asarray(items, dtype=np.int64), truth).sum()) / truth.size


def list_corruptions(items: np.ndarray, scores: np.ndarray, seen: np.ndarray, dead: np.ndarray) -> dict:
    """Corrupted copies of one served list: ``{name: (items, scores)}``.

    ``dead`` lists items the list must not contain (deleted, or outside the
    request's filter).
    """
    items = np.asarray(items, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    return {
        "reordered list": (items[::-1].copy(), scores[::-1].copy()),
        "seen item": (np.concatenate([items[:-1], seen[:1]]), scores.copy()),
        "off score": (items.copy(), scores + np.where(np.arange(items.size) == items.size // 2, 1e-2, 0.0)),
        "deleted or filtered-out item": (np.concatenate([items[:-1], dead[:1]]), scores.copy()),
    }


def self_test(corruptions: dict, check: Callable[[np.ndarray, np.ndarray], list[str]]) -> list[str]:
    """Names of the corruptions that ``check`` failed to reject."""
    return [name for name, (items, scores) in corruptions.items() if not check(items, scores)]
