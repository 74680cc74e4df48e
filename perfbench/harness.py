"""Shared run machinery: timed operations, spans, repeated set-up, the result line."""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

#: End-to-end metrics of every untraced run, with their units.  Every
#: workload reports all of them (``BENCHMARK.json`` keeps one list), so the
#: names are roles; each workload defines its operation, row and cycle
#: (perfbench/README.md, "Metrics").
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "quality_at_10": "1",
    "rows_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cycle_s": "s",
}

#: Per-layer metrics of every traced run.  A layer that a workload never
#: calls reads 0 on that workload.
PER_LAYER = {
    "data.generate_s": "s",
    "training.fit_s": "s",
    "index.build_s": "s",
    "data.batcher.epoch_ms": "ms",
    "models.scenerec.forward_ms": "ms",
    "autograd.backward_ms": "ms",
    "optim.step_ms": "ms",
    "evaluation.sampled_s": "s",
    "evaluation.full_s": "s",
    "models.scenerec.item_representation_ms": "ms",
    "models.scenerec.item_rows_encoded": "count",
    "serving.score_ms": "ms",
    "serving.filter_ms": "ms",
    "serving.rank_ms": "ms",
    "serving.explain_ms": "ms",
    "serving.candidates_kept": "1",
    "serving.refresh_items_ms": "ms",
    "serving.degraded": "count",
    "index.search_ms": "ms",
    "index.candidates_scanned": "count",
    "index.scan_yield": "1",
    "index.upsert_ms": "ms",
    "index.delete_ms": "ms",
    "index.maintain_ms": "ms",
    "index.reclusters": "1",
    "index.snapshot.publish_ms": "ms",
    "index.snapshot.bytes": "B",
    "index.snapshot.publish_retries": "count",
    "index.snapshot.load_ms": "ms",
    "trace.op_p50_ms": "ms",
    "trace.cycle_s": "s",
}

#: How often each run performs its whole set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3


class RunAborted(Exception):
    """The run cannot go on (an operation that must not fail raised); it prints no result."""


class SpanLog:
    """Finished span trees, kept in memory and written out when the run ends.

    A record holds the request id of the operation it belongs to, the
    operation's name, its own name, start and end in seconds since the run
    started, the index of its parent record and its self time (duration minus
    the time its direct children cover).
    """

    def __init__(self, origin: float) -> None:
        self.origin = origin
        self.records: list[dict] = []

    def add(self, trace, started_at: float, request_id: str) -> None:
        """Append one finished :class:`repro.obs.Trace` whose root opened at ``started_at``."""
        base = len(self.records)
        child_seconds = [0.0] * len(trace.spans)
        for span in trace.spans:
            if span.parent is not None:
                child_seconds[span.parent] += span.duration
        offset = started_at - self.origin
        op = trace.spans[0].name
        for span, children in zip(trace.spans, child_seconds):
            start = offset + span.start
            self.records.append(
                {
                    "request": request_id,
                    "op": op,
                    "name": span.name,
                    "start": start,
                    "end": start + span.duration,
                    "parent": None if span.parent is None else base + span.parent,
                    "self": span.duration - children,
                }
            )

    def self_seconds(self, name: str, ops: "tuple[str, ...] | None" = None) -> float:
        """Summed self time of every span called ``name`` (under the given ops)."""
        return sum(
            record["self"]
            for record in self.records
            if record["name"] == name and (ops is None or record["op"] in ops)
        )

    def durations(self, name: str) -> list[float]:
        return [record["end"] - record["start"] for record in self.records if record["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")


class Run:
    """One workload run: its clock, counters, spans and result.

    ``op`` times one operation of the closed loop.  In a traced run every
    operation is the root span of a :class:`repro.obs.Tracer` trace, so the
    program's own stage spans (``obs=`` instrumentation) and the spans the
    benchmark opens around layer calls nest under it.
    """

    def __init__(self, workload: str, seed: int, seconds: int, traced: bool, root: Path, process_start: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.root = root
        self.process_start = process_start
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.setup_seconds: list[float] = []
        self.current_op: str | None = None
        if traced:
            from repro.obs import Tracer

            self.tracer = Tracer(capacity=4)
            self.spans: SpanLog | None = SpanLog(process_start)
        else:
            self.tracer = None
            self.spans = None

    # ------------------------------------------------------------------ #
    def bundle(self):
        """A fresh :class:`repro.obs.Observability` on the run's tracer; None untraced."""
        if self.tracer is None:
            return None
        from repro.obs import MetricsRegistry, Observability

        return Observability(registry=MetricsRegistry(), tracer=self.tracer)

    def span(self, name: str):
        """A child span of the current operation (a no-op untraced)."""
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def op(self, name: str, fn: Callable, *args, fatal: bool = True, **kwargs):
        """Run one timed operation and return ``(result, seconds)``.

        An operation that raises counts as failed.  A ``fatal`` one (a write
        whose failure leaves the benchmark's own ledger unsound) then aborts
        the run; any other returns ``None`` as its result.
        """
        self.attempted += 1
        self.current_op = name
        started = perf_counter()
        result = None
        try:
            with self.span(name):
                result = fn(*args, **kwargs)
        except Exception as error:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            if fatal:
                raise RunAborted(f"{name} raised {type(error).__name__}: {error}") from error
        finally:
            seconds = perf_counter() - started
            self.current_op = None
            if self.tracer is not None:
                self.spans.add(self.tracer.last_trace(), started, f"{name}-{self.attempted}")
        return result, seconds

    def reject(self, what: str, problems: list[str]) -> None:
        """Count one operation as failed when its output check found problems."""
        if problems:
            self.failed += 1
            self.check_failures.append(f"{what}: {'; '.join(problems)}")

    def keep_going(self, loop_started: float, cycles: int, min_cycles: int = 1) -> bool:
        """Whole cycles run until ``seconds`` elapsed and ``min_cycles`` are done."""
        return cycles < min_cycles or perf_counter() - loop_started < self.seconds

    def set_up(self, build: Callable[[], object]) -> object:
        """Run the whole set-up ``SETUP_REPEATS`` times and keep the last state.

        The first repetition is timed from the start of ``run.py``, so it
        includes the imports; ``setup_s`` is the median.  A state
        with a ``close()`` method (temp directories) is closed before the next
        repetition replaces it.
        """
        state = None
        for repeat in range(SETUP_REPEATS):
            close = getattr(state, "close", None)
            if close is not None:
                close()
            state = None
            gc.collect()
            started = self.process_start if repeat == 0 else perf_counter()
            mark = perf_counter()
            with self.span("setup"):
                state = build()
            self.setup_seconds.append(perf_counter() - started)
            if self.tracer is not None:
                self.spans.add(self.tracer.last_trace(), mark, f"setup-{repeat}")
        return state

    # ------------------------------------------------------------------ #
    def stamp(self) -> dict:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.traced),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "failpoints": os.environ.get("REPRO_FAILPOINTS"),
        }

    def result(self, metrics: "dict[str, float]", correct: bool) -> dict:
        """The result object: every metric of the run's mode, with its unit."""
        metrics = dict(metrics)
        if self.traced:
            spec = PER_LAYER
            for name in spec:
                metrics.setdefault(name, 0.0)  # the layer is idle on this workload
        else:
            spec = END_TO_END
            metrics["setup_s"] = statistics.median(self.setup_seconds)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if set(metrics) != set(spec):
            raise ValueError(f"metric set mismatch: {sorted(set(metrics) ^ set(spec))}")
        return {
            "correct": bool(correct and not self.check_failures),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": spec[name]} for name in spec},
        }

    def spans_path(self) -> Path:
        return self.root / ".perfbench-out" / f"{self.workload}-seed{self.seed}-spans.jsonl"


def trace_item_encoding(run: Run, model, rows: "dict[str | None, int]") -> None:
    """Wrap one SceneRec instance's ``item_representation`` for a traced run.

    Each call becomes a ``models.scenerec.item_representation`` span, and the
    rows it encodes are added to ``rows`` under the current operation's name.
    Only this instance's attribute is replaced; the class is untouched.
    """
    encode = model.item_representation

    def item_representation(items):
        rows[run.current_op] = rows.get(run.current_op, 0) + int(np.size(items))
        with run.span("models.scenerec.item_representation"):
            return encode(items)

    model.item_representation = item_representation


def popularity_weights(rng: np.random.Generator, count: int, exponent: float) -> np.ndarray:
    """Power-law request probabilities over ``count`` users in a seeded random order."""
    weights = np.empty(count)
    weights[rng.permutation(count)] = 1.0 / np.arange(1, count + 1) ** exponent
    return weights / weights.sum()


def percentile(values: "list[float]", q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def registry_histogram(registry, name: str, **labels: str) -> tuple[float, int]:
    """``(sum, count)`` of one histogram series of a :class:`repro.obs.MetricsRegistry`."""
    series = registry.histogram(name, labels=labels or None)
    return series.sum, series.count


def registry_counter(registry, name: str, **labels: str) -> float:
    return registry.counter(name, labels=labels or None).value


def mean_ms(total_seconds: float, count: int) -> float:
    return 1e3 * total_seconds / count if count else 0.0
