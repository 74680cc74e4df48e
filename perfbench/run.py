"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The workload runs in this process with one client thread and BLAS pinned to
``BLAS_THREADS`` threads.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` turns the program's own instrumentation on, prints the
per-layer metrics and writes the run's spans to
``.perfbench-out/<workload>-seed<N>-spans.jsonl``.  The line before the
result is the run stamp.  The program is imported from ``src/`` of the same
checkout; without it the run exits non-zero and prints no result.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("scenerec_train", "scenerec_serve", "ann_churn")
#: One BLAS thread: the client is a single thread, and on a shared machine a
#: second BLAS thread mostly adds run-to-run noise.
BLAS_THREADS = 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Before NumPy is first imported: the thread pool size is read at load.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = str(BLAS_THREADS)
    # No fault seam may be armed: a degraded response counts as a failure.
    os.environ.pop("REPRO_FAILPOINTS", None)

    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(root / "src"):
        print(f"repro was imported from {repro.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2

    from perfbench.harness import Run, RunAborted

    workload = importlib.import_module(f"perfbench.{args.workload}")
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), root, PROCESS_START)
    print("stamp " + json.dumps(run.stamp()), flush=True)
    try:
        metrics, correct = workload.run(run)
    except RunAborted as error:
        print(f"run aborted: {error}", file=sys.stderr)
        return 1
    result = run.result(metrics, correct)
    for failure in run.check_failures:
        print(f"check failed: {failure}", file=sys.stderr)
    if run.spans is not None:
        run.spans.write(run.spans_path())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
