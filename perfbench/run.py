"""The repository's end-to-end benchmark: one command, two workloads.

    python3 perfbench/run.py --workload {table5,serve-mixed} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  It builds its inputs from ``--seed``,
measures for ``--seconds``, checks every output, prints each metric by
name with its unit, and ends its standard output with one JSON verdict
line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
the workload runs again with spans around every layer call and the
metrics are the per-layer ones.  Every run appends one record to
``perfbench/history.jsonl``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
HISTORY = os.path.join(BENCH_DIR, "history.jsonl")
WORKLOADS = ("table5", "serve-mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from pbench import inputs, layers, measure
    from pbench.context import Run

    if args.workload == "table5":
        from pbench import table5 as workload
    else:
        from pbench import serve as workload

    ctx = Run(
        src=SRC,
        bench_dir=BENCH_DIR,
        work=inputs.work_dir(BENCH_DIR),
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
    )
    try:
        verdict = workload.run(ctx)
        if ctx.trace:
            out_dir = os.path.join(BENCH_DIR, "out")
            os.makedirs(out_dir, exist_ok=True)
            ctx.tracer.dump(
                os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"),
                verdict.extras.pop("remote_spans", ()),
            )
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    correct = not verdict.problems
    expected = [name for name, _ in (layers.PER_LAYER if ctx.trace else measure.END_TO_END)]
    if correct and list(verdict.metrics) != expected:
        verdict.problems.append(f"metrics {sorted(verdict.metrics)} != {expected}")
        correct = False
    line = measure.result_line(
        correct, verdict.attempted, verdict.failed, verdict.metrics if correct else {}
    )
    measure.append_history(
        HISTORY,
        measure.history_record(
            ROOT, SRC, args.workload, args.seed, args.seconds, ctx.trace, line, verdict.extras
        ),
    )
    if verdict.report:
        print(verdict.report)
    for problem in verdict.problems:
        print(f"CORRECTNESS: {problem}", file=sys.stderr)
    if correct:
        title = "per-layer metrics" if ctx.trace else "end-to-end metrics"
        print(measure.render_table(f"{args.workload} seed={args.seed} {title}", verdict.metrics))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
