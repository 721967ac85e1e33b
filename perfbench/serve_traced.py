"""``repro serve`` with the benchmark's layer spans installed.

    python3 perfbench/serve_traced.py DUMP.json serve --socket PATH

Runs the real command-line server (``repro.cli.main``) after wrapping
the same layer calls the closed-loop workload traces, plus one
``server.job`` span per executed job, and writes the spans, every
search's SearchStats and the per-job corpus-cache deltas to DUMP.json
when the server has drained.  Used only by the traced ``serve-mixed``
run; the untraced run starts ``python -m repro serve`` itself.
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    dump_path, cli_args = argv[0], argv[1:]

    from repro.cli import main as cli_main
    from repro.corpus import corpus_cache_counters
    from repro.server.engine import StandardizationServer

    from pbench import layers
    from pbench.tracing import Instrumentation, Tracer

    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    corpus = {}
    run_job = StandardizationServer._run_job

    def traced_run_job(server, job):
        tracer.op = job.request_id
        before = corpus_cache_counters()
        try:
            return tracer.call("server.job", run_job, server, job)
        finally:
            corpus[job.request_id] = layers.corpus_delta(before, corpus_cache_counters())
            tracer.op = None

    StandardizationServer._run_job = traced_run_job
    instrumentation.install()
    try:
        code = cli_main(cli_args)
    finally:
        instrumentation.remove()
        StandardizationServer._run_job = run_job
        with open(dump_path, "w") as handle:
            json.dump(
                {
                    "spans": tracer.spans,
                    "searches": [
                        [op, layers.search_record(stats, wall)]
                        for op, stats, wall in tracer.searches
                    ],
                    "corpus": corpus,
                },
                handle,
            )
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
