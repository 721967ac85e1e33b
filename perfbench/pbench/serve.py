"""``serve-mixed``: one caller's traffic through a real ``repro serve``.

A ``repro serve`` subprocess (default ServerConfig) receives requests
over one unix-socket connection from one caller that sends the next
request when the previous answer arrives (a closed loop, as the CLI
client behaves).  The op mix is 50% score, 30% standardize, 10% explain
and 10% detect_leakage over the six competitions; one request in ten
carries its corpus with one script replaced by a fresh one, which makes
a new system key next to the warm ones, a reparse and an eviction.

The caller shares the server's core, and after every answer it times
calibration chunks there while the server is idle, so each latency is
scaled by the speed of the core that served it (see ``pbench.calibrate``).
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import inputs, layers
from .calibrate import HostClock, Ticker
from .context import Run, Verdict
from .measure import failed_share, latency_summary, median, metric, peak_rss_mb, slo_met_share
from .tracing import Tracer

#: Distinct non-edited jobs replayed cold by the gate (every edited-corpus
#: job is replayed as well).
GATE_SAMPLE = 6

#: Spans timed to estimate the tracer's own cost per span.
CALIBRATION_SPANS = 20000

#: While the server starts and warms up, a thread on its core times one
#: calibration chunk per this many seconds.
CHUNK_PERIOD_S = 0.05

#: Request blocks prepared per measured second: far more than one caller
#: gets through, so the sequence never runs out.
BLOCKS_PER_SECOND = 1

#: The ops whose latency is gated.  A score answers in about 10 ms and a
#: search op in about 40, so a median over the 50/50 mix would sit on the
#: gap between the two modes.
SEARCH_OPS = tuple(op for op, _ in inputs.OP_MIX if op != "score")


class Connection:
    """One protocol connection: send a request, read until its answer."""

    def __init__(self, path: str, timeout: float = 120.0):
        from repro.server import protocol

        self._protocol = protocol
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(path)
        self._reader = self._sock.makefile("rb")

    def send(self, message: Dict) -> int:
        data = self._protocol.encode(message)
        self._sock.sendall(data)
        return len(data)

    def receive(self) -> Dict:
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return self._protocol.decode(line)

    def request(self, message: Dict) -> Dict:
        self.send(message)
        while True:
            response = self.receive()
            if response.get("id") == message.get("id"):
                return response

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()


def _socket_path(work: str) -> str:
    """The socket path both processes use: absolute when it fits the
    unix-socket limit, else relative to the shared working directory."""
    path = os.path.join(work, "serve.sock")
    return path if len(path) < 100 else os.path.relpath(path)


def _start_server(ctx: Run, sock: str, dump: Optional[str]) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = ctx.src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if dump is None:
        command = [sys.executable, "-m", "repro", "serve", "--socket", sock]
    else:
        command = [
            sys.executable, os.path.join(ctx.bench_dir, "serve_traced.py"), dump,
            "serve", "--socket", sock,
        ]
    log = open(os.path.join(ctx.work, "server.log"), "wb")
    try:
        process = subprocess.Popen(command, env=env, stdout=log, stderr=subprocess.STDOUT)
    finally:
        log.close()
    return process


def _connect(process: subprocess.Popen, sock: str, timeout: float = 60.0) -> Connection:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"server exited during start-up with {process.returncode}")
        if os.path.exists(sock):
            try:
                connection = Connection(sock)
            except OSError:
                time.sleep(0.02)
                continue
            if connection.request({"id": "ping", "op": "ping"}).get("ok"):
                return connection
            connection.close()
        time.sleep(0.02)
    raise RuntimeError("server did not come up")


def _stop_server(process: subprocess.Popen, connection: Optional[Connection]) -> None:
    try:
        if connection is not None:
            try:
                connection.send({"id": "shutdown", "op": "shutdown"})
            except OSError:
                pass
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=30)
    finally:
        if connection is not None:
            connection.close()


def run(ctx: Run) -> Verdict:
    def build(rep: int):
        competitions = inputs.build_competitions(os.path.join(ctx.work, "competitions"), ctx.pause)
        return competitions, inputs.user_scripts(competitions, ctx.seed, ctx.pause)

    (competitions, pools), build_durations, build_raw = ctx.setup(build)
    sizes = {name: len(corpus.scripts) for name, corpus in competitions.items()}
    requests = inputs.serve_requests(ctx.seed, BLOCKS_PER_SECOND * ctx.seconds, sizes)
    messages = [inputs.request_message(r, competitions, pools) for r in requests]

    sock = _socket_path(ctx.work)
    dump = os.path.join(ctx.work, "server-trace.json") if ctx.trace else None
    cpus = sorted(os.sched_getaffinity(0))
    # the server inherits this thread's core at spawn; the calibration
    # chunks run here, on the core that serves the requests
    os.sched_setaffinity(0, {cpus[-1]})
    # the chunks during start-up share the core with the starting server,
    # so they are timed in thread CPU time, which sharing does not inflate
    server_clock = HostClock(time.thread_time)
    process = None
    connection = None
    try:
        with Ticker(server_clock, CHUNK_PERIOD_S):
            started = time.perf_counter()
            process = _start_server(ctx, sock, dump)
            connection = _connect(process, sock)
            warmups = _warm_up(connection, competitions, pools)
            server_setup_raw = time.perf_counter() - started
        server_setup_s = server_clock.reference(server_setup_raw)
        after_warmup = connection.request({"id": "stats-warm", "op": "stats"})["result"]
        traffic = _serve(ctx, connection, messages)
        final = connection.request({"id": "stats-final", "op": "stats"})["result"]
    except BaseException:
        if process is not None:
            _stop_server(process, connection)
        raise
    finally:
        os.sched_setaffinity(0, set(cpus))
    _stop_server(process, connection)

    sent = requests[: len(traffic["latency_s"])]
    problems = [
        f"warm-up request {rid} failed: {resp.get('error')}"
        for rid, resp in warmups
        if not resp.get("ok")
    ]
    problems += _gate(ctx.seed, sent, messages, traffic["responses"])
    return _verdict(
        ctx, sent, messages, traffic, after_warmup, final, build_durations,
        server_setup_s, problems, dump,
        raw_setup_s=median(build_raw) + server_setup_raw,
    )


def _warm_up(connection: Connection, competitions, pools) -> List[Tuple[str, Dict]]:
    """One request per corpus and request shape (score without data_dir;
    standardize with data_dir and the default intent)."""
    responses = []
    for name, corpus in sorted(competitions.items()):
        for op in ("score", "standardize"):
            message = inputs.served_request(f"w-{name}-{op}", op, corpus, pools[name], 0)
            responses.append((message["id"], connection.request(message)))
    return responses


def _serve(ctx: Run, connection: Connection, messages) -> Dict[str, object]:
    """Send the requests in order, each when the previous answer has
    arrived, for ``ctx.seconds``; after every answer, calibrate on this
    core for a share of the request's time (left out of ``wall_s``)."""
    clock = ctx.clock
    latency_s: List[float] = []
    scales: List[float] = []
    sizes: List[int] = []
    responses: Dict[str, Dict] = {}
    calibrated = clock.spent
    previous_burst = len(clock.samples)
    t0 = time.perf_counter()
    for message in messages:
        started = time.perf_counter()
        sizes.append(connection.send(message))
        while True:
            response = connection.receive()
            if response.get("id") == message["id"]:
                break
        finished = time.perf_counter()
        responses[message["id"]] = response
        latency_s.append(finished - started)
        if ctx.trace:
            ctx.tracer.record("client.request", started, finished, message["id"])
        burst = len(clock.samples)
        clock.after(finished - started)
        scales.append(clock.scale_since(previous_burst))
        previous_burst = burst
        if time.perf_counter() - t0 >= ctx.seconds:
            break
    else:
        raise RuntimeError("the prepared request sequence ran out before the measured time")
    return {
        "t0": t0,
        "wall_s": time.perf_counter() - t0 - (clock.spent - calibrated),
        "latency_s": latency_s,
        "scales": scales,
        "sizes": sizes,
        "responses": responses,
    }


def outcomes(messages, responses, latency_s) -> List[Optional[float]]:
    """Per request, the latency of an ok answer, or None when it failed or
    was refused."""
    return [
        latency if responses.get(message["id"], {}).get("ok") else None
        for message, latency in zip(messages, latency_s)
    ]


def _verdict(ctx, sent, messages, traffic, after_warmup, final, build_durations,
             server_setup_s, problems, dump, raw_setup_s) -> Verdict:
    answered = outcomes(messages, traffic["responses"], traffic["latency_s"])
    failed = sum(1 for o in answered if o is None)

    def ok_latencies(ops, scaled: bool = True) -> List[float]:
        """Latencies of the ok answers, in reference seconds by default."""
        return [
            o * (scale if scaled else 1.0)
            for r, o, scale in zip(sent, answered, traffic["scales"])
            if r.op in ops and o is not None
        ]

    search = latency_summary(ok_latencies(SEARCH_OPS))
    search_raw = latency_summary(ok_latencies(SEARCH_OPS, scaled=False))
    score = latency_summary(ok_latencies(("score",)))
    improvements = [
        traffic["responses"][m["id"]]["result"]["improvement"]
        for r, m in zip(sent, messages)
        if r.op in ("standardize", "explain") and traffic["responses"][m["id"]].get("ok")
    ]
    wall_ref = ctx.clock.reference(traffic["wall_s"])
    extras = {
        "requests": len(sent),
        "latency_samples": search["n"],
        "latency_tail_percent": search["tail_percent"],
        "score_latency_p50_ms": score["p50_ms"],
        "score_latency_p95_ms": score["tail_ms"],
        "slo_met_share": slo_met_share(answered),
        "failed_share": failed_share(len(sent), failed),
        "setup_reps_s": build_durations,
        "server_setup_s": server_setup_s,
        "edited_requests": sum(1 for r in sent if r.edit is not None),
        "chunk_ms": ctx.clock.chunk_s() * 1000.0,
        "raw": {
            "setup_s": raw_setup_s,
            "ops_per_s": len(sent) / traffic["wall_s"],
            "latency_p50_ms": search_raw["p50_ms"],
            "latency_p95_ms": search_raw["tail_ms"],
        },
        "stats_final": final,
    }
    if not ctx.trace:
        metrics = {
            "setup_s": metric(median(build_durations) + server_setup_s, "s"),
            "ops_per_s": metric(len(sent) / wall_ref, "1/s"),
            "latency_p50_ms": metric(search["p50_ms"], "ms"),
            "latency_p95_ms": metric(search["tail_ms"], "ms"),
            "improvement_mean_pct": metric(
                sum(improvements) / len(improvements) if improvements else 0.0, "%"
            ),
            "peak_rss_mb": metric(peak_rss_mb(include_children=True), "MB"),
        }
        report = (
            f"serve-mixed: {len(sent)} requests in {traffic['wall_s']:.2f} s; search "
            f"p50/p{search['tail_percent']} over {search['n']} samples; score p50 "
            f"{score['p50_ms']:.1f} ms; SLO met {extras['slo_met_share']:.3f}; "
            f"times in reference seconds (scale {ctx.clock.scale():.4f})"
        )
    else:
        metrics, remote_spans = _traced_metrics(ctx, traffic, after_warmup, final, build_durations, dump)
        extras["remote_spans"] = remote_spans
        report = layers.self_time_table(metrics)
    return Verdict(problems, len(sent), failed, metrics, extras, report)


def _counter_delta(after_warmup: Dict, final: Dict, name: str) -> float:
    return float(final.get(name, 0)) - float(after_warmup.get(name, 0))


def _span_cost_s() -> float:
    """The tracer's own cost per span, timed around an empty call."""
    tracer = Tracer()
    tracer.enabled = True
    noop = lambda: None  # noqa: E731
    start = time.perf_counter()
    for _ in range(CALIBRATION_SPANS):
        tracer.call("calibration.noop", noop)
    traced = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(CALIBRATION_SPANS):
        noop()
    return max(0.0, traced - (time.perf_counter() - start)) / CALIBRATION_SPANS


def _traced_metrics(ctx, traffic, after_warmup, final, build_durations, dump):
    with open(dump) as handle:
        remote = json.load(handle)
    phase_start = traffic["t0"]
    spans = [tuple(span) for span in remote["spans"] if span[4] >= phase_start]
    timed = set(traffic["responses"])
    searches = [record for op, record in remote["searches"] if op in timed]
    corpus = [delta for op, delta in remote["corpus"].items() if op in timed]
    wall = traffic["wall_s"]
    hits = _counter_delta(after_warmup, final, "warm_hits")
    misses = _counter_delta(after_warmup, final, "warm_misses")
    jobs = _counter_delta(after_warmup, final, "jobs_total")
    job_time = sum(s[5] - s[4] for s in spans if s[3] == "server.job")
    overhead = _span_cost_s() * len(spans)
    metrics = layers.assemble(
        spans,
        searches,
        corpus,
        wall,
        {
            "workloads.build_s": median(build_durations),
            "server.service_p50_ms": final.get("latency_p50_ms", 0.0),
            "server.service_p95_ms": final.get("latency_p95_ms", 0.0),
            "server.warm_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "server.coalesced_job_ratio": (
                _counter_delta(after_warmup, final, "coalesced_jobs") / jobs if jobs else 0.0
            ),
            "server.queue_peak_depth": final.get("queue_peak_depth", 0),
            "server.rejections": _counter_delta(after_warmup, final, "queue_rejections")
            + _counter_delta(after_warmup, final, "drain_rejections"),
            "server.request_kb_mean": float(np.mean(traffic["sizes"])) / 1024.0,
            "trace.ops": len(traffic["latency_s"]),
            "trace.overhead_s": overhead,
            "trace.overhead_pct": 100.0 * overhead / max(job_time - overhead, 1e-9),
        },
    )
    return metrics, spans


def _gate(seed: int, sent, messages, responses) -> List[str]:
    """Replay every edited-corpus job and a seeded sample of the other
    distinct jobs cold, with ``execute_job`` on a fresh system; the
    deterministic payloads must match the served ones byte for byte."""
    from repro.server import protocol
    from repro.server.jobs import JobError, execute_job, normalize_job

    edited, others, seen = [], [], set()
    for request, message in zip(sent, messages):
        job = normalize_job(message)
        key = protocol.canonical(job)
        if request.edit is not None:
            edited.append((message, job))
        elif key not in seen:
            others.append((message, job))
        seen.add(key)
    rng = np.random.default_rng([seed, 0x9A7E])
    picks = sorted(rng.choice(len(others), size=min(GATE_SAMPLE, len(others)), replace=False))
    problems = []
    for message, job in edited + [others[int(p)] for p in picks]:
        served = responses.get(message["id"])
        if served is None:
            problems.append(f"{message['id']}: no response to replay against")
            continue
        try:
            replay = protocol.ok_response(message["id"], execute_job(job))
        except JobError as exc:
            replay = protocol.error_response(message["id"], exc.kind, str(exc))
        if protocol.canonical(protocol.parity_payload(replay)) != protocol.canonical(
            protocol.parity_payload(served)
        ):
            problems.append(f"{message['id']}: served payload differs from its cold replay")
    return problems
