"""Persistent sharded worker engine for parallel constraint checks.

The previous parallel path lost to serial execution (``BENCH_sandbox.json``
recorded 0.64x at two workers): every task shipped its whole script and
re-ran it cold in a stateless pool worker, so the per-worker caches built
for the serial path — prefix-snapshot LRUs, prepared-intent state, the
original-output table — were re-derived per task instead of amortized per
worker.  This module replaces the stateless pool with *shards*: long-lived
worker processes that each own a stable slice of the candidate waves for
the whole search and keep **sticky resident state** between tasks:

* a resident :class:`~repro.sandbox.incremental.IncrementalExecutor` per
  ``(data_dir, sample_rows, budgets)`` setting, so candidates resume from
  prefix snapshots made by *earlier waves* on the same shard;
* a content-addressed **source store** (sha1 → script text), so tasks ship
  ``(base_sha, line-splice)`` deltas instead of whole scripts — payloads
  are O(delta), and the parent keeps a per-shard mirror of the store so it
  knows exactly which hashes each worker already holds;
* the worker-resident original-output and prepared-intent caches from
  :mod:`repro.core.standardizer`, which now survive for the worker's whole
  life instead of one pool generation.

Shard affinity — ``hash(candidate prefix fingerprint) → shard id``, with
deterministic overflow rebalancing (counted as *migrations*) — keeps
candidates that share a resumable prefix on the shard whose snapshot LRU
already holds it.  Results are gathered by task index, so verdict order is
deterministic and bit-identical to the serial walk for any worker count;
``LSConfig.verify_parallel`` audits exactly that claim.

Fault tolerance mirrors the old pool contract: a worker that stops
answering within the parent budget has its current (oldest unanswered)
task charged as hung, is SIGKILLed and respawned with a cleared mirror,
and its remaining tasks are re-dispatched — until the respawn budget runs
out, at which point unanswered tasks fall back to the caller's serial
loop.  ``kill_worker_pool`` (registered via ``atexit``) hard-kills every
shard so persistent workers can never outlive the parent; workers are
additionally daemonic as a second line of defence.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
from dataclasses import dataclass, field
from difflib import SequenceMatcher
from importlib import import_module
from multiprocessing.connection import wait as _wait_readers
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .._lru import LRUCache

__all__ = [
    "ShardTask",
    "ShardEngine",
    "ParallelMismatchError",
    "get_shard_engine",
    "kill_shard_engine",
    "prefix_affinity",
    "sha1_text",
    "resident_executor",
    "resolve_source",
]

#: Capacity of each worker's sha1 → source store (and the parent's
#: per-shard mirror of it).
SOURCE_CACHE_LIMIT = 256

#: Resident incremental executors kept per worker (settings rarely change
#: mid-run; two covers a search plus one reconfiguration without churn).
EXECUTOR_CACHE_LIMIT = 2

#: Tasks kept in-flight per shard.  Bounds how much the parent writes into
#: a shard's pipe before hearing back, so a hung worker can never block the
#: parent inside ``put`` (SimpleQueue writes block once the pipe is full).
DISPATCH_WINDOW = 4

#: How long one event-loop sweep blocks waiting for any shard to answer.
_POLL_S = 0.05

#: Infrastructure retries per task (source-store miss, unpicklable reply)
#: before the task is handed back to the caller's serial fallback.
_TASK_RETRY_LIMIT = 2


class ParallelMismatchError(RuntimeError):
    """Raised by ``LSConfig.verify_parallel`` when the sharded engine's
    verdicts (or the speculative winner derived from them) diverge from
    the serial walk — an engine bug, never a legitimate runtime condition,
    matching the ``verify_*`` audit contract of the other fast paths."""


def sha1_text(text: str) -> str:
    """Content address of one script source."""
    return hashlib.sha1(text.encode()).hexdigest()


def prefix_affinity(source: str, base: str) -> str:
    """Affinity key: sha1 of the longest shared leading-line run with *base*.

    Candidates produced by one beam wave are splices of a common parent, so
    this fingerprints exactly the prefix a worker's snapshot LRU could
    resume from; hashing it routes candidates with the same resumable
    prefix to the same shard across rounds.
    """
    source_lines = source.split("\n")
    base_lines = base.split("\n")
    depth = 0
    for mine, theirs in zip(source_lines, base_lines):
        if mine != theirs:
            break
        depth += 1
    return hashlib.sha1("\n".join(source_lines[:depth]).encode()).hexdigest()


@dataclass(frozen=True)
class ShardTask:
    """One unit of work for the engine.

    ``sources`` lists the scripts the task needs resident, in dependency
    order, as ``(sha, text, base_sha, base_text)`` — the engine decides
    per shard whether each becomes a no-cost ``ref``, an O(delta) line
    splice against ``base_sha``, or a one-time full shipment.  ``payload``
    refers to the scripts by their sha only and must be picklable.
    """

    kind: str
    payload: Dict[str, Any]
    sources: Tuple[Tuple[str, str, Optional[str], Optional[str]], ...]
    affinity: Optional[str] = None


# --------------------------------------------------------------------------
# Content-addressed source shipping (parent encodes, worker applies)
# --------------------------------------------------------------------------


def _line_ops(base_lines: List[str], lines: List[str]):
    """Line-level splice turning *base_lines* into *lines* (O(delta) size)."""
    matcher = SequenceMatcher(None, base_lines, lines, autojunk=False)
    return [
        (i1, i2, lines[j1:j2])
        for tag, i1, i2, j1, j2 in matcher.get_opcodes()
        if tag != "equal"
    ]


def _apply_line_ops(base_lines: List[str], ops) -> List[str]:
    out: List[str] = []
    cursor = 0
    for i1, i2, replacement in ops:
        out.extend(base_lines[cursor:i1])
        out.extend(replacement)
        cursor = i2
    out.extend(base_lines[cursor:])
    return out


def _encode_sources(mirror: LRUCache, sources):
    """Shipping instructions for one task against one shard's mirror.

    The mirror replays exactly the store operations the worker will
    perform for these instructions (same capacity, same touch/insert
    order), so parent and worker evict identically and a ``ref`` can
    never point at an evicted entry.
    """
    instructions = []
    shipped = 0
    for sha, text, base_sha, base_text in sources:
        if mirror.get(sha) is not None:
            instructions.append(("ref", sha))
            continue
        if base_sha is not None and mirror.get(base_sha) is not None:
            ops = _line_ops(base_text.split("\n"), text.split("\n"))
            mirror[sha] = True
            instructions.append(("delta", sha, base_sha, ops))
            shipped += sum(
                len(line) + 1 for _, _, replacement in ops for line in replacement
            )
        else:
            mirror[sha] = True
            instructions.append(("full", sha, text))
            shipped += len(text)
    return instructions, shipped


class _SourceMiss(Exception):
    """A ref/delta pointed at a sha the worker's store no longer holds
    (mirror drift — should not happen; recovered by re-shipping full)."""

    def __init__(self, sha: str):
        super().__init__(sha)
        self.sha = sha


def _admit_source(store: LRUCache, instruction) -> None:
    tag = instruction[0]
    if tag == "ref":
        if store.get(instruction[1]) is None:
            raise _SourceMiss(instruction[1])
    elif tag == "delta":
        _, sha, base_sha, ops = instruction
        base = store.get(base_sha)
        if base is None:
            raise _SourceMiss(base_sha)
        store[sha] = "\n".join(_apply_line_ops(base.split("\n"), ops))
    else:  # "full"
        _, sha, text = instruction
        store[sha] = text


def resolve_source(resident: Dict[str, Any], sha: str) -> str:
    """A task function's view into the worker's source store.

    Reads via ``peek`` so task-time lookups never touch LRU recency —
    recency is driven purely by the admission instructions, which the
    parent mirrors; any extra touches here would desynchronize eviction.
    """
    text = resident["sources"].peek(sha)
    if text is None:
        raise _SourceMiss(sha)
    return text


def resident_executor(
    resident: Dict[str, Any],
    data_dir: Optional[str],
    sample_rows: Optional[int],
    exec_timeout_s: Optional[float] = None,
    statement_timeout_s: Optional[float] = None,
    snapshot_budget: int = 64,
    dialect: Optional[str] = None,
):
    """This worker's sticky incremental executor for one sandbox setting.

    The executor (and its prefix-snapshot LRU) lives as long as the worker
    process, so waves dispatched rounds apart still resume from snapshots
    made by their shard-mates — the cache amortization the stateless pool
    threw away per task.  The dialect is part of the setting: snapshots
    made against one API surface never serve another.  The whole-script
    budget is not: snapshots do not depend on it, so each task's
    ``exec_timeout_s`` is applied to the resident executor.
    """
    from .incremental import IncrementalExecutor

    key = (data_dir, sample_rows, statement_timeout_s, snapshot_budget, dialect)
    executors = resident["executors"]
    executor = executors.get(key)
    if executor is None:
        executor = IncrementalExecutor(
            data_dir=data_dir,
            sample_rows=sample_rows,
            snapshot_budget=snapshot_budget,
            statement_timeout_s=statement_timeout_s,
            dialect=dialect,
        )
        executors[key] = executor
        while len(executors) > EXECUTOR_CACHE_LIMIT:
            executors.pop(next(iter(executors)))
    executor.exec_timeout_s = exec_timeout_s
    return executor


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------

#: Task kinds resolve lazily by import path so the engine stays free of
#: circular imports (the verify task lives beside the intent machinery it
#: uses) and works under both fork and spawn start methods.
_TASK_KINDS = {
    "exec_check": "repro.sandbox.shards:_exec_check_task",
    "verify": "repro.core.standardizer:_shard_verify_task",
}
_RESOLVED_KINDS: Dict[str, Any] = {}


def _task_fn(kind: str):
    fn = _RESOLVED_KINDS.get(kind)
    if fn is None:
        module_path, name = _TASK_KINDS[kind].split(":")
        fn = getattr(import_module(module_path), name)
        _RESOLVED_KINDS[kind] = fn
    return fn


def _exec_check_task(payload, resident) -> Tuple[bool, bool]:
    """CheckIfExecutes() against this shard's resident executor."""
    executor = resident_executor(
        resident,
        payload["data_dir"],
        payload["sample_rows"],
        payload.get("exec_timeout_s"),
        payload.get("statement_timeout_s"),
        payload.get("snapshot_budget", 64),
        payload.get("dialect"),
    )
    result = executor.run_script(resolve_source(resident, payload["source_sha"]))
    return (bool(result.ok and result.output is not None), result.timed_out)


def _shard_main(worker_id: int, inq, outq) -> None:
    """One shard's task loop (runs in the worker process)."""
    resident: Dict[str, Any] = {
        "worker_id": worker_id,
        "sources": LRUCache(SOURCE_CACHE_LIMIT),
        "executors": {},
    }
    while True:
        message = inq.get()
        if message is None:
            break
        batch, task_id, kind, instructions, payload = message
        try:
            for instruction in instructions:
                _admit_source(resident["sources"], instruction)
            outcome = ("ok", _task_fn(kind)(payload, resident))
        except _SourceMiss as miss:
            outcome = ("miss", miss.sha)
        except BaseException as exc:  # noqa: BLE001 - report, never die
            outcome = ("error", f"{type(exc).__name__}: {exc}")
        try:
            outq.put((batch, task_id, outcome))
        except BaseException:  # noqa: BLE001 - unpicklable outcome
            outq.put((batch, task_id, ("error", "unpicklable task outcome")))


# --------------------------------------------------------------------------
# Parent side
# --------------------------------------------------------------------------


@dataclass
class _Shard:
    """Parent-side handle on one worker process."""

    process: Any
    inq: Any
    outq: Any
    mirror: LRUCache
    inflight: List[int] = field(default_factory=list)  # dispatched, unanswered
    backlog: List[int] = field(default_factory=list)  # assigned, not yet sent
    last_activity: float = 0.0
    abandoned: bool = False  # respawn budget spent; caller handles its tasks


class ShardEngine:
    """The persistent pool of sharded workers (one per process, reused
    across batches, searches, and standardize() calls)."""

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self.workers = workers
        #: number of the batch in flight; workers echo it on every result
        #: so answers left over from an aborted batch are recognized
        self._batch = 0
        self._shards: List[_Shard] = [self._spawn(i) for i in range(workers)]

    # --------------------------------------------------------------- lifecycle
    def _spawn(self, worker_id: int) -> _Shard:
        inq = self._ctx.SimpleQueue()
        outq = self._ctx.SimpleQueue()
        process = self._ctx.Process(
            target=_shard_main,
            args=(worker_id, inq, outq),
            daemon=True,  # backstop: never outlive the parent
            name=f"repro-shard-{worker_id}",
        )
        process.start()
        return _Shard(
            process=process,
            inq=inq,
            outq=outq,
            mirror=LRUCache(SOURCE_CACHE_LIMIT),
        )

    def alive(self) -> bool:
        return bool(self._shards) and all(
            shard.process.is_alive() for shard in self._shards
        )

    def worker_pids(self) -> List[int]:
        return [shard.process.pid for shard in self._shards]

    @staticmethod
    def _kill_shard(shard: _Shard) -> None:
        process = shard.process
        try:
            if process.is_alive():
                process.kill()
            process.join(timeout=1.0)
        except Exception:  # noqa: BLE001 - teardown must not raise
            pass
        for queue in (shard.inq, shard.outq):
            try:
                queue.close()
            except Exception:  # noqa: BLE001
                pass

    def kill(self) -> None:
        """SIGKILL every shard (hung workers ignore graceful shutdown)."""
        for shard in self._shards:
            self._kill_shard(shard)
        self._shards = []

    def _respawn(self, shard_id: int) -> _Shard:
        self._kill_shard(self._shards[shard_id])
        fresh = self._spawn(shard_id)
        self._shards[shard_id] = fresh
        return fresh

    # ---------------------------------------------------------------- dispatch
    def _assign(self, tasks: Sequence[ShardTask], report) -> List[List[int]]:
        """Deterministic task → shard map: affinity first, then rebalance.

        A task lands on ``hash(affinity) % workers`` while that shard is
        under the fair-share cap (a *shard hit*); overflow — and tasks
        with no affinity — go to the least-loaded shard (lowest id on
        ties), counted as a *migration* when affinity was overridden.
        """
        width = len(self._shards)
        cap = -(-len(tasks) // width)  # ceil
        counts = [0] * width
        assigned: List[List[int]] = [[] for _ in range(width)]
        deferred: List[int] = []
        for index, task in enumerate(tasks):
            if task.affinity is not None:
                preferred = int(task.affinity[:8], 16) % width
                if counts[preferred] < cap:
                    assigned[preferred].append(index)
                    counts[preferred] += 1
                    if report is not None:
                        report.shard_hits += 1
                    continue
            deferred.append(index)
        for index in deferred:
            target = min(range(width), key=lambda w: (counts[w], w))
            assigned[target].append(index)
            counts[target] += 1
            if report is not None and tasks[index].affinity is not None:
                report.shard_migrations += 1
        return assigned

    def _send(self, shard: _Shard, task_id: int, task: ShardTask, report) -> None:
        instructions, shipped = _encode_sources(shard.mirror, task.sources)
        if report is not None:
            report.bytes_shipped += shipped
        if not shard.inflight:
            shard.last_activity = time.monotonic()
        shard.inq.put((self._batch, task_id, task.kind, instructions, task.payload))
        shard.inflight.append(task_id)

    def _fill_window(self, shard: _Shard, tasks: Sequence[ShardTask], report) -> None:
        while shard.backlog and len(shard.inflight) < DISPATCH_WINDOW:
            task_id = shard.backlog.pop(0)
            self._send(shard, task_id, tasks[task_id], report)

    def _drain(self, shard: _Shard):
        """This batch's results readable on *shard*'s outq (non-blocking).

        Results a worker finishes after its batch was aborted (an
        unpicklable task, an exception in the caller) arrive tagged with
        the old batch number and are discarded: task ids are batch-local
        indices, so such a result would otherwise answer an unrelated
        task of the current batch.
        """
        received = []
        reader = getattr(shard.outq, "_reader", None)
        while shard.inflight:
            try:
                if reader is not None and not reader.poll(0):
                    break
                batch, task_id, outcome = shard.outq.get()
            except Exception:  # noqa: BLE001 - broken queue: handled as death
                break
            if batch == self._batch and task_id in shard.inflight:
                received.append((task_id, outcome))
        return received

    # -------------------------------------------------------------- run_batch
    def run_batch(
        self,
        tasks: Sequence[ShardTask],
        parent_budget_s: Optional[float] = None,
        respawn_limit: int = 0,
        report=None,
    ):
        """Execute *tasks*, gathering outcomes in task order.

        Returns ``(outcomes, respawns_used)`` where each outcome is
        ``("ok", value)``, ``("hung",)`` (charged to a worker the parent
        had to kill), or ``None`` (unanswered — respawn budget exhausted
        or unrecoverable task fault; the caller's serial fallback covers
        these).  Order is by task index regardless of worker count or
        completion timing — the determinism half of the engine contract.
        """
        tasks = list(tasks)
        if not tasks:
            return [], 0
        self._batch += 1
        outcomes: List[Optional[Tuple]] = [None] * len(tasks)
        answered = [False] * len(tasks)
        retries: Dict[int, int] = {}
        respawns = 0

        assignment = self._assign(tasks, report)
        for shard_id, task_ids in enumerate(assignment):
            shard = self._shards[shard_id]
            shard.backlog = list(task_ids)
            shard.inflight = []
            shard.abandoned = False
            self._fill_window(shard, tasks, report)

        def _absorb(shard: _Shard, received) -> None:
            nonlocal respawns
            for task_id, outcome in received:
                shard.inflight.remove(task_id)
                shard.last_activity = time.monotonic()
                tag = outcome[0]
                if tag == "ok":
                    outcomes[task_id] = outcome
                    answered[task_id] = True
                elif tag in ("miss", "error"):
                    retries[task_id] = retries.get(task_id, 0) + 1
                    if retries[task_id] > _TASK_RETRY_LIMIT:
                        outcomes[task_id] = ("failed", outcome[1])
                        answered[task_id] = True
                    else:
                        # mirror drift or transport fault: re-ship from
                        # scratch so refs cannot dangle again
                        shard.mirror.clear()
                        shard.backlog.insert(0, task_id)

        while any(
            (shard.inflight or shard.backlog) and not shard.abandoned
            for shard in self._shards
        ):
            progress = False
            for shard_id, shard in enumerate(self._shards):
                if shard.abandoned or not (shard.inflight or shard.backlog):
                    continue
                received = self._drain(shard)
                if received:
                    progress = True
                    _absorb(shard, received)
                    self._fill_window(shard, tasks, report)
                    continue
                now = time.monotonic()
                died = shard.inflight and not shard.process.is_alive()
                hung = (
                    parent_budget_s is not None
                    and shard.inflight
                    and now - shard.last_activity > parent_budget_s
                )
                if not (died or hung):
                    self._fill_window(shard, tasks, report)
                    continue
                progress = True
                # last-chance drain: the result may have landed while we
                # were deciding the worker was gone
                late = self._drain(shard)
                if late:
                    _absorb(shard, late)
                    self._fill_window(shard, tasks, report)
                    continue
                leftover = list(shard.inflight) + list(shard.backlog)
                if hung and leftover:
                    # FIFO workers: the oldest unanswered task is the one
                    # actually running — charge it, spare the rest
                    charged = leftover.pop(0)
                    outcomes[charged] = ("hung",)
                    answered[charged] = True
                respawns += 1
                if report is not None:
                    report.respawns += 1
                if respawns > respawn_limit:
                    # budget spent: hand this shard's remainder back to
                    # the caller; kill the hole so the singleton rebuilds
                    self._kill_shard(shard)
                    shard.inflight = []
                    shard.backlog = []
                    shard.abandoned = True
                    continue
                fresh = self._respawn(shard_id)
                fresh.backlog = leftover
                self._fill_window(fresh, tasks, report)
            if not progress:
                readers = [
                    getattr(shard.outq, "_reader", None)
                    for shard in self._shards
                    if shard.inflight and not shard.abandoned
                ]
                readers = [reader for reader in readers if reader is not None]
                if readers:
                    try:
                        _wait_readers(readers, timeout=_POLL_S)
                    except Exception:  # noqa: BLE001 - racing a dying worker
                        time.sleep(_POLL_S)
                else:
                    time.sleep(_POLL_S)
        return outcomes, respawns


# --------------------------------------------------------------------------
# Process-wide singleton
# --------------------------------------------------------------------------

_ENGINE: Optional[ShardEngine] = None


def get_shard_engine(workers: int) -> ShardEngine:
    """The process-wide engine, (re)built on demand.

    A different worker count, or any dead shard left by an exhausted
    respawn budget, rebuilds the engine from scratch — matching the old
    pool's "next get respawns a fresh pool" contract.
    """
    global _ENGINE
    if _ENGINE is not None and (_ENGINE.workers != workers or not _ENGINE.alive()):
        kill_shard_engine()
    if _ENGINE is None:
        _ENGINE = ShardEngine(workers)
    return _ENGINE


def kill_shard_engine() -> None:
    """Hard-kill the engine and every shard (idempotent)."""
    global _ENGINE
    if _ENGINE is not None:
        _ENGINE.kill()
        _ENGINE = None
