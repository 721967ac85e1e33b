"""Script execution sandbox.

Runs API-call scripts exactly as a notebook would, against the surface
their :class:`~repro.dialects.ApiDialect` declares: the dialect supplies
the module table (for the default pandas dialect, ``import pandas as
pd`` resolves to :mod:`repro.minipandas` — pandas is unavailable
offline), the loader that resolves data paths against a per-run data
directory with optional row sampling (Section 5.2 (5), used to keep
constraint checks fast on large D_IN), and the output-capture
convention.

The sandbox is the oracle behind LucidScript's *execution constraint*: a
candidate script is valid iff :func:`run_script` reports success.  Two
higher-throughput entry points sit on top of the single-script path:
:func:`run_wave` fans a wave of candidate checks (execution checks from
:func:`check_executes_batch`, constraint verification from the
standardizer) out over the persistent shard engine (the substrate
modules are pure Python, so threads would be GIL-bound; see
:mod:`repro.sandbox.shards`), and
:class:`repro.sandbox.incremental.IncrementalExecutor` resumes candidates
from snapshots of shared statement prefixes.
"""

from __future__ import annotations

import atexit
import builtins
import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..dialects import resolve_dialect
from ..minipandas import DataFrame

__all__ = [
    "ExecutionResult",
    "SandboxError",
    "SandboxImportError",
    "ExecTimeout",
    "BatchReport",
    "run_script",
    "check_executes",
    "check_executes_batch",
    "run_wave",
]


class SandboxError(Exception):
    """The sandbox itself was misused (not a script failure)."""


class SandboxImportError(ImportError):
    """A script imported a module outside its dialect's declared surface.

    Classified (never a raw ``KeyError`` leaking out of the module
    table) and self-describing: carries the offending module name and
    the dialect whose surface rejected it.
    """

    def __init__(self, module: str, dialect_name: str, allowed):
        self.module = module
        self.dialect = dialect_name
        surface = ", ".join(sorted(allowed))
        super().__init__(
            f"module {module!r} is not available inside the script sandbox: "
            f"the {dialect_name!r} dialect's surface allows only [{surface}]"
        )


class ExecTimeout(BaseException):
    """A sandboxed script exceeded its wall-clock execution budget.

    Derives from :class:`BaseException` so a script-level ``except
    Exception`` handler cannot swallow the interrupt; the sandbox itself
    converts it into a failed :class:`ExecutionResult` like any other
    script error, which is exactly how ``CheckIfExecutes`` wants a
    pathological candidate (an unbounded loop, a quadratic ``apply``) to
    surface: as a skippable failure, never as a hung search.
    """


class _Watchdog:
    """Thread-based wall-clock budget for in-process script execution.

    A daemon timer thread sets a flag at the deadline; a trace hook
    installed on the executing thread checks the flag on every ``line``
    event and raises :class:`ExecTimeout` inside the script frame, which
    interrupts pure-Python hangs such as ``while True: pass``.  The hook
    only exists while a budget is armed, so the budget-less default path
    executes exactly as before (bit-identical, zero overhead).

    Disarm protocol — the caller must restore the prior trace function
    with ``sys.settrace(watchdog.prior)`` *inline in its own frame* (a C
    call, invisible to the tracer) before calling any Python function;
    otherwise a late-firing flag could raise inside cleanup code::

        watchdog = _Watchdog.arm(timeout_s)
        try:
            exec(code, namespace)
        except BaseException:
            if watchdog is not None:
                sys.settrace(watchdog.prior)   # before any Python call
            ...
        finally:
            if watchdog is not None:
                sys.settrace(watchdog.prior)
                watchdog.cancel()

    Known limitations: the tracer fires at Python line boundaries, so a
    single long-running C call cannot be interrupted in-process, and a
    script that catches ``BaseException`` inside an outer loop survives
    the one-shot raise (CPython unsets a trace function that raises).
    The process-pool path's kill-and-respawn covers both cases.
    """

    __slots__ = ("timeout_s", "prior", "_flag", "_timer")

    def __init__(self, timeout_s, prior, flag, timer):
        self.timeout_s = timeout_s
        self.prior = prior
        self._flag = flag
        self._timer = timer

    @classmethod
    def arm(cls, timeout_s: Optional[float]) -> Optional["_Watchdog"]:
        if not timeout_s or timeout_s <= 0:
            return None
        flag = threading.Event()
        timer = threading.Timer(timeout_s, flag.set)
        timer.daemon = True

        def _interrupt(frame, event, arg):
            if event == "line" and flag.is_set():
                raise ExecTimeout(
                    f"script exceeded its {timeout_s:g}s execution budget"
                )
            return _interrupt

        watchdog = cls(timeout_s, sys.gettrace(), flag, timer)
        timer.start()
        sys.settrace(_interrupt)
        return watchdog

    @property
    def expired(self) -> bool:
        return self._flag.is_set()

    def cancel(self) -> None:
        self._timer.cancel()


@dataclass
class ExecutionResult:
    """Outcome of one sandboxed script run."""

    ok: bool
    output: Optional[DataFrame] = None
    error: Optional[BaseException] = None
    error_line: Optional[int] = None
    namespace: Dict[str, Any] = field(default_factory=dict)

    @property
    def error_type(self) -> Optional[str]:
        return type(self.error).__name__ if self.error is not None else None

    @property
    def timed_out(self) -> bool:
        """Did the script blow its wall-clock budget (vs. a real error)?"""
        return isinstance(self.error, ExecTimeout)


def _make_guarded_open(data_dir: Optional[str]):
    """A read-only ``open`` restricted to the run's data directory.

    Candidate scripts come out of a search over corpus-derived code; they
    should never be able to write files or read outside their dataset.
    Paths are fully resolved (symlinks and ``..`` collapsed) before the
    prefix check so escapes like ``dir/../../etc/passwd`` cannot slip by.
    """
    real_open = open

    def guarded_open(file, mode="r", *args, **kwargs):
        if any(flag in mode for flag in ("w", "a", "x", "+")):
            raise PermissionError("the script sandbox is read-only")
        path = os.path.realpath(os.path.abspath(os.fspath(file)))
        if data_dir is not None:
            root = os.path.realpath(os.path.abspath(data_dir))
            if not path.startswith(root + os.sep) and path != root:
                raise PermissionError(
                    f"the script sandbox can only read from {root!r}"
                )
        return real_open(path, mode, *args, **kwargs)

    return guarded_open


def build_sandbox_namespace(
    data_dir: Optional[str] = None,
    sample_rows: Optional[int] = None,
    extra_globals: Optional[Dict[str, Any]] = None,
    dialect=None,
) -> Dict[str, Any]:
    """A fresh script namespace with guarded builtins wired in.

    Shared by :func:`run_script` and the incremental executor so both
    execute candidates under identical import/open/loader policies.  The
    module table comes from *dialect* (name or instance; default pandas).
    """
    resolved = resolve_dialect(dialect)
    module_table = resolved.module_table(data_dir, sample_rows)

    def guarded_import(name, globals=None, locals=None, fromlist=(), level=0):
        root = name.split(".")[0]
        try:
            return module_table[root]
        except KeyError:
            raise SandboxImportError(name, resolved.name, module_table) from None

    sandbox_builtins = dict(vars(builtins))
    sandbox_builtins["__import__"] = guarded_import
    sandbox_builtins["open"] = _make_guarded_open(data_dir)
    namespace: Dict[str, Any] = {
        "__builtins__": sandbox_builtins,
        "__name__": "__sandbox__",
    }
    if extra_globals:
        namespace.update(extra_globals)
    return namespace


def script_error_line(exc: BaseException) -> Optional[int]:
    """Deepest ``<script>`` frame in the exception's traceback."""
    tb = exc.__traceback__
    line = None
    while tb is not None:
        if tb.tb_frame.f_code.co_filename == "<script>":
            line = tb.tb_lineno
        tb = tb.tb_next
    return line


def run_script(
    source: str,
    data_dir: Optional[str] = None,
    sample_rows: Optional[int] = None,
    extra_globals: Optional[Dict[str, Any]] = None,
    timeout_s: Optional[float] = None,
    dialect=None,
) -> ExecutionResult:
    """Execute *source* in the sandbox and capture its output table.

    Parameters
    ----------
    source:
        Script text (straight-line API-call code).
    data_dir:
        Directory containing the run's data files; loader paths are
        resolved against it by basename.
    sample_rows:
        When set, every loaded table is down-sampled to at most this many
        rows (deterministically) — the paper's sampling optimization.
    extra_globals:
        Additional names injected into the script namespace.
    timeout_s:
        Wall-clock budget for the whole script; on expiry the run fails
        with :class:`ExecTimeout` (``result.timed_out``).  None (the
        default) executes unwatched, exactly as before.
    dialect:
        The API surface to execute against — a registered name or an
        :class:`~repro.dialects.ApiDialect`; None means pandas.
    """
    resolved_dialect = resolve_dialect(dialect)
    namespace = build_sandbox_namespace(
        data_dir, sample_rows, extra_globals, dialect=resolved_dialect
    )

    try:
        code = compile(source, "<script>", "exec")
    except SyntaxError as exc:
        return ExecutionResult(ok=False, error=exc, error_line=exc.lineno)

    watchdog = _Watchdog.arm(timeout_s)
    try:
        exec(code, namespace)
    except BaseException as exc:  # noqa: BLE001 - any script failure is data
        if watchdog is not None:
            sys.settrace(watchdog.prior)  # see _Watchdog's disarm protocol
        return ExecutionResult(ok=False, error=exc, error_line=script_error_line(exc))
    finally:
        if watchdog is not None:
            sys.settrace(watchdog.prior)
            watchdog.cancel()

    namespace.pop("__builtins__", None)
    return ExecutionResult(
        ok=True,
        output=resolved_dialect.select_output(namespace, source),
        namespace=namespace,
    )


def check_executes(
    source: str,
    data_dir: Optional[str] = None,
    sample_rows: Optional[int] = 200,
    timeout_s: Optional[float] = None,
    dialect=None,
) -> bool:
    """The paper's CheckIfExecutes(): does the script run without error?

    Uses aggressive row sampling by default — execution validity rarely
    depends on data volume, and this check runs inside the beam-search
    inner loop.  A timed-out script simply fails the check.
    """
    result = run_script(
        source,
        data_dir=data_dir,
        sample_rows=sample_rows,
        timeout_s=timeout_s,
        dialect=dialect,
    )
    return result.ok and result.output is not None


# --------------------------------------------------------------------------
# Parallel batched checks (persistent sharded worker engine)
# --------------------------------------------------------------------------

#: Extra wall-clock grace the parent grants a worker beyond the script's own
#: budget before declaring it hung: workers normally self-interrupt via the
#: in-process watchdog, so the parent only fires when a worker is stuck in a
#: C call or a watchdog-defeating loop.
_HUNG_WORKER_GRACE_S = 1.0


@dataclass
class BatchReport:
    """Fault and shipping accounting for one :func:`run_wave` call.

    Callers (the beam search) fold these into ``SearchStats`` so a run's
    breakdown shows how often budgets fired, the engine self-healed, and
    how well shard affinity and delta shipping worked.
    """

    timeouts: int = 0  #: scripts that blew their budget (worker- or parent-side)
    respawns: int = 0  #: shard kill-and-respawn cycles (hung or broken workers)
    degraded: int = 0  #: batches that fell back to the serial loop
    shard_hits: int = 0  #: tasks placed on their affinity-preferred shard
    shard_migrations: int = 0  #: affinity overridden by load balancing
    bytes_shipped: int = 0  #: source payload bytes actually sent to workers


def get_worker_pool(workers: int):
    """The persistent shard engine for batched checks (created on demand).

    Workers fork from the parent, so they inherit the parsed-CSV cache as
    of engine creation; each shard then grows its own resident state — an
    incremental executor with prefix snapshots and a content-addressed
    source store — that survives across waves (see
    :mod:`repro.sandbox.shards`).  The name is historical: this used to
    hand out a stateless ``ProcessPoolExecutor``.
    """
    from . import shards

    return shards.get_shard_engine(workers)


def kill_worker_pool() -> None:
    """Hard-kill the shard engine (hung workers ignore graceful shutdown).

    A worker spinning in ``while True`` stays alive through any graceful
    shutdown; SIGKILL-ing the shard processes is the only reliable way to
    reclaim the slot.  The next :func:`get_worker_pool` call respawns a
    fresh engine.  Registered with ``atexit`` so persistent workers can
    never outlive the parent interpreter.
    """
    from . import shards

    shards.kill_shard_engine()


atexit.register(kill_worker_pool)


def run_wave(
    kind: str,
    sources: Sequence[str],
    base: str,
    payload: Dict[str, Any],
    serial_check: Callable[[str], bool],
    workers: int,
    timeout_s: Optional[float] = None,
    respawn_limit: int = 1,
    report: Optional[BatchReport] = None,
) -> Tuple[List[bool], int]:
    """Check one wave of *sources* on the shard engine, in input order.

    The one executor behind every sharded constraint check (task *kind*
    ``"exec_check"`` or ``"verify"``, see :mod:`repro.sandbox.shards`).
    Each source ships as an O(delta) line splice against *base* (the
    wave's common ancestor, resident on the shard after its first
    shipment) and lands on the shard its shared prefix with *base*
    hashes to.  Every task receives *payload* plus ``source_sha`` and
    ``base_sha`` and answers ``(verdict, timed_out)``.

    Fault handling, shared by both kinds:

    * a shard that does not answer within ``2·timeout_s`` plus a grace
      period is declared hung: its running source fails with a timeout
      counted, the shard is hard-killed and respawned, and the wave goes
      on while *respawn_limit* allows;
    * any exception while spawning the engine or running the batch
      kills the engine (the next wave respawns it) and leaves the wave
      unanswered;
    * each unanswered source is answered by ``serial_check(source)``,
      which the caller supplies, and the wave counts as degraded.

    Returns the verdicts and the respawns the wave used.
    """
    from . import shards

    report = report if report is not None else BatchReport()
    if not sources:
        return [], 0
    base_sha = shards.sha1_text(base)
    tasks = []
    for source in sources:
        sha = shards.sha1_text(source)
        if sha == base_sha:
            ship = ((sha, source, None, None),)
        else:
            ship = ((base_sha, base, None, None), (sha, source, base_sha, base))
        tasks.append(
            shards.ShardTask(
                kind=kind,
                payload=dict(payload, source_sha=sha, base_sha=base_sha),
                sources=ship,
                affinity=shards.prefix_affinity(source, base),
            )
        )

    # the parent waits out the worker's own budget (plus slack for queueing
    # behind other tasks on the same shard) before calling it hung
    parent_budget = (
        timeout_s * 2 + _HUNG_WORKER_GRACE_S if timeout_s is not None else None
    )
    outcomes: List[Optional[tuple]] = [None] * len(tasks)
    respawns = 0
    try:
        outcomes, respawns = get_worker_pool(workers).run_batch(
            tasks,
            parent_budget_s=parent_budget,
            respawn_limit=respawn_limit,
            report=report,
        )
    except Exception:  # noqa: BLE001 - broken engine at spawn time or mid-batch
        kill_worker_pool()
        report.respawns += 1
        respawns += 1

    verdicts: List[bool] = []
    degraded = False
    for source, outcome in zip(sources, outcomes):
        if outcome is None or outcome[0] == "failed":
            degraded = True
            verdicts.append(bool(serial_check(source)))
        elif outcome[0] == "ok":
            verdict, worker_timed_out = outcome[1]
            verdicts.append(bool(verdict))
            if worker_timed_out:
                report.timeouts += 1
        else:  # ("hung",): the parent killed the shard running this source
            verdicts.append(False)
            report.timeouts += 1
    if degraded:
        report.degraded += 1
    return verdicts, respawns


def check_executes_batch(
    sources: Sequence[str],
    data_dir: Optional[str] = None,
    sample_rows: Optional[int] = 200,
    workers: int = 1,
    timeout_s: Optional[float] = None,
    respawn_limit: int = 1,
    report: Optional[BatchReport] = None,
    statement_timeout_s: Optional[float] = None,
    snapshot_budget: int = 64,
    affinity_base: Optional[str] = None,
    dialect=None,
) -> List[bool]:
    """CheckIfExecutes() over a wave of candidate scripts.

    With ``workers <= 1`` this is exactly a serial loop over
    :func:`run_script` (deterministic, no processes involved).  With more
    workers the wave runs through :func:`run_wave` against
    *affinity_base* (defaults to the first source): each shard executes
    its candidates on a long-lived
    :class:`~repro.sandbox.incremental.IncrementalExecutor` configured
    with *statement_timeout_s* / *snapshot_budget*, and the cold serial
    check answers whatever the engine leaves unanswered.  Verdicts come
    back in input order, bit-identical to the serial loop for any worker
    count; each worker also runs its script under the in-process
    watchdog, so an unbounded pure-Python loop fails its own check.

    *report*, when provided, accumulates timeout/respawn/degradation
    counts plus shard-affinity and bytes-shipped accounting.
    """
    sources = list(sources)
    dialect_name = resolve_dialect(dialect).name

    def cold_check(source: str) -> bool:
        result = run_script(
            source,
            data_dir=data_dir,
            sample_rows=sample_rows,
            timeout_s=timeout_s,
            dialect=dialect_name,
        )
        if report is not None and result.timed_out:
            report.timeouts += 1
        return bool(result.ok and result.output is not None)

    if workers <= 1 or len(sources) < 2:
        return [cold_check(source) for source in sources]
    verdicts, _ = run_wave(
        "exec_check",
        sources,
        affinity_base if affinity_base is not None else sources[0],
        {
            "data_dir": data_dir,
            "sample_rows": sample_rows,
            "exec_timeout_s": timeout_s,
            "statement_timeout_s": statement_timeout_s,
            "snapshot_budget": snapshot_budget,
            "dialect": dialect_name,
        },
        cold_check,
        workers,
        timeout_s=timeout_s,
        respawn_limit=respawn_limit,
        report=report,
    )
    return verdicts
