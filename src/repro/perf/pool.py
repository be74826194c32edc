"""Analysis pool: fan independent analysis tasks across workers.

``AnalyzedProgram.from_source`` (per-unit resolution) and
``PedSession.analyze_all`` (per-loop DDG construction) submit batches of
independent zero-argument callables here.  The pool

* auto-selects its mode: ``thread`` on multi-core hosts, ``serial`` on a
  single core, with the ``REPRO_PARALLEL`` environment variable
  (``thread`` / ``process`` / ``serial``) as an override;
* falls back from ``process`` to ``thread`` for closure tasks (session
  and analyzer objects are not picklable -- only module-level functions
  can cross a process boundary);
* returns results in submission order regardless of completion order, so
  callers merge deterministically and parallel output is byte-identical
  to serial output;
* isolates failures when asked: with ``on_error="return"`` a crashing
  task yields a :class:`TaskFailure` in its result slot (carrying the
  caller-supplied context) instead of sinking the whole batch, and with
  the default ``on_error="raise"`` the surviving exception is annotated
  with the failing task's context before propagating.

Utilization is recorded in :mod:`repro.perf.counters`.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, \
    TimeoutError as FuturesTimeout
from dataclasses import dataclass
from typing import Callable, Sequence

from . import counters


@dataclass
class TaskFailure:
    """One task's failure, returned in its result slot (on_error="return").

    ``context`` is whatever the caller passed in ``contexts`` for this
    task -- e.g. ``(unit_name, loop_id)`` -- so the caller can degrade
    precisely the piece of work that died.  ``elapsed`` is the seconds
    the task ran (or was waited on) before failing and ``timed_out``
    distinguishes a hang cut off by the caller's ``timeout`` from a
    crash; ``attempts`` is 1 from :func:`run_tasks` itself and is
    rewritten by retrying schedulers (:mod:`repro.fleet`) to the total
    attempt count for this piece of work.
    """

    context: object
    error: BaseException
    elapsed: float = 0.0
    attempts: int = 1
    timed_out: bool = False

    def __repr__(self) -> str:  # keep logs short
        extra = ", timed out" if self.timed_out else ""
        return (f"TaskFailure(context={self.context!r}, "
                f"error={type(self.error).__name__}: {self.error}"
                f" [{self.elapsed:.3f}s, attempt {self.attempts}{extra}])")

#: environment override: thread | process | serial (anything else = auto)
ENV_VAR = "REPRO_PARALLEL"

_MODES = ("thread", "process", "serial")


def cpu_count() -> int:
    return os.cpu_count() or 1


def pool_mode(requested: str | None = None) -> str:
    """Resolve the pool mode: explicit request > env override > auto."""
    for mode in (requested, os.environ.get(ENV_VAR, "").lower() or None):
        if mode in _MODES:
            return mode
        if mode in ("off", "none"):
            return "serial"
    return "thread" if cpu_count() > 1 else "serial"


def worker_count(n_tasks: int, max_workers: int | None = None) -> int:
    return max(1, min(n_tasks, max_workers or cpu_count()))


# --------------------------------------------------------------------------
# Persistent shared executors (created once per process and reused, so
# pool startup is paid once per process, not once per batch or loop)
# --------------------------------------------------------------------------

_SHARED: dict[str, tuple] = {}      # kind -> (executor, max_workers)
#: executors replaced by a grow; callers that obtained them before the
#: grow may still be submitting, so they drain here and are reaped at
#: shutdown instead of being shut down mid-flight
_RETIRED: list = []
_SHARED_LOCK = threading.Lock()


def shared_executor(kind: str, workers: int):
    """Process-wide executor of the given kind with at least ``workers``
    workers.  Grows (replacing the old executor) when a caller asks for
    more; otherwise the existing pool is reused.

    ``"process"`` runs the DOALL runtime's chunks under
    ``REPRO_EXEC_POOL=process``; ``"worlds"`` is the parallel-worlds
    race's thread pool; ``"thread"`` serves ``run_tasks(reuse=True)``.
    """
    if kind not in ("thread", "process", "worlds"):
        raise ValueError(f"unknown executor kind {kind!r}")
    with _SHARED_LOCK:
        cur = _SHARED.get(kind)
        if cur is not None and cur[1] >= workers:
            counters.bump("pool_reuses")
            return cur[0]
        if cur is not None:
            # Never shut a replaced executor down here: a concurrent
            # caller that resolved it before this grow may be mid-submit,
            # and submitting to a shut-down executor raises.  Retire it;
            # in-flight work drains and the reap happens at shutdown.
            _RETIRED.append(cur[0])
        if kind == "process":
            import multiprocessing
            ex = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn"))
        else:
            ex = ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix=f"repro-{kind}")
        _SHARED[kind] = (ex, workers)
        with counters._LOCK:
            counters.COUNTERS.pool_workers = max(
                counters.COUNTERS.pool_workers, workers)
        return ex


def shutdown_shared_executors(wait: bool = False) -> None:
    """Tear down the persistent executors (atexit / tests)."""
    with _SHARED_LOCK:
        for ex, _ in _SHARED.values():
            ex.shutdown(wait=wait)
        _SHARED.clear()
        for ex in _RETIRED:
            ex.shutdown(wait=wait)
        _RETIRED.clear()


atexit.register(shutdown_shared_executors)


def _run_one(task: Callable[[], object], index: int, context: object,
             on_error: str) -> object:
    """Execute one task with fault-injection hook and error policy."""
    import time
    from ..testing import faults
    t0 = time.perf_counter()
    try:
        faults.check("pool_worker", index=index, context=context)
        return task()
    except Exception as e:
        if on_error == "return":
            return TaskFailure(context=context, error=e,
                               elapsed=time.perf_counter() - t0)
        # Attach the task's context so a surviving exception says *which*
        # unit/loop died, not just that something in the batch did.
        if context is not None and not getattr(e, "task_context", None):
            e.task_context = context
            e.args = (f"{e.args[0] if e.args else e}"
                      f" [task context: {context!r}]",) + tuple(e.args[1:])
        raise


def run_tasks(tasks: Sequence[Callable[[], object]],
              parallel: bool | None = None,
              mode: str | None = None,
              max_workers: int | None = None,
              picklable: bool = False,
              contexts: Sequence[object] | None = None,
              on_error: str = "raise",
              timeout: float | None = None,
              reuse: "bool | str" = False) -> list:
    """Run independent zero-arg callables; results in submission order.

    ``parallel=None`` auto-selects (pool when the resolved mode is not
    serial and there is more than one task); ``parallel=False`` forces
    the serial path; ``parallel=True`` forces a pool even on one core
    (useful for determinism regression tests).

    ``contexts`` (same length as ``tasks``) labels each task for error
    reporting.  ``on_error="raise"`` (default) propagates the first
    failure, annotated with its task's context; ``on_error="return"``
    isolates failures, placing a :class:`TaskFailure` in the failing
    task's result slot so the rest of the batch still completes.

    ``timeout`` bounds, in seconds, how long the caller waits for each
    task's result once it starts waiting on it (so with as many workers
    as tasks it approximates a per-task run-time limit).  A task that
    exceeds it yields a :class:`TaskFailure` whose ``timed_out`` flag is
    set (``on_error="return"``) or raises the ``TimeoutError``
    (``on_error="raise"``) -- either way the caller can tell a hang from
    a crash.  The overrun task itself cannot be interrupted (threads are
    not killable); it keeps running in the pool and its eventual result
    is discarded.  The serial path cannot preempt at all, so ``timeout``
    is ignored there.

    ``reuse`` routes the batch through the persistent
    :func:`shared_executor` instead of constructing (and tearing down) a
    fresh executor -- the right choice for hot callers that fan many
    batches and would otherwise pay pool startup per batch.  ``True``
    picks the kind matching the resolved mode; a string names the shared
    kind explicitly (the parallel-worlds race passes ``"worlds"``).  A
    reused executor is never shut down here, so timed-out orphans keep
    occupying shared workers until they finish.
    """
    tasks = list(tasks)
    if contexts is not None:
        contexts = list(contexts)
        if len(contexts) != len(tasks):
            raise ValueError("contexts must match tasks 1:1")
    ctx_of = (lambda i: contexts[i]) if contexts is not None \
        else (lambda i: None)
    resolved = pool_mode(mode)
    if resolved == "process" and not picklable:
        resolved = "thread"   # closures cannot cross a process boundary
    if parallel is None:
        parallel = resolved != "serial" and len(tasks) > 1
    if parallel and resolved == "serial":
        resolved = "thread"   # explicit request overrides the auto pick

    counters.bump("pool_batches")
    counters.bump("pool_tasks", len(tasks))

    # A thread-scoped artifact store (repro.store.scoped_store) is
    # thread-local, so pool workers would silently fall back to the
    # process-default store -- leaking one session's artifacts into the
    # shared tier.  Extend the submitter's scope across its workers.
    # Process pools are exempt: stores don't cross process boundaries,
    # and process tasks must stay picklable.
    if resolved != "process":
        from ..store import current_override, scoped_store
        override = current_override()
        if override is not None:
            def _scope(task, _ov=override):
                def run():
                    with scoped_store(_ov):
                        return task()
                return run
            tasks = [_scope(t) for t in tasks]

    if not parallel or len(tasks) <= 1:
        with counters._LOCK:
            counters.COUNTERS.pool_mode = "serial"
        return [_run_one(t, i, ctx_of(i), on_error)
                for i, t in enumerate(tasks)]

    workers = worker_count(len(tasks), max_workers)
    counters.bump("pool_parallel_tasks", len(tasks))
    with counters._LOCK:
        counters.COUNTERS.pool_mode = resolved
        counters.COUNTERS.pool_workers = max(
            counters.COUNTERS.pool_workers, workers)
    if reuse:
        kind = reuse if isinstance(reuse, str) \
            else ("process" if resolved == "process" else "thread")
        ex = shared_executor(kind, workers)
    else:
        executor_cls = ProcessPoolExecutor if resolved == "process" \
            else ThreadPoolExecutor
        ex = executor_cls(max_workers=workers)
    try:
        futures = [ex.submit(_run_one, t, i, ctx_of(i), on_error)
                   for i, t in enumerate(tasks)]
        # submission order, not completion order: deterministic merge
        results = []
        import time as _time
        for i, f in enumerate(futures):
            if timeout is None:
                results.append(f.result())
                continue
            t0 = _time.perf_counter()
            try:
                results.append(f.result(timeout=timeout))
            except FuturesTimeout:
                f.cancel()   # drop it if still queued; running = orphaned
                elapsed = _time.perf_counter() - t0
                err = TimeoutError(
                    f"task did not finish within {timeout}s")
                if on_error == "return":
                    results.append(TaskFailure(
                        context=ctx_of(i), error=err, elapsed=elapsed,
                        timed_out=True))
                    continue
                ctx = ctx_of(i)
                if ctx is not None:
                    err.task_context = ctx
                    err.args = (f"{err.args[0]} "
                                f"[task context: {ctx!r}]",)
                raise err from None
        return results
    finally:
        # don't block on orphaned (timed-out but unkillable) tasks; a
        # shared executor outlives the batch by design
        if not reuse:
            ex.shutdown(wait=timeout is None)
