"""World racing: fork, apply, execute, and gate every candidate.

Each proposal is raced independently:

1. the exploring session is forked (:meth:`PedSession.fork` -- a
   uid-preserving materialized snapshot, so the fork's first execution
   relinks the parent's compiled units instead of recompiling);
2. the proposal's steps are replayed onto the fork through the normal
   power-steering paths (``apply`` / ``classify_variable`` /
   ``assert_fact`` / ``auto_parallelize``); a refused or crashing step
   fails the world -- the transaction layer guarantees the fork is left
   consistent, and losing forks are simply dropped;
3. the world executes on every requested engine, once with 1 worker and
   once with the race's worker count, and every run is compared
   byte-for-byte (:func:`repro.interp.verify.identical_runs`) against
   the serial oracle run of the *unmodified* parent program;
4. acceptance requires byte-identity under every engine x worker combo;
   the deterministic virtual speedup (oracle clock / world clock) and
   the measured wall-clock speedup are recorded.

Races fan across the persistent shared ``worlds`` thread pool
(``run_tasks(reuse="worlds")``).  A world's DOALL runtime runs its
chunks on the world's own thread, in chunk order, so every world run is
reproducible.  Results return in submission order -- the race outcome
is deterministic even though completion order is not.
"""

from __future__ import annotations

import time

from ..interp.verify import identical_runs, run_program
from ..perf import counters as perf_counters
from ..perf.pool import TaskFailure, cpu_count, run_tasks
from .report import (STATUS_ACCEPTED, STATUS_FAILED, STATUS_REJECTED,
                     WorldProposal, WorldResult, WorldStep)


def apply_steps(session, steps) -> tuple[bool, list[str], str]:
    """Replay a world's steps onto a session via the public APIs.

    Returns ``(ok, applied_descriptions, error)``.  The first refused or
    crashing step stops the replay with ``ok=False``; the power-steering
    transaction layer has already restored the session's program, so a
    failed world is safe to discard (or, on the exploring session
    itself, leaves prior successful steps journaled and undoable).
    """
    applied: list[str] = []
    for st in steps:
        try:
            if st.op == "autopar":
                rep = session.auto_parallelize()
                applied.append(f"auto_parallelize: "
                               f"{len(rep.parallelized)} loop(s)")
            elif st.op == "apply":
                session.select_unit(st.unit)
                res = session.apply(st.transform, loop=st.loop,
                                    **dict(st.params))
                if not res.applied:
                    return False, applied, (
                        f"{st.describe()} refused: "
                        f"{res.error or res.advice.explain()}")
                applied.append(st.describe())
            elif st.op == "classify":
                session.select_unit(st.unit)
                session.classify_variable(st.var, st.kind, loop=st.loop,
                                          reason="worlds explorer")
                applied.append(st.describe())
            elif st.op == "assert":
                session.assert_fact(st.text)
                applied.append(st.describe())
            else:
                return False, applied, f"unknown step op {st.op!r}"
        except Exception as e:
            return False, applied, (f"{st.describe()} failed: "
                                    f"{type(e).__name__}: {e}")
    return True, applied, ""


def parallel_loop_ids(program) -> list[str]:
    """unit:loop display ids of every PARALLEL DO in a program."""
    out = []
    for uname in program.unit_names():
        try:
            loops = program.units[uname].loops.all_loops()
        except Exception:
            continue
        out.extend(f"{uname}:{li.id}" for li in loops if li.loop.parallel)
    return out


def _race_one(child, proposal: WorldProposal, oracle, oracle_clock: float,
              inputs, workers: int, schedule: str,
              engines: tuple[str, ...], max_steps: int) -> WorldResult:
    t0 = time.perf_counter()
    result = WorldResult(proposal=proposal, engines=engines)
    perf_counters.bump("worlds_raced")
    ok, applied, err = apply_steps(child, proposal.steps)
    result.applied = applied
    if not ok:
        result.status = STATUS_FAILED
        result.error = err
        result.elapsed = time.perf_counter() - t0
        return result
    prog = child.program
    result.parallel_loops = parallel_loop_ids(prog)
    result.source = child.source()
    try:
        identical = True
        total_diffs = 0
        for ei, eng in enumerate(engines):
            tw = time.perf_counter()
            w1 = run_program(prog, inputs=list(inputs or []), engine=eng,
                             workers=1, schedule=schedule,
                             max_steps=max_steps)
            wall_serial = time.perf_counter() - tw
            tw = time.perf_counter()
            wn = run_program(prog, inputs=list(inputs or []), engine=eng,
                             workers=workers, schedule=schedule,
                             max_steps=max_steps)
            wall_parallel = time.perf_counter() - tw
            d1 = identical_runs(oracle, w1)
            dn = identical_runs(oracle, wn)
            total_diffs += len(d1) + len(dn)
            if d1 or dn:
                identical = False
                result.error = (f"{eng}: diverges from serial oracle "
                                f"({(d1 or dn).format(limit=2)})")
            if ei == 0:
                result.world_clock = wn.clock
                result.virtual_speedup = (
                    oracle_clock / wn.clock if wn.clock > 0
                    else float("inf"))
                result.wall_serial = wall_serial
                result.wall_parallel = wall_parallel
                result.measured_speedup = (
                    wall_serial / wall_parallel if wall_parallel > 0
                    else float("inf"))
    except Exception as e:
        result.status = STATUS_FAILED
        result.error = f"execution failed: {type(e).__name__}: {e}"
        result.elapsed = time.perf_counter() - t0
        return result
    result.byte_identical = identical
    result.diffs = total_diffs
    result.status = STATUS_ACCEPTED if identical else STATUS_REJECTED
    perf_counters.bump(
        "worlds_accepted" if identical else "worlds_rejected")
    result.elapsed = time.perf_counter() - t0
    return result


def race_worlds(session, proposals, inputs=None, workers: int = 4,
                schedule: str = "static",
                engines: tuple[str, ...] = ("compiled",),
                race_workers: int | None = None,
                max_steps: int = 5_000_000
                ) -> tuple[list[WorldResult], float]:
    """Race every proposal concurrently; results in proposal order.

    Returns ``(results, oracle_clock)``.  The oracle -- the unmodified
    parent program run serially on the primary engine -- executes once
    up front; every world's runs are compared against its snapshot.
    """
    oracle = run_program(session.program, inputs=list(inputs or []),
                         engine=engines[0], workers=1, schedule=schedule,
                         max_steps=max_steps)
    oracle_clock = oracle.clock
    # forks are taken serially (cheap AST clones) so the race tasks
    # start from fully-built children and stay read-only on the parent
    children = [session.fork() for _ in proposals]
    tasks = [
        lambda child=child, p=p: _race_one(
            child, p, oracle, oracle_clock, inputs, workers, schedule,
            engines, max_steps)
        for child, p in zip(children, proposals)]
    raced = run_tasks(
        tasks,
        max_workers=race_workers or min(len(tasks), cpu_count()),
        contexts=[p.name for p in proposals],
        on_error="return",
        reuse="worlds")
    results: list[WorldResult] = []
    for p, r in zip(proposals, raced):
        if isinstance(r, TaskFailure):
            results.append(WorldResult(
                proposal=p, status=STATUS_FAILED,
                error=f"race task died: {type(r.error).__name__}: "
                      f"{r.error}",
                engines=engines, elapsed=r.elapsed))
        else:
            results.append(r)
    return results, oracle_clock
