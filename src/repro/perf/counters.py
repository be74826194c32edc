"""Engine counters: observability for the incremental analysis engine.

The incremental dependence engine (scoped invalidation, memoized pair
testing, pooled whole-program analysis) is a performance feature, and
performance features regress silently unless they are measurable.  This
module keeps one process-wide :class:`EngineCounters` record that the
engine layers update as they work:

* **pair testing** -- hit/miss counts of the ``test_pair`` memo cache
  (:mod:`repro.dependence.tests`);
* **invalidation scope** -- per-event eviction/retention counts for the
  session's loop-dependence cache and the interprocedural summary store
  (:mod:`repro.ped.session`);
* **pool utilization** -- how many tasks ran through the analysis pool,
  in which mode, over how many workers (:mod:`repro.perf.pool`).

Benchmarks and regression tests read the counters through
:func:`snapshot` after :func:`reset`-ing them around the region of
interest.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field, fields


@dataclass
class EngineCounters:
    """Mutable process-wide counters for the incremental engine."""

    # -- memoized pair testing ------------------------------------------------
    pair_hits: int = 0
    pair_misses: int = 0
    pair_evictions: int = 0

    # -- scoped invalidation --------------------------------------------------
    #: invalidation events processed by the session layer
    invalidations: int = 0
    #: events that used a transformation-declared dirty scope
    scoped_invalidations: int = 0
    #: loop-dependence cache entries dropped / kept across all events
    deps_evicted: int = 0
    deps_retained: int = 0
    #: interprocedural summaries rebuilt / reused across all events
    summaries_rebuilt: int = 0
    summaries_retained: int = 0
    #: analyzers dropped / kept across all events
    analyzers_evicted: int = 0
    analyzers_retained: int = 0

    # -- pool utilization -----------------------------------------------------
    pool_batches: int = 0
    pool_tasks: int = 0
    #: tasks that actually went through an executor (not the serial path)
    pool_parallel_tasks: int = 0
    pool_workers: int = 0
    pool_mode: str = ""
    #: shared-executor reuses (persistent pool hits, no startup cost)
    pool_reuses: int = 0

    # -- fork-join DOALL runtime ----------------------------------------------
    #: PARALLEL DO entries executed through the fork-join runtime
    par_loops: int = 0
    #: iteration chunks run across all parallel loop entries
    par_chunks: int = 0
    #: PARALLEL DO entries that fell back to the serial simulation
    #: (ineligible body, unset reduction seed, tiny trip count...)
    par_fallbacks: int = 0

    # -- closure-compiled execution engine ------------------------------------
    #: compiled-unit reuses via the per-UnitIR (generation, code) pair
    compile_hits: int = 0
    #: structural-fingerprint LRU hits relinked after a generation bump
    #: (transform rolled back, undo/redo) without recompiling
    compile_relinks: int = 0
    #: full unit compilations
    compile_misses: int = 0

    # -- vectorized execution engine ------------------------------------------
    #: nest entries executed as bulk numpy operations
    vec_loops: int = 0
    #: nest entries whose runtime prechecks failed (bounds, aliasing,
    #: dependence distances...) and re-ran on the closure engine
    vec_fallbacks: int = 0
    #: iteration-space points executed in bulk across all nest entries
    vec_elements: int = 0
    #: nest entries that reused a hoisted precheck plan (resolved views,
    #: aliasing/dependence verdicts) from the entry-shape memo instead
    #: of re-deriving it
    vec_entry_hits: int = 0
    #: nest entries that derived (and memoized) a fresh precheck plan
    vec_entry_misses: int = 0

    # -- parallel-worlds explorer ---------------------------------------------
    #: candidate transform sequences proposed across all explorations
    worlds_proposed: int = 0
    #: child sessions forked (PedSession.fork)
    worlds_forked: int = 0
    #: worlds actually applied + executed in a race
    worlds_raced: int = 0
    #: worlds whose observables matched the serial oracle byte-for-byte
    worlds_accepted: int = 0
    #: worlds rejected by the byte-identity gate
    worlds_rejected: int = 0
    #: winning sequences replayed onto the exploring session
    worlds_adopted: int = 0

    # -- lint framework -------------------------------------------------------
    #: whole-program / incremental lint driver runs
    lint_runs: int = 0
    #: units actually re-analyzed by lint rules
    lint_units: int = 0
    #: units whose cached lint results were reused (incremental re-lint)
    lint_units_reused: int = 0
    #: units whose lint results were adopted from the shared artifact
    #: store (another session already linted the same program state)
    lint_units_shared: int = 0
    #: diagnostics produced (after dedup, including suppressed)
    lint_diags: int = 0

    # -- batch auto-parallelization fleet -------------------------------------
    #: programs dispatched to the fleet pipeline (incl. re-dispatches)
    fleet_tasks: int = 0
    #: programs whose pipeline completed (any terminal status)
    fleet_completed: int = 0
    #: failed dispatches re-queued with backoff
    fleet_retries: int = 0
    #: dispatches cut off by the per-task timeout
    fleet_timeouts: int = 0
    #: programs quarantined after exhausting their retry budget
    fleet_quarantined: int = 0
    #: programs skipped on resume because the checkpoint journal
    #: already records their completion
    fleet_resumed: int = 0
    #: execution-tier / pool-mode downgrades taken by the ladder
    fleet_degradations: int = 0
    #: serial/parallel observable divergences detected across the fleet
    fleet_divergences: int = 0

    # -- degraded-mode analysis ----------------------------------------------
    #: loops whose analysis fell back to a conservative assumed result
    degraded_loops: int = 0
    #: individual pair tests replaced by an assumed-dependence result
    degraded_pairs: int = 0
    #: analyses stopped early by an exhausted step/time budget
    budget_exhaustions: int = 0

    # -- derived --------------------------------------------------------------

    @property
    def pair_tests(self) -> int:
        return self.pair_hits + self.pair_misses

    def pair_hit_rate(self) -> float:
        total = self.pair_tests
        return self.pair_hits / total if total else 0.0

    def retention_rate(self) -> float:
        total = self.deps_evicted + self.deps_retained
        return self.deps_retained / total if total else 0.0

    def compile_reuse_rate(self) -> float:
        total = self.compile_hits + self.compile_relinks \
            + self.compile_misses
        return (self.compile_hits + self.compile_relinks) / total \
            if total else 0.0

    def snapshot(self) -> dict:
        out = asdict(self)
        out["pair_tests"] = self.pair_tests
        out["pair_hit_rate"] = self.pair_hit_rate()
        out["deps_retention_rate"] = self.retention_rate()
        out["compile_reuse_rate"] = self.compile_reuse_rate()
        return out

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, f.default)


#: the process-wide counter record (reset between measured regions)
COUNTERS = EngineCounters()

#: guards increments arriving from pool worker threads
_LOCK = threading.Lock()


def reset() -> None:
    """Zero every counter (start of a measured region)."""
    with _LOCK:
        COUNTERS.reset()


def snapshot() -> dict:
    """Current counter values plus derived rates, as a plain dict."""
    with _LOCK:
        return COUNTERS.snapshot()


def bump(name: str, n: int = 1) -> None:
    """Thread-safe increment of one counter field."""
    with _LOCK:
        setattr(COUNTERS, name, getattr(COUNTERS, name) + n)


def report() -> str:
    """Human-readable one-screen counter report."""
    s = snapshot()
    lines = [
        "incremental engine counters",
        f"  pair tests     {s['pair_tests']:>8}  "
        f"(hits {s['pair_hits']}, misses {s['pair_misses']}, "
        f"hit rate {s['pair_hit_rate']:.1%})",
        f"  invalidations  {s['invalidations']:>8}  "
        f"(scoped {s['scoped_invalidations']})",
        f"  deps cache     evicted {s['deps_evicted']}, "
        f"retained {s['deps_retained']} "
        f"({s['deps_retention_rate']:.1%} retained)",
        f"  summaries      rebuilt {s['summaries_rebuilt']}, "
        f"retained {s['summaries_retained']}",
        f"  pool           {s['pool_tasks']} tasks in "
        f"{s['pool_batches']} batches, mode "
        f"{s['pool_mode'] or '-'}, workers {s['pool_workers']}",
        f"  compile cache  hits {s['compile_hits']}, "
        f"relinks {s['compile_relinks']}, misses {s['compile_misses']} "
        f"({s['compile_reuse_rate']:.1%} reused)",
        f"  degraded       loops {s['degraded_loops']}, "
        f"pairs {s['degraded_pairs']}, "
        f"budget exhaustions {s['budget_exhaustions']}",
        f"  doall runtime  loops {s['par_loops']}, "
        f"chunks {s['par_chunks']}, fallbacks {s['par_fallbacks']}, "
        f"pool reuses {s['pool_reuses']}",
        f"  vector backend loops {s['vec_loops']}, "
        f"fallbacks {s['vec_fallbacks']}, "
        f"elements {s['vec_elements']}, "
        f"entry memo hits {s['vec_entry_hits']}, "
        f"misses {s['vec_entry_misses']}",
        f"  worlds         proposed {s['worlds_proposed']}, "
        f"forked {s['worlds_forked']}, raced {s['worlds_raced']}, "
        f"accepted {s['worlds_accepted']}, "
        f"rejected {s['worlds_rejected']}, "
        f"adopted {s['worlds_adopted']}",
        f"  lint           runs {s['lint_runs']}, "
        f"units {s['lint_units']}, reused {s['lint_units_reused']}, "
        f"shared {s['lint_units_shared']}, "
        f"diagnostics {s['lint_diags']}",
        f"  fleet          tasks {s['fleet_tasks']}, "
        f"completed {s['fleet_completed']}, "
        f"retries {s['fleet_retries']}, "
        f"timeouts {s['fleet_timeouts']}, "
        f"quarantined {s['fleet_quarantined']}, "
        f"resumed {s['fleet_resumed']}, "
        f"degradations {s['fleet_degradations']}, "
        f"divergences {s['fleet_divergences']}",
    ]
    return "\n".join(lines)
