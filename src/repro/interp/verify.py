"""Run-and-compare helpers: transformation verification and parallel
speedup simulation.

Three execution engines sit behind :func:`run_program`:

* ``"compiled"`` (default) -- the closure-compiled engine
  (:mod:`repro.interp.compile`), ~5-9x faster on the corpus; compiled
  units are cached across transform -> verify cycles;
* ``"vector"`` -- the numpy bulk-lowering engine
  (:mod:`repro.interp.vectorize`): eligible loop nests execute as
  whole-nest slice/ufunc operations, everything else runs on the
  closure engine embedded in the same compiled unit;
* ``"tree"`` -- the tree-walking reference interpreter
  (:mod:`repro.interp.machine`), kept as the differential-testing
  oracle.

Select per call with ``engine=``, or process-wide with the
``REPRO_EXEC_ENGINE`` environment variable.  Verification re-runs the
same source text repeatedly (original vs. transformed, before vs.
after), so parsed/analyzed programs are memoized in a small LRU keyed
by source text (disable with ``REPRO_EXEC_CACHE=0``).

The compiled engine can additionally execute ``PARALLEL DO`` loops
through the fork-join DOALL runtime (:mod:`repro.interp.runtime`): pass
``workers=N``/``schedule=`` or set ``REPRO_EXEC_WORKERS`` /
``REPRO_EXEC_SCHEDULE``.  Results stay byte-identical to serial; only
wall-clock time changes, which :func:`simulate_speedup` reports in
:class:`ParallelTiming` alongside the virtual clocks.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from ..fortran import parse_program
from ..ir.program import AnalyzedProgram
from ..store import MISS, declare as _declare_ns, get_store
from .compile import CompiledInterpreter
from .machine import Interpreter, Profile
from .runtime import resolve_schedule, resolve_workers
from .vectorize import VectorInterpreter

#: recognized engine names
ENGINES = ("compiled", "vector", "tree")

#: source text -> AnalyzedProgram; memory tier only (UnitIRs embed
#: compiled closures and process-local statement uids)
_PROGRAM_NS = "program"
_declare_ns(_PROGRAM_NS, mem_entries=32, disk=False)


def resolve_engine(engine: str | None = None) -> str:
    """Normalize an engine selector (None -> env -> ``"compiled"``)."""
    if engine is None:
        engine = os.environ.get("REPRO_EXEC_ENGINE") or "compiled"
    if engine not in ENGINES:
        raise ValueError(
            f"unknown execution engine {engine!r} (expected one of "
            f"{', '.join(ENGINES)})")
    return engine


def make_interpreter(program: AnalyzedProgram, inputs=None,
                     max_steps: int = 5_000_000, assertion_checker=None,
                     engine: str | None = None,
                     workers: int | None = None,
                     schedule: str | None = None):
    """Fresh interpreter of the selected engine over an analyzed
    program (not yet run).  ``workers``/``schedule`` attach the
    fork-join DOALL runtime to the compiled engine (the tree engine is
    the serial oracle and accepts-but-ignores them)."""
    eng = resolve_engine(engine)
    if eng == "compiled" or eng == "vector":
        cls = VectorInterpreter if eng == "vector" else CompiledInterpreter
        return cls(
            program, inputs=inputs, max_steps=max_steps,
            assertion_checker=assertion_checker,
            workers=resolve_workers(workers),
            schedule=resolve_schedule(schedule))
    return Interpreter(program, inputs=inputs, max_steps=max_steps,
                       assertion_checker=assertion_checker)


def analyzed_program(source_or_program) -> AnalyzedProgram:
    """Analyzed program for a source text (memoized) or pass-through."""
    if not isinstance(source_or_program, str):
        return source_or_program
    if os.environ.get("REPRO_EXEC_CACHE", "1") == "0":
        return AnalyzedProgram(parse_program(source_or_program))
    store = get_store()
    prog = store.get(_PROGRAM_NS, source_or_program)
    if prog is not MISS:
        return prog
    prog = AnalyzedProgram(parse_program(source_or_program))
    store.put(_PROGRAM_NS, source_or_program, prog)
    return prog


def clear_program_cache() -> None:
    get_store().clear(_PROGRAM_NS)


def run_program(source_or_program, inputs=None, max_steps: int = 5_000_000,
                assertion_checker=None, engine: str | None = None,
                workers: int | None = None, schedule: str | None = None):
    """Parse (if needed) and execute; returns the finished interpreter."""
    program = analyzed_program(source_or_program)
    interp = make_interpreter(program, inputs=inputs, max_steps=max_steps,
                              assertion_checker=assertion_checker,
                              engine=engine, workers=workers,
                              schedule=schedule)
    interp.run()
    return interp


def _common_context(interp, key: str) -> str:
    """``common:X`` diff keys gain the units that declare X (the loop-
    level context lives in the program, not the snapshot)."""
    if not key.startswith("common:"):
        return ""
    name = key[len("common:"):]
    program = getattr(interp, "program", None)
    if program is None:
        return ""
    units = [uname for uname, uir in program.units.items()
             if uir.symtab.get(name) is not None
             and uir.symtab.get(name).storage == "common"]
    if not units:
        return ""
    return f" (COMMON, declared in {', '.join(sorted(units))})"


def format_diffs(diffs: list[str], limit: int = 5) -> str:
    """Join diffs for an error message, saying how many were cut."""
    shown = "; ".join(diffs[:limit])
    hidden = len(diffs) - limit
    if hidden > 0:
        plural = "s" if hidden != 1 else ""
        shown += f"; ... and {hidden} more difference{plural}"
    return shown


class RunDiff(list):
    """The differences between two runs, as a list of human-readable
    strings (so every existing ``compare_runs(...) == []`` caller keeps
    working) plus structure on the side:

    * ``keys`` -- the snapshot key behind each entry, in entry order;
    * ``first_key`` -- the key of the first divergence (``None`` when
      the runs agree), which the relative debugger seeds its statement
      search with;
    * ``truncated(limit)`` -- how many entries a ``format(limit)``
      rendering cuts off, so callers surface the truncation count
      instead of silently dropping detail.
    """

    def __init__(self, entries=(), keys=()):
        super().__init__(entries)
        self.keys: list[str] = list(keys)

    @property
    def first_key(self) -> str | None:
        return self.keys[0] if self.keys else None

    @property
    def divergent_keys(self) -> list[str]:
        """Unique divergent snapshot keys, first-seen order."""
        out: list[str] = []
        for k in self.keys:
            if k not in out:
                out.append(k)
        return out

    def truncated(self, limit: int = 5) -> int:
        return max(0, len(self) - limit)

    def format(self, limit: int = 5) -> str:
        return format_diffs(list(self), limit=limit)

    def to_json(self, limit: int = 5) -> dict:
        return {"count": len(self), "first_key": self.first_key,
                "keys": self.divergent_keys,
                "entries": list(self)[:limit],
                "truncated": self.truncated(limit)}


def compare_runs(a: Interpreter, b: Interpreter,
                 rtol: float = 1e-9, atol: float = 1e-8) -> RunDiff:
    """Differences in observable state between two finished runs, as a
    :class:`RunDiff` (a ``list`` subclass -- empty means identical).

    Array diffs carry the mismatch count and first differing element;
    ``common:`` keys name the declaring units.  ``atol`` defaults to
    numpy's; the relative debugger passes ``rtol=0, atol=0`` to count
    ulp-level reassociation drift as a divergence.
    """
    diffs: list[str] = []
    diff_keys: list[str] = []

    def add(key: str, text: str) -> None:
        diffs.append(text)
        diff_keys.append(key)

    sa, sb = a.snapshot(), b.snapshot()
    keys = sorted(set(sa) | set(sb))
    for k in keys:
        va, vb = sa.get(k), sb.get(k)
        ctx = _common_context(a, k)
        if va is None or vb is None:
            add(k, f"{k}{ctx}: present in only one run")
            continue
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            va2, vb2 = np.asarray(va), np.asarray(vb)
            if va2.shape != vb2.shape:
                add(k, f"{k}{ctx}: arrays differ "
                       f"(shape {va2.shape} vs {vb2.shape})")
                continue
            if not np.allclose(va2, vb2, rtol=rtol, atol=atol,
                               equal_nan=True):
                neq = ~np.isclose(va2, vb2, rtol=rtol, atol=atol,
                                  equal_nan=True)
                n_bad = int(neq.sum())
                flat = np.flatnonzero(neq.reshape(-1, order="F"))
                i = int(flat[0]) if flat.size else 0
                fa = va2.reshape(-1, order="F")[i]
                fb = vb2.reshape(-1, order="F")[i]
                add(k, f"{k}{ctx}: arrays differ ({n_bad} of {va2.size} "
                       f"element{'s' if va2.size != 1 else ''}; first at "
                       f"F-order index {i}: {fa} != {fb})")
            continue
        if isinstance(va, list):
            if len(va) != len(vb):
                add(k, f"{k}: output lengths differ "
                       f"({len(va)} vs {len(vb)})")
                continue
            for i, (x, y) in enumerate(zip(va, vb)):
                if isinstance(x, float) or isinstance(y, float):
                    if not np.isclose(x, y, rtol=rtol, atol=atol):
                        add(k, f"{k}[{i}]: {x} != {y}")
                elif x != y:
                    add(k, f"{k}[{i}]: {x} != {y}")
            continue
        if va != vb:
            add(k, f"{k}{ctx}: {va} != {vb}")
    return RunDiff(diffs, diff_keys)


def identical_runs(a: Interpreter, b: Interpreter) -> RunDiff:
    """Byte-identity comparison of two finished runs (``rtol=atol=0``):
    even 1-ulp reassociation drift counts as a divergence.  This is the
    acceptance gate the parallel-worlds explorer applies between each
    speculative world and the serial oracle, and the same tolerance the
    relative debugger bisects under."""
    return compare_runs(a, b, rtol=0.0, atol=0.0)


def verify_equivalence(original: str, transformed: str,
                       inputs=None, rtol: float = 1e-9,
                       engine: str | None = None) -> RunDiff:
    """Run both sources on the same inputs; return observable diffs
    (empty = equivalent on this input)."""
    ra = run_program(original, inputs=list(inputs or []), engine=engine)
    rb = run_program(transformed, inputs=list(inputs or []), engine=engine)
    return compare_runs(ra, rb, rtol=rtol)


@dataclass
class ParallelTiming:
    """Virtual-clock and wall-clock timings of a sequential/parallel
    program pair.  The virtual ``speedup`` reflects the fork-join cost
    model; ``measured_speedup`` is real elapsed time (only meaningful
    when the parallel run used the DOALL runtime with workers)."""

    sequential_time: float
    parallel_time: float
    wall_sequential: float = 0.0
    wall_parallel: float = 0.0

    @property
    def speedup(self) -> float:
        if self.parallel_time <= 0:
            return float("inf")
        return self.sequential_time / self.parallel_time

    @property
    def measured_speedup(self) -> float:
        if self.wall_parallel <= 0:
            return float("inf")
        return self.wall_sequential / self.wall_parallel


def simulate_speedup(sequential_source: str, parallel_source: str,
                     inputs=None, engine: str | None = None,
                     workers: int | None = None,
                     schedule: str | None = None,
                     diff_limit: int = 5) -> ParallelTiming:
    """Virtual-clock (and wall-clock) comparison of a program
    before/after parallelization.

    The interpreter's fork-join model charges a PARALLEL DO the maximum
    iteration time plus a fixed overhead, so the virtual ratio reflects
    exposed granularity rather than real hardware.  With ``workers``
    the parallel source additionally executes its PARALLEL DO loops for
    real, and ``wall_sequential``/``wall_parallel`` report elapsed
    time."""
    t0 = time.perf_counter()
    ra = run_program(sequential_source, inputs=list(inputs or []),
                     engine=engine)
    wall_seq = time.perf_counter() - t0
    t0 = time.perf_counter()
    rb = run_program(parallel_source, inputs=list(inputs or []),
                     engine=engine, workers=workers, schedule=schedule)
    wall_par = time.perf_counter() - t0
    diffs = compare_runs(ra, rb)
    if diffs:
        raise AssertionError(
            f"parallel version changes results "
            f"({len(diffs)} difference{'s' if len(diffs) != 1 else ''}): "
            + format_diffs(diffs, limit=diff_limit))
    return ParallelTiming(sequential_time=ra.clock, parallel_time=rb.clock,
                          wall_sequential=wall_seq, wall_parallel=wall_par)
