"""Fork-join DOALL runtime for compiled ``PARALLEL DO`` loops.

The serial engines *simulate* a ``PARALLEL DO``: they run every
iteration on one thread and then collapse the virtual clock to
``max(iteration) + overhead``.  This module executes eligible loops
through real fork-join machinery -- chunked iteration space, per-chunk
register files, reductions and a join -- while keeping the simulated
engines as the differential oracle: for any worker count and either
schedule the run must produce **byte-identical** ``snapshot()``
observables, step counts, virtual clocks, and profiles.

Chunks run on the calling thread, in chunk order.  CPython's GIL never
lets two interpreter-bound chunks run at once, so a thread pool would
only add dispatch cost -- and let chunks interleave on arrays they all
write.  ``REPRO_EXEC_POOL=process`` runs the chunks of a loop entry
concurrently in a spawn-based process pool instead.

How byte-identity survives the fork-join machinery:

* **exact virtual clock** -- every statement cost is a dyadic rational
  (multiples of 1/8, see ``machine.COST_TERM``) far below 2**49, so
  float accumulation is exact and per-iteration clock deltas do not
  depend on the clock base a chunk starts from; summed partials equal
  the serial fold bit-for-bit under any chunk partition;
* **privatization** -- per-chunk register files; privatized scalars and
  inner DO variables start as *unset* in every chunk and the last chunk
  that wrote one wins at the join (chunks partition the iteration space
  in order, so this is the serial last-write);
* **arrays** -- chunks share the run's array storage; in chunk order
  every store lands in serial order, so even a PRIVATE array, which
  every iteration writes at the same indices, ends with the serial last
  write.  Pool processes run chunks concurrently, so under the process
  pool a loop whose PRIVATE list names an array is ineligible;
* **reductions** -- only *exactly associative* recurrences run in
  parallel: INTEGER ``+``/``-``/``*`` with statically integer-typed
  operands (per-chunk partials from the identity, combined in chunk
  order with arbitrary-precision int arithmetic) and ``MAX``/``MIN``
  (per-chunk partials seeded with the loop-entry value; max/min never
  rounds).  Floating-point ``+``/``*`` reductions are *ineligible* and
  fall back to the serial simulation rather than reassociate;
* **eligibility, not heroics** -- loops whose bodies do I/O reads,
  STOP/RETURN, escaping jumps, writes to COMMON scalars, or writes to
  scalars that are neither privatized nor recognized reductions fall
  back to the (byte-identical by construction) serial simulation, and a
  counter records the fallback.

Scheduling is chunked: ``static`` deals ``workers`` near-equal
contiguous chunks; ``dynamic`` deals smaller contiguous chunks.  Chunk
boundaries never affect results (see above), only the per-chunk fixed
cost and the process pool's load balance.  The process pool is
process-wide and reused across runs
(:func:`repro.perf.pool.shared_executor`).
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..fortran import ast
from ..perf import counters as perf_counters
from .machine import (
    _TYPE_DTYPE, ArrayStorage, RuntimeFault, StepLimitExceeded,
    parallel_jump_fault, parallel_overhead,
)

__all__ = [
    "ParallelRuntime", "ParLoopPlan", "build_plan", "chunk_ranges",
    "interleaved_order", "resolve_workers", "resolve_schedule",
    "resolve_pool_kind", "SCHEDULES",
]

SCHEDULES = ("static", "dynamic")

#: dynamic schedule: aim for this many chunks per worker
_DYNAMIC_CHUNKS_PER_WORKER = 4

#: pickle-safe stand-in for the compile-module _UNSET sentinel
_UNSET_TOKEN = "\x00__REPRO_UNSET__\x00"


def resolve_workers(workers: int | None = None) -> int | None:
    """Worker count: explicit argument > ``REPRO_EXEC_WORKERS`` > None
    (None = keep the serial simulation; N = run the fork-join runtime,
    chunking each loop entry for N workers)."""
    if workers is not None:
        w = int(workers)
        if w < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return w
    env = os.environ.get("REPRO_EXEC_WORKERS")
    if env:
        try:
            w = int(env)
        except ValueError:
            return None
        if w >= 1:
            return w
    return None


def resolve_schedule(schedule: str | None = None) -> str:
    """Iteration schedule: explicit > ``REPRO_EXEC_SCHEDULE`` > static."""
    s = schedule or os.environ.get("REPRO_EXEC_SCHEDULE") or "static"
    s = s.lower()
    if s not in SCHEDULES:
        raise ValueError(
            f"unknown schedule {s!r} (expected one of {SCHEDULES})")
    return s


def resolve_pool_kind(kind: str | None = None) -> str:
    """Pool kind: explicit > ``REPRO_EXEC_POOL`` > thread.

    ``thread`` runs every chunk on the calling thread, in chunk order:
    storage is shared and stores land in serial order, so the serial
    memory model holds exactly.  ``process`` runs the chunks
    concurrently in a spawn-based pool that ships arrays through
    ``multiprocessing.shared_memory``.
    """
    k = kind or os.environ.get("REPRO_EXEC_POOL") or "thread"
    k = k.lower()
    if k not in ("thread", "process"):
        raise ValueError(
            f"unknown pool kind {k!r} (expected thread or process)")
    return k


def chunk_ranges(trips: int, workers: int, schedule: str) -> list:
    """Contiguous ``(index, offset, count)`` chunks over ``range(trips)``.

    Static: ``min(workers, trips)`` near-equal chunks.  Dynamic: smaller
    chunks (about ``_DYNAMIC_CHUNKS_PER_WORKER`` per worker) that idle
    pool processes pick up.  Correctness never depends on the partition;
    the index orders the join merge back into iteration order.
    """
    if trips <= 0:
        return []
    if schedule == "dynamic":
        size = max(1, trips // (workers * _DYNAMIC_CHUNKS_PER_WORKER))
        return [(ci, off, min(size, trips - off))
                for ci, off in enumerate(range(0, trips, size))]
    n = min(workers, trips)
    base, rem = divmod(trips, n)
    out = []
    off = 0
    for i in range(n):
        cnt = base + (1 if i < rem else 0)
        out.append((i, off, cnt))
        off += cnt
    return out


def interleaved_order(trips: int, workers: int,
                      schedule: str) -> list[tuple[int, int]]:
    """A deterministic *adversarial* iteration order: one iteration from
    each chunk in turn, i.e. every chunk of :func:`chunk_ranges` makes
    progress in lock-step.

    This is a legal concurrent execution of a PARALLEL DO at iteration
    granularity -- exactly the interleaving a worker pool could produce
    -- chosen to maximally violate sequential iteration order.  The
    relative debugger (:mod:`repro.interp.relative`) replays racy loops
    under it to turn "results differ under the runtime, sometimes" into
    a reproducible divergence it can bisect.  Returns ``(chunk_index,
    iteration_index)`` pairs covering ``range(trips)`` exactly once.
    """
    chunks = chunk_ranges(trips, workers, schedule)
    out: list[tuple[int, int]] = []
    step = 0
    remaining = trips
    while remaining > 0:
        for ci, off, cnt in chunks:
            if step < cnt:
                out.append((ci, off + step))
                remaining -= 1
        step += 1
    return out


# --------------------------------------------------------------------------
# Lazy handle on the compile module (compile imports us at module level)
# --------------------------------------------------------------------------

_ENG = None


def _engine():
    global _ENG
    if _ENG is None:
        from . import compile as engmod
        _ENG = engmod
    return _ENG


# --------------------------------------------------------------------------
# Compile-time loop facts: reductions, written scalars, blockers
# --------------------------------------------------------------------------

_MAXFNS = frozenset({"MAX", "AMAX1", "MAX0", "DMAX1"})
_MINFNS = frozenset({"MIN", "AMIN1", "MIN0", "DMIN1"})
#: intrinsics whose value is integer when every argument is integer
_INTFNS = frozenset({"ABS", "IABS", "MOD", "ISIGN", "SIGN", "IDIM",
                     "DIM"} | _MAXFNS | _MINFNS)
#: intrinsics whose value is integer regardless of argument type
_TOINT = frozenset({"INT", "IFIX", "IDINT", "NINT"})


class RedPlan:
    """One recognized parallel reduction: ``s = s op e`` (or MAX/MIN)."""

    __slots__ = ("name", "slot", "kind", "type_name")

    def __init__(self, name, slot, kind, type_name):
        self.name = name
        self.slot = slot
        self.kind = kind          # "sum" (+/-), "prod" (*), "max", "min"
        self.type_name = type_name


class ParLoopPlan:
    """Static facts about one PARALLEL DO, computed once at compile time.

    ``blocked`` is a human-readable reason the loop can never execute in
    parallel (it then always takes the serial simulation); everything
    else feeds the per-run eligibility verdict.
    """

    __slots__ = ("uname", "var", "vslot", "term", "line", "body",
                 "blocked", "has_assert", "written", "inner_vars",
                 "callees", "reductions")

    def __init__(self, uname, var, vslot, term, line, body):
        self.uname = uname
        self.var = var
        self.vslot = vslot
        self.term = term
        self.line = line
        self.body = body
        self.blocked: str | None = None
        self.has_assert = False
        self.written: frozenset = frozenset()
        self.inner_vars: frozenset = frozenset()
        self.callees: frozenset = frozenset()
        self.reductions: tuple = ()


def _int_typed(e, st) -> bool:
    """Conservatively: does this expression always evaluate to a Python
    int?  (Gate for +/-/* reductions: integer accumulation is exact.)"""
    if isinstance(e, ast.IntConst):
        return True
    if isinstance(e, ast.VarRef):
        sym = st.get(e.name)
        return sym is not None and sym.type_name == "INTEGER"
    if isinstance(e, (ast.ArrayRef, ast.NameRef)):
        sym = st.get(e.name)
        return (sym is not None and sym.is_array
                and sym.type_name == "INTEGER")
    if isinstance(e, ast.UnOp):
        return e.op in ("+", "-") and _int_typed(e.operand, st)
    if isinstance(e, ast.BinOp):
        return (e.op in ("+", "-", "*", "/")
                and _int_typed(e.left, st) and _int_typed(e.right, st))
    if isinstance(e, ast.FuncRef) and e.intrinsic:
        u = e.name.upper()
        if u in _TOINT:
            return True
        if u in _INTFNS:
            return all(_int_typed(a, st) for a in e.args)
    return False


def _red_match(value, name):
    """``(kind, operand)`` when ``value`` is ``name op e`` in a
    reduction shape, else None."""
    if isinstance(value, ast.BinOp):
        le, ri = value.left, value.right
        l_is = isinstance(le, ast.VarRef) and le.name.upper() == name
        r_is = isinstance(ri, ast.VarRef) and ri.name.upper() == name
        if value.op == "+":
            if l_is:
                return ("sum", ri)
            if r_is:
                return ("sum", le)
        elif value.op == "-" and l_is:
            return ("sum", ri)
        elif value.op == "*":
            if l_is:
                return ("prod", ri)
            if r_is:
                return ("prod", le)
    elif isinstance(value, ast.FuncRef) and value.intrinsic \
            and len(value.args) == 2:
        u = value.name.upper()
        if u in _MAXFNS or u in _MINFNS:
            kind = "max" if u in _MAXFNS else "min"
            a, b = value.args
            if isinstance(a, ast.VarRef) and a.name.upper() == name:
                return (kind, b)
            if isinstance(b, ast.VarRef) and b.name.upper() == name:
                return (kind, a)
    return None


def _stmt_read_exprs(s):
    """Expression trees this statement *reads* (incl. store subscripts)."""
    exprs = list(s.exprs())
    if isinstance(s, ast.Assign) and isinstance(
            s.target, (ast.ArrayRef, ast.NameRef)):
        exprs.extend(s.target.children())
    elif isinstance(s, ast.ReadStmt):
        for it in s.items:
            if isinstance(it, (ast.ArrayRef, ast.NameRef)):
                exprs.extend(it.children())
    return exprs


def build_plan(cx, s: ast.DoLoop, body, vslot, term) -> ParLoopPlan:
    """Collect the static parallel-execution facts for one PARALLEL DO.

    Called by ``compile._comp_do`` with the unit's compile context; the
    plan is registered in ``UnitCode.par_plans`` (dense loop index) so
    process-pool workers can recover it from their own compile.
    """
    st = cx.st
    plan = ParLoopPlan(cx.uname, s.var.upper(), vslot, term, s.line,
                       body)
    labels = set()
    jump_targets = set()
    written = set()
    inner_vars = set()
    callees = set()
    red_occ: dict[str, list] = {}
    var_reads: dict[str, int] = {}
    self_reads: dict[str, int] = {}
    blocked = None

    walk = list(ast.walk_stmts(s.body))
    for stmt, _ in walk:
        if stmt.label is not None:
            labels.add(stmt.label)
        if isinstance(stmt, ast.DoLoop):
            inner_vars.add(stmt.var.upper())
            if stmt.term_label is not None:
                labels.add(stmt.term_label)
        elif isinstance(stmt, ast.ReadStmt):
            blocked = blocked or "READ statement in loop body"
        elif isinstance(stmt, ast.Stop):
            blocked = blocked or "STOP in loop body"
        elif isinstance(stmt, ast.Return):
            blocked = blocked or "RETURN in loop body"
        elif isinstance(stmt, ast.AssertStmt):
            plan.has_assert = True
        elif isinstance(stmt, ast.Goto):
            jump_targets.add(stmt.target)
        elif isinstance(stmt, ast.ComputedGoto):
            jump_targets.update(stmt.targets)
        elif isinstance(stmt, ast.ArithIf):
            jump_targets.update((stmt.neg_label, stmt.zero_label,
                                 stmt.pos_label))
        elif isinstance(stmt, ast.CallStmt):
            callees.add(stmt.name.upper())
            for a in stmt.args:
                if isinstance(a, ast.VarRef):
                    sym = st.get(a.name)
                    if sym is None or not sym.is_array:
                        written.add(a.name.upper())

        if isinstance(stmt, ast.Assign) and isinstance(
                stmt.target, ast.VarRef):
            name = stmt.target.name.upper()
            m = _red_match(stmt.value, name)
            if m is not None and name not in {
                    v.upper() for v in ast.variables_in(m[1])}:
                red_occ.setdefault(name, []).append(m[0])
                self_reads[name] = self_reads.get(name, 0) + 1
            else:
                written.add(name)

        for e in _stmt_read_exprs(stmt):
            for node in ast.walk_expr(e):
                if isinstance(node, ast.VarRef):
                    n = node.name.upper()
                    var_reads[n] = var_reads.get(n, 0) + 1
                elif isinstance(node, ast.FuncRef) and not node.intrinsic:
                    callees.add(node.name.upper())
                    for a in node.args:
                        if isinstance(a, ast.VarRef):
                            sym = st.get(a.name)
                            if sym is None or not sym.is_array:
                                written.add(a.name.upper())
                elif isinstance(node, ast.NameRef):
                    sym = st.get(node.name)
                    if sym is None or not sym.is_array:
                        callees.add(node.name.upper())

    # A jump whose target is not a body label (or the loop terminator)
    # escapes the loop; the serial simulation faults at the offending
    # iteration, so keep full state parity by never forking such loops.
    ok_targets = labels | ({term} if term is not None else set())
    if blocked is None and jump_targets - ok_targets:
        blocked = "jump out of the loop body"

    # Classify reduction candidates; failures fold into plain writes.
    reductions = []
    for name, kinds in red_occ.items():
        kind = kinds[0]
        sym = st.get(name)
        tname = sym.type_name if sym is not None else None
        ok = (len(set(kinds)) == 1
              and name != plan.var
              and name not in inner_vars
              and name not in written
              and var_reads.get(name, 0) == self_reads.get(name, 0)
              and sym is not None and sym.storage != "common")
        if ok and kind in ("sum", "prod"):
            ok = tname == "INTEGER" and all(
                _int_typed(m[1], st)
                for stmt, _ in walk
                if isinstance(stmt, ast.Assign)
                and isinstance(stmt.target, ast.VarRef)
                and stmt.target.name.upper() == name
                for m in [_red_match(stmt.value, name)] if m is not None)
        elif ok:
            ok = tname in ("INTEGER", "REAL", "DOUBLEPRECISION")
        if ok:
            reductions.append(RedPlan(name, cx.slot(name), kind, tname))
        else:
            written.add(name)

    # Writes to COMMON scalars would race through the shared globals
    # dict; the serial path handles them, so just never fork.
    if blocked is None:
        for name in written:
            sym = st.get(name)
            if sym is not None and sym.storage == "common":
                blocked = f"writes COMMON scalar {name}"
                break

    for name in written | inner_vars:
        cx.slot(name)

    plan.blocked = blocked
    plan.written = frozenset(written)
    plan.inner_vars = frozenset(inner_vars)
    plan.callees = frozenset(callees)
    plan.reductions = tuple(
        sorted(reductions, key=lambda r: r.name))
    return plan


# --------------------------------------------------------------------------
# Transitive callee summaries (per-run; program units may call anything)
# --------------------------------------------------------------------------

class _UnitSummary:
    __slots__ = ("blocked", "has_assert", "callees", "common_arrays")

    def __init__(self):
        self.blocked: str | None = None
        self.has_assert = False
        self.callees: set = set()
        self.common_arrays: set = set()


def _summarize_unit(uir) -> _UnitSummary:
    sm = _UnitSummary()
    st = uir.symtab
    labels = set()
    targets = set()
    for stmt, _ in ast.walk_stmts(uir.unit.body):
        if stmt.label is not None:
            labels.add(stmt.label)
        if isinstance(stmt, ast.DoLoop) and stmt.term_label is not None:
            labels.add(stmt.term_label)
        if isinstance(stmt, ast.ReadStmt):
            sm.blocked = sm.blocked or "READ"
        elif isinstance(stmt, ast.Stop):
            # STOP ends the whole program mid-loop: the serial engines
            # stop at the first offending iteration, a worker cannot
            sm.blocked = sm.blocked or "STOP"
        elif isinstance(stmt, ast.AssertStmt):
            sm.has_assert = True
        elif isinstance(stmt, ast.Goto):
            targets.add(stmt.target)
        elif isinstance(stmt, ast.ComputedGoto):
            targets.update(stmt.targets)
        elif isinstance(stmt, ast.ArithIf):
            targets.update((stmt.neg_label, stmt.zero_label,
                            stmt.pos_label))
        elif isinstance(stmt, ast.CallStmt):
            sm.callees.add(stmt.name.upper())
        if isinstance(stmt, ast.Assign) and isinstance(
                stmt.target, ast.VarRef):
            sym = st.get(stmt.target.name)
            if sym is not None and sym.storage == "common" \
                    and not sym.is_array:
                sm.blocked = sm.blocked or \
                    f"writes COMMON scalar {sym.name}"
        for e in _stmt_read_exprs(stmt):
            for node in ast.walk_expr(e):
                if isinstance(node, ast.FuncRef) and not node.intrinsic:
                    sm.callees.add(node.name.upper())
                elif isinstance(node, ast.NameRef):
                    nsym = st.get(node.name)
                    if nsym is None or not nsym.is_array:
                        sm.callees.add(node.name.upper())
    if sm.blocked is None and targets - labels:
        sm.blocked = "cross-unit jump"
    for sym in st.symbols.values():
        if sym.is_array and sym.storage == "common":
            sm.common_arrays.add(sym.name)
    return sm


# --------------------------------------------------------------------------
# Chunk-side minimal interpreter state (clone of CompiledInterpreter's
# runtime surface; the compiled closures only touch these attributes)
# --------------------------------------------------------------------------

class _WorkerRT:
    """The interpreter a chunk runs against: its own clock, step count
    and outputs (the join folds them in chunk order) over the given
    COMMON storage, linker (``name -> LinkedUnit | None``) and profile
    accumulators."""

    __slots__ = ("program", "inputs", "_input_pos", "outputs",
                 "max_steps", "steps", "clock", "check_assertions",
                 "assertion_checker", "_globals", "_global_arrays",
                 "_linked", "_prof", "_unit_time", "_unit_calls",
                 "_runtime", "_par_stats")

    def __init__(self, program, globals_, global_arrays, max_steps,
                 linked, prof, unit_time, unit_calls):
        self.program = program
        self.inputs = []
        self._input_pos = 0
        self.outputs = []
        self.max_steps = max_steps
        self.steps = 0
        self.clock = 0.0
        self.check_assertions = False
        self.assertion_checker = None
        self._globals = globals_
        self._global_arrays = global_arrays
        self._linked = linked
        self._prof = prof
        self._unit_time = unit_time
        self._unit_calls = unit_calls
        self._runtime = None          # nested PARALLEL DO simulates
        self._par_stats = {}


class _ChunkRec:
    """Per-chunk results, merged at the join in chunk (iteration) order."""

    __slots__ = ("ci", "steps", "clock", "max_iter", "outputs",
                 "partials", "finals", "fault")

    def __init__(self, ci, steps, clock, max_iter, outputs, partials,
                 finals, fault):
        self.ci = ci
        self.steps = steps
        self.clock = clock
        self.max_iter = max_iter
        self.outputs = outputs
        self.partials = partials
        self.finals = finals
        self.fault = fault


def _red_init(red: RedPlan, s0):
    if red.kind == "sum":
        return 0
    if red.kind == "prod":
        return 1
    return s0                      # max/min partials seed from s0


def _red_combine(red: RedPlan, acc, partial):
    if red.kind == "sum":
        return acc + partial
    if red.kind == "prod":
        return acc * partial
    if red.kind == "max":
        return max(acc, partial)
    return min(acc, partial)


def _coerce_store(v, tname):
    """The scalar-store coercion of ``compile._comp_store``, applied to
    merged values at the join."""
    if isinstance(v, np.generic):
        v = v.item()
    if tname == "INTEGER" and isinstance(v, float):
        return int(v)
    if tname in ("REAL", "DOUBLEPRECISION") and isinstance(v, int):
        return float(v)
    return v


def _run_chunks(wrt, lk, plan, state, regs0, arrs, start, step, chunks):
    """Execute a sequence of chunks, in order, on one chunk interpreter.

    Every chunk gets a fresh register file (privates/inner vars unset,
    reduction slots at their identity) so the join can merge per-chunk
    finals; the profile accumulators are ``wrt``'s: the run's own on the
    calling thread, a pool process's own otherwise (exact arithmetic
    makes their merge order irrelevant).
    """
    eng = _engine()
    unset = eng._UNSET
    code = lk.code
    acc = wrt._prof.get(lk)
    if acc is None:
        acc = ([0] * code.n_stmts, [0] * code.n_loops,
               [0.0] * code.n_loops, bytearray(code.n_loops),
               bytearray(code.n_loops))
        wrt._prof[lk] = acc
    body = plan.body
    vslot = plan.vslot
    term = plan.term
    line = plan.line
    unset_slots = state["unset_slots"]
    reds = state["reds"]
    red_inits = state["red_inits"]
    out = []
    for ci, off, n in chunks:
        regs = list(regs0)
        for sl in unset_slots:
            regs[sl] = unset
        for red, init in zip(reds, red_inits):
            regs[red.slot] = init
        fr = eng._Frame(wrt, regs, arrs, lk, acc[0], acc[1], acc[2],
                        acc[3], acc[4])
        out_mark = len(wrt.outputs)
        steps0 = wrt.steps
        clock0 = wrt.clock
        max_iter = 0.0
        v = start + off * step
        fault = None
        try:
            for _ in range(n):
                it0 = wrt.clock
                regs[vslot] = v
                sig = body(fr)
                if sig is not None and \
                        not (type(sig) is int and sig == term):
                    raise parallel_jump_fault(line)
                d = wrt.clock - it0
                if d > max_iter:
                    max_iter = d
                v = v + step
        except Exception as e:
            fault = e
        out.append(_ChunkRec(
            ci, wrt.steps - steps0, wrt.clock - clock0, max_iter,
            wrt.outputs[out_mark:],
            [regs[r.slot] for r in reds],
            [regs[sl] for sl in unset_slots], fault))
        if fault is not None:
            break                  # the serial run stops here too
    return out


# --------------------------------------------------------------------------
# The runtime
# --------------------------------------------------------------------------

class ParallelRuntime:
    """Per-interpreter fork-join executor.  Chunks run on the calling
    thread, or with ``pool_kind="process"`` and more than one worker in
    the process-wide pool of ``perf.pool.shared_executor``."""

    def __init__(self, workers: int, schedule: str | None = None,
                 pool_kind: str | None = None):
        self.workers = int(workers)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.schedule = resolve_schedule(schedule)
        self.pool_kind = resolve_pool_kind(pool_kind)
        #: chunks run concurrently in pool processes
        self._in_processes = self.pool_kind == "process" \
            and self.workers > 1
        #: (id(lk), lidx, checker?) -> execution state dict | None
        self._state: dict = {}
        #: unit name -> _UnitSummary | None (missing unit)
        self._summaries: dict = {}

    # -- eligibility -------------------------------------------------------

    def _summary(self, rt, name):
        sm = self._summaries.get(name, _NOT_CACHED)
        if sm is _NOT_CACHED:
            uir = rt.program.units.get(name)
            sm = _summarize_unit(uir) if uir is not None else None
            self._summaries[name] = sm
        return sm

    def _exec_state(self, rt, plan, lk, lidx):
        """Eligibility verdict + precomputed merge/reduction slots for
        one (loop, link) pair; None means "always simulate"."""
        key = (id(lk), lidx, rt.assertion_checker is not None)
        st = self._state.get(key, _NOT_CACHED)
        if st is not _NOT_CACHED:
            return st
        st = self._compute_state(rt, plan, lk, lidx)
        self._state[key] = st
        return st

    def _compute_state(self, rt, plan, lk, lidx):
        if plan.blocked is not None:
            return None
        if plan.has_assert and rt.assertion_checker is not None:
            return None
        privates = lk.loop_privates[lidx] if lidx < len(
            lk.loop_privates) else frozenset()
        red_names = {r.name for r in plan.reductions}
        merge_names = (plan.written | plan.inner_vars) \
            - red_names - {plan.var}
        # every written scalar must be private, an inner DO variable, a
        # recognized reduction, or the loop variable itself
        if not merge_names <= (privates | plan.inner_vars):
            return None
        # every iteration writes a PRIVATE array at the same indices:
        # concurrent chunks on shared memory would race on it
        if self._in_processes and any(
                sym is not None and sym.is_array
                for sym in map(lk.symtab.get, privates)):
            return None
        # transitive callee closure: no READ/COMMON-scalar-write/assert
        common_arrays: set = set()
        seen = set()
        stack = list(plan.callees)
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            sm = self._summary(rt, name)
            if sm is None or sm.blocked is not None:
                return None
            if sm.has_assert and rt.assertion_checker is not None:
                return None
            common_arrays |= sm.common_arrays
            stack.extend(sm.callees)
        code = lk.code
        reg = code.reg_index
        return {
            "unset_slots": tuple(sorted(reg[n] for n in merge_names)),
            "reds": plan.reductions,
            "common_arrays": frozenset(common_arrays),
        }

    # -- entry point from the compiled PARALLEL DO op ----------------------

    def try_execute(self, fr, plan, lidx, start, step, trips) -> bool:
        """Execute the loop for real; False = caller runs the serial
        simulation (the byte-identical fallback)."""
        if trips < 2:
            return False           # nothing to split: not a fallback
        rt = fr.rt
        if type(start) is not int or type(step) is not int:
            perf_counters.bump("par_fallbacks")
            return False
        state = self._exec_state(rt, plan, fr.lk, lidx)
        if state is None:
            perf_counters.bump("par_fallbacks")
            return False
        regs = fr.regs
        eng = _engine()
        unset = eng._UNSET
        red_inits = []
        for red in state["reds"]:
            s0 = regs[red.slot]
            bad = s0 is unset or isinstance(s0, bool) or (
                red.kind in ("sum", "prod") and type(s0) is not int) or (
                red.kind in ("max", "min")
                and not isinstance(s0, (int, float)))
            if bad:
                perf_counters.bump("par_fallbacks")
                return False
            red_inits.append(_red_init(red, s0))
        # COMMON arrays a callee might lazily allocate must already
        # exist (allocation inside a worker would be chunk-local)
        for name in state["common_arrays"]:
            if name not in rt._global_arrays:
                perf_counters.bump("par_fallbacks")
                return False
        self._execute(fr, plan, lidx, state, red_inits, start, step,
                      trips)
        return True

    def _execute(self, fr, plan, lidx, state, red_inits, start, step,
                 trips):
        rt = fr.rt
        t_wall = time.perf_counter()
        chunks = chunk_ranges(trips, self.workers, self.schedule)
        state = dict(state, red_inits=red_inits)
        if self._in_processes:
            recs = self._run_process(fr, plan, lidx, state, start, step,
                                     chunks)
        else:
            recs = self._run_inline(fr, plan, state, start, step, chunks)
        self._join(fr, plan, state, start, step, trips, recs)
        uid = fr.lk.loop_uids[lidx]
        stats = rt._par_stats.get(uid)
        if stats is None:
            stats = rt._par_stats[uid] = {
                "entries": 0, "chunks": 0, "iters": 0, "wall": 0.0,
                "virtual_serial": 0.0, "virtual_parallel": 0.0,
                "workers": self.workers, "schedule": self.schedule,
            }
        stats["entries"] += 1
        stats["chunks"] += len(chunks)
        stats["iters"] += trips
        stats["wall"] += time.perf_counter() - t_wall
        stats["virtual_serial"] += sum(r.clock for r in recs)
        stats["virtual_parallel"] += (
            max(r.max_iter for r in recs) + parallel_overhead())
        perf_counters.bump("par_loops")
        perf_counters.bump("par_chunks", len(chunks))

    # -- inline execution --------------------------------------------------

    def _run_inline(self, fr, plan, state, start, step, chunks):
        """Run every chunk on the calling thread, in chunk order.

        The chunk interpreter shares the run's linker and profile
        accumulators, so the join has only the chunk records to merge.
        """
        rt = fr.rt
        wrt = _WorkerRT(rt.program, rt._globals, rt._global_arrays,
                        rt.max_steps, rt._linked, rt._prof,
                        rt._unit_time, rt._unit_calls)
        return _run_chunks(wrt, fr.lk, plan, state, fr.regs, fr.arrs,
                           start, step, chunks)

    # -- the join ----------------------------------------------------------

    def _join(self, fr, plan, state, start, step, trips, recs):
        rt = fr.rt
        recs = sorted(recs, key=lambda r: r.ci)
        fault = None
        for r in recs:
            if r.fault is not None:
                fault = r.fault
                break
        total_steps = 0
        max_iter = 0.0
        pending: dict = {}
        red_accs = [regs0v for regs0v in
                    (fr.regs[red.slot] for red in state["reds"])]
        eng = _engine()
        unset = eng._UNSET
        for r in recs:
            total_steps += r.steps
            if r.max_iter > max_iter:
                max_iter = r.max_iter
            if r.fault is None:
                rt.outputs.extend(r.outputs)
                for pos, sl in enumerate(state["unset_slots"]):
                    v = r.finals[pos]
                    if v is not unset:
                        pending[sl] = v
                for pos, red in enumerate(state["reds"]):
                    red_accs[pos] = _red_combine(red, red_accs[pos],
                                                 r.partials[pos])
        rt.steps += total_steps
        if fault is not None:
            raise fault
        regs = fr.regs
        for sl, v in pending.items():
            regs[sl] = v
        for pos, red in enumerate(state["reds"]):
            regs[red.slot] = _coerce_store(red_accs[pos], red.type_name)
        regs[plan.vslot] = start + trips * step
        if rt.steps > rt.max_steps:
            raise StepLimitExceeded(
                f"exceeded {rt.max_steps} interpreter steps")
        rt.clock = rt.clock + max_iter + parallel_overhead()

    # -- process-pool execution --------------------------------------------

    def _run_process(self, fr, plan, lidx, state, start, step, chunks):
        from multiprocessing import shared_memory

        rt = fr.rt
        lk = fr.lk
        eng = _engine()
        unset = eng._UNSET
        from ..fortran.printer import print_program
        src = print_program(rt.program.ast)

        # ship every frame/global array through shared memory (dedup by
        # storage identity so COMMON aliases stay aliased)
        shms = []
        descr_of: dict[int, tuple] = {}

        def describe(a: ArrayStorage):
            d = descr_of.get(id(a))
            if d is None:
                data = np.asfortranarray(a.data)
                shm = shared_memory.SharedMemory(create=True,
                                                 size=data.nbytes)
                view = np.ndarray(data.shape, dtype=data.dtype,
                                  buffer=shm.buf, order="F")
                view[...] = data
                shms.append((shm, a))
                d = descr_of[id(a)] = (
                    shm.name, data.shape, a.lowers, data.dtype.str,
                    a.name)
            return d

        arr_descrs = [describe(a) if a is not None else None
                      for a in fr.arrs]
        garr_descrs = {name: describe(a)
                       for name, a in rt._global_arrays.items()}
        regs0 = [(_UNSET_TOKEN if v is unset else v) for v in fr.regs]
        payload_base = {
            "src": src,
            "unit": lk.code.name,
            "lidx": lidx,
            "start": start,
            "step": step,
            "regs0": regs0,
            "globals": dict(rt._globals),
            "arr_descrs": arr_descrs,
            "garr_descrs": garr_descrs,
            "unset_slots": state["unset_slots"],
            "reds": [(r.name, r.kind, r.type_name)
                     for r in state["reds"]],
            "red_inits": [(_UNSET_TOKEN if v is unset else v)
                          for v in state["red_inits"]],
            "max_steps": rt.max_steps,
        }
        from ..perf.pool import shared_executor
        ex = shared_executor("process", self.workers)
        try:
            futures = [ex.submit(_process_chunk, payload_base, chunk)
                       for chunk in chunks]
            results = [f.result() for f in futures]
        finally:
            for shm, a in shms:
                view = np.ndarray(np.asfortranarray(a.data).shape,
                                  dtype=a.data.dtype, buffer=shm.buf,
                                  order="F")
                a.data[...] = view
                shm.close()
                shm.unlink()
        recs = []
        for res in results:
            recs.append(_ChunkRec(
                res["ci"], res["steps"], res["clock"], res["max_iter"],
                res["outputs"],
                res["partials"],
                [unset if v == _UNSET_TOKEN else v
                 for v in res["finals"]],
                res["fault"]))
            rt._globals.update(res["globals"])
            for uname, acc in res["prof"].items():
                lk2 = rt._linked(uname)
                if lk2 is not None:
                    _merge_profile(rt._prof, lk2, acc)
            ut = rt._unit_time
            for name, t in res["unit_time"].items():
                ut[name] = ut.get(name, 0.0) + t
            uc = rt._unit_calls
            for name, n in res["unit_calls"].items():
                uc[name] = uc.get(name, 0) + n
        return recs


_NOT_CACHED = object()


def _merge_profile(prof, lk, acc):
    """Fold one unit's profile counts from a pool process into the run's
    accumulators.

    All quantities are exact (ints and dyadic-rational floats), so merge
    order cannot change a single bit.
    """
    cnt, li, lt, lf, ltf = acc
    pacc = prof.get(lk)
    if pacc is None:
        prof[lk] = (list(cnt), list(li), list(lt), bytearray(lf),
                    bytearray(ltf))
        return
    pc, pl, pt, pf, ptf = pacc
    for k, c in enumerate(cnt):
        if c:
            pc[k] += c
    for k, c in enumerate(li):
        if c:
            pl[k] += c
    for k, c in enumerate(lt):
        if c:
            pt[k] += c
    for k in range(len(lf)):
        if lf[k]:
            pf[k] = 1
        if ltf[k]:
            ptf[k] = 1


# --------------------------------------------------------------------------
# Process-pool worker side
# --------------------------------------------------------------------------

#: worker-side compile cache: source text -> AnalyzedProgram
_WORKER_PROGRAMS: dict = {}


def _attach_array(descr, held):
    from multiprocessing import shared_memory
    shm_name, shape, lowers, dtype, name = descr
    shm = held.get(shm_name)
    if shm is None:
        shm = held[shm_name] = shared_memory.SharedMemory(name=shm_name)
    view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf,
                      order="F")
    return ArrayStorage(name, view, tuple(lowers))


def _process_chunk(payload, chunk):
    """Execute one chunk in a pool process against shared-memory arrays.

    The worker compiles the shipped source once per process (cached by
    text); dense slot/loop index spaces are structural, so they match
    the parent's exactly.
    """
    eng = _engine()
    unset = eng._UNSET
    src = payload["src"]
    program = _WORKER_PROGRAMS.get(src)
    if program is None:
        from ..ir import AnalyzedProgram
        program = _WORKER_PROGRAMS[src] = \
            AnalyzedProgram.from_source(src)
    lk_map = {name: eng.linked_unit(uir)
              for name, uir in program.units.items()}
    lk = lk_map[payload["unit"]]
    plan = lk.code.par_plans[payload["lidx"]]

    held: dict = {}
    try:
        garrs = {name: _attach_array(d, held)
                 for name, d in payload["garr_descrs"].items()}
        arrs = [(_attach_array(d, held) if d is not None else None)
                for d in payload["arr_descrs"]]
        regs0 = [(unset if v == _UNSET_TOKEN else v)
                 for v in payload["regs0"]]
        reds = tuple(RedPlan(name, lk.code.reg_index[name], kind, tname)
                     for name, kind, tname in payload["reds"])
        state = {
            "unset_slots": tuple(payload["unset_slots"]),
            "reds": reds,
            "red_inits": [(unset if v == _UNSET_TOKEN else v)
                          for v in payload["red_inits"]],
        }
        wrt = _WorkerRT(program, dict(payload["globals"]), garrs,
                        payload["max_steps"], lk_map.get, {}, {}, {})
        recs = _run_chunks(wrt, lk, plan, state, regs0, arrs,
                           payload["start"], payload["step"], [chunk])
        r = recs[0]
        prof = {}
        for lk2, (cnt, li, lt, lf, ltf) in wrt._prof.items():
            prof[lk2.code.name] = (list(cnt), list(li), list(lt),
                                   bytes(lf), bytes(ltf))
        return {
            "ci": r.ci,
            "steps": r.steps,
            "clock": r.clock,
            "max_iter": r.max_iter,
            "outputs": r.outputs,
            "partials": r.partials,
            "finals": [(_UNSET_TOKEN if v is unset else v)
                       for v in r.finals],
            "fault": r.fault,
            "globals": wrt._globals,
            "prof": prof,
            "unit_time": wrt._unit_time,
            "unit_calls": wrt._unit_calls,
        }
    finally:
        # Close only: the attach-side auto-registration collapses into
        # the parent's entry in the shared resource tracker, and the
        # parent unlinks (and thereby unregisters) after the join.
        for shm in held.values():
            try:
                shm.close()
            except Exception:
                pass
