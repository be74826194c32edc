"""Relative-debugging execution: aligned sync points + an adversarial
(but deterministic) parallel schedule.

Hood & Jost's relative debugger compares a serial and a parallel
execution of the same program at *sync points* and localizes the first
one where their states differ.  This module supplies both halves for
the fleet's verify stage and its divergence bisector
(:mod:`repro.fleet.bisect`):

* :class:`SyncPointInterpreter` -- the reference tree walker plus a
  monotone sync counter.  A sync point is the completion of any
  statement executed *outside* every PARALLEL DO (inside one, statement
  order is exactly what the two executions disagree about, so a
  parallel loop collapses to a single sync point at its join).  Both
  executions of the same program produce the same sync numbering up to
  their first divergence, so "state at sync point k" is comparable
  across runs.  ``halt_at=k`` stops a run right after sync point ``k``
  (flushing the current frame's COMMON scalars so ``snapshot()`` is
  meaningful mid-run) and records which statement that was.

* :class:`AdversarialInterpreter` -- executes every PARALLEL DO under a
  deterministic adversarial schedule: iterations run in the
  chunk-interleaved order of
  :func:`repro.interp.runtime.interleaved_order`, private scalars are
  replicated per chunk and their worker-private last values are
  discarded at the join (the frame keeps its pre-loop value), and
  per-iteration WRITE output is merged back in iteration order exactly
  like the fork-join runtime's join.  For a loop the dependence engine
  really proved parallel this is observably identical to serial
  execution; for a racy loop it manifests the race on every run, which
  is what makes bisection possible (the real worker pool only
  *sometimes* loses the race).  Loops the fork-join runtime would
  refuse to fork anyway execute with serial semantics so the emulator
  never reports a divergence the runtime cannot produce --
  :func:`_fork_verdict` mirrors ``build_plan``'s full eligibility
  rules (READ/STOP/RETURN/jump-out in the body, COMMON or shared
  scalar writes, inexact REAL reductions, blocked transitive callees);
  ``force_reassociation=True`` overrides only the reduction gate to
  demonstrate what reassociating a REAL sum would do.

* :class:`AdversarialRuntime` -- the same schedule for the compiled
  engine, plugged into the hook the fork-join runtime uses
  (``CompiledInterpreter._runtime``) and driven by the same
  :func:`_fork_verdict`.  It cannot halt at a sync point, so it serves
  whole-run checks: :func:`verify_parallel`, the check behind the
  fleet's verify stage and ``PedSession.verify_parallel``.  The two
  tree interpreters above stay as the bisector's halting engines
  (:func:`run_to_sync`) and as the oracle the runtime is tested
  against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..fortran import ast
from .compile import _UNSET, CompiledInterpreter
from .machine import Interpreter, _Jump, _norm_int, parallel_jump_fault, \
    parallel_overhead
from .runtime import _int_typed, _red_match, _stmt_read_exprs, \
    _summarize_unit, interleaved_order
from .verify import RunDiff, compare_runs, resolve_engine, run_program

__all__ = [
    "SyncHalt", "SyncRecord", "SyncPointInterpreter",
    "AdversarialInterpreter", "AdversarialRuntime", "ParallelCheck",
    "verify_parallel", "run_to_sync",
]


class SyncHalt(Exception):
    """Execution reached the requested sync point (not an error)."""


@dataclass(frozen=True)
class SyncRecord:
    """What executed at a sync point."""

    index: int          # 1-based sync counter value
    unit: str
    line: int
    uid: int
    kind: str           # "parallel_do" | "do" | statement class name
    var: str = ""       # loop variable for (parallel) DO records

    def describe(self) -> str:
        what = f"PARALLEL DO {self.var}" if self.kind == "parallel_do" \
            else (f"DO {self.var}" if self.kind == "do" else self.kind)
        return f"{self.unit} line {self.line}: {what}"


def _record_of(index: int, s: ast.Stmt, unit: str) -> SyncRecord:
    if isinstance(s, ast.DoLoop):
        return SyncRecord(index, unit, s.line, s.uid,
                          "parallel_do" if s.parallel else "do",
                          s.var.upper())
    return SyncRecord(index, unit, s.line, s.uid, type(s).__name__)


class SyncPointInterpreter(Interpreter):
    """Reference interpreter + aligned sync-point counting/halting."""

    def __init__(self, program, inputs=None, halt_at: int | None = None,
                 **kw):
        super().__init__(program, inputs, **kw)
        #: 1-based count of completed depth-0 statements
        self.sync_count = 0
        #: halt right after this sync point (None = run to completion)
        self.halt_at = halt_at
        #: the statement at the halt (or the last sync point seen)
        self.halted: SyncRecord | None = None
        self._par_depth = 0

    def run(self, unit_name=None, args=None):
        try:
            return super().run(unit_name, args)
        except SyncHalt:
            return None

    def _exec_stmt(self, s: ast.Stmt, frame) -> None:
        super()._exec_stmt(s, frame)
        if self._par_depth == 0:
            self.sync_count += 1
            if self.halt_at is not None and self.sync_count >= self.halt_at:
                self.halted = _record_of(self.sync_count, s,
                                         frame.unit_name)
                self._flush_common(frame)
                raise SyncHalt()

    def _exec_parallel_do(self, s, frame, start, step, trips):
        self._par_depth += 1
        try:
            super()._exec_parallel_do(s, frame, start, step, trips)
        finally:
            self._par_depth -= 1


def _fork_verdict(s: ast.DoLoop, symtab, units, summaries: dict,
                  force_reassociation: bool) -> tuple:
    """``(blocked_reason | None, reduction_names)`` mirroring the
    fork-join runtime's :func:`repro.interp.runtime.build_plan` +
    eligibility verdict: the adversarial schedule must interleave
    exactly the loops the runtime would actually fork, or the relative
    debugger reports divergences the real execution cannot produce.

    ``force_reassociation=True`` relaxes only the inexact-reduction
    gate: a recognized REAL sum/prod is kept as a (shared, reassociated)
    reduction instead of demoting the loop to serial.
    """
    loop_var = s.var.upper()
    written: set = set()
    inner: set = set()
    callees: set = set()
    labels: set = set()
    jumps: set = set()
    red_occ: dict[str, list] = {}
    var_reads: dict[str, int] = {}
    self_reads: dict[str, int] = {}
    blocked = None

    walk = list(ast.walk_stmts(s.body))
    for stmt, _ in walk:
        if stmt.label is not None:
            labels.add(stmt.label)
        if isinstance(stmt, ast.DoLoop):
            inner.add(stmt.var.upper())
            if stmt.term_label is not None:
                labels.add(stmt.term_label)
        elif isinstance(stmt, ast.ReadStmt):
            blocked = blocked or "READ statement in loop body"
        elif isinstance(stmt, ast.Stop):
            blocked = blocked or "STOP in loop body"
        elif isinstance(stmt, ast.Return):
            blocked = blocked or "RETURN in loop body"
        elif isinstance(stmt, ast.Goto):
            jumps.add(stmt.target)
        elif isinstance(stmt, ast.ComputedGoto):
            jumps.update(stmt.targets)
        elif isinstance(stmt, ast.ArithIf):
            jumps.update((stmt.neg_label, stmt.zero_label,
                          stmt.pos_label))
        elif isinstance(stmt, ast.CallStmt):
            callees.add(stmt.name.upper())
            for a in stmt.args:
                if isinstance(a, ast.VarRef):
                    sym = symtab.get(a.name)
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
                            sym = symtab.get(a.name)
                            if sym is None or not sym.is_array:
                                written.add(a.name.upper())
                elif isinstance(node, ast.NameRef):
                    sym = symtab.get(node.name)
                    if sym is None or not sym.is_array:
                        callees.add(node.name.upper())

    ok_targets = labels | ({s.term_label} if s.term_label is not None
                           else set())
    if blocked is None and jumps - ok_targets:
        blocked = "jump out of the loop body"

    reductions: set = set()
    for name, kinds in red_occ.items():
        kind = kinds[0]
        sym = symtab.get(name)
        tname = sym.type_name if sym is not None else None
        ok = (len(set(kinds)) == 1 and name != loop_var
              and name not in inner and name not in written
              and var_reads.get(name, 0) == self_reads.get(name, 0)
              and sym is not None and sym.storage != "common")
        if ok and kind in ("sum", "prod"):
            exact = tname == "INTEGER" and all(
                _int_typed(m[1], symtab)
                for stmt, _ in walk
                if isinstance(stmt, ast.Assign)
                and isinstance(stmt.target, ast.VarRef)
                and stmt.target.name.upper() == name
                for m in [_red_match(stmt.value, name)] if m is not None)
            ok = exact or force_reassociation
        elif ok:
            ok = tname in ("INTEGER", "REAL", "DOUBLEPRECISION")
        if ok:
            reductions.add(name)
        else:
            written.add(name)

    if blocked is None:
        for name in sorted(written):
            sym = symtab.get(name)
            if sym is not None and sym.storage == "common":
                blocked = f"writes COMMON scalar {name}"
                break

    if blocked is None:
        privates = {p.upper() for p in s.private_vars}
        stray = (written | inner) - reductions - {loop_var} \
            - privates - inner
        if stray:
            blocked = f"writes shared scalar {sorted(stray)[0]}"

    if blocked is None:
        seen: set = set()
        stack = list(callees)
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            uir = units.get(name)
            if uir is None:
                continue    # intrinsic or missing: not a fork blocker
            sm = summaries.get(name)
            if sm is None:
                sm = summaries[name] = _summarize_unit(uir)
            if sm.blocked is not None:
                blocked = f"callee {name}: {sm.blocked}"
                break
            stack.extend(sm.callees)

    return blocked, frozenset(reductions)


class AdversarialInterpreter(SyncPointInterpreter):
    """Deterministic worst-case parallel execution of PARALLEL DO loops.

    Observable state is byte-identical to serial execution for loops
    that are genuinely iteration-order independent; loops that are not
    diverge on *every* run, under the exact interleaving
    :func:`repro.interp.runtime.interleaved_order` describes.
    """

    def __init__(self, program, inputs=None, workers: int = 4,
                 schedule: str = "static",
                 force_reassociation: bool = False, **kw):
        super().__init__(program, inputs, **kw)
        self.rel_workers = max(1, int(workers))
        self.rel_schedule = schedule
        self.force_reassociation = force_reassociation
        self._verdicts: dict = {}       # (unit, uid) -> (blocked, reds)
        self._unit_summaries: dict = {}

    def _verdict(self, s, frame) -> tuple:
        key = (frame.unit_name, s.uid)
        v = self._verdicts.get(key)
        if v is None:
            v = self._verdicts[key] = _fork_verdict(
                s, frame.symtab, self.program.units,
                self._unit_summaries, self.force_reassociation)
        return v

    def _exec_parallel_do(self, s, frame, start, step, trips):
        blocked, _reds = self._verdict(s, frame)
        if blocked is not None or trips <= 0 or self.rel_workers <= 1:
            super()._exec_parallel_do(s, frame, start, step, trips)
            return

        self._par_depth += 1
        outer_outputs = self.outputs
        order = interleaved_order(trips, self.rel_workers,
                                  self.rel_schedule)
        privs = sorted({p.upper() for p in s.private_vars}
                       & set(frame.scalars))
        saved = {p: frame.scalars[p] for p in privs}
        chunk_priv: dict[int, dict] = {}
        per_iter_out: list[tuple[int, list]] = []
        t0 = self.clock
        max_iter = 0.0
        try:
            for ci, k in order:
                env = chunk_priv.setdefault(ci, dict(saved))
                for p in privs:
                    frame.scalars[p] = env[p]
                frame.scalars[s.var] = _norm_int(start + k * step)
                self.outputs = []
                it_start = self.clock
                try:
                    self._exec_block(s.body, frame)
                except _Jump as j:
                    if j.label != s.term_label:
                        raise parallel_jump_fault(s.line)
                finally:
                    if self.outputs:
                        per_iter_out.append((k, self.outputs))
                    self.outputs = outer_outputs
                max_iter = max(max_iter, self.clock - it_start)
                for p in privs:
                    env[p] = frame.scalars[p]
            # join: the loop variable takes its sequential exit value;
            # worker-private last values are discarded (the race the
            # shadow reports as a privatization violation)
            frame.scalars[s.var] = _norm_int(start + trips * step)
            for p in privs:
                frame.scalars[p] = saved[p]
            for _, items in sorted(per_iter_out, key=lambda kv: kv[0]):
                outer_outputs.extend(items)
            self.clock = t0 + max_iter + parallel_overhead()
        finally:
            self.outputs = outer_outputs
            self._par_depth -= 1


class AdversarialRuntime:
    """:class:`AdversarialInterpreter`'s schedule on the compiled engine.

    Attached as ``CompiledInterpreter._runtime``, it receives every
    PARALLEL DO entry the compiled op offers the fork-join runtime.
    Returning False sends the loop down the engine's serial simulation,
    exactly where the tree emulator falls back to
    ``Interpreter._exec_parallel_do``; otherwise it replays the tree
    emulator's interleaving, private handling, output merge and clock
    collapse, so the two produce the same snapshot, outputs, clock and
    steps.
    """

    def __init__(self, workers: int = 4, schedule: str = "static",
                 force_reassociation: bool = False):
        self.workers = max(1, int(workers))
        self.schedule = schedule
        self.force_reassociation = force_reassociation
        #: (unit, uid) -> (blocked, sorted private names)
        self._verdicts: dict = {}
        self._unit_summaries: dict = {}

    def _verdict(self, program, lk, lidx) -> tuple:
        key = (lk.code.name, lk.loop_uids[lidx])
        v = self._verdicts.get(key)
        if v is None:
            uir = program.units[key[0]]
            s = next(s for s, _ in ast.walk_stmts(uir.unit.body)
                     if isinstance(s, ast.DoLoop) and s.uid == key[1])
            blocked, _reds = _fork_verdict(
                s, uir.symtab, program.units, self._unit_summaries,
                self.force_reassociation)
            v = self._verdicts[key] = (
                blocked, sorted({p.upper() for p in s.private_vars}))
        return v

    def try_execute(self, fr, plan, lidx, start, step, trips) -> bool:
        if trips <= 0 or self.workers <= 1:
            return False
        rt = fr.rt
        blocked, privates = self._verdict(rt.program, fr.lk, lidx)
        if blocked is not None:
            return False
        regs = fr.regs
        reg_index = fr.lk.code.reg_index
        slots = [i for i in (reg_index.get(p) for p in privates)
                 if i is not None and regs[i] is not _UNSET]
        saved = [regs[i] for i in slots]
        body, vslot, term = plan.body, plan.vslot, plan.term
        chunk_priv: dict[int, list] = {}
        per_iter_out: list[tuple[int, list]] = []
        outer_outputs = rt.outputs
        t0 = rt.clock
        max_iter = 0.0
        try:
            for ci, k in interleaved_order(trips, self.workers,
                                           self.schedule):
                env = chunk_priv.get(ci)
                if env is None:
                    env = chunk_priv[ci] = list(saved)
                for i, v in zip(slots, env):
                    regs[i] = v
                regs[vslot] = start + k * step
                rt.outputs = out = []
                it_start = rt.clock
                sig = body(fr)
                if sig is not None and \
                        not (type(sig) is int and sig == term):
                    raise parallel_jump_fault(plan.line)
                if out:
                    per_iter_out.append((k, out))
                max_iter = max(max_iter, rt.clock - it_start)
                env[:] = [regs[i] for i in slots]
        finally:
            rt.outputs = outer_outputs
        # join: sequential exit value for the loop variable, pre-loop
        # values for the privates, outputs in iteration order
        regs[vslot] = start + trips * step
        for i, v in zip(slots, saved):
            regs[i] = v
        for _, items in sorted(per_iter_out, key=lambda kv: kv[0]):
            outer_outputs.extend(items)
        rt.clock = t0 + max_iter + parallel_overhead()
        return True


class ParallelCheck(NamedTuple):
    """Both finished runs of :func:`verify_parallel` and their diff."""

    serial: object
    parallel: object
    diff: RunDiff


def verify_parallel(program, inputs=(), engine: str | None = None,
                    workers: int = 4, schedule: str = "static",
                    force_reassociation: bool = False,
                    rtol: float = 1e-9, atol: float = 1e-8,
                    max_steps: int = 5_000_000) -> ParallelCheck:
    """Check a parallelization: run ``program`` serially and under the
    adversarial schedule and diff their observable state (an empty
    ``diff`` means the runs agree).

    The serial run is a plain :func:`~repro.interp.verify.run_program`
    on ``engine``, so a caller may reuse it as the program's run on that
    tier.  The adversarial run is a compiled-engine run with an
    :class:`AdversarialRuntime` attached.  On the ``tree`` engine both
    runs are the tree emulators of :func:`run_to_sync` instead.
    """
    inputs = list(inputs or [])
    if resolve_engine(engine) == "tree":
        serial = run_to_sync(program, inputs, adversarial=False,
                             max_steps=max_steps)
        adv = run_to_sync(program, inputs, adversarial=True,
                          workers=workers, schedule=schedule,
                          force_reassociation=force_reassociation,
                          max_steps=max_steps)
    else:
        serial = run_program(program, inputs=inputs, engine=engine,
                             max_steps=max_steps)
        adv = CompiledInterpreter(program, inputs=inputs,
                                  max_steps=max_steps)
        adv._runtime = AdversarialRuntime(workers, schedule,
                                          force_reassociation)
        adv.run()
    return ParallelCheck(serial, adv,
                         compare_runs(serial, adv, rtol=rtol, atol=atol))


def run_to_sync(program, inputs, adversarial: bool,
                halt_at: int | None = None, workers: int = 4,
                schedule: str = "static",
                force_reassociation: bool = False,
                max_steps: int = 5_000_000):
    """One (possibly halted) execution for the bisector: serial
    reference or adversarial parallel, same sync numbering."""
    if adversarial:
        interp = AdversarialInterpreter(
            program, list(inputs or []), workers=workers,
            schedule=schedule, force_reassociation=force_reassociation,
            halt_at=halt_at, max_steps=max_steps)
    else:
        interp = SyncPointInterpreter(
            program, list(inputs or []), halt_at=halt_at,
            max_steps=max_steps)
    interp.run()
    return interp
