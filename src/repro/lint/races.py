"""Static race detection for PARALLEL DO loops.

This is the flagship lint rule's engine.  It re-derives, for every loop
marked PARALLEL, the shared/private/reduction classification of every
variable — *independently* of ``repro.dependence`` — from:

* scalar kill / upward-exposure analysis (:mod:`repro.analysis.kills`),
* whole-unit liveness (:mod:`repro.analysis.defuse`), with a
  COMMON-exposure refinement (a COMMON name is live after a loop only
  when some unit in the program reads it before killing it),
* interprocedural MOD/REF/KILL summaries and array section translation
  (:mod:`repro.interproc.oracle`),
* its own subscript pair testing over linear forms
  (:mod:`repro.analysis.linear`), including index-array subscripts
  under user assertions.

Race semantics match what the fork-join runtime can actually expose
(and what :mod:`repro.interp.shadow` observes dynamically):

* a cross-iteration write→exposed-read conflict is always a race;
* a write-write conflict is a race only when the final value is
  observable — the variable is live after the loop (an iteration-local
  read that follows a same-iteration whole-array kill is not exposed);
* privatized scalars race when upward-exposed (stale value read) or
  live after the loop (privatization violation: the sequential last
  value is not what a worker pool leaves behind);
* reduction-shaped updates are allowed, but a REAL/DOUBLE sum or
  product marked parallel is flagged (floating addition is not
  associative, and the runtime will refuse to fork it);
* a pair proved safe *only* by a user index-array assertion is
  re-checked by concrete value recovery of the index arrays; a
  contradiction turns into an unsound-assertion finding.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.constants import eval_const
from ..analysis.kills import upward_exposed_uses
from ..analysis.linear import LinearExpr, linearize
from ..assertions.lang import Disjoint, Monotone, Permutation
from ..fortran import ast
from ..interp.runtime import _red_match

#: per-dimension subscript-pair verdicts
NEVER = "never"                  # can never reference the same element
SAME_ITER_ONLY = "same-iter"     # equal only within one iteration
SAME_CELL = "same-cell"          # same element in *every* iteration pair
CARRIED = "carried"              # equal at a fixed nonzero distance
MAYBE = "maybe"                  # cannot decide


@dataclass(frozen=True)
class RaceFinding:
    """One conclusion about a PARALLEL loop, consumed by rules.py."""

    category: str    # "race" | "privatization" | "reduction" |
                     # "assertion" | "unknown-callee"
    var: str
    line: int        # anchor (the loop's DO line)
    detail: str
    definite: bool = True
    #: assertion texts this pair's safety would have relied on
    assertions: tuple = ()


@dataclass
class _Access:
    array: str
    subs: tuple | None     # None = whole array (unknown section)
    is_write: bool
    line: int
    top_idx: int           # index of the enclosing top-level body stmt
    via: str = ""          # "" or the callee name for call effects

    def display(self) -> str:
        if self.subs is None:
            body = f"{self.array}(*)"
        else:
            body = f"{self.array}({', '.join(str(s) for s in self.subs)})"
        return f"{body} via CALL {self.via}" if self.via else body


class LoopRaceAnalysis:
    """All race facts for one PARALLEL DO in one unit."""

    def __init__(self, ctx, uir, loop: ast.DoLoop):
        self.ctx = ctx
        self.uir = uir
        self.st = uir.symtab
        self.loop = loop
        self.var = loop.var.upper()
        self.private = {n.upper() for n in loop.private_vars}
        self.inner = {t.var.upper() for t, _ in ast.walk_stmts(loop.body)
                      if isinstance(t, ast.DoLoop)}
        self.findings: list[RaceFinding] = []
        self._trusted: dict[str, object] = {}   # assertion text -> obj

    # -- entry point -------------------------------------------------------

    def run(self) -> list[RaceFinding]:
        exposed = upward_exposed_uses(self.loop, self.st,
                                      self.ctx.oracle())
        live_after = self.ctx.live_after_loop(self.uir, self.loop)
        written, reductions, bad_reductions = self._classify_scalars()
        allowed = ({self.var} | self.inner | self.private
                   | set(reductions) | set(bad_reductions))

        for name, tname in sorted(bad_reductions.items()):
            self.findings.append(RaceFinding(
                "reduction", name, self.loop.line,
                f"{tname} sum/product reduction on {name} is not "
                f"associative under floating-point arithmetic; parallel "
                f"accumulation order changes the result"))

        for name in sorted(self.private):
            sym = self.st.get(name)
            if sym is not None and sym.is_array:
                continue
            if name in exposed:
                self.findings.append(RaceFinding(
                    "privatization", name, self.loop.line,
                    f"privatized scalar {name} may be read before it is "
                    f"assigned in an iteration (stale value from another "
                    f"worker's copy)"))
            elif name in written and name in live_after:
                self.findings.append(RaceFinding(
                    "privatization", name, self.loop.line,
                    f"value of privatized scalar {name} is live after "
                    f"the loop; worker-private copies are discarded, so "
                    f"the sequential last value is lost"))

        for name in sorted(written - allowed):
            sym = self.st.get(name)
            if sym is not None and sym.is_array:
                continue
            if name in exposed:
                self.findings.append(RaceFinding(
                    "race", name, self.loop.line,
                    f"read-write race on shared scalar {name}: each "
                    f"iteration reads a value another iteration wrote"))
            elif name in live_after:
                self.findings.append(RaceFinding(
                    "race", name, self.loop.line,
                    f"write-write race on shared scalar {name}: the "
                    f"value observed after the loop depends on iteration "
                    f"order"))

        self._array_races(live_after, written | set(bad_reductions))
        self._check_trusted_assertions()
        return self.findings

    # -- scalar classification --------------------------------------------

    def _classify_scalars(self):
        """(written, valid reductions, REAL sum/prod reductions)."""
        written: set[str] = set()
        red_occ: dict[str, list] = {}
        var_reads: dict[str, int] = {}
        self_reads: dict[str, int] = {}
        oracle = self.ctx.oracle()
        for stmt, _ in ast.walk_stmts(self.loop.body):
            if isinstance(stmt, ast.CallStmt):
                _, mods, _ = oracle.call_effects(self.st, stmt.name,
                                                 stmt.args)
                for n in mods:
                    sym = self.st.get(n)
                    if sym is None or not sym.is_array:
                        written.add(n.upper())
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
            for e in stmt.exprs():
                for node in ast.walk_expr(e):
                    if isinstance(node, ast.VarRef):
                        n = node.name.upper()
                        var_reads[n] = var_reads.get(n, 0) + 1
                    elif isinstance(node, ast.FuncRef) \
                            and not node.intrinsic:
                        for a in node.args:
                            if isinstance(a, ast.VarRef):
                                sym = self.st.get(a.name)
                                if sym is None or not sym.is_array:
                                    written.add(a.name.upper())
        reductions: set[str] = set()
        bad: dict[str, str] = {}
        for name, kinds in red_occ.items():
            sym = self.st.get(name)
            tname = sym.type_name if sym is not None else None
            ok = (len(set(kinds)) == 1 and name != self.var
                  and name not in self.inner and name not in written
                  and var_reads.get(name, 0) == self_reads.get(name, 0)
                  and sym is not None and sym.storage != "common")
            if not ok:
                written.add(name)
            elif kinds[0] in ("sum", "prod") and tname in (
                    "REAL", "DOUBLEPRECISION"):
                bad[name] = tname
            else:
                reductions.add(name)
        return written, reductions, bad

    # -- array accesses ----------------------------------------------------

    def _collect_accesses(self) -> list[_Access]:
        out: list[_Access] = []
        oracle = self.ctx.oracle()
        for top_idx, top in enumerate(self.loop.body):
            for stmt, _ in ast.walk_stmts([top]):
                if isinstance(stmt, ast.Assign):
                    t = stmt.target
                    if isinstance(t, (ast.ArrayRef, ast.NameRef)) \
                            and self.st.is_array(t.name):
                        out.append(_Access(t.name.upper(),
                                           tuple(t.children()), True,
                                           stmt.line, top_idx))
                    read_exprs = [stmt.value] + list(
                        t.children() if isinstance(
                            t, (ast.ArrayRef, ast.NameRef)) else ())
                else:
                    read_exprs = list(stmt.exprs())
                for e in read_exprs:
                    for node in ast.walk_expr(e):
                        if isinstance(node,
                                      (ast.ArrayRef, ast.NameRef)) \
                                and self.st.is_array(node.name):
                            out.append(_Access(node.name.upper(),
                                               tuple(node.children()),
                                               False, stmt.line,
                                               top_idx))
                callees = []
                if isinstance(stmt, ast.CallStmt):
                    callees.append((stmt.name, stmt.args, stmt.line))
                for e in stmt.exprs():
                    for node in ast.walk_expr(e):
                        if isinstance(node, ast.FuncRef) \
                                and not node.intrinsic:
                            callees.append((node.name, node.args,
                                            stmt.line))
                for callee, args, line in callees:
                    accs = oracle.call_array_accesses(self.st, callee,
                                                      args)
                    if accs is None:
                        self.findings.append(RaceFinding(
                            "unknown-callee", callee.upper(),
                            self.loop.line,
                            f"call to {callee.upper()} at line {line} "
                            f"has no interprocedural summary; its side "
                            f"effects may race", definite=False))
                        continue
                    for ca in accs:
                        if not self.st.is_array(ca.array):
                            continue
                        out.append(_Access(
                            ca.array.upper(),
                            tuple(ca.subscripts)
                            if ca.subscripts is not None else None,
                            ca.is_write, line, top_idx,
                            via=callee.upper()))
        return out

    def _kill_cover(self) -> dict[str, int]:
        """array name -> top-level body index of the first whole-array
        kill (CALL whose summary kills the array).  A read positioned
        after the kill never observes other iterations' values."""
        cover: dict[str, int] = {}
        oracle = self.ctx.oracle()
        for i, s in enumerate(self.loop.body):
            if isinstance(s, ast.CallStmt):
                _, _, kills = oracle.call_effects(self.st, s.name, s.args)
                for n in kills:
                    if self.st.is_array(n):
                        cover.setdefault(n.upper(), i)
        return cover

    # -- subscript pair testing -------------------------------------------

    def _variant_names(self, written: set[str]) -> set[str]:
        return written | self.inner | self.private | {self.var}

    def _array_races(self, live_after: set[str],
                     written: set[str]) -> None:
        accesses = self._collect_accesses()
        if not accesses:
            return
        variant = self._variant_names(written)
        full_env = dict(self.ctx.subscript_env(self.uir))
        full_env.update(self._body_env(full_env))
        kill_cover = self._kill_cover()

        by_array: dict[str, list[_Access]] = {}
        for a in accesses:
            by_array.setdefault(a.array, []).append(a)

        reported: set[tuple] = set()
        for array in sorted(by_array):
            accs = by_array[array]
            writes = [a for a in accs if a.is_write]
            if not writes:
                continue
            for w in writes:
                for other in accs:
                    kind = "write-write" if other.is_write \
                        else "read-write"
                    if not other.is_write and self._read_covered(
                            other, kill_cover):
                        continue
                    if kind == "write-write" and array not in live_after:
                        continue
                    verdict, trusted, displays = self._pair_verdict(
                        w, other, full_env, variant)
                    if verdict == "safe":
                        for a_text, a_obj in trusted:
                            self._trusted[a_text] = (a_obj, array,
                                                     w, other)
                        continue
                    key = (array, kind)
                    if key in reported:
                        continue
                    reported.add(key)
                    definite = verdict == "definite"
                    word = "has a" if definite else "may have a"
                    self.findings.append(RaceFinding(
                        "race", array, self.loop.line,
                        f"array {array} {word} cross-iteration "
                        f"{kind} conflict ({displays[0]} vs "
                        f"{displays[1]})", definite=definite))

    def _read_covered(self, r: _Access,
                      kill_cover: dict[str, int]) -> bool:
        """The read follows a same-iteration whole-array kill, so it can
        only observe values its own iteration wrote (arc3d's ZCOL)."""
        ki = kill_cover.get(r.array)
        return ki is not None and ki < r.top_idx

    def _body_env(self, env: dict) -> dict:
        """Forward substitution for body scalars assigned exactly once
        (dpmin's ``I3 = IT(N)`` pattern): lets subscripts like
        ``F(I3 + 1)`` expose their index-array structure."""
        assigns: dict[str, list] = {}
        for stmt, _ in ast.walk_stmts(self.loop.body):
            if isinstance(stmt, ast.Assign) and isinstance(
                    stmt.target, ast.VarRef):
                assigns.setdefault(stmt.target.name.upper(),
                                   []).append(stmt.value)
        out: dict[str, LinearExpr] = {}
        for name, values in assigns.items():
            if len(values) == 1:
                out[name] = linearize(values[0], env)
        return out

    def _linearize_sub(self, sub: ast.Expr, env: dict) -> LinearExpr:
        return linearize(sub, env)

    def _pair_verdict(self, w: _Access, r: _Access, env: dict,
                      variant: set[str]):
        """('safe'|'definite'|'possible', trusted assertions, displays)."""
        displays = (w.display(), r.display())
        if w.subs is None or r.subs is None:
            return "possible", [], displays
        if len(w.subs) != len(r.subs):
            return "possible", [], displays
        verdicts = []
        trusted: list[tuple] = []
        for dw, dr in zip(w.subs, r.subs):
            v, t = self._dim_verdict(dw, dr, env, variant)
            verdicts.append(v)
            trusted.extend(t)
        if NEVER in verdicts or SAME_ITER_ONLY in verdicts:
            return "safe", trusted, displays
        if all(v in (SAME_CELL, CARRIED) for v in verdicts):
            return "definite", [], displays
        return "possible", [], displays

    def _dim_verdict(self, dw: ast.Expr, dr: ast.Expr, env: dict,
                     variant: set[str]):
        lw = self._linearize_sub(dw, env)
        lr = self._linearize_sub(dr, env)
        # section placeholders (ranged dims from interprocedural
        # translation) stand for a *range* of values: never separating,
        # never equality-proving
        for le in (lw, lr):
            if any("%" in n for n in le.variables()):
                return MAYBE, []
        v = self._index_array_verdict(lw, lr)
        if v is not None:
            return v
        if not lw.is_affine or not lr.is_affine:
            return MAYBE, []
        cw = lw.coeff(self.var)
        cr = lr.coeff(self.var)
        # any *other* loop-variant name makes the dimension undecidable
        for le in (lw, lr):
            if any(n in variant and n != self.var
                   for n in le.variables()):
                return MAYBE, []
        if cw != cr:
            return MAYBE, []
        delta = lw - lr
        # delta's var coefficient is 0 now; remaining terms are
        # loop-invariant symbols
        rest = delta - LinearExpr.var(self.var, delta.coeff(self.var))
        if rest.terms or rest.residue:
            return MAYBE, []
        k = rest.const
        if cw == 0:
            if k == 0:
                return SAME_CELL, []
            return NEVER, []
        d, r = divmod(-k, cw)
        if r:
            return NEVER, []
        return (SAME_ITER_ONLY, []) if d == 0 else (CARRIED, [])

    # -- index arrays under assertions ------------------------------------

    def _index_array_residue(self, le: LinearExpr):
        """``(const, index array name, inner expr)`` when ``le`` is
        ``const + 1*IDX(expr)`` with expr containing the loop var."""
        if le.terms or len(le.residue) != 1:
            return None
        coef, e = le.residue[0]
        if coef != 1:
            return None
        if isinstance(e, (ast.ArrayRef, ast.NameRef)) \
                and len(e.children()) == 1:
            inner = e.children()[0]
            names = {n.name.upper() for n in ast.walk_expr(inner)
                     if isinstance(n, ast.VarRef)}
            if self.var in names:
                return le.const, e.name.upper(), inner
        return None

    def _index_array_verdict(self, lw: LinearExpr, lr: LinearExpr):
        iw = self._index_array_residue(lw)
        ir = self._index_array_residue(lr)
        if iw is None or ir is None:
            return None
        (cw, aw, ew), (cr, ar_, er) = iw, ir
        diff = abs(cw - cr)
        for a in self.ctx.assertions.assertions:
            if isinstance(a, Monotone) and aw == ar_ == a.array \
                    and ew == er and diff < a.gap:
                return SAME_ITER_ONLY, [(a.text, a)]
            if isinstance(a, Permutation) and aw == ar_ == a.array \
                    and ew == er and diff == 0:
                return SAME_ITER_ONLY, [(a.text, a)]
            if isinstance(a, Disjoint) and aw != ar_ \
                    and {aw, ar_} == {a.a, a.b} and diff < a.gap:
                return NEVER, [(a.text, a)]
        return None

    # -- assertion soundness (value recovery) ------------------------------

    def _check_trusted_assertions(self) -> None:
        for text, (a_obj, array, w, r) in sorted(self._trusted.items()):
            names = [a_obj.array] if isinstance(
                a_obj, (Monotone, Permutation)) else [a_obj.a, a_obj.b]
            values = {}
            for n in names:
                vs = self.ctx.recover_index_array(n)
                if vs is None:
                    break
                values[n] = vs
            else:
                bad = _assertion_violated(a_obj, values)
                if bad:
                    self.findings.append(RaceFinding(
                        "assertion", array, self.loop.line,
                        f"user assertion {text} is contradicted by the "
                        f"values actually assigned to "
                        f"{' and '.join(names)} ({bad}); the dependence "
                        f"it deletes is real "
                        f"({w.display()} vs {r.display()})",
                        assertions=(text,)))


def _assertion_violated(a, values: dict) -> str | None:
    """A concrete witness that ``a`` is false, or None if it holds."""
    if isinstance(a, Monotone):
        vs = values[a.array]
        for i in range(1, len(vs)):
            if vs[i] - vs[i - 1] < a.gap:
                return (f"{a.array}({i}) = {vs[i - 1]} and "
                        f"{a.array}({i + 1}) = {vs[i]}")
        return None
    if isinstance(a, Permutation):
        vs = values[a.array]
        if len(set(vs)) != len(vs):
            dup = next(v for v in vs if vs.count(v) > 1)
            return f"{a.array} repeats the value {dup}"
        return None
    if isinstance(a, Disjoint):
        xs, ys = values[a.a], values[a.b]
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                if abs(x - y) < a.gap:
                    return (f"{a.a}({i + 1}) = {x} is within "
                            f"{a.gap} of {a.b}({j + 1}) = {y}")
        return None
    return None


# --------------------------------------------------------------------------
# Index-array value recovery
# --------------------------------------------------------------------------

def recover_index_array(program, name: str) -> list[int] | None:
    """Concrete element values of an index array, when every definition
    sits in one sequential DO with constant bounds and affine subscript
    and right-hand side (the dpmin ``DO 6`` initialization pattern)."""
    name = name.upper()

    def targets(stmt) -> bool:
        return (isinstance(stmt, ast.Assign)
                and isinstance(stmt.target, (ast.ArrayRef, ast.NameRef))
                and stmt.target.name.upper() == name
                and len(stmt.target.children()) == 1)

    defs: list[tuple] = []   # (unit, enclosing DoLoop, Assign)
    covered: set[int] = set()
    for uir in program.units.values():
        for stmt, _ in ast.walk_stmts(uir.unit.body):
            if isinstance(stmt, ast.DoLoop):
                for t in stmt.body:
                    if targets(t):
                        defs.append((uir, stmt, t))
                        covered.add(id(t))
    for uir in program.units.values():
        for stmt, _ in ast.walk_stmts(uir.unit.body):
            if targets(stmt) and id(stmt) not in covered:
                return None   # defined outside a simple loop nest
            if isinstance(stmt, ast.ReadStmt) and any(
                    isinstance(it, (ast.VarRef, ast.ArrayRef))
                    and it.name.upper() == name for it in stmt.items):
                return None   # values come from input
    if not defs:
        return None
    loops = {id(lp) for _, lp, _ in defs}
    if len(loops) != 1:
        return None
    uir, lp, _ = defs[0]
    if lp.parallel:
        return None
    env = _const_env(uir)
    lo = eval_const(lp.start, env)
    hi = eval_const(lp.end, env)
    step = eval_const(lp.step, env) if lp.step is not None else 1
    if not all(isinstance(v, int) for v in (lo, hi, step)) or step == 0:
        return None
    cells: dict[int, int] = {}
    ivar = lp.var.upper()
    for _, _, a in defs:
        sub = linearize(a.target.children()[0])
        rhs = linearize(a.value)
        if not sub.is_affine or not rhs.is_affine:
            return None
        if (sub.variables() | rhs.variables()) - {ivar}:
            return None
        for v in range(lo, hi + (1 if step > 0 else -1), step):
            idx = sub.const + sub.coeff(ivar) * v
            val = rhs.const + rhs.coeff(ivar) * v
            if idx.denominator != 1 or val.denominator != 1:
                return None
            cells[int(idx)] = int(val)
    if not cells:
        return None
    keys = sorted(cells)
    if keys != list(range(keys[0], keys[0] + len(keys))):
        return None   # holes: not the simple initialization pattern
    return [cells[k] for k in keys]


def _const_env(uir) -> dict:
    """PARAMETER constants + straight-line top-level integer assigns."""
    env: dict[str, int] = {}
    for nm, sy in uir.symtab.symbols.items():
        if sy.storage == "parameter" and sy.param_value is not None:
            v = eval_const(sy.param_value, {})
            if isinstance(v, int):
                env[nm] = v
    for s in uir.unit.body:
        if isinstance(s, ast.Assign) and isinstance(s.target, ast.VarRef):
            v = eval_const(s.value, env)
            if isinstance(v, int):
                env[s.target.name.upper()] = v
    return env
