"""Symbolic analysis: relations, induction variables, invariance.

The paper's arc3d example motivates this analysis: ``JM = JMAX - 1`` is
established in an initialization routine and holds for the rest of the
program; carrying that relation into dependence testing lets the DO 15
loop be parallelized.  We provide:

* :func:`symbolic_relations` -- scalar equalities ``var = affine-expr``
  valid at a given statement (derived from unique reaching definitions);
* :func:`auxiliary_inductions` -- variables advanced by a loop-invariant
  amount every iteration (``K = K + 2``-style), rewritable in terms of the
  loop induction variable;
* :func:`invariant_names` -- variables not modified anywhere in a loop;
* on-demand expression simplification (via :mod:`repro.analysis.linear`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fortran import ast
from ..ir.cfg import CFG, ENTRY
from ..ir.symtab import SymbolTable
from .defuse import DefUse, SideEffectOracle, stmt_defs
from .linear import LinearExpr, linearize


def defined_names_in(body: list[ast.Stmt], symtab: SymbolTable,
                     oracle: SideEffectOracle | None = None) -> set[str]:
    """Every variable possibly defined anywhere in a statement list."""
    oracle = oracle or SideEffectOracle()
    out: set[str] = set()
    for s, _ in ast.walk_stmts(body):
        out |= stmt_defs(s, symtab, oracle)
    return out


def invariant_names(loop: ast.DoLoop, symtab: SymbolTable,
                    oracle: SideEffectOracle | None = None) -> set[str]:
    """Names whose values cannot change during the loop's execution."""
    defined = defined_names_in(loop.body, symtab, oracle) | {loop.var}
    return {s.name for s in symtab.symbols.values()} - defined


def symbolic_relations(du: DefUse, cfg: CFG, at_uid: int,
                       symtab: SymbolTable,
                       max_depth: int = 4) -> dict[str, LinearExpr]:
    """Equalities ``var = linear form`` valid on entry to statement.

    A relation is recorded when the variable has exactly one non-ENTRY
    reaching definition, that definition is a plain scalar assignment, and
    the right-hand side linearizes without residue.  Relations compose:
    ``JM = JMAX - 1`` with ``JMAX = N`` gives ``JM = N - 1`` (bounded by
    ``max_depth`` substitution rounds).
    """
    reach = du.reach_in.get(at_uid, frozenset())
    by_var: dict[str, list[int]] = {}
    for d in reach:
        by_var.setdefault(d.var, []).append(d.stmt_uid)

    raw: dict[str, LinearExpr] = {}
    for var, def_uids in by_var.items():
        real = [u for u in def_uids if u != ENTRY]
        if len(real) != 1 or len(def_uids) != len(real):
            continue
        stmt = cfg.stmts.get(real[0])
        if not isinstance(stmt, ast.Assign) or not isinstance(stmt.target,
                                                              ast.VarRef):
            continue
        le = linearize(stmt.value)
        if le.is_affine:
            raw[var] = le

    # Compose relations: substitute until fixpoint (bounded).
    out = dict(raw)
    for _ in range(max_depth):
        changed = False
        for var, le in list(out.items()):
            subst = {v: out[v] for v in le.variables()
                     if v in out and v != var}
            if not subst:
                continue
            new = linearize_from_linear(le, subst)
            if new is not None and new != le and var not in new.variables():
                out[var] = new
                changed = True
        if not changed:
            break
    # Drop self-referential relations (e.g. accumulators).
    return {v: le for v, le in out.items() if v not in le.variables()}


def linearize_from_linear(le: LinearExpr,
                          env: dict[str, LinearExpr]) -> LinearExpr | None:
    """Substitute linear expressions for variables inside a linear form."""
    out = LinearExpr.constant(le.const)
    for v, c in le.terms:
        if v in env:
            out = out + env[v].scale(c)
        else:
            out = out + LinearExpr.var(v, c)
    for c, e in le.residue:
        out = out + LinearExpr.opaque(e, c)
    return out


@dataclass(frozen=True)
class AuxiliaryInduction:
    """``var`` advances by ``step`` (linear, loop-invariant) per iteration.

    On iteration *k* (0-based) the value is ``initial + k*step`` where
    ``initial`` is the value on loop entry.  ``defining_stmts`` are the
    update statements.
    """

    var: str
    step: LinearExpr
    defining_uids: tuple[int, ...]


def auxiliary_inductions(loop: ast.DoLoop, symtab: SymbolTable,
                         oracle: SideEffectOracle | None = None
                         ) -> list[AuxiliaryInduction]:
    """Detect auxiliary induction variables in a loop body.

    Conservative pattern: a scalar updated only by ``v = v + c`` /
    ``v = v - c`` statements (any number of them, all unconditional at the
    top level of the body), where ``c`` is invariant in the loop.
    """
    oracle = oracle or SideEffectOracle()
    inv = invariant_names(loop, symtab, oracle)
    candidates: dict[str, list[tuple[int, LinearExpr]]] = {}
    disqualified: set[str] = set()

    def scan(body: list[ast.Stmt], conditional: bool) -> None:
        for s in body:
            if isinstance(s, ast.Assign) and isinstance(s.target, ast.VarRef):
                v = s.target.name
                le = linearize(s.value)
                # v = v + step ?
                if le.coeff(v) == 1:
                    step = le - LinearExpr.var(v)
                    step_vars = step.variables()
                    if (not conditional and step.is_affine
                            and step_vars <= inv):
                        candidates.setdefault(v, []).append((s.uid, step))
                        continue
                disqualified.add(v)
            else:
                defs = stmt_defs(s, symtab, oracle)
                disqualified.update(defs)
            if isinstance(s, ast.DoLoop):
                # updates inside an inner loop run a variable number of
                # times; disqualify anything defined there
                disqualified.update(
                    defined_names_in(s.body, symtab, oracle))
            else:
                for blk in s.blocks():
                    scan(blk, True)

    scan(loop.body, False)
    out = []
    for v, ups in sorted(candidates.items()):
        if v in disqualified or v == loop.var:
            continue
        total = LinearExpr()
        for _, st in ups:
            total = total + st
        out.append(AuxiliaryInduction(
            var=v, step=total, defining_uids=tuple(u for u, _ in ups)))
    return out


def loop_step_constant(loop: ast.DoLoop) -> int | None:
    """The loop's step as an integer when statically known (default 1)."""
    if loop.step is None:
        return 1
    le = linearize(loop.step)
    return le.int_const


def trip_count(loop: ast.DoLoop,
               env: dict[str, LinearExpr] | None = None) -> int | None:
    """Static trip count when bounds and step are known constants."""
    lo = linearize(loop.start, env)
    hi = linearize(loop.end, env)
    step = loop_step_constant(loop)
    if lo.int_const is None or hi.int_const is None or not step:
        return None
    n = (hi.int_const - lo.int_const + step) // step
    return max(0, n)
