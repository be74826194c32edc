"""Constant propagation over the statement-level CFG.

Implements the classic Kildall-style lattice (TOP / constant / BOTTOM) per
variable, seeded with PARAMETER constants and (optionally) interprocedural
constants inherited from call sites -- the combination the paper credits
with locating constant-valued loop bounds, step sizes and subscripts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fortran import ast
from ..ir.cfg import CFG, ENTRY
from ..ir.symtab import SymbolTable
from .defuse import SideEffectOracle, accesses

#: Sentinel lattice values.
TOP = object()      # as-yet-unknown (optimistic)
BOTTOM = object()   # known non-constant


Value = object  # TOP | BOTTOM | int | float | bool


def _meet(a: Value, b: Value) -> Value:
    if a is TOP:
        return b
    if b is TOP:
        return a
    if a is BOTTOM or b is BOTTOM:
        return BOTTOM
    if a == b and type(a) is type(b):
        return a
    return BOTTOM


def eval_const(e: ast.Expr, env: dict[str, Value]) -> Value:
    """Evaluate an expression to a constant, or BOTTOM."""
    if isinstance(e, ast.IntConst):
        return e.value
    if isinstance(e, ast.RealConst):
        return e.value
    if isinstance(e, ast.LogicalConst):
        return e.value
    if isinstance(e, ast.VarRef):
        return env.get(e.name, BOTTOM)
    if isinstance(e, ast.UnOp):
        v = eval_const(e.operand, env)
        if v is BOTTOM or v is TOP:
            return v
        if e.op == "-":
            return -v
        if e.op == "+":
            return v
        if e.op == ".NOT.":
            return not v
        return BOTTOM
    if isinstance(e, ast.BinOp):
        lv = eval_const(e.left, env)
        rv = eval_const(e.right, env)
        if lv is TOP or rv is TOP:
            return TOP
        if lv is BOTTOM or rv is BOTTOM:
            return BOTTOM
        try:
            return _apply(e.op, lv, rv)
        except (ZeroDivisionError, TypeError, ValueError):
            return BOTTOM
    return BOTTOM


def int_div(a: int, b: int) -> int:
    """Fortran INTEGER division: the exact quotient truncated toward
    zero, computed on Python ints (a float quotient is wrong past 2**53
    and overflows past ~1e308).  ``b == 0`` raises ZeroDivisionError."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _apply(op: str, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if isinstance(a, int) and isinstance(b, int):
            return int_div(a, b)
        return a / b
    if op == "**":
        return a ** b
    if op == ".EQ.":
        return a == b
    if op == ".NE.":
        return a != b
    if op == ".LT.":
        return a < b
    if op == ".LE.":
        return a <= b
    if op == ".GT.":
        return a > b
    if op == ".GE.":
        return a >= b
    if op == ".AND.":
        return bool(a) and bool(b)
    if op == ".OR.":
        return bool(a) or bool(b)
    if op == ".EQV.":
        return bool(a) == bool(b)
    if op == ".NEQV.":
        return bool(a) != bool(b)
    raise ValueError(op)


@dataclass
class ConstantMap:
    """Solution: constants known at entry of each statement."""

    at_entry: dict[int, dict[str, Value]]
    #: constants valid throughout the unit (PARAMETERs, unconditional
    #: single assignments that dominate all uses)
    globals_: dict[str, Value]

    def value_at(self, stmt_uid: int, var: str) -> Value:
        env = self.at_entry.get(stmt_uid, {})
        v = env.get(var.upper(), TOP)
        if v is TOP:
            return self.globals_.get(var.upper(), TOP)
        return v

    def const_env(self, stmt_uid: int) -> dict[str, Value]:
        """Concrete constants (not TOP/BOTTOM) visible at a statement."""
        out = {k: v for k, v in self.globals_.items()
               if v is not TOP and v is not BOTTOM}
        for k, v in self.at_entry.get(stmt_uid, {}).items():
            if v is not TOP and v is not BOTTOM:
                out[k] = v
            elif v is BOTTOM:
                out.pop(k, None)
        return out


def propagate_constants(cfg: CFG, symtab: SymbolTable,
                        oracle: SideEffectOracle | None = None,
                        inherited: dict[str, Value] | None = None
                        ) -> ConstantMap:
    """Iterative constant propagation.

    ``inherited`` supplies interprocedural constants for arguments /
    COMMON variables (from :mod:`repro.interproc.constants`).
    """
    oracle = oracle or SideEffectOracle()
    seed: dict[str, Value] = {}
    for sym in symtab.symbols.values():
        if sym.storage == "parameter" and sym.param_value is not None:
            v = eval_const(sym.param_value, seed)
            if v is not BOTTOM:
                seed[sym.name] = v
    if inherited:
        for k, v in inherited.items():
            seed.setdefault(k.upper(), v)

    env_in: dict[int, dict[str, Value]] = {n: {} for n in cfg.nodes}
    env_out: dict[int, dict[str, Value]] = {n: {} for n in cfg.nodes}
    env_out[ENTRY] = dict(seed)

    order = cfg.rpo()
    changed = True
    iterations = 0
    while changed and iterations < 200:
        changed = False
        iterations += 1
        for n in order:
            if n == ENTRY:
                continue
            new_in: dict[str, Value] = {}
            preds = list(cfg.preds.get(n, ()))
            vars_seen: set[str] = set()
            for p in preds:
                vars_seen |= env_out[p].keys()
            for v in vars_seen:
                acc: Value = TOP
                for p in preds:
                    acc = _meet(acc, env_out[p].get(v, TOP))
                new_in[v] = acc
            stmt = cfg.stmts.get(n)
            new_out = dict(new_in)
            if stmt is not None:
                _transfer(stmt, new_in, new_out, symtab, oracle)
            if new_in != env_in[n] or new_out != env_out[n]:
                env_in[n] = new_in
                env_out[n] = new_out
                changed = True

    return ConstantMap(at_entry=env_in, globals_=dict(seed))


def _transfer(stmt: ast.Stmt, env_in: dict[str, Value],
              env_out: dict[str, Value], symtab: SymbolTable,
              oracle: SideEffectOracle) -> None:
    concrete = {k: v for k, v in env_in.items()
                if v is not TOP and v is not BOTTOM}
    if isinstance(stmt, ast.Assign) and isinstance(stmt.target, ast.VarRef):
        v = eval_const(stmt.value, concrete)
        env_out[stmt.target.name] = v if v is not TOP else BOTTOM
        return
    # Any other definition makes the variable non-constant.
    for a in accesses(stmt, symtab, oracle):
        if a.is_def:
            env_out[a.name] = BOTTOM
