"""Affine (linear) form extraction for subscript expressions.

Dependence tests reason about subscripts of the form::

    a0 + a1*I1 + a2*I2 + ... + (symbolic residue)

where ``Ik`` are loop induction variables.  :class:`LinearExpr` is that
normal form: a constant, a coefficient per variable, and a tuple of
opaque residue expressions for anything non-affine (index-array
references ``IT(N)``, products of variables, function calls, ...).  A
subscript with a residue can still be tested conservatively: two
references whose residues are structurally identical cancel when
subtracted, which is how symbolic-but-equal terms (the ``MCN`` offsets
of pueblo3d) are handled.

Numbers are integer-first: the constant and every coefficient is a
Python ``int``, and a :class:`~fractions.Fraction` exists only for a
value that is not an integer (a non-integral REAL constant, or a
coefficient derived from one).  Every result is normalized back to
``int`` when it is integral.  Since ``Fraction(n) == n`` and
``hash(Fraction(n)) == hash(n)``, a form compares and hashes exactly as
its all-Fraction spelling would, so memo keys built from forms do not
depend on which spelling produced them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ..fortran import ast


#: an ``int``, or a ``Fraction`` that is not integral
Number = int | Fraction


def _num(x: Number) -> Number:
    """``x`` as an ``int`` when it is integral (a ``bool`` or a
    ``Fraction`` with denominator 1), else the ``Fraction`` itself."""
    if type(x) is int or x.denominator != 1:
        return x
    return x.numerator


@dataclass(frozen=True)
class LinearExpr:
    const: Number = 0
    #: variable name -> coefficient
    terms: tuple[tuple[str, Number], ...] = ()
    #: opaque non-affine addends, each (coefficient, expression)
    residue: tuple[tuple[Number, ast.Expr], ...] = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(v: Number) -> "LinearExpr":
        return LinearExpr(const=_num(v))

    @staticmethod
    def var(name: str, coef: Number = 1) -> "LinearExpr":
        return LinearExpr(terms=((name.upper(), _num(coef)),))

    @staticmethod
    def opaque(e: ast.Expr, coef: Number = 1) -> "LinearExpr":
        return LinearExpr(residue=((_num(coef), e),))

    # -- queries -----------------------------------------------------------

    @property
    def is_affine(self) -> bool:
        return not self.residue

    @property
    def is_constant(self) -> bool:
        return not self.terms and not self.residue

    @property
    def int_const(self) -> int | None:
        if self.is_constant and self.const.denominator == 1:
            return int(self.const)
        return None

    def coeff(self, name: str) -> Number:
        name = name.upper()
        for v, c in self.terms:
            if v == name:
                return c
        return 0

    def variables(self) -> set[str]:
        return {v for v, _ in self.terms}

    def terms_dict(self) -> dict[str, Number]:
        return dict(self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LinearExpr") -> "LinearExpr":
        terms = dict(self.terms)
        for v, c in other.terms:
            terms[v] = terms.get(v, 0) + c
        residue = _merge_residue(self.residue, other.residue)
        return _make(self.const + other.const, terms, residue)

    def __sub__(self, other: "LinearExpr") -> "LinearExpr":
        return self + other.scale(-1)

    def scale(self, k: Number) -> "LinearExpr":
        if k == 0:
            return LinearExpr()
        return _make(self.const * k,
                     {v: c * k for v, c in self.terms},
                     tuple((c * k, e) for c, e in self.residue))

    def __neg__(self) -> "LinearExpr":
        return self.scale(-1)

    def __str__(self) -> str:  # pragma: no cover - debug aid
        parts = []
        if self.const or (not self.terms and not self.residue):
            parts.append(str(self.const))
        for v, c in self.terms:
            parts.append(f"{c}*{v}")
        for c, e in self.residue:
            parts.append(f"{c}*<{e}>")
        return " + ".join(parts)


def _merge_residue(a, b):
    """Combine residue lists, cancelling structurally-equal expressions."""
    if not b:
        return a
    acc: list[tuple[Number, ast.Expr]] = list(a)
    for coef, expr in b:
        for i, (c0, e0) in enumerate(acc):
            if e0 == expr:
                acc[i] = (c0 + coef, e0)
                break
        else:
            acc.append((coef, expr))
    return tuple((c, e) for c, e in acc if c != 0)


def _make(const: Number, terms: dict[str, Number],
          residue) -> LinearExpr:
    return LinearExpr(
        const=_num(const),
        terms=tuple(sorted((v, _num(c)) for v, c in terms.items()
                           if c != 0)),
        residue=tuple((_num(c), e) for c, e in residue))


def canonical(e: ast.Expr) -> ast.Expr:
    """Canonicalize an expression for structural comparison of residues.

    ``NAME(args)`` means the same value whether it parsed as a NameRef
    (unresolved), an ArrayRef, or a FuncRef -- assertion text is parsed
    without a symbol table, so all three spellings must compare equal.
    Everything is rewritten to ArrayRef form.
    """

    def fix(x: ast.Expr) -> ast.Expr:
        if isinstance(x, (ast.NameRef, ast.FuncRef)):
            return ast.ArrayRef(x.name, x.args
                                if isinstance(x, ast.NameRef) else x.args)
        return x

    return ast.map_expr(e, fix)


def linearize(e: ast.Expr,
              env: "dict[str, LinearExpr] | None" = None) -> LinearExpr:
    """Convert an expression to linear normal form.

    ``env`` maps variable names to known linear values (constants from
    constant propagation, symbolic relations such as ``JM -> JMAX - 1``,
    assertion-provided equalities).  Substitution is applied recursively
    but cycles are guarded by removing a name from the environment while
    expanding it.
    """
    env = env or {}

    def rec(x: ast.Expr, env_: dict[str, LinearExpr]) -> LinearExpr:
        if isinstance(x, ast.IntConst):
            return LinearExpr.constant(x.value)
        if isinstance(x, ast.RealConst):
            v = x.value
            if v == int(v):
                return LinearExpr.constant(int(v))
            return LinearExpr.constant(Fraction(v).limit_denominator(10**6))
        if isinstance(x, ast.VarRef):
            name = x.name.upper()
            if name in env_:
                sub = dict(env_)
                del sub[name]
                expansion = env_[name]
                # re-expand any variables inside the expansion
                out = LinearExpr.constant(expansion.const)
                for v, c in expansion.terms:
                    if v in sub:
                        out = out + rec(ast.VarRef(v), sub).scale(c)
                    else:
                        out = out + LinearExpr.var(v, c)
                for c, oe in expansion.residue:
                    out = out + LinearExpr.opaque(oe, c)
                return out
            return LinearExpr.var(name)
        if isinstance(x, ast.UnOp):
            if x.op == "-":
                return -rec(x.operand, env_)
            if x.op == "+":
                return rec(x.operand, env_)
            return LinearExpr.opaque(x)
        if isinstance(x, ast.BinOp):
            if x.op == "+":
                return rec(x.left, env_) + rec(x.right, env_)
            if x.op == "-":
                return rec(x.left, env_) - rec(x.right, env_)
            if x.op == "*":
                lhs = rec(x.left, env_)
                rhs = rec(x.right, env_)
                if lhs.is_constant:
                    return rhs.scale(lhs.const)
                if rhs.is_constant:
                    return lhs.scale(rhs.const)
                return LinearExpr.opaque(x)
            if x.op == "/":
                lhs = rec(x.left, env_)
                rhs = rec(x.right, env_)
                d = rhs.const
                # Integer division truncates; only exact divisions are
                # safe to keep affine.
                if rhs.is_constant and d != 0 and not lhs.residue \
                        and lhs.const % d == 0 \
                        and all(c % d == 0 for _, c in lhs.terms):
                    return _make(lhs.const // d,
                                 {v: c // d for v, c in lhs.terms}, ())
                return LinearExpr.opaque(x)
            if x.op == "**":
                lhs = rec(x.left, env_)
                rhs = rec(x.right, env_)
                if lhs.is_constant and rhs.is_constant \
                        and rhs.const.denominator == 1 and rhs.const >= 0:
                    return LinearExpr.constant(lhs.const ** int(rhs.const))
                return LinearExpr.opaque(x)
            return LinearExpr.opaque(x)
        # ArrayRef (index arrays!), FuncRef, logical/string constants
        return LinearExpr.opaque(x)

    return rec(canonical(e), env)


def to_expr(le: LinearExpr) -> ast.Expr:
    """Rebuild an AST expression from a linear form (for display/codegen)."""
    out: ast.Expr | None = None

    def add(term: ast.Expr, negate: bool) -> None:
        nonlocal out
        if out is None:
            out = ast.UnOp("-", term) if negate else term
        else:
            out = ast.BinOp("-" if negate else "+", out, term)

    if le.const != 0 or (not le.terms and not le.residue):
        c = le.const
        if c.denominator == 1:
            add(ast.IntConst(abs(int(c))), c < 0)
        else:
            add(ast.RealConst(str(float(abs(c)))), c < 0)
    for v, c in le.terms:
        base: ast.Expr = ast.VarRef(v)
        ac = abs(c)
        if ac != 1:
            k: ast.Expr = (ast.IntConst(int(ac)) if ac.denominator == 1
                           else ast.RealConst(str(float(ac))))
            base = ast.BinOp("*", k, base)
        add(base, c < 0)
    for c, e in le.residue:
        base = e
        ac = abs(c)
        if ac != 1:
            k = (ast.IntConst(int(ac)) if ac.denominator == 1
                 else ast.RealConst(str(float(ac))))
            base = ast.BinOp("*", k, base)
        add(base, c < 0)
    assert out is not None
    return out


def simplify_expr(e: ast.Expr,
                  env: "dict[str, LinearExpr] | None" = None) -> ast.Expr:
    """Expression simplification on demand (PED's symbolic service)."""
    return to_expr(linearize(e, env))
