"""Linear forms, symbolic analysis, control dependence."""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis import (LinearExpr, auxiliary_inductions,
                            control_dependences, invariant_names, linearize,
                            symbolic_relations, to_expr, trip_count,
                            compute_defuse)
from repro.fortran import ast
from repro.fortran.parser import parse_expr_text
from repro.ir import AnalyzedProgram


def lin(text: str, env=None):
    return linearize(parse_expr_text(text), env or {})


class TestLinearize:
    def test_affine(self):
        le = lin("2 * I + 3 * J - 4")
        assert le.coeff("I") == 2 and le.coeff("J") == 3
        assert le.const == -4 and le.is_affine

    def test_nested_parens(self):
        le = lin("2 * (I + 3) - (J - 1)")
        assert le.coeff("I") == 2 and le.coeff("J") == -1
        assert le.const == 7

    def test_env_substitution(self):
        le = lin("JM + 1", {"JM": lin("JMAX - 1")})
        assert le.coeff("JMAX") == 1 and le.const == 0

    def test_recursive_env(self):
        env = {"A": lin("B + 1"), "B": lin("5")}
        le = lin("A", env)
        assert le.int_const == 6

    def test_cycle_guard(self):
        env = {"A": lin("A + 1")}
        le = lin("A", env)   # must terminate; A expands once then stops
        assert "A" in le.variables() or le.is_constant

    def test_product_of_vars_is_residue(self):
        le = lin("I * J")
        assert not le.is_affine

    def test_exact_division(self):
        le = lin("(4 * I + 8) / 4")
        assert le.coeff("I") == 1 and le.const == 2

    def test_inexact_division_is_residue(self):
        le = lin("I / 2")
        assert not le.is_affine
        # a remainder keeps the whole quotient opaque
        e = parse_expr_text("(2 * I + 1) / 2")
        assert linearize(e) == LinearExpr.opaque(e)

    def test_array_ref_residue_cancels(self):
        a = lin("ISTRT(IR) + 1")
        b = lin("ISTRT(IR)")
        assert (a - b).int_const == 1

    def test_nameref_funcref_arrayref_unify(self):
        # assertion text (NameRef) vs resolved program text (ArrayRef)
        from repro.fortran.ast import ArrayRef, IntConst, VarRef
        resolved = linearize(ArrayRef("F", (VarRef("I"),)))
        parsed = lin("F(I)")
        assert (resolved - parsed).is_constant

    def test_power_constant_fold(self):
        assert lin("2 ** 3").int_const == 8

    def test_non_integral_real_constant_stays_a_fraction(self):
        le = lin("0.5 * I + 2.5")
        assert le.coeff("I") == Fraction(1, 2)
        assert type(le.coeff("I")) is Fraction
        assert type(le.const) is Fraction and le.const == Fraction(5, 2)
        # an integral result drops back to int
        twice = le + le
        assert twice.coeff("I") == 1 and type(twice.coeff("I")) is int
        assert twice.const == 5 and type(twice.const) is int


def _int_expr(v: int) -> ast.Expr:
    return ast.IntConst(v) if v >= 0 else ast.UnOp("-", ast.IntConst(-v))


#: (expression, its value at a point) pairs over loop variables I, J
#: and the symbolic name N
_LEAVES = st.one_of(
    st.integers(-20, 20).map(lambda v: (_int_expr(v), lambda pt: v)),
    st.sampled_from("IJN").map(
        lambda n: (ast.VarRef(n), lambda pt: pt[n])))


def _extend(children):
    def add(pair):
        (a, fa), (b, fb) = pair
        return ast.BinOp("+", a, b), lambda pt: fa(pt) + fb(pt)

    def sub(pair):
        (a, fa), (b, fb) = pair
        return ast.BinOp("-", a, b), lambda pt: fa(pt) - fb(pt)

    def mul(pair):
        (a, fa), k = pair
        return (ast.BinOp("*", _int_expr(k), a), lambda pt: k * fa(pt))

    def exact_div(triple):
        # (q*d*a) / d divides every coefficient exactly
        (a, fa), q, d = triple
        num = ast.BinOp("*", _int_expr(q * d), a)
        return (ast.BinOp("/", num, _int_expr(d)),
                lambda pt: q * d * fa(pt) // d)

    return st.one_of(
        st.tuples(children, children).map(add),
        st.tuples(children, children).map(sub),
        st.tuples(children, st.integers(-6, 6)).map(mul),
        st.tuples(children, st.integers(-4, 4),
                  st.integers(-5, 5).filter(bool)).map(exact_div))


_POINTS = st.fixed_dictionaries({n: st.integers(-30, 30) for n in "IJN"})


class TestIntegerFirst:
    @given(st.recursive(_LEAVES, _extend, max_leaves=10),
           st.lists(_POINTS, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_integer_forms(self, expr_and_value, points):
        expr, value = expr_and_value
        le = linearize(expr)
        assert le.is_affine
        assert type(le.const) is int
        assert all(type(c) is int for _, c in le.terms)
        for pt in points:
            assert le.const + sum(c * pt[v] for v, c in le.terms) \
                == value(pt)
        # the all-Fraction spelling of the same form is the same memo key
        spelled = LinearExpr(Fraction(le.const),
                             tuple((v, Fraction(c)) for v, c in le.terms))
        assert spelled == le and hash(spelled) == hash(le)


class TestToExpr:
    @given(st.integers(-50, 50),
           st.integers(-9, 9), st.integers(-9, 9))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_affine(self, c, a, b):
        le = LinearExpr.constant(c) + LinearExpr.var("I", a) \
            + LinearExpr.var("J", b)
        assert linearize(to_expr(le)) == le

    def test_fractional_coefficient(self):
        le = LinearExpr.var("I", Fraction(1, 2))
        e = to_expr(le)
        assert "0.5" in str(e)


class TestSymbolicRelations:
    SRC = ("      SUBROUTINE T\n"
           "      JMAX = 30\n"
           "      JM = JMAX - 1\n"
           "      DO 10 I = 1, JM\n"
           "      X = I\n"
           "   10 CONTINUE\n      END\n")

    def test_composed_relation(self):
        u = AnalyzedProgram.from_source(self.SRC).unit("T")
        du = compute_defuse(u.cfg, u.symtab)
        loop = u.loops.find("L1").loop
        rel = symbolic_relations(du, u.cfg, loop.uid, u.symtab)
        assert rel["JM"].int_const == 29

    def test_multiple_defs_no_relation(self):
        src = ("      SUBROUTINE T\n      JM = 1\n"
               "      IF (C .GT. 0) JM = 2\n"
               "      DO 10 I = 1, 5\n      X = JM\n   10 CONTINUE\n"
               "      END\n")
        u = AnalyzedProgram.from_source(src).unit("T")
        du = compute_defuse(u.cfg, u.symtab)
        loop = u.loops.find("L1").loop
        rel = symbolic_relations(du, u.cfg, loop.uid, u.symtab)
        assert "JM" not in rel


class TestAuxiliaryInduction:
    def test_simple_increment(self):
        src = ("      SUBROUTINE T\n      K = 0\n"
               "      DO 10 I = 1, 5\n      K = K + 2\n      X = K\n"
               "   10 CONTINUE\n      END\n")
        u = AnalyzedProgram.from_source(src).unit("T")
        loop = u.loops.find("L1").loop
        (aux,) = auxiliary_inductions(loop, u.symtab)
        assert aux.var == "K" and aux.step.int_const == 2

    def test_conditional_update_disqualifies(self):
        src = ("      SUBROUTINE T\n      K = 0\n"
               "      DO 10 I = 1, 5\n"
               "      IF (I .GT. 2) K = K + 1\n"
               "   10 CONTINUE\n      END\n")
        u = AnalyzedProgram.from_source(src).unit("T")
        loop = u.loops.find("L1").loop
        assert auxiliary_inductions(loop, u.symtab) == []

    def test_non_linear_update_disqualifies(self):
        src = ("      SUBROUTINE T\n      K = 1\n"
               "      DO 10 I = 1, 5\n      K = K * 2\n"
               "   10 CONTINUE\n      END\n")
        u = AnalyzedProgram.from_source(src).unit("T")
        loop = u.loops.find("L1").loop
        assert auxiliary_inductions(loop, u.symtab) == []


class TestTripCount:
    def test_constant(self):
        src = ("      SUBROUTINE T\n      DO 10 I = 2, 10, 2\n"
               "   10 CONTINUE\n      END\n")
        u = AnalyzedProgram.from_source(src).unit("T")
        assert trip_count(u.loops.find("L1").loop) == 5

    def test_zero_trip(self):
        src = ("      SUBROUTINE T\n      DO 10 I = 5, 1\n"
               "   10 CONTINUE\n      END\n")
        u = AnalyzedProgram.from_source(src).unit("T")
        assert trip_count(u.loops.find("L1").loop) == 0

    def test_symbolic_unknown(self):
        src = ("      SUBROUTINE T(N)\n      DO 10 I = 1, N\n"
               "   10 CONTINUE\n      END\n")
        u = AnalyzedProgram.from_source(src).unit("T")
        assert trip_count(u.loops.find("L1").loop) is None


class TestInvariance:
    def test_invariants(self):
        src = ("      SUBROUTINE T(N, C)\n      DO 10 I = 1, N\n"
               "      X = C * I\n   10 CONTINUE\n      END\n")
        u = AnalyzedProgram.from_source(src).unit("T")
        loop = u.loops.find("L1").loop
        inv = invariant_names(loop, u.symtab)
        assert "C" in inv and "N" in inv
        assert "X" not in inv and "I" not in inv


class TestControlDependence:
    def test_if_controls_arms(self):
        src = ("      SUBROUTINE T\n"
               "      IF (C .GT. 0) THEN\n      X = 1\n"
               "      ELSE\n      Y = 2\n      ENDIF\n"
               "      Z = 3\n      END\n")
        u = AnalyzedProgram.from_source(src).unit("T")
        deps = control_dependences(u.cfg)
        ifb = u.unit.body[0]
        x = ifb.then_body[0]
        y = ifb.else_body[0]
        z = u.unit.body[1]
        sinks = {d.sink for d in deps if d.source == ifb.uid}
        assert x.uid in sinks and y.uid in sinks
        assert z.uid not in sinks

    def test_loop_body_control_dependent_on_header(self):
        src = ("      SUBROUTINE T\n      DO 10 I = 1, N\n"
               "      X = I\n   10 CONTINUE\n      END\n")
        u = AnalyzedProgram.from_source(src).unit("T")
        deps = control_dependences(u.cfg)
        loop = u.unit.body[0]
        body_stmt = loop.body[0]
        assert any(d.source == loop.uid and d.sink == body_stmt.uid
                   for d in deps)
