"""The Fortran interpreter: semantics, profiling, parallel simulation."""

import pytest

from repro.interp import (AssertionViolated, Interpreter, RuntimeFault,
                          StepLimitExceeded, compare_runs, run_program,
                          simulate_speedup, verify_equivalence)
from repro.ir import AnalyzedProgram


def run(src, inputs=None, **kw):
    return run_program(src, inputs=inputs, **kw)


class TestArithmetic:
    def test_integer_division_truncates(self):
        r = run("      PROGRAM P\n      INTEGER K\n      K = 7 / 2\n"
                "      PRINT *, K\n      END\n")
        assert r.outputs == [3]

    def test_negative_integer_division_toward_zero(self):
        r = run("      PROGRAM P\n      INTEGER K\n      K = -7 / 2\n"
                "      PRINT *, K\n      END\n")
        assert r.outputs == [-3]

    @pytest.mark.parametrize("engine", ["tree", "compiled"])
    def test_integer_division_exact_past_float_precision(self, engine):
        # a float quotient would lose the low bit of 2**62 + 3
        r = run("      PROGRAM P\n      PRINT *, (2**62 + 3) / 2\n"
                "      PRINT *, -7 / 2\n      END\n", engine=engine)
        assert r.outputs == [2305843009213693953, -3]

    def test_constant_folder_divides_exactly(self):
        from repro.analysis.constants import eval_const
        from repro.fortran.parser import parse_expr_text

        def fold(text):
            return eval_const(parse_expr_text(text), {})

        assert fold("(2**62 + 3) / 2") == 2305843009213693953
        assert fold("-7 / 2") == -3
        assert fold("(10**400 + 1) / (-3)") == -((10**400 + 1) // 3)

    def test_mixed_coercion(self):
        r = run("      PROGRAM P\n      INTEGER K\n      K = 3.9\n"
                "      PRINT *, K\n      END\n")
        assert r.outputs == [3]

    def test_power(self):
        r = run("      PROGRAM P\n      PRINT *, 2 ** 10\n      END\n")
        assert r.outputs == [1024]

    def test_intrinsics(self):
        r = run("      PROGRAM P\n"
                "      PRINT *, ABS(-3), MAX(1, 5, 2), MOD(7, 3)\n"
                "      PRINT *, SQRT(4.0), MIN(2.0, 1.0)\n      END\n")
        assert r.outputs == [3, 5, 1, 2.0, 1.0]

    def test_logical_ops(self):
        r = run("      PROGRAM P\n      LOGICAL A\n"
                "      A = 1 .LT. 2 .AND. .NOT. (3 .EQ. 4)\n"
                "      IF (A) PRINT *, 1\n      END\n")
        assert r.outputs == [1]


class TestDoSemantics:
    def test_zero_trip(self):
        r = run("      PROGRAM P\n      K = 0\n      DO 10 I = 5, 1\n"
                "      K = K + 1\n   10 CONTINUE\n      PRINT *, K\n"
                "      END\n")
        assert r.outputs == [0]

    def test_negative_step(self):
        r = run("      PROGRAM P\n      K = 0\n"
                "      DO 10 I = 10, 2, -2\n      K = K + I\n"
                "   10 CONTINUE\n      PRINT *, K\n      END\n")
        assert r.outputs == [30]

    def test_index_after_loop(self):
        r = run("      PROGRAM P\n      DO 10 I = 1, 3\n"
                "   10 CONTINUE\n      PRINT *, I\n      END\n")
        assert r.outputs == [4]

    def test_goto_to_terminal_continues_iteration(self):
        r = run("      PROGRAM P\n      K = 0\n      DO 10 I = 1, 5\n"
                "      IF (I .EQ. 3) GOTO 10\n      K = K + 1\n"
                "   10 CONTINUE\n      PRINT *, K\n      END\n")
        assert r.outputs == [4]


class TestControlFlow:
    def test_computed_goto(self):
        r = run("      PROGRAM P\n      K = 2\n      GOTO (10, 20, 30), K\n"
                "   10 PRINT *, 1\n      GOTO 40\n"
                "   20 PRINT *, 2\n      GOTO 40\n"
                "   30 PRINT *, 3\n   40 CONTINUE\n      END\n")
        assert r.outputs == [2]

    def test_computed_goto_out_of_range_falls_through(self):
        r = run("      PROGRAM P\n      K = 9\n      GOTO (10, 20), K\n"
                "      PRINT *, 0\n"
                "   10 CONTINUE\n   20 CONTINUE\n      END\n")
        assert r.outputs == [0]

    def test_arith_if(self):
        for val, expect in ((-1.0, 1), (0.0, 2), (3.0, 3)):
            r = run(f"      PROGRAM P\n      X = {val}\n"
                    "      IF (X) 10, 20, 30\n"
                    "   10 PRINT *, 1\n      GOTO 40\n"
                    "   20 PRINT *, 2\n      GOTO 40\n"
                    "   30 PRINT *, 3\n   40 CONTINUE\n      END\n")
            assert r.outputs == [expect], val

    def test_step_limit(self):
        with pytest.raises(StepLimitExceeded):
            run("      PROGRAM P\n   10 CONTINUE\n      GOTO 10\n"
                "      END\n", max_steps=1000)


class TestProceduresAndStorage:
    def test_function_result(self):
        r = run("      PROGRAM P\n      PRINT *, TWICE(21.0)\n      END\n"
                "      REAL FUNCTION TWICE(X)\n      REAL X\n"
                "      TWICE = X * 2.0\n      END\n")
        assert r.outputs == [42.0]

    def test_scalar_copy_back(self):
        r = run("      PROGRAM P\n      X = 1.0\n      CALL BUMP(X)\n"
                "      PRINT *, X\n      END\n"
                "      SUBROUTINE BUMP(A)\n      REAL A\n"
                "      A = A + 1.0\n      END\n")
        assert r.outputs == [2.0]

    def test_array_aliasing(self):
        r = run("      PROGRAM P\n      REAL A(3)\n      A(2) = 5.0\n"
                "      CALL Z(A)\n      PRINT *, A(2)\n      END\n"
                "      SUBROUTINE Z(B)\n      REAL B(3)\n"
                "      B(2) = B(2) * 10.0\n      END\n")
        assert r.outputs == [50.0]

    def test_array_element_actual_sequence_association(self):
        r = run("      PROGRAM P\n      REAL A(10)\n      A(4) = 9.0\n"
                "      CALL Z(A(3), 2)\n      PRINT *, A(4)\n      END\n"
                "      SUBROUTINE Z(B, N)\n      INTEGER N\n"
                "      REAL B(N)\n      B(2) = B(2) + 1.0\n      END\n")
        assert r.outputs == [10.0]

    def test_common_shared(self):
        r = run("      PROGRAM P\n      COMMON /C/ G\n      G = 1.0\n"
                "      CALL UP\n      PRINT *, G\n      END\n"
                "      SUBROUTINE UP\n      COMMON /C/ G\n"
                "      G = G + 1.0\n      END\n")
        assert r.outputs == [2.0]

    def test_reshape_2d_argument(self):
        r = run("      PROGRAM P\n      REAL A(4, 3)\n"
                "      A(2, 2) = 7.0\n      CALL F(A, 4, 3)\n"
                "      PRINT *, A(2, 2)\n      END\n"
                "      SUBROUTINE F(B, N, M)\n      INTEGER N, M\n"
                "      REAL B(N, M)\n      B(2, 2) = B(2, 2) + 1.0\n"
                "      END\n")
        assert r.outputs == [8.0]

    def test_data_statement(self):
        r = run("      PROGRAM P\n      REAL A(3)\n      INTEGER K\n"
                "      DATA A /1.0, 2.0, 3.0/, K /7/\n"
                "      PRINT *, A(2), K\n      END\n")
        assert r.outputs == [2.0, 7]

    def test_read_inputs(self):
        r = run("      PROGRAM P\n      READ *, N, X\n"
                "      PRINT *, N + 1, X\n      END\n",
                inputs=[4, 2.5])
        assert r.outputs == [5, 2.5]

    def test_bounds_fault(self):
        with pytest.raises(RuntimeFault):
            run("      PROGRAM P\n      REAL A(3)\n      K = 5\n"
                "      A(K) = 1.0\n      END\n")


class TestVerification:
    def test_equivalent_programs(self):
        a = ("      PROGRAM P\n      K = 0\n      DO 10 I = 1, 4\n"
             "      K = K + I\n   10 CONTINUE\n      PRINT *, K\n"
             "      END\n")
        b = ("      PROGRAM P\n      K = 10\n      PRINT *, K\n"
             "      END\n")
        assert verify_equivalence(a, b) == []

    def test_different_programs_detected(self):
        a = "      PROGRAM P\n      PRINT *, 1\n      END\n"
        b = "      PROGRAM P\n      PRINT *, 2\n      END\n"
        assert verify_equivalence(a, b) != []

    def test_common_state_compared(self):
        a = ("      PROGRAM P\n      COMMON /C/ G\n      G = 1.0\n"
             "      END\n")
        b = ("      PROGRAM P\n      COMMON /C/ G\n      G = 2.0\n"
             "      END\n")
        assert verify_equivalence(a, b) != []


class TestParallelSimulation:
    SEQ = ("      PROGRAM P\n      REAL A(200)\n"
           "      DO 10 I = 1, 200\n"
           "      A(I) = SQRT(I * 2.0) + SQRT(I * 3.0)\n"
           "   10 CONTINUE\n      PRINT *, A(200)\n      END\n")

    def test_speedup_for_big_parallel_loop(self):
        par = self.SEQ.replace("DO 10 I", "PARALLEL DO 10 I")
        t = simulate_speedup(self.SEQ, par)
        assert t.speedup > 10

    def test_small_loop_overhead_dominates(self):
        seq = ("      PROGRAM P\n      REAL A(2)\n      DO 10 I = 1, 2\n"
               "      A(I) = I\n   10 CONTINUE\n      PRINT *, A(1)\n"
               "      END\n")
        par = seq.replace("DO 10 I", "PARALLEL DO 10 I")
        t = simulate_speedup(seq, par)
        assert t.speedup < 1.0

    def test_parallel_results_identical(self):
        par = self.SEQ.replace("DO 10 I", "PARALLEL DO 10 I")
        assert verify_equivalence(self.SEQ, par) == []


class TestProfile:
    def test_loop_counters(self):
        src = ("      PROGRAM P\n      REAL A(10, 5)\n"
               "      DO 10 I = 1, 10\n      DO 10 J = 1, 5\n"
               "      A(I, J) = I * J\n   10 CONTINUE\n      END\n")
        program = AnalyzedProgram.from_source(src)
        interp = Interpreter(program)
        interp.run()
        u = program.unit("P")
        outer = u.loops.find("L1")
        inner = u.loops.find("L2")
        assert interp.profile.loop_iterations[outer.uid] == 10
        assert interp.profile.loop_iterations[inner.uid] == 50
        assert interp.profile.loop_time[outer.uid] >= \
            interp.profile.loop_time[inner.uid]

    def test_unit_calls_counted(self):
        src = ("      PROGRAM P\n      DO 10 I = 1, 3\n      CALL W\n"
               "   10 CONTINUE\n      END\n"
               "      SUBROUTINE W\n      END\n")
        interp = run(src)
        assert interp.profile.unit_calls["W"] == 3
