"""Interprocedural analysis: MOD/REF/KILL, exposed refs, sections,
killed arrays, constants, global relations, composition checks."""

from repro.analysis.linear import LinearExpr
from repro.dependence import DependenceAnalyzer
from repro.interproc import (InterproceduralOracle, SummaryBuilder,
                             check_array_bounds, check_call_interfaces,
                             check_common_blocks, interprocedural_constants)
from repro.interproc.symbolic import global_relations
from repro.ir import AnalyzedProgram


def summaries(src: str):
    program = AnalyzedProgram.from_source(src)
    return program, SummaryBuilder(program).build()


class TestModRefKill:
    SRC = ("      SUBROUTINE CALLER(X, Y)\n      REAL X, Y\n"
           "      CALL SWAPISH(X, Y)\n      END\n"
           "      SUBROUTINE SWAPISH(A, B)\n      REAL A, B\n"
           "      A = B + 1.0\n      END\n")

    def test_basic_sets(self):
        _, summ = summaries(self.SRC)
        s = summ["SWAPISH"]
        assert s.mod == {"A"} and s.ref == {"B"}
        assert s.kill == {"A"}

    def test_transitive_through_caller(self):
        _, summ = summaries(self.SRC)
        c = summ["CALLER"]
        assert "X" in c.mod and "Y" in c.ref
        assert "X" in c.kill

    def test_conditional_write_not_killed(self):
        src = ("      SUBROUTINE P(A, C)\n      REAL A, C\n"
               "      IF (C .GT. 0.0) A = 1.0\n      END\n")
        _, summ = summaries(src)
        assert "A" in summ["P"].mod
        assert "A" not in summ["P"].kill

    def test_kill_on_both_paths(self):
        src = ("      SUBROUTINE P(A, C)\n      REAL A, C\n"
               "      IF (C .GT. 0.0) THEN\n      A = 1.0\n"
               "      ELSE\n      A = 2.0\n      ENDIF\n      END\n")
        _, summ = summaries(src)
        assert "A" in summ["P"].kill

    def test_exposed_ref(self):
        src = ("      SUBROUTINE P(A, B)\n      REAL A, B\n"
               "      A = 1.0\n      A = A + B\n      END\n")
        _, summ = summaries(src)
        s = summ["P"]
        # A's incoming value is never used; B's is
        assert "B" in s.exposed_ref
        assert "A" not in s.exposed_ref


class TestSections:
    def test_column_section(self):
        src = ("      SUBROUTINE COL(A, J, N)\n      INTEGER J, N, I\n"
               "      REAL A(10, 10)\n"
               "      DO 10 I = 1, N\n      A(I, J) = 0.0\n"
               "   10 CONTINUE\n      END\n")
        _, summ = summaries(src)
        sec = summ["COL"].mod_sections["A"]
        assert not sec.dims[0].single          # ranged first dim
        assert sec.dims[1].single              # single column

    def test_local_subscript_degrades_to_unknown(self):
        src = ("      SUBROUTINE P(A)\n      REAL A(10)\n"
               "      K = 3\n      A(K) = 0.0\n      END\n")
        _, summ = summaries(src)
        sec = summ["P"].mod_sections["A"]
        assert not sec.dims[0].known

    def test_call_loop_parallel_via_sections(self):
        src = ("      SUBROUTINE T\n      REAL F(16, 4)\n"
               "      COMMON /G/ F\n"
               "      DO 10 J = 1, 4\n      CALL ROW(J)\n"
               "   10 CONTINUE\n      END\n"
               "      SUBROUTINE ROW(J)\n      INTEGER J, I\n"
               "      REAL F(16, 4)\n      COMMON /G/ F\n"
               "      DO 20 I = 1, 16\n      F(I, J) = F(I, J) + 1.0\n"
               "   20 CONTINUE\n      END\n")
        program, summ = summaries(src)
        oracle = InterproceduralOracle(summ)
        u = program.unit("T")
        an = DependenceAnalyzer(u, oracle=oracle)
        assert an.analyze_loop("L1").parallelizable()

    def test_overlapping_sections_dependence_remains(self):
        src = ("      SUBROUTINE T\n      REAL F(20)\n"
               "      COMMON /G/ F\n"
               "      DO 10 J = 1, 4\n      CALL ALL(J)\n"
               "   10 CONTINUE\n      END\n"
               "      SUBROUTINE ALL(J)\n      INTEGER J, I\n"
               "      REAL F(20)\n      COMMON /G/ F\n"
               "      DO 20 I = 1, 20\n      F(I) = F(I) + J\n"
               "   20 CONTINUE\n      END\n")
        program, summ = summaries(src)
        oracle = InterproceduralOracle(summ)
        u = program.unit("T")
        assert not DependenceAnalyzer(
            u, oracle=oracle).analyze_loop("L1").parallelizable()


class TestKilledArrays:
    SRC = ("      SUBROUTINE T\n      REAL Z(8), Q(8, 3)\n"
           "      COMMON /W/ Z, Q\n"
           "      DO 10 L = 1, 3\n      CALL WIPE(L)\n"
           "   10 CONTINUE\n      END\n"
           "      SUBROUTINE WIPE(L)\n      INTEGER L, K\n"
           "      REAL Z(8), Q(8, 3)\n      COMMON /W/ Z, Q\n"
           "      DO 20 K = 1, 8\n      Z(K) = Q(K, L)\n"
           "   20 CONTINUE\n"
           "      DO 30 K = 1, 8\n      Q(K, L) = Q(K, L) + Z(K)\n"
           "   30 CONTINUE\n      END\n")

    def test_callee_kills_array(self):
        _, summ = summaries(self.SRC)
        assert "Z" in summ["WIPE"].killed_arrays
        assert "Z" not in summ["WIPE"].exposed_ref

    def test_caller_loop_array_kill_via_call(self):
        from repro.analysis.arraykills import privatizable_arrays
        program, summ = summaries(self.SRC)
        oracle = InterproceduralOracle(summ)
        u = program.unit("T")
        lp = u.loops.find("L1").loop
        cb = oracle.call_sections_for(u.symtab)
        assert "Z" in privatizable_arrays(lp, u.symtab, oracle,
                                          call_sections=cb)


class TestInterproceduralConstants:
    def test_single_call_site(self):
        src = ("      PROGRAM P\n      CALL W(5)\n      END\n"
               "      SUBROUTINE W(N)\n      INTEGER N\n      END\n")
        program = AnalyzedProgram.from_source(src)
        inh = interprocedural_constants(program)
        assert inh["W"]["N"] == 5

    def test_conflicting_sites_bottom(self):
        src = ("      PROGRAM P\n      CALL W(5)\n      CALL W(6)\n"
               "      END\n"
               "      SUBROUTINE W(N)\n      INTEGER N\n      END\n")
        program = AnalyzedProgram.from_source(src)
        inh = interprocedural_constants(program)
        assert "N" not in inh["W"]

    def test_chained_propagation(self):
        src = ("      PROGRAM P\n      CALL A(7)\n      END\n"
               "      SUBROUTINE A(N)\n      INTEGER N\n"
               "      CALL B(N + 1)\n      END\n"
               "      SUBROUTINE B(M)\n      INTEGER M\n      END\n")
        program = AnalyzedProgram.from_source(src)
        inh = interprocedural_constants(program)
        assert inh["B"]["M"] == 8


class TestGlobalRelations:
    def test_single_assignment_relation(self):
        src = ("      PROGRAM P\n      INTEGER JM, JMAX\n"
               "      COMMON /C/ JM, JMAX\n"
               "      JMAX = 30\n      JM = JMAX - 1\n"
               "      CALL W\n      END\n"
               "      SUBROUTINE W\n      INTEGER JM, JMAX\n"
               "      COMMON /C/ JM, JMAX\n      END\n")
        rel = global_relations(AnalyzedProgram.from_source(src))
        assert rel["JM"].int_const == 29
        assert rel["JMAX"].int_const == 30

    def test_double_assignment_disqualifies(self):
        src = ("      PROGRAM P\n      INTEGER M\n      COMMON /C/ M\n"
               "      M = 2\n      CALL W\n      M = 3\n      CALL W\n"
               "      END\n"
               "      SUBROUTINE W\n      INTEGER M\n      COMMON /C/ M\n"
               "      END\n")
        rel = global_relations(AnalyzedProgram.from_source(src))
        assert "M" not in rel

    def test_actual_argument_disqualifies(self):
        src = ("      PROGRAM P\n      INTEGER M\n      COMMON /C/ M\n"
               "      M = 2\n      CALL W(M)\n      END\n"
               "      SUBROUTINE W(K)\n      INTEGER K\n      K = 9\n"
               "      END\n")
        rel = global_relations(AnalyzedProgram.from_source(src))
        assert "M" not in rel


class TestCompose:
    def test_arg_count_mismatch(self):
        src = ("      PROGRAM P\n      CALL W(1, 2)\n      END\n"
               "      SUBROUTINE W(A)\n      REAL A\n      END\n")
        diags = check_call_interfaces(AnalyzedProgram.from_source(src))
        assert any(d.kind == "arg-count" for d in diags)

    def test_arg_type_mismatch(self):
        src = ("      PROGRAM P\n      INTEGER K\n      CALL W(K)\n"
               "      END\n"
               "      SUBROUTINE W(A)\n      REAL A\n      END\n")
        diags = check_call_interfaces(AnalyzedProgram.from_source(src))
        assert any(d.kind == "arg-type" for d in diags)

    def test_clean_call(self):
        src = ("      PROGRAM P\n      REAL X\n      CALL W(X)\n"
               "      END\n"
               "      SUBROUTINE W(A)\n      REAL A\n      END\n")
        assert check_call_interfaces(
            AnalyzedProgram.from_source(src)) == []

    def test_common_shape_mismatch(self):
        src = ("      PROGRAM P\n      REAL A(10)\n"
               "      COMMON /B/ A\n      END\n"
               "      SUBROUTINE W\n      REAL A(12)\n"
               "      COMMON /B/ A\n      END\n")
        diags = check_common_blocks(AnalyzedProgram.from_source(src))
        assert any(d.kind == "common-shape" for d in diags)

    def test_static_bounds(self):
        src = ("      PROGRAM P\n      REAL A(10)\n"
               "      A(11) = 1.0\n      A(0) = 2.0\n      END\n")
        diags = check_array_bounds(AnalyzedProgram.from_source(src))
        assert len([d for d in diags if d.kind == "bounds"]) == 2


def _chain(depth: int) -> str:
    """MAIN's loop calls S1, which reaches S<depth> (the only writer of
    /B/ X) through a chain of calls, then reads X."""
    lines = ["      PROGRAM MAIN", "      REAL Y(100)", "      COMMON /B/ X",
             "      DO 10 I = 1, 100", "         CALL S1",
             "         Y(I) = X", "   10 CONTINUE", "      END"]
    for k in range(1, depth):
        lines += [f"      SUBROUTINE S{k}", f"      CALL S{k + 1}",
                  "      END"]
    lines += [f"      SUBROUTINE S{depth}", "      COMMON /B/ X",
              "      X = X + 1.0", "      END"]
    return "\n".join(lines) + "\n"


class TestCommonPropagation:
    def test_deep_call_chain_reaches_the_top(self):
        # sites are visited caller-first: depth 25 needs 24 rounds
        program, summ = summaries(_chain(25))
        assert "X" in summ["S1"].mod
        assert program.units["S1"].symtab.get("X").common_block == "B"

    def test_deep_call_chain_blocks_parallelize(self):
        from repro.ped import PedSession
        s = PedSession(_chain(25))
        assert not s.advice("parallelize", loop=s.loops()[0]).ok


class TestSummaryStoreKeys:
    """Summaries are shared per unit through the artifact store, keyed
    on the unit's structure and its callees' keys."""

    CALLER = ("      SUBROUTINE T(Z)\n      REAL Z\n      CALL S(Z)\n"
              "      END\n")
    WRITES = CALLER + ("      SUBROUTINE S(A)\n      REAL A\n"
                       "      A = 1.0\n      END\n")
    READS = CALLER + ("      SUBROUTINE S(A)\n      REAL A, B\n"
                      "      B = A\n      END\n")

    def _build(self, src, store):
        from repro.store import scoped_store
        with scoped_store(store):
            return summaries(src)[1]

    def test_callee_change_rekeys_the_caller(self):
        from repro.store import ArtifactStore
        shared = ArtifactStore(from_env=False)
        a = self._build(self.WRITES, shared)
        assert a["T"].mod == {"Z"}
        b = self._build(self.READS, shared)
        fresh = self._build(self.READS, ArtifactStore(from_env=False))
        assert b["T"] == fresh["T"]
        assert b["T"].mod == set() and b["T"].ref == {"Z"}

    def test_identical_units_shared_across_programs(self, monkeypatch):
        from repro.corpus.synth import generate
        from repro.interproc import summary
        from repro.store import ArtifactStore
        summarized = []
        real = summary.SummaryBuilder._summarize

        def counting(self, name):
            summarized.append(name)
            return real(self, name)

        monkeypatch.setattr(summary.SummaryBuilder, "_summarize", counting)
        store = ArtifactStore(from_env=False)
        self._build(generate(1993, 3).source, store)
        assert sorted(summarized) == ["GALERY", "GHELP", "MAIN"]
        del summarized[:]
        self._build(generate(1993, 10).source, store)
        assert summarized == ["MAIN"]
