"""The static race detector / parallelization lint framework.

Covers, per the lint design contract:

* rule-by-rule unit tests on crafted programs;
* ``C$PED LINT`` suppression directives (next-line and file-wide);
* the JSON diagnostic schema and its round-trip;
* deterministic ordering: byte-stable output across repeated runs,
  analysis-pool settings, and incremental re-lints;
* the acceptance criteria: zero race-detector findings on loops the
  dependence engine proved parallel without assertions, 100% detection
  of the seeded corpus defects, and dynamic cross-validation of both
  directions against the shadow-logged reference execution;
* the incremental session linter (dirty-unit re-lint, counters) and
  the ``python -m repro.lint`` CLI with its golden-baseline gate.
"""

import json
import pathlib

import pytest

from repro.corpus import ORDER, PROGRAMS
from repro.fortran import ast
from repro.interp.shadow import dynamic_races, races_under, run_shadow
from repro.ir import AnalyzedProgram
from repro.lint import SEEDS, lint_program, seeded_program
from repro.lint.core import (Diagnostic, SEVERITIES, Suppressions,
                             dedup_sorted, rule_ids)
from repro.lint.driver import SessionLinter
from repro.lint.seeds import seeded_source
from repro.lint.__main__ import main as lint_main
from repro.ped import PedSession
from repro.perf import counters as perf_counters

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "lint"

WORKER_COMBOS = [(w, s) for w in (2, 4) for s in ("static", "dynamic")]


def _rules_of(diags, prefix=""):
    return [d for d in diags
            if d.rule.startswith(prefix) and not d.suppressed]


def _jsonify(diags):
    return [d.to_json() for d in diags]


# ---------------------------------------------------------------------------
# rule unit tests
# ---------------------------------------------------------------------------

RACE_SHARED = """\
      PROGRAM P
      INTEGER I, N
      REAL T, A(10)
      N = 10
      T = 0.0
      PARALLEL DO 10 I = 1, N
         T = A(I) + T
         A(I) = T
 10   CONTINUE
      PRINT *, T
      END
"""

RACE_PRIVATE_LIVEOUT = """\
      PROGRAM P
      INTEGER I, N
      REAL D, A(10)
      N = 10
      PARALLEL DO 10 I = 1, N
         D = A(I) * 2.0
         A(I) = D
 10   CONTINUE
      PRINT *, D
      END
"""

RACE_REAL_REDUCTION = """\
      PROGRAM P
      INTEGER I, N
      REAL S, A(10)
      N = 10
      S = 0.0
      PARALLEL DO 10 I = 1, N
         S = S + A(I)
 10   CONTINUE
      PRINT *, S
      END
"""

STRIDED = """\
      PROGRAM P
      INTEGER I
      REAL A(40)
      DO 5 I = 1, 40
         A(I) = I
 5    CONTINUE
      PARALLEL DO 10 I = 2, 10
         A(2*I) = A(2*I{offset}) + 1.0
 10   CONTINUE
      PRINT *, A(2)
      END
"""

DEAD_STORE = """\
      PROGRAM P
      REAL X, Y
      X = 1.0
      Y = 2.0
      PRINT *, Y
      END
"""

UNINIT_USE = """\
      PROGRAM P
      REAL X, Y
      Y = X + 1.0
      PRINT *, Y
      END
"""

COMMON_MISMATCH = """\
      PROGRAM P
      REAL B(10)
      COMMON /BLK/ B
      CALL S
      PRINT *, B(1)
      END
      SUBROUTINE S
      REAL B(12)
      COMMON /BLK/ B
      B(1) = 1.0
      END
"""

RUNTIME_REJECTED = """\
      PROGRAM P
      INTEGER I, N
      REAL A(10)
      N = 10
      PARALLEL DO 10 I = 1, N
         IF (A(I) .GT. 1.0E6) STOP
         A(I) = A(I) * 2.0
 10   CONTINUE
      PRINT *, A(1)
      END
"""

DECIDED_BRANCH = """\
      PROGRAM P
      INTEGER I
      I = 0
      IF (2 .GT. 3) THEN
         I = 1
      ENDIF
      PRINT *, I
      END
"""


class TestRuleUnits:
    def test_race001_shared_scalar(self):
        diags = _rules_of(lint_program(RACE_SHARED), "RACE001")
        assert diags and diags[0].var == "T"
        assert diags[0].severity == "error"
        assert diags[0].loop is not None

    def test_race002_privatized_liveout(self):
        program = AnalyzedProgram.from_source(RACE_PRIVATE_LIVEOUT)
        for stmt, _ in ast.walk_stmts(program.main_unit.unit.body):
            if isinstance(stmt, ast.DoLoop) and stmt.parallel:
                stmt.private_vars.add("D")
        diags = _rules_of(lint_program(program,
                                       source=RACE_PRIVATE_LIVEOUT),
                          "RACE002")
        assert diags and diags[0].var == "D"

    def test_race003_real_reduction(self):
        diags = _rules_of(lint_program(RACE_REAL_REDUCTION), "RACE003")
        assert diags and diags[0].var == "S"
        assert "associative" in diags[0].message

    def test_race004_unsound_assertion(self):
        # the seeded dpmin defect: DISJOINT(IT, JT, 3) contradicted by
        # the initialization values actually assigned
        program, assertions = seeded_program("dpmin")
        diags = _rules_of(
            lint_program(program, assertions,
                         source=seeded_source("dpmin")), "RACE004")
        assert diags and "DISJOINT(IT, JT, 3)" in diags[0].message
        # the witness names concrete contradicting values
        assert "IT(" in diags[0].message and "JT(" in diags[0].message

    @pytest.mark.parametrize("offset,races", [("+1", []),
                                              ("-2", ["RACE001"])])
    def test_race001_strided_subscripts(self, offset, races):
        # 2*I never meets 2*I+1 (the distance 1/2 is not an integer);
        # 2*I meets 2*I-2 one iteration later
        result = lint_program(STRIDED.format(offset=offset))
        assert result.rule_failures == []
        assert [d.rule for d in result] == races

    def test_lint001_dead_store(self):
        diags = _rules_of(lint_program(DEAD_STORE), "LINT001")
        assert [d.var for d in diags] == ["X"]

    def test_lint002_uninitialized_use(self):
        diags = _rules_of(lint_program(UNINIT_USE), "LINT002")
        assert [d.var for d in diags] == ["X"]

    def test_lint002_out_argument_is_not_a_use(self):
        # E's only occurrence before definition is as an out-parameter
        # the callee kills before reading: not a use of its value
        src = ("      PROGRAM P\n"
               "      REAL E\n"
               "      CALL INIT(E)\n"
               "      PRINT *, E\n"
               "      END\n"
               "      SUBROUTINE INIT(X)\n"
               "      REAL X\n"
               "      X = 0.0\n"
               "      END\n")
        assert _rules_of(lint_program(src), "LINT002") == []

    def test_lint003_common_shape(self):
        diags = _rules_of(lint_program(COMMON_MISMATCH), "LINT003")
        assert diags and "/BLK/" in diags[0].message

    def test_lint004_runtime_rejection(self):
        diags = _rules_of(lint_program(RUNTIME_REJECTED), "LINT004")
        assert diags and "STOP" in diags[0].message

    def test_lint005_decided_branch(self):
        diags = _rules_of(lint_program(DECIDED_BRANCH), "LINT005")
        assert diags and "false" in diags[0].message


# ---------------------------------------------------------------------------
# suppression directives
# ---------------------------------------------------------------------------

class TestSuppression:
    def test_next_line_disable(self):
        src = ("      PROGRAM P\n"
               "      REAL X, Y\n"
               "C$PED LINT DISABLE LINT001\n"
               "      X = 1.0\n"
               "      Y = 2.0\n"
               "      PRINT *, Y\n"
               "      END\n")
        diags = [d for d in lint_program(src) if d.rule == "LINT001"]
        assert diags and all(d.suppressed for d in diags)
        assert lint_program(src, include_suppressed=False) == []

    def test_file_wide_disable(self):
        src = "C$PED LINT DISABLE-FILE LINT001\n" + DEAD_STORE
        diags = [d for d in lint_program(src) if d.rule == "LINT001"]
        assert diags and all(d.suppressed for d in diags)

    def test_disable_all_wildcard(self):
        src = "C$PED LINT DISABLE-FILE\n" + DEAD_STORE
        assert lint_program(src, include_suppressed=False) == []

    def test_unrelated_rule_not_suppressed(self):
        src = "C$PED LINT DISABLE-FILE RACE001\n" + DEAD_STORE
        diags = [d for d in lint_program(src) if d.rule == "LINT001"]
        assert diags and not any(d.suppressed for d in diags)

    def test_scan_parses_both_forms(self):
        sup = Suppressions.scan("C$PED LINT DISABLE LINT001, RACE001\n"
                                "      X = 1\n"
                                "*$PED LINT DISABLE-FILE LINT005\n")
        assert sup.is_suppressed("LINT001", 2)
        assert sup.is_suppressed("RACE001", 2)
        assert not sup.is_suppressed("LINT002", 2)
        assert sup.is_suppressed("LINT005", 999)


# ---------------------------------------------------------------------------
# diagnostic schema + determinism
# ---------------------------------------------------------------------------

class TestDiagnostics:
    def test_json_schema(self):
        for name in ORDER:
            for d in lint_program(PROGRAMS[name].source):
                row = d.to_json()
                assert list(row) == ["rule", "severity", "unit", "line",
                                     "loop", "var", "message", "fix",
                                     "suppressed"]
                assert row["severity"] in SEVERITIES
                assert row["rule"] in rule_ids()
                assert isinstance(row["line"], int)
                assert Diagnostic.from_json(row) == d

    def test_sorted_and_deduplicated(self):
        d1 = Diagnostic("LINT001", "warning", "B", 5, "m")
        d2 = Diagnostic("LINT001", "warning", "A", 9, "m")
        out = dedup_sorted([d1, d2, d1, d2, d1])
        assert out == [d2, d1]

    def test_byte_stable_across_runs_and_pool_settings(self):
        for name in ("spec77", "dpmin"):
            runs = []
            for parallel in (False, True, True):
                session = PedSession(PROGRAMS[name].source)
                session.analyze_all(parallel=parallel)
                runs.append(json.dumps(_jsonify(session.lint()),
                                       sort_keys=True))
            assert len(set(runs)) == 1


# ---------------------------------------------------------------------------
# acceptance: zero false positives on proved-parallel loops
# ---------------------------------------------------------------------------

class TestZeroFalsePositives:
    @pytest.mark.parametrize("name", ORDER)
    def test_no_race_findings_on_auto_parallelized_corpus(self, name):
        """Every PARALLEL marking placed by ``auto_parallelize`` was
        proved by the dependence engine without user assertions; the
        independently-derived race detector must agree with all of
        them."""
        session = PedSession(PROGRAMS[name].source)
        session.auto_parallelize()
        diags = lint_program(session.program, session.assertions,
                             source=PROGRAMS[name].source)
        races = _rules_of(diags, "RACE")
        assert races == [], [d.format() for d in races]


# ---------------------------------------------------------------------------
# acceptance: 100% seeded-defect detection, matching the goldens
# ---------------------------------------------------------------------------

class TestSeededDetection:
    @pytest.mark.parametrize("name", sorted(SEEDS))
    def test_seeded_finding_detected(self, name):
        seed = SEEDS[name]
        program, assertions = seeded_program(name)
        diags = lint_program(program, assertions,
                             source=seeded_source(name))
        hits = [d for d in diags
                if d.rule == seed.rule and d.unit == seed.unit
                and not d.suppressed]
        assert hits, (f"seeded {seed.rule} in {name}/{seed.unit} "
                      f"not detected: {[d.format() for d in diags]}")

    @pytest.mark.parametrize("name", ORDER)
    def test_matches_golden_baseline(self, name):
        golden = json.loads(
            (GOLDEN_DIR / f"{name}.json").read_text())["modes"]
        got = _jsonify(lint_program(PROGRAMS[name].source,
                                    source=PROGRAMS[name].source))
        assert got == golden["plain"]
        if name in SEEDS:
            program, assertions = seeded_program(name)
            got = _jsonify(lint_program(program, assertions,
                                        source=seeded_source(name)))
            assert got == golden["seeded"]


# ---------------------------------------------------------------------------
# acceptance: dynamic cross-validation against the shadow runtime
# ---------------------------------------------------------------------------

class TestDynamicCrossValidation:
    @pytest.mark.parametrize("name", ORDER)
    def test_lint_clean_parallel_loops_dynamically_race_free(self, name):
        """No-race-reported loops must execute race-free under both
        schedules at 2 and 4 workers (lint soundness, dynamic side)."""
        cp = PROGRAMS[name]
        session = PedSession(cp.source)
        session.auto_parallelize()
        diags = lint_program(session.program, session.assertions,
                             source=cp.source)
        flagged = {(d.unit, d.line) for d in diags
                   if d.rule.startswith("RACE") and not d.suppressed}
        sh = run_shadow(session.program, inputs=list(cp.inputs or []))
        assert sh.access_log, f"{name}: no PARALLEL loop executed"
        for log in sh.access_log:
            if (log.unit, log.line) in flagged:
                continue
            for workers, schedule in WORKER_COMBOS:
                races = races_under(log, workers, schedule)
                assert races == [], (
                    f"{name} {log.unit}:{log.line} under "
                    f"w{workers}/{schedule}: "
                    f"{[r.describe() for r in races]}")

    @pytest.mark.parametrize("name",
                             ["spec77", "slab2d", "pueblo3d", "dpmin"])
    def test_seeded_races_dynamically_observable(self, name):
        """Every seeded race-rule defect is confirmed by the shadow
        access logs: some execution of the seeded loop shows a conflict
        that crosses chunk boundaries for every worker/schedule
        combination."""
        seed = SEEDS[name]
        program, _ = seeded_program(name)
        sh = run_shadow(program, inputs=list(PROGRAMS[name].inputs or []))
        include_red = seed.rule == "RACE003"
        confirming = [
            log for log in sh.access_log
            if log.unit == seed.unit
            and dynamic_races(log, include_reductions=include_red)]
        assert confirming, f"{name}: seeded race never observed"
        log = confirming[0]
        for workers, schedule in WORKER_COMBOS:
            assert races_under(log, workers, schedule,
                               include_reductions=include_red), (
                f"{name}: seeded race invisible under "
                f"w{workers}/{schedule}")


# ---------------------------------------------------------------------------
# the incremental session linter
# ---------------------------------------------------------------------------

class TestSessionLinter:
    def test_health_and_pane_surface_lint(self):
        session = PedSession(PROGRAMS["spec77"].source)
        diags = session.lint()
        assert [d.rule for d in diags] == ["LINT001"]
        assert "LINT001" in session.lint_pane.render()
        health = session.health()
        assert health["lint"]["diagnostics"] == 1
        assert health["lint"]["by_rule"] == {"LINT001": 1}
        assert health.lint == health["lint"]

    def test_incremental_reuse_and_counters(self):
        session = PedSession(PROGRAMS["spec77"].source)
        session.lint()
        before = perf_counters.snapshot()
        diags = session.lint()   # nothing changed: all units reused
        after = perf_counters.snapshot()
        n_units = len(session.program.units)
        assert after["lint_units_reused"] - \
            before["lint_units_reused"] == n_units
        assert after["lint_units"] == before["lint_units"]
        assert after["lint_diags"] - before["lint_diags"] == len(diags)

    def test_relint_only_dirty_units_after_transform(self):
        session = PedSession(PROGRAMS["spec77"].source)
        baseline = _jsonify(session.lint())
        li = session.unit.loops.all_loops()[0]
        safe = session.safe_transformations(li.id)
        if not safe:
            pytest.skip("no safe transformation for the first loop")
        res = session.apply(safe[0][0], loop=li.id)
        assert res.applied, res.error
        before = perf_counters.snapshot()
        session.lint()
        after = perf_counters.snapshot()
        assert after["lint_units"] - before["lint_units"] == 1
        # transform -> undo restores the exact verdicts
        assert session.undo()
        assert _jsonify(session.lint()) == baseline

    def test_linter_survives_program_replacement(self):
        session = PedSession(DEAD_STORE)
        assert [d.rule for d in session.lint()] == ["LINT001"]
        session.edit(UNINIT_USE)
        assert [d.rule for d in session.lint()] == ["LINT002"]

    def test_assertions_participate_in_lint_key(self):
        src = seeded_source("dpmin")
        session = PedSession(src)
        from repro.lint.seeds import _post_parse
        _post_parse("dpmin", session.program)
        assert _rules_of(session.lint(), "RACE004") == []
        for text in SEEDS["dpmin"].assertions:
            session.assertions.add(text)
        linter = session._lint_linter()
        assert isinstance(linter, SessionLinter)
        assert _rules_of(session.lint(), "RACE004")


# ---------------------------------------------------------------------------
# crashed rules
# ---------------------------------------------------------------------------

def _break_dimension_verdicts(monkeypatch):
    """Make every RACE rule crash: they share one per-loop analysis."""
    from repro.lint.races import LoopRaceAnalysis

    def boom(self, *args):
        raise RuntimeError("injected dimension-verdict failure")

    monkeypatch.setattr(LoopRaceAnalysis, "_dim_verdict", boom)


class TestRuleFailures:
    def _seeded_spec77(self):
        program, assertions = seeded_program("spec77")
        return lint_program(program, assertions,
                            source=seeded_source("spec77"))

    def test_crash_is_reported_with_the_findings(self, monkeypatch):
        healthy = self._seeded_spec77()
        assert healthy.rule_failures == []
        assert "RACE001" in {d.rule for d in healthy}
        _break_dimension_verdicts(monkeypatch)
        broken = self._seeded_spec77()
        assert "RACE001" not in {d.rule for d in broken}
        assert broken.rule_failures
        for rule, _, err in broken.rule_failures:
            assert rule.startswith("RACE")
            assert err == "RuntimeError: injected dimension-verdict failure"

    def test_cli_prints_crash_and_fails(self, monkeypatch, capsys):
        _break_dimension_verdicts(monkeypatch)
        rc = lint_main(["spec77", "--mode", "seeded", "--format", "json"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "spec77/seeded: RACE001: RuntimeError: injected" in err

    def test_crash_never_becomes_a_baseline(self, monkeypatch, tmp_path,
                                            capsys):
        _break_dimension_verdicts(monkeypatch)
        assert lint_main(["spec77", "--mode", "seeded",
                          "--write-golden", str(tmp_path)]) == 1
        assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCli:
    def test_json_output(self, capsys):
        assert lint_main(["spec77", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["program"] == "spec77"
        assert rows[0]["mode"] == "plain"
        assert [d["rule"] for d in rows[0]["diagnostics"]] == ["LINT001"]

    def test_rule_filter(self, capsys):
        assert lint_main(["spec77", "--rules", "RACE001",
                          "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["diagnostics"] == []

    def test_unknown_program_fails(self, capsys):
        assert lint_main(["no-such-program"]) == 2

    def test_golden_gate_passes(self, capsys):
        assert lint_main(["--mode", "all", "--format", "json",
                          "--golden", str(GOLDEN_DIR)]) == 0

    def test_golden_gate_catches_drift(self, tmp_path, capsys):
        baseline = json.loads((GOLDEN_DIR / "spec77.json").read_text())
        baseline["modes"]["plain"].append({
            "rule": "LINT001", "severity": "warning", "unit": "SPEC77",
            "line": 99, "loop": None, "var": "Z",
            "message": "synthetic", "fix": None, "suppressed": False})
        (tmp_path / "spec77.json").write_text(json.dumps(baseline))
        rc = lint_main(["spec77", "--mode", "plain", "--format", "json",
                        "--golden", str(tmp_path)])
        assert rc == 1
        assert "vanished" in capsys.readouterr().err
