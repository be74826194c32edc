"""Incremental dependence engine: scoped invalidation keeps sibling
loops' cached analyses alive, the pair-test memo hits on repeat
analyses, and pooled whole-program analysis is byte-identical to
serial."""

import pytest

from repro.corpus import PROGRAMS
from repro.dependence import tests as dep_tests
from repro.ir.program import AnalyzedProgram
from repro.ped import PedSession
from repro.perf import counters

#: three independent sibling loops; the first is trivially parallelizable
SRC = """\
      PROGRAM SIBS
      INTEGER I, N
      REAL A(100), B(100), C(100)
      N = 100
      DO 10 I = 1, N
         A(I) = A(I) + 1.0
 10   CONTINUE
      DO 20 I = 2, N
         B(I) = B(I - 1) * 2.0
 20   CONTINUE
      DO 30 I = 1, N
         C(I) = C(I) + B(I)
 30   CONTINUE
      PRINT *, A(1), B(1), C(1)
      END
"""


class TestScopedInvalidation:
    def test_sibling_caches_retained_identically(self):
        s = PedSession(SRC)
        s.analyze_all()
        unit = s.current_unit_name
        loops = s.loops()
        assert len(loops) == 3
        target = loops[0]
        target_key = (unit, target.loop.uid)
        sibling_keys = [(unit, li.loop.uid) for li in loops[1:]]
        before = {k: s._deps_cache[k] for k in sibling_keys}
        before_target = s._deps_cache[target_key]

        result = s.apply("parallelize", loop=target)
        assert result.applied
        assert result.dirty is not None and not result.dirty.whole_unit

        # the transformed loop's analysis was evicted ...
        assert target_key not in s._deps_cache
        # ... while the siblings kept the *same* cached objects
        for k in sibling_keys:
            assert s._deps_cache[k] is before[k]

        s.analyze_all()
        assert s._deps_cache[target_key] is not before_target

    def test_scoped_eviction_covers_the_nest(self):
        s = PedSession(SRC)
        loops = s.loops()
        result = s.apply("parallelize", loop=loops[0])
        uids = result.dirty.loop_uids
        assert loops[0].loop.uid in uids
        assert all(li.loop.uid not in uids for li in loops[1:])

    def test_generation_advances_only_for_dirty_unit(self):
        s = PedSession(PROGRAMS["arc3d"].source)
        unit = s.current_unit_name
        g0 = dict(s.program.generations())
        target = next(li for li in s.loops()
                      if s.advice("parallelize", loop=li).ok)
        s.apply("parallelize", loop=target)
        gens = s.program.generations()
        assert gens[unit] > g0[unit]
        assert all(gens[u] == g0[u] for u in gens if u != unit)

    def test_full_invalidation_on_edit(self):
        s = PedSession(SRC)
        s.analyze_all()
        assert s._deps_cache
        assert s.edit(SRC.replace("1.0", "2.0")) == []
        assert not s._deps_cache

    def test_counters_record_scope(self):
        counters.reset()
        s = PedSession(SRC)
        s.analyze_all()
        s.apply("parallelize", loop=s.loops()[0])
        snap = counters.snapshot()
        assert snap["scoped_invalidations"] == 1
        assert snap["deps_evicted"] >= 1
        assert snap["deps_retained"] >= 2


def _marks_cycle(s: PedSession, unit: str, loop: str, forbid=None) -> list:
    """Select a loop, then (with ``forbid`` patching whatever must not
    run) parallelize it, re-select, check health, lint, undo and take a
    snapshot; every observable result, in order."""
    from repro.serve.state import rehydrate, serialize
    s.select_unit(unit)
    s.select_loop(loop)
    if forbid is not None:
        forbid()
    res = s.apply("parallelize", loop=loop)
    out = [(res.applied, s.source())]
    s.select_loop(loop)
    out.append(s.dependence_pane.render())
    h = s.health()
    out.append((h.degraded_loops, h.failed_units, h.transform_failures,
                h.lint))
    out.append(s.lint())
    out.append((s.undo(), s.source()))
    out.append(rehydrate(serialize(s)).render())
    return out


class TestSummaryReuse:
    """Loop marks are outside every summary key, and lint shares the
    session's summaries through the store: after the first selection
    nothing re-summarizes a unit."""

    @pytest.mark.parametrize("name,unit,loop", [
        ("nxsns", "RELAX", "L2"), ("dpmin", "BONDS", "L1")])
    def test_marks_and_lint_never_resummarize(self, name, unit, loop,
                                              monkeypatch):
        from repro.interproc.summary import SummaryBuilder
        from repro.store import ArtifactStore, scoped_store

        def forbidden(self, unit_name):
            raise AssertionError(f"re-summarized {unit_name}")

        def forbid():
            monkeypatch.setattr(SummaryBuilder, "_summarize", forbidden)

        src = PROGRAMS[name].source
        with scoped_store(ArtifactStore(from_env=False)):
            expected = _marks_cycle(PedSession(src), unit, loop)
        with scoped_store(ArtifactStore(from_env=False)):
            got = _marks_cycle(PedSession(src), unit, loop, forbid)
        assert expected[0][0]                       # parallelize applied
        assert got == expected


class TestPairMemo:
    def test_second_analysis_pass_hits(self):
        dep_tests.clear_pair_cache()
        counters.reset()
        s1 = PedSession(SRC)
        s1.analyze_all()
        first = counters.snapshot()
        s2 = PedSession(SRC)
        s2.analyze_all()
        snap = counters.snapshot()
        hits = snap["pair_hits"] - first["pair_hits"]
        misses = snap["pair_misses"] - first["pair_misses"]
        assert hits > 0
        assert misses == 0

    def test_memo_results_equal_uncached(self):
        dep_tests.clear_pair_cache()
        a = PedSession(SRC)
        a.analyze_all()
        dump_memo = _pane_dump(a)
        dep_tests.clear_pair_cache()
        b = PedSession(SRC)
        b.analyze_all()
        assert _pane_dump(b) == dump_memo

    def test_lru_bound_is_enforced(self):
        old = dep_tests.pair_cache_info()["limit"]
        dep_tests.clear_pair_cache()
        dep_tests.set_pair_cache_limit(2)
        try:
            s = PedSession(SRC)
            s.analyze_all()
            info = dep_tests.pair_cache_info()
            assert info["size"] <= 2
        finally:
            dep_tests.set_pair_cache_limit(old)


def _pane_dump(s: PedSession) -> str:
    """Dependence panes of every loop of every unit, as one string."""
    out = []
    for unit in s.units():
        s.select_unit(unit)
        for li in s.loops():
            s.select_loop(li)
            out.append(f"== {unit} {li.id} (line {li.line})")
            out.append(s.dependence_pane.render())
    return "\n".join(out)


class TestParallelDeterminism:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_program_resolution_identical(self, name):
        src = PROGRAMS[name].source
        ser = AnalyzedProgram.from_source(src, parallel=False)
        par = AnalyzedProgram.from_source(src, parallel=True)
        assert ser.unit_names() == par.unit_names()
        assert ser.source() == par.source()

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_dependence_panes_byte_identical(self, name):
        src = PROGRAMS[name].source
        ser = PedSession(src)
        ser.analyze_all(parallel=False)
        par = PedSession(src)
        par.analyze_all(parallel=True)
        assert _pane_dump(ser) == _pane_dump(par)
