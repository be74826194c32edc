"""PedSession: the ParaScope Editor as a programmatic session.

The session reproduces the editor's information model (Section 3.1):

* the **book metaphor** -- one window per program with source, dependence
  and variable panes annotating each other;
* **progressive disclosure** -- selecting a loop populates the dependence
  and variable panes with that loop's information;
* **view filtering** -- predicate filters per pane;
* **power steering** -- batch marking/classification dialogs
  (:meth:`mark_dependences_where`, :meth:`classify_variables_where`) and
  transformation application with applicability/safety/profitability
  advice;
* **dependence marking** -- proven/pending from the analyzer,
  accepted/rejected edits persisted across re-analysis;
* **variable classification** -- shared/private edits recorded on the
  loop and honoured by the analyzer;
* **user assertions** (Section 3.3) feeding the dependence tests, with
  breaking-condition suggestions;
* **performance navigation** -- static estimation and interpreter
  profiles ranking loops by payoff.

Every feature logs an event tagged with the Table-2 feature name it
corresponds to, which is how the Table 2 benchmark counts feature usage.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

from ..analysis.arraykills import array_kills
from ..assertions import AssertionSet, derive_breaking_conditions
from ..dependence.ddg import DependenceAnalyzer, LoopDependences, \
    degraded_loop_dependences
from ..dependence.model import Dependence, Mark
from ..dependence.tests import pair_cache_info
from ..fortran import ParseError, ast, parse_program
from ..interp import Interpreter, compile_cache_info, make_interpreter
from ..interp.compile import program_fingerprint
from ..interproc import InterproceduralOracle, SummaryBuilder, check_program
from ..ir.loops import LoopInfo
from ..ir.program import AnalyzedProgram
from ..perf import counters as perf_counters
from ..perf import estimate_program, navigation_report
from ..store import MISS, declare as _declare_ns, get_store
from ..transform import TContext, get as get_transform, names as \
    transform_names
from ..transform.base import Advice, DirtyScope, TransformError, \
    TransformResult
from ..transform.transaction import ProgramSnapshot
from .filters import DependenceFilter, SourceFilter, VariableFilter
from .panes import DependencePane, LintPane, SourcePane, VariablePane

#: full per-loop dependence analyses as pickle bytes.  Keys are
#: uid-free (program fingerprint + loop ordinal + analysis inputs);
#: the artifact records the nest's statement uids at store time so
#: adoption can remap every pickled ``Reference.stmt_uid`` onto the
#: adopting session's live AST positionally -- see
#: :meth:`PedSession._adopt_loopdeps`.
_LOOPDEPS_NS = "loopdeps"
_declare_ns(_LOOPDEPS_NS, mem_entries=512, disk=True)


@dataclass(frozen=True)
class _DepSig:
    var: str
    dtype: str
    source_uid: int
    sink_uid: int
    source_text: str
    sink_text: str
    vector: tuple[str, ...]

    @staticmethod
    def of(d: Dependence) -> "_DepSig":
        return _DepSig(d.var, str(d.dtype), d.source.stmt_uid,
                       d.sink.stmt_uid, d.source.text, d.sink.text,
                       d.vector)


@dataclass(frozen=True)
class _LooseSig:
    """uid-free mark signature.

    ``_DepSig`` pins a mark to statement uids, which a re-parse
    regenerates; this looser (variable, type, endpoint text, vector)
    key lets accepted/rejected marks survive an :meth:`PedSession.edit`.
    """

    var: str
    dtype: str
    source_text: str
    sink_text: str
    vector: tuple[str, ...]

    @staticmethod
    def of(d: Dependence) -> "_LooseSig":
        return _LooseSig(d.var, str(d.dtype), d.source.text, d.sink.text,
                         d.vector)


@dataclass
class Event:
    feature: str
    detail: str


@dataclass
class JournalEntry:
    """One applied transformation on the undo/redo journal."""

    name: str
    description: str
    pre: ProgramSnapshot
    post: ProgramSnapshot
    dirty: DirtyScope | None


@dataclass
class HealthReport:
    """What has gone wrong (and been survived) in this session."""

    #: loops whose cached analysis ran degraded (conservative fallbacks)
    degraded_loops: list[dict]
    #: unit/loop analysis failures recorded by :meth:`analyze_all`
    failed_units: list[dict]
    transform_failures: list[dict]
    guidance_failures: list[dict]
    edit_failures: list[dict]
    undo_depth: int = 0
    redo_depth: int = 0
    #: dependence pair-test memo occupancy + hit/miss counters
    pair_cache: dict = field(default_factory=dict)
    #: execution-engine compile cache occupancy + hit/relink/miss counters
    compile_cache: dict = field(default_factory=dict)
    #: fork-join DOALL runtime activity (loops run, chunks, fallbacks,
    #: persistent pool reuses) from the engine counters
    parallel_runtime: dict = field(default_factory=dict)
    #: static lint summary (diagnostics, suppressed, by_severity,
    #: by_rule) from the session's incremental linter
    lint: dict = field(default_factory=dict)
    #: vector execution tier: engine counters (vec_loops, vec_fallbacks,
    #: vec_elements) plus the per-loop lowering decision -- why each loop
    #: did or did not lower to bulk numpy execution
    exec: dict = field(default_factory=dict)
    #: parallel-worlds explorer activity (worlds proposed, raced,
    #: accepted/rejected by the byte-identity gate, adopted winners)
    worlds: dict = field(default_factory=dict)
    #: tiered cross-session artifact store: per-namespace, per-tier
    #: hit/miss/evict/promote counters (memory + disk)
    artifact_store: dict = field(default_factory=dict)

    def __getitem__(self, key: str):
        """Dict-style access: ``session.health()["lint"]``."""
        try:
            return getattr(self, key)
        except AttributeError:
            raise KeyError(key) from None

    @property
    def ok(self) -> bool:
        return not (self.degraded_loops or self.failed_units
                    or self.transform_failures or self.guidance_failures
                    or self.edit_failures)

    def describe(self) -> str:
        if self.ok:
            return (f"session healthy (journal: {self.undo_depth} undo, "
                    f"{self.redo_depth} redo)")
        lines = ["session degraded:"]
        for d in self.degraded_loops:
            lines.append(f"  loop {d['unit']}/{d['loop']}: "
                         + "; ".join(d["notes"]))
        for d in self.failed_units:
            lines.append(f"  unit {d['unit']}/{d['loop']}: {d['reason']}")
        for d in self.transform_failures:
            lines.append(f"  transform {d['transform']}: {d['error']}")
        for d in self.guidance_failures:
            lines.append(f"  guidance {d['transform']}: {d['error']}")
        for d in self.edit_failures:
            lines.append(f"  edit: {d['error']}")
        lines.append(f"  journal: {self.undo_depth} undo, "
                     f"{self.redo_depth} redo")
        return "\n".join(lines)


class PedSession:
    """An interactive editing/parallelization session over one program."""

    def __init__(self, source: "str | AnalyzedProgram",
                 interprocedural: bool = True,
                 include_input_deps: bool = False,
                 journal_limit: int = 32):
        # Accepts either program text or an already-analyzed program;
        # the latter is how fork() hands a materialized snapshot to a
        # child session without a re-parse.
        if isinstance(source, AnalyzedProgram):
            self.program = source
        else:
            self.program = AnalyzedProgram.from_source(source)
        self.interprocedural = interprocedural
        self.include_input_deps = include_input_deps
        self.assertions = AssertionSet()
        self.events: list[Event] = []
        self._marks: dict[_DepSig, tuple[Mark, str]] = {}
        self._loose_marks: dict[_LooseSig, tuple[Mark, str]] = {}
        self._var_reasons: dict[tuple[str, int, str], str] = {}
        self._summaries = None
        self._analyzers: dict[str, DependenceAnalyzer] = {}
        self._deps_cache: dict[tuple[str, int], LoopDependences] = {}
        #: structured failure records surfaced through :meth:`health`
        self.diagnostics: list[dict] = []
        #: (unit, loop id) -> reason for analyses that fell back
        self._degraded: dict[tuple[str, str], str] = {}
        #: bounded undo/redo journal of applied transformations
        self.journal_limit = journal_limit
        self._undo: list[JournalEntry] = []
        self._redo: list[JournalEntry] = []
        names = self.program.unit_names()
        main = self.program.main_unit
        self.current_unit_name = main.unit.name if main else names[0]
        self.current_loop: LoopInfo | None = None
        self.source_pane = SourcePane(self.unit)
        self.dependence_pane = DependencePane()
        self.variable_pane = VariablePane()
        self.lint_pane = LintPane()
        self._linter = None   # lazy SessionLinter

    # -- snapshots (repro.serve.state) ------------------------------------------

    def __getstate__(self) -> dict:
        """Every attribute except the derived caches, which rebuild
        lazily from the artifact store.  The current loop travels by
        uid -- its ``LoopInfo`` belongs to the unit's loop tree, which
        is derived -- together with its analysis, whose dependences the
        dependence pane shows and selects by id."""
        state = {**self.__dict__, "_summaries": None, "_analyzers": {},
                 "_deps_cache": {}, "_linter": None, "current_loop": None}
        li = self.current_loop
        if li is not None:
            state["_current"] = (
                li.uid, self._deps_cache.get((self.current_unit_name, li.uid)))
        return state

    def __setstate__(self, state: dict) -> None:
        current = state.pop("_current", None)
        self.__dict__.update(state)
        if current is None:
            return
        uid, ld = current
        self.current_loop = self.unit.loops.by_uid.get(uid)
        if self.current_loop is not None and ld is not None:
            ld.loop = self.current_loop
            self._deps_cache[(self.current_unit_name, uid)] = ld

    # -- plumbing ---------------------------------------------------------------

    def _log(self, feature: str, detail: str = "") -> None:
        self.events.append(Event(feature, detail))

    @property
    def unit(self):
        return self.program.units[self.current_unit_name]

    def _oracle(self):
        if not self.interprocedural:
            from ..analysis.defuse import SideEffectOracle
            return SideEffectOracle()
        if self._summaries is None:
            # per-unit store hits: only units whose structure (or a
            # callee's) changed are summarized again
            self._summaries = SummaryBuilder(self.program).build()
        return InterproceduralOracle(self._summaries)

    def analyzer(self, unit_name: str | None = None) -> DependenceAnalyzer:
        name = (unit_name or self.current_unit_name).upper()
        if name not in self._analyzers:
            from ..interproc.symbolic import global_relations
            env = dict(global_relations(self.program)) \
                if self.interprocedural else {}
            env.update(self.assertions.relations_env())
            self._analyzers[name] = DependenceAnalyzer(
                self.program.units[name],
                oracle=self._oracle(),
                facts=self.assertions.to_facts(),
                include_input=self.include_input_deps,
                extra_env=env)
        return self._analyzers[name]

    def _invalidate(self, scope: DirtyScope | None = None) -> None:
        """Drop derived analyses after an AST mutation.

        Without a scope (the conservative path: editing, new program
        units) everything derived is discarded.  With a
        :class:`DirtyScope` the eviction is surgical: only the dirty
        unit's artifacts, the cached loop dependences whose loop chain
        intersects the dirty loop set, and -- transitively up the call
        graph -- the analyzers of units whose interprocedural view of
        the dirty unit may have changed.  Summaries are re-keyed up the
        call graph through the store on the next :meth:`_oracle`.
        """
        if scope is None:
            perf_counters.bump("invalidations")
            perf_counters.bump("deps_evicted", len(self._deps_cache))
            self.program.invalidate()
            self._summaries = None
            self._analyzers.clear()
            self._deps_cache.clear()
        else:
            self._invalidate_scoped(scope)
        self._rebind_panes()

    def _invalidate_scoped(self, scope: DirtyScope) -> None:
        perf_counters.bump("scoped_invalidations")
        dirty_unit = scope.unit.upper()
        self.program.invalidate(dirty_unit)
        # Units whose interprocedural summaries may observe the change:
        # the dirty unit plus its transitive callers.
        dirty_units = {dirty_unit}
        cg = self.program.callgraph
        frontier = [dirty_unit]
        while frontier:
            name = frontier.pop()
            for caller in cg.callers(name):
                if caller not in dirty_units:
                    dirty_units.add(caller)
                    frontier.append(caller)
        self._summaries = None
        for name in dirty_units:
            if self._analyzers.pop(name, None) is not None:
                perf_counters.bump("analyzers_evicted")
        perf_counters.bump(
            "analyzers_retained", len(self._analyzers))
        evict = []
        for key in self._deps_cache:
            unit_name, loop_uid = key
            if scope.covers(unit_name, loop_uid):
                evict.append(key)
            elif unit_name in dirty_units and unit_name != dirty_unit:
                # a caller's dependences may embed the dirty unit's
                # side-effect summary: conservatively whole-unit
                evict.append(key)
        for key in evict:
            del self._deps_cache[key]
        perf_counters.bump("deps_evicted", len(evict))
        perf_counters.bump("deps_retained", len(self._deps_cache))

    def _rebind_panes(self) -> None:
        self.source_pane = SourcePane(self.unit)
        if self.current_loop is not None:
            # Relocate the current loop by line if it survived.
            line = self.current_loop.line
            self.current_loop = None
            for li in self.unit.loops.all_loops():
                if li.line == line:
                    self.current_loop = li
                    break
            if self.current_loop is not None:
                self.select_loop(self.current_loop, _log=False)
            else:
                self.dependence_pane.set_dependences([])
                self.variable_pane.set_rows([])

    # -- navigation ---------------------------------------------------------------

    def units(self) -> list[str]:
        return self.program.unit_names()

    def select_unit(self, name: str) -> None:
        name = name.upper()
        if name not in self.program.units:
            raise KeyError(name)
        self.current_unit_name = name
        self.current_loop = None
        self.source_pane = SourcePane(self.unit)
        self.dependence_pane.set_dependences([])
        self.variable_pane.set_rows([])
        self._log("program navigation", f"select unit {name}")

    def loops(self, unit: str | None = None) -> list[LoopInfo]:
        uir = self.program.units[(unit or self.current_unit_name).upper()]
        return uir.loops.all_loops()

    def select_loop(self, loop: "LoopInfo | str | ast.DoLoop",
                    _log: bool = True) -> LoopDependences:
        li = self.unit.loops.find(loop)
        self.current_loop = li
        ld = self._loop_deps(li)
        deps = self._with_marks(ld.dependences)
        self.dependence_pane.set_dependences(deps, degraded=ld.degraded)
        self.variable_pane.set_rows(self._variable_rows(li, ld))
        self.source_pane.current_uids = {
            s.uid for s in li.statements()} | {li.loop.uid}
        self.source_pane.arrow_uids = set()
        if _log:
            self._log("program navigation",
                      f"select loop {li.id} line {li.line}")
        return ld

    def _loopdeps_key(self, li: LoopInfo) -> tuple | None:
        """Artifact-store key for one loop's analysis (None: unkeyable).

        Uid-free: the program fingerprint pins structure, the loop's
        source-order ordinal pins which loop, and every analysis input
        that is *not* AST structure appears explicitly -- structural
        fingerprints exclude all loop marks (``interp.compile
        ._FP_SKIP``), and of those the private variables feed the
        analysis while PARALLEL flags do not; assertions change what
        the dependence tests can prove.  Privatization is
        recorded by statement *position* within the nest, matching the
        positional uid remap :meth:`_loop_deps` performs on adoption.
        """
        try:
            nodes = [li.loop, *li.statements()]
            privates = tuple(
                (i, tuple(sorted(n.private_vars)))
                for i, n in enumerate(nodes)
                if isinstance(n, ast.DoLoop) and n.private_vars)
            return (
                program_fingerprint(self.program),
                self.current_unit_name,
                li.ordinal,
                privates,
                tuple(a.text for a in self.assertions.assertions),
                self.include_input_deps,
                self.interprocedural,
            )
        except Exception:
            return None

    def _adopt_loopdeps(self, blob: bytes,
                        li: LoopInfo) -> LoopDependences:
        """Rebind a pickled analysis onto this session's live AST.

        The artifact records the uid of every nest statement at store
        time, in AST order.  The adopting session's nest has identical
        structure (the store key pins the program fingerprint and loop
        ordinal) but its own uids, so each ``Reference.stmt_uid`` is
        remapped positionally; a reference whose uid falls outside the
        recorded nest raises KeyError and the caller re-analyzes.
        """
        from dataclasses import replace as _replace
        from ..dependence.model import fresh_dep_id
        stored_uids, ld = pickle.loads(blob)
        live_uids = tuple(n.uid for n in [li.loop, *li.statements()])
        if len(stored_uids) != len(live_uids):
            raise ValueError("uid inventory length mismatch")
        if stored_uids != live_uids:
            remap = dict(zip(stored_uids, live_uids))
            for d in ld.dependences:
                d.source = _replace(d.source,
                                    stmt_uid=remap[d.source.stmt_uid])
                d.sink = _replace(d.sink,
                                  stmt_uid=remap[d.sink.stmt_uid])
        for d in ld.dependences:
            d.id = fresh_dep_id()   # pane selection ids stay unique
        ld.loop = li                # panes/transforms need the live nest
        return ld

    def _loop_deps(self, li: LoopInfo) -> LoopDependences:
        key = (self.current_unit_name, li.loop.uid)
        if key in self._deps_cache:
            return self._deps_cache[key]
        skey = self._loopdeps_key(li)
        blob = get_store().get(_LOOPDEPS_NS, skey) if skey else MISS
        if blob is not MISS:
            try:
                ld = self._adopt_loopdeps(blob, li)
                self._deps_cache[key] = ld
                return ld
            except Exception:
                pass
        ld = self.analyzer().analyze_loop(li)
        if skey is not None and not ld.degraded:
            # store before session-local marks mutate the dependence
            # objects in place; degraded results (budget/worker notes)
            # stay private -- they are not reproducible facts
            try:
                uids = tuple(
                    n.uid for n in [li.loop, *li.statements()])
                blob = pickle.dumps((uids, ld),
                                    pickle.HIGHEST_PROTOCOL)
                get_store().put(_LOOPDEPS_NS, skey, blob)
            except Exception:
                pass
        self._deps_cache[key] = ld
        return ld

    def analyze_all(self, parallel: bool | None = None
                    ) -> dict[tuple[str, int], LoopDependences]:
        """Analyze every loop of every unit, filling the dependence cache.

        Per-loop dependence construction fans across the analysis pool
        (:mod:`repro.perf.pool`); results merge in deterministic
        (unit, source) order so parallel and serial runs are identical.
        Already-cached loops are skipped -- after a scoped invalidation
        only the dirty loops are re-analyzed.

        Failures are isolated, never fatal: a unit whose shared analyses
        cannot be built, or a loop whose pool worker dies, degrades to a
        conservative "dependence assumed" result recorded in
        :meth:`health` -- the rest of the program still analyzes.
        """
        from ..perf import pool
        jobs: list[tuple[tuple[str, int],
                         DependenceAnalyzer, LoopInfo]] = []
        for name in self.program.unit_names():
            uir = self.program.units[name]
            try:
                an = self.analyzer(name)
                # Materialize the analyzer's shared lazies (def-use
                # chains, constant map) before fanning out: workers then
                # only read.
                an.defuse
                an.constmap
                loops = uir.loops.all_loops()
            except Exception as e:
                reason = (f"unit analysis failed: "
                          f"{type(e).__name__}: {e}")
                self._degraded[(name, "*")] = reason
                self._log("access to analysis", f"{name}: {reason}")
                try:
                    loops = uir.loops.all_loops()
                except Exception:
                    loops = []
                for li in loops:
                    key = (name, li.loop.uid)
                    if key not in self._deps_cache:
                        self._deps_cache[key] = \
                            degraded_loop_dependences(li, reason)
                        perf_counters.bump("degraded_loops")
                continue
            for li in loops:
                key = (name, li.loop.uid)
                if key not in self._deps_cache:
                    jobs.append((key, an, li))
        results = pool.run_tasks(
            [lambda an=an, li=li: an.analyze_loop(li)
             for _, an, li in jobs],
            parallel=parallel,
            contexts=[(key[0], li.id) for key, _, li in jobs],
            on_error="return")
        for (key, _, li), ld in zip(jobs, results):
            if isinstance(ld, pool.TaskFailure):
                reason = (f"worker failed: "
                          f"{type(ld.error).__name__}: {ld.error}")
                self._degraded[(key[0], li.id)] = reason
                self._log("access to analysis",
                          f"{key[0]}/{li.id}: {reason}")
                ld = degraded_loop_dependences(li, reason)
                perf_counters.bump("degraded_loops")
            self._deps_cache[key] = ld
        self._log("access to analysis",
                  f"analyze all: {len(jobs)} loops analyzed, "
                  f"{len(self._deps_cache) - len(jobs)} cached")
        return dict(self._deps_cache)

    def hot_loops(self, top: int = 10):
        """Static performance-estimation ranking (navigation assistance)."""
        self._log("program navigation", "performance estimation ranking")
        est = estimate_program(self.program)
        return est.ranked_loops()[:top]

    def navigation_report(self, top: int = 10) -> str:
        self._log("program navigation", "navigation report")
        return navigation_report(self.program, top)

    def measured_navigation_report(self, inputs=None, workers: int = 4,
                                   schedule: str = "static",
                                   top: int = 10) -> str:
        """Navigation ranking with measured parallel speedups: runs the
        program's PARALLEL DO loops through the DOALL runtime (1 worker
        vs. ``workers``) and reports wall-clock speedup next to the
        static cost-model prediction."""
        from ..perf.estimate import measure_parallel_payoff
        measured = measure_parallel_payoff(
            self.program, inputs=inputs, workers=workers,
            schedule=schedule)
        self._log("program navigation",
                  f"measured parallel payoff ({len(measured)} loops, "
                  f"{workers} workers)")
        return navigation_report(self.program, top, measured=measured)

    def set_parallel_overhead(self, value: float | None) -> None:
        """Calibrate the fork-join overhead the virtual clock charges a
        PARALLEL DO (``None`` restores the environment/default value).
        Affects speedup simulation and guidance for this process."""
        from ..interp import set_parallel_overhead
        set_parallel_overhead(value)
        self._log("program navigation",
                  f"parallel overhead {'reset' if value is None else value}")

    def profile(self, inputs=None, max_steps: int = 5_000_000,
                engine: str | None = None):
        """Dynamic loop-level profile from the interpreter (the
        closure-compiled engine by default; ``engine="tree"`` selects the
        reference tree-walker)."""
        interp = make_interpreter(
            self.program, inputs=inputs, max_steps=max_steps,
            assertion_checker=self.assertions.checker(), engine=engine)
        interp.run()
        self._log("program navigation", "dynamic profile")
        return interp.profile

    def call_graph_text(self) -> str:
        cg = self.program.callgraph
        lines = []
        for name in self.program.unit_names():
            callees = sorted(cg.callees(name))
            lines.append(f"{name} -> {', '.join(callees) if callees else '-'}")
        self._log("program navigation", "call graph view")
        return "\n".join(lines)

    def find_references(self, var: str) -> list[tuple[int, str]]:
        """(line, text) of statements referencing a variable (dependence
        navigation: visiting endpoints without scrolling)."""
        var = var.upper()
        out = []
        for s, _ in ast.walk_stmts(self.unit.unit.body):
            names = set()
            for e in s.exprs():
                names |= ast.variables_in(e)
            if isinstance(s, ast.Assign):
                names |= ast.variables_in(s.target)
            if var in names:
                from ..fortran.printer import print_stmt
                out.append((s.line, print_stmt(s, 0)[0].strip()))
        self._log("dependence navigation", f"find references to {var}")
        return out

    # -- analysis access --------------------------------------------------------

    def dependences(self, loop=None,
                    filter: DependenceFilter | None = None
                    ) -> list[Dependence]:
        li = self.unit.loops.find(loop) if loop is not None \
            else self.current_loop
        if li is None:
            raise ValueError("select a loop first")
        deps = self._with_marks(self._loop_deps(li).dependences)
        if filter is not None:
            deps = [d for d in deps if filter.matches(d)]
        self._log("dependence navigation", f"list dependences of {li.id}")
        return deps

    def select_dependence(self, dep: Dependence) -> None:
        self.dependence_pane.select(dep)
        self.source_pane.arrow_uids |= {dep.source.stmt_uid,
                                        dep.sink.stmt_uid}
        self._log("dependence navigation",
                  f"select dependence {dep.describe()}")

    def sections_summary(self, loop=None) -> str:
        """Array sections read/written by the current loop (the display
        three workshop users asked for)."""
        li = self.unit.loops.find(loop) if loop is not None \
            else self.current_loop
        if li is None:
            raise ValueError("select a loop first")
        self._log("access to analysis", f"array sections of {li.id}")
        # Every symbol is made a formal of the shell unit so the summary
        # machinery reports sections for all of them (its usual job is to
        # report only caller-visible effects).
        all_names = tuple(sorted(self.unit.symtab.symbols))
        shell = ast.ProgramUnit(kind="subroutine", name="SECTIONS",
                                params=all_names, body=[li.loop])
        prog = ast.Program(units=[shell])
        # reuse the summary machinery on a synthetic unit
        from ..interproc.summary import SummaryBuilder as SB
        wrapped = AnalyzedProgram.__new__(AnalyzedProgram)
        wrapped.ast = prog
        from ..ir.program import UnitIR
        wrapped.units = {"SECTIONS": UnitIR(unit=shell,
                                            symtab=self.unit.symtab)}
        wrapped._callgraph = None
        summ = SB(wrapped).build()["SECTIONS"]
        lines = []
        for kind, secs in (("reads", summ.ref_sections),
                           ("writes", summ.mod_sections)):
            for name in sorted(secs):
                lines.append(f"{kind:<7} {secs[name].describe()}")
        return "\n".join(lines) or "(no array accesses)"

    def symbolic_info(self, loop=None) -> dict:
        """Constants, symbolic relations, privatizable variables and
        reduction candidates at a loop (access-to-analysis view)."""
        li = self.unit.loops.find(loop) if loop is not None \
            else self.current_loop
        if li is None:
            raise ValueError("select a loop first")
        an = self.analyzer()
        env = an._env_at(li)
        ld = self._loop_deps(li)
        self._log("access to analysis", f"symbolic info of {li.id}")
        return {
            "environment": {k: str(v) for k, v in env.items()},
            "privatizable": sorted(ld.privatizable),
            "reductions": sorted(ld.reductions),
        }

    def array_kill_candidates(self, loop=None):
        li = self.unit.loops.find(loop) if loop is not None \
            else self.current_loop
        an = self.analyzer()
        env = an._env_at(li)
        facts = an._facts_with_ranges(env)
        cb = an.oracle.call_sections_for(self.unit.symtab) \
            if hasattr(an.oracle, "call_sections_for") else None
        self._log("access to analysis", f"array kill analysis of {li.id}")
        return array_kills(li.loop, self.unit.symtab, an.oracle, env,
                           call_sections=cb, facts=facts)

    # -- marks and classification ---------------------------------------------------

    def _with_marks(self, deps: list[Dependence]) -> list[Dependence]:
        for d in deps:
            sig = _DepSig.of(d)
            if sig in self._marks:
                d.mark, d.reason = self._marks[sig]
                continue
            # uid-free fallback: a re-parse regenerates statement uids,
            # but the loose (var, type, text, vector) signature survives
            loose = self._loose_marks.get(_LooseSig.of(d))
            if loose is not None:
                mark, reason = loose
                if mark is Mark.REJECTED and d.mark is Mark.PROVEN:
                    continue  # the analyzer now proves it: keep proven
                d.mark, d.reason = mark, reason
                self._marks[sig] = (mark, reason)
        return deps

    def mark_dependence(self, dep: Dependence, mark: "Mark | str",
                        reason: str = "") -> None:
        if isinstance(mark, str):
            mark = Mark(mark.lower())
        if dep.mark is Mark.PROVEN and mark is Mark.REJECTED:
            # The paper's discipline: only pending deps are user-editable.
            raise ValueError("cannot reject a proven dependence")
        dep.mark = mark
        dep.reason = reason or dep.reason
        self._marks[_DepSig.of(dep)] = (mark, dep.reason)
        self._loose_marks[_LooseSig.of(dep)] = (mark, dep.reason)
        feature = ("dependence deletion" if mark is Mark.REJECTED
                   else "dependence marking")
        self._log(feature, f"{mark} {dep.var} {dep.describe()}")

    def mark_dependences_where(self, filter: DependenceFilter,
                               mark: "Mark | str", reason: str = "") -> int:
        """The Mark Dependences dialog: classify a whole predicate-matched
        set in one step (power steering)."""
        if self.current_loop is None:
            raise ValueError("select a loop first")
        if isinstance(mark, str):
            mark = Mark(mark.lower())
        n = 0
        for d in self.dependence_pane.dependences:
            if d.mark is Mark.PROVEN:
                continue
            if filter.matches(d):
                self.mark_dependence(d, mark, reason)
                n += 1
        return n

    def classify_variable(self, name: str, kind: str, loop=None,
                          reason: str = "") -> None:
        """Edit a variable's shared/private classification.

        An edit that actually changes the classification is journaled
        like a transformation: :meth:`undo` restores the previous
        PRIVATE set (worlds adoption relies on this to be fully
        revertible)."""
        li = self.unit.loops.find(loop) if loop is not None \
            else self.current_loop
        if li is None:
            raise ValueError("select a loop first")
        name = name.upper()
        if kind not in ("private", "shared"):
            raise ValueError("kind must be 'private' or 'shared'")
        changes = (name not in li.loop.private_vars) \
            if kind == "private" else (name in li.loop.private_vars)
        pre = ProgramSnapshot.capture(self.program, [self.unit]) \
            if changes else None
        if kind == "private":
            li.loop.private_vars.add(name)
        else:
            li.loop.private_vars.discard(name)
        self._var_reasons[(self.current_unit_name, li.loop.uid,
                           name)] = reason
        self._log("variable classification", f"{name} -> {kind}")
        self._deps_cache.pop((self.current_unit_name, li.loop.uid), None)
        if changes:
            post = ProgramSnapshot.capture(self.program, [self.unit])
            self._undo.append(JournalEntry(
                name="classify_variable",
                description=f"{name} -> {kind} on {li.id}",
                pre=pre, post=post, dirty=None))
            del self._undo[:-self.journal_limit]
            self._redo.clear()
        if self.current_loop is li:
            self.select_loop(li, _log=False)

    def classify_variables_where(self, filter: VariableFilter, kind: str,
                                 reason: str = "") -> int:
        """The Classify Variables dialog (power steering)."""
        n = 0
        for row in list(self.variable_pane.rows()):
            if filter.matches(row):
                self.classify_variable(row["name"], kind, reason=reason)
                n += 1
        return n

    def _variable_rows(self, li: LoopInfo, ld: LoopDependences
                       ) -> list[dict]:
        st = self.unit.symtab
        an = self.analyzer()
        # the analyzer's def-use has exactly these inputs (CFG, symbol
        # table, oracle) and ignores privatization, so its memo serves
        # every selection and classification until invalidation
        du = an.defuse
        loop_uids = {s.uid for s in li.statements()} | {li.loop.uid}
        names: set[str] = set()
        from ..analysis.defuse import accesses
        # the loop header's bound/step variables belong in the pane too
        for s in [li.loop] + li.statements():
            for a in accesses(s, st, an.oracle):
                names.add(a.name)
        rows = []
        for name in sorted(names):
            sym = st.get(name)
            if sym is None or name == li.loop.var:
                continue
            defs_outside = sorted({
                self.unit.cfg.stmts[u].line
                for u in self.unit.cfg.stmts
                if u not in loop_uids and name in du.defs.get(u, ())})
            uses_outside = sorted({
                self.unit.cfg.stmts[u].line
                for u in self.unit.cfg.stmts
                if u not in loop_uids and name in du.uses.get(u, ())})
            if name in li.loop.private_vars:
                kind = "private"
            elif name in ld.privatizable:
                kind = "private"
            else:
                kind = "shared"
            rows.append({
                "name": name, "dim": len(sym.dims),
                "block": sym.common_block,
                "defs": defs_outside, "uses": uses_outside,
                "kind": kind,
                "reason": self._var_reasons.get(
                    (self.current_unit_name, li.loop.uid, name), ""),
            })
        return rows

    # -- view filtering -----------------------------------------------------------

    def set_source_filter(self, f: SourceFilter | None) -> None:
        self.source_pane.filter = f
        self._log("view filtering",
                  f"source: {f.description if f else 'cleared'}")

    def set_dependence_filter(self, f: DependenceFilter | None) -> None:
        self.dependence_pane.filter = f
        self._log("view filtering",
                  f"dependence: {f.description if f else 'cleared'}")

    def set_variable_filter(self, f: VariableFilter | None) -> None:
        self.variable_pane.filter = f
        self._log("view filtering",
                  f"variable: {f.description if f else 'cleared'}")

    # -- assertions ----------------------------------------------------------------

    def assert_fact(self, text: str):
        """Add a user assertion; dependence analysis is re-run under it."""
        a = self.assertions.add(text)
        self._analyzers.clear()
        self._deps_cache.clear()
        self._log("user assertion", text)
        if self.current_loop is not None:
            self.select_loop(self.current_loop, _log=False)
        return a

    def breaking_conditions(self, dep: Dependence, loop=None):
        """Suggest assertions that would eliminate a dependence."""
        li = self.unit.loops.find(loop) if loop is not None \
            else self.current_loop
        if li is None:
            raise ValueError("select a loop first")
        self._log("access to analysis",
                  f"breaking conditions for {dep.describe()}")
        return derive_breaking_conditions(self.analyzer(), li, dep)

    # -- transformations -------------------------------------------------------------

    def transformations(self) -> list[str]:
        return transform_names()

    def advice(self, name: str, loop=None, **params):
        t = get_transform(name)
        li = None
        if loop is not None:
            li = self.unit.loops.find(loop)
        elif t.needs_loop:
            li = self.current_loop
        params.setdefault("program", self.program)
        ctx = TContext(uir=self.unit, analyzer=self.analyzer(), loop=li,
                       params=params,
                       _deps=self._loop_deps(li) if li else None)
        return t.check(ctx)

    def apply(self, name: str, loop=None, **params):
        """Apply a transformation under power steering.

        A transformation that crashes mid-rewrite is rolled back by the
        transaction layer (:mod:`repro.transform.transaction`): the
        source re-renders byte-identically, every cached analysis stays
        valid, and the failure is recorded in :attr:`diagnostics` /
        :meth:`health` instead of raising.  Successful applies are
        journaled for :meth:`undo`/:meth:`redo`.
        """
        t = get_transform(name)
        li = None
        if loop is not None:
            li = self.unit.loops.find(loop)
        elif t.needs_loop:
            li = self.current_loop
        params.setdefault("program", self.program)
        ctx = TContext(uir=self.unit, analyzer=self.analyzer(), loop=li,
                       params=params,
                       _deps=self._loop_deps(li) if li else None)
        wide = t.category == "Interprocedural"
        pre = ProgramSnapshot.capture_program(self.program) if wide \
            else ProgramSnapshot.capture(self.program, [self.unit])
        try:
            result = t.apply(ctx)
        except TransformError as e:
            self.diagnostics.append({
                "kind": "transform", "transform": name, "error": str(e),
                "rolled_back": getattr(e, "rolled_back", False)})
            self._log("transformation", f"{name}: failed ({e})")
            # the transaction restored a uid-identical AST, so cached
            # analyses are still valid: re-render the panes, keep caches
            self._rebind_panes()
            return TransformResult(advice=Advice.no(str(e)),
                                   applied=False, error=str(e))
        self._log("transformation",
                  f"{name}: {'applied' if result.applied else 'refused'} "
                  f"({result.advice.explain()})")
        if result.applied:
            if result.new_units:
                for nu in result.new_units:
                    self.program.ast.units.append(nu)
                self.program.__init__(self.program.ast)  # re-resolve
                self._invalidate()
            else:
                self._invalidate(result.dirty)
            post = ProgramSnapshot.capture_program(self.program) \
                if (wide or result.new_units) \
                else ProgramSnapshot.capture(self.program, [self.unit])
            self._undo.append(JournalEntry(
                name=name, description=result.description or name,
                pre=pre, post=post, dirty=result.dirty))
            del self._undo[:-self.journal_limit]
            self._redo.clear()
        return result

    # -- undo/redo journal ------------------------------------------------------

    def undo(self) -> bool:
        """Revert the most recent applied transformation.

        Restores the pre-apply snapshot (uids intact) and re-invalidates
        exactly the transformation's dirty scope.  Returns False when
        the journal is empty.
        """
        if not self._undo:
            return False
        entry = self._undo.pop()
        changed = entry.pre.restore(self.program)
        self._redo.append(entry)
        if changed or entry.dirty is None:
            self._invalidate()
        else:
            self._invalidate(entry.dirty)
            self._prune_stale_deps()
        self._log("transformation", f"undo {entry.name}")
        return True

    def redo(self) -> bool:
        """Re-apply the most recently undone transformation."""
        if not self._redo:
            return False
        entry = self._redo.pop()
        changed = entry.post.restore(self.program)
        self._undo.append(entry)
        if changed or entry.dirty is None:
            self._invalidate()
        else:
            self._invalidate(entry.dirty)
            self._prune_stale_deps()
        self._log("transformation", f"redo {entry.name}")
        return True

    def _prune_stale_deps(self) -> None:
        """Drop cached dependences for loops that no longer exist.

        A transformation may create loops (strip mining, distribution)
        whose fresh uids are outside the pre-capture dirty scope; after
        a snapshot restore those cache entries refer to loops absent
        from the restored tree and must go.
        """
        live: dict[str, frozenset[int]] = {}
        stale = []
        for unit_name, loop_uid in self._deps_cache:
            if unit_name not in live:
                uir = self.program.units.get(unit_name)
                live[unit_name] = frozenset(
                    li.uid for li in uir.loops.all_loops()) \
                    if uir is not None else frozenset()
            if loop_uid not in live[unit_name]:
                stale.append((unit_name, loop_uid))
        for key in stale:
            del self._deps_cache[key]

    # -- forking (the parallel-worlds primitive) --------------------------------

    def fork(self) -> "PedSession":
        """Clone this session into an independent child.

        The public fork API over the undo journal's snapshot machinery:
        a :class:`ProgramSnapshot` of every unit is captured and
        :meth:`ProgramSnapshot.materialize`\\ d into a brand-new
        :class:`AnalyzedProgram` -- fresh AST objects and symbol tables,
        but with every statement uid (and therefore every structural
        fingerprint) preserved, so the child's first execution relinks
        cached compiled units instead of recompiling them.

        The child inherits analysis-relevant state -- assertions,
        dependence marks, variable-classification reasons, the
        interprocedural/input-deps switches -- but starts with an empty
        undo journal, event log and diagnostics: it is a new world, not
        a view.  Mutating the child can never affect the parent (and
        vice versa); ``tests/test_worlds.py`` pins this byte-identity.
        """
        snap = ProgramSnapshot.capture_program(self.program)
        child = PedSession(snap.materialize(),
                           interprocedural=self.interprocedural,
                           include_input_deps=self.include_input_deps,
                           journal_limit=self.journal_limit)
        child.assertions = AssertionSet(self.assertions.assertions)
        child._marks = dict(self._marks)
        child._loose_marks = dict(self._loose_marks)
        child._var_reasons = dict(self._var_reasons)
        perf_counters.bump("worlds_forked")
        self._log("transformation", "fork session")
        return child

    def history(self) -> list[dict]:
        """The journal: applied entries oldest-first, then undone ones."""
        done = [{"name": e.name, "description": e.description,
                 "state": "applied"} for e in self._undo]
        undone = [{"name": e.name, "description": e.description,
                   "state": "undone"} for e in reversed(self._redo)]
        return done + undone

    # -- session health ---------------------------------------------------------

    def _lint_linter(self):
        if self._linter is None:
            from ..lint.driver import SessionLinter
            self._linter = SessionLinter(self)
        return self._linter

    def lint(self):
        """Run the static lint over the whole program (incrementally:
        only units whose lint key changed since the last call are
        re-analyzed), refresh the lint pane, and return the
        deterministic diagnostic list."""
        diags = self._lint_linter().refresh()
        self.lint_pane.set_diagnostics(diags)
        self._log("lint",
                  f"{len([d for d in diags if not d.suppressed])} "
                  f"finding(s)")
        return diags

    def _loop_display_id(self, unit_name: str, uid: int):
        """Stable display id ("L1") for a loop uid, or the uid itself
        when the loop tree no longer knows it."""
        try:
            li = self.program.units[unit_name].loops.by_uid.get(uid)
            return li.id if li is not None else uid
        except Exception:
            return uid

    def health(self) -> HealthReport:
        """Everything that has degraded or failed (and been survived)."""
        degraded = []
        for (unit, _uid), ld in sorted(self._deps_cache.items()):
            if ld.degraded:
                degraded.append({"unit": unit, "loop": ld.loop.id,
                                 "notes": list(ld.degraded)})
        failed_units = [{"unit": u, "loop": lid, "reason": r}
                        for (u, lid), r in sorted(self._degraded.items())]

        def of(kind: str) -> list[dict]:
            return [d for d in self.diagnostics if d.get("kind") == kind]

        cnt = perf_counters.snapshot()
        try:
            lint_summary = self._lint_linter().summary()
        except Exception as e:   # lint must never take down health()
            lint_summary = {"error": f"{type(e).__name__}: {e}"}
        exec_info = {k: cnt[k] for k in ("vec_loops", "vec_fallbacks",
                                         "vec_elements")}
        try:
            from ..interp.vectorize import lowering_decisions
            exec_info["lowering"] = [
                {"unit": uname, "loop": self._loop_display_id(uname, uid),
                 **dec.as_dict()}
                for (uname, uid), dec in
                sorted(lowering_decisions(self.program).items(),
                       key=lambda kv: (kv[0][0], kv[1].line))]
        except Exception as e:   # lowering report must never break health
            exec_info["lowering"] = [
                {"error": f"{type(e).__name__}: {e}"}]
        report = HealthReport(
            degraded_loops=degraded, failed_units=failed_units,
            transform_failures=of("transform"),
            guidance_failures=of("guidance"),
            edit_failures=of("edit"),
            undo_depth=len(self._undo), redo_depth=len(self._redo),
            pair_cache=pair_cache_info(),
            compile_cache=compile_cache_info(),
            parallel_runtime={
                k: cnt[k] for k in ("par_loops", "par_chunks",
                                    "par_fallbacks", "pool_reuses")},
            lint=lint_summary, exec=exec_info,
            worlds={k: cnt[k] for k in (
                "worlds_proposed", "worlds_forked", "worlds_raced",
                "worlds_accepted", "worlds_rejected", "worlds_adopted")},
            artifact_store=get_store().stats())
        self._log("access to analysis",
                  f"health: {'ok' if report.ok else 'degraded'}")
        return report

    def safe_transformations(self, loop=None) -> list[tuple[str, object]]:
        """Transformation guidance (Section 5.3): evaluate every registry
        entry for the loop and return the safe ones."""
        li = self.unit.loops.find(loop) if loop is not None \
            else self.current_loop
        if li is None:
            raise ValueError("select a loop first")
        out = []
        for name in transform_names():
            t = get_transform(name)
            if not t.needs_loop:
                continue
            ctx = TContext(uir=self.unit, analyzer=self.analyzer(),
                           loop=li, params={"program": self.program},
                           _deps=self._loop_deps(li))
            try:
                advice = t.check(ctx)
            except Exception as e:
                # A crashing checker must not silently vanish from the
                # guidance list: record who failed and why.
                msg = f"{type(e).__name__}: {e}"
                self.diagnostics.append({
                    "kind": "guidance", "transform": name,
                    "loop": li.id, "error": msg})
                self._log("transformation guidance",
                          f"{name}: check failed on {li.id} ({msg})")
                continue
            if advice.applicable and advice.safe:
                out.append((name, advice))
        self._log("transformation guidance",
                  f"{li.id}: {[n for n, _ in out]}")
        return out

    # -- editing --------------------------------------------------------------------

    def edit(self, new_source: str) -> list[str]:
        """Replace the program text; returns syntax/semantic problems
        (empty = clean edit).  Analyses are re-derived (the incremental
        re-analysis of the real PED is modelled as scoped invalidation).

        A malformed edit never raises and never disturbs the previous
        program: diagnostics are returned (and recorded for
        :meth:`health`) and the session keeps working on the old text.
        A clean edit carries accepted/rejected dependence marks (via
        their uid-free signatures) and variable classifications (keyed
        by unit and loop id) across the re-parse.
        """
        try:
            prog = parse_program(new_source)
            new_program = AnalyzedProgram(prog)
            if not new_program.unit_names():
                raise ParseError("program has no units")
        except ParseError as e:
            self._log("editing", f"rejected: {e}")
            self.diagnostics.append({"kind": "edit", "error": str(e)})
            return [str(e)]
        except Exception as e:
            msg = f"{type(e).__name__}: {e}"
            self._log("editing", f"rejected: {msg}")
            self.diagnostics.append({"kind": "edit", "error": msg})
            return [msg]
        classifications = self._classification_state()
        self.program = new_program
        self._summaries = None
        self._analyzers.clear()
        self._deps_cache.clear()
        # journal snapshots reference the replaced program's objects:
        # undoing across an edit would silently resurrect dead state
        self._undo.clear()
        self._redo.clear()
        names = self.program.unit_names()
        if self.current_unit_name not in names:
            self.current_unit_name = names[0]
        self.current_loop = None
        self._restore_classifications(classifications)
        self.source_pane = SourcePane(self.unit)
        self.dependence_pane.set_dependences([])
        self.variable_pane.set_rows([])
        self._log("editing", "program replaced")
        return []

    def _classification_state(self) -> tuple[dict, dict]:
        """Collect private-variable sets and reasons keyed positionally
        (unit name, loop id) so they survive the uid churn of a
        re-parse."""
        private: dict[tuple[str, str], set[str]] = {}
        reasons: dict[tuple[str, str, str], str] = {}
        uid_to_id: dict[tuple[str, int], str] = {}
        for name in self.program.unit_names():
            try:
                loops = self.program.units[name].loops.all_loops()
            except Exception:
                continue
            for li in loops:
                uid_to_id[(name, li.loop.uid)] = li.id
                if li.loop.private_vars:
                    private[(name, li.id)] = set(li.loop.private_vars)
        for (unit, loop_uid, var), r in self._var_reasons.items():
            lid = uid_to_id.get((unit, loop_uid))
            if lid is not None:
                reasons[(unit, lid, var)] = r
        return private, reasons

    def _restore_classifications(self, state: tuple[dict, dict]) -> None:
        private, reasons = state
        self._var_reasons = {}
        if not (private or reasons):
            return
        for name in self.program.unit_names():
            try:
                loops = self.program.units[name].loops.all_loops()
            except Exception:
                continue
            for li in loops:
                pv = private.get((name, li.id))
                if pv:
                    li.loop.private_vars |= pv
                for (u, lid, var), r in reasons.items():
                    if u == name and lid == li.id:
                        self._var_reasons[(name, li.loop.uid, var)] = r

    def source(self) -> str:
        return self.program.source()

    # -- composition checks ------------------------------------------------------------

    def check_program(self):
        diags = check_program(self.program)
        if diags:
            self._log("detect interface error",
                      f"{len(diags)} diagnostic(s)")
        else:
            self._log("detect interface error", "clean")
        return diags

    # -- help ----------------------------------------------------------------------------

    HELP = {
        "panes": "The window shows the source pane (top), dependence pane "
                 "and variable pane (footnotes). Select a loop to "
                 "populate the footnotes. session.lint() fills the lint "
                 "pane with the static race detector's findings.",
        "marking": "Dependences are proven/pending; you may accept or "
                   "reject pending ones. Rejected deps are disregarded "
                   "by transformation safety checks but kept for review.",
        "assertions": "ASSERT <relational>, RANGE(v,lo,hi), "
                      "PERMUTATION(a), MONOTONE(a,gap), "
                      "DISJOINT(a,b,gap). Assertions refine dependence "
                      "testing and are checked at run time.",
        "transformations": "apply(name, loop, ...) runs under power "
                           "steering: applicability, safety and "
                           "profitability are checked first.",
    }

    def help(self, topic: str | None = None) -> str:
        self._log("help", topic or "index")
        if topic is None:
            return "topics: " + ", ".join(sorted(self.HELP))
        return self.HELP.get(topic.lower(), f"no help for {topic!r}")

    # -- rendering -----------------------------------------------------------------------

    def render(self, width: int = 78) -> str:
        from .render import render_window
        return render_window(self, width)

    # -- requested extensions (Sections 3.2, 5.3, 6) ----------------------------------------

    def auto_parallelize(self, unit: str | None = None, **kw):
        """Semi-automatic parallelization with an impediment report."""
        from .autopar import auto_parallelize
        report = auto_parallelize(self, unit=unit, **kw)
        self._log("transformation guidance",
                  f"auto-parallelize: {len(report.parallelized)} loops, "
                  f"{len(report.impediments)} impediments")
        return report

    def verify_parallel(self, inputs=None, workers: int = 4,
                        schedule: str = "static", rtol: float = 1e-9,
                        atol: float = 1e-8,
                        max_steps: int = 5_000_000):
        """Check the current parallelization: run the program serially
        and under the adversarial interleaving emulator and return the
        :class:`~repro.interp.verify.RunDiff` of observable state (empty
        means the runs agree).  The fleet's verify stage is this check,
        batched."""
        from ..interp.relative import verify_parallel
        diff = verify_parallel(self.program, inputs, workers=workers,
                               schedule=schedule, rtol=rtol, atol=atol,
                               max_steps=max_steps).diff
        self._log("transformation guidance",
                  f"verify parallel: {len(diff)} difference(s) at "
                  f"{workers} workers")
        return diff

    def explore(self, inputs=None, max_worlds: int = 8,
                workers: int = 4, schedule: str = "static",
                engines=None, adopt: bool = True,
                race_workers: int | None = None):
        """Speculative parallel-worlds exploration (repro.worlds).

        Proposes up to ``max_worlds`` candidate transform sequences from
        the session's dependence/autopar/guidance data, forks each into
        an independent world (:meth:`fork`), races them concurrently on
        the shared worker pool across the requested execution
        ``engines``, gates acceptance on byte-identical observables
        versus this session's serial oracle run, and ranks the
        survivors.  With ``adopt=True`` the winning sequence is replayed
        onto this session through the normal power-steering path, so
        every adopted transformation lands on the undo journal.

        Returns a :class:`repro.worlds.WorldsReport`.
        """
        from ..worlds import explore_session
        report = explore_session(
            self, inputs=inputs, max_worlds=max_worlds, workers=workers,
            schedule=schedule, engines=engines, adopt=adopt,
            race_workers=race_workers)
        self._log("transformation guidance",
                  f"explore: {len(report.results)} worlds raced, "
                  f"winner {report.winner or '(none)'}"
                  f"{' adopted' if report.adopted else ''}")
        return report

    def program_report(self) -> str:
        """Printable program + dependences + variables listing."""
        from .reporting import program_report
        return program_report(self)

    def call_graph_dot(self) -> str:
        """Graphviz DOT export of the call graph with time shares."""
        from .reporting import call_graph_dot
        return call_graph_dot(self)

    def unknown_symbolics(self, loop=None) -> dict[str, list[str]]:
        """Symbolic terms the system would query the user about."""
        from .reporting import unknown_symbolics
        return unknown_symbolics(self, loop)

    # -- event summary (Table 2 support) ----------------------------------------------------

    def features_used(self) -> set[str]:
        return {e.feature for e in self.events}
