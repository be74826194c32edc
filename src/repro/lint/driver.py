"""Lint driver: whole-program runs, fault isolation, incremental
re-lint for live :class:`~repro.ped.session.PedSession` objects.

The driver owns the shared analysis artifacts (interprocedural oracle,
per-unit def-use and liveness solutions, the COMMON-exposure set) so
rules don't recompute them, and guarantees deterministic output: the
final diagnostic list is sorted and de-duplicated regardless of rule
order, unit iteration order, or how many incremental passes produced
the pieces.
"""

from __future__ import annotations

from ..analysis.defuse import compute_defuse, compute_liveness
from ..assertions.lang import AssertionSet
from ..fortran import ast
from ..interproc.oracle import InterproceduralOracle
from ..interproc.summary import SummaryBuilder
from ..ir.program import AnalyzedProgram
from ..perf import counters as perf_counters
from ..store import MISS, declare as _declare_ns, get_store
from .core import Diagnostic, Suppressions, all_rules, dedup_sorted
from .races import recover_index_array

#: lint results shared across sessions.  Diagnostics are frozen,
#: uid-free value objects (unit/line/loop-id strings), so a rule run
#: over one session's program is valid verbatim for any structurally
#: identical program; loop PARALLEL/private state -- which rules read
#: but structural fingerprints exclude -- enters the key positionally.
_LINT_NS = "lint"
_declare_ns(_LINT_NS, mem_entries=256, disk=True)


class LintContext:
    """Shared analysis state for one lint pass over one program."""

    def __init__(self, program: AnalyzedProgram,
                 assertions: AssertionSet | None = None,
                 source: str | None = None):
        self.program = program
        self.assertions = assertions or AssertionSet()
        src = source if source is not None \
            else getattr(program.ast, "source", None)
        self.suppressions = Suppressions.scan(src) if src \
            else Suppressions()
        self._oracle = None
        self._defuse: dict[str, object] = {}
        self._liveness: dict[str, tuple] = {}
        self._exposed = None
        self._index_arrays: dict[str, object] = {}
        self._subscript_env: dict[str, dict] = {}
        #: (rule id, unit or None, error text) for crashed rules
        self.rule_failures: list[tuple] = []

    # -- shared artifacts --------------------------------------------------

    def oracle(self) -> InterproceduralOracle:
        if self._oracle is None:
            self._oracle = InterproceduralOracle(
                SummaryBuilder(self.program).build())
        return self._oracle

    def defuse(self, unit_name: str):
        unit_name = unit_name.upper()
        if unit_name not in self._defuse:
            uir = self.program.units[unit_name]
            self._defuse[unit_name] = compute_defuse(
                uir.cfg, uir.symtab, self.oracle())
        return self._defuse[unit_name]

    def globally_exposed_common(self) -> set[str]:
        """COMMON names some unit reads before killing them.

        Taken straight from the interprocedural summaries:
        ``exposed_ref`` is the set of visible names whose *incoming*
        value a unit may consume (a use not preceded by a scalar kill
        or a whole-array rewrite on some path).  A COMMON variable in
        no unit's exposed set is always overwritten before it is next
        read, so a loop's final write to it is dead — the refinement
        that keeps arc3d's wholly-rewritten ZCOL column buffer from
        reading as a race."""
        if self._exposed is None:
            exposed: set[str] = set()
            summaries = self.oracle().summaries
            for name, uir in self.program.units.items():
                summ = summaries.get(name)
                names = summ.exposed_ref if summ is not None else {
                    s.name for s in uir.symtab.symbols.values()}
                for nm in names:
                    sym = uir.symtab.get(nm)
                    if sym is not None and sym.storage == "common":
                        exposed.add(nm)
            self._exposed = exposed
        return self._exposed

    def liveness(self, unit_name: str) -> tuple:
        """Whole-unit liveness with the COMMON-exposure refinement."""
        unit_name = unit_name.upper()
        if unit_name not in self._liveness:
            uir = self.program.units[unit_name]
            st = uir.symtab
            exposed = self.globally_exposed_common()
            live_at_exit = {
                s.name for s in st.symbols.values()
                if s.storage == "argument" or s.saved
                or (s.storage == "common" and s.name in exposed)}
            self._liveness[unit_name] = compute_liveness(
                uir.cfg, uir.symtab, self.oracle(),
                live_at_exit=live_at_exit)
        return self._liveness[unit_name]

    def live_after_loop(self, uir, loop: ast.DoLoop) -> set[str]:
        _, live_out = self.liveness(uir.symtab.unit_name)
        return set(live_out.get(loop.uid, set()))

    def subscript_env(self, uir) -> dict:
        """Linearizer environment: PARAMETER constants + assertion
        equalities (``JM .EQ. JMAX - 1``)."""
        name = uir.symtab.unit_name
        if name not in self._subscript_env:
            from ..analysis.constants import eval_const
            from ..analysis.linear import LinearExpr
            env: dict = {}
            for nm, sy in uir.symtab.symbols.items():
                if sy.storage == "parameter" \
                        and sy.param_value is not None:
                    v = eval_const(sy.param_value, {})
                    if isinstance(v, int):
                        env[nm] = LinearExpr.constant(v)
            env.update(self.assertions.relations_env())
            self._subscript_env[name] = env
        return self._subscript_env[name]

    def recover_index_array(self, name: str):
        name = name.upper()
        if name not in self._index_arrays:
            self._index_arrays[name] = recover_index_array(
                self.program, name)
        return self._index_arrays[name]

    # -- convenience for rules ---------------------------------------------

    def units(self, names=None):
        keys = sorted(self.program.units) if names is None \
            else sorted(n.upper() for n in names)
        return [(k, self.program.units[k]) for k in keys
                if k in self.program.units]

    def parallel_loops(self, names=None):
        """(unit name, UnitIR, loop id, DoLoop) for every PARALLEL DO."""
        out = []
        for name, uir in self.units(names):
            for li in uir.loops.all_loops():
                if li.loop.parallel:
                    out.append((name, uir, li.id, li.loop))
        return out

    def loop_id(self, uir, loop: ast.DoLoop) -> str | None:
        li = uir.loops.by_uid.get(loop.uid)
        return li.id if li is not None else None


def run_rules(ctx: LintContext, units=None, rules=None) -> list[Diagnostic]:
    """Run rules fault-isolated; returns raw (unsorted) diagnostics."""
    out: list[Diagnostic] = []
    selected = all_rules() if rules is None else [
        r for r in all_rules() if r.rule_id in {x.upper() for x in rules}]
    for rule in selected:
        try:
            out.extend(rule.check_units(ctx, units)
                       if hasattr(rule, "check_units")
                       else rule.check(ctx))
        except Exception as e:  # fault isolation: a broken rule must not
            ctx.rule_failures.append(  # take down the whole lint pass
                (rule.rule_id, None, f"{type(e).__name__}: {e}"))
    return out


class LintResult(list):
    """The diagnostic list of one lint pass plus the rules that crashed
    in it: ``rule_failures`` holds one ``(rule id, unit or None, error
    text)`` per crash.  A crashed rule contributes no findings (all RACE
    rules share one per-loop analysis, so one crash loses all of them),
    so a non-empty ``rule_failures`` means the list is incomplete."""

    def __init__(self, diags=(), rule_failures=()):
        super().__init__(diags)
        self.rule_failures = list(rule_failures)


def lint_program(program, assertions: AssertionSet | None = None,
                 units=None, rules=None, source: str | None = None,
                 include_suppressed: bool = True) -> LintResult:
    """Lint an :class:`AnalyzedProgram` (or source text).

    Returns the deterministic diagnostic list: sorted by
    ``(unit, line, rule, var, message)``, de-duplicated, with
    ``C$PED LINT`` suppressions applied (suppressed findings are kept,
    flagged, unless ``include_suppressed=False``).  Its
    ``rule_failures`` lists the rules that crashed.
    """
    if isinstance(program, str):
        source = program
        program = AnalyzedProgram.from_source(program)
    ctx = LintContext(program, assertions, source=source)
    perf_counters.bump("lint_runs")
    perf_counters.bump("lint_units",
                       len(ctx.units(units)))
    diags = dedup_sorted(ctx.suppressions.apply(
        run_rules(ctx, units=units, rules=rules)))
    perf_counters.bump("lint_diags", len(diags))
    if not include_suppressed:
        diags = [d for d in diags if not d.suppressed]
    return LintResult(diags, ctx.rule_failures)


def lint_source(source: str, units=None, rules=None,
                include_suppressed: bool = True) -> LintResult:
    """Lint Fortran source text directly (parse + analyze + lint in one
    call).  Equivalent to ``lint_program(source)``; exists so headless
    callers (the fleet, scripts) don't build a program object first."""
    return lint_program(source, units=units, rules=rules,
                        include_suppressed=include_suppressed)


class SessionLinter:
    """Incremental lint over a live :class:`PedSession`.

    Unit-scoped rule results are cached per unit and reused while the
    unit's *lint key* is unchanged: the key folds in the unit's
    incremental-engine generation, its loops' PARALLEL/private state
    (``classify_variable`` mutates those without bumping generations),
    and the session's assertion texts.  Whole-program rules (COMMON
    shape) re-run when any unit's key changes.
    """

    def __init__(self, session):
        self.session = session
        self._unit_cache: dict[str, tuple] = {}   # unit -> (key, diags)
        self._program_cache: tuple | None = None  # (key, diags)
        self._program_id = None

    # -- keys --------------------------------------------------------------

    def _assert_key(self) -> tuple:
        return tuple(a.text for a in self.session.assertions.assertions)

    def _program_fp(self):
        from ..interp.compile import program_fingerprint
        try:
            return program_fingerprint(self.session.program)
        except Exception:
            return None

    def _unit_key(self, name: str) -> tuple:
        uir = self.session.program.units[name]
        loops = tuple(
            (t.uid, t.parallel, tuple(sorted(t.private_vars)))
            for t, _ in ast.walk_stmts(uir.unit.body)
            if isinstance(t, ast.DoLoop))
        return (uir.generation, loops, self._assert_key())

    def _positional_loop_state(self, name: str) -> tuple:
        """Like :meth:`_unit_key`'s loop state but keyed by statement
        position instead of uid, so it matches across sessions."""
        uir = self.session.program.units[name]
        out = []
        for i, (t, _) in enumerate(ast.walk_stmts(uir.unit.body)):
            if isinstance(t, ast.DoLoop):
                out.append((i, t.parallel,
                            tuple(sorted(t.private_vars))))
        return tuple(out)

    def _store_unit_diags(self, ctx: LintContext, name: str,
                          pfp) -> list[Diagnostic]:
        skey = None
        if pfp is not None:
            skey = (pfp, name, self._positional_loop_state(name),
                    self._assert_key())
            hit = get_store().get(_LINT_NS, skey)
            if hit is not MISS:
                perf_counters.bump("lint_units_shared")
                return list(hit)
        diags = run_rules(ctx, units=[name],
                          rules=_unit_scope_rule_ids())
        unit_diags = [d for d in diags if d.unit == name]
        if skey is not None:
            get_store().put(_LINT_NS, skey, tuple(unit_diags))
        return unit_diags

    def _store_program_diags(self, ctx: LintContext, names,
                             pfp) -> list[Diagnostic]:
        skey = None
        if pfp is not None:
            skey = (pfp, None,
                    tuple(self._positional_loop_state(n)
                          for n in names),
                    self._assert_key())
            hit = get_store().get(_LINT_NS, skey)
            if hit is not MISS:
                return list(hit)
        diags = run_rules(ctx, units=None,
                          rules=_program_scope_rule_ids())
        if skey is not None:
            get_store().put(_LINT_NS, skey, tuple(diags))
        return diags

    def refresh(self) -> list[Diagnostic]:
        """Re-lint only what changed since the last call."""
        session = self.session
        program = session.program
        if self._program_id != id(program):
            # edit() replaced the program wholesale
            self._unit_cache.clear()
            self._program_cache = None
            self._program_id = id(program)
        ctx = LintContext(program, session.assertions)
        perf_counters.bump("lint_runs")
        names = sorted(program.units)
        all_diags: list[Diagnostic] = []
        any_changed = False
        pfp = None
        for name in names:
            key = self._unit_key(name)
            cached = self._unit_cache.get(name)
            if cached is not None and cached[0] == key:
                perf_counters.bump("lint_units_reused")
                all_diags.extend(cached[1])
                continue
            any_changed = True
            perf_counters.bump("lint_units")
            if pfp is None:
                pfp = self._program_fp()
            unit_diags = self._store_unit_diags(ctx, name, pfp)
            self._unit_cache[name] = (key, unit_diags)
            all_diags.extend(unit_diags)
        program_key = tuple(self._unit_key(n) for n in names)
        if self._program_cache is not None \
                and self._program_cache[0] == program_key \
                and not any_changed:
            all_diags.extend(self._program_cache[1])
        else:
            if pfp is None:
                pfp = self._program_fp()
            diags = self._store_program_diags(ctx, names, pfp)
            self._program_cache = (program_key, diags)
            all_diags.extend(diags)
        out = dedup_sorted(ctx.suppressions.apply(all_diags))
        perf_counters.bump("lint_diags", len(out))
        return out

    def summary(self) -> dict:
        """Counts for ``session.health()['lint']``."""
        diags = self.refresh()
        by_sev: dict[str, int] = {}
        by_rule: dict[str, int] = {}
        for d in diags:
            if d.suppressed:
                continue
            by_sev[d.severity] = by_sev.get(d.severity, 0) + 1
            by_rule[d.rule] = by_rule.get(d.rule, 0) + 1
        return {
            "diagnostics": len([d for d in diags if not d.suppressed]),
            "suppressed": len([d for d in diags if d.suppressed]),
            "by_severity": dict(sorted(by_sev.items())),
            "by_rule": dict(sorted(by_rule.items())),
        }


def _program_scope_rule_ids() -> list[str]:
    return [r.rule_id for r in all_rules()
            if getattr(r, "scope", "unit") == "program"]


def _unit_scope_rule_ids() -> list[str]:
    return [r.rule_id for r in all_rules()
            if getattr(r, "scope", "unit") != "program"]
