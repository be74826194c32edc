"""Interprocedural side-effect analysis: MOD / REF / KILL + regular sections.

Summaries are computed bottom-up over the call graph (callees first, as in
Banning's and Callahan's formulations):

* **REF(p)** -- variables possibly read by an invocation of ``p``
  (flow-insensitive);
* **MOD(p)** -- variables possibly written (flow-insensitive);
* **KILL(p)** -- variables certainly written on *every* control-flow path
  (flow-sensitive must-analysis over the CFG);
* **bounded regular sections** (Havlak-Kennedy) -- per array, a
  per-dimension ``[lo:hi]`` bound on the accessed region, kept symbolic in
  the callee's formals so call sites can translate them into caller terms.

All sets are expressed over a procedure's *visible* names: formal
parameters and COMMON variables.  Locals are dropped at the summary
boundary (their effects are invisible to callers).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..analysis.defuse import SideEffectOracle, accesses
from ..analysis.linear import LinearExpr, linearize
from ..fortran import ast
from ..interp.compile import unit_fingerprint
from ..ir.callgraph import CallGraph
from ..ir.cfg import ENTRY, EXIT, build_cfg
from ..ir.program import AnalyzedProgram
from ..ir.symtab import SymbolTable
from ..perf import counters as perf_counters
from ..store import MISS, declare as _declare_ns, get_store

#: per-unit summaries keyed by :meth:`SummaryBuilder._key`; summaries
#: are uid-free and picklable, so the disk tier applies
_SUMMARY_NS = "summary"
_declare_ns(_SUMMARY_NS, mem_entries=128, disk=True)


@dataclass(frozen=True)
class SectionDim:
    """One dimension of a bounded regular section.

    ``lo``/``hi`` are linear forms over the procedure's visible scalars
    (and, after call-site translation, the caller's); ``None`` means
    unknown, i.e. the whole extent must be assumed.
    """

    lo: LinearExpr | None
    hi: LinearExpr | None

    @property
    def known(self) -> bool:
        return self.lo is not None and self.hi is not None

    @property
    def single(self) -> bool:
        return self.known and self.lo == self.hi

    @staticmethod
    def unknown() -> "SectionDim":
        return SectionDim(None, None)

    @staticmethod
    def exact(e: LinearExpr) -> "SectionDim":
        return SectionDim(e, e)

    def union(self, other: "SectionDim") -> "SectionDim":
        if not self.known or not other.known:
            return SectionDim.unknown()
        lo = _sym_min(self.lo, other.lo)
        hi = _sym_max(self.hi, other.hi)
        if lo is None or hi is None:
            return SectionDim.unknown()
        return SectionDim(lo, hi)


def _sym_min(a: LinearExpr, b: LinearExpr) -> LinearExpr | None:
    d = a - b
    if d.is_constant:
        return a if d.const <= 0 else b
    return None


def _sym_max(a: LinearExpr, b: LinearExpr) -> LinearExpr | None:
    d = a - b
    if d.is_constant:
        return a if d.const >= 0 else b
    return None


@dataclass(frozen=True)
class ArraySection:
    array: str
    dims: tuple[SectionDim, ...]

    def union(self, other: "ArraySection") -> "ArraySection":
        if len(self.dims) != len(other.dims):
            n = max(len(self.dims), len(other.dims))
            return ArraySection(self.array,
                                tuple(SectionDim.unknown() for _ in range(n)))
        return ArraySection(
            self.array,
            tuple(a.union(b) for a, b in zip(self.dims, other.dims)))

    def describe(self) -> str:
        parts = []
        for d in self.dims:
            if not d.known:
                parts.append("*")
            elif d.single:
                parts.append(_le_str(d.lo))
            else:
                parts.append(f"{_le_str(d.lo)}:{_le_str(d.hi)}")
        return f"{self.array}({', '.join(parts)})"


def _le_str(le: LinearExpr) -> str:
    from ..analysis.linear import to_expr
    try:
        return str(to_expr(le))
    except AssertionError:  # pragma: no cover
        return "?"


@dataclass
class ProcSummary:
    name: str
    #: names over formals + COMMON
    ref: set[str] = field(default_factory=set)
    mod: set[str] = field(default_factory=set)
    kill: set[str] = field(default_factory=set)
    #: subset of ref whose *incoming* value may be used (use not preceded
    #: by a kill on some path) -- what callers must treat as a read
    exposed_ref: set[str] = field(default_factory=set)
    #: visible arrays wholly written before any read on every invocation
    #: (interprocedural *array* kill -- the arc3d requirement)
    killed_arrays: set[str] = field(default_factory=set)
    ref_sections: dict[str, ArraySection] = field(default_factory=dict)
    mod_sections: dict[str, ArraySection] = field(default_factory=dict)
    formals: tuple[str, ...] = ()


def _loop_bound_env(loops: list[ast.DoLoop]) -> dict[str, tuple[LinearExpr | None, LinearExpr | None]]:
    env: dict[str, tuple[LinearExpr | None, LinearExpr | None]] = {}
    for lp in loops:
        lo = linearize(lp.start)
        hi = linearize(lp.end)
        env[lp.var] = (lo if lo.is_affine else None,
                       hi if hi.is_affine else None)
    return env


def _subscript_section(e: ast.Expr,
                       loop_bounds: dict[str, tuple[LinearExpr | None,
                                                    LinearExpr | None]],
                       env: dict[str, LinearExpr] | None = None,
                       visible: set[str] | None = None) -> SectionDim:
    """Bound one subscript expression over the enclosing loops' ranges.

    Symbolic terms must be *visible* to callers (formals/COMMON): a
    section expressed in a callee-local temporary is meaningless at the
    call site, so such dimensions degrade to unknown.
    """
    le = linearize(e, env)
    if not le.is_affine:
        return SectionDim.unknown()
    lo = LinearExpr.constant(le.const)
    hi = LinearExpr.constant(le.const)
    for v, c in le.terms:
        if v in loop_bounds:
            blo, bhi = loop_bounds[v]
            if blo is None or bhi is None:
                return SectionDim.unknown()
            if visible is not None and (
                    blo.variables() - visible or bhi.variables() - visible):
                return SectionDim.unknown()
            tlo, thi = blo.scale(c), bhi.scale(c)
            if c < 0:
                tlo, thi = thi, tlo
            lo = lo + tlo
            hi = hi + thi
        elif visible is None or v in visible:
            lo = lo + LinearExpr.var(v, c)
            hi = hi + LinearExpr.var(v, c)
        else:
            return SectionDim.unknown()
    return SectionDim(lo, hi)


class SummaryBuilder:
    """Computes :class:`ProcSummary` for every unit, bottom-up.

    A unit's summary reads the unit (AST and symbol table after COMMON
    propagation) and the summaries of callees summarized before it, so
    it is stored under a digest of the unit's fingerprint and those
    callees' keys: every session, lint pass and detector shares it, and
    a change to a unit re-keys only it and its transitive callers.
    """

    def __init__(self, program: AnalyzedProgram):
        self.program = program
        self.callgraph: CallGraph = program.callgraph
        self.summaries: dict[str, ProcSummary] = {}
        self.keys: dict[str, str] = {}

    def _key(self, name: str) -> str:
        h = hashlib.sha256(
            unit_fingerprint(self.program.units[name]).encode())
        for callee in sorted(self.callgraph.callees(name)):
            if callee in self.keys:
                h.update(f"|{callee}={self.keys[callee]}".encode())
        return h.hexdigest()

    def _summary_for(self, name: str) -> ProcSummary:
        key = self.keys[name] = self._key(name)
        store = get_store()
        summ = store.get(_SUMMARY_NS, key)
        if summ is not MISS:
            perf_counters.bump("summaries_retained")
            return summ
        perf_counters.bump("summaries_rebuilt")
        summ = self._summarize(name)
        store.put(_SUMMARY_NS, key, summ)
        return summ

    def build(self) -> dict[str, ProcSummary]:
        self.propagate_common_symbols()
        for name in self.callgraph.reverse_topo_order():
            if name in self.program.units:
                self.summaries[name] = self._summary_for(name)
        # Units unreachable in topo order (defensive)
        for name in self.program.units:
            if name not in self.summaries:
                self.summaries[name] = self._summary_for(name)
        return self.summaries

    def propagate_common_symbols(self) -> None:
        """Make every COMMON symbol visible in every unit that can reach
        it through a call.

        A caller that does not declare /BLK/ still shares its storage
        with callees that do; dependence and kill analysis in the caller
        must know those names (and whether they are arrays).  Symbols are
        copied (type, dims, block) into the symtabs of all transitive
        callers, to a fixpoint over the call graph.  Idempotent; every
        :meth:`build` runs it, store hits included, because the symtab
        enrichment is a program-side effect a hit must not skip.  The
        fixpoint is uncapped: sites are visited caller-first, so a call
        chain of depth D needs D - 1 rounds, and a round only adds
        symbols, so it terminates.
        """
        from ..ir.symtab import Symbol
        changed = True
        while changed:
            changed = False
            for cs in self.callgraph.sites:
                if cs.caller not in self.program.units \
                        or cs.callee not in self.program.units:
                    continue
                caller_st = self.program.units[cs.caller].symtab
                callee_st = self.program.units[cs.callee].symtab
                for sym in list(callee_st.symbols.values()):
                    if sym.storage != "common":
                        continue
                    if caller_st.get(sym.name) is None:
                        caller_st.symbols[sym.name] = Symbol(
                            sym.name, sym.type_name, dims=sym.dims,
                            storage="common",
                            common_block=sym.common_block,
                            declared=False)
                        changed = True

    # -- per-procedure ------------------------------------------------------

    def _visible(self, st: SymbolTable, unit: ast.ProgramUnit) -> set[str]:
        vis = {p.upper() for p in unit.params}
        vis |= {s.name for s in st.symbols.values() if s.storage == "common"}
        return vis

    def _summarize(self, name: str) -> ProcSummary:
        uir = self.program.units[name]
        unit, st = uir.unit, uir.symtab
        visible = self._visible(st, unit)
        summ = ProcSummary(name=name, formals=tuple(p.upper()
                                                    for p in unit.params))

        loop_stack: list[ast.DoLoop] = []
        param_env = _parameter_env(st)
        loop_var_names = set()
        for ss, _ in ast.walk_stmts(unit.body):
            if isinstance(ss, ast.DoLoop):
                loop_var_names.add(ss.var)
        section_visible = visible | loop_var_names | set(param_env)

        def record_ref(var: str, subs: tuple[ast.Expr, ...] | None,
                       write: bool) -> None:
            var = var.upper()
            if var not in visible:
                return
            target = summ.mod if write else summ.ref
            target.add(var)
            sym = st.get(var)
            if sym is None or not sym.is_array:
                return
            secs = summ.mod_sections if write else summ.ref_sections
            bounds = _loop_bound_env(loop_stack)
            if subs is None:
                sec = ArraySection(var, tuple(SectionDim.unknown()
                                              for _ in sym.dims))
            else:
                sec = ArraySection(var, tuple(
                    _subscript_section(sub, bounds, param_env,
                                       section_visible)
                    for sub in subs))
            prev = secs.get(var)
            secs[var] = sec if prev is None else prev.union(sec)

        def visit(body: list[ast.Stmt]) -> None:
            for s in body:
                if isinstance(s, ast.CallStmt) \
                        and s.name in self.summaries:
                    self._apply_callee(s.name, s.args, st, record_ref)
                else:
                    for a in accesses(s, st, _NullOracle()):
                        if isinstance(a.ref, ast.ArrayRef):
                            subs = a.ref.subscripts
                        elif isinstance(a.ref, ast.VarRef):
                            subs = ()
                        else:
                            subs = None
                        record_ref(a.name, subs, a.is_def)
                    # user function calls inside expressions
                    for e in s.exprs():
                        for node in ast.walk_expr(e):
                            if isinstance(node, ast.FuncRef) \
                                    and not node.intrinsic \
                                    and node.name in self.summaries:
                                self._apply_callee(node.name, node.args, st,
                                                   record_ref)
                if isinstance(s, ast.DoLoop):
                    loop_stack.append(s)
                    visit(s.body)
                    loop_stack.pop()
                else:
                    for blk in s.blocks():
                        visit(blk)

        visit(unit.body)
        summ.kill = self._compute_kill(uir, visible)
        summ.exposed_ref = self._compute_exposed(uir, visible) & summ.ref
        summ.killed_arrays = self._compute_killed_arrays(uir, visible)
        summ.exposed_ref -= summ.killed_arrays
        return summ

    def _compute_killed_arrays(self, uir, visible: set[str]) -> set[str]:
        """Arrays wholly written before any read (procedure-level array
        kill, via the section coverage scan)."""
        from ..analysis.arraykills import BodyArrayScan
        param_env = _parameter_env(uir.symtab)

        def call_sections(stmt):
            return call_section_triples(self.summaries, uir.symtab,
                                        stmt.name, stmt.args)

        try:
            scan = BodyArrayScan(uir.symtab, _NullOracle(), param_env,
                                 call_sections)
            scan.scan(uir.unit.body)
        except Exception:
            return set()
        return scan.covered_arrays() & visible

    def _compute_exposed(self, uir, visible: set[str]) -> set[str]:
        """Upward-exposed uses: variables live on entry to the unit."""
        from ..analysis.defuse import compute_liveness
        from .oracle import InterproceduralOracle
        try:
            oracle = InterproceduralOracle(self.summaries)
            live_in, _ = compute_liveness(build_cfg(uir.unit), uir.symtab,
                                          oracle, live_at_exit=set())
        except Exception:
            return set(visible)
        return live_in.get(ENTRY, set()) & visible

    def _apply_callee(self, callee: str, args: tuple[ast.Expr, ...],
                      caller_st: SymbolTable, record_ref) -> None:
        """Translate a callee's summary through a call site."""
        csum = self.summaries.get(callee)
        if csum is None:
            return
        binding = _bind_formals(csum.formals, args)
        for kind, names, secs in (("ref", csum.ref, csum.ref_sections),
                                  ("mod", csum.mod, csum.mod_sections)):
            for v in names:
                actual = binding.get(v)
                if actual is not None:
                    base = _base_name(actual)
                    if base is None:
                        continue
                    sec = secs.get(v)
                    subs = _translate_section_subs(sec, binding)
                    record_ref(base, subs, kind == "mod")
                else:
                    # COMMON variable: same name in caller
                    sec = secs.get(v)
                    subs = _translate_section_subs(sec, binding)
                    record_ref(v, subs, kind == "mod")
        # subscripts of actual args are read by evaluating the call
        for a in args:
            for node in ast.walk_expr(a):
                if isinstance(node, ast.ArrayRef):
                    for sub in node.subscripts:
                        for r in ast.walk_expr(sub):
                            if isinstance(r, ast.VarRef):
                                record_ref(r.name, (), False)
                            elif isinstance(r, ast.ArrayRef):
                                record_ref(r.name, None, False)

    def _compute_kill(self, uir, visible: set[str]) -> set[str]:
        """Flow-sensitive KILL: must-defined on every path entry->exit."""
        unit, st = uir.unit, uir.symtab
        try:
            cfg = build_cfg(unit)
        except Exception:
            return set()
        must: dict[int, set[str]] = {}
        for uid, s in cfg.stmts.items():
            m: set[str] = set()
            if isinstance(s, ast.CallStmt) and s.name in self.summaries:
                csum = self.summaries[s.name]
                binding = _bind_formals(csum.formals, s.args)
                for v in csum.kill:
                    actual = binding.get(v)
                    if actual is None:
                        m.add(v)          # COMMON name passes through
                    else:
                        base = _base_name(actual)
                        sym = st.get(base) if base else None
                        if base and sym is not None and not sym.is_array:
                            m.add(base)
            else:
                for a in accesses(s, st, _NullOracle()):
                    if a.is_def and a.must:
                        m.add(a.name)
            must[uid] = m

        # Forward must-analysis: KILLed-so-far = intersection over preds.
        universe = {s.name for s in st.symbols.values()}
        kin: dict[int, set[str]] = {n: set(universe) for n in cfg.nodes}
        kout: dict[int, set[str]] = {n: set(universe) for n in cfg.nodes}
        kin[ENTRY] = set()
        kout[ENTRY] = set()
        changed = True
        while changed:
            changed = False
            for n in cfg.rpo():
                if n == ENTRY:
                    continue
                preds = list(cfg.preds.get(n, ()))
                new_in = set(universe)
                for p in preds:
                    new_in &= kout[p]
                if not preds:
                    new_in = set()
                new_out = new_in | must.get(n, set())
                if new_in != kin[n] or new_out != kout[n]:
                    kin[n] = new_in
                    kout[n] = new_out
                    changed = True
        return (kin[EXIT] & visible)


class _NullOracle(SideEffectOracle):
    """No call effects: calls handled explicitly by the summary builder."""

    def call_effects(self, caller_symtab, callee, args):
        return set(), set(), set()


def _bind_formals(formals: tuple[str, ...],
                  args: tuple[ast.Expr, ...]) -> dict[str, ast.Expr]:
    return {f: a for f, a in zip(formals, args)}


def _base_name(actual: ast.Expr) -> str | None:
    if isinstance(actual, ast.VarRef):
        return actual.name
    if isinstance(actual, ast.ArrayRef):
        return actual.name  # array passed with offset: base still accessed
    return None             # expression actual: no variable modified


def _translate_section_subs(sec: ArraySection | None,
                            binding: dict[str, ast.Expr]
                            ) -> tuple[ast.Expr, ...] | None:
    """Render a callee section as caller-side subscript expressions.

    Single-element dimensions become real subscript expressions that the
    elementwise dependence tests can reason about (this is how a call
    writing ``FLD(:, LAT)`` gets a testable ``LAT`` subscript).  Ranged or
    untranslatable dimensions become a per-(array, dim) placeholder
    symbol: structurally identical at source and sink, it cancels in the
    dependence equation and so imposes *no* independence constraint for
    that dimension -- the conservative direction.  The ``%`` in the
    placeholder name cannot appear in user identifiers, so capture is
    impossible.
    """
    if sec is None:
        return None
    from ..analysis.linear import to_expr
    env = {f: linearize(a) for f, a in binding.items()}
    subs: list[ast.Expr] = []
    for k, d in enumerate(sec.dims, 1):
        le = _substitute_linear(d.lo, env) if d.single else None
        if le is not None:
            subs.append(to_expr(le))
        else:
            subs.append(ast.VarRef(f"{sec.array}%{k}"))
    return tuple(subs)


def _substitute_linear(le: LinearExpr,
                       env: dict[str, LinearExpr]) -> LinearExpr | None:
    out = LinearExpr.constant(le.const)
    for v, c in le.terms:
        if v in env:
            sub = env[v]
            if not sub.is_affine:
                return None
            out = out + sub.scale(c)
        else:
            out = out + LinearExpr.var(v, c)
    if le.residue:
        return None
    return out


def _parameter_env(st: SymbolTable) -> dict[str, LinearExpr]:
    """PARAMETER constants as a linearizer environment."""
    env: dict[str, LinearExpr] = {}
    for sym in st.symbols.values():
        if sym.storage == "parameter" and sym.param_value is not None:
            le = linearize(sym.param_value)
            if le.is_constant:
                env[sym.name] = le
    return env


def call_section_triples(summaries: dict[str, ProcSummary],
                         caller_st: SymbolTable, callee: str,
                         args: tuple[ast.Expr, ...]):
    """Call side effects as ``(array, region, is_write)`` triples for the
    array-kill scan (regions are per-dimension Bound tuples in caller
    terms).

    Write regions are supplied only for the callee's *killed* arrays --
    those are must-writes, safe to use as coverage; other writes appear
    with an unknown region.  Reads of killed arrays are omitted: they
    consume the callee's own writes, not the caller's incoming values.
    Returns ``None`` for procedures without summaries.
    """
    from ..analysis.arraykills import Bound
    summ = summaries.get(callee.upper())
    if summ is None:
        return None
    binding = _bind_formals(summ.formals, args)
    env = {f: linearize(a) for f, a in binding.items()}

    def base_of(v: str) -> str | None:
        if v in binding:
            return _base_name(binding[v])
        return v

    def region_of(sec: ArraySection | None):
        if sec is None:
            return None
        dims = []
        for d in sec.dims:
            if not d.known:
                dims.append(Bound(None, None))
                continue
            lo = _substitute_linear(d.lo, env)
            hi = _substitute_linear(d.hi, env)
            dims.append(Bound(lo, hi))
        return tuple(dims)

    out = []
    for v in sorted(summ.mod):
        base = base_of(v)
        if base is None:
            continue
        sym = caller_st.get(base)
        if sym is None or not sym.is_array:
            continue
        region = region_of(summ.mod_sections.get(v)) \
            if v in summ.killed_arrays else None
        out.append((base.upper(), region, True))
    for v in sorted(summ.ref):
        if v in summ.killed_arrays:
            continue
        base = base_of(v)
        if base is None:
            continue
        sym = caller_st.get(base)
        if sym is None or not sym.is_array:
            continue
        out.append((base.upper(), region_of(summ.ref_sections.get(v)),
                    False))
    return out
