"""Dependence graph construction for a selected loop.

This is what fills PED's dependence pane: given a loop, collect every
array and scalar reference inside it (including call side effects,
section-refined when interprocedural summaries are available), test all
conflicting pairs with the hierarchical suite, and produce
:class:`~repro.dependence.model.Dependence` records classified as
true/anti/output, levelled, direction-vectored, and marked
proven/pending.

Supporting analyses are folded in exactly as Section 4.1 describes:

* constant propagation and symbolic relations feed the linearizer's
  environment (so ``JM = JMAX - 1`` cancels against ``JMAX``);
* auxiliary induction variables are rewritten as affine functions of the
  loop index before testing;
* scalar kill analysis suppresses loop-carried dependences on
  privatizable scalars (and on variables the user classified private);
* user assertions arrive through the :class:`~repro.dependence.facts.
  FactBase`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..analysis.constants import propagate_constants
from ..analysis.defuse import SideEffectOracle, accesses, compute_defuse
from ..analysis.kills import privatizable_names
from ..analysis.linear import LinearExpr, linearize, to_expr
from ..analysis.symbolic import auxiliary_inductions, invariant_names, \
    symbolic_relations
from ..fortran import ast
from ..ir.loops import LoopInfo, LoopTree
from ..ir.program import UnitIR
from ..perf import budget as _budget
from ..perf import counters as _counters
from .facts import FactBase
from .model import ANY, EQ, GT, LT, DepType, Dependence, DirectionVector, \
    Mark, Reference
from .tests import LoopCtx, PairResult, test_pair


@dataclass(frozen=True, eq=False)
class RefSite:
    """One reference participating in pair testing.

    Frozen (with identity hashing -- ``eq=False`` keeps hashing free of
    the unhashable statement payload) so sites can serve directly as
    cache keys without defensive copying; the subscript-rewriting passes
    build updated sites with :func:`dataclasses.replace`.
    """

    var: str
    stmt: ast.Stmt
    is_write: bool
    #: loop chain from the selected loop inward (selected loop first)
    chain: tuple[int, ...]          # loop uids
    order: int                      # pre-order execution position
    expr: ast.Expr | None = None    # original reference
    #: subscripts used for testing (aux-induction substituted); None for
    #: scalars or whole-array (unknown section) accesses
    test_subs: tuple[ast.Expr, ...] | None = None
    from_call: bool = False

    @property
    def text(self) -> str:
        if self.expr is not None:
            return str(self.expr)
        if self.test_subs is not None:
            return f"{self.var}({', '.join(map(str, self.test_subs))})"
        return self.var

    def to_reference(self) -> Reference:
        return Reference(var=self.var, stmt_uid=self.stmt.uid,
                         line=self.stmt.line, is_write=self.is_write,
                         text=self.text, expr=self.expr)


@dataclass
class LoopDependences:
    """Everything PED knows about one loop."""

    loop: LoopInfo
    dependences: list[Dependence]
    privatizable: set[str]
    #: names of scalars involved in recognized reduction patterns
    reductions: set[str] = field(default_factory=set)
    #: degraded-mode notes: non-empty when part of the analysis failed
    #: or ran out of budget and dependences were conservatively assumed
    degraded: list[str] = field(default_factory=list)

    def __getstate__(self) -> dict:
        # the nest belongs to its unit's loop tree, which is derived:
        # whoever unpickles an analysis rebinds ``loop`` to a live nest
        return {**self.__dict__, "loop": None}

    @property
    def is_degraded(self) -> bool:
        return bool(self.degraded)

    def carried(self) -> list[Dependence]:
        return [d for d in self.dependences if d.loop_carried and d.active]

    def parallelizable(self) -> bool:
        """No active loop-carried dependence at this loop's level.

        A degraded analysis is never parallelizable: incomplete
        information must read as "dependence assumed" (the sound
        conservative fallback), not as independence.
        """
        if self.degraded:
            return False
        return not [d for d in self.carried() if d.level == 1
                    and d.dtype is not DepType.INPUT]


def degraded_loop_dependences(li: LoopInfo, reason: str) -> LoopDependences:
    """Conservative stand-in when a loop's analysis failed outright.

    One synthetic assumed dependence keeps every safety check honest
    (``parallelizable()`` is False, transformations see a carried edge)
    and gives the dependence pane a row to flag.
    """
    ref = Reference(var="*", stmt_uid=li.loop.uid, line=li.line,
                    is_write=True, text=f"{li.id} (unanalyzed)")
    dep = Dependence(dtype=DepType.TRUE, source=ref, sink=ref,
                     vector=(ANY,), distances=(None,), level=1,
                     mark=Mark.PENDING,
                     reason=f"dependence assumed: {reason}",
                     nest_ids=(li.id,))
    return LoopDependences(loop=li, dependences=[dep], privatizable=set(),
                           degraded=[reason])


def _reverse_vector(dv: DirectionVector) -> DirectionVector:
    flip = {LT: GT, GT: LT, EQ: EQ, ANY: ANY}
    return tuple(flip[d] for d in dv)


def _lex_sign(dv: DirectionVector) -> str:
    for d in dv:
        if d == LT:
            return LT
        if d == GT:
            return GT
        if d == ANY:
            return ANY
    return EQ


def merge_vectors(vectors: list[DirectionVector]) -> list[DirectionVector]:
    """Collapse a set of concrete vectors into '*'-compressed rows."""
    if not vectors:
        return []
    n = len(vectors[0])
    per_pos = [sorted({v[i] for v in vectors}) for i in range(n)]
    product_size = 1
    for s in per_pos:
        product_size *= len(s)
    if product_size == len(set(vectors)):
        return [tuple(ANY if len(s) == 3 else (s[0] if len(s) == 1 else ANY)
                      for s in per_pos)] \
            if all(len(s) in (1, 3) for s in per_pos) \
            else sorted(set(vectors))
    return sorted(set(vectors))


class DependenceAnalyzer:
    """Computes dependences for the loops of one program unit."""

    def __init__(self, uir: UnitIR,
                 oracle: SideEffectOracle | None = None,
                 facts: FactBase | None = None,
                 include_input: bool = False,
                 use_scalar_kills: bool = True,
                 use_symbolic_relations: bool = True,
                 use_constants: bool = True,
                 extra_env: dict[str, LinearExpr] | None = None,
                 budget: "_budget.AnalysisBudget | None" = None):
        self.uir = uir
        self.oracle = oracle or SideEffectOracle()
        self.facts = facts or FactBase()
        self.include_input = include_input
        self.use_scalar_kills = use_scalar_kills
        self.use_symbolic_relations = use_symbolic_relations
        self.use_constants = use_constants
        #: additional substitutions (e.g. equality assertions JM = JMAX-1)
        self.extra_env = dict(extra_env or {})
        #: per-loop step/time budget; None defers to repro.perf.budget
        self.budget = budget
        self._defuse = None
        self._constmap = None

    # -- shared unit-level analyses -----------------------------------------

    @property
    def defuse(self):
        if self._defuse is None:
            self._defuse = compute_defuse(self.uir.cfg, self.uir.symtab,
                                          self.oracle)
        return self._defuse

    @property
    def constmap(self):
        if self._constmap is None:
            self._constmap = propagate_constants(self.uir.cfg,
                                                 self.uir.symtab, self.oracle)
        return self._constmap

    # -- environment ----------------------------------------------------------

    def _env_at(self, loop: LoopInfo) -> dict[str, LinearExpr]:
        env: dict[str, LinearExpr] = {}
        st = self.uir.symtab
        inv = invariant_names(loop.loop, st, self.oracle)
        if self.use_constants:
            for name, v in self.constmap.const_env(loop.loop.uid).items():
                if name in inv and isinstance(v, int):
                    env[name] = LinearExpr.constant(v)
        if self.use_symbolic_relations:
            rel = symbolic_relations(self.defuse, self.uir.cfg,
                                     loop.loop.uid, st)
            for name, le in rel.items():
                if name in inv and name not in env \
                        and le.variables() <= inv:
                    env[name] = le
        for name, le in self.extra_env.items():
            name = name.upper()
            if name in inv and name not in env:
                env[name] = le
        return env

    # -- reference collection --------------------------------------------------

    def _collect_refs(self, loop: LoopInfo) -> list[RefSite]:
        st = self.uir.symtab
        tree = self.uir.loops
        refs: list[RefSite] = []
        order = [0]

        def visit(body: list[ast.Stmt], chain: tuple[int, ...]) -> None:
            for s in body:
                order[0] += 1
                here = order[0]
                if isinstance(s, ast.CallStmt):
                    self._call_refs(s, chain, here, refs)
                else:
                    for a in accesses(s, st, self.oracle):
                        refs.append(RefSite(
                            var=a.name, stmt=s, is_write=a.is_def,
                            chain=chain, order=here, expr=a.ref,
                            test_subs=(a.ref.subscripts
                                       if isinstance(a.ref, ast.ArrayRef)
                                       else None)))
                if isinstance(s, ast.DoLoop):
                    visit(s.body, chain + (s.uid,))
                else:
                    for blk in s.blocks():
                        visit(blk, chain)

        visit([loop.loop], ())
        # The chain built above includes the selected loop as its first
        # element for statements inside it.
        return refs

    def _call_refs(self, s: ast.CallStmt, chain: tuple[int, ...],
                   order: int, refs: list[RefSite]) -> None:
        st = self.uir.symtab
        array_accesses = None
        if hasattr(self.oracle, "call_array_accesses"):
            array_accesses = self.oracle.call_array_accesses(
                st, s.name, s.args)
        # Scalar / name-level effects from the oracle.
        seen_arrays: set[str] = set()
        if array_accesses is not None:
            for ca in array_accesses:
                seen_arrays.add(ca.array)
                refs.append(RefSite(
                    var=ca.array, stmt=s, is_write=ca.is_write, chain=chain,
                    order=order, expr=None, test_subs=ca.subscripts,
                    from_call=True))
        for a in accesses(s, st, self.oracle):
            sym = st.get(a.name)
            if sym is not None and sym.is_array:
                if array_accesses is not None and a.name in seen_arrays:
                    continue
                if array_accesses is not None:
                    continue  # oracle enumerated arrays exhaustively
            refs.append(RefSite(
                var=a.name, stmt=s, is_write=a.is_def, chain=chain,
                order=order, expr=a.ref,
                test_subs=(a.ref.subscripts
                           if isinstance(a.ref, ast.ArrayRef) else None),
                from_call=a.ref is None))

    # -- auxiliary induction rewriting ----------------------------------------

    def _aux_subst(self, loop: LoopInfo) -> tuple[dict[str, ast.Expr],
                                                  dict[str, int]]:
        """AST substitutions for auxiliary induction variables.

        ``K`` becomes ``K.0 + step * (I - lo)`` where ``K.0`` is an opaque
        entry-value symbol shared by source and sink (it cancels in the
        dependence equation).  Returns (substitution map, last update
        order per variable) so refs after the update get ``+ step``.
        """
        subst: dict[str, ast.Expr] = {}
        update_uids: dict[str, tuple[int, ...]] = {}
        for aux in auxiliary_inductions(loop.loop, self.uir.symtab,
                                        self.oracle):
            if not aux.step.is_affine:
                continue
            step_e = to_expr(aux.step)
            iter_count = ast.BinOp("-", ast.VarRef(loop.loop.var),
                                   loop.loop.start)
            subst[aux.var] = ast.BinOp(
                "+", ast.VarRef(aux.var + ".0"),
                ast.BinOp("*", step_e, iter_count))
            update_uids[aux.var] = aux.defining_uids
        return subst, {v: max(u) for v, u in update_uids.items()}

    # -- iteration-local copy propagation ---------------------------------------

    def _iteration_copies(self, li: LoopInfo
                          ) -> dict[str, tuple[ast.Expr, int]]:
        """Scalars assigned once, unconditionally, at the top of the body.

        dpmin's ``I3 = IT(N)`` is the motivating pattern: forwarding the
        copy into subscripts turns opaque scalars into index-array
        references the fact base can reason about.  Returns
        ``var -> (rhs, defining order)``; substitution is only valid for
        references executing after the definition in the same iteration.
        """
        st = self.uir.symtab
        inv = invariant_names(li.loop, st, self.oracle)
        # Count defs of each scalar across the whole body.
        def_count: dict[str, int] = {}
        for s, _ in ast.walk_stmts(li.loop.body):
            for a in accesses(s, st, self.oracle):
                if a.is_def:
                    def_count[a.name] = def_count.get(a.name, 0) + 1

        # Pre-order numbering matching _collect_refs.
        order_map: dict[int, int] = {}
        counter = [0]

        def number(body: list[ast.Stmt]) -> None:
            for s in body:
                counter[0] += 1
                order_map[s.uid] = counter[0]
                for blk in s.blocks():
                    number(blk)

        number([li.loop])

        copies: dict[str, tuple[ast.Expr, int]] = {}
        for s in li.loop.body:
            order = order_map[s.uid]
            if not isinstance(s, ast.Assign) \
                    or not isinstance(s.target, ast.VarRef):
                continue
            v = s.target.name
            sym = st.get(v)
            if sym is None or sym.is_array or def_count.get(v, 0) != 1:
                continue
            ok = True
            for name in ast.variables_in(s.value):
                if name in inv or name == li.loop.var or name in copies:
                    continue
                ok = False
                break
            if ok and v not in ast.variables_in(s.value):
                copies[v] = (s.value, order)
        return copies

    @staticmethod
    def _apply_copies(expr: ast.Expr, copies: dict[str, tuple[ast.Expr, int]],
                      ref_order: int, depth: int = 4) -> ast.Expr:
        for _ in range(depth):
            env = {v: rhs for v, (rhs, o) in copies.items() if o < ref_order}
            new = ast.substitute(expr, env)
            if new == expr:
                return new
            expr = new
        return expr

    # -- main entry -------------------------------------------------------------

    def analyze_loop(self, loop: "LoopInfo | str | ast.DoLoop"
                     ) -> LoopDependences:
        """Analyze one loop, degrading (never raising) on internal faults.

        A bad loop key still raises (that is a caller error); once the
        loop is found, any failure inside the analysis pipeline or an
        exhausted budget produces a conservative result whose
        ``degraded`` notes say what was skipped.
        """
        li = self.uir.loops.find(loop)
        try:
            return self._analyze(li)
        except Exception as e:  # degraded mode: assume dependence
            _counters.bump("degraded_loops")
            return degraded_loop_dependences(
                li, f"loop analysis failed: {type(e).__name__}: {e}")

    @staticmethod
    def _guard(thunk, fallback, notes: list[str], what: str):
        """Run one optional analysis phase; on failure note it and fall
        back to the (conservative) default instead of aborting."""
        try:
            return thunk()
        except Exception as e:
            notes.append(f"{what} unavailable ({type(e).__name__}: {e})")
            return fallback

    def _analyze(self, li: LoopInfo) -> LoopDependences:
        st = self.uir.symtab
        notes: list[str] = []
        meter = (self.budget or _budget.current()).meter()
        # Refinement phases may fail individually: each falls back to
        # "no information", which only weakens (never unsounds) testing.
        env = self._guard(lambda: self._env_at(li), {}, notes,
                          "symbolic environment")
        facts = self._guard(lambda: self._facts_with_ranges(env),
                            self.facts, notes, "fact base ranges")
        refs = self._collect_refs(li)
        aux_subst, _aux_last = self._guard(
            lambda: self._aux_subst(li), ({}, {}), notes,
            "auxiliary induction analysis")
        copies = self._guard(lambda: self._iteration_copies(li), {}, notes,
                             "iteration-copy propagation")

        def rewrite_subs():
            for i, r in enumerate(refs):
                if r.test_subs is None:
                    continue
                subs = r.test_subs
                if copies:
                    subs = tuple(self._apply_copies(sub, copies, r.order)
                                 for sub in subs)
                if aux_subst:
                    subs = tuple(ast.substitute(sub, aux_subst)
                                 for sub in subs)
                if subs != r.test_subs:
                    refs[i] = replace(r, test_subs=subs)

        self._guard(rewrite_subs, None, notes, "subscript rewriting")

        private = set(li.loop.private_vars)
        if self.use_scalar_kills:
            private |= self._guard(
                lambda: privatizable_names(li.loop, st, self.oracle),
                set(), notes, "scalar kill analysis")

        deps: list[Dependence] = []
        deps.extend(self._array_dependences(li, refs, env, facts,
                                            meter, notes))
        scalar_deps, reductions = self._guard(
            lambda: self._scalar_dependences(li, refs, private, aux_subst),
            ([], set()), notes, "scalar dependence analysis")
        deps.extend(scalar_deps)
        deps.sort(key=lambda d: (d.var, d.source.line, d.sink.line))
        if notes:
            _counters.bump("degraded_loops")
        return LoopDependences(loop=li, dependences=deps,
                               privatizable=private, reductions=reductions,
                               degraded=notes)

    def _facts_with_ranges(self, env: dict[str, LinearExpr]) -> FactBase:
        fb = FactBase(list(self.facts.linear),
                      list(self.facts.index_arrays),
                      dict(self.facts.ranges))
        for name, le in env.items():
            c = le.int_const
            if c is not None:
                fb.assert_range(name, c, c)
        return fb

    # -- array dependences --------------------------------------------------------

    def _array_dependences(self, li: LoopInfo, refs: list[RefSite],
                           env: dict[str, LinearExpr],
                           facts: FactBase,
                           meter: "_budget.BudgetMeter | None" = None,
                           notes: list[str] | None = None
                           ) -> list[Dependence]:
        st = self.uir.symtab
        arrays: dict[str, list[RefSite]] = {}
        for r in refs:
            if r.var in li.loop.private_vars:
                continue  # user/analysis classified the array private
            sym = st.get(r.var)
            if sym is not None and sym.is_array:
                arrays.setdefault(r.var, []).append(r)

        out: list[Dependence] = []
        for var, sites in sorted(arrays.items()):
            n = len(sites)
            for i in range(n):
                for j in range(i, n):
                    a, b = sites[i], sites[j]
                    if not (a.is_write or b.is_write):
                        if not self.include_input:
                            continue
                    if i == j:
                        continue
                    out.extend(self._test_site_pair(li, a, b, env, facts,
                                                    meter, notes))
        return out

    def _loop_ctxs(self, li: LoopInfo, chain: tuple[int, ...],
                   env: dict[str, LinearExpr]) -> list[LoopCtx]:
        tree = self.uir.loops
        ctxs: list[LoopCtx] = []
        for uid in chain:
            lp = tree.by_uid[uid].loop
            lo = linearize(lp.start, env)
            hi = linearize(lp.end, env)
            step_le = linearize(lp.step, env) if lp.step is not None \
                else LinearExpr.constant(1)
            step = step_le.int_const
            if step is not None and step < 0:
                # Normalize to an ascending index range; the tests flip
                # direction sense for the negative step.
                lo, hi = hi, lo
            ctxs.append(LoopCtx(var=lp.var, lo=lo, hi=hi, step=step))
        return ctxs

    def _test_site_pair(self, li: LoopInfo, a: RefSite, b: RefSite,
                        env: dict[str, LinearExpr],
                        facts: FactBase,
                        meter: "_budget.BudgetMeter | None" = None,
                        notes: list[str] | None = None) -> list[Dependence]:
        # common nest: longest common prefix of the two loop chains
        chain: list[int] = []
        for x, y in zip(a.chain, b.chain):
            if x == y:
                chain.append(x)
            else:
                break
        if not chain:
            return []
        loops = self._loop_ctxs(li, tuple(chain), env)
        nest_ids = tuple(self.uir.loops.by_uid[u].id for u in chain)

        if a.test_subs is None or b.test_subs is None:
            # Whole-array / unknown-section access: assume everything.
            result = PairResult(
                vectors=[v for v in _all_vectors(len(loops))],
                exact=False,
                reason="summarized array access (no section information)")
        else:
            try:
                if meter is not None:
                    meter.tick()
                result = test_pair(a.test_subs, b.test_subs, loops, env,
                                   facts)
            except Exception as e:
                # Degraded pair: assume every direction rather than fail
                # the whole loop.  Budget exhaustion lands here too (the
                # meter keeps raising, so every remaining pair degrades).
                if isinstance(e, _budget.BudgetExhausted):
                    reason = str(e)
                else:
                    reason = f"pair test failed: {type(e).__name__}: {e}"
                note = f"{a.var}: dependence assumed ({reason})"
                if notes is not None and note not in notes:
                    notes.append(note)
                    if isinstance(e, _budget.BudgetExhausted):
                        _counters.bump("budget_exhaustions")
                _counters.bump("degraded_pairs")
                result = PairResult(
                    vectors=[v for v in _all_vectors(len(loops))],
                    exact=False,
                    reason=f"dependence assumed: {reason}")

        return self._emit(a, b, result, nest_ids)

    def _emit(self, a: RefSite, b: RefSite, result: PairResult,
              nest_ids: tuple[str, ...]) -> list[Dependence]:
        if not result.vectors:
            return []
        fwd: list[DirectionVector] = []
        bwd: list[DirectionVector] = []
        indep_pair: bool = False
        for v in result.vectors:
            sign = _lex_sign(v)
            if sign == LT:
                fwd.append(v)
            elif sign == GT:
                bwd.append(_reverse_vector(v))
            elif sign == EQ:
                indep_pair = True
            else:  # ANY at the deciding position: both ways possible
                fwd.append(v)
                bwd.append(_reverse_vector(v))

        out: list[Dependence] = []
        mark = Mark.PROVEN if result.exact else Mark.PENDING
        reason = result.reason if not result.exact else "exact test"

        def mk(src: RefSite, snk: RefSite,
               vectors: list[DirectionVector], flipped: bool) -> None:
            if not vectors:
                return
            dtype = _dep_type(src, snk)
            if dtype is None:
                return
            for dv in merge_vectors(vectors):
                level = _carrier(dv)
                dists = []
                for k, d in enumerate(dv):
                    if d == EQ:
                        dists.append(0)
                        continue
                    dk = result.distances.get(k)
                    # distances were computed for the (a, b) orientation;
                    # the flipped dependence runs sink-to-source
                    dists.append(-dk if (flipped and dk is not None)
                                 else dk)
                out.append(Dependence(
                    dtype=dtype, source=src.to_reference(),
                    sink=snk.to_reference(), vector=dv,
                    distances=tuple(dists),
                    level=level, mark=mark, reason=reason,
                    nest_ids=nest_ids))

        mk(a, b, fwd, False)
        mk(b, a, bwd, True)
        if indep_pair and a.stmt.uid != b.stmt.uid:
            src, snk = (a, b) if a.order <= b.order else (b, a)
            dtype = _dep_type(src, snk)
            if dtype is not None:
                n = len(nest_ids)
                out.append(Dependence(
                    dtype=dtype, source=src.to_reference(),
                    sink=snk.to_reference(), vector=(EQ,) * n,
                    distances=(0,) * n, level=None, mark=mark,
                    reason=reason, nest_ids=nest_ids))
        return out

    # -- scalar dependences ----------------------------------------------------

    def _scalar_dependences(self, li: LoopInfo, refs: list[RefSite],
                            private: set[str],
                            aux_subst: dict[str, ast.Expr]
                            ) -> tuple[list[Dependence], set[str]]:
        st = self.uir.symtab
        loop_vars = {s.var for s in li.statements()
                     if isinstance(s, ast.DoLoop)} | {li.loop.var}
        scalars: dict[str, list[RefSite]] = {}
        for r in refs:
            sym = st.get(r.var)
            if sym is None or sym.is_array:
                continue
            if r.var in loop_vars or r.var in aux_subst:
                continue
            scalars.setdefault(r.var, []).append(r)

        reductions = self._find_reductions(li)
        depth = 1  # scalar deps reported at the selected loop's level
        out: list[Dependence] = []
        for var, sites in sorted(scalars.items()):
            writes = [r for r in sites if r.is_write]
            reads = [r for r in sites if not r.is_write]
            if not writes:
                continue
            is_private = var in private
            is_reduction = var in reductions
            reason = ("same-iteration scalar flow (variable is private)"
                      if is_private
                      else "sum reduction candidate" if is_reduction
                      else "scalar carried across iterations")
            seen: set[tuple[int, int, DepType]] = set()

            def emit(src: RefSite, snk: RefSite, dtype: DepType,
                     carried: bool) -> None:
                key = (src.stmt.uid, snk.stmt.uid, dtype)
                if key in seen:
                    return
                seen.add(key)
                out.append(Dependence(
                    dtype=dtype, source=src.to_reference(),
                    sink=snk.to_reference(),
                    vector=(ANY,) if carried else (EQ,),
                    distances=(None,) if carried else (0,),
                    level=1 if carried else None,
                    mark=Mark.PENDING, reason=reason,
                    nest_ids=(li.id,)))

            if is_private:
                # Privatization removes the *carried* dependences, but the
                # same-iteration def->use flow still orders statements
                # (distribution must not split a private temporary's
                # producer from its consumer).
                for w in writes:
                    for r in reads:
                        if w.stmt.uid == r.stmt.uid:
                            continue
                        if w.order < r.order:
                            emit(w, r, DepType.TRUE, False)
                        else:
                            emit(r, w, DepType.ANTI, False)
                    for w2 in writes:
                        if w2 is not w and w.order < w2.order:
                            emit(w, w2, DepType.OUTPUT, False)
                continue

            for w in writes:
                for r in reads:
                    emit(w, r, DepType.TRUE, True)
                    emit(r, w, DepType.ANTI, True)
                for w2 in writes:
                    if w2 is not w:
                        emit(w, w2, DepType.OUTPUT, True)
            if len(writes) == 1 and not reads:
                w = writes[0]
                emit(w, w, DepType.OUTPUT, True)
        return out, reductions

    def _find_reductions(self, li: LoopInfo) -> set[str]:
        """Scalars updated only by associative accumulation ``s = s op e``."""
        st = self.uir.symtab
        cands: dict[str, int] = {}
        disq: set[str] = set()
        for s in [x for x, _ in ast.walk_stmts(li.loop.body)]:
            if isinstance(s, ast.Assign) and isinstance(s.target, ast.VarRef):
                v = s.target.name
                if _is_reduction_rhs(s.value, v):
                    cands[v] = cands.get(v, 0) + 1
                    continue
                disq.add(v)
                if v in _names(s.value):
                    pass
            else:
                for a in accesses(s, st, self.oracle):
                    if a.is_def:
                        disq.add(a.name)
            # uses of the candidate outside its own update disqualify
            if isinstance(s, ast.Assign):
                rhs_names = _names(s.value)
                tgt = s.target.name if isinstance(s.target, ast.VarRef) \
                    else None
                for v in rhs_names:
                    if v != tgt and v in cands:
                        disq.add(v)
            else:
                for e in s.exprs():
                    disq |= _names(e) & set(cands)
        return {v for v in cands if v not in disq
                and not (st.get(v) and st.get(v).is_array)}


def _names(e: ast.Expr) -> set[str]:
    return {n.name for n in ast.walk_expr(e)
            if isinstance(n, (ast.VarRef, ast.ArrayRef))}


def _is_reduction_rhs(value: ast.Expr, var: str) -> bool:
    """``var + e`` / ``var - e`` / ``var * e`` / MAX/MIN(var, e) patterns
    where ``e`` does not mention ``var``."""
    if isinstance(value, ast.BinOp) and value.op in ("+", "-", "*"):
        l, r = value.left, value.right
        if isinstance(l, ast.VarRef) and l.name == var \
                and var not in _names(r):
            return True
        if value.op == "+" and isinstance(r, ast.VarRef) and r.name == var \
                and var not in _names(l):
            return True
    if isinstance(value, ast.FuncRef) and value.name in ("MAX", "MIN",
                                                         "AMAX1", "AMIN1",
                                                         "MAX0", "MIN0",
                                                         "DMAX1", "DMIN1"):
        args = value.args
        if len(args) == 2:
            for k in (0, 1):
                if isinstance(args[k], ast.VarRef) \
                        and args[k].name == var \
                        and var not in _names(args[1 - k]):
                    return True
    return False


def _dep_type(src: RefSite, snk: RefSite) -> DepType | None:
    if src.is_write and not snk.is_write:
        return DepType.TRUE
    if not src.is_write and snk.is_write:
        return DepType.ANTI
    if src.is_write and snk.is_write:
        return DepType.OUTPUT
    return DepType.INPUT


def _carrier(dv: DirectionVector) -> int | None:
    for i, d in enumerate(dv):
        if d in (LT, ANY):
            return i + 1
        if d == GT:
            return None
    return None


def _all_vectors(n: int):
    from .model import expand_vector
    return list(expand_vector((ANY,) * n))
