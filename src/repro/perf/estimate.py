"""Static performance estimation (Section 3.2; Kennedy-McIntosh-McKinley
[26]).

Workshop users asked PED to point them at the loops "where effective
parallelization would have the highest payoff"; ParaScope added a static
estimator for exactly this.  Ours walks the AST with the same cost
constants as the interpreter's virtual clock, multiplying by trip counts
(statically known bounds where possible, a documented default otherwise)
and folding in callee estimates bottom-up over the call graph, so the
static ranking and the dynamic profile are directly comparable.

With the fork-join DOALL runtime attached (:mod:`repro.interp.runtime`)
the estimate can also be *checked*: :func:`measure_parallel_payoff` runs
the program once with one worker and once with N, reads the per-loop
runtime statistics, and reports measured wall-clock speedup next to the
cost-model prediction.  :func:`navigation_report` folds these into the
ranking view so navigation is driven by evidence, not only by the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.constants import propagate_constants
from ..analysis.linear import LinearExpr, linearize
from ..fortran import ast
from ..interp.machine import COST_BRANCH, COST_CALL, COST_INTRINSIC, \
    COST_MEMREF, COST_OP, COST_STMT
from ..ir.loops import LoopInfo
from ..ir.program import AnalyzedProgram

#: assumed trip count for loops whose bounds are not compile-time known
DEFAULT_TRIP = 100


@dataclass
class LoopEstimate:
    unit: str
    loop: LoopInfo
    #: estimated time for one entry of the loop (all iterations)
    time: float
    trip: int
    trip_known: bool

    @property
    def id(self) -> str:
        return f"{self.unit}:{self.loop.id}"


@dataclass
class ProgramEstimate:
    total: float
    units: dict[str, float]
    loops: list[LoopEstimate] = field(default_factory=list)

    def ranked_loops(self) -> list[LoopEstimate]:
        return sorted(self.loops, key=lambda e: -e.time)

    def ranked_units(self) -> list[tuple[str, float]]:
        return sorted(self.units.items(), key=lambda kv: -kv[1])

    def loop_fraction(self, est: LoopEstimate) -> float:
        return est.time / self.total if self.total > 0 else 0.0


def _expr_cost(e: ast.Expr) -> float:
    cost = 0.0
    for node in ast.walk_expr(e):
        if isinstance(node, ast.BinOp):
            cost += COST_OP.get(node.op, 1)
        elif isinstance(node, ast.UnOp):
            cost += 1
        elif isinstance(node, ast.ArrayRef):
            cost += COST_MEMREF
        elif isinstance(node, ast.FuncRef) and node.intrinsic:
            cost += COST_INTRINSIC
    return cost


class Estimator:
    def __init__(self, program: AnalyzedProgram,
                 default_trip: int = DEFAULT_TRIP):
        self.program = program
        self.default_trip = default_trip
        self._unit_cost: dict[str, float] = {}
        self._loops: list[LoopEstimate] = []

    def estimate(self) -> ProgramEstimate:
        order = self.program.callgraph.reverse_topo_order()
        for name in order:
            if name in self.program.units:
                self._unit_cost[name] = self._estimate_unit(name)
        for name in self.program.units:
            if name not in self._unit_cost:
                self._unit_cost[name] = self._estimate_unit(name)
        main = self.program.main_unit
        total = self._unit_cost.get(main.unit.name, 0.0) if main else \
            sum(self._unit_cost.values())
        return ProgramEstimate(total=total, units=dict(self._unit_cost),
                               loops=list(self._loops))

    # -- per-unit ---------------------------------------------------------------

    def _estimate_unit(self, name: str) -> float:
        uir = self.program.units[name]
        cmap = propagate_constants(uir.cfg, uir.symtab)
        env: dict[str, LinearExpr] = {}
        for var, v in cmap.globals_.items():
            if isinstance(v, int):
                env[var] = LinearExpr.constant(v)
        consts = {var: v for var, v in cmap.globals_.items()
                  if isinstance(v, int)}

        def trip_of(lp: ast.DoLoop, local: dict[str, int]) -> tuple[int,
                                                                    bool]:
            lo = linearize(lp.start, _env_of(local))
            hi = linearize(lp.end, _env_of(local))
            step = linearize(lp.step, _env_of(local)).int_const \
                if lp.step is not None else 1
            if lo.int_const is not None and hi.int_const is not None \
                    and step:
                return max(0, (hi.int_const - lo.int_const + step)
                           // step), True
            return self.default_trip, False

        def _env_of(local: dict[str, int]) -> dict[str, LinearExpr]:
            out = dict(env)
            for k, v in local.items():
                out[k] = LinearExpr.constant(v)
            return out

        def body_cost(body: list[ast.Stmt], local: dict[str, int]) -> float:
            cost = 0.0
            for s in body:
                cost += self._stmt_cost(s, local, trip_of, body_cost, uir)
            return cost

        # Seed local constants from simple top-level assignments so
        # ``N = 100`` before the loops feeds trip counts.
        local: dict[str, int] = dict(consts)
        for s in uir.unit.body:
            if isinstance(s, ast.Assign) and isinstance(s.target,
                                                        ast.VarRef):
                le = linearize(s.value, _env_of(local))
                if le.int_const is not None:
                    local[s.target.name] = le.int_const
        return body_cost(uir.unit.body, local)

    def _stmt_cost(self, s: ast.Stmt, local, trip_of, body_cost, uir
                   ) -> float:
        if isinstance(s, (ast.TypeDecl, ast.DimensionStmt, ast.CommonStmt,
                          ast.ParameterStmt, ast.DataStmt, ast.SaveStmt,
                          ast.ExternalStmt, ast.IntrinsicStmt,
                          ast.ImplicitStmt, ast.FormatStmt)):
            return 0.0
        if isinstance(s, ast.Assign):
            return COST_STMT + COST_MEMREF + _expr_cost(s.value) \
                + _expr_cost(s.target) + self._call_costs(s.value)
        if isinstance(s, ast.DoLoop):
            trip, known = trip_of(s, local)
            inner = body_cost(s.body, local)
            time = trip * (inner + COST_STMT) + COST_STMT
            li = uir.loops.by_uid.get(s.uid)
            if li is not None:
                self._loops.append(LoopEstimate(
                    unit=uir.unit.name, loop=li, time=time, trip=trip,
                    trip_known=known))
            return time
        if isinstance(s, ast.IfBlock):
            # expected cost: condition + average of the arms
            arms = [body_cost(s.then_body, local)]
            for _, a in s.elifs:
                arms.append(body_cost(a, local))
            arms.append(body_cost(s.else_body, local))
            return COST_BRANCH + _expr_cost(s.cond) \
                + sum(arms) / max(len(arms), 1)
        if isinstance(s, ast.LogicalIf):
            return COST_BRANCH + _expr_cost(s.cond) + 0.5 * self._stmt_cost(
                s.stmt, local, trip_of, body_cost, uir)
        if isinstance(s, (ast.ArithIf, ast.Goto, ast.ComputedGoto)):
            return COST_BRANCH
        if isinstance(s, ast.CallStmt):
            callee = self._unit_cost.get(s.name.upper(), COST_CALL)
            return COST_CALL + callee \
                + sum(_expr_cost(a) for a in s.args)
        if isinstance(s, (ast.ReadStmt, ast.WriteStmt)):
            return COST_STMT * (1 + len(s.items))
        return COST_STMT

    def _call_costs(self, e: ast.Expr) -> float:
        cost = 0.0
        for node in ast.walk_expr(e):
            if isinstance(node, ast.FuncRef) and not node.intrinsic:
                cost += COST_CALL + self._unit_cost.get(node.name.upper(),
                                                        0.0)
        return cost


def estimate_program(program: AnalyzedProgram,
                     default_trip: int = DEFAULT_TRIP) -> ProgramEstimate:
    return Estimator(program, default_trip).estimate()


@dataclass
class LoopSpeedup:
    """Measured behaviour of one PARALLEL DO under the DOALL runtime."""

    unit: str
    loop_id: str
    line: int
    uid: int
    #: cost-model prediction: virtual serial time / virtual parallel time
    predicted: float
    #: wall-clock speedup: 1-worker elapsed / N-worker elapsed
    measured: float
    wall_serial: float
    wall_parallel: float
    iters: int
    workers: int

    @property
    def id(self) -> str:
        return f"{self.unit}:{self.loop_id}"


def measure_parallel_payoff(program, inputs=None, workers: int = 4,
                            schedule: str = "static",
                            engine: str = "compiled"
                            ) -> list[LoopSpeedup]:
    """Execute a program's PARALLEL DO loops through the DOALL runtime
    and report measured vs. predicted speedup per loop.

    Runs the program twice through the DOALL runtime -- once with one
    worker and once with ``workers`` -- so the wall-clock ratio shows
    what the extra chunks cost or save.  Loops that fell back to the
    serial simulation in either run are absent from the result.
    ``engine`` selects the execution tier both runs use (the worlds
    explorer measures payoffs on the vector tier too).
    """
    from ..interp.verify import analyzed_program, run_program
    prog = analyzed_program(program)
    base = run_program(prog, inputs=list(inputs or []), engine=engine,
                       workers=1, schedule=schedule)
    par = run_program(prog, inputs=list(inputs or []), engine=engine,
                      workers=workers, schedule=schedule)
    by_uid: dict[int, tuple[str, LoopInfo]] = {}
    for uname, uir in prog.units.items():
        for uid, li in uir.loops.by_uid.items():
            by_uid[uid] = (uname, li)
    out: list[LoopSpeedup] = []
    for uid, sp in sorted(par._par_stats.items()):
        sb = base._par_stats.get(uid)
        if sb is None or uid not in by_uid:
            continue
        uname, li = by_uid[uid]
        predicted = (sp["virtual_serial"] / sp["virtual_parallel"]
                     if sp["virtual_parallel"] > 0 else float("inf"))
        measured = (sb["wall"] / sp["wall"]
                    if sp["wall"] > 0 else float("inf"))
        out.append(LoopSpeedup(
            unit=uname, loop_id=li.id, line=li.line, uid=uid,
            predicted=predicted, measured=measured,
            wall_serial=sb["wall"], wall_parallel=sp["wall"],
            iters=sp["iters"], workers=sp["workers"]))
    out.sort(key=lambda ls: -ls.wall_serial)
    return out


def navigation_report(program: AnalyzedProgram, top: int = 10,
                      measured: list[LoopSpeedup] | None = None) -> str:
    """The textual loop-ranking view PED's navigation uses.

    With ``measured`` (from :func:`measure_parallel_payoff`) the static
    ranking is followed by a measured-vs-predicted section so the user
    can see where the cost model and the worker pool disagree.

    Each ranked loop also shows its vector-tier lowering decision
    (``vec(d2)`` = executes as a depth-2 bulk numpy nest under
    ``engine="vector"``, otherwise the reason it stays on the closure
    engine), mirroring the runtime's per-loop fallback reporting.
    """
    est = estimate_program(program)
    try:
        from ..interp.vectorize import lowering_decisions
        decisions = lowering_decisions(program)
    except Exception:   # navigation must not depend on lowering success
        decisions = {}
    lines = [f"{'rank':>4}  {'loop':<14} {'line':>5} {'est. time':>12} "
             f"{'share':>6}  {'trip':<8} vector"]
    for i, le in enumerate(est.ranked_loops()[:top], 1):
        share = 100.0 * est.loop_fraction(le)
        trip = str(le.trip) + ("" if le.trip_known else "?")
        dec = decisions.get((le.unit, le.loop.uid))
        if dec is None:
            vec = "-"
        elif dec.vectorized:
            vec = f"vec(d{dec.depth})"
        else:
            vec = dec.reason or "no"
        lines.append(f"{i:>4}  {le.id:<14} {le.loop.line:>5} "
                     f"{le.time:>12.0f} {share:>5.1f}%  {trip:<8} {vec}")
    if measured:
        lines.append("")
        lines.append(f"measured on {measured[0].workers} workers "
                     f"(wall-clock vs. cost-model prediction)")
        lines.append(f"{'loop':<14} {'line':>5} {'iters':>8} "
                     f"{'predicted':>10} {'measured':>9}")
        for ls in measured[:top]:
            lines.append(f"{ls.id:<14} {ls.line:>5} {ls.iters:>8} "
                         f"{ls.predicted:>9.2f}x {ls.measured:>8.2f}x")
    return "\n".join(lines)
