"""Hierarchical data-dependence tests (Goff-Kennedy-Tseng style).

Given two subscripted references to the same array inside a common loop
nest, decide for which direction vectors a dependence can exist.  The
suite runs cheap exact tests first and falls back to conservative ones:

* **ZIV** -- subscripts free of loop indices: constant difference decides;
* **strong SIV** -- equal coefficients on one index: exact distance;
* **weak-zero / weak-crossing SIV** -- one-sided or negated coefficients:
  exact intersection/crossing point, checked against loop bounds;
* **GCD** -- divisibility of the constant term by the coefficient gcd;
* **Banerjee** -- symbolic interval bounding of the dependence equation
  under the direction constraints, with *symbolic* interval endpoints so
  that assertions such as ``MCN > IENDV(IR) - ISTRT(IR)`` (pueblo3d) can
  disprove dependences even when loop bounds are unknown expressions;
* **index-array reasoning** -- permutation / monotone-gap / disjointness
  facts about arrays appearing in subscripts (dpmin's ``F(IT(N)+1)``).

A subscript pair tested only by exact tests yields a *proven* result;
anything that needed a conservative assumption is *pending* -- exactly the
marking discipline of Section 3.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from ..analysis.linear import LinearExpr, Number, linearize
from ..fortran import ast
from ..perf import counters as _counters
from ..store import MISS, declare as _declare_ns, get_store
from .facts import FactBase
from .model import ANY, EQ, GT, LT, DirectionVector, expand_vector

#: suffix distinguishing sink-iteration loop variables in the equation
SINK = "'"


@dataclass(frozen=True)
class LoopCtx:
    """Bounds context for one loop of the common nest."""

    var: str
    lo: LinearExpr | None      # None = unknown
    hi: LinearExpr | None
    step: int | None = 1

    @property
    def span(self) -> LinearExpr | None:
        """hi - lo (iteration range width), when both bounds are known."""
        if self.lo is None or self.hi is None:
            return None
        return self.hi - self.lo


@dataclass
class PairResult:
    """Outcome of testing one reference pair."""

    #: feasible concrete direction vectors (each entry in {<,=,>})
    vectors: list[DirectionVector] = field(default_factory=list)
    #: per-level constant distances valid for every feasible vector
    distances: dict[int, int] = field(default_factory=dict)
    exact: bool = True
    reason: str = ""

    @property
    def independent(self) -> bool:
        return not self.vectors


def rename_sink(e: ast.Expr, loop_vars: set[str]) -> ast.Expr:
    """Rename loop induction variables to their sink-iteration instances."""
    env = {v: ast.VarRef(v + SINK) for v in loop_vars}
    return ast.substitute(e, env)


def _subscript_equation(src: ast.Expr, snk: ast.Expr, loop_vars: set[str],
                        env: dict[str, LinearExpr]) -> LinearExpr:
    """h = src - snk with sink loop variables renamed (h = 0 <=> overlap)."""
    f = linearize(src, env)
    g = linearize(rename_sink(snk, loop_vars), env)
    return f - g


def _apply_equal_levels(h: LinearExpr, eq_vars: set[str]) -> LinearExpr:
    """Collapse sink instances onto source instances for '=' levels.

    Affine terms merge directly; residue expressions get the renamed
    variables substituted back so structurally-equal index-array
    references cancel (``IT(N')`` becomes ``IT(N)``).
    """
    out = LinearExpr.constant(h.const)
    for v, c in h.terms:
        if v.endswith(SINK) and v[:-len(SINK)] in eq_vars:
            out = out + LinearExpr.var(v[:-len(SINK)], c)
        else:
            out = out + LinearExpr.var(v, c)
    back = {v + SINK: ast.VarRef(v) for v in eq_vars}
    for c, e in h.residue:
        e2 = ast.substitute(e, back)
        out = out + LinearExpr.opaque(e2, c)
    return out


# --------------------------------------------------------------------------
# Symbolic interval arithmetic
# --------------------------------------------------------------------------

@dataclass
class SymInterval:
    """[lo, hi] with optionally-symbolic (LinearExpr) endpoints;
    None = unbounded on that side."""

    lo: LinearExpr | None = None
    hi: LinearExpr | None = None

    @staticmethod
    def exact(v: LinearExpr) -> "SymInterval":
        return SymInterval(v, v)

    def shift(self, d: LinearExpr) -> "SymInterval":
        return SymInterval(None if self.lo is None else self.lo + d,
                           None if self.hi is None else self.hi + d)

    def plus(self, other: "SymInterval") -> "SymInterval":
        lo = self.lo + other.lo if (self.lo is not None
                                    and other.lo is not None) else None
        hi = self.hi + other.hi if (self.hi is not None
                                    and other.hi is not None) else None
        return SymInterval(lo, hi)

    def scaled(self, c: Number) -> "SymInterval":
        if c == 0:
            z = LinearExpr()
            return SymInterval(z, z)
        lo = None if self.lo is None else self.lo.scale(c)
        hi = None if self.hi is None else self.hi.scale(c)
        if c < 0:
            lo, hi = hi, lo
        return SymInterval(lo, hi)


def _zero_feasible(rng: SymInterval, facts: FactBase) -> bool:
    """Can 0 lie in the (symbolically bounded) interval?"""
    if rng.lo is not None and facts.known_positive(rng.lo):
        return False
    if rng.hi is not None and facts.known_positive(-rng.hi):
        return False
    return True


# --------------------------------------------------------------------------
# Single-subscript feasibility under a direction vector
# --------------------------------------------------------------------------

def _delta_interval(direction: str, loop: LoopCtx) -> SymInterval:
    """Interval of delta = i_sink - i_source under a direction constraint.

    Normalized iteration counting assumes a positive step; negative-step
    loops are handled by the caller flipping the direction sense.
    """
    one = LinearExpr.constant(1)
    span = loop.span
    if direction == EQ:
        z = LinearExpr()
        return SymInterval(z, z)
    if direction == LT:
        return SymInterval(one, span)
    if direction == GT:
        return SymInterval(None if span is None else -span, -one)
    # ANY
    return SymInterval(None if span is None else -span, span)


def _index_array_checks(h: LinearExpr, dv_by_var: dict[str, str],
                        facts: FactBase) -> bool | None:
    """Index-array reasoning on the residue of the dependence equation.

    Returns False when the residue pattern proves independence, None when
    it says nothing.  Handles:

    * ``+A(v) - A(v')`` same array, one direction-constrained variable:
      permutation => no zero unless constant part is zero at '=' (already
      collapsed); monotone gap bounds the difference;
    * ``+A(v) - B(w')`` different arrays asserted disjoint.
    """
    if len(h.residue) != 2:
        return None
    (c1, e1), (c2, e2) = h.residue
    if {c1, c2} != {1, -1}:
        return None
    pos, neg = (e1, e2) if c1 == 1 else (e2, e1)
    if not (isinstance(pos, ast.ArrayRef) and isinstance(neg, ast.ArrayRef)):
        return None
    if len(pos.subscripts) != 1 or len(neg.subscripts) != 1:
        return None
    rest = LinearExpr(h.const, h.terms)  # everything but the residue pair
    if rest.terms:
        return None  # loop-variable terms remain; too complex
    c = rest.const

    def base_var(e: ast.Expr) -> str | None:
        if isinstance(e, ast.VarRef):
            return e.name[:-len(SINK)] if e.name.endswith(SINK) else e.name
        return None

    pv = base_var(pos.subscripts[0])
    nv = base_var(neg.subscripts[0])

    if pos.name == neg.name and pv is not None and pv == nv:
        d = dv_by_var.get(pv)
        if d in (LT, GT):
            # h = A(i) - A(i') + c with i != i'
            if facts.is_permutation(pos.name) and c == 0:
                return False
            g = facts.monotone_gap(pos.name)
            if g is not None:
                # i < i': A(i) - A(i') <= -g  => h <= c - g
                if d == LT and c - g < 0:
                    return False
                # i > i': A(i) - A(i') >= g  => h >= c + g
                if d == GT and c + g > 0:
                    return False
        return None
    if pos.name != neg.name:
        if facts.are_disjoint(pos.name, neg.name,
                              max_offset=int(abs(c))):
            return False
    return None


def _subscript_feasible(h: LinearExpr, dv: DirectionVector,
                        loops: list[LoopCtx], facts: FactBase) -> bool:
    """Feasibility of h = 0 under the direction vector ``dv``."""
    eq_vars = {loops[k].var for k, d in enumerate(dv) if d == EQ}
    h = _apply_equal_levels(h, eq_vars)

    dv_by_var = {loops[k].var: d for k, d in enumerate(dv)}
    ia = _index_array_checks(h, dv_by_var, facts)
    if ia is False:
        return False

    if h.residue:
        # Opaque residue left: can only be disproved by the fact base on
        # the full expression.
        s = facts.sign(h)
        return s not in ("+", "-")

    # Rewrite h over (i_k, delta_k): i'_k = i_k + delta_k.
    #   h = sum (a_k - b_k) i_k  -  sum b_k delta_k  +  sym
    by_level: dict[int, tuple[Number, Number]] = {}
    sym = LinearExpr.constant(h.const)
    var_level = {lp.var: k for k, lp in enumerate(loops)}
    for v, c in h.terms:
        base = v[:-len(SINK)] if v.endswith(SINK) else v
        if base in var_level:
            k = var_level[base]
            a, b = by_level.get(k, (0, 0))
            if v.endswith(SINK):
                b += -c  # term is c*i'_k; equation uses -b_k with b_k = -c
            else:
                a += c
            by_level[k] = (a, b)
        else:
            sym = sym + LinearExpr.var(v, c)

    # GCD test (integer coefficients, no symbolic terms).
    if sym.is_constant and sym.const.denominator == 1:
        coeffs = []
        ok = True
        for a, b in by_level.values():
            for c in (a, b):
                if c.denominator != 1:
                    ok = False
                if c != 0:
                    coeffs.append(int(c))
        if ok and coeffs:
            g = 0
            for c in coeffs:
                g = gcd(g, abs(c))
            if g and int(sym.const) % g != 0:
                return False

    # Interval of the loop-variable part.
    rng = SymInterval.exact(sym)
    for k, (a, b) in sorted(by_level.items()):
        loop = loops[k]
        d = dv[k]
        # effective direction under negative step reverses
        if loop.step is not None and loop.step < 0:
            d = {LT: GT, GT: LT}.get(d, d)
        # combined i_k coefficient: note h contains a*i + c_sink*i' where
        # i' = i + delta; i-coefficient total = a + (coefficient of i').
        ci_sink = -b  # we stored b = -(c_sink)
        ci_total = a + ci_sink
        if ci_total != 0:
            if loop.lo is not None and loop.hi is not None:
                rng = rng.plus(
                    SymInterval(loop.lo, loop.hi).scaled(ci_total))
            else:
                rng = SymInterval(None, None)
        if ci_sink != 0:
            rng = rng.plus(_delta_interval(d, loop).scaled(ci_sink))
        if rng.lo is None and rng.hi is None:
            return True  # fully unbounded; cannot disprove

    return _zero_feasible(rng, facts)


# --------------------------------------------------------------------------
# Subscript classification (for exactness and distances)
# --------------------------------------------------------------------------

def _classify(h: LinearExpr, loops: list[LoopCtx]) -> tuple[str, int | None]:
    """Classify the dependence equation: ZIV / SIV(level) / MIV."""
    levels: set[int] = set()
    var_level = {lp.var: k for k, lp in enumerate(loops)}
    for v, _ in h.terms:
        base = v[:-len(SINK)] if v.endswith(SINK) else v
        if base in var_level:
            levels.add(var_level[base])
    if h.residue:
        return "SYM", None
    if not levels:
        if any(v for v, _ in h.terms):
            return "SYM", None
        return "ZIV", None
    if len(levels) == 1:
        return "SIV", next(iter(levels))
    return "MIV", None


def _strong_siv_distance(h: LinearExpr, level: int,
                         loops: list[LoopCtx]) -> int | None:
    """Exact sink-minus-source distance for strong SIV equations.

    h = a*i - a*i' + c = 0  =>  i' - i = c / a.
    """
    var = loops[level].var
    a = h.coeff(var)
    b = h.coeff(var + SINK)
    rest = LinearExpr(h.const,
                      tuple((v, c) for v, c in h.terms
                            if v not in (var, var + SINK)),
                      h.residue)
    if a == 0 or b != -a or rest.terms or rest.residue:
        return None
    d, r = divmod(rest.const, a)
    return None if r else int(d)


# --------------------------------------------------------------------------
# Reference-pair testing (memoized)
# --------------------------------------------------------------------------

#: pair verdicts live in the tiered artifact store: the signature is
#: uid-free (expression trees, loop contexts, env, facts), so verdicts
#: are shared across sessions and survive restarts via the disk tier
_PAIR_NS = "pair"
_declare_ns(_PAIR_NS, mem_entries=8192, disk=True)


def _pair_signature(src_subs: tuple[ast.Expr, ...],
                    snk_subs: tuple[ast.Expr, ...],
                    loops: list[LoopCtx],
                    env: dict[str, LinearExpr],
                    facts: FactBase):
    """Canonical, hashable signature of one ``test_pair`` invocation.

    Every input that can influence the verdict participates: the
    subscript expression trees (frozen dataclasses, structural
    equality), the loop-bound contexts, the linearizer environment, and
    the fact base (linear facts, index-array facts, ranges).  Two calls
    with equal signatures are guaranteed the same result, so unchanged
    loops re-resolve their DDGs from cached verdicts.
    """
    return (
        src_subs, snk_subs,
        tuple((lp.var, lp.lo, lp.hi, lp.step) for lp in loops),
        tuple(sorted(env.items(), key=lambda kv: kv[0])),
        tuple(facts.linear),
        tuple(facts.index_arrays),
        tuple(sorted(facts.ranges.items())),
    )


def clear_pair_cache() -> None:
    get_store().clear(_PAIR_NS)


def set_pair_cache_limit(n: int) -> None:
    """Resize the memo LRU's memory tier (0 disables caching)."""
    get_store().set_limit(_PAIR_NS, entries=max(0, n))


def pair_cache_info() -> dict:
    """Size/limit plus the process-wide hit/miss counters."""
    info = get_store().info(_PAIR_NS)
    c = _counters.COUNTERS
    return {"size": info["size"], "limit": info["limit"],
            "hits": c.pair_hits, "misses": c.pair_misses,
            "hit_rate": c.pair_hit_rate()}


def test_pair(src_subs: tuple[ast.Expr, ...], snk_subs: tuple[ast.Expr, ...],
              loops: list[LoopCtx],
              env: dict[str, LinearExpr] | None = None,
              facts: FactBase | None = None) -> PairResult:
    """Test a pair of array references for dependence.

    Returns the feasible concrete direction vectors over the common nest
    plus exactness and distance information.  Results are memoized on a
    canonical signature of the inputs (bounded LRU): re-analysis of an
    unchanged loop answers from cached verdicts instead of re-running
    the hierarchical suite.
    """
    from ..testing import faults
    faults.check("pair_test")
    env = env or {}
    facts = facts or FactBase()
    try:
        key = _pair_signature(src_subs, snk_subs, loops, env, facts)
    except TypeError:           # unhashable oddity: run uncached
        key = None
    if key is not None:
        hit = get_store().get(_PAIR_NS, key)
        if hit is not MISS:
            _counters.COUNTERS.pair_hits += 1
            return PairResult(vectors=list(hit.vectors),
                              distances=dict(hit.distances),
                              exact=hit.exact, reason=hit.reason)
        _counters.COUNTERS.pair_misses += 1
    result = _test_pair_uncached(src_subs, snk_subs, loops, env, facts)
    if key is not None:
        evicted = get_store().put(
            _PAIR_NS, key,
            PairResult(vectors=list(result.vectors),
                       distances=dict(result.distances),
                       exact=result.exact, reason=result.reason))
        if evicted:
            _counters.COUNTERS.pair_evictions += evicted
    return result


def _test_pair_uncached(src_subs: tuple[ast.Expr, ...],
                        snk_subs: tuple[ast.Expr, ...],
                        loops: list[LoopCtx],
                        env: dict[str, LinearExpr],
                        facts: FactBase) -> PairResult:
    # A dependence needs both iterations to execute, so every common loop
    # ran at least once: hi - lo >= 0 holds within the test.
    exec_facts = FactBase(list(facts.linear), list(facts.index_arrays),
                          dict(facts.ranges))
    for lp in loops:
        span = lp.span
        if span is not None and not span.is_constant:
            exec_facts.assert_linear(span, ">=")
    facts = exec_facts
    loop_vars = {lp.var for lp in loops}

    if len(src_subs) != len(snk_subs):
        # Rank mismatch (e.g. linearized vs. multi-dim use): conservative.
        return PairResult(vectors=list(expand_vector((ANY,) * len(loops))),
                          exact=False, reason="rank mismatch")

    equations = [
        _subscript_equation(s, t, loop_vars, env)
        for s, t in zip(src_subs, snk_subs)
    ]

    exact = True
    reasons: list[str] = []
    distances: dict[int, int] = {}
    for h in equations:
        kind, lvl = _classify(h, loops)
        nonloop = sorted({
            v for v, _ in h.terms
            if (v[:-1] if v.endswith(SINK) else v) not in loop_vars})
        if kind in ("SIV", "MIV") and nonloop:
            exact = False
            reasons.append("symbolic term(s): " + ", ".join(nonloop))
        if kind == "ZIV":
            if h.const != 0:
                return PairResult(vectors=[], exact=True,
                                  reason="ZIV: constant subscripts differ")
        elif kind == "SIV":
            d = _strong_siv_distance(h, lvl, loops)
            if d is not None:
                prev = distances.get(lvl)
                if prev is not None and prev != d:
                    return PairResult(
                        vectors=[], exact=True,
                        reason="inconsistent SIV distances")
                distances[lvl] = d
                # distance beyond the iteration range => independent
                span = loops[lvl].span
                if d != 0 and span is not None:
                    excess = LinearExpr.constant(abs(d)) - span
                    if facts.known_positive(excess):
                        return PairResult(
                            vectors=[], exact=True,
                            reason="SIV distance exceeds loop range")
        elif kind == "SYM":
            exact = False
            names = sorted(set(
                v for v, _ in h.terms
                if (v[:-1] if v.endswith(SINK) else v) not in loop_vars)
                | {str(e) for _, e in h.residue})
            reasons.append("symbolic term(s): " + ", ".join(names))
        else:  # MIV
            exact = False
            reasons.append("coupled/MIV subscript (Banerjee)")

    # Delta-style constraint propagation: strong-SIV distances pin levels.
    pinned: dict[int, str] = {}
    for lvl, d in distances.items():
        step = loops[lvl].step or 1
        eff = d if step > 0 else -d
        pinned[lvl] = LT if eff > 0 else (GT if eff < 0 else EQ)

    n = len(loops)
    feasible: list[DirectionVector] = []

    def refine(prefix: tuple[str, ...]) -> None:
        k = len(prefix)
        if k == n:
            feasible.append(prefix)
            return
        choices = (pinned[k],) if k in pinned else (LT, EQ, GT)
        for d in choices:
            dv = prefix + (d,) + (ANY,) * (n - k - 1)
            if all(_subscript_feasible(h, dv, loops, facts)
                   for h in equations):
                refine(prefix + (d,))

    refine(())
    return PairResult(vectors=feasible, distances=distances, exact=exact,
                      reason="; ".join(dict.fromkeys(reasons)))
