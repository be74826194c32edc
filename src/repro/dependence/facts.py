"""Fact base: symbolic knowledge dependence tests may consult.

Facts come from three sources: static analysis (symbolic relations,
constant propagation), interprocedural constants, and *user assertions*
(Section 3.3).  The dependence tests query the fact base through a small
number of entailment questions; everything is expressed over
:class:`~repro.analysis.linear.LinearExpr` normal forms so structurally
equal symbolic terms compare reliably.

Supported fact kinds:

* linear inequalities/equalities: ``expr > 0``, ``expr >= 0``, ``expr = 0``
  (assertions like ``MCN .GT. IENDV(IR) - ISTRT(IR)`` normalize to these);
* variable ranges: ``lo <= var <= hi`` with integer endpoints;
* index-array properties: ``PERMUTATION(A)``, ``MONOTONE(A, gap)``
  (strictly increasing with ``A(i+1) - A(i) >= gap``), and
  ``DISJOINT(A, B, gap)`` (all values of ``A`` precede those of ``B`` by
  at least ``gap`` -- the paper's ``IT(NBA) + 3 <= JT(1)`` constraint).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.linear import LinearExpr, Number


@dataclass(frozen=True)
class LinearFact:
    """``expr REL 0`` where REL is '>', '>=', or '='."""

    expr: LinearExpr
    rel: str  # ">" | ">=" | "="


@dataclass(frozen=True)
class IndexArrayFact:
    kind: str            # "permutation" | "monotone" | "disjoint"
    array: str
    other: str | None = None   # for disjoint
    gap: int = 1


@dataclass
class FactBase:
    linear: list[LinearFact] = field(default_factory=list)
    index_arrays: list[IndexArrayFact] = field(default_factory=list)
    #: var -> (lo, hi) integer range bounds (either side may be None)
    ranges: dict[str, tuple[int | None, int | None]] = field(
        default_factory=dict)

    # -- construction -------------------------------------------------------

    def assert_linear(self, expr: LinearExpr, rel: str) -> None:
        if rel not in (">", ">=", "="):
            raise ValueError(f"bad relation {rel!r}")
        self.linear.append(LinearFact(expr, rel))

    def assert_range(self, var: str, lo: int | None, hi: int | None) -> None:
        var = var.upper()
        old = self.ranges.get(var, (None, None))
        nlo = lo if old[0] is None else (max(old[0], lo) if lo is not None
                                         else old[0])
        nhi = hi if old[1] is None else (min(old[1], hi) if hi is not None
                                         else old[1])
        self.ranges[var] = (nlo, nhi)

    def assert_permutation(self, array: str) -> None:
        self.index_arrays.append(IndexArrayFact("permutation", array.upper()))

    def assert_monotone(self, array: str, gap: int = 1) -> None:
        self.index_arrays.append(
            IndexArrayFact("monotone", array.upper(), gap=gap))

    def assert_disjoint(self, a: str, b: str, gap: int = 1) -> None:
        self.index_arrays.append(
            IndexArrayFact("disjoint", a.upper(), b.upper(), gap))

    def merged_with(self, other: "FactBase") -> "FactBase":
        fb = FactBase(list(self.linear), list(self.index_arrays),
                      dict(self.ranges))
        fb.linear.extend(other.linear)
        fb.index_arrays.extend(other.index_arrays)
        for v, (lo, hi) in other.ranges.items():
            fb.assert_range(v, lo, hi)
        return fb

    # -- index array queries -------------------------------------------------

    def is_permutation(self, array: str) -> bool:
        array = array.upper()
        return any(f.array == array and f.kind in ("permutation", "monotone")
                   for f in self.index_arrays)

    def monotone_gap(self, array: str) -> int | None:
        array = array.upper()
        gaps = [f.gap for f in self.index_arrays
                if f.array == array and f.kind == "monotone"]
        return max(gaps) if gaps else None

    def are_disjoint(self, a: str, b: str, max_offset: int = 0) -> bool:
        """True when values of ``a`` and ``b`` (each possibly displaced by
        offsets up to ``max_offset``) can never collide."""
        a, b = a.upper(), b.upper()
        for f in self.index_arrays:
            if f.kind != "disjoint":
                continue
            if {f.array, f.other} == {a, b} and f.gap > max_offset:
                return True
        return False

    # -- entailment ----------------------------------------------------------

    def sign(self, q: LinearExpr) -> str | None:
        """Known sign of ``q``: '+', '-', '0', '>=0', '<=0', or None.

        Decision procedure: (1) constants; (2) interval evaluation using
        range facts; (3) match against asserted linear facts modulo an
        additive constant (``q = fact + c``).
        """
        if q.is_constant:
            if q.const > 0:
                return "+"
            if q.const < 0:
                return "-"
            return "0"

        lo, hi = self._interval(q)
        if lo is not None and lo > 0:
            return "+"
        if hi is not None and hi < 0:
            return "-"
        if lo is not None and hi is not None and lo == hi == 0:
            return "0"

        for f in self.linear:
            d = q - f.expr
            if d.is_constant:
                c = d.const
                if f.rel == "=":
                    if c > 0:
                        return "+"
                    if c < 0:
                        return "-"
                    return "0"
                if f.rel == ">" and c >= 0:
                    return "+"
                if f.rel == ">=" and c > 0:
                    return "+"
                if f.rel == ">=" and c == 0:
                    return ">=0"
            d2 = (-q) - f.expr
            if d2.is_constant:
                c = d2.const
                if f.rel == "=" and c != 0:
                    return "-" if c > 0 else "+"
                if f.rel == ">" and c >= 0:
                    return "-"
                if f.rel == ">=" and c > 0:
                    return "-"
                if f.rel == ">=" and c == 0:
                    return "<=0"
        # Two-fact combination: q = f1 + f2 + c.  Needed for reasoning like
        # "MCN > span" plus "span >= 0" entailing "MCN > 0".
        pos_facts = [f for f in self.linear if f.rel in (">", ">=")]
        for i, f1 in enumerate(pos_facts):
            d1 = q - f1.expr
            if d1.is_constant:
                continue  # single-fact pass already covered it
            for f2 in pos_facts:
                if f2 is f1:
                    continue
                d = d1 - f2.expr
                if not d.is_constant:
                    continue
                c = d.const
                strict = (f1.rel == ">") or (f2.rel == ">")
                if c > 0 or (c == 0 and strict):
                    return "+"
                if c == 0:
                    return ">=0"
            for f2 in pos_facts:
                d = (-q) - f1.expr - f2.expr if f2 is not f1 else None
                if d is not None and d.is_constant:
                    c = d.const
                    strict = (f1.rel == ">") or (f2.rel == ">")
                    if c > 0 or (c == 0 and strict):
                        return "-"
        if lo is not None and lo >= 0:
            return ">=0"
        if hi is not None and hi <= 0:
            return "<=0"
        return None

    def _interval(self, q: LinearExpr) -> tuple[Number | None,
                                                Number | None]:
        lo: Number | None = q.const
        hi: Number | None = q.const
        for v, c in q.terms:
            vlo, vhi = self.ranges.get(v, (None, None))
            tlo = c * vlo if vlo is not None else None
            thi = c * vhi if vhi is not None else None
            if c < 0:
                tlo, thi = thi, tlo
            lo = lo + tlo if (lo is not None and tlo is not None) else None
            hi = hi + thi if (hi is not None and thi is not None) else None
        if q.residue:
            return None, None
        return lo, hi

    def known_nonzero(self, q: LinearExpr) -> bool:
        return self.sign(q) in ("+", "-")

    def known_positive(self, q: LinearExpr) -> bool:
        return self.sign(q) == "+"

    def known_nonnegative(self, q: LinearExpr) -> bool:
        return self.sign(q) in ("+", "0", ">=0")

    def known_zero(self, q: LinearExpr) -> bool:
        return self.sign(q) == "0"
