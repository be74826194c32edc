"""The three PED panes as queryable data models (Figure 1).

Each pane exposes ``rows()`` (filtered content), selection state, and a
``render()`` textual form; :mod:`repro.ped.render` composes them into the
full editor window.  Progressive disclosure is driven by the session: the
dependence and variable panes show only the current loop's information.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dependence.model import Dependence, direction_str
from ..fortran import ast
from ..fortran.printer import print_stmt, print_unit
from ..ir.program import UnitIR
from .filters import DependenceFilter, SourceFilter, VariableFilter


@dataclass
class SourceLine:
    ordinal: int
    text: str
    is_loop: bool
    label: int | None
    stmt_uid: int | None
    highlighted: bool = False

    def info(self) -> dict:
        return {"ordinal": self.ordinal, "text": self.text,
                "is_loop": self.is_loop, "label": self.label,
                "line": self.ordinal}


class SourcePane:
    """Pretty-printed unit text with loop markers and ordinal numbers."""

    def __init__(self, uir: UnitIR):
        self.uir = uir
        self.filter: SourceFilter | None = None
        self._lines: list[SourceLine] | None = None
        #: uids of statements to flag with dependence arrows
        self.arrow_uids: set[int] = set()
        #: uids of the current loop's statements (highlighted ordinals)
        self.current_uids: set[int] = set()

    def __getstate__(self) -> dict:
        # the rendered line cache rebuilds from the unit on next use
        return {**self.__dict__, "_lines": None}

    def invalidate(self) -> None:
        self._lines = None

    def lines(self) -> list[SourceLine]:
        if self._lines is None:
            self._lines = self._build()
        return self._lines

    def _build(self) -> list[SourceLine]:
        out: list[SourceLine] = []
        unit = self.uir.unit
        ordinal = [0]

        def emit(text: str, stmt: ast.Stmt | None, is_loop: bool) -> None:
            ordinal[0] += 1
            out.append(SourceLine(
                ordinal=ordinal[0], text=text, is_loop=is_loop,
                label=stmt.label if stmt else None,
                stmt_uid=stmt.uid if stmt else None))

        header = print_unit(unit).splitlines()
        # Rebuild with statement attribution: walk statements and print
        # them one at a time so each text line maps to its statement.
        if unit.kind == "program":
            emit(f"PROGRAM {unit.name}", None, False)
        elif unit.kind == "subroutine":
            params = f"({', '.join(unit.params)})" if unit.params else ""
            emit(f"SUBROUTINE {unit.name}{params}", None, False)
        else:
            rt = unit.result_type or ""
            rt = "DOUBLE PRECISION" if rt == "DOUBLEPRECISION" else rt
            prefix = f"{rt} " if rt else ""
            emit(f"{prefix}FUNCTION {unit.name}"
                 f"({', '.join(unit.params)})", None, False)

        def walk(body: list[ast.Stmt], indent: int) -> None:
            for s in body:
                text_lines = print_stmt(s, indent)
                first = text_lines[0].strip()
                if isinstance(s, (ast.DoLoop, ast.IfBlock)):
                    # header line only; recurse for the body
                    emit(_strip_label_field(text_lines[0]), s,
                         isinstance(s, ast.DoLoop))
                    if isinstance(s, ast.DoLoop):
                        walk(s.body, indent + 1)
                        if s.term_label is None:
                            emit("ENDDO", None, False)
                        elif not _body_has_terminal(s):
                            ordinal[0] += 1
                            out.append(SourceLine(
                                ordinal=ordinal[0], text="CONTINUE",
                                is_loop=False, label=s.term_label,
                                stmt_uid=None))
                    else:
                        walk(s.then_body, indent + 1)
                        for cond, arm in s.elifs:
                            emit(f"ELSE IF ({cond}) THEN", None, False)
                            walk(arm, indent + 1)
                        if s.else_body:
                            emit("ELSE", None, False)
                            walk(s.else_body, indent + 1)
                        emit("ENDIF", None, False)
                else:
                    for tl in text_lines:
                        emit(_strip_label_field(tl), s, False)

        walk(unit.body, 1)
        emit("END", None, False)
        return out

    def visible(self) -> list[SourceLine]:
        lines = self.lines()
        if self.filter is None:
            return lines
        return [ln for ln in lines if self.filter.matches(ln.info())]

    def ordinal_of(self, stmt_uid: int) -> int | None:
        for ln in self.lines():
            if ln.stmt_uid == stmt_uid:
                return ln.ordinal
        return None

    def render(self, width: int = 72) -> str:
        rows = []
        for ln in self.visible():
            marker = "*" if ln.is_loop else " "
            cur = ">" if ln.stmt_uid in self.current_uids else " "
            arrow = "=>" if ln.stmt_uid in self.arrow_uids else "  "
            label = f"{ln.label:<5}" if ln.label is not None else "     "
            rows.append(f"{cur}{marker}{ln.ordinal:>4} {arrow} {label}"
                        f"{ln.text}"[:width + 20])
        return "\n".join(rows)


def _strip_label_field(fixed_line: str) -> str:
    """Drop the fixed-form label columns; the pane prints labels itself."""
    return fixed_line[6:].strip() if len(fixed_line) > 6 else \
        fixed_line.strip()


def _body_has_terminal(s: ast.DoLoop) -> bool:
    from ..fortran.printer import _has_terminal
    return _has_terminal(s.body, s.term_label)


class DependencePane:
    """Tabular dependence list for the current loop."""

    COLUMNS = ("TYPE", "SOURCE", "SINK", "VECTOR", "LEVEL", "MARK",
               "REASON")

    def __init__(self):
        self.dependences: list[Dependence] = []
        self.filter: DependenceFilter | None = None
        self.selection: list[int] = []   # dependence ids
        #: degraded-analysis notes for the current loop (empty = clean)
        self.degraded: list[str] = []

    def set_dependences(self, deps: list[Dependence],
                        degraded: list[str] | None = None) -> None:
        self.dependences = deps
        self.degraded = list(degraded or [])
        self.selection = [i for i in self.selection
                          if any(d.id == i for d in deps)]

    def rows(self) -> list[Dependence]:
        deps = self.dependences
        if self.filter is not None:
            deps = [d for d in deps if self.filter.matches(d)]
        return deps

    def select(self, dep: "Dependence | int") -> None:
        did = dep.id if isinstance(dep, Dependence) else dep
        if did not in self.selection:
            self.selection.append(did)

    def clear_selection(self) -> None:
        self.selection = []

    def selected(self) -> list[Dependence]:
        return [d for d in self.dependences if d.id in self.selection]

    def render(self) -> str:
        rows = self.rows()
        banner = ""
        if self.degraded:
            banner = ("!! DEGRADED ANALYSIS -- dependences assumed "
                      "conservatively\n"
                      + "".join(f"!!   {n}\n" for n in self.degraded))
        if not rows:
            return banner + "(no dependences)" if banner \
                else "(no dependences)"
        data = []
        for d in rows:
            sel = ">" if d.id in self.selection else " "
            lvl = str(d.level) if d.level is not None else "-"
            data.append((sel, str(d.dtype), d.source.text, d.sink.text,
                         direction_str(d.vector), lvl, str(d.mark),
                         d.reason[:40]))
        widths = [1, 6, 20, 20, 10, 5, 8, 40]
        header = " " + "  ".join(
            c.ljust(w) for c, w in zip(self.COLUMNS, widths[1:]))
        lines = ([banner.rstrip("\n")] if banner else []) + [header]
        for row in data:
            lines.append("".join(
                str(c)[:w].ljust(w) + ("  " if i else "")
                for i, (c, w) in enumerate(zip(row, widths))))
        return "\n".join(lines)


class LintPane:
    """Tabular lint findings for the whole program.

    Fed by :meth:`PedSession.lint`; rows are
    :class:`~repro.lint.core.Diagnostic` objects.  Suppressed findings
    (``C$PED LINT DISABLE``) are hidden unless ``show_suppressed`` is
    set; ``severity`` / ``rule`` narrow the view."""

    COLUMNS = ("SEV", "RULE", "WHERE", "LOOP", "MESSAGE")

    def __init__(self):
        self.diagnostics: list = []
        self.show_suppressed = False
        self.severity: str | None = None
        self.rule: str | None = None

    def set_diagnostics(self, diags) -> None:
        self.diagnostics = list(diags)

    def rows(self) -> list:
        rows = self.diagnostics
        if not self.show_suppressed:
            rows = [d for d in rows if not d.suppressed]
        if self.severity is not None:
            rows = [d for d in rows if d.severity == self.severity]
        if self.rule is not None:
            rows = [d for d in rows if d.rule == self.rule.upper()]
        return rows

    def render(self) -> str:
        rows = self.rows()
        if not rows:
            return "(no lint findings)"
        widths = [7, 7, 12, 4, 44]
        lines = [" " + "  ".join(c.ljust(w)
                                 for c, w in zip(self.COLUMNS, widths))]
        for d in rows:
            mark = "s" if d.suppressed else " "
            vals = (d.severity, d.rule, f"{d.unit}:{d.line}",
                    d.loop or "-", d.message)
            lines.append(mark + "  ".join(
                str(v)[:w].ljust(w) for v, w in zip(vals, widths)))
        return "\n".join(lines)


class VariablePane:
    """Variable list for the current loop: name, dim, common block,
    defs/uses outside the loop, shared/private kind, reason."""

    COLUMNS = ("NAME", "DIM", "BLOCK", "DEF<", "USE>", "KIND", "REASON")

    def __init__(self):
        self.rows_: list[dict] = []
        self.filter: VariableFilter | None = None
        self.selection: list[str] = []

    def set_rows(self, rows: list[dict]) -> None:
        self.rows_ = rows

    def rows(self) -> list[dict]:
        rows = self.rows_
        if self.filter is not None:
            rows = [r for r in rows if self.filter.matches(r)]
        return rows

    def select(self, name: str) -> None:
        if name.upper() not in self.selection:
            self.selection.append(name.upper())

    def render(self) -> str:
        rows = self.rows()
        if not rows:
            return "(no variables)"
        widths = [10, 4, 8, 12, 12, 8, 36]
        lines = [" " + "  ".join(c.ljust(w)
                                 for c, w in zip(self.COLUMNS, widths))]
        for r in rows:
            sel = ">" if r["name"] in self.selection else " "
            defs = ",".join(str(x) for x in r["defs"][:3]) or "-"
            uses = ",".join(str(x) for x in r["uses"][:3]) or "-"
            vals = (r["name"], str(r["dim"]) if r["dim"] else "-",
                    r.get("block") or "-", defs, uses, r["kind"],
                    (r.get("reason") or "")[:36])
            lines.append(sel + "  ".join(
                str(v)[:w].ljust(w) for v, w in zip(vals, widths)))
        return "\n".join(lines)
