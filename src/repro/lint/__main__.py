"""``python -m repro.lint``: lint the corpus (or any Fortran file).

Modes:

* ``plain``  -- the corpus program as written;
* ``auto``   -- after ``auto_parallelize`` (the zero-false-positive
  surface: every PARALLEL marking was proved by the dependence engine);
* ``seeded`` -- with the program's seeded latent defect applied;
* ``all``    -- all three.

``--golden DIR`` compares unsuppressed diagnostics against the checked
-in baselines and exits 1 on any drift (new findings *or* vanished
ones — output is deterministic, so exact match is the contract).
``--write-golden DIR`` regenerates the baselines.

A rule that crashes contributes no findings, so the command prints each
crash to standard error and exits 1, golden baselines or not.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from ..corpus import ORDER, PROGRAMS
from ..ir.program import AnalyzedProgram
from .core import rule_ids
from .driver import LintResult, lint_program
from .seeds import SEEDS, seeded_program, seeded_source

MODES = ("plain", "auto", "seeded")


def _lint_one(name: str, mode: str, rules=None):
    """The :class:`LintResult` of one corpus program in one mode."""
    if mode == "plain":
        src = PROGRAMS[name].source
        return lint_program(AnalyzedProgram.from_source(src),
                            rules=rules, source=src)
    if mode == "auto":
        from ..ped.session import PedSession
        src = PROGRAMS[name].source
        session = PedSession(src)
        session.auto_parallelize()
        return lint_program(session.program, session.assertions,
                            rules=rules, source=src)
    if mode == "seeded":
        if name not in SEEDS:
            return LintResult()
        program, assertions = seeded_program(name)
        return lint_program(program, assertions, rules=rules,
                            source=seeded_source(name))
    raise ValueError(f"unknown mode {mode!r}")


def _as_json(diags) -> list[dict]:
    return [d.to_json() for d in diags]


def _unsuppressed(rows: list[dict]) -> list[dict]:
    return [r for r in rows if not r.get("suppressed")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="static race detector / parallelization lint")
    ap.add_argument("programs", nargs="*",
                    help=f"corpus programs (default: all of "
                         f"{', '.join(ORDER)}) or .f paths")
    ap.add_argument("--mode", choices=MODES + ("all",), default="plain")
    ap.add_argument("--seeded", action="store_true",
                    help="shorthand for --mode seeded")
    ap.add_argument("--format", choices=("text", "json"),
                    default="text")
    ap.add_argument("--rules", default=None,
                    help="comma-separated rule ids "
                         f"(known: {', '.join(rule_ids())})")
    ap.add_argument("--golden", default=None, metavar="DIR",
                    help="compare against golden baselines; exit 1 on "
                         "any drift")
    ap.add_argument("--write-golden", default=None, metavar="DIR",
                    help="write golden baselines and exit")
    args = ap.parse_args(argv)

    if args.seeded:
        args.mode = "seeded"
    rules = [r.strip() for r in args.rules.split(",")] \
        if args.rules else None
    modes = list(MODES) if args.mode == "all" else [args.mode]

    names = args.programs or list(ORDER)
    results: dict[str, dict[str, list[dict]]] = {}
    crashes: list[str] = []
    for name in names:
        if name not in PROGRAMS:
            path = pathlib.Path(name)
            if not path.is_file():
                print(f"unknown program {name!r}", file=sys.stderr)
                return 2
            src = path.read_text()
            runs = {"plain": lint_program(AnalyzedProgram.from_source(src),
                                          rules=rules, source=src)}
        else:
            runs = {m: _lint_one(name, m, rules) for m in modes}
        results[name] = {m: _as_json(d) for m, d in runs.items()}
        crashes += [f"{name}/{m}: {rid}: {err}"
                    for m, d in runs.items()
                    for rid, _, err in d.rule_failures]
    if crashes:
        print("lint rules crashed (their findings are missing):",
              file=sys.stderr)
        for c in crashes:
            print("  " + c, file=sys.stderr)

    if args.write_golden:
        if crashes:
            return 1        # a baseline must not bake in lost findings
        outdir = pathlib.Path(args.write_golden)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, by_mode in results.items():
            payload = {"program": name, "modes": by_mode}
            (outdir / f"{name}.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(results)} golden baselines to {outdir}")
        return 0

    drift = []
    if args.golden:
        gdir = pathlib.Path(args.golden)
        for name, by_mode in results.items():
            gfile = gdir / f"{name}.json"
            if not gfile.is_file():
                drift.append(f"{name}: no golden baseline {gfile}")
                continue
            golden = json.loads(gfile.read_text())["modes"]
            for mode, rows in by_mode.items():
                want = _unsuppressed(golden.get(mode, []))
                got = _unsuppressed(rows)
                for r in got:
                    if r not in want:
                        drift.append(f"{name}/{mode}: new finding "
                                     f"{r['rule']} at {r['unit']}:"
                                     f"{r['line']}: {r['message']}")
                for r in want:
                    if r not in got:
                        drift.append(f"{name}/{mode}: finding vanished: "
                                     f"{r['rule']} at {r['unit']}:"
                                     f"{r['line']}: {r['message']}")

    if args.format == "json":
        print(json.dumps(
            [{"program": n, "mode": m, "diagnostics": rows}
             for n, by_mode in results.items()
             for m, rows in by_mode.items()],
            indent=2, sort_keys=True))
    else:
        from .core import Diagnostic
        for name, by_mode in results.items():
            for mode, rows in by_mode.items():
                head = f"== {name} [{mode}] "
                print(head + "=" * max(0, 60 - len(head)))
                if not rows:
                    print("  clean")
                for r in rows:
                    print("  " + Diagnostic.from_json(r).format())

    if drift:
        print("\nlint drift against golden baselines:", file=sys.stderr)
        for d in drift:
            print("  " + d, file=sys.stderr)
    return 1 if crashes or drift else 0


if __name__ == "__main__":
    sys.exit(main())
