"""A9: fork-join DOALL runtime cost and identity.

The compiled engine can *execute* PARALLEL DO loops through the
fork-join machinery (chunks, per-chunk registers, reductions, a join)
instead of only simulating them.  Chunks run on the calling thread, in
chunk order, so the machinery costs time rather than saving it: this
module measures that cost on the auto-parallelized corpus (per-program
wall-clock with 1 vs. 4 workers under both schedules) and checks the
byte-identity invariant that makes the runtime safe to use anywhere the
simulation was used.
"""

import pytest

from repro.corpus import ORDER, PROGRAMS
from repro.interp import CompiledInterpreter, Interpreter, compare_runs
from repro.interp import compile as eng
from repro.ir import AnalyzedProgram
from repro.ped import PedSession

WORKERS = 4

_PAR_PROGRAMS: dict[str, AnalyzedProgram] = {}


def _parallel_program(name: str) -> AnalyzedProgram:
    if name not in _PAR_PROGRAMS:
        session = PedSession(PROGRAMS[name].source)
        session.auto_parallelize()
        _PAR_PROGRAMS[name] = AnalyzedProgram.from_source(session.source())
    return _PAR_PROGRAMS[name]


def _warm(program):
    for uir in program.units.values():
        eng.linked_unit(uir)


# ---------------------------------------------------------------------------
# steady-state execution through the DOALL runtime
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ORDER)
def test_bench_doall_1worker(benchmark, name):
    """One chunk per loop entry: the fork-join machinery's floor."""
    cp = PROGRAMS[name]
    program = _parallel_program(name)
    _warm(program)

    def run():
        interp = CompiledInterpreter(program, inputs=list(cp.inputs),
                                     workers=1)
        interp.run()
        return interp

    interp = benchmark.pedantic(run, rounds=3, iterations=1)
    assert interp.steps > 0


@pytest.mark.parametrize("name", ORDER)
@pytest.mark.parametrize("schedule", ("static", "dynamic"))
def test_bench_doall_4workers(benchmark, name, schedule):
    cp = PROGRAMS[name]
    program = _parallel_program(name)
    _warm(program)

    def run():
        interp = CompiledInterpreter(program, inputs=list(cp.inputs),
                                     workers=WORKERS, schedule=schedule)
        interp.run()
        return interp

    interp = benchmark.pedantic(run, rounds=3, iterations=1)
    assert interp.steps > 0


# ---------------------------------------------------------------------------
# acceptance: byte-identity everywhere
# ---------------------------------------------------------------------------

def test_doall_identity_acceptance(reporter):
    """A9's acceptance: fork-join execution is byte-identical to the
    serial oracle on every corpus program, both schedules."""
    rows = []
    for name in ORDER:
        cp = PROGRAMS[name]
        program = _parallel_program(name)
        _warm(program)
        tree = Interpreter(program, inputs=list(cp.inputs))
        tree.run()
        for schedule in ("static", "dynamic"):
            comp = CompiledInterpreter(program, inputs=list(cp.inputs),
                                       workers=WORKERS,
                                       schedule=schedule)
            comp.run()
            assert compare_runs(tree, comp) == [], f"{name}/{schedule}"
            assert comp.clock == tree.clock, f"{name}/{schedule}"
            assert comp.steps == tree.steps, f"{name}/{schedule}"
        stats = comp._par_stats
        rows.append([name, str(len(stats)),
                     str(sum(s["entries"] for s in stats.values())),
                     str(sum(s["chunks"] for s in stats.values()))])
    reporter("A9: DOALL byte-identity (4 workers, both schedules)",
             ["program", "par loops", "entries", "chunks"], rows)
