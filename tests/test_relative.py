"""Parity of the compiled adversarial runtime with the tree emulator.

``AdversarialInterpreter`` (tree walker) is the oracle for
``AdversarialRuntime`` (compiled engine), the way the tree engine is the
oracle for the compiled one: for every program and every worker count,
schedule and reassociation setting, both must produce byte-identical
snapshots, outputs, clocks and steps (and the same profile), and
``verify_parallel`` must reach
the same divergence verdict as the tree emulators.
"""

import itertools

import pytest

from repro.corpus import ORDER, PROGRAMS, synth
from repro.interp import CompiledInterpreter, Interpreter, compare_runs
from repro.interp import relative
from repro.interp.relative import AdversarialRuntime, run_to_sync, \
    verify_parallel
from repro.ir import AnalyzedProgram
from repro.lint.seeds import seeded_program
from repro.ped import PedSession

from .test_compiled_engine import _assert_identical_observables, \
    _assert_profiles_match

CONFIGS = list(itertools.product((2, 4), ("static", "dynamic"),
                                 (False, True)))

_PROGRAMS: dict = {}


def _program(case: str):
    """(AnalyzedProgram, inputs) for ``auto:<name>``, ``seeded:<name>``
    or ``synth:<index>`` (seed 1993, as generated)."""
    if case not in _PROGRAMS:
        mode, _, name = case.partition(":")
        if mode == "auto":
            session = PedSession(PROGRAMS[name].source)
            session.auto_parallelize()
            program = session.program
        elif mode == "seeded":
            program, _ = seeded_program(name)
        else:
            program = AnalyzedProgram.from_source(
                synth.generate(1993, int(name)).source)
        inputs = list(PROGRAMS[name].inputs) if name in PROGRAMS else []
        _PROGRAMS[case] = program, inputs
    return _PROGRAMS[case]


CASES = ([f"auto:{n}" for n in ORDER] + [f"seeded:{n}" for n in ORDER]
         + [f"synth:{i}" for i in range(70)])


@pytest.mark.parametrize("case", CASES)
def test_compiled_adversarial_matches_tree_emulator(case):
    program, inputs = _program(case)
    tree_serial = Interpreter(program, inputs=inputs)
    tree_serial.run()
    for workers, schedule, reassoc in CONFIGS:
        tree = run_to_sync(program, inputs, adversarial=True,
                           workers=workers, schedule=schedule,
                           force_reassociation=reassoc)
        check = verify_parallel(program, inputs, engine="compiled",
                                workers=workers, schedule=schedule,
                                force_reassociation=reassoc)
        _assert_identical_observables(tree, check.parallel)
        _assert_profiles_match(tree.profile, check.parallel.profile)
        assert list(check.diff) == list(compare_runs(tree_serial, tree))


def test_single_trip_loop_discards_its_private():
    """A one-trip PARALLEL DO is emulated too: its private T goes back
    to the pre-loop 5.0, while the serial engines and the real DOALL
    runtime (which never forks one trip) keep the last value 2.0."""
    program = AnalyzedProgram.from_source(
        "      PROGRAM ONE\n"
        "      COMMON /R/ S\n"
        "      REAL S, T\n"
        "      INTEGER I, N\n"
        "      N = 1\n"
        "      T = 5.0\n"
        "      PARALLEL DO 10 I = 1, N PRIVATE(T)\n"
        "         T = I * 2.0\n"
        "   10 CONTINUE\n"
        "      S = T\n"
        "      END\n")
    tree = run_to_sync(program, [], adversarial=True, workers=4)
    comp = CompiledInterpreter(program)
    comp._runtime = AdversarialRuntime(workers=4)
    comp.run()
    assert tree.snapshot()["common:S"] == 5.0
    _assert_identical_observables(tree, comp)

    doall = CompiledInterpreter(program, workers=2)
    doall.run()
    assert doall.snapshot()["common:S"] == 2.0
    assert doall._par_stats == {}


def test_verify_parallel_runs_no_tree_emulator(monkeypatch):
    """Only the tree rung uses ``run_to_sync``; the compiled tiers
    verify without it and still catch the seeded slab2d race."""
    def refuse(*a, **kw):
        raise AssertionError("run_to_sync called")

    monkeypatch.setattr(relative, "run_to_sync", refuse)
    program, inputs = _program("seeded:slab2d")
    for engine in ("compiled", "vector"):
        check = verify_parallel(program, inputs, engine=engine)
        assert check.diff and check.diff.first_key == "common:V"
    with pytest.raises(AssertionError, match="run_to_sync"):
        verify_parallel(program, inputs, engine="tree")


def test_session_verify_parallel():
    session = PedSession(PROGRAMS["dpmin"].source)
    session.auto_parallelize()
    assert session.verify_parallel(list(PROGRAMS["dpmin"].inputs)) == []
