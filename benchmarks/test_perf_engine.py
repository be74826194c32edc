"""A5: analysis/transformation engine throughput on the corpus.

Times the pipeline stages PED runs interactively: parsing, whole-program
analysis construction, dependence analysis of every loop, the simplest
transformation round-trip, and interpreter execution.  These set the
interactive-latency envelope of the reproduction.
"""

import pytest

from repro.corpus import PROGRAMS
from repro.dependence import DependenceAnalyzer
from repro.fortran import parse_program, print_program
from repro.interp import run_program
from repro.interproc import InterproceduralOracle, SummaryBuilder
from repro.ir import AnalyzedProgram
from repro.store import ArtifactStore, scoped_store

SRC = PROGRAMS["arc3d"].source


def test_bench_parse(benchmark):
    prog = benchmark(parse_program, SRC)
    assert prog.units


def test_bench_print(benchmark):
    prog = parse_program(SRC)
    out = benchmark(print_program, prog)
    assert out


def test_bench_analyzed_program(benchmark):
    program = benchmark(AnalyzedProgram.from_source, SRC)
    assert program.units


def test_bench_summaries(benchmark):
    program = AnalyzedProgram.from_source(SRC)

    def build():
        # a fresh store per round: time summarizing, not store hits
        with scoped_store(ArtifactStore(from_env=False)):
            return SummaryBuilder(program).build()

    summ = benchmark(build)
    assert "FILTER" in summ


def test_bench_all_loop_dependences(benchmark):
    program = AnalyzedProgram.from_source(SRC)
    oracle = InterproceduralOracle(SummaryBuilder(program).build())

    def analyze_all():
        n = 0
        for uir in program.units.values():
            an = DependenceAnalyzer(uir, oracle=oracle)
            for li in uir.loops.all_loops():
                n += len(an.analyze_loop(li).dependences)
        return n

    n = benchmark(analyze_all)
    assert n >= 0


def test_bench_interpret_corpus_program(benchmark):
    def run():
        return run_program(PROGRAMS["slab2d"].source)

    interp = benchmark.pedantic(run, rounds=3, iterations=1)
    assert interp.outputs


def test_bench_session_select_loop(benchmark):
    from repro.ped import PedSession
    session = PedSession(SRC)
    session.select_unit("FILTER")
    loop = session.loops()[0]

    def select():
        session._deps_cache.clear()
        return session.select_loop(loop)

    ld = benchmark(select)
    assert ld is not None
