"""The benchmark's five workloads and the measurement loop around them.

Run one workload in this process (``bench/run.py`` starts it in a fresh
subprocess with a hermetic environment)::

    PYTHONPATH=src PYTHONHASHSEED=0 python3 bench/workloads.py \\
        --workload exec --seed 1993 --seconds 15 --trace 0

The last line of standard output is one JSON object with the run's
item counts, end-to-end metrics, per-layer metrics (traced runs) and
the per-(config, program) ``exec`` rows.  ``--write-golden`` rewrites
the committed references under ``bench/golden/`` instead.

Every workload is closed-loop with one thread of load: the next item
starts when the previous one has returned.  A *wave* is one full pass
over the workload's inputs.  The seed fixes the inputs and their order
once per run, so every wave runs the same items in the same order and
each item's fastest latency over the waves is well defined.  Times are
scaled to the reference host's speed (see ``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"
OUT = BENCH / "out"

#: setup repetitions per untraced run; setup_s reports their median
SETUP_REPS = 3

_T_START = time.perf_counter()
import numpy as np  # noqa: E402

from repro.corpus import ORDER, PROGRAMS, synth  # noqa: E402
from repro.fleet import FleetOptions, PipelineOptions, run_fleet  # noqa: E402
from repro.interp import verify as interp_verify  # noqa: E402
from repro.interp.machine import Interpreter  # noqa: E402
from repro.ir import AnalyzedProgram  # noqa: E402
from repro.ped import PedSession  # noqa: E402
from repro.ped.scripts import program_source  # noqa: E402
from repro.perf import counters  # noqa: E402
from repro.serve import SCRIPTS, SessionManager, canonical_json  # noqa: E402
from repro.serve import oracle_transcript  # noqa: E402
from repro.store import ArtifactStore, get_store, set_default_store  # noqa: E402

IMPORT_S = time.perf_counter() - _T_START

import layertrace  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402


@dataclass
class Item:
    """One measured unit of work: ``output`` is checked after the wave."""

    key: object
    latency: float
    output: object


def timed(fn, *args, **kwargs) -> tuple[float, object]:
    """``(seconds, result)``; an exception becomes the result."""
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as e:        # noqa: BLE001 -- the item fails its check
        out = e
    return time.perf_counter() - t0, out


def _fresh_store() -> None:
    set_default_store(ArtifactStore(from_env=False))


def _load_json(path: Path):
    """Committed reference, or None when it is missing or unreadable
    (every item it covers then fails its check)."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Base: fresh store per wave, wave bookkeeping, store/serve stats."""

    name = ""
    fresh_store_per_wave = True

    def __init__(self, seed: int, golden: Path):
        self.seed = seed
        self.rng = random.Random(seed)
        self.golden = golden
        self.reset_stats()

    def reset_stats(self) -> None:
        self.store_hits = self.store_misses = 0
        self.evictions = self.rehydrations = 0

    def setup(self) -> list[Item]:
        """Build fresh state and run one warm-up wave (returned so its
        outputs are checked too)."""
        return self.run_wave()

    def run_wave(self, *args) -> list[Item]:
        if self.fresh_store_per_wave:
            _fresh_store()
        store = get_store()
        before = store.stats()["totals"]
        items = self.wave(*args)
        after = store.stats()["totals"]
        self.store_hits += after["hits"] - before["hits"]
        self.store_misses += after["misses"] - before["misses"]
        return items

    def wave(self) -> list[Item]:
        raise NotImplementedError

    def check(self, item: Item) -> str | None:
        """None when the item's output matches its reference."""
        raise NotImplementedError

    def write_golden(self) -> None:
        pass


def _transcripts(golden: Path) -> dict:
    return {name: _load_json(golden / "transcripts" / f"{name}.json")
            for name in SCRIPTS}


def _check_transcript(refs: dict, item: Item, program: str) -> str | None:
    if isinstance(item.output, Exception):
        return f"{item.key}: {type(item.output).__name__}: {item.output}"
    step = item.key[1]
    if step == 0:
        return None                    # open: returns nothing to compare
    ref = refs.get(program)
    if not isinstance(ref, list) or step > len(ref) \
            or ref[step - 1] != item.output:
        return f"{item.key}: response differs from golden transcript"
    return None


class Workshop(Workload):
    """The 8 scripted workshop sessions, one tenant per program."""

    name = "workshop"

    def __init__(self, seed, golden):
        super().__init__(seed, golden)
        self.refs = _transcripts(golden)
        self.order = list(SCRIPTS)
        self.rng.shuffle(self.order)

    def wave(self):
        manager = SessionManager(max_live=len(SCRIPTS))
        items = []
        for name in self.order:
            dt, out = timed(manager.open, name, program_source(name))
            items.append(Item((name, 0), dt, out))
            for step, op in enumerate(SCRIPTS[name], 1):
                dt, out = timed(_serve_op, manager, name, op)
                items.append(Item((name, step), dt, out))
        stats = manager.stats()
        self.evictions += stats["evictions"]
        self.rehydrations += stats["rehydrations"]
        return items

    def check(self, item):
        return _check_transcript(self.refs, item, item.key[0])

    def write_golden(self):
        out = self.golden / "transcripts"
        out.mkdir(parents=True, exist_ok=True)
        for name in SCRIPTS:
            (out / f"{name}.json").write_text(
                json.dumps(oracle_transcript(name), indent=0) + "\n",
                encoding="utf-8")


def _serve_op(manager, sid: str, op: dict) -> str:
    return canonical_json(manager.run(sid, op["op"], op.get("params") or {}))


class ServeChurn(Workload):
    """8 programs x 4 tenants, round-robin one op at a time through a
    manager that keeps 8 sessions live, over one shared store."""

    name = "serve-churn"
    TENANTS = 4

    def __init__(self, seed, golden):
        super().__init__(seed, golden)
        self.refs = _transcripts(golden)
        self.jobs = [(f"{name}-{c}", name) for name in SCRIPTS
                     for c in range(self.TENANTS)]
        self.rng.shuffle(self.jobs)

    def setup(self):
        # warm-up: one tenant per program, so each script runs once; a
        # full churn wave would quadruple the run's setup time
        return self.run_wave([(f"{name}-0", name) for name in SCRIPTS])

    def wave(self, jobs=None):
        manager = SessionManager(max_live=len(SCRIPTS))
        jobs = jobs or self.jobs
        items = []
        for sid, name in jobs:
            dt, out = timed(manager.open, sid, program_source(name))
            items.append(Item((sid, 0), dt, out))
        for step in range(1, max(map(len, SCRIPTS.values())) + 1):
            for sid, name in jobs:
                if step <= len(SCRIPTS[name]):
                    dt, out = timed(_serve_op, manager, sid,
                                    SCRIPTS[name][step - 1])
                    items.append(Item((sid, step), dt, out))
        stats = manager.stats()
        self.evictions += stats["evictions"]
        self.rehydrations += stats["rehydrations"]
        return items

    def check(self, item):
        return _check_transcript(self.refs, item,
                                 item.key[0].rsplit("-", 1)[0])


#: (config, engine, DOALL workers, runs the auto-parallelized source)
EXEC_CONFIGS = (
    ("compiled", "compiled", None, False),
    ("vector", "vector", None, False),
    ("doall2", "compiled", 2, True),
)

#: the reference digest of a config is the tree engine's run of the
#: sequential or the auto-parallelized source (indexed by ``parallel``)
SOURCES = ("sequential", "parallel")


def run_digest(interp) -> str:
    """Digest of a finished run's observables: snapshot, clock, steps."""
    h = hashlib.sha256()
    snap = interp.snapshot()
    for key in sorted(snap):
        value = snap[key]
        h.update(f"{key}\0{type(value).__name__}\0".encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    h.update(repr((interp.clock, interp.steps)).encode())
    return h.hexdigest()


class Exec(Workload):
    """The 8 corpus programs on the compiled and vector tiers and on
    the DOALL runtime (2 workers, static schedule) over the
    auto-parallelized source.  Parse, autopar and compile are setup."""

    name = "exec"
    fresh_store_per_wave = False

    def __init__(self, seed, golden):
        super().__init__(seed, golden)
        self.refs = _load_json(golden / "exec.json") or {}
        self.programs: dict = {}
        self.jobs = [(config, name) for config in EXEC_CONFIGS
                     for name in ORDER]
        self.rng.shuffle(self.jobs)

    def _sources(self) -> dict[str, tuple[str, str]]:
        out = {}
        for name in ORDER:
            session = PedSession(PROGRAMS[name].source)
            session.auto_parallelize()
            out[name] = (PROGRAMS[name].source, session.source())
        return out

    def setup(self):
        _fresh_store()
        self.programs = {
            name: (AnalyzedProgram.from_source(seq),
                   AnalyzedProgram.from_source(par))
            for name, (seq, par) in self._sources().items()}
        return self.run_wave()       # first runs link and compile

    def wave(self):
        return [self._item(config, name) for config, name in self.jobs]

    def _item(self, config: tuple, name: str) -> Item:
        cfg, engine, workers, parallel = config
        program = self.programs[name][1 if parallel else 0]

        def run():
            interp = interp_verify.make_interpreter(
                program, inputs=list(PROGRAMS[name].inputs), engine=engine,
                workers=workers, schedule="static" if workers else None)
            interp.run()
            return interp

        dt, out = timed(run)
        return Item((cfg, name), dt, out)

    def check(self, item):
        if isinstance(item.output, Exception):
            return f"{item.key}: {type(item.output).__name__}: " \
                   f"{item.output}"
        cfg, name = item.key
        parallel = next(c[3] for c in EXEC_CONFIGS if c[0] == cfg)
        ref = self.refs.get(name, {}).get(SOURCES[parallel])
        if ref != run_digest(item.output):
            return f"{item.key}: observables differ from the tree engine"
        return None

    def write_golden(self):
        refs = {}
        for name, sources in self._sources().items():
            refs[name] = {}
            for parallel, source in enumerate(sources):
                tree = Interpreter(AnalyzedProgram.from_source(source),
                                   inputs=list(PROGRAMS[name].inputs))
                tree.run()
                refs[name][SOURCES[parallel]] = run_digest(tree)
        self.golden.mkdir(parents=True, exist_ok=True)
        (self.golden / "exec.json").write_text(
            json.dumps(refs, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")


class Synth(Workload):
    """Synthesized programs, each generated and checked against its
    planted truth; the seed picks the batch.  Every wave runs the same
    batch over a fresh store, so no wave reuses another's artifacts."""

    name = "synth"
    #: programs per wave: a whole number of template cycles, so every
    #: batch has the same template mix
    WAVE = 10 * len(synth.TEMPLATES)

    def wave(self):
        items = []
        for index in range(self.WAVE):
            dt, out = timed(self._check_one, index)
            items.append(Item(index, dt, out))
        return items

    def _check_one(self, index: int):
        return synth.check_program(synth.generate(self.seed, index))

    def check(self, item):
        if isinstance(item.output, Exception):
            return f"synth {item.key}: {type(item.output).__name__}: " \
                   f"{item.output}"
        if item.output:
            return item.output[0].describe()
        return None


class Fleet(Workload):
    """``run_fleet`` in auto mode over the 8 corpus programs with the
    default options (2 threads) and a fresh checkpoint journal."""

    name = "fleet"
    #: the warm-up batch: one fleet batch (two programs) exercises every
    #: stage; a full warm-up wave would triple the run's setup time
    WARMUP = ("neoss", "nxsns")

    def __init__(self, seed, golden):
        super().__init__(seed, golden)
        self.refs = _load_json(golden / "fleet.json") or {}

    def _fleet(self, programs) -> list[Item]:
        OUT.mkdir(parents=True, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="fleet-", dir=OUT)
        try:
            report = run_fleet(list(programs), PipelineOptions(mode="auto"),
                               FleetOptions(),
                               checkpoint=os.path.join(tmp, "journal.jsonl"))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        canonical = report.to_json()["programs"]
        return [Item(rec["program"], rec["elapsed"], canon)
                for rec, canon in zip(report.programs, canonical)]

    def setup(self):
        _fresh_store()
        return self._fleet(self.WARMUP)

    def wave(self):
        # corpus order, not a seeded shuffle: the fleet runs programs two
        # at a time, and which two share the interpreter lock changes
        # each program's pipeline latency
        return self._fleet(ORDER)

    def check(self, item):
        ref = self.refs.get(item.key)
        if ref is None or json.dumps(ref, sort_keys=True) \
                != json.dumps(item.output, sort_keys=True):
            return f"fleet {item.key}: record differs from golden"
        return None

    def write_golden(self):
        _fresh_store()
        records = {item.key: item.output for item in self._fleet(ORDER)}
        self.golden.mkdir(parents=True, exist_ok=True)
        (self.golden / "fleet.json").write_text(
            json.dumps(records, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")


WORKLOADS = {cls.name: cls for cls in (Workshop, ServeChurn, Exec, Synth,
                                       Fleet)}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

@dataclass
class Phase:
    """The measured waves of one phase (untraced or traced)."""

    walls: list
    waves: list            # list[list[Item]]
    failures: list
    counters: dict
    speed: HostSpeed

    @property
    def items(self) -> int:
        return sum(len(w) for w in self.waves)

    def bests(self) -> dict:
        """Each item's fastest latency (s) over the phase's waves; every
        wave runs the same items in the same order."""
        best: dict = {}
        for wave in self.waves:
            for it in wave:
                best[it.key] = min(it.latency, best.get(it.key, math.inf))
        return best


def check_items(wl: Workload, items: list[Item], failures: list) -> None:
    for item in items:
        msg = wl.check(item)
        if msg is not None:
            failures.append(msg)


def measure(wl: Workload, seconds: float, quick: bool, speed: HostSpeed,
            tracer: layertrace.LayerTracer | None = None) -> Phase:
    """Run whole waves until ``seconds`` have passed (one wave when
    quick); the calibration kernels run before each wave and outputs
    are checked after it, both outside the timing."""
    wl.reset_stats()
    counters.reset()
    walls, waves, failures = [], [], []
    t_end = time.perf_counter() + seconds
    while True:
        speed.sample()
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.span(layertrace.ROOT):
                items = wl.run_wave()
        else:
            items = wl.run_wave()
        walls.append(time.perf_counter() - t0)
        waves.append(items)
        check_items(wl, items, failures)
        if quick or time.perf_counter() >= t_end:
            break
    return Phase(walls, waves, failures, counters.snapshot(), speed)


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def throughput(phase: Phase, factor: float) -> float:
    """Items per wave over the shortest time the phase shows a wave can
    take, host-scaled.  That is the sum of the items' fastest latencies;
    where items overlap (the fleet's two threads) the sum exceeds every
    wave's time, and the fastest wave is the shorter."""
    wave_s = min(min(phase.walls), sum(phase.bests().values()))
    return len(phase.waves[0]) / (wave_s * factor)


def end_to_end(phase: Phase, setup_s: float, setups: int,
               factor: float) -> dict:
    """The end-to-end metrics as ``name -> (value, unit, samples)``.

    Latencies summarize the items' fastest latencies over the run's
    waves (``samples`` counts the items), and every time is multiplied
    by the run's host-speed ``factor``.
    """
    bests = [t * 1e3 * factor for t in phase.bests().values()]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (setup_s * factor, "s", setups),
        "throughput_per_s": (throughput(phase, factor), "items/s",
                             len(phase.walls)),
        "latency_p50_ms": (statistics.median(bests), "ms", len(bests)),
        "latency_p90_ms": (
            statistics.quantiles(bests, n=10, method="inclusive")[8],
            "ms", len(bests)),
        "latency_geomean_ms": (geomean(bests), "ms", len(bests)),
        "peak_rss_mb": (rss, "MB", 1),
    }


def _rate(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(wl: Workload, phase: Phase, tracer, overhead_pct: float
              ) -> dict:
    n = phase.items
    rows = tracer.table(n)
    out = {}
    for name in layertrace.LAYERS:
        out[f"{name}.self_ms"] = (rows[name]["self_ms"], "ms/item")
        out[f"{name}.calls"] = (rows[name]["calls"], "calls/item")
    out["untraced.self_ms"] = (rows[layertrace.ROOT]["self_ms"], "ms/item")
    out["traced.wall_ms"] = (sum(phase.walls) * 1e3 / n, "ms/item")
    c = phase.counters
    out.update({
        "store.hit_rate": (_rate(wl.store_hits,
                                 wl.store_hits + wl.store_misses), "ratio"),
        "dependence.pair.hit_rate": (c["pair_hit_rate"], "ratio"),
        "interp.compile.hit_rate": (c["compile_reuse_rate"], "ratio"),
        "interp.vector.fallback_rate": (
            _rate(c["vec_fallbacks"], c["vec_loops"] + c["vec_fallbacks"]),
            "ratio"),
        "interp.vector.entry_hit_rate": (
            _rate(c["vec_entry_hits"],
                  c["vec_entry_hits"] + c["vec_entry_misses"]), "ratio"),
        "interp.runtime.fallback_rate": (
            _rate(c["par_fallbacks"], c["par_loops"] + c["par_fallbacks"]),
            "ratio"),
        "serve.evictions": (wl.evictions / n, "count/item"),
        "serve.rehydrations": (wl.rehydrations / n, "count/item"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return out


def exec_rows(phase: Phase) -> dict:
    """Host-scaled fastest ms of every (config, program) item of the
    exec workload."""
    bests = phase.bests()
    factor = phase.speed.factor()
    return {f"exec.{cfg}.{name}_ms": bests[(cfg, name)] * 1e3 * factor
            for cfg, *_ in EXEC_CONFIGS for name in ORDER
            if (cfg, name) in bests}


def run(args) -> dict:
    wl = WORKLOADS[args.workload](args.seed, Path(args.golden_dir))
    failures: list = []
    attempted = 0
    setups = []
    speed = HostSpeed()
    for _ in range(1 if args.quick or args.trace else SETUP_REPS):
        speed.sample()
        t0 = time.perf_counter()
        warm = wl.setup()
        setups.append(time.perf_counter() - t0)
        attempted += len(warm)
        check_items(wl, warm, failures)
    setup_s = IMPORT_S + statistics.median(setups)

    result: dict = {"workload": wl.name, "seed": args.seed,
                    "numpy": np.__version__}
    if not args.trace:
        phase = measure(wl, args.seconds, args.quick, speed)
        metrics = {k: {"value": v, "unit": u, "n": n} for k, (v, u, n)
                   in end_to_end(phase, setup_s, len(setups),
                                 speed.factor()).items()}
        result["unscaled"] = {k: v for k, (v, _, _) in end_to_end(
            phase, setup_s, len(setups), 1.0).items()}
    else:
        base = measure(wl, args.seconds / 2, args.quick, speed)
        tracer = layertrace.LayerTracer()
        with tracer.installed():
            phase = measure(wl, args.seconds / 2, args.quick, HostSpeed(),
                            tracer)
        overhead = (throughput(base, base.speed.factor())
                    / throughput(phase, phase.speed.factor()) - 1) * 100
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in
                   per_layer(wl, phase, tracer, overhead).items()}
        trace_out = args.trace_out or str(OUT / f"trace-{wl.name}.json")
        tracer.write_chrome_trace(trace_out, {"workload": wl.name,
                                              "seed": args.seed})
        result["trace_file"] = trace_out
        failures += base.failures
        attempted += base.items
    failures += phase.failures
    attempted += phase.items
    result.update({
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:20], "metrics": metrics,
        "calibration_ms": phase.speed.calibration_ms(),
        "durations": {"import_s": IMPORT_S, "setups_s": setups,
                      "waves_s": phase.walls,
                      "total_s": time.perf_counter() - _T_START},
    })
    if wl.name == "exec":
        result["exec_rows"] = exec_rows(base if args.trace else phase)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1993)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--golden-dir", default=str(GOLDEN))
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    if args.write_golden:
        for cls in WORKLOADS.values():
            cls(args.seed, Path(args.golden_dir)).write_golden()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
