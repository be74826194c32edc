"""Outside-in per-layer tracer for the benchmark's traced runs.

The tracer times calls into each layer's public entry points by
wrapping them from the benchmark's side: nothing under ``src/`` knows
it exists.  Module functions are replaced by identity in every loaded
``repro.*`` module, so ``from x import f`` bindings are timed too;
methods are replaced on their class (and on every subclass that
overrides them).  :func:`resolve` raises when a target is missing, so a
renamed entry point fails the run instead of reporting zero.

Attribution.  Every span event charges the wall time elapsed since the
previous event to the innermost open span of the threads doing traced
work at that instant.  When worker threads are inside spans they share
the instant evenly and the driving thread (blocked on them) gets none
of it; otherwise the driving thread's innermost span gets all of it.
On a single thread this is ordinary self time.  Because the driving
thread wraps each measured wave in a root span, the per-layer self
times of a run add up to its traced wall time by construction, even
when the fleet's pipelines run on two threads.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: (span name, "module:attribute[.method]") -- one entry point per row
TARGETS = (
    ("serve.run", "repro.serve.manager:SessionManager.run"),
    ("serve.snapshot", "repro.serve.state:serialize"),
    ("serve.snapshot", "repro.serve.state:rehydrate"),
    ("ped.op", "repro.serve.ops:run_op"),
    ("fortran.parse", "repro.fortran.parser:parse_program"),
    ("fortran.classify", "repro.fortran.classify:classify_source"),
    ("fortran.print", "repro.fortran.printer:print_program"),
    ("ir.build", "repro.ir.program:AnalyzedProgram.__init__"),
    ("interproc.summaries", "repro.interproc.summary:SummaryBuilder.build"),
    ("dependence.loop", "repro.dependence.ddg:DependenceAnalyzer.analyze_loop"),
    ("dependence.pair", "repro.dependence.tests:test_pair"),
    ("lint.run", "repro.lint.driver:run_rules"),
    ("transform.check", "repro.transform.base:Transformation.check"),
    ("transform.apply", "repro.transform.base:Transformation.apply"),
    ("perf.estimate", "repro.perf.estimate:estimate_program"),
    ("interp.link", "repro.interp.compile:linked_unit"),
    ("interp.tree", "repro.interp.machine:Interpreter.run"),
    ("interp.compiled", "repro.interp.compile:CompiledInterpreter.run"),
    ("interp.vector", "repro.interp.vectorize:VectorInterpreter.run"),
    ("interp.shadow", "repro.interp.shadow:run_shadow"),
    ("interp.relative", "repro.interp.relative:run_to_sync"),
    ("store.get", "repro.store:ArtifactStore.get"),
    ("store.put", "repro.store:ArtifactStore.put"),
    ("fleet.pipeline", "repro.fleet.pipeline:run_program_pipeline"),
    ("fleet.checkpoint", "repro.fleet.checkpoint:CheckpointJournal.append"),
    ("fleet.bisect", "repro.fleet.bisect:find_divergence"),
    ("synth.generate", "repro.corpus.synth:generate"),
)

#: spans charged only when ``type(self)`` is exactly the target's class:
#: the shadow, sync-point and adversarial interpreters subclass the tree
#: walker, and their runs belong to interp.shadow / interp.relative
EXACT_CLASS = frozenset({"interp.tree", "interp.compiled", "interp.vector"})

#: the root span the driving thread opens around each measured wave;
#: its self time is the wave's time outside every traced layer
ROOT = "untraced"

#: unique span names in table order
LAYERS = tuple(dict.fromkeys(name for name, _ in TARGETS))

#: spans kept for the trace file; later ones are counted as dropped
#: (self times and call counts still include them)
MAX_EVENTS = 100_000


def resolve(path: str):
    """``(owner, attribute, original)`` for one ``module:attr`` target.

    Raises :class:`LookupError` when the module, class or attribute is
    gone, so a renamed public function fails loudly.
    """
    mod_name, _, qual = path.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError as e:
        raise LookupError(f"tracer target {path}: {e}") from None
    *outer, attr = qual.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"tracer target {path}: no {part!r}")
    original = getattr(owner, attr, None)
    if not callable(original):
        raise LookupError(f"tracer target {path}: no callable {attr!r}")
    return owner, attr, original


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class LayerTracer:
    """Span recorder with wall-time attribution across threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._stacks: dict[int, list] = {}
        self._main = threading.get_ident()
        self._t0 = self._last = time.perf_counter_ns()
        self.self_ns: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.events: list[tuple] = []
        self.dropped = 0
        self._patches: list[tuple] = []

    # -- spans ----------------------------------------------------------------

    def _charge(self, now: int) -> None:
        dt = now - self._last
        self._last = now
        busy = [s for tid, s in self._stacks.items()
                if s and tid != self._main]
        if busy:
            share = dt / len(busy)
            for stack in busy:
                self.self_ns[stack[-1][0]] += share
        else:
            stack = self._stacks.get(self._main)
            if stack:
                self.self_ns[stack[-1][0]] += dt

    def enter(self, name: str) -> None:
        tid = threading.get_ident()
        with self._lock:
            now = time.perf_counter_ns()
            self._charge(now)
            self._stacks.setdefault(tid, []).append((name, now))
            self.calls[name] += 1

    def exit(self) -> None:
        tid = threading.get_ident()
        with self._lock:
            now = time.perf_counter_ns()
            self._charge(now)
            name, start = self._stacks[tid].pop()
            if len(self.events) < MAX_EVENTS:
                self.events.append((name, start, now - start, tid))
            else:
                self.dropped += 1

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    # -- patching -------------------------------------------------------------

    def _wrap(self, fn, name: str, exact: type | None = None):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if exact is not None and type(args[0]) is not exact:
                return fn(*args, **kwargs)
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), had))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target (all targets resolve first, or none patch)."""
        resolved = [(name, *resolve(path)) for name, path in TARGETS]
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "repro" or n.startswith("repro.")) and m]
        for name, owner, attr, original in resolved:
            if not isinstance(owner, type):
                wrapper = self._wrap(original, name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
                continue
            exact = owner if name in EXACT_CLASS else None
            self._set(owner, attr, self._wrap(original, name, exact))
            if exact is None:
                for sub in _subclasses(owner):
                    if attr in vars(sub):
                        self._set(sub, attr,
                                  self._wrap(vars(sub)[attr], name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value, had = self._patches.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ---------------------------------------------------------------

    def table(self, items: int) -> dict[str, dict]:
        """Per-item self time (ms) and calls of every layer plus the
        root; the self times sum to the traced wall time per item."""
        n = max(1, items)
        return {name: {"self_ms": self.self_ns.get(name, 0.0) / 1e6 / n,
                       "calls": self.calls.get(name, 0) / n}
                for name in (*LAYERS, ROOT)}

    def write_chrome_trace(self, path: str, meta: dict) -> None:
        """Chrome trace-event JSON (Perfetto / chrome://tracing)."""
        pid = os.getpid()
        events = [{"name": "wave" if name == ROOT else name,
                   "cat": name.split(".")[0], "ph": "X",
                   "ts": (start - self._t0) / 1e3, "dur": dur / 1e3,
                   "pid": pid, "tid": tid}
                  for name, start, dur, tid in self.events]
        doc = {"traceEvents": events, "displayTimeUnit": "ms",
               "otherData": dict(meta, dropped_events=self.dropped)}
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
