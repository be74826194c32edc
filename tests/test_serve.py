"""PED-as-a-service (repro.serve).

The service contract under test: every response a client receives is
byte-identical to the same interaction against a private in-process
``PedSession`` -- across snapshot eviction/rehydration, across cache
warm-up by other tenants, across concurrent clients, and across the
HTTP boundary.
"""

import asyncio
import itertools
import json
import pickle
import sys
import threading
import time
import types

import pytest

from repro.analysis.defuse import compute_defuse
from repro.dependence import model as dep_model
from repro.dependence.ddg import DependenceAnalyzer
from repro.fortran import ast as fast
from repro.interp import compile as interp_compile
from repro.interproc import SummaryBuilder
from repro.ped.filters import DependenceFilter, VariableFilter
from repro.ped.scripts import program_source
from repro.ped.session import PedSession
from repro.serve import (PedClient, PedServer, SCRIPTS, SessionManager,
                         canonical_json, oracle_transcript, rehydrate,
                         run_op, run_script, serialize)
from repro.serve import state as serve_state
from repro.store import ArtifactStore, scoped_store

SMALL = ("neoss", "nxsns", "slalom")


@pytest.fixture(scope="module")
def oracles():
    """One oracle transcript per program, computed once."""
    return {name: oracle_transcript(name) for name in SCRIPTS}


# ---------------------------------------------------------------------------
# The op layer
# ---------------------------------------------------------------------------

class TestOps:
    def test_unknown_op_is_deterministic_error(self):
        s = PedSession(program_source("neoss"))
        out = run_op(s, "frobnicate")
        assert out == {"error": {"type": "UnknownOp",
                                 "message": "frobnicate"}}

    def test_failing_op_is_deterministic_error(self):
        s = PedSession(program_source("neoss"))
        out = run_op(s, "select_loop", {"unit": "REGIME", "id": "L99"})
        assert out["error"]["type"] == "LookupError"

    def test_canonical_json_is_stable(self):
        a = canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]})
        b = canonical_json({"a": [2, {"c": 4, "d": 3}], "b": 1})
        assert a == b
        assert " " not in a

    def test_transcripts_cache_independent(self, oracles):
        """A warm shared store must not change a single byte."""
        for name in SMALL:
            assert oracle_transcript(name) == oracles[name]

    def test_transcripts_have_no_uids(self, oracles):
        # responses name loops by display id, never by statement uid
        for name, transcript in oracles.items():
            for entry in transcript:
                assert '"uid"' not in entry, name


# ---------------------------------------------------------------------------
# Serialize -> evict -> rehydrate
# ---------------------------------------------------------------------------

class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("name", SCRIPTS)
    def test_mid_script_roundtrip_is_byte_identical(self, name,
                                                    oracles):
        """Snapshot at every-other-op granularity would be slow; one
        cut at the midpoint already crosses marks, journal entries,
        assertions and selections for every program."""
        script = SCRIPTS[name]
        half = len(script) // 2
        s = PedSession(program_source(name))
        head = run_script(s, script[:half])
        s2 = rehydrate(serialize(s))
        tail = run_script(s2, script[half:])
        assert head + tail == oracles[name]

    def test_double_roundtrip(self, oracles):
        name = "slalom"
        script = SCRIPTS[name]
        s = PedSession(program_source(name))
        out = []
        for i, step in enumerate(script):
            out.extend(run_script(s, [step]))
            if i % 3 == 2:
                s = rehydrate(serialize(s))
        assert out == oracles[name]

    def test_undo_redo_journal_survives(self):
        src = program_source("slalom")
        a = PedSession(src)
        b = PedSession(src)
        for s in (a, b):
            li = [x for x in s.loops("FACTOR") if x.var == "J"][0]
            s.select_unit("FACTOR")
            res = s.apply("loop_unrolling", loop=li, factor=4)
            assert res.applied
        b = rehydrate(serialize(b))
        # journal depths and behavior match the never-evicted twin
        assert b.health().undo_depth == a.health().undo_depth
        assert a.undo() and b.undo()
        assert a.source() == b.source()
        assert a.redo() and b.redo()
        assert a.source() == b.source()
        assert b.history() == a.history()

    def test_events_and_health_identical(self):
        src = program_source("neoss")
        s = PedSession(src)
        run_script(s, SCRIPTS["neoss"])
        twin = rehydrate(serialize(s))
        assert [(e.feature, e.detail) for e in twin.events] \
            == [(e.feature, e.detail) for e in s.events]
        assert canonical_json(run_op(twin, "health")) \
            == canonical_json(run_op(s, "health"))

    def test_marks_and_classifications_survive(self):
        s = PedSession(program_source("nxsns"))
        run_script(s, SCRIPTS["nxsns"][:6])   # rejects + classifies
        twin = rehydrate(serialize(s))
        assert canonical_json(run_op(twin, "dependences")) \
            == canonical_json(run_op(s, "dependences"))
        assert twin._marks == s._marks
        assert twin._var_reasons == s._var_reasons

    @staticmethod
    def _panes(s: PedSession) -> list[str]:
        return [s.source_pane.render(), s.dependence_pane.render(),
                s.variable_pane.render(), s.lint_pane.render()]

    def test_panes_survive(self):
        """Selections, filters, source arrows and lint findings are
        session state: every pane renders the same after a round trip."""
        s = PedSession(program_source("nxsns"))
        run_script(s, SCRIPTS["nxsns"][:2])   # selects OVERLAP/IT
        dep = s.dependences()[0]
        s.select_dependence(dep)
        s.set_dependence_filter(DependenceFilter(
            var=dep.var, carried=True, description="carried on OVL"))
        s.variable_pane.select("MAP")
        s.lint()
        before = self._panes(s)
        assert "=>" in before[0]                    # source arrows
        assert before[1].splitlines()[1].startswith(">")
        assert len(before[1].splitlines()) < len(s.dependences()) + 1
        assert any(row.startswith(">MAP") for row in before[2].splitlines())
        twin = rehydrate(serialize(s))
        assert self._panes(twin) == before
        assert twin.render() == s.render()

    @pytest.mark.parametrize("name", SCRIPTS)
    def test_rehydrate_rederives_nothing(self, name, oracles,
                                         monkeypatch):
        """Rehydration is a pickle load: def-use, loop analysis,
        interprocedural summaries and fingerprints all travel in (or
        rebuild lazily after) the snapshot, and the script still ends
        exactly as the oracle's."""
        script = SCRIPTS[name]
        half = len(script) // 2
        s = PedSession(program_source(name))
        head = run_script(s, script[:half])
        blob = serialize(s)

        def forbidden(*args, **kwargs):
            raise AssertionError("re-derived during rehydrate")

        with monkeypatch.context() as mp:
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro.") \
                        and getattr(mod, "compute_defuse", None) \
                        is compute_defuse:
                    mp.setattr(mod, "compute_defuse", forbidden)
            mp.setattr(DependenceAnalyzer, "analyze_loop", forbidden)
            mp.setattr(SummaryBuilder, "build", forbidden)
            mp.setattr(SummaryBuilder, "propagate_common_symbols",
                       forbidden)
            mp.setattr(interp_compile, "fingerprint_unit", forbidden)
            s2 = rehydrate(blob)
        # the fingerprint memos travel, so the first store probe after
        # the restore does not re-hash the program either
        assert [(u.generation, u._fp_memo)
                for u in s2.program.units.values()] \
            == [(u.generation, u._fp_memo)
                for u in s.program.units.values()]
        tail = run_script(s2, script[half:])
        assert head + tail == oracles[name]

    def test_id_counters_floored_in_fresh_process(self, monkeypatch):
        """Blobs carry statement uids and dependence ids; a restore into
        a process whose counters start over must not mint them again."""
        monkeypatch.setattr(dep_model, "_dep_ids", itertools.count(1))
        with scoped_store(ArtifactStore(from_env=False)):
            s = PedSession(program_source("slalom"))
            s.select_unit("RESID")
            s.select_loop(s.loops()[0])
            blob = serialize(s)
            # a fresh process: both counters start over
            monkeypatch.setattr(dep_model, "_dep_ids", itertools.count(1))
            monkeypatch.setattr(fast, "_node_ids", itertools.count(1))
            twin = rehydrate(blob)
            restored = {d.id for d in twin.dependence_pane.dependences}
            assert restored
            twin.select_unit("FACTOR")
            twin.select_loop(twin.loops()[0])
            minted = {d.id for d in twin.dependence_pane.dependences}
            assert minted and not minted & restored
            top = max(st.uid for u in twin.program.ast.units
                      for st, _ in fast.walk_stmts(u.body))
            assert next(fast._node_ids) > top

    def test_id_floors_only_rise_under_concurrency(self):
        """Concurrent rehydrations raise a counter under one lock, so a
        lower floor never replaces a higher one."""
        class SlowCount:
            # yields the interpreter lock between reading the counter
            # and replacing it: the window a lost update needs
            def __init__(self):
                self.n = 1

            def __next__(self):
                time.sleep(0.01)
                self.n += 1
                return self.n - 1

        ids = types.SimpleNamespace(counter=SlowCount())
        floors = [1000 - 7 * i for i in range(16)]
        start = threading.Barrier(len(floors))

        def restore(floor: int) -> None:
            start.wait(timeout=30)
            serve_state._raise_floor(ids, "counter", floor)

        threads = [threading.Thread(target=restore, args=(f,))
                   for f in floors]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert next(ids.counter) >= max(floors)


# ---------------------------------------------------------------------------
# The session manager
# ---------------------------------------------------------------------------

class TestSessionManager:
    def test_unknown_session(self):
        m = SessionManager(max_live=2)
        out = m.run("nope", "units")
        assert out["error"]["type"] == "UnknownSession"

    def test_duplicate_open_rejected(self):
        m = SessionManager(max_live=2)
        m.open("a", program_source("neoss"))
        with pytest.raises(KeyError):
            m.open("a", program_source("neoss"))

    def test_eviction_is_transparent(self, oracles):
        """max_live=1 with interleaved clients: every op rehydrates a
        snapshotted session, and nobody can tell."""
        m = SessionManager(max_live=1)
        names = list(SMALL)
        for name in names:
            m.open(name, program_source(name))
        transcripts = {name: [] for name in names}
        longest = max(len(SCRIPTS[n]) for n in names)
        for i in range(longest):
            for name in names:       # round-robin forces LRU churn
                if i < len(SCRIPTS[name]):
                    step = SCRIPTS[name][i]
                    transcripts[name].append(canonical_json(
                        m.run(name, step["op"],
                              step.get("params") or {})))
        for name in names:
            assert transcripts[name] == oracles[name], name
        stats = m.stats()
        assert stats["evictions"] > 0
        assert stats["rehydrations"] > 0
        assert stats["live"] <= 1

    def test_unpicklable_session_stays_live(self, oracles):
        """A session whose snapshot fails (a pane filter holding a
        lambda) stays live; eviction moves on to the next idle session
        and the request that triggered it still gets its response."""
        m = SessionManager(max_live=1)
        m.open("a", program_source("neoss"))
        m.open("b", program_source("slalom"))      # snapshots a
        m.run("a", "units")                        # a live, b snapshotted
        m._entries["a"].session.set_variable_filter(
            VariableFilter.shared_arrays())        # lambda predicate
        served = [canonical_json(m.run("b", step["op"],
                                       step.get("params") or {}))
                  for step in SCRIPTS["slalom"]]
        assert served == oracles["slalom"]
        stats = m.stats()
        assert stats["snapshot_failures"] > 0
        assert m._entries["a"].session is not None
        assert stats["snapshot_bytes"] > 0         # b went to a blob

    def test_stale_seed_blob_reparsed(self, oracles):
        """A seed blob in an older snapshot layout (a disk tier written
        before an upgrade) is refused, and the tenant parses afresh."""
        src = program_source("neoss")
        stale = pickle.dumps({"version": 1}, pickle.HIGHEST_PROTOCOL)
        with pytest.raises(ValueError):
            rehydrate(stale)
        store = ArtifactStore(from_env=False)
        store.put("seed", (src, True), stale)
        with scoped_store(store):
            m = SessionManager(max_live=2)
            m.open("a", src)
            served = [canonical_json(m.run("a", step["op"],
                                           step.get("params") or {}))
                      for step in SCRIPTS["neoss"]]
        assert served == oracles["neoss"]

    def test_close(self):
        m = SessionManager(max_live=2)
        m.open("a", program_source("neoss"))
        assert m.close("a")
        assert not m.close("a")
        assert m.run("a", "units")["error"]["type"] == "UnknownSession"


# ---------------------------------------------------------------------------
# Concurrent clients: the determinism fuzz
# ---------------------------------------------------------------------------

class TestConcurrentDeterminism:
    def test_concurrent_clients_byte_identical(self, oracles):
        """Several threads drive distinct sessions (two tenants per
        program) on one manager small enough to force eviction churn;
        every transcript must equal the single-user oracle."""
        m = SessionManager(max_live=2)
        jobs = [(f"{name}-{c}", name)
                for name in SMALL for c in range(2)]
        for sid, name in jobs:
            m.open(sid, program_source(name))
        results: dict[str, list] = {}
        errors: list = []

        def client(sid: str, name: str):
            try:
                out = [canonical_json(
                    m.run(sid, step["op"], step.get("params") or {}))
                    for step in SCRIPTS[name]]
                results[sid] = out
            except BaseException as e:   # pragma: no cover
                errors.append(e)

        threads = [threading.Thread(target=client, args=j)
                   for j in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not errors, errors[0]
        for sid, name in jobs:
            assert results[sid] == oracles[name], sid
        assert m.stats()["evictions"] > 0


# ---------------------------------------------------------------------------
# Cross-session artifact sharing
# ---------------------------------------------------------------------------

class TestCrossSessionSharing:
    """The store namespaces behind the A14 speedup actually share, and
    sharing never changes a response byte.

    Statement uids are minted from a process-global counter, so two
    independently parsed sessions on the same source NEVER agree on
    uids -- these tests prove the uid-free keys plus positional uid
    remapping hand tenant B tenant A's artifacts anyway.
    """

    @staticmethod
    def _replay(store, name, sid=None):
        with scoped_store(store):
            s = PedSession(program_source(name))
            return s, [canonical_json(
                run_op(s, step["op"], step.get("params") or {}))
                for step in SCRIPTS[name]]

    def test_loopdeps_adopted_across_uid_divergent_sessions(
            self, oracles):
        store = ArtifactStore(from_env=False)
        a, out_a = self._replay(store, "slalom")
        b, out_b = self._replay(store, "slalom")
        assert out_a == oracles["slalom"]
        assert out_b == oracles["slalom"]
        # the sessions really disagree on uids ...
        ua = [u.unit.body[0].uid for u in a.program.units.values()]
        ub = [u.unit.body[0].uid for u in b.program.units.values()]
        assert ua != ub
        # ... yet B adopted A's pickled loop analyses
        assert store.stats()["memory"]["loopdeps"]["hits"] > 0

    def test_summaries_and_lint_shared(self, oracles):
        store = ArtifactStore(from_env=False)
        _, out_a = self._replay(store, "neoss")
        _, out_b = self._replay(store, "neoss")
        assert out_a == out_b == oracles["neoss"]
        mem = store.stats()["memory"]
        assert mem["summary"]["hits"] > 0
        assert mem["lint"]["hits"] > 0

    def test_worlds_race_shared(self):
        """An exploration raced once is adopted from the store by the
        next tenant, byte for byte."""
        store = ArtifactStore(from_env=False)
        params = {"max_worlds": 2, "adopt": True}
        outs = []
        for _ in range(2):
            with scoped_store(store):
                s = PedSession(program_source("neoss"))
                outs.append(canonical_json(
                    run_op(s, "explore", params)))
        assert outs[0] == outs[1]
        assert store.stats()["memory"]["worlds"]["hits"] > 0


# ---------------------------------------------------------------------------
# The HTTP boundary
# ---------------------------------------------------------------------------

@pytest.fixture(scope="class")
def http_server():
    server = PedServer(max_live=2, workers=4)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    addr = {}

    def run():
        asyncio.set_event_loop(loop)
        addr["hp"] = loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    t = threading.Thread(target=run, daemon=True)
    t.start()
    assert started.wait(timeout=30)
    yield addr["hp"]
    asyncio.run_coroutine_threadsafe(server.stop(), loop).result(30)

    async def _drain():
        tasks = [x for x in asyncio.all_tasks()
                 if x is not asyncio.current_task()]
        for x in tasks:
            x.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    asyncio.run_coroutine_threadsafe(_drain(), loop).result(30)
    loop.call_soon_threadsafe(loop.stop)
    t.join(timeout=30)
    loop.close()


class TestHTTP:
    def test_served_transcript_matches_oracle(self, http_server,
                                              oracles):
        host, port = http_server
        with PedClient(host, port) as c:
            assert c.open("t1", program="neoss") \
                == {"result": {"opened": "t1"}}
            served = c.run_script("t1", SCRIPTS["neoss"])
            assert served == oracles["neoss"]
            c.close_session("t1")

    def test_health_endpoint(self, http_server):
        host, port = http_server
        with PedClient(host, port) as c:
            h = c.health()
            assert "manager" in h and "artifact_store" in h
            assert "memory" in h["artifact_store"]
            assert "totals" in h["artifact_store"]

    def test_unknown_route_and_bad_json(self, http_server):
        host, port = http_server
        import http.client
        conn = http.client.HTTPConnection(host, port, timeout=60)
        conn.request("GET", "/nothing/here")
        resp = conn.getresponse()
        assert resp.status == 404
        body = json.loads(resp.read())
        assert body["error"]["type"] == "NotFound"
        conn.request("POST", "/session/x/op", body="{not json",
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 400
        conn.close()

    def test_duplicate_open_conflict(self, http_server):
        host, port = http_server
        with PedClient(host, port) as c:
            c.open("dup", program="neoss")
            out = c.open("dup", program="neoss")
            assert out["error"]["type"] == "SessionExists"
            c.close_session("dup")

    def test_concurrent_http_clients(self, http_server, oracles):
        host, port = http_server
        errors: list = []
        results: dict[str, list] = {}

        def client(sid: str, name: str):
            try:
                with PedClient(host, port) as c:
                    c.open(sid, program=name)
                    results[sid] = c.run_script(sid, SCRIPTS[name])
                    c.close_session(sid)
            except BaseException as e:   # pragma: no cover
                errors.append(e)

        jobs = [(f"h-{name}-{i}", name)
                for name in ("neoss", "slalom") for i in range(2)]
        threads = [threading.Thread(target=client, args=j)
                   for j in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not errors, errors[0]
        for sid, name in jobs:
            assert results[sid] == oracles[name], sid
