"""The session table: concurrent multi-tenant PedSession hosting.

Locking model, two levels:

* one table lock guarding the LRU bookkeeping (held only for dict
  surgery, never while a session executes an op);
* one lock per session entry, held for the duration of each op, so
  requests to the *same* session serialize (a ``PedSession`` is not
  thread-safe) while requests to *different* sessions proceed in
  parallel on the server's worker threads.

Residency is bounded: at most ``max_live`` sessions keep their live
``PedSession`` object; beyond that the least-recently-used idle session
is transparently snapshotted to bytes (:func:`repro.serve.state
.serialize`) and rehydrated on its next request.  A session whose lock
is currently held is never chosen as the victim -- eviction skips to
the next-least-recent idle entry rather than blocking the request that
triggered it.  A session that cannot be snapshotted (say, a pane filter
holding a lambda) stays live and is counted in ``snapshot_failures``:
eviction moves on to the next candidate and never fails the request
that triggered it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..ped.session import PedSession
from ..store import MISS, declare as _declare_ns, get_store
from .ops import run_op
from .state import rehydrate, serialize

#: pickled fresh-session seeds keyed by source text.  Every tenant of
#: the same program clones from one seed, so all tenants' ASTs assign
#: identical statement uids -- the property the uid-pinned "loopdeps"
#: artifacts (see repro.ped.session) need to be shareable across
#: sessions (and, via the disk tier, across server restarts).
_SEED_NS = "seed"
_declare_ns(_SEED_NS, mem_entries=32, disk=True)


class _Entry:
    __slots__ = ("lock", "session", "blob")

    def __init__(self, session: PedSession):
        self.lock = threading.Lock()
        self.session: PedSession | None = session
        self.blob: bytes | None = None


class SessionManager:
    """Bounded table of named sessions with LRU snapshot eviction."""

    def __init__(self, max_live: int = 8):
        if max_live < 1:
            raise ValueError("max_live must be >= 1")
        self.max_live = max_live
        self._table_lock = threading.Lock()
        #: session id -> entry, most recently used last
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self.evictions = 0
        self.rehydrations = 0
        self.snapshot_failures = 0
        self.ops_run = 0

    # -- lifecycle ----------------------------------------------------------

    def open(self, session_id: str, source: str,
             interprocedural: bool = True) -> None:
        """Create a session over Fortran source text.

        Tenants clone from a per-source pickled seed: the first open
        parses and serializes, later opens rehydrate the blob.  A clone
        is indistinguishable from a fresh parse except that its AST
        reuses the seed's statement uids, which is what lets tenants
        share uid-pinned loop-dependence artifacts.
        """
        session = self._seed_session(source, interprocedural)
        with self._table_lock:
            if session_id in self._entries:
                raise KeyError(f"session {session_id!r} already exists")
            self._entries[session_id] = _Entry(session)
        self._shed()

    @staticmethod
    def _seed_session(source: str, interprocedural: bool) -> PedSession:
        key = (source, bool(interprocedural))
        blob = get_store().get(_SEED_NS, key)
        if blob is not MISS:
            try:
                return rehydrate(blob)
            except Exception:
                pass
        session = PedSession(source, interprocedural=interprocedural)
        try:
            get_store().put(_SEED_NS, key, serialize(session))
        except Exception:
            pass
        return session

    def close(self, session_id: str) -> bool:
        with self._table_lock:
            return self._entries.pop(session_id, None) is not None

    def sessions(self) -> list[dict]:
        with self._table_lock:
            return [{"id": sid, "live": e.session is not None}
                    for sid, e in self._entries.items()]

    # -- the request path ---------------------------------------------------

    def run(self, session_id: str, op: str,
            params: dict | None = None) -> dict:
        """Execute one op against one session (thread-safe)."""
        with self._table_lock:
            entry = self._entries.get(session_id)
            if entry is not None:
                self._entries.move_to_end(session_id)
        if entry is None:
            return {"error": {"type": "UnknownSession",
                              "message": session_id}}
        with entry.lock:
            if entry.session is None:
                entry.session = rehydrate(entry.blob)
                entry.blob = None
                with self._table_lock:
                    self.rehydrations += 1
            session = entry.session
            response = run_op(session, op, params)
        with self._table_lock:
            self.ops_run += 1
        self._shed()
        return response

    # -- eviction -----------------------------------------------------------

    def _shed(self) -> None:
        """Snapshot least-recently-used idle sessions down to the bound."""
        failed: set[_Entry] = set()       # entries that would not pickle
        while True:
            victim: _Entry | None = None
            with self._table_lock:
                live = [e for e in self._entries.values()
                        if e.session is not None]
                if len(live) <= self.max_live:
                    return
                for e in live:            # oldest first
                    # never block on a session mid-op; skip to the next
                    # least-recent idle candidate
                    if e not in failed and e.lock.acquire(blocking=False):
                        victim = e
                        break
                if victim is None:
                    return                # the rest is busy or unpicklable
            try:
                if victim.session is not None:
                    victim.blob = serialize(victim.session)
                    victim.session = None
                    with self._table_lock:
                        self.evictions += 1
            except Exception:
                failed.add(victim)        # stays live; try the next one
                with self._table_lock:
                    self.snapshot_failures += 1
            finally:
                victim.lock.release()

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        with self._table_lock:
            live = sum(1 for e in self._entries.values()
                       if e.session is not None)
            return {
                "sessions": len(self._entries),
                "live": live,
                "snapshotted": len(self._entries) - live,
                "snapshot_bytes": sum(len(e.blob)
                                      for e in self._entries.values()
                                      if e.blob is not None),
                "max_live": self.max_live,
                "evictions": self.evictions,
                "rehydrations": self.rehydrations,
                "snapshot_failures": self.snapshot_failures,
                "ops_run": self.ops_run,
            }
