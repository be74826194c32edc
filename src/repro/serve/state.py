"""Transparent session snapshot / rehydration for the session server.

An evicted session must come back *exactly* as it left: same marks,
same undo/redo journal, same event log, same panes (selection, filters,
source arrows, lint findings) -- a client cannot tell whether its
session stayed resident or round-tripped through a snapshot.  The tests
pin this as byte-identity of every op response across serialize ->
evict -> rehydrate, and of every pane's rendering.

A snapshot is one pickle of the :class:`PedSession`, so object identity
survives inside it: the undo journal's :class:`UnitSnapshot` objects
restore state onto the *live* ``ProgramUnit`` and ``SymbolTable``
objects, the source pane renders the program's own ``UnitIR``, and the
dependence pane shares its ``Dependence`` rows with the current loop's
analysis.  What a snapshot carries is decided by the objects that own
the state, through ``__getstate__``:

* carried -- the program (AST, resolved symbol tables, each unit's
  invalidation generation and fingerprint digest), the journal, marks,
  classifications, assertions, event log, diagnostics, all four panes
  and the current loop's ``LoopDependences``.  Fingerprints and the
  current loop's analysis are cheap to pickle and costly to derive;
* dropped -- derived caches: analyzers, interprocedural summaries, the
  incremental linter, every other cached loop analysis, each unit's
  CFG, loop tree and compiled code, the call graph and the source
  pane's line cache.  Each rebuilds lazily on first use, mostly from
  the artifact store (:mod:`repro.store`), whose keys are the carried
  structural fingerprints.

Rehydration is therefore a pickle load: nothing is re-analyzed, re-
resolved or re-fingerprinted.  A new session attribute survives
eviction unless its owner drops it.

Ids are process-local counters.  The blob records the serializing
process's next statement uid and dependence id, which bound every id
in the session; :func:`rehydrate` advances this process's counters past
them, so ids minted after a restore into a fresh process cannot collide
with the restored ones.
"""

from __future__ import annotations

import io
import itertools
import pickle
import threading

from ..dependence import model as dep_model
from ..fortran import ast as fast
from ..ped.session import PedSession

#: bump when the snapshot layout changes; blobs of another version are
#: refused (the session manager then re-parses the seed)
SNAPSHOT_VERSION = 2

#: concurrent rehydrations must not lower each other's counter floors
_FLOOR_LOCK = threading.Lock()


def serialize(session: PedSession) -> bytes:
    """Snapshot a session into one self-contained blob."""
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dump((SNAPSHOT_VERSION, next(fast._node_ids),
                  dep_model.fresh_dep_id()))
    pickler.dump(session)
    return buf.getvalue()


def _raise_floor(module, counter: str, floor: int) -> None:
    """Make ``module.<counter>`` mint nothing below ``floor``."""
    with _FLOOR_LOCK:
        nxt = next(getattr(module, counter))
        if nxt < floor:
            setattr(module, counter, itertools.count(floor))


def rehydrate(blob: bytes) -> PedSession:
    """Reconstruct a session from :func:`serialize`'s blob."""
    unpickler = pickle.Unpickler(io.BytesIO(blob))
    head = unpickler.load()
    if not isinstance(head, tuple) or head[0] != SNAPSHOT_VERSION:
        raise ValueError("unsupported session snapshot version")
    _, uid_floor, dep_floor = head
    _raise_floor(fast, "_node_ids", uid_floor)
    _raise_floor(dep_model, "_dep_ids", dep_floor)
    return unpickler.load()
