"""PED as a service: a concurrent multi-tenant session server.

The paper's PED is a single-user editor; the 1991 workshop that
evaluated it was many users analyzing the same eight programs.  This
package turns that workload into a service:

* :mod:`repro.serve.ops` -- a deterministic JSON op vocabulary over
  :class:`~repro.ped.session.PedSession` (analyze / edit / transform /
  lint / explore / health).  Responses are uid-free and canonical, so a
  served session's transcript is byte-comparable to a single-user
  in-process run;
* :mod:`repro.serve.state` -- transparent session serialization: an
  evicted session pickles to one blob (program AST + undo/redo journal +
  marks/classifications + panes + the current loop's analysis, with
  object identity preserved; derived caches are dropped) and rehydrates
  on the next request with a pickle load;
* :mod:`repro.serve.manager` -- the session table: per-session locks so
  concurrent requests to *different* sessions proceed in parallel, LRU
  eviction to a bounded number of live sessions;
* :mod:`repro.serve.server` -- the asyncio HTTP/JSON front end
  (``python -m repro.serve``) with a ``/health`` endpoint surfacing the
  tiered artifact store's per-namespace hit/miss/evict/promote counters;
* :mod:`repro.serve.replay` -- the eight workshop programs' scripted
  sessions expressed as op lists, the oracle transcripts they must
  reproduce, and the concurrent load harness the A14 benchmark runs.

Cross-session sharing itself lives below this layer, in
:mod:`repro.store`: compile, pair-test, parsed-program and summary
artifacts are keyed on uid-free structural fingerprints, so two served
sessions analyzing the same program pay for each artifact once.
"""

from .client import PedClient
from .manager import SessionManager
from .ops import OPS, canonical_json, run_op
from .replay import SCRIPTS, oracle_transcript, run_script
from .server import PedServer
from .state import rehydrate, serialize

__all__ = [
    "OPS", "PedClient", "PedServer", "SCRIPTS", "SessionManager",
    "canonical_json", "oracle_transcript", "rehydrate", "run_op",
    "run_script", "serialize",
]
