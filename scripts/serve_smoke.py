"""Serve smoke check: boot the session server, replay scripted
workshop sessions over HTTP, and diff every raw response body against
the in-process ``PedSession`` transcript.

Sessions are replayed round-robin, one op per session per round, so
with more sessions than ``--max-live`` every op lands on a session that
was snapshotted since its previous op and must be rehydrated.  Exits
non-zero when any byte differs, or when eviction was forced but the
server reports no rehydration.  CI runs this as the end-to-end gate
that the service layer (routing, JSON encoding, snapshot eviction and
rehydration, the shared artifact store) adds nothing and loses nothing
relative to a single-user editor session.

Usage::

    python scripts/serve_smoke.py [--program spec77] [--all]
        [--port 8777] [--max-live 3]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.serve import SCRIPTS, oracle_transcript  # noqa: E402
from repro.serve.client import PedClient  # noqa: E402


def wait_for_server(host: str, port: int, proc: subprocess.Popen,
                    timeout: float = 30.0) -> PedClient:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"server exited early ({proc.returncode})")
        try:
            client = PedClient(host, port, timeout=600.0)
            client.health()
            return client
        except OSError:
            time.sleep(0.2)
    raise SystemExit("server did not come up in time")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--program", default="spec77",
                    help="scripted session to replay (default spec77)")
    ap.add_argument("--all", action="store_true",
                    help="replay all scripted sessions")
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=8777)
    ap.add_argument("--max-live", type=int, default=3,
                    help="small enough to force snapshot eviction "
                         "when replaying --all (default 3)")
    args = ap.parse_args()
    names = list(SCRIPTS) if args.all else [args.program]
    for name in names:
        if name not in SCRIPTS:
            raise SystemExit(f"unknown program {name!r}; "
                             f"have {', '.join(SCRIPTS)}")

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--host", args.host,
         "--port", str(args.port), "--max-live", str(args.max_live)],
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(
                 p for p in (os.path.join(os.path.dirname(__file__),
                                          "..", "src"),
                             os.environ.get("PYTHONPATH")) if p)})
    failed = 0
    rehydrated = True
    try:
        client = wait_for_server(args.host, args.port, proc)
        with client:
            for name in names:
                client.open(name, program=name)
            transcripts: dict[str, list[str]] = {n: [] for n in names}
            for i in range(max(len(SCRIPTS[n]) for n in names)):
                for name in names:
                    if i < len(SCRIPTS[name]):
                        step = SCRIPTS[name][i]
                        transcripts[name].append(client.op(
                            name, step["op"], step.get("params"))[0])
            for name in names:
                served = transcripts[name]
                oracle = oracle_transcript(name)
                if served == oracle:
                    print(f"{name}: OK ({len(served)} ops, "
                          f"byte-identical)")
                    continue
                failed += 1
                for i, (got, want) in enumerate(zip(served, oracle)):
                    if got != want:
                        print(f"{name}: op {i} "
                              f"({SCRIPTS[name][i]['op']}) diverges:\n"
                              f"  served: {got[:200]}\n"
                              f"  oracle: {want[:200]}")
                        break
            health = client.health()
            manager = health.get("manager", {})
            store = health.get("artifact_store", {})
            print(f"server health: live={manager.get('live')} "
                  f"evictions={manager.get('evictions')} "
                  f"rehydrations={manager.get('rehydrations')} "
                  f"snapshot_failures={manager.get('snapshot_failures')} "
                  f"ops={manager.get('ops_run')} "
                  f"store tiers: {sorted(store)}")
            rehydrated = len(names) <= args.max_live \
                or bool(manager.get("rehydrations"))
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
    if failed:
        print(f"FAILED: {failed} session(s) diverged from oracle")
        return 1
    if not rehydrated:
        print("FAILED: more sessions than --max-live, yet the server "
              "rehydrated none")
        return 1
    print(f"serve smoke passed: {len(names)} session(s) byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
