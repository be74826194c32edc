#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer performance of PED.

One workload, in the form BENCHMARK.json's command takes (the last
line of standard output is the result JSON)::

    python3 bench/run.py --workload workshop --seed 1993 --seconds 15 --trace 0

Every workload, each in its own fresh subprocess, repeated with the
order alternated and the seed advanced per repeat::

    python3 bench/run.py --repeat 10

``--trace 1`` makes traced runs instead: per-layer self time and calls
per item, plus a Chrome trace-event file per workload under
``bench/out/``.  ``--write-golden`` regenerates ``bench/golden/``.
The runner exits non-zero when any item's output failed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: a workload subprocess is killed after this long, so that one
#: invocation ends within three minutes
CHILD_TIMEOUT_S = 170

#: set in every workload subprocess, whose environment also loses every
#: REPRO_* variable
HERMETIC_ENV = {"PYTHONHASHSEED": "0", "PYTHONPATH": "src"}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(HERMETIC_ENV)
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int,
              extra: list[str]) -> dict | None:
    """Run one workload in a fresh subprocess; its result or None."""
    cmd = [sys.executable, str(BENCH / "workloads.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: exited with code {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def describe(res: dict) -> list[str]:
    """Human-readable lines: every metric by name, unit, sample count."""
    lines = [f"{res['workload']} (seed {res['seed']}): "
             f"{res['attempted']} items, {res['failed']} failed, "
             f"calibration {res['calibration_ms']:.4g} ms"]
    for msg in res["failures"]:
        lines.append(f"  FAIL {msg}")
    for name, m in res["metrics"].items():
        n = f"  n={m['n']}" if "n" in m else ""
        lines.append(f"  {name:<34} {m['value']:>14.6g} {m['unit']}{n}")
    for name, ms in res.get("exec_rows", {}).items():
        lines.append(f"  {name:<34} {ms:>14.6g} ms")
    return lines


def result_line(spec: dict, res: dict, trace: int) -> str:
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k]["value"],
                        "unit": res["metrics"][k]["unit"]} for k in names},
    })


def host_record() -> dict:
    def git(*args):
        try:
            return subprocess.run(["git", *args], cwd=ROOT, text=True,
                                  capture_output=True, timeout=30).stdout
        except (OSError, subprocess.TimeoutExpired):
            return ""
    return {"commit": git("rev-parse", "HEAD").strip() or None,
            "dirty": bool(git("status", "--porcelain").strip()),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(),
            "env": dict(HERMETIC_ENV, removed=sorted(
                k for k in os.environ if k.startswith("REPRO_")))}


def summarize(workloads, runs: list[dict]) -> list[str]:
    """Per workload and metric: median and IQR/median across repeats."""
    lines = []
    for w in workloads:
        rs = [r for r in runs if r["workload"] == w]
        if not rs:
            continue
        lines.append(f"{w}: {len(rs)} run(s)")
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            iqr = 0.0
            if len(vals) >= 2:
                q = statistics.quantiles(vals, n=4)
                iqr = (q[2] - q[0]) / med if med else 0.0
            lines.append(f"  {name:<34} median {med:>12.6g} "
                         f"{rs[0]['metrics'][name]['unit']:<10} "
                         f"IQR/median {iqr:.3f}")
    return lines


def main(argv=None) -> int:
    spec = load_spec()
    workloads = tuple(w["name"] for w in spec["workloads"])
    ap = argparse.ArgumentParser(
        description="Run the repository benchmark (see bench/README.md).")
    ap.add_argument("--workload", choices=workloads,
                    help="run one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=1993)
    ap.add_argument("--seconds", type=float,
                    default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out",
                    help="trace-event file (one workload, --trace 1)")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--quick", action="store_true",
                    help="one setup and one wave per run (tests)")
    ap.add_argument("--golden-dir", help="read references from here")
    ap.add_argument("--out", default=str(OUT / "results.json"),
                    help="results file of a multi-workload run")
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("bench: no src/repro next to bench/; run from a full "
              "checkout", file=sys.stderr)
        return 2
    if args.write_golden:
        cmd = [sys.executable, str(BENCH / "workloads.py"), "--write-golden"]
        return subprocess.run(cmd, cwd=ROOT, env=child_env()).returncode

    extra = []
    if args.quick:
        extra.append("--quick")
    if args.golden_dir:
        extra += ["--golden-dir", args.golden_dir]
    if args.trace_out:
        extra += ["--trace-out", args.trace_out]

    if args.workload:
        res = run_child(args.workload, args.seed, args.seconds, args.trace,
                        extra)
        if res is None:
            return 1
        print("\n".join(describe(res)))
        print(result_line(spec, res, args.trace))
        return 0 if res["failed"] == 0 else 1

    t0 = time.perf_counter()
    runs, crashed = [], 0
    for r in range(args.repeat):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            res = run_child(w, args.seed + r, args.seconds, args.trace,
                            extra)
            if res is None:
                crashed += 1
                continue
            runs.append(res)
            print("\n".join(describe(res)), flush=True)
    print("\n".join(summarize(workloads, runs)))
    failed = sum(r["failed"] for r in runs)
    record = {"host": host_record(), "seed": args.seed,
              "repeat": args.repeat, "seconds": args.seconds,
              "trace": args.trace, "numpy": runs[0]["numpy"] if runs else None,
              "wall_s": time.perf_counter() - t0, "runs": runs}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n",
                              encoding="utf-8")
    print(f"results: {args.out}; {failed} failed item(s), "
          f"{crashed} crashed run(s)")
    return 0 if failed == 0 and crashed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
