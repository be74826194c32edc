"""Quick checks of the benchmark itself.

Run with ``pytest bench`` from the repository root (the tier-1 suite
collects only ``tests/``).  Every run here uses ``--quick``: one setup
and one wave per phase, so the file takes one to two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(proc) -> dict:
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def units(res: dict) -> dict:
    return {name: m["unit"] for name, m in res["metrics"].items()}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One quick traced run per workload: (result, trace file)."""
    out = {}
    tmp = tmp_path_factory.mktemp("traces")
    for w in WORKLOADS:
        path = tmp / f"{w}.json"
        proc = bench("--workload", w, "--quick", "--trace", "1",
                     "--trace-out", str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        out[w] = (result(proc), path)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    proc = bench("--workload", workload, "--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = result(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_per_layer_metrics_emitted_with_units(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for w, (res, _) in traced.items():
        assert res["correct"], w
        assert units(res) == want, w


def test_traced_self_times_sum_to_traced_wall(traced):
    for w, (res, _) in traced.items():
        m = res["metrics"]
        total = sum(v["value"] for k, v in m.items()
                    if k.endswith(".self_ms"))
        wall = m["traced.wall_ms"]["value"]
        assert abs(total - wall) <= 0.05 * wall, (w, total, wall)


def test_trace_file_is_trace_event_json(traced):
    for w, (_, path) in traced.items():
        events = json.loads(path.read_text(encoding="utf-8"))["traceEvents"]
        assert any(ev["name"] == "wave" for ev in events), w
        for ev in events:
            assert ev["ph"] == "X"
            for key in ("ts", "dur", "pid", "tid"):
                assert isinstance(ev[key], (int, float)), (w, ev)


def test_every_tracer_target_resolves_and_uninstalls():
    sys.path.insert(0, str(ROOT / "src"))
    import layertrace
    from repro.dependence import ddg, tests as dep_tests
    from repro.interp.vectorize import VectorInterpreter

    for _, path in layertrace.TARGETS:
        assert callable(layertrace.resolve(path)[2]), path
    for bad in ("repro.fortran.parser:parse_programme",
                "repro.no_such_module:f",
                "repro.store:ArtifactStore.fetch"):
        with pytest.raises(LookupError):
            layertrace.resolve(bad)

    original = dep_tests.test_pair
    tracer = layertrace.LayerTracer()
    with tracer.installed():
        assert ddg.test_pair is not original
        assert "run" in vars(VectorInterpreter)
    assert ddg.test_pair is original and dep_tests.test_pair is original
    assert "run" not in vars(VectorInterpreter)


def test_corrupted_golden_byte_fails_items(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(BENCH / "golden", golden)
    path = golden / "transcripts" / "neoss.json"
    data = bytearray(path.read_bytes())
    # the file is a JSON list of strings, so every letter sits inside a
    # response; flipping one letter's case keeps the JSON valid
    i = next(i for i in range(len(data) // 2, len(data))
             if chr(data[i]).isalpha())
    data[i] = ord(chr(data[i]).swapcase())
    path.write_bytes(bytes(data))
    proc = bench("--workload", "workshop", "--quick",
                 "--golden-dir", str(golden))
    assert proc.returncode != 0
    res = result(proc)
    assert not res["correct"] and res["failed"] > 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "workshop", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
