"""Self-test of the benchmark at tiny size; runs in well under a minute.

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def record(workload, seed, trace):
    stem = run.record_stem(workload, seed, trace, "tiny")
    return json.loads((run.OUT / f"{stem}.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_runs_pass_checks_and_repeat_exactly(workload):
    results = {}
    for trace in (0, 1):
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = results[trace]
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert list(res["metrics"]) == [m["name"] for m in spec[key]]
    untraced, traced = record(workload, 3, 0), record(workload, 3, 1)
    # tracing changes no output
    assert untraced["digests"] == traced["digests"]
    assert untraced["exact"] == traced["exact"]
    assert all(untraced["digests"].values())
    events = json.loads((ROOT / traced["trace_file"]).read_text())["traceEvents"]
    assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    ids = {e["args"]["id"] for e in events}
    assert all(e["args"]["parent"] in ids for e in events if e["args"]["parent"] is not None)
    if workload == "infer-stream":
        layer = traced["per_layer"]
        stages = sum(layer[f"stage.{s}.sim_us"] for s in workloads.STAGES)
        assert stages == pytest.approx(121.0, rel=1e-12)
        assert sum(layer[f"planes.op.{o}.count"] for o in workloads.OPCODES) == 124


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for key, catalog in (("end_to_end", workloads.END_TO_END),
                         ("per_layer", workloads.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == catalog
    assert {m["name"] for m in spec["end_to_end"]} >= {"setup_s"}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "train", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
