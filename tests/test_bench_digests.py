"""perfbench's held-out outputs, checked on every test run.

Each benchmark workload runs once, briefly, at the held-out seed that
`perfbench/BASELINE.json` was recorded on, and its digests and exact
figures (simulated latency, instruction and event counts) must equal the
ones recorded there. The workloads are imported from perfbench as its own
self-test imports them.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

BASELINE = json.loads((PERFBENCH / "BASELINE.json").read_text())


@pytest.mark.parametrize("name", BASELINE["held_out"])
def test_held_out_outputs_match_the_baseline(name, tmp_path):
    result = workloads.run_workload(name, BASELINE["held_out_seed"], 0.01, False,
                                    "full", tmp_path)
    recorded = BASELINE["held_out"][name]
    assert result["failed"] == 0
    assert result["digests"] == recorded["digests"]
    assert result["exact"] == recorded["exact"]
