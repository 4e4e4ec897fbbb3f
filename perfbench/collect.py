"""Run workloads over several seeds and summarise them in one JSON file.

    python3 perfbench/collect.py --out perfbench/BASELINE.json

Each workload runs once for each of SEEDS, in a fresh `run.py` process
with `--trace 0`. The loop is seed-major (every workload for one seed, then
the next seed), so a slow spell of a shared machine spreads over all
workloads instead of falling on a few seeds of one. For every end-to-end
and named metric the summary keeps the values and their median, quartiles
and spread (interquartile distance over the median, quartiles as
`statistics.quantiles(values, n=4)` gives them); exact figures and digests
are kept per seed. The first seed is run once more with `--trace 1` for the
per-layer figures and to check that it repeats its digests and exact figures.
The held-out seed (HELD_OUT) is run once per workload and recorded apart,
so a later claim can be re-checked on a seed nobody tuned against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, OUT, ROOT, WORKLOAD_NAMES, record_stem

SEEDS = list(range(1, 11))
# not used while the benchmark was tuned
HELD_OUT = 9001


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    rec = json.loads((OUT / f"{record_stem(workload, seed, trace)}.json").read_text())
    rec["correct"] = json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
    return rec


def summary(values: list[float], unit: str) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"unit": unit, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def summarise(recs: list[dict], traced: dict) -> dict:
    """One workload's runs over the seeds, plus its traced repeat of the
    first seed, which gives the per-layer figures and shows that tracing
    and repetition change no output."""
    seeds = [r["seed"] for r in recs]
    return {
        "correct": all(r["correct"] for r in recs) and traced["correct"],
        "attempted": sum(r["attempted"] for r in recs),
        "failed": sum(r["failed"] for r in recs),
        "end_to_end": {name: summary([r["metrics"][name]["value"] for r in recs], m["unit"])
                       for name, m in recs[0]["metrics"].items()},
        "named": {name: summary([r["named"][name]["value"] for r in recs], m["unit"])
                  for name, m in recs[0]["named"].items()},
        "exact": dict(zip(seeds, (r["exact"] for r in recs))),
        "digests": dict(zip(seeds, (r["digests"] for r in recs))),
        "repeat_identical": (traced["digests"] == recs[0]["digests"]
                             and traced["exact"] == recs[0]["exact"]),
        "per_layer": {"seed": seeds[0], **traced["metrics"]},
        "env": recs[0]["env"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    # run length is the benchmark's, the same for every commit compared
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    recs = {wl: [] for wl in WORKLOAD_NAMES}
    for seed in SEEDS:
        for wl in WORKLOAD_NAMES:
            recs[wl].append(rec := run_once(wl, seed, seconds))
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in rec["metrics"].items()), flush=True)
    doc = {"run_seconds": seconds, "seeds": SEEDS, "held_out_seed": HELD_OUT,
           "workloads": {}, "held_out": {}}
    for wl in WORKLOAD_NAMES:
        doc["workloads"][wl] = summarise(recs[wl], run_once(wl, SEEDS[0], seconds, trace=1))
        rec = run_once(wl, HELD_OUT, seconds)
        doc["held_out"][wl] = {k: rec[k] for k in ("metrics", "named", "exact", "digests")}
        for name, s in doc["workloads"][wl]["end_to_end"].items():
            print(f"{wl} {name}: median {s['median']:.5g} {s['unit']} spread {s['spread']:.4f}")
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
