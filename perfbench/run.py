"""Run one scampsim benchmark workload, or all four, and print the metrics.

    python3 perfbench/run.py --workload infer-stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from anywhere; it imports the library from `src/` beside this
directory and refuses to run without it. The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the BENCHMARK.json end-to-end metrics with `--trace 0`, its per-layer
metrics with `--trace 1`. The lines before it give the workload's own
named figures. Each run writes its full record (run environment, exact
figures, determinism digests, every check that failed) to
`perfbench/out/<workload>-seed<seed>-trace<t>.json` (with `-tiny` appended
at `--size tiny`), and a traced run also writes a Chrome trace-event file
beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("infer-stream", "config-sweep", "train", "servo-loop")

# One client, one process: BLAS and OpenMP stay single-threaded so a run
# does not contend with itself on a small shared machine.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_rev() -> str | None:
    """The checked-out commit, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment() -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OMP_NUM_THREADS"]),
        "git_rev": git_rev(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def record_stem(workload: str, seed: int, trace: int, size: str = "full") -> str:
    """Name of a run's record in OUT; tiny runs never overwrite full ones."""
    stem = f"{workload}-seed{seed}-trace{trace}"
    return stem if size == "full" else f"{stem}-{size}"


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> int:
    import workloads

    workdir = OUT / f"tmp-{os.getpid()}"
    try:
        res = workloads.run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace), args.size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res["env"] = environment()
    stem = record_stem(args.workload, args.seed, args.trace, args.size)
    tracer = res.pop("tracer", None)
    if tracer is not None:
        res["trace_file"] = str((OUT / f"{stem}.trace.json").relative_to(ROOT))
        tracer.write_chrome(OUT / f"{stem}.trace.json")
    (OUT / f"{stem}.json").write_text(json.dumps(res, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} ops={res['ops_timed']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    for name, m in res["named"].items():
        print(f"{name:24s} {fmt(m['value']):>14s} {m['unit']:8s} ({m['clock']})")
    for failure in res["failures"][:20]:
        print(f"FAILED {failure}")
    if len(res["failures"]) > 20:
        print(f"FAILED ... {len(res['failures']) - 20} more in the record")
    for name, digest in res["digests"].items():
        print(f"digest {name} {digest}")
    print(f"# record: {(OUT / (stem + '.json')).relative_to(ROOT)}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so set-up time and peak memory
    belong to it alone; then every named end-to-end figure in one table."""
    named, attempted, failed = {}, 0, 0
    for wl in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0", "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"error: workload {wl} exited with {proc.returncode}", file=sys.stderr)
            return 1
        rec = json.loads((OUT / f"{record_stem(wl, args.seed, 0, args.size)}.json").read_text())
        attempted += rec["attempted"]
        failed += rec["failed"]
        for name, m in rec["named"].items():
            key = name if name not in ("setup_s", "peak_rss_mb", "failed_frac") \
                else f"{wl}.{name}"
            named[key] = {"value": m["value"], "unit": m["unit"]}
            print(f"{wl:13s} {name:24s} {fmt(m['value']):>14s} {m['unit']:8s} ({m['clock']})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": named}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for the self-test")
    args = p.parse_args(argv)

    if not (SRC / "scampsim" / "__init__.py").is_file():
        print(f"error: no scampsim sources at {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    import scampsim
    if Path(scampsim.__file__).resolve().parent != SRC / "scampsim":
        print(f"error: imported scampsim from {scampsim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
