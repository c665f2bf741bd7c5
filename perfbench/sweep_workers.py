"""One-off comparison of cohort-wide iterations at several worker counts; not a workload.

Run from the root of a source checkout:

    python3 perfbench/sweep_workers.py --seed 0 --workers 1,2,4 [--cases 12]

For each worker count it prints run_s, experiment.worker_busy_frac (the
summed row and pipeline time over workers x run_s) and the median row
time of each sampled mode, then checks that the outputs are identical
across worker counts. NOTES.md records a run of it.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", default="1,2,4")
    ap.add_argument("--cases", type=int, help="cohort size (default: the workload's)")
    args = ap.parse_args()
    root = Path.cwd().resolve()
    if not run.has_sources(root):
        print("error: run from the root of a source checkout", file=sys.stderr)
        return 2
    runner = run.Runner("cohort-wide", args.seed, deadline=time.perf_counter() + 3600)
    if args.cases:
        runner.workload = {**runner.workload, "config": {**runner.workload["config"], "n_cases": args.cases}}
    with run.workspace(root, f"sweep-s{args.seed}"):
        for workers in (int(w) for w in args.workers.split(",")):
            rec = runner.measure(f"w{workers}", workers=workers)[0]
            if "out" not in rec:
                print(f"workers={workers} errors={rec['errors']}")
                continue
            rows = run.sampled_ok(rec["out"]["rows"])
            p50 = {m: round(statistics.median(r["runtime_ms"] for r in rows if r["mode"] == m), 1)
                   for m in sorted({r["mode"] for r in rows})}
            print(f"workers={workers} run_s={rec['run_s']:.2f} worker_busy_frac={run.worker_busy_frac(rec):.3f} "
                  f"row_ms_p50={p50} errors={rec['errors']}", flush=True)
        runner.check_identical()
    print("outputs identical across worker counts:", all(not r["errors"] for r in runner.iterations))
    return 0


if __name__ == "__main__":
    sys.exit(main())
