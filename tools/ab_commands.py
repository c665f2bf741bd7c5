"""Time one voxloc command in-process on two checkouts, in alternated pairs.

For a named workload of ``perfbench/run.py``'s ``WORKLOADS``, this builds
the workload's config (with ``--seed`` and, if given, ``--workers``).
For ``run`` it generates the workload's cohort once, in a temporary
directory, with PARENT's code. Each pair then runs both sides,
alternating which side goes first. A side is a fresh process with that
checkout's ``src`` first on ``sys.path`` and OMP, OpenBLAS and MKL held
to one thread. It calls ``cmd_<command>`` ``--reps`` times and reports
the median seconds of those calls, its peak RSS, the sha256 of the
command's output (``results.csv`` for ``run``, every cohort file, by
relative path, then bytes, for ``generate``) and the median count of
minor page faults per call (``ru_minflt`` deltas).

Prints one line per pair, then each side's median and quartiles over
the pairs and how many pairs the change won. Exits 1 if any two runs
gave different output digests.

Usage, from the repository root:
    python3 tools/ab_commands.py PARENT CHANGE --workload NAME [--command generate|run]
        [--workers N] [--seed S] [--pairs P] [--reps R]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from reached_lines import load_workloads

BLAS_THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

# One side of a pair: argv[1] is a JSON spec, the last stdout line a JSON result.
CHILD = r"""
import hashlib, json, resource, statistics, sys, time
from pathlib import Path

spec = json.loads(sys.argv[1])
src = Path(spec["src"]).resolve()
sys.path.insert(0, str(src))
from voxloc import experiment

if not Path(experiment.__file__).resolve().is_relative_to(src):
    sys.exit(f"imported {experiment.__file__}, not the checkout under {src}")
cfg = experiment.ExperimentConfig(**spec["config"])
command = getattr(experiment, "cmd_" + spec["command"])
seconds, minflt = [], []
for _ in range(spec["reps"]):
    f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
    rc = command(cfg)
    seconds.append(time.perf_counter() - t0)
    minflt.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    if rc not in (0, 3):  # 3: the run finished with failed rows
        sys.exit(f"cmd_{spec['command']} exited {rc}")
output = Path(cfg.out_dir, "results.csv") if spec["command"] == "run" else Path(cfg.cohort_dir)
files = sorted(p for p in output.rglob("*") if p.is_file()) if output.is_dir() else [output]
digest = hashlib.sha256()
for path in files:
    digest.update(str(path.relative_to(output)).encode() + b"\0" + path.read_bytes())
print(json.dumps({
    "seconds": statistics.median(seconds),
    "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "sha256": digest.hexdigest(),
    "minflt": statistics.median(minflt),
}))
"""


def run_side(checkout: Path, command: str, config: dict, reps: int, work: Path) -> dict:
    """Run CHILD on one checkout in ``work``; the command's relative output paths land there."""
    work.mkdir(parents=True, exist_ok=True)
    spec = {"src": str(checkout / "src"), "command": command, "config": config, "reps": reps}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(spec)],
        cwd=work,
        env={**os.environ, **BLAS_THREADS},
        capture_output=True,
        text=True,
    )
    if proc.returncode:
        raise RuntimeError(f"{checkout}: {command} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> str:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return f"median {median:.3f} s, quartiles {q1:.3f}-{q3:.3f} s"


def main(argv=None) -> int:
    workloads = load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout whose src is the baseline")
    ap.add_argument("change", type=Path, help="checkout whose src is the change")
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--command", choices=("generate", "run"), default="run")
    ap.add_argument("--workers", type=int, default=None, help="override the workload's workers")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--reps", type=int, default=5, help="command calls per side and pair")
    args = ap.parse_args(argv)

    config = dict(workloads[args.workload]["config"], seed=args.seed, cohort_dir="cohort", out_dir="out")
    if args.workers is not None:
        config["workers"] = args.workers
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = {name: [] for name in sides}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if args.command == "run":
            run_side(sides["parent"], "generate", config, 1, tmp)
            config["cohort_dir"] = str(tmp / "cohort")
        for pair in range(args.pairs):
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
            for name in order:
                results[name].append(run_side(sides[name], args.command, config, args.reps, tmp / name))
            parent, change = results["parent"][-1], results["change"][-1]
            print(
                f"pair {pair + 1} ({order[0]} first): "
                + ", ".join(
                    f"{name} {r['seconds']:.3f} s {r['peak_rss_mib']:.1f} MiB {r['sha256'][:8]} {r['minflt']:.0f} minflt"
                    for name, r in (("parent", parent), ("change", change))
                )
            )
    wins = sum(c["seconds"] < p["seconds"] for p, c in zip(results["parent"], results["change"]))
    for name, runs in results.items():
        print(f"{name}: {spread([r['seconds'] for r in runs])}, peak RSS up to {max(r['peak_rss_mib'] for r in runs):.1f} MiB")
    print(f"change faster in {wins} of {args.pairs} pairs")
    digests = {r["sha256"] for runs in results.values() for r in runs}
    if len(digests) > 1:
        print(f"output digests differ: {sorted(digests)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
