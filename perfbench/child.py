"""Benchmark work that needs voxloc or numpy, each call in a fresh process.

Usage: python3 child.py <spec.json>

The spec names an action:

* ``env``: library versions and the sustainable copy bandwidth.
* ``setup``: ``reps`` timed set-ups (the ConvNet weight file, if the
  config names one, then ``cmd_generate``).
* ``measure``: ``cmd_run`` then ``cmd_analyze`` on an existing cohort,
  repeated in this one process: at least ``min_iters`` times, then while
  at least half an iteration's time is left of ``seconds``, never past
  ``cap_s``. With ``trace``, a set-up followed by one iteration under the
  wrappers of tracing.py, whose spans go to ``<out_dir>/spans.json`` at
  the end.

Running each action in its own process keeps a run's peak RSS its own:
the kernel carries a process's peak across exec, so the process that
starts the children must stay small. The last line of stdout is a JSON
object.
"""

from __future__ import annotations

import csv
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


def copy_bandwidth(l3_bytes: int) -> dict:
    """Sustainable copy bandwidth on arrays 4x the L3 (STREAM copy: bytes read + written)."""
    import numpy as np

    src = np.ones(4 * l3_bytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault in every page before timing
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return {
        "l3_mib": l3_bytes / 2**20,
        "array_mib": src.nbytes / 2**20,
        "copy_gib_per_s": 2 * src.nbytes / statistics.median(times) / 2**30,
    }


def env(spec: dict) -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bandwidth": copy_bandwidth(spec["l3_bytes"]),
    }


def generate(fields: dict) -> int:
    """Write the ConvNet weight file, if the config names one, then the cohort."""
    from voxloc.experiment import ExperimentConfig, cmd_generate
    from voxloc.predictors import ConvNetLocalizer, ConvNetSpec, save_weights

    if fields.get("weight_file"):
        save_weights(ConvNetLocalizer.from_seed(ConvNetSpec(), fields["seed"]), fields["weight_file"])
    return cmd_generate(ExperimentConfig(**fields))


def setup(spec: dict) -> dict:
    import voxloc.experiment  # noqa: F401 - imports stay out of the timed set-up

    fields = spec["config"]
    times, codes = [], []
    for _ in range(spec["reps"]):
        shutil.rmtree(fields["cohort_dir"], ignore_errors=True)
        t0 = time.perf_counter()
        codes.append(generate(fields))
        times.append(time.perf_counter() - t0)
    return {"setup_s": times, "codes": {"generate": max(codes, key=abs)}}


CHECKED_FILES = ("results.csv", "analysis_long.csv", "report.json")


def read_outputs(out_dir: Path) -> dict:
    """The checked files' digests, the rows with their runtimes, pipeline time and the report."""
    sha = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in CHECKED_FILES}

    def body(name):
        lines = [ln for ln in (out_dir / name).read_text().splitlines() if not ln.startswith("#")]
        return list(csv.DictReader(lines))

    keep = ("case_id", "side", "mode", "status", "error_mm")
    rows = [{k: row[k] for k in keep} for row in body("results.csv")]
    for row, timing in zip(rows, body("timings.csv")):
        row["runtime_ms"] = float(timing["runtime_ms"])
    pipeline_ms = 0.0
    for path in sorted((out_dir / "cases").glob("case_*.json")):
        case = json.loads(path.read_text())
        pipeline_ms += case.get("pipeline", {}).get("timings_ms", {}).get("total", 0.0)
    report = json.loads((out_dir / "report.json").read_text())
    return {"sha256": sha, "rows": rows, "pipeline_ms": pipeline_ms, "report": report}


def measure(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    from voxloc.experiment import ExperimentConfig, cmd_analyze, cmd_run

    fields = spec["config"]
    out: dict = {"setup_s": [], "codes": {}, "iterations": []}
    if spec["trace"]:
        t0 = time.perf_counter()
        out["codes"]["generate"] = generate(fields)
        out["setup_s"].append(time.perf_counter() - t0)
    cfg = ExperimentConfig(**fields)
    out_dir = Path(cfg.out_dir)
    start = time.perf_counter()
    walls: list[float] = []
    while True:
        shutil.rmtree(out_dir, ignore_errors=True)  # each iteration's outputs are its own
        t0 = time.perf_counter()
        run_code = cmd_run(cfg)
        run_s = time.perf_counter() - t0
        analyze_code = cmd_analyze(out_dir / "results.csv", Path(cfg.cohort_dir) / "manifest.json", out_dir)
        codes = {"run": run_code, "analyze": analyze_code}
        walls.append(time.perf_counter() - t0)
        rec: dict = {"run_s": run_s, "codes": codes}
        try:
            rec["out"] = read_outputs(out_dir)
        except (OSError, ValueError, KeyError) as exc:
            rec["error"] = f"unreadable outputs: {exc}"
        out["iterations"].append(rec)
        elapsed = time.perf_counter() - start
        mean = statistics.mean(walls)
        if tracer is not None or elapsed + mean > spec["cap_s"]:
            break
        if len(walls) >= spec["min_iters"] and spec["seconds"] - elapsed < mean / 2:
            break  # runs then overshoot and undershoot --seconds about equally
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux
    if tracer is not None:
        tracer.dump(out_dir / "spans.json")
    return out


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[1]).read_text())
    action = {"env": env, "setup": setup, "measure": measure}[spec["action"]]
    print(json.dumps(action(spec)))
