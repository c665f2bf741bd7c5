"""voxloc benchmark: closed-loop generate -> run -> analyze on phantom cohorts.

Run from the root of a source checkout (``src/voxloc`` must be there):

    python3 perfbench/run.py --workload mcdo-deep --seed 0 --seconds 50 --trace 0

A run builds its workload's cohort from ``--seed`` with ``cmd_generate``
(``SETUP_REPS`` times, each timed, in one child process), then times
``cmd_run`` followed by ``cmd_analyze`` on that cohort again and again in
a second child process: at least ``MIN_ITERS`` times, then for about
``--seconds``. It checks the outputs: every command returns EXIT_OK, the
row count matches the config, and ``results.csv``, ``analysis_long.csv``
and ``report.json`` are byte-identical across all iterations (their
sha256 values are printed).

``--trace 0`` reports the end-to-end metrics as medians over set-ups,
iterations and pooled rows. ``--trace 1`` runs one untraced iteration at
the workload's pool size (``pool_workers``, else its worker count), one
untraced iteration at one worker (when that differs) and one traced
iteration at one worker whose wrappers time each module's public
functions (see tracing.py); ``mcdo-deep`` adds a traced ConvNet round.
It reports the per-layer metrics. The last line of stdout is the JSON
result; the lines before it list every metric by name and unit, the
environment and the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import TRACED, WITH_CHILDREN

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ALL_MODES = ("baseline", "mcdo", "tta", "hybrid")
WORK_DIR = ".bench_work"  # under the checkout root; .gitignore lists it
HARD_CAP_S = 170.0  # a run must end within 180 s
CHILD_MARGIN_S = 15.0  # a measuring child stops starting iterations this long before the cap
SETUP_REPS = 3
MIN_ITERS = 3

# Cohorts are generated from --seed; hard cases use hard_failure_rate=1.0 so
# the Tukey fence has real outliers to catch. NOTES.md says why each exists.
WORKLOADS = {
    "mcdo-deep": {
        "config": {"n_cases": 4, "n_hard": 1, "hard_failure_rate": 1.0, "modes": ["baseline", "mcdo"],
                   "n_samples": 32, "workers": 1},
        "convnet_traced": True,
    },
    # Timed at one worker: at two, the parallel speed-up drifted between about
    # 1.1x and 2x with host load. The traced run still times an iteration at
    # pool_workers for worker_busy_frac.
    "cohort-wide": {
        "config": {"n_cases": 3, "n_hard": 1, "hard_failure_rate": 1.0, "modes": list(ALL_MODES),
                   "n_samples": 4, "workers": 1},
        "pool_workers": 2,
    },
    # not a benchmark workload: the configuration the benchmark's own tests run
    "smoke": {
        "config": {"n_cases": 1, "n_hard": 0, "dims": [64, 64, 64], "modes": list(ALL_MODES),
                   "n_samples": 2, "workers": 1},
    },
}

# ConvNetLocalizer's forward pass takes seconds, so a row holds a few of them and
# a timed run could hold only one iteration; it is measured in mcdo-deep's traced
# run instead. Its seeded weights are written at set-up.
CONVNET_CONFIG = {"n_cases": 1, "n_hard": 0, "dims": [96, 96, 96], "modes": ["baseline", "mcdo"],
                  "n_samples": 2, "workers": 1, "weight_file": "weights.json"}
CONVNET_TAG = "convnet"
CONVNET_PREFIX = "predictors.ConvNetLocalizer."

END_TO_END = {  # name: unit
    "setup_s": "s",
    "run_s": "s",
    "samples_per_s": "1/s",
    "row_ms_p50": "ms",
    "peak_rss_mb": "MiB",
    "rows_ok_frac": "ratio",
}

DERIVED = {  # name: unit
    "volume.write_volume.mb": "MiB",
    "volume.read_volume.mb": "MiB",
    "transforms.rigid_apply.mb_computed": "MiB",
    "predictors.MarkerLocalizer.detect.distinct_input_frac": "ratio",
    "heatmap.support_frac": "ratio",
    "predictors.ConvNetLocalizer.gflop": "GFLOP",
    "predictors.ConvNetLocalizer.gflop_per_s": "GFLOP/s",
    "trace.overhead_frac": "ratio",
    "experiment.worker_busy_frac": "ratio",
    "experiment.hit_1mm_frac": "ratio",
    "experiment.fence_recall": "ratio",
    "experiment.fence_false_flags": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.ms_p50"] = "ms"
        if name in WITH_CHILDREN:
            units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def l3_bytes() -> int:
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10)
        value = int(out.stdout.strip() or 0)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        value = 0
    return value or 105 << 20  # the L3 of the 2-core Xeon the benchmark was sized on


def environment(root: Path, runner: "Runner") -> dict:
    sha = None
    if (root / ".git").exists():
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    libs, err = runner.spawn("env", {"action": "env", "l3_bytes": l3_bytes()})
    return {
        **(libs or {"error": err}),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "threads_env": {var: os.environ[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


class Runner:
    """Spawns the children of one run inside its work directory and keeps their records."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.deadline = deadline
        self.setup_s: list[float] = []
        self.iterations: list[dict] = []  # one per cmd_run, or one per child that gave none

    def fields(self, tag: str, config: dict | None = None, workers: int | None = None) -> dict:
        fields = dict(config or self.workload["config"], seed=self.seed,
                      cohort_dir=f"{tag}/cohort", out_dir=f"{tag}/out")
        if workers is not None:
            fields["workers"] = workers
        return fields

    def spawn(self, tag: str, spec: dict) -> tuple[dict | None, str]:
        """Run child.py on one spec; returns its JSON result or an error message."""
        Path(tag).mkdir(exist_ok=True)
        spec_path = Path(tag) / f"{spec['action']}.json"
        spec_path.write_text(json.dumps(spec))
        timeout = max(1.0, self.deadline - time.perf_counter())
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,  # pool workers share the group, so a timeout stops them too
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, f"{spec['action']} timed out after {timeout:.0f} s"
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, f"{spec['action']} exit {proc.returncode}: {err.strip()[-400:]}"
        return json.loads(lines[-1]), ""

    def measure(self, tag: str, seconds: float = 0.0, min_iters: int = 1, workers: int | None = None,
                trace: bool = False, config: dict | None = None, setup_reps: int = 1) -> list[dict]:
        """Set up a cohort (a traced child does its own), then time iterations on it in one child."""
        fields = self.fields(tag, config, workers)
        expected = fields["n_cases"] * 2 * len(fields["modes"])
        base = {"tag": tag, "workers": fields["workers"], "expected_rows": expected, "errors": []}
        codes: dict[str, int] = {}
        res: dict | None = {}
        err = ""
        if not trace:
            res, err = self.spawn(tag, {"action": "setup", "config": fields, "reps": setup_reps})
            if res is not None:
                self.setup_s += res["setup_s"]
                codes.update(res["codes"])
        if res is not None:
            cap_s = self.deadline - time.perf_counter() - CHILD_MARGIN_S
            spec = {"action": "measure", "config": fields, "trace": trace, "seconds": seconds,
                    "min_iters": min_iters, "cap_s": cap_s}
            res, err = self.spawn(tag, spec)
        if res is None:
            recs = [dict(base, errors=[err])]
        else:
            codes.update(res["codes"])
            recs = []
            for i, it in enumerate(res["iterations"]):
                rec = dict(base, tag=f"{tag}.{i}", run_s=it["run_s"], peak_rss_mb=res["peak_rss_mb"], errors=[])
                bad = {k: v for k, v in {**codes, **it["codes"]}.items() if v != 0}
                if bad:
                    rec["errors"].append(f"exit codes {bad}")
                if "out" in it:
                    rec["out"] = it["out"]
                    if len(it["out"]["rows"]) != expected:
                        rec["errors"].append(f"{len(it['out']['rows'])} rows, expected {expected}")
                else:
                    rec["errors"].append(it["error"])
                recs.append(rec)
        self.iterations += recs
        return recs

    def check_identical(self) -> None:
        """Byte-identical outputs across every iteration on the workload's own cohort."""
        ref = None
        for r in self.iterations:
            if "out" in r and not r["tag"].startswith(CONVNET_TAG):
                ref = ref or r["out"]["sha256"]
                if r["out"]["sha256"] != ref:
                    r["errors"].append("outputs differ from the first iteration")

    def attempted_failed(self) -> tuple[int, int]:
        attempted = failed = 0
        for r in self.iterations:
            attempted += r["expected_rows"]
            if r["errors"] or "out" not in r:
                failed += r["expected_rows"]
            else:
                failed += sum(1 for row in r["out"]["rows"] if row["status"] != "ok")
        return attempted, failed


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def sampled_ok(rows: list[dict]) -> list[dict]:
    return [r for r in rows if r["mode"] != "baseline" and r["status"] == "ok"]


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    good = [r for r in runner.iterations if not r["errors"]] or [r for r in runner.iterations if "out" in r]
    n_samples = runner.workload["config"]["n_samples"]
    row_ms = [row["runtime_ms"] for r in good for row in sampled_ok(r["out"]["rows"])]
    attempted, failed = runner.attempted_failed()

    def med(values):
        return statistics.median(values) if values else 0.0

    metrics = {
        "setup_s": med(runner.setup_s),
        "run_s": med([r["run_s"] for r in good]),
        "samples_per_s": med([len(sampled_ok(r["out"]["rows"])) * n_samples / r["run_s"] for r in good]),
        "row_ms_p50": med(row_ms),
        "peak_rss_mb": med([r["peak_rss_mb"] for r in good]),
        "rows_ok_frac": (attempted - failed) / attempted,
    }
    extra = {"iterations": len(runner.iterations), "setups": len(runner.setup_s), "sampled_rows": len(row_ms)}
    if len(row_ms) >= 100:  # the 90th percentile then has at least ten rows beyond it
        extra["row_ms_p90"] = statistics.quantiles(row_ms, n=10, method="inclusive")[8]
    return metrics, extra


QUALITY = ("experiment.hit_1mm_frac", "experiment.fence_recall", "experiment.fence_false_flags")


def quality(out: dict) -> dict:
    ok = [r for r in out["rows"] if r["status"] == "ok"]
    report = out["report"]
    hard = set(report["hard_cases"])
    recalls = [m["recall"] for m in report["modes"].values() if m["recall"] is not None]
    return {
        "experiment.hit_1mm_frac": sum(float(r["error_mm"]) <= 1.0 for r in ok) / len(ok) if ok else 0.0,
        "experiment.fence_recall": statistics.mean(recalls) if recalls else 0.0,
        "experiment.fence_false_flags": sum(len(set(m["flagged_cases"]) - hard) for m in report["modes"].values()),
    }


def worker_busy_frac(rec: dict) -> float:
    busy_ms = sum(row["runtime_ms"] for row in rec["out"]["rows"]) + rec["out"]["pipeline_ms"]
    return busy_ms / 1e3 / (rec["workers"] * rec["run_s"])


def load_trace(tag: str) -> dict:
    path = Path(tag) / "out" / "spans.json"
    trace = json.loads(path.read_text()) if path.exists() else {"spans": [], "counters": {}}
    if trace.get("missing"):
        print(f"warning: not traced (no such name): {trace['missing']}")
    return trace


def layer_metrics(trace: dict) -> dict:
    spans = trace["spans"]
    dur = [end - start for _, start, end, _ in spans]
    child_s = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child_s[span[3]] += dur[i]
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)
    m = {}
    for name in TRACED:
        idx = by_name.get(name, [])
        m[f"{name}.calls"] = len(idx)
        m[f"{name}.busy_s"] = sum(dur[i] for i in idx)
        m[f"{name}.ms_p50"] = statistics.median(dur[i] for i in idx) * 1e3 if idx else 0.0
        if name in WITH_CHILDREN:
            m[f"{name}.self_s"] = sum(dur[i] - child_s[i] for i in idx)
    c = trace["counters"]
    detect_calls = m["predictors.MarkerLocalizer.detect.calls"]
    convnet_s = m["predictors.ConvNetLocalizer.predict.busy_s"]
    gflop = c.get("predictors.ConvNetLocalizer.gflop", 0.0)
    voxels = c.get("heatmap.sample_voxels", 0)
    m.update(
        {
            "volume.write_volume.mb": c.get("volume.write_volume.mb", 0.0),
            "volume.read_volume.mb": c.get("volume.read_volume.mb", 0.0),
            "transforms.rigid_apply.mb_computed": c.get("transforms.rigid_apply.mb_computed", 0.0),
            "predictors.MarkerLocalizer.detect.distinct_input_frac": (
                c.get("predictors.MarkerLocalizer.detect.distinct_inputs", 0) / detect_calls if detect_calls else 0.0
            ),
            "heatmap.support_frac": c.get("heatmap.sample_nonzero", 0) / voxels if voxels else 0.0,
            "predictors.ConvNetLocalizer.gflop": gflop,
            "predictors.ConvNetLocalizer.gflop_per_s": gflop / convnet_s if convnet_s else 0.0,
        }
    )
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def timed_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    runner.measure("timed", seconds=seconds, min_iters=MIN_ITERS, setup_reps=SETUP_REPS)
    runner.check_identical()
    return end_to_end(runner)


def traced_run(runner: Runner, keep_spans: Path) -> tuple[dict, dict]:
    workers = runner.workload.get("pool_workers", runner.workload["config"]["workers"])
    base = runner.measure("untraced", workers=workers)[0]
    one = base if workers == 1 else runner.measure("untraced-w1", workers=1)[0]
    traced = runner.measure("traced", workers=1, trace=True)[0]
    trace = load_trace("traced")
    m = layer_metrics(trace)
    spans = len(trace["spans"])
    if runner.workload.get("convnet_traced"):
        runner.measure(CONVNET_TAG, trace=True, config=CONVNET_CONFIG)
        convnet = layer_metrics(load_trace(CONVNET_TAG))
        m.update({k: v for k, v in convnet.items() if k.startswith(CONVNET_PREFIX)})
        spans += len(load_trace(CONVNET_TAG)["spans"])
    runner.check_identical()
    if Path("traced/out/spans.json").exists():
        shutil.copyfile("traced/out/spans.json", keep_spans)
    ok = "run_s" in traced and "run_s" in one
    m["trace.overhead_frac"] = traced["run_s"] / one["run_s"] - 1.0 if ok else 0.0
    m["experiment.worker_busy_frac"] = worker_busy_frac(base) if "out" in base else 0.0
    m.update(quality(base["out"]) if "out" in base else dict.fromkeys(QUALITY, 0.0))
    return m, {"iterations": len(runner.iterations), "traced_spans": spans}


def has_sources(root: Path) -> bool:
    return (root / "src" / "voxloc" / "experiment.py").is_file()


@contextlib.contextmanager
def workspace(root: Path, name: str):
    """Set the children's environment and work in a fresh directory under the checkout."""
    for var in THREAD_VARS:  # library threads must not oversubscribe the cores
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    work = root / WORK_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)  # config paths are relative, so config hashes do not depend on the checkout's location
    try:
        yield work
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    root = Path.cwd().resolve()
    if not has_sources(root):
        print(f"error: no voxloc sources under {root / 'src'}; run from the root of a source checkout", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, start + HARD_CAP_S)
    with workspace(root, f"{args.workload}-s{args.seed}"):
        env = environment(root, runner)
        if args.trace:
            metrics, extra = traced_run(runner, root / WORK_DIR / f"spans-{args.workload}-s{args.seed}.json")
            units = per_layer_units()
        else:
            metrics, extra = timed_run(runner, args.seconds)
            first = next((r for r in runner.iterations if "out" in r), None)
            extra.update(quality(first["out"]) if first else {})
            units = END_TO_END

    attempted, failed = runner.attempted_failed()
    correct = all(not r["errors"] for r in runner.iterations)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"setup_s {[round(s, 4) for s in runner.setup_s]}")
    for r in runner.iterations:
        sha = {k: v[:16] for k, v in r["out"]["sha256"].items()} if "out" in r else {}
        print(f"iteration {r['tag']} workers={r['workers']} run_s={r.get('run_s', float('nan')):.4f} "
              f"sha256={sha} errors={r['errors']}")
    ref = next((r["out"]["sha256"] for r in runner.iterations if "out" in r), {})
    for name, digest in ref.items():
        print(f"sha256 {name} {digest}")
    for key, value in extra.items():
        print(f"info {key} {value}")
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]:.6g} {unit}")
    print(f"check {'PASS' if correct else 'FAIL'}: {attempted} rows attempted, {failed} failed")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
