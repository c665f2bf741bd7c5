"""List the executable lines of each ``src/voxloc`` module that no workload run reaches.

For each named workload of ``perfbench/run.py``'s ``WORKLOADS``, this
builds the workload's config at ``workers`` 1, then runs
``cmd_generate``, ``cmd_run`` and ``cmd_analyze`` in a temporary
directory under ``trace.Trace(count=1, trace=0)``. voxloc is imported
and each config is built inside the trace, so module-level lines and
config validation count as reached. Threads started inside the trace
are traced too (``threading.settrace``), so the lines that
``write_cohort``'s case threads and the sampling helper threads run
count as reached.

Prints one ``<module>:<line>: <source>`` row per unreached line, then
the number of unreached and executable lines. Input checks and error
handling are listed too: a workload never reaches them, but they stay.

Usage, from the repository root:
    python3 tools/reached_lines.py [--seed N] WORKLOAD [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
import tempfile
import threading
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"


def load_workloads() -> dict:
    """``WORKLOADS`` from ``perfbench/run.py``, which imports its sibling ``tracing`` by bare name."""
    sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def run_workload(config: dict, seed: int, work: Path) -> None:
    """Generate, run and analyze one cohort in ``work``; a command that does not exit 0 is an error."""
    experiment = importlib.import_module("voxloc.experiment")
    cfg = experiment.ExperimentConfig(
        **dict(config, seed=seed, workers=1, cohort_dir=str(work / "cohort"), out_dir=str(work / "out"))
    )
    out = Path(cfg.out_dir)
    if (
        experiment.cmd_generate(cfg)
        or experiment.cmd_run(cfg)
        or experiment.cmd_analyze(out / "results.csv", Path(cfg.cohort_dir) / "manifest.json", out)
    ):
        raise RuntimeError("a command did not exit 0")


def executable(path: Path) -> list[int]:
    """Executable line numbers of one file; line 0, a code object's start, never runs."""
    return sorted(line for line in trace._find_executable_linenos(str(path)) if line > 0)


def unreached(counts: dict, package: Path) -> list[tuple[Path, int]]:
    """(path, line) of each executable line under ``package`` that ``counts`` never saw."""
    seen = {(Path(path).resolve(), line) for path, line in counts}
    return [
        (path, line)
        for path in sorted(package.glob("*.py"))
        for line in executable(path)
        if (path.resolve(), line) not in seen
    ]


def main(argv=None) -> int:
    workloads = load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="+", choices=sorted(workloads), metavar="WORKLOAD")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    tracer = trace.Trace(count=1, trace=0)
    threading.settrace(tracer.globaltrace)  # runfunc traces only the calling thread
    try:
        for name in args.workloads:
            with tempfile.TemporaryDirectory() as tmp:
                tracer.runfunc(run_workload, workloads[name]["config"], args.seed, Path(tmp))
    finally:
        threading.settrace(None)
    package = SRC / "voxloc"
    missed = unreached(tracer.results().counts, package)
    sources = {}
    for path, line in missed:
        text = sources.setdefault(path, path.read_text().splitlines())[line - 1].strip()
        print(f"{path.name}:{line}: {text}")
    total = sum(len(executable(path)) for path in package.glob("*.py"))
    print(f"{len(missed)} of {total} executable lines not reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
