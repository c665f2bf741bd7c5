"""Command line front end: voxloc generate | run | analyze.

Exit codes: 0 success, 2 usage problem, 3 run finished with failed rows,
4 unreadable or malformed input files.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from voxloc.experiment import (
    EXIT_IO,
    EXIT_USAGE,
    MODE_ORDER,
    ExperimentConfig,
    SchemaError,
    UsageError,
    cmd_analyze,
    cmd_generate,
    cmd_run,
    load_config,
)

__all__ = ["main", "build_parser"]

log = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxloc",
        description="Two-stage target localization on synthetic volumes with "
        "sampling-based uncertainty estimates.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="JSON config file")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")

    gen = sub.add_parser("generate", parents=[common], help="write a phantom cohort to disk")
    gen.add_argument("--out", dest="cohort_dir", metavar="OUT", type=Path, default=None, help="cohort directory")
    gen.add_argument("--n", dest="n_cases", metavar="N", type=int, default=None, help="number of cases")
    gen.add_argument("--n-hard", type=int, default=None, help="number of hard cases")
    gen.add_argument("--dims", type=str, default=None, help="grid size, e.g. 128,128,128")

    run = sub.add_parser("run", parents=[common], help="run the pipeline over a cohort")
    run.add_argument("--cohort", dest="cohort_dir", metavar="COHORT", type=Path, default=None, help="cohort directory")
    run.add_argument("--out", dest="out_dir", metavar="OUT", type=Path, default=None, help="output directory")
    run.add_argument("--workers", type=int, default=None, help="case threads (1: the calling thread)")
    run.add_argument(
        "--modes",
        type=str,
        default=None,
        help=f"comma-separated subset of {','.join(MODE_ORDER)}",
    )
    run.add_argument("--n-samples", type=int, default=None, help="samples per uncertainty mode")

    ana = sub.add_parser("analyze", parents=[common], help="turn results into a report")
    ana.add_argument("--results", type=Path, default=None, help="results.csv from a run")
    ana.add_argument(
        "--cohort", dest="cohort_dir", metavar="COHORT", type=Path, default=None, help="cohort directory (for labels)"
    )
    ana.add_argument("--out", dest="report_dir", metavar="OUT", type=Path, default=None, help="report directory")
    return parser


def _dims_triple(text: str) -> tuple[int, int, int]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if len(parts) != 3:
        raise UsageError(f"--dims wants three integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise UsageError(f"--dims wants three integers, got {text!r}") from exc


# flags whose text becomes a tuple field; directory flags are Paths and go in as str
_TUPLE_FLAGS = {"dims": _dims_triple, "modes": lambda text: tuple(m.strip() for m in text.split(",") if m.strip())}


def _dispatch(args: argparse.Namespace) -> int:
    # a flag overrides the config field its dest names
    overrides = {
        name: str(value) if isinstance(value, Path) else _TUPLE_FLAGS.get(name, lambda v: v)(value)
        for name, value in vars(args).items()
        if name in ExperimentConfig.__dataclass_fields__ and value is not None
    }
    cfg = load_config(args.config, **overrides)
    if args.command == "generate":
        return cmd_generate(cfg)
    if args.command == "run":
        return cmd_run(cfg)
    out = Path(cfg.out_dir)
    return cmd_analyze(args.results or out / "results.csv", Path(cfg.cohort_dir) / "manifest.json", args.report_dir or out)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; pass both through
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return _dispatch(args)
    except (UsageError, SchemaError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
