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
    SchemaError,
    UsageError,
    cmd_analyze,
    cmd_generate,
    cmd_run,
    load_config,
)

__all__ = ["main", "build_parser"]

log = logging.getLogger(__name__)


def _parse_modes(text: str) -> tuple[str, ...]:
    modes = tuple(m.strip() for m in text.split(",") if m.strip())
    return modes


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
    gen.add_argument("--out", type=Path, default=None, help="cohort directory")
    gen.add_argument("--n", type=int, default=None, help="number of cases")
    gen.add_argument("--n-hard", type=int, default=None, help="number of hard cases")
    gen.add_argument("--dims", type=str, default=None, help="grid size, e.g. 128,128,128")

    run = sub.add_parser("run", parents=[common], help="run the pipeline over a cohort")
    run.add_argument("--cohort", type=Path, default=None, help="cohort directory")
    run.add_argument("--out", type=Path, default=None, help="output directory")
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
    ana.add_argument("--cohort", type=Path, default=None, help="cohort directory (for labels)")
    ana.add_argument("--out", type=Path, default=None, help="report directory")
    return parser


def _dims_triple(text: str) -> tuple[int, int, int]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if len(parts) != 3:
        raise UsageError(f"--dims wants three integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise UsageError(f"--dims wants three integers, got {text!r}") from exc


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "generate":
        cfg = load_config(
            args.config,
            seed=args.seed,
            cohort_dir=str(args.out) if args.out else None,
            n_cases=args.n,
            n_hard=args.n_hard,
            dims=_dims_triple(args.dims) if args.dims is not None else None,
        )
        return cmd_generate(cfg)
    if args.command == "run":
        cfg = load_config(
            args.config,
            seed=args.seed,
            cohort_dir=str(args.cohort) if args.cohort else None,
            out_dir=str(args.out) if args.out else None,
            workers=args.workers,
            modes=_parse_modes(args.modes) if args.modes is not None else None,
            n_samples=args.n_samples,
        )
        return cmd_run(cfg)
    if args.command == "analyze":
        cfg = load_config(
            args.config,
            seed=args.seed,
            cohort_dir=str(args.cohort) if args.cohort else None,
        )
        results = args.results if args.results else Path(cfg.out_dir) / "results.csv"
        out_dir = args.out if args.out else Path(cfg.out_dir)
        manifest = Path(cfg.cohort_dir) / "manifest.json"
        return cmd_analyze(results, manifest, out_dir)
    raise UsageError(f"unknown command {args.command!r}")


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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
