"""Reproducible experiments over phantom cohorts.

Three commands, mirrored by the CLI: generate a cohort to disk, run the
pipeline plus the uncertainty modes over it, and analyze dispersion
scores into a rejection report. All outputs are deterministic functions
of the configuration: every random draw derives from (seed, case id,
side, mode), rows are sorted before writing, and per-row runtimes are
kept out of results.csv (they live in timings.csv and the per-case JSON)
so repeated runs produce byte-identical result files.

run and analyze read the manifest through one reader and share one
record shape: a results.csv row as written, its cells the six-decimal
strings of the file. Both fence those written mad values, so analyze on
a run's results.csv flags exactly the rows that run flagged.

results.csv column order (the stability contract):
    case_id, side, mode, status,
    pred_x, pred_y, pred_z, truth_x, truth_y, truth_z,
    error_mm, mad, flagged
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import functools
import hashlib
import io
import json
import logging
import math
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from voxloc.heatmap import HeatmapSpec
from voxloc.phantom import PhantomSpec, derive_seed, load_case_volumes, write_cohort
from voxloc.pipeline import SIDES, PipelineConfig, run_pipeline
from voxloc.predictors import (
    ConvNetLocalizer,
    ConvNetSpec,
    InvalidModelError,
    Localizer,
    MarkerLocalizer,
    OracleLocalizerConfig,
    TruthMaskSegmenter,
)
from voxloc.transforms import TransformPriors
from voxloc.uncertainty import DRAW_ALONE, MODES, McConfig, rejection_stats, run_mode
from voxloc.volume import _finite, _three

__all__ = [
    "UsageError",
    "SchemaError",
    "MODE_ORDER",
    "RESULT_COLUMNS",
    "ExperimentConfig",
    "load_config",
    "config_hash",
    "cmd_generate",
    "cmd_run",
    "cmd_analyze",
]

log = logging.getLogger(__name__)

MODE_ORDER = ("baseline", *MODES)
RESULT_COLUMNS = (
    "case_id",
    "side",
    "mode",
    "status",
    "pred_x",
    "pred_y",
    "pred_z",
    "truth_x",
    "truth_y",
    "truth_z",
    "error_mm",
    "mad",
    "flagged",
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARTIAL = 3
EXIT_IO = 4


class UsageError(Exception):
    """Invalid request (bad flag values, impossible sizes)."""


class SchemaError(Exception):
    """An input file does not have the expected structure."""


# config field -> the TransformPriors range it sets
_PRIOR_FIELDS = {
    "shift_range_mm": "s_range",
    "rotate_range_deg": "r_range",
    "curve_range": "curve_control_range",
}


@contextlib.contextmanager
def _config_field(name: str):
    """Turn a TypeError, ValueError or OverflowError from checking a config field into a usage error naming it."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"bad config value for {name}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a generate/run/analyze round needs, JSON-serializable.

    Validation builds the augmentation priors (``priors``) and the
    marker localizer's error model (``oracle``) once; each of those
    classes checks its own fields, and their errors become usage errors
    that name the config field.
    """

    cohort_dir: str = "cohort"
    out_dir: str = "results"
    n_cases: int = 10
    n_hard: int = 0
    dims: tuple[int, int, int] = (128, 128, 128)
    modes: tuple[str, ...] = MODE_ORDER
    n_samples: int = 20
    jitter_std: float = 0.5
    hard_failure_rate: float = 0.0
    shift_range_mm: tuple[float, float] = (-10.0, 10.0)
    rotate_range_deg: tuple[float, float] = (-20.0, 20.0)
    curve_range: tuple[float, float] = (0.25, 0.75)
    heatmap_sigma_mm: float = 1.5
    seed: int = 0
    workers: int = 1
    weight_file: str | None = None

    def __post_init__(self):
        for name in ("cohort_dir", "out_dir"):
            if not isinstance(getattr(self, name), str):
                raise UsageError(f"{name} must be a string, got {getattr(self, name)!r}")
        if not isinstance(self.dims, (list, tuple)):
            raise UsageError(f"dims must be a list of integers, got {self.dims!r}")
        ints = {name: getattr(self, name) for name in ("n_cases", "n_hard", "n_samples", "seed", "workers")}
        ints.update((f"dims[{i}]", d) for i, d in enumerate(self.dims))
        for name, value in ints.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise UsageError(f"{name} must be an integer, got {value!r}")
        for name in ("seed", "n_hard"):
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be >= 0, got {getattr(self, name)}")
        object.__setattr__(self, "dims", tuple(self.dims))
        with _config_field("modes"):
            object.__setattr__(self, "modes", tuple(self.modes))
        for name, prior in _PRIOR_FIELDS.items():
            with _config_field(name):
                value = tuple(float(x) for x in getattr(self, name))
                TransformPriors(**{prior: value})  # checks this range alone
            object.__setattr__(self, name, value)
        with _config_field("heatmap_sigma_mm"):
            heatmap = HeatmapSpec(sigma_mm=self.heatmap_sigma_mm)
        with _config_field("jitter_std"):
            OracleLocalizerConfig(jitter_std=self.jitter_std)
        with _config_field("hard_failure_rate"):
            oracle = OracleLocalizerConfig(
                jitter_std=self.jitter_std, failure_rate=self.hard_failure_rate, heatmap=heatmap
            )
        with _config_field("weight_file"):
            weights_missing = self.weight_file is not None and not Path(self.weight_file).exists()
        priors = TransformPriors(**{prior: getattr(self, name) for name, prior in _PRIOR_FIELDS.items()})
        # plain attributes, not fields: asdict() and the config hash skip them
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "oracle", oracle)
        unknown = [m for m in self.modes if m not in MODE_ORDER]
        if unknown:
            raise UsageError(f"unknown modes {unknown}; choose from {MODE_ORDER}")
        if not self.modes or len(set(self.modes)) != len(self.modes):
            raise UsageError(f"modes must be a nonempty set, got {self.modes}")
        if self.n_samples < 2:
            raise UsageError(f"n_samples must be >= 2, got {self.n_samples}")
        if self.workers < 1:
            raise UsageError(f"workers must be >= 1, got {self.workers}")
        if weights_missing:
            raise UsageError(f"weight file {self.weight_file} does not exist")


def load_config(path: str | Path | None = None, **overrides) -> ExperimentConfig:
    """Config from an optional JSON file with keyword overrides on top."""
    fields = {}
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SchemaError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise SchemaError(f"config {path} must hold a JSON object")
        known = set(ExperimentConfig.__dataclass_fields__)
        unknown = sorted(set(loaded) - known)
        if unknown:
            raise SchemaError(f"config {path} has unknown keys {unknown}")
        fields.update(loaded)
    fields.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return ExperimentConfig(**fields)
    except TypeError as exc:
        raise SchemaError(f"bad config: {exc}") from exc


# Paths and worker counts are execution details; two runs of the same
# experiment must carry the same hash no matter where or how wide they ran.
_HASH_EXCLUDED = ("cohort_dir", "out_dir", "workers")


def config_hash(cfg: ExperimentConfig) -> str:
    obj = {k: v for k, v in asdict(cfg).items() if k not in _HASH_EXCLUDED}
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(cfg: ExperimentConfig) -> int:
    if cfg.n_cases < 1:
        raise UsageError(f"cohort size must be >= 1, got {cfg.n_cases}")
    if cfg.n_hard > cfg.n_cases:
        raise UsageError(f"n_hard {cfg.n_hard} exceeds cohort size {cfg.n_cases}")
    try:
        base = PhantomSpec(dims=cfg.dims)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    write_cohort(
        cfg.cohort_dir,
        cfg.n_cases,
        n_hard=cfg.n_hard,
        seed=cfg.seed,
        base_spec=base,
        meta={"config_hash": config_hash(cfg)},
    )
    log.info("wrote %d cases to %s", cfg.n_cases, cfg.cohort_dir)
    return EXIT_OK


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _build_localizers(cfg: ExperimentConfig) -> dict[bool, Localizer]:
    """The localizer for easy (False) and hard (True) cases; reads the weight file once."""
    if cfg.weight_file is None:
        easy = MarkerLocalizer(replace(cfg.oracle, failure_rate=0.0))
        return {False: easy, True: MarkerLocalizer(cfg.oracle)}
    try:
        net = ConvNetLocalizer.from_file(ConvNetSpec(), cfg.weight_file)
    except (InvalidModelError, OSError, ValueError, KeyError, TypeError) as exc:
        raise SchemaError(f"weight file {cfg.weight_file} is unusable: {exc}") from exc
    return {False: net, True: net}


def _row(case_id: int, side: str, mode: str, truth: list, pred=None, error_mm=None, mad=None,
         runtime_ms: float = 0.0) -> dict:
    """One results.csv record, its cells as written; a row without a prediction has failed.

    ``case_id`` stays an int for sorting and ``runtime_ms`` rides along
    for timings.csv. ``flagged`` is filled in by ``cmd_run`` from ``_fences``.
    """
    cells = ["failed" if pred is None else "ok", *(pred if pred is not None else (None,) * 3), *truth,
             error_mm, mad, None]
    row = dict(zip(RESULT_COLUMNS[3:], map(_fmt, cells)))
    return {"case_id": case_id, "side": side, "mode": mode, **row, "runtime_ms": runtime_ms}


def _manifest_entries(manifest_path: str | Path) -> list[dict]:
    """A manifest's case entries, each with an integer 'id' and a boolean 'hard'.

    A file that cannot be read or parsed, lists no cases or holds a bad
    entry is a SchemaError naming it.
    """
    try:
        manifest = json.loads(Path(manifest_path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read manifest {manifest_path}: {exc}") from exc
    entries = manifest.get("cases") if isinstance(manifest, dict) else None
    if not entries or not isinstance(entries, list):
        raise SchemaError(f"manifest {manifest_path} lists no cases")
    for entry in entries:
        if not isinstance(entry, dict):
            raise SchemaError(f"manifest {manifest_path} has a case entry that is not an object: {entry!r}")
        case_id = entry.get("id")
        if not isinstance(case_id, int) or isinstance(case_id, bool):
            raise SchemaError(f"manifest {manifest_path} has a case entry without an integer 'id'")
        if not isinstance(entry.get("hard"), bool):
            raise SchemaError(f"manifest {manifest_path} case {case_id} has no boolean 'hard'")
    return entries


def _case_task(cfg: ExperimentConfig, manifest_path: Path, localizers: dict, entry: dict) -> tuple[list[dict], dict]:
    localizer = localizers[entry["hard"]]
    case_id = entry["id"]
    truths = {s: list(map(float, entry["truth_targets"][s])) for s in SIDES}
    case_json: dict = {"case_id": case_id, "hard": entry["hard"], "modes": {}}

    sides: dict = {}
    try:
        image, left_mask, right_mask = load_case_volumes(manifest_path, entry)
        segmenter = TruthMaskSegmenter(left_mask, right_mask)
        result = run_pipeline(PipelineConfig(segmenter=segmenter, localizer=localizer), image)
    except Exception as exc:  # noqa: BLE001 - a load or pipeline failure fails the case
        case_json["error"] = str(exc)
    else:
        case_json["pipeline"] = result.to_json()
        sides = result.sides

    rows: list[dict] = []
    for side_idx, side in enumerate(SIDES):
        truth = truths[side]
        if side not in sides:
            rows.extend(_row(case_id, side, mode, truth) for mode in cfg.modes)
            continue
        side_res = sides[side]
        for mode in cfg.modes:
            t0 = time.perf_counter()
            mad_val = None
            try:
                if mode == "baseline":
                    target = side_res.target
                else:
                    mc = McConfig(
                        mode=mode,
                        n_samples=cfg.n_samples,
                        priors=cfg.priors,
                        base_seed=derive_seed(cfg.seed, case_id, side_idx, MODE_ORDER.index(mode)),
                        keep_samples=False,
                    )
                    summary = run_mode(localizer, side_res.local_crop, mc, state=side_res.state)
                    target = side_res.place(summary.mean_map)
                    mad_val = float(summary.mad)
                pred = target.as_array
                error_mm = float(np.linalg.norm((pred - truth) * np.asarray(image.spacing)))
            except Exception as exc:  # noqa: BLE001 - a mode failure is a row failure
                rows.append(_row(case_id, side, mode, truth, runtime_ms=(time.perf_counter() - t0) * 1e3))
                case_json.setdefault("mode_errors", {})[f"{side}/{mode}"] = str(exc)
                continue
            rows.append(_row(case_id, side, mode, truth, pred, error_mm, mad_val, (time.perf_counter() - t0) * 1e3))
            case_json["modes"].setdefault(mode, {})[side] = {
                "pred": [float(p) for p in pred],
                "error_mm": error_mm,
                "mad": mad_val,
            }
    return rows, case_json


def _fences(rows: list[dict], modes):
    """Yield ``(mode, scored rows, their dispersion scores, Tukey fence stats)`` per sampled mode.

    Rows are results.csv records: the fence reads each ``mad`` as written,
    so analyze on that file reproduces run's flags. Baseline has no score,
    and a mode with fewer than 4 scores is logged and skipped.
    """
    for mode in modes:
        if mode == "baseline":
            continue
        scored = [r for r in rows if r["mode"] == mode and r["status"] == "ok" and r["mad"] != ""]
        try:
            mads = [float(r["mad"]) for r in scored]
        except ValueError as exc:
            raise SchemaError(f"mode {mode} has a non-numeric mad: {exc}") from exc
        if not all(map(math.isfinite, mads)):
            raise SchemaError(f"mode {mode} has a non-finite mad")
        if len(scored) < 4:
            log.warning("mode %s has %d scored rows; need 4 to flag", mode, len(scored))
            continue
        yield mode, scored, mads, rejection_stats(mads)


def _fmt(value) -> str:
    """One CSV cell: empty for None, true/false for bools, six decimals for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _write_csv(path: Path, comment: str, header, rows) -> None:
    buf = io.StringIO()
    buf.write(comment + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(value) for value in row] for row in rows)
    path.write_text(buf.getvalue())


def cmd_run(cfg: ExperimentConfig) -> int:
    manifest_path = Path(cfg.cohort_dir) / "manifest.json"
    if not manifest_path.exists():
        raise SchemaError(f"no cohort manifest at {manifest_path}; run generate first")
    entries = _manifest_entries(manifest_path)
    for entry in entries:
        truths = entry.get("truth_targets")
        if not isinstance(truths, dict) or not all(_three(truths.get(side), _finite) for side in SIDES):
            raise SchemaError(
                f"manifest {manifest_path} case {entry['id']} needs 'truth_targets' with three finite numbers "
                f"for each of {SIDES}"
            )

    task = functools.partial(_case_task, cfg, manifest_path, _build_localizers(cfg))
    if cfg.workers > 1:
        # case threads share the localizers; each draws its samples alone
        with concurrent.futures.ThreadPoolExecutor(cfg.workers, initializer=DRAW_ALONE.set, initargs=(True,)) as pool:
            outcomes = list(pool.map(task, entries))
    else:
        outcomes = list(map(task, entries))

    rows = [row for case_rows, _ in outcomes for row in case_rows]
    case_jsons = [case_json for _, case_json in outcomes]
    rows.sort(key=lambda r: (r["case_id"], r["side"], MODE_ORDER.index(r["mode"])))
    for _, scored, _, stats in _fences(rows, cfg.modes):
        for pos, row in enumerate(scored):
            row["flagged"] = _fmt(pos in stats.flagged)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = config_hash(cfg)
    comment = f"# config_hash={digest} seed={cfg.seed}"
    _write_csv(out_dir / "results.csv", comment, RESULT_COLUMNS, ([r[c] for c in RESULT_COLUMNS] for r in rows))
    _write_csv(
        out_dir / "timings.csv",
        comment,
        ("case_id", "side", "mode", "runtime_ms"),
        ([r["case_id"], r["side"], r["mode"], f"{r['runtime_ms']:.3f}"] for r in rows),
    )
    cases_dir = out_dir / "cases"
    cases_dir.mkdir(exist_ok=True)
    for case_json in case_jsons:
        case_json["config_hash"] = digest
        case_json["seed"] = cfg.seed
        path = cases_dir / f"case_{case_json['case_id']:03d}.json"
        path.write_text(json.dumps(case_json, sort_keys=True, indent=2) + "\n")

    n_failed = sum(1 for r in rows if r["status"] != "ok")
    log.info("wrote %d rows (%d failed) to %s", len(rows), n_failed, out_dir / "results.csv")
    return EXIT_PARTIAL if n_failed else EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _read_results(path: Path) -> tuple[dict, list[dict]]:
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read results {path}: {exc}") from exc
    meta = {}
    lines = text.splitlines()
    body_start = 0
    for line in lines:
        if not line.startswith("#"):
            break
        body_start += 1
        for token in line.lstrip("# ").split():
            if "=" in token:
                key, value = token.split("=", 1)
                meta[key] = value
    reader = csv.DictReader(io.StringIO("\n".join(lines[body_start:])))
    if reader.fieldnames is None or not set(RESULT_COLUMNS) <= set(reader.fieldnames):
        missing = sorted(set(RESULT_COLUMNS) - set(reader.fieldnames or ()))
        raise SchemaError(f"results file {path} is missing columns {missing}")
    records = []
    for r in reader:
        if None in r or None in r.values():  # DictReader's marks for extra and missing cells
            width = len(reader.fieldnames)
            raise SchemaError(f"results file {path} line {body_start + reader.line_num} does not have {width} cells")
        try:
            r["case_id"] = int(r["case_id"])
        except ValueError:
            raise SchemaError(f"results file {path} has a non-integer case_id {r['case_id']!r}") from None
        records.append(r)
    unknown = sorted({r["mode"] for r in records} - set(MODE_ORDER))
    if unknown:
        raise SchemaError(f"results file {path} has unknown modes {unknown}; expected {MODE_ORDER}")
    return meta, records


def cmd_analyze(results_path: str | Path, manifest_path: str | Path, out_dir: str | Path) -> int:
    results_path = Path(results_path)
    meta, records = _read_results(results_path)
    entries = _manifest_entries(manifest_path)
    unlisted = sorted({r["case_id"] for r in records} - {entry["id"] for entry in entries})
    if unlisted:
        raise SchemaError(f"results file {results_path} has cases {unlisted} that manifest {manifest_path} does not list")
    hard_cases = sorted(entry["id"] for entry in entries if entry["hard"])

    long_rows: list[list] = []
    report_modes: dict[str, dict] = {}
    for mode, scored, mads, stats in _fences(records, dict.fromkeys(r["mode"] for r in records)):
        flagged_cases = sorted({scored[i]["case_id"] for i in stats.flagged})
        hits = set(flagged_cases) & set(hard_cases)
        recall = len(hits) / len(hard_cases) if hard_cases else None
        precision = len(hits) / len(flagged_cases) if flagged_cases else None
        report_modes[mode] = {
            "stats": asdict(stats),
            "flagged_cases": flagged_cases,
            "recall": recall,
            "precision": precision,
            "n_scored": len(scored),
        }
        for i, r in enumerate(scored):
            long_rows.append([r["case_id"], r["side"], mode, mads[i], i in stats.flagged, r["case_id"] in hard_cases])

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "config_hash": meta.get("config_hash", ""),
        "seed": meta.get("seed", ""),
        "hard_cases": hard_cases,
        "modes": report_modes,
    }
    (out_dir / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")

    long_rows.sort(key=lambda r: (r[0], r[1], MODE_ORDER.index(r[2])))
    _write_csv(
        out_dir / "analysis_long.csv",
        f"# config_hash={meta.get('config_hash', '')} seed={meta.get('seed', '')}",
        ("case_id", "side", "mode", "mad", "flagged", "hard"),
        long_rows,
    )
    log.info("wrote report for %d modes to %s", len(report_modes), out_dir)
    return EXIT_OK
