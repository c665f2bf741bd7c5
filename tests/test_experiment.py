"""Experiment commands: generate, run, analyze, and the CLI wrapper.

Heavy fixtures are module-scoped: one small cohort on disk and one full
run over it, shared by the read-only assertions.
"""

import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import voxloc
from voxloc import cli, experiment, uncertainty
from voxloc.cli import main
from voxloc.experiment import (
    EXIT_OK,
    EXIT_PARTIAL,
    MODE_ORDER,
    RESULT_COLUMNS,
    ExperimentConfig,
    SchemaError,
    UsageError,
    cmd_analyze,
    cmd_generate,
    cmd_run,
    config_hash,
    load_config,
)
from voxloc.predictors import ConvNetLocalizer, ConvNetSpec, MarkerLocalizer, save_weights

DIMS = (96, 96, 96)
N_CASES = 4
N_HARD = 1
N_SAMPLES = 3


def small_config(cohort_dir, out_dir, **overrides) -> ExperimentConfig:
    fields = dict(
        cohort_dir=str(cohort_dir),
        out_dir=str(out_dir),
        n_cases=N_CASES,
        n_hard=N_HARD,
        dims=DIMS,
        n_samples=N_SAMPLES,
        jitter_std=0.5,
        hard_failure_rate=0.0,
        seed=11,
        workers=1,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cohort")
    cfg = small_config(root / "cohort", root / "unused")
    assert cmd_generate(cfg) == EXIT_OK
    return root / "cohort"


@pytest.fixture(scope="module")
def run_outputs(cohort_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "results"
    cfg = small_config(cohort_dir, out)
    rc = cmd_run(cfg)
    return cfg, out, rc


def read_rows(path: Path) -> tuple[str, list[dict]]:
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    return lines[0], list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.modes == MODE_ORDER
        assert cfg.dims == (128, 128, 128)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(modes=("baseline", "warp")),
            dict(modes=()),
            dict(modes=("mcdo", "mcdo")),
            dict(n_samples=1),
            dict(workers=0),
            dict(hard_failure_rate=1.5),
            dict(weight_file="/nonexistent/weights.json"),
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(UsageError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_cases=4.0),
            dict(n_hard="1"),
            dict(n_samples=2.5),
            dict(seed=1.5),
            dict(workers=True),
            dict(dims=(96.0, 96, 96)),
            dict(dims=(96, 96, False)),
        ],
    )
    def test_non_integer_counts_rejected(self, kwargs):
        with pytest.raises(UsageError, match="must be an integer"):
            ExperimentConfig(**kwargs)

    def test_load_config_merges_file_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_cases": 7, "seed": 3}))
        cfg = load_config(path, seed=9, workers=None)
        assert cfg.n_cases == 7
        assert cfg.seed == 9  # override wins
        assert cfg.workers == 1  # None overrides are ignored

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_cases": 7, "volume_count": 3}))
        with pytest.raises(SchemaError, match="volume_count"):
            load_config(path)

    def test_load_config_rejects_non_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(SchemaError):
            load_config(path)

    def test_hash_ignores_execution_details(self):
        a = ExperimentConfig(cohort_dir="x", out_dir="y", workers=1)
        b = ExperimentConfig(cohort_dir="p", out_dir="q", workers=8)
        assert config_hash(a) == config_hash(b)

    def test_hash_tracks_science_fields(self):
        a = ExperimentConfig(seed=0)
        b = ExperimentConfig(seed=1)
        c = ExperimentConfig(jitter_std=0.9)
        assert len({config_hash(a), config_hash(b), config_hash(c)}) == 3


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


class TestGenerate:
    def test_empty_cohort_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            cmd_generate(small_config(tmp_path / "c", tmp_path / "r", n_cases=0))

    def test_too_many_hard_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            cmd_generate(small_config(tmp_path / "c", tmp_path / "r", n_hard=N_CASES + 1))

    def test_layout(self, cohort_dir):
        assert (cohort_dir / "manifest.json").exists()
        case_dirs = sorted(p.name for p in cohort_dir.iterdir() if p.is_dir())
        assert case_dirs == [f"case_{i:03d}" for i in range(N_CASES)]
        for d in case_dirs:
            names = sorted(p.name for p in (cohort_dir / d).iterdir())
            assert names == [
                "image.json",
                "image.raw",
                "left_mask.json",
                "left_mask.raw",
                "right_mask.json",
                "right_mask.raw",
            ]

    def test_manifest_embeds_config_hash(self, cohort_dir):
        manifest = json.loads((cohort_dir / "manifest.json").read_text())
        cfg = small_config(cohort_dir, "unused")
        assert manifest["config_hash"] == config_hash(cfg)
        assert manifest["n"] == N_CASES

    def test_regenerate_is_byte_identical(self, cohort_dir, tmp_path):
        cfg = small_config(tmp_path / "again", tmp_path / "r")
        assert cmd_generate(cfg) == EXIT_OK
        first = (cohort_dir / "manifest.json").read_bytes()
        second = (tmp_path / "again" / "manifest.json").read_bytes()
        assert first == second
        raw_a = (cohort_dir / "case_000" / "image.raw").read_bytes()
        raw_b = (tmp_path / "again" / "case_000" / "image.raw").read_bytes()
        assert raw_a == raw_b


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


class TestRun:
    def test_exit_code_clean(self, run_outputs):
        _, _, rc = run_outputs
        assert rc == EXIT_OK

    def test_row_grid_complete(self, run_outputs):
        cfg, out, _ = run_outputs
        comment, rows = read_rows(out / "results.csv")
        assert len(rows) == N_CASES * 2 * len(cfg.modes)
        assert f"config_hash={config_hash(cfg)}" in comment
        assert f"seed={cfg.seed}" in comment
        assert list(rows[0].keys()) == list(RESULT_COLUMNS)
        assert all(r["status"] == "ok" for r in rows)

    def test_rows_sorted_canonically(self, run_outputs):
        _, out, _ = run_outputs
        _, rows = read_rows(out / "results.csv")
        keys = [
            (int(r["case_id"]), r["side"], MODE_ORDER.index(r["mode"]))
            for r in rows
        ]
        assert keys == sorted(keys)

    def test_baseline_rows_have_no_dispersion_fields(self, run_outputs):
        _, out, _ = run_outputs
        _, rows = read_rows(out / "results.csv")
        for r in rows:
            if r["mode"] == "baseline":
                assert r["mad"] == "" and r["flagged"] == ""
            else:
                assert r["mad"] != "" and r["flagged"] in ("true", "false")

    def test_predictions_near_truth(self, run_outputs):
        # clean phantoms, marker-guided localizer: every mode stays close
        _, out, _ = run_outputs
        _, rows = read_rows(out / "results.csv")
        errors = [float(r["error_mm"]) for r in rows]
        assert max(errors) < 4.0
        baseline = [float(r["error_mm"]) for r in rows if r["mode"] == "baseline"]
        assert max(baseline) <= 1.0

    def test_rerun_byte_identical(self, run_outputs, cohort_dir, tmp_path):
        cfg, out, _ = run_outputs
        cfg2 = small_config(cohort_dir, tmp_path / "rerun")
        assert cmd_run(cfg2) == EXIT_OK
        assert (out / "results.csv").read_bytes() == (tmp_path / "rerun" / "results.csv").read_bytes()

    @pytest.mark.parametrize("workers", [2, 8])  # 8 is more workers than cases
    def test_worker_pool_matches_serial(self, run_outputs, cohort_dir, tmp_path, workers):
        cfg, out, _ = run_outputs
        cfg2 = small_config(cohort_dir, tmp_path / "pool", workers=workers)
        assert cmd_run(cfg2) == EXIT_OK
        assert (out / "results.csv").read_bytes() == (tmp_path / "pool" / "results.csv").read_bytes()

    def test_case_threads_draw_alone(self, cohort_dir, tmp_path, monkeypatch):
        # each row records the thread it ran on and the sampler's thread budget there
        calls = []
        original = experiment.run_mode

        def recording(*args, **kwargs):
            calls.append((threading.get_ident(), uncertainty._sample_threads(N_SAMPLES)))
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, "run_mode", recording)
        caller, budget = threading.get_ident(), uncertainty._sample_threads(N_SAMPLES)
        for workers in (1, 2, 8):
            calls.clear()
            before = threading.active_count()
            assert cmd_run(small_config(cohort_dir, tmp_path / f"w{workers}", modes=("tta",), workers=workers)) == EXIT_OK
            assert threading.active_count() == before
            assert len(calls) == N_CASES * 2
            threads = {thread for thread, _ in calls}
            if workers == 1:
                assert set(calls) == {(caller, budget)}
            else:
                assert caller not in threads and {b for _, b in calls} == {1}
                assert len(threads) <= N_CASES

    def test_per_case_json(self, run_outputs):
        cfg, out, _ = run_outputs
        files = sorted((out / "cases").iterdir())
        assert [f.name for f in files] == [f"case_{i:03d}.json" for i in range(N_CASES)]
        doc = json.loads(files[0].read_text())
        assert doc["config_hash"] == config_hash(cfg)
        assert doc["seed"] == cfg.seed
        assert set(doc["modes"]) == set(m for m in cfg.modes if True)
        assert "pipeline" in doc

    def test_timings_sidecar(self, run_outputs):
        cfg, out, _ = run_outputs
        comment, rows = read_rows(out / "timings.csv")
        assert f"config_hash={config_hash(cfg)}" in comment
        assert len(rows) == N_CASES * 2 * len(cfg.modes)
        assert all(float(r["runtime_ms"]) >= 0.0 for r in rows)

    def test_mode_subset_only_produces_those_rows(self, cohort_dir, tmp_path):
        cfg = small_config(cohort_dir, tmp_path / "subset", modes=("baseline", "mcdo"))
        assert cmd_run(cfg) == EXIT_OK
        _, rows = read_rows(tmp_path / "subset" / "results.csv")
        assert {r["mode"] for r in rows} == {"baseline", "mcdo"}
        assert len(rows) == N_CASES * 2 * 2

    def test_mcdo_rows_sample_the_pipeline_state(self, cohort_dir, tmp_path, monkeypatch):
        # the pipeline prepares each side's crop once; its mcdo row samples that state
        prepared = []
        original = MarkerLocalizer.prepare
        monkeypatch.setattr(MarkerLocalizer, "prepare", lambda self, v: prepared.append(v) or original(self, v))
        cfg = small_config(cohort_dir, tmp_path / "state", modes=("baseline", "mcdo"))
        assert cmd_run(cfg) == EXIT_OK
        assert len(prepared) == N_CASES * 2

    def test_missing_manifest_is_schema_error(self, tmp_path):
        cfg = small_config(tmp_path / "nowhere", tmp_path / "r")
        with pytest.raises(SchemaError, match="manifest"):
            cmd_run(cfg)

    @pytest.mark.parametrize(
        "defect, cause",
        [("truncated-image", "payload length mismatch"), ("empty-masks", "no usable component")],
        ids=["truncated-image", "empty-masks"],
    )
    def test_corrupt_volume_fails_case_not_run(self, cohort_dir, tmp_path, defect, cause):
        broken = tmp_path / "broken_cohort"
        shutil.copytree(cohort_dir, broken)
        if defect == "truncated-image":
            raw = broken / "case_001" / "image.raw"
            raw.write_bytes(raw.read_bytes()[: raw.stat().st_size // 2])
        else:  # loads cleanly, then run_pipeline finds no foreground
            for name in ("left_mask", "right_mask"):
                raw = broken / "case_001" / f"{name}.raw"
                raw.write_bytes(bytes(raw.stat().st_size))
        cfg = small_config(broken, tmp_path / "broken_out", modes=("baseline", "mcdo"))
        assert cmd_run(cfg) == EXIT_PARTIAL
        _, rows = read_rows(tmp_path / "broken_out" / "results.csv")
        by_case = {}
        for r in rows:
            by_case.setdefault(int(r["case_id"]), set()).add(r["status"])
        assert by_case[1] == {"failed"}
        for cid in (0, 2, 3):
            assert by_case[cid] == {"ok"}
        failed = [r for r in rows if r["status"] == "failed"]
        assert len(failed) == 2 * 2  # both sides, both modes
        for r in failed:
            assert r["pred_x"] == "" and r["error_mm"] == "" and r["truth_x"] != ""
        doc = json.loads((tmp_path / "broken_out" / "cases" / "case_001.json").read_text())
        assert cause in doc["error"] and "pipeline" not in doc

    @pytest.mark.parametrize("spacing", [["nan", 1, 1], [10**400, 1, 1]], ids=["nan-string", "huge-int"])
    def test_malformed_volume_header_fails_case_naming_header(self, cohort_dir, tmp_path, capsys, spacing):
        broken = tmp_path / "bad_spacing_cohort"
        shutil.copytree(cohort_dir, broken)
        header = broken / "case_001" / "image.json"
        header.write_text(json.dumps({**json.loads(header.read_text()), "spacing": spacing}))
        out = tmp_path / "r"
        assert main(["run", "--cohort", str(broken), "--modes", "baseline", "--out", str(out)]) == EXIT_PARTIAL
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads((out / "cases" / "case_001.json").read_text())
        assert str(header) in doc["error"] and "spacing" in doc["error"]


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def write_results_fixture(path: Path, mads_by_case: dict[int, float], mode="mcdo", seed=5):
    """Minimal results.csv with one scored row per (case, side)."""
    lines = ["# config_hash=deadbeef0123 seed=%d" % seed, ",".join(RESULT_COLUMNS)]
    for cid, mad in sorted(mads_by_case.items()):
        for side in ("left", "right"):
            lines.append(
                f"{cid},{side},{mode},ok,1.000000,2.000000,3.000000,"
                f"1.000000,2.000000,3.000000,0.100000,{mad:.6f},false"
            )
    path.write_text("\n".join(lines) + "\n")


def write_manifest_fixture(path: Path, n: int, hard_ids) -> None:
    cases = [{"id": i, "hard": i in set(hard_ids)} for i in range(n)]
    path.write_text(json.dumps({"seed": 5, "n": n, "n_hard": len(set(hard_ids)), "cases": cases}))


class TestAnalyze:
    def test_gross_outliers_flagged_with_full_recall(self, tmp_path):
        # quartiles tolerate 20% contamination; more would drag Q3 onto the
        # outliers themselves and hide them
        hard = {8, 9}
        mads = {i: (8.0 if i in hard else 0.8 + 0.01 * i) for i in range(10)}
        write_results_fixture(tmp_path / "results.csv", mads)
        write_manifest_fixture(tmp_path / "manifest.json", 10, hard)
        assert cmd_analyze(tmp_path / "results.csv", tmp_path / "manifest.json", tmp_path) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config_hash"] == "deadbeef0123"
        assert report["seed"] == "5"
        assert report["hard_cases"] == [8, 9]
        mode = report["modes"]["mcdo"]
        assert mode["flagged_cases"] == [8, 9]
        assert mode["recall"] == 1.0
        assert mode["precision"] == 1.0
        assert mode["n_scored"] == 20

    def test_long_csv_contents(self, tmp_path):
        hard = {3}
        mads = {i: (6.0 if i in hard else 0.5) for i in range(5)}
        write_results_fixture(tmp_path / "results.csv", mads)
        write_manifest_fixture(tmp_path / "manifest.json", 5, hard)
        cmd_analyze(tmp_path / "results.csv", tmp_path / "manifest.json", tmp_path)
        comment, rows = read_rows(tmp_path / "analysis_long.csv")
        assert "config_hash=deadbeef0123" in comment
        assert len(rows) == 10
        flagged = {int(r["case_id"]) for r in rows if r["flagged"] == "true"}
        hard_marked = {int(r["case_id"]) for r in rows if r["hard"] == "true"}
        assert flagged == hard == hard_marked

    def test_uniform_scores_flag_nothing(self, tmp_path):
        mads = {i: 1.25 for i in range(6)}
        write_results_fixture(tmp_path / "results.csv", mads)
        write_manifest_fixture(tmp_path / "manifest.json", 6, {0})
        cmd_analyze(tmp_path / "results.csv", tmp_path / "manifest.json", tmp_path)
        mode = json.loads((tmp_path / "report.json").read_text())["modes"]["mcdo"]
        assert mode["flagged_cases"] == []
        assert mode["recall"] == 0.0
        assert mode["precision"] is None

    def test_underfilled_mode_skipped_with_warning(self, tmp_path, caplog):
        write_results_fixture(tmp_path / "results.csv", {0: 1.0})  # 2 rows < 4
        write_manifest_fixture(tmp_path / "manifest.json", 1, set())
        with caplog.at_level("WARNING", logger="voxloc.experiment"):
            rc = cmd_analyze(tmp_path / "results.csv", tmp_path / "manifest.json", tmp_path)
        assert rc == EXIT_OK
        assert json.loads((tmp_path / "report.json").read_text())["modes"] == {}
        assert any("need 4" in m for m in caplog.messages)

    def test_missing_column_is_schema_error(self, tmp_path):
        (tmp_path / "results.csv").write_text("# c\ncase_id,side\n0,left\n")
        write_manifest_fixture(tmp_path / "manifest.json", 1, set())
        with pytest.raises(SchemaError, match="missing columns"):
            cmd_analyze(tmp_path / "results.csv", tmp_path / "manifest.json", tmp_path)

    def test_non_numeric_mad_is_schema_error(self, tmp_path):
        write_results_fixture(tmp_path / "results.csv", {i: 1.0 for i in range(4)})
        text = (tmp_path / "results.csv").read_text()
        (tmp_path / "results.csv").write_text(text.replace(",1.000000,false", ",abc,false", 1))
        write_manifest_fixture(tmp_path / "manifest.json", 4, set())
        with pytest.raises(SchemaError, match="non-numeric mad"):
            cmd_analyze(tmp_path / "results.csv", tmp_path / "manifest.json", tmp_path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_mad_is_one_line_io_error(self, tmp_path, capsys, cell):
        results = tmp_path / "results.csv"
        write_results_fixture(results, {i: 1.0 for i in range(4)})
        results.write_text(results.read_text().replace(",1.000000,false", f",{cell},false", 1))
        write_manifest_fixture(tmp_path / "manifest.json", 4, set())
        out = tmp_path / "r"
        assert main(["analyze", "--results", str(results), "--cohort", str(tmp_path), "--out", str(out)]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "non-finite mad" in lines[0], lines
        assert not out.exists()

    @pytest.mark.parametrize("defect", ["truncated", "extra-cell"])
    def test_row_of_wrong_width_is_schema_error(self, tmp_path, defect):
        results = tmp_path / "results.csv"
        write_results_fixture(results, {i: 1.0 for i in range(4)})
        lines = results.read_text().splitlines()
        lines[3] = "0,left,mcdo,ok" if defect == "truncated" else lines[3] + ",x"
        results.write_text("\n".join(lines) + "\n")
        write_manifest_fixture(tmp_path / "manifest.json", 4, set())
        with pytest.raises(SchemaError, match=f"{re.escape(str(results))} line 4 does not have 13 cells"):
            cmd_analyze(results, tmp_path / "manifest.json", tmp_path)

    @pytest.mark.parametrize("manifest", [{"cases": []}, {"seed": 5}, []], ids=["empty-list", "no-cases-key", "list"])
    def test_manifest_without_cases_is_schema_error(self, tmp_path, manifest):
        write_results_fixture(tmp_path / "results.csv", {i: 1.0 for i in range(4)})
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match="lists no cases"):
            cmd_analyze(tmp_path / "results.csv", tmp_path / "manifest.json", tmp_path)

    def test_analyze_reproduces_run_flags(self, tmp_path, monkeypatch):
        # 1.7500003 clears the fence of these six (1.75) by less than the
        # half-unit of results.csv's sixth decimal: run and analyze must
        # both decide on the written 1.750000
        mads = iter([1.0, 1.1, 1.2, 1.3, 1.4, 1.7500003])
        monkeypatch.setattr(
            "voxloc.experiment.run_mode",
            lambda loc, crop, mc, state=None: SimpleNamespace(mean_map=crop, mad=next(mads)),
        )
        cfg = ExperimentConfig(cohort_dir=str(tmp_path / "cohort"), out_dir=str(tmp_path / "run"), n_cases=3,
                               dims=(64, 64, 64), modes=("mcdo",), workers=1, seed=4)
        assert cmd_generate(cfg) == EXIT_OK
        assert cmd_run(cfg) == EXIT_OK
        assert list(mads) == []
        assert cmd_analyze(tmp_path / "run" / "results.csv", tmp_path / "cohort" / "manifest.json",
                           tmp_path / "analysis") == EXIT_OK
        _, results = read_rows(tmp_path / "run" / "results.csv")
        _, long_rows = read_rows(tmp_path / "analysis" / "analysis_long.csv")
        report = json.loads((tmp_path / "analysis" / "report.json").read_text())
        run_flags = {(r["case_id"], r["side"]): r["flagged"] for r in results}
        assert run_flags == {(r["case_id"], r["side"]): r["flagged"] for r in long_rows}
        flagged_cases = sorted({int(case_id) for (case_id, _), flag in run_flags.items() if flag == "true"})
        assert report["modes"]["mcdo"]["flagged_cases"] == flagged_cases

    def test_unknown_mode_is_schema_error(self, tmp_path):
        write_results_fixture(tmp_path / "results.csv", {i: 1.0 + i for i in range(5)}, mode="foo")
        write_manifest_fixture(tmp_path / "manifest.json", 5, set())
        with pytest.raises(SchemaError, match="unknown modes"):
            cmd_analyze(tmp_path / "results.csv", tmp_path / "manifest.json", tmp_path)

    def test_missing_results_is_schema_error(self, tmp_path):
        write_manifest_fixture(tmp_path / "manifest.json", 1, set())
        with pytest.raises(SchemaError):
            cmd_analyze(tmp_path / "nope.csv", tmp_path / "manifest.json", tmp_path)

    def test_missing_manifest_is_schema_error(self, tmp_path):
        write_results_fixture(tmp_path / "results.csv", {i: 1.0 for i in range(4)})
        with pytest.raises(SchemaError):
            cmd_analyze(tmp_path / "results.csv", tmp_path / "nope.json", tmp_path)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_module_cli(*args, cwd):
    """Run ``python -m voxloc`` in a child process on the package imported here.

    The child's ``PYTHONPATH`` starts with the directory that holds the
    imported ``voxloc``, so it runs the code under test from any working
    directory, installed or not.
    """
    package_root = str(Path(voxloc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "voxloc", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


# the config file that the --config cases below read, from the working directory
FLAG_CONFIG = {"cohort_dir": "k", "out_dir": "o", "n_samples": 5, "seed": 2}


def _config_call(command, **fields):
    """What generate or run receives: the config, as a dict."""
    return command, asdict(ExperimentConfig(**fields))


def _analyze_call(results="results/results.csv", cohort="cohort", report="results"):
    """What analyze receives: the results file, the manifest and the report directory."""
    return "analyze", (Path(results), Path(cohort) / "manifest.json", Path(report))


FLAG_CASES = {
    "generate-out": (["generate", "--out", "c"], _config_call("generate", cohort_dir="c")),
    "generate-n": (["generate", "--n", "3"], _config_call("generate", n_cases=3)),
    "generate-n-hard": (["generate", "--n-hard", "2"], _config_call("generate", n_hard=2)),
    "generate-dims": (["generate", "--dims", "64, 80,96"], _config_call("generate", dims=(64, 80, 96))),
    "generate-seed": (["generate", "--seed", "5"], _config_call("generate", seed=5)),
    "generate-out-trailing-slash": (["generate", "--out", "x/"], _config_call("generate", cohort_dir="x")),
    "generate-out-empty": (["generate", "--out", ""], _config_call("generate", cohort_dir=".")),
    "run-cohort": (["run", "--cohort", "c"], _config_call("run", cohort_dir="c")),
    "run-out": (["run", "--out", "r"], _config_call("run", out_dir="r")),
    "run-workers": (["run", "--workers", "3"], _config_call("run", workers=3)),
    "run-modes": (["run", "--modes", "tta, mcdo"], _config_call("run", modes=("tta", "mcdo"))),
    "run-n-samples": (["run", "--n-samples", "7"], _config_call("run", n_samples=7)),
    "run-seed": (["run", "--seed", "4"], _config_call("run", seed=4)),
    "run-dirs": (["run", "--cohort", "x/", "--out", "."], _config_call("run", cohort_dir="x", out_dir=".")),
    "run-config": (["run", "--config", "cfg.json"], _config_call("run", **FLAG_CONFIG)),
    "run-config-override": (
        ["run", "--config", "cfg.json", "--n-samples", "9", "--out", ""],
        _config_call("run", **dict(FLAG_CONFIG, n_samples=9, out_dir=".")),
    ),
    "analyze-defaults": (["analyze"], _analyze_call()),
    "analyze-results": (["analyze", "--results", "a.csv"], _analyze_call(results="a.csv")),
    "analyze-cohort": (["analyze", "--cohort", "x/"], _analyze_call(cohort="x")),
    "analyze-out": (["analyze", "--out", "rep"], _analyze_call(report="rep")),
    "analyze-out-empty": (["analyze", "--out", ""], _analyze_call(report=".")),
    "analyze-config": (["analyze", "--config", "cfg.json"], _analyze_call("o/results.csv", "k", "o")),
    "analyze-config-override": (
        ["analyze", "--config", "cfg.json", "--cohort", "c", "--seed", "1"],
        _analyze_call("o/results.csv", "c", "o"),
    ),
}


class TestCli:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_bad_dims_is_usage_error(self, tmp_path):
        rc = main(["generate", "--out", str(tmp_path / "c"), "--n", "1", "--dims", "96,96"])
        assert rc == 2

    def test_zero_cases_is_usage_error(self, tmp_path):
        rc = main(["generate", "--out", str(tmp_path / "c"), "--n", "0", "--dims", "96,96,96"])
        assert rc == 2

    @pytest.mark.parametrize(
        "argv, config, field",
        [
            (["generate", "--n", "1", "--dims", "32,32,32"], {}, "dims"),
            (["run"], {"n_samples": 2.5}, "n_samples"),
            (["run"], {"workers": True}, "workers"),
            (["run"], {"jitter_std": -1}, "jitter_std"),
            (["run"], {"heatmap_sigma_mm": 0}, "heatmap_sigma_mm"),
            (["run"], {"jitter_std": "abc"}, "jitter_std"),
            (["generate", "--n", "1", "--dims", "64,64,64", "--seed", "-1"], {}, "seed"),
            (["run"], {"shift_range_mm": [5, -5]}, "shift_range_mm"),
            (["run"], {"curve_range": [0, 2]}, "curve_range"),
            (["run"], {"rotate_range_deg": [1]}, "rotate_range_deg"),
            (["run", "--seed", "-1"], {}, "seed"),
            (["run"], {"heatmap_sigma_mm": 5e-324}, "heatmap_sigma_mm"),
            (["run"], {"jitter_std": float("nan")}, "jitter_std"),
            (["run"], {"jitter_std": float("inf")}, "jitter_std"),
            (["run"], {"shift_range_mm": [float("nan"), 5]}, "shift_range_mm"),
            (["run"], {"rotate_range_deg": [-20, float("inf")]}, "rotate_range_deg"),
            (["run"], {"shift_range_mm": [float("-inf"), 5]}, "shift_range_mm"),
            (["run"], {"curve_range": [0.25, float("nan")]}, "curve_range"),
            (["run"], {"shift_range_mm": [-(10**400), 5]}, "shift_range_mm"),
            (["generate", "--n", "3", "--n-hard", "-1", "--dims", "64,64,64"], {}, "n_hard"),
            (["generate", "--n", "3", "--dims", "64,64,64"], {"n_hard": -1}, "n_hard"),
            (["run", "--modes", ""], {}, "modes"),
            (["generate", "--n", "1", "--dims", ""], {}, "dims"),
        ],
        ids=[
            "dims-below-64",
            "fractional-n-samples",
            "bool-workers",
            "negative-jitter",
            "zero-heatmap-sigma",
            "string-jitter",
            "generate-negative-seed",
            "empty-shift-range",
            "curve-range-past-1",
            "one-value-rotate-range",
            "run-negative-seed",
            "underflowing-heatmap-sigma",
            "nan-jitter",
            "infinite-jitter",
            "nan-shift-range",
            "infinite-rotate-range",
            "negative-infinite-shift-range",
            "nan-curve-range",
            "float-overflowing-shift-range",
            "negative-n-hard",
            "config-negative-n-hard",
            "empty-modes",
            "empty-dims",
        ],
    )
    def test_invalid_request_is_one_line_usage_error(self, tmp_path, capsys, argv, config, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"cohort_dir": str(tmp_path / "c"), "out_dir": str(tmp_path / "r"), **config}))
        assert main([*argv, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert field in lines[0]

    def test_run_without_cohort_is_io_error(self, tmp_path):
        rc = main(["run", "--cohort", str(tmp_path / "missing"), "--out", str(tmp_path / "r")])
        assert rc == 4

    @pytest.mark.parametrize(
        "entry, field",
        [
            ({"id": 0, "files": {}}, "hard"),
            ({"id": 0, "files": {}, "hard": False}, "truth_targets"),
            ({"id": 0, "files": {}, "hard": False, "truth_targets": {"left": [1, 2, 3]}}, "truth_targets"),
            (
                {"id": 0, "files": {}, "hard": False, "truth_targets": {"left": [10**400, 2, 3], "right": [1, 2, 3]}},
                "truth_targets",
            ),
            ({"files": {}, "hard": False}, "id"),
            ("case_000", "object"),
        ],
        ids=["no-hard", "no-truth-targets", "one-side-truth", "huge-int-truth", "no-id", "not-an-object"],
    )
    def test_malformed_manifest_entry_is_one_line_io_error(self, tmp_path, capsys, entry, field):
        cohort = tmp_path / "badman"
        cohort.mkdir()
        (cohort / "manifest.json").write_text(json.dumps({"cases": [entry]}))
        out = tmp_path / "r"
        assert main(["run", "--cohort", str(cohort), "--modes", "baseline", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert field in lines[0]
        assert not out.exists()  # stopped before any case ran

    @pytest.mark.parametrize(
        "entry, case_id, field",
        [
            ({"id": "x", "hard": True}, "0", "id"),
            ({"id": 0}, "0", "hard"),
            ("case_000", "0", "object"),
            ({"id": 0, "hard": True}, "abc", "case_id"),
        ],
        ids=["string-id", "no-hard", "not-an-object", "string-case-id"],
    )
    def test_malformed_analyze_input_is_one_line_io_error(self, tmp_path, capsys, entry, case_id, field):
        (tmp_path / "manifest.json").write_text(json.dumps({"cases": [entry]}))
        results = tmp_path / "results.csv"
        write_results_fixture(results, {i: 1.0 for i in range(4)})
        results.write_text(results.read_text().replace("\n0,left", f"\n{case_id},left", 1))
        out = tmp_path / "r"
        assert main(["analyze", "--results", str(results), "--cohort", str(tmp_path), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert field in lines[0]
        assert not out.exists()

    def test_results_from_another_cohort_is_one_line_io_error(self, tmp_path, capsys):
        # cases 0-7 with an outlier at 7, scored against a manifest that lists only case 0
        results = tmp_path / "results.csv"
        write_results_fixture(results, {i: 1.0 + 0.01 * i + (5.0 if i == 7 else 0.0) for i in range(8)})
        write_manifest_fixture(tmp_path / "manifest.json", 1, {0})
        out = tmp_path / "r"
        assert main(["analyze", "--results", str(results), "--cohort", str(tmp_path), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert "[1, 2, 3, 4, 5, 6, 7]" in lines[0] and "does not list" in lines[0]
        assert not out.exists()
        with pytest.raises(SchemaError, match="does not list"):
            cmd_analyze(results, tmp_path / "manifest.json", out)

    @pytest.mark.parametrize("bad_file", ["cfg.json", "run/manifest.json", "manifest.json", "results.csv"])
    def test_undecodable_input_is_one_line_io_error(self, tmp_path, capsys, bad_file):
        write_manifest_fixture(tmp_path / "manifest.json", 4, set())
        write_results_fixture(tmp_path / "results.csv", {i: 1.0 for i in range(4)})
        (tmp_path / "cfg.json").write_text("{}")
        (tmp_path / "run").mkdir()
        bad = tmp_path / bad_file
        bad.write_bytes(b'{"cases": \xff\xfe}\n' if bad.suffix == ".json" else b"case_id\n\xff\xfe\n")
        out = tmp_path / "r"
        if bad_file.startswith("run/"):
            argv = ["run", "--cohort", str(bad.parent), "--out", str(out)]
        else:
            argv = ["analyze", "--results", str(tmp_path / "results.csv"), "--cohort", str(tmp_path), "--out", str(out)]
        assert main([*argv, "--config", str(tmp_path / "cfg.json")]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert str(bad) in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "defect", ["f16-dtype", "layout-mismatch", "manifest-list", "layers-number", "layer-not-object", "fractional-dim"]
    )
    def test_malformed_weight_file_is_one_line_io_error(self, cohort_dir, tmp_path, capsys, defect):
        weights = tmp_path / "weights.json"
        if defect == "f16-dtype":
            save_weights(ConvNetLocalizer.from_seed(ConvNetSpec()), weights)
            weights.write_text(weights.read_text().replace('"f32"', '"f16"'))
        elif defect == "layout-mismatch":
            save_weights(ConvNetLocalizer.from_seed(ConvNetSpec(channels=(4, 1))), weights)
        elif defect == "fractional-dim":
            # 8.5 * 27 counts 229 values where 8 * 27 slices 216: pad the payload to the count
            save_weights(ConvNetLocalizer.from_seed(ConvNetSpec()), weights)
            manifest = json.loads(weights.read_text())
            manifest["layers"][0]["weight"] = [8.5, 1, 3, 3, 3]
            weights.write_text(json.dumps(manifest))
            raw = weights.with_suffix(".raw")
            raw.write_bytes(raw.read_bytes() + bytes(13 * 4))
        else:
            save_weights(ConvNetLocalizer.from_seed(ConvNetSpec()), weights)
            manifest = json.loads(weights.read_text())
            bad = {
                "manifest-list": [1, 2],
                "layers-number": dict(manifest, layers=3),
                "layer-not-object": dict(manifest, layers=[[1], [1]]),
            }[defect]
            weights.write_text(json.dumps(bad))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"weight_file": str(weights)}))
        out = tmp_path / "r"
        assert main(["run", "--config", str(cfg_path), "--cohort", str(cohort_dir), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert not out.exists()  # stopped before any case ran

    def test_modes_flag_filters(self, cohort_dir, tmp_path):
        rc = main(
            [
                "run",
                "--cohort",
                str(cohort_dir),
                "--out",
                str(tmp_path / "cli_run"),
                "--modes",
                "baseline",
                "--seed",
                "11",
            ]
        )
        assert rc == 0
        _, rows = read_rows(tmp_path / "cli_run" / "results.csv")
        assert {r["mode"] for r in rows} == {"baseline"}

    @pytest.mark.parametrize("argv, received", list(FLAG_CASES.values()), ids=list(FLAG_CASES))
    def test_each_flag_reaches_its_field(self, tmp_path, monkeypatch, argv, received):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(FLAG_CONFIG))
        calls = []
        monkeypatch.setattr(cli, "cmd_generate", lambda cfg: calls.append(("generate", asdict(cfg))) or 0)
        monkeypatch.setattr(cli, "cmd_run", lambda cfg: calls.append(("run", asdict(cfg))) or 0)
        monkeypatch.setattr(cli, "cmd_analyze", lambda *paths: calls.append(("analyze", tuple(map(Path, paths)))) or 0)
        assert main(argv) == 0
        assert calls == [received]

    def test_console_script_roundtrip(self, tmp_path):
        # the module entry point drives all three commands end to end in a child process
        cfg = {
            "cohort_dir": str(tmp_path / "cohort"),
            "out_dir": str(tmp_path / "out"),
            "n_cases": 4,
            "n_hard": 1,
            "dims": [96, 96, 96],
            "modes": ["baseline", "mcdo"],
            "n_samples": 3,
            "jitter_std": 0.5,
            "seed": 2,
            "workers": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        for command in ("generate", "run", "analyze"):
            proc = run_module_cli(command, "--config", str(cfg_path), cwd=tmp_path)
            assert proc.returncode == 0, f"{command}: {proc.stderr}"
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "mcdo" in report["modes"]
        manifest = json.loads((tmp_path / "cohort" / "manifest.json").read_text())
        expected_hard = sorted(c["id"] for c in manifest["cases"] if c["hard"])
        assert report["hard_cases"] == expected_hard

    def test_module_entry_passes_usage_exit_code_through(self, tmp_path):
        proc = run_module_cli("generate", "--dims", "8,8", cwd=tmp_path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr

    def test_console_script_maps_to_cli_main(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(voxloc.__file__).resolve().parents[2] / "pyproject.toml"
        meta = tomllib.loads(pyproject.read_text())
        assert meta["project"]["scripts"]["voxloc"] == "voxloc.cli:main"


# A config file field set to any JSON value: null, bool, int, finite float,
# string, or a short list of those.
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(st.characters(codec="utf-8"), max_size=8),
)
JSON_VALUES = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3))
# the command line below sets the other fields
DRAWN_FIELDS = sorted(set(ExperimentConfig.__dataclass_fields__) - {"cohort_dir", "out_dir", "modes", "n_samples", "workers"})


@pytest.fixture(scope="module")
def one_case_cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("one_case")
    cfg = ExperimentConfig(cohort_dir=str(root / "cohort"), n_cases=1, dims=(64, 64, 64), seed=3)
    assert cmd_generate(cfg) == EXIT_OK
    return root / "cohort"


class TestCliConfigValues:
    def test_sub_voxel_heatmap_sigma_fails_rows(self, one_case_cohort, tmp_path, capsys):
        # jittered marker centres are sub-voxel: a 0.1 mm sigma puts no voxel above the cutoff
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"heatmap_sigma_mm": 0.1}))
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg_path), "--cohort", str(one_case_cohort), "--out", str(out),
                   "--modes", "mcdo", "--n-samples", "2", "--workers", "1"])
        assert rc == EXIT_PARTIAL
        assert "Traceback" not in capsys.readouterr().err
        _, rows = read_rows(out / "results.csv")
        assert len(rows) == 2 and {r["status"] for r in rows} == {"failed"}
        errors = json.loads((out / "cases" / "case_000.json").read_text())["mode_errors"]
        assert all("cutoff" in message for message in errors.values())

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(DRAWN_FIELDS), value=JSON_VALUES)
    @example(field="heatmap_sigma_mm", value=1.3407807929942597e154)  # sigma**2 overflows in the pipeline
    def test_any_config_value_exits_with_a_contract_code(self, one_case_cohort, tmp_path, capsys, field, value):
        capsys.readouterr()
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        cfg_path = work / "cfg.json"
        cfg_path.write_text(json.dumps({field: value}))
        rc = main(
            ["run", "--config", str(cfg_path), "--cohort", str(one_case_cohort), "--out", str(work / "out"),
             "--modes", "baseline,tta", "--n-samples", "2", "--workers", "1"]
        )
        err = capsys.readouterr().err
        assert rc in (0, 2, 3, 4), err
        assert "Traceback" not in err
        if rc in (2, 4):
            assert sum(line.startswith("error:") for line in err.splitlines()) == 1, err
