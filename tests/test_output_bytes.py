"""The bytes of results.csv and analysis_long.csv on a fixed small cohort.

Design and performance changes are meant to keep ``results.csv``
byte-identical. This test pins that: it runs generate, run and analyze
on a 2-case 64³ cohort (one hard case that always fails, all four
modes, 4 samples, seed 7, one worker) and compares both files byte for
byte with the copies under ``tests/data/``. Every mode has 4 scored
rows, enough for the Tukey fence, so the flags are pinned too.

The stored bytes were written with numpy 2.4.6 and scipy 1.17.1; other
versions may round differently. A change that moves them on purpose
regenerates the files with ``PYTHONPATH=src python tests/test_output_bytes.py``
and says why in CHANGES.md.
"""

import sys
import tempfile
from pathlib import Path

from voxloc.experiment import EXIT_OK, ExperimentConfig, cmd_analyze, cmd_generate, cmd_run

DATA = Path(__file__).parent / "data"
PINNED = ("results.csv", "analysis_long.csv")


def run_small_experiment(root: Path) -> Path:
    """Generate, run and analyze the pinned cohort under root; returns the output directory."""
    cfg = ExperimentConfig(
        cohort_dir=str(root / "cohort"),
        out_dir=str(root / "out"),
        n_cases=2,
        n_hard=1,
        dims=(64, 64, 64),
        n_samples=4,
        hard_failure_rate=1.0,
        seed=7,
        workers=1,
    )
    assert cmd_generate(cfg) == EXIT_OK
    assert cmd_run(cfg) == EXIT_OK
    out = Path(cfg.out_dir)
    assert cmd_analyze(out / "results.csv", Path(cfg.cohort_dir) / "manifest.json", out) == EXIT_OK
    return out


def test_output_bytes_match_pinned_files(tmp_path):
    out = run_small_experiment(tmp_path)
    for name in PINNED:
        assert (out / name).read_bytes() == (DATA / name).read_bytes(), name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        out = run_small_experiment(Path(tmp))
        DATA.mkdir(exist_ok=True)
        for name in PINNED:
            (DATA / name).write_bytes((out / name).read_bytes())
            print(f"wrote {DATA / name}", file=sys.stderr)
