"""The bytes of the cohort manifest and the run and analyze outputs on a fixed small cohort.

Design and performance changes are meant to keep ``results.csv``
byte-identical. This test pins that: it runs generate, run and analyze
on a 2-case 64³ cohort (one hard case that always fails, all four
modes, 4 samples, seed 7, one worker) and compares ``manifest.json``,
``results.csv``, ``analysis_long.csv`` and ``report.json`` byte for
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
# paths under the experiment root; the copies keep only the file name
PINNED = ("out/results.csv", "out/analysis_long.csv", "out/report.json", "cohort/manifest.json")


def run_small_experiment(root: Path) -> None:
    """Generate, run and analyze the pinned cohort under root."""
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


def test_output_bytes_match_pinned_files(tmp_path):
    run_small_experiment(tmp_path)
    for rel in PINNED:
        name = Path(rel).name
        assert (tmp_path / rel).read_bytes() == (DATA / name).read_bytes(), name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        run_small_experiment(Path(tmp))
        DATA.mkdir(exist_ok=True)
        for rel in PINNED:
            target = DATA / Path(rel).name
            target.write_bytes((Path(tmp) / rel).read_bytes())
            print(f"wrote {target}", file=sys.stderr)
