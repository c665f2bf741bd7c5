"""The in-process A/B timer in ``tools/ab_commands.py``, run on perfbench's ``smoke`` workload."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_commands.py"


def smoke_pair(tmp_path, *args) -> list[str]:
    """The tool's output lines for one pair of one call each on the ``smoke`` workload, run in ``tmp_path``."""
    return subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload", "smoke", "--pairs", "1", "--reps", "1", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()


def test_smoke_pair_of_one_checkout_agrees(tmp_path):
    out = smoke_pair(tmp_path)
    assert len(out) == 4, out
    # both sides ran the same code on the same cohort, so they wrote the same results.csv
    digests = re.findall(r"MiB ([0-9a-f]{8})", out[0])
    assert out[0].startswith("pair 1 (parent first): ") and len(digests) == 2 and digests[0] == digests[1]
    # each side's median minor page faults per call follow its digest
    faults = re.findall(r"MiB [0-9a-f]{8} (\d+) minflt(?:,|$)", out[0])
    assert len(faults) == 2 and all(int(f) > 0 for f in faults)
    assert out[1].startswith("parent: median ") and out[2].startswith("change: median ")
    assert re.fullmatch(r"change faster in [01] of 1 pairs", out[3])
    assert list(tmp_path.iterdir()) == []  # the cohort and outputs went to a temporary directory


def test_generate_pair_writes_the_same_cohort(tmp_path):
    out = smoke_pair(tmp_path, "--command", "generate")
    assert len(out) == 4, out
    # both sides wrote the smoke cohort: the digest covers every cohort file, path and bytes
    digests = re.findall(r"MiB ([0-9a-f]{8})", out[0])
    assert out[0].startswith("pair 1 (parent first): ") and len(digests) == 2 and digests[0] == digests[1]
    assert re.fullmatch(r"change faster in [01] of 1 pairs", out[3])
    assert list(tmp_path.iterdir()) == []
