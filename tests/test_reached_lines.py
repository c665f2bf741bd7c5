"""The reached-line lister in ``tools/reached_lines.py``, run on perfbench's ``smoke`` workload."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "reached_lines.py"
spec = importlib.util.spec_from_file_location("reached_lines", TOOL)
reached_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reached_lines)


def body_lines(path: Path, name: str) -> list[int]:
    """Executable lines in the body of the module-level function ``name``, its docstring aside."""
    fn = next(node for node in ast.parse(path.read_text()).body if getattr(node, "name", None) == name)
    start = fn.body[1].lineno if isinstance(fn.body[0], ast.Expr) else fn.body[0].lineno
    return [line for line in reached_lines.executable(path) if start <= line <= fn.end_lineno]


def test_smoke_run_lists_wmse_and_not_config_hash(tmp_path):
    # the tool imports voxloc inside its trace, so it runs in a process of its own
    out = subprocess.run(
        [sys.executable, str(TOOL), "smoke"], cwd=tmp_path, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    listed = {line.split(": ", 1)[0] for line in out[:-1]}
    src = ROOT / "src" / "voxloc"
    # only the acceptance suite calls wmse; every run writes the config hash
    wmse = body_lines(src / "heatmap.py", "wmse")
    assert wmse and {f"heatmap.py:{n}" for n in wmse} <= listed
    config_hash = body_lines(src / "experiment.py", "config_hash")
    assert config_hash and not {f"experiment.py:{n}" for n in config_hash} & listed
    # write_cohort's case threads run every write_volume line
    write_volume = body_lines(src / "volume.py", "write_volume")
    assert write_volume and not {f"volume.py:{n}" for n in write_volume} & listed
    assert out[-1].endswith("executable lines not reached")
