"""Every name a voxloc module exports exists, every name a module imports is used, and voxloc runs in one process."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import voxloc

# __main__ runs the command line when imported and exports nothing
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(voxloc.__path__, "voxloc.") if m.name != "voxloc.__main__"
)

SRC_DIR = Path(voxloc.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent
# the acceptance criteria are kept byte-for-byte as first written
FROZEN = {TESTS_DIR / "test_acceptance.py"}
SOURCES = sorted(
    path
    for root in (SRC_DIR, TESTS_DIR)
    for path in root.glob("*.py")
    if path not in FROZEN
)


@pytest.mark.parametrize("name", ["voxloc", *MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that the module neither reads nor lists in ``__all__``."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(set(imported) - used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def process_parallelism(tree: ast.Module) -> list[str]:
    """Imports of ``multiprocessing`` and every mention of ``ProcessPoolExecutor``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "multiprocessing"]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "multiprocessing":
                found.append(node.module)
            found += [alias.name for alias in node.names if alias.name == "ProcessPoolExecutor"]
        elif isinstance(node, ast.Name) and node.id == "ProcessPoolExecutor":
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr == "ProcessPoolExecutor":
            found.append(node.attr)
    return found


def test_one_process_one_parallelism_mechanism():
    # case workers are threads of one process, so a per-run trace or replay needs no cross-process merge
    found = {path.name: process_parallelism(ast.parse(path.read_text())) for path in sorted(SRC_DIR.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


LAYOUT_NAMES = {"__dict__", "_block", "_box"}


def layout_reads(tree: ast.Module) -> list[str]:
    """Attributes (or ``getattr`` names) that reach into how a volume holds its values."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT_NAMES:
            found.append(node.attr)
        elif isinstance(node, ast.Constant) and node.value in LAYOUT_NAMES:
            found.append(node.value)
    return found


def test_volume_layout_stays_in_volume_module():
    # other modules read a volume's held values as its ``block`` and ``support`` attributes,
    # never through its ``__dict__`` or a private name for them
    found = {
        path.name: layout_reads(ast.parse(path.read_text()))
        for path in sorted(SRC_DIR.glob("*.py"))
        if path.name != "volume.py"
    }
    assert {name: names for name, names in found.items() if names} == {}
    assert layout_reads(ast.parse((SRC_DIR / "volume.py").read_text()))  # the check sees the names it guards


def cached_property_uses(tree: ast.Module) -> list[str]:
    """Imports of ``functools.cached_property`` and every mention of the name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [alias.name for alias in node.names if alias.name == "cached_property"]
        elif isinstance(node, ast.Name) and node.id == "cached_property":
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr == "cached_property":
            found.append(node.attr)
    return found


def test_no_cached_property():
    # On Python 3.11 cached_property.__get__ takes one RLock per attribute, shared by every
    # instance, so case threads and sampler helpers would queue behind any first read of a
    # volume's grid; Volume3 builds data through its own lock-free descriptor
    found = {path.name: cached_property_uses(ast.parse(path.read_text())) for path in sorted(SRC_DIR.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
    assert cached_property_uses(ast.parse("import functools\nx = functools.cached_property"))  # the check sees a use


#: the modules that may find a nonzero box by scanning values: the definition, stage 1's
#: foreground mask and rigid_apply's full-grid warp; every other volume's support is its held box
SUPPORT_BOX_USERS = {"volume.py", "pipeline.py", "transforms.py"}


def support_box_mentions(tree: ast.Module) -> list[str]:
    """Every name, attribute or import alias that names ``support_box``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "support_box":
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr == "support_box":
            found.append(node.attr)
        elif isinstance(node, ast.alias) and node.name == "support_box":
            found.append(node.name)
        elif isinstance(node, ast.FunctionDef) and node.name == "support_box":
            found.append(node.name)
    return found


def test_support_box_named_only_where_values_are_scanned():
    found = {path.name: support_box_mentions(ast.parse(path.read_text())) for path in sorted(SRC_DIR.glob("*.py"))}
    assert {name for name, names in found.items() if names} <= SUPPORT_BOX_USERS
    assert all(found[name] for name in SUPPORT_BOX_USERS)  # the check sees the names it allows
    assert support_box_mentions(ast.parse("import voxloc.volume as vv\nvv.support_box(x)"))
