"""Every name a voxloc module exports exists."""

import importlib
import pkgutil

import pytest

import voxloc

# __main__ runs the command line when imported and exports nothing
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(voxloc.__path__, "voxloc.") if m.name != "voxloc.__main__"
)


@pytest.mark.parametrize("name", ["voxloc", *MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
