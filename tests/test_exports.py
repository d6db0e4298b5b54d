"""Every name a seqlab module exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import seqlab

NAMES = ["seqlab"] + [f"seqlab.{m.name}" for m in pkgutil.iter_modules(seqlab.__path__)]
EXPORTING = [n for n in NAMES if hasattr(importlib.import_module(n), "__all__")]


@pytest.mark.parametrize("module_name", EXPORTING)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
