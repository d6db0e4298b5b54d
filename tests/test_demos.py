"""Every demo script still imports against the library, and the fast ones run.

The demos only run under ``__main__``, so loading one by path executes its
imports and definitions: a demo that names a removed function fails here.
Demos that finish in seconds also run their ``main()`` end to end, so a
call the library no longer supports fails too; they write only to
temporary directories.  Demo 02 trains for about half a minute and is only
imported.
"""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
FAST_DEMOS = [
    "01_autodiff_basics",
    "03_coverage_repetition",
    "04_multitask_sharing",
    "05_beam_search_and_metrics",
]


def load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_loads(path):
    assert callable(load(path).main)


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(name, capsys):
    load(DEMOS[0].parent / f"{name}.py").main()
    assert capsys.readouterr().out.strip()
