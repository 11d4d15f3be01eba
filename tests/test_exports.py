"""Public surface: every exported name resolves, and the CLI drives every verifier."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import bslab
from bslab import certlab, cli

MODULES = ["bslab"] + [f"bslab.{m.name}" for m in pkgutil.iter_modules(bslab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_cli_table_ids_match_theorem_ids():
    assert tuple(cli.VERIFIERS) == certlab.THEOREM_IDS


def test_bench_tracer_layers_resolve(monkeypatch):
    # bench/tracer.py wraps each LAYERS entry by name; a missing one breaks --trace 1
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_tracer", tracer)
    spec.loader.exec_module(tracer)
    missing = [
        f"{mod}.{fn}"
        for mod, fn, _ in tracer.LAYERS
        if not callable(getattr(importlib.import_module(f"bslab.{mod}"), fn, None))
    ]
    assert tracer.LAYERS
    assert missing == []
