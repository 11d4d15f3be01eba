"""Public surface: every exported name resolves, and the CLI drives every verifier."""

import importlib
import pkgutil

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
