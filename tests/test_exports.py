"""Public surface: every exported name resolves, the CLI drives every verifier,
and every dense factorization stays behind bslab.dense."""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import bslab
from bslab import certlab, cli, dense

MODULES = ["bslab"] + [f"bslab.{m.name}" for m in pkgutil.iter_modules(bslab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_cli_table_ids_match_theorem_ids():
    assert tuple(cli.VERIFIERS) == certlab.THEOREM_IDS


def test_readme_verifier_table_lists_the_theorem_ids():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Verifiers and certificates", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1].strip() for line in section.splitlines() if line.startswith("| `")]
    assert tuple(row.strip("`") for row in rows) == certlab.THEOREM_IDS


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


SRC = Path(__file__).resolve().parents[1] / "src" / "bslab"
# the batched (n, n) site-block calls; np.linalg.norm is allowed everywhere
SITE_BLOCK_CALLS = {
    ("birman_schwinger", "half_potentials", "svd"),
    ("resolvent", "resolvent_multiplier", "inv"),
    ("potentials", "imaginary_potential", "eigvalsh"),
}


def _linalg_boundary_breaches(module: str, tree: ast.Module) -> list[str]:
    enclosing = {}  # node -> innermost enclosing function (ast.walk visits outer ones first)
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing.update((node, fn.name) for node in ast.walk(fn))
    breaches = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
            names = [prefix + a.name for a in node.names]
            breaches += [f"imports {n}" for n in names if n.startswith(("scipy.linalg", "numpy.linalg"))]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner, name = ast.unparse(node.func.value), node.func.attr
            where = enclosing.get(node, "<module>")
            if owner.startswith("scipy.linalg") or (
                owner in ("np.linalg", "numpy.linalg")
                and name != "norm"
                and (module, where, name) not in SITE_BLOCK_CALLS
            ):
                breaches.append(f"{where} calls {owner}.{name}")
    return breaches


def test_dense_factorizations_live_only_in_dense():
    # every dense factorization runs on scipy's LAPACK, behind bslab.dense
    breaches = {
        path.stem: found
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "dense"
        and (found := _linalg_boundary_breaches(path.stem, ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert breaches == {}


# the only callers of each bslab.dense function, by module and top-level def or
# class: a full decomposition added to a per-point path has to be listed here
DENSE_CALLERS = {
    "eigvals": {"spectra.eigensolve", "birman_schwinger.bs_residual"},
    "eigvalsh": {"spectra._FinePartner", "birman_schwinger.assemble_bs"},
    "eig": {"birman_schwinger.bs_eigenpair_near"},
    "nearest_eigenpair": {"spectra._FinePartner", "birman_schwinger.bs_eigenpair_near"},
    "eigenvectors_near": {"spectra._FinePartner"},
    "accepts_residual": {"spectra._FinePartner"},
    "logdet": {"birman_schwinger.regularized_det"},
    "hessenberg_logdet": {"birman_schwinger.bs_det_evaluator"},
    "svdvals": {"birman_schwinger.assemble_bs"},
}


def _dense_callers(module: str, tree: ast.Module) -> list[tuple[str, str]]:
    """(dense function, caller) for each ``dense.<name>`` reference in a module,
    plus ("<import>", ...) for every import of names out of bslab.dense."""
    found = []
    for top in tree.body:
        caller = f"{module}.{getattr(top, 'name', '<module>')}"
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "dense":
                found.append((node.attr, caller))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "dense":
                found.append(("<import>", caller))
    return found


def test_dense_functions_have_only_their_listed_callers():
    callers = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "dense":
            for name, caller in _dense_callers(path.stem, ast.parse(path.read_text(encoding="utf-8"))):
                callers.setdefault(name, set()).add(caller)
    assert callers == DENSE_CALLERS
    assert set(DENSE_CALLERS) == set(dense.__all__)


# the only callers of lattice.multiplier_matrix: a dense operator is built only
# where a factorization takes it
MULTIPLIER_MATRIX_CALLERS = {
    "birman_schwinger.bs_matrix",
    "birman_schwinger.bs_det_evaluator",
    "spectra._kinetic_matrix",
}


@lru_cache(maxsize=None)
def _top_level_names() -> dict[str, frozenset[str]]:
    """module.def -> the names and attributes that each top-level def or class in src reads."""
    names = {}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            user = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            names[user] = names.get(user, frozenset()) | {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute))
            }
    return names


def _top_level_users(name: str) -> set[str]:
    """module.def for every top-level def or class in src that names ``name``."""
    return {user for user, names in _top_level_names().items() if name in names}


def test_multiplier_matrix_has_only_its_listed_callers():
    assert _top_level_users("multiplier_matrix") == MULTIPLIER_MATRIX_CALLERS


def test_sandwich_gram_has_only_assemble_bs_as_caller():
    # the Fourier-side Gram matrix is the one route to M^H M: no second Gram path
    assert _top_level_users("sandwich_gram") == {"birman_schwinger.assemble_bs"}


def test_spectral_points_are_built_only_by_classify():
    # classify is the one labelling rule: every SpectralPoint in src comes out of it
    builders = {
        f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "SpectralPoint"
    }
    assert builders == {"spectra.classify"}


# the exported names that no top-level def in src uses but their own, and why
# each stays: a new export is wired into a caller or listed here with its reason
UNCALLED_EXPORTS = {
    "regularized_det": "oracle: det_n of an assembled M(z), against bs_det_evaluator",
    "det_bound_constant": "gate: criterion 7's bound log|det_n(I + M)| <= C_n ||M||_{S^n}^n",
    "bs_principle_check": "bench entry point: bs-contour's residual at each eigenvalue",
    "det_contour_roots": "bench entry point: bs-contour's root search",
    "write_potential_file": "file-format writer: the inverse of parse_potential_file",
    "factored_dirac_apply": "gate: criterion 2's factored Dirac resolvent",
    "kernel_array": "oracle: the resolvent kernel that R0 and M(z) are checked against",
}


def test_uncalled_exports_are_listed():
    uncalled = {
        name
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
        for name in importlib.import_module(f"bslab.{path.stem}").__all__
        if not _top_level_users(name) - {f"{path.stem}.{name}"}
    }
    assert uncalled == set(UNCALLED_EXPORTS)


ROOT = Path(__file__).resolve().parents[1]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _dataclass_fields(tree: ast.Module) -> list[str]:
    fields = []
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(
            ast.unparse(d).split("(")[0] in ("dataclass", "dataclasses.dataclass") for d in cls.decorator_list
        ):
            fields += [
                f"{cls.name}.{node.target.id}"
                for node in cls.body
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            ]
    return fields


def test_every_dataclass_field_has_a_reader():
    # matched by attribute name only: a field whose name is read elsewhere slips through
    readers = [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    read = {
        node.attr
        for path in readers
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [f for path in sorted(SRC.glob("*.py")) for f in _dataclass_fields(_parse(path))]
    assert fields
    assert [f for f in fields if f.split(".")[1] not in read] == []


def test_bench_workload_names_resolve():
    # bench/workloads.py calls bslab through module attributes (certlab.verify_main, ...)
    tree = _parse(ROOT / "bench" / "workloads.py")
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "bslab"
        for alias in node.names
    }
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert len(used) >= 13
    missing = [f"{mod}.{name}" for mod, name in sorted(used)
               if not hasattr(importlib.import_module(f"bslab.{mod}"), name)]
    assert missing == []


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        name
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }
    return sorted(bound - used - exported)


def test_every_import_is_used_or_exported():
    # an import that no expression reads and __all__ does not list is dead
    unused = {
        path.stem: found for path in sorted(SRC.glob("*.py")) if (found := _unused_imports(_parse(path)))
    }
    assert unused == {}
