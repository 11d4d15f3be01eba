"""Command-line shell: declarative experiment configs, verifiers, and reports.

The CLI is a thin layer over the library: a single JSON config file with
``operator`` / ``grid`` / ``potential`` / ``run`` blocks describes the whole
experiment, and no command-line flag can override physics parameters -- flags
choose only output paths and, with ``--verbose``, whether the ``bslab``
logger's DEBUG records reach stderr.  Certificates written by a run therefore
fully describe it, and a rerun of the same config and seed reproduces them
byte for byte (with ``--deterministic`` zeroing wall-clock fields).  The
verifiers of a run execute one after another in this process, inside one
:func:`spectra.spectrum_memo` scope that ``spectra.csv`` shares.

Exit codes: 0 when every certificate is PASS or REPORT-ONLY, 1 when some
certificate FAILs, 2 for configuration or validation errors (the message
names the offending config field path), 3 for compute failures (the message
names the command and job).  Each verifier's preflight runs on every listed
theorem before the first job starts, so regime errors never reach exit 3.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from .birman_schwinger import assemble_bs, bs_det_evaluator, schatten_norm
from .certlab import (
    FAIL,
    VERDICTS,
    BoundCertificate,
    RegimeError,
    Region,
    boundary_ray,
    certificate_json,
    fixed_argument_ray,
    preflight_imaginary,
    preflight_individual_bounds,
    preflight_main,
    preflight_schatten_scaling,
    preflight_uniform_resolvent,
    preflight_weighted_sums,
    run_jobs,
    schatten_ray_samples,
    summary_csv,
    verify_imaginary,
    verify_individual_bounds,
    verify_main,
    verify_schatten_scaling,
    verify_uniform_resolvent,
    verify_weighted_sums,
)
from .lattice import TorusGrid, dense_dim
from .potentials import (
    PotentialField,
    PotentialSpec,
    parse_potential_file,
    resample,
    sample_potential,
)
from .resolvent import lattice_levels
from .spectra import classified_spectrum, spectrum_csv, spectrum_memo
from .symbols import SymbolKind, SymbolSpec, critical_values

__all__ = ["ConfigError", "ExperimentConfig", "VERIFIERS", "load_config", "emit_report", "main"]

OUTPUT_DIR_ENV = "BSLAB_OUTPUT_DIR"


class ConfigError(Exception):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description."""

    spec: SymbolSpec
    grid: TorusGrid
    potential: PotentialField
    run: dict
    seed: int
    theorems: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# config loading


def _get_block(doc: dict, name: str, required: bool = True) -> dict:
    block = doc.get(name)
    if block is None:
        if required:
            raise ConfigError(name, "required block is missing")
        return {}
    if not isinstance(block, dict):
        raise ConfigError(name, "must be a JSON object")
    return block


def _number(path: str, val) -> float:
    """The config-number rule: a finite int or float that is not a bool.

    json.loads parses NaN and Infinity, and bool is an int subclass.
    """
    try:
        ok = not isinstance(val, bool) and isinstance(val, (int, float)) and math.isfinite(val)
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        raise ConfigError(path, "must be a finite number")
    return float(val)


def _coerce_param(key: str, value):
    for v in np.asarray(value, dtype=object).ravel():  # the numbers of nested lists
        _number(f"potential.params.{key}", v)
    # [re, im] pairs denote complex numbers everywhere except center points
    shape = np.shape(value)
    if key != "center" and shape == (2,):
        return complex(value[0], value[1])
    if key == "values" and len(shape) > 1 and shape[-1] == 2:  # a table of pairs
        pairs = np.asarray(value, dtype=float)
        return pairs[..., 0] + 1j * pairs[..., 1]
    return value


def _load_operator(doc: dict) -> SymbolSpec:
    block = _get_block(doc, "operator")
    kind_name = block.get("kind")
    try:
        kind = SymbolKind(kind_name)
    except ValueError:
        options = ", ".join(k.value for k in SymbolKind)
        raise ConfigError("operator.kind", f"unknown kind {kind_name!r}; options: {options}")
    d = block.get("d")
    if isinstance(d, bool) or not isinstance(d, int):
        raise ConfigError("operator.d", "must be an integer dimension")
    kwargs = {"kind": kind, "d": d}
    if "s" in block:
        kwargs["s"] = block["s"]
    try:
        return SymbolSpec(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError("operator", str(err))


def _load_grid(doc: dict, d: int) -> TorusGrid:
    block = _get_block(doc, "grid")
    try:
        return TorusGrid(d=d, N=block.get("N"), L=block.get("L"))
    except (TypeError, ValueError) as err:
        raise ConfigError("grid", str(err))


def _load_potential(doc: dict, grid: TorusGrid, config_dir: Path) -> PotentialField:
    block = _get_block(doc, "potential", required=False)
    if not block:
        return PotentialField(grid, np.zeros(grid.shape, dtype=complex))
    if "file" in block:
        if not isinstance(block["file"], str):
            raise ConfigError("potential.file", "must be a path string")
        path = Path(block["file"])
        if not path.is_absolute():
            path = config_dir / path
        try:
            fgrid, pspec = parse_potential_file(path)
            fld = sample_potential(pspec, fgrid)
            return fld if fgrid == grid else resample(fld, grid)
        except (OSError, ValueError) as err:  # a PotentialFormatError is a ValueError
            raise ConfigError("potential.file", str(err))
    family = block.get("family")
    raw = block.get("params", {})
    if not isinstance(raw, dict):
        raise ConfigError("potential.params", "must be a JSON object")
    params = {k: _coerce_param(k, v) for k, v in raw.items()}
    try:
        return sample_potential(PotentialSpec(family, params), grid)
    except (TypeError, ValueError) as err:
        raise ConfigError("potential", str(err))


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config; raises ConfigError."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as err:
        raise ConfigError(str(path), str(err))
    except json.JSONDecodeError as err:
        raise ConfigError(str(path), f"not valid JSON: {err}")
    if not isinstance(doc, dict):
        raise ConfigError(str(path), "top level must be a JSON object")
    spec = _load_operator(doc)
    grid = _load_grid(doc, spec.d)
    potential = _load_potential(doc, grid, path.parent)
    run = _get_block(doc, "run", required=False)
    seed = run.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("run.seed", "must be a nonnegative integer")
    theorems = run.get("theorems", [])
    if not isinstance(theorems, list) or not all(isinstance(t, str) for t in theorems):
        raise ConfigError("run.theorems", "must be a list of theorem ids")
    for t in theorems:
        if t not in VERIFIERS:
            raise ConfigError("run.theorems", f"unknown id {t!r}; options: {tuple(VERIFIERS)}")
    if len(set(theorems)) != len(theorems):
        raise ConfigError("run.theorems", "theorem ids must be unique")
    return ExperimentConfig(
        spec=spec,
        grid=grid,
        potential=potential,
        run=run,
        seed=seed,
        theorems=theorems,
    )


# ---------------------------------------------------------------------------
# verifier table


def _as_number(key: str, val) -> float:
    return _number(f"run.{key}", val)


def _as_region(key: str, block) -> Region:
    if not isinstance(block, dict):
        raise ConfigError(f"run.{key}", "must be a JSON object")
    shape = block.get("shape", "rectangle")
    if shape != "rectangle":
        raise ConfigError(f"run.{key}.shape", f"unknown region shape {shape!r}; K is a rectangle")
    bounds = block.get("bounds", [])
    for v in np.asarray(bounds, dtype=object).ravel():
        _number(f"run.{key}.bounds", v)
    clearance = block.get("clearance", 0.1)
    _number(f"run.{key}.clearance", clearance)
    try:
        return Region(bounds=tuple(bounds), clearance=clearance)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"run.{key}", str(err))


# ray type -> (builder, the numeric fields it takes before count)
_RAYS = {
    "fixed_argument": (fixed_argument_ray, ("theta", "r_lo", "r_hi")),
    "boundary": (boundary_ray, ("re_lo", "re_hi", "height")),
}


def _as_ray(key: str, block) -> list[complex]:
    if not isinstance(block, dict):
        raise ConfigError(f"run.{key}", "must be a JSON object")
    kind = block.get("type")
    if kind not in _RAYS:
        raise ConfigError(f"run.{key}.type", f"unknown ray type {kind!r}; options: {', '.join(_RAYS)}")
    build, names = _RAYS[kind]
    missing = [name for name in names if name not in block]
    if missing:
        raise ConfigError(f"run.{key}", f"missing field {missing[0]!r} for type {kind!r}")
    args = [_as_number(f"{key}.{name}", block[name]) for name in names]
    count = block.get("count", 9)
    if isinstance(count, bool) or not isinstance(count, int):
        raise ConfigError(f"run.{key}.count", "must be an integer")
    try:
        return build(*args, count)
    except ValueError as err:
        raise ConfigError(f"run.{key}", str(err))


# run-block key -> (reader, default); a _REQUIRED default makes the key mandatory
_REQUIRED = object()
_RUN_KEYS = {
    "q": (_as_number, _REQUIRED),
    "eps": (_as_number, _REQUIRED),
    "region": (_as_region, _REQUIRED),
    "ray": (_as_ray, _REQUIRED),
    "p": (_as_number, None),
    "alpha": (_as_number, None),
    "t_max": (_as_number, 32.0),
    "variant": (lambda key, val: val, "auto"),
}


def _run_value(cfg: ExperimentConfig, key: str, user: str):
    reader, default = _RUN_KEYS[key]
    val = cfg.run.get(key)
    if val is None:
        if default is _REQUIRED:
            raise ConfigError(f"run.{key}", f"required by verifier {user!r}")
        return default
    return reader(key, val)


@dataclass(frozen=True)
class Verifier:
    """How the CLI drives one certlab verifier.

    ``preflight`` and ``run`` take the namespace built from ``keys`` (plus
    spec, grid, V and seed).  They name the certlab functions inside their
    bodies, so the module globals are looked up at call time.  ``series``
    is (name, x key, y key) of the curve ``plot_data_csv`` reads from the
    certificate inputs; x values enter as moduli.
    """

    keys: tuple[str, ...]
    preflight: Callable[[SimpleNamespace], None]
    run: Callable[[SimpleNamespace], BoundCertificate]
    series: Optional[tuple[str, str, str]] = None


VERIFIERS = {
    "main": Verifier(
        keys=("q", "region", "t_max"),
        preflight=lambda a: preflight_main(a.spec, a.grid, a.region, a.q, a.t_max),
        run=lambda a: verify_main(a.spec, a.grid, a.V, a.region, a.q, t_max=a.t_max, seed=a.seed),
    ),
    "uniform-resolvent": Verifier(
        keys=("region", "p"),
        preflight=lambda a: preflight_uniform_resolvent(a.spec, a.grid, a.region, a.p),
        run=lambda a: verify_uniform_resolvent(a.spec, a.grid, a.region, a.p, seed=a.seed),
        series=("resolvent-norm", "scan_points", "scan_values"),
    ),
    "schatten-scaling": Verifier(
        keys=("q", "ray"),
        preflight=lambda a: preflight_schatten_scaling(a.spec, a.grid, a.q, a.ray, a.V),
        run=lambda a: verify_schatten_scaling(a.spec, a.grid, a.q, a.ray, a.V, seed=a.seed),
        series=("schatten-norm", "ray", "measured"),
    ),
    "individual-bounds": Verifier(
        keys=("q",),
        preflight=lambda a: preflight_individual_bounds(a.spec, a.grid, a.q),
        run=lambda a: verify_individual_bounds(a.spec, a.grid, a.V, a.q, seed=a.seed),
    ),
    "imaginary": Verifier(
        keys=("q",),
        # the potential block is W, and the verifier runs V = iW
        preflight=lambda a: preflight_imaginary(a.spec, a.V, a.q),
        run=lambda a: verify_imaginary(a.spec, a.V, a.q, seed=a.seed),
    ),
    "weighted-sums": Verifier(
        keys=("q", "eps", "alpha", "variant"),
        preflight=lambda a: preflight_weighted_sums(
            a.spec, a.grid, a.q, a.alpha, a.eps, a.variant
        ),
        run=lambda a: verify_weighted_sums(
            a.spec, a.grid, a.V, a.q, a.alpha, a.eps, variant=a.variant, seed=a.seed
        ),
        series=("weighted-sum", "vnorms", "sums"),
    ),
}

# RegimeError.param -> config path, where it is not the run-block key of that name
_PARAM_PATHS = {"kind": "operator.kind", "s": "operator.s", "potential": "potential", "grid": "grid"}


def _verifier_args(cfg: ExperimentConfig, thm: str) -> SimpleNamespace:
    """Read the verifier's run keys and preflight them; raises ConfigError."""
    entry = VERIFIERS[thm]
    a = SimpleNamespace(spec=cfg.spec, grid=cfg.grid, V=cfg.potential, seed=cfg.seed)
    for key in entry.keys:
        setattr(a, key, _run_value(cfg, key, thm))
    try:
        entry.preflight(a)
    except RegimeError as err:
        raise ConfigError(_PARAM_PATHS.get(err.param, f"run.{err.param}"), str(err))
    return a


# ---------------------------------------------------------------------------
# artifacts


def _artifact_dir(out_root: Optional[str]) -> Path:
    root = Path(out_root or os.environ.get(OUTPUT_DIR_ENV) or "runs")
    base = time.strftime("run-%Y%m%d-%H%M%S")
    path = root / base
    k = 2
    while path.exists():
        path = root / f"{base}-{k}"
        k += 1
    path.mkdir(parents=True)
    return path


def plot_data_csv(certs: Sequence[BoundCertificate]) -> Optional[str]:
    """Long-format curve data (series, x, y) extracted from certificate inputs."""
    rows = []
    for c in certs:
        series = VERIFIERS[c.theorem].series
        if series is None or series[2] not in c.inputs:
            continue
        name, x_key, y_key = series
        for x, y in zip(c.inputs[x_key], c.inputs[y_key]):
            rows.append((name, abs(complex(x)), y))
    if not rows:
        return None
    lines = ["series,x,y"] + [f"{s},{x!r},{y!r}" for s, x, y in rows]
    return "\n".join(lines) + "\n"


def emit_report(certs: Sequence[BoundCertificate], dest: Path) -> Path:
    """Write the markdown summary ``report.md`` of a run; returns its path."""
    if not certs:
        raise ValueError("cannot report on an empty certificate list")
    path = dest / "report.md"
    lines = [
        "| theorem | verdict | lhs | rhs | constant |",
        "| --- | --- | --- | --- | --- |",
    ]
    for c in certs:
        rhs = "" if c.rhs is None else f"{c.rhs:.6g}"
        const = "" if c.constant is None else f"{c.constant:.6g}"
        lines.append(f"| {c.theorem} | {c.verdict} | {c.lhs:.6g} | {rhs} | {const} |")
    counts = Counter(c.verdict for c in certs)
    lines.append("")
    lines.append(f"{len(certs)} certificates: " + ", ".join(f"{counts[v]} {v}" for v in VERDICTS))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _check_dense_grid(cfg: ExperimentConfig) -> None:
    """spectra.csv solves H densely on the configured grid: exit 2 at grid before any compute."""
    try:
        dense_dim(cfg.grid, cfg.spec.n)
    except ValueError as err:
        raise ConfigError("grid", str(err))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_symbols(cfg: ExperimentConfig, args) -> int:
    levels = lattice_levels(cfg.spec, cfg.grid)
    doc = {
        "kind": cfg.spec.kind.value,
        "d": cfg.spec.d,
        "s": cfg.spec.s,
        "spinor_dim": cfg.spec.n,
        "critical_values": [[z.real, z.imag] for z in critical_values(cfg.spec)],
        "dispersion_min": float(levels[0]),
        "dispersion_max": float(levels[-1]),
        "grid": {"d": cfg.grid.d, "N": cfg.grid.N, "L": cfg.grid.L},
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_spectrum(cfg: ExperimentConfig, args) -> int:
    _check_dense_grid(cfg)
    points = classified_spectrum(cfg.spec, cfg.grid, cfg.potential)
    dest = _artifact_dir(args.out)
    path = dest / "spectra.csv"
    spectrum_csv(points, path)
    labels = Counter(p.label.value for p in points)
    tally = ", ".join(f"{k}: {v}" for k, v in sorted(labels.items()))
    print(f"{len(points)} spectral points ({tally})")
    print(f"wrote {path}")
    return 0


def _cmd_bs(cfg: ExperimentConfig, args) -> int:
    """Per-point table of the schatten-scaling fit: its run keys, preflight and samples."""
    a = _verifier_args(cfg, "schatten-scaling")
    alpha, samples = schatten_ray_samples(cfg.spec, cfg.grid, a.q, a.ray, cfg.potential)
    order = max(2, math.ceil(alpha))
    dets = {}  # one evaluator per sample grid: a co-rescaled fit has one grid per point
    lines = ["re,im,sigma1,schatten,det_log_abs,det_phase"]
    for z, grid, V in samples:
        if grid not in dets:
            dets[grid] = bs_det_evaluator(cfg.spec, grid, V, order)
        sv = assemble_bs(cfg.spec, grid, V, z, alpha)
        dv = dets[grid](z)
        row = (z.real, z.imag, float(sv[0]), schatten_norm(sv, alpha), dv.log_abs, dv.phase)
        lines.append(",".join(map(repr, row)))
    dest = _artifact_dir(args.out)
    path = dest / "bs-scan.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"scanned {len(samples)} contour points (Schatten order {alpha:g}, det order {order})")
    print(f"wrote {path}")
    return 0


def _run_verifiers(cfg: ExperimentConfig, theorems: list[str], args, with_spectra: bool) -> int:
    jobs = {thm: partial(VERIFIERS[thm].run, _verifier_args(cfg, thm)) for thm in theorems}
    # one memo for the run: the verifiers and spectra.csv solve each coupling once
    with spectrum_memo():
        certs = run_jobs(jobs)
        points = classified_spectrum(cfg.spec, cfg.grid, cfg.potential) if with_spectra else None
    dest = _artifact_dir(args.out)
    for cert in certs:
        doc = certificate_json(cert, deterministic=args.deterministic)
        path = dest / f"certificate-{cert.theorem}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (dest / "summary.csv").write_text(
        summary_csv(certs, deterministic=args.deterministic), encoding="utf-8"
    )
    if points is not None:
        spectrum_csv(points, dest / "spectra.csv")
    curves = plot_data_csv(certs)
    if curves is not None:
        (dest / "plot-data.csv").write_text(curves, encoding="utf-8")
    emit_report(certs, dest)
    for cert in certs:
        print(f"{cert.theorem}: {cert.verdict} (lhs={cert.lhs:.6g})")
    print(f"wrote {dest}")
    return 1 if any(c.verdict == FAIL for c in certs) else 0


def _cmd_verify(cfg: ExperimentConfig, args) -> int:
    return _run_verifiers(cfg, [args.theorem], args, with_spectra=False)


def _cmd_scan(cfg: ExperimentConfig, args) -> int:
    if not cfg.theorems:
        raise ConfigError("run.theorems", "a scan needs at least one theorem id")
    _check_dense_grid(cfg)
    return _run_verifiers(cfg, cfg.theorems, args, with_spectra=True)


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bslab",
        description="Spectral experiments on periodic grids, driven by a JSON config.",
    )
    parser.add_argument("--verbose", action="store_true", help="write the bslab logger's DEBUG records to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, reports=False):
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", default=None, help=f"output root (default ${OUTPUT_DIR_ENV} or ./runs)")
        if reports:
            p.add_argument("--deterministic", action="store_true",
                           help="zero wall-clock fields so reruns compare byte for byte")

    common(sub.add_parser("symbols", help="print the symbol and critical-value table"))
    common(sub.add_parser("spectrum", help="eigensolve, classify, and write spectra CSV"))
    common(sub.add_parser("bs", help="per-point sigma_1, Schatten and det table of the schatten-scaling fit"))
    p_verify = sub.add_parser("verify", help="run one verifier and write its certificate")
    p_verify.add_argument("theorem", choices=tuple(VERIFIERS))
    common(p_verify, reports=True)
    common(sub.add_parser("scan", help="run every verifier listed in the config"), reports=True)
    return parser


_HANDLERS = {
    "symbols": _cmd_symbols,
    "spectrum": _cmd_spectrum,
    "bs": _cmd_bs,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
}


@contextmanager
def _debug_to_stderr():
    """Every record of the ``bslab`` logger, DEBUG and up, on stderr while the scope is open."""
    logger = logging.getLogger("bslab")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    with _debug_to_stderr() if args.verbose else nullcontext():
        try:
            cfg = load_config(args.config)
            return _HANDLERS[args.command](cfg, args)
        except ConfigError as err:
            print(f"config error at {err}", file=sys.stderr)
            return 2
        except (np.linalg.LinAlgError, RuntimeError, OSError) as err:  # LinAlgError is a ValueError
            print(f"compute failure in {args.command}: {err}", file=sys.stderr)
            return 3
        except ValueError as err:
            print(f"config error: {err}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
