"""CLI subcommands, config validation, exit codes, and report artifacts."""

import csv
import hashlib
import json
import logging
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bslab import certlab, cli, dense
from bslab.birman_schwinger import bs_det_evaluator, bs_matrix, schatten_norm
from bslab.certlab import (
    BoundCertificate,
    Region,
    certificate_json,
    schatten_ray_samples,
    verify_main,
    verify_weighted_sums,
)
from bslab.cli import ConfigError, emit_report, load_config, main as cli_main
from bslab.lattice import TorusGrid
from bslab.potentials import PotentialSpec, potential_norm, write_potential_file


def base_config(**overrides):
    doc = {
        "operator": {"kind": "fractional_laplacian", "d": 1, "s": 1.5},
        "grid": {"N": 32, "L": 20.0},
        "potential": {
            "family": "gaussian",
            "params": {"amplitude": [-4.0, 0.0], "width": 1.0},
        },
        "run": {
            "seed": 0,
            "q": 1.0,
            "eps": 0.5,
            "theorems": ["schatten-scaling", "weighted-sums"],
            "region": {
                "shape": "rectangle",
                "bounds": [-6.0, -0.05, -0.4, 0.4],
                "clearance": 0.04,
            },
            "ray": {
                "type": "fixed_argument",
                "theta": math.pi,
                "r_lo": 0.5,
                "r_hi": 8.0,
                "count": 9,
            },
        },
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(doc.get(key), dict):
            doc[key].update(val)
        else:
            doc[key] = val
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_dirs(out_root):
    return sorted(p for p in out_root.iterdir() if p.name.startswith("run-"))


# ---------------------------------------------------------------------------
# config loading


def test_load_config_builds_grid_and_potential(tmp_path):
    cfg = load_config(write_config(tmp_path, base_config()))
    assert cfg.spec.s == 1.5 and cfg.grid.N == 32 and cfg.grid.L == 20.0
    assert cfg.potential.values.min().real < -3.9  # the well is materialized
    assert cfg.theorems == ["schatten-scaling", "weighted-sums"]


def test_load_config_field_errors(tmp_path):
    cases = [
        ({"operator": None}, "operator"),
        (base_config(operator={"kind": "heat_semigroup", "d": 1}), "operator.kind"),
        (base_config(operator={"kind": "fractional_laplacian", "d": "one"}), "operator.d"),
        (base_config(run={"theorems": ["schatten-scaling", "nope"]}), "run.theorems"),
        (base_config(run={"seed": 0.5}), "run.seed"),
        (base_config(run={"seed": True}), "run.seed"),
        (base_config(run={"seed": -1}), "run.seed"),
        (base_config(grid={"L": True}), "grid"),
        (base_config(operator={"kind": "fractional_laplacian", "d": True, "s": 1.5}), "operator.d"),
        (base_config(grid={"N": 32.0}), "grid"),
        (base_config(operator={"kind": "fractional_laplacian", "d": 1, "s": "1.5"}), "operator"),
        (base_config(operator={"kind": "fractional_laplacian", "d": 1, "s": True}), "operator"),
        (base_config(potential={"params": [1, 2]}), "potential.params"),
        (base_config(potential={"file": 5}), "potential.file"),
    ]
    for doc, path in cases:
        if doc.get("operator") is None:
            doc = {k: v for k, v in base_config().items() if k != "operator"}
        with pytest.raises(ConfigError) as einfo:
            load_config(write_config(tmp_path, doc))
        assert einfo.value.path == path, (path, str(einfo.value))


def test_potential_file_reference_resolves_relative(tmp_path):
    grid = TorusGrid(1, 32, 20.0)
    spec = PotentialSpec("gaussian", {"amplitude": complex(-4.0, 0.0), "width": 1.0})
    write_potential_file(tmp_path / "well.pot", grid, spec)
    doc = base_config(potential={"file": "well.pot"})
    doc["potential"].pop("family", None)
    doc["potential"].pop("params", None)
    cfg = load_config(write_config(tmp_path, doc))
    assert cfg.potential.values.min().real < -3.9


def test_table_values_as_re_im_pairs_load_like_a_values_file(tmp_path):
    grid = TorusGrid(1, 8, 4.0)
    values = np.array([-1.0 + 0.5j, 0.0, 0.25j, 2.0, -0.5 - 0.5j, 0.0, 1.0, 0.0])
    write_potential_file(
        tmp_path / "table.pot", grid, PotentialSpec("table", {"d": 1, "N": 8, "L": 4.0, "values": values})
    )
    doc = base_config(grid={"N": 8, "L": 4.0}, potential={"file": "table.pot"})
    from_file = load_config(write_config(tmp_path, doc))
    params = {"d": 1, "N": 8, "L": 4.0, "values": [[v.real, v.imag] for v in values]}
    doc = base_config(grid={"N": 8, "L": 4.0}, potential={"family": "table", "params": params})
    from_pairs = load_config(write_config(tmp_path, doc, name="pairs.json"))
    assert np.array_equal(from_pairs.potential.values, from_file.potential.values)
    assert np.array_equal(from_pairs.potential.values, values)


def test_potential_file_grid_mismatch_is_config_error(tmp_path):
    write_potential_file(
        tmp_path / "well.pot",
        TorusGrid(1, 32, 10.0),
        PotentialSpec("gaussian", {"amplitude": complex(-4.0, 0.0), "width": 1.0}),
    )
    doc = base_config(potential={"file": "well.pot"})
    doc["potential"].pop("family", None)
    doc["potential"].pop("params", None)
    with pytest.raises(ConfigError) as einfo:
        load_config(write_config(tmp_path, doc))
    assert einfo.value.path == "potential.file"


def test_potential_file_box_must_equal_the_grid_box_exactly(tmp_path, capsys):
    # the same-box rule of resample and of the potential check, with no tolerance
    write_potential_file(
        tmp_path / "well.pot",
        TorusGrid(1, 32, 20.000000000001),
        PotentialSpec("gaussian", {"amplitude": complex(-4.0, 0.0), "width": 1.0}),
    )
    doc = base_config(potential={"file": "well.pot"})
    doc["potential"].pop("family", None)
    doc["potential"].pop("params", None)
    cfg = write_config(tmp_path, doc)
    for cmd in ("spectrum", "scan"):
        assert cli_main([cmd, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error at potential.file:")


@pytest.mark.parametrize(
    "body, key",
    [
        ("family gaussian\namplitude -4\nwidth nan\n", "width"),
        ("family gaussian\namplitude (nan+0j)\nwidth 1.0\n", "amplitude"),
        ("values\n" + "0 " * 60 + "nan -inf 0 0\n", "values"),
    ],
)
def test_potential_file_with_a_non_finite_number_is_config_error(tmp_path, capfd, body, key):
    # NaN and Inf are refused at load, before any LAPACK call can see them
    (tmp_path / "well.pot").write_text(f"d 1\nN 64\nL 20.0\n{body}", encoding="utf-8")
    doc = base_config(grid={"N": 64}, potential={"file": "well.pot"})
    doc["potential"].pop("family", None)
    doc["potential"].pop("params", None)
    out = tmp_path / "out"
    assert cli_main(["spectrum", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    captured = capfd.readouterr()
    assert captured.err == f"config error at potential.file: potential.{key}: must be a finite number" + (
        " ('nan' on line 5)\n" if key == "values" else "\n"
    )
    assert captured.out == ""  # LAPACK's xerbla reports an illegal value on stdout
    assert not out.exists() or run_dirs(out) == []


@pytest.mark.parametrize("key, value", [("seed", 1.5), ("modes", 8.9)])
def test_random_seeded_integers_are_checked_in_configs_and_files(tmp_path, capsys, key, value):
    # both were truncated before: a config's 1.5 loaded as seed 1, and a file's
    # '1.5' failed in int() with a message that named no key
    params = {"amplitude": [1.0, 0.0], "seed": 3, "modes": 8, key: value}
    (tmp_path / "random.pot").write_text(
        "d 1\nN 32\nL 20.0\nfamily random_seeded\namplitude 1.0\n"
        + "".join(f"{k} {v}\n" for k, v in params.items() if k != "amplitude"),
        encoding="utf-8",
    )
    for potential, path in (
        ({"family": "random_seeded", "params": params}, "potential"),
        ({"file": "random.pot"}, "potential.file"),
    ):
        out = tmp_path / "out"
        doc = base_config(potential=potential)
        assert cli_main(["spectrum", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error at {path}: potential.{key}: must be an integer\n"
        assert not out.exists()


def test_potential_file_upsamples_onto_finer_config_grid(tmp_path):
    write_potential_file(
        tmp_path / "well.pot",
        TorusGrid(1, 16, 20.0),
        PotentialSpec("gaussian", {"amplitude": complex(-4.0, 0.0), "width": 1.0}),
    )
    doc = base_config(potential={"file": "well.pot"})
    doc["potential"].pop("family", None)
    doc["potential"].pop("params", None)
    cfg = load_config(write_config(tmp_path, doc))
    assert cfg.potential.grid.N == 32


# ---------------------------------------------------------------------------
# subcommands


def test_symbols_prints_table(tmp_path, capsys):
    rc = cli_main(["symbols", "--config", write_config(tmp_path, base_config())])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "fractional_laplacian"
    assert doc["critical_values"] == [[0.0, 0.0]]
    assert doc["dispersion_min"] == 0.0 and doc["dispersion_max"] > 0.0
    assert doc["grid"] == {"d": 1, "N": 32, "L": 20.0}


def test_spectrum_writes_classified_csv(tmp_path):
    out = tmp_path / "runs"
    rc = cli_main([
        "spectrum", "--config", write_config(tmp_path, base_config()), "--out", str(out),
    ])
    assert rc == 0
    (run_dir,) = run_dirs(out)
    lines = (run_dir / "spectra.csv").read_text().strip().splitlines()
    assert lines[0] == "re,im,dist_sigma,drift,label,cond"
    assert len(lines) == 1 + 32
    labels = {row.split(",")[4] for row in lines[1:]}
    assert "Discrete" in labels  # the deep well binds eigenvalues


def test_spectrum_drift_is_nan_for_artifacts_and_small_for_discrete(tmp_path):
    out = tmp_path / "runs"
    rc = cli_main(["spectrum", "--config", write_config(tmp_path, base_config()), "--out", str(out)])
    assert rc == 0
    (run_dir,) = run_dirs(out)
    with open(run_dir / "spectra.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    artifact = [float(r["drift"]) for r in rows if r["label"] == "ContinuumArtifact"]
    discrete = [float(r["drift"]) for r in rows if r["label"] == "Discrete"]
    assert artifact and all(math.isnan(x) for x in artifact)
    assert discrete and all(math.isfinite(x) and x < 0.1 for x in discrete)


def test_spectrum_without_refinement_leaves_points_undecided(tmp_path, caplog):
    # 2N = 20 exceeds the d=3 cap 16: no refinement pair, so no drift to classify by;
    # the artifact band keeps its labels and every point beyond eta is Undecided
    doc = base_config(operator={"kind": "fractional_laplacian", "d": 3, "s": 1.5}, grid={"N": 10, "L": 8.0})
    out = tmp_path / "runs"
    with caplog.at_level(logging.WARNING, logger="bslab"):
        rc = cli_main(["spectrum", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert rc == 0
    (warning,) = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert warning.name == "bslab"
    assert warning.getMessage().startswith("no N -> 2N refinement pair (")
    (run_dir,) = run_dirs(out)
    rows = (run_dir / "spectra.csv").read_text().strip().splitlines()[1:]
    labels = [row.split(",")[4] for row in rows]
    assert set(labels) == {"ContinuumArtifact", "Undecided"}
    assert len(rows) == 1000
    assert all(row.split(",")[3] == "nan" for row in rows)


def dirac2d_config():
    """Massless Dirac in d=2 (dim 128): s = 1 < 2d/(d+1), so a fixed-grid fit at order 3."""
    doc = base_config(
        grid={"N": 8, "L": 4.8},
        run={"ray": {"type": "boundary", "re_lo": 1.0, "re_hi": 3.0, "height": 0.2, "count": 9}},
    )
    doc["operator"] = {"kind": "dirac_massless", "d": 2}
    return doc


# the co-rescaled fit (fractional d=1, order 2) and a fixed-grid fit (Dirac d=2, order 3)
BS_FITS = pytest.mark.parametrize(
    "doc, order", [(base_config(), 2), (dirac2d_config(), 3)], ids=["co-rescaled", "fixed-grid"]
)


def fit_samples(path):
    """The config at path and the (z, grid, V) samples of its schatten-scaling fit."""
    cfg = load_config(path)
    a = cli._verifier_args(cfg, "schatten-scaling")
    return cfg, schatten_ray_samples(cfg.spec, cfg.grid, a.q, a.ray, cfg.potential)[1]


def bs_scan_rows(tmp_path, doc):
    """Run ``bslab bs`` on doc; returns its config path and the float rows of bs-scan.csv."""
    path = write_config(tmp_path, doc)
    out = tmp_path / "runs"
    assert cli_main(["bs", "--config", path, "--out", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    lines = (run_dir / "bs-scan.csv").read_text().strip().splitlines()
    assert lines[0] == "re,im,sigma1,schatten,det_log_abs,det_phase"
    return path, [tuple(map(float, row.split(","))) for row in lines[1:]]


def test_bs_scan_writes_contour_csv(tmp_path):
    _, rows = bs_scan_rows(tmp_path, base_config())
    assert len(rows) == 9
    # co-rescaling makes M(z) on each sample unitarily equivalent to M at the first point
    sig1 = [row[2] for row in rows]
    assert max(abs(v - sig1[0]) for v in sig1) <= 1e-12 * sig1[0]


@BS_FITS
def test_bs_scan_det_columns_match_the_evaluator(tmp_path, doc, order):
    path, rows = bs_scan_rows(tmp_path, doc)
    cfg, samples = fit_samples(path)
    for (z, grid, V), (re_, im, _, _, log_abs, phase) in zip(samples, rows, strict=True):
        assert complex(re_, im) == z
        dv = bs_det_evaluator(cfg.spec, grid, V, order)(z)
        assert log_abs == dv.log_abs
        assert abs(math.remainder(phase - dv.phase, 2.0 * math.pi)) <= 1e-12


def test_bs_scan_schatten_column_above_two_matches_zgesdd(tmp_path):
    # alpha = 3 takes the Gram route; zgesdd's singular values are the oracle
    path, rows = bs_scan_rows(tmp_path, dirac2d_config())
    cfg = load_config(path)
    for re_, im, _, snorm, _, _ in rows:
        M = bs_matrix(cfg.spec, cfg.grid, cfg.potential, complex(re_, im))
        ref = schatten_norm(dense.svdvals(M), 3.0)
        assert abs(snorm - ref) <= 1e-12 * ref


@BS_FITS
def test_bs_scan_schatten_over_the_potential_norm_is_the_fit_measure(tmp_path, doc, order):
    path, rows = bs_scan_rows(tmp_path, doc)
    out = tmp_path / "verify"
    assert cli_main(["verify", "schatten-scaling", "--config", path, "--out", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    inputs = json.loads((run_dir / "certificate-schatten-scaling.json").read_text())["inputs"]
    cfg, samples = fit_samples(path)
    d, s, q = cfg.spec.d, cfg.spec.s, inputs["q"]
    for (_, _, V), row, want in zip(samples, rows, inputs["measured"], strict=True):
        if inputs["co_rescaled"]:
            vnorm = potential_norm(V, q)
        else:
            vnorm = max(potential_norm(V, d / s), potential_norm(V, (d + 1) / 2.0))
        assert row[3] / vnorm == want


def test_bs_scan_ignores_run_alpha(tmp_path):
    # run.alpha is the weighted-sums weight exponent; the scan's order is the fit's
    scans = []
    for k, doc in enumerate([base_config(), base_config(run={"alpha": 3.0})]):
        out = tmp_path / f"runs-{k}"
        assert cli_main(["bs", "--config", write_config(tmp_path, doc, f"c{k}.json"), "--out", str(out)]) == 0
        (run_dir,) = run_dirs(out)
        scans.append((run_dir / "bs-scan.csv").read_bytes())
    assert scans[0] == scans[1]


def test_bs_scan_uses_the_verifier_schatten_order(tmp_path, capsys):
    # massless Dirac in d=2 has s = 1 < 2d/(d+1): the scaling verifier fits order 3
    rc = cli_main(["bs", "--config", write_config(tmp_path, dirac2d_config()), "--out", str(tmp_path / "runs")])
    assert rc == 0
    assert "(Schatten order 3, det order 3)" in capsys.readouterr().out


def test_bs_scan_applies_the_verifier_ray_rules(tmp_path, capsys):
    # a 3-point ray: the fit needs 8, so the scan that tabulates it does too
    doc = base_config(run={"ray": {"type": "fixed_argument", "theta": math.pi, "r_lo": 0.5, "r_hi": 8.0, "count": 3}})
    out = tmp_path / "runs"
    rc = cli_main(["bs", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error at run.ray: rays need at least 8 points")
    assert not out.exists()


def test_bs_scan_needs_run_q(tmp_path, capsys):
    doc = base_config()
    del doc["run"]["q"]
    rc = cli_main(["bs", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "runs")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error at run.q: required by verifier 'schatten-scaling'")


def test_bs_scan_names_run_q_outside_the_schatten_range(tmp_path, capsys):
    # the fit's preflight holds q to its window d/s <= q <= (d+1)/2
    doc = base_config(operator={"kind": "fractional_laplacian", "d": 2, "s": 1.5}, run={"q": 2.5})
    out = tmp_path / "runs"
    rc = cli_main(["bs", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error at run.q:")
    assert not out.exists()


def test_bs_scan_names_a_ray_point_on_a_lattice_level(tmp_path, capsys):
    # s = 2 on L = 1 has a level at 1; the first boundary point is 1 + 1e-20j
    doc = base_config(
        operator={"kind": "fractional_laplacian", "d": 1, "s": 2.0},
        grid={"N": 16, "L": 1.0},
        run={"ray": {"type": "boundary", "re_lo": 1.0, "re_hi": 4.0, "height": 1e-20}},
    )
    out = tmp_path / "runs"
    rc = cli_main(["bs", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error at run.ray:")
    assert not out.exists()


@pytest.mark.parametrize("command", [["bs"], ["verify", "schatten-scaling"]], ids=["bs", "verify"])
@pytest.mark.parametrize(
    "potential",
    [None, {"family": "gaussian", "params": {"amplitude": [0.0, 0.0], "width": 1.0}}],
    ids=["no-potential-block", "zero-amplitude"],
)
def test_a_zero_potential_exits_2_at_potential_before_any_compute(tmp_path, capsys, monkeypatch, command, potential):
    # the fit divides each Schatten norm by a norm of V, so V = 0 has no fit and no table
    def no_compute(*args, **kwargs):
        raise AssertionError("computed M(z) for V = 0")

    monkeypatch.setattr(cli, "assemble_bs", no_compute)
    monkeypatch.setattr(certlab, "assemble_bs", no_compute)
    doc = base_config()
    del doc["potential"]
    if potential is not None:
        doc["potential"] = potential
    out = tmp_path / "runs"
    rc = cli_main(command + ["--config", write_config(tmp_path, doc), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error at potential: V = 0")
    assert not out.exists()


@pytest.mark.parametrize("command", [["spectrum"], ["bs"], ["verify", "schatten-scaling"]])
def test_a_grid_past_the_dense_cap_exits_2_at_grid(tmp_path, capsys, command):
    # massless Dirac in d=3 at N=16 is a 16384-dim dense operator, past the cap 8192
    doc = dirac2d_config() | {"operator": {"kind": "dirac_massless", "d": 3}, "grid": {"N": 16, "L": 8.0}}
    out = tmp_path / "runs"
    rc = cli_main(command + ["--config", write_config(tmp_path, doc), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error at grid:")
    assert "exceeds the cap 8192" in captured.err
    assert "refinement pair" not in captured.out
    assert not out.exists()


def test_schatten_scaling_names_a_ray_point_on_a_lattice_level(tmp_path, capsys):
    # the same ray as the bs scan above: the verifier's preflight stops it, not its compute
    doc = base_config(
        operator={"kind": "fractional_laplacian", "d": 1, "s": 2.0},
        grid={"N": 16, "L": 1.0},
        run={"ray": {"type": "boundary", "re_lo": 1.0, "re_hi": 4.0, "height": 1e-20}},
    )
    out = tmp_path / "runs"
    rc = cli_main(["verify", "schatten-scaling", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error at run.ray: z=(1+1e-20j) within roundoff")
    assert not out.exists()


def test_verify_writes_certificate_and_report(tmp_path):
    out = tmp_path / "runs"
    rc = cli_main([
        "verify", "schatten-scaling",
        "--config", write_config(tmp_path, base_config()),
        "--out", str(out), "--deterministic",
    ])
    assert rc == 0
    (run_dir,) = run_dirs(out)
    cert = json.loads((run_dir / "certificate-schatten-scaling.json").read_text())
    assert cert["verdict"] == "PASS"
    assert abs(cert["lhs"] + 1.0 / 3.0) <= 0.1
    assert cert["runtime_s"] == 0.0
    assert (run_dir / "report.md").exists()
    assert (run_dir / "summary.csv").exists()


def test_scan_writes_all_artifacts(tmp_path):
    out = tmp_path / "runs"
    rc = cli_main([
        "scan", "--config", write_config(tmp_path, base_config()),
        "--out", str(out), "--deterministic",
    ])
    assert rc == 0
    (run_dir,) = run_dirs(out)
    names = {p.name for p in run_dir.iterdir()}
    assert names == {
        "certificate-schatten-scaling.json",
        "certificate-weighted-sums.json",
        "summary.csv",
        "spectra.csv",
        "plot-data.csv",
        "report.md",
    }
    series = {row.split(",")[0] for row in (run_dir / "plot-data.csv").read_text().splitlines()[1:]}
    assert series == {"schatten-norm", "weighted-sum"}
    report = (run_dir / "report.md").read_text()
    assert "| schatten-scaling | PASS |" in report
    assert "2 certificates" in report


def test_scan_rejects_the_removed_format_flag(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    with pytest.raises(SystemExit) as exit_:
        cli_main(["scan", "--config", path, "--out", str(tmp_path / "runs"), "--format", "json"])
    assert exit_.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_scan_requires_theorem_list(tmp_path, capsys):
    doc = base_config(run={"theorems": []})
    rc = cli_main(["scan", "--config", write_config(tmp_path, doc)])
    assert rc == 2
    assert "run.theorems" in capsys.readouterr().err


def test_zero_potential_main_certifies_zero_sum(tmp_path):
    doc = base_config(run={"theorems": ["main"]})
    del doc["potential"]
    out = tmp_path / "runs"
    rc = cli_main([
        "verify", "main", "--config", write_config(tmp_path, doc),
        "--out", str(out), "--deterministic",
    ])
    assert rc == 0  # REPORT-ONLY is not a failure
    (run_dir,) = run_dirs(out)
    cert = json.loads((run_dir / "certificate-main.json").read_text())
    assert cert["lhs"] == 0.0
    assert cert["verdict"] == "REPORT-ONLY"
    assert "no eigenvalue" in cert["inputs"]["threshold"]


def test_exponent_window_violation_exits_2_with_field_path(tmp_path, capsys):
    doc = base_config(run={"q": 0.5, "theorems": ["main"]})
    rc = cli_main(["verify", "main", "--config", write_config(tmp_path, doc)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at run.q:")
    assert "0.5" in err


def test_imaginary_rejects_complex_potential_block(tmp_path, capsys):
    doc = base_config(
        potential={"family": "gaussian", "params": {"amplitude": [0.0, 2.0], "width": 1.0}},
        run={"theorems": ["imaginary"]},
    )
    rc = cli_main(["verify", "imaginary", "--config", write_config(tmp_path, doc)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error at potential: W must be real")


def test_imaginary_verifier_through_cli(tmp_path):
    doc = base_config(
        operator={"kind": "fractional_laplacian", "d": 1, "s": 1.0},
        grid={"N": 96, "L": 24.0},
        potential={"family": "gaussian", "params": {"amplitude": [2.0, 0.0], "width": 1.0}},
        run={"theorems": ["imaginary"]},
    )
    out = tmp_path / "runs"
    rc = cli_main([
        "verify", "imaginary", "--config", write_config(tmp_path, doc),
        "--out", str(out), "--deterministic",
    ])
    assert rc == 0
    (run_dir,) = run_dirs(out)
    cert = json.loads((run_dir / "certificate-imaginary.json").read_text())
    assert cert["verdict"] == "PASS"
    assert cert["inputs"]["eigenvalues_checked"] > 0


def test_missing_ray_block_is_named(tmp_path, capsys):
    doc = base_config(run={"theorems": ["schatten-scaling"]})
    del doc["run"]["ray"]
    rc = cli_main(["scan", "--config", write_config(tmp_path, doc)])
    assert rc == 2
    assert "run.ray" in capsys.readouterr().err


def test_unknown_ray_type_is_named(tmp_path, capsys):
    doc = base_config(run={"ray": {"type": "spiral"}})
    rc = cli_main(["verify", "schatten-scaling", "--config", write_config(tmp_path, doc)])
    assert rc == 2
    assert "run.ray.type" in capsys.readouterr().err


@pytest.mark.parametrize(
    "theorem, operator, run, key",
    [
        ("weighted-sums", None, {"variant": "inverse_sqrt"}, "variant"),
        (
            "schatten-scaling",
            None,
            {"ray": {"type": "boundary", "re_lo": 0.5, "re_hi": 8.0, "height": 0.3}},
            "ray",
        ),
        (
            "schatten-scaling",
            {"kind": "relativistic", "d": 1, "s": 1.5},
            {"ray": {"type": "fixed_argument", "theta": math.pi, "r_lo": 0.5, "r_hi": 2.0}},
            "ray",
        ),
        (
            "schatten-scaling",
            None,
            {"ray": {"type": "fixed_argument", "theta": math.pi, "r_lo": 0.5, "r_hi": 8.0, "count": 5}},
            "ray",
        ),
        (
            "uniform-resolvent",
            None,
            {"p": 1.0, "region": {"shape": "rectangle", "bounds": [0.1, 300.0, 0.01, 0.6], "clearance": 0.04}},
            "region",
        ),
        ("main", None, {"t_max": 0.0}, "t_max"),
        ("main", None, {"t_max": -1.0}, "t_max"),
    ],
    ids=[
        "inverse-sqrt-variant-on-fractional",
        "boundary-ray-when-co-rescaled",
        "relativistic-ray-across-unit-modulus",
        "ray-with-five-points",
        "region-beyond-dispersion-range",
        "zero-t-max",
        "negative-t-max",
    ],
)
def test_verifier_argument_errors_exit_2_before_compute(
    tmp_path, capsys, monkeypatch, theorem, operator, run, key
):
    def no_compute(*a, **k):
        raise AssertionError("a job started despite a config error")

    monkeypatch.setattr("bslab.cli.run_jobs", no_compute)
    doc = base_config(run=dict(run, theorems=[theorem]))
    if operator is not None:
        doc["operator"] = operator
    rc = cli_main(["verify", theorem, "--config", write_config(tmp_path, doc)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error at run.{key}:")


def _set(block, key, value, *path):
    """Config edit: doc[block][path...][key] = value."""
    def edit(doc):
        target = doc[block]
        for step in path:
            target = target[step]
        target[key] = value
    return edit


@pytest.mark.parametrize(
    "theorem, edit, path",
    [
        ("main", _set("run", "q", math.nan), "run.q"),
        ("weighted-sums", _set("run", "eps", math.nan), "run.eps"),
        ("main", _set("run", "t_max", math.inf), "run.t_max"),
        ("schatten-scaling", _set("run", "theta", True, "ray"), "run.ray.theta"),
        ("schatten-scaling", _set("run", "r_hi", math.inf, "ray"), "run.ray.r_hi"),
        ("schatten-scaling", _set("run", "count", True, "ray"), "run.ray.count"),
        ("main", _set("run", "bounds", [-6.0, -0.05, -0.4, True], "region"), "run.region.bounds"),
        ("main", _set("run", "clearance", math.nan, "region"), "run.region.clearance"),
        ("main", _set("potential", "width", True, "params"), "potential.params.width"),
        ("main", _set("potential", "amplitude", [math.nan, 0.0], "params"), "potential.params.amplitude"),
        ("main", _set("grid", "L", math.inf), "grid"),
    ],
    ids=[
        "q-nan", "eps-nan", "t-max-infinity",
        "ray-theta-bool", "ray-r-hi-infinity", "ray-count-bool", "region-bound-bool",
        "region-clearance-nan", "param-width-bool", "param-amplitude-nan", "grid-l-infinity",
    ],
)
def test_config_numbers_are_finite_and_not_bools(tmp_path, capsys, monkeypatch, theorem, edit, path):
    def no_compute(*a, **k):
        raise AssertionError("a job started despite a config error")

    monkeypatch.setattr("bslab.cli.run_jobs", no_compute)
    doc = base_config(run={"theorems": [theorem]})
    edit(doc)
    out = tmp_path / "out"
    rc = cli_main(["verify", theorem, "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error at {path}:")
    assert not out.exists()


def test_region_shape_other_than_rectangle_exits_2_before_compute(tmp_path, capsys, monkeypatch):
    # K is a rectangle; an older annulus-sector window is refused, not read as one
    def no_compute(*a, **k):
        raise AssertionError("a job started despite a config error")

    monkeypatch.setattr("bslab.cli.run_jobs", no_compute)
    region = {"shape": "annulus_sector", "bounds": [0.5, 6.0, 2.8, 3.5], "clearance": 0.04}
    doc = base_config(run={"theorems": ["main"], "region": region})
    out = tmp_path / "out"
    rc = cli_main(["verify", "main", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error at run.region.shape:")
    assert not out.exists()


_CLASSIFYING = ("main", "individual-bounds", "imaginary", "weighted-sums")


_FRAC_D2 = {"kind": "fractional_laplacian", "d": 2, "s": 1.5}


@pytest.mark.parametrize(
    "operator, N, legacy",
    [
        # 2N = 128 > the d=2 cap 64
        (_FRAC_D2, 64, {}),
        # 2N = 16: dense size 16^3 * 4 = 16384 > 8192
        ({"kind": "dirac_massive", "d": 3}, 8, {}),
        # an older config's `refine: false` is ignored and switches off no preflight
        (_FRAC_D2, 64, {"refine": False}),
    ],
    ids=["grid-cap", "dense-cap", "verify-without-refine"],
)
def test_refinement_pair_that_cannot_be_built_exits_2_before_compute(
    tmp_path, capsys, monkeypatch, operator, N, legacy
):
    # the classifying verifiers refine N -> 2N; their preflights check the pair
    def no_compute(*a, **k):
        raise AssertionError("compute started despite a config error")

    for name in ("run_jobs", "classified_spectrum"):
        monkeypatch.setattr(f"bslab.cli.{name}", no_compute)
    doc = base_config(grid={"N": N, "L": 6.0, **legacy})
    doc["operator"] = operator
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    for thm in _CLASSIFYING:
        assert cli_main(["verify", thm, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error at grid:")
    assert not out.exists()


@pytest.mark.parametrize(
    "operator, q, path",
    [
        ({"kind": "dirac_massive", "d": 1}, 1.0, "operator.kind"),
        ({"kind": "fractional_laplacian", "d": 1, "s": 0.4}, 1.0, "operator.s"),
        ({"kind": "fractional_laplacian", "d": 1, "s": 1.0}, 1.5, "run.q"),
    ],
    ids=["massive-dirac-kind", "s-below-d-over-d-plus-1", "q-above-window"],
)
def test_imaginary_regime_errors_name_their_field(tmp_path, capsys, operator, q, path):
    doc = base_config(
        potential={"family": "gaussian", "params": {"amplitude": [2.0, 0.0], "width": 1.0}},
        run={"q": q, "theorems": ["imaginary"]},
    )
    doc["operator"] = operator
    rc = cli_main(["verify", "imaginary", "--config", write_config(tmp_path, doc)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error at {path}:")


@pytest.mark.parametrize(
    "operator, grid",
    [
        ({"kind": "relativistic", "d": 1, "s": 0.8}, {"N": 32, "L": 20.0}),
        ({"kind": "dirac_massive", "d": 2}, {"N": 12, "L": 6.0}),
    ],
    ids=["relativistic", "massive-dirac"],
)
def test_individual_bounds_refuses_inhomogeneous_symbols(tmp_path, capsys, monkeypatch, operator, grid):
    # exact t^s scaling fails by construction for these kinds: exit 2, not a FAIL certificate
    def no_compute(*a, **k):
        raise AssertionError("a job started despite a config error")

    monkeypatch.setattr("bslab.cli.run_jobs", no_compute)
    doc = base_config(grid=grid, run={"q": 2.0, "theorems": ["individual-bounds"]})
    doc["operator"] = operator
    out = tmp_path / "out"
    rc = cli_main(["verify", "individual-bounds", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error at operator.kind:")
    assert not out.exists()


def test_custom_kind_is_an_unknown_operator_kind(tmp_path, capsys):
    doc = base_config(operator={"kind": "custom", "d": 1})
    rc = cli_main(["symbols", "--config", write_config(tmp_path, doc)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error at operator.kind:")


def test_unknown_theorem_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as einfo:
        cli_main(["verify", "riemann-hypothesis", "--config", "x.json"])
    assert einfo.value.code == 2


# ---------------------------------------------------------------------------
# exit codes for failures


def test_exit_1_when_a_certificate_fails(tmp_path, monkeypatch):
    fake = BoundCertificate(
        theorem="schatten-scaling",
        inputs={},
        lhs=1.0,
        rhs=0.5,
        constant=None,
        verdict="FAIL",
        seed=0,
        runtime_s=0.0,
        grid={"d": 1, "N": 32, "L": 20.0},
    )
    monkeypatch.setattr("bslab.cli.verify_schatten_scaling", lambda *a, **k: fake)
    doc = base_config(run={"theorems": ["schatten-scaling"]})
    rc = cli_main([
        "scan", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "runs"),
    ])
    assert rc == 1


def test_exit_3_when_a_job_raises(tmp_path, monkeypatch, capsys):
    def boom(*a, **k):
        raise RuntimeError("singular value sweep diverged")

    monkeypatch.setattr("bslab.cli.verify_schatten_scaling", boom)
    doc = base_config(run={"theorems": ["schatten-scaling"]})
    rc = cli_main([
        "scan", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "runs"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "compute failure" in err and "schatten-scaling" in err


def test_exit_3_on_unwritable_destination(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    doc = base_config(run={"theorems": ["schatten-scaling"]})
    rc = cli_main([
        "verify", "schatten-scaling", "--config", write_config(tmp_path, doc),
        "--out", str(blocker / "runs"),
    ])
    assert rc == 3
    assert "compute failure" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [np.linalg.LinAlgError, RuntimeError])
@pytest.mark.parametrize("command, solver", [("spectrum", "eigvals"), ("bs", "svdvals")])
def test_exit_3_when_a_dense_factorization_fails(tmp_path, monkeypatch, capsys, command, solver, exc):
    def fail(*a, **k):
        raise exc("did not converge")

    monkeypatch.setattr(f"bslab.dense.{solver}", fail)
    rc = cli_main([command, "--config", write_config(tmp_path, base_config()), "--out", str(tmp_path / "runs")])
    assert rc == 3
    assert f"compute failure in {command}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism


def test_scan_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, base_config())
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        rc = cli_main(["scan", "--config", cfg, "--out", str(out), "--deterministic"])
        assert rc == 0
    (da,), (db,) = run_dirs(outs[0]), run_dirs(outs[1])
    names = sorted(p.name for p in da.iterdir())
    assert names == sorted(p.name for p in db.iterdir())
    for name in names:
        assert (da / name).read_bytes() == (db / name).read_bytes(), name


def test_golden_certificates_match_the_benchmark_references(tmp_path):
    repo = Path(__file__).resolve().parent.parent
    refs = json.loads((repo / "bench" / "references.json").read_text(encoding="utf-8"))
    config = repo / "configs" / "golden.json"
    assert cli_main(["scan", "--config", str(config), "--out", str(tmp_path), "--deterministic"]) == 0
    (run_dir,) = run_dirs(tmp_path)
    hashes = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.glob("certificate-*.json"))
    }
    assert hashes == refs["golden-scan"]["certificate_sha256"]


def test_output_root_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("BSLAB_OUTPUT_DIR", str(tmp_path / "from-env"))
    rc = cli_main(["spectrum", "--config", write_config(tmp_path, base_config())])
    assert rc == 0
    assert run_dirs(tmp_path / "from-env")


# ---------------------------------------------------------------------------
# emit_report


def _two_certs():
    a = BoundCertificate(
        theorem="schatten-scaling",
        inputs={"ray": [complex(-1.0, 0.5)], "measured": [0.25]},
        lhs=-0.33,
        rhs=-1.0 / 3.0,
        constant=0.8,
        verdict="PASS",
        seed=3,
        runtime_s=1.25,
        grid={"d": 1, "N": 32, "L": 20.0},
    )
    b = BoundCertificate(
        theorem="weighted-sums",
        inputs={"note": "no Discrete eigenvalues at any probed coupling"},
        lhs=0.0,
        rhs=None,
        constant=None,
        verdict="REPORT-ONLY",
        seed=3,
        runtime_s=0.5,
        grid={"d": 1, "N": 32, "L": 20.0},
    )
    return [a, b]


def test_emit_report_markdown_tabulates_and_totals(tmp_path):
    path = emit_report(_two_certs(), tmp_path)
    text = path.read_text()
    assert "| theorem | verdict | lhs | rhs | constant |" in text
    assert "| weighted-sums | REPORT-ONLY | 0 |  |  |" in text
    assert "2 certificates: 1 PASS, 0 FAIL, 1 REPORT-ONLY" in text


def test_emit_report_input_errors(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], tmp_path)


# ---------------------------------------------------------------------------
# one spectrum memo per run: the shared path against standalone solves


@settings(max_examples=16)
@given(
    kind=st.sampled_from(["fractional_laplacian", "relativistic"]),
    depth=st.floats(0.3, 6.0),
    phase=st.floats(-0.6, 0.6),
    width=st.floats(0.5, 2.0),
)
def test_scan_sharing_one_memo_matches_standalone_calls(kind, depth, phase, width):
    amplitude = -depth * np.exp(1j * phase)
    doc = base_config(
        grid={"N": 64, "L": 30.0},
        potential={
            "family": "gaussian",
            "params": {"amplitude": [amplitude.real, amplitude.imag], "width": width},
        },
        run={"alpha": 2.0, "theorems": ["main", "weighted-sums"]},
    )
    doc["operator"] = {"kind": kind, "d": 1} | ({"s": 1.5} if kind == "fractional_laplacian" else {})
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg_path = write_config(tmp, doc)
        scan = ["scan", "--config", cfg_path, "--out", str(tmp / "scan"), "--deterministic"]
        assert cli_main(scan) in (0, 1)
        assert cli_main(["spectrum", "--config", cfg_path, "--out", str(tmp / "spectrum")]) == 0
        [scan_dir] = run_dirs(tmp / "scan")
        [spectrum_dir] = run_dirs(tmp / "spectrum")
        cfg = load_config(cfg_path)
        K = Region(bounds=(-6.0, -0.05, -0.4, 0.4), clearance=0.04)
        standalone = {
            "main": verify_main(cfg.spec, cfg.grid, cfg.potential, K, 1.0),
            "weighted-sums": verify_weighted_sums(cfg.spec, cfg.grid, cfg.potential, 1.0, 2.0, 0.5),
        }
        for theorem, cert in standalone.items():
            text = json.dumps(certificate_json(cert, deterministic=True), indent=2, sort_keys=True) + "\n"
            assert (scan_dir / f"certificate-{theorem}.json").read_text(encoding="utf-8") == text
        scanned = (scan_dir / "spectra.csv").read_bytes()
        assert scanned == (spectrum_dir / "spectra.csv").read_bytes()
