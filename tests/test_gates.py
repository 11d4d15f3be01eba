"""Every verdict condition of the verifiers can fail.

One row per gate of ``certlab.GATES``.  A row runs a clean input and sees
PASS with the gate's value on the passing side of its bar.  Then it plants a
one-line defect in one ``certlab`` global and sees the expected verdict, with
that value past the bar.  The value, the comparison and the bar come from
``GATES``; a row holds only its run, its plant and its verdict.  A condition
that no planted defect can flip is decided before any measurement and does
not belong in a gate.
"""

import dataclasses
import itertools
import logging
import math
from pathlib import Path

import pytest

from bslab import certlab, cli
from bslab.certlab import (
    FAIL,
    PASS,
    REPORT_ONLY,
    Region,
    gate_verdict,
    read_gate,
    verify_imaginary,
    verify_individual_bounds,
    verify_uniform_resolvent,
)
from bslab.lattice import TorusGrid
from bslab.potentials import PotentialSpec, sample_potential
from bslab.symbols import SymbolKind, SymbolSpec

GOLDEN = Path(__file__).resolve().parent.parent / "configs" / "golden.json"


def golden(theorem):
    """The golden config's run of one verifier."""
    args = cli._verifier_args(cli.load_config(GOLDEN), theorem)
    return lambda: cli.VERIFIERS[theorem].run(args)


def uniform_resolvent():
    """Criterion 5: L^1 -> L^inf norms over a window reaching the lattice boundary."""
    spec = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=1.5)
    grid = TorusGrid(d=1, N=256, L=40.0)
    return verify_uniform_resolvent(spec, grid, Region((0.5, 3.0, 0.01, 0.6)), p=1.0)


def individual_bounds():
    """Criterion 3's input: fractional Laplacian, s = 3/4, one complex Gaussian well."""
    spec = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=0.75)
    grid = TorusGrid(d=1, N=96, L=24.0)
    V = sample_potential(PotentialSpec("gaussian", {"amplitude": complex(-3.0, 0.8), "width": 1.0}), grid)
    return verify_individual_bounds(spec, grid, V, q=1.5)


def imaginary():
    """Criterion 8's first well W, run as V = iW."""
    spec = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=1.0)
    grid = TorusGrid(d=1, N=96, L=24.0)
    W = sample_potential(
        PotentialSpec("gaussian", {"amplitude": complex(1.2, 0.0), "width": 0.8, "center": [0.0]}), grid
    )
    return verify_imaginary(spec, W, 1.0)


def gates_by_id():
    return {gate[0]: gate for gates in certlab.GATES.values() for gate in gates}


# planted defects: each maps the real certlab global to a faulty stand-in


def altered(transform, calls=None):
    """Pass the result of each call numbered (from 0) in calls, or of every call, through transform."""
    def plant(real):
        count = itertools.count()

        def planted(*a, **k):
            out = real(*a, **k)
            return transform(out) if calls is None or next(count) in calls else out
        return planted
    return plant


def at_two_couplings(real):
    """discrete_spectrum with points only at the first two couplings that have any."""
    seen = []

    def planted(spec, grid, V):
        pts, key = real(spec, grid, V), V.values.tobytes()
        if pts and key not in seen:
            seen.append(key)
        return pts if key in seen[:2] else []
    return planted


def times_abs_z_to(power):
    return lambda real: lambda spec, grid, V, z, alpha: real(spec, grid, V, z, alpha) * abs(z) ** power


# (id, clean run, certlab global, plant, verdict).  A row's id is its gate's id, with
# "-nan" appended for a planted NaN that follows a finite value in a gated maximum.
ROWS = [
    ("main-bs-residual", golden("main"), "bs_matrix", altered(lambda M: 1.001 * M), FAIL),
    ("main-sigma1-at-entry", golden("main"), "assemble_bs", altered(lambda sv: sv * (0.999 / sv[0])), FAIL),
    ("main-sweep", golden("main"), "assemble_bs", altered(lambda sv: 2.0 * sv), FAIL),
    # call 0 is sigma_1 at the one entering point; calls 1, 2, ... are the sweep
    ("main-sweep-nan", golden("main"), "assemble_bs", altered(lambda sv: sv * math.nan, {2}), FAIL),
    ("uniform-resolvent-max-over-median", uniform_resolvent, "empirical_opnorm",
     altered(lambda est: dataclasses.replace(est, value=5.0 * est.value), {0}), FAIL),
    ("schatten-scaling-slope", golden("schatten-scaling"), "assemble_bs", times_abs_z_to(0.5), FAIL),
    ("schatten-scaling-fit-residual", golden("schatten-scaling"), "assemble_bs",
     altered(lambda sv: 1.3 * sv, {1, 3, 5, 7}), REPORT_ONLY),
    ("individual-bounds-spectrum-drift", individual_bounds, "eigensolve",
     altered(lambda eigs: (1.0 + 1e-8) * eigs), FAIL),
    ("individual-bounds-ratio-drift", individual_bounds, "eigensolve",
     altered(lambda eigs: (1.0 + 1e-8) * eigs), FAIL),
    ("imaginary-mode-identity", imaginary, "resolvent_multiplier", altered(lambda r: (1.0 + 1e-6j) * r), FAIL),
    # calls 2 and 3 are R0(z) and R0(conj z) at the second identity point
    ("imaginary-mode-identity-nan", imaginary, "resolvent_multiplier", altered(lambda r: r * math.nan, {2}), FAIL),
    ("imaginary-re-q-deviation", imaginary, "bs_matrix", altered(lambda M: 1.001 * M), FAIL),
    ("weighted-sums-growth-slope", golden("weighted-sums"), "weighted_blaschke_sum",
     altered(lambda total: total**3), FAIL),
    ("weighted-sums-fit-points", golden("weighted-sums"), "discrete_spectrum", at_two_couplings, REPORT_ONLY),
]


def row_gates():
    return {row[0].removesuffix("-nan") for row in ROWS}


@pytest.mark.parametrize("row_id, run, name, plant, verdict", ROWS, ids=[row[0] for row in ROWS])
def test_planted_defect_flips_the_verdict(monkeypatch, row_id, run, name, plant, verdict):
    gate = gates_by_id()[row_id.removesuffix("-nan")]
    clean = run()
    assert clean.verdict == PASS
    assert read_gate(gate, clean)[2], read_gate(gate, clean)
    monkeypatch.setattr(certlab, name, plant(getattr(certlab, name)))
    planted = run()
    assert planted.verdict == verdict
    assert not read_gate(gate, planted)[2], read_gate(gate, planted)


def test_every_gate_has_a_row_and_every_row_a_gate():
    assert set(gates_by_id()) == row_gates()


def test_the_coverage_check_sees_a_gate_without_a_row(monkeypatch):
    extra = ("main-extra", *certlab.GATES["main"][0][1:])
    monkeypatch.setitem(certlab.GATES, "main", certlab.GATES["main"] + (extra,))
    assert set(gates_by_id()) - row_gates() == {"main-extra"}
    with pytest.raises(AssertionError):
        test_every_gate_has_a_row_and_every_row_a_gate()


def test_weighted_sums_without_three_nonzero_sums_fits_nothing(monkeypatch):
    monkeypatch.setattr(certlab, "discrete_spectrum", at_two_couplings(certlab.discrete_spectrum))
    cert = golden("weighted-sums")()
    assert (cert.verdict, read_gate(gates_by_id()["weighted-sums-fit-points"], cert)[0]) == (REPORT_ONLY, 2)
    assert cert.inputs["note"] == "fewer than 3 couplings with a nonzero sum; no growth fit"
    assert cert.inputs["fitted_growth"] == 0.0


def test_a_nan_value_fails_even_a_report_only_gate():
    clean = golden("schatten-scaling")()
    past = dataclasses.replace(clean, inputs=clean.inputs | {"residual": math.inf})
    nan = dataclasses.replace(clean, inputs=clean.inputs | {"residual": math.nan})
    assert (gate_verdict(past), gate_verdict(nan)) == (REPORT_ONLY, FAIL)


def test_the_verdict_logs_the_gate_that_decided(monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="bslab")
    imaginary()
    plant = altered(lambda r: (1.0 + 1e-6j) * r)
    monkeypatch.setattr(certlab, "resolvent_multiplier", plant(certlab.resolvent_multiplier))
    planted = imaginary()
    value, bar, _ = read_gate(gates_by_id()["imaginary-mode-identity"], planted)
    assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("imaginary: ")] == [
        "imaginary: PASS, every gate passed",
        f"imaginary: FAIL at gate imaginary-mode-identity (value {value!r}, bar {bar!r})",
    ]
