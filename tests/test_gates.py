"""Every verdict condition of the verifiers can fail.

One row per PASS/FAIL/REPORT-ONLY condition in ``certlab``.  A row runs a
clean input and sees PASS with the condition's measured input on the good
side of its bar.  Then it plants a one-line defect in one ``certlab`` global
and sees the expected verdict, with that input past the bar.  A condition
that no planted defect can flip is decided before any measurement and does
not belong in a verdict.
"""

import dataclasses
import itertools
import operator
from pathlib import Path

import pytest

from bslab import certlab, cli
from bslab.certlab import (
    Region,
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


# planted defects: each maps the real certlab global to a faulty stand-in


def altered(transform, picked=lambda call: True):
    """Pass the result of each picked call (numbered from 0) through transform."""
    def plant(real):
        calls = itertools.count()

        def planted(*a, **k):
            out = real(*a, **k)
            return transform(out) if picked(next(calls)) else out
        return planted
    return plant


def at_two_couplings(real):
    """discrete_spectrum with points only at the first two couplings that have any."""
    kept = []

    def planted(spec, grid, V):
        pts, key = real(spec, grid, V), V.values.tobytes()
        if pts and key not in kept and len(kept) < 2:
            kept.append(key)
        return pts if key in kept else []
    return planted


def nonzero_sums(cert):
    return sum(1 for m in cert.inputs["sums"] if m > 0.0)


def times_abs_z_to(power):
    return lambda real: lambda spec, grid, V, z, alpha: real(spec, grid, V, z, alpha) * abs(z) ** power


# weighted-sums growth budget (1 + eps) q / (s q - d) + 0.2 at the golden eps = 0.1, q = 1, s = 3/2, d = 1
_GOLDEN_GROWTH_BUDGET = (1.0 + 0.1) * 1.0 / (1.5 * 1.0 - 1.0) + 0.2

# (id, clean run, condition's input, comparison that passes, bar, certlab global, plant, verdict)
ROWS = [
    ("main-bs-residual", golden("main"), lambda c: max(c.inputs["bs_residuals"]),
     operator.lt, 1e-6, "bs_matrix", altered(lambda M: 1.001 * M), "FAIL"),
    ("main-sigma1-at-entry", golden("main"), lambda c: min(c.inputs["sigma1_at_entry"]),
     operator.ge, 1.0 - 1e-9, "assemble_bs", altered(lambda sv: sv * (0.999 / sv[0])), "FAIL"),
    ("main-sweep", golden("main"), lambda c: c.inputs["sweep_max_sigma1"],
     operator.lt, 1.0, "assemble_bs", altered(lambda sv: 2.0 * sv), "FAIL"),
    ("uniform-resolvent-max-over-median", uniform_resolvent, lambda c: c.lhs,
     operator.le, 4.0, "empirical_opnorm",
     altered(lambda est: dataclasses.replace(est, value=5.0 * est.value), lambda call: call == 0), "FAIL"),
    ("schatten-scaling-slope", golden("schatten-scaling"), lambda c: abs(c.law.fitted - c.law.predicted),
     operator.le, 0.1, "assemble_bs", times_abs_z_to(0.5), "FAIL"),
    ("schatten-scaling-fit-residual", golden("schatten-scaling"), lambda c: c.law.residual,
     operator.le, 0.05, "assemble_bs", altered(lambda sv: 1.3 * sv, lambda call: call % 2 == 1), "REPORT-ONLY"),
    ("individual-bounds-spectrum-drift", individual_bounds, lambda c: c.inputs["spectrum_drift"],
     operator.le, 1e-10, "eigensolve", altered(lambda eigs: (1.0 + 1e-8) * eigs), "FAIL"),
    ("individual-bounds-ratio-drift", individual_bounds, lambda c: c.inputs["ratio_drift"],
     operator.le, 1e-10, "eigensolve", altered(lambda eigs: (1.0 + 1e-8) * eigs), "FAIL"),
    ("imaginary-mode-identity", imaginary, lambda c: c.lhs,
     operator.le, 1e-10, "resolvent_multiplier", altered(lambda r: (1.0 + 1e-6j) * r), "FAIL"),
    ("imaginary-re-q-deviation", imaginary, lambda c: c.inputs["re_q_deviation"],
     operator.le, 1e-6, "bs_matrix", altered(lambda M: 1.001 * M), "FAIL"),
    ("weighted-sums-growth-slope", golden("weighted-sums"), lambda c: c.inputs["fitted_growth"],
     operator.le, _GOLDEN_GROWTH_BUDGET, "weighted_blaschke_sum", altered(lambda total: total**3), "FAIL"),
    ("weighted-sums-fit-points", golden("weighted-sums"), nonzero_sums,
     operator.ge, 3, "discrete_spectrum", at_two_couplings, "REPORT-ONLY"),
]


@pytest.mark.parametrize(
    "run, measure, holds, bar, name, plant, verdict", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS]
)
def test_planted_defect_flips_the_verdict(monkeypatch, run, measure, holds, bar, name, plant, verdict):
    clean = run()
    assert clean.verdict == "PASS"
    assert holds(measure(clean), bar), (measure(clean), bar)
    monkeypatch.setattr(certlab, name, plant(getattr(certlab, name)))
    planted = run()
    assert planted.verdict == verdict
    assert not holds(measure(planted), bar), (measure(planted), bar)


def test_weighted_sums_without_three_nonzero_sums_fits_nothing(monkeypatch):
    monkeypatch.setattr(certlab, "discrete_spectrum", at_two_couplings(certlab.discrete_spectrum))
    cert = golden("weighted-sums")()
    assert (cert.verdict, nonzero_sums(cert)) == ("REPORT-ONLY", 2)
    assert cert.inputs["note"] == "fewer than 3 couplings with a nonzero sum; no growth fit"
    assert cert.inputs["fitted_growth"] == 0.0
