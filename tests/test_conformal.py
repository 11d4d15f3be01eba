"""Named z-side weights of the eigenvalue sums."""

import math

import pytest

from bslab.conformal import weighted_blaschke_sum
from bslab.spectra import SpectralLabel, SpectralPoint, essential_spectrum
from bslab.symbols import SymbolKind, SymbolSpec

FRAC = SymbolSpec(SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=1.5)
RELA = SymbolSpec(SymbolKind.RELATIVISTIC, d=1)
MASSLESS = SymbolSpec(SymbolKind.DIRAC_MASSLESS, d=1)
MASSIVE = SymbolSpec(SymbolKind.DIRAC_MASSIVE, d=1)


def discrete_point(spec, z):
    d = essential_spectrum(spec).distance(z)
    return SpectralPoint(z=z, dist_sigma=d, refinement_drift=0.0, label=SpectralLabel.DISCRETE)


def test_weighted_sum_empty():
    assert weighted_blaschke_sum([], "plain") == 0.0


def test_weighted_sum_single_point_plain():
    z = -2.0 + 0.5j
    p = discrete_point(FRAC, z)
    assert weighted_blaschke_sum([p], "plain") == p.dist_sigma
    assert p.dist_sigma == math.hypot(2.0, 0.5)


def test_weighted_sum_massless_hand_expanded():
    pts = [
        discrete_point(MASSLESS, 1.0 + 1.0j),
        discrete_point(MASSLESS, -1.0 - 1.0j),
    ]
    got = weighted_blaschke_sum(pts, "massless_dirac", alpha=3.0, eps=0.5, d=2)
    # dist = 1 for both points; (d-1)/(d+1) = 1/3; exponent -3/3 - 1 - 0.5
    expected = 2.0 * (1.0 + math.sqrt(2.0)) ** (-2.5)
    assert abs(got - expected) <= 1e-12


def test_weighted_sum_named_formulas():
    zs = [-3.0 + 0.7j, -0.2 - 1.1j]
    frac = [discrete_point(FRAC, z) for z in zs]
    eps = 0.25
    got = weighted_blaschke_sum(frac, "inverse_sqrt", eps=eps)
    expected = sum(p.dist_sigma * abs(p.z) ** (-(1.0 - eps) / 2.0) for p in frac)
    assert abs(got - expected) <= 1e-12 * expected

    massive = [discrete_point(MASSIVE, z) for z in (0.3 + 0.4j, -0.6j)]
    alpha, d = 3.0, 2
    got = weighted_blaschke_sum(massive, "massive_dirac", alpha=alpha, eps=eps, d=d)
    expected = sum(
        p.dist_sigma
        * abs(p.z**2 - 1.0) ** (alpha / 2.0 - 1.0 + eps)
        * (1.0 + abs(p.z)) ** (-alpha - alpha / 3.0 + 1.0 - eps)
        for p in massive
    )
    assert abs(got - expected) <= 1e-12 * expected

    rela = [discrete_point(RELA, z) for z in zs]
    got = weighted_blaschke_sum(rela, "relativistic", alpha=alpha, eps=eps, d=d)
    expected = sum(
        p.dist_sigma
        * abs(p.z) ** (alpha / 2.0 - 1.0 + eps)
        * (1.0 + abs(p.z)) ** (-2.0 * alpha / 3.0 + 0.5 - alpha / 2.0 - eps)
        for p in rela
    )
    assert abs(got - expected) <= 1e-12 * expected


def test_weighted_sum_validation():
    z = -2.0 + 0.5j
    good = discrete_point(FRAC, z)
    artifact = SpectralPoint(
        z=z, dist_sigma=1.0, refinement_drift=0.0, label=SpectralLabel.CONTINUUM_ARTIFACT
    )
    with pytest.raises(ValueError, match="Discrete"):
        weighted_blaschke_sum([artifact], "plain")
    on_spectrum = SpectralPoint(
        z=3.0, dist_sigma=0.0, refinement_drift=0.0, label=SpectralLabel.DISCRETE
    )
    with pytest.raises(ValueError, match="essential spectrum"):
        weighted_blaschke_sum([on_spectrum], "plain")
    with pytest.raises(ValueError, match="unknown weight"):
        weighted_blaschke_sum([good], "no_such_weight")
    with pytest.raises(ValueError, match="alpha"):
        weighted_blaschke_sum([good], "massless_dirac", eps=0.1, d=1)
