"""Dense Hamiltonian assembly, eigensolve, spectral distances, classification."""

import csv
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from bslab.birman_schwinger import bs_principle_check
from bslab.lattice import GridFunction, TorusGrid, apply_multiplier
from bslab.potentials import PotentialField, PotentialSpec, sample_potential, scaled_field
from bslab.spectra import (
    SpectralLabel,
    SpectralPoint,
    assemble_hamiltonian,
    classify,
    dist_to_spectrum,
    eigensolve,
    essential_spectrum,
    nearest_in,
    spectrum_csv,
)
from bslab.symbols import SymbolKind, SymbolSpec, dispersion_values

FRAC = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=1.5)
RELA = SymbolSpec(kind=SymbolKind.RELATIVISTIC, d=1, s=1.0)
MASSIVE = SymbolSpec(kind=SymbolKind.DIRAC_MASSIVE, d=1)
MASSLESS = SymbolSpec(kind=SymbolKind.DIRAC_MASSLESS, d=1)


def well(grid, amp, width=1.0):
    sp = PotentialSpec("gaussian", {"amplitude": 1.0, "width": width, "center": [grid.L / 2]})
    return sample_potential(sp, grid).scaled(amp)


# ---------------------------------------------------------------------------
# assembly


def test_zero_potential_spectrum_is_dispersion():
    grid = TorusGrid(d=1, N=32, L=8.0)
    V = PotentialField(grid, np.zeros(grid.shape))
    for spec in (FRAC, MASSIVE):
        eigs = eigensolve(assemble_hamiltonian(spec, grid, V))
        expected = np.sort_complex(dispersion_values(spec, grid.xi()).ravel().astype(complex))
        got = np.array(sorted(eigs, key=lambda z: (round(z.real, 9), z.imag)))
        assert np.max(np.abs(np.sort_complex(got) - expected)) < 1e-10


def test_real_potential_gives_real_spectrum():
    grid = TorusGrid(d=1, N=48, L=12.0)
    eigs = eigensolve(assemble_hamiltonian(FRAC, grid, well(grid, -1.5)))
    assert np.max(np.abs(eigs.imag)) < 1e-9


def test_assembled_matrix_agrees_with_multiplier_apply():
    rng = np.random.default_rng(2)
    grid = TorusGrid(d=1, N=32, L=8.0)
    V = well(grid, -1.1 + 0.6j)
    H = assemble_hamiltonian(FRAC, grid, V)
    f = GridFunction(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    tf = apply_multiplier(dispersion_values(FRAC, grid.xi())[..., 0], f)
    expected = tf.values + V.values * f.values
    got = (H @ f.values.ravel()).reshape(grid.shape)
    assert np.max(np.abs(got - expected)) < 1e-11 * max(1.0, np.max(np.abs(expected)))


def test_assembled_dirac_with_matrix_potential():
    rng = np.random.default_rng(5)
    grid = TorusGrid(d=1, N=16, L=8.0)
    blocks = rng.standard_normal(grid.shape + (2, 2)) + 1j * rng.standard_normal(grid.shape + (2, 2))
    V = PotentialField(grid, blocks)
    H = assemble_hamiltonian(MASSIVE, grid, V)
    from bslab.symbols import symbol_values

    f = rng.standard_normal(grid.shape + (2,)) + 1j * rng.standard_normal(grid.shape + (2,))
    tf = apply_multiplier(symbol_values(MASSIVE, grid.xi()), GridFunction(grid, f))
    expected = tf.values + np.einsum("xab,xb->xa", blocks, f)
    got = (H @ f.ravel()).reshape(grid.shape + (2,))
    assert np.max(np.abs(got - expected)) < 1e-11 * max(1.0, np.max(np.abs(expected)))


def test_hamiltonian_grid_mismatch():
    grid = TorusGrid(d=1, N=16, L=8.0)
    other = TorusGrid(d=1, N=32, L=8.0)
    V = PotentialField(grid, np.zeros(grid.shape))
    with pytest.raises(ValueError, match="grid"):
        assemble_hamiltonian(FRAC, other, V)


# ---------------------------------------------------------------------------
# eigensolve


def test_eigensolve_companion_matrix():
    comp = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)  # roots of x^2 + 1
    eigs = eigensolve(comp)
    assert min(abs(eigs - 1j)) < 1e-14
    assert min(abs(eigs + 1j)) < 1e-14


def test_eigensolve_upper_triangular():
    rng = np.random.default_rng(9)
    A = np.triu(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    expected = sorted(np.diag(A), key=lambda z: (z.real, z.imag))
    eigs = eigensolve(A)
    assert np.max(np.abs(eigs - np.array(expected))) < 1e-12


def test_eigensolve_sorted_and_conditioned():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((8, 8))
    A = A + A.T  # symmetric: perfectly conditioned eigenvalues
    eigs = eigensolve(A)
    assert np.all(np.diff(eigs.real) >= -1e-12)


def test_eigensolve_overwrites_h_instead_of_copying_it():
    # zgeev sees the same input as on a copy, so the eigenvalues are bit-identical
    spec = SymbolSpec(kind=SymbolKind.DIRAC_MASSLESS, d=2)
    grid = TorusGrid(d=2, N=24, L=4.8)
    H = assemble_hamiltonian(spec, grid, well(grid, 1.0 - 0.5j))
    w = scipy.linalg.eigvals(H, overwrite_a=False, check_finite=False)
    expected = w[np.lexsort((w.imag, w.real))]
    tracemalloc.start()
    try:
        eigs = eigensolve(H)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(eigs, expected)
    assert peak < 0.1 * H.nbytes


def test_eigensolve_rejects_nonsquare():
    with pytest.raises(ValueError):
        eigensolve(np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# essential spectrum distances


def test_dist_examples():
    assert abs(dist_to_spectrum(FRAC, 2j) - 2.0) < 1e-15
    assert abs(dist_to_spectrum(MASSIVE, 0.0) - 1.0) < 1e-15
    assert abs(dist_to_spectrum(MASSLESS, 3.0 - 4.0j) - 4.0) < 1e-15
    assert abs(dist_to_spectrum(MASSIVE, 0.5 + 0.3j) - math.hypot(0.5, 0.3)) < 1e-15
    assert abs(dist_to_spectrum(RELA, -3.0) - 3.0) < 1e-15
    assert abs(dist_to_spectrum(MASSIVE, -2.0 - 1.0j) - 1.0) < 1e-15
    assert dist_to_spectrum(FRAC, 5.0) == 0.0


def test_essential_spectrum_intervals():
    assert essential_spectrum(FRAC).intervals == ((0.0, math.inf),)
    assert essential_spectrum(MASSLESS).intervals == ((-math.inf, math.inf),)
    assert essential_spectrum(MASSIVE).intervals == ((-math.inf, -1.0), (1.0, math.inf))


# ---------------------------------------------------------------------------
# classification


def refinement_pair(spec, amp):
    g1 = TorusGrid(d=1, N=48, L=12.0)
    g2 = g1.refined()
    e1 = eigensolve(assemble_hamiltonian(spec, g1, well(g1, amp)))
    e2 = eigensolve(assemble_hamiltonian(spec, g2, well(g2, amp)))
    return g1, g2, e1, e2


def test_classify_zero_potential_all_artifacts():
    g1 = TorusGrid(d=1, N=32, L=8.0)
    g2 = g1.refined()
    e1 = eigensolve(assemble_hamiltonian(FRAC, g1, PotentialField(g1, np.zeros(g1.shape))))
    e2 = eigensolve(assemble_hamiltonian(FRAC, g2, PotentialField(g2, np.zeros(g2.shape))))
    points = classify(e1, nearest_in(e2), FRAC, g1)
    assert all(p.label is SpectralLabel.CONTINUUM_ARTIFACT for p in points)


def test_classify_single_isolated_eigenvalue():
    g1, g2, e1, e2 = refinement_pair(FRAC, -0.5 - 0.02j)
    points = classify(e1, nearest_in(e2), FRAC, g1)
    discrete = [p for p in points if p.label is SpectralLabel.DISCRETE]
    assert len(discrete) == 1
    p = discrete[0]
    assert p.refinement_drift < 1e-10
    assert p.dist_sigma > 0.3
    assert p.z.real < 0 and p.z.imag < 0


def test_spectral_point_rejects_negative_distance():
    with pytest.raises(ValueError):
        SpectralPoint(z=1j, dist_sigma=-0.1, refinement_drift=0.0, label=SpectralLabel.UNDECIDED)


# ---------------------------------------------------------------------------
# exact spectral scaling


def test_exact_spectral_scaling():
    grid = TorusGrid(d=1, N=48, L=12.0)
    V = well(grid, -1.3 - 0.4j)
    base = eigensolve(assemble_hamiltonian(FRAC, grid, V))
    for t in (0.5, 2.0):
        Vt = scaled_field(V, t, s=FRAC.s)
        eigs_t = eigensolve(assemble_hamiltonian(FRAC, Vt.grid, Vt))
        scaled = np.array(sorted(t**FRAC.s * base, key=lambda z: (z.real, z.imag)))
        assert np.max(np.abs(eigs_t - scaled)) < 1e-12 * max(1.0, np.max(np.abs(scaled)))


# ---------------------------------------------------------------------------
# cross-checks and export


def test_relativistic_eigenvalue_satisfies_bs_principle():
    grid = TorusGrid(d=1, N=48, L=12.0)
    V = well(grid, -0.7 - 0.15j)
    eigs = eigensolve(assemble_hamiltonian(RELA, grid, V))
    off = [complex(z) for z in eigs if dist_to_spectrum(RELA, z) > 0.15]
    assert off, "expected at least one eigenvalue away from [0, inf)"
    for z in off:
        assert bs_principle_check(RELA, grid, V, z) < 1e-8


def test_spectrum_csv_roundtrip(tmp_path):
    g1, g2, e1, e2 = refinement_pair(FRAC, -0.5 - 0.02j)
    points = classify(e1, nearest_in(e2), FRAC, g1)
    path = tmp_path / "spectrum.csv"
    spectrum_csv(points, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["re", "im", "dist_sigma", "drift", "label", "cond"]
    assert len(rows) == len(points) + 1
    for row, p in zip(rows[1:], points):
        assert float(row[0]) == p.z.real and float(row[1]) == p.z.imag
        assert float(row[2]) == p.dist_sigma
        assert row[4] == p.label.value
        assert row[5] == "nan"  # condition numbers are not computed yet
    labels = {row[4] for row in rows[1:]}
    assert "Discrete" in labels and "ContinuumArtifact" in labels
