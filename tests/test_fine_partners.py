"""classified_spectrum (dense at N; at 2N one Hermitian eigensolve for a
self-adjoint potential, shift-invert partners otherwise) against the dense
oracle: classify fed every eigenvalue of H_2N."""

import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bslab import dense, spectra
from bslab.lattice import TorusGrid
from bslab.potentials import PotentialField, PotentialSpec, resample, sample_potential
from bslab.spectra import (
    SpectralLabel,
    assemble_hamiltonian,
    classified_spectrum,
    classify,
    eigensolve,
    nearest_in,
)
from bslab.symbols import SymbolKind, SymbolSpec

_ARTIFACT = SpectralLabel.CONTINUUM_ARTIFACT


def dense_oracle(spec, grid, V):
    fine = grid.refined()
    coarse = eigensolve(assemble_hamiltonian(spec, grid, V))
    refined = eigensolve(assemble_hamiltonian(spec, fine, resample(V, fine)))
    return classify(coarse, nearest_in(refined), spec, grid)


def gaussian_well(grid, amplitude, width, center):
    params = {"amplitude": complex(amplitude), "width": float(width), "center": [float(c) for c in center]}
    return sample_potential(PotentialSpec("gaussian", params), grid)


@st.composite
def complex_wells(draw):
    """A random complex Gaussian well for one of the four kinds: d=1 with
    N <= 64, or (one draw in eight) d=2 at N = 8.  One draw in four has a
    real amplitude: a self-adjoint potential."""
    kind = draw(st.sampled_from(list(SymbolKind)))
    d = 2 if draw(st.integers(0, 7)) == 0 else 1
    spec = SymbolSpec(kind, d)
    if not spec.is_dirac:
        spec = SymbolSpec(kind, d, draw(st.floats(0.75, 2.5)))
    N = 8 if d == 2 else 2 * draw(st.integers(8, 32))
    grid = TorusGrid(d, N, draw(st.floats(4.0, 30.0)))
    imag = 0.0 if draw(st.integers(0, 3)) == 0 else draw(st.floats(-3.0, 3.0))
    amplitude = complex(draw(st.floats(-8.0, 0.0)), imag)
    center = [draw(st.floats(0.0, grid.L)) for _ in range(d)]
    return spec, grid, gaussian_well(grid, amplitude, draw(st.floats(0.3, 3.0)), center)


def assert_matches_oracle(points, oracle):
    assert [p.z for p in points] == [p.z for p in oracle]
    assert [p.label for p in points] == [p.label for p in oracle]
    for p, q in zip(points, oracle):
        if p.label is _ARTIFACT:
            assert math.isnan(p.refinement_drift)
        else:
            assert abs(p.refinement_drift - q.refinement_drift) <= 1e-8


def hermitian_block_well():
    """Massive Dirac in d=1 with Hermitian 2x2 site blocks: self-adjoint, not scalar."""
    spec = SymbolSpec(SymbolKind.DIRAC_MASSIVE, 1)
    grid = TorusGrid(1, 40, 12.0)
    block = np.array([[-2.5, 0.6 - 0.8j], [0.6 + 0.8j, -1.5]])
    V = gaussian_well(grid, 1.0, 1.2, [5.0])
    return spec, grid, PotentialField(grid, V.values[:, None, None] * block)


@given(complex_wells())
@example(hermitian_block_well())
def test_shift_invert_partners_match_the_dense_oracle(well):
    spec, grid, V = well
    if spectra._is_self_adjoint(V):  # the Hermitian route's premise: H_2N is Hermitian to rounding
        fine = grid.refined()
        H = assemble_hamiltonian(spec, fine, resample(V, fine))
        assert np.linalg.norm(H - H.conj().T, 1) <= 1e-13 * np.linalg.norm(H, 1)
    assert_matches_oracle(classified_spectrum(spec, grid, V), dense_oracle(spec, grid, V))


def counting(monkeypatch, name):
    """Wrap spectra.<name> so every call records its first argument."""
    calls = []
    fn = getattr(spectra, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)

    monkeypatch.setattr(spectra, name, wrapper)
    return calls


def test_all_artifact_call_assembles_no_fine_hamiltonian(monkeypatch):
    grid = TorusGrid(1, 32, 8.0)
    spec = SymbolSpec(SymbolKind.FRACTIONAL_LAPLACIAN, 1, 1.5)
    V = PotentialField(grid, np.zeros(grid.shape, dtype=complex))
    assembled = counting(monkeypatch, "assemble_hamiltonian")
    resampled = counting(monkeypatch, "resample")
    points = classified_spectrum(spec, grid, V)
    assert points and all(p.label is _ARTIFACT for p in points)
    assert len(assembled) == 1 and not resampled


def test_isolated_eigenvalue_needs_no_dense_fine_solve(monkeypatch):
    grid = TorusGrid(1, 48, 12.0)
    spec = SymbolSpec(SymbolKind.FRACTIONAL_LAPLACIAN, 1, 1.5)
    V = gaussian_well(grid, -0.5 - 0.02j, 1.0, [6.0])
    solved = counting(monkeypatch, "eigensolve")
    points = classified_spectrum(spec, grid, V)
    assert [H.shape[0] for H in solved] == [48]
    discrete = [p for p in points if p.label is SpectralLabel.DISCRETE]
    assert len(discrete) == 1 and discrete[0].refinement_drift < 1e-10


@pytest.mark.parametrize(
    "spec",
    [
        SymbolSpec(SymbolKind.FRACTIONAL_LAPLACIAN, 1, 1.5),
        SymbolSpec(SymbolKind.RELATIVISTIC, 1, 1.0),
        SymbolSpec(SymbolKind.DIRAC_MASSIVE, 1),
        SymbolSpec(SymbolKind.DIRAC_MASSLESS, 1),
    ],
    ids=lambda spec: spec.kind.value,
)
def test_failed_residual_check_falls_back_to_one_dense_solve(monkeypatch, caplog, spec):
    grid = TorusGrid(1, 48, 12.0)
    V = gaussian_well(grid, -3.0 + 0.8j, 1.0, [6.0])
    oracle = dense_oracle(spec, grid, V)
    assert any(p.label is not _ARTIFACT for p in oracle)
    monkeypatch.setattr(dense, "_RESIDUAL_TOLERANCE", 0.0)
    solved = counting(monkeypatch, "eigensolve")
    with caplog.at_level(logging.DEBUG, logger="bslab"):
        points = classified_spectrum(spec, grid, V)
    assert [H.shape[0] for H in solved] == [48 * spec.n, 96 * spec.n]
    (record,) = [r for r in caplog.records if r.name == "bslab"]
    assert record.levelno == logging.DEBUG
    assert f"dense {96 * spec.n}-dim fine solve" in record.getMessage()
    assert [(p.z, p.label) for p in points] == [(p.z, p.label) for p in oracle]
    for p, q in zip(points, oracle):
        assert p.refinement_drift == q.refinement_drift or p.label is _ARTIFACT


def test_pseudo_eigenvalues_of_a_far_from_normal_hamiltonian_are_refused():
    # A strongly absorbing well for massless Dirac: the eigenvalues of H_2N near
    # these points have condition numbers near 1e14.  A Ritz value of
    # (H - z)^{-1} with a residual near 1e-15 on the inverse can still sit
    # 0.5 away from every eigenvalue of H; the residual on H itself refuses it.
    spec = SymbolSpec(SymbolKind.DIRAC_MASSLESS, 1)
    grid = TorusGrid(1, 124, 12.25)
    V = gaussian_well(grid, -4.8 - 3.0j, 1.43, [7.73])
    fine = grid.refined()
    H = assemble_hamiltonian(spec, fine, resample(V, fine))
    nearest = nearest_in(eigensolve(H.copy(order="F")))
    off = [p.z for p in dense_oracle(spec, grid, V) if p.label is not _ARTIFACT and -4.5 < p.z.real < -4.0]
    assert off
    answers = [(z, dense.nearest_eigenpair(H, z)) for z in off]
    assert any(pair is None for _, pair in answers)
    for z, pair in answers:
        assert pair is None or abs(pair[0] - nearest(z)) <= 1e-8 * abs(z)
