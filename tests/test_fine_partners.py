"""classified_spectrum (dense at N; at 2N one Hermitian eigensolve for a
self-adjoint potential, otherwise the coarse eigenpair checked matrix-free on
the fine grid, then shift-invert partners) against the dense oracle: classify
fed every eigenvalue of H_2N."""

import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


def route_counts(record):
    """{route: partners it served} from classified_spectrum's DEBUG record."""
    message = record.getMessage()
    assert message.startswith("fine partners: ")
    counts = [part.split(" ", 1) for part in message.removeprefix("fine partners: ").split(", ")]
    return {route: int(count) for count, route in counts}


def counting(monkeypatch, name, arg=0, module=spectra):
    """Wrap module.<name> so every call records its positional argument number arg."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args[arg])
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def classified_with_routes(spec, grid, V):
    """classified_spectrum's points and its DEBUG count of partners by route."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("bslab")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        points = classified_spectrum(spec, grid, V)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    (routes,) = [r for r in records if r.getMessage().startswith("fine partners")]
    return points, route_counts(routes)


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
    solve, routes = [r for r in caplog.records if r.name == "bslab"]
    assert solve.levelno == routes.levelno == logging.DEBUG
    assert f"dense {96 * spec.n}-dim fine solve" in solve.getMessage()
    partners = sum(p.label is not _ARTIFACT for p in oracle)
    assert route_counts(routes) == {"coarse eigenpair": 0, "shift-invert": 0, "dense fallback": partners, "Hermitian": 0}
    assert [(p.z, p.label) for p in points] == [(p.z, p.label) for p in oracle]
    for p, q in zip(points, oracle):
        assert p.refinement_drift == q.refinement_drift or p.label is _ARTIFACT


def far_from_normal_well():
    """A strongly absorbing well for massless Dirac, and the dense oracle's points
    that classify gives a partner with -4.5 < Re z < -4: the eigenvalues of H_2N
    near them have condition numbers near 1e14."""
    spec = SymbolSpec(SymbolKind.DIRAC_MASSLESS, 1)
    grid = TorusGrid(1, 124, 12.25)
    V = gaussian_well(grid, -4.8 - 3.0j, 1.43, [7.73])
    oracle = dense_oracle(spec, grid, V)
    return spec, grid, V, oracle, [p.z for p in oracle if p.label is not _ARTIFACT and -4.5 < p.z.real < -4.0]


def test_pseudo_eigenvalues_of_a_far_from_normal_hamiltonian_are_refused():
    # A Ritz value of (H - z)^{-1} with a residual near 1e-15 on the inverse
    # can still sit 0.5 away from every eigenvalue of H; the residual on H
    # itself refuses it.
    spec, grid, V, _, off = far_from_normal_well()
    fine = grid.refined()
    H = assemble_hamiltonian(spec, fine, resample(V, fine))
    nearest = nearest_in(eigensolve(H.copy(order="F")))
    assert off
    answers = [(z, dense.nearest_eigenpair(H, z)) for z in off]
    assert any(pair is None for _, pair in answers)
    for z, pair in answers:
        assert pair is None or abs(pair[0] - nearest(z)) <= 1e-8 * abs(z)


def test_condition_number_alone_refuses_the_coarse_eigenpair_of_a_far_from_normal_hamiltonian(monkeypatch):
    # kappa ||r|| bounds how far an eigenvalue of H_2N may sit from the Rayleigh
    # quotient; with every residual let through, that term alone refuses here
    spec, grid, V, oracle, off = far_from_normal_well()
    assert off
    assert_matches_oracle(classified_spectrum(spec, grid, V), oracle)
    monkeypatch.setattr(dense, "_RESIDUAL_TOLERANCE", math.inf)
    partner = spectra._FinePartner(spec, grid, grid.refined(), V)
    assert [partner._from_coarse(z) for z in off] == [None] * len(off)


_S3 = np.diag([1.0, -1.0])


@st.composite
def resolved_wells(draw):
    """A smooth complex Gaussian well that its coarse grid resolves, for one of the four kinds.

    Seven draws in eight are d=1 at N = 128 or 256 on the box L = N/(2 xi),
    xi in [4, 8] the Nyquist frequency, with width w = L/15 to L/13: the well
    is below 1e-9 of its depth at the box edge, where the periodized
    Gaussian has its kink, and its transform is negligible at xi.  Depth times width and the phase are ranged per kind so
    that the well binds a point beyond eta:
      - fractional Laplacian (s >= 1.5) and relativistic: an absorbing attractive
        well, -(0.6 to 1)/w e^{-i(0.2 to 1)};
      - massive Dirac: a repulsive one, (0.3 to 0.6)/w e^{i(0.2 to 1)}, binding in
        the gap near 1.  An attractive well also binds below the lattice's lowest
        level; those points sort first, and the dense fallback they need would
        serve every later point;
      - massless Dirac: the site block i sigma_3 times (0.6 to 0.8)/w e^{i(0 to 0.5)},
        an imaginary mass.  In d=1 a scalar well is gauge-equivalent to none
        and binds nothing.
    One draw in eight is d=2 at N = 8, as in complex_wells: no d=2 grid whose
    dense 2N oracle is affordable resolves a Gaussian to the residual bar.
    """
    kind = draw(st.sampled_from(list(SymbolKind)))
    if draw(st.integers(0, 7)) == 0:
        spec = SymbolSpec(kind, 2)
        if not spec.is_dirac:
            spec = SymbolSpec(kind, 2, draw(st.floats(0.75, 2.5)))
        grid = TorusGrid(2, 8, draw(st.floats(4.0, 30.0)))
        amplitude = complex(draw(st.floats(-8.0, 0.0)), draw(st.floats(-3.0, 3.0)))
        center = [draw(st.floats(0.0, grid.L)) for _ in range(2)]
        return spec, grid, gaussian_well(grid, amplitude, draw(st.floats(0.3, 3.0)), center)
    N = draw(st.sampled_from([128, 256]))
    L = N / (2.0 * draw(st.floats(4.0, 8.0)))
    w = L / draw(st.floats(13.0, 15.0))
    grid = TorusGrid(1, N, L)
    center = [draw(st.floats(0.0, L))]
    if kind is SymbolKind.DIRAC_MASSLESS:
        depth = draw(st.floats(0.6, 0.8)) / w * np.exp(1j * draw(st.floats(0.0, 0.5)))
        profile = gaussian_well(grid, depth, w, center).values
        return SymbolSpec(kind, 1), grid, PotentialField(grid, profile[:, None, None] * 1j * _S3)
    if kind is SymbolKind.DIRAC_MASSIVE:
        depth = draw(st.floats(0.3, 0.6)) / w * np.exp(1j * draw(st.floats(0.2, 1.0)))
        return SymbolSpec(kind, 1), grid, gaussian_well(grid, depth, w, center)
    s = 1.0 if kind is SymbolKind.RELATIVISTIC else draw(st.floats(1.5, 2.5))
    depth = -draw(st.floats(0.6, 1.0)) / w * np.exp(-1j * draw(st.floats(0.2, 1.0)))
    return SymbolSpec(kind, 1, s), grid, gaussian_well(grid, depth, w, center)


@settings(max_examples=12)
@given(resolved_wells())
def test_coarse_eigenpairs_match_the_dense_oracle_on_resolved_wells(well):
    spec, grid, V = well
    points, routes = classified_with_routes(spec, grid, V)
    assert_matches_oracle(points, dense_oracle(spec, grid, V))
    if grid.d == 1:
        assert routes["coarse eigenpair"] >= 1


def contour_well():
    """bs-contour's well: the first draw of acceptance criterion 1 (fractional
    Laplacian, s = 2, N = 256, L = 20), whose 9 Discrete points are resolved."""
    spec = SymbolSpec(SymbolKind.FRACTIONAL_LAPLACIAN, 1, 2.0)
    grid = TorusGrid(1, 256, 20.0)
    rng = np.random.default_rng(20240814)
    amplitude = (2.0 + 4.0 * rng.random()) * np.exp(1j * np.pi * (2.0 * rng.random() - 1.0))
    width = 0.8 + 0.7 * rng.random()
    center = 4.0 * (rng.random() - 0.5)
    return spec, grid, gaussian_well(grid, amplitude, width, [center])


def test_resolved_partners_peak_below_one_fine_matrix():
    spec, grid, V = contour_well()
    spectra._kinetic_matrix.cache_clear()
    tracemalloc.start()
    try:
        points = classified_spectrum(spec, grid, V)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(p.label is SpectralLabel.DISCRETE for p in points) == 9
    assert peak < (2 * grid.N) ** 2 * 16


def test_resolved_partners_build_nothing_on_the_fine_grid(monkeypatch):
    spec, grid, V = contour_well()
    spectra._kinetic_matrix.cache_clear()
    assembled = counting(monkeypatch, "assemble_hamiltonian", arg=1)
    multiplied = counting(monkeypatch, "multiplier_matrix", arg=1)
    shifted = counting(monkeypatch, "nearest_eigenpair", module=dense)
    points, routes = classified_with_routes(spec, grid, V)
    assert routes == {"coarse eigenpair": 9, "shift-invert": 0, "dense fallback": 0, "Hermitian": 0}
    assert sum(p.label is SpectralLabel.DISCRETE for p in points) == 9
    assert set(assembled) == set(multiplied) == {grid}
    assert not shifted
