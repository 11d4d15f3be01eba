"""Birman-Schwinger assembly, Schatten norms, determinants, contour roots."""

import cmath
import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, strategies as st

from bslab import birman_schwinger, dense, lattice
from bslab.birman_schwinger import (
    ContourBoundaryError,
    DetValue,
    assemble_bs,
    bs_det_evaluator,
    bs_eigenpair_near,
    bs_matrix,
    bs_principle_check,
    bs_residual,
    det_bound_constant,
    det_contour_roots,
    half_potentials,
    regularized_det,
    schatten_norm,
    schatten_order,
)
from bslab.certlab import boundary_ray, fixed_argument_ray, verify_schatten_scaling
from bslab.lattice import TorusGrid, multiplier_matrix, sandwich_gram, site_diagonal_sandwich
from bslab.potentials import PotentialField, PotentialSpec, sample_potential
from bslab.resolvent import ResolventHandle, kernel_array, lattice_levels, resolvent_multiplier
from bslab.spectra import assemble_hamiltonian, eigensolve
from bslab.symbols import SymbolKind, SymbolSpec, exchange_unitary

FRAC = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=1.5)


def gaussian_well(grid, amplitude, width=1.0):
    spec = PotentialSpec("gaussian", {"amplitude": 1.0, "width": width, "center": [grid.L / 2]})
    return sample_potential(spec, grid).scaled(amplitude)


def _gaussian_2d(grid, amplitude, width):
    return sample_potential(PotentialSpec("gaussian", {"amplitude": amplitude, "width": width}), grid)


# ---------------------------------------------------------------------------
# half potentials


def test_half_potentials_negative_constant():
    grid = TorusGrid(d=1, N=8, L=8.0)
    V = PotentialField(grid, np.full(grid.shape, -4.0, dtype=complex))
    abs_half, signed_half = half_potentials(V)
    assert np.allclose(abs_half, 2.0)
    assert np.allclose(signed_half, -2.0)
    assert np.allclose(signed_half * abs_half, V.values)


def test_half_potentials_random_complex_identity():
    rng = np.random.default_rng(3)
    grid = TorusGrid(d=1, N=32, L=8.0)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    vals[5] = 0.0  # zeros must map to zeros
    V = PotentialField(grid, vals)
    abs_half, signed_half = half_potentials(V)
    assert np.max(np.abs(signed_half * abs_half - vals)) < 1e-14
    assert abs_half[5] == 0 and signed_half[5] == 0
    assert np.all(abs_half.imag == 0) and np.all(abs_half.real >= 0)


def test_half_potentials_matrix_case():
    rng = np.random.default_rng(11)
    grid = TorusGrid(d=1, N=8, L=4.0)
    vals = rng.standard_normal(grid.shape + (2, 2)) + 1j * rng.standard_normal(grid.shape + (2, 2))
    V = PotentialField(grid, vals)
    abs_half, signed_half = half_potentials(V)
    prod = signed_half @ abs_half
    assert np.max(np.abs(prod - vals)) < 1e-13
    # |V|^{1/2} is Hermitian positive semidefinite site-wise
    herm_gap = np.max(np.abs(abs_half - np.swapaxes(abs_half, -1, -2).conj()))
    assert herm_gap < 1e-13
    eigs = np.linalg.eigvalsh(abs_half)
    assert eigs.min() > -1e-13


# ---------------------------------------------------------------------------
# assembly


def test_assemble_zero_potential():
    grid = TorusGrid(d=1, N=16, L=8.0)
    V = PotentialField(grid, np.zeros(grid.shape))
    M = bs_matrix(FRAC, grid, V, z=-1.0 + 0.5j)
    sv = assemble_bs(FRAC, grid, V, z=-1.0 + 0.5j, alpha=2.0)
    assert np.all(M == 0)
    assert np.all(sv == 0)
    assert schatten_norm(sv, 2.0) == 0.0


def test_single_site_potential_rank_one():
    grid = TorusGrid(d=1, N=32, L=8.0)
    vals = np.zeros(grid.shape, dtype=complex)
    vals[7] = -2.0 + 1.0j
    sv = assemble_bs(FRAC, grid, PotentialField(grid, vals), z=-0.8 + 0.3j, alpha=math.inf)
    assert sv[0] > 0
    assert sv[1] < 1e-12 * sv[0]


def test_hs_norm_matches_kernel_double_sum():
    grid = TorusGrid(d=1, N=64, L=16.0)
    z = -0.7 + 0.4j
    V = gaussian_well(grid, -1.5 - 0.8j)
    sv = assemble_bs(FRAC, grid, V, z, 2.0)
    hs = schatten_norm(sv, 2.0)

    kern = kernel_array(ResolventHandle(FRAC, grid, z))
    idx = (np.arange(grid.N)[:, None] - np.arange(grid.N)[None, :]) % grid.N
    absV = np.abs(V.values)
    double_sum = grid.weight**2 * np.sum(
        absV[:, None] * absV[None, :] * np.abs(kern[idx]) ** 2
    )
    assert abs(hs**2 - double_sum) < 1e-8 * double_sum


def test_order_variants_share_nonzero_spectra():
    grid = TorusGrid(d=1, N=48, L=12.0)
    V = gaussian_well(grid, -2.0 + 1.3j)
    z = -1.1 - 0.6j
    abs_half, signed_half = half_potentials(V)
    rmat = multiplier_matrix(resolvent_multiplier(FRAC, grid, z), grid)
    swapped = site_diagonal_sandwich(signed_half, rmat, abs_half, grid)
    mu_a = np.linalg.eigvals(bs_matrix(FRAC, grid, V, z))
    mu_b = np.linalg.eigvals(swapped)
    big_a = sorted((m for m in mu_a if abs(m) > 1e-9), key=abs, reverse=True)
    big_b = list(m for m in mu_b if abs(m) > 1e-9)
    assert len(big_a) == len(big_b)
    for m in big_a:
        j = int(np.argmin(np.abs(np.array(big_b) - m)))
        assert abs(big_b[j] - m) < 1e-8 * max(1.0, abs(m))
        big_b.pop(j)


def test_operator_norm_below_hilbert_schmidt():
    grid = TorusGrid(d=1, N=40, L=10.0)
    V = gaussian_well(grid, 2.0 - 0.5j)
    for z in (-0.5 + 0.2j, 1.3 + 0.9j):
        sv = assemble_bs(FRAC, grid, V, z, 2.0)
        assert sv[0] <= schatten_norm(sv, 2.0) + 1e-14


def test_matrix_potential_reduces_to_scalar():
    spec = SymbolSpec(kind=SymbolKind.DIRAC_MASSIVE, d=1)
    grid = TorusGrid(d=1, N=16, L=8.0)
    v = gaussian_well(grid, -1.0 - 0.4j).values
    scalar = PotentialField(grid, v)
    matrix = PotentialField(grid, v[..., None, None] * np.eye(2))
    z = 0.3 + 0.5j
    M_s = bs_matrix(spec, grid, scalar, z)
    M_m = bs_matrix(spec, grid, matrix, z)
    assert np.max(np.abs(M_s - M_m)) < 1e-12


def test_assemble_validations():
    grid = TorusGrid(d=1, N=16, L=8.0)
    other = TorusGrid(d=1, N=32, L=8.0)
    V = PotentialField(grid, np.zeros(grid.shape))
    with pytest.raises(ValueError, match="grid"):
        assemble_bs(FRAC, other, V, -1.0, 2.0)


DIRAC2 = SymbolSpec(kind=SymbolKind.DIRAC_MASSLESS, d=2)


def test_assemble_bs_wraps_bs_matrix():
    # alpha = 2: bit for bit zgesdd's singular values of a copy of the column-major M;
    # alpha = 3 never sees M, so S^3 matches zgesdd's within rounding
    z = -0.6 + 0.3j
    line, plane = TorusGrid(d=1, N=16, L=8.0), TorusGrid(d=2, N=8, L=4.8)
    for spec, grid, V in (
        (FRAC, line, gaussian_well(line, -1.3 + 0.4j)),
        (DIRAC2, plane, _gaussian_2d(plane, 1.0, 0.9)),
    ):
        M = bs_matrix(spec, grid, V, z)
        assert M.flags.f_contiguous
        ref = dense.svdvals(M.copy(order="F"))
        sv2, sv3 = (assemble_bs(spec, grid, V, z, alpha) for alpha in (2.0, 3.0))
        assert np.array_equal(M, bs_matrix(spec, grid, V, z))
        assert all(np.all(sv >= 0) and np.all(np.diff(sv) <= 0) for sv in (sv2, sv3))
        assert np.array_equal(sv2, ref)
        assert abs(schatten_norm(sv3, 3.0) - schatten_norm(ref, 3.0)) <= 1e-12 * schatten_norm(ref, 3.0)


def test_assemble_bs_peak_memory_is_one_matrix():
    # zgesdd overwrites the one M that the sandwich built in place on R0; the Gram
    # route makes G alone, and for these exchange-symmetric wells not even G: one
    # sector block at a time.  In the scalar case a whole S x S table of the potential's
    # transform would be one more matrix: the route gathers it a few rows at a time
    plane = TorusGrid(d=2, N=20, L=4.8)
    square = TorusGrid(d=2, N=32, L=4.8)
    frac2 = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=2, s=1.0)
    lattice.exchange_sectors(plane, 1, None)  # imports scipy.sparse before the trace starts
    for spec, grid, alphas in (
        (DIRAC2, plane, (2.0, 3.0)),
        (frac2, square, (3.0,)),
    ):
        V = _gaussian_2d(grid, 1.0, 0.9)
        matrix_bytes = (grid.size * spec.n) ** 2 * 16
        for alpha in alphas:
            tracemalloc.start()
            try:
                assemble_bs(spec, grid, V, 1.0 + 0.2j, alpha)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1.6 * matrix_bytes
            if alpha == 3.0:  # a centred well: one sector block of about G / 4 at a time
                assert peak < matrix_bytes / 4 + 4 * 16 * lattice._SCRATCH


@pytest.mark.parametrize(
    "alpha, route",
    [(1.0, "svdvals"), (1.5, "svdvals"), (2.0, "svdvals"), (math.inf, "svdvals"), (3.0, "gram")],
)
def test_assemble_bs_takes_zgesdd_unless_two_below_alpha_below_inf(monkeypatch, alpha, route):
    # the Gram route builds neither M nor any multiplier matrix, and solves once
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def call(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, call)

    for name in ("svdvals", "eigvalsh"):
        spy(dense, name)
    spy(birman_schwinger, "bs_matrix")
    spy(birman_schwinger, "multiplier_matrix")
    grid = TorusGrid(d=1, N=16, L=8.0)
    assemble_bs(FRAC, grid, gaussian_well(grid, -1.3 + 0.4j), -0.6 + 0.3j, alpha)
    if route == "gram":
        assert calls == ["eigvalsh"]
    else:
        assert calls == ["bs_matrix", "multiplier_matrix", "svdvals"]


# ---------------------------------------------------------------------------
# Schatten norms


def test_schatten_diagonal_values():
    sv = np.linalg.svd(np.diag([3.0, 4.0]).astype(complex), compute_uv=False)
    assert abs(schatten_norm(sv, 1.0) - 7.0) < 1e-14
    assert abs(schatten_norm(sv, 2.0) - 5.0) < 1e-14
    assert abs(schatten_norm(sv, math.inf) - 4.0) < 1e-14
    with pytest.raises(ValueError):
        schatten_norm(sv, 0.5)


def test_schatten_monotone_in_alpha():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    alphas = [1.0, 1.3, 2.0, 3.0, 7.0, math.inf]
    sv = np.linalg.svd(M, compute_uv=False)
    norms = [schatten_norm(sv, a) for a in alphas]
    assert all(n1 >= n2 - 1e-12 for n1, n2 in zip(norms, norms[1:]))
    assert norms[-1] <= min(norms)  # operator norm is the floor


def test_schatten_order_values():
    assert schatten_order(1, 1.0) == 2.0
    assert abs(schatten_order(2, 1.5) - 3.0) < 1e-14
    assert abs(schatten_order(3, 2.0) - 4.0) < 1e-14
    with pytest.raises(ValueError):
        schatten_order(2, 2.5)
    with pytest.raises(ValueError):
        schatten_order(3, 0.5)


# ---------------------------------------------------------------------------
# regularized determinants


def det_value(dv):
    """The complex det_n that a DetValue holds in log form."""
    return cmath.rect(math.exp(dv.log_abs), dv.phase)


def test_det_order_one_is_plain_determinant():
    rng = np.random.default_rng(17)
    A = 0.4 * (rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25))) / 5.0
    dv = regularized_det(A, 1)
    plain = np.linalg.det(np.eye(25) + A)
    assert abs(det_value(dv) - plain) < 1e-10 * abs(plain)


def test_det2_diagonal_closed_form():
    dv = regularized_det(np.diag([1.0, -0.5]).astype(complex), 2)
    expected = (2.0 * math.exp(-1.0)) * (0.5 * math.exp(0.5))
    assert abs(det_value(dv) - expected) < 1e-12
    # order 3 adds the quadratic counterterm exp(mu^2/2)
    dv3 = regularized_det(np.diag([1.0, -0.5]).astype(complex), 3)
    expected3 = (2.0 * math.exp(-1.0 + 0.5)) * (0.5 * math.exp(0.5 + 0.125))
    assert abs(det_value(dv3) - expected3) < 1e-12


def test_det_exact_zero():
    dv = regularized_det(np.diag([-1.0, 0.3]).astype(complex), 2)
    assert dv.log_abs == -math.inf
    assert det_value(dv) == 0


def test_det_log_bounds_on_random_matrices():
    rng = np.random.default_rng(23)
    for _ in range(100):
        dim = int(rng.integers(3, 30))
        scale = float(rng.uniform(0.1, 2.0))
        M = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(dim)
        for order in (1, 2):
            dv = regularized_det(M, order)
            sv = np.linalg.svd(M, compute_uv=False)
            bound = det_bound_constant(order) * schatten_norm(sv, float(order)) ** order
            assert dv.log_abs <= bound + 1e-10
    with pytest.raises(ValueError):
        det_bound_constant(3)


@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_power_traces_match_the_traces_of_explicit_powers(n, seed, order):
    rng = np.random.default_rng(seed)
    M = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
    traces = birman_schwinger._power_traces(M, order)
    assert len(traces) == order - 1
    norm, power = np.linalg.norm(M, 2), np.eye(n)
    for k, trace in enumerate(traces, 1):
        power = power @ M
        assert abs(trace - np.trace(power)) <= 1e-13 * n * norm**k


def test_det_invalid_order():
    with pytest.raises(ValueError):
        regularized_det(np.eye(2, dtype=complex), 0)


# ---------------------------------------------------------------------------
# eigenvalue correspondence on a small grid


def dense_hamiltonian(spec, grid, V):
    from bslab.symbols import symbol_values

    H0 = multiplier_matrix(symbol_values(spec, grid.xi()), grid)
    return H0 + np.diag(np.repeat(V.values.ravel(), spec.n))


def discrete_candidates(spec, grid, V, margin=0.08):
    """Eigenvalues of the dense Hamiltonian at distance > margin from [0, inf)."""
    eigs = np.linalg.eigvals(dense_hamiltonian(spec, grid, V))
    out = []
    for z in eigs:
        dist = abs(z.imag) if z.real >= 0 else abs(z)
        if dist > margin:
            out.append(complex(z))
    return out


def test_v_zero_residual_is_one():
    grid = TorusGrid(d=1, N=16, L=8.0)
    V = PotentialField(grid, np.zeros(grid.shape))
    assert abs(bs_principle_check(FRAC, grid, V, -0.5 + 0.5j) - 1.0) < 1e-14


def test_subcritical_potential_keeps_margin():
    grid = TorusGrid(d=1, N=32, L=8.0)
    V = gaussian_well(grid, -0.05 - 0.02j)
    z = -0.4 + 0.3j
    sv = assemble_bs(FRAC, grid, V, z, math.inf)
    sigma1 = sv[0]
    assert sigma1 < 1.0
    residual = bs_principle_check(FRAC, grid, V, z)
    assert residual >= 1.0 - sigma1 - 1e-12


def test_bs_residual_vanishes_at_hamiltonian_eigenvalues():
    grid = TorusGrid(d=1, N=48, L=12.0)
    V = gaussian_well(grid, -3.0 - 1.0j)
    candidates = discrete_candidates(FRAC, grid, V)
    assert candidates, "expected at least one eigenvalue off [0, inf)"
    for z in candidates:
        assert bs_principle_check(FRAC, grid, V, z) < 1e-8


def test_bs_residual_dirac_spinor_case():
    spec = SymbolSpec(kind=SymbolKind.DIRAC_MASSIVE, d=1)
    grid = TorusGrid(d=1, N=32, L=8.0)
    V = gaussian_well(grid, -0.9 - 0.5j)
    eigs = np.linalg.eigvals(dense_hamiltonian(spec, grid, V))
    # essential spectrum is (-inf,-1] u [1,inf): keep eigenvalues well off it
    picked = [z for z in eigs if abs(z.imag) > 0.05]
    assert picked, "expected non-real eigenvalues for a complex potential"
    for z in picked:
        assert bs_principle_check(spec, grid, V, z) < 1e-8
        assert_matches_full_spectrum(bs_matrix(spec, grid, V, z))


def assert_matches_full_spectrum(M):
    """bs_eigenpair_near against the full spectrum: bs_residual's value and
    dense.eig's eigenvector for the eigenvalue of M nearest -1.

    An accepted pair is exact for a matrix within its backward error of M,
    and that error moves the eigenvalue and turns the eigenvector by about
    itself over the gap between the eigenvalue nearest -1 and the next one
    (Ipsen, SIAM Review 39, 1997).  So the tolerance grows as the gap closes,
    and in a tie either eigenvalue is the right answer.
    """
    residual, g = bs_eigenpair_near(M)
    norm = np.linalg.norm(M, 1)
    mu = np.vdot(g, M @ g)  # g is a unit vector
    assert abs(np.linalg.norm(g) - 1.0) <= 1e-13
    assert np.linalg.norm(M @ g - mu * g) <= 1e-13 * norm
    w, vecs = dense.eig(M)
    dist = np.abs(w + 1.0)
    nearest, *rest = np.argsort(dist)
    gap = dist[rest[0]] - dist[nearest] if rest else math.inf
    tol = 1e-11 * norm * (1.0 + norm / gap)
    assert abs(residual - bs_residual(M.copy(order="F"))) <= tol
    v = vecs[:, nearest]
    assert np.linalg.norm(g - v * np.vdot(v, g)) <= tol


def random_complex(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(n)


@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.floats(-2.0, 2.0))
def test_bs_eigenpair_matches_the_full_spectrum_on_random_matrices(n, seed, log_scale):
    assert_matches_full_spectrum(random_complex(n, seed, 10.0**log_scale))


@given(st.integers(2, 3), st.integers(4, 30), st.integers(0, 2**32 - 1))
def test_bs_eigenpair_matches_the_full_spectrum_near_a_defective_matrix(k, n, seed):
    # a k x k Jordan block within 1 of -1 and a random diagonal, in a random
    # unitary basis, plus a 1e-8 perturbation: k eigenvalues about 1e-8^(1/k) apart
    rng = np.random.default_rng(seed)
    lam = -1.0 + complex(*rng.uniform(-1.0, 1.0, 2))
    A = np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    A[:k, :k] = lam * np.eye(k) + np.eye(k, k=1)
    Q, _ = np.linalg.qr(random_complex(n, seed + 1))
    assert_matches_full_spectrum(Q @ A @ Q.conj().T + 1e-8 * random_complex(n, seed + 2))


@st.composite
def bs_at_eigenvalues(draw):
    """(spec, grid, V, z): a random d = 1 well of any kind and an eigenvalue z
    of H = T(D) + V at least 0.1 off the levels of T, where -1 is an eigenvalue of M(z)."""
    kind = draw(st.sampled_from(list(SymbolKind)))
    s = 1.0 if kind in (SymbolKind.DIRAC_MASSLESS, SymbolKind.DIRAC_MASSIVE) else draw(st.floats(0.75, 2.0))
    spec = SymbolSpec(kind=kind, d=1, s=s)
    grid = TorusGrid(d=1, N=2 * draw(st.integers(8, 32)), L=draw(st.floats(4.0, 20.0)))
    amplitude = complex(draw(st.floats(-6.0, 0.0)), draw(st.floats(-3.0, 3.0)))
    V = gaussian_well(grid, amplitude, draw(st.floats(0.3, 2.0)))
    levels = lattice_levels(spec, grid)
    off = [z for z in eigensolve(assemble_hamiltonian(spec, grid, V)) if np.min(np.abs(levels - z)) >= 0.1]
    assume(off)
    return spec, grid, V, draw(st.sampled_from(off))


def near_defective_model():
    """A purely imaginary massless d = 1 Dirac well at an eigenvalue z of H with
    condition number 4.1e7, where |mu + 1| = 5.9e-8 is above 1e-8."""
    spec = SymbolSpec(kind=SymbolKind.DIRAC_MASSLESS, d=1)
    grid = TorusGrid(d=1, N=36, L=14.0)
    V = gaussian_well(grid, 1.5j, 2.0)
    eigs = eigensolve(assemble_hamiltonian(spec, grid, V))
    return spec, grid, V, eigs[np.argmin(np.abs(eigs - (-0.035714285553371534 + 0.5172081000946445j)))]


@given(bs_at_eigenvalues())
@example(near_defective_model())
def test_bs_eigenpair_matches_the_full_spectrum_at_hamiltonian_eigenvalues(model):
    spec, grid, V, z = model
    M = bs_matrix(spec, grid, V, z)
    assert_matches_full_spectrum(M)
    # z is an eigenvalue of H only to about kappa eps ||H||_1, kappa its condition number
    H = assemble_hamiltonian(spec, grid, V)
    w, left, right = scipy.linalg.eig(H, left=True)
    k = np.argmin(np.abs(w - z))
    kappa = np.linalg.norm(left[:, k]) * np.linalg.norm(right[:, k]) / abs(np.vdot(left[:, k], right[:, k]))
    assert bs_eigenpair_near(M)[0] < max(1e-8, 10.0 * kappa * np.finfo(float).eps * np.linalg.norm(H, 1))


def test_bs_principle_check_falls_back_to_the_full_eigendecomposition(monkeypatch):
    # a zero tolerance refuses every shift-invert pair, so dense.eig answers
    grid = TorusGrid(d=1, N=48, L=12.0)
    V = gaussian_well(grid, -3.0 - 1.0j)
    points = [*discrete_candidates(FRAC, grid, V), -0.5 + 0.5j]
    eig_calls = []
    eig = dense.eig

    def eig_spy(A):
        eig_calls.append(A.shape)
        return eig(A)

    monkeypatch.setattr(dense, "_RESIDUAL_TOLERANCE", 0.0)
    monkeypatch.setattr(dense, "eig", eig_spy)
    for z in points:
        assert abs(bs_principle_check(FRAC, grid, V, z) - bs_residual(bs_matrix(FRAC, grid, V, z))) <= 1e-12
    assert eig_calls == [(48, 48)] * len(points)


def test_bs_eigenpair_near_accepts_the_refined_pair_where_the_ritz_pair_stalls(monkeypatch):
    # acceptance criterion 1's first well, at its eigenvalue nearest [0, inf):
    # the Ritz residual stalls at about twice the tolerance (kappa ~ 4e3), and
    # the pair after one inverse-iteration step passes without dense.eig
    spec = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=2.0)
    grid = TorusGrid(d=1, N=256, L=20.0)
    amplitude = 0.22793796320329285 + 3.6263209477731535j
    V = sample_potential(
        PotentialSpec("gaussian", {"amplitude": amplitude, "width": 1.0142650828509534, "center": [-0.790275153921995]}),
        grid,
    )
    M = bs_matrix(spec, grid, V, 1.9905875304204754 + 0.9550033963369815j)

    def eig_refused(A):
        raise AssertionError("dense.eig called")

    with monkeypatch.context() as patch:
        patch.setattr(dense, "eig", eig_refused)
        assert bs_eigenpair_near(M)[0] < 1e-10
    assert_matches_full_spectrum(M)


@st.composite
def bs_models(draw, max_dim=2048):
    """Any kind in d = 1, 2, 3, a scalar or (n, n) site-block well, and z off the levels.

    One draw in eight is d = 3 (N = 8: a 2048-dim matrix for Dirac kinds);
    draws whose M is larger than max_dim are rejected.
    """
    kind = draw(st.sampled_from(list(SymbolKind)))
    d = draw(st.sampled_from([1, 1, 1, 1, 1, 2, 2, 3]))
    s = 1.0 if kind in (SymbolKind.DIRAC_MASSLESS, SymbolKind.DIRAC_MASSIVE) else draw(st.floats(0.5, 2.0))
    spec = SymbolSpec(kind=kind, d=d, s=s)
    N = 2 * draw(st.integers(4, 16)) if d == 1 else 8
    grid = TorusGrid(d=d, N=N, L=draw(st.floats(2.0, 20.0)))
    amp = complex(draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0)))
    well = PotentialSpec("gaussian", {"amplitude": amp, "width": draw(st.floats(0.3, 2.0)), "center": 0.0})
    vals = sample_potential(well, grid).values
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = spec.n
        mix = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2 * n)
        vals = vals[..., None, None] * mix
    z = complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-2.0, 2.0)))
    assume(grid.size * spec.n <= max_dim)
    assume(np.min(np.abs(lattice_levels(spec, grid) - z)) >= 0.1)
    return spec, grid, PotentialField(grid, vals), z


def dirac3_model():
    """A d = 3 massless Dirac (n, n) site-block well: a 2048-dim M."""
    spec = SymbolSpec(kind=SymbolKind.DIRAC_MASSLESS, d=3)
    grid = TorusGrid(d=3, N=8, L=6.0)
    well = PotentialSpec("gaussian", {"amplitude": -1.5 + 0.8j, "width": 1.1, "center": 0.0})
    rng = np.random.default_rng(3)
    mix = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / math.sqrt(8)
    return spec, grid, PotentialField(grid, sample_potential(well, grid).values[..., None, None] * mix), 0.4 + 0.7j


def free_model(kind, d, N, L):
    """V = 0, where det_n = 1 and zgehrd's subdiagonal collapses on the degenerate
    levels of T(D): in d = 2 to about 1e-17 ||H||_1, once for the fractional N = 16
    grid and three times for the massless Dirac N = 12 one; for the d = 3 massless
    Dirac N = 8 grid, dozens of subdiagonals near 1e-15 ||H||_1 overflow ztrsv."""
    grid = TorusGrid(d=d, N=N, L=L)
    return SymbolSpec(kind=kind, d=d, s=1.0), grid, PotentialField(grid, np.zeros(grid.shape)), -0.5 + 0.3j


def stiff_model(L):
    """A fractional s = 2 well at N = 256 in d = 1: ||H||_1, about (N / 2L)^2, is 41 at
    L = 20 and 4.1e3 at L = 2, and Hessenberg's backward error scales with it."""
    grid = TorusGrid(d=1, N=256, L=L)
    return SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=2.0), grid, gaussian_well(grid, -3.0 + 1.0j), -1.0 + 0.5j


@given(bs_models(), st.integers(1, 3))
@example(dirac3_model(), 2)  # 2047 subdiagonals down to 4.5e-4 ||H||_1: unscaled, Hyman overflows
@example(free_model(SymbolKind.FRACTIONAL_LAPLACIAN, 2, 16, 6.0), 2)
@example(free_model(SymbolKind.DIRAC_MASSLESS, 2, 12, 4.0), 2)
@example(free_model(SymbolKind.DIRAC_MASSLESS, 3, 8, 9.0), 1)
@example(stiff_model(20.0), 2)
@example(stiff_model(2.0), 2)
def test_det_evaluator_matches_assembled_determinant(model, order):
    spec, grid, V, z = model
    fast = bs_det_evaluator(spec, grid, V, order)(z)
    slow = regularized_det(bs_matrix(spec, grid, V, z), order)
    assert abs(fast.log_abs - slow.log_abs) < 1e-10 * max(1.0, abs(slow.log_abs))
    assert abs(cmath.exp(1j * (fast.phase - slow.phase)) - 1.0) < 1e-10


def subnormal_model():
    """V = 5e-324i at every site: M's largest entry is subnormal, and scaling it to
    unit size in one step needs 2^1073, which is not a float."""
    grid = TorusGrid(d=1, N=8, L=2.0)
    spec = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=1.0)
    return spec, grid, PotentialField(grid, np.full(grid.shape, 5e-324j)), 1j


def tiny_dirac_model():
    """A massive d = 1 Dirac Gaussian of peak 5.05e-158 at z = 0: M^H M is subnormal
    (largest entry 1.4e-315), so its entries are resolved only to the smallest subnormal."""
    grid = TorusGrid(d=1, N=8, L=2.0)
    well = PotentialSpec("gaussian", {"amplitude": 5.05e-158, "width": 1.0, "center": 0.0})
    return SymbolSpec(kind=SymbolKind.DIRAC_MASSIVE, d=1), grid, sample_potential(well, grid), 0j


# Random draws stop at dim 512; the one 2048-dim shape, d = 3 Dirac, runs once per
# run as the explicit example.
@given(bs_models(max_dim=512), st.floats(2.0, 8.0, exclude_min=True), st.integers(1, 512))
@example(dirac3_model(), 3.0, 100)
@example(subnormal_model(), 3.0, 1)
@example(tiny_dirac_model(), 3.0, 1)
def test_gram_route_matches_zgesdd(model, alpha, panels):
    spec, grid, V, z = model
    M = bs_matrix(spec, grid, V, z)
    ref = schatten_norm(dense.svdvals(M.copy(order="F")), alpha)
    assert abs(schatten_norm(assemble_bs(spec, grid, V, z, alpha), alpha) - ref) <= 1e-12 * ref
    # the Fourier-side Gram matrix, built in up to `panels` chunks of column sites
    # (two scratch buffers of chunk * n * dim elements share _SCRATCH)
    left, right = half_potentials(V)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_SCRATCH", 2 * spec.n * M.shape[0] * -(-grid.size // panels))
        (whole,) = lattice.exchange_sectors(grid, spec.n, None)
        G = sandwich_gram(left, resolvent_multiplier(spec, grid, z), right, grid, whole)
    ref_G = M.conj().T @ M
    assert G.flags.f_contiguous
    # plus the resolution of a dim-term sum of subnormals, for a G whose 1e-13 max|G| underflows
    bar = 1e-13 * np.abs(ref_G).max() + M.shape[0] * np.finfo(float).smallest_subnormal
    assert np.abs(G - ref_G).max() <= bar


@given(bs_models(max_dim=256), st.integers(0, 2**32 - 1), st.integers(min_value=-1000, max_value=1000))
def test_gram_route_is_exact_under_power_of_two_scaling(model, seed, e):
    # assemble_bs scales V to unit size first, so V * 2^e gives exactly 2^e sigma
    spec, grid, V, z = model
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(V.values.shape) + 1j * rng.standard_normal(V.values.shape)
    sv = assemble_bs(spec, grid, PotentialField(grid, vals * 2.0**e), z, 3.0)
    assert np.array_equal(sv, np.ldexp(assemble_bs(spec, grid, PotentialField(grid, vals), z, 3.0), e))


@st.composite
def exchange_symmetric_models(draw):
    """A scalar well on a d = 2 or 3 grid whose values are exactly symmetric under x_1 <-> x_2,
    for the fractional, relativistic and (d = 2) massless Dirac kinds, and z off the levels.

    The well is a Gaussian at a drawn centre plus complex noise, V, and the model
    takes (V + V^T)/2 with T the exchange of the first two axes: the sum is
    commutative, so the result is bitwise symmetric.
    """
    kind, d = draw(st.sampled_from([
        (SymbolKind.FRACTIONAL_LAPLACIAN, 2), (SymbolKind.FRACTIONAL_LAPLACIAN, 3),
        (SymbolKind.RELATIVISTIC, 2), (SymbolKind.RELATIVISTIC, 3), (SymbolKind.DIRAC_MASSLESS, 2),
    ]))
    s = 1.0 if kind is SymbolKind.DIRAC_MASSLESS else draw(st.floats(0.5, 2.0))
    spec = SymbolSpec(kind=kind, d=d, s=s)
    grid = TorusGrid(d=d, N=8 if d == 3 else 2 * draw(st.integers(4, 8)), L=draw(st.floats(2.0, 20.0)))
    amp = complex(draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0)))
    center = [draw(st.floats(0.0, grid.L)) for _ in range(d)]
    well = PotentialSpec("gaussian", {"amplitude": amp, "width": draw(st.floats(0.3, 2.0)), "center": center})
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = draw(st.floats(0.0, 1.0)) * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    vals = sample_potential(well, grid).values + noise
    vals = (vals + vals.swapaxes(0, 1)) / 2.0
    z = complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-2.0, 2.0)))
    assume(np.min(np.abs(lattice_levels(spec, grid) - z)) >= 0.1)
    return spec, grid, PotentialField(grid, vals), z


@given(exchange_symmetric_models(), st.floats(2.0, 8.0, exclude_min=True), st.integers(1, 64))
def test_sector_gram_route_matches_zgesdd(model, alpha, panels):
    # each exchange sector's block is built in up to `panels` panels of columns
    # (two scratch buffers of width * dim elements share _SCRATCH)
    spec, grid, V, z = model
    M = bs_matrix(spec, grid, V, z)
    dim = M.shape[0]
    ref = schatten_norm(dense.svdvals(M), alpha)
    assert np.array_equal(V.values, V.values.swapaxes(0, 1))
    assert len(lattice.exchange_sectors(grid, spec.n, exchange_unitary(spec))) == 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_SCRATCH", 2 * dim * -(-dim // (2 * panels)))
        sv = assemble_bs(spec, grid, V, z, alpha)
    assert sv.size == dim and np.all(sv >= 0) and np.all(np.diff(sv) <= 0)
    assert abs(schatten_norm(sv, alpha) - ref) <= 1e-12 * ref


def test_gram_route_solves_one_block_per_exchange_sector(monkeypatch):
    dims = []
    eigvalsh = dense.eigvalsh

    def spy(A):
        dims.append(A.shape[0])
        return eigvalsh(A)

    monkeypatch.setattr(dense, "eigvalsh", spy)
    # criterion 4's massless Dirac fit on the coarse grid of the benchmark's warm-up:
    # a centred well, so two blocks of dim / 2 at each of the nine ray points
    grid = TorusGrid(d=2, N=12, L=4.8)
    ray = boundary_ray(1.0, 3.0, 0.2, 9)
    verify_schatten_scaling(DIRAC2, grid, 1.5, ray, _gaussian_2d(grid, 1.0, 0.9))
    assert dims == [144] * 18
    # a well off the diagonal x_1 = x_2, and a kind with no exchange unitary: one block
    frac2 = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=2, s=1.0)
    off = PotentialSpec("gaussian", {"amplitude": -1.3 + 0.4j, "width": 0.9, "center": [0.3, 1.1]})
    massive = SymbolSpec(kind=SymbolKind.DIRAC_MASSIVE, d=2)
    for spec, V in ((frac2, sample_potential(off, grid)), (massive, _gaussian_2d(grid, 1.0, 0.9))):
        dims.clear()
        assemble_bs(spec, grid, V, 0.4 + 0.3j, 3.0)
        assert dims == [grid.size * spec.n]
    # d = 1 has no exchange: case (b) of a d = 1 fit takes one block of dim at each point
    dims.clear()
    frac1 = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=0.8)
    line = TorusGrid(d=1, N=64, L=30.0)
    verify_schatten_scaling(frac1, line, 1.0, fixed_argument_ray(math.pi, 0.5, 8.0, 9), gaussian_well(line, -1.0))
    assert dims == [64] * 9


def test_gram_route_logs_its_sector_dimensions(caplog):
    grid = TorusGrid(d=2, N=12, L=4.8)
    V = _gaussian_2d(grid, 1.0, 0.9)
    caplog.set_level(logging.DEBUG, logger="bslab")
    assemble_bs(DIRAC2, grid, V, 1.5 + 0.2j, 3.0)
    assemble_bs(SymbolSpec(kind=SymbolKind.DIRAC_MASSIVE, d=2), grid, V, 1.5 + 0.2j, 3.0)
    assemble_bs(DIRAC2, grid, V, 1.5 + 0.2j, 2.0)
    records = [r.getMessage() for r in caplog.records if r.getMessage().startswith("gram sectors")]
    assert records == ["gram sectors: 144, 144", "gram sectors: 288"]


def test_det_evaluator_reduces_the_hamiltonian_once(monkeypatch):
    grid = TorusGrid(d=1, N=24, L=8.0)
    V = gaussian_well(grid, -1.2 + 0.7j)
    calls = {"hessenberg_logdet": 0, "logdet": 0, "multiplier_matrix": 0, "_power_traces": 0}

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(dense, "hessenberg_logdet")
    spy(dense, "logdet")
    spy(birman_schwinger, "multiplier_matrix")
    spy(birman_schwinger, "_power_traces")
    points = (-0.9 - 0.35j, -0.5 + 0.2j, 0.3 + 0.6j, -1.7 - 0.1j)
    # order 2: no LU, no potential matrix and no matrix power at any point
    det = bs_det_evaluator(FRAC, grid, V, order=2)
    for z in points:
        det(z)
    assert calls == {"hessenberg_logdet": 1, "logdet": 0, "multiplier_matrix": 0, "_power_traces": 0}
    # order 3 builds G^ once and takes the powers of P(z) at each point
    det = bs_det_evaluator(FRAC, grid, V, order=3)
    for z in points:
        det(z)
    assert calls == {"hessenberg_logdet": 2, "logdet": 0, "multiplier_matrix": 1, "_power_traces": 4}


def test_det_evaluator_checks_the_potential_grid():
    V = gaussian_well(TorusGrid(d=1, N=32, L=20.0), -1.0)
    with pytest.raises(ValueError, match="potential grid does not match"):
        bs_det_evaluator(FRAC, TorusGrid(d=1, N=32, L=10.0), V, order=2)


# ---------------------------------------------------------------------------
# contour root search


def poly_det(roots):
    def fn(z):
        val = complex(1.0)
        for r in roots:
            val *= z - r
        return DetValue(log_abs=math.log(abs(val)) if val != 0 else -math.inf, phase=cmath.phase(val))

    return fn


def test_contour_roots_polynomial():
    roots = [0.3 + 0.2j, -0.4 + 0.45j]
    found = det_contour_roots(poly_det(roots), -1.0 - 0.5j, 1.0 + 1.0j)
    assert len(found) == 2
    for r in sorted(roots, key=lambda w: (w.real, w.imag)):
        assert min(abs(f - r) for f in found) < 1e-10


def test_contour_roots_empty_region():
    roots = [2.0 + 2.0j]
    found = det_contour_roots(poly_det(roots), -1.0 - 1.0j, 1.0 + 1.0j)
    assert found == []


def test_contour_double_root_multiplicity():
    r = 0.15 - 0.3j
    found = det_contour_roots(poly_det([r, r]), -1.0 - 1.0j, 1.0 + 0.5j)
    assert len(found) == 2
    assert all(abs(f - r) < 1e-6 for f in found)


def test_contour_budget_guard(monkeypatch):
    monkeypatch.setattr(birman_schwinger, "_MAX_EVALS", 3)
    with pytest.raises(RuntimeError, match="budget"):
        det_contour_roots(poly_det([0.0]), -1.0 - 1.0j, 1.0 + 1.0j)


def test_contour_zero_on_outer_boundary_is_typed():
    with pytest.raises(ContourBoundaryError):
        det_contour_roots(poly_det([1.0 + 0.0j]), -1.0 - 1.0j, 1.0 + 1.0j)
    assert issubclass(ContourBoundaryError, RuntimeError)


def test_contour_propagates_other_runtime_errors():
    # a determinant failure is not a zero on a cut, whatever its message says
    outer = poly_det([0.2 + 0.1j, -0.3 - 0.2j])
    interior_calls = []

    def det_fn(z):
        if abs(z.real) < 1.0 and abs(z.imag) < 1.0:
            interior_calls.append(z)
            raise RuntimeError("eigensolver stalled near the boundary of its band")
        return outer(z)

    # two zeros inside: no polish step, so the first interior sample lies on a cut
    with pytest.raises(RuntimeError, match="stalled") as err:
        det_contour_roots(det_fn, -1.0 - 1.0j, 1.0 + 1.0j)
    assert not isinstance(err.value, ContourBoundaryError)
    assert len(interior_calls) == 1


def test_contour_roots_dodge_a_zero_on_the_first_cut():
    # 0.5i lies on x = 0, the first cut of the box: that attempt is dropped and the cut moves
    roots = [0.5j, 0.5 - 0.3j]
    sampled = []

    def det_fn(z):
        sampled.append(z)
        return poly_det(roots)(z)

    found = det_contour_roots(det_fn, -1.0 - 1.0j, 1.0 + 1.0j)
    assert 0.5j in sampled
    assert len(found) == 2
    for r in sorted(roots, key=lambda w: (w.real, w.imag)):
        assert min(abs(f - r) for f in found) < 1e-10


def test_contour_pole_gives_negative_winding():
    pole = 0.2 + 0.1j
    with pytest.raises(RuntimeError, match="negative winding"):
        det_contour_roots(
            lambda z: DetValue(log_abs=-math.log(abs(z - pole)), phase=-cmath.phase(z - pole)),
            -1.0 - 1.0j,
            1.0 + 1.0j,
        )


def test_contour_roots_match_eigensolve():
    # The two most negative eigenvalues are well separated from the rest of
    # the spectrum; a rectangle around them must yield exactly two
    # determinant zeros, each matching the eigensolve to 1e-6.
    grid = TorusGrid(d=1, N=48, L=12.0)
    V = gaussian_well(grid, -3.0 - 0.3j)
    eigs = sorted(
        np.linalg.eigvals(dense_hamiltonian(FRAC, grid, V)), key=lambda z: z.real
    )
    targets = [complex(eigs[0]), complex(eigs[1])]
    third = complex(eigs[2])
    gap = third.real - targets[1].real
    assert gap > 0.25, "expected a clear gap after the two leftmost eigenvalues"
    x0 = targets[0].real - 0.3
    x1 = targets[1].real + 0.45 * gap
    y0 = min(z.imag for z in targets) - 0.3
    y1 = max(z.imag for z in targets) + 0.15
    assert y1 < -0.02  # rectangle stays clear of the essential axis [0, inf)
    det_fn = bs_det_evaluator(FRAC, grid, V, order=2)
    found = det_contour_roots(det_fn, complex(x0, y0), complex(x1, y1))
    assert len(found) == 2
    for z in targets:
        assert min(abs(f - z) for f in found) < 1e-6
    for f in found:
        assert min(abs(f - z) for z in targets) < 1e-6


# ---------------------------------------------------------------------------
# LU determinants against slow oracles


def eigenvalue_det(M, order):
    """(log_abs, phase) of prod_j (1+mu_j) exp(sum_{k<n} (-mu_j)^k / k) from eigvals."""
    mu = np.linalg.eigvals(M)
    logs = np.log(1.0 + mu) + sum((-mu) ** k / k for k in range(1, order))
    return float(np.sum(logs.real)), float(np.sum(logs.imag))


def same_phase(a, b, tol):
    return abs(math.remainder(a - b, 2.0 * math.pi)) <= tol


@st.composite
def random_matrices(draw):
    """Complex Gaussian matrices; some shifted so one eigenvalue of I+M is tiny.

    The LU and eigenvalue forms both lose about eps/|delta| when I+M has an
    eigenvalue delta, so near-singular draws keep |delta| >= 1e-3.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 40))
    scale = draw(st.floats(0.05, 3.0))
    M = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(dim)
    if draw(st.booleans()):
        delta = 10.0 ** draw(st.floats(-3.0, -1.0)) * cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
        M = M - (1.0 + np.linalg.eigvals(M)[0] + delta) * np.eye(dim)
    return M


@given(random_matrices(), st.integers(1, 3))
def test_lu_determinant_matches_eigenvalue_oracle(M, order):
    before = M.copy()
    dv = regularized_det(M, order)
    assert np.array_equal(M, before)
    log_abs, phase = eigenvalue_det(M, order)
    assert abs(dv.log_abs - log_abs) <= 1e-10 * max(1.0, abs(log_abs))
    assert same_phase(dv.phase, phase, 1e-10)


@given(random_matrices(), st.integers(1, 3), st.floats(-60.0, 60.0))
def test_det_phase_is_the_principal_value(M, order, twist):
    # a large imaginary shift winds the unreduced phase many times around
    dv = regularized_det(M + 1j * twist * np.eye(M.shape[0]) / M.shape[0], order)
    assert abs(dv.phase) <= math.pi


@st.composite
def finite_models(draw):
    """d=1 fractional Laplacian or massive Dirac, a complex well and z off the levels."""
    if draw(st.booleans()):
        spec = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=draw(st.floats(0.5, 2.0)))
    else:
        spec = SymbolSpec(kind=SymbolKind.DIRAC_MASSIVE, d=1)
    grid = TorusGrid(d=1, N=2 * draw(st.integers(4, 16)), L=draw(st.floats(2.0, 20.0)))
    amp = complex(draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0)))
    well = PotentialSpec("gaussian", {"amplitude": amp, "width": draw(st.floats(0.3, 2.0)), "center": [0.0]})
    z = complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-2.0, 2.0)))
    assume(np.min(np.abs(lattice_levels(spec, grid) - z)) >= 0.1)
    return spec, grid, sample_potential(well, grid), z


@given(finite_models())
def test_det1_is_the_ratio_of_hamiltonian_determinants(model):
    spec, grid, V, z = model
    H = dense_hamiltonian(spec, grid, V)
    H0 = dense_hamiltonian(spec, grid, V.scaled(0.0))
    eye = np.eye(H.shape[0])
    sign, log_h = np.linalg.slogdet(H - z * eye)
    sign0, log_h0 = np.linalg.slogdet(H0 - z * eye)
    expected = log_h - log_h0
    for dv in (regularized_det(bs_matrix(spec, grid, V, z), 1), bs_det_evaluator(spec, grid, V, 1)(z)):
        assert abs(dv.log_abs - expected) <= 1e-9 * max(1.0, abs(expected))
        assert same_phase(dv.phase, cmath.phase(sign) - cmath.phase(sign0), 1e-9)


@given(finite_models())
def test_det2_is_det1_times_exp_minus_trace(model):
    spec, grid, V, z = model
    M = bs_matrix(spec, grid, V, z)
    one, two = regularized_det(M, 1), regularized_det(M, 2)
    tr = complex(np.trace(M))
    assert abs(two.log_abs - (one.log_abs - tr.real)) <= 1e-12 * max(1.0, abs(one.log_abs), abs(tr))
    assert same_phase(two.phase, one.phase - tr.imag, 1e-12 * max(1.0, abs(tr)))
