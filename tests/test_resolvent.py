"""Free resolvent: multipliers, kernels, factorization, norm estimates."""

import numpy as np
import pytest

from bslab.lattice import GridFunction, TorusGrid, apply_multiplier, multiplier_matrix
from bslab.resolvent import (
    ResolventHandle,
    ResolventPoleError,
    boundary_epsilon,
    empirical_opnorm,
    factored_dirac_apply,
    kernel_array,
    local_spacing,
)
from bslab.symbols import SymbolSpec, dispersion_values


def _random_field(grid, seed=0, n=None):
    rng = np.random.default_rng(seed)
    shape = grid.shape + ((n,) if n else ())
    return GridFunction(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_resolvent_inverts_symbol():
    spec = SymbolSpec("fractional_laplacian", d=1, s=1.5)
    grid = TorusGrid(1, 64, 7.0)
    z = -0.7 + 0.3j
    f = _random_field(grid, seed=2)
    g = ResolventHandle(spec, grid, z).apply(f)
    tvals = dispersion_values(spec, grid.xi())[..., 0]
    back = apply_multiplier(tvals - z, g)
    assert np.abs(back.values - f.values).max() < 1e-12


def test_pole_rejection():
    spec = SymbolSpec("fractional_laplacian", d=1, s=1.5)
    grid = TorusGrid(1, 32, 4.0)
    level = dispersion_values(spec, grid.xi())[..., 0][3]
    with pytest.raises(ResolventPoleError):
        ResolventHandle(spec, grid, complex(level))


@pytest.mark.parametrize("kind,d", [("dirac_massless", 1), ("dirac_massless", 2),
                                    ("dirac_massive", 1), ("dirac_massive", 2)])
def test_dirac_factorization_small(kind, d):
    spec = SymbolSpec(kind, d=d)
    grid = TorusGrid(d, 16, 5.0)
    rng = np.random.default_rng(8)
    for _ in range(5):
        z = complex(*rng.standard_normal(2)) * 1.7
        f = _random_field(grid, seed=rng.integers(1e6), n=spec.n)
        direct = ResolventHandle(spec, grid, z).apply(f)
        factored = factored_dirac_apply(spec, grid, z, f)
        scale = np.abs(direct.values).max()
        assert np.abs(direct.values - factored.values).max() < 1e-12 * max(1.0, scale)


@pytest.mark.parametrize("kind,d", [("dirac_massless", 1), ("dirac_massive", 1), ("dirac_massive", 2)])
def test_dirac_apply_adjoint_is_the_conjugate_transpose(kind, d):
    # R0(z)^H of the dense site-major, spinor-minor matrix, block by block
    spec = SymbolSpec(kind, d=d)
    grid = TorusGrid(d, 8, 3.0)
    handle = ResolventHandle(spec, grid, 0.6 + 0.7j)
    R0 = multiplier_matrix(handle._mult, grid)
    f = _random_field(grid, seed=5, n=spec.n)
    adjoint = handle.apply_adjoint(f).values.ravel()
    expected = R0.conj().T @ f.values.ravel()
    assert np.abs(adjoint - expected).max() < 1e-12 * np.abs(expected).max()


def test_kernel_reproduces_convolution():
    spec = SymbolSpec("relativistic", d=1, s=0.8)
    grid = TorusGrid(1, 32, 6.0)
    h = ResolventHandle(spec, grid, 0.4 + 0.9j)
    kern = kernel_array(h)
    f = _random_field(grid, seed=3)
    # circular convolution with weight: (R f)(x_i) = w * sum_j K(x_i - x_j) f(x_j)
    idx = (np.arange(32)[:, None] - np.arange(32)[None, :]) % 32
    direct = grid.weight * (kern[idx] @ f.values)
    assert np.abs(direct - h.apply(f).values).max() < 1e-11


def test_kernel_torus_symmetry_radial():
    spec = SymbolSpec("fractional_laplacian", d=1, s=1.5)
    grid = TorusGrid(1, 64, 9.0)
    kern = kernel_array(ResolventHandle(spec, grid, -1.0 + 0.5j))
    # radial symbol: K(x) = K(-x) = K(L - x) on the torus
    assert np.abs(kern[1:] - kern[:0:-1]).max() < 1e-13 * np.abs(kern).max()


def test_fractional_kernel_scaling_identity():
    # K_{N,L}(x; z) = |z|^{d/s-1} K_{N, L |z|^{1/s}}(|z|^{1/s} x; z/|z|) exactly
    spec = SymbolSpec("fractional_laplacian", d=1, s=1.5)
    grid = TorusGrid(1, 64, 5.0)
    z = -2.0 + 1.5j
    t = abs(z) ** (1.0 / spec.s)
    co = TorusGrid(1, 64, 5.0 * t)
    lhs = kernel_array(ResolventHandle(spec, grid, z))
    rhs = kernel_array(ResolventHandle(spec, co, z / abs(z)))
    assert np.abs(lhs - abs(z) ** (spec.d / spec.s - 1.0) * rhs).max() < 1e-12 * np.abs(lhs).max()


def test_imaginary_part_identity_dense():
    # Im R0(z) = (Im z) R0(z) R0(zbar) as matrices, scalar and Dirac kinds
    for spec in [SymbolSpec("fractional_laplacian", d=1, s=1.5), SymbolSpec("dirac_massive", d=1)]:
        grid = TorusGrid(1, 16, 3.0)
        z = 0.8 + 0.6j
        r_z = multiplier_matrix(ResolventHandle(spec, grid, z)._mult, grid)
        r_zbar = multiplier_matrix(ResolventHandle(spec, grid, np.conj(z))._mult, grid)
        im_part = (r_z - r_z.conj().T) / 2j
        assert np.abs(im_part - z.imag * (r_z @ r_zbar)).max() < 1e-12


def test_opnorm_l2_matches_multiplier_sup():
    spec = SymbolSpec("fractional_laplacian", d=1, s=1.5)
    grid = TorusGrid(1, 64, 6.0)
    z = 0.9 + 0.05j
    h = ResolventHandle(spec, grid, z)
    est = empirical_opnorm(h, p=2.0)
    tvals = dispersion_values(spec, grid.xi())[..., 0]
    exact = float(np.max(1.0 / np.abs(tvals - z)))
    assert est.converged
    assert est.value == pytest.approx(exact, rel=1e-8)
    assert est.value <= exact * (1 + 1e-12)  # lower bound
    # monotone trace
    assert all(b >= a - 1e-12 * abs(b) for a, b in zip(est.trace, est.trace[1:]))


class _DenseOp:
    def __init__(self, grid, mat):
        self.grid, self.mat, self.spinor_dim = grid, mat, 1

    def apply(self, f):
        return GridFunction(self.grid, (self.mat @ f.values.reshape(-1)).reshape(self.grid.shape))

    def apply_adjoint(self, f):
        return GridFunction(self.grid, (self.mat.conj().T @ f.values.reshape(-1)).reshape(self.grid.shape))


def test_opnorm_one_to_inf_lower_bound_and_dominant_entry():
    grid = TorusGrid(1, 24, 3.0)
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    est = empirical_opnorm(_DenseOp(grid, mat), p=1.0)
    exact = np.abs(mat).max() / grid.weight
    # alternating argmax is a certified lower bound; it may stop at a local max
    assert est.value <= exact * (1 + 1e-12)
    assert est.value >= 0.8 * exact
    mat[7, 3] = 40.0 - 15.0j  # dominant entry: every restart should find it
    est = empirical_opnorm(_DenseOp(grid, mat), p=1.0)
    assert est.value == pytest.approx(np.abs(mat).max() / grid.weight, rel=1e-10)


def test_opnorm_2_2_dense_matches_svd():
    grid = TorusGrid(1, 16, 2.0)
    rng = np.random.default_rng(12)
    mat = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    est = empirical_opnorm(_DenseOp(grid, mat), p=2.0)
    assert est.value == pytest.approx(np.linalg.svd(mat, compute_uv=False)[0], rel=1e-6)


def test_local_spacing_and_boundary_epsilon():
    spec = SymbolSpec("fractional_laplacian", d=1, s=1.5)
    coarse = local_spacing(spec, TorusGrid(1, 64, 5.0), at=1.0)
    fine = local_spacing(spec, TorusGrid(1, 64, 20.0), at=1.0)
    assert coarse > fine > 0  # bigger box -> denser frequencies -> finer spacing
    assert boundary_epsilon(spec, TorusGrid(1, 64, 5.0), 1.0) == pytest.approx(4 * coarse)
