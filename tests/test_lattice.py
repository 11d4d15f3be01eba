"""Grid transforms, weighted norms, multipliers."""

import numpy as np
import pytest

from bslab.lattice import (
    GridFunction,
    TorusGrid,
    apply_multiplier,
    lp_norm,
    multiplier_matrix,
)


def _random_field(grid, seed=0, n=None):
    rng = np.random.default_rng(seed)
    shape = grid.shape + ((n,) if n else ())
    return GridFunction(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(1, 7, 1.0)  # odd
    with pytest.raises(ValueError):
        TorusGrid(1, 6, 1.0)  # too small
    with pytest.raises(ValueError):
        TorusGrid(2, 128, 1.0)  # above the d=2 cap
    with pytest.raises(ValueError):
        TorusGrid(1, 16, 0.0)
    with pytest.raises(ValueError):
        TorusGrid(4, 16, 1.0)


@pytest.mark.parametrize("d", [True, False, 1.0, "1", None])
def test_grid_dimension_must_be_an_integer(d):
    with pytest.raises(TypeError, match="d="):
        TorusGrid(d, 8, 1.0)
    assert TorusGrid(np.int64(2), 8, 1.0).shape == (8, 8)


def test_plane_wave_multiplier_eigenvalue():
    # m(xi) = |xi|^2 on a plane wave with lattice index k gives (|k|/L)^2 times it
    grid = TorusGrid(1, 32, 5.0)
    k = 3
    wave = GridFunction(grid, np.exp(2j * np.pi * k * np.arange(32) / 32))
    out = apply_multiplier(np.sum(grid.xi() ** 2, axis=-1), wave)
    assert np.allclose(out.values, (k / grid.L) ** 2 * wave.values, atol=1e-13)


def test_spike_lp_norm():
    grid = TorusGrid(2, 8, 4.0)
    vals = np.zeros(grid.shape)
    vals[3, 5] = 1.0
    f = GridFunction(grid, vals)
    for p in (1.0, 1.5, 2.0, 3.0):
        assert lp_norm(f, p) == pytest.approx((grid.L / grid.N) ** (grid.d / p), rel=1e-14)
    assert lp_norm(f, np.inf) == 1.0


def test_norm_properties_random():
    grid = TorusGrid(1, 64, 2.0)
    rng = np.random.default_rng(7)
    for _ in range(20):
        f, g = _random_field(grid, rng.integers(1e6)), _random_field(grid, rng.integers(1e6))
        c = complex(*rng.standard_normal(2))
        for p in (1.0, 1.3, 2.0, 4.0, np.inf):
            assert lp_norm(GridFunction(grid, f.values + g.values), p) <= (
                lp_norm(f, p) + lp_norm(g, p) + 1e-12
            )
            assert lp_norm(GridFunction(grid, c * f.values), p) == pytest.approx(
                abs(c) * lp_norm(f, p), rel=1e-12
            )


def test_spinor_field_norm_uses_site_euclidean_norm():
    grid = TorusGrid(1, 8, 4.0)
    vals = np.zeros(grid.shape + (2,), dtype=complex)
    vals[0] = [3.0, 4.0]  # site magnitude 5 at one site
    f = GridFunction(grid, vals)
    assert lp_norm(f, np.inf) == pytest.approx(5.0)
    assert lp_norm(f, 1.0) == pytest.approx(5.0 * grid.weight)


def test_multiplier_matrix_matches_apply_scalar():
    grid = TorusGrid(2, 8, 2.0)
    mvals = np.exp(-np.sum(grid.xi() ** 2, axis=-1)) + 0.3j
    mat = multiplier_matrix(mvals, grid)
    f = _random_field(grid, seed=5)
    direct = apply_multiplier(mvals, f).values.reshape(-1)
    assert np.allclose(mat @ f.values.reshape(-1), direct, atol=1e-12)


def test_multiplier_matrix_matches_apply_spinor():
    grid = TorusGrid(1, 16, 2.0)
    xi = grid.xi()
    mvals = np.zeros(grid.shape + (2, 2), dtype=complex)
    mvals[..., 0, 1] = xi[..., 0]
    mvals[..., 1, 0] = xi[..., 0]
    mvals[..., 0, 0] = 1.0 + 0.5j
    mat = multiplier_matrix(mvals, grid)
    f = _random_field(grid, seed=6, n=2)
    direct = apply_multiplier(mvals, f).values.reshape(-1)
    assert np.allclose(mat @ f.values.reshape(-1), direct, atol=1e-12)


def test_multiplier_matrix_cap():
    grid = TorusGrid(3, 16, 1.0)
    with pytest.raises(ValueError):
        multiplier_matrix(np.ones(grid.shape + (4, 4)), grid)


def test_folded_coordinates_range():
    grid = TorusGrid(2, 16, 3.0)
    disp = grid.x_folded([1.0, 2.9])
    assert disp.min() >= -grid.L / 2 - 1e-12
    assert disp.max() < grid.L / 2
