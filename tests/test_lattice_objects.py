"""Property tests of the lattice objects: T(xi), its level set, the local spacing,
the field layout (site magnitudes, weighted L^p norms, site-diagonal embedding),
the dense multiplier assembly and the cached dense T(D) under every Hamiltonian,
and the matrix-free operator and interpolation against them."""

import bisect
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bslab import lattice, spectra
from bslab.lattice import (
    GridFunction,
    TorusGrid,
    add_site_diagonal,
    apply_multiplier,
    apply_operator,
    interpolate,
    lp_norm,
    multiplier_matrix,
    operator_norm_1,
    per_site,
    site_diagonal_sandwich,
    site_magnitudes,
)
from bslab.potentials import PotentialField, potential_norm
from bslab.resolvent import _SPACING_WINDOW, lattice_levels, local_spacing, local_spacings
from bslab.spectra import assemble_hamiltonian
from bslab.symbols import SymbolKind, SymbolSpec, dispersion_values, symbol_values

_HALF_N = {1: 32, 2: 8, 3: 4}  # small grids: N <= 64, 16, 8 for d = 1, 2, 3


@st.composite
def lattices(draw, kinds=tuple(SymbolKind)):
    """A symbol of one of kinds (default: any) with d in {1, 2, 3}, on a small grid."""
    kind = draw(st.sampled_from(kinds))
    d = draw(st.integers(1, 3))
    spec = SymbolSpec(kind, d)
    if not spec.is_dirac:
        spec = SymbolSpec(kind, d, draw(st.floats(0.25, 3.0)))
    grid = TorusGrid(d, 2 * draw(st.integers(4, _HALF_N[d])), draw(st.floats(0.5, 40.0)))
    return spec, grid


@given(lattices())
def test_symbol_values_diagonalize_to_the_dispersion_branches(lattice):
    spec, grid = lattice
    T = symbol_values(spec, grid.xi())
    if not spec.is_dirac:
        T = T[..., None, None]
    assert T.shape == grid.shape + (spec.n, spec.n)
    assert np.array_equal(T, np.conj(np.swapaxes(T, -1, -2)))
    branches = np.sort(dispersion_values(spec, grid.xi()), axis=-1)
    scale = max(1.0, float(np.abs(branches).max()))
    assert np.max(np.abs(np.linalg.eigvalsh(T) - branches)) <= 1e-12 * scale


@given(lattices())
def test_lattice_levels_are_the_cached_read_only_level_set(lattice):
    spec, grid = lattice
    levels = lattice_levels(spec, grid)
    assert np.array_equal(levels, np.unique(dispersion_values(spec, grid.xi())))
    assert not levels.flags.writeable
    with pytest.raises(ValueError):
        levels[0] = 0.0
    again = lattice_levels(SymbolSpec(spec.kind, spec.d, spec.s), TorusGrid(grid.d, grid.N, grid.L))
    assert again is levels


@given(lattices(), st.floats(-0.2, 1.2))
def test_local_spacing_matches_a_brute_force_recount(lattice, frac):
    spec, grid = lattice
    levels = sorted(set(dispersion_values(spec, grid.xi()).ravel().tolist()))
    at = levels[0] + frac * (levels[-1] - levels[0])
    idx = bisect.bisect_left(levels, at)
    near = levels[max(0, idx - _SPACING_WINDOW):idx + _SPACING_WINDOW]
    expected = statistics.median(b - a for a, b in zip(near, near[1:]))
    assert local_spacing(spec, grid, at) == pytest.approx(expected, rel=1e-12)


@given(lattices(), st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=40))
def test_local_spacings_equal_local_spacing_bit_for_bit(lattice, fracs):
    spec, grid = lattice
    levels = lattice_levels(spec, grid)
    ats = np.concatenate([levels[0] + np.array(fracs) * (levels[-1] - levels[0]), levels[:3], levels[-3:]])
    got = local_spacings(spec, grid, ats)
    assert got.shape == ats.shape
    for at, spacing in zip(ats, got):
        # the per-point rule: median gap in a window of levels around the insertion index
        idx = int(np.searchsorted(levels, at))
        expected = np.median(np.diff(levels[max(0, idx - _SPACING_WINDOW):idx + _SPACING_WINDOW]))
        assert spacing == expected == local_spacing(spec, grid, float(at))


# ---------------------------------------------------------------------------
# field layout

_LAYOUTS = ("scalar", "spinor", "block")


def _samples(grid, layout, n, seed):
    """Random complex samples in one layout, with about a quarter of the sites zero."""
    rng = np.random.default_rng(seed)
    tail = {"scalar": (), "spinor": (n,), "block": (n, n)}[layout]
    shape = grid.shape + tail
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    dead = rng.random(grid.shape) < 0.25
    return np.where(per_site(dead, vals, grid.d), 0.0, vals)


@st.composite
def fields(draw, layouts=_LAYOUTS, max_d=3):
    """(grid, layout, n, samples) for a small grid with d <= max_d."""
    d = draw(st.integers(1, max_d))
    grid = TorusGrid(d, 2 * draw(st.integers(4, {1: 16, 2: 6, 3: 4}[d])), draw(st.floats(0.5, 40.0)))
    layout = draw(st.sampled_from(layouts))
    n = draw(st.integers(2, 4))
    return grid, layout, n, _samples(grid, layout, n, draw(st.integers(0, 2**32 - 1)))


def _loop_magnitude(v, layout):
    if layout == "scalar":
        return abs(complex(v))
    if layout == "spinor":
        return math.sqrt(sum(abs(complex(c)) ** 2 for c in v))
    return float(np.linalg.svd(v, compute_uv=False)[0])


@given(fields())
def test_site_magnitudes_match_a_per_site_loop(field):
    grid, layout, n, vals = field
    mags = site_magnitudes(vals, grid.d)
    assert mags.shape == grid.shape
    for idx in np.ndindex(grid.shape):
        assert mags[idx] == pytest.approx(_loop_magnitude(vals[idx], layout), rel=1e-12, abs=0.0)


_POTENTIALS = ("scalar", "block")


@given(fields(_POTENTIALS), st.sampled_from([1.0, 1.25, 4.0 / 3.0, 2.0, 3.5, math.inf]))
def test_lp_norm_of_a_potential_is_potential_norm(field, q):
    grid, layout, n, vals = field
    V = PotentialField(grid, vals)
    assert lp_norm(V, q) == potential_norm(V, q)
    mags = [_loop_magnitude(vals[idx], layout) for idx in np.ndindex(grid.shape)]
    if math.isinf(q):
        expected = max(mags)
    else:
        expected = (grid.weight * sum(m**q for m in mags)) ** (1.0 / q)
    assert potential_norm(V, q) == pytest.approx(expected, rel=1e-11)


@given(fields(_POTENTIALS), st.floats(0.05, 0.999))
def test_potential_norm_rejects_q_below_one_for_scalar_and_matrix_v(field, q):
    grid, layout, n, vals = field
    with pytest.raises(ValueError, match="out of range"):
        potential_norm(PotentialField(grid, vals), q)


def _block_diagonal(vals, grid, n):
    """Dense diag of site-local values: each site's n x n block (or value times I_n)."""
    dim = grid.size * n
    out = np.zeros((dim, dim), dtype=complex)
    for j, idx in enumerate(np.ndindex(grid.shape)):
        v = vals[idx]
        out[j * n:(j + 1) * n, j * n:(j + 1) * n] = v * np.eye(n) if np.ndim(v) == 0 else v
    return out


@given(fields(_POTENTIALS, max_d=2), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_site_diagonal_embedding_is_the_block_diagonal_product(field, n_scalar, seed):
    grid, layout, n, left = field
    if layout == "scalar":
        n = n_scalar  # a scalar factor acts on each of n spinor components
    right = _samples(grid, layout, n, seed)
    dim = grid.size * n
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    L, R = _block_diagonal(left, grid, n), _block_diagonal(right, grid, n)
    work = mat.copy(order="F")  # the sandwich overwrites its matrix
    got = site_diagonal_sandwich(left, work, right, grid)
    assert got is work
    scale = np.abs(mat).max() * max(1.0, np.abs(left).max() * np.abs(right).max())
    assert np.max(np.abs(got - L @ mat @ R)) <= 1e-12 * n * scale
    if layout == "scalar":  # one temporary, the same products as the two-temporary expression
        lvec, rvec = np.repeat(left.ravel(), n), np.repeat(right.ravel(), n)
        assert np.array_equal(got, lvec[:, None] * mat * rvec[None, :])
    for order in "CF":
        assert np.array_equal(add_site_diagonal(mat.copy(order=order), left, grid), mat + L)


# ---------------------------------------------------------------------------
# dense multiplier assembly

_DIRAC_KINDS = tuple(k for k in SymbolKind if SymbolSpec(k, 1).is_dirac)


def _identity_fft_matrix(mvals, grid):
    """Reference scalar assembly: FFT the identity rows chunk by chunk, times m, FFT back."""
    dim = grid.size
    axes = tuple(range(1, grid.d + 1))
    out = np.empty((dim, dim), dtype=complex)
    chunk = max(1, min(dim, (1 << 23) // dim))
    for lo in range(0, dim, chunk):
        hi = min(lo + chunk, dim)
        block = np.zeros((hi - lo, dim), dtype=complex)
        block[np.arange(hi - lo), np.arange(lo, hi)] = 1.0
        spec = np.fft.fftn(block.reshape((hi - lo,) + grid.shape), axes=axes) * mvals[None]
        out[:, lo:hi] = np.fft.ifftn(spec, axes=axes).reshape(hi - lo, dim).T
    return out


def _multiplier(spec, grid, seed):
    """The symbol T(xi) of spec on grid plus random complex noise of its shape."""
    T = symbol_values(spec, grid.xi())
    rng = np.random.default_rng(seed)
    return T + rng.standard_normal(T.shape) + 1j * rng.standard_normal(T.shape)


@given(lattices(_DIRAC_KINDS), st.integers(0, 2**32 - 1))
def test_spinor_multiplier_blocks_are_the_scalar_multiplier_matrices(lattice, seed):
    spec, grid = lattice
    m = _multiplier(spec, grid, seed)
    blocks = multiplier_matrix(m, grid).reshape(grid.size, spec.n, grid.size, spec.n)
    for i, a in np.ndindex(spec.n, spec.n):
        assert np.array_equal(blocks[:, i, :, a], multiplier_matrix(m[..., i, a], grid))


@given(lattices(), st.integers(0, 2**32 - 1))
def test_multiplier_matrix_applies_the_multiplier(lattice, seed):
    spec, grid = lattice
    m = _multiplier(spec, grid, seed)
    rng = np.random.default_rng(seed + 1)
    shape = grid.field_shape(spec.n)
    f = GridFunction(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    direct = apply_multiplier(m, f).values.reshape(-1)
    got = multiplier_matrix(m, grid) @ f.values.reshape(-1)
    scale = max(1.0, np.abs(m).max()) * np.abs(f.values).max()
    assert np.max(np.abs(got - direct)) <= 1e-12 * scale


@given(lattices(), st.integers(0, 2**32 - 1))
def test_scalar_multiplier_matrix_is_the_identity_fft_assembly(lattice, seed):
    spec, grid = lattice
    m = _multiplier(spec, grid, seed)
    if spec.is_dirac:
        m = m[..., -1, 0]  # an off-diagonal block: a strided scalar multiplier
    assert np.array_equal(multiplier_matrix(m, grid), _identity_fft_matrix(m, grid))


def test_chunked_scalar_multiplier_matrix_is_the_identity_fft_assembly():
    # the reference takes 2796 columns per chunk (two chunks), multiplier_matrix
    # 2^16 // 3000 = 21 (143 chunks): a column's transform does not see its chunk
    grid = TorusGrid(1, 3000, 60.0)
    assert grid.size // (lattice._SCRATCH // grid.size) >= 3
    m = _multiplier(SymbolSpec(SymbolKind.FRACTIONAL_LAPLACIAN, 1, 1.5), grid, 0)
    got = multiplier_matrix(m, grid)
    assert got.flags.f_contiguous
    assert np.array_equal(got, _identity_fft_matrix(m, grid))


@given(lattices(), st.sampled_from(_POTENTIALS), st.integers(0, 2**32 - 1))
def test_hamiltonian_is_a_fresh_copy_of_the_cached_kinetic_matrix(lattice, layout, seed):
    spec, grid = lattice
    V = PotentialField(grid, _samples(grid, layout, spec.n, seed))
    T = multiplier_matrix(symbol_values(spec, grid.xi()), grid)
    expected = add_site_diagonal(T.copy(), V.values, grid)
    H = assemble_hamiltonian(spec, grid, V)
    assert np.array_equal(H, expected)
    assert H.flags.writeable
    H[...] = 0.0
    assert np.array_equal(assemble_hamiltonian(spec, grid, V), expected)
    cached = spectra._kinetic_matrix(spec, grid)
    assert np.array_equal(cached, T)
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0, 0] = 0.0


@given(lattices(), st.sampled_from(_POTENTIALS), st.integers(0, 2**32 - 1))
def test_matrix_free_operator_and_its_norm_match_the_assembled_hamiltonian(lat, layout, seed):
    spec, grid = lat
    V = PotentialField(grid, _samples(grid, layout, spec.n, seed))
    H = assemble_hamiltonian(spec, grid, V)
    m = symbol_values(spec, grid.xi())
    norm = np.linalg.norm(H, 1)
    assert math.isclose(operator_norm_1(m, V.values, grid), norm, rel_tol=1e-12)
    f = _samples(grid, "spinor" if spec.is_dirac else "scalar", spec.n, seed + 1)
    got = apply_operator(m, V.values, f, grid)
    assert got.shape == f.shape
    assert np.abs(got.reshape(-1) - H @ f.reshape(-1)).max() <= 1e-12 * np.abs(H).sum(axis=1).max() * np.abs(f).max()


@given(fields(), st.integers(0, 2**32 - 1))
def test_interpolation_is_exact_on_the_coarse_modes(field, seed):
    # a field made of modes below the coarse Nyquist, sampled on the fine grid,
    # is interpolated exactly from its every-other-site samples
    grid, _, _, samples = field
    fine = grid.refined()
    rng = np.random.default_rng(seed)
    shape = fine.shape + samples.shape[grid.d :]
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    low = np.abs(np.fft.fftfreq(fine.N, 1.0 / fine.N)) < grid.N // 2
    for ax in range(grid.d):
        coeffs *= low.reshape((-1,) + (1,) * (len(shape) - ax - 1))
    exact = np.fft.ifftn(coeffs, axes=fine.axes())
    coarse = exact[(slice(None, None, 2),) * grid.d]
    assert np.abs(interpolate(coarse, grid, fine) - exact).max() <= 1e-12 * np.abs(exact).max()
