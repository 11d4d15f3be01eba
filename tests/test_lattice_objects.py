"""Property tests of the lattice objects: T(xi), its level set and the local spacing."""

import bisect
import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bslab.lattice import TorusGrid
from bslab.resolvent import lattice_levels, local_spacing
from bslab.symbols import SymbolKind, SymbolSpec, dispersion_values, symbol_values

_HALF_N = {1: 32, 2: 8, 3: 4}  # small grids: N <= 64, 16, 8 for d = 1, 2, 3
_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def lattices(draw):
    """A symbol of any kind with d in {1, 2, 3}, on a small grid."""
    kind = draw(st.sampled_from(list(SymbolKind)))
    d = draw(st.integers(1, 3))
    spec = SymbolSpec(kind, d)
    if not spec.is_dirac:
        spec = SymbolSpec(kind, d, draw(st.floats(0.25, 3.0)))
    grid = TorusGrid(d, 2 * draw(st.integers(4, _HALF_N[d])), draw(st.floats(0.5, 40.0)))
    return spec, grid


@_SETTINGS
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


@_SETTINGS
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


@_SETTINGS
@given(lattices(), st.floats(-0.2, 1.2), st.integers(1, 12))
def test_local_spacing_matches_a_brute_force_recount(lattice, frac, window):
    spec, grid = lattice
    levels = sorted(set(dispersion_values(spec, grid.xi()).ravel().tolist()))
    at = levels[0] + frac * (levels[-1] - levels[0])
    idx = bisect.bisect_left(levels, at)
    near = levels[max(0, idx - window):idx + window]
    gaps = [b - a for a, b in zip(near, near[1:])] or [b - a for a, b in zip(levels, levels[1:])]
    expected = statistics.median(gaps)
    assert local_spacing(spec, grid, at, window) == pytest.approx(expected, rel=1e-12)
