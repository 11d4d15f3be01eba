"""Potential families, file format, resampling, scaling family."""

import numpy as np
import pytest

from bslab.lattice import TorusGrid
from bslab.potentials import (
    PotentialField,
    PotentialFormatError,
    PotentialSpec,
    imaginary_potential,
    parse_potential_file,
    potential_norm,
    resample,
    sample_potential,
    scaled_field,
    write_potential_file,
)


def test_gaussian_sampling():
    grid = TorusGrid(1, 128, 20.0)
    spec = PotentialSpec("gaussian", {"amplitude": -3 + 0.5j, "width": 1.5, "center": 5.0})
    fld = sample_potential(spec, grid)
    x = grid.x()[..., 0]
    j = int(np.argmin(np.abs(x - 5.0)))
    assert fld.values[j] == pytest.approx(-3 + 0.5j, rel=1e-12)
    r = np.abs(grid.x_folded(5.0)[..., 0])  # min-image distance to the center
    assert np.abs(fld.values[r > 9.0]).max() < 1e-6


def test_gaussian_l1_norm_matches_integral():
    # width << L so the torus image sum is negligible: ||V||_1 = |A| w sqrt(2 pi)
    grid = TorusGrid(1, 512, 40.0)
    spec = PotentialSpec("gaussian", {"amplitude": 2.0 - 1.0j, "width": 1.2})
    fld = sample_potential(spec, grid)
    expected = abs(2.0 - 1.0j) * 1.2 * np.sqrt(2 * np.pi)
    assert potential_norm(fld, 1.0) == pytest.approx(expected, rel=1e-10)


def test_step_and_coulomb_values():
    grid = TorusGrid(1, 64, 8.0)
    step = sample_potential(PotentialSpec("step", {"amplitude": 2j, "radius": 1.0}), grid)
    assert set(np.round(step.values.reshape(-1), 12)) <= {0.0 + 0.0j, 0.0 + 2.0j}
    coul = sample_potential(
        PotentialSpec("coulomb_regularized", {"amplitude": 1.0, "softening": 0.5}), grid
    )
    assert coul.values[0] == pytest.approx(2.0)  # 1/sqrt(0 + 0.25)


def test_random_seeded_is_refinement_stable():
    base = TorusGrid(1, 16, 5.0)
    fine = TorusGrid(1, 64, 5.0)
    spec = PotentialSpec("random_seeded", {"amplitude": 1.5, "seed": 42, "modes": 8})
    coarse = sample_potential(spec, base)
    dense = sample_potential(spec, fine)
    # band-limited field: fine samples at shared sites equal coarse samples
    assert np.allclose(dense.values[::4], coarse.values, atol=1e-12)
    # and FFT resampling agrees with direct sampling on the fine grid
    assert np.allclose(resample(coarse, fine).values, dense.values, atol=1e-12)


def test_resample_gaussian_spectrally_accurate():
    coarse = TorusGrid(1, 64, 20.0)
    fine = TorusGrid(1, 128, 20.0)
    spec = PotentialSpec("gaussian", {"amplitude": 1.0, "width": 1.5})
    up = resample(sample_potential(spec, coarse), fine)
    direct = sample_potential(spec, fine)
    assert np.abs(up.values - direct.values).max() < 1e-10


def test_scaled_field_exact_family():
    grid = TorusGrid(1, 32, 10.0)
    fld = sample_potential(PotentialSpec("gaussian", {"amplitude": -1.0, "width": 1.0}), grid)
    out = scaled_field(fld, t=2.0, s=1.5)
    assert out.grid == TorusGrid(1, 32, 5.0)
    assert np.allclose(out.values, 2.0**1.5 * fld.values, rtol=0, atol=0)
    same = scaled_field(fld, t=1.0, s=1.5)
    assert np.array_equal(same.values, fld.values)


def test_imaginary_potential_flag_and_validation():
    grid = TorusGrid(1, 16, 4.0)
    w = np.abs(np.random.default_rng(0).standard_normal(grid.shape))
    fld = imaginary_potential(PotentialField(grid, w))
    assert fld.imaginary_nonneg
    assert np.allclose(fld.values, 1j * w)
    with pytest.raises(ValueError):
        imaginary_potential(PotentialField(grid, -w))
    psd = np.zeros(grid.shape + (2, 2), dtype=complex)
    psd[..., 0, 0] = w
    psd[..., 1, 1] = 2 * w
    assert imaginary_potential(PotentialField(grid, psd)).imaginary_nonneg
    bad = psd.copy()
    bad[..., 1, 1] = -1.0
    with pytest.raises(ValueError):
        imaginary_potential(PotentialField(grid, bad))


def test_imaginary_potential_takes_a_hermitian_psd_block_with_complex_entries():
    grid = TorusGrid(1, 16, 4.0)
    block = np.array([[1.0, 0.5j], [-0.5j, 1.0]])  # eigenvalues 0.5 and 1.5
    herm = np.broadcast_to(block, grid.shape + (2, 2))
    fld = imaginary_potential(PotentialField(grid, herm))
    assert fld.imaginary_nonneg
    assert np.array_equal(fld.values, 1j * herm)
    with pytest.raises(ValueError, match="W must be real"):
        imaginary_potential(PotentialField(grid, np.full(grid.shape, 1.0 + 0.5j)))
    with pytest.raises(ValueError, match="Hermitian"):
        imaginary_potential(PotentialField(grid, np.broadcast_to(np.array([[1.0, 0.5j], [0.5j, 1.0]]), herm.shape)))


def test_scaled_keeps_imaginary_flag_only_for_nonneg_real_factor():
    grid = TorusGrid(1, 16, 4.0)
    fld = imaginary_potential(PotentialField(grid, np.ones(grid.shape)))
    assert fld.scaled(2.0).imaginary_nonneg
    assert not fld.scaled(-2.0).imaginary_nonneg
    assert not fld.scaled(1j).imaginary_nonneg


def test_family_file_roundtrip(tmp_path):
    grid = TorusGrid(2, 16, 6.0)
    spec = PotentialSpec(
        "gaussian", {"amplitude": -2 + 0.25j, "width": 0.8, "center": [1.0, 2.0]}
    )
    path = tmp_path / "well.pot"
    write_potential_file(path, grid, spec)
    grid2, spec2 = parse_potential_file(path)
    assert grid2 == grid
    assert np.allclose(
        sample_potential(spec2, grid2).values, sample_potential(spec, grid).values, atol=1e-14
    )


def test_random_seeded_file_roundtrips_through_its_raw_tokens(tmp_path):
    # a parsed spec keeps the file's seed and modes tokens; writing it back must give the same file
    grid = TorusGrid(1, 16, 6.0)
    spec = PotentialSpec("random_seeded", {"amplitude": 1.5 + 0.0j, "seed": 42, "modes": 8})
    write_potential_file(tmp_path / "first.pot", grid, spec)
    _, parsed = parse_potential_file(tmp_path / "first.pot")
    write_potential_file(tmp_path / "second.pot", grid, parsed)
    assert (tmp_path / "second.pot").read_text() == (tmp_path / "first.pot").read_text()
    _, again = parse_potential_file(tmp_path / "second.pot")
    assert np.array_equal(sample_potential(again, grid).values, sample_potential(spec, grid).values)


def test_table_file_roundtrip(tmp_path):
    grid = TorusGrid(1, 8, 1.0)
    rng = np.random.default_rng(9)
    vals = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    spec = PotentialSpec("table", {"d": 1, "N": 8, "L": 1.0, "values": list(vals)})
    path = tmp_path / "table.pot"
    write_potential_file(path, grid, spec)
    grid2, spec2 = parse_potential_file(path)
    assert np.allclose(sample_potential(spec2, grid2).values, vals, atol=1e-15)


def test_parse_errors_name_the_field(tmp_path):
    p = tmp_path / "bad.pot"
    p.write_text("d 1\nL 1.0\nfamily gaussian\namplitude 1\nwidth 1\n")
    with pytest.raises(PotentialFormatError, match="potential.N"):
        parse_potential_file(p)
    p.write_text("d 1\nN 8\nL 1.0\nvalues\n1 2 3\n")
    with pytest.raises(PotentialFormatError, match="expected 8"):
        parse_potential_file(p)
    p.write_text("d 1\nN 8\nL 1.0\nfamily gaussian\namplitude 1\nwidth -2\n")
    with pytest.raises(PotentialFormatError, match="potential.width"):
        parse_potential_file(p)
    p.write_text("d 1\nN 8\nL 1.0\nfamily lennard\n")
    with pytest.raises(PotentialFormatError, match="potential.family"):
        parse_potential_file(p)
    p.write_text("d 1\nN 8\nL 1.0\nvalues\n1 2 3 4 5 6 7 oops\n")
    with pytest.raises(PotentialFormatError, match="complex literal"):
        parse_potential_file(p)
