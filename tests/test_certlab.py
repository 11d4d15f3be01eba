"""End-to-end verifier runs, certificates, regions, and the job scheduler."""

import cmath
import json
import logging
import math
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from bslab import birman_schwinger, certlab, cli, dense, lattice, spectra
from bslab.certlab import (
    BoundCertificate,
    JobError,
    Region,
    RegimeError,
    ScalingLaw,
    THEOREM_IDS,
    boundary_ray,
    certificate_json,
    discrete_spectrum,
    fit_scaling_law,
    fixed_argument_ray,
    preflight_schatten_scaling,
    preflight_uniform_resolvent,
    run_jobs,
    sum_space_norm,
    summary_csv,
    verify_imaginary,
    verify_individual_bounds,
    verify_main,
    verify_schatten_scaling,
    verify_uniform_resolvent,
    verify_weighted_sums,
)
from bslab.cli import load_config, main as cli_main
from bslab.conformal import weighted_blaschke_sum
from bslab.lattice import GridFunction, TorusGrid
from bslab.potentials import PotentialField, PotentialSpec, potential_norm, sample_potential, scaled_field
from bslab.resolvent import resolvent_multiplier
from bslab.symbols import SymbolKind, SymbolSpec

FRAC15 = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=1.5)
FRAC06 = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=0.6)
REL1 = SymbolSpec(kind=SymbolKind.RELATIVISTIC, d=1, s=1.0)
MASSLESS1 = SymbolSpec(kind=SymbolKind.DIRAC_MASSLESS, d=1)
MASSIVE1 = SymbolSpec(kind=SymbolKind.DIRAC_MASSIVE, d=1)


def gaussian(grid, amplitude, width=1.0):
    spec = PotentialSpec("gaussian", {"amplitude": amplitude, "width": width})
    return sample_potential(spec, grid)


# ---------------------------------------------------------------------------
# regions


def test_region_rectangle_contains_and_distance():
    K = Region((0.0, 2.0, 0.0, 1.0))
    assert K.contains(1.0 + 0.5j)
    assert K.contains(2.0 + 1.0j)  # closed
    assert not K.contains(2.1 + 0.5j)
    assert K.distance_to(1.0 + 0.5j) == 0.0
    assert math.isclose(K.distance_to(3.0 + 3.0j), math.sqrt(5.0))
    assert math.isclose(K.distance_to(-1.0 + 0.5j), 1.0)


def test_region_validation():
    with pytest.raises(ValueError):
        Region((1.0, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        Region((0.0, 1.0, 0.0, 1.0), clearance=0.0)


def test_region_clearance_against_critical_values():
    # massive Dirac has critical values at -1 and 1
    near = Region((0.8, 2.0, 0.1, 0.5), clearance=0.3)
    with pytest.raises(ValueError, match="clearance"):
        near.validate_for(MASSIVE1)
    Region((0.8, 2.0, 0.1, 0.5), clearance=0.05).validate_for(MASSIVE1)


# ---------------------------------------------------------------------------
# scaling laws and rays


def test_scaling_law_needs_eight_samples():
    with pytest.raises(ValueError, match="8 samples"):
        ScalingLaw(1.0, 1.0, 0.0, samples=7)


def test_fit_scaling_law_recovers_exact_slope():
    xs = np.linspace(0.0, 2.0, 9)
    law, intercept = fit_scaling_law(xs, 2.5 * xs + 1.0, predicted=2.5)
    assert abs(law.fitted - 2.5) < 1e-12
    assert law.residual < 1e-12
    assert abs(intercept - 1.0) < 1e-12
    assert law.samples == 9


def test_fit_scaling_law_rejects_uneven_spacing():
    xs = np.array([0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 1.0])
    with pytest.raises(ValueError, match="spaced"):
        fit_scaling_law(xs, xs, 1.0)
    with pytest.raises(ValueError, match="increasing"):
        fit_scaling_law(xs[::-1], xs, 1.0)


def test_ray_builders():
    ray = fixed_argument_ray(math.pi, 0.5, 8.0, 9)
    assert len(ray) == 9
    assert math.isclose(abs(ray[0]), 0.5) and math.isclose(abs(ray[-1]), 8.0)
    assert all(abs(cmath.phase(z) - math.pi) < 1e-12 for z in ray)
    line = boundary_ray(1.5, 6.0, 0.25, 9)
    assert all(z.imag == 0.25 for z in line)
    assert math.isclose(line[0].real, 1.5) and math.isclose(line[-1].real, 6.0)
    with pytest.raises(ValueError):
        fixed_argument_ray(0.3, 2.0, 1.0, 9)
    with pytest.raises(ValueError):
        boundary_ray(1.0, 2.0, -0.1, 9)


# ---------------------------------------------------------------------------
# sum-space norms


def test_sum_space_norm_spike_plus_floor():
    # dx = 0.1; the spike goes to L^1 (cost 10*dx = 1), the floor to L^inf
    grid = TorusGrid(d=1, N=16, L=1.6)
    vals = np.full(grid.shape, 0.1)
    vals[3] = 10.0
    f = GridFunction(grid, vals)
    assert abs(sum_space_norm(f, 1.0, math.inf) - 1.1) < 1e-12


def test_sum_space_norm_beats_random_splits():
    grid = TorusGrid(d=1, N=64, L=16.0)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    f = GridFunction(grid, vals)
    scanned = sum_space_norm(f, 5.0, math.inf)
    from bslab.lattice import lp_norm

    # the norm is the exact infimum over threshold splits, taken at every
    # data magnitude
    def split_cost(tau):
        big = np.abs(vals) > tau
        return lp_norm(GridFunction(grid, np.where(big, vals, 0.0)), 5.0) + lp_norm(
            GridFunction(grid, np.where(big, 0.0, vals)), math.inf
        )

    exact = min(split_cost(tau) for tau in [0.0, *np.abs(vals).ravel()])
    assert math.isclose(scanned, exact, rel_tol=1e-12)
    # and no random 50-split of the sites does better: the optimal split of
    # an L^{r1} + L^{inf} pair is a magnitude threshold
    for _ in range(50):
        mask = rng.random(grid.shape) < rng.random()
        f1 = GridFunction(grid, np.where(mask, vals, 0.0))
        f2 = GridFunction(grid, np.where(mask, 0.0, vals))
        assert scanned <= lp_norm(f1, 5.0) + lp_norm(f2, math.inf) + 1e-12


def test_sum_space_norm_edge_cases():
    grid = TorusGrid(d=1, N=8, L=8.0)
    assert sum_space_norm(GridFunction(grid, np.zeros(grid.shape)), 2.0, 4.0) == 0.0
    with pytest.raises(ValueError):
        sum_space_norm(GridFunction(grid, np.ones(grid.shape)), 4.0, 2.0)


# ---------------------------------------------------------------------------
# verify_main


def test_verify_main_threshold_and_bs_checks():
    grid = TorusGrid(d=1, N=64, L=30.0)
    V = gaussian(grid, -2.5)
    K = Region((-6.0, -0.05, -0.4, 0.4), clearance=0.04)
    cert = verify_main(FRAC15, grid, V, K, q=1.0)
    assert cert.verdict == "PASS"
    assert cert.theorem == "main"
    assert cert.lhs > 0.0
    # the coupling threshold for this well sits near 0.057
    assert 0.04 < cert.constant < 0.07
    # just below the threshold the window is eigenvalue-free: BS norm < 1
    assert 0.0 < cert.inputs["sweep_max_sigma1"] < 1.0
    # at the threshold the entering point solves the BS equation
    assert max(cert.inputs["bs_residuals"]) < 1e-6
    assert min(cert.inputs["sigma1_at_entry"]) >= 1.0 - 1e-9
    assert all(z.real < 0 for z in cert.inputs["entering_points"])


def test_verify_main_brackets_a_threshold_above_unit_coupling():
    # a shallow well: no point in K at t = 1, so the bracket doubles upward
    grid = TorusGrid(d=1, N=64, L=30.0)
    K = Region((-6.0, -0.05, -0.4, 0.4), clearance=0.04)
    cert = verify_main(FRAC15, grid, gaussian(grid, -0.05), K, q=1.0)
    assert cert.verdict == "PASS"
    assert cert.inputs["points_in_window"] == []
    t_lo, t_hi = cert.inputs["t_lo"], cert.inputs["t_hi"]
    # bisection halves [2^(k-1), 2^k] a fixed number of times
    t_start = (t_hi - t_lo) * 2**certlab._BISECT_STEPS
    assert t_start >= 1.0 and math.frexp(t_start)[0] == 0.5
    assert t_start <= t_lo < t_hi <= 2.0 * t_start
    assert cert.constant == t_hi


def test_verify_main_zero_potential_reports_only():
    grid = TorusGrid(d=1, N=48, L=24.0)
    V = PotentialField(grid, np.zeros(grid.shape))
    K = Region((-6.0, -0.05, -0.4, 0.4), clearance=0.04)
    cert = verify_main(FRAC15, grid, V, K, q=1.0, t_max=4.0)
    assert cert.verdict == "REPORT-ONLY"
    assert cert.lhs == 0.0
    assert cert.constant is None
    assert "no eigenvalue" in cert.inputs["threshold"]


def test_verify_main_rejects_bad_exponent():
    grid = TorusGrid(d=1, N=32, L=16.0)
    V = PotentialField(grid, np.zeros(grid.shape))
    K = Region((-2.0, -0.5, -0.2, 0.2))
    with pytest.raises(ValueError, match="exponent window"):
        verify_main(FRAC15, grid, V, K, q=3.0)


@pytest.mark.parametrize("t_max", [0.0, -1.0])
def test_verify_main_rejects_non_positive_t_max(t_max):
    grid = TorusGrid(d=1, N=32, L=16.0)
    K = Region((-2.0, -0.5, -0.2, 0.2))
    with pytest.raises(certlab.RegimeError, match="t_max") as err:
        verify_main(FRAC15, grid, gaussian(grid, -2.5), K, q=1.0, t_max=t_max)
    assert err.value.param == "t_max"


NAN = math.nan
_NAN_GRID = TorusGrid(d=1, N=32, L=16.0)
_NAN_K = Region((-6.0, 0.5, -0.4, 0.4), clearance=0.04)


# each range check written so that NaN fails it: (what raises, the error, and its
# RegimeError param or, for a ValueError, a piece of its message)
@pytest.mark.parametrize(
    "check, error, param",
    [
        (lambda: Region((-6.0, 0.5, -0.4, 0.4), clearance=NAN), ValueError, None),
        (lambda: certlab.preflight_main(FRAC15, _NAN_GRID, _NAN_K, NAN, 32.0), RegimeError, "q"),
        (lambda: verify_main(FRAC15, _NAN_GRID, gaussian(_NAN_GRID, -2.5), _NAN_K, q=NAN), RegimeError, "q"),
        (lambda: certlab.imaginary_q_window(FRAC15, NAN), RegimeError, "q"),
        (lambda: certlab.uniform_p_window(FRAC15, NAN), RegimeError, "p"),
        (lambda: certlab.preflight_individual_bounds(FRAC06, _NAN_GRID, NAN), RegimeError, "q"),
        (lambda: certlab.preflight_weighted_sums(FRAC15, _NAN_GRID, 1.0, None, NAN), RegimeError, "eps"),
        (lambda: certlab.preflight_weighted_sums(FRAC15, _NAN_GRID, NAN, None, 0.1), RegimeError, "q"),
        (lambda: certlab.preflight_weighted_sums(MASSIVE1, _NAN_GRID, 1.0, NAN, 0.1), RegimeError, "alpha"),
        (lambda: certlab.preflight_weighted_sums(REL1, _NAN_GRID, NAN, None, 0.1, "inverse_sqrt"), RegimeError, "q"),
        (lambda: boundary_ray(0.5, 2.0, NAN), ValueError, None),
        (lambda: birman_schwinger.schatten_norm(np.array([1.0, 0.5]), NAN), ValueError, None),
        (lambda: lattice.weighted_lp(np.ones(4), NAN, 1.0), ValueError, None),
        (lambda: gaussian(_NAN_GRID, -1.0, width=NAN), ValueError, None),
        (lambda: scaled_field(gaussian(_NAN_GRID, -1.0), NAN, 1.5), ValueError, "t must be positive"),
    ],
    ids=[
        "region-clearance", "preflight_main-q", "verify_main-q", "imaginary_q_window-q",
        "uniform_p_window-p", "preflight_individual_bounds-q", "preflight_weighted_sums-eps",
        "preflight_weighted_sums-q", "preflight_weighted_sums-alpha", "preflight_weighted_sums-inverse_sqrt-q",
        "boundary_ray-height", "schatten_norm-alpha", "weighted_lp-p", "gaussian-width", "scaled_field-t",
    ],
)
def test_nan_fails_every_range_check(check, error, param):
    with pytest.raises(error) as err:
        check()
    if error is RegimeError:
        assert err.value.param == param
    elif param is not None:
        assert param in str(err.value)


@pytest.mark.parametrize("d, s, q, accepted", [(2, 0.75, 1.5, True), (2, 1.0, 1.0, False), (2, 1.0, 1.2, True)],
                         ids=["2s<d", "2s=d-q=1", "2s=d-q>1"])
def test_imaginary_q_window_below_and_at_2s_eq_d(d, s, q, accepted):
    # 2s < d: d/(2s) <= q <= (d+1)/2; 2s = d: 1 < q <= (d+1)/2
    spec = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=d, s=s)
    if accepted:
        certlab.imaginary_q_window(spec, q)
    else:
        with pytest.raises(RegimeError, match="q > 1") as err:
            certlab.imaginary_q_window(spec, q)
        assert err.value.param == "q"


@pytest.mark.parametrize("spec", [MASSLESS1, MASSIVE1], ids=["massless", "massive"])
def test_weighted_sums_dirac_base_point_lies_two_rho_from_the_essential_spectrum(spec):
    # s*q = d: z0 = 2 rho i (massless) or i sqrt(4 rho^2 - 1) (massive), rho = max |V|
    grid = TorusGrid(d=1, N=64, L=12.0)
    V = gaussian(grid, -2.0 + 0.5j)
    cert = verify_weighted_sums(spec, grid, V, q=1.0, alpha=2.0, eps=0.5)
    rho, z0 = cert.inputs["rho"], cert.inputs["z0"]
    assert rho == float(np.abs(V.values).max())
    assert z0.real == 0.0 and z0.imag > 0.0
    assert spectra.dist_to_spectrum(spec, z0) == pytest.approx(2.0 * rho, rel=1e-14)


# ---------------------------------------------------------------------------
# verify_uniform_resolvent


def test_verify_uniform_resolvent_mapping_regime():
    grid = TorusGrid(d=1, N=256, L=40.0)
    K = Region((0.5, 3.0, 0.01, 0.6))
    cert = verify_uniform_resolvent(FRAC15, grid, K, p=1.0)
    assert cert.verdict == "PASS"
    assert cert.lhs <= 4.0
    assert cert.lhs == cert.inputs["scan_max"] / cert.inputs["scan_median"]
    assert cert.constant == cert.inputs["scan_max"] > 0.0
    assert cert.inputs["n_scan_points"] >= 8


@pytest.mark.parametrize("spec", [MASSLESS1, MASSIVE1], ids=["massless", "massive"])
def test_verify_uniform_resolvent_on_dirac_kinds(spec):
    # d = 1 Dirac sits at s = 2d/(d+1) = 1, in the mapping regime with p = 1
    cert = verify_uniform_resolvent(spec, TorusGrid(d=1, N=64, L=10.0), Region((1.5, 3.0, -0.5, 0.5)), p=1.0)
    assert cert.verdict == "PASS"
    assert cert.lhs <= 4.0
    assert cert.inputs["n_scan_points"] >= 8


def test_verify_uniform_resolvent_sum_space_regime():
    grid = TorusGrid(d=1, N=256, L=40.0)
    K = Region((0.4, 1.6, 0.01, 0.6))
    cert = verify_uniform_resolvent(FRAC06, grid, K, p=None)
    assert cert.verdict == "PASS"
    assert cert.lhs <= 4.0
    assert cert.constant == cert.inputs["scan_max"] == max(cert.inputs["scan_values"])


def test_verify_uniform_resolvent_argument_policing():
    grid = TorusGrid(d=1, N=256, L=40.0)
    K = Region((0.5, 3.0, 0.01, 0.6))
    with pytest.raises(ValueError, match="p is required"):
        verify_uniform_resolvent(FRAC15, grid, K, p=None)
    with pytest.raises(ValueError, match="pass p=None"):
        verify_uniform_resolvent(FRAC06, grid, K, p=1.0)
    with pytest.raises(ValueError, match="admissible window"):
        verify_uniform_resolvent(FRAC15, grid, K, p=1.5)


def test_verify_uniform_resolvent_dispersion_ceiling():
    # s=0.6 on this grid resolves dispersion values only up to about 2.01
    grid = TorusGrid(d=1, N=256, L=40.0)
    K = Region((0.5, 3.0, 0.01, 0.6))
    with pytest.raises(ValueError, match="dispersion range"):
        verify_uniform_resolvent(FRAC06, grid, K, p=None)


def test_verify_uniform_resolvent_thin_window_reports_only():
    grid = TorusGrid(d=1, N=256, L=40.0)
    K = Region((0.5, 3.0, 0.0001, 0.0005))
    cert = verify_uniform_resolvent(FRAC15, grid, K, p=1.0)
    assert cert.verdict == "REPORT-ONLY"
    assert cert.inputs["n_scan_points"] < 8


# ---------------------------------------------------------------------------
# verify_schatten_scaling


def test_verify_schatten_scaling_corescaled_is_exact():
    grid = TorusGrid(d=1, N=64, L=30.0)
    V = gaussian(grid, -1.0)
    ray = fixed_argument_ray(math.pi, 0.5, 8.0, 9)
    cert = verify_schatten_scaling(FRAC15, grid, 1.0, ray, V)
    assert cert.verdict == "PASS"
    # d/(sq) - 1 = -1/3, and co-rescaling makes the law exact on the lattice
    assert abs(cert.lhs + 1.0 / 3.0) < 1e-6
    assert cert.law.residual < 1e-10
    assert cert.inputs["co_rescaled"] is True
    assert cert.constant > 0.0


def test_schatten_scaling_preflight_checks_each_point_on_its_own_grid():
    # L = 1 puts the levels of |xi|^1.5 at k^1.5: 1, 2.83, 5.20, 8, ...
    grid = TorusGrid(d=1, N=64, L=1.0)
    on_level = fixed_argument_ray(1e-20, 1.0, 8.0, 9)
    with pytest.raises(RegimeError, match="within roundoff of lattice level 1") as err:
        preflight_schatten_scaling(FRAC15, grid, 1.0, on_level, gaussian(grid, -1.0))
    assert err.value.param == "ray"
    # the last point sits on the level 8 of grid, but is measured on grid.rescaled(t),
    # where it sits where the first point does on grid
    ray = fixed_argument_ray(1e-20, 0.5, 8.0, 9)
    preflight_schatten_scaling(FRAC15, grid, 1.0, ray, gaussian(grid, -1.0))
    cert = verify_schatten_scaling(FRAC15, grid, 1.0, ray, gaussian(grid, -1.0))
    assert cert.inputs["co_rescaled"] is True


def test_schatten_scaling_preflight_checks_the_dense_cap():
    # M(z) is dense: 16^3 sites times 4 spinor components is past the cap 8192;
    # the FFT-only uniform-resolvent scan takes the same grid
    spec = SymbolSpec(kind=SymbolKind.DIRAC_MASSLESS, d=3)
    grid = TorusGrid(d=3, N=16, L=8.0)
    with pytest.raises(RegimeError, match="exceeds the cap 8192") as err:
        preflight_schatten_scaling(spec, grid, 1.0, boundary_ray(1.0, 3.0, 0.2, 9), gaussian(grid, -1.0))
    assert err.value.param == "grid"
    preflight_uniform_resolvent(spec, grid, Region(bounds=(0.5, 1.5, 0.1, 0.3)), None)


def test_verify_schatten_scaling_massless_growth():
    grid = TorusGrid(d=1, N=256, L=16.0)
    V = gaussian(grid, -1.0)
    cert = verify_schatten_scaling(MASSLESS1, grid, 1.0, boundary_ray(1.5, 6.0, 0.25, 9), V)
    assert cert.verdict == "PASS"
    assert cert.rhs == 0.0  # (d-1)/(d+1) at d=1
    assert abs(cert.lhs - cert.rhs) <= 0.1
    assert cert.law.residual <= 0.05


def test_verify_schatten_scaling_relativistic_case_b_exponents():
    # s = 0.8 < 2d/(d+1) = 1: case (b), alpha = d/s + 1, and the predicted exponent
    # depends on which side of |z| = 1 the ray runs
    d, s = 1, 0.8
    spec = SymbolSpec(kind=SymbolKind.RELATIVISTIC, d=d, s=s)
    grid = TorusGrid(d=d, N=32, L=10.0)
    V = gaussian(grid, -1.0)
    for ray, predicted in (
        (fixed_argument_ray(math.pi, 0.05, 0.5, 8), s / 2.0 - 1.0),
        (fixed_argument_ray(math.pi, 1.0, 8.0, 8), 2.0 * d / (s * (d + 1)) - 1.0),
    ):
        cert = verify_schatten_scaling(spec, grid, 1.0, ray, V)
        assert cert.inputs["case"] == "b"
        assert cert.inputs["predicted"] == cert.rhs == predicted


def test_verify_schatten_scaling_ray_policing():
    grid = TorusGrid(d=1, N=64, L=30.0)
    V = gaussian(grid, -1.0)
    with pytest.raises(ValueError, match="at least 8"):
        verify_schatten_scaling(FRAC15, grid, 1.0, fixed_argument_ray(math.pi, 0.5, 8.0, 9)[:5], V)
    with pytest.raises(ValueError, match="essential spectrum"):
        verify_schatten_scaling(FRAC15, grid, 1.0, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0], V)
    with pytest.raises(ValueError, match="fixed-argument"):
        verify_schatten_scaling(FRAC15, grid, 1.0, boundary_ray(0.5, 8.0, 0.3, 9), V)
    with pytest.raises(ValueError, match="one .z. regime"):
        verify_schatten_scaling(REL1, grid, 1.0, fixed_argument_ray(2.6, 0.5, 2.0, 9), V)
    with pytest.raises(ValueError, match="z.2 - 1"):
        verify_schatten_scaling(MASSIVE1, grid, 1.0, boundary_ray(0.9, 3.0, 0.1, 9), V)


# ---------------------------------------------------------------------------
# verify_individual_bounds


def test_verify_individual_bounds_exact_invariance():
    spec = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=0.75)
    grid = TorusGrid(d=1, N=96, L=24.0)
    V = gaussian(grid, -2.5 - 0.8j)
    cert = verify_individual_bounds(spec, grid, V, q=4.0 / 3.0)
    assert cert.verdict == "PASS"
    assert cert.lhs <= 1e-10  # ratio drift across t in {1/4 .. 4}
    assert cert.inputs["spectrum_drift"] <= 1e-10
    assert cert.constant > 0.0
    assert cert.inputs["sup_sectorial"] >= 0.0


def _explicit_scaling_drifts(spec, grid, V, q):
    """spectrum_drift and ratio_drift with every t in the scaling family solved, t = 1 too.

    The ratio at t reads the solved eigenvalue nearest t^s times the anchor.
    """
    points = spectra.classified_spectrum(spec, grid, V)
    anchor = max(
        (p for p in points if p.label is spectra.SpectralLabel.DISCRETE), key=lambda p: p.dist_sigma
    )
    base_eigs = np.array([p.z for p in points])
    ratios, spectrum_drift = {}, 0.0
    for t in certlab._SCALING_TS:
        Vt = scaled_field(V, t, spec.s)
        eigs_t = spectra.eigensolve(spectra.assemble_hamiltonian(spec, grid.rescaled(t), Vt))
        scale = t**spec.s
        gaps = np.abs(eigs_t[:, None] - scale * base_eigs[None, :])  # compared as sets, both ways
        drift = max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) / (scale * np.abs(base_eigs).max())
        spectrum_drift = max(spectrum_drift, float(drift))
        z_t = eigs_t[np.argmin(np.abs(eigs_t - scale * anchor.z))]
        ratios[t] = abs(z_t) ** (q - spec.d / spec.s) / potential_norm(Vt, q) ** q
    return spectrum_drift, max(abs(ratios[t] / ratios[1.0] - 1.0) for t in certlab._SCALING_TS)


def test_verify_individual_bounds_matches_pt_symmetric_pairs_across_rescalings():
    # V(-x) = conj V(x): conjugate pairs share their real parts up to rounding, so
    # eigensolve's (Re, Im) sort can order a pair differently at each t
    spec = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=0.75)
    grid = TorusGrid(d=1, N=64, L=20.0)
    x = grid.x_folded(grid.L / 2)[..., 0]
    V = PotentialField(grid, (-4.0 + 1.5j * x) * np.exp(-x**2 / 2))
    cert = verify_individual_bounds(spec, grid, V, q=2.0)
    assert cert.verdict == "PASS"
    assert cert.inputs["spectrum_drift"] <= 1e-12
    assert cert.inputs["ratio_drift"] <= 1e-12


def test_verify_individual_bounds_solves_the_base_hamiltonian_once(monkeypatch):
    spec = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=0.6)
    grid = TorusGrid(d=1, N=64, L=16.0)
    V = gaussian(grid, -2.0)
    solved = []
    real_eigensolve = spectra.eigensolve

    def spy(H):
        solved.append(np.asarray(H).tobytes())
        return real_eigensolve(H)

    monkeypatch.setattr(spectra, "eigensolve", spy)
    monkeypatch.setattr(certlab, "eigensolve", spy)
    cert = verify_individual_bounds(spec, grid, V, q=2.0)
    base = spectra.assemble_hamiltonian(spec, grid, V).tobytes()
    # t = 1 of the scaling family reads the base spectrum: no matrix is solved twice
    assert solved.count(base) == 1
    assert len(set(solved)) == len(solved)
    monkeypatch.undo()
    assert (cert.inputs["spectrum_drift"], cert.inputs["ratio_drift"]) == _explicit_scaling_drifts(
        spec, grid, V, 2.0
    )
    assert cert.inputs["spectrum_drift"] > 0.0


def test_verify_individual_bounds_stable_under_refinement():
    spec = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=0.75)
    grid = TorusGrid(d=1, N=96, L=24.0)
    coarse = verify_individual_bounds(spec, grid, gaussian(grid, -2.5 - 0.8j), q=4.0 / 3.0)
    fine_grid = grid.refined()
    fine = verify_individual_bounds(spec, fine_grid, gaussian(fine_grid, -2.5 - 0.8j), q=4.0 / 3.0)
    assert abs(fine.constant - coarse.constant) <= 0.2 * coarse.constant


def test_verify_individual_bounds_regime_policing():
    grid = TorusGrid(d=1, N=32, L=16.0)
    V = gaussian(grid, -1.0)
    with pytest.raises(ValueError, match="0 < s < d"):
        verify_individual_bounds(FRAC15, grid, V, q=1.0)
    spec = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=0.75)
    with pytest.raises(ValueError, match="exponent floor"):
        verify_individual_bounds(spec, grid, V, q=1.2)
    flat = PotentialField(grid, np.zeros(grid.shape))
    cert = verify_individual_bounds(spec, grid, flat, q=4.0 / 3.0)
    assert cert.verdict == "REPORT-ONLY"
    # exact t^s scaling needs a homogeneous symbol
    for inhomogeneous in (SymbolSpec(kind=SymbolKind.RELATIVISTIC, d=1, s=0.8), MASSIVE1):
        with pytest.raises(RegimeError, match="massless Dirac kinds, not") as err:
            verify_individual_bounds(inhomogeneous, grid, V, q=2.0)
        assert err.value.param == "kind"


# ---------------------------------------------------------------------------
# verify_imaginary


def test_imaginary_multiplier_identity_is_exact():
    # Im R0(z) = (Im z) R0(z) R0(conj z) holds pointwise on the symbol
    grid = TorusGrid(d=1, N=64, L=16.0)
    z = 0.8 + 0.3j
    m = resolvent_multiplier(FRAC15, grid, z)
    mc = resolvent_multiplier(FRAC15, grid, z.conjugate())
    resid = np.max(np.abs((m - mc) / 2j - z.imag * m * mc))
    assert resid < 1e-12 * np.max(np.abs(m * mc))


def test_verify_imaginary_passes_for_nonneg_w():
    spec = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=1.0)
    grid = TorusGrid(d=1, N=96, L=24.0)
    W = gaussian(grid, 2.0)
    cert = verify_imaginary(spec, W, q=1.0)
    assert cert.verdict == "PASS"
    assert cert.lhs <= 1e-10  # dense-matrix identity residual
    assert cert.inputs["re_q_deviation"] <= 1e-6
    assert cert.inputs["eigenvalues_checked"] > 0
    assert cert.constant > 0.0


def test_verify_imaginary_gives_the_same_verdict_from_full_eigendecompositions(monkeypatch):
    # a zero tolerance refuses every shift-invert pair, so the BS eigenvectors
    # and the fine partners come from the full eigendecompositions
    spec = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=1.0)
    grid = TorusGrid(d=1, N=96, L=24.0)
    W = gaussian(grid, 2.0)
    cert = verify_imaginary(spec, W, q=1.0)
    monkeypatch.setattr(dense, "_RESIDUAL_TOLERANCE", 0.0)
    fallback = verify_imaginary(spec, W, q=1.0)
    assert cert.verdict == fallback.verdict == "PASS"
    assert fallback.inputs["eigenvalues_checked"] == cert.inputs["eigenvalues_checked"] > 0
    assert fallback.inputs["re_q_deviation"] <= 1e-6


def test_verify_imaginary_zero_w_is_vacuous_pass():
    spec = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=1.0)
    grid = TorusGrid(d=1, N=48, L=16.0)
    W = PotentialField(grid, np.zeros(grid.shape))
    cert = verify_imaginary(spec, W, q=1.0)
    assert cert.verdict == "PASS"
    assert cert.inputs["eigenvalues_checked"] == 0
    assert cert.constant is None


def test_verify_imaginary_policing():
    grid = TorusGrid(d=1, N=48, L=16.0)
    spec = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        verify_imaginary(spec, gaussian(grid, -1.0), q=1.0)
    with pytest.raises(ValueError, match="kinds"):
        verify_imaginary(MASSIVE1, gaussian(grid, 1.0), q=1.0)
    with pytest.raises(ValueError, match="window"):
        verify_imaginary(spec, gaussian(grid, 1.0), q=0.8)


# ---------------------------------------------------------------------------
# verify_weighted_sums


def test_verify_weighted_sums_growth_fit():
    grid = TorusGrid(d=1, N=64, L=30.0)
    V = gaussian(grid, -2.5)
    cert = verify_weighted_sums(FRAC15, grid, V, q=1.0, alpha=None, eps=0.5)
    assert cert.verdict == "PASS"
    # budget = (1+eps) q/(sq-d) + 0.2 = 3.2 for these parameters
    assert math.isclose(cert.rhs, 3.2)
    assert cert.lhs <= cert.rhs
    assert len(cert.inputs["ladder"]) == 13
    assert cert.inputs["counts"][-1] >= 1
    # sq > d: the base point comes from the explicit formula
    assert cert.inputs["c_emp"] > 0.0
    z0 = cert.inputs["z0"]
    assert z0.real < 0.0 and z0.imag == 0.0


def test_verify_weighted_sums_relativistic_reports():
    grid = TorusGrid(d=1, N=64, L=30.0)
    V = gaussian(grid, -2.5)
    cert = verify_weighted_sums(REL1, grid, V, q=1.0, alpha=2.0, eps=0.5)
    assert cert.verdict == "REPORT-ONLY"
    assert cert.inputs["weight"] == "relativistic"
    # sq = d: the base point comes from the truncation fallback
    assert cert.inputs["rho"] > 0.0
    assert cert.constant > 0.0


def test_verify_weighted_sums_inverse_sqrt_variant():
    grid = TorusGrid(d=1, N=64, L=30.0)
    V = gaussian(grid, -2.5)
    cert = verify_weighted_sums(REL1, grid, V, q=1.0, alpha=None, eps=0.5, variant="inverse_sqrt")
    assert cert.verdict == "REPORT-ONLY"
    assert cert.inputs["weight"] == "inverse_sqrt"
    assert math.isclose(cert.rhs, 1.7)  # (1+eps) q/(2q-d) + 0.2
    assert "fitted_growth" in cert.inputs


def test_weighted_sum_cross_check_against_plain():
    # single discrete point: weighted sum / plain sum equals the |z| weight
    grid = TorusGrid(d=1, N=64, L=30.0)
    V = gaussian(grid, -2.5).scaled(0.08)
    pts = discrete_spectrum(FRAC15, grid, V)
    assert len(pts) == 1
    plain = weighted_blaschke_sum(pts, "plain")
    weighted = weighted_blaschke_sum(pts, "inverse_sqrt", eps=0.5)
    manual = pts[0].dist_sigma * abs(pts[0].z) ** (-0.25)
    assert abs(plain - pts[0].dist_sigma) < 1e-14
    assert abs(weighted - manual) <= 1e-10 * manual


def test_verify_weighted_sums_policing():
    grid = TorusGrid(d=1, N=32, L=16.0)
    V = gaussian(grid, -1.0)
    with pytest.raises(ValueError, match="eps"):
        verify_weighted_sums(FRAC15, grid, V, q=1.0, alpha=None, eps=0.0)
    with pytest.raises(ValueError, match="d/s < q"):
        verify_weighted_sums(FRAC15, grid, V, q=2.0 / 3.0, alpha=None, eps=0.5)
    with pytest.raises(ValueError, match="alpha"):
        verify_weighted_sums(MASSLESS1, grid, V, q=1.0, alpha=None, eps=0.5)
    with pytest.raises(ValueError, match="exceed d"):
        verify_weighted_sums(MASSLESS1, grid, V, q=1.0, alpha=0.5, eps=0.5)
    with pytest.raises(ValueError, match="relativistic kind"):
        verify_weighted_sums(FRAC15, grid, V, q=1.0, alpha=None, eps=0.5, variant="inverse_sqrt")


def _coupling_calls(monkeypatch):
    """Coupling t of every discrete_spectrum request and of every solve beneath
    the spectrum memo, read off V.scaled(t)."""
    made, calls = {}, {"requested": [], "solved": []}
    scaled, request, solve = PotentialField.scaled, certlab.discrete_spectrum, spectra._solve_classified

    def scaled_spy(self, c):
        out = scaled(self, c)
        made[id(out)] = (out, c)  # holding out keeps its id unique
        return out

    def request_spy(spec, grid, V):
        calls["requested"].append(made[id(V)][1])
        return request(spec, grid, V)

    def solve_spy(spec, grid, V):
        calls["solved"].append(made[id(V)][1])
        return solve(spec, grid, V)

    monkeypatch.setattr(PotentialField, "scaled", scaled_spy)
    monkeypatch.setattr(certlab, "discrete_spectrum", request_spy)
    monkeypatch.setattr(spectra, "_solve_classified", solve_spy)
    return calls


def test_verify_weighted_sums_zero_potential_reports_only(monkeypatch):
    # no coupling binds: the bracket doubles t from 1 up to its cap 64, once
    # each; t * 0 is one potential, so the memo solves it once
    calls = _coupling_calls(monkeypatch)
    grid = TorusGrid(d=1, N=64, L=30.0)
    V = PotentialField(grid, np.zeros(grid.shape))
    cert = verify_weighted_sums(FRAC15, grid, V, q=1.0, alpha=None, eps=0.5)
    assert cert.verdict == "REPORT-ONLY"
    assert cert.inputs["note"] == "no Discrete eigenvalues at any probed coupling"
    assert calls["requested"] == [2.0**k for k in range(7)]
    assert calls["solved"] == [1.0]


def test_verify_weighted_sums_shallow_well_enters_above_unit_coupling(monkeypatch):
    # the first Discrete point appears at t = 4: the bracket doubles 1 -> 2 -> 4
    # and the ladder t_entry * 2**(k/2), k = -2..10, reuses 2 and 4
    calls = _coupling_calls(monkeypatch)
    grid = TorusGrid(d=1, N=64, L=30.0)
    cert = verify_weighted_sums(FRAC15, grid, gaussian(grid, -0.05), q=1.0, alpha=None, eps=0.5)
    ladder, counts = cert.inputs["ladder"], cert.inputs["counts"]
    assert ladder[2] == 4.0  # t_entry
    assert counts[0] == 0 and counts[2] >= 1
    assert len(calls["solved"]) == len(set(calls["solved"])) == 14
    assert set(calls["solved"]) == {1.0, *ladder}


GOLDEN = Path(__file__).resolve().parent.parent / "configs" / "golden.json"


def _golden_scan(out):
    assert cli_main(["scan", "--config", str(GOLDEN), "--out", str(out), "--deterministic"]) == 0


def _solver_calls(monkeypatch):
    """V bytes of every solve beneath the spectrum memo, the dimension of every
    eigensolve, the (dimension, dtype) of every Hermitian eigensolve, and the
    count of shift-invert partner solves."""
    seen = {"solves": [], "dims": Counter(), "hermitian": Counter(), "partners": 0}
    solve, eig, nearest = spectra._solve_classified, spectra.eigensolve, dense.nearest_eigenpair
    eigh = dense.eigvalsh

    def solve_spy(spec, grid, V):
        seen["solves"].append(V.values.tobytes())
        return solve(spec, grid, V)

    def eig_spy(H):
        seen["dims"][H.shape[0]] += 1
        return eig(H)

    def eigh_spy(A):
        seen["hermitian"][A.shape[0], A.dtype.name] += 1
        return eigh(A)

    def nearest_spy(H, z):
        seen["partners"] += 1
        return nearest(H, z)

    monkeypatch.setattr(spectra, "_solve_classified", solve_spy)
    monkeypatch.setattr(spectra, "eigensolve", eig_spy)
    monkeypatch.setattr(dense, "eigvalsh", eigh_spy)
    monkeypatch.setattr(dense, "nearest_eigenpair", nearest_spy)
    return seen


def test_golden_verifiers_solve_each_coupling_once(tmp_path, monkeypatch):
    # main bisects from [0, 1] and weighted-sums halves from t = 1: both probe
    # t = 1, 1/2, ..., 1/32, and spectra.csv reads t = 1 again.  One memo for
    # the scan solves every distinct t*V once, and spectra.csv solves nothing.
    # The golden well is real and its symbol scalar, so each coupling that has
    # a point beyond eta takes its 2N partners from one real symmetric
    # eigensolve of Re H_2N, never a complex one and never shift-invert.
    seen = _solver_calls(monkeypatch)
    csv_eigensolves = []
    classified = cli.classified_spectrum

    def csv_spy(spec, grid, V):
        before = sum(seen["dims"].values())
        points = classified(spec, grid, V)
        csv_eigensolves.append(sum(seen["dims"].values()) - before)
        return points

    monkeypatch.setattr(cli, "classified_spectrum", csv_spy)
    _golden_scan(tmp_path)
    assert len(seen["solves"]) == len(set(seen["solves"])) == 22
    assert seen["dims"] == {64: 22}
    assert seen["hermitian"] == {(128, "float64"): 18}
    assert seen["partners"] == 0
    assert csv_eigensolves == [0]


def test_spectrum_memo_ends_with_each_scan(tmp_path, monkeypatch):
    # nothing a scan solved is served to the next scan or to a library call
    seen = _solver_calls(monkeypatch)
    _golden_scan(tmp_path / "first")
    _golden_scan(tmp_path / "second")
    assert seen["dims"] == {64: 2 * 22}
    cfg = load_config(GOLDEN)
    K = Region(bounds=(-6.0, -0.05, -0.4, 0.4), clearance=0.04)
    verify_main(cfg.spec, cfg.grid, cfg.potential, K, q=1.0)
    assert seen["dims"] == {64: 2 * 22 + 15}
    assert len(set(seen["solves"][-15:])) == 15


def test_scan_logs_its_memo_once(tmp_path, caplog):
    # the verifiers' own scopes join the scan's: one record when the scan ends
    caplog.set_level(logging.DEBUG, logger="bslab")
    _golden_scan(tmp_path)
    records = [r.getMessage() for r in caplog.records if "memo" in r.getMessage()]
    assert records == ["22 couplings solved, 14 served from the memo"]


# ---------------------------------------------------------------------------
# certificates


def _quick_cert(seed=0):
    grid = TorusGrid(d=1, N=64, L=30.0)
    V = gaussian(grid, -1.0)
    ray = fixed_argument_ray(math.pi, 0.5, 8.0, 9)
    return verify_schatten_scaling(FRAC15, grid, 1.0, ray, V, seed=seed)


def test_certificate_json_schema():
    cert = _quick_cert()
    doc = certificate_json(cert)
    assert set(doc) == {
        "theorem",
        "inputs",
        "lhs",
        "rhs",
        "constant",
        "verdict",
        "seed",
        "runtime_s",
        "grid",
    }
    assert set(doc["grid"]) == {"d", "N", "L"}
    assert doc["theorem"] in THEOREM_IDS
    assert doc["runtime_s"] > 0.0
    # complex values serialize as [re, im] pairs
    assert doc["inputs"]["ray"][0] == [pytest.approx(-0.5), pytest.approx(0.0, abs=1e-15)]
    json.dumps(doc)  # must be valid JSON material


def test_certificate_rerun_is_bit_identical():
    a = json.dumps(certificate_json(_quick_cert(), deterministic=True), sort_keys=True)
    b = json.dumps(certificate_json(_quick_cert(), deterministic=True), sort_keys=True)
    assert a == b
    assert '"runtime_s": 0.0' in a


def test_summary_csv_layout():
    certs = [_quick_cert()]
    text = summary_csv(certs, deterministic=True)
    lines = text.strip().split("\n")
    assert lines[0] == "theorem,verdict,lhs,rhs,constant,seed,runtime_s,d,N,L"
    assert len(lines) == 2
    assert lines[1].startswith("schatten-scaling,PASS,")


def test_certificate_field_validation():
    with pytest.raises(ValueError, match="verdict"):
        BoundCertificate("main", {}, 0.0, None, None, "MAYBE", 0, 0.0, {"d": 1, "N": 8, "L": 1.0})
    with pytest.raises(ValueError, match="theorem id"):
        BoundCertificate("bogus", {}, 0.0, None, None, "PASS", 0, 0.0, {"d": 1, "N": 8, "L": 1.0})


# ---------------------------------------------------------------------------
# job scheduler


def test_run_jobs_preserves_submission_order():
    def make(tag, delay):
        def fn():
            time.sleep(delay)
            return BoundCertificate(
                "main", {"tag": tag}, 0.0, None, None, "REPORT-ONLY", 0, delay,
                {"d": 1, "N": 8, "L": 1.0},
            )

        return fn

    out = run_jobs({"slow": make("slow", 0.05), "fast": make("fast", 0.0)})
    assert [c.inputs["tag"] for c in out] == ["slow", "fast"]
    assert run_jobs({}) == []


def test_run_jobs_runs_in_the_calling_thread_and_stops_at_a_failure():
    seen = []

    def record(tag):
        def fn():
            seen.append((tag, threading.get_ident()))
            if tag == "bad":
                raise RuntimeError("solver exploded")
            return _quick_cert()

        return fn

    with pytest.raises(JobError):
        run_jobs({t: record(t) for t in ("a", "bad", "c")})
    assert seen == [("a", threading.get_ident()), ("bad", threading.get_ident())]


def test_run_jobs_wraps_errors_with_the_job_id():
    def boom():
        raise RuntimeError("solver exploded")

    with pytest.raises(JobError, match="'bad'") as err:
        run_jobs({"a": _quick_cert, "bad": boom})
    assert err.value.job_id == "bad"
