"""Release gates: one end-to-end check per advertised guarantee.

Each test prints a single summary line on success so the suite log reads as
a checklist; tolerances and runtime budgets are part of the assertions.
"""

import cmath
import json
import math
import time

import numpy as np

from bslab.birman_schwinger import (
    bs_det_evaluator,
    bs_principle_check,
    det_bound_constant,
    det_contour_roots,
    regularized_det,
    schatten_norm,
    schatten_order,
)
from bslab.certlab import (
    Region,
    boundary_ray,
    fixed_argument_ray,
    verify_imaginary,
    verify_schatten_scaling,
    verify_uniform_resolvent,
)
from bslab.cli import main as cli_main
from bslab.lattice import GridFunction, TorusGrid
from bslab.potentials import (
    PotentialSpec,
    potential_norm,
    resample,
    sample_potential,
    scaled_field,
)
from bslab.resolvent import ResolventHandle, factored_dirac_apply
from bslab.spectra import SpectralLabel, assemble_hamiltonian, classify, eigensolve, nearest_in
from bslab.symbols import SymbolKind, SymbolSpec

from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def discrete_points(spec, grid, V):
    coarse = eigensolve(assemble_hamiltonian(spec, grid, V))
    fine = grid.refined()
    refined = eigensolve(assemble_hamiltonian(spec, fine, resample(V, fine)))
    pts = classify(coarse, nearest_in(refined), spec, grid)
    return [p for p in pts if p.label is SpectralLabel.DISCRETE], coarse


def test_criterion_1_bs_equivalence_on_random_wells():
    """Eigenvalues of H0+V and solutions of the BS equation coincide, both ways."""
    t_start = time.perf_counter()
    spec = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=2.0)
    grid = TorusGrid(d=1, N=256, L=20.0)
    rng = np.random.default_rng(20240814)
    order = int(math.ceil(schatten_order(1, 1.0)))

    wells = 0
    worst_resid = worst_match = 0.0
    while wells < 20:
        amp = (2.0 + 4.0 * rng.random()) * np.exp(1j * np.pi * (2.0 * rng.random() - 1.0))
        width = 0.8 + 0.7 * rng.random()
        center = 4.0 * (rng.random() - 0.5)
        V = sample_potential(
            PotentialSpec("gaussian", {"amplitude": amp, "width": width, "center": [center]}),
            grid,
        )
        pts, _ = discrete_points(spec, grid, V)
        if not pts:
            continue  # a repulsive draw that binds nothing exercises neither direction
        wells += 1

        # forward: every Discrete eigenvalue solves the BS equation
        resid = max(bs_principle_check(spec, grid, V, p.z) for p in pts)
        assert resid < 1e-6, f"well {wells}: BS residual {resid}"
        worst_resid = max(worst_resid, resid)

        # converse: every determinant zero in a window is a Discrete eigenvalue.
        # Search around the best-separated point, with the box kept inside the
        # resolvent set of H0 (margin below both the point gap and the distance
        # budget to [0, inf)).
        zs = np.array([p.z for p in pts])
        best, margin = None, 0.0
        for j, z in enumerate(zs):
            others = np.delete(zs, j)
            gap = np.abs(others - z).min() if others.size else np.inf
            m = min(0.3, gap / 2.5, 0.67 * max(-z.real, abs(z.imag)))
            if m > margin:
                best, margin = z, m
        assert margin >= 1e-2
        roots = det_contour_roots(
            bs_det_evaluator(spec, grid, V, order),
            best - margin * (1.0 + 1.0j),
            best + margin * (1.0 + 1.0j),
        )
        assert roots, f"well {wells}: no determinant zero near {best}"
        match = max(np.abs(zs - r).min() for r in roots)
        assert match < 1e-6, f"well {wells}: zero-to-eigenvalue mismatch {match}"
        worst_match = max(worst_match, match)

    elapsed = time.perf_counter() - t_start
    assert elapsed < 300.0, f"runtime budget exceeded: {elapsed:.0f}s"
    print(
        f"[1] BS equivalence: PASS (20 wells, residual <= {worst_resid:.2e}, "
        f"zero match <= {worst_match:.2e}, {elapsed:.0f}s)"
    )


def test_criterion_2_dirac_factorization_identity():
    """(D0 + z)(-Lap - zeta)^{-1} agrees with the direct resolvent apply."""
    t_start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    pairs = 0
    for d, N, L, count in ((1, 64, 10.0, 25), (2, 24, 6.0, 25)):
        grid = TorusGrid(d=d, N=N, L=L)
        for kind in (SymbolKind.DIRAC_MASSLESS, SymbolKind.DIRAC_MASSIVE):
            spec = SymbolSpec(kind=kind, d=d)
            for _ in range(count):
                shape = grid.shape + (spec.n,)
                f = GridFunction(
                    grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                )
                z = complex(3.0 * (rng.random() - 0.5), 0.1 + 2.0 * rng.random())
                a = ResolventHandle(spec, grid, z).apply(f)
                b = factored_dirac_apply(spec, grid, z, f)
                rel = np.linalg.norm(a.values - b.values) / np.linalg.norm(a.values)
                assert rel < 1e-10, (kind, d, z, rel)
                worst = max(worst, rel)
                pairs += 1
    elapsed = time.perf_counter() - t_start
    assert elapsed < 60.0
    print(
        f"[2] Dirac factorization: PASS ({pairs} (f, z) pairs over d in {{1, 2}}, "
        f"agreement <= {worst:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_3_exact_scaling_suite():
    """Spectrum scaling t^s and the |z|^(q-d/s)/||V||_q^q ratio are grid-exact."""
    t_start = time.perf_counter()
    spec = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=0.75)
    grid = TorusGrid(d=1, N=96, L=24.0)
    V = sample_potential(
        PotentialSpec("gaussian", {"amplitude": complex(-3.0, 0.8), "width": 1.0}), grid
    )
    q = 1.5
    pts, base = discrete_points(spec, grid, V)
    assert pts
    anchor = min((p.z for p in pts), key=lambda z: z.real)
    ratio0 = abs(anchor) ** (q - spec.d / spec.s) / potential_norm(V, q) ** q

    spectrum_drift = ratio_drift = 0.0
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        grid_t = grid.rescaled(t)
        V_t = scaled_field(V, t, spec.s)
        eigs_t = eigensolve(assemble_hamiltonian(spec, grid_t, V_t))
        predicted = t**spec.s * base
        spectrum_drift = max(
            spectrum_drift,
            np.abs(eigs_t - predicted).max() / (t**spec.s * np.abs(base).max()),
        )
        z_t = eigs_t[np.argmin(np.abs(eigs_t - t**spec.s * anchor))]
        ratio_t = abs(z_t) ** (q - spec.d / spec.s) / potential_norm(V_t, q) ** q
        ratio_drift = max(ratio_drift, abs(ratio_t - ratio0) / ratio0)

    assert spectrum_drift <= 1e-10, spectrum_drift
    assert ratio_drift <= 1e-10, ratio_drift
    elapsed = time.perf_counter() - t_start
    assert elapsed < 120.0
    print(
        f"[3] exact scaling: PASS (spectrum drift {spectrum_drift:.2e}, "
        f"ratio drift {ratio_drift:.2e} over t in [1/4, 4], {elapsed:.1f}s)"
    )


def test_criterion_4_norm_growth_slope_fits():
    """Fitted norm-growth exponents land on their predicted values."""
    t_start = time.perf_counter()

    frac = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=1.5)
    grid = TorusGrid(d=1, N=64, L=30.0)
    V = sample_potential(
        PotentialSpec("gaussian", {"amplitude": complex(-2.5, 0.0), "width": 1.0}), grid
    )
    cert_f = verify_schatten_scaling(frac, grid, 1.0, fixed_argument_ray(math.pi, 0.5, 8.0, 9), V)
    assert cert_f.verdict == "PASS"
    assert abs(cert_f.law.fitted - (-1.0 / 3.0)) <= 0.1, cert_f.law

    rel = SymbolSpec(kind=SymbolKind.RELATIVISTIC, d=1, s=1.0)
    grid_r = TorusGrid(d=1, N=1280, L=240.0)
    V_r = sample_potential(
        PotentialSpec("gaussian", {"amplitude": complex(-1.0, 0.0), "width": 0.3}), grid_r
    )
    cert_r = verify_schatten_scaling(rel, grid_r, 1.0, fixed_argument_ray(math.pi, 5e-4, 5e-3, 9), V_r)
    assert cert_r.verdict == "PASS"
    assert abs(cert_r.law.fitted - (-0.5)) <= 0.1, cert_r.law  # d/(2q) - 1 at q = 1

    mas = SymbolSpec(kind=SymbolKind.DIRAC_MASSLESS, d=2)
    grid_m = TorusGrid(d=2, N=28, L=4.8)
    V_m = sample_potential(
        PotentialSpec("gaussian", {"amplitude": complex(1.0, 0.0), "width": 0.9}), grid_m
    )
    cert_m = verify_schatten_scaling(mas, grid_m, 1.5, boundary_ray(1.0, 3.0, 0.2, 9), V_m)
    assert cert_m.verdict == "PASS"
    assert abs(cert_m.law.fitted - 1.0 / 3.0) <= 0.15, cert_m.law  # (d-1)/(d+1) at d = 2

    elapsed = time.perf_counter() - t_start
    assert elapsed < 600.0
    print(
        f"[4] slope fits: PASS (power-law {cert_f.law.fitted:+.4f} vs -1/3, "
        f"small-|z| {cert_r.law.fitted:+.4f} vs -1/2, "
        f"massless growth {cert_m.law.fitted:+.4f} vs +1/3, {elapsed:.0f}s)"
    )


def test_criterion_5_resolvent_uniformity_contrast():
    """L^1 -> L^inf resolvent norms stay flat over a window reaching the lattice boundary."""
    t_start = time.perf_counter()
    spec = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=1.5)
    grid = TorusGrid(d=1, N=256, L=40.0)
    K = Region((0.5, 3.0, 0.01, 0.6))
    cert = verify_uniform_resolvent(spec, grid, K, p=1.0)
    assert cert.verdict == "PASS"
    assert cert.lhs <= 4.0, f"max/median ratio {cert.lhs}"
    # the constant of the uniform bound is the largest scanned norm
    assert cert.constant == cert.inputs["scan_max"] == max(cert.inputs["scan_values"])
    elapsed = time.perf_counter() - t_start
    assert elapsed < 600.0
    print(
        f"[5] resolvent uniformity: PASS (max/median {cert.lhs:.2f} <= 4, "
        f"scan max {cert.constant:.3g}, {elapsed:.0f}s)"
    )


def test_criterion_7_determinant_calculus():
    """Order-1 matches the plain determinant; order-2 closed form; norm bounds."""
    t_start = time.perf_counter()

    def det_value(dv):  # the complex det_n from its log form
        return cmath.rect(math.exp(dv.log_abs), dv.phase)

    rng = np.random.default_rng(99)
    worst1 = worst2 = 0.0
    worst_slack = -np.inf
    for _ in range(100):
        n = int(rng.integers(8, 40))
        M = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
        ref = np.linalg.det(np.eye(n) + M)
        worst1 = max(worst1, abs(det_value(regularized_det(M, 1)) - ref) / abs(ref))

        mu = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        closed = np.prod((1.0 + mu) * np.exp(-mu))
        worst2 = max(worst2, abs(det_value(regularized_det(np.diag(mu), 2)) - closed) / abs(closed))

        sv = np.linalg.svd(M, compute_uv=False)
        for order in (1, 2):
            slack = (
                regularized_det(M, order).log_abs
                - det_bound_constant(order) * schatten_norm(sv, order) ** order
            )
            worst_slack = max(worst_slack, slack)
            assert slack <= 1e-9, (order, slack)

    assert worst1 <= 1e-10, worst1
    assert worst2 <= 1e-12, worst2
    elapsed = time.perf_counter() - t_start
    assert elapsed < 60.0
    print(
        f"[7] determinant calculus: PASS (order-1 {worst1:.2e}, diagonal order-2 {worst2:.2e}, "
        f"bound slack {worst_slack:.2e} on 100 matrices, {elapsed:.1f}s)"
    )


def test_criterion_8_imaginary_potential_identities():
    """Resolvent-imaginary identity and eigenvector normalization over iW families."""
    t_start = time.perf_counter()
    spec = SymbolSpec(kind=SymbolKind.FRACTIONAL_LAPLACIAN, d=1, s=1.0)
    grid = TorusGrid(d=1, N=96, L=24.0)
    families = [
        PotentialSpec("gaussian", {
            "amplitude": complex(1.2 + 0.45 * k, 0.0),
            "width": 0.8 + 0.12 * k,
            "center": [(-1.0) ** k * 0.7 * k],
        })
        for k in range(7)
    ] + [
        PotentialSpec("step", {"amplitude": complex(amp, 0.0), "radius": radius})
        for amp, radius in ((1.5, 1.2), (2.5, 0.9), (3.5, 1.5))
    ]
    assert len(families) == 10
    total = 0
    worst_identity = worst_dev = 0.0
    for pspec in families:
        cert = verify_imaginary(spec, sample_potential(pspec, grid), 1.0)
        assert cert.verdict == "PASS"
        assert cert.lhs <= 1e-10, cert.lhs
        assert cert.inputs["re_q_deviation"] <= 1e-6
        total += cert.inputs["eigenvalues_checked"]
        worst_identity = max(worst_identity, cert.lhs)
        worst_dev = max(worst_dev, cert.inputs["re_q_deviation"])
    assert total > 0
    elapsed = time.perf_counter() - t_start
    assert elapsed < 300.0
    print(
        f"[8] imaginary potentials: PASS ({total} eigenvalues over 10 iW families, "
        f"identity residual <= {worst_identity:.2e}, normalization dev <= {worst_dev:.2e}, "
        f"{elapsed:.0f}s)"
    )


def test_criterion_9_golden_config_rerun_is_byte_identical(tmp_path):
    """The shipped config reproduces its certificates byte for byte."""
    t_start = time.perf_counter()
    config = REPO / "configs" / "golden.json"
    payloads = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = cli_main([
            "scan", "--config", str(config), "--out", str(out), "--deterministic",
        ])
        assert rc == 0
        (run_dir,) = [p for p in out.iterdir() if p.name.startswith("run-")]
        certs = sorted(run_dir.glob("certificate-*.json"))
        assert len(certs) == 3
        payloads.append({p.name: p.read_bytes() for p in certs})
        for p in certs:
            json.loads(p.read_text())  # every certificate is well-formed JSON
    assert payloads[0] == payloads[1]
    elapsed = time.perf_counter() - t_start
    print(
        f"[9] determinism: PASS (golden-config certificates byte-identical across reruns, "
        f"{elapsed:.0f}s)"
    )
