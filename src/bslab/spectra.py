"""Dense spectra of H_0 + V and discrimination of genuine discrete eigenvalues.

The perturbed operator is realized exactly on the torus grid as a dense
matrix (Fourier multiplier conjugated back to physical space plus the
site-diagonal potential).  Eigenvalues of the discretized continuum
[0, inf), R, or (-inf,-1] u [1,inf) shift under grid refinement while
genuine discrete eigenvalues stay put, so a pair of spectra at N and 2N
separates the two: points close to the essential intervals are artifacts,
distant points that barely move across the refinement are discrete.
:func:`classified_spectrum` is that pipeline: the eigensolve at N and at 2N,
then :func:`classify`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
import scipy.linalg

from .lattice import TorusGrid, add_site_diagonal, multiplier_matrix
from .potentials import PotentialField, resample
from .resolvent import local_spacing
from .symbols import SymbolKind, SymbolSpec, symbol_values

__all__ = [
    "EssentialSpectrum",
    "SpectralLabel",
    "SpectralPoint",
    "essential_spectrum",
    "dist_to_spectrum",
    "assemble_hamiltonian",
    "eigensolve",
    "classify",
    "classified_spectrum",
    "spectrum_csv",
]


@dataclass(frozen=True)
class EssentialSpectrum:
    """Union of closed real intervals, endpoints possibly infinite."""

    intervals: tuple[tuple[float, float], ...]

    def distance(self, z: complex) -> float:
        z = complex(z)
        best = math.inf
        for lo, hi in self.intervals:
            if lo <= z.real <= hi:
                d = abs(z.imag)
            elif z.real < lo:
                d = math.hypot(lo - z.real, z.imag)
            else:
                d = math.hypot(z.real - hi, z.imag)
            best = min(best, d)
        return best


def essential_spectrum(spec: SymbolSpec | SymbolKind) -> EssentialSpectrum:
    kind = spec.kind if isinstance(spec, SymbolSpec) else spec
    if kind in (SymbolKind.FRACTIONAL_LAPLACIAN, SymbolKind.RELATIVISTIC):
        return EssentialSpectrum(intervals=((0.0, math.inf),))
    if kind is SymbolKind.DIRAC_MASSLESS:
        return EssentialSpectrum(intervals=((-math.inf, math.inf),))
    if kind is SymbolKind.DIRAC_MASSIVE:
        return EssentialSpectrum(intervals=((-math.inf, -1.0), (1.0, math.inf)))
    raise ValueError(f"no closed-form essential spectrum for kind {kind}")


def dist_to_spectrum(spec: SymbolSpec, z: complex) -> float:
    """Exact distance from z to the essential spectrum of the symbol."""
    return essential_spectrum(spec).distance(z)


# ---------------------------------------------------------------------------
# dense Hamiltonian


def assemble_hamiltonian(spec: SymbolSpec, grid: TorusGrid, V: PotentialField) -> np.ndarray:
    """Dense H = T(D) + V on the grid (site-major, spinor-minor layout)."""
    V.check_fits(grid, spec.n)
    H = multiplier_matrix(symbol_values(spec, grid.xi()), grid, n=spec.n)
    return add_site_diagonal(H, V.values, grid, spec.n)


def eigensolve(H: np.ndarray) -> np.ndarray:
    """Every eigenvalue of the dense matrix H, sorted by (Re, Im)."""
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"need a square matrix, got shape {H.shape}")
    try:
        w = scipy.linalg.eig(H, right=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as err:  # pragma: no cover
        raise RuntimeError(
            f"dense eigensolver failed on a {H.shape[0]}x{H.shape[0]} matrix "
            f"with 1-norm {np.linalg.norm(H, 1):.3e}: {err}"
        ) from err
    return w[np.lexsort((w.imag, w.real))]


# ---------------------------------------------------------------------------
# classification


class SpectralLabel(str, Enum):
    DISCRETE = "Discrete"
    CONTINUUM_ARTIFACT = "ContinuumArtifact"
    UNDECIDED = "Undecided"


@dataclass(frozen=True)
class SpectralPoint:
    z: complex
    dist_sigma: float
    refinement_drift: float
    label: SpectralLabel
    cond: float = math.nan  # eigenvalue condition number; not computed yet

    def __post_init__(self):
        if self.dist_sigma < 0:
            raise ValueError("dist_sigma must be nonnegative")


_DRIFT_TOLERANCE = 0.1


def classify(
    eigs_coarse,
    eigs_fine,
    spec: SymbolSpec,
    grid_coarse: TorusGrid,
    grid_fine: TorusGrid,
    eta: Optional[float] = None,
) -> list[SpectralPoint]:
    """Label each coarse eigenvalue Discrete / ContinuumArtifact / Undecided.

    The two spectra must come from the same potential sampled on grid_coarse
    and on its 2x refinement (same L); only the grids are checked here, the
    potential consistency is the caller's contract.  A point is Discrete if
    its distance to the essential spectrum exceeds eta AND its nearest
    partner across the refinement moved by less than 10% relatively;
    ContinuumArtifact if the distance is at most eta; Undecided otherwise.
    eta defaults per point to 5x the local dispersion spacing near Re z.
    """
    if grid_fine != grid_coarse.refined(2):
        raise ValueError(
            f"grids must be an N -> 2N refinement pair at fixed L, got "
            f"N={grid_coarse.N},L={grid_coarse.L} vs N={grid_fine.N},L={grid_fine.L}"
        )
    eigs_coarse = np.asarray(eigs_coarse, dtype=complex)
    eigs_fine = np.asarray(eigs_fine, dtype=complex)
    if eigs_fine.size == 0:
        raise ValueError("refined spectrum is empty")
    points = []
    for z in eigs_coarse:
        dist = dist_to_spectrum(spec, z)
        partner = eigs_fine[np.argmin(np.abs(eigs_fine - z))]
        drift = abs(z - partner) / max(abs(z), 1e-12)
        threshold = eta
        if threshold is None:
            threshold = 5.0 * local_spacing(spec, grid_coarse, at=z.real)
        if dist <= threshold:
            label = SpectralLabel.CONTINUUM_ARTIFACT
        elif drift < _DRIFT_TOLERANCE:
            label = SpectralLabel.DISCRETE
        else:
            label = SpectralLabel.UNDECIDED
        points.append(
            SpectralPoint(
                z=complex(z),
                dist_sigma=float(dist),
                refinement_drift=float(drift),
                label=label,
            )
        )
    return points


def classified_spectrum(spec: SymbolSpec, grid: TorusGrid, V: PotentialField) -> list[SpectralPoint]:
    """Every eigenvalue of H0 + V on grid, in eigensolve order, labeled by classify."""
    fine = grid.refined(2)
    coarse = eigensolve(assemble_hamiltonian(spec, grid, V))
    refined = eigensolve(assemble_hamiltonian(spec, fine, resample(V, fine)))
    return classify(coarse, refined, spec, grid, fine)


def spectrum_csv(points, path) -> None:
    """Write classified points as CSV: re, im, dist_sigma, drift, label, cond."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re", "im", "dist_sigma", "drift", "label", "cond"])
        for p in points:
            writer.writerow(
                [
                    repr(float(p.z.real)),
                    repr(float(p.z.imag)),
                    repr(float(p.dist_sigma)),
                    repr(float(p.refinement_drift)),
                    p.label.value,
                    repr(float(p.cond)),
                ]
            )
