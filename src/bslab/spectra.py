"""Dense spectra of H_0 + V and discrimination of genuine discrete eigenvalues.

The perturbed operator is realized exactly on the torus grid as a dense
matrix (Fourier multiplier conjugated back to physical space plus the
site-diagonal potential).  Eigenvalues of the discretized continuum
[0, inf), R, or (-inf,-1] u [1,inf) shift under grid refinement while
genuine discrete eigenvalues stay put, so refining N -> 2N separates the
two: points close to the essential intervals are artifacts, distant points
that barely move across the refinement are discrete.
:func:`classified_spectrum` is that pipeline: dense at N, partners at
2N.  It runs the full eigensolve at N only, and a point beyond eta of the
essential spectrum gets its nearest 2N eigenvalue by one of two routes.
For a self-adjoint potential H_2N is Hermitian up to rounding, and one
:func:`dense.eigvalsh` gives all of its spectrum at about the cost of one
partner solve.  Otherwise each point is first served from its coarse
eigenpair: one LU of H_N - z gives the right and left eigenvectors, which
are interpolated to 2N, and their Rayleigh quotient on H_2N, applied
matrix-free, is the partner when its residual and condition number put an
eigenvalue of H_2N within the Discrete bar.  Only a refused point
assembles H_2N and takes :func:`dense.nearest_eigenpair` (one LU of
H_2N - z and a short Arnoldi run on the inverse).  Every factorization
runs in :mod:`bslab.dense`; this module only assembles, sorts and labels.
The dense T(D) is built once per (symbol, grid) and cached read-only;
every Hamiltonian is a fresh copy of it plus the site diagonal of V.

Inside a :func:`spectrum_memo` scope, :func:`classified_spectrum` solves
each (symbol, grid, potential samples) once and serves repeats from a memo
keyed by that content.  The scope is re-entrant and lives in a context
variable: the memo is dropped when the outermost scope closes, so nothing
it held outlives one run.  Outside any scope every call solves.
"""

from __future__ import annotations

import csv
import logging
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from . import dense
from .lattice import (
    TorusGrid,
    add_site_diagonal,
    apply_operator,
    dense_dim,
    interpolate,
    multiplier_matrix,
    operator_norm_1,
)
from .potentials import PotentialField, resample
from .resolvent import local_spacings
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
    "spectrum_memo",
    "fine_grid",
    "nearest_in",
    "spectrum_csv",
]

_log = logging.getLogger("bslab")


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


_ESSENTIAL_INTERVALS = {
    SymbolKind.FRACTIONAL_LAPLACIAN: ((0.0, math.inf),),
    SymbolKind.RELATIVISTIC: ((0.0, math.inf),),
    SymbolKind.DIRAC_MASSLESS: ((-math.inf, math.inf),),
    SymbolKind.DIRAC_MASSIVE: ((-math.inf, -1.0), (1.0, math.inf)),
}


def essential_spectrum(spec: SymbolSpec) -> EssentialSpectrum:
    return EssentialSpectrum(_ESSENTIAL_INTERVALS[spec.kind])


def dist_to_spectrum(spec: SymbolSpec, z: complex) -> float:
    """Exact distance from z to the essential spectrum of the symbol."""
    return essential_spectrum(spec).distance(z)


# ---------------------------------------------------------------------------
# dense Hamiltonian


@lru_cache(maxsize=4)
def _kinetic_matrix(spec: SymbolSpec, grid: TorusGrid) -> np.ndarray:
    """Dense T(D) on the grid, built once per (spec, grid); read-only."""
    T = multiplier_matrix(symbol_values(spec, grid.xi()), grid)
    T.setflags(write=False)
    return T


def assemble_hamiltonian(spec: SymbolSpec, grid: TorusGrid, V: PotentialField) -> np.ndarray:
    """Dense H = T(D) + V on the grid (site-major, spinor-minor layout).

    A fresh writable copy of the cached T(D) with the site diagonal added.
    """
    V.check_fits(grid, spec.n)
    return add_site_diagonal(_kinetic_matrix(spec, grid).copy(order="F"), V.values, grid)


def eigensolve(H: np.ndarray) -> np.ndarray:
    """Every eigenvalue of the dense matrix H, sorted by (Re, Im); H is overwritten.

    zgeev reduces a column-major complex H in place (:func:`dense.eigvals`),
    so the solve holds no second operator-sized array; the caller passes an
    H it owns and does not read it afterwards.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"need a square matrix, got shape {H.shape}")
    w = dense.eigvals(H)
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


def nearest_in(eigs) -> Callable[[complex], complex]:
    """z -> the entry of the array eigs nearest to z (first one on a tie)."""
    eigs = np.asarray(eigs, dtype=complex)
    if eigs.size == 0:
        raise ValueError("refined spectrum is empty")
    return lambda z: eigs[np.argmin(np.abs(eigs - z))]


def classify(
    eigs_coarse,
    nearest_fine: Callable[[complex], complex],
    spec: SymbolSpec,
    grid: TorusGrid,
) -> list[SpectralPoint]:
    """Label each coarse eigenvalue Discrete / ContinuumArtifact / Undecided.

    eigs_coarse are eigenvalues of H0 + V on grid, and nearest_fine maps z
    to the eigenvalue nearest z of the same potential sampled on
    grid.refined() (the caller's contract; :class:`_FinePartner` may
    instead answer with the eigenvalue that z's eigenvector continues to,
    certified to first order within the Discrete bar of z).  A point is
    ContinuumArtifact if its distance to the essential spectrum is at most
    eta, 5x the local dispersion spacing near Re z; it gets no partner and
    its drift is nan.
    Every other point asks nearest_fine for its partner and is Discrete if
    that partner moved by less than 10% relatively, Undecided otherwise (a
    nan partner, where no fine grid exists, gives drift nan and Undecided).
    """
    eigs_coarse = np.asarray(eigs_coarse, dtype=complex)
    thresholds = 5.0 * local_spacings(spec, grid, eigs_coarse.real)
    essential = essential_spectrum(spec)
    points = []
    for z, threshold in zip(eigs_coarse, thresholds):
        dist = essential.distance(z)
        if dist <= threshold:
            drift = math.nan
            label = SpectralLabel.CONTINUUM_ARTIFACT
        else:
            drift = abs(z - nearest_fine(z)) / max(abs(z), 1e-12)
            label = SpectralLabel.DISCRETE if drift < _DRIFT_TOLERANCE else SpectralLabel.UNDECIDED
        points.append(
            SpectralPoint(
                z=complex(z),
                dist_sigma=float(dist),
                refinement_drift=float(drift),
                label=label,
            )
        )
    return points


# ---------------------------------------------------------------------------
# fine partners: from the coarse eigenpair, one Hermitian eigensolve, or shift-invert


def _is_self_adjoint(V: PotentialField) -> bool:
    """Whether V is self-adjoint: exactly real scalars, or each site block its own conjugate transpose."""
    v = V.values
    if V.is_matrix:
        return bool(np.array_equal(v, np.conj(np.swapaxes(v, -1, -2))))
    return not np.any(v.imag)


_ROUTES = ("coarse eigenpair", "shift-invert", "dense fallback", "Hermitian")


class _FinePartner:
    """z -> nearest eigenvalue of H_2N = T(D) + V on the fine grid, for a z that is an eigenvalue of H_N.

    For a self-adjoint V (tested on the coarse field the caller passed:
    resampling leaves rounding noise in the imaginary part) H_2N is
    Hermitian up to rounding, and the first call assembles it and takes its
    whole spectrum from :func:`dense.eigvalsh`, which answers that z and
    every later one.

    For any other V each z is first served from the coarse eigenpair, with
    no fine matrix: :func:`dense.eigenvectors_near` gives H_N's right and
    left eigenvectors at z, and :func:`lattice.interpolate` carries them to
    the fine grid as unit vectors x and y.  H_2N x is applied matrix-free
    (:func:`lattice.apply_operator`), and the Rayleigh quotient
    lam = x^H H_2N x is the partner when the residual r = H_2N x - lam x
    passes :func:`dense.accepts_residual` against ||H_2N||_1
    (:func:`lattice.operator_norm_1`) and |z - lam| + kappa ||r|| is below
    _DRIFT_TOLERANCE |z|, with kappa = 1/|y^H x|.  To first order an
    eigenvalue of H_2N lies within kappa ||r|| of lam (Wilkinson; Trefethen
    & Embree, Spectra and Pseudospectra, 2005, ch. 52), so classify's
    Discrete label is then certain; the drift is that of the eigenvalue the
    coarse one continues to.  A refused z assembles H_2N (once) and is
    answered by :func:`dense.nearest_eigenpair`; the first time that check
    fails too, the dense spectrum of H_2N is computed in H_2N's own storage
    (one DEBUG record on the ``bslab`` logger) and answers that z and every
    later one.  ``routes`` counts the answers by route.
    """

    def __init__(self, spec: SymbolSpec, grid: TorusGrid, fine: TorusGrid, V: PotentialField):
        self.spec, self.grid, self.fine, self.V = spec, grid, fine, V
        self.hermitian = _is_self_adjoint(V)
        self.routes = dict.fromkeys(_ROUTES, 0)
        self.H: Optional[np.ndarray] = None
        self.fallback: Optional[Callable[[complex], complex]] = None

    def __call__(self, z: complex) -> complex:
        if self.fallback is None and self.hermitian:
            self.fallback = nearest_in(dense.eigvalsh(self._fine_hamiltonian()))
        if self.fallback is None:
            lam = self._from_coarse(z)
            if lam is not None:
                self.routes["coarse eigenpair"] += 1
                return lam
            if self.H is None:
                self.H = self._fine_hamiltonian()
            pair = dense.nearest_eigenpair(self.H, z)
            if pair is not None:
                self.routes["shift-invert"] += 1
                return pair[0]
            _log.debug("dense %d-dim fine solve: no shift-invert partner at z=%s", self.H.shape[0], z)
            H, self.H = self.H, None  # the dense solve overwrites H, and nothing reads it again
            self.fallback = nearest_in(eigensolve(H))
        self.routes["Hermitian" if self.hermitian else "dense fallback"] += 1
        return self.fallback(z)

    @cached_property
    def V_fine(self) -> PotentialField:
        return resample(self.V, self.fine)

    @cached_property
    def multiplier(self) -> np.ndarray:
        return symbol_values(self.spec, self.fine.xi())

    @cached_property
    def norm_1(self) -> float:
        return operator_norm_1(self.multiplier, self.V_fine.values, self.fine)

    def _fine_hamiltonian(self) -> np.ndarray:
        return np.asfortranarray(assemble_hamiltonian(self.spec, self.fine, self.V_fine))

    def _from_coarse(self, z: complex) -> Optional[complex]:
        """The Rayleigh quotient on the fine grid of H_N's eigenvectors at z, or None if refused."""
        vectors = dense.eigenvectors_near(assemble_hamiltonian(self.spec, self.grid, self.V), z)
        if vectors is None:
            return None
        n = self.spec.n
        x, y = (interpolate(u.reshape(self.grid.field_shape(n)), self.grid, self.fine) for u in vectors)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        Hx = apply_operator(self.multiplier, self.V_fine.values, x, self.fine)
        lam = np.vdot(x, Hx)
        residual = float(np.linalg.norm(Hx - lam * x))
        drift_bound = abs(z - lam) + residual / abs(np.vdot(y, x))
        if dense.accepts_residual(residual, self.norm_1) and drift_bound < _DRIFT_TOLERANCE * abs(z):
            return complex(lam)
        return None


def fine_grid(spec: SymbolSpec, grid: TorusGrid) -> TorusGrid:
    """grid.refined(), the one N -> 2N rule; ValueError past the grid or dense cap."""
    fine = grid.refined()
    dense_dim(fine, spec.n)
    return fine


def _solve_classified(spec: SymbolSpec, grid: TorusGrid, V: PotentialField) -> list[SpectralPoint]:
    """The solve beneath :func:`classified_spectrum`'s memo."""
    coarse = eigensolve(assemble_hamiltonian(spec, grid, V))
    try:
        fine = fine_grid(spec, grid)
    except ValueError as err:
        _log.warning("no N -> 2N refinement pair (%s): points beyond eta are Undecided", err)
        return classify(coarse, lambda z: complex(math.nan, math.nan), spec, grid)
    partner = _FinePartner(spec, grid, fine, V)
    points = classify(coarse, partner, spec, grid)
    _log.debug("fine partners: %s", ", ".join(f"{n} {route}" for route, n in partner.routes.items()))
    return points


@dataclass
class _Memo:
    points: dict[tuple, tuple[SpectralPoint, ...]] = field(default_factory=dict)  # by content
    served: int = 0  # requests answered from points


_memo: ContextVar[Optional[_Memo]] = ContextVar("bslab_spectrum_memo", default=None)


@contextmanager
def spectrum_memo():
    """Scope in which :func:`classified_spectrum` solves each input once.

    Re-entrant: a scope opened inside another joins it.  When the outermost
    scope closes, the memo is dropped and one DEBUG record on the ``bslab``
    logger counts the solves and the requests served from the memo.
    """
    if _memo.get() is not None:
        yield
        return
    memo = _Memo()
    token = _memo.set(memo)
    try:
        yield
    finally:
        _memo.reset(token)
        _log.debug("%d couplings solved, %d served from the memo", len(memo.points), memo.served)


def classified_spectrum(spec: SymbolSpec, grid: TorusGrid, V: PotentialField) -> list[SpectralPoint]:
    """Every eigenvalue of H0 + V on grid, in eigensolve order, labeled by classify.

    Dense at N, partners at 2N: the full eigensolve runs on grid only, and
    each point beyond eta gets its nearest eigenvalue on grid.refined().
    For a self-adjoint V (real scalars, or Hermitian site blocks) all of
    them come from one Hermitian eigensolve of H_2N.  For any other V each
    comes from the coarse eigenpair checked matrix-free on the fine grid,
    where that check refuses from one LU of H_2N and a short Arnoldi run,
    and from a dense 2N eigensolve when that does not converge either.
    One DEBUG record on the ``bslab`` logger counts the partners by route.
    A call whose points are all ContinuumArtifact, or all served from
    their coarse eigenpairs, assembles no fine matrix.  On a grid without a
    :func:`fine_grid` partner no point has a partner: classify keeps its
    ContinuumArtifact labels, every other point is Undecided with drift
    nan, and one WARNING record on the ``bslab`` logger gives the reason.
    Inside a :func:`spectrum_memo` scope, a repeat of (spec, grid, V.grid
    and the shape, dtype and bytes of V.values) is served from the memo;
    each call returns its own list.
    """
    memo = _memo.get()
    if memo is None:
        return _solve_classified(spec, grid, V)
    v = V.values
    key = (spec, grid, V.grid, v.shape, v.dtype.str, v.tobytes())
    if key in memo.points:
        memo.served += 1
    else:
        memo.points[key] = tuple(_solve_classified(spec, grid, V))
    return list(memo.points[key])


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
