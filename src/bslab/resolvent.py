"""Free resolvents R0(z) = (T(D) - z)^{-1} on the periodic grid.

Everything here is a Fourier multiplier: applying R0(z) costs one FFT round
trip, the position kernel is the inverse transform of the multiplier samples,
and operator p->r norms are estimated from below by a Boyd-style nonlinear
power iteration on the weighted lattice norms.

The multiplier samples of T come from ``symbols.symbol_values``.  The
sorted level set of the lattice dispersion is built once per (symbol, grid)
by :func:`lattice_levels`; spectral parameters on (or numerically on) it are
rejected, and boundary values T(xi) = lambda +- i*0 are reached by offsetting
the parameter by a multiple of the local level spacing, which
:func:`local_spacings` reads from a per-grid table for any number of points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .lattice import GridFunction, TorusGrid, apply_multiplier, lp_norm, per_site, site_magnitudes, weighted_lp
from .symbols import SymbolKind, SymbolSpec, dispersion_values, symbol_values

__all__ = [
    "OpNormEstimate",
    "ResolventHandle",
    "ResolventPoleError",
    "boundary_epsilon",
    "empirical_opnorm",
    "factored_dirac_apply",
    "kernel_array",
    "lattice_levels",
    "local_spacing",
    "local_spacings",
    "resolvent_multiplier",
]

_BOUNDARY_SPACINGS = 4.0  # boundary offset in local level spacings
_SPACING_WINDOW = 8  # levels on each side of a point that its local spacing reads
_OPNORM_TOL = 1e-10  # relative per-sweep gain at which a norm iteration has converged
_OPNORM_ITERS = 60  # duality-map sweeps per start of a norm iteration
_OPNORM_RESTARTS = 3  # random starts of a norm iteration


class ResolventPoleError(ValueError):
    """Spectral parameter sits on (or within roundoff of) the lattice dispersion."""


@lru_cache(maxsize=64)
def lattice_levels(spec: SymbolSpec, grid: TorusGrid) -> np.ndarray:
    """Sorted distinct levels of the dispersion branches over the grid's modes.

    Cached per (spec, grid) and read-only, like the grid's frequency array.
    """
    levels = np.unique(dispersion_values(spec, grid.xi()))
    levels.setflags(write=False)
    return levels


def resolvent_multiplier(spec: SymbolSpec, grid: TorusGrid, z: complex) -> np.ndarray:
    """Multiplier samples of (T(xi_k) - z)^{-1} in FFT order.

    Scalar kinds give shape grid.shape; Dirac kinds grid.shape + (n, n)
    (inverted mode-by-mode with generic linear algebra -- the factorized
    route lives in factored_dirac_apply so the two stay independent).
    """
    _check_off_dispersion(spec, grid, z)
    tvals = symbol_values(spec, grid.xi())
    if not spec.is_dirac:
        return 1.0 / (tvals - z)
    return np.linalg.inv(tvals - z * np.eye(spec.n, dtype=complex))


def _check_off_dispersion(spec: SymbolSpec, grid: TorusGrid, z: complex) -> None:
    levels = lattice_levels(spec, grid)
    gap = np.abs(levels - z)
    j = int(np.argmin(gap))
    if gap[j] <= 1e-12 * max(1.0, float(np.abs(levels).max())):
        raise ResolventPoleError(f"z={z} within roundoff of lattice level {levels[j]:.6g}")


@dataclass
class ResolventHandle:
    """Bound (symbol, grid, z) triple with cached multiplier samples."""

    spec: SymbolSpec
    grid: TorusGrid
    z: complex
    _mult: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.z = complex(self.z)
        self._mult = resolvent_multiplier(self.spec, self.grid, self.z)

    @property
    def spinor_dim(self) -> int:
        return self.spec.n

    def apply(self, f: GridFunction) -> GridFunction:
        return apply_multiplier(self._mult, f)

    def apply_adjoint(self, f: GridFunction) -> GridFunction:
        if self._mult.ndim == self.grid.d:
            adj = np.conj(self._mult)
        else:
            adj = np.conj(np.swapaxes(self._mult, -1, -2))
        return apply_multiplier(adj, f)


def factored_dirac_apply(spec: SymbolSpec, grid: TorusGrid, z: complex, f: GridFunction) -> GridFunction:
    """Dirac resolvent via the factorization (D - z)^{-1} = (D + z)(-Lap - zeta)^{-1}.

    zeta = z^2 for the massless kind and z^2 - 1 for the massive kind, with
    -Lap the scalar multiplier |xi|^2 acting diagonally on spinors.
    """
    if not spec.is_dirac:
        raise ValueError("factorization applies to Dirac kinds only")
    _check_off_dispersion(spec, grid, z)
    xi = grid.xi()
    zeta = z * z - (1.0 if spec.kind is SymbolKind.DIRAC_MASSIVE else 0.0)
    scalar_res = 1.0 / (np.sum(xi**2, axis=-1) - zeta)
    g = apply_multiplier(scalar_res, f)
    return apply_multiplier(symbol_values(spec, xi) + z * np.eye(spec.n, dtype=complex), g)


def kernel_array(handle: ResolventHandle) -> np.ndarray:
    """Position kernel on grid offsets: inverse transform of the multiplier.

    Shape grid.shape (scalar) or grid.shape + (n, n). The convolution
    (R0 f)(x) = w * sum_y K(x - y) f(y) with w the site weight reproduces
    handle.apply.
    """
    grid = handle.grid
    scale = (grid.N / grid.L) ** grid.d
    return np.fft.ifftn(handle._mult, axes=grid.axes()) * scale


# ---------------------------------------------------------------------------
# boundary offsets


@lru_cache(maxsize=64)
def _spacing_table(spec: SymbolSpec, grid: TorusGrid) -> np.ndarray:
    """Local spacing for each insertion index 0..size into :func:`lattice_levels`.

    Entry idx is the median gap among the levels[idx - w : idx + w], w =
    _SPACING_WINDOW, clipped to the level set; with at least 2 levels every
    clipped window holds at least one gap.  Cached per (spec, grid) and read-only.
    """
    levels = lattice_levels(spec, grid)
    if levels.size < 2:
        raise ValueError("dispersion has a single level; spacing undefined")
    gaps = np.diff(levels)  # levels are np.unique output, so every gap is positive
    table = np.empty(levels.size + 1)
    for idx in range(levels.size + 1):
        lo, hi = max(0, idx - _SPACING_WINDOW), min(levels.size, idx + _SPACING_WINDOW)
        table[idx] = np.median(gaps[lo:hi - 1])
    table.setflags(write=False)
    return table


def local_spacings(spec: SymbolSpec, grid: TorusGrid, at) -> np.ndarray:
    """Median spacing of the lattice dispersion levels nearest to each of `at`.

    One ``searchsorted`` places every point in the level set; the spacing
    depends only on that insertion index.
    """
    table = _spacing_table(spec, grid)
    return table[np.searchsorted(lattice_levels(spec, grid), at)]


def local_spacing(spec: SymbolSpec, grid: TorusGrid, at: float) -> float:
    """Median spacing of the lattice dispersion levels nearest to `at`."""
    return float(local_spacings(spec, grid, at))


def boundary_epsilon(spec: SymbolSpec, grid: TorusGrid, lam: float) -> float:
    """Offset for boundary values lam +- i*eps: 4x the local level spacing."""
    return _BOUNDARY_SPACINGS * local_spacing(spec, grid, lam)


# ---------------------------------------------------------------------------
# Boyd-style lower bounds for ||A||_{p -> r}


@dataclass
class OpNormEstimate:
    """Lower-bound estimate with its monotone iteration trace."""

    value: float
    trace: list
    converged: bool


def _spike_like(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Unit-mass spike at the (first, row-major) max-magnitude site."""
    mags = site_magnitudes(values, grid.d)
    j = int(np.argmax(mags.reshape(-1)))  # first maximizer: deterministic ties
    out = np.zeros_like(values)
    idx = np.unravel_index(j, mags.shape)
    m = mags[idx]
    out[idx] = (values[idx] / m if m > 0 else np.ones_like(values[idx])) / grid.weight
    return out


def _norming_dual(y: np.ndarray, r: float, grid: TorusGrid) -> np.ndarray:
    """u with ||u||_{r*} = 1 and <u, y> = ||y||_r (weighted site norms)."""
    if np.isinf(r):
        return _spike_like(y, grid)
    mags = site_magnitudes(y, grid.d)
    nrm = weighted_lp(mags, r, grid.weight)
    if nrm == 0:
        raise ZeroDivisionError("zero iterate")
    with np.errstate(invalid="ignore", divide="ignore"):
        factor = np.where(mags > 0, (mags / nrm) ** (r - 1.0) / mags, 0.0)
    return y * per_site(factor, y, grid.d)


def _norming_primal(v: np.ndarray, p: float, grid: TorusGrid) -> np.ndarray:
    """x with ||x||_p = 1 maximizing Re<v, x>."""
    if p == 1.0:
        return _spike_like(v, grid)
    mags = site_magnitudes(v, grid.d)
    with np.errstate(invalid="ignore", divide="ignore"):
        factor = np.where(mags > 0, mags ** (1.0 / (p - 1.0)) / mags, 0.0)
    x = v * per_site(factor, v, grid.d)
    return x / lp_norm(GridFunction(grid, x), p)


def empirical_opnorm(op, p: float, *, seed: int = 7) -> OpNormEstimate:
    """Lower bound for ||op||_{L^p -> L^r}, r = p/(p-1) the dual exponent, by
    alternating duality-map iteration.

    op provides .grid, .spinor_dim, .apply and .apply_adjoint. Requires
    1 <= p <= 2, so that r >= 2; in that range each sweep is nondecreasing,
    so the trace is monotone and the final value is a certified lower bound.
    Non-converged runs return the best value with converged=False.
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"need 1 <= p <= 2, got p={p}")
    r = np.inf if p == 1.0 else p / (p - 1.0)
    grid = op.grid
    shape = grid.field_shape(op.spinor_dim)
    rng = np.random.default_rng(seed)
    best, best_trace, any_conv = 0.0, [], False
    for _ in range(_OPNORM_RESTARTS):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = x / lp_norm(GridFunction(grid, x), p)
        trace, prev, conv = [], 0.0, False
        for _ in range(_OPNORM_ITERS):
            y = op.apply(GridFunction(grid, x)).values
            est = lp_norm(GridFunction(grid, y), r)
            trace.append(float(est))
            if est == 0.0:
                break
            if prev > 0 and est - prev <= _OPNORM_TOL * est:
                conv = True
                break
            prev = est
            u = _norming_dual(y, r, grid)
            v = op.apply_adjoint(GridFunction(grid, u)).values
            x = _norming_primal(v, p, grid)
        if trace and trace[-1] > best:
            best, best_trace = trace[-1], trace
        any_conv = any_conv or conv
    return OpNormEstimate(best, best_trace, any_conv)
