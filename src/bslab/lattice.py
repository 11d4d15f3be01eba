"""Periodic grid, Fourier transforms, weighted norms, and the field layout.

The spatial grid on the torus [0, L)^d has N points per axis at x_j = j*L/N;
the dual frequency lattice is xi_k = k/L for k in {-N/2, ..., N/2-1}^d, stored
in FFT order. Plane waves are e^{2*pi*i x.xi}, so the forward transform

    fhat(xi_k) = (L/N)^d * sum_x f(x) e^{-2*pi*i x.xi_k}

approximates the continuum Fourier integral and the inverse

    f(x) = L^{-d} * sum_k fhat(xi_k) e^{2*pi*i x.xi_k}

is the matching Riemann sum over the frequency lattice (mesh 1/L per axis).
Parseval then reads (L/N)^d sum|f|^2 = L^{-d} sum|fhat|^2.

Only this module knows the field layout: samples of shape grid.shape
(scalar), grid.shape + (n,) (spinor) or grid.shape + (n, n) (site block), and
the site-major, spinor-minor index of dense operators.  Dense operators are
column-major (F-contiguous), LAPACK's order: :func:`multiplier_matrix`
transforms the site identity in small chunks and writes each column of block
(i, a) in place; :func:`site_diagonal_sandwich` and :func:`add_site_diagonal`
modify the matrix they are given, so no second operator-sized array exists.
:func:`sandwich_gram` writes the Gram matrix M^H M of such a sandwich M in
the same layout, from transforms of the multiplier's Fourier-side product
rather than from M, or its block on one eigenspace of the exchange of the
first two axes (:func:`exchange_sectors`, a sparse isometry per sector).
:func:`apply_operator` and :func:`operator_norm_1` give the product with
T + diag(V) and its 1-norm without the matrix, and :func:`interpolate`
carries samples of any layout to a finer grid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "ExchangeSector",
    "GridFunction",
    "TorusGrid",
    "add_site_diagonal",
    "apply_multiplier",
    "apply_operator",
    "dense_dim",
    "exchange_sectors",
    "interpolate",
    "lp_norm",
    "multiplier_blocks",
    "multiplier_matrix",
    "operator_norm_1",
    "per_site",
    "sandwich_gram",
    "site_diagonal_sandwich",
    "site_magnitudes",
    "weighted_lp",
]

_N_CAP = {1: 4096, 2: 64, 3: 16}
_DENSE_CAP = 8192  # hard cap on N^d * n for dense operator assembly
_SCRATCH = 1 << 16  # complex elements per scratch buffer of a chunked dense assembly


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid: d dimensions, N points per axis, side length L."""

    d: int
    N: int
    L: float

    def __post_init__(self):
        if isinstance(self.d, bool) or not isinstance(self.d, numbers.Integral):
            raise TypeError(f"d={self.d!r} must be an integer")
        if self.d not in _N_CAP:
            raise ValueError(f"d={self.d} unsupported; need 1 <= d <= 3")
        if isinstance(self.N, bool) or not isinstance(self.N, numbers.Integral):
            raise TypeError(f"N={self.N!r} must be an integer")
        if self.N % 2 != 0 or self.N < 8:
            raise ValueError(f"N={self.N} must be even and >= 8")
        if self.N > _N_CAP[self.d]:
            raise ValueError(f"N={self.N} exceeds the d={self.d} cap {_N_CAP[self.d]}")
        if isinstance(self.L, bool) or not isinstance(self.L, numbers.Real):
            raise TypeError(f"L={self.L!r} must be a number")
        if not 0 < self.L < math.inf:
            raise ValueError(f"L={self.L} must be positive and finite")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.d

    @property
    def size(self) -> int:
        return self.N**self.d

    @property
    def dx(self) -> float:
        """Spatial mesh L/N."""
        return self.L / self.N

    @property
    def weight(self) -> float:
        """Quadrature weight per site, (L/N)^d."""
        return (self.L / self.N) ** self.d

    def axes(self) -> tuple[int, ...]:
        return tuple(range(self.d))

    def field_shape(self, n: int = 1) -> tuple[int, ...]:
        """Sample shape of an n-component field: grid.shape, plus (n,) for spinors."""
        return self.shape + ((n,) if n > 1 else ())

    def xi(self) -> np.ndarray:
        """Frequency vectors in FFT order, shape (N,)*d + (d,)."""
        return _xi_cached(self.d, self.N, self.L).copy()

    def x(self) -> np.ndarray:
        """Site coordinates j*L/N, shape (N,)*d + (d,)."""
        ax = np.arange(self.N) * self.dx
        mesh = np.meshgrid(*([ax] * self.d), indexing="ij")
        return np.stack(mesh, axis=-1)

    def x_folded(self, center=0.0) -> np.ndarray:
        """Minimum-image displacement x - center, folded into [-L/2, L/2)^d."""
        c = np.broadcast_to(np.atleast_1d(np.asarray(center, dtype=float)), (self.d,))
        disp = self.x() - c
        return (disp + self.L / 2.0) % self.L - self.L / 2.0

    def refined(self) -> "TorusGrid":
        """Same box with 2N points per axis."""
        return TorusGrid(self.d, 2 * self.N, self.L)

    def rescaled(self, t: float) -> "TorusGrid":
        """Same N on the box of side L/t (frequencies stretch by t)."""
        return TorusGrid(self.d, self.N, self.L / t)


@lru_cache(maxsize=64)
def _xi_cached(d: int, N: int, L: float) -> np.ndarray:
    freqs = np.fft.fftfreq(N, d=L / N)
    mesh = np.meshgrid(*([freqs] * d), indexing="ij")
    out = np.stack(mesh, axis=-1)
    out.setflags(write=False)
    return out


@dataclass
class GridFunction:
    """Sampled function on a TorusGrid.

    values has shape grid.shape for scalar fields and grid.shape + (n,) for
    spinor fields.
    """

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        sh = self.values.shape
        if sh[: self.grid.d] != self.grid.shape or len(sh) > self.grid.d + 1:
            raise ValueError(
                f"values shape {sh} incompatible with grid shape {self.grid.shape}"
            )


def site_magnitudes(values: np.ndarray, d: int) -> np.ndarray:
    """Per-site magnitude of samples on a d-dimensional grid.

    A scalar uses |v|, a spinor its Euclidean norm and an (n, n) site block
    its spectral norm.
    """
    extra = values.ndim - d
    if extra == 0:
        return np.abs(values)
    if extra == 1:
        return np.linalg.norm(values, axis=-1)
    return np.linalg.norm(values, ord=2, axis=(-2, -1))


def per_site(a: np.ndarray, values: np.ndarray, d: int) -> np.ndarray:
    """A site array a (shape grid.shape) broadcast against the samples values."""
    return a.reshape(a.shape + (1,) * (values.ndim - d))


def apply_multiplier(m: np.ndarray, f: GridFunction) -> GridFunction:
    """Apply a Fourier multiplier to a grid function.

    m holds the multiplier values in FFT order: shape grid.shape for scalar
    multipliers (acting componentwise on spinors), grid.shape + (n, n) for
    matrix multipliers acting on spinor fields.
    """
    grid = f.grid
    mvals = np.asarray(m, dtype=complex)
    spectrum = np.fft.fftn(f.values, axes=grid.axes())
    if mvals.shape == grid.shape:
        spectrum = per_site(mvals, spectrum, grid.d) * spectrum
    elif mvals.ndim == grid.d + 2:
        if f.values.ndim != grid.d + 1 or mvals.shape[-1] != f.values.shape[-1]:
            raise ValueError("matrix multiplier needs a matching spinor field")
        spectrum = np.einsum("...ij,...j->...i", mvals, spectrum)
    else:
        raise ValueError(f"multiplier shape {mvals.shape} does not match the grid")
    return GridFunction(grid, np.fft.ifftn(spectrum, axes=grid.axes()))


def weighted_lp(mags: np.ndarray, p: float, weight: float) -> float:
    """(weight * sum mags^p)^(1/p) over per-site magnitudes, 1 <= p <= inf."""
    if np.isinf(p):
        return float(mags.max())
    if not p >= 1:
        raise ValueError(f"p={p} out of range; need 1 <= p <= inf")
    return float((weight * np.sum(mags**p)) ** (1.0 / p))


def lp_norm(f, p: float) -> float:
    """Weighted L^p norm of a field with .grid and .values, 1 <= p <= inf.

    Each site counts with its :func:`site_magnitudes` value, so this is
    also the L^q norm of a scalar or matrix potential.
    """
    return weighted_lp(site_magnitudes(np.asarray(f.values), f.grid.d), p, f.grid.weight)


def dense_dim(grid: TorusGrid, n: int) -> int:
    """N^d * n, the size of a dense operator on n-component fields; ValueError above 8192."""
    dim = grid.size * n
    if dim > _DENSE_CAP:
        raise ValueError(f"dense assembly size {dim} exceeds the cap {_DENSE_CAP}")
    return dim


def multiplier_blocks(m: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The multiplier m as (n, n) blocks, grid.shape + (n, n); a scalar m (grid.shape) gives n = 1.

    The one check of a multiplier's shape: ValueError for any other.
    """
    mvals = np.asarray(m, dtype=complex)
    blocks = mvals[..., None, None] if mvals.shape == grid.shape else mvals
    n = blocks.shape[-1]
    if blocks.shape != grid.shape + (n, n):
        raise ValueError(f"multiplier shape {mvals.shape} does not match grid/spinor")
    return blocks


def multiplier_matrix(m: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Dense matrix of a Fourier multiplier on coefficient vectors, column-major.

    m is a scalar multiplier (shape grid.shape) or an (n, n) block multiplier
    (grid.shape + (n, n)) acting on n-component spinors.  Index layout is
    site-major, spinor-minor (row-major sites); the matrix acts on
    f.values.reshape(-1), capped by :func:`dense_dim`.  The result is
    F-contiguous, LAPACK's order, so a factorization may take it without a
    copy.  The site identity is transformed in chunks of at most _SCRATCH
    elements; column j of block (i, a) is the inverse transform of m[..., i, a]
    times the transformed site j, written straight into its column.
    """
    blocks = multiplier_blocks(m, grid)
    n = blocks.shape[-1]
    dim = dense_dim(grid, n)
    size = grid.size
    axes = tuple(range(1, grid.d + 1))
    out = np.empty((dim, dim), dtype=complex, order="F")
    columns = out.T.reshape(size, n, size, n)  # [y, a, x, i] is out[x*n + i, y*n + a]
    chunk = max(1, min(size, _SCRATCH // size))
    for lo in range(0, size, chunk):
        hi = min(lo + chunk, size)
        cols = np.eye(hi - lo, size, k=lo, dtype=complex)
        fields = cols.reshape((hi - lo,) + grid.shape)
        spec = np.fft.fftn(fields, axes=axes)
        for i, a in np.ndindex(n, n):  # the spent identity rows hold each block in turn
            np.multiply(spec, blocks[..., i, a], out=fields)
            np.fft.ifftn(fields, axes=axes, out=fields)
            columns[lo:hi, a, :, i] = cols
    return out


def site_diagonal_sandwich(
    left: np.ndarray, mat: np.ndarray, right: np.ndarray, grid: TorusGrid
) -> np.ndarray:
    """mat <- diag(left) @ mat @ diag(right) in place, in the layout of multiplier_matrix.

    left and right are site-local: scalar samples (grid.shape, acting on
    each of the n spinor components) or (n, n) site blocks; n is
    mat.shape[0] // grid.size.  Returns mat.  Scalar factors scale rows,
    then columns.  Site blocks are applied to the columns of a few sites at a
    time (about _SCRATCH elements), left factor first, by the same einsum as
    over the whole matrix.
    """
    size = grid.size
    n = mat.shape[0] // size
    if left.ndim == grid.d:
        np.multiply(np.repeat(left.ravel(), n)[:, None], mat, out=mat)
        mat *= np.repeat(right.ravel(), n)[None, :]
        return mat
    lb = left.reshape(size, n, n)
    rb = right.reshape(size, n, n)
    step = max(1, _SCRATCH // (mat.shape[0] * n))
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        cols = mat[:, lo * n : hi * n]
        block = cols.reshape(size, n, hi - lo, n)
        cols[...] = np.einsum("xab,xbyc,ycd->xayd", lb, block, rb[lo:hi], optimize=True).reshape(cols.shape)
    return mat


@dataclass(frozen=True)
class ExchangeSector:
    """One eigenspace of an exchange involution P on the index of a dense operator.

    P acts on n-component fields by (P f)(x) = U f(partner(x)), with partner
    an involution of the sites and U a Hermitian unitary with U^2 = 1; on
    the modes of the same grid it acts by the same formula.  iso is the
    sparse (dim, sector dim) isometry Q whose orthonormal columns span the
    eigenspace P = eps.  Column j of Q is (1 + eps P)(e_site ⊗ seed)/2 for
    the site sites[j] and the spinor vector seeds[j]: on a pair of sites it
    is sqrt(2) e_a at the pair's first site, on a fixed site an eps
    eigenvector of U.
    """

    iso: scipy.sparse.csr_array
    sites: np.ndarray
    seeds: np.ndarray


def exchange_sectors(grid: TorusGrid, n: int, U: np.ndarray | None) -> tuple[ExchangeSector, ...]:
    """The nonempty eigenspaces of the exchange f(x) -> U f(swap x), P = +1 first.

    swap exchanges the first two axes of the grid.  U is an (n, n)
    Hermitian unitary with U^2 = 1 (``symbols.exchange_unitary``); None
    takes partner(x) = x and U = 1, whose one sector is the whole space
    with Q the identity.  An operator that commutes with P is block
    diagonal in these sectors.  Each eigenbasis of U comes from
    Gram-Schmidt on the columns of (1 + eps U)/2, its eps projector.
    """
    import scipy.sparse  # here, not at the top: runs that build no Gram matrix skip its ~2 MB

    size = grid.size
    dim = dense_dim(grid, n)
    sites = np.arange(size)
    if U is None:
        partner, U = sites, np.eye(n, dtype=complex)
    else:
        partner = sites.reshape(grid.shape).swapaxes(0, 1).ravel()
    fixed, reps = sites[partner == sites], sites[sites < partner]
    spin = np.arange(n)
    out = []
    for eps in (1.0, -1.0):
        basis = []  # orthonormal eps eigenvectors of U
        for col in (np.eye(n) + eps * U).T / 2.0:
            for b in basis:
                col = col - b * np.vdot(b, col)
            if np.linalg.norm(col) > 1e-8:
                basis.append(col / np.linalg.norm(col))
        col_sites = np.concatenate([np.repeat(fixed, len(basis)), np.repeat(reps, n)])
        if not col_sites.size:
            continue
        seeds = np.concatenate(
            [np.tile(np.reshape(basis, (-1, n)), (fixed.size, 1)), np.tile(math.sqrt(2.0) * np.eye(n), (reps.size, 1))]
        )
        # Q e_j = (e_site ⊗ seed + eps e_partner ⊗ U seed) / 2; on a fixed site the two halves add up
        rows = np.concatenate([col_sites[:, None] * n + spin, partner[col_sites][:, None] * n + spin]).ravel()
        cols = np.tile(np.repeat(np.arange(col_sites.size), n), 2)
        vals = np.concatenate([seeds, eps * seeds @ U.T]).ravel() / 2.0
        iso = scipy.sparse.csr_array((vals, (rows, cols)), shape=(dim, col_sites.size))
        iso.eliminate_zeros()
        out.append(ExchangeSector(iso, col_sites, seeds))
    return tuple(out)


def sandwich_gram(
    left: np.ndarray, m: np.ndarray, right: np.ndarray, grid: TorusGrid, sector: ExchangeSector
) -> np.ndarray:
    """Q^H M^H M Q for M = diag(left) R diag(right), R the matrix of the multiplier m, built without M.

    left, m and right are as in :func:`site_diagonal_sandwich` and
    :func:`multiplier_matrix`; Q is the isometry of an
    :class:`ExchangeSector` of M^H M, and the result is column-major (for
    the one sector of ``exchange_sectors(grid, n, None)``, Q = 1, it is
    M^H M in their layout).  With R = F^{-1} diag(r) F
    and W = left^H left site by site, R^H W R = F^{-1} C^ F, where
    C^[k, k'] = r(k)^H w^(k - k') r(k') / N^d and w^ is the transform of W:
    a site-diagonal W couples the modes through its transform alone.

    A sector needs a scalar left and right that are invariant under the
    exchange P, and an m with U m(swap k) U^H = m(k) (which cases qualify,
    and why the reflections x_j -> -x_j are not used, is
    ``birman_schwinger.assemble_bs``'s rule); then W, R and the
    transform commute with P, and Q^H F^{-1} C^ F Q = X F_Q, with
    X = Q^H F^{-1} C^ Q and F_Q = Q^H F Q.  Column j of X needs one column
    of C^ only: Q e_j = (1 + eps P) s_j / 2, C^ commutes with P and Q^H P
    = eps Q^H, so X e_j = Q^H F^{-1} C^ s_j for the single-mode vector
    s_j = e_{sites[j]} ⊗ seeds[j].  Those columns are built a few at a
    time in two scratch buffers of _SCRATCH elements in all, their w^
    factor gathered from the transform tiled twice; each panel is
    transformed over k and restricted by Q^H.  The rows are then taken a
    panel at a time: expanded by conj(Q), transformed over k' and
    restricted by Q^T, since the transform matrix is symmetric.  Last,
    right^H and right scale the rows and columns; on a sector a scalar
    right is one value per column, that of its site.  O(dim^2 log dim)
    work and no matrix product; the result is the only operator-sized
    array the call makes, of the sector's size.
    """
    size, d, N = grid.size, grid.d, grid.N
    blocks = multiplier_blocks(m, grid)
    n = blocks.shape[-1]
    r = blocks.reshape(size, n, n)
    r_conj = np.conj(r)
    dim = dense_dim(grid, n)
    scalar = left.ndim == d
    if scalar:
        w = np.abs(left) ** 2
    else:
        lb = left.reshape(grid.shape + (n, n))
        w = np.einsum("...ba,...bc->...ac", np.conj(lb), lb)
    w_hat = np.fft.fftn(w, axes=grid.axes()) / size
    # shifted[N - k'][..., k] is w^(k - k'), axis by axis, from the transform tiled twice
    shifted = sliding_window_view(np.tile(w_hat, (2,) * d + (1,) * (w.ndim - d)), grid.shape, axis=grid.axes())
    far = N - np.indices(grid.shape).reshape(d, size)
    seeded = np.einsum("jca,ja->cj", r[sector.sites], sector.seeds)  # [c, j]: (r(k'_j) seed_j)[c]
    terms = [(b, b) for b in range(n)] if scalar else list(np.ndindex(n, n))  # a scalar W is w times the identity
    iso = sector.iso
    restrict, expand, restrict_rows = iso.conj().T.tocsr(), iso.conj(), iso.T.tocsr()
    sdim = sector.sites.size
    out = np.empty((sdim, sdim), dtype=complex, order="F")
    width = max(1, _SCRATCH // (2 * dim))  # columns per panel: two scratch buffers share _SCRATCH elements
    scratch = np.empty((2, width * dim), dtype=complex)
    for lo in range(0, sdim, width):
        hi = min(lo + width, sdim)
        gathered = shifted[tuple(far[:, sector.sites[lo:hi]])].reshape(hi - lo, *w.shape[d:], size)
        table = np.ascontiguousarray(np.moveaxis(gathered, -1, 0))[:, None]  # [k, -, j, ...]: w^(k - k'_j)
        part, term = (buf[: (hi - lo) * dim].reshape(size, n, hi - lo) for buf in scratch)
        for t, (b, c) in enumerate(terms):  # part[k, i, j] += conj(r(k)[b, i]) w^(k - k'_j)[b, c] seeded[c, j]
            dst = term if t else part
            np.multiply(r_conj[:, b, :, None], seeded[c, lo:hi], out=dst)
            if not scalar:
                dst *= table[..., b, c]
            if t:
                part += dst
        if scalar:
            part *= table
        fields = part.reshape(grid.shape + (n, hi - lo))
        np.fft.ifftn(fields, axes=grid.axes(), out=fields)
        out[:, lo:hi] = restrict @ part.reshape(dim, hi - lo)
    rows = out.T  # [j, i]: row i of the result is column i here
    for lo in range(0, sdim, width):
        hi = min(lo + width, sdim)
        fields = (expand @ rows[:, lo:hi]).reshape(grid.shape + (n, hi - lo))
        np.fft.fftn(fields, axes=grid.axes(), out=fields)
        rows[:, lo:hi] = restrict_rows @ fields.reshape(dim, hi - lo)
    if scalar:
        b = right.ravel()[sector.sites]
        np.multiply(np.conj(b)[:, None], out, out=out)
        out *= b[None, :]
        return out
    if sdim != dim:
        raise ValueError("site-block factors take the whole space, not an exchange sector")
    rb = right.reshape(grid.shape + (n, n))
    return site_diagonal_sandwich(np.conj(np.swapaxes(rb, -1, -2)), out, rb, grid)


def add_site_diagonal(mat: np.ndarray, values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """mat += diag(values) in place, for site-local values as in site_diagonal_sandwich."""
    size = grid.size
    n = mat.shape[0] // size
    if values.ndim == grid.d:
        mat[np.diag_indices_from(mat)] += np.repeat(values.ravel(), n)
    else:
        first = np.arange(size)[:, None, None] * n  # entry (x, i, a) sits at (first + i, first + a)
        spin = np.arange(n)
        mat[first + spin[:, None], first + spin[None, :]] += values.reshape(size, n, n)
    return mat


def apply_operator(m: np.ndarray, values: np.ndarray, f: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """(T + diag(values)) f without the matrix, T the Fourier multiplier m.

    m is as in :func:`multiplier_matrix`, values site-local as in
    :func:`add_site_diagonal`, and f holds samples in the field layout
    (grid.field_shape(n)).  The result has f's shape and is
    add_site_diagonal(multiplier_matrix(m, grid), values, grid) @ f.reshape(-1),
    reshaped: one transform pair and a site-by-site product.
    """
    out = apply_multiplier(m, GridFunction(grid, f)).values
    if values.ndim == grid.d:
        out += per_site(values, f, grid.d) * f
    else:
        n = values.shape[-1]
        out += np.einsum("...ia,...a->...i", values, f.reshape(grid.shape + (n,))).reshape(f.shape)
    return out


def operator_norm_1(m: np.ndarray, values: np.ndarray, grid: TorusGrid) -> float:
    """||T + diag(values)||_1, the largest column sum, from the kernel of m without the matrix.

    Column (y, a) of :func:`multiplier_matrix` holds the kernel K = ifftn(m)
    moved to site y, so its sum over the other sites is the same for every y;
    only its own site block, K(0) plus values at y, differs from column to
    column.  Arguments are as in :func:`apply_operator`.
    """
    blocks = multiplier_blocks(m, grid)
    n = blocks.shape[-1]
    kernel = np.fft.ifftn(blocks, axes=grid.axes()).reshape(grid.size, n, n)  # [x, i, a]: entry (x, i; 0, a)
    off_site = np.abs(kernel[1:]).sum(axis=(0, 1))
    if values.ndim == grid.d:
        own = kernel[0] + values.reshape(grid.size, 1, 1) * np.eye(n)
    else:
        own = kernel[0] + values.reshape(grid.size, n, n)
    return float((off_site + np.abs(own).sum(axis=1)).max())


def interpolate(values: np.ndarray, grid: TorusGrid, fine: TorusGrid) -> np.ndarray:
    """Trigonometric interpolation of samples on grid onto fine, the same box with fine.N >= grid.N.

    values has any field layout (grid.shape and then spinor or site-block
    axes, which ride along).  The modes of grid keep their coefficients on
    fine, with each axis's Nyquist coefficient split evenly between +N/2 and
    -N/2, so real samples interpolate to real samples.
    """
    coeffs = np.fft.fftn(values, axes=grid.axes()) / grid.size
    for ax in range(grid.d):
        coeffs = _pad_axis(coeffs, ax, grid.N, fine.N)
    return np.fft.ifftn(coeffs, axes=fine.axes()) * fine.size


def _pad_axis(c: np.ndarray, ax: int, n_old: int, n_new: int) -> np.ndarray:
    sh = list(c.shape)
    sh[ax] = n_new
    out = np.zeros(sh, dtype=complex)
    half = n_old // 2
    sl_out, sl_in = [slice(None)] * c.ndim, [slice(None)] * c.ndim
    sl_out[ax], sl_in[ax] = slice(0, half), slice(0, half)
    out[tuple(sl_out)] = c[tuple(sl_in)]
    sl_out[ax], sl_in[ax] = slice(n_new - half + 1, n_new), slice(n_old - half + 1, n_old)
    out[tuple(sl_out)] = c[tuple(sl_in)]
    # Split the Nyquist coefficient between +N/2 and -N/2 on the wide grid.
    sl_in[ax] = half
    for pos in (half, n_new - half):
        sl_out[ax] = pos
        out[tuple(sl_out)] += 0.5 * c[tuple(sl_in)]
    return out
