"""Dense factorizations of operator-sized matrices, all on scipy's LAPACK.

Every eigendecomposition, SVD and determinant of a Hamiltonian or
Birman-Schwinger matrix runs here.  numpy links its own BLAS, and on a few
cores the idle workers of one threaded BLAS stall the threads of the other,
so nothing here runs on numpy's.  Inputs are not checked for finiteness.
Operators arrive column-major (:mod:`bslab.lattice`), LAPACK's own order.
:func:`eigvals`, :func:`svdvals` and :func:`gram_svdvals` overwrite the
matrix they are given, so their callers pass one they own; the other
functions leave their argument as it was.

Singular values come two ways.  :func:`svdvals` is zgesdd.
:func:`gram_svdvals` takes the eigenvalues of the Hermitian Gram matrix
A^H A, which it forms in A's own storage, and is about a quarter cheaper.
Squaring costs the small singular values half their digits, so it serves
only sums that weight them by sigma^alpha with alpha > 2; the caller picks
the route (:func:`bslab.birman_schwinger.assemble_bs`).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.linalg.blas import izamax, zgemm, zgemv
from scipy.linalg.lapack import zgeev, zgeev_lwork, zgetrf, zgetrs, zheevd, zheevd_lwork

from .lattice import _SCRATCH

__all__ = ["eigvals", "eig", "svdvals", "gram_svdvals", "logdet", "nearest_eigenpair"]


def eigvals(A: np.ndarray) -> np.ndarray:
    """Every eigenvalue of the square matrix A, in zgeev's order; A is overwritten.

    zgeev reduces an F-contiguous complex A in place, so a column-major
    operator costs no copy; any other A is copied first and left as it was.
    """
    return scipy.linalg.eigvals(A, overwrite_a=True, check_finite=False)


def eig(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of A and unit right eigenvectors (the columns), in zgeev's order."""
    return scipy.linalg.eig(A, check_finite=False)


def svdvals(A: np.ndarray) -> np.ndarray:
    """Singular values of A, nonincreasing; A is overwritten.

    zgesdd reduces an F-contiguous complex A in place, so a column-major
    operator costs no copy; any other A is copied first and left as it was.
    """
    return scipy.linalg.svdvals(A, overwrite_a=True, check_finite=False)


def _gram_in_place(A: np.ndarray) -> None:
    """Overwrite the upper triangle of the square, F-contiguous A with A^H A.

    Column panels J = [lo, hi) run from the last one down.  One zgemm puts
    C[:hi, J] = A[:, :hi]^H A[:, J] in a scratch panel of at most _SCRATCH
    elements, which then goes over A's columns J: no later panel reads
    them, since every later panel ends at this one's lo.  Below the
    diagonal blocks A keeps its own entries.
    """
    n = A.shape[0]
    width = max(1, _SCRATCH // n)
    panel = np.empty(n * min(width, n), dtype=complex)
    for lo in range((n - 1) // width * width, -1, -width):
        hi = min(lo + width, n)
        C = panel[: hi * (hi - lo)].reshape((hi, hi - lo), order="F")
        A[:hi, lo:hi] = zgemm(1.0, A[:, :hi], A[:, lo:hi], trans_a=2, c=C, overwrite_c=1)


@lru_cache(maxsize=None)
def _heevd_lwork(n: int) -> tuple[int, int, int]:
    """Optimal (lwork, lrwork, liwork) for zheevd's eigenvalues of an n x n matrix.

    zheevd's own default is the minimal workspace, on which the reduction
    to tridiagonal form runs unblocked (about 1.4x slower at n = 1568).
    """
    work, iwork, rwork, _ = zheevd_lwork(n, compute_v=0, lower=0)
    return int(work.real), int(rwork), int(iwork)


def gram_svdvals(A: np.ndarray) -> np.ndarray:
    """Singular values of the square matrix A, nonincreasing, from A^H A; A is overwritten.

    A is first scaled by the power of two 2^-k that brings its largest
    entry (by |Re| + |Im|, izamax) into [0.5, 2): exactly, and so that
    squaring neither underflows nor overflows.  Its upper triangle then
    becomes A^H A (:func:`_gram_in_place`), zheevd takes the eigenvalues lam
    in place, and the singular values are 2^k sqrt(max(lam, 0)).  Each is
    accurate to about eps * sigma_1^2 / sigma, not eps * sigma_1 as from
    :func:`svdvals`, so sigma below sqrt(eps) * sigma_1 carries no digits.
    An F-contiguous complex A costs no copy; any other A is copied first
    and left as it was.
    """
    A = np.asfortranarray(A, dtype=complex)
    flat = A.reshape(-1, order="F")
    _, k = math.frexp(abs(flat[izamax(flat)]))
    A *= math.ldexp(1.0, -k)
    _gram_in_place(A)
    lwork, lrwork, liwork = _heevd_lwork(A.shape[0])
    lam, _, info = zheevd(A, compute_v=0, lower=0, lwork=lwork, lrwork=lrwork, liwork=liwork, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"zheevd failed with info={info}")
    return np.ldexp(np.sqrt(np.maximum(lam[::-1], 0.0)), k)


def logdet(A: np.ndarray) -> tuple[float, float]:
    """(log|det A|, arg det A) of a square matrix from one LU factorization.

    The factorization is of A.T, which has A's determinant and, for a
    C-ordered A, is already in LAPACK's column-major order, so zgetrf copies
    it without transposing; A is not modified.  The diagonal of U gives the
    log and the angle, and an odd pivot permutation adds pi; the angle is
    reduced to its principal value.  An exactly singular A gives (-inf, 0.0).
    """
    lu, piv, info = zgetrf(A.T)
    if info > 0:
        return -math.inf, 0.0
    u = np.diagonal(lu)
    angle = float(np.sum(np.angle(u))) + math.pi * (np.count_nonzero(piv != np.arange(piv.size)) % 2)
    return float(np.sum(np.log(np.abs(u)))), math.remainder(angle, 2.0 * math.pi)


_ARNOLDI_STEPS = 20
_CHECK_EVERY = 4
_RESIDUAL_TOLERANCE = 1e-13  # backward error ||H x - lam x|| / ||H||_1 of an accepted pair


@lru_cache(maxsize=None)
def _geev_lwork(m: int) -> int:
    """Optimal zgeev workspace for an m x m matrix, as scipy.linalg.eig queries it."""
    work, _ = zgeev_lwork(m, compute_vl=0, compute_vr=1)
    return int(work.real)


def _inverse_step(lu: np.ndarray, piv: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(H - z)^{-1} x from H - z's LU, normalized; x itself if that overflows."""
    y, _ = zgetrs(lu, piv, x)
    norm = np.linalg.norm(y)
    return y / norm if np.isfinite(norm) and norm > 0.0 else x


def nearest_eigenpair(H: np.ndarray, z: complex) -> Optional[tuple[complex, np.ndarray]]:
    """Eigenpair (lam, x) of H nearest z by Arnoldi on (H - z)^{-1}, or None if unconverged.

    One LU of H - z, then up to _ARNOLDI_STEPS Arnoldi steps (Gram-Schmidt
    twice per step) from a fixed pseudo-random unit vector.  Every
    _CHECK_EVERY steps, the Ritz value theta of largest modulus maps back to
    lam = z + 1/theta, and the pair is accepted when its unit Ritz vector x
    is an eigenvector of H itself to within _RESIDUAL_TOLERANCE * ||H||_1 (a
    small residual on the inverse alone also passes pseudo-eigenvalues of a
    far-from-normal H).  The accepted x then takes one inverse-iteration
    step on the same LU, which brings its backward error down to rounding;
    on a far-from-normal H an x that only just passes can be 1e-8 off the
    eigenvector.  lam is the Ritz value either way.  An exactly singular
    H - z also returns None, and so does H = 0, whose tolerance is 0.
    getrf, getrs and geev are what lu_factor, lu_solve and eig run, minus
    their per-call argument checks.
    """
    n = H.shape[0]
    H = np.asfortranarray(H)
    tolerance = _RESIDUAL_TOLERANCE * np.linalg.norm(H, 1)
    shifted = H.copy(order="F")
    shifted.flat[:: n + 1] -= z
    lu, piv, info = zgetrf(shifted, overwrite_a=True)
    if info > 0:  # z is an eigenvalue to working precision: the caller's dense solve answers
        return None
    rng = np.random.default_rng(0)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    steps = min(_ARNOLDI_STEPS, n)
    Q = np.zeros((n, steps + 1), dtype=complex, order="F")
    h = np.zeros((steps + 1, steps), dtype=complex)
    Q[:, 0] = start / np.linalg.norm(start)
    for j in range(steps):
        w, _ = zgetrs(lu, piv, Q[:, j])
        for _ in range(2):
            c = zgemv(1.0, Q[:, : j + 1], w, trans=2)
            w = zgemv(-1.0, Q[:, : j + 1], c, beta=1.0, y=w, overwrite_y=True)
            h[: j + 1, j] += c
        h[j + 1, j] = np.linalg.norm(w)
        if not np.isfinite(h[j + 1, j]):
            return None
        exhausted = h[j + 1, j] <= np.finfo(float).eps * np.abs(h[: j + 2, : j + 1]).max()
        if exhausted or (j + 1) % _CHECK_EVERY == 0 or j + 1 == steps:
            m = j + 1
            theta, _, Y, info = zgeev(h[:m, :m], compute_vl=0, compute_vr=1, lwork=_geev_lwork(m))
            if info != 0:  # QR iteration on the Hessenberg matrix did not converge
                return None
            k = int(np.argmax(np.abs(theta)))
            lam = z + 1.0 / theta[k]
            x = zgemv(1.0, Q[:, :m], Y[:, k] / np.linalg.norm(Y[:, k]))
            if np.linalg.norm(zgemv(1.0, H, x) - lam * x) < tolerance:
                return lam, _inverse_step(lu, piv, x)
            if exhausted:  # invariant subspace: its Ritz values are all there is
                return None
        Q[:, j + 1] = w / h[j + 1, j]
    return None
