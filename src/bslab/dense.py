"""Dense factorizations of operator-sized matrices, all on scipy's LAPACK.

Every eigendecomposition, SVD and determinant of a Hamiltonian or
Birman-Schwinger matrix runs here.  numpy links its own BLAS, and on a few
cores the idle workers of one threaded BLAS stall the threads of the other,
so nothing here runs on numpy's.  Inputs are not checked for finiteness.
Operators arrive column-major (:mod:`bslab.lattice`), LAPACK's own order.
:func:`svdvals` overwrites the matrix it is given, so its caller passes one
it owns; the other functions leave their argument as it was.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.linalg.blas import zgemv
from scipy.linalg.lapack import zgeev, zgeev_lwork, zgetrf, zgetrs

__all__ = ["eigvals", "eig", "svdvals", "logdet", "nearest_eigenpair"]


def eigvals(A: np.ndarray) -> np.ndarray:
    """Every eigenvalue of the square matrix A, in zgeev's order."""
    return scipy.linalg.eigvals(A, check_finite=False)


def eig(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of A and unit right eigenvectors (the columns), in zgeev's order."""
    return scipy.linalg.eig(A, check_finite=False)


def svdvals(A: np.ndarray) -> np.ndarray:
    """Singular values of A, nonincreasing; A is overwritten.

    zgesdd reduces an F-contiguous complex A in place, so a column-major
    operator costs no copy; any other A is copied first and left as it was.
    """
    return scipy.linalg.svdvals(A, overwrite_a=True, check_finite=False)


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
