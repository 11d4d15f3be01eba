"""Dense factorizations of operator-sized matrices, all on scipy's LAPACK.

Every eigendecomposition, SVD and determinant of a Hamiltonian or
Birman-Schwinger matrix runs here.  numpy links its own BLAS, and on a few
cores the idle workers of one threaded BLAS stall the threads of the other,
so nothing here runs on numpy's.  Inputs are not checked for finiteness.
Operators arrive column-major (:mod:`bslab.lattice`), LAPACK's own order.
:func:`eigvals`, :func:`eigvalsh`, :func:`svdvals` and
:func:`hessenberg_logdet` overwrite the matrix they are given, so their
callers pass one they own; the other functions leave their argument as it
was.

Eigenvalues come two ways.  :func:`eigvals` is zgeev, for any square
matrix.  :func:`eigvalsh` is zheevd on the upper triangle, for a matrix
that is Hermitian up to rounding (a Hamiltonian with a self-adjoint
potential, or a Gram matrix); it gives the whole spectrum at about the
cost of one shift-invert solve by :func:`nearest_eigenpair`.  Where an
eigenvalue z is already known, :func:`eigenvectors_near` gives its right
and left eigenvectors from one LU of H - z, and :func:`accepts_residual` is
the backward-error bar that a pair checked elsewhere (on another grid, say)
must pass, the same one :func:`nearest_eigenpair` applies.

Determinants come two ways.  :func:`logdet` is one LU of the matrix itself.
:func:`hessenberg_logdet` reduces H to Hessenberg form once and then gives
det(H - z) for any z in O(n^2), by Hyman's method with a scaled
back-substitution; a contour search that needs det(H - z) at a few hundred
points pays one reduction instead of one LU per point.

Singular values come from :func:`svdvals`, zgesdd.  Where a Schatten sum
weights them by sigma^alpha with alpha > 2, their squares may instead come
from :func:`eigvalsh` of a Gram matrix built without the matrix itself; the
caller picks the route (:func:`bslab.birman_schwinger.assemble_bs`).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
import scipy.linalg
from scipy.linalg.blas import izamax, zdotu, zgemv, ztrsv
from scipy.linalg.lapack import zgeev, zgeev_lwork, zgehrd, zgehrd_lwork, zgetrf, zgetrs, zheevd, zheevd_lwork

__all__ = [
    "eigvals",
    "eigvalsh",
    "eig",
    "svdvals",
    "logdet",
    "hessenberg_logdet",
    "nearest_eigenpair",
    "eigenvectors_near",
    "accepts_residual",
]


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


@lru_cache(maxsize=None)
def _heevd_lwork(n: int) -> tuple[int, int, int]:
    """Optimal (lwork, lrwork, liwork) for zheevd's eigenvalues of an n x n matrix.

    zheevd's own default is the minimal workspace, on which the reduction
    to tridiagonal form runs unblocked (about 1.4x slower at n = 1568).
    """
    work, iwork, rwork, _ = zheevd_lwork(n, compute_v=0, lower=0)
    return int(work.real), int(rwork), int(iwork)


def eigvalsh(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian matrix held in A's upper triangle, ascending; A is overwritten.

    zheevd reads only the upper triangle and the real part of the diagonal,
    so it solves the Hermitian E that they define.  For an A that is
    Hermitian up to rounding, ||A - E||_2 <= ||A - A^H||_1, and by
    Bauer-Fike (Numer. Math. 2, 1960; E is normal) every eigenvalue of A
    lies within that distance of one of E's.  Where ||A - A^H||_1 is a few
    eps ||A||_1, that is far inside the 1e-13 ||A||_1 backward error that
    :func:`nearest_eigenpair` accepts.  An F-contiguous complex A is reduced
    in place; any other A is copied first and left as it was.
    """
    lwork, lrwork, liwork = _heevd_lwork(A.shape[0])
    lam, _, info = zheevd(A, compute_v=0, lower=0, lwork=lwork, lrwork=lrwork, liwork=liwork, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"zheevd failed with info={info}")
    return lam


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


_HYMAN_ROWS = 64  # rows per step of the scaled back-substitution


@lru_cache(maxsize=None)
def _gehrd_lwork(n: int) -> int:
    """Optimal zgehrd workspace for an n x n matrix; the wrapper's default runs unblocked."""
    work, _ = zgehrd_lwork(n)
    return int(work.real)


def _scale_below_one(x: np.ndarray, big: float) -> int:
    """Scale x by the power of two 2^-e that brings big below one, exactly; returns e >= 0."""
    if big <= 1.0:
        return 0
    _, e = math.frexp(big)
    x *= math.ldexp(1.0, -e)
    return e


def _scaled_solve(D: np.ndarray, x: np.ndarray, lo: int) -> int:
    """x[lo:lo+b] <- 2^-e D^{-1} x[lo:lo+b] for upper triangular D, column by column; returns e.

    Before its column is eliminated, each solved entry is brought to modulus
    at most one by scaling all of x, so no partial sum exceeds the
    right-hand side plus D's row sums, and no quotient by D's diagonal (at
    least eps ||H||_1 after deflation) overflows.  It is ztrsv's loop with
    scaling added, and runs only where ztrsv overflowed.
    """
    e = 0
    for j in range(D.shape[0] - 1, -1, -1):
        x[lo + j] /= D[j, j]
        e += _scale_below_one(x, abs(x[lo + j]))
        x[lo : lo + j] -= x[lo + j] * D[:j, j]
    return e


def _hyman(A: np.ndarray) -> Callable[[complex], tuple[float, float]]:
    """z -> (log|det(A - z)|, arg det(A - z)) for an unreduced upper Hessenberg A.

    Hyman's method (Wilkinson, The Algebraic Eigenvalue Problem, 1965, ch. 7):
    with a = row 0 of A - z, c its last column below row 0 and T the upper
    triangle below row 0 (A's subdiagonal on its diagonal, A - z's diagonal
    on its superdiagonal), det(A - z) = (-1)^(m-1) det T (a_last - a_head
    T^{-1} c).  det T is z-free.  T^{-1} c is one back-substitution in
    blocks of _HYMAN_ROWS rows from the bottom, after each of which the
    solution so far is scaled by a power of two (exactly) and the exponent
    carried, as LAPACK's zlatrs does: unscaled, products of small
    subdiagonals overflow.  A block on which ztrsv itself overflows (tens of
    subdiagonals near the deflation tolerance, as a zero well on a
    degenerate T(D) gives) is solved again by :func:`_scaled_solve`, which
    scales after every entry.  Each block's triangle and the panel to its
    right are laid out once, here; per z only a block's superdiagonal is
    shifted, and then restored from its saved copy, bit for bit.  The
    panel's one diagonal entry of A, its bottom-left corner, is shifted in
    the right-hand side instead.
    """
    m = A.shape[0]
    if m == 1:
        h = complex(A[0, 0])
        return lambda z: (math.log(abs(h - z)) if h != z else -math.inf, cmath.phase(h - z))
    t = m - 1
    row, col, sub = A[0].copy(), A[1:, t].copy(), A.diagonal(-1)
    log_t = float(np.sum(np.log(np.abs(sub))))
    angle_t = float(np.sum(np.angle(sub))) + math.pi * (t % 2)
    steps = []
    for lo in range((t - 1) // _HYMAN_ROWS * _HYMAN_ROWS, -1, -_HYMAN_ROWS):
        hi = min(lo + _HYMAN_ROWS, t)
        D = np.array(A[1 + lo : 1 + hi, lo:hi], order="F")
        k = np.arange(hi - lo - 1)
        steps.append((lo, hi, D, k, D[k, k + 1].copy(), np.array(A[1 + lo : 1 + hi, hi:t], order="F")))

    def logdet(z: complex) -> tuple[float, float]:
        x = col.copy()  # c, then T^{-1} c scaled by 2^-e
        x[-1] -= z
        e = 0
        for lo, hi, D, k, sup, P in steps:
            if hi < t:
                x = zgemv(-1.0, P, x, beta=1.0, y=x, offx=hi, offy=lo, overwrite_y=1)
                x[hi - 1] += z * x[hi]
            rhs = x[lo:hi].copy()
            D[k, k + 1] = sup - z
            try:
                x = ztrsv(D, x, offx=lo, overwrite_x=1)
                if not np.isfinite(x[lo:hi]).all():
                    x[lo:hi] = rhs
                    e += _scaled_solve(D, x, lo)
            finally:
                D[k, k + 1] = sup
            e += _scale_below_one(x, abs(x[lo + izamax(x, n=hi - lo, offx=lo)]))
        q = math.ldexp(1.0, -e) * row[t] - (zdotu(row[:t], x) - z * x[0])
        if q == 0:
            return -math.inf, 0.0
        return log_t + math.log(abs(q)) + e * math.log(2.0), angle_t + cmath.phase(q)

    return logdet


def hessenberg_logdet(H: np.ndarray) -> Callable[[complex], tuple[float, float]]:
    """z -> (log|det(H - z)|, arg det(H - z)) from one Hessenberg reduction; H is overwritten.

    zgehrd reduces an F-contiguous complex H in place (any other H is
    copied first).  Subdiagonal entries at or below eps ||H||_1, the
    reduction's own backward error, are taken as zero; det(H - z) is then
    the product over the unreduced diagonal blocks, each by :func:`_hyman`
    in O(m^2) per z.  The angle is reduced to its principal value, and an
    exactly singular H - z gives (-inf, 0.0).
    """
    n = H.shape[0]
    H = np.asfortranarray(H, dtype=complex)
    tolerance = np.finfo(float).eps * np.linalg.norm(H, 1)
    A, _, info = zgehrd(H, lwork=_gehrd_lwork(n), overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"zgehrd failed with info={info}")
    cuts = [0, *(np.flatnonzero(np.abs(A.diagonal(-1)) <= tolerance) + 1).tolist(), n]
    blocks = [_hyman(A[p:q, p:q]) for p, q in zip(cuts, cuts[1:])]

    def logdet(z: complex) -> tuple[float, float]:
        log_abs = angle = 0.0
        for block in blocks:
            part_log, part_angle = block(z)
            log_abs += part_log
            angle += part_angle
        if log_abs == -math.inf:
            return -math.inf, 0.0
        return log_abs, math.remainder(angle, 2.0 * math.pi)

    return logdet


_ARNOLDI_STEPS = 20
_CHECK_EVERY = 4
_RESIDUAL_TOLERANCE = 1e-13  # backward error ||H x - lam x|| / ||H||_1 of an accepted pair


@lru_cache(maxsize=None)
def _geev_lwork(m: int) -> int:
    """Optimal zgeev workspace for an m x m matrix, as scipy.linalg.eig queries it."""
    work, _ = zgeev_lwork(m, compute_vl=0, compute_vr=1)
    return int(work.real)


def accepts_residual(residual: float, norm_1: float) -> bool:
    """Whether ||H x - lam x|| = residual, for a unit x, is within _RESIDUAL_TOLERANCE * ||H||_1."""
    return residual < _RESIDUAL_TOLERANCE * norm_1


def _start_vector(n: int) -> np.ndarray:
    """The fixed pseudo-random start of every inverse iteration here, not normalized."""
    rng = np.random.default_rng(0)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _inverse_step(lu: np.ndarray, piv: np.ndarray, x: np.ndarray, trans: int = 0) -> np.ndarray:
    """(H - z)^{-1} x from H - z's LU (trans=2: (H - z)^{-H} x), normalized; x itself if that overflows."""
    y, _ = zgetrs(lu, piv, x, trans=trans)
    norm = np.linalg.norm(y)
    return y / norm if np.isfinite(norm) and norm > 0.0 else x


_INVERSE_STEPS = 2


def eigenvectors_near(H: np.ndarray, z: complex) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Unit right and left eigenvectors (x, y) of H for its eigenvalue at z, or None; H is overwritten.

    z is meant to be an eigenvalue of H to working precision, one that
    :func:`eigvals` returned.  One LU of H - z (in place for an F-contiguous
    complex H; any other H is copied first), then _INVERSE_STEPS steps of
    inverse iteration on it from :func:`nearest_eigenpair`'s fixed start
    vector, for x, and as many with its conjugate transpose, for y: Hx ~ zx
    and y^H H ~ z y^H.  At a simple, isolated z the first step already
    lands on the eigenvector to rounding; the vectors are not checked here,
    and at a cluster they mix its members.  An exactly singular H - z
    returns None.
    """
    n = H.shape[0]
    H = np.asfortranarray(H, dtype=complex)
    H.flat[:: n + 1] -= z
    lu, piv, info = zgetrf(H, overwrite_a=True)
    if info > 0:
        return None
    x = y = _start_vector(n)
    for _ in range(_INVERSE_STEPS):
        x = _inverse_step(lu, piv, x)
        y = _inverse_step(lu, piv, y, trans=2)
    return x, y


def nearest_eigenpair(H: np.ndarray, z: complex) -> Optional[tuple[complex, np.ndarray]]:
    """Eigenpair (lam, x) of H nearest z by Arnoldi on (H - z)^{-1}, or None if unconverged.

    One LU of H - z, then up to _ARNOLDI_STEPS Arnoldi steps (Gram-Schmidt
    twice per step) from a fixed pseudo-random unit vector.  Every
    _CHECK_EVERY steps, the Ritz vector of the Ritz value of largest modulus
    takes one inverse-iteration step on the same LU, and the unit vector x
    it gives, with its Rayleigh quotient lam = x^H H x, is accepted when
    ||H x - lam x|| passes :func:`accepts_residual` (a small
    residual on the inverse alone also passes pseudo-eigenvalues of a
    far-from-normal H).  The step brings the backward error down to
    rounding: a Ritz pair itself can stall just above the bar, and on a
    far-from-normal H a Ritz vector that only just passes can be 1e-8 off
    the eigenvector.  An exactly singular H - z also returns None, and so
    does H = 0, whose tolerance is 0.
    getrf, getrs and geev are what lu_factor, lu_solve and eig run, minus
    their per-call argument checks.
    """
    n = H.shape[0]
    H = np.asfortranarray(H)
    norm_1 = np.linalg.norm(H, 1)
    shifted = H.copy(order="F")
    shifted.flat[:: n + 1] -= z
    lu, piv, info = zgetrf(shifted, overwrite_a=True)
    if info > 0:  # z is an eigenvalue to working precision: the caller's dense solve answers
        return None
    start = _start_vector(n)
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
            x = _inverse_step(lu, piv, zgemv(1.0, Q[:, :m], Y[:, k] / np.linalg.norm(Y[:, k])))
            Hx = zgemv(1.0, H, x)
            lam = np.vdot(x, Hx)
            if accepts_residual(np.linalg.norm(Hx - lam * x), norm_1):
                return lam, x
            if exhausted:  # invariant subspace: its Ritz values are all there is
                return None
        Q[:, j + 1] = w / h[j + 1, j]
    return None
