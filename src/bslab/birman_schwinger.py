"""Birman-Schwinger operators M(z) = |V|^{1/2} (T(D) - z)^{-1} V^{1/2}.

:func:`bs_matrix` is the one place M(z) is built -- potential check,
half-potential split and the dense sandwiched resolvent, multiplied in place
on the column-major R0(z), so M is the one operator-sized array it makes.
:func:`assemble_bs` returns the singular values of M for a Schatten
exponent alpha: for 2 < alpha < inf from the eigenvalues of M^H M, which
:func:`lattice.sandwich_gram` builds on the Fourier side without M, one
block per sector of the axis exchange where M commutes with it;
otherwise from zgesdd of the M that :func:`bs_matrix` builds, overwritten on
the way.  Callers that need M itself call :func:`bs_matrix`.
On top of it this module computes Schatten norms from singular values and
regularized Fredholm determinants det_n(I + M), and locates determinant zeros
inside rectangles of the complex plane by an argument-principle bisection
with secant polishing.  :func:`regularized_det` takes det_n(I + M) of a given
M from one LU factorization plus traces of powers of M; it is the oracle.
The determinants along a search need neither M(z) nor an LU:
det(I + M(z)) = det(H - z) / det(H0 - z), so :func:`bs_det_evaluator`
reduces H = H0 + V to Hessenberg form once and takes each det(H - z) in
O(dim^2) by Hyman's method (:func:`dense.hessenberg_logdet`), det(H0 - z)
from the dispersion levels, and the order-2 counterterm tr M(z) in O(dim).
The search samples rectangle edges at exact fractions of their
length, so refinement levels share their common points.  For z off
the dispersion levels of T, the finite model makes the eigenvalue
correspondence exact: z is an eigenvalue of H_0 + V iff -1 is an eigenvalue
of M(z).  :func:`bs_eigenpair_near` measures it from one LU of I + M(z) and
a short Arnoldi run on the inverse (:func:`dense.nearest_eigenpair`), with
the full eigendecomposition as its fallback; :func:`bs_residual` measures it
from the full spectrum and is the oracle.  The singular values, the
determinants and the eigenvalues come from :mod:`bslab.dense`.
"""

from __future__ import annotations

import cmath
import logging
import math
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from . import dense
from .lattice import TorusGrid, exchange_sectors, multiplier_matrix, sandwich_gram, site_diagonal_sandwich
from .potentials import PotentialField
from .resolvent import resolvent_multiplier
from .spectra import assemble_hamiltonian
from .symbols import SymbolSpec, dispersion_values, exchange_unitary

__all__ = [
    "DetValue",
    "half_potentials",
    "bs_matrix",
    "assemble_bs",
    "schatten_order",
    "schatten_norm",
    "regularized_det",
    "det_bound_constant",
    "bs_residual",
    "bs_eigenpair_near",
    "bs_principle_check",
    "bs_det_evaluator",
    "det_contour_roots",
    "ContourBoundaryError",
]

_log = logging.getLogger("bslab")

# Singular values below this fraction of sigma_1 are transform round-off
# and are dropped from Schatten sums (keeps norms monotone in alpha).
_SV_TRUNCATION = 1e-13

_TWO_PI = 2.0 * math.pi

# Contour search: segments per rectangle side at the first winding level,
# and the smallest box side and the secant tolerance, relative to the
# rectangle's longer side.
_BASE_SEGMENTS = 8
_MIN_BOX_REL = 1e-9
_POLISH_REL = 5e-13
_MAX_EVALS = 40000  # determinant evaluations one search may spend


# ---------------------------------------------------------------------------
# half potentials


def half_potentials(V: PotentialField) -> tuple[np.ndarray, np.ndarray]:
    """The samples of |V|^{1/2} and V^{1/2}, the factors with V^{1/2}|V|^{1/2} = V.

    Scalar case: |V|^{1/2} = sqrt(|V|) and V^{1/2} = sqrt(|V|) e^{i arg V},
    so the product recovers V pointwise (zeros map to zeros).  Matrix case:
    polar decomposition V = U|V| site-wise via SVD, |V|^{1/2} = (V*V)^{1/4}
    and V^{1/2} = U |V|^{1/2}.
    """
    vals = V.values
    if not V.is_matrix:
        mag_root = np.sqrt(np.abs(vals))
        return mag_root, mag_root * np.exp(1j * np.angle(vals))
    u, sig, vh = np.linalg.svd(vals)
    root = np.sqrt(sig)
    return np.swapaxes(vh, -1, -2).conj() @ (root[..., :, None] * vh), u @ (root[..., :, None] * vh)


# ---------------------------------------------------------------------------
# assembly


def bs_matrix(spec: SymbolSpec, grid: TorusGrid, V: PotentialField, z: complex) -> np.ndarray:
    """Dense M(z) = |V|^{1/2} R0(z) V^{1/2}, column-major.

    The half potentials multiply the freshly assembled R0(z) in place, so M
    is the only operator-sized array the call leaves behind; the caller owns it.
    """
    V.check_fits(grid, spec.n)
    left, right = half_potentials(V)  # |V|^{1/2}, V^{1/2}
    rmat = multiplier_matrix(resolvent_multiplier(spec, grid, z), grid)
    return site_diagonal_sandwich(left, rmat, right, grid)


def assemble_bs(spec: SymbolSpec, grid: TorusGrid, V: PotentialField, z: complex, alpha: float) -> np.ndarray:
    """Singular values of M(z), nonincreasing, for the Schatten alpha-norm.

    This is the one place that picks how they are computed.  For 2 < alpha
    < inf they are the square roots of the eigenvalues of G = M^H M
    (:func:`dense.eigvalsh`): the singular values below sqrt(eps) sigma_1
    that squaring blurs weigh less than eps in S^alpha.  G is built on the
    Fourier side from R0(z)'s multiplier and the half potentials
    (:func:`lattice.sandwich_gram`), without M, in O(dim^2 log dim), and
    solved one exchange sector at a time.  Where d >= 2, V is scalar and
    exactly symmetric under the exchange x_1 <-> x_2, and the symbol has an
    exchange unitary U (:func:`symbols.exchange_unitary`), the exchange
    f(x) -> U f(swap x) commutes with M, so G is block diagonal in its two
    eigenspaces (:func:`lattice.exchange_sectors`): two Hermitian solves of
    about dim/2 each, a quarter of the work of one of dim.  Otherwise the
    one sector is the whole space.  The reflections x_j -> -x_j are left
    out: a Dirac symbol would need U m(-xi) U^H = m(xi), and on an even N
    the Nyquist mode -N/2 is its own mirror image, where that fails.  One
    DEBUG record on the ``bslab`` logger gives the sector dimensions.  V is
    first scaled by the power of two 2^-k that brings its largest real or
    imaginary part into [0.5, 1), exactly and in two halves, each a normal
    float even for a subnormal V; M is linear in V, so the singular values
    are 2^k sqrt(max(lam, 0)), merged nonincreasing over the sectors.
    Every other alpha takes zgesdd (:func:`dense.svdvals`) of the M that
    :func:`bs_matrix` builds: alpha = inf needs sigma_1 to full precision,
    alpha < 2 weighs the small singular values at more than their square,
    and alpha = 2 keeps zgesdd's values in the certificates that pin them.
    Either route makes one operator-sized array at a time and overwrites
    it (the Gram route one sector block, about G/4 where there are two); a
    caller that needs M itself builds it with :func:`bs_matrix`.
    """
    if not 2.0 < alpha < math.inf:
        return dense.svdvals(bs_matrix(spec, grid, V, z))
    V.check_fits(grid, spec.n)
    U = exchange_unitary(spec)
    if U is not None and (V.is_matrix or not np.array_equal(V.values, V.values.swapaxes(0, 1))):
        U = None
    _, k = math.frexp(max(np.abs(V.values.real).max(), np.abs(V.values.imag).max()))
    left, right = half_potentials(V.scaled(math.ldexp(1.0, -(k // 2))).scaled(math.ldexp(1.0, k // 2 - k)))
    mult = resolvent_multiplier(spec, grid, z)
    lams = [
        dense.eigvalsh(sandwich_gram(left, mult, right, grid, sector))
        for sector in exchange_sectors(grid, spec.n, U)
    ]
    _log.debug("gram sectors: %s", ", ".join(str(lam.size) for lam in lams))
    return np.ldexp(np.sqrt(np.maximum(np.sort(np.concatenate(lams))[::-1], 0.0)), k)


# ---------------------------------------------------------------------------
# Schatten norms


def schatten_order(d: int, q: float) -> float:
    """Schatten exponent alpha = q(d-1)/(d-q) for the resolvent sandwich.

    The quotient degenerates to 0/0 at d = 1; along the admissible family
    q -> (d+1)/2 the interpolation limit is the Hilbert-Schmidt value 2,
    which is what the d = 1 bound actually delivers.
    """
    if d == 1:
        return 2.0
    if not 1.0 <= q < d:
        raise ValueError(f"need 1 <= q < d for the Schatten exponent, got q={q}, d={d}")
    return q * (d - 1) / (d - q)


def schatten_norm(sv: np.ndarray, alpha: float) -> float:
    """Schatten alpha-norm from nonincreasing singular values; alpha = inf gives sigma_1."""
    if not alpha >= 1:
        raise ValueError(f"Schatten exponent must be >= 1, got {alpha}")
    if sv.size == 0 or sv[0] == 0.0:
        return 0.0
    if math.isinf(alpha):
        return float(sv[0])
    kept = sv[sv >= _SV_TRUNCATION * sv[0]]
    # factor out sigma_1 so large exponents cannot overflow
    return float(sv[0] * np.sum((kept / sv[0]) ** alpha) ** (1.0 / alpha))


# ---------------------------------------------------------------------------
# regularized determinants


class DetValue(NamedTuple):
    """det_n(I + M) in log form, so no magnitude overflows: log_abs = log|det_n|
    (-inf for a singular I + M) and phase = arg det_n, stored as its principal
    value (math.remainder by 2 pi, so |phase| <= pi).
    """

    log_abs: float
    phase: float


def _check_order(order: int) -> int:
    """The regularization order as an int; below 1 is a ValueError."""
    order = int(order)
    if order < 1:
        raise ValueError(f"determinant regularization order must be >= 1, got {order}")
    return order


def _power_traces(mat: np.ndarray, order: int) -> list[complex]:
    """tr(mat^k) for k = 1 .. order - 1.

    tr(mat^k) is the sum of mat^a * (mat^b)^T over all entries, with a =
    ceil(k/2) and b = floor(k/2), so only the powers up to
    mat^ceil((order - 1)/2) are formed, one matrix product each above the
    first: order 3 takes none.
    """
    powers = [mat]  # powers[p - 1] is mat^p
    traces = [complex(np.trace(mat))] if order > 1 else []
    for k in range(2, order):
        a, b = (k + 1) // 2, k // 2
        if a > len(powers):
            powers.append(powers[-1] @ mat)
        traces.append(complex(np.einsum("ij,ji->", powers[a - 1], powers[b - 1])))
    return traces


def _det_value(log_abs: float, angle: float, traces: list[complex]) -> DetValue:
    """det_n(I + M) from log|det(I + M)|, arg det(I + M) and traces[k-1] = tr(M^k), k < n.

    The regularizing factor exp(sum_k (-1)^k tr(M^k) / k) joins in log form.
    """
    reg = sum(((-1) ** k * t / k for k, t in enumerate(traces, 1)), 0j)
    return DetValue(log_abs=log_abs + reg.real, phase=math.remainder(angle + reg.imag, _TWO_PI))


def regularized_det(M: np.ndarray, order: int) -> DetValue:
    """Regularized determinant det_n(I+M) = det(I+M) exp(sum_{k=1}^{n-1} (-1)^k tr(M^k) / k).

    det(I+M) comes from one LU factorization (dense.logdet); the regularizing
    factor from traces of powers of M, so orders 2 and 3 cost no matrix
    product and every two orders above one more.  Magnitude and phase are
    combined in log form.  A singular I+M gives log_abs = -inf.
    The LU sees I + M through M's own diagonal, shifted by one and then
    restored bit for bit, so M must be writable and is unchanged on return.
    The oracle for :func:`bs_det_evaluator`.
    """
    order = _check_order(order)
    mat = np.asarray(M, dtype=complex)
    traces = _power_traces(mat, order)
    diagonal = mat.diagonal().copy()
    mat.flat[:: mat.shape[0] + 1] += 1.0  # I + M for the factorization, then M again
    try:
        log_abs, angle = dense.logdet(mat)
    finally:
        mat.flat[:: mat.shape[0] + 1] = diagonal
    return _det_value(log_abs, angle, traces)


def det_bound_constant(order: int) -> float:
    """Constant C_n in log|det_n(I+M)| <= C_n ||M||_{S^n}^n (orders 1 and 2)."""
    if order == 1:
        return 1.0
    if order == 2:
        return 0.5
    raise ValueError(f"no sharp constant wired in for order {order}")


# ---------------------------------------------------------------------------
# eigenvalue correspondence


def bs_residual(M: np.ndarray) -> float:
    """min_j |mu_j + 1| over the eigenvalues mu_j of a BS matrix M, from the full spectrum.

    zgeev overwrites M (:func:`dense.eigvals`), so the caller passes an M it
    does not read again.  The oracle for :func:`bs_eigenpair_near`.
    ``verify_main`` records these values in its certificates, whose bytes
    the golden references pin, so it keeps this full ``eigvals`` until those
    references are next recaptured.
    """
    mu = dense.eigvals(M)
    return float(np.min(np.abs(mu + 1.0)))


def bs_eigenpair_near(M: np.ndarray) -> tuple[float, np.ndarray]:
    """(|mu + 1|, g) for the eigenvalue mu of M nearest -1 and its unit eigenvector g.

    One LU of I + M and a short Arnoldi run on its inverse
    (:func:`dense.nearest_eigenpair`); when that finds no pair -- I + M
    exactly singular, no convergence, or M = 0 -- the full eigendecomposition
    answers.
    """
    pair = dense.nearest_eigenpair(M, -1.0)
    if pair is None:
        mu, vecs = dense.eig(M)
        k = int(np.argmin(np.abs(mu + 1.0)))
        pair = mu[k], vecs[:, k]
    mu, g = pair
    return float(abs(mu + 1.0)), g


def bs_principle_check(
    spec: SymbolSpec,
    grid: TorusGrid,
    V: PotentialField,
    z_candidate: complex,
) -> float:
    """min_j |mu_j(M(z)) + 1|; near zero certifies z as an eigenvalue of H_0+V."""
    return bs_eigenpair_near(bs_matrix(spec, grid, V, z_candidate))[0]


def bs_det_evaluator(
    spec: SymbolSpec,
    grid: TorusGrid,
    V: PotentialField,
    order: int,
) -> Callable[[complex], DetValue]:
    """z -> det_order(I + M(z)), without assembling M(z).

    det(I + M(z)) = det(H - z) / det(H0 - z) for H = H0 + V.  H is
    assembled and reduced to Hessenberg form once, here; each point takes
    det(H - z) from one scaled back-substitution on that form
    (:func:`dense.hessenberg_logdet`) and det(H0 - z) from the dispersion
    levels.  The regularizing traces are those of P(z) = R0^(z) G^, with
    R0^(z) the block-diagonal resolvent multiplier and G^ = F V F^{-1} the
    potential's matrix on Fourier modes: P is similar to R0(z) V, which has
    M(z)'s traces of powers.  Every diagonal block of G^ is mean_x V(x), so
    tr P is the trace of (sum_k r_k(z)) mean_x V(x), and orders 1 and 2 cost
    O(dim) beyond the back-substitution.  Only order 3 and up build G^, and
    each point writes P(z) into one work matrix for tr(P^k).  A contour
    search builds one evaluator, and ``bslab bs`` one per sample grid of the
    Schatten-scaling fit it tabulates.
    """
    order = _check_order(order)
    n, size = spec.n, grid.size
    logdet_h = dense.hessenberg_logdet(assemble_hamiltonian(spec, grid, V))
    levels = dispersion_values(spec, grid.xi()).ravel()  # the eigenvalues of H0
    blocks = V.values if V.is_matrix else V.values[..., None, None] * np.eye(n)
    mean_v = blocks.reshape(size, n, n).mean(axis=0)
    if order >= 3:
        # conj(F^{-1} conj(v) F) = F v F^{-1}: the site samples, read as a multiplier;
        # row-major, so that block row x of the product is r(x) times block row x of G^
        dim = size * n
        G = np.conj(multiplier_matrix(np.conj(blocks), grid), order="C").reshape(size, n, dim)
        work = np.empty((dim, dim), dtype=complex)

    def det(z: complex) -> DetValue:
        r = resolvent_multiplier(spec, grid, z).reshape(size, n, n)  # raises on a level of H0
        log_h, angle_h = logdet_h(z)
        log_h0 = complex(np.sum(np.log(levels - z)))
        if order >= 3:
            np.matmul(r, G, out=work.reshape(size, n, dim))
            traces = _power_traces(work, order)
        elif order == 2:
            traces = [complex(np.sum(r.sum(axis=0) * mean_v.T))]
        else:
            traces = []
        return _det_value(log_h - log_h0.real, angle_h - log_h0.imag, traces)

    return det


# ---------------------------------------------------------------------------
# contour root search


class ContourBoundaryError(RuntimeError):
    """A determinant zero sits on, or crowds, the edge of a search rectangle.

    Inside the bisection this is the signal to move the cut; on the outer
    rectangle it reaches the caller, who has to shift the rectangle.
    """


def _edge_point(edge: tuple[complex, complex], t: Fraction) -> complex:
    """The point at exact fraction t of the way along edge = (a, b).

    Every sample of an edge comes from its fraction, so one fraction reached
    at two refinement levels is one point and one cached determinant.
    """
    a, b = edge
    return b if t == 1 else a + (b - a) * float(t)


def _phase_change(sample: Callable[[complex], DetValue], edge, t0: Fraction, t1: Fraction, min_len: float):
    """Continuous phase increment of det along an edge, fractions t0 to t1; None if a zero sits on it.

    Every interval is verified against its own midpoint: the direct step and
    the two half steps are congruent mod 2 pi by construction, so any
    discrepancy is an integer number of hidden whirls and forces refinement.
    Tameness of each half (phase step <= pi/2, log-magnitude step <= 1)
    guards against a whirl aligned so the midpoint fails to reveal it.
    """
    a, b = _edge_point(edge, t0), _edge_point(edge, t1)
    la, pa = sample(a)
    lb, pb = sample(b)
    direct = math.remainder(pb - pa, _TWO_PI)
    if abs(b - a) < min_len:
        if math.isfinite(la) and math.isfinite(lb) and abs(direct) <= 0.5 * math.pi and abs(lb - la) <= 1.0:
            return direct
        return None
    mid = (t0 + t1) / 2
    lm, pm = sample(_edge_point(edge, mid))
    s1 = math.remainder(pm - pa, _TWO_PI)
    s2 = math.remainder(pb - pm, _TWO_PI)
    if (
        math.isfinite(la)
        and math.isfinite(lm)
        and math.isfinite(lb)
        and abs(s1) <= 0.5 * math.pi
        and abs(s2) <= 0.5 * math.pi
        and abs(la - lm) <= 1.0
        and abs(lm - lb) <= 1.0
        and abs(direct - (s1 + s2)) < 1e-6
    ):
        return s1 + s2
    left = _phase_change(sample, edge, t0, mid, min_len)
    if left is None:
        return None
    right = _phase_change(sample, edge, mid, t1, min_len)
    if right is None:
        return None
    return left + right


def _winding_at(sample: Callable[[complex], DetValue], x0, x1, y0, y1, min_len, segments):
    corners = [
        complex(x0, y0),
        complex(x1, y0),
        complex(x1, y1),
        complex(x0, y1),
    ]
    total = 0.0
    for edge in zip(corners, corners[1:] + corners[:1]):
        for k in range(segments):
            step = _phase_change(sample, edge, Fraction(k, segments), Fraction(k + 1, segments), min_len)
            if step is None:
                return None
            total += step
    return int(round(total / _TWO_PI))


def _winding(sample: Callable[[complex], DetValue], x0, x1, y0, y1, min_len, segments):
    """Winding number, base sampling tripled until two levels agree.

    The adaptive walk alone can alias past a picket fence of zeros or
    resolvent resonances lying just outside an edge (each coarse step looks
    tame mod 2 pi).  Agreement between two refinement levels is the
    practical stability certificate; tripling keeps the levels non-nested,
    so correlated aliasing across levels is broken.
    """
    prev = None
    seg = segments
    while True:
        w = _winding_at(sample, x0, x1, y0, y1, min_len, seg)
        if w is None:
            return None
        if prev is not None and w == prev:
            return w
        prev = w
        seg *= 3
        if seg > 9000:
            raise ContourBoundaryError(
                "winding number failed to stabilize under refinement; the "
                "rectangle boundary runs too close to a cluster of zeros or "
                "to the dispersion levels of the symbol"
            )


def _secant_polish(
    sample: Callable[[complex], DetValue], z0: complex, z1: complex, tol: float, max_iter: int = 60
):
    """Secant iteration on exp(log_abs - shift + i phase); None if it wanders."""
    la0, ph0 = sample(z0)
    la1, ph1 = sample(z1)
    if la0 == -math.inf:
        return z0
    if la1 == -math.inf:
        return z1
    shift = max(la0, la1)
    h0 = cmath.rect(math.exp(min(la0 - shift, 500.0)), ph0)
    h1 = cmath.rect(math.exp(min(la1 - shift, 500.0)), ph1)
    for _ in range(max_iter):
        denom = h1 - h0
        if denom == 0:
            return None
        z2 = z1 - h1 * (z1 - z0) / denom
        if not (math.isfinite(z2.real) and math.isfinite(z2.imag)):
            return None
        if abs(z2 - z1) <= tol:
            return z2
        la2, ph2 = sample(z2)
        z0, h0 = z1, h1
        z1 = z2
        h1 = cmath.rect(math.exp(min(la2 - shift, 500.0)), ph2)
    return None


def det_contour_roots(
    det_fn: Callable[[complex], DetValue],
    lo: complex,
    hi: complex,
) -> list[complex]:
    """Zeros of det_fn inside the open rectangle with corners lo, hi.

    Winding numbers along rectangle boundaries (adaptively refined phase
    tracking) drive a bisection; once a box holds a single zero a secant
    iteration polishes it.  Returns roots with multiplicity, sorted by
    (real, imag).  Zeros pinned on a cut are dodged by shifting the cut;
    a zero on the outer boundary raises.  The rectangle must lie in the
    resolvent set of H_0: poles of z -> M(z) corrupt the winding count.
    """
    lo = complex(lo)
    hi = complex(hi)
    if not (lo.real < hi.real and lo.imag < hi.imag):
        raise ValueError("need lo.real < hi.real and lo.imag < hi.imag")
    scale = max(hi.real - lo.real, hi.imag - lo.imag)
    min_len = 1e-12 * scale
    min_box = _MIN_BOX_REL * scale
    polish_tol = _POLISH_REL * scale

    @cache
    def sample(z: complex) -> DetValue:
        # the cache holds one entry per completed evaluation
        if sample.cache_info().currsize >= _MAX_EVALS:
            raise RuntimeError(f"contour search exceeded its evaluation budget ({_MAX_EVALS})")
        return det_fn(z)

    roots: list[complex] = []

    def solve(x0, x1, y0, y1, depth):
        w = _winding(sample, x0, x1, y0, y1, min_len, _BASE_SEGMENTS)
        if w is None:
            raise ContourBoundaryError(
                "determinant zero sits on the search rectangle boundary; "
                "shift the rectangle"
            )
        if w == 0:
            return
        if w < 0:
            raise RuntimeError(
                "negative winding number: the rectangle contains resolvent poles "
                "(dispersion levels of the symbol); choose a rectangle in the "
                "resolvent set of H_0"
            )
        if depth > 80:
            raise RuntimeError("contour bisection exceeded maximum depth")
        cx = 0.5 * (x0 + x1)
        cy = 0.5 * (y0 + y1)
        if w == 1:
            center = complex(cx, cy)
            offset = 0.01 * complex(x1 - x0, y1 - y0)
            polished = _secant_polish(sample, center, center + offset, polish_tol)
            if polished is not None and (
                x0 - min_len <= polished.real <= x1 + min_len
                and y0 - min_len <= polished.imag <= y1 + min_len
            ):
                roots.append(polished)
                return
        if max(x1 - x0, y1 - y0) <= min_box:
            roots.extend([complex(cx, cy)] * w)
            return
        split_x = (x1 - x0) >= (y1 - y0)
        for frac in (0.5, 0.57, 0.43, 0.61, 0.37):
            cut = x0 + frac * (x1 - x0) if split_x else y0 + frac * (y1 - y0)
            before = len(roots)
            try:
                if split_x:
                    solve(x0, cut, y0, y1, depth + 1)
                    solve(cut, x1, y0, y1, depth + 1)
                else:
                    solve(x0, x1, y0, cut, depth + 1)
                    solve(x0, x1, cut, y1, depth + 1)
                return
            except ContourBoundaryError:
                del roots[before:]
        raise RuntimeError("a determinant zero blocked every attempted cut")

    solve(lo.real, hi.real, lo.imag, hi.imag, 0)
    return sorted(roots, key=lambda z: (z.real, z.imag))
