"""Kinetic symbols for the four shipped operator families.

Scalar families (spinor dimension 1):

* ``fractional_laplacian`` -- T(xi) = |xi|^s
* ``relativistic``         -- T(xi) = (1 + |xi|^2)^(s/2) - 1

Dirac families (s fixed to 1, spinor dimension 2 for d <= 2 and 4 for d = 3):

* ``dirac_massless``       -- T(xi) = sum_j alpha_j xi_j
* ``dirac_massive``        -- T(xi) = sum_j alpha_j xi_j + beta

with alpha_j, beta a Hermitian Clifford family (alpha_i alpha_j + alpha_j
alpha_i = 2 delta_ij, beta anticommutes with every alpha_j, beta^2 = 1).

T(xi) on frequency arrays is built in :func:`symbol_values` only; its
eigenvalue branches are :func:`dispersion_values`, and the sorted level set
of a lattice is ``resolvent.lattice_levels``.  :func:`exchange_unitary`
gives the spinor rotation, if any, under which T is symmetric in the axis
exchange xi_1 <-> xi_2.

Frequencies are plain vectors; the 2*pi convention lives entirely in the
lattice transforms, which pair these symbols with the frequency grid k/L.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
import numpy as np

__all__ = [
    "SymbolKind",
    "SymbolSpec",
    "clifford_generators",
    "critical_values",
    "dispersion_values",
    "exchange_unitary",
    "symbol_values",
]

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


class SymbolKind(str, Enum):
    FRACTIONAL_LAPLACIAN = "fractional_laplacian"
    RELATIVISTIC = "relativistic"
    DIRAC_MASSLESS = "dirac_massless"
    DIRAC_MASSIVE = "dirac_massive"


_DIRAC_KINDS = (SymbolKind.DIRAC_MASSLESS, SymbolKind.DIRAC_MASSIVE)


def clifford_generators(d: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Return the fixed Hermitian Clifford family (alphas, beta) for dimension d.

    d = 1: alpha_1 = sigma_x, beta = sigma_z (2x2).
    d = 2: alpha_1 = sigma_x, alpha_2 = sigma_y (off-diagonal involutions),
           beta = sigma_z (diagonal).
    d = 3: the standard 4x4 family alpha_j = offdiag(sigma_j, sigma_j),
           beta = diag(1, 1, -1, -1).
    """
    if d == 1:
        return [_SIGMA_X.copy()], _SIGMA_Z.copy()
    if d == 2:
        return [_SIGMA_X.copy(), _SIGMA_Y.copy()], _SIGMA_Z.copy()
    if d == 3:
        alphas = []
        for sig in (_SIGMA_X, _SIGMA_Y, _SIGMA_Z):
            a = np.zeros((4, 4), dtype=complex)
            a[:2, 2:] = sig
            a[2:, :2] = sig
            alphas.append(a)
        beta = np.zeros((4, 4), dtype=complex)
        beta[:2, :2] = _I2
        beta[2:, 2:] = -_I2
        return alphas, beta
    raise ValueError(f"no Clifford family shipped for d={d}; supported d: 1, 2, 3")


@dataclass(frozen=True)
class SymbolSpec:
    """Validated description of a kinetic symbol.

    Parameters
    ----------
    kind : SymbolKind or str
        One of the four shipped families.
    d : int
        Space dimension, 1 <= d <= 3.
    s : float
        Symbol order. Must be positive; forced to 1 for Dirac kinds.
    """

    kind: SymbolKind
    d: int
    s: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "kind", SymbolKind(self.kind))
        if isinstance(self.d, bool) or not isinstance(self.d, numbers.Integral):
            raise TypeError(f"d={self.d!r} must be an integer")
        if not 1 <= self.d <= 3:
            raise ValueError(f"d={self.d} unsupported; need 1 <= d <= 3")
        if isinstance(self.s, bool) or not isinstance(self.s, numbers.Real):
            raise TypeError(f"s={self.s!r} must be a real number")
        if self.kind in _DIRAC_KINDS:
            if self.s != 1.0:
                raise ValueError(f"s is fixed to 1 for Dirac kinds, got s={self.s}")
        elif not 0.0 < float(self.s) < float("inf"):
            raise ValueError(f"s={self.s} out of range; need s > 0")

    @property
    def n(self) -> int:
        """Spinor dimension: 1 for scalar kinds, 2 for Dirac in d <= 2, 4 in d = 3."""
        if self.kind in _DIRAC_KINDS:
            return 4 if self.d == 3 else 2
        return 1

    @property
    def is_dirac(self) -> bool:
        return self.kind in _DIRAC_KINDS


def symbol_values(spec: SymbolSpec, xi) -> np.ndarray:
    """T on a frequency array xi of shape (..., d).

    Scalar kinds give real samples, shape (...); Dirac kinds give the
    Hermitian matrices sum_j alpha_j xi_j (+ beta if massive), shape (..., n, n).
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1:] != (spec.d,):
        raise ValueError(f"last axis must have length d={spec.d}")
    if spec.kind is SymbolKind.FRACTIONAL_LAPLACIAN:
        return np.sum(xi**2, axis=-1) ** (spec.s / 2.0)
    if spec.kind is SymbolKind.RELATIVISTIC:
        return (1.0 + np.sum(xi**2, axis=-1)) ** (spec.s / 2.0) - 1.0
    alphas, beta = clifford_generators(spec.d)
    mats = np.einsum("...j,jab->...ab", xi, np.stack(alphas))
    if spec.kind is SymbolKind.DIRAC_MASSIVE:
        mats = mats + beta
    return mats


def dispersion_values(spec: SymbolSpec, xi_array: np.ndarray) -> np.ndarray:
    """Eigenvalue branches of T over a frequency array of shape (..., d).

    Returns shape (..., n): for scalar kinds the single branch T itself; for
    Dirac kinds -lambda(xi) and +lambda(xi), each with multiplicity n/2, where
    lambda = |xi| (massless) or sqrt(1 + |xi|^2) (massive).
    """
    if not spec.is_dirac:
        return symbol_values(spec, xi_array)[..., None]
    xi_array = np.asarray(xi_array, dtype=float)
    if xi_array.shape[-1] != spec.d:
        raise ValueError(f"last axis must have length d={spec.d}")
    r2 = np.sum(xi_array**2, axis=-1)
    lam = np.sqrt(r2) if spec.kind is SymbolKind.DIRAC_MASSLESS else np.sqrt(1.0 + r2)
    half = spec.n // 2
    return np.stack([-lam] * half + [lam] * half, axis=-1)


def exchange_unitary(spec: SymbolSpec) -> np.ndarray | None:
    """The (n, n) unitary U with U T(swap xi) U^H = T(xi), or None.

    swap exchanges xi_1 and xi_2.  U is 1 for the scalar kinds in d >= 2
    and (sigma_x + sigma_y)/sqrt(2) for massless Dirac in d = 2.  In d = 3
    both Dirac kinds admit sigma_z (x) (sigma_x - sigma_y)/sqrt(2): it
    exchanges alpha_1 and alpha_2 and fixes alpha_3 and beta.  Massive
    Dirac in d = 2 has none, since a U that exchanges sigma_x and sigma_y
    flips beta = sigma_z, and d = 1 has no exchange.  Every U returned is
    Hermitian with U^2 = 1, so the exchange f(x) -> U f(swap x) is an
    involution with eigenvalues +1 and -1.  U concerns T alone: a potential
    whose values are (n, n) site blocks would need U V(swap x) U^H = V(x)
    as well, which is not checked, so such a potential always takes one
    sector (``birman_schwinger.assemble_bs``).
    """
    if spec.d == 1 or (spec.kind is SymbolKind.DIRAC_MASSIVE and spec.d == 2):
        return None
    if not spec.is_dirac:
        return np.ones((1, 1), dtype=complex)
    if spec.d == 2:
        return (_SIGMA_X + _SIGMA_Y) / np.sqrt(2.0)
    return np.kron(_SIGMA_Z, _SIGMA_X - _SIGMA_Y) / np.sqrt(2.0)


def critical_values(spec: SymbolSpec) -> tuple[float, ...]:
    """Critical values Lambda_c of the dispersion (values at gradient zeros).

    fractional_laplacian: {0} if s > 1 else empty;
    relativistic: {0}; dirac_massless: empty; dirac_massive: {1, -1}.
    """
    if spec.kind is SymbolKind.FRACTIONAL_LAPLACIAN:
        return (0.0,) if spec.s > 1.0 else ()
    if spec.kind is SymbolKind.RELATIVISTIC:
        return (0.0,)
    if spec.kind is SymbolKind.DIRAC_MASSLESS:
        return ()
    return (1.0, -1.0)
