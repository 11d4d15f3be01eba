"""Weighted eigenvalue sums on the z side of the resolvent set.

The paper's Lieb-Thirring-type bounds are sums over discrete eigenvalues z
of dist(z, sigma(H0)) times an explicit |z|-dependent weight, one weight per
kinetic symbol.  One table gives each weight's parameters and term;
NAMED_WEIGHTS lists its names, and weighted_blaschke_sum evaluates the sum
for a list of classified points.  The proof reaches these
weights through conformal disk charts and a disk-side Blaschke condition;
only the z-side sums are computed here.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .spectra import SpectralLabel, SpectralPoint

__all__ = ["NAMED_WEIGHTS", "weighted_blaschke_sum"]

_PARAMS = ("alpha", "eps", "d")  # in the order they are checked; the alpha-weights need all three

#: The weights of weighted_blaschke_sum, by name: the parameters each needs, and
#: its term for a point p given alpha, eps and r = (d-1)/(d+1) (nan where not
#: needed).  Each term is dist(z, sigma(H0)) times the z-side weight:
#:   plain           1                                  (compact-region sums)
#:   inverse_sqrt    |z|^{-(1-eps)/2}                   (scalar slit plane)
#:   massless_dirac  (1+|z|)^{-alpha(d-1)/(d+1)-1-eps}
#:   massive_dirac   |z^2-1|^{alpha/2-1+eps} (1+|z|)^{-alpha-alpha(d-1)/(d+1)+1-eps}
#:   relativistic    |z|^{alpha/2-1+eps} (1+|z|)^{-2alpha(d-1)/(d+1)+1/2-alpha/2-eps}
_WEIGHTS: dict[str, tuple[tuple[str, ...], Callable[..., float]]] = {
    "plain": ((), lambda p, a, e, r: p.dist_sigma),
    "inverse_sqrt": (("eps",), lambda p, a, e, r: p.dist_sigma * abs(p.z) ** (-(1.0 - e) / 2.0)),
    "massless_dirac": (
        _PARAMS,
        lambda p, a, e, r: p.dist_sigma * (1.0 + abs(p.z)) ** (-a * r - 1.0 - e),
    ),
    "massive_dirac": (
        _PARAMS,
        lambda p, a, e, r: p.dist_sigma
        * abs(p.z * p.z - 1.0) ** (a / 2.0 - 1.0 + e)
        * (1.0 + abs(p.z)) ** (-a - a * r + 1.0 - e),
    ),
    "relativistic": (
        _PARAMS,
        lambda p, a, e, r: p.dist_sigma
        * abs(p.z) ** (a / 2.0 - 1.0 + e)
        * (1.0 + abs(p.z)) ** (-2.0 * a * r + 0.5 - a / 2.0 - e),
    ),
}
NAMED_WEIGHTS = tuple(_WEIGHTS)


def _require(value, name: str, weight: str):
    if value is None:
        raise ValueError(f"named weight {weight!r} needs the {name} parameter")
    return float(value)


def weighted_blaschke_sum(
    points: Iterable[SpectralPoint],
    weight: str,
    *,
    d: int = None,
    alpha: float = None,
    eps: float = None,
) -> float:
    """Weighted sum over discrete eigenvalues.

    Each point contributes dist(z, sigma) times the named |z| weight (see
    NAMED_WEIGHTS), with alpha/eps/d bound from the run configuration.
    Summation uses numpy's deterministic pairwise reduction.
    """
    points = list(points)
    for p in points:
        if p.label is not SpectralLabel.DISCRETE:
            raise ValueError(f"point {p.z} is labeled {p.label.value}, need Discrete")
        if p.dist_sigma <= 0.0:
            raise ValueError(f"point {p.z} lies on the essential spectrum")
    if not points:
        return 0.0
    if weight not in _WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}; named weights: {NAMED_WEIGHTS}")
    needs, term = _WEIGHTS[weight]
    a, e, dd = (
        _require(value, name, weight) if name in needs else math.nan
        for name, value in zip(_PARAMS, (alpha, eps, d))
    )
    ratio = (dd - 1.0) / (dd + 1.0)
    return float(np.sum(np.asarray([term(p, a, e, ratio) for p in points])))
