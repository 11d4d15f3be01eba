"""Potential fields: named families, file I/O, resampling, scaling family.

A potential file is line-oriented: a grid header (d, N, L), then either a
named family with parameters or a raw row-major value table::

    # attractive complex Gaussian well
    d 1
    N 256
    L 20.0
    family gaussian
    amplitude -3+0.5j
    width 1.5
    center 0

    d 1
    N 8
    L 1.0
    values
    -1 0 0 0.5j 0 0 0 -1

Complex numbers use Python literal syntax (optionally parenthesized).
Families: gaussian(amplitude, width, center), step(amplitude, radius, center),
coulomb_regularized(amplitude, softening, center),
random_seeded(amplitude, seed, modes) -- a band-limited random field whose
Fourier coefficients are drawn in fixed mode order, so samples on any grid
with N >= modes agree (refinement-stable), and table(values).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .lattice import TorusGrid, interpolate, lp_norm

__all__ = [
    "PotentialField",
    "PotentialFormatError",
    "PotentialSpec",
    "imaginary_potential",
    "parse_potential_file",
    "potential_norm",
    "resample",
    "sample_potential",
    "scaled_field",
    "write_potential_file",
]

_FAMILIES = ("gaussian", "step", "coulomb_regularized", "random_seeded", "table")


class PotentialFormatError(ValueError):
    """Malformed potential file or family parameters; message carries the field path."""


@dataclass
class PotentialField:
    """Sampled potential on a grid.

    values: grid.shape (scalar multiplication operator) or grid.shape + (n, n)
    (site-wise matrix acting on spinors). imaginary_nonneg certifies the form
    V = iW with W >= 0 (Hermitian PSD site-wise in the matrix case).
    """

    grid: TorusGrid
    values: np.ndarray
    imaginary_nonneg: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        sh = self.values.shape
        d = self.grid.d
        if sh[:d] != self.grid.shape or len(sh) not in (d, d + 2):
            raise ValueError(f"potential shape {sh} incompatible with grid {self.grid.shape}")
        if len(sh) == d + 2 and sh[-1] != sh[-2]:
            raise ValueError(f"matrix potential blocks must be square, got {sh[-2:]}")

    @property
    def is_matrix(self) -> bool:
        return self.values.ndim == self.grid.d + 2

    def check_fits(self, grid: TorusGrid, n: int) -> None:
        """Raise ValueError unless this potential lives on grid and acts on n-spinors."""
        if self.grid != grid:
            raise ValueError("potential grid does not match the requested grid")
        block = self.values.shape[grid.d:]
        if block not in ((), (n, n)):
            raise ValueError(f"matrix potential blocks are {block[0]}x{block[1]}, symbol needs {n}x{n}")

    def scaled(self, c: complex) -> "PotentialField":
        keep_flag = self.imaginary_nonneg and float(np.real(c)) == c and np.real(c) >= 0
        return PotentialField(self.grid, c * self.values, imaginary_nonneg=keep_flag)


@dataclass(frozen=True)
class PotentialSpec:
    """Named potential family plus parameters; sampled on demand on any grid."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise PotentialFormatError(
                f"potential.family: unknown family {self.family!r}; options: {_FAMILIES}"
            )


def _param(spec: PotentialSpec, name: str, default=None, required=True):
    if name in spec.params:
        return spec.params[name]
    if required and default is None:
        raise PotentialFormatError(f"potential.{name}: required for family {spec.family!r}")
    return default


def _center(spec: PotentialSpec, d: int) -> np.ndarray:
    c = np.atleast_1d(np.asarray(spec.params.get("center", 0.0), dtype=float))
    if c.size == 1:
        c = np.full(d, float(c[0]))
    if c.shape != (d,):
        raise PotentialFormatError(f"potential.center: need a scalar or {d} components")
    return c


def sample_potential(spec: PotentialSpec, grid: TorusGrid) -> PotentialField:
    """Materialize a named family on a grid."""
    if spec.family == "table":
        native = TorusGrid(int(_param(spec, "d")), int(_param(spec, "N")), float(_param(spec, "L")))
        vals = np.asarray(_param(spec, "values"), dtype=complex).reshape(native.shape)
        fld = PotentialField(native, vals)
        return fld if native == grid else resample(fld, grid)

    if spec.family == "random_seeded":
        return _sample_random(spec, grid)

    r = np.linalg.norm(grid.x_folded(_center(spec, grid.d)), axis=-1)
    amp = complex(_param(spec, "amplitude"))
    if spec.family == "gaussian":
        width = float(_param(spec, "width"))
        if not width > 0:
            raise PotentialFormatError("potential.width: must be positive")
        vals = amp * np.exp(-(r**2) / (2.0 * width**2))
    elif spec.family == "step":
        radius = float(_param(spec, "radius"))
        if not radius > 0:
            raise PotentialFormatError("potential.radius: must be positive")
        vals = amp * (r <= radius)
    else:  # coulomb_regularized
        soft = float(_param(spec, "softening"))
        if not soft > 0:
            raise PotentialFormatError("potential.softening: must be positive")
        vals = amp / np.sqrt(r**2 + soft**2)
    return PotentialField(grid, vals)


def _integer(spec: PotentialSpec, name: str, default=None) -> int:
    """An integer parameter: a non-bool int, or a potential file's token for one."""
    val = _param(spec, name, default)
    try:
        if isinstance(val, str) or (isinstance(val, (int, np.integer)) and not isinstance(val, bool)):
            return int(val)
    except ValueError:  # a file token such as '1.5'
        pass
    raise PotentialFormatError(f"potential.{name}: must be an integer")


def _sample_random(spec: PotentialSpec, grid: TorusGrid) -> PotentialField:
    amp = complex(_param(spec, "amplitude"))
    seed = _integer(spec, "seed")
    modes = _integer(spec, "modes", default=8)
    if modes % 2 != 0 or modes < 2 or modes > grid.N:
        raise PotentialFormatError(
            f"potential.modes: need an even band limit 2 <= modes <= N, got {modes}"
        )
    # Fixed lexicographic mode order, (re, im) per mode, keeps the field identical across grids.
    draws = np.random.default_rng(seed).standard_normal((modes,) * grid.d + (2,))
    ks = np.arange(-modes // 2, modes // 2) % grid.N
    spectrum = np.zeros(grid.shape, dtype=complex)
    spectrum[np.ix_(*[ks] * grid.d)] = (draws[..., 0] + 1j * draws[..., 1]) / np.sqrt(2.0)
    vals = np.fft.ifftn(spectrum) * grid.size / modes**grid.d
    return PotentialField(grid, amp * vals)


def resample(fld: PotentialField, grid: TorusGrid) -> PotentialField:
    """Trigonometric interpolation onto a grid on the same box (d, L equal) with N2 >= N.

    The samples are carried by :func:`lattice.interpolate`.
    """
    old = fld.grid
    if grid.d != old.d or grid.L != old.L or grid.N < old.N:
        raise ValueError(
            f"samples on d={old.d}, N={old.N}, L={old.L!r} resample only onto the same "
            f"d and L with N2 >= N, not d={grid.d}, N={grid.N}, L={grid.L!r}"
        )
    if grid.N == old.N:
        return PotentialField(grid, fld.values.copy(), fld.imaginary_nonneg)
    return PotentialField(grid, interpolate(fld.values, old, grid), fld.imaginary_nonneg)


def scaled_field(fld: PotentialField, t: float, s: float) -> PotentialField:
    """Exact scaling family V_t(x) = t^s V(t x): same samples times t^s on the box L/t."""
    if not t > 0:
        raise ValueError("t must be positive")
    return PotentialField(fld.grid.rescaled(t), (t**s) * fld.values, fld.imaginary_nonneg)


def imaginary_potential(w: PotentialField) -> PotentialField:
    """Build V = iW from W >= 0 (Hermitian PSD site-wise if matrix)."""
    grid, wvals = w.grid, w.values
    if wvals.ndim == grid.d + 2:
        herm = np.abs(wvals - np.conj(np.swapaxes(wvals, -1, -2))).max()
        if herm > 1e-12 * max(1.0, np.abs(wvals).max()):
            raise ValueError("matrix W must be Hermitian site-wise")
        eigs = np.linalg.eigvalsh(wvals)
        if eigs.min() < -1e-12 * max(1.0, eigs.max(initial=0.0)):
            raise ValueError("matrix W must be PSD site-wise")
    elif np.abs(wvals.imag).max(initial=0.0) > 1e-14 * max(1.0, np.abs(wvals).max()):
        raise ValueError("W must be real")
    elif wvals.real.min() < 0:
        raise ValueError("W must be nonnegative")
    return PotentialField(grid, 1j * wvals.real if wvals.ndim == grid.d else 1j * wvals,
                          imaginary_nonneg=True)


#: Weighted L^q norm of a potential; an (n, n) site block counts with its spectral norm.
potential_norm = lp_norm


# ---------------------------------------------------------------------------
# file format


def parse_potential_file(path) -> tuple[TorusGrid, PotentialSpec]:
    """Parse a potential file; returns the declared grid and the family spec."""
    header: dict[str, str] = {}
    family = None
    params: dict = {}
    values: list[complex] = []
    mode = "header"
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if mode == "values":
                values.extend(_parse_complex(tok, ln) for tok in line.split())
                continue
            key, _, rest = line.partition(" ")
            rest = rest.strip()
            if key in ("d", "N", "L"):
                header[key] = rest
            elif key == "family":
                family = rest
            elif key == "values":
                mode = "values"
            else:
                params[key] = rest
    for k in ("d", "N", "L"):
        if k not in header:
            raise PotentialFormatError(f"potential.{k}: missing from header")
    try:
        grid = TorusGrid(int(header["d"]), int(header["N"]), float(header["L"]))
    except ValueError as exc:
        raise PotentialFormatError(f"potential.grid: {exc}") from exc
    if mode == "values":
        if len(values) != grid.size:
            raise PotentialFormatError(
                f"potential.values: expected {grid.size} entries, got {len(values)}"
            )
        return grid, PotentialSpec(
            "table", {"d": grid.d, "N": grid.N, "L": grid.L, "values": values}
        )
    if family is None:
        raise PotentialFormatError("potential.family: missing (or provide a values table)")
    spec = PotentialSpec(family, _coerce_params(params))
    sample_potential(spec, grid)  # validate parameters eagerly
    return grid, spec


def _parse_complex(tok: str, ln: int) -> complex:
    try:
        val = complex(tok.strip("()"))
    except ValueError as exc:
        raise PotentialFormatError(f"potential.values: bad complex literal {tok!r} on line {ln}") from exc
    return _finite("values", val, f" ({tok!r} on line {ln})")


def _finite(key: str, val, where: str = ""):
    """val, unless it is NaN or infinite: those would reach LAPACK as illegal values."""
    if not cmath.isfinite(val):
        raise PotentialFormatError(f"potential.{key}: must be a finite number{where}")
    return val


def _coerce_params(raw: dict[str, str]) -> dict:
    out: dict = {}
    for key, val in raw.items():
        if key in ("seed", "modes"):
            out[key] = val  # the raw token; _sample_random checks that it is an integer
        elif key == "center":
            out[key] = [_finite(key, float(tok)) for tok in val.split()]
        elif key == "amplitude":
            out[key] = _finite(key, complex(val.strip("()")))
        else:
            out[key] = _finite(key, float(val))
    return out


def write_potential_file(path, grid: TorusGrid, spec: PotentialSpec) -> None:
    """Serialize a grid + family spec in the line format parse_potential_file reads."""
    lines = [f"d {grid.d}", f"N {grid.N}", f"L {grid.L!r}"]
    if spec.family == "table":
        lines.append("values")
        vals = np.asarray(spec.params["values"], dtype=complex).reshape(-1)
        lines.extend(" ".join(f"({float(v.real)!r}{float(v.imag):+}j)" for v in chunk)
                     for chunk in np.split(vals, range(8, vals.size, 8)))
    else:
        lines.append(f"family {spec.family}")
        for key, val in spec.params.items():
            if key == "center":
                lines.append("center " + " ".join(repr(float(c)) for c in np.atleast_1d(val)))
            elif isinstance(val, complex):
                lines.append(f"{key} ({float(val.real)!r}{float(val.imag):+}j)")
            else:
                lines.append(f"{key} {val}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
