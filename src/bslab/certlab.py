"""Theorem-shaped numerical experiments that bind the other modules together.

Each verifier runs one family of checks end to end -- eigensolves, Schatten
norms, operator-norm sweeps, scaling fits -- on explicit grids and potentials,
and returns a :class:`BoundCertificate` recording the measured quantities and
a verdict, read from :data:`GATES`.  The policy is strict: PASS/FAIL is kept for
exact identities, exact-scaling invariances, bracketed properties, and slope fits
with a pre-registered tolerance.  Every inequality whose sharp constant is
not explicit stays REPORT-ONLY, with the measured constant recorded.

Certificates serialize to a fixed JSON schema
``{theorem, inputs, lhs, rhs, constant, verdict, seed, runtime_s, grid}`` so
that a rerun with the same config and seed reproduces the file byte for byte.

The verifiers that classify spectra (main, individual-bounds, imaginary,
weighted-sums) each run inside a :func:`spectra.spectrum_memo` scope, so a
call solves every coupling it probes once.  The scope is re-entrant: the CLI
opens one around a whole run, and then its verifiers and ``spectra.csv``
share one memo, which is dropped when the run ends.
"""

from __future__ import annotations

import cmath
import hashlib
import logging
import math
import operator
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .birman_schwinger import (
    assemble_bs,
    bs_eigenpair_near,
    bs_matrix,
    bs_residual,
    schatten_norm,
    schatten_order,
)
from .conformal import weighted_blaschke_sum
from .lattice import GridFunction, TorusGrid, dense_dim, lp_norm, multiplier_blocks, site_magnitudes
from .potentials import PotentialField, imaginary_potential, potential_norm, scaled_field
from .resolvent import (
    ResolventHandle,
    ResolventPoleError,
    _check_off_dispersion,
    boundary_epsilon,
    empirical_opnorm,
    lattice_levels,
    resolvent_multiplier,
)
from .spectra import (
    SpectralLabel,
    SpectralPoint,
    assemble_hamiltonian,
    classified_spectrum,
    dist_to_spectrum,
    eigensolve,
    fine_grid,
    nearest_in,
    spectrum_memo,
)
from .symbols import SymbolKind, SymbolSpec, critical_values

__all__ = [
    "RegimeError",
    "Region",
    "ScalingLaw",
    "BoundCertificate",
    "certificate_json",
    "summary_csv",
    "discrete_spectrum",
    "sum_space_norm",
    "fixed_argument_ray",
    "boundary_ray",
    "fit_scaling_law",
    "sandwich_schatten_order",
    "schatten_ray_samples",
    "imaginary_q_window",
    "uniform_p_window",
    "preflight_main",
    "preflight_uniform_resolvent",
    "preflight_schatten_scaling",
    "preflight_individual_bounds",
    "preflight_imaginary",
    "preflight_weighted_sums",
    "verify_main",
    "verify_uniform_resolvent",
    "verify_schatten_scaling",
    "verify_individual_bounds",
    "verify_imaginary",
    "verify_weighted_sums",
    "GATES",
    "THEOREM_IDS",
    "read_gate",
    "gate_verdict",
    "JobError",
    "run_jobs",
]

_log = logging.getLogger("bslab")

PASS = "PASS"
FAIL = "FAIL"
REPORT_ONLY = "REPORT-ONLY"
VERDICTS = (PASS, FAIL, REPORT_ONLY)

#: Every measured verdict condition, by theorem, in check order (REPORT-ONLY first): (id, value read from the
#: certificate, comparison that passes, bar or a function of the certificate giving it, verdict on failure).
GATES = {
    "main": (
        ("main-bs-residual", lambda c: np.max(c.inputs["bs_residuals"]), operator.lt, 1e-6, FAIL),
        ("main-sigma1-at-entry", lambda c: np.min(c.inputs["sigma1_at_entry"]), operator.ge, 1.0 - 1e-9, FAIL),
        ("main-sweep", lambda c: c.inputs["sweep_max_sigma1"], operator.lt, 1.0, FAIL),
    ),
    "uniform-resolvent": (("uniform-resolvent-max-over-median", lambda c: c.lhs, operator.le, 4.0, FAIL),),
    "schatten-scaling": (
        ("schatten-scaling-fit-residual", lambda c: c.inputs["residual"], operator.le, 0.05, REPORT_ONLY),
        ("schatten-scaling-slope", lambda c: abs(c.inputs["fitted"] - c.inputs["predicted"]), operator.le, 0.1, FAIL),
    ),
    "individual-bounds": (
        ("individual-bounds-spectrum-drift", lambda c: c.inputs["spectrum_drift"], operator.le, 1e-10, FAIL),
        ("individual-bounds-ratio-drift", lambda c: c.inputs["ratio_drift"], operator.le, 1e-10, FAIL),
    ),
    "imaginary": (
        ("imaginary-mode-identity", lambda c: c.lhs, operator.le, 1e-10, FAIL),
        ("imaginary-re-q-deviation", lambda c: c.inputs["re_q_deviation"], operator.le, 1e-6, FAIL),
    ),
    "weighted-sums": (
        ("weighted-sums-fit-points", lambda c: sum(m > 0.0 for m in c.inputs["sums"]), operator.ge, 3, REPORT_ONLY),
        ("weighted-sums-growth-slope", lambda c: c.inputs["fitted_growth"], operator.le, lambda c: c.rhs, FAIL),
    ),
}
_BARS = {gate[0]: gate[3] for gates in GATES.values() for gate in gates}

#: Identifiers accepted by the command-line ``verify`` subcommand.
THEOREM_IDS = tuple(GATES)

# Fixed verifier settings, by verifier
_BISECT_STEPS = 14  # main: bisection steps on t* after the power-of-two bracket
_SWEEP_SHAPE = (6, 4)  # main: K-grid of the eigenvalue-free sweep just below t*
_SUM_SPACE_PROBES = 4  # uniform-resolvent: random fields per point below s = 2d/(d+1)
_SCALING_TS = (0.25, 0.5, 1.0, 2.0, 4.0)  # individual-bounds: co-rescalings, against t = 1
_FAMILY_SIZE = 6  # individual-bounds: seeded rescaled copies of V behind the empirical constants
_IMAGINARY_LADDER = (1.0, math.sqrt(2.0), 2.0, 2.0 * math.sqrt(2.0), 4.0)  # imaginary: couplings
_IDENTITY_POINTS = (0.7 + 0.4j, -1.3 + 0.9j, 2.1 + 0.05j)  # imaginary: Im R0 identity points


# ---------------------------------------------------------------------------
# domain types


class RegimeError(ValueError):
    """An argument outside the regime a verifier covers.

    ``param`` names the offending argument (``kind``, ``s``, ``q``, ``p``,
    ``alpha``, ``eps``, ``variant``, ``t_max``, ``ray``, ``region``,
    ``potential`` or ``grid``) so that callers can point at it without
    parsing the message.
    """

    def __init__(self, param: str, message: str):
        super().__init__(message)
        self.param = param


@dataclass(frozen=True)
class Region:
    """Compact rectangular window K in the complex plane, kept away from critical values.

    bounds = (re_lo, re_hi, im_lo, im_hi), a closed rectangle.  ``clearance``
    declares a minimum distance to the critical values of the symbol;
    ``validate_for`` checks the declaration against an actual symbol.
    """

    bounds: tuple
    clearance: float = 0.1

    def __post_init__(self):
        b = tuple(float(v) for v in self.bounds)
        if len(b) != 4:
            raise ValueError("region bounds need exactly four numbers")
        object.__setattr__(self, "bounds", b)
        if not (b[0] < b[1] and b[2] < b[3]):
            raise ValueError(f"degenerate rectangle bounds {b}")
        if not self.clearance > 0.0:
            raise ValueError("clearance must be positive")

    def contains(self, z: complex) -> bool:
        z = complex(z)
        b = self.bounds
        return b[0] <= z.real <= b[1] and b[2] <= z.imag <= b[3]

    def sample_grid(self, nx: int = 7, ny: int = 5) -> np.ndarray:
        """Deterministic nx-by-ny sampling of K, flattened to a complex vector."""
        b = self.bounds
        re = np.linspace(b[0], b[1], nx)
        im = np.linspace(b[2], b[3], ny)
        return (re[:, None] + 1j * im[None, :]).reshape(-1)

    def distance_to(self, w: complex) -> float:
        """Euclidean distance from the point w to the closed region."""
        w = complex(w)
        b = self.bounds
        dx = max(b[0] - w.real, 0.0, w.real - b[1])
        dy = max(b[2] - w.imag, 0.0, w.imag - b[3])
        return math.hypot(dx, dy)

    def record(self) -> dict:
        """Certificate entry of K; the schema keeps its ``"shape": "rectangle"`` key."""
        return {"shape": "rectangle", "bounds": list(self.bounds), "clearance": self.clearance}

    def validate_for(self, spec: SymbolSpec) -> None:
        for c in critical_values(spec):
            gap = self.distance_to(c)
            if not gap >= self.clearance:
                raise RegimeError(
                    "region",
                    f"region comes within {gap:.3g} of the critical value {c}, "
                    f"closer than its declared clearance {self.clearance}"
                )


@dataclass(frozen=True)
class ScalingLaw:
    """Power-law fit of a measured quantity against a predicted exponent."""

    predicted: float
    fitted: float
    residual: float
    samples: int

    def __post_init__(self):
        if self.samples < 8:
            raise ValueError(f"scaling fits need at least 8 samples, got {self.samples}")


def fit_scaling_law(
    xs: Sequence[float],
    ys: Sequence[float],
    predicted: float,
) -> tuple[ScalingLaw, float]:
    """Least-squares slope of ys against xs (both already logarithmic).

    Returns the law and the fitted intercept.  The abscissas must be
    strictly increasing and roughly evenly spaced (ratio of the largest to
    the smallest step at most 3), which is what a geometric sample ladder
    produces.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
    steps = np.diff(xs)
    if xs.size < 2 or np.any(steps <= 0):
        raise ValueError("sample abscissas must be strictly increasing")
    if steps.max() > 3.0 * steps.min():
        raise ValueError("samples must be close to logarithmically spaced (step ratio > 3)")
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((slope * xs + intercept - ys) ** 2)))
    law = ScalingLaw(predicted=float(predicted), fitted=float(slope), residual=resid, samples=int(xs.size))
    return law, float(intercept)


@dataclass(frozen=True)
class BoundCertificate:
    """Outcome of one verifier run, shaped for the fixed JSON schema.

    ``law`` carries the scaling fit when one was performed; it is for
    in-process consumers and is not part of the serialized schema.
    """

    theorem: str
    inputs: dict
    lhs: float
    rhs: Optional[float]
    constant: Optional[float]
    verdict: str
    seed: int
    runtime_s: float
    grid: dict
    law: Optional[ScalingLaw] = field(default=None, compare=False)

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.theorem not in THEOREM_IDS:
            raise ValueError(f"unknown theorem id {self.theorem!r}; options: {THEOREM_IDS}")


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        value = complex(value)
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in np.asarray(value).tolist()] if isinstance(
            value, np.ndarray
        ) else [_jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__} into a certificate")


def certificate_json(cert: BoundCertificate, deterministic: bool = False) -> dict:
    """Certificate as a plain dict matching the external JSON schema.

    ``deterministic`` zeroes the wall-clock field so golden reruns compare
    byte for byte; every other field is a pure function of (config, seed).
    """
    return {
        "theorem": cert.theorem,
        "inputs": _jsonable(cert.inputs),
        "lhs": _jsonable(cert.lhs),
        "rhs": _jsonable(cert.rhs),
        "constant": _jsonable(cert.constant),
        "verdict": cert.verdict,
        "seed": int(cert.seed),
        "runtime_s": 0.0 if deterministic else float(cert.runtime_s),
        "grid": {"d": int(cert.grid["d"]), "N": int(cert.grid["N"]), "L": float(cert.grid["L"])},
    }


def summary_csv(certs: Sequence[BoundCertificate], deterministic: bool = False) -> str:
    """Batch summary, one row per certificate."""
    lines = ["theorem,verdict,lhs,rhs,constant,seed,runtime_s,d,N,L"]
    for c in certs:
        rhs = "" if c.rhs is None else repr(float(c.rhs))
        const = "" if c.constant is None else repr(float(c.constant))
        rt = 0.0 if deterministic else float(c.runtime_s)
        lines.append(
            f"{c.theorem},{c.verdict},{float(c.lhs)!r},{rhs},{const},"
            f"{int(c.seed)},{rt!r},{c.grid['d']},{c.grid['N']},{c.grid['L']}"
        )
    return "\n".join(lines) + "\n"


def _grid_dict(grid: TorusGrid) -> dict:
    return {"d": grid.d, "N": grid.N, "L": grid.L}


def _potential_descriptor(V: PotentialField) -> dict:
    digest = hashlib.sha256(np.ascontiguousarray(V.values).tobytes()).hexdigest()[:16]
    return {
        "form": "matrix" if V.is_matrix else "scalar",
        "sha256": digest,
        "max_abs": float(np.abs(V.values).max()),
        "imaginary_nonneg": bool(V.imaginary_nonneg),
    }


def _inputs_head(
    spec: SymbolSpec,
    q: Optional[float],
    V: Optional[PotentialField] = None,
    *,
    alpha: Optional[float] = None,
    eps: Optional[float] = None,
) -> dict:
    """Leading certificate inputs every verifier records, in schema order."""
    head = {
        "kind": spec.kind.value, "d": spec.d, "s": spec.s,
        "q": q, "alpha": alpha, "eps": eps, "z0": None,
    }
    if V is not None:
        head["potential"] = _potential_descriptor(V)
    return head


def read_gate(gate: tuple, cert: BoundCertificate) -> tuple:
    """(value, bar, passed) of one :data:`GATES` entry on a certificate; NaN never passes."""
    _, read, passes, bar, _ = gate
    value, bar = float(read(cert)), float(bar(cert) if callable(bar) else bar)
    return value, bar, bool(passes(value, bar))


def gate_verdict(cert: BoundCertificate) -> str:
    """Verdict from the certificate theorem's :data:`GATES`: the first gate that fails decides,
    FAIL if its value is NaN; one DEBUG record on the ``bslab`` logger names it, or says none did."""
    for gate in GATES[cert.theorem]:
        value, bar, passed = read_gate(gate, cert)
        if not passed:
            verdict = FAIL if math.isnan(value) else gate[4]
            _log.debug("%s: %s at gate %s (value %r, bar %r)", cert.theorem, verdict, gate[0], value, bar)
            return verdict
    _log.debug("%s: PASS, every gate passed", cert.theorem)
    return PASS


def _certifier(theorem: str, grid: TorusGrid, seed: int) -> Callable[..., BoundCertificate]:
    """Start the clock on one verifier run; the returned function closes the run."""
    t0 = time.perf_counter()

    def certify(inputs: dict, lhs: float, *, rhs=None, constant=None, verdict: Optional[str] = None, law=None):
        cert = BoundCertificate(
            theorem=theorem,
            inputs=inputs,
            lhs=lhs,
            rhs=rhs,
            constant=constant,
            verdict=verdict or REPORT_ONLY,
            seed=seed,
            runtime_s=time.perf_counter() - t0,
            grid=_grid_dict(grid),
            law=law,
        )
        return cert if verdict else replace(cert, verdict=gate_verdict(cert))

    return certify


# ---------------------------------------------------------------------------
# shared helpers


def discrete_spectrum(spec: SymbolSpec, grid: TorusGrid, V: PotentialField) -> list[SpectralPoint]:
    """Discrete-labeled points of :func:`classified_spectrum` (memoized inside a scope)."""
    return [p for p in classified_spectrum(spec, grid, V) if p.label is SpectralLabel.DISCRETE]


def _check_fine_pair(spec: SymbolSpec, grid: TorusGrid) -> None:
    """Classifying verifiers need the N -> 2N pair of :func:`fine_grid`."""
    try:
        fine_grid(spec, grid)
    except ValueError as err:
        raise RegimeError("grid", f"no N -> 2N refinement pair to classify on: {err}") from err


def _threshold_bracket(
    discrete_at: Callable[[float], list[SpectralPoint]], t_floor: float, t_cap: float
) -> Optional[float]:
    """Smallest probed coupling with a Discrete point, scanning powers of two.

    discrete_at maps a coupling t to the Discrete points of t*V (the main
    verifier keeps only those in K).  Upward, the last probe is the first
    power of two >= t_cap.  Every t probed here is a power of two, so inside
    the spectrum memo's scope a caller's ladder through t_entry * 2**k
    reuses these solves.
    """
    t = 1.0
    if discrete_at(t):
        while t > t_floor and discrete_at(t / 2.0):
            t /= 2.0
        return t
    while t < t_cap:
        t *= 2.0
        if discrete_at(t):
            return t
    return None


def sum_space_norm(f: GridFunction, r_lo: float, r_hi: float) -> float:
    """Norm of f in L^{r_lo} + L^{r_hi}: the exact minimum over magnitude-threshold splits.

    The split f = f*1{|f|>tau} + f*1{|f|<=tau} sends the large values to the
    lower-exponent space.  With the site magnitudes sorted in decreasing
    order, the k largest go to L^{r_lo} and the rest to L^{r_hi}; one sort and
    a cumulative sum from each end price every k at once, and k stops only
    between distinct magnitudes, so equal magnitudes stay on one side.
    Threshold splits realize the infimum for rearrangement-invariant pairs.
    """
    if not 1.0 <= r_lo <= r_hi:
        raise ValueError(f"need 1 <= r_lo <= r_hi, got {r_lo}, {r_hi}")
    mags = np.sort(site_magnitudes(np.asarray(f.values), f.grid.d).ravel())[::-1]

    def prefix_norms(m: np.ndarray, p: float) -> np.ndarray:
        # entry k is the L^p norm of the first k magnitudes of m, for k = 0..len(m)
        if math.isinf(p):
            return np.concatenate(([0.0], np.maximum.accumulate(m)))
        return (f.grid.weight * np.concatenate(([0.0], np.cumsum(m**p)))) ** (1.0 / p)

    costs = prefix_norms(mags, r_lo) + prefix_norms(mags[::-1], r_hi)[::-1]
    splits = np.concatenate(([True], mags[:-1] > mags[1:], [True]))
    return float(costs[splits].min())


def fixed_argument_ray(theta: float, r_lo: float, r_hi: float, count: int = 9) -> list[complex]:
    """Log-spaced moduli in [r_lo, r_hi] along the ray arg z = theta."""
    if not 0.0 < r_lo < r_hi:
        raise ValueError(f"need 0 < r_lo < r_hi, got {r_lo}, {r_hi}")
    phase = cmath.exp(1j * theta)
    return [complex(r * phase) for r in np.geomspace(r_lo, r_hi, count)]


def boundary_ray(re_lo: float, re_hi: float, height: float, count: int = 9) -> list[complex]:
    """Log-spaced real parts in [re_lo, re_hi] at a constant offset above the axis.

    This is the sample line for growth laws that are attained at the edge of
    the essential spectrum: the offset stays fixed while Re z sweeps.
    """
    if not 0.0 < re_lo < re_hi:
        raise ValueError(f"need 0 < re_lo < re_hi, got {re_lo}, {re_hi}")
    if not height > 0.0:
        raise ValueError("height must be positive")
    return [complex(lam, height) for lam in np.geomspace(re_lo, re_hi, count)]


def _point_at_distance(kind: SymbolKind, delta: float) -> complex:
    """A spectral parameter at distance >= delta from the essential spectrum."""
    if kind in (SymbolKind.FRACTIONAL_LAPLACIAN, SymbolKind.RELATIVISTIC):
        return complex(-delta, 0.0)
    if kind is SymbolKind.DIRAC_MASSLESS:
        return complex(0.0, delta)
    # massive branches (-inf,-1] u [1,inf): i*y sits at distance hypot(1, y)
    return complex(0.0, math.sqrt(max(delta * delta - 1.0, 0.0)))


def _case_a(spec: SymbolSpec) -> bool:
    return spec.s >= 2.0 * spec.d / (spec.d + 1.0) - 1e-12


def sandwich_schatten_order(spec: SymbolSpec, q: float) -> float:
    """Schatten exponent of the sandwiched resolvent |V|^{1/2} R0(z) V^{1/2}.

    For s >= 2d/(d+1) it is :func:`schatten_order` at q; below, q plays no
    part and the exponent is 3 in d = 2 and d/s + 1 otherwise.
    """
    if _case_a(spec):
        return schatten_order(spec.d, q)
    return 3.0 if spec.d == 2 else spec.d / spec.s + 1.0


def _check_q_window(spec: SymbolSpec, q: float, strict_lower: bool = False) -> None:
    d, s = spec.d, spec.s
    lo, hi = d / s, (d + 1) / 2.0
    above_lo = q > lo + 1e-12 if strict_lower else q >= lo - 1e-12
    if not (above_lo and q <= hi + 1e-12):
        rel = "d/s < q" if strict_lower else "d/s <= q"
        raise RegimeError(
            "q",
            f"q={q} violates the exponent window {rel} <= (d+1)/2 "
            f"(= ({lo:.6g}, {hi:.6g}] for d={d}, s={s})",
        )


def _check_kind_covered(spec: SymbolSpec, what: str) -> None:
    """Raise RegimeError against ``kind`` unless the symbol is the fractional Laplacian
    or the massless Dirac one, the two homogeneous symbols (of degree s and 1)."""
    if spec.kind not in (SymbolKind.FRACTIONAL_LAPLACIAN, SymbolKind.DIRAC_MASSLESS):
        raise RegimeError("kind", f"{what} cover the fractional Laplacian and the massless "
                                  f"Dirac kinds, not {spec.kind.value!r}")


def imaginary_q_window(spec: SymbolSpec, q: float) -> None:
    """Operator and exponent checks for the purely-imaginary certificates.

    Raises RegimeError against ``kind`` or ``s`` when the operator lies
    outside the covered range, and against ``q`` when q misses the window.
    """
    d, s = spec.d, spec.s
    _check_kind_covered(spec, "purely-imaginary certificates")
    if not s >= d / (d + 1.0) - 1e-12:
        raise RegimeError("s", f"need s >= d/(d+1) = {d / (d + 1):.6g}, got s={s}")
    hi = (d + 1) / 2.0
    if 2.0 * s < d:
        lo, lo_strict = d / (2.0 * s), False
    elif 2.0 * s == d:
        lo, lo_strict = 1.0, True
    else:
        lo, lo_strict = 1.0, False
    if not lo - 1e-12 <= q <= hi + 1e-12 or (lo_strict and not q > lo + 1e-12):
        rel = "q > 1" if lo_strict else f"q >= {lo:.6g}"
        raise RegimeError("q", f"q={q} violates the window {rel} and q <= {hi:.6g} for 2s vs d")


def uniform_p_window(spec: SymbolSpec, p: Optional[float]) -> None:
    """Exponent checks for the resolvent mapping scan; raises RegimeError."""
    d, s = spec.d, spec.s
    if _case_a(spec):
        if p is None:
            raise RegimeError("p", "p is required in the s >= 2d/(d+1) regime")
        p_lo, p_hi = 2.0 * d / (d + s), 2.0 * (d + 1) / (d + 3)
        if not max(1.0, p_lo) - 1e-9 <= p <= p_hi + 1e-9:
            raise RegimeError(
                "p",
                f"p={p} outside the admissible window "
                f"[{max(1.0, p_lo):.6g}, {p_hi:.6g}] for d={d}, s={s}",
            )
    elif p is not None:
        raise RegimeError(
            "p",
            "below s = 2d/(d+1) the scan measures the fixed intersection-to-sum "
            "pair; pass p=None",
        )


# ---------------------------------------------------------------------------
# verifier: eigenvalue sums over a window and the coupling threshold


def preflight_main(spec: SymbolSpec, grid: TorusGrid, K: Region, q: float, t_max: float) -> None:
    """Argument checks of :func:`verify_main`; raises RegimeError."""
    _check_fine_pair(spec, grid)
    _check_q_window(spec, q)
    K.validate_for(spec)
    if not t_max > 0.0:
        raise RegimeError("t_max", f"the coupling search needs t_max > 0, got {t_max}")


@spectrum_memo()
def verify_main(
    spec: SymbolSpec,
    grid: TorusGrid,
    V: PotentialField,
    K: Region,
    q: float,
    *,
    t_max: float = 32.0,
    seed: int = 0,
) -> BoundCertificate:
    """Window eigenvalue sum plus the coupling threshold with its BS cross-checks.

    Records sum(dist(z, sigma)) over Discrete points in K at coupling 1,
    bisects the smallest coupling t* at which a Discrete point enters K, and
    checks the two Birman-Schwinger facts around it: just below t* the BS
    norm stays below 1 on a K-grid (eigenvalue-free), and at t* the entering
    point solves the BS equation to residual < 1e-6 with sigma_1 >= 1.
    """
    certify = _certifier("main", grid, seed)
    preflight_main(spec, grid, K, q, t_max)

    def discrete_in(t: float) -> list[SpectralPoint]:
        return [p for p in discrete_spectrum(spec, grid, V.scaled(t)) if K.contains(p.z)]

    pts_unit = discrete_in(1.0)
    lhs = weighted_blaschke_sum(pts_unit, "plain")
    inputs = _inputs_head(spec, q, V) | {
        "region": K.record(),
        "points_in_window": [complex(p.z) for p in pts_unit],
        "t_max": t_max,
    }

    # bracket the threshold, then bisect
    t_lo, t_hi = 0.0, 1.0
    if not pts_unit:
        t_hi = _threshold_bracket(discrete_in, t_floor=1.0, t_cap=t_max)
        if t_hi is None:
            inputs["threshold"] = f"no eigenvalue up to t_max={t_max}"
            return certify(inputs, 0.0, verdict=REPORT_ONLY)
        t_lo = t_hi / 2.0
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (t_lo + t_hi)
        if discrete_in(mid):
            t_hi = mid
        else:
            t_lo = mid

    new_pts = discrete_in(t_hi)
    V_hi = V.scaled(t_hi)
    bs_residuals = [bs_residual(bs_matrix(spec, grid, V_hi, p.z)) for p in new_pts]
    sigma1 = [float(assemble_bs(spec, grid, V_hi, p.z, math.inf)[0]) for p in new_pts]
    sweep = [float(assemble_bs(spec, grid, V.scaled(t_lo), z, math.inf)[0])
             for z in K.sample_grid(*_SWEEP_SHAPE) if t_lo > 0.0 and dist_to_spectrum(spec, z) > 0.0]
    sweep_max = float(np.max(sweep, initial=0.0))  # np.max keeps a NaN that max(0.0, nan) drops

    # new_pts is never empty: the bisection keeps t_hi at a coupling with a Discrete point in K
    inputs.update(
        {
            "t_lo": t_lo,
            "t_hi": t_hi,
            "entering_points": [complex(p.z) for p in new_pts],
            "bs_residuals": bs_residuals,
            "sigma1_at_entry": sigma1,
            "sweep_max_sigma1": sweep_max,
        }
    )
    return certify(inputs, float(lhs), constant=float(t_hi))


# ---------------------------------------------------------------------------
# verifier: uniform resolvent bounds over a window


def preflight_uniform_resolvent(
    spec: SymbolSpec, grid: TorusGrid, K: Region, p: Optional[float]
) -> None:
    """Argument checks of :func:`verify_uniform_resolvent`; raises RegimeError."""
    K.validate_for(spec)
    uniform_p_window(spec, p)
    levels = lattice_levels(spec, grid)
    lev_lo, lev_hi = float(levels[0]), float(levels[-1])
    for z in K.sample_grid():
        if not lev_lo <= z.real <= lev_hi:
            raise RegimeError(
                "region",
                f"window reaches Re z = {z.real:.4g}, outside the dispersion range "
                f"[{lev_lo:.4g}, {lev_hi:.4g}] resolved by this grid; refine or rescale",
            )


def verify_uniform_resolvent(
    spec: SymbolSpec,
    grid: TorusGrid,
    K: Region,
    p: Optional[float],
    *,
    seed: int = 0,
) -> BoundCertificate:
    """Uniformity proxy for the resolvent mapping bound over the window K.

    In the s >= 2d/(d+1) regime this measures the L^p -> L^{p'} operator
    norm on a z-grid whose imaginary parts are lifted to the lattice
    boundary offset.  Below that regime (``p=None``) the scan measures the
    intersection-to-sum pair instead, with the sum norm evaluated by
    threshold splits.  PASS requires max/median <= 4 over the scan; the
    certificate's constant is the scan maximum, the measured constant of
    the uniform bound.
    """
    certify = _certifier("uniform-resolvent", grid, seed)
    preflight_uniform_resolvent(spec, grid, K, p)
    d, s = spec.d, spec.s
    case_a = _case_a(spec)
    if not case_a:
        a, b = 2.0 * d / (d + s), 2.0 * (d + 1) / (d + 3)
        a_star = 2.0 * d / (d - s)
        b_star = 2.0 * (d + 1) / (d - 1) if d > 1 else math.inf
        rng = np.random.default_rng(seed)
        shape = grid.field_shape(spec.n)
        fields = [
            GridFunction(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            for _ in range(_SUM_SPACE_PROBES)
        ]

    zs = []
    for z in K.sample_grid():
        eps = boundary_epsilon(spec, grid, z.real)
        y = z.imag
        if abs(y) < eps:
            y = eps if y >= 0.0 else -eps
        lifted = complex(z.real, y)
        if K.contains(lifted):
            zs.append(lifted)
    inputs = _inputs_head(spec, None) | {
        "p": p,
        "region": K.record(),
        "n_scan_points": len(zs),
    }
    if len(zs) < 8:
        inputs["note"] = "insufficient boundary-offset separation inside K on this grid"
        return certify(inputs, 0.0, rhs=_BARS["uniform-resolvent-max-over-median"], verdict=REPORT_ONLY)

    vals = []
    for z in zs:
        handle = ResolventHandle(spec, grid, z)
        if case_a:
            vals.append(float(empirical_opnorm(handle, p, seed=seed).value))
        else:
            vals.append(float(np.max([sum_space_norm(handle.apply(f), a_star, b_star)
                                      / max(lp_norm(f, a), lp_norm(f, b)) for f in fields])))
    vals = np.asarray(vals)
    scan_max, scan_median = float(vals.max()), float(np.median(vals))
    ratio = scan_max / scan_median
    inputs.update(
        {
            "scan_points": [complex(z) for z in zs],
            "scan_values": [float(v) for v in vals],
            "scan_median": scan_median,
            "scan_max": scan_max,
        }
    )
    return certify(inputs, ratio, rhs=_BARS["uniform-resolvent-max-over-median"], constant=scan_max)


# ---------------------------------------------------------------------------
# verifier: Schatten-norm scaling laws


def _co_rescaled(spec: SymbolSpec) -> bool:
    """Scale-homogeneous configurations (fractional Laplacian in case A) co-rescale the fit."""
    return spec.kind is SymbolKind.FRACTIONAL_LAPLACIAN and _case_a(spec)


def _ray_rescalings(spec: SymbolSpec, zs: Sequence[complex]) -> list[Optional[float]]:
    """Per ray point, the rescaling t = (|z| / |z_0|)^{1/s} of a co-rescaled fit, else None."""
    if not _co_rescaled(spec):
        return [None] * len(zs)
    return [(abs(z) / abs(zs[0])) ** (1.0 / spec.s) for z in zs]


def schatten_ray_samples(
    spec: SymbolSpec, grid: TorusGrid, q: float, ray: Sequence[complex], V: PotentialField
) -> tuple[float, list[tuple[complex, TorusGrid, PotentialField]]]:
    """The exponent alpha of :func:`verify_schatten_scaling` and, per ray point, the
    (z, grid, V) it measures M(z) on: grid.rescaled(t) and scaled_field(V, t, s) in
    co-rescaled fits, grid and V otherwise.  ``bslab bs`` tabulates the same samples.
    """
    zs = [complex(z) for z in ray]
    samples = [(z, grid, V) if t is None else (z, grid.rescaled(t), scaled_field(V, t, spec.s))
               for z, t in zip(zs, _ray_rescalings(spec, zs))]
    return sandwich_schatten_order(spec, q), samples


def preflight_schatten_scaling(
    spec: SymbolSpec, grid: TorusGrid, q: float, ray: Sequence[complex], V: PotentialField
) -> None:
    """Argument checks of :func:`verify_schatten_scaling`; raises RegimeError.

    Each ray point must miss the lattice levels of the grid it is measured
    on, grid.rescaled(t) in co-rescaled fits and grid otherwise, and that
    grid must fit the dense cap.  V must not vanish: the fit divides each
    Schatten norm by a norm of V.
    """
    if not np.any(V.values):
        raise RegimeError("potential", "V = 0: the fit divides each Schatten norm by the norm of V")
    zs = np.asarray([complex(z) for z in ray])
    if zs.size < 8:
        raise RegimeError("ray", f"rays need at least 8 points, got {zs.size}")
    moduli = np.abs(zs)
    if np.any(np.diff(moduli) <= 0):
        raise RegimeError("ray", "ray moduli must be strictly increasing")
    for z in zs:
        if dist_to_spectrum(spec, z) <= 0.0:
            raise RegimeError("ray", f"ray point {z} lies on the essential spectrum")
        for c in critical_values(spec):
            if abs(z - c) < 1e-9:
                raise RegimeError("ray", f"ray point {z} coincides with the critical value {c}")
    if _case_a(spec):
        _check_q_window(spec, q)
    if _co_rescaled(spec):
        args = np.angle(zs)
        if np.max(np.abs(args - args[0])) > 1e-9:
            raise RegimeError("ray", "co-rescaled fits need a fixed-argument ray")
    elif spec.kind is SymbolKind.RELATIVISTIC:
        if not (np.all(moduli < 1.0) or np.all(moduli >= 1.0)):
            raise RegimeError(
                "ray", "relativistic rays must stay within one |z| regime (all < 1 or all >= 1)"
            )
    elif spec.kind is SymbolKind.DIRAC_MASSIVE and np.any(np.abs(zs * zs - 1.0) < 1.0):
        raise RegimeError("ray", "the massive growth fit needs |z^2 - 1| >= 1 along the ray")
    for z, t in zip(zs, _ray_rescalings(spec, zs)):
        sample_grid = grid if t is None else grid.rescaled(t)
        try:
            dense_dim(sample_grid, spec.n)
        except ValueError as err:
            raise RegimeError("grid", f"M(z) is assembled densely: {err}")
        try:
            _check_off_dispersion(spec, sample_grid, z)
        except ResolventPoleError as err:
            raise RegimeError("ray", str(err))


def verify_schatten_scaling(
    spec: SymbolSpec,
    grid: TorusGrid,
    q: float,
    ray: Sequence[complex],
    V: PotentialField,
    *,
    seed: int = 0,
) -> BoundCertificate:
    """Fit the sandwiched-resolvent Schatten norm against its predicted power law.

    The measured quantity is ||BS(z)||_alpha over the potential norm on each
    :func:`schatten_ray_samples` sample.  Scale-homogeneous configurations
    (fractional Laplacian, s above the admissible threshold) co-rescale the grid
    per sample so the law is exact by construction; the inhomogeneous kinds are
    measured on a fixed grid along the supplied sample line.  PASS needs |fitted
    - predicted| <= 0.1; a log-space fit residual above 0.05 downgrades to REPORT-ONLY.
    """
    certify = _certifier("schatten-scaling", grid, seed)
    preflight_schatten_scaling(spec, grid, q, ray, V)
    zs = np.asarray([complex(z) for z in ray])
    moduli = np.abs(zs)
    d, s, kind = spec.d, spec.s, spec.kind
    case_a = _case_a(spec)
    alpha, samples = schatten_ray_samples(spec, grid, q, ray, V)

    def vnorm(W: PotentialField) -> float:  # a co-rescaled sample is case A: its own q-norm
        if case_a:
            return potential_norm(W, q)
        return max(potential_norm(W, d / s), potential_norm(W, (d + 1) / 2.0))

    if kind is SymbolKind.FRACTIONAL_LAPLACIAN:
        predicted = d / (s * q) - 1.0 if case_a else 2.0 * d / (s * (d + 1)) - 1.0
        xs = np.log(moduli) if case_a else np.log1p(moduli)
    elif kind is SymbolKind.RELATIVISTIC:
        small = bool(np.all(moduli < 1.0))
        if case_a:
            predicted = d / (2.0 * q) - 1.0 if small else d / (s * q) - 1.0
        else:
            predicted = s / 2.0 - 1.0 if small else 2.0 * d / (s * (d + 1)) - 1.0
        xs = np.log(moduli)
    else:
        predicted = (d - 1.0) / (d + 1.0)
        xs = np.log1p(moduli)

    measured = [schatten_norm(assemble_bs(spec, g, W, z, alpha), alpha) / vnorm(W) for z, g, W in samples]
    law, intercept = fit_scaling_law(xs, np.log(measured), predicted)

    inputs = _inputs_head(spec, q, V, alpha=alpha) | {
        "ray": [complex(z) for z in zs],
        "measured": [float(v) for v in measured],
        "co_rescaled": _co_rescaled(spec),
        "predicted": law.predicted,
        "fitted": law.fitted,
        "residual": law.residual,
        "case": "a" if case_a else "b",
    }
    return certify(
        inputs,
        law.fitted,
        rhs=law.predicted,
        constant=float(math.exp(intercept)),
        law=law,
    )


# ---------------------------------------------------------------------------
# verifier: bounds on individual eigenvalues


def preflight_individual_bounds(spec: SymbolSpec, grid: TorusGrid, q: float) -> None:
    """Argument checks of :func:`verify_individual_bounds`; raises RegimeError.

    Exact t^s scaling needs a homogeneous symbol: the fractional Laplacian or
    the massless Dirac operator.
    """
    _check_fine_pair(spec, grid)
    _check_kind_covered(spec, "exact-scaling checks")
    d, s = spec.d, spec.s
    if not 0.0 < s < d:
        raise RegimeError("s", f"the sectorial bound regime needs 0 < s < d, got s={s}, d={d}")
    if not q >= d / s - 1e-12:
        raise RegimeError("q", f"q={q} below the exponent floor d/s = {d / s:.6g}")


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sided nearest-neighbour (Hausdorff) distance between two finite sets of complex points."""

    def farthest(p: np.ndarray, q: np.ndarray) -> float:  # max over p of |p - its nearest point of q|
        return np.max([np.abs(p[i : i + 512, None] - q).min(axis=1).max() for i in range(0, p.size, 512)])

    return float(np.max([farthest(a, b), farthest(b, a)]))


@spectrum_memo()
def verify_individual_bounds(
    spec: SymbolSpec,
    grid: TorusGrid,
    V: PotentialField,
    q: float,
    *,
    seed: int = 0,
) -> BoundCertificate:
    """Exact-scaling invariance of |z|^{q-d/s}/||V||_q^q plus empirical constants.

    Part (i): along the co-rescaled family V_t(x) = t^s V(tx) every lattice
    eigenvalue obeys z_t = t^s z and the ratio is invariant; both are checked
    to 1e-10 relative.  The spectra are compared as sets, by their two-sided
    nearest-neighbour distance: the (Re, Im) sort of eigensolve may order a
    conjugate pair differently at each t when their real parts agree to
    rounding, as for a PT-symmetric V.  The ratio at t reads z_t from the
    rescaled solve: the eigenvalue nearest t^s times the anchor.  Part (ii) sweeps a seeded
    family of rescaled copies of V and reports the suprema of the radial
    ratio and of the sectorial ratio
    (|Im z|/|Re z|)^{d/s-1}|Im z|^{q-d/s}/||V||_q^q as empirical constants.
    """
    certify = _certifier("individual-bounds", grid, seed)
    preflight_individual_bounds(spec, grid, q)
    d, s = spec.d, spec.s

    points = classified_spectrum(spec, grid, V)
    base_pts = [p for p in points if p.label is SpectralLabel.DISCRETE]
    inputs = _inputs_head(spec, q, V) | {"ts": list(_SCALING_TS), "family_size": _FAMILY_SIZE}
    if not base_pts:
        inputs["note"] = "no Discrete eigenvalues for the base potential"
        return certify(inputs, 0.0, verdict=REPORT_ONLY)

    anchor = max(base_pts, key=lambda pt: pt.dist_sigma)
    base_eigs = np.array([p.z for p in points])
    ratios, drifts = {}, []
    for t in _SCALING_TS:
        Vt = scaled_field(V, t, s)
        eigs_t = base_eigs if t == 1.0 else eigensolve(assemble_hamiltonian(spec, grid.rescaled(t), Vt))
        scale = t**s
        drifts.append(_hausdorff(eigs_t, scale * base_eigs) / (scale * np.abs(base_eigs).max()))
        z_t = nearest_in(eigs_t)(scale * anchor.z)
        ratios[t] = abs(z_t) ** (q - d / s) / potential_norm(Vt, q) ** q
    spectrum_drift = float(np.max(drifts))  # np.max keeps a NaN that Python's max drops
    ratio_drift = float(np.max([abs(ratios[t] / ratios[1.0] - 1.0) for t in _SCALING_TS]))

    # empirical constants over a seeded family of rescaled copies
    rng = np.random.default_rng(seed)
    sup_radial = 0.0
    sup_sectorial = 0.0
    n_eigs = 0
    for _ in range(_FAMILY_SIZE):
        c = (0.5 + 2.5 * rng.random()) * cmath.exp(1j * (rng.random() - 0.5))
        Vj = V.scaled(c)
        vq = potential_norm(Vj, q) ** q
        for pt in discrete_spectrum(spec, grid, Vj):
            n_eigs += 1
            z = pt.z
            sup_radial = max(sup_radial, abs(z) ** (q - d / s) / vq)
            if z.real != 0.0:
                sect = (abs(z.imag) / abs(z.real)) ** (d / s - 1.0) * abs(z.imag) ** (q - d / s)
                sup_sectorial = max(sup_sectorial, sect / vq)

    inputs.update(
        {
            "anchor": complex(anchor.z),
            "spectrum_drift": spectrum_drift,
            "ratio_drift": ratio_drift,
            "sup_sectorial": sup_sectorial,
            "family_eigenvalues": n_eigs,
        }
    )
    return certify(inputs, ratio_drift, rhs=_BARS["individual-bounds-ratio-drift"], constant=float(sup_radial))


# ---------------------------------------------------------------------------
# verifier: purely imaginary potentials


def preflight_imaginary(spec: SymbolSpec, W: PotentialField, q: float) -> None:
    """Argument checks of :func:`verify_imaginary`; raises RegimeError."""
    _check_fine_pair(spec, W.grid)
    imaginary_q_window(spec, q)
    try:
        imaginary_potential(W)
    except ValueError as err:
        raise RegimeError("potential", str(err)) from err


@spectrum_memo()
def verify_imaginary(
    spec: SymbolSpec,
    W: PotentialField,
    q: float,
    *,
    seed: int = 0,
) -> BoundCertificate:
    """Checks specific to V = iW with W >= 0.

    (i) the resolvent identity Im R0(z) = (Im z) R0(z) R0(conj z), checked
    per Fourier mode on the (n, n) multiplier blocks (T is Hermitian), to
    1e-10 in relative Frobenius norm; (ii) at every Discrete eigenvalue of H0 + itW the
    unit BS eigenvector g satisfies Re<Qg, g>/<g, g> = 1 within 1e-6, where
    Q(z) = -i sqrt(W) R0(z) sqrt(W); (iii) reports the supremum of
    |z|^{2q-d/s} |Im z|^{-q} / ||V||_q^q over the eigenvalue family.
    """
    certify = _certifier("imaginary", W.grid, seed)
    grid = W.grid
    d, s = spec.d, spec.s
    preflight_imaginary(spec, W, q)
    Vi = imaginary_potential(W)

    # (i) resolvent identity per Fourier mode: R0 is unitarily block-diagonal
    # there, so the dense matrices' Frobenius residual is the modes' one
    resids = []
    for z in _IDENTITY_POINTS:
        r, rc = (multiplier_blocks(resolvent_multiplier(spec, grid, w), grid) for w in (z, z.conjugate()))
        im_part = (r - np.conj(np.swapaxes(r, -1, -2))) / 2j
        resids.append(np.linalg.norm(im_part - z.imag * (r @ rc)) / np.linalg.norm(im_part))
    resid_identity = float(np.max(resids))

    # (ii) + (iii) over the coupling ladder
    devs = []
    sup_quantity = None
    n_eigs = 0
    for t in _IMAGINARY_LADDER:
        Vt = Vi.scaled(t)
        vq = potential_norm(Vt, q) ** q
        for pt in discrete_spectrum(spec, grid, Vt):
            z = pt.z
            if z.imag <= 0.0:
                continue
            n_eigs += 1
            M = bs_matrix(spec, grid, Vt, z)
            _, g = bs_eigenpair_near(M)
            ratio = np.vdot(g, -(M @ g)) / np.vdot(g, g)
            devs.append(abs(ratio.real - 1.0))
            val = abs(z) ** (2.0 * q - d / s) * abs(z.imag) ** (-q) / vq
            sup_quantity = val if sup_quantity is None else max(sup_quantity, val)

    inputs = _inputs_head(spec, q, Vi) | {
        "ladder": list(_IMAGINARY_LADDER),
        "identity_points": list(_IDENTITY_POINTS),
        "re_q_deviation": float(np.max(devs, initial=0.0)),
        "eigenvalues_checked": n_eigs,
    }
    constant = None if sup_quantity is None else float(sup_quantity)
    return certify(inputs, resid_identity, rhs=_BARS["imaginary-mode-identity"], constant=constant)


# ---------------------------------------------------------------------------
# verifier: weighted eigenvalue sums over a coupling ladder


_ALPHA_WEIGHTS = {
    SymbolKind.RELATIVISTIC: "relativistic",
    SymbolKind.DIRAC_MASSLESS: "massless_dirac",
    SymbolKind.DIRAC_MASSIVE: "massive_dirac",
}


def preflight_weighted_sums(
    spec: SymbolSpec,
    grid: TorusGrid,
    q: float,
    alpha: Optional[float],
    eps: float,
    variant: str = "auto",
) -> None:
    """Argument checks of :func:`verify_weighted_sums`; raises RegimeError."""
    _check_fine_pair(spec, grid)
    d, kind = spec.d, spec.kind
    if not eps > 0.0:
        raise RegimeError("eps", "eps must be positive")
    if variant not in ("auto", "inverse_sqrt"):
        raise RegimeError(
            "variant", f"unknown variant {variant!r}; options: 'auto', 'inverse_sqrt'"
        )
    if variant == "inverse_sqrt" and kind is not SymbolKind.RELATIVISTIC:
        raise RegimeError("variant", "variant='inverse_sqrt' applies to the relativistic kind only")
    if kind is SymbolKind.FRACTIONAL_LAPLACIAN:
        # a nonempty window d/s < q <= (d+1)/2 already forces s > 2d/(d+1)
        _check_q_window(spec, q, strict_lower=True)
    elif variant == "inverse_sqrt":
        if not 2.0 * q > d + 1e-12:
            raise RegimeError("q", f"the inverse_sqrt substitution needs 2q > d, got q={q}, d={d}")
    elif alpha is None:
        raise RegimeError("alpha", f"the {_ALPHA_WEIGHTS[kind]!r} weight needs the alpha parameter")
    elif d == 2 and alpha != 3.0:
        raise RegimeError("alpha", f"alpha must be 3 when d = 2, got {alpha}")
    elif d != 2 and not alpha > d:
        raise RegimeError("alpha", f"alpha must exceed d = {d}, got {alpha}")


@spectrum_memo()
def verify_weighted_sums(
    spec: SymbolSpec,
    grid: TorusGrid,
    V: PotentialField,
    q: float,
    alpha: Optional[float],
    eps: float,
    *,
    variant: str = "auto",
    seed: int = 0,
) -> BoundCertificate:
    """Weighted eigenvalue sums of t*V over a geometric coupling ladder.

    The ladder runs in sqrt(2) steps from half the smallest eigenvalue-
    producing coupling to 32x above it.  The weight is chosen by kind:
    inverse_sqrt (fractional Laplacian), massless_dirac, massive_dirac, or
    relativistic; ``variant="inverse_sqrt"`` applies the inverse_sqrt weight
    to the relativistic kind with s replaced by 2 in the growth budget and
    is always REPORT-ONLY.  For the fractional Laplacian the growth of the sum
    in ||tV||_q is fitted and PASSes when the slope stays below
    (1+eps)q/(sq-d) + 0.2; the other kinds carry non-explicit constants and
    report the measured series.
    """
    certify = _certifier("weighted-sums", grid, seed)
    preflight_weighted_sums(spec, grid, q, alpha, eps, variant)
    d, s, kind = spec.d, spec.s, spec.kind
    fit_budget = None
    if kind is SymbolKind.FRACTIONAL_LAPLACIAN:
        weight = "inverse_sqrt"
        fit_budget = (1.0 + eps) * q / (s * q - d) + 0.2
    elif variant == "inverse_sqrt":
        weight = "inverse_sqrt"
        fit_budget = (1.0 + eps) * q / (2.0 * q - d) + 0.2
    else:
        weight = _ALPHA_WEIGHTS[kind]
    inputs = _inputs_head(spec, q, V, alpha=alpha, eps=eps) | {"weight": weight, "variant": variant}

    def discrete_at(t: float) -> list[SpectralPoint]:
        return discrete_spectrum(spec, grid, V.scaled(t))

    t_entry = _threshold_bracket(discrete_at, t_floor=2.0**-12, t_cap=64.0)
    if t_entry is None:
        inputs["note"] = "no Discrete eigenvalues at any probed coupling"
        return certify(inputs, 0.0, rhs=fit_budget, verdict=REPORT_ONLY)

    ladder = [t_entry * 2.0 ** (k / 2.0) for k in range(-2, 11)]
    sums, counts, vnorms, max_abs_z = [], [], [], 0.0
    for t in ladder:
        pts = discrete_at(t)
        sums.append(weighted_blaschke_sum(pts, weight, d=d, alpha=alpha, eps=eps))
        counts.append(len(pts))
        vnorms.append(potential_norm(V.scaled(t), q))
        if pts:
            max_abs_z = max(max_abs_z, max(abs(p.z) for p in pts))

    # base-point rule: explicit formula when sq > d, truncation fallback otherwise
    if s * q > d:
        v_pow = potential_norm(V, q) ** (s * q / (s * q - d))
        c_emp = 2.0 * (max_abs_z + 1.0) / v_pow
        z0 = complex(-c_emp * v_pow, 0.0)
        inputs["c_emp"] = c_emp
    else:
        # The tail of V below rho = max site magnitude has sigma_1(M(z0)) < 1/2:
        # H0 is self-adjoint with its levels in sigma_ess, so ||R0(z0)|| <= 1/(2 rho)
        # (massive gap, 2 rho < 1: z0 = 0, ||R0(0)|| <= 1 and sigma_1 < rho < 1/2).
        rho = float(site_magnitudes(V.values, grid.d).max())
        z0 = _point_at_distance(kind, 2.0 * rho)
        inputs["rho"] = rho
    inputs["z0"] = complex(z0)
    inputs["ladder"] = ladder
    inputs["sums"] = sums
    inputs["counts"] = counts
    inputs["vnorms"] = vnorms

    # no explicit constant without a fit budget, nor for the s -> 2 substitution: report only
    verdict = REPORT_ONLY if fit_budget is None or variant == "inverse_sqrt" else None
    if fit_budget is not None:
        xs = [math.log(v) for v, m in zip(vnorms, sums) if m > 0.0]
        ys = [math.log(m) for m in sums if m > 0.0]
        slope = 0.0
        if len(xs) < _BARS["weighted-sums-fit-points"]:
            inputs["note"] = "fewer than 3 couplings with a nonzero sum; no growth fit"
        else:
            slope, _ = np.polyfit(xs, ys, 1)
        inputs["fitted_growth"] = float(slope)
        lhs = float(slope)
    else:
        lhs = float(sums[-1])
    return certify(inputs, lhs, rhs=fit_budget, constant=float(max(sums)), verdict=verdict)


# ---------------------------------------------------------------------------
# job scheduler


class JobError(RuntimeError):
    """A verifier job raised; carries the job id for exit-code reporting."""

    def __init__(self, job_id: str, cause: BaseException):
        super().__init__(f"job {job_id!r} failed: {cause}")
        self.job_id = job_id


def run_jobs(jobs: Mapping[str, Callable[[], BoundCertificate]]) -> list[BoundCertificate]:
    """Run the closures of a job id -> closure mapping in insertion order, in the
    calling thread; the first failure stops the run with a JobError naming its id."""
    results = []
    for job_id, fn in jobs.items():
        try:
            results.append(fn())
        except Exception as err:
            raise JobError(job_id, err) from err
    return results
