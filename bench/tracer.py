"""In-memory span recorder that wraps bslab's public functions from outside.

Nothing in ``src/`` knows about this module.  ``Tracer.install`` replaces each
listed function, in every loaded ``bslab`` module that imported it, by a
wrapper that records one span per call: name, start, end, parent span and the
benchmark unit it belongs to.  ``uninstall`` puts the originals back.  The
parent is carried in a ``contextvars.ContextVar``; thread pools that
``bslab`` modules use are swapped for one that submits every task inside a
copy of the caller's context, so spans recorded in ``run_jobs`` worker
threads still nest under ``run_jobs``.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import itertools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


def _dim_of_first_arg(args, kwargs, out) -> dict:
    return {"dim": int(args[0].shape[0])}


def _dim_of_result(args, kwargs, out) -> dict:
    return {"dim": int(out.shape[0])}


def _classified(args, kwargs, out) -> dict:
    discrete = sum(1 for p in out if p.label.value == "Discrete")
    return {"points": len(out), "discrete": discrete}


def _roots(args, kwargs, out) -> dict:
    return {"roots": len(out)}


# (module, function, extractor of span attributes from args and result)
LAYERS: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("spectra", "eigensolve", _dim_of_first_arg),
    ("spectra", "assemble_hamiltonian", None),
    ("spectra", "classify", _classified),
    ("spectra", "spectrum_csv", None),
    ("resolvent", "local_spacing", None),
    ("certlab", "discrete_spectrum", None),
    ("certlab", "verify_main", None),
    ("certlab", "verify_schatten_scaling", None),
    ("certlab", "verify_weighted_sums", None),
    ("certlab", "run_jobs", None),
    ("birman_schwinger", "regularized_det", None),
    ("birman_schwinger", "det_contour_roots", _roots),
    ("birman_schwinger", "bs_principle_check", None),
    ("birman_schwinger", "assemble_bs", None),
    ("lattice", "multiplier_matrix", _dim_of_result),
    ("potentials", "resample", None),
    ("conformal", "weighted_blaschke_sum", None),
    ("cli", "load_config", None),
    ("cli", "emit_report", None),
)


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    name: str
    unit: int
    start: float
    end: float
    attrs: dict = field(default_factory=dict)


class _ContextThreadPool(concurrent.futures.ThreadPoolExecutor):
    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    """Records spans while installed; ``unit`` tags spans with a unit id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unit = -1
        self._ids = itertools.count()
        self._current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "bench_span", default=None
        )
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, extract):
        spans, ids, current = self.spans, self._ids, self._current

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            unit = self.unit
            t0 = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                current.reset(token)
                attrs = extract(args, kwargs, out) if extract and out is not None else {}
                spans.append(Span(sid, parent, name, unit, t0, t1, attrs))

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "bslab" or n.startswith("bslab.")]
        for mod_name, fn_name, extract in LAYERS:
            original = getattr(sys.modules[f"bslab.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, extract)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        for mod in modules:
            if vars(mod).get("ThreadPoolExecutor") is concurrent.futures.ThreadPoolExecutor:
                self._patched.append((mod, "ThreadPoolExecutor", concurrent.futures.ThreadPoolExecutor))
                mod.ThreadPoolExecutor = _ContextThreadPool

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of the intervals its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, edge = 0.0, s.start
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, edge), min(b, s.end)
            if b > a:
                covered += b - a
                edge = b
        out[s.sid] = (s.end - s.start) - covered
    return out


def ancestors(spans: list[Span]) -> Callable[[Span], list[str]]:
    """Returns a function giving the names of a span's ancestors, innermost first."""
    by_id = {s.sid: s for s in spans}

    def chain(span: Span) -> list[str]:
        names = []
        pid = span.parent
        while pid is not None and pid in by_id:
            names.append(by_id[pid].name)
            pid = by_id[pid].parent
        return names

    return chain
