"""bslab benchmark: one workload per run, end-to-end metrics or a traced run.

    python3 bench/run.py --workload golden-scan --seed 0 --seconds 10 --trace 0

Run from a checkout that holds ``src/bslab`` and ``configs/``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones (setup_s, unit_s.p50, wall_s, peak_rss_mb, pass_ratio);
with ``--trace 1`` they are the per-layer ones from ``bench/tracer.py``.
See ``bench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
SETUP_PROBES = 3
HELD_OUT_SEED = 7919  # reserved for confirming claims; never used while tuning


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up (imports, inputs, references, warm-up) and exit")
    return p, p.parse_args(argv)


def _pin_threads() -> None:
    """One BLAS thread per core; pools are sized when numpy loads, so this runs
    before any import of it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)


def _import_workloads():
    src = ROOT / "src"
    if not (src / "bslab" / "__init__.py").is_file() or not (ROOT / "configs" / "golden.json").is_file():
        raise SystemExit(f"bench: {ROOT} has no src/bslab package or configs/golden.json")
    sys.path.insert(0, str(src))
    import bslab
    import workloads

    if Path(bslab.__file__).resolve().parent != (src / "bslab").resolve():
        raise SystemExit(f"bench: imported bslab from {bslab.__file__}, not from {src}")
    return workloads


def _environment(args, units: int, seed_used: bool) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bslab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": seed_used,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "units": units,
        "trace": args.trace,
        "nproc": NPROC,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _time_setup(args) -> float:
    """Median wall time of fresh processes that set up the workload and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=150)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _run_units(workload, state, count: int, recorder=None):
    """Run `count` units; returns (wall seconds, per-unit seconds, failures)."""
    times, failed = [], 0
    t_start = time.perf_counter()
    for i in range(count):
        if recorder is not None:
            recorder.unit = i
        t0 = time.perf_counter()
        try:
            result = workload.unit(state)
            times.append(time.perf_counter() - t0)
            reason = workload.check(state, result)
        except Exception:
            times.append(time.perf_counter() - t0)
            reason = traceback.format_exc()
        if reason is not None:
            failed += 1
            print(f"bench: {workload.name} unit {i} failed: {reason}", file=sys.stderr)
    return time.perf_counter() - t_start, times, failed


def _per_layer(spans, units: int, overhead_ratio: float) -> dict:
    selfs = tracer.self_times(spans)
    chain = tracer.ancestors(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ())) / units

    def self_s(name):
        per_unit = [0.0] * units
        for s in by_name.get(name, ()):
            per_unit[s.unit] += selfs[s.sid]
        return statistics.median(per_unit)

    eig = by_name.get("spectra.eigensolve", [])
    mm = by_name.get("lattice.multiplier_matrix", [])
    cls = by_name.get("spectra.classify", [])
    points = sum(s.attrs.get("points", 0) for s in cls)
    discrete = sum(s.attrs.get("discrete", 0) for s in cls)
    roots = sum(s.attrs.get("roots", 0) for s in by_name.get("birman_schwinger.det_contour_roots", []))
    contour_evals = sum(
        1 for s in by_name.get("birman_schwinger.regularized_det", [])
        if "birman_schwinger.det_contour_roots" in chain(s)
    )
    m = {
        "spectra.eigensolve.calls": (calls("spectra.eigensolve"), "count"),
        "spectra.eigensolve.self_s": (self_s("spectra.eigensolve"), "s"),
        "spectra.eigensolve.dim_max": (max((s.attrs.get("dim", 0) for s in eig), default=0), "count"),
        "spectra.eigensolve.n3_sum": (sum(s.attrs.get("dim", 0) ** 3 for s in eig) / units, "count"),
        "spectra.assemble_hamiltonian.calls": (calls("spectra.assemble_hamiltonian"), "count"),
        "spectra.assemble_hamiltonian.self_s": (self_s("spectra.assemble_hamiltonian"), "s"),
        "spectra.classify.calls": (calls("spectra.classify"), "count"),
        "spectra.classify.self_s": (self_s("spectra.classify"), "s"),
        "spectra.classify.points": (points / units, "count"),
        "spectra.classify.discrete_ratio": (discrete / points if points else 0.0, "ratio"),
        "resolvent.local_spacing.calls": (calls("resolvent.local_spacing"), "count"),
        "resolvent.local_spacing.self_s": (self_s("resolvent.local_spacing"), "s"),
        "certlab.discrete_spectrum.calls": (calls("certlab.discrete_spectrum"), "count"),
        "certlab.discrete_spectrum.self_s": (self_s("certlab.discrete_spectrum"), "s"),
        "birman_schwinger.regularized_det.calls": (calls("birman_schwinger.regularized_det"), "count"),
        "birman_schwinger.regularized_det.self_s": (self_s("birman_schwinger.regularized_det"), "s"),
        "birman_schwinger.det_contour_roots.self_s": (self_s("birman_schwinger.det_contour_roots"), "s"),
        "birman_schwinger.det_contour_roots.evals_per_root": (contour_evals / roots if roots else 0.0, "count"),
        "birman_schwinger.bs_principle_check.calls": (calls("birman_schwinger.bs_principle_check"), "count"),
        "birman_schwinger.bs_principle_check.self_s": (self_s("birman_schwinger.bs_principle_check"), "s"),
        "birman_schwinger.assemble_bs.calls": (calls("birman_schwinger.assemble_bs"), "count"),
        "birman_schwinger.assemble_bs.self_s": (self_s("birman_schwinger.assemble_bs"), "s"),
        "lattice.multiplier_matrix.calls": (calls("lattice.multiplier_matrix"), "count"),
        "lattice.multiplier_matrix.self_s": (self_s("lattice.multiplier_matrix"), "s"),
        "lattice.multiplier_matrix.dim_max": (max((s.attrs.get("dim", 0) for s in mm), default=0), "count"),
        "potentials.resample.calls": (calls("potentials.resample"), "count"),
        "potentials.resample.self_s": (self_s("potentials.resample"), "s"),
        "conformal.weighted_blaschke_sum.calls": (calls("conformal.weighted_blaschke_sum"), "count"),
        "conformal.weighted_blaschke_sum.self_s": (self_s("conformal.weighted_blaschke_sum"), "s"),
        "certlab.verify_main.self_s": (self_s("certlab.verify_main"), "s"),
        "certlab.verify_schatten_scaling.self_s": (self_s("certlab.verify_schatten_scaling"), "s"),
        "certlab.verify_weighted_sums.self_s": (self_s("certlab.verify_weighted_sums"), "s"),
        "certlab.run_jobs.self_s": (self_s("certlab.run_jobs"), "s"),
        "cli.load_config.self_s": (self_s("cli.load_config"), "s"),
        "cli.emit_report.self_s": (self_s("cli.emit_report"), "s"),
        "spectra.spectrum_csv.self_s": (self_s("spectra.spectrum_csv"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    parser, args = _parse_args(argv)
    _pin_threads()
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.prepare(args.seed, ROOT)
        return 0

    units = max(1, int(args.seconds // workload.seconds_per_unit))
    setup_s = None if args.trace else _time_setup(args)
    state = workload.prepare(args.seed, ROOT)
    env = _environment(args, units, workload.uses_seed)
    if "well" in state:
        env["well"] = state["well"]
    print("bench env " + json.dumps(env, sort_keys=True), flush=True)

    try:
        wall, times, failed = _run_units(workload, state, units)
        attempted = units
        if args.trace:
            t = tracer.Tracer()
            t.install()
            try:
                wall_traced, _, failed_traced = _run_units(workload, state, units, recorder=t)
            finally:
                t.uninstall()
            attempted += units
            failed += failed_traced
            metrics = _per_layer(t.spans, units, wall_traced / wall)
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "unit_s.p50": {"value": statistics.median(times), "unit": "s"},
                "wall_s": {"value": wall, "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
                "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            }
    finally:
        shutil.rmtree(ROOT / ".bench_work", ignore_errors=True)

    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
