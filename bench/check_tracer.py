"""Sanity check of the tracer against counts known from the code.

    python3 bench/check_tracer.py [--seed N]

One traced golden-scan unit must record 16 certlab.discrete_spectrum calls
under verify_main and 19 under verify_weighted_sums, and 72
spectra.eigensolve calls, 36 at dimension 64 and 36 at 128.  Two traced
bs-contour units on the same seed must give the same evals_per_root.  The
counts are those of the code the benchmark was defined on; a change that
alters them on purpose updates this file and says so.  Exits 1 on a mismatch.
"""

import argparse
import shutil
import sys
from collections import Counter

import run
import tracer


def traced_unit(workload, state):
    t = tracer.Tracer()
    t.install()
    t.unit = 0
    try:
        result = workload.unit(state)
    finally:
        t.uninstall()
    err = workload.check(state, result)
    if err:
        sys.exit(f"{workload.name}: unit failed its check: {err}")
    return t.spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="bs-contour seed")
    args = parser.parse_args()
    run._pin_threads()
    workloads = run._import_workloads()
    problems = []

    golden = workloads.WORKLOADS["golden-scan"]
    try:
        spans = traced_unit(golden, golden.prepare(0, run.ROOT))
    finally:
        shutil.rmtree(run.ROOT / ".bench_work", ignore_errors=True)
    chain = tracer.ancestors(spans)
    by_verifier = Counter(
        next((n for n in chain(s) if n.startswith("certlab.verify_")), None)
        for s in spans
        if s.name == "certlab.discrete_spectrum"
    )
    want = Counter({"certlab.verify_main": 16, "certlab.verify_weighted_sums": 19})
    if by_verifier != want:
        problems.append(f"discrete_spectrum calls by verifier {dict(by_verifier)}, want {dict(want)}")
    dims = Counter(s.attrs["dim"] for s in spans if s.name == "spectra.eigensolve")
    if dims != Counter({64: 36, 128: 36}):
        problems.append(f"eigensolve calls by dimension {dict(dims)}, want {{64: 36, 128: 36}}")

    bs = workloads.WORKLOADS["bs-contour"]
    state = bs.prepare(args.seed, run.ROOT)
    key = "birman_schwinger.det_contour_roots.evals_per_root"
    per_root = [run._per_layer(traced_unit(bs, state), 1, 1.0)[key]["value"] for _ in range(2)]
    if per_root[0] != per_root[1] or per_root[0] <= 0:
        problems.append(f"bs-contour seed {args.seed}: evals_per_root {per_root} does not repeat")

    print(f"discrete_spectrum by verifier: {dict(by_verifier)}")
    print(f"eigensolve by dimension: {dict(dims)}")
    print(f"bs-contour seed {args.seed} evals_per_root: {per_root}")
    for p in problems:
        print(f"MISMATCH: {p}", file=sys.stderr)
    print("tracer sanity: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
