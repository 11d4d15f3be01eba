"""Write bench/references.json from the code in this checkout.

    python3 bench/capture_references.py

The committed references were captured at the commit that introduced the
benchmark; rerun this only when a change is meant to alter the golden
certificates, and say so in that change.
"""

import json
import shutil
import sys

import run


def main() -> int:
    run._pin_threads()
    workloads = run._import_workloads()
    work = run.ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    try:
        rc, hashes = workloads._golden_unit(
            {"config": str(run.ROOT / "configs" / "golden.json"), "work": work}
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if rc != 0:
        sys.exit(f"golden scan exited with {rc}")
    refs = {"golden-scan": {"certificate_sha256": hashes}}
    workloads.REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
