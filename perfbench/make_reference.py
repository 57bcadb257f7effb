"""Write the reference price and dispatch tables the benchmark checks against.

    python3 perfbench/make_reference.py            # every workload, both sizes

Run once at the commit whose outputs define the reference; each workload is
solved at the default seed, at its benchmark size and at its smoke-test size.
"""
from __future__ import annotations

import json
import shutil
import sys
import time

from run import ROOT, Runner
from workloads import DEFAULT_SEED, WORKLOADS, extract, reference_fields, reference_path


def main() -> int:
    work = ROOT / ".bench_build" / "perfbench" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for w in WORKLOADS.values():
        for copies in (w.copies, w.smoke_copies):
            res = Runner(work, time.monotonic()).study(w.argv(DEFAULT_SEED, copies), False,
                                                      DEFAULT_SEED)
            if res.get("rc") != 0:
                print(f"{w.name} x{copies}: study failed: {res}", file=sys.stderr)
                return 1
            ref = reference_fields(extract(w, res["dir"] / "reports"))
            path = reference_path(w, DEFAULT_SEED, copies)
            path.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
            print(f"wrote {path.relative_to(ROOT)}")
            shutil.rmtree(work)
            work.mkdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
