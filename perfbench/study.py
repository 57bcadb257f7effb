"""One study in a fresh process: import the package, run the CLI, report.

Run by ``run.py`` only. ``--t0`` is the parent's ``time.monotonic()`` taken
just before this process was started, so ``setup_s`` covers interpreter
start-up and every import up to ``radialopf.cli``. The result goes to
``<dir>/result.json``; the CLI writes its reports to ``<dir>/reports``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def environment() -> dict:
    """Library versions and the BLAS library with its thread count."""
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--dir", type=Path, help="study directory; omit to time imports only")
    ap.add_argument("--argv", help="CLI arguments as a JSON list")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--env", action="store_true", help="also record the environment")
    args = ap.parse_args()

    import radialopf.cli as cli

    setup_s = time.monotonic() - args.t0
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"radialopf imported from {cli.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.dir is None:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s}
    if args.env:
        result["env"] = environment()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(args.dir.name)
        tracer.install()
    argv = json.loads(args.argv) + ["--out", str(args.dir / "reports")]
    cpu0 = _cpu_s()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            result["rc"] = cli.main(argv)
    except Exception:  # a traceback is a failed study, not a benchmark crash
        result["rc"] = None
        result["error"] = traceback.format_exc()
    finally:
        result["study_s"] = time.perf_counter() - t
        result["cpu_s"] = _cpu_s() - cpu0
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["restored"] = tracing.all_restored()
        result["layers"] = tracing.layer_metrics(tracer.spans)
        with (args.dir / "spans.jsonl").open("w") as f:
            for rec in tracer.records():
                f.write(json.dumps(rec) + "\n")
    (args.dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
