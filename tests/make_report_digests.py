"""The report-digest corpus: small studies run through ``cli.main``, and the
bytes of every report file they write.

``tests/test_report_digests.py`` reruns the studies and compares them with
``report_digests.json``. A change that moves report bytes on purpose
rewrites that file with

    PYTHONPATH=src python tests/make_report_digests.py

and lists what moved. Per study the file holds the exit code, the stderr
line of a failing study, and per report file its SHA-256 over its name and
bytes (as ``perfbench/workloads.report_digest`` hashes a directory) and a
short hash of each line, so that a mismatch names the first line that moved.
The digests hold for the Python, numpy and scipy versions recorded with them,
and for the CPU core that each one's bundled OpenBLAS picked: a core with
other kernels (Haswell's in place of SkylakeX's) moves the last bits of some
sums, and with them a few full-precision floats of the JSON reports.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from radialopf import cli

DIGESTS = Path(__file__).resolve().parent / "report_digests.json"

PSP = ["--psp-v", "1.05", "--psp-cost-p", "30", "--psp-cost-q", "3"]
DG18 = ["--dg", "18:0.2:0.1:25:2"]
DG69 = ["--dg", "27:0.2:0.1:25:2", "--dg", "65:0.2:0.1:25:2"]
DUP69 = ["--copies", "3", "--seed", "1"]

# the two-bus case with one rated branch whose thermal row presolve keeps
RATED_CASE = """mpc.baseMVA = 10.0;
mpc.bus = [
 1 3 0.0 0.0 0 0 1 1 0 12.66 1 1.1 0.9;
 2 1 3.0 1.0 0 0 1 1 0 12.66 1 1.1 0.9;
];
mpc.branch = [
 1 2 0.01 0.02 0 2.0;
];
mpc.gen = [
 1 0 0 10 -10 1 10 1 10 0;
];
mpc.gencost = [
 2 0 0 2 30 0;
];
"""

# the DG at bus 18 prices above the supply point, so its active floor binds
SCENARIO = {
    "case": "case33.m", "psp_voltage": 1.05, "psp_costs": [30, 3], "psp_load": [0.5, 0.2],
    "dgs": [{"bus": 18, "p_range": [0.05, 0.2], "q_range": [-0.1, 0.1], "cost_p": 40, "cost_q": 4},
            {"bus": 33, "p_range": [0, 0.2], "q_range": [0, 0.1], "cost_p": 25, "cost_q": 2}],
    "duplication": {"copies": 3, "seed": 1},
}

# name -> argv, run in this order; "{in}" is the input directory and
# "{out}" the directory of the study that each reads
STUDIES = {
    "pf-33": ["pf", "--case", "case33.m"],
    "pf-69x3": ["pf", "--case", "case69.m", *DUP69],
    "opf-33-two-dgs": ["opf", "--case", "case33.m", *PSP, *DG18, "--dg", "33:0.2:0.1:25:2"],
    "opf-33-supply-point": ["opf", "--case", "case33.m", *PSP],
    "opf-rated-two-bus": ["opf", "--case", "{in}/rated.m", "--dg", "2:5:2:40:4"],
    "price-33-csv": ["price", "--case", "case33.m", *PSP, *DG18],
    "price-33-json": ["price", "--case", "case33.m", *PSP, *DG18, "--format", "json"],
    "price-33-oracle": ["price", "--case", "case33.m", *PSP, *DG18, "--oracle", "--jobs", "1"],
    "price-69x3": ["price", "--case", "case69.m", *PSP, *DG69, *DUP69],
    "opf-scenario": ["opf", "--scenario", "{in}/scenario.json"],
    "price-scenario": ["price", "--scenario", "{in}/scenario.json"],
    "duplicate-69x3": ["duplicate", "--case", "case69.m", *DUP69],
    "price-network-json": ["price", "--case", "{out}/duplicate-69x3/network.json", *PSP, *DG69],
    "opf-33-infeasible": ["opf", "--case", "case33.m", "--psp-v", "1.05", "--vmin", "0.99"],
}


def openblas_core(module, symbol: str) -> str | None:
    """The CPU core that the OpenBLAS bundled with ``module`` (its wheel's
    ``<module>.libs/libscipy_openblas*``) picked, read through ``symbol``;
    None when there is no such library."""
    libs = sorted((Path(module.__file__).parent.parent / f"{module.__name__}.libs")
                  .glob("libscipy_openblas*"))
    try:
        corename = getattr(ctypes.CDLL(str(libs[0])), symbol)
    except (IndexError, OSError, AttributeError):
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numpy_openblas_core": openblas_core(np, "scipy_openblas_get_corename64_"),
            "scipy_openblas_core": openblas_core(scipy, "scipy_openblas_get_corename")}


def file_record(name: str, data: bytes) -> dict:
    """A report file's SHA-256 over its name and bytes, and a short hash of
    each of its lines."""
    digest = hashlib.sha256(name.encode() + b"\0" + data + b"\0").hexdigest()
    lines = [hashlib.sha256(line).hexdigest()[:10] for line in data.splitlines(keepends=True)]
    return {"sha256": digest, "lines": lines}


def run_study(name: str, work: Path) -> tuple[dict, dict[str, bytes]]:
    """Run study ``name`` through ``cli.main`` with its reports in
    ``work/out/<name>``; returns its record and its report files' bytes."""
    argv, out = STUDIES[name], work / "out" / name
    args = [a.format(**{"in": work / "in", "out": work / "out"}) for a in argv]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main([*args, "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    record = {"argv": argv, "exit": code, "stderr": stderr.getvalue(),
              "files": {k: file_record(k, v) for k, v in files.items()}}
    return record, files


def write_inputs(work: Path) -> None:
    inputs = work / "in"
    inputs.mkdir(parents=True, exist_ok=True)
    (inputs / "rated.m").write_text(RATED_CASE)
    (inputs / "scenario.json").write_text(json.dumps(SCENARIO))


def main() -> int:
    os.environ.pop("RADIALOPF_CASE_DIR", None)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # no case file resolves against the working directory
        write_inputs(Path(tmp))
        studies = {name: run_study(name, Path(tmp))[0] for name in STUDIES}
    DIGESTS.write_text(json.dumps({"versions": versions(), "studies": studies}, indent=1) + "\n")
    print(f"wrote {DIGESTS}: {len(studies)} studies")
    return 0


if __name__ == "__main__":
    sys.exit(main())
