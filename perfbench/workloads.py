"""Workload definitions and the output checks run on every study.

Each workload is one ``radialopf`` command line, built from the duplication
seed and the number of feeder copies; the program sees only these flags.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 42

# An untraced run solves INPUTS_PER_RUN inputs, one duplication seed each, the
# first being --seed itself. The duplication seed moves the IPM's iteration
# count (14 or 16 on case69 x100, about 8% of the study time), so a run on a
# single input would carry that step into its figures; a run over several
# inputs averages it out.
INPUTS_PER_RUN = 3
SEED_STRIDE = 1000


def input_seeds(seed: int) -> list[int]:
    """Duplication seeds of the inputs one run solves for ``--seed``."""
    return [seed + j * SEED_STRIDE for j in range(INPUTS_PER_RUN)]

PSP = ["--psp-v", "1.05", "--psp-cost-p", "30", "--psp-cost-q", "3"]
DG_BUSES = {"case69.m": (27, 35, 46, 65), "case33.m": (18, 22, 25, 33)}
CASE_BUSES = {"case69.m": 69, "case33.m": 33}


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]
    case: str
    copies: int
    smoke_copies: int

    def argv(self, seed: int, copies: int) -> list[str]:
        dgs = []
        for bus in DG_BUSES[self.case]:
            # 0.2 MW / 0.1 MVar per DG at 25 $/MWh and 2 $/MVarh
            dgs += ["--dg", f"{bus}:0.2:0.1:25:2"]
        return [*self.command[:1], "--case", self.case, *PSP, *dgs,
                "--copies", str(copies), "--seed", str(seed), *self.command[1:]]

    def buses(self, copies: int) -> int:
        return copies * (CASE_BUSES[self.case] - 1) + 1


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("price-69x70", ("price", "--mechanism", "both"), "case69.m", 70, 2),
    Workload("opf-69x100", ("opf",), "case69.m", 100, 2),
    Workload("oracle-33x5", ("price", "--oracle", "--jobs", "1", "--mechanism", "both"),
             "case33.m", 5, 1),
)}

# Criterion-3 bounds on the mean relative error of dlmp_* against the oracle.
DLMP_ERR_BOUND = {"p": 0.005, "q": 0.015}

# Reference-table tolerances. The IPM stops at relative gap and feasibility
# 1e-8. Measured on these workloads, a 1e-8 solve sits within 5.2e-7 $/MVarh
# and 3e-7 $/MWh of a 1e-11 solve on every price, and within 1.4e-6 MW/MVar
# on every dispatch; a 1e-6 solve moves prices by up to 3.1e-5. So two faithful
# solvers that both meet 1e-8 agree within 1e-5 on prices and dispatch, and a
# solver stopped 100x early does not. The objective is held to the relative
# gap itself. Oracle prices are central differences over 2e-5 pu of AC
# solves stopped at 1e-10 pu mismatch, so each carries up to about
# 30 $/MWh * 1e-10 / 2e-5 = 1.5e-4 of stopping noise; they are held to 1e-3.
TOL_PRICE = 1e-5
TOL_DISPATCH = 1e-5
RTOL_OBJECTIVE = 1e-8
TOL_ORACLE = 1e-3

PRICE_COLUMNS = {
    "dlmp_p": "dlmp_p[$ per MWh]", "dlmp_q": "dlmp_q[$ per MVarh]",
    "dlp_p": "dlp_p[$ per MWh]", "dlp_q": "dlp_q[$ per MVarh]",
}
ORACLE_COLUMNS = {"oracle_p": "oracle_p[$ per MWh]", "oracle_q": "oracle_q[$ per MVarh]"}
DISPATCH_COLUMNS = {"pg": "pg[MW]", "qg": "qg[MVar]"}


def _read_csv(path: Path) -> dict[str, list[str]]:
    with path.open(newline="") as f:
        rows = list(csv.reader(f))
    return {h: [r[j] for r in rows[1:]] for j, h in enumerate(rows[0])}


def report_digest(report_dir: Path) -> str:
    """Digest over the names and bytes of every report file."""
    h = hashlib.sha256()
    for p in sorted(report_dir.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def extract(workload: Workload, report_dir: Path) -> dict:
    """The values of a study that the checks and the reference compare."""
    if workload.command[0] == "opf":
        cols = _read_csv(report_dir / "opf_dispatch.csv")
        summary = json.loads((report_dir / "opf_summary.json").read_text())
        out = {"bus": [int(b) for b in cols["bus"]],
               "status": summary["status"], "objective": summary["objective[$]"]}
        out.update({k: [float(v) for v in cols[c]] for k, c in DISPATCH_COLUMNS.items()})
        out["all_finite"] = all(math.isfinite(float(v)) for k, vals in cols.items()
                                if k != "bus" for v in vals)
        return out
    cols = _read_csv(report_dir / "prices.csv")
    out = {"bus": [int(b) for b in cols["bus"]]}
    named = dict(PRICE_COLUMNS)
    if "--oracle" in workload.command:
        named.update(ORACLE_COLUMNS)
        for axis in "pq":
            errs = [float(v) for v in cols[f"dlmp_{axis}_rel_err"]]
            out[f"dlmp_err_{axis}"] = sum(errs) / len(errs)
    out.update({k: [float(v) for v in cols[c]] for k, c in named.items()})
    out["all_finite"] = all(math.isfinite(float(v)) for k, vals in cols.items()
                            if k != "bus" for v in vals)
    with (report_dir / "settlement.csv").open(newline="") as f:
        out["settlement"] = {r["mechanism"]: {"revenue": float(r["revenue[$]"]),
                                              "ocl": float(r["ocl[$]"])}
                             for r in csv.DictReader(f)}
    return out


def reference_path(workload: Workload, seed: int, copies: int) -> Path:
    return REFERENCE_DIR / f"{workload.name}-c{copies}-s{seed}.json"


def reference_fields(values: dict) -> dict:
    keep = ("bus", "objective", *DISPATCH_COLUMNS, *PRICE_COLUMNS, *ORACLE_COLUMNS)
    return {k: values[k] for k in keep if k in values}


def check(workload: Workload, seed: int, copies: int, values: dict) -> list[str]:
    """Failed output checks of one study that exited 0 (empty when all pass)."""
    bad = []
    if not values["all_finite"]:
        bad.append("non-finite value in report")
    if workload.command[0] == "opf":
        if values["status"] != "optimal":
            bad.append(f"opf status {values['status']}")
    else:
        st = values["settlement"]
        lam, mlm = st.get("lam"), st.get("mlm")
        if lam is None or abs(lam["ocl"]) > 1e-6 * abs(lam["revenue"]):
            bad.append(f"lam settlement over-collects: {lam}")
        if mlm is None or not mlm["ocl"] > 0:
            bad.append(f"mlm settlement does not over-collect: {mlm}")
    for axis, bound in DLMP_ERR_BOUND.items():
        err = values.get(f"dlmp_err_{axis}")
        if err is not None and not err < bound:
            bad.append(f"dlmp_err_{axis} {err:.3e} >= {bound}")
    ref_file = reference_path(workload, seed, copies)
    if ref_file.is_file():
        bad += compare_reference(json.loads(ref_file.read_text()), values)
    return bad


def compare_reference(ref: dict, values: dict) -> list[str]:
    if ref["bus"] != values["bus"]:
        return ["bus list differs from the reference table"]
    bad = []
    if "objective" in ref:
        tol = RTOL_OBJECTIVE * (1.0 + abs(ref["objective"]))
        if abs(values["objective"] - ref["objective"]) > tol:
            bad.append(f"objective {values['objective']!r} != reference {ref['objective']!r}")
    tols = {**dict.fromkeys(DISPATCH_COLUMNS, TOL_DISPATCH),
            **dict.fromkeys(PRICE_COLUMNS, TOL_PRICE),
            **dict.fromkeys(ORACLE_COLUMNS, TOL_ORACLE)}
    for key, tol in tols.items():
        if key not in ref:
            continue
        worst = max(abs(a - b) for a, b in zip(values[key], ref[key]))
        if worst > tol:
            bad.append(f"{key} differs from the reference by {worst:.3e} > {tol:.0e}")
    return bad
