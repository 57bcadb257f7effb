"""Pipeline benchmark for radialopf: one workload, one closed-loop client.

    python3 perfbench/run.py --workload price-69x70 --seed 42 --seconds 60 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/``. Each study is one fresh process running ``radialopf.cli.main`` with
single-threaded BLAS; the next study starts only after the previous one ends.
An untraced run cycles through the run's inputs (see ``workloads.input_seeds``)
until the next study would end past ``--seconds``, and solves each input at
least twice. A traced run (``--trace 1``) repeats untraced and traced pairs
on the ``--seed`` input alone until the next pair would end past
``--seconds``, with at least one pair.

With ``--trace 0`` the last output line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of the traced studies. Lines before it
give every metric in words, the checks that failed and the environment. Run
records go to ``.bench_build/perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import high_percentile, unit_of  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, WORKLOADS, check, extract, input_seeds, report_digest,
)

RUN_LIMIT_S = 165.0  # every run, including its last study, ends before this
SETUP_PROBES = 3
# Two BLAS threads on two shared vCPUs time the host's scheduler, not the
# program: they spin against each other and against the neighbours' load.
SINGLE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}

# Counts that must repeat exactly for the same code and inputs.
EXACT_COUNTS = (
    "qcqpsolver.iterations", "qcqpsolver.factor_calls", "qcqpsolver.kkt_rows",
    "qcqpsolver.lu_nnz", "acpf.newton_calls", "acpf.newton_iterations",
    "acpf.admittance_calls", "acpf.dense_mb", "mdopf.objective_calls", "mdopf.n_vars",
    "mdopf.n_rows", "mdistflow.fixed_load_calls", "netmodel.t_nnz", "netmodel.json_calls",
)

NOT_EXERCISED = [
    "price --oracle --jobs 2 (process-pool oracle sweep)",
    "thermal-rated QCQP (quadratic branch-current rows): with loose ratings on "
    "case69 x100 the IPM took 72 iterations and 18 s against 16 without, so it "
    "needs a workload of its own",
]


def machine() -> dict:
    with open("/proc/meminfo") as meminfo:
        mem = next((ln.split(":")[1].strip() for ln in meminfo
                    if ln.startswith("MemTotal")), None)
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "mem_total": mem}


def code_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "radialopf").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".m"):
            h.update(str(p.relative_to(ROOT)).encode() + p.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    def __init__(self, run_dir: Path, start: float):
        self.run_dir = run_dir
        self.start = start
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **SINGLE_THREAD)
        self.n = 0

    def _spawn(self, args: list[str]) -> subprocess.CompletedProcess:
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.start))
        t0 = time.monotonic()
        return subprocess.run(
            [sys.executable, str(HERE / "study.py"), "--t0", repr(t0), *args],
            env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)

    def probe(self) -> float:
        proc = self._spawn([])
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.strip() or "setup probe failed")
        return json.loads(proc.stdout)["setup_s"]

    def study(self, argv: list[str], trace: bool, seed: int) -> dict:
        """One study of the input with duplication seed ``seed``."""
        d = self.run_dir / f"study-{self.n:03d}"
        self.n += 1
        d.mkdir()
        extra = ["--trace"] if trace else []
        if self.n == 1:
            extra.append("--env")
        try:
            proc = self._spawn(["--dir", str(d), "--argv", json.dumps(argv), *extra])
        except subprocess.TimeoutExpired:
            return {"dir": d, "trace": trace, "seed": seed,
                    "error": "study exceeded the run limit", "timeout": True}
        res_file = d / "result.json"
        if proc.returncode != 0 or not res_file.is_file():
            return {"dir": d, "trace": trace, "seed": seed,
                    "error": f"study process exit {proc.returncode}: {proc.stderr[-2000:]}"}
        res = json.loads(res_file.read_text())
        res.update(dir=d, trace=trace, seed=seed, stderr=proc.stderr[-2000:])
        return res


def judge(workload, copies, res: dict, digests: dict[int, str]) -> list[str]:
    """Failed checks of one study. ``digests`` maps each input's seed to the
    report digest of its first study."""
    if "error" in res:
        return [res["error"].strip().splitlines()[-1]]
    if res["rc"] != 0:
        why = (res.get("error") or res["stderr"]).strip().splitlines() or [""]
        return [f"exit code {res['rc']}: {why[-1]}"]
    reports = res["dir"] / "reports"
    try:
        values = extract(workload, reports)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"unreadable report: {exc!r}"]
    res["values"] = values
    bad = check(workload, res["seed"], copies, values)
    digest = report_digest(reports)
    if digests.setdefault(res["seed"], digest) != digest:
        bad.append("reports differ from the first study of this input in this run")
    if res["trace"] and not res.get("restored", False):
        bad.append("a wrapped function was not restored")
    return bad


def repeat_flags(traced: list[dict], key: str, store: Path) -> list[str]:
    """Exact counts that differ between traced studies of this run, or from an
    earlier run of the same code on the same inputs."""
    flags = []
    first = {k: traced[0]["layers"][k] for k in EXACT_COUNTS}
    for res in traced[1:]:
        flags += [f"count {k} differs between studies: {first[k]} vs {res['layers'][k]}"
                  for k in EXACT_COUNTS if res["layers"][k] != first[k]]
    seen = json.loads(store.read_text()) if store.is_file() else {}
    if key in seen:
        flags += [f"count {k} differs from an earlier run of this code: "
                  f"{seen[key][k]} vs {first[k]}" for k in EXACT_COUNTS
                  if seen[key].get(k) != first[k]]
    else:
        seen[key] = first
        store.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return flags


def per_input(studies: list[dict], key: str) -> float:
    """Mean over the run's inputs of the median of ``key`` over each input's
    studies."""
    by_seed: dict[int, list[float]] = {}
    for r in studies:
        by_seed.setdefault(r["seed"], []).append(r[key])
    return statistics.fmean(statistics.median(v) for v in by_seed.values())


def main() -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, help="duplication seed")
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--copies", type=int, help="feeder copies (default: the workload's)")
    args = ap.parse_args()

    if not (ROOT / "src" / "radialopf" / "cli.py").is_file():
        print(f"no radialopf sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    copies = args.copies or w.copies
    trace = bool(args.trace)
    seeds = [args.seed] if trace else input_seeds(args.seed)
    bench_dir = ROOT / ".bench_build" / "perfbench"
    run_dir = bench_dir / f"{w.name}-s{args.seed}-c{copies}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    runner = Runner(run_dir, start)
    runner.probe()  # untimed: fills the byte-code and file caches
    setup = [runner.probe() for _ in range(SETUP_PROBES)]

    studies: list[dict] = []
    walls: list[float] = []
    loop_start = time.monotonic()
    # a step is one traced/untraced pair, or one untraced study
    min_steps = 1 if trace else 2 * len(seeds)
    while True:
        t = time.monotonic()
        if trace:
            # traced and untraced studies alternate which goes first
            order = (False, True) if len(walls) % 2 == 0 else (True, False)
            batch = [runner.study(w.argv(args.seed, copies), traced, args.seed)
                     for traced in order]
        else:
            seed = seeds[len(walls) % len(seeds)]
            batch = [runner.study(w.argv(seed, copies), False, seed)]
        studies += batch
        walls.append(time.monotonic() - t)
        elapsed = time.monotonic() - loop_start
        if any(r.get("timeout") for r in batch):
            break
        if len(walls) >= min_steps and elapsed + statistics.median(walls) > args.seconds:
            break

    digests: dict[int, str] = {}
    failures = {}
    for res in studies:
        bad = judge(w, copies, res, digests)
        if bad:
            failures[res["dir"].name] = bad
    ok = [r for r in studies if r["dir"].name not in failures]
    plain = [r for r in ok if not r["trace"]]
    traced = [r for r in ok if r["trace"]]
    flags = []
    if trace and traced:
        key = f"{code_digest()}:{w.name}:{args.seed}:{copies}"
        flags = repeat_flags(traced, key, bench_dir / "counts.json")

    env = {**next((r["env"] for r in studies if "env" in r), {}), **machine(),
           "blas_env": SINGLE_THREAD, "seed": args.seed, "input_seeds": seeds,
           "not_exercised": NOT_EXERCISED}
    lines = [f"workload {w.name}: {copies} copies, {w.buses(copies)} buses, seed {args.seed} "
             f"(input seeds {seeds}), closed loop with 1 client; {len(studies)} studies"]
    metrics: dict[str, dict] = {}
    record = {"workload": w.name, "copies": copies, "seed": args.seed, "trace": trace,
              "argv": [w.argv(s, copies) for s in seeds], "env": env,
              "failures": failures, "flags": flags}
    if plain:
        setup += [r["setup_s"] for r in plain]
        study_s = [r["study_s"] for r in plain]
        q, hi = high_percentile(study_s)
        end_to_end = {
            "study_s": (per_input(plain, "study_s"), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (per_input(plain, "peak_rss_mb"), "MB"),
            "cpu_s": (per_input(plain, "cpu_s"), "s"),
        }
        lines.append(f"study_s      {end_to_end['study_s'][0]:.4f} s (mean over inputs of "
                     f"the median), p{q:g} {hi:.4f} s over all studies, n={len(study_s)}")
        lines.append(f"setup_s      median {end_to_end['setup_s'][0]:.4f} s, n={len(setup)}")
        lines.append(f"peak_rss_mb  {end_to_end['peak_rss_mb'][0]:.1f} MB")
        lines.append(f"cpu_s        {end_to_end['cpu_s'][0]:.4f} s")
        for axis in "pq":
            errs = [r["values"][f"dlmp_err_{axis}"] for r in plain
                    if r["seed"] == args.seed and f"dlmp_err_{axis}" in r["values"]]
            if errs:
                record[f"dlmp_err_{axis}"] = errs[0]
                lines.append(f"dlmp_err_{axis}   {errs[0] * 100:.4f} % (mean relative "
                             "error against the FD oracle)")
        if not trace:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    lines.append(f"fail_frac    {len(failures)}/{len(studies)} = "
                 f"{len(failures) / len(studies):.3g}")
    if trace and traced:
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        overhead = (statistics.median(r["study_s"] for r in traced)
                    - statistics.median(r["study_s"] for r in plain)) if plain else 0.0
        layers["trace.overhead_s"] = overhead
        # the result line carries the per-layer metrics BENCHMARK.json lists;
        # the text lines and results.json carry all of them
        listed = {m["name"] for m in
                  json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        for k, v in layers.items():
            unit = unit_of(k)
            if k in listed:
                metrics[k] = {"value": v, "unit": unit}
            lines.append(f"{k:32s} {v:.6g} {unit}")
        record["layers"] = layers
    record["metrics"] = metrics
    for name, bad in failures.items():
        lines += [f"FAILED {name}: {b}" for b in bad]
    lines += [f"FLAG {f}" for f in flags]
    lines.append("environment: " + json.dumps(env))
    (run_dir / "results.json").write_text(json.dumps(record, indent=1, default=str))
    print("\n".join(lines))

    correct = not failures and not flags and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(studies),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
