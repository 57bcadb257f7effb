"""Tests of the pipeline benchmark itself.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
from run import per_input  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, INPUTS_PER_RUN, TOL_PRICE, WORKLOADS, compare_reference, input_seeds,
    reference_path, report_digest,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(argv, out: Path) -> int:
    from radialopf import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv + ["--out", str(out)])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_study_matches_untraced_and_restores(name, tmp_path):
    w = WORKLOADS[name]
    argv = w.argv(DEFAULT_SEED, w.smoke_copies)
    assert _run_cli(argv, tmp_path / "plain") == 0

    import importlib

    before = {(m, f): getattr(importlib.import_module(m), f)
              for m, names in tracer.WRAPPED.items() for f in names}
    t = tracer.Tracer("test")
    t.install()
    try:
        assert not tracer.all_restored()
        assert _run_cli(argv, tmp_path / "traced") == 0
    finally:
        t.uninstall()
    after = {(m, f): getattr(importlib.import_module(m), f) for m, f in before}
    assert after == before
    assert tracer.all_restored()
    assert report_digest(tmp_path / "plain") == report_digest(tmp_path / "traced")

    spans = t.records()
    assert spans[0]["name"] == "cli.main" and spans[0]["parent"] == -1
    assert all(0 <= s["parent"] < i for i, s in enumerate(spans) if i)
    assert all(s["start"] <= s["end"] for s in spans)
    metrics = tracer.layer_metrics(t.spans)
    assert metrics["qcqpsolver.iterations"] > 0
    assert metrics["qcqpsolver.factor_calls"] > 0
    assert metrics["netmodel.t_nnz"] > 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_every_check(name, trace):
    w = WORKLOADS[name]
    assert reference_path(w, DEFAULT_SEED, w.smoke_copies).is_file()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(DEFAULT_SEED),
         "--seconds", "1", "--trace", str(trace), "--copies", str(w.smoke_copies)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_benchmark_workloads_are_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_input_seeds_start_at_the_seed_and_are_distinct():
    seeds = input_seeds(DEFAULT_SEED)
    assert seeds[0] == DEFAULT_SEED and seeds == input_seeds(DEFAULT_SEED)
    assert len(set(seeds + input_seeds(DEFAULT_SEED + 1))) == 2 * INPUTS_PER_RUN


def test_per_input_averages_each_inputs_median():
    studies = [{"seed": 1, "t": 1.0}, {"seed": 1, "t": 9.0}, {"seed": 1, "t": 2.0},
               {"seed": 2, "t": 4.0}, {"seed": 2, "t": 6.0}]
    assert per_input(studies, "t") == (2.0 + 5.0) / 2


def test_reference_tolerance_separates_noise_from_change():
    w = WORKLOADS["oracle-33x5"]
    ref = json.loads(reference_path(w, DEFAULT_SEED, w.smoke_copies).read_text())
    close = dict(ref, dlmp_q=[v + 0.1 * TOL_PRICE for v in ref["dlmp_q"]])
    assert compare_reference(ref, close) == []
    moved = dict(ref, dlmp_q=[v * (1 + 1e-5) for v in ref["dlmp_q"]])
    assert compare_reference(ref, moved)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "oracle-33x5", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
