"""Span tracer that wraps radialopf's public functions from outside the package.

Each wrapped function is replaced on its module by a wrapper that records one
span per call: name, start, end, parent span and study id, plus the peak-RSS
growth over the call and a few counts read from the arguments or the result.
Internal calls are caught too, because the package calls across and within
modules through module globals (``acpf.jacobian_at``, ``build_objective``).
``scipy.sparse.linalg.splu`` and ``spsolve`` are wrapped the same way, so each
factorization or sparse solve is attributed to its enclosing span.

Spans stay in memory until ``uninstall``; ``layer_metrics`` reduces them to
the per-layer metrics of the benchmark.
"""
from __future__ import annotations

import functools
import importlib
import resource
import statistics
import time

LAYERS = ("netmodel", "mdistflow", "mdopf", "qcqpsolver", "acpf", "pricing", "cli")

# module -> functions wrapped on it; private cli helpers are the report writer
# and the oracle sweep, which have no public entry point of their own
WRAPPED = {
    "radialopf.netmodel": ("parse_matpower_case", "duplicate_system", "validate",
                           "build_path_incidence", "to_json", "from_json"),
    "radialopf.mdistflow": ("solve_fixed_load", "state_from_solution"),
    "radialopf.mdopf": ("build", "build_objective", "certify_convexity",
                        "psd_projection", "recover_dispatch"),
    "radialopf.qcqpsolver": ("solve", "extract_duals"),
    "radialopf.acpf": ("admittance", "newton_pf", "jacobian_at",
                       "voltage_sensitivities", "fd_price_oracle"),
    "radialopf.pricing": ("compute_price_table", "modified_injection_sensitivities",
                          "loss_factors", "dlmp", "allocate_losses", "dlp", "settle",
                          "price_table_to_csv", "price_table_to_json",
                          "settlement_to_csv", "settlement_to_json"),
    "radialopf.cli": ("main", "apply_scenario", "_write", "_oracle_sweep"),
    "scipy.sparse.linalg": ("splu", "spsolve"),
}

MIB = 1024 * 1024


def _nbytes(*arrays) -> int:
    return sum(a.nbytes for a in arrays)


def _counts(name: str, args, result) -> dict:
    """Exact counts read at the boundary of one call."""
    if name == "netmodel.build_path_incidence":
        return {"t_nnz": int(result.t.nnz)}
    if name == "mdopf.build":
        return {"n_vars": result.n_vars,
                "n_rows": result.n_eq + result.n_in + result.n_quad}
    if name == "qcqpsolver.solve":
        return {"iterations": result.stats.iterations}
    if name == "acpf.newton_pf":
        return {"iterations": result.iterations}
    if name == "acpf.jacobian_at":
        return {"bytes": _nbytes(result.dp_ddelta, result.dp_dv,
                                 result.dq_ddelta, result.dq_dv)}
    if name == "acpf.voltage_sensitivities":
        return {"bytes": _nbytes(*result)}
    if name == "scipy.splu":
        return {"rows": int(args[0].shape[0]),
                "lu_nnz": int(result.L.nnz + result.U.nnz)}
    return {}


class Tracer:
    """Records spans for one study; ``install``/``uninstall`` patch modules.

    The tracer's own bookkeeping (reading counts and peak RSS) is timed and
    left out of every span's duration, so span times are the program's.
    """

    def __init__(self, study_id: str):
        self.study_id = study_id
        # span: [name, start_ns, end_ns, parent, rss_growth_kib, counts, paused_ns]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._paused = [0]  # bookkeeping time so far, in ns
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, paused = self.spans, self._stack, self._paused
        clock, maxrss = time.perf_counter_ns, resource.getrusage

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            b0 = clock()
            span = [name, 0, 0, stack[-1] if stack else -1, 0, {}, 0]
            stack.append(len(spans))
            spans.append(span)
            rss0 = maxrss(resource.RUSAGE_SELF).ru_maxrss
            span[1] = clock()
            paused[0] += span[1] - b0
            paused0 = paused[0]
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                span[6] = paused[0] - paused0
            span[4] = maxrss(resource.RUSAGE_SELF).ru_maxrss - rss0
            span[5] = _counts(name, args, result)
            paused[0] += clock() - span[2]
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for modname, names in WRAPPED.items():
            mod = importlib.import_module(modname)
            prefix = "scipy" if modname.startswith("scipy") else modname.split(".")[-1]
            for fname in names:
                orig = getattr(mod, fname)
                self._saved.append((mod, fname, orig))
                setattr(mod, fname, self._wrap(f"{prefix}.{fname.lstrip('_')}", orig))

    def uninstall(self) -> None:
        for mod, fname, orig in reversed(self._saved):
            setattr(mod, fname, orig)
        self._saved.clear()

    def records(self) -> list[dict]:
        """Spans as plain dicts, start/end in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        return [
            {"name": s[0], "start": (s[1] - t0) / 1e9, "end": (s[2] - t0) / 1e9,
             "parent": s[3], "study": self.study_id, "tracer_s": s[6] / 1e9,
             "rss_growth_mb": s[4] / 1024, **s[5]}
            for s in self.spans
        ]


def all_restored() -> bool:
    """True when no wrapped function is left on any traced module."""
    for modname, names in WRAPPED.items():
        mod = importlib.import_module(modname)
        if any(getattr(getattr(mod, f), "__wrapped_by_tracer__", False) for f in names):
            return False
    return True


def high_percentile(values: list[float]) -> tuple[float, float]:
    """Highest whole percentile with at least ten samples beyond it, and its
    value. Below 20 samples that percentile would not even reach the median,
    so the maximum (percentile 100) is given instead."""
    n = len(values)
    q = int(100 * (n - 10) / n)
    if q < 50:
        return 100.0, max(values)
    return float(q), statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (("_ms", "ms"), ("_mb", "MB"), ("_s", "s")):
        if metric.endswith(suffix):
            return unit
    return "count"


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced study (times in s unless named)."""
    dur: dict[str, float] = {}
    calls: dict[str, int] = {}
    rss: dict[str, float] = {}
    counts: dict[str, dict[str, int]] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0 and not s[0].startswith("scipy."):
            child_s[s[3]] += (s[2] - s[1] - s[6]) / 1e9
    factor = {"s": 0.0, "calls": 0, "rows": 0, "lu_nnz": 0}
    spsolve_s = 0.0
    oracle_ms: list[float] = []
    for i, (name, start, end, parent, rss_kib, cnt, paused) in enumerate(spans):
        d = (end - start - paused) / 1e9
        dur[name] = dur.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        rss[name] = rss.get(name, 0.0) + rss_kib / 1024
        agg = counts.setdefault(name, {})
        for k, v in cnt.items():
            agg[k] = agg.get(k, 0) + v
        layer = name.split(".")[0]
        if layer in self_s:
            self_s[layer] += d - child_s[i]
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name == "scipy.splu" and parent_name == "qcqpsolver.solve":
            factor["s"] += d
            factor["calls"] += 1
            factor["rows"] = max(factor["rows"], cnt.get("rows", 0))
            factor["lu_nnz"] = max(factor["lu_nnz"], cnt.get("lu_nnz", 0))
        if name == "scipy.spsolve" and parent_name.startswith("acpf."):
            spsolve_s += d
        if name == "acpf.fd_price_oracle":
            oracle_ms.append(d * 1e3)

    def t(*names):
        return sum(dur.get(n, 0.0) for n in names)

    def c(name, key):
        return counts.get(name, {}).get(key, 0)

    oracle_hi = high_percentile(oracle_ms)[1] if oracle_ms else 0.0
    m = {
        "netmodel.parse_s": t("netmodel.parse_matpower_case"),
        "netmodel.duplicate_s": t("netmodel.duplicate_system"),
        "netmodel.validate_s": t("netmodel.validate"),
        "netmodel.path_incidence_s": t("netmodel.build_path_incidence"),
        "netmodel.t_nnz": c("netmodel.build_path_incidence", "t_nnz"),
        "netmodel.json_s": t("netmodel.to_json", "netmodel.from_json"),
        "netmodel.json_calls": calls.get("netmodel.to_json", 0)
        + calls.get("netmodel.from_json", 0),
        "mdistflow.fixed_load_s": t("mdistflow.solve_fixed_load"),
        "mdistflow.fixed_load_calls": calls.get("mdistflow.solve_fixed_load", 0),
        "mdistflow.state_s": t("mdistflow.state_from_solution"),
        "mdopf.build_s": t("mdopf.build"),
        "mdopf.objective_s": t("mdopf.build_objective"),
        "mdopf.objective_calls": calls.get("mdopf.build_objective", 0),
        "mdopf.psd_s": t("mdopf.certify_convexity", "mdopf.psd_projection"),
        "mdopf.recover_s": t("mdopf.recover_dispatch"),
        "mdopf.n_vars": c("mdopf.build", "n_vars"),
        "mdopf.n_rows": c("mdopf.build", "n_rows"),
        "qcqpsolver.solve_s": t("qcqpsolver.solve"),
        "qcqpsolver.iterations": c("qcqpsolver.solve", "iterations"),
        "qcqpsolver.factor_s": factor["s"],
        "qcqpsolver.factor_calls": factor["calls"],
        "qcqpsolver.kkt_rows": factor["rows"],
        "qcqpsolver.lu_nnz": factor["lu_nnz"],
        "qcqpsolver.duals_s": t("qcqpsolver.extract_duals"),
        "qcqpsolver.rss_growth_mb": rss.get("qcqpsolver.solve", 0.0),
        "acpf.jacobian_s": t("acpf.jacobian_at"),
        "acpf.sensitivity_s": t("acpf.voltage_sensitivities"),
        "acpf.dense_mb": (c("acpf.jacobian_at", "bytes")
                          + c("acpf.voltage_sensitivities", "bytes")) / MIB,
        "acpf.newton_s": t("acpf.newton_pf"),
        "acpf.newton_calls": calls.get("acpf.newton_pf", 0),
        "acpf.newton_iterations": c("acpf.newton_pf", "iterations"),
        "acpf.spsolve_s": spsolve_s,
        "acpf.admittance_s": t("acpf.admittance"),
        "acpf.admittance_calls": calls.get("acpf.admittance", 0),
        "acpf.oracle_call_ms": statistics.median(oracle_ms) if oracle_ms else 0.0,
        "acpf.oracle_call_phigh_ms": oracle_hi,
        "pricing.table_s": t("pricing.compute_price_table"),
        "pricing.injection_sens_s": t("pricing.modified_injection_sensitivities"),
        "pricing.loss_factors_s": t("pricing.loss_factors"),
        "pricing.allocation_s": t("pricing.allocate_losses", "pricing.dlp"),
        "pricing.settle_s": t("pricing.settle"),
        "pricing.serialize_s": t("pricing.price_table_to_csv", "pricing.price_table_to_json",
                                 "pricing.settlement_to_csv", "pricing.settlement_to_json"),
        "pricing.rss_growth_mb": rss.get("pricing.compute_price_table", 0.0),
        "cli.write_s": t("cli.write"),
        "cli.oracle_sweep_s": t("cli.oracle_sweep"),
        "cli.scenario_s": t("cli.apply_scenario"),
    }
    m.update({f"{layer}.self_s": v for layer, v in self_s.items()})
    return m
