"""Command-line front-end.

Subcommands: ``validate``, ``pf``, ``opf``, ``price``, ``duplicate``. Each
builds its network with ``apply_scenario``: a case (MATPOWER subset or the
native JSON format) with each value that the scenario sets in place of the
case's, then duplicated if the scenario asks for copies. A scenario comes
from a declarative JSON file and from flags, one ``Scenario`` field per
value; a flag overrides only its own value, and a value that neither sets
keeps the case's. The command then runs its study and writes CSV/JSON
reports.

Exit codes: 0 success, 1 data error (including a scenario or network JSON
with a missing or unknown key or a wrongly typed or sized value, and a file
that cannot be read, decoded or written), 2 solver or pricing
failure (including congestion, which the marginal-loss prices exclude, and
an OPF row that the builder's presolve proves no dispatch can meet, named
before the interior point starts), 3 oracle failure. Each failure prints one line to stderr.
Case paths resolve against ``--case-dir``, the ``RADIALOPF_CASE_DIR``
environment variable, or the packaged cases, in that order.
"""
from __future__ import annotations

import argparse
import importlib.resources
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import acpf, mdistflow, mdopf, netmodel, pricing
from .acpf import OracleError, PowerFlowError
from .mdistflow import MdfError
from .mdopf import MdopfError
from .netmodel import (
    Network, NetworkError, json_field, json_fields, json_int, json_number, json_of_type,
    json_pair,
)
from .pricing import PricingError
from .qcqpsolver import SolverError

EXIT_OK = 0
EXIT_DATA = 1
EXIT_SOLVER = 2
EXIT_ORACLE = 3


@dataclass(frozen=True)
class DgSpec:
    bus: int
    p_max: float  # MW
    q_max: float  # MVar
    cost_p: float
    cost_q: float
    p_min: float = 0.0
    q_min: float = 0.0


@dataclass(frozen=True)
class Scenario:
    """Declarative study setup: one field per value that a flag (named alike)
    or a scenario-file key sets, and ``--dg`` adds to ``dgs``. None keeps the
    case's value, or ``netmodel.duplicate_system``'s default. Power in MW/MVar."""

    case: str | None = None
    psp_v: float | None = None
    psp_cost_p: float | None = None
    psp_cost_q: float | None = None
    psp_load: tuple[float, float] | None = None
    dgs: tuple[DgSpec, ...] = ()
    load_scale: float | None = None
    impedance_scale: float | None = None
    vmin: float | None = None
    vmax: float | None = None
    no_thermal: bool = False
    copies: int | None = None
    seed: int | None = None
    scale_lo: float | None = None
    scale_hi: float | None = None


def _split(lo: str, hi: str):
    """Reader of a JSON pair that sets the fields ``lo`` and ``hi``."""
    return lambda value, key: dict(zip((lo, hi), json_pair(value, key)))


_DG_KEYS = {
    "bus": json_field("bus", json_int),
    "p_range": _split("p_min", "p_max"),
    "q_range": _split("q_min", "q_max"),
    "cost_p": json_field("cost_p", json_number),
    "cost_q": json_field("cost_q", json_number),
}
_DUPLICATION_KEYS = {
    "copies": json_field("copies", json_int),
    "seed": json_field("seed", json_int),
    "range": _split("scale_lo", "scale_hi"),
}


def _dgs(value, key: str) -> dict:
    entries = json_of_type(list, "a list")(value, key)
    return {"dgs": tuple(DgSpec(**json_fields(d, _DG_KEYS, tuple(_DG_KEYS), "dgs entry"))
                         for d in entries)}


_SCENARIO_KEYS = {
    "case": json_field("case", json_of_type(str, "a string")),
    "psp_voltage": json_field("psp_v", json_number),
    "psp_costs": _split("psp_cost_p", "psp_cost_q"),
    "psp_load": json_field("psp_load", json_pair),
    "dgs": _dgs,
    "load_scale": json_field("load_scale", json_number),
    "impedance_scale": json_field("impedance_scale", json_number),
    "v_limits": _split("vmin", "vmax"),
    "duplication": lambda value, key: json_fields(value, _DUPLICATION_KEYS, ("copies",), key),
    "thermal_limits": lambda value, key: {
        "no_thermal": not json_of_type(bool, "true or false")(value, key)},
}


def scenario_from_json(text: str) -> Scenario:
    try:  # json.JSONDecodeError is a ValueError, too deep a nesting a RecursionError
        return Scenario(**json_fields(json.loads(text), _SCENARIO_KEYS, ("case",), "scenario"))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise netmodel.schema_error("scenario JSON", exc) from exc


def resolve_case(path_str: str, case_dir: Path | None) -> Path:
    p = Path(path_str)
    if p.is_file():
        return p
    candidates = []
    if case_dir is not None:
        candidates.append(case_dir / path_str)
    env = os.environ.get("RADIALOPF_CASE_DIR")
    if env:
        candidates.append(Path(env) / path_str)
    pkg_cases = importlib.resources.files("radialopf") / "cases"
    candidates.append(Path(str(pkg_cases)) / path_str)
    for cand in candidates:
        if cand.is_file():
            return cand
    raise NetworkError(f"case file not found: {path_str}")


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise NetworkError(f"cannot read {path}: {exc}") from exc


def load_network(path: Path) -> Network:
    text = _read(path)
    if path.suffix == ".json":
        net = netmodel.from_json(text)
        netmodel.require_valid(net, "invalid network")
        return net
    return netmodel.parse_matpower_case(text)


def apply_scenario(scen: Scenario, case_dir: Path | None = None) -> Network:
    """The scenario's network: its case with each value that the scenario
    sets in place of the case's, duplicated when it sets ``copies``, and
    validated."""
    dup = {k: v for k in ("seed", "scale_lo", "scale_hi") if (v := getattr(scen, k)) is not None}
    if dup and scen.copies is None:
        raise NetworkError(", ".join("--" + k.replace("_", "-") for k in dup)
                           + " without a duplication: give --copies or a scenario duplication")
    net = load_network(resolve_case(scen.case, case_dir))
    base = net.base_power
    if scen.psp_v is not None:
        net = netmodel.with_slack_voltage(net, scen.psp_v)
    net = netmodel.with_slack_costs(net, scen.psp_cost_p, scen.psp_cost_q)
    if scen.psp_load is not None:
        net = netmodel.with_load(net, net.slack, *(v / base for v in scen.psp_load))
    for dg in scen.dgs:
        gen = netmodel.Generator(dg.p_min / base, dg.p_max / base, dg.q_min / base,
                                 dg.q_max / base, dg.cost_p, dg.cost_q)
        net = netmodel.with_generator(net, dg.bus, gen)
    if scen.load_scale is not None:
        cols = netmodel.columns(net)  # the supply point's own load stays
        slack_load = (cols.p_load[0], cols.q_load[0])
        net = netmodel.scale_loads(net, scen.load_scale)
        net = netmodel.with_load(net, net.slack, *slack_load)
    if scen.impedance_scale is not None:
        net = netmodel.scale_impedance(net, scen.impedance_scale)
    net = netmodel.with_voltage_limits(net, scen.vmin, scen.vmax)
    if scen.no_thermal:
        net = netmodel.strip_thermal_limits(net)
    if scen.copies is not None:
        net = netmodel.duplicate_system(net, scen.copies, **dup)
    netmodel.require_valid(net, "scenario produced an invalid network")
    return net


def _dg_flag(spec: str) -> DgSpec:
    try:
        bus, p_max, q_max, cost_p, cost_q = spec.split(":")
        return DgSpec(int(bus), float(p_max), float(q_max), float(cost_p), float(cost_q))
    except ValueError as exc:
        raise NetworkError(
            f"bad --dg spec {spec!r}; expected bus:pmax:qmax:costp:costq"
        ) from exc


def _scenario_from_args(args) -> Scenario:
    """The scenario file's fields with each flag that is set in place of its
    own field, and the ``--dg`` generators after the file's."""
    path = getattr(args, "scenario", None)
    scen = scenario_from_json(_read(Path(path))) if path else Scenario()
    flags = {f.name: getattr(args, f.name, None) for f in fields(Scenario)}
    scen = replace(scen, **{k: v for k, v in flags.items() if v is not None})
    if scen.case is None:
        raise NetworkError("either --scenario or --case is required")
    return replace(scen, dgs=scen.dgs + tuple(map(_dg_flag, getattr(args, "dg", None) or ())))


def _network(args) -> Network:
    """The network of the scenario that ``args`` give."""
    return apply_scenario(_scenario_from_args(args),
                          Path(args.case_dir) if args.case_dir else None)


def _write(out_dir: Path, name: str, text: str) -> Path:
    path = out_dir / name
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise NetworkError(f"cannot write {path}: {exc}") from exc
    print(f"wrote {path}")
    return path


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def cmd_validate(args) -> int:
    net = _network(args)
    print(f"ok: {net.n_bus} buses, {net.records.from_bus.size} branches, radial")
    return EXIT_OK


def cmd_pf(args) -> int:
    net = _network(args)
    state = mdistflow.solve_fixed_load(net)
    ac = acpf.newton_pf(net, v_start=state.v, delta_start=state.delta)
    rep = mdistflow.losses(net, state)
    rows = ["bus,v_model[pu],v_ac[pu],abs_err[pu],delta_model[rad],delta_ac[rad]"]
    pos = netmodel.tree_positions(net)
    for b in net.records.bus_id.tolist():  # the report's rows follow the case file
        i = pos[b]
        rows.append(",".join([
            str(b), _fmt(state.v[i]), _fmt(ac.v[i]),
            _fmt(abs(state.v[i] - ac.v[i])),
            _fmt(state.delta[i]), _fmt(ac.delta[i]),
        ]))
    out_dir = Path(args.out)
    _write(out_dir, "pf_comparison.csv", "\n".join(rows) + "\n")
    summary = {
        "buses": net.n_bus,
        "max_voltage_error[pu]": float(np.max(np.abs(state.v - ac.v))),
        "min_voltage_model[pu]": float(np.min(state.v)),
        "min_voltage_ac[pu]": float(np.min(ac.v)),
        "loss_model[MW]": rep.pl * net.base_power,
        "loss_ac[MW]": ac.pl_exact * net.base_power,
        "loss_model_split[MW]": {
            "from_p_flows": rep.pl_p * net.base_power,
            "from_q_flows": rep.pl_q * net.base_power,
        },
        "ac_iterations": ac.iterations,
    }
    _write(out_dir, "pf_summary.json", json.dumps(summary, indent=1))
    print(f"max |V_model - V_ac| = {summary['max_voltage_error[pu]']:.3e} pu")
    return EXIT_OK


def _print_notes(cert: mdopf.ConvexityCertificate) -> None:
    """The convexity verdict of the built problem as ``note:`` lines."""
    if not cert.psd:
        print("note: cost quadratic is indefinite "
              f"(min eigenvalue {cert.min_eigenvalue:.3e}); projected onto the PSD cone")
    if not cert.trace_condition:
        print("note: cost-trace condition fails; proceeding on the numerical certificate")


def cmd_opf(args) -> int:
    net = _network(args)
    prob, sol, state = mdopf.solve_opf(net)
    _print_notes(prob.certificate)
    base = net.base_power
    rows = ["bus,pg[MW],qg[MVar],cost_p[$ per MWh],cost_q[$ per MVarh]"]
    vb, cols = mdopf.var_blocks(net), netmodel.columns(net)
    for b, cost_p, cost_q in zip(vb.gens, cols.cost_p[vb.gen_w].tolist(),
                                 cols.cost_q[vb.gen_w].tolist()):
        rows.append(",".join([
            str(b), _fmt(sol.pg[b] * base), _fmt(sol.qg[b] * base), _fmt(cost_p), _fmt(cost_q),
        ]))
    out_dir = Path(args.out)
    _write(out_dir, "opf_dispatch.csv", "\n".join(rows) + "\n")
    cert = prob.certificate
    # runtime stays off the report files so reruns are byte-identical
    summary = {
        "status": sol.status,
        "objective[$]": sol.objective_value,
        "iterations": sol.stats.iterations,
        "final_gap": sol.stats.final_gap,
        "final_feasibility": sol.stats.final_feas,
        "convexity_certificate": {
            "psd": cert.psd,
            "min_eigenvalue": cert.min_eigenvalue,
            "trace_condition": cert.trace_condition,
            "projected": not cert.psd,
        },
        # the rated branches whose thermal row presolve keeps
        "thermal_rows": prob.n_quad,
    }
    _write(out_dir, "opf_summary.json", json.dumps(summary, indent=1))
    print(f"objective {sol.objective_value:.2f} $ in {sol.stats.iterations} "
          f"iterations ({sol.stats.runtime_seconds:.2f}s)")
    return EXIT_OK


# the network and base point of the sweep; set once in each oracle worker
# process by ``_oracle_init``, never in the parent
_oracle_point = None


def _oracle_init(net_json, *point):
    global _oracle_point
    _oracle_point = (netmodel.from_json(net_json), *point)


def _oracle_price(point, bus, axis):
    net, p, q, v, delta = point
    return acpf.fd_price_oracle(net, bus, axis, p=p, q=q, v_start=v, delta_start=delta)


def _oracle_worker(task):
    return _oracle_price(_oracle_point, *task)


def _oracle_sweep(net, state, sol, jobs: int):
    p, q = netmodel.net_injections(net, sol.pg, sol.qg)
    point = (p, q, state.v, state.delta)
    tasks = [(b, axis) for b in netmodel.path_incidence(net).order for axis in ("p", "q")]
    if jobs > 1:
        # one worker per CPU at most, and never more workers than tasks
        workers = min(jobs, os.cpu_count() or 1, len(tasks))
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn"),
            initializer=_oracle_init, initargs=(netmodel.to_json(net), *point),
        ) as pool:
            results = list(pool.map(_oracle_worker, tasks))
    else:
        results = [_oracle_price((net, *point), *task) for task in tasks]
    oracle_p = np.array(results[0::2])
    oracle_q = np.array(results[1::2])
    return oracle_p, oracle_q


def _rel_err(price: np.ndarray, oracle: np.ndarray) -> np.ndarray:
    """|price - oracle| / |oracle|, undefined (NaN) where the oracle price is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(oracle != 0, np.abs(price - oracle) / np.abs(oracle), np.nan)


def cmd_price(args) -> int:
    if args.jobs < 1:
        raise NetworkError(f"--jobs must be >= 1, got {args.jobs}")
    net = _network(args)
    prob, sol, state = mdopf.solve_opf(net)
    _print_notes(prob.certificate)
    if not sol.pg[net.slack] > netmodel.columns(net).p_min[0] + 1e-9:
        print("note: supply-point generation is not strictly interior; "
              "marginal-loss prices assume the supply point is marginal")
    pt = pricing.compute_price_table(net, state, thermal_duals=sol.duals_quad)
    # solver shadow prices of the non-slack balance rows (tree order) alongside,
    # for comparison with the explicit method (the objective is $ per pu, so
    # the per-MWh price divides out the base)
    lam_p, lam_q = mdopf.balance_prices(net, prob, sol)
    scale = state.v[1:] * net.base_power
    extra = {
        "dual_dlmp_p[$ per MWh]": lam_p[1:] / scale,
        "dual_dlmp_q[$ per MVarh]": lam_q[1:] / scale,
    }
    if args.oracle:
        oracle_p, oracle_q = _oracle_sweep(net, state, sol, args.jobs)
        extra.update({
            "oracle_p[$ per MWh]": oracle_p,
            "oracle_q[$ per MVarh]": oracle_q,
            "dlmp_p_rel_err": _rel_err(pt.dlmp_p, oracle_p),
            "dlmp_q_rel_err": _rel_err(pt.dlmp_q, oracle_q),
        })
        for axis in ("p", "q"):  # the mean over the rows where it is defined
            err = extra[f"dlmp_{axis}_rel_err"]
            defined = err[~np.isnan(err)]
            avg = f"{np.mean(defined)*100:.4f}%" if defined.size else "n/a"
            print(f"avg DLMP_{axis.upper()} oracle error: {avg}")

    reports = []
    if args.mechanism in ("mlm", "both"):
        reports.append(pricing.settle(net, state, (pt.dlmp_p, pt.dlmp_q), "mlm"))
    if args.mechanism in ("lam", "both"):
        reports.append(pricing.settle(net, state, (pt.dlp_p, pt.dlp_q), "lam"))

    out_dir = Path(args.out)
    if args.format == "json":
        _write(out_dir, "prices.json", pricing.price_table_to_json(pt, extra=extra))
        _write(out_dir, "settlement.json", pricing.settlement_to_json(reports))
    else:
        _write(out_dir, "prices.csv", pricing.price_table_to_csv(pt, extra=extra))
        _write(out_dir, "settlement.csv", pricing.settlement_to_csv(reports))
    for r in reports:
        print(f"{r.mechanism}: revenue {r.revenue:.2f} $, payment {r.payment:.2f} $, "
              f"over-collection {r.ocl:.4f} $")
    return EXIT_OK


def cmd_duplicate(args) -> int:
    net = _network(args)
    _write(Path(args.out), args.name, netmodel.to_json(net))
    print(f"{net.n_bus} buses, {net.records.from_bus.size} branches")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="radialopf",
        description="Optimal dispatch and nodal pricing for radial distribution feeders.",
    )
    ap.add_argument("--case-dir", help="directory for case files "
                    "(default: $RADIALOPF_CASE_DIR, then packaged cases)")
    sub = ap.add_subparsers(dest="command", required=True)

    # no flag has a default, so that each overrides only its own value
    def add_duplication(p, required=False):
        p.add_argument("--copies", type=int, required=required,
                       help="duplicate the feeder this many times")
        p.add_argument("--seed", type=int, help="duplication random seed")
        p.add_argument("--scale-lo", type=float, help="lowest load and impedance factor")
        p.add_argument("--scale-hi", type=float, help="highest load and impedance factor")

    def add_common(p):
        p.add_argument("--scenario", help="scenario JSON file")
        p.add_argument("--case", help="case file (MATPOWER subset .m or native .json)")
        p.add_argument("--psp-v", type=float, help="supply-point voltage (pu)")
        p.add_argument("--psp-cost-p", type=float, help="supply-point price ($/MWh)")
        p.add_argument("--psp-cost-q", type=float, help="supply-point price ($/MVarh)")
        p.add_argument("--load-scale", type=float, help="scale all loads")
        p.add_argument("--impedance-scale", type=float, help="scale all impedances")
        p.add_argument("--vmin", type=float, help="override bus voltage floor (pu)")
        p.add_argument("--vmax", type=float, help="override bus voltage cap (pu)")
        p.add_argument("--no-thermal", action="store_true", default=None,
                       help="ignore branch current ratings")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--dg", action="append",
                       help="add a generator, bus:pmax_MW:qmax_MVar:costp:costq")
        add_duplication(p)

    p = sub.add_parser("validate", help="check the network a case and scenario produce")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pf", help="run both power flows and compare")
    add_common(p)
    p.set_defaults(func=cmd_pf)

    p = sub.add_parser("opf", help="solve the optimal dispatch")
    add_common(p)
    p.set_defaults(func=cmd_opf)

    p = sub.add_parser("price", help="solve dispatch, compute nodal prices and settle")
    add_common(p)
    p.add_argument("--mechanism", choices=("mlm", "lam", "both"), default="both")
    p.add_argument("--oracle", action="store_true",
                   help="add finite-difference oracle columns (AC solves per bus)")
    p.add_argument("--jobs", type=int, default=1, help="oracle sweep workers")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("duplicate", help="replicate a feeder onto a common supply point")
    p.add_argument("--case", required=True)
    add_duplication(p, required=True)
    p.add_argument("--name", default="network.json", help="output file name")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_duplicate)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NetworkError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OracleError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except PricingError as exc:
        print(f"pricing error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (SolverError, MdopfError, MdfError, PowerFlowError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
