"""Command-line front-end.

Subcommands: ``validate``, ``pf``, ``opf``, ``price``, ``duplicate``. Each
loads a case (MATPOWER subset or the native JSON format), applies the
scenario overlay (declarative JSON file, individual flags override file
values), runs the requested study and writes CSV/JSON reports.

Exit codes: 0 success, 1 data error (including a scenario or network JSON
with a missing key or a wrongly typed or sized value, and a file that cannot
be read, decoded or written), 2 solver or pricing
failure (including congestion, which the marginal-loss prices exclude),
3 oracle failure. Each failure prints one line to stderr.
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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import acpf, mdistflow, mdopf, netmodel, pricing, qcqpsolver
from .acpf import OracleError, PowerFlowError
from .mdistflow import MdfError
from .mdopf import MdopfError
from .netmodel import Network, NetworkError, json_int, json_number, json_pair
from .pricing import PricingError
from .qcqpsolver import SolverError

EXIT_OK = 0
EXIT_DATA = 1
EXIT_SOLVER = 2
EXIT_ORACLE = 3

#: duplication seed and scale range where neither the scenario file nor a flag sets them
DEFAULT_SEED = 0
DEFAULT_SCALE_RANGE = (0.7, 1.3)


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
    """Declarative study setup; power fields are in MW/MVar."""

    case_path: str
    psp_voltage: float | None = None
    psp_costs: tuple[float, float] | None = None
    psp_load: tuple[float, float] | None = None
    dgs: tuple[DgSpec, ...] = ()
    load_scale: float = 1.0
    impedance_scale: float = 1.0
    v_limits: tuple[float, float] | None = None
    duplication: tuple[int, int, tuple[float, float]] | None = None
    thermal_limits: bool = True


def _dg_spec(d: dict) -> DgSpec:
    p_min, p_max = json_pair(d["p_range"], "p_range")
    q_min, q_max = json_pair(d["q_range"], "q_range")
    return DgSpec(
        bus=json_int(d["bus"], "bus"), p_max=p_max, q_max=q_max,
        cost_p=json_number(d["cost_p"], "cost_p"), cost_q=json_number(d["cost_q"], "cost_q"),
        p_min=p_min, q_min=q_min,
    )


def _optional(doc: dict, key: str, convert):
    return None if doc.get(key) is None else convert(doc[key], key)


def scenario_from_json(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkError(f"invalid scenario JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise NetworkError("scenario JSON: not an object")
    try:
        if not isinstance(doc["case"], str):
            raise TypeError(f"case must be a string, got {doc['case']!r}")
        thermal = doc.get("thermal_limits", True)
        if not isinstance(thermal, bool):
            raise TypeError(f"thermal_limits must be true or false, got {thermal!r}")
        dgs = tuple(_dg_spec(d) for d in doc.get("dgs", []))
        dup = None
        if doc.get("duplication"):
            dd = doc["duplication"]
            dup = (json_int(dd["copies"], "copies"),
                   json_int(dd.get("seed", DEFAULT_SEED), "seed"),
                   json_pair(dd["range"], "range") if "range" in dd else DEFAULT_SCALE_RANGE)
        return Scenario(
            case_path=doc["case"],
            psp_voltage=_optional(doc, "psp_voltage", json_number),
            psp_costs=_optional(doc, "psp_costs", json_pair),
            psp_load=_optional(doc, "psp_load", json_pair),
            dgs=dgs,
            load_scale=json_number(doc.get("load_scale", 1.0), "load_scale"),
            impedance_scale=json_number(doc.get("impedance_scale", 1.0), "impedance_scale"),
            v_limits=_optional(doc, "v_limits", json_pair),
            duplication=dup,
            thermal_limits=thermal,
        )
    except (KeyError, TypeError, ValueError) as exc:
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
        problems = netmodel.validate(net)
        if problems:
            raise NetworkError("invalid network: " + "; ".join(problems))
        return net
    return netmodel.parse_matpower_case(text)


def apply_scenario(scen: Scenario, case_dir: Path | None = None) -> Network:
    net = load_network(resolve_case(scen.case_path, case_dir))
    base = net.base_power
    if scen.psp_voltage is not None:
        net = netmodel.with_slack_voltage(net, scen.psp_voltage)
    if scen.psp_costs is not None:
        net = netmodel.with_slack_costs(net, *scen.psp_costs)
    if scen.psp_load is not None:
        net = netmodel.with_load(
            net, net.slack, scen.psp_load[0] / base, scen.psp_load[1] / base
        )
    for dg in scen.dgs:
        net = netmodel.with_generator(
            net, dg.bus,
            netmodel.Generator(
                p_min=dg.p_min / base, p_max=dg.p_max / base,
                q_min=dg.q_min / base, q_max=dg.q_max / base,
                cost_p=dg.cost_p, cost_q=dg.cost_q,
            ),
        )
    if scen.load_scale != 1.0:
        slack_load = (net.bus(net.slack).p_load, net.bus(net.slack).q_load)
        net = netmodel.scale_loads(net, scen.load_scale)
        net = netmodel.with_load(net, net.slack, *slack_load)
    if scen.impedance_scale != 1.0:
        net = netmodel.scale_impedance(net, scen.impedance_scale)
    if scen.v_limits is not None:
        net = netmodel.with_voltage_limits(net, *scen.v_limits)
    if not scen.thermal_limits:
        net = netmodel.strip_thermal_limits(net)
    if scen.duplication is not None:
        copies, seed, rng = scen.duplication
        net = netmodel.duplicate_system(net, copies, seed=seed, scale_range=rng)
    problems = netmodel.validate(net)
    if problems:
        raise NetworkError("scenario produced an invalid network: "
                           + "; ".join(problems))
    return net


def _scenario_from_args(args) -> Scenario:
    if args.scenario:
        scen = scenario_from_json(_read(Path(args.scenario)))
    else:
        if not args.case:
            raise NetworkError("either --scenario or --case is required")
        scen = Scenario(case_path=args.case)
    # flags override scenario-file values
    updates = {}
    if args.case:
        updates["case_path"] = args.case
    if args.psp_v is not None:
        updates["psp_voltage"] = args.psp_v
    if args.psp_cost_p is not None or args.psp_cost_q is not None:
        cur = scen.psp_costs or (30.0, 3.0)
        updates["psp_costs"] = (
            args.psp_cost_p if args.psp_cost_p is not None else cur[0],
            args.psp_cost_q if args.psp_cost_q is not None else cur[1],
        )
    if args.load_scale is not None:
        updates["load_scale"] = args.load_scale
    if args.impedance_scale is not None:
        updates["impedance_scale"] = args.impedance_scale
    if args.vmin is not None or args.vmax is not None:
        cur = scen.v_limits or (0.9, 1.1)
        updates["v_limits"] = (
            args.vmin if args.vmin is not None else cur[0],
            args.vmax if args.vmax is not None else cur[1],
        )
    if args.no_thermal:
        updates["thermal_limits"] = False
    if args.dg:
        dgs = list(scen.dgs)
        for spec in args.dg:
            try:
                bus, p_max, q_max, cost_p, cost_q = spec.split(":")
                dgs.append(DgSpec(bus=int(bus), p_max=float(p_max), q_max=float(q_max),
                                  cost_p=float(cost_p), cost_q=float(cost_q)))
            except ValueError as exc:
                raise NetworkError(
                    f"bad --dg spec {spec!r}; expected bus:pmax:qmax:costp:costq"
                ) from exc
        updates["dgs"] = tuple(dgs)
    if args.copies is not None or scen.duplication is not None:
        # each duplication flag overrides only its own key
        copies, seed, (lo, hi) = scen.duplication or (None, DEFAULT_SEED, DEFAULT_SCALE_RANGE)
        updates["duplication"] = (
            args.copies if args.copies is not None else copies,
            args.seed if args.seed is not None else seed,
            (args.scale_lo if args.scale_lo is not None else lo,
             args.scale_hi if args.scale_hi is not None else hi),
        )
    else:
        stray = [flag for flag, value in (("--seed", args.seed), ("--scale-lo", args.scale_lo),
                                          ("--scale-hi", args.scale_hi)) if value is not None]
        if stray:
            raise NetworkError(f"{', '.join(stray)} without a duplication: "
                               "give --copies or a scenario duplication")
    if updates:
        scen = replace(scen, **updates)
    return scen


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
    scen = _scenario_from_args(args)
    net = apply_scenario(scen, Path(args.case_dir) if args.case_dir else None)
    print(f"ok: {net.n_bus} buses, {len(net.branches)} branches, radial")
    return EXIT_OK


def cmd_pf(args) -> int:
    scen = _scenario_from_args(args)
    net = apply_scenario(scen, Path(args.case_dir) if args.case_dir else None)
    ti = netmodel.build_path_incidence(net)
    state = mdistflow.solve_fixed_load(net, ti)
    ac = acpf.newton_pf(net, v_start=state.v, delta_start=state.delta)
    rep = mdistflow.losses(ti, state)
    rows = ["bus,v_model[pu],v_ac[pu],abs_err[pu],delta_model[rad],delta_ac[rad]"]
    pos = netmodel.tree_positions(net)
    for b in net.buses:
        i = pos[b.id]
        rows.append(",".join([
            str(b.id), _fmt(state.v[i]), _fmt(ac.v[i]),
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
    scen = _scenario_from_args(args)
    net = apply_scenario(scen, Path(args.case_dir) if args.case_dir else None)
    ti, prob, sol, state = mdopf.solve_opf(net)
    _print_notes(prob.certificate)
    base = net.base_power
    rows = ["bus,pg[MW],qg[MVar],cost_p[$ per MWh],cost_q[$ per MVarh]"]
    for b in mdopf.gen_buses(net):
        g = net.bus(b).gen
        rows.append(",".join([
            str(b), _fmt(sol.pg[b] * base), _fmt(sol.qg[b] * base),
            _fmt(g.cost_p), _fmt(g.cost_q),
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


def _oracle_sweep(net, ti, state, sol, jobs: int):
    p, q = netmodel.net_injections(net, sol.pg, sol.qg)
    point = (p, q, state.v, state.delta)
    tasks = [(b, axis) for b in ti.order for axis in ("p", "q")]
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


def cmd_price(args) -> int:
    if args.jobs < 1:
        raise NetworkError(f"--jobs must be >= 1, got {args.jobs}")
    scen = _scenario_from_args(args)
    net = apply_scenario(scen, Path(args.case_dir) if args.case_dir else None)
    ti, prob, sol, state = mdopf.solve_opf(net)
    _print_notes(prob.certificate)
    slack_pg = (sol.pg[net.slack], sol.qg[net.slack])
    pt = pricing.compute_price_table(
        net, ti, state, thermal_duals=sol.duals_quad, slack_dispatch=slack_pg
    )
    # solver shadow prices of the non-slack balance rows (tree order) alongside,
    # for comparison with the explicit method (the objective is $ per pu, so
    # the per-MWh price divides out the base)
    rows = mdistflow.FlowRows(ti.n)
    nonslack = np.arange(1, ti.n + 1)
    scale = state.v[1:] * net.base_power
    extra = {
        "dual_dlmp_p[$ per MWh]":
            qcqpsolver.extract_duals(prob, sol, rows.p_bal + nonslack) / scale,
        "dual_dlmp_q[$ per MVarh]":
            qcqpsolver.extract_duals(prob, sol, rows.q_bal + nonslack) / scale,
    }
    if args.oracle:
        oracle_p, oracle_q = _oracle_sweep(net, ti, state, sol, args.jobs)
        extra.update({
            "oracle_p[$ per MWh]": oracle_p,
            "oracle_q[$ per MVarh]": oracle_q,
            "dlmp_p_rel_err": np.abs(pt.dlmp_p - oracle_p) / np.abs(oracle_p),
            "dlmp_q_rel_err": np.abs(pt.dlmp_q - oracle_q) / np.abs(oracle_q),
        })
        print(f"avg DLMP_P oracle error: {np.mean(extra['dlmp_p_rel_err'])*100:.4f}%")
        print(f"avg DLMP_Q oracle error: {np.mean(extra['dlmp_q_rel_err'])*100:.4f}%")

    reports = []
    if args.mechanism in ("mlm", "both"):
        reports.append(pricing.settle(net, ti, state, (pt.dlmp_p, pt.dlmp_q), "mlm"))
    if args.mechanism in ("lam", "both"):
        reports.append(pricing.settle(net, ti, state, (pt.dlp_p, pt.dlp_q), "lam"))

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
    case_dir = Path(args.case_dir) if args.case_dir else None
    net = load_network(resolve_case(args.case, case_dir))
    dup = netmodel.duplicate_system(
        net, args.copies, seed=args.seed, scale_range=(args.scale_lo, args.scale_hi)
    )
    out_dir = Path(args.out)
    _write(out_dir, args.name, netmodel.to_json(dup))
    print(f"{dup.n_bus} buses, {len(dup.branches)} branches")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="radialopf",
        description="Optimal dispatch and nodal pricing for radial distribution feeders.",
    )
    ap.add_argument("--case-dir", help="directory for case files "
                    "(default: $RADIALOPF_CASE_DIR, then packaged cases)")
    sub = ap.add_subparsers(dest="command", required=True)

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
        p.add_argument("--no-thermal", action="store_true",
                       help="ignore branch current ratings")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--dg", action="append",
                       help="add a generator, bus:pmax_MW:qmax_MVar:costp:costq")
        p.add_argument("--copies", type=int, help="duplicate the feeder this many times")
        # no defaults here, so that each flag overrides only its own key
        p.add_argument("--seed", type=int, help="duplication random seed")
        p.add_argument("--scale-lo", type=float)
        p.add_argument("--scale-hi", type=float)

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
    p.add_argument("--copies", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--scale-lo", type=float, default=DEFAULT_SCALE_RANGE[0])
    p.add_argument("--scale-hi", type=float, default=DEFAULT_SCALE_RANGE[1])
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
