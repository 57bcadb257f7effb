"""Convex quadratic OPF, nodal pricing and loss allocation for radial feeders.

Typical flow: parse a case, build the path incidence, solve the dispatch,
recover the physical state, price it:

    from radialopf import netmodel, mdopf, qcqpsolver, pricing

    net = netmodel.load_case("case33.m")
    ti = netmodel.build_path_incidence(net)
    prob = mdopf.build(net, ti)
    sol = qcqpsolver.solve(prob)
    sol, state = mdopf.recover_dispatch(net, ti, prob, sol)
    table = pricing.compute_price_table(net, ti, state)

Every per-bus array uses one bus order: ``state.v[0]`` is the slack and
``state.v[1:]`` lines up with ``ti.order`` and with the rows of ``table``
(``netmodel.tree_positions(net)`` maps a bus id to its position).
"""

from . import acpf, cli, mdistflow, mdopf, netmodel, pricing, qcqpsolver
from .netmodel import (
    Branch,
    Bus,
    Generator,
    Network,
    NetworkError,
    PathIncidence,
    build_path_incidence,
    duplicate_system,
    load_case,
    parse_matpower_case,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "acpf", "cli", "mdistflow", "mdopf", "netmodel", "pricing", "qcqpsolver",
    "Branch", "Bus", "Generator", "Network", "NetworkError", "PathIncidence",
    "build_path_incidence", "duplicate_system", "load_case",
    "parse_matpower_case", "validate",
]
