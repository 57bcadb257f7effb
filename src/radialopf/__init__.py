"""Convex quadratic OPF, nodal pricing and loss allocation for radial feeders.

Typical flow: parse a case, solve the dispatch (path incidence, build,
interior-point solve and state recovery in one call), price it:

    from radialopf import netmodel, mdopf, pricing

    net = netmodel.load_case("case33.m")
    ti, prob, sol, state = mdopf.solve_opf(net)
    table = pricing.compute_price_table(net, ti, state)

``prob.certificate`` holds the convexity verdict of the cost quadratic.

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
