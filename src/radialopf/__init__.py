"""Convex quadratic OPF, nodal pricing and loss allocation for radial feeders.

Typical flow: parse a case, solve the dispatch (build, interior-point solve
and state recovery in one call), price it:

    from radialopf import cli, netmodel, mdopf, pricing

    net = netmodel.load_case(cli.resolve_case("case33.m", None))
    prob, sol, state = mdopf.solve_opf(net)
    table = pricing.compute_price_table(net, state)
    dispatch = dict(zip(mdopf.var_blocks(net).gens, sol.pg))

``cli.resolve_case`` falls back to the packaged cases (case33.m, case69.m).
``prob.certificate`` holds the convexity verdict of the cost quadratic.
``sol.pg``/``sol.qg`` are the dispatch (pu) as arrays in generator order:
the buses of ``mdopf.var_blocks(net).gens``, the slack first, so
``dispatch`` maps each generator's bus id to its active output.

A network is its columns: ``net.records`` holds one read-only array per
bus or branch field in the case file's order. Every per-bus array of the
pipeline uses one bus order: ``state.v[0]`` is the slack and ``state.v[1:]``
lines up with ``netmodel.path_incidence(net).order``, with the rows of
``table`` and with ``netmodel.columns(net)``, the same columns in that order
(``netmodel.tree_positions(net)`` maps a bus id to its position).
"""

# ``cli`` is not imported here, so that ``python -m radialopf.cli`` runs it
# as a fresh module; ``from radialopf import cli`` imports it on demand
from . import acpf, mdistflow, mdopf, netmodel, pricing, qcqpsolver
from .netmodel import (
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
    "Generator", "Network", "NetworkError", "PathIncidence",
    "build_path_incidence", "duplicate_system", "load_case",
    "parse_matpower_case", "validate",
]
