"""Convex quadratic OPF builder for radial feeders.

Variables are the ratio-form quantities of the modified power-flow model:
per-bus W = 2 - V, modified branch flows, and modified generator outputs.
The modified injections (generation minus load, both scaled by W) are folded
into the per-bus balance rows. All constraints are linear except the
per-branch thermal limits, which are diagonal quadratic rows. The objective
is the generation cost with the voltage weights eliminated through the
closed-form affine voltage map, which leaves a quadratic form over the
generator variables.

The raw cost quadratic is certified for positive semidefiniteness; when the
certificate fails (which happens for generic P/Q cost ratios, see
``certify_convexity``), the builder replaces it with its nearest PSD matrix
in Frobenius norm and records the verdict in ``prob.certificate``; the CLI
prints it as ``note:`` lines. The projection is tiny relative to the linear
cost terms and is validated against dispatch benchmarks in the test suite.

``solve_opf`` is the whole pipeline: build, interior-point solve and
recovery of the dispatch and state. Each function reads the path incidence
of its network from ``netmodel.path_incidence``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import mdistflow, netmodel, qcqpsolver
from .netmodel import Network, PathIncidence
from .qcqpsolver import EigBlock, OpfSolution, QcqpProblem, psd_test, support_eigh


class MdopfError(RuntimeError):
    """Raised when the OPF cannot be assembled for the given network."""


@dataclass(frozen=True)
class ConvexityCertificate:
    """Outcome of the numerical PSD check plus the cost-trace signal.

    ``trace_condition`` is the sufficient-condition proxy (positive trace of
    the cost quadratic); the numerical ``psd`` verdict is authoritative.
    """

    psd: bool
    min_eigenvalue: float
    trace: float
    trace_condition: bool


def gen_buses(net: Network) -> list[int]:
    """Generator buses, slack first, then in path order."""
    return [b.id for b in netmodel.tree_buses(net) if b.gen is not None]


@dataclass(frozen=True)
class VarBlocks:
    """Index blocks of the problem variables, the one statement of their
    layout.

    W runs over all buses, slack first, then the path incidence's ``order``
    (so its bus position ``k`` is W index ``k + 1``); Pbr and Qbr follow its
    branch rows; Pg and Qg follow ``gens``. ``gen_w`` is the W index of each
    generator bus. The equality rows are laid out as ``mdistflow.FlowRows``
    states.
    """

    n: int
    gens: tuple[int, ...]
    gen_w: np.ndarray

    @property
    def pbr(self) -> int:
        return self.n + 1

    @property
    def qbr(self) -> int:
        return 2 * self.n + 1

    @property
    def pg(self) -> int:
        return 3 * self.n + 1

    @property
    def qg(self) -> int:
        return 3 * self.n + 1 + len(self.gens)

    @property
    def n_vars(self) -> int:
        return 3 * self.n + 1 + 2 * len(self.gens)


def var_blocks(net: Network) -> VarBlocks:
    """Variable index blocks of the OPF of ``net``."""
    gens = gen_buses(net)
    pos = netmodel.tree_positions(net)
    return VarBlocks(len(pos) - 1, tuple(gens), np.array([pos[b] for b in gens], dtype=int))


def certify_convexity(
    h: sp.spmatrix | np.ndarray, eig: list[EigBlock] | None = None
) -> ConvexityCertificate:
    """Numerical PSD certificate for a symmetric quadratic-form matrix.

    The verdict is ``qcqpsolver.psd_test``, the solver's own convexity test;
    the certificate reports the minimum eigenvalue and the trace-positivity
    signal alongside it. ``eig`` is the ``qcqpsolver.support_eigh``
    decomposition of ``h`` when the caller already has it.
    """
    hc = sp.csr_matrix(h)
    trace = float(hc.diagonal().sum())
    scale = max(1.0, float(abs(hc).max())) if hc.nnz else 1.0
    if hc.nnz and abs(hc - hc.T).max() > 1e-12 * scale:
        raise MdopfError("convexity certificate requires a symmetric matrix")
    psd, min_eig = psd_test(hc, support_eigh(hc) if eig is None else eig)
    return ConvexityCertificate(psd, min_eig, trace, trace > 0.0)


def psd_projection(
    h: sp.spmatrix, eig: list[EigBlock] | None = None
) -> sp.csr_matrix:
    """Frobenius-nearest PSD matrix: eigenvalues clipped at zero on the
    nonzero support. ``eig`` is the ``qcqpsolver.support_eigh(h,
    vectors=True)`` decomposition when the caller already has it."""
    hc = sp.csr_matrix(h)
    blocks = support_eigh(hc, vectors=True) if eig is None else eig
    if not blocks:
        return hc
    parts = [(idx, (vecs * np.maximum(vals, 0.0)) @ vecs.T) for idx, vals, vecs in blocks]
    cut = 1e-14 * max(1.0, max(float(abs(c).max()) for _, c in parts))
    rows, cols, data = [], [], []
    for idx, clipped in parts:
        ri, ci = np.nonzero(np.abs(clipped) >= cut)
        rows.append(idx[ri])
        cols.append(idx[ci])
        data.append(clipped[ri, ci])
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=hc.shape,
    )


def build_objective(net: Network) -> tuple[sp.csr_matrix, np.ndarray, float]:
    """Exact cost terms over the problem variables: returns (H, g, c) with the
    objective x'Hx + g'x + c in $ per hour.

    The linear part carries the slack cost (at the fixed slack voltage) and
    the generator costs weighted by the load-only voltage profile; H is the
    symmetrized quadratic left by the affine voltage response to generation.
    """
    lay = var_blocks(net)
    n_vars = lay.n_vars
    base = net.base_power
    g = np.zeros(n_vars)
    if not lay.gens or lay.gens[0] != net.slack:
        raise MdopfError("supply point has no generator")
    buses = netmodel.tree_buses(net)
    slack_gen = buses[0].gen
    g[lay.pg] = net.v0 * slack_gen.cost_p * base
    g[lay.qg] = net.v0 * slack_gen.cost_q * base

    dg = lay.gens[1:]
    if not dg:
        return sp.csr_matrix((n_vars, n_vars)), g, 0.0
    try:
        load_state = mdistflow.solve_fixed_load(net)
    except mdistflow.MdfError as exc:
        raise MdopfError(f"load-only voltage profile unavailable: {exc}") from exc
    vd = load_state.v[lay.gen_w[1:]]
    cp = np.array([buses[w].gen.cost_p for w in lay.gen_w[1:]])
    cq = np.array([buses[w].gen.cost_q for w in lay.gen_w[1:]])
    n_dg = len(dg)
    g[lay.pg + 1:lay.pg + 1 + n_dg] = vd * cp * base
    g[lay.qg + 1:lay.qg + 1 + n_dg] = vd * cq * base
    # the path matrix T at the generator columns: the branch rows on each
    # generator bus's path to the slack
    ti = netmodel.path_incidence(net)
    rows, cols = [], []
    for j, k in enumerate((lay.gen_w[1:] - 1).tolist()):
        while k >= 0:
            rows.append(k)
            cols.append(j)
            k = ti.parent_pos[k]
    t_g = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(ti.n, n_dg))
    # the common-path resistance and reactance between generator buses;
    # feeders meet only at the slack, so both are block diagonal by feeder
    a_g = t_g.T @ t_g.multiply(ti.r[:, None])
    b_g = t_g.T @ t_g.multiply(ti.x[:, None])
    m = sp.bmat([[a_g.multiply(cp), a_g.multiply(cq)],
                 [b_g.multiply(cp), b_g.multiply(cq)]], format="csr") * base
    block = sp.coo_matrix(0.5 * (m + m.T))
    block.eliminate_zeros()
    idx = np.concatenate([lay.pg + 1 + np.arange(n_dg), lay.qg + 1 + np.arange(n_dg)])
    h = sp.csr_matrix((block.data, (idx[block.row], idx[block.col])), shape=(n_vars, n_vars))
    return h, g, 0.0


def build(net: Network) -> QcqpProblem:
    """Assemble the OPF as a convex QCQP.

    Variables: W per bus, Pbr and Qbr per branch, Pg and Qg per generator
    (3n + 1 + 2g for n branches and g generators). Equality rows: the slack
    W, one active and one reactive balance per bus with its load and
    generation folded in, and one voltage drop per branch (3n + 3 rows).
    Every branch with a current rating gets a quadratic flow limit (see
    ``netmodel.strip_thermal_limits`` to drop them). Raises on negative
    generator costs (the convexity precondition) or a missing supply-point
    generator. The problem carries the certificate of the exact cost
    quadratic; when it is not PSD, ``h`` is its PSD projection.
    """
    for b in net.buses:
        if b.gen is not None and (b.gen.cost_p < 0 or b.gen.cost_q < 0):
            raise MdopfError(
                f"convexity condition unsatisfied: negative generator cost at bus {b.id}"
            )
    ti = netmodel.path_incidence(net)
    lay = var_blocks(net)
    n, n_vars = ti.n, lay.n_vars
    n_gen = len(lay.gens)

    h_exact, g, c = build_objective(net)
    eig = support_eigh(h_exact, vectors=True)
    cert = certify_convexity(h_exact, eig)
    h = h_exact if cert.psd else psd_projection(h_exact, eig)

    buses = netmodel.tree_buses(net)
    gens = [buses[w].gen for w in lay.gen_w]
    rows = mdistflow.FlowRows(n)
    k = np.arange(n)
    kg = np.arange(n_gen)
    w_child = k + 1

    # equality rows: the branch-flow rows with the loads folded in, and each
    # generator's Pg/Qg in its bus's p/q balance rows
    flows = mdistflow.flow_equations(
        ti, -np.array([bus.p_load for bus in buses]), -np.array([bus.q_load for bus in buses])
    )
    bal_rows = np.concatenate([rows.p_bal + lay.gen_w, rows.q_bal + lay.gen_w])
    gen_cols = sp.csr_matrix(
        (np.ones(2 * n_gen), (bal_rows, np.arange(2 * n_gen))), shape=(rows.count, 2 * n_gen)
    )
    a_eq = sp.hstack([flows, gen_cols], format="csr")
    b_eq = np.zeros(rows.count)
    b_eq[rows.w_slack] = 2.0 - net.v0

    # inequality rows: per generator pg_cap, pg_floor, qg_cap, qg_floor;
    # then per non-slack bus v_floor, v_cap
    box = np.array([[gen.p_max, gen.p_min, gen.q_max, gen.q_min] for gen in gens])
    gen_rows = 4 * kg[:, None] + np.arange(4)
    sign = np.array([1.0, -1.0, 1.0, -1.0])
    out_col = np.stack([lay.pg + kg, lay.pg + kg, lay.qg + kg, lay.qg + kg], axis=1)
    v_rows = 4 * n_gen + 2 * k
    in_r = np.concatenate([gen_rows.ravel(), gen_rows.ravel(), v_rows, v_rows + 1])
    in_c = np.concatenate([out_col.ravel(), np.repeat(lay.gen_w, 4), w_child, w_child])
    in_v = np.concatenate([
        np.tile(sign, n_gen), (-sign * box).ravel(), np.ones(n), -np.ones(n),
    ])
    a_in = sp.csr_matrix((in_v, (in_r, in_c)), shape=(4 * n_gen + 2 * n, n_vars))
    v_lim = np.array([[2.0 - bus.v_min, bus.v_max - 2.0] for bus in buses[1:]])
    b_in = np.concatenate([np.zeros(4 * n_gen), v_lim.reshape(2 * n)])

    rated = np.flatnonzero(~np.isnan(ti.i_max))
    n_quad = rated.size
    quad_diag = sp.csr_matrix(
        (np.ones(2 * n_quad),
         (np.tile(np.arange(n_quad), 2),
          np.concatenate([lay.pbr + rated, lay.qbr + rated]))),
        shape=(n_quad, n_vars),
    )

    return QcqpProblem(
        n_vars=n_vars,
        h=h, g=g, c=c,
        a_eq=a_eq, b_eq=b_eq,
        a_in=a_in, b_in=b_in,
        quad_diag=quad_diag, quad_b=ti.i_max[rated] ** 2,
        certificate=cert,
        kkt_order=kkt_order(ti, lay),
    )


def kkt_order(ti: PathIncidence, lay: VarBlocks) -> np.ndarray:
    """Feeder-tree elimination order of the KKT rows of ``build``'s problem
    (variables first, then equality rows, as ``qcqpsolver.solve`` lays them out).

    Each non-slack bus is one group: its W, Pbr and Qbr, its p and q balance
    rows and the voltage drop of the branch into it. Groups come leaves
    first (reverse ``ti.order``), so every child is eliminated before its
    parent and fill stays within the parent's group. The Pg/Qg of each
    feeder's generators come just before the group of the feeder's top bus,
    and the slack group (W0, ``w_slack`` and its balance rows) then the
    slack generator come last.
    """
    n, n_gen, nv = ti.n, len(lay.gens), lay.n_vars
    # the equality rows follow the variables
    rows = mdistflow.FlowRows(n)
    p_bal, q_bal, drop = nv + rows.p_bal, nv + rows.q_bal, nv + rows.drop
    parent = np.asarray(ti.parent_pos, dtype=int)
    k = np.arange(n)
    # a preorder keeps each feeder contiguous: its top bus is the last
    # position at or before k whose parent is the slack
    top = np.maximum.accumulate(np.where(parent < 0, k, -1))
    group = 2 * (n - 1 - k) + 1  # odd slots, leaves first
    slot = np.empty(nv + rows.count, dtype=int)
    for first in (1, lay.pbr, lay.qbr, p_bal + 1, q_bal + 1, drop):
        slot[first + k] = group
    dg_slot = group[top[lay.gen_w[1:] - 1]] - 1  # the even slot before the top bus
    slot[lay.pg + 1:lay.pg + n_gen] = dg_slot
    slot[lay.qg + 1:lay.qg + n_gen] = dg_slot
    slot[[0, nv + rows.w_slack, p_bal, q_bal]] = 2 * n
    slot[[lay.pg, lay.qg]] = 2 * n + 1
    return np.argsort(slot, kind="stable")


def recover_dispatch(
    net: Network, sol: OpfSolution
) -> tuple[OpfSolution, mdistflow.MdfState]:
    """Physical dispatch and full network state from the solver variables.

    Generator outputs are the modified outputs divided by the bus W; the
    state is assembled (and consistency-checked) from the modified injections
    (modified generation minus load times W) and the W profile.
    """
    lay = var_blocks(net)
    x = sol.x
    n_gen = len(lay.gens)
    w = x[:lay.n + 1]
    w_gen = w[lay.gen_w]
    bad = np.flatnonzero(w_gen <= 0.0)
    if bad.size:
        raise MdopfError(
            f"nonphysical solution: W = {w_gen[bad[0]]:.4f} <= 0 at bus "
            f"{lay.gens[bad[0]]} (voltage at or above 2 pu)"
        )
    p_gen = x[lay.pg:lay.pg + n_gen]
    q_gen = x[lay.qg:lay.qg + n_gen]
    pg = dict(zip(lay.gens, (p_gen / w_gen).tolist()))
    qg = dict(zip(lay.gens, (q_gen / w_gen).tolist()))
    w_r = w[1:]
    buses = netmodel.tree_buses(net)[1:]
    p_hat = -np.array([bus.p_load for bus in buses]) * w_r
    q_hat = -np.array([bus.q_load for bus in buses]) * w_r
    on_tree = lay.gen_w > 0
    p_hat[lay.gen_w[on_tree] - 1] += p_gen[on_tree]
    q_hat[lay.gen_w[on_tree] - 1] += q_gen[on_tree]
    state = mdistflow.state_from_solution(net, p_hat, q_hat, w_r)
    return replace(sol, pg=pg, qg=qg), state


def solve_opf(net: Network) -> tuple[QcqpProblem, OpfSolution, mdistflow.MdfState]:
    """Build, solve and recover the OPF of ``net``: returns the problem (its
    ``certificate`` is the convexity verdict), the solution with physical
    dispatch, and the network state. Raises ``SolverError`` unless the
    interior-point solve ends optimal."""
    prob = build(net)
    sol = qcqpsolver.solve(prob)
    if sol.status != "optimal":
        raise qcqpsolver.SolverError(
            f"OPF solve ended with status {sol.status} "
            f"(gap {sol.stats.final_gap:.2e}, feas {sol.stats.final_feas:.2e})"
        )
    sol, state = recover_dispatch(net, sol)
    return prob, sol, state
