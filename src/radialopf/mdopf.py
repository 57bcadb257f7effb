"""Convex quadratic OPF builder for radial feeders, in generator space.

The modified power-flow model is linear in its state (per-bus W = 2 - V and
the modified branch flows) once the loads are folded in, and its rows
without the slack's two balance rows are square in that state. So the
state is affine in the modified generator outputs x: s = s0 + S x, with s0
the load-only state and S one solve of the generators' balance-row entries
(``mdistflow.load_factors``, one factor of the whole network; S is dense
within a feeder and zero outside it). The problem's variables are the
generator outputs alone, plus the flows of the branches with a current
rating. The voltage and generator-box rows are the full-space rows with
s0 + S x put in for the state; the slack's two balance rows are the only
equality rows besides the ties of the rated flows. The objective is the
generation cost with the voltage weights eliminated through the
closed-form affine voltage map, which leaves a quadratic form over the
generator variables.

The raw cost quadratic is certified for positive semidefiniteness; when the
certificate fails (which happens for generic P/Q cost ratios, see
``certify_convexity``), the builder replaces it with its nearest PSD matrix
in Frobenius norm and records the verdict in ``prob.certificate``; the CLI
prints it as ``note:`` lines. The projection is tiny relative to the linear
cost terms and is validated against dispatch benchmarks in the test suite.

``solve_opf`` is the whole pipeline: build, interior-point solve and
recovery of the dispatch and state; ``balance_prices`` returns every bus's
balance-row shadow prices from the solution. Each function reads the path
incidence of its network from ``netmodel.path_incidence``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import mdistflow, netmodel, qcqpsolver
from .netmodel import Network
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


@dataclass(frozen=True)
class VarBlocks:
    """Index blocks of the problem variables, the one statement of their
    layout.

    Pg and Qg are the modified generator outputs, following ``gens`` (the
    slack first); Pbr and Qbr are the modified flows of the rated branches,
    following ``rated`` (branch rows of the path incidence). ``gen_w`` is
    the bus position of each generator (slack 0, then the path incidence's
    ``order``), which is also its W column in ``mdistflow.flow_equations``.
    """

    gens: tuple[int, ...]
    gen_w: np.ndarray
    rated: np.ndarray
    pg: int
    qg: int
    pbr: int
    qbr: int
    n_vars: int


@netmodel.per_network
def var_blocks(net: Network) -> VarBlocks:
    """Variable index blocks of the OPF of ``net``, memoized on the instance."""
    cols = netmodel.columns(net)
    gen_w = np.flatnonzero(cols.gen)
    gens = tuple(cols.bus_id[gen_w].tolist())
    rated = np.flatnonzero(~np.isnan(cols.i_max))
    for arr in (gen_w, rated):
        arr.setflags(write=False)
    g, r = len(gens), rated.size
    return VarBlocks(gens, gen_w, rated, 0, g, 2 * g, 2 * g + r, 2 * g + 2 * r)


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
    nonzero support, one stacked product per block size of
    ``qcqpsolver.support_eigh(h, vectors=True)``. ``eig`` is that
    decomposition when the caller already has it."""
    hc = sp.csr_matrix(h)
    blocks = support_eigh(hc, vectors=True) if eig is None else eig
    if not blocks:
        return hc
    parts = [(idx, np.matmul(vecs * np.maximum(vals, 0.0)[:, None, :], vecs.transpose(0, 2, 1)))
             for idx, vals, vecs in blocks]
    cut = 1e-14 * max(1.0, max(float(abs(c).max()) for _, c in parts))
    rows, cols, data = [], [], []
    for idx, clipped in parts:
        b, ri, ci = np.nonzero(np.abs(clipped) >= cut)
        rows.append(idx[b, ri])
        cols.append(idx[b, ci])
        data.append(clipped[b, ri, ci])
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
    cols = netmodel.columns(net)
    g[lay.pg] = net.v0 * cols.cost_p[0] * base
    g[lay.qg] = net.v0 * cols.cost_q[0] * base

    dg = lay.gens[1:]
    if not dg:
        return sp.csr_matrix((n_vars, n_vars)), g, 0.0
    try:
        load_w = mdistflow.load_factors(net).state
    except mdistflow.MdfError as exc:
        raise MdopfError(f"load-only voltage profile unavailable: {exc}") from exc
    vd = 2.0 - load_w[lay.gen_w[1:]]
    cp = cols.cost_p[lay.gen_w[1:]]
    cq = cols.cost_q[lay.gen_w[1:]]
    n_dg = len(dg)
    g[lay.pg + 1:lay.pg + 1 + n_dg] = vd * cp * base
    g[lay.qg + 1:lay.qg + 1 + n_dg] = vd * cq * base
    # the path matrix T at the generator columns: the branch rows on each
    # generator bus's path to the slack
    ti = netmodel.path_incidence(net)
    parent = np.asarray(ti.parent_pos, dtype=int)
    rows, cols = [], []
    k, j = lay.gen_w[1:] - 1, np.arange(n_dg)
    while k.size:  # one level up per pass, every generator at once
        rows.append(k)
        cols.append(j)
        up = parent[k]
        k, j = up[up >= 0], j[up >= 0]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    t_g = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(ti.n, n_dg))
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


def _generation(lay: VarBlocks, rows: mdistflow.FlowRows) -> sp.csr_matrix:
    """Each generator's Pg and Qg as unit entries in its bus's balance rows."""
    bal = np.concatenate([rows.p_bal + lay.gen_w, rows.q_bal + lay.gen_w])
    return sp.csr_matrix((np.ones(bal.size), (bal, lay.pg + np.arange(bal.size))),
                         shape=(rows.count, lay.n_vars))


def _full_space(net: Network, lay: VarBlocks) -> tuple:
    """``build``'s rows before the state is put in: the generators' entries
    in the flow rows (``FlowRows`` layout), then the equality rows' and the
    inequality rows' coefficients on the state (``flow_equations``'
    columns) and on the variables, and the inequality rows' right-hand
    sides; the equality rows' are 0."""
    ti = netmodel.path_incidence(net)
    n, n_vars, n_gen, n_rated = ti.n, lay.n_vars, len(lay.gens), lay.rated.size
    cols = netmodel.columns(net)
    rows = mdistflow.FlowRows(n)
    kg = np.arange(n_gen)
    gen_cols = _generation(lay, rows)

    # equality rows: each rated flow tied to the state's Pbr, then to its
    # Qbr, then the slack's active and reactive balance, which meet every
    # generator and so come last in the KKT factor's order. The balance rows
    # are those of ``flow_equations``: the slack's load on W0 where it is
    # nonzero, and -1 on the Pbr (Qbr) of each branch out of the slack.
    slack = [rows.p_bal, rows.q_bal]
    top = n + 1 + np.flatnonzero(ti.parent_pos < 0)
    balance = sp.csr_matrix(
        (np.concatenate([-cols.p_load[:1], -np.ones(top.size),
                         -cols.q_load[:1], -np.ones(top.size)]),
         (np.repeat([0, 1], 1 + top.size), np.concatenate([[0], top, [0], top + n]))),
        shape=(2, 3 * n + 1))
    balance.eliminate_zeros()
    tie = np.arange(2 * n_rated)
    flow_cols = np.concatenate([n + 1 + lay.rated, 2 * n + 1 + lay.rated])
    eq_state = sp.vstack([
        sp.csr_matrix((-np.ones(tie.size), (tie, flow_cols)), shape=(tie.size, 3 * n + 1)), balance,
    ], format="csr")
    eq_vars = sp.vstack([
        sp.csr_matrix((np.ones(tie.size), (tie, lay.pbr + tie)), shape=(tie.size, n_vars)),
        gen_cols[slack],
    ], format="csr")

    # inequality rows: per generator pg_cap, pg_floor, qg_cap, qg_floor;
    # then per non-slack bus v_floor, v_cap
    box = np.column_stack([cols.p_max[lay.gen_w], cols.p_min[lay.gen_w],
                           cols.q_max[lay.gen_w], cols.q_min[lay.gen_w]])
    gen_rows = (4 * kg[:, None] + np.arange(4)).ravel()
    sign = np.array([1.0, -1.0, 1.0, -1.0])
    out_col = np.stack([lay.pg + kg, lay.pg + kg, lay.qg + kg, lay.qg + kg], axis=1)
    v_rows = 4 * n_gen + 2 * np.arange(n)
    w_child = np.arange(1, n + 1)
    n_in = 4 * n_gen + 2 * n
    in_state = sp.csr_matrix(
        (np.concatenate([(-sign * box).ravel(), np.ones(n), -np.ones(n)]),
         (np.concatenate([gen_rows, v_rows, v_rows + 1]),
          np.concatenate([np.repeat(lay.gen_w, 4), w_child, w_child]))),
        shape=(n_in, 3 * n + 1))
    in_vars = sp.csr_matrix((np.tile(sign, n_gen), (gen_rows, out_col.ravel())),
                            shape=(n_in, n_vars))
    v_lim = np.column_stack([2.0 - cols.v_min[1:], cols.v_max[1:] - 2.0])
    b_in = np.concatenate([np.zeros(4 * n_gen), v_lim.reshape(2 * n)])
    return gen_cols, eq_state, eq_vars, in_state, in_vars, b_in


def build(net: Network) -> QcqpProblem:
    """Assemble the OPF as a convex QCQP in generator space.

    Variables: Pg and Qg per generator, then Pbr and Qbr per rated branch
    (``VarBlocks``). Every full-space row has the state s0 + S x put in for
    W, Pbr and Qbr. Equality rows: one tie per rated flow to its value in
    the state, then the slack's active and reactive balance. Inequality rows:
    per generator pg_cap, pg_floor, qg_cap and qg_floor (the output against
    its bus W times its limit), then per non-slack bus v_floor and v_cap;
    each is dense within the feeder of its bus. Every rated branch gets a
    diagonal quadratic flow limit on its two flow variables (see
    ``netmodel.strip_thermal_limits`` to drop them). Raises on negative
    generator costs (the convexity precondition) or a missing supply-point
    generator. The problem carries the certificate of the exact cost
    quadratic; when it is not PSD, ``h`` is its PSD projection.
    """
    cols = netmodel.columns(net)
    negative = np.flatnonzero(cols.gen & ((cols.cost_p < 0) | (cols.cost_q < 0)))
    if negative.size:
        raise MdopfError("convexity condition unsatisfied: negative generator cost "
                         f"at bus {cols.bus_id[negative[0]]}")
    lay = var_blocks(net)
    h_exact, g, c = build_objective(net)
    eig = support_eigh(h_exact, vectors=True)
    cert = certify_convexity(h_exact, eig)
    h = h_exact if cert.psd else psd_projection(h_exact, eig)

    fac = mdistflow.load_factors(net)
    gen, eq_state, eq_vars, in_state, in_vars, in_b = _full_space(net, lay)
    state_map = -fac.solve(gen)  # S: the state per unit of each variable
    rated = lay.rated
    return QcqpProblem(
        n_vars=lay.n_vars,
        h=h, g=g, c=c,
        a_eq=(eq_vars + eq_state @ state_map).tocsr(), b_eq=-(eq_state @ fac.state),
        a_in=(in_vars + in_state @ state_map).tocsr(), b_in=in_b - in_state @ fac.state,
        quad_diag=sp.csr_matrix(
            (np.ones(2 * rated.size),
             (np.tile(np.arange(rated.size), 2), lay.pbr + np.arange(2 * rated.size))),
            shape=(rated.size, lay.n_vars)),
        quad_b=netmodel.path_incidence(net).i_max[rated] ** 2,
        certificate=cert,
    )


def recover_dispatch(
    net: Network, sol: OpfSolution
) -> tuple[OpfSolution, mdistflow.MdfState]:
    """Physical dispatch and full network state from the solver variables.

    W is s0 + S x, S x one solve of the generators' balance-row entries.
    Generator outputs are the modified outputs divided by the bus W; the
    state is assembled (and consistency-checked) from the modified
    injections (modified generation minus load times W) and W.
    """
    lay = var_blocks(net)
    fac = mdistflow.load_factors(net)
    x = sol.x
    n_gen = len(lay.gens)
    p_gen = x[lay.pg:lay.pg + n_gen]
    q_gen = x[lay.qg:lay.qg + n_gen]
    n = netmodel.path_incidence(net).n
    gen = _generation(lay, mdistflow.FlowRows(n)) @ sp.csr_matrix(x[:, None])
    w = fac.state[:n + 1] - fac.solve(gen).toarray()[:n + 1, 0]
    w_gen = w[lay.gen_w]
    bad = np.flatnonzero(w_gen <= 0.0)
    if bad.size:
        raise MdopfError(
            f"nonphysical solution: W = {w_gen[bad[0]]:.4f} <= 0 at bus "
            f"{lay.gens[bad[0]]} (voltage at or above 2 pu)"
        )
    pg = dict(zip(lay.gens, (p_gen / w_gen).tolist()))
    qg = dict(zip(lay.gens, (q_gen / w_gen).tolist()))
    w_r = w[1:]
    cols = netmodel.columns(net)
    p_hat = -cols.p_load[1:] * w_r
    q_hat = -cols.q_load[1:] * w_r
    on_tree = lay.gen_w > 0
    p_hat[lay.gen_w[on_tree] - 1] += p_gen[on_tree]
    q_hat[lay.gen_w[on_tree] - 1] += q_gen[on_tree]
    state = mdistflow.state_from_solution(net, p_hat, q_hat, w_r)
    return replace(sol, pg=pg, qg=qg), state


def balance_prices(
    net: Network, prob: QcqpProblem, sol: OpfSolution
) -> tuple[np.ndarray, np.ndarray]:
    """Shadow prices -y of every bus's active and reactive balance row of the
    full-space OPF (the objective increase per unit of extra modified
    withdrawal), slack first, then in tree order. The slack's rows are rows
    of ``prob`` (``qcqpsolver.extract_duals``); the state is stationary,
    A' y_d + E' y + F' z = 0 (A the factored flow rows, E and F the state
    parts of ``prob``'s rows), so the others are one transposed solve with
    ``mdistflow.load_factors``. Raises ``SolverError`` unless ``sol`` is
    optimal.
    """
    lam = qcqpsolver.extract_duals(prob, sol, np.arange(prob.n_eq))
    _, eq_state, _, in_state, _, _ = _full_space(net, var_blocks(net))
    prices = mdistflow.load_factors(net).solve_transposed(
        in_state.T @ sol.duals_in - eq_state.T @ lam)
    rows = mdistflow.FlowRows(netmodel.path_incidence(net).n)
    prices[[rows.p_bal, rows.q_bal]] = lam[-2:]
    return prices[rows.p_bal:rows.q_bal], prices[rows.q_bal:rows.drop]


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
