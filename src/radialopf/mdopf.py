"""Convex quadratic OPF builder for radial feeders, in generator space.

The modified power-flow model is linear in its state (per-bus W = 2 - V and
the modified branch flows) once the loads are folded in, and its rows
without the slack's two balance rows are square in that state. So the state
is affine in the modified generator outputs x: s = s0 + S x, with s0 the
load-only state and S one solve of the generators' balance-row entries
(``mdistflow.load_factors``, one factor of the whole network), held as that
solve's packed block (``FeederFactors.solve_units``) and never as a matrix.
The problem's variables are the generator outputs alone. The voltage and
generator-box rows are the full-space rows with s0 + S x put in for the
state, and the slack's two balance rows are the only equality rows. A
kept thermal row is a sum of squares in the outputs,
||c_l + M_l x||^2 <= i_max^2, with M_l the rows of S at the branch's Pbr
and Qbr and c_l the load-only flows there. The objective is the generation
cost with the voltage weights eliminated through the closed-form affine
voltage map, which leaves a quadratic form over the generator variables:
their buses' common-path resistance and reactance, two triangular solves
with the path incidence's factor per generator slot (``build_objective``).

Presolve screens the rows over the box of generator outputs that the
generator-box rows and the voltage rows at generator buses allow (as LP
and QP presolve does, Andersen & Andersen, Math. Programming 1995, and as
OPF constraint screening does, Roald & Molzahn, Allerton 2019). A voltage
row that no output in the box can violate is never built, and neither is
the thermal row of a rated branch whose flows stay inside its rating; on
case69 x100 that leaves 2,404 of the 15,204 inequality rows. A row that no
output in the box can meet ends the build with ``MdopfError`` naming the
row, before the interior point starts.

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
from .qcqpsolver import EigBlock, OpfSolution, QcqpProblem, is_symmetric, psd_test, support_eigh


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
    slack first), and they are all the variables. ``gen_w`` is the bus
    position of each generator (slack 0, then the path incidence's
    ``order``), which ``mdistflow.FlowRows`` offsets into rows and columns.
    ``rated`` lists the branches whose thermal rows presolve keeps, in the
    order of the quadratic rows (branch rows of the path incidence,
    ascending).
    """

    gens: tuple[int, ...]
    gen_w: np.ndarray
    rated: np.ndarray
    pg: int
    qg: int
    n_vars: int


@dataclass(frozen=True)
class _Rows:
    """The rows of the OPF of a network that presolve keeps (see ``_rows``).

    ``prob`` holds them in generator space, with a zero objective that
    ``build`` replaces. ``in_state`` is the inequality rows' coefficients on
    the state (``flow_equations``' columns) and ``flows`` the state columns
    that the quadratic rows square: with the load factor's ``slack_rows``,
    all the rows of S that ``prob`` reads, and all that ``balance_prices`` does.
    """

    lay: VarBlocks
    in_state: sp.csr_matrix
    flows: np.ndarray
    prob: QcqpProblem


#: presolve's round-off margin, in pu of W and relative to a squared rating:
#: a row is dropped only when it holds with this much to spare at every
#: point of the generator box, and proven infeasible only when it fails by
#: this much at every point
_MARGIN = 1e-6


def var_blocks(net: Network) -> VarBlocks:
    """Variable index blocks of the OPF of ``net``, memoized on the instance
    with its rows (``_rows``)."""
    return _rows(net).lay


def _box(cols: netmodel.Columns, gen_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smallest and largest modified output (Pg per generator, then Qg)
    that the box rows and the voltage rows of its bus allow: its limits times
    its bus W, with W in [2 - v_max, 2 - v_min]. The slack's entries are
    never read: its balance rows are not factored, so its columns of S are
    empty."""
    w_ends = (2.0 - cols.v_max[gen_w], 2.0 - cols.v_min[gen_w])
    lo, hi = [], []
    for floor, cap in ((cols.p_min, cols.p_max), (cols.q_min, cols.q_max)):
        lo.append(np.minimum(*(floor[gen_w] * w for w in w_ends)))
        hi.append(np.maximum(*(cap[gen_w] * w for w in w_ends)))
    return np.concatenate(lo), np.concatenate(hi)


def _screen(net: Network, s_lo: np.ndarray, s_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows that presolve keeps, from each state entry's smallest and
    largest value over the generator box: whether each non-slack bus's
    v_floor and v_cap rows are kept (in row order), and the rated branch
    rows whose thermal rows are kept. Raises ``MdopfError`` when a row fails
    by ``_MARGIN`` at every point of the box."""
    cols, ti = netmodel.columns(net), netmodel.path_incidence(net)
    flow = mdistflow.load_factors(net).layout
    # v_floor W <= 2 - v_min and v_cap W >= 2 - v_max per bus
    w_lo, w_hi = s_lo[flow.w + 1:flow.pbr], s_hi[flow.w + 1:flow.pbr]
    floor, cap = 2.0 - cols.v_min[1:], 2.0 - cols.v_max[1:]
    v_over = np.column_stack([w_lo - floor, cap - w_hi])  # the least excess
    v_keep = cols.gen[1:, None] | (np.column_stack([w_hi - floor, cap - w_lo]) > -_MARGIN)
    # Pbr^2 + Qbr^2 <= i_max^2 per rated branch
    rated = np.flatnonzero(~np.isnan(cols.i_max))
    i2 = ti.i_max[rated] ** 2
    p_lo, p_hi = s_lo[flow.pbr + rated], s_hi[flow.pbr + rated]
    q_lo, q_hi = s_lo[flow.qbr + rated], s_hi[flow.qbr + rated]
    most = np.maximum(p_lo ** 2, p_hi ** 2) + np.maximum(q_lo ** 2, q_hi ** 2)
    least = (np.maximum(np.maximum(p_lo, -p_hi), 0.0) ** 2
             + np.maximum(np.maximum(q_lo, -q_hi), 0.0) ** 2)
    v_fail, t_fail = v_over > _MARGIN, least > (1.0 + _MARGIN) * i2
    if v_fail.any() or t_fail.any():
        raise _infeasible(net, np.where(v_fail, v_over, np.nan),
                          np.where(t_fail, np.sqrt(least) - ti.i_max[rated], np.nan), rated)
    return v_keep.ravel(), rated[most >= (1.0 - _MARGIN) * i2]


def _infeasible(net: Network, v_over: np.ndarray, t_over: np.ndarray,
                rated: np.ndarray) -> MdopfError:
    """The error for rows that no generator output within the box meets, named
    on this failure path only: the voltage row that misses its bound by the
    most, else the thermal row whose least flow exceeds its rating the most.
    ``v_over`` is each v_floor's and v_cap's least excess over its bound in W
    (n x 2), ``t_over`` each ``rated`` branch's least flow over its rating;
    both are NaN where the row is met somewhere in the box."""
    cols, ti = netmodel.columns(net), netmodel.path_incidence(net)
    count = int(np.count_nonzero(~np.isnan(v_over)) + np.count_nonzero(~np.isnan(t_over)))
    if not np.all(np.isnan(v_over)):
        k, side = np.unravel_index(np.nanargmax(v_over), v_over.shape)
        v = (cols.v_min, cols.v_max)[side][k + 1]
        v_best = v - v_over[k, side] if side == 0 else v + v_over[k, side]
        row = (f"{('v_floor', 'v_cap')[side]} at bus {cols.bus_id[k + 1]} "
               f"(V at {('most', 'least')[side]} {v_best:.4f} pu, "
               f"{('v_min', 'v_max')[side]} {v:.4f} pu")
    else:
        j = int(np.nanargmax(t_over))
        k = rated[j]
        parent = cols.bus_id[ti.parent_pos[k] + 1]
        row = (f"thermal at branch {parent}-{cols.bus_id[k + 1]} (flow at least "
               f"{ti.i_max[k] + t_over[j]:.4g} pu, rating {ti.i_max[k]:.4g} pu")
    return MdopfError(f"OPF solve ended with status infeasible before iterating: no generator "
                      f"output within its limits meets {row}; {count} rows proven infeasible)")


@netmodel.per_network
def _rows(net: Network) -> _Rows:
    """Presolve and assemble the OPF's rows, memoized on the instance.

    The state is s0 + S x. Every full-space row is screened over the box of
    the generator outputs x (``_box``), which the kept generator-box rows
    and the voltage rows at generator buses enforce, so every point that
    meets the kept rows lies in it. Each state entry's range over the box
    is s0 + S mid +- |S| rad, for the box's midpoint and radius, summed
    slot by slot over the packed S. A voltage row away from a generator bus
    that holds with ``_MARGIN`` to spare over the whole box is dropped; so
    is the thermal row of a rated branch whose largest |Pbr| and |Qbr| stay
    inside its rating (``_screen``). A row that fails by ``_MARGIN`` over
    the whole box raises ``MdopfError`` (so does a supply point without a
    generator). The dropped rows' multipliers are 0 at the optimum, so the
    kept rows give the same optimum and balance-row prices. Kept rows keep
    their order. The quadratic rows are S's and s0's rows at the kept
    branches' Pbr columns, then at their Qbr columns (``_Rows.flows``), so
    each squares into Pbr^2 + Qbr^2.
    """
    cols = netmodel.columns(net)
    if not cols.gen[0]:
        raise MdopfError("supply point has no generator")
    ti = netmodel.path_incidence(net)
    n = ti.n
    fac = mdistflow.load_factors(net)
    flow = fac.layout
    gen_w = np.flatnonzero(cols.gen)
    n_gen = gen_w.size
    # S packed: the state per unit of each output is -X in the output's slot
    x_slot, slot_col = fac.solve_units(flow.balance(gen_w))
    lo, hi = _box(cols, gen_w)
    # s0 + S mid +- |S| rad: S's products summed at each position slot by
    # slot, in column order (an unused slot adds 0), W0's sums last and 0
    mid_x, rad_x = np.append(0.5 * (lo + hi), 0.0), np.append(0.5 * (hi - lo), 0.0)
    sums = np.zeros((2, flow.n_cols))  # per position
    for k in range(slot_col.shape[1]):
        col = slot_col[fac.feeder, k]
        sums[0, :-1] -= x_slot[:, k] * mid_x[col]
        sums[1, :-1] += np.abs(x_slot[:, k]) * rad_x[col]
    mid, rad = fac.state + sums[0, fac.place], sums[1, fac.place]
    v_keep, rated = _screen(net, mid - rad, mid + rad)
    for arr in (gen_w, rated):
        arr.setflags(write=False)
    lay = VarBlocks(tuple(cols.bus_id[gen_w].tolist()), gen_w, rated, 0, n_gen, 2 * n_gen)
    n_vars = lay.n_vars

    # equality rows: the slack's balance rows of ``flow_equations`` and its outputs
    slack = fac.slack_rows
    slack_out = sp.csr_matrix((np.ones(2), ([0, 1], [lay.pg, lay.qg])), shape=(2, n_vars))

    # inequality rows: per generator pg_cap, pg_floor, qg_cap, qg_floor;
    # then per non-slack bus v_floor, v_cap; the kept ones in that order
    kg = np.arange(n_gen)
    box = np.column_stack([cols.p_max[gen_w], cols.p_min[gen_w],
                           cols.q_max[gen_w], cols.q_min[gen_w]])
    gen_rows = (4 * kg[:, None] + np.arange(4)).ravel()
    sign = np.array([1.0, -1.0, 1.0, -1.0])
    out_col = np.stack([lay.pg + kg, lay.pg + kg, lay.qg + kg, lay.qg + kg], axis=1)
    v_rows = 4 * n_gen + 2 * np.arange(n)
    w_child = flow.w + 1 + np.arange(n)
    n_in = 4 * n_gen + 2 * n
    kept_in = np.concatenate([np.arange(4 * n_gen), 4 * n_gen + np.flatnonzero(v_keep)])
    in_state = sp.csr_matrix(
        (np.concatenate([(-sign * box).ravel(), np.ones(n), -np.ones(n)]),
         (np.concatenate([gen_rows, v_rows, v_rows + 1]),
          np.concatenate([flow.w + np.repeat(gen_w, 4), w_child, w_child]))),
        shape=(n_in, flow.n_cols))[kept_in]
    in_vars = sp.csr_matrix((np.tile(sign, n_gen), (gen_rows, out_col.ravel())),
                            shape=(n_in, n_vars))[kept_in]
    v_lim = np.column_stack([2.0 - cols.v_min[1:], cols.v_max[1:] - 2.0])
    b_in = np.concatenate([np.zeros(4 * n_gen), v_lim.reshape(2 * n)])[kept_in]

    # the kept rows in generator space: s0 + S x put in for the state, S's
    # rows built at only the state columns they read (W0's row is empty)
    flows = np.concatenate([flow.pbr + rated, flow.qbr + rated])
    need = np.setdiff1d(np.concatenate([slack.indices, in_state.indices, flows]), flow.w)
    col = slot_col[fac.feeder[fac.place[need]]]
    r, k = np.nonzero(col >= 0)  # each row's columns in slot order, which is column order
    s_need = sp.csr_matrix((-x_slot[fac.place[need[r]], k], col[r, k],
                            np.searchsorted(r, np.arange(need.size + 1))), shape=(need.size, n_vars))
    return _Rows(lay, in_state, flows, QcqpProblem(
        n_vars=n_vars, h=sp.csr_matrix((n_vars, n_vars)), g=np.zeros(n_vars), c=0.0,
        a_eq=(slack_out + slack[:, need] @ s_need).tocsr(), b_eq=-(slack @ fac.state),
        a_in=(in_vars + in_state[:, need] @ s_need).tocsr(), b_in=b_in - in_state @ fac.state,
        quad_m=s_need[np.searchsorted(need, flows)], quad_c=fac.state[flows],
        quad_b=ti.i_max[rated] ** 2,
    ))


def certify_convexity(
    h: sp.spmatrix | np.ndarray, eig: list[EigBlock] | None = None
) -> ConvexityCertificate:
    """Numerical PSD certificate for a symmetric quadratic-form matrix.

    The verdict is ``qcqpsolver.psd_test``, whose rule the solver applies to
    its KKT blocks; the certificate reports the minimum eigenvalue and the
    trace-positivity signal alongside it. ``eig`` is the ``support_eigh``
    decomposition of ``h`` when the caller already has it.
    """
    hc = sp.csr_matrix(h)
    trace = float(hc.diagonal().sum())
    if not is_symmetric(hc):
        raise MdopfError("convexity certificate requires a symmetric matrix")
    psd, min_eig = psd_test(hc, support_eigh(hc) if eig is None else eig)
    return ConvexityCertificate(psd, min_eig, trace, trace > 0.0)


def psd_projection(
    h: sp.spmatrix, eig: list[EigBlock] | None = None
) -> sp.csr_matrix:
    """Frobenius-nearest PSD matrix: eigenvalues clipped at zero on the
    nonzero support, one stacked product per block size of
    ``qcqpsolver.support_eigh(h)``. ``eig`` is that
    decomposition when the caller already has it."""
    hc = sp.csr_matrix(h)
    blocks = support_eigh(hc) if eig is None else eig
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
    symmetrized quadratic left by the affine voltage response to generation,
    the common-path resistance and reactance between generator buses (the
    paper's T_g' diag(r) T_g and T_g' diag(x) T_g), block diagonal by feeder
    since feeders meet only at the slack. Slot s puts a unit e_s at the s-th
    generator bus of every feeder; one solve T e_s and one transposed solve
    of [r o T e_s, x o T e_s] with ``PathIncidence.t`` give its sums at the
    feeder's generator buses. O(n) memory per slot; T is never formed.
    """
    lay = var_blocks(net)
    n_vars = lay.n_vars
    base = net.base_power
    g = np.zeros(n_vars)
    cols = netmodel.columns(net)
    g[lay.pg] = net.v0 * cols.cost_p[0] * base
    g[lay.qg] = net.v0 * cols.cost_q[0] * base

    n_dg = len(lay.gens) - 1
    if not n_dg:
        return sp.csr_matrix((n_vars, n_vars)), g, 0.0
    w, fac = lay.gen_w[1:], mdistflow.load_factors(net)
    vd, cp, cq = 2.0 - fac.state[fac.layout.w + w], cols.cost_p[w], cols.cost_q[w]
    g[lay.pg + 1:lay.pg + 1 + n_dg] = vd * cp * base
    g[lay.qg + 1:lay.qg + 1 + n_dg] = vd * cq * base
    ti = netmodel.path_incidence(net)
    row = w - 1
    feeder = np.cumsum(ti.parent_pos < 0)[row]  # preorder keeps feeders contiguous
    first, end = np.searchsorted(feeder, feeder), np.searchsorted(feeder, feeder, "right")
    pairs = []
    for s in range((end - first).max()):
        u = np.zeros(ti.n)
        u[row[np.arange(n_dg) - first == s]] = 1.0
        on_path = ti.t.solve(u)
        common = ti.t.solve(np.column_stack([ti.r * on_path, ti.x * on_path]), trans="T")
        i = np.flatnonzero(end - first > s)  # the generators of feeders with an s-th one
        pairs.append((i, first[i] + s, common[row[i]]))
    i, j, ab = (np.concatenate(p) for p in zip(*pairs))
    m = sp.csr_matrix((np.concatenate([ab[:, 0] * cp[j], ab[:, 0] * cq[j],
                                       ab[:, 1] * cp[j], ab[:, 1] * cq[j]]) * base,
                       (np.concatenate([i, i, i + n_dg, i + n_dg]),
                        np.concatenate([j, j + n_dg, j, j + n_dg]))), shape=(2 * n_dg, 2 * n_dg))
    block = sp.coo_matrix(0.5 * (m + m.T))
    block.eliminate_zeros()
    idx = np.concatenate([lay.pg + 1 + np.arange(n_dg), lay.qg + 1 + np.arange(n_dg)])
    h = sp.csr_matrix((block.data, (idx[block.row], idx[block.col])), shape=(n_vars, n_vars))
    return h, g, 0.0


def build(net: Network) -> QcqpProblem:
    """Assemble the OPF as a convex QCQP in generator space, with the rows
    that presolve keeps (``_rows``).

    Variables: Pg and Qg per generator, and nothing else (``VarBlocks``).
    Every full-space row has the state s0 + S x put in for W, Pbr and Qbr.
    Equality rows: the slack's active and reactive balance, the only ones.
    Inequality rows: per generator pg_cap, pg_floor, qg_cap and qg_floor
    (the output against its bus W times its limit), then the kept v_floor
    and v_cap rows, per non-slack bus in tree order: those at generator
    buses and those that some output within the box violates. Each is dense
    within the feeder of its bus. Every kept rated branch gets a thermal row,
    the sum of the squares of its Pbr and Qbr in s0 + S x, in
    ``VarBlocks.rated`` order (see ``netmodel.strip_thermal_limits`` to drop
    them all). Raises on negative generator costs (the convexity
    precondition), a missing supply-point generator, or a row that no output
    within the box meets (``MdopfError``, whose message starts "OPF solve
    ended with status infeasible" and names the row). The problem carries
    the certificate of the exact cost quadratic; when it is not PSD, ``h``
    is its PSD projection.
    """
    cols = netmodel.columns(net)
    negative = np.flatnonzero(cols.gen & ((cols.cost_p < 0) | (cols.cost_q < 0)))
    if negative.size:
        raise MdopfError("convexity condition unsatisfied: negative generator cost "
                         f"at bus {cols.bus_id[negative[0]]}")
    rows = _rows(net).prob
    h_exact, g, c = build_objective(net)
    eig = support_eigh(h_exact)
    cert = certify_convexity(h_exact, eig)
    h = h_exact if cert.psd else psd_projection(h_exact, eig)
    return replace(rows, h=h, g=g, c=c, certificate=cert)


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
    flow = fac.layout
    gen = np.bincount(flow.balance(lay.gen_w), x, flow.count)
    w = fac.state[flow.w:flow.pbr] - fac.solve_state(gen)[flow.w:flow.pbr]
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
    A' y_d + E' y + F' z + G' mu = 0 (A the factored flow rows, E and F the
    state parts of ``prob``'s linear rows, G the thermal rows' state
    gradient, 2 (Pbr, Qbr) at the branch's flow columns), so the others are
    one transposed solve with ``mdistflow.load_factors``. E, F and G are the
    kept rows' (``_rows``): a dropped row holds strictly at every allowed
    point, so its multiplier is 0 at the optimum. ``prob`` is
    ``build(net)``. Raises ``SolverError`` unless ``sol`` is optimal.
    """
    lam = qcqpsolver.extract_duals(prob, sol, np.arange(prob.n_eq))
    rows, fac = _rows(net), mdistflow.load_factors(net)
    rhs = rows.in_state.T @ sol.duals_in - fac.slack_rows.T @ lam
    rhs[rows.flows] += 2.0 * np.tile(sol.duals_quad, 2) * (prob.quad_c + prob.quad_m @ sol.x)
    prices = fac.solve_transposed(rhs)
    flow = fac.layout
    prices[[flow.p_bal, flow.q_bal]] = lam[-2:]
    return prices[flow.p_bal:flow.q_bal], prices[flow.q_bal:flow.drop]


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
