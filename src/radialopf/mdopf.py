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

``solve_opf`` is the whole pipeline: path incidence, build, interior-point
solve and recovery of the dispatch and state.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import mdistflow, netmodel, qcqpsolver
from .netmodel import Network, PathIncidence
from .qcqpsolver import EigBlock, OpfSolution, QcqpProblem, min_eigenvalue, support_eigh


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


def gen_buses(net: Network, ti: PathIncidence) -> list[int]:
    """Generator buses, slack first, then in path order."""
    out = []
    if net.bus(net.slack).gen is not None:
        out.append(net.slack)
    out.extend(b for b in ti.order if net.bus(b).gen is not None)
    return out


@dataclass(frozen=True)
class VarBlocks:
    """Index blocks of the problem variables.

    W runs over all buses, slack first, then ``ti.order`` (so bus position
    ``k`` of ``ti.order`` is W index ``k + 1``); Pbr and Qbr follow the
    branch rows of ``ti``; Pg and Qg follow ``gens``. ``gen_w`` is the W
    index of each generator bus.
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


def var_blocks(net: Network, ti: PathIncidence) -> VarBlocks:
    """Variable index blocks of the OPF of ``net``."""
    gens = gen_buses(net, ti)
    w_index = {b: k + 1 for k, b in enumerate(ti.order)}
    w_index[net.slack] = 0
    return VarBlocks(ti.n, tuple(gens), np.array([w_index[b] for b in gens], dtype=int))


def _branch_names(net: Network, ti: PathIncidence) -> list[str]:
    """``parent-child`` name of every branch row of ``ti``."""
    return [
        f"{net.slack if pp < 0 else ti.order[pp]}-{b}"
        for pp, b in zip(ti.parent_pos, ti.order)
    ]


def _var_layout(
    net: Network, ti: PathIncidence, blocks: VarBlocks | None = None
) -> dict[str, int]:
    """Variable names in index order, as the problem's ``var_map``."""
    branches = _branch_names(net, ti)
    gens = (blocks or var_blocks(net, ti)).gens
    names = [f"W:{b}" for b in (net.slack, *ti.order)]
    names += [f"Pbr:{br}" for br in branches]
    names += [f"Qbr:{br}" for br in branches]
    names += [f"Pg:{b}" for b in gens]
    names += [f"Qg:{b}" for b in gens]
    return {name: i for i, name in enumerate(names)}


def certify_convexity(
    h: sp.spmatrix | np.ndarray, eig: list[EigBlock] | None = None
) -> ConvexityCertificate:
    """Numerical PSD certificate for a symmetric quadratic-form matrix.

    Checks the eigenvalues of the restriction to the nonzero support with
    tolerance -1e-10 * ||H||; reports the minimum eigenvalue and the
    trace-positivity signal alongside the verdict. ``eig`` is the
    ``qcqpsolver.support_eigh`` decomposition of ``h`` when the caller
    already has it.
    """
    hc = sp.csr_matrix(h)
    trace = float(hc.diagonal().sum())
    scale = max(1.0, float(abs(hc).max())) if hc.nnz else 1.0
    if hc.nnz and abs(hc - hc.T).max() > 1e-12 * scale:
        raise MdopfError("convexity certificate requires a symmetric matrix")
    min_eig = min_eigenvalue(support_eigh(hc) if eig is None else eig)
    return ConvexityCertificate(min_eig >= -1e-10 * scale, min_eig, trace, trace > 0.0)


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


def build_objective(
    net: Network, ti: PathIncidence, blocks: VarBlocks | None = None
) -> tuple[sp.csr_matrix, np.ndarray, float]:
    """Exact cost terms over the problem variables: returns (H, g, c) with the
    objective x'Hx + g'x + c in $ per hour.

    The linear part carries the slack cost (at the fixed slack voltage) and
    the generator costs weighted by the load-only voltage profile; H is the
    symmetrized quadratic left by the affine voltage response to generation.
    ``blocks`` is ``var_blocks(net, ti)`` when the caller already has it.
    """
    lay = blocks or var_blocks(net, ti)
    n_vars = lay.n_vars
    base = net.base_power
    g = np.zeros(n_vars)
    if not lay.gens or lay.gens[0] != net.slack:
        raise MdopfError("supply point has no generator")
    slack_gen = net.bus(net.slack).gen
    g[lay.pg] = net.v0 * slack_gen.cost_p * base
    g[lay.qg] = net.v0 * slack_gen.cost_q * base

    dg = lay.gens[1:]
    if not dg:
        return sp.csr_matrix((n_vars, n_vars)), g, 0.0
    try:
        load_state = mdistflow.solve_fixed_load(net, ti)
    except mdistflow.MdfError as exc:
        raise MdopfError(f"load-only voltage profile unavailable: {exc}") from exc
    vd = load_state.v[lay.gen_w[1:]]
    cp = np.array([net.bus(b).gen.cost_p for b in dg])
    cq = np.array([net.bus(b).gen.cost_q for b in dg])
    n_dg = len(dg)
    g[lay.pg + 1:lay.pg + 1 + n_dg] = vd * cp * base
    g[lay.qg + 1:lay.qg + 1 + n_dg] = vd * cq * base
    t_g = ti.t[:, lay.gen_w[1:] - 1]
    a_g = (t_g.T @ sp.diags(ti.r) @ t_g).toarray()
    b_g = (t_g.T @ sp.diags(ti.x) @ t_g).toarray()
    m = np.block([[a_g * cp, a_g * cq], [b_g * cp, b_g * cq]]) * base
    block = 0.5 * (m + m.T)
    idx = np.concatenate([lay.pg + 1 + np.arange(n_dg), lay.qg + 1 + np.arange(n_dg)])
    ri, ci = np.nonzero(block)
    h = sp.csr_matrix((block[ri, ci], (idx[ri], idx[ci])), shape=(n_vars, n_vars))
    return h, g, 0.0


def build(net: Network, ti: PathIncidence) -> QcqpProblem:
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
    lay = var_blocks(net, ti)
    n, n_vars = ti.n, lay.n_vars
    n_gen = len(lay.gens)

    h_exact, g, c = build_objective(net, ti, lay)
    eig = support_eigh(h_exact, vectors=True)
    cert = certify_convexity(h_exact, eig)
    h = h_exact if cert.psd else psd_projection(h_exact, eig)

    all_buses = (net.slack, *ti.order)
    buses = [net.bus(b) for b in all_buses]
    gens = [buses[w].gen for w in lay.gen_w]
    branches = _branch_names(net, ti)
    k = np.arange(n)
    kg = np.arange(n_gen)
    w_child = k + 1
    w_parent = np.asarray(ti.parent_pos, dtype=int) + 1

    # equality rows: w_slack | p_balance per bus | q_balance per bus | w_drop
    p_bal, q_bal, drop = 1, n + 2, 2 * n + 3
    load_p = np.array([bus.p_load for bus in buses])
    load_q = np.array([bus.q_load for bus in buses])
    lp, lq = np.flatnonzero(load_p), np.flatnonzero(load_q)
    eq_r = np.concatenate([
        [0],
        p_bal + w_child, p_bal + w_parent, p_bal + lay.gen_w, p_bal + lp,
        q_bal + w_child, q_bal + w_parent, q_bal + lay.gen_w, q_bal + lq,
        np.tile(drop + k, 4),
    ])
    eq_c = np.concatenate([
        [0],
        lay.pbr + k, lay.pbr + k, lay.pg + kg, lp,
        lay.qbr + k, lay.qbr + k, lay.qg + kg, lq,
        w_child, w_parent, lay.pbr + k, lay.qbr + k,
    ])
    eq_v = np.concatenate([
        [1.0],
        np.ones(n), -np.ones(n), np.ones(n_gen), -load_p[lp],
        np.ones(n), -np.ones(n), np.ones(n_gen), -load_q[lq],
        np.ones(n), -np.ones(n), -ti.r, -ti.x,
    ])
    a_eq = sp.csr_matrix((eq_v, (eq_r, eq_c)), shape=(3 * n + 3, n_vars))
    b_eq = np.zeros(3 * n + 3)
    b_eq[0] = 2.0 - net.v0
    eq_labels = (
        "w_slack",
        *(f"p_balance:{b}" for b in all_buses),
        *(f"q_balance:{b}" for b in all_buses),
        *(f"w_drop:{br}" for br in branches),
    )

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
    in_labels = tuple(
        f"{tag}:{b}" for b in lay.gens for tag in ("pg_cap", "pg_floor", "qg_cap", "qg_floor")
    ) + tuple(f"{tag}:{b}" for b in ti.order for tag in ("v_floor", "v_cap"))

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
        a_eq=a_eq, b_eq=b_eq, eq_labels=eq_labels,
        a_in=a_in, b_in=b_in, in_labels=in_labels,
        quad_diag=quad_diag, quad_b=ti.i_max[rated] ** 2,
        quad_labels=tuple(f"thermal:{branches[i]}" for i in rated),
        var_map=_var_layout(net, ti, lay),
        certificate=cert,
    )


def recover_dispatch(
    net: Network,
    ti: PathIncidence,
    prob: QcqpProblem,
    sol: OpfSolution,
) -> tuple[OpfSolution, mdistflow.MdfState]:
    """Physical dispatch and full network state from the solver variables.

    Generator outputs are the modified outputs divided by the bus W; the
    state is assembled (and consistency-checked) from the modified injections
    (modified generation minus load times W) and the W profile.
    """
    lay = var_blocks(net, ti)
    x = sol.x
    n_gen = len(lay.gens)
    w = x[:ti.n + 1]
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
    buses = [net.bus(b) for b in ti.order]
    p_hat = -np.array([bus.p_load for bus in buses]) * w_r
    q_hat = -np.array([bus.q_load for bus in buses]) * w_r
    on_tree = lay.gen_w > 0
    p_hat[lay.gen_w[on_tree] - 1] += p_gen[on_tree]
    q_hat[lay.gen_w[on_tree] - 1] += q_gen[on_tree]
    state = mdistflow.state_from_solution(net, ti, p_hat, q_hat, w_r)
    return replace(sol, pg=pg, qg=qg), state


def solve_opf(
    net: Network,
) -> tuple[PathIncidence, QcqpProblem, OpfSolution, mdistflow.MdfState]:
    """Build, solve and recover the OPF of ``net``: returns the path
    incidence, the problem (its ``certificate`` is the convexity verdict),
    the solution with physical dispatch, and the network state. Raises
    ``SolverError`` unless the interior-point solve ends optimal."""
    ti = netmodel.build_path_incidence(net)
    prob = build(net, ti)
    sol = qcqpsolver.solve(prob)
    if sol.status != "optimal":
        raise qcqpsolver.SolverError(
            f"OPF solve ended with status {sol.status} "
            f"(gap {sol.stats.final_gap:.2e}, feas {sol.stats.final_feas:.2e})"
        )
    sol, state = recover_dispatch(net, ti, prob, sol)
    return ti, prob, sol, state


def evaluate_cost(
    net: Network,
    ti: PathIncidence,
    p_hat_g: dict[int, float],
    q_hat_g: dict[int, float],
) -> tuple[float, float, float]:
    """Closed-form cost split (slack part, load-profile part, quadratic part)
    for given modified generator outputs, in $.

    Evaluates the generation cost with voltages taken from the affine
    response to the generator injections; used for internal-consistency
    checks of the objective assembly.
    """
    base = net.base_power
    slack_gen = net.bus(net.slack).gen
    c1 = net.v0 * base * (
        slack_gen.cost_p * p_hat_g.get(net.slack, 0.0)
        + slack_gen.cost_q * q_hat_g.get(net.slack, 0.0)
    )
    dg = [b for b in gen_buses(net, ti) if b != net.slack]
    if not dg:
        return c1, 0.0, 0.0
    load_state = mdistflow.solve_fixed_load(net, ti)
    order_pos = {b: i for i, b in enumerate(ti.order)}
    cols = [order_pos[b] for b in dg]
    t_g = ti.t[:, cols]
    pvec = np.array([p_hat_g.get(b, 0.0) for b in dg])
    qvec = np.array([q_hat_g.get(b, 0.0) for b in dg])
    cp = np.array([net.bus(b).gen.cost_p for b in dg])
    cq = np.array([net.bus(b).gen.cost_q for b in dg])
    vd = load_state.v[1:][cols]
    c2 = base * float(vd @ (cp * pvec) + vd @ (cq * qvec))
    dv = ti.t.T @ (ti.r * (t_g @ pvec)) + ti.t.T @ (ti.x * (t_g @ qvec))
    dv_g = np.array([dv[order_pos[b]] for b in dg])
    c3 = base * float(dv_g @ (cp * pvec) + dv_g @ (cq * qvec))
    return c1, c2, c3
