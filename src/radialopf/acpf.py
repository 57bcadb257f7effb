"""Exact AC power flow in polar form.

Serves as the ground-truth oracle for the approximate feeder models: it
benchmarks voltages and losses, supplies the adjoint voltage sensitivities
used by the marginal-loss prices, keeps the dense Jacobian blocks and
sensitivity matrices as their O(n^2) reference, and implements the
finite-difference price oracle (slack-cost derivative under load
perturbation). Newton's steps and the adjoint solve factor one reduced
Jacobian (``_tree_jacobian``) on a pattern fixed per network, leaves
first, with no pivoting and no fill.

Array conventions: the package's one bus order (``netmodel.tree_positions``).
Full-bus vectors hold the slack at position 0, then the non-slack buses in
``netmodel.path_incidence(net).order``; non-slack vectors are the same order
without the slack. All quantities per unit on the network base.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .netmodel import (
    Network, columns, leaves_first_solve, net_injections, path_incidence, per_network,
    tree_positions,
)

#: Newton-Raphson convergence: the largest mismatch (pu), the iteration limit
NEWTON_TOL, NEWTON_MAX_ITER = 1e-10, 30
#: load perturbation (pu) of the finite-difference price oracle
ORACLE_EPS = 1e-5


class PowerFlowError(RuntimeError):
    """Raised when Newton-Raphson fails to converge or the Jacobian is singular."""


class OracleError(RuntimeError):
    """Raised when a finite-difference oracle evaluation cannot be completed."""


@dataclass(frozen=True)
class AcState:
    v: np.ndarray
    delta: np.ndarray
    slack_p: float
    slack_q: float
    pl_exact: float
    ql_exact: float
    iterations: int
    max_mismatch: float


@dataclass(frozen=True)
class JacobianBlocks:
    """Polar power-flow Jacobian over the non-slack buses."""

    dp_ddelta: np.ndarray
    dp_dv: np.ndarray
    dq_ddelta: np.ndarray
    dq_dv: np.ndarray
    bus_ids: tuple[int, ...]


@per_network
def _branch_ends(net: Network) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array positions of every branch's ends, and its series impedance, in
    record order (``_branch_losses``' sums move in any other): one array
    pass over ``net.records``, memoized on the instance."""
    rec, ids = net.records, columns(net).bus_id
    rank = np.argsort(ids)
    f, t = rank[np.searchsorted(ids, np.stack([rec.from_bus, rec.to_bus]), sorter=rank)]
    z = np.empty(rec.r.size, dtype=complex)
    z.real, z.imag = rec.r, rec.x
    for arr in (f, t, z):
        arr.setflags(write=False)
    return f, t, z


@per_network
def admittance(net: Network) -> sp.csr_matrix:
    """Bus admittance matrix (series branch elements only), memoized on the
    instance with read-only arrays."""
    f, t, z = _branch_ends(net)
    y = 1.0 / z
    rows = np.column_stack([f, t, f, t]).ravel()
    cols = np.column_stack([f, t, t, f]).ravel()
    vals = np.column_stack([y, y, -y, -y]).ravel()
    ybus = sp.csr_matrix((vals, (rows, cols)), shape=(net.n_bus, net.n_bus))
    for arr in (ybus.data, ybus.indices, ybus.indptr):
        arr.setflags(write=False)
    return ybus


@per_network
def _jacobian_pattern(net: Network) -> tuple[np.ndarray, ...]:
    """``kid`` (the buses whose parent is not the slack), and the CSC
    ``indices``/``indptr`` of ``_tree_jacobian`` with the ``slot`` of each
    stored entry, built once per network: 2 x 2 block k (rows P - Q, P + Q;
    columns θ, |V|; each bus's own, then each kid's to its parent and back)
    fills slots 4k..4k+3."""
    par = path_incidence(net).parent_pos
    kid, n = np.flatnonzero(par >= 0), par.size
    row = 2 * (n - 1 - np.concatenate([np.arange(n), kid, par[kid]], dtype=np.int32))
    col = 2 * (n - 1 - np.concatenate([np.arange(n), par[kid], kid], dtype=np.int32))
    rows = (row[:, None] + np.array([0, 0, 1, 1], dtype=np.int32)).ravel()
    cols = (col[:, None] + np.array([0, 1, 0, 1], dtype=np.int32)).ravel()
    slot = np.lexsort((rows, cols))  # leaves-first entries by column, then by row
    indptr = np.zeros(2 * n + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=2 * n), out=indptr[1:])
    pattern = kid, rows[slot], indptr, slot
    for arr in pattern:
        arr.setflags(write=False)
    return pattern


def _tree_jacobian(net: Network, vc: np.ndarray) -> sp.csc_matrix:
    """The reduced polar Jacobian at full-bus voltages ``vc``: MATPOWER's
    ``dSbus_dV`` from the path incidence's branch arrays, in
    ``_jacobian_pattern``, leaves first, so that a natural-order factor
    eliminates each child before its parent with no fill. Each bus's rows are
    P - Q and P + Q, the parts of (1 + j) S: near a flat profile its block is
    the real form of -j(1 + j) conj(Y_ii), within 45° of the real axis, so its
    first pivot is at least 1/√2 of it whatever r/x (on rows P, Q it is 0 at x = 0)."""
    ti = path_incidence(net)
    kid, indices, indptr, slot = _jacobian_pattern(net)
    par, y, v = ti.parent_pos[kid], 1.0 / (ti.r + 1j * ti.x), vc[1:]
    # a zero voltage makes v/|v| undefined; the factor's checks report it
    with np.errstate(invalid="ignore", divide="ignore"):
        e = v / np.abs(v)
    a = y * (v - vc[ti.parent_pos + 1])  # each branch's current, child to parent
    ibus, ydiag = a.copy(), y.copy()
    np.subtract.at(ibus, par, a[kid])
    np.add.at(ydiag, par, y[kid])
    # each bus's own block from its current and self admittance, then each
    # branch's two blocks, whose Ybus entry is -y
    dva, dvm = [1j * v * np.conj(ibus - ydiag * v)], [v * np.conj(ydiag * e) + np.conj(ibus) * e]
    for i, k in ((kid, par), (par, kid)):
        dva.append(1j * v[i] * np.conj(y[kid] * v[k]))
        dvm.append(v[i] * np.conj(-y[kid] * e[k]))
    ds_dva, ds_dvm = (1 + 1j) * np.concatenate(dva), (1 + 1j) * np.concatenate(dvm)
    vals = np.stack([ds_dva.real, ds_dvm.real, ds_dva.imag, ds_dvm.imag], axis=1)
    return sp.csc_matrix((vals.ravel()[slot], indices, indptr), shape=(2 * v.size,) * 2)


def _leaves_first(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """Per-bus pairs in tree order, interleaved leaves first (the reduced
    Jacobian's rows and columns); ``_tree_order`` is the inverse."""
    pairs = np.stack([top, bottom], axis=1)[::-1]
    return pairs.reshape((-1,) + pairs.shape[2:])


def _tree_order(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pairs = x.reshape((-1, 2) + x.shape[1:])[::-1]
    return pairs[:, 0], pairs[:, 1]


def _injections(net: Network, p, q) -> tuple[np.ndarray, np.ndarray]:
    """``p``/``q`` as float arrays, ``net_injections(net)``'s where None."""
    dp, dq = net_injections(net) if p is None or q is None else (p, q)
    return tuple(np.asarray(d if x is None else x, dtype=float) for x, d in ((p, dp), (q, dq)))


def _branch_losses(net: Network, vc: np.ndarray) -> tuple[float, float]:
    f, t, z = _branch_ends(net)
    i = (vc[f] - vc[t]) / z
    i2 = (i * i.conjugate()).real
    return float(z.real @ i2), float(z.imag @ i2)


def newton_pf(
    net: Network,
    p: np.ndarray | None = None,
    q: np.ndarray | None = None,
    v_start: np.ndarray | None = None,
    delta_start: np.ndarray | None = None,
) -> AcState:
    """Solve the AC power flow with fixed PQ injections at every non-slack bus.

    ``p``/``q`` (non-slack) default to the negated loads.
    ``v_start``/``delta_start`` (full-bus) warm-start the iteration; the
    default is a flat start at the slack voltage.
    """
    n = net.n_bus
    p, q = _injections(net, p, q)
    if p.shape != (n - 1,) or q.shape != (n - 1,):
        raise ValueError("injection vectors must cover every non-slack bus")

    ybus = admittance(net)
    vm = np.full(n, net.v0) if v_start is None else np.array(v_start, dtype=float)
    va = np.zeros(n) if delta_start is None else np.array(delta_start, dtype=float)
    vm[0], va[0] = net.v0, 0.0
    s_spec = p + 1j * q

    def mismatch(vc):
        return (vc * np.conj(ybus.dot(vc)))[1:] - s_spec

    vc = vm * np.exp(1j * va)
    f = mismatch(vc)
    it = 0
    while (worst := np.max(np.abs(f.view(float)), initial=0.0)) >= NEWTON_TOL:  # P and Q
        if it >= NEWTON_MAX_ITER:
            raise PowerFlowError(
                f"power flow diverged: mismatch {worst:.3e} after {NEWTON_MAX_ITER} iterations"
            )
        turned = -(1 + 1j) * f  # on the Jacobian's rows P - Q, P + Q
        dx = leaves_first_solve(_tree_jacobian(net, vc), _leaves_first(turned.real, turned.imag),
                                PowerFlowError, "power-flow Jacobian")[1]
        d_va, d_vm = _tree_order(dx)
        va[1:] += d_va
        vm[1:] += d_vm
        vc = vm * np.exp(1j * va)
        f = mismatch(vc)
        it += 1

    s_slack = (vc * np.conj(ybus.dot(vc)))[0]
    pl, ql = _branch_losses(net, vc)
    return AcState(
        v=vm, delta=va,
        slack_p=float(s_slack.real), slack_q=float(s_slack.imag),
        pl_exact=pl, ql_exact=ql,
        iterations=it, max_mismatch=float(worst),
    )


def jacobian_at(net: Network, v: np.ndarray, delta: np.ndarray) -> JacobianBlocks:
    """Assemble the Jacobian blocks at an arbitrary operating point
    (not necessarily a converged one).

    Dense O(n^2) reference for ``voltage_adjoint``, from the same assembly
    (``_tree_jacobian``) in tree order; pricing does not use it.
    """
    vc = np.asarray(v, dtype=float) * np.exp(1j * np.asarray(delta, dtype=float))
    m = net.n_bus - 1
    jac = _tree_jacobian(net, vc).toarray().reshape(m, 2, m, 2)[::-1, :, ::-1]
    dp, dq = (jac[:, 0] + jac[:, 1]) / 2, (jac[:, 1] - jac[:, 0]) / 2  # rows P, Q
    return JacobianBlocks(
        dp_ddelta=dp[..., 0], dp_dv=dp[..., 1], dq_ddelta=dq[..., 0], dq_dv=dq[..., 1],
        bus_ids=path_incidence(net).order,
    )


def voltage_sensitivities(jb: JacobianBlocks) -> tuple[np.ndarray, np.ndarray]:
    """Sensitivities of non-slack voltage magnitudes to injections.

    Returns (dV/dP, dV/dQ), the lower blocks of the inverse reduced Jacobian;
    entry [i, j] is the response of V_i to a unit active (reactive) injection
    at bus j.

    Dense O(n^2)-memory, O(n^3)-time reference for ``voltage_adjoint``;
    pricing does not use it.
    """
    m = len(jb.bus_ids)
    try:
        jinv = np.linalg.inv(np.block([[jb.dp_ddelta, jb.dp_dv], [jb.dq_ddelta, jb.dq_dv]]))
    except np.linalg.LinAlgError as exc:
        raise PowerFlowError(f"singular reduced Jacobian: {exc}") from exc
    return jinv[m:, :m], jinv[m:, m:]


def voltage_adjoint(
    net: Network,
    v: np.ndarray,
    delta: np.ndarray,
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Transposed voltage sensitivities applied to ``u``: (dV/dP^T u, dV/dQ^T u).

    ``v``/``delta`` are full-bus vectors at any operating point; the rows of
    ``u`` (shape ``(m,)`` or ``(m, k)``) and of the results are the m
    non-slack buses. The reduced Jacobian J (``_tree_jacobian``) is factored
    once and J^T y = [0; u] solved (``netmodel.leaves_first_solve``, with no
    fill), so that y = [dV/dP^T u; dV/dQ^T u], the adjoint form of the lower
    blocks of J^-1.
    """
    m = net.n_bus - 1
    u = np.asarray(u, dtype=float)
    if u.shape[0] != m:
        raise ValueError("u must have one row per non-slack bus")
    vc = np.asarray(v, dtype=float) * np.exp(1j * np.asarray(delta, dtype=float))
    y = leaves_first_solve(_tree_jacobian(net, vc), _leaves_first(np.zeros_like(u), u),
                           PowerFlowError, "reduced Jacobian", trans="T")[1]
    y_diff, y_sum = _tree_order(y)  # multipliers of the rows P - Q and P + Q
    return y_diff + y_sum, y_sum - y_diff


def slack_costs(net: Network) -> tuple[float, float]:
    cols = columns(net)
    if not cols.gen[0]:
        raise OracleError("slack bus has no generator (supply-point costs unknown)")
    return cols.cost_p[0].item(), cols.cost_q[0].item()


def fd_price_oracle(
    net: Network,
    bus: int,
    axis: str = "p",
    p: np.ndarray | None = None,
    q: np.ndarray | None = None,
    v_start: np.ndarray | None = None,
    delta_start: np.ndarray | None = None,
) -> float:
    """Marginal cost of load at ``bus`` in $/MWh ($/MVarh), by central
    finite difference of the slack generation cost over two AC solves.

    ``p``/``q`` fix the base-point injections (defaults: negated loads); all
    non-slack generation is held at that base point, so the slack absorbs the
    perturbation, matching the no-congestion marginal-unit assumption.
    """
    if axis not in ("p", "q"):
        raise ValueError("axis must be 'p' or 'q'")
    if bus == net.slack:
        raise ValueError("price oracle is defined for non-slack buses")
    c0p, c0q = slack_costs(net)
    k = tree_positions(net)[bus] - 1
    p, q = _injections(net, p, q)
    costs = []
    for sign in (+1.0, -1.0):
        pp, qq = p.copy(), q.copy()
        # a load increment is an injection decrement
        (pp if axis == "p" else qq)[k] -= sign * ORACLE_EPS
        try:
            st = newton_pf(net, pp, qq, v_start=v_start, delta_start=delta_start)
        except PowerFlowError as exc:
            raise OracleError(f"oracle power flow failed at bus {bus}: {exc}") from exc
        costs.append(c0p * st.slack_p + c0q * st.slack_q)
    return (costs[0] - costs[1]) / (2.0 * ORACLE_EPS)
