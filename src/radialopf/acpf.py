"""Exact AC power flow in polar form.

Serves as the ground-truth oracle for the approximate feeder models: it
benchmarks voltages and losses, supplies the adjoint voltage sensitivities
used by the marginal-loss prices (one sparse LU of the reduced Jacobian and
a transposed solve), keeps the dense Jacobian blocks and sensitivity
matrices as their O(n^2) reference, and implements the finite-difference
price oracle (slack-cost derivative under load perturbation).

Array conventions: the package's one bus order (``netmodel.tree_positions``).
Full-bus vectors hold the slack at position 0, then the non-slack buses in
``netmodel.path_incidence(net).order``; non-slack vectors are the same order
without the slack. All quantities per unit on the network base.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from .netmodel import Network, columns, net_injections, per_network, tree_positions

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


def admittance(net: Network) -> sp.csr_matrix:
    """Bus admittance matrix (series branch elements only)."""
    f, t, z = _branch_ends(net)
    y = 1.0 / z
    rows = np.column_stack([f, t, f, t]).ravel()
    cols = np.column_stack([f, t, t, f]).ravel()
    vals = np.column_stack([y, y, -y, -y]).ravel()
    return sp.csr_matrix((vals, (rows, cols)), shape=(net.n_bus, net.n_bus))


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
    if p is None or q is None:
        dp, dq = net_injections(net)
        p = dp if p is None else p
        q = dq if q is None else q
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (n - 1,) or q.shape != (n - 1,):
        raise ValueError("injection vectors must cover every non-slack bus")

    ybus = admittance(net)
    vm = np.full(n, net.v0) if v_start is None else np.array(v_start, dtype=float)
    va = np.zeros(n) if delta_start is None else np.array(delta_start, dtype=float)
    vm[0] = net.v0
    va[0] = 0.0
    s_spec = p + 1j * q

    def mismatch(vc):
        mis = (vc * np.conj(ybus.dot(vc)))[1:] - s_spec
        return np.concatenate([mis.real, mis.imag])

    vc = vm * np.exp(1j * va)
    f = mismatch(vc)
    it = 0
    while np.max(np.abs(f)) >= NEWTON_TOL:
        if it >= NEWTON_MAX_ITER:
            raise PowerFlowError(
                f"power flow diverged: mismatch {np.max(np.abs(f)):.3e} "
                f"after {NEWTON_MAX_ITER} iterations"
            )
        j11, j12, j21, j22 = _jacobian_sparse(ybus, vc)
        jac = sp.bmat([[j11, j12], [j21, j22]], format="csc")
        try:
            dx = spla.spsolve(jac, -f)
        except RuntimeError as exc:
            raise PowerFlowError(f"singular power-flow Jacobian: {exc}") from exc
        if not np.all(np.isfinite(dx)):
            raise PowerFlowError("singular power-flow Jacobian (non-finite step)")
        va[1:] += dx[:n - 1]
        vm[1:] += dx[n - 1:]
        vc = vm * np.exp(1j * va)
        f = mismatch(vc)
        it += 1

    s_slack = (vc * np.conj(ybus.dot(vc)))[0]
    pl, ql = _branch_losses(net, vc)
    return AcState(
        v=vm, delta=va,
        slack_p=float(s_slack.real), slack_q=float(s_slack.imag),
        pl_exact=pl, ql_exact=ql,
        iterations=it, max_mismatch=float(np.max(np.abs(f))),
    )


def _jacobian_sparse(ybus, vc):
    """Blocks of dS/d(angle), dS/d|V| restricted to the non-slack buses."""
    ibus = ybus.dot(vc)
    dv = sp.diags(vc)
    di = sp.diags(ibus)
    dvnorm = sp.diags(vc / np.abs(vc))
    ds_dva = 1j * dv @ (np.conj(di - ybus @ dv))
    ds_dvm = dv @ np.conj(ybus @ dvnorm) + np.conj(di) @ dvnorm
    ds_dva = sp.csr_matrix(ds_dva)[1:, 1:]
    ds_dvm = sp.csr_matrix(ds_dvm)[1:, 1:]
    return ds_dva.real, ds_dvm.real, ds_dva.imag, ds_dvm.imag


def jacobian_at(net: Network, v: np.ndarray, delta: np.ndarray) -> JacobianBlocks:
    """Assemble the Jacobian blocks at an arbitrary operating point
    (not necessarily a converged one).

    Dense O(n^2) reference for ``voltage_adjoint``; pricing does not use it.
    """
    vc = np.asarray(v, dtype=float) * np.exp(1j * np.asarray(delta, dtype=float))
    j11, j12, j21, j22 = _jacobian_sparse(admittance(net), vc)
    return JacobianBlocks(
        dp_ddelta=j11.toarray(), dp_dv=j12.toarray(),
        dq_ddelta=j21.toarray(), dq_dv=j22.toarray(),
        bus_ids=tuple(tree_positions(net))[1:],
    )


def voltage_sensitivities(jb: JacobianBlocks) -> tuple[np.ndarray, np.ndarray]:
    """Sensitivities of non-slack voltage magnitudes to injections.

    Returns (dV/dP, dV/dQ), the lower blocks of the inverse reduced Jacobian;
    entry [i, j] is the response of V_i to a unit active (reactive) injection
    at bus j. Feeders hanging off the slack independently give a
    block-diagonal Jacobian, so the inverse is taken per connected component.

    Dense O(n^2)-memory, O(n^3)-time reference for ``voltage_adjoint``;
    pricing does not use it.
    """
    m = len(jb.bus_ids)
    coupling = (
        np.abs(jb.dp_ddelta) + np.abs(jb.dp_dv)
        + np.abs(jb.dq_ddelta) + np.abs(jb.dq_dv)
    )
    n_comp, labels = csgraph.connected_components(
        sp.csr_matrix(coupling + coupling.T), directed=False
    )
    dv_dp = np.zeros((m, m))
    dv_dq = np.zeros((m, m))
    for comp in range(n_comp):
        idx = np.flatnonzero(labels == comp)
        k = len(idx)
        jac = np.block([
            [jb.dp_ddelta[np.ix_(idx, idx)], jb.dp_dv[np.ix_(idx, idx)]],
            [jb.dq_ddelta[np.ix_(idx, idx)], jb.dq_dv[np.ix_(idx, idx)]],
        ])
        try:
            jinv = np.linalg.inv(jac)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError(f"singular reduced Jacobian: {exc}") from exc
        dv_dp[np.ix_(idx, idx)] = jinv[k:, :k]
        dv_dq[np.ix_(idx, idx)] = jinv[k:, k:]
    return dv_dp, dv_dq


def voltage_adjoint(
    net: Network,
    v: np.ndarray,
    delta: np.ndarray,
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Transposed voltage sensitivities applied to ``u``: (dV/dP^T u, dV/dQ^T u).

    ``v``/``delta`` are full-bus vectors at any operating point; the rows of
    ``u`` (shape ``(m,)`` or ``(m, k)``) and of the results are the m
    non-slack buses. The reduced Jacobian J is factored once by sparse LU
    and J^T y = [0; u] is solved, so that y = [dV/dP^T u; dV/dQ^T u] (the
    adjoint form of the lower blocks of J^-1). Feeders hanging off the slack
    give a block-diagonal J, which the factorization handles as is.
    """
    m = net.n_bus - 1
    u = np.asarray(u, dtype=float)
    if u.shape[0] != m:
        raise ValueError("u must have one row per non-slack bus")
    vc = np.asarray(v, dtype=float) * np.exp(1j * np.asarray(delta, dtype=float))
    # a zero voltage makes vc/|vc| undefined; the factorization or the
    # finiteness check below reports the singular Jacobian
    with np.errstate(invalid="ignore", divide="ignore"):
        j11, j12, j21, j22 = _jacobian_sparse(admittance(net), vc)
    jac = sp.bmat([[j11, j12], [j21, j22]], format="csc")
    try:
        lu = spla.splu(jac)
    except RuntimeError as exc:
        raise PowerFlowError(f"singular reduced Jacobian: {exc}") from exc
    rhs = np.zeros((2 * m,) + u.shape[1:])
    rhs[m:] = u
    y = lu.solve(rhs, trans="T")
    if not np.all(np.isfinite(y)):
        raise PowerFlowError("singular reduced Jacobian: non-finite solution")
    return y[:m], y[m:]


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
    if p is None or q is None:
        dp, dq = net_injections(net)
        p = dp if p is None else np.asarray(p, dtype=float)
        q = dq if q is None else np.asarray(q, dtype=float)
    costs = []
    for sign in (+1.0, -1.0):
        pp = np.array(p, dtype=float)
        qq = np.array(q, dtype=float)
        # a load increment is an injection decrement
        if axis == "p":
            pp[k] -= sign * ORACLE_EPS
        else:
            qq[k] -= sign * ORACLE_EPS
        try:
            st = newton_pf(net, pp, qq, v_start=v_start, delta_start=delta_start)
        except PowerFlowError as exc:
            raise OracleError(f"oracle power flow failed at bus {bus}: {exc}") from exc
        costs.append(c0p * st.slack_p + c0q * st.slack_q)
    return (costs[0] - costs[1]) / (2.0 * ORACLE_EPS)
