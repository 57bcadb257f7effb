"""Modified DistFlow equations in power-to-voltage ratio variables.

State variables are the modified injections p_hat = P * w and flows, with
the auxiliary per-bus variable w = 2 - V. ``flow_equations`` states the
model once, as sparse branch-flow rows in the layout ``FlowRows`` states.
For fixed injections the whole state follows from one direct sparse solve
of those rows, block diagonal by feeder and factored whole
(``FeederFactors``); no sweep or iteration is involved. The OPF builder
reads only that factor, memoized per network by ``load_factors``: its
layout, the slack's two balance rows, the state that each generator
drives, packed by feeder into the slots of one solve, and the balance-row
duals their transposed solve. The module also
recovers the bus angles, each the sum of the angle turns across the
branches on its path, and computes the total network loss with its
four-way split into active/reactive flow contributions. The path matrix T
of the paper's closed form is never formed: T x (each branch's sum over
the buses it feeds) is ``ti.t.solve(x)`` and T' y (each bus's sum over its
path to the slack) is ``ti.t.solve(y, trans="T")``, one triangular solve
each (see ``netmodel.PathIncidence``).

Alignment: the package's one bus order. Full-bus arrays (w, v, delta) hold
the slack at position 0, then ``netmodel.path_incidence(net).order``;
per-non-slack arrays follow that order and per-branch arrays the matching
branch rows of the path incidence, so ``w[1:]`` lines up with ``p_hat`` and
with branch row k.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .netmodel import Network, PathIncidence, columns, path_incidence, per_network


class MdfError(RuntimeError):
    """Raised when the closed-form solve or state assembly fails."""


#: residual tolerance for solver-produced states
STATE_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class MdfState:
    w: np.ndarray
    v: np.ndarray
    delta: np.ndarray
    p_hat: np.ndarray
    q_hat: np.ndarray
    p_br_hat: np.ndarray
    q_br_hat: np.ndarray


@dataclass(frozen=True)
class LossReport:
    """Total losses and their decomposition by driving flow.

    ``pl_p`` is the active loss from active-power flows, ``pl_q`` the active
    loss from reactive flows; ``ql_p``/``ql_q`` are the reactive analogues.
    """

    pl: float
    ql: float
    pl_p: float
    pl_q: float
    ql_p: float
    ql_q: float


class FlowRows:
    """The layout of ``flow_equations`` for ``n`` branches, the one statement
    of its rows and of the state's columns. Rows: ``w_slack`` is a single
    row; the active and reactive balance rows of full bus k (slack first,
    then ``ti.order``) are ``p_bal + k`` and ``q_bal + k``; the voltage drop
    of branch row k is ``drop + k``; ``count`` rows in all. Columns: the W
    of full bus k is ``w + k``, the Pbr and Qbr of branch row k ``pbr + k``
    and ``qbr + k``; ``n_cols`` columns in all.
    """

    def __init__(self, n: int):
        self.w_slack, self.p_bal, self.q_bal, self.drop, self.count = (
            0, 1, n + 2, 2 * n + 3, 3 * n + 3)
        self.w, self.pbr, self.qbr, self.n_cols = 0, n + 1, 2 * n + 1, 3 * n + 1

    def balance(self, bus: np.ndarray) -> np.ndarray:
        """The active balance row of each full bus position in ``bus``, then
        the reactive: the rows in which a generator's Pg and Qg are units."""
        return np.concatenate([self.p_bal + bus, self.q_bal + bus])


def flow_equations(ti: PathIncidence, p: np.ndarray, q: np.ndarray) -> sp.csr_matrix:
    """The modified branch-flow equations as sparse (3n + 3) x (3n + 1) rows,
    laid out as ``FlowRows(ti.n)`` states.

    Columns: W per bus, then Pbr and Qbr per branch row. Rows: ``w_slack``;
    the active, then the reactive balance of each bus, Pbr in - Pbr out +
    p W = 0 for the full-bus net injections ``p``/``q``; the voltage drop of
    each branch, W child - W parent - r Pbr - x Qbr = 0. Explicit zeros are
    dropped, so a bus without injection leaves no W entry in its balance
    rows.
    """
    n, rows = ti.n, FlowRows(ti.n)
    k, bus = np.arange(n, dtype=np.int32), np.arange(n + 1, dtype=np.int32)
    # each bus's W column, each branch's ends (W columns) and flows (Pbr, Qbr columns)
    w = rows.w + bus
    child, parent = w[1:], w[np.asarray(ti.parent_pos) + 1]
    pbr, qbr = rows.pbr + k, rows.qbr + k
    # (rows, columns, values) of each block of entries, at its FlowRows offset
    blocks = [(bus[:1] + rows.w_slack, w[:1], 1.0),
              (rows.p_bal + bus, w, p), (rows.q_bal + bus, w, q),
              (rows.p_bal + child, pbr, 1.0), (rows.p_bal + parent, pbr, -1.0),
              (rows.q_bal + child, qbr, 1.0), (rows.q_bal + parent, qbr, -1.0),
              (rows.drop + k, child, 1.0), (rows.drop + k, parent, -1.0),
              (rows.drop + k, pbr, -ti.r), (rows.drop + k, qbr, -ti.x)]
    r, c = (np.concatenate([b[i] for b in blocks]) for i in (0, 1))
    v = np.concatenate([np.broadcast_to(b[2], len(b[0])) for b in blocks])
    a = sp.csr_matrix((v, (r, c)), shape=(rows.count, rows.n_cols))
    a.eliminate_zeros()
    return a


def _assemble(net, ti, w_r, p_hat, q_hat):
    w = np.concatenate([[2.0 - net.v0], w_r])
    v = 2.0 - w
    p_br = -ti.t.solve(p_hat)
    q_br = -ti.t.solve(q_hat)
    delta = _angles(ti, v, p_br, q_br)
    return MdfState(
        w=w, v=v, delta=delta,
        p_hat=p_hat, q_hat=q_hat, p_br_hat=p_br, q_br_hat=q_br,
    )


class FeederFactors:
    """``flow_equations`` at fixed non-slack net injections ``p``/``q`` (tree
    order) without the slack's two balance rows, square in the state (W,
    Pbr, Qbr in the columns of ``layout``, its ``FlowRows``), in one factor.

    Feeders meet only at the slack, whose W is fixed, so with W0 on the
    right-hand side the rows are block diagonal by feeder. They are factored
    leaves first, one group per bus (W, Pbr, Qbr of the branch into it; its
    drop and balance rows), with no pivoting: each child is eliminated
    before its parent, so fill stays within the parent's group and the
    factor is that of each feeder's block. The leaves-first position of each
    row is ``at`` (-1 for the slack's) and of each state column ``place``
    (W0 last, past the block); ``feeder`` numbers each position's feeder.
    ``state`` is the solution at the slack voltage ``net.v0``.

    It holds the rows only as SuperLU's factor ``lu`` and ``slack_rows``,
    the slack's two balance rows at its own load: the OPF's equality rows.
    The flow rows are freed before SuperLU factors them, once W0's column
    and those two rows are copied out, and the leaves-first matrix it
    factors after the residual check of ``state``. ``solve_units`` solves
    its packed slots one at a time.
    """

    def __init__(self, net: Network, p: np.ndarray, q: np.ndarray):
        ti = path_incidence(net)
        cols = columns(net)
        n, rows = ti.n, FlowRows(ti.n)
        self.layout = rows
        a = flow_equations(ti, np.concatenate([-cols.p_load[:1], p]),
                           np.concatenate([-cols.q_load[:1], q]))
        k = np.arange(n)[::-1]
        self.cols = np.column_stack([rows.w + 1 + k, rows.pbr + k, rows.qbr + k]).ravel()
        self.eqs = np.column_stack([rows.drop + k, rows.p_bal + 1 + k, rows.q_bal + 1 + k]).ravel()
        size = self.cols.size  # every state column but W0
        self.at = np.full(rows.count, -1, dtype=np.int32)
        self.place = np.full(rows.n_cols, size, dtype=np.int32)
        self.at[self.eqs] = self.place[self.cols] = np.arange(size)
        w0_col = a[:, [rows.w]].toarray()[:, 0]  # W0 in the top drops
        self.slack_rows = a[[rows.p_bal, rows.q_bal]]
        # a's entries at their positions, compressed by column: W0's column,
        # placed last, is cut off and the slack's rows are zeroed out
        m = sp.csr_matrix((a.data, self.place[a.indices], a.indptr), shape=a.shape).tocsc()
        del a  # the solves read only W0's column and the slack's rows: free it before splu
        m = sp.csc_matrix((m.data, self.at[m.indices], m.indptr[:-1]), shape=(size, size))
        m.data[m.indices < 0] = 0.0
        m.eliminate_zeros()
        try:
            self.lu = spla.splu(m, permc_spec="NATURAL", diag_pivot_thresh=0, relax=2, panel_size=2)
        except RuntimeError as exc:
            raise MdfError(f"singular modified power-flow matrix: {exc}") from exc
        # a preorder keeps each feeder contiguous, so in leaves-first order a
        # feeder's rows end at its top bus: number the feeders in that order
        top = (np.asarray(ti.parent_pos, dtype=int) < 0)[::-1]
        self.feeder = np.repeat(np.cumsum(top) - top, 3)
        w0 = 2.0 - net.v0
        self.state = -w0 * self.solve_state(w0_col)
        self.state[rows.w] = w0
        if not np.all(np.isfinite(self.state)):
            raise MdfError("singular modified power-flow matrix (non-finite solution)")
        # the factored rows at the state: m on the block, W0's column at W0
        resid = np.max(np.abs(m @ self.state[self.cols] + w0 * w0_col[self.eqs]), initial=0.0)
        if resid > 1e-8 * max(1.0, np.max(np.abs(self.state))):
            raise MdfError(
                f"ill-conditioned modified power-flow matrix: solve residual {resid:.3e}"
            )

    def solve_state(self, b: np.ndarray) -> np.ndarray:
        """The state that ``b`` (rows in ``FlowRows`` layout, the slack's not
        read) drives with W0 held at 0, one dense solve."""
        s = np.zeros(self.layout.n_cols)
        s[self.cols] = self.lu.solve(b[self.eqs])
        return s

    def solve_units(self, bal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``solve_state`` for a unit in each row of ``bal``, packed: a column
        reaches only the feeder of its row, so the k-th column that reaches
        each feeder shares slot k with the others, one right-hand side (Curtis,
        Powell & Reid 1974). The slots are solved one at a time into X, so
        SuperLU neither copies an all-slot right-hand side nor allocates a
        work array of its size. Returns X, per position and slot, and each
        feeder's column per slot (-1 where it has fewer)."""
        pos = self.at[bal]
        col = np.flatnonzero(pos >= 0)
        col = col[np.argsort(self.feeder[pos[col]], kind="stable")]
        feeder = self.feeder[pos[col]]
        slot = np.arange(col.size) - np.searchsorted(feeder, feeder)
        slot_col = np.full((self.feeder.max(initial=-1) + 1, slot.max(initial=-1) + 1), -1)
        slot_col[feeder, slot] = col
        x = np.empty((self.cols.size, slot_col.shape[1]))
        rhs = np.zeros(self.cols.size)
        for k in range(x.shape[1]):
            units = pos[col[slot == k]]
            rhs[units] = 1.0
            x[:, k] = self.lu.solve(rhs)
            rhs[units] = 0.0
        return x, slot_col

    def solve_transposed(self, r: np.ndarray) -> np.ndarray:
        """Multipliers y of the factored rows with A' y = ``r`` on the
        non-slack state columns, in ``FlowRows`` layout; the slack's rows
        are left 0."""
        y = np.zeros(self.at.size)
        y[self.eqs] = self.lu.solve(r[self.cols], trans="T")
        return y


@per_network
def load_factors(net: Network) -> FeederFactors:
    """``FeederFactors`` of ``net`` at its loads, memoized on the instance."""
    cols = columns(net)
    return FeederFactors(net, -cols.p_load[1:], -cols.q_load[1:])


def solve_fixed_load(
    net: Network, p: np.ndarray | None = None, q: np.ndarray | None = None
) -> MdfState:
    """The state at fixed non-slack net injections ``p``/``q`` in tree order
    (default: minus the loads), one ``FeederFactors`` solve. Generators at
    fixed setpoints are folded into them (see ``netmodel.net_injections``).
    """
    cols = columns(net)
    p = -cols.p_load[1:] if p is None else np.array(p, dtype=float)
    q = -cols.q_load[1:] if q is None else np.array(q, dtype=float)
    fac = FeederFactors(net, p, q)
    w_r = fac.state[fac.layout.w + 1:fac.layout.pbr]
    return _assemble(net, path_incidence(net), w_r, p * w_r, q * w_r)


def state_from_solution(
    net: Network,
    p_hat_r: np.ndarray,
    q_hat_r: np.ndarray,
    w_r: np.ndarray,
) -> MdfState:
    """Assemble a full state from solver variables, enforcing the voltage-drop
    identity w = w0 - T'R T p_hat - T'X T q_hat within ``STATE_RESIDUAL_TOL``,
    each T and T' product one triangular solve with the path incidence's
    factor ``t``."""
    ti = path_incidence(net)
    p_hat_r = np.asarray(p_hat_r, dtype=float)
    q_hat_r = np.asarray(q_hat_r, dtype=float)
    w_r = np.asarray(w_r, dtype=float)
    w0 = 2.0 - net.v0
    t = ti.t
    w_expect = (w0 - t.solve(ti.r * t.solve(p_hat_r), trans="T")
                - t.solve(ti.x * t.solve(q_hat_r), trans="T"))
    resid = float(np.max(np.abs(w_r - w_expect))) if ti.n else 0.0
    if resid > STATE_RESIDUAL_TOL:
        raise MdfError(
            f"solution inconsistent with voltage-drop identity: "
            f"max residual {resid:.3e} exceeds {STATE_RESIDUAL_TOL:.1e}"
        )
    return _assemble(net, ti, w_r, p_hat_r, q_hat_r)


def _angles(ti, v, p_br, q_br):
    """Bus angles (rad), slack first. Branch k turns the angle by
    -arcsin(arg_k) from its parent to its child, so each bus sums the turns
    of the branches on its path: delta[1:] = -T' arcsin(arg), one transposed
    solve with ``ti.t``."""
    arg = (ti.x * p_br - ti.r * q_br) / v[1:]
    bad = np.flatnonzero(np.abs(arg) > 1.0)
    if bad.size:
        k = bad[0]
        raise MdfError(
            f"angle recovery infeasible at bus {ti.order[k]}: |sin| = {abs(arg[k]):.4f}"
        )
    return np.concatenate([[0.0], -ti.t.solve(np.arcsin(arg), trans="T")])


def losses(net: Network, state: MdfState) -> LossReport:
    """Quadratic network-loss totals with the four-way P/Q decomposition."""
    ti = path_incidence(net)
    fp2 = state.p_br_hat ** 2
    fq2 = state.q_br_hat ** 2
    pl_p = float(ti.r @ fp2)
    pl_q = float(ti.r @ fq2)
    ql_p = float(ti.x @ fp2)
    ql_q = float(ti.x @ fq2)
    return LossReport(
        pl=pl_p + pl_q, ql=ql_p + ql_q,
        pl_p=pl_p, pl_q=pl_q, ql_p=ql_p, ql_q=ql_q,
    )
