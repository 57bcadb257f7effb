"""Shared test utilities: networks written row by row, random radial
networks and small oracles."""
import csv
import io
import json
import math
from dataclasses import fields, replace
from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from radialopf import mdistflow, mdopf, netmodel, pricing, qcqpsolver
from radialopf.netmodel import Columns, Generator, Network
from radialopf.qcqpsolver import OpfSolution, QcqpProblem

_GEN = tuple(f.name for f in fields(Generator))


class Bus(NamedTuple):
    """A bus written as one row (see ``network``)."""

    id: int
    p_load: float = 0.0
    q_load: float = 0.0
    v_min: float = 0.9
    v_max: float = 1.1
    gen: Generator | None = None


class Branch(NamedTuple):
    """A branch written as one row; ``i_max`` None is unrated."""

    from_bus: int
    to_bus: int
    r: float
    x: float
    i_max: float | None = None


def network(buses, branches, slack: int, **bases) -> Network:
    """A network written row by row: ``Bus`` and ``Branch`` rows in record
    order, the slack's id, and ``base_power``/``base_voltage``/``v0`` where
    given (``Network``'s defaults otherwise)."""
    buses, branches = list(buses), list(branches)
    gens = [b.gen for b in buses]
    return Network(Columns(
        [b.id for b in buses], [b.p_load for b in buses], [b.q_load for b in buses],
        [b.v_min for b in buses], [b.v_max for b in buses], [g is not None for g in gens],
        *([math.nan if g is None else getattr(g, k) for g in gens] for k in _GEN),
        [br.from_bus for br in branches], [br.to_bus for br in branches],
        [br.r for br in branches], [br.x for br in branches],
        [math.nan if br.i_max is None else br.i_max for br in branches],
        [br.i_max is not None for br in branches],
    ), slack, **bases)


def bus_records(net: Network) -> list[Bus]:
    """``net``'s buses as rows, in record order."""
    c = net.records
    gens = [Generator(*g) if has else None
            for has, g in zip(c.gen.tolist(), zip(*(getattr(c, k).tolist() for k in _GEN)))]
    return list(map(Bus, c.bus_id.tolist(), c.p_load.tolist(), c.q_load.tolist(),
                    c.v_min.tolist(), c.v_max.tolist(), gens))


def branch_records(net: Network) -> list[Branch]:
    """``net``'s branches as rows, in record order."""
    c = net.records
    return [Branch(f, t, r, x, i if rated else None)
            for f, t, r, x, i, rated in zip(c.from_bus.tolist(), c.to_bus.tolist(),
                                            c.r.tolist(), c.x.tolist(), c.i_max.tolist(),
                                            c.rated.tolist())]


def bus_record(net: Network, bus_id: int) -> Bus:
    """The row of bus ``bus_id`` (the last, should the id repeat)."""
    c = net.records
    i = int(np.flatnonzero(c.bus_id == bus_id)[-1])
    gen = Generator(*(getattr(c, k)[i].item() for k in _GEN)) if c.gen[i] else None
    return Bus(bus_id, c.p_load[i].item(), c.q_load[i].item(), c.v_min[i].item(),
               c.v_max[i].item(), gen)


def with_records(net: Network, buses=None, branches=None, **bases) -> Network:
    """``net`` with its bus rows, branch rows or scalars replaced where given."""
    top = dict(slack=net.slack, base_power=net.base_power, base_voltage=net.base_voltage,
               v0=net.v0)
    return network(bus_records(net) if buses is None else buses,
                   branch_records(net) if branches is None else branches, **{**top, **bases})


def assert_same_network(a: Network, b: Network) -> None:
    """``a`` and ``b`` hold the same scalars and, column by column, the same
    dtypes and numbers (NaN matching NaN)."""
    assert (a.slack, a.base_power, a.base_voltage, a.v0) == (
        b.slack, b.base_power, b.base_voltage, b.v0)
    for name, col in vars(a.records).items():
        other = getattr(b.records, name)
        assert col.dtype == other.dtype, name
        np.testing.assert_array_equal(col, other, err_msg=name)


def random_tree_network(
    rng: np.random.Generator,
    n_bus: int,
    load_scale: float = 0.03,
    gen_frac: float = 0.0,
    cost_range: tuple[float, float] = (1.0, 40.0),
) -> Network:
    """Random radial feeder: bus i attaches to a uniform ancestor.

    Loads are small enough that the implied voltage drops stay far from
    pathological; optional generators get nonnegative costs from
    ``cost_range``.
    """
    buses = [Bus(id=1, v_min=0.5, v_max=1.5)]
    branches = []
    for i in range(2, n_bus + 1):
        parent = int(rng.integers(1, i))
        r = float(rng.uniform(0.001, 0.08))
        x = float(rng.uniform(0.001, 0.08))
        p = float(rng.uniform(0.0, load_scale))
        q = float(rng.uniform(0.0, load_scale * 0.6))
        gen = None
        if gen_frac and rng.random() < gen_frac:
            gen = Generator(
                p_min=0.0, p_max=float(rng.uniform(0.01, 0.1)),
                q_min=0.0, q_max=float(rng.uniform(0.01, 0.05)),
                cost_p=float(rng.uniform(*cost_range)),
                cost_q=float(rng.uniform(0.0, cost_range[1] / 5.0)),
            )
        buses.append(Bus(id=i, p_load=p, q_load=q, v_min=0.5, v_max=1.5, gen=gen))
        branches.append(Branch(from_bus=parent, to_bus=i, r=r, x=x))
    net = network(buses, branches, slack=1, base_power=10.0, base_voltage=12.66, v0=1.0)
    return netmodel.with_slack_costs(net, 30.0, 3.0)


def mk_case(bus_rows, branch_rows, base=1.0, gen_rows=None, gencost_rows=None):
    """Assemble MATPOWER-subset case text from row lists."""
    parts = [f"mpc.baseMVA = {base};", "mpc.bus = ["]
    parts += [" " + " ".join(str(v) for v in row) + ";" for row in bus_rows]
    parts.append("];")
    parts.append("mpc.branch = [")
    parts += [" " + " ".join(str(v) for v in row) + ";" for row in branch_rows]
    parts.append("];")
    if gen_rows:
        parts.append("mpc.gen = [")
        parts += [" " + " ".join(str(v) for v in row) + ";" for row in gen_rows]
        parts.append("];")
    if gencost_rows:
        parts.append("mpc.gencost = [")
        parts += [" " + " ".join(str(v) for v in row) + ";" for row in gencost_rows]
        parts.append("];")
    return "\n".join(parts)


def bus_row(i, btype=1, pd=0.0, qd=0.0, vmax=1.1, vmin=0.9):
    return [i, btype, pd, qd, 0, 0, 1, 1, 0, 12.66, 1, vmax, vmin]


def pivoting_factor(kkt, matrix, failure):
    """Stand-in for ``qcqpsolver._Kkt.factor``, the reference for its
    unpivoted factor: SuperLU factors the KKT ``matrix`` in its own column
    order with partial pivoting, and solves are not refined."""
    return spla.splu(matrix).solve


def quad_rows(p: QcqpProblem) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each quadratic row k of ``p`` as dense (M_k, c_k): the rows k,
    k + n_quad, k + 2 n_quad, ... of ``quad_m`` and ``quad_c``, whose
    c_k + M_k x square and sum to the row's value."""
    m = p.quad_m.toarray()
    return [(m[k::p.n_quad], p.quad_c[k::p.n_quad]) for k in range(p.n_quad)]


def quad_values(p: QcqpProblem, x) -> np.ndarray:
    """Each quadratic row's ||c_k + M_k x||^2, restated from ``quad_rows``."""
    return np.array([np.sum((c + m @ x) ** 2) for m, c in quad_rows(p)])


def reference_kkt(p: QcqpProblem, x, d, z, diag, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The KKT matrix [[2H + J' diag(d) J + sum_k 2 z_k M_k'M_k + diag I, A_eq'],
    [A_eq, -delta I]] of ``p`` as one dense array, J the Jacobian of the
    inequality rows at ``x`` (a quadratic row's gradient is
    2 M_k'(c_k + M_k x)) and z the inequality rows' multipliers; without
    ``d`` the (1,1) block is ``diag`` I alone. The reference for
    ``qcqpsolver._Kkt.matrix``. Also returns the same sums over the absolute
    values of their terms, the scale of each entry's round-off."""
    a = p.a_eq.toarray()
    eq = -delta * np.eye(p.n_eq)
    quad = quad_rows(p)
    blocks = []
    for f in (lambda m: m, np.abs):
        hbar = f(diag) * np.eye(p.n_vars)
        if d is not None:
            grads = [2.0 * f(m).T @ (f(c) + f(m) @ f(x)) for m, c in quad]
            jac = np.vstack([f(p.a_in.toarray()), *grads])
            hbar = hbar + f(2.0 * p.h.toarray()) + jac.T @ (d[:, None] * jac)
            for (m, _), z_k in zip(quad, z[p.n_in:]):
                hbar = hbar + 2.0 * z_k * (f(m).T @ f(m))
        blocks.append(np.block([[hbar, f(a).T], [f(a), f(eq)]]))
    return blocks[0], blocks[1]


def assert_same_kkt(kkt: sp.csc_matrix, ref: tuple[np.ndarray, np.ndarray]) -> None:
    """``kkt`` equals the dense ``reference_kkt`` within 1e-12 relative,
    entry by entry, to the sum of the absolute values of the entry's terms."""
    value, scale = ref
    assert np.all(np.abs(kkt.toarray() - value) <= 1e-12 * scale)


def assert_kkt_matches_reference(p: QcqpProblem, rng: np.random.Generator) -> None:
    """Every KKT matrix ``qcqpsolver._Kkt`` builds for ``p`` equals
    ``reference_kkt`` (see ``assert_same_kkt``): the least-norm start's and
    each iteration's of one solve, and one at a random point where the
    first quadratic row's c + M x is exactly 0 (its ``quad_c`` set to
    -M x there), so that its gradient holds explicit zeros. Every matrix
    keeps the one stored pattern."""
    delta = qcqpsolver.REGULARIZATION
    jacobian, matrix = qcqpsolver._Kkt.jacobian, qcqpsolver._Kkt.matrix
    at, built = [], []

    def record_x(self, x):
        at.append(x.copy())
        return jacobian(self, x)

    def compare(self, diag, d=None, z=None):
        kkt = matrix(self, diag, d, z)
        assert_same_kkt(kkt, reference_kkt(p, at[-1] if at else None, d, z, diag, delta))
        built.append(kkt)
        return kkt

    with pytest.MonkeyPatch.context() as m:
        m.setattr(qcqpsolver._Kkt, "jacobian", record_x)
        m.setattr(qcqpsolver._Kkt, "matrix", compare)
        assert qcqpsolver.solve(p).status == "optimal"
    x = rng.standard_normal(p.n_vars)
    first = slice(0, None, max(p.n_quad, 1))  # the rows of quadratic row 0
    c = p.quad_c.copy()
    c[first] = -(p.quad_m[first] @ x)
    p = replace(p, quad_c=c)
    d, z = rng.uniform(0.1, 10.0, (2, p.n_in + p.n_quad))
    diag = rng.uniform(0.1, 10.0)
    kkt = qcqpsolver._Kkt(p, delta)
    kkt.jacobian(x)
    built.append(kkt.matrix(diag, d, z))
    assert_same_kkt(built[-1], reference_kkt(p, x, d, z, diag, delta))
    for m in built:
        assert np.array_equal(m.indices, built[0].indices)
        assert np.array_equal(m.indptr, built[0].indptr)


def kkt_residuals(p: QcqpProblem, sol: OpfSolution) -> dict[str, float]:
    """Stationarity, primal/dual feasibility and complementarity of a QCQP
    solution, with the inequality rows restated here: the linear rows, then
    ||c_k + M_k x||^2 <= b_k (``quad_rows``)."""
    x = sol.x
    z = np.concatenate([sol.duals_in, sol.duals_quad])
    vals = np.concatenate([p.a_in @ x - p.b_in, quad_values(p, x) - p.quad_b])
    grads = [2.0 * m.T @ (c + m @ x) for m, c in quad_rows(p)]
    jac = sp.vstack([p.a_in, sp.csr_matrix(np.reshape(grads, (-1, p.n_vars)))])
    rd = 2.0 * (p.h @ x) + p.g + jac.T @ z + p.a_eq.T @ sol.duals_eq
    return {
        "stationarity": float(np.abs(rd).max(initial=0.0)),
        "primal_eq": float(np.abs(p.a_eq @ x - p.b_eq).max(initial=0.0)),
        "primal_in": float(vals.max(initial=0.0)),
        "dual": float((-z).max(initial=0.0)),
        "complementarity": float(np.abs(vals * z).max(initial=0.0)),
    }


def reference_preorder(net):
    """Two-pass reference for the feeder tree search: parents from a
    breadth-first search, then a preorder that visits each bus's children in
    ascending id order. Returns (order, parent_pos) as in ``PathIncidence``."""
    adj = {b: [] for b in net.records.bus_id.tolist()}
    for br in branch_records(net):
        adj[br.from_bus].append(br.to_bus)
        adj[br.to_bus].append(br.from_bus)
    parent = {net.slack: None}
    queue = [net.slack]
    for u in queue:
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                queue.append(v)
    children = {}
    for v, u in parent.items():
        children.setdefault(u, []).append(v)
    order, stack = [], [net.slack]
    while stack:
        u = stack.pop()
        if u != net.slack:
            order.append(u)
        stack.extend(sorted(children.get(u, []), reverse=True))
    pos = {b: i for i, b in enumerate(order)}
    return order, [pos.get(parent[b], -1) for b in order]


def reference_validate(net):
    """Record-by-record reference for ``netmodel.validate``: each bus and
    branch checked in a Python loop, then the topology from networkx and
    ``reference_preorder`` (reached from the slack, n - 1 branches, every
    branch stored parent to child)."""
    import math

    import networkx as nx

    out = []
    buses, branches = bus_records(net), branch_records(net)
    ids = [b.id for b in buses]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        out.append(f"duplicate bus ids {dupes}")
        return out
    if net.slack not in set(ids):
        out.append(f"slack bus {net.slack} missing from bus list")
        return out
    if not 0 < net.v0 < math.inf:
        out.append(f"slack voltage {net.v0} is not positive and finite")
    if not 0 < net.base_power < math.inf:
        out.append(f"base power {net.base_power} is not positive and finite")
    if not 0 < net.base_voltage < math.inf:
        out.append(f"base voltage {net.base_voltage} is not positive and finite")
    for b in buses:
        if not all(map(math.isfinite, (b.p_load, b.q_load, b.v_min, b.v_max))):
            out.append(f"bus {b.id}: non-finite load or voltage limit")
        if b.p_load < 0 or b.q_load < 0:
            out.append(f"bus {b.id}: negative load")
        if b.v_min <= 0:
            out.append(f"bus {b.id}: v_min must be positive")
        if not b.v_min < b.v_max:
            out.append(f"bus {b.id}: v_min {b.v_min} not below v_max {b.v_max}")
        g = b.gen
        if g is not None:
            vals = (g.p_min, g.p_max, g.q_min, g.q_max, g.cost_p, g.cost_q)
            if not all(map(math.isfinite, vals)):
                out.append(f"bus {b.id}: non-finite generator data")
            if g.p_min > g.p_max or g.q_min > g.q_max:
                out.append(f"bus {b.id}: generator bounds out of order")
            if g.cost_p < 0 or g.cost_q < 0:
                out.append(f"bus {b.id}: negative generator cost")
    known = set(ids)
    for br in branches:
        tag = f"branch {br.from_bus}-{br.to_bus}"
        if br.from_bus not in known or br.to_bus not in known:
            out.append(f"{tag}: unknown endpoint")
            continue
        if not (math.isfinite(br.r) and math.isfinite(br.x)):
            out.append(f"{tag}: non-finite impedance")
        if br.r < 0 or br.x < 0:
            out.append(f"{tag}: negative impedance")
        if br.r == 0 and br.x == 0:
            out.append(f"{tag}: resistance and reactance both zero")
        if br.i_max is not None and not 0 < br.i_max < math.inf:
            out.append(f"{tag}: current limit {br.i_max} is not positive and finite")
    if out:
        return out
    graph = nx.MultiGraph()
    graph.add_nodes_from(ids)
    graph.add_edges_from((br.from_bus, br.to_bus) for br in branches)
    missing = sorted(known - nx.node_connected_component(graph, net.slack))
    if missing:
        return [f"network is disconnected: unreachable buses {missing}"]
    if len(branches) != len(ids) - 1:
        return [f"non-radial topology: {len(branches)} branches for {len(ids)} buses"]
    order, parent_pos = reference_preorder(net)
    parent = {b: net.slack if k < 0 else order[k] for b, k in zip(order, parent_pos)}
    return [f"branch {br.from_bus}-{br.to_bus}: not oriented parent to child"
            for br in branches if parent.get(br.to_bus) != br.from_bus]


def reference_price_table_to_csv(pt, extra=None):
    """Per-cell reference for ``pricing.price_table_to_csv``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    extra = extra or {}
    writer.writerow(list(pricing.PRICE_COLUMNS) + list(extra.keys()))
    for i, row in enumerate(_reference_price_rows(pt)):
        out = [row[0]] + [f"{val:.10g}" for val in row[1:]]
        out.extend(f"{extra[k][i]:.10g}" for k in extra)
        writer.writerow(out)
    return buf.getvalue()


def reference_price_table_to_json(pt, extra=None):
    """Per-cell reference for ``pricing.price_table_to_json``."""
    extra = extra or {}
    doc = {
        "format": "radialopf-prices-v1",
        "columns": pricing.PRICE_COLUMNS + list(extra.keys()),
        "rows": [
            [row[0]] + [float(v) for v in row[1:]] + [float(extra[k][i]) for k in extra]
            for i, row in enumerate(_reference_price_rows(pt))
        ],
    }
    return json.dumps(doc, indent=1)


def _reference_price_rows(pt):
    return [
        [b, pt.dlmp_p[i], pt.dlmp_q[i], pt.dlp_p[i], pt.dlp_q[i],
         pt.dpl_dp[i], pt.dpl_dq[i], pt.dql_dp[i], pt.dql_dq[i],
         pt.alloc_pl_p[i], pt.alloc_ql_p[i], pt.alloc_pl_q[i], pt.alloc_ql_q[i]]
        for i, b in enumerate(pt.bus_ids)
    ]


def reference_angles(ti, v, p_br, q_br):
    """Per-branch reference for ``mdistflow``'s angle recovery: walk the
    branches root to leaf (``ti.order`` is a preorder, so each parent is
    settled before its children) and turn each child's angle from its
    parent's by -arcsin((x P - r Q) / V_child). ``v`` and the result are
    full-bus arrays, slack first."""
    delta = np.zeros(ti.n + 1)
    for i in range(ti.n):
        arg = (ti.x[i] * p_br[i] - ti.r[i] * q_br[i]) / v[i + 1]
        if abs(arg) > 1.0:
            raise mdistflow.MdfError(f"angle recovery infeasible at bus {ti.order[i]}")
        delta[i + 1] = delta[ti.parent_pos[i] + 1] - np.arcsin(arg)
    return delta


def path_matrix(ti):
    """The path matrix T that ``ti.t`` factors the inverse of, formed
    explicitly as the reference for its path sums: entry (i, k) is 1 when
    branch row i lies on the path from ``ti.order[k]`` to the slack, one
    nonzero per (bus, ancestor) pair."""
    rows: list[int] = []
    cols: list[int] = []
    for k in range(ti.n):
        i = k
        while i >= 0:
            rows.append(i)
            cols.append(k)
            i = ti.parent_pos[i]
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(ti.n, ti.n))


def chain_network(n: int, dg_every: int) -> Network:
    """An n-bus chain feeder (bus 1, the slack, at its head) with a load on
    every non-slack bus and a generator cheaper than the supply point on
    every ``dg_every``-th bus. The depth-n feeder is the worst case for the size
    of the path matrix."""
    buses = [Bus(id=1, v_min=0.9, v_max=1.1)]
    for i in range(2, n + 1):
        gen = Generator(0.0, 2e-3, 0.0, 1e-3, 25.0, 2.0) if i % dg_every == 0 else None
        buses.append(Bus(id=i, p_load=1e-4, q_load=5e-5, v_min=0.9, v_max=1.1, gen=gen))
    branches = [Branch(from_bus=i - 1, to_bus=i, r=1e-5, x=1e-5) for i in range(2, n + 1)]
    net = network(buses, branches, slack=1)
    return netmodel.with_slack_costs(net, 30.0, 3.0)


def reference_system_matrix(ti, p, q):
    """The closed form of the load-only power flow for fixed injections
    ``p``/``q`` (in ``ti.order``): I + T'RT diag(p) + T'XT diag(q), whose
    solve against w0 gives W per non-slack bus."""
    t = path_matrix(ti)
    a = t.T @ sp.diags(ti.r) @ t @ sp.diags(p)
    a = a + t.T @ sp.diags(ti.x) @ t @ sp.diags(q)
    return (sp.identity(ti.n, format="csc") + a).tocsc()


def reference_fixed_load_w(net, ti, p, q):
    """W per non-slack bus from the closed-form system, the reference for
    ``mdistflow.solve_fixed_load``."""
    a = reference_system_matrix(ti, p, q)
    return spla.spsolve(a, np.full(ti.n, 2.0 - net.v0))


def pivoting_fixed_load_w(net, ti, p, q):
    """W per non-slack bus from ``flow_equations`` without the slack's
    balance rows, solved by SuperLU in its own column order with partial
    pivoting: the reference for ``mdistflow.solve_fixed_load``'s tree order."""
    rows = mdistflow.FlowRows(ti.n)
    a = mdistflow.flow_equations(ti, np.concatenate([[0.0], p]), np.concatenate([[0.0], q]))
    a = a[np.delete(np.arange(rows.count), [rows.p_bal, rows.q_bal])]
    rhs = np.zeros(a.shape[0])
    rhs[rows.w_slack] = 2.0 - net.v0
    return spla.splu(a.tocsc()).solve(rhs)[1:ti.n + 1]


class ReferenceFactors(NamedTuple):
    state: np.ndarray
    solve: object
    solve_transposed: object


def reference_feeder_factors(net, p, q) -> ReferenceFactors:
    """``mdistflow.FeederFactors`` one feeder at a time: the rows of each
    feeder's block, cut out of the leaves-first matrix, get their own
    SuperLU factor (same options, no pivoting), and each feeder solves only
    the columns of ``b`` that reach its rows. The reference for the
    whole-network factor and its packed solve."""
    ti = netmodel.path_incidence(net)
    n, rows = ti.n, mdistflow.FlowRows(ti.n)
    a = mdistflow.flow_equations(ti, np.concatenate([[0.0], p]), np.concatenate([[0.0], q]))
    k = np.arange(n)[::-1]
    cols = np.column_stack([k + 1, n + 1 + k, 2 * n + 1 + k]).ravel()
    eqs = np.column_stack([rows.drop + k, rows.p_bal + 1 + k, rows.q_bal + 1 + k]).ravel()
    tops = np.flatnonzero(np.asarray(ti.parent_pos, dtype=int) < 0)
    ends = np.append(tops, n)
    spans = [(3 * (n - hi), 3 * (n - lo)) for lo, hi in zip(ends[:-1], ends[1:])]
    blocks = a[eqs][:, cols].tocsc()
    lus = []
    for lo, hi in spans:
        at = slice(blocks.indptr[lo], blocks.indptr[hi])
        block = sp.csc_matrix(
            (blocks.data[at], blocks.indices[at] - lo, blocks.indptr[lo:hi + 1] - at.start),
            shape=(hi - lo, hi - lo))
        lus.append(spla.splu(block, permc_spec="NATURAL", diag_pivot_thresh=0,
                             relax=2, panel_size=2))

    def solve(b):
        b = sp.csr_matrix(b)[eqs]
        out_rows, out_cols, vals = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)], [np.empty(0)]
        for (lo, hi), lu in zip(spans, lus):
            at = slice(b.indptr[lo], b.indptr[hi])
            used, col = np.unique(b.indices[at], return_inverse=True)
            if used.size:
                rhs = np.zeros((hi - lo, used.size))
                rhs[np.repeat(np.arange(hi - lo), np.diff(b.indptr[lo:hi + 1])), col] = b.data[at]
                out_rows.append(np.repeat(cols[lo:hi], used.size))
                out_cols.append(np.tile(used, hi - lo))
                vals.append(lu.solve(rhs).ravel())
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(out_rows), np.concatenate(out_cols))),
            shape=(cols.size + 1, b.shape[1]))

    def solve_transposed(r):
        y = np.zeros(rows.count)
        rg = r[cols]
        for (lo, hi), lu in zip(spans, lus):
            y[eqs[lo:hi]] = lu.solve(rg[lo:hi], trans="T")
        return y

    w0 = 2.0 - net.v0
    state = -w0 * solve(a[:, [0]]).toarray()[:, 0]
    state[0] = w0
    return ReferenceFactors(state, solve, solve_transposed)


def dense_loss_factors(net, ti, state, sens):
    """Dense reference for ``pricing.loss_factors``: the loss gradient chained
    through the n x n modified-injection sensitivity matrices ``sens`` (from
    ``pricing.modified_injection_sensitivities``)."""
    _, _, p_hat, q_hat, _ = pricing._state_injections(state)
    t = path_matrix(ti)
    f = t @ p_hat
    g = t @ q_hat
    trf = t.T @ (ti.r * f)
    trg = t.T @ (ti.r * g)
    txf = t.T @ (ti.x * f)
    txg = t.T @ (ti.x * g)
    dp_dp, dp_dq, dq_dp, dq_dq = sens
    dpl_dp = 2.0 * (dp_dp.T @ trf + dq_dp.T @ trg)
    dpl_dq = 2.0 * (dp_dq.T @ trf + dq_dq.T @ trg)
    dql_dp = 2.0 * (dp_dp.T @ txf + dq_dp.T @ txg)
    dql_dq = 2.0 * (dp_dq.T @ txf + dq_dq.T @ txg)
    return dpl_dp, dpl_dq, dql_dp, dql_dq


# ---------------------------------------------------------------------------
# Reference OPF builder: the string-keyed formulation with explicit V and
# Pinj/Qinj variables (6n+2g+4 variables, 6n+6 equality rows). The lean
# builder in ``mdopf`` substitutes V = 2 - W and folds the injections into
# the balance rows; tests compare the two on the same interior-point solver.
# The problem carries no names, so the reference keeps its own.
# ---------------------------------------------------------------------------


class ReferenceOpf(NamedTuple):
    """The reference QCQP with the names of its variables and equality rows."""

    prob: QcqpProblem
    var_map: dict[str, int]
    eq_labels: tuple[str, ...]

def reference_var_layout(net, ti):
    names = []
    all_buses = [net.slack, *ti.order]
    for prefix in ("W", "V", "Pinj", "Qinj"):
        names.extend(f"{prefix}:{b}" for b in all_buses)
    for prefix in ("Pbr", "Qbr"):
        names.extend(_reference_brname(net, ti, prefix, i) for i in range(ti.n))
    glist = mdopf.var_blocks(net).gens
    names.extend(f"Pg:{b}" for b in glist)
    names.extend(f"Qg:{b}" for b in glist)
    return {name: i for i, name in enumerate(names)}


def _reference_brname(net, ti, prefix, i):
    pp = ti.parent_pos[i]
    parent = net.slack if pp < 0 else ti.order[pp]
    return f"{prefix}:{parent}-{ti.order[i]}"


def _reference_stack_rows(rows, n_vars):
    data, ri, ci = [], [], []
    b = np.empty(len(rows))
    labels = []
    for k, (coeffs, rhs, label) in enumerate(rows):
        for j, val in coeffs.items():
            ri.append(k)
            ci.append(j)
            data.append(val)
        b[k] = rhs
        labels.append(label)
    a = sp.csr_matrix((data, (ri, ci)), shape=(len(rows), n_vars))
    return a, b, tuple(labels)


def reference_objective(net, ti):
    """Exact (H, g, c) over the reference variables."""
    var = reference_var_layout(net, ti)
    n_vars = len(var)
    base = net.base_power
    g = np.zeros(n_vars)
    slack_gen = bus_record(net, net.slack).gen
    if slack_gen is None:
        raise mdopf.MdopfError("supply point has no generator")
    g[var[f"Pg:{net.slack}"]] = net.v0 * slack_gen.cost_p * base
    g[var[f"Qg:{net.slack}"]] = net.v0 * slack_gen.cost_q * base
    dg = [b for b in mdopf.var_blocks(net).gens if b != net.slack]
    if not dg:
        return sp.csr_matrix((n_vars, n_vars)), g, 0.0
    load_state = mdistflow.solve_fixed_load(net)
    pos = netmodel.tree_positions(net)
    order_pos = {b: i for i, b in enumerate(ti.order)}
    cp = np.array([bus_record(net, b).gen.cost_p for b in dg])
    cq = np.array([bus_record(net, b).gen.cost_q for b in dg])
    for b in dg:
        gen = bus_record(net, b).gen
        g[var[f"Pg:{b}"]] = load_state.v[pos[b]] * gen.cost_p * base
        g[var[f"Qg:{b}"]] = load_state.v[pos[b]] * gen.cost_q * base
    t_g = path_matrix(ti)[:, [order_pos[b] for b in dg]]
    a_g = (t_g.T @ sp.diags(ti.r) @ t_g).toarray()
    b_g = (t_g.T @ sp.diags(ti.x) @ t_g).toarray()
    m = np.block([[a_g * cp, a_g * cq], [b_g * cp, b_g * cq]]) * base
    idx = [var[f"Pg:{b}"] for b in dg] + [var[f"Qg:{b}"] for b in dg]
    h = sp.lil_matrix((n_vars, n_vars))
    h[np.ix_(idx, idx)] = 0.5 * (m + m.T)
    return h.tocsr(), g, 0.0


def reference_build(net, ti) -> ReferenceOpf:
    """The reference QCQP, with the same certificate and PSD projection as
    ``mdopf.build``, and its names."""
    var = reference_var_layout(net, ti)
    n_vars = len(var)
    glist = mdopf.var_blocks(net).gens
    h, g, c = reference_objective(net, ti)
    if not mdopf.certify_convexity(h).psd:
        h = mdopf.psd_projection(h)

    rows = []
    all_buses = [net.slack, *ti.order]
    rows.append(({var[f"V:{net.slack}"]: 1.0}, net.v0, "v_slack"))
    for b in all_buses:
        rows.append(({var[f"V:{b}"]: 1.0, var[f"W:{b}"]: 1.0}, 2.0, f"v_def:{b}"))
    children = {-1: []}
    for i in range(ti.n):
        children.setdefault(ti.parent_pos[i], []).append(i)
        children.setdefault(i, [])
    for axis, brkey, injkey in (("p", "Pbr", "Pinj"), ("q", "Qbr", "Qinj")):
        coeffs = {var[f"{injkey}:{net.slack}"]: 1.0}
        for j in children[-1]:
            coeffs[var[_reference_brname(net, ti, brkey, j)]] = -1.0
        rows.append((coeffs, 0.0, f"{axis}_balance:{net.slack}"))
        for i, bus_id in enumerate(ti.order):
            coeffs = {var[_reference_brname(net, ti, brkey, i)]: 1.0,
                      var[f"{injkey}:{bus_id}"]: 1.0}
            for j in children[i]:
                coeffs[var[_reference_brname(net, ti, brkey, j)]] = -1.0
            rows.append((coeffs, 0.0, f"{axis}_balance:{bus_id}"))
    for i, bus_id in enumerate(ti.order):
        pp = ti.parent_pos[i]
        parent = net.slack if pp < 0 else ti.order[pp]
        rows.append(({var[f"W:{bus_id}"]: 1.0, var[f"W:{parent}"]: -1.0,
                      var[_reference_brname(net, ti, "Pbr", i)]: -ti.r[i],
                      var[_reference_brname(net, ti, "Qbr", i)]: -ti.x[i]},
                     0.0, f"w_drop:{parent}-{bus_id}"))
    for axis, injkey, gkey in (("p", "Pinj", "Pg"), ("q", "Qinj", "Qg")):
        for b in all_buses:
            load = bus_record(net, b).p_load if axis == "p" else bus_record(net, b).q_load
            coeffs = {var[f"{injkey}:{b}"]: 1.0, var[f"W:{b}"]: load}
            if b in glist:
                coeffs[var[f"{gkey}:{b}"]] = -1.0
            rows.append((coeffs, 0.0, f"{axis}_inj_def:{b}"))
    a_eq, b_eq, eq_labels = _reference_stack_rows(rows, n_vars)

    irows = []
    for b in glist:
        gen = bus_record(net, b).gen
        w = var[f"W:{b}"]
        irows.append(({var[f"Pg:{b}"]: 1.0, w: -gen.p_max}, 0.0, f"pg_cap:{b}"))
        irows.append(({var[f"Pg:{b}"]: -1.0, w: gen.p_min}, 0.0, f"pg_floor:{b}"))
        irows.append(({var[f"Qg:{b}"]: 1.0, w: -gen.q_max}, 0.0, f"qg_cap:{b}"))
        irows.append(({var[f"Qg:{b}"]: -1.0, w: gen.q_min}, 0.0, f"qg_floor:{b}"))
    for b in ti.order:
        bus = bus_record(net, b)
        irows.append(({var[f"W:{b}"]: 1.0}, 2.0 - bus.v_min, f"v_floor:{b}"))
        irows.append(({var[f"W:{b}"]: -1.0}, -(2.0 - bus.v_max), f"v_cap:{b}"))
    a_in, b_in, _ = _reference_stack_rows(irows, n_vars)

    # per rated branch Pbr^2 + Qbr^2: the Pbr rows, then the Qbr rows
    rated = [i for i in range(ti.n) if not np.isnan(ti.i_max[i])]
    qrows = [({var[_reference_brname(net, ti, key, i)]: 1.0}, 0.0, "")
             for key in ("Pbr", "Qbr") for i in rated]
    quad_m, quad_c, _ = _reference_stack_rows(qrows, n_vars)
    prob = QcqpProblem(
        n_vars=n_vars, h=h, g=g, c=c,
        a_eq=a_eq, b_eq=b_eq, a_in=a_in, b_in=b_in,
        quad_m=quad_m, quad_c=quad_c, quad_b=np.array([ti.i_max[i] ** 2 for i in rated]),
    )
    return ReferenceOpf(prob, var, eq_labels)


def reference_extract_duals(ref, sol):
    """Shadow prices of the reference injection-definition rows, keyed by bus."""
    lam_p, lam_q = {}, {}
    for i, label in enumerate(ref.eq_labels):
        if label.startswith("p_inj_def:"):
            lam_p[int(label.split(":")[1])] = float(sol.duals_eq[i])
        elif label.startswith("q_inj_def:"):
            lam_q[int(label.split(":")[1])] = float(sol.duals_eq[i])
    return lam_p, lam_q


def reference_recover_dispatch(net, ti, ref, sol):
    """Dispatch (pg, qg dicts) and state from a reference solution."""
    x = sol.x
    var = ref.var_map
    pg, qg = {}, {}
    for b in mdopf.var_blocks(net).gens:
        w = x[var[f"W:{b}"]]
        pg[b] = float(x[var[f"Pg:{b}"]] / w)
        qg[b] = float(x[var[f"Qg:{b}"]] / w)
    p_hat = np.array([x[var[f"Pinj:{b}"]] for b in ti.order])
    q_hat = np.array([x[var[f"Qinj:{b}"]] for b in ti.order])
    w_r = np.array([x[var[f"W:{b}"]] for b in ti.order])
    return pg, qg, mdistflow.state_from_solution(net, p_hat, q_hat, w_r)


# ---------------------------------------------------------------------------
# The unscreened generator-space OPF: every row that ``mdopf.build`` would
# hold without presolve, the reference for the screen. Its layout is
# ``mdopf.VarBlocks`` with every rated branch in ``rated``.
# ---------------------------------------------------------------------------


class UnscreenedOpf(NamedTuple):
    """The unscreened problem, its layout, and its rows' coefficients on
    the state (``flow_equations``' columns)."""

    prob: QcqpProblem
    lay: mdopf.VarBlocks
    eq_state: sp.csr_matrix
    in_state: sp.csr_matrix


def unscreened_build(net) -> UnscreenedOpf:
    """Every row of the generator-space OPF, with the same objective,
    certificate and PSD projection as ``mdopf.build``. Equality rows: the
    slack's balance; inequality rows: pg_cap, pg_floor, qg_cap, qg_floor per
    generator, then v_floor and v_cap per non-slack bus; one thermal row
    per rated branch, the squares of its Pbr and Qbr in the state that the
    outputs imply."""
    ti = netmodel.path_incidence(net)
    cols = netmodel.columns(net)
    n = ti.n
    gen_w = mdopf.var_blocks(net).gen_w
    n_gen = gen_w.size
    rated = np.flatnonzero(~np.isnan(cols.i_max))
    lay = mdopf.VarBlocks(mdopf.var_blocks(net).gens, gen_w, rated, 0, n_gen, 2 * n_gen)
    n_vars = lay.n_vars
    rows = mdistflow.FlowRows(n)
    gen = sp.lil_matrix((rows.count, n_vars))
    for j, k in enumerate(gen_w):
        gen[rows.p_bal + k, lay.pg + j] = 1.0
        gen[rows.q_bal + k, lay.qg + j] = 1.0
    flows = mdistflow.flow_equations(ti, np.concatenate([[0.0], -cols.p_load[1:]]),
                                     np.concatenate([[0.0], -cols.q_load[1:]]))
    fac = mdistflow.load_factors(net)
    state_map = -fac.solve(gen.tocsr())

    # the slack's balance rows: its load on W0 and the flows out of it,
    # which are ``flow_equations``' rows with W0's load column
    balance = sp.lil_matrix((2, 3 * n + 1))
    balance[:, :] = flows[[rows.p_bal, rows.q_bal]]
    balance[0, 0], balance[1, 0] = -cols.p_load[0], -cols.q_load[0]
    eq_state = balance.tocsr()
    eq_state.eliminate_zeros()
    eq_vars = gen.tocsr()[[rows.p_bal, rows.q_bal]]

    in_state = sp.lil_matrix((4 * n_gen + 2 * n, 3 * n + 1))
    in_vars = sp.lil_matrix((4 * n_gen + 2 * n, n_vars))
    b_in = np.zeros(4 * n_gen + 2 * n)
    for j, k in enumerate(gen_w):
        limits = (cols.p_max[k], cols.p_min[k], cols.q_max[k], cols.q_min[k])
        for i, (sign, col, limit) in enumerate(zip((1.0, -1.0, 1.0, -1.0),
                                                   (lay.pg + j, lay.pg + j, lay.qg + j, lay.qg + j),
                                                   limits)):
            in_vars[4 * j + i, col] = sign
            in_state[4 * j + i, k] = -sign * limit
    for k in range(n):
        row = 4 * n_gen + 2 * k
        in_state[row, k + 1], b_in[row] = 1.0, 2.0 - cols.v_min[k + 1]
        in_state[row + 1, k + 1], b_in[row + 1] = -1.0, cols.v_max[k + 1] - 2.0
    in_state, in_vars = in_state.tocsr(), in_vars.tocsr()

    h, g, c = mdopf.build_objective(net)
    cert = mdopf.certify_convexity(h)
    if not cert.psd:
        h = mdopf.psd_projection(h)
    flow_cols = np.concatenate([n + 1 + rated, 2 * n + 1 + rated])
    prob = QcqpProblem(
        n_vars=n_vars, h=h, g=g, c=c,
        a_eq=(eq_vars + eq_state @ state_map).tocsr(), b_eq=-(eq_state @ fac.state),
        a_in=(in_vars + in_state @ state_map).tocsr(), b_in=b_in - in_state @ fac.state,
        quad_m=state_map.tocsr()[flow_cols], quad_c=fac.state[flow_cols],
        quad_b=cols.i_max[rated] ** 2, certificate=cert,
    )
    return UnscreenedOpf(prob, lay, eq_state, in_state)


def unscreened_balance_prices(net, ref: UnscreenedOpf, sol):
    """``mdopf.balance_prices`` from every row of the unscreened problem: the
    thermal row of branch k adds 2 mu (Pbr, Qbr) at its flow columns."""
    lam = qcqpsolver.extract_duals(ref.prob, sol, np.arange(ref.prob.n_eq))
    n = netmodel.path_incidence(net).n
    rhs = ref.in_state.T @ sol.duals_in - ref.eq_state.T @ lam
    for k, mu, (m, c) in zip(ref.lay.rated, sol.duals_quad, quad_rows(ref.prob)):
        rhs[[n + 1 + k, 2 * n + 1 + k]] += 2.0 * mu * (c + m @ sol.x)
    prices = mdistflow.load_factors(net).solve_transposed(rhs)
    rows = mdistflow.FlowRows(n)
    prices[[rows.p_bal, rows.q_bal]] = lam[-2:]
    return prices[rows.p_bal:rows.q_bal], prices[rows.q_bal:rows.drop]


def rated_network(net, factor: float, own: bool = True) -> Network:
    """``net`` with every branch rated at ``factor`` times its own load-only
    flow magnitude (``own``) or the largest one."""
    state = mdistflow.solve_fixed_load(net)
    flow = np.hypot(state.p_br_hat, state.q_br_hat)
    # branch k of the load flow is the branch into path-incidence order[k]
    ti = netmodel.path_incidence(net)
    into = {b: k for k, b in enumerate(ti.order)}
    parent = {b: net.slack if p < 0 else ti.order[p] for b, p in zip(ti.order, ti.parent_pos)}
    branches = []
    for br in branch_records(net):
        child = br.to_bus if parent.get(br.to_bus) == br.from_bus else br.from_bus
        cap = flow[into[child]] if own else flow.max()
        branches.append(br._replace(i_max=factor * float(cap)))
    return with_records(net, branches=branches)


def reference_duplicate_system(net, copies, seed=0, scale_lo=0.7, scale_hi=1.3):
    """Record-by-record reference for ``netmodel.duplicate_system``: the same
    random draws in the same order, each copied bus and branch made with
    ``_replace`` and scaled by numpy scalars."""
    rng = np.random.default_rng(seed)
    slack_bus = bus_record(net, net.slack)
    slack_gen = slack_bus.gen
    if slack_gen is not None:
        slack_gen = replace(
            slack_gen,
            p_min=slack_gen.p_min * copies, p_max=slack_gen.p_max * copies,
            q_min=slack_gen.q_min * copies, q_max=slack_gen.q_max * copies,
        )
    buses = [Bus(id=1, p_load=slack_bus.p_load * copies, q_load=slack_bus.q_load * copies,
                 v_min=slack_bus.v_min, v_max=slack_bus.v_max, gen=slack_gen)]
    nonslack = [b for b in bus_records(net) if b.id != net.slack]
    n, rows = len(nonslack), branch_records(net)
    branches = []
    for c in range(copies):
        idmap = {net.slack: 1}
        for i, b in enumerate(nonslack):
            idmap[b.id] = 2 + c * n + i
        load_f = rng.uniform(scale_lo, scale_hi, size=n)
        for i, b in enumerate(nonslack):
            buses.append(b._replace(id=idmap[b.id], p_load=b.p_load * load_f[i],
                                    q_load=b.q_load * load_f[i]))
        imp_f = rng.uniform(scale_lo, scale_hi, size=len(rows))
        for j, br in enumerate(rows):
            branches.append(br._replace(from_bus=idmap[br.from_bus], to_bus=idmap[br.to_bus],
                                       r=br.r * imp_f[j], x=br.x * imp_f[j]))
    return with_records(net, buses, branches, slack=1)


def tree_buses(net):
    """Bus records in array order (the slack, then ``tree_positions``
    order), looked up one by one."""
    rows = {b.id: b for b in bus_records(net)}
    return [rows[b] for b in netmodel.tree_positions(net)]


def dense_objective_h(net, ti):
    """Dense reference for the quadratic of ``mdopf.build_objective``: the
    generator block formed as one dense 2g x 2g array, symmetrized and
    gathered with ``np.nonzero``."""
    lay = mdopf.var_blocks(net)
    buses = tree_buses(net)
    w = lay.gen_w[1:]
    cp = np.array([buses[k].gen.cost_p for k in w])
    cq = np.array([buses[k].gen.cost_q for k in w])
    t_g = path_matrix(ti)[:, w - 1]
    a_g = (t_g.T @ t_g.multiply(ti.r[:, None])).toarray()
    b_g = (t_g.T @ t_g.multiply(ti.x[:, None])).toarray()
    m = np.block([[a_g * cp, a_g * cq], [b_g * cp, b_g * cq]]) * net.base_power
    block = 0.5 * (m + m.T)
    idx = np.concatenate([lay.pg + 1 + np.arange(w.size), lay.qg + 1 + np.arange(w.size)])
    ri, ci = np.nonzero(block)
    return sp.csr_matrix((block[ri, ci], (idx[ri], idx[ci])), shape=(lay.n_vars, lay.n_vars))


def reference_evaluate_cost(net, ti, p_hat_g, q_hat_g):
    """Closed-form cost split (slack part, load-profile part, quadratic part)
    for given modified generator outputs (dicts keyed by bus id), in $.

    Evaluates the generation cost with voltages taken from the affine
    response to the generator injections; the reference for the objective
    assembly of ``mdopf.build_objective``.
    """
    base = net.base_power
    slack_gen = bus_record(net, net.slack).gen
    c1 = net.v0 * base * (
        slack_gen.cost_p * p_hat_g.get(net.slack, 0.0)
        + slack_gen.cost_q * q_hat_g.get(net.slack, 0.0)
    )
    dg = [b for b in mdopf.var_blocks(net).gens if b != net.slack]
    if not dg:
        return c1, 0.0, 0.0
    load_state = mdistflow.solve_fixed_load(net)
    order_pos = {b: i for i, b in enumerate(ti.order)}
    cols = [order_pos[b] for b in dg]
    t = path_matrix(ti)
    t_g = t[:, cols]
    pvec = np.array([p_hat_g.get(b, 0.0) for b in dg])
    qvec = np.array([q_hat_g.get(b, 0.0) for b in dg])
    cp = np.array([bus_record(net, b).gen.cost_p for b in dg])
    cq = np.array([bus_record(net, b).gen.cost_q for b in dg])
    vd = load_state.v[1:][cols]
    c2 = base * float(vd @ (cp * pvec) + vd @ (cq * qvec))
    dv = t.T @ (ti.r * (t_g @ pvec)) + t.T @ (ti.x * (t_g @ qvec))
    dv_g = np.array([dv[order_pos[b]] for b in dg])
    c3 = base * float(dv_g @ (cp * pvec) + dv_g @ (cq * qvec))
    return c1, c2, c3


def reference_psd_projection(h):
    """``mdopf.psd_projection`` one block at a time: each connected component
    of the symmetric part's support is cut out as a sparse slice, decomposed
    by its own ``np.linalg.eigh`` and clipped at zero."""
    hc = sp.csr_matrix(h)
    support = np.unique(np.concatenate(hc.nonzero()))
    if support.size == 0:
        return hc
    sym = (0.5 * (hc + hc.T)).tocsr()[support][:, support]
    _, label = csgraph.connected_components(sym, directed=False)
    parts = []
    for c in np.unique(label):
        on = np.flatnonzero(label == c)
        vals, vecs = np.linalg.eigh(sym[on][:, on].toarray())
        parts.append((support[on], (vecs * np.maximum(vals, 0.0)) @ vecs.T))
    cut = 1e-14 * max(1.0, max(float(abs(c).max()) for _, c in parts))
    rows, cols, data = [], [], []
    for idx, clipped in parts:
        ri, ci = np.nonzero(np.abs(clipped) >= cut)
        rows.append(idx[ri])
        cols.append(idx[ci])
        data.append(clipped[ri, ci])
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=hc.shape)
