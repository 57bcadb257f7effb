"""Shared test utilities: random radial networks and small oracles."""
import csv
import io
import json

import numpy as np
import scipy.sparse as sp

from radialopf import mdistflow, mdopf, netmodel, pricing
from radialopf.netmodel import Branch, Bus, Generator, Network
from radialopf.qcqpsolver import QcqpProblem


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
    net = Network(
        buses=tuple(buses), branches=tuple(branches), slack=1,
        base_power=10.0, base_voltage=12.66, v0=1.0,
    )
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


def reference_preorder(net):
    """Two-pass reference for the feeder tree search: parents from a
    breadth-first search, then a preorder that visits each bus's children in
    ascending id order. Returns (order, parent_pos) as in ``PathIncidence``."""
    adj = {b.id: [] for b in net.buses}
    for br in net.branches:
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


def dense_loss_factors(net, ti, state, sens):
    """Dense reference for ``pricing.loss_factors``: the loss gradient chained
    through the n x n modified-injection sensitivity matrices ``sens`` (from
    ``pricing.modified_injection_sensitivities``)."""
    _, _, p_hat, q_hat, _ = pricing._state_injections(net, ti, state)
    f = ti.t @ p_hat
    g = ti.t @ q_hat
    trf = ti.t.T @ (ti.r * f)
    trg = ti.t.T @ (ti.r * g)
    txf = ti.t.T @ (ti.x * f)
    txg = ti.t.T @ (ti.x * g)
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
# ---------------------------------------------------------------------------

def reference_var_layout(net, ti):
    names = []
    all_buses = [net.slack, *ti.order]
    for prefix in ("W", "V", "Pinj", "Qinj"):
        names.extend(f"{prefix}:{b}" for b in all_buses)
    for prefix in ("Pbr", "Qbr"):
        names.extend(_reference_brname(net, ti, prefix, i) for i in range(ti.n))
    glist = mdopf.gen_buses(net, ti)
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
    slack_gen = net.bus(net.slack).gen
    if slack_gen is None:
        raise mdopf.MdopfError("supply point has no generator")
    g[var[f"Pg:{net.slack}"]] = net.v0 * slack_gen.cost_p * base
    g[var[f"Qg:{net.slack}"]] = net.v0 * slack_gen.cost_q * base
    dg = [b for b in mdopf.gen_buses(net, ti) if b != net.slack]
    if not dg:
        return sp.csr_matrix((n_vars, n_vars)), g, 0.0
    load_state = mdistflow.solve_fixed_load(net, ti)
    pos = netmodel.tree_positions(net)
    order_pos = {b: i for i, b in enumerate(ti.order)}
    cp = np.array([net.bus(b).gen.cost_p for b in dg])
    cq = np.array([net.bus(b).gen.cost_q for b in dg])
    for b in dg:
        gen = net.bus(b).gen
        g[var[f"Pg:{b}"]] = load_state.v[pos[b]] * gen.cost_p * base
        g[var[f"Qg:{b}"]] = load_state.v[pos[b]] * gen.cost_q * base
    t_g = ti.t[:, [order_pos[b] for b in dg]]
    a_g = (t_g.T @ sp.diags(ti.r) @ t_g).toarray()
    b_g = (t_g.T @ sp.diags(ti.x) @ t_g).toarray()
    m = np.block([[a_g * cp, a_g * cq], [b_g * cp, b_g * cq]]) * base
    idx = [var[f"Pg:{b}"] for b in dg] + [var[f"Qg:{b}"] for b in dg]
    h = sp.lil_matrix((n_vars, n_vars))
    h[np.ix_(idx, idx)] = 0.5 * (m + m.T)
    return h.tocsr(), g, 0.0


def reference_build(net, ti):
    """The reference QCQP, with the same certificate and PSD projection as
    ``mdopf.build``."""
    var = reference_var_layout(net, ti)
    n_vars = len(var)
    glist = mdopf.gen_buses(net, ti)
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
            load = net.bus(b).p_load if axis == "p" else net.bus(b).q_load
            coeffs = {var[f"{injkey}:{b}"]: 1.0, var[f"W:{b}"]: load}
            if b in glist:
                coeffs[var[f"{gkey}:{b}"]] = -1.0
            rows.append((coeffs, 0.0, f"{axis}_inj_def:{b}"))
    a_eq, b_eq, eq_labels = _reference_stack_rows(rows, n_vars)

    irows = []
    for b in glist:
        gen = net.bus(b).gen
        w = var[f"W:{b}"]
        irows.append(({var[f"Pg:{b}"]: 1.0, w: -gen.p_max}, 0.0, f"pg_cap:{b}"))
        irows.append(({var[f"Pg:{b}"]: -1.0, w: gen.p_min}, 0.0, f"pg_floor:{b}"))
        irows.append(({var[f"Qg:{b}"]: 1.0, w: -gen.q_max}, 0.0, f"qg_cap:{b}"))
        irows.append(({var[f"Qg:{b}"]: -1.0, w: gen.q_min}, 0.0, f"qg_floor:{b}"))
    for b in ti.order:
        bus = net.bus(b)
        irows.append(({var[f"W:{b}"]: 1.0}, 2.0 - bus.v_min, f"v_floor:{b}"))
        irows.append(({var[f"W:{b}"]: -1.0}, -(2.0 - bus.v_max), f"v_cap:{b}"))
    a_in, b_in, in_labels = _reference_stack_rows(irows, n_vars)

    qrows, q_b, q_labels = [], [], []
    for i in range(ti.n):
        if np.isnan(ti.i_max[i]):
            continue
        qrows.append(({var[_reference_brname(net, ti, "Pbr", i)]: 1.0,
                       var[_reference_brname(net, ti, "Qbr", i)]: 1.0}, 0.0, ""))
        q_b.append(float(ti.i_max[i] ** 2))
        q_labels.append("thermal:" + _reference_brname(net, ti, "", i)[1:])
    quad_diag, _, _ = _reference_stack_rows(qrows, n_vars)
    return QcqpProblem(
        n_vars=n_vars, h=h, g=g, c=c,
        a_eq=a_eq, b_eq=b_eq, eq_labels=eq_labels,
        a_in=a_in, b_in=b_in, in_labels=in_labels,
        quad_diag=quad_diag, quad_b=np.array(q_b), quad_labels=tuple(q_labels), var_map=var,
    )


def reference_extract_duals(prob, sol):
    """Shadow prices of the reference injection-definition rows, keyed by bus."""
    lam_p, lam_q = {}, {}
    for i, label in enumerate(prob.eq_labels):
        if label.startswith("p_inj_def:"):
            lam_p[int(label.split(":")[1])] = float(sol.duals_eq[i])
        elif label.startswith("q_inj_def:"):
            lam_q[int(label.split(":")[1])] = float(sol.duals_eq[i])
    return lam_p, lam_q


def reference_recover_dispatch(net, ti, prob, sol):
    """Dispatch (pg, qg dicts) and state from a reference solution."""
    x = sol.x
    var = prob.var_map
    pg, qg = {}, {}
    for b in mdopf.gen_buses(net, ti):
        w = x[var[f"W:{b}"]]
        pg[b] = float(x[var[f"Pg:{b}"]] / w)
        qg[b] = float(x[var[f"Qg:{b}"]] / w)
    p_hat = np.array([x[var[f"Pinj:{b}"]] for b in ti.order])
    q_hat = np.array([x[var[f"Qinj:{b}"]] for b in ti.order])
    w_r = np.array([x[var[f"W:{b}"]] for b in ti.order])
    return pg, qg, mdistflow.state_from_solution(net, ti, p_hat, q_hat, w_r)
