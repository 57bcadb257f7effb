"""Shared test utilities: random radial networks and small oracles."""
import numpy as np

from radialopf import netmodel, pricing
from radialopf.netmodel import Branch, Bus, Generator, Network


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
