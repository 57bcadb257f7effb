import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from radialopf import acpf, mdistflow, netmodel
from radialopf.acpf import OracleError, PowerFlowError
from radialopf.netmodel import build_path_incidence

from helpers import (
    Branch, Bus, branch_records, bus_records, bus_row, chain_network, leaves_first_permutation,
    mk_case, network, random_tree_network, reference_jacobian, reference_newton_pf,
    with_records,
)


def two_bus_exact_v(net, p_load, q_load):
    """Closed-form receiving-end voltage of a single branch: the high root of
    the quadratic in |V|^2."""
    br = branch_records(net)[0]
    v0 = net.v0
    bq = 2.0 * (br.r * p_load + br.x * q_load) - v0 * v0
    cq = (br.r**2 + br.x**2) * (p_load**2 + q_load**2)
    disc = bq * bq - 4.0 * cq
    return np.sqrt((-bq + np.sqrt(disc)) / 2.0)


def test_zero_load_converges_immediately(case33):
    net = netmodel.with_slack_voltage(case33, 1.05)
    ti = build_path_incidence(net)
    st = acpf.newton_pf(net, p=np.zeros(ti.n), q=np.zeros(ti.n))
    assert st.iterations <= 1
    assert np.allclose(st.v, 1.05)
    assert st.pl_exact == pytest.approx(0.0, abs=1e-14)


def test_two_bus_matches_closed_form(net2):
    st = acpf.newton_pf(net2)
    v_exact = two_bus_exact_v(net2, 1.0, 0.0)
    assert st.v[1] == pytest.approx(v_exact, abs=1e-12)
    # the ratio-model approximation is close but not exact
    assert abs(st.v[1] - 0.989899) < 5e-4


def test_branch_ends_follow_record_order():
    """One array pass gives each branch's end positions and impedance in
    record order, as a loop over the branch rows does, on branches stored
    in random order; it is memoized on the network."""
    rng = np.random.default_rng(12)
    net = random_tree_network(rng, 40)
    rows = branch_records(net)
    net = with_records(net, branches=[rows[i] for i in rng.permutation(len(rows))])
    pos, rows = netmodel.tree_positions(net), branch_records(net)
    f, t, z = acpf._branch_ends(net)
    assert f.tolist() == [pos[br.from_bus] for br in rows]
    assert t.tolist() == [pos[br.to_bus] for br in rows]
    assert z.tolist() == [complex(br.r, br.x) for br in rows]
    assert acpf._branch_ends(net)[0] is f


def test_energy_balance(case33_psp):
    st = acpf.newton_pf(case33_psp)
    p_inj = sum(-b.p_load for b in bus_records(case33_psp) if b.id != case33_psp.slack)
    q_inj = sum(-b.q_load for b in bus_records(case33_psp) if b.id != case33_psp.slack)
    assert abs(st.slack_p + p_inj - st.pl_exact) < 1e-9
    assert abs(st.slack_q + q_inj - st.ql_exact) < 1e-9


def test_newton_deterministic(case33_psp):
    a = acpf.newton_pf(case33_psp)
    b = acpf.newton_pf(case33_psp)
    assert np.array_equal(a.v, b.v) and np.array_equal(a.delta, b.delta)


def test_divergence_reported(net2):
    with pytest.raises(PowerFlowError, match="diverged"):
        acpf.newton_pf(net2, p=np.array([-80.0]), q=np.array([0.0]))


def _fd_jacobian(net, v, delta, h=1e-7):
    """Central finite differences of the complex injection equations."""
    pq = list(range(1, net.n_bus))
    ybus = acpf.admittance(net)

    def s_calc(vm, va):
        vc = vm * np.exp(1j * va)
        return (vc * np.conj(ybus.dot(vc)))[pq]

    m = len(pq)
    j = np.zeros((2 * m, 2 * m))
    for col, i in enumerate(pq):
        va = delta.copy()
        va[i] += h
        sp_ = s_calc(v, va)
        va[i] -= 2 * h
        sm = s_calc(v, va)
        d = (sp_ - sm) / (2 * h)
        j[:m, col] = d.real
        j[m:, col] = d.imag
        vm = v.copy()
        vm[i] += h
        sp_ = s_calc(vm, delta)
        vm[i] -= 2 * h
        sm = s_calc(vm, delta)
        d = (sp_ - sm) / (2 * h)
        j[:m, col + m] = d.real
        j[m:, col + m] = d.imag
    return j


@pytest.mark.parametrize("fixture", ["net2", "case33_psp"])
def test_jacobian_matches_finite_difference(fixture, request):
    net = request.getfixturevalue(fixture)
    st = acpf.newton_pf(net)
    jb = acpf.jacobian_at(net, st.v, st.delta)
    m = len(jb.bus_ids)
    analytic = np.block(
        [[jb.dp_ddelta, jb.dp_dv], [jb.dq_ddelta, jb.dq_dv]]
    )
    fd = _fd_jacobian(net, st.v, st.delta)
    scale = max(1.0, np.abs(fd).max())
    assert np.max(np.abs(analytic - fd)) / scale < 1e-6


def test_jacobian_any_operating_point(case33):
    rng = np.random.default_rng(0)
    v = 1.0 + 0.02 * rng.standard_normal(case33.n_bus)
    delta = 0.01 * rng.standard_normal(case33.n_bus)
    jb = acpf.jacobian_at(case33, v, delta)
    fd = _fd_jacobian(case33, v, delta)
    analytic = np.block([[jb.dp_ddelta, jb.dp_dv], [jb.dq_ddelta, jb.dq_dv]])
    assert np.max(np.abs(analytic - fd)) / max(1.0, np.abs(fd).max()) < 1e-6


def test_jacobian_symmetric_structure():
    # identical branches from the slack, flat symmetric state
    net = netmodel.parse_matpower_case(mk_case(
        [bus_row(1, 3), bus_row(2, pd=0.1), bus_row(3, pd=0.1)],
        [[1, 2, 0.01, 0.03, 0, 0], [1, 3, 0.01, 0.03, 0, 0]],
    ))
    jb = acpf.jacobian_at(net, np.ones(3), np.zeros(3))
    assert np.allclose(jb.dp_ddelta, jb.dp_ddelta.T)


def _fd_voltage_sens(net, p, q, eps=1e-5):
    m = net.n_bus - 1
    dv_dp = np.zeros((m, m))
    dv_dq = np.zeros((m, m))
    for j in range(m):
        for mat, vec in ((dv_dp, p), (dv_dq, q)):
            bump = vec.copy()
            bump[j] += eps
            hi = acpf.newton_pf(net, bump if mat is dv_dp else p,
                                q if mat is dv_dp else bump)
            bump[j] -= 2 * eps
            lo = acpf.newton_pf(net, bump if mat is dv_dp else p,
                                q if mat is dv_dp else bump)
            mat[:, j] = (hi.v[1:] - lo.v[1:]) / (2 * eps)
    return dv_dp, dv_dq


def test_voltage_sensitivities_two_bus(net2):
    st = acpf.newton_pf(net2)
    jb = acpf.jacobian_at(net2, st.v, st.delta)
    dv_dp, dv_dq = acpf.voltage_sensitivities(jb)
    p, q = netmodel.net_injections(net2)
    fd_p, fd_q = _fd_voltage_sens(net2, p, q)
    assert np.max(np.abs(dv_dp - fd_p)) / np.abs(fd_p).max() < 1e-4
    assert np.max(np.abs(dv_dq - fd_q)) / np.abs(fd_q).max() < 1e-4


def test_voltage_sensitivities_case33(case33_psp):
    st = acpf.newton_pf(case33_psp)
    jb = acpf.jacobian_at(case33_psp, st.v, st.delta)
    dv_dp, dv_dq = acpf.voltage_sensitivities(jb)
    p, q = netmodel.net_injections(case33_psp)
    fd_p, fd_q = _fd_voltage_sens(case33_psp, p, q)
    assert np.max(np.abs(dv_dp - fd_p)) / np.abs(fd_p).max() < 1e-3
    assert np.max(np.abs(dv_dq - fd_q)) / np.abs(fd_q).max() < 1e-3


def test_voltage_adjoint_matches_dense_transpose(case33_psp):
    """The adjoint solve equals the dense sensitivities transposed, for one
    or several right-hand sides."""
    st = acpf.newton_pf(case33_psp)
    dv_dp, dv_dq = acpf.voltage_sensitivities(
        acpf.jacobian_at(case33_psp, st.v, st.delta)
    )
    m = case33_psp.n_bus - 1
    u = np.random.default_rng(3).standard_normal((m, 2))
    adj_p, adj_q = acpf.voltage_adjoint(case33_psp, st.v, st.delta, u)
    ref_p = dv_dp.T @ u
    ref_q = dv_dq.T @ u
    assert np.max(np.abs(adj_p - ref_p)) < 1e-12 * np.abs(ref_p).max()
    assert np.max(np.abs(adj_q - ref_q)) < 1e-12 * np.abs(ref_q).max()
    one_p, one_q = acpf.voltage_adjoint(case33_psp, st.v, st.delta, u[:, 0])
    assert one_p.shape == (m,)
    assert np.array_equal(one_p, adj_p[:, 0]) and np.array_equal(one_q, adj_q[:, 0])


def test_voltage_adjoint_zero_voltage_is_singular(case33_psp):
    v = np.zeros(case33_psp.n_bus)
    v[0] = case33_psp.v0
    with pytest.raises(PowerFlowError, match="singular reduced Jacobian"):
        acpf.voltage_adjoint(
            case33_psp, v, np.zeros(case33_psp.n_bus), np.ones(case33_psp.n_bus - 1)
        )


def test_decoupled_limit_ordering():
    # x >> r: voltage responds far more to reactive than to active power
    net = netmodel.parse_matpower_case(mk_case(
        [bus_row(1, 3), bus_row(2, pd=0.1, qd=0.05), bus_row(3, pd=0.1, qd=0.05)],
        [[1, 2, 0.001, 0.2, 0, 0], [2, 3, 0.001, 0.2, 0, 0]],
    ))
    st = acpf.newton_pf(net)
    jb = acpf.jacobian_at(net, st.v, st.delta)
    dv_dp, dv_dq = acpf.voltage_sensitivities(jb)
    assert np.all(np.abs(np.diag(dv_dq)) > np.abs(np.diag(dv_dp)))


def test_fd_oracle_zero_load(case33_psp):
    ti = build_path_incidence(case33_psp)
    z = np.zeros(ti.n)
    price = acpf.fd_price_oracle(case33_psp, 18, "p", p=z, q=z)
    assert price == pytest.approx(30.0, abs=1e-4)


def test_fd_oracle_two_bus_sign(net2):
    price = acpf.fd_price_oracle(net2, 2, "p")
    assert price > 30.0
    price_q = acpf.fd_price_oracle(net2, 2, "q")
    assert price_q > 3.0


def test_fd_oracle_requires_slack_costs(case33):
    with pytest.raises(OracleError, match="no generator"):
        acpf.slack_costs(netmodel.with_generator(case33, case33.slack, None))


def test_fd_oracle_failure_maps_to_oracle_error(net2):
    with pytest.raises(OracleError):
        acpf.fd_price_oracle(net2, 2, "p", p=np.array([-80.0]), q=np.array([0.0]))


def test_warm_start_extreme_case(case33_psp):
    from radialopf import mdistflow as mdf
    net = netmodel.scale_impedance(case33_psp, 2.9)
    stm = mdf.solve_fixed_load(net)
    st = acpf.newton_pf(net, v_start=stm.v, delta_start=stm.delta)
    assert st.max_mismatch < 1e-10


def test_random_tree_balance():
    rng = np.random.default_rng(9)
    net = random_tree_network(rng, 40)
    st = acpf.newton_pf(net)
    p_inj = sum(-b.p_load for b in bus_records(net) if b.id != net.slack)
    assert abs(st.slack_p + p_inj - st.pl_exact) < 1e-9


def _spur_network():
    """Bus 2 hangs straight off the slack; bus 3 heads a feeder of three."""
    buses = [Bus(id=i) for i in range(1, 6)]
    branches = [Branch(1, 2, 0.01, 0.02), Branch(1, 3, 0.02, 0.01),
                Branch(3, 4, 0.01, 0.03), Branch(3, 5, 0.03, 0.01)]
    return network(buses, branches, slack=1)


def _star_network(n):
    """Every non-slack bus hangs straight off the slack: n - 1 feeders of one bus."""
    return network([Bus(id=i) for i in range(1, n + 1)],
                   [Branch(1, i, 0.01 * i, 0.02) for i in range(2, n + 1)], slack=1)


# derandomized trees: random feeders of many shapes, several feeders on one
# slack, a bus straight off the slack, the 2-bus network and a deep chain
TREES = {
    **{f"random-{k}": (lambda k=k: random_tree_network(np.random.default_rng(k), 3 + 7 * k))
       for k in range(14)},
    **{f"feeders-{k}": (lambda k=k: netmodel.duplicate_system(
        random_tree_network(np.random.default_rng(100 + k), 12), 2 + k, seed=k))
       for k in range(3)},
    "spur": _spur_network,
    "star": lambda: _star_network(6),
    "two-bus": lambda: _star_network(2),
    "chain-300": lambda: chain_network(300, 10),
    "chain-feeders": lambda: netmodel.duplicate_system(chain_network(40, 10), 3, seed=5),
}


@pytest.mark.parametrize("name", list(TREES))
def test_tree_jacobian_matches_product_chain(name):
    """At a non-converged point, the tree Jacobian is the product chain's
    with each bus's rows turned to P - Q and P + Q, in leaves-first order,
    and ``jacobian_at`` is the product chain's; the factor has no fill, and
    the adjoint solve matches a pivoting solve of the product chain."""
    net = TREES[name]()
    rng = np.random.default_rng(list(TREES).index(name))
    m = net.n_bus - 1
    v = 1.0 + 0.05 * rng.standard_normal(net.n_bus)
    delta = 0.05 * rng.standard_normal(net.n_bus)
    vc = v * np.exp(1j * delta)
    jac, ref = acpf._tree_jacobian(net, vc), reference_jacobian(net, vc)
    turned = sp.vstack([ref[:m] - ref[m:], ref[:m] + ref[m:]]).tocsr()  # rows P - Q, P + Q
    perm = leaves_first_permutation(m)
    scale = abs(ref).max()
    assert abs(jac - turned[perm][:, perm]).max() <= 1e-12 * scale
    jb = acpf.jacobian_at(net, v, delta)
    dense = np.block([[jb.dp_ddelta, jb.dp_dv], [jb.dq_ddelta, jb.dq_dv]])
    assert np.max(np.abs(dense - ref.toarray())) <= 1e-12 * scale
    lu = acpf._factor(jac, "reduced Jacobian")
    assert lu.L.nnz + lu.U.nnz <= jac.nnz + 2 * m
    u = rng.standard_normal((m, 2))
    adj_p, adj_q = acpf.voltage_adjoint(net, v, delta, u)
    y = spla.splu(ref).solve(np.vstack([np.zeros((m, 2)), u]), trans="T")
    err = max(np.max(np.abs(adj_p - y[:m])), np.max(np.abs(adj_q - y[m:])))
    assert err <= 1e-10 * np.max(np.abs(y))


def test_jacobian_pattern_is_built_once():
    """The pattern is memoized on the network: 2 x 2 blocks for each bus and
    two for each branch between non-slack buses."""
    net = _spur_network()
    pattern = acpf._jacobian_pattern(net)
    assert acpf._jacobian_pattern(net) is pattern
    assert not any(a.flags.writeable for a in pattern)
    assert acpf._tree_jacobian(net, np.ones(net.n_bus, dtype=complex)).nnz == 4 * 4 + 8 * 2


@pytest.mark.parametrize("stress", ["heavy load x1.5", "impedance x2.9"])
def test_newton_matches_reference_iterations(case33_psp, stress):
    """Criterion 2's stressed cases take the iterations of Newton-Raphson on
    the product chain with a pivoting solve, and reach its solution."""
    net = (netmodel.scale_loads(case33_psp, 1.5) if stress.startswith("heavy")
           else netmodel.scale_impedance(case33_psp, 2.9))
    sm = mdistflow.solve_fixed_load(net)
    st = acpf.newton_pf(net, v_start=sm.v, delta_start=sm.delta)
    v, delta, iterations = reference_newton_pf(net, sm.v, sm.delta)
    assert st.iterations == iterations
    assert np.max(np.abs(st.v - v)) < 1e-9 and np.max(np.abs(st.delta - delta)) < 1e-9


def test_voltage_adjoint_ill_conditioned_factor_is_reported():
    """Across a branch with r = x, a leaf turned 90° from its parent at 1 pu
    has a nonsingular block whose first turned pivot, dP/dθ - dQ/dθ, is 0;
    just off that angle the unpivoted factor's solve misses its residual
    bound, and that is reported, not returned."""
    net = netmodel.parse_matpower_case(mk_case(
        [bus_row(1, 3), bus_row(2, pd=0.1), bus_row(3, pd=0.1)],
        [[1, 2, 0.01, 0.03, 0, 0], [2, 3, 0.01, 0.01, 0, 0]]))
    delta = np.array([0.0, 0.0, np.pi / 2 + 1e-13])
    with pytest.raises(PowerFlowError, match="ill-conditioned reduced Jacobian: solve residual"):
        acpf.voltage_adjoint(net, np.ones(3), delta, np.array([1.0, -1.0]))


@pytest.mark.parametrize("x,r", [(0.0, 0.01), (0.01, 0.0)], ids=["resistive", "reactive"])
def test_pure_resistance_or_reactance_feeder_solves_and_prices(x, r):
    """A branch with x = 0 (r = 0) feeding buses with no reactive (active)
    load leaves dP/dθ (dP/d|V|) of those buses about 0 at the solution; the
    turned rows keep the unpivoted factor's pivots away from 0, so Newton
    takes the pivoting reference's iterations and the adjoint solve matches
    a pivoting solve of the product chain."""
    qd, pd = (0.0, 0.1) if x == 0.0 else (0.05, 0.0)
    net = netmodel.parse_matpower_case(mk_case(
        [bus_row(1, 3), bus_row(2, pd=0.1, qd=0.05), bus_row(3, pd=pd, qd=qd),
         bus_row(4, pd=pd / 2, qd=qd / 2)],
        [[1, 2, 0.01, 0.03, 0, 0], [2, 3, r, x, 0, 0], [3, 4, 2 * r, 2 * x, 0, 0]],
    ))
    st = acpf.newton_pf(net)
    v, delta, iterations = reference_newton_pf(net, np.ones(4), np.zeros(4))
    assert st.iterations == iterations and np.max(np.abs(st.v - v)) < 1e-9
    u = np.random.default_rng(1).standard_normal((3, 2))
    adj_p, adj_q = acpf.voltage_adjoint(net, st.v, st.delta, u)
    y = spla.splu(reference_jacobian(net, st.v * np.exp(1j * st.delta))).solve(
        np.vstack([np.zeros((3, 2)), u]), trans="T")
    assert max(np.max(np.abs(adj_p - y[:3])), np.max(np.abs(adj_q - y[3:]))) <= \
        1e-10 * np.max(np.abs(y))


def test_admittance_is_memoized_read_only(case33):
    ybus = acpf.admittance(case33)
    assert acpf.admittance(case33) is ybus
    assert not any(a.flags.writeable for a in (ybus.data, ybus.indices, ybus.indptr))


def test_newton_on_slack_only_network():
    """The slack alone leaves no mismatch to reduce: no iteration and no error."""
    st = acpf.newton_pf(netmodel.parse_matpower_case(mk_case([bus_row(1, 3)], [])))
    assert st.iterations == 0 and st.max_mismatch == 0.0 and st.v.tolist() == [1.0]
