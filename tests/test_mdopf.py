import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radialopf import mdistflow as mdf, mdopf, netmodel, qcqpsolver as qs
from radialopf.mdopf import MdopfError
from radialopf.netmodel import Generator, build_path_incidence

from helpers import (
    assert_kkt_matches_reference, bus_row, dense_objective_h, mk_case, path_matrix,
    pivoting_factor, random_tree_network, reference_build, reference_evaluate_cost,
    reference_extract_duals, reference_recover_dispatch,
)


def scenario_net(case33_psp, bus, price, cost_q=2.0, p_cap=0.1, q_cap=0.05):
    return netmodel.with_generator(
        case33_psp, bus, Generator(0.0, p_cap, 0.0, q_cap, price, cost_q)
    )


def _four_dg_case33(case33_psp):
    net = case33_psp
    for bus in (18, 22, 25, 33):
        net = netmodel.with_generator(net, bus, Generator(0.0, 0.02, 0.0, 0.01, 31.0, 4.0))
    return net


def _case69_copies(case69, copies, cost_q=2.0):
    net = netmodel.with_slack_costs(netmodel.with_slack_voltage(case69, 1.05), 30.0, 3.0)
    for bus in (27, 35, 46, 65):
        net = netmodel.with_generator(net, bus, Generator(0.0, 0.02, 0.0, 0.01, 25.0, cost_q))
    return netmodel.duplicate_system(net, copies, seed=42)


# ---------------------------------------------------------------------------
# problem shape
# ---------------------------------------------------------------------------

def test_dimensions_case33_one_dg(case33_psp):
    net = scenario_net(case33_psp, 18, 31.0)
    ti = build_path_incidence(net)
    prob = mdopf.build(net)
    n = ti.n  # 32
    # W per bus; flow pair per branch; P/Q output per generator
    assert prob.n_vars == (n + 1) + 2 * n + 2 * 2
    # slack W, P/Q balance per bus, voltage drop per branch
    assert prob.n_eq == 3 * n + 3
    # four box rows per generator, two voltage rows per non-slack bus
    assert prob.n_in == 4 * 2 + 2 * n
    assert prob.n_quad == 0  # no current ratings in the case
    lay = mdopf.var_blocks(net)
    assert lay.gens == (1, 18) and lay.n_vars == prob.n_vars
    assert (lay.pbr, lay.qbr, lay.pg, lay.qg) == (n + 1, 2 * n + 1, 3 * n + 1, 3 * n + 3)
    assert lay.gen_w.tolist() == [0, netmodel.tree_positions(net)[18]]


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 20), st.integers(0, 2**31 - 1))
def test_equality_row_count_random_trees(n, seed):
    net = random_tree_network(np.random.default_rng(seed), n, gen_frac=0.3)
    ti = build_path_incidence(net)
    prob = mdopf.build(net)
    assert prob.n_eq == 3 * ti.n + 3
    assert prob.n_vars == 3 * ti.n + 1 + 2 * len(mdopf.gen_buses(net))


def assert_equalities_are_flow_equations(net):
    """The OPF's balance and drop rows are ``flow_equations`` with the loads
    folded in, entry for entry; the rest of ``a_eq`` is one unit Pg/Qg entry
    per generator in its bus's balance rows."""
    ti = build_path_incidence(net)
    prob = mdopf.build(net)
    buses = netmodel.tree_buses(net)
    flows = mdf.flow_equations(
        ti, -np.array([b.p_load for b in buses]), -np.array([b.q_load for b in buses])
    )
    head = prob.a_eq[:, :3 * ti.n + 1]
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(head, part), getattr(flows, part)), part
    tail = prob.a_eq[:, 3 * ti.n + 1:].tocoo()
    n_gen = len(mdopf.gen_buses(net))
    assert tail.nnz == 2 * n_gen and np.all(tail.data == 1.0)


def test_equalities_are_flow_equations_case33_four_dgs(case33_psp):
    assert_equalities_are_flow_equations(_four_dg_case33(case33_psp))


def test_equalities_are_flow_equations_case69_copies(case69):
    assert_equalities_are_flow_equations(_case69_copies(case69, 10))


def test_thermal_rows():
    text = mk_case(
        [bus_row(1, 3), bus_row(2, pd=0.5), bus_row(3, pd=0.5)],
        [[1, 2, 0.01, 0.02, 0, 5.0], [2, 3, 0.01, 0.02, 0, 0]],
        base=10.0,
        gen_rows=[[1, 0, 0, 10, -10, 1, 10, 1, 10, 0]],
        gencost_rows=[[2, 0, 0, 2, 30, 0]],
    )
    net = netmodel.parse_matpower_case(text)
    ti = build_path_incidence(net)
    prob = mdopf.build(net)
    assert prob.n_quad == 1
    # the one thermal row sits on the flows of branch 1-2
    lay, k = mdopf.var_blocks(net), ti.order.index(2)
    assert sorted(prob.quad_diag.tocoo().col) == [lay.pbr + k, lay.qbr + k]
    assert prob.quad_b[0] == pytest.approx(0.25)
    off = netmodel.strip_thermal_limits(net)
    prob_off = mdopf.build(off)
    assert prob_off.n_quad == 0


def test_build_requires_slack_generator(case33):
    net = netmodel.with_generator(case33, case33.slack, None)
    with pytest.raises(MdopfError, match="no generator"):
        mdopf.build(net)


def test_build_rejects_negative_costs(case33_psp):
    net = scenario_net(case33_psp, 18, -5.0)
    with pytest.raises(MdopfError, match="convexity condition unsatisfied"):
        mdopf.build(net)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_objective_zero_costs_linear(case33):
    net = netmodel.with_slack_costs(case33, 0.0, 0.0)
    h, g, c = mdopf.build_objective(net)
    assert h.nnz == 0
    assert np.count_nonzero(g) == 0 and c == 0.0


def test_objective_single_generator_hand_block(net2):
    # one branch (r, x), one generator at the end with cost (cp, 0):
    # quadratic block is the symmetrization of [[r cp, 0], [x cp, 0]]
    cp = 31.0
    net = netmodel.with_generator(net2, 2, Generator(0.0, 0.5, 0.0, 0.2, cp, 0.0))
    h, g, c = mdopf.build_objective(net)
    lay = mdopf.var_blocks(net)
    assert lay.gens == (1, 2)
    idx = [lay.pg + 1, lay.qg + 1]
    block = h.toarray()[np.ix_(idx, idx)]
    r, x = 0.01, 0.02
    raw = np.array([[r * cp, 0.0], [x * cp, 0.0]])
    assert np.allclose(block, 0.5 * (raw + raw.T), atol=1e-15)


def test_objective_slack_terms(net2):
    h, g, c = mdopf.build_objective(net2)
    lay = mdopf.var_blocks(net2)
    assert lay.gens[0] == net2.slack
    assert g[lay.pg] == pytest.approx(net2.v0 * 30.0 * net2.base_power)
    assert g[lay.qg] == pytest.approx(net2.v0 * 3.0 * net2.base_power)


def test_objective_load_profile_weights(case33_psp):
    net = scenario_net(case33_psp, 18, 31.0)
    h, g, c = mdopf.build_objective(net)
    lay = mdopf.var_blocks(net)
    load_state = mdf.solve_fixed_load(net)
    v18 = load_state.v[netmodel.tree_positions(net)[18]]
    pg18 = lay.pg + lay.gens.index(18)
    assert g[pg18] == pytest.approx(v18 * 31.0 * net.base_power, rel=1e-12)


def assert_objective_matches_dense(net):
    """The sparse generator block is bit-identical to the dense reference."""
    ti = build_path_incidence(net)
    h, _, _ = mdopf.build_objective(net)
    ref = dense_objective_h(net, ti)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(h, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_objective_matches_dense_case33_four_dgs(case33_psp):
    assert_objective_matches_dense(_four_dg_case33(case33_psp))


def test_objective_matches_dense_case69_x3(case69):
    assert_objective_matches_dense(_case69_copies(case69, 3))
    # zero reactive costs leave zero blocks, which the sparse path drops too
    assert_objective_matches_dense(_case69_copies(case69, 3, cost_q=0.0))


def test_objective_matches_dense_random_trees():
    rng = np.random.default_rng(13)
    for _ in range(20):
        net = random_tree_network(rng, int(rng.integers(2, 60)), gen_frac=0.5)
        assert_objective_matches_dense(net)
        assert_objective_matches_dense(netmodel.duplicate_system(net, 3, seed=1))


def test_objective_memory_grows_with_feeders_not_generators(case69):
    # 300 feeders with 4 DGs each (1,201 generators): a dense 2g x 2g
    # generator block peaks near 113 MB; per-feeder sparse blocks do not
    net = _case69_copies(case69, 300)
    netmodel.path_incidence(net)  # the builder's input, memoized outside the trace
    tracemalloc.start()
    try:
        mdopf.build_objective(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_built_problem_holds_no_names(case69):
    # 6,801 buses: the problem's arrays take about 2.1 MB; one name per
    # variable and row (about 57,000 strings) took 4.7 MB more
    net = _case69_copies(case69, 100)
    mdopf.build(net)  # memoizes the per-network bus lookups outside the trace
    tracemalloc.start()
    try:
        prob = mdopf.build(net)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert prob.n_vars + prob.n_eq == 41_606
    assert retained < 3.5e6


# ---------------------------------------------------------------------------
# convexity certificate
# ---------------------------------------------------------------------------

def test_certify_zero_matrix():
    import scipy.sparse as sp
    cert = mdopf.certify_convexity(sp.csr_matrix((5, 5)))
    assert cert.psd and cert.min_eigenvalue == 0.0
    assert not cert.trace_condition


def test_certify_negated_cost_counterexample(case33_psp):
    # flipping a cost sign by hand must flip the verdict
    net = scenario_net(case33_psp, 18, 31.0)
    h, _, _ = mdopf.build_objective(net)
    cert = mdopf.certify_convexity(-h)
    assert not cert.psd
    assert not cert.trace_condition


def test_raw_quadratic_needs_projection(net2):
    # generic P/Q cost ratios leave the raw quadratic indefinite; the built
    # problem carries its PSD projection, within the clipped distance
    net = netmodel.with_generator(net2, 2, Generator(0.0, 0.5, 0.0, 0.2, 31.0, 2.0))
    h_exact, _, _ = mdopf.build_objective(net)
    cert = mdopf.certify_convexity(h_exact)
    assert not cert.psd and cert.min_eigenvalue < 0
    prob = mdopf.build(net)
    assert not prob.certificate.psd and prob.certificate.trace_condition
    cert_built = mdopf.certify_convexity(prob.h)
    assert cert_built.psd
    diff = (prob.h - h_exact).toarray()
    assert np.linalg.norm(diff) <= abs(cert.min_eigenvalue) * np.sqrt(2) + 1e-12


def test_support_blocks_match_dense_decomposition():
    # three coupled blocks scattered over a larger zero matrix: the per-block
    # eigenvalues and projection equal those of the dense support
    import scipy.sparse as sp

    rng = np.random.default_rng(5)
    n = 40
    dense = np.zeros((n, n))
    idx = rng.permutation(n)
    for lo, hi in ((0, 5), (5, 6), (6, 14)):
        m = rng.normal(size=(hi - lo, hi - lo))
        dense[np.ix_(idx[lo:hi], idx[lo:hi])] = m + m.T
    blocks = qs.support_eigh(sp.csr_matrix(dense), vectors=True)
    assert sorted(len(b[0]) for b in blocks) == [1, 5, 8]
    support = np.sort(idx[:14])
    sub = dense[np.ix_(support, support)]
    vals, vecs = np.linalg.eigh(sub)
    got = np.sort(np.concatenate([b[1] for b in blocks]))
    assert np.allclose(got, vals, rtol=0.0, atol=1e-12)
    assert qs.min_eigenvalue(blocks) == pytest.approx(vals[0], abs=1e-12)
    clipped = np.zeros((n, n))
    clipped[np.ix_(support, support)] = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    proj = mdopf.psd_projection(sp.csr_matrix(dense), blocks).toarray()
    assert np.allclose(proj, clipped, rtol=0.0, atol=1e-12)
    assert qs.support_eigh(sp.csr_matrix((4, 4))) == []


def test_built_problem_psd_on_random_trees():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 50))
        net = random_tree_network(rng, n, gen_frac=0.4)
        prob = mdopf.build(net)
        assert mdopf.certify_convexity(prob.h).psd


def test_no_dg_fails_trace_condition(case33_psp):
    # no distributed generation: the cost quadratic is zero, PSD with zero trace
    prob = mdopf.build(case33_psp)
    assert prob.certificate.psd and not prob.certificate.trace_condition


# ---------------------------------------------------------------------------
# solve and dispatch recovery
# ---------------------------------------------------------------------------

def test_two_bus_slack_serves_load(net2):
    _, sol, state = mdopf.solve_opf(net2)
    rep = mdf.losses(net2, state)
    # exact model identity: slack modified output balances the withdrawals
    w0 = 2.0 - net2.v0
    assert sol.pg[1] * w0 == pytest.approx(-np.sum(state.p_hat), abs=1e-7)
    assert sol.qg[1] * w0 == pytest.approx(-np.sum(state.q_hat), abs=1e-7)
    # and physically it covers the load plus losses, to model accuracy
    assert sol.pg[1] == pytest.approx(1.0 + rep.pl, abs=5e-4)


def test_zero_modified_output_zero_dispatch(net2):
    net = netmodel.with_generator(net2, 2, Generator(0.0, 0.5, 0.0, 0.2, 60.0, 60.0))
    sol = mdopf.solve_opf(net)[1]
    # the expensive unit stays off; division by W keeps it exactly off-scale
    assert abs(sol.pg[2]) < 1e-6


def test_table_dispatch_scenario_1(case33_psp):
    net = scenario_net(case33_psp, 18, 31.0)
    sol = mdopf.solve_opf(net)[1]
    assert sol.objective_value == pytest.approx(122.16, rel=0.005)
    assert sol.pg[18] * net.base_power == pytest.approx(0.624, abs=0.02)
    assert sol.qg[18] * net.base_power == pytest.approx(0.5, abs=1e-3)


def test_table_dispatch_scenario_3_at_capacity(case33_psp):
    net = scenario_net(case33_psp, 33, 31.0)
    sol = mdopf.solve_opf(net)[1]
    assert sol.pg[33] * net.base_power == pytest.approx(1.000, abs=0.02)


def test_reconstructed_state_residual(case33_psp):
    net = scenario_net(case33_psp, 18, 31.0)
    _, _, state = mdopf.solve_opf(net)
    w0 = 2.0 - net.v0
    ti = build_path_incidence(net)
    t = path_matrix(ti)
    w_expect = (
        w0
        - t.T @ (ti.r * (t @ state.p_hat))
        - t.T @ (ti.x * (t @ state.q_hat))
    )
    assert np.max(np.abs(state.w[1:] - w_expect)) < 1e-8


def test_objective_matches_closed_form_cost(case33_psp):
    net = scenario_net(case33_psp, 18, 31.0)
    prob, sol, _ = mdopf.solve_opf(net)
    h_exact, g, c = mdopf.build_objective(net)
    x = sol.x
    lay = mdopf.var_blocks(net)
    phg = {b: x[lay.pg + i] for i, b in enumerate(lay.gens)}
    qhg = {b: x[lay.qg + i] for i, b in enumerate(lay.gens)}
    c1, c2, c3 = reference_evaluate_cost(net, build_path_incidence(net), phg, qhg)
    f_exact = float(x @ (h_exact @ x) + g @ x + c)
    assert f_exact == pytest.approx(c1 + c2 + c3, rel=1e-8)


def test_recover_rejects_nonphysical_w(net2):
    prob = mdopf.build(net2)
    sol = qs.solve(prob)
    bad_x = sol.x.copy()
    bad_x[netmodel.tree_positions(net2)[1]] = -0.5  # W of bus 1
    with pytest.raises(MdopfError, match="nonphysical"):
        mdopf.recover_dispatch(net2, replace(sol, x=bad_x))


def binding_thermal_net():
    """Two-bus feeder whose 0.8 pu branch rating is below the natural flow."""
    text = mk_case(
        [bus_row(1, 3), bus_row(2, pd=1.0, qd=0.0, vmax=1.5, vmin=0.5)],
        [[1, 2, 0.01, 0.02, 0, 0.8]],
        base=1.0,
        gen_rows=[[1, 0, 0, 10, -10, 1, 1, 1, 10, 0],
                  [2, 0, 0, 1, 0, 1, 1, 1, 2, 0]],
        gencost_rows=[[2, 0, 0, 2, 30, 0], [2, 0, 0, 2, 50, 0]],
    )
    return netmodel.with_slack_costs(netmodel.parse_matpower_case(text), 30.0, 3.0)


def test_binding_thermal_limit():
    # rating below the natural flow: the quadratic row must bind
    net = binding_thermal_net()
    prob, sol, _ = mdopf.solve_opf(net)
    assert prob.n_quad == 1
    lay, k = mdopf.var_blocks(net), netmodel.path_incidence(net).order.index(2)
    i_p, i_q = lay.pbr + k, lay.qbr + k
    flow_sq = sol.x[i_p] ** 2 + sol.x[i_q] ** 2
    assert flow_sq == pytest.approx(0.64, abs=1e-6)
    assert sol.duals_quad[0] > 1e-3
    # the local unit covers what the limited import cannot
    assert sol.pg[2] > 0.15


# ---------------------------------------------------------------------------
# lean builder vs the reference builder with V and Pinj/Qinj variables
# ---------------------------------------------------------------------------

TIGHT = qs.SolverConfig(tol_gap=1e-11, tol_feas=1e-11)


def balance_duals(net, prob, sol):
    """Shadow prices of the active and reactive balance rows of every bus,
    slack first, then in tree order."""
    rows, buses = mdf.FlowRows(net.n_bus - 1), np.arange(net.n_bus)
    return (qs.extract_duals(prob, sol, rows.p_bal + buses),
            qs.extract_duals(prob, sol, rows.q_bal + buses))


def assert_matches_reference(net):
    """Same IPM on both formulations: dispatch within 1e-6 pu, objective
    within 1e-8 relative, balance-row prices within 1e-6 of the largest."""
    ti = build_path_incidence(net)
    lean = mdopf.build(net)
    ref = reference_build(net, ti)
    assert lean.n_vars + lean.n_eq < ref.prob.n_vars + ref.prob.n_eq
    sol_l, sol_r = qs.solve(lean, TIGHT), qs.solve(ref.prob, TIGHT)
    assert sol_l.status == sol_r.status == "optimal"
    sol_l, _ = mdopf.recover_dispatch(net, sol_l)
    pg, qg, _ = reference_recover_dispatch(net, ti, ref, sol_r)
    assert sol_l.pg.keys() == pg.keys()
    for b in pg:
        assert abs(sol_l.pg[b] - pg[b]) < 1e-6, b
        assert abs(sol_l.qg[b] - qg[b]) < 1e-6, b
    assert sol_l.objective_value == pytest.approx(sol_r.objective_value, rel=1e-8)
    assert np.allclose(sol_l.duals_quad, sol_r.duals_quad, rtol=1e-6, atol=1e-9)
    buses = [net.slack, *ti.order]
    for lam_l, lam_r in zip(balance_duals(net, lean, sol_l), reference_extract_duals(ref, sol_r)):
        assert lam_r.keys() == set(buses)
        lam_r = np.array([lam_r[b] for b in buses])
        scale = np.max(np.abs(lam_r))
        for b, lean_b, ref_b in zip(buses, lam_l, lam_r):
            assert abs(lean_b - ref_b) <= 1e-6 * scale, b


def test_lean_builder_matches_reference_case33_four_dgs(case33_psp):
    assert_matches_reference(_four_dg_case33(case33_psp))


def test_lean_builder_matches_reference_case69_x3(case69):
    assert_matches_reference(_case69_copies(case69, 3))


def test_lean_builder_matches_reference_random_trees():
    rng = np.random.default_rng(11)
    for _ in range(20):
        net = random_tree_network(rng, int(rng.integers(2, 60)), gen_frac=0.4)
        assert_matches_reference(net)


def test_lean_builder_matches_reference_binding_thermal():
    assert_matches_reference(binding_thermal_net())


def test_problem_carries_exact_certificate(net2, case33_psp):
    # the built problem's certificate is that of the unprojected quadratic
    for net in (
        netmodel.with_generator(net2, 2, Generator(0.0, 0.5, 0.0, 0.2, 31.0, 2.0)),
        scenario_net(case33_psp, 18, 31.0),
        case33_psp,
    ):
        prob = mdopf.build(net)
        exact = mdopf.certify_convexity(mdopf.build_objective(net)[0])
        assert prob.certificate.psd == exact.psd
        assert prob.certificate.trace == exact.trace
        assert prob.certificate.min_eigenvalue == pytest.approx(
            exact.min_eigenvalue, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# balance-row shadow prices
# ---------------------------------------------------------------------------

def _interior_slack(net):
    # keep the supply point strictly inside its band so the balance-row
    # multipliers are unique
    g = net.bus(net.slack).gen
    return netmodel.with_generator(
        net, net.slack, Generator(-1.0, g.p_max, g.q_min, g.q_max,
                                  g.cost_p, g.cost_q)
    )


def test_duals_zero_load_equal_psp_cost(net2):
    net = _interior_slack(netmodel.with_load(net2, 2, 0.0, 0.0))
    prob, sol, state = mdopf.solve_opf(net)
    lam_p, lam_q = balance_duals(net, prob, sol)
    pos = netmodel.tree_positions(net)
    for b in (1, 2):
        assert lam_p[pos[b]] / state.v[pos[b]] == pytest.approx(30.0, abs=1e-4)
        assert lam_q[pos[b]] / state.v[pos[b]] == pytest.approx(3.0, abs=1e-4)


def test_duals_two_bus_near_oracle(net2):
    from radialopf import acpf

    prob, sol, state = mdopf.solve_opf(net2)
    lam_p, _ = balance_duals(net2, prob, sol)
    pos = netmodel.tree_positions(net2)[2]
    dual_price = lam_p[pos] / state.v[pos]
    oracle = acpf.fd_price_oracle(net2, 2, "p")
    assert abs(dual_price - oracle) / oracle < 0.01


# ---------------------------------------------------------------------------
# feeder-tree elimination order of the KKT system
# ---------------------------------------------------------------------------

def _kkt_owners(net, ti):
    """Owner of every KKT row (variables, then equality rows), listed block
    by block from the OPF's layout: a non-slack bus id for its W, the flows
    and voltage drop of the branch into it (a branch is named by its child)
    and its balance rows; ("dg", bus) for a distributed generator's Pg/Qg;
    "slack" for the slack's rows and its generator."""
    buses = ["slack", *ti.order]
    gens = ["slack" if b == net.slack else ("dg", b) for b in mdopf.gen_buses(net)]
    variables = [*buses, *ti.order, *ti.order, *gens, *gens]  # W, Pbr, Qbr, Pg, Qg
    equalities = ["slack", *buses, *buses, *ti.order]  # w_slack, p/q balance, w_drop
    return variables + equalities


def assert_tree_order(net):
    ti = build_path_incidence(net)
    prob = mdopf.build(net)
    order = prob.kkt_order
    n_kkt = prob.n_vars + prob.n_eq
    assert np.array_equal(np.sort(order), np.arange(n_kkt))
    owners = _kkt_owners(net, ti)
    assert len(owners) == n_kkt
    at = {}  # owner -> positions of its rows in the elimination order
    for k, row in enumerate(order):
        at.setdefault(owners[row], []).append(k)
    parent = {b: net.slack if pp < 0 else ti.order[pp]
              for b, pp in zip(ti.order, ti.parent_pos)}
    top = {}
    for b in ti.order:  # preorder: parents are settled first
        top[b] = b if parent[b] == net.slack else top[parent[b]]
    for b in ti.order:
        rows = at[b]
        assert len(rows) == 6 and rows[-1] - rows[0] == 5, b  # one contiguous group
        up = at["slack" if parent[b] == net.slack else parent[b]]
        assert rows[-1] < up[0], b
    dg = [owner[1] for owner in at if isinstance(owner, tuple)]
    for t in {top[b] for b in dg}:
        # the feeder's DG rows fill the slots just before its top bus
        feeder_dg = sorted(k for b in dg if top[b] == t for k in at[("dg", b)])
        assert feeder_dg == list(range(at[t][0] - len(feeder_dg), at[t][0])), t
    slack = at["slack"]
    assert slack == list(range(n_kkt - len(slack), n_kkt))


def test_kkt_order_case33_four_dgs(case33_psp):
    net = _four_dg_case33(case33_psp)
    assert_tree_order(net)


def test_kkt_order_case69_x3(case69):
    assert_tree_order(_case69_copies(case69, 3))


def test_kkt_order_random_trees():
    rng = np.random.default_rng(5)
    for _ in range(50):
        net = random_tree_network(rng, int(rng.integers(2, 80)), gen_frac=0.5)
        assert_tree_order(net)


def _factor_nnz(prob, monkeypatch, factor=None):
    """Largest L+U nonzero count over the factorizations of one solve, with
    ``factor`` in place of ``qcqpsolver._Kkt.factor`` when given."""
    nnz = []
    splu = qs.spla.splu

    def counting(a, *args, **kwargs):
        lu = splu(a, *args, **kwargs)
        nnz.append(lu.L.nnz + lu.U.nnz)
        return lu

    with monkeypatch.context() as m:
        m.setattr(qs.spla, "splu", counting)
        if factor is not None:
            m.setattr(qs._Kkt, "factor", factor)
        assert qs.solve(prob).status == "optimal"
    return max(nnz)


def test_tree_order_fill_at_most_default(case69, monkeypatch):
    net = _case69_copies(case69, 10)
    prob = mdopf.build(net)
    tree = _factor_nnz(prob, monkeypatch)
    default = _factor_nnz(prob, monkeypatch, pivoting_factor)
    assert tree <= default


def assert_tree_order_matches_default(net):
    """The tree-ordered solve and SuperLU's own order with pivoting agree at
    the pipeline's tolerance: dispatch within 1e-6 pu, objective within 1e-8
    relative, thermal and balance-row prices within 1e-6 of the largest,
    and the same iteration count."""
    prob = mdopf.build(net)
    sol_t = qs.solve(prob)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(qs._Kkt, "factor", pivoting_factor)
        sol_d = qs.solve(prob)
    assert sol_t.status == sol_d.status == "optimal"
    assert 0.0 < sol_t.stats.factor_seconds < sol_t.stats.runtime_seconds
    assert sol_t.stats.iterations == sol_d.stats.iterations
    sol_t, _ = mdopf.recover_dispatch(net, sol_t)
    sol_d, _ = mdopf.recover_dispatch(net, sol_d)
    for b in sol_d.pg:
        assert abs(sol_t.pg[b] - sol_d.pg[b]) < 1e-6, b
        assert abs(sol_t.qg[b] - sol_d.qg[b]) < 1e-6, b
    assert sol_t.objective_value == pytest.approx(sol_d.objective_value, rel=1e-8)
    if prob.n_quad:
        scale = np.max(np.abs(sol_d.duals_quad))
        assert np.max(np.abs(sol_t.duals_quad - sol_d.duals_quad)) <= 1e-6 * scale
    buses = list(netmodel.tree_positions(net))
    for lam_t, lam_d in zip(balance_duals(net, prob, sol_t), balance_duals(net, prob, sol_d)):
        scale = np.max(np.abs(lam_d))
        for b, tree_b, default_b in zip(buses, lam_t, lam_d):
            assert abs(tree_b - default_b) <= 1e-6 * scale, b


def test_tree_order_matches_default_case33_four_dgs(case33_psp):
    assert_tree_order_matches_default(_four_dg_case33(case33_psp))


def test_tree_order_matches_default_case69_x3(case69):
    assert_tree_order_matches_default(_case69_copies(case69, 3))


def test_tree_order_matches_default_random_trees():
    rng = np.random.default_rng(11)
    for _ in range(20):
        assert_tree_order_matches_default(
            random_tree_network(rng, int(rng.integers(2, 60)), gen_frac=0.4))


def test_tree_order_matches_default_binding_thermal():
    assert_tree_order_matches_default(binding_thermal_net())


def test_kkt_matches_reference_case33_four_dgs(case33_psp):
    net = _four_dg_case33(case33_psp)
    assert_kkt_matches_reference(mdopf.build(net),
                                 np.random.default_rng(0))


def test_kkt_matches_reference_case69_x3(case69):
    net = _case69_copies(case69, 3)
    assert_kkt_matches_reference(mdopf.build(net),
                                 np.random.default_rng(1))


def test_kkt_matches_reference_binding_thermal():
    net = binding_thermal_net()
    prob = mdopf.build(net)
    assert prob.n_quad
    assert_kkt_matches_reference(prob, np.random.default_rng(2))


def test_kkt_matches_reference_random_trees():
    rng = np.random.default_rng(13)
    for _ in range(10):
        net = random_tree_network(rng, int(rng.integers(2, 60)), gen_frac=0.4)
        assert_kkt_matches_reference(mdopf.build(net), rng)


def test_refined_solve_residual_last_iterate(case69, monkeypatch):
    # Without pivoting, a tree-ordered solve of the last iterate's KKT system
    # leaves a componentwise relative residual near 1e-5; the refinement step
    # must bring it to round-off.
    net = _case69_copies(case69, 3)
    prob = mdopf.build(net)
    factored = []
    factor = qs._Kkt.factor

    def keep(self, matrix, failure):
        solve = factor(self, matrix, failure)
        factored.append((self, matrix, solve))
        return solve

    monkeypatch.setattr(qs._Kkt, "factor", keep)
    assert qs.solve(prob).status == "optimal"
    kkt, matrix, solve = factored[-1]
    k = matrix[kkt.pos][:, kkt.pos]  # back to the problem's row order
    b = np.random.default_rng(0).standard_normal(k.shape[0])
    x = solve(b)
    residual = np.abs(b - k @ x) / (abs(k) @ np.abs(x) + np.abs(b))
    assert np.max(residual) < 1e-9
