import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radialopf import mdistflow as mdf, mdopf, netmodel, qcqpsolver as qs
from radialopf.mdopf import MdopfError
from radialopf.netmodel import Generator, build_path_incidence

from helpers import (
    bus_row, mk_case, random_tree_network, reference_build, reference_extract_duals,
    reference_recover_dispatch,
)


def scenario_net(case33_psp, bus, price, cost_q=2.0, p_cap=0.1, q_cap=0.05):
    return netmodel.with_generator(
        case33_psp, bus, Generator(0.0, p_cap, 0.0, q_cap, price, cost_q)
    )


# ---------------------------------------------------------------------------
# problem shape
# ---------------------------------------------------------------------------

def test_dimensions_case33_one_dg(case33_psp):
    net = scenario_net(case33_psp, 18, 31.0)
    ti = build_path_incidence(net)
    prob = mdopf.build(net, ti)
    n = ti.n  # 32
    # W per bus; flow pair per branch; P/Q output per generator
    assert prob.n_vars == (n + 1) + 2 * n + 2 * 2
    # slack W, P/Q balance per bus, voltage drop per branch
    assert prob.n_eq == 3 * n + 3
    # four box rows per generator, two voltage rows per non-slack bus
    assert prob.n_in == 4 * 2 + 2 * n
    assert prob.n_quad == 0  # no current ratings in the case
    for name in ("W:1", "W:18", "Pbr:32-33", "Qbr:17-18", "Pg:18", "Qg:1"):
        assert name in prob.var_map
    assert len(prob.var_map) == prob.n_vars
    assert len(prob.eq_labels) == prob.n_eq


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 20), st.integers(0, 2**31 - 1))
def test_equality_row_count_random_trees(n, seed):
    net = random_tree_network(np.random.default_rng(seed), n, gen_frac=0.3)
    ti = build_path_incidence(net)
    prob = mdopf.build(net, ti)
    assert prob.n_eq == 3 * ti.n + 3
    assert prob.n_vars == 3 * ti.n + 1 + 2 * len(mdopf.gen_buses(net, ti))


def test_row_labels_name_buses(case33_psp):
    net = scenario_net(case33_psp, 18, 31.0)
    ti = build_path_incidence(net)
    prob = mdopf.build(net, ti)
    labels = set(prob.eq_labels)
    assert "p_balance:1" in labels and "q_balance:33" in labels
    assert "w_drop:17-18" in labels
    assert "w_slack" in labels
    assert len(labels) == 1 + 2 * 33 + 32


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
    prob = mdopf.build(net, ti)
    assert prob.n_quad == 1
    assert prob.quad_labels == ("thermal:1-2",)
    assert prob.quad_b[0] == pytest.approx(0.25)
    off = netmodel.strip_thermal_limits(net)
    prob_off = mdopf.build(off, build_path_incidence(off))
    assert prob_off.n_quad == 0


def test_build_requires_slack_generator(case33):
    net = netmodel.with_generator(case33, case33.slack, None)
    ti = build_path_incidence(net)
    with pytest.raises(MdopfError, match="no generator"):
        mdopf.build(net, ti)


def test_build_rejects_negative_costs(case33_psp):
    net = scenario_net(case33_psp, 18, -5.0)
    ti = build_path_incidence(net)
    with pytest.raises(MdopfError, match="convexity condition unsatisfied"):
        mdopf.build(net, ti)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_objective_zero_costs_linear(case33):
    net = netmodel.with_slack_costs(case33, 0.0, 0.0)
    ti = build_path_incidence(net)
    h, g, c = mdopf.build_objective(net, ti)
    assert h.nnz == 0
    assert np.count_nonzero(g) == 0 and c == 0.0


def test_objective_single_generator_hand_block(net2):
    # one branch (r, x), one generator at the end with cost (cp, 0):
    # quadratic block is the symmetrization of [[r cp, 0], [x cp, 0]]
    cp = 31.0
    net = netmodel.with_generator(net2, 2, Generator(0.0, 0.5, 0.0, 0.2, cp, 0.0))
    ti = build_path_incidence(net)
    h, g, c = mdopf.build_objective(net, ti)
    var = mdopf._var_layout(net, ti)
    idx = [var["Pg:2"], var["Qg:2"]]
    block = h.toarray()[np.ix_(idx, idx)]
    r, x = 0.01, 0.02
    raw = np.array([[r * cp, 0.0], [x * cp, 0.0]])
    assert np.allclose(block, 0.5 * (raw + raw.T), atol=1e-15)


def test_objective_slack_terms(net2):
    ti = build_path_incidence(net2)
    h, g, c = mdopf.build_objective(net2, ti)
    var = mdopf._var_layout(net2, ti)
    assert g[var["Pg:1"]] == pytest.approx(net2.v0 * 30.0 * net2.base_power)
    assert g[var["Qg:1"]] == pytest.approx(net2.v0 * 3.0 * net2.base_power)


def test_objective_load_profile_weights(case33_psp):
    net = scenario_net(case33_psp, 18, 31.0)
    ti = build_path_incidence(net)
    h, g, c = mdopf.build_objective(net, ti)
    var = mdopf._var_layout(net, ti)
    load_state = mdf.solve_fixed_load(net, ti)
    v18 = load_state.v[netmodel.tree_positions(net)[18]]
    assert g[var["Pg:18"]] == pytest.approx(v18 * 31.0 * net.base_power, rel=1e-12)


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
    ti = build_path_incidence(net)
    h, _, _ = mdopf.build_objective(net, ti)
    cert = mdopf.certify_convexity(-h)
    assert not cert.psd
    assert not cert.trace_condition


def test_raw_quadratic_needs_projection(net2):
    # generic P/Q cost ratios leave the raw quadratic indefinite; the built
    # problem carries its PSD projection, within the clipped distance
    net = netmodel.with_generator(net2, 2, Generator(0.0, 0.5, 0.0, 0.2, 31.0, 2.0))
    ti = build_path_incidence(net)
    h_exact, _, _ = mdopf.build_objective(net, ti)
    cert = mdopf.certify_convexity(h_exact)
    assert not cert.psd and cert.min_eigenvalue < 0
    prob = mdopf.build(net, ti)
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
        ti = build_path_incidence(net)
        prob = mdopf.build(net, ti)
        assert mdopf.certify_convexity(prob.h).psd


def test_no_dg_fails_trace_condition(case33_psp):
    # no distributed generation: the cost quadratic is zero, PSD with zero trace
    prob = mdopf.build(case33_psp, build_path_incidence(case33_psp))
    assert prob.certificate.psd and not prob.certificate.trace_condition


# ---------------------------------------------------------------------------
# solve and dispatch recovery
# ---------------------------------------------------------------------------

def test_two_bus_slack_serves_load(net2):
    ti, _, sol, state = mdopf.solve_opf(net2)
    rep = mdf.losses(ti, state)
    # exact model identity: slack modified output balances the withdrawals
    w0 = 2.0 - net2.v0
    assert sol.pg[1] * w0 == pytest.approx(-np.sum(state.p_hat), abs=1e-7)
    assert sol.qg[1] * w0 == pytest.approx(-np.sum(state.q_hat), abs=1e-7)
    # and physically it covers the load plus losses, to model accuracy
    assert sol.pg[1] == pytest.approx(1.0 + rep.pl, abs=5e-4)


def test_zero_modified_output_zero_dispatch(net2):
    net = netmodel.with_generator(net2, 2, Generator(0.0, 0.5, 0.0, 0.2, 60.0, 60.0))
    sol = mdopf.solve_opf(net)[2]
    # the expensive unit stays off; division by W keeps it exactly off-scale
    assert abs(sol.pg[2]) < 1e-6


def test_table_dispatch_scenario_1(case33_psp):
    net = scenario_net(case33_psp, 18, 31.0)
    sol = mdopf.solve_opf(net)[2]
    assert sol.objective_value == pytest.approx(122.16, rel=0.005)
    assert sol.pg[18] * net.base_power == pytest.approx(0.624, abs=0.02)
    assert sol.qg[18] * net.base_power == pytest.approx(0.5, abs=1e-3)


def test_table_dispatch_scenario_3_at_capacity(case33_psp):
    net = scenario_net(case33_psp, 33, 31.0)
    sol = mdopf.solve_opf(net)[2]
    assert sol.pg[33] * net.base_power == pytest.approx(1.000, abs=0.02)


def test_reconstructed_state_residual(case33_psp):
    net = scenario_net(case33_psp, 18, 31.0)
    ti, _, _, state = mdopf.solve_opf(net)
    w0 = 2.0 - net.v0
    t = ti.t
    w_expect = (
        w0
        - t.T @ (ti.r * (t @ state.p_hat))
        - t.T @ (ti.x * (t @ state.q_hat))
    )
    assert np.max(np.abs(state.w[1:] - w_expect)) < 1e-8


def test_objective_matches_closed_form_cost(case33_psp):
    net = scenario_net(case33_psp, 18, 31.0)
    ti, prob, sol, _ = mdopf.solve_opf(net)
    h_exact, g, c = mdopf.build_objective(net, ti)
    x = sol.x
    var = prob.var_map
    phg = {b: x[var[f"Pg:{b}"]] for b in mdopf.gen_buses(net, ti)}
    qhg = {b: x[var[f"Qg:{b}"]] for b in mdopf.gen_buses(net, ti)}
    c1, c2, c3 = mdopf.evaluate_cost(net, ti, phg, qhg)
    f_exact = float(x @ (h_exact @ x) + g @ x + c)
    assert f_exact == pytest.approx(c1 + c2 + c3, rel=1e-8)


def test_recover_rejects_nonphysical_w(net2):
    ti = build_path_incidence(net2)
    prob = mdopf.build(net2, ti)
    sol = qs.solve(prob)
    bad_x = sol.x.copy()
    bad_x[prob.var_map["W:1"]] = -0.5
    from dataclasses import replace
    with pytest.raises(MdopfError, match="nonphysical"):
        mdopf.recover_dispatch(net2, ti, prob, replace(sol, x=bad_x))


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
    _, prob, sol, _ = mdopf.solve_opf(binding_thermal_net())
    assert prob.n_quad == 1
    i_p = prob.var_map["Pbr:1-2"]
    i_q = prob.var_map["Qbr:1-2"]
    flow_sq = sol.x[i_p] ** 2 + sol.x[i_q] ** 2
    assert flow_sq == pytest.approx(0.64, abs=1e-6)
    assert sol.duals_quad[0] > 1e-3
    # the local unit covers what the limited import cannot
    assert sol.pg[2] > 0.15


# ---------------------------------------------------------------------------
# lean builder vs the reference builder with V and Pinj/Qinj variables
# ---------------------------------------------------------------------------

TIGHT = qs.SolverConfig(tol_gap=1e-11, tol_feas=1e-11)


def assert_matches_reference(net):
    """Same IPM on both formulations: dispatch within 1e-6 pu, objective
    within 1e-8 relative, balance-row prices within 1e-6 of the largest."""
    ti = build_path_incidence(net)
    lean = mdopf.build(net, ti)
    ref = reference_build(net, ti)
    assert lean.n_vars + lean.n_eq < ref.n_vars + ref.n_eq
    sol_l, sol_r = qs.solve(lean, TIGHT), qs.solve(ref, TIGHT)
    assert sol_l.status == sol_r.status == "optimal"
    sol_l, _ = mdopf.recover_dispatch(net, ti, lean, sol_l)
    pg, qg, _ = reference_recover_dispatch(net, ti, ref, sol_r)
    assert sol_l.pg.keys() == pg.keys()
    for b in pg:
        assert abs(sol_l.pg[b] - pg[b]) < 1e-6, b
        assert abs(sol_l.qg[b] - qg[b]) < 1e-6, b
    assert sol_l.objective_value == pytest.approx(sol_r.objective_value, rel=1e-8)
    assert np.allclose(sol_l.duals_quad, sol_r.duals_quad, rtol=1e-6, atol=1e-9)
    lean_duals = qs.extract_duals(lean, sol_l)
    ref_duals = reference_extract_duals(ref, sol_r)
    for lam_l, lam_r in zip(lean_duals, ref_duals):
        assert lam_l.keys() == lam_r.keys() == {net.slack, *ti.order}
        scale = max(abs(v) for v in lam_r.values())
        for b in lam_r:
            assert abs(lam_l[b] - lam_r[b]) <= 1e-6 * scale, b


def test_lean_builder_matches_reference_case33_four_dgs(case33_psp):
    net = case33_psp
    for bus in (18, 22, 25, 33):
        net = netmodel.with_generator(net, bus, Generator(0.0, 0.02, 0.0, 0.01, 31.0, 4.0))
    assert_matches_reference(net)


def test_lean_builder_matches_reference_case69_x3(case69):
    net = netmodel.with_slack_costs(netmodel.with_slack_voltage(case69, 1.05), 30.0, 3.0)
    for bus in (27, 35, 46, 65):
        net = netmodel.with_generator(net, bus, Generator(0.0, 0.02, 0.0, 0.01, 25.0, 2.0))
    assert_matches_reference(netmodel.duplicate_system(net, 3, seed=42))


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
        ti = build_path_incidence(net)
        prob = mdopf.build(net, ti)
        exact = mdopf.certify_convexity(mdopf.build_objective(net, ti)[0])
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
    _, prob, sol, state = mdopf.solve_opf(net)
    lam_p, lam_q = qs.extract_duals(prob, sol)
    pos = netmodel.tree_positions(net)
    for b in (1, 2):
        assert lam_p[b] / state.v[pos[b]] == pytest.approx(30.0, abs=1e-4)
        assert lam_q[b] / state.v[pos[b]] == pytest.approx(3.0, abs=1e-4)


def test_duals_two_bus_near_oracle(net2):
    from radialopf import acpf

    _, prob, sol, state = mdopf.solve_opf(net2)
    lam_p, _ = qs.extract_duals(prob, sol)
    dual_price = lam_p[2] / state.v[netmodel.tree_positions(net2)[2]]
    oracle = acpf.fd_price_oracle(net2, 2, "p")
    assert abs(dual_price - oracle) / oracle < 0.01
