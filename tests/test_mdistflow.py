import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radialopf import acpf, mdistflow as mdf, mdopf, netmodel
from radialopf.mdistflow import MdfError
from radialopf.netmodel import build_path_incidence

from helpers import random_tree_network, reference_angles
from test_pricing import reverse_flow_net


def sweep_oracle(net, ti, p, q, iters=200, tol=1e-15):
    """Fixed-point of the per-branch recursion: accumulate modified flows
    leaf-to-root from w, update w root-to-leaf from the branch drops,
    repeat to convergence. Independent of the matrix solution path."""
    pos = {b: i for i, b in enumerate(ti.order)}
    children = {i: [] for i in range(-1, ti.n)}
    for i in range(ti.n):
        children[ti.parent_pos[i]].append(i)
    w0 = 2.0 - net.v0
    w = np.full(ti.n, w0)
    for _ in range(iters):
        p_hat = p * w
        q_hat = q * w
        fp = np.zeros(ti.n)
        fq = np.zeros(ti.n)
        for i in reversed(range(ti.n)):  # leaves before parents in preorder
            fp[i] = -p_hat[i] + sum(fp[j] for j in children[i])
            fq[i] = -q_hat[i] + sum(fq[j] for j in children[i])
        w_new = np.empty(ti.n)
        for i in range(ti.n):
            up = w0 if ti.parent_pos[i] < 0 else w_new[ti.parent_pos[i]]
            w_new[i] = up + ti.r[i] * fp[i] + ti.x[i] * fq[i]
        if np.max(np.abs(w_new - w)) < tol:
            w = w_new
            break
        w = w_new
    return w


def test_zero_injections_flat(case33):
    net = netmodel.with_slack_voltage(case33, 1.05)
    ti = build_path_incidence(net)
    st = mdf.solve_fixed_load(net, ti, p=np.zeros(ti.n), q=np.zeros(ti.n))
    assert np.allclose(st.v, 1.05)
    assert np.allclose(st.p_br_hat, 0.0) and np.allclose(st.q_br_hat, 0.0)
    assert np.allclose(st.delta, 0.0)
    rep = mdf.losses(ti, st)
    assert rep.pl == 0.0 and rep.ql == 0.0


def test_two_bus_hand_values(net2):
    ti = build_path_incidence(net2)
    st = mdf.solve_fixed_load(net2, ti)
    assert st.w[1] == pytest.approx(1.0 / 0.99, rel=1e-12)
    assert st.v[1] == pytest.approx(0.989899, abs=1e-6)
    rep = mdf.losses(ti, st)
    assert rep.pl == pytest.approx(0.0102030, abs=1e-6)
    assert rep.ql == pytest.approx(0.0204061, abs=1e-6)
    assert rep.pl_q == 0.0 and rep.ql_q == 0.0
    expected_delta = -np.arcsin(
        (0.02 * st.p_br_hat[0] - 0.01 * st.q_br_hat[0]) / st.v[1]
    )
    assert st.delta[1] == pytest.approx(expected_delta, rel=1e-12)


def test_w_plus_v_identity(case33):
    ti = build_path_incidence(case33)
    st = mdf.solve_fixed_load(case33, ti)
    assert np.all(st.w + st.v == 2.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 25), st.integers(0, 2**31 - 1))
def test_matrix_solution_matches_sweep(n, seed):
    rng = np.random.default_rng(seed)
    net = random_tree_network(rng, n)
    ti = build_path_incidence(net)
    p = np.array([-net.bus(b).p_load for b in ti.order])
    q = np.array([-net.bus(b).q_load for b in ti.order])
    st_ = mdf.solve_fixed_load(net, ti, p, q)
    w_sweep = sweep_oracle(net, ti, p, q)
    assert np.max(np.abs(st_.w[1:] - w_sweep)) < 1e-12


def test_voltage_affine_in_modified_generation(case33):
    """With loads fixed, the closed-form voltage response to modified
    generator injections is affine."""
    net = netmodel.with_slack_voltage(case33, 1.05)
    ti = build_path_incidence(net)
    rng = np.random.default_rng(3)
    t = ti.t.toarray()
    a = t.T @ np.diag(ti.r) @ t
    b = t.T @ np.diag(ti.x) @ t
    p_d = np.array([net.bus(k).p_load for k in ti.order])
    q_d = np.array([net.bus(k).q_load for k in ti.order])
    lhs = np.eye(ti.n) - a @ np.diag(p_d) - b @ np.diag(q_d)
    w0 = 2.0 - net.v0

    def v_of(pg_hat, qg_hat):
        w = np.linalg.solve(lhs, w0 - a @ pg_hat - b @ qg_hat)
        return 2.0 - w

    x = (rng.uniform(0, 0.05, ti.n), rng.uniform(0, 0.02, ti.n))
    y = (rng.uniform(0, 0.05, ti.n), rng.uniform(0, 0.02, ti.n))
    for alpha in (0.0, 0.3, 0.71, 1.0):
        blend = v_of(alpha * x[0] + (1 - alpha) * y[0],
                     alpha * x[1] + (1 - alpha) * y[1])
        direct = alpha * v_of(*x) + (1 - alpha) * v_of(*y)
        assert np.max(np.abs(blend - direct)) < 1e-12


def test_state_from_solution_round_trip(case33):
    ti = build_path_incidence(case33)
    st = mdf.solve_fixed_load(case33, ti)
    w_r = st.w[1:]
    again = mdf.state_from_solution(case33, ti, st.p_hat, st.q_hat, w_r)
    assert np.allclose(again.p_br_hat, st.p_br_hat)
    assert np.allclose(again.v, st.v)


def test_state_from_solution_rejects_inconsistency(case33):
    ti = build_path_incidence(case33)
    st = mdf.solve_fixed_load(case33, ti)
    w_r = st.w[1:].copy()
    w_r[5] += 1e-3
    with pytest.raises(MdfError, match="max residual"):
        mdf.state_from_solution(case33, ti, st.p_hat, st.q_hat, w_r)


def test_state_from_solution_zero_case(net2):
    ti = build_path_incidence(net2)
    st = mdf.state_from_solution(
        net2, ti, np.zeros(1), np.zeros(1), np.full(1, 2.0 - net2.v0)
    )
    assert np.allclose(st.p_br_hat, 0.0)
    assert np.allclose(st.v, net2.v0)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 20), st.integers(0, 2**31 - 1))
def test_loss_decomposition_closure(n, seed):
    net = random_tree_network(np.random.default_rng(seed), n)
    ti = build_path_incidence(net)
    st_ = mdf.solve_fixed_load(net, ti)
    rep = mdf.losses(ti, st_)
    assert rep.pl == rep.pl_p + rep.pl_q
    assert rep.ql == rep.ql_p + rep.ql_q
    for part in (rep.pl_p, rep.pl_q, rep.ql_p, rep.ql_q):
        assert part >= -1e-15


def test_random_star_flows_match_direct_multiply():
    rng = np.random.default_rng(11)
    net = random_tree_network(rng, 3)
    ti = build_path_incidence(net)
    p = rng.uniform(-0.1, 0.1, ti.n)
    q = rng.uniform(-0.1, 0.1, ti.n)
    st_ = mdf.solve_fixed_load(net, ti, p, q)
    assert np.allclose(st_.p_br_hat, -(ti.t.toarray() @ st_.p_hat), atol=1e-15)


def test_33_bus_against_ac(case33_psp):
    ti = build_path_incidence(case33_psp)
    stm = mdf.solve_fixed_load(case33_psp, ti)
    sta = acpf.newton_pf(case33_psp)
    assert np.max(np.abs(stm.v - sta.v)) < 0.005
    assert np.max(np.abs(stm.delta - sta.delta)) < 0.005
    rep = mdf.losses(ti, stm)
    assert rep.pl == pytest.approx(sta.pl_exact, rel=0.02)


def assert_angles_match_reference(ti, state):
    ref = reference_angles(ti, state.v, state.p_br_hat, state.q_br_hat)
    assert np.max(np.abs(state.delta - ref)) <= 1e-12


@pytest.mark.parametrize("fixture,copies", [("case33", 1), ("case69", 3)])
def test_angles_match_reference_loop(fixture, copies, request):
    net = request.getfixturevalue(fixture)
    if copies > 1:
        net = netmodel.duplicate_system(net, copies, seed=5)
    ti = build_path_incidence(net)
    assert_angles_match_reference(ti, mdf.solve_fixed_load(net, ti))


def test_angles_match_reference_loop_random_trees():
    rng = np.random.default_rng(21)
    for _ in range(20):
        net = random_tree_network(rng, int(rng.integers(2, 41)))
        ti = build_path_incidence(net)
        assert_angles_match_reference(ti, mdf.solve_fixed_load(net, ti))


def test_angles_match_reference_loop_reverse_flow(case33_psp):
    ti, _, _, state = mdopf.solve_opf(reverse_flow_net(case33_psp))
    assert np.any(state.p_br_hat < 0)  # some flows run towards the slack
    assert_angles_match_reference(ti, state)


def test_angle_recovery_infeasible():
    # reactance large enough that the implied angle sine exceeds one
    text = """
    mpc.baseMVA = 1;
    mpc.bus = [
     1 3 0 0 0 0 1 1.0 0 12.66 1 1.5 0.1;
     2 1 1.5 0.0 0 0 1 1 0 12.66 1 1.5 0.1;
    ];
    mpc.branch = [ 1 2 0.001 0.8 0 0; ];
    """
    net = netmodel.parse_matpower_case(text)
    ti = build_path_incidence(net)
    with pytest.raises(MdfError, match="angle recovery"):
        mdf.solve_fixed_load(net, ti)


def test_singular_matrix_reported():
    # a 1 pu load behind 1 pu resistance drives the system matrix singular
    text = """
    mpc.baseMVA = 1;
    mpc.bus = [
     1 3 0 0 0 0 1 1.0 0 12.66 1 1.5 0.1;
     2 1 1.0 0 0 0 1 1 0 12.66 1 1.5 0.1;
    ];
    mpc.branch = [ 1 2 1.0 0.0 0 0; ];
    """
    net = netmodel.parse_matpower_case(text)
    ti = build_path_incidence(net)
    with pytest.raises(MdfError, match="singular|ill-conditioned"):
        mdf.solve_fixed_load(net, ti)
