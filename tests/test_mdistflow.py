import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from radialopf import acpf, mdistflow as mdf, mdopf, netmodel
from radialopf.mdistflow import MdfError
from radialopf.netmodel import Generator, Network, build_path_incidence

from helpers import (
    Branch, Bus, bus_record, chain_network, network, path_matrix, pivoting_fixed_load_w,
    random_tree_network, rated_network, reference_angles, reference_feeder_factors,
    reference_fixed_load_w, tree_buses, unit_columns, unpack_units,
)
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
    z = np.zeros(net.n_bus - 1)
    st = mdf.solve_fixed_load(net, p=z, q=z)
    assert np.allclose(st.v, 1.05)
    assert np.allclose(st.p_br_hat, 0.0) and np.allclose(st.q_br_hat, 0.0)
    assert np.allclose(st.delta, 0.0)
    rep = mdf.losses(net, st)
    assert rep.pl == 0.0 and rep.ql == 0.0


def test_two_bus_hand_values(net2):
    st = mdf.solve_fixed_load(net2)
    assert st.w[1] == pytest.approx(1.0 / 0.99, rel=1e-12)
    assert st.v[1] == pytest.approx(0.989899, abs=1e-6)
    rep = mdf.losses(net2, st)
    assert rep.pl == pytest.approx(0.0102030, abs=1e-6)
    assert rep.ql == pytest.approx(0.0204061, abs=1e-6)
    assert rep.pl_q == 0.0 and rep.ql_q == 0.0
    expected_delta = -np.arcsin(
        (0.02 * st.p_br_hat[0] - 0.01 * st.q_br_hat[0]) / st.v[1]
    )
    assert st.delta[1] == pytest.approx(expected_delta, rel=1e-12)


def test_w_plus_v_identity(case33):
    st = mdf.solve_fixed_load(case33)
    assert np.all(st.w + st.v == 2.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 25), st.integers(0, 2**31 - 1))
def test_matrix_solution_matches_sweep(n, seed):
    rng = np.random.default_rng(seed)
    net = random_tree_network(rng, n)
    ti = build_path_incidence(net)
    p = np.array([-bus_record(net, b).p_load for b in ti.order])
    q = np.array([-bus_record(net, b).q_load for b in ti.order])
    st_ = mdf.solve_fixed_load(net, p, q)
    w_sweep = sweep_oracle(net, ti, p, q)
    assert np.max(np.abs(st_.w[1:] - w_sweep)) < 1e-12


def assert_w_matches_closed_form(net, ti, p, q):
    st_ = mdf.solve_fixed_load(net, p, q)
    assert np.max(np.abs(st_.w[1:] - reference_fixed_load_w(net, ti, p, q))) <= 1e-12
    return st_


@pytest.mark.parametrize("fixture,copies", [("net2", 1), ("case33", 1), ("case69", 3)])
def test_fixed_load_matches_closed_form(fixture, copies, request):
    net = request.getfixturevalue(fixture)
    if copies > 1:
        net = netmodel.duplicate_system(net, copies, seed=5)
    ti = build_path_incidence(net)
    assert_w_matches_closed_form(net, ti, *netmodel.net_injections(net))


def test_fixed_load_tree_order_matches_pivoting(case33, case69):
    """The leaves-first factorization without pivoting agrees with SuperLU's
    own order and partial pivoting within 1e-12 on case33, case69 x3, 50
    random trees (with exporting buses) and a 1,000-bus chain."""
    def check(net, p, q):
        ti = build_path_incidence(net)
        w = mdf.solve_fixed_load(net, p, q).w[1:]
        assert np.max(np.abs(w - pivoting_fixed_load_w(net, ti, p, q))) <= 1e-12

    for net in (case33, netmodel.duplicate_system(case69, 3, seed=5), chain_network(1000, 100)):
        check(net, *netmodel.net_injections(net))
    rng = np.random.default_rng(23)
    for _ in range(50):
        net = random_tree_network(rng, int(rng.integers(2, 120)), gen_frac=0.3)
        p, q = netmodel.net_injections(net)
        check(net, p + rng.uniform(-0.03, 0.03, p.size), q)


def test_fixed_load_matches_closed_form_random_trees():
    """Random trees with exporting buses (reverse flow) and buses that
    inject nothing."""
    rng = np.random.default_rng(17)
    reverse = 0
    for _ in range(30):
        net = random_tree_network(rng, int(rng.integers(2, 41)))
        ti = build_path_incidence(net)
        p = rng.uniform(-0.03, 0.03, ti.n)
        q = rng.uniform(-0.02, 0.02, ti.n)
        idle = rng.random(ti.n) < 0.2
        p[idle] = q[idle] = 0.0
        st_ = assert_w_matches_closed_form(net, ti, p, q)
        reverse += int(np.any(st_.p_br_hat < 0))
    assert reverse > 0


def test_flow_equations_drop_zero_injections(case69):
    ti = build_path_incidence(case69)
    buses = tree_buses(case69)
    p = -np.array([b.p_load for b in buses])
    q = -np.array([b.q_load for b in buses])
    a = mdf.flow_equations(ti, p, q)
    assert a.shape == (3 * ti.n + 3, 3 * ti.n + 1)
    assert np.all(a.data != 0.0)
    # w_slack; each branch in two balance rows per axis and its drop row
    assert a.nnz == 1 + 8 * ti.n + np.count_nonzero(p) + np.count_nonzero(q)
    assert np.count_nonzero(p) < ti.n + 1  # case69 has buses without load


def test_voltage_affine_in_modified_generation(case33):
    """With loads fixed, the closed-form voltage response to modified
    generator injections is affine."""
    net = netmodel.with_slack_voltage(case33, 1.05)
    ti = build_path_incidence(net)
    rng = np.random.default_rng(3)
    t = path_matrix(ti).toarray()
    a = t.T @ np.diag(ti.r) @ t
    b = t.T @ np.diag(ti.x) @ t
    p_d = np.array([bus_record(net, k).p_load for k in ti.order])
    q_d = np.array([bus_record(net, k).q_load for k in ti.order])
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
    st = mdf.solve_fixed_load(case33)
    w_r = st.w[1:]
    again = mdf.state_from_solution(case33, st.p_hat, st.q_hat, w_r)
    assert np.allclose(again.p_br_hat, st.p_br_hat)
    assert np.allclose(again.v, st.v)


def test_state_from_solution_rejects_inconsistency(case33):
    st = mdf.solve_fixed_load(case33)
    w_r = st.w[1:].copy()
    w_r[5] += 1e-3
    with pytest.raises(MdfError, match="max residual"):
        mdf.state_from_solution(case33, st.p_hat, st.q_hat, w_r)


def test_state_from_solution_zero_case(net2):
    st = mdf.state_from_solution(
        net2, np.zeros(1), np.zeros(1), np.full(1, 2.0 - net2.v0)
    )
    assert np.allclose(st.p_br_hat, 0.0)
    assert np.allclose(st.v, net2.v0)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 20), st.integers(0, 2**31 - 1))
def test_loss_decomposition_closure(n, seed):
    net = random_tree_network(np.random.default_rng(seed), n)
    st_ = mdf.solve_fixed_load(net)
    rep = mdf.losses(net, st_)
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
    st_ = mdf.solve_fixed_load(net, p, q)
    assert np.allclose(st_.p_br_hat, -(path_matrix(ti) @ st_.p_hat), atol=1e-15)


def test_33_bus_against_ac(case33_psp):
    stm = mdf.solve_fixed_load(case33_psp)
    sta = acpf.newton_pf(case33_psp)
    assert np.max(np.abs(stm.v - sta.v)) < 0.005
    assert np.max(np.abs(stm.delta - sta.delta)) < 0.005
    rep = mdf.losses(case33_psp, stm)
    assert rep.pl == pytest.approx(sta.pl_exact, rel=0.02)


def assert_angles_match_reference(net, state):
    ti = build_path_incidence(net)
    ref = reference_angles(ti, state.v, state.p_br_hat, state.q_br_hat)
    assert np.max(np.abs(state.delta - ref)) <= 1e-12


@pytest.mark.parametrize("fixture,copies", [("case33", 1), ("case69", 3)])
def test_angles_match_reference_loop(fixture, copies, request):
    net = request.getfixturevalue(fixture)
    if copies > 1:
        net = netmodel.duplicate_system(net, copies, seed=5)
    assert_angles_match_reference(net, mdf.solve_fixed_load(net))


def test_angles_match_reference_loop_random_trees():
    rng = np.random.default_rng(21)
    for _ in range(20):
        net = random_tree_network(rng, int(rng.integers(2, 41)))
        assert_angles_match_reference(net, mdf.solve_fixed_load(net))


def test_angles_match_reference_loop_reverse_flow(case33_psp):
    net = reverse_flow_net(case33_psp)
    _, _, state = mdopf.solve_opf(net)
    assert np.any(state.p_br_hat < 0)  # some flows run towards the slack
    assert_angles_match_reference(net, state)


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
    with pytest.raises(MdfError, match="angle recovery"):
        mdf.solve_fixed_load(net)


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
    with pytest.raises(MdfError, match="singular|ill-conditioned"):
        mdf.solve_fixed_load(net)


def test_ill_conditioned_load_factor_reported():
    """A load just under 1 pu behind 1 pu resistance and 1 pu reactance,
    with 0.5 pu reactive load: the rows are well conditioned (a pivoting
    solve gives W = -2), but the leaves-first factor's first flow pivot,
    1 + p r, is 1e-13, so its unpivoted solve misses the residual bound, and
    that is reported, not returned."""
    text = """
    mpc.baseMVA = 1;
    mpc.bus = [
     1 3 0 0 0 0 1 1.0 0 12.66 1 1.5 0.1;
     2 1 0.9999999999999 0.5 0 0 1 1 0 12.66 1 1.5 0.1;
    ];
    mpc.branch = [ 1 2 1.0 1.0 0 0; ];
    """
    net = netmodel.parse_matpower_case(text)
    ti, (p, q) = netmodel.path_incidence(net), netmodel.net_injections(net)
    assert np.allclose(pivoting_fixed_load_w(net, ti, p, q), [-2.0], rtol=0, atol=1e-12)
    msg = "ill-conditioned modified power-flow matrix: solve residual"
    with pytest.raises(MdfError, match=msg):
        mdf.load_factors(net)


def mixed_feeders_network() -> Network:
    """Three feeders of different sizes off one slack: a 3-bus chain without
    DG, a 6-bus chain with one DG and a branched 12-bus feeder with four."""
    dg = Generator(0.0, 0.05, 0.0, 0.03, 25.0, 2.0)
    parents = {  # bus: parent
        2: 1, 3: 2, 4: 3,
        5: 1, 6: 5, 7: 6, 8: 7, 9: 8, 10: 9,
        11: 1, 12: 11, 13: 12, 14: 13, 15: 12, 16: 15, 17: 11, 18: 17, 19: 18, 20: 17,
        21: 20, 22: 14,
    }
    gens = {8: dg, 14: dg, 16: dg, 19: dg, 22: dg}
    buses = [Bus(id=1, v_min=0.5, v_max=1.5)] + [
        Bus(id=b, p_load=0.01 * (b % 4 + 1), q_load=0.004 * (b % 3 + 1), v_min=0.5,
            v_max=1.5, gen=gens.get(b)) for b in parents]
    branches = [Branch(from_bus=a, to_bus=b, r=0.002 * (b % 5 + 1), x=0.003 * (b % 3 + 1))
                for b, a in parents.items()]
    net = network(buses, branches, slack=1, base_power=10.0, base_voltage=12.66, v0=1.02)
    return netmodel.with_slack_costs(net, 30.0, 3.0)


def assert_units_match_reference(fac, ref, bal, feeder):
    """``fac.solve_units(bal)``, expanded to the state per column, against
    the per-feeder reference's solve of the same unit columns, bit for bit;
    X's row of W0 is 0. ``feeder`` is the path incidence's. Returns the slot
    map."""
    x, slot_col = fac.solve_units(bal)
    rows = fac.layout
    assert x.shape[0] == rows.n_cols and not x[rows.w].any()
    got = unpack_units(x, slot_col, feeder, bal.size)
    want = ref.solve(unit_columns(bal, rows.count))
    want.sort_indices()
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    # each column that reaches a feeder (any but the slack's rows) holds one
    # slot of it; the rest none
    used = slot_col[slot_col >= 0]
    assert np.array_equal(np.sort(used), np.flatnonzero(~np.isin(bal, [rows.p_bal, rows.q_bal])))
    return slot_col


def assert_factors_match_reference(net, rng):
    """``FeederFactors`` against the per-feeder reference, bit for bit: the
    load-only state; S for the generator columns and for random balance
    rows (the slack's among them, a row repeated) whose columns reach each
    feeder a different number of times; a dense solve that reaches several
    feeders; and the transposed solve."""
    p, q = netmodel.net_injections(net)
    fac, ref = mdf.FeederFactors(net, p, q), reference_feeder_factors(net, p, q)
    assert fac.state.tobytes() == ref.state.tobytes()
    ti = netmodel.path_incidence(net)
    n = ti.n
    rows = mdf.FlowRows(n)
    bus = rng.integers(0, n + 1, size=9)
    for bal in (rows.balance(mdopf.var_blocks(net).gen_w),
                np.concatenate([rows.p_bal + bus[:5], rows.q_bal + bus[5:],
                                [rows.q_bal, rows.p_bal + bus[0]]])):
        assert_units_match_reference(fac, ref, bal, ti.feeder)
    b = rng.normal(size=rows.count) * (rng.random(rows.count) < 0.05)
    assert np.array_equal(fac.solve_state(b), ref.solve(sp.csr_matrix(b[:, None])).toarray()[:, 0])
    r = rng.normal(size=3 * n + 1)  # one per state column
    assert np.array_equal(fac.solve_transposed(r), ref.solve_transposed(r))
    return fac


def test_feeder_factors_match_per_feeder_reference(case69):
    """One factor of the whole network and one packed solve give what one
    factor and one solve per feeder give: on feeders with 0, 1 and 4 DGs,
    case69 x3 with DGs, 20 random multi-feeder trees, the slack alone and
    the benchmark's case69 x100 with 4 DGs per feeder (100 feeders, 8
    slots)."""
    rng = np.random.default_rng(31)
    net = mixed_feeders_network()
    assert_factors_match_reference(net, rng)
    # in preorder: the feeders by their top bus's id
    assert np.bincount(netmodel.path_incidence(net).feeder).tolist() == [3, 6, 12]
    dg = Generator(0.0, 0.2, 0.0, 0.1, 25.0, 2.0)
    net = netmodel.duplicate_system(case69, 3, seed=5)
    for bus in (27, 65, 95, 180):
        net = netmodel.with_generator(net, bus, dg)
    assert_factors_match_reference(netmodel.with_slack_costs(net, 30.0, 3.0), rng)
    for _ in range(20):
        tree = random_tree_network(rng, int(rng.integers(2, 30)), gen_frac=0.3)
        net = netmodel.duplicate_system(tree, int(rng.integers(2, 4)), seed=int(rng.integers(99)))
        assert_factors_match_reference(net, rng)
        assert netmodel.path_incidence(net).feeder.max() >= 1
    slack = network([Bus(id=1, gen=Generator(0.0, 1.0, 0.0, 1.0, 30.0, 3.0))], [], slack=1,
                    base_power=1.0, base_voltage=12.66, v0=1.05)
    assert assert_factors_match_reference(slack, rng).state.tolist() == [2.0 - 1.05]
    # the benchmark's shape: case69 x100, DGs at 27/35/46/65 of each feeder
    net = netmodel.with_slack_voltage(case69, 1.05)
    for bus in (27, 35, 46, 65):
        net = netmodel.with_generator(net, bus, dg)
    net = netmodel.duplicate_system(netmodel.with_slack_costs(net, 30.0, 3.0), 100, seed=42)
    fac = assert_factors_match_reference(net, rng)
    rows = mdf.FlowRows(netmodel.path_incidence(net).n)
    bal = rows.balance(mdopf.var_blocks(net).gen_w)
    assert fac.solve_units(bal)[1].shape == (100, 8)


def test_packed_rows_match_sparse_s_random_trees(monkeypatch):
    """On 24 random multi-feeder trees, some rated and some with a tight
    v_max, the packed solve of the generators' columns equals the per-feeder
    reference bit for bit, and ``mdopf._rows`` builds, bit for bit, the rows
    that a sparse S assembled from that reference gives: presolve's range
    s0 + S mid +- |S| rad, the inequality rows, the thermal rows and the
    equality rows, whose state part is the slack's two balance rows of
    ``flow_equations`` at every bus's load, the supply point's included.
    Among the trees are networks whose only generator is the supply point
    (no slot), feeders without a generator, feeders with different numbers
    of generators, whose unused slots map to no column, and supply points
    with a load of their own."""
    rng = np.random.default_rng(2025)
    seen = {"no slot": 0, "feeder without DG": 0, "ragged": 0, "supply-point load": 0}
    screened = []
    real_screen = mdopf._screen

    def record(net, s_lo, s_hi):
        screened.append((s_lo, s_hi))
        return real_screen(net, s_lo, s_hi)

    monkeypatch.setattr(mdopf, "_screen", record)
    for i in range(24):
        tree = random_tree_network(rng, int(rng.integers(2, 25)), gen_frac=[0.0, 0.2, 0.5][i % 3])
        net = netmodel.duplicate_system(tree, int(rng.integers(1, 4)), seed=int(rng.integers(99)))
        if i % 2:
            net = rated_network(net, 1.2)
        if i % 4 >= 2:  # a v_cap row kept away from the generators
            net = netmodel.with_voltage_limits(net, 0.9, 1.0005)
        if i % 3 == 1:
            net = netmodel.with_load(net, net.slack, 0.02, 0.01)
        cols, ti = netmodel.columns(net), netmodel.path_incidence(net)
        n = ti.n
        seen["supply-point load"] += bool(cols.p_load[0] > 0)
        ref = reference_feeder_factors(net, -cols.p_load[1:], -cols.q_load[1:])
        fac = mdf.load_factors(net)
        assert fac.state.tobytes() == ref.state.tobytes()
        lay = mdopf.var_blocks(net)  # the rows, built once with _screen recorded
        flow = mdf.FlowRows(n)
        bal = flow.balance(lay.gen_w)
        slot_col = assert_units_match_reference(fac, ref, bal, ti.feeder)
        on_tree = lay.gen_w[lay.gen_w > 0]  # the generators' buses but the slack
        per_feeder = 2 * np.bincount(ti.feeder[on_tree - 1],  # a Pg and a Qg column each
                                     minlength=ti.feeder.max(initial=-1) + 1)
        seen["no slot"] += slot_col.shape[1] == 0
        seen["feeder without DG"] += bool(np.any(per_feeder == 0))
        seen["ragged"] += bool(np.any((slot_col < 0).any(axis=1) & (per_feeder > 0)))

        s_gen = -ref.solve(unit_columns(bal, flow.count))
        s_gen.sort_indices()
        lo, hi = mdopf._box(cols, lay.gen_w)
        mid = ref.state + s_gen @ (0.5 * (lo + hi))
        rad = abs(s_gen) @ (0.5 * (hi - lo))
        s_lo, s_hi = screened[-1]
        assert s_lo.tobytes() == (mid - rad).tobytes() and s_hi.tobytes() == (mid + rad).tobytes()
        rows = mdopf._rows(net)
        prob = rows.prob
        n_gen, kg = lay.gen_w.size, np.arange(lay.gen_w.size)
        slack_out = sp.csr_matrix((np.ones(2), ([0, 1], [lay.pg, lay.qg])), shape=(2, lay.n_vars))
        out_col = np.stack([lay.pg + kg, lay.pg + kg, lay.qg + kg, lay.qg + kg], axis=1).ravel()
        in_vars = sp.csr_matrix((np.tile([1.0, -1.0, 1.0, -1.0], n_gen),
                                 (np.arange(4 * n_gen), out_col)), shape=(prob.n_in, lay.n_vars))
        slack = mdf.flow_equations(ti, -cols.p_load, -cols.q_load)[[flow.p_bal, flow.q_bal]]
        for got, want in ((prob.a_eq, slack_out + slack @ s_gen),
                          (prob.a_in, in_vars + rows.in_state @ s_gen),
                          (prob.quad_m, s_gen[rows.flows])):
            want = want.tocsr()
            for name in ("indptr", "indices", "data"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert prob.b_eq.tobytes() == (-(slack @ ref.state)).tobytes()
        assert prob.quad_c.tobytes() == ref.state[rows.flows].tobytes()
    assert len(screened) == 24 and all(seen.values()), seen


def test_feeder_factors_one_splu_call(case69, monkeypatch):
    """The network's rows are factored in one SuperLU call, not one per
    feeder."""
    calls = []
    splu = netmodel.spla.splu

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    net = netmodel.duplicate_system(case69, 10, seed=5)
    netmodel.path_incidence(net)  # factored on its own
    monkeypatch.setattr(netmodel.spla, "splu", counting)
    mdf.FeederFactors(net, *netmodel.net_injections(net))
    assert calls == [(3 * 680, 3 * 680)]
