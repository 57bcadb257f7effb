import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from radialopf import mdistflow as mdf, mdopf, netmodel, qcqpsolver as qs
from radialopf.mdopf import MdopfError
from radialopf.netmodel import Generator, build_path_incidence

from helpers import (
    Branch, Bus, assert_kkt_matches_reference, branch_records, bus_record, bus_row, chain_network,
    dense_objective_h, kkt_residuals, mk_case, network, path_matrix, pivoting_factor, quad_values,
    random_tree_network, rated_network, reference_build, reference_evaluate_cost,
    reference_extract_duals, reference_feeder_factors, reference_psd_projection,
    reference_recover_dispatch, tree_buses, unit_columns, unscreened_balance_prices,
    unscreened_build, with_records,
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


def rated_case69_x3(case69):
    """case69 x3 with each branch rated at 1.1x its own load-only flow: 12 of
    its 64 kept thermal rows bind."""
    return rated_network(_case69_copies(case69, 3), 1.1)


# ---------------------------------------------------------------------------
# problem shape
# ---------------------------------------------------------------------------

def test_dimensions_case33_one_dg(case33_psp):
    net = scenario_net(case33_psp, 18, 31.0)
    ti = build_path_incidence(net)
    prob = mdopf.build(net)
    n = ti.n  # 32
    # P/Q output per generator; no rated branch, so no flow variables
    assert prob.n_vars == 2 * 2
    # the slack's active and reactive balance
    assert prob.n_eq == 2
    # four box rows per generator, two voltage rows per non-slack bus, of
    # which presolve keeps the box rows and bus 18's voltage rows at least
    ref = unscreened_build(net).prob
    assert ref.n_in == 4 * 2 + 2 * n
    # the kept rows are the unscreened rows, exactly; the others are implied
    kept = kept_rows(net)
    at18 = 4 * 2 + 2 * (netmodel.tree_positions(net)[18] - 1)
    assert {*range(8), at18, at18 + 1} <= set(kept.tolist())
    assert prob.n_in == kept.size < ref.n_in
    assert_dropped_rows_hold(net, np.random.default_rng(3))
    assert prob.n_quad == 0  # no current ratings in the case
    lay = mdopf.var_blocks(net)
    assert lay.gens == (1, 18) and lay.n_vars == prob.n_vars
    assert (lay.pg, lay.qg, lay.n_vars) == (0, 2, 4) and lay.rated.size == 0
    assert lay.gen_w.tolist() == [0, netmodel.tree_positions(net)[18]]


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 20), st.integers(0, 2**31 - 1))
def test_equality_row_count_random_trees(n, seed):
    net = random_tree_network(np.random.default_rng(seed), n, gen_frac=0.3)
    prob = mdopf.build(net)
    assert prob.n_eq == 2
    assert prob.n_vars == 2 * len(mdopf.var_blocks(net).gens)


def kept_rows(net):
    """The unscreened inequality rows (``unscreened_build``) that
    ``mdopf.build`` keeps, ascending: each built row is matched, in order,
    to the next unscreened row that equals it exactly, coefficients and
    bound. Both have the generator outputs as their variables."""
    prob, ref = mdopf.build(net), unscreened_build(net).prob
    assert prob.n_vars == ref.n_vars
    a, a_ref = prob.a_in.toarray(), ref.a_in.toarray()
    kept = []
    for i in range(ref.n_in):
        j = len(kept)
        if j < prob.n_in and prob.b_in[j] == ref.b_in[i] and np.array_equal(a[j], a_ref[i]):
            kept.append(i)
    assert len(kept) == prob.n_in
    return np.array(kept, dtype=int)


def full_space_rows(net, x):
    """The full-space OPF rows at generator-space point ``x`` (``build``'s
    layout): the state that its generation implies, from the flow rows
    without the slack's balance rows solved by SuperLU with pivoting, put
    into the slack's balance rows, every generator box, every voltage limit
    and every rating. Returns (equality rows, inequality rows, thermal rows)
    as left minus right side; the inequality rows are all of them (box rows
    per generator, then v_floor and v_cap per non-slack bus), and the
    thermal rows are one per rated branch, each at the state's flows."""
    ti = build_path_incidence(net)
    lay = mdopf.var_blocks(net)
    buses = tree_buses(net)
    rows = mdf.FlowRows(ti.n)
    flows = mdf.flow_equations(
        ti, -np.array([b.p_load for b in buses]), -np.array([b.q_load for b in buses]))
    n_gen = len(lay.gens)
    gen = np.zeros(rows.count)
    np.add.at(gen, rows.p_bal + lay.gen_w, x[lay.pg:lay.pg + n_gen])
    np.add.at(gen, rows.q_bal + lay.gen_w, x[lay.qg:lay.qg + n_gen])
    rhs = -gen
    rhs[rows.w_slack] += 2.0 - net.v0
    keep = np.delete(np.arange(rows.count), [rows.p_bal, rows.q_bal])
    state = spla.splu(flows[keep].tocsc()).solve(rhs[keep])
    w = state[:ti.n + 1]
    slack = (flows @ state + gen)[[rows.p_bal, rows.q_bal]]
    box = []
    for j, k in enumerate(lay.gen_w):
        gen_j = buses[k].gen
        pg, qg = x[lay.pg + j], x[lay.qg + j]
        box += [pg - gen_j.p_max * w[k], gen_j.p_min * w[k] - pg,
                qg - gen_j.q_max * w[k], gen_j.q_min * w[k] - qg]
    volt = np.column_stack([w[1:] - np.array([2.0 - b.v_min for b in buses[1:]]),
                            np.array([2.0 - b.v_max for b in buses[1:]]) - w[1:]]).ravel()
    rated = np.flatnonzero(~np.isnan(ti.i_max))
    thermal = (state[ti.n + 1 + rated] ** 2 + state[2 * ti.n + 1 + rated] ** 2
               - ti.i_max[rated] ** 2)
    return slack, np.concatenate([box, volt]), thermal


def box_points(net, rng, count):
    """``count`` generator-space points (``build``'s layout) whose
    outputs lie in the box that the generator-box rows and the voltage rows
    at generator buses allow: each output between its limits times its bus
    W, for W anywhere in the bus's voltage band. The first two are the box's
    lower and upper corners, the rest uniform draws."""
    lay = mdopf.var_blocks(net)
    buses = tree_buses(net)
    lo, hi = [], []
    for axis in ("p", "q"):
        for k in lay.gen_w:
            b = buses[k]
            ends = [getattr(b.gen, f"{axis}_{e}") * (2.0 - v)
                    for e in ("min", "max") for v in (b.v_min, b.v_max)]
            lo.append(min(ends[:2]))
            hi.append(max(ends[2:]))
    lo, hi = np.array(lo), np.array(hi)
    return [lo, hi, *(rng.uniform(lo, hi) for _ in range(count - 2))]


def assert_dropped_rows_hold(net, rng, count=6):
    """Every row that presolve drops holds at each of ``box_points``: the
    voltage rows with no room to spare (<= 0) and each dropped rated
    branch's Pbr^2 + Qbr^2 within its rating."""
    ti = build_path_incidence(net)
    lay = mdopf.var_blocks(net)
    n_in = 4 * len(lay.gens) + 2 * ti.n
    dropped = np.setdiff1d(np.arange(n_in), kept_rows(net))
    rated = np.flatnonzero(~np.isnan(ti.i_max))
    dropped_rated = ~np.isin(rated, lay.rated)
    for x in box_points(net, rng, count):
        _, ineq, thermal = full_space_rows(net, x)
        assert np.all(ineq[dropped] <= 0.0)
        assert np.all(thermal[dropped_rated] <= 0.0)


def assert_equalities_are_flow_equations(net):
    """Each kept generator-space row, at random generator outputs, equals the
    full-space row at the state those outputs imply (``full_space_rows``),
    the thermal rows of ``VarBlocks.rated`` included, and each dropped row
    holds over the box (``assert_dropped_rows_hold``)."""
    prob = mdopf.build(net)
    kept = kept_rows(net)
    rated = np.flatnonzero(~np.isnan(netmodel.path_incidence(net).i_max))
    kept_q = np.isin(rated, mdopf.var_blocks(net).rated)
    rng = np.random.default_rng(0)
    for _ in range(3):
        x = rng.uniform(-0.05, 0.05, prob.n_vars)
        eq, ineq, thermal = full_space_rows(net, x)
        assert np.allclose(prob.a_eq @ x - prob.b_eq, eq, rtol=0.0, atol=1e-12)
        assert np.allclose(prob.a_in @ x - prob.b_in, ineq[kept], rtol=0.0, atol=1e-12)
        assert np.allclose(quad_values(prob, x) - prob.quad_b, thermal[kept_q],
                           rtol=0.0, atol=1e-12)
    assert_dropped_rows_hold(net, rng)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(2, 40), st.integers(0, 2**31 - 1), st.floats(1.0, 3.0), st.booleans())
def test_dropped_rows_hold_in_box_random_trees(n, seed, factor, own):
    # every branch rated at factor times its own (or the largest) load-only
    # flow, so some rated rows are dropped and some kept
    rng = np.random.default_rng(seed)
    net = rated_network(random_tree_network(rng, n, gen_frac=0.4), factor, own)
    assert_dropped_rows_hold(net, rng)


def test_equalities_are_flow_equations_case33_four_dgs(case33_psp):
    assert_equalities_are_flow_equations(_four_dg_case33(case33_psp))


def test_equalities_are_flow_equations_case69_copies(case69):
    assert_equalities_are_flow_equations(_case69_copies(case69, 10))


def test_equalities_are_flow_equations_rated():
    # the rated branch's thermal row too, on a network with exporting DGs
    assert_equalities_are_flow_equations(binding_thermal_net())
    net = netmodel.with_generator(
        binding_thermal_net(), 2, Generator(0.0, 2.0, -1.0, 1.0, 10.0, 1.0))
    assert_equalities_are_flow_equations(net)


def test_thermal_rows():
    text = mk_case(
        [bus_row(1, 3), bus_row(2, pd=0.5), bus_row(3, pd=0.5)],
        [[1, 2, 0.01, 0.02, 0, 5.0], [2, 3, 0.01, 0.02, 0, 0]],
        base=10.0,
        gen_rows=[[1, 0, 0, 10, -10, 1, 10, 1, 10, 0]],
        gencost_rows=[[2, 0, 0, 2, 30, 0]],
    )
    net = netmodel.parse_matpower_case(text)
    # the slack alone: branch 1-2 carries the fixed load flow, 0.1 of its
    # 0.5 pu rating, so presolve drops its row
    assert mdopf.build(net).n_quad == 0 and mdopf.var_blocks(net).rated.size == 0
    # a DG at bus 3 that can export 1 pu lets the flow exceed the rating
    net = netmodel.with_generator(net, 3, Generator(0.0, 1.0, 0.0, 0.5, 20.0, 1.0))
    ti = build_path_incidence(net)
    prob = mdopf.build(net)
    assert prob.n_quad == 1
    # the one thermal row squares branch 1-2's Pbr and Qbr in s0 + S x: the
    # rows of S and s0 at its flow columns, Pbr then Qbr. The generator
    # outputs are the only variables and the slack's balance rows the only
    # equality rows
    lay = mdopf.var_blocks(net)
    k = ti.order.index(2)
    assert lay.gens == (1, 3) and lay.n_vars == prob.n_vars == 4 and prob.n_eq == 2
    assert lay.rated.tolist() == [k]
    cols = netmodel.columns(net)
    ref = reference_feeder_factors(net, -cols.p_load[1:], -cols.q_load[1:])
    bal = mdf.FlowRows(ti.n).balance(lay.gen_w)
    s_gen = -ref.solve(unit_columns(bal, mdf.FlowRows(ti.n).count)).toarray()
    flows = [ti.n + 1 + k, 2 * ti.n + 1 + k]
    assert np.array_equal(prob.quad_m.toarray(), s_gen[flows])
    assert np.array_equal(prob.quad_c, ref.state[flows])
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


def test_objective_matches_dense_deep_chain():
    # one feeder with 30 DGs (30 slots), then three such feeders
    net = chain_network(300, 10)
    assert_objective_matches_dense(net)
    assert_objective_matches_dense(netmodel.duplicate_system(net, 3, seed=1))


def _dg(cost_p, cost_q):
    return Generator(0.0, 0.02, 0.0, 0.01, cost_p, cost_q)


def test_objective_matches_dense_uneven_feeders():
    # four feeders holding 4, 0, 1 and 2 DGs, so slots 1 to 3 skip feeders
    # and the DG-less one takes no slot
    dgs = {2: _dg(21.0, 1.0), 5: _dg(22.0, 2.0), 6: _dg(23.0, 0.5), 7: _dg(24.0, 3.0),
           12: _dg(25.0, 1.5), 14: _dg(26.0, 2.5), 15: _dg(27.0, 0.0)}
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 7), (1, 8), (8, 9), (9, 10),
             (1, 11), (11, 12), (1, 13), (13, 14), (13, 15)]
    buses = [Bus(1)] + [Bus(k, 0.01, 0.005, gen=dgs.get(k)) for k in range(2, 16)]
    branches = [Branch(a, b, 0.01 + 0.003 * k, 0.02 - 0.001 * k) for k, (a, b) in enumerate(edges)]
    net = netmodel.with_slack_costs(network(buses, branches, slack=1), 30.0, 3.0)
    assert_objective_matches_dense(net)
    assert_objective_matches_dense(netmodel.duplicate_system(net, 3, seed=1))


def test_objective_matches_dense_lossless_branch_parts():
    # branches with r = 0 or x = 0: common paths of zero resistance or
    # reactance leave zero entries, dropped on both sides
    edges = [(1, 2, 0.0, 0.02), (2, 3, 0.01, 0.0), (3, 4, 0.0, 0.03), (2, 5, 0.02, 0.0),
             (5, 6, 0.01, 0.01)]
    buses = [Bus(1)] + [Bus(k, 0.01, 0.005, gen=_dg(20.0 + k, k - 2.0)) for k in range(2, 7)]
    net = netmodel.with_slack_costs(
        network(buses, [Branch(*e) for e in edges], slack=1), 30.0, 3.0)
    assert_objective_matches_dense(net)


def test_objective_memory_on_a_deep_feeder():
    # one 3,000-bus feeder with 299 DGs, whose blocks are dense (357,604
    # entries): the path matrix's generator columns (451,200 entries, one
    # per generator-ancestor pair) and their Gram products peaked at 36 MiB
    net = chain_network(3000, 10)
    mdopf.var_blocks(net)  # the rows and the load factor, memoized outside the trace
    tracemalloc.start()
    try:
        mdopf.build_objective(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2 ** 20


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
    # 6,801 buses: the problem's arrays take about 0.4 MB (2.1 MB with
    # every row built); one name per variable and row (about 57,000
    # strings) took 4.7 MB more. The rows are memoized with the network, so
    # the trace covers the first build
    net = _case69_copies(case69, 100)
    mdf.load_factors(net)  # memoizes the per-network bus lookups outside the trace
    tracemalloc.start()
    try:
        prob = mdopf.build(net)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # 401 generators: Pg and Qg each, and the slack's two balance rows
    assert prob.n_vars + prob.n_eq == 804
    assert retained < 3.5e6


def test_rows_hold_s_packed_memory(case69):
    """On case69 x100 with 4 DGs per feeder (401 generators, 6,801 buses) the
    rows read S from the factor's packed block X (20,401 state columns x 8
    slots, 1.2 MiB) and build no sparse S over every state entry: their
    traced peak stays within 6.5 MiB, where scattering X into a 20,401 x
    802 matrix first peaked at 10.7 MiB. The factor itself, renumbered in
    place rather than cut out of the flow rows, peaks within 3.3 MiB."""
    net = _case69_copies(case69, 100)
    netmodel.path_incidence(net)  # the builders' input, memoized outside the trace
    netmodel.columns(net)
    peaks = []
    for build in (mdf.load_factors, mdopf._rows):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            build(net)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert mdopf.var_blocks(net).n_vars == 802
    assert peaks[0] <= 3.3 * 2**20, peaks
    assert peaks[1] <= 6.5 * 2**20, peaks


def test_load_factor_holds_one_copy_memory(case69, monkeypatch):
    """On case69 x100 with 4 DGs per feeder, the load factor holds no copy
    it does not need. When ``load_factors`` calls SuperLU the flow rows are
    freed and only the leaves-first matrix and W0's column are held: within
    1.8 MiB, where holding the flow rows too held 2.29 MiB. The generator
    columns are solved one slot at a time into X (20,401 state columns x 8
    slots, 1.25 MiB): the traced peak stays within 1.8 MiB, where one dense
    all-slot right-hand side beside X peaked at 2.52 MiB."""
    net = _case69_copies(case69, 100)
    netmodel.path_incidence(net)  # the builders' input, memoized outside the trace
    netmodel.columns(net)
    held = []
    splu = netmodel.spla.splu

    def holding(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0] - base)
        return splu(*args, **kwargs)

    monkeypatch.setattr(netmodel.spla, "splu", holding)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fac = mdf.load_factors(net)
    finally:
        tracemalloc.stop()
    rows = mdf.FlowRows(netmodel.path_incidence(net).n)
    bal = rows.balance(mdopf.var_blocks(net).gen_w)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        x, slot_col = fac.solve_units(bal)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert x.shape == (20401, 8) and slot_col.shape == (100, 8)
    assert len(held) == 1 and held[0] <= 1.8 * 2**20, held
    assert peak <= 1.8 * 2**20, peak


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
    blocks = qs.support_eigh(sp.csr_matrix(dense))
    # one stack per block size: indices (k, s), values (k, s), vectors (k, s, s)
    assert sorted(b[0].shape for b in blocks) == [(1, 1), (1, 5), (1, 8)]
    assert all(b[1].shape == b[0].shape and b[2].shape == b[0].shape + b[0].shape[-1:]
               for b in blocks)
    support = np.sort(idx[:14])
    sub = dense[np.ix_(support, support)]
    vals, vecs = np.linalg.eigh(sub)
    got = np.sort(np.concatenate([b[1].ravel() for b in blocks]))
    assert np.allclose(got, vals, rtol=0.0, atol=1e-12)
    assert qs.min_eigenvalue(blocks) == pytest.approx(vals[0], abs=1e-12)
    clipped = np.zeros((n, n))
    clipped[np.ix_(support, support)] = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    proj = mdopf.psd_projection(sp.csr_matrix(dense), blocks).toarray()
    assert np.allclose(proj, clipped, rtol=0.0, atol=1e-12)
    assert qs.support_eigh(sp.csr_matrix((4, 4))) == []


def test_support_blocks_stack_by_size():
    # two 3 x 3 components and one 2 x 2 among zero rows: the 3 x 3 pair is
    # one stack, and each component's eigenpairs are its own eigh's
    import scipy.sparse as sp

    rng = np.random.default_rng(8)
    n = 12
    dense = np.zeros((n, n))
    comps = [np.array([0, 4, 9]), np.array([2, 3, 11]), np.array([6, 7])]
    for on in comps:
        m = rng.normal(size=(on.size, on.size))
        dense[np.ix_(on, on)] = m + m.T
    blocks = qs.support_eigh(sp.csr_matrix(dense))
    assert sorted(b[0].shape for b in blocks) == [(1, 2), (2, 3)]
    found = {tuple(i): (v, w) for idx, vals, vecs in blocks
             for i, v, w in zip(idx, vals, vecs)}
    assert sorted(found) == sorted(tuple(on) for on in comps)
    for on in comps:
        vals, vecs = np.linalg.eigh(dense[np.ix_(on, on)])
        assert np.array_equal(found[tuple(on)][0], vals)
        assert np.array_equal(found[tuple(on)][1], vecs)
    proj = mdopf.psd_projection(sp.csr_matrix(dense), blocks).toarray()
    ref = reference_psd_projection(sp.csr_matrix(dense)).toarray()
    assert np.allclose(proj, ref, rtol=0.0, atol=1e-12)


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
    assert sol.pg[0] * w0 == pytest.approx(-np.sum(state.p_hat), abs=1e-7)
    assert sol.qg[0] * w0 == pytest.approx(-np.sum(state.q_hat), abs=1e-7)
    # and physically it covers the load plus losses, to model accuracy
    assert sol.pg[0] == pytest.approx(1.0 + rep.pl, abs=5e-4)


def test_zero_modified_output_zero_dispatch(net2):
    net = netmodel.with_generator(net2, 2, Generator(0.0, 0.5, 0.0, 0.2, 60.0, 60.0))
    sol = mdopf.solve_opf(net)[1]
    # the expensive unit (bus 2, after the slack) stays off; division by W
    # keeps it exactly off-scale
    assert abs(sol.pg[1]) < 1e-6


def test_table_dispatch_scenario_1(case33_psp):
    net = scenario_net(case33_psp, 18, 31.0)
    sol = mdopf.solve_opf(net)[1]
    assert sol.objective_value == pytest.approx(122.16, rel=0.005)
    k = mdopf.var_blocks(net).gens.index(18)
    assert sol.pg[k] * net.base_power == pytest.approx(0.624, abs=0.02)
    assert sol.qg[k] * net.base_power == pytest.approx(0.5, abs=1e-3)


def test_table_dispatch_scenario_3_at_capacity(case33_psp):
    net = scenario_net(case33_psp, 33, 31.0)
    sol = mdopf.solve_opf(net)[1]
    k = mdopf.var_blocks(net).gens.index(33)
    assert sol.pg[k] * net.base_power == pytest.approx(1.000, abs=0.02)


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
    net = netmodel.with_generator(net2, 2, Generator(0.0, 0.5, 0.0, 0.2, 31.0, 2.0))
    prob = mdopf.build(net)
    sol = qs.solve(prob)
    bad_x = sol.x.copy()
    lay = mdopf.var_blocks(net)
    bad_x[lay.qg + 1] = 1e3  # reactive export that lifts bus 2 above 2 pu
    with pytest.raises(MdopfError, match="nonphysical.*bus 2"):
        mdopf.recover_dispatch(net, replace(sol, x=bad_x))


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
    prob, sol, state = mdopf.solve_opf(net)
    assert prob.n_quad == 1
    # the one branch's flows in the state recovered from the dispatch
    flow_sq = state.p_br_hat[0] ** 2 + state.q_br_hat[0] ** 2
    assert flow_sq == pytest.approx(0.64, abs=1e-6)
    assert sol.duals_quad[0] > 1e-3
    # the local unit covers what the limited import cannot
    assert sol.pg[1] > 0.15  # bus 2, after the slack


# ---------------------------------------------------------------------------
# generator-space builder vs the full-space reference builder with W, V,
# Pinj/Qinj and flow variables
# ---------------------------------------------------------------------------

TIGHT = qs.SolverConfig(tol_gap=1e-11, tol_feas=1e-11)


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
    assert mdopf.var_blocks(net).gens == tuple(pg)
    for k, b in enumerate(pg):
        assert abs(sol_l.pg[k] - pg[b]) < 1e-6, b
        assert abs(sol_l.qg[k] - qg[b]) < 1e-6, b
    assert sol_l.objective_value == pytest.approx(sol_r.objective_value, rel=1e-8)
    # the reference has every rated row; a dropped row's multiplier is 0
    kept = np.isin(np.flatnonzero(~np.isnan(ti.i_max)), mdopf.var_blocks(net).rated)
    assert np.allclose(sol_l.duals_quad, sol_r.duals_quad[kept], rtol=1e-6, atol=1e-9)
    assert np.allclose(sol_r.duals_quad[~kept], 0.0, rtol=1e-6, atol=1e-9)
    buses = [net.slack, *ti.order]
    for lam_l, lam_r in zip(mdopf.balance_prices(net, lean, sol_l), reference_extract_duals(ref, sol_r)):
        assert lam_r.keys() == set(buses)
        lam_r = np.array([lam_r[b] for b in buses])
        scale = np.max(np.abs(lam_r))
        for b, lean_b, ref_b in zip(buses, lam_l, lam_r):
            assert abs(lean_b - ref_b) <= 1e-6 * scale, b


def test_lean_builder_matches_reference_case33_four_dgs(case33_psp):
    assert_matches_reference(_four_dg_case33(case33_psp))


def test_lean_builder_matches_reference_case69_x3(case69):
    assert_matches_reference(_case69_copies(case69, 3))
    # each branch rated at 1.1x its own load-only flow: thermal rows kept
    assert_matches_reference(rated_case69_x3(case69))


def test_lean_builder_matches_reference_random_trees():
    rng = np.random.default_rng(11)
    for _ in range(20):
        net = random_tree_network(rng, int(rng.integers(2, 60)), gen_frac=0.4)
        assert_matches_reference(net)


def test_lean_builder_matches_reference_binding_thermal():
    assert_matches_reference(binding_thermal_net())


def presolved_reference(net, ti):
    """``reference_build``'s problem, and the same problem with the rows
    that presolve keeps: the inequality rows ``kept_rows`` and the thermal
    rows of the branches in ``var_blocks(net).rated``."""
    full = reference_build(net, ti).prob
    kept, rated = kept_rows(net), np.flatnonzero(~np.isnan(ti.i_max))
    kept_q = np.isin(rated, mdopf.var_blocks(net).rated)
    squares = np.tile(kept_q, 2)  # each thermal row's Pbr and Qbr rows
    return full, replace(full, a_in=full.a_in[kept], b_in=full.b_in[kept],
                         quad_m=full.quad_m[squares], quad_c=full.quad_c[squares],
                         quad_b=full.quad_b[kept_q])


def assert_deep_feeder_matches_reference(net):
    """``solve_opf`` against the full-space reference at the default
    tolerances: objective within 1e-6 relative, each point meets its own
    problem's rows to 1e-8 (equality rows scaled as the solver scales
    them), and the iteration counts differ by at most 2 from the reference
    with presolve's rows (``presolved_reference``). The reference with
    every row takes at least the screened iterations less 2: rows that
    never bind slow the interior point down, so the lower side does not
    hold there (12 against 11 iterations on three of the random trees; from
    a unit start, 23 against 20 and 21 against 15). Every row that
    presolve drops holds at the screened point
    (``assert_screen_matches_unscreened``)."""
    prob, sol, _ = mdopf.solve_opf(net)
    full, kept = presolved_reference(net, build_path_incidence(net))
    sol_f, sol_k = qs.solve(full), qs.solve(kept)
    assert sol_f.status == sol_k.status == "optimal"
    for p, s in ((prob, sol), (full, sol_f), (kept, sol_k)):
        assert sol.objective_value == pytest.approx(s.objective_value, rel=1e-6)
        res = kkt_residuals(p, s)
        assert res["primal_eq"] <= 1e-8 * (1.0 + np.abs(p.b_eq).max(initial=0.0))
        assert res["primal_in"] <= 1e-8
    assert abs(sol.stats.iterations - sol_k.stats.iterations) <= 2
    assert sol.stats.iterations <= sol_f.stats.iterations + 2
    assert_screen_matches_unscreened(net)


def assert_screen_matches_unscreened(net):
    """``solve_opf`` against the problem with every row, both at the
    default tolerances: objective within 1e-6 relative; every unscreened
    row, dropped ones included, holds at the screened point within 1e-8,
    equality rows scaled as the solver scales them; and at most 2
    iterations more."""
    prob, sol, _ = mdopf.solve_opf(net)
    ref = unscreened_build(net)
    sol_u = qs.solve(ref.prob)
    assert sol_u.status == "optimal"
    assert sol.objective_value == pytest.approx(sol_u.objective_value, rel=1e-6)
    p, x = ref.prob, sol.x
    assert np.abs(p.a_eq @ x - p.b_eq).max(initial=0.0) <= 1e-8 * (
        1.0 + np.abs(p.b_eq).max(initial=0.0))
    assert np.max(p.a_in @ x - p.b_in, initial=0.0) <= 1e-8
    assert np.max(quad_values(p, x) - p.quad_b, initial=0.0) <= 1e-8
    assert sol.stats.iterations <= sol_u.stats.iterations + 2


def test_deep_feeder_matches_reference_chain():
    # one 299-branch feeder with 30 DGs: every generator-space row is dense
    assert_deep_feeder_matches_reference(chain_network(300, 10))


def test_deep_feeder_matches_reference_random_trees():
    rng = np.random.default_rng(29)
    for _ in range(20):
        assert_deep_feeder_matches_reference(
            random_tree_network(rng, int(rng.integers(2, 80)), gen_frac=0.3))


def test_screen_matches_unscreened_chain():
    assert_screen_matches_unscreened(chain_network(1000, 10))


def test_screen_matches_unscreened_case69_x3(case69):
    assert_screen_matches_unscreened(_case69_copies(case69, 3))


def test_screen_matches_unscreened_rated_case69_x3(case69):
    # each branch rated at 1.5x its own load-only flow: some rows kept
    net = rated_network(_case69_copies(case69, 3), 1.5)
    assert 0 < mdopf.build(net).n_quad < net.records.from_bus.size
    assert_screen_matches_unscreened(net)


def test_screened_rows_case69_x100(case69):
    # of the 15,204 inequality rows, presolve keeps the 1,604 box rows and
    # the 800 voltage rows at the 400 DG buses
    prob = mdopf.build(_case69_copies(case69, 100))
    assert (prob.n_vars, prob.n_eq, prob.n_in, prob.n_quad) == (802, 2, 2404, 0)


def test_iterations_case69_x10(case69):
    # from the least-squares start with Mehrotra's shifts: 9 iterations
    # unrated and 37 with each branch rated at 1.1x its own load-only flow;
    # the bounds lie below a unit start's 14 and 53
    net = _case69_copies(case69, 10)
    for net, most in ((net, 11), (rated_network(net, 1.1), 40)):
        sol = qs.solve(mdopf.build(net))
        assert sol.status == "optimal" and sol.stats.iterations <= most


def test_default_objective_within_tol_gap_of_tight_solve(case69):
    # the stop test bounds the total complementarity s'z, and with it the
    # objective error; a bound on the largest pair s_i z_i alone left the
    # 1,000-bus chain 5.4e-8 relative away
    tight = qs.SolverConfig(tol_gap=1e-12, tol_feas=1e-12)
    for net in (chain_network(1000, 10), _case69_copies(case69, 10)):
        prob = mdopf.build(net)
        ref = qs.solve(prob, tight)
        assert ref.status == "optimal"
        assert qs.solve(prob).objective_value == pytest.approx(
            ref.objective_value, rel=qs.SolverConfig().tol_gap)


def test_balance_prices_match_unscreened_case33_four_dgs(case33_psp):
    assert_balance_prices_match_unscreened(_four_dg_case33(case33_psp))


def test_balance_prices_match_unscreened_case69_x3(case69):
    assert_balance_prices_match_unscreened(_case69_copies(case69, 3))


def assert_balance_prices_match_unscreened(net):
    """``balance_prices`` from the kept rows against the same prices from
    every row of the unscreened problem, both solved at ``TIGHT``: within
    1e-6 of the largest."""
    prob, ref = mdopf.build(net), unscreened_build(net)
    assert prob.n_in < ref.prob.n_in
    sol, sol_u = qs.solve(prob, TIGHT), qs.solve(ref.prob, TIGHT)
    for lam, lam_u in zip(mdopf.balance_prices(net, prob, sol),
                          unscreened_balance_prices(net, ref, sol_u)):
        assert np.max(np.abs(lam - lam_u)) <= 1e-6 * np.max(np.abs(lam_u))


def test_infeasible_voltage_row_named(case33_psp):
    # at V0 = 1.05 without DGs, 16 buses sit below a 0.99 floor whatever
    # the slack does: presolve names the worst before the IPM starts
    net = netmodel.with_voltage_limits(case33_psp, v_min=0.99)
    with pytest.raises(MdopfError) as err:
        mdopf.build(net)
    msg = str(err.value)
    assert msg.startswith("OPF solve ended with status infeasible before iterating: ")
    assert "meets v_floor at bus " in msg and "16 rows proven infeasible" in msg
    w = mdf.solve_fixed_load(net).v
    worst = netmodel.path_incidence(net).order[int(np.argmin(w[1:]))]
    assert f"v_floor at bus {worst} (V at most {w.min():.4f} pu" in msg


def test_infeasible_thermal_row_named(net2):
    # the two-bus feeder's 1 pu load behind a 0.5 pu rating, with no DG to
    # relieve it
    net = with_records(net2, branches=[br._replace(i_max=0.5) for br in branch_records(net2)])
    with pytest.raises(MdopfError, match=r"infeasible before iterating: .* meets thermal at "
                                         r"branch 1-2 \(flow at least 1\.0\d* pu, rating 0\.5 pu; "
                                         r"1 rows proven infeasible\)"):
        mdopf.solve_opf(net)


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
    g = bus_record(net, net.slack).gen
    return netmodel.with_generator(
        net, net.slack, Generator(-1.0, g.p_max, g.q_min, g.q_max,
                                  g.cost_p, g.cost_q)
    )


def test_duals_zero_load_equal_psp_cost(net2):
    net = _interior_slack(netmodel.with_load(net2, 2, 0.0, 0.0))
    prob, sol, state = mdopf.solve_opf(net)
    lam_p, lam_q = mdopf.balance_prices(net, prob, sol)
    pos = netmodel.tree_positions(net)
    for b in (1, 2):
        assert lam_p[pos[b]] / state.v[pos[b]] == pytest.approx(30.0, abs=1e-4)
        assert lam_q[pos[b]] / state.v[pos[b]] == pytest.approx(3.0, abs=1e-4)


def test_duals_two_bus_near_oracle(net2):
    from radialopf import acpf

    prob, sol, state = mdopf.solve_opf(net2)
    lam_p, _ = mdopf.balance_prices(net2, prob, sol)
    pos = netmodel.tree_positions(net2)[2]
    dual_price = lam_p[pos] / state.v[pos]
    oracle = acpf.fd_price_oracle(net2, 2, "p")
    assert abs(dual_price - oracle) / oracle < 0.01


# ---------------------------------------------------------------------------
# the KKT system in its own row order without pivoting, against SuperLU's
# own column order with partial pivoting
# ---------------------------------------------------------------------------

def _kkt_rows_and_fill(prob, monkeypatch, factor=None):
    """The KKT matrices' row counts and the largest L+U nonzero count over
    the factorizations of one solve, with ``factor`` in place of
    ``qcqpsolver._Kkt.factor`` when given."""
    rows, nnz = set(), []
    splu = qs.spla.splu

    def counting(a, *args, **kwargs):
        lu = splu(a, *args, **kwargs)
        rows.add(a.shape[0])
        nnz.append(lu.L.nnz + lu.U.nnz)
        return lu

    with monkeypatch.context() as m:
        m.setattr(qs.spla, "splu", counting)
        if factor is not None:
            m.setattr(qs._Kkt, "factor", factor)
        assert qs.solve(prob).status == "optimal"
    return rows, max(nnz)


def test_tree_order_fill_at_most_default(case69, monkeypatch):
    # the generator-space KKT system in its own order without pivoting fills
    # no more than SuperLU's own column order with pivoting
    net = _case69_copies(case69, 10)
    prob = mdopf.build(net)
    tree = _kkt_rows_and_fill(prob, monkeypatch)[1]
    default = _kkt_rows_and_fill(prob, monkeypatch, pivoting_factor)[1]
    assert tree <= default


def test_kkt_fill_every_branch_rated(case69, monkeypatch):
    # every branch rated at 3x the largest load-only flow: presolve drops
    # every thermal row
    net = _case69_copies(case69, 10)
    state = mdf.solve_fixed_load(net)
    cap = 3.0 * float(np.max(np.hypot(state.p_br_hat, state.q_br_hat)))
    net = with_records(net, branches=[br._replace(i_max=cap) for br in branch_records(net)])
    assert mdopf.build(net).n_quad == 0
    # each branch rated at 1.1x its own load-only flow: presolve keeps 213
    # of the 680 thermal rows. A thermal row adds no variable and no
    # equality row, and its curvature stays within its feeder's block, so
    # the KKT matrices have the unrated problem's size and fill (84 rows,
    # 1,054 L+U nonzeros)
    unrated = _case69_copies(case69, 10)
    net = rated_network(unrated, 1.1)
    prob = mdopf.build(net)
    assert prob.n_quad == mdopf.var_blocks(net).rated.size == 213
    assert (_kkt_rows_and_fill(prob, monkeypatch)
            == _kkt_rows_and_fill(mdopf.build(unrated), monkeypatch))


def assert_tree_order_matches_default(net):
    """The solve in the KKT system's own order without pivoting and in
    SuperLU's own column order with pivoting agree at the pipeline's tolerance: dispatch
    within 1e-6 pu, objective within 1e-8 relative, thermal and balance-row
    prices within 1e-6 of the largest, and the same iteration count."""
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
    for k, b in enumerate(mdopf.var_blocks(net).gens):
        assert abs(sol_t.pg[k] - sol_d.pg[k]) < 1e-6, b
        assert abs(sol_t.qg[k] - sol_d.qg[k]) < 1e-6, b
    assert sol_t.objective_value == pytest.approx(sol_d.objective_value, rel=1e-8)
    if prob.n_quad:
        scale = np.max(np.abs(sol_d.duals_quad))
        assert np.max(np.abs(sol_t.duals_quad - sol_d.duals_quad)) <= 1e-6 * scale
    buses = list(netmodel.tree_positions(net))
    for lam_t, lam_d in zip(mdopf.balance_prices(net, prob, sol_t),
                            mdopf.balance_prices(net, prob, sol_d)):
        scale = np.max(np.abs(lam_d))
        for b, tree_b, default_b in zip(buses, lam_t, lam_d):
            assert abs(tree_b - default_b) <= 1e-6 * scale, b


def test_tree_order_matches_default_case33_four_dgs(case33_psp):
    assert_tree_order_matches_default(_four_dg_case33(case33_psp))


def test_tree_order_matches_default_case69_x3(case69):
    assert_tree_order_matches_default(_case69_copies(case69, 3))
    assert_tree_order_matches_default(rated_case69_x3(case69))


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
    assert_kkt_matches_reference(mdopf.build(rated_case69_x3(case69)),
                                 np.random.default_rng(1))


def test_solve_makes_no_second_eigendecomposition(case69, monkeypatch):
    # the build's one support_eigh certifies and projects the indefinite
    # H; the solver tests convexity on its KKT blocks and calls none
    prob = mdopf.build(_case69_copies(case69, 3))
    assert not prob.certificate.psd

    def refuse(*args, **kwargs):
        raise AssertionError("support_eigh called during the solve")

    monkeypatch.setattr(qs, "support_eigh", refuse)
    assert qs.solve(prob).status == "optimal"


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
    # Without pivoting, a solve of the last iterate's KKT system can leave a
    # componentwise relative residual far above round-off (up to 5e-9 on
    # case69 x10); the refinement step must bring it there.
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
    _, k, solve = factored[-1]
    b = np.random.default_rng(0).standard_normal(k.shape[0])
    x = solve(b)
    residual = np.abs(b - k @ x) / (abs(k) @ np.abs(x) + np.abs(b))
    assert np.max(residual) < 1e-9
