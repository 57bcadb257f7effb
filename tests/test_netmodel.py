import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from radialopf import mdopf, netmodel
from radialopf.netmodel import (
    Generator, NetworkError, build_path_incidence, duplicate_system, parse_matpower_case,
    validate,
)

from helpers import (
    Branch, Bus, assert_same_network, branch_records, bus_record, bus_records, bus_row,
    assert_bitwise, chain_network, dense_objective_h, mk_case, network, path_matrix,
    random_tree_network, reference_duplicate_system, reference_net_injections,
    reference_preorder, reference_validate, with_records,
)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_two_bus_minimal():
    text = mk_case([bus_row(1, 3), bus_row(2, pd=0.5, qd=0.1)],
                   [[1, 2, 0.01, 0.02, 0, 0]])
    net = parse_matpower_case(text)
    assert net.n_bus == 2
    assert net.records.from_bus.size == 1
    assert net.slack == 1
    assert bus_record(net, 2).p_load == 0.5


def test_parse_case33_totals(case33):
    assert case33.n_bus == 33
    assert case33.records.from_bus.size == 32
    total_p = sum(b.p_load for b in bus_records(case33)) * case33.base_power
    total_q = sum(b.q_load for b in bus_records(case33)) * case33.base_power
    assert total_p == pytest.approx(3.715, abs=1e-9)
    assert total_q == pytest.approx(2.30, abs=1e-9)


def test_parse_case69_totals(case69):
    assert case69.n_bus == 69
    total_p = sum(b.p_load for b in bus_records(case69)) * case69.base_power
    assert total_p == pytest.approx(3.80189, abs=1e-9)


def test_parse_loop_rejected():
    text = mk_case(
        [bus_row(1, 3), bus_row(2, pd=0.1), bus_row(3, pd=0.1)],
        [[1, 2, 0.01, 0.02, 0, 0], [2, 3, 0.01, 0.02, 0, 0],
         [3, 1, 0.01, 0.02, 0, 0]],
    )
    with pytest.raises(NetworkError, match="non-radial"):
        parse_matpower_case(text)


def test_parse_malformed_row():
    text = mk_case([bus_row(1, 3), bus_row(2)], [[1, 2, 0.01, "oops", 0, 0]])
    with pytest.raises(NetworkError, match="malformed row"):
        parse_matpower_case(text)


@pytest.mark.parametrize("types", [(1, 1), (3, 3)])
def test_parse_slack_count(types):
    text = mk_case([bus_row(1, types[0]), bus_row(2, types[1])],
                   [[1, 2, 0.01, 0.02, 0, 0]])
    with pytest.raises(NetworkError, match="slack"):
        parse_matpower_case(text)


def test_parse_unknown_bus_in_branch():
    text = mk_case([bus_row(1, 3), bus_row(2)], [[1, 9, 0.01, 0.02, 0, 0]])
    with pytest.raises(NetworkError, match="unknown bus"):
        parse_matpower_case(text)


def test_parse_both_structural_faults_reports_the_unknown_end_first():
    # the tree search checks the branch ends before the bus ids
    text = mk_case([bus_row(1, 3), bus_row(2), bus_row(2)],
                   [[1, 2, 0.01, 0.02, 0, 0], [2, 9, 0.01, 0.02, 0, 0]])
    with pytest.raises(NetworkError, match="^branch 2-9 references an unknown bus$"):
        parse_matpower_case(text)


def test_load_case_reads_network_json_by_suffix(case33, tmp_path):
    path = tmp_path / "net.json"
    path.write_text(netmodel.to_json(case33))
    assert_same_network(netmodel.load_case(path), case33)
    assert_same_network(netmodel.load_case(str(path)), case33)


def test_load_case_missing_path_is_network_error(tmp_path):
    path = tmp_path / "absent.m"
    with pytest.raises(NetworkError) as info:
        netmodel.load_case(path)
    assert str(info.value).startswith(f"cannot read {path}: ")


def test_parse_unknown_bus_in_gen():
    text = mk_case([bus_row(1, 3), bus_row(2)], [[1, 2, 0.01, 0.02, 0, 0]],
                   gen_rows=[[7, 0, 0, 1, -1, 1, 1, 1, 1, 0]])
    with pytest.raises(NetworkError, match="unknown bus"):
        parse_matpower_case(text)


def test_parse_polynomial_gencost_rejected():
    text = mk_case([bus_row(1, 3), bus_row(2)], [[1, 2, 0.01, 0.02, 0, 0]],
                   gen_rows=[[1, 0, 0, 1, -1, 1, 1, 1, 1, 0]],
                   gencost_rows=[[2, 0, 0, 3, 0.1, 20, 0]])
    with pytest.raises(NetworkError, match="linear costs"):
        parse_matpower_case(text)


@pytest.mark.parametrize("coefficients", [[], [30]])
def test_parse_short_gencost_row_rejected(coefficients):
    text = mk_case([bus_row(1, 3), bus_row(2)], [[1, 2, 0.01, 0.02, 0, 0]],
                   gen_rows=[[1, 0, 0, 1, -1, 1, 1, 1, 1, 0]],
                   gencost_rows=[[2, 0, 0, 2, *coefficients]])
    with pytest.raises(NetworkError, match="NCOST=2 needs 2 coefficients"):
        parse_matpower_case(text)


def test_parse_comments_and_semicolon_rows():
    text = (
        "% header comment\nmpc.baseMVA = 10; % trailing\n"
        "mpc.bus = [ 1 3 0 0 0 0 1 1 0 12.66 1 1.1 0.9; "
        "2 1 1 0 0 0 1 1 0 12.66 1 1.1 0.9; ];\n"
        "mpc.branch = [ 1 2 0.01 0.02 0 0 ];\n"
    )
    net = parse_matpower_case(text)
    assert net.n_bus == 2 and net.base_power == 10


def test_parse_normalizes_branch_orientation():
    text = mk_case(
        [bus_row(1, 3), bus_row(2, pd=0.1), bus_row(3, pd=0.1)],
        [[3, 2, 0.01, 0.02, 0, 0], [2, 1, 0.01, 0.02, 0, 0]],
    )
    net = parse_matpower_case(text)
    assert {(br.from_bus, br.to_bus) for br in branch_records(net)} == {(1, 2), (2, 3)}


def test_parse_rate_a_maps_to_i_max():
    text = mk_case([bus_row(1, 3), bus_row(2, pd=0.1)],
                   [[1, 2, 0.01, 0.02, 0, 5.0]], base=10.0)
    net = parse_matpower_case(text)
    assert branch_records(net)[0].i_max == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# path incidence
# ---------------------------------------------------------------------------

def test_incidence_two_bus(net2):
    ti = build_path_incidence(net2)
    assert ti.order == (2,)
    assert ti.t.solve(np.eye(1)).tolist() == [[1.0]]


def test_incidence_three_bus_chain():
    net = parse_matpower_case(mk_case(
        [bus_row(1, 3), bus_row(2, pd=0.1), bus_row(3, pd=0.1)],
        [[1, 2, 0.01, 0.01, 0, 0], [2, 3, 0.01, 0.01, 0, 0]],
    ))
    ti = build_path_incidence(net)
    assert ti.order == (2, 3)
    assert ti.t.solve(np.eye(2)).tolist() == [[1.0, 1.0], [0.0, 1.0]]


def test_incidence_three_bus_star():
    net = parse_matpower_case(mk_case(
        [bus_row(1, 3), bus_row(2, pd=0.1), bus_row(3, pd=0.1)],
        [[1, 2, 0.01, 0.01, 0, 0], [1, 3, 0.01, 0.01, 0, 0]],
    ))
    ti = build_path_incidence(net)
    assert np.array_equal(ti.t.solve(np.eye(2)), np.eye(2))


def _depth(net, bus_id):
    parents = {br.to_bus: br.from_bus for br in branch_records(net)}
    d = 0
    while bus_id != net.slack:
        bus_id = parents[bus_id]
        d += 1
    return d


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_incidence_tree_properties(data):
    n = data.draw(st.integers(2, 30))
    seed = data.draw(st.integers(0, 2**31 - 1))
    net = random_tree_network(np.random.default_rng(seed), n)
    ti = build_path_incidence(net)
    t = ti.t.solve(np.eye(ti.n))
    # unit upper triangular under the topological order
    assert np.allclose(np.diag(t), 1.0)
    assert np.allclose(np.tril(t, -1), 0.0)
    # column k has depth(k) ones
    for k, bus in enumerate(ti.order):
        assert t[:, k].sum() == _depth(net, bus)
    # inverse exists with entries in {-1, 0, 1}
    tinv = np.linalg.inv(t)
    assert np.allclose(np.abs(tinv - np.round(tinv)), 0.0, atol=1e-9)
    assert set(np.unique(np.round(tinv))) <= {-1.0, 0.0, 1.0}


def test_incidence_order_independent(case33):
    """T built from any topological order equals the canonical T after
    permutation to the canonical order."""
    ti = build_path_incidence(case33)
    parents = {br.to_bus: br.from_bus for br in branch_records(case33)}
    # BFS order is a different valid topological order
    order_bfs = []
    frontier = [case33.slack]
    children = {}
    for br in branch_records(case33):
        children.setdefault(br.from_bus, []).append(br.to_bus)
    while frontier:
        nxt = []
        for u in frontier:
            for v in sorted(children.get(u, [])):
                order_bfs.append(v)
                nxt.append(v)
        frontier = nxt
    assert sorted(order_bfs) == sorted(ti.order)
    pos = {b: i for i, b in enumerate(order_bfs)}
    n = len(order_bfs)
    t_bfs = np.zeros((n, n))
    for k, bus in enumerate(order_bfs):
        u = bus
        while u != case33.slack:
            t_bfs[pos[u], k] = 1.0
            u = parents[u]
    perm = [pos[b] for b in ti.order]
    assert np.array_equal(t_bfs[np.ix_(perm, perm)], ti.t.solve(np.eye(n)))


def _path_sum_networks(case33, case69):
    """Feeders with generators: case33 with four, case69 x3 with four per
    copy, 50 random trees and a 1,000-bus chain."""
    gen = Generator(0.0, 0.02, 0.0, 0.01, 25.0, 2.0)
    c33 = case33
    c69 = case69
    for b in (18, 22, 25, 33):
        c33 = netmodel.with_generator(c33, b, gen)
    for b in (27, 35, 46, 65):
        c69 = netmodel.with_generator(c69, b, gen)
    rng = np.random.default_rng(40)
    trees = [random_tree_network(rng, int(rng.integers(2, 120)), gen_frac=0.3)
             for _ in range(50)]
    return [netmodel.with_slack_costs(c33, 30.0, 3.0),
            netmodel.with_slack_costs(duplicate_system(c69, 3, seed=42), 30.0, 3.0),
            *trees, chain_network(1000, 100)]


def test_path_sums_match_path_matrix(case33, case69):
    """Each product the package takes with the path matrix (T x, T' y and T
    at the generator columns) matches the explicit T, and networkx's
    descendant and ancestor sums, within 1e-12 relative."""
    rng = np.random.default_rng(41)
    for net in _path_sum_networks(case33, case69):
        ti = build_path_incidence(net)
        t = path_matrix(ti)
        # positive entries: no cancellation, so every entry holds to rtol
        x = rng.uniform(0.5, 1.5, ti.n)
        y = rng.uniform(0.5, 1.5, ti.n)
        tx = ti.t.solve(x)
        ty = ti.t.solve(y, trans="T")
        np.testing.assert_allclose(tx, t @ x, rtol=1e-12, atol=0)
        np.testing.assert_allclose(ty, t.T @ y, rtol=1e-12, atol=0)
        # bus k's branch row is k, so its sums run over the feeder's tree
        pos = {b: k for k, b in enumerate(ti.order)}
        tree = nx.DiGraph((br.from_bus, br.to_bus) for br in branch_records(net))
        down = [x[k] + sum(x[pos[d]] for d in nx.descendants(tree, b))
                for k, b in enumerate(ti.order)]
        up = [y[k] + sum(y[pos[a]] for a in nx.ancestors(tree, b) if a != net.slack)
              for k, b in enumerate(ti.order)]
        np.testing.assert_allclose(tx, down, rtol=1e-12, atol=0)
        np.testing.assert_allclose(ty, up, rtol=1e-12, atol=0)
        # the generator block of the objective reads T at the generator columns
        h = mdopf.build_objective(net)[0].toarray()
        want = dense_objective_h(net, ti).toarray()
        assert np.any(want)
        np.testing.assert_allclose(h, want, rtol=1e-12, atol=0)


def test_path_incidence_is_linear_on_a_deep_feeder():
    """On a 3,000-bus chain the path matrix would hold 4.5 million nonzeros;
    the factor of I - A holds the identity L and U = I - A. SuperLU counts
    the diagonal in both, so its ``nnz`` reads 3n - 1 here."""
    net = chain_network(3000, 100)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ti = build_path_incidence(net)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n = ti.n
    assert retained < 2 * 1024 * 1024
    assert ti.t.L.nnz == n and ti.t.U.nnz <= 2 * n
    assert ti.t.nnz <= 3 * n


def _default_panel_factor(ti):
    """SuperLU's factor of I - A (A[parent_pos[k], k] = 1) with the options
    of ``build_path_incidence`` but SuperLU's default 10-column panels."""
    n, child = ti.n, np.flatnonzero(ti.parent_pos >= 0)
    i_minus_a = sp.identity(n, format="csc") - sp.csc_matrix(
        (np.ones(child.size), (ti.parent_pos[child], child)), shape=(n, n))
    return spla.splu(i_minus_a, permc_spec="NATURAL", diag_pivot_thresh=0, relax=1)


def test_path_incidence_factor_matches_default_panel(case69):
    """The one-column panels of ``build_path_incidence`` change only
    SuperLU's workspace: on random trees, on feeders duplicated many times
    and on a 3,000-bus chain, the factor has the default panel's L, U and
    nonzero counts, and its solves are bitwise equal in both transposes."""
    rng = np.random.default_rng(44)
    nets = [random_tree_network(rng, int(rng.integers(2, 400))) for _ in range(30)]
    nets += [duplicate_system(case69, 70, seed=1), duplicate_system(case69, 100, seed=1),
             duplicate_system(chain_network(500, 100), 20, seed=1), chain_network(3000, 100)]
    for net in nets:
        ti = build_path_incidence(net)
        ref = _default_panel_factor(ti)
        assert (ti.t.L.nnz, ti.t.U.nnz, ti.t.nnz) == (ref.L.nnz, ref.U.nnz, ref.nnz)
        assert (ti.t.L != ref.L).nnz == 0 and (ti.t.U != ref.U).nnz == 0
        rhs = rng.standard_normal((ti.n, 3))
        for trans in ("N", "T"):
            assert np.array_equal(ti.t.solve(rhs, trans=trans), ref.solve(rhs, trans=trans))
            assert np.array_equal(ti.t.solve(rhs[:, 0], trans=trans),
                                  ref.solve(rhs[:, 0], trans=trans))
    # case69 x100: 6,800 branch rows, 6,700 of them below another branch
    assert nets[31].n_bus == 6801 and build_path_incidence(nets[31]).t.nnz == 20300


def relabelled(net, rng):
    """The same feeder under random bus ids, with buses and branches stored in
    random order and about half of the branches reversed."""
    ids = dict(zip(net.records.bus_id.tolist(),
                   rng.permutation(10 * net.n_bus)[:net.n_bus].tolist()))
    buses = [b._replace(id=ids[b.id]) for b in bus_records(net)]
    branches = []
    for br in branch_records(net):
        ends = (ids[br.from_bus], ids[br.to_bus])
        if rng.random() < 0.5:
            ends = ends[::-1]
        branches.append(Branch(*ends, br.r, br.x, br.i_max))
    return network(
        [buses[i] for i in rng.permutation(len(buses))],
        [branches[i] for i in rng.permutation(len(branches))],
        slack=ids[net.slack], base_power=net.base_power,
    )


def test_tree_order_matches_two_pass_reference(case69):
    """The compiled search yields the preorder and parents of the reference."""
    rng = np.random.default_rng(300)
    nets = [duplicate_system(case69, 70, seed=1)]
    nets += [relabelled(random_tree_network(rng, int(rng.integers(2, 80))), rng)
             for _ in range(100)]
    for net in nets:
        ti = build_path_incidence(net)
        order, parent_pos = reference_preorder(net)
        assert list(ti.order) == order
        assert list(ti.parent_pos) == parent_pos
        by_child = {frozenset((br.from_bus, br.to_bus)): br for br in branch_records(net)}
        for i, b in enumerate(ti.order):
            parent = net.slack if parent_pos[i] < 0 else order[parent_pos[i]]
            assert ti.r[i] == by_child[frozenset((parent, b))].r


def _reference_feeders(net) -> list[int]:
    """Each non-slack bus's feeder, in ``reference_preorder``'s bus order,
    from networkx: the components of the tree without the slack, numbered
    by the preorder position of their top bus (the one next to the slack)."""
    order, _ = reference_preorder(net)
    pos = {b: k for k, b in enumerate(order)}
    graph = nx.Graph((br.from_bus, br.to_bus) for br in branch_records(net))
    graph.add_node(net.slack)
    tops = sorted(graph.neighbors(net.slack), key=pos.get)
    graph.remove_node(net.slack)
    feeder = {}
    for k, top in enumerate(tops):
        feeder.update(dict.fromkeys(nx.node_connected_component(graph, top), k))
    return [feeder[b] for b in order]


def test_feeder_numbers_match_networkx(case69):
    """``PathIncidence.feeder`` is each branch row's feeder as networkx finds
    it, on 20 random multi-feeder trees with shuffled bus ids, the slack
    alone and case69 x100; it is read-only."""
    rng = np.random.default_rng(33)
    nets = [relabelled(duplicate_system(random_tree_network(rng, int(rng.integers(2, 30))),
                                        int(rng.integers(2, 6)), seed=k), rng)
            for k in range(20)]
    nets += [network([Bus(id=1)], [], slack=1), duplicate_system(case69, 100, seed=1)]
    for net in nets:
        feeder = build_path_incidence(net).feeder
        assert feeder.tolist() == _reference_feeders(net)
        assert not feeder.flags.writeable
    assert all(build_path_incidence(net).feeder.max() >= 1 for net in nets[:20])
    assert nets[20].n_bus == 1 and build_path_incidence(nets[20]).feeder.size == 0
    assert np.bincount(build_path_incidence(nets[21]).feeder).tolist() == [68] * 100


def test_tree_searched_once_per_network(case69, monkeypatch):
    """validate, build_path_incidence and tree_positions share one compiled
    search, over one column view."""
    calls = []
    search = netmodel.csgraph.depth_first_order

    def counting(graph, *args, **kwargs):
        calls.append(graph.shape[0])
        return search(graph, *args, **kwargs)

    monkeypatch.setattr(netmodel.csgraph, "depth_first_order", counting)
    net = duplicate_system(case69, 3, seed=1)
    assert validate(net) == []
    ti = build_path_incidence(net)
    assert list(netmodel.tree_positions(net)) == [net.slack, *ti.order]
    assert calls == [net.n_bus]
    assert netmodel.columns(net) is netmodel.columns(net)


def test_column_view_is_in_array_order(case69):
    """On records stored in random order, with random ids and reversed
    branches, the column view's bus fields follow ``tree_positions`` and its
    branch fields the path incidence's rows, which share its arrays."""
    net = relabelled(duplicate_system(case69, 3, seed=1), np.random.default_rng(5))
    cols, ti = netmodel.columns(net), netmodel.path_incidence(net)
    assert cols.bus_id.tolist() == list(netmodel.tree_positions(net))
    assert cols.bus_id.tolist() != net.records.bus_id.tolist()
    for name in ("r", "x", "i_max"):
        assert np.shares_memory(getattr(cols, name), getattr(ti, name)), name
    parent = [net.slack if k < 0 else ti.order[k] for k in ti.parent_pos.tolist()]
    assert list(map(set, zip(cols.from_bus.tolist(), cols.to_bus.tolist()))) == list(
        map(set, zip(ti.order, parent)))
    assert cols.p_load.tolist() == [bus_record(net, b).p_load for b in cols.bus_id.tolist()]
    assert {"radialopf.netmodel.columns", "radialopf.netmodel._root_tree"} <= vars(net).keys()


def _chain(n_bus, ends, slack=1, ids=None):
    """Buses ``ids`` (default 1..n_bus) joined by the branches ``ends``."""
    ids = ids or range(1, n_bus + 1)
    return network([Bus(i, p_load=0.01) for i in ids],
                   [Branch(f, t, 0.01, 0.02) for f, t in ends], slack=slack)


@pytest.mark.parametrize("net, says", [
    # with n - 1 branches a cycle leaves a bus unreached
    (_chain(5, [(1, 2), (2, 3), (3, 4), (4, 2)]), "disconnected: unreachable buses [5]"),
    (_chain(4, [(1, 2), (2, 3), (3, 4), (4, 2)]), "non-radial topology: 4 branches for 4 buses"),
    (_chain(4, [(1, 2), (2, 3)]), "disconnected: unreachable buses [4]"),
    (_chain(4, [(1, 2), (2, 3), (3, 4), (2, 3)]), "non-radial topology: 4 branches for 4 buses"),
    (_chain(4, [(1, 2), (2, 3), (3, 4), (4, 4)]), "non-radial topology: 4 branches for 4 buses"),
    (_chain(4, [(1, 2), (2, 3), (3, 9)]), "branch 3-9 references an unknown bus"),
    (_chain(4, [(1, 2), (2, 3), (3, 1)], ids=[1, 2, 2, 3]), "duplicate bus ids [2]"),
    (_chain(4, [(1, 2), (2, 3), (3, 4)], slack=7), "slack bus 7 is not in the bus list"),
], ids=["cycle", "cycle_extra_branch", "isolated", "parallel", "self_loop", "unknown_end",
        "duplicate_id", "no_slack"])
def test_path_incidence_rejects_non_trees(net, says):
    with pytest.raises(NetworkError) as exc:
        netmodel.path_incidence(net)
    assert str(exc.value).endswith(says)
    # ``per_network`` keys a memo by its function's module and qualified name
    assert "radialopf.netmodel.path_incidence" not in vars(net)
    assert "radialopf.netmodel._root_tree" not in vars(net)


_ODD_VALUES = [math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0, 1e-3, 2.0]
_UNKNOWN = 10 ** 6


@st.composite
def _overlaid_trees(draw):
    """A random ``helpers`` tree with up to six overlays: odd numbers in
    bus, generator, branch and network fields, unknown endpoints, duplicate
    ids, flipped or rewired branches, an isolated bus, a parallel branch, a
    self-loop and a slack that moved."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    net = random_tree_network(rng, draw(st.integers(1, 10)), gen_frac=0.3)
    buses, branches = bus_records(net), branch_records(net)
    top = dict(slack=net.slack, base_power=net.base_power, base_voltage=net.base_voltage,
               v0=net.v0)

    def pick(seq):  # the first few records, so that overlays often meet
        return draw(st.integers(0, min(len(seq), 3) - 1))

    def odd():
        return draw(st.sampled_from(_ODD_VALUES))

    for kind in draw(st.lists(st.sampled_from(
            ["bus", "gen", "branch", "network", "unknown", "duplicate", "flip", "rewire",
             "isolated", "parallel", "self_loop", "slack"]), max_size=6)):
        i = pick(buses)
        if kind == "bus":
            field = draw(st.sampled_from(["p_load", "q_load", "v_min", "v_max"]))
            buses[i] = buses[i]._replace(**{field: odd()})
        elif kind == "gen":
            gen = buses[i].gen or Generator(0.0, 0.1, 0.0, 0.05, 1.0, 1.0)
            field = draw(st.sampled_from(["p_min", "p_max", "q_min", "q_max", "cost_p",
                                          "cost_q"]))
            buses[i] = buses[i]._replace(gen=replace(gen, **{field: odd()}))
        elif kind == "network":
            top[draw(st.sampled_from(["base_power", "base_voltage", "v0"]))] = odd()
        elif kind == "duplicate":
            buses[i] = buses[i]._replace(id=buses[pick(buses)].id)
        elif kind == "isolated":
            buses.append(Bus(max(b.id for b in buses) + 1, p_load=0.01))
        elif kind == "self_loop":
            branches.append(Branch(buses[i].id, buses[i].id, 0.01, 0.02))
        elif kind == "slack":
            top["slack"] = draw(st.sampled_from([buses[i].id, _UNKNOWN]))
        elif branches:
            j = pick(branches)
            br = branches[j]
            if kind == "branch":
                fields = draw(st.sampled_from([("r",), ("x",), ("r", "x"), ("i_max",)]))
                branches[j] = br._replace(**dict.fromkeys(fields, odd()))
            elif kind == "unknown":
                branches[j] = br._replace(**{draw(st.sampled_from(["from_bus", "to_bus"])):
                                             _UNKNOWN})
            elif kind == "flip":
                branches[j] = br._replace(from_bus=br.to_bus, to_bus=br.from_bus)
            elif kind == "rewire":  # a new parent: still a tree, or a cycle and a cut
                branches[j] = br._replace(from_bus=buses[i].id)
            else:
                branches.append(br)
    return network(buses, branches, **top)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_overlaid_trees())
def test_validate_matches_record_reference(net):
    """The array checks return the per-record reference's messages in its
    order, without a RuntimeWarning on NaN or infinite values."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = validate(net)
    assert got == reference_validate(net)


def test_path_incidence_memo_lives_with_its_network(case33):
    """The memo is per instance: a network with one branch changed gets its
    own path incidence, whose resistance row reflects the change."""
    ti = netmodel.path_incidence(case33)
    assert netmodel.path_incidence(case33) is ti
    child = branch_records(case33)[5].to_bus
    changed = with_records(case33, branches=[
        br._replace(r=2.0 * br.r) if br.to_bus == child else br
        for br in branch_records(case33)])
    ti2 = netmodel.path_incidence(changed)
    assert ti2 is not ti and netmodel.path_incidence(changed) is ti2
    k = ti2.order.index(child)
    assert ti2.r[k] == 2.0 * ti.r[k]
    assert np.array_equal(np.delete(ti2.r, k), np.delete(ti.r, k))


def test_validate_names_reversed_branch():
    net = parse_matpower_case(mk_case(
        [bus_row(1, 3), bus_row(2, pd=0.1), bus_row(3, pd=0.1)],
        [[1, 2, 0.01, 0.01, 0, 0], [2, 3, 0.01, 0.01, 0, 0]],
    ))
    first, br = branch_records(net)
    flipped = network(bus_records(net), [first, Branch(br.to_bus, br.from_bus, br.r, br.x)],
                      slack=net.slack)
    assert validate(flipped) == ["branch 3-2: not oriented parent to child"]
    assert branch_records(netmodel.normalize_orientation(flipped)) == branch_records(net)


_DG = Generator(0.0, 0.02, 0.0, 0.01, 25.0, 2.0)
_OVERLAYS = {
    "with_slack_voltage": lambda net: netmodel.with_slack_voltage(net, 1.05),
    "with_generator": lambda net: netmodel.with_generator(net, 18, _DG),
    "without_generator": lambda net: netmodel.with_generator(net, net.slack, None),
    "with_load": lambda net: netmodel.with_load(net, 5, 0.1, 0.05),
    "with_slack_costs": lambda net: netmodel.with_slack_costs(net, 31.0, 4.0),
    "scale_loads": lambda net: netmodel.scale_loads(net, 1.5),
    "scale_impedance": lambda net: netmodel.scale_impedance(net, 0.5),
    "with_voltage_limits": lambda net: netmodel.with_voltage_limits(net, 0.95, 1.05),
    "strip_thermal_limits": netmodel.strip_thermal_limits,
    "normalize_orientation": netmodel.normalize_orientation,
}


@pytest.mark.parametrize("overlay", list(_OVERLAYS))
def test_overlay_returns_new_network_and_leaves_its_input(case33, overlay):
    """Each overlay returns a new network, with read-only columns (shared
    where unchanged), no memos and other numbers, and its input keeps its
    arrays (read-only, same numbers) and its memos. The input has a slack
    generator, a rated branch and, for ``normalize_orientation``, every
    third branch stored child to parent."""
    rows = branch_records(case33)
    rows[3] = rows[3]._replace(i_max=0.5)
    if overlay == "normalize_orientation":
        rows[::3] = [br._replace(from_bus=br.to_bus, to_bus=br.from_bus) for br in rows[::3]]
    net = with_records(netmodel.with_slack_costs(case33, 30.0, 3.0), branches=rows)
    ti = netmodel.path_incidence(net)
    records, memos = net.records, dict(vars(net))
    before = {name: col.copy() for name, col in vars(records).items()}
    out = _OVERLAYS[overlay](net)
    assert out is not net
    assert net.records is records and vars(net).keys() == memos.keys()
    assert all(vars(net)[key] is value for key, value in memos.items())
    assert netmodel.path_incidence(net) is ti
    for name, col in vars(records).items():
        assert not col.flags.writeable, name
        np.testing.assert_array_equal(col, before[name], err_msg=name)
    assert not any(key.startswith("radialopf.") for key in vars(out))
    assert not any(col.flags.writeable for col in vars(out.records).values())
    assert netmodel.to_json(out) != netmodel.to_json(net)


# ---------------------------------------------------------------------------
# duplication
# ---------------------------------------------------------------------------

def test_duplicate_case33_100(case33):
    dup = duplicate_system(case33, 100, seed=1)
    assert dup.n_bus == 3201
    assert dup.records.from_bus.size == 3200
    assert not validate(dup)


def test_duplicate_case69_100(case69):
    dup = duplicate_system(case69, 100, seed=1)
    assert dup.n_bus == 6801


def test_duplicate_identity(case33):
    dup = duplicate_system(case33, 1, seed=0, scale_lo=1.0, scale_hi=1.0)
    assert dup.n_bus == case33.n_bus
    assert dup.records.p_load.tolist() == case33.records.p_load.tolist()
    assert dup.records.r.tolist() == case33.records.r.tolist()
    assert dup.records.x.tolist() == case33.records.x.tolist()


def test_duplicate_deterministic(case33):
    a = duplicate_system(case33, 7, seed=123)
    b = duplicate_system(case33, 7, seed=123)
    assert netmodel.to_json(a) == netmodel.to_json(b)
    c = duplicate_system(case33, 7, seed=124)
    assert netmodel.to_json(a) != netmodel.to_json(c)


def test_duplicate_scales_within_range(case33):
    dup = duplicate_system(case33, 3, seed=5, scale_lo=0.7, scale_hi=1.3)
    for c in range(3):
        for j, br in enumerate(branch_records(case33)):
            dbr = branch_records(dup)[c * 32 + j]
            f = dbr.r / br.r
            assert 0.7 <= f <= 1.3
            assert dbr.x / br.x == pytest.approx(f)


@pytest.mark.parametrize("case, copies", [("case33", 5), ("case69", 7), ("case33", 1)])
def test_duplicate_matches_reference(case, copies, request):
    # the tiled columns carry the same values as the record-by-record
    # reference, column by column, so the network JSON is byte-identical
    net = request.getfixturevalue(case)
    with_dg = netmodel.with_generator(
        netmodel.with_slack_costs(net, 30.0, 3.0), 18,
        Generator(0.0, 0.02, 0.0, 0.01, 25.0, 2.0))
    no_slack_gen = netmodel.with_generator(net, net.slack, None)
    for base in (net, with_dg, no_slack_gen):
        for seed in (0, 1, 42, 1042, 2042):
            dup = duplicate_system(base, copies, seed=seed)
            ref = reference_duplicate_system(base, copies, seed=seed)
            assert_same_network(dup, ref)
            assert netmodel.to_json(dup) == netmodel.to_json(ref)
    assert bus_record(duplicate_system(no_slack_gen, copies), 1).gen is None
    for lo, hi in ((0.5, 2.0), (1.3, 1.3)):
        dup = duplicate_system(net, copies, seed=3, scale_lo=lo, scale_hi=hi)
        assert_same_network(
            dup, reference_duplicate_system(net, copies, seed=3, scale_lo=lo, scale_hi=hi))


def test_duplicate_requires_positive_copies(case33):
    with pytest.raises(ValueError):
        duplicate_system(case33, 0, seed=0)


# ---------------------------------------------------------------------------
# validate and JSON round trip
# ---------------------------------------------------------------------------

def test_validate_clean_cases(case33, case69):
    assert validate(case33) == []
    assert validate(case69) == []


def test_validate_zero_impedance():
    net = network([Bus(1), Bus(2, p_load=0.1)], [Branch(1, 2, 0.0, 0.0)], slack=1)
    msgs = validate(net)
    assert len(msgs) == 1 and "both zero" in msgs[0]
    # an unknown endpoint is the branch's one message
    stray = with_records(net, branches=[*branch_records(net),
                                        Branch(2, 9, 0.0, 0.0, float("nan"))])
    assert validate(stray) == reference_validate(stray) == [
        "branch 1-2: resistance and reactance both zero", "branch 2-9: unknown endpoint"]


def test_validate_duplicate_ids():
    net = network([Bus(1), Bus(1)], [], slack=1)
    assert any("duplicate bus ids" in m for m in validate(net))


def test_validate_negative_load_and_bad_limits():
    net = network([Bus(1), Bus(2, p_load=-0.1, v_min=1.2, v_max=1.1)],
                  [Branch(1, 2, 0.01, 0.01)], slack=1)
    msgs = validate(net)
    assert any("negative load" in m for m in msgs)
    assert any("v_min" in m for m in msgs)


def test_validate_gen_bounds_and_costs():
    g = Generator(p_min=1.0, p_max=0.0, q_min=0.0, q_max=0.0, cost_p=-3.0)
    net = network([Bus(1), Bus(2, gen=g)], [Branch(1, 2, 0.01, 0.01)], slack=1)
    msgs = validate(net)
    assert any("bounds out of order" in m for m in msgs)
    assert any("negative generator cost" in m for m in msgs)


def test_json_round_trip(case33, case69):
    for net in (case33, case69):
        assert_same_network(netmodel.from_json(netmodel.to_json(net)), net)


def test_json_round_trip_with_gen(case33):
    net = netmodel.with_generator(
        case33, 18, Generator(0.0, 0.1, 0.0, 0.05, 31.0, 2.0)
    )
    assert_same_network(netmodel.from_json(netmodel.to_json(net)), net)


def test_json_rejects_other_documents():
    with pytest.raises(NetworkError):
        netmodel.from_json(json.dumps({"format": "something-else"}))


def test_net_injections_with_dispatch(case33):
    net = netmodel.with_generator(case33, 18, Generator(0.0, 0.1, 0.0, 0.1))
    ti = build_path_incidence(net)
    # generator order: the supply point, then bus 18
    p, q = netmodel.net_injections(net, np.array([0.3, 0.05]), np.array([0.1, 0.02]))
    i = ti.order.index(18)
    assert p[i] == pytest.approx(0.05 - bus_record(net, 18).p_load)
    assert q[i] == pytest.approx(0.02 - bus_record(net, 18).q_load)


@pytest.mark.parametrize("seed", range(6))
def test_net_injections_match_the_per_generator_loop_bitwise(seed):
    # a generator at the supply point (``random_tree_network`` gives it one)
    # and at some buses; zero loads at a third of the buses, with and
    # without a generator, where a scatter that wrote -load would leave -0.0
    rng = np.random.default_rng(seed)
    net = random_tree_network(rng, 40, gen_frac=0.4)
    for b in net.records.bus_id[rng.permutation(net.n_bus)[:13]].tolist():
        net = netmodel.with_load(net, b, 0.0, 0.0)
    cols = netmodel.columns(net)
    zero = cols.p_load[1:] == 0.0
    assert cols.gen[0] and (zero & cols.gen[1:]).any() and (zero & ~cols.gen[1:]).any()
    gens = cols.bus_id[cols.gen].tolist()
    pg, qg = rng.uniform(-0.1, 0.1, (2, len(gens)))
    pg[1::3], qg[2::3] = 0.0, -0.0
    assert mdopf.var_blocks(net).gens == tuple(gens)
    for dispatch in ((), (pg, qg)):
        by_bus = [dict(zip(gens, d.tolist())) for d in dispatch]
        for got, want in zip(netmodel.net_injections(net, *dispatch),
                             reference_net_injections(net, *by_bus)):
            assert_bitwise(got, want)
