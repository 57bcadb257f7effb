import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radialopf import netmodel
from radialopf.netmodel import (
    Branch, Bus, Generator, Network, NetworkError,
    build_path_incidence, duplicate_system, parse_matpower_case, validate,
)

from helpers import bus_row, mk_case, random_tree_network, reference_preorder


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_two_bus_minimal():
    text = mk_case([bus_row(1, 3), bus_row(2, pd=0.5, qd=0.1)],
                   [[1, 2, 0.01, 0.02, 0, 0]])
    net = parse_matpower_case(text)
    assert net.n_bus == 2
    assert len(net.branches) == 1
    assert net.slack == 1
    assert net.bus(2).p_load == 0.5


def test_parse_case33_totals(case33):
    assert case33.n_bus == 33
    assert len(case33.branches) == 32
    total_p = sum(b.p_load for b in case33.buses) * case33.base_power
    total_q = sum(b.q_load for b in case33.buses) * case33.base_power
    assert total_p == pytest.approx(3.715, abs=1e-9)
    assert total_q == pytest.approx(2.30, abs=1e-9)


def test_parse_case69_totals(case69):
    assert case69.n_bus == 69
    total_p = sum(b.p_load for b in case69.buses) * case69.base_power
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
    assert {(br.from_bus, br.to_bus) for br in net.branches} == {(1, 2), (2, 3)}


def test_parse_rate_a_maps_to_i_max():
    text = mk_case([bus_row(1, 3), bus_row(2, pd=0.1)],
                   [[1, 2, 0.01, 0.02, 0, 5.0]], base=10.0)
    net = parse_matpower_case(text)
    assert net.branches[0].i_max == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# path incidence
# ---------------------------------------------------------------------------

def test_incidence_two_bus(net2):
    ti = build_path_incidence(net2)
    assert ti.order == (2,)
    assert ti.t.toarray().tolist() == [[1.0]]


def test_incidence_three_bus_chain():
    net = parse_matpower_case(mk_case(
        [bus_row(1, 3), bus_row(2, pd=0.1), bus_row(3, pd=0.1)],
        [[1, 2, 0.01, 0.01, 0, 0], [2, 3, 0.01, 0.01, 0, 0]],
    ))
    ti = build_path_incidence(net)
    assert ti.order == (2, 3)
    assert ti.t.toarray().tolist() == [[1.0, 1.0], [0.0, 1.0]]


def test_incidence_three_bus_star():
    net = parse_matpower_case(mk_case(
        [bus_row(1, 3), bus_row(2, pd=0.1), bus_row(3, pd=0.1)],
        [[1, 2, 0.01, 0.01, 0, 0], [1, 3, 0.01, 0.01, 0, 0]],
    ))
    ti = build_path_incidence(net)
    assert np.array_equal(ti.t.toarray(), np.eye(2))


def _depth(net, bus_id):
    parents = {br.to_bus: br.from_bus for br in net.branches}
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
    t = ti.t.toarray()
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
    parents = {br.to_bus: br.from_bus for br in case33.branches}
    # BFS order is a different valid topological order
    order_bfs = []
    frontier = [case33.slack]
    children = {}
    for br in case33.branches:
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
    assert np.array_equal(t_bfs[np.ix_(perm, perm)], ti.t.toarray())


def relabelled(net, rng):
    """The same feeder under random bus ids, with buses and branches stored in
    random order and about half of the branches reversed."""
    ids = dict(zip((b.id for b in net.buses),
                   rng.permutation(10 * net.n_bus)[:net.n_bus].tolist()))
    buses = [Bus(ids[b.id], b.p_load, b.q_load, b.v_min, b.v_max, b.gen)
             for b in net.buses]
    branches = []
    for br in net.branches:
        ends = (ids[br.from_bus], ids[br.to_bus])
        if rng.random() < 0.5:
            ends = ends[::-1]
        branches.append(Branch(*ends, br.r, br.x, br.i_max))
    return Network(
        tuple(buses[i] for i in rng.permutation(len(buses))),
        tuple(branches[i] for i in rng.permutation(len(branches))),
        slack=ids[net.slack], base_power=net.base_power,
    )


def test_tree_order_matches_two_pass_reference(case69):
    """The one-pass DFS yields the preorder and parents of the reference."""
    rng = np.random.default_rng(300)
    nets = [duplicate_system(case69, 70, seed=1)]
    nets += [relabelled(random_tree_network(rng, int(rng.integers(2, 80))), rng)
             for _ in range(100)]
    for net in nets:
        ti = build_path_incidence(net)
        order, parent_pos = reference_preorder(net)
        assert list(ti.order) == order
        assert list(ti.parent_pos) == parent_pos
        by_child = {frozenset((br.from_bus, br.to_bus)): br for br in net.branches}
        for i, b in enumerate(ti.order):
            parent = net.slack if parent_pos[i] < 0 else order[parent_pos[i]]
            assert ti.r[i] == by_child[frozenset((parent, b))].r


def test_tree_searched_once_per_network(case69, monkeypatch):
    """validate, build_path_incidence and tree_positions share one search."""
    calls = []
    adjacency = netmodel._adjacency

    def counting(net):
        calls.append(net.n_bus)
        return adjacency(net)

    monkeypatch.setattr(netmodel, "_adjacency", counting)
    net = duplicate_system(case69, 3, seed=1)
    assert validate(net) == []
    ti = build_path_incidence(net)
    assert list(netmodel.tree_positions(net)) == [net.slack, *ti.order]
    assert calls == [net.n_bus]


def test_validate_names_reversed_branch():
    net = parse_matpower_case(mk_case(
        [bus_row(1, 3), bus_row(2, pd=0.1), bus_row(3, pd=0.1)],
        [[1, 2, 0.01, 0.01, 0, 0], [2, 3, 0.01, 0.01, 0, 0]],
    ))
    br = net.branches[1]
    flipped = Network(net.buses, (net.branches[0], Branch(br.to_bus, br.from_bus, br.r, br.x)),
                      slack=net.slack)
    assert validate(flipped) == ["branch 3-2: not oriented parent to child"]
    assert netmodel.normalize_orientation(flipped).branches == net.branches


# ---------------------------------------------------------------------------
# duplication
# ---------------------------------------------------------------------------

def test_duplicate_case33_100(case33):
    dup = duplicate_system(case33, 100, seed=1)
    assert dup.n_bus == 3201
    assert len(dup.branches) == 3200
    assert not validate(dup)


def test_duplicate_case69_100(case69):
    dup = duplicate_system(case69, 100, seed=1)
    assert dup.n_bus == 6801


def test_duplicate_identity(case33):
    dup = duplicate_system(case33, 1, seed=0, scale_range=(1.0, 1.0))
    assert dup.n_bus == case33.n_bus
    assert [b.p_load for b in dup.buses] == [b.p_load for b in case33.buses]
    assert [(br.r, br.x) for br in dup.branches] == [
        (br.r, br.x) for br in case33.branches
    ]


def test_duplicate_deterministic(case33):
    a = duplicate_system(case33, 7, seed=123)
    b = duplicate_system(case33, 7, seed=123)
    assert netmodel.to_json(a) == netmodel.to_json(b)
    c = duplicate_system(case33, 7, seed=124)
    assert netmodel.to_json(a) != netmodel.to_json(c)


def test_duplicate_scales_within_range(case33):
    dup = duplicate_system(case33, 3, seed=5, scale_range=(0.7, 1.3))
    for c in range(3):
        for j, br in enumerate(case33.branches):
            dbr = dup.branches[c * 32 + j]
            f = dbr.r / br.r
            assert 0.7 <= f <= 1.3
            assert dbr.x / br.x == pytest.approx(f)


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
    net = Network(
        buses=(Bus(1), Bus(2, p_load=0.1)),
        branches=(Branch(1, 2, 0.0, 0.0),),
        slack=1,
    )
    msgs = validate(net)
    assert len(msgs) == 1 and "both zero" in msgs[0]


def test_validate_duplicate_ids():
    net = Network(buses=(Bus(1), Bus(1)), branches=(), slack=1)
    assert any("duplicate bus ids" in m for m in validate(net))


def test_validate_negative_load_and_bad_limits():
    net = Network(
        buses=(Bus(1), Bus(2, p_load=-0.1, v_min=1.2, v_max=1.1)),
        branches=(Branch(1, 2, 0.01, 0.01),),
        slack=1,
    )
    msgs = validate(net)
    assert any("negative load" in m for m in msgs)
    assert any("v_min" in m for m in msgs)


def test_validate_gen_bounds_and_costs():
    g = Generator(p_min=1.0, p_max=0.0, q_min=0.0, q_max=0.0, cost_p=-3.0)
    net = Network(
        buses=(Bus(1), Bus(2, gen=g)),
        branches=(Branch(1, 2, 0.01, 0.01),),
        slack=1,
    )
    msgs = validate(net)
    assert any("bounds out of order" in m for m in msgs)
    assert any("negative generator cost" in m for m in msgs)


def test_json_round_trip(case33, case69):
    for net in (case33, case69):
        again = netmodel.from_json(netmodel.to_json(net))
        assert again == net


def test_json_round_trip_with_gen(case33):
    net = netmodel.with_generator(
        case33, 18, Generator(0.0, 0.1, 0.0, 0.05, 31.0, 2.0)
    )
    assert netmodel.from_json(netmodel.to_json(net)) == net


def test_json_rejects_other_documents():
    with pytest.raises(NetworkError):
        netmodel.from_json(json.dumps({"format": "something-else"}))


def test_net_injections_with_dispatch(case33):
    ti = build_path_incidence(case33)
    p, q = netmodel.net_injections(case33, ti, {18: 0.05}, {18: 0.02})
    i = ti.order.index(18)
    assert p[i] == pytest.approx(0.05 - case33.bus(18).p_load)
    assert q[i] == pytest.approx(0.02 - case33.bus(18).q_load)
