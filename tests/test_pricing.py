import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radialopf import acpf, mdistflow as mdf, mdopf, netmodel, pricing
from radialopf.netmodel import Generator, build_path_incidence
from radialopf.pricing import PricingError

from helpers import (
    Bus, branch_records, bus_record, bus_records, dense_loss_factors, network, path_matrix,
    random_tree_network, reference_price_table_to_csv, reference_price_table_to_json,
    reference_settlement_to_csv, with_records,
)


def dense_sensitivities(net, state):
    return acpf.voltage_sensitivities(acpf.jacobian_at(net, state.v, state.delta))


# ---------------------------------------------------------------------------
# modified-injection sensitivities
# ---------------------------------------------------------------------------

def test_sensitivities_zero_injections(case33_psp):
    ti = build_path_incidence(case33_psp)
    state = mdf.solve_fixed_load(case33_psp, np.zeros(ti.n), np.zeros(ti.n))
    dv_dp, dv_dq = dense_sensitivities(case33_psp, state)
    dp_dp, dp_dq, dq_dp, dq_dq = pricing.modified_injection_sensitivities(
        case33_psp, state, dv_dp, dv_dq
    )
    # only the direct ratio term survives at zero injections
    assert np.allclose(dp_dp, np.diag(1.0 / np.full(ti.n, 1.05)), atol=1e-12)
    assert np.allclose(dp_dq, 0.0) and np.allclose(dq_dp, 0.0)


def _fd_modified_sensitivity(net, ti, p, q, axis, j, h=1e-6):
    """Perturb one injection, re-solve the AC power flow, re-evaluate the
    modified injections as ratios."""
    out = []
    for sign in (+1.0, -1.0):
        pa = np.array(p, dtype=float)
        qa = np.array(q, dtype=float)
        if axis == "p":
            pa[j] += sign * h
        else:
            qa[j] += sign * h
        v = acpf.newton_pf(net, pa, qa).v[1:]
        out.append((pa / v, qa / v))
    dp = (out[0][0] - out[1][0]) / (2 * h)
    dq = (out[0][1] - out[1][1]) / (2 * h)
    return dp, dq


def test_sensitivities_match_ac_finite_difference_two_bus(net2):
    ti = build_path_incidence(net2)
    state = mdf.solve_fixed_load(net2)
    dv_dp, dv_dq = dense_sensitivities(net2, state)
    dp_dp, dp_dq, dq_dp, dq_dq = pricing.modified_injection_sensitivities(
        net2, state, dv_dp, dv_dq
    )
    p = np.array([-1.0])
    q = np.array([0.0])
    fd_p, fd_qp = _fd_modified_sensitivity(net2, ti, p, q, "p", 0)
    assert abs(dp_dp[0, 0] - fd_p[0]) / abs(fd_p[0]) < 1e-3
    fd_pq, fd_q = _fd_modified_sensitivity(net2, ti, p, q, "q", 0)
    assert abs(dq_dq[0, 0] - fd_q[0]) / abs(fd_q[0]) < 1e-3
    assert abs(dp_dq[0, 0] - fd_pq[0]) < 1e-3


def test_sensitivities_match_ac_finite_difference_case33(case33_psp):
    ti = build_path_incidence(case33_psp)
    state = mdf.solve_fixed_load(case33_psp)
    dv_dp, dv_dq = dense_sensitivities(case33_psp, state)
    dp_dp, _, _, dq_dq = pricing.modified_injection_sensitivities(
        case33_psp, state, dv_dp, dv_dq
    )
    p = np.array([-bus_record(case33_psp, b).p_load for b in ti.order])
    q = np.array([-bus_record(case33_psp, b).q_load for b in ti.order])
    for j in (5, 16, 31):  # spread over the feeder
        fd_p, _ = _fd_modified_sensitivity(case33_psp, ti, p, q, "p", j)
        col = dp_dp[:, j]
        scale = np.abs(fd_p).max()
        assert np.max(np.abs(col - fd_p)) / scale < 1e-2


# ---------------------------------------------------------------------------
# loss factors
# ---------------------------------------------------------------------------

def test_loss_factors_zero_injections(case33_psp):
    ti = build_path_incidence(case33_psp)
    state = mdf.solve_fixed_load(case33_psp, np.zeros(ti.n), np.zeros(ti.n))
    factors = pricing.loss_factors(case33_psp, state)
    for f in factors:
        assert np.allclose(f, 0.0, atol=1e-14)


def test_loss_factors_two_bus_vs_exact_ac(net2):
    state = mdf.solve_fixed_load(net2)
    dpl_dp, _, dql_dp, _ = pricing.loss_factors(net2, state)
    h = 1e-5
    hi = acpf.newton_pf(net2, np.array([-1.0 + h]), np.array([0.0]))
    lo = acpf.newton_pf(net2, np.array([-1.0 - h]), np.array([0.0]))
    fd_pl = (hi.pl_exact - lo.pl_exact) / (2 * h)
    fd_ql = (hi.ql_exact - lo.ql_exact) / (2 * h)
    assert abs(dpl_dp[0] - fd_pl) / abs(fd_pl) < 0.05
    assert abs(dql_dp[0] - fd_ql) / abs(fd_ql) < 0.05
    assert dpl_dp[0] < 0  # injecting at a load pocket relieves losses


def model_loss_fd(net, ti, state, sens_matrices, axis, j, h=1e-6):
    """Loss totals differentiated through the same linearized model the
    analytic factors use: V responds via the supplied sensitivity matrices,
    modified injections are ratios of the perturbed injections."""
    dv_dp, dv_dq = sens_matrices
    w = state.w[1:]
    v0 = state.v[1:]
    p0 = state.p_hat / w
    q0 = state.q_hat / w
    t = path_matrix(ti)
    out = []
    for sign in (+1.0, -1.0):
        p = p0.copy()
        q = q0.copy()
        if axis == "p":
            p[j] += sign * h
            v = v0 + dv_dp[:, j] * sign * h
        else:
            q[j] += sign * h
            v = v0 + dv_dq[:, j] * sign * h
        f = t @ (p / v)
        g = t @ (q / v)
        pl = float(ti.r @ (f * f) + ti.r @ (g * g))
        ql = float(ti.x @ (f * f) + ti.x @ (g * g))
        out.append((pl, ql))
    return ((out[0][0] - out[1][0]) / (2 * h), (out[0][1] - out[1][1]) / (2 * h))


@pytest.mark.parametrize("fixture", ["case33_psp", "case69"])
def test_loss_factor_self_consistency(fixture, request):
    net = request.getfixturevalue(fixture)
    net = netmodel.with_slack_costs(net, 30.0, 3.0)
    ti = build_path_incidence(net)
    state = mdf.solve_fixed_load(net)
    dv = dense_sensitivities(net, state)
    dpl_dp, dpl_dq, dql_dp, dql_dq = pricing.loss_factors(net, state)
    worst = 0.0
    for j in range(ti.n):
        fd_pl_p, fd_ql_p = model_loss_fd(net, ti, state, dv, "p", j)
        fd_pl_q, fd_ql_q = model_loss_fd(net, ti, state, dv, "q", j)
        for analytic, fd in (
            (dpl_dp[j], fd_pl_p), (dql_dp[j], fd_ql_p),
            (dpl_dq[j], fd_pl_q), (dql_dq[j], fd_ql_q),
        ):
            worst = max(worst, abs(analytic - fd) / max(1e-12, abs(fd)))
    assert worst < 1e-6


def assert_matches_dense(net, state):
    dv = dense_sensitivities(net, state)
    sens = pricing.modified_injection_sensitivities(net, state, *dv)
    want = dense_loss_factors(net, build_path_incidence(net), state, sens)
    got = pricing.loss_factors(net, state)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.abs(w).max()


@pytest.mark.parametrize("fixture,copies", [
    ("case33_psp", 1), ("case69", 1), ("case69", 3),
])
def test_loss_factors_match_dense_reference(fixture, copies, request):
    net = netmodel.with_slack_costs(request.getfixturevalue(fixture), 30.0, 3.0)
    if copies > 1:  # feeders off a common slack: block-diagonal Jacobian
        net = netmodel.duplicate_system(net, copies, seed=5)
    assert_matches_dense(net, mdf.solve_fixed_load(net))


def test_loss_factors_match_dense_reference_random_trees():
    rng = np.random.default_rng(77)
    for _ in range(20):
        net = random_tree_network(rng, int(rng.integers(2, 41)))
        assert_matches_dense(net, mdf.solve_fixed_load(net))


def test_loss_factors_match_dense_reference_reverse_flow(case33_psp):
    net = reverse_flow_net(case33_psp)
    _, _, state = mdopf.solve_opf(net)
    assert_matches_dense(net, state)


def test_price_table_skips_dense_chain(case33_psp, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense sensitivity chain called")

    monkeypatch.setattr(acpf, "jacobian_at", refuse)
    monkeypatch.setattr(acpf, "voltage_sensitivities", refuse)
    monkeypatch.setattr(pricing, "modified_injection_sensitivities", refuse)
    pricing.compute_price_table(case33_psp, mdf.solve_fixed_load(case33_psp))


def test_price_table_memory_below_one_dense_matrix(case33_psp):
    """Pricing 1281 buses allocates less than one n x n float64 array."""
    net = netmodel.duplicate_system(case33_psp, 40, seed=1)
    ti = build_path_incidence(net)
    state = mdf.solve_fixed_load(net)
    dense_bytes = ti.n * ti.n * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pricing.compute_price_table(net, state)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes, (peak, dense_bytes)


# ---------------------------------------------------------------------------
# marginal-loss prices
# ---------------------------------------------------------------------------

def test_dlmp_zero_load_equals_psp_costs(case33_psp):
    ti = build_path_incidence(case33_psp)
    state = mdf.solve_fixed_load(case33_psp, np.zeros(ti.n), np.zeros(ti.n))
    pt = pricing.compute_price_table(case33_psp, state)
    assert np.allclose(pt.dlmp_p, 30.0, atol=1e-10)
    assert np.allclose(pt.dlmp_q, 3.0, atol=1e-10)
    assert np.allclose(pt.dlp_p, 30.0, atol=1e-10)
    assert np.allclose(pt.dlp_q, 3.0, atol=1e-10)


def test_dlmp_two_bus_vs_oracle(net2):
    state = mdf.solve_fixed_load(net2)
    pt = pricing.compute_price_table(net2, state)
    oracle = acpf.fd_price_oracle(net2, 2, "p")
    assert abs(pt.dlmp_p[0] - oracle) / oracle < 0.01
    assert pt.dlmp_p[0] > 30.0


def test_dlmp_congestion_refusal(case33_psp):
    state = mdf.solve_fixed_load(case33_psp)
    with pytest.raises(PricingError, match="congestion"):
        pricing.compute_price_table(
            case33_psp, state, thermal_duals=np.array([0.5])
        )


# ---------------------------------------------------------------------------
# loss allocation
# ---------------------------------------------------------------------------

def test_allocation_zero_injections(case33_psp):
    ti = build_path_incidence(case33_psp)
    state = mdf.solve_fixed_load(case33_psp, np.zeros(ti.n), np.zeros(ti.n))
    for part in pricing.allocate_losses(case33_psp, state):
        assert np.allclose(part, 0.0)


def test_allocation_two_bus_hand_value(net2):
    state = mdf.solve_fixed_load(net2)
    pl_p, ql_p, pl_q, ql_q = pricing.allocate_losses(net2, state)
    assert pl_p[0] == pytest.approx(0.0102030, abs=1e-6)
    rep = mdf.losses(net2, state)
    assert pl_p[0] == pytest.approx(rep.pl_p, rel=1e-12)
    assert np.allclose(pl_q, 0.0) and np.allclose(ql_q, 0.0)


def branch_level_allocation(ti, state):
    """Brute-force oracle: walk every bus's path and apportion each branch's
    quadratic loss share explicitly."""
    t = path_matrix(ti).toarray()
    f = t @ state.p_hat
    g = t @ state.q_hat
    n = ti.n
    pl_p = np.zeros(n)
    ql_p = np.zeros(n)
    pl_q = np.zeros(n)
    ql_q = np.zeros(n)
    for k in range(n):
        for l in range(n):
            if t[l, k] == 0.0:
                continue
            pl_p[k] += state.p_hat[k] * ti.r[l] * f[l]
            ql_p[k] += state.p_hat[k] * ti.x[l] * f[l]
            pl_q[k] += state.q_hat[k] * ti.r[l] * g[l]
            ql_q[k] += state.q_hat[k] * ti.x[l] * g[l]
    return pl_p, ql_p, pl_q, ql_q


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 16), st.integers(0, 2**31 - 1))
def test_allocation_matches_branch_enumeration(n, seed):
    rng = np.random.default_rng(seed)
    net = random_tree_network(rng, n)
    ti = build_path_incidence(net)
    p = rng.uniform(-0.08, 0.03, ti.n)
    q = rng.uniform(-0.05, 0.02, ti.n)
    state = mdf.solve_fixed_load(net, p, q)
    matrix_form = pricing.allocate_losses(net, state)
    explicit = branch_level_allocation(ti, state)
    rep = mdf.losses(net, state)
    totals = (rep.pl_p, rep.ql_p, rep.pl_q, rep.ql_q)
    for got, want, total in zip(matrix_form, explicit, totals):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.abs(want).max())
        assert np.sum(got) == pytest.approx(total, rel=1e-12, abs=1e-15)


def test_allocation_off_path_locality(case33_psp):
    """A bus's loss share depends only on branches along its own path."""
    ti = build_path_incidence(case33_psp)
    state = mdf.solve_fixed_load(case33_psp)
    pl_p, _, _, _ = pricing.allocate_losses(case33_psp, state)
    k = ti.order.index(18)
    path_rows = set(np.nonzero(path_matrix(ti).toarray()[:, k])[0])
    off_path = next(i for i in range(ti.n) if i not in path_rows)
    # branch row i is the branch into bus ti.order[i]
    branches = [br._replace(r=br.r * 7.0) if br.to_bus == ti.order[off_path] else br
                for br in branch_records(case33_psp)]
    scaled = with_records(case33_psp, branches=branches)
    pl_p2, _, _, _ = pricing.allocate_losses(scaled, state)
    assert pl_p2[k] == pl_p[k]
    assert not np.allclose(pl_p2, pl_p)


# ---------------------------------------------------------------------------
# allocated-loss prices and settlement
# ---------------------------------------------------------------------------

def test_dlp_two_bus_hand_value(net2):
    state = mdf.solve_fixed_load(net2)
    dlp_p, dlp_q = pricing.dlp(net2, state)
    assert dlp_p[0] == pytest.approx(30.367, abs=5e-4)


def test_dlp_charge_equals_loss_cost(case33_psp):
    """Total loss charges embedded in the allocated-loss prices equal the
    priced loss totals exactly at the model state."""
    state = mdf.solve_fixed_load(case33_psp)
    dlp_p, dlp_q = pricing.dlp(case33_psp, state)
    v = state.v[1:]
    # quantity consistent with the model: p_hat * v
    charge = -np.sum((dlp_p - 30.0) * state.p_hat * v) \
             - np.sum((dlp_q - 3.0) * state.q_hat * v)
    rep = mdf.losses(case33_psp, state)
    loss_cost = 30.0 * rep.pl + 3.0 * rep.ql
    assert charge == pytest.approx(loss_cost, rel=1e-10)


def test_settlement_zero_load(case33_psp):
    net = netmodel.scale_loads(case33_psp, 0.0)
    z = np.zeros(net.n_bus - 1)
    state = mdf.solve_fixed_load(net, z, z)
    pt = pricing.compute_price_table(net, state)
    rep = pricing.settle(net, state, (pt.dlmp_p, pt.dlmp_q), "mlm")
    assert rep.revenue == 0.0 and rep.ocl == 0.0


def test_settlement_mlm_overcollects(case33_psp):
    state = mdf.solve_fixed_load(case33_psp)
    pt = pricing.compute_price_table(case33_psp, state)
    mlm = pricing.settle(case33_psp, state, (pt.dlmp_p, pt.dlmp_q), "mlm")
    assert mlm.ocl > 0.0
    assert mlm.ocl == pytest.approx(mlm.revenue - mlm.payment, abs=1e-12)
    lam = pricing.settle(case33_psp, state, (pt.dlp_p, pt.dlp_q), "lam")
    assert abs(lam.ocl) < 1e-9 * lam.revenue
    # marginal roughly doubles average: surplus close to the loss cost
    rep = mdf.losses(case33_psp, state)
    loss_cost = (30.0 * rep.pl + 3.0 * rep.ql) * case33_psp.base_power
    assert 0.5 * loss_cost < mlm.ocl < 1.5 * loss_cost


def test_settlement_against_exact_ac(case33_psp):
    state = mdf.solve_fixed_load(case33_psp)
    pt = pricing.compute_price_table(case33_psp, state)
    ac = acpf.newton_pf(case33_psp, v_start=state.v, delta_start=state.delta)
    lam = pricing.settle(
        case33_psp, state, (pt.dlp_p, pt.dlp_q), "lam", ac_state=ac
    )
    loss_cost = (30.0 * ac.pl_exact + 3.0 * ac.ql_exact) * case33_psp.base_power
    assert abs(lam.ocl) < 0.01 * loss_cost


def test_price_table_serialization(case33_psp):
    ti = build_path_incidence(case33_psp)
    state = mdf.solve_fixed_load(case33_psp)
    pt = pricing.compute_price_table(case33_psp, state)
    csv_text = "".join(pricing.price_table_to_csv(pt))
    lines = csv_text.strip().split("\n")
    assert len(lines) == 1 + ti.n
    assert lines[0].startswith("bus,dlmp_p[$ per MWh]")
    import json
    doc = json.loads("".join(pricing.price_table_to_json(pt)))
    assert len(doc["rows"]) == ti.n
    reports = [pricing.settle(case33_psp, state, (pt.dlp_p, pt.dlp_q), "lam")]
    assert "mechanism" in pricing.settlement_to_csv(reports)
    assert json.loads(pricing.settlement_to_json(reports))["reports"][0]["mechanism"] == "lam"


def test_price_table_writers_match_per_cell_reference():
    """The chunked writers give the bytes of the per-cell reference,
    including NaN, infinities, negative zero and extra columns, and the
    settlement table those of ``csv.writer``, down to round-off cells."""
    rng = np.random.default_rng(9)
    n = 50
    vals = rng.normal(size=(12, n)) * 10.0 ** rng.integers(-15, 15, size=(12, n))
    vals[0, :4] = [np.nan, np.inf, -np.inf, -0.0]
    vals[5, :3] = [0.0, 1.0, -1e-300]
    pt = pricing.PriceTable(tuple(rng.permutation(10**6)[:n].tolist()), *vals)
    extra = {
        "oracle_p[$ per MWh]": rng.normal(size=n) * 30.0,
        "dlmp_p_rel_err": np.r_[np.nan, np.inf, -0.0, rng.random(n - 3)],
    }
    for ex in (None, extra):
        assert "".join(pricing.price_table_to_csv(pt, extra=ex)) == \
            reference_price_table_to_csv(pt, ex)
        assert "".join(pricing.price_table_to_json(pt, extra=ex)) == \
            reference_price_table_to_json(pt, ex)
    reports = [pricing.SettlementReport("mlm", 9431.336, 9028.2124, 403.1236),
               pricing.SettlementReport("lam", 8978.57, 8978.57, 1.421085472e-14),
               pricing.SettlementReport("lam", -1.8189894035458565e-12, -0.0, np.nan),
               pricing.SettlementReport("mlm", np.inf, -np.inf, 1e300)]
    for rep in ([], reports[:1], reports):
        assert pricing.settlement_to_csv(rep) == reference_settlement_to_csv(rep)


@pytest.mark.parametrize("n", [0, 1, pricing.CSV_CHUNK_ROWS - 1, pricing.CSV_CHUNK_ROWS,
                               pricing.CSV_CHUNK_ROWS + 1])
def test_price_table_csv_streams_chunks(n):
    """The header, then chunks of at most ``CSV_CHUNK_ROWS`` rows, whose join
    is the per-cell reference, at table sizes around the chunk length; the
    JSON document comes in as many chunks of as many rows, NaN, infinite and
    negative-zero cells included."""
    rng = np.random.default_rng(n)
    vals = rng.normal(size=(12, n))
    if n:
        vals.flat[:4] = [np.nan, np.inf, -np.inf, -0.0]
    pt = pricing.PriceTable(tuple(range(1, n + 1)), *vals)
    extra = {"oracle_p[$ per MWh]": rng.normal(size=n)}
    chunks = list(pricing.price_table_to_csv(pt, extra=extra))
    assert len(chunks) == 1 + -(-n // pricing.CSV_CHUNK_ROWS)
    assert chunks[0] == reference_price_table_to_csv(pt, extra).partition("\n")[0] + "\n"
    assert all(0 < c.count("\n") <= pricing.CSV_CHUNK_ROWS for c in chunks[1:])
    assert "".join(chunks) == reference_price_table_to_csv(pt, extra)
    chunks = list(pricing.price_table_to_json(pt, extra=extra))
    assert len(chunks) == 1 + -(-n // pricing.CSV_CHUNK_ROWS)
    assert all(c.count("\n  [") <= pricing.CSV_CHUNK_ROWS for c in chunks)
    assert "".join(chunks) == reference_price_table_to_json(pt, extra)


def test_full_scale_settlement_magnitude(case33_psp):
    """Hundredfold system: the marginal-pricing surplus lands at the
    published scale (about four hundred dollars) and allocation pricing
    still collects exactly."""
    net = case33_psp
    for b in (18, 22, 25, 33):
        net = netmodel.with_generator(
            net, b, Generator(0.0, 0.02, 0.0, 0.01, 25.0, 2.0)
        )
    net = netmodel.duplicate_system(net, 100, seed=42)
    assert net.n_bus == 3201
    prob, sol, state = mdopf.solve_opf(net)
    pt = pricing.compute_price_table(net, state, thermal_duals=sol.duals_quad)
    mlm = pricing.settle(net, state, (pt.dlmp_p, pt.dlmp_q), "mlm")
    lam = pricing.settle(net, state, (pt.dlp_p, pt.dlp_q), "lam")
    assert 200.0 < mlm.ocl < 700.0
    assert abs(lam.ocl) < 1e-6 * lam.revenue


def reverse_flow_net(case33_psp):
    """case33 with cheap DG at capacity at four buses: feeder flows reverse."""
    net = netmodel.with_load(case33_psp, 1, 0.05, 0.0)
    for b in (18, 22, 25, 33):
        net = netmodel.with_generator(
            net, b, Generator(0.0, 0.1, 0.0, 0.05, 25.0, 2.0)
        )
    return net


def test_high_penetration_reverse_flow(case33_psp):
    """Cheap distributed generation at capacity reverses feeder flows; prices
    at exporting buses drop below the supply-point cost and still track the
    oracle."""
    net = reverse_flow_net(case33_psp)
    prob, sol, state = mdopf.solve_opf(net)
    assert all(sol.pg[b] == pytest.approx(0.1, abs=1e-4) for b in (18, 22, 25, 33))
    assert sol.pg[1] > 0.0  # supply point stays marginal
    pt = pricing.compute_price_table(net, state, thermal_duals=sol.duals_quad)
    assert pt.dlmp_p.min() < 30.0 < pt.dlmp_p.max()

    p, q = netmodel.net_injections(net, sol.pg, sol.qg)
    errs_p, errs_q = [], []
    for i, b in enumerate(pt.bus_ids):
        op = acpf.fd_price_oracle(net, b, "p", p=p, q=q,
                                  v_start=state.v, delta_start=state.delta)
        oq = acpf.fd_price_oracle(net, b, "q", p=p, q=q,
                                  v_start=state.v, delta_start=state.delta)
        errs_p.append(abs(pt.dlmp_p[i] - op) / abs(op))
        errs_q.append(abs(pt.dlmp_q[i] - oq) / abs(oq))
    assert np.mean(errs_p) < 0.005
    assert np.mean(errs_q) < 0.015


def shuffled_storage(net, seed):
    """The same network with its bus records in a random order, slack not first."""
    rng = np.random.default_rng(seed)
    rows = bus_records(net)
    buses = [rows[i] for i in rng.permutation(net.n_bus)]
    if buses[0].id == net.slack:
        buses.append(buses.pop(0))
    return with_records(net, buses=buses)


def study_by_bus(net):
    """Dispatch, objective, price table and AC voltages keyed by bus id."""
    _, sol, state = mdopf.solve_opf(net)
    pt = pricing.compute_price_table(net, state, thermal_duals=sol.duals_quad)
    p, q = netmodel.net_injections(net, sol.pg, sol.qg)
    ac = acpf.newton_pf(net, p, q, v_start=state.v, delta_start=state.delta)
    pos = netmodel.tree_positions(net)
    return sol, pt, {b: (ac.v[k], ac.delta[k]) for b, k in pos.items()}


@pytest.mark.parametrize("case", ["case33_4dg", "case69x2"])
def test_results_invariant_under_bus_storage_order(case, case33_psp, case69):
    if case == "case33_4dg":
        net = reverse_flow_net(case33_psp)
    else:
        net = netmodel.duplicate_system(
            netmodel.with_slack_costs(case69, 30.0, 3.0), 2, seed=4
        )
    shuffled = shuffled_storage(net, seed=8)
    assert bus_records(shuffled)[0].id != net.slack and bus_records(shuffled) != bus_records(net)
    sol_a, pt_a, ac_a = study_by_bus(net)
    sol_b, pt_b, ac_b = study_by_bus(shuffled)
    assert sol_a.pg == sol_b.pg and sol_a.qg == sol_b.qg
    assert sol_a.objective_value == sol_b.objective_value
    assert pt_a.bus_ids == pt_b.bus_ids
    for name in pt_a.__dataclass_fields__:
        if name != "bus_ids":
            assert np.array_equal(getattr(pt_a, name), getattr(pt_b, name)), name
    assert ac_a == ac_b


def test_slack_only_network_solves_and_prices():
    """A feeder of the supply point alone (no branch, n = 0) still runs the
    OPF, the load-only power flow and the price table."""
    net = netmodel.with_slack_costs(
        network([Bus(id=1, p_load=0.01, q_load=0.005)], [], slack=1), 30.0, 3.0
    )
    _, sol, state = mdopf.solve_opf(net)
    assert netmodel.path_incidence(net).n == 0 and sol.status == "optimal"
    assert sol.pg[1] == pytest.approx(0.01, rel=1e-6)
    assert mdf.solve_fixed_load(net).v.tolist() == [net.v0]
    pt = pricing.compute_price_table(net, state, thermal_duals=sol.duals_quad)
    assert pt.bus_ids == () and pt.dlmp_p.size == 0 and pt.dlp_q.size == 0
