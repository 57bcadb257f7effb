"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s`` or ``-rP``); the
test names double as the criterion list under ``pytest -v``.
"""
import time

import numpy as np
import pytest

from radialopf import acpf, mdistflow as mdf, mdopf, netmodel, pricing, qcqpsolver as qs
from radialopf.netmodel import Generator, build_path_incidence

from helpers import random_tree_network
from test_qcqpsolver import active_set_oracle, make_problem


def _announce(n, name, detail):
    print(f"ACCEPTANCE {n} {name}: PASS ({detail})")


def with_dgs(net, buses, p_mw, q_mvar, cost_p, cost_q):
    base = net.base_power
    for b in buses:
        net = netmodel.with_generator(
            net, b,
            Generator(0.0, p_mw / base, 0.0, q_mvar / base, cost_p, cost_q),
        )
    return net


def oracle_sweep(net, ti, state, pg, qg):
    p, q = netmodel.net_injections(net, ti, pg, qg)
    op = np.array([
        acpf.fd_price_oracle(net, b, "p", p=p, q=q,
                             v_start=state.v, delta_start=state.delta)
        for b in ti.order
    ])
    oq = np.array([
        acpf.fd_price_oracle(net, b, "q", p=p, q=q,
                             v_start=state.v, delta_start=state.delta)
        for b in ti.order
    ])
    return op, oq


TABLE_SCENARIOS = [
    # (DG bus, price $/MWh, benchmark objective $, benchmark dispatch MW)
    (18, 31.0, 122.16, 0.624),
    (25, 31.0, 123.32, 0.368),
    (33, 31.0, 121.66, 1.000),
    (6, 32.0, 123.00, 0.513),
    (12, 32.0, 122.58, 0.614),
    (15, 32.0, 122.53, 0.502),
    (31, 32.0, 122.28, 0.704),
]


def test_criterion_1_dispatch_benchmarks(case33_psp):
    """Seven single-DG studies: objective within 0.5%, dispatch within 0.02 MW."""
    t0 = time.perf_counter()
    worst_obj = 0.0
    worst_pg = 0.0
    for bus, price, ref_obj, ref_pg in TABLE_SCENARIOS:
        net = with_dgs(case33_psp, [bus], 1.0, 0.5, price, 2.0)
        _, _, sol, _ = mdopf.solve_opf(net)
        obj_err = abs(sol.objective_value - ref_obj) / ref_obj
        pg_err = abs(sol.pg[bus] * net.base_power - ref_pg)
        assert obj_err < 0.005, (bus, sol.objective_value, ref_obj)
        assert pg_err < 0.02, (bus, sol.pg[bus] * net.base_power, ref_pg)
        worst_obj = max(worst_obj, obj_err)
        worst_pg = max(worst_pg, pg_err)
    _announce(1, "dispatch benchmarks",
              f"7 scenarios, worst objective {worst_obj * 100:.3f}%, "
              f"worst dispatch {worst_pg:.4f} MW, {time.perf_counter() - t0:.1f}s")


def test_criterion_2_power_flow_accuracy(case33_psp):
    """Closed-form voltages vs Newton: base < 0.005 pu, stressed < 0.02 pu."""
    ti = build_path_incidence(case33_psp)
    stm = mdf.solve_fixed_load(case33_psp, ti)
    sta = acpf.newton_pf(case33_psp)
    base_err = float(np.max(np.abs(stm.v - sta.v)))
    assert base_err < 0.005
    errs = {"base": base_err}
    for tag, netx in (
        ("heavy load x1.5", netmodel.scale_loads(case33_psp, 1.5)),
        ("impedance x2.9", netmodel.scale_impedance(case33_psp, 2.9)),
    ):
        tix = build_path_incidence(netx)
        sm = mdf.solve_fixed_load(netx, tix)
        sa = acpf.newton_pf(netx, v_start=sm.v, delta_start=sm.delta)
        err = float(np.max(np.abs(sm.v - sa.v)))
        assert err < 0.02, (tag, err)
        errs[tag] = err
    _announce(2, "power-flow accuracy",
              ", ".join(f"{k}: {v:.2e} pu" for k, v in errs.items()))


def test_criterion_3_dlmp_vs_oracle(case33_psp):
    """Marginal-loss prices vs the finite-difference oracle."""
    t0 = time.perf_counter()
    details = []

    # high-price DGs at the feeder ends, solved dispatch
    net = with_dgs(case33_psp, [18, 22, 25, 33], 0.2, 0.1, 31.0, 4.0)
    ti, prob, sol, state = mdopf.solve_opf(net)
    pt = pricing.compute_price_table(net, ti, state, thermal_duals=sol.duals_quad)
    op, oq = oracle_sweep(net, ti, state, sol.pg, sol.qg)
    err_p = float(np.mean(np.abs(pt.dlmp_p - op) / np.abs(op)))
    err_q = float(np.mean(np.abs(pt.dlmp_q - oq) / np.abs(oq)))
    assert err_p < 0.005, err_p
    assert err_q < 0.015, err_q
    details.append(f"A1 {err_p * 100:.3f}%/{err_q * 100:.3f}%")

    # stressed systems, no generation to dispatch; per-scenario bounds
    for tag, netx, bound in (
        ("A3", netmodel.scale_loads(case33_psp, 1.5), 0.01),
        ("A4", netmodel.scale_impedance(case33_psp, 2.9), 0.03),
    ):
        tix = build_path_incidence(netx)
        st = mdf.solve_fixed_load(netx, tix)
        ptx = pricing.compute_price_table(netx, tix, st)
        op, oq = oracle_sweep(netx, tix, st, {}, {})
        err_p = float(np.mean(np.abs(ptx.dlmp_p - op) / np.abs(op)))
        err_q = float(np.mean(np.abs(ptx.dlmp_q - oq) / np.abs(oq)))
        assert err_p < bound, (tag, err_p)
        assert err_q < bound, (tag, err_q)
        details.append(f"{tag} {err_p * 100:.3f}%/{err_q * 100:.3f}%")
    _announce(3, "marginal prices vs oracle",
              "avg P/Q errors " + ", ".join(details)
              + f", {time.perf_counter() - t0:.1f}s")


@pytest.mark.parametrize("case_name", ["case33", "case69"])
def test_criterion_4_loss_factor_self_consistency(case_name, request):
    """Analytic loss factors equal the model-consistent finite differences."""
    from test_pricing import dense_sensitivities, model_loss_fd

    net = netmodel.with_slack_costs(
        netmodel.with_slack_voltage(request.getfixturevalue(case_name), 1.05),
        30.0, 3.0,
    )
    ti = build_path_incidence(net)
    state = mdf.solve_fixed_load(net, ti)
    dv = dense_sensitivities(net, state)
    dpl_dp, dpl_dq, dql_dp, dql_dq = pricing.loss_factors(net, ti, state)
    worst = 0.0
    for j in range(ti.n):
        fd_pl_p, fd_ql_p = model_loss_fd(net, ti, state, dv, "p", j)
        fd_pl_q, fd_ql_q = model_loss_fd(net, ti, state, dv, "q", j)
        for analytic, fd in (
            (dpl_dp[j], fd_pl_p), (dql_dp[j], fd_ql_p),
            (dpl_dq[j], fd_pl_q), (dql_dq[j], fd_ql_q),
        ):
            worst = max(worst, abs(analytic - fd) / max(1e-12, abs(fd)))
    assert worst < 1e-6, worst
    _announce(4, f"loss-factor self-consistency [{case_name}]",
              f"max rel err {worst:.2e}")


def test_criterion_5_allocation_reconciliation():
    """Allocated losses reconcile with the decomposed totals exactly."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 201))
        net = random_tree_network(rng, n)
        ti = build_path_incidence(net)
        # keep accumulated feeder flows physical on deep random trees
        mag = min(1.0, 25.0 / n)
        p = rng.uniform(-0.05, 0.02, ti.n) * mag
        q = rng.uniform(-0.03, 0.015, ti.n) * mag
        state = mdf.solve_fixed_load(net, ti, p, q)
        rep = mdf.losses(ti, state)
        parts = pricing.allocate_losses(ti, state)
        totals = (rep.pl_p, rep.ql_p, rep.pl_q, rep.ql_q)
        for part, total in zip(parts, totals):
            err = abs(float(np.sum(part)) - total) / max(1e-300, abs(total))
            worst = max(worst, err)
            assert err < 1e-12, (trial, n, err)
    _announce(5, "loss-allocation reconciliation",
              f"100 random trees (2-200 buses), worst rel err {worst:.2e}")


def test_criterion_6_over_collection(case33_psp):
    """Marginal pricing over-collects; allocation pricing does not."""
    net = with_dgs(case33_psp, [18, 22, 25, 33], 0.2, 0.1, 25.0, 2.0)
    net = netmodel.duplicate_system(net, 10, seed=42)
    ti, prob, sol, state = mdopf.solve_opf(net)
    pt = pricing.compute_price_table(net, ti, state, thermal_duals=sol.duals_quad)
    mlm = pricing.settle(net, ti, state, (pt.dlmp_p, pt.dlmp_q), "mlm")
    lam = pricing.settle(net, ti, state, (pt.dlp_p, pt.dlp_q), "lam")
    assert mlm.ocl > 0.0
    assert abs(lam.ocl) < 1e-6 * lam.revenue

    p, q = netmodel.net_injections(net, ti, sol.pg, sol.qg)
    ac = acpf.newton_pf(net, p, q, v_start=state.v, delta_start=state.delta)
    lam_ac = pricing.settle(net, ti, state, (pt.dlp_p, pt.dlp_q), "lam", ac_state=ac)
    c0p, c0q = acpf.slack_costs(net)
    loss_cost = (c0p * ac.pl_exact + c0q * ac.ql_exact) * net.base_power
    assert abs(lam_ac.ocl) < 0.01 * loss_cost
    _announce(
        6, "over-collection elimination",
        f"{net.n_bus} buses: marginal surplus {mlm.ocl:+.2f} $, "
        f"allocated {lam.ocl:+.2e} $ (model), {lam_ac.ocl:+.3f} $ vs AC "
        f"({abs(lam_ac.ocl) / loss_cost * 100:.2f}% of loss cost)",
    )


def test_criterion_7_convexity_certificates(case33_psp, case69):
    """Built objectives certify PSD everywhere; negated costs are rejected."""
    fixtures = []
    for bus, price, _, _ in TABLE_SCENARIOS:
        fixtures.append(with_dgs(case33_psp, [bus], 1.0, 0.5, price, 2.0))
    fixtures.append(with_dgs(case33_psp, [18, 22, 25, 33], 0.2, 0.1, 31.0, 4.0))
    fixtures.append(netmodel.with_slack_costs(case69, 30.0, 3.0))
    fixtures.append(netmodel.duplicate_system(
        with_dgs(case33_psp, [18, 22, 25, 33], 0.2, 0.1, 25.0, 2.0), 10, seed=1
    ))
    for net in fixtures:
        ti = build_path_incidence(net)
        prob = mdopf.build(net, ti)
        assert mdopf.certify_convexity(prob.h).psd

    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(2, 51))
        net = random_tree_network(rng, n, gen_frac=0.5)
        ti = build_path_incidence(net)
        prob = mdopf.build(net, ti)
        assert mdopf.certify_convexity(prob.h).psd

    # engineered counterexample: flipped cost sign fails the certificate and
    # the builder refuses the network outright
    net = with_dgs(case33_psp, [18], 1.0, 0.5, 31.0, 2.0)
    ti = build_path_incidence(net)
    h, _, _ = mdopf.build_objective(net, ti)
    assert not mdopf.certify_convexity(-h).psd
    bad = with_dgs(case33_psp, [18], 1.0, 0.5, -31.0, 2.0)
    with pytest.raises(mdopf.MdopfError, match="convexity condition"):
        mdopf.build(bad, build_path_incidence(bad))
    _announce(7, "convexity certificates",
              "11 fixtures + 500 random trees PSD; negated cost rejected")


def test_criterion_7_projection_changes_objective_little(case33_psp):
    """At the solution, the exact (unprojected) cost and the projected cost
    that the solver minimized differ by under 0.02 %."""
    fixtures = [with_dgs(case33_psp, [bus], 1.0, 0.5, price, 2.0)
                for bus, price, _, _ in TABLE_SCENARIOS]
    four = with_dgs(case33_psp, [18, 22, 25, 33], 0.2, 0.1, 31.0, 4.0)
    fixtures.append(four)
    fixtures.append(netmodel.duplicate_system(
        with_dgs(case33_psp, [18, 22, 25, 33], 0.2, 0.1, 25.0, 2.0), 10, seed=1
    ))
    fixtures.append(netmodel.duplicate_system(four, 10, seed=42))
    worst = 0.0
    for net in fixtures:
        ti, prob, sol, _ = mdopf.solve_opf(net)
        assert not prob.certificate.psd  # the projection is in effect
        h, g, c = mdopf.build_objective(net, ti)
        x = sol.x
        exact = float(x @ (h @ x) + g @ x + c)
        rel = abs(exact - sol.objective_value) / abs(exact)
        assert rel < 2e-4, (net.n_bus, rel)
        worst = max(worst, rel)
    _announce(7, "projection distance at the solution",
              f"{len(fixtures)} fixtures, worst objective change {worst * 100:.2e}%")


def test_criterion_8_solver_reference(case33_psp):
    """Interior point agrees with active-set enumeration; KKT residuals tight."""
    rng = np.random.default_rng(808)
    tight = qs.SolverConfig(tol_gap=1e-11, tol_feas=1e-11)
    checked = 0
    worst = 0.0
    while checked < 50:
        n = int(rng.integers(2, 21))
        me = int(rng.integers(0, min(3, n - 1) + 1))
        mi = int(rng.integers(1, 9))
        m = rng.normal(size=(n, n))
        h = m.T @ m + 0.5 * np.eye(n)
        g = rng.normal(size=n)
        a_eq = rng.normal(size=(me, n))
        b_eq = rng.normal(size=me)
        a_in = rng.normal(size=(mi, n))
        b_in = rng.normal(size=mi) + 1.0
        ref, xref = active_set_oracle(h, g, a_eq, b_eq, a_in, b_in)
        if xref is None:
            continue
        p = make_problem(h=h, g=g, a_eq=a_eq, b_eq=b_eq, a_in=a_in, b_in=b_in)
        s = qs.solve(p, tight)
        assert s.status == "optimal"
        rel = abs(s.objective_value - ref) / max(1.0, abs(ref))
        assert rel < 1e-8, (checked, rel)
        worst = max(worst, rel)
        checked += 1

    kkt_worst = 0.0
    for bus, price, _, _ in TABLE_SCENARIOS[:3]:
        net = with_dgs(case33_psp, [bus], 1.0, 0.5, price, 2.0)
        ti = build_path_incidence(net)
        prob = mdopf.build(net, ti)
        sol = qs.solve(prob, qs.SolverConfig(tol_gap=1e-10, tol_feas=1e-10))
        res = qs.kkt_residuals(prob, sol)
        for key, val in res.items():
            assert val < 1e-7, (bus, key, val)
            kkt_worst = max(kkt_worst, val)
    _announce(8, "solver reference checks",
              f"50 QPs worst rel err {worst:.2e}; OPF KKT residuals "
              f"< {kkt_worst:.2e}")


def test_criterion_9_scale(case33_psp):
    """Hundredfold-duplicated feeder solves to optimality well under a minute."""
    net = with_dgs(case33_psp, [18, 22, 25, 33], 0.2, 0.1, 25.0, 2.0)
    net = netmodel.duplicate_system(net, 100, seed=42)
    assert net.n_bus == 3201
    t0 = time.perf_counter()
    sol = mdopf.solve_opf(net)[2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, elapsed
    assert sol.pg[1] > 0.0
    _announce(9, "scale",
              f"3201 buses optimal in {elapsed:.2f}s "
              f"({sol.stats.iterations} interior-point iterations)")
