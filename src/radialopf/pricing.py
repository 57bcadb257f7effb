"""Nodal price mechanisms for radial feeders.

Two consumer-facing price systems over one dispatch:

* marginal-loss prices (``dlmp_*``): supply-point cost corrected by the
  analytic loss factors, with the voltage feedback of injections taken from
  one sparse factorization of the AC Jacobian at the model solution;
* allocated-loss prices (``dlp_*``): supply-point cost plus each bus's share
  of the network loss, apportioned branch-by-branch along its path to the
  supply point in closed form.

Sign conventions: loss factors are derivatives with respect to net bus
injections, so they are negative at load pockets and both price systems sit
above the supply-point cost there. All per-bus arrays follow ``ti.order``,
the package's one bus order without the slack; the state's full-bus arrays
hold the slack first, so ``state.v[1:]`` lines up with them.
"""
from __future__ import annotations

import csv as _csv
import io
import json
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import acpf, mdistflow
from .mdistflow import MdfState
from .netmodel import Network, PathIncidence


class PricingError(RuntimeError):
    """Raised when a price computation's assumptions are violated."""


@dataclass(frozen=True)
class PriceTable:
    bus_ids: tuple[int, ...]
    dlmp_p: np.ndarray
    dlmp_q: np.ndarray
    dlp_p: np.ndarray
    dlp_q: np.ndarray
    dpl_dp: np.ndarray
    dpl_dq: np.ndarray
    dql_dp: np.ndarray
    dql_dq: np.ndarray
    alloc_pl_p: np.ndarray
    alloc_ql_p: np.ndarray
    alloc_pl_q: np.ndarray
    alloc_ql_q: np.ndarray


@dataclass(frozen=True)
class SettlementReport:
    mechanism: str
    revenue: float
    payment: float
    ocl: float


def _state_injections(net, ti, state):
    """Net injections implied by the state (exact inversion of the modified
    variables), plus the ratio-form modified vectors used by the sensitivity
    chain."""
    w = state.w[1:]
    v = state.v[1:]
    p = state.p_hat / w
    q = state.q_hat / w
    return p, q, p / v, q / v, v


def modified_injection_sensitivities(
    net: Network,
    ti: PathIncidence,
    state: MdfState,
    dv_dp: np.ndarray,
    dv_dq: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Jacobians of the modified injections with respect to bus injections.

    Entry [i, j] of the first matrix is d(p_hat_i)/d(P_j), with the ratio
    definition p_hat = P / V: a direct 1/V term on the diagonal plus the
    voltage-feedback chain term. ``dv_dp``/``dv_dq`` are the non-slack
    sensitivities of ``acpf.voltage_sensitivities``.

    Dense O(n^2) reference for ``loss_factors``, which never forms these
    matrices.
    """
    p, q, _, _, v = _state_injections(net, ti, state)
    inv_v = 1.0 / v
    dp_dp = np.diag(inv_v) - (p / v**2)[:, None] * dv_dp
    dp_dq = -(p / v**2)[:, None] * dv_dq
    dq_dp = -(q / v**2)[:, None] * dv_dp
    dq_dq = np.diag(inv_v) - (q / v**2)[:, None] * dv_dq
    return dp_dp, dp_dq, dq_dp, dq_dq


def loss_factors(
    net: Network,
    ti: PathIncidence,
    state: MdfState,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Derivatives of the total losses with respect to net bus injections.

    Uses the ratio-form modified vectors at the operating point so the
    analytic factors are the exact gradient of the quadratic loss totals
    composed with the AC voltage sensitivities at the state. Each factor is
    a direct 1/V term minus a voltage-feedback term dV/dP^T u (or dV/dQ^T u);
    the two weight vectors u (one per loss total) go through a single
    adjoint solve of the AC Jacobian, so no n x n matrix is formed.
    """
    p, q, p_hat, q_hat, v = _state_injections(net, ti, state)
    f = ti.t @ p_hat
    g = ti.t @ q_hat
    trf = ti.t.T @ (ti.r * f)
    trg = ti.t.T @ (ti.r * g)
    txf = ti.t.T @ (ti.x * f)
    txg = ti.t.T @ (ti.x * g)
    u = np.column_stack([p * trf + q * trg, p * txf + q * txg]) / (v**2)[:, None]
    fb_p, fb_q = acpf.voltage_adjoint(net, state.v, state.delta, u)
    dpl_dp = 2.0 * (trf / v - fb_p[:, 0])
    dpl_dq = 2.0 * (trg / v - fb_q[:, 0])
    dql_dp = 2.0 * (txf / v - fb_p[:, 1])
    dql_dq = 2.0 * (txg / v - fb_q[:, 1])
    return dpl_dp, dpl_dq, dql_dp, dql_dq


def dlmp(
    net: Network,
    factors: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    thermal_duals: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Marginal-loss nodal prices in $/MWh and $/MVarh.

    Valid only without congestion; refuses when any thermal-limit multiplier
    is active.
    """
    if thermal_duals is not None and len(thermal_duals):
        worst = float(np.max(thermal_duals))
        if worst > 1e-6:
            raise PricingError(
                f"congestion detected (thermal multiplier {worst:.3e}); "
                "marginal-loss prices exclude congestion components"
            )
    c0p, c0q = acpf.slack_costs(net)
    dpl_dp, dpl_dq, dql_dp, dql_dq = factors
    dlmp_p = c0p - c0p * dpl_dp - c0q * dql_dp
    dlmp_q = c0q - c0p * dpl_dq - c0q * dql_dq
    return dlmp_p, dlmp_q


def allocate_losses(
    ti: PathIncidence, state: MdfState
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-bus loss shares (active-from-P, reactive-from-P, active-from-Q,
    reactive-from-Q), each summing exactly to the matching loss total.

    A bus is charged for every branch on its path to the supply point, in
    proportion to its own modified injection times the branch flow.
    """
    f = ti.t @ state.p_hat
    g = ti.t @ state.q_hat
    pl_p = state.p_hat * (ti.t.T @ (ti.r * f))
    ql_p = state.p_hat * (ti.t.T @ (ti.x * f))
    pl_q = state.q_hat * (ti.t.T @ (ti.r * g))
    ql_q = state.q_hat * (ti.t.T @ (ti.x * g))
    return pl_p, ql_p, pl_q, ql_q


def dlp(
    net: Network, ti: PathIncidence, state: MdfState
) -> tuple[np.ndarray, np.ndarray]:
    """Allocated-loss nodal prices in $/MWh and $/MVarh, in the closed form
    that stays defined at zero-injection buses."""
    v = state.v[1:]
    if np.any(v <= 0.0):
        raise PricingError("non-positive voltage magnitude in state")
    c0p, c0q = acpf.slack_costs(net)
    kern = c0p * ti.r + c0q * ti.x
    f = ti.t @ state.p_hat
    g = ti.t @ state.q_hat
    dlp_p = c0p - (ti.t.T @ (kern * f)) / v
    dlp_q = c0q - (ti.t.T @ (kern * g)) / v
    return dlp_p, dlp_q


def settle(
    net: Network,
    ti: PathIncidence,
    state: MdfState,
    prices: tuple[np.ndarray, np.ndarray],
    mechanism: str,
    ac_state: acpf.AcState | None = None,
) -> SettlementReport:
    """Settle loads and generators at the given nodal prices.

    Loads pay and generators are paid at their bus price; the supply point is
    paid its own cost for everything it serves. With ``ac_state`` given, the
    supply-point quantity is the exact AC slack generation and bus quantities
    are the raw data; otherwise the settlement is taken at the model state
    (bus quantities carry the model's W*V weighting and the supply point is
    settled for net withdrawals plus the model loss totals).
    """
    price_p, price_q = prices
    c0p, c0q = acpf.slack_costs(net)
    base = net.base_power
    w = state.w[1:]
    v = state.v[1:]
    p_load = np.array([net.bus(b).p_load for b in ti.order])
    q_load = np.array([net.bus(b).q_load for b in ti.order])
    gen_p = state.p_hat / w + p_load
    gen_q = state.q_hat / w + q_load
    slack_bus = net.bus(net.slack)

    if ac_state is None:
        scale = w * v
        rep = mdistflow.losses(ti, state)
        w0 = 2.0 - net.v0
        slack_scale = w0 * net.v0
        slack_gen_p = (
            float(np.sum(p_load * scale) - np.sum(gen_p * scale))
            + rep.pl + slack_bus.p_load * slack_scale
        )
        slack_gen_q = (
            float(np.sum(q_load * scale) - np.sum(gen_q * scale))
            + rep.ql + slack_bus.q_load * slack_scale
        )
    else:
        scale = np.ones(ti.n)
        slack_scale = 1.0
        slack_gen_p = ac_state.slack_p + slack_bus.p_load
        slack_gen_q = ac_state.slack_q + slack_bus.q_load

    revenue = base * float(
        np.sum(price_p * p_load * scale) + np.sum(price_q * q_load * scale)
        + c0p * slack_bus.p_load * slack_scale
        + c0q * slack_bus.q_load * slack_scale
    )
    payment = base * float(
        np.sum(price_p * gen_p * scale) + np.sum(price_q * gen_q * scale)
        + c0p * slack_gen_p + c0q * slack_gen_q
    )
    return SettlementReport(
        mechanism=mechanism,
        revenue=revenue,
        payment=payment,
        ocl=revenue - payment,
    )


def compute_price_table(
    net: Network,
    ti: PathIncidence,
    state: MdfState,
    thermal_duals: np.ndarray | None = None,
    slack_dispatch: tuple[float, float] | None = None,
) -> PriceTable:
    """Full pricing pass at a solved state.

    Takes the loss factors from one sparse factorization of the AC Jacobian
    at the model voltages and angles, turns them into the marginal-loss
    prices, and computes the allocation-based prices alongside.
    ``slack_dispatch`` (pu P, Q at the supply point), when given, is checked
    against the interior-generation assumption.
    """
    if slack_dispatch is not None:
        g = net.bus(net.slack).gen
        if g is not None and not (slack_dispatch[0] > g.p_min + 1e-9):
            warnings.warn(
                "supply-point generation is not strictly interior; "
                "marginal-loss prices assume the supply point is marginal",
                RuntimeWarning,
                stacklevel=2,
            )
    factors = loss_factors(net, ti, state)
    dlmp_p, dlmp_q = dlmp(net, factors, thermal_duals=thermal_duals)
    pl_p, ql_p, pl_q, ql_q = allocate_losses(ti, state)
    dlp_p, dlp_q = dlp(net, ti, state)
    return PriceTable(
        bus_ids=ti.order,
        dlmp_p=dlmp_p, dlmp_q=dlmp_q, dlp_p=dlp_p, dlp_q=dlp_q,
        dpl_dp=factors[0], dpl_dq=factors[1],
        dql_dp=factors[2], dql_dq=factors[3],
        alloc_pl_p=pl_p, alloc_ql_p=ql_p, alloc_pl_q=pl_q, alloc_ql_q=ql_q,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

PRICE_COLUMNS = [
    "bus",
    "dlmp_p[$ per MWh]", "dlmp_q[$ per MVarh]",
    "dlp_p[$ per MWh]", "dlp_q[$ per MVarh]",
    "dpl_dp", "dpl_dq", "dql_dp", "dql_dq",
    "alloc_pl_p[pu]", "alloc_ql_p[pu]", "alloc_pl_q[pu]", "alloc_ql_q[pu]",
]


def _value_rows(pt: PriceTable, extra: dict[str, np.ndarray]) -> list[list[float]]:
    """Every column of ``PRICE_COLUMNS`` but ``bus`` (the ``PriceTable``
    fields in declaration order), then the ``extra`` columns, one list per
    bus."""
    cols = [getattr(pt, f.name) for f in fields(pt)[1:]]
    return np.column_stack([*cols, *extra.values()]).tolist()


def price_table_to_csv(pt: PriceTable, extra: dict[str, np.ndarray] | None = None) -> str:
    """CSV with one row per bus; ``extra`` appends named columns (e.g. oracle
    errors)."""
    extra = extra or {}
    buf = io.StringIO()
    _csv.writer(buf, lineterminator="\n").writerow(PRICE_COLUMNS + list(extra))
    fmt = "%d" + ",%.10g" * (len(PRICE_COLUMNS) - 1 + len(extra)) + "\n"
    buf.writelines(fmt % (b, *row) for b, row in zip(pt.bus_ids, _value_rows(pt, extra)))
    return buf.getvalue()


def price_table_to_json(pt: PriceTable, extra: dict[str, np.ndarray] | None = None) -> str:
    extra = extra or {}
    doc = {
        "format": "radialopf-prices-v1",
        "columns": PRICE_COLUMNS + list(extra.keys()),
        "rows": [[b, *row] for b, row in zip(pt.bus_ids, _value_rows(pt, extra))],
    }
    return json.dumps(doc, indent=1)


def settlement_to_json(reports: list[SettlementReport]) -> str:
    doc = {
        "format": "radialopf-settlement-v1",
        "reports": [
            {
                "mechanism": r.mechanism,
                "revenue[$]": r.revenue,
                "payment[$]": r.payment,
                "ocl[$]": r.ocl,
            }
            for r in reports
        ],
    }
    return json.dumps(doc, indent=1)


def settlement_to_csv(reports: list[SettlementReport]) -> str:
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["mechanism", "revenue[$]", "payment[$]", "ocl[$]"])
    for r in reports:
        writer.writerow([r.mechanism, f"{r.revenue:.10g}", f"{r.payment:.10g}",
                         f"{r.ocl:.10g}"])
    return buf.getvalue()
