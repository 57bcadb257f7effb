"""Network data model for radial distribution feeders.

Holds the immutable grid description (buses, branches, generators), the
path-branch incidence structure used by the closed-form power-flow and OPF
builders, a MATPOWER-subset case reader, a native JSON format, and feeder
duplication for large-system synthesis.

Conventions used throughout the package:
  * all powers and impedances are per unit on ``Network.base_power``;
  * bus ids are integers as found in the case file;
  * every branch is stored oriented parent -> child relative to the slack;
  * generator costs stay in $/MWh and $/MVarh;
  * one bus order for every array: full-bus arrays hold the slack at
    position 0, then the non-slack buses in the feeder's DFS preorder
    (``PathIncidence.order``); non-slack arrays are the same order without
    the slack (``tree_positions``). ``Network.buses`` is record storage only:
    its order never indexes an array.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp


class NetworkError(ValueError):
    """Raised for malformed case data or topology violations."""


@dataclass(frozen=True)
class Generator:
    p_min: float
    p_max: float
    q_min: float
    q_max: float
    cost_p: float = 0.0
    cost_q: float = 0.0


@dataclass(frozen=True)
class Bus:
    id: int
    p_load: float = 0.0
    q_load: float = 0.0
    v_min: float = 0.9
    v_max: float = 1.1
    gen: Generator | None = None


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    i_max: float | None = None


@dataclass(frozen=True)
class Network:
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    slack: int
    base_power: float = 10.0
    base_voltage: float = 12.66
    v0: float = 1.0

    def bus(self, bus_id: int) -> Bus:
        return self.buses[bus_positions(self)[bus_id]]

    @property
    def n_bus(self) -> int:
        return len(self.buses)


@dataclass(frozen=True)
class PathIncidence:
    """Path-branch incidence matrix of a rooted radial network.

    Row i is the branch whose child bus is ``order[i]``; column k flags the
    branches on the path from ``order[k]`` to the slack. Under this indexing
    the matrix is unit upper triangular. ``parent_pos[i]`` is the position of
    the parent of ``order[i]`` within ``order`` (-1 when the parent is the
    slack), and ``r``/``x``/``i_max`` are the branch parameters aligned to
    rows (``i_max`` is NaN where the branch is unlimited).
    """

    order: tuple[int, ...]
    t: sp.csr_matrix
    parent_pos: tuple[int, ...]
    r: np.ndarray
    x: np.ndarray
    i_max: np.ndarray

    @property
    def n(self) -> int:
        return len(self.order)


def bus_positions(net: Network) -> dict[int, int]:
    """Map bus id -> position of its record in ``net.buses`` (memoized on the
    instance). Record lookups only; arrays follow ``tree_positions``."""
    memo = net.__dict__.get("_pos_memo")
    if memo is None:
        memo = {b.id: i for i, b in enumerate(net.buses)}
        object.__setattr__(net, "_pos_memo", memo)
    return memo


def tree_positions(net: Network) -> dict[int, int]:
    """Map bus id -> array position: the slack at 0, then the non-slack buses
    in ``build_path_incidence(net).order`` at 1..n. Iterating the map yields
    the bus ids in that order. Memoized on the instance."""
    memo = net.__dict__.get("_tree_memo")
    if memo is None:
        memo = {b: k for k, b in enumerate((net.slack, *_root_tree(net)[0]))}
        object.__setattr__(net, "_tree_memo", memo)
    return memo


def _adjacency(net: Network) -> dict[int, list[tuple[int, int]]]:
    adj: dict[int, list[tuple[int, int]]] = {b.id: [] for b in net.buses}
    for li, br in enumerate(net.branches):
        if br.from_bus not in adj or br.to_bus not in adj:
            raise NetworkError(
                f"branch {br.from_bus}-{br.to_bus} references an unknown bus"
            )
        adj[br.from_bus].append((br.to_bus, li))
        adj[br.to_bus].append((br.from_bus, li))
    return adj


def _root_tree(net: Network) -> tuple[tuple[int, ...], np.ndarray]:
    """DFS the network from the slack, once per instance (memoized).

    Returns the non-slack bus ids in preorder (the order the DFS pops them)
    and, aligned to it, an int array of the index of each bus's parent
    branch in ``net.branches`` (an array, not a tuple of ints, because the
    memo lives as long as the network). Raises on cycles or disconnection.
    """
    memo = net.__dict__.get("_root_memo")
    if memo is not None:
        return memo
    adj = _adjacency(net)
    if net.slack not in adj:
        raise NetworkError(f"slack bus {net.slack} is not in the bus list")
    via = {net.slack: -1}  # bus -> index of the branch it was reached by
    order: list[int] = []
    branch_of: list[int] = []
    stack = [net.slack]
    while stack:
        u = stack.pop()
        if u != net.slack:
            order.append(u)
            branch_of.append(via[u])
        for v, li in sorted(adj[u], reverse=True):
            if li == via[u]:
                continue
            if v in via:
                raise NetworkError(
                    f"non-radial topology: bus {v} is reachable on two paths"
                )
            via[v] = li
            stack.append(v)
    if len(via) != len(net.buses):
        missing = sorted(set(b.id for b in net.buses) - via.keys())
        raise NetworkError(f"network is disconnected: unreachable buses {missing}")
    if len(net.branches) != len(net.buses) - 1:
        raise NetworkError(
            f"non-radial topology: {len(net.branches)} branches for "
            f"{len(net.buses)} buses"
        )
    memo = (tuple(order), np.array(branch_of, dtype=int))
    object.__setattr__(net, "_root_memo", memo)
    return memo


def _branch_children(net: Network) -> dict[int, int]:
    """Map branch index -> the bus it feeds (its end away from the slack)."""
    order, branch_of = _root_tree(net)
    return dict(zip(branch_of.tolist(), order))


def normalize_orientation(net: Network) -> Network:
    """Return an equivalent network with every branch oriented parent -> child."""
    oriented = list(net.branches)
    for li, child in _branch_children(net).items():
        br = oriented[li]
        if br.to_bus != child:
            oriented[li] = replace(br, from_bus=br.to_bus, to_bus=br.from_bus)
    return replace(net, branches=tuple(oriented))


def build_path_incidence(net: Network) -> PathIncidence:
    """Build the path-branch incidence matrix and its topological ordering."""
    order, branch_of = _root_tree(net)
    pos = {b: i for i, b in enumerate(order)}
    branches = [net.branches[li] for li in branch_of.tolist()]
    parent_pos = tuple(
        pos.get(br.from_bus if br.to_bus == b else br.to_bus, -1)
        for b, br in zip(order, branches)
    )
    n = len(order)
    rows: list[int] = []
    cols: list[int] = []
    for k in range(n):
        i = k
        while i >= 0:
            rows.append(i)
            cols.append(k)
            i = parent_pos[i]
    data = np.ones(len(rows))
    t = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    r = np.array([br.r for br in branches], dtype=float)
    x = np.array([br.x for br in branches], dtype=float)
    i_max = np.array(
        [np.nan if br.i_max is None else br.i_max for br in branches], dtype=float
    )
    for arr in (r, x, i_max):
        arr.setflags(write=False)
    return PathIncidence(order, t, parent_pos, r, x, i_max)


def validate(net: Network) -> list[str]:
    """Check the network invariants; returns one message per violation."""
    out: list[str] = []
    ids = [b.id for b in net.buses]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        out.append(f"duplicate bus ids {dupes}")
        return out
    if net.slack not in set(ids):
        out.append(f"slack bus {net.slack} missing from bus list")
        return out
    if not (net.v0 > 0 and math.isfinite(net.v0)):
        out.append(f"slack voltage {net.v0} is not positive and finite")
    for b in net.buses:
        if not all(map(math.isfinite, (b.p_load, b.q_load, b.v_min, b.v_max))):
            out.append(f"bus {b.id}: non-finite load or voltage limit")
        if b.p_load < 0 or b.q_load < 0:
            out.append(f"bus {b.id}: negative load")
        if b.v_min <= 0:
            out.append(f"bus {b.id}: v_min must be positive")
        if not b.v_min < b.v_max:
            out.append(f"bus {b.id}: v_min {b.v_min} not below v_max {b.v_max}")
        g = b.gen
        if g is not None:
            vals = (g.p_min, g.p_max, g.q_min, g.q_max, g.cost_p, g.cost_q)
            if not all(map(math.isfinite, vals)):
                out.append(f"bus {b.id}: non-finite generator data")
            if g.p_min > g.p_max or g.q_min > g.q_max:
                out.append(f"bus {b.id}: generator bounds out of order")
            if g.cost_p < 0 or g.cost_q < 0:
                out.append(f"bus {b.id}: negative generator cost")
    known = set(ids)
    for br in net.branches:
        tag = f"branch {br.from_bus}-{br.to_bus}"
        if br.from_bus not in known or br.to_bus not in known:
            out.append(f"{tag}: unknown endpoint")
            continue
        if not (math.isfinite(br.r) and math.isfinite(br.x)):
            out.append(f"{tag}: non-finite impedance")
        if br.r < 0 or br.x < 0:
            out.append(f"{tag}: negative impedance")
        if br.r == 0 and br.x == 0:
            out.append(f"{tag}: resistance and reactance both zero")
        if br.i_max is not None and br.i_max <= 0:
            out.append(f"{tag}: non-positive current limit")
    if not out:
        try:
            child = _branch_children(net)
        except NetworkError as exc:
            out.append(str(exc))
            return out
        for li, br in enumerate(net.branches):
            if child[li] != br.to_bus:
                out.append(
                    f"branch {br.from_bus}-{br.to_bus}: not oriented parent to child"
                )
    return out


# ---------------------------------------------------------------------------
# MATPOWER case-file subset
# ---------------------------------------------------------------------------

_MATRIX_RE = re.compile(r"mpc\.(\w+)\s*=\s*\[(.*?)\];", re.DOTALL)
_SCALAR_RE = re.compile(r"mpc\.baseMVA\s*=\s*([0-9eE.+-]+)\s*;")


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("%", 1)[0] for line in text.splitlines())


def _parse_matrix(name: str, body: str) -> list[list[float]]:
    rows: list[list[float]] = []
    for chunk in re.split(r"[;\n]", body):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            rows.append([float(tok) for tok in chunk.split()])
        except ValueError as exc:
            raise NetworkError(f"malformed row in mpc.{name}: {chunk!r}") from exc
    return rows


def parse_matpower_case(text: str) -> Network:
    """Parse the MATPOWER-subset case format into a per-unit Network."""
    clean = _strip_comments(text)
    m = _SCALAR_RE.search(clean)
    if not m:
        raise NetworkError("missing mpc.baseMVA statement")
    base = float(m.group(1))
    if base <= 0:
        raise NetworkError(f"baseMVA must be positive, got {base}")
    mats = {name: _parse_matrix(name, body) for name, body in _MATRIX_RE.findall(clean)}
    for required in ("bus", "branch"):
        if required not in mats:
            raise NetworkError(f"missing mpc.{required} matrix")

    buses: list[Bus] = []
    slack_ids: list[int] = []
    base_kv = None
    v0 = 1.0
    for row in mats["bus"]:
        if len(row) < 13:
            raise NetworkError(f"bus row needs 13 columns, got {len(row)}: {row}")
        bus_id = int(row[0])
        btype = int(row[1])
        if btype not in (1, 2, 3):
            raise NetworkError(f"bus {bus_id}: unsupported bus type {btype}")
        if btype == 3:
            slack_ids.append(bus_id)
            base_kv = row[9]
            v0 = row[7] if row[7] > 0 else 1.0
        buses.append(
            Bus(
                id=bus_id,
                p_load=row[2] / base,
                q_load=row[3] / base,
                v_min=row[12],
                v_max=row[11],
            )
        )
    if len(slack_ids) != 1:
        raise NetworkError(
            f"expected exactly one slack (type 3) bus, found {len(slack_ids)}"
        )
    slack = slack_ids[0]
    known = {b.id for b in buses}
    if len(known) != len(buses):
        raise NetworkError("duplicate bus ids in mpc.bus")

    branches: list[Branch] = []
    for row in mats["branch"]:
        if len(row) < 6:
            raise NetworkError(f"branch row needs 6 columns, got {len(row)}: {row}")
        f, t = int(row[0]), int(row[1])
        if f not in known or t not in known:
            raise NetworkError(f"branch {f}-{t} references an unknown bus")
        rate = row[5] / base if row[5] > 0 else None
        branches.append(Branch(from_bus=f, to_bus=t, r=row[2], x=row[3], i_max=rate))

    gens = mats.get("gen", [])
    gencost = mats.get("gencost", [])
    if gencost and len(gencost) != len(gens):
        raise NetworkError(
            f"gencost has {len(gencost)} rows for {len(gens)} generators"
        )
    gen_by_bus: dict[int, Generator] = {}
    for gi, row in enumerate(gens):
        if len(row) < 10:
            raise NetworkError(f"gen row needs 10 columns, got {len(row)}: {row}")
        bus_id = int(row[0])
        if bus_id not in known:
            raise NetworkError(f"generator references unknown bus {bus_id}")
        if int(row[7]) == 0:
            continue
        if bus_id in gen_by_bus:
            raise NetworkError(f"multiple generators at bus {bus_id}")
        cost_p = 0.0
        if gencost:
            crow = gencost[gi]
            if len(crow) < 4 or int(crow[0]) != 2 or int(crow[3]) != 2:
                raise NetworkError(
                    f"gencost row {gi + 1}: only linear costs "
                    "(MODEL=2, NCOST=2) are supported"
                )
            cost_p = crow[4]
        gen_by_bus[bus_id] = Generator(
            p_min=row[9] / base,
            p_max=row[8] / base,
            q_min=row[4] / base,
            q_max=row[3] / base,
            cost_p=cost_p,
            cost_q=0.0,
        )

    buses = [
        replace(b, gen=gen_by_bus[b.id]) if b.id in gen_by_bus else b for b in buses
    ]
    net = Network(
        buses=tuple(buses),
        branches=tuple(branches),
        slack=slack,
        base_power=base,
        base_voltage=base_kv if base_kv else 1.0,
        v0=v0,
    )
    net = normalize_orientation(net)
    problems = validate(net)
    if problems:
        raise NetworkError("invalid case data: " + "; ".join(problems))
    return net


def load_case(path) -> Network:
    with open(path) as fh:
        return parse_matpower_case(fh.read())


# ---------------------------------------------------------------------------
# Native JSON format
# ---------------------------------------------------------------------------

def to_json(net: Network) -> str:
    def gen_dict(g: Generator | None):
        if g is None:
            return None
        return {
            "p_min": g.p_min, "p_max": g.p_max,
            "q_min": g.q_min, "q_max": g.q_max,
            "cost_p": g.cost_p, "cost_q": g.cost_q,
        }

    doc = {
        "format": "radialopf-network-v1",
        "slack": net.slack,
        "base_power": net.base_power,
        "base_voltage": net.base_voltage,
        "v0": net.v0,
        "buses": [
            {
                "id": b.id, "p_load": b.p_load, "q_load": b.q_load,
                "v_min": b.v_min, "v_max": b.v_max, "gen": gen_dict(b.gen),
            }
            for b in net.buses
        ],
        "branches": [
            {
                "from": br.from_bus, "to": br.to_bus,
                "r": br.r, "x": br.x, "i_max": br.i_max,
            }
            for br in net.branches
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def from_json(text: str) -> Network:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkError(f"invalid JSON network: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "radialopf-network-v1":
        raise NetworkError("not a radialopf network document")
    try:
        buses = tuple(
            Bus(
                id=b["id"], p_load=b["p_load"], q_load=b["q_load"],
                v_min=b["v_min"], v_max=b["v_max"],
                gen=Generator(**b["gen"]) if b.get("gen") else None,
            )
            for b in doc["buses"]
        )
        branches = tuple(
            Branch(
                from_bus=br["from"], to_bus=br["to"], r=br["r"], x=br["x"],
                i_max=br["i_max"],
            )
            for br in doc["branches"]
        )
        return Network(
            buses=buses, branches=branches, slack=doc["slack"],
            base_power=doc["base_power"], base_voltage=doc["base_voltage"],
            v0=doc["v0"],
        )
    except (KeyError, TypeError) as exc:
        raise schema_error("network JSON", exc) from exc


def schema_error(document: str, exc: Exception) -> NetworkError:
    """Data error for a JSON document that does not fit its schema."""
    if isinstance(exc, KeyError):
        return NetworkError(f"{document}: missing key {exc.args[0]!r}")
    return NetworkError(f"{document}: {exc}")


# ---------------------------------------------------------------------------
# Feeder duplication
# ---------------------------------------------------------------------------

def duplicate_system(
    net: Network,
    copies: int,
    seed: int = 0,
    scale_range: tuple[float, float] = (0.7, 1.3),
) -> Network:
    """Attach ``copies`` randomized replicas of the feeder to a common slack.

    Every copy keeps the feeder topology; its branch impedances get one
    uniform factor per branch (applied to r and x together) and its loads one
    factor per bus (applied to P and Q together), drawn from ``scale_range``
    with numpy's PCG64 generator seeded by ``seed``. The copies' slack buses
    merge into the single new slack, whose generator capacity is scaled by
    ``copies``. Bus count of the result is copies * (n_bus - 1) + 1.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    lo, hi = scale_range
    if not (0 < lo <= hi):
        raise ValueError(f"bad scale_range {scale_range}")
    rng = np.random.default_rng(seed)
    slack_bus = net.bus(net.slack)
    slack_gen = slack_bus.gen
    if slack_gen is not None:
        slack_gen = replace(
            slack_gen,
            p_min=slack_gen.p_min * copies, p_max=slack_gen.p_max * copies,
            q_min=slack_gen.q_min * copies, q_max=slack_gen.q_max * copies,
        )
    new_slack = Bus(
        id=1,
        p_load=slack_bus.p_load * copies,
        q_load=slack_bus.q_load * copies,
        v_min=slack_bus.v_min,
        v_max=slack_bus.v_max,
        gen=slack_gen,
    )
    nonslack = [b for b in net.buses if b.id != net.slack]
    n = len(nonslack)
    buses = [new_slack]
    branches: list[Branch] = []
    for c in range(copies):
        idmap = {net.slack: 1}
        for i, b in enumerate(nonslack):
            idmap[b.id] = 2 + c * n + i
        load_f = rng.uniform(lo, hi, size=n)
        for i, b in enumerate(nonslack):
            buses.append(
                replace(
                    b,
                    id=idmap[b.id],
                    p_load=b.p_load * load_f[i],
                    q_load=b.q_load * load_f[i],
                )
            )
        imp_f = rng.uniform(lo, hi, size=len(net.branches))
        for j, br in enumerate(net.branches):
            branches.append(
                replace(
                    br,
                    from_bus=idmap[br.from_bus],
                    to_bus=idmap[br.to_bus],
                    r=br.r * imp_f[j],
                    x=br.x * imp_f[j],
                )
            )
    return replace(
        net, buses=tuple(buses), branches=tuple(branches), slack=1
    )


# ---------------------------------------------------------------------------
# Overlay helpers (used by scenarios and tests)
# ---------------------------------------------------------------------------

def with_slack_voltage(net: Network, v0: float) -> Network:
    return replace(net, v0=v0)


def with_generator(net: Network, bus_id: int, gen: Generator | None) -> Network:
    pos = bus_positions(net)
    if bus_id not in pos:
        raise NetworkError(f"no bus {bus_id} in network")
    buses = list(net.buses)
    buses[pos[bus_id]] = replace(buses[pos[bus_id]], gen=gen)
    return replace(net, buses=tuple(buses))


def with_slack_costs(net: Network, cost_p: float, cost_q: float) -> Network:
    """Set the supply-point prices, creating a wide-capacity generator if absent."""
    g = net.bus(net.slack).gen
    if g is None:
        total_p = sum(b.p_load for b in net.buses)
        total_q = sum(abs(b.q_load) for b in net.buses)
        g = Generator(0.0, 10.0 * total_p + 10.0, -10.0 * total_q - 10.0,
                      10.0 * total_q + 10.0)
    return with_generator(
        net, net.slack, replace(g, cost_p=cost_p, cost_q=cost_q)
    )


def with_load(net: Network, bus_id: int, p_load: float, q_load: float) -> Network:
    pos = bus_positions(net)
    buses = list(net.buses)
    buses[pos[bus_id]] = replace(buses[pos[bus_id]], p_load=p_load, q_load=q_load)
    return replace(net, buses=tuple(buses))


def scale_loads(net: Network, factor: float) -> Network:
    buses = tuple(
        replace(b, p_load=b.p_load * factor, q_load=b.q_load * factor)
        for b in net.buses
    )
    return replace(net, buses=buses)


def scale_impedance(net: Network, factor: float) -> Network:
    branches = tuple(
        replace(br, r=br.r * factor, x=br.x * factor) for br in net.branches
    )
    return replace(net, branches=branches)


def with_voltage_limits(net: Network, v_min: float, v_max: float) -> Network:
    buses = tuple(replace(b, v_min=v_min, v_max=v_max) for b in net.buses)
    return replace(net, buses=buses)


def strip_thermal_limits(net: Network) -> Network:
    branches = tuple(replace(br, i_max=None) for br in net.branches)
    return replace(net, branches=branches)


def net_injections(
    net: Network,
    ti: PathIncidence,
    pg: dict[int, float] | None = None,
    qg: dict[int, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed net injections (generation minus load) per non-slack bus, in
    ``ti.order``. ``pg``/``qg`` map bus id -> dispatched output (pu)."""
    pg = pg or {}
    qg = qg or {}
    p = np.empty(ti.n)
    q = np.empty(ti.n)
    for i, bus_id in enumerate(ti.order):
        b = net.bus(bus_id)
        p[i] = pg.get(bus_id, 0.0) - b.p_load
        q[i] = qg.get(bus_id, 0.0) - b.q_load
    return p, q
