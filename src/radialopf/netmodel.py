"""Network data model for radial distribution feeders.

Holds the immutable grid description (buses, branches, generators), the
feeder's tree order with the factored branch-parent incidence that the
closed-form power-flow, OPF and pricing code use for path sums, a
MATPOWER-subset case reader, a native JSON format, and feeder duplication
for large-system synthesis.

``Bus`` and ``Branch`` are named tuples (``._replace`` makes a changed
copy); ``Generator`` and ``Network`` are frozen dataclasses. The records
are read once per network, into read-only arrays in record order that only
``validate`` and the tree search see. The tree order comes from one
compiled depth-first search from the slack over the buses ranked by id
(``scipy.sparse.csgraph.depth_first_order``), and ``columns`` puts the
records' numbers in that array order for every later stage. Each view
derived from a network is memoized on the instance (``per_network``).

The paper writes every branch flow and voltage drop through the path matrix
T, whose entry (i, k) is 1 when branch i lies on the path from bus k to the
slack. T is the inverse of the unit upper-triangular branch-parent
incidence I - A, so T is never formed: each product with T or T' is one
triangular solve with I - A, which has at most 2n nonzeros for n branches,
while T has one nonzero per (bus, ancestor) pair, quadratic in n on a deep
feeder.

Conventions used throughout the package:
  * all powers and impedances are per unit on ``Network.base_power``;
  * bus ids are integers as found in the case file;
  * every branch is stored oriented parent -> child relative to the slack;
  * generator costs stay in $/MWh and $/MVarh;
  * one bus order for every array: full-bus arrays hold the slack at
    position 0, then the non-slack buses in the feeder's DFS preorder
    (``PathIncidence.order``); non-slack arrays are the same order without
    the slack (``tree_positions``). ``Network.buses`` and
    ``Network.branches`` are record storage: outside this module only
    ``acpf``'s branch loop and the ``pf`` report's rows follow their order.
"""
from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla


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


class Bus(NamedTuple):
    id: int
    p_load: float = 0.0
    q_load: float = 0.0
    v_min: float = 0.9
    v_max: float = 1.1
    gen: Generator | None = None


class Branch(NamedTuple):
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
    """Tree order of a rooted radial network and its path sums.

    Branch row i is the branch whose child bus is ``order[i]``.
    ``parent_pos[i]`` is the position of the parent of ``order[i]`` within
    ``order`` (-1 when the parent is the slack), and ``r``/``x``/``i_max`` are
    the branch parameters aligned to rows (``i_max`` is NaN where the branch
    is unlimited), the arrays of ``columns(net)``; all four are read-only.

    ``t`` is the SuperLU factor of I - A, where A[parent_pos[k], k] = 1. In
    preorder every parent precedes its children, so I - A is unit upper
    triangular; it is factored in natural order without pivoting, so the
    factor has no fill: L is the identity and U is I - A. Its inverse is the
    path matrix T (T[i, k] = 1 when branch i lies on the path from
    ``order[k]`` to the slack), applied without forming it:

    * ``t.solve(x)`` is T x, each branch's sum of ``x`` over the buses it
      feeds;
    * ``t.solve(y, trans="T")`` is T' y, each bus's sum of ``y`` over the
      branches on its path to the slack.
    """

    order: tuple[int, ...]
    t: spla.SuperLU
    parent_pos: np.ndarray
    r: np.ndarray
    x: np.ndarray
    i_max: np.ndarray

    @property
    def n(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class Columns:
    """The numbers of a network's records as read-only arrays in array
    order: a bus field holds the slack at 0, then the buses of
    ``path_incidence(net).order``; branch field k is the branch into
    ``order[k]``. ``gen`` marks the buses with a generator; the generator
    fields (``p_min`` to ``cost_q``) are NaN at the others. ``rated`` marks
    the branches with a current limit; ``i_max`` is NaN at the others.
    """

    bus_id: np.ndarray
    p_load: np.ndarray
    q_load: np.ndarray
    v_min: np.ndarray
    v_max: np.ndarray
    gen: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray
    q_min: np.ndarray
    q_max: np.ndarray
    cost_p: np.ndarray
    cost_q: np.ndarray
    from_bus: np.ndarray
    to_bus: np.ndarray
    r: np.ndarray
    x: np.ndarray
    i_max: np.ndarray
    rated: np.ndarray

    def __post_init__(self):
        for arr in vars(self).values():
            arr.setflags(write=False)


_GEN_FIELDS = attrgetter("p_min", "p_max", "q_min", "q_max", "cost_p", "cost_q")


def _transposed(records, width: int) -> tuple[tuple, ...]:
    """The records' fields, one tuple per field (``width`` empty ones when
    there are no records)."""
    return tuple(zip(*records)) or ((),) * width


def per_network(build):
    """Memoize ``build(net)`` on the instance, under ``build``'s module and
    qualified name in ``vars(net)``; nothing is kept when the build raises."""
    key = f"{build.__module__}.{build.__qualname__}"

    @functools.wraps(build)
    def memoized(net: Network):
        if key not in net.__dict__:
            object.__setattr__(net, key, build(net))
        return net.__dict__[key]

    return memoized


@per_network
def _records(net: Network) -> Columns:
    """The numbers of ``net``'s records in record order, gathered in one pass
    over them: the bus fields follow ``net.buses`` and the branch fields
    ``net.branches``. Only ``validate`` and the tree search read this order."""
    ids, p_load, q_load, v_min, v_max, gens = _transposed(net.buses, len(Bus._fields))
    has_gen = np.array([g is not None for g in gens], dtype=bool)
    gen = np.full((len(gens), 6), np.nan)
    gen[has_gen] = np.array(list(map(_GEN_FIELDS, filter(None, gens))),
                            dtype=float).reshape(-1, 6)
    from_bus, to_bus, r, x, i_max = _transposed(net.branches, len(Branch._fields))
    return Columns(
        np.array(ids), *(np.array(c, dtype=float) for c in (p_load, q_load, v_min, v_max)),
        has_gen, *gen.T.copy(), np.array(from_bus), np.array(to_bus),
        *(np.array(c, dtype=float) for c in (r, x, i_max)),  # None -> NaN
        np.array([v is not None for v in i_max], dtype=bool),
    )


@per_network
def columns(net: Network) -> Columns:
    """The column view of ``net``'s records in array order (see ``Columns``),
    memoized on the instance."""
    tree, branch = _root_tree(net), {*Branch._fields, "rated"}
    return Columns(**{name: c[tree.branch_of if name in branch else tree.at]
                      for name, c in vars(_records(net)).items()})


@per_network
def bus_positions(net: Network) -> dict[int, int]:
    """Map bus id -> position of its record in ``net.buses`` (memoized on the
    instance). Record lookups only; arrays follow ``tree_positions``."""
    return {b.id: i for i, b in enumerate(net.buses)}


@per_network
def tree_positions(net: Network) -> dict[int, int]:
    """Map bus id -> array position: the slack at 0, then the non-slack buses
    in ``path_incidence(net).order`` at 1..n. Iterating the map yields
    the bus ids in that order. Memoized on the instance."""
    return {b: k for k, b in enumerate((net.slack, *_root_tree(net).order))}


class _Tree(NamedTuple):
    order: tuple[int, ...]  # non-slack bus ids in preorder
    at: np.ndarray  # record position of the slack, then of each bus in ``order``
    branch_of: np.ndarray  # index in ``net.branches`` of each bus's parent branch
    parent_pos: np.ndarray  # position of each bus's parent in ``order``, -1 for the slack


@per_network
def _root_tree(net: Network) -> _Tree:
    """Search the network from the slack, once per instance (memoized).

    One compiled depth-first search (``scipy.sparse.csgraph``) over the
    buses ranked by id, so that each bus's children come in ascending id
    order. The network is a tree when it has n - 1 branches for n buses and
    the search reaches every bus; otherwise this raises ``NetworkError``, as
    it does for an unknown branch end, a duplicate bus id or a missing
    slack. The arrays are read-only, since the memo lives as long as the
    network.
    """
    cols = _records(net)
    n, m = cols.bus_id.size, cols.from_bus.size
    ends = np.stack([cols.from_bus, cols.to_bus]).reshape(2, m)
    unknown = np.flatnonzero(~np.isin(ends, cols.bus_id).all(axis=0))
    if unknown.size:
        br = net.branches[unknown[0]]
        raise NetworkError(f"branch {br.from_bus}-{br.to_bus} references an unknown bus")
    ids, rank, count = np.unique(cols.bus_id, return_inverse=True, return_counts=True)
    if ids.size < n:
        raise NetworkError(f"duplicate bus ids {ids[count > 1].tolist()}")
    root = int(np.searchsorted(ids, net.slack))
    if root == n or ids[root] != net.slack:
        raise NetworkError(f"slack bus {net.slack} is not in the bus list")
    a, b = np.searchsorted(ids, ends)  # each branch's ends by rank
    graph = sp.csr_matrix((np.ones(2 * m), (np.concatenate([a, b]), np.concatenate([b, a]))),
                          shape=(n, n))
    pre, pred = csgraph.depth_first_order(graph, root, directed=True, return_predecessors=True)
    if pre.size < n:
        reached = np.zeros(n, dtype=bool)
        reached[pre] = True
        raise NetworkError(f"network is disconnected: unreachable buses {ids[~reached].tolist()}")
    if m != n - 1:
        raise NetworkError(f"non-radial topology: {m} branches for {n} buses")
    via = np.empty(n, dtype=int)  # by rank: the branch into each bus
    via[np.where(pred[b] == a, b, a)] = np.arange(m)
    where = np.empty(n, dtype=int)  # by rank: the position in ``order``
    where[pre] = np.arange(-1, n - 1)
    record = np.empty(n, dtype=int)
    record[rank] = np.arange(n)
    at = record[pre]
    tree = _Tree(tuple(cols.bus_id[at[1:]].tolist()), at, via[pre[1:]], where[pred[pre[1:]]])
    for arr in tree[1:]:
        arr.setflags(write=False)
    return tree


def _flipped(net: Network) -> np.ndarray:
    """Per branch, whether its ``to_bus`` is the end nearer the slack."""
    cols = columns(net)
    flipped = np.zeros(cols.to_bus.size, dtype=bool)
    flipped[_root_tree(net).branch_of] = cols.to_bus != cols.bus_id[1:]
    return flipped


def normalize_orientation(net: Network) -> Network:
    """Return an equivalent network with every branch oriented parent -> child
    (``net`` itself, with its memos, when every branch already is)."""
    flipped = np.flatnonzero(_flipped(net)).tolist()
    if not flipped:
        return net
    oriented = list(net.branches)
    for li in flipped:
        br = oriented[li]
        oriented[li] = br._replace(from_bus=br.to_bus, to_bus=br.from_bus)
    return replace(net, branches=tuple(oriented))


@per_network
def path_incidence(net: Network) -> PathIncidence:
    """The path incidence of ``net``, built once per instance (memoized)."""
    return build_path_incidence(net)


def build_path_incidence(net: Network) -> PathIncidence:
    """Order the feeder in preorder and factor its branch-parent incidence
    (see ``PathIncidence``); ``path_incidence`` is the memoized call."""
    tree = _root_tree(net)
    cols = columns(net)
    parent = tree.parent_pos
    n = parent.size
    child = np.flatnonzero(parent >= 0)
    i_minus_a = sp.csc_matrix(
        (np.concatenate([np.ones(n), -np.ones(child.size)]),
         (np.concatenate([np.arange(n), parent[child]]), np.concatenate([np.arange(n), child]))),
        shape=(n, n),
    )
    # one-column supernodes: the factor stores I - A and L's unit diagonal only
    t = spla.splu(i_minus_a, permc_spec="NATURAL", diag_pivot_thresh=0, relax=1)
    return PathIncidence(tree.order, t, parent, cols.r, cols.x, cols.i_max)


# one template per check, in the order of their columns in ``validate``
_BUS_CHECKS = (
    "bus {b.id}: non-finite load or voltage limit",
    "bus {b.id}: negative load",
    "bus {b.id}: v_min must be positive",
    "bus {b.id}: v_min {b.v_min} not below v_max {b.v_max}",
    "bus {b.id}: non-finite generator data",
    "bus {b.id}: generator bounds out of order",
    "bus {b.id}: negative generator cost",
)
_BRANCH_CHECKS = (
    "branch {b.from_bus}-{b.to_bus}: unknown endpoint",
    "branch {b.from_bus}-{b.to_bus}: non-finite impedance",
    "branch {b.from_bus}-{b.to_bus}: negative impedance",
    "branch {b.from_bus}-{b.to_bus}: resistance and reactance both zero",
    "branch {b.from_bus}-{b.to_bus}: current limit {b.i_max} is not positive and finite",
)


def _messages(records, failed: np.ndarray, templates) -> list[str]:
    """One message per failed check (``failed[i, k]``: record i, template k),
    record by record; only the flagged records are read."""
    return [templates[k].format(b=records[i]) for i, k in zip(*np.nonzero(failed))]


def validate(net: Network) -> list[str]:
    """Check the network invariants; returns one message per violation.

    Each check is one array comparison over the records' numbers; only the
    records that fail a check are read, to write their messages.
    """
    out: list[str] = []
    c = _records(net)
    ids, count = np.unique(c.bus_id, return_counts=True)
    if ids.size < c.bus_id.size:
        out.append(f"duplicate bus ids {ids[count > 1].tolist()}")
        return out
    if not np.any(c.bus_id == net.slack):
        out.append(f"slack bus {net.slack} missing from bus list")
        return out
    if not 0 < net.v0 < math.inf:
        out.append(f"slack voltage {net.v0} is not positive and finite")
    if not 0 < net.base_power < math.inf:
        out.append(f"base power {net.base_power} is not positive and finite")
    if not 0 < net.base_voltage < math.inf:
        out.append(f"base voltage {net.base_voltage} is not positive and finite")
    finite = np.isfinite
    out += _messages(net.buses, np.column_stack([
        ~(finite(c.p_load) & finite(c.q_load) & finite(c.v_min) & finite(c.v_max)),
        (c.p_load < 0) | (c.q_load < 0),
        c.v_min <= 0,
        ~(c.v_min < c.v_max),
        c.gen & ~finite([c.p_min, c.p_max, c.q_min, c.q_max, c.cost_p, c.cost_q]).all(axis=0),
        c.gen & ((c.p_min > c.p_max) | (c.q_min > c.q_max)),
        c.gen & ((c.cost_p < 0) | (c.cost_q < 0)),
    ]).reshape(-1, len(_BUS_CHECKS)), _BUS_CHECKS)
    known = np.isin(c.from_bus, c.bus_id) & np.isin(c.to_bus, c.bus_id)
    # an unknown endpoint is the branch's one message
    out += _messages(net.branches, np.column_stack([
        ~known,
        known & ~(finite(c.r) & finite(c.x)),
        known & ((c.r < 0) | (c.x < 0)),
        known & (c.r == 0) & (c.x == 0),
        known & c.rated & ~((0 < c.i_max) & (c.i_max < math.inf)),
    ]).reshape(-1, len(_BRANCH_CHECKS)), _BRANCH_CHECKS)
    if not out:
        try:
            flipped = _flipped(net)
        except NetworkError as exc:
            out.append(str(exc))
            return out
        out += [f"branch {br.from_bus}-{br.to_bus}: not oriented parent to child"
                for br in map(net.branches.__getitem__, np.flatnonzero(flipped).tolist())]
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


def _integer(value: float, where: str) -> int:
    """An integer column's value; ``NetworkError`` naming ``where`` (row and
    column) unless it is finite and integral."""
    if not value.is_integer():
        raise NetworkError(f"{where} must be an integer, got {value}")
    return int(value)


def require_valid(net: Network, what: str) -> None:
    """Raise ``NetworkError`` starting with ``what`` when ``validate`` finds
    violations: all of them on one line when there are at most five, else
    the first five and their count."""
    problems = validate(net)
    if problems:
        more = f" (first 5 of {len(problems)} violations)" if len(problems) > 5 else ""
        raise NetworkError(f"{what}: " + "; ".join(problems[:5]) + more)


def parse_matpower_case(text: str) -> Network:
    """Parse the MATPOWER-subset case format into a per-unit Network."""
    clean = _strip_comments(text)
    m = _SCALAR_RE.search(clean)
    if not m:
        raise NetworkError("missing mpc.baseMVA statement")
    try:
        base = float(m.group(1))
    except ValueError as exc:
        raise NetworkError(f"malformed mpc.baseMVA: {m.group(1)!r}") from exc
    if not 0 < base < math.inf:
        raise NetworkError(f"baseMVA must be positive and finite, got {base}")
    mats = {name: _parse_matrix(name, body) for name, body in _MATRIX_RE.findall(clean)}
    for required in ("bus", "branch"):
        if required not in mats:
            raise NetworkError(f"missing mpc.{required} matrix")

    buses: list[Bus] = []
    slack_ids: list[int] = []
    base_kv = None
    v0 = 1.0
    for k, row in enumerate(mats["bus"], 1):
        if len(row) < 13:
            raise NetworkError(f"bus row needs 13 columns, got {len(row)}: {row}")
        bus_id = _integer(row[0], f"mpc.bus row {k}: BUS_I")
        btype = _integer(row[1], f"mpc.bus row {k}: BUS_TYPE")
        if btype not in (1, 2, 3):
            raise NetworkError(f"bus {bus_id}: unsupported bus type {btype}")
        if btype == 3:
            slack_ids.append(bus_id)
            for col, name in ((7, "VM"), (9, "BASE_KV")):
                if not math.isfinite(row[col]):
                    raise NetworkError(f"mpc.bus row {k}: {name} must be finite, got {row[col]}")
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
    for k, row in enumerate(mats["branch"], 1):
        if len(row) < 6:
            raise NetworkError(f"branch row needs 6 columns, got {len(row)}: {row}")
        f = _integer(row[0], f"mpc.branch row {k}: F_BUS")
        t = _integer(row[1], f"mpc.branch row {k}: T_BUS")
        if f not in known or t not in known:
            raise NetworkError(f"branch {f}-{t} references an unknown bus")
        # RATE_A 0 (or below) means unrated; a NaN rating reaches validate
        rate = None if row[5] <= 0 else row[5] / base
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
        bus_id = _integer(row[0], f"mpc.gen row {gi + 1}: GEN_BUS")
        if bus_id not in known:
            raise NetworkError(f"generator references unknown bus {bus_id}")
        if _integer(row[7], f"mpc.gen row {gi + 1}: GEN_STATUS") == 0:
            continue
        if bus_id in gen_by_bus:
            raise NetworkError(f"multiple generators at bus {bus_id}")
        cost_p = 0.0
        if gencost:
            crow = gencost[gi]
            if len(crow) < 4 or (
                _integer(crow[0], f"mpc.gencost row {gi + 1}: MODEL") != 2
                or _integer(crow[3], f"mpc.gencost row {gi + 1}: NCOST") != 2
            ):
                raise NetworkError(
                    f"gencost row {gi + 1}: only linear costs "
                    "(MODEL=2, NCOST=2) are supported"
                )
            if len(crow) < 6:
                raise NetworkError(
                    f"gencost row {gi + 1}: NCOST=2 needs 2 coefficients, got {len(crow) - 4}"
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
        b._replace(gen=gen_by_bus[b.id]) if b.id in gen_by_bus else b for b in buses
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
    require_valid(net, "invalid case data")
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
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise NetworkError(f"invalid JSON network: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "radialopf-network-v1":
        raise NetworkError("not a radialopf network document")
    try:
        buses = tuple(
            Bus(
                id=json_int(b["id"], "id"),
                gen=_generator(b["gen"]) if b.get("gen") else None,
                **_numbers(b, "p_load", "q_load", "v_min", "v_max"),
            )
            for b in doc["buses"]
        )
        branches = tuple(
            Branch(
                from_bus=json_int(br["from"], "from"), to_bus=json_int(br["to"], "to"),
                i_max=None if br["i_max"] is None else json_number(br["i_max"], "i_max"),
                **_numbers(br, "r", "x"),
            )
            for br in doc["branches"]
        )
        return Network(
            buses=buses, branches=branches, slack=json_int(doc["slack"], "slack"),
            **_numbers(doc, "base_power", "base_voltage", "v0"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise schema_error("network JSON", exc) from exc


def schema_error(document: str, exc: Exception) -> NetworkError:
    """Data error for a JSON document that does not fit its schema."""
    if isinstance(exc, KeyError):
        return NetworkError(f"{document}: missing key {exc.args[0]!r}")
    return NetworkError(f"{document}: {exc}")


def json_number(value, name: str) -> float:
    """A JSON number field as a float, infinite for an integer beyond the
    floats as for a float literal (which ``validate`` rejects); TypeError
    for anything else (strings, null, booleans, lists)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def json_int(value, name: str) -> int:
    """A JSON integer field; TypeError for anything else."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def json_pair(value, name: str) -> tuple[float, float]:
    """A JSON list of exactly two numbers as a float pair."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{name} must be a list of two numbers, got {value!r}")
    return json_number(value[0], name), json_number(value[1], name)


def _numbers(record: dict, *keys: str) -> dict[str, float]:
    return {k: json_number(record[k], k) for k in keys}


def _generator(record) -> Generator:
    if not isinstance(record, dict):
        raise TypeError(f"gen must be an object, got {record!r}")
    return Generator(**_numbers(record, *record))


# ---------------------------------------------------------------------------
# Feeder duplication
# ---------------------------------------------------------------------------

# a scaled value that overflows is infinite, which ``validate`` rejects
@np.errstate(over="ignore")
def duplicate_system(net: Network, copies: int, seed: int = 0, scale_lo: float = 0.7,
                     scale_hi: float = 1.3) -> Network:
    """Attach ``copies`` randomized replicas of the feeder to a common slack.

    Every copy keeps the feeder topology; its branch impedances get one
    uniform factor per branch (applied to r and x together) and its loads one
    factor per bus (applied to P and Q together), drawn from [scale_lo,
    scale_hi] with numpy's PCG64 generator seeded by ``seed``. The copies'
    slack buses merge into the single new slack, whose generator capacity is
    scaled by ``copies``. Bus count of the result is copies * (n_bus - 1) + 1.
    Raises ``NetworkError`` unless ``copies >= 1``, ``seed >= 0`` and
    ``0 < scale_lo <= scale_hi`` with both bounds finite, and unless numpy
    can address the copies' factors in one float array.
    """
    if copies < 1:
        raise NetworkError(f"copies must be >= 1, got {copies}")
    most = np.iinfo(np.intp).max // 8 // max(net.n_bus - 1 + len(net.branches), 1)
    if copies > most:
        raise NetworkError(f"copies must be at most {most} for this feeder, got {copies}")
    if seed < 0:
        raise NetworkError(f"seed must be >= 0, got {seed}")
    if not (0 < scale_lo <= scale_hi < math.inf):
        raise NetworkError(f"bad scale_range ({scale_lo}, {scale_hi}): "
                           "need 0 < lo <= hi, both finite")
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
    n, m = len(nonslack), len(net.branches)
    # bus ids of copy c are 2 + c * n + (position in nonslack), the slack's 1
    local = {b.id: i for i, b in enumerate(nonslack)}
    local[net.slack] = -1
    ends = np.array([[local[br.from_bus], local[br.to_bus]] for br in net.branches],
                    dtype=int).reshape(-1, 2)
    ends = np.where(ends < 0, 1, ends + 2 + n * np.arange(copies)[:, None, None])
    _, p_load, q_load, v_min, v_max, gens = _transposed(nonslack, len(Bus._fields))
    _, _, r, x, i_max = _transposed(net.branches, len(Branch._fields))
    # per copy, the load factors then the impedance factors: one PCG64 stream
    factors = np.random.default_rng(seed).uniform(scale_lo, scale_hi, size=(copies, n + m))
    load_f, imp_f = factors[:, :n], factors[:, n:]

    def scaled(values, factor):
        return (np.array(values, dtype=float) * factor).ravel().tolist()

    buses = map(Bus, range(2, 2 + copies * n), scaled(p_load, load_f), scaled(q_load, load_f),
                v_min * copies, v_max * copies, gens * copies)
    branches = map(Branch, ends[..., 0].ravel().tolist(), ends[..., 1].ravel().tolist(),
                   scaled(r, imp_f), scaled(x, imp_f), i_max * copies)
    return replace(net, buses=(new_slack, *buses), branches=tuple(branches), slack=1)


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
    buses[pos[bus_id]] = buses[pos[bus_id]]._replace(gen=gen)
    return replace(net, buses=tuple(buses))


def with_slack_costs(net: Network, cost_p: float | None = None,
                     cost_q: float | None = None) -> Network:
    """Set the supply-point prices that are not None, creating a wide-capacity
    generator (costs 0) if absent; with neither price, return ``net``."""
    prices = {k: v for k, v in (("cost_p", cost_p), ("cost_q", cost_q)) if v is not None}
    if not prices:
        return net
    g = net.bus(net.slack).gen
    if g is None:
        total_p = sum(b.p_load for b in net.buses)
        total_q = sum(abs(b.q_load) for b in net.buses)
        g = Generator(0.0, 10.0 * total_p + 10.0, -10.0 * total_q - 10.0,
                      10.0 * total_q + 10.0)
    return with_generator(net, net.slack, replace(g, **prices))


def with_load(net: Network, bus_id: int, p_load: float, q_load: float) -> Network:
    pos = bus_positions(net)
    buses = list(net.buses)
    buses[pos[bus_id]] = buses[pos[bus_id]]._replace(p_load=p_load, q_load=q_load)
    return replace(net, buses=tuple(buses))


def scale_loads(net: Network, factor: float) -> Network:
    buses = tuple(
        b._replace(p_load=b.p_load * factor, q_load=b.q_load * factor)
        for b in net.buses
    )
    return replace(net, buses=buses)


def scale_impedance(net: Network, factor: float) -> Network:
    branches = tuple(
        br._replace(r=br.r * factor, x=br.x * factor) for br in net.branches
    )
    return replace(net, branches=branches)


def with_voltage_limits(net: Network, v_min: float | None = None,
                        v_max: float | None = None) -> Network:
    """Set every bus's voltage limits that are not None; the others stay."""
    limits = {k: v for k, v in (("v_min", v_min), ("v_max", v_max)) if v is not None}
    return replace(net, buses=tuple(b._replace(**limits) for b in net.buses))


def strip_thermal_limits(net: Network) -> Network:
    branches = tuple(br._replace(i_max=None) for br in net.branches)
    return replace(net, branches=branches)


def net_injections(
    net: Network,
    pg: dict[int, float] | None = None,
    qg: dict[int, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed net injections (generation minus load) per non-slack bus, in
    tree order (``tree_positions`` without the slack). ``pg``/``qg`` map bus
    id -> dispatched output (pu)."""
    pos, cols = tree_positions(net), columns(net)
    out = []
    for gen, load in ((pg, cols.p_load[1:]), (qg, cols.q_load[1:])):
        g = np.zeros(load.size)
        for b, value in (gen or {}).items():
            if pos.get(b, 0) > 0:  # the slack's output is not an injection here
                g[pos[b] - 1] = value
        out.append(g - load)
    return out[0], out[1]
