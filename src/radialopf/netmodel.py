"""Network data model for radial distribution feeders.

Holds the immutable grid description, the feeder's tree order with the
factored branch-parent incidence that the closed-form power-flow, OPF and
pricing code use for path sums, a MATPOWER-subset case reader, a native
JSON format, and feeder duplication for large-system synthesis.

A ``Network`` is its columns: one read-only ``Columns`` in record order
(``Network.records``: bus field i is the i-th bus of the case file or
document, branch field j its j-th branch), the slack's bus id and the
per-unit bases, as MATPOWER stores a case. The readers, the overlays,
``validate`` and ``duplicate_system`` read and write those arrays; none
makes an object per bus or per branch. ``Generator`` is the value that
``with_generator`` takes, and a scenario's DG. The tree order comes from
one compiled depth-first search from the slack over the buses ranked by id
(``scipy.sparse.csgraph.depth_first_order``), and ``columns`` holds the
same numbers in that array order for every later stage. Each view derived
from a network is memoized on the instance (``per_network``).

The paper writes every branch flow and voltage drop through the path matrix
T, whose entry (i, k) is 1 when branch i lies on the path from bus k to the
slack. T is the inverse of the unit upper-triangular branch-parent
incidence I - A, so no module forms T: each product with T or T' is one
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
    the slack (``tree_positions``). ``Network.records`` is storage: outside
    this module only ``acpf``'s branch sums and the ``pf`` report's rows
    follow its order.
"""
from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path
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


@dataclass(frozen=True, eq=False)
class Columns:
    """A network's numbers as read-only arrays, one per field. In
    ``Network.records`` they are in record order; in ``columns(net)`` they
    are in array order: a bus field holds the slack at 0, then the buses of
    ``path_incidence(net).order``, and branch field k is the branch into
    ``order[k]``. ``gen`` marks the buses with a generator; the generator
    fields (``p_min`` to ``cost_q``) are NaN at the others. ``rated`` marks
    the branches with a current limit; ``i_max`` is NaN at the others.
    Each field is converted to its dtype: integer ids, boolean marks,
    floats for the rest.
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
        for name, value in list(vars(self).items()):
            kind = (int if name in ("bus_id", "from_bus", "to_bus")
                    else bool if name in ("gen", "rated") else float)
            arr = np.asarray(value, dtype=kind)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


_BRANCH = frozenset(("from_bus", "to_bus", "r", "x", "i_max", "rated"))
_GEN = tuple(f.name for f in fields(Generator))


@dataclass(frozen=True, eq=False)
class Network:
    """A feeder: its numbers in record order, the slack's bus id and the
    per-unit bases. Networks compare by identity, as their arrays would not
    compare to one truth value."""

    records: Columns
    slack: int
    base_power: float = 10.0
    base_voltage: float = 12.66
    v0: float = 1.0

    @property
    def n_bus(self) -> int:
        return self.records.bus_id.size


@dataclass(frozen=True)
class PathIncidence:
    """Tree order of a rooted radial network and its path sums.

    Branch row i is the branch whose child bus is ``order[i]``.
    ``parent_pos[i]`` is the position of the parent of ``order[i]`` within
    ``order`` (-1 when the parent is the slack), and ``r``/``x``/``i_max`` are
    the branch parameters aligned to rows (``i_max`` is NaN where the branch
    is unlimited), the arrays of ``columns(net)``. ``feeder[i]`` numbers the
    feeder of row i (the subtree under a child of the slack; feeders meet
    only there) 0, 1, ... in preorder, a run of rows each. All are read-only.

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
    feeder: np.ndarray

    @property
    def n(self) -> int:
        return len(self.order)


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
def columns(net: Network) -> Columns:
    """``net``'s numbers in array order (see ``Columns``): one gather of
    ``net.records``, memoized on the instance."""
    tree = _root_tree(net)
    return Columns(**{name: c[tree.branch_of if name in _BRANCH else tree.at]
                      for name, c in vars(net.records).items()})


@per_network
def tree_positions(net: Network) -> dict[int, int]:
    """Map bus id -> array position: the slack at 0, then the non-slack buses
    in ``path_incidence(net).order`` at 1..n. Iterating the map yields
    the bus ids in that order. Memoized on the instance."""
    return {b: k for k, b in enumerate((net.slack, *_root_tree(net).order))}


class _Tree(NamedTuple):
    order: tuple[int, ...]  # non-slack bus ids in preorder
    at: np.ndarray  # record position of the slack, then of each bus in ``order``
    branch_of: np.ndarray  # record position of each bus's parent branch
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
    cols = net.records
    n, m = cols.bus_id.size, cols.from_bus.size
    ends = np.stack([cols.from_bus, cols.to_bus]).reshape(2, m)
    unknown = np.flatnonzero(~np.isin(ends, cols.bus_id).all(axis=0))
    if unknown.size:
        f, t = ends[:, unknown[0]].tolist()
        raise NetworkError(f"branch {f}-{t} references an unknown bus")
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
    flipped = _flipped(net)
    if not flipped.any():
        return net
    c = net.records
    return _with(net, from_bus=np.where(flipped, c.to_bus, c.from_bus),
                 to_bus=np.where(flipped, c.from_bus, c.to_bus))


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
    # one-column supernodes: the factor stores I - A and L's unit diagonal only;
    # one-column panels give the same factor without the default 10-column
    # panel workspace
    t = spla.splu(i_minus_a, permc_spec="NATURAL", diag_pivot_thresh=0, relax=1,
                  panel_size=1)
    feeder = np.cumsum(parent < 0) - 1  # a row whose parent is the slack starts a feeder
    feeder.setflags(write=False)
    return PathIncidence(tree.order, t, parent, cols.r, cols.x, cols.i_max, feeder)


def leaves_first_solve(m: sp.csc_matrix, b: np.ndarray, error: type[Exception], what: str,
                       trans: str = "N") -> tuple[spla.SuperLU, np.ndarray]:
    """SuperLU's factor of ``m`` (a tree's rows and columns, leaves first) in
    that order with no pivoting, and its solve y of m y = ``b`` (m' y = b
    with ``trans`` "T"). Each child is eliminated before its parent, so the
    factor is each feeder's. As nothing pivots, the solve is checked: raises
    ``error`` "singular ``what``" at a zero pivot or a non-finite y, and
    "ill-conditioned ``what``" when the residual exceeds 1e-8 max(1, |y|)."""
    try:
        lu = spla.splu(m, permc_spec="NATURAL", diag_pivot_thresh=0, relax=2, panel_size=2)
    except RuntimeError as exc:
        raise error(f"singular {what}: {exc}") from exc
    y = lu.solve(b, trans=trans)
    if not np.all(np.isfinite(y)):
        raise error(f"singular {what}: non-finite solution")
    resid = np.max(np.abs((m.T if trans == "T" else m) @ y - b), initial=0.0)
    if resid > 1e-8 * max(1.0, np.max(np.abs(y), initial=0.0)):
        raise error(f"ill-conditioned {what}: solve residual {resid:.3e}")
    return lu, y


# one template per check, in the order of their columns in ``validate``
_BUS_CHECKS = (
    "bus {bus_id}: non-finite load or voltage limit",
    "bus {bus_id}: negative load",
    "bus {bus_id}: v_min must be positive",
    "bus {bus_id}: v_min {v_min} not below v_max {v_max}",
    "bus {bus_id}: non-finite generator data",
    "bus {bus_id}: generator bounds out of order",
    "bus {bus_id}: negative generator cost",
)
_BRANCH_CHECKS = (
    "branch {from_bus}-{to_bus}: unknown endpoint",
    "branch {from_bus}-{to_bus}: non-finite impedance",
    "branch {from_bus}-{to_bus}: negative impedance",
    "branch {from_bus}-{to_bus}: resistance and reactance both zero",
    "branch {from_bus}-{to_bus}: current limit {i_max} is not positive and finite",
)


def _messages(failed: np.ndarray, templates, **named: np.ndarray) -> list[str]:
    """One message per failed check (``failed[i, k]``: record i, template k),
    record by record; only the flagged records' ``named`` values are read."""
    return [templates[k].format(**{name: col[i].item() for name, col in named.items()})
            for i, k in zip(*np.nonzero(failed))]


def validate(net: Network) -> list[str]:
    """Check the network invariants; returns one message per violation.

    Each check is one array comparison over ``net.records``; only the
    records that fail a check are read, to write their messages.
    """
    out: list[str] = []
    c = net.records
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
    out += _messages(np.column_stack([
        ~(finite(c.p_load) & finite(c.q_load) & finite(c.v_min) & finite(c.v_max)),
        (c.p_load < 0) | (c.q_load < 0),
        c.v_min <= 0,
        ~(c.v_min < c.v_max),
        c.gen & ~finite([c.p_min, c.p_max, c.q_min, c.q_max, c.cost_p, c.cost_q]).all(axis=0),
        c.gen & ((c.p_min > c.p_max) | (c.q_min > c.q_max)),
        c.gen & ((c.cost_p < 0) | (c.cost_q < 0)),
    ]).reshape(-1, len(_BUS_CHECKS)), _BUS_CHECKS, bus_id=c.bus_id, v_min=c.v_min,
        v_max=c.v_max)
    known = np.isin(c.from_bus, c.bus_id) & np.isin(c.to_bus, c.bus_id)
    # an unknown endpoint is the branch's one message
    out += _messages(np.column_stack([
        ~known,
        known & ~(finite(c.r) & finite(c.x)),
        known & ((c.r < 0) | (c.x < 0)),
        known & (c.r == 0) & (c.x == 0),
        known & c.rated & ~((0 < c.i_max) & (c.i_max < math.inf)),
    ]).reshape(-1, len(_BRANCH_CHECKS)), _BRANCH_CHECKS, from_bus=c.from_bus,
        to_bus=c.to_bus, i_max=c.i_max)
    if not out:
        try:
            flipped = _flipped(net)
        except NetworkError as exc:
            out.append(str(exc))
            return out
        out += [f"branch {f}-{t}: not oriented parent to child"
                for f, t in zip(c.from_bus[flipped].tolist(), c.to_bus[flipped].tolist())]
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
    column) unless it is finite, integral and fits in 64 bits."""
    if not value.is_integer():
        raise NetworkError(f"{where} must be an integer, got {value}")
    if not -2 ** 63 <= value < 2 ** 63:
        raise NetworkError(f"{where} must fit in 64 bits, got {value}")
    return int(value)


def _table(rows: list[list[float]], width: int) -> np.ndarray:
    """The first ``width`` columns of a matrix's checked rows, as floats."""
    return np.array([row[:width] for row in rows], dtype=float).reshape(-1, width)


def require_valid(net: Network, what: str) -> None:
    """Raise ``NetworkError`` starting with ``what`` when ``validate`` finds
    violations: all of them on one line when there are at most five, else
    the first five and their count."""
    problems = validate(net)
    if problems:
        more = f" (first 5 of {len(problems)} violations)" if len(problems) > 5 else ""
        raise NetworkError(f"{what}: " + "; ".join(problems[:5]) + more)


# a per-unit value that overflows is infinite, which ``validate`` rejects
@np.errstate(over="ignore")
def parse_matpower_case(text: str) -> Network:
    """Parse the MATPOWER-subset case format into a per-unit Network. Each
    row is checked in file order; the columns are then read as arrays."""
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
    if len(slack_ids) != 1:
        raise NetworkError(
            f"expected exactly one slack (type 3) bus, found {len(slack_ids)}"
        )
    bus = _table(mats["bus"], 13)
    ids = bus[:, 0].astype(int)
    known = {b: i for i, b in enumerate(ids.tolist())}  # bus id -> record position
    # the tree search reports duplicate ids and unknown branch ends
    for k, row in enumerate(mats["branch"], 1):
        if len(row) < 6:
            raise NetworkError(f"branch row needs 6 columns, got {len(row)}: {row}")
        _integer(row[0], f"mpc.branch row {k}: F_BUS")
        _integer(row[1], f"mpc.branch row {k}: T_BUS")
    branch = _table(mats["branch"], 6)

    gens = mats.get("gen", [])
    gencost = mats.get("gencost", [])
    if gencost and len(gencost) != len(gens):
        raise NetworkError(
            f"gencost has {len(gencost)} rows for {len(gens)} generators"
        )
    in_service: dict[int, int] = {}  # record position of the bus -> gen row
    cost_p = np.zeros(len(gens))
    for gi, row in enumerate(gens):
        if len(row) < 10:
            raise NetworkError(f"gen row needs 10 columns, got {len(row)}: {row}")
        bus_id = _integer(row[0], f"mpc.gen row {gi + 1}: GEN_BUS")
        if bus_id not in known:
            raise NetworkError(f"generator references unknown bus {bus_id}")
        if _integer(row[7], f"mpc.gen row {gi + 1}: GEN_STATUS") == 0:
            continue
        if known[bus_id] in in_service:
            raise NetworkError(f"multiple generators at bus {bus_id}")
        in_service[known[bus_id]] = gi
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
            cost_p[gi] = crow[4]
    at, rows = list(in_service), list(in_service.values())
    gen = _table(gens, 10)[rows]
    has_gen = np.zeros(ids.size, dtype=bool)
    has_gen[at] = True
    gen_cols = np.full((6, ids.size), np.nan)  # p_min, p_max, q_min, q_max, cost_p, cost_q
    gen_cols[:, at] = [gen[:, 9] / base, gen[:, 8] / base, gen[:, 4] / base, gen[:, 3] / base,
                       cost_p[rows], np.zeros(len(rows))]
    rate = branch[:, 5]
    rated = ~(rate <= 0)  # RATE_A 0 (or below) means unrated; a NaN rating reaches validate
    net = Network(
        Columns(ids, bus[:, 2] / base, bus[:, 3] / base, bus[:, 12], bus[:, 11], has_gen,
                *gen_cols, branch[:, 0].astype(int), branch[:, 1].astype(int), branch[:, 2],
                branch[:, 3], np.where(rated, rate / base, np.nan), rated),
        slack=slack_ids[0],
        base_power=base,
        base_voltage=base_kv if base_kv else 1.0,
        v0=v0,
    )
    net = normalize_orientation(net)
    require_valid(net, "invalid case data")
    return net


def read_text(path: Path) -> str:
    """An input file's text; ``NetworkError`` when it cannot be read as UTF-8."""
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise NetworkError(f"cannot read {path}: {exc}") from exc


def load_case(path) -> Network:
    """A case file's validated network: JSON for a ``.json`` path, else MATPOWER."""
    path = Path(path)
    text = read_text(path)
    if path.suffix == ".json":
        net = from_json(text)
        require_valid(net, "invalid network")
        return net
    return parse_matpower_case(text)


# ---------------------------------------------------------------------------
# Native JSON format
# ---------------------------------------------------------------------------

def to_json(net: Network) -> str:
    """The network document: its buses and branches in record order."""
    c = net.records
    gens = zip(*(getattr(c, k).tolist() for k in _GEN))
    buses = [
        {"id": i, "p_load": p, "q_load": q, "v_min": lo, "v_max": hi,
         "gen": dict(zip(_GEN, g)) if has else None}
        for i, p, q, lo, hi, has, g in zip(c.bus_id.tolist(), c.p_load.tolist(),
                                           c.q_load.tolist(), c.v_min.tolist(),
                                           c.v_max.tolist(), c.gen.tolist(), gens)
    ]
    branches = [
        {"from": f, "to": t, "r": r, "x": x, "i_max": i_max if rated else None}
        for f, t, r, x, i_max, rated in zip(c.from_bus.tolist(), c.to_bus.tolist(),
                                            c.r.tolist(), c.x.tolist(), c.i_max.tolist(),
                                            c.rated.tolist())
    ]
    doc = {
        "format": "radialopf-network-v1",
        "slack": net.slack,
        "base_power": net.base_power,
        "base_voltage": net.base_voltage,
        "v0": net.v0,
        "buses": buses,
        "branches": branches,
    }
    return json.dumps(doc, indent=1, sort_keys=True)


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


def json_fields(record, readers: dict, required: tuple[str, ...], name: str) -> dict:
    """The fields that a JSON object's keys set through ``readers`` (key ->
    reader(value, key) -> fields); a null value sets nothing, a required key
    must be given and not null, and any other key is an error. The one
    schema reader of the network and scenario documents."""
    if not isinstance(record, dict):
        raise TypeError(f"{name} must be an object, got {record!r}")
    for key in required:
        if record.get(key) is None:
            raise KeyError(key)
    out = {}
    for key, value in record.items():
        if key not in readers:
            raise ValueError(f"unknown key {key!r}")
        if value is not None:
            out.update(readers[key](value, key))
    return out


def json_field(field: str, convert):
    """Reader of one JSON key that sets ``field`` to ``convert(value, key)``."""
    return lambda value, key: {field: convert(value, key)}


def json_of_type(kind: type, what: str):
    """Converter that passes a value of ``kind`` and rejects any other."""
    def read(value, key):
        if not isinstance(value, kind):
            raise TypeError(f"{key} must be {what}, got {value!r}")
        return value
    return read


def _json_id(value, name: str) -> int:
    """A bus id in a network document: a JSON integer that fits in 64 bits."""
    value = json_int(value, name)
    if not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(f"{name} must fit in 64 bits, got {value}")
    return value


def _json_rows(readers: dict, required: tuple[str, ...], name: str):
    """Reader of a JSON list of objects, each read by ``json_fields``."""
    def read(value, key):
        rows = json_of_type(list, "a list")(value, key)
        return {key: [json_fields(row, readers, required, name) for row in rows]}
    return read


_GEN_KEYS = {k: json_field(k, json_number) for k in _GEN}
_BUS_KEYS = {
    "id": json_field("bus_id", _json_id),
    **{k: json_field(k, json_number) for k in ("p_load", "q_load", "v_min", "v_max")},
    "gen": lambda value, key: {"gen": True, **json_fields(value, _GEN_KEYS, _GEN, key)},
}
_BRANCH_KEYS = {
    "from": json_field("from_bus", _json_id),
    "to": json_field("to_bus", _json_id),
    "r": json_field("r", json_number),
    "x": json_field("x", json_number),
    "i_max": lambda value, key: {"rated": True, "i_max": json_number(value, key)},
}
_NETWORK_KEYS = {
    "format": lambda value, key: {},  # checked before the schema
    "slack": json_field("slack", json_int),
    **{k: json_field(k, json_number) for k in ("base_power", "base_voltage", "v0")},
    "buses": _json_rows(_BUS_KEYS, ("id", "p_load", "q_load", "v_min", "v_max"), "bus"),
    "branches": _json_rows(_BRANCH_KEYS, ("from", "to", "r", "x"), "branch"),
}


def from_json(text: str) -> Network:
    """Read a network document. Every key is required but a bus's ``gen``
    and a branch's ``i_max`` (null or absent: none); an unknown key, a
    wrongly typed value or an id beyond 64 bits is a ``NetworkError``."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise NetworkError(f"invalid JSON network: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "radialopf-network-v1":
        raise NetworkError("not a radialopf network document")
    try:
        top = json_fields(doc, _NETWORK_KEYS, tuple(_NETWORK_KEYS), "network")
    except (KeyError, TypeError, ValueError) as exc:
        raise schema_error("network JSON", exc) from exc
    buses, branches = top.pop("buses"), top.pop("branches")
    # a field a row leaves out is None: NaN in a number column, False in a mark
    return Network(Columns(**{
        name: [row.get(name) for row in (branches if name in _BRANCH else buses)]
        for name in Columns.__dataclass_fields__
    }), **top)


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
    The copies' columns are the feeder's, tiled. Raises ``NetworkError``
    unless ``copies >= 1``, ``seed >= 0`` and ``0 < scale_lo <= scale_hi``
    with both bounds finite, and unless numpy can address the copies'
    factors in one float array.
    """
    c = net.records
    if copies < 1:
        raise NetworkError(f"copies must be >= 1, got {copies}")
    most = np.iinfo(np.intp).max // 8 // max(net.n_bus - 1 + c.from_bus.size, 1)
    if copies > most:
        raise NetworkError(f"copies must be at most {most} for this feeder, got {copies}")
    if seed < 0:
        raise NetworkError(f"seed must be >= 0, got {seed}")
    if not (0 < scale_lo <= scale_hi < math.inf):
        raise NetworkError(f"bad scale_range ({scale_lo}, {scale_hi}): "
                           "need 0 < lo <= hi, both finite")
    s = _position(net, net.slack)
    keep = np.flatnonzero(c.bus_id != net.slack)  # the non-slack records, in order
    n, m = keep.size, c.from_bus.size
    # bus ids of copy c are 2 + c * n + (position in ``keep``), the slack's 1
    rank = np.argsort(c.bus_id)
    ends = rank[np.searchsorted(c.bus_id, np.stack([c.from_bus, c.to_bus]), sorter=rank)]
    ends = np.where(ends == s, 1, ends - (ends > s) + 2 + n * np.arange(copies)[:, None, None])
    # per copy, the load factors then the impedance factors: one PCG64 stream
    factors = np.random.default_rng(seed).uniform(scale_lo, scale_hi, size=(copies, n + m))
    load_f, imp_f = factors[:, :n], factors[:, n:]

    def tiled(col):  # the slack's value, then the non-slack values per copy
        return np.concatenate([col[s:s + 1], np.tile(col[keep], copies)])

    gen = {k: tiled(getattr(c, k)) for k in _GEN}
    for k in ("p_min", "p_max", "q_min", "q_max"):  # the slack's capacity, copies times
        gen[k][0] *= copies
    return replace(net, slack=1, records=Columns(
        bus_id=np.arange(1, 2 + copies * n),
        p_load=np.concatenate([c.p_load[s:s + 1] * copies, (c.p_load[keep] * load_f).ravel()]),
        q_load=np.concatenate([c.q_load[s:s + 1] * copies, (c.q_load[keep] * load_f).ravel()]),
        v_min=tiled(c.v_min), v_max=tiled(c.v_max), gen=tiled(c.gen), **gen,
        from_bus=ends[:, 0].ravel(), to_bus=ends[:, 1].ravel(),
        r=(c.r * imp_f).ravel(), x=(c.x * imp_f).ravel(),
        i_max=np.tile(c.i_max, copies), rated=np.tile(c.rated, copies),
    ))


# ---------------------------------------------------------------------------
# Overlay helpers (used by scenarios and tests)
# ---------------------------------------------------------------------------

def _with(net: Network, **changed: np.ndarray) -> Network:
    """A new network: ``net`` with the named record-order columns replaced."""
    return replace(net, records=replace(net.records, **changed))


def _position(net: Network, bus_id: int) -> int:
    """The record position of bus ``bus_id``."""
    hit = np.flatnonzero(net.records.bus_id == bus_id)
    if not hit.size:
        raise NetworkError(f"no bus {bus_id} in network")
    return int(hit[-1])


def _set(col: np.ndarray, at: int, value) -> np.ndarray:
    """A copy of ``col`` with ``value`` at position ``at``."""
    out = col.copy()
    out[at] = value
    return out


def with_slack_voltage(net: Network, v0: float) -> Network:
    return replace(net, v0=v0)


def with_generator(net: Network, bus_id: int, gen: Generator | None) -> Network:
    i, c = _position(net, bus_id), net.records
    values = dict.fromkeys(_GEN, math.nan) if gen is None else vars(gen)
    return _with(net, gen=_set(c.gen, i, gen is not None),
                 **{k: _set(getattr(c, k), i, values[k]) for k in _GEN})


def with_slack_costs(net: Network, cost_p: float | None = None,
                     cost_q: float | None = None) -> Network:
    """Set the supply-point prices that are not None, creating a wide-capacity
    generator (costs 0) if absent; with neither price, return ``net``."""
    prices = {k: v for k, v in (("cost_p", cost_p), ("cost_q", cost_q)) if v is not None}
    if not prices:
        return net
    i, c = _position(net, net.slack), net.records
    if c.gen[i]:
        g = Generator(*(getattr(c, k)[i].item() for k in _GEN))
    else:  # sums in record order
        total_p = sum(c.p_load.tolist())
        total_q = sum(np.abs(c.q_load).tolist())
        g = Generator(0.0, 10.0 * total_p + 10.0, -10.0 * total_q - 10.0,
                      10.0 * total_q + 10.0)
    return with_generator(net, net.slack, replace(g, **prices))


def with_load(net: Network, bus_id: int, p_load: float, q_load: float) -> Network:
    i, c = _position(net, bus_id), net.records
    return _with(net, p_load=_set(c.p_load, i, p_load), q_load=_set(c.q_load, i, q_load))


# a scaled value that overflows is infinite, and 0 * inf is NaN, as with
# Python floats; ``validate`` rejects both
@np.errstate(over="ignore", invalid="ignore")
def scale_loads(net: Network, factor: float) -> Network:
    c = net.records
    return _with(net, p_load=c.p_load * factor, q_load=c.q_load * factor)


@np.errstate(over="ignore", invalid="ignore")
def scale_impedance(net: Network, factor: float) -> Network:
    c = net.records
    return _with(net, r=c.r * factor, x=c.x * factor)


def with_voltage_limits(net: Network, v_min: float | None = None,
                        v_max: float | None = None) -> Network:
    """Set every bus's voltage limits that are not None; the others stay."""
    limits = {k: v for k, v in (("v_min", v_min), ("v_max", v_max)) if v is not None}
    return _with(net, **{k: np.full(net.n_bus, v, dtype=float) for k, v in limits.items()})


def strip_thermal_limits(net: Network) -> Network:
    m = net.records.from_bus.size
    return _with(net, i_max=np.full(m, np.nan), rated=np.zeros(m, dtype=bool))


def net_injections(
    net: Network, pg: np.ndarray | None = None, qg: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed net injections (generation minus load) per non-slack bus, in
    tree order (``columns(net)`` without the slack). ``pg``/``qg`` are the
    dispatched outputs (pu) of the buses that ``columns(net).gen`` marks, in
    that order, the slack first (``mdopf.var_blocks(net).gens``); the
    slack's output is not an injection here. Without them, no bus generates."""
    cols = columns(net)
    gen = np.zeros((2, cols.gen.size))
    if pg is not None:
        gen[:, cols.gen] = pg, qg
    inj = gen[:, 1:] - [cols.p_load[1:], cols.q_load[1:]]
    return inj[0], inj[1]
