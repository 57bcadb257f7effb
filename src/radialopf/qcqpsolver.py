"""Primal-dual interior-point solver for convex QCQPs.

Handles problems of the form

    minimize    x' H x + g' x + c
    subject to  A_eq x  = b_eq
                A_in x <= b_in
                sum_i (c_i + M_i x)^2 <= b_k      (rows i = k mod n_quad)

with a Mehrotra predictor-corrector iteration; everything is deterministic
for fixed inputs. One path serves every problem shape: a block with no
rows passes through the same arithmetic, and the centring parameter is 0
when there are no inequality rows. So an equality-only QP iterates too, each
step leaving 0.5 % of its residuals. The KKT systems are statically
regularized, which makes them quasi-definite, and a quasi-definite matrix
has a stable LDL' factorization in every symmetric order (Vanderbei, SIAM J.
Optim. 1995). So every KKT matrix is factored by sparse LU in its own row
order (the variables, then the equality rows) with no pivoting, and each
solve takes one step of iterative refinement. A quadratic row is a sum of
squares, so it is convex, and its curvature enters the (1,1) block as the
rows of M stacked under J. That block is block diagonal over the components
of variables that H and the inequality rows couple; each iteration forms one
dense block per component, and the pattern, built once per solve, never
moves, so each iteration writes only the values.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

if TYPE_CHECKING:
    from .mdopf import ConvexityCertificate


class SolverError(RuntimeError):
    """Raised on non-convex input or numerical failure of the iteration."""


#: static regularization of the KKT matrix (makes it quasi-definite)
REGULARIZATION = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    tol_gap: float = 1e-8
    tol_feas: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        if self.tol_gap <= 0 or self.tol_feas <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class SolveStats:
    """``final_gap`` and ``final_feas`` are the measures that the stop test
    compares with ``tol_gap`` and ``tol_feas``, at the last iterate."""

    iterations: int
    final_gap: float
    final_feas: float
    runtime_seconds: float
    factor_seconds: float = 0.0


@dataclass(frozen=True)
class QcqpProblem:
    """Convex QCQP in standard form.

    Variables and rows carry no names: the builder's layout states what each
    index means (for the OPF, ``mdopf.VarBlocks`` and the row blocks that
    ``mdopf.build`` states). Quadratic row k is the sum of the squares of
    ``quad_c[i] + quad_m[i] @ x`` over the rows i = k (mod ``n_quad``), at
    most ``quad_b[k]``. ``certificate`` is the builder's convexity
    certificate of the exact cost quadratic, when it made one.
    At an optimal solution, -y for the multiplier y of an
    equality row is the objective's sensitivity to that row's right-hand
    side.
    """

    n_vars: int
    h: sp.csr_matrix
    g: np.ndarray
    c: float
    a_eq: sp.csr_matrix
    b_eq: np.ndarray
    a_in: sp.csr_matrix
    b_in: np.ndarray
    quad_m: sp.csr_matrix
    quad_c: np.ndarray
    quad_b: np.ndarray
    certificate: ConvexityCertificate | None = None

    @property
    def n_eq(self) -> int:
        return self.a_eq.shape[0]

    @property
    def n_in(self) -> int:
        return self.a_in.shape[0]

    @property
    def n_quad(self) -> int:
        return self.quad_b.shape[0]

    def objective_at(self, x: np.ndarray) -> float:
        return float(x @ (self.h @ x) + self.g @ x + self.c)


@dataclass(frozen=True)
class OpfSolution:
    x: np.ndarray
    objective_value: float
    status: str
    duals_eq: np.ndarray
    duals_in: np.ndarray
    duals_quad: np.ndarray
    stats: SolveStats
    pg: dict[int, float] | None = None
    qg: dict[int, float] | None = None


EigBlock = tuple[np.ndarray, np.ndarray, np.ndarray | None]


def support_eigh(h: sp.spmatrix | np.ndarray, vectors: bool = False) -> list[EigBlock]:
    """Eigendecomposition of the symmetric part of ``h`` restricted to its
    nonzero support, one block per connected component of the support's
    sparsity graph.

    The eigenpairs of a block-diagonal matrix are those of its blocks, so a
    quadratic that couples generators only within each feeder decomposes
    as its feeders' blocks, and blocks of one size as one stacked
    decomposition. Returns one (indices into ``h`` (k, s), eigenvalues in
    ascending order (k, s), eigenvectors as columns (k, s, s) or None unless
    ``vectors``) per block size s held by k blocks, and nothing for an
    all-zero ``h``.
    """
    hc = sp.csr_matrix(h)
    support = np.unique(np.concatenate(hc.nonzero()))
    if support.size == 0:
        return []
    sym = (0.5 * (hc + hc.T)).tocsr()[support][:, support].tocoo()
    n_comp, label = csgraph.connected_components(sym, directed=False)
    local = _rank_within(label, n_comp)  # each index's place in its block
    sizes, group = np.unique(np.bincount(label), return_inverse=True)
    rank = _rank_within(group, sizes.size)  # each block's place in its stack
    blocks = []
    for s, k, on, at in zip(sizes.tolist(), np.bincount(group).tolist(),
                            _split_by(group[label], sizes.size),
                            _split_by(group[label[sym.row]], sizes.size)):
        idx = np.empty((k, s), dtype=np.intp)
        idx[rank[label[on]], local[on]] = support[on]
        r, c = sym.row[at], sym.col[at]
        dense = np.zeros((k, s, s))
        dense[rank[label[r]], local[r], local[c]] = sym.data[at]
        if vectors:
            vals, vecs = np.linalg.eigh(dense)
        else:
            vals, vecs = np.linalg.eigvalsh(dense), None
        blocks.append((idx, vals, vecs))
    return blocks


def min_eigenvalue(blocks: list[EigBlock]) -> float:
    """Smallest eigenvalue over ``support_eigh`` blocks (0 when there are none)."""
    return min((float(vals[:, 0].min()) for _, vals, _ in blocks), default=0.0)


def psd_test(h: sp.spmatrix, blocks: list[EigBlock]) -> tuple[bool, float]:
    """Whether the symmetric ``h`` is positive semidefinite, and its smallest
    eigenvalue, from its ``support_eigh`` blocks: the smallest eigenvalue
    must be at least -1e-10 * max(1, max |H|)."""
    min_eig = min_eigenvalue(blocks)
    scale = max(1.0, float(abs(h).max())) if h.nnz else 1.0
    return min_eig >= -1e-10 * scale, min_eig


def _check_convex(p: QcqpProblem) -> None:
    psd, min_eig = psd_test(p.h, support_eigh(p.h))
    if not psd:
        raise SolverError(
            f"objective matrix is not positive semidefinite "
            f"(min eigenvalue {min_eig:.3e}); refusing non-convex input"
        )


def _rank_within(label: np.ndarray, n_label: int) -> np.ndarray:
    """Each element's position among the elements with its label, in index
    order."""
    order = np.argsort(label, kind="stable")
    counts = np.bincount(label, minlength=n_label)
    rank = np.empty(label.size, dtype=np.intp)
    rank[order] = np.arange(label.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return rank


def _split_by(label: np.ndarray, n_label: int) -> list[np.ndarray]:
    """The indices of the elements of each label, in index order."""
    order = np.argsort(label, kind="stable")
    return np.split(order, np.cumsum(np.bincount(label, minlength=n_label))[:-1])


class _Kkt:
    """The KKT matrices [[2H + J' D J + M' diag(2 z) M + delta I, A_eq'],
    [A_eq, -delta I]] of one problem (J the Jacobian of its inequality rows,
    z the multipliers of the quadratic rows that M's rows square into) and
    their factorizations; ``seconds`` sums the factorization wall time.

    Two variables are coupled when an entry of H or a row of J or M holds
    both, so the (1,1) block is block diagonal over the connected components
    of that coupling (for the OPF, its feeders), found once per solve. Each
    iteration forms each component's block 2H_c + K_c' W_c K_c (K_c its rows
    of J and M stacked) as one dense product, components of one shape in one
    stacked product, and writes it into the one CSC pattern that every
    matrix shares (each block's entries, A_eq, A_eq' and -delta I, zeros
    included). Each matrix is factored in that order with no pivoting: a
    quasi-definite matrix has a stable LDL' factorization in every symmetric
    order, but its solves can leave componentwise residuals far above
    round-off (5e-9 on the last KKT matrix of case69 x10), so each solve
    takes one step of iterative refinement (Gill, Saunders & Shinnerl, SIAM
    J. Matrix Anal. Appl. 1996). Equality rows that meet every variable
    belong last: the rows before them are eliminated without filling in
    across components.
    """

    def __init__(self, p: QcqpProblem, delta: float):
        n, self.seconds = p.n_vars, 0.0
        self.size = size = n + p.n_eq
        # quadratic row k's gradient row holds the union of its rows of M;
        # ``slot`` is each entry of M's place in the gradient rows
        m = self.m = p.quad_m.tocsr()
        self.c = p.quad_c
        self.m_row = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        quad = np.arange(m.shape[0]) % max(p.n_quad, 1)  # each row of M's quadratic row
        key, self.slot = np.unique(quad[self.m_row] * n + m.indices, return_inverse=True)
        grad = sp.csr_matrix((np.ones(key.size), np.divmod(key, n)), shape=(p.n_quad, n))
        self.jac = jac = sp.vstack([p.a_in.tocsr(), grad], format="csr")
        self.n_lin, self.z_at = jac.nnz - grad.nnz, p.n_in + quad
        stack = sp.vstack([jac, m], format="csr")
        h, a = p.h.tocoo(), p.a_eq.tocoo()
        a.sum_duplicates()
        # the variables and the rows of K as one graph, an edge per entry of
        # H or K (a gradient row's values move with x, its positions do not)
        rows_k = stack.shape[0]
        k_row = np.repeat(np.arange(rows_k), np.diff(stack.indptr))
        edges = sp.coo_matrix(
            (np.ones(h.nnz + stack.nnz),
             (np.concatenate([h.row, n + k_row]), np.concatenate([h.col, stack.indices]))),
            shape=(n + rows_k, n + rows_k))
        n_comp, label = csgraph.connected_components(edges, directed=False)
        # each node's place within its component, variables and rows apart
        local = np.concatenate([_rank_within(label[:n], n_comp), _rank_within(label[n:], n_comp)])
        size_v = np.bincount(label[:n], minlength=n_comp)
        size_r = np.bincount(label[n:], minlength=n_comp)
        # components of one shape stack; a row with no entries is a component
        # without variables and adds nothing
        shapes, group = np.unique(np.stack([size_v, size_r], axis=1), axis=0, return_inverse=True)
        group = group.ravel()
        rank = _rank_within(group, len(shapes))
        var_c, row_c = label[:n], label[n:]
        parts = [_split_by(group[c], len(shapes)) for c in (var_c, row_c, row_c[k_row], var_c[h.row])]
        self.groups, blocks = [], []
        for (v, r), in_v, in_r, src, hs in zip(shapes.tolist(), *parts):
            if v == 0:
                continue
            k = in_v.size // v
            var_idx = np.empty((k, v), dtype=np.intp)
            var_idx[rank[var_c[in_v]], local[in_v]] = in_v
            row_idx = np.empty((k, r), dtype=np.intp)
            row_idx[rank[row_c[in_r]], local[n + in_r]] = in_r
            dst = ((rank[row_c[k_row[src]]] * r + local[n + k_row[src]]) * v
                   + local[stack.indices[src]])
            kd = np.zeros((k, r, v))
            kd.reshape(-1)[dst] = stack.data[src]
            moving = (src >= self.n_lin) & (src < jac.nnz)  # the gradient rows' entries
            h_dst = (rank[var_c[h.row[hs]]] * v + local[h.row[hs]]) * v + local[h.col[hs]]
            h_block = np.bincount(h_dst, 2.0 * h.data[hs], minlength=k * v * v)
            self.groups.append((var_idx, row_idx, src[moving], dst[moving],
                                h_block.reshape(k, v, v), kd))
            blocks.append(var_idx)
        # the whole pattern: its entries are distinct, so each keeps its
        # number through scipy's conversion and so names its slot
        eq = np.arange(n, size)
        rows = np.concatenate([*(np.repeat(b, b.shape[1], axis=1).ravel() for b in blocks),
                               n + a.row, a.col, eq])
        cols = np.concatenate([*(np.tile(b, (1, b.shape[1])).ravel() for b in blocks),
                               a.col, n + a.row, eq])
        pattern = sp.csc_matrix((np.arange(1.0, rows.size + 1), (rows, cols)), (size, size))
        self.indices, self.indptr = pattern.indices, pattern.indptr
        slot = np.empty(rows.size, dtype=np.intp)
        slot[pattern.data.astype(np.intp) - 1] = np.arange(rows.size)
        n_block = rows.size - 2 * a.nnz - p.n_eq
        self.vary = slot[:n_block]
        self.data = np.zeros(rows.size)
        self.data[slot[n_block:]] = np.concatenate([a.data, a.data, np.full(p.n_eq, -delta)])

    def jacobian(self, x: np.ndarray) -> sp.csr_matrix:
        """J at ``x``: only the quadratic rows' gradients 2 M_k'(c_k + M_k x) change."""
        twice = 2.0 * (self.c + self.m @ x)
        self.jac.data[self.n_lin:] = np.bincount(self.slot, twice[self.m_row] * self.m.data)
        return self.jac

    def matrix(self, diag: float, d=None, z=None) -> sp.csc_matrix:
        """The KKT matrix with (1,1) block ``diag`` I, plus 2H + J' diag(``d``) J
        + M' diag(2 ``z``) M at the last ``jacobian`` when ``d`` and ``z`` are
        given. It overwrites the values of the matrix the previous call returned."""
        w = None if d is None else np.concatenate([d, 2.0 * z[self.z_at]])
        values = []
        for var_idx, row_idx, src, dst, h_block, kd in self.groups:
            v = var_idx.shape[1]
            if w is None:
                block = np.zeros(h_block.shape)
            else:
                kd.reshape(-1)[dst] = self.jac.data[src]  # the gradient rows at x
                block = h_block + np.matmul(kd.transpose(0, 2, 1), kd * w[row_idx][:, :, None])
            block[:, np.arange(v), np.arange(v)] += diag
            values.append(block.ravel())
        self.data[self.vary] = np.concatenate(values)
        return sp.csc_matrix((self.data, self.indices, self.indptr), (self.size, self.size))

    def factor(self, kkt: sp.csc_matrix, failure: str):
        """Factor ``kkt``, a matrix of ``matrix``; returns its solve function.
        Raises ``SolverError`` with the ``failure`` message when SuperLU
        fails."""
        t0 = time.perf_counter()
        try:
            lu = spla.splu(kkt, permc_spec="NATURAL", diag_pivot_thresh=0,
                           options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise SolverError(f"{failure}: {exc}") from exc
        finally:
            self.seconds += time.perf_counter() - t0

        def solve(rhs):
            x = lu.solve(rhs)
            x += lu.solve(rhs - kkt @ x)
            return x

        return solve


def solve(p: QcqpProblem, cfg: SolverConfig | None = None) -> OpfSolution:
    """Solve the QCQP; returns the optimal point with equality multipliers in
    problem row order, or a diagnostic non-optimal status."""
    cfg = cfg or SolverConfig()
    _check_convex(p)
    t_start = time.perf_counter()
    n = p.n_vars
    delta = REGULARIZATION
    mi = p.n_in + p.n_quad
    two_h = (2.0 * p.h).tocsr()
    kkt = _Kkt(p, delta)

    # -- starting point: least-norm solution of the equalities ---------------
    x = kkt.factor(kkt.matrix(1.0), "equality system factorization failed")(
        np.concatenate([np.zeros(n), p.b_eq]))[:n]
    y = np.zeros(p.n_eq)
    s = np.maximum(-_ineq_values(p, x), 1.0)
    z = np.ones(mi)

    g_scale = 1.0 + float(np.abs(p.g).max(initial=0.0))
    b_scale = 1.0 + float(np.abs(p.b_eq).max(initial=0.0))
    status = "max_iter"

    for it in range(1, cfg.max_iter + 1):
        jac = kkt.jacobian(x)
        rd = two_h @ x + p.g + jac.T @ z + p.a_eq.T @ y
        rp = p.a_eq @ x - p.b_eq
        rs = _ineq_values(p, x) + s
        mu = s @ z / max(mi, 1)

        feas = max(float(np.abs(rp).max(initial=0.0)) / b_scale,
                   float(np.abs(rs).max(initial=0.0)))
        dfeas = float(np.abs(rd).max(initial=0.0)) / g_scale
        # every stopping measure is a max-norm: the mean mu can hide one
        # pair that holds most of the complementarity
        gap = float(np.max(s * z, initial=0.0)) / (1.0 + abs(p.objective_at(x)))
        if feas < cfg.tol_feas and dfeas < cfg.tol_feas and gap < cfg.tol_gap:
            status = "optimal"
            break

        dual_mag = float(np.abs(z).max(initial=0.0) + np.abs(y).max(initial=0.0))
        if dual_mag > 1e12 * g_scale and feas > 100 * cfg.tol_feas:
            status = "infeasible"
            break

        # release the previous iteration's KKT matrix and factors before the
        # new ones are built, so that the allocator reuses their memory
        kkt_solve = None
        d = z / s
        kkt_solve = kkt.factor(kkt.matrix(delta, d, z),
                               f"KKT factorization failed at iteration {it}")

        def newton_step(rc):
            r1 = -rd - jac.T @ (d * rs - rc / s)
            sol = kkt_solve(np.concatenate([r1, -rp]))
            dx = sol[:n]
            ds = -rs - jac @ dx
            return dx, sol[n:], -d * ds - rc / s, ds

        # predictor
        dx_a, dy_a, dz_a, ds_a = newton_step(s * z)
        alpha_p = _step_len(s, ds_a)
        alpha_d = _step_len(z, dz_a)
        mu_aff = ((s + alpha_p * ds_a) @ (z + alpha_d * dz_a)) / max(mi, 1)
        # s, z > 0 keep mu > 0 when there are inequality rows
        sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-12)) if mi else 0.0

        # corrector
        rc = s * z + ds_a * dz_a - sigma * mu
        dx, dy, dz, ds = newton_step(rc)
        alpha = 0.995 * min(_step_len(s, ds), _step_len(z, dz))

        x = x + alpha * dx
        y = y + alpha * dy
        s = s + alpha * ds
        z = z + alpha * dz

        if not (np.all(np.isfinite(x)) and np.all(s > 0) and np.all(z > 0)):
            raise SolverError(f"iterate left the cone at iteration {it}")

    stats = SolveStats(
        iterations=it,
        final_gap=gap,
        final_feas=float(feas),
        runtime_seconds=time.perf_counter() - t_start,
        factor_seconds=kkt.seconds,
    )
    return OpfSolution(
        x=x, objective_value=p.objective_at(x), status=status,
        duals_eq=y, duals_in=z[:p.n_in], duals_quad=z[p.n_in:],
        stats=stats,
    )


def _step_len(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest step in [0, 1] that keeps ``v + step * dv`` non-negative."""
    neg = dv < 0
    return float(np.min(-v[neg] / dv[neg], initial=1.0))


def _ineq_values(p: QcqpProblem, x: np.ndarray) -> np.ndarray:
    """Left minus right side of every inequality row, linear rows first."""
    r = p.quad_c + p.quad_m @ x
    squares = np.bincount(np.arange(r.size) % max(p.n_quad, 1), r * r, minlength=p.n_quad)
    return np.concatenate([p.a_in @ x - p.b_in, squares - p.quad_b])


def extract_duals(p: QcqpProblem, sol: OpfSolution, rows: np.ndarray) -> np.ndarray:
    """Shadow prices of the equality ``rows`` of ``p``, in the given order.

    Each is -y for the row's multiplier y: the objective's sensitivity to
    the row's right-hand side. For a per-bus balance row of the OPF, where a
    withdrawal enters with coefficient -1, that is the objective increase
    per unit of additional modified withdrawal at the bus. Raises
    ``SolverError`` unless ``sol`` is optimal.
    """
    if sol.status != "optimal":
        raise SolverError(f"duals requested on a non-optimal solution ({sol.status})")
    return -sol.duals_eq[rows]
