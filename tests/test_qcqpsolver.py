import itertools
import re

import numpy as np
import pytest
import scipy.sparse as sp

from radialopf import qcqpsolver as qs
from radialopf.qcqpsolver import QcqpProblem, SolverConfig, SolverError

from helpers import assert_kkt_matches_reference, kkt_residuals


def _empty(m, n):
    return sp.csr_matrix((m, n))


def diagonal_squares(quad_diag):
    """The rows x' diag(d_k) x of ``quad_diag`` (non-negative, one row per
    k) as sums of squares: one square sqrt(d_kj) x_j per nonzero d_kj, the
    j-th square of every row in the j-th block of n_quad rows, and rows
    with fewer squares padded with empty ones. Returns (quad_m, quad_c)."""
    d = np.atleast_2d(np.asarray(quad_diag, dtype=float))
    nq = d.shape[0]
    k, j = np.nonzero(d)
    nth = np.arange(k.size) - np.searchsorted(k, k)  # each square's place in its row
    rows = nth.max(initial=-1) + 1
    quad_m = sp.csr_matrix((np.sqrt(d[k, j]), (nth * nq + k, j)), shape=(rows * nq, d.shape[1]))
    return quad_m, np.zeros(rows * nq)


def make_problem(h=None, g=None, c=0.0, a_eq=None, b_eq=None,
                 a_in=None, b_in=None, quad_diag=None, quad_b=None,
                 quad_m=None, quad_c=None, n=None):
    """A ``QcqpProblem`` from dense rows; its quadratic rows are either the
    diagonal rows ``quad_diag`` (see ``diagonal_squares``) or ``quad_m`` and
    ``quad_c`` as they are."""
    g = np.asarray(g, dtype=float)
    n = n or len(g)
    h = sp.csr_matrix((n, n)) if h is None else sp.csr_matrix(np.atleast_2d(h))
    a_eq = _empty(0, n) if a_eq is None else sp.csr_matrix(np.atleast_2d(a_eq))
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    a_in = _empty(0, n) if a_in is None else sp.csr_matrix(np.atleast_2d(a_in))
    b_in = np.zeros(0) if b_in is None else np.asarray(b_in, dtype=float)
    if quad_diag is not None:
        quad_m, quad_c = diagonal_squares(quad_diag)
    if quad_m is None:
        quad_m, quad_c, quad_b = _empty(0, n), np.zeros(0), np.zeros(0)
    return QcqpProblem(
        n_vars=n, h=h, g=g, c=c, a_eq=a_eq, b_eq=b_eq, a_in=a_in, b_in=b_in,
        quad_m=sp.csr_matrix(quad_m), quad_c=np.asarray(quad_c, dtype=float),
        quad_b=np.asarray(quad_b, dtype=float),
    )


def active_set_oracle(h, g, a_eq, b_eq, a_in, b_in):
    """Global minimum of a strictly convex QP with linear constraints by
    enumerating active sets: for each candidate subset solve the KKT system
    and keep the best primal-dual feasible point."""
    n = len(g)
    me = a_eq.shape[0]
    mi = a_in.shape[0]
    best = (np.inf, None)
    for r in range(0, min(mi, n - me) + 1):
        for subset in itertools.combinations(range(mi), r):
            a_act = np.vstack([a_eq, a_in[list(subset)]]) if subset else a_eq
            b_act = np.concatenate([b_eq, b_in[list(subset)]])
            m = a_act.shape[0]
            kkt = np.block([[2 * h, a_act.T], [a_act, np.zeros((m, m))]])
            rhs = np.concatenate([-g, b_act])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            mult = sol[n + me:]
            if np.any(mult < -1e-9):
                continue
            if mi and np.any(a_in @ x - b_in > 1e-8):
                continue
            val = x @ h @ x + g @ x
            if val < best[0] - 1e-12:
                best = (val, x)
    return best


def test_unconstrained_min():
    p = make_problem(h=[[1.0]], g=[-2.0])
    s = qs.solve(p)
    assert s.status == "optimal"
    assert s.x[0] == pytest.approx(1.0, abs=1e-8)
    assert s.objective_value == pytest.approx(-1.0, abs=1e-8)


def test_quadratic_ball_constraint():
    p = make_problem(g=[1.0], quad_diag=[[1.0]], quad_b=[1.0])
    s = qs.solve(p)
    assert s.status == "optimal"
    assert s.x[0] == pytest.approx(-1.0, abs=1e-6)
    assert s.duals_quad[0] == pytest.approx(0.5, abs=1e-6)


def test_sum_of_squares_row_closed_form():
    # min g'x s.t. ||c + M x||^2 <= b, M invertible and not diagonal, c != 0:
    # c + M x* = -sqrt(b) u with u = M^-T g / ||M^-T g||, and the row's dual
    # is ||M^-T g|| / (2 sqrt(b)). A second row, a ball that holds x*
    # inside, interleaves its rows with the first's and stays slack.
    rng = np.random.default_rng(12)
    n, b = 3, 2.0
    m = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
    c, g = rng.normal(size=n), rng.normal(size=n)
    v = np.linalg.solve(m.T, g)
    x_star = np.linalg.solve(m, -c - np.sqrt(b) * v / np.linalg.norm(v))
    ball = x_star @ x_star + 5.0
    rows = np.empty((2 * n, n))
    rows[0::2], rows[1::2] = m, np.eye(n)
    offsets = np.zeros(2 * n)
    offsets[0::2] = c
    p = make_problem(g=g, quad_m=rows, quad_c=offsets, quad_b=[b, ball])
    s = qs.solve(p)
    assert s.status == "optimal"
    assert np.allclose(s.x, x_star, rtol=0.0, atol=1e-6)
    assert s.duals_quad[0] == pytest.approx(np.linalg.norm(v) / (2.0 * np.sqrt(b)), abs=1e-6)
    assert s.duals_quad[1] == pytest.approx(0.0, abs=1e-6)


def test_equality_only():
    # min x'x s.t. x1 + x2 = 2 -> (1, 1)
    p = make_problem(h=np.eye(2), g=np.zeros(2), a_eq=[[1.0, 1.0]], b_eq=[2.0])
    s = qs.solve(p)
    assert s.status == "optimal"
    assert np.allclose(s.x, [1.0, 1.0], atol=1e-8)
    assert s.duals_eq[0] == pytest.approx(-2.0, abs=1e-6)


@pytest.mark.parametrize("me,mi,nq", list(itertools.product((0, 2), (0, 3), (0, 1))))
def test_every_problem_shape_takes_one_path(me, mi, nq):
    """Every combination of empty and non-empty equality, linear and
    quadratic inequality blocks reaches the active-set oracle's optimum (a
    direct KKT solve when there are no linear inequalities) and a KKT point.
    The quadratic row is a ball that holds the oracle's optimum inside."""
    rng = np.random.default_rng(31)
    n = 5
    m = rng.normal(size=(n, n))
    h = m.T @ m + 0.5 * np.eye(n)
    g = rng.normal(size=n)
    a_eq, b_eq = rng.normal(size=(me, n)), rng.normal(size=me)
    a_in, b_in = rng.normal(size=(mi, n)), rng.normal(size=mi) + 1.0
    ref, xref = active_set_oracle(h, g, a_eq, b_eq, a_in, b_in)
    assert xref is not None
    quad = dict(quad_diag=[np.ones(n)], quad_b=[2.0 * xref @ xref + 1.0]) if nq else {}
    p = make_problem(h=h, g=g, a_eq=a_eq, b_eq=b_eq, a_in=a_in, b_in=b_in, **quad)
    s = qs.solve(p, SolverConfig(tol_gap=1e-11, tol_feas=1e-11))
    assert s.status == "optimal"
    assert s.objective_value == pytest.approx(ref, rel=1e-8, abs=1e-8)
    assert np.allclose(s.x, xref, atol=1e-6)
    for key, val in kkt_residuals(p, s).items():
        assert val < 1e-7, (key, val)


@pytest.mark.parametrize("seed", range(5))
def test_equality_only_matches_direct_kkt_solve(seed):
    # an equality-only QP runs the interior-point loop; at stopping
    # tolerances of 1e-12 it reaches the solution of its KKT system, which
    # the least-squares start already solves up to the regularization
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    me = int(rng.integers(0, n))
    m = rng.normal(size=(n, n))
    h = m.T @ m + 0.5 * np.eye(n)
    g, a_eq, b_eq = rng.normal(size=n), rng.normal(size=(me, n)), rng.normal(size=me)
    kkt = np.block([[2 * h, a_eq.T], [a_eq, np.zeros((me, me))]])
    ref = np.linalg.solve(kkt, np.concatenate([-g, b_eq]))
    p = make_problem(h=h, g=g, a_eq=a_eq, b_eq=b_eq)
    s = qs.solve(p, SolverConfig(tol_gap=1e-12, tol_feas=1e-12))
    assert s.status == "optimal" and s.stats.iterations <= 3
    assert np.abs(s.x - ref[:n]).max() < 1e-9
    assert np.abs(s.duals_eq - ref[n:]).max(initial=0.0) < 1e-9


def test_start_on_a_row_with_zero_multiplier():
    # minimize x^2 subject to x <= 0: the least-squares start is x = 0, on
    # the row with a zero multiplier, so its slack and multiplier are both 0
    p = make_problem(h=np.eye(1), g=[0.0], a_in=[[1.0]], b_in=[0.0])
    s = qs.solve(p)
    assert s.status == "optimal" and s.objective_value < SolverConfig().tol_gap


def test_inconsistent_equalities_not_optimal():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    p = make_problem(h=np.eye(2), g=np.zeros(2), a_eq=[[1.0, 1.0], [1.0, 1.0]],
                     b_eq=[1.0, 2.0])
    assert qs.solve(p).status != "optimal"


def test_extract_duals_are_rhs_sensitivities():
    # -y of each requested equality row, in the requested order, is the
    # derivative of the optimal objective in that row's right-hand side
    def problem(b_eq):
        return make_problem(h=np.eye(3), g=[1.0, 0.0, -1.0], a_eq=[[1, 1, 0], [0, 1, -1]],
                            b_eq=b_eq, a_in=[[0, 0, 1]], b_in=[5.0])

    b, eps, tight = np.array([2.0, 1.0]), 1e-4, SolverConfig(tol_gap=1e-12, tol_feas=1e-12)
    p = problem(b)
    prices = qs.extract_duals(p, qs.solve(p, tight), np.array([1, 0]))
    for price, row in zip(prices, (1, 0)):
        step = eps * np.eye(2)[row]
        up, down = (qs.solve(problem(b + d), tight).objective_value for d in (step, -step))
        assert price == pytest.approx((up - down) / (2 * eps), abs=1e-6)


def test_active_box():
    p = make_problem(h=[[1.0]], g=[-6.0], c=9.0, a_in=[[1.0]], b_in=[1.0])
    s = qs.solve(p)
    assert s.x[0] == pytest.approx(1.0, abs=1e-7)
    assert s.duals_in[0] == pytest.approx(4.0, abs=1e-5)


def test_rejects_indefinite_objective():
    p = make_problem(h=[[-1.0]], g=[0.0])
    with pytest.raises(SolverError, match="not positive semidefinite"):
        qs.solve(p)


def test_rejects_asymmetric_objective():
    # the KKT matrix factors H as given: with H = [[1, 1], [0, 1]] it would
    # end optimal at (0, 0.5), but x'Hx - 1'x has its optimum -1/3 at (1/3, 1/3)
    p = make_problem(h=[[1.0, 1.0], [0.0, 1.0]], g=[-1.0, -1.0])
    with pytest.raises(SolverError, match="not symmetric"):
        qs.solve(p)


def _block_diagonal_problem(rng, negative):
    """H block diagonal over permuted variables: PSD blocks of size 1-5, a
    zero block, and one block with a negative eigenvalue when ``negative``.
    Box rows bound every variable, and rows couple variables of different
    blocks, so that the solver's components merge blocks of H."""
    sizes = rng.integers(1, 6, size=4)
    n = int(sizes.sum()) + 2  # the variables perm[-2:] are the zero block
    perm = rng.permutation(n)
    h = np.zeros((n, n))
    lo = 0
    for j, size in enumerate(sizes.tolist()):
        b = rng.normal(size=(size, size))
        block = b @ b.T
        if negative and j == 0:
            block -= (np.linalg.eigvalsh(block)[0] + rng.uniform(0.1, 2.0)) * np.eye(size)
        on = perm[lo:lo + size]
        h[np.ix_(on, on)] = block
        lo += size
    pairs = rng.choice(n, size=(3, 2), replace=False)
    couple = np.zeros((3, n))
    couple[np.arange(3), pairs[:, 0]] += 1.0
    couple[np.arange(3), pairs[:, 1]] += 1.0
    a_in = np.vstack([np.eye(n), -np.eye(n), couple])
    b_in = np.concatenate([np.ones(2 * n), np.full(3, 1.5)])
    return make_problem(h=h, g=rng.normal(size=n), a_in=a_in, b_in=b_in)


def test_convexity_from_kkt_blocks_matches_psd_test():
    # the solver decides convexity on the stacked blocks 2H of its KKT
    # matrix; it refuses exactly the problems that psd_test on H's own
    # eigendecomposition refuses, and reports the same minimum eigenvalue
    refused = 0
    for seed in range(24):
        rng = np.random.default_rng(seed)
        p = _block_diagonal_problem(rng, negative=seed % 2 == 1)
        psd, min_eig = qs.psd_test(p.h, qs.support_eigh(p.h))
        if psd:
            assert qs.solve(p).status == "optimal"
        else:
            refused += 1
            with pytest.raises(SolverError, match=re.escape(f"(min eigenvalue {min_eig:.3e})")):
                qs.solve(p)
    assert refused == 12


def test_determinism():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(6, 6))
    p = make_problem(h=m.T @ m + np.eye(6), g=rng.normal(size=6),
                     a_in=rng.normal(size=(4, 6)), b_in=rng.normal(size=4) + 2)
    s1 = qs.solve(p)
    s2 = qs.solve(p)
    assert s1.status == "optimal"
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.duals_in, s2.duals_in)


def test_objective_scaling_invariance():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(5, 5))
    h = m.T @ m + np.eye(5)
    g = rng.normal(size=5)
    a_in = rng.normal(size=(3, 5))
    b_in = rng.normal(size=3) + 1.5
    p1 = make_problem(h=h, g=g, a_in=a_in, b_in=b_in)
    k = 7.5
    p2 = make_problem(h=k * h, g=k * g, a_in=a_in, b_in=b_in)
    s1 = qs.solve(p1)
    s2 = qs.solve(p2)
    assert s2.objective_value == pytest.approx(k * s1.objective_value, rel=1e-6)
    assert np.allclose(s1.x, s2.x, atol=1e-6)


def test_infeasible_flagged():
    # x <= -1 and -x <= -1 cannot both hold
    p = make_problem(h=[[1.0]], g=[0.0], a_in=[[1.0], [-1.0]], b_in=[-1.0, -1.0])
    s = qs.solve(p, SolverConfig(max_iter=60))
    assert s.status in ("infeasible", "max_iter")
    assert s.status != "optimal"


def test_kkt_residuals_on_random_problems():
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = int(rng.integers(4, 12))
        m = rng.normal(size=(n, n))
        p = make_problem(
            h=m.T @ m + np.eye(n), g=rng.normal(size=n),
            a_eq=rng.normal(size=(2, n)), b_eq=rng.normal(size=2),
            a_in=rng.normal(size=(n, n)), b_in=rng.normal(size=n) + 2.0,
        )
        s = qs.solve(p)
        assert s.status == "optimal"
        res = kkt_residuals(p, s)
        for key, val in res.items():
            assert val < 1e-7, (key, val)


def test_matches_active_set_oracle():
    rng = np.random.default_rng(77)
    for _ in range(12):
        n = int(rng.integers(2, 10))
        me = int(rng.integers(0, min(2, n - 1) + 1))
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
        s = qs.solve(p, SolverConfig(tol_gap=1e-11, tol_feas=1e-11))
        assert s.status == "optimal"
        assert s.objective_value == pytest.approx(ref, rel=1e-8, abs=1e-8)


def test_duals_requested_on_non_optimal():
    p = make_problem(h=[[1.0]], g=[0.0], a_in=[[1.0], [-1.0]], b_in=[-1.0, -1.0])
    s = qs.solve(p, SolverConfig(max_iter=40))
    with pytest.raises(SolverError, match="non-optimal"):
        qs.extract_duals(p, s, np.arange(0))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol_gap=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


def test_factor_seconds_within_runtime():
    # the factorization wall time is part of the solve's wall time
    rng = np.random.default_rng(4)
    for p in (
        make_problem(h=np.eye(2), g=np.zeros(2), a_eq=[[1.0, 1.0]], b_eq=[2.0]),
        make_problem(h=np.eye(3), g=rng.normal(size=3), a_eq=[[1.0, 1.0, 0.0]],
                     b_eq=[1.0], a_in=rng.normal(size=(2, 3)), b_in=[1.0, 2.0],
                     quad_diag=[[1.0, 1.0, 0.0]], quad_b=[4.0]),
    ):
        stats = qs.solve(p).stats
        assert 0.0 < stats.factor_seconds < stats.runtime_seconds


def _dense_problem(rng, n, me, mi, nq):
    m = rng.normal(size=(n, n))
    quad = dict(quad_diag=rng.uniform(0.0, 1.0, (nq, n)), quad_b=np.full(nq, 50.0)) if nq else {}
    return make_problem(h=m.T @ m + 0.5 * np.eye(n), g=rng.normal(size=n),
                        a_eq=rng.normal(size=(me, n)), b_eq=rng.normal(size=me),
                        a_in=rng.normal(size=(mi, n)), b_in=rng.normal(size=mi) + 1.0,
                        **quad)


def test_kkt_matches_reference_without_inequality_rows():
    rng = np.random.default_rng(7)
    assert_kkt_matches_reference(_dense_problem(rng, 6, 2, 0, 0), rng)


def test_kkt_matches_reference_dense_rows():
    # linear and quadratic rows with several entries each: one component
    rng = np.random.default_rng(8)
    p = _dense_problem(rng, 6, 2, 3, 2)
    assert_kkt_matches_reference(p, rng)


def _component_problem(rng, couple):
    """Variables in components of sizes 3, 3, 2, 1, 4 and 1: H and the linear
    rows couple variables only within a component (the two of size 3
    stack), the last variable is in no row and has no H entry, and two
    equality rows span them all. One quadratic row holds the variables of
    the component of size 4, or with ``couple`` every variable."""
    sizes = [3, 3, 2, 1, 4, 1]
    n = sum(sizes)
    h = np.zeros((n, n))
    a_in = []
    lo = 0
    for size in sizes[:-1]:
        m = rng.normal(size=(size, size))
        h[lo:lo + size, lo:lo + size] = m.T @ m + 0.5 * np.eye(size)
        rows = np.zeros((size + 1, n))
        rows[:, lo:lo + size] = rng.normal(size=(size + 1, size))
        a_in.append(rows)
        lo += size
    quad = np.zeros((1, n))
    held = slice(0, n) if couple else slice(9, 13)
    quad[0, held] = rng.uniform(0.1, 1.0, n if couple else 4)
    a_in = np.vstack(a_in)
    return make_problem(h=h, g=rng.normal(size=n), a_eq=rng.normal(size=(2, n)),
                        b_eq=rng.normal(size=2), a_in=a_in,
                        b_in=rng.normal(size=a_in.shape[0]) + 1.0,
                        quad_diag=quad, quad_b=[50.0]), sizes


def _block_entries(p):
    return sum(var_idx.size * var_idx.shape[1]
               for var_idx, *_ in qs._Kkt(p, qs.REGULARIZATION).groups)


def test_kkt_matches_reference_several_components():
    rng = np.random.default_rng(10)
    p, sizes = _component_problem(rng, couple=False)
    # one dense block per component; the two of size 3 (four rows each)
    # share a stack, the two of size 1 (two rows and none) do not
    assert _block_entries(p) == sum(s * s for s in sizes)
    assert len(qs._Kkt(p, qs.REGULARIZATION).groups) == 5
    assert_kkt_matches_reference(p, rng)


def test_kkt_matches_reference_quadratic_row_couples_all():
    rng = np.random.default_rng(11)
    p, _ = _component_problem(rng, couple=True)
    assert _block_entries(p) == p.n_vars ** 2
    assert_kkt_matches_reference(p, rng)


def test_kkt_pattern_shared_within_solve(monkeypatch):
    # the KKT pattern is built once: every matrix factored in one solve
    # shares its index arrays, and only the values change
    rng = np.random.default_rng(9)
    p = _dense_problem(rng, 6, 2, 3, 2)
    factored = []
    splu = qs.spla.splu

    def keep(a, *args, **kwargs):
        factored.append(a)
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(qs.spla, "splu", keep)
    assert qs.solve(p).status == "optimal"
    assert len(factored) > 2
    for a in factored[1:]:
        assert np.shares_memory(a.indices, factored[0].indices)
        assert np.shares_memory(a.indptr, factored[0].indptr)
