"""Convexity constants, rate factors, inexactness bounds, chain factors,
and the prox-rule certificate."""

import math

import numpy as np
import pytest

from greedycd import analysis
from greedycd.analysis import (
    ConvexityConstants,
    additive_gap_bound,
    chain_rate_factors,
    gsq_certificate,
    hessian_constants,
    mu1_brute,
    mu1_diag,
    mu_ell2,
    muL_brute,
    muL_diag,
    rate_factor,
    rate_table,
)
from greedycd.descent import run
from greedycd.linalg import SparseMatrix
from greedycd.problems import (
    CompositeProblem,
    GraphQuadraticProblem,
    L1Term,
    LeastSquaresProblem,
    ZeroTerm,
    quadratic_problem,
)

from helpers import random_spd


# --- independent worst-case selection-sequence oracle (chains) -------------
#
# After stepping coordinate i, greedy cannot pick i again until a neighbour
# moves.  States are bitmasks of currently barred coordinates; stepping i
# (not barred) bars i and frees any barred neighbours of i.

def _nbr_masks(n):
    masks = []
    for i in range(n):
        m = 0
        if i > 0:
            m |= 1 << (i - 1)
        if i < n - 1:
            m |= 1 << (i + 1)
        masks.append(m)
    return masks


def worst_products(factors, k_max):
    """Largest factor product over admissible sequences, per length."""
    n = len(factors)
    nbr = _nbr_masks(n)
    layer = {0: 1.0}
    out = []
    for _ in range(k_max):
        nxt = {}
        for mask, val in layer.items():
            for i in range(n):
                if mask >> i & 1:
                    continue
                nm = (mask & ~nbr[i]) | (1 << i)
                v = val * factors[i]
                if v > nxt.get(nm, -1.0):
                    nxt[nm] = v
        layer = nxt
        out.append(max(layer.values()))
    return out


def karp_max_mean_factor(factors):
    """Asymptotic per-step growth of the worst admissible sequence,
    via the maximum mean cycle of the state graph (Karp's recurrence)."""
    n = len(factors)
    nbr = _nbr_masks(n)
    states = [0]
    index = {0: 0}
    edges = []
    qi = 0
    while qi < len(states):
        mask = states[qi]
        qi += 1
        for i in range(n):
            if mask >> i & 1:
                continue
            nm = (mask & ~nbr[i]) | (1 << i)
            if nm not in index:
                index[nm] = len(states)
                states.append(nm)
            edges.append((index[mask], index[nm], math.log(factors[i])))
    N = len(states)
    D = [[-math.inf] * N for _ in range(N + 1)]
    D[0][0] = 0.0
    for k in range(1, N + 1):
        for u, v, w in edges:
            if D[k - 1][u] > -math.inf and D[k - 1][u] + w > D[k][v]:
                D[k][v] = D[k - 1][u] + w
    best = -math.inf
    for v in range(N):
        if D[N][v] == -math.inf:
            continue
        worst = math.inf
        for k in range(N):
            if D[k][v] > -math.inf:
                worst = min(worst, (D[N][v] - D[k][v]) / (N - k))
        best = max(best, worst)
    return math.exp(best)


# --- constants --------------------------------------------------------------

def test_mu_ell2_is_the_smallest_eigenvalue():
    rng = np.random.default_rng(0)
    H = random_spd(rng, 6)
    assert np.isclose(mu_ell2(H), np.linalg.eigvalsh(H)[0], rtol=1e-12)
    assert np.isclose(mu_ell2(np.diag([3.0, 0.2, 1.0])), 0.2, rtol=1e-15)


def test_mu1_diag_hand_values():
    assert np.isclose(mu1_diag([1.0, 0.49]), 0.49 / 1.49, rtol=1e-15)
    assert np.isclose(mu1_diag([3.0] * 4), 0.75, rtol=1e-15)
    assert np.isclose(mu1_diag([2.0, 0.5]), 0.4, rtol=1e-15)
    with pytest.raises(ValueError):
        mu1_diag([1.0, 0.0])


def test_mu1_brute_agrees_with_diagonal_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        d = rng.uniform(0.2, 5.0, size=n)
        closed = mu1_diag(d)
        assert abs(mu1_brute(np.diag(d)) - closed) <= 1e-9 * closed


def test_mu1_brute_on_a_coupled_hand_case():
    # x^2 + y^2 - 1.8 x y on |x| + |y| = 1: the same-sign faces give
    # 3.8 t^2 - 3.8 t + 1 with minimum 0.05 at t = 1/2; the mixed-sign
    # faces give 0.2 t^2 - 0.2 t + 1 with minimum 0.95.
    H = np.array([[1.0, -0.9], [-0.9, 1.0]])
    assert np.isclose(mu1_brute(H), 0.05, atol=1e-13)
    assert np.isclose(mu_ell2(H), 0.1, atol=1e-13)


def test_mu1_sits_between_mu_over_n_and_mu():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        H = random_spd(rng, n, lam_lo=0.2, lam_hi=4.0)
        mu = mu_ell2(H)
        m1 = mu1_brute(H)
        assert mu / n - 1e-12 <= m1 <= mu + 1e-12


def test_brute_force_is_size_capped():
    with pytest.raises(ValueError, match="capped"):
        mu1_brute(np.eye(9))
    # diagonal problems of any size take the closed-form path
    consts = hessian_constants(np.diag(np.linspace(1.0, 2.0, 20)))
    assert consts.n == 20


def test_a_refused_size_is_refused_before_the_eigenvalues(monkeypatch):
    def refused(H):
        raise AssertionError("mu_ell2 ran on a Hessian the cap refuses")

    monkeypatch.setattr(analysis, "mu_ell2", refused)
    H = np.eye(9)
    H[0, 1] = H[1, 0] = 0.5
    with pytest.raises(ValueError, match="capped"):
        hessian_constants(H)


def test_sparse_hessian_check_reads_the_coupling_off_the_sparse_data():
    n = analysis.BRUTE_MAX_N + 1
    diagonal = [
        LeastSquaresProblem(np.diag(np.linspace(1.0, 2.0, n)), np.ones(n)),
        GraphQuadraticProblem(n, np.zeros((0, 2)), [], node_quad=np.ones(n)),
        # a zero-weight edge is stored, as an explicit zero
        GraphQuadraticProblem(n, [[0, 1]], [0.0], node_quad=np.ones(n))]
    for problem in diagonal:
        analysis.check_sparse_hessian(problem)
        consts = hessian_constants(problem.hessian(), problem.L_per_coord)
        assert consts.n == n
    A = np.eye(n)
    A[0, 1] = 0.5
    for problem in (
            LeastSquaresProblem(A, np.ones(n)),
            GraphQuadraticProblem(n, [[0, 1]], [0.5], node_quad=np.ones(n))):
        with pytest.raises(ValueError, match="capped"):
            analysis.check_sparse_hessian(problem)
    # at or below the cap every Hessian passes
    analysis.check_sparse_hessian(LeastSquaresProblem(A[:8, :8], np.ones(8)))


def test_muL_hand_values_and_scaling_identity():
    assert np.isclose(muL_diag([1.0, 0.49], [1.0, 0.49]), 0.5, rtol=1e-15)
    assert np.isclose(muL_brute(np.diag([1.0, 0.49]), [1.0, 0.49]), 0.5,
                      atol=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        d = rng.uniform(0.3, 3.0, size=n)
        L = rng.uniform(0.5, 2.0, size=n)
        assert abs(muL_brute(np.diag(d), L) - muL_diag(d, L)) <= 1e-9
    with pytest.raises(ValueError):
        muL_brute(np.eye(2), [1.0, -1.0])


def test_muL_sandwich_on_random_spd():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        H = random_spd(rng, n, lam_lo=0.3, lam_hi=3.0)
        consts = hessian_constants(H)
        consts.check_sandwiches()
        lo = max(consts.mu / (consts.n * consts.Lbar), consts.mu1 / consts.L)
        assert lo - 1e-12 <= consts.muL <= consts.mu1 / consts.L_per.min() + 1e-12


def test_hessian_constants_on_the_two_by_two_example():
    consts = hessian_constants(np.diag([1.0, 0.49]))
    assert np.isclose(consts.mu, 0.49, rtol=1e-14)
    assert np.isclose(consts.mu1, 0.49 / 1.49, rtol=1e-14)
    assert np.isclose(consts.muL, 0.5, rtol=1e-14)
    assert consts.L == 1.0 and np.isclose(consts.Lbar, 0.745)
    assert np.isclose(rate_factor("uniform", consts), 0.755, atol=1e-12)
    assert np.isclose(rate_factor("gs", consts), 1.0 / 1.49, atol=1e-12)
    assert np.isclose(rate_factor("gsl", consts), 0.5, atol=1e-12)
    # equal-curvature sampling collapses onto the greedy factor here
    assert np.isclose(rate_factor("lipschitz", consts), 1.0 / 1.49, atol=1e-12)


def test_hessian_constants_validation():
    with pytest.raises(ValueError, match="square"):
        hessian_constants(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        hessian_constants(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        hessian_constants(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_rate_factor_approx_and_validation():
    consts = hessian_constants(np.diag([1.0, 0.49]))
    base = rate_factor("gs", consts)
    assert np.isclose(rate_factor("gs-approx-mult", consts, eps=0.0), base)
    assert np.isclose(rate_factor("gs-approx-mult", consts, eps=0.5),
                      1.0 - (0.49 / 1.49) * 0.25, atol=1e-14)
    with pytest.raises(ValueError):
        rate_factor("gs-approx-mult", consts, eps=1.0)
    with pytest.raises(ValueError, match="no contraction"):
        rate_factor("cyclic", consts)


def test_rate_table_renders_and_round_trips():
    consts = hessian_constants(np.diag([2.0, 0.5, 1.0]))
    report = rate_table(consts, eps_mult=(0.25,))
    names = [name for name, _ in report.rows]
    assert names == ["uniform", "lipschitz", "gs", "gsl",
                     "gs-approx-mult(eps=0.25)"]
    text = report.text()
    assert "gsl" in text and len(text.splitlines()) == 5
    lines = report.to_csv().splitlines()
    assert lines[0] == "rule,factor"
    for (name, factor), line in zip(report.rows, lines[1:]):
        col_name, col_val = line.rsplit(",", 1)
        assert col_name == name and float(col_val) == factor


def test_additive_gap_bound_hand_case():
    # gap0 = 2, mu1/L = 1/2: the curvature route gives
    # A = 2 (0.1 * sqrt(2) * sqrt(2) + 0.01/2) = 0.41; with L1 = 1 the
    # 1-norm route gives sqrt(2) * sqrt(2) * 2 * 0.1 = 0.4 and wins.
    A, bound = additive_gap_bound(2.0, [0.1], mu1=0.5, L=1.0)
    assert np.isclose(A, 0.41, atol=1e-14)
    assert np.isclose(bound, 0.5 * 2.41, atol=1e-14)
    A1, bound1 = additive_gap_bound(2.0, [0.1], mu1=0.5, L=1.0, L1=1.0)
    assert np.isclose(A1, 0.4, atol=1e-14)
    assert np.isclose(bound1, 1.2, atol=1e-14)


def test_additive_gap_bound_edges():
    A, bound = additive_gap_bound(3.0, [], mu1=0.5, L=2.0)
    assert A == 0.0 and bound == 3.0
    A, bound = additive_gap_bound(3.0, np.zeros(4), mu1=0.5, L=2.0)
    assert A == 0.0
    assert np.isclose(bound, 0.75**4 * 3.0, rtol=1e-14)
    with pytest.raises(ValueError):
        additive_gap_bound(1.0, [0.1], mu1=1.0, L=1.0)
    with pytest.raises(ValueError):
        additive_gap_bound(1.0, [-0.1], mu1=0.5, L=1.0)


def test_chain_rate_factors_hand_case():
    rho2, rho3 = chain_rate_factors([10.0, 1.0, 10.0], 0.5)
    assert np.isclose(rho2, np.sqrt(0.95 * 0.5), rtol=1e-14)
    assert np.isclose(rho3, (0.95 * 0.5 * 0.95) ** (1.0 / 3.0), rtol=1e-14)
    with pytest.raises(ValueError, match="at least 3"):
        chain_rate_factors([1.0, 2.0], 0.1)
    with pytest.raises(ValueError, match="exceeds"):
        chain_rate_factors([10.0, 1.0, 10.0], 2.0)


def test_chain_factors_give_the_worst_sequence_growth_rate():
    rng = np.random.default_rng(5)
    cases = [np.array([10.0, 1.0, 10.0]), np.array([10.0, 10.0, 1.0])]
    for _ in range(4):
        n = int(rng.integers(3, 7))
        cases.append(rng.uniform(0.5, 10.0, size=n))
    for L in cases:
        mu1 = 0.3 * L.min()
        rho2, rho3 = chain_rate_factors(L, mu1)
        rho = max(rho2, rho3)
        got = karp_max_mean_factor(list(1.0 - mu1 / L))
        assert abs(got - rho) <= 1e-9 * rho, (L, got, rho)


def test_worst_sequence_excess_stays_bounded():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = int(rng.integers(3, 7))
        L = rng.uniform(0.5, 10.0, size=n)
        mu1 = 0.3 * L.min()
        rho = max(chain_rate_factors(L, mu1))
        prods = worst_products(list(1.0 - mu1 / L), 12)
        ratios = [p / rho**k for k, p in enumerate(prods, start=1)]
        # the excess over the asymptotic rate is a transient, not growth
        assert max(ratios[6:]) <= max(ratios[:6]) + 1e-9


def test_gsq_certificate_values():
    # the l1 case: d = (0.6, -0.5), s = (1, -0.445), longest step at 0:
    # c = g(x_r) - g(x + d) + s_1 d_1 = 1.5 - 1.0 + 0.2225 = 0.7225.
    A = SparseMatrix.from_dense(np.diag([1.0, 0.7]))
    smooth = LeastSquaresProblem(A, np.array([2.0, -1.0]), scale=0.5)
    comp = CompositeProblem(smooth, L1Term(1.0))
    c = gsq_certificate(comp, np.array([0.4, 0.5]))
    assert np.isclose(c, 0.7225, atol=1e-13)


def test_gsq_certificate_vanishes_without_kinks():
    rng = np.random.default_rng(7)
    H = random_spd(rng, 5, lam_lo=0.5, lam_hi=2.0)
    b = rng.normal(size=5)
    prob = quadratic_problem(H, b)
    assert abs(gsq_certificate(CompositeProblem(prob, ZeroTerm()),
                               rng.normal(size=5))) <= 1e-14
    # an l1 term is locally linear when every point involved stays in the
    # strict interior of one orthant
    comp = CompositeProblem(prob, L1Term(1e-4))
    x = np.full(5, 50.0)
    assert abs(gsq_certificate(comp, x)) <= 1e-12


def test_gsq_certificate_is_nonnegative():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        H = random_spd(rng, n, lam_lo=0.3, lam_hi=3.0)
        prob = quadratic_problem(H, rng.normal(size=n))
        comp = CompositeProblem(prob, L1Term(float(rng.uniform(0.1, 2.0))))
        c = gsq_certificate(comp, rng.normal(size=n))
        assert c >= -1e-12


def test_gsq_one_step_bound_on_the_l1_example():
    A = SparseMatrix.from_dense(np.diag([1.0, 0.7]))
    smooth = LeastSquaresProblem(A, np.array([2.0, -1.0]), scale=0.5)
    comp = CompositeProblem(smooth, L1Term(1.0))
    x0 = np.array([0.4, 0.5])
    consts = hessian_constants(np.diag([1.0, 0.49]))
    c = gsq_certificate(comp, x0)
    trace = run(comp, "gs-q", x0=x0, max_iters=1)
    fstar = 2.0  # attained at (1, 0)
    gap0 = trace.objective[0] - fstar
    gap1 = trace.objective[1] - fstar
    rho = 1.0 - consts.mu1 / consts.L
    assert gap1 <= rho * gap0 + c * consts.mu1 / consts.L + 1e-12


def test_check_sandwiches_rejects_inconsistent_constants():
    bad = ConvexityConstants(n=2, mu=1.0, mu1=2.0, muL=0.5, L=1.0,
                             Lbar=1.0, L_per=np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="sandwich"):
        bad.check_sandwiches()
