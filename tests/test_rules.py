"""Selection rules: sampling distributions, greedy picks, inexact-greedy
admissibility, max-improvement, and the proximal work rules."""

import numpy as np
import pytest

from greedycd.linalg import SparseMatrix
from greedycd.problems import (
    BoxTerm,
    CompositeProblem,
    L1Term,
    LeastSquaresProblem,
    ZeroTerm,
    quadratic_problem,
)
from greedycd.rules import (
    RULE_NAMES,
    ApproxGreedyRule,
    approx_gs_select,
    make_rule,
    max_improvement_select,
)
from greedycd.tracker import make_tracker

from helpers import random_spd


def diag_ls(diag, b, scale=0.5):
    A = SparseMatrix.from_dense(np.diag(np.asarray(diag, dtype=np.float64)))
    return LeastSquaresProblem(A, np.asarray(b, dtype=np.float64), scale=scale)


def tracker_for(rule, problem, x0, backend="heap"):
    rule.prepare(problem, rng=np.random.default_rng(0))
    return make_tracker(problem, x0, scorer=rule.scorer(problem), backend=backend)


def test_uniform_is_inverse_cdf_of_one_draw_each():
    prob = diag_ls([1.0] * 7, np.zeros(7))
    rule = make_rule("uniform")
    rule.prepare(prob, rng=np.random.default_rng(42))
    picks = np.array([rule.select(None, k)[0] for k in range(3000)])
    replay = np.random.default_rng(42).random(3000)
    assert np.array_equal(picks, np.minimum((replay * 7).astype(int), 6))
    counts = np.bincount(picks, minlength=7)
    assert abs(counts - 3000 / 7).max() < 5 * np.sqrt(3000 / 7)


@pytest.mark.parametrize("name", ["uniform", "lipschitz"])
def test_block_draws_pick_what_scalar_draws_pick(name):
    # 1000 picks cross several blocks of DRAW_BLOCK uniforms
    for n in (1, 7, 300):
        prob = diag_ls(np.linspace(0.5, 2.0, n), np.zeros(n))
        for seed in range(4):
            rule = make_rule(name)
            rule.prepare(prob, rng=np.random.default_rng(seed))
            picks = [rule.select(None, k)[0] for k in range(1000)]
            rng = np.random.default_rng(seed)
            if name == "uniform":
                scalar = [min(int(rng.random() * n), n - 1)
                          for _ in range(1000)]
            else:
                scalar = [int(rule.cum.searchsorted(rng.random(),
                                                    side="right"))
                          for _ in range(1000)]
            assert picks == scalar


def test_cyclic_wraps_around():
    prob = diag_ls([1.0] * 4, np.zeros(4))
    rule = make_rule("cyclic")
    rule.prepare(prob)
    assert [rule.select(None, k)[0] for k in range(9)] == [0, 1, 2, 3, 0, 1, 2, 3, 0]


def test_lipschitz_sampling_frequencies():
    # L_i = 2 * scale * ||a_i||^2, so columns sqrt(1) and sqrt(3) give
    # probabilities (0.25, 0.75).
    prob = diag_ls([1.0, np.sqrt(3.0)], np.zeros(2))
    assert np.allclose(prob.L_per_coord, [1.0, 3.0])
    rule = make_rule("lipschitz")
    rule.prepare(prob, rng=np.random.default_rng(7))
    n_draws = 100_000
    picks = np.array([rule.select(None, k)[0] for k in range(n_draws)])
    counts = np.bincount(picks, minlength=2)
    expected = np.array([0.25, 0.75]) * n_draws
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < 15.0, f"chi-square {chi2:.2f} too large: counts {counts}"


def test_lipschitz_rejects_flat_problem():
    prob = diag_ls([0.0, 0.0], np.zeros(2))
    rule = make_rule("lipschitz")
    with pytest.raises(ValueError):
        rule.prepare(prob, rng=np.random.default_rng(0))


def test_stochastic_rules_are_reproducible():
    prob = diag_ls([1.0, 2.0, 3.0], np.zeros(3))
    seqs = []
    for _ in range(2):
        rule = make_rule("lipschitz")
        rule.prepare(prob, rng=np.random.default_rng(123))
        seqs.append([rule.select(None, k)[0] for k in range(50)])
    assert seqs[0] == seqs[1]


def test_gs_and_gsl_disagree_when_curvature_is_lopsided():
    # gradient (4, 2.5) with L = (4, 1): plain greedy takes 0, the
    # Lipschitz-weighted scores are (2, 2.5) so the weighted rule takes 1.
    prob = diag_ls([2.0, 1.0], [0.0, -2.5])
    x0 = np.array([1.0, 0.0])
    gs = make_rule("gs")
    t = tracker_for(gs, prob, x0)
    assert np.allclose(t.gradient, [4.0, 2.5])
    assert gs.select(t, 0) == (0, None)
    gsl = make_rule("gsl")
    t = tracker_for(gsl, prob, x0)
    assert gsl.select(t, 0) == (1, None)


def test_approx_gs_multiplicative_picks_worst_admissible():
    g = np.array([3.0, 2.5, 1.0])
    assert approx_gs_select(g, 0.2, "mult") == 1  # threshold 2.4 admits {0, 1}
    assert approx_gs_select(g, 0.0, "mult") == 0  # exact greedy


def test_approx_gs_additive_thresholds():
    g = np.array([3.0, 2.5, 1.0])
    assert approx_gs_select(g, 0.4, "add") == 0  # threshold 2.6 admits only {0}
    assert approx_gs_select(g, 0.5, "add") == 1  # threshold 2.5 admits {0, 1}
    assert approx_gs_select(g, 2.0, "add") == 2  # everything admissible
    assert approx_gs_select(g, 0.0, "add") == 0


def test_approx_gs_breaks_score_ties_to_largest_index():
    assert approx_gs_select(np.array([2.0, -2.0, 1.0]), 0.0, "mult") == 1
    assert approx_gs_select(np.array([2.0, -2.0, 1.0]), 0.9, "add") == 1


def test_approx_gs_rejects_bad_budgets():
    g = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        approx_gs_select(g, 1.0, "mult")
    with pytest.raises(ValueError):
        approx_gs_select(g, -0.1, "mult")
    with pytest.raises(ValueError):
        approx_gs_select(g, -1e-9, "add")
    with pytest.raises(ValueError):
        approx_gs_select(g, 0.1, "relative")
    with pytest.raises(ValueError):
        ApproxGreedyRule("relative", 0.1)


def test_approx_gs_refuses_a_nan_additive_budget():
    # a NaN threshold admits no coordinate; the multiplicative range test
    # refuses NaN already
    prob = diag_ls([1.0, 1.0, 1.0], [-3.0, -2.5, -1.0])
    nan = float("nan")
    for regime in ("add", "mult"):
        with pytest.raises(ValueError, match="error must"):
            approx_gs_select(np.array([1.0, 2.0]), nan, regime)
        for eps in (nan, lambda k: 0.1 if k == 1 else nan):
            rule = make_rule(f"gs-approx-{regime}", eps=eps)
            t = tracker_for(rule, prob, np.zeros(3))
            if callable(eps):
                rule.select(t, 0)
            with pytest.raises(ValueError, match="error must"):
                rule.select(t, 1)


def test_approx_rule_accepts_error_schedule():
    prob = diag_ls([1.0, 1.0, 1.0], [-3.0, -2.5, -1.0])
    x0 = np.zeros(3)
    rule = make_rule("gs-approx-add", eps=lambda k: 0.4 if k == 1 else 0.5)
    t = tracker_for(rule, prob, x0)
    assert np.allclose(t.gradient, [3.0, 2.5, 1.0])
    assert rule.select(t, 0) == (0, None)
    assert rule.select(t, 1) == (1, None)
    const = make_rule("gs-approx-mult", eps=0.2)
    const.prepare(prob)
    assert const.select(t, 5) == (1, None)


def test_max_improvement_matches_curvature_weighted_square_on_quadratics():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = 6
        H = random_spd(rng, n, lam_lo=0.4, lam_hi=3.0)
        b = rng.normal(size=n)
        prob = quadratic_problem(H, b)
        x = rng.normal(size=n)
        grad = prob.full_grad(x)
        dec = grad**2 / (2.0 * prob.L_per_coord)
        i, alpha = max_improvement_select(x, prob)
        assert i == int(np.argmax(dec))
        assert np.isclose(alpha, -grad[i] / H[i, i], rtol=1e-12, atol=1e-12)


def test_max_improvement_reads_composite_decreases_off_the_model():
    # under a quadratic smooth part with L_i = H_ii the model decrease -V_i
    # is the exact one, so the pick matches a brute-force evaluation
    rng = np.random.default_rng(32)
    for _ in range(20):
        H = random_spd(rng, 6, lam_lo=0.4, lam_hi=3.0)
        prob = CompositeProblem(quadratic_problem(H, rng.normal(size=6)),
                                L1Term(0.5))
        x = rng.normal(size=6)
        d = prob.prox_steps(x, prob.smooth.full_grad(x), prob.L_per_coord)[0]
        f0 = prob.eval(x)
        dec = [f0 - prob.eval(x + d[j] * np.eye(6)[j]) for j in range(6)]
        i, alpha = max_improvement_select(x, prob)
        assert dec[i] >= max(dec) - 1e-12 * max(1.0, abs(f0))
        assert alpha == (x + d)[i] - x[i]


def test_max_improvement_at_minimum_takes_zero_step():
    rng = np.random.default_rng(5)
    H = random_spd(rng, 4)
    b = rng.normal(size=4)
    prob = quadratic_problem(H, b)
    xstar = np.linalg.solve(H, b)
    i, alpha = max_improvement_select(xstar, prob)
    assert 0 <= i < 4
    assert abs(alpha) < 1e-10


def test_max_improvement_rule_reports_its_step():
    prob = diag_ls([1.0, 3.0], [-2.0, -9.0])
    rule = make_rule("mi")
    t = tracker_for(rule, prob, np.zeros(2))
    # gradients (2, 27), decreases (2, 40.5): pick 1 with step -27/9 = -3.
    i, alpha = rule.select(t, 0)
    assert i == 1
    assert np.isclose(alpha, -3.0, rtol=1e-14)


def test_prox_rules_on_nonnegative_quadratic():
    # min 0.5||Ax - b||^2 over x >= 0 with A = diag(1, 0.7), b = (-1, -3):
    # at x0 = (1, 0.1) the gradient is (2, 2.149).  Both coordinates sit in
    # the interior so the subgradient rule sees the raw gradient and takes 1,
    # while the step-length and model-decrease rules both take 0 (the
    # projected step on coordinate 0 is the full -1 versus -0.1).
    prob = diag_ls([1.0, 0.7], [-1.0, -3.0])
    comp = CompositeProblem(prob, BoxTerm(0.0, np.inf))
    x0 = np.array([1.0, 0.1])
    assert np.isclose(comp.eval(x0), 6.71245, atol=1e-12)
    picks = {}
    for name in ("gs-s", "gs-r", "gs-q"):
        rule = make_rule(name)
        t = tracker_for(rule, comp, x0)
        picks[name] = rule.select(t, 0)[0]
    assert picks == {"gs-s": 1, "gs-r": 0, "gs-q": 0}


def test_prox_rules_on_l1_quadratic():
    # min 0.5||Ax - b||^2 + ||x||_1 with A = diag(1, 0.7), b = (2, -1):
    # at x0 = (0.4, 0.5) the prox steps are (0.6, -0.5) so the step-length
    # rule takes 0; the model decreases are (-0.18, -0.8475) so the
    # model-decrease rule takes 1.
    prob = diag_ls([1.0, 0.7], [2.0, -1.0])
    comp = CompositeProblem(prob, L1Term(1.0))
    x0 = np.array([0.4, 0.5])
    assert np.isclose(comp.eval(x0), 3.09125, atol=1e-12)
    r = make_rule("gs-r")
    t = tracker_for(r, comp, x0)
    assert r.select(t, 0) == (0, None)
    q = make_rule("gs-q")
    t = tracker_for(q, comp, x0)
    assert q.select(t, 0) == (1, None)
    d, V, _ = comp.prox_steps(x0, t.gradient, comp.L)
    assert np.allclose(d, [0.6, -0.5], atol=1e-12)
    assert np.allclose(V, [-0.18, -0.8475], atol=1e-12)


def test_prox_rules_reduce_to_greedy_when_terms_vanish():
    rng = np.random.default_rng(11)
    for _ in range(10):
        H = random_spd(rng, 5, lam_lo=0.5, lam_hi=4.0)
        b = rng.normal(size=5)
        prob = quadratic_problem(H, b)
        comp = CompositeProblem(prob, ZeroTerm())
        x = rng.normal(size=5)
        grad = prob.full_grad(x)
        gs_pick = int(np.argmax(np.abs(grad)))
        for name in ("gs-s", "gs-r", "gs-q"):
            rule = make_rule(name)
            t = tracker_for(rule, comp, x)
            assert rule.select(t, 0)[0] == gs_pick, name
        gsl_pick = int(np.argmax(np.abs(grad) / np.sqrt(prob.L_per_coord)))
        rule = make_rule("gsl-q")
        t = tracker_for(rule, comp, x)
        assert rule.select(t, 0)[0] == gsl_pick
        # the per-coordinate step-length rule maximises |grad_i| / L_i
        rule = make_rule("gsl-r")
        t = tracker_for(rule, comp, x)
        assert rule.select(t, 0)[0] == int(np.argmax(np.abs(grad) / prob.L_per_coord))


def test_prox_rules_need_a_composite_problem():
    prob = diag_ls([1.0, 2.0], np.zeros(2))
    rule = make_rule("gs-q")
    with pytest.raises(ValueError):
        rule.scorer(prob)


def test_make_rule_names_and_errors():
    for name in RULE_NAMES:
        rule = make_rule(name, eps=0.1)
        assert rule.name == name
    with pytest.raises(ValueError, match="unknown rule"):
        make_rule("steepest")
    with pytest.raises(ValueError):
        make_rule("gsl-s")
