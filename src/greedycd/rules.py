"""Coordinate selection rules.

A rule is prepared once per run (binding it to the problem and, for the
stochastic ones, to a PRNG stream made from the run's seed; a greedy rule
makes no stream) and then asked for a coordinate each iteration.  What a
rule derives from the problem alone (the ``gsl`` weights, the Lipschitz
CDF, the prox scores' full pass) the problem keeps
(``problems.KeptConstants``), so only the first run on it builds that.
``select`` returns ``(i, alpha)`` where alpha is None unless the rule
itself determines the step (maximum improvement does).  Greedy rules
read the tracker's maintained scores via ``peek``; uniform, cyclic and
Lipschitz selection never touch the gradient and say so with
``reads_gradient = False``, which lets ``descent.run`` use a lean
tracker and test for convergence once per epoch.

Randomness: numpy's PCG64 (``default_rng``).  Discrete sampling uses the
inverse CDF — a single uniform draw looked up in the cumulative probability
vector — so a rule consumes exactly one draw per iteration.  The draws are
taken from the generator DRAW_BLOCK at a time (``uniform_draws``): on
numpy 2.4, ``rng.random(k).tolist()`` gives the k floats that k calls of
``rng.random()`` give, bit for bit, so the picks are the same, while one
``Generator.random()`` call costs 0.85-1.05 us, more than the rest of a
pick, and a draw from a block about 0.1 us (``timeit``, shared 2-vCPU
Xeon).
"""

import numpy as np

from .problems import CompositeProblem, read_only
from .tracker import GradScorer, ProxScorer

# uniforms drawn per call of the generator (``uniform_draws``)
DRAW_BLOCK = 256


def uniform_draws(rng):
    """The uniforms of successive ``rng.random()`` calls, drawn
    DRAW_BLOCK at a time.  The rules pass ``np.random.default_rng(rng)``,
    which is the Generator itself when ``rng`` is one, a new one seeded by
    ``rng`` when it is a seed (an int or a SeedSequence), and a fresh one
    for None."""
    while True:
        yield from rng.random(DRAW_BLOCK).tolist()


def approx_gs_select(gradient, eps, regime):
    """Pick a coordinate admissible for inexact greedy selection.

    Admissible means |grad_i| >= ||grad||_inf * (1 - eps) (regime
    "mult") or |grad_i| >= ||grad||_inf - eps (regime "add").  This is an
    adversarial simulator returning the WORST admissible coordinate —
    smallest |grad_i|, ties broken to the LARGEST index — to stress
    convergence bounds from below (the exact greedy pick is rule "gs").
    """
    g = np.abs(gradient)
    top = g.max()
    if regime == "mult":
        if not 0.0 <= eps < 1.0:
            raise ValueError("multiplicative error must lie in [0, 1)")
        thr = top * (1.0 - eps)
    elif regime == "add":
        # a NaN eps leaves no coordinate admissible
        if not eps >= 0.0:
            raise ValueError(f"additive error must be >= 0, got {eps!r}")
        thr = top - eps
    else:
        raise ValueError(f"unknown approximation regime: {regime!r}")
    idx = np.flatnonzero(g >= thr)
    order = np.lexsort((-idx, g[idx]))
    return int(idx[order[0]])


def max_improvement_select(x, problem):
    """(i, alpha) giving the largest exact single-coordinate decrease.

    Every coordinate's exact minimiser comes from one full gradient: the
    1/L_i step on a quadratic (L_i = H_ii), the prox step under L_i on a
    composite problem with a quadratic smooth part, and the safeguarded
    Newton step from one A x on logistic.  On a quadratic the decrease is
    read off the same gradient, g_i^2 / (2 L_i) (0 where L_i = 0), and on
    a quadratic composite it is the model decrease -V_i, so a pick costs
    O(nnz); logistic scores its candidates with n full objective
    evaluations, so there this is a reference rule, not a fast one.  Ties
    go to the smallest index; at a minimiser every step is ~0 and
    whichever coordinate wins the (noise-level) comparison is returned.
    """
    smooth = getattr(problem, "smooth", problem)
    L = smooth.L_per_coord
    if smooth.is_quadratic:
        g = smooth.full_grad(x)
        if isinstance(problem, CompositeProblem):
            d, V, _ = problem.prox_steps(x, g, L)
            new, dec = x + d, -V
        else:
            L_safe = smooth.curvature(True).L
            new = np.where(L > 0, x - g / L_safe, x)
            dec = np.where(L > 0, g * g / (2.0 * L_safe), 0.0)
        i = int(np.argmax(dec))
        return i, new[i] - x[i]
    if isinstance(problem, CompositeProblem):
        raise ValueError("exact composite coordinate step needs a quadratic "
                         "smooth part")
    u = smooth.A.matvec(x)
    f0 = problem.eval(x)
    best_i, best_alpha, best_dec = 0, 0.0, -np.inf
    xt = x.copy()
    for i in range(problem.n):
        xt[i] = new = smooth.exact_coord_min(x, i, u)
        dec = f0 - problem.eval(xt)
        xt[i] = x[i]
        if dec > best_dec:
            best_i, best_alpha, best_dec = i, new - x[i], dec
    return best_i, best_alpha


class Rule:
    """Base selection rule; subclasses override prepare/scorer/select."""

    name = ""
    reads_gradient = True

    def prepare(self, problem, rng=None):
        pass

    def scorer(self, problem):
        """Score the tracker must maintain for this rule (None if unused)."""
        return None

    def select(self, tracker, k):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"


class UniformRule(Rule):
    name = "uniform"
    reads_gradient = False

    def prepare(self, problem, rng=None):
        self.n = problem.n
        self.draws = uniform_draws(np.random.default_rng(rng))

    def select(self, tracker, k):
        return min(int(next(self.draws) * self.n), self.n - 1), None


class CyclicRule(Rule):
    name = "cyclic"
    reads_gradient = False

    def prepare(self, problem, rng=None):
        self.n = problem.n

    def select(self, tracker, k):
        return k % self.n, None


class LipschitzRule(Rule):
    """Sample i with probability L_i / sum(L)."""

    name = "lipschitz"
    reads_gradient = False

    def prepare(self, problem, rng=None):
        smooth = getattr(problem, "smooth", problem)
        self.cum = smooth.kept("lipschitz-cdf",
                               lambda: lipschitz_cdf(smooth.L_per_coord))
        self.draws = uniform_draws(np.random.default_rng(rng))

    def select(self, tracker, k):
        return int(self.cum.searchsorted(next(self.draws), side="right")), None


def lipschitz_cdf(L):
    """The cumulative probabilities L_i / sum(L), ending in exactly 1,
    read-only."""
    total = L.sum()
    if total <= 0:
        raise ValueError("Lipschitz sampling needs a positive L_i")
    cum = np.cumsum(L / total)
    cum[-1] = 1.0
    return read_only(cum)


class GreedyRule(Rule):
    """Largest |grad_i| (name "gs") or largest |grad_i|/sqrt(L_i) ("gsl")."""

    def __init__(self, weighted=False):
        self.weighted = weighted
        self.name = "gsl" if weighted else "gs"

    def scorer(self, problem):
        if self.weighted:
            smooth = getattr(problem, "smooth", problem)
            return GradScorer(weights=smooth.gsl_weights())
        return GradScorer()

    def select(self, tracker, k):
        return tracker.peek(), None


class ApproxGreedyRule(Rule):
    """Inexact greedy selection with a per-iteration error budget.

    ``eps`` is a constant or a callable k -> eps_k (k is 1-based, matching
    the error sequence the accumulated bounds integrate).  It picks the
    worst admissible coordinate (``approx_gs_select``).
    """

    def __init__(self, regime, eps):
        if regime not in ("mult", "add"):
            raise ValueError(f"unknown approximation regime: {regime!r}")
        self.regime = regime
        self.eps = eps
        self.name = f"gs-approx-{regime}"

    def eps_at(self, k):
        return float(self.eps(k)) if callable(self.eps) else float(self.eps)

    def select(self, tracker, k):
        return approx_gs_select(tracker.gradient, self.eps_at(k + 1),
                                self.regime), None


class MaxImprovementRule(Rule):
    name = "mi"

    def prepare(self, problem, rng=None):
        self.problem = problem

    def select(self, tracker, k):
        return max_improvement_select(tracker.x, self.problem)


class ProxWorkRule(Rule):
    """Greedy rules for composite problems, built on prox candidates.

    mode "s": largest minimal-subgradient magnitude; mode "r": longest prox
    step |d_i|; mode "q": best model decrease (argmin V_i).  With
    per_coord=True the candidates (and the steps the driver takes) use L_i
    in place of L.
    """

    def __init__(self, mode, per_coord=False):
        if mode not in ("s", "r", "q"):
            raise ValueError(f"unknown prox rule mode: {mode!r}")
        if mode == "s" and per_coord:
            raise ValueError("the subgradient-residual rule has no per-coordinate variant")
        self.mode = mode
        self.per_coord = per_coord
        self.name = ("gsl-" if per_coord else "gs-") + mode

    def scorer(self, problem):
        if not isinstance(problem, CompositeProblem):
            raise ValueError(f"rule {self.name} needs a composite problem")
        return ProxScorer(problem, self.per_coord, self.mode)

    def select(self, tracker, k):
        return tracker.peek(), None


_FACTORIES = {
    "uniform": UniformRule,
    "cyclic": CyclicRule,
    "lipschitz": LipschitzRule,
    "gs": lambda: GreedyRule(weighted=False),
    "gsl": lambda: GreedyRule(weighted=True),
    "mi": MaxImprovementRule,
    "gs-s": lambda: ProxWorkRule("s"),
    "gs-r": lambda: ProxWorkRule("r"),
    "gs-q": lambda: ProxWorkRule("q"),
    "gsl-q": lambda: ProxWorkRule("q", per_coord=True),
    "gsl-r": lambda: ProxWorkRule("r", per_coord=True),
}

RULE_NAMES = tuple(_FACTORIES) + ("gs-approx-mult", "gs-approx-add")


def make_rule(name, eps=0.0):
    """Rule object from its command-line name."""
    if name == "gs-approx-mult":
        return ApproxGreedyRule("mult", eps)
    if name == "gs-approx-add":
        return ApproxGreedyRule("add", eps)
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise ValueError(f"unknown rule {name!r}; expected one of {', '.join(RULE_NAMES)}")
