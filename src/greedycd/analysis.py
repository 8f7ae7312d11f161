"""Strong-convexity constants and the per-iteration rates they certify.

Greedy selection is governed by strong convexity measured in norms other
than l2: the 1-norm constant (here ``mu1``) drives plain greedy selection
and the Lipschitz-weighted constant (``muL``) drives the curvature-weighted
variant.  Closed forms exist for diagonal Hessians; small dense Hessians
are handled by brute force over the faces of the l1 sphere.  The same
module turns the constants into per-iteration contraction factors, bounds
the damage done by inexact greedy selection, and evaluates the
nonnegative certificate that relates the model-decrease rule to the
longest-prox-step rule.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

BRUTE_MAX_N = 8


def mu_ell2(H):
    """Smallest eigenvalue: strong convexity in the Euclidean norm."""
    return float(np.linalg.eigvalsh(np.asarray(H, dtype=np.float64))[0])


def mu1_diag(diag):
    """1-norm strong convexity of a diagonal Hessian: (sum_i 1/h_i)^-1."""
    d = np.asarray(diag, dtype=np.float64)
    if (d <= 0).any():
        raise ValueError("diagonal Hessian must be positive")
    return float(1.0 / np.sum(1.0 / d))


def muL_diag(diag, L):
    """Lipschitz-weighted constant of a diagonal Hessian: (sum L_i/h_i)^-1."""
    d = np.asarray(diag, dtype=np.float64)
    L = np.asarray(L, dtype=np.float64)
    if (d <= 0).any():
        raise ValueError("diagonal Hessian must be positive")
    return float(1.0 / np.sum(L / d))


def _check_brute_size(n):
    if n > BRUTE_MAX_N:
        raise ValueError(f"brute-force search is capped at n = {BRUTE_MAX_N}")


def mu1_brute(H):
    """min x^T H x over the unit l1 sphere, by enumerating signed supports.

    Every face of the sphere is an orthant slice of a hyperplane
    sum_i sigma_i x_i = 1; the stationary point there is
    z = H_S^-1 sigma / (sigma^T H_S^-1 sigma) with value
    1/(sigma^T H_S^-1 sigma), valid when z lands in the face's orthant.
    Faces whose stationary point falls outside delegate to the boundary,
    i.e. to a smaller support, which the enumeration also visits.  3^n - 1
    candidate faces, so this is capped at n <= 8.
    """
    H = np.asarray(H, dtype=np.float64)
    n = H.shape[0]
    _check_brute_size(n)
    best = np.inf
    for signs in product((-1.0, 0.0, 1.0), repeat=n):
        s = np.array(signs)
        sup = np.flatnonzero(s)
        if sup.size == 0:
            continue
        sigma = s[sup]
        w = np.linalg.solve(H[np.ix_(sup, sup)], sigma)
        q = float(sigma @ w)
        if q <= 0:
            continue
        if (sigma * w >= 0).all():
            best = min(best, 1.0 / q)
    return float(best)


def muL_brute(H, L):
    """Lipschitz-weighted constant via the scaled Hessian D^-1/2 H D^-1/2."""
    L = np.asarray(L, dtype=np.float64)
    if (L <= 0).any():
        raise ValueError("curvatures must be positive")
    inv_root = 1.0 / np.sqrt(L)
    return mu1_brute(np.asarray(H) * np.outer(inv_root, inv_root))


@dataclass
class ConvexityConstants:
    """The quantities the rate table is built from."""

    n: int
    mu: float
    mu1: float
    muL: float
    L: float
    Lbar: float
    L_per: np.ndarray

    def check_sandwiches(self, slack=1e-12):
        """The orderings every valid set of constants satisfies."""
        ok = (self.mu / self.n <= self.mu1 + slack
              and self.mu1 <= self.mu + slack
              and self.mu / (self.n * self.Lbar) <= self.muL + slack
              and self.mu1 / self.L <= self.muL + slack
              and self.muL <= self.mu1 / self.L_per.min() + slack)
        if not ok:
            raise ValueError("constants violate their sandwich inequalities")
        return True


def hessian_constants(H, L_per=None):
    """ConvexityConstants for a dense Hessian.

    Diagonal Hessians use the closed forms; anything else is brute-forced,
    so n is capped at 8 unless the matrix is diagonal.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("Hessian must be square")
    if not np.allclose(H, H.T, rtol=1e-12, atol=1e-12):
        raise ValueError("Hessian must be symmetric")
    n = H.shape[0]
    L_per = np.diag(H).copy() if L_per is None else np.asarray(L_per, dtype=np.float64)
    diagonal = np.count_nonzero(H - np.diag(np.diag(H))) == 0
    if not diagonal:
        # before the O(n^3) eigenvalues, which a refused size would waste
        _check_brute_size(n)
    mu = mu_ell2(H)
    if mu <= 0:
        raise ValueError("Hessian must be positive definite")
    if diagonal:
        d = np.diag(H)
        mu1 = mu1_diag(d)
        muL = muL_diag(d, L_per)
    else:
        mu1 = mu1_brute(H)
        muL = muL_brute(H, L_per)
    return ConvexityConstants(n=n, mu=mu, mu1=mu1, muL=muL,
                              L=float(L_per.max()), Lbar=float(L_per.mean()),
                              L_per=L_per)


def rate_factor(rule, consts, eps=0.0):
    """Guaranteed per-iteration contraction of the gap f - f*.

    Randomised rules contract in expectation; the greedy rules contract
    deterministically.  Inexact greedy selection with a multiplicative
    budget eps scales the greedy constant by (1 - eps)^2.
    """
    c = consts
    if rule == "uniform":
        return 1.0 - c.mu / (c.n * c.L)
    if rule == "lipschitz":
        return 1.0 - c.mu / (c.n * c.Lbar)
    if rule == "gs":
        return 1.0 - c.mu1 / c.L
    if rule == "gsl":
        return 1.0 - c.muL
    if rule == "gs-approx-mult":
        if not 0.0 <= eps < 1.0:
            raise ValueError("multiplicative error must lie in [0, 1)")
        return 1.0 - c.mu1 * (1.0 - eps) ** 2 / c.L
    raise ValueError(f"no contraction factor for rule {rule!r}")


@dataclass
class RateReport:
    rows: list

    def text(self):
        width = max(len(name) for name, _ in self.rows)
        return "\n".join(f"{name:<{width}}  {factor:.12f}"
                         for name, factor in self.rows)

    def to_csv(self):
        lines = ["rule,factor"]
        lines += [f"{name},{repr(factor)}" for name, factor in self.rows]
        return "\n".join(lines) + "\n"


def rate_table(consts, eps_mult=()):
    """Contraction factors for the analysable rules, one row per rule."""
    rows = [(name, rate_factor(name, consts))
            for name in ("uniform", "lipschitz", "gs", "gsl")]
    for eps in eps_mult:
        rows.append((f"gs-approx-mult(eps={eps:g})",
                     rate_factor("gs-approx-mult", consts, eps=eps)))
    return RateReport(rows)


def additive_gap_bound(gap0, eps_seq, mu1, L, L1=None):
    """Gap bound after k inexact-greedy steps with additive budgets eps_i.

    Returns (A_k, bound) with bound = (1 - mu1/L)^k (gap0 + A_k).  Two
    accumulations are available — one through the coordinate curvature L,
    one through the 1-norm gradient Lipschitz constant L1 when known — and
    the smaller is used.
    """
    if not 0 < mu1 < L:
        raise ValueError("need 0 < mu1 < L for a contracting bound")
    eps = np.asarray(eps_seq, dtype=np.float64)
    if (eps < 0).any():
        raise ValueError("additive budgets must be nonnegative")
    k = eps.size
    rho = 1.0 - mu1 / L
    growth = rho ** -np.arange(1, k + 1)
    root_gap = np.sqrt(max(gap0, 0.0))
    A = float(np.sum(growth * (eps * np.sqrt(2.0 / L) * root_gap
                               + eps**2 / (2.0 * L))))
    if L1 is not None:
        A_l1 = float(np.sqrt(2.0 * L1) / L * root_gap * np.sum(growth * eps))
        A = min(A, A_l1)
    return A, rho**k * (gap0 + A)


def chain_rate_factors(L_chain, mu1):
    """(rho2, rho3) for greedy selection on a chain-structured quadratic.

    Once a coordinate is stepped it cannot be the greedy choice again until
    a neighbour moves, so the per-step factors 1 - mu1/L_i compound along
    walks that alternate between adjacent pairs or cycle through consecutive
    triples; rho2 and rho3 are the worst geometric means of each kind.
    """
    L = np.asarray(L_chain, dtype=np.float64)
    if L.ndim != 1 or L.size < 3:
        raise ValueError("need a chain of at least 3 nodes")
    f = 1.0 - mu1 / L
    if (f < 0).any():
        raise ValueError("mu1 exceeds a coordinate curvature")
    rho2 = float(np.sqrt(np.max(f[:-1] * f[1:])))
    rho3 = float(np.cbrt(np.max(f[:-2] * f[1:-1] * f[2:])))
    return rho2, rho3


def gsq_certificate(composite, x, L_used=None):
    """The nonnegative gap c between the model-decrease and longest-step
    proximal rules, evaluated at x.

    With d the full vector of prox steps under curvature L and s the
    subgradients those steps select, c = g(x_r) - g(x + d) + <s, (x+d) - x_r>
    where x_r moves only the longest-step coordinate.  Convexity of g makes
    c >= 0, and c = 0 whenever g is linear around the points involved (in
    particular whenever g vanishes).
    """
    x = np.asarray(x, dtype=np.float64)
    grad = composite.smooth.full_grad(x)
    L = composite.L if L_used is None else L_used
    d, _, s = composite.prox_steps(x, grad, L)
    i_r = int(np.argmax(np.abs(d)))
    x_prox = x + d
    x_r = x.copy()
    x_r[i_r] += d[i_r]
    g_r = float(composite.g_values(x_r).sum())
    g_prox = float(composite.g_values(x_prox).sum())
    inner = float(s @ d) - float(s[i_r] * d[i_r])
    return g_r - g_prox + inner
