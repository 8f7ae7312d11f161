"""Independent model of a generated problem, and the checks on each trace.

Nothing here calls greedycd's objectives, trackers, rules or reference
solver.  An ``Oracle`` is built from the raw arrays of a generated
experiment (the matrix, the right-hand side or the clamped labels, and the
weights) and computes, with numpy and scipy alone:

* the objective and its gradient at any x;
* the curvature L_i of every coordinate;
* f*, from the normal equations (least squares), a sparse Laplacian solve
  (graph) or a split-variable L-BFGS-B solve (l1);
* the score each greedy rule ranks: |g_i|, |g_i|/sqrt(L_i) or -V_i.

Each ``check_*`` function returns a list of failure messages, empty when the
trace passes.
"""

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg

# Slack for float rounding; far below anything a wrong result would show.
FSTAR_TOL = 1e-9        # how far below f* an objective may read, relative
FINAL_TOL = 1e-9        # trace objective vs independent evaluation, relative
SCORE_TOL = 1e-9        # a pick's score vs the top score, relative
MONOTONE_TOL = 1e-12    # rise allowed between iterates, relative to f_0


def _csc(matrix):
    """scipy CSC copy of a greedycd SparseMatrix, from its stored arrays."""
    return scipy.sparse.csc_matrix(
        (matrix.col_vals.copy(), matrix.col_rows.copy(),
         matrix.col_indptr.copy()), shape=matrix.shape)


class Oracle:
    """Objective, gradient, curvature, f* and scores of one experiment."""

    def __init__(self, kind, A, rhs=None, labels=None, lam=0.0, scale=None,
                 labeled_nodes=None):
        self.kind = kind
        self.lam = float(lam)
        if kind in ("ls", "l1_ls"):
            self.A = scipy.sparse.csc_matrix(A)
            self.b = np.asarray(rhs, dtype=np.float64)
            self.scale = float(scale)
            col_sq = np.asarray(self.A.multiply(self.A).sum(axis=0)).ravel()
            self.L = 2.0 * self.scale * col_sq
            if kind == "ls":
                self.L = self.L + self.lam
        elif kind == "graph":
            upper = scipy.sparse.triu(scipy.sparse.csr_matrix(A), k=1)
            W = (upper + upper.T).tocsr()
            n_all = W.shape[0]
            self.lab = np.asarray(sorted(labeled_nodes), dtype=np.int64)
            self.free = np.setdiff1d(np.arange(n_all), self.lab)
            self.y = np.asarray(labels, dtype=np.float64)[self.lab]
            self.n_all = n_all
            deg = np.asarray(W.sum(axis=1)).ravel()
            self.lap = (scipy.sparse.diags(deg) - W).tocsr()
            self.edges = upper.tocoo()
            self.L = deg[self.free] + self.lam
        else:
            raise ValueError(f"no oracle for problem kind {kind!r}")
        # A coordinate with no curvature is scaled by 1, as greedycd does.
        self.L_safe = np.where(self.L > 0, self.L, 1.0)
        self.n = self.L.shape[0]
        self.xstar = self._solve()
        self.fstar = self.objective(self.xstar)

    @classmethod
    def from_experiment(cls, exp):
        return cls(exp.kind, _csc(exp.matrix), rhs=exp.rhs, labels=exp.labels,
                   lam=exp.lam, scale=exp.scale,
                   labeled_nodes=exp.labeled_nodes)

    # --- objective and gradient ------------------------------------------

    def _full(self, x):
        z = np.zeros(self.n_all)
        z[self.free] = x
        z[self.lab] = self.y
        return z

    def smooth_gradient(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "graph":
            return (self.lap @ self._full(x))[self.free] + self.lam * x
        g = 2.0 * self.scale * (self.A.T @ (self.A @ x - self.b))
        return g + self.lam * x if self.kind == "ls" else g

    def objective(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "graph":
            z = self._full(x)
            e = self.edges
            diff = z[e.row] - z[e.col]
            return float(0.5 * (e.data * diff * diff).sum()
                         + 0.5 * self.lam * x @ x)
        r = self.A @ x - self.b
        f = self.scale * float(r @ r)
        if self.kind == "ls":
            return f + 0.5 * self.lam * float(x @ x)
        return f + self.lam * float(np.abs(x).sum())

    # --- f* ----------------------------------------------------------------

    def _solve(self):
        if self.kind == "ls":
            H = 2.0 * self.scale * (self.A.T @ self.A).toarray()
            H[np.diag_indices_from(H)] += self.lam
            rhs = 2.0 * self.scale * (self.A.T @ self.b)
            factor = scipy.linalg.cho_factor(H)
            x = scipy.linalg.cho_solve(factor, rhs)
            # one step of iterative refinement
            return x + scipy.linalg.cho_solve(factor, rhs - H @ x)
        if self.kind == "graph":
            F, C = self.free, self.lab
            H = self.lap[F][:, F] + self.lam * scipy.sparse.identity(len(F))
            rhs = -(self.lap[F][:, C] @ self.y)
            return scipy.sparse.linalg.spsolve(H.tocsc(), rhs)
        return self._solve_l1()

    def _solve_l1(self):
        """Split-variable L-BFGS-B: min scale*||A(u - v) - b||^2 +
        lam*sum(u + v) over u, v >= 0.  Its support and signs then fix a
        linear system; that system's solution replaces it when it passes
        the optimality conditions, which makes f* exact to rounding."""
        n = self.n
        AT = self.A.T.tocsr()

        def fun(z):
            x = z[:n] - z[n:]
            r = self.A @ x - self.b
            g = 2.0 * self.scale * (AT @ r)
            f = self.scale * float(r @ r) + self.lam * float(z.sum())
            return f, np.concatenate([g + self.lam, self.lam - g])

        z = scipy.optimize.minimize(
            fun, np.zeros(2 * n), jac=True, method="L-BFGS-B",
            bounds=[(0.0, None)] * (2 * n),
            options={"ftol": 1e-16, "gtol": 1e-13, "maxiter": 20000,
                     "maxfun": 40000}).x
        x = z[:n] - z[n:]
        exact = self._polish_l1(x)
        return x if exact is None else exact

    def _polish_l1(self, x):
        """The point where the gradient cancels lam*sign(x) on x's support,
        if it keeps those signs and satisfies |g_i| <= lam elsewhere."""
        support = np.flatnonzero(np.abs(x) > 1e-9 * np.abs(x).max())
        sign = np.sign(x[support])
        AS = self.A[:, support].toarray()
        H = 2.0 * self.scale * AS.T @ AS
        rhs = 2.0 * self.scale * AS.T @ self.b - self.lam * sign
        out = np.zeros(self.n)
        out[support] = scipy.linalg.lstsq(H, rhs)[0]
        off = np.ones(self.n, dtype=bool)
        off[support] = False
        g = self.smooth_gradient(out)
        if (np.array_equal(np.sign(out[support]), sign)
                and np.all(np.abs(g[off]) <= self.lam * (1.0 + 1e-9))):
            return out
        return None

    # --- greedy scores ------------------------------------------------------

    def scores(self, rule, x):
        """What ``rule`` maximises at x, computed from scratch."""
        g = self.smooth_gradient(x)
        if rule == "gs":
            return np.abs(g)
        if rule == "gsl":
            return np.abs(g) / np.sqrt(self.L_safe)
        if rule in ("gs-q", "gsl-q"):
            L = np.full(self.n, self.L.max()) if rule == "gs-q" else self.L_safe
            y = x - g / L
            z = np.sign(y) * np.maximum(np.abs(y) - self.lam / L, 0.0)
            d = z - x
            V = g * d + 0.5 * L * d * d + self.lam * (np.abs(z) - np.abs(x))
            return -V
        raise ValueError(f"no independent score for rule {rule!r}")

    def gap_iters(self, objective, target):
        """First k with (f_k - f*) / (f_0 - f*) <= target, or None."""
        f = np.asarray(objective)
        hit = np.flatnonzero((f - self.fstar) <= target * (f[0] - self.fstar))
        return int(hit[0]) if hit.size else None


def replay(trace, x0, ks):
    """Yield (k, x_k) for each k in ``ks`` (ascending), x_k rebuilt from the
    trace's coord and step columns in the order the run applied them."""
    x = np.array(x0, dtype=np.float64, copy=True)
    done = 0
    for k in ks:
        for j in range(done + 1, k + 1):
            x[trace.coord[j]] += trace.step[j]
        done = k
        yield k, x


def sample_points(length, count):
    """Up to ``count`` iterates, evenly spread, first and last included."""
    return sorted(set(np.linspace(0, length - 1, count).round().astype(int)))


# --- checks ---------------------------------------------------------------

def check_above_fstar(trace, oracle):
    slack = FSTAR_TOL * max(1.0, abs(oracle.fstar))
    low = min(trace.objective)
    if low < oracle.fstar - slack:
        return [f"{trace.rule}: objective {low!r} below f* {oracle.fstar!r}"]
    return []


def check_monotone(trace):
    f = np.asarray(trace.objective)
    rise = np.diff(f)
    bad = np.flatnonzero(rise > MONOTONE_TOL * max(1.0, abs(f[0])))
    if bad.size:
        k = int(bad[0]) + 1
        return [f"{trace.rule}: objective rose by {rise[bad[0]]!r} at k={k}"]
    return []


def check_final(trace, oracle, x0):
    """The last objective matches the oracle at final_x, and final_x is the
    point the coord and step columns lead to."""
    errors = []
    want = oracle.objective(trace.final_x)
    got = trace.objective[-1]
    if abs(got - want) > FINAL_TOL * max(1.0, abs(want)):
        errors.append(f"{trace.rule}: final objective {got!r} but "
                      f"independent evaluation gives {want!r}")
    _, x = list(replay(trace, x0, [len(trace) - 1]))[-1]
    if not np.allclose(x, trace.final_x, rtol=1e-12, atol=1e-12):
        errors.append(f"{trace.rule}: final_x differs from the replayed x")
    return errors


def check_picks(trace, oracle, rule, x0, samples=12):
    """At sampled iterates, the next pick has the top independent score."""
    errors = []
    for k, x in replay(trace, x0, sample_points(len(trace) - 1, samples)):
        s = oracle.scores(rule, x)
        i = trace.coord[k + 1]
        top = float(s.max())
        if s[i] < top - SCORE_TOL * top:
            errors.append(f"{trace.rule}: pick {i} at k={k + 1} scores "
                          f"{s[i]!r}, top is {top!r} at {int(s.argmax())}")
    return errors


def check_same_picks(trace, reference):
    """``trace`` picks exactly the coordinates ``reference`` picks."""
    if trace.coord == reference.coord:
        return []
    pairs = zip(trace.coord, reference.coord)
    k = next((j for j, (a, b) in enumerate(pairs) if a != b),
             min(len(trace), len(reference)))
    return [f"{trace.rule}: picks differ from the reference run at k={k}"]


def check_manifest(generated, loaded, seed):
    """A problem rebuilt from its manifest has the same objective."""
    x = np.random.default_rng(seed).standard_normal(generated.n)
    a, b = generated.eval(x), loaded.eval(x)
    if abs(a - b) > 1e-12 * max(1.0, abs(a)):
        return [f"manifest round trip changed the objective: {a!r} vs {b!r}"]
    return []
