"""The run driver: stepping, stopping, guards, traces, and races."""

import os
import struct
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import greedycd
from greedycd import problems
from greedycd.descent import (TRACE_COLUMNS, TRACE_HEADER, RunTrace, race,
                              run)
from greedycd.harness import gen_experiment
from greedycd.linalg import SparseMatrix
from greedycd.problems import (
    BoxTerm,
    CompositeProblem,
    GraphQuadraticProblem,
    L1Term,
    LeastSquaresProblem,
    LogisticProblem,
    ZeroTerm,
    quadratic_problem,
)
from greedycd.rules import DRAW_BLOCK, make_rule
from greedycd.tracker import H1Tracker, make_tracker, takes_product

from helpers import FixedStepRule, one_step, random_sparse, random_spd


def diag_ls(diag, b, scale=0.5):
    A = SparseMatrix.from_dense(np.diag(np.asarray(diag, dtype=np.float64)))
    return LeastSquaresProblem(A, np.asarray(b, dtype=np.float64), scale=scale)


def spd_problem(seed, n=6):
    rng = np.random.default_rng(seed)
    H = random_spd(rng, n, lam_lo=0.4, lam_hi=3.0)
    b = rng.normal(size=n)
    return quadratic_problem(H, b), H, b


def test_budget_zero_records_only_the_starting_point():
    prob, _, _ = spd_problem(0)
    trace = run(prob, "gs", max_iters=0)
    assert trace.k == [0]
    assert trace.coord == [-1]
    assert trace.step == [0.0]
    assert trace.elapsed_ns == [0]
    assert trace.touched_rows == [0]
    assert not trace.converged


def test_cyclic_exact_solves_separable_problem_in_one_pass():
    prob = diag_ls([1.0, 2.0, 0.5, 3.0], [4.0, -2.0, 1.0, 3.0])
    trace = run(prob, "cyclic", step="exact", tol=1e-12)
    assert trace.converged
    assert len(trace) == 5  # one exact solve per coordinate, then done
    xstar = np.array([4.0, -1.0, 2.0, 1.0])
    assert np.allclose(trace.final_x, xstar, atol=1e-12)
    assert trace.resid_inf[-1] <= 1e-12


def test_greedy_converges_to_linear_system_solution():
    prob, H, b = spd_problem(1)
    trace = run(prob, "gs", step="const-coord", tol=1e-10)
    assert trace.converged
    assert np.allclose(trace.final_x, np.linalg.solve(H, b), atol=1e-8)
    assert trace.objective[-1] <= trace.objective[0]


def test_objective_is_monotone_for_every_rule():
    prob, _, _ = spd_problem(2)
    for name in ("uniform", "cyclic", "lipschitz", "gs", "gsl", "mi"):
        trace = run(prob, name, max_iters=100, seed=9, tol=0.0)
        diffs = np.diff(trace.objective)
        assert diffs.max() <= 1e-9, name


def test_step_formulas_match_their_definitions():
    prob = diag_ls([2.0, 1.0], [-1.0, -5.0])  # L_i = (4, 1), grad0 = (2, 5)
    t_const = run(prob, "gs", step="const", max_iters=1)
    assert t_const.coord[1] == 1
    assert np.isclose(t_const.step[1], -5.0 / 4.0, rtol=1e-15)
    t_coord = run(prob, "gs", step="const-coord", max_iters=1)
    assert np.isclose(t_coord.step[1], -5.0, rtol=1e-15)
    t_exact = run(prob, "gsl", step="exact", max_iters=1)
    # weighted scores (1, 5): still coordinate 1, exact step -5/1
    assert t_exact.coord[1] == 1
    assert np.isclose(t_exact.step[1], -5.0, rtol=1e-15)


def test_divergence_guard_aborts_on_ascent():
    prob = diag_ls([1.0, 1.0], [-3.0, -2.0])
    for alpha in (1.0, np.nan):
        with pytest.raises(RuntimeError, match="diverging"):
            run(prob, FixedStepRule(0, alpha), max_iters=3)


def test_descent_certificate_catches_timid_steps():
    prob = diag_ls([1.0, 1.0], [-3.0, -2.0])
    rule = FixedStepRule(0, -0.003)  # a 0.1% step where -3 is promised
    with pytest.raises(RuntimeError, match="descent certificate"):
        run(prob, rule, max_iters=1)


def test_prox_one_step_objectives_nonnegative_case():
    # 0.5||Ax - b||^2 over x >= 0, A = diag(1, 0.7), b = (-1, -3),
    # x0 = (1, 0.1): the subgradient rule moves coordinate 1 (objective
    # 6.5), the step-length and model-decrease rules move coordinate 0
    # (objective 5.21245); the constrained minimum is 5 at the origin.
    smooth = diag_ls([1.0, 0.7], [-1.0, -3.0])
    comp = CompositeProblem(smooth, BoxTerm(0.0, np.inf))
    x0 = np.array([1.0, 0.1])
    expected = {"gs-s": (1, 6.5), "gs-r": (0, 5.21245), "gs-q": (0, 5.21245)}
    for name, (coord, obj) in expected.items():
        trace = run(comp, name, x0=x0, max_iters=1)
        assert trace.coord[1] == coord, name
        assert np.isclose(trace.objective[1], obj, atol=1e-12), name


def test_prox_one_step_objectives_l1_case():
    # 0.5||Ax - b||^2 + ||x||_1, A = diag(1, 0.7), b = (2, -1),
    # x0 = (0.4, 0.5): step-length rule gives 2.91125, model-decrease rule
    # gives 2.18; the minimum is 2 at (1, 0).
    smooth = diag_ls([1.0, 0.7], [2.0, -1.0])
    comp = CompositeProblem(smooth, L1Term(1.0))
    x0 = np.array([0.4, 0.5])
    t_r = run(comp, "gs-r", x0=x0, max_iters=1)
    assert (t_r.coord[1], round(t_r.objective[1], 10)) == (0, 2.91125)
    t_q = run(comp, "gs-q", x0=x0, max_iters=1)
    assert (t_q.coord[1], round(t_q.objective[1], 10)) == (1, 2.18)


def test_l1_run_reaches_sparse_minimiser():
    smooth = diag_ls([1.0, 0.7], [2.0, -1.0])
    comp = CompositeProblem(smooth, L1Term(1.0))
    trace = run(comp, "gs-q", x0=np.array([0.4, 0.5]), tol=1e-12)
    assert trace.converged
    assert np.allclose(trace.final_x, [1.0, 0.0], atol=1e-10)
    assert np.isclose(trace.objective[-1], 2.0, atol=1e-10)


def test_graph_problem_runs_through_the_driver():
    rng = np.random.default_rng(4)
    n = 6
    edges = [(i, i + 1) for i in range(n - 1)]
    weights = np.ones(n - 1)
    lin = rng.normal(size=n)
    prob = GraphQuadraticProblem(n, edges, weights, node_quad=np.ones(n),
                                 node_lin=lin)
    trace = run(prob, "gsl", step="exact", tol=1e-10)
    assert trace.converged
    assert np.allclose(trace.final_x, np.linalg.solve(prob.hessian(), lin),
                       atol=1e-8)


def test_exact_logistic_step_zeroes_that_gradient_entry():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(30, 5))
    w = rng.normal(size=5)
    labels = np.sign(A @ w).astype(np.float64)
    prob = LogisticProblem(SparseMatrix.from_dense(A), labels, l2_reg=0.1)
    trace = run(prob, "gs", step="exact", max_iters=1)
    i = trace.coord[1]
    assert abs(prob.full_grad(trace.final_x)[i]) < 1e-9


def draw_exact_step_problem(data, rng):
    """A small least-squares, graph, logistic or composite problem (a
    quadratic smooth part with l1, box and zero terms), and a feasible x0.
    Every coordinate has a minimiser: columns are non-empty, graph nodes
    carry a positive node term and logistic an l2 term."""
    kind = data.draw(st.sampled_from(
        ["ls", "quadratic", "graph", "composite", "logistic"]), label="kind")
    m = data.draw(st.integers(1, 8), label="m")
    n = data.draw(st.integers(1, 6), label="n")
    x0 = rng.uniform(-2.0, 2.0, n)
    x0[rng.random(n) < 0.2] = 0.0
    A, _ = random_sparse(rng, m, n, density=0.5)
    lam = data.draw(st.sampled_from([0.0, 0.3]), label="l2_reg")
    if kind == "logistic":
        return LogisticProblem(A, rng.choice([-1.0, 1.0], m),
                               l2_reg=lam + 0.1), x0
    if kind == "quadratic":
        return quadratic_problem(random_spd(rng, n), rng.standard_normal(n)), x0
    if kind == "graph":
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < 0.5]
        return GraphQuadraticProblem(
            n, pairs, rng.uniform(0.0, 2.0, len(pairs)),
            node_quad=rng.uniform(0.1, 1.0, n),
            node_lin=rng.standard_normal(n)), x0
    smooth = LeastSquaresProblem(A, rng.uniform(-2.0, 2.0, m), l2_reg=lam,
                                 scale=data.draw(st.sampled_from(
                                     [0.5, 0.5 / m]), label="scale"))
    if kind == "ls":
        return smooth, x0
    terms = [data.draw(st.sampled_from(
        [ZeroTerm(), L1Term(0.7), BoxTerm(-1.0, 1.5), BoxTerm(0.0, np.inf)]),
        label="term") for _ in range(n)]
    for j, t in enumerate(terms):
        if isinstance(t, BoxTerm):
            x0[j] = np.clip(x0[j], t.p1, t.p2)
    return CompositeProblem(smooth, terms), x0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_exact_step_minimises_the_coordinate_from_the_tracker(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    problem, x0 = draw_exact_step_problem(data, rng)
    composite = problem if isinstance(problem, CompositeProblem) else None
    smooth = getattr(problem, "smooth", problem)
    i = data.draw(st.integers(0, problem.n - 1), label="i")
    x1 = one_step(problem, x0, i).final_x
    # the moved coordinate is optimal under a from-scratch gradient: its
    # partial derivative is 0, or 0 lies in it plus the term's subdifferential
    g = smooth.full_grad(x1)
    resid = g if composite is None else composite.min_subgradients(x1, g)
    assert abs(resid[i]) <= 1e-10
    if smooth.is_quadratic:
        # L_i = H_ii: the exact step is the 1/L_i step, so the runs agree
        rule = "gs" if composite is None else "gs-q"
        a = run(problem, rule, step="exact", x0=x0, max_iters=5, tol=0.0)
        b = run(problem, rule, step="const-coord", x0=x0, max_iters=5,
                tol=0.0)
        assert a.same_path(b)
        assert a.final_x.tobytes() == b.final_x.tobytes()
    else:
        # the safeguarded Newton step never does worse than the 1/L_i step
        x_lip = x0.copy()
        x_lip[i] -= smooth.full_grad(x0)[i] / smooth.L_per_coord[i]
        f_lip = problem.eval(x_lip)
        assert problem.eval(x1) <= f_lip + 1e-12 * max(1.0, abs(f_lip))


def test_heap_and_scan_backends_take_identical_paths():
    prob, _, _ = spd_problem(3)
    comp = CompositeProblem(prob, L1Term(0.3))
    for problem, name in ((prob, "gs"), (prob, "gsl"), (comp, "gs-q")):
        a = run(problem, name, max_iters=60, backend="heap", tol=0.0)
        b = run(problem, name, max_iters=60, backend="scan", tol=0.0)
        # identical iterates; only the heap-op budget is backend-specific
        assert a.coord == b.coord and a.step == b.step, name
        assert a.objective == b.objective and a.resid_inf == b.resid_inf
        assert a.touched_rows == b.touched_rows
        assert a.touched_grads == b.touched_grads
        assert np.array_equal(a.final_x, b.final_x)


@pytest.mark.parametrize("name", ["uniform", "cyclic", "lipschitz"])
def test_random_rules_keep_their_path_and_stop_per_epoch(name):
    prob, _, _ = spd_problem(4, n=7)
    comp = CompositeProblem(prob, L1Term(0.2))
    for problem in (prob, comp):
        n = problem.n
        trace = run(problem, name, max_iters=200, seed=11, tol=0.0)
        # the picks are the seeded stream itself, whatever the tracker holds
        rule = make_rule(name)
        rule.prepare(problem, rng=np.random.default_rng(11))
        assert trace.coord[1:] == [rule.select(None, k)[0] for k in range(200)]
        want = problem.eval(trace.final_x)
        assert abs(trace.objective[-1] - want) <= 1e-12 * max(1.0, abs(want))
        # lean tracker: one column per update, no A^T grad entries
        assert set(trace.touched_grads) == {0}
        # the residual is measured at x0, every n updates and at the end,
        # and carried in between
        for k in range(1, 200):
            if k % n:
                assert trace.resid_inf[k] == trace.resid_inf[k - k % n]
        x = trace.final_x
        g = prob.full_grad(x)
        fresh = g if problem is prob else problem.prox_steps(x, g, prob.L)[0]
        assert np.isclose(trace.resid_inf[-1], np.abs(fresh).max(),
                          rtol=1e-9, atol=1e-12)

        stopped = run(problem, name, seed=11, tol=1e-6)
        assert stopped.converged and stopped.resid_inf[-1] <= 1e-6
        assert (len(stopped) - 1) % n == 0
        assert stopped.resid_inf[-1 - n] > 1e-6


NUMPY_DIR = os.path.dirname(np.__file__) + os.sep


@pytest.mark.parametrize("family, m, n, path", [
    ("sparse_ls", 200, 200, "gram"), ("sparse_ls", 1000, 1000, "scatter"),
    ("l1_underdet_ls", 50, 500, "product"), ("two_moons", None, 500, "h2")])
def test_an_iteration_enters_no_python_function_of_numpy(family, m, n, path):
    # numpy's Python-level wrappers (np.argmax, ndarray.max, ndarray.sum,
    # np.searchsorted, np.cumsum, np.flatnonzero) cost about 1 us each in
    # dispatch, more than the work of a few entries; an iteration calls
    # the ndarray methods and ufuncs they end in instead
    p = gen_experiment(family, m=m, n=n, seed=0).problem
    composite = isinstance(p, CompositeProblem)
    names = ["gs", "gsl", "uniform", "cyclic", "lipschitz"]
    if composite:
        names += ["gs-q", "gsl-q", "gs-r", "gs-s"]
    entered = set()

    def profile(frame, event, arg):
        if (event == "call"
                and frame.f_code.co_filename.startswith(NUMPY_DIR)):
            entered.add(frame.f_code.co_name)

    for name in names:
        rule = make_rule(name)
        rule.prepare(p, rng=np.random.default_rng(0))
        tr = make_tracker(p, np.zeros(p.n), scorer=rule.scorer(p),
                          lean=not rule.reads_gradient)
        if path != "h2" and not tr.lean:
            assert (tr.gram, tr.product) == {"gram": (True, True),
                                             "scatter": (False, False),
                                             "product": (False, True)}[path]
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            for k in range(20):
                i, _ = rule.select(tr, k)
                tr.apply_update(i, 1e-3)
                if not tr.lean:
                    tr.grad_inf_norm()
        finally:
            sys.setprofile(previous)
        assert not entered, (name, sorted(entered))


@pytest.mark.parametrize("family, m, n, rule", [
    ("dense_overdet_ls", 300, 60, "gsl"), ("l1_underdet_ls", 50, 500, "gs-q")])
def test_objective_resyncs_from_the_tracker_at_each_refresh(family, m, n,
                                                            rule):
    p = gen_experiment(family, m=m, n=n, seed=0).problem
    trace = run(p, rule, max_iters=3000, tol=0.0, refresh_every=50)
    # f falls by four orders of magnitude, so a running sum of the deltas
    # would keep about 1e-12 of f(x0) in f(x_final)
    want = p.eval(trace.final_x)
    assert abs(trace.objective[-1] - want) <= 1e-14 * abs(want)
    # before the first refresh the trace is the running sum's, bit for bit
    plain = run(p, rule, max_iters=60, tol=0.0)
    assert trace.objective[:50] == plain.objective[:50]
    assert trace.coord[:50] == plain.coord[:50]


def test_seeded_runs_replay_exactly():
    prob, _, _ = spd_problem(5)
    a = run(prob, "uniform", max_iters=40, seed=5, tol=0.0)
    b = run(prob, "uniform", max_iters=40, seed=5, tol=0.0)
    assert a.same_path(b)
    c = run(prob, "uniform", max_iters=40, seed=6, tol=0.0)
    assert a.coord != c.coord


def test_csv_round_trip_is_exact():
    prob, _, _ = spd_problem(7)
    trace = run(prob, "lipschitz", max_iters=30, seed=2, tol=0.0)
    text = trace.to_csv()
    assert text.splitlines()[0] == TRACE_HEADER
    parsed = RunTrace.from_csv(text)
    assert parsed == trace
    assert parsed.objective == trace.objective  # bit-exact floats


def test_csv_file_round_trip(tmp_path):
    prob, _, _ = spd_problem(8)
    trace = run(prob, "gs", max_iters=10, tol=0.0)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    assert RunTrace.read_csv(path) == trace


def _bits(v):
    return struct.pack("<d", v)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.integers(0, 2**62), st.floats(), st.integers(-1, 2**31),
    st.floats(), st.floats(), st.integers(0, 2**62),
    st.integers(0, 2**31), st.integers(0, 2**31), st.integers(0, 2**31)),
    max_size=6))
@example([(1, float("-nan"), 0, -np.inf, np.inf - np.inf, 0, 0, 0, 0)])
def test_csv_round_trips_arbitrary_floats(rows):
    # st.floats() draws nan, +-inf, -0.0 and subnormals; ``same_path``
    # calls a NaN unequal to itself, so compare the bits instead.  The
    # text forms "nan" and "-nan" keep a NaN's sign bit but not its
    # payload: a NaN comes back as a NaN of the same sign.
    trace = RunTrace()
    for row in rows:
        trace.append(*row)
    back = RunTrace.from_csv(trace.to_csv())
    assert len(back) == len(trace)
    for name in ("objective", "step", "resid_inf"):
        for a, b in zip(getattr(trace, name), getattr(back, name)):
            assert _bits(a) == _bits(b) or (
                np.isnan(a) and np.isnan(b)
                and np.signbit(a) == np.signbit(b))
    for name in ("k", "coord", "elapsed_ns", "touched_rows",
                 "touched_grads", "heap_ops"):
        assert getattr(back, name) == getattr(trace, name)


def test_csv_keeps_the_format_of_earlier_files():
    # the column table drives the header, the writer, the reader and
    # ``same_path``; a file written before it reads and writes unchanged
    text = ("k,objective,coord,step,resid_inf,elapsed_ns,touched_rows,"
            "touched_grads,heap_ops\n"
            "0,1.5,-1,0.0,2.0,0,0,0,0\n"
            "1,0.1,3,-0.25,-nan,1234,2,5,1\n")
    trace = RunTrace.from_csv(text)
    assert trace.coord == [-1, 3] and trace.elapsed_ns == [0, 1234]
    assert trace.step == [0.0, -0.25] and np.signbit(trace.resid_inf[1])
    assert trace.heap_ops == [0, 1]
    assert trace.to_csv() == text
    assert [f.name for f in fields(RunTrace)][:len(TRACE_COLUMNS)] == [
        name for name, _ in TRACE_COLUMNS]


def test_csv_rejects_garbage():
    with pytest.raises(ValueError, match="header"):
        RunTrace.from_csv("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="bad trace row"):
        RunTrace.from_csv(TRACE_HEADER + "\n1,2,3\n")


def test_run_validates_inputs():
    prob, _, _ = spd_problem(9)
    with pytest.raises(ValueError, match="unknown step mode"):
        run(prob, "gs", step="newton")
    with pytest.raises(TypeError):
        run(prob, 42)
    with pytest.raises(ValueError, match="shape"):
        run(prob, "gs", x0=np.zeros(3))
    comp = CompositeProblem(prob, BoxTerm(0.0, 1.0))
    with pytest.raises(ValueError, match="infeasible"):
        run(comp, "gs-q", x0=np.full(prob.n, 2.0))
    x0 = np.zeros(prob.n)
    x0[3] = np.nan
    with pytest.raises(ValueError, match="x0 must be finite"):
        run(prob, "gs", x0=x0)
    # a NaN tol would never stop the run and an infinite one would stop it
    # at x0 marked converged
    for tol in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be finite"):
            run(prob, "gs", tol=tol)


def test_exact_composite_step_needs_a_quadratic_smooth_part(monkeypatch):
    rng = np.random.default_rng(3)
    A = rng.normal(size=(20, 6))
    labels = np.sign(A @ rng.normal(size=6))
    comp = CompositeProblem(LogisticProblem(SparseMatrix.from_dense(A), labels),
                            L1Term(0.1))
    updates = []
    monkeypatch.setattr(H1Tracker, "apply_update",
                        lambda self, i, delta: updates.append(i))
    with pytest.raises(ValueError, match="quadratic smooth part"):
        run(comp, "gs-q", step="exact")
    # refused before the loop, so even a run of no iterations is refused
    with pytest.raises(ValueError, match="quadratic smooth part"):
        run(comp, "gs-q", step="exact", max_iters=0)
    assert updates == []


def test_run_rejects_an_inf_in_the_data():
    A = np.arange(1.0, 16.0).reshape(5, 3)
    A[0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        SparseMatrix.from_dense(A)
    # finite data whose objective overflows at x0 still stops the run
    A[0, 0] = 1e200
    with np.errstate(over="ignore"):
        prob = LeastSquaresProblem(SparseMatrix.from_dense(A), np.ones(5))
        for rule in ("uniform", "gs"):
            with pytest.raises(ValueError, match="not finite"):
                run(prob, rule, x0=np.ones(3), max_iters=50, seed=0)


def test_race_budget_zero_gives_initial_rows():
    prob, _, _ = spd_problem(10)
    traces = race(prob, ["uniform", "gs", "lipschitz"], 0, master_seed=1)
    assert [len(t) for t in traces] == [1, 1, 1]
    assert [t.rule for t in traces] == ["uniform", "gs", "lipschitz"]


def test_race_replays_and_separates_streams():
    prob, _, _ = spd_problem(12)
    first = race(prob, ["uniform", "uniform", "gs"], 30, master_seed=7, tol=0.0)
    again = race(prob, ["uniform", "uniform", "gs"], 30, master_seed=7, tol=0.0)
    for a, b in zip(first, again):
        assert a.same_path(b)
    # the two uniform entries draw from independent streams
    assert first[0].coord != first[1].coord
    # deterministic rules ignore the master seed entirely
    other = race(prob, ["gs"], 30, master_seed=99, tol=0.0)
    assert first[2].same_path(other[0])


def count_calls(monkeypatch, owner, name, calls=None):
    """Count the calls of owner.name from now on, into ``calls`` (a new
    list if None), one entry each; returns the list."""
    calls = [] if calls is None else calls
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("family, m, n", [("l1_underdet_ls", 20, 60),
                                          ("sparse_ls", 30, 20),
                                          ("two_moons", None, 40)])
def test_a_second_run_rebuilds_nothing_the_problem_keeps(monkeypatch, family,
                                                         m, n):
    """Everything that depends on the problem alone is built by the first
    run: a second one makes no prox pass and no safe curvature, on the
    product path not even while it iterates."""
    problem = gen_experiment(family, m=m, n=n, seed=1).problem
    composite = isinstance(problem, CompositeProblem)
    names = ["uniform", "lipschitz", "cyclic", "gs", "gsl", "gs-approx-mult",
             "mi"]
    if composite:
        # a scatter-path update makes a one-off pass over its subset
        assert takes_product(problem.smooth.A)
        names += ["gs-s", "gs-r", "gs-q", "gsl-r", "gsl-q"]
    for name in names:
        for step in ("auto", "const", "const-coord"):
            run(problem, name, step=step, max_iters=0, seed=0)
            built = count_calls(monkeypatch, problems.ProxPass, "__init__")
            safe = []
            for module in vars(greedycd).values():
                if hasattr(module, "safe_curvature"):
                    count_calls(monkeypatch, module, "safe_curvature", safe)
            run(problem, name, step=step, max_iters=0, seed=0)
            if name != "mi":
                # mi recomputes every step from scratch by design
                run(problem, name, step=step, max_iters=15, tol=0.0, seed=0)
            assert built == [] and safe == [], (name, step)
            monkeypatch.undo()


def test_seeded_random_rules_pick_what_block_draws_give():
    """run(seed=s) draws the uniforms of default_rng(s), DRAW_BLOCK at a
    time, for an int seed and for a race's spawned SeedSequence."""
    prob = gen_experiment("sparse_ls", m=60, n=50, seed=3).problem
    L = prob.L_per_coord
    cum = np.cumsum(L / L.sum())
    cum[-1] = 1.0
    iters = 2 * DRAW_BLOCK + 40

    def expected(name, seed):
        rng = np.random.default_rng(seed)
        u = np.concatenate([rng.random(DRAW_BLOCK) for _ in range(3)])[:iters]
        if name == "uniform":
            return np.minimum((u * 50).astype(int), 49).tolist()
        return cum.searchsorted(u, side="right").tolist()

    names = ["uniform", "lipschitz"]
    for name in names:
        trace = run(prob, name, seed=7, max_iters=iters, tol=0.0)
        assert trace.coord[1:] == expected(name, 7)
    streams = np.random.SeedSequence(5).spawn(len(names))
    for name, stream, trace in zip(names, streams,
                                   race(prob, names, iters, master_seed=5,
                                        tol=0.0)):
        assert trace.coord[1:] == expected(name, stream)


def test_a_greedy_run_makes_no_generator(monkeypatch):
    prob, _, _ = spd_problem(15)
    comp = CompositeProblem(prob, L1Term(0.2))
    rng_calls = count_calls(monkeypatch, np.random, "default_rng")
    for name in ("gs", "gsl", "mi", "cyclic", "gs-approx-add"):
        run(prob, name, seed=3, max_iters=5)
    for name in ("gs-q", "gsl-q", "gs-s", "gs-r"):
        run(comp, name, seed=3, max_iters=5)
    assert rng_calls == []
    # the counter sees the one generator a random rule makes
    run(prob, "uniform", seed=3, max_iters=5)
    assert rng_calls == [1]
