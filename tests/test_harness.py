"""Experiment generators, manifest round trips, reference minima, and the
showcase-case report."""

import json
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedycd import harness
from greedycd.harness import (
    Experiment,
    gen_experiment,
    load_experiment,
    reference_minimum,
    run_counterexamples,
    save_experiment,
)
from greedycd.problems import (
    CompositeProblem,
    GraphQuadraticProblem,
    LeastSquaresProblem,
    LogisticProblem,
)

from helpers import brute_knn_edges

SMALL = {
    "sparse_ls": dict(m=40, n=30),
    "sparse_logistic": dict(m=50, n=20),
    "dense_overdet_ls": dict(m=60, n=15),
    "l1_underdet_ls": dict(m=15, n=40),
    "two_moons": dict(n=40),
}


def small(name, **overrides):
    kw = dict(SMALL[name], seed=0)
    kw.update(overrides)
    return gen_experiment(name, **kw)


# --- generators -------------------------------------------------------------

def test_generator_defaults_and_kinds():
    exp = gen_experiment("sparse_ls", m=80, n=120, seed=3)
    assert exp.kind == "ls"
    assert isinstance(exp.problem, LeastSquaresProblem)
    assert exp.problem.l2_reg == 1.0
    assert exp.scale == pytest.approx(1.0 / (2 * 80))
    assert exp.matrix.shape == (80, 120)

    exp = gen_experiment("dense_overdet_ls", m=90, n=12, seed=3)
    assert exp.kind == "ls" and exp.problem.l2_reg == 0.0
    # the overdetermined family keeps every entry
    assert np.all(exp.matrix.to_dense() != 0.0)

    exp = gen_experiment("l1_underdet_ls", m=20, n=50, seed=3)
    assert exp.kind == "l1_ls"
    assert isinstance(exp.problem, CompositeProblem)
    assert exp.lam == 1.0 and exp.scale == 0.5

    exp = gen_experiment("sparse_logistic", m=70, n=25, seed=3)
    assert exp.kind == "logistic"
    assert isinstance(exp.problem, LogisticProblem)

    exp = gen_experiment("two_moons", n=40, seed=3)
    assert exp.kind == "graph"
    assert isinstance(exp.problem, GraphQuadraticProblem)
    assert exp.problem.n == 40 - 5


def test_gen_unknown_name():
    with pytest.raises(ValueError, match="unknown experiment"):
        gen_experiment("nosuch")


@pytest.mark.parametrize("name,m,n,message", [
    ("sparse_logistic", 0, 5, "needs m >= 1, got m=0"),
    ("sparse_ls", 5, 0, "needs n >= 1, got n=0"),
    ("dense_overdet_ls", -2, 3, "needs m >= 1, got m=-2"),
    ("l1_underdet_ls", 4, -1, "needs n >= 1, got n=-1"),
    ("two_moons", None, 4, "needs n >= 5, got n=4"),
    ("two_moons", None, 0, "needs n >= 5, got n=0"),
])
def test_gen_rejects_sizes_it_cannot_build(name, m, n, message):
    with pytest.raises(ValueError, match=f"{name} {message}"):
        gen_experiment(name, m=m, n=n)
    # the smallest accepted size builds
    gen_experiment(name, m=None if m is None else 1,
                   n=5 if name == "two_moons" else 1)


def test_gen_is_deterministic_in_the_seed():
    a = gen_experiment("sparse_ls", m=30, n=25, seed=9)
    b = gen_experiment("sparse_ls", m=30, n=25, seed=9)
    c = gen_experiment("sparse_ls", m=30, n=25, seed=10)
    assert np.array_equal(a.matrix.to_dense(), b.matrix.to_dense())
    assert np.array_equal(a.rhs, b.rhs)
    assert not np.array_equal(a.matrix.to_dense(), c.matrix.to_dense())


def test_sparse_mask_density():
    # Bernoulli(10 ln n / n) entries kept: binomial count within 5 sigma.
    m, n = 400, 300
    exp = gen_experiment("sparse_ls", m=m, n=n, seed=11)
    p = 10.0 * math.log(n) / n
    nnz = np.count_nonzero(exp.matrix.to_dense())
    sd = math.sqrt(m * n * p * (1 - p))
    assert abs(nnz - m * n * p) < 5 * sd


def test_logistic_label_flip_rate():
    m = 2000
    exp = gen_experiment("sparse_logistic", m=m, n=60, seed=12)
    assert set(np.unique(exp.labels)) <= {-1.0, 1.0}
    # regenerate the pre-flip signs to count actual flips
    rng = np.random.default_rng(12)
    dense = harness._design_matrix(rng, m, 60, sparsify=True)
    clean = np.sign(dense @ rng.standard_normal(60))
    clean[clean == 0] = 1.0
    flips = int((clean != exp.labels).sum())
    sd = math.sqrt(m * 0.1 * 0.9)
    assert abs(flips - 0.1 * m) < 5 * sd


def test_two_moons_structure():
    n = 200
    exp = gen_experiment("two_moons", n=n, seed=13)
    coo = exp.matrix.to_scipy_csc().tocoo()
    assert np.all(coo.row < coo.col)          # upper triangle only
    assert np.all(coo.data == 1.0)            # unit weights
    deg = np.zeros(n)
    np.add.at(deg, coo.row, 1)
    np.add.at(deg, coo.col, 1)
    assert deg.min() >= 5                     # 5-NN before symmetrisation
    assert len(exp.labeled_nodes) == 5
    assert exp.labeled_nodes == sorted(set(exp.labeled_nodes))
    on = np.zeros(n, dtype=bool)
    on[exp.labeled_nodes] = True
    assert set(np.unique(exp.labels[on])) <= {-1.0, 1.0}
    assert np.all(exp.labels[~on] == 0.0)
    assert exp.problem.n == n - 5
    assert not set(exp.labeled_nodes) & set(exp.free_nodes.tolist())


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 8), extra=st.integers(0, 150), dim=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_knn_edges_match_brute_force(k, extra, dim, seed):
    # uniform points are in general position (no tied distances), so the
    # k nearest neighbours of every point are unique
    pts = np.random.default_rng(seed).random((k + 1 + extra, dim))
    edges, weights = harness._knn_edges(pts, k)
    want = brute_knn_edges(pts, k)
    assert edges.dtype == want.dtype and np.array_equal(edges, want)
    assert np.array_equal(weights, np.ones(len(want)))


def test_knn_edges_tiny_and_coincident_clouds():
    rng = np.random.default_rng(3)
    # at most k other points: everyone is everyone's neighbour, no self-loop
    for n in range(1, 7):
        edges, _ = harness._knn_edges(rng.random((n, 2)), 5)
        want = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert edges.reshape(-1, 2).tolist() == [list(e) for e in want]
    # a point listed after its duplicate is still dropped from its own list
    pts = rng.random((50, 2))
    pts[10:14] = pts[3]
    edges, _ = harness._knn_edges(pts, 5)
    assert np.all(edges[:, 0] < edges[:, 1])
    deg = np.bincount(edges.ravel(), minlength=50)
    assert deg.min() >= 5


# (n, seed) of every two_moons experiment the acceptance test c11
# (n = 300, seeds 0-9), the graph-lp benchmark workload and
# tools/same_traces.py (n = 2000, seeds 0-2; n = 300, seed 0) generate
@pytest.mark.parametrize("n,seed", [(300, s) for s in range(10)]
                         + [(2000, s) for s in range(3)])
def test_two_moons_edges_match_brute_force(n, seed):
    exp = gen_experiment("two_moons", n=n, seed=seed)
    pts, _ = harness._two_moons_points(np.random.default_rng(seed), n, 0.1)
    edges, weights = harness._edges_from_adjacency(exp.matrix)
    # the adjacency lists its entries column by column
    assert np.array_equal(np.unique(edges, axis=0), brute_knn_edges(pts, 5))
    assert np.all(weights == 1.0)


def test_ls_objective_at_origin_matches_formula():
    exp = small("sparse_ls")
    want = exp.scale * float(exp.rhs @ exp.rhs)
    assert exp.problem.eval(np.zeros(exp.problem.n)) == pytest.approx(
        want, rel=1e-12)


# --- manifests --------------------------------------------------------------

@pytest.mark.parametrize("name", harness.GENERATORS)
def test_manifest_round_trip(name, tmp_path):
    exp = small(name)
    path = save_experiment(exp, tmp_path / name)
    manifest = json.loads((tmp_path / name / "manifest.json").read_text())
    assert set(manifest) == set(harness.MANIFEST_KEYS)
    loaded = load_experiment(path)
    assert loaded.kind == exp.kind
    assert loaded.lam == exp.lam
    rng = np.random.default_rng(0)
    x = 0.01 * rng.standard_normal(exp.problem.n)
    assert loaded.problem.eval(x) == exp.problem.eval(x)
    if exp.free_nodes is not None:
        assert np.array_equal(loaded.free_nodes, exp.free_nodes)


def test_manifest_null_pattern(tmp_path):
    pattern = {
        # kind -> keys that must be non-null besides matrix/lambda
        "sparse_ls": {"rhs", "scale"},
        "sparse_logistic": {"labels"},
        "l1_underdet_ls": {"rhs", "scale"},
        "two_moons": {"labels", "labeled_nodes"},
    }
    always = {"kind", "matrix", "lambda"}
    for name, extra in pattern.items():
        save_experiment(small(name), tmp_path / name)
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        non_null = {k for k, v in manifest.items() if v is not None}
        assert non_null == always | extra | ({"x0"} & non_null)


def test_manifest_missing_key_rejected(tmp_path):
    path = save_experiment(small("sparse_ls"), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    del manifest["scale"]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="missing keys: scale"):
        load_experiment(path)


@pytest.mark.parametrize("name,key", [
    ("sparse_ls", "rhs"),
    ("l1_underdet_ls", "rhs"),
    ("sparse_logistic", "labels"),
    ("two_moons", "labels"),
    ("two_moons", "labeled_nodes"),
])
def test_manifest_empty_kind_key_is_named(name, key, tmp_path):
    path = save_experiment(small(name), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest[key] = None
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=f"manifest needs '{key}'"):
        load_experiment(path)


@pytest.mark.parametrize("name,key,value", [
    ("two_moons", "labeled_nodes", [-1]),
    ("two_moons", "labeled_nodes", [1.5]),
    ("two_moons", "labeled_nodes", [400]),
    ("two_moons", "labeled_nodes", 5),
    ("two_moons", "labeled_nodes", [True]),
    ("sparse_ls", "scale", None),
    ("l1_underdet_ls", "scale", None),
    ("sparse_ls", "scale", 0.0),
    ("dense_overdet_ls", "scale", float("nan")),
    ("l1_underdet_ls", "scale", "0.5"),
    ("sparse_ls", "lambda", None),
    ("sparse_logistic", "lambda", "1.0"),
    ("l1_underdet_ls", "lambda", float("inf")),
    ("two_moons", "lambda", float("nan")),
    ("sparse_ls", "kind", ["ls"]),
    ("sparse_ls", "matrix", None),
    ("two_moons", "matrix", 5),
    ("sparse_ls", "rhs", 5),
    ("sparse_logistic", "x0", 7),
    ("two_moons", "labels", ["labels.npy"]),
])
def test_manifest_malformed_value_is_named(name, key, value, tmp_path):
    path = save_experiment(small(name), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest[key] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=f"manifest key '{key}' must"):
        load_experiment(path)


def test_negative_graph_regulariser_is_refused(tmp_path):
    # it would make the Hessian indefinite and the energy unbounded below
    with pytest.raises(ValueError, match="node_reg must be nonnegative"):
        gen_experiment("two_moons", n=40, lam=-3.0)
    path = save_experiment(small("two_moons"), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["lambda"] = -3.0
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="node_reg must be nonnegative"):
        load_experiment(path)


def test_manifest_graph_labels_need_one_per_node(tmp_path):
    path = save_experiment(small("two_moons"), tmp_path)
    harness.save_dense_mtx(tmp_path / "labels.mtx", np.ones(39))
    with pytest.raises(ValueError, match="manifest key 'labels' must"):
        load_experiment(path)


def _same_bytes(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None and a.dtype == b.dtype
        and a.shape == b.shape and a.tobytes() == b.tobytes())


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(harness.GENERATORS), m=st.integers(1, 40),
       n=st.integers(6, 40),
       lam=st.none() | st.floats(0.0, 10.0, allow_subnormal=False),
       seed=st.integers(0, 2**32 - 1))
def test_manifest_round_trip_is_bitwise(name, m, n, lam, seed):
    exp = gen_experiment(name, m=m, n=n, lam=lam, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        loaded = load_experiment(save_experiment(exp, tmp))
    for attr in ("col_indptr", "col_rows", "col_vals", "row_indptr",
                 "row_cols", "row_vals"):
        assert _same_bytes(getattr(loaded.matrix, attr),
                           getattr(exp.matrix, attr)), attr
    assert loaded.matrix.shape == exp.matrix.shape
    assert _same_bytes(loaded.rhs, exp.rhs)
    assert _same_bytes(loaded.labels, exp.labels)
    assert _same_bytes(loaded.free_nodes, exp.free_nodes)
    assert (loaded.kind, loaded.lam, loaded.scale, loaded.labeled_nodes) == (
        exp.kind, exp.lam, exp.scale, exp.labeled_nodes)
    x = np.random.default_rng(seed).standard_normal(exp.problem.n)
    assert loaded.problem.eval(x) == exp.problem.eval(x)


def test_x0_round_trip(tmp_path):
    exp = small("sparse_ls")
    exp.x0 = np.linspace(-1.0, 1.0, exp.problem.n)
    path = save_experiment(exp, tmp_path)
    loaded = load_experiment(path)
    assert np.array_equal(loaded.x0, exp.x0)


# --- reference minima -------------------------------------------------------

def test_reference_minimum_least_squares():
    exp = small("sparse_ls", seed=4)
    p = exp.problem
    fstar, xstar = reference_minimum(p)
    A = exp.matrix.to_dense()
    H = 2 * p.scale * A.T @ A + p.l2_reg * np.eye(p.n)
    want = np.linalg.solve(H, 2 * p.scale * A.T @ exp.rhs)
    np.testing.assert_allclose(xstar, want, rtol=1e-9, atol=1e-12)
    assert fstar == pytest.approx(p.eval(want), rel=1e-12)


def test_reference_minimum_rank_deficient_ls():
    # duplicated column, no ridge: the normal equations are singular but
    # every solution attains the same minimum
    rng = np.random.default_rng(5)
    A = rng.standard_normal((12, 4))
    A = np.column_stack([A, A[:, 0]])
    b = rng.standard_normal(12)
    p = LeastSquaresProblem(A, b, scale=0.5)
    fstar, xstar = reference_minimum(p)
    z = np.linalg.lstsq(A, b, rcond=None)[0]
    assert fstar == pytest.approx(p.eval(z), rel=1e-10)
    g = p.full_grad(xstar)
    assert np.abs(g).max() < 1e-8


def test_reference_minimum_l1_kkt():
    exp = small("l1_underdet_ls", seed=6)
    fstar, xstar = reference_minimum(exp.problem)
    assert fstar == pytest.approx(exp.problem.eval(xstar), rel=1e-12)
    g = exp.problem.smooth.full_grad(xstar)
    scale = max(1.0, np.abs(g).max())
    on = xstar != 0
    assert np.abs(g[on] + np.sign(xstar[on])).max() < 1e-6 * scale
    assert (np.abs(g[~on]) - 1.0).max() < 1e-8 * scale


def test_reference_minimum_box_kkt():
    from greedycd.problems import BoxTerm

    rng = np.random.default_rng(7)
    A = rng.standard_normal((10, 6))
    b = rng.standard_normal(10) - 2.0
    comp = CompositeProblem(LeastSquaresProblem(A, b, scale=0.5),
                            BoxTerm(0.0, np.inf))
    fstar, xstar = reference_minimum(comp)
    g = comp.smooth.full_grad(xstar)
    assert xstar.min() >= 0.0
    assert np.all(g[xstar == 0.0] >= -1e-8)
    active = xstar > 0
    if active.any():
        assert np.abs(g[active]).max() < 1e-7


def test_reference_minimum_logistic():
    exp = small("sparse_logistic", seed=8)
    fstar, xstar = reference_minimum(exp.problem)
    assert np.abs(exp.problem.full_grad(xstar)).max() < 1e-6
    assert fstar == pytest.approx(exp.problem.eval(xstar), rel=1e-12)


def test_reference_minimum_graph():
    exp = small("two_moons", seed=9, lam=1e-3)
    fstar, xstar = reference_minimum(exp.problem)
    H = exp.problem.hessian()
    want = np.linalg.solve(H, exp.problem.node_lin)
    np.testing.assert_allclose(xstar, want, rtol=1e-8, atol=1e-12)
    assert fstar == pytest.approx(exp.problem.eval(want), rel=1e-12)


# --- showcase cases and self-checks -----------------------------------------

def test_counterexample_report_values():
    cases = {c.name: c for c in run_counterexamples()}
    assert set(cases) == {"nonnegative", "l1"}

    nn = cases["nonnegative"]
    assert nn.f0 == pytest.approx(6.71245, rel=1e-12)
    assert nn.fstar == 5.0
    assert nn.rho == pytest.approx(1 / 1.49, rel=1e-12)
    rows = {rule: (coord, f1, ratio) for rule, coord, f1, ratio in nn.rows}
    assert rows["gs-s"][0] == 1
    assert rows["gs-s"][1] == pytest.approx(6.5, rel=1e-12)
    assert rows["gs-s"][2] == pytest.approx(1.5 / 1.71245, rel=1e-12)
    for rule in ("gs-r", "gs-q"):
        assert rows[rule][0] == 0
        assert rows[rule][1] == pytest.approx(5.21245, rel=1e-12)
        assert rows[rule][2] == pytest.approx(0.21245 / 1.71245, rel=1e-12)

    l1 = cases["l1"]
    assert l1.f0 == pytest.approx(3.09125, rel=1e-12)
    assert l1.fstar == 2.0
    rows = {rule: (coord, f1, ratio) for rule, coord, f1, ratio in l1.rows}
    assert rows["gs-r"][0] == 0
    assert rows["gs-r"][1] == pytest.approx(2.91125, rel=1e-12)
    assert rows["gs-r"][2] == pytest.approx(0.91125 / 1.09125, rel=1e-12)
    for rule in ("gs-s", "gs-q"):
        assert rows[rule][0] == 1
        assert rows[rule][1] == pytest.approx(2.18, rel=1e-12)
        assert rows[rule][2] == pytest.approx(0.18 / 1.09125, rel=1e-12)

    # the model-decrease rule honours the guaranteed factor on both cases;
    # each of the other two rules breaks it on one case
    for case in cases.values():
        by_rule = {rule: ratio for rule, _, _, ratio in case.rows}
        assert by_rule["gs-q"] <= case.rho + 1e-12
    assert cases["nonnegative"].rows[0][3] > cases["nonnegative"].rho
    assert cases["l1"].rows[1][3] > cases["l1"].rho


def test_counterexample_text_mentions_breaches():
    text = harness.counterexample_text(run_counterexamples())
    assert text.count("exceeds factor") == 2
    assert "nonnegative" in text and "l1" in text


def test_experiment_dataclass_repr_hides_problem():
    exp = small("sparse_ls")
    assert isinstance(exp, Experiment)
    assert "problem=" not in repr(exp)
