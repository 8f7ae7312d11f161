"""Tests of the benchmark itself.

Each correctness check must pass on real runs and reject a deliberately
corrupted output, and installing the tracing wrappers must not change a
run's path.  Run from the root of the repository:

    python -m pytest perfbench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

from greedycd import descent, harness  # noqa: E402

import layers  # noqa: E402
import oracle  # noqa: E402

# (family, m, n, lam, rule, backend): small versions of every workload's runs
CASES = [
    ("sparse_ls", 40, 30, 1.0, "uniform", None),
    ("sparse_ls", 40, 30, 1.0, "gs", None),
    ("sparse_ls", 40, 30, 1.0, "gsl", None),
    ("l1_underdet_ls", 20, 60, 1.0, "gs-q", None),
    ("l1_underdet_ls", 20, 60, 1.0, "gsl-q", None),
    ("two_moons", None, 80, 1.0, "gs", None),
    ("two_moons", None, 80, 1.0, "gsl", None),
    ("dense_overdet_ls", 30, 10, 0.0, "gsl", None),
    ("dense_overdet_ls", 30, 10, 0.0, "gsl", "nns"),
]


def solve(case, iters=60):
    family, m, n, lam, rule, backend = case
    exp = harness.gen_experiment(family, m=m, n=n, lam=lam, seed=7)
    exp.x0 = 0.1 * np.random.default_rng(2).standard_normal(exp.problem.n)
    kwargs = {} if backend is None else {"backend": backend}
    trace = descent.run(exp.problem, rule, x0=exp.x0, max_iters=iters,
                        tol=0.0, seed=1, **kwargs)
    return exp, oracle.Oracle.from_experiment(exp), trace


@pytest.fixture(scope="module")
def gsl_run():
    return solve(CASES[2])


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[4]}-{c[5]}")
def test_every_check_passes_on_a_real_run(case):
    exp, orc, trace = solve(case)
    errors = (oracle.check_above_fstar(trace, orc)
              + oracle.check_monotone(trace)
              + oracle.check_final(trace, orc, exp.x0))
    if case[4] != "uniform":
        errors += oracle.check_picks(trace, orc, case[4], exp.x0,
                                     samples=len(trace))
    assert errors == []
    assert orc.gap_iters(trace.objective, 0.5) is not None


def test_oracle_fstar_is_a_minimum_the_program_agrees_with(gsl_run):
    exp, orc, _ = gsl_run
    fstar, _ = harness.reference_minimum(exp.problem)
    assert abs(orc.fstar - fstar) <= 1e-9 * max(1.0, abs(fstar))
    assert np.abs(orc.smooth_gradient(orc.xstar)).max() < 1e-8


def test_objective_below_fstar_is_rejected(gsl_run):
    _, orc, trace = gsl_run
    bad = copy.deepcopy(trace)
    bad.objective[-1] = orc.fstar - 1e-6 * max(1.0, abs(orc.fstar))
    assert oracle.check_above_fstar(bad, orc)


def test_swapped_greedy_pick_is_rejected(gsl_run):
    exp, orc, trace = gsl_run
    bad = copy.deepcopy(trace)
    j = next(k for k in range(1, len(bad) - 1)
             if bad.coord[k] != bad.coord[k + 1])
    bad.coord[j], bad.coord[j + 1] = bad.coord[j + 1], bad.coord[j]
    assert oracle.check_picks(bad, orc, "gsl", exp.x0, samples=len(bad))


def test_drifted_final_objective_is_rejected(gsl_run):
    exp, orc, trace = gsl_run
    bad = copy.deepcopy(trace)
    bad.objective[-1] -= 1e-7 * max(1.0, abs(bad.objective[-1]))
    assert oracle.check_final(bad, orc, exp.x0)


def test_moved_final_point_is_rejected(gsl_run):
    exp, orc, trace = gsl_run
    bad = copy.deepcopy(trace)
    bad.final_x = bad.final_x.copy()
    bad.final_x[bad.coord[-1]] += 1e-3
    assert oracle.check_final(bad, orc, exp.x0)


def test_rising_objective_is_rejected(gsl_run):
    _, _, trace = gsl_run
    bad = copy.deepcopy(trace)
    bad.objective[5] = bad.objective[4] + 1e-6
    assert oracle.check_monotone(bad)


def test_tree_picks_that_differ_are_rejected(gsl_run):
    _, _, trace = gsl_run
    bad = copy.deepcopy(trace)
    bad.coord[3] = (bad.coord[3] + 1) % 30
    assert oracle.check_same_picks(trace, trace) == []
    assert oracle.check_same_picks(bad, trace)


def test_changed_manifest_is_rejected(gsl_run, tmp_path):
    exp = gsl_run[0]
    loaded = harness.load_experiment(harness.save_experiment(exp, tmp_path))
    assert oracle.check_manifest(exp.problem, loaded.problem, 0) == []
    other = harness.gen_experiment("sparse_ls", m=40, n=30, seed=8)
    assert oracle.check_manifest(exp.problem, other.problem, 0)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[4]}-{c[5]}")
def test_tracing_keeps_the_path(case):
    _, _, plain = solve(case)
    tracer = layers.Tracer()
    tracer.role = "r"
    original = descent.run
    with layers.installed(tracer):
        _, _, traced = solve(case)
    assert descent.run is original
    assert traced.same_path(plain)
    assert tracer.ncalls("r", "descent.trace") == len(plain)
    updates = tracer.ncalls("r", "tracker.update")
    assert updates == len(plain) - 1


def test_self_time_excludes_children():
    tracer = layers.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    total = tracer.total("setup", "outer")
    assert tracer.ncalls("setup", "inner") == 2
    assert tracer.self_time("setup", "outer") == (
        total - tracer.total("setup", "inner", parent="outer"))


def test_fastest_chunk_timing():
    import run
    c = 10                                    # iterations per chunk
    step = run.CHUNK_NS // c
    fast, slow = np.full(2 * c, step), np.full(2 * c, 3 * step)
    # round 0 is slow in its first chunk, round 1 in its second
    steps = [np.concatenate([slow[:c], fast[c:]]),
             np.concatenate([fast[:c], slow[c:]])]
    samples = [(1e-9 * (s.sum() + 500), np.concatenate([[0], np.cumsum(s)]))
               for s in steps]
    assert run.fastest_ns(samples) == pytest.approx(2 * c * step + 500)
    assert run.fastest_ns(samples, k=c + 5) == (c + 5) * step


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse-ls",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_every_reported_metric():
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    layer_names = ([n for n, _ in run.SETUP_LAYERS]
                   + [f"{r}.{n}" for r in run.ROLES for n, _ in run.ROLE_LAYERS])
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
