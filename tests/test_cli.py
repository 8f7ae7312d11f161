"""The command-line front end: exit codes, outputs, and file artifacts."""

import json
import subprocess
import sys

import numpy as np
import pytest

from greedycd.cli import main
from greedycd.descent import RunTrace
from greedycd.problems import GraphQuadraticProblem, LeastSquaresProblem

GEN = ["gen", "--problem", "sparse_ls", "--m", "30", "--n", "20",
       "--seed", "1"]


def test_gen_run_race_pipeline(tmp_path, capsys):
    exp_dir = tmp_path / "exp"
    assert main(GEN + ["--out", str(exp_dir)]) == 0
    manifest = exp_dir / "manifest.json"
    assert manifest.exists()
    out = capsys.readouterr().out
    assert str(manifest) in out

    trace_path = tmp_path / "trace.csv"
    assert main(["run", "--manifest", str(manifest), "--rule", "gsl",
                 "--iters", "40", "--tol", "0", "--out",
                 str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "rule=gsl" in out and "iters=40" in out
    trace = RunTrace.read_csv(trace_path)
    assert len(trace) == 41
    assert trace.objective[-1] < trace.objective[0]

    race_dir = tmp_path / "race"
    assert main(["race", "--manifest", str(manifest),
                 "--rules", "uniform,gs,gsl", "--iters", "30",
                 "--out", str(race_dir)]) == 0
    out = capsys.readouterr().out
    for name in ("uniform", "gs", "gsl"):
        assert name in out
        assert (race_dir / f"trace_{name}.csv").exists()
    # the greedy run from the summary table must also be the stored one
    stored = RunTrace.read_csv(race_dir / "trace_gs.csv")
    assert f"{stored.objective[-1]:.12g}" in out
    # each row reports the loop's seconds next to its iterations
    lines = out.splitlines()
    assert lines[0].split()[:3] == ["rule", "iters", "seconds"]
    for line in lines[1:]:
        name, iters, seconds = line.split()[:3]
        trace = RunTrace.read_csv(race_dir / f"trace_{name}.csv")
        assert int(iters) == len(trace) - 1 == 30
        assert seconds == f"{trace.elapsed_ns[-1] * 1e-9:.4g}"
        assert float(seconds) > 0


def test_run_on_generated_problem(capsys):
    assert main(["run", "--problem", "dense_overdet_ls", "--m", "25",
                 "--n", "8", "--step", "exact", "--iters", "3000"]) == 0
    assert "converged=True" in capsys.readouterr().out


def test_run_iters_zero(capsys):
    assert main(["run", "--problem", "sparse_ls", "--m", "20", "--n", "10",
                 "--iters", "0"]) == 0
    assert "iters=0" in capsys.readouterr().out


def test_run_approx_rule_eps(capsys):
    assert main(["run", "--problem", "sparse_ls", "--m", "20", "--n", "10",
                 "--rule", "gs-approx-mult", "--eps", "0.25",
                 "--iters", "15"]) == 0
    assert "rule=gs-approx-mult" in capsys.readouterr().out


def test_run_bad_eps_fails(capsys):
    assert main(["run", "--problem", "sparse_ls", "--m", "20", "--n", "10",
                 "--rule", "gs-approx-mult", "--eps", "1.5",
                 "--iters", "5"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--problem", "sparse_logistic", "--m", "0", "--n", "5"],
    ["run", "--problem", "sparse_ls", "--m", "5", "--n", "0"],
    ["gen", "--problem", "two_moons", "--n", "3", "--out", "unused"],
])
def test_sizes_the_generator_cannot_build_fail_cleanly(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and " needs " in err


@pytest.mark.parametrize("key,value", [("labeled_nodes", [400]),
                                       ("labeled_nodes", 5),
                                       ("lambda", None)])
def test_run_malformed_manifest_fails_cleanly(key, value, tmp_path, capsys):
    assert main(["gen", "--problem", "two_moons", "--n", "40",
                 "--out", str(tmp_path)]) == 0
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[key] = value
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["run", "--manifest", str(path)]) == 1
    assert f"error: manifest key '{key}' must" in capsys.readouterr().err


def test_unknown_rule_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--problem", "sparse_ls", "--rule", "nosuch"])
    assert exc.value.code == 2


def test_problem_source_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--rule", "gs"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--problem", "sparse_ls", "--manifest", "x.json"])
    assert exc.value.code == 2


def test_run_nns_backend(capsys):
    assert main(["run", "--problem", "dense_overdet_ls", "--m", "30",
                 "--n", "12", "--rule", "gsl", "--backend", "nns",
                 "--iters", "25", "--tol", "0"]) == 0
    assert "rule=gsl" in capsys.readouterr().out


def test_x0_flag(tmp_path, capsys):
    from greedycd.linalg import save_dense_mtx

    x0 = np.full(10, 2.0)
    save_dense_mtx(tmp_path / "x0.mtx", x0)
    assert main(["run", "--problem", "sparse_ls", "--m", "20", "--n", "10",
                 "--iters", "0", "--x0", str(tmp_path / "x0.mtx")]) == 0
    start = float(capsys.readouterr().out.split("objective=")[1].split()[0])
    from greedycd.harness import gen_experiment
    exp = gen_experiment("sparse_ls", m=20, n=10, seed=0)
    assert start == pytest.approx(exp.problem.eval(x0), rel=1e-10)


def test_bounds_small_graph(capsys):
    assert main(["bounds", "--problem", "two_moons", "--n", "12",
                 "--lambda", "0.001", "--eps", "0.25"]) == 0
    out = capsys.readouterr().out
    for token in ("mu1", "muL", "uniform", "lipschitz", "gs", "gsl",
                  "gs-approx-mult(eps=0.25)"):
        assert token in out


def test_bounds_rejects_composite(capsys):
    assert main(["bounds", "--problem", "l1_underdet_ls", "--m", "10",
                 "--n", "8"]) == 1
    assert "quadratic" in capsys.readouterr().err


def test_bounds_brute_force_cap(capsys):
    assert main(["bounds", "--problem", "sparse_ls", "--m", "20",
                 "--n", "12"]) == 1
    assert "capped" in capsys.readouterr().err


@pytest.mark.parametrize("problem", [
    ["--problem", "two_moons", "--n", "300"],
    ["--problem", "sparse_ls", "--m", "20", "--n", "12"]])
def test_bounds_refuses_before_the_dense_hessian(monkeypatch, capsys,
                                                 problem):
    def refused(self):
        raise AssertionError("built the dense Hessian of a refused size")

    monkeypatch.setattr(GraphQuadraticProblem, "hessian", refused)
    monkeypatch.setattr(LeastSquaresProblem, "hessian", refused)
    assert main(["bounds"] + problem) == 1
    assert "capped" in capsys.readouterr().err


def test_counterexample_command(capsys):
    assert main(["counterexample"]) == 0
    out = capsys.readouterr().out
    assert out.count("exceeds factor") == 2
    assert "guaranteed factor" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "greedycd.cli", "run", "--problem",
         "sparse_ls", "--m", "20", "--n", "10", "--iters", "5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "rule=gs" in proc.stdout
