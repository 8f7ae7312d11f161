"""Greedy coordinate descent: selection rules, incremental gradient
trackers that also keep the stopping test, a brute-force nearest-neighbour
index that answers gsl (one dense product per query, still slower than a
scan), and rate analysis."""

from .analysis import (
    ConvexityConstants,
    additive_gap_bound,
    chain_rate_factors,
    gsq_certificate,
    hessian_constants,
    mu1_brute,
    mu1_diag,
    muL_brute,
    muL_diag,
    mu_ell2,
    rate_factor,
    rate_table,
)
from .descent import RunTrace, race, run
from .harness import (
    Experiment,
    gen_experiment,
    load_experiment,
    reference_minimum,
    run_counterexamples,
    save_experiment,
)
from .linalg import IndexedMaxHeap, SparseMatrix
from .nns import BallTreeIndex
from .problems import (
    BoxTerm,
    CompositeProblem,
    GraphQuadraticProblem,
    L1Term,
    LeastSquaresProblem,
    LogisticProblem,
    ZeroTerm,
    quadratic_problem,
)
from .rules import RULE_NAMES, make_rule
from .tracker import make_tracker

__all__ = [
    "BallTreeIndex",
    "BoxTerm",
    "CompositeProblem",
    "ConvexityConstants",
    "Experiment",
    "GraphQuadraticProblem",
    "IndexedMaxHeap",
    "L1Term",
    "LeastSquaresProblem",
    "LogisticProblem",
    "RULE_NAMES",
    "RunTrace",
    "SparseMatrix",
    "ZeroTerm",
    "additive_gap_bound",
    "chain_rate_factors",
    "gen_experiment",
    "gsq_certificate",
    "hessian_constants",
    "load_experiment",
    "make_rule",
    "make_tracker",
    "mu1_brute",
    "mu1_diag",
    "muL_brute",
    "muL_diag",
    "mu_ell2",
    "quadratic_problem",
    "race",
    "rate_factor",
    "rate_table",
    "reference_minimum",
    "run",
    "run_counterexamples",
    "save_experiment",
]
