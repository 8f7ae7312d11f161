"""The benchmark's workloads: problem family, sizes, rules, budgets, targets.

Each workload runs one rule per role on ``instances`` problems.  The
problem data are fixed per workload (instance j is generated with seed j),
every run starts from the library's default x0 (the origin), and the run's
``--seed`` draws each rule's PRNG stream.  The greedy rules are
deterministic, so their counts to the gap repeat on every seed; the random
rule's counts move with its stream, and averaging over instances and
streams keeps them steady.  The data are not drawn from the seed because the count to a
gap moves by a quarter or more from one generated problem to the next (a
few heavily scaled columns carry most of f0 - f*); keeping those counts
within their bounds would take ten times the run length.

Roles name what a rule stands for in the paper's comparison:

* ``random``: uniform sampling;
* ``greedy``: Gauss-Southwell (``gs``, or ``gs-q`` on composite problems);
* ``greedy_lip``: Gauss-Southwell-Lipschitz (``gsl``, or ``gsl-q``);
* ``tree``: ``gsl`` answered by the ball tree (``backend="nns"``).

Every rule runs with the library defaults, ``tol=0`` and a fixed iteration
budget.  A greedy rule's budget is about twice its largest (deterministic)
count to the target; the random rule's is at least 1.5 times the largest
count seen over 50 to 130 streams, far enough into the tail that every run
reaches the target.
"""

from dataclasses import dataclass

import numpy as np

ROLES = ("random", "greedy", "greedy_lip", "tree")


@dataclass(frozen=True)
class Role:
    name: str
    rule: str
    budget: int
    streams: int = 1           # runs per instance, each with its own stream
    backend: str = None        # None: the library default


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    m: int
    n: int
    lam: float
    target: float               # relative gap (f_k - f*) / (f_0 - f*)
    instances: int
    roles: tuple
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "sparse-ls", "sparse_ls", 200, 200, 1.0, 0.3, 6,
        (Role("random", "uniform", 450, streams=2),
         Role("greedy", "gs", 50), Role("greedy_lip", "gsl", 50)),
        "the paper's headline comparison; time goes to the H1 column "
        "update, the row scatter into A^T grad and the heap"),
    Workload(
        "graph-lp", "two_moons", None, 2000, 1.0, 0.1, 3,
        (Role("random", "uniform", 34000, streams=4),
         Role("greedy", "gs", 200), Role("greedy_lip", "gsl", 200)),
        "label propagation with about 11 neighbours per update; time goes "
        "to selection, the O(n) stopping test, the guards and the trace"),
    Workload(
        "lasso-prox", "l1_underdet_ls", 50, 500, 1.0, 0.3, 4,
        (Role("random", "uniform", 1100, streams=3),
         Role("greedy", "gs-q", 120),
         Role("greedy_lip", "gsl-q", 20)),
        "the only proximal workload; short wide matrix, so short columns "
        "and long rows, and prox steps over all n coordinates"),
    Workload(
        "dense-tree", "dense_overdet_ls", 60, 20, 0.0, 0.01, 8,
        (Role("random", "uniform", 500, streams=3),
         Role("greedy", "gs", 120), Role("greedy_lip", "gsl", 60),
         Role("tree", "gsl", 60, backend="nns")),
        "every update touches all m*n entries, so a greedy pick costs a "
        "full gradient; the only workload with the ball tree"),
)}


def rule_seed(seed, instance, role, stream):
    """Seed of one run's PRNG stream, drawn from the run's seed."""
    return int(np.random.SeedSequence(
        [seed, instance, ROLES.index(role), stream]).generate_state(1)[0])
