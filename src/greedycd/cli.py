"""Command-line front end.

Subcommands:

* ``gen``            write an experiment directory (matrices + manifest.json)
* ``run``            minimise with one rule, print a summary, optionally
                     write the trace CSV
* ``race``           run several rules with independent PRNG streams and
                     print a comparison table (iterations and seconds in
                     the loop, final objective and residual)
* ``bounds``         contraction-factor table for a smooth quadratic problem
* ``counterexample`` one proximal step of each greedy rule on the two
                     showcase problems

Exit status: 0 on success, 1 on failure, 2 on usage errors.
"""

import os
import sys

import argparse

from . import harness
from .analysis import check_sparse_hessian, hessian_constants, rate_table
from .descent import STEP_MODES, race, run
from .linalg import load_dense_mtx
from .rules import RULE_NAMES, make_rule
from .tracker import BACKENDS

BACKEND_HELP = ("score selection: scan (default; flat array and argmax), "
                "heap (indexed max-heap built by one sort; pays off only on "
                "large sparse graphs, about n >= 2e5 on a chain), nns "
                "(brute-force nearest-neighbour search over the normalised "
                "columns, gsl only)")


def _add_problem_args(p):
    src = p.add_argument_group("problem source (pass --manifest or --problem)")
    src.add_argument("--manifest", metavar="PATH",
                     help="manifest.json of a saved experiment")
    src.add_argument("--problem", choices=harness.GENERATORS,
                     help="generate an experiment on the fly")
    src.add_argument("--m", type=int, help="rows (generator default if omitted)")
    src.add_argument("--n", type=int, help="columns / nodes")
    src.add_argument("--lambda", dest="lam", type=float,
                     help="regularisation weight")
    src.add_argument("--seed", type=int, default=0, help="generator seed")
    src.add_argument("--noise", type=float, default=0.1,
                     help="point-cloud noise (two_moons only)")


def _load_problem(args):
    if bool(args.manifest) == bool(args.problem):
        args._parser.error("pass exactly one of --manifest / --problem")
    if args.manifest:
        return harness.load_experiment(args.manifest)
    return harness.gen_experiment(args.problem, m=args.m, n=args.n,
                                  lam=args.lam, seed=args.seed,
                                  noise=args.noise)


def _resolve_x0(args, exp):
    if getattr(args, "x0", None):
        return load_dense_mtx(args.x0)
    return exp.x0


def cmd_gen(args):
    exp = harness.gen_experiment(args.problem, m=args.m, n=args.n,
                                 lam=args.lam, seed=args.seed,
                                 noise=args.noise)
    path = harness.save_experiment(exp, args.out)
    print(f"wrote {path}")
    return 0


def cmd_run(args):
    exp = _load_problem(args)
    rule = make_rule(args.rule, eps=args.eps)
    trace = run(exp.problem, rule, step=args.step, x0=_resolve_x0(args, exp),
                max_iters=args.iters, tol=args.tol, backend=args.backend,
                seed=args.rule_seed)
    if args.out:
        trace.write_csv(args.out)
    print(f"rule={trace.rule} iters={len(trace) - 1} "
          f"objective={trace.objective[-1]:.12g} "
          f"resid_inf={trace.resid_inf[-1]:.6g} converged={trace.converged}")
    return 0


def cmd_race(args):
    names = [s.strip() for s in args.rules.split(",") if s.strip()]
    if not names:
        args._parser.error("--rules must name at least one rule")
    unknown = [name for name in names if name not in RULE_NAMES]
    if unknown:
        args._parser.error(f"--rules names unknown rule {unknown[0]!r}; "
                           f"expected one of {', '.join(RULE_NAMES)}")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        # each rule writes trace_<rule>.csv, so a repeat would overwrite one
        args._parser.error(f"--rules repeats {', '.join(repeated)}")
    exp = _load_problem(args)
    rules = [make_rule(name, eps=args.eps) for name in names]
    traces = race(exp.problem, rules, args.iters,
                  master_seed=args.master_seed, step=args.step,
                  x0=_resolve_x0(args, exp), tol=args.tol,
                  backend=args.backend)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for trace in traces:
            trace.write_csv(os.path.join(args.out, f"trace_{trace.rule}.csv"))
    width = max(len(t.rule) for t in traces)
    print(f"{'rule':<{width}}  {'iters':>6}  {'seconds':>10}  "
          f"{'objective':>20}  {'resid_inf':>12}  converged")
    for t in traces:
        print(f"{t.rule:<{width}}  {len(t) - 1:>6}  "
              f"{t.elapsed_ns[-1] * 1e-9:>10.4g}  "
              f"{t.objective[-1]:>20.12g}  {t.resid_inf[-1]:>12.4g}  "
              f"{t.converged}")
    return 0


def cmd_bounds(args):
    exp = _load_problem(args)
    problem = exp.problem
    if not getattr(problem, "is_quadratic", False):
        raise ValueError("bounds needs a smooth quadratic problem "
                         "(a least-squares or graph experiment)")
    check_sparse_hessian(problem)
    consts = hessian_constants(problem.hessian(), L_per=problem.L_per_coord)
    consts.check_sandwiches()
    print(f"n = {consts.n}")
    for label, value in (("mu", consts.mu), ("mu1", consts.mu1),
                         ("muL", consts.muL), ("L", consts.L),
                         ("Lbar", consts.Lbar)):
        print(f"{label:<4} = {value:.12g}")
    print()
    print(rate_table(consts, eps_mult=args.eps or ()).text())
    return 0


def cmd_counterexample(args):
    print(harness.counterexample_text(harness.run_counterexamples()))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="greedycd",
        description="coordinate descent rules, benchmarks and bounds")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="write an experiment directory")
    p.add_argument("--problem", choices=harness.GENERATORS, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="minimise with one rule")
    _add_problem_args(p)
    p.add_argument("--rule", choices=RULE_NAMES, default="gs")
    p.add_argument("--eps", type=float, default=0.0,
                   help="selection error for the inexact greedy rules")
    p.add_argument("--step", choices=STEP_MODES, default="auto")
    p.add_argument("--backend", choices=BACKENDS, default="scan",
                   help=BACKEND_HELP)
    p.add_argument("--iters", type=int, help="default 50 n")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--rule-seed", type=int, default=0,
                   help="PRNG seed for stochastic rules")
    p.add_argument("--x0", metavar="PATH", help="dense mtx starting point")
    p.add_argument("--out", metavar="PATH", help="write the trace CSV here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("race", help="compare rules on one problem")
    _add_problem_args(p)
    p.add_argument("--rules", required=True,
                   help="comma-separated rule names")
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--step", choices=STEP_MODES, default="auto")
    p.add_argument("--backend", choices=BACKENDS, default="scan",
                   help=BACKEND_HELP)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--tol", type=float, default=0.0)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--x0", metavar="PATH")
    p.add_argument("--out", metavar="DIR",
                   help="write per-rule trace CSVs into this directory")
    p.set_defaults(func=cmd_race)

    p = sub.add_parser("bounds",
                       help="contraction factors for a quadratic problem")
    _add_problem_args(p)
    p.add_argument("--eps", type=float, action="append",
                   help="extra rows for inexact greedy (repeatable)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("counterexample",
                       help="the two showcase problems for the greedy "
                            "proximal rules")
    p.set_defaults(func=cmd_counterexample)

    for sp in sub.choices.values():
        sp.set_defaults(_parser=sp)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
