#!/usr/bin/env python3
"""greedycd's benchmark: time to a target gap per selection rule.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sparse-ls --seed 0 --seconds 10 --trace 0

One run sets up the workload's problem instances several times (generate,
manifest round trip, tracker and ball-tree build) and reports the median
set-up time, then runs whole rounds of every rule on every instance for
``--seconds`` seconds.  Every trace is checked against an independent
model of the problem (oracle.py) and against the first round's trace.

The processor's speed on a shared machine wanders by up to 1.6x, in
stretches of seconds.  So every timed call is bracketed by a probe (a fixed
interpreted loop) and scaled to the speed at which the probe takes
PROBE_REF_NS, and each run call's time is assembled from chunks of about
CHUNK_NS, each taken from the round that ran it fastest.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` it spends half the time untraced and half with spans
installed around greedycd's layers (layers.py), reports the per-layer
metrics from the traced half, and the difference between the halves as
each rule's tracing overhead; it also writes the spans and the traced
traces under ``.perfbench/`` in the checkout.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
check passed.
"""

import argparse
import contextlib
import inspect
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

import oracle as checks
from workloads import ROLES, WORKLOADS, rule_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3          # at least this many set-ups ...
SETUP_SECONDS = 1.0        # ... and more until this long has been spent
CHUNK_NS = 10_000_000      # a timed piece of a run lasts about this long
PROBE_REF_NS = 1_000_000   # the probe's time at the reference speed

GAP_ROLES = ("random", "greedy", "greedy_lip")
END_TO_END = (
    [("setup_s", "s")]
    + [(f"{r}_iter_us", "us") for r in GAP_ROLES]
    + [(f"{r}_gap_iters", "iters") for r in GAP_ROLES]
    + [(f"{r}_gap_s", "s") for r in GAP_ROLES]
    + [("peak_rss_mib", "MiB")])
SETUP_LAYERS = (("harness.gen_s", "s"), ("harness.manifest_s", "s"),
                ("tracker.build_ms", "ms"), ("nns.build_ms", "ms"))
ROLE_LAYERS = (
    ("iter_us", "us"), ("overhead_pct", "%"),
    ("descent.self_us", "us"), ("descent.resid_us", "us"),
    ("descent.trace_us", "us"), ("rules.select_us", "us"),
    ("nns.select_us", "us"), ("tracker.update_us", "us"),
    ("tracker.rescore_us", "us"), ("tracker.refresh_us", "us"),
    ("tracker.touched_rows", "count"), ("tracker.touched_grads", "count"),
    ("kernels.col_axpy_us", "us"), ("kernels.scatter_us", "us"),
    ("kernels.heap_update_us", "us"), ("kernels.graph_move_us", "us"),
    ("linalg.heap_us", "us"), ("linalg.heap_ops", "count"),
    ("problems.prox_us", "us"), ("problems.prox_coords", "count"))
# Inclusive span time per iteration, for the per-role layer metrics.
SPAN_OF = {
    "descent.trace_us": "descent.trace", "rules.select_us": "rules.select",
    "nns.select_us": "nns.select", "tracker.update_us": "tracker.update",
    "tracker.rescore_us": "tracker.rescore",
    "tracker.refresh_us": "tracker.refresh",
    "kernels.col_axpy_us": "kernels.col_axpy",
    "kernels.scatter_us": "kernels.scatter",
    "kernels.heap_update_us": "kernels.heap_update",
    "kernels.graph_move_us": "kernels.graph_move",
    "linalg.heap_us": "linalg.heap"}
GREEDY_RULES = ("gs", "gsl", "gs-q", "gsl-q")


def import_program():
    """Put the checkout's own sources first on the path and import them."""
    init = os.path.join(SRC, "greedycd", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: {init} is missing; run from the root "
                         "of a greedycd checkout")
    sys.path.insert(0, SRC)
    import greedycd
    if os.path.abspath(greedycd.__file__) != init:
        raise SystemExit(f"perfbench: imported greedycd from "
                         f"{greedycd.__file__}, not from {SRC}")


class Instance:
    """One generated problem, as reloaded from its manifest."""

    def __init__(self, index, exp, loaded):
        self.index = index
        self.problem = loaded.problem
        self.oracle = checks.Oracle.from_experiment(exp)
        self.x0 = np.zeros(self.problem.n)     # the library's default


def set_up(workload, workdir):
    """Generate, round-trip through a manifest and build every rule's
    tracker (and ball tree), as a run would; returns (list of (index,
    generated, loaded), seconds)."""
    from greedycd import descent, harness, nns, rules, tracker

    default_backend = inspect.signature(descent.run).parameters["backend"].default
    t0 = time.perf_counter()
    built = []
    for j in range(workload.instances):
        exp = harness.gen_experiment(workload.family, m=workload.m,
                                     n=workload.n, lam=workload.lam, seed=j)
        path = harness.save_experiment(exp, os.path.join(workdir, f"i{j}"))
        loaded = harness.load_experiment(path)
        problem = loaded.problem
        x0 = np.zeros(problem.n)
        for role in workload.roles:
            if role.backend == "nns":
                nns.BallTreeIndex(problem, mode="gsl")
                tracker.make_tracker(problem, x0, scorer=None, backend="scan")
            else:
                scorer = rules.make_rule(role.rule).scorer(problem)
                tracker.make_tracker(problem, x0, scorer=scorer,
                                     backend=role.backend or default_backend)
        built.append((j, exp, loaded))
    return built, time.perf_counter() - t0


_PROBE_DATA = np.arange(4096, dtype=np.float64)
_PROBE_INDEX = _PROBE_DATA[::-1].astype(np.int64)


def probe_ns():
    """Time of a fixed interpreted loop over numpy scalars, the kind of work
    greedycd's kernels do; it tracks how fast the processor runs now."""
    t0 = time.perf_counter_ns()
    acc = 0.0
    for i in range(4096):
        acc += _PROBE_DATA[_PROBE_INDEX[i]]
    return time.perf_counter_ns() - t0


def run_round(workload, instances, seed, tracer=None):
    """Every rule on every instance, once per stream; returns
    {(instance, role, stream): (trace, wall seconds, speed factor)}, the
    factor being PROBE_REF_NS over the probe's time around the call."""
    from greedycd import descent

    out = {}
    for inst in instances:
        for role in workload.roles:
            kwargs = {} if role.backend is None else {"backend": role.backend}
            if tracer is not None:
                tracer.role = role.name
            for stream in range(role.streams):
                before = probe_ns()
                t0 = time.perf_counter()
                trace = descent.run(
                    inst.problem, role.rule, max_iters=role.budget, tol=0.0,
                    seed=rule_seed(seed, inst.index, role.name, stream),
                    **kwargs)
                wall = time.perf_counter() - t0
                speed = 2.0 * PROBE_REF_NS / (before + probe_ns())
                out[(inst.index, role.name, stream)] = (trace, wall, speed)
    return out


def measure(workload, instances, seed, seconds, reference, errors, tracer=None):
    """Whole rounds until ``seconds`` have passed (at least one).  The first
    round ever run becomes ``reference``; every later trace must follow the
    same path.  Returns, per round, {run: (wall seconds, elapsed_ns)}."""
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        timing = {}
        for key, (trace, wall, speed) in run_round(workload, instances, seed,
                                                   tracer).items():
            if key not in reference:
                reference[key] = trace
            elif not trace.same_path(reference[key]):
                errors.append(f"{key}: trace differs from the first round's"
                              + (" (traced)" if tracer else ""))
            timing[key] = (wall * speed, np.asarray(trace.elapsed_ns) * speed)
        rounds.append(timing)
    return rounds


def check_references(workload, instances, reference):
    """Independent checks on the first round's traces; returns (gap index
    per run, errors)."""
    errors, gap = [], {}
    roles = {role.name: role for role in workload.roles}
    for (index, name, stream), trace in reference.items():
        inst = instances[index]
        role = roles[name]
        errors += checks.check_above_fstar(trace, inst.oracle)
        errors += checks.check_monotone(trace)
        errors += checks.check_final(trace, inst.oracle, inst.x0)
        if role.rule in GREEDY_RULES:
            errors += checks.check_picks(trace, inst.oracle, role.rule,
                                         inst.x0)
        if role.backend == "nns":
            errors += checks.check_same_picks(
                trace, reference[(index, "greedy_lip", 0)])
        k = inst.oracle.gap_iters(trace.objective, workload.target)
        if k is None:
            errors.append(f"{trace.rule} on instance {inst.index} did not "
                          f"reach gap {workload.target} in {role.budget} "
                          "iterations")
            k = len(trace) - 1
        gap[(index, name, stream)] = k
    return gap, errors


def fastest_ns(samples, k=None):
    """Time of one run call from its rounds' (wall seconds, elapsed_ns),
    each chunk of iterations lasting about CHUNK_NS taken from the round
    that ran it fastest.  With ``k``: the time from the first iteration to
    iterate k."""
    steps = np.diff(np.stack([e for _, e in samples]), axis=1)
    chunk = max(1, int(CHUNK_NS / np.median(steps)))
    if k is not None:
        steps = steps[:, :k]
    chunks = np.add.reduceat(steps, np.arange(0, steps.shape[1], chunk),
                             axis=1)
    loop = float(chunks.min(axis=0).sum())
    if k is not None:
        return loop
    return loop + min(wall * 1e9 - e[-1] for wall, e in samples)


def best_times(workload, rounds, gap):
    """{role: (us per iteration, mean seconds to the gap)}."""
    out = {}
    for role in workload.roles:
        keys = [key for key in rounds[0] if key[1] == role.name]
        samples = {key: [r[key] for r in rounds] for key in keys}
        total_ns = sum(fastest_ns(samples[key]) for key in keys)
        iters = sum(len(rounds[0][key][1]) - 1 for key in keys)
        gap_s = statistics.fmean(
            fastest_ns(samples[key], gap[key]) / 1e9 for key in keys)
        out[role.name] = (total_ns / 1e3 / iters, gap_s)
    return out


def end_to_end_metrics(workload, setup_times, rounds, gap):
    timing = best_times(workload, rounds, gap)
    values = {"setup_s": statistics.median(setup_times)}
    for role in GAP_ROLES:
        values[f"{role}_iter_us"], values[f"{role}_gap_s"] = timing[role]
        values[f"{role}_gap_iters"] = statistics.fmean(
            k for (_, r, _), k in gap.items() if r == role)
    values["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return values


def layer_metrics(workload, tracer, untraced, traced, reference, gap):
    """Per-layer metrics from the traced rounds; overhead against the
    untraced ones.  Every traced run follows its reference trace's path, so
    the work counters are read from the reference traces."""
    n_setup = tracer.ncalls("setup", "harness.gen")
    values = {
        "harness.gen_s": tracer.total("setup", "harness.gen") / 1e9 / n_setup,
        "harness.manifest_s":
            tracer.total("setup", "harness.manifest") / 1e9 / n_setup,
    }
    for key, span in (("tracker.build_ms", "tracker.build"),
                      ("nns.build_ms", "nns.build")):
        calls = tracer.ncalls("setup", span)
        values[key] = tracer.total("setup", span) / 1e6 / calls if calls else 0.0

    plain = best_times(workload, untraced, gap)
    timed = best_times(workload, traced, gap)
    roles = {role.name for role in workload.roles}
    for role in ROLES:
        row = dict.fromkeys((name for name, _ in ROLE_LAYERS), 0.0)
        if role in roles:
            traces = [t for key, t in reference.items() if key[1] == role]
            iters_per_round = sum(len(t) - 1 for t in traces)
            iters = len(traced) * iters_per_round
            per_iter = 1e-3 / iters          # ns in total -> us per iteration
            row["iter_us"] = timed[role][0]
            row["overhead_pct"] = 100.0 * (row["iter_us"] / plain[role][0] - 1.0)
            row["descent.self_us"] = tracer.self_time(role, "descent.run") * per_iter
            row["descent.resid_us"] = per_iter * (
                tracer.total(role, "descent.resid")
                + tracer.total(role, "problems.prox_all", parent="descent.run"))
            for name, span in SPAN_OF.items():
                row[name] = tracer.total(role, span) * per_iter
            row["problems.prox_us"] = per_iter * (
                tracer.total(role, "problems.prox")
                + tracer.total(role, "problems.prox_all"))
            row["problems.prox_coords"] = (
                tracer.counts[(role, "problems.prox")]
                + tracer.counts[(role, "problems.prox_all")]) / iters
            for name, column in (("tracker.touched_rows", "touched_rows"),
                                 ("tracker.touched_grads", "touched_grads"),
                                 ("linalg.heap_ops", "heap_ops")):
                row[name] = (sum(sum(getattr(t, column)) for t in traces)
                             / iters_per_round)
        values.update({f"{role}.{name}": v for name, v in row.items()})
    return values


def write_dumps(workload, seed, tracer, reference):
    """The aggregated spans, and the traces of instance 0."""
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload.name}-seed{seed}")
    with open(stem + "-spans.json", "w") as fh:
        json.dump(tracer.dump(), fh, indent=1)
    for (index, role, stream), trace in reference.items():
        if index == stream == 0:
            trace.write_csv(f"{stem}-{role}.csv")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="a non-negative integer")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{', '.join(WORKLOADS)}")
    import_program()
    import layers

    workload = WORKLOADS[args.workload]
    tracer = layers.Tracer() if args.trace else None
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        setup_times, spent = [], 0.0
        while len(setup_times) < SETUP_REPEATS or spent < SETUP_SECONDS:
            before = probe_ns()
            with (layers.installed(tracer) if tracer
                  else contextlib.nullcontext()):
                built, seconds = set_up(workload, workdir)
            spent += seconds
            setup_times.append(
                seconds * 2.0 * PROBE_REF_NS / (before + probe_ns()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = []
    instances = []
    for j, exp, loaded in built:
        errors += checks.check_manifest(exp.problem, loaded.problem, args.seed)
        instances.append(Instance(j, exp, loaded))

    reference = {}
    if tracer is None:
        rounds = measure(workload, instances, args.seed, args.seconds,
                         reference, errors)
        traced = []
    else:
        rounds = measure(workload, instances, args.seed, args.seconds / 2,
                         reference, errors)
        with layers.installed(tracer):
            traced = measure(workload, instances, args.seed, args.seconds / 2,
                             reference, errors, tracer)
    gap, check_errors = check_references(workload, instances, reference)
    errors += check_errors

    if tracer is None:
        values = end_to_end_metrics(workload, setup_times, rounds, gap)
        units = dict(END_TO_END)
    else:
        values = layer_metrics(workload, tracer, rounds, traced, reference,
                               gap)
        units = dict(SETUP_LAYERS)
        units.update({f"{r}.{name}": unit
                      for r in ROLES for name, unit in ROLE_LAYERS})
        write_dumps(workload, args.seed, tracer, reference)

    attempted = sum(len(r) for r in rounds) + sum(len(r) for r in traced)
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(f"{workload.name} seed {args.seed}: {len(rounds)} untraced and "
          f"{len(traced)} traced rounds of {len(rounds[0])} runs; "
          f"{len(errors)} failed checks")
    for name, unit in units.items():
        print(f"  {name:<34} {values[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": 0,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
