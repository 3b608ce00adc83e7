"""One benchmark run of one workload, in a fresh interpreter (see run.py).

An untimed warm-up imports polymf3, builds the inputs, runs every
operation once and checks its output with the independent oracle; the
peak resident set is read after it. Set-up (a fresh import of polymf3 and
the inputs) is then timed SETUP_REPS times and its median reported. Timed
rounds run the operations round-robin until --seconds of wall time have
passed, each timed with process CPU time after gc.collect(), so every
phase of the host's drifting speed falls on every operation; each
operation's median over the rounds is what counts. With --trace 1 the
rounds alternate untraced and traced, and the per-layer metrics come from
the traced ones.

The host's speed switches between levels some 30% apart that last from
seconds to minutes, longer than a run. So every timed section is
bracketed by a fixed pure-Python reference kernel that uses no polymf3
code, and each sample is reported at reference speed:
    seconds * REFERENCE_NOMINAL_S / mean(reference before, reference after).
A change to polymf3 moves the sample and not the reference.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

import oracle
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "perfbench", "results")
SETUP_REPS = 5
# The reference kernel's CPU time at "reference speed"; it only sets the scale.
REFERENCE_NOMINAL_S = 0.008
MODULES = ["polymf3", "polymf3.serialize", "polymf3.cli"]


def _import_fresh():
    for name in [m for m in sys.modules if m == "polymf3" or m.startswith("polymf3.")]:
        del sys.modules[name]
    for name in MODULES:
        importlib.import_module(name)
    return sys.modules["polymf3"]


def reference() -> float:
    """CPU seconds of a fixed dict-and-tuple loop: the host's speed right now.

    Of the kernels tried (integer arithmetic, calls, Fraction products,
    dict/tuple updates), this one tracked polymf3's speed changes best.
    """
    gc.disable()
    try:
        start = time.process_time()
        table = {}
        for i in range(30000):
            key = (i & 255, i >> 8)
            table[key] = table.get(key, 0) + i
        return time.process_time() - start
    finally:
        gc.enable()


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    return seconds * REFERENCE_NOMINAL_S / ((before + after) / 2)


def set_up(build, seed, workdir):
    """Median of import + input construction at reference speed, and the last ops built."""
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        before = reference()
        start = time.process_time()
        pm = _import_fresh()
        ops = build(pm, seed, workdir)
        elapsed = time.process_time() - start
        times.append(at_reference_speed(elapsed, before, reference()))
    return statistics.median(times), pm, ops


def fingerprint(view: dict) -> str:
    return hashlib.sha256(json.dumps(view, sort_keys=True).encode()).hexdigest()


def attempt(op, tracer=None):
    """Run op once: (CPU seconds, view of its output, error text or None)."""
    gc.collect()
    if tracer is not None:
        tracer.enable()
    start = time.process_time()
    try:
        out, error = op.run(), None
    except Exception as exc:  # an operation that raises is a failed operation
        out, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.process_time() - start
        if tracer is not None:
            tracer.disable()
    return seconds, (None if error else op.view(out)), error


def warm_up(ops, seed):
    """Run and fully check every operation once: (fingerprints, problems by op)."""
    rng = random.Random(seed)
    prints, problems = {}, {}
    planted = False
    for op in ops:
        _, view, error = attempt(op)
        if error:
            prints[op.name], problems[op.name] = None, [error]
            continue
        prints[op.name] = fingerprint(view)
        problems[op.name] = _checked(op, view, rng)
        if op.plant is not None and not planted and not problems[op.name]:
            planted = True
            if not _checked(op, op.plant(view), rng):
                problems["oracle-plant"] = [f"oracle missed a planted entry in {op.name}"]
    return prints, problems


def _checked(op, view, rng) -> list[str]:
    try:
        return op.verify(view, rng)
    except Exception as exc:  # malformed output is a failed check, not a crashed run
        return [f"check raised {type(exc).__name__}: {exc}"]


def timed_rounds(ops, seconds, prints, failing, tracer=None):
    """Round-robin rounds until `seconds` of wall time; with a tracer, odd rounds
    are traced. An attempt fails when its operation failed its warm-up check,
    raises, or gives an output other than the checked one."""
    samples = {op.name: [] for op in ops}
    traced_samples = {op.name: [] for op in ops}
    deltas, changed, references, rounds, failed = [], [], [], 0, 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds or (tracer and rounds % 2):
        traced = tracer is not None and rounds % 2 == 1
        before = tracer.snapshot() if traced else None
        ref_before = reference()
        for op in ops:
            dt, view, error = attempt(op, tracer if traced else None)
            ref_after = reference()
            references.append(ref_after)
            sample = at_reference_speed(dt, ref_before, ref_after)
            ref_before = ref_after
            (traced_samples if traced else samples)[op.name].append(sample)
            if op.name in failing:
                failed += 1
            elif error or fingerprint(view) != prints[op.name]:
                failed += 1
                changed.append(f"{op.name} in round {rounds}: {error or 'output changed'}")
        if traced:
            after = tracer.snapshot()
            deltas.append({k: v - before.get(k, 0) for k, v in after.items()})
            tracer.keep_spans = False
        rounds += 1
    return samples, traced_samples, deltas, changed, references, rounds, failed


def summary(samples) -> tuple[dict[str, float], float, float]:
    """Per-op median seconds, cpu_s (their sum) and op_gmean_ms."""
    med = {name: statistics.median(v) for name, v in samples.items() if v}
    cpu = sum(med.values())
    gmean = math.exp(statistics.fmean(math.log(v * 1000) for v in med.values()))
    return med, cpu, gmean


def layer_metrics(deltas, untraced_med, cpu_untraced, cpu_traced):
    def counts_of(delta):
        return {k: v for k, v in delta.items() if not k.endswith("_ns")}

    counts = counts_of(deltas[0])
    if any(counts_of(d) != counts for d in deltas[1:]):
        sys.stderr.write("warning: traced rounds gave different counts\n")

    def self_ms(layer):
        return statistics.median(d.get(f"{layer}.self_ns", 0) for d in deltas) / 1e6

    values = {}
    for layer in tracing.SPAN_LAYERS:
        values[f"{layer}.calls"] = counts.get(f"{layer}.calls", 0)
        values[f"{layer}.self_ms"] = self_ms(layer)
    for layer in tracing.SELF_ONLY_LAYERS:
        values[f"{layer}.self_ms"] = self_ms(layer)
    for name, _, _ in tracing.COUNTERS:
        values[name] = counts.get(name, 0)
    gcds = values["poly.gcd.calls"]
    values["poly.gcd.shortcut_ratio"] = (
        (gcds - values["poly.gcd.prs_fallbacks"]) / gcds if gcds else 0.0
    )
    for suite in tracing.LAW_SUITES:
        values[f"laws.{suite}.ms"] = untraced_med.get(f"laws.{suite}", 0.0) * 1000
    values["trace.overhead_s"] = cpu_traced - cpu_untraced
    units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RESULTS)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir) -> int:
    build = workloads.WORKLOADS[args.workload]
    problems = {"oracle-self-test": oracle.self_test()}
    prints, warm = warm_up(build(_import_fresh(), args.seed, workdir), args.seed)
    problems.update(warm)
    # read before the first reference kernel, whose table would mask small peaks
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s, pm, ops = set_up(build, args.seed, workdir)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, pm)
        tracer.keep_spans = True
    known = {op.name for op in ops if op.known_fault}
    failing = {name for name, found in problems.items() if found}
    samples, traced_samples, deltas, changed, references, rounds, failed = timed_rounds(
        ops, args.seconds, prints, failing, tracer
    )
    for name in sorted(failing):
        tag = "known fault" if name in known else "FAILED"
        sys.stderr.write(f"{tag}: {name}: {'; '.join(problems[name])}\n")
    for line in changed:
        sys.stderr.write(f"FAILED: {line}\n")
    med, cpu_s, gmean = summary(samples)
    if args.trace:
        _, cpu_traced, _ = summary(traced_samples)
        metrics = layer_metrics(deltas, med, cpu_s, cpu_traced)
        spans = os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.csv")
        tracer.write_spans(spans)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "cpu_s": {"value": cpu_s, "unit": "s"},
            "op_gmean_ms": {"value": gmean, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": rounds,
        "reference_ms": statistics.median(references) * 1000,
        "op_median_ms": {k: v * 1000 for k, v in med.items()},
        "known_faults": sorted(failing & known),
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.detail.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        fh.write(json.dumps(detail, indent=1) + "\n")
    result = {
        "correct": not (failing - known) and not changed,
        "attempted": rounds * len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
